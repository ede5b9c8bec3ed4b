"""Batched categorical draws and stacked inverse-CDF draws.

The engines draw categories by inverting cumulative tables::

    np.searchsorted(cdf, u, side="left")          # flat CDF
    (u[:, None] > cum[rows]).sum(axis=1)          # per-row (per-hour) CDFs

Both count ``#{cdf values < u}``.  :class:`CategoricalTable` replaces
the O(log K) / O(n*K) inversion with an O(1) precomputed bucket table
-- the alias-table idea adapted to be **bit-exact**: a classic Walker
alias table consumes randomness differently (and maps uniforms to
categories through a different partition), which would change the RNG
stream contract the traces are defined by.  Instead we bucket the unit
interval into ``M = 2**k`` equal cells and precompute, per cell, the
searchsorted answer on each side of the (at most one) CDF value that
falls inside it.  Because ``u * M`` and the cell boundaries ``b / M``
are exact in IEEE-754 for power-of-two ``M``, the lookup

    b = floor(u * M);  where(u <= cut[b], low[b], high[b])

returns exactly ``searchsorted(cdf, u, side="left")`` for every float
``u`` in ``[0, 1)`` -- including ties, duplicate CDF entries, and the
out-of-range tail.  The golden test pins this equivalence draw-by-draw.

Construction doubles ``M`` until no cell holds two distinct CDF values;
CDFs too dense for the cap (e.g. many-thousand-rank Zipf tails with
sub-2^-18 gaps) fall back to calling ``searchsorted`` directly, so the
table is always safe to build.

:class:`DistributionStack` does the same for the continuous draws of
the Fig. 12 generator: one uniform batch and one inverse-CDF pass over
a whole table of conditional distributions, consuming the RNG exactly
like one ``dist.ppf(rng.random(n))`` call per group in ascending key
order.  A batch may span several shards, each with its own stream:
:func:`shard_uniforms` makes every shard's call and the stack hands
each shard's uniforms to that shard's elements.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..distributions import layout_ppf, ppf_layout
from .backend import active_backend

__all__ = [
    "CategoricalTable",
    "CategoricalTableStack",
    "DistributionStack",
    "searchsorted_left",
    "shard_uniforms",
    "stable_order",
]

#: Cells in the smallest table; keeps tiny CDFs (region mixes, class
#: tables) cheap to build while already separating well-spaced values.
_MIN_BUCKETS = 64
#: Cap on table size: 2**18 cells = 2 MiB per int64 column.  Denser
#: CDFs use the searchsorted fallback.
_MAX_BUCKETS = 1 << 18


def searchsorted_left(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The reference inversion: ``#{cdf values < u}`` per element."""
    return np.searchsorted(cdf, u, side="left")


def shard_uniforms(rngs: Sequence[np.random.Generator], counts) -> np.ndarray:
    """``rngs[s].random(counts[s])`` for every shard with a nonzero
    count, concatenated in shard order."""
    parts = [rngs[s].random(int(counts[s])) for s in np.flatnonzero(counts)]
    if not parts:
        return np.empty(0, dtype=np.float64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer ``keys`` in ``[0, bound)``.

    Keys that fit 16 bits get NumPy's radix sort, several times faster
    than the stable sort of int64 keys.
    """
    dtype = np.int16 if bound <= np.iinfo(np.int16).max + 1 else np.int64
    return np.argsort(keys.astype(dtype, copy=False), kind="stable")


def _plan_buckets(cdf: np.ndarray) -> Optional[int]:
    """Smallest power-of-two M giving <= 1 distinct CDF value per cell.

    Only values in ``[0, 1)`` matter: draws are uniforms in ``[0, 1)``,
    so a CDF entry >= 1.0 can never satisfy ``value < u`` and entries
    < 0 cannot occur in a CDF.  Returns None when the cap is exceeded.
    """
    inside = np.unique(cdf[(cdf >= 0.0) & (cdf < 1.0)])
    m = _MIN_BUCKETS
    while m <= _MAX_BUCKETS:
        cells = (inside * m).astype(np.int64)
        if inside.size < 2 or np.all(np.diff(cells) > 0):
            return m
        m <<= 1
    return None


def _build_columns(cdf: np.ndarray, m: int):
    """(low, high, cut) columns for an M-cell table over one CDF."""
    boundaries = np.arange(m, dtype=np.float64) / m
    low = np.searchsorted(cdf, boundaries, side="left").astype(np.int64)
    high = low.copy()
    cut = np.ones(m, dtype=np.float64)
    inside = np.unique(cdf[(cdf >= 0.0) & (cdf < 1.0)])
    if inside.size:
        cells = (inside * m).astype(np.intp)
        cut[cells] = inside
        high[cells] = np.searchsorted(cdf, inside, side="right")
    return low, high, cut


class CategoricalTable:
    """Precomputed O(1) replacement for ``searchsorted(cdf, u, 'left')``."""

    __slots__ = ("cdf", "_m", "_low", "_high", "_cut")

    def __init__(self, cdf: np.ndarray):
        self.cdf = np.ascontiguousarray(cdf, dtype=np.float64)
        m = _plan_buckets(self.cdf)
        self._m = m
        if m is None:  # too dense: keep the reference inversion
            self._low = self._high = self._cut = None
        else:
            self._low, self._high, self._cut = _build_columns(self.cdf, m)

    @property
    def uses_fallback(self) -> bool:
        """True when the CDF was too dense and lookups call searchsorted."""
        return self._m is None

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, u, side='left')`` for uniforms in [0, 1)."""
        u = np.asarray(u, dtype=np.float64)
        if self._m is None:
            return np.searchsorted(self.cdf, u, side="left")
        return active_backend().categorical_lookup(
            u, self._m, self._low, self._high, self._cut
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` categories, consuming exactly ``rng.random(n)``."""
        return self.lookup(rng.random(int(n)))


class CategoricalTableStack:
    """Per-row categorical tables sharing one bucket grid.

    Replaces the broadcast idiom ``(u[:, None] > cum[rows]).sum(axis=1)``
    over a (R, K) matrix of row CDFs (e.g. the 24 per-hour region
    mixes) with one gather per draw.  Bit-exact for the same reason as
    :class:`CategoricalTable`; rows too dense for the cap fall back to
    the broadcast form.
    """

    __slots__ = ("cum", "_m", "_low", "_high", "_cut")

    def __init__(self, cum: np.ndarray):
        self.cum = np.ascontiguousarray(cum, dtype=np.float64)
        if self.cum.ndim != 2:
            raise ValueError(f"expected a (rows, K) CDF matrix, got {self.cum.shape}")
        m = 0
        for row in self.cum:
            row_m = _plan_buckets(row)
            if row_m is None:
                m = None
                break
            m = max(m, row_m)
        self._m = m
        if m is None:
            self._low = self._high = self._cut = None
            return
        rows = [_build_columns(row, m) for row in self.cum]
        self._low = np.stack([r[0] for r in rows])
        self._high = np.stack([r[1] for r in rows])
        self._cut = np.stack([r[2] for r in rows])

    @property
    def uses_fallback(self) -> bool:
        return self._m is None

    def lookup(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per-element inversion of row ``rows[i]`` at uniform ``u[i]``."""
        u = np.asarray(u, dtype=np.float64)
        rows = np.asarray(rows)
        if self._m is None:
            return (u[:, None] > self.cum[rows]).sum(axis=1)
        return active_backend().categorical_lookup_rows(
            rows, u, self._m, self._low, self._high, self._cut
        )

    def sample(
        self, rng: np.random.Generator, rows: np.ndarray
    ) -> np.ndarray:
        """One draw per row index, consuming ``rng.random(len(rows))``."""
        return self.lookup(rows, rng.random(len(rows)))


class DistributionStack:
    """Per-row continuous distributions sampled in one inverse-CDF pass.

    Row ``r`` is ``dists[r]``.  :meth:`invert` gives one value per code
    and is byte-identical to the per-group loop it replaces, run by each
    shard of the batch on its own stream::

        for r in sorted(set(codes)):
            idx = np.flatnonzero(codes == r)
            out[idx] = dists[r].ppf(rng.random(idx.size))

    Rows sharing a :func:`~repro.core.distributions.ppf_layout`
    structure (every table of the paper model is one structure) are
    evaluated together through the family formulas with per-element
    parameter columns; a parameter equal across the structure's rows
    stays a scalar.  Rows without a layout (say, an ``Empirical`` passed
    to ``WorkloadModel.from_fits``) call their own ``ppf`` on their
    slice of the same uniforms.  The stack holds only arrays, structure
    tuples and the fallback distributions, so it pickles to generator
    workers.
    """

    __slots__ = ("n_rows", "_row_group", "_groups", "_fallback")

    def __init__(self, dists: Sequence):
        self.n_rows = len(dists)
        layouts = [ppf_layout(d) for d in dists]
        structures: dict = {}
        row_group = np.full(self.n_rows, -1, dtype=np.int64)
        for row, layout in enumerate(layouts):
            if layout is not None:
                row_group[row] = structures.setdefault(layout[0], len(structures))
        groups = []
        for structure, g in structures.items():
            rows = np.flatnonzero(row_group == g)
            table = np.array([layouts[r][1] for r in rows], dtype=np.float64)
            columns = []
            for col in table.T:
                bits = col.view(np.int64)
                if np.all(bits == bits[0]):
                    columns.append(float(col[0]))
                else:
                    full = np.zeros(self.n_rows, dtype=np.float64)
                    full[rows] = col
                    columns.append(full)
            groups.append((structure, tuple(columns)))
        self._row_group = row_group
        self._groups = tuple(groups)
        self._fallback = tuple(
            (row, dists[row]) for row, layout in enumerate(layouts) if layout is None
        )

    def invert(self, u: np.ndarray, codes: np.ndarray, shards: np.ndarray) -> np.ndarray:
        """One value per code in ``[0, n_rows)`` from the uniforms of one
        or more shards.

        ``u`` holds, shard by shard in ascending shard order, the
        uniforms of one ``random(n_s)`` call per shard with ``n_s``
        elements (see :func:`shard_uniforms`); ``shards`` gives each
        element's shard.  Uniform ``j`` of shard ``s`` goes to the
        ``j``-th element of shard ``s`` in stable code order -- the order
        the per-group loop consumes them in on that shard's stream.
        """
        codes = np.asarray(codes)
        shards = np.asarray(shards)
        bound = self.n_rows * (int(shards.max(initial=0)) + 1)
        order = stable_order(shards * self.n_rows + codes, bound)
        q = np.empty_like(u)
        q[order] = u
        out = np.empty(codes.size, dtype=np.float64)
        whole = len(self._groups) == 1 and not self._fallback
        for g, (structure, columns) in enumerate(self._groups):
            sel = slice(None) if whole else np.flatnonzero(self._row_group[codes] == g)
            if not whole and sel.size == 0:
                continue
            out[sel] = layout_ppf(structure, q[sel], columns, codes[sel])
        for row, dist in self._fallback:
            idx = np.flatnonzero(codes == row)
            if idx.size:
                out[idx] = dist.ppf(q[idx])
        return out
