"""Model distribution families used by the IMC'04 workload characterization.

The paper (Appendix, Tables A.1-A.5 and Figure 11) models every workload
measure with one of four parametric families, sometimes spliced into a
body/tail mixture:

* **Lognormal** -- passive session duration (body and tail), number of
  queries per active session, time-until-first-query tail, interarrival
  body, time after last query.
* **Weibull** -- time-until-first-query body.  The paper writes the CDF as
  ``F(x) = 1 - exp(-lambda * x**alpha)`` (rate parameterization).
* **Pareto** -- query interarrival tail, ``CCDF(x) = (beta / x)**alpha``
  for ``x >= beta``.
* **Zipf-like** -- query popularity, ``p(r)`` proportional to ``r**-alpha``.

This module implements those families with a uniform interface
(:class:`Distribution`), plus the combinators the Appendix uses:
:class:`Truncated` for conditioning on an interval and :class:`Spliced`
for body/tail mixtures ("Body: 0-45 seconds (w%), Tail: > 45 seconds").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Distribution",
    "Lognormal",
    "Weibull",
    "Pareto",
    "Exponential",
    "Uniform",
    "Zipf",
    "Truncated",
    "Spliced",
    "Empirical",
    "layout_ppf",
    "ppf_layout",
]


def _as_array(x):
    return np.asarray(x, dtype=float)


class Distribution(ABC):
    """A continuous distribution on ``[0, inf)`` with inverse-CDF sampling."""

    @abstractmethod
    def cdf(self, x):
        """Return ``P[X <= x]`` (vectorized)."""

    @abstractmethod
    def ppf(self, q):
        """Return the quantile function (inverse CDF), vectorized."""

    def ccdf(self, x):
        """Return the complementary CDF ``P[X > x]``."""
        return 1.0 - self.cdf(x)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw samples via inverse-CDF on uniforms from ``rng``."""
        u = rng.random(size)
        return self.ppf(u)

    def mean(self) -> float:
        """Analytic mean; subclasses without a closed form raise."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form mean")

    def median(self) -> float:
        return float(self.ppf(0.5))


class Lognormal(Distribution):
    """Lognormal distribution: ``ln X ~ Normal(mu, sigma**2)``.

    The paper states parameters as ``sigma`` and ``mu`` of the underlying
    normal, with all times measured in seconds.
    """

    def __init__(self, mu: float, sigma: float):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def cdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        z = (np.log(x[pos]) - self.mu) / self.sigma
        out[pos] = 0.5 * (1.0 + _erf_vec(z / math.sqrt(2.0)))
        return out if out.shape else float(out)

    def ppf(self, q):
        out = _lognormal_ppf(_as_array(q), self.mu, self.sigma)
        return out if out.shape else float(out)

    def pdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = np.exp(-((np.log(xp) - self.mu) ** 2) / (2 * self.sigma**2)) / (
            xp * self.sigma * math.sqrt(2 * math.pi)
        )
        return out if out.shape else float(out)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def __repr__(self):
        return f"Lognormal(mu={self.mu:.4g}, sigma={self.sigma:.4g})"


class Weibull(Distribution):
    """Weibull in the paper's rate form: ``CDF(x) = 1 - exp(-lam * x**alpha)``.

    ``alpha`` is the shape and ``lam`` the rate (Table A.3 lists e.g.
    ``alpha = 1.477, lambda = 0.005252``).
    """

    def __init__(self, alpha: float, lam: float):
        if alpha <= 0 or lam <= 0:
            raise ValueError(f"alpha and lam must be positive, got {alpha}, {lam}")
        self.alpha = float(alpha)
        self.lam = float(lam)

    @property
    def scale(self) -> float:
        """Equivalent scale parameter of the standard parameterization."""
        return self.lam ** (-1.0 / self.alpha)

    def cdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = 1.0 - np.exp(-self.lam * x[pos] ** self.alpha)
        return out if out.shape else float(out)

    def ppf(self, q):
        out = _weibull_ppf(_as_array(q), self.alpha, self.lam)
        return out if out.shape else float(out)

    def pdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        pos = x > 0
        xp = x[pos]
        out[pos] = self.lam * self.alpha * xp ** (self.alpha - 1) * np.exp(-self.lam * xp**self.alpha)
        return out if out.shape else float(out)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.alpha)

    def __repr__(self):
        return f"Weibull(alpha={self.alpha:.4g}, lam={self.lam:.4g})"


class Pareto(Distribution):
    """Pareto distribution: ``CCDF(x) = (beta / x)**alpha`` for ``x >= beta``.

    Table A.4 uses this for the interarrival tail with ``beta = 103``.
    """

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"alpha and beta must be positive, got {alpha}, {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def cdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        above = x >= self.beta
        out[above] = 1.0 - (self.beta / x[above]) ** self.alpha
        return out if out.shape else float(out)

    def ppf(self, q):
        out = _pareto_ppf(_as_array(q), self.alpha, self.beta)
        return out if out.shape else float(out)

    def pdf(self, x):
        x = _as_array(x)
        out = np.zeros_like(x)
        above = x >= self.beta
        out[above] = self.alpha * self.beta**self.alpha / x[above] ** (self.alpha + 1)
        return out if out.shape else float(out)

    def mean(self) -> float:
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.beta / (self.alpha - 1.0)

    def __repr__(self):
        return f"Pareto(alpha={self.alpha:.4g}, beta={self.beta:.4g})"


class Exponential(Distribution):
    """Exponential distribution with rate ``lam`` (arrival-process substrate)."""

    def __init__(self, lam: float):
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.lam = float(lam)

    def cdf(self, x):
        x = _as_array(x)
        out = np.where(x > 0, 1.0 - np.exp(-self.lam * np.maximum(x, 0.0)), 0.0)
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        out = -np.log1p(-q) / self.lam
        return out if out.shape else float(out)

    def mean(self) -> float:
        return 1.0 / self.lam

    def __repr__(self):
        return f"Exponential(lam={self.lam:.4g})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if high <= low:
            raise ValueError(f"need high > low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def cdf(self, x):
        x = _as_array(x)
        out = np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        out = self.low + q * (self.high - self.low)
        return out if out.shape else float(out)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self):
        return f"Uniform({self.low:.4g}, {self.high:.4g})"


class Zipf:
    """Zipf-like distribution over ranks ``1..n``: ``p(r) ~ r**-alpha``.

    Not a :class:`Distribution` subclass because its support is discrete
    ranks, but it offers the same ``sample`` interface plus ``pmf``.
    """

    def __init__(self, alpha: float, n: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self.n = int(n)
        weights = np.arange(1, self.n + 1, dtype=float) ** (-self.alpha)
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._table = None  # lazy kernels.CategoricalTable over _cdf

    def pmf(self, rank):
        """Probability of ``rank`` (1-based); zero outside ``1..n``."""
        rank = np.asarray(rank, dtype=int)
        out = np.zeros(rank.shape if rank.shape else (1,))
        flat_rank = np.atleast_1d(rank)
        valid = (flat_rank >= 1) & (flat_rank <= self.n)
        out = np.where(valid, self._pmf[np.clip(flat_rank, 1, self.n) - 1], 0.0)
        return out if rank.shape else float(out[0])

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw 1-based ranks (via the precomputed categorical table,
        draw-for-draw identical to ``searchsorted(cdf, u, 'left')``)."""
        if self._table is None:
            from .kernels import CategoricalTable

            self._table = CategoricalTable(self._cdf)
        ranks = self._table.lookup(rng.random(size)) + 1
        if size is None:
            return int(ranks)
        return ranks.astype(int)

    def __repr__(self):
        return f"Zipf(alpha={self.alpha:.4g}, n={self.n})"


class Truncated(Distribution):
    """``base`` conditioned on the interval ``(low, high]``.

    Used to realize the Appendix's body/tail components, e.g. a lognormal
    restricted to "> 2 minutes".
    """

    def __init__(self, base: Distribution, low: float = 0.0, high: float = math.inf):
        if high <= low:
            raise ValueError(f"need high > low, got ({low}, {high}]")
        self.base = base
        self.low = float(low)
        self.high = float(high)
        self._cdf_low = float(base.cdf(self.low)) if self.low > 0 else float(base.cdf(0.0))
        self._cdf_high = float(base.cdf(self.high)) if math.isfinite(self.high) else 1.0
        self._mass = self._cdf_high - self._cdf_low
        if self._mass <= 0:
            raise ValueError(
                f"base distribution {base!r} has no mass on ({low}, {high}]"
            )

    def cdf(self, x):
        x = _as_array(x)
        raw = np.clip((self.base.cdf(x) - self._cdf_low) / self._mass, 0.0, 1.0)
        raw = np.where(x < self.low, 0.0, raw)
        raw = np.where(x >= self.high, 1.0, raw)
        return raw if raw.shape else float(raw)

    def ppf(self, q):
        out = _truncated_ppf(
            _as_array(q), self.base.ppf, self._cdf_low, self._mass, self.low, self._ppf_high
        )
        return out if out.shape else float(out)

    @property
    def _ppf_high(self) -> float:
        return self.high if math.isfinite(self.high) else np.inf

    def __repr__(self):
        return f"Truncated({self.base!r}, ({self.low:.4g}, {self.high:.4g}])"


class Spliced(Distribution):
    """Body/tail mixture with an explicit boundary, as in Tables A.1-A.4.

    With probability ``body_weight`` a value is drawn from ``body``
    truncated to ``(body_low, boundary]``; otherwise from ``tail``
    truncated to ``(boundary, inf)``.  ``body_low`` realizes entries like
    Table A.1's "Body: 1-2 minutes": the filtered data starts at the
    64-second cutoff, so the body component only covers (64 s, 120 s].
    """

    def __init__(
        self,
        body: Distribution,
        tail: Distribution,
        boundary: float,
        body_weight: float,
        body_low: float = 0.0,
    ):
        if not 0.0 < body_weight < 1.0:
            raise ValueError(f"body_weight must be in (0, 1), got {body_weight}")
        if boundary <= 0:
            raise ValueError(f"boundary must be positive, got {boundary}")
        if not 0.0 <= body_low < boundary:
            raise ValueError(f"need 0 <= body_low < boundary, got {body_low}")
        self.boundary = float(boundary)
        self.body_weight = float(body_weight)
        self.body_low = float(body_low)
        self.body = Truncated(body, body_low, boundary)
        self.tail = Truncated(tail, boundary, math.inf)

    def cdf(self, x):
        x = _as_array(x)
        below = self.body_weight * self.body.cdf(np.minimum(x, self.boundary))
        above = (1.0 - self.body_weight) * self.tail.cdf(x)
        out = np.where(x <= self.boundary, below, self.body_weight + above)
        return out if out.shape else float(out)

    def ppf(self, q):
        out = _spliced_ppf(
            _as_array(q),
            self.body_weight,
            lambda x, _: self.body.ppf(x),
            lambda x, _: self.tail.ppf(x),
        )
        return out if out.shape else float(out)

    def __repr__(self):
        return (
            f"Spliced(body={self.body.base!r}, tail={self.tail.base!r}, "
            f"boundary={self.boundary:.4g}, body_weight={self.body_weight:.3g})"
        )


class Empirical(Distribution):
    """Empirical distribution of observed samples (inverse-transform on sorted data)."""

    def __init__(self, samples: Sequence[float]):
        data = np.sort(np.asarray(samples, dtype=float))
        if data.size == 0:
            raise ValueError("need at least one sample")
        self.data = data

    def cdf(self, x):
        x = _as_array(x)
        out = np.searchsorted(self.data, x, side="right") / self.data.size
        return out if out.shape else float(out)

    def ppf(self, q):
        q = _as_array(q)
        idx = np.clip((q * self.data.size).astype(int), 0, self.data.size - 1)
        out = self.data[idx]
        return out if out.shape else float(out)

    def mean(self) -> float:
        return float(self.data.mean())

    def __repr__(self):
        return f"Empirical(n={self.data.size})"


# ---------------------------------------------------------------------------
# Inverse-CDF formulas
# ---------------------------------------------------------------------------
#
# One formula per family, called both by the scalar ``ppf`` methods above
# and, with per-element parameter arrays, by
# :class:`repro.core.kernels.DistributionStack`.  Elementwise IEEE
# arithmetic gives the same bits whether a parameter is a scalar or an
# array aligned with ``q``; the one exception is ``**``, see ``_power``.

#: Exponents NumPy evaluates with reciprocal, sqrt and square when the
#: exponent is a scalar.  An exponent *array* takes the general ``pow``
#: loop, which can differ from those in the last bit.  (NumPy's other
#: scalar shortcuts, 0 and 1, are exact either way.)
_SCALAR_POWER_EXPONENTS = (-1.0, 0.5, 2.0)


def _power(base, exponent):
    """``base ** exponent`` with the bits of a scalar exponent per element."""
    out = base ** exponent
    if np.ndim(exponent):
        for special in _SCALAR_POWER_EXPONENTS:
            hit = exponent == special
            if hit.any():
                out[hit] = base[hit] ** special
    return out


def _lognormal_ppf(q, mu, sigma):
    return np.exp(mu + sigma * _norm_ppf_vec(q))


def _weibull_ppf(q, alpha, lam):
    return _power(-np.log1p(-q) / lam, 1.0 / alpha)


def _pareto_ppf(q, alpha, beta):
    return beta * _power(1.0 - q, -1.0 / alpha)


def _truncated_ppf(q, base_ppf, cdf_low, mass, low, high):
    return np.clip(base_ppf(cdf_low + q * mass), low, high)


def _select(param, sel):
    """A per-element parameter at flat positions ``sel`` (scalars pass through)."""
    return param[sel] if np.ndim(param) else param


def _spliced_ppf(q, body_weight, body_ppf, tail_ppf):
    """Spliced inverse CDF, each element through its own branch only.

    ``body_ppf(x, sel)`` and ``tail_ppf(x, sel)`` evaluate one branch at
    the elements of ``q`` at flat positions ``sel``; ``sel`` lets a
    branch pick its per-element parameters to match.
    """
    in_body = q <= body_weight
    if not q.ndim:
        # Boolean indexing would make a one-element array, and NumPy's
        # array ``pow`` loop can differ from its scalar one in the last bit.
        if in_body:
            out = body_ppf(np.clip(q / body_weight, 0.0, 1.0), None)
        else:
            out = tail_ppf(np.clip((q - body_weight) / (1.0 - body_weight), 0.0, 1.0), None)
        return np.asarray(out, dtype=np.float64)
    # Integer positions: gathering and scattering by index is several
    # times cheaper than by a boolean mask of random bits.
    body = np.flatnonzero(in_body)
    tail = np.flatnonzero(~in_body)
    q = q.ravel()
    out = np.empty(q.size, dtype=np.float64)
    weight = _select(body_weight, body)
    out[body] = body_ppf(np.clip(q[body] / weight, 0.0, 1.0), body)
    weight = _select(body_weight, tail)
    out[tail] = tail_ppf(np.clip((q[tail] - weight) / (1.0 - weight), 0.0, 1.0), tail)
    return out.reshape(in_body.shape)


#: Leaf families with a stackable formula: class -> (parameter
#: attributes in formula order, formula).
_LEAF_FORMULAS = {
    Lognormal: (("mu", "sigma"), _lognormal_ppf),
    Weibull: (("alpha", "lam"), _weibull_ppf),
    Pareto: (("alpha", "beta"), _pareto_ppf),
}


def ppf_layout(dist) -> Optional[Tuple[object, Tuple[float, ...]]]:
    """Flatten a distribution into ``(structure, parameters)`` for stacking.

    ``structure`` is a hashable tree of family classes (``Lognormal``,
    ``(Truncated, base)``, ``(Spliced, body, tail)``); ``parameters``
    are the floats its formulas read, in tree order.  Two distributions
    with the same structure differ only in parameters, so one
    :func:`layout_ppf` pass evaluates both.  Returns None for families
    and compositions without a shared formula (``Empirical``,
    ``Exponential``, subclasses, ...).
    """
    kind = type(dist)
    if kind in _LEAF_FORMULAS:
        return kind, tuple(getattr(dist, attr) for attr in _LEAF_FORMULAS[kind][0])
    if kind is Truncated:
        base = ppf_layout(dist.base)
        if base is None:
            return None
        own = (dist._cdf_low, dist._mass, dist.low, dist._ppf_high)
        return (Truncated, base[0]), own + base[1]
    if kind is Spliced:
        body, tail = ppf_layout(dist.body), ppf_layout(dist.tail)
        if body is None or tail is None:
            return None
        return (Spliced, body[0], tail[0]), (dist.body_weight,) + body[1] + tail[1]
    return None


def _layout_width(structure) -> int:
    if structure in _LEAF_FORMULAS:
        return len(_LEAF_FORMULAS[structure][0])
    if structure[0] is Truncated:
        return 4 + _layout_width(structure[1])
    return 1 + _layout_width(structure[1]) + _layout_width(structure[2])


def _at(param, rows):
    """A per-row parameter table read at ``rows`` (scalars pass through)."""
    return param[rows] if isinstance(param, np.ndarray) else param


def layout_ppf(structure, q, params: Sequence, rows: np.ndarray):
    """Evaluate the ppf of a :func:`ppf_layout` structure at ``q``.

    ``params`` holds one entry per layout parameter, each a scalar or a
    per-row table; element ``i`` reads row ``rows[i]``.  The result
    equals, element for element, the array ``ppf`` of the distribution
    its row describes.  A ``Spliced`` evaluates each branch on its own
    elements only, reading the tables there.
    """
    if structure in _LEAF_FORMULAS:
        return _LEAF_FORMULAS[structure][1](q, *(_at(p, rows) for p in params))
    if structure[0] is Truncated:
        cdf_low, mass, low, high = (_at(p, rows) for p in params[:4])
        return _truncated_ppf(
            q, lambda x: layout_ppf(structure[1], x, params[4:], rows),
            cdf_low, mass, low, high,
        )
    split = 1 + _layout_width(structure[1])
    return _spliced_ppf(
        q,
        _at(params[0], rows),
        lambda x, sel: layout_ppf(structure[1], x, params[1:split], rows[sel]),
        lambda x, sel: layout_ppf(structure[2], x, params[split:], rows[sel]),
    )


def _erf_vec(z):
    """Vectorized error function (avoids importing scipy at module load)."""
    from scipy.special import erf

    return erf(z)


def _norm_ppf_vec(q):
    """Vectorized standard normal quantile function."""
    from scipy.special import ndtri

    q = np.clip(q, 1e-15, 1.0 - 1e-15)
    return ndtri(q)
