"""Pluggable array backend for the kernel layer.

The contract is deliberately *kernel-grained*, not ufunc-grained: a
backend implements (or inherits) whole kernels -- segmented arange and
cumsum, categorical-table lookup, fused offset assembly -- rather than
shadowing every NumPy primitive.  That keeps the dispatch surface small
enough that a numba-jitted or GPU backend can accelerate exactly the
kernels it cares about and inherit the NumPy reference for the rest,
while the engines above stay backend-agnostic.

Backend rules:

* Inputs and outputs are plain ``numpy.ndarray`` objects at the
  boundary (an accelerated backend may use device arrays internally but
  must hand back host arrays with identical dtype, shape, and bytes).
* Every kernel must be **byte-identical** to the NumPy reference for
  the same inputs.  The engines' reproducibility claims (fixed seed +
  shard layout => identical trace) are defined against the reference
  semantics; a backend that changes summation order or rounding is not
  a valid backend.  ``tests/test_kernels.py`` runs the equivalence
  battery over every registered backend.
* RNG draws stay in ``numpy.random.Generator`` on the host -- stream
  order is part of trace identity and never delegated to a backend.

Selection: :func:`active_backend` returns the process-wide default
(the ``numpy`` reference unless ``REPRO_KERNELS_BACKEND`` says
otherwise at import time, or :func:`use_backend` overrides it).  The
``stub`` backend is a registered alternate that inherits every
reference kernel unchanged -- it exists so tests and CI can exercise
the dispatch path itself and prove that backend switching cannot
change results.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Type

import numpy as np

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "StubBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "active_backend",
    "use_backend",
]


_REGISTRY: Dict[str, "ArrayBackend"] = {}


def register_backend(cls: Type["ArrayBackend"]) -> Type["ArrayBackend"]:
    """Class decorator: instantiate and register a backend by its name."""
    instance = cls()
    name = instance.name
    if not name:
        raise ValueError(f"backend {cls.__name__} must define a non-empty name")
    _REGISTRY[name] = instance
    return cls


def get_backend(name: str) -> "ArrayBackend":
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown kernels backend {name!r} (registered: {known})")


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)


class ArrayBackend:
    """Base class and NumPy reference implementation of every kernel.

    Subclasses override :attr:`name` and whichever kernels they
    accelerate; anything not overridden inherits the reference.
    """

    #: Registry key (``use_backend``, ``REPRO_KERNELS_BACKEND``).
    name = ""

    # -- segmented (ragged) kernels ------------------------------------

    def segmented_arange(self, counts: np.ndarray) -> np.ndarray:
        """``[0..counts[0]), [0..counts[1]), ...`` as one flat int64 array."""
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64)
        ends = np.cumsum(counts)
        starts = ends - counts
        return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)

    def segmented_cumsum(self, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Per-segment inclusive cumulative sum of flat segment-major data."""
        values = np.asarray(values, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if values.size == 0:
            return np.zeros(0, dtype=np.float64)
        running = np.cumsum(values)
        ends = np.cumsum(counts)
        starts = ends - counts
        base = np.where(starts > 0, running[starts - 1], 0.0)
        return running - np.repeat(base, counts)

    def segment_ids(self, counts: np.ndarray) -> np.ndarray:
        """Segment index of every flat element: ``[0]*counts[0] + [1]*counts[1] ...``."""
        counts = np.asarray(counts, dtype=np.int64)
        return np.repeat(np.arange(counts.size, dtype=np.int64), counts)

    def segmented_offsets_scatter(
        self, first: np.ndarray, gaps: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Fused draw->scatter->cumsum offsets, *scatter-first* form.

        One preallocated buffer holds ``first[i]`` at each segment head
        and the inter-element ``gaps`` elsewhere; a single segmented
        cumsum turns it into inclusive offsets.  Float summation order
        is ``cumsum([first, g1, g2, ...])`` -- the user-model planner's
        historical order, preserved bit-for-bit.
        """
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        vals = np.zeros(total, dtype=np.float64)
        is_first = self.segmented_arange(counts) == 0
        vals[is_first] = first
        vals[~is_first] = gaps
        return self.segmented_cumsum(vals, counts)

    def segmented_offsets_base(
        self, first: np.ndarray, gaps: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Fused offsets, *base-plus-gaps* form.

        ``repeat(first, counts) + cumsum([0, g1, g2, ...])`` -- the
        generator wave engine's historical order.  Numerically this is
        ``first + (g1 + g2)`` where the scatter form computes
        ``((first + g1) + g2)``; both are kept because each engine's
        float rounding is part of its output identity.
        """
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        vals = np.zeros(total, dtype=np.float64)
        vals[self.segmented_arange(counts) > 0] = gaps
        return np.repeat(first, counts) + self.segmented_cumsum(vals, counts)

    def group_slices(self, codes: np.ndarray):
        """Sort flat rows by integer group code and slice per group.

        Returns ``(order, keys, bounds)``: ``order`` is a stable
        position permutation grouping equal codes, ``keys`` the sorted
        distinct codes, and group ``k`` owns positions
        ``order[bounds[k]:bounds[k+1]]`` (ascending within each group).
        Replaces the O(groups * n) boolean-mask-per-key idiom with one
        O(n log n) pass; visiting groups in ``keys`` order preserves the
        engines' ascending-key RNG consumption contract.
        """
        codes = np.asarray(codes)
        order = np.argsort(codes, kind="stable")
        if codes.size == 0:
            return order, codes[:0], np.zeros(1, dtype=np.int64)
        sorted_codes = codes[order]
        # The argsort already grouped equal codes; boundaries fall out of
        # one linear inequality pass instead of a second sort (np.unique).
        change = np.nonzero(sorted_codes[1:] != sorted_codes[:-1])[0] + 1
        bounds = np.empty(change.size + 2, dtype=np.int64)
        bounds[0] = 0
        bounds[1:-1] = change
        bounds[-1] = codes.size
        keys = sorted_codes[bounds[:-1]]
        return order, keys, bounds

    # -- sorted-set membership kernels ---------------------------------

    def sorted_lookup(self, haystack: np.ndarray, values: np.ndarray):
        """Membership + position of ``values`` in a sorted unique ``haystack``.

        Returns ``(mask, idx)``: ``mask[i]`` is True when ``values[i]``
        occurs in ``haystack`` and ``idx[i]`` is then its position;
        where ``mask`` is False the position is meaningless (clipped).
        This is the duplicate-suppression primitive of the batched
        overlay engine: GUID/visited-set checks become one vectorized
        probe against a sorted key array instead of a Python set.
        """
        haystack = np.asarray(haystack)
        values = np.asarray(values)
        if haystack.size == 0:
            return (
                np.zeros(values.shape, dtype=bool),
                np.zeros(values.shape, dtype=np.int64),
            )
        pos = np.searchsorted(haystack, values, side="left")
        idx = np.minimum(pos, haystack.size - 1).astype(np.int64)
        mask = haystack[idx] == values
        return mask, idx

    def merge_unique(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sorted-unique union of two sorted unique arrays."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.size == 0:
            return b.copy()
        if b.size == 0:
            return a.copy()
        merged = np.concatenate([a, b])
        merged.sort(kind="stable")
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.not_equal(merged[1:], merged[:-1], out=keep[1:])
        return merged[keep]

    def setdiff_sorted(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elements of sorted unique ``a`` absent from sorted unique ``b``."""
        mask, _ = self.sorted_lookup(b, a)
        return np.asarray(a)[~mask]

    # -- categorical lookup --------------------------------------------

    def categorical_lookup(
        self,
        u: np.ndarray,
        n_buckets: int,
        low: np.ndarray,
        high: np.ndarray,
        cut: np.ndarray,
    ) -> np.ndarray:
        """O(1) bucketed inverse-CDF lookup (see :class:`.sampling.CategoricalTable`)."""
        b = (u * n_buckets).astype(np.intp)
        return np.where(u <= cut[b], low[b], high[b])

    def categorical_lookup_rows(
        self,
        rows: np.ndarray,
        u: np.ndarray,
        n_buckets: int,
        low: np.ndarray,
        high: np.ndarray,
        cut: np.ndarray,
    ) -> np.ndarray:
        """Row-indexed variant over stacked per-row tables (shape (R, M))."""
        b = (u * n_buckets).astype(np.intp)
        return np.where(u <= cut[rows, b], low[rows, b], high[rows, b])


@register_backend
class NumpyBackend(ArrayBackend):
    """The pure-NumPy reference backend (the default)."""

    name = "numpy"


@register_backend
class StubBackend(NumpyBackend):
    """Alternate backend inheriting every reference kernel unchanged.

    Exists to exercise the dispatch machinery: CI runs the equivalence
    battery against it to prove that switching backends cannot change
    engine output.  It is also the template for a real accelerated
    backend -- subclass, rename, override hot kernels.
    """

    name = "stub"


_active: ArrayBackend = get_backend(os.environ.get("REPRO_KERNELS_BACKEND", "numpy"))


def active_backend() -> ArrayBackend:
    """The process-wide backend every kernel call dispatches through."""
    return _active


class use_backend:
    """Select the active backend, usable as a call or a context manager::

        use_backend("stub")            # switch for the rest of the process
        with use_backend("stub"):      # switch for a scope
            ...
    """

    def __init__(self, name: str):
        global _active
        self._previous = _active
        _active = get_backend(name)

    def __enter__(self) -> ArrayBackend:
        return _active

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._previous
