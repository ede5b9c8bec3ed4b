"""Empirical statistics helpers shared by analysis and fitting code.

These utilities produce the exact curve shapes the paper plots:
complementary CDFs on log axes (Figures 5-9), per-rank PMFs on log-log
axes (Figure 11), and time-of-day binned averages (Figures 1, 3, 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "Ccdf",
    "empirical_ccdf",
    "ccdf_at",
    "rank_pmf",
    "log_bins",
    "TimeOfDayBinner",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
]

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


@dataclass(frozen=True)
class Ccdf:
    """An empirical complementary CDF: ``fraction[i] = P[X > x[i]]``."""

    x: np.ndarray
    fraction: np.ndarray

    def at(self, value: float) -> float:
        """Interpolated ``P[X > value]`` (step interpolation, right-continuous)."""
        idx = np.searchsorted(self.x, value, side="right") - 1
        if idx < 0:
            return 1.0
        return float(self.fraction[idx])

    def quantile_exceeded(self, fraction: float) -> float:
        """Smallest x with ``P[X > x] <= fraction`` (a tail quantile)."""
        idx = np.searchsorted(-self.fraction, -fraction, side="left")
        idx = min(idx, self.x.size - 1)
        return float(self.x[idx])

    def __len__(self) -> int:
        return int(self.x.size)


def empirical_ccdf(samples: Sequence[float]) -> Ccdf:
    """Build the empirical CCDF of ``samples``.

    Returns unique sorted values ``x`` with ``fraction = P[X > x]``
    computed from sample counts, the form the paper plots on log axes.
    """
    data = np.sort(np.asarray(samples, dtype=float))
    if data.size == 0:
        raise ValueError("need at least one sample")
    values, counts = np.unique(data, return_counts=True)
    exceed = data.size - np.cumsum(counts)
    return Ccdf(x=values, fraction=exceed / data.size)


def ccdf_at(samples: Sequence[float], points: Sequence[float]) -> np.ndarray:
    """Evaluate the empirical CCDF of ``samples`` at the given ``points``."""
    data = np.sort(np.asarray(samples, dtype=float))
    points = np.asarray(points, dtype=float)
    if data.size == 0:
        raise ValueError("need at least one sample")
    return 1.0 - np.searchsorted(data, points, side="right") / data.size


def rank_pmf(counts: Mapping[str, int], top: int = 0) -> np.ndarray:
    """Return the rank-ordered normalized frequency vector of query counts.

    ``counts`` maps query string -> observation count.  The result is
    sorted descending and normalized; ``top`` (if positive) truncates to
    the most popular ranks, matching the paper's top-100 popularity plots.
    """
    if not counts:
        raise ValueError("need at least one query")
    freq = np.sort(np.asarray(list(counts.values()), dtype=float))[::-1]
    if top > 0:
        freq = freq[:top]
    return freq / freq.sum()


def log_bins(low: float, high: float, per_decade: int = 10) -> np.ndarray:
    """Logarithmically spaced evaluation points spanning ``[low, high]``."""
    if low <= 0 or high <= low:
        raise ValueError(f"need 0 < low < high, got [{low}, {high}]")
    n = max(2, int(np.ceil(np.log10(high / low) * per_decade)) + 1)
    return np.logspace(np.log10(low), np.log10(high), n)


class TimeOfDayBinner:
    """Accumulate per-day values into time-of-day bins.

    Each observation carries an absolute timestamp (seconds since the
    trace epoch, measurement-node local time).  Values land in bin
    ``(t % 86400) // bin_seconds`` of day ``t // 86400``.  The binner
    reports per-bin averages across days plus the min/max day curves
    drawn in Figures 3 and 4.
    """

    def __init__(self, bin_seconds: int = SECONDS_PER_HOUR):
        if SECONDS_PER_DAY % bin_seconds:
            raise ValueError(f"bin_seconds must divide a day, got {bin_seconds}")
        self.bin_seconds = bin_seconds
        self.n_bins = SECONDS_PER_DAY // bin_seconds
        self._per_day: Dict[int, np.ndarray] = {}

    def add(self, timestamp: float, value: float = 1.0) -> None:
        """Add ``value`` to the bin containing ``timestamp``."""
        day = int(timestamp // SECONDS_PER_DAY)
        slot = int((timestamp % SECONDS_PER_DAY) // self.bin_seconds)
        if day not in self._per_day:
            self._per_day[day] = np.zeros(self.n_bins)
        self._per_day[day][slot] += value

    def add_array(self, timestamps: np.ndarray, values: np.ndarray = None) -> None:
        """Vectorized :meth:`add` over timestamp (and optional value) arrays.

        Count-style accumulations (integer-valued ``values``) match the
        scalar loop bit-exactly: float64 integer sums are exact well past
        any trace size, so the accumulation order cannot matter.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.size == 0:
            return
        days = (ts // SECONDS_PER_DAY).astype(np.int64)
        slots = ((ts % SECONDS_PER_DAY) // self.bin_seconds).astype(np.int64)
        if values is None:
            vals = np.ones(ts.size)
        else:
            vals = np.asarray(values, dtype=np.float64)
        for day in np.unique(days):
            mask = days == day
            key = int(day)
            if key not in self._per_day:
                self._per_day[key] = np.zeros(self.n_bins)
            np.add.at(self._per_day[key], slots[mask], vals[mask])

    @property
    def days(self) -> List[int]:
        return sorted(self._per_day)

    def day_curve(self, day: int) -> np.ndarray:
        """The raw per-bin totals for one day."""
        return self._per_day[day].copy()

    def average(self) -> np.ndarray:
        """Per-bin average across all observed days (Figure 3 'Average')."""
        return self._matrix().mean(axis=0)

    def minimum(self) -> np.ndarray:
        """Per-bin minimum across days (Figure 3 'Min')."""
        return self._matrix().min(axis=0)

    def maximum(self) -> np.ndarray:
        """Per-bin maximum across days (Figure 3 'Max')."""
        return self._matrix().max(axis=0)

    def bin_starts_hours(self) -> np.ndarray:
        """Start of each bin in hours, for labeling the time axis."""
        return np.arange(self.n_bins) * (self.bin_seconds / SECONDS_PER_HOUR)

    def _matrix(self) -> np.ndarray:
        if not self._per_day:
            raise ValueError("no observations added")
        return np.stack([self._per_day[d] for d in self.days])


def ratio_binner_fraction(
    numerator: TimeOfDayBinner, denominator: TimeOfDayBinner
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-bin (avg, min, max across days) of numerator/denominator ratios.

    Used for Figure 4: fraction of sessions starting in each bin that are
    passive.  Bins with a zero denominator on a given day are excluded
    from that day's ratio.
    """
    days = sorted(set(numerator.days) & set(denominator.days))
    if not days:
        raise ValueError("no overlapping days between binners")
    ratios = []
    for day in days:
        num = numerator.day_curve(day)
        den = denominator.day_curve(day)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(den > 0, num / np.maximum(den, 1e-12), np.nan)
        ratios.append(r)
    mat = np.stack(ratios)
    # Bins with no ratio on any day stay NaN; reduce only the others.
    seen = ~np.isnan(mat).all(axis=0)
    avg, lo, hi = (np.full(mat.shape[1], np.nan) for _ in range(3))
    avg[seen] = np.nanmean(mat[:, seen], axis=0)
    lo[seen] = np.nanmin(mat[:, seen], axis=0)
    hi[seen] = np.nanmax(mat[:, seen], axis=0)
    return avg, lo, hi


__all__.append("ratio_binner_fraction")
