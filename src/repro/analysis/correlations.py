"""Correlation structure of the workload (paper introduction, claim 4).

"We also find a significant correlation between session duration and the
number of queries issued during the session, but not between query
interarrival time and number of queries issued."  (For Europe, Section
4.5 later qualifies the second half: many-query EU sessions *do* have
shorter gaps.)

This module measures those correlations directly with Spearman rank
correlation (robust to the heavy tails of every quantity involved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.regions import Region

from .active import ActiveSession

__all__ = ["CorrelationResult", "spearman", "session_correlations"]


@dataclass(frozen=True)
class CorrelationResult:
    """One correlation measurement."""

    name: str
    rho: float
    n: int

    @property
    def significant(self) -> bool:
        """Crude significance: |rho| beyond ~3 standard errors.

        The standard error of Spearman's rho under independence is
        approximately ``1 / sqrt(n - 1)``.
        """
        if self.n < 10:
            return False
        return abs(self.rho) > 3.0 / np.sqrt(self.n - 1)


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation coefficient (NaN if either input is constant)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 3:
        raise ValueError("need at least 3 observations")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return float("nan")
    from scipy.stats import spearmanr

    rho, _ = spearmanr(a, b)
    return float(rho)


def session_correlations(
    views: Sequence[ActiveSession], region: Optional[Region] = None
) -> List[CorrelationResult]:
    """The paper's three headline correlations for active sessions.

    * duration vs. number of queries (expected: strong positive),
    * median interarrival gap vs. number of queries (expected: none for
      North America; negative for Europe).  The *median* gap is used
      because the gap distribution's Pareto tail has alpha < 1: the
      sample mean of more gaps grows mechanically with the sample size,
      which would fabricate a positive correlation.
    * time after last query vs. number of queries (expected: positive,
      Fig. 9b).
    """
    selected = [v for v in views if region is None or v.region is region]
    with_gaps = [v for v in selected if v.interarrivals]
    results: List[CorrelationResult] = []
    if len(selected) >= 3:
        results.append(
            CorrelationResult(
                name="duration vs #queries",
                rho=spearman([v.duration for v in selected],
                             [v.n_queries for v in selected]),
                n=len(selected),
            )
        )
        results.append(
            CorrelationResult(
                name="time-after-last vs #queries",
                rho=spearman([v.time_after_last for v in selected],
                             [v.n_queries for v in selected]),
                n=len(selected),
            )
        )
    if len(with_gaps) >= 3:
        results.append(
            CorrelationResult(
                name="median interarrival vs #queries",
                rho=spearman([float(np.median(v.interarrivals)) for v in with_gaps],
                             [v.n_queries for v in with_gaps]),
                n=len(with_gaps),
            )
        )
    return results
