"""Fitting the paper's model families to empirical data.

The Appendix reports fitted parameters for five workload measures; this
module provides the fitters that regenerate Tables A.1-A.5 and the Zipf
parameters of Figure 11 from a (synthesized) trace:

* :func:`fit_lognormal` -- closed-form MLE on log-transformed data.
* :func:`fit_weibull` -- MLE via profile likelihood (Newton on the shape).
* :func:`fit_pareto` -- Hill estimator for a fixed lower cutoff ``beta``.
* :func:`fit_zipf` -- least squares on the log-log rank/frequency line,
  the standard procedure for "Zipf-like" fits in the measurement
  literature.
* :func:`fit_spliced` -- splits data at a boundary and fits body and tail
  families separately, reproducing the bimodal models of Tables A.1/A.3/A.4.

Goodness of fit is reported via the Kolmogorov-Smirnov distance
(:func:`ks_distance`) and, for Zipf fits, RMSE on the log-log line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .distributions import (
    Distribution,
    Lognormal,
    Pareto,
    Spliced,
    Weibull,
    Zipf,
)

__all__ = [
    "fit_lognormal",
    "fit_lognormal_truncated",
    "fit_lognormal_discrete",
    "fit_weibull",
    "fit_weibull_truncated",
    "fit_pareto",
    "fit_zipf",
    "ZipfFit",
    "fit_spliced",
    "SplicedFit",
    "fit_zipf_body_tail",
    "ks_distance",
]


def _clean(data: Sequence[float], minimum: float = 0.0) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    arr = arr[np.isfinite(arr) & (arr > minimum)]
    if arr.size < 2:
        raise ValueError(f"need at least 2 positive samples, got {arr.size}")
    return arr


def fit_lognormal(data: Sequence[float]) -> Lognormal:
    """Maximum-likelihood lognormal fit (mean/std of the log data)."""
    logs = np.log(_clean(data))
    sigma = float(logs.std(ddof=0))
    if sigma <= 0:
        sigma = 1e-6
    return Lognormal(mu=float(logs.mean()), sigma=sigma)


def fit_lognormal_truncated(
    data: Sequence[float], low: float = 0.0, high: float = math.inf
) -> Lognormal:
    """MLE of a lognormal observed only on the window ``(low, high]``.

    The Appendix's body/tail components are *truncated* views of full
    lognormals (e.g. Table A.1's body describes durations in (64 s,
    120 s]).  Plain MLE on such a window recovers the window, not the
    underlying distribution; this fitter maximizes the truncated
    likelihood so the recovered (mu, sigma) are directly comparable to
    the published untruncated parameters.
    """
    from scipy.optimize import minimize
    from scipy.special import ndtr  # the standard normal CDF (what norm.cdf evaluates)

    x = _clean(data)
    if low > 0:
        x = x[x > low]
    if math.isfinite(high):
        x = x[x <= high]
    if x.size < 2:
        raise ValueError("fewer than 2 samples inside the truncation window")
    logs = np.log(x)
    log_low = np.log(low) if low > 0 else -np.inf
    log_high = np.log(high) if math.isfinite(high) else np.inf

    def nll(params):
        mu, log_sigma = params
        sigma = math.exp(log_sigma)
        z = (logs - mu) / sigma
        mass = ndtr((log_high - mu) / sigma) - ndtr((log_low - mu) / sigma)
        if mass <= 1e-12:
            return 1e12
        # Lognormal density in log space: drop the constant log(x) term.
        return float(0.5 * np.sum(z**2) + logs.size * (math.log(sigma) + math.log(mass)))

    start = np.array([float(logs.mean()), math.log(max(logs.std(), 0.1))])
    best = minimize(nll, start, method="Nelder-Mead",
                    options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 2000})
    mu, log_sigma = best.x
    return Lognormal(mu=float(mu), sigma=float(math.exp(log_sigma)))


def fit_lognormal_discrete(counts: Sequence[int]) -> Lognormal:
    """Fit a lognormal to ceil-discretized counts via probit regression.

    The paper models the number of queries per session as a lognormal
    whose median lies *below one* (Table A.2: mu = -0.0673 for NA), which
    is only meaningful for the underlying continuous variable: observed
    counts are ``ceil(X)``.  Plain MLE on the integers cannot recover a
    sub-1 median.  Instead, note that ``P[count > k] = P[X > k] =
    1 - Phi((ln k - mu) / sigma)``, so regressing the probit of the
    empirical CCDF at integer anchors on ``ln k`` recovers mu and sigma
    -- which is how one fits a line through a CCDF plot, the procedure
    the Appendix figures depict.
    """
    from scipy.special import ndtri

    arr = np.asarray(counts, dtype=float)
    arr = arr[np.isfinite(arr) & (arr >= 1)]
    if arr.size < 10:
        raise ValueError(f"need at least 10 counts, got {arr.size}")
    n = arr.size
    anchors = []
    for k in range(1, int(arr.max())):
        exceed = int((arr > k).sum())
        # Keep anchors with enough mass on both sides for a stable probit.
        if 10 <= exceed <= n - 10:
            anchors.append((math.log(k), ndtri(1.0 - exceed / n)))
    if len(anchors) < 2:
        # Degenerate data (nearly all counts equal); fall back to MLE.
        return fit_lognormal(arr)
    lx = np.array([a[0] for a in anchors])
    z = np.array([a[1] for a in anchors])
    slope, intercept = np.polyfit(lx, z, 1)
    if slope <= 0:
        return fit_lognormal(arr)
    sigma = 1.0 / slope
    mu = -intercept * sigma
    return Lognormal(mu=float(mu), sigma=float(sigma))


def fit_weibull(data: Sequence[float], tol: float = 1e-9, max_iter: int = 200) -> Weibull:
    """Maximum-likelihood Weibull fit in the paper's rate parameterization.

    Solves the standard profile-likelihood equation for the shape
    ``alpha`` by Newton iteration, then sets the rate
    ``lam = n / sum(x**alpha)``.
    """
    x = _clean(data)
    logx = np.log(x)
    # Method-of-moments style starting point for the shape.
    alpha = 1.0 if logx.std() == 0 else min(50.0, 1.2 / max(logx.std(), 1e-3))
    for _ in range(max_iter):
        xa = x**alpha
        s0 = xa.sum()
        s1 = (xa * logx).sum()
        s2 = (xa * logx**2).sum()
        mean_log = logx.mean()
        f = s1 / s0 - 1.0 / alpha - mean_log
        fprime = (s2 * s0 - s1**2) / s0**2 + 1.0 / alpha**2
        step = f / fprime
        new_alpha = alpha - step
        if new_alpha <= 0:
            new_alpha = alpha / 2.0
        if abs(new_alpha - alpha) < tol:
            alpha = new_alpha
            break
        alpha = new_alpha
    lam = x.size / float((x**alpha).sum())
    return Weibull(alpha=float(alpha), lam=float(lam))


def fit_weibull_truncated(
    data: Sequence[float], low: float = 0.0, high: float = math.inf
) -> Weibull:
    """MLE of a Weibull observed only on ``(low, high]`` (cf. Table A.3 bodies)."""
    from scipy.optimize import minimize

    x = _clean(data)
    if low > 0:
        x = x[x > low]
    if math.isfinite(high):
        x = x[x <= high]
    if x.size < 2:
        raise ValueError("fewer than 2 samples inside the truncation window")
    logx = np.log(x)

    def nll(params):
        log_alpha, log_lam = params
        alpha, lam = math.exp(log_alpha), math.exp(log_lam)
        if alpha > 60 or lam > 1e6:
            return 1e12
        xa = x**alpha
        mass_high = 1.0 - math.exp(-lam * high**alpha) if math.isfinite(high) else 1.0
        mass_low = 1.0 - math.exp(-lam * low**alpha) if low > 0 else 0.0
        mass = mass_high - mass_low
        if mass <= 1e-12:
            return 1e12
        loglik = (
            x.size * (math.log(lam) + math.log(alpha))
            + (alpha - 1.0) * float(logx.sum())
            - lam * float(xa.sum())
            - x.size * math.log(mass)
        )
        return -loglik

    free = fit_weibull(x)
    start = np.array([math.log(free.alpha), math.log(free.lam)])
    best = minimize(nll, start, method="Nelder-Mead",
                    options={"xatol": 1e-7, "fatol": 1e-9, "maxiter": 2000})
    log_alpha, log_lam = best.x
    return Weibull(alpha=float(math.exp(log_alpha)), lam=float(math.exp(log_lam)))


def fit_pareto(data: Sequence[float], beta: Optional[float] = None) -> Pareto:
    """Hill-estimator Pareto fit for the tail above ``beta``.

    If ``beta`` is omitted, the sample minimum is used as the cutoff,
    matching the convention of Table A.4 where ``beta`` equals the
    body/tail boundary (103 seconds).
    """
    x = _clean(data)
    if beta is None:
        beta = float(x.min())
    tail = x[x >= beta]
    if tail.size < 2:
        raise ValueError(f"need at least 2 samples >= beta={beta}")
    alpha = tail.size / float(np.log(tail / beta).sum())
    return Pareto(alpha=float(alpha), beta=float(beta))


@dataclass(frozen=True)
class ZipfFit:
    """Result of a Zipf-like log-log regression."""

    alpha: float
    intercept: float
    rmse: float
    n_ranks: int

    def distribution(self) -> Zipf:
        return Zipf(alpha=self.alpha, n=self.n_ranks)


def fit_zipf(frequencies: Sequence[float], max_rank: int = 0) -> ZipfFit:
    """Fit ``log f(r) = intercept - alpha * log r`` by least squares.

    ``frequencies`` must be in descending rank order (rank 1 first).
    ``max_rank`` (if positive) restricts the fit to the top ranks, as the
    paper does when fitting the top-100 popularity line.
    """
    freq = np.asarray(frequencies, dtype=float)
    if max_rank > 0:
        freq = freq[:max_rank]
    freq = freq[freq > 0]
    if freq.size < 2:
        raise ValueError("need at least 2 positive frequencies")
    ranks = np.arange(1, freq.size + 1, dtype=float)
    lx, ly = np.log(ranks), np.log(freq)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    rmse = float(np.sqrt(np.mean(resid**2)))
    return ZipfFit(alpha=float(-slope), intercept=float(intercept), rmse=rmse, n_ranks=freq.size)


def fit_zipf_body_tail(
    frequencies: Sequence[float], split_rank: int
) -> Tuple[ZipfFit, ZipfFit]:
    """Fit separate Zipf lines to ranks ``1..split`` and ``split+1..n``.

    Figure 11(c) fits the intersection-class popularity with a body
    (ranks 1-45) and a much steeper tail (ranks 46-100).
    """
    freq = np.asarray(frequencies, dtype=float)
    if not 1 < split_rank < freq.size:
        raise ValueError(f"split_rank must be inside (1, {freq.size}), got {split_rank}")
    body = fit_zipf(freq[:split_rank])
    tail_freq = freq[split_rank:]
    tail_freq = tail_freq[tail_freq > 0]
    ranks = np.arange(split_rank + 1, split_rank + 1 + tail_freq.size, dtype=float)
    lx, ly = np.log(ranks), np.log(tail_freq)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    tail = ZipfFit(
        alpha=float(-slope),
        intercept=float(intercept),
        rmse=float(np.sqrt(np.mean(resid**2))),
        n_ranks=tail_freq.size,
    )
    return body, tail


@dataclass(frozen=True)
class SplicedFit:
    """Result of a body/tail spliced fit."""

    distribution: Spliced
    body_weight: float
    boundary: float
    ks: float


def fit_spliced(
    data: Sequence[float],
    boundary: float,
    body_family: str = "lognormal",
    tail_family: str = "lognormal",
    truncation_aware: bool = False,
    body_low: float = 0.0,
) -> SplicedFit:
    """Fit a body/tail spliced model with a fixed boundary.

    The body family is fit to samples in ``(body_low, boundary]`` and the
    tail family to samples ``> boundary``; the body weight is the
    empirical fraction at or below the boundary.  This mirrors how the
    Appendix reports, e.g., "Body: 1-2 minutes (75%) Lognormal / Tail:
    > 2 minutes Lognormal".

    With ``truncation_aware=True`` the lognormal/Weibull components use
    truncated-likelihood fitters, making the recovered parameters
    directly comparable to the paper's untruncated parameterization
    (Tables A.1 and A.3).  Pareto tails are inherently anchored at the
    boundary and need no correction.
    """
    x = _clean(data)
    body_data = x[(x > body_low) & (x <= boundary)]
    tail_data = x[x > boundary]
    if body_data.size < 2 or tail_data.size < 2:
        raise ValueError(
            f"boundary {boundary} leaves too few samples on one side "
            f"(body={body_data.size}, tail={tail_data.size})"
        )
    body = _fit_component(body_family, body_data, body_low, boundary, truncation_aware)
    if tail_family == "pareto":
        tail: Distribution = fit_pareto(tail_data, beta=boundary)
    else:
        tail = _fit_component(tail_family, tail_data, boundary, math.inf, truncation_aware)
    weight = float((x <= boundary).mean())
    dist = Spliced(body=body, tail=tail, boundary=boundary, body_weight=weight, body_low=body_low)
    return SplicedFit(
        distribution=dist,
        body_weight=weight,
        boundary=boundary,
        ks=ks_distance(dist, x[x > body_low]),
    )


def _fit_component(
    family: str, data: np.ndarray, low: float, high: float, truncation_aware: bool
) -> Distribution:
    if family == "lognormal":
        if truncation_aware:
            return fit_lognormal_truncated(data, low=low, high=high)
        return fit_lognormal(data)
    if family == "weibull":
        if truncation_aware:
            return fit_weibull_truncated(data, low=low, high=high)
        return fit_weibull(data)
    if family == "pareto":
        return fit_pareto(data)
    raise ValueError(f"unknown distribution family {family!r}")


def ks_distance(dist: Distribution, data: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance between ``dist`` and the empirical CDF."""
    x = np.sort(np.asarray(data, dtype=float))
    if x.size == 0:
        raise ValueError("need at least one sample")
    n = x.size
    model = np.asarray(dist.cdf(x), dtype=float)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(max(np.max(np.abs(model - upper)), np.max(np.abs(model - lower))))
