"""Experiments TA1-TA5 and FA1: refitting the Appendix model tables.

Each experiment extracts the conditional sample the paper fit (North
American peers, split by peak/non-peak and query-count class), fits the
same model family with :mod:`repro.core.fitting`, and reports fitted
parameters next to the published ones, plus the KS distance as the
goodness-of-fit the paper shows graphically in Figure A.1.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.active import ActiveSession
from repro.core.fitting import (
    fit_lognormal,
    fit_lognormal_discrete,
    fit_spliced,
    ks_distance,
)
from repro.core.parameters import (
    INTERARRIVAL_BOUNDARY,
    PASSIVE_BODY_BOUNDARY,
    first_query_class,
    last_query_class,
)
from repro.core.regions import Region, is_peak_hour

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_tableA1", "run_tableA2", "run_tableA3", "run_tableA4", "run_tableA5", "run_figA1"]

_NA = Region.NORTH_AMERICA

#: Published Table A.1 parameters (sigma, mu) for (peak, part).
_PAPER_A1 = {
    (True, "body"): (2.502, 2.108),
    (True, "tail"): (2.749, 6.397),
    (False, "body"): (2.383, 2.201),
    (False, "tail"): (2.848, 6.817),
}

_PAPER_A2 = {
    Region.NORTH_AMERICA: (1.360, -0.0673),
    Region.EUROPE: (1.306, 0.520),
    Region.ASIA: (1.618, -1.029),
}

#: Table A.4 (sigma, mu) lognormal body and Pareto alpha per peak flag.
_PAPER_A4 = {
    True: {"body": (1.625, 3.353), "pareto_alpha": 0.9041},
    False: {"body": (1.410, 2.933), "pareto_alpha": 1.143},
}

#: Table A.5 lognormal (sigma, mu) for (peak, class).
_PAPER_A5 = {
    (True, "1"): (2.361, 4.879),
    (True, "2-7"): (2.259, 5.686),
    (True, ">7"): (2.145, 6.107),
    (False, "1"): (2.162, 4.760),
    (False, "2-7"): (2.156, 5.672),
    (False, ">7"): (2.286, 6.036),
}


def _discrete_ccdf_error(fit, counts) -> float:
    """Max |model CCDF - empirical CCDF| over integer anchors 1..max."""
    import numpy as np

    arr = np.asarray(counts, dtype=float)
    errs = []
    for k in range(1, int(arr.max()) + 1):
        emp = float((arr > k).mean())
        errs.append(abs(float(fit.ccdf(float(k))) - emp))
    return max(errs) if errs else 0.0


def _na_views(views: Sequence[ActiveSession], peak: bool) -> List[ActiveSession]:
    return [v for v in views if v.region is _NA and is_peak_hour(_NA, v.start) == peak]


def run_tableA1(ctx: ExperimentContext) -> ExperimentResult:
    """Table A.1: bimodal lognormal fit of passive session duration (NA)."""
    result = ExperimentResult("TA1", "Passive session duration model (NA)")
    for peak in (True, False):
        durations = ctx.streaming.passive.by_peak(_NA, peak).tolist()
        if len(durations) < 20:
            result.note(f"peak={peak}: only {len(durations)} sessions; skipped")
            continue
        fit = fit_spliced(durations, boundary=PASSIVE_BODY_BOUNDARY,
                          body_family="lognormal", tail_family="lognormal",
                          truncation_aware=True, body_low=64.0)
        body = fit.distribution.body.base
        tail = fit.distribution.tail.base
        for part, dist in (("body", body), ("tail", tail)):
            sigma, mu = _PAPER_A1[peak, part]
            result.add(
                period="peak" if peak else "non-peak",
                part=part,
                paper_sigma=sigma, ours_sigma=dist.sigma,
                paper_mu=mu, ours_mu=dist.mu,
            )
        result.add(
            period="peak" if peak else "non-peak", part="body weight",
            paper_sigma=0.75 if peak else 0.55, ours_sigma=fit.body_weight,
            paper_mu="", ours_mu="",
        )
        result.note(f"peak={peak}: KS distance of spliced fit {fit.ks:.3f} on n={len(durations)}")
    result.note(
        "body (mu, sigma) are weakly identifiable from the narrow 64-120s window "
        "(a likelihood ridge); the tail parameters and body weight are the "
        "comparable quantities"
    )
    return result


def run_tableA2(ctx: ExperimentContext) -> ExperimentResult:
    """Table A.2: lognormal fit of queries per active session, per region."""
    result = ExperimentResult("TA2", "Active session length model")
    for region in (_NA, Region.EUROPE, Region.ASIA):
        counts = [float(v.n_queries) for v in ctx.views if v.region is region]
        if len(counts) < 20:
            result.note(f"{region.short}: only {len(counts)} sessions; skipped")
            continue
        fit = fit_lognormal_discrete(counts)
        sigma, mu = _PAPER_A2[region]
        result.add(
            region=region.short,
            paper_sigma=sigma, ours_sigma=fit.sigma,
            paper_mu=mu, ours_mu=fit.mu,
            ccdf_err=_discrete_ccdf_error(fit, counts),
        )
    result.note(
        "observed counts are ceil(X); fits use probit regression on the integer "
        "CCDF anchors, and ccdf_err is the max |model - empirical| over those anchors"
    )
    return result


def run_tableA3(ctx: ExperimentContext) -> ExperimentResult:
    """Table A.3: Weibull-body/lognormal-tail fit of time until first query."""
    result = ExperimentResult("TA3", "Time until first query model (NA)")
    for peak in (True, False):
        boundary = 45.0 if peak else 120.0
        views = _na_views(ctx.views, peak)
        for label in ("<3", "=3", ">3"):
            sample = [
                max(v.time_until_first, 1e-3)
                for v in views
                if first_query_class(v.n_queries) == label
            ]
            if len(sample) < 30:
                result.note(f"peak={peak} class={label}: n={len(sample)}; skipped")
                continue
            try:
                fit = fit_spliced(sample, boundary=boundary,
                                  body_family="weibull", tail_family="lognormal",
                                  truncation_aware=True)
            except ValueError as exc:
                result.note(f"peak={peak} class={label}: {exc}")
                continue
            body = fit.distribution.body.base
            tail = fit.distribution.tail.base
            result.add(
                period="peak" if peak else "non-peak",
                n_queries=label,
                ours_weibull_alpha=body.alpha,
                ours_weibull_lam=body.lam,
                ours_tail_sigma=tail.sigma,
                ours_tail_mu=tail.mu,
                ks=fit.ks,
            )
    result.note("paper peak body (<3 queries): Weibull alpha=1.477 lam=0.005252; tail LN sigma=2.905 mu=5.091")
    result.note("shape targets: body alpha near 1, tail mu 5-7.2, tail sigma 2-3.4")
    return result


def run_tableA4(ctx: ExperimentContext) -> ExperimentResult:
    """Table A.4: lognormal-body/Pareto-tail fit of interarrival time (NA)."""
    result = ExperimentResult("TA4", "Query interarrival model (NA)")
    for peak in (True, False):
        gaps = [g for v in _na_views(ctx.views, peak) for g in v.interarrivals]
        if len(gaps) < 30:
            result.note(f"peak={peak}: only {len(gaps)} gaps; skipped")
            continue
        fit = fit_spliced(gaps, boundary=INTERARRIVAL_BOUNDARY,
                          body_family="lognormal", tail_family="pareto",
                          truncation_aware=True)
        body = fit.distribution.body.base
        tail = fit.distribution.tail.base
        paper = _PAPER_A4[peak]
        result.add(
            period="peak" if peak else "non-peak",
            paper_body_sigma=paper["body"][0], ours_body_sigma=body.sigma,
            paper_body_mu=paper["body"][1], ours_body_mu=body.mu,
            paper_pareto_alpha=paper["pareto_alpha"], ours_pareto_alpha=tail.alpha,
            ks=fit.ks,
        )
    return result


def run_tableA5(ctx: ExperimentContext) -> ExperimentResult:
    """Table A.5: lognormal fit of time after last query (NA)."""
    result = ExperimentResult("TA5", "Time after last query model (NA)")
    for peak in (True, False):
        views = _na_views(ctx.views, peak)
        for label in ("1", "2-7", ">7"):
            sample = [
                max(v.time_after_last, 1e-3)
                for v in views
                if last_query_class(v.n_queries) == label
            ]
            if len(sample) < 30:
                result.note(f"peak={peak} class={label}: n={len(sample)}; skipped")
                continue
            fit = fit_lognormal(sample)
            sigma, mu = _PAPER_A5[peak, label]
            result.add(
                period="peak" if peak else "non-peak",
                n_queries=label,
                paper_sigma=sigma, ours_sigma=fit.sigma,
                paper_mu=mu, ours_mu=fit.mu,
                ks=ks_distance(fit, sample),
            )
    return result


def run_figA1(ctx: ExperimentContext) -> ExperimentResult:
    """Figure A.1: goodness of fit of the three example models.

    The paper shows measured-vs-model CCDF plots; here the KS distances
    quantify the same agreement for (a) queries per session, (b) time
    until first query (<3 queries, peak), and (c) interarrival (peak).
    """
    result = ExperimentResult("FA1", "Example fitted distributions (NA)")
    counts = [float(v.n_queries) for v in ctx.views if v.region is _NA]
    if len(counts) >= 30:
        fit = fit_lognormal_discrete(counts)
        result.add(panel="(a) queries/session", model="lognormal (discrete)",
                   ks=_discrete_ccdf_error(fit, counts), n=len(counts))
    peak_views = _na_views(ctx.views, True)
    first = [max(v.time_until_first, 1e-3) for v in peak_views if first_query_class(v.n_queries) == "<3"]
    if len(first) >= 30:
        fit = fit_spliced(first, boundary=45.0, body_family="weibull",
                          tail_family="lognormal", truncation_aware=True)
        result.add(panel="(b) first query", model="weibull+lognormal", ks=fit.ks, n=len(first))
    gaps = [g for v in peak_views for g in v.interarrivals]
    if len(gaps) >= 30:
        fit = fit_spliced(gaps, boundary=INTERARRIVAL_BOUNDARY,
                          body_family="lognormal", tail_family="pareto",
                          truncation_aware=True)
        result.add(panel="(c) interarrival", model="lognormal+pareto", ks=fit.ks, n=len(gaps))
    result.note("paper shows visually tight fits; KS < 0.1 is the equivalent quantitative bar")
    return result
