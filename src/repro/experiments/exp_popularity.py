"""Experiments F10-F11: query popularity drift and per-day Zipf fits."""

from __future__ import annotations

from repro.analysis import drift_counts, drift_distribution, fit_class_popularity
from repro.core.parameters import ZIPF_ALPHA
from repro.core.popularity import QueryClassId
from repro.core.regions import Region

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_fig10", "run_fig11"]


def run_fig10(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 10: drift in query popularity (North American peers).

    For each consecutive day pair, how many of day n's top 10 / 11-20 /
    21-100 queries appear in day n+1's top N?  Paper: for ~80% of days at
    most 4 of the top 10 are in the next day's top 100.
    """
    result = ExperimentResult("F10", "Hot-set drift")
    daily = ctx.streaming.daily
    ranges = (("top10", (1, 10)), ("rank11-20", (11, 20)), ("rank21-100", (21, 100)))
    any_pairs = False
    for label, rank_range in ranges:
        for top_n in (10, 20, 100):
            counts = drift_counts(
                daily, Region.NORTH_AMERICA, rank_range=rank_range, top_n=top_n
            )
            if not counts:
                continue
            any_pairs = True
            dist = drift_distribution(counts)
            result.add(
                source="trace",
                day_n_ranks=label,
                next_day_top=top_n,
                mean_retained=sum(counts) / len(counts),
                frac_days_gt4=float(dist[4]),
            )
    if not any_pairs:
        result.note(
            "trace shorter than 2 days: no consecutive day pairs; reporting the "
            "ground-truth universe drift instead"
        )
    # Ground-truth drift from the content model, always available and
    # exactly what the trace drift converges to with more days.
    from repro.core.popularity import QueryClassId, QueryUniverse, top_n_overlap

    universe = QueryUniverse(seed=ctx.config.seed + 1)
    for label, rank_range in ranges:
        overlaps = [
            top_n_overlap(
                universe.daily_ranking(d, QueryClassId.NA_ONLY),
                universe.daily_ranking(d + 1, QueryClassId.NA_ONLY),
                rank_range, 100,
            )
            for d in range(20)
        ]
        dist = drift_distribution(overlaps)
        result.add(
            source="ground truth",
            day_n_ranks=label,
            next_day_top=100,
            mean_retained=sum(overlaps) / len(overlaps),
            frac_days_gt4=float(dist[4]),
        )
    result.note("paper anchor: P[>4 of top10 in next-day top100] ~ 0.2")
    return result


def run_fig11(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 11: per-day query popularity Zipf fits.

    Paper fits: alpha = 0.386 for NA-only queries, 0.223 for EU-only;
    the NA/EU intersection has a flattened-head body (0.453, ranks 1-45)
    and a steep tail (4.67, ranks 46-100).
    """
    result = ExperimentResult("F11", "Per-day query popularity")
    daily = ctx.streaming.daily
    for cls, paper_alpha in (
        (QueryClassId.NA_ONLY, ZIPF_ALPHA["na_only"]),
        (QueryClassId.EU_ONLY, ZIPF_ALPHA["eu_only"]),
    ):
        fit = fit_class_popularity(daily, cls)
        result.add(
            query_class=cls.value,
            paper_alpha=paper_alpha,
            ours_alpha=fit.fit.alpha,
            loglog_rmse=fit.fit.rmse,
            ranks_fit=fit.fit.n_ranks,
        )
    try:
        inter = fit_class_popularity(
            daily, QueryClassId.NA_EU, split_rank=20, min_day_queries=10
        )
        result.add(
            query_class="na_eu (body)",
            paper_alpha=ZIPF_ALPHA["na_eu_body"],
            ours_alpha=inter.fit.alpha,
            loglog_rmse=inter.fit.rmse,
            ranks_fit=inter.fit.n_ranks,
        )
        if inter.tail_fit is not None:
            result.add(
                query_class="na_eu (tail)",
                paper_alpha=ZIPF_ALPHA["na_eu_tail"],
                ours_alpha=inter.tail_fit.alpha,
                loglog_rmse=inter.tail_fit.rmse,
                ranks_fit=inter.tail_fit.n_ranks,
            )
    except ValueError as exc:
        result.note(f"intersection class too small at this scale: {exc}")
    na = fit_class_popularity(daily, QueryClassId.NA_ONLY)
    eu = fit_class_popularity(daily, QueryClassId.EU_ONLY)
    result.note(
        f"ordering alpha(NA) > alpha(EU): "
        f"{'OK' if na.fit.alpha > eu.fit.alpha else 'VIOLATED'}"
    )
    result.note(
        "paper: both alphas are much smaller than pre-filtering studies' "
        "(~1.0) because automated re-queries were removed"
    )
    return result
