"""Experiments F6-F9: active session characteristics."""

from __future__ import annotations

from repro.core.regions import KeyPeriod, Region

from .base import ExperimentContext, ExperimentResult

__all__ = ["run_fig6", "run_fig7", "run_fig8", "run_fig9"]

_MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)


def run_fig6(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 6: number of queries per active session.

    Section 4.5 anchors: P[#queries < 5] is 92% Asia / 80% NA / 70% EU.
    """
    result = ExperimentResult("F6", "Queries per active session")
    paper_lt5 = {Region.ASIA: 0.92, Region.NORTH_AMERICA: 0.80, Region.EUROPE: 0.70}
    stats = ctx.streaming.active
    by_region = stats.queries_per_session_ccdf()
    unfiltered = stats.queries_per_session_ccdf_unfiltered()
    for region in _MAJOR:
        if region not in by_region:
            continue
        result.add(
            region=region.short,
            paper_lt5=paper_lt5[region],
            ours_lt5=1.0 - by_region[region].at(4.5),
            ours_lt5_no_rules45=1.0 - unfiltered[region].at(4.5),
        )
    eu = by_region.get(Region.EUROPE)
    na = by_region.get(Region.NORTH_AMERICA)
    asia = by_region.get(Region.ASIA)
    if eu and na and asia:
        ok = eu.at(4.5) > na.at(4.5) > asia.at(4.5)
        result.note(f"ordering EU > NA > AS on P[#queries >= 5]: {'OK' if ok else 'VIOLATED'}")
    # Panel (b): query counts are roughly insensitive to the start period
    # ("the number of queries per session is roughly insensitive to
    # session start time for 99% of the sessions").
    by_period = stats.queries_per_session_ccdf(region=Region.EUROPE)
    values = [ccdf.at(4.5) for ccdf in by_period.values() if len(ccdf) > 5]
    if len(values) >= 2:
        spread = max(values) - min(values)
        result.note(
            f"EU P[#queries >= 5] spread across key periods: {spread:.3f} "
            f"(paper: roughly insensitive to start time)"
        )
    result.note("rules 4&5 not applied (Fig 6c) shifts counts up, most visibly for Asia")
    return result


def run_fig7(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 7: time until first query.

    Anchors: ~20% of NA/EU sessions (10% Asia) issue the first query
    within 10 s; ~40% within 30 s everywhere; Asia reaches ~90% by 90 s
    while Europe takes until ~1000 s.
    """
    result = ExperimentResult("F7", "Time until first query")
    paper_lt10 = {Region.NORTH_AMERICA: 0.20, Region.EUROPE: 0.20, Region.ASIA: 0.10}
    stats = ctx.streaming.active
    by_region = stats.first_query_ccdf()
    for region in _MAJOR:
        if region not in by_region:
            continue
        ccdf = by_region[region]
        result.add(
            region=region.short,
            paper_lt10=paper_lt10[region],
            ours_lt10=1.0 - ccdf.at(10),
            paper_lt30=0.40,
            ours_lt30=1.0 - ccdf.at(30),
            ours_lt90=1.0 - ccdf.at(90),
        )
    # Panel (c): time of day.  "in sessions started in the non-peak hours
    # ... the first query is sent 10,000 seconds and more after session
    # start" for ~10% of European sessions.
    by_period = stats.first_query_ccdf(region=Region.EUROPE)
    for period in KeyPeriod:
        if period in by_period and len(by_period[period]) > 5:
            result.add(
                region="EU",
                paper_lt10="",
                ours_lt10=f"period {period.label}",
                paper_lt30="",
                ours_lt30=1.0 - by_period[period].at(30),
                ours_lt90=1.0 - by_period[period].at(90),
            )
    by_class = stats.first_query_ccdf(region=Region.NORTH_AMERICA, by_query_class=True)
    if "<3" in by_class and ">3" in by_class:
        lo = by_class["<3"].quantile_exceeded(0.10)
        hi = by_class[">3"].quantile_exceeded(0.10)
        result.note(
            f"NA 90th percentile of first-query time: <3 queries {lo:.0f}s vs >3 queries "
            f"{hi:.0f}s (paper: 200s vs 2000s -- more queries means later first query)"
        )
    return result


def run_fig8(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 8: query interarrival time.

    Anchor: P[interarrival < 100 s] is 90% EU / 80% Asia / 70% NA.
    """
    result = ExperimentResult("F8", "Query interarrival time")
    paper_lt100 = {Region.EUROPE: 0.90, Region.ASIA: 0.80, Region.NORTH_AMERICA: 0.70}
    stats = ctx.streaming.active
    by_region = stats.interarrival_ccdf()
    for region in _MAJOR:
        if region not in by_region:
            continue
        result.add(
            region=region.short,
            paper_lt100=paper_lt100[region],
            ours_lt100=1.0 - by_region[region].at(100),
        )
    # Panel (c): "queries issued in peak hours have longer interarrival
    # times than queries issued in non-peak hours" -- 94% < 100 s at
    # 03:00-04:00 vs 85% at 11:00-12:00 for Europe.
    eu_by_period = stats.interarrival_ccdf(region=Region.EUROPE)
    for period in KeyPeriod:
        if period in eu_by_period and len(eu_by_period[period]) > 5:
            result.add(
                region=f"EU {period.label}",
                paper_lt100=0.94 if period is KeyPeriod.H03 else "",
                ours_lt100=1.0 - eu_by_period[period].at(100),
            )
    eu_by_class = stats.interarrival_ccdf(region=Region.EUROPE, by_query_class=True)
    na_by_class = stats.interarrival_ccdf(region=Region.NORTH_AMERICA, by_query_class=True)
    if "=2" in eu_by_class and ">7" in eu_by_class:
        few = 1.0 - eu_by_class["=2"].at(100)
        many = 1.0 - eu_by_class[">7"].at(100)
        result.note(
            f"EU P[gap < 100 s]: 2-query sessions {few:.3f} vs >7-query sessions {many:.3f} "
            f"(paper: many-query EU sessions have *smaller* interarrivals)"
        )
    if "=2" in na_by_class and ">7" in na_by_class:
        few = 1.0 - na_by_class["=2"].at(100)
        many = 1.0 - na_by_class[">7"].at(100)
        result.note(
            f"NA P[gap < 100 s]: 2-query {few:.3f} vs >7-query {many:.3f} "
            f"(paper: no significant correlation for NA)"
        )
    return result


def run_fig9(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 9: time after last query.

    Anchor: P[time after last > 1000 s] ~20% NA/EU, ~10% Asia; positive
    correlation with the number of queries; tail heavier than the
    interarrival tail (paper conclusion 5).
    """
    result = ExperimentResult("F9", "Time after last query")
    paper_gt1000 = {Region.NORTH_AMERICA: 0.20, Region.EUROPE: 0.20, Region.ASIA: 0.10}
    stats = ctx.streaming.active
    by_region = stats.time_after_last_ccdf()
    for region in _MAJOR:
        if region not in by_region:
            continue
        result.add(
            region=region.short,
            paper_gt1000=paper_gt1000[region],
            ours_gt1000=by_region[region].at(1000),
        )
    # Panel (c): sessions whose *last query* falls in non-peak hours have
    # shorter time-after-last ("below 10,000 seconds for more than 99% of
    # the sessions [ending] between 03:00 and 04:00").
    eu_by_period = stats.time_after_last_ccdf(region=Region.EUROPE)
    for period in KeyPeriod:
        if period in eu_by_period and len(eu_by_period[period]) > 5:
            result.add(
                region=f"EU last query {period.label}",
                paper_gt1000="",
                ours_gt1000=eu_by_period[period].at(1000),
            )
    by_class = stats.time_after_last_ccdf(region=Region.NORTH_AMERICA, by_query_class=True)
    if "1" in by_class and ">7" in by_class:
        single = by_class["1"].at(1000)
        many = by_class[">7"].at(1000)
        result.note(
            f"NA P[after-last > 1000 s]: 1-query {single:.3f} vs >7-query {many:.3f} "
            f"(paper: positive correlation with #queries)"
        )
    inter = stats.interarrival_ccdf().get(Region.NORTH_AMERICA)
    last = by_region.get(Region.NORTH_AMERICA)
    if inter and last:
        result.note(
            f"NA tail heaviness at 1000 s: after-last {last.at(1000):.3f} vs interarrival "
            f"{inter.at(1000):.3f} (paper conclusion 5: after-last tail much heavier)"
        )
    return result
