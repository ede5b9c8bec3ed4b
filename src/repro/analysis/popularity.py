"""Figures 10-11 and Table 3: query popularity, drift, and classes.

Methodology per Section 4.6:

* popularity must be ranked *per day* -- the hot set drifts (Fig. 10);
* queries split into seven disjoint geographic classes (Table 3);
* the per-day, per-class rank/frequency line is Zipf-like (Fig. 11),
  with the NA/EU intersection class showing a flattened head fit by a
  body and a steep tail.

All functions take rules-1-3 filtered sessions: the popularity measures
include the rule-4/5 queries ("we include these queries in the measures
of the query popularity distribution").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.events import SessionRecord
from repro.core.fitting import ZipfFit, fit_zipf, fit_zipf_body_tail
from repro.core.parameters import QueryClassSizes
from repro.core.popularity import QueryClassId
from repro.core.regions import Region
from repro.filtering.columnar import ColumnarFilterResult
from repro.measurement.columnar import REGION_CODE, REGION_ORDER

from .common import MAJOR

#: Every popularity measure accepts the rules-1-3 filtered session
#: records (the reference) or an already-reduced daily dictionary (the
#: streaming pass's :class:`~repro.analysis.streaming.StreamingPopularity`).
SessionsLike = Union[
    Sequence[SessionRecord],
    Dict[int, Dict[Region, Counter]],
]

__all__ = [
    "daily_region_counts",
    "query_class_sizes",
    "daily_class_ranking",
    "popularity_pmf",
    "PopularityFit",
    "fit_class_popularity",
    "drift_counts",
    "drift_distribution",
]

_SECONDS_PER_DAY = 86400.0


def daily_region_counts(
    sessions: SessionsLike,
) -> Dict[int, Dict[Region, Counter]]:
    """Per-day, per-region query string counts.

    A query is attributed to the day containing its timestamp and the
    region of the session that issued it.
    """
    if isinstance(sessions, dict):
        return sessions  # already reduced (streaming accumulator output)
    out: Dict[int, Dict[Region, Counter]] = {}
    for session in sessions:
        if session.region not in MAJOR:
            continue
        for query in session.queries:
            day = int(query.timestamp // _SECONDS_PER_DAY)
            out.setdefault(day, {r: Counter() for r in MAJOR})[session.region][
                query.keywords
            ] += 1
    return out


def _daily_region_counts_columnar(
    result: ColumnarFilterResult,
) -> Dict[int, Dict[Region, Counter]]:
    """One chunk's counts as one ``np.unique`` reduction over a combined
    (day, region, query) key of the rules-1-3 kept queries."""
    trace = result.trace
    rows = np.flatnonzero(result.query_mask)
    region_code = trace.session_region[result.session_index[rows]]
    major = np.isin(region_code, [REGION_CODE[r] for r in MAJOR])
    rows = rows[major]
    region_code = region_code[major].astype(np.int64)
    out: Dict[int, Dict[Region, Counter]] = {}
    if not rows.size:
        return out
    day = (trace.query_timestamp[rows] // _SECONDS_PER_DAY).astype(np.int64)
    keywords, kw_code = np.unique(trace.query_keywords[rows], return_inverse=True)
    n_regions = np.int64(len(REGION_ORDER))
    n_keywords = np.int64(keywords.size)
    combined = (day * n_regions + region_code) * n_keywords + kw_code
    unique, counts = np.unique(combined, return_counts=True)
    u_keyword = keywords[unique % n_keywords]
    u_region = (unique // n_keywords) % n_regions
    u_day = unique // (n_keywords * n_regions)
    for d, code, keyword, count in zip(
        u_day.tolist(), u_region.tolist(), u_keyword.tolist(), counts.tolist()
    ):
        out.setdefault(d, {r: Counter() for r in MAJOR})[REGION_ORDER[code]][
            keyword
        ] = count
    return out


def _window_sets(
    daily: Dict[int, Dict[Region, Counter]], days: Sequence[int]
) -> Dict[Region, Set[str]]:
    sets: Dict[Region, Set[str]] = {r: set() for r in MAJOR}
    for day in days:
        for region in MAJOR:
            sets[region].update(daily[day][region])
    return sets


def query_class_sizes(
    sessions: SessionsLike, period_days: int = 1
) -> QueryClassSizes:
    """Table 3: distinct-query class sizes for one period length.

    Computes the class sizes for every disjoint window of
    ``period_days`` days and averages them (the paper shows "typical
    periods").  Note the returned *_only fields are disjoint counts;
    Table 3's per-region rows are totals, recoverable as
    only + pair intersections + triple.
    """
    daily = daily_region_counts(sessions)
    days = sorted(daily)
    if len(days) < period_days:
        raise ValueError(f"trace spans {len(days)} days; need >= {period_days}")
    windows = [days[i : i + period_days] for i in range(0, len(days) - period_days + 1, period_days)]
    acc = np.zeros(7)
    for window in windows:
        sets = _window_sets(daily, window)
        na, eu, asia = sets[Region.NORTH_AMERICA], sets[Region.EUROPE], sets[Region.ASIA]
        triple = na & eu & asia
        na_eu = (na & eu) - triple
        na_as = (na & asia) - triple
        eu_as = (eu & asia) - triple
        acc += np.array(
            [
                len(na - eu - asia),
                len(eu - na - asia),
                len(asia - na - eu),
                len(na_eu),
                len(na_as),
                len(eu_as),
                len(triple),
            ]
        )
    acc = np.round(acc / len(windows)).astype(int)
    return QueryClassSizes(
        na_only=int(acc[0]), eu_only=int(acc[1]), as_only=int(acc[2]),
        na_eu=int(acc[3]), na_as=int(acc[4]), eu_as=int(acc[5]), all_three=int(acc[6]),
    )


def daily_class_ranking(
    daily: Dict[int, Dict[Region, Counter]], day: int, cls: QueryClassId
) -> List[Tuple[str, int]]:
    """The (query, count) ranking of one class on one day, descending.

    A query's class membership is decided by which regions issued it that
    day; its count is the total across the member regions.
    """
    counts = daily[day]
    na, eu, asia = (set(counts[r]) for r in MAJOR)
    membership = {
        QueryClassId.NA_ONLY: na - eu - asia,
        QueryClassId.EU_ONLY: eu - na - asia,
        QueryClassId.AS_ONLY: asia - na - eu,
        QueryClassId.NA_EU: (na & eu) - asia,
        QueryClassId.NA_AS: (na & asia) - eu,
        QueryClassId.EU_AS: (eu & asia) - na,
        QueryClassId.ALL: na & eu & asia,
    }[cls]
    totals = Counter()
    for region in MAJOR:
        for query in membership:
            if query in counts[region]:
                totals[query] += counts[region][query]
    return totals.most_common()


def popularity_pmf(
    sessions: SessionsLike,
    cls: QueryClassId,
    max_rank: int = 100,
    min_day_queries: int = 30,
) -> np.ndarray:
    """Figure 11: average per-day popularity pmf for a query class.

    Ranks queries separately on each day (preserving hot-set drift) and
    averages the normalized frequency at each rank across days.  Days
    with fewer than ``min_day_queries`` observations for the class are
    skipped: their head frequencies are pure sampling noise and would
    flatten-or-steepen the averaged line arbitrarily.
    """
    daily = daily_region_counts(sessions)
    if not daily:
        raise ValueError("no queries in sessions")
    per_rank: List[List[float]] = [[] for _ in range(max_rank)]
    for day in sorted(daily):
        ranking = daily_class_ranking(daily, day, cls)
        if not ranking:
            continue
        total = sum(count for _, count in ranking)
        if total < min_day_queries:
            continue
        for rank, (_, count) in enumerate(ranking[:max_rank]):
            per_rank[rank].append(count / total)
    pmf = np.array([np.mean(values) if values else 0.0 for values in per_rank])
    return pmf[pmf > 0]


@dataclass
class PopularityFit:
    """Zipf fit(s) of a class popularity pmf (Figure 11)."""

    pmf: np.ndarray
    fit: ZipfFit
    tail_fit: Optional[ZipfFit] = None  # present for the intersection class


def fit_class_popularity(
    sessions: SessionsLike,
    cls: QueryClassId,
    max_rank: int = 100,
    split_rank: Optional[int] = None,
    min_day_queries: int = 30,
) -> PopularityFit:
    """Fit the Figure 11 Zipf line(s) to a class's measured popularity."""
    pmf = popularity_pmf(sessions, cls, max_rank=max_rank, min_day_queries=min_day_queries)
    if pmf.size < 2:
        raise ValueError(f"class {cls} has too few ranked queries ({pmf.size})")
    if split_rank is not None and 1 < split_rank < pmf.size:
        body, tail = fit_zipf_body_tail(pmf, split_rank)
        return PopularityFit(pmf=pmf, fit=body, tail_fit=tail)
    return PopularityFit(pmf=pmf, fit=fit_zipf(pmf))


def drift_counts(
    sessions: SessionsLike,
    region: Region = Region.NORTH_AMERICA,
    rank_range: Tuple[int, int] = (1, 10),
    top_n: int = 100,
) -> List[int]:
    """Figure 10 statistic: per day-pair, how many of day n's queries at
    ranks ``rank_range`` appear in day n+1's top ``top_n``."""
    daily = daily_region_counts(sessions)
    days = sorted(daily)
    lo, hi = rank_range
    counts: List[int] = []
    for a, b in zip(days, days[1:]):
        if b != a + 1:
            continue  # only consecutive days
        rank_a = [q for q, _ in daily[a][region].most_common()]
        rank_b = [q for q, _ in daily[b][region].most_common()]
        subset = set(rank_a[lo - 1 : hi])
        counts.append(len(subset & set(rank_b[:top_n])))
    return counts


def drift_distribution(counts: Sequence[int], max_x: int = 4) -> np.ndarray:
    """CCDF over day pairs: fraction of days with > x queries retained,
    for x = 0..max_x (the Figure 10 axes)."""
    if not counts:
        raise ValueError("no day pairs")
    arr = np.asarray(counts)
    return np.array([float((arr > x).mean()) for x in range(max_x + 1)])
