"""Single-pass streaming accumulators for the Figure 1-11 analyses.

Each reducer here implements the
:class:`~repro.analysis.common.StreamingReducer` protocol: it folds one
filtered trace chunk at a time into running state whose cross-chunk
merge is *exact* -- integer counts, per-session scalars, and array
concatenations in chunk order -- and finalizes into the same product the
in-memory analysis functions compute over the whole trace at once.

Exactness relies on two properties of the sharded pipeline:

* shards arrive in canonical global order (a shard's sessions all start
  before the next shard's), so concatenating per-chunk per-session
  arrays reproduces the full-trace session order, and
* every accumulated quantity is either order-independent
  (:func:`empirical_ccdf` sorts; ``Counter`` merges sum; time-of-day
  bins hold exact float64 integer counts) or per-session (medians,
  first/last anchors) and therefore local to one chunk.

An in-memory trace is the one-chunk case, so every context reads its
Table 2-3 and Figure 1-11 products from these reducers.  The
record-list analysis functions are the reference: the equivalence
checks (:mod:`repro.analysis.paper_scale`) assert the streamed outputs
*equal* to them -- not approximately equal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.regions import PEAK_HOURS, KeyPeriod, Region
from repro.core.stats import (
    Ccdf,
    TimeOfDayBinner,
    empirical_ccdf,
    ratio_binner_fraction,
)
from repro.filtering.columnar import ColumnarFilterResult
from repro.filtering.pipeline import FilterReport
from repro.filtering.streaming import StreamingFilter
from repro.measurement.columnar import REGION_CODE, REGION_ORDER, ColumnarTrace

from .active import ActiveSession
from .common import MAJOR
from .correlations import CorrelationResult, spearman
from .geographic import GeographicProfile
from .load import LoadProfile
from .passive import PassiveFractionProfile, _passive_columns
from .popularity import _daily_region_counts_columnar
from .shared_files import SharedFilesProfile

__all__ = [
    "ActiveArrays",
    "PassiveDurations",
    "StreamingActive",
    "StreamingAnalysis",
    "StreamingGeographic",
    "StreamingPassiveDurations",
    "StreamingPassiveFraction",
    "StreamingPopularity",
    "StreamingQueryLoad",
    "StreamingSharedFiles",
    "run_streaming",
]

_N_REGIONS = len(REGION_ORDER)


def _hour_of_day_array(timestamps: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.regions.hour_of_day`."""
    return ((np.asarray(timestamps) % 86400.0) // 3600.0).astype(np.int64)


# -- Figure 1: geographic distribution ----------------------------------------

class StreamingGeographic:
    """Streaming :func:`~repro.analysis.geographic.geographic_distribution`.

    Pure integer (region, hour) counts over all sessions and all
    PONG/QUERYHIT observations; the normalization happens once at
    finalize, on totals identical to the in-memory pass.
    """

    def __init__(self) -> None:
        self._one_hop = np.zeros((_N_REGIONS, 24), dtype=np.int64)
        self._all = np.zeros((_N_REGIONS, 24), dtype=np.int64)

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        if trace.n_sessions:
            code = np.asarray(trace.session_region, dtype=np.int64)
            np.add.at(self._one_hop, (code, _hour_of_day_array(trace.session_start)), 1)
        for prefix in ("pong", "hit"):
            ts = np.asarray(getattr(trace, prefix + "_timestamp"))
            if ts.size:
                code = np.asarray(getattr(trace, prefix + "_region"), dtype=np.int64)
                np.add.at(self._all, (code, _hour_of_day_array(ts)), 1)

    def finalize(self) -> GeographicProfile:
        def normalize(counts: np.ndarray) -> np.ndarray:
            total = np.maximum(counts.astype(float).sum(axis=0), 1.0)
            return counts.astype(float) / total

        one_hop = normalize(self._one_hop)
        all_peers = normalize(self._all)
        code = {r: REGION_CODE[r] for r in MAJOR}
        return GeographicProfile(
            hours=np.arange(24),
            one_hop={r: one_hop[code[r]] for r in MAJOR},
            all_peers={r: all_peers[code[r]] for r in MAJOR},
        )


# -- Figure 2: shared files ----------------------------------------------------

class StreamingSharedFiles:
    """Streaming :func:`~repro.analysis.shared_files.shared_files_distribution`."""

    def __init__(self, max_files: int = 100) -> None:
        if max_files < 1:
            raise ValueError(f"max_files must be >= 1, got {max_files}")
        self.max_files = max_files
        self._one_hop = np.zeros(max_files + 1, dtype=np.int64)
        self._all = np.zeros(max_files + 1, dtype=np.int64)
        self._n_one_hop = 0
        self._n_all = 0

    def _fold(self, hist: np.ndarray, values: np.ndarray) -> int:
        values = np.asarray(values)
        small = values[values <= self.max_files]
        if small.size:
            hist += np.bincount(small, minlength=self.max_files + 1)
        return int(values.size)

    def update(self, block: ColumnarFilterResult) -> None:
        self._n_one_hop += self._fold(self._one_hop, block.trace.session_shared_files)
        self._n_all += self._fold(self._all, block.trace.pong_shared_files)

    def finalize(self) -> SharedFilesProfile:
        if self._n_one_hop == 0 or self._n_all == 0:
            raise ValueError("trace has no sessions or no PONG samples")
        return SharedFilesProfile(
            counts=np.arange(self.max_files + 1),
            one_hop=self._one_hop.astype(float) / self._n_one_hop,
            all_peers=self._all.astype(float) / self._n_all,
        )


# -- Figure 3: query load -------------------------------------------------------

class StreamingQueryLoad:
    """Streaming :func:`~repro.analysis.load.query_load` (raw hop-1 stream)."""

    def __init__(self, bin_minutes: int = 30) -> None:
        self._binners = {r: TimeOfDayBinner(bin_seconds=bin_minutes * 60) for r in MAJOR}

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        if not trace.n_queries:
            return
        qts = np.asarray(trace.query_timestamp)
        code = np.asarray(trace.session_region)[block.session_index]
        for region in MAJOR:
            mask = code == REGION_CODE[region]
            if mask.any():
                self._binners[region].add_array(qts[mask])

    def finalize(self) -> Dict[Region, LoadProfile]:
        profiles: Dict[Region, LoadProfile] = {}
        for region, binner in self._binners.items():
            if not binner.days:
                raise ValueError(f"no queries observed for {region}")
            profiles[region] = LoadProfile(
                region=region,
                bin_hours=binner.bin_starts_hours(),
                average=binner.average(),
                minimum=binner.minimum(),
                maximum=binner.maximum(),
            )
        return profiles


# -- Figure 4: passive fraction by hour -----------------------------------------

class StreamingPassiveFraction:
    """Streaming :func:`~repro.analysis.passive.passive_fraction_by_hour`."""

    def __init__(self) -> None:
        self._passive = {r: TimeOfDayBinner() for r in MAJOR}
        self._total = {r: TimeOfDayBinner() for r in MAJOR}

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        rows = np.flatnonzero(block.session_mask)
        if not rows.size:
            return
        kept = np.bincount(
            block.session_index[block.query_mask], minlength=trace.n_sessions
        )
        start = np.asarray(trace.session_start)[rows]
        code = np.asarray(trace.session_region)[rows]
        # Active sessions contribute 0.0 so every day with sessions is
        # present in both binners (the loop path does the same).
        passive = (kept[rows] == 0).astype(np.float64)
        for region in MAJOR:
            mask = code == REGION_CODE[region]
            if mask.any():
                self._total[region].add_array(start[mask])
                self._passive[region].add_array(start[mask], passive[mask])

    def finalize(self) -> Dict[Region, PassiveFractionProfile]:
        profiles: Dict[Region, PassiveFractionProfile] = {}
        for region in MAJOR:
            if not self._total[region].days:
                continue
            avg, lo, hi = ratio_binner_fraction(self._passive[region], self._total[region])
            profiles[region] = PassiveFractionProfile(
                region=region,
                bin_hours=self._total[region].bin_starts_hours(),
                average=avg,
                minimum=lo,
                maximum=hi,
            )
        return profiles


# -- Figure 5: passive durations --------------------------------------------------

@dataclass
class PassiveDurations:
    """(region, start, duration) columns of every passive rule-3 survivor."""

    region_code: np.ndarray
    start: np.ndarray
    duration: np.ndarray

    def by_region(self) -> Dict[Region, Ccdf]:
        """Streamed :func:`~repro.analysis.passive.passive_duration_ccdf_by_region`."""
        out: Dict[Region, Ccdf] = {}
        for region in MAJOR:
            durations = self.duration[self.region_code == REGION_CODE[region]]
            if durations.size:
                out[region] = empirical_ccdf(durations)
        return out

    def by_period(self, region: Region) -> Dict[KeyPeriod, Ccdf]:
        """Streamed :func:`~repro.analysis.passive.passive_duration_ccdf_by_period`."""
        out: Dict[KeyPeriod, Ccdf] = {}
        in_region = self.region_code == REGION_CODE[region]
        hour = _hour_of_day_array(self.start)
        for period in KeyPeriod:
            durations = self.duration[in_region & (hour == period.start_hour)]
            if durations.size:
                out[period] = empirical_ccdf(durations)
        return out

    def by_peak(self, region: Region, peak: bool) -> np.ndarray:
        """Durations of ``region``'s sessions starting inside (``peak``)
        or outside its peak hours, in trace order (Table A.1's split)."""
        in_region = self.region_code == REGION_CODE[region]
        in_peak = np.isin(_hour_of_day_array(self.start), sorted(PEAK_HOURS[region]))
        return self.duration[in_region & (in_peak == peak)]


class StreamingPassiveDurations:
    """Accumulates the Figure 5 passive-session columns chunk by chunk."""

    def __init__(self) -> None:
        self._parts: List[tuple] = []

    def update(self, block: ColumnarFilterResult) -> None:
        code, start, duration = _passive_columns(block)
        if code.size:
            self._parts.append(
                (np.asarray(code), np.asarray(start), np.asarray(duration))
            )

    def finalize(self) -> PassiveDurations:
        if not self._parts:
            return PassiveDurations(
                region_code=np.empty(0, np.int8),
                start=np.empty(0, np.float64),
                duration=np.empty(0, np.float64),
            )
        return PassiveDurations(
            region_code=np.concatenate([p[0] for p in self._parts]),
            start=np.concatenate([p[1] for p in self._parts]),
            duration=np.concatenate([p[2] for p in self._parts]),
        )


# -- Figures 6-9: active sessions ---------------------------------------------

_EMPTY_ACTIVE = {
    "region": np.empty(0, np.int8),
    "start": np.empty(0, np.float64),
    "duration": np.empty(0, np.float64),
    "n_queries": np.empty(0, np.int64),
    "n_unfiltered": np.empty(0, np.int64),
    "until_first": np.empty(0, np.float64),
    "after_last": np.empty(0, np.float64),
    "start_hour": np.empty(0, np.int64),
    "last_hour": np.empty(0, np.int64),
    "median_gap": np.empty(0, np.float64),
    "gaps": np.empty(0, np.float64),
}


@dataclass
class ActiveArrays:
    """Per-active-session columns: the array form of the ``ActiveSession``
    view list, carrying everything the Figure 6-9 CCDFs and the
    correlation measures need without per-session Python objects.

    ``gaps`` is the flat eligible-interarrival column in session-major
    order; session ``i`` owns ``n_queries[i] - 1`` consecutive gaps.
    """

    region: np.ndarray        # REGION_CODE per active session
    start: np.ndarray
    duration: np.ndarray
    n_queries: np.ndarray     # rules 4-5 applied (the paper's default)
    n_unfiltered: np.ndarray  # rules 1-3 only (Fig. 6c variant)
    until_first: np.ndarray
    after_last: np.ndarray
    start_hour: np.ndarray
    last_hour: np.ndarray
    median_gap: np.ndarray    # NaN for single-query sessions
    gaps: np.ndarray

    def __len__(self) -> int:
        return int(self.region.size)

    # Per-gap owner attributes, for the Figure 8 groupings.
    def _gap_owner(self, column: np.ndarray) -> np.ndarray:
        return np.repeat(column, np.maximum(self.n_queries - 1, 0))

    def _region_mask(self, region: Region) -> np.ndarray:
        return self.region == REGION_CODE[region]

    def _ccdf_by_region(self, values: np.ndarray, owner_region: np.ndarray) -> Dict[Region, Ccdf]:
        out: Dict[Region, Ccdf] = {}
        for region in MAJOR:
            selected = values[owner_region == REGION_CODE[region]]
            if selected.size:
                out[region] = empirical_ccdf(selected)
        return out

    def _ccdf_by_period(
        self,
        values: np.ndarray,
        owner_region: np.ndarray,
        owner_hour: np.ndarray,
        region: Region,
    ) -> Dict[KeyPeriod, Ccdf]:
        out: Dict[KeyPeriod, Ccdf] = {}
        in_region = owner_region == REGION_CODE[region]
        for period in KeyPeriod:
            selected = values[in_region & (owner_hour == period.start_hour)]
            if selected.size:
                out[period] = empirical_ccdf(selected)
        return out

    def _ccdf_by_class(
        self, values: np.ndarray, labels: tuple, masks: tuple, region: Region
    ) -> Dict[str, Ccdf]:
        out: Dict[str, Ccdf] = {}
        in_region = self._region_mask(region)
        for label, mask in zip(labels, masks):
            selected = values[in_region & mask]
            if selected.size:
                out[label] = empirical_ccdf(selected)
        return out

    # -- Figure 6 -----------------------------------------------------------

    def queries_per_session_ccdf(self, region: Optional[Region] = None):
        """Streamed :func:`~repro.analysis.active.queries_per_session_ccdf`."""
        if region is None:
            return self._ccdf_by_region(self.n_queries, self.region)
        return self._ccdf_by_period(self.n_queries, self.region, self.start_hour, region)

    def queries_per_session_ccdf_unfiltered(self) -> Dict[Region, Ccdf]:
        """Streamed :func:`~repro.analysis.active.queries_per_session_ccdf_unfiltered`."""
        return self._ccdf_by_region(self.n_unfiltered, self.region)

    # -- Figure 7 -----------------------------------------------------------

    def first_query_ccdf(self, region: Optional[Region] = None, by_query_class: bool = False):
        """Streamed :func:`~repro.analysis.active.first_query_ccdf`."""
        values = np.maximum(self.until_first, 1e-3)
        if region is None:
            return self._ccdf_by_region(values, self.region)
        if by_query_class:
            n = self.n_queries
            return self._ccdf_by_class(
                values, ("<3", "=3", ">3"), (n < 3, n == 3, n > 3), region
            )
        return self._ccdf_by_period(values, self.region, self.start_hour, region)

    # -- Figure 8 -----------------------------------------------------------

    def interarrival_ccdf(self, region: Optional[Region] = None, by_query_class: bool = False):
        """Streamed :func:`~repro.analysis.active.interarrival_ccdf`."""
        gap_region = self._gap_owner(self.region)
        if region is None:
            return self._ccdf_by_region(self.gaps, gap_region)
        if by_query_class:
            gap_n = self._gap_owner(self.n_queries)
            out: Dict[str, Ccdf] = {}
            in_region = gap_region == REGION_CODE[region]
            for label, mask in (
                ("=2", gap_n <= 2),
                ("3-7", (gap_n >= 3) & (gap_n <= 7)),
                (">7", gap_n > 7),
            ):
                selected = self.gaps[in_region & mask]
                if selected.size:
                    out[label] = empirical_ccdf(selected)
            return out
        return self._ccdf_by_period(
            self.gaps, gap_region, self._gap_owner(self.start_hour), region
        )

    # -- Figure 9 -----------------------------------------------------------

    def time_after_last_ccdf(self, region: Optional[Region] = None, by_query_class: bool = False):
        """Streamed :func:`~repro.analysis.active.time_after_last_ccdf`."""
        values = np.maximum(self.after_last, 1e-3)
        if region is None:
            return self._ccdf_by_region(values, self.region)
        if by_query_class:
            n = self.n_queries
            return self._ccdf_by_class(
                values, ("1", "2-7", ">7"), (n <= 1, (n >= 2) & (n <= 7), n > 7), region
            )
        return self._ccdf_by_period(values, self.region, self.last_hour, region)

    # -- correlations ---------------------------------------------------------

    def correlations(self, region: Optional[Region] = None) -> List[CorrelationResult]:
        """Streamed :func:`~repro.analysis.correlations.session_correlations`."""
        selected = (
            np.ones(len(self), dtype=bool) if region is None else self._region_mask(region)
        )
        with_gaps = selected & (self.n_queries >= 2)
        results: List[CorrelationResult] = []
        n_selected = int(selected.sum())
        if n_selected >= 3:
            results.append(
                CorrelationResult(
                    name="duration vs #queries",
                    rho=spearman(self.duration[selected], self.n_queries[selected]),
                    n=n_selected,
                )
            )
            results.append(
                CorrelationResult(
                    name="time-after-last vs #queries",
                    rho=spearman(self.after_last[selected], self.n_queries[selected]),
                    n=n_selected,
                )
            )
        n_gaps = int(with_gaps.sum())
        if n_gaps >= 3:
            results.append(
                CorrelationResult(
                    name="median interarrival vs #queries",
                    rho=spearman(self.median_gap[with_gaps], self.n_queries[with_gaps]),
                    n=n_gaps,
                )
            )
        return results

    # -- record views ---------------------------------------------------------

    def views(self) -> List[ActiveSession]:
        """Materialize the ``ActiveSession`` record views.

        The explicit opt-out of streaming for consumers that still want
        per-session objects; identical to the record-list reference
        ``active_sessions(apply_filters(trace.sessions))`` on the full
        trace.  Costs O(total gaps) Python objects -- avoid at paper
        scale.
        """
        period_by_hour = {p.start_hour: p for p in KeyPeriod}
        if not len(self):
            return []
        per_session_gaps = np.split(self.gaps, np.cumsum(self.n_queries - 1)[:-1])
        cols = [
            col.tolist()  # repro: noqa[MEM501] -- record views are the explicit opt-out of streaming
            for col in (
                self.region, self.start, self.duration, self.n_queries,
                self.n_unfiltered, self.until_first, self.after_last,
                self.start_hour, self.last_hour,
            )
        ]
        rows = zip(*cols[:7], per_session_gaps, *cols[7:])
        return [
            ActiveSession(
                region=REGION_ORDER[code],
                start=start,
                duration=duration,
                n_queries=n,
                n_queries_unfiltered=n_unfiltered,
                time_until_first=until_first,
                time_after_last=after_last,
                interarrivals=tuple(gaps.tolist()),  # repro: noqa[MEM501] -- one session's gaps, bounded
                start_period=period_by_hour.get(start_hour),
                last_query_hour=last_hour,
            )
            for (
                code, start, duration, n, n_unfiltered,
                until_first, after_last, gaps, start_hour, last_hour,
            ) in rows
        ]


class StreamingActive:
    """Accumulates :class:`ActiveArrays` one filtered chunk at a time.

    The per-chunk extraction is ``searchsorted``/``bincount``/``diff``
    reductions over the flat eligible query table.  Everything
    per-session (first/last anchors, gap medians) is computed inside the
    owning chunk, so concatenation in chunk order reproduces the
    full-trace arrays exactly.
    """

    def __init__(self) -> None:
        self._chunks: List[Dict[str, np.ndarray]] = []

    def update(self, block: ColumnarFilterResult) -> None:
        trace = block.trace
        eligible_rows = np.flatnonzero(block.eligible_mask)
        if not eligible_rows.size:
            return
        seg = block.session_index[eligible_rows]
        ts = np.asarray(trace.query_timestamp)[eligible_rows]
        n_eligible = np.bincount(seg, minlength=trace.n_sessions)
        active_rows = np.flatnonzero(n_eligible > 0)
        first_ts = ts[np.searchsorted(seg, active_rows, side="left")]
        last_ts = ts[np.searchsorted(seg, active_rows, side="right") - 1]
        n_kept = np.bincount(
            block.session_index[block.query_mask], minlength=trace.n_sessions
        )
        start = np.asarray(trace.session_start)[active_rows]
        end = np.asarray(trace.session_end)[active_rows]
        counts = n_eligible[active_rows]
        gaps = np.diff(ts)[seg[1:] == seg[:-1]]
        per_session = np.split(gaps, np.cumsum(counts - 1)[:-1])
        medians = np.array(
            [np.median(g) if g.size else np.nan for g in per_session],
            dtype=np.float64,
        )
        self._chunks.append(
            {
                "region": np.asarray(trace.session_region)[active_rows],
                "start": start,
                "duration": end - start,
                "n_queries": counts.astype(np.int64),
                "n_unfiltered": n_kept[active_rows].astype(np.int64),
                "until_first": first_ts - start,
                "after_last": end - last_ts,
                "start_hour": _hour_of_day_array(start),
                "last_hour": _hour_of_day_array(last_ts),
                "median_gap": medians,
                "gaps": gaps,
            }
        )

    def finalize(self) -> ActiveArrays:
        if not self._chunks:
            return ActiveArrays(**_EMPTY_ACTIVE)
        return ActiveArrays(
            **{
                name: np.concatenate([chunk[name] for chunk in self._chunks])
                for name in _EMPTY_ACTIVE
            }
        )


# -- Figures 10-11 / Table 3: popularity ----------------------------------------

class StreamingPopularity:
    """Streaming :func:`~repro.analysis.popularity.daily_region_counts`.

    Per-chunk (day, region, query) counts merge by summation; finalize
    rebuilds each day's Counters with keys in ascending order, which is
    exactly the insertion order the full-trace ``np.unique`` reduction
    produces -- so even ``Counter.most_common()`` tie-breaking matches.
    """

    def __init__(self) -> None:
        self._acc: Dict[int, Dict[Region, Counter]] = {}

    def update(self, block: ColumnarFilterResult) -> None:
        for day, regions in _daily_region_counts_columnar(block).items():
            dst = self._acc.setdefault(day, {r: Counter() for r in MAJOR})
            for region in MAJOR:
                dst[region].update(regions[region])

    def finalize(self) -> Dict[int, Dict[Region, Counter]]:
        out: Dict[int, Dict[Region, Counter]] = {}
        for day in sorted(self._acc):
            rebuilt: Dict[Region, Counter] = {r: Counter() for r in MAJOR}
            for region in MAJOR:
                source = self._acc[day][region]
                for keyword in sorted(source):
                    rebuilt[region][keyword] = source[keyword]
            out[day] = rebuilt
        return out


# -- one-pass driver -------------------------------------------------------------

@dataclass
class StreamingAnalysis:
    """Everything the Figure 1-11 / Table 2-3 consumers need, from one pass."""

    report: FilterReport
    geographic: GeographicProfile
    shared_files: SharedFilesProfile
    load: Dict[Region, LoadProfile]
    passive_fraction: Dict[Region, PassiveFractionProfile]
    passive: PassiveDurations
    active: ActiveArrays
    daily: Dict[int, Dict[Region, Counter]]


def run_streaming(
    shards: Union[Iterable[ColumnarTrace], "object"],
) -> StreamingAnalysis:
    """Filter and analyze a trace in one bounded-memory pass.

    ``shards`` is a :class:`~repro.measurement.shards.ShardedTrace` (its
    shards are visited memory-mapped, one at a time) or any iterable of
    time-ordered :class:`ColumnarTrace` chunks holding whole sessions --
    ``[trace]`` analyzes an in-memory trace as a single chunk.
    """
    chunks = shards.iter_shards() if hasattr(shards, "iter_shards") else iter(shards)
    filt = StreamingFilter()
    geographic = StreamingGeographic()
    shared_files = StreamingSharedFiles()
    load = StreamingQueryLoad()
    passive_fraction = StreamingPassiveFraction()
    passive = StreamingPassiveDurations()
    active = StreamingActive()
    popularity = StreamingPopularity()
    reducers = (
        geographic, shared_files, load, passive_fraction, passive, active, popularity,
    )
    for chunk in chunks:
        block = filt.push(chunk)
        for reducer in reducers:
            reducer.update(block)
    return StreamingAnalysis(
        report=filt.report,
        geographic=geographic.finalize(),
        shared_files=shared_files.finalize(),
        load=load.finalize(),
        passive_fraction=passive_fraction.finalize(),
        passive=passive.finalize(),
        active=active.finalize(),
        daily=popularity.finalize(),
    )
