"""Peer availability and churn (after Bhagwan, Savage & Voelker, IPTPS'02).

The paper cites Bhagwan et al.'s characterization of "the fraction of
time that hosts are available as well as the frequency of arrivals and
departures, including time of day effects".  This module computes those
measures from the trace:

* arrival and departure rates per time-of-day bin,
* the concurrent-connection curve (how many one-hop peers are online),
* the aggregate availability (peer-seconds online / trace span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.events import SessionRecord
from repro.core.stats import SECONDS_PER_HOUR, TimeOfDayBinner

__all__ = ["ChurnProfile", "churn_by_hour", "concurrency_curve", "aggregate_availability"]


@dataclass
class ChurnProfile:
    """Arrivals and departures per hour-of-day bin (day-averaged curves
    plus raw totals)."""

    bin_hours: np.ndarray
    arrivals: np.ndarray
    departures: np.ndarray
    total_arrivals: int
    total_departures: int

    @property
    def peak_arrival_hour(self) -> int:
        return int(self.bin_hours[int(np.argmax(self.arrivals))])

    @property
    def churn_balance(self) -> float:
        """Total arrivals / total departures (>= 1; the excess is peers
        still connected when the trace ends)."""
        if not self.total_departures:
            return float("inf")
        return self.total_arrivals / self.total_departures


def churn_by_hour(
    sessions: Sequence[SessionRecord], end_time: float = float("inf")
) -> ChurnProfile:
    """Arrival/departure rates per hour of day.

    Sessions whose recorded end coincides with (or exceeds) ``end_time``
    were truncated by the trace boundary, not by a real departure, and
    are excluded from the departure counts.
    """
    if not sessions:
        raise ValueError("no sessions")
    starts = np.fromiter((s.start for s in sessions), np.float64, len(sessions))
    ends = np.fromiter((s.end for s in sessions), np.float64, len(sessions))
    departed = ends[ends < end_time]
    arrivals = TimeOfDayBinner()
    arrivals.add_array(starts)
    departures = TimeOfDayBinner()
    departures.add_array(departed)
    return ChurnProfile(
        bin_hours=arrivals.bin_starts_hours(),
        arrivals=arrivals.average(),
        departures=departures.average() if departed.size else np.zeros(24),
        total_arrivals=len(sessions),
        total_departures=int(departed.size),
    )


def concurrency_curve(
    sessions: Sequence[SessionRecord], step_seconds: float = 300.0
) -> Tuple[np.ndarray, np.ndarray]:
    """(times, online_count): concurrent one-hop connections over the trace.

    Computed by counting session starts and ends up to each sample time,
    sampled every ``step_seconds`` -- the "up to 200 connections" load curve of the
    measurement node.
    """
    if not sessions:
        raise ValueError("no sessions")
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    starts = np.sort(np.fromiter((s.start for s in sessions), np.float64, len(sessions)))
    ends = np.sort(np.fromiter((s.end for s in sessions), np.float64, len(sessions)))
    t_start = min(starts[0], ends[0])
    t_end = max(starts[-1], ends[-1])
    times = np.arange(t_start, t_end + step_seconds, step_seconds)
    # Online at t: sessions started at or before t minus those ended by t.
    online = np.searchsorted(starts, times, side="right") - np.searchsorted(
        ends, times, side="right"
    )
    return times, online.astype(np.float64)


def aggregate_availability(
    sessions: Sequence[SessionRecord], trace_span_seconds: float
) -> float:
    """Mean fraction of the trace a connected peer stays online.

    Bhagwan et al. report host availability well under 10% over day
    scales; with single-connection peers this is mean session duration
    over the trace span.
    """
    if trace_span_seconds <= 0:
        raise ValueError("trace_span_seconds must be positive")
    if not sessions:
        raise ValueError("no sessions")
    durations = np.array([s.duration for s in sessions])
    return float(np.mean(durations) / trace_span_seconds)
