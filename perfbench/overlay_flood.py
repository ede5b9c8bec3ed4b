"""overlay-flood: a generated workload flooded through the Gnutella overlay.

``overlay_workload`` builds the Fig. 12 workload (set-up), then the
columnar ``simulate_workload`` floods every query over the CSR topology
with QRP routing, repeatedly, until the run's seconds are spent.  The
synthesis, measurement, filtering, analysis and service layers do no
work here.  The flood's counts depend only on the seed, so every
repetition must report identical counts; once per invocation a small
population is checked against the event-driven reference engine.
"""

from __future__ import annotations

import time
from typing import Optional

from common import (
    Calibration, Outcome, median, peak_rss_mib, print_metric, probe_setup, repetitions, reset_peak_rss, timed_setups,
)
from layers import patch_overlay
from tracer import Tracer, spanner

PEERS = 3000
HOURS = 1.0
#: Small enough for the event-driven reference engine.
REFERENCE_PEERS = 200
REFERENCE_SECONDS = 900.0
MIN_REPS = 3


def make_workload(seed: int, peers: int = PEERS, seconds: float = HOURS * 3600.0):
    from repro.gnutella.overlay_bench import overlay_workload

    return overlay_workload(peers, seconds, seed=seed)


def reference_check(seed: int, outcome: Outcome) -> dict:
    """Columnar vs event engine on a small population: every observable equal."""
    from repro.gnutella.columnar_overlay import compare_runs, simulate_workload

    small = make_workload(seed, REFERENCE_PEERS, REFERENCE_SECONDS)
    columnar = simulate_workload(small, REFERENCE_SECONDS, record_reach=True)
    event = simulate_workload(small, REFERENCE_SECONDS, backend="event", record_reach=True)
    checks = compare_runs(columnar, event)
    for name, ok in checks.items():
        outcome.check(f"overlay reference {name}", ok)
    return checks


def counts(result) -> dict:
    return {
        "overlay.messages_total": result.messages_total,
        "overlay.query_hits": int(result.query_hits.sum()),
        "overlay.rounds": result.n_rounds,
        "overlay.keepalive_pings": result.keepalive_pings,
        "overlay.peers_simulated": result.peers_simulated,
    }


def run(seed: int, seconds: float, tracer: Optional[Tracer], outcome: Outcome, calibration: Calibration):
    import repro.gnutella.columnar_overlay as overlay

    setups = timed_setups(lambda: probe_setup("overlay-flood", seed), calibration) if tracer is None else None
    reference = reference_check(seed, outcome)
    if tracer is not None:
        patch_overlay(tracer)
    span = spanner(tracer)

    t0 = time.perf_counter()
    with span("phase.workload"):
        workload = make_workload(seed)
    phases_s = time.perf_counter() - t0
    times, ratios, runs, peaks = [], [], [], []
    calibration.sample()
    # The traced run floods once, so its per-layer sums cover a fixed
    # amount of work.
    for _ in range(1) if tracer else repetitions(seconds, MIN_REPS):
        reset_peak_rss()
        t0 = time.perf_counter()
        with span("phase.simulate"):
            result = overlay.simulate_workload(workload, HOURS * 3600.0)
        times.append(time.perf_counter() - t0)
        peaks.append(peak_rss_mib())
        ratios.append(calibration.bracket(times[-1]))
        runs.append(counts(result))
    for rep in runs[1:]:
        outcome.check("flood counts identical across runs", rep == runs[0])

    rates = [runs[0]["overlay.messages_total"] / t for t in times]
    n = len(times)
    print(f"overlay-flood: {PEERS} peers for {HOURS:g} h, {runs[0]['overlay.peers_simulated']} peers simulated, "
          f"{runs[0]['overlay.messages_total']} messages per run, {n} run(s)")
    print_metric("flood_messages_per_s", median(rates), "1/s", n)
    print_metric("simulate_s", median(times), "s", n)
    # The process's RSS creeps up by about 1 MiB per flood, so the peak
    # is taken over a fixed number of floods, not over as many as fit.
    peak = median(peaks[:MIN_REPS])
    print_metric("simulate_rss_mb", peak, "MiB", min(n, MIN_REPS), "peak RSS of the simulate phase, first floods")
    figures = {
        "work_s": median(times),
        "work_ratio": median(ratios),
        "repetitions": len(times),
        "peak_rss_mb": peak,
        "phases_s": phases_s + sum(times),
    }
    detail = {
        "overlay_flood": {"flood_messages_per_s": median(rates), **figures},
        "counts": runs[0],
        "simulate_runs_s": times,
        "simulate_rss_mb": peaks,
        "reference": reference,
    }
    if setups:
        figures["setup_s"] = median(setups["scaled"])
        detail["setup_runs_s"] = setups
    return figures, detail, dict(runs[0])
