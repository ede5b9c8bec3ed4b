"""paper-trace: what a reproducer runs.

A cold ``run_sharded`` of a few days of the ``paper`` scenario with 24 h
shards (the write side: synthesis, sort, ``.npz``), then every experiment
of ``ALL_EXPERIMENTS`` in stream mode on those shards (the read side:
shard load, streaming filter, reducers and the record-path fallback).
The two phases are timed separately, each with its own peak RSS, so a
change that trades one for the other shows.

Each pass runs in a fresh child process (this file run as a script), so
its peak RSS does not depend on what the passes before it left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from common import (
    JOBS, WORK, Calibration, Outcome, child_env, median, peak_rss_mib, print_metric, probe_setup, repetitions,
    reset_peak_rss, timed_setups,
)
from layers import EXPERIMENT_IDS, patch_trace_layers
from tracer import Tracer, spanner

DAYS = 2.0
SHARD_HOURS = 24.0
#: The once-per-invocation streamed-vs-in-memory battery runs at this size.
EQUIVALENCE_DAYS = 0.5
EQUIVALENCE_SHARD_HOURS = 6.0
#: A pass that takes longer has hung.
PASS_TIMEOUT_S = 150.0
MIN_PASSES = 3


def paper_config(seed: int, days: float = DAYS, shard_hours: float = SHARD_HOURS):
    from repro.synthesis import scenario_config

    config = scenario_config("paper", seed=seed, jobs=JOBS)
    return replace(config, days=days, shard_days=shard_hours / 24.0)


def table2_arithmetic_holds(report) -> bool:
    """Initial minus removed equals final, for queries and sessions."""
    return (
        report.initial_queries
        - report.rule1_removed_queries
        - report.rule2_removed_queries
        - report.rule3_removed_queries
        == report.final_queries
        and report.initial_sessions - report.rule3_removed_sessions == report.final_sessions
        and report.final_queries - report.rule4_removed_queries - report.rule5_removed_queries
        == report.final_interarrival_queries
    )


def t2_rows_match(result, report) -> bool:
    """T2's "ours" column equals ``report``, row by row."""
    ours = {row["measure"]: row["ours"] for row in result.rows}
    expected = report.as_dict()
    return bool(ours) and all(name in expected and expected[name] == value for name, value in ours.items())


def one_pass(seed: int, span) -> dict:
    """Synthesize to shards, then run every experiment on them (in a fresh process)."""
    from repro.experiments.base import ExperimentContext
    from repro.experiments.registry import ALL_EXPERIMENTS, run_experiment
    from repro.synthesis import TraceSynthesizer

    if tuple(ALL_EXPERIMENTS) != EXPERIMENT_IDS:
        raise RuntimeError(f"experiment registry changed: {list(ALL_EXPERIMENTS)}")
    config = paper_config(seed)
    dest = WORK / f"paper-shards-{seed}-{os.getpid()}"
    shutil.rmtree(dest, ignore_errors=True)
    try:
        reset_peak_rss()
        t0 = time.perf_counter()
        with span("phase.synthesize"):
            shards = TraceSynthesizer(config).run_sharded(dest)
        synthesize_s = time.perf_counter() - t0
        synthesize_rss = peak_rss_mib()
        spill = sum((shards.root / info.file).stat().st_size for info in shards.shards)

        results = {}
        reset_peak_rss()
        t0 = time.perf_counter()
        with span("phase.experiments"):
            ctx = ExperimentContext(config, stream=True)
            ctx.shards = shards
            for eid in ALL_EXPERIMENTS:
                with span(f"experiments.{eid}"):
                    results[eid] = run_experiment(eid, ctx)
        experiments_s = time.perf_counter() - t0
        experiments_rss = peak_rss_mib()

        checks = {f"{eid} returns rows": bool(result.rows) for eid, result in results.items()}
        checks["table 2 arithmetic"] = table2_arithmetic_holds(ctx.streaming.report)
        # The record-path filter (TA1's fallback, cached on the context)
        # computes Table 2 independently of the streaming filter.
        checks["T2 rows equal the record-path report"] = t2_rows_match(results["T2"], ctx.filtered.report)
        return {
            "synthesize_s": synthesize_s,
            "experiments_s": experiments_s,
            "synthesize_rss_mb": synthesize_rss,
            "experiments_rss_mb": experiments_rss,
            "spill_mb": spill / 1e6,
            "connections": shards.n_connections,
            "shards": shards.n_shards,
            "checks": checks,
        }
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def run_pass(seed: int, spans: Optional[Path], run_id: str) -> dict:
    """One pass in a child process: every pass starts from the same
    memory state, so its per-phase peak RSS does not depend on the
    passes before it."""
    command = [sys.executable, __file__, "--seed", str(seed), "--run-id", run_id]
    if spans is not None:
        command += ["--spans", str(spans)]
    out = subprocess.run(
        command, env=child_env(), check=True, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S
    )
    return json.loads(out.stdout.splitlines()[-1])


def equivalence(seed: int, outcome: Outcome) -> dict:
    """The 13 streamed-vs-in-memory exactness checks, outside any timer."""
    from repro.analysis.paper_scale import streamed_equivalence_checks

    dest = WORK / f"paper-equivalence-{seed}"
    shutil.rmtree(dest, ignore_errors=True)
    try:
        config = paper_config(seed, EQUIVALENCE_DAYS, EQUIVALENCE_SHARD_HOURS)
        checks = streamed_equivalence_checks(config, dest)["checks"]
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    for name, ok in checks.items():
        outcome.check(f"equivalence {name}", ok)
    outcome.check("13 equivalence checks ran", len(checks) == 13)
    return checks


def run(seed: int, seconds: float, tracer: Optional[Tracer], outcome: Outcome, calibration: Calibration):
    setups = timed_setups(lambda: probe_setup("paper-trace", seed), calibration) if tracer is None else None
    checks = equivalence(seed, outcome)

    spans = WORK / "tmp" / f"{tracer.run_id}-pass.jsonl" if tracer else None
    passes, ratios = [], []
    calibration.sample()
    # The traced run makes exactly one pass, so its per-layer sums
    # cover a fixed amount of work.
    for _ in range(1) if tracer else repetitions(seconds, MIN_PASSES):
        one = run_pass(seed, spans, tracer.run_id if tracer else "untraced")
        ratios.append(calibration.bracket(one["synthesize_s"] + one["experiments_s"]))
        for name, ok in one.pop("checks").items():
            outcome.check(name, ok)
        passes.append(one)
    if tracer:
        tracer.extend(spans)
        spans.unlink()

    summary = {
        key: median([p[key] for p in passes])
        for key in ("synthesize_s", "experiments_s", "synthesize_rss_mb", "experiments_rss_mb")
    }
    summary["spill_mb"] = passes[0]["spill_mb"]
    work = [p["synthesize_s"] + p["experiments_s"] for p in passes]
    n = len(passes)
    print(f"paper-trace: {DAYS:g} days of the paper scenario, {SHARD_HOURS:g} h shards, "
          f"{passes[0]['connections']} connections in {passes[0]['shards']} shards, {n} pass(es)")
    print_metric("synthesize_s", summary["synthesize_s"], "s", n)
    print_metric("experiments_s", summary["experiments_s"], "s", n)
    print_metric("synthesize_rss_mb", summary["synthesize_rss_mb"], "MiB", n)
    print_metric("experiments_rss_mb", summary["experiments_rss_mb"], "MiB", n)
    print_metric("spill_mb", summary["spill_mb"], "MB", n, "exact byte count / 1e6")
    figures = {
        "work_s": median(work),
        "work_ratio": median(ratios),
        "repetitions": len(passes),
        "peak_rss_mb": max(summary["synthesize_rss_mb"], summary["experiments_rss_mb"]),
        "phases_s": sum(work),
    }
    detail = {"paper_trace": summary, "passes": passes, "equivalence": checks}
    if setups:
        figures["setup_s"] = median(setups["scaled"])
        detail["setup_runs_s"] = setups
    return figures, detail, {}


def main() -> None:
    parser = argparse.ArgumentParser(description="One paper-trace pass (a child of run.py).")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", type=Path, default=None, help="trace the pass and write its spans here")
    args = parser.parse_args()
    tracer = Tracer(args.run_id) if args.spans else None
    if tracer:
        patch_trace_layers(tracer)
    try:
        result = one_pass(args.seed, spanner(tracer))
    finally:
        if tracer:
            tracer.unpatch()
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
