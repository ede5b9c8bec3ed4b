"""The repository's benchmark: one command, three user paths.

    python3 perfbench/run.py --workload paper-trace --seed 1 --seconds 25 --trace 0

Workloads (see README.md and BENCHMARK.json):

* ``paper-trace``     -- synthesize a few days of the paper scenario to
  shards, then run all 26 experiments on them;
* ``workload-stream`` -- a ``WorkloadStreamServer`` in its own process
  streaming to two subscribers, unthrottled and open-loop at fixed rates;
* ``overlay-flood``   -- flood a generated workload through the Gnutella
  overlay with ``simulate_workload``.

``--trace 0`` runs the program unmodified and reports the end-to-end
metrics; ``--trace 1`` patches span wrappers around each layer's public
calls and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark builds nothing: it runs the checkout's
``src`` tree and exits non-zero when that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import uuid

from common import BENCH_CPU, SRC, WORK, Calibration, Outcome, emit, host_stamp, median, print_metric

WORKLOADS = ("paper-trace", "workload-stream", "overlay-flood")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def breakdown(tracer, phases_s: float, outcome: Outcome) -> dict:
    """Self time per span path, checked against the phases' own wall clocks.

    Every span must lie inside a ``phase.*`` root and inside its parent.
    The layers' self times plus ``unattributed_s`` (the phases' own self
    time and the timer gaps around them) make up ``phases_s``, the sum
    of the wall-clocked phases.
    """
    rows = tracer.self_times_by_path()
    roots = {s.name for s in tracer.spans if s.parent is None}
    layers = {path: seconds for path, seconds in rows.items() if path not in roots}
    unattributed = phases_s - sum(layers.values())
    outcome.check("every span lies inside a phase", all(name.startswith("phase.") for name in roots))
    outcome.check("every span lies inside its parent", tracer.nesting_errors() == 0)
    # The spans sit inside the phase timers, so their total may fall
    # short of the timers by a few microseconds per phase, never exceed it.
    gap = phases_s - sum(rows.values())
    outcome.check("traced breakdown sums to the phase wall clocks", 0.0 <= gap <= 1e-3 + 1e-4 * phases_s)
    print(f"traced breakdown (self time; layers + unattributed = {phases_s:.4f} s of wall-clocked phases):")
    for path, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {seconds:10.4f} s {seconds / phases_s:7.2%}  {path}")
    print(f"  {unattributed:10.4f} s {unattributed / phases_s:7.2%}  unattributed (phase self time and timer gaps)")
    return {"phases_s": phases_s, "unattributed_s": unattributed, "rows": rows}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {BENCH_CPU})
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK / "tmp")

    import layers
    from tracer import Tracer

    if args.workload == "paper-trace":
        import paper_trace as workload
    elif args.workload == "workload-stream":
        import workload_stream as workload
    else:
        import overlay_flood as workload

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{uuid.uuid4().hex[:8]}"
    host = host_stamp(args.workload, args.seed)
    outcome = Outcome()
    calibration = Calibration()
    tracer = Tracer(run_id) if args.trace else None
    try:
        figures, detail, layer_extra = workload.run(args.seed, args.seconds, tracer, outcome, calibration)
    finally:
        if tracer is not None:
            tracer.unpatch()
            tracer.write(WORK / "traces" / f"{run_id}.jsonl")
    detail.update(host=host, run_id=run_id, failures=outcome.failures)

    saved = WORK / "results" / f"{args.workload}-seed{args.seed}.json"
    if tracer is None:
        print_metric("setup_s", figures["setup_s"], "s", len(detail["setup_runs_s"]["scaled"]),
                     f"at the sizing host's speed; raw median {median(detail['setup_runs_s']['raw']):.4f} s")
        print_metric("peak_rss_mb", figures["peak_rss_mb"], "MiB")
        print_metric("work_s", figures["work_s"], "s", figures["repetitions"])
        print_metric("reference_kernel_s", median(calibration.samples), "s", len(calibration.samples))
        print_metric("work_ratio", figures["work_ratio"], "ratio", figures["repetitions"],
                     "median of each repetition's time / mean kernel time before and after it")
        detail["calibration_s"] = calibration.samples
        metrics = {
            "setup_s": (figures["setup_s"], "s"),
            "work_ratio": (figures["work_ratio"], "ratio"),
            "peak_rss_mb": (figures["peak_rss_mb"], "MiB"),
        }
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_text(json.dumps(figures))
    else:
        split = breakdown(tracer, figures["phases_s"], outcome)
        detail["breakdown"] = split
        traced = figures["work_s"]
        layer_extra.update({"trace.work_s": traced, "trace.unattributed_s": split["unattributed_s"]})
        if saved.exists():
            untraced = json.loads(saved.read_text())["work_s"]
            detail["tracing_overhead_s"] = traced - untraced
            print(f"tracing overhead: {traced - untraced:+.4f} s of work_s "
                  f"(traced {traced:.4f} s - untraced median {untraced:.4f} s, same seed)")
        metrics = layers.layer_metrics(tracer, layer_extra)
    emit(outcome, metrics, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
