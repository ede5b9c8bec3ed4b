"""The per-layer metrics of the traced run, and where their spans come from.

Every workload reports every metric below; a layer a workload does not
exercise reads 0 there, which is the prediction for that pairing.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from common import ROOT
from tracer import Tracer

EXPERIMENT_IDS = (
    "T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
    "F10", "F11", "TA1", "TA2", "TA3", "TA4", "TA5", "FA1", "G1", "X1", "X2",
    "X3", "X4", "C1",
)

#: Streaming reducer classes of ``repro.analysis.streaming`` by metric name.
REDUCERS = {
    "geographic": "StreamingGeographic",
    "shared_files": "StreamingSharedFiles",
    "load": "StreamingQueryLoad",
    "passive_fraction": "StreamingPassiveFraction",
    "passive": "StreamingPassiveDurations",
    "active": "StreamingActive",
    "popularity": "StreamingPopularity",
}

#: (metric name, unit), in ``BENCHMARK.json`` order.  ``*_s`` metrics are
#: span self times, except ``experiments.<ID>_s``: the experiment's whole
#: wall time, fallbacks included.  The traced run does a fixed amount of
#: work (one paper-trace pass, one flood, a fixed set of broadcasts), so
#: its counts depend only on the seed and its times only on the program.
PER_LAYER: List[Tuple[str, str]] = [
    (metric["name"], metric["unit"])
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
]


def patch_trace_layers(tracer: Tracer) -> None:
    """Spans around the synthesis, measurement, filtering and analysis calls."""
    import repro.analysis.streaming as astream
    import repro.filtering as filtering
    import repro.synthesis.columnar_engine as engine
    from repro.filtering.streaming import StreamingFilter
    from repro.measurement.columnar import ColumnarTrace, ColumnarTraceBuilder
    from repro.measurement.shards import ShardedTrace

    tracer.patch_function(
        engine, "synthesize_shard_columnar", "synthesis.engine",
        counts=lambda args, part: {"connections": part.n_sessions},
    )
    # The builder sorts a shard before it is written; inside concat() the
    # same call is the merge and stays part of concat's own time.
    tracer.patch_method(
        ColumnarTraceBuilder, "build", "measurement.sort", skip_inside="measurement.concat"
    )
    tracer.patch_method(
        ColumnarTrace, "save_npz", "measurement.npz_write",
        counts=lambda args, _: {"bytes": os.stat(args[1]).st_size},
    )
    tracer.patch_method(ShardedTrace, "load_shard", "measurement.shard_load")
    tracer.patch_method(ShardedTrace, "concat", "measurement.concat")
    tracer.patch_method(ColumnarTrace, "to_trace", "measurement.to_trace")
    tracer.patch_function(filtering, "apply_filters", "filtering.records")

    def filter_counts(args, result):
        if result is None:
            return {}
        return {
            "queries_in": int(result.trace.n_queries),
            "queries_kept": int(result.query_mask.sum()),
        }

    tracer.patch_method(StreamingFilter, "push", "filtering.streaming", counts=filter_counts)
    tracer.patch_method(StreamingFilter, "finish", "filtering.streaming", counts=filter_counts)
    for name, cls_name in REDUCERS.items():
        cls = getattr(astream, cls_name)
        for method in ("update", "finalize"):
            tracer.patch_method(cls, method, f"analysis.reducer.{name}")


def patch_generator(tracer: Tracer) -> None:
    """Spans around each call of the columnar Fig. 12 generator."""
    import repro.core.generator_columnar as gen

    tracer.patch_function(
        gen, "generate_columnar_workload", "generator.window",
        counts=lambda args, wl: {"events": wl.n_sessions + wl.n_queries},
    )


def patch_server_side(tracer: Tracer) -> None:
    """Generator and encoder spans inside the stream server process."""
    import repro.service.stream as stream

    patch_generator(tracer)
    tracer.patch_function(
        stream, "encode_batch", "framing.encode",
        counts=lambda args, frame: {"bytes": len(frame), "events": stream.batch_events(args[0])},
    )


def patch_client_side(tracer: Tracer) -> None:
    import repro.service.framing as framing

    tracer.patch_function(framing, "decode_columns", "framing.decode")


def patch_overlay(tracer: Tracer) -> None:
    import repro.gnutella.columnar_overlay as overlay

    patch_generator(tracer)
    tracer.patch_function(overlay, "simulate_workload", "overlay.simulate")


def generator_metrics(tracer: Tracer) -> Dict[str, float]:
    """Window statistics of the generator spans (0 when it never ran)."""
    from common import median

    windows = tracer.durations_s("generator.window")
    events = [s.counts.get("events", 0) for s in tracer.spans if s.name == "generator.window"]
    if not windows:
        return {}
    return {
        "generator.window_s_median": median(windows),
        "generator.window_s_max": max(windows),
        "generator.events_per_window": median(events),
    }


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric: span self times, counts, then ``extra``."""
    self_s = tracer.self_times()
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, unit in PER_LAYER:
        if unit == "s" and name.endswith("_s") and name[:-2] in self_s:
            values[name] = self_s[name[:-2]]
    values["synthesis.connections"] = tracer.count("connections", "synthesis.engine")
    values["measurement.npz_write_mb"] = tracer.count("bytes", "measurement.npz_write") / 1e6
    kept = tracer.count("queries_kept", "filtering.streaming")
    seen = tracer.count("queries_in", "filtering.streaming")
    values["filtering.queries_in"] = seen
    values["filtering.queries_kept"] = kept
    values["filtering.kept_ratio"] = kept / seen if seen else 0.0
    for eid in EXPERIMENT_IDS:
        values[f"experiments.{eid}_s"] = tracer.total_s(f"experiments.{eid}")
    values.update(generator_metrics(tracer))
    values["trace.spans"] = len(tracer.spans)
    values.update(extra)
    units = dict(PER_LAYER)
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics outside the per-layer catalogue: {sorted(unknown)}")
    return {name: (float(values[name]), units[name]) for name, _ in PER_LAYER}
