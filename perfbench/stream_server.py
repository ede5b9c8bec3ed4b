"""The system under test of ``workload-stream``: a stream server process.

    python3 perfbench/stream_server.py --trace 0 --run-id ID

It imports the service, builds the workload model, prints one ``ready``
line and then serves one broadcast per ``broadcast`` command read from
standard input (one JSON object a line).  For each broadcast it prints
the bound port, streams to the requested number of subscribers, and
prints the ``ServerStats`` with the process's peak RSS since the last
``reset_hwm``.  ``quit`` (or end of input) ends it; a traced server then
prints its layer totals and writes its spans.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from common import WORK, peak_rss_mib, reset_peak_rss
from tracer import Tracer, spanner


def reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def broadcast(command: dict, model) -> dict:
    from repro.service import ServerConfig, StreamConfig, WorkloadFrameSource, WorkloadStreamServer

    stream = StreamConfig(**command["stream"])
    config = ServerConfig(
        start_clients=command["clients"],
        buffer_frames=command["buffer_frames"],
        rate_events_per_s=command["rate"],
        stamps=command["stamps"],
    )
    server = WorkloadStreamServer(stream, config, source=WorkloadFrameSource(stream, model=model))
    await server.start()
    reply({"port": server.port})
    stats = await server.serve()
    return stats.snapshot()


def server_layers(tracer) -> dict:
    from layers import generator_metrics

    spans = [s for s in tracer.spans if s.name == "framing.encode"]
    events = sum(s.counts["events"] for s in spans)
    return {
        **generator_metrics(tracer),
        "framing.encode_s": tracer.self_times().get("framing.encode", 0.0),
        "framing.bytes_per_event": sum(s.counts["bytes"] for s in spans) / events if events else 0.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    from repro.core.model import WorkloadModel

    tracer = None
    if args.trace:
        from layers import patch_server_side

        tracer = Tracer(args.run_id)
        patch_server_side(tracer)
    model = WorkloadModel.paper()
    reply({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "quit":
            break
        if command["op"] == "reset_hwm":
            reset_peak_rss()
            reply({"ok": True})
        elif command["op"] == "broadcast":
            with spanner(tracer)("server.broadcast"):
                stats = asyncio.run(broadcast(command, model))
            reply({"stats": stats, "peak_rss_mb": peak_rss_mib()})
        else:
            raise ValueError(f"unknown command {command['op']!r}")
    if tracer is not None:
        tracer.unpatch()
        tracer.write(WORK / "traces" / f"{args.run_id}-server.jsonl")
        reply({"layers": server_layers(tracer), "self_times": tracer.self_times()})


if __name__ == "__main__":
    main()
