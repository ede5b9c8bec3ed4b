"""workload-stream: the Fig. 12 generator served over TCP.

The system under test is ``stream_server.py``, a ``WorkloadStreamServer``
in its own process.  This process runs two subscribers on one event loop;
each reads every frame, decodes and validates every DATA frame and hashes
the deterministic bytes.  Every broadcast streams the same
``StreamConfig``, so one in-process ``WorkloadFrameSource.frames()`` digest
checks them all.

* **Saturation**: unthrottled broadcasts, events per second delivered to
  each subscriber from HELLO to END.
* **Open loop**: one broadcast at each fixed absolute rate, with the
  server's default token-bucket burst of one second of the rate.  Frame
  ``k`` is *due* at ``t0 + max(0, E_k - burst) / rate``, where ``E_k``
  counts the events of frames ``0..k`` and ``t0`` is the server's send
  stamp of frame 0: the release time of an ideal token bucket with the
  benchmark's rate and burst, full at ``t0``.  Lateness is
  decode-complete time minus due time, so a production stall delays
  every later frame's measure (no coordinated omission).  Production
  lag is send stamp minus due time.  A rate is sustainable when the p99
  lateness meets the limit and the lateness of the last quarter of
  frames exceeds that of the first quarter by less than the growth
  limit.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    WORK, Calibration, Outcome, child_env, median, percentile, print_metric, repetitions, timed_setups,
)
from layers import patch_client_side
from tracer import Tracer, spanner

HOST = "127.0.0.1"
CLIENTS = 2
BUFFER_FRAMES = 16
#: A broadcast that takes longer has hung; the run fails instead of waiting.
BROADCAST_TIMEOUT_S = 120.0

#: Stream identity (the seed comes from ``--seed``): the population the
#: generator was sized at, with ``repro-p2p serve``'s default window and
#: frame size.  A window holds about 104k events (about 32 frames) and
#: takes about 0.14 s to generate, synchronously, between two frames.
N_PEERS = 20000
WINDOW_SECONDS = 900.0
BATCH_SESSIONS = 2048
#: Frames per open-loop broadcast (five windows).
N_FRAMES = 160
#: Frames per unthrottled broadcast (eight windows).
SATURATION_FRAMES = 256

#: Fixed open-loop rates in events/s (absolute, never derived from a
#: measured saturation), lowest first; the lowest is the reference rate.
#: The token bucket keeps ``repro-p2p serve``'s default burst, one second
#: of the rate.
RATES = (100000.0, 200000.0, 400000.0)
#: Met by the reference rate on the host the benchmark was sized on.
LATENESS_LIMIT_MS = 300.0
#: Lateness may rise by less than this from the first to the last quarter
#: of a run's frames; more means a growing backlog.
GROWTH_LIMIT_MS = 50.0
SATURATION_SHARE = 0.5
SATURATION_MIN_REPS = 3


def stream_config(seed: int, n_frames: int) -> dict:
    return {
        "n_peers": N_PEERS,
        "seed": seed,
        "window_seconds": WINDOW_SECONDS,
        "batch_sessions": BATCH_SESSIONS,
        "n_frames": n_frames,
    }


class ServerProcess:
    """The stream server child process and its line protocol."""

    def __init__(self, trace: bool, run_id: str):
        script = WORK.parent / "perfbench" / "stream_server.py"
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(script), "--trace", str(int(trace)), "--run-id", run_id],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
        ready = self.read()
        self.setup_s = time.perf_counter() - t0
        if not ready.get("ready"):
            raise RuntimeError(f"stream server did not start: {ready}")

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"stream server exited with {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: dict) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def close(self) -> Optional[dict]:
        """Stop the server; returns its final (traced) layer report, if any."""
        last = None
        try:
            self.send({"op": "quit"})
            self.proc.stdin.close()
            for line in self.proc.stdout:
                last = json.loads(line)
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return last


def expected_digest(seed: int, n_frames: int) -> str:
    """Digest of the in-process frame sequence the server must reproduce."""
    from repro.service import StreamConfig, WorkloadFrameSource

    digest = hashlib.blake2b()
    for frame, _ in WorkloadFrameSource(StreamConfig(**stream_config(seed, n_frames))).frames():
        digest.update(frame)
    return digest.hexdigest()


async def subscribe(port: int, tracer: Optional[Tracer]) -> dict:
    """Read one broadcast: timings per DATA frame, the digest, the summary."""
    from repro.service import read_frames
    from repro.service.framing import (
        FRAME_DATA, FRAME_END, FRAME_HELLO, FRAME_STAMP, HEADER_SIZE, decode_json, decode_stamp, frame_header,
    )
    from repro.service.stream import batch_events, decode_batch

    reader, writer = await asyncio.open_connection(HOST, port)
    digest = hashlib.blake2b()
    kinds: List[int] = []
    frames = []  # (send stamp ns or None, decoded ns, events)
    bad_frames = 0
    received = 0
    stamp = None
    hello_ns = end_ns = None
    summary = None
    try:
        async for kind, payload in read_frames(reader):
            received += HEADER_SIZE + len(payload)
            if kind == FRAME_STAMP:
                stamp = decode_stamp(payload)[1]
                continue
            digest.update(frame_header(kind, len(payload)))
            digest.update(payload)
            kinds.append(kind)
            if kind == FRAME_DATA:
                try:
                    with spanner(tracer)("client.decode"):
                        batch = decode_batch(payload)
                except ValueError:
                    bad_frames += 1
                    continue
                frames.append((stamp, time.monotonic_ns(), batch_events(batch)))
                stamp = None
            elif kind == FRAME_HELLO:
                hello_ns = time.monotonic_ns()
            elif kind == FRAME_END:
                end_ns = time.monotonic_ns()
                summary = decode_json(payload)
    finally:
        writer.close()
        await writer.wait_closed()
    return {
        "kinds": kinds,
        "frames": frames,
        "bad_frames": bad_frames,
        "bytes": received,
        "digest": digest.hexdigest(),
        "seconds": (end_ns - hello_ns) / 1e9 if hello_ns and end_ns else None,
        "summary": summary,
    }


async def _cohort(port: int, tracer: Optional[Tracer]) -> list:
    subscribers = asyncio.gather(*(subscribe(port, tracer) for _ in range(CLIENTS)))
    return await asyncio.wait_for(subscribers, timeout=BROADCAST_TIMEOUT_S)


def broadcast(server: ServerProcess, seed: int, n_frames: int, rate: Optional[float], tracer: Optional[Tracer]):
    server.send({
        "op": "broadcast",
        "stream": stream_config(seed, n_frames),
        "clients": CLIENTS,
        "buffer_frames": BUFFER_FRAMES,
        "rate": rate,
        "stamps": rate is not None,
    })
    port = server.read()["port"]
    subscribers = asyncio.run(_cohort(port, tracer))
    for sub in subscribers:
        sub["n_frames"] = n_frames
    return subscribers, server.read()


def check_subscriber(sub: dict, expected: Dict[int, str], outcome: Outcome) -> None:
    """HELLO...END framing, decodable DATA, END totals and the byte digest."""
    from repro.service.framing import FRAME_DATA, FRAME_END, FRAME_HELLO

    kinds = sub["kinds"]
    data = len(kinds) - 2
    outcome.count(data, ["DATA frame failed to decode"] * sub["bad_frames"])
    outcome.check(
        "subscriber received HELLO...END",
        len(kinds) >= 2 and kinds[0] == FRAME_HELLO and kinds[-1] == FRAME_END
        and all(k == FRAME_DATA for k in kinds[1:-1]),
    )
    summary = sub["summary"] or {}
    events = sum(f[2] for f in sub["frames"])
    outcome.check(
        "END totals match decoded counts",
        summary.get("frames") == len(sub["frames"]) == sub["n_frames"] and summary.get("events") == events,
    )
    outcome.check(
        "subscriber digest equals in-process frames() digest", sub["digest"] == expected[sub["n_frames"]]
    )


def lateness(sub: dict, rate: float) -> dict:
    """Per-frame lateness and production lag against the rate schedule (ms)."""
    frames = sub["frames"]
    burst = rate  # the server's default: one second of the rate
    t0 = frames[0][0]
    due_ns, events_so_far = [], 0
    for _, _, events in frames:
        events_so_far += events
        due_ns.append(t0 + max(0.0, events_so_far - burst) / rate * 1e9)
    late = [(decoded - due) / 1e6 for (_, decoded, _), due in zip(frames, due_ns)]
    lag = [(sent - due) / 1e6 for (sent, _, _), due in zip(frames, due_ns)]
    quarter = max(1, len(late) // 4)
    return {
        "lateness_ms": late,
        "production_lag_ms": lag,
        "growth_ms": median(late[-quarter:]) - median(late[:quarter]),
    }


def run(seed: int, seconds: float, tracer: Optional[Tracer], outcome: Outcome, calibration: Calibration):
    run_id = tracer.run_id if tracer else "untraced"
    setups = None
    if tracer is None:
        def start_server() -> float:
            probe = ServerProcess(False, run_id)
            probe.close()
            return probe.setup_s

        setups = timed_setups(start_server, calibration)
    else:
        patch_client_side(tracer)
    span = spanner(tracer)
    server = ServerProcess(tracer is not None, run_id)
    subs_all, stats_all, peaks, walls = [], [], [], []

    def measured(n_frames: int, rate: Optional[float], phase: str):
        t0 = time.perf_counter()
        with span(phase):
            subs, reply = broadcast(server, seed, n_frames, rate, tracer)
        walls.append(time.perf_counter() - t0)
        subs_all.extend(subs)
        stats_all.append(reply["stats"])
        peaks.append(reply["peak_rss_mb"])
        return subs, reply

    try:
        expected = {n: expected_digest(seed, n) for n in (N_FRAMES, SATURATION_FRAMES)}
        server.send({"op": "reset_hwm"})
        server.read()

        # Open loop first: the reference-rate broadcast also warms the
        # server before the saturation runs are timed.
        open_loop = {}
        for rate in RATES:
            subs, reply = measured(N_FRAMES, rate, "phase.open_loop")
            open_loop[rate] = open_loop_row([lateness(s, rate) for s in subs], reply["stats"])

        # One untimed broadcast first: the first unthrottled broadcast of a
        # run is consistently slower than the rest.  It is still checked.
        measured(SATURATION_FRAMES, None, "phase.saturation_warmup")
        saturation, times, ratios = [], [], []
        calibration.sample()
        # The traced run makes one saturation broadcast, so its per-layer
        # sums cover a fixed set of broadcasts.
        for _ in range(1) if tracer else repetitions(SATURATION_SHARE * seconds, SATURATION_MIN_REPS):
            subs, _ = measured(SATURATION_FRAMES, None, "phase.saturation")
            times.append(max(s["seconds"] for s in subs))
            ratios.append(calibration.bracket(times[-1]))
            saturation += [sum(f[2] for f in s["frames"]) / s["seconds"] for s in subs]
    finally:
        server_report = server.close()

    for sub in subs_all:
        check_subscriber(sub, expected, outcome)

    reference = open_loop[RATES[0]]
    sustainable = max([r for r in RATES if open_loop[r]["sustainable"]], default=0.0)
    figures = {
        "work_s": median(times),
        "work_ratio": median(ratios),
        "repetitions": len(times),
        # Peak over the fixed broadcasts (open loop and warm-up), not over
        # as many saturation broadcasts as fit in the time.
        "peak_rss_mb": peaks[len(RATES)],
        "phases_s": sum(walls),
    }
    stream = {
        "saturation_events_per_s": median(saturation),
        "sustainable_events_per_s": sustainable,
        "lateness_p50_ms": reference["lateness_p50_ms"],
        "lateness_p99_ms": reference["lateness_p99_ms"],
    }
    print(f"workload-stream: {N_PEERS} peers, {WINDOW_SECONDS:g} s windows, {BATCH_SESSIONS} sessions/frame, "
          f"{CLIENTS} subscribers; open loop: {N_FRAMES} frames at {list(RATES)} events/s, burst one second of "
          f"the rate, lateness limit {LATENESS_LIMIT_MS:g} ms; saturation: {len(times)} x {SATURATION_FRAMES} frames")
    print_metric("saturation_events_per_s", stream["saturation_events_per_s"], "1/s", len(saturation),
                 "per subscriber, unthrottled")
    print_metric("sustainable_events_per_s", sustainable, "1/s", len(RATES), "highest fixed rate meeting the limit")
    for name in ("lateness_p50_ms", "lateness_p99_ms"):
        print_metric(name, stream[name], "ms", reference["samples"], f"at {RATES[0]:g} events/s")
    print_metric("server_rss_mb", figures["peak_rss_mb"], "MiB", len(RATES) + 1,
                 "server process, open-loop and warm-up broadcasts")
    for rate, row in open_loop.items():
        print(f"  rate {rate:>8g}/s: lateness p50 {row['lateness_p50_ms']:.2f} p99 {row['lateness_p99_ms']:.2f} "
              f"max {row['lateness_max_ms']:.2f} ms; production lag p50 {row['production_lag_p50_ms']:.2f} "
              f"max {row['production_lag_max_ms']:.2f} ms; growth {row['growth_ms']:+.2f} ms; "
              f"{'sustainable' if row['sustainable'] else 'NOT sustainable'} (n={row['samples']})")

    detail = {
        "workload_stream": {**stream, **figures},
        "open_loop": {str(rate): row for rate, row in open_loop.items()},
        "saturation_runs_s": times,
    }
    if setups:
        figures["setup_s"] = median(setups["scaled"])
        detail["setup_runs_s"] = setups
    extra = {}
    if tracer is not None:
        extra = dict(server_report["layers"])
        extra.update({
            "server.backpressure_waits": sum(s["backpressure_waits"] for s in stats_all),
            "server.rate_wait_s": sum(s["rate_wait_seconds"] for s in stats_all),
            "server.buffered_frames_peak": max(s["buffered_frames_peak"] for s in stats_all),
            "server.frames_produced": sum(s["frames_produced"] for s in stats_all),
            "client.frames": sum(len(s["frames"]) for s in subs_all),
            "client.bytes": sum(s["bytes"] for s in subs_all),
            "client.late_frames": sum(row["late_frames"] for row in open_loop.values()),
        })
        detail["server_self_times"] = server_report["self_times"]
    return figures, detail, extra


def open_loop_row(per_sub: List[dict], stats: dict) -> dict:
    """Lateness percentiles over both subscribers and the sustainability verdict."""
    late = [x for p in per_sub for x in p["lateness_ms"]]
    lag = [x for p in per_sub for x in p["production_lag_ms"]]
    growth = max(p["growth_ms"] for p in per_sub)
    p99 = percentile(late, 99)
    return {
        "samples": len(late),
        "lateness_p50_ms": percentile(late, 50),
        "lateness_p99_ms": p99,
        "lateness_max_ms": max(late),
        "late_frames": sum(x > LATENESS_LIMIT_MS for x in late),
        "production_lag_p50_ms": percentile(lag, 50),
        "production_lag_max_ms": max(lag),
        "growth_ms": growth,
        "sustainable": p99 <= LATENESS_LIMIT_MS and growth < GROWTH_LIMIT_MS,
        "rate_wait_s": stats["rate_wait_seconds"],
    }
