"""Shared pieces of the benchmark: host stamp, per-phase RSS, statistics."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: shard spills, temp dirs, span files.
WORK = ROOT / ".perfbench"

#: Program-side worker count for every workload.  On a small shared host a
#: parallel row measures the scheduler, not the program.
JOBS = 1

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Median time of ``reference_kernel`` on the host the benchmark was
#: sized on (2-vCPU Xeon VM).  ``setup_s`` is reported at that speed.
NOMINAL_KERNEL_S = 0.35

#: The benchmark process and every child it starts, the stream server
#: included, run on the first CPU they may use.  Left to the OS, the
#: placement changes from run to run and so does the speed; and the
#: reference kernel that scales the times runs on this CPU, while the
#: two CPUs of a small VM drift apart.
BENCH_CPU = sorted(os.sched_getaffinity(0))[0]


# -- memory ------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Reset the kernel's RSS high-water mark (VmHWM) of this process."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mib() -> float:
    """VmHWM of this process in MiB: the peak since the last reset."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- statistics --------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds of one run of ``setup_probe.py`` in a fresh process."""
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)]
    t0 = time.perf_counter()
    subprocess.run(probe, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def timed_setups(setup: Callable[[], float], calibration: "Calibration") -> Dict[str, List[float]]:
    """``SETUP_REPEATS`` set-ups, each between two reference-kernel samples.

    ``setup`` does one set-up and returns its wall seconds.  Besides the
    raw seconds this returns each one scaled to the host speed the
    benchmark was sized at (``scaled``): raw seconds times
    ``NOMINAL_KERNEL_S`` over the mean kernel time just before and after.
    ``setup_s`` is the median of ``scaled``.
    """
    calibration.sample()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        seconds = setup()
        raw.append(seconds)
        scaled.append(calibration.bracket(seconds) * NOMINAL_KERNEL_S)
    return {"raw": raw, "scaled": scaled}


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` on the path,
    temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


# -- provenance --------------------------------------------------------------

def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> Optional[str]:
    """The commit of the checkout, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def host_stamp(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "jobs": JOBS,
        "loadavg_before": list(os.getloadavg()),
    }


def reference_kernel() -> None:
    """Fixed work that depends on nothing in ``src``, with the program's
    profile: a random gather from a 64 MB array (beyond the last-level
    cache), 300k small Python objects, and a NumPy sort."""
    import numpy as np

    rng = np.random.default_rng(12345)
    values = rng.random(8_000_000)
    float(values[rng.integers(0, values.size, 4_000_000)].sum())
    rows = [(i, float(i), str(i)) for i in range(300_000)]
    del rows
    np.sort(rng.random(2_000_000))


class Calibration:
    """Times of the reference kernel, run between the timed repetitions.

    On a shared host the speed of the whole machine drifts by tens of
    percent over minutes.  Dividing a repetition's time by the mean
    kernel time measured just before and just after it cancels part of
    that drift, so ``work_ratio`` compares program versions more than
    host states.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def bracket(self, seconds: float) -> float:
        """``seconds`` (just timed, after a sample) over the mean kernel time
        of the sample before it and a new one taken now."""
        before = self.samples[-1]
        return seconds / ((before + self.sample()) / 2.0)


class Outcome:
    """Operations attempted and failed, with the name of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def count(self, attempted: int, failed: Sequence[str] = ()) -> None:
        self.attempted += attempted
        self.failures.extend(failed)


def repetitions(seconds: float, minimum: int) -> Iterator[int]:
    """Indices of the timed repetitions: at least ``minimum``, then more
    while one more, as long as the longest so far, still ends within
    ``seconds`` of the first."""
    started = time.perf_counter()
    longest = 0.0
    n = 0
    while True:
        t0 = time.perf_counter()
        if n >= minimum and t0 - started + longest > seconds:
            return
        yield n
        longest = max(longest, time.perf_counter() - t0)
        n += 1


def print_metric(name: str, value, unit: str, samples: Optional[int] = None, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    tail = f"  (n={samples})" if samples is not None else ""
    print(f"  {name:<34} {shown:>14} {unit:<8}{tail}{'  ' + note if note else ''}")


def emit(outcome: Outcome, metrics: Dict[str, tuple], detail: dict) -> None:
    """Print the detail block, then the one-line JSON result (the last line of output)."""
    detail["host"]["loadavg_after"] = list(os.getloadavg())
    if outcome.failures:
        print("FAILED checks: " + ", ".join(outcome.failures), file=sys.stderr)
    print("detail " + json.dumps(detail, sort_keys=True, default=float))
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
