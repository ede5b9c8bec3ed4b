"""Host runtime introspection shared by the schedulers and the CLI.

Every component that sizes a worker pool (sharded synthesis, the
experiment fan-out) must agree on how many CPUs are *actually* usable:
``os.cpu_count()`` reports the machine, while cgroup limits and CPU
affinity masks (containers, CI runners, ``taskset``) can leave the
process with far fewer.
"""

from __future__ import annotations

import os
import sys

__all__ = ["available_cpus", "peak_rss_mb"]


def available_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MiB.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS; normalizing
    here keeps the ``--max-rss-mb`` budget the same on every host.
    Returns 0.0 where the ``resource`` module is unavailable (non-POSIX),
    so the budget check never fails there.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
