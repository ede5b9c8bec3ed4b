"""The shared Fig. 12 workload the overlay engines replay.

:func:`overlay_workload` is what ``repro-p2p overlay`` floods and what
the repository benchmark (``perfbench/overlay_flood.py``, declared in
``BENCHMARK.json``) times; both backends of
:mod:`repro.gnutella.columnar_overlay` replay the same workload.
"""

from __future__ import annotations

from repro.core import SyntheticWorkloadGenerator
from repro.core.generator_columnar import ColumnarWorkload

__all__ = ["overlay_workload"]


def overlay_workload(
    n_peers: int, duration_seconds: float, seed: int = 11
) -> ColumnarWorkload:
    """The Fig. 12 workload both backends replay (columnar generator)."""
    generator = SyntheticWorkloadGenerator(n_peers=n_peers, seed=seed)
    return generator.generate_columnar(duration_seconds)
