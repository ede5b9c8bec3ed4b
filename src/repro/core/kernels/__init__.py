"""repro.core.kernels: the shared array-engine layer.

Every columnar engine in this repository -- trace synthesis
(:mod:`repro.synthesis.columnar_engine`), the Figure 12 workload
generator (:mod:`repro.core.generator_columnar`), and the vectorized
filter rules (:mod:`repro.filtering.columnar`) -- is built from the
same handful of array idioms: segmented (ragged/CSR) arithmetic,
batched categorical draws against cumulative tables, stacked
inverse-CDF draws, fixed shard planning with ``SeedSequence``-spawned RNG
streams, worker-pool fan-out, and ``.npz`` round trips.  This package
is the single home for those kernels; the engines import from here and
the KER601 lint rule forbids re-implementing the raw idioms in engine
modules.

The kernels dispatch through a pluggable :class:`~.backend.ArrayBackend`
(NumPy reference implementation by default; see :mod:`.backend` for the
contract an accelerated backend must satisfy).  Byte-identical output
across backends, shard counts, and worker counts is part of the
contract -- the equivalence battery in ``tests/test_kernels.py``
enforces it.

See ``docs/KERNELS.md`` for the kernel inventory and backend guide.
"""

from __future__ import annotations

from .backend import (
    ArrayBackend,
    NumpyBackend,
    StubBackend,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    use_backend,
)
from .npz import load_npz_members, save_npz_payload
from .sampling import (
    CategoricalTable,
    CategoricalTableStack,
    DistributionStack,
    searchsorted_left,
    shard_uniforms,
    stable_order,
)
from .segmented import (
    group_slices,
    segment_ids,
    segmented_arange,
    segmented_cumsum,
    segmented_offsets_base,
    segmented_offsets_scatter,
)
from .setops import (
    isin_sorted,
    merge_unique,
    setdiff_sorted,
    sorted_lookup,
)
from .sharding import (
    pool_map,
    pool_map_windowed,
    resolve_workers,
    shard_sizes,
    spawn_shard_streams,
    time_windows,
)

__all__ = [
    # backend
    "ArrayBackend", "NumpyBackend", "StubBackend", "active_backend",
    "available_backends", "get_backend", "register_backend", "use_backend",
    # segmented
    "group_slices", "segment_ids", "segmented_arange", "segmented_cumsum",
    "segmented_offsets_base", "segmented_offsets_scatter",
    # sampling
    "CategoricalTable", "CategoricalTableStack", "DistributionStack",
    "searchsorted_left", "shard_uniforms", "stable_order",
    # setops
    "isin_sorted", "merge_unique", "setdiff_sorted", "sorted_lookup",
    # sharding
    "pool_map", "pool_map_windowed", "resolve_workers", "shard_sizes",
    "spawn_shard_streams", "time_windows",
    # npz
    "load_npz_members", "save_npz_payload",
]
