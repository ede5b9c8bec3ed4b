"""Kernel-layer battery: reference semantics, backend equivalence, goldens.

Three layers of defense for the ``repro.core.kernels`` contract:

* hypothesis property tests pin each kernel to its naive per-segment
  reference (including 0-row and single-row segments);
* the backend equivalence battery proves every registered backend
  byte-identical to the NumPy reference on the same inputs -- the
  invariant a numba/GPU drop-in must keep;
* a golden test pins the categorical cutpoint table to the exact
  ``searchsorted(cdf, u, side='left')`` draws it replaces, so a table
  rebuild can never silently shift a sampled index.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    Empirical,
    Exponential,
    Lognormal,
    Pareto,
    Spliced,
    Truncated,
    Weibull,
)
from repro.core.kernels import (
    CategoricalTable,
    CategoricalTableStack,
    DistributionStack,
    available_backends,
    get_backend,
    group_slices,
    isin_sorted,
    load_npz_members,
    merge_unique,
    pool_map,
    resolve_workers,
    save_npz_payload,
    searchsorted_left,
    segment_ids,
    segmented_arange,
    segmented_cumsum,
    setdiff_sorted,
    shard_sizes,
    shard_uniforms,
    sorted_lookup,
    spawn_shard_streams,
    use_backend,
)

counts_arrays = st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=12).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


def naive_segmented_arange(counts):
    return np.concatenate([np.arange(c, dtype=np.int64) for c in counts] or [np.zeros(0, np.int64)])


# -- reference semantics (property tests) --------------------------------


@given(counts=counts_arrays)
@settings(max_examples=50)
def test_segmented_arange_matches_naive(counts):
    got = segmented_arange(counts)
    expected = naive_segmented_arange(counts)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@given(counts=counts_arrays, data=st.data())
@settings(max_examples=50)
def test_segmented_cumsum_matches_per_segment(counts, data):
    # Integer-valued floats make every partial sum exact, so the
    # kernel's running-sum-difference evaluation and the naive
    # per-segment cumsum must agree to the bit.  (For arbitrary floats
    # the kernel's documented contract is its own fixed summation
    # order, which the engine goldens pin instead.)
    total = int(counts.sum())
    values = np.asarray(
        data.draw(st.lists(st.integers(-1000, 1000), min_size=total, max_size=total)),
        dtype=np.float64,
    )
    got = segmented_cumsum(values, counts)
    pieces, pos = [], 0
    for c in counts:
        pieces.append(np.cumsum(values[pos:pos + c]))
        pos += int(c)
    expected = np.concatenate(pieces or [np.zeros(0)])
    assert np.array_equal(got, expected)


@given(counts=counts_arrays)
@settings(max_examples=50)
def test_segment_ids_matches_repeat(counts):
    got = segment_ids(counts)
    expected = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    assert np.array_equal(got, expected)


@given(codes=st.lists(st.integers(-5, 5), min_size=0, max_size=40).map(np.asarray))
@settings(max_examples=50)
def test_group_slices_partitions_stably(codes):
    order, keys, bounds = group_slices(codes)
    assert np.array_equal(keys, np.unique(codes))
    assert bounds[0] == 0 and bounds[-1] == codes.size
    seen = []
    for g in range(keys.size):
        idx = order[bounds[g]:bounds[g + 1]]
        # Every slice holds exactly its key's rows, in original order.
        assert np.array_equal(np.sort(idx), idx)
        assert (np.asarray(codes)[idx] == keys[g]).all()
        seen.append(idx)
    if seen:
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(codes.size))


@given(
    counts=st.lists(st.integers(min_value=1, max_value=7), min_size=0, max_size=12).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    data=st.data(),
)
@settings(max_examples=30)
def test_segmented_offsets_forms_match_their_loops(counts, data):
    # One `first` entry per (non-empty) segment -- the engines filter
    # to sessions that emit at least one query before calling these.
    n = counts.size
    total = int(counts.sum())
    n_gaps = int(np.maximum(counts - 1, 0).sum())
    first = np.asarray(
        data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n)), dtype=np.float64
    )
    gaps = np.asarray(
        data.draw(st.lists(st.integers(0, 10), min_size=n_gaps, max_size=n_gaps)),
        dtype=np.float64,
    )
    backend = get_backend("numpy")
    scatter = backend.segmented_offsets_scatter(first, gaps, counts)
    base = backend.segmented_offsets_base(first, gaps, counts)
    pos = 0
    gpos = 0
    exp_scatter, exp_base = np.empty(total), np.empty(total)
    for i, c in enumerate(counts):
        seg_gaps = gaps[gpos:gpos + max(int(c) - 1, 0)]
        gpos += max(int(c) - 1, 0)
        if c:
            exp_scatter[pos:pos + c] = np.cumsum(np.concatenate([[first[i]], seg_gaps]))
            exp_base[pos:pos + c] = first[i] + np.cumsum(np.concatenate([[0.0], seg_gaps]))
        pos += int(c)
    assert np.array_equal(scatter, exp_scatter)
    assert np.array_equal(base, exp_base)


cdf_arrays = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30
).map(lambda ws: np.cumsum(np.asarray(ws) / np.sum(ws)))


@given(cdf=cdf_arrays, data=st.data())
@settings(max_examples=50)
def test_categorical_table_matches_searchsorted(cdf, data):
    cdf[-1] = 1.0
    n = data.draw(st.integers(0, 64))
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n)
    table = CategoricalTable(cdf)
    assert np.array_equal(table.lookup(u), searchsorted_left(cdf, u))


@given(data=st.data())
@settings(max_examples=30)
def test_categorical_stack_matches_broadcast_compare(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_rows = data.draw(st.integers(1, 5))
    n_cats = data.draw(st.integers(1, 8))
    weights = rng.random((n_rows, n_cats)) + 1e-6
    cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = 1.0
    stack = CategoricalTableStack(cum)
    n = data.draw(st.integers(0, 64))
    rows = rng.integers(0, n_rows, size=n)
    u = rng.random(n)
    got = stack.lookup(rows, u)
    expected = (u[:, None] > cum[rows]).sum(axis=1)
    assert np.array_equal(got, expected)


# -- sorted-set membership kernels ---------------------------------------


sorted_unique_arrays = st.lists(
    st.integers(-50, 50), min_size=0, max_size=30
).map(lambda xs: np.unique(np.asarray(xs, dtype=np.int64)))

value_arrays = st.lists(st.integers(-60, 60), min_size=0, max_size=40).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


@given(haystack=sorted_unique_arrays, values=value_arrays)
@settings(max_examples=50)
def test_sorted_lookup_matches_python_sets(haystack, values):
    mask, idx = sorted_lookup(haystack, values)
    pool = set(haystack.tolist())
    assert np.array_equal(mask, np.asarray([v in pool for v in values.tolist()], bool))
    assert np.array_equal(isin_sorted(haystack, values), mask)
    # Positions are exact wherever the mask says "present".
    if mask.any():
        assert np.array_equal(haystack[idx[mask]], values[mask])


@given(a=sorted_unique_arrays, b=sorted_unique_arrays)
@settings(max_examples=50)
def test_merge_and_diff_match_python_sets(a, b):
    union = merge_unique(a, b)
    assert np.array_equal(union, np.asarray(sorted(set(a) | set(b)), dtype=np.int64))
    diff = setdiff_sorted(a, b)
    assert np.array_equal(diff, np.asarray(sorted(set(a) - set(b)), dtype=np.int64))
    # Outputs keep the sorted-unique invariant the inputs carried.
    assert (np.diff(union) > 0).all()
    assert (np.diff(diff) > 0).all()


# -- golden: the table is pinned to exact searchsorted draws -------------


def test_categorical_table_golden_draws():
    cdf = np.array([0.125, 0.25, 0.5, 0.8125, 0.9375, 1.0])
    u = np.array([0.0, 0.1249, 0.125, 0.2501, 0.5, 0.64, 0.8125, 0.99, 0.9375])
    table = CategoricalTable(cdf)
    assert not table.uses_fallback
    expected = np.searchsorted(cdf, u, side="left")
    assert np.array_equal(table.lookup(u), expected)
    assert np.array_equal(table.lookup(u), [0, 0, 0, 2, 2, 3, 3, 5, 4])


def test_categorical_table_dense_cdf_falls_back():
    # Adjacent CDF values closer than the bucket cap cannot be
    # separated; the table must detect this and delegate.
    base = np.linspace(0.0, 1e-7, 64)
    cdf = np.concatenate([base, [1.0]])
    table = CategoricalTable(cdf)
    assert table.uses_fallback
    u = np.random.default_rng(7).random(100)
    assert np.array_equal(table.lookup(u), np.searchsorted(cdf, u, side="left"))


# -- backend equivalence battery -----------------------------------------


def _kernel_payload():
    rng = np.random.default_rng(20040315)
    counts = rng.integers(1, 6, size=50).astype(np.int64)
    total = int(counts.sum())
    values = rng.random(total)
    first = rng.random(counts.size) * 100
    gaps = rng.random(int(np.maximum(counts - 1, 0).sum()))
    codes = rng.integers(-3, 4, size=80)
    cdf = np.cumsum(rng.random(9))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    u = rng.random(70)
    haystack = np.unique(rng.integers(0, 500, size=60))
    probes = rng.integers(0, 600, size=90)
    return counts, values, first, gaps, codes, cdf, u, haystack, probes


def test_every_backend_is_byte_identical_to_numpy():
    counts, values, first, gaps, codes, cdf, u, haystack, probes = _kernel_payload()
    reference = get_backend("numpy")
    table = CategoricalTable(cdf)
    expected = {
        "arange": reference.segmented_arange(counts),
        "cumsum": reference.segmented_cumsum(values, counts),
        "ids": reference.segment_ids(counts),
        "scatter": reference.segmented_offsets_scatter(first, gaps, counts),
        "base": reference.segmented_offsets_base(first, gaps, counts),
        "lookup": table.lookup(u),
        "member": reference.sorted_lookup(haystack, probes)[0],
        "member_idx": reference.sorted_lookup(haystack, probes)[1],
        "union": reference.merge_unique(haystack, np.unique(probes)),
        "diff": reference.setdiff_sorted(haystack, np.unique(probes)),
    }
    assert "stub" in available_backends()
    for name in available_backends():
        backend = get_backend(name)
        with use_backend(name):
            got = {
                "arange": backend.segmented_arange(counts),
                "cumsum": backend.segmented_cumsum(values, counts),
                "ids": backend.segment_ids(counts),
                "scatter": backend.segmented_offsets_scatter(first, gaps, counts),
                "base": backend.segmented_offsets_base(first, gaps, counts),
                "lookup": table.lookup(u),
                "member": backend.sorted_lookup(haystack, probes)[0],
                "member_idx": backend.sorted_lookup(haystack, probes)[1],
                "union": backend.merge_unique(haystack, np.unique(probes)),
                "diff": backend.setdiff_sorted(haystack, np.unique(probes)),
            }
        for key, arr in expected.items():
            assert got[key].dtype == arr.dtype, (name, key)
            assert got[key].tobytes() == arr.tobytes(), (name, key)


def test_use_backend_scopes_and_keeps_results_identical():
    counts = np.array([0, 1, 3, 0, 2], dtype=np.int64)
    reference = segmented_arange(counts)
    with use_backend("stub") as active:
        assert active.name == "stub"
        assert np.array_equal(segmented_arange(counts), reference)
    # The context restored whatever was active before.
    assert np.array_equal(segmented_arange(counts), reference)


def per_group_draws(dists, rng, codes):
    """The loop :class:`DistributionStack` replaces: one ``ppf`` per group,
    groups in ascending code order, each on its own uniform batch."""
    codes = np.asarray(codes)
    out = np.empty(codes.size, dtype=np.float64)
    for row in np.unique(codes):
        idx = np.flatnonzero(codes == row)
        out[idx] = dists[int(row)].ppf(rng.random(idx.size))
    return out


def assert_stack_matches_loop(dists, codes, seed):
    stack = DistributionStack(dists)
    rng_loop, rng_stack, rng_pickled = (np.random.default_rng(seed) for _ in range(3))
    with np.errstate(all="ignore"):
        expected = per_group_draws(dists, rng_loop, codes)
        one_shard = np.zeros(len(codes), dtype=np.int64)
        got = stack.invert(rng_stack.random(len(codes)), codes, one_shard)
        pickled = pickle.loads(pickle.dumps(stack)).invert(
            rng_pickled.random(len(codes)), codes, one_shard
        )
    assert got.dtype == np.float64 and got.shape == (len(codes),)
    assert got.tobytes() == expected.tobytes()
    assert pickled.tobytes() == expected.tobytes()
    # Both consumed exactly the same uniforms.
    assert rng_stack.random() == rng_loop.random() == rng_pickled.random()


# Weibull alpha 0.5/1/2 and Pareto alpha 1/2 make exponents (1/alpha,
# -1/alpha) that NumPy evaluates with sqrt/square/reciprocal when the
# exponent is a scalar, but not when it is an array.
_weibull_alpha = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.3, 3.0)
_pareto_alpha = st.sampled_from([1.0, 2.0]) | st.floats(0.5, 3.0)
_leaves = {
    "Lognormal": lambda d: Lognormal(d.draw(st.floats(-2.0, 8.0)), d.draw(st.floats(0.2, 3.0))),
    "Weibull": lambda d: Weibull(d.draw(_weibull_alpha), d.draw(st.floats(1e-3, 0.5))),
    "Pareto": lambda d: Pareto(d.draw(_pareto_alpha), d.draw(st.floats(1.0, 200.0))),
}


def _draw_row(data, kind, body, tail):
    if kind == "leaf":
        return _leaves[body](data)
    if kind == "Truncated":
        low = data.draw(st.sampled_from([0.0, 1.0, 30.0]))
        high = data.draw(st.sampled_from([math.inf, 5000.0]))
        return Truncated(_leaves[body](data), low, high)
    if kind == "Spliced":
        boundary = data.draw(st.floats(45.0, 150.0))
        weight = data.draw(st.floats(0.05, 0.95))
        body_low = data.draw(st.sampled_from([0.0, 10.0]))
        return Spliced(_leaves[body](data), _leaves[tail](data), boundary, weight, body_low)
    if kind == "Empirical":
        return Empirical(data.draw(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8)))
    return Exponential(data.draw(st.floats(1e-3, 2.0)))


_kinds = st.sampled_from(["leaf", "Truncated", "Spliced"])
_names = st.sampled_from(sorted(_leaves))


@given(data=st.data(), n_rows=st.integers(1, 6), mixed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_distribution_stack_matches_per_group_loop(data, n_rows, mixed, seed):
    if mixed:  # any structure per row, incl. the per-row ppf fallback
        shapes = [
            (data.draw(_kinds | st.sampled_from(["Empirical", "Exponential"])),
             data.draw(_names), data.draw(_names))
            for _ in range(n_rows)
        ]
    else:  # one structure, per-row parameters: a grid table
        shapes = [(data.draw(_kinds), data.draw(_names), data.draw(_names))] * n_rows
    try:
        dists = [_draw_row(data, *shape) for shape in shapes]
    except ValueError:  # a truncation window without probability mass
        assume(False)
    # Codes may be empty, and leave some rows empty and others with a
    # single element.
    codes = data.draw(st.lists(st.integers(0, n_rows - 1), min_size=0, max_size=200))
    assert_stack_matches_loop(dists, np.asarray(codes, dtype=np.int64), seed)


@pytest.mark.parametrize("dists", [
    [Weibull(0.5, 0.01), Weibull(1.0, 0.01), Weibull(2.0, 0.01), Weibull(1.3, 0.01)],
    [Pareto(1.0, 103.0), Pareto(2.0, 103.0), Pareto(1.2, 103.0)],
    [Spliced(Lognormal(3.0, 1.4), Pareto(a, 103.0), 103.0, 0.8) for a in (1.0, 1.143, 2.0)],
])
def test_distribution_stack_keeps_scalar_power_fast_paths(dists):
    # Thousands of draws per row: an array exponent takes NumPy's general
    # pow loop, which differs from sqrt/square/reciprocal on ~10% of inputs.
    codes = np.random.default_rng(1).integers(0, len(dists), 20000)
    assert_stack_matches_loop(dists, codes, 5)


class FixedUniforms:
    """Stands in for a Generator: hands out the given uniforms in order."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=np.float64)
        self._next = 0

    def random(self, n):
        out = self._u[self._next:self._next + n]
        self._next += n
        return out


_SPLICED_ROWS = [
    # At u == body weight the body gives 44.99..., the tail 45.0.
    Spliced(Lognormal(2.0, 0.9), Pareto(1.0, 45.0), 45.0, 0.5),
    Spliced(Lognormal(3.0, 1.4), Pareto(1.0, 103.0), 103.0, 0.8),
    Spliced(Lognormal(2.0, 0.9), Pareto(1.5, 60.0), 60.0, 0.35, 10.0),
    Spliced(Lognormal(4.0, 2.0), Pareto(2.0, 90.0), 90.0, 0.6),
]


@pytest.mark.parametrize("n_rows", [1, 4])  # one body weight, or a per-row table
@pytest.mark.parametrize("case", ["edges", "all_body", "all_tail"])
def test_distribution_stack_spliced_takes_each_branch_once(n_rows, case):
    # Each element goes through its own branch only; the edges are a
    # uniform of 0 and one exactly at the body weight (still the body).
    dists = _SPLICED_ROWS[:n_rows]
    codes = np.repeat(np.arange(n_rows), 6)  # sorted: uniform j -> element j
    w = np.array([d.body_weight for d in dists])[codes]
    if case == "edges":
        u = np.stack([
            np.zeros(n_rows), w[::6], np.nextafter(w[::6], 0.0),
            np.nextafter(w[::6], 1.0), w[::6] / 2, (1.0 + w[::6]) / 2,
        ], axis=1).ravel()
    elif case == "all_body":
        u = w * np.tile(np.linspace(0.0, 1.0, 6), n_rows)
    else:
        u = w + (1.0 - w) * np.tile(np.linspace(1e-9, 0.999, 6), n_rows)
        assert (u > w).all()
    expected = per_group_draws(dists, FixedUniforms(u), codes)
    got = DistributionStack(dists).invert(u, codes, np.zeros_like(codes))
    assert got.tobytes() == expected.tobytes()
    # The formula that evaluated both branches everywhere and kept one,
    # on arrays (the per-group loop) and on scalars (a scalar ``ppf``).
    both = np.empty(codes.size, dtype=np.float64)
    for row, d in enumerate(dists):
        x = u[codes == row]
        both[codes == row] = _both_branches(d, x)
    assert got.tobytes() == both.tobytes()
    for c, x in zip(codes, u):
        scalar = dists[c].ppf(float(x))
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == _both_branches(dists[c], x).tobytes()


def _both_branches(d, x):
    return np.where(
        x <= d.body_weight,
        d.body.ppf(np.clip(x / d.body_weight, 0.0, 1.0)),
        d.tail.ppf(np.clip((x - d.body_weight) / (1.0 - d.body_weight), 0.0, 1.0)),
    )


@given(data=st.data(), n_shards=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_distribution_stack_inverts_each_shards_uniforms(data, n_shards, seed):
    # A batch over several shards: each shard's elements get what the
    # per-group loop gives them on that shard's own stream, wherever the
    # shard's elements sit in the batch.
    dists = _SPLICED_ROWS + [Lognormal(1.0, 0.5), Empirical([1.0, 4.0, 9.0])]
    codes = np.asarray(
        data.draw(st.lists(st.integers(0, len(dists) - 1), max_size=120)), dtype=np.int64
    )
    shards = np.asarray(
        data.draw(st.lists(st.integers(0, n_shards - 1), min_size=codes.size,
                           max_size=codes.size)),
        dtype=np.int64,
    )
    streams = spawn_shard_streams(seed, n_shards)
    expected = np.empty(codes.size, dtype=np.float64)
    for s in range(n_shards):
        mine = shards == s
        expected[mine] = per_group_draws(
            dists, np.random.default_rng(streams[s]), codes[mine]
        )
    rngs = [np.random.default_rng(seq) for seq in streams]
    u = shard_uniforms(rngs, np.bincount(shards, minlength=n_shards))
    got = DistributionStack(dists).invert(u, codes, shards)
    assert got.tobytes() == expected.tobytes()


def test_distribution_stack_serves_the_paper_grid():
    # Every table of the paper model is one structure: no fallback rows.
    from repro.core.generator_columnar import GeneratorTables
    from repro.core.model import WorkloadModel
    from repro.core.popularity import QueryUniverse

    tables = GeneratorTables.from_model(WorkloadModel.paper(), QueryUniverse())
    grid = WorkloadModel.paper().conditional_grid()
    for name in ("queries_per_session", "passive_duration", "first_query",
                 "interarrival", "last_query"):
        stack = getattr(tables, name)
        assert stack.n_rows == len(grid[name]) and not stack._fallback
        dists = [grid[name][key] for key in sorted(grid[name])]
        codes = np.random.default_rng(2).integers(0, stack.n_rows, 5000)
        assert_stack_matches_loop(dists, codes, 9)


# -- shard planning / pool fan-out ---------------------------------------


def test_shard_sizes_is_a_fixed_near_equal_plan():
    assert shard_sizes(10, 4) == [3, 3, 2, 2]
    assert shard_sizes(8, 4) == [2, 2, 2, 2]
    assert shard_sizes(3, 4) == [1, 1, 1, 0]
    assert sum(shard_sizes(12345, 7)) == 12345


def test_spawn_shard_streams_is_layout_stable():
    a = spawn_shard_streams(7, 5, 2)
    b = spawn_shard_streams(7, 5, 2)
    ra = [np.random.default_rng(s).random(4) for s in (a if isinstance(a, list) else [a])]
    rb = [np.random.default_rng(s).random(4) for s in (b if isinstance(b, list) else [b])]
    for x, y in zip(ra, rb):
        assert np.array_equal(x, y)
    # A different shard index yields an independent stream.
    other = spawn_shard_streams(7, 5, 3)
    ro = [np.random.default_rng(s).random(4) for s in (other if isinstance(other, list) else [other])]
    assert not np.array_equal(ra[0], ro[0])


def _square(x):
    return x * x


def test_pool_map_is_worker_count_invariant():
    items = list(range(20))
    expected = [x * x for x in items]
    assert pool_map(_square, items, 1) == expected
    assert pool_map(_square, items, 2) == expected


def test_resolve_workers_clamps_to_tasks_and_cpus():
    assert resolve_workers(8, 3) <= 3
    assert resolve_workers(1, 100) == 1
    assert resolve_workers(4, 0) == 0


# -- npz round trip ------------------------------------------------------


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_npz_round_trip_preserves_bytes(tmp_path, mmap_mode):
    payload = {
        "ints": np.arange(10, dtype=np.int64),
        "floats": np.linspace(0, 1, 7),
        "strings": np.array(["alpha", "beta", ""], dtype="U5"),
        "empty": np.zeros(0, dtype=np.float64),
    }
    path = tmp_path / "roundtrip.npz"
    save_npz_payload(path, payload)
    members = load_npz_members(path, mmap_mode)
    assert set(members) == set(payload)
    for name, arr in payload.items():
        got = members[name]
        assert got.dtype == arr.dtype
        assert got.shape == arr.shape
        assert np.asarray(got).tobytes() == arr.tobytes()
