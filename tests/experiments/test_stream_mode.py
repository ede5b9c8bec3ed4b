"""Stream-mode contexts: same experiments, same rows, bounded memory.

Every context reads the Table 2-3, Figure 1-11, C1 and Appendix-fit
products from the single-pass reducers; ``ExperimentContext(stream=True)``
only moves the trace into on-disk shards.  Every experiment -- the
reducer-fed ones, the record-view ones (X1-X4) and G1, which runs the
generator from the seed alone -- must return results identical to the
in-memory context under the same
config (``shard_days`` included: the shard layout is part of the trace
identity, so both sides here carry it).
"""

import math

import pytest

from repro.experiments import ALL_EXPERIMENTS, ExperimentContext, run_experiment, run_many
from repro.synthesis import SynthesisConfig, TraceCache

CFG = SynthesisConfig(
    days=0.2, mean_arrival_rate=0.3, seed=20040315, shard_days=0.05
)

IDS = list(ALL_EXPERIMENTS)

#: The experiments fed entirely by the streaming pass.
REDUCER_FED = ["T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
               "F9", "F10", "F11", "C1", "TA1"]


def _rows_equal(a, b):
    """Row-list equality that treats NaN == NaN (thin-slice measures)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if set(ra) != set(rb):
            return False
        for key in ra:
            va, vb = ra[key], rb[key]
            if isinstance(va, float) and isinstance(vb, float):
                if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                    return False
            elif va != vb:
                return False
    return True


def assert_same_results(streamed, in_memory):
    assert [r.experiment_id for r in streamed] == [
        r.experiment_id for r in in_memory
    ]
    for rs, rm in zip(streamed, in_memory):
        assert _rows_equal(rs.rows, rm.rows), rs.experiment_id
        assert rs.notes == rm.notes, rs.experiment_id


@pytest.fixture(scope="module")
def in_memory_results():
    return run_many(IDS, ExperimentContext(CFG))


class TestStreamParity:
    def test_sequential_stream_matches_in_memory(self, in_memory_results):
        streamed = run_many(IDS, ExperimentContext(CFG, stream=True))
        assert_same_results(streamed, in_memory_results)

    def test_parallel_stream_matches_in_memory(self, tmp_path, in_memory_results):
        cache = TraceCache(tmp_path / "cache")
        ctx = ExperimentContext(CFG, cache=cache, stream=True)
        streamed = run_many(IDS, ctx, jobs=2)
        assert_same_results(streamed, in_memory_results)
        # The parent published the sharded entry for the pool workers.
        assert cache.load_sharded(CFG) is not None

    def test_shard_hours_sets_the_window(self):
        ctx = ExperimentContext(CFG, stream=True, shard_hours=1.2)
        assert ctx.config.shard_days == pytest.approx(0.05)


class TestStreamContextViews:
    def test_columnar_fallback_is_byte_identical(self):
        import dataclasses

        import numpy as np

        streamed = ExperimentContext(CFG, stream=True).columnar
        in_memory = ExperimentContext(CFG).columnar
        for field in dataclasses.fields(type(streamed)):
            va = getattr(streamed, field.name)
            vb = getattr(in_memory, field.name)
            if isinstance(va, np.ndarray):
                assert va.dtype == vb.dtype and np.array_equal(va, vb), field.name
            else:
                assert va == vb, field.name

    def test_views_come_from_the_streaming_pass(self):
        ctx = ExperimentContext(CFG, stream=True)
        assert ctx.views == ExperimentContext(CFG).views
        # The streamed context never built the whole-trace filter result.
        assert "filtered" not in ctx.__dict__

    def test_in_memory_context_builds_no_record_views(self):
        # One analysis path: an in-memory context folds its columnar
        # trace through the reducers as one chunk, never via records.
        ctx = ExperimentContext(CFG)
        for experiment_id in REDUCER_FED:
            run_experiment(experiment_id, ctx)
        assert "streaming" in ctx.__dict__
        assert "filtered" not in ctx.__dict__
        assert "trace" not in ctx.__dict__

    def test_stream_figures_never_concatenate_the_shards(self):
        from repro.viz.figures import _BUILDERS, _fig_extensions

        ctx = ExperimentContext(CFG, stream=True)
        for builder in _BUILDERS:
            if builder is not _fig_extensions:
                builder(ctx)
        assert "columnar" not in ctx.__dict__
