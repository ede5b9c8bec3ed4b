"""Streaming reducers vs the in-memory reference, product by product.

``streamed_equivalence_checks`` is the same comparator the paper-scale
benchmark gate runs at 40 days; here it runs at smoke scale on every
test pass so a reducer regression fails in seconds, not in the
benchmark suite.  Tolerance is zero by construction: both sides draw
the identical sharded synthesis (same config, same ``shard_days``), so
every Figure 1-11 product must match bit for bit.
"""

import pytest

from repro.analysis import run_streaming
from repro.analysis.active import active_sessions
from repro.analysis.paper_scale import streamed_equivalence_checks
from repro.filtering import apply_filters
from repro.synthesis import SynthesisConfig, TraceSynthesizer


@pytest.fixture(scope="module")
def config():
    return SynthesisConfig(days=0.4, mean_arrival_rate=0.3, seed=6161, shard_days=0.1)


@pytest.fixture(scope="module")
def sharded(config, tmp_path_factory):
    dest = tmp_path_factory.mktemp("parity-shards") / "trace"
    return TraceSynthesizer(config).run_sharded(dest)


class TestEquivalenceChecks:
    def test_every_product_is_bit_identical(self, config, tmp_path):
        outcome = streamed_equivalence_checks(config, workdir=tmp_path)
        assert outcome["tolerance"] == 0.0
        assert outcome["days"] == config.days
        failed = [name for name, ok in outcome["checks"].items() if not ok]
        assert outcome["all_identical"] is True, f"diverged: {failed}"

    def test_check_list_covers_the_paper_products(self, config, tmp_path):
        outcome = streamed_equivalence_checks(config, workdir=tmp_path)
        assert set(outcome["checks"]) == {
            "trace_concat_byte_identical",
            "table2_report",
            "f1_geographic",
            "f2_shared_files",
            "f3_load",
            "f4_passive_fraction",
            "f5_passive_durations",
            "f6_queries_per_session",
            "f7_first_query",
            "f8_interarrival",
            "f9_time_after_last",
            "c1_correlations",
            "t3_f10_f11_daily_counts",
        }


class TestActiveViews:
    def test_streamed_views_equal_record_pipeline(self, sharded):
        # views() is the record-view opt-out of streaming: the
        # materialized ActiveSession list must equal what the in-memory
        # pipeline derives from the same trace.
        streamed = run_streaming(sharded)
        reference = active_sessions(
            apply_filters(sharded.concat().to_trace().sessions)
        )
        assert streamed.active.views() == reference
