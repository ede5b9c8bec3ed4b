"""Property: shard boundaries are invisible to the streamed results.

Two generators of adversity:

* hypothesis-drawn cuts slice a trace into consecutive chunks of whole
  sessions (duplicate cuts give empty chunks).  Every chunking must
  reproduce the one-chunk pass an in-memory context runs, exactly and
  in order -- which is what lets that pass stand in for the sharded one.
* ``run_sharded`` with awkward (non-dividing) shard widths must stay
  byte-identical to ``run_columnar`` under the same config -- the shard
  window layout is part of the trace identity, never a perturbation.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import run_streaming
from repro.filtering import apply_filters_columnar
from repro.filtering.streaming import StreamingFilter
from repro.measurement import ColumnarTrace
from repro.synthesis import SynthesisConfig, TraceSynthesizer

cut_fractions = st.lists(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    min_size=1,
    max_size=6,
)


@pytest.fixture(scope="module")
def columnar():
    # Dedicated small trace: each hypothesis example re-filters it, so
    # it must be an order of magnitude lighter than the shared one-day
    # fixture while still holding thousands of sessions.
    config = SynthesisConfig(days=0.25, mean_arrival_rate=0.15, seed=97531)
    return TraceSynthesizer(config).run_columnar()


@pytest.fixture(scope="module")
def reference(columnar):
    return run_streaming([columnar])


def session_chunks(trace, fractions):
    """Consecutive chunks of whole sessions, cut at the given fractions
    of the session rows; PONG/QUERYHIT rows are cut at the same fractions."""
    n = trace.n_sessions
    bounds = [0, *sorted(int(f * n) for f in fractions), n]
    offsets = trace.query_offsets
    for lo, hi in zip(bounds, bounds[1:]):
        fields = {}
        for field in dataclasses.fields(ColumnarTrace):
            value = getattr(trace, field.name)
            if field.name == "query_offsets":
                fields[field.name] = offsets[lo:hi + 1] - offsets[lo]
            elif field.name.startswith("session_"):
                fields[field.name] = value[lo:hi]
            elif field.name.startswith("query_"):
                fields[field.name] = value[offsets[lo]:offsets[hi]]
            elif field.name.startswith(("pong_", "hit_")):
                m = value.shape[0]
                fields[field.name] = value[m * lo // n:m * hi // n]
        yield ColumnarTrace(start_time=trace.start_time, end_time=trace.end_time, **fields)


@given(fractions=cut_fractions)
@example(fractions=[0.5, 0.5])
@settings(max_examples=15, deadline=None)
def test_sessions_and_interarrivals_survive_random_cuts(
    columnar, reference, fractions
):
    streamed = run_streaming(session_chunks(columnar, fractions))
    assert streamed.report.as_dict() == reference.report.as_dict()
    # ActiveSession equality is the strong form: per-session query
    # counts, first/last gap measures, AND the full interarrival tuple
    # of every session, in trace order.
    assert streamed.active.views() == reference.active.views()
    for region, ccdf in reference.active.interarrival_ccdf().items():
        got = streamed.active.interarrival_ccdf()[region]
        assert np.array_equal(got.x, ccdf.x)
        assert np.array_equal(got.fraction, ccdf.fraction)
    assert np.array_equal(streamed.passive.duration, reference.passive.duration)
    assert streamed.daily == reference.daily
    for region, profile in reference.load.items():
        assert np.array_equal(streamed.load[region].average, profile.average)
    for region in reference.geographic.all_peers:
        assert np.array_equal(
            streamed.geographic.all_peers[region], reference.geographic.all_peers[region]
        )


@given(fractions=cut_fractions)
@settings(max_examples=15, deadline=None)
def test_eligible_gap_stream_is_cut_invariant(columnar, fractions):
    filt = StreamingFilter()
    gaps = [
        filt.push(chunk).interarrival_times()
        for chunk in session_chunks(columnar, fractions)
    ]
    expected = apply_filters_columnar(columnar).interarrival_times()
    # Whole-session chunks keep every session's gaps together, so the
    # flat gap stream feeding the Figure 8 CCDF matches in order.
    assert np.array_equal(np.concatenate(gaps), expected)


@pytest.mark.parametrize("shard_days", [0.07, 0.13, 0.4])
def test_awkward_shard_widths_match_in_memory_run(tmp_path, shard_days):
    # 0.07 / 0.13 leave a partial final window; 0.4 is a single shard.
    config = SynthesisConfig(
        days=0.4, mean_arrival_rate=0.25, seed=31337, shard_days=shard_days
    )
    sharded = TraceSynthesizer(config).run_sharded(tmp_path / "t")
    whole = sharded.concat()
    in_memory = TraceSynthesizer(config).run_columnar()
    for field in dataclasses.fields(ColumnarTrace):
        va, vb = getattr(whole, field.name), getattr(in_memory, field.name)
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb), field.name
        else:
            assert va == vb, field.name
