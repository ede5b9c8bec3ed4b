"""The vectorized columnar synthesis backend.

Contract under test: ``run_columnar()`` emits a
:class:`~repro.measurement.columnar.ColumnarTrace` directly (no
per-event Python loop, no record objects), byte-reproducible for a
fixed (config, seed, shard layout), invariant to the worker count,
distribution-equivalent to the event reference engine, and feeding the
``.npz`` trace cache with zero serialization.
"""

import io
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from repro.measurement import ColumnarTrace, Trace
from repro.filtering import apply_filters, apply_filters_columnar
from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    TraceSynthesizer,
    load_or_synthesize_columnar,
)

CFG = SynthesisConfig(days=0.05, mean_arrival_rate=0.3, seed=1234)
#: Multi-shard layout: 0.1 days cut into 0.04-day shards (3 shards).
SHARDED = SynthesisConfig(
    days=0.1, mean_arrival_rate=0.3, seed=1234, shard_days=0.04, jobs=3
)


def _npz_bytes(trace: ColumnarTrace, tmp_path, name: str) -> bytes:
    path = tmp_path / name
    trace.save_npz(path)
    return path.read_bytes()


class TestReproducibility:
    def test_sequential_byte_reproducible(self, tmp_path):
        a = TraceSynthesizer(CFG).run_columnar()
        b = TraceSynthesizer(CFG).run_columnar()
        assert _npz_bytes(a, tmp_path, "a.npz") == _npz_bytes(b, tmp_path, "b.npz")

    def test_sharded_byte_reproducible(self, tmp_path):
        a = TraceSynthesizer(SHARDED).run_columnar()
        b = TraceSynthesizer(SHARDED).run_columnar()
        assert _npz_bytes(a, tmp_path, "a.npz") == _npz_bytes(b, tmp_path, "b.npz")

    def test_worker_count_invariant(self, tmp_path):
        # Same shard layout, different worker counts: identical bytes.
        # Content is a function of the shard geometry, never of how many
        # processes happened to compute it.
        serial = TraceSynthesizer(replace(SHARDED, jobs=1)).run_columnar()
        fanned = TraceSynthesizer(SHARDED).run_columnar()
        assert _npz_bytes(serial, tmp_path, "serial.npz") == _npz_bytes(
            fanned, tmp_path, "fanned.npz"
        )


class TestMerge:
    @pytest.fixture(scope="class")
    def merged(self):
        return TraceSynthesizer(SHARDED).run_columnar()

    def test_sessions_sorted_by_start(self, merged):
        assert np.all(np.diff(merged.session_start) >= 0)

    def test_ips_globally_unique(self, merged):
        assert np.unique(merged.session_peer_ip).size == merged.n_sessions

    def test_query_blocks_follow_session_order(self, merged):
        # CSR offsets must be consistent: monotone, ending at n_queries,
        # and each session's query rows sorted in time.
        offsets = merged.query_offsets
        assert offsets[0] == 0 and offsets[-1] == merged.n_queries
        assert np.all(np.diff(offsets) >= 0)
        idx = merged.query_session_index()
        order = np.lexsort((merged.query_timestamp, idx))
        assert np.array_equal(order, np.arange(order.size))

    def test_counters_finalized(self, merged):
        for key in ("ping_messages", "pong_messages", "query_messages",
                    "queryhit_messages", "direct_connections"):
            assert key in merged.counters, key
        assert merged.counters["direct_connections"] == merged.n_sessions
        assert "_raw_keepalive_pings" not in merged.counters

    def test_session_ends_bounded(self, merged):
        # Silent departures keep their final keepalive exchange, which
        # may land at most one 30s probe past the window edge.
        global_end = SHARDED.days * 86400.0
        assert float(merged.session_end.max()) <= global_end + 30.0


def columnar_ks_checks(reference: ColumnarTrace, candidate: ColumnarTrace) -> dict:
    """Distributional-equivalence report between two trace realizations.

    The columnar backend consumes random draws in a different (batched)
    order than the event engine, so traces for a fixed seed are
    different *realizations* of the same process.  This compares the
    distributions the paper's tables depend on: session durations and
    queries per session (two-sample KS against the asymptotic critical
    value at alpha~0.001, plus a small floor so large samples are not
    held to sampling noise below modelling fidelity), the Fig. 1 region
    mix (max per-region share gap, within 0.05), and the Table 2 rule
    proportions (share of initial queries each rule removes, within 0.08).
    """
    checks = {}
    n1, n2 = max(reference.n_sessions, 1), max(candidate.n_sessions, 1)
    crit = 1.95 * math.sqrt((n1 + n2) / (n1 * n2)) + 0.02
    for label, ref_vals, cand_vals in (
        (
            "session_duration_ks",
            reference.session_end - reference.session_start,
            candidate.session_end - candidate.session_start,
        ),
        (
            "queries_per_session_ks",
            np.diff(reference.query_offsets),
            np.diff(candidate.query_offsets),
        ),
    ):
        stat = ks_2samp(ref_vals, cand_vals, method="asymp").statistic
        checks[label] = (round(float(stat), 4), round(crit, 4), bool(stat <= crit))

    ref_mix = np.bincount(reference.session_region, minlength=4) / n1
    cand_mix = np.bincount(candidate.session_region, minlength=4) / n2
    gap = float(np.abs(ref_mix - cand_mix).max())
    checks["region_mix_max_gap"] = (round(gap, 4), 0.05, gap <= 0.05)

    ref_t2 = apply_filters_columnar(reference).report.as_dict()
    cand_t2 = apply_filters_columnar(candidate).report.as_dict()
    for rule in range(1, 6):
        key = f"rule{rule}_removed_queries"
        ref_frac = ref_t2[key] / max(ref_t2["initial_queries"], 1)
        cand_frac = cand_t2[key] / max(cand_t2["initial_queries"], 1)
        diff = abs(ref_frac - cand_frac)
        checks[f"table2_{key}_fraction"] = (round(diff, 4), 0.08, diff <= 0.08)

    checks["ok"] = all(ok for _, _, ok in checks.values())
    return checks



class TestEquivalence:
    #: One scale for both engines: big enough for stable distributions,
    #: small enough for the event reference to run in ~1s.
    SCALE = SynthesisConfig(days=0.2, mean_arrival_rate=0.3, seed=20040315)

    @pytest.fixture(scope="class")
    def event(self):
        cfg = replace(self.SCALE, backend="event")
        return ColumnarTrace.from_trace(TraceSynthesizer(cfg).run())

    def test_sequential_ks_equivalence(self, event):
        columnar = TraceSynthesizer(self.SCALE).run_columnar()
        checks = columnar_ks_checks(event, columnar)
        assert checks["ok"] is True, checks
        # Different realizations of one process: the volume must agree.
        assert columnar.n_connections == pytest.approx(event.n_connections, rel=0.25)

    def test_sharded_ks_equivalence(self, event):
        # The sharded fast path (jobs > 1, disjoint RNG streams and IP
        # ranges per shard) must hold the same distributional contract.
        cfg = replace(self.SCALE, shard_days=0.08, jobs=2)
        columnar = TraceSynthesizer(cfg).run_columnar()
        assert np.unique(columnar.session_peer_ip).size == columnar.n_sessions
        checks = columnar_ks_checks(event, columnar)
        assert checks["ok"] is True, checks


class TestBackendDispatch:
    def test_columnar_is_default(self):
        assert CFG.backend == "columnar"
        assert TraceSynthesizer(CFG).effective_backend == "columnar"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SynthesisConfig(days=0.05, backend="gpu")

    def test_event_backend_selected_explicitly(self):
        cfg = replace(CFG, backend="event")
        assert TraceSynthesizer(cfg).effective_backend == "event"

    def test_max_slots_falls_back_to_event(self):
        cfg = replace(CFG, max_slots=50)
        synth = TraceSynthesizer(cfg)
        assert synth.effective_backend == "event"
        # run_columnar still honours its return type via conversion.
        assert isinstance(synth.run_columnar(), ColumnarTrace)

    def test_run_returns_trace(self):
        trace = TraceSynthesizer(CFG).run()
        assert isinstance(trace, Trace)
        assert trace.n_connections > 50


class TestCacheRoundTrip:
    def test_npz_roundtrip_matches_jsonl_filter_report(self, tmp_path):
        """End to end: fast path -> .npz cache -> reload -> filter must
        equal the same trace filtered through the record/JSONL path."""
        cache = TraceCache(tmp_path / "cache")
        columnar = TraceSynthesizer(CFG).run_columnar()
        cache.store_columnar(CFG, columnar)

        reloaded = cache.load_columnar(CFG)
        npz_report = apply_filters_columnar(reloaded).report.as_dict()

        jsonl_path = tmp_path / "trace.jsonl"
        columnar.to_trace().to_jsonl(jsonl_path)
        records = Trace.from_jsonl(jsonl_path)
        jsonl_report = apply_filters(records.sessions).report.as_dict()

        assert npz_report == jsonl_report
        assert npz_report["initial_queries"] > 0

    def test_load_or_synthesize_columnar_warm_hit(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        cold = load_or_synthesize_columnar(CFG, cache=cache)
        assert cache.contains(CFG)
        warm = load_or_synthesize_columnar(CFG, cache=cache)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        np.savez(buf_a, ts=cold.query_timestamp, ip=cold.session_peer_ip)
        np.savez(buf_b, ts=warm.query_timestamp, ip=warm.session_peer_ip)
        assert buf_a.getvalue() == buf_b.getvalue()
