"""Tests for the vectorized columnar workload generator backend.

The contract with the event backend is *distributional equivalence*
(same model, different draw order → KS-indistinguishable realizations),
plus hard guarantees of its own: byte-identical output across runs and
worker counts, lossless round-trips to session objects and ``.npz``.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from repro.core import (
    ColumnarWorkload,
    SyntheticWorkloadGenerator,
    from_npz,
    generate_columnar_workload,
    to_npz,
)
from repro.core.distributions import Empirical
from repro.core.events import GeneratedQuery, GeneratedSession
from repro.core.generator_columnar import (
    SLOTS_PER_SHARD,
    WORKLOAD_REGION_CODE,
    GeneratorTables,
    _generate_group,
)
from repro.core.kernels import CategoricalTable, shard_uniforms, spawn_shard_streams
from repro.core.model import WorkloadModel
from repro.core.popularity import CLASS_ORDER, QueryUniverse
from repro.core.regions import MAJOR_REGIONS, Region


def _ks_entry(ref_vals, cand_vals):
    """(statistic, critical value, ok) of a two-sample KS comparison.

    The critical value is the asymptotic one at alpha~0.001 plus a small
    modelling-fidelity floor.
    """
    n1, n2 = max(len(ref_vals), 1), max(len(cand_vals), 1)
    crit = 1.95 * math.sqrt((n1 + n2) / (n1 * n2)) + 0.02
    stat = float(ks_2samp(ref_vals, cand_vals, method="asymp").statistic)
    return round(stat, 4), round(crit, 4), stat <= crit


def _interarrival_gaps(workload):
    """All within-session query interarrival gaps, one flat array."""
    same = np.diff(workload.query_session) == 0
    return np.diff(workload.query_offset)[same]


def _first_last_gaps(workload):
    """(time to first query, time after last query) per session with queries."""
    has_queries = workload.query_counts() > 0
    index = workload.query_index()
    first = workload.query_offset[index[:-1][has_queries]]
    last = workload.query_offset[index[1:][has_queries] - 1]
    return first, workload.session_duration[has_queries] - last


def _hourly_region_shares(workload):
    """Per-hour-of-day region shares and session totals."""
    hours = ((workload.session_start % 86400.0) // 3600.0).astype(np.intp)
    table = np.zeros((24, 4), dtype=np.float64)
    totals = np.bincount(hours, minlength=24)
    for hour in np.nonzero(totals)[0]:
        table[hour] = np.bincount(
            workload.session_region[hours == hour], minlength=4
        ) / totals[hour]
    return table, totals


def generator_ks_checks(reference, candidate):
    """Distributional-equivalence report between two workload realizations.

    The columnar backend consumes random draws in a different (batched)
    order than the event engine, so workloads for a fixed seed are
    different *realizations* of the same steady-state process.  This
    compares the distributions the Figure 12 recipe is built from:
    session duration, queries per active session, query interarrival
    time, time to first query, time after the last query, and the Fig. 1
    region mix per hour of day.  Each hour both sides sampled well gets
    its own sample-size-dependent critical value; the region entry
    reports the worst gap/critical ratio, so ok means every hour passed.
    """
    ref_first, ref_after = _first_last_gaps(reference)
    cand_first, cand_after = _first_last_gaps(candidate)
    checks = {
        "session_duration_ks": _ks_entry(
            reference.session_duration, candidate.session_duration
        ),
        "queries_per_session_ks": _ks_entry(
            reference.query_counts()[~reference.session_passive],
            candidate.query_counts()[~candidate.session_passive],
        ),
        "interarrival_ks": _ks_entry(
            _interarrival_gaps(reference), _interarrival_gaps(candidate)
        ),
        "first_query_gap_ks": _ks_entry(ref_first, cand_first),
        "last_query_gap_ks": _ks_entry(ref_after, cand_after),
    }

    ref_table, ref_totals = _hourly_region_shares(reference)
    cand_table, cand_totals = _hourly_region_shares(candidate)
    usable = (ref_totals >= 30) & (cand_totals >= 30)
    worst_ratio = 0.0
    for hour in np.nonzero(usable)[0]:
        n1, n2 = int(ref_totals[hour]), int(cand_totals[hour])
        crit = 1.95 * math.sqrt((n1 + n2) / (n1 * n2)) + 0.02
        gap = float(np.abs(ref_table[hour] - cand_table[hour]).max())
        worst_ratio = max(worst_ratio, gap / crit)
    checks["region_mix_by_hour_worst_ratio"] = (
        round(worst_ratio, 4), int(usable.sum()), worst_ratio <= 1.0
    )

    checks["ok"] = all(ok for _, _, ok in checks.values())
    return checks


#: SHA-256 of every column of the paper model at n_peers=2000, seed=7,
#: one hour (``test_columns_match_committed_goldens``).
GENERATOR_GOLDENS = {
    "session_region": "51b203cdb479a1ad15462eac9f8b8c0c1f6036a8deb84d518db8b296b343c332",
    "session_start": "eff5e42c6b3ec80bcd2580fbcc70200fb7c068a2007c731019d109e157f8f67e",
    "session_duration": "ffeecd890a82dea263cd19f6936f247411a57f4cec025368928bfc348654f390",
    "session_passive": "18be090fff1d49dbaaa1ac2567e3dc9634d191aaacaca041db903e06224dc2c2",
    "query_session": "15bffd7c454160fab48ed0c00212db4eaa8d1e6a485aedc8faa9b0244db974ef",
    "query_offset": "02b38104dcd3d001da88d4ddf89e752c95c55a77c6a6f8592252f6c14a127b30",
    "query_rank": "a38379a9fd1835215f55f523c3ea7230f024d9e2aeb39c2b3fbe9012f120cc57",
    "query_class": "d005d5568068a92c2141b6c1bcd75b5d159a05c2b2e9dda301321a7cd700893d",
    "query_keywords": "465725459df9b7f38dec9a3c4c96a6695a08e979567dffba928f89a87f51013f",
}


#: SHA-256 of every column of the paper model over three uneven shards
#: (n_peers=2 * SLOTS_PER_SHARD + 1), seed=13, two hours from t=1800 s
#: (``test_multi_shard_columns_match_committed_goldens``).
MULTI_SHARD_GOLDENS = {
    "session_region": "5206f6610b3bc35d9c11db92a18e70c9c6abada8c889451429227a35cb4b0267",
    "session_start": "033ac543be3b02eef768706f9ead38f68a4e5cab2b38fa9cbe3957837da69351",
    "session_duration": "f3dfa12599584e7e26f0337ffc460e8f5df9afa0e790d53acb9867bd3e6bdc0f",
    "session_passive": "ee46c3de27217af5bcfc2224f1396e610406a76b7c46a71f46c1219e5143cc7f",
    "query_session": "6eae98fe612b2f6802b49c47782618e40eee1790675c5d060d26d5c33bb155f4",
    "query_offset": "ed79934202030e9f20f0821824e3e6fb081c15ffce97516797c697e68481c12c",
    "query_rank": "db40b5690c51d4bd36f01c517f8cb95dde2d4edc93bc53180bf221c74c99d513",
    "query_class": "5aa3c1d3b630f181f74fb03984f63f512e2e057c77d0167fc3844028ccc3100a",
    "query_keywords": "8e234294eb166b952383cfda4a3b5ad2388206e69460c3931d0df261d198471f",
}


def _column_digests(workload):
    return {
        name: hashlib.sha256(getattr(workload, name).tobytes()).hexdigest()
        for name in workload.ARRAY_FIELDS
    }


@pytest.fixture(scope="module")
def workload():
    gen = SyntheticWorkloadGenerator(n_peers=120, seed=9)
    return gen.generate_columnar(duration_seconds=4 * 3600.0)


class TestStructure:
    def test_validates(self, workload):
        assert workload.validate() is workload
        assert workload.n_sessions > 120
        assert workload.n_queries > 0

    def test_sessions_sorted_by_start(self, workload):
        assert (np.diff(workload.session_start) >= 0).all()

    def test_steady_state_first_wave(self, workload):
        # Every slot starts its first session at t=0.
        assert (workload.session_start[:120] == 0.0).all()

    def test_queries_grouped_and_sorted(self, workload):
        assert (np.diff(workload.query_session) >= 0).all()
        same = np.diff(workload.query_session) == 0
        assert (np.diff(workload.query_offset)[same] >= 0).all()

    def test_passive_sessions_have_no_queries(self, workload):
        assert not workload.session_passive[workload.query_session].any()

    def test_offsets_within_duration(self, workload):
        assert (
            workload.query_offset
            <= workload.session_duration[workload.query_session] + 1e-9
        ).all()
        assert (workload.query_offset >= 0).all()

    def test_only_major_regions_emitted(self, workload):
        assert set(np.unique(workload.session_region)) <= {
            WORKLOAD_REGION_CODE[r] for r in MAJOR_REGIONS
        }

    def test_query_counts_and_index_agree(self, workload):
        counts = workload.query_counts()
        index = workload.query_index()
        assert counts.sum() == workload.n_queries
        assert (np.diff(index) == counts).all()


class TestDeterminism:
    def test_same_seed_identical(self):
        gen_a = SyntheticWorkloadGenerator(n_peers=60, seed=21)
        gen_b = SyntheticWorkloadGenerator(n_peers=60, seed=21)
        assert gen_a.generate_columnar(3600.0).equals(gen_b.generate_columnar(3600.0))

    def test_different_seed_differs(self):
        gen_a = SyntheticWorkloadGenerator(n_peers=60, seed=21)
        gen_b = SyntheticWorkloadGenerator(n_peers=60, seed=22)
        assert not gen_a.generate_columnar(3600.0).equals(gen_b.generate_columnar(3600.0))

    def test_columns_match_committed_goldens(self):
        # Pins the generator's bytes across code versions (the tests
        # above only compare two runs of the same code).  A change to
        # any digest means a fixed seed now yields a different workload.
        workload = generate_columnar_workload(
            WorkloadModel.paper(), QueryUniverse(), n_peers=2000, seed=7,
            duration_seconds=3600,
        )
        assert (workload.n_sessions, workload.n_queries) == (10898, 7368)
        assert _column_digests(workload) == GENERATOR_GOLDENS

    def test_multi_shard_columns_match_committed_goldens(self):
        # The golden above is one shard; this one pins how three uneven
        # shards (1366 + 1366 + 1365 slots) draw and merge.
        workload = generate_columnar_workload(
            WorkloadModel.paper(), QueryUniverse(),
            n_peers=2 * SLOTS_PER_SHARD + 1, seed=13,
            duration_seconds=7200, start_time=1800.0,
        )
        assert (workload.n_sessions, workload.n_queries) == (30309, 17713)
        assert _column_digests(workload) == MULTI_SHARD_GOLDENS

    def test_jobs_do_not_change_output(self, monkeypatch):
        # Five shards, so jobs=2 and jobs=4 split them into unequal
        # lockstep groups (3 + 2 and 2 + 1 + 1 + 1); force the worker
        # pool to actually spawn even on a single-CPU host so the pooled
        # code path is exercised, not just the sequential fallback.
        import repro.core.kernels.sharding as sharding

        n_peers = 4 * SLOTS_PER_SHARD + 700
        gen = SyntheticWorkloadGenerator(n_peers=n_peers, seed=5)
        serial = gen.generate_columnar(900.0, jobs=1)
        monkeypatch.setattr(sharding, "available_cpus", lambda: 4)
        pooled_2 = gen.generate_columnar(900.0, jobs=2)
        pooled_4 = gen.generate_columnar(900.0, jobs=4)
        assert serial.equals(pooled_2)
        assert serial.equals(pooled_4)


def per_group_class_ranks(sampler, rng, region_codes):
    """The loop :meth:`ClassRankSampler.invert` replaces: per region, one
    class-pick draw, then one rank draw per class present, classes in
    code order."""
    region_tables = [CategoricalTable(c) for c in sampler._region_cum]
    class_tables = [CategoricalTable(c) for c in sampler._class_cdfs]
    region_codes = np.asarray(region_codes)
    cls_codes = np.empty(region_codes.size, dtype=np.int8)
    ranks = np.empty(region_codes.size, dtype=np.int64)
    for rc in range(len(region_tables)):
        positions = np.nonzero(region_codes == rc)[0]
        if positions.size == 0:
            continue
        picks = region_tables[rc].sample(rng, positions.size)
        picks = np.minimum(picks, sampler._region_classes[rc].size - 1)
        codes = sampler._region_classes[rc][picks]
        cls_codes[positions] = codes
        for code in np.unique(codes):
            sub = positions[codes == code]
            drawn = class_tables[int(code)].sample(rng, sub.size) + 1
            ranks[sub] = np.minimum(drawn, sampler._class_sizes[int(code)])
    return cls_codes, ranks


def _fitted_model():
    """A from_fits model with ``Empirical`` rows in every grid table, so
    each stack takes its per-row ppf fallback."""
    emp = Empirical([2.0, 15.0, 40.0, 300.0, 2500.0, 9000.0])
    na, eu, asia = MAJOR_REGIONS
    return WorkloadModel.from_fits(
        passive_duration={(na, True): emp, (asia, False): emp},
        queries_per_session={eu: Empirical([1.0, 1.0, 2.0, 4.0, 11.0])},
        first_query={(na, True, "<3"): emp, (eu, False, ">3"): emp},
        interarrival={(na, True, "3-7"): emp, (asia, False, "=2"): emp},
        last_query={(eu, True, "1"): emp, (na, False, ">7"): emp},
    )


_TABLES = {}


def _tables(fitted):
    if fitted not in _TABLES:
        model = _fitted_model() if fitted else WorkloadModel.paper()
        _TABLES[fitted] = GeneratorTables.from_model(model, QueryUniverse())
    return _TABLES[fitted]


def _shard_major(part):
    """A group's wave-major columns in shard order (each shard's waves,
    shard after shard), queries following their sessions."""
    order = np.argsort(part["shard"], kind="stable")
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.arange(order.size)
    q_sess = inverse[part["q_sess"]]
    q_order = np.argsort(q_sess, kind="stable")
    out = {k: part[k][order] for k in ("region", "start", "duration", "passive")}
    out["q_sess"] = q_sess[q_order]
    for k in ("q_off", "q_cls", "q_rank", "q_day"):
        out[k] = part[k][q_order]
    return out


class TestLockstepGroups:
    @given(
        slot_counts=st.lists(st.integers(1, 40), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        start_time=st.sampled_from([0.0, 86400.0 - 90.0, 5 * 86400.0 - 2000.0]),
        duration=st.floats(300.0, 6 * 3600.0),
        fitted=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_equals_its_one_shard_groups(
        self, slot_counts, seed, start_time, duration, fitted
    ):
        # One lockstep run over the group must give every shard the bytes
        # it gets alone.  Tiny shards finish waves before big ones, and a
        # start just before midnight makes waves cross a day boundary.
        tables = _tables(fitted)
        if fitted:
            assert all(
                getattr(tables, name)._fallback
                for name in ("passive_duration", "queries_per_session", "first_query",
                             "interarrival", "last_query")
            )
        seeds = spawn_shard_streams(seed, len(slot_counts))
        end = start_time + duration
        cap = 40 * 86400.0
        group = _shard_major(
            _generate_group(tables, slot_counts, start_time, end, cap, seeds)
        )
        alone = [
            _generate_group(tables, [n], start_time, end, cap, [seq])
            for n, seq in zip(slot_counts, seeds)
        ]
        base = np.cumsum([0] + [p["start"].size for p in alone])
        expected = {
            k: np.concatenate([p[k] for p in alone]) for k in group if k != "q_sess"
        }
        expected["q_sess"] = np.concatenate(
            [p["q_sess"] + base[i] for i, p in enumerate(alone)]
        )
        for key, column in expected.items():
            assert group[key].tobytes() == column.tobytes(), key

    @given(
        regions=st.lists(st.integers(0, 2), max_size=300),
        n_shards=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_carved_class_rank_draw_matches_the_group_loop(
        self, regions, n_shards, data, seed
    ):
        # One random(2 * n_s) call per shard, carved into the blocks the
        # per-(region, class) loop draws on that shard's stream.
        sampler = _tables(False).sampler
        regions = np.asarray(regions, dtype=np.int64)
        shards = np.asarray(
            data.draw(st.lists(st.integers(0, n_shards - 1), min_size=regions.size,
                               max_size=regions.size)),
            dtype=np.int64,
        )
        streams = spawn_shard_streams(seed, n_shards)
        exp_cls = np.empty(regions.size, dtype=np.int8)
        exp_rank = np.empty(regions.size, dtype=np.int64)
        for s in range(n_shards):
            mine = shards == s
            exp_cls[mine], exp_rank[mine] = per_group_class_ranks(
                sampler, np.random.default_rng(streams[s]), regions[mine]
            )
        rngs = [np.random.default_rng(seq) for seq in streams]
        u = shard_uniforms(rngs, 2 * np.bincount(shards, minlength=n_shards))
        cls_codes, ranks = sampler.invert(u, regions, shards)
        assert cls_codes.tobytes() == exp_cls.tobytes()
        assert ranks.tobytes() == exp_rank.tobytes()


class TestBackendEquivalence:
    def test_ks_equivalence_at_fixed_seed(self):
        # Session duration, queries/session, interarrival, first/last
        # query gaps, and the hourly region mix must all be
        # KS-indistinguishable between the two engines.
        duration = 12 * 3600.0
        event = ColumnarWorkload.from_sessions(
            SyntheticWorkloadGenerator(
                n_peers=250, seed=33, backend="event"
            ).iter_sessions(duration)
        )
        columnar = SyntheticWorkloadGenerator(
            n_peers=250, seed=33
        ).generate_columnar(duration)
        checks = generator_ks_checks(event, columnar)
        assert checks["ok"] is True, checks
        # Same scale, different realizations: volumes agree broadly.
        assert columnar.n_sessions == pytest.approx(event.n_sessions, rel=0.35)

    def test_backend_dispatch(self):
        col = SyntheticWorkloadGenerator(n_peers=30, seed=3)
        assert col.backend == "columnar"
        sessions = col.generate(1800.0)
        workload = col.generate_columnar(1800.0)
        assert len(sessions) == workload.n_sessions
        assert [s.start for s in sessions] == workload.session_start.tolist()
        event = SyntheticWorkloadGenerator(n_peers=30, seed=3, backend="event")
        assert event.generate(1800.0)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SyntheticWorkloadGenerator(backend="vectorized")

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            SyntheticWorkloadGenerator(jobs=0)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            SyntheticWorkloadGenerator(n_peers=5).generate_columnar(0.0)

    def test_fitted_model_accepted(self):
        # from_fits models close over the paper model; the conditional
        # grid must still materialize and the wave engine still run.
        model = WorkloadModel.from_fits(
            passive_duration={}, queries_per_session={},
            first_query={}, interarrival={}, last_query={},
        )
        workload = generate_columnar_workload(
            model=model, universe=QueryUniverse(), n_peers=40, seed=8,
            duration_seconds=1800.0,
        )
        assert workload.n_sessions >= 40


class TestRoundTrips:
    def test_sessions_round_trip(self, workload):
        rebuilt = ColumnarWorkload.from_sessions(workload.iter_sessions())
        assert workload.equals(rebuilt)

    def test_session_objects_well_formed(self, workload):
        session = next(workload.iter_sessions())
        assert isinstance(session, GeneratedSession)
        assert session.region in MAJOR_REGIONS
        for query in session.queries:
            assert isinstance(query, GeneratedQuery)
            assert query.query_class in {c.value for c in CLASS_ORDER}

    def test_npz_round_trip(self, workload, tmp_path):
        path = to_npz(workload, tmp_path / "w.npz")
        assert workload.equals(from_npz(path))

    def test_npz_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, values=np.arange(3))
        with pytest.raises(ValueError, match="not a columnar workload"):
            from_npz(path)

    def test_from_sessions_rejects_unknown_region(self):
        bad = GeneratedSession(
            region=Region.OTHER, start=0.0, duration=1.0, passive=True
        )
        # OTHER itself is representable; a non-Region value is not.
        assert ColumnarWorkload.from_sessions([bad]).n_sessions == 1
        with pytest.raises(ValueError, match="unknown region"):
            ColumnarWorkload.from_sessions(
                [GeneratedSession(region="mars", start=0.0, duration=1.0, passive=True)]
            )


class TestValidateFailures:
    def _arrays(self):
        return dict(
            session_region=np.zeros(2, dtype=np.int8),
            session_start=np.zeros(2),
            session_duration=np.ones(2),
            session_passive=np.array([False, True]),
            query_session=np.zeros(1, dtype=np.int64),
            query_offset=np.zeros(1),
            query_rank=np.ones(1, dtype=np.int64),
            query_class=np.zeros(1, dtype=np.int8),
            query_keywords=np.array(["q"]),
        )

    def test_length_mismatch(self):
        arrays = self._arrays()
        arrays["session_duration"] = np.ones(3)
        with pytest.raises(ValueError, match="rows"):
            ColumnarWorkload(**arrays).validate()

    def test_query_on_passive_session(self):
        arrays = self._arrays()
        arrays["query_session"] = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError, match="passive"):
            ColumnarWorkload(**arrays).validate()

    def test_out_of_range_session_index(self):
        arrays = self._arrays()
        arrays["query_session"] = np.array([7], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            ColumnarWorkload(**arrays).validate()

    def test_ungrouped_queries(self):
        arrays = self._arrays()
        arrays["session_passive"] = np.array([False, False])
        arrays["query_session"] = np.array([1, 0], dtype=np.int64)
        for name in ("query_offset", "query_rank", "query_class"):
            arrays[name] = np.concatenate([arrays[name], arrays[name]])
        arrays["query_keywords"] = np.array(["q", "q"])
        with pytest.raises(ValueError, match="grouped"):
            ColumnarWorkload(**arrays).validate()

    def test_bad_rank(self):
        arrays = self._arrays()
        arrays["query_rank"] = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="ranks"):
            ColumnarWorkload(**arrays).validate()
