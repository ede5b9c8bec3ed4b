"""The deterministic frame source: identity, slicing, and round trips."""

import hashlib

import numpy as np
import pytest

from repro.core.generator_columnar import generate_columnar_workload
from repro.core.model import WorkloadModel
from repro.core.popularity import QueryUniverse
from repro.service.framing import (
    FRAME_DATA,
    FRAME_END,
    FRAME_HELLO,
    FRAME_JSONL,
    HEADER_SIZE,
    decode_json,
    parse_header,
)
from repro.service.stream import (
    StreamConfig,
    WorkloadFrameSource,
    batch_events,
    decode_batch,
    window_seed,
)

CFG = StreamConfig(
    n_peers=60, seed=11, window_seconds=900.0, batch_sessions=64, n_frames=5
)


def frames_of(config):
    return list(WorkloadFrameSource(config).frames())


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(n_peers=0)
        with pytest.raises(ValueError):
            StreamConfig(window_seconds=0)
        with pytest.raises(ValueError):
            StreamConfig(batch_sessions=0)
        with pytest.raises(ValueError):
            StreamConfig(n_frames=0)
        with pytest.raises(ValueError):
            StreamConfig(codec="xml")
        with pytest.raises(ValueError):
            StreamConfig(jobs=0)

    def test_manifest_excludes_jobs(self):
        # jobs must never change the bytes, so it cannot be in the HELLO.
        manifest = StreamConfig(jobs=4).manifest()
        assert "jobs" not in manifest
        assert manifest == StreamConfig(jobs=1).manifest()


class TestWindowSeed:
    def test_deterministic_and_distinct(self):
        assert window_seed(11, 0) == window_seed(11, 0)
        seeds = {window_seed(11, w) for w in range(32)}
        assert len(seeds) == 32
        assert window_seed(11, 0) != window_seed(12, 0)


class TestFrameSequence:
    def test_shape_hello_data_end(self):
        frames = frames_of(CFG)
        kinds = [parse_header(f[:HEADER_SIZE])[0] for f, _ in frames]
        assert kinds[0] == FRAME_HELLO
        assert kinds[-1] == FRAME_END
        assert kinds[1:-1] == [FRAME_DATA] * CFG.n_frames

    def test_control_frames_carry_zero_events(self):
        frames = frames_of(CFG)
        assert frames[0][1] == 0 and frames[-1][1] == 0
        assert all(events > 0 for _, events in frames[1:-1])

    def test_end_summary_totals_match_data_frames(self):
        frames = frames_of(CFG)
        sessions = queries = 0
        for frame, _ in frames[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            sessions += batch.n_sessions
            queries += batch.n_queries
        summary = decode_json(frames[-1][0][HEADER_SIZE:])
        assert summary == {
            "frames": CFG.n_frames, "sessions": sessions, "queries": queries,
            "events": sessions + queries,
        }

    def test_replay_is_byte_identical(self):
        source = WorkloadFrameSource(CFG)
        first = [f for f, _ in source.frames()]
        second = [f for f, _ in source.frames()]
        assert first == second

    def test_frames_match_committed_golden(self):
        # Pins the served bytes across code versions: serve's window and
        # frame sizing at 2000 peers, spanning more than one window.
        config = StreamConfig(
            n_peers=2000, seed=5, window_seconds=900.0, batch_sessions=2048,
            n_frames=4,
        )
        digest = hashlib.sha256()
        for frame, _ in WorkloadFrameSource(config).frames():
            digest.update(frame)
        assert digest.hexdigest() == (
            "5e2667bf0965ba6f5bed6491b7bf9fea161686146add3e90489f6ab865743895"
        )

    def test_multi_shard_frames_match_committed_golden(self):
        # serve's window and frame sizing at 20k peers: ten generator
        # shards per window, and 40 frames cross into the second window.
        config = StreamConfig(
            n_peers=20000, seed=3, window_seconds=900.0, batch_sessions=2048,
            n_frames=40,
        )
        digest = hashlib.sha256()
        for frame, _ in WorkloadFrameSource(config).frames():
            digest.update(frame)
        assert digest.hexdigest() == (
            "db3ae553567cc56e028df5d15b88aec5a52987f73a402fc1568132ca16f01744"
        )

    def test_jobs_do_not_change_bytes(self):
        pooled = StreamConfig(
            n_peers=CFG.n_peers, seed=CFG.seed, window_seconds=CFG.window_seconds,
            batch_sessions=CFG.batch_sessions, n_frames=CFG.n_frames, jobs=2,
        )
        assert [f for f, _ in frames_of(CFG)] == [f for f, _ in frames_of(pooled)]

    def test_batches_reassemble_the_generated_window(self):
        # Concatenating the first window's batches must equal the
        # generator's own output for that window, column for column.
        config = StreamConfig(
            n_peers=40, seed=3, window_seconds=600.0, batch_sessions=16,
            n_frames=50,
        )
        universe = QueryUniverse()
        window = generate_columnar_workload(
            WorkloadModel.paper(), universe, n_peers=40,
            seed=window_seed(3, 0), duration_seconds=600.0, start_time=0.0,
        )
        frames = frames_of(config)
        sessions = 0
        collected = {name: [] for name in window.ARRAY_FIELDS}
        for frame, _ in frames[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            for name in window.ARRAY_FIELDS:
                column = getattr(batch, name)
                if name == "query_session":
                    column = column + sessions  # un-rebase
                collected[name].append(column)
            sessions += batch.n_sessions
            if sessions >= window.n_sessions:
                break
        for name in window.ARRAY_FIELDS:
            got = np.concatenate(collected[name])[: getattr(window, name).size]
            np.testing.assert_array_equal(got, getattr(window, name))

    def test_batch_events_counts_connect_plus_queries(self):
        frames = frames_of(CFG)
        for frame, events in frames[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            assert events == batch_events(batch) == batch.n_sessions + batch.n_queries

    def test_decoded_batches_validate(self):
        for frame, _ in frames_of(CFG)[1:-1]:
            batch = decode_batch(frame[HEADER_SIZE:])
            batch.validate()
            assert batch.n_sessions <= CFG.batch_sessions


class TestJsonlCodec:
    def test_jsonl_frames_parse_to_the_same_sessions(self):
        import json

        from repro.core.workload_io import session_record

        binary = StreamConfig(
            n_peers=30, seed=5, window_seconds=600.0, batch_sessions=32, n_frames=3
        )
        debug = StreamConfig(
            n_peers=30, seed=5, window_seconds=600.0, batch_sessions=32, n_frames=3,
            codec="jsonl",
        )
        binary_frames = frames_of(binary)
        debug_frames = frames_of(debug)
        assert [e for _, e in binary_frames] == [e for _, e in debug_frames]
        for (bin_frame, _), (dbg_frame, _) in zip(
            binary_frames[1:-1], debug_frames[1:-1]
        ):
            assert parse_header(dbg_frame[:HEADER_SIZE])[0] == FRAME_JSONL
            batch = decode_batch(bin_frame[HEADER_SIZE:])
            records = [
                json.loads(line)
                for line in dbg_frame[HEADER_SIZE:].decode().splitlines()
            ]
            assert records == [session_record(s) for s in batch.iter_sessions()]
