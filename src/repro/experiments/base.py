"""Experiment plumbing: results, formatting, and the shared context.

Every experiment (one per paper table/figure) produces an
:class:`ExperimentResult`: a list of row dicts pairing the paper's value
with the measured one, plus free-form notes.  The benchmarks print these
rows; EXPERIMENTS.md is generated from them.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis import run_streaming
from repro.analysis.active import ActiveSession
from repro.analysis.streaming import StreamingAnalysis
from repro.filtering import FilterResult, apply_filters
from repro.measurement import ColumnarTrace, ShardedTrace, Trace
from repro.synthesis import (
    SynthesisConfig,
    TraceCache,
    TraceSynthesizer,
    load_or_synthesize_columnar,
    load_or_synthesize_sharded,
)

__all__ = ["ExperimentResult", "ExperimentContext", "format_rows"]


@dataclass
class ExperimentResult:
    """Outcome of reproducing one paper artifact."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **row: object) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        """Human-readable table of the result."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_rows(self.rows))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def format_rows(rows: List[Dict[str, object]]) -> str:
    """Align row dicts into a fixed-width text table."""
    if not rows:
        return "  (no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  " + "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    body = [
        "  " + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rendered
    ]
    return "\n".join([header] + body)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


class ExperimentContext:
    """Shared synthesized trace and derived views for a batch of experiments.

    Synthesis and filtering run lazily, once, and are reused by every
    experiment -- the same way the paper derives all figures from one
    trace.

    ``jobs`` overrides the config's synthesis worker count; ``cache``
    selects the content-addressed trace cache (True for the default
    location, a :class:`~repro.synthesis.TraceCache` for a specific one,
    False -- the default -- to always synthesize fresh, keeping library
    and test runs hermetic; the CLI opts in).

    The Table 2-3, Figure 1-11, C1 and Appendix-fit products all come
    from one streaming pass (:attr:`streaming`): rules 1-5 and every
    reducer fold the trace chunk by chunk.  ``stream`` only says where
    the trace lives.  ``stream=True`` synthesizes time-ordered shards to
    disk (:attr:`shards`) and folds them one at a time, in bounded
    memory; the default folds the in-memory :attr:`columnar` trace as a
    single chunk.  The record views (:attr:`trace`, :attr:`filtered`)
    are built only for the experiments that still read records (X1-X4;
    G1 reads only the seed and runs the generator); in stream mode they
    come from the concatenated shards.
    ``shard_hours`` sets the shard window width (the config's
    ``shard_days`` drives both sharded synthesis and shard granularity).
    """

    #: Default scale: big enough for stable distributions, small enough
    #: to synthesize in tens of seconds.
    DEFAULT = SynthesisConfig(days=2.0, mean_arrival_rate=0.35, seed=20040315)

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        jobs: Optional[int] = None,
        cache: Union[bool, TraceCache] = False,
        stream: bool = False,
        shard_hours: Optional[float] = None,
    ):
        self.config = config or self.DEFAULT
        if jobs is not None:
            self.config = replace(self.config, jobs=jobs)
        if shard_hours is not None:
            self.config = replace(self.config, shard_days=float(shard_hours) / 24.0)
        self.cache = TraceCache() if cache is True else (cache or None)
        self.stream = bool(stream)

    @cached_property
    def trace(self) -> Trace:
        return self.columnar.to_trace()

    @cached_property
    def columnar(self) -> ColumnarTrace:
        """The trace as columns -- the primary product.

        The columnar synthesis backend emits this directly (no per-event
        Python loop), a warm ``.npz`` cache entry loads it as plain array
        bundles, and the record view (:attr:`trace`) is derived from it
        on demand.
        """
        if self.stream:
            # Streamed contexts still serve whole-trace consumers; the
            # shard windows partition the sort keys, so this is
            # byte-identical to a direct run_columnar().
            return self.shards.concat()
        if self.cache is None:
            return TraceSynthesizer(self.config).run_columnar()
        return load_or_synthesize_columnar(self.config, cache=self.cache)

    @cached_property
    def shards(self) -> ShardedTrace:
        """The trace as time-ordered on-disk shards (stream mode).

        Hermetic (cache-less) contexts synthesize into a private
        temporary directory that lives as long as the context; cached
        contexts synthesize straight into (or open) the shared sharded
        cache entry.
        """
        if self.cache is None:
            self._shard_dir = tempfile.TemporaryDirectory(prefix="repro-p2p-shards-")
            return TraceSynthesizer(self.config).run_sharded(
                Path(self._shard_dir.name) / "trace"
            )
        return load_or_synthesize_sharded(self.config, cache=self.cache)

    @property
    def source(self) -> Union[ShardedTrace, ColumnarTrace]:
        """The trace where it lives: :attr:`shards` in stream mode, else
        :attr:`columnar`."""
        return self.shards if self.stream else self.columnar

    @cached_property
    def streaming(self) -> StreamingAnalysis:
        """Rules 1-5 and the Table 2-3 / Figure 1-11 reducers in one pass:
        over the shards in stream mode, else over :attr:`columnar` as one
        chunk."""
        return run_streaming(self.shards if self.stream else [self.columnar])

    @cached_property
    def filtered(self) -> FilterResult:
        return apply_filters(self.trace.sessions)

    @cached_property
    def views(self) -> List[ActiveSession]:
        return self.streaming.active.views()
