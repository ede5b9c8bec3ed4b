"""In-memory span tracer patched around the program's public layer calls.

Only the traced run (``--trace 1``) installs it; the untraced run executes
the program unmodified.  Each span records its name, start and end
(``perf_counter_ns``), parent span, the run id and optional counts.
Spans stay in memory and are written out as JSON lines when the run ends.

A layer's *self time* is its span durations minus the part covered by
child spans, so the self times of every span under a root add up to the
root's duration exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional


def spanner(tracer: Optional["Tracer"]):
    """``tracer.span`` when tracing, else a span factory that records nothing."""
    return tracer.span if tracer is not None else (lambda name: nullcontext())


class Span:
    __slots__ = ("id", "name", "parent", "start_ns", "end_ns", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int], start_ns: int):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.counts: Dict[str, float] = {}

    def as_dict(self, run_id: str) -> dict:
        return {
            "run_id": run_id,
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "counts": self.counts,
        }


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(s.name == name for s in self._stack)

    # -- patching ------------------------------------------------------------

    def _wrap(self, original, name: str, counts, skip_inside):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip_inside is not None and self.inside(skip_inside):
                return original(*args, **kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
                if counts is not None:
                    span.counts.update(counts(args, result))
                return result

        return wrapper

    def patch_method(self, cls, attr: str, name: str, counts=None, skip_inside=None):
        """Wrap ``cls.attr`` in a span named ``name``."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, counts, skip_inside))
        self._undo.append(lambda: setattr(cls, attr, original))

    def patch_function(self, module, attr: str, name: str, counts=None):
        """Wrap a module-level function everywhere it was imported.

        ``from x import f`` copies the binding, so every loaded ``repro``
        module holding the same function object gets the wrapper.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, counts, None)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(lambda m=mod, k=key: setattr(m, k, original))

    def unpatch(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -----------------------------------------------------------

    def _self_s(self) -> Dict[int, float]:
        covered: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end_ns - span.start_ns
        return {s.id: (s.end_ns - s.start_ns - covered[s.id]) / 1e9 for s in self.spans}

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        out: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self._self_s().values()):
            out[span.name] += seconds
        return dict(out)

    def self_times_by_path(self) -> Dict[str, float]:
        """Seconds of self time per span path (``root/child/...`` names)."""
        paths: Dict[int, str] = {}
        out: Dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self._self_s().values()):
            # A parent is always recorded before its children.
            paths[span.id] = span.name if span.parent is None else f"{paths[span.parent]}/{span.name}"
            out[paths[span.id]] += seconds
        return dict(out)

    def total_s(self, name: str) -> float:
        """Seconds summed over every span named ``name`` (children included)."""
        return sum(s.end_ns - s.start_ns for s in self.spans if s.name == name) / 1e9

    def durations_s(self, name: str) -> List[float]:
        return [(s.end_ns - s.start_ns) / 1e9 for s in self.spans if s.name == name]

    def count(self, key: str, name: Optional[str] = None) -> float:
        return sum(
            s.counts.get(key, 0)
            for s in self.spans
            if name is None or s.name == name
        )

    def nesting_errors(self) -> int:
        """Spans that do not lie within their parent's interval."""
        return sum(
            1
            for s in self.spans
            if s.parent is not None
            and not (self.spans[s.parent].start_ns <= s.start_ns <= s.end_ns <= self.spans[s.parent].end_ns)
        )

    def extend(self, path: Path) -> None:
        """Append the spans another process wrote with :meth:`write`."""
        offset = len(self.spans)
        with path.open() as fh:
            for line in fh:
                row = json.loads(line)
                parent = None if row["parent"] is None else row["parent"] + offset
                span = Span(row["id"] + offset, row["name"], parent, row["start_ns"])
                span.end_ns = row["end_ns"]
                span.counts = row["counts"]
                self.spans.append(span)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(self.run_id)) + "\n")
