"""Single-pass streaming port of the Section 3.3 filter rules.

:class:`StreamingFilter` consumes a time-ordered sequence of
:class:`~repro.measurement.columnar.ColumnarTrace` chunks -- the shards
of a :class:`~repro.measurement.shards.ShardedTrace`, or one in-memory
trace as a single chunk -- and applies rules 1-5 to each, carrying only
the running Table 2 totals between chunks.  The summed
:class:`FilterReport` is bit-identical to running
:func:`apply_filters_columnar` over the whole trace at once, because
every rule is strictly per-session:

* rules 1-3 are per-query/per-session masks and per-session sums;
* rules 4-5 look only at adjacent surviving queries *within* a session.

Chunks must therefore hold complete sessions.  Shards produced by
``TraceSynthesizer.run_sharded`` always do: a session lives in the shard
its *arrival* falls in.
"""

from __future__ import annotations

from typing import Optional

from repro.measurement.columnar import ColumnarTrace

from .columnar import ColumnarFilterResult, apply_filters_columnar
from .pipeline import FilterReport

__all__ = ["StreamingFilter"]


class StreamingFilter:
    """Applies rules 1-5 one chunk at a time, summing the Table 2 report.

    ``push`` returns the chunk's :class:`ColumnarFilterResult`.  Chunks
    must arrive in time order, each holding whole sessions.  ``finish``
    ends the pass; no state outlives the last chunk, so it returns
    ``None``.
    """

    def __init__(self) -> None:
        self.report = FilterReport()

    def push(self, chunk: ColumnarTrace) -> ColumnarFilterResult:
        result = apply_filters_columnar(chunk)
        for name, value in result.report.as_dict().items():
            setattr(self.report, name, getattr(self.report, name) + value)
        return result

    def finish(self) -> Optional[ColumnarFilterResult]:
        """End the pass (nothing is held back between chunks)."""
        return None
