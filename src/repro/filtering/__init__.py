"""Section 3.3 filter rules: separating user behaviour from client software."""

from .columnar import ColumnarFilterResult, apply_filters_columnar
from .pipeline import FilterReport, FilterResult, apply_filters
from .streaming import StreamingFilter
from .rules import (
    INTERARRIVAL_EPSILON,
    rule1_sha1,
    rule2_duplicates,
    rule3_short_sessions,
    rule45_interarrival_marks,
)

__all__ = [
    "FilterReport", "FilterResult", "apply_filters",
    "ColumnarFilterResult", "apply_filters_columnar",
    "StreamingFilter",
    "INTERARRIVAL_EPSILON", "rule1_sha1", "rule2_duplicates",
    "rule3_short_sessions", "rule45_interarrival_marks",
]
