"""Core workload model: the paper's primary contribution.

This subpackage contains the model distribution families (Appendix),
the published parameter tables, the query popularity model (Section 4.6),
and the Figure 12 synthetic workload generator.
"""

from .kernels import segmented_arange, segmented_cumsum
from .distributions import (
    Distribution,
    Empirical,
    Exponential,
    Lognormal,
    Pareto,
    Spliced,
    Truncated,
    Uniform,
    Weibull,
    Zipf,
)
from .events import GeneratedQuery, GeneratedSession, QueryRecord, SessionRecord
from .fitting import (
    SplicedFit,
    ZipfFit,
    fit_lognormal,
    fit_pareto,
    fit_spliced,
    fit_weibull,
    fit_zipf,
    fit_zipf_body_tail,
    ks_distance,
)
from .generator import SyntheticWorkloadGenerator
from .generator_columnar import (
    ColumnarWorkload,
    GeneratorTables,
    generate_columnar_workload,
    major_region_cum,
)
from .model import (
    WorkloadModel,
    first_query_class_codes,
    interarrival_class_codes,
    last_query_class_codes,
)
from .popularity import (
    BodyTailZipf,
    ClassRankSampler,
    QueryClassId,
    QueryUniverse,
    SampledQuery,
    region_class_probabilities,
    top_n_overlap,
    zipf_for_class,
)
from .runtime import available_cpus, peak_rss_mb
from .regions import (
    KEY_PERIODS,
    MAJOR_REGIONS,
    PEAK_HOURS,
    KeyPeriod,
    Region,
    hour_of_day,
    is_peak_hour,
    local_hour,
)
from .stats import Ccdf, TimeOfDayBinner, ccdf_at, empirical_ccdf, log_bins, rank_pmf
from .validation import (
    ComparisonVerdict,
    KsResult,
    ccdf_max_gap,
    compare_models,
    ks_two_sample,
    quantile_report,
)
from .workload_io import (
    from_jsonl,
    from_npz,
    session_record,
    to_csv,
    to_event_schedule,
    to_jsonl,
    to_npz,
)

__all__ = [
    # arrays / runtime
    "available_cpus", "peak_rss_mb", "segmented_arange", "segmented_cumsum",
    # distributions
    "Distribution", "Empirical", "Exponential", "Lognormal", "Pareto",
    "Spliced", "Truncated", "Uniform", "Weibull", "Zipf",
    # events
    "GeneratedQuery", "GeneratedSession", "QueryRecord", "SessionRecord",
    # fitting
    "SplicedFit", "ZipfFit", "fit_lognormal", "fit_pareto", "fit_spliced",
    "fit_weibull", "fit_zipf", "fit_zipf_body_tail", "ks_distance",
    # generator / model
    "SyntheticWorkloadGenerator", "WorkloadModel",
    "ColumnarWorkload", "GeneratorTables", "generate_columnar_workload",
    "major_region_cum", "first_query_class_codes", "interarrival_class_codes",
    "last_query_class_codes",
    # popularity
    "BodyTailZipf", "ClassRankSampler", "QueryClassId", "QueryUniverse",
    "SampledQuery", "region_class_probabilities", "top_n_overlap",
    "zipf_for_class",
    # regions
    "KEY_PERIODS", "MAJOR_REGIONS", "PEAK_HOURS", "KeyPeriod", "Region",
    "hour_of_day", "is_peak_hour", "local_hour",
    # stats
    "Ccdf", "TimeOfDayBinner", "ccdf_at", "empirical_ccdf", "log_bins", "rank_pmf",
    # validation
    "ComparisonVerdict", "KsResult", "ccdf_max_gap", "compare_models",
    "ks_two_sample", "quantile_report",
    # workload io
    "from_jsonl", "from_npz", "session_record", "to_csv", "to_event_schedule",
    "to_jsonl", "to_npz",
]
