"""Streamed-vs-in-memory exactness check for the out-of-core pipeline.

:func:`streamed_equivalence_checks` runs one configuration both ways --
synthesis spilled to time-ordered shards with rules 1-5 and every
Fig. 1-11 reducer in a single streaming pass, and the in-memory
columnar/record path -- and reports whether the Table 2 report and
every figure product are *bit-identical* (tolerance 0.0: the reducers
are engineered for identical reduction order, not KS-approximate
agreement).

The tier-1 suite runs it at test scale; the repository benchmark's
``paper-trace`` workload (``perfbench/paper_trace.py``, declared in
``BENCHMARK.json``) runs it as an output check and times the streamed
paper scenario end to end.  The 40-day memory budget is enforced by
``repro-p2p experiment all --stream --scenario paper --max-rss-mb 2048``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.core.regions import Region
from repro.filtering import apply_filters_columnar
from repro.synthesis import SynthesisConfig, TraceSynthesizer

from .active import active_sessions
from .correlations import session_correlations
from .geographic import geographic_distribution
from .load import query_load
from .passive import (
    passive_duration_ccdf_by_period,
    passive_duration_ccdf_by_region,
    passive_fraction_by_hour,
)
from .popularity import daily_region_counts
from .shared_files import shared_files_distribution
from .streaming import run_streaming

__all__ = ["streamed_equivalence_checks"]

_MAJOR = (Region.NORTH_AMERICA, Region.EUROPE, Region.ASIA)


def _arrays_equal(a, b) -> bool:
    """Exact equality, treating NaN == NaN (both sides compute the same NaNs)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        af = a.astype(np.float64)
        bf = b.astype(np.float64)
        return bool(np.all((af == bf) | (np.isnan(af) & np.isnan(bf))))
    return bool(np.array_equal(a, b))


def _ccdfs_equal(a, b) -> bool:
    return _arrays_equal(a.x, b.x) and _arrays_equal(a.fraction, b.fraction)


def _ccdf_dicts_equal(a, b) -> bool:
    if set(a) != set(b):
        return False
    return all(_ccdfs_equal(a[k], b[k]) for k in a)


def _traces_identical(a, b) -> bool:
    """Field-by-field exact equality of two ``ColumnarTrace`` bundles."""
    import dataclasses

    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if va.dtype != vb.dtype or not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def streamed_equivalence_checks(config: SynthesisConfig, workdir: Union[str, Path]) -> dict:
    """Streamed vs. in-memory products at the SAME config: exact equality.

    Both pipelines must run the same configuration (including
    ``shard_days``): the shard windows partition the synthesis RNG
    streams, so a sharded config compared against an unsharded one would
    legitimately differ.  With the config held fixed, every product is
    required to match bit for bit -- the returned ``tolerance`` is 0.0
    by construction, recorded so the report states what "equal" meant.
    """
    workdir = Path(workdir)
    sharded = TraceSynthesizer(config).run_sharded(workdir / "equivalence-trace")
    streamed = run_streaming(sharded)

    full = TraceSynthesizer(config).run_columnar()
    block = apply_filters_columnar(full)
    record = full.to_trace()
    views = active_sessions(block)

    checks = {}
    checks["trace_concat_byte_identical"] = _traces_identical(sharded.concat(), full)
    checks["table2_report"] = streamed.report.as_dict() == block.report.as_dict()

    geo = geographic_distribution(record)
    checks["f1_geographic"] = all(
        _arrays_equal(streamed.geographic.one_hop[r], geo.one_hop[r])
        and _arrays_equal(streamed.geographic.all_peers[r], geo.all_peers[r])
        for r in _MAJOR
    )
    shared = shared_files_distribution(record)
    checks["f2_shared_files"] = _arrays_equal(
        streamed.shared_files.one_hop, shared.one_hop
    ) and _arrays_equal(streamed.shared_files.all_peers, shared.all_peers)
    load = query_load(record.sessions)
    checks["f3_load"] = set(streamed.load) == set(load) and all(
        _arrays_equal(streamed.load[r].average, load[r].average)
        and _arrays_equal(streamed.load[r].minimum, load[r].minimum)
        and _arrays_equal(streamed.load[r].maximum, load[r].maximum)
        for r in load
    )
    frac = passive_fraction_by_hour(block.to_filter_result().sessions)
    checks["f4_passive_fraction"] = set(streamed.passive_fraction) == set(frac) and all(
        _arrays_equal(streamed.passive_fraction[r].average, frac[r].average)
        for r in frac
    )
    checks["f5_passive_durations"] = _ccdf_dicts_equal(
        streamed.passive.by_region(), passive_duration_ccdf_by_region(block)
    ) and all(
        _ccdf_dicts_equal(
            streamed.passive.by_period(region),
            passive_duration_ccdf_by_period(block, region),
        )
        for region in (Region.NORTH_AMERICA, Region.EUROPE)
    )

    active = streamed.active
    from .active import (
        first_query_ccdf,
        interarrival_ccdf,
        queries_per_session_ccdf,
        queries_per_session_ccdf_unfiltered,
        time_after_last_ccdf,
    )

    checks["f6_queries_per_session"] = _ccdf_dicts_equal(
        active.queries_per_session_ccdf(), queries_per_session_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.queries_per_session_ccdf_unfiltered(),
        queries_per_session_ccdf_unfiltered(views),
    )
    checks["f7_first_query"] = _ccdf_dicts_equal(
        active.first_query_ccdf(), first_query_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.first_query_ccdf(region=Region.NORTH_AMERICA, by_query_class=True),
        first_query_ccdf(views, region=Region.NORTH_AMERICA, by_query_class=True),
    )
    checks["f8_interarrival"] = _ccdf_dicts_equal(
        active.interarrival_ccdf(), interarrival_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.interarrival_ccdf(region=Region.EUROPE, by_query_class=True),
        interarrival_ccdf(views, region=Region.EUROPE, by_query_class=True),
    )
    checks["f9_time_after_last"] = _ccdf_dicts_equal(
        active.time_after_last_ccdf(), time_after_last_ccdf(views)
    ) and _ccdf_dicts_equal(
        active.time_after_last_ccdf(region=Region.NORTH_AMERICA, by_query_class=True),
        time_after_last_ccdf(views, region=Region.NORTH_AMERICA, by_query_class=True),
    )
    checks["c1_correlations"] = all(
        [
            (c.name, c.rho, c.n, c.significant)
            for c in active.correlations(region=region)
        ]
        == [
            (c.name, c.rho, c.n, c.significant)
            for c in session_correlations(views, region=region)
        ]
        for region in (None, *_MAJOR)
    )
    checks["t3_f10_f11_daily_counts"] = streamed.daily == daily_region_counts(block)

    return {
        "days": config.days,
        "tolerance": 0.0,
        "checks": checks,
        "all_identical": all(checks.values()),
    }

