"""Query popularity model: geographic query classes, per-day Zipf ranking,
and hot-set drift.

Section 4.6 of the paper finds that (1) queries split into seven disjoint
geographic classes (one per region, one per region pair, one shared by all
three -- Table 3); (2) within a class, per-day popularity is Zipf-like
(Figure 11), with the NA/EU intersection class needing a body/tail fit;
and (3) the identity of the popular queries drifts substantially from day
to day (Figure 10), so popularity must be ranked per day, not over the
whole trace.

:class:`QueryUniverse` implements all three: it maintains per-class query
pools whose daily scores follow an autoregressive process (producing
hot-set drift with tunable persistence), exposes the per-day ranked query
sets, and samples queries for a (region, day) pair via the class-choice
probabilities and the class's Zipf distribution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import Zipf
from .kernels import CategoricalTable, CategoricalTableStack, group_slices, stable_order
from .parameters import (
    INTERSECTION_ZIPF,
    OWN_CLASS_PROBABILITY,
    QUERY_CLASS_SIZES,
    ZIPF_ALPHA,
    QueryClassSizes,
)
from .regions import Region

__all__ = [
    "CLASS_CODE",
    "CLASS_ORDER",
    "QueryClassId",
    "region_class_probabilities",
    "BodyTailZipf",
    "zipf_for_class",
    "QueryUniverse",
]


class QueryClassId(enum.Enum):
    """The seven disjoint geographic query classes of Section 4.6."""

    NA_ONLY = "na_only"
    EU_ONLY = "eu_only"
    AS_ONLY = "as_only"
    NA_EU = "na_eu"
    NA_AS = "na_as"
    EU_AS = "eu_as"
    ALL = "all"


#: Stable class <-> small-integer code table for the columnar synthesis
#: fast path: query identities travel through the vectorized pipeline as
#: ``(class code, rank)`` integer pairs and are resolved to strings once,
#: at the very end, via :meth:`QueryUniverse.ranking_array`.
CLASS_ORDER: Tuple[QueryClassId, ...] = tuple(QueryClassId)
CLASS_CODE: Dict[QueryClassId, int] = {c: i for i, c in enumerate(CLASS_ORDER)}

_REGION_OWN_CLASS: Dict[Region, QueryClassId] = {
    Region.NORTH_AMERICA: QueryClassId.NA_ONLY,
    Region.EUROPE: QueryClassId.EU_ONLY,
    Region.ASIA: QueryClassId.AS_ONLY,
}

_REGION_SHARED_CLASSES: Dict[Region, Tuple[QueryClassId, ...]] = {
    Region.NORTH_AMERICA: (QueryClassId.NA_EU, QueryClassId.NA_AS, QueryClassId.ALL),
    Region.EUROPE: (QueryClassId.NA_EU, QueryClassId.EU_AS, QueryClassId.ALL),
    Region.ASIA: (QueryClassId.NA_AS, QueryClassId.EU_AS, QueryClassId.ALL),
}


def _class_size(sizes: QueryClassSizes, cls: QueryClassId) -> int:
    return {
        QueryClassId.NA_ONLY: sizes.na_only,
        QueryClassId.EU_ONLY: sizes.eu_only,
        QueryClassId.AS_ONLY: sizes.as_only,
        QueryClassId.NA_EU: sizes.na_eu,
        QueryClassId.NA_AS: sizes.na_as,
        QueryClassId.EU_AS: sizes.eu_as,
        QueryClassId.ALL: sizes.all_three,
    }[cls]


def region_class_probabilities(region: Region) -> Dict[QueryClassId, float]:
    """Probability that a query from ``region`` falls in each class.

    The own-region class carries probability 0.97 (Section 4.6's worked
    example); the remaining 0.03 is split across the region's shared
    classes proportionally to their Table 3 single-day sizes.
    """
    if region is Region.OTHER:
        region = Region.NORTH_AMERICA
    sizes = QUERY_CLASS_SIZES[1]
    shared = _REGION_SHARED_CLASSES[region]
    weights = np.array([_class_size(sizes, c) for c in shared], dtype=float)
    if weights.sum() <= 0:
        raise ValueError(f"no shared query classes for {region}")
    probs = {_REGION_OWN_CLASS[region]: OWN_CLASS_PROBABILITY}
    rest = 1.0 - OWN_CLASS_PROBABILITY
    for cls, w in zip(shared, weights / weights.sum()):
        probs[cls] = rest * float(w)
    return probs


class BodyTailZipf:
    """Discrete rank distribution with two Zipf regimes (Figure 11c).

    Ranks ``1..split`` follow exponent ``alpha_body``; ranks beyond follow
    the much steeper ``alpha_tail``, continuous at the split point.
    """

    def __init__(self, alpha_body: float, alpha_tail: float, split: int, n: int):
        if not 1 <= split < n:
            raise ValueError(f"need 1 <= split < n, got split={split}, n={n}")
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks**-alpha_body
        # Continue the tail from the body's value at the split rank.
        tail_ranks = ranks[split:]
        weights[split:] = weights[split - 1] * (tail_ranks / float(split)) ** -alpha_tail
        self.alpha_body = alpha_body
        self.alpha_tail = alpha_tail
        self.split = split
        self.n = n
        self._pmf = weights / weights.sum()
        self._cdf = np.cumsum(self._pmf)
        self._table = None  # lazy kernels.CategoricalTable over _cdf

    def pmf(self, rank: int) -> float:
        if not 1 <= rank <= self.n:
            return 0.0
        return float(self._pmf[rank - 1])

    def sample(self, rng: np.random.Generator, size=None):
        if self._table is None:
            self._table = CategoricalTable(self._cdf)
        ranks = self._table.lookup(rng.random(size)) + 1
        return int(ranks) if size is None else ranks.astype(int)

    def __repr__(self):
        return (
            f"BodyTailZipf(body={self.alpha_body}, tail={self.alpha_tail}, "
            f"split={self.split}, n={self.n})"
        )


def zipf_for_class(cls: QueryClassId, n: int):
    """The Figure 11 popularity distribution for a query class of size ``n``."""
    if n < 1:
        raise ValueError(f"class size must be >= 1, got {n}")
    if cls is QueryClassId.NA_EU and n > INTERSECTION_ZIPF["split_rank"] + 1:
        return BodyTailZipf(
            alpha_body=ZIPF_ALPHA["na_eu_body"],
            alpha_tail=ZIPF_ALPHA["na_eu_tail"],
            split=INTERSECTION_ZIPF["split_rank"],
            n=n,
        )
    alpha = {
        QueryClassId.NA_ONLY: ZIPF_ALPHA["na_only"],
        QueryClassId.EU_ONLY: ZIPF_ALPHA["eu_only"],
        QueryClassId.AS_ONLY: ZIPF_ALPHA["as_only"],
        QueryClassId.NA_EU: ZIPF_ALPHA["na_eu_body"],
        QueryClassId.NA_AS: ZIPF_ALPHA["na_eu_body"],
        QueryClassId.EU_AS: ZIPF_ALPHA["na_eu_body"],
        QueryClassId.ALL: ZIPF_ALPHA["na_eu_body"],
    }[cls]
    return Zipf(alpha=alpha, n=n)


@dataclass(frozen=True)
class SampledQuery:
    """A query drawn from the universe."""

    keywords: str
    rank: int
    query_class: QueryClassId


class QueryUniverse:
    """Per-day query universes with hot-set drift.

    Each class owns a pool ``pool_factor`` times its daily size.  A
    query's daily log-score follows an AR(1) process
    ``g(d) = rho * g(d-1) + sqrt(1 - rho**2) * N(0, 1)`` on top of a mild
    long-term base weight; each day the top ``daily_size`` scorers form
    the day's ranked query set.  The autocorrelation ``persistence``
    (rho) controls hot-set drift: the default reproduces the Figure 10
    observation that for ~80% of days at most 4 of the top 10 queries
    reappear in the next day's top 100.
    """

    def __init__(
        self,
        period_days: int = 1,
        seed: int = 20040315,
        pool_factor: float = 5.0,
        persistence: float = 0.55,
        scale: float = 1.0,
    ):
        if period_days not in QUERY_CLASS_SIZES:
            raise ValueError(
                f"period_days must be one of {sorted(QUERY_CLASS_SIZES)}, got {period_days}"
            )
        if not 0.0 <= persistence < 1.0:
            raise ValueError(f"persistence must be in [0, 1), got {persistence}")
        self.period_days = period_days
        self.persistence = persistence
        self._rng = np.random.default_rng(seed)
        self._sizes = QUERY_CLASS_SIZES[period_days]
        self._daily_size: Dict[QueryClassId, int] = {}
        self._pool: Dict[QueryClassId, List[str]] = {}
        self._pool_arrays: Dict[QueryClassId, np.ndarray] = {}
        self._base_weight: Dict[QueryClassId, np.ndarray] = {}
        self._scores: Dict[QueryClassId, Dict[int, np.ndarray]] = {}
        self._rankings: Dict[Tuple[QueryClassId, int], List[str]] = {}
        self._ranking_arrays: Dict[Tuple[QueryClassId, int], np.ndarray] = {}
        self._lookup_index: Dict[int, Dict[str, Tuple[QueryClassId, int]]] = {}
        self._popularity_cache: Dict[QueryClassId, object] = {}
        self._region_cum_cache: Dict[Region, tuple] = {}
        self._region_table_cache: Dict[Region, CategoricalTable] = {}
        self._noise_sigma = 2.0
        for cls in QueryClassId:
            size = max(1, int(round(_class_size(self._sizes, cls) * scale)))
            pool_size = max(size + 2, int(round(size * pool_factor)))
            self._daily_size[cls] = size
            # Vectorized f"{cls.value}-q{idx:05d}": zfill pads to >= 5
            # digits and leaves longer indices alone, exactly like %05d.
            pool_arr = np.char.add(
                f"{cls.value}-q",
                np.char.zfill(np.arange(pool_size, dtype=np.int64).astype("U11"), 5),
            )
            self._pool[cls] = pool_arr.tolist()
            self._pool_arrays[cls] = pool_arr
            ranks = np.arange(1, pool_size + 1, dtype=float)
            # Mild long-term skew: persistent favourites exist, but the
            # daily lognormal noise (sigma = 2) dominates rank identity.
            self._base_weight[cls] = -0.3 * np.log(ranks)
            self._scores[cls] = {}

    def daily_size(self, cls: QueryClassId) -> int:
        """Number of distinct queries the class contributes per period."""
        return self._daily_size[cls]

    def lookup(self, day: int, keywords: str):
        """Resolve a query string to its (class, rank) on ``day``.

        Returns None for strings outside that day's universe (e.g. SHA1
        source-search urns).  Used by the hit model: a responder count
        depends on how widely replicated the queried file is, which
        tracks the query's popularity rank.
        """
        index = self._lookup_index.get(day)
        if index is None:
            index = {}
            for cls in QueryClassId:
                for rank, query in enumerate(self.daily_ranking(day, cls), start=1):
                    index[query] = (cls, rank)
            self._lookup_index[day] = index
        return index.get(keywords)

    def daily_ranking(self, day: int, cls: QueryClassId) -> List[str]:
        """The day's query strings for ``cls``, most popular first."""
        if day < 0:
            raise ValueError(f"day must be >= 0, got {day}")
        key = (cls, day)
        if key not in self._rankings:
            scores = self._scores_for(cls, day)
            order = np.argsort(-scores)[: self._daily_size[cls]]
            self._rankings[key] = self._pool_arrays[cls][order].tolist()
        return self._rankings[key]

    def popularity_distribution(self, cls: QueryClassId):
        """Figure 11 rank distribution for this class's daily set."""
        dist = self._popularity_cache.get(cls)
        if dist is None:
            dist = zipf_for_class(cls, self._daily_size[cls])
            self._popularity_cache[cls] = dist
        return dist

    def prebuild(self, max_day: int) -> "QueryUniverse":
        """Materialize rankings for days ``0..max_day`` in canonical order.

        The AR(1) score chains consume ``self._rng`` lazily, so two
        universes with the same seed agree only if they build days and
        classes in the same order.  Parallel trace shards call this
        before sampling: every shard then holds byte-identical daily
        rankings, and sessions merged from different shards draw from
        one consistent content universe.  Returns ``self`` for chaining.
        """
        for day in range(max_day + 1):
            for cls in QueryClassId:
                self.daily_ranking(day, cls)
        return self

    def _region_class_cum(self, region: Region):
        """(classes, cumulative weights) for ``region``, cached."""
        cached = self._region_cum_cache.get(region)
        if cached is None:
            probs = region_class_probabilities(region)
            classes = tuple(probs)
            weights = np.array([probs[c] for c in classes], dtype=float)
            cached = (classes, np.cumsum(weights / weights.sum()))
            self._region_cum_cache[region] = cached
        return cached

    def _region_class_table(self, region: Region) -> CategoricalTable:
        """O(1) class-choice draw table over :meth:`_region_class_cum`."""
        table = self._region_table_cache.get(region)
        if table is None:
            table = CategoricalTable(self._region_class_cum(region)[1])
            self._region_table_cache[region] = table
        return table

    def sample(self, rng: np.random.Generator, day: int, region: Region) -> SampledQuery:
        """Draw one query for a peer of ``region`` active on ``day``.

        Implements steps (c)(ii)-(iii) of the Figure 12 algorithm: choose
        the query class, then the rank within the class's daily set.
        """
        classes, _ = self._region_class_cum(region)
        cls = classes[int(self._region_class_table(region).lookup(rng.random()))]
        dist = self.popularity_distribution(cls)
        rank = int(dist.sample(rng))
        ranking = self.daily_ranking(day, cls)
        rank = min(rank, len(ranking))
        return SampledQuery(keywords=ranking[rank - 1], rank=rank, query_class=cls)

    def sample_batch(
        self, rng: np.random.Generator, day: int, region: Region, count: int
    ) -> List[SampledQuery]:
        """``count`` draws from :meth:`sample`'s model with batched RNG.

        Classes are chosen with one vectorized inverse-CDF pass, then
        ranks are drawn per class group through the (vectorized) Zipf
        quantile function -- one ``ppf`` call per distinct class instead
        of one scalar ``rng.choice`` plus one scalar ``ppf`` per query.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return []
        classes, _ = self._region_class_cum(region)
        picks = self._region_class_table(region).sample(rng, count)
        out: List[Optional[SampledQuery]] = [None] * count
        for cls_index in np.unique(picks):
            cls = classes[int(cls_index)]
            positions = np.nonzero(picks == cls_index)[0]
            ranks = self.popularity_distribution(cls).sample(rng, size=positions.size)
            ranking = self.daily_ranking(day, cls)
            for pos, rank in zip(positions, np.asarray(ranks, dtype=int)):
                rank = min(int(rank), len(ranking))
                out[pos] = SampledQuery(
                    keywords=ranking[rank - 1], rank=rank, query_class=cls
                )
        return out

    def ranking_array(self, day: int, cls: QueryClassId) -> np.ndarray:
        """:meth:`daily_ranking` as a cached NumPy unicode array.

        The columnar fast path gathers query strings for whole
        ``(day, class)`` groups with one fancy-indexing operation; the
        array form is cached separately so the list form (and everything
        keyed on it) is untouched.
        """
        key = (cls, day)
        arr = self._ranking_arrays.get(key)
        if arr is None:
            arr = np.array(self.daily_ranking(day, cls), dtype=np.str_)
            self._ranking_arrays[key] = arr
        return arr

    def sample_batch_codes(
        self, rng: np.random.Generator, region: Region, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` draws from :meth:`sample`'s model, as integer codes.

        Returns ``(class codes, ranks)`` -- see :data:`CLASS_CODE`; ranks
        are 1-based and already clamped to the class's daily size.  This
        is the string-free form of :meth:`sample_batch`: the day never
        enters the draw (class choice and rank distribution are
        day-independent), so callers resolve codes to strings later with
        :meth:`ranking_array` for whatever day each query lands on.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        classes, _ = self._region_class_cum(region)
        picks = self._region_class_table(region).sample(rng, count)
        cls_codes = np.empty(count, dtype=np.int8)
        ranks = np.empty(count, dtype=np.int64)
        for cls_index in np.unique(picks):
            cls = classes[int(cls_index)]
            positions = np.nonzero(picks == cls_index)[0]
            drawn = self.popularity_distribution(cls).sample(rng, size=positions.size)
            ranks[positions] = np.minimum(
                np.asarray(drawn, dtype=np.int64), self._daily_size[cls]
            )
            cls_codes[positions] = CLASS_CODE[cls]
        return cls_codes, ranks

    def batch_sampler(self) -> "ClassRankSampler":
        """A picklable snapshot of this universe's code-sampling tables.

        The columnar workload generator ships the snapshot to shard
        worker processes instead of the universe itself: class choice
        and rank draws need only the region mix tables and the Figure 11
        rank CDFs, not the pools, rankings, or AR(1) score state.
        """
        return ClassRankSampler.from_universe(self)

    def _scores_for(self, cls: QueryClassId, day: int) -> np.ndarray:
        """AR(1) latent interest ``g`` per query; score = base + sigma * g.

        Scores for day ``d`` are the log-popularity of every pool entry.
        The chain is built sequentially from day 0 so results are
        deterministic for a given seed regardless of query order.
        """
        cache = self._scores[cls]
        if day in cache:
            return self._base_weight[cls] + self._noise_sigma * cache[day]
        start = day
        while start > 0 and (start - 1) not in cache:
            start -= 1
        rho = self.persistence
        innovation_scale = math.sqrt(1.0 - rho * rho)
        n = len(self._pool[cls])
        for d in range(start, day + 1):
            fresh = self._rng.standard_normal(n)
            if d == 0 or (d - 1) not in cache:
                cache[d] = fresh
            else:
                cache[d] = rho * cache[d - 1] + innovation_scale * fresh
        return self._base_weight[cls] + self._noise_sigma * cache[day]


class ClassRankSampler:
    """Vectorized (class, rank) sampling over *mixed-region* query batches.

    A frozen, picklable snapshot of a :class:`QueryUniverse`'s sampling
    tables: per major region the class-choice cumulative weights, and per
    class the Figure 11 rank CDF plus the daily-size clamp.  ``invert``
    performs steps (c)(ii)-(iii) of the Figure 12 algorithm for a whole
    flat query batch whose rows may belong to different regions and
    shards -- the form the columnar generator's lockstep waves need, with
    no RNG or string state of their own.

    Region codes follow :data:`~repro.core.regions.MAJOR_REGIONS` order;
    class codes follow :data:`CLASS_ORDER`.  Each shard's uniforms come
    from one call, carved into the blocks of a per-group draw: for each
    region in code order, one block for the class picks, then one per
    distinct class for the ranks, classes in code order.
    """

    def __init__(
        self,
        region_classes: Sequence[np.ndarray],
        region_cum: Sequence[np.ndarray],
        class_cdfs: Sequence[np.ndarray],
        class_sizes: np.ndarray,
    ):
        self._region_classes = [np.asarray(a, dtype=np.int8) for a in region_classes]
        self._region_cum = [np.asarray(a, dtype=np.float64) for a in region_cum]
        self._class_cdfs = [np.asarray(a, dtype=np.float64) for a in class_cdfs]
        self._class_sizes = np.asarray(class_sizes, dtype=np.int64)
        # Draw tables are built lazily per process and dropped from the
        # pickled snapshot (rebuilding is cheaper than shipping them).
        self._tables = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_tables"] = None
        return state

    @classmethod
    def from_universe(cls, universe: QueryUniverse) -> "ClassRankSampler":
        from .regions import MAJOR_REGIONS

        region_classes, region_cum = [], []
        for region in MAJOR_REGIONS:
            classes, cum = universe._region_class_cum(region)
            region_classes.append(
                np.array([CLASS_CODE[c] for c in classes], dtype=np.int8)
            )
            region_cum.append(np.asarray(cum, dtype=np.float64))
        class_cdfs = [
            np.asarray(universe.popularity_distribution(c)._cdf, dtype=np.float64)
            for c in CLASS_ORDER
        ]
        sizes = np.array([universe.daily_size(c) for c in CLASS_ORDER], dtype=np.int64)
        return cls(region_classes, region_cum, class_cdfs, sizes)

    def _draw_tables(self):
        """(region pick stack, padded region classes, classes per region,
        per-class rank tables), built on first use."""
        if self._tables is None:
            width = max(c.size for c in self._region_cum)
            # Padding with 1.0 never counts as a CDF value below a
            # uniform in [0, 1), so each row inverts as its own table.
            cum = np.ones((len(self._region_cum), width), dtype=np.float64)
            classes = np.zeros((len(self._region_cum), width), dtype=np.int8)
            for r, (row, codes) in enumerate(zip(self._region_cum, self._region_classes)):
                cum[r, :row.size] = row
                classes[r, :codes.size] = codes
            n_classes = np.array([c.size for c in self._region_classes], dtype=np.int64)
            self._tables = (
                CategoricalTableStack(cum),
                classes,
                n_classes,
                [CategoricalTable(c) for c in self._class_cdfs],
            )
        return self._tables

    def invert(
        self, u: np.ndarray, region_codes: np.ndarray, shards: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(class codes, 1-based ranks)`` for each batch row.

        ``u`` holds, shard by shard in ascending shard order, the
        ``2 * n_s`` uniforms of one ``random(2 * n_s)`` call per shard
        with ``n_s`` rows; ``shards`` gives each row's shard.  Within a
        shard, region ``r``'s ``n`` rows take the next ``n`` uniforms as
        class picks, then ``n`` more as ranks in stable class order.
        """
        region_stack, region_classes, n_classes, class_tables = self._draw_tables()
        region = np.asarray(region_codes).astype(np.int64)
        shards = np.asarray(shards)
        n = region.size
        n_regions = len(self._region_cum)
        key = shards * n_regions + region
        bound = n_regions * (int(shards.max(initial=0)) + 1)
        counts = np.bincount(key, minlength=bound)
        # Row ``block`` of the stably (shard, region)-sorted batch opens
        # the row's block; its uniforms start at ``2 * block``.  A row in
        # sorted place ``p`` takes pick ``2 * block + (p - block)``.
        block = (np.cumsum(counts, dtype=np.int64) - counts)[key]
        place = np.empty(n, dtype=np.int64)
        place[stable_order(key, bound)] = np.arange(n, dtype=np.int64)
        picks = region_stack.lookup(region, u[block + place])
        picks = np.minimum(picks, n_classes[region] - 1)
        cls_codes = region_classes[region, picks]
        n_cls = len(class_tables)
        place[stable_order(key * n_cls + cls_codes, bound * n_cls)] = np.arange(
            n, dtype=np.int64
        )
        rank_u = u[block + counts[key] + place]
        ranks = np.empty(n, dtype=np.int64)
        order, keys, bounds = group_slices(cls_codes)
        for g, code in enumerate(keys):
            idx = order[bounds[g]:bounds[g + 1]]
            ranks[idx] = class_tables[int(code)].lookup(rank_u[idx]) + 1
        return cls_codes, np.minimum(ranks, self._class_sizes[cls_codes])


def top_n_overlap(ranking_a: Sequence[str], ranking_b: Sequence[str], rank_range: Tuple[int, int], top_n: int) -> int:
    """How many of ``ranking_a``'s ranks ``[lo, hi]`` appear in ``ranking_b``'s top N.

    This is the Figure 10 drift statistic: e.g. ``rank_range=(1, 10),
    top_n=100`` asks how many of today's top 10 are in tomorrow's top 100.
    Ranks are 1-based and inclusive.
    """
    lo, hi = rank_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid rank range {rank_range}")
    subset = set(ranking_a[lo - 1 : hi])
    return len(subset & set(ranking_b[:top_n]))


__all__.extend(["ClassRankSampler", "SampledQuery", "top_n_overlap"])
