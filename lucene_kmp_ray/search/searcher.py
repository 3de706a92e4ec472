"""Searcher: vectorized per-segment scoring + TopDocs merge.

Execution semantics follow ``IndexSearcher.search`` (SURVEY §3.2): term stats
are resolved globally BEFORE scoring (TermStates/CollectionStatistics —
every segment scores with identical global df/ttf/docCount/avgdl, exactly as
a single Lucene IndexSearcher over all leaves), then each segment produces
its matches and the merge reproduces ``TopDocs.merge`` ordering
(``TopDocs.kt:166-207``): (score desc, segment asc, local doc asc).

Scoring is block/vector-at-a-time numpy instead of doc-at-a-time iterators —
the BooleanScorer 4096-doc-window idea (BooleanScorer.kt:318-319) taken to
whole-posting granularity. Boolean combination:
MUST/FILTER = sorted-docID intersection, SHOULD = union + score sum,
MUST_NOT = anti-join (ReqExclScorer analog), FILTER never contributes score
(BooleanClause.kt:15) and minimumNumberShouldMatch is enforced.

``prune=True`` enables block-max pruning for term queries (WAND family,
WANDScorer.kt / ImpactsDISI.kt / MaxScoreBulkScorer.kt): after
``total_hits_threshold`` (1000, IndexSearcher.kt:1024) hits the collector's
min-competitive score skips 128-doc blocks whose impact bound
score(block_max_freq, block_min_norm) is not competitive; total hits then
becomes a lower bound (TotalHits.Relation.GREATER_THAN_OR_EQUAL_TO,
TotalHits.kt:15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index.reader import IndexReader, SegmentReader
from ..similarity.bm25 import BM25Similarity
from .query import (BlendedTermQuery, BooleanQuery, BoostQuery,
                    DocValuesSetQuery, SortedSetRangeQuery,
                    GeoDistanceFeatureQuery, LongDistanceFeatureQuery,
                    CombinedFieldQuery, ConstantScoreQuery, IndriAndQuery,
                    DisjunctionMaxQuery, FieldExistsQuery,
                    GeoBoxQuery, GeoDistanceQuery, GeoLineQuery,
                    GeoPolygonQuery,
                    KnnByteVectorQuery, ByteVectorSimilarityQuery,
                    KnnFloatVectorQuery, SeededKnnVectorQuery,
                    MatchAllDocsQuery,
                    MatchNoDocsQuery, MultiPhraseQuery, MultiTermQuery,
                    FeatureQuery, IndexOrDocValuesQuery,
                    IndexSortRangeQuery, NGramPhraseQuery,
                    Occur, PhraseQuery, PointInSetQuery, Query,
                    MultiRangeFieldQuery, RangeFieldQuery,
                    RangeFilterQuery, ShapeBoxQuery, ShapeCircleQuery,
                    ShapePolygonQuery,
                    SortedNumericRangeQuery,
                    SynonymQuery, TermInSetQuery,
                    TermQuery,
                    VectorSimilarityQuery, XYBoxQuery, XYCircleQuery,
                    XYLineQuery, XYPolygonQuery)


class _KnnScoredQuery(Query):
    """Rewrite target of KnnFloatVectorQuery: the resolved global
    top-k (seg -> (docs asc, cosine scores)) — the DocAndScoreQuery the
    reference rewrites to (KnnFloatVectorQuery.kt rewrite)."""

    def __init__(self, by_seg: dict):
        self.by_seg = by_seg

    def terms(self):
        return []

TOTAL_HITS_THRESHOLD = 1000  # IndexSearcher.kt:1024


@dataclass
class ScoreDoc:
    score: float
    seg: int
    doc: int            # local docID within segment
    doc_id: int = -1    # global corpus key (resolved on fetch)
    url: str = ""


@dataclass
class TopDocs:
    total_hits: int
    relation: str  # "EQUAL_TO" | "GREATER_THAN_OR_EQUAL_TO"
    score_docs: list[ScoreDoc]


def rrf(top_n: int, k: int, hits: list[TopDocs]) -> TopDocs:
    """Reciprocal Rank Fusion (ref: search/TopDocs.kt:339-392): combine
    ranked lists whose score distributions aren't comparable (e.g. BM25 +
    vector cosine) by summing ``1/(k + rank)`` per document.

    Semantics kept exactly: the sum accumulates in float64 and the final
    score is cast to float32 (``rrfScore`` double map + ``toFloat()``,
    TopDocs.kt:354,385); identity is (shardIndex, doc) — here
    ``(seg, doc)`` with ``seg == -1`` meaning "shardIndex unset", and
    mixing set/unset raises (TopDocs.kt:344-351); tie-break is
    (score desc, doc asc, seg asc) (TopDocs.kt:372-375); total hits =
    max over the inputs with relation GREATER_THAN_OR_EQUAL_TO
    (TopDocs.kt:359,388)."""
    if top_n < 1:
        raise ValueError(f"topN must be >= 1, got {top_n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    shard_set: bool | None = None
    for td in hits:
        for sd in td.score_docs:
            this_set = sd.seg != -1
            if shard_set is None:
                shard_set = this_set
            elif shard_set != this_set:
                raise ValueError(
                    "All hits must either have their ScoreDoc#shardIndex "
                    "set, or unset (-1), not a mix of both.")
    score: dict[tuple[int, int], float] = {}
    proto: dict[tuple[int, int], ScoreDoc] = {}
    total = 0
    for td in hits:
        total = max(total, td.total_hits)
        for rank, sd in enumerate(td.score_docs, start=1):
            key = (sd.seg, sd.doc)
            score[key] = score.get(key, 0.0) + 1.0 / (k + rank)
            proto.setdefault(key, sd)
    order = sorted(score.items(), key=lambda e: (-e[1], e[0][1], e[0][0]))
    out = []
    for (seg, doc), s in order[:top_n]:
        p = proto[(seg, doc)]
        out.append(ScoreDoc(score=float(np.float32(s)), seg=seg, doc=doc,
                            doc_id=p.doc_id, url=p.url))
    return TopDocs(total, "GREATER_THAN_OR_EQUAL_TO", out)


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two ascending unique docID arrays: binary-search the
    shorter into the longer (galloping ConjunctionDISI analog) — avoids
    intersect1d's concatenate+sort of already-sorted inputs."""
    if len(a) > len(b):
        a, b = b, a
    return a[_isin_sorted(a, b)]


def _isin_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Membership mask of values in an ascending unique array (galloping
    ConjunctionDISI analog via searchsorted)."""
    if len(sorted_arr) == 0:
        return np.zeros(len(values), dtype=bool)
    idx = np.searchsorted(sorted_arr, values)
    idx[idx == len(sorted_arr)] = 0
    return sorted_arr[idx] == values


def _ring_counts(flags: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """Per-doc count of set per-vertex ``flags`` over flat rings (doc i
    owns vertices ``[starts[i], starts[i] + counts[i])``). Only the
    non-empty docs' starts go to reduceat: they ascend strictly, so each
    sum runs to the next non-empty doc's start and the last to the end."""
    out = np.zeros(len(counts), np.int64)
    ring = counts > 0
    if ring.any():
        out[ring] = np.add.reduceat(flags.astype(np.int64), starts[ring])
    return out


def _lookup_scores(cand: np.ndarray, docs: np.ndarray,
                   scores: np.ndarray) -> np.ndarray:
    """Scores of cand docs (must all be present in docs, ascending)."""
    return scores[np.searchsorted(docs, cand)]


class Searcher:
    def __init__(self, reader: IndexReader,
                 similarity: BM25Similarity | None = None,
                 query_cache=None, query_caching_policy=None):
        """``query_cache`` defaults to a fresh LRUQueryCache (the
        IndexSearcher default, IndexSearcher.kt DEFAULT_QUERY_CACHE
        role): FILTER / MUST_NOT sub-query doc sets cache per (query,
        segment) once the usage-tracking policy has seen the query
        enough times — pass ``query_cache=False`` to disable."""
        from .querycache import LRUQueryCache, UsageTrackingQueryCachingPolicy
        self.reader = reader
        self.sim = similarity or BM25Similarity()
        self.query_cache = None if query_cache is False else \
            (query_cache or LRUQueryCache())
        self.caching_policy = query_caching_policy or \
            UsageTrackingQueryCachingPolicy()

    def _filter_docs(self, sr: SegmentReader, sub: Query, boost: float):
        """Non-scoring (FILTER / MUST_NOT) sub-query evaluation through
        the LRUQueryCache (LRUQueryCache.kt createWeight wrap): cached
        arrays are read-only and keyed by the frozen query dataclass;
        unhashable rewrite products and small leaves fall through."""
        cache = self.query_cache
        if cache is None or not cache.leaf_cacheable(sr):
            return self._score_segment_raw(sr, sub, boost, False)
        key = sub
        while isinstance(key, (BoostQuery, ConstantScoreQuery)):
            key = key.query  # Lucene unwraps before onUse (asserts)
        try:
            hash(key)
        except TypeError:
            return self._score_segment_raw(sr, sub, boost, False)
        self.caching_policy.on_use(key)
        docs = cache.get(key, sr.seg)
        if docs is None:
            docs, _ = self._score_segment_raw(sr, key, 1.0, False)
            if self.caching_policy.should_cache(key):
                cache.put(key, sr.seg, docs)
        return docs, np.zeros(len(docs), dtype=self.sim.dtype)

    def _sim(self, field: str):
        """Per-field similarity dispatch (PerFieldSimilarityWrapper.kt:
        ``scorer`` delegates to ``get(collectionStats.field)``); a plain
        similarity dispatches to itself."""
        get = getattr(self.sim, "get", None)
        return get(field) if get is not None else self.sim

    # ----- stats resolution (precedes scoring, TermQuery.kt:269) --------
    def _scorer_for_terms(self, terms: list[str], boost: float = 1.0,
                          field: str = "text"):
        stats = self.reader.term_stats(terms, field)
        dfs = [stats[t][0] for t in terms]
        if any(df == 0 for df in dfs) and len(terms) > 1:
            # a phrase containing an unknown term matches nothing
            return None, stats
        dc, sttf = self.reader.field_stats(field)
        ttfs = [stats[t][1] for t in terms]
        return self._sim(field).scorer(boost, dc, sttf, dfs, ttfs), stats

    # ----- per-segment match+score: returns (docs asc, scores) ---------
    def _score_segment(self, sr: SegmentReader, query: Query,
                       boost: float = 1.0, scoring: bool = True):
        """Match+score one segment, with deleted docs subtracted (the
        liveDocs filter of LeafReader; tombstones sidecar, deletes.py).
        Sub-queries recurse through _score_segment_raw; the live filter
        applies exactly once at the top of each segment evaluation."""
        docs, scores = self._score_segment_raw(sr, query, boost, scoring)
        tomb = sr.tombstones
        if tomb is not None and len(docs):
            keep = ~_isin_sorted(docs, tomb)
            docs, scores = docs[keep], scores[keep]
        return docs, scores

    def _score_segment_raw(self, sr: SegmentReader, query: Query,
                           boost: float = 1.0, scoring: bool = True):
        if isinstance(query, BoostQuery):
            return self._score_segment_raw(sr, query.query,
                                           boost * query.boost, scoring)
        if isinstance(query, MatchAllDocsQuery):
            docs = np.arange(sr.doc_count, dtype=np.int64)
            dt = self.sim.dtype
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, MatchNoDocsQuery):
            return _empty(self.sim.dtype)
        if isinstance(query, (KnnFloatVectorQuery, SeededKnnVectorQuery,
                              KnnByteVectorQuery, ByteVectorSimilarityQuery)):
            return self._score_segment_raw(sr, self.rewrite(query), boost,
                                           scoring)
        if isinstance(query, _KnnScoredQuery):
            dt = self.sim.dtype
            hit = query.by_seg.get(sr.seg)
            if hit is None:
                return _empty(dt)
            docs, sims = hit
            if not scoring:
                return docs, np.zeros(len(docs), dtype=dt)
            return docs, (sims * boost).astype(dt)
        if isinstance(query, FieldExistsQuery):
            dt = self.sim.dtype
            dm = sr.doc_meta
            lcol = "length" if query.field == "text" else \
                f"length_{query.field}"
            if lcol in dm.column_names:  # indexed field: ≥1 token
                docs = np.flatnonzero(
                    dm[lcol].to_numpy() > 0).astype(np.int64)
            else:  # doc-meta column: non-null
                col = dm[query.field]
                docs = np.flatnonzero(
                    ~np.asarray(col.is_null())).astype(np.int64)
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, ConstantScoreQuery):
            docs, _ = self._score_segment_raw(sr, query.query, 1.0, False)
            dt = self.sim.dtype
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, TermQuery):
            scorer, _ = self._scorer_for_terms([query.term], boost,
                                               query.field)
            p = sr.postings(query.term, field=query.field)
            if p is None:
                return _empty(self.sim.dtype)
            docs, freqs = p
            if not scoring:
                return docs, np.zeros(len(docs), dtype=self.sim.dtype)
            return docs, scorer.score(freqs, sr.norms_for(query.field)[docs])
        if isinstance(query, PhraseQuery):
            if len(query.phrase_terms) == 1:
                # Lucene rewrites a one-term phrase to a TermQuery
                return self._score_segment_raw(
                    sr, TermQuery(query.phrase_terms[0], query.field),
                    boost, scoring)
            if query.slop != 0:
                docs, freqs = _sloppy_phrase(sr, list(query.phrase_terms),
                                             query.slop, query.field)
            else:
                docs, freqs = _exact_phrase(sr, list(query.phrase_terms),
                                            query.field)
            if not scoring:
                return docs, np.zeros(len(docs), dtype=self.sim.dtype)
            scorer, _ = self._scorer_for_terms(list(query.phrase_terms),
                                               boost, query.field)
            if scorer is None or len(docs) == 0:
                return _empty(self.sim.dtype)
            return docs, scorer.score(freqs,
                                      sr.norms_for(query.field)[docs])
        if isinstance(query, NGramPhraseQuery):
            sel_terms, sel_offsets = query.selected()
            docs, freqs = _exact_phrase(sr, list(sel_terms), query.field,
                                        list(sel_offsets))
            if not scoring:
                return docs, np.zeros(len(docs), dtype=self.sim.dtype)
            scorer, _ = self._scorer_for_terms(list(sel_terms), boost,
                                               query.field)
            if scorer is None or len(docs) == 0:
                return _empty(self.sim.dtype)
            return docs, scorer.score(freqs,
                                      sr.norms_for(query.field)[docs])
        if isinstance(query, MultiPhraseQuery):
            if query.slop != 0:
                docs, freqs = _sloppy_multi_phrase(sr, query.slots,
                                                   query.slop, query.field)
            else:
                docs, freqs = _exact_multi_phrase(sr, query.slots,
                                                  query.field)
            if not scoring:
                return docs, np.zeros(len(docs), dtype=self.sim.dtype)
            stats = self.reader.term_stats(query.terms(), query.field)
            dfs = [stats[t][0] for slot in query.slots for t in slot
                   if stats[t][0] > 0]
            ttfs = [stats[t][1] for slot in query.slots for t in slot
                    if stats[t][0] > 0]
            if not dfs or len(docs) == 0:
                return _empty(self.sim.dtype)
            dc, sttf = self.reader.field_stats(query.field)
            scorer = self._sim(query.field).scorer(boost, dc, sttf, dfs,
                                                   ttfs)
            return docs, scorer.score(freqs,
                                      sr.norms_for(query.field)[docs])
        from .spans import SpanQuery, collect_term_fields, span_freqs
        if isinstance(query, SpanQuery):
            docs, freqs = span_freqs(sr, query)
            if not scoring:
                return docs, np.zeros(len(docs), dtype=self.sim.dtype)
            # term stats resolve per clause against each clause's REAL
            # field (FieldMaskingSpanQuery masks only the reported field;
            # collection stats + norms below use query.field — the
            # reference's documented masking-scoring contract)
            by_field: dict[str, list[str]] = {}
            for t, f in collect_term_fields(query):
                by_field.setdefault(f, []).append(t)
            dfs, ttfs = [], []
            for f, ts in by_field.items():
                stats = self.reader.term_stats(ts, f)
                dfs.extend(df for df, _ in stats.values() if df > 0)
                ttfs.extend(ttf for df, ttf in stats.values() if df > 0)
            if len(docs) == 0:
                return _empty(self.sim.dtype)
            if not dfs:
                # no statically-declared terms (e.g. a standalone
                # SpanMultiTermQueryWrapper): the CONSTANT_SCORE rewrite,
                # like the MultiTermQuery family
                dt = self.sim.dtype
                return docs, np.full(len(docs), dt.type(boost), dtype=dt)
            dc, sttf = self.reader.field_stats(query.field)
            scorer = self._sim(query.field).scorer(boost, dc, sttf, dfs,
                                                   ttfs)
            return docs, scorer.score(freqs,
                                      sr.norms_for(query.field)[docs])
        if isinstance(query, SynonymQuery):
            return self._score_synonym(sr, query, boost, scoring)
        if isinstance(query, CombinedFieldQuery):
            return self._score_combined_field(sr, query, boost, scoring)
        if isinstance(query, BlendedTermQuery):
            return self._score_blended(sr, query, boost, scoring)
        if isinstance(query, IndriAndQuery):
            return self._score_indri_and(sr, query, boost, scoring)
        if isinstance(query, DisjunctionMaxQuery):
            return self._score_dismax(sr, query, boost, scoring)
        if isinstance(query, MultiTermQuery):
            return self._score_multiterm(sr, query, boost)
        if isinstance(query, FeatureQuery):
            dt = self.sim.dtype
            col = sr.doc_meta[query.field].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            docs = np.flatnonzero(col > 0).astype(np.int64)
            if not scoring:
                return docs, np.zeros(len(docs), dtype=dt)
            vals = (boost * query.weight *
                    np.log1p(col[docs] / query.scaling))
            return docs, vals.astype(dt)
        if isinstance(query, RangeFilterQuery):
            return self._score_range(sr, query, boost)
        if isinstance(query, SortedNumericRangeQuery):
            return self._score_sorted_numeric_range(sr, query, boost)
        if isinstance(query, SortedSetRangeQuery):
            # SortedSetDocValuesField.newSlowRangeQuery: ANY string value
            # in the byte range — flatten once, range-compare, parents by
            # repeat (Arrow utf8 comparison == unsigned byte order here:
            # UTF-8 lexicographic == code-point order)
            import pyarrow as pa
            import pyarrow.compute as pc
            dt = self.sim.dtype
            col = sr.doc_meta[query.field]
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
                else col
            counts = pc.fill_null(pc.list_value_length(arr), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            flat = arr.flatten()
            mask = np.ones(len(flat), dtype=bool)
            if query.lower is not None:
                op = pc.greater_equal if query.include_lower else pc.greater
                mask &= op(flat, query.lower).to_numpy(zero_copy_only=False)
            if query.upper is not None:
                op = pc.less_equal if query.include_upper else pc.less
                mask &= op(flat, query.upper).to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(len(arr), dtype=np.int64), counts)
            docs = np.unique(rows[mask])
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, DocValuesSetQuery):
            # SortedNumericDocValuesSetQuery.kt / newSlowSetQuery: ANY
            # multi-value in the set — flatten + isin, parents by repeat
            import pyarrow as pa
            import pyarrow.compute as pc
            dt = self.sim.dtype
            col = sr.doc_meta[query.field]
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
                else col
            counts = pc.fill_null(pc.list_value_length(arr), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            values = arr.flatten().to_numpy(zero_copy_only=False)
            rows = np.repeat(np.arange(len(arr), dtype=np.int64), counts)
            mask = np.isin(values, np.asarray(list(query.values)))
            docs = np.unique(rows[mask])
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, LongDistanceFeatureQuery):
            # LongDistanceFeatureQuery.kt: score = w·pivot/(pivot+|v−o|),
            # double math, every valued doc matches; uint64 diff keeps
            # the distance exact across the full int64 domain (the
            # testOverUnderFlow saturation contract)
            dt = self.sim.dtype
            col = sr.doc_meta[query.field]
            vals = col.to_numpy(zero_copy_only=False)
            ok = ~np.isnan(vals.astype(np.float64)) \
                if vals.dtype.kind == "f" else np.ones(len(vals), bool)
            docs = np.flatnonzero(ok).astype(np.int64)
            v = vals[docs].astype(np.int64)
            o = np.int64(query.origin)
            d = np.where(v >= o,
                         v.astype(np.uint64) - np.uint64(o),
                         np.uint64(o) - v.astype(np.uint64))
            p = np.float64(query.pivot)
            sc = (boost * query.weight) * (p / (p + d.astype(np.float64)))
            return docs, sc.astype(dt)
        if isinstance(query, GeoDistanceFeatureQuery):
            # LatLonPointDistanceFeatureQuery.kt:113: the same clobbered
            # haversine distance as GeoDistanceQuery feeding the
            # pivot/(pivot+distance) saturation
            from .query import EARTH_MEAN_RADIUS_METERS
            dt = self.sim.dtype
            la = sr.doc_meta[query.lat_field].to_numpy().astype(np.float64)
            lo = sr.doc_meta[query.lon_field].to_numpy().astype(np.float64)
            valid = np.isfinite(la) & np.isfinite(lo)
            docs = np.flatnonzero(valid).astype(np.int64)
            la, lo = la[docs], lo[docs]
            x2 = np.radians(query.lat)
            h = (1.0 - np.cos(np.radians(la) - x2)) + \
                np.cos(np.radians(la)) * np.cos(x2) * \
                (1.0 - np.cos(np.radians(lo - query.lon)))
            h = (h.view(np.int64) & np.int64(-8)).view(np.float64)
            dist = EARTH_MEAN_RADIUS_METERS * 2.0 * \
                np.arcsin(np.minimum(1.0, np.sqrt(h * 0.5)))
            p = np.float64(query.pivot_m)
            sc = (boost * query.weight) * (p / (p + dist))
            return docs, sc.astype(dt)
        if isinstance(query, IndexSortRangeQuery):
            return self._score_index_sort_range(sr, query, boost)
        if isinstance(query, PointInSetQuery):
            dt = self.sim.dtype
            col = sr.doc_meta[query.field].to_numpy()
            mask = np.isin(col, np.asarray(list(query.values)))
            docs = np.flatnonzero(mask).astype(np.int64)
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, RangeFieldQuery):
            dt = self.sim.dtype
            lo = sr.doc_meta[query.lo_field].to_numpy()
            hi = sr.doc_meta[query.hi_field].to_numpy()
            inter = (lo <= query.upper) & (hi >= query.lower)
            within = (lo >= query.lower) & (hi <= query.upper)
            mask = {"intersects": inter,
                    "within": within,
                    "contains": (lo <= query.lower) & (hi >= query.upper),
                    "crosses": inter & ~within}[query.relation]
            docs = np.flatnonzero(mask).astype(np.int64)
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, MultiRangeFieldQuery):
            # RangeFieldQuery.kt QueryType over numDims > 1: intersects/
            # within/contains AND per dimension; crosses is whole-box
            # (intersects-all ∧ ¬within-all — NOT per-dim crosses)
            dt = self.sim.dtype
            n = sr.doc_count
            inter = np.ones(n, dtype=bool)
            within = np.ones(n, dtype=bool)
            contains = np.ones(n, dtype=bool)
            for (lo_f, hi_f), (lower, upper) in zip(query.dims,
                                                    query.ranges):
                lo = sr.doc_meta[lo_f].to_numpy()
                hi = sr.doc_meta[hi_f].to_numpy()
                inter &= (lo <= upper) & (hi >= lower)
                within &= (lo >= lower) & (hi <= upper)
                contains &= (lo <= lower) & (hi >= upper)
            mask = {"intersects": inter,
                    "within": within,
                    "contains": contains,
                    "crosses": inter & ~within}[query.relation]
            docs = np.flatnonzero(mask).astype(np.int64)
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        if isinstance(query, GeoBoxQuery):
            return self._score_geo_box(sr, query, boost)
        if isinstance(query, GeoDistanceQuery):
            return self._score_geo_distance(sr, query, boost)
        if isinstance(query, GeoPolygonQuery):
            return self._score_geo_polygon(sr, query, boost)
        if isinstance(query, ShapeBoxQuery):
            return self._score_shape_box(sr, query, boost)
        if isinstance(query, ShapePolygonQuery):
            return self._score_shape_polygon(sr, query, boost)
        if isinstance(query, ShapeCircleQuery):
            return self._score_shape_circle(sr, query, boost)
        if isinstance(query, GeoLineQuery):
            return self._score_geo_line(sr, query, boost)
        if isinstance(query, XYBoxQuery):
            return self._score_xy_box(sr, query, boost)
        if isinstance(query, XYCircleQuery):
            return self._score_xy_circle(sr, query, boost)
        if isinstance(query, XYPolygonQuery):
            return self._score_xy_polygon(sr, query, boost)
        if isinstance(query, XYLineQuery):
            return self._score_xy_line(sr, query, boost)
        if isinstance(query, IndexOrDocValuesQuery):
            # standalone = leading iteration → the index-driven execution
            return self._score_segment_raw(sr, query.index_query, boost,
                                           scoring)
        if isinstance(query, BooleanQuery):
            return self._score_boolean(sr, query, boost, scoring)
        raise TypeError(f"unsupported query: {query!r}")

    def _score_synonym(self, sr: SegmentReader, q: SynonymQuery,
                       boost: float, scoring: bool):
        """SynonymQuery.kt:182-202: per-doc freq = Σ term freqs; blended
        stats df = max(term dfs), ttf = Σ (ttf unused by BM25 score)."""
        dt = self.sim.dtype
        stats = self.reader.term_stats(list(q.synonym_terms), q.field)
        df_blend = max((stats[t][0] for t in q.synonym_terms), default=0)
        ttf_blend = sum(stats[t][1] for t in q.synonym_terms)
        if df_blend == 0:
            return _empty(dt)
        parts = [p for t in set(q.synonym_terms)
                 if (p := sr.postings(t, field=q.field)) is not None]
        if not parts:
            return _empty(dt)
        alldocs = np.concatenate([d for d, _ in parts])
        allfreqs = np.concatenate([f for _, f in parts])
        docs, inv = np.unique(alldocs, return_inverse=True)
        freq_sum = np.zeros(len(docs), dtype=np.int64)
        np.add.at(freq_sum, inv, allfreqs)
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        dc, sttf = self.reader.field_stats(q.field)
        scorer = self._sim(q.field).scorer(boost, dc, sttf, [df_blend],
                                           [ttf_blend])
        return docs, scorer.score(freq_sum, sr.norms_for(q.field)[docs])

    def _score_combined_field(self, sr: SegmentReader,
                              q: CombinedFieldQuery, boost: float,
                              scoring: bool):
        """CombinedFieldQuery.kt (BM25F): one pseudo-term score per doc
        over weighted fields — freq = Σ w_f·freq (:365-397), norm
        re-encoded from the weighted sum of decoded lengths
        (MultiNormsLeafSimScorer.kt:110-123), stats merged per the
        class docstring."""
        from ..util.smallfloat import LENGTH_TABLE, int_to_byte4_np
        dt = self.sim.dtype
        # pseudo collection stats (CombinedFieldQuery.kt:259-281)
        doc_count, sttf_pseudo = 0, 0
        for f, w in q.fields:
            dc_f, sttf_f = self.reader.field_stats(f)
            doc_count = max(doc_count, dc_f)
            sttf_pseudo += int(w * float(sttf_f))
        # pseudo term stats (:236-252): df = max, ttf = Σ long(w·ttf)
        df = 0
        ttf_pseudo = 0
        per_field_stats = {}
        for f, w in q.fields:
            st = self.reader.term_stats(list(q.query_terms), f)
            per_field_stats[f] = st
            for t in q.query_terms:
                if st[t][0] > 0:
                    df = max(df, st[t][0])
                    ttf_pseudo += int(w * float(st[t][1]))
        if df == 0:
            return _empty(dt)
        # union of matching docs + weighted freq (float accumulation)
        alldocs, allfreqs = [], []
        for f, w in q.fields:
            for t in q.query_terms:
                p = sr.postings(t, field=f)
                if p is None:
                    continue
                d, fr = p
                alldocs.append(d)
                allfreqs.append(np.float32(w) * fr.astype(np.float32))
        if not alldocs:
            return _empty(dt)
        cat = np.concatenate(alldocs)
        docs, inv = np.unique(cat, return_inverse=True)
        freq = np.zeros(len(docs), dtype=np.float32)
        np.add.at(freq, inv, np.concatenate(allfreqs))
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        # combined norm: float32 accumulation of w·decoded length in
        # field order, rounded half-up, re-encoded to a byte
        normv = np.zeros(len(docs), dtype=np.float32)
        for f, w in q.fields:
            nb = sr.norms_for(f)[docs]
            normv += np.float32(w) * LENGTH_TABLE[nb]
        norm_byte = int_to_byte4_np(
            np.floor(normv.astype(np.float64) + 0.5).astype(np.int64))
        scorer = self.sim.scorer(boost, doc_count, sttf_pseudo, [df],
                                 [max(1, ttf_pseudo)])
        return docs, scorer.score(freq, norm_byte).astype(dt)

    def _score_blended(self, sr: SegmentReader, q: BlendedTermQuery,
                       boost: float, scoring: bool):
        """BlendedTermQuery.kt:214-236: per-term scorers over blended
        stats (df = max, ttf = Σ), merged by dismax with tie breaker
        (:273 default 0.01) or SHOULD-sum (:262-268)."""
        dt = self.sim.dtype
        per = []
        df_blend, ttf_blend = 0, 0
        for t, f, b in q.blend_terms:
            st = self.reader.term_stats([t], f)
            df_blend = max(df_blend, st[t][0])
            ttf_blend += st[t][1]
        if df_blend == 0:
            return _empty(dt)
        for t, f, b in q.blend_terms:
            p = sr.postings(t, field=f)
            if p is None:
                continue
            docs_t, freqs_t = p
            dc, sttf = self.reader.field_stats(f)
            scorer = self._sim(f).scorer(boost * b, dc, sttf, [df_blend],
                                         [ttf_blend])
            sc = scorer.score(freqs_t, sr.norms_for(f)[docs_t])
            per.append((docs_t, sc))
        if not per:
            return _empty(dt)
        docs = np.unique(np.concatenate([d for d, _ in per]))
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        mx = np.zeros(len(docs), dtype=np.float64)
        total = np.zeros(len(docs), dtype=np.float64)
        for d, sc in per:
            idx = np.searchsorted(docs, d)
            vals = np.zeros(len(docs), dtype=np.float64)
            vals[idx] = sc.astype(np.float64)
            np.maximum(mx, vals, out=mx)
            total += vals
        if q.boolean_rewrite:
            out = total
        else:
            tie = float(q.tie_breaker)
            out = mx + tie * (total - mx)
        return docs, out.astype(dt)

    def _score_indri_and(self, sr: SegmentReader, q: IndriAndQuery,
                         boost: float, scoring: bool):
        """IndriAndScorer.kt:21-46: union of clause matches, score =
        Σ b_i·score_i / Σ b_i where a non-matching clause contributes
        sim.score(0, norm) (the smoothing/background score,
        TermScorer.kt:86-92)."""
        dt = self.sim.dtype
        resolved = []
        for t, f, b in q.clauses:
            st = self.reader.term_stats([t], f)
            df, ttf = st[t]
            if df == 0:
                continue
            dc, sttf = self.reader.field_stats(f)
            scorer = self._sim(f).scorer(boost, dc, sttf, [df], [ttf])
            resolved.append((t, f, float(b), scorer))
        if not resolved:
            return _empty(dt)
        parts = []
        for t, f, b, scorer in resolved:
            p = sr.postings(t, field=f)
            parts.append((f, b, scorer, p))
        alld = [p[0] for _, _, _, p in parts if p is not None]
        if not alld:
            return _empty(dt)
        docs = np.unique(np.concatenate(alld))
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        total = np.zeros(len(docs), dtype=np.float64)
        boost_sum = 0.0
        for f, b, scorer, p in parts:
            freq = np.zeros(len(docs), dtype=np.int64)
            if p is not None:
                d_t, f_t = p
                freq[np.searchsorted(docs, d_t)] = f_t
            sc = scorer.score(freq, sr.norms_for(f)[docs])
            total += b * sc.astype(np.float64)
            boost_sum += b
        if boost_sum == 0.0:
            return docs, np.zeros(len(docs), dtype=dt)
        return docs, (total / boost_sum).astype(dt)

    def _score_dismax(self, sr: SegmentReader, q: DisjunctionMaxQuery,
                      boost: float, scoring: bool):
        """DisjunctionMaxQuery.kt: max + tie_breaker × (sum of non-max)."""
        dt = self.sim.dtype
        subs = [self._score_segment_raw(sr, sub, boost, scoring)
                for sub in q.disjuncts]
        subs = [(d, s) for d, s in subs if len(d)]
        if not subs:
            return _empty(dt)
        alldocs = np.concatenate([d for d, _ in subs])
        allscores = np.concatenate([s for _, s in subs])
        docs, inv = np.unique(alldocs, return_inverse=True)
        mx = np.full(len(docs), -np.inf, dtype=np.float64)
        np.maximum.at(mx, inv, allscores.astype(np.float64))
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        tb = q.tie_breaker
        if tb == 0.0:
            return docs, mx.astype(dt)
        total = np.zeros(len(docs), dtype=np.float64)
        np.add.at(total, inv, allscores.astype(np.float64))
        return docs, (mx + tb * (total - mx)).astype(dt)

    def nearest_xy(self, x: float, y: float, n: int,
                   x_field: str = "x", y_field: str = "y") -> TopDocs:
        """``XYDocValuesField.newDistanceSort`` (XYPointSortField role,
        TestXYPointDistanceSort.kt): all live docs sorted by planar
        euclidean distance to (x, y) ascending, docID tie-break;
        ``ScoreDoc.score`` carries the distance as a double over the
        float32-snapped coordinates (the XY domain), and docs missing
        coordinates sort POSITIVE_INFINITY last (the missing-last
        contract of testMissingLast)."""
        if n < 1:
            raise ValueError(f"n must be at least 1; got {n}")
        qx = np.float64(np.float32(x))
        qy = np.float64(np.float32(y))
        total = 0
        parts = []
        for si, sr in enumerate(self.reader.segment_readers):
            if x_field not in sr.doc_meta.column_names:
                continue
            xs = sr.doc_meta[x_field].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            ys = sr.doc_meta[y_field].to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            docs = np.arange(len(xs), dtype=np.int64)
            tomb = sr.tombstones
            if tomb is not None and len(tomb):
                keep = np.ones(len(xs), dtype=bool)
                keep[tomb] = False
                docs = docs[keep]
                xs, ys = xs[docs], ys[docs]
            total += len(docs)
            dx, dy = xs - qx, ys - qy
            dist = np.sqrt(dx * dx + dy * dy)
            dist[~np.isfinite(dist)] = np.inf  # missing → +inf, last
            if len(docs) > n:
                sel = np.lexsort((docs, dist))[:n]
                docs, dist = docs[sel], dist[sel]
            parts.append((dist, np.full(len(docs), si), docs))
        if parts:
            dist = np.concatenate([p[0] for p in parts])
            segs = np.concatenate([p[1] for p in parts]).astype(np.int64)
            docs = np.concatenate([p[2] for p in parts])
        else:
            dist = np.empty(0, np.float64)
            segs = docs = np.empty(0, np.int64)
        order = np.lexsort((docs, segs, dist))[:n]
        hits = [ScoreDoc(float(dist[i]), int(segs[i]), int(docs[i]))
                for i in order]
        self._resolve(hits)
        return TopDocs(total, "EQUAL_TO", hits)

    def search_elevated(self, query: Query, elevated: "list[str]",
                        k: int = 10, id_field: str = "url",
                        score_reversed: bool = False) -> TopDocs:
        """Query elevation (TestElevationComparator.kt over a custom
        FieldComparatorSource): pin sponsored/editorial docs to the top.
        Sort = (elevation priority desc, score desc — asc when
        ``score_reversed`` — then seg, doc); priority = position in
        ``elevated`` (earlier = higher, the ``max--`` assignment of
        TestElevationComparator.kt:126-131), 0 for everything else.
        Elevated docs are unioned into the match set with a zero score
        contribution — the reference's SHOULD(BoostQuery(ids, 0f))
        clause (TestElevationComparator.kt:124-134) — so they surface
        even when the organic query misses them."""
        q = self.rewrite(query)
        prio = {v: len(elevated) - i for i, v in enumerate(elevated)}
        keys = np.array(list(prio), dtype=object)
        parts = []  # (prio, score, seg, docs)
        total = 0
        for si, sr in enumerate(self.reader.segment_readers):
            docs, scores = self._score_segment(sr, q)
            ids = np.asarray(sr.doc_meta[id_field].to_pylist(), dtype=object)
            elev = np.flatnonzero(np.isin(ids, keys)).astype(np.int64)
            tomb = sr.tombstones
            if tomb is not None and len(tomb) and len(elev):
                elev = elev[~_isin_sorted(elev, tomb)]
            extra = elev[~_isin_sorted(elev, docs)]
            if len(extra):  # elevated non-matches join with score 0
                docs = np.concatenate([docs, extra])
                scores = np.concatenate(
                    [scores, np.zeros(len(extra), dtype=scores.dtype)])
                order = np.argsort(docs, kind="mergesort")
                docs, scores = docs[order], scores[order]
            if not len(docs):
                continue
            pr = np.array([prio.get(ids[d], 0) for d in docs], np.int64)
            total += len(docs)
            parts.append((pr, scores.astype(np.float64),
                          np.full(len(docs), si, np.int64), docs))
        if parts:
            pr = np.concatenate([p[0] for p in parts])
            sc = np.concatenate([p[1] for p in parts])
            segs = np.concatenate([p[2] for p in parts])
            docs = np.concatenate([p[3] for p in parts])
        else:
            pr = sc = np.empty(0, np.float64)
            segs = docs = np.empty(0, np.int64)
        sc_key = sc if score_reversed else -sc
        order = np.lexsort((docs, segs, sc_key, -pr))[:k]
        hits = [ScoreDoc(float(sc[i]), int(segs[i]), int(docs[i]))
                for i in order]
        self._resolve(hits)
        return TopDocs(total, "EQUAL_TO", hits)

    def expand_prefix(self, prefix: str, field: str = "text",
                      max_expansions: int | None = None) -> tuple[str, ...]:
        """TermsEnum.seekCeil prefix walk over the union term dictionary
        (the MultiTerms.getTerms(reader, field) iteration of
        TestPhrasePrefixQuery.kt:68-80): sorted unique index terms
        starting with ``prefix`` across all segments. Feed the result
        into a MultiPhraseQuery slot for phrase-prefix search."""
        out: set[str] = set()
        for sr in self.reader.segment_readers:
            arr, _ = sr.field_terms(field)
            lo = int(np.searchsorted(arr, prefix))
            hi = int(np.searchsorted(arr, prefix + "\U0010ffff"))
            out.update(arr[lo:hi].tolist())
        terms = tuple(sorted(out))
        if max_expansions is not None:
            terms = terms[:max_expansions]
        return terms

    def _score_multiterm(self, sr: SegmentReader, q: MultiTermQuery,
                         boost: float):
        """CONSTANT_SCORE rewrite: union of matching terms' postings; every
        matching doc scores ``boost`` (MultiTermQuery.kt rewrite family)."""
        dt = self.sim.dtype
        fld = getattr(q, "field", "text")
        arr, lo = sr.field_terms(fld)
        mask = None
        if hasattr(q, "matches_arrow"):
            hi = lo + len(arr)
            mask = q.matches_arrow(sr.terms_table["term"].slice(lo, hi - lo)
                                   .combine_chunks())
        if mask is None:
            mask = q.matches(arr)
        idxs = np.flatnonzero(mask) + lo
        if len(idxs) == 0:
            return _empty(dt)
        docs = sr.union_docs(idxs)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_range(self, sr: SegmentReader, q: RangeFilterQuery,
                     boost: float):
        """PointRangeQuery analog over a doc-meta numeric column."""
        dt = self.sim.dtype
        col = sr.doc_meta[q.field].to_numpy()
        mask = np.ones(len(col), dtype=bool)
        if q.lower is not None:
            mask &= col >= q.lower
        if q.upper is not None:
            mask &= col <= q.upper
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_sorted_numeric_range(self, sr: SegmentReader,
                                    q: "SortedNumericRangeQuery",
                                    boost: float):
        """SortedNumericDocValuesField.newSlowRangeQuery: ANY-value-in-
        range over a list<numeric> doc-meta column — one flatten +
        compare kernel, parent rows recovered by repeat(counts)."""
        import pyarrow as pa
        import pyarrow.compute as pc
        dt = self.sim.dtype
        col = sr.doc_meta[q.field]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
            else col
        counts = pc.fill_null(pc.list_value_length(arr), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        values = arr.flatten().to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(arr), dtype=np.int64), counts)
        mask = np.ones(len(values), dtype=bool)
        if q.lower is not None:
            mask &= values >= q.lower
        if q.upper is not None:
            mask &= values <= q.upper
        docs = np.unique(rows[mask])
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_index_sort_range(self, sr: SegmentReader,
                                q: "IndexSortRangeQuery", boost: float):
        """IndexSortSortedNumericDocValuesRangeQuery.kt: binary-search
        the contiguous doc run when the segment's index sort leads with
        the query field; otherwise fall back to the column scan (the
        reference's fallbackQuery delegation)."""
        dt = self.sim.dtype
        isort = (sr.meta or {}).get("index_sort") or []
        if isort and isort[0][0] == q.field:
            col = sr.doc_meta[q.field].to_numpy()
            n = len(col)
            desc = bool(isort[0][1])
            a = col[::-1] if desc else col
            lo_i = 0 if q.lower is None else int(np.searchsorted(
                a, q.lower, side="left"))
            hi_i = n if q.upper is None else int(np.searchsorted(
                a, q.upper, side="right"))
            if desc:  # positions in the reversed view map back mirrored
                lo_i, hi_i = n - hi_i, n - lo_i
            docs = np.arange(lo_i, max(lo_i, hi_i), dtype=np.int64)
            return docs, np.full(len(docs), dt.type(boost), dtype=dt)
        return self._score_range(
            sr, RangeFilterQuery(q.field, q.lower, q.upper), boost)

    def _score_geo_box(self, sr: SegmentReader, q: "GeoBoxQuery",
                       boost: float):
        """LatLonPoint.newBoxQuery over doc-meta lat/lon columns."""
        dt = self.sim.dtype
        lat = sr.doc_meta[q.lat_field].to_numpy()
        lon = sr.doc_meta[q.lon_field].to_numpy()
        mask = (lat >= q.min_lat) & (lat <= q.max_lat)
        if q.min_lon <= q.max_lon:
            mask &= (lon >= q.min_lon) & (lon <= q.max_lon)
        else:  # dateline crossing: lon >= min OR lon <= max
            mask &= (lon >= q.min_lon) | (lon <= q.max_lon)
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_geo_distance(self, sr: SegmentReader, q: "GeoDistanceQuery",
                            boost: float):
        """SloppyMath.haversinMeters, vectorized — the exact reference
        formula (SloppyMath.kt:38-65) incl. the sort-key low-bits clobber
        ('so subsequent rounding does not create ties')."""
        from .query import EARTH_MEAN_RADIUS_METERS
        dt = self.sim.dtype
        lat = sr.doc_meta[q.lat_field].to_numpy().astype(np.float64)
        lon = sr.doc_meta[q.lon_field].to_numpy().astype(np.float64)
        x1 = np.radians(lat)
        x2 = np.radians(q.lat)
        h1 = 1.0 - np.cos(x1 - x2)
        h2 = 1.0 - np.cos(np.radians(lon - q.lon))
        h = h1 + np.cos(x1) * np.cos(x2) * h2
        h = (h.view(np.int64) & np.int64(-8)).view(np.float64)  # clobber
        dist = EARTH_MEAN_RADIUS_METERS * 2.0 * \
            np.arcsin(np.minimum(1.0, np.sqrt(h * 0.5)))
        docs = np.flatnonzero(dist <= q.radius_meters).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def nearest(self, lat: float, lon: float, n: int,
                lat_field: str = "lat", lon_field: str = "lon",
                query: Query | None = None) -> TopDocs:
        """``LatLonPoint.nearest`` (document/LatLonPoint.kt:417-457 over
        document/NearestNeighbor.kt): the n nearest live docs to
        (lat, lon) by haversine distance. ``ScoreDoc.score`` carries the
        distance in METERS, converted from the bit-clobbered haversin
        sort key exactly as the reference converts ``hit.distanceSortKey``
        (LatLonPoint.kt:449); order is (distance asc, doc asc) — equal
        sort keys break toward the smaller docID
        (NearestNeighbor.kt:37-42). ``total_hits`` counts docs carrying
        coordinates WITHOUT subtracting deletes (``points.docCount`` at
        LatLonPoint.kt:434), though deleted docs never appear as hits.

        With ``query`` set this becomes the DISTANCE SORT instead
        (``LatLonPoint.newDistanceSort`` / LatLonPointSortField role,
        TestLatLonPointDistanceSort): the n closest MATCHES of the
        query, docs missing coordinates kept and sorted
        POSITIVE_INFINITY last (the sort field's missing-value
        default); ``total_hits`` is then the match count.

        The reference's BKD best-first cell walk is an index-structure
        optimization this engine designs out (SURVEY §2.9): per segment
        the evaluation is one vectorized kernel over the lat/lon doc-meta
        columns, embarrassingly parallel across segments — the 100-TB
        path shards segments over an actor pool and merges n-sized lists."""
        if n < 1:
            raise ValueError(f"n must be at least 1; got {n}")
        if not -90.0 <= lat <= 90.0:  # GeoUtils.checkLatitude
            raise ValueError(f"invalid latitude {lat}")
        if not -180.0 <= lon <= 180.0:  # GeoUtils.checkLongitude
            raise ValueError(f"invalid longitude {lon}")
        from .query import EARTH_MEAN_RADIUS_METERS
        q = self.rewrite(query) if query is not None else None
        x2 = np.radians(np.float64(lat))
        total = 0
        parts = []  # (dist, seg, docs)
        for si, sr in enumerate(self.reader.segment_readers):
            if lat_field not in sr.doc_meta.column_names:
                continue
            la = sr.doc_meta[lat_field].to_numpy().astype(np.float64)
            lo = sr.doc_meta[lon_field].to_numpy().astype(np.float64)
            if q is not None:  # distance SORT over the query's matches
                docs, _ = self._score_segment(sr, q)
                docs = docs.astype(np.int64)
                total += len(docs)
            else:
                valid = np.isfinite(la) & np.isfinite(lo)
                total += int(valid.sum())  # points.docCount analog
                tomb = sr.tombstones
                if tomb is not None and len(tomb):
                    valid[tomb] = False
                docs = np.flatnonzero(valid).astype(np.int64)
            if not len(docs):
                continue
            la, lo = la[docs], lo[docs]
            # SloppyMath.haversinSortKey + low-bits clobber, then meters
            # (SloppyMath.kt:38-65) — identical to _score_geo_distance
            h1 = 1.0 - np.cos(np.radians(la) - x2)
            h2 = 1.0 - np.cos(np.radians(lo - lon))
            h = h1 + np.cos(np.radians(la)) * np.cos(x2) * h2
            h = (h.view(np.int64) & np.int64(-8)).view(np.float64)
            dist = EARTH_MEAN_RADIUS_METERS * 2.0 * \
                np.arcsin(np.minimum(1.0, np.sqrt(h * 0.5)))
            if q is not None:
                dist[~np.isfinite(dist)] = np.inf  # missing → last
            if len(docs) > n:  # per-leaf top-n before the merge
                sel = np.lexsort((docs, dist))[:n]
                docs, dist = docs[sel], dist[sel]
            parts.append((dist, np.full(len(docs), si), docs))
        if parts:
            dist = np.concatenate([p[0] for p in parts])
            segs = np.concatenate([p[1] for p in parts]).astype(np.int64)
            docs = np.concatenate([p[2] for p in parts])
        else:
            dist = np.empty(0, np.float64)
            segs = docs = np.empty(0, np.int64)
        order = np.lexsort((docs, segs, dist))[:n]
        hits = [ScoreDoc(float(dist[i]), int(segs[i]), int(docs[i]))
                for i in order]
        self._resolve(hits)
        return TopDocs(total, "EQUAL_TO", hits)

    @staticmethod
    def _ring_contains(lat: np.ndarray, lon: np.ndarray,
                       ring: tuple) -> np.ndarray:
        """Crossing-number ray cast (eastward ray), vectorized over all
        docs of the segment; the implicit closing edge is included."""
        inside = np.zeros(len(lat), dtype=bool)
        n = len(ring)
        for i in range(n):
            y1, x1 = ring[i]
            y2, x2 = ring[(i + 1) % n]
            if y1 == y2:
                continue  # horizontal edge never crosses the ray test
            crosses = (y1 > lat) != (y2 > lat)
            xi = (x2 - x1) * (lat - y1) / (y2 - y1) + x1
            inside ^= crosses & (lon < xi)
        return inside

    def _score_geo_polygon(self, sr: SegmentReader, q: "GeoPolygonQuery",
                           boost: float):
        """LatLonPoint.newPolygonQuery over doc-meta lat/lon columns:
        crossing-number containment minus holes."""
        dt = self.sim.dtype
        lat = sr.doc_meta[q.lat_field].to_numpy().astype(np.float64)
        lon = sr.doc_meta[q.lon_field].to_numpy().astype(np.float64)
        mask = self._ring_contains(lat, lon, tuple(q.polygon))
        for hole in q.holes:
            mask &= ~self._ring_contains(lat, lon, tuple(hole))
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_shape_box(self, sr: SegmentReader, q: "ShapeBoxQuery",
                         boost: float):
        """LatLonShapeBoundingBoxQuery over shape doc-values: one flat
        pass over ALL docs' ring vertices/edges (Arrow list offsets +
        np reduceat — no per-doc loop), relating each ring to the box
        with the ShapeField.QueryRelation predicates (see ShapeBoxQuery
        docstring for the exact formulation)."""
        dt = self.sim.dtype
        lats = sr.doc_meta[q.lats_field].combine_chunks()
        lons = sr.doc_meta[q.lons_field].combine_chunks()
        off = lats.offsets.to_numpy().astype(np.int64)
        y = lats.flatten().to_numpy().astype(np.float64)
        x = lons.flatten().to_numpy().astype(np.float64)
        n = sr.doc_count
        counts = np.diff(off)
        starts = off[:-1]
        if not len(y):  # no shapes at all
            docs = np.empty(0, np.int64)
            return docs, np.empty(0, dtype=dt)

        def per_doc_count(flags: np.ndarray) -> np.ndarray:
            return _ring_counts(flags, starts, counts)

        def per_doc_any(flags: np.ndarray) -> np.ndarray:
            return per_doc_count(flags) > 0

        # vertices in box (inclusive bounds)
        vin = (y >= q.min_lat) & (y <= q.max_lat) & \
              (x >= q.min_lon) & (x <= q.max_lon)
        any_vin = per_doc_any(vin)
        all_vin = per_doc_count(vin) == counts
        vin_strict = (y > q.min_lat) & (y < q.max_lat) & \
                     (x > q.min_lon) & (x < q.max_lon)
        any_vin_strict = per_doc_any(vin_strict)

        # ring edges: vertex i → next vertex within the same ring
        nxt = np.arange(len(y)) + 1
        ends = off[1:] - 1
        nxt[ends[counts > 0]] = starts[counts > 0]
        y2, x2 = y[nxt], x[nxt]

        # box corners inside ring: crossing-number parity per corner
        corners = ((q.min_lat, q.min_lon), (q.min_lat, q.max_lon),
                   (q.max_lat, q.max_lon), (q.max_lat, q.min_lon))
        corner_in = []
        for cy, cx in corners:
            crossing = ((y > cy) != (y2 > cy)) & \
                (cx < (x2 - x) * (cy - y) / (y2 - y + ((y2 - y) == 0)) + x)
            corner_in.append(per_doc_count(crossing) % 2 == 1)
        any_corner_in = corner_in[0] | corner_in[1] | corner_in[2] | \
            corner_in[3]
        all4_in = corner_in[0] & corner_in[1] & corner_in[2] & corner_in[3]

        # ring edge properly crossing a box edge (ccw orientation test)
        def cross(ax, ay, bx, by, px, py):
            return (bx - ax) * (py - ay) - (by - ay) * (px - ax)

        box_edges = (((q.min_lon, q.min_lat), (q.max_lon, q.min_lat)),
                     ((q.max_lon, q.min_lat), (q.max_lon, q.max_lat)),
                     ((q.max_lon, q.max_lat), (q.min_lon, q.max_lat)),
                     ((q.min_lon, q.max_lat), (q.min_lon, q.min_lat)))
        edge_hits = np.zeros(len(y), dtype=bool)
        for (bx1, by1), (bx2, by2) in box_edges:
            d1 = cross(bx1, by1, bx2, by2, x, y)
            d2 = cross(bx1, by1, bx2, by2, x2, y2)
            d3 = cross(x, y, x2, y2, bx1, by1)
            d4 = cross(x, y, x2, y2, bx2, by2)
            edge_hits |= ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        any_edge_cross = per_doc_any(edge_hits)

        inter = any_vin | any_corner_in | any_edge_cross
        has = counts > 0  # docs without a shape match nothing
        masks = {
            "intersects": inter,
            "within": all_vin,
            "contains": all4_in & ~any_vin_strict & ~any_edge_cross,
            "disjoint": ~inter,
        }
        mask = masks[q.relation] & has
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_shape_polygon(self, sr: SegmentReader,
                             q: "ShapePolygonQuery", boost: float):
        """LatLonShapeQuery(Polygon) over shape doc-values: the same
        flat-ring pass as _score_shape_box, with the box replaced by a
        query ring — parity accumulates per query edge (XOR), crossings
        test doc edges against each query edge. Cost: O(query edges ×
        total doc vertices), vectorized across all docs at once."""
        dt = self.sim.dtype
        lats = sr.doc_meta[q.lats_field].combine_chunks()
        lons = sr.doc_meta[q.lons_field].combine_chunks()
        off = lats.offsets.to_numpy().astype(np.int64)
        y = lats.flatten().to_numpy().astype(np.float64)
        x = lons.flatten().to_numpy().astype(np.float64)
        n = sr.doc_count
        counts = np.diff(off)
        starts = off[:-1]
        if not len(y):
            return np.empty(0, np.int64), np.empty(0, dtype=dt)

        def per_doc_count(flags):
            return _ring_counts(flags, starts, counts)

        ring = tuple(q.polygon)
        m = len(ring)
        q_edges = [(ring[i][0], ring[i][1],
                    ring[(i + 1) % m][0], ring[(i + 1) % m][1])
                   for i in range(m)]

        # doc vertices inside the query ring (parity over query edges)
        vin = np.zeros(len(y), dtype=bool)
        for qy1, qx1, qy2, qx2 in q_edges:
            dy = qy2 - qy1
            cond = ((qy1 > y) != (qy2 > y)) & \
                (x < (qx2 - qx1) * (y - qy1) / (dy + (dy == 0)) + qx1)
            vin ^= cond
        any_vin = per_doc_count(vin) > 0
        all_vin = per_doc_count(vin) == counts

        # doc ring edges
        nxt = np.arange(len(y)) + 1
        ends = off[1:] - 1
        nxt[ends[counts > 0]] = starts[counts > 0]
        y2, x2 = y[nxt], x[nxt]

        # query vertices inside each doc ring (parity over doc edges)
        all_qv_in = np.ones(n, dtype=bool)
        any_qv_in = np.zeros(n, dtype=bool)
        for qy, qx in ring:
            crossing = ((y > qy) != (y2 > qy)) & \
                (qx < (x2 - x) * (qy - y) / (y2 - y + ((y2 - y) == 0)) + x)
            inside = per_doc_count(crossing) % 2 == 1
            all_qv_in &= inside
            any_qv_in |= inside

        # proper edge crossings (doc edges × query edges)
        def cross(ax, ay, bx, by, px, py):
            return (bx - ax) * (py - ay) - (by - ay) * (px - ax)

        edge_hits = np.zeros(len(y), dtype=bool)
        for qy1, qx1, qy2, qx2 in q_edges:
            d1 = cross(qx1, qy1, qx2, qy2, x, y)
            d2 = cross(qx1, qy1, qx2, qy2, x2, y2)
            d3 = cross(x, y, x2, y2, qx1, qy1)
            d4 = cross(x, y, x2, y2, qx2, qy2)
            edge_hits |= ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        any_cross = per_doc_count(edge_hits) > 0

        inter = any_vin | any_qv_in | any_cross
        has = counts > 0
        masks = {
            "intersects": inter,
            "within": all_vin & ~any_cross,
            "contains": all_qv_in & ~any_cross,
            "disjoint": ~inter,
        }
        mask = masks[q.relation] & has
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_shape_circle(self, sr: SegmentReader,
                            q: "ShapeCircleQuery", boost: float):
        """LatLonShapeQuery(Circle) over shape doc-values: vertex
        distances + center-in-ring parity + clamped point-to-segment
        edge distances, all vectorized across every doc's flat ring
        (one pass per predicate — no per-doc Python). Exact for simple
        rings because the circle is convex (see ShapeCircleQuery)."""
        dt = self.sim.dtype
        lats = sr.doc_meta[q.lats_field].combine_chunks()
        lons = sr.doc_meta[q.lons_field].combine_chunks()
        off = lats.offsets.to_numpy().astype(np.int64)
        y = lats.flatten().to_numpy().astype(np.float64)
        x = lons.flatten().to_numpy().astype(np.float64)
        n = sr.doc_count
        counts = np.diff(off)
        starts = off[:-1]
        if not len(y):
            return np.empty(0, np.int64), np.empty(0, dtype=dt)

        def per_doc_count(flags):
            return _ring_counts(flags, starts, counts)

        cy, cx, r = q.center_lat, q.center_lon, q.radius

        # vertex distances to the center
        vd = np.hypot(y - cy, x - cx)
        any_v = per_doc_count(vd <= r) > 0
        all_v = per_doc_count(vd <= r) == counts

        # doc ring edges (wraparound last→first)
        nxt = np.arange(len(y)) + 1
        ends = off[1:] - 1
        nxt[ends[counts > 0]] = starts[counts > 0]
        y2, x2 = y[nxt], x[nxt]

        # center inside ring (even-odd parity over doc edges)
        dy = y2 - y
        crossing = ((y > cy) != (y2 > cy)) & \
            (cx < (x2 - x) * (cy - y) / (dy + (dy == 0)) + x)
        center_in = per_doc_count(crossing) % 2 == 1

        # clamped point-to-segment distance per edge
        ex, ey = x2 - x, y2 - y
        ln2 = ex * ex + ey * ey
        t = ((cx - x) * ex + (cy - y) * ey) / (ln2 + (ln2 == 0))
        t = np.clip(t, 0.0, 1.0)
        ed = np.hypot(cy - (y + t * ey), cx - (x + t * ex))
        any_e = per_doc_count(ed <= r) > 0
        edge_strictly_closer = per_doc_count(ed < r) > 0

        inter = any_v | center_in | any_e
        has = counts > 0
        masks = {
            "intersects": inter,
            "within": all_v,
            "contains": center_in & ~edge_strictly_closer,
            "disjoint": ~inter,
        }
        mask = masks[q.relation] & has
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_geo_line(self, sr: SegmentReader, q: "GeoLineQuery",
                        boost: float):
        """Line.kt/Line2D.kt planar proximity: per-doc minimum
        point-to-segment distance over the polyline's edges (endpoint
        clamp via t in [0,1]), compared against buffer_deg. One
        vectorized pass per edge over the segment's metadata columns."""
        dt = self.sim.dtype
        lat = sr.doc_meta[q.lat_field].to_numpy().astype(np.float64)
        lon = sr.doc_meta[q.lon_field].to_numpy().astype(np.float64)
        best = np.full(len(lat), np.inf)
        pts = tuple(q.line)
        for i in range(len(pts) - 1):
            y1, x1 = pts[i]
            y2, x2 = pts[i + 1]
            dy, dx = y2 - y1, x2 - x1
            ll = dy * dy + dx * dx
            if ll == 0.0:  # degenerate edge = point
                d2 = (lat - y1) ** 2 + (lon - x1) ** 2
            else:
                t = np.clip(((lat - y1) * dy + (lon - x1) * dx) / ll,
                            0.0, 1.0)
                d2 = (lat - (y1 + t * dy)) ** 2 + (lon - (x1 + t * dx)) ** 2
            np.minimum(best, d2, out=best)
        mask = best <= q.buffer_deg * q.buffer_deg
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_xy_box(self, sr: SegmentReader, q: "XYBoxQuery",
                      boost: float):
        """XYPointField.newBoxQuery: inclusive planar box, float64
        compare over float32 coords and float32-snapped bounds
        (XYRectangle.kt:28-31, Rectangle2D containsPoint)."""
        dt = self.sim.dtype
        x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
        y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)
        lo_x, hi_x = np.float32(q.min_x), np.float32(q.max_x)
        lo_y, hi_y = np.float32(q.min_y), np.float32(q.max_y)
        mask = (x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_xy_circle(self, sr: SegmentReader, q: "XYCircleQuery",
                         boost: float):
        """XYPointField.newDistanceQuery: cartesian
        (x-cx)² + (y-cy)² <= r² in float64 over float32 coords
        (Circle2D.kt:285-300 XYCircle2D.contains)."""
        dt = self.sim.dtype
        x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
        y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)
        cx = float(np.float32(q.x))
        cy = float(np.float32(q.y))
        r = float(np.float32(q.radius))
        dx, dy = x - cx, y - cy
        mask = dx * dx + dy * dy <= r * r
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_xy_polygon(self, sr: SegmentReader, q: "XYPolygonQuery",
                          boost: float):
        """XYPolygon containment (geo/XYPolygon.kt): the shared
        crossing-number ray cast with (x, y) mapped onto the helper's
        (lon, lat) axes; vertices snap to float32 like
        XYEncodingUtils.checkVal."""
        dt = self.sim.dtype
        x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
        y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)

        def snap(ring):
            return tuple((float(np.float32(py)), float(np.float32(px)))
                         for px, py in ring)

        mask = self._ring_contains(y, x, snap(q.polygon))
        for hole in q.holes:
            mask &= ~self._ring_contains(y, x, snap(hole))
        docs = np.flatnonzero(mask).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_xy_line(self, sr: SegmentReader, q: "XYLineQuery",
                       boost: float):
        """XYLine proximity (geo/XYLine.kt + Line2D): clamped
        point-to-segment distance over float32-snapped vertices."""
        dt = self.sim.dtype
        x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
        y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)
        best = np.full(len(x), np.inf)
        pts = [(float(np.float32(px)), float(np.float32(py)))
               for px, py in q.line]
        for i in range(len(pts) - 1):
            x1, y1 = pts[i]
            x2, y2 = pts[i + 1]
            dx, dy = x2 - x1, y2 - y1
            ll = dx * dx + dy * dy
            if ll == 0.0:
                d2 = (x - x1) ** 2 + (y - y1) ** 2
            else:
                t = np.clip(((x - x1) * dx + (y - y1) * dy) / ll, 0.0, 1.0)
                d2 = (x - (x1 + t * dx)) ** 2 + (y - (y1 + t * dy)) ** 2
            np.minimum(best, d2, out=best)
        r = float(np.float32(q.buffer))
        docs = np.flatnonzero(best <= r * r).astype(np.int64)
        return docs, np.full(len(docs), dt.type(boost), dtype=dt)

    def _score_boolean(self, sr: SegmentReader, q: BooleanQuery,
                       boost: float, scoring: bool):
        dt = self.sim.dtype
        musts, filters, shoulds, nots = [], [], [], []
        deferred: list[RangeFilterQuery] = []
        has_must = any(occ == Occur.MUST for occ, _ in q.clauses)
        for occ, sub in q.clauses:
            if occ == Occur.MUST:
                musts.append(self._score_segment_raw(sr, sub, boost, scoring))
            elif occ == Occur.FILTER:
                # IndexOrDocValuesQuery cost rule: behind MUST clauses the
                # doc-values side verifies candidates by column gather
                # instead of scanning the whole segment
                dv = sub.dv_query if isinstance(sub, IndexOrDocValuesQuery) \
                    else sub
                if has_must and isinstance(dv, RangeFilterQuery):
                    deferred.append(dv)
                elif isinstance(sub, IndexOrDocValuesQuery):
                    filters.append(self._filter_docs(sr, sub.index_query,
                                                     boost))
                else:
                    filters.append(self._filter_docs(sr, sub, boost))
            elif occ == Occur.SHOULD:
                shoulds.append(self._score_segment_raw(sr, sub, boost,
                                                       scoring))
            else:
                nots.append(self._filter_docs(sr, sub, boost))

        msm = q.minimum_should_match
        if msm > len(shoulds):
            # Lucene rewrites msm > #optional to MatchNoDocsQuery
            # (BooleanQuery.kt rewrite) — applies even with MUST clauses
            return _empty(dt)
        # union of SHOULD docs with per-doc summed score + match count
        if shoulds:
            sdocs = np.concatenate([d for d, _ in shoulds])
            sscores = np.concatenate([s for _, s in shoulds])
            u_docs, inv = np.unique(sdocs, return_inverse=True)
            u_scores = np.zeros(len(u_docs), dtype=np.float64)
            np.add.at(u_scores, inv, sscores.astype(np.float64))
            u_scores = u_scores.astype(dt)
            s_count = np.zeros(len(u_docs), dtype=np.int64)
            np.add.at(s_count, inv, 1)
        else:
            u_docs = np.empty(0, np.int64)
            u_scores = np.empty(0, dt)
            s_count = np.empty(0, np.int64)

        required = musts + filters
        if required:
            cand = required[0][0]
            for d, _ in required[1:]:
                cand = _intersect(cand, d)
            for dv in deferred:  # verify-at-candidates (DocValues path)
                cand = cand[_range_mask_at(sr, dv, cand)]
            scores = np.zeros(len(cand), dtype=dt)
            for d, s in musts:
                scores = scores + _lookup_scores(cand, d, s)
            if shoulds:
                in_s = _isin_sorted(cand, u_docs)
                if msm > 0:
                    cnt = np.zeros(len(cand), dtype=np.int64)
                    cnt[in_s] = s_count[np.searchsorted(u_docs, cand[in_s])]
                    keep = cnt >= msm
                    cand, scores, in_s = cand[keep], scores[keep], in_s[keep]
                add = np.zeros(len(cand), dtype=dt)
                add[in_s] = u_scores[np.searchsorted(u_docs, cand[in_s])]
                scores = scores + add
        elif shoulds:
            keep = s_count >= max(1, msm)
            cand, scores = u_docs[keep], u_scores[keep]
        else:
            return _empty(dt)  # only MUST_NOT → matches nothing (kt:190-224)

        for d, _ in nots:
            keep = ~_isin_sorted(cand, d)
            cand, scores = cand[keep], scores[keep]
        return cand, scores

    def rewrite(self, query: Query) -> Query:
        """Structural simplification to a fixpoint (search/rewrite.py —
        BooleanQuery.kt:223-595 rules: clause dedup, MatchAll/MatchNone
        propagation, conjunction/disjunction flattening, msm bounds),
        then resolve every KnnFloatVectorQuery in the tree to its global
        top-k doc set (IndexSearcher.rewrite loop + the KNN pre-pass,
        IndexSearcher.kt:699): per segment an exact cosine scan over the
        vector sidecar (tombstoned docs masked), then one global top-k by
        (similarity desc, seg asc, doc asc)."""
        if isinstance(query, (BooleanQuery, BoostQuery,
                              ConstantScoreQuery, PhraseQuery)):
            from .rewrite import rewrite_query
            query = rewrite_query(query)
        if isinstance(query, (KnnFloatVectorQuery, SeededKnnVectorQuery)):
            q = np.asarray(query.vector, dtype=np.float64)
            qn = np.linalg.norm(q)
            if qn == 0:
                return MatchNoDocsQuery("zero query vector")
            q = q / qn
            seed_q = getattr(query, "seed", None)
            flt = self.rewrite(query.filter) if query.filter is not None \
                else None
            segs, docs_l, sims_l = [], [], []
            for si, sr in enumerate(self.reader.segment_readers):
                mat = sr.vectors
                if mat is None or not len(mat):
                    continue
                allowed = None  # sorted local ids the pre-filter accepts
                if flt is not None:
                    # AbstractKnnVectorQuery.kt:26-31: run the filter per
                    # leaf first; only accepted docs enter the KNN
                    allowed, _ = self._filter_docs(sr, flt, 1.0)
                    if not len(allowed):
                        continue
                graph = sr.hnsw
                if graph is not None and allowed is not None:
                    ef = query.ef_search or max(2 * query.k, 64)
                    if len(allowed) <= max(query.k, ef):
                        # filter cost ≤ k/ef → exact search over the
                        # accepted docs (the reference's exactSearch path)
                        sub = mat[allowed]
                        vnorm = np.linalg.norm(sub, axis=1)
                        vnorm[vnorm == 0] = 1.0
                        sims = (sub @ q) / vnorm
                        tomb = sr.tombstones
                        if tomb is not None and len(tomb):
                            sims[np.isin(allowed, tomb)] = -np.inf
                        miss = sr.vector_missing
                        if miss is not None:
                            sims[miss[allowed]] = -np.inf
                        nk = min(query.k, len(sims))
                        sel = np.argpartition(-sims, nk - 1)[:nk] \
                            if nk < len(sims) else np.arange(len(sims))
                        sel = sel[np.isfinite(sims[sel])]
                        segs.append(np.full(len(sel), sr.seg, np.int64))
                        docs_l.append(allowed[sel].astype(np.int64))
                        sims_l.append(sims[sel])
                        continue
                    # filtered graph search: over-fetch, intersect with
                    # accepted, exact-fallback if the pool collapses
                    ids, _ = graph.search(np.asarray(query.vector,
                                                     np.float32),
                                          k=ef, ef=ef)
                    ids = ids[_isin_sorted(ids, allowed)]
                    if len(ids) < query.k:
                        graph = None  # fall through to the exact scan
                    else:
                        miss = sr.vector_missing
                        if miss is not None:
                            ids = ids[~miss[ids]]
                        tomb = sr.tombstones
                        if tomb is not None and len(tomb):
                            ids = ids[~np.isin(ids, tomb)]
                        sel = ids[:min(query.k, len(ids))]
                        vnorm = np.linalg.norm(mat[sel], axis=1)
                        vnorm[vnorm == 0] = 1.0
                        segs.append(np.full(len(sel), sr.seg, np.int64))
                        docs_l.append(sel.astype(np.int64))
                        sims_l.append((mat[sel] @ q) / vnorm)
                        continue
                if graph is not None:
                    # approximate per-segment top-k via the HNSW sidecar
                    # (HnswGraphSearcher.search); over-fetch by ef so
                    # tombstoned / vector-less docs filter out without
                    # shrinking the candidate set, then re-score the few
                    # survivors in float64 for exact-path score parity
                    ef = query.ef_search or max(2 * query.k, 64)
                    eps = None
                    if seed_q is not None:
                        # SeededKnnVectorQuery.kt: the seed's per-leaf
                        # top-k (by seed score, tie doc asc) become the
                        # layer-0 entry points; vector-less seeds drop
                        sdocs, sscores = self._score_segment(
                            sr, self.rewrite(seed_q))
                        if len(sdocs):
                            topn = np.lexsort((sdocs, -sscores))
                            topn = topn[:min(query.k, len(topn))]
                            cand_eps = sdocs[topn]
                            smiss = sr.vector_missing
                            if smiss is not None:
                                cand_eps = cand_eps[~smiss[cand_eps]]
                            eps = [int(e) for e in cand_eps]
                    ids, _ = graph.search(np.asarray(query.vector,
                                                     np.float32),
                                          k=ef, ef=ef, entry_points=eps)
                    miss = sr.vector_missing
                    if miss is not None:
                        ids = ids[~miss[ids]]
                    tomb = sr.tombstones
                    if tomb is not None and len(tomb):
                        ids = ids[~np.isin(ids, tomb)]
                    sel = ids[:min(query.k, len(ids))]
                    vnorm = np.linalg.norm(mat[sel], axis=1)
                    vnorm[vnorm == 0] = 1.0
                    segs.append(np.full(len(sel), sr.seg, np.int64))
                    docs_l.append(sel.astype(np.int64))
                    sims_l.append((mat[sel] @ q) / vnorm)
                    continue
                norms = np.linalg.norm(mat, axis=1)
                norms[norms == 0] = 1.0
                sims = (mat @ q) / norms
                if allowed is not None:
                    gate = np.full(len(sims), -np.inf)
                    gate[allowed] = sims[allowed]
                    sims = gate
                miss = sr.vector_missing
                if miss is not None:
                    sims[miss] = -np.inf
                tomb = sr.tombstones
                if tomb is not None and len(tomb):
                    sims[tomb] = -np.inf
                nk = min(query.k, len(sims))
                sel = np.argpartition(-sims, nk - 1)[:nk] if nk < len(sims) \
                    else np.arange(len(sims))
                sel = sel[np.isfinite(sims[sel])]  # drop deleted/vector-less
                segs.append(np.full(len(sel), sr.seg, np.int64))
                docs_l.append(sel.astype(np.int64))
                sims_l.append(sims[sel])
            if not segs:
                return MatchNoDocsQuery("no vector sidecars")
            seg_a = np.concatenate(segs)
            doc_a = np.concatenate(docs_l)
            sim_a = np.concatenate(sims_l)
            order = np.lexsort((doc_a, seg_a, -sim_a))[:query.k]
            by_seg: dict = {}
            for i in order:
                by_seg.setdefault(int(seg_a[i]), []).append(
                    (int(doc_a[i]), float(sim_a[i])))
            resolved = {}
            for s, hits in by_seg.items():
                hits.sort()
                resolved[s] = (np.array([d for d, _ in hits], np.int64),
                               np.array([v for _, v in hits], np.float64))
            return _KnnScoredQuery(resolved)
        if isinstance(query, VectorSimilarityQuery):
            # AbstractVectorSimilarityQuery: ALL vectors at/above the
            # result threshold — exact per-segment scan (the HNSW
            # traversal bound is an acceleration in the reference; the
            # exact scan is its fixed point)
            q = np.asarray(query.vector, dtype=np.float64)
            qn = np.linalg.norm(q)
            if qn == 0:
                return MatchNoDocsQuery("zero query vector")
            q = q / qn
            resolved = {}
            for sr in self.reader.segment_readers:
                mat = sr.vectors
                if mat is None or not len(mat):
                    continue
                norms = np.linalg.norm(mat, axis=1)
                norms[norms == 0] = 1.0
                sims = (mat @ q) / norms
                miss = sr.vector_missing
                if miss is not None:
                    sims[miss] = -np.inf
                tomb = sr.tombstones
                if tomb is not None and len(tomb):
                    sims[tomb] = -np.inf
                sel = np.flatnonzero(sims >= query.result_similarity)
                if len(sel):
                    resolved[sr.seg] = (sel.astype(np.int64),
                                        sims[sel].astype(np.float64))
            if not resolved:
                return MatchNoDocsQuery("no vectors above threshold")
            return _KnnScoredQuery(resolved)
        if isinstance(query, (KnnByteVectorQuery, ByteVectorSimilarityQuery)):
            # byte-vector queries over the int8 scalar-quantized sidecar
            # (KnnByteVectorQuery.kt / ByteVectorSimilarityQuery.kt):
            # integer dot products, score = 0.5 + dot/(dim*2^15)
            # (VectorUtil.dotProductScore) — exact integer ranking, so
            # the global top-k / threshold set is deterministic
            from ..util.quantize import dot_product_score
            qv = np.asarray(query.vector, dtype=np.int64)
            flt = None
            if getattr(query, "filter", None) is not None:
                flt = self.rewrite(query.filter)
            segs, docs_l, sims_l = [], [], []
            for sr in self.reader.segment_readers:
                qz = sr.quantized
                if qz is None:
                    continue
                mat, _corr, miss, _sq = qz
                if not len(mat):
                    continue
                sims = dot_product_score(qv, mat)
                if flt is not None:
                    allowed, _ = self._filter_docs(sr, flt, 1.0)
                    gate = np.full(len(sims), -np.inf)
                    gate[allowed] = sims[allowed]
                    sims = gate
                if miss is not None:
                    sims[miss] = -np.inf
                tomb = sr.tombstones
                if tomb is not None and len(tomb):
                    sims[tomb] = -np.inf
                if isinstance(query, KnnByteVectorQuery):
                    nk = min(query.k, len(sims))
                    sel = np.argpartition(-sims, nk - 1)[:nk] \
                        if nk < len(sims) else np.arange(len(sims))
                    sel = sel[np.isfinite(sims[sel])]
                else:
                    sel = np.flatnonzero(sims >= query.result_similarity)
                if len(sel):
                    segs.append(np.full(len(sel), sr.seg, np.int64))
                    docs_l.append(sel.astype(np.int64))
                    sims_l.append(sims[sel])
            if not segs:
                return MatchNoDocsQuery("no quantized vector sidecars")
            seg_a = np.concatenate(segs)
            doc_a = np.concatenate(docs_l)
            sim_a = np.concatenate(sims_l)
            order = np.lexsort((doc_a, seg_a, -sim_a))
            if isinstance(query, KnnByteVectorQuery):
                order = order[:query.k]
            resolved = {}
            for i in order:
                resolved.setdefault(int(seg_a[i]), [[], []])
                resolved[int(seg_a[i])][0].append(int(doc_a[i]))
                resolved[int(seg_a[i])][1].append(float(sim_a[i]))
            for s, (dl, vl) in list(resolved.items()):
                o = np.argsort(np.asarray(dl, np.int64))
                resolved[s] = (np.asarray(dl, np.int64)[o],
                               np.asarray(vl, np.float64)[o])
            return _KnnScoredQuery(resolved)
        if isinstance(query, BooleanQuery):
            return BooleanQuery(
                tuple((occ, self.rewrite(sub)) for occ, sub in query.clauses),
                query.minimum_should_match)
        if isinstance(query, BoostQuery):
            return BoostQuery(self.rewrite(query.query), query.boost)
        if isinstance(query, DisjunctionMaxQuery):
            return DisjunctionMaxQuery(
                tuple(self.rewrite(d) for d in query.disjuncts),
                query.tie_breaker)
        if isinstance(query, ConstantScoreQuery):
            return ConstantScoreQuery(self.rewrite(query.query))
        return query

    def search_after(self, after: "ScoreDoc | None", query: Query,
                     k: int = 10) -> TopDocs:
        """Deep pagination (``IndexSearcher.searchAfter``): the top-k
        strictly AFTER ``after`` in (score desc, seg asc, doc asc) order —
        page N+1 re-runs the query with page N's last hit, never
        materializing more than k hits anywhere (the scalable alternative
        to a growing offset)."""
        if after is None:
            return self.search(query, k)
        query = self.rewrite(query)
        a_key = (-after.score, after.seg, after.doc)
        total = 0
        parts = []
        for si, sr in enumerate(self.reader.segment_readers):
            docs, scores = self._score_segment(sr, query)
            total += len(docs)
            # keep only hits strictly after the cursor
            sc = scores.astype(np.float64)
            keep = (-sc > a_key[0]) | \
                ((-sc == a_key[0]) & (si > a_key[1])) | \
                ((-sc == a_key[0]) & (si == a_key[1]) & (docs > a_key[2]))
            docs, scores = docs[keep], scores[keep]
            if len(docs) > k:
                sel = _topk_idx(scores, docs, k)
                docs, scores = docs[sel], scores[sel]
            parts.append((scores, np.full(len(docs), si), docs))
        return self._merge(parts, k, total, "EQUAL_TO")

    # ----- top-k --------------------------------------------------------
    def search(self, query: Query, k: int = 10, prune: bool = False,
               timeout_s: float | None = None) -> TopDocs:
        """Top-k. ``timeout_s`` is the per-search time budget
        (TimeLimitingBulkScorer / QueryTimeout, IndexSearcher.kt:661-685):
        when exceeded, remaining segments are skipped and the hit count
        weakens to a lower bound — results so far are still returned.
        """
        query = self.rewrite(query)
        import time as _time
        deadline = (_time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        if prune and isinstance(query, TermQuery):
            return self._search_term_pruned(query, k, deadline)
        if prune and _is_term_disjunction(query):
            return self._search_or_pruned(
                [sub.term for _, sub in query.clauses], k, deadline,
                query.clauses[0][1].field)
        timed_out = False
        total = 0
        parts = []  # (scores, seg, docs)
        for si, sr in enumerate(self.reader.segment_readers):
            if deadline is not None and _time.monotonic() > deadline:
                timed_out = True
                break
            docs, scores = self._score_segment(sr, query)
            total += len(docs)
            if len(docs) > k:  # per-leaf top-k before the merge
                sel = _topk_idx(scores, docs, k)
                docs, scores = docs[sel], scores[sel]
            parts.append((scores, np.full(len(docs), si), docs))
        rel = "GREATER_THAN_OR_EQUAL_TO" if timed_out else "EQUAL_TO"
        return self._merge(parts, k, total, rel)

    def count(self, query: Query) -> int:
        """Exact hit count (IndexSearcher.count / TotalHitCountCollector),
        with the reference's sub-linear shortcuts (IndexSearcher.kt:282 /
        Weight#count): a pure TermQuery answers from the global df and
        MatchAllDocsQuery from docCount — WITHOUT decoding postings — when
        no segment carries deletions (tombstones force the exact walk,
        exactly like liveDocs do in Lucene)."""
        query = self.rewrite(query)
        no_deletes = all(sr.tombstones is None
                         for sr in self.reader.segment_readers)
        if no_deletes and isinstance(query, TermQuery):
            return self.reader.term_stats([query.term],
                                          query.field)[query.term][0]
        if no_deletes and isinstance(query, MatchAllDocsQuery):
            return self.reader.doc_count
        return sum(len(self._score_segment(sr, query, scoring=False)[0])
                   for sr in self.reader.segment_readers)

    def _search_term_pruned(self, query: TermQuery, k: int,
                            deadline: float | None = None) -> TopDocs:
        """Block-max WAND for a single term across segments: carry the
        collector's min-competitive score into every later segment's block
        mask (TopScoreDocCollector.kt:81-135 minCompetitiveScore
        propagation into ImpactsDISI)."""
        import time as _time
        field = query.field
        scorer, _ = self._scorer_for_terms([query.term], field=field)
        top_scores = np.empty(0, dtype=self.sim.dtype)
        hits_seen = 0
        pruned = False
        parts = []
        for si, sr in enumerate(self.reader.segment_readers):
            if deadline is not None and _time.monotonic() > deadline:
                pruned = True  # remaining segments skipped → lower bound
                break
            threshold = None
            if hits_seen >= TOTAL_HITS_THRESHOLD and len(top_scores) >= k:
                threshold = np.partition(top_scores, -k)[-k]

            def keep(maxf, minn, last, _t=threshold):
                if _t is None:
                    return np.ones(len(maxf), dtype=bool)
                bounds = scorer.score(maxf, minn.astype(np.uint8))
                return bounds > _t
            docs, freqs = sr.postings_pruned(query.term, keep, field)
            tomb = sr.tombstones
            if tomb is not None and len(docs):
                live = ~_isin_sorted(docs, tomb)
                docs, freqs = docs[live], freqs[live]
            if threshold is not None:
                pruned = True
            hits_seen += len(docs)
            if len(docs) == 0:
                continue
            scores = scorer.score(freqs, sr.norms_for(field)[docs])
            sel = _topk_idx(scores, docs, k)
            parts.append((scores[sel], np.full(len(sel), si), docs[sel]))
            top_scores = np.concatenate([top_scores, scores[sel]])
            if len(top_scores) > k:
                top_scores = np.partition(top_scores, -k)[-k:]
        rel = "GREATER_THAN_OR_EQUAL_TO" if pruned else "EQUAL_TO"
        return self._merge(parts, k, hits_seen, rel)

    def _search_or_pruned(self, terms: list[str], k: int,
                          deadline: float | None = None,
                          field: str = "text") -> TopDocs:
        """MaxScore pruning for a pure term disjunction
        (MaxScoreBulkScorer.kt:15-36 essential/non-essential split +
        WANDScorer's θ feedback): once the collector holds ≥ threshold hits,
        terms whose per-segment score upper bound cannot lift a
        non-essential-only doc above θ are dropped from candidate
        *generation* (their freqs still contribute to candidates found via
        essential terms). Hit counts become lower bounds
        (TotalHits.GREATER_THAN_OR_EQUAL_TO), exactly like the reference.
        """
        import time as _time
        dt = self.sim.dtype
        stats = self.reader.term_stats(terms, field)
        live = [t for t in terms if stats[t][0] > 0]
        dc, sttf = self.reader.field_stats(field)
        scorers = {t: self._sim(field).scorer(1.0, dc, sttf, [stats[t][0]],
                                              [stats[t][1]])
                   for t in live}
        top_scores = np.empty(0, dtype=dt)
        hits_seen = 0
        pruned = False
        parts = []
        for si, sr in enumerate(self.reader.segment_readers):
            if deadline is not None and _time.monotonic() > deadline:
                pruned = True  # remaining segments skipped → lower bound
                break
            theta = None
            if hits_seen >= TOTAL_HITS_THRESHOLD and len(top_scores) >= k:
                theta = float(np.partition(top_scores, -k)[-k])
            posts = {t: p for t in live
                     if (p := sr.postings(t, field=field)) is not None}
            if not posts:
                continue
            # per-term upper bound in this segment = max block impact score
            ubs = {}
            for t in posts:
                row = sr.term_row(t, field)
                maxf = np.asarray(row["block_max_freq"], dtype=np.int64)
                minn = np.asarray(row["block_min_norm"], dtype=np.uint8)
                ubs[t] = float(scorers[t].score(maxf, minn).max()) \
                    if len(maxf) else 0.0
            order = sorted(posts, key=lambda t: ubs[t])  # ascending bound
            essential, acc = [], 0.0
            for t in order:
                # non-essential prefix: cumulative bound cannot beat θ
                if theta is not None and acc + ubs[t] <= theta:
                    acc += ubs[t]
                    pruned = True
                else:
                    essential.append(t)
            if not essential:
                continue
            cand = np.unique(np.concatenate(
                [posts[t][0] for t in essential]))
            tomb = sr.tombstones
            if tomb is not None and len(cand):
                cand = cand[~_isin_sorted(cand, tomb)]
            scores = np.zeros(len(cand), dtype=np.float64)
            for t in posts:  # ALL terms score the surviving candidates
                d, f = posts[t]
                idx = np.searchsorted(d, cand)
                idx[idx == len(d)] = 0
                hit = d[idx] == cand
                sc = scorers[t].score(f[idx[hit]],
                                      sr.norms_for(field)[cand[hit]])
                scores[hit] += sc.astype(np.float64)
            scores = scores.astype(dt)
            hits_seen += len(cand)
            sel = _topk_idx(scores, cand, k)
            parts.append((scores[sel], np.full(len(sel), si), cand[sel]))
            top_scores = np.concatenate([top_scores, scores[sel]])
            if len(top_scores) > k:
                top_scores = np.partition(top_scores, -k)[-k:]
        rel = "GREATER_THAN_OR_EQUAL_TO" if pruned else "EQUAL_TO"
        return self._merge(parts, k, hits_seen, rel)

    def _merge(self, parts, k: int, total: int, relation: str) -> TopDocs:
        """TopDocs.merge: (score desc, seg asc, doc asc) — TopDocs.kt:166-207."""
        if parts:
            scores = np.concatenate([p[0] for p in parts])
            segs = np.concatenate([p[1] for p in parts]).astype(np.int64)
            docs = np.concatenate([p[2] for p in parts])
        else:
            scores = np.empty(0, self.sim.dtype)
            segs = docs = np.empty(0, np.int64)
        order = np.lexsort((docs, segs, -scores.astype(np.float64)))[:k]
        hits = [ScoreDoc(float(scores[i]), int(segs[i]), int(docs[i]))
                for i in order]
        self._resolve(hits)
        return TopDocs(int(total), relation, hits)

    def rescore(self, first_pass: TopDocs, query: Query,
                weight: float = 1.0, top_n: int = 10) -> TopDocs:
        """``search/QueryRescorer.kt`` two-pass retrieval: re-score the
        first pass's hits with a second query — combined score =
        firstPassScore + weight × secondPassScore when the second query
        matches the doc, else the first-pass score alone (the static
        ``QueryRescorer.rescore`` combine). The reference merge-walks a
        doc-at-a-time scorer over the hits sorted by docID; here the
        second pass evaluates once per TOUCHED segment (vectorized) and
        binary-searches the hit docs into its match list — same
        contract, no iterator plumbing. Final order (score desc, global
        doc asc) and the preserved first-pass totalHits match
        ``QueryRescorer.kt`` (sort + topN at :82-93)."""
        q = self.rewrite(query)
        by_seg: dict[int, list[ScoreDoc]] = {}
        for h in first_pass.score_docs:
            by_seg.setdefault(h.seg, []).append(h)
        new_hits: list[ScoreDoc] = []
        for si, hs in by_seg.items():
            sr = self.reader.segment_readers[si]
            docs, scores = self._score_segment(sr, q)
            tgt = np.array([h.doc for h in hs], np.int64)
            pos = np.searchsorted(docs, tgt)
            for h, p in zip(hs, pos):
                s = float(h.score)
                if p < len(docs) and docs[p] == h.doc:
                    s += weight * float(scores[p])
                new_hits.append(ScoreDoc(s, h.seg, h.doc, h.doc_id, h.url))
        new_hits.sort(key=lambda h: (-h.score, h.seg, h.doc))
        return TopDocs(first_pass.total_hits, first_pass.relation,
                       new_hits[:top_n])

    def rescore_by_sort(self, first_pass: TopDocs, sort_fields,
                        top_n: int = 10) -> TopDocs:
        """``search/SortRescorer.kt``: re-sort the first-pass hit set by
        a Sort — the reference replays the hits through a
        TopFieldCollector (docID-ascending merge walk, kt:42-72) and then
        copies the ORIGINAL first-pass scores back onto the re-sorted
        docs (kt:77-84). Here the sort keys gather per touched segment
        from the doc-meta sidecar (one Arrow ``take`` per segment) and a
        stable multi-key sort with the global-docID tiebreak reproduces
        the collector order. ``sort_fields``: SortField-likes with
        ``.field`` / ``.descending`` / ``.missing_last`` (None = Lucene's
        missing-sorts-smallest default)."""
        import pandas as pd
        hits = list(first_pass.score_docs)
        if not hits:
            return first_pass
        fields = [sf.field for sf in sort_fields]
        cols: dict[str, list] = {f: [None] * len(hits) for f in fields}
        by_seg: dict[int, list[int]] = {}
        for i, h in enumerate(hits):
            by_seg.setdefault(h.seg, []).append(i)
        for si, idxs in by_seg.items():
            dm = self.reader.segment_readers[si].doc_meta
            local = [hits[i].doc for i in idxs]
            for f in fields:
                taken = dm[f].take(local).to_pylist()
                for i, v in zip(idxs, taken):
                    cols[f][i] = v
        df = pd.DataFrame({"_i": np.arange(len(hits)),
                           "_seg": [h.seg for h in hits],
                           "_doc": [h.doc for h in hits], **cols})
        # last key first, stable sorts — per-key direction + null policy
        df = df.sort_values(["_seg", "_doc"], kind="mergesort")
        for sf in reversed(list(sort_fields)):
            last = sf.missing_last if sf.missing_last is not None \
                else sf.descending  # missing = smallest → last when desc
            df = df.sort_values(sf.field, ascending=not sf.descending,
                                kind="mergesort",
                                na_position="last" if last else "first")
        order = df["_i"].to_numpy()[:top_n]
        return TopDocs(first_pass.total_hits, first_pass.relation,
                       [hits[i] for i in order])

    # ----- Matches API (Weight.matches / TermMatchesIterator) -----------
    def matches(self, query: Query, doc_id: int):
        """``Weight.matches`` analog (``search/Matches.kt`` /
        ``TermMatchesIterator.kt``): the per-field matched POSITIONS of
        one doc — ``{field: [(start_pos, end_pos, label), ...]}`` sorted
        by (start, end) — or ``None`` when the query does not match the
        doc. A matching query with no positional terms (ranges,
        MatchAll, sloppy phrases) reports ``{}`` —
        ``MatchesUtils.MATCH_WITH_NO_TERMS``. BooleanQuery follows
        ``BooleanWeight.matches`` (BooleanWeight.kt:100-130): a matching
        prohibited clause → None, a missing required clause → None,
        SHOULD matches count toward minimumNumberShouldMatch, and
        required + matching-SHOULD sub-matches union. Term positions
        decode only the touched posting entries
        (``positions_for_entries`` — the positional skip-read)."""
        q = self.rewrite(query)
        for sr in self.reader.segment_readers:
            ids = sr.doc_meta["doc_id"].to_numpy()
            hit = np.flatnonzero(ids == doc_id)
            if len(hit):
                local = int(hit[0])
                tomb = sr.tombstones
                if tomb is not None and len(tomb) and \
                        local in set(tomb.tolist()):
                    return None
                return self._matches_leaf(sr, q, local)
        return None

    def _term_positions(self, sr: SegmentReader, term: str, field: str,
                        local: int):
        p = sr.postings(term, field=field)
        if p is None:
            return None
        docs, _ = p
        i = int(np.searchsorted(docs, local))
        if i >= len(docs) or docs[i] != local:
            return None
        _, flat = sr.positions_for_entries(term, np.array([i], np.int64),
                                           field)
        return flat

    def _matches_leaf(self, sr: SegmentReader, q: Query, local: int):
        while isinstance(q, (BoostQuery, ConstantScoreQuery)):
            q = q.query
        if isinstance(q, TermQuery):
            pos = self._term_positions(sr, q.term, q.field, local)
            if pos is None:
                return None
            return {q.field: [(int(p), int(p), q.term) for p in pos]}
        if isinstance(q, (SynonymQuery, TermInSetQuery)):
            # DisjunctionMatchesIterator over the term set
            terms = q.synonym_terms if isinstance(q, SynonymQuery) \
                else q.term_set
            out = []
            for t in dict.fromkeys(terms):
                pos = self._term_positions(sr, t, q.field, local)
                if pos is not None:
                    out.extend((int(p), int(p), t) for p in pos)
            if not out:
                return None
            return {q.field: sorted(out)}
        if isinstance(q, PhraseQuery) and q.slop == 0 \
                and len(q.phrase_terms):
            plists = []
            for j, t in enumerate(q.phrase_terms):
                pos = self._term_positions(sr, t, q.field, local)
                if pos is None:
                    return None
                plists.append(np.asarray(pos, np.int64) - j)
            starts = plists[0]
            for pl in plists[1:]:
                starts = np.intersect1d(starts, pl)
            if not len(starts):
                return None
            label = " ".join(q.phrase_terms)
            w = len(q.phrase_terms) - 1
            return {q.field: [(int(s), int(s) + w, label) for s in starts]}
        if isinstance(q, BooleanQuery):
            subs, should_hits = [], 0
            for occ, sub in q.clauses:
                m = self._matches_leaf(sr, self.rewrite(sub), local)
                if occ == Occur.MUST_NOT:
                    if m is not None:
                        return None
                    continue
                if occ in (Occur.MUST, Occur.FILTER):
                    if m is None:
                        return None
                    subs.append(m)
                elif occ == Occur.SHOULD and m is not None:
                    subs.append(m)
                    should_hits += 1
            if should_hits < q.minimum_should_match:
                return None
            merged: dict[str, list] = {}
            for m in subs:
                for f, lst in m.items():
                    merged.setdefault(f, []).extend(lst)
            return {f: sorted(lst) for f, lst in merged.items()}
        # generic: membership only — MATCH_WITH_NO_TERMS (Weight.kt:62)
        docs, _ = self._score_segment(sr, q, scoring=False)
        return {} if np.searchsorted(docs, local) < len(docs) and \
            docs[np.searchsorted(docs, local)] == local else None

    def explain(self, query: Query, doc_id: int) -> dict:
        """Explanation tree for one doc (``Weight.explain`` /
        ``BM25Similarity.explain`` shape): nested {value, description,
        details}. Supports TermQuery and BooleanQuery over terms."""
        for si, sr in enumerate(self.reader.segment_readers):
            dm = sr.doc_meta
            ids = dm["doc_id"].to_numpy()
            # exact scan, not searchsorted: index-sorted segments order
            # docs by the sort key, not by doc_id
            hit = np.flatnonzero(ids == doc_id)
            if len(hit):
                return self._explain_leaf(sr, query, int(hit[0]))
        return {"value": 0.0, "description": f"doc {doc_id} not found",
                "details": []}

    def _explain_leaf(self, sr: SegmentReader, query: Query,
                      local_doc: int) -> dict:
        if isinstance(query, BooleanQuery):
            details = [self._explain_leaf(sr, sub, local_doc)
                       for occ, sub in query.clauses
                       if occ in (Occur.MUST, Occur.SHOULD)]
            matched = [d for d in details if d["value"] > 0]
            return {"value": float(sum(d["value"] for d in matched)),
                    "description": "sum of:", "details": matched}
        if not isinstance(query, TermQuery):
            docs, scores = self._score_segment(sr, query)
            i = np.searchsorted(docs, local_doc)
            v = float(scores[i]) if i < len(docs) and docs[i] == local_doc \
                else 0.0
            return {"value": v, "description": f"score({query!r})",
                    "details": []}
        term = query.term
        stats = self.reader.term_stats([term], query.field)
        df, term_ttf = stats[term]
        p = sr.postings(term, field=query.field)
        if p is None or df == 0:
            return {"value": 0.0,
                    "description": f"no matching term '{term}'", "details": []}
        docs, freqs = p
        i = np.searchsorted(docs, local_doc)
        if i >= len(docs) or docs[i] != local_doc:
            return {"value": 0.0,
                    "description": f"term '{term}' not in doc", "details": []}
        freq = int(freqs[i])
        norm = int(sr.norms_for(query.field)[local_doc])
        n, sttf = self.reader.field_stats(query.field)
        sim = self._sim(query.field)
        idf = sim.idf(df, n)
        # avgdl is a BM25-family stat; other similarities (Classic, LM)
        # have no notion of it — Explanation shows sumTotalTermFreq/N
        avgdl = sim.avgdl(sttf, n) if hasattr(sim, "avgdl") \
            else sttf / n
        scorer = sim.scorer(1.0, n, sttf, [df], [term_ttf])
        score = float(scorer.score(np.array([freq]),
                                   np.array([norm], np.uint8))[0])
        from ..util.smallfloat import LENGTH_TABLE_INT
        dl = int(LENGTH_TABLE_INT[norm])
        return {
            "value": score,
            "description": (f"weight({query.field}:{term}) "
                            f"[{type(self.sim).__name__}]"),
            "details": [
                {"value": idf,
                 "description": f"idf, ln(1+(N-n+0.5)/(n+0.5)) with n={df}, "
                                f"N={n}", "details": []},
                {"value": freq, "description": "freq", "details": []},
                {"value": dl,
                 "description": f"dl, length of field (SmallFloat norm byte "
                                f"{norm})", "details": []},
                {"value": avgdl, "description": "avgdl", "details": []},
            ],
        }

    def _resolve(self, hits: list[ScoreDoc]) -> None:
        """Fetch stored fields (doc_id, url) — StoredFieldVisitor analog;
        the corpus Parquet is the row store (SURVEY §1.4)."""
        for h in hits:
            sr = self.reader.segment_readers[h.seg]
            dm = sr.doc_meta
            h.doc_id = dm["doc_id"][h.doc].as_py()
            h.url = dm["url"][h.doc].as_py()


class _PP:
    """PhrasePositions (PhrasePositions.kt): a phrase slot's iterator over
    its term's positions in the current doc, normalized by phrase offset."""
    __slots__ = ("pos", "offset", "ord", "idx", "count", "position",
                 "rpt_group", "rpt_ind")

    def __init__(self, pos: np.ndarray, offset: int, ord_: int):
        self.pos = pos
        self.offset = offset
        self.ord = ord_
        self.rpt_group = -1
        self.rpt_ind = 0

    def first_position(self):
        self.count = len(self.pos)
        self.idx = 0
        self.next_position()

    def next_position(self) -> bool:
        if self.count > 0:
            self.count -= 1
            self.position = int(self.pos[self.idx]) - self.offset
            self.idx += 1
            return True
        return False


def _sloppy_freq_2(a: np.ndarray, b: np.ndarray, slop: int) -> float:
    """Specialized 2-distinct-term greedy walk — the exact state machine of
    ``_sloppy_freq_doc`` with the queue/repeat machinery peeled away (two
    pointers, one live min). Fuzz-verified identical to the general matcher
    (tests/test_query_operators.py::test_sloppy_two_term_specialization).

    ``a``/``b`` are the offset-normalized position arrays (position - slot
    offset), ascending.
    """
    ia = ib = 0
    pa_ = int(a[0])
    pb = int(b[0])
    end = pa_ if pa_ > pb else pb
    freq = np.float32(0.0)
    one = np.float32(1.0)
    # pop the lesser (tie: lower offset = a), matchLength = end - popped
    while True:
        if pa_ < pb or (pa_ == pb):
            ml = end - pa_
            nxt = pb
            adv_a = True
        else:
            ml = end - pb
            nxt = pa_
            adv_a = False
        matched = False
        matched_ml = 0
        while True:
            if adv_a:
                ia += 1
                if ia >= len(a):
                    break
                pa_ = int(a[ia])
                if pa_ > end:
                    end = pa_
                cur = pa_
            else:
                ib += 1
                if ib >= len(b):
                    break
                pb = int(b[ib])
                if pb > end:
                    end = pb
                cur = pb
            if cur > nxt:
                if ml <= slop:
                    matched = True
                    matched_ml = ml  # before the re-pop overwrites it
                # pop the new lesser
                if pa_ < pb or (pa_ == pb):
                    ml = end - pa_
                    nxt = pb
                    adv_a = True
                else:
                    ml = end - pb
                    nxt = pa_
                    adv_a = False
                if matched:
                    break
            else:
                ml2 = end - cur
                if ml2 < ml:
                    ml = ml2
        if matched:
            freq = freq + one / (one + np.float32(matched_ml))
            continue
        # exhausted
        if ml <= slop:
            freq = freq + one / (one + np.float32(ml))
        return float(freq)


def _sloppy_freq_doc(pos_lists: list[np.ndarray], slop: int,
                     rpt_of: list[int] | None = None) -> float:
    """One doc's sloppy phrase freq = Σ 1/(1+matchLength) over the matches
    found by the reference's greedy minimal-window walk
    (SloppyPhraseMatcher.kt:139-173 nextMatch/sloppyWeight,
    PhraseScorer.kt score()). The walk is deliberately order-dependent
    (see the class comment in the reference: not all combinations are
    found — "a b c"~4 vs "c b a"~4 may score differently); we reproduce
    the same priority-queue traversal, including single-term repeat-group
    collision handling (advanceRpts, case without multi-term postings),
    so freqs are identical. Accumulation is float32 like the reference.

    ``pos_lists[i]`` = ascending positions of the i-th phrase term (lists
    are shared between repeated slots of the same term); phrase offset of
    slot i is i.
    """
    n = len(pos_lists)
    pps = [_PP(pos_lists[i], i, i) for i in range(n)]
    # repeat groups: slots sharing a term — identified by identical position
    # arrays (single-term phrase) or passed explicitly (``rpt_of``, the
    # multi-term path where overlapping slot term-SETS form the groups,
    # SloppyPhraseMatcher.fillRptGroups role), sorted by offset
    groups: dict[int, list[_PP]] = {}
    if rpt_of is None:
        for pp in pps:
            groups.setdefault(id(pp.pos), []).append(pp)
    else:
        for i, pp in enumerate(pps):
            if rpt_of[i] >= 0:
                groups.setdefault(rpt_of[i], []).append(pp)
    rpt_groups = [g for g in groups.values() if len(g) > 1]
    for gi, g in enumerate(rpt_groups):
        for ind, pp in enumerate(g):  # already offset-ascending
            pp.rpt_group, pp.rpt_ind = gi, ind

    # --- init (initPhrasePositions) ---
    for pp in pps:
        pp.first_position()
    for g in rpt_groups:  # advanceRepeatGroups, single-term case
        for j in range(1, len(g)):
            for _ in range(j):
                if not g[j].next_position():
                    return 0.0
    end = max(pp.position for pp in pps)
    queue = list(pps)  # list-backed PQ: pop/top = min by current values

    def key(pp: _PP):
        return (pp.position, pp.offset, pp.ord)  # PhraseQueue.lessThan

    def advance_pp(pp: _PP) -> bool:
        nonlocal end
        if not pp.next_position():
            return False
        if pp.position > end:
            end = pp.position
        return True

    def collide(pp: _PP) -> _PP | None:
        tp = pp.position + pp.offset
        for pp2 in rpt_groups[pp.rpt_group]:
            if pp2 is not pp and pp2.position + pp2.offset == tp:
                return pp2
        return None

    def advance_rpts(pp: _PP) -> bool:
        if pp.rpt_group < 0:
            return True
        while (pp2 := collide(pp)) is not None:
            lower = pp if (pp.position, pp.offset) < (pp2.position,
                                                      pp2.offset) else pp2
            if not advance_pp(lower):
                return False
            pp = lower
        return True

    match_length = [1 << 30]
    positioned = [True]

    def next_match() -> bool:  # SloppyPhraseMatcher.nextMatch
        if not positioned[0]:
            return False
        pp = min(queue, key=key)
        queue.remove(pp)
        match_length[0] = end - pp.position
        nxt = min(queue, key=key).position
        while advance_pp(pp):
            if rpt_groups and not advance_rpts(pp):
                break
            if pp.position > nxt:
                queue.append(pp)
                if match_length[0] <= slop:
                    return True
                pp = min(queue, key=key)
                queue.remove(pp)
                nxt = min(queue, key=key).position
                match_length[0] = end - pp.position
            else:
                ml2 = end - pp.position
                if ml2 < match_length[0]:
                    match_length[0] = ml2
        positioned[0] = False
        return match_length[0] <= slop

    if not next_match():
        return 0.0
    freq = np.float32(1.0) / (np.float32(1.0) + np.float32(match_length[0]))
    while next_match():
        freq = freq + np.float32(1.0) / (np.float32(1.0) +
                                         np.float32(match_length[0]))
    return float(freq)


def _exact_multi_phrase(sr: SegmentReader, slots, field: str = "text"):
    """MultiPhraseQuery exact matcher: per slot the occurrence key set is
    the union over alternatives (disjoint — one term per position), then
    the same sorted-key intersection as _exact_phrase."""
    slot_posts = []
    for slot in slots:
        entries = []
        for t in dict.fromkeys(slot):
            p = sr.postings(t, field=field)
            if p is not None:
                entries.append((t, p[0]))
        if not entries:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        slot_posts.append(entries)
    cand = None
    for entries in slot_posts:
        docs_u = entries[0][1]
        for _, d in entries[1:]:
            docs_u = np.union1d(docs_u, d)
        cand = docs_u if cand is None else _intersect(cand, docs_u)
        if len(cand) == 0:
            return cand, np.empty(0, np.int64)
    # selected positions per (slot, term), then the combined-key join
    selected = []
    max_pos = 0
    for entries in slot_posts:
        per = []
        for t, docs in entries:
            sub = docs[_isin_sorted(docs, cand)]
            if len(sub) == 0:
                continue
            f_sel, flat = sr.positions_for_entries(
                t, np.searchsorted(docs, sub), field)
            if len(flat):
                max_pos = max(max_pos, int(flat.max()))
            per.append((sub, f_sel, flat))
        selected.append(per)
    M = max_pos + len(slots) + 1
    keys = None
    for i, per in enumerate(selected):
        ks = [np.repeat(sub, f_sel) * M + (flat - i)
              for sub, f_sel, flat in per]
        if not ks:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        k = np.sort(np.concatenate(ks)) if len(ks) > 1 else ks[0]
        keys = k if keys is None else keys[_isin_sorted(keys, k)]
        if len(keys) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
    out_docs, out_freqs = np.unique(keys // M, return_counts=True)
    return out_docs.astype(np.int64), out_freqs.astype(np.int64)


def _sloppy_screen_2(a_runs, b_runs, slop: int) -> np.ndarray:
    """EXACT existence screen for the 2-distinct-term case, vectorized
    across all candidate docs at once: a doc can sloppy-match iff some
    normalized pair is within ``slop``; the per-doc min |a' − b'| comes
    from two global searchsorteds over doc-offset keys (cross-doc
    neighbors land ≥ M apart, so they can never fake a gap ≤ slop).

    ``a_runs``/``b_runs`` = (flat_normalized_positions, run_starts) with
    runs in candidate order. Returns the boolean pass mask per candidate.
    """
    a_flat, a_starts = a_runs
    b_flat, b_starts = b_runs
    n_cand = len(a_starts)
    maxp = int(max(a_flat.max(initial=0), b_flat.max(initial=0)))
    M = maxp + slop + 4
    a_doc = np.repeat(np.arange(n_cand, dtype=np.int64),
                      np.diff(np.append(a_starts, len(a_flat))))
    b_doc = np.repeat(np.arange(n_cand, dtype=np.int64),
                      np.diff(np.append(b_starts, len(b_flat))))
    ka = a_doc * M + a_flat
    kb = b_doc * M + b_flat
    i = np.searchsorted(kb, ka)
    gap = np.full(len(ka), np.int64(1 << 40))
    right = i < len(kb)
    gap[right] = kb[i[right]] - ka[right]
    left = i > 0
    np.minimum(gap, np.where(left, ka - kb[np.maximum(i - 1, 0)], 1 << 40),
               out=gap)
    per_doc = np.minimum.reduceat(gap, a_starts) \
        if len(a_flat) else np.full(n_cand, 1 << 40)
    return per_doc <= slop


def _sloppy_multi_phrase(sr: SegmentReader, slots, slop: int,
                         field: str = "text"):
    """Sloppy MultiPhraseQuery: each slot's position list is the UNION of
    its alternatives' positions in the doc (the multi-term postings view a
    UnionPostingsEnum gives SloppyPhraseMatcher), fed through the same
    greedy matcher. Repeat groups form over slots with OVERLAPPING term
    sets (fillRptGroups' connected components), passed explicitly since
    union arrays of different slots are distinct objects. Parity cases
    ported from TestMultiPhraseQuery.kt (blueberry/bluebird pizza ~1).

    Per-candidate work is a small Python loop (slots × terms searchsorted)
    — acceptable for this niche operator; the doc-level intersection
    happens vectorized first.
    """
    slot_posts = []
    for slot in slots:
        entries = []
        for t in dict.fromkeys(slot):
            p = sr.postings(t, positions=True, field=field)
            if p is not None:
                docs, freqs, flat = p
                entries.append((docs, freqs, flat,
                                np.append(0, np.cumsum(freqs))))
        if not entries:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        slot_posts.append(entries)
    cand = None
    for entries in slot_posts:
        docs_u = entries[0][0]
        for d, _, _, _ in entries[1:]:
            docs_u = np.union1d(docs_u, d)
        cand = docs_u if cand is None else _intersect(cand, docs_u)
        if len(cand) == 0:
            return cand, np.empty(0, np.float64)

    # repeat groups: connected components over term-set overlap
    sets = [frozenset(s) for s in slots]
    parent = list(range(len(slots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            if sets[i] & sets[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    roots = [find(i) for i in range(len(slots))]
    sizes = {r: roots.count(r) for r in set(roots)}
    rpt_of = [roots[i] if sizes[roots[i]] > 1 else -1
              for i in range(len(slots))]

    out_docs, out_freqs = [], []
    for d in cand:
        pos_lists = []
        ok = True
        for entries in slot_posts:
            parts = []
            for docs, freqs, flat, offs in entries:
                i = int(np.searchsorted(docs, d))
                if i < len(docs) and docs[i] == d:
                    parts.append(flat[offs[i]:offs[i + 1]])
            if not parts:
                ok = False
                break
            merged = parts[0] if len(parts) == 1 else \
                np.unique(np.concatenate(parts))
            pos_lists.append(merged)
        if not ok:
            continue
        f = _sloppy_freq_doc(pos_lists, slop, rpt_of)
        if f > 0.0:
            out_docs.append(int(d))
            out_freqs.append(f)
    return (np.asarray(out_docs, dtype=np.int64),
            np.asarray(out_freqs, dtype=np.float64))


def _sloppy_phrase(sr: SegmentReader, terms: list[str], slop: int,
                   field: str = "text"):
    """Docs + float sloppy freqs for a slop > 0 phrase.

    The per-candidate Python greedy walk (exact SloppyPhraseMatcher port)
    runs ONLY on docs that survive a vectorized screen: exact
    nearest-gap existence for the dominant 2-distinct-term shape, and the
    necessary window-overlap bound max_s(min positions) − min_s(max
    positions) ≤ slop otherwise (any valid alignment implies it, so no
    matching doc is ever screened out). On the bench corpus the screen
    removes ~70% of the walks (VERDICT r1 #7).
    """
    uniq = list(dict.fromkeys(terms))
    posts = {}
    for t in uniq:
        p = sr.postings(t, positions=True, field=field)
        if p is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        posts[t] = p
    cand = posts[uniq[0]][0]
    for t in uniq[1:]:
        cand = _intersect(cand, posts[t][0])
    if len(cand) == 0:
        return cand, np.empty(0, np.float64)
    # per-term: gather the candidates' position runs contiguously
    runs = {}
    for t in uniq:
        docs, freqs, flat = posts[t]
        offs = np.append(0, np.cumsum(freqs))
        idx = np.searchsorted(docs, cand)
        cnt = freqs[idx]
        starts_out = np.cumsum(cnt) - cnt
        total = int(cnt.sum())
        gidx = np.arange(total, dtype=np.int64) - \
            np.repeat(starts_out, cnt) + np.repeat(offs[idx], cnt)
        runs[t] = (flat[gidx], starts_out, cnt)

    two_distinct = len(terms) == 2 and terms[0] != terms[1]
    if two_distinct:
        a_flat, a_starts, a_cnt = runs[terms[0]]
        b_flat, b_starts, b_cnt = runs[terms[1]]
        b_norm = b_flat - 1
        passed = _sloppy_screen_2((a_flat, a_starts),
                                  (b_norm, b_starts), slop)
        walk_idx = np.flatnonzero(passed)
        # batched C walk (csloppy): same greedy state machine, no Python
        # dispatch per doc — falls through to the per-doc loop when no C
        # compiler is available
        from .csloppy import sloppy2_batch
        freqs_c = sloppy2_batch(a_flat, a_starts, a_cnt,
                                b_norm, b_starts, b_cnt, walk_idx, slop)
        if freqs_c is not None:
            keep = freqs_c > 0.0
            return (cand[walk_idx[keep]].astype(np.int64),
                    freqs_c[keep])
    else:
        # necessary window-overlap screen over per-slot min/max
        mins, maxs = [], []
        for s, t in enumerate(terms):
            flat, starts, cnt = runs[t]
            norm = flat - s
            mins.append(np.minimum.reduceat(norm, starts))
            maxs.append(np.maximum.reduceat(norm, starts))
        lo = np.max(np.vstack(mins), axis=0)
        hi = np.min(np.vstack(maxs), axis=0)
        passed = (lo - hi) <= slop
    walk_idx = np.flatnonzero(passed)

    out_docs, out_freqs = [], []
    for j in walk_idx:
        pos_lists = []
        cache = {}
        for t in terms:
            if t not in cache:
                flat, starts, cnt = runs[t]
                cache[t] = flat[starts[j]:starts[j] + cnt[j]]
            pos_lists.append(cache[t])
        if two_distinct:
            f = _sloppy_freq_2(pos_lists[0], pos_lists[1] - 1, slop)
        else:
            f = _sloppy_freq_doc(pos_lists, slop)
        if f > 0.0:
            out_docs.append(int(cand[j]))
            out_freqs.append(f)
    return (np.asarray(out_docs, dtype=np.int64),
            np.asarray(out_freqs, dtype=np.float64))


def _is_term_disjunction(q: Query) -> bool:
    """Pure SHOULD-of-TermQuery BooleanQuery with DISTINCT terms (the
    MaxScore-eligible shape — duplicate SHOULD clauses each score in the
    exhaustive path, so they stay on it)."""
    if not (isinstance(q, BooleanQuery) and q.minimum_should_match <= 1 and
            all(occ == Occur.SHOULD and isinstance(sub, TermQuery)
                for occ, sub in q.clauses)):
        return False
    terms = [sub.term for _, sub in q.clauses]
    fields = {sub.field for _, sub in q.clauses}
    return len(terms) == len(set(terms)) and len(fields) <= 1


def _topk_idx(scores: np.ndarray, docs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k by (score desc, doc asc), HitQueue tie-break."""
    neg = -scores.astype(np.float64)
    if len(scores) <= k:
        return np.lexsort((docs, neg))
    cut = np.argpartition(neg, k - 1)
    kth = scores[cut[k - 1]]
    cand = np.flatnonzero(scores >= kth)  # all boundary ties kept, then exact
    order = np.lexsort((docs[cand], neg[cand]))[:k]
    return cand[order]


def _range_mask_at(sr: SegmentReader, q: RangeFilterQuery,
                   docs: np.ndarray) -> np.ndarray:
    """Range predicate evaluated ONLY at the candidate docs (the
    doc-values verification side of IndexOrDocValuesQuery): a column
    gather of len(docs) values instead of a whole-segment scan."""
    col = sr.doc_meta[q.field].take(docs).to_numpy(zero_copy_only=False)
    mask = np.ones(len(docs), dtype=bool)
    if q.lower is not None:
        mask &= col >= q.lower
    if q.upper is not None:
        mask &= col <= q.upper
    return mask


def _empty(dtype):
    return np.empty(0, np.int64), np.empty(0, dtype)


def _exact_phrase(sr: SegmentReader, terms: list[str],
                  field: str = "text", offsets: list[int] | None = None):
    """ExactPhraseMatcher: docs containing the terms at consecutive
    positions; freq = number of phrase starts (PhraseQuery scoring freq).

    Fully vectorized positional join: docs intersect FIRST (cheap doc/freq
    streams), then ONLY the candidate entries' position blocks decode
    (positions_for_entries — the positional skip-read), and each term's
    surviving occurrences map to a combined key ``doc * M + (pos - offset)``
    (M chosen so shifted keys cannot collide across docs); phrase starts
    are the intersection of the per-term sorted key arrays — the leapfrog
    of ExactPhraseMatcher taken whole-posting-at-a-time (SURVEY §2.5)."""
    uniq = list(dict.fromkeys(terms))
    posts = {}
    for t in uniq:
        p = sr.postings(t, field=field)
        if p is None:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        posts[t] = p
    cand = posts[uniq[0]][0]
    for t in uniq[1:]:
        cand = _intersect(cand, posts[t][0])
    if len(cand) == 0:
        return cand, np.empty(0, np.int64)
    sel = {}
    for t in uniq:
        docs, _ = posts[t]
        entry_idx = np.searchsorted(docs, cand)
        sel[t] = sr.positions_for_entries(t, entry_idx, field)
    if offsets is None:
        offsets = list(range(len(terms)))
    max_off = max(offsets)
    max_pos = max((int(flat.max()) if len(flat) else 0)
                  for _, flat in sel.values())
    M = max_pos + max_off + 2  # pos - off > -M and M + pos - off > max_pos
    keys = None
    for i, t in zip(offsets, terms):
        freqs, flat = sel[t]
        doc_of = np.repeat(cand, freqs)
        k = doc_of * M + (flat - i)
        # both sides are already sorted (docs ascending, positions ascending
        # within a doc) — searchsorted membership beats intersect1d's resort
        keys = k if keys is None else keys[_isin_sorted(keys, k)]
        if len(keys) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
    out_docs, out_freqs = np.unique(keys // M, return_counts=True)
    return out_docs.astype(np.int64), out_freqs.astype(np.int64)
