"""Searcher: vectorized per-segment scoring + TopDocs merge.

Execution semantics follow ``IndexSearcher.search`` (SURVEY §3.2): term stats
are resolved globally BEFORE scoring (TermStates/CollectionStatistics —
every segment scores with identical global df/ttf/docCount/avgdl, exactly as
a single Lucene IndexSearcher over all leaves), then each segment produces
its matches and the merge reproduces ``TopDocs.merge`` ordering
(``TopDocs.kt:166-207``): (score desc, segment asc, local doc asc).

Per segment a query goes to its handler in one type→handler table
(``_HANDLERS``, end of module) — the vectorized stand-in for Lucene's
``Query → Weight → Scorer(leaf)``. Types resolve through ``__mro__`` (one
entry serves the MultiTermQuery and SpanQuery families); an unregistered
type raises ``TypeError``. A handler is one of three kinds:

- doc-set leaves (``_DocSet``): constant-score queries (ranges, doc-values,
  multi-term, geo/shape/XY), a ``(sr, q) -> sorted docs`` function; every
  doc scores ``boost``, and non-scoring callers call it directly.
- freq leaves (``_FreqLeaf``): Term, phrase and span queries,
  ``(sr, q) -> (docs, freqs)`` plus the query's stats rule.
- scored handlers, ``(searcher, sr, q, boost, scoring) -> (docs, scores)``:
  queries that combine sub-queries or compute their own scores.

A search builds one ``Weight`` for its rewritten query (Lucene's
``createWeight``, once per search, not per segment): the scorer of each
freq-leaf node resolves its term stats on first use and every segment
reuses it. The Weight also holds the bulk plan of the shapes most traffic
has — a (boosted) TermQuery, and a BooleanQuery whose MUST and SHOULD
clauses are all (boosted) term leaves — scored by BM25 in float32 or
float64. For those, a segment is one C call (``cfor.bulk_score``, the
BulkScorer role): it decodes each term's ``.doc`` record, leapfrogs the
MUST clauses and the FILTER doc sets from the shortest (or, with nothing
required, merges the SHOULD clauses' docs), adds the SHOULD clauses,
drops MUST_NOT docs, and scores with the scorers' norm caches. FILTER and
MUST_NOT clauses still evaluate through ``_filter_docs`` (so the query
cache sees them as before) and enter as sorted doc arrays. Exact phrases
take their doc conjunction from the same leapfrog (``cfor.conjoin``),
then read positions through ``positions_for_entries``.

Every other shape runs the numpy handlers: block/vector-at-a-time
instead of doc-at-a-time iterators — the BooleanScorer 4096-doc-window
idea (BooleanScorer.kt:318-319) taken to whole-posting granularity.
Boolean combination: MUST/FILTER = sorted-docID intersection, SHOULD =
union + score sum, MUST_NOT = anti-join (ReqExclScorer analog), FILTER
never contributes score (BooleanClause.kt:15) and
minimumNumberShouldMatch is enforced. The numpy
path is the reference: the bulk scorer sums in its order and dtypes (MUST
scores in the similarity's dtype in clause order, a doc's SHOULD scores in
float64 in clause order, cast, then added), so scores are bit-identical
(tests/test_bulk_scorer.py).

``prune=True`` enables block-max pruning for term queries (WAND family,
WANDScorer.kt / ImpactsDISI.kt / MaxScoreBulkScorer.kt): after
``total_hits_threshold`` (1000, IndexSearcher.kt:1024) hits the collector's
min-competitive score skips 128-doc blocks whose impact bound
score(block_max_freq, block_min_norm) is not competitive; total hits then
becomes a lower bound (TotalHits.Relation.GREATER_THAN_OR_EQUAL_TO,
TotalHits.kt:15).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..index.format import sorted_codes
from ..index.reader import IndexReader, SegmentReader
from ..similarity.bm25 import BM25Similarity
from ..util import cfor
from .query import (EARTH_MEAN_RADIUS_METERS,
                    BlendedTermQuery, BooleanQuery, BoostQuery,
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
from .spans import SpanQuery, collect_term_fields, span_freqs


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
    # the Weight whose handler path is scoring a segment: freq leaves take
    # their scorers from it (Weight.score_segment sets and restores it)
    _weight: "Weight | None" = None

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

    def _match_docs(self, sr: SegmentReader, q: Query) -> np.ndarray:
        """Matching docs of ``q`` in ``sr`` (ascending, deletes not
        applied) without scores: a doc-set leaf's function directly,
        anything else through its handler with scoring off."""
        h = _handler_of(q)
        if isinstance(h, _DocSet):
            return h.docs(sr, q)
        return h(self, sr, q, 1.0, False)[0]

    def _filter_docs(self, sr: SegmentReader, sub: Query) -> np.ndarray:
        """Non-scoring (FILTER / MUST_NOT) sub-query evaluation through
        the LRUQueryCache (LRUQueryCache.kt createWeight wrap): cached
        arrays are read-only and keyed by the frozen query dataclass;
        unhashable rewrite products and small leaves fall through."""
        cache = self.query_cache
        if cache is None or not cache.leaf_cacheable(sr):
            return self._match_docs(sr, sub)
        key = sub
        while isinstance(key, (BoostQuery, ConstantScoreQuery)):
            key = key.query  # Lucene unwraps before onUse (asserts)
        try:
            hash(key)
        except TypeError:
            return self._match_docs(sr, sub)
        self.caching_policy.on_use(key)
        docs = cache.get(key, sr.seg)
        if docs is None:
            docs = self._match_docs(sr, key)
            if self.caching_policy.should_cache(key):
                cache.put(key, sr.seg, docs)
        return docs

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
            return None
        dc, sttf = self.reader.field_stats(field)
        ttfs = [stats[t][1] for t in terms]
        return self._sim(field).scorer(boost, dc, sttf, dfs, ttfs)

    def _scorer_for_present(self, stats, boost: float, field: str):
        """Scorer over the (df, ttf) pairs whose df > 0 (index-absent
        terms are skipped, MultiPhraseQuery.kt:193-215); None when no
        term is present."""
        present = [(df, ttf) for df, ttf in stats if df > 0]
        if not present:
            return None
        dc, sttf = self.reader.field_stats(field)
        return self._sim(field).scorer(boost, dc, sttf,
                                       [df for df, _ in present],
                                       [ttf for _, ttf in present])

    # ----- per-segment match+score: returns (docs asc, scores) ---------
    def _score_segment(self, sr: SegmentReader, query: Query):
        """Match+score one segment through a one-off ``Weight`` (a search
        over many segments builds one Weight and calls its
        ``score_segment``)."""
        return Weight(self, query).score_segment(sr)

    def _score(self, sr: SegmentReader, query: Query,
               boost: float = 1.0, scoring: bool = True):
        """Dispatch one (sub-)query to its handler (deletes not applied)."""
        return _handler_of(query)(self, sr, query, boost, scoring)

    def _score_knn_hits(self, sr: SegmentReader, q: "_KnnScoredQuery",
                        boost: float, scoring: bool):
        dt = self.sim.dtype
        hit = q.by_seg.get(sr.seg)
        if hit is None:
            return _empty(dt)
        docs, sims = hit
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        return docs, (sims * boost).astype(dt)

    def _score_feature(self, sr: SegmentReader, q: FeatureQuery,
                       boost: float, scoring: bool):
        dt = self.sim.dtype
        col = sr.doc_meta[q.field].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        docs = np.flatnonzero(col > 0).astype(np.int64)
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        vals = (boost * q.weight * np.log1p(col[docs] / q.scaling))
        return docs, vals.astype(dt)

    def _score_long_distance(self, sr: SegmentReader,
                             q: LongDistanceFeatureQuery, boost: float,
                             scoring: bool):
        """LongDistanceFeatureQuery.kt: score = w·pivot/(pivot+|v−o|),
        double math, every valued doc matches; uint64 diff keeps the
        distance exact across the full int64 domain (the
        testOverUnderFlow saturation contract)."""
        vals = sr.doc_meta[q.field].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(vals.astype(np.float64)) \
            if vals.dtype.kind == "f" else np.ones(len(vals), bool)
        docs = np.flatnonzero(ok).astype(np.int64)
        v = vals[docs].astype(np.int64)
        o = np.int64(q.origin)
        d = np.where(v >= o,
                     v.astype(np.uint64) - np.uint64(o),
                     np.uint64(o) - v.astype(np.uint64))
        p = np.float64(q.pivot)
        sc = (boost * q.weight) * (p / (p + d.astype(np.float64)))
        return docs, sc.astype(self.sim.dtype)

    def _score_geo_distance_feature(self, sr: SegmentReader,
                                    q: GeoDistanceFeatureQuery,
                                    boost: float, scoring: bool):
        """LatLonPointDistanceFeatureQuery.kt:113: the same clobbered
        haversine distance as GeoDistanceQuery feeding the
        pivot/(pivot+distance) saturation."""
        la = sr.doc_meta[q.lat_field].to_numpy().astype(np.float64)
        lo = sr.doc_meta[q.lon_field].to_numpy().astype(np.float64)
        docs = np.flatnonzero(np.isfinite(la) & np.isfinite(lo)) \
            .astype(np.int64)
        dist = _haversin_meters(la[docs], lo[docs], q.lat, q.lon)
        p = np.float64(q.pivot_m)
        sc = (boost * q.weight) * (p / (p + dist))
        return docs, sc.astype(self.sim.dtype)

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
        subs = [self._score(sr, sub, boost, scoring)
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
        return self._merge(parts, n, total, "EQUAL_TO", ascending=True)

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
        weight = Weight(self, q)
        for si, sr in enumerate(self.reader.segment_readers):
            docs, scores = weight.score_segment(sr)
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
        parts = []
        for sr in self.reader.segment_readers:
            arr, flo = sr.field_terms(field)
            lo, hi = sr.prefix_range(prefix, field)
            parts.append(arr.slice(lo - flo, hi - lo))
        union = sorted_codes(pa.chunked_array(parts, pa.string())
                             .combine_chunks())[1]
        if max_expansions is not None:
            union = union.slice(0, max_expansions)
        return tuple(union.to_pylist())

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
        q = self.rewrite(query) if query is not None else None
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
            dist = _haversin_meters(la[docs], lo[docs], np.float64(lat), lon)
            if q is not None:
                dist[~np.isfinite(dist)] = np.inf  # missing → last
            if len(docs) > n:  # per-leaf top-n before the merge
                sel = np.lexsort((docs, dist))[:n]
                docs, dist = docs[sel], dist[sel]
            parts.append((dist, np.full(len(docs), si), docs))
        return self._merge(parts, n, total, "EQUAL_TO", ascending=True)

    def _score_boolean(self, sr: SegmentReader, q: BooleanQuery,
                       boost: float, scoring: bool):
        dt = self.sim.dtype
        musts, filters, shoulds, nots = [], [], [], []
        deferred: list[RangeFilterQuery] = []
        has_must = any(occ == Occur.MUST for occ, _ in q.clauses)
        for occ, sub in q.clauses:
            if occ == Occur.MUST:
                musts.append(self._score(sr, sub, boost, scoring))
            elif occ == Occur.FILTER:
                target, deferred_check = _filter_target(sub, has_must)
                if deferred_check:
                    deferred.append(target)
                else:
                    filters.append(self._filter_docs(sr, target))
            elif occ == Occur.SHOULD:
                shoulds.append(self._score(sr, sub, boost, scoring))
            else:
                nots.append(self._filter_docs(sr, sub))

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

        required = [d for d, _ in musts] + filters
        if required:
            cand = required[0]
            for d in required[1:]:
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

        for d in nots:
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
            ef = query.ef_search or max(2 * query.k, 64)
            found = []  # (seg, docs, sims) per segment
            for sr in self.reader.segment_readers:
                mat = sr.vectors
                if mat is None or not len(mat):
                    continue
                allowed = None  # sorted local ids the pre-filter accepts
                if flt is not None:
                    # AbstractKnnVectorQuery.kt:26-31: run the filter per
                    # leaf first; only accepted docs enter the KNN
                    allowed = self._filter_docs(sr, flt)
                    if not len(allowed):
                        continue
                graph = sr.hnsw
                ids = None  # graph candidates, best first
                if graph is not None and allowed is not None:
                    if len(allowed) <= max(query.k, ef):
                        # filter cost ≤ k/ef → exact search over the
                        # accepted docs (the reference's exactSearch path)
                        sims = _cosine(mat[allowed], q)
                        tomb = sr.tombstones
                        if tomb is not None and len(tomb):
                            sims[np.isin(allowed, tomb)] = -np.inf
                        miss = sr.vector_missing
                        if miss is not None:
                            sims[miss[allowed]] = -np.inf
                        sel = _top_finite(sims, query.k)
                        found.append((sr.seg, allowed[sel], sims[sel]))
                        continue
                    # filtered graph search: over-fetch, intersect with
                    # accepted, exact-fallback if the pool collapses
                    ids, _ = graph.search(np.asarray(query.vector,
                                                     np.float32),
                                          k=ef, ef=ef)
                    ids = ids[_isin_sorted(ids, allowed)]
                    if len(ids) < query.k:
                        ids = None  # fall through to the exact scan
                elif graph is not None:
                    # approximate per-segment top-k via the HNSW sidecar
                    # (HnswGraphSearcher.search); over-fetch by ef so
                    # tombstoned / vector-less docs filter out without
                    # shrinking the candidate set, then re-score the few
                    # survivors in float64 for exact-path score parity
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
                if ids is not None:
                    miss = sr.vector_missing
                    if miss is not None:
                        ids = ids[~miss[ids]]
                    tomb = sr.tombstones
                    if tomb is not None and len(tomb):
                        ids = ids[~np.isin(ids, tomb)]
                    sel = ids[:min(query.k, len(ids))]
                    found.append((sr.seg, sel, _cosine(mat[sel], q)))
                    continue
                sims = _cosine(mat, q)
                if allowed is not None:
                    gate = np.full(len(sims), -np.inf)
                    gate[allowed] = sims[allowed]
                    sims = gate
                _mask_dead(sims, sr.vector_missing, sr.tombstones)
                sel = _top_finite(sims, query.k)
                found.append((sr.seg, sel, sims[sel]))
            if not found:
                return MatchNoDocsQuery("no vector sidecars")
            return _KnnScoredQuery(_by_segment(found, query.k))
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
                sims = _cosine(mat, q)
                _mask_dead(sims, sr.vector_missing, sr.tombstones)
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
            k = query.k if isinstance(query, KnnByteVectorQuery) else None
            flt = None
            if getattr(query, "filter", None) is not None:
                flt = self.rewrite(query.filter)
            found = []
            for sr in self.reader.segment_readers:
                qz = sr.quantized
                if qz is None:
                    continue
                mat, _corr, miss, _sq = qz
                if not len(mat):
                    continue
                sims = dot_product_score(qv, mat)
                if flt is not None:
                    allowed = self._filter_docs(sr, flt)
                    gate = np.full(len(sims), -np.inf)
                    gate[allowed] = sims[allowed]
                    sims = gate
                _mask_dead(sims, miss, sr.tombstones)
                if k is not None:
                    sel = _top_finite(sims, k)
                else:
                    sel = np.flatnonzero(sims >= query.result_similarity)
                if len(sel):
                    found.append((sr.seg, sel, sims[sel]))
            if not found:
                return MatchNoDocsQuery("no quantized vector sidecars")
            return _KnnScoredQuery(_by_segment(found, k))
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
        weight = Weight(self, query)
        for si, sr in enumerate(self.reader.segment_readers):
            docs, scores = weight.score_segment(sr)
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
        weight = Weight(self, query)
        for si, sr in enumerate(self.reader.segment_readers):
            if deadline is not None and _time.monotonic() > deadline:
                timed_out = True
                break
            docs, scores = weight.score_segment(sr)
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
        total = 0
        for sr in self.reader.segment_readers:
            docs = self._match_docs(sr, query)
            tomb = sr.tombstones
            total += len(docs) if tomb is None else \
                int((~_isin_sorted(docs, tomb)).sum())
        return total

    def _search_term_pruned(self, query: TermQuery, k: int,
                            deadline: float | None = None) -> TopDocs:
        """Block-max WAND for a single term across segments: carry the
        collector's min-competitive score into every later segment's block
        mask (TopScoreDocCollector.kt:81-135 minCompetitiveScore
        propagation into ImpactsDISI)."""
        import time as _time
        field = query.field
        scorer = self._scorer_for_terms([query.term], field=field)
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

    def _merge(self, parts, k: int, total: int, relation: str,
               ascending: bool = False) -> TopDocs:
        """TopDocs.merge: (score desc, seg asc, doc asc) — TopDocs.kt:166-207;
        ``ascending`` ranks the smallest score (a distance) first."""
        if parts:
            scores = np.concatenate([p[0] for p in parts])
            segs = np.concatenate([p[1] for p in parts]).astype(np.int64)
            docs = np.concatenate([p[2] for p in parts])
        else:
            scores = np.empty(0, self.sim.dtype)
            segs = docs = np.empty(0, np.int64)
        key = scores.astype(np.float64)
        order = np.lexsort((docs, segs, key if ascending else -key))[:k]
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
        second = Weight(self, q)
        for si, hs in by_seg.items():
            sr = self.reader.segment_readers[si]
            docs, scores = second.score_segment(sr)
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
        SHOULD matches count toward minimumNumberShouldMatch (at least
        one must match when no clause is required, as in ``search``), and
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
                if tomb is not None and \
                        _isin_sorted(np.array([local]), tomb)[0]:
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
            subs = [self._matches_leaf(sr, self.rewrite(sub), local)
                    for _, sub in q.clauses]
            if not _boolean_match(q, [m is not None for m in subs]):
                return None
            merged: dict[str, list] = {}
            for (occ, _), m in zip(q.clauses, subs):
                if m is not None and occ != Occur.MUST_NOT:
                    for f, lst in m.items():
                        merged.setdefault(f, []).extend(lst)
            return {f: sorted(lst) for f, lst in merged.items()}
        # generic: membership only — MATCH_WITH_NO_TERMS (Weight.kt:62)
        return {} if self._has_doc(sr, q, local) else None

    def _has_doc(self, sr: SegmentReader, q: Query, local: int) -> bool:
        return bool(_isin_sorted(np.array([local]),
                                 self._match_docs(sr, q))[0])

    def explain(self, query: Query, doc_id: int) -> dict:
        """Explanation tree for one doc (``Weight.explain`` /
        ``BM25Similarity.explain`` shape): nested {value, description,
        details}. The query rewrites as in ``search``; TermQuery gets the
        BM25 breakdown, BooleanQuery sums its scoring clauses under
        ``BooleanWeight.explain``'s gating, any other query reports its
        score."""
        query = self.rewrite(query)
        for sr in self.reader.segment_readers:
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
            hits = [self._has_doc(sr, sub, local_doc)
                    for _, sub in query.clauses]
            if not _boolean_match(query, hits):
                return {"value": 0.0, "description": "no match",
                        "details": []}
            details = [self._explain_leaf(sr, sub, local_doc)
                       for (occ, sub), hit in zip(query.clauses, hits)
                       if hit and occ in (Occur.MUST, Occur.SHOULD)]
            return {"value": float(sum(d["value"] for d in details)),
                    "description": "sum of:", "details": details}
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
        the corpus Parquet is the row store (SURVEY §1.4). The two
        columns are looked up once per segment (~3 µs a lookup), then
        read per hit: an Arrow ``take`` costs ~30 µs a call, more than
        the few hits a segment holds."""
        by_seg: dict[int, list[ScoreDoc]] = {}
        for h in hits:
            by_seg.setdefault(h.seg, []).append(h)
        for seg, hs in by_seg.items():
            dm = self.reader.segment_readers[seg].doc_meta
            ids, urls = dm["doc_id"], dm["url"]
            for h in hs:
                h.doc_id, h.url = ids[h.doc].as_py(), urls[h.doc].as_py()


# ----- query kinds of the dispatch table ------------------------------
class _DocSet:
    """Doc-set leaf: ``docs(sr, q)`` gives the sorted int64 matching docs
    of a constant-score query; as a handler every doc scores ``boost``."""
    __slots__ = ("docs",)

    def __init__(self, docs):
        self.docs = docs

    def __call__(self, s: Searcher, sr: SegmentReader, q: Query,
                 boost: float, scoring: bool):
        return _constant(self.docs(sr, q), boost, s.sim.dtype)


_CONSTANT = object()  # stats rule result: every match scores ``boost``


class _FreqLeaf:
    """Freq leaf: ``freqs(sr, q)`` gives (docs asc, per-doc freqs) and
    ``stats(searcher, q, boost)`` the query's scorer — None when it
    matches nothing, ``_CONSTANT`` for a constant score. The scorer
    resolves once a segment has matches to score, once per search
    when a ``Weight`` is scoring (``Weight.scorer``)."""
    __slots__ = ("freqs", "stats")

    def __init__(self, freqs, stats):
        self.freqs = freqs
        self.stats = stats

    def __call__(self, s: Searcher, sr: SegmentReader, q: Query,
                 boost: float, scoring: bool):
        docs, freqs = self.freqs(sr, q)
        dt = s.sim.dtype
        if not scoring:
            return docs, np.zeros(len(docs), dtype=dt)
        if len(docs) == 0:
            return _empty(dt)
        w = s._weight
        scorer = self.stats(s, q, boost) if w is None else \
            w.scorer(self, q, boost)
        if scorer is None:
            return _empty(dt)
        if scorer is _CONSTANT:
            return _constant(docs, boost, dt)
        return docs, scorer.score(freqs, sr.norms_for(q.field)[docs])


class Weight:
    """One search's state for a rewritten query (Lucene's ``Weight``,
    built once per search): the scorer of each freq-leaf node (Term,
    Phrase, span...), resolved on first use and reused by every segment,
    and the bulk plan of a term query or a flat boolean over term
    clauses, which scores a segment in one C call (``_BulkPlan``). Any
    other shape scores through ``_HANDLERS``."""
    __slots__ = ("searcher", "query", "_scorers", "_plan")

    def __init__(self, searcher: Searcher, query: Query):
        self.searcher = searcher
        self.query = query
        self._scorers: dict = {}
        self._plan = _bulk_plan(searcher, query)

    def scorer(self, leaf: "_FreqLeaf", q: Query, boost: float):
        """``leaf.stats(searcher, q, boost)``, built once per (node,
        boost). Keyed by identity: the entry keeps ``q`` alive, so its
        id cannot be reused while the Weight lives."""
        key = (id(q), boost)
        hit = self._scorers.get(key)
        if hit is None:
            hit = self._scorers[key] = (q, leaf.stats(self.searcher, q,
                                                      boost))
        return hit[1]

    def score_segment(self, sr: SegmentReader):
        """``(docs asc, scores)`` of one segment, deleted docs
        subtracted (the liveDocs filter of LeafReader; tombstones
        sidecar, deletes.py) exactly once, after sub-queries combine."""
        s = self.searcher
        if self._plan is not None:
            docs, scores = self._plan.score(self, sr)
        else:
            prev, s._weight = s._weight, self
            try:
                docs, scores = s._score(sr, self.query, 1.0, True)
            finally:
                s._weight = prev
        tomb = sr.tombstones
        if tomb is not None and len(docs):
            keep = ~_isin_sorted(docs, tomb)
            docs, scores = docs[keep], scores[keep]
        return docs, scores


@dataclass
class _BulkPlan:
    """A query ``cfor.bulk_score`` scores: ``leaves`` are the MUST /
    SHOULD term clauses as ``(TermQuery, boost, is_must)`` in clause
    order (a term query is one MUST clause), ``others`` the FILTER /
    MUST_NOT clauses as ``(is_filter, query for _filter_docs)`` in
    clause order."""
    leaves: list
    others: list
    msm: int = 0

    def score(self, w: Weight, sr: SegmentReader):
        """``(docs asc, scores)`` of one segment, deletes not applied."""
        s = w.searcher
        dt = s.sim.dtype
        clauses, weights, must_dfs, should_dfs = [], [], [], []
        must_missing = False
        for leaf, boost, must in self.leaves:
            row = sr.term_row(leaf.term, leaf.field)
            if row is None:
                must_missing |= must
                continue
            sc = w.scorer(_TERM_LEAF, leaf, boost)
            df, ttf = row["df"], row["ttf"]
            clauses.append((row.rec, row.payload, df, ttf > df, must,
                            sc.cache, np.ascontiguousarray(
                                sr.norms_for(leaf.field), np.uint8)))
            weights.append(float(sc.weight))
            (must_dfs if must else should_dfs).append(df)
        filters, excluded = [], []
        for is_filter, sub in self.others:  # clause order, as the
            # query cache's usage policy sees them on the numpy path
            (filters if is_filter else excluded).append(
                s._filter_docs(sr, sub))
        n_should = sum(1 for *_, must in self.leaves if not must)
        if must_missing or self.msm > n_should:
            return _empty(dt)
        if must_dfs or filters:
            cap = min(must_dfs + [len(f) for f in filters])
        else:
            cap = sum(should_dfs)
        if cap == 0:
            return _empty(dt)
        return cfor.bulk_score(clauses, weights, filters, excluded,
                               self.msm, dt, cap)


def _unboost(q: Query, boost: float) -> tuple[Query, float]:
    """Strip BoostQuery wrappers, multiplying their boosts in the order
    the BoostQuery handler does."""
    while type(q) is BoostQuery:
        boost, q = boost * q.boost, q.query
    return q, boost


def _bulk_plan(s: Searcher, query: Query) -> "_BulkPlan | None":
    """The bulk plan of a (boosted) TermQuery or a (boosted)
    BooleanQuery whose MUST and SHOULD clauses are all (boosted) term
    leaves, scored by BM25 in the searcher's float32 / float64 dtype;
    None for anything else."""
    q, boost = _unboost(query, 1.0)
    if type(q) is TermQuery:
        plan = _BulkPlan([(q, boost, True)], [])
    elif type(q) is BooleanQuery:
        has_must = any(occ == Occur.MUST for occ, _ in q.clauses)
        plan = _BulkPlan([], [], q.minimum_should_match)
        for occ, sub in q.clauses:
            if occ in (Occur.MUST, Occur.SHOULD):
                leaf, b = _unboost(sub, boost)
                if type(leaf) is not TermQuery:
                    return None
                plan.leaves.append((leaf, b, occ == Occur.MUST))
            elif occ == Occur.FILTER:
                target, deferred_check = _filter_target(sub, has_must)
                if deferred_check:
                    return None
                plan.others.append((True, target))
            else:
                plan.others.append((False, sub))
        if not plan.leaves:
            return None
    else:
        return None
    dt = s.sim.dtype
    if dt not in (np.float32, np.float64):
        return None
    for leaf, _, _ in plan.leaves:
        sim = s._sim(leaf.field)
        if type(sim) is not BM25Similarity or sim.dtype != dt:
            return None
    return plan


def _filter_target(sub: Query, has_must: bool) -> tuple[Query, bool]:
    """How a FILTER clause evaluates: ``(range query, True)`` when,
    behind MUST clauses, its doc-values side verifies the candidates by
    column gather instead of scanning the whole segment (the
    IndexOrDocValuesQuery cost rule), else ``(query, False)`` for
    ``_filter_docs``."""
    dv = sub.dv_query if isinstance(sub, IndexOrDocValuesQuery) else sub
    if has_must and isinstance(dv, RangeFilterQuery):
        return dv, True
    if isinstance(sub, IndexOrDocValuesQuery):
        return sub.index_query, False
    return sub, False


def _constant(docs: np.ndarray, boost: float, dt):
    return docs, np.full(len(docs), dt.type(boost), dtype=dt)


# ----- freq leaves: (sr, q) -> (docs asc, freqs) ----------------------
def _term_freqs(sr: SegmentReader, term: str, field: str):
    p = sr.postings(term, field=field)
    if p is None:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return p


def _phrase_freqs(sr: SegmentReader, q: PhraseQuery):
    terms = list(q.phrase_terms)
    if len(terms) == 1:  # Lucene rewrites a one-term phrase to a TermQuery
        return _term_freqs(sr, terms[0], q.field)
    if q.slop != 0:
        return _sloppy_phrase(sr, terms, q.slop, q.field)
    return _exact_phrase(sr, terms, q.field)


def _ngram_phrase_freqs(sr: SegmentReader, q: NGramPhraseQuery):
    sel_terms, sel_offsets = q.selected()
    return _exact_phrase(sr, list(sel_terms), q.field, list(sel_offsets))


def _multi_phrase_freqs(sr: SegmentReader, q: MultiPhraseQuery):
    if q.slop != 0:
        return _sloppy_multi_phrase(sr, q.slots, q.slop, q.field)
    return _exact_multi_phrase(sr, q.slots, q.field)


def _terms_scorer(s: Searcher, q: Query, boost: float):
    """Term / Phrase / NGramPhrase: every term's stats; a multi-term
    phrase with an index-absent term matches nothing."""
    return s._scorer_for_terms(q.terms(), boost, q.field)


def _multi_phrase_scorer(s: Searcher, q: MultiPhraseQuery, boost: float):
    stats = s.reader.term_stats(q.terms(), q.field)
    return s._scorer_for_present([stats[t] for t in q.terms()], boost,
                                 q.field)


def _span_scorer(s: Searcher, q: SpanQuery, boost: float):
    """Term stats resolve per clause against each clause's REAL field
    (FieldMaskingSpanQuery masks only the reported field; collection
    stats + norms use ``q.field`` — the reference's documented
    masking-scoring contract). No statically-declared terms (e.g. a
    standalone SpanMultiTermQueryWrapper): the CONSTANT_SCORE rewrite,
    like the MultiTermQuery family."""
    by_field: dict[str, list[str]] = {}
    for t, f in collect_term_fields(q):
        by_field.setdefault(f, []).append(t)
    stats = []
    for f, ts in by_field.items():
        stats.extend(s.reader.term_stats(ts, f).values())
    scorer = s._scorer_for_present(stats, boost, q.field)
    return _CONSTANT if scorer is None else scorer


# ----- doc-set leaves: (sr, q) -> sorted int64 docs -------------------
def _field_exists_docs(sr: SegmentReader, q: FieldExistsQuery):
    dm = sr.doc_meta
    lcol = "length" if q.field == "text" else f"length_{q.field}"
    if lcol in dm.column_names:  # indexed field: ≥1 token
        return np.flatnonzero(dm[lcol].to_numpy() > 0).astype(np.int64)
    # doc-meta column: non-null
    return np.flatnonzero(~np.asarray(dm[q.field].is_null())) \
        .astype(np.int64)


def _multiterm_docs(sr: SegmentReader, q: MultiTermQuery):
    """CONSTANT_SCORE rewrite: union of matching terms' postings
    (MultiTermQuery.kt rewrite family)."""
    idxs = q.rows(sr)
    if len(idxs) == 0:
        return np.empty(0, np.int64)
    return sr.union_docs(idxs)


def _range_mask(col: np.ndarray, lower, upper) -> np.ndarray:
    mask = np.ones(len(col), dtype=bool)
    if lower is not None:
        mask &= col >= lower
    if upper is not None:
        mask &= col <= upper
    return mask


def _range_docs(sr: SegmentReader, q: RangeFilterQuery):
    """PointRangeQuery analog over a doc-meta numeric column."""
    col = sr.doc_meta[q.field].to_numpy()
    return np.flatnonzero(_range_mask(col, q.lower, q.upper)) \
        .astype(np.int64)


def _list_values(sr: SegmentReader, field: str):
    """(flat values, parent row per value) of a list<...> doc-meta
    column — one flatten, parent rows recovered by repeat(counts)."""
    col = sr.doc_meta[field]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
        else col
    counts = pc.fill_null(pc.list_value_length(arr), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    return arr.flatten(), np.repeat(np.arange(len(arr), dtype=np.int64),
                                    counts)


def _sorted_numeric_range_docs(sr: SegmentReader,
                               q: SortedNumericRangeQuery):
    """SortedNumericDocValuesField.newSlowRangeQuery: ANY-value-in-range
    over a list<numeric> doc-meta column."""
    flat, rows = _list_values(sr, q.field)
    values = flat.to_numpy(zero_copy_only=False)
    return np.unique(rows[_range_mask(values, q.lower, q.upper)])


def _sorted_set_range_docs(sr: SegmentReader, q: SortedSetRangeQuery):
    """SortedSetDocValuesField.newSlowRangeQuery: ANY string value in the
    byte range (Arrow utf8 comparison == unsigned byte order here: UTF-8
    lexicographic == code-point order)."""
    flat, rows = _list_values(sr, q.field)
    mask = np.ones(len(flat), dtype=bool)
    if q.lower is not None:
        op = pc.greater_equal if q.include_lower else pc.greater
        mask &= op(flat, q.lower).to_numpy(zero_copy_only=False)
    if q.upper is not None:
        op = pc.less_equal if q.include_upper else pc.less
        mask &= op(flat, q.upper).to_numpy(zero_copy_only=False)
    return np.unique(rows[mask])


def _doc_values_set_docs(sr: SegmentReader, q: DocValuesSetQuery):
    """SortedNumericDocValuesSetQuery.kt / newSlowSetQuery: ANY
    multi-value in the set."""
    flat, rows = _list_values(sr, q.field)
    values = flat.to_numpy(zero_copy_only=False)
    return np.unique(rows[np.isin(values, np.asarray(list(q.values)))])


def _index_sort_range_docs(sr: SegmentReader, q: IndexSortRangeQuery):
    """IndexSortSortedNumericDocValuesRangeQuery.kt: binary-search the
    contiguous doc run when the segment's index sort leads with the query
    field; otherwise fall back to the column scan (the reference's
    fallbackQuery delegation)."""
    isort = (sr.meta or {}).get("index_sort") or []
    col = sr.doc_meta[q.field].to_numpy()
    if not (isort and isort[0][0] == q.field):
        return np.flatnonzero(_range_mask(col, q.lower, q.upper)) \
            .astype(np.int64)
    n = len(col)
    desc = bool(isort[0][1])
    a = col[::-1] if desc else col
    lo_i = 0 if q.lower is None else int(np.searchsorted(
        a, q.lower, side="left"))
    hi_i = n if q.upper is None else int(np.searchsorted(
        a, q.upper, side="right"))
    if desc:  # positions in the reversed view map back mirrored
        lo_i, hi_i = n - hi_i, n - lo_i
    return np.arange(lo_i, max(lo_i, hi_i), dtype=np.int64)


def _point_in_set_docs(sr: SegmentReader, q: PointInSetQuery):
    col = sr.doc_meta[q.field].to_numpy()
    return np.flatnonzero(np.isin(col, np.asarray(list(q.values)))) \
        .astype(np.int64)


def _range_field_docs(sr: SegmentReader, q: RangeFieldQuery):
    lo = sr.doc_meta[q.lo_field].to_numpy()
    hi = sr.doc_meta[q.hi_field].to_numpy()
    inter = (lo <= q.upper) & (hi >= q.lower)
    within = (lo >= q.lower) & (hi <= q.upper)
    mask = {"intersects": inter,
            "within": within,
            "contains": (lo <= q.lower) & (hi >= q.upper),
            "crosses": inter & ~within}[q.relation]
    return np.flatnonzero(mask).astype(np.int64)


def _multi_range_field_docs(sr: SegmentReader, q: MultiRangeFieldQuery):
    """RangeFieldQuery.kt QueryType over numDims > 1: intersects/within/
    contains AND per dimension; crosses is whole-box (intersects-all ∧
    ¬within-all — NOT per-dim crosses)."""
    n = sr.doc_count
    inter = np.ones(n, dtype=bool)
    within = np.ones(n, dtype=bool)
    contains = np.ones(n, dtype=bool)
    for (lo_f, hi_f), (lower, upper) in zip(q.dims, q.ranges):
        lo = sr.doc_meta[lo_f].to_numpy()
        hi = sr.doc_meta[hi_f].to_numpy()
        inter &= (lo <= upper) & (hi >= lower)
        within &= (lo >= lower) & (hi <= upper)
        contains &= (lo <= lower) & (hi >= upper)
    mask = {"intersects": inter,
            "within": within,
            "contains": contains,
            "crosses": inter & ~within}[q.relation]
    return np.flatnonzero(mask).astype(np.int64)


def _geo_box_docs(sr: SegmentReader, q: GeoBoxQuery):
    """LatLonPoint.newBoxQuery over doc-meta lat/lon columns."""
    lat = sr.doc_meta[q.lat_field].to_numpy()
    lon = sr.doc_meta[q.lon_field].to_numpy()
    mask = (lat >= q.min_lat) & (lat <= q.max_lat)
    if q.min_lon <= q.max_lon:
        mask &= (lon >= q.min_lon) & (lon <= q.max_lon)
    else:  # dateline crossing: lon >= min OR lon <= max
        mask &= (lon >= q.min_lon) | (lon <= q.max_lon)
    return np.flatnonzero(mask).astype(np.int64)


def _haversin_meters(lat: np.ndarray, lon: np.ndarray, q_lat,
                     q_lon) -> np.ndarray:
    """SloppyMath.haversinMeters, vectorized — the exact reference formula
    (SloppyMath.kt:38-65) incl. the sort-key low-bits clobber ('so
    subsequent rounding does not create ties')."""
    x1 = np.radians(lat)
    x2 = np.radians(q_lat)
    h1 = 1.0 - np.cos(x1 - x2)
    h2 = 1.0 - np.cos(np.radians(lon - q_lon))
    h = h1 + np.cos(x1) * np.cos(x2) * h2
    h = (h.view(np.int64) & np.int64(-8)).view(np.float64)  # clobber
    return EARTH_MEAN_RADIUS_METERS * 2.0 * \
        np.arcsin(np.minimum(1.0, np.sqrt(h * 0.5)))


def _geo_distance_docs(sr: SegmentReader, q: GeoDistanceQuery):
    lat = sr.doc_meta[q.lat_field].to_numpy().astype(np.float64)
    lon = sr.doc_meta[q.lon_field].to_numpy().astype(np.float64)
    dist = _haversin_meters(lat, lon, q.lat, q.lon)
    return np.flatnonzero(dist <= q.radius_meters).astype(np.int64)


def _ring_contains(lat: np.ndarray, lon: np.ndarray,
                   ring: tuple) -> np.ndarray:
    """Crossing-number ray cast (eastward ray), vectorized over all docs
    of the segment; the implicit closing edge is included."""
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


def _geo_polygon_docs(sr: SegmentReader, q: GeoPolygonQuery):
    """LatLonPoint.newPolygonQuery over doc-meta lat/lon columns:
    crossing-number containment minus holes."""
    lat = sr.doc_meta[q.lat_field].to_numpy().astype(np.float64)
    lon = sr.doc_meta[q.lon_field].to_numpy().astype(np.float64)
    mask = _ring_contains(lat, lon, tuple(q.polygon))
    for hole in q.holes:
        mask &= ~_ring_contains(lat, lon, tuple(hole))
    return np.flatnonzero(mask).astype(np.int64)


def _flat_rings(sr: SegmentReader, lats_field: str, lons_field: str):
    """Every doc's shape ring as one flat vertex array (Arrow list
    offsets — no per-doc loop): ``(y, x, y2, x2, counts, starts)`` where
    (y2, x2) is each vertex's successor within its ring (the last vertex
    wraps to the first) and doc i owns vertices
    ``[starts[i], starts[i] + counts[i])``; None when the segment holds
    no vertex at all."""
    lats = sr.doc_meta[lats_field].combine_chunks()
    lons = sr.doc_meta[lons_field].combine_chunks()
    off = lats.offsets.to_numpy().astype(np.int64)
    y = lats.flatten().to_numpy().astype(np.float64)
    x = lons.flatten().to_numpy().astype(np.float64)
    if not len(y):
        return None
    counts = np.diff(off)
    starts = off[:-1]
    nxt = np.arange(len(y)) + 1
    ends = off[1:] - 1
    nxt[ends[counts > 0]] = starts[counts > 0]
    return y, x, y[nxt], x[nxt], counts, starts


def _cross(ax, ay, bx, by, px, py):
    """Orientation of p against the directed segment a→b (ccw > 0)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _shape_box_docs(sr: SegmentReader, q: ShapeBoxQuery):
    """LatLonShapeBoundingBoxQuery over shape doc-values: one flat pass
    over ALL docs' ring vertices/edges, relating each ring to the box
    with the ShapeField.QueryRelation predicates (see ShapeBoxQuery
    docstring for the exact formulation)."""
    rings = _flat_rings(sr, q.lats_field, q.lons_field)
    if rings is None:  # no shapes at all
        return np.empty(0, np.int64)
    y, x, y2, x2, counts, starts = rings

    # vertices in box (inclusive bounds)
    vin = (y >= q.min_lat) & (y <= q.max_lat) & \
          (x >= q.min_lon) & (x <= q.max_lon)
    any_vin = _ring_counts(vin, starts, counts) > 0
    all_vin = _ring_counts(vin, starts, counts) == counts
    vin_strict = (y > q.min_lat) & (y < q.max_lat) & \
                 (x > q.min_lon) & (x < q.max_lon)
    any_vin_strict = _ring_counts(vin_strict, starts, counts) > 0

    # box corners inside ring: crossing-number parity per corner
    corners = ((q.min_lat, q.min_lon), (q.min_lat, q.max_lon),
               (q.max_lat, q.max_lon), (q.max_lat, q.min_lon))
    corner_in = []
    for cy, cx in corners:
        crossing = ((y > cy) != (y2 > cy)) & \
            (cx < (x2 - x) * (cy - y) / (y2 - y + ((y2 - y) == 0)) + x)
        corner_in.append(_ring_counts(crossing, starts, counts) % 2 == 1)
    any_corner_in = corner_in[0] | corner_in[1] | corner_in[2] | \
        corner_in[3]
    all4_in = corner_in[0] & corner_in[1] & corner_in[2] & corner_in[3]

    # ring edge properly crossing a box edge (ccw orientation test)
    box_edges = (((q.min_lon, q.min_lat), (q.max_lon, q.min_lat)),
                 ((q.max_lon, q.min_lat), (q.max_lon, q.max_lat)),
                 ((q.max_lon, q.max_lat), (q.min_lon, q.max_lat)),
                 ((q.min_lon, q.max_lat), (q.min_lon, q.min_lat)))
    edge_hits = np.zeros(len(y), dtype=bool)
    for (bx1, by1), (bx2, by2) in box_edges:
        d1 = _cross(bx1, by1, bx2, by2, x, y)
        d2 = _cross(bx1, by1, bx2, by2, x2, y2)
        d3 = _cross(x, y, x2, y2, bx1, by1)
        d4 = _cross(x, y, x2, y2, bx2, by2)
        edge_hits |= ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    any_edge_cross = _ring_counts(edge_hits, starts, counts) > 0

    inter = any_vin | any_corner_in | any_edge_cross
    has = counts > 0  # docs without a shape match nothing
    masks = {
        "intersects": inter,
        "within": all_vin,
        "contains": all4_in & ~any_vin_strict & ~any_edge_cross,
        "disjoint": ~inter,
    }
    return np.flatnonzero(masks[q.relation] & has).astype(np.int64)


def _shape_polygon_docs(sr: SegmentReader, q: ShapePolygonQuery):
    """LatLonShapeQuery(Polygon) over shape doc-values: the same
    flat-ring pass as _shape_box_docs, with the box replaced by a query
    ring — parity accumulates per query edge (XOR), crossings test doc
    edges against each query edge. Cost: O(query edges × total doc
    vertices), vectorized across all docs at once."""
    rings = _flat_rings(sr, q.lats_field, q.lons_field)
    if rings is None:
        return np.empty(0, np.int64)
    y, x, y2, x2, counts, starts = rings
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
    any_vin = _ring_counts(vin, starts, counts) > 0
    all_vin = _ring_counts(vin, starts, counts) == counts

    # query vertices inside each doc ring (parity over doc edges)
    all_qv_in = np.ones(len(counts), dtype=bool)
    any_qv_in = np.zeros(len(counts), dtype=bool)
    for qy, qx in ring:
        crossing = ((y > qy) != (y2 > qy)) & \
            (qx < (x2 - x) * (qy - y) / (y2 - y + ((y2 - y) == 0)) + x)
        inside = _ring_counts(crossing, starts, counts) % 2 == 1
        all_qv_in &= inside
        any_qv_in |= inside

    # proper edge crossings (doc edges × query edges)
    edge_hits = np.zeros(len(y), dtype=bool)
    for qy1, qx1, qy2, qx2 in q_edges:
        d1 = _cross(qx1, qy1, qx2, qy2, x, y)
        d2 = _cross(qx1, qy1, qx2, qy2, x2, y2)
        d3 = _cross(x, y, x2, y2, qx1, qy1)
        d4 = _cross(x, y, x2, y2, qx2, qy2)
        edge_hits |= ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    any_cross = _ring_counts(edge_hits, starts, counts) > 0

    inter = any_vin | any_qv_in | any_cross
    has = counts > 0
    masks = {
        "intersects": inter,
        "within": all_vin & ~any_cross,
        "contains": all_qv_in & ~any_cross,
        "disjoint": ~inter,
    }
    return np.flatnonzero(masks[q.relation] & has).astype(np.int64)


def _shape_circle_docs(sr: SegmentReader, q: ShapeCircleQuery):
    """LatLonShapeQuery(Circle) over shape doc-values: vertex distances +
    center-in-ring parity + clamped point-to-segment edge distances, all
    vectorized across every doc's flat ring (one pass per predicate — no
    per-doc Python). Exact for simple rings because the circle is convex
    (see ShapeCircleQuery)."""
    rings = _flat_rings(sr, q.lats_field, q.lons_field)
    if rings is None:
        return np.empty(0, np.int64)
    y, x, y2, x2, counts, starts = rings
    cy, cx, r = q.center_lat, q.center_lon, q.radius

    # vertex distances to the center
    vd = np.hypot(y - cy, x - cx)
    any_v = _ring_counts(vd <= r, starts, counts) > 0
    all_v = _ring_counts(vd <= r, starts, counts) == counts

    # center inside ring (even-odd parity over doc edges)
    dy = y2 - y
    crossing = ((y > cy) != (y2 > cy)) & \
        (cx < (x2 - x) * (cy - y) / (dy + (dy == 0)) + x)
    center_in = _ring_counts(crossing, starts, counts) % 2 == 1

    # clamped point-to-segment distance per edge
    ex, ey = x2 - x, y2 - y
    ln2 = ex * ex + ey * ey
    t = ((cx - x) * ex + (cy - y) * ey) / (ln2 + (ln2 == 0))
    t = np.clip(t, 0.0, 1.0)
    ed = np.hypot(cy - (y + t * ey), cx - (x + t * ex))
    any_e = _ring_counts(ed <= r, starts, counts) > 0
    edge_strictly_closer = _ring_counts(ed < r, starts, counts) > 0

    inter = any_v | center_in | any_e
    has = counts > 0
    masks = {
        "intersects": inter,
        "within": all_v,
        "contains": center_in & ~edge_strictly_closer,
        "disjoint": ~inter,
    }
    return np.flatnonzero(masks[q.relation] & has).astype(np.int64)


def _geo_line_docs(sr: SegmentReader, q: GeoLineQuery):
    """Line.kt/Line2D.kt planar proximity: per-doc minimum
    point-to-segment distance over the polyline's edges (endpoint clamp
    via t in [0,1]), compared against buffer_deg. One vectorized pass per
    edge over the segment's metadata columns."""
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
    return np.flatnonzero(best <= q.buffer_deg * q.buffer_deg) \
        .astype(np.int64)


def _xy_box_docs(sr: SegmentReader, q: XYBoxQuery):
    """XYPointField.newBoxQuery: inclusive planar box, float64 compare
    over float32 coords and float32-snapped bounds (XYRectangle.kt:28-31,
    Rectangle2D containsPoint)."""
    x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
    y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)
    lo_x, hi_x = np.float32(q.min_x), np.float32(q.max_x)
    lo_y, hi_y = np.float32(q.min_y), np.float32(q.max_y)
    mask = (x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)
    return np.flatnonzero(mask).astype(np.int64)


def _xy_circle_docs(sr: SegmentReader, q: XYCircleQuery):
    """XYPointField.newDistanceQuery: cartesian (x-cx)² + (y-cy)² <= r² in
    float64 over float32 coords (Circle2D.kt:285-300 XYCircle2D.contains)."""
    x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
    y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)
    cx = float(np.float32(q.x))
    cy = float(np.float32(q.y))
    r = float(np.float32(q.radius))
    dx, dy = x - cx, y - cy
    return np.flatnonzero(dx * dx + dy * dy <= r * r).astype(np.int64)


def _xy_polygon_docs(sr: SegmentReader, q: XYPolygonQuery):
    """XYPolygon containment (geo/XYPolygon.kt): the shared
    crossing-number ray cast with (x, y) mapped onto the helper's
    (lon, lat) axes; vertices snap to float32 like
    XYEncodingUtils.checkVal."""
    x = sr.doc_meta[q.x_field].to_numpy().astype(np.float64)
    y = sr.doc_meta[q.y_field].to_numpy().astype(np.float64)

    def snap(ring):
        return tuple((float(np.float32(py)), float(np.float32(px)))
                     for px, py in ring)

    mask = _ring_contains(y, x, snap(q.polygon))
    for hole in q.holes:
        mask &= ~_ring_contains(y, x, snap(hole))
    return np.flatnonzero(mask).astype(np.int64)


def _xy_line_docs(sr: SegmentReader, q: XYLineQuery):
    """XYLine proximity (geo/XYLine.kt + Line2D): clamped
    point-to-segment distance over float32-snapped vertices."""
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
    return np.flatnonzero(best <= r * r).astype(np.int64)


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
    slot_posts, cand = _slot_conjunction(sr, slots, field)
    if slot_posts is None or len(cand) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    # selected positions per (slot, term), then the combined-key join
    selected = []
    max_pos = 0
    for entries in slot_posts:
        per = []
        for t, (docs, _) in entries:
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

    def slot_keys(i, per):
        ks = [np.repeat(sub, f_sel) * M + (flat - i)
              for sub, f_sel, flat in per]
        if not ks:
            return np.empty(0, np.int64)
        return np.sort(np.concatenate(ks)) if len(ks) > 1 else ks[0]

    return _phrase_starts(
        (slot_keys(i, per) for i, per in enumerate(selected)), M)


def _slot_conjunction(sr: SegmentReader, slots, field: str,
                      positions: bool = False):
    """Per slot the (term, postings) of each distinct alternative the
    segment holds, and the docs where every slot has one (union within a
    slot, intersection across slots); (None, None) when a slot has none."""
    slot_posts = []
    for slot in slots:
        entries = [(t, p) for t in dict.fromkeys(slot)
                   if (p := sr.postings(t, positions=positions,
                                        field=field)) is not None]
        if not entries:
            return None, None
        slot_posts.append(entries)
    cand = None
    for entries in slot_posts:
        docs_u = entries[0][1][0]
        for _, p in entries[1:]:
            docs_u = np.union1d(docs_u, p[0])
        cand = docs_u if cand is None else _intersect(cand, docs_u)
        if len(cand) == 0:
            break
    return slot_posts, cand


def _phrase_starts(slot_keys, M: int):
    """(docs, phrase-start counts) from each slot's ascending occurrence
    keys ``doc * M + (pos - slot offset)``: a start is a key every slot
    holds (searchsorted membership, both sides already sorted)."""
    keys = None
    for k in slot_keys:
        keys = k if keys is None else keys[_isin_sorted(keys, k)]
        if len(keys) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
    out_docs, out_freqs = np.unique(keys // M, return_counts=True)
    return out_docs.astype(np.int64), out_freqs.astype(np.int64)


def _phrase_conjunction(sr: SegmentReader, terms: list[str], field: str,
                        positions: bool = False):
    """Postings of each distinct phrase term, the docs holding all of
    them (docs intersect before any position decodes) and, per term,
    each such doc's entry in its postings: one C leapfrog
    (``cfor.conjoin``). (None, None, None) when a term is absent from
    the segment."""
    posts = {}
    for t in dict.fromkeys(terms):
        p = sr.postings(t, positions=positions, field=field)
        if p is None:
            return None, None, None
        posts[t] = p
    cand, entries = cfor.conjoin([p[0] for p in posts.values()])
    return posts, cand, dict(zip(posts, entries))


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
    slot_posts, cand = _slot_conjunction(sr, slots, field, positions=True)
    if slot_posts is None or len(cand) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    slot_posts = [[(docs, freqs, flat, np.append(0, np.cumsum(freqs)))
                   for _, (docs, freqs, flat) in entries]
                  for entries in slot_posts]

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

    The per-candidate greedy walk (exact SloppyPhraseMatcher port; in C
    for two distinct terms, ``csloppy``) runs ONLY on docs that survive a
    vectorized screen: exact
    nearest-gap existence for the dominant 2-distinct-term shape, and the
    necessary window-overlap bound max_s(min positions) − min_s(max
    positions) ≤ slop otherwise (any valid alignment implies it, so no
    matching doc is ever screened out). On the bench corpus the screen
    removes ~70% of the walks (VERDICT r1 #7).
    """
    posts, cand, entries = _phrase_conjunction(sr, terms, field,
                                               positions=True)
    if posts is None or len(cand) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    # per-term: gather the candidates' position runs contiguously
    runs = {}
    for t in posts:
        docs, freqs, flat = posts[t]
        offs = np.append(0, np.cumsum(freqs))
        idx = entries[t]
        cnt = freqs[idx]
        starts_out = np.cumsum(cnt) - cnt
        total = int(cnt.sum())
        gidx = np.arange(total, dtype=np.int64) - \
            np.repeat(starts_out, cnt) + np.repeat(offs[idx], cnt)
        runs[t] = (flat[gidx], starts_out, cnt)

    if len(terms) == 2 and terms[0] != terms[1]:
        a_flat, a_starts, a_cnt = runs[terms[0]]
        b_flat, b_starts, b_cnt = runs[terms[1]]
        b_norm = b_flat - 1
        passed = _sloppy_screen_2((a_flat, a_starts),
                                  (b_norm, b_starts), slop)
        walk_idx = np.flatnonzero(passed)
        # batched C walk (csloppy): the greedy state machine with no
        # Python dispatch per doc
        from .csloppy import sloppy2_batch
        freqs_c = sloppy2_batch(a_flat, a_starts, a_cnt,
                                b_norm, b_starts, b_cnt, walk_idx, slop)
        keep = freqs_c > 0.0
        return cand[walk_idx[keep]].astype(np.int64), freqs_c[keep]
    # necessary window-overlap screen over per-slot min/max
    mins, maxs = [], []
    for s, t in enumerate(terms):
        flat, starts, cnt = runs[t]
        norm = flat - s
        mins.append(np.minimum.reduceat(norm, starts))
        maxs.append(np.maximum.reduceat(norm, starts))
    lo = np.max(np.vstack(mins), axis=0)
    hi = np.min(np.vstack(maxs), axis=0)
    walk_idx = np.flatnonzero((lo - hi) <= slop)

    out_docs, out_freqs = [], []
    for j in walk_idx:
        pos_lists = []
        cache = {}
        for t in terms:
            if t not in cache:
                flat, starts, cnt = runs[t]
                cache[t] = flat[starts[j]:starts[j] + cnt[j]]
            pos_lists.append(cache[t])
        f = _sloppy_freq_doc(pos_lists, slop)
        if f > 0.0:
            out_docs.append(int(cand[j]))
            out_freqs.append(f)
    return (np.asarray(out_docs, dtype=np.int64),
            np.asarray(out_freqs, dtype=np.float64))


def _boolean_match(q: BooleanQuery, hits: list[bool]) -> bool:
    """BooleanWeight's match rule (BooleanWeight.kt:100-130) over each
    clause's hit flag: no MUST_NOT clause hits, every MUST and FILTER
    clause hits, and at least minimum_should_match SHOULD clauses hit —
    at least one when no clause is required (as ``_score_boolean``)."""
    required, should_hits = False, 0
    for (occ, _), hit in zip(q.clauses, hits):
        if occ == Occur.SHOULD:
            should_hits += hit
        elif occ == Occur.MUST_NOT:
            if hit:
                return False
        elif not hit:
            return False
        else:
            required = True
    msm = q.minimum_should_match
    return should_hits >= (msm if required else max(1, msm))


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


def _top_finite(sims: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-``k`` similarities of one segment, dropping the
    -inf ones (deleted, filtered-out or vector-less docs)."""
    nk = min(k, len(sims))
    sel = np.argpartition(-sims, nk - 1)[:nk] if nk < len(sims) \
        else np.arange(len(sims))
    return sel[np.isfinite(sims[sel])]


def _cosine(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cosine of each row against the unit query vector ``q`` (a zero row
    divides by 1)."""
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return (mat @ q) / norms


def _mask_dead(sims: np.ndarray, miss, tomb) -> None:
    """-inf the similarities of vector-less (``miss``) and deleted docs."""
    if miss is not None:
        sims[miss] = -np.inf
    if tomb is not None and len(tomb):
        sims[tomb] = -np.inf


def _by_segment(found: list, k: int | None) -> dict:
    """The global top-``k`` (every hit when None) of the per-segment
    ``(seg, docs, sims)`` hits by (similarity desc, seg asc, doc asc),
    grouped as seg -> (docs asc, float64 sims): the resolved doc set a
    KNN query rewrites to."""
    seg_a = np.concatenate([np.full(len(d), s, np.int64)
                            for s, d, _ in found])
    doc_a = np.concatenate([d for _, d, _ in found]).astype(np.int64)
    sim_a = np.concatenate([v for _, _, v in found])
    order = np.lexsort((doc_a, seg_a, -sim_a))[:k]
    seg_a, doc_a, sim_a = seg_a[order], doc_a[order], sim_a[order]
    resolved = {}
    for s in np.unique(seg_a):
        at = np.flatnonzero(seg_a == s)
        at = at[np.argsort(doc_a[at], kind="stable")]
        resolved[int(s)] = (doc_a[at], sim_a[at].astype(np.float64))
    return resolved


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
    return _range_mask(col, q.lower, q.upper)


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
    posts, cand, entries = _phrase_conjunction(sr, terms, field)
    if posts is None or len(cand) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    sel = {t: sr.positions_for_entries(t, entries[t], field) for t in posts}
    if offsets is None:
        offsets = list(range(len(terms)))
    max_off = max(offsets)
    max_pos = max((int(flat.max()) if len(flat) else 0)
                  for _, flat in sel.values())
    M = max_pos + max_off + 2  # pos - off > -M and M + pos - off > max_pos
    # keys are sorted (docs ascending, positions ascending within a doc)
    return _phrase_starts((np.repeat(cand, sel[t][0]) * M + (sel[t][1] - i)
                           for i, t in zip(offsets, terms)), M)


# ----- the dispatch table ----------------------------------------------
def _score_rewritten(s: Searcher, sr: SegmentReader, q: Query,
                     boost: float, scoring: bool):
    """KNN queries left unresolved (e.g. nested where ``rewrite`` does not
    reach) resolve to their global top-k here, then score."""
    return s._score(sr, s.rewrite(q), boost, scoring)


_TERM_LEAF = _FreqLeaf(lambda sr, q: _term_freqs(sr, q.term, q.field),
                       _terms_scorer)
_HANDLERS = {
    # doc-set leaves
    MatchAllDocsQuery: _DocSet(
        lambda sr, q: np.arange(sr.doc_count, dtype=np.int64)),
    MatchNoDocsQuery: _DocSet(lambda sr, q: np.empty(0, np.int64)),
    FieldExistsQuery: _DocSet(_field_exists_docs),
    MultiTermQuery: _DocSet(_multiterm_docs),
    RangeFilterQuery: _DocSet(_range_docs),
    SortedNumericRangeQuery: _DocSet(_sorted_numeric_range_docs),
    SortedSetRangeQuery: _DocSet(_sorted_set_range_docs),
    DocValuesSetQuery: _DocSet(_doc_values_set_docs),
    IndexSortRangeQuery: _DocSet(_index_sort_range_docs),
    PointInSetQuery: _DocSet(_point_in_set_docs),
    RangeFieldQuery: _DocSet(_range_field_docs),
    MultiRangeFieldQuery: _DocSet(_multi_range_field_docs),
    GeoBoxQuery: _DocSet(_geo_box_docs),
    GeoDistanceQuery: _DocSet(_geo_distance_docs),
    GeoPolygonQuery: _DocSet(_geo_polygon_docs),
    GeoLineQuery: _DocSet(_geo_line_docs),
    ShapeBoxQuery: _DocSet(_shape_box_docs),
    ShapePolygonQuery: _DocSet(_shape_polygon_docs),
    ShapeCircleQuery: _DocSet(_shape_circle_docs),
    XYBoxQuery: _DocSet(_xy_box_docs),
    XYCircleQuery: _DocSet(_xy_circle_docs),
    XYPolygonQuery: _DocSet(_xy_polygon_docs),
    XYLineQuery: _DocSet(_xy_line_docs),
    # freq leaves
    TermQuery: _TERM_LEAF,
    PhraseQuery: _FreqLeaf(_phrase_freqs, _terms_scorer),
    NGramPhraseQuery: _FreqLeaf(_ngram_phrase_freqs, _terms_scorer),
    MultiPhraseQuery: _FreqLeaf(_multi_phrase_freqs, _multi_phrase_scorer),
    SpanQuery: _FreqLeaf(span_freqs, _span_scorer),
    # scored handlers: (searcher, sr, q, boost, scoring)
    BoostQuery: lambda s, sr, q, boost, scoring: s._score(
        sr, q.query, boost * q.boost, scoring),
    ConstantScoreQuery: lambda s, sr, q, boost, scoring: _constant(
        s._match_docs(sr, q.query), boost, s.sim.dtype),
    # standalone = leading iteration → the index-driven execution
    IndexOrDocValuesQuery: lambda s, sr, q, boost, scoring: s._score(
        sr, q.index_query, boost, scoring),
    DisjunctionMaxQuery: Searcher._score_dismax,
    BooleanQuery: Searcher._score_boolean,
    SynonymQuery: Searcher._score_synonym,
    CombinedFieldQuery: Searcher._score_combined_field,
    BlendedTermQuery: Searcher._score_blended,
    IndriAndQuery: Searcher._score_indri_and,
    FeatureQuery: Searcher._score_feature,
    LongDistanceFeatureQuery: Searcher._score_long_distance,
    GeoDistanceFeatureQuery: Searcher._score_geo_distance_feature,
    _KnnScoredQuery: Searcher._score_knn_hits,
    KnnFloatVectorQuery: _score_rewritten,
    SeededKnnVectorQuery: _score_rewritten,
    KnnByteVectorQuery: _score_rewritten,
    ByteVectorSimilarityQuery: _score_rewritten,
}


@functools.cache
def _handler(cls: type):
    """The handler of a query type: its own entry, else the entry of its
    nearest registered base in ``__mro__`` order; None when unsupported."""
    return next((_HANDLERS[c] for c in cls.__mro__ if c in _HANDLERS),
                None)


def _handler_of(query: Query):
    h = _handler(type(query))
    if h is None:
        raise TypeError(f"unsupported query: {query!r}")
    return h
