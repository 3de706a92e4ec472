"""Query IR — the subset of the reference's Query tree needed v1.

Mirrors ``/root/reference/core/.../search/``: TermQuery.kt:24,
BooleanQuery.kt:17-101 + BooleanClause.kt:6-28 (MUST/FILTER/SHOULD/MUST_NOT,
minimumNumberShouldMatch), PhraseQuery.kt:56-94 (exact phrase v1),
BoostQuery, MatchAllDocsQuery. Queries are plain data; execution lives in
``searcher.py`` (the Weight/Scorer split collapses because scoring is
vectorized per segment, not iterator-at-a-time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Occur(Enum):
    MUST = "MUST"
    FILTER = "FILTER"      # matches like MUST, contributes no score
    SHOULD = "SHOULD"
    MUST_NOT = "MUST_NOT"  # anti-join; never scores


class Query:
    def terms(self) -> list[str]:
        """All scoring terms (for stats resolution / QueryVisitor analog)."""
        return []


@dataclass(frozen=True)
class TermQuery(Query):
    term: str
    field: str = "text"

    def terms(self):
        return [self.term]


@dataclass(frozen=True)
class PhraseQuery(Query):
    phrase_terms: tuple[str, ...]
    slop: int = 0
    field: str = "text"

    def terms(self):
        return list(self.phrase_terms)


@dataclass(frozen=True)
class MatchAllDocsQuery(Query):
    pass


@dataclass(frozen=True)
class MultiPhraseQuery(Query):
    """Phrase with term alternatives per position
    (``search/MultiPhraseQuery.kt``): slot i matches if ANY of
    ``slots[i]`` occurs there; freq = number of start positions with a
    full alignment. idf sums over ALL present terms of all slots
    (MultiPhraseQuery.kt:193-215 collects every term's TermStatistics,
    skipping index-absent terms)."""
    slots: tuple[tuple[str, ...], ...]
    slop: int = 0
    field: str = "text"

    def terms(self):
        return [t for slot in self.slots for t in slot]


@dataclass(frozen=True)
class NGramPhraseQuery(Query):
    """``search/NGramPhraseQuery.kt``: a PhraseQuery over an n-gram
    analyzed field, optimized to check only every ``gram_size``-th gram
    (plus the last) at its original offset — consecutive grams overlap by
    construction, so the skipped ones are redundant; results are identical
    to the full phrase on an n-gram field (asserted in tests)."""
    gram_size: int
    phrase_terms: tuple[str, ...]
    field: str = "text"

    def selected(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        n = len(self.phrase_terms)
        idx = sorted(set(range(0, n, self.gram_size)) | {n - 1})
        return (tuple(self.phrase_terms[i] for i in idx), tuple(idx))

    def terms(self):
        return list(self.selected()[0])


@dataclass(frozen=True)
class FieldExistsQuery(Query):
    """``search/FieldExistsQuery``: docs with a value for the field. Over
    our schema: "text" matches docs with at least one indexed token
    (norm length > 0); doc-meta columns match where non-null."""
    field: str = "text"


@dataclass(frozen=True)
class MatchNoDocsQuery(Query):
    """``search/MatchNoDocsQuery``: matches nothing (rewrite target)."""
    reason: str = ""


@dataclass(frozen=True)
class ConstantScoreQuery(Query):
    """``search/ConstantScoreQuery``: matches of the wrapped query, every
    hit scoring the boost (1.0 unless wrapped in BoostQuery)."""
    query: Query

    def terms(self):
        return []  # scores don't depend on term stats


@dataclass(frozen=True)
class BoostQuery(Query):
    query: Query
    boost: float

    def terms(self):
        return self.query.terms()


@dataclass(frozen=True)
class SynonymQuery(Query):
    """Scores multiple terms as one (``search/SynonymQuery.kt:40``):
    per-doc freq = sum over terms, blended stats df = max(term dfs),
    ttf = sum(term ttfs) — SynonymQuery.kt:182-202."""
    synonym_terms: tuple[str, ...]
    field: str = "text"

    def terms(self):
        return list(self.synonym_terms)


@dataclass(frozen=True)
class DisjunctionMaxQuery(Query):
    """Union of disjuncts scored max + tie_breaker × (sum of non-max) —
    ``search/DisjunctionMaxQuery.kt:11-42``."""
    disjuncts: tuple[Query, ...]
    tie_breaker: float = 0.0

    def terms(self):
        return [t for q in self.disjuncts for t in q.terms()]


class MultiTermQuery(Query):
    """Base of the term-predicate expansion family
    (``search/MultiTermQuery.kt``): the predicate expands against each
    segment's sorted term dictionary and matching docs score a constant
    ``boost`` (CONSTANT_SCORE rewrite — the default used when a filter-like
    query over many terms would blow the BM25 stats budget; wrap in
    BoostQuery to change the constant). Expansion stays on the Arrow term
    column: bounds from the dictionary's byte-wise search, or one Arrow
    kernel over the field's slice."""
    field = "text"  # overridden by subclass dataclass fields

    def rows(self, sr) -> "object":
        """Ascending GLOBAL dictionary rows of segment reader ``sr``
        whose terms match (int64 ndarray)."""
        import numpy as np
        arr, lo = sr.field_terms(self.field)
        return np.flatnonzero(self.matches_arrow(arr)) + lo

    def matches_arrow(self, term_arr) -> "object":
        """→ bool ndarray over the field's sorted Arrow term slice."""
        raise NotImplementedError


@dataclass(frozen=True)
class PrefixQuery(MultiTermQuery):
    """``search/PrefixQuery.kt`` — range scan on the sorted term dict."""
    prefix: str
    field: str = "text"

    def rows(self, sr):
        import numpy as np
        return np.arange(*sr.prefix_range(self.prefix, self.field),
                         dtype=np.int64)


@dataclass(frozen=True)
class TermRangeQuery(MultiTermQuery):
    """``search/TermRangeQuery.kt`` — terms in [lower, upper] (bytewise
    order); None bound = open."""
    lower: str | None
    upper: str | None
    include_lower: bool = True
    include_upper: bool = True
    field: str = "text"

    def rows(self, sr):
        import numpy as np
        lo, hi = sr.field_range(self.field)
        # key + "\0" is the least string above key: ceil of it skips key
        if self.lower is not None:
            lo = sr.term_ceil(self.lower if self.include_lower
                              else self.lower + "\0", self.field)
        if self.upper is not None:
            hi = sr.term_ceil(self.upper + "\0" if self.include_upper
                              else self.upper, self.field)
        return np.arange(lo, max(lo, hi), dtype=np.int64)


@dataclass(frozen=True)
class WildcardQuery(MultiTermQuery):
    """``search/WildcardQuery.kt`` — ``*`` any run, ``?`` one char; the
    compiled-automaton run over the term dict becomes a vectorized regex
    match (pyarrow ``match_like`` on the translated pattern — one RE2
    kernel over the Arrow term column, no Python per-term loop)."""
    pattern: str
    field: str = "text"

    def matches_arrow(self, term_arr):
        return _regex_matches_arrow(term_arr,
                                    _wildcard_to_regex(self.pattern))


@dataclass(frozen=True)
class RegexpQuery(MultiTermQuery):
    """``search/RegexpQuery.kt`` — full-term-anchored regexp."""
    regexp: str
    field: str = "text"

    def matches_arrow(self, term_arr):
        return _regex_matches_arrow(term_arr, self.regexp)


@dataclass(frozen=True)
class FuzzyQuery(MultiTermQuery):
    """``search/FuzzyQuery.kt:38-43`` — terms within Levenshtein
    ``max_edits`` (≤2) of ``term``, sharing a ``prefix_length`` prefix. The
    reference runs parametric Levenshtein automata over the FST; over our
    vocabulary-sized sorted term dict a banded-DP scan is equivalent (and
    the prefix + length band prune most candidates first)."""
    term: str
    max_edits: int = 2
    prefix_length: int = 0
    field: str = "text"

    def __post_init__(self):
        if not 0 <= self.max_edits <= 2:
            raise ValueError("max_edits must be 0..2 (LevenshteinAutomata)")

    def matches_arrow(self, term_arr):
        """Vectorized pre-screen before the exact banded DP: length band
        plus the character-histogram L1 bound (every edit changes the
        histogram L1 by at most 2, so dist ≤ k ⇒ L1 ≤ 2k — a necessary
        condition; Arrow count_substring kernels over the term column).
        The Python DP runs only on survivors — the Levenshtein-automaton-
        over-FST role at web vocabulary (FuzzyQuery.kt:38-43)."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc
        t = self.term
        k = self.max_edits
        if k == 0:
            return pc.equal(term_arr, t).to_numpy(zero_copy_only=False) \
                .astype(bool)
        lens = pc.utf8_length(term_arr).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        band = np.abs(lens - len(t)) <= k
        if self.prefix_length:
            band &= pc.starts_with(
                term_arr, pattern=t[:self.prefix_length]) \
                .to_numpy(zero_copy_only=False).astype(bool)
        from collections import Counter
        qc = Counter(t)
        l1 = np.zeros(len(lens), dtype=np.int64)
        other = lens.copy()
        for ch, cnt in qc.items():
            c = pc.count_substring(term_arr, pattern=ch) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            l1 += np.abs(c - cnt)
            other -= c
        l1 += other  # query has zero chars outside its own alphabet
        band &= l1 <= 2 * k
        out = np.zeros(len(lens), dtype=bool)
        idxs = np.flatnonzero(band)
        if len(idxs):
            surv = term_arr.take(pa.array(idxs)).to_pylist()
            for j, c in zip(idxs, surv):
                if _edit_distance_le(t, c, k):
                    out[j] = True
        return out


@dataclass(frozen=True)
class TermInSetQuery(MultiTermQuery):
    """``search/TermInSetQuery.kt`` — semi-join: docs whose field contains
    any of the given terms (constant score)."""
    term_set: tuple[str, ...]
    field: str = "text"

    def matches_arrow(self, term_arr):
        import pyarrow as pa
        import pyarrow.compute as pc
        return pc.is_in(term_arr, value_set=pa.array(
            sorted(set(self.term_set)), pa.string())) \
            .to_numpy(zero_copy_only=False)


def _wildcard_to_regex(pattern: str) -> str:
    import re
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return "".join(parts)


def _regex_matches_arrow(term_arr, pattern: str):
    """Anchored regex over the Arrow term column — ONE RE2 kernel call
    (the compiled-automaton-over-the-FST analog; at a web vocabulary the
    per-term Python loop was the MultiTermQuery hot spot, VERDICT r1 #8).
    A pattern RE2 rejects (lookarounds, backreferences) runs Python's
    ``re`` over the slice instead, decoding one term at a time."""
    import numpy as np
    import pyarrow.compute as pc
    try:
        mask = pc.match_substring_regex(term_arr, f"^(?:{pattern})$")
    except Exception:
        import re

        from ..util.cfor import SortedTerms
        rx = re.compile(pattern)
        return np.fromiter((rx.fullmatch(t) is not None
                            for t in SortedTerms(term_arr)),
                           dtype=bool, count=len(term_arr))
    return mask.to_numpy(zero_copy_only=False).astype(bool)


def _edit_distance_le(a: str, b: str, k: int) -> bool:
    """Banded Levenshtein: distance(a, b) <= k (k ∈ {0,1,2})."""
    if k == 0:
        return a == b
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        row_min = i
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
            row_min = min(row_min, cur[j])
        if row_min > k:
            return False
        prev = cur
    return prev[lb] <= k


@dataclass(frozen=True)
class RangeFilterQuery(Query):
    """Numeric range over a per-doc metadata column (the PointRangeQuery /
    BKD role, ``search/PointRangeQuery.kt:40`` — Parquet row-group min/max
    pruning + Arrow compare replaces the BKD tree, SURVEY §2.5). Matches
    score a constant 1.0 (use in FILTER position for pure filtering)."""
    field: str  # docs.parquet numeric column: "length" or "doc_id"
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class SortedSetRangeQuery(Query):
    """``SortedSetDocValuesField.newSlowRangeQuery`` (document/
    SortedSetDocValuesField.kt, TestDocValuesQueries): matches docs
    where ANY value of the MULTI-VALUED STRING doc-values field falls
    in the [lower, upper] byte range (None = open; bounds inclusive by
    default, matching the BytesRef range contract). Constant score."""
    field: str
    lower: str | None = None
    upper: str | None = None
    include_lower: bool = True
    include_upper: bool = True

    def terms(self):
        return []


@dataclass(frozen=True)
class DocValuesSetQuery(Query):
    """``SortedNumericDocValuesSetQuery`` /
    ``SortedSetDocValuesField.newSlowSetQuery`` (document/
    SortedNumericDocValuesSetQuery.kt:24, TestSortedSetDocValuesSetQuery):
    matches docs where ANY value of the MULTI-VALUED doc-values field is
    in ``values`` — the set-membership semi-join over a list column
    (numeric or string). Constant score."""
    field: str
    values: tuple

    def terms(self):
        return []


@dataclass(frozen=True)
class LongDistanceFeatureQuery(Query):
    """``LongField.newDistanceFeatureQuery``
    (document/LongDistanceFeatureQuery.kt): a SCORING query — every doc
    with a value matches, scored ``weight · pivot / (pivot + |v − origin|)``
    in float64 (the recency/affinity boost; put it in SHOULD next to the
    text query). ``pivot`` is the distance at which the score halves;
    must be > 0 (LongDistanceFeatureQuery.kt ctor check)."""
    field: str
    origin: int
    pivot: int
    weight: float = 1.0

    def __post_init__(self):
        if self.pivot <= 0:
            raise ValueError(
                f"pivotDistance must be > 0, got {self.pivot}")


@dataclass(frozen=True)
class GeoDistanceFeatureQuery(Query):
    """``LatLonPoint.newDistanceFeatureQuery``
    (document/LatLonPointDistanceFeatureQuery.kt:113): proximity boost —
    score = ``weight · pivot_m / (pivot_m + haversinMeters(origin, doc))``
    over the lat/lon doc-meta columns (same clobbered sort-key distance
    as GeoDistanceQuery)."""
    lat: float
    lon: float
    pivot_m: float
    lat_field: str = "lat"
    lon_field: str = "lon"
    weight: float = 1.0

    def __post_init__(self):
        if self.pivot_m <= 0:
            raise ValueError(
                f"pivotDistance must be > 0, got {self.pivot_m}")


@dataclass(frozen=True)
class SortedNumericRangeQuery(Query):
    """``SortedNumericDocValuesField.newSlowRangeQuery``
    (document/SortedNumericDocValuesField.kt, exercised by
    TestDocValuesQueries): matches docs where ANY value of the
    MULTI-VALUED numeric doc-values field falls in [lower, upper]
    (None = open bound). Constant score; the reference documents this
    as the "slow" per-doc verification query meant to pair with a
    points range inside IndexOrDocValuesQuery — here the list column
    is already columnar, so the scan is one flatten + compare kernel."""
    field: str  # a list<numeric> doc-meta column
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class IndexSortRangeQuery(Query):
    """``search/IndexSortSortedNumericDocValuesRangeQuery.kt:39-56``:
    numeric range over a doc-meta column that exploits the segment's
    index sort — when the sort LEADS with this field, the matching docs
    are one contiguous local-docID run found by binary search
    (O(log n) per segment instead of the O(n) column scan); segments
    whose index sort does not match delegate to the fallback execution
    (the reference wraps an explicit ``fallbackQuery``; here the
    fallback is the RangeFilterQuery column scan, so results are
    identical either way). Constant score 1.0 like RangeFilterQuery."""
    field: str
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class IndriAndQuery(Query):
    """``search/IndriAndQuery.kt`` + ``IndriAndScorer.kt:21-46``: the
    union of clause matches scored by the BOOST-WEIGHTED MEAN of clause
    scores, where a clause that does not match the doc contributes its
    smoothing score ``sim.score(freq=0, norm)`` (TermScorer.kt:86-92) —
    the collection background model acting as an idf. Meaningful with
    the LM similarities (IndriDirichletSimilarity pairs with it in the
    reference). ``clauses``: ((term, field, boost), ...)."""
    clauses: tuple

    def terms(self):
        return [t for t, _, _ in self.clauses]


@dataclass(frozen=True)
class RangeFieldQuery(Query):
    """Range-valued field queries (``document/RangeFieldQuery.kt`` —
    the Int/Long/Float/DoubleRange field family): each doc stores an
    interval [lo, hi]; the query relates it to [lower, upper] with
    - intersects: doc.lo ≤ upper ∧ doc.hi ≥ lower (QueryType.kt:59-108)
    - within:     doc.lo ≥ lower ∧ doc.hi ≤ upper (:104-147)
    - contains:   doc.lo ≤ lower ∧ doc.hi ≥ upper (:149-192)
    - crosses:    intersects ∧ ¬within (:251-261 matches())
    Constant score; single dimension (the reference packs up to 4 —
    compose multiple RangeFieldQuerys in FILTER position for that)."""
    lo_field: str
    hi_field: str
    lower: float
    upper: float
    relation: str = "intersects"

    def __post_init__(self):
        if self.relation not in ("intersects", "within", "contains",
                                 "crosses"):
            raise ValueError(f"unknown relation: {self.relation}")

    def terms(self):
        return []


@dataclass(frozen=True)
class MultiRangeFieldQuery(Query):
    """MULTI-DIMENSIONAL range-valued fields (``document/
    RangeFieldQuery.kt`` QueryType with numDims > 1 — the 2-4-dim
    Int/Long/Float/DoubleRange constructors and LatLonBoundingBox):
    each doc stores a box (one [lo, hi] per dimension), the query box
    relates with
    - intersects / within / contains: the 1-D relation must hold in
      EVERY dimension (QueryType.matches ANDs over dims);
    - crosses: whole-box intersects ∧ NOT whole-box within
      (QueryType.kt CROSSES compare — per-dim crosses would be wrong).
    ``dims`` = ((lo_field, hi_field), …), ``ranges`` = ((lower, upper),
    …) in the same dimension order. Constant score."""
    dims: tuple
    ranges: tuple
    relation: str = "intersects"

    def __post_init__(self):
        if self.relation not in ("intersects", "within", "contains",
                                 "crosses"):
            raise ValueError(f"unknown relation: {self.relation}")
        if len(self.dims) != len(self.ranges):
            raise ValueError("dims and ranges must align")

    def terms(self):
        return []


@dataclass(frozen=True)
class PointInSetQuery(Query):
    """``search/PointInSetQuery.kt`` analog: numeric membership over a
    per-doc metadata column (the LongPoint/IntPoint ``newSetQuery``
    role — InetAddressPoint.newSetQuery shares it). Matches score a
    constant (FILTER position for pure filtering); values compare
    exactly, like the BKD set visitor."""
    field: str
    values: tuple

    def terms(self):
        return []


@dataclass(frozen=True)
class VectorSimilarityQuery(Query):
    """``search/FloatVectorSimilarityQuery.kt`` /
    ``AbstractVectorSimilarityQuery.kt``: ALL vectors whose similarity
    to the target meets ``result_similarity`` (the collection
    threshold); ``traversal_similarity`` (≤ result, validated like the
    reference) is the graph-traversal bound — this engine's exact scan
    makes it a no-op, kept for API parity and future HNSW pruning.
    Scores are the raw cosine similarities, like the engine's
    KnnFloatVectorQuery."""
    vector: tuple
    result_similarity: float
    traversal_similarity: float | None = None

    def __post_init__(self):
        t = self.traversal_similarity
        if t is not None and t > self.result_similarity:
            raise ValueError(
                "traversalSimilarity should be <= resultSimilarity")

    def terms(self):
        return []


@dataclass(frozen=True)
class GeoBoxQuery(Query):
    """``LatLonPoint.newBoxQuery`` analog (``document/LatLonPoint.kt``)
    over per-doc lat/lon metadata columns: lat/lon inside the box match
    with constant score. ``min_lon > max_lon`` wraps across the dateline
    (reference semantics). Index the columns via
    ``build_index(..., meta_cols=("lat", "lon"))``."""
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float
    lat_field: str = "lat"
    lon_field: str = "lon"

    def terms(self):
        return []


#: mean earth radius used by the reference (SloppyMath.kt:177 TO_METERS)
EARTH_MEAN_RADIUS_METERS = 6371008.7714


@dataclass(frozen=True)
class GeoDistanceQuery(Query):
    """``LatLonPoint.newDistanceQuery`` analog: docs within
    ``radius_meters`` haversine distance of (lat, lon) — the exact
    SloppyMath.haversinMeters formula (``util/SloppyMath.kt:38-65``)
    including its sort-key precision clobber."""
    lat: float
    lon: float
    radius_meters: float
    lat_field: str = "lat"
    lon_field: str = "lon"

    def terms(self):
        return []


@dataclass(frozen=True)
class ShapeBoxQuery(Query):
    """Shape-VALUED documents vs a query box —
    ``LatLonShapeBoundingBoxQuery.kt`` over the doc-values path
    (``document/ShapeDocValues.kt`` / ``BaseShapeDocValuesQuery.kt``):
    each doc stores one simple closed ring (two ``list<double>`` meta
    columns, lats + lons in vertex order, last→first edge implicit) and
    relates to the box with ShapeField.QueryRelation semantics:

    - intersects: any ring vertex in box ∨ any box corner in ring ∨ any
      ring edge properly crossing a box edge
    - within (shape WITHIN box): every ring vertex in box (sufficient
      for a convex box)
    - contains (shape CONTAINS box): all four box corners in ring ∧ no
      ring vertex strictly inside the box ∧ no edge crossing (a segment
      meeting the open box either ends inside it or crosses its
      boundary)
    - disjoint: ¬intersects

    The reference's tessellated triangle encoding (geo/Tessellator.kt)
    is an acceleration structure over these predicates; here the
    vectorized flat-ring kernel over the segment's list columns is the
    equivalent plan (one pass over all docs' edges via offsets +
    reduceat — no per-doc Python). Constant score."""
    lats_field: str
    lons_field: str
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float
    relation: str = "intersects"

    def __post_init__(self):
        if self.relation not in ("intersects", "within", "contains",
                                 "disjoint"):
            raise ValueError(f"unknown relation: {self.relation}")

    def terms(self):
        return []


@dataclass(frozen=True)
class ShapeCircleQuery(Query):
    """Shape-valued documents vs a query CIRCLE —
    ``LatLonShapeQuery.kt`` with a Circle geometry over the doc-values
    path (``BaseShapeDocValuesQuery.kt``; the Circle2D.kt relation
    machinery), completing the ShapeBox/ShapePolygon relation surface.
    Planar-degree geometry like the XYCircle kernel
    (``geo/Circle2D.kt:285-300``); geodesic circles remain the
    point-field GeoDistanceQuery path. For a SIMPLE doc ring vs the
    circle (center, radius) — exact because a circle is convex:

    - intersects: any ring vertex within radius ∨ center inside ring ∨
      any ring edge's clamped point-to-segment distance ≤ radius
    - within (shape ⊆ circle): every ring vertex within radius (the
      ring is contained in its vertices' convex hull)
    - contains (shape ⊇ circle): center inside ring ∧ no ring edge
      strictly closer than radius
    - disjoint: ¬intersects

    Constant score."""
    lats_field: str
    lons_field: str
    center_lat: float
    center_lon: float
    radius: float
    relation: str = "intersects"

    def __post_init__(self):
        if self.relation not in ("intersects", "within", "contains",
                                 "disjoint"):
            raise ValueError(f"unknown relation: {self.relation}")

    def terms(self):
        return []


@dataclass(frozen=True)
class ShapePolygonQuery(Query):
    """Shape-valued documents vs a query POLYGON —
    ``LatLonShapeQuery.kt`` with a Polygon geometry over the doc-values
    path (``BaseShapeDocValuesQuery.kt``), completing ShapeBoxQuery's
    relation surface for non-rectangular query geometry. For SIMPLE
    rings on both sides:

    - intersects: any doc vertex in query ring ∨ any query vertex in
      doc ring ∨ any proper edge crossing
    - within (doc ⊆ query): every doc vertex in query ring ∧ no edge
      crossing (a simple ring with all vertices inside and a
      non-crossing boundary is entirely inside — holds for concave
      query rings too, unlike the all-vertices-in-box shortcut)
    - contains (doc ⊇ query): every query vertex in doc ring ∧ no edge
      crossing
    - disjoint: ¬intersects

    ``polygon``: ((lat, lon), ...) closed implicitly. Constant score."""
    lats_field: str
    lons_field: str
    polygon: tuple
    relation: str = "intersects"

    def __post_init__(self):
        if self.relation not in ("intersects", "within", "contains",
                                 "disjoint"):
            raise ValueError(f"unknown relation: {self.relation}")
        if len(self.polygon) < 3:
            raise ValueError("query polygon needs >= 3 vertices")

    def terms(self):
        return []


@dataclass(frozen=True)
class GeoPolygonQuery(Query):
    """``LatLonPoint.newPolygonQuery`` analog (``geo/Polygon.kt`` +
    ``geo/Polygon2D`` contains semantics for simple polygons, optional
    holes): docs whose (lat, lon) metadata falls inside the polygon
    match with constant score. Point-in-polygon is the crossing-number
    ray cast, vectorized; holes subtract. The reference's tessellated
    triangle-tree (``geo/Tessellator.kt``) is an acceleration structure
    over the same predicate — at this engine's scale the vectorized ray
    cast over the segment's metadata column is the equivalent plan.

    ``polygon``: ((lat, lon), ...) — closed implicitly (last→first edge
    is added); ``holes``: tuple of such rings."""
    polygon: tuple
    holes: tuple = ()
    lat_field: str = "lat"
    lon_field: str = "lon"

    def terms(self):
        return []


@dataclass(frozen=True)
class GeoLineQuery(Query):
    """Line-proximity query (``geo/Line.kt`` + ``geo/Line2D.kt`` planar
    edge-tree semantics, the XYGeometry cartesian model of
    ``geo/XYLine.kt``): docs whose (lat, lon) lies within
    ``buffer_deg`` planar degrees of the polyline — point-to-segment
    distance with endpoints clamped, minimized over the line's edges.
    ``buffer_deg = 0`` matches only points exactly on a segment (the
    reference's Component2D contains/intersectsLine predicate); a
    positive buffer is the practical point-index form. Vectorized per
    segment over the metadata columns.

    ``line``: ((lat, lon), ...) — NOT implicitly closed (a line, not a
    ring; Line.kt keeps the vertex sequence open)."""
    line: tuple
    buffer_deg: float = 0.0
    lat_field: str = "lat"
    lon_field: str = "lon"

    def terms(self):
        return []


@dataclass(frozen=True)
class CombinedFieldQuery(Query):
    """BM25F over weighted fields (``search/CombinedFieldQuery.kt``):
    all (term, field) postings merge into ONE pseudo-term scored once
    per doc — freq = Σ weight_f·freq(term,f) (:365-397), norm =
    ``intToByte4(round(Σ weight_f·LENGTH_TABLE[norm_f]))``
    (MultiNormsLeafSimScorer.kt:110-123), pseudo term stats df = max,
    ttf = Σ long(weight_f·ttf) (:236-252), pseudo collection stats
    docCount = max over fields, sumTotalTermFreq = Σ long(weight_f·
    sttf_f) (:259-281). Field weights must be ≥ 1 (:98-101)."""
    query_terms: tuple    # term strings
    fields: tuple         # ((field, weight), ...)

    def __post_init__(self):
        for _, w in self.fields:
            if w < 1.0:
                raise ValueError("weight must be greater or equal to 1")

    def terms(self):
        return list(self.query_terms)


@dataclass(frozen=True)
class BlendedTermQuery(Query):
    """``search/BlendedTermQuery.kt``: per-term scorers over ARTIFICIAL
    blended stats — df = max over terms, ttf = Σ (:226-236
    ``rewrite``) — combined by the DisjunctionMaxRewrite (tie breaker
    0.01, :273) or BOOLEAN_REWRITE (sum, :262-268). ``blend_terms``:
    ((term, field, boost), ...)."""
    blend_terms: tuple
    tie_breaker: float = 0.01
    boolean_rewrite: bool = False

    def terms(self):
        return [t for t, _, _ in self.blend_terms]


@dataclass(frozen=True)
class XYBoxQuery(Query):
    """``XYPointField.newBoxQuery`` analog (``geo/XYRectangle.kt`` +
    Rectangle2D contains over the cartesian model ``geo/XYPoint.kt``):
    planar float32 box over per-doc x/y metadata columns — inclusive
    bounds, no dateline semantics. Bounds snap to float32 like
    ``XYEncodingUtils.checkVal`` (XYRectangle.kt:28-31); the compare
    itself runs in float64 over the float32 values (Component2D
    containsPoint double math)."""
    min_x: float
    max_x: float
    min_y: float
    max_y: float
    x_field: str = "x"
    y_field: str = "y"

    def terms(self):
        return []


@dataclass(frozen=True)
class XYCircleQuery(Query):
    """``XYPointField.newDistanceQuery`` analog (``geo/XYCircle.kt`` +
    ``geo/Circle2D.kt:285-300`` XYCircle2D.contains): docs whose (x, y)
    satisfies ``(x-cx)² + (y-cy)² <= r²`` in float64 over the float32
    coordinates — cartesian distance, not haversine."""
    x: float
    y: float
    radius: float
    x_field: str = "x"
    y_field: str = "y"

    def terms(self):
        return []


@dataclass(frozen=True)
class XYPolygonQuery(Query):
    """``XYPointField.newGeometryQuery(XYPolygon)`` analog
    (``geo/XYPolygon.kt`` + Polygon2D contains over the cartesian
    model): crossing-number containment with optional holes, float64
    math over float32 coordinates and float32-snapped vertices.
    ``polygon``: ((x, y), ...) closed implicitly; ``holes``: tuple of
    such rings."""
    polygon: tuple
    holes: tuple = ()
    x_field: str = "x"
    y_field: str = "y"

    def terms(self):
        return []


@dataclass(frozen=True)
class XYLineQuery(Query):
    """``XYPointField.newGeometryQuery(XYLine)`` analog
    (``geo/XYLine.kt`` + Line2D planar edge distance): docs whose
    (x, y) lies within ``buffer`` planar units of the open polyline —
    identical clamped point-to-segment arithmetic as GeoLineQuery, in
    the cartesian float32 domain."""
    line: tuple
    buffer: float = 0.0
    x_field: str = "x"
    y_field: str = "y"

    def terms(self):
        return []


@dataclass(frozen=True)
class KnnFloatVectorQuery(Query):
    """``search/KnnFloatVectorQuery.kt:33``: the k nearest docs to
    ``vector`` by cosine similarity over the segment vector sidecars.
    Like the reference, the query REWRITES to the global top-k doc set
    before scoring (Searcher.rewrite) — so it composes with BooleanQuery
    for hybrid BM25 + vector retrieval. The per-segment scan is exact
    brute-force unless the segment carries an HNSW graph sidecar
    (util/hnsw, HnswGraphBuilder.kt role) — then the approximate graph
    search runs with beam width ``ef_search`` (None → max(2k, 64));
    bucketed IVF/LSH approximations live in pipelines.ann."""
    vector: tuple[float, ...]
    k: int = 10
    ef_search: int | None = None
    filter: "Query | None" = None  # pre-filter (AbstractKnnVectorQuery)

    def terms(self):
        return []


@dataclass(frozen=True)
class SeededKnnVectorQuery(Query):
    """``search/SeededKnnVectorQuery.kt``: KNN whose per-segment graph
    search starts from the top matches of a ``seed`` query instead of
    the hierarchy's global entry point (KnnSearchStrategy.Seeded,
    search/knn/KnnSearchStrategy.kt:75-90 — the SIGIR'23
    lexically-accelerated dense retrieval pattern). Per segment the
    seed's top-k docs (by seed score) that carry vectors become the
    bottom-layer beam entry points; a seed with no matches falls back
    to the normal descent (the reference's documented contract: the
    underlying format is free to ignore the seed). On segments without
    a graph sidecar the exact scan runs and the seed is a no-op."""
    vector: tuple[float, ...]
    k: int = 10
    seed: "Query | None" = None
    ef_search: int | None = None
    filter: "Query | None" = None  # pre-filter (AbstractKnnVectorQuery)

    def terms(self):
        return []


@dataclass(frozen=True)
class KnnByteVectorQuery(Query):
    """``search/KnnByteVectorQuery.kt``: the k nearest docs to an int8
    ``vector`` over the segment's scalar-quantized sidecars
    (Lucene99ScalarQuantizedVectorsFormat role — byte vectors here are
    produced by util/quantize.ScalarQuantizer at flush). Similarity is
    the byte DOT_PRODUCT score ``0.5 + dot / (dim * 2^15)``
    (``util/VectorUtil.kt:281-285`` dotProductScore via
    ``index/VectorSimilarityFunction.kt:34-43``) — pure integer math,
    so ranking is exactly reproducible. Rewrites to the global top-k
    doc set like KnnFloatVectorQuery, composing with BooleanQuery."""
    vector: tuple[int, ...]
    k: int = 10
    filter: "Query | None" = None  # pre-filter (AbstractKnnVectorQuery)

    def __post_init__(self):
        for v in self.vector:
            if not -128 <= int(v) <= 127:
                raise ValueError(f"byte vector component out of range: {v}")

    def terms(self):
        return []


@dataclass(frozen=True)
class ByteVectorSimilarityQuery(Query):
    """``search/ByteVectorSimilarityQuery.kt`` /
    ``AbstractVectorSimilarityQuery.kt``: ALL byte vectors whose
    DOT_PRODUCT score meets ``result_similarity``; the traversal bound
    is validated like the float variant and is a no-op under the exact
    scan."""
    vector: tuple[int, ...]
    result_similarity: float
    traversal_similarity: float | None = None

    def __post_init__(self):
        t = self.traversal_similarity
        if t is not None and t > self.result_similarity:
            raise ValueError(
                "traversalSimilarity should be <= resultSimilarity")
        for v in self.vector:
            if not -128 <= int(v) <= 127:
                raise ValueError(f"byte vector component out of range: {v}")

    def terms(self):
        return []


@dataclass(frozen=True)
class FeatureQuery(Query):
    """Static ranking signal over a per-doc numeric metadata column —
    the ``FeatureField.newLogQuery`` role (document/FeatureField: features
    score ``weight * ln(1 + value/scaling)``, combined with text queries
    as a SHOULD clause to blend static quality into BM25 ranking).
    Matches every doc with a positive value."""
    field: str
    weight: float = 1.0
    scaling: float = 1.0


@dataclass(frozen=True)
class IndexOrDocValuesQuery(Query):
    """``search/IndexOrDocValuesQuery.kt``: two semantically-identical
    executions of one predicate — an index-driven one (e.g. TermRange over
    indexed terms, cheap when it LEADS iteration) and a doc-values one
    (column check, cheap when it VERIFIES few candidates). The executor
    picks by cost: standalone/leading use runs ``index_query``; in FILTER
    position behind selective MUST clauses the boolean scorer gathers the
    ``dv_query`` column only at the candidates (see
    Searcher._score_boolean's deferred-filter rule)."""
    index_query: Query
    dv_query: Query  # a RangeFilterQuery over a doc-meta column

    def terms(self):
        return self.index_query.terms()


MAX_CLAUSE_COUNT = 1024  # IndexSearcher.kt:986


@dataclass(frozen=True)
class BooleanQuery(Query):
    clauses: tuple[tuple[Occur, Query], ...]
    minimum_should_match: int = 0

    def __post_init__(self):
        if len(self.clauses) > MAX_CLAUSE_COUNT:
            raise ValueError(f"too many clauses: {len(self.clauses)} > {MAX_CLAUSE_COUNT}")

    def terms(self):
        out = []
        for occ, q in self.clauses:
            if occ in (Occur.MUST, Occur.SHOULD):
                out.extend(q.terms())
        return out

    @staticmethod
    def build(*clauses: tuple[Occur, Query],
              minimum_should_match: int = 0) -> "BooleanQuery":
        return BooleanQuery(tuple(clauses), minimum_should_match)
