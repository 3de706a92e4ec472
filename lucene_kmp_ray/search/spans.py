"""Span queries — positional algebra over postings.

The useful core of the reference's ``queries/spans`` package (54 files),
re-expressed doc-at-a-time over decoded position lists:

- ``SpanTermQuery``: one span (p, p+1) per occurrence (TermSpans role).
- ``SpanNearQuery(in_order=True)``: the NearSpansOrdered walk
  (``queries/spans/NearSpansOrdered.kt``): iteration is driven by the
  first sub-span's successive positions; ``stretchToOrder`` advances each
  later sub-span forward (never backward) until its start ≥ previous end;
  width = Σ gaps; match iff width ≤ slop. Reproduces the reference's
  documented double-match on "t1 t2 t1 t3 t2 t3" (see the class comment
  there — asserted in tests).
- ``SpanNearQuery(in_order=False)``: the NearSpansUnordered window
  (``NearSpansUnordered.kt``): a min-heap by (start, end); match iff
  maxEnd − top.start − totalSpanLength ≤ slop, reported width =
  maxEnd − top.start (maxEnd is the MONOTONE max over all advanced
  ends, exactly like the reference's spanWindow).
- ``SpanOrQuery``: merged sub-spans (SpanOrQuery.kt).
- ``SpanNotQuery``: include-spans not overlapping any exclude-span.
- ``SpanFirstQuery``: spans ending within the first ``end`` positions.

Scoring follows SpanScorer (``SpanScorer.kt:82``): per-doc
``freq += 1/(1+width)`` accumulated in float32, idf summed over all the
query's terms, then the shared BM25 kernel. Candidate docs intersect /
union VECTORIZED first; only candidates walk the per-doc Python spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cspans import MAX_SUBS, span_near_batch
from .query import Query


class SpanQuery(Query):
    field = "text"


@dataclass(frozen=True)
class SpanTermQuery(SpanQuery):
    term: str
    field: str = "text"

    def terms(self):
        return [self.term]


@dataclass(frozen=True)
class SpanNearQuery(SpanQuery):
    clauses: tuple[SpanQuery, ...]
    slop: int = 0
    in_order: bool = True

    @property
    def field(self):  # type: ignore[override]
        return self.clauses[0].field

    def terms(self):
        return [t for c in self.clauses for t in c.terms()]


@dataclass(frozen=True)
class SpanOrQuery(SpanQuery):
    clauses: tuple[SpanQuery, ...]

    @property
    def field(self):  # type: ignore[override]
        return self.clauses[0].field

    def terms(self):
        return [t for c in self.clauses for t in c.terms()]


@dataclass(frozen=True)
class SpanNotQuery(SpanQuery):
    include: SpanQuery
    exclude: SpanQuery

    @property
    def field(self):  # type: ignore[override]
        return self.include.field

    def terms(self):
        return self.include.terms()  # exclude never scores


@dataclass(frozen=True)
class SpanContainingQuery(SpanQuery):
    """``queries/spans/SpanContainingQuery.kt``: spans of ``big`` that
    CONTAIN at least one span of ``little`` (big.start <= little.start and
    little.end <= big.end). Scored from the big side."""
    big: SpanQuery
    little: SpanQuery

    @property
    def field(self):  # type: ignore[override]
        return self.big.field

    def terms(self):
        return self.big.terms()


@dataclass(frozen=True)
class SpanWithinQuery(SpanQuery):
    """``queries/spans/SpanWithinQuery.kt``: spans of ``little`` that lie
    WITHIN some span of ``big``. Scored from the little side."""
    big: SpanQuery
    little: SpanQuery

    @property
    def field(self):  # type: ignore[override]
        return self.little.field

    def terms(self):
        return self.little.terms()


@dataclass(frozen=True)
class SpanMultiTermQueryWrapper(SpanQuery):
    """``queries/spans/SpanMultiTermQueryWrapper.kt``: lifts a
    MultiTermQuery (prefix/wildcard/regexp/fuzzy) into span algebra —
    per segment the predicate expands against the term dictionary and
    the spans are the union of the matched terms' occurrence spans (the
    SpanOr-of-expansion rewrite)."""
    query: object  # a MultiTermQuery

    @property
    def field(self):  # type: ignore[override]
        return getattr(self.query, "field", "text")

    def terms(self):
        return []  # stats resolve from expansion at scoring time


@dataclass(frozen=True)
class SpanFirstQuery(SpanQuery):
    match: SpanQuery
    end: int

    @property
    def field(self):  # type: ignore[override]
        return self.match.field

    def terms(self):
        return self.match.terms()


@dataclass(frozen=True)
class SpanPositionRangeQuery(SpanQuery):
    """``queries/spans/SpanPositionRangeQuery.kt``: keep matches whose
    start >= ``start`` and end <= ``end`` (SpanFirstQuery is the
    start=0 special case)."""
    match: SpanQuery
    start: int
    end: int

    @property
    def field(self):  # type: ignore[override]
        return self.match.field

    def terms(self):
        return self.match.terms()


@dataclass(frozen=True)
class FieldMaskingSpanQuery(SpanQuery):
    """``queries/spans/FieldMaskingSpanQuery.kt``: evaluates ``masked``
    on ITS OWN field but reports ``mask_field`` as the query's field, so
    it can compose inside SpanNear with clauses of another field (the
    parallel-fields trick of the reference's class comment). Per the
    reference note, scoring uses the MASK field's collection statistics
    and norms with the REAL field's term statistics."""
    masked: SpanQuery
    mask_field: str

    @property
    def field(self):  # type: ignore[override]
        return self.mask_field

    def terms(self):
        return self.masked.terms()


def collect_term_fields(q: SpanQuery) -> list[tuple[str, str]]:
    """(term, REAL field) pairs of every statically-declared span term —
    FieldMasking delegates to the masked query's own field (the
    SpanWeight-per-clause stats resolution)."""
    if isinstance(q, SpanTermQuery):
        return [(q.term, q.field)]
    if isinstance(q, (SpanNearQuery, SpanOrQuery)):
        return [p for c in q.clauses for p in collect_term_fields(c)]
    if isinstance(q, SpanNotQuery):
        return collect_term_fields(q.include)  # exclude never scores
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery)):
        return collect_term_fields(q.match)
    if isinstance(q, SpanContainingQuery):
        return collect_term_fields(q.big)
    if isinstance(q, SpanWithinQuery):
        return collect_term_fields(q.little)
    if isinstance(q, FieldMaskingSpanQuery):
        return collect_term_fields(q.masked)
    if isinstance(q, SpanMultiTermQueryWrapper):
        return []
    raise TypeError(f"unsupported span query: {q!r}")


# ---------------------------------------------------------------- eval ----
def _candidates(sr, q: SpanQuery) -> np.ndarray:
    """Vectorized doc-level candidate set (the ConjunctionSpans /
    DisjunctionDISI doc iteration collapsed to set algebra)."""
    from .searcher import _intersect

    if isinstance(q, SpanTermQuery):
        p = sr.postings(q.term, field=q.field)
        return p[0] if p is not None else np.empty(0, np.int64)
    if isinstance(q, SpanNearQuery):
        cand = None
        for c in q.clauses:
            d = _candidates(sr, c)
            cand = d if cand is None else _intersect(cand, d)
            if len(cand) == 0:
                return cand
        return cand
    if isinstance(q, SpanOrQuery):
        parts = [_candidates(sr, c) for c in q.clauses]
        return np.unique(np.concatenate(parts)) if parts else \
            np.empty(0, np.int64)
    if isinstance(q, SpanNotQuery):
        return _candidates(sr, q.include)
    if isinstance(q, SpanFirstQuery):
        return _candidates(sr, q.match)
    if isinstance(q, SpanPositionRangeQuery):
        return _candidates(sr, q.match)
    if isinstance(q, FieldMaskingSpanQuery):
        return _candidates(sr, q.masked)
    if isinstance(q, (SpanContainingQuery, SpanWithinQuery)):
        from .searcher import _intersect
        return _intersect(_candidates(sr, q.big),
                          _candidates(sr, q.little))
    if isinstance(q, SpanMultiTermQueryWrapper):
        idxs = q.query.rows(sr)
        return sr.union_docs(idxs) if len(idxs) else np.empty(0, np.int64)
    raise TypeError(f"unsupported span query: {q!r}")


def _doc_spans(sr, q: SpanQuery, doc: int) -> list[tuple[int, int, int]]:
    """Spans (start, end, width) of one doc, in start order — the
    nextStartPosition stream."""
    if isinstance(q, SpanTermQuery):
        p = sr.postings(q.term, positions=True, field=q.field)
        if p is None:
            return []
        docs, freqs, flat = p
        i = int(np.searchsorted(docs, doc))
        if i >= len(docs) or docs[i] != doc:
            return []
        offs = np.append(0, np.cumsum(freqs))
        pos = flat[offs[i]:offs[i + 1]]
        return [(int(s), int(s) + 1, 0) for s in pos]  # TermSpans width=0
    if isinstance(q, SpanNearQuery):
        subs = [_doc_spans(sr, c, doc) for c in q.clauses]
        if any(not s for s in subs):
            return []
        return (_ordered_matches(subs, q.slop) if q.in_order
                else _unordered_matches(subs, q.slop))
    if isinstance(q, SpanOrQuery):
        out = [s for c in q.clauses for s in _doc_spans(sr, c, doc)]
        out.sort(key=lambda t: (t[0], t[1]))
        return out
    if isinstance(q, SpanNotQuery):
        inc = _doc_spans(sr, q.include, doc)
        exc = _doc_spans(sr, q.exclude, doc)
        if not exc:
            return inc
        return [s for s in inc
                if not any(e[0] < s[1] and s[0] < e[1] for e in exc)]
    if isinstance(q, SpanFirstQuery):
        return [s for s in _doc_spans(sr, q.match, doc) if s[1] <= q.end]
    if isinstance(q, SpanPositionRangeQuery):
        return [s for s in _doc_spans(sr, q.match, doc)
                if s[0] >= q.start and s[1] <= q.end]
    if isinstance(q, FieldMaskingSpanQuery):
        return _doc_spans(sr, q.masked, doc)
    if isinstance(q, SpanContainingQuery):
        big = _doc_spans(sr, q.big, doc)
        little = _doc_spans(sr, q.little, doc)
        return [b for b in big
                if any(b[0] <= l[0] and l[1] <= b[1] for l in little)]
    if isinstance(q, SpanWithinQuery):
        big = _doc_spans(sr, q.big, doc)
        little = _doc_spans(sr, q.little, doc)
        return [l for l in little
                if any(b[0] <= l[0] and l[1] <= b[1] for b in big)]
    if isinstance(q, SpanMultiTermQueryWrapper):
        out = []
        for i in q.query.rows(sr):
            out.extend(_doc_spans(
                sr, SpanTermQuery(sr.term_at(i), q.field), doc))
        out.sort(key=lambda t: (t[0], t[1]))
        return out
    raise TypeError(f"unsupported span query: {q!r}")


def _ordered_matches(subs, slop: int):
    """NearSpansOrdered.kt: successive matches driven by sub 0; later subs
    advance monotonically (stretchToOrder) until start ≥ previous end."""
    n = len(subs)
    idx = [0] * n
    out = []
    while idx[0] < len(subs[0]):
        s0, e0, _ = subs[0][idx[0]]
        idx[0] += 1
        prev_end = e0
        width = 0
        exhausted = False
        for i in range(1, n):
            while idx[i] < len(subs[i]) and subs[i][idx[i]][0] < prev_end:
                idx[i] += 1
            if idx[i] >= len(subs[i]):
                exhausted = True
                break
            s, e, _ = subs[i][idx[i]]
            width += s - prev_end
            prev_end = e
        if exhausted:
            break
        if width <= slop:
            out.append((s0, prev_end, width))
    return out


def _unordered_matches(subs, slop: int):
    """NearSpansUnordered.kt spanWindow: min-heap by (start, end); match
    iff maxEnd − top.start − totalSpanLength ≤ slop; reported width =
    maxEnd − top.start with maxEnd the monotone running max."""
    import heapq

    n = len(subs)
    idx = [0] * n
    heap = []
    max_end = 0
    total_len = 0
    for i in range(n):
        s, e, _ = subs[i][0]
        heapq.heappush(heap, (s, e, i))
        max_end = max(max_end, e)
        total_len += e - s

    def at_match() -> bool:
        return (max_end - heap[0][0] - total_len) <= slop

    def advance_top() -> bool:
        nonlocal max_end, total_len
        s, e, i = heap[0]
        idx[i] += 1
        if idx[i] >= len(subs[i]):
            return False
        ns, ne, _ = subs[i][idx[i]]
        total_len += (ne - ns) - (e - s)
        if ne > max_end:
            max_end = ne
        heapq.heapreplace(heap, (ns, ne, i))
        return True

    out = []
    # twoPhaseCurrentDocMatches: advance until first match
    while not at_match():
        if not advance_top():
            return out
    out.append((heap[0][0], max_end, max_end - heap[0][0]))
    while advance_top():
        if at_match():
            out.append((heap[0][0], max_end, max_end - heap[0][0]))
    return out


def _span_near_term_freqs(sr, q: SpanNearQuery, cand: np.ndarray):
    """Batched C walk for the all-SpanTermQuery near shape (cspans.py):
    gather each clause's candidate position runs vectorized, then one
    call walks every doc."""
    flats, starts, cnts = [], [], []
    for c in q.clauses:
        p = sr.postings(c.term, positions=True, field=c.field)
        if p is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        docs, freqs, flat = p
        offs = np.append(0, np.cumsum(freqs))
        idx = np.searchsorted(docs, cand)
        cnt = freqs[idx]
        st = np.cumsum(cnt) - cnt
        total = int(cnt.sum())
        gidx = np.arange(total, dtype=np.int64) - \
            np.repeat(st, cnt) + np.repeat(offs[idx], cnt)
        flats.append(flat[gidx])
        starts.append(st)
        cnts.append(cnt)
    out = span_near_batch(flats, starts, cnts, len(cand), q.slop,
                          q.in_order)
    keep = out > 0.0
    return cand[keep].astype(np.int64), out[keep]


def span_freqs(sr, q: SpanQuery):
    """(docs asc, float freqs) for one segment: freq = Σ 1/(1+width) per
    doc (SpanScorer.kt:82, float32 accumulation like the reference)."""
    cand = _candidates(sr, q)
    if (isinstance(q, SpanNearQuery) and len(cand)
            and 0 < len(q.clauses) <= MAX_SUBS
            and all(isinstance(c, SpanTermQuery) for c in q.clauses)
            and len({c.field for c in q.clauses}) == 1):
        return _span_near_term_freqs(sr, q, cand)
    out_docs, out_freqs = [], []
    one = np.float32(1.0)
    for d in cand:
        spans = _doc_spans(sr, q, int(d))
        if not spans:
            continue
        f = np.float32(0.0)
        for _, _, w in spans:
            f = f + one / (one + np.float32(w))
        out_docs.append(int(d))
        out_freqs.append(float(f))
    return (np.asarray(out_docs, dtype=np.int64),
            np.asarray(out_freqs, dtype=np.float64))
