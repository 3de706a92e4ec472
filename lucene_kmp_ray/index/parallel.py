"""Parallel readers: the FIELD-union composition of several indexes
built over the SAME documents.

[ref: index/ParallelLeafReader.kt + ParallelCompositeReader.kt —
"An IndexReader which reads multiple, parallel indexes. Each index
added must have the same number of documents, but typically each
contains different fields." When the same field appears in more than
one reader, the FIRST reader wins (the fieldToReader map's putIfAbsent
contract); deletions are the union of all sub-readers' deletions
(Lucene takes the first non-null liveDocs — the engine ORs tombstones,
strictly safer).]

TestParallelLeafReader / TestParallelCompositeReader scenarios:
searches against the parallel view equal the same searches against one
index holding all fields, field-by-field.

The engine's composition: both indexes are built from the same corpus
with the same segmentation, so per-segment doc order is identical
(validated at open via each segment's (seg, doc_count, doc_id_min,
doc_id_max) and lazily by doc_id equality when the merged doc_meta is
first materialized). Every field-scoped call routes to the sub-reader
owning that field (manifest["fields"]); the ``field_terms /
prefix_range → term_at / union_docs`` sequence of the MultiTermQuery
rewrite is served by pinning the last field-routed sub-reader — same
thread-confinement contract as Lucene's reader classes.
"""

from __future__ import annotations

import numpy as np

from .reader import IndexReader


class ParallelSegmentReader:
    """One segment of the parallel view: field-routed delegation over
    the aligned segments of each sub-index."""

    def __init__(self, subs):
        """``subs``: list of (SegmentReader, frozenset_of_fields), first
        reader wins on field conflicts (already deduplicated by
        ParallelReader)."""
        self._subs = subs
        self._default = subs[0][0]
        self._pinned = subs[0][0]
        self._doc_meta = None
        self._tombstones_cached = False
        self._tombstones = None

    # ---- routing ----
    def _route(self, field: str):
        for sr, flds in self._subs:
            if field in flds:
                self._pinned = sr
                return sr
        return self._default  # unknown field: empty results downstream

    # ---- field-scoped delegates ----
    def postings(self, term, positions=False, field="text"):
        return self._route(field).postings(term, positions=positions,
                                           field=field)

    def positions_for_entries(self, term, entry_idx, field="text"):
        return self._route(field).positions_for_entries(term, entry_idx,
                                                        field)

    def norms_for(self, field):
        return self._route(field).norms_for(field)

    def term_index(self, term, field="text"):
        return self._route(field).term_index(term, field)

    def term_row(self, term, field="text"):
        return self._route(field).term_row(term, field)

    def field_range(self, field):
        return self._route(field).field_range(field)

    def field_terms(self, field):
        return self._route(field).field_terms(field)

    def term_ceil(self, key, field="text"):
        return self._route(field).term_ceil(key, field)

    def prefix_range(self, prefix, field="text"):
        return self._route(field).prefix_range(prefix, field)

    def term_vectors(self, doc_ids, field=None):
        if field is not None:
            return self._route(field).term_vectors(doc_ids, field)
        for sr, _ in self._subs:
            if sr.meta.get("term_vectors"):
                return sr.term_vectors(doc_ids, field)
        return self._default.term_vectors(doc_ids, field)

    # ---- pinned (must follow a field-routed call, the MultiTermQuery
    # rewrite's field_terms -> term_at / union_docs sequence) ----
    @property
    def terms_table(self):
        return self._pinned.terms_table

    def term_at(self, i):
        return self._pinned.term_at(i)

    def union_docs(self, idxs):
        return self._pinned.union_docs(idxs)

    def postings_at(self, i, positions=False):
        return self._pinned.postings_at(i, positions)

    # ---- doc-level unions ----
    @property
    def doc_meta(self):
        """Column union across sub-readers (first reader wins on name
        conflicts); doc_id alignment asserted once."""
        if self._doc_meta is None:
            base = self._subs[0][0].doc_meta
            ids = base["doc_id"].to_numpy()
            for sr, _ in self._subs[1:]:
                t = sr.doc_meta
                if not np.array_equal(t["doc_id"].to_numpy(), ids):
                    raise ValueError(
                        "parallel sub-indexes disagree on doc order in "
                        f"segment {self._subs[0][0].meta['seg']}")
                for name in t.column_names:
                    if name not in base.column_names:
                        base = base.append_column(name, t[name])
            self._doc_meta = base
        return self._doc_meta

    @property
    def tombstones(self):
        """Union of deletions across the parallel sub-readers."""
        if not self._tombstones_cached:
            out = None
            for sr, _ in self._subs:
                t = sr.tombstones
                if t is not None:
                    out = t if out is None else np.union1d(out, t)
            self._tombstones = out
            self._tombstones_cached = True
        return self._tombstones

    @property
    def norms(self):
        return self.norms_for("text")

    # vectors live in whichever sub-index indexed them
    @property
    def vectors(self):
        for sr, _ in self._subs:
            v = sr.vectors
            if v is not None:
                return v
        return None

    @property
    def vector_missing(self):
        for sr, _ in self._subs:
            if sr.vectors is not None:
                return sr.vector_missing
        return self._default.vector_missing

    @property
    def quantized(self):
        for sr, _ in self._subs:
            q = sr.quantized
            if q is not None:
                return q
        return None

    @property
    def hnsw(self):
        for sr, _ in self._subs:
            h = sr.hnsw
            if h is not None:
                return h
        return None

    def __getattr__(self, name):
        # seg / doc_count / meta / dir and anything doc-order-invariant
        return getattr(self._subs[0][0], name)


class ParallelReader:
    """``ParallelCompositeReader.open([dirA, dirB, ...])`` role: one
    reader exposing the union of the sub-indexes' fields. Works
    anywhere an IndexReader works (Searcher touches segment_readers /
    term_stats / field_stats / doc_count)."""

    def __init__(self, readers: list[IndexReader]):
        if not readers:
            raise ValueError("need at least one reader")
        first = readers[0]
        self.readers = list(readers)
        shapes = [tuple((m["seg"], m["doc_count"], m.get("doc_id_min"),
                         m.get("doc_id_max")) for m in r.manifest["segments"])
                  for r in readers]
        if any(s != shapes[0] for s in shapes[1:]):
            raise ValueError(
                "parallel indexes must share segmentation and doc order "
                f"(got {[len(s) for s in shapes]} segments with differing "
                "shapes)")
        if any(r.doc_count != first.doc_count for r in readers):
            raise ValueError("parallel indexes must have equal doc counts")
        # first reader wins on field conflicts (ParallelLeafReader.kt's
        # fieldToReader putIfAbsent contract)
        self._field_owner: dict[str, IndexReader] = {}
        owned: list[frozenset] = []
        for r in readers:
            flds = set(r.manifest.get("fields", {"text": None}).keys())
            mine = {f for f in flds if f not in self._field_owner}
            for f in mine:
                self._field_owner[f] = r
            owned.append(frozenset(mine))
        self.segment_readers = [
            ParallelSegmentReader(list(zip(srs, owned)))
            for srs in zip(*(r.segment_readers for r in readers))]
        self.doc_count = first.doc_count
        owner = self._field_owner.get("text", first)
        self.sum_total_term_freq = owner.sum_total_term_freq

    @classmethod
    def open(cls, index_dirs, **reader_kw) -> "ParallelReader":
        return cls([IndexReader(d, **reader_kw) for d in index_dirs])

    def fields(self) -> list[str]:
        return sorted(self._field_owner)

    def _route(self, field: str) -> IndexReader:
        return self._field_owner.get(field, self.readers[0])

    def field_stats(self, field: str):
        return self._route(field).field_stats(field)

    def term_stats(self, terms, field: str = "text"):
        return self._route(field).term_stats(terms, field)

    def term_vectors(self, doc_ids, field=None):
        if field is not None:
            return self._route(field).term_vectors(doc_ids, field)
        return self.readers[0].term_vectors(doc_ids, field)
