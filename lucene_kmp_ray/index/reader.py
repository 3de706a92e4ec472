"""Index/segment readers — the query-side view of the immutable index.

Analog of ``DirectoryReader.open`` + ``SegmentReader``
(``/root/reference/core/.../index/DirectoryReader.kt:103``,
``SegmentCoreReaders.kt``): the global manifest lists segments; each
SegmentReader lazily loads its term table and norms and caches them (this is
the state a query actor holds once per actor, SURVEY §2.3).

Term lookup is a binary search over the sorted term column (the role of the
FST block-tree index, which we deliberately do not port — SURVEY §1.4). The
column stays the Arrow string array read from ``terms.parquet``:
``util.cfor.SortedTerms`` searches its offsets and data buffers byte-wise
(UTF-8 byte order is code-point order), so opening a dictionary builds no
Python object per term. Multi-term queries expand through the same search
(prefix and range bounds) or an Arrow kernel over the field's slice. The
reader opens with the dictionary (field, term, df, ttf and one pointer per
term into each flat postings file, index/postings.py); a term-row miss is
one positioned read of that term's ``postings.doc`` record, which one C
call decodes into docs and freqs, plus one read of its ``postings.pos``
record only when positions are asked for.

Global term stats are not stored: ``IndexReader.term_stats`` sums each
term's df/ttf over the dictionaries of the segments in the manifest the
reader pinned (the TermStates role), so a reader opened on a retained
commit scores with that commit's stats.
"""

from __future__ import annotations

import json
import os
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import cfor
from ..util import forutil as fu
from .format import DOCS_FILE, TVECTORS_FILE, decode_postings
from .postings import SegmentPostings, field_ranges

INDEX_MANIFEST = "manifest.json"


POSTINGS_CACHE_TERMS = 64  # decoded posting lists kept per segment reader
TERM_ROW_CACHE = 64        # raw term payload rows kept per segment reader


class SegmentReader:
    def __init__(self, index_dir: str, seg_meta: dict,
                 soft_deletes_field: str | None = None):
        self.index_dir = index_dir
        self.meta = seg_meta
        self.seg = seg_meta["seg"]
        self.dir = os.path.join(index_dir, seg_meta["dir"])
        self.doc_count = seg_meta["doc_count"]
        self.soft_deletes_field = soft_deletes_field
        self._terms: pa.Table | None = None
        self._term_search: cfor.SortedTerms | None = None
        self._postings: SegmentPostings | None = None
        self._field_ranges: dict[str, tuple[int, int]] | None = None
        self._norms: dict[str, np.ndarray] = {}
        self._doc_meta: pa.Table | None = None
        # actor-local LRU of decoded posting lists (the LRUQueryCache /
        # decoded-block cache role, SURVEY §2.3): repeated terms across a
        # query batch decode once per actor, capacity-bounded
        self._postings_cache: dict = {}
        # raw payload rows (encoded blobs + block metadata): a phrase query
        # fetches each term's row twice (doc intersection, then the
        # positional skip-read) and block-pruned scoring refetches per
        # search — rows are immutable, so share one copy via a small LRU
        self._term_row_cache: dict = {}
        self._ords: dict[tuple[str, str], int | None] = {}  # term_ord
        self._tombstones: np.ndarray | None | bool = False  # False=unloaded
        self._vectors: np.ndarray | None | bool = False
        self._vector_missing: np.ndarray | None = None
        self._hnsw = False  # False=unloaded, None=no graph sidecar
        self._quantized: tuple | None | bool = False  # int8 sidecar
        self._bloom: dict | None | bool = False  # term-dict bloom sidecar
        # DirectPostingsFormat role (index/direct.py): per-field
        # up-front-decoded postings, consulted before the lazy path
        self._direct: dict = {}

    @property
    def tombstones(self) -> np.ndarray | None:
        """Sorted local ids of deleted docs (live-docs bitset role,
        Lucene90LiveDocsFormat.kt:22-35) or None. Loaded once per reader;
        index files are immutable between manifest generations, so a
        reader pins the deletion state it opened with. When the reader
        was opened with a ``soft_deletes_field``, docs with a value in
        that field join the set (SoftDeletesDirectoryReaderWrapper.kt:
        hard live-docs AND-ed with the no-value-in-field bits)."""
        if self._tombstones is False:
            from .deletes import read_tombstones
            t = read_tombstones(self.dir)
            if self.soft_deletes_field:
                from .softdeletes import soft_deleted_docs
                soft = soft_deleted_docs(self.dir, self.soft_deletes_field)
                if len(soft):
                    t = soft if t is None else np.union1d(t, soft)
            self._tombstones = t
        return self._tombstones

    # --- lazy loads -----------------------------------------------------
    @property
    def terms_table(self) -> pa.Table:
        """The term DICTIONARY (field + term columns, sorted by
        (field, term)), as Arrow. Opening it reads ``terms.parquet`` —
        the vocabulary, df/ttf and the postings-file pointers — opens the
        segment's two postings files once, and wraps the term column in a
        ``SortedTerms`` search over its buffers; no term becomes a Python
        string until a caller asks for it (``term_at``). Postings bytes
        read per term on demand (``term_row``)."""
        if self._terms is None:
            p = self._postings = SegmentPostings(self.dir)
            self._terms = p.dictionary
            self._term_search = cfor.SortedTerms(self._terms["term"])
            self._field_ranges = field_ranges(self._terms)
        return self._terms

    @property
    def postings_file(self) -> SegmentPostings:
        """The dictionary arrays and open postings files of the segment."""
        self.terms_table
        return self._postings

    def field_range(self, field: str) -> tuple[int, int]:
        """Row range [lo, hi) of ``field`` in the sorted term table."""
        self.terms_table
        return self._field_ranges.get(field, (0, 0))

    def field_terms(self, field: str) -> tuple[pa.Array, int]:
        """(the field's sorted Arrow term slice, row offset of its
        range)."""
        lo, hi = self.field_range(field)
        return self.term_search.array.slice(lo, hi - lo), lo

    def term_at(self, i: int) -> str:
        """The term of GLOBAL dictionary row ``i``."""
        return self.term_search[i]

    @property
    def term_search(self) -> "cfor.SortedTerms":
        """The byte-wise search over the whole sorted term column (rows
        are global; restrict it to a field with ``field_range``)."""
        self.terms_table
        return self._term_search

    def term_ceil(self, key: str, field: str = "text") -> int:
        """GLOBAL row of the field's first term >= ``key`` (the field's
        range end when there is none) — seekCeil."""
        return self.term_search.ceil(key, *self.field_range(field))

    def prefix_range(self, prefix: str,
                     field: str = "text") -> tuple[int, int]:
        """GLOBAL rows ``[lo, hi)`` of the field's terms that start with
        ``prefix`` — every one of them, whatever code point follows."""
        st = self.term_search
        lo, hi = self.field_range(field)
        return st.ceil(prefix, lo, hi), st.prefix_end(prefix, lo, hi)

    @property
    def norms(self) -> np.ndarray:
        return self.norms_for("text")

    def norms_for(self, field: str) -> np.ndarray:
        """Per-field norm bytes (one .nvd per field,
        Lucene90NormsFormat.kt:21): text keeps the legacy column name."""
        n = self._norms.get(field)
        if n is None:
            col = "norm" if field == "text" else f"norm_{field}"
            t = pq.read_table(os.path.join(self.dir, DOCS_FILE),
                              columns=[col])
            n = t[col].to_numpy().astype(np.uint8)
            self._norms[field] = n
        return n

    @property
    def vectors(self) -> np.ndarray | None:
        """Per-doc float32 vector matrix (row == local docID) from the
        vectors sidecar, or None — the per-segment vector storage of
        KnnVectorsFormat (codecs/lucene99 role; graph replaced by brute /
        IVF per SURVEY: exact per-segment scan is the baseline, bucketed
        variants live in pipelines.ann)."""
        if self._vectors is False:
            path = os.path.join(self.dir, "vectors.parquet")
            if not os.path.exists(path):
                self._vectors = None
                self._vector_missing = None
            else:
                t = pq.read_table(path)
                col = t["embedding"].combine_chunks()
                if col.null_count:
                    # sparse field: docs merged in from vector-less
                    # segments carry null rows (Lucene's docs-without-
                    # the-vector-field case); they never match KNN
                    missing = np.asarray(col.is_null())
                    rows = col.to_numpy(zero_copy_only=False)
                    dim = next(len(r) for r in rows if r is not None)
                    mat = np.zeros((len(rows), dim), dtype=np.float64)
                    for i, r in enumerate(rows):
                        if r is not None:
                            mat[i] = r
                    self._vectors = mat
                    self._vector_missing = missing
                else:
                    from ..util.vecs import matrix_from_list_column
                    self._vectors = matrix_from_list_column(col)
                    self._vector_missing = None
        return self._vectors

    @property
    def quantized(self):
        """int8 scalar-quantized vector sidecar
        (Lucene99ScalarQuantizedVectorsFormat reader role): returns
        ``(bytes_i8 [n, dim], corrections [n], missing mask | None,
        ScalarQuantizer)`` or None when the segment was built without
        ``quantize``. Bytes cache as int8 — 1 byte/component is the
        bandwidth point of byte vectors; scoring casts per block to
        float32 (EXACT for 7-bit components, see
        util/quantize.dot_product_score). Loaded lazily once per
        reader — the byte path never touches the float sidecar."""
        if self._quantized is False:
            import json as _json

            from ..util.quantize import ScalarQuantizer
            path = os.path.join(self.dir, "vectors_q.parquet")
            if not os.path.exists(path):
                self._quantized = None
            else:
                with open(os.path.join(self.dir, "manifest.json")) as f:
                    qmeta = _json.load(f).get("quantize") or {}
                sq = ScalarQuantizer(float(qmeta["lo"]), float(qmeta["hi"]),
                                     int(qmeta.get("bits", 7)))
                t = pq.read_table(path)
                col = t["qvec"].combine_chunks()
                corr = t["qcorr"].to_numpy(zero_copy_only=False) \
                    .astype(np.float64)
                if col.null_count:
                    missing = np.asarray(col.is_null())
                    rows = col.to_numpy(zero_copy_only=False)
                    dim = next(len(r) for r in rows if r is not None)
                    mat = np.zeros((len(rows), dim), dtype=np.int8)
                    for i, r in enumerate(rows):
                        if r is not None:
                            mat[i] = r
                else:
                    missing = None
                    if pa.types.is_fixed_size_list(col.type):
                        dim = col.type.list_size
                        mat = np.asarray(col.flatten()).astype(np.int8) \
                            .reshape(len(col), dim)
                    else:
                        mat = np.vstack(col.to_numpy(zero_copy_only=False)) \
                            .astype(np.int8)
                self._quantized = (mat, corr, missing, sq)
        return self._quantized

    @property
    def hnsw(self):
        """Per-segment HNSW graph over the vector sidecar
        (HnswGraphSearcher.kt role), or None when the segment was built
        without one — callers fall back to the exact scan."""
        if self._hnsw is False:
            import json as _json

            from ..util.hnsw import _normalize, graph_from_table
            path = os.path.join(self.dir, "graph.parquet")
            man_path = os.path.join(self.dir, "manifest.json")
            if not os.path.exists(path) or self.vectors is None:
                self._hnsw = None
            else:
                with open(man_path) as f:
                    hmeta = _json.load(f).get("hnsw") or {}
                t = pq.read_table(path)
                self._hnsw = graph_from_table(
                    t, _normalize(self.vectors),
                    int(hmeta.get("m", 16)), int(hmeta.get("entry", 0)))
        return self._hnsw

    @property
    def vector_missing(self) -> "np.ndarray | None":
        """Bool mask of local docIDs with NO vector (null sidecar rows —
        only after merging mixed vector/vector-less segments), or None."""
        _ = self.vectors  # materialize both
        return self._vector_missing

    def term_vectors(self, doc_ids, field: str | None = None) -> pa.Table:
        """Per-doc term vectors for GLOBAL ``doc_ids`` in this segment —
        ``TermVectors.get(docID)`` (index/TermVectors.kt; stored only when
        the index was built with ``store_term_vectors=True``). Random
        access re-expressed for Parquet: rows are doc_id-sorted, so only
        the row groups whose doc_id min/max stats overlap the request are
        read; a point get touches one group, never the file."""
        path = os.path.join(self.dir, TVECTORS_FILE)
        empty = pa.table({
            "doc_id": pa.array([], pa.int64()),
            "field": pa.array([], pa.string()),
            "term": pa.array([], pa.string()),
            "freq": pa.array([], pa.int32()),
            "positions": pa.array([], pa.list_(pa.int32())),
        })
        if not os.path.exists(path):
            return empty
        want = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        if not len(want):
            return empty
        pf = pq.ParquetFile(path)
        md = pf.metadata
        groups = []
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(0).statistics  # doc_id is col 0
            if st is None or st.min is None:
                groups.append(g)
                continue
            # overlap test against the sorted request
            i = int(np.searchsorted(want, st.min))
            if i < len(want) and want[i] <= st.max:
                groups.append(g)
        if not groups:
            return empty
        import pyarrow.compute as pc
        t = pf.read_row_groups(groups)
        mask = pc.is_in(t["doc_id"], value_set=pa.array(want, pa.int64()))
        if field is not None:
            mask = pc.and_(mask, pc.equal(t["field"], field))
        return t.filter(mask)

    @property
    def doc_meta(self) -> pa.Table:
        if self._doc_meta is None:
            from .dvupdates import apply_updates
            self._doc_meta = apply_updates(
                self.dir, pq.read_table(os.path.join(self.dir, DOCS_FILE)))
            # ^ doc-values update generations overlay newest-wins
            # (IndexWriter.updateNumericDocValue role, dvupdates.py);
            # like tombstones, the reader pins the state it first loads
        return self._doc_meta

    # --- term access ----------------------------------------------------
    @property
    def bloom(self) -> dict | None:
        """Per-field term-dictionary bloom filters (the opt-in
        BloomFilteringPostingsFormat sidecar, index/bloom.py) or None.
        A NO answer proves term absence without loading the vocabulary —
        the point-lookup fast path across many segments."""
        if self._bloom is False:
            from .bloom import load_segment_bloom
            self._bloom = load_segment_bloom(self.dir)
        return self._bloom

    def term_index(self, term: str, field: str = "text") -> int | None:
        """Binary search the field's slice of the sorted term dictionary;
        returns a GLOBAL row index into the terms table. While the
        vocabulary is still UNLOADED, a bloom-sidecar NO proves absence
        without paying the dictionary load — the cross-segment
        point-lookup fast path; once the vocabulary is cached, the
        binary search is cheaper than hashing, so the filter steps
        aside."""
        if self._terms is None:
            b = self.bloom
            if b is not None:
                fs = b.get(field)
                if fs is not None and not fs.may_contain(
                        term.encode("utf-8")):
                    return None
            self.terms_table
        i = self._term_search.find(term,
                                   *self._field_ranges.get(field, (0, 0)))
        return i if i >= 0 else None

    def term_ord(self, term: str, field: str = "text") -> int | None:
        """``term_index``, looked up once per (field, term) for the
        reader's lifetime: the per-segment TermState kept by
        ``IndexReader.term_stats`` and reused by ``term_row``."""
        key = (field, term)
        if key not in self._ords:
            self._ords[key] = self.term_index(term, field)
        return self._ords[key]

    def term_row(self, term: str, field: str = "text") -> dict | None:
        """The term's postings row (``postings.TermRow``): one positioned
        read of its ``postings.doc`` record on a miss; ``pos_enc`` reads
        ``postings.pos`` only when first used."""
        key = (field, term)
        row = self._term_row_cache.pop(key, None)
        if row is not None:
            self._term_row_cache[key] = row  # re-insert = most recent
            return row
        i = self.term_ord(term, field)
        if i is None:
            return None
        row = self._row(i, field)
        self._term_row_cache[key] = row
        while len(self._term_row_cache) > TERM_ROW_CACHE:
            self._term_row_cache.pop(next(iter(self._term_row_cache)))
        return row

    def _row(self, i: int, field: str):
        # a weak reference: the row is cached in this reader, and a cycle
        # would keep a dropped reader's dictionary alive until a full GC
        ref = weakref.ref(self)
        return self._postings.row(i, lambda: ref().norms_for(field))

    def load_direct(self, field: str = "text") -> "object":
        """Opt into the DirectPostingsFormat role for one field: all
        postings bulk-decoded into RAM now; subsequent ``postings()``
        calls skip the Parquet row-group + FOR-decode path entirely
        (index/direct.py; codecs/memory/DirectPostingsFormat.kt)."""
        d = self._direct.get(field)
        if d is None:
            from .direct import DirectField
            d = self._direct[field] = DirectField(self, field)
        return d

    def union_docs(self, idxs) -> np.ndarray:
        """Ascending union of the docID sets of many term rows — the
        MultiTermQuery expansion path. Decodes ONLY df + docs_enc (the
        full-row path would copy freqs/pos binaries per term, pure waste
        for a constant-score rewrite over thousands of matched terms)."""
        docs, _, _ = self.postings_file.docs_freqs(np.sort(idxs),
                                                   freqs=False)
        return np.unique(docs)

    def postings_at(self, i: int, positions: bool = False):
        """Decoded postings of the i-th term in the sorted dictionary —
        the TermsEnum-by-ordinal path used by MultiTermQuery expansion."""
        self.terms_table
        field = next((f for f, (lo, hi) in self._field_ranges.items()
                      if lo <= i < hi), "text")
        row = self._row(i, field)
        if positions:
            return decode_postings(row["df"], row["ttf"], row["docs_enc"],
                                   row["freqs_enc"], row["pos_enc"])
        return row.docs_freqs()

    def postings(self, term: str, positions: bool = False,
                 field: str = "text"):
        """Decoded postings (docs, freqs[, flat_positions]) or None.
        LRU-cached per (field, term, positions) — index files are
        immutable."""
        key = (field, term, positions)
        hit = self._postings_cache.pop(key, None)
        if hit is not None:
            self._postings_cache[key] = hit  # re-insert = most recent
            return hit
        if not positions:
            dfld = self._direct.get(field)
            if dfld is not None:
                return dfld.postings(term)
        row = self.term_row(term, field)
        if row is None:
            return None
        if positions:
            out = decode_postings(row["df"], row["ttf"], row["docs_enc"],
                                  row["freqs_enc"], row["pos_enc"])
        else:
            out = row.docs_freqs()
        self._postings_cache[key] = out
        while len(self._postings_cache) > POSTINGS_CACHE_TERMS:
            self._postings_cache.pop(next(iter(self._postings_cache)))
        return out

    def positions_for_entries(self, term: str, entry_idx: np.ndarray,
                              field: str = "text"):
        """Absolute positions for the selected posting entries only.

        Decodes just the 128-occurrence blocks of the ``pos_enc`` stream
        that the selected entries touch (the positional skip-read of
        BlockPostingsEnum) — the phrase matcher's doc-level intersection
        usually survives a small fraction of entries, so most position
        blocks never decode. Returns ``(sel_freqs, flat_abs_positions)``
        with positions concatenated in ``entry_idx`` order.
        """
        row = self.term_row(term, field)
        cached = self._postings_cache.get((field, term, False))
        freqs = cached[1] if cached is not None else row.docs_freqs()[1]
        bounds = np.append(0, np.cumsum(freqs))
        n_pos = int(row["ttf"])
        s = bounds[entry_idx]
        e = bounds[entry_idx + 1]
        nblocks = (n_pos + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
        delta = np.bincount(s // fu.BLOCK_SIZE, minlength=nblocks + 1) - \
            np.bincount(np.minimum((e - 1) // fu.BLOCK_SIZE + 1, nblocks),
                        minlength=nblocks + 1)
        mask = np.cumsum(delta[:-1]) > 0
        pm = row.get("_pos_meta")  # stream layout parsed once per cached row
        if pm is None:
            pm = row["_pos_meta"] = fu.block_stream_meta(row["pos_enc"],
                                                         n_pos)
        sel_freqs = (e - s).astype(np.int64)
        total = int(sel_freqs.sum())
        if total == 0:
            return sel_freqs, np.empty(0, np.int64)
        # masked decode + gather/cumsum in one C pass over the stream
        return sel_freqs, cfor.positions_select(row["pos_enc"], pm, n_pos,
                                                mask, s, e, total)

    def postings_pruned(self, term: str, keep_block,
                        field: str = "text") -> tuple[np.ndarray, np.ndarray]:
        """Block-max pruned decode: ``keep_block(max_freq, min_norm,
        last_doc) -> bool mask`` selects 128-doc blocks worth decoding
        (ImpactsDISI / MaxScoreCache semantics, SURVEY §2.5). Sound because
        skipped blocks cannot contain competitive hits."""
        row = self.term_row(term, field)
        if row is None:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        maxf = np.asarray(row["block_max_freq"], dtype=np.int64)
        minn = np.asarray(row["block_min_norm"], dtype=np.int64)
        last = np.asarray(row["block_last_doc"], dtype=np.int64)
        mask = keep_block(maxf, minn, last)
        if mask.all():
            return row.docs_freqs()
        return _decode_selected_blocks(row, mask)


def _decode_selected_blocks(row: dict, mask: np.ndarray):
    """Decode only the selected 128-doc blocks of one posting list.

    The docID delta chain crosses blocks; block b's base is
    block_last_doc[b-1], which we stored precisely so a skipped block's
    successor can be decoded without it (the skip-pointer role,
    Lucene101PostingsReader BlockPostingsEnum, SURVEY §2.1). Block walking
    uses the shared FOR/PFor stream parser, so freq blocks may be patched.
    """
    df = row["df"]
    last = row["block_last_doc"]
    dm = row.get("_docs_meta")  # stream layout parsed once per cached row
    if dm is None:
        dm = row["_docs_meta"] = fu.block_stream_meta(row["docs_enc"], df)
    fm = row.get("_freqs_meta")
    if fm is None:
        fm = row["_freqs_meta"] = fu.block_stream_meta(row["freqs_enc"], df)
    dmv, dmeta = dm
    fmv, fmeta = fm
    out_docs, out_freqs = [], []
    for b in np.flatnonzero(mask):
        cnt = min(fu.BLOCK_SIZE, df - b * fu.BLOCK_SIZE)
        deltas = fu.decode_one_block(dmv, dmeta[b], cnt)
        docs = np.cumsum(deltas)
        if b > 0:
            docs += last[b - 1]
        out_docs.append(docs)
        out_freqs.append(fu.decode_one_block(fmv, fmeta[b], cnt))
    if not out_docs:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_docs), np.concatenate(out_freqs)


class IndexReader:
    """Open an index directory: the manifest's collection stats + one
    SegmentReader per segment."""

    def __init__(self, index_dir: str, segments: list[int] | None = None,
                 commit: int | None = None,
                 soft_deletes_field: str | None = None):
        """``commit``: open a RETAINED commit generation instead of the
        latest (``DirectoryReader.open(IndexCommit)`` role — see
        index/commits.py; generations survive per the deletion policy).
        ``soft_deletes_field``: open through the
        SoftDeletesDirectoryReaderWrapper — docs with a value in that
        doc-values field read as deleted (index/softdeletes.py)."""
        self.index_dir = index_dir
        if commit is not None:
            from .commits import read_commit
            self.manifest = read_commit(index_dir, commit)
        else:
            with open(os.path.join(index_dir, INDEX_MANIFEST)) as f:
                self.manifest = json.load(f)
        metas = self.manifest["segments"]
        if segments is not None:
            metas = [m for m in metas if m["seg"] in set(segments)]
        self.segment_readers = [
            SegmentReader(index_dir, m, soft_deletes_field) for m in metas]
        self.doc_count = self.manifest["doc_count"]
        self.sum_total_term_freq = self.manifest["sum_total_term_freq"]
        self._stats_cache: dict[tuple[str, str], tuple[int, int]] = {}
        self._all_segments = self.segment_readers if segments is None \
            else None

    def open_if_changed(self) -> "IndexReader | None":
        """``DirectoryReader.openIfChanged`` analog (DirectoryReader.kt:221,
        the NRT reopen surface): returns a NEW reader when the committed
        manifest differs from the one this reader pinned at open, else
        None. Readers are immutable snapshots — a 'reopen' is just a fresh
        open against the latest two-phase commit."""
        with open(os.path.join(self.index_dir, INDEX_MANIFEST)) as f:
            current = json.load(f)
        if current == self.manifest:
            return None
        return IndexReader(self.index_dir)

    def load_direct(self, field: str = "text") -> int:
        """Opt every segment into the DirectPostingsFormat role for one
        field (index/direct.py); returns total ramBytesUsed."""
        return sum(sr.load_direct(field).ram_bytes_used()
                   for sr in self.segment_readers)

    def field_stats(self, field: str) -> tuple[int, int]:
        """(docCount, sumTotalTermFreq) of one field — the per-field
        CollectionStatistics (search/CollectionStatistics.kt). The text
        field uses the top-level (all-docs) counts for back-compat with
        the single-field format; other fields use the per-field aggregate
        (docCount = docs with ≥1 term of the field, Terms.getDocCount)."""
        if field == "text":
            return self.doc_count, self.sum_total_term_freq
        s = (self.manifest.get("fields") or {}).get(field)
        if s is None:
            return 0, 0
        return s["doc_count"], s["sum_total_term_freq"]

    def term_vectors(self, doc_ids, field: str | None = None) -> pa.Table:
        """``IndexReader.termVectors()`` surface: per-doc term vectors for
        GLOBAL doc ids, routed to segments by the manifests' doc_id
        min/max lineage (no segment whose id range misses the request is
        even opened) and row-group-pruned inside each. Returns
        ``doc_id, field, term, freq, positions`` sorted by
        (doc_id, field, term)."""
        want = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
        parts = []
        for sr in self.segment_readers:
            lo = sr.meta.get("doc_id_min")
            hi = sr.meta.get("doc_id_max")
            if lo is not None and hi is not None:
                i = int(np.searchsorted(want, lo))
                if i >= len(want) or want[i] > hi:
                    continue
            t = sr.term_vectors(want, field)
            if t.num_rows:
                parts.append(t)
        if not parts:
            return sr.term_vectors([], field) if self.segment_readers else \
                pa.table({})
        out = pa.concat_tables(parts)
        return out.sort_by([("doc_id", "ascending"), ("field", "ascending"),
                            ("term", "ascending")])

    def term_stats(self, terms: list[str],
                   field: str = "text") -> dict[str, tuple[int, int]]:
        """Global (df, ttf) per term — the TermStates resolution step
        (index/TermStates.kt): stats precede scoring, are identical for
        every segment, and are resolved ONCE per (field, term) per reader
        (the TermStates cache role). Each is the sum of the term's df/ttf
        over the dictionaries of every segment in the pinned manifest;
        the per-segment ordinal of each lookup stays with the segment
        reader (``term_ord``), so scoring does not look the term up
        again."""
        missing = [t for t in dict.fromkeys(terms)
                   if (field, t) not in self._stats_cache]
        for term in missing:
            df = ttf = 0
            for sr in self._stats_segments():
                i = sr.term_ord(term, field)
                if i is not None:
                    p = sr.postings_file
                    df += int(p.df[i])
                    ttf += int(p.ttf[i])
            self._stats_cache[(field, term)] = (df, ttf)
        return {term: self._stats_cache[(field, term)] for term in terms}

    def _stats_segments(self) -> list[SegmentReader]:
        """A reader per segment of the pinned manifest. A slice reader
        (``segments=``) reuses its own and opens the others on first use,
        loading only their dictionaries, so its stats stay global."""
        if self._all_segments is None:
            own = {sr.seg: sr for sr in self.segment_readers}
            self._all_segments = [own.get(m["seg"]) or
                                  SegmentReader(self.index_dir, m)
                                  for m in self.manifest["segments"]]
        return self._all_segments


class MultiReader:
    """``index/MultiReader.kt``: a composite view over several open
    readers, appending their content — searches see the UNION of all
    sub-readers' docs with SUMMED collection/term statistics (the
    BaseCompositeReader docFreq/totalTermFreq aggregation), without
    copying a byte. The physical counterpart is ``merge.add_indexes``;
    this is the zero-cost virtual one. Works anywhere a reader works
    (Searcher needs only segment_readers / term_stats / field_stats /
    doc_count). Sub-readers keep their own tombstone/soft-delete state.

    Doc ids are the engine's GLOBAL corpus keys, so unlike Lucene there
    is no docBase rebase — callers composing indexes with overlapping
    key spaces get exactly the duplicates they asked for (same contract
    as add_indexes)."""

    def __init__(self, readers):
        self.readers = list(readers)
        self.segment_readers = [sr for r in self.readers
                                for sr in r.segment_readers]
        self.doc_count = sum(r.doc_count for r in self.readers)
        self.sum_total_term_freq = sum(r.sum_total_term_freq
                                       for r in self.readers)

    @classmethod
    def open(cls, index_dirs, **reader_kw) -> "MultiReader":
        return cls([IndexReader(d, **reader_kw) for d in index_dirs])

    def field_stats(self, field: str) -> tuple[int, int]:
        dc = ttf = 0
        for r in self.readers:
            a, b = r.field_stats(field)
            dc += a
            ttf += b
        return dc, ttf

    def term_stats(self, terms: list[str],
                   field: str = "text") -> dict[str, tuple[int, int]]:
        out = {t: (0, 0) for t in terms}
        for r in self.readers:
            for t, (df, ttf) in r.term_stats(terms, field).items():
                out[t] = (out[t][0] + df, out[t][1] + ttf)
        return out
