"""Index/segment readers — the query-side view of the immutable index.

Analog of ``DirectoryReader.open`` + ``SegmentReader``
(``/root/reference/core/.../index/DirectoryReader.kt:103``,
``SegmentCoreReaders.kt``): the global manifest lists segments; each
SegmentReader lazily loads its term table and norms and caches them (this is
the state a query actor holds once per actor, SURVEY §2.3).

Term lookup is a binary search over the sorted term column (the role of the
FST block-tree index, which we deliberately do not port — SURVEY §1.4). The
terms.parquet row groups act as term blocks: the reader opens with only the
(field, term) dictionary columns, and posting payloads (df/ttf/encodings)
read per touched row group on demand with an LRU of decoded groups — a
lookup costs one 4096-term block, never the whole postings file.
"""

from __future__ import annotations

import bisect
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import cfor
from ..util import forutil as fu
from .format import DOCS_FILE, TERMS_FILE, TVECTORS_FILE, decode_postings

INDEX_MANIFEST = "manifest.json"
TERM_STATS_FILE = "term_stats.parquet"


POSTINGS_CACHE_TERMS = 64  # decoded posting lists kept per segment reader
PAYLOAD_GROUP_CACHE = 8    # payload row groups kept per segment reader
TERM_ROW_CACHE = 64        # raw term payload rows kept per segment reader
STATS_BLOCK_CACHE = 8      # global term-stats blocks kept per index reader
# Arrow leaves a string bound longer than this out of a row group's footer
# statistics; pyarrow then reports that bound as ''
FOOTER_STATS_MAX_BYTES = 4096


def footer_min_max(stats) -> tuple[str, str] | None:
    """(min, max) of a string column chunk from its footer statistics,
    or None when either bound is absent."""
    if stats is None or not stats.has_min_max or "" in (stats.min,
                                                        stats.max):
        return None
    return stats.min, stats.max


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
        self._term_arr: np.ndarray | None = None
        self._pf = None
        self._group_starts: np.ndarray | None = None
        self._group_cache: dict = {}
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
        self._pcols: list[str] | None = None
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
        """The term DICTIONARY (field + term columns only, sorted by
        (field, term)). Posting payloads (df/ttf/*_enc) do NOT load here —
        they read per touched ROW GROUP on demand (``_payload_rows``), so
        opening a reader costs the vocabulary strings, not the whole
        segment's postings (VERDICT r2 next #9: the terms file is
        row-group-chunked and (field,term)-ordered; only groups a lookup
        touches ever leave disk)."""
        if self._terms is None:
            pf = self._terms_pf()
            names = pf.schema_arrow.names
            cols = ["field", "term"] if "field" in names else ["term"]
            self._terms = pf.read(columns=cols)
            self._term_arr = np.asarray(self._terms["term"].to_pylist(),
                                        dtype=object)
            # (field, term)-sorted dictionary → per-field contiguous row
            # ranges (one block-tree per field,
            # Lucene90BlockTreeTermsWriter.kt:153); legacy single-field
            # tables (no field column) read as one "text" range
            if "field" in self._terms.column_names:
                farr = np.asarray(self._terms["field"].to_pylist(),
                                  dtype=object)
                self._field_ranges = {}
                if len(farr):
                    uniq, starts = np.unique(farr, return_index=True)
                    order = np.argsort(starts)
                    bounds = np.append(starts[order], len(farr))
                    for k, f in enumerate(uniq[order]):
                        self._field_ranges[str(f)] = (int(bounds[k]),
                                                      int(bounds[k + 1]))
            else:
                self._field_ranges = {"text": (0, len(self._term_arr))}
        return self._terms

    def _terms_pf(self) -> "pq.ParquetFile":
        if self._pf is None:
            self._pf = pq.ParquetFile(os.path.join(self.dir, TERMS_FILE))
            md = self._pf.metadata
            sizes = [md.row_group(g).num_rows
                     for g in range(md.num_row_groups)]
            self._group_starts = np.append(0, np.cumsum(sizes))
        return self._pf

    def _payload_group(self, g: int) -> pa.Table:
        """One row group's payload columns (df/ttf/docs_enc/freqs_enc/
        pos_enc), LRU-cached — the on-demand postings read."""
        t = self._group_cache.pop(g, None)
        if t is None:
            pf = self._terms_pf()
            cols = [c for c in pf.schema_arrow.names
                    if c not in ("field", "term")]
            t = pf.read_row_group(g, columns=cols)
        self._group_cache[g] = t  # (re-)insert = most recent
        while len(self._group_cache) > PAYLOAD_GROUP_CACHE:
            self._group_cache.pop(next(iter(self._group_cache)))
        return t

    def _payload_cols(self) -> list[str]:
        if self._pcols is None:  # schema_arrow rebuilds per access — cache
            self._pcols = [c for c in self._terms_pf().schema_arrow.names
                           if c not in ("field", "term")]
        return self._pcols

    def _payload_rows(self, idxs: np.ndarray, columns: list[str]):
        """Selected columns for GLOBAL term-row indexes ``idxs`` (any
        order), reading only the row groups they touch."""
        self._terms_pf()
        idxs = np.asarray(idxs, dtype=np.int64)
        groups = np.searchsorted(self._group_starts, idxs, side="right") - 1
        out_parts = []
        order = np.argsort(groups, kind="stable")
        inv = np.empty(len(idxs), dtype=np.int64)
        inv[order] = np.arange(len(idxs))
        sg = groups[order]
        si = idxs[order]
        pos = 0
        while pos < len(sg):
            g = sg[pos]
            end = pos
            while end < len(sg) and sg[end] == g:
                end += 1
            t = self._payload_group(int(g))
            local = si[pos:end] - self._group_starts[g]
            out_parts.append(t.select(columns).take(pa.array(local)))
            pos = end
        joined = pa.concat_tables(out_parts)
        return joined.take(pa.array(inv))  # restore caller order

    def field_range(self, field: str) -> tuple[int, int]:
        """Row range [lo, hi) of ``field`` in the sorted term table."""
        self.terms_table
        return self._field_ranges.get(field, (0, 0))

    def field_terms(self, field: str) -> tuple[np.ndarray, int]:
        """(sorted term array of the field, row offset of its range)."""
        self.terms_table
        lo, hi = self.field_range(field)
        return self._term_arr[lo:hi], lo

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
        lo, hi = self.field_range(field)
        arr = self._term_arr
        i = lo + int(np.searchsorted(arr[lo:hi], term))
        if i < hi and arr[i] == term:
            return i
        return None

    def term_row(self, term: str, field: str = "text") -> dict | None:
        key = (field, term)
        row = self._term_row_cache.pop(key, None)
        if row is not None:
            self._term_row_cache[key] = row  # re-insert = most recent
            return row
        i = self.term_index(term, field)
        if i is None:
            return None
        t = self._payload_rows(np.array([i]), self._payload_cols())
        row = {name: t[name][0].as_py() for name in t.column_names}
        self._term_row_cache[key] = row
        while len(self._term_row_cache) > TERM_ROW_CACHE:
            self._term_row_cache.pop(next(iter(self._term_row_cache)))
        return row

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
        sub = self._payload_rows(np.asarray(idxs, dtype=np.int64),
                                 ["df", "docs_enc"])
        dfs = sub["df"].to_numpy().astype(np.int64)
        from ..util.cfor import decode_streams_bulk
        dec = decode_streams_bulk(sub["docs_enc"], dfs)
        if dec is not None:
            # C path: every stream (single- and multi-block, FOR or PFor)
            # decodes in one call; delta→absolute via per-stream-restart
            # cumsum
            deltas, voffs = dec
            if not len(deltas):
                return np.empty(0, np.int64)
            cs = np.cumsum(deltas)
            st = voffs[:-1]
            base = cs[st] - deltas[st]
            return np.unique(cs - np.repeat(base, dfs))
        encs = sub["docs_enc"].to_pylist()
        single = dfs <= fu.BLOCK_SIZE
        parts = []
        if single.any():
            s_encs = [e for e, s in zip(encs, single) if s]
            s_cnts = dfs[single]
            try:
                deltas, run_starts = fu.decode_for_single_blocks(s_encs,
                                                                 s_cnts)
                # per-run delta→absolute: global cumsum minus carried base
                cs = np.cumsum(deltas)
                base = cs[run_starts] - deltas[run_starts]
                parts.append(cs - np.repeat(base, s_cnts))
            except ValueError:  # exotic width: per-term fallback
                parts.extend(fu.delta_decode(fu.decode_blocks(e, int(d)))
                             for e, d in zip(s_encs, s_cnts))
        for e, d, s in zip(encs, dfs, single):
            if not s:
                parts.append(fu.delta_decode(fu.decode_blocks(e, int(d))))
        if not parts:
            return np.empty(0, np.int64)
        return np.unique(np.concatenate(parts))

    def postings_at(self, i: int, positions: bool = False):
        """Decoded postings of the i-th term in the sorted dictionary —
        the TermsEnum-by-ordinal path used by MultiTermQuery expansion."""
        t = self._payload_rows(np.array([i]), self._payload_cols())
        row = {name: t[name][0].as_py() for name in t.column_names}
        if positions:
            return decode_postings(row["df"], row["ttf"], row["docs_enc"],
                                   row["freqs_enc"], row["pos_enc"])
        return decode_postings(row["df"], row["ttf"], row["docs_enc"],
                               row["freqs_enc"])

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
            out = decode_postings(row["df"], row["ttf"], row["docs_enc"],
                                  row["freqs_enc"])
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
        freqs = cached[1] if cached is not None else decode_postings(
            row["df"], row["ttf"], row["docs_enc"], row["freqs_enc"])[1]
        bounds = np.append(0, np.cumsum(freqs))
        n_pos = int(row["ttf"])
        s = bounds[entry_idx]
        e = bounds[entry_idx + 1]
        nblocks = (n_pos + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
        delta = np.zeros(nblocks + 1, dtype=np.int64)
        np.add.at(delta, s // fu.BLOCK_SIZE, 1)
        np.add.at(delta, np.minimum((e - 1) // fu.BLOCK_SIZE + 1, nblocks),
                  -1)
        mask = np.cumsum(delta[:-1]) > 0
        pm = row.get("_pos_meta")  # stream layout parsed once per cached row
        if pm is None:
            pm = row["_pos_meta"] = fu.block_stream_meta(row["pos_enc"],
                                                         n_pos)
        sel_freqs = (e - s).astype(np.int64)
        total = int(sel_freqs.sum())
        if total == 0:
            return sel_freqs, np.empty(0, np.int64)
        # fused C path: masked decode + gather/cumsum in one stream pass
        # (util/cfor.py; numpy below stays the fallback + reference)
        flat_c = cfor.positions_select(row["pos_enc"], pm, n_pos, mask,
                                       s, e, total)
        if flat_c is not None:
            return sel_freqs, flat_c
        posd = fu.decode_blocks_masked(row["pos_enc"], n_pos, mask, meta=pm)
        # gather selected occurrence deltas (entry-major order)
        ends = np.cumsum(sel_freqs)
        starts_out = ends - sel_freqs
        idx = np.arange(total, dtype=np.int64) - \
            np.repeat(starts_out, sel_freqs) + np.repeat(s, sel_freqs)
        deltas = posd[idx]
        # per-entry cumsum: global cumsum minus carried base at entry starts
        flat = np.cumsum(deltas)
        carried = flat[starts_out] - deltas[starts_out]
        flat = flat - np.repeat(carried, sel_freqs)
        return sel_freqs, flat

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
            d, f = decode_postings(row["df"], row["ttf"], row["docs_enc"],
                                   row["freqs_enc"])
            return d, f
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
    """Open an index directory: global stats + one SegmentReader per segment."""

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
        # term-stats layout: sharded dir (shard = crc32(term) % n, written
        # by builder._write_term_stats) or the legacy single file, which
        # reads as a one-shard layout
        self._ts_shards = self.manifest.get("term_stats_shards")
        self._ts_dir = os.path.join(index_dir, "term_stats")
        if self._ts_shards is None and not os.path.isdir(self._ts_dir):
            self._ts_dir = None
        self._ts_shards = self._ts_shards or 1
        self._stats_cache: dict[tuple[str, str], tuple[int, int]] = {}
        self._ts_blocks: dict[int, tuple] = {}  # shard → block index
        self._ts_block_cache: dict[tuple[int, int], dict] = {}

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
        (the TermStates cache role). A term hashes to its shard file; the
        shard's footer locates the one row group (≤ 4096 terms of one
        field) that can hold it, and only that block is read and
        binary-searched — the cost of a segment dictionary lookup, not of
        the shard."""
        missing = sorted({t for t in terms
                          if (field, t) not in self._stats_cache})
        if missing:
            from .builder import term_shard
            by_block: dict[tuple[int, int], list[str]] = {}
            for term, s in zip(missing, term_shard(missing, self._ts_shards)):
                _, _, los, his, groups = self._stats_blocks(int(s))
                key = (field, term)
                i = bisect.bisect_right(los, key) - 1
                if i >= 0 and key <= his[i]:
                    by_block.setdefault((int(s), groups[i]), []).append(term)
            found: dict[str, tuple[int, int]] = {}
            for (s, g), ts in by_block.items():
                blk = self._stats_block(s, g).get(field)
                if blk is None:  # a block spanning fields around this one
                    continue
                arr, df, ttf = blk
                pos = np.searchsorted(arr, ts)
                for term, j in zip(ts, pos):
                    if j < len(arr) and arr[j] == term:
                        found[term] = (int(df[j]), int(ttf[j]))
            for term in missing:
                self._stats_cache[(field, term)] = found.get(term, (0, 0))
        return {term: self._stats_cache[(field, term)] for term in terms}

    def _stats_file(self, shard: int) -> str:
        if self._ts_dir is None:
            return os.path.join(self.index_dir, TERM_STATS_FILE)
        return os.path.join(self._ts_dir, f"shard={shard:04d}.parquet")

    def _stats_blocks(self, shard: int) -> tuple:
        """Block index of one stats shard, built from its footer on first
        use: ``(ParquetFile, field per row group, first keys, last keys,
        row groups)``, a key being (field, term) and ascending across the
        non-empty groups. A group's field is None when its footer does
        not show one (files written before blocks were field-aligned are
        one group over every field); such a group, or one without min/max
        statistics of ``term`` (a bound over FOOTER_STATS_MAX_BYTES), is
        read once to find its first and last key."""
        bi = self._ts_blocks.get(shard)
        if bi is not None:
            return bi
        pf = pq.ParquetFile(self._stats_file(shard))
        md, names = pf.metadata, pf.schema_arrow.names
        fields = []
        for g in range(md.num_row_groups):
            if "field" not in names:  # legacy single-field table
                fields.append("text")
                continue
            fs = footer_min_max(
                md.row_group(g).column(names.index("field")).statistics)
            fields.append(fs[0] if fs and fs[0] == fs[1] else None)
        bi = self._ts_blocks[shard] = (pf, fields, [], [], [])
        _, _, los, his, groups = bi
        for g in range(md.num_row_groups):
            if md.row_group(g).num_rows == 0:
                continue
            ts = footer_min_max(
                md.row_group(g).column(names.index("term")).statistics)
            f = fields[g]
            if f is not None and ts is not None:
                lo, hi = (f, ts[0]), (f, ts[1])
            else:
                blk = self._stats_block(shard, g)
                first, last = min(blk), max(blk)
                lo, hi = (first, blk[first][0][0]), (last, blk[last][0][-1])
            los.append(lo)
            his.append(hi)
            groups.append(g)
        return bi

    def _stats_block(self, shard: int, g: int) -> dict:
        """Row group ``g`` of a stats shard as ``{field: (sorted terms,
        df, ttf)}``, LRU-cached like ``SegmentReader._payload_group``."""
        blk = self._ts_block_cache.pop((shard, g), None)
        if blk is None:
            pf, fields = self._ts_blocks[shard][:2]
            f = fields[g]
            t = pf.read_row_group(g, columns=["term", "df", "ttf"] +
                                  (["field"] if f is None else []))
            if f is None:  # spans fields, or no footer statistics
                runs = pc.run_end_encode(t["field"].combine_chunks())
                fs, ends = runs.values.to_pylist(), runs.run_ends.to_pylist()
            else:
                fs, ends = [f], [t.num_rows]
            blk, start = {}, 0
            for f, end in zip(fs, ends):
                part = t.slice(start, end - start)
                blk[f] = (part["term"].to_numpy(), part["df"].to_numpy(),
                          part["ttf"].to_numpy())
                start = end
        self._ts_block_cache[(shard, g)] = blk  # (re-)insert = most recent
        while len(self._ts_block_cache) > STATS_BLOCK_CACHE:
            self._ts_block_cache.pop(next(iter(self._ts_block_cache)))
        return blk


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
