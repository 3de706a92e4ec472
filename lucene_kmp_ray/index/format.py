"""Immutable segment format: inversion, encoding, file layout.

A segment is the unit of parallel index build and of query assignment — the
analog of a Lucene segment produced by one DWPT flush
(``/root/reference/core/.../index/DocumentsWriterPerThread.kt:278``,
``FreqProxTermsWriter.kt:63``), re-expressed as one vectorized function over
an Arrow table of documents. Layout per segment directory:

- ``terms.parquet`` + ``postings.doc`` + ``postings.pos`` — the term
  dictionary (one row per term, terms in unsigned-byte == UTF-8
  code-point order) and the flat postings records it points into
  (index/postings.py): delta+FOR over ascending local docIDs in 128-doc
  blocks (ForDeltaUtil semantics), PFor over term freqs and over
  within-doc delta-encoded positions, and the per-block skip + impact
  metadata (last docID, max freq, min norm byte — the block-max WAND
  upper-bound inputs, ``Lucene101PostingsWriter.kt:96-107``). The flush
  (``encode_term_table_arrays``) and the merge (index/merge.py) write
  the records through one C
  writer (``cfor.write_postings`` / ``cfor.merge_postings``), the
  ``FieldsConsumer`` role; no logical terms table is built.
- ``docs.parquet`` — per-doc metadata, row N == local docID N:
  ``doc_id, url, length, norm`` (norm = SmallFloat.intToByte4(length),
  Similarity.kt:134-144).
- ``manifest.json`` — docCount, sumTotalTermFreq, sumDocFreq, uniqueTerms
  (per-field stats as in Lucene90BlockTreeTermsWriter.kt:160), lineage and
  build metrics (north rule: resumable per-partition checkpoints).

Everything in this module is pure (no Ray): the builder calls it inside
map_groups / map_batches; tests call it directly.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import cfor
from ..util import forutil as fu
from ..util.smallfloat import int_to_byte4_np
from .postings import _narrow, write_postings

DOCS_FILE = "docs.parquet"
VECTORS_FILE = "vectors.parquet"
VECTORS_Q_FILE = "vectors_q.parquet"
GRAPH_FILE = "graph.parquet"
TVECTORS_FILE = "tvectors.parquet"
TV_ROW_GROUP = 16384  # tv rows per row group (~100-300 docs → pruned gets)
SEG_MANIFEST = "manifest.json"


def sorted_codes(values: pa.Array) -> tuple[np.ndarray, pa.Array]:
    """Each string's rank among the distinct values, and those values
    sorted: ``values == sorted_values.take(ranks)``. One Arrow
    dictionary-encode plus a C++ sort of the dictionary — bytewise UTF-8
    order == code-point order, the BytesRef term order of
    TermsHashPerField.sortTerms — so no Python string objects."""
    enc = values.dictionary_encode()
    order = pc.sort_indices(enc.dictionary).to_numpy().astype(np.int64)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[enc.indices.to_numpy()], \
        pc.take(enc.dictionary, pa.array(order))


def invert_field(texts, n_docs: int, analyzer=None,
                 entries_out: dict | None = None):
    """Invert one field's values → (doc_lengths, norms, the field's terms
    and records ``(terms, stats, .doc bytes, .pos bytes)`` as
    ``encode_term_table_arrays`` writes them, per-doc max term
    frequency, per-doc unique term count) — the last two
    are FieldInvertState.maxTermFrequency / uniqueTermCount
    (``index/FieldInvertState.kt:59-62``), tracked per doc at invert time.

    ``entries_out`` (optional dict) receives the intermediate entry arrays
    (term dictionary, per-entry doc/term/freq, absolute sorted positions)
    so the term-vectors sidecar can be derived WITHOUT a second analysis
    pass (term_vectors_from_entries).

    The single-field inversion core (IndexingChain.invert /
    FieldInvertState, ``index/IndexingChain.kt:1153-1290``), fully
    vectorized. ``texts`` is the field's Arrow column in local-docID order.
    """
    if analyzer is None:
        from ..analysis.standard import StandardAnalyzer
        analyzer = StandardAnalyzer()
    doc_lengths, flat_tokens, doc_of, positions = analyzer.analyze_flat(texts)
    norms = int_to_byte4_np(doc_lengths)
    total = len(flat_tokens)

    # token → sorted-term rank
    scodes, uniques = sorted_codes(flat_tokens)

    # sort occurrences by (term, doc); stable keeps positions ascending
    nd = max(n_docs, 1)
    key = scodes * nd + doc_of
    order = np.argsort(key, kind="stable")
    okey = key[order]
    pos_sorted = positions[order]

    # entries = unique (term, doc) pairs; freqs = occurrences per entry
    if total:
        entry_mask = np.empty(total, dtype=bool)
        entry_mask[0] = True
        np.not_equal(okey[1:], okey[:-1], out=entry_mask[1:])
        entry_starts_occ = np.flatnonzero(entry_mask)
        s_freq = np.diff(np.append(entry_starts_occ, total))
        entry_key = okey[entry_starts_occ]
    else:
        entry_starts_occ = np.empty(0, np.int64)
        s_freq = np.empty(0, np.int64)
        entry_key = np.empty(0, np.int64)
    n_entries = len(entry_key)
    s_doc = entry_key % nd
    entry_term = entry_key // nd

    # delta within each entry's occurrence list (first kept absolute)
    pos_delta = np.empty_like(pos_sorted)
    if total:
        pos_delta[0] = pos_sorted[0]
        np.subtract(pos_sorted[1:], pos_sorted[:-1], out=pos_delta[1:])
        pos_delta[entry_starts_occ] = pos_sorted[entry_starts_occ]

    if entries_out is not None:
        entries_out.update(
            uniques=uniques, s_doc=s_doc, e_term=entry_term,
            s_freq=s_freq, pos_sorted=pos_sorted,
            pos_bounds=np.append(0, np.cumsum(s_freq)))
    term_bounds = np.searchsorted(entry_term, np.arange(len(uniques) + 1))
    records = encode_term_table_arrays(s_doc, s_freq, pos_delta,
                                       term_bounds, norms)
    # FieldInvertState.maxTermFrequency / uniqueTermCount per doc — one
    # bincount + maximum.at over the (term, doc) entry arrays
    max_tf = np.zeros(n_docs, dtype=np.int64)
    if n_entries:
        np.maximum.at(max_tf, s_doc, s_freq)
    uniq_terms = np.bincount(s_doc, minlength=n_docs).astype(np.int64) \
        if n_entries else np.zeros(n_docs, dtype=np.int64)
    return doc_lengths, norms, (uniques, *records), max_tf, uniq_terms


def encode_term_table_arrays(s_doc, s_freq, pos_delta, term_bounds,
                             norms: np.ndarray):
    """The flush's entry into the postings writer: one
    ``cfor.write_postings`` pass over the inverter's flat entry arrays
    (term ``t`` holds entries ``term_bounds[t]:term_bounds[t+1]``) →
    ``(stats, .doc bytes, .pos bytes)``, the field's record triple
    (``stats`` = int64 rows df, ttf, doc_ptr, pos_ptr per term).
    ``invert_field`` calls it through this module's global, which
    perfbench's tracer wraps as the ``format.encode`` span."""
    return cfor.write_postings(term_bounds, s_doc, s_freq, pos_delta, norms)


def field_stats_of(doc_lengths: np.ndarray, df: np.ndarray) -> dict:
    """Per-field collection stats (the per-field accumulation of
    Lucene90BlockTreeTermsWriter.kt:160) from the field's doc lengths and
    per-term ``df``: docCount counts docs with at least one indexed term
    of the field (Terms.getDocCount semantics)."""
    return {
        "doc_count": int((doc_lengths > 0).sum()),
        "sum_total_term_freq": int(doc_lengths.sum()),
        "sum_doc_freq": int(np.sum(df)),
        "unique_terms": len(df),
    }


TOP_STATS = ("sum_total_term_freq", "sum_doc_freq", "unique_terms")


def main_field(fields) -> str | None:
    """The field whose stats a segment manifest repeats at its top level
    (the primary scored field): ``text`` when present, else the first of
    ``fields`` in sorted (dictionary) order; None for no field."""
    return "text" if "text" in fields else min(fields, default=None)


def top_stats(field_stats: dict) -> dict:
    """A segment manifest's top-level ``TOP_STATS``: those of
    ``main_field(field_stats)``, zeros without a field. The flush and
    the merge both write them through here."""
    f = main_field(field_stats)
    return {k: field_stats[f][k] if f else 0 for k in TOP_STATS}


def _sorted_docs(docs: pa.Table,
                 index_sort: tuple[tuple[str, bool], ...] | None) -> pa.Table:
    """Order the segment's rows: by the index sort keys (the Sorter /
    IndexWriterConfig.setIndexSort role, ``index/Sorter.kt``) with doc_id
    as the deterministic tie-break, else by doc_id (the default dense
    docID assignment)."""
    if not index_sort:
        return docs.sort_by("doc_id")
    keys = [(f, "descending" if desc else "ascending")
            for f, desc in index_sort] + [("doc_id", "ascending")]
    return docs.sort_by(keys)


def invert_segment(docs: pa.Table, seg: int, lineage: dict | None = None,
                   analyzer=None,
                   fields: tuple[str, ...] = ("text",),
                   meta_cols: tuple[str, ...] = (),
                   index_sort: tuple[tuple[str, bool], ...] | None = None,
                   presorted: bool = False,
                   tv_out: dict | None = None
                   ) -> tuple[tuple, pa.Table, dict]:
    """Invert one segment's documents → (postings, docs_table, manifest),
    ``postings`` the ``(dictionary, .doc, .pos)`` triple ``write_segment``
    takes: each field's records, written by ``encode_term_table_arrays``,
    follow the previous field's.

    ``docs`` must have columns ``doc_id, url`` plus one column per entry of
    ``fields`` (the fielded-document model, Document.kt:20 / FieldInfos.kt
    — each field inverts independently with its own norms and stats); rows
    are sorted by ``doc_id`` and local docIDs are their ranks (deterministic
    corpus order, never Ray block arrival order — SURVEY §4 "ordering").
    ``analyzer`` is any object with ``analyze_flat(texts)`` (see
    StandardAnalyzer — the Analyzer extension point, SURVEY §2.11); default
    StandardAnalyzer, applied to every field (per-field analyzers slot in
    via a dict, PerFieldAnalyzerWrapper role: pass {field: analyzer}).

    The dictionary carries a ``field`` column and is sorted by
    (field, term) — the (field, term)-keyed term dictionary of
    Lucene90BlockTreeTermsWriter (one block-tree per field). The docs table
    holds per-field norms: field "text" keeps the legacy ``length``/``norm``
    names, any other field f gets ``length_{f}``/``norm_{f}``.
    """
    t0 = time.monotonic()
    if not presorted:
        docs = _sorted_docs(docs, index_sort)
    n_docs = docs.num_rows
    fields = tuple(sorted(fields))

    parts, doc_bytes, pos_bytes = [], [], []
    at = np.zeros((2, 1), np.int64)  # the fields' bytes so far
    doc_cols: dict = {"doc_id": docs["doc_id"], "url": docs["url"]}
    field_stats: dict = {}
    for f in fields:
        ana = analyzer.get(f) if isinstance(analyzer, dict) else analyzer
        ent = {} if tv_out is not None else None
        lengths, norms, (terms, stats, doc, pos), max_tf, uniq = \
            invert_field(docs[f], n_docs, ana, entries_out=ent)
        if tv_out is not None:
            tv_out[f] = ent
        stats[2:] += at
        at += [[len(doc)], [len(pos)]]
        parts.append((f, terms, stats))
        doc_bytes.append(doc)
        pos_bytes.append(pos)
        sfx = "" if f == "text" else f"_{f}"
        doc_cols[f"length{sfx}"] = pa.array(lengths, type=pa.int32())
        doc_cols[f"norm{sfx}"] = pa.array(norms, type=pa.uint8())
        # FieldInvertState extras (per-doc, per-field)
        doc_cols[f"max_tf{sfx}"] = pa.array(max_tf, type=pa.int32())
        doc_cols[f"unique_terms{sfx}"] = pa.array(uniq, type=pa.int32())
        field_stats[f] = field_stats_of(lengths, stats[0])

    for mc in meta_cols:  # stored doc-values columns (DocValues role:
        doc_cols[mc] = docs[mc]  # numeric per-doc payload for filters/sort)
    docs_table = pa.table(doc_cols)
    if n_docs:
        ids_np = docs["doc_id"].to_numpy()
        id_min, id_max = int(ids_np.min()), int(ids_np.max())
    else:
        id_min = id_max = None
    manifest = {
        "seg": int(seg),
        "doc_count": int(n_docs),
        **top_stats(field_stats),
        "fields": field_stats,
        "index_sort": [[f, bool(d)] for f, d in index_sort]
        if index_sort else None,
        "doc_id_min": id_min,
        "doc_id_max": id_max,
        "lineage": lineage or {},
        "metrics": {"build_sec": round(time.monotonic() - t0, 4),
                    "tokens": sum(s["sum_total_term_freq"]
                                  for s in field_stats.values())},
    }
    postings = (postings_dictionary(parts),
                *(np.concatenate(b or [np.empty(0, np.uint8)])
                  for b in (doc_bytes, pos_bytes)))
    return postings, docs_table, manifest


def field_column(field: str, n: int) -> pa.Array:
    """``n`` copies of ``field`` as a string array, filled in by Arrow
    (no Python string per row)."""
    return pa.nulls(n, pa.string()).fill_null(field)


def postings_dictionary(parts: list) -> pa.Table:
    """A segment's term dictionary (``field, term, df, ttf, doc_ptr,
    pos_ptr``) from ``parts``, in field order: ``(field, terms, stats)``
    with the field's sorted terms and their int64 rows df, ttf, doc_ptr,
    pos_ptr (pointers into the segment's files). The four numbers are
    int32 when every value fits (``postings._narrow``)."""
    stats = np.concatenate([p[2] for p in parts], axis=1) if parts \
        else np.empty((4, 0), np.int64)
    cols = {"field": pa.chunked_array(
                [field_column(f, len(t)) for f, t, _ in parts], pa.string()),
            "term": pa.chunked_array(
                [c for _, t, _ in parts for c in getattr(t, "chunks", [t])],
                pa.string())}
    cols.update(zip(("df", "ttf", "doc_ptr", "pos_ptr"), map(_narrow, stats)))
    return pa.table(cols)


def term_vectors_of(texts, doc_ids: np.ndarray, field: str,
                    analyzer=None) -> pa.Table:
    """Per-document term vectors for one field — the doc-major transpose
    of the inverted index (``index/TermVectorsConsumerPerField.kt``: each
    doc's terms in BytesRef order with freq and positions;
    ``codecs/simpletext/SimpleTextTermVectorsWriter.kt`` is the readable
    reference layout). Fully vectorized: one ``analyze_flat`` pass, one
    dictionary-encode, one stable argsort by (doc, term-rank) — positions
    stay ascending within each (doc, term) entry.

    Returns ``doc_id (GLOBAL), field, term, freq, positions`` sorted by
    (doc_id, term); ``doc_ids[i]`` is the global id of local doc i.
    Offsets are designed out: the engine's analyzers track positions only
    (what phrase/span semantics need); chars offsets would force a second
    per-token pass for a field nothing consumes.
    """
    if analyzer is None:
        from ..analysis.standard import StandardAnalyzer
        analyzer = StandardAnalyzer()
    _, flat_tokens, doc_of, positions = analyzer.analyze_flat(texts)
    total = len(flat_tokens)
    empty = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "field": pa.array([], pa.string()),
        "term": pa.array([], pa.string()),
        "freq": pa.array([], pa.int32()),
        "positions": pa.array([], pa.list_(pa.int32())),
    })
    if not total:
        return empty
    scodes, uniques = sorted_codes(flat_tokens)

    nt = len(uniques)
    key = doc_of * nt + scodes  # doc-major, term-minor
    order = np.argsort(key, kind="stable")
    okey = key[order]
    pos_sorted = positions[order].astype(np.int32)

    entry_mask = np.empty(total, dtype=bool)
    entry_mask[0] = True
    np.not_equal(okey[1:], okey[:-1], out=entry_mask[1:])
    entry_starts = np.flatnonzero(entry_mask)
    freqs = np.diff(np.append(entry_starts, total)).astype(np.int32)
    ekey = okey[entry_starts]
    e_doc = ekey // nt
    e_term = ekey % nt

    offsets = np.append(entry_starts, total).astype(np.int32)
    pos_col = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                       pa.array(pos_sorted, pa.int32()))
    return pa.table({
        "doc_id": pa.array(np.asarray(doc_ids)[e_doc], pa.int64()),
        "field": pa.array(np.full(len(ekey), field, dtype=object),
                          pa.string()),
        "term": pc.take(uniques, pa.array(e_term)),
        "freq": pa.array(freqs, pa.int32()),
        "positions": pos_col,
    })


def term_vectors_from_entries(entries: dict, doc_ids: np.ndarray,
                              field: str) -> pa.Table:
    """Term vectors derived from invert_field's entry arrays — the
    doc-major transpose WITHOUT a second analysis pass (the entry arrays
    already hold (term, doc, freq) plus the absolute sorted positions).
    Identical output to ``term_vectors_of`` (asserted in
    tests/test_term_vectors.py): entries re-sort doc-major by
    (doc, term-rank) and the per-entry position lists ride along via one
    Arrow list-take."""
    s_doc = entries["s_doc"]
    if len(s_doc) == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "field": pa.array([], pa.string()),
            "term": pa.array([], pa.string()),
            "freq": pa.array([], pa.int32()),
            "positions": pa.array([], pa.list_(pa.int32())),
        })
    e_term = entries["e_term"]
    s_freq = entries["s_freq"]
    uniques = entries["uniques"]
    nt = len(uniques)
    order = np.argsort(s_doc * nt + e_term)  # entries unique → no ties
    pos_list = pa.ListArray.from_arrays(
        pa.array(entries["pos_bounds"].astype(np.int32), pa.int32()),
        pa.array(entries["pos_sorted"].astype(np.int32), pa.int32()))
    return pa.table({
        "doc_id": pa.array(np.asarray(doc_ids)[s_doc[order]], pa.int64()),
        "field": pa.array(np.full(len(order), field, dtype=object),
                          pa.string()),
        "term": pc.take(uniques, pa.array(e_term[order])),
        "freq": pa.array(s_freq[order].astype(np.int32), pa.int32()),
        "positions": pos_list.take(pa.array(order)),
    })


def build_term_vectors(docs: pa.Table, fields=("text",),
                       analyzer=None) -> pa.Table:
    """All-fields term vectors for one segment's (already doc_id-sorted)
    docs table — one ``term_vectors_of`` per field, concatenated in field
    order within doc order (the per-doc Fields enumeration of
    ``index/TermVectors.kt``). Sorted by (doc_id, field, term) so the
    sidecar's row-group doc_id stats prune point lookups."""
    doc_ids = docs["doc_id"].to_numpy()
    parts = []
    for f in sorted(fields):
        ana = analyzer.get(f) if isinstance(analyzer, dict) else analyzer
        parts.append(term_vectors_of(docs[f], doc_ids, f, ana))
    tv = pa.concat_tables(parts)
    if len(parts) > 1 and tv.num_rows:
        tv = tv.sort_by([("doc_id", "ascending"), ("field", "ascending"),
                         ("term", "ascending")])
    return tv


def seg_dirname(seg: int) -> str:
    return f"seg={seg:05d}"


def write_segment(index_dir: str, postings: tuple, docs_table: pa.Table,
                  manifest: dict, vectors_table: pa.Table | None = None,
                  graph_table: pa.Table | None = None,
                  qvectors_table: pa.Table | None = None,
                  tvectors_table: pa.Table | None = None,
                  bloom: bool = False
                  ) -> dict:
    """Atomically persist one segment (write tmp dir, rename) — the
    per-partition two-phase commit (SegmentInfos.kt:35-45 analog).
    ``postings`` is ``(dictionary, postings.doc bytes, postings.pos
    bytes)``, written by the one postings writer: the flush's
    ``segment_postings`` and the merge's ``_merge_records`` both hand
    over this triple.
    ``vectors_table`` is the optional per-doc vector sidecar (row N ==
    local docID N — the KnnVectorsFormat role, codecs/lucene99);
    ``graph_table`` the optional HNSW neighbor-list sidecar over it;
    ``qvectors_table`` the optional int8 scalar-quantized sidecar
    (Lucene99ScalarQuantizedVectorsFormat role)."""
    import shutil
    import tempfile

    seg = manifest["seg"]
    seg_root = os.path.join(index_dir, "segments")
    final_dir = os.path.join(seg_root, seg_dirname(seg))
    if os.path.exists(os.path.join(final_dir, SEG_MANIFEST)):
        return manifest  # already committed (resume path)
    os.makedirs(seg_root, exist_ok=True)
    # unique tmp dir per attempt: Ray is at-least-once, and two live
    # attempts of the same segment must never interleave writes — each
    # writes its own dir and only one wins the rename. The "_tmp." prefix
    # keeps crashed attempts invisible to completed_segments' "seg=" scan.
    tmp_dir = tempfile.mkdtemp(prefix="_tmp." + seg_dirname(seg) + ".",
                               dir=seg_root)
    # dictionary + flat postings files: a term lookup reads one record
    write_postings(tmp_dir, *postings)
    pq.write_table(docs_table, os.path.join(tmp_dir, DOCS_FILE))
    if vectors_table is not None:
        pq.write_table(vectors_table, os.path.join(tmp_dir, VECTORS_FILE))
    if graph_table is not None:
        pq.write_table(graph_table, os.path.join(tmp_dir, GRAPH_FILE))
    if qvectors_table is not None:
        pq.write_table(qvectors_table, os.path.join(tmp_dir, VECTORS_Q_FILE))
    if tvectors_table is not None:
        # doc_id-sorted rows + modest row groups: a per-doc get reads only
        # the group(s) whose doc_id stats cover it (TermVectorsReader's
        # random-access contract, re-expressed as row-group pruning)
        pq.write_table(tvectors_table, os.path.join(tmp_dir, TVECTORS_FILE),
                       row_group_size=TV_ROW_GROUP)
    if bloom:
        # opt-in per-field bloom sidecar over the term dictionary
        # (BloomFilteringPostingsFormat role, index/bloom.py): readers
        # answer "term definitely absent" without touching terms.parquet
        from .bloom import build_segment_bloom
        manifest["bloom"] = build_segment_bloom(postings[0], tmp_dir)
    with open(os.path.join(tmp_dir, SEG_MANIFEST), "w") as f:
        json.dump(manifest, f)
    try:
        os.rename(tmp_dir, final_dir)
    except OSError:
        if os.path.exists(os.path.join(final_dir, SEG_MANIFEST)):
            shutil.rmtree(tmp_dir, ignore_errors=True)  # lost the race
        else:
            raise  # a real commit failure must not masquerade as success
    return manifest


def build_and_write_segment(docs: pa.Table, seg: int, index_dir: str,
                            lineage: dict | None = None,
                            analyzer=None,
                            fields: tuple[str, ...] = ("text",),
                            vector_col: str | None = None,
                            meta_cols: tuple[str, ...] = (),
                            index_sort: tuple[tuple[str, bool], ...] | None
                            = None,
                            hnsw: dict | None = None,
                            quantize: dict | None = None,
                            store_term_vectors: bool = False,
                            bloom: bool = False) -> dict:
    """``vector_col`` names a per-doc vector column of ``docs`` (a
    KnnFloatVectorField, document/KnnFloatVectorField role): it splits
    into the vectors sidecar in local-docID order and never enters the
    inverted part. ``meta_cols`` pass through into the docs table as
    filterable/sortable per-doc values (the DocValues role).
    ``index_sort`` orders docs within the segment by the given
    (field, descending) keys (IndexWriterConfig.setIndexSort role) — the
    sort fields must be among ``meta_cols``/``url``/``doc_id``.
    ``hnsw`` (e.g. ``{"m": 16, "ef_construction": 100}``) additionally
    builds a per-segment HNSW graph sidecar over the vector column
    (HnswGraphBuilder.kt role) for approximate KNN at query time.
    ``quantize`` (``{"lo": float, "hi": float, "bits": 7}`` — GLOBAL
    corpus bounds, see util/quantize.py) additionally writes an int8
    scalar-quantized sidecar (Lucene99ScalarQuantizedVectorsFormat
    role) that KnnByteVectorQuery / ByteVectorSimilarityQuery scan with
    pure integer dot products."""
    docs = _sorted_docs(docs, index_sort)  # one sort; vectors ride along
    vectors_table = None
    if vector_col is not None and vector_col in docs.column_names:
        vectors_table = docs.select([vector_col]) \
            .rename_columns(["embedding"])
        docs = docs.drop_columns([vector_col])
    tv_entries: dict | None = {} if store_term_vectors else None
    postings, docs_table, manifest = invert_segment(docs, seg, lineage,
                                                    analyzer, fields,
                                                    meta_cols,
                                                    index_sort=index_sort,
                                                    presorted=True,
                                                    tv_out=tv_entries)
    if vectors_table is not None:
        d = vectors_table["embedding"][0].as_py() \
            if vectors_table.num_rows else []
        manifest["vector_dim"] = len(d) if d is not None else 0
    graph_table = None
    if hnsw is not None and vectors_table is not None and \
            vectors_table.num_rows:
        graph_table, hmeta = build_hnsw_sidecar(vectors_table, hnsw)
        manifest["hnsw"] = hmeta
    qvectors_table = None
    if quantize is not None and vectors_table is not None and \
            vectors_table.num_rows:
        qvectors_table, qmeta = build_quantized_sidecar(vectors_table,
                                                        quantize)
        manifest["quantize"] = qmeta
    tvectors_table = None
    if store_term_vectors:
        # FieldType.setStoreTermVectors(true) role: an opt-in per-index
        # sidecar derived from the SAME inversion entry arrays (no second
        # analysis pass; reads are O(doc))
        doc_ids_np = docs_table["doc_id"].to_numpy()
        parts = [term_vectors_from_entries(tv_entries[f], doc_ids_np, f)
                 for f in sorted(fields)]
        tvectors_table = pa.concat_tables(parts)
        if len(parts) > 1 and tvectors_table.num_rows:
            tvectors_table = tvectors_table.sort_by(
                [("doc_id", "ascending"), ("field", "ascending"),
                 ("term", "ascending")])
        manifest["term_vectors"] = True
    return write_segment(index_dir, postings, docs_table, manifest,
                         vectors_table, graph_table, qvectors_table,
                         tvectors_table, bloom=bloom)


def build_quantized_sidecar(vectors_table: pa.Table,
                            quantize: dict) -> tuple[pa.Table, dict]:
    """int8 scalar-quantized copy of the vector sidecar (flush-time
    quantization, Lucene99ScalarQuantizedVectorsWriter role): ``qvec``
    int8 bytes + ``qcorr`` the per-vector corrective offset
    (ScalarQuantizer.kt:79-121), null rows (vector-less docs) preserved.
    ``quantize`` carries the GLOBAL (lo, hi, bits) so all segments share
    one byte space (divergence from Lucene's per-segment quantiles,
    documented in util/quantize.py)."""
    from ..util.quantize import ScalarQuantizer
    sq = ScalarQuantizer(float(quantize["lo"]), float(quantize["hi"]),
                         int(quantize.get("bits", 7)))
    col = vectors_table["embedding"].combine_chunks()
    n = len(col)
    if col.null_count:
        valid = ~np.asarray(col.is_null())
        rows = col.to_numpy(zero_copy_only=False)
        dim = next(len(r) for r in rows if r is not None)
        dense = np.zeros((int(valid.sum()), dim), dtype=np.float64)
        for j, i in enumerate(np.flatnonzero(valid)):
            dense[j] = rows[i]
    else:
        valid = np.ones(n, dtype=bool)
        from ..util.vecs import matrix_from_list_column
        dense = matrix_from_list_column(col)
        dim = dense.shape[1] if dense.size else 0
    qb, corr = sq.quantize(dense)
    qcorr = np.full(n, np.nan, dtype=np.float64)
    qcorr[valid] = corr
    if valid.all():
        lists = pa.FixedSizeListArray.from_arrays(
            pa.array(qb.ravel(), type=pa.int8()), dim)
    else:
        # sparse field: null rows ride as null lists (Parquet cannot
        # store fixed-size lists with null slots)
        lengths = np.where(valid, dim, 0)
        offs = np.append(0, np.cumsum(lengths)).astype(np.int64)
        offsets = pa.array(
            [None if i < n and not valid[i] else int(offs[i])
             for i in range(n + 1)], type=pa.int32())
        lists = pa.ListArray.from_arrays(
            offsets, pa.array(qb.ravel(), type=pa.int8()))
    qmeta = {"lo": sq.lo, "hi": sq.hi, "bits": sq.bits}
    return pa.table({"qvec": lists,
                     "qcorr": pa.array(qcorr, type=pa.float64())}), qmeta


def decode_postings(df: int, ttf: int, docs_enc: bytes, freqs_enc: bytes,
                    pos_enc: bytes | None = None):
    """Decode one term's posting list → (docs, freqs[, flat_positions]).

    ``docs`` ascending local docIDs (int64), ``freqs`` int64; when
    ``pos_enc`` is given also the flat positions (absolute, occurrence-major
    in (doc) order — split by ``freqs`` to get per-doc lists).
    """
    docs = fu.delta_decode(fu.decode_blocks(docs_enc, df))
    freqs = fu.decode_blocks(freqs_enc, df)
    if pos_enc is None:
        return docs, freqs
    n_pos = int(ttf)
    pos_delta = fu.decode_blocks(pos_enc, n_pos)
    # undo within-entry delta: cumsum then subtract carried base per entry
    flat = np.cumsum(pos_delta)
    starts = np.append(0, np.cumsum(freqs))[:-1]
    if len(flat):
        base = np.zeros(n_pos, dtype=np.int64)
        entry_of = np.repeat(np.arange(df), freqs)
        carried = flat[starts] - pos_delta[starts]
        base = carried[entry_of]
        flat = flat - base
    return docs, freqs, flat


def read_seg_manifest(index_dir: str, seg: int) -> dict | None:
    p = os.path.join(index_dir, "segments", seg_dirname(seg), SEG_MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def build_hnsw_sidecar(vectors_table: pa.Table, hnsw: dict):
    """Build the per-segment HNSW graph sidecar (HnswGraphBuilder.kt role)
    over the vectors sidecar → (graph table, manifest metadata). Null
    vector rows (docs merged in from vector-less segments) are excluded
    from the graph by giving them no links — search never reaches them."""
    from ..util.hnsw import build_graph, graph_to_table

    col = vectors_table["embedding"].combine_chunks()
    rows = col.to_numpy(zero_copy_only=False)
    dim = next((len(r) for r in rows if r is not None), 0)
    mat = np.zeros((len(rows), dim), dtype=np.float32)
    present = np.ones(len(rows), dtype=bool)
    for i, r in enumerate(rows):
        if r is None:
            present[i] = False
        else:
            mat[i] = r
    m = int(hnsw.get("m", 16))
    efc = int(hnsw.get("ef_construction", 100))
    seed = int(hnsw.get("seed", 42))
    if present.all():
        g = build_graph(mat, m=m, ef_construction=efc, seed=seed)
    else:
        # build over present rows only, then remap node ids back
        ids = np.flatnonzero(present)
        sub = build_graph(mat[ids], m=m, ef_construction=efc, seed=seed)
        remap = [{int(ids[n]): [int(ids[x]) for x in lst]
                  for n, lst in layer.items()}
                 for layer in sub.neighbors]
        from ..util.hnsw import HnswGraph
        g = HnswGraph(remap, int(ids[sub.entry]) if sub.entry >= 0 else -1,
                      mat, m)
    meta = {"m": m, "ef_construction": efc, "seed": seed,
            "entry": int(g.entry), "max_level": g.max_level}
    return graph_to_table(g), meta
