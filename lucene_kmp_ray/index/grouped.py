"""Groupby-term shuffle build with explicit head-term skew splitting.

The north-star architecture stated literally: ``map_batches`` tokenizes
pages into (term, docID, freq, positions) posting entries, a groupby-term
shuffle builds each sorted, delta+FOR-compressed posting list with skip
pointers, and head terms are split explicitly before the shuffle.

When to use which build path:

- :func:`lucene_kmp_ray.index.builder.build_index_sharded` (default) —
  segment == input shard, inversion entirely inside one task (the Lucene
  DWPT model, DocumentsWriterPerThreadPool.kt:20-116). Zero shuffle. Needs
  the whole shard's *text* in one worker's heap.
- this module — when a segment's corpus slice exceeds a worker's heap
  (e.g. 4M docs × 2KB text): the text never congregates; only compressed
  posting bytes do. Three streaming stages:

  1. ``map_batches(explode)``: corpus batch → posting-entry rows
     ``(seg, term, salt, doc, freq, posd, norm)`` + per-doc meta rows.
     **Skew splitting happens here**: a sampled pre-pass estimates
     document frequency; terms whose df exceeds ``head_df_frac`` of docs
     ("the", "of", … — the Zipf head that would otherwise send one
     segment-sized group to a single reducer) get ``salt = doc //
     salt_docs``, splitting their posting list into doc-range sub-lists
     that encode in parallel; tail terms keep ``salt = -1`` (single group).
  2. ``groupby(seg, term, salt).map_groups(encode)``: sort each group by
     doc, delta+FOR-encode → one compressed sub-list row with skip/impact
     block metadata. After this stage data volume drops ~5-10×.
  3. ``groupby(seg).map_groups(assemble)``: per segment, doc-meta rows
     become ``docs.parquet``; sub-lists of the same term concatenate in
     salt (== doc) order — head terms decode+re-encode (few, bounded),
     tail terms pass through — then the sorted term table + manifest
     commit atomically exactly like the sharded path.

Output is file-identical to the other build paths (asserted in
tests/test_grouped_build.py), so readers, merge and search are oblivious.
Scope note: this path indexes the single default ``text`` field (no
title/vector sidecars) — it exists for the oversized-segment case, where
the corpus slice is by definition the body text; fielded/vector builds go
through the sharded or Dataset paths.

Reference semantics mirrored: inversion IndexingChain.kt:1153-1290;
sorted-term flush FreqProxTermsWriter.kt:63; skip/impacts
Lucene101PostingsWriter.kt:96-107. Skew design per SURVEY §4 ("needs
explicit design").
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis.standard import tokenize_flat
from ..util import forutil as fu
from ..util.smallfloat import int_to_byte4_np
from .builder import commit_index, completed_segments
from .format import (_prepend_field, encode_term_table, field_stats_of,
                     read_seg_manifest, write_segment)
from .postings import split_postings

DEFAULT_SALT_DOCS = 16_384          # head-term sub-list = ≤ this many docs
DEFAULT_HEAD_DF_FRAC = 0.05         # df/doc_count above this → head term
DEFAULT_HEAD_SAMPLE_DOCS = 2_000    # docs tokenized by the df pre-pass


def estimate_head_terms(ds, sample_docs: int = DEFAULT_HEAD_SAMPLE_DOCS,
                        head_df_frac: float = DEFAULT_HEAD_DF_FRAC,
                        analyzer=None) -> set[str]:
    """Sampled df pre-pass → the Zipf-head term set to salt.

    Tokenizes ``sample_docs`` docs (driver-side: the sample is tiny and the
    result — a handful of stop-word-like strings — is broadcast via
    ``ray.put``). Over-estimating costs a little re-encode work in stage 3;
    under-estimating costs one hot reducer group — so the threshold is
    deliberately low.
    """
    import collections

    sample = ds.limit(sample_docs).select_columns(["text"]).take_all()
    texts = [r["text"] for r in sample]
    if not texts:
        return set()
    if analyzer is None:
        dl, flat = tokenize_flat(texts)
    else:
        dl, flat, _, _ = analyzer.analyze_flat(texts)
    toks = flat.to_pylist()
    df: collections.Counter = collections.Counter()  # df, not ttf
    lo = 0
    for ln in dl:
        df.update(set(toks[lo:lo + int(ln)]))
        lo += int(ln)
    thresh = max(1, int(len(texts) * head_df_frac))
    return {t for t, c in df.items() if c >= thresh}


def _explode(batch: pa.Table, segment_size: int, heads: set[str],
             salt_docs: int, analyzer=None) -> pa.Table:
    """Corpus batch → unified entry/doc-meta rows (stage 1)."""
    n_rows = batch.num_rows
    doc_ids = batch["doc_id"].to_numpy()
    if analyzer is None:
        from ..analysis.standard import StandardAnalyzer
        analyzer = StandardAnalyzer()
    doc_lengths, flat_tokens, row_of, positions = \
        analyzer.analyze_flat(batch["text"])
    norms = int_to_byte4_np(doc_lengths)
    total = len(flat_tokens)

    dict_arr = flat_tokens.dictionary_encode()
    codes = dict_arr.indices.to_numpy().astype(np.int64) if total else \
        np.empty(0, np.int64)
    vocab = np.asarray(dict_arr.dictionary.to_pylist(), dtype=object)

    # sort occurrences by (term, row); stable keeps positions ascending
    key = codes * max(n_rows, 1) + row_of
    order = np.argsort(key, kind="stable")
    okey, pos_sorted = key[order], positions[order]
    if total:
        mask = np.empty(total, dtype=bool)
        mask[0] = True
        np.not_equal(okey[1:], okey[:-1], out=mask[1:])
        starts = np.flatnonzero(mask)
        freqs = np.diff(np.append(starts, total))
        ekey = okey[starts]
    else:
        starts = freqs = ekey = np.empty(0, np.int64)
    e_row = ekey % max(n_rows, 1)
    e_code = ekey // max(n_rows, 1)
    posd = pos_sorted.copy()
    if total:
        posd[1:] = pos_sorted[1:] - pos_sorted[:-1]
        posd[starts] = pos_sorted[starts]

    e_doc_global = doc_ids[e_row]
    seg = e_doc_global // segment_size
    local = e_doc_global - seg * segment_size
    terms = vocab[e_code]
    is_head = np.isin(terms, np.asarray(sorted(heads), dtype=object)) \
        if heads else np.zeros(len(terms), dtype=bool)
    salt = np.where(is_head, local // salt_docs, -1)

    offsets = np.append(0, np.cumsum(freqs)).astype(np.int32)
    posd_col = pa.ListArray.from_arrays(pa.array(offsets),
                                        pa.array(posd.astype(np.int32)))
    n_e = len(e_row)
    entries = pa.table({
        "kind": pa.array(np.ones(n_e, np.int8)),
        "seg": pa.array(seg.astype(np.int64)),
        "term": pa.array(terms, type=pa.string()),
        "salt": pa.array(salt.astype(np.int64)),
        "doc": pa.array(local.astype(np.int64)),
        "freq": pa.array(freqs.astype(np.int64)),
        "posd": posd_col,
        "norm": pa.array(norms[e_row].astype(np.int64)),
        "doc_id": pa.array(np.zeros(n_e, np.int64)),
        "url": pa.nulls(n_e, pa.string()),
        "length": pa.array(np.zeros(n_e, np.int64)),
    })
    d_seg = doc_ids // segment_size
    # doc-meta rows use term="" (tokens are never empty) so the groupby key
    # is non-null and all of a segment's doc rows form one pass-through group
    docrows = pa.table({
        "kind": pa.array(np.zeros(n_rows, np.int8)),
        "seg": pa.array(d_seg.astype(np.int64)),
        "term": pa.array([""] * n_rows, type=pa.string()),
        "salt": pa.array(np.full(n_rows, -2, np.int64)),
        "doc": pa.array((doc_ids - d_seg * segment_size).astype(np.int64)),
        "freq": pa.array(np.zeros(n_rows, np.int64)),
        "posd": pa.ListArray.from_arrays(
            pa.array(np.zeros(n_rows + 1, np.int32)),
            pa.array([], type=pa.int32())),
        "norm": pa.array(norms.astype(np.int64)),
        "doc_id": batch["doc_id"],
        "url": batch["url"],
        "length": pa.array(doc_lengths.astype(np.int64)),
    })
    return pa.concat_tables([entries, docrows])


def _stage2_table(kind, seg, term, salt, doc, doc_id, url, length, norm,
                  df, ttf, docs_enc, freqs_enc, pos_enc,
                  blk_last, blk_maxf, blk_minn) -> pa.Table:
    """Single canonical stage-2 schema for both row kinds (column order and
    types must be identical across groups — Ray Data blocks concatenate)."""
    return pa.table({
        "kind": kind, "seg": seg, "term": term, "salt": salt, "doc": doc,
        "doc_id": doc_id, "url": url, "length": length, "norm": norm,
        "df": df, "ttf": ttf, "docs_enc": docs_enc, "freqs_enc": freqs_enc,
        "pos_enc": pos_enc, "block_last_doc": blk_last,
        "block_max_freq": blk_maxf, "block_min_norm": blk_minn,
    })


def _encode_group(g: pa.Table) -> pa.Table:
    """Stage 2: one (seg, term, salt) group → one encoded sub-list row.

    Doc-meta rows (kind=0, term="") pass through padded to the same schema
    — they share the shuffle only to reach the same segment assembler.
    """
    if g.num_rows == 0:
        return _stage2_table(*[arr.slice(0, 0) for arr in _EMPTY_S2.columns])
    if g["kind"][0].as_py() == 0:
        n = g.num_rows
        i64z = pa.array(np.zeros(n, np.int64))
        return _stage2_table(
            g["kind"], g["seg"], g["term"], g["salt"], g["doc"],
            g["doc_id"], g["url"], g["length"], g["norm"],
            i64z, i64z, pa.nulls(n, pa.binary()), pa.nulls(n, pa.binary()),
            pa.nulls(n, pa.binary()), pa.nulls(n, pa.list_(pa.int32())),
            pa.nulls(n, pa.list_(pa.int32())), pa.nulls(n, pa.list_(pa.int32())))
    order = pc.sort_indices(g, sort_keys=[("doc", "ascending")])
    g = g.take(order)
    d = g["doc"].to_numpy()
    f = g["freq"].to_numpy()
    posd_flat = pc.list_flatten(g["posd"]).to_numpy().astype(np.int64)
    norms = g["norm"].to_numpy().astype(np.int64)
    idx = np.arange(0, len(d), fu.BLOCK_SIZE)
    i64 = pa.int64()
    return _stage2_table(
        pa.array([np.int8(1)]), g["seg"].slice(0, 1), g["term"].slice(0, 1),
        g["salt"].slice(0, 1), pa.array([0], i64), pa.array([0], i64),
        pa.nulls(1, pa.string()), pa.array([0], i64), pa.array([0], i64),
        pa.array([len(d)], i64), pa.array([int(f.sum())], i64),
        pa.array([fu.encode_blocks(fu.delta_encode(d))], pa.binary()),
        pa.array([fu.encode_blocks_pfor(f)], pa.binary()),
        pa.array([fu.encode_blocks_pfor(posd_flat)], pa.binary()),
        pa.array([d[np.minimum(idx + fu.BLOCK_SIZE - 1, len(d) - 1)]
                  .astype(np.int32)], pa.list_(pa.int32())),
        pa.array([np.maximum.reduceat(f, idx).astype(np.int32)],
                 pa.list_(pa.int32())),
        pa.array([np.minimum.reduceat(norms, idx).astype(np.int32)],
                 pa.list_(pa.int32())))


_EMPTY_S2 = _stage2_table(
    pa.array([], pa.int8()), pa.array([], pa.int64()),
    pa.array([], pa.string()), pa.array([], pa.int64()),
    pa.array([], pa.int64()), pa.array([], pa.int64()),
    pa.array([], pa.string()), pa.array([], pa.int64()),
    pa.array([], pa.int64()), pa.array([], pa.int64()),
    pa.array([], pa.int64()), pa.array([], pa.binary()),
    pa.array([], pa.binary()), pa.array([], pa.binary()),
    pa.array([], pa.list_(pa.int32())), pa.array([], pa.list_(pa.int32())),
    pa.array([], pa.list_(pa.int32())))


def make_assembler(index_dir: str, lineage_source: str, segment_size: int):
    """Stage 3: one segment group → committed segment dir + manifest row."""
    import json

    def assemble(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"manifest": pa.array([], pa.string())})
        t0 = time.monotonic()
        seg = int(g["seg"][0].as_py())
        kinds = g["kind"].to_numpy()
        docrows = g.filter(pa.array(kinds == 0)).sort_by("doc")
        subs = g.filter(pa.array(kinds == 1))
        norms_by_doc = docrows["norm"].to_numpy().astype(np.uint8)
        n_docs = docrows.num_rows
        # local docID contract: row N of docs.parquet == local docID N.
        # Stage 1 stored `doc_id - seg*segment_size`, which equals the rank
        # only for dense doc_ids; sparse corpora (filtered/deduped) remap
        # stored locals → ranks here (monotone map: sort order unchanged).
        stored_locals = docrows["doc"].to_numpy()
        need_remap = not np.array_equal(stored_locals,
                                        np.arange(n_docs, dtype=np.int64))

        # per term: single sub-list passes through; multi-salt (head terms)
        # decode sub-lists, concat in salt==doc order, re-encode
        subs = subs.sort_by([("term", "ascending"), ("salt", "ascending")])
        terms = subs["term"].to_pylist()
        dfs = subs["df"].to_numpy()
        ttfs = subs["ttf"].to_numpy()

        def sub_arrays(i):
            df_i, ttf_i = int(dfs[i]), int(ttfs[i])
            d = fu.delta_decode(fu.decode_blocks(
                subs["docs_enc"][i].as_py(), df_i))
            if need_remap:
                d = np.searchsorted(stored_locals, d)
            f = fu.decode_blocks(subs["freqs_enc"][i].as_py(), df_i)
            p = fu.decode_blocks(subs["pos_enc"][i].as_py(), ttf_i)
            return d, f, p

        # FieldInvertState.maxTermFrequency / uniqueTermCount per doc,
        # accumulated while the entry stream feeds the encoder (same
        # values the sharded path computes at invert time)
        max_tf = np.zeros(n_docs, dtype=np.int64)
        uniq_terms = np.zeros(n_docs, dtype=np.int64)

        def entries():
            i, n = 0, len(terms)
            while i < n:
                j = i
                while j + 1 < n and terms[j + 1] == terms[i]:
                    j += 1
                if j == i:
                    d, f, p = _passthrough(i)
                else:  # head term: salt-order concat + re-encode
                    parts = [sub_arrays(x) for x in range(i, j + 1)]
                    d = np.concatenate([p[0] for p in parts])
                    f = np.concatenate([p[1] for p in parts])
                    p = np.concatenate([p[2] for p in parts])
                np.maximum.at(max_tf, d, f)
                np.add.at(uniq_terms, d, 1)
                yield (terms[i], d, f, p)
                i = j + 1

        def _passthrough(i):
            return sub_arrays(i)

        terms_plain = encode_term_table(entries(), norms_by_doc)
        terms_table = _prepend_field(terms_plain, "text")
        docs_table = pa.table({
            "doc_id": docrows["doc_id"],
            "url": docrows["url"],
            "length": pc.cast(docrows["length"], pa.int32()),
            "norm": pc.cast(docrows["norm"], pa.uint8()),
            "max_tf": pa.array(max_tf.astype(np.int32)),
            "unique_terms": pa.array(uniq_terms.astype(np.int32)),
        })
        lengths = docrows["length"].to_numpy()
        manifest = {
            "seg": seg,
            "doc_count": int(n_docs),
            "sum_total_term_freq": int(lengths.sum()),
            "sum_doc_freq": int(terms_plain["df"].to_numpy().sum())
            if terms_plain.num_rows else 0,
            "unique_terms": int(terms_plain.num_rows),
            "fields": {"text": field_stats_of(lengths, terms_plain)},
            "doc_id_min": int(docrows["doc_id"][0].as_py()) if n_docs else None,
            "doc_id_max": int(docrows["doc_id"][n_docs - 1].as_py())
            if n_docs else None,
            "lineage": {"source": lineage_source, "path": "grouped",
                        "segment_size": segment_size},
            "metrics": {"assemble_sec": round(time.monotonic() - t0, 4)},
        }
        man = write_segment(index_dir, split_postings(terms_table),
                            docs_table, manifest)
        return pa.table({"manifest": pa.array([json.dumps(man)], pa.string())})

    return assemble


def build_index_grouped(ds, index_dir: str, segment_size: int,
                        lineage_source: str = "",
                        salt_docs: int = DEFAULT_SALT_DOCS,
                        head_df_frac: float = DEFAULT_HEAD_DF_FRAC,
                        heads: set[str] | None = None,
                        analyzer=None) -> dict:
    """Full-shuffle build (see module docstring). Returns global manifest.

    ``analyzer`` is any object with ``analyze_flat`` (same slot as the
    other build paths); output stays file-identical to them for any
    analyzer because all three share the analyzer's token stream."""
    import json
    import os

    t0 = time.monotonic()
    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)
    done = completed_segments(index_dir)
    if heads is None:
        heads = estimate_head_terms(ds, head_df_frac=head_df_frac,
                                    analyzer=analyzer)

    def explode(batch: pa.Table) -> pa.Table:
        out = _explode(batch, segment_size, heads, salt_docs, analyzer)
        if done:
            mask = pc.invert(pc.is_in(
                out["seg"], value_set=pa.array(sorted(done), pa.int64())))
            out = out.filter(mask)
        return out

    import ray
    src = ds.select_columns(["doc_id", "url", "text"])
    # single-file corpora arrive as one block, which would serialize the
    # explode stage — split so every CPU gets work (at real scale the read
    # is many files/row-groups and this is a no-op-sized repartition)
    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    src = src.repartition(max(ncpu * 2, 16))
    # bounded batches: explode multiplies rows ~avg_doc_len×, so a batch's
    # output must fit the worker heap even for long pages (SURVEY §4 memory)
    exploded = src.map_batches(explode, batch_format="pyarrow",
                               batch_size=512)
    encoded = exploded.groupby(["seg", "term", "salt"]).map_groups(
        _encode_group, batch_format="pyarrow")
    out = encoded.groupby("seg").map_groups(
        make_assembler(index_dir, lineage_source, segment_size),
        batch_format="pyarrow")
    out_df = out.to_pandas()
    new_manifests = [json.loads(s) for s in out_df["manifest"].tolist()] \
        if "manifest" in out_df.columns else []
    segs = sorted(done | {m["seg"] for m in new_manifests})
    manifests = [read_seg_manifest(index_dir, s) for s in segs]
    return commit_index(index_dir, manifests, build_sec=time.monotonic() - t0,
                        analyzer_name=getattr(analyzer, "name", "standard")
                        if analyzer else "standard")
