"""Log-structured tiered merges of immutable segments.

The policy reimplements the *geometry* of ``TieredMergePolicy``
(``/root/reference/core/.../index/TieredMergePolicy.kt:66-91,225-232,
566-587``): segments are bucketed into tiers by size, an allowed segment
count is derived from the tier geometry (``segmentsPerTier`` per tier,
sizes floored at ``floor_docs``), and when over budget the policy picks the
candidate merge with the best (lowest) skew×size score. We measure size in
documents, not bytes — our segments are doc-count-balanced by construction,
so docs ∝ bytes. Segments may carry tombstones (hard and soft deletes,
reclaimed when a merge rewrites them), but the policy ignores them: size is
the manifest ``doc_count`` and the reference score's reclaim term is 1.

The merge itself is ``SegmentMerger.merge`` (``index/SegmentMerger.kt:
93-143``, docID remap ``DocIDMerger.kt:13-35``), record to record: per
field, one C pass unions the sources' sorted term runs (the
``MultiTermsEnum``) and a second reads each source's postings records,
maps their docIDs to the new segment's (dropping reclaimed docs) and
writes the merged records with fresh skip/impact block metadata straight
into the new postings files (the ``MappedMultiPostingsEnum`` pass).
Per-doc rows concatenate in the same order, so the merged segment is
bit-equivalent to one built from the union corpus; a source built
without some field gives its docs 0 in that field's per-doc columns.
tests/_ref_merge.py holds a per-term numpy merge that writes the same
bytes, the record merge's reference. Each merge runs as
one Ray task (the ConcurrentMergeScheduler worker analog,
``ConcurrentMergeScheduler.kt:77-142``) — merges are independent and fan
out in parallel; the caller commits the new manifest only after every
merge landed (two-phase, crash = old manifest intact).
"""

from __future__ import annotations

import collections
import functools
import json
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import forutil as fu
from .builder import commit_index
from .format import (DOCS_FILE, field_stats_of, postings_dictionary,
                     seg_dirname, top_stats, write_segment)

# TieredMergePolicy.kt defaults, re-based on docs (5GB/16MB ≈ 320:1 ratio
# preserved): segments under the floor count as floor-sized.
DEFAULT_SEGMENTS_PER_TIER = 10
DEFAULT_FLOOR_DOCS = 10_000
DEFAULT_MAX_MERGED_DOCS = 3_200_000
DEFAULT_MAX_MERGE_AT_ONCE = 10


def find_merges(segments: list[dict],
                segments_per_tier: int = DEFAULT_SEGMENTS_PER_TIER,
                floor_docs: int = DEFAULT_FLOOR_DOCS,
                max_merged_docs: int = DEFAULT_MAX_MERGED_DOCS,
                max_merge_at_once: int = DEFAULT_MAX_MERGE_AT_ONCE,
                ) -> list[list[int]]:
    """Plan merges over segment manifests → list of seg-id groups.

    Pure manifest math (no data touched), the ``findMerges`` analog
    (TieredMergePolicy.kt:266): compute the allowed segment count from tier
    geometry, then greedily pick the best-scored candidate among windows of
    the size-sorted segment list until within budget. Score = skew ×
    size^0.05 (lower is better, TieredMergePolicy.kt:566-587) where skew =
    max/(sum of floored sizes) — merging similar-sized segments wins.
    """
    live = [(m["seg"], max(m["doc_count"], 1)) for m in segments]
    total = sum(s for _, s in live)
    merges: list[list[int]] = []

    while True:
        # allowed count: levels of segments_per_tier from floor upward
        allowed, level_size, remaining = 0, float(floor_docs), float(total)
        while True:
            if remaining <= level_size * segments_per_tier:
                allowed += max(1, int(np.ceil(remaining / level_size)))
                break
            allowed += segments_per_tier
            remaining -= level_size * segments_per_tier
            level_size *= segments_per_tier
        # negative ids are this round's already-planned merges (in-flight
        # merges are not merge candidates, as in the reference's scheduler)
        eligible = [(seg, sz) for seg, sz in live
                    if seg >= 0 and sz < max_merged_docs]
        if len(live) <= allowed or len(eligible) < 2:
            return merges
        by_size = sorted(eligible, key=lambda t: (-t[1], t[0]))
        best, best_score = None, None
        for lo in range(len(by_size) - 1):
            cand, csum = [], 0
            for seg, sz in by_size[lo:]:
                if len(cand) >= max_merge_at_once or \
                        csum + sz > max_merged_docs:
                    break
                cand.append((seg, sz))
                csum += sz
            if len(cand) < 2:
                continue
            floored = [max(sz, floor_docs) for _, sz in cand]
            skew = max(floored) / sum(floored)
            score = skew * (csum ** 0.05)
            if best_score is None or score < best_score:
                best, best_score = cand, score
        if best is None:
            return merges
        merges.append(sorted(seg for seg, _ in best))
        merged_size = sum(sz for _, sz in best)
        chosen = set(seg for seg, _ in best)
        live = [(seg, sz) for seg, sz in live if seg not in chosen]
        live.append((-len(merges), merged_size))  # placeholder id


LEVEL_LOG_SPAN = 0.75  # LogMergePolicy.kt:699


def find_merges_log(segments: list[dict], merge_factor: int = 10,
                    min_merge_size: int = 1000,
                    max_merge_size: int | None = None,
                    size_key: str = "doc_count") -> list[list[int]]:
    """``LogMergePolicy.findMerges`` analog (LogMergePolicy.kt:490-658):
    quantize log_mergeFactor(size) into levels over segments in INDEX
    ORDER (adjacent merges preserve docID order — the Log policies'
    defining property vs Tiered), then record every run of mergeFactor
    same-level segments as one merge; under-min-size full windows keep
    packing (kt:633-648); an oversize segment becomes a skipped
    singleton (kt:616-625). ``size_key``: 'doc_count' =
    LogDocMergePolicy (DEFAULT_MIN_MERGE_DOCS=1000,
    LogDocMergePolicy.kt:47), 'sum_total_term_freq' = postings-volume
    size, the LogByteSizeMergePolicy role over this format."""
    import math

    if merge_factor < 2:
        raise ValueError("mergeFactor cannot be less than 2")
    if max_merge_size is None:
        max_merge_size = 2**31 - 1
    infos = [(m["seg"], max(int(m[size_key]), 1)) for m in segments]
    n = len(infos)
    norm = math.log(merge_factor)
    levels = [math.log(sz) / norm for _, sz in infos]
    level_floor = 0.0 if min_merge_size <= 0 \
        else math.log(min_merge_size) / norm
    max_levels = [0.0] * (n + 1)
    max_levels[n] = -1.0
    for i in range(n - 1, -1, -1):
        max_levels[i] = max(levels[i], max_levels[i + 1])

    merges: list[list[int]] = []
    start = 0
    while start < n:
        max_level = max_levels[start]
        if max_level > level_floor:
            level_bottom = max_level - LEVEL_LOG_SPAN
        else:
            level_bottom = max_level - 2 * LEVEL_LOG_SPAN
        upto = n - 1
        while upto >= start and levels[upto] < level_bottom:
            upto -= 1
        end = start + merge_factor
        while end <= 1 + upto:
            merge_size = 0
            i = start
            while i < end:
                sz = infos[i][1]
                if merge_size + sz > max_merge_size:
                    # kt:616-625 — singleton too large is skipped; else
                    # close the merge before this segment
                    end = i + 1 if i == start else i
                    break
                merge_size += sz
                i += 1
            if end - start >= merge_factor and \
                    min_merge_size < max_merge_size and \
                    merge_size < min_merge_size:
                # full window still under the floor: keep packing
                while end < 1 + upto:
                    sz = infos[end][1]
                    if merge_size + sz > min_merge_size:
                        break
                    merge_size += sz
                    end += 1
            if end - start > 1:  # no singleton merges (kt:652)
                merges.append([seg for seg, _ in infos[start:end]])
            start = end
            end = start + merge_factor
        start = 1 + upto
    return merges


def merge_segments(index_dir: str, segs: list[int], new_seg: int,
                   soft_deletes_field: str | None = None,
                   retention=None) -> dict:
    """k-way merge ``segs`` → one new segment ``new_seg`` (pure, no Ray).

    Reads the source segments' doc tables, rebases local docIDs by
    cumulative doc bases (segment order = ascending seg id, the addIndexes
    ordering), merges the postings record to record (``_merge_records``:
    each term's source records decode, remap and re-encode with fresh
    skip/impact metadata in one C pass, written as they are), and
    atomically writes the new segment directory. Sources may index
    different field sets (``_concat_doc_tables``).

    The manifest's ``metrics`` time the phases: ``read_sec`` the doc
    tables and opening the sources, ``vocab_sec`` the term union,
    ``postings_sec`` the record kernel (decode and encode fused),
    ``encode_sec`` the dictionary's assembly, ``merge_sec`` the whole
    merge before the files are written.

    ``soft_deletes_field``: treat docs with a value in that field as
    deleted for reclaim purposes (PendingSoftDeletes.kt — merges reclaim
    soft deletes like hard ones). ``retention`` (a vectorized predicate
    ``docs_table -> bool ndarray``, the batch form of the retention
    Query) exempts matching soft-deleted docs from reclaim and carries
    their marker into the merged segment —
    SoftDeletesRetentionMergePolicy.kt's applyRetentionQuery contract.
    """
    t0 = time.monotonic()
    segs = sorted(segs)
    dirs = [os.path.join(index_dir, "segments", seg_dirname(s)) for s in segs]
    from .dvupdates import apply_updates
    doc_tables = [apply_updates(d, pq.read_table(os.path.join(d, DOCS_FILE)))
                  for d in dirs]
    read_sec = time.monotonic() - t0
    # ^ doc-values update generations bake into the merged segment and
    # the dv_* files die with the old dirs (Lucene's merge resolution)
    # source si's docs are rows bounds[si]..bounds[si+1] of the concat
    bounds = np.append(0, np.cumsum([t.num_rows for t in doc_tables]))
    bases = bounds[:-1]
    concat_all = _concat_doc_tables(doc_tables)
    n_all = concat_all.num_rows

    # tombstone reclaim (the DocIDMerger deleted-doc skip,
    # DocIDMerger.kt:13-35): deleted rows drop here and their postings
    # entries drop below; the merged segment carries no tombstones
    from .deletes import read_tombstones
    keep_concat = np.ones(n_all, dtype=bool)
    reclaimed = 0
    # (concat position, marker value) of retention-exempt soft deletes:
    # they survive the merge still soft-deleted
    soft_carry: list[tuple[int, int]] = []
    for si, d in enumerate(dirs):
        tomb = read_tombstones(d)
        if tomb is not None and len(tomb):
            keep_concat[tomb + bases[si]] = False
            reclaimed += len(tomb)
        if soft_deletes_field:
            from .softdeletes import soft_deleted_values
            soft, svals = soft_deleted_values(d, soft_deletes_field)
            if len(soft):
                if retention is not None:
                    keep = np.asarray(retention(doc_tables[si]), dtype=bool)
                    exempt = keep[soft]
                else:
                    exempt = np.zeros(len(soft), dtype=bool)
                drop = soft[~exempt]
                newly = keep_concat[drop + bases[si]].sum()
                keep_concat[drop + bases[si]] = False
                reclaimed += int(newly)
                for lid, v in zip(soft[exempt], svals[exempt]):
                    soft_carry.append((int(lid + bases[si]), int(v)))
    live_pos = np.flatnonzero(keep_concat)
    concat_docs = concat_all.take(pa.array(live_pos)) \
        if reclaimed else concat_all
    n_docs = concat_docs.num_rows

    # The merged doc table must stay doc_id-ascending (row N == local docID
    # N; readers binary-search doc_id and manifests record min/max), but
    # after one merge round segment doc ranges interleave — so docIDs remap
    # through the sort permutation, the SortingCodecReader role
    # (index/SortingCodecReader.kt; DocIDMerger.kt handles the id rebase).
    # vector sidecars ride the same permutation (KnnVectorsFormat merge)
    vec_paths = [os.path.join(d, "vectors.parquet") for d in dirs]
    vectors_table = None
    if any(os.path.exists(p) for p in vec_paths):
        # Mixed presence (e.g. add_indexes of a vector-less index into a
        # vector index) must NOT silently drop vectors: vector-less
        # segments contribute NULL rows (Lucene's docs-without-the-field
        # case; the reader masks them out of KNN), so existing vectors
        # survive every merge.
        have = [pq.read_table(p) if os.path.exists(p) else None
                for p in vec_paths]
        vec_type = next(t.schema.field("embedding").type
                        for t in have if t is not None)
        parts = []
        for t, dt in zip(have, doc_tables):
            if t is None:
                parts.append(pa.table(
                    {"embedding": pa.nulls(dt.num_rows, vec_type)}))
            else:
                parts.append(t)
        concat_vecs = pa.concat_tables(parts).combine_chunks()
        if reclaimed:
            concat_vecs = concat_vecs.take(pa.array(live_pos))
        vectors_table = concat_vecs

    # index-sorted segments stay sorted through the merge (Sorter.kt /
    # MergeState.docMaps: the merged order comes from the sort keys, not
    # from docID concatenation); all sources must agree on the sort
    src_manifests = []
    for d in dirs:
        with open(os.path.join(d, "manifest.json")) as f:
            src_manifests.append(json.load(f))
    sort_specs = [m.get("index_sort") for m in src_manifests]
    index_sort = sort_specs[0]
    if any(s != index_sort for s in sort_specs[1:]):
        raise ValueError(f"cannot merge segments with differing index "
                         f"sorts: {sort_specs}")
    doc_ids = concat_docs["doc_id"].to_numpy()
    if index_sort:
        keys = [(f, "descending" if desc else "ascending")
                for f, desc in index_sort] + [("doc_id", "ascending")]
        perm = pc.sort_indices(concat_docs, sort_keys=keys).to_numpy() \
            .astype(np.int64)
    else:
        perm = np.argsort(doc_ids, kind="stable")
    inv_perm_live = np.empty(n_docs, dtype=np.int64)
    inv_perm_live[perm] = np.arange(n_docs)
    # old global concat position → new local id, -1 = reclaimed
    inv_perm = np.full(n_all, -1, dtype=np.int64)
    inv_perm[live_pos] = inv_perm_live
    identity = np.array_equal(perm, np.arange(n_docs))
    docs_table = concat_docs if identity else concat_docs.take(pa.array(perm))
    if vectors_table is not None and not identity:
        vectors_table = vectors_table.take(pa.array(perm))

    terms, field_stats, phases = _merge_records(dirs, bounds, inv_perm,
                                                docs_table)
    read_sec += phases.pop("read_sec")
    manifest = {
        "seg": int(new_seg),
        "doc_count": int(n_docs),
        **top_stats(field_stats),
        "fields": field_stats,
        "index_sort": index_sort,
        "doc_id_min": int(docs_table["doc_id"].to_numpy().min())
        if n_docs else None,
        "doc_id_max": int(docs_table["doc_id"].to_numpy().max())
        if n_docs else None,
        "lineage": {"merged_from": sorted(int(s) for s in segs),
                    "reclaimed_deletes": reclaimed},
        "metrics": {"merge_sec": round(time.monotonic() - t0, 4),
                    "read_sec": round(read_sec, 4),
                    **{k: round(v, 4) for k, v in phases.items()}},
    }
    # HNSW sidecars do not merge structurally — the merged segment's
    # graph REBUILDS over the merged vectors (Lucene's vector-format
    # merge also reconstructs the graph; params from the first source
    # that had one)
    graph_table = None
    hnsw_params = next((m.get("hnsw") for m in src_manifests
                        if m.get("hnsw")), None)
    if hnsw_params and vectors_table is not None and vectors_table.num_rows:
        from .format import build_hnsw_sidecar
        graph_table, hmeta = build_hnsw_sidecar(
            vectors_table, {k: hnsw_params[k]
                            for k in ("m", "ef_construction", "seed")
                            if k in hnsw_params})
        manifest["hnsw"] = hmeta
    # int8 quantized sidecars REBUILD over the merged vectors with the
    # (global, so shared) quantize params of the first source that had
    # them — Lucene's quantized-format merge also requantizes (the
    # recalculateCorrectiveOffset path, ScalarQuantizer.kt:124-141);
    # with engine-global bounds the requantization is byte-identical
    qvectors_table = None
    q_params = next((m.get("quantize") for m in src_manifests
                     if m.get("quantize")), None)
    if q_params and vectors_table is not None and vectors_table.num_rows:
        from .format import build_quantized_sidecar
        qvectors_table, qmeta = build_quantized_sidecar(vectors_table,
                                                        q_params)
        manifest["quantize"] = qmeta
    # term-vector sidecars CONCAT through the merge: rows carry GLOBAL
    # doc ids (merge-stable), so the merged sidecar is the live-doc
    # union re-sorted by doc_id (SegmentMerger.mergeTermVectors role —
    # per-doc payloads copy over; deleted docs' rows drop). Sources
    # without the sidecar contribute nothing (per-doc FieldType
    # variation: term vectors exist only for docs indexed with them).
    tvectors_table = None
    from .format import TVECTORS_FILE
    tv_paths = [os.path.join(d, TVECTORS_FILE) for d in dirs]
    tv_have = [pq.read_table(p) for p in tv_paths if os.path.exists(p)]
    if tv_have:
        tvectors_table = pa.concat_tables(tv_have).combine_chunks()
        if reclaimed:
            live_ids = docs_table["doc_id"].combine_chunks()
            tvectors_table = tvectors_table.filter(
                pc.is_in(tvectors_table["doc_id"], value_set=live_ids))
        tvectors_table = tvectors_table.sort_by(
            [("doc_id", "ascending"), ("field", "ascending"),
             ("term", "ascending")])
        manifest["term_vectors"] = True
    # carry the bloom sidecar forward: if ANY source segment had one,
    # the merged segment gets a fresh filter over its merged vocabulary
    # (BloomFilteringPostingsFormat writes a new filter per merge too)
    from .bloom import BLOOM_FILE as _BLOOM_FILE
    merged_bloom = any(os.path.exists(os.path.join(d, _BLOOM_FILE))
                       for d in dirs)
    out = write_segment(index_dir, terms, docs_table, manifest,
                        vectors_table, graph_table, qvectors_table,
                        tvectors_table, bloom=merged_bloom)
    if soft_carry:
        # retention-exempt docs re-mark in the NEW segment (their concat
        # positions map through the docID permutation); idempotent on
        # retry — a duplicate generation re-asserts the same values
        from .dvupdates import _write_gen
        new_dir = os.path.join(index_dir, "segments", seg_dirname(new_seg))
        pos = np.array([p for p, _ in soft_carry], dtype=np.int64)
        new_ids = inv_perm[pos]
        vals = np.array([v for _, v in soft_carry], dtype=np.int64)
        live = new_ids >= 0
        order = np.argsort(new_ids[live])
        _write_gen(new_dir, soft_deletes_field, new_ids[live][order],
                   vals[live][order])
    return out


# a field's per-doc columns in a docs table ("text" has no suffix)
_FIELD_DOC_COL = re.compile(r"(length|norm|max_tf|unique_terms)(_.+)?")


def _concat_doc_tables(tables: list[pa.Table]) -> pa.Table:
    """The sources' doc tables as one, in order. A source built without
    some field gets 0 in that field's per-doc columns (length, norm,
    max_tf, unique_terms), as Lucene's merged FieldInfos leave such a
    doc without norms or terms, so ``field_stats_of`` counts only docs
    that have the field; any other column it lacks is null."""
    out = pa.concat_tables(tables, promote_options="default").combine_chunks()
    for i, name in enumerate(out.column_names):
        col = out.column(i)
        if col.null_count and _FIELD_DOC_COL.fullmatch(name):
            out = out.set_column(i, name, pc.fill_null(col, 0))
    return out


def _merge_records(dirs: list[str], bounds: np.ndarray, inv_perm: np.ndarray,
                   docs_table: pa.Table):
    """The record-to-record merge (Lucene's ``SegmentMerger``: a
    ``MultiTermsEnum`` over the sorted source dictionaries, then one
    ``MappedMultiPostingsEnum`` pass per term from source records to the
    new record), one pair of C calls per field: ``cfor.merge_terms``
    unions the sources' sorted term runs, ``cfor.merge_postings`` reads
    each holding source's ``.doc`` / ``.pos`` record, maps its docs
    through ``inv_perm`` (dropping reclaimed ones) and writes the merged
    record with the record writer the flush uses. Returns ``((dictionary,
    postings.doc, postings.pos), field_stats, phase seconds)``: no
    logical terms table is built. Phases: ``read_sec`` opens the
    sources, ``vocab_sec`` is ``merge_terms``, ``postings_sec`` the
    fused decode and encode of ``merge_postings``, ``encode_sec`` the
    dictionary's assembly."""
    from ..util import cfor
    from .postings import SegmentPostings, field_ranges

    def ends(ptr, lo, hi, size):  # rows' pointers + the last one's end
        return np.append(ptr[lo:hi], ptr[hi] if hi < len(ptr) else size)

    t0 = time.monotonic()
    srcs = []
    doc_cap = pos_cap = 0
    for si, d in enumerate(dirs):
        sp = SegmentPostings(d)
        srcs.append(_Source(sp, sp.dictionary["term"].combine_chunks(),
                            field_ranges(sp.dictionary),
                            sp.doc.read(0, sp.doc.size),
                            sp.pos.read(0, sp.pos.size),
                            inv_perm[bounds[si]:bounds[si + 1]]))
        # output bound: a block takes at most 1 + 8 * count bytes, a
        # merged term has at most its sources' entries and blocks. A
        # record's bytes hold at most 128 values each (a width-0 block):
        # capped so, a corrupt df / ttf, which merge_postings rejects,
        # cannot overflow the bound first
        n = len(sp.df)
        df, ttf = (np.minimum(c, fu.BLOCK_SIZE * np.clip(
            np.diff(ends(ptr, 0, n, f.size)), 0, f.size)).astype(np.int64)
            for c, ptr, f in ((sp.df, sp.doc_ptr, sp.doc),
                              (sp.ttf, sp.pos_ptr, sp.pos)))
        doc_cap += int((16 * df + 14 * -(-df // fu.BLOCK_SIZE)).sum())
        pos_cap += int((8 * ttf - (-ttf // fu.BLOCK_SIZE)).sum())
    out_doc = np.empty(doc_cap, np.uint8)
    out_pos = np.empty(pos_cap, np.uint8)
    io = np.array([0, doc_cap, 0, pos_cap], np.int64)
    phases = {"read_sec": time.monotonic() - t0, "vocab_sec": 0.0,
              "postings_sec": 0.0, "encode_sec": 0.0}

    parts, field_stats = [], {}
    for fld in sorted(set().union(*(s.runs for s in srcs))):
        held = [(s, *s.runs[fld]) for s in srcs if fld in s.runs]
        t1 = time.monotonic()
        codes, first = cfor.merge_terms([(s.terms, lo, hi)
                                         for s, lo, hi in held])
        t2 = time.monotonic()
        sources, at = [], 0
        for s, lo, hi in held:
            sp = s.postings
            sources.append((s.doc, s.pos,
                            ends(sp.doc_ptr, lo, hi, s.doc.size),
                            ends(sp.pos_ptr, lo, hi, s.pos.size),
                            sp.df[lo:hi], sp.ttf[lo:hi],
                            codes[at:at + hi - lo], s.inv))
            at += hi - lo
        ncol = "norm" if fld == "text" else f"norm_{fld}"
        stats = cfor.merge_postings(sources, len(first),
                                    docs_table[ncol].to_numpy(), out_doc,
                                    out_pos, io)
        t3 = time.monotonic()
        live = stats[0] > 0  # a term whose postings were reclaimed drops
        if not live.all():
            first, stats = first[live], stats[:, live]
        if len(first):
            terms = pa.chunked_array(
                [s.terms.slice(lo, hi - lo) for s, lo, hi in held],
                pa.string()).take(pa.array(first))
            parts.append((fld, terms, stats))
            lcol = "length" if fld == "text" else f"length_{fld}"
            field_stats[fld] = field_stats_of(
                docs_table[lcol].to_numpy().astype(np.int64), stats[0])
        phases["vocab_sec"] += t2 - t1
        phases["postings_sec"] += t3 - t2
        phases["encode_sec"] += time.monotonic() - t3
    t4 = time.monotonic()
    dictionary = postings_dictionary(parts)
    phases["encode_sec"] += time.monotonic() - t4
    return (dictionary, out_doc[:io[0]], out_pos[:io[2]]), field_stats, \
        phases


# a source of the record merge: its SegmentPostings, term column,
# {field: (lo, hi)} row runs, whole .doc / .pos buffers and doc map
_Source = collections.namedtuple("_Source",
                                 "postings terms runs doc pos inv")


MERGE_POLICIES = {
    "tiered": find_merges,                       # TieredMergePolicy
    "log_doc": find_merges_log,                  # LogDocMergePolicy
    "log_size": lambda segs, **kw: find_merges_log(
        segs, size_key="sum_total_term_freq", **kw),  # LogByteSize role
    "none": lambda segs, **kw: [],               # NoMergePolicy.kt
}


def _merge_json(index_dir: str, segs: list[int], new_seg: int,
                soft_deletes_field: str | None, retention) -> str:
    """One merge as a Ray task body (the new segment's manifest as JSON)."""
    return json.dumps(merge_segments(index_dir, segs, new_seg,
                                     soft_deletes_field, retention))


@functools.cache
def _merge_task():
    """The merge task, made once per process: a remote function Ray
    pickles and exports once, not once per ``run_merges`` call."""
    import ray
    return ray.remote(_merge_json)


def run_merges(index_dir: str, merges: list[list[int]] | None = None,
               delete_merged: bool = True, policy: str = "tiered",
               deletion_policy=None, soft_deletes_field: str | None = None,
               retention=None, **policy_kw) -> dict:
    """Execute one round of merges (parallel Ray tasks) + commit.

    ``merges=None`` plans via the named ``policy`` (MERGE_POLICIES:
    'tiered' | 'log_doc' | 'log_size' | 'none' — the MergePolicy
    extension surface) on the current manifest. New segments get ids
    above the current max. Returns the new global manifest; source
    segment dirs are removed after the commit (the IndexFileDeleter
    role — files unreferenced by the live manifest).
    """
    import ray

    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    seg_metas = {m["seg"]: m for m in manifest["segments"]}
    if merges is None:
        merges = MERGE_POLICIES[policy](manifest["segments"], **policy_kw)
    if not merges:
        return manifest
    next_seg = max(seg_metas) + 1

    do_merge = _merge_task()
    jobs = [(group, next_seg + i) for i, group in enumerate(merges)]
    new_manifests = [json.loads(s) for s in ray.get(
        [do_merge.remote(index_dir, g, ns, soft_deletes_field, retention)
         for g, ns in jobs])]

    merged_away = {s for g, _ in jobs for s in g}
    survivors = [seg_metas[s] for s in sorted(seg_metas)
                 if s not in merged_away]
    all_metas = survivors + new_manifests
    # carry the analyzer through the re-commit: an EnglishAnalyzer index
    # must not silently become "standard" (query-side analyzer selection
    # reads the manifest)
    out = commit_index(index_dir, all_metas,
                       analyzer_name=manifest.get("analyzer", "standard"))
    if delete_merged:
        # IndexFileDeleter semantics: only segment dirs referenced by NO
        # retained commit die — with the default KeepOnlyLastCommit
        # policy that is exactly the merged-away set; a KeepLastN /
        # Snapshot policy keeps them reachable for point-in-time readers
        from .commits import apply_deletion_policy
        apply_deletion_policy(index_dir, deletion_policy)
    return out


def add_indexes(dest_dir: str, src_dirs: list[str]) -> dict:
    """Bulk union of whole indexes (``IndexWriter.addIndexes``,
    ``index/IndexWriter.kt:3040``): source segment directories are copied
    under fresh segment ids and the destination manifest re-commits over
    the union. Segments stay immutable; global stats re-aggregate. Sources
    must not share doc_ids with the destination (doc_id is the global
    corpus key; the caller owns key disjointness, exactly as Lucene callers
    own de-duplication across added indexes)."""
    with open(os.path.join(dest_dir, "manifest.json")) as f:
        manifest = json.load(f)
    metas = {m["seg"]: m for m in manifest["segments"]}
    next_seg = max(metas, default=-1) + 1
    all_metas = [metas[s] for s in sorted(metas)]
    for src in src_dirs:
        with open(os.path.join(src, "manifest.json")) as f:
            sman = json.load(f)
        for m in sorted(sman["segments"], key=lambda m: m["seg"]):
            dst = os.path.join(dest_dir, "segments", seg_dirname(next_seg))
            shutil.copytree(os.path.join(src, m["dir"]), dst)
            # rewrite the copied segment manifest's id for lineage coherence
            with open(os.path.join(dst, "manifest.json")) as f:
                seg_man = json.load(f)
            seg_man["lineage"] = {"added_from": src,
                                  "src_seg": m["seg"],
                                  **seg_man.get("lineage", {})}
            seg_man["seg"] = next_seg
            with open(os.path.join(dst, "manifest.json"), "w") as f:
                json.dump(seg_man, f)
            all_metas.append({k: seg_man[k] for k in
                              ("seg", "doc_count", "sum_total_term_freq",
                               "sum_doc_freq", "unique_terms", "doc_id_min",
                               "doc_id_max")})
            next_seg += 1
    return commit_index(dest_dir, all_metas,
                        analyzer_name=manifest.get("analyzer", "standard"))


def force_merge(index_dir: str, max_segments: int = 1) -> dict:
    """``IndexWriter.forceMerge`` analog: merge down to ≤ max_segments."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        manifest = json.load(f)
    segs = sorted(m["seg"] for m in manifest["segments"])
    if len(segs) <= max_segments:
        return manifest
    groups = [list(g) for g in np.array_split(np.array(segs), max_segments)
              if len(g) >= 2]
    groups = [[int(s) for s in g] for g in groups]
    return run_merges(index_dir, merges=groups)
