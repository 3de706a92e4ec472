"""Distributed index build: Ray Data pipeline → immutable segments + manifest.

Shape (SURVEY §3.1 "→ Ray Data shape"): corpus Dataset → assign segment ids →
``groupby("seg").map_groups(build one segment)`` → per-segment atomic commit →
driver writes the global manifest last (the ``segments_N`` two-phase commit,
IndexWriter.kt:4292 analog).

Scale notes (designed for 10^12 docs / 256 nodes, tested single-node):

- The ONLY wide shuffle is the groupby on ``seg`` — document-count balanced by
  construction (seg = doc_id // segment_size), so no Zipf skew: the classic
  head-term problem of a groupby-*term* build never arises because inversion
  happens *within* a segment group, in memory, exactly like a Lucene DWPT.
  At production scale, when the corpus is already laid out one-file-per-shard,
  pass ``seg_from="file"`` semantics instead (segment == input file) and the
  shuffle disappears entirely.
- A segment (docs text + postings) must fit one worker's heap: size
  ``segment_size`` so segment text ≈ 100-500 MB. Ray's sort-based groupby
  spills to the object store, so the shuffle itself streams.
- Prefer SMALL flush segments + tiered merges over big monolithic ones:
  per-task inversion dilates badly once its working set falls out of
  cache under concurrency (measured 7.6× at 20×50k-doc tasks on one
  node; BASELINE.md "Segment sizing"). 5k-doc flushes + merge to the
  50k-doc target reached the same geometry ~16× faster — exactly the
  reference's 16 MB DWPT flush + TieredMergePolicy design.
- Resume: segments whose manifest exists are skipped at the *read* (filtered
  before the shuffle), and the per-segment write is atomic (tmp dir + rename)
  — a failed run redoes only unfinished segments (north rule lineage).
- Global term stats (df/ttf summed over segments — the TermStates/
  CollectionStatistics resolution of IndexSearcher, SURVEY §2.4) are a
  groupby over per-segment term rows: vocabulary-sized, i.e. tiny relative
  to postings, and already pre-aggregated per segment (combiner pattern).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .format import (SEG_MANIFEST, TERMS_ROW_GROUP, build_and_write_segment,
                     read_seg_manifest, seg_dirname)

INDEX_MANIFEST = "manifest.json"
TERM_STATS_FILE = "term_stats.parquet"   # legacy single-file layout
TERM_STATS_DIR = "term_stats"            # sharded layout (shard=NNNN.parquet)
TERMS_PER_SHARD = 2_000_000              # target vocabulary rows per shard
DEFAULT_SEGMENT_SIZE = 100_000


def term_stats_location(index_dir: str) -> str:
    """Path of the committed global term stats: the sharded directory
    when present, else the legacy single file (old indexes)."""
    d = os.path.join(index_dir, TERM_STATS_DIR)
    return d if os.path.isdir(d) else os.path.join(index_dir,
                                                   TERM_STATS_FILE)


def term_shard(terms, n_shards: int) -> np.ndarray:
    """Stable shard id per term: crc32(utf-8) mod n_shards — identical in
    the writer (partition assignment) and the reader (shard lookup);
    deterministic across processes, unlike Python's hash()."""
    import zlib
    return np.fromiter((zlib.crc32(t.encode("utf-8")) % n_shards
                        for t in terms), dtype=np.int64, count=len(terms))


def completed_segments(index_dir: str) -> set[int]:
    seg_root = os.path.join(index_dir, "segments")
    done = set()
    if os.path.isdir(seg_root):
        for name in os.listdir(seg_root):
            if name.startswith("seg=") and ".tmp" not in name and \
                    os.path.exists(os.path.join(seg_root, name, SEG_MANIFEST)):
                done.add(int(name.split("=")[1]))
    return done


def build_index(ds, index_dir: str, segment_size: int = DEFAULT_SEGMENT_SIZE,
                lineage_source: str = "", analyzer=None,
                fields: tuple[str, ...] = ("text",),
                vector_col: str | None = None,
                meta_cols: tuple[str, ...] = (),
                index_sort: tuple[tuple[str, bool], ...] | None = None,
                hnsw: dict | None = None,
                quantize: dict | None = None,
                store_term_vectors: bool = False,
                bloom: bool = False) -> dict:
    """Build (or resume) an index from a corpus Dataset with
    ``doc_id, url`` plus one column per indexed field (default just
    ``text``; pass ``fields=("text", "title")`` for fielded documents,
    Document.kt:20). Returns the global manifest dict.

    ``doc_id`` must be a dense-enough int key whose order defines docIDs;
    ``seg = doc_id // segment_size`` and local docID = rank within segment.
    """
    t0 = time.monotonic()
    fields = tuple(sorted(fields))
    if index_sort:  # sort keys must land in the docs table
        meta_cols = tuple(meta_cols) + tuple(
            f for f, _ in index_sort
            if f not in ("doc_id", "url") and f not in meta_cols)
    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)
    done = completed_segments(index_dir)

    def assign_seg(batch: pa.Table) -> pa.Table:
        seg = pc.divide(batch["doc_id"], segment_size)
        batch = batch.append_column("seg", pc.cast(seg, pa.int64()))
        if done:  # resume: drop rows of already-committed segments
            mask = pc.invert(pc.is_in(
                batch["seg"], value_set=pa.array(sorted(done), pa.int64())))
            batch = batch.filter(mask)
        return batch

    def build_group(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({"manifest": pa.array([], pa.string())})
        seg = int(group["seg"][0].as_py())
        lineage = {"source": lineage_source, "segment_size": segment_size,
                   "rows": group.num_rows}
        cols = ["doc_id", "url", *fields] + \
            ([vector_col] if vector_col else []) + list(meta_cols)
        man = build_and_write_segment(
            group.select(cols), seg, index_dir,
            lineage, analyzer=analyzer, fields=fields,
            vector_col=vector_col, meta_cols=meta_cols,
            index_sort=index_sort, hnsw=hnsw, quantize=quantize,
            store_term_vectors=store_term_vectors, bloom=bloom)
        return pa.table({"manifest": pa.array([json.dumps(man)], pa.string())})

    ds = ds.select_columns(["doc_id", "url", *fields] +
                           ([vector_col] if vector_col else []) +
                           list(meta_cols)) \
           .map_batches(assign_seg, batch_format="pyarrow")
    out = ds.groupby("seg").map_groups(build_group, batch_format="pyarrow")
    out_df = out.to_pandas()  # one tiny manifest row per segment
    new_manifests = [json.loads(s) for s in out_df["manifest"].tolist()] \
        if "manifest" in out_df.columns else []

    # gather all segment manifests (resumed + new) and commit globally
    segs = sorted(done | {m["seg"] for m in new_manifests})
    manifests = [read_seg_manifest(index_dir, s) for s in segs]
    return commit_index(index_dir, manifests, build_sec=time.monotonic() - t0,
                        analyzer_name=_aname(analyzer))


def _aname(analyzer) -> str:
    return getattr(analyzer, "name", "standard") if analyzer else "standard"


def build_index_sharded(shards: list[dict], make_docs, index_dir: str,
                        lineage_source: str = "",
                        max_in_flight: int | None = None,
                        analyzer=None,
                        fields: tuple[str, ...] = ("text",),
                        vector_col: str | None = None,
                        index_sort: tuple[tuple[str, bool], ...] | None =
                        None,
                        hnsw: dict | None = None,
                        quantize: dict | None = None,
                        store_term_vectors: bool = False,
                        bloom: bool = False) -> dict:
    """Shuffle-free build: one Ray task per shard, segment == shard.

    This is the production path (and the Lucene DWPT model: each writer
    builds its own segment from its own slice of the corpus,
    DocumentsWriterPerThreadPool.kt:20-116 — zero cross-task coordination
    until the commit). ``shards`` is a list of dicts each carrying at least
    ``seg``; ``make_docs(spec) -> pa.Table(doc_id, url, text)`` loads one
    shard deterministically (at web scale: one input Parquet file / row-group
    range per shard — docIDs derive from file order, never from Ray
    scheduling).

    Execution is raw ``@ray.remote`` fan-out with a windowed ``ray.wait``
    in-flight cap — deliberately NOT a Dataset: there is no dataflow here
    (inputs are spec dicts, outputs are manifest paths on disk; the only
    thing moving through the object store is a manifest JSON per segment),
    and Ray Data's per-task block machinery adds ~40ms/task of pure overhead
    to what is an embarrassingly-parallel job scheduler. The window is the
    DocumentsWriterStallControl backpressure analog
    (DocumentsWriterStallControl.kt:25-47). Retries are safe: the
    per-segment write is atomic + idempotent (skip-if-committed).
    """
    import ray

    t0 = time.monotonic()
    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)
    done = completed_segments(index_dir)
    todo = [s for s in shards if s["seg"] not in done]
    if max_in_flight is None:
        max_in_flight = int(ray.cluster_resources().get("CPU", 8)) * 2

    @ray.remote
    def build_shard(spec: dict) -> str:
        lineage = {"source": lineage_source, **spec}
        man = build_and_write_segment(make_docs(spec), spec["seg"],
                                      index_dir, lineage, analyzer=analyzer,
                                      fields=fields, vector_col=vector_col,
                                      index_sort=index_sort, hnsw=hnsw,
                                      quantize=quantize,
                                      store_term_vectors=store_term_vectors,
                                      bloom=bloom)
        return json.dumps(man)

    pending: list = []
    for spec in todo:
        if len(pending) >= max_in_flight:
            ready, pending = ray.wait(pending, num_returns=1)
            ray.get(ready)
        pending.append(build_shard.remote(spec))
    ray.get(pending)

    segs = sorted(done | {s["seg"] for s in todo})
    manifests = [read_seg_manifest(index_dir, s) for s in segs]
    return commit_index(index_dir, manifests, build_sec=time.monotonic() - t0,
                        analyzer_name=_aname(analyzer))


def commit_index(index_dir: str, manifests: list[dict],
                 build_sec: float | None = None,
                 analyzer_name: str = "standard") -> dict:
    """Write global term stats + manifest (phase 2 of the two-phase commit).

    Per-field collection stats aggregate across segments under ``fields``
    (the CollectionStatistics per field, SURVEY §2.4); the top-level stats
    stay the text field's for back-compat.
    """
    ts_shards = _write_term_stats(index_dir, manifests)
    field_stats: dict[str, dict] = {}
    for m in manifests:
        # old manifests (pre-field) carry only top-level text stats
        per = m.get("fields") or {"text": {
            "doc_count": m["doc_count"],
            "sum_total_term_freq": m["sum_total_term_freq"],
            "sum_doc_freq": m["sum_doc_freq"],
            "unique_terms": m.get("unique_terms", 0)}}
        for f, s in per.items():
            acc = field_stats.setdefault(f, {"doc_count": 0,
                                             "sum_total_term_freq": 0,
                                             "sum_doc_freq": 0})
            acc["doc_count"] += s["doc_count"]
            acc["sum_total_term_freq"] += s["sum_total_term_freq"]
            acc["sum_doc_freq"] += s["sum_doc_freq"]
    manifest = {
        "version": 2,
        "field": "text",
        "analyzer": analyzer_name,
        "doc_count": sum(m["doc_count"] for m in manifests),
        "sum_total_term_freq": sum(m["sum_total_term_freq"] for m in manifests),
        "sum_doc_freq": sum(m["sum_doc_freq"] for m in manifests),
        "term_stats_shards": ts_shards,
        "fields": field_stats,
        "segments": [{k: m.get(k) for k in
                      ("seg", "doc_count", "sum_total_term_freq",
                       "sum_doc_freq", "unique_terms", "doc_id_min",
                       "doc_id_max", "index_sort", "term_vectors")}
                     | {"dir": f"segments/{seg_dirname(m['seg'])}"}
                     for m in manifests],
        "metrics": {"build_sec": round(build_sec, 3) if build_sec else None},
    }
    # commit-point generation (segments_N role, index/commits.py): the
    # immutable generation file lands BEFORE the manifest pointer flips
    from .commits import record_commit
    record_commit(index_dir, manifest)
    tmp = os.path.join(index_dir, INDEX_MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, INDEX_MANIFEST))
    return manifest


def _read_seg_term_stats(index_dir: str, seg: int) -> pa.Table:
    """One segment's (field, term, df, ttf); legacy tables (no field
    column) read as field='text'."""
    import pyarrow.parquet as pq
    path = os.path.join(index_dir, "segments", seg_dirname(seg),
                        "terms.parquet")
    cols = {f.name for f in pq.read_schema(path)}
    t = pq.read_table(path, columns=[c for c in ("field", "term", "df", "ttf")
                                     if c in cols])
    # df/ttf are int32 in the flat-postings dictionary, int64 before it
    t = t.cast(pa.schema([f.with_type(pa.int64()) if f.name in ("df", "ttf")
                          else f for f in t.schema]))
    if "field" in cols:
        return t
    return t.add_column(0, "field",
                        pa.array(["text"] * t.num_rows, pa.string()))


def _agg_term_tables(parts: list[pa.Table]) -> pa.Table:
    """Sum df/ttf over (field, term) across partial tables."""
    agg = pa.concat_tables(parts).group_by(["field", "term"]) \
        .aggregate([("df", "sum"), ("ttf", "sum")])
    # select-by-name before the positional rename: pyarrow versions differ
    # on whether the group key lands first or last
    return agg.select(["field", "term", "df_sum", "ttf_sum"]) \
        .rename_columns(["field", "term", "df", "ttf"])


def _split_by_shard(t: pa.Table, n_shards: int) -> list[pa.Table]:
    if n_shards == 1:
        return [t]
    sh = term_shard(t["term"].to_pylist(), n_shards)
    mask = pa.array(sh)
    import pyarrow.compute as pc
    return [t.filter(pc.equal(mask, s)) for s in range(n_shards)]


def _partial_term_stats_sharded(index_dir: str, segs: list[int],
                                n_shards: int):
    """Combiner: partially aggregate one chunk of per-segment term tables
    and split the result by term shard (one return object per shard, so
    the per-shard reducers fetch ONLY their slice from the object store)."""
    agg = _agg_term_tables([_read_seg_term_stats(index_dir, s)
                            for s in segs])
    parts = _split_by_shard(agg, n_shards)
    return parts[0] if n_shards == 1 else tuple(parts)


def _reduce_term_shard(shard: int, index_dir: str, final: bool,
                       *pieces: pa.Table) -> pa.Table | None:
    """Reduce one term shard: sum partials; at the final level sort and
    write ``term_stats/shard=NNNN.parquet`` atomically (tmp + rename)."""
    import pyarrow.parquet as pq
    agg = _agg_term_tables(list(pieces))
    if not final:
        return agg
    agg = agg.sort_by([("field", "ascending"), ("term", "ascending")])
    out = os.path.join(index_dir, TERM_STATS_DIR, f"shard={shard:04d}.parquet")
    # row groups of TERMS_ROW_GROUP terms are the reader's stats blocks
    # (IndexReader.term_stats reads one per lookup); one never spans a
    # field, so its footer min/max of `term` bound a single field's range.
    # Sorted terms share long prefixes, hence DELTA_BYTE_ARRAY.
    ends = pc.run_end_encode(agg["field"].combine_chunks()).run_ends \
        .to_pylist()
    with pq.ParquetWriter(out + ".tmp", agg.schema, compression="zstd",
                          use_dictionary=["field"],
                          column_encoding={"term": "DELTA_BYTE_ARRAY"}) as w:
        start = 0
        for end in ends:
            w.write_table(agg.slice(start, end - start),
                          row_group_size=TERMS_ROW_GROUP)
            start = end
    os.replace(out + ".tmp", out)
    return None


_REDUCE_FANIN = 32  # partials merged per tree-reduction node


def _write_term_stats(index_dir: str, manifests: list[dict]) -> int:
    """Global (field, term → df, ttf) stats as a HIVE-SHARDED directory
    (``term_stats/shard=NNNN.parquet``, shard = crc32(term) % n) built by
    a tree of Ray tasks all the way down (VERDICT r3 #1): per-segment
    term tables are already pre-aggregated (combiner pattern, SURVEY
    §2.6); chunk-partial tasks aggregate 16 segments each and SPLIT by
    term shard; per-shard reducers tree-merge (fan-in 32) and write their
    shard file. The driver only schedules refs — at a 10^9+-term web
    vocabulary nothing vocabulary-sized ever materializes in one process.

    Shard count scales with the estimated vocabulary (Σ per-segment
    unique_terms, an overcount — duplicates across segments only make
    shards smaller). Readers resolve a query term to its shard by the
    same crc32 (reader.term_stats, the TermStates-style lookup), then
    binary-search the footer's per-row-group (field, min/max term) to
    read the one 4096-term block that can hold the term.

    Returns the shard count (recorded in the manifest).
    """
    import shutil

    segs = [m["seg"] for m in manifests]
    est_vocab = sum(m.get("unique_terms") or 0 for m in manifests)
    n_shards = max(1, min(1024, -(-est_vocab // TERMS_PER_SHARD)))

    out_dir = os.path.join(index_dir, TERM_STATS_DIR)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    legacy = os.path.join(index_dir, TERM_STATS_FILE)
    if os.path.exists(legacy):  # superseded single-file layout
        os.remove(legacy)

    chunks = [segs[i:i + 16] for i in range(0, len(segs), 16)]
    if len(chunks) == 1 and n_shards == 1:
        # small index: one combiner + one reducer, no task round-trip
        part = _partial_term_stats_sharded(index_dir, chunks[0], 1)
        _reduce_term_shard(0, index_dir, True, part)
        return 1

    import ray
    part_fn = ray.remote(_partial_term_stats_sharded)
    reduce_fn = ray.remote(_reduce_term_shard)
    # level 0: chunk partials, one return object PER SHARD
    if n_shards == 1:
        shard_refs = [[part_fn.remote(index_dir, c, 1) for c in chunks]]
    else:
        outs = [part_fn.options(num_returns=n_shards)
                .remote(index_dir, c, n_shards) for c in chunks]
        shard_refs = [[o[s] for o in outs] for s in range(n_shards)]
    # per-shard tree reduction, fan-in _REDUCE_FANIN, final level writes
    finals = []
    for s, refs in enumerate(shard_refs):
        while len(refs) > _REDUCE_FANIN:
            refs = [reduce_fn.remote(s, index_dir, False,
                                     *refs[i:i + _REDUCE_FANIN])
                    for i in range(0, len(refs), _REDUCE_FANIN)]
        finals.append(reduce_fn.remote(s, index_dir, True, *refs))
    ray.get(finals)
    return n_shards
