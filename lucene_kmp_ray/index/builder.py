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
- The commit writes no global term stats: each segment dictionary holds
  its terms' df/ttf, and readers sum them at query time (the TermStates
  resolution of IndexSearcher, SURVEY §2.4; ``IndexReader.term_stats``).
  Per-field collection stats are summed from the segment manifests.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc

from .format import (SEG_MANIFEST, build_and_write_segment,
                     read_seg_manifest, seg_dirname)

INDEX_MANIFEST = "manifest.json"
DEFAULT_SEGMENT_SIZE = 100_000


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
    """Write the global manifest (phase 2 of the two-phase commit).

    Per-field collection stats aggregate across segments under ``fields``
    (the CollectionStatistics per field, SURVEY §2.4); the top-level stats
    stay the text field's for back-compat. Term stats are not written:
    readers sum them from the segment dictionaries, so the global copy
    that older commits kept (``term_stats/``, ``term_stats.parquet``) is
    removed.
    """
    shutil.rmtree(os.path.join(index_dir, "term_stats"), ignore_errors=True)
    legacy = os.path.join(index_dir, "term_stats.parquet")
    if os.path.exists(legacy):
        os.remove(legacy)
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


def global_term_stats(index_dir: str) -> pa.Table:
    """``(field, term, df, ttf)`` summed over every segment of the
    committed manifest, sorted by (field, term): the whole global stats
    table, for tools that want all of it (a reader resolves single terms
    with ``IndexReader.term_stats``)."""
    from .postings import read_dictionary
    with open(os.path.join(index_dir, INDEX_MANIFEST)) as f:
        segs = [m["dir"] for m in json.load(f)["segments"]]
    parts = []
    for d in segs:
        t = read_dictionary(os.path.join(index_dir, d)).select(
            ["field", "term", "df", "ttf"])
        # df/ttf are int32 when every value of a segment fits, else int64
        parts.append(t.cast(pa.schema([f.with_type(pa.int64())
                                       if f.name in ("df", "ttf") else f
                                       for f in t.schema])))
    if not parts:  # an index committed before its first segment
        return pa.schema([("field", pa.string()), ("term", pa.string()),
                          ("df", pa.int64()), ("ttf", pa.int64())]
                         ).empty_table()
    agg = pa.concat_tables(parts).group_by(["field", "term"]) \
        .aggregate([("df", "sum"), ("ttf", "sum")])
    # select-by-name before the positional rename: pyarrow versions differ
    # on whether the group key lands first or last
    return agg.select(["field", "term", "df_sum", "ttf_sum"]) \
        .rename_columns(["field", "term", "df", "ttf"]) \
        .sort_by([("field", "ascending"), ("term", "ascending")])
