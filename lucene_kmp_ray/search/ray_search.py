"""Distributed query execution over Ray Data.

SURVEY §3.2 "→ Ray Data shape": a dataset of (segment × query-batch) work
items streams through an actor pool. Every surface here runs one
per-segment step, ``SegmentSearch``: an actor that opens its
SegmentReaders once (the SearcherManager / leaf-slice role,
IndexSearcher.kt:227-228), builds each query's Weight once and scores
segments through ``searcher.collect``, the loop ``Searcher.search`` and
``search_after`` use. ``search_distributed`` emits per-(query, segment)
top-k rows and reduces them with a groupby(query_id).map_groups;
``search_all_matches`` and ``phrase_freqs_distributed`` emit every match;
``SearcherPool`` keeps the same class alive as ``ray.remote`` slice
actors (at least one, even over an index with no segments). Every
reduce ranks by ``searcher.merge_order``, ``TopDocs.merge``'s (score
desc, segment asc, local doc asc), ``TopDocs.kt:166-207``.

Partitioning story at scale: segments shard across the cluster (one work
item per segment — 10^12 docs / 1M-doc segments = 10^6 items), queries are
tiny and broadcast via ``ray.put`` once, never re-shipped per batch. The
final groupby moves only per-(query, segment) top-k rows: k × #segments ×
#queries, independent of corpus size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..index.reader import IndexReader
from ..util.pool import pool_size as _pool_size
from ..similarity.bm25 import BM25Similarity
from .query import PhraseQuery, Query
from .searcher import Searcher, Weight, collect, merge_order


def make_similarity(name, dtype: str):
    """Similarity registry (the Similarity extension surface, SURVEY
    §2.11): 'bm25' (default), 'classic' (TF-IDF), 'boolean', 'rawtf',
    'lmdirichlet', 'lmjelinekmercer', …. A DICT spec
    ``{"title": "classic", "*": "bm25"}`` builds a PerFieldSimilarity
    ('*' = default, PerFieldSimilarityWrapper.kt role) — dict specs stay
    msgpack-serializable for the actor-pool search path."""
    if isinstance(name, dict):
        from ..similarity.perfield import PerFieldSimilarity
        default = make_similarity(name.get("*", "bm25"), dtype)
        per = {f: make_similarity(n, dtype) for f, n in name.items()
               if f != "*"}
        return PerFieldSimilarity(default, per)
    if name == "rawtf":
        from ..similarity.classic import RawTFSimilarity
        return RawTFSimilarity(dtype=dtype)
    if name == "classic":
        from ..similarity.classic import ClassicSimilarity
        return ClassicSimilarity(dtype=dtype)
    if name == "boolean":
        from ..similarity.classic import BooleanSimilarity
        return BooleanSimilarity(dtype=dtype)
    if name == "lmdirichlet":
        from ..similarity.lm import LMDirichletSimilarity
        return LMDirichletSimilarity(dtype=dtype)
    if name == "lmjelinekmercer":
        from ..similarity.lm import LMJelinekMercerSimilarity
        return LMJelinekMercerSimilarity(dtype=dtype)
    if name == "dfr_ineb2":       # the classic DFR default (IneB2)
        from ..similarity.dfr import (AfterEffectB, BasicModelIne,
                                      DFRSimilarity, NormalizationH2)
        return DFRSimilarity(BasicModelIne(), AfterEffectB(),
                             NormalizationH2(), dtype=dtype)
    if name == "ib_spl":
        from ..similarity.dfr import (DistributionSPL, IBSimilarity,
                                      LambdaDF, NormalizationH2)
        return IBSimilarity(DistributionSPL(), LambdaDF(),
                            NormalizationH2(), dtype=dtype)
    if name == "dfi_chisquared":
        from ..similarity.dfr import (DFISimilarity,
                                      IndependenceChiSquared)
        return DFISimilarity(IndependenceChiSquared(), dtype=dtype)
    if name.startswith("axiomatic_"):
        from ..similarity import axiomatic as ax
        cls = {"f1exp": ax.AxiomaticF1EXP, "f1log": ax.AxiomaticF1LOG,
               "f2exp": ax.AxiomaticF2EXP, "f2log": ax.AxiomaticF2LOG,
               "f3exp": ax.AxiomaticF3EXP, "f3log": ax.AxiomaticF3LOG,
               }[name[len("axiomatic_"):]]
        return cls(dtype=dtype)
    if name == "indri_dirichlet":
        from ..similarity.axiomatic import IndriDirichletSimilarity
        return IndriDirichletSimilarity(dtype=dtype)
    return BM25Similarity(dtype=dtype)


def _seg_work_items(segs, per_block: int = 8):
    """Segment ids as a Dataset with one BLOCK per ~per_block segments —
    ``from_arrow`` with a single table yields a single block, which would
    feed the whole actor pool through one task (observed in ds.stats():
    1 task used). Passing a LIST of tables gives one block each directly
    — no Repartition all-to-all (which cost more wall than the actual
    search compute on a 100-row work list)."""
    import pyarrow as pa
    import ray.data as rd

    tables = [pa.table({"seg": pa.array(segs[i:i + per_block], pa.int64())})
              for i in range(0, max(len(segs), 1), per_block)]
    return rd.from_arrow(tables)


_HIT_COLS = ("query_id", "seg", "doc", "score", "doc_id", "url")


class SegmentSearch:
    """The per-segment search step of every distributed surface
    (``IndexSearcher.searchLeaf`` over one leaf slice). It opens one
    ``IndexReader`` over ``segments`` (every segment when None) at
    ``commit``, through the soft-deletes wrapper when
    ``soft_deletes_field`` is set, and scores through
    ``searcher.collect``: each segment keeps its top ``k`` hits, every
    match when ``k`` is None (and then at most its first
    ``per_seg_limit`` in local-id order).

    As a Ray Data ``map_batches`` callable it builds each query of
    ``queries`` (an object ref of ``{query_id: Query}``) into a Weight
    once, and returns one frame of ``columns`` per batch of ``seg`` work
    items; ``freq`` is ``score`` as int64 (the raw-tf phrase count).
    Wrapped once in ``ray.remote`` it is ``SearcherPool``'s slice
    actor: ``search`` answers a query batch over the whole slice and
    ``open`` re-opens the latest commit on a new slice."""

    def __init__(self, index_dir: str, queries=None, k: int | None = None,
                 dtype: str = "float32", similarity="bm25",
                 segments: list[int] | None = None,
                 commit: int | None = None,
                 soft_deletes_field: str | None = None,
                 columns: tuple[str, ...] = _HIT_COLS,
                 meta_cols: tuple[str, ...] = (),
                 per_seg_limit: int | None = None):
        import ray
        self.index_dir, self.commit = index_dir, commit
        self.soft_deletes_field = soft_deletes_field
        self.sim = make_similarity(similarity, dtype)
        self.k, self.columns, self.meta_cols = k, columns, meta_cols
        self.per_seg_limit = per_seg_limit
        self.open(segments)
        # KNN queries arrive resolved; each Weight serves every batch
        self.weights = {} if queries is None else {
            qid: Weight(self.searcher, self.searcher.rewrite(q))
            for qid, q in ray.get(queries).items()}

    def open(self, segments: list[int] | None) -> None:
        self.reader = IndexReader(self.index_dir, segments=segments,
                                  commit=self.commit,
                                  soft_deletes_field=self.soft_deletes_field)
        self.searcher = Searcher(self.reader, self.sim)
        self.by_seg = {sr.seg: sr for sr in self.reader.segment_readers}

    def _hits(self, weight: Weight, readers, k: int | None) -> dict:
        """Column arrays of the segments' hits, segment by segment."""
        import pyarrow as pa
        parts, _, _ = collect(weight, readers, k)
        cols = {c: [] for c in ("seg", "doc", "score", "doc_id", "url",
                                *self.meta_cols)}
        for sr, (scores, _, docs) in zip(readers, parts):
            docs = docs[:self.per_seg_limit]
            cols["seg"].append(np.full(len(docs), sr.seg, np.int64))
            cols["doc"].append(docs)
            cols["score"].append(
                np.asarray(scores[:len(docs)], dtype=np.float64))
            for c in ("doc_id", "url", *self.meta_cols):
                cols[c].append(sr.doc_meta[c].take(docs))
        out = {c: np.concatenate([np.empty(0, np.int64), *cols[c]])
               for c in ("seg", "doc")}
        out["score"] = np.concatenate([np.empty(0), *cols["score"]])
        out["doc_id"] = np.array(
            [v for a in cols["doc_id"] for v in a.to_pylist()], np.int64)
        out["url"] = np.array(
            [v for a in cols["url"] for v in a.to_pylist()], object)
        for c in self.meta_cols:
            out[c] = _meta_series(pa.chunked_array(
                [ch for a in cols[c] for ch in a.chunks],
                type=cols[c][0].type))
        return out

    def __call__(self, batch) -> pd.DataFrame:
        readers = [self.by_seg[s] for s in batch["seg"].to_pylist()]
        frames = []
        for qid, weight in self.weights.items():
            hits = self._hits(weight, readers, self.k)
            hits["query_id"] = np.full(len(hits["doc"]), qid, object)
            hits["freq"] = hits["score"].astype(np.int64)
            frames.append(pd.DataFrame({c: hits[c] for c in self.columns}))
        return pd.concat(frames or [pd.DataFrame(columns=self.columns)],
                         ignore_index=True)

    def search(self, queries: dict, k: int) -> dict:
        """``{query_id: hit columns}`` over this reader's segments."""
        return {qid: self._hits(Weight(self.searcher,
                                       self.searcher.rewrite(q)),
                                self.reader.segment_readers, k)
                for qid, q in queries.items()}


def _segment_search(index_dir: str, segs: list[int], queries: dict,
                    concurrency: int | None, **opts):
    """``segs`` as work items through a ``SegmentSearch`` actor pool;
    ``queries`` broadcast once with ``ray.put``."""
    import ray
    return _seg_work_items(segs).map_batches(
        SegmentSearch, fn_constructor_args=(index_dir, ray.put(queries)),
        fn_constructor_kwargs=opts, batch_format="pyarrow", batch_size=8,
        concurrency=_pool_size(concurrency,
                               work_items=(len(segs) + 7) // 8))


def search_distributed(index_dir: str, queries: dict[str, Query], k: int = 10,
                       concurrency: int | None = None, dtype: str = "float32",
                       similarity: str = "bm25",
                       soft_deletes_field: str | None = None):
    """Run many queries over all segments → Dataset of global top-k rows
    with columns (query_id, doc_id, url, score, rank).
    ``soft_deletes_field`` opens every per-actor reader through the
    soft-deletes wrapper (index/softdeletes.py)."""
    reader = IndexReader(index_dir)
    segs = [m["seg"] for m in reader.manifest["segments"]]
    # KNN queries resolve ONCE here (one pass over the vector sidecars)
    # and broadcast resolved — otherwise EVERY actor would re-scan every
    # segment's vectors during its own rewrite (O(actors × total vectors))
    pre = Searcher(reader)
    queries = {qid: pre.rewrite(q) for qid, q in queries.items()}
    per_seg = _segment_search(index_dir, segs, queries, concurrency, k=k,
                              dtype=dtype, similarity=similarity,
                              soft_deletes_field=soft_deletes_field)

    def merge_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.iloc[merge_order(g["score"].to_numpy(), g["seg"].to_numpy(),
                               g["doc"].to_numpy())[:k]]
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "rank", "doc_id", "url", "score"]]

    return per_seg.groupby("query_id").map_groups(merge_topk,
                                                  batch_format="pandas")


def search_all_matches(index_dir: str, query: Query, dtype: str = "float64",
                       concurrency: int | None = None,
                       meta_cols: tuple[str, ...] = (),
                       per_seg_limit: int | None = None,
                       soft_deletes_field: str | None = None,
                       commit: int | None = None):
    """All matching docs of ``query`` as a Dataset (doc_id, url, score) —
    the no-limit collector path (TotalHitCountCollector / exhaustive).
    ``meta_cols`` adds doc-meta columns (e.g. ``length``) for downstream
    field sorts (the SortField fetch, SURVEY §2.7).
    ``per_seg_limit`` truncates each segment to its first N matches in
    local-id order — only correct when the index sort makes that order
    the requested sort order (see search_sorted_by_fields).
    ``soft_deletes_field`` opens every per-actor reader through the
    soft-deletes wrapper (index/softdeletes.py). ``commit`` opens every
    reader at that commit generation (point-in-time search over a
    snapshot-retained commit, index/commits.py SnapshotDeletionPolicy)."""
    reader = IndexReader(index_dir, commit=commit)
    segs = [m["seg"] for m in reader.manifest["segments"]]
    query = Searcher(reader).rewrite(query)  # resolve KNN once, broadcast
    return _segment_search(index_dir, segs, {"q": query}, concurrency,
                           dtype=dtype, commit=commit,
                           soft_deletes_field=soft_deletes_field,
                           columns=("doc_id", "url", "score", *meta_cols),
                           meta_cols=meta_cols, per_seg_limit=per_seg_limit)


def _meta_series(arr) -> pd.Series:
    """Arrow doc-meta column slice → pandas with the SortField value type:
    integers widen to int64, floats to float64, strings stay str (the
    SortField.Type axis, SortField.kt:54-80)."""
    import pyarrow as pa
    t = arr.type
    if pa.types.is_integer(t):
        return pd.Series(arr.to_pylist(), dtype="Int64")
    if pa.types.is_floating(t):
        return pd.Series(arr.to_pylist(), dtype="float64")
    return pd.Series(arr.to_pylist(), dtype="object")


@dataclass(frozen=True)
class SortField:
    """One sort key (``search/SortField.kt:54-80``): any doc-meta column
    (INT/LONG via int64, FLOAT/DOUBLE via float64, STRING via utf8),
    per-key direction, per-key missing-value policy (``missing_last`` —
    None means missing sorts as smallest, Lucene's default).

    ``selector`` sorts a MULTI-VALUED (list-typed) doc-meta column by a
    per-doc representative value — ``SortedNumericSortField`` /
    ``SortedSetSortField``: 'min' | 'max' (SortedNumericSelector.kt), plus
    'middle_min' | 'middle_max' over the doc's sorted value SET
    (SortedSetSelector.kt — set semantics: duplicates collapse to one
    ordinal). A doc with no values is missing (the missing policy
    applies)."""
    field: str
    descending: bool = False
    missing_last: bool | None = None
    selector: str | None = None


def _select_from_lists(col, selector: str):
    """Vectorized SortedNumericSelector/SortedSetSelector.wrap: explode
    the list column via value counts, stable-sort (row, value), collapse
    duplicates for the set selectors, then pick per-row by index
    arithmetic — no per-row Python. Returns a pyarrow array with null
    for docs with no values."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    counts = pc.fill_null(pc.list_value_length(arr), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    values = arr.flatten().to_numpy(zero_copy_only=False)
    rows = np.repeat(np.arange(n, dtype=np.int64), counts)
    if len(values):
        order = pd.Series(values).sort_values(kind="mergesort").index
        order = order.to_numpy()[np.argsort(rows[order], kind="stable")]
        # ^ stable two-pass: by value, then by row — (row, value) asc
        rows_s, vals_s = rows[order], values[order]
        if selector in ("middle_min", "middle_max"):
            # SortedSet ordinal semantics: per-doc DISTINCT sorted values
            keep = np.ones(len(vals_s), bool)
            keep[1:] = (rows_s[1:] != rows_s[:-1]) | (vals_s[1:] != vals_s[:-1])
            rows_s, vals_s = rows_s[keep], vals_s[keep]
        starts = np.flatnonzero(np.r_[True, rows_s[1:] != rows_s[:-1]])
        sizes = np.diff(np.r_[starts, len(rows_s)])
        pick = {"min": starts,
                "max": starts + sizes - 1,
                "middle_min": starts + (sizes - 1) // 2,
                "middle_max": starts + sizes // 2}[selector]
        out = np.full(n, None, dtype=object)
        out[rows_s[starts]] = vals_s[pick]
    else:
        out = np.full(n, None, dtype=object)
    return pa.array(out.tolist(), type=arr.type.value_type)


def search_sorted_by_fields(index_dir: str, query: Query,
                            sort_fields: tuple[SortField, ...], k: int = 20,
                            concurrency: int | None = None,
                            after: "dict | None" = None):
    """TopFieldCollector / Sort analog over MULTIPLE typed keys: matches of
    ``query`` ordered by the sort-field tuple, final tie-break doc_id
    ascending, global top-k. Per-segment matches stream through the actor
    pool; the distributed sort moves only matching rows' key columns.
    Missing values order via a 0/1 null-rank helper column per nullable
    key (Ray's sort has no null placement policy of its own). Returns a
    pandas DataFrame with a ``rank`` column (deterministic).

    ``after`` pages a sorted result (IndexSearcher.searchAfter with a
    FieldDoc, TestSearchAfter's sorted cases): a dict holding the
    previous page's last row — every sort field plus ``doc_id`` — and
    only rows STRICTLY after that cursor in the sort order survive.
    The strictly-after filter runs per batch BEFORE the distributed
    sort, so deeper pages ship fewer rows, not more; index-sort early
    termination is disabled under ``after`` (a segment's first k rows
    may all precede the cursor)."""
    # doc_id/url always ride along — only extra doc-meta columns fetch
    meta_cols = tuple(dict.fromkeys(sf.field for sf in sort_fields
                                    if sf.field not in ("doc_id", "url")))
    # early termination (TopFieldCollector + index sort): when every
    # segment is index-sorted by a prefix matching the requested sort,
    # each segment's matches arrive already ordered, so only its first k
    # can reach the global top-k — per-segment work drops from all-matches
    # to k rows regardless of segment size
    per_seg_limit = None
    want = [[sf.field, sf.descending] for sf in sort_fields]
    seg_sorts = [m.get("index_sort")
                 for m in IndexReader(index_dir).manifest["segments"]]
    if (after is None and seg_sorts and
            all(s is not None and s[:len(want)] == want
                for s in seg_sorts) and
            all(sf.missing_last is None for sf in sort_fields)):
        per_seg_limit = k
    ds = search_all_matches(index_dir, query, concurrency=concurrency,
                            meta_cols=meta_cols,
                            per_seg_limit=per_seg_limit)

    sels = [sf for sf in sort_fields if sf.selector is not None]
    if sels:
        # SortedNumericSortField / SortedSetSortField: reduce each
        # multi-valued column to its selected representative BEFORE the
        # distributed sort (only matching rows' key columns move)
        def select_keys(t):
            import pyarrow as pa
            for sf in sels:
                i = t.schema.get_field_index(sf.field)
                t = t.set_column(i, sf.field,
                                 _select_from_lists(t[sf.field],
                                                    sf.selector))
            return t
        ds = ds.map_batches(select_keys, batch_format="pyarrow")

    keys: list[str] = []
    desc: list[bool] = []
    helpers = [sf for sf in sort_fields if sf.missing_last is not None]

    if helpers:
        def add_null_rank(df: pd.DataFrame) -> pd.DataFrame:
            for sf in helpers:
                df[f"_null_{sf.field}"] = df[sf.field].isna().astype(int)
            return df
        ds = ds.map_batches(add_null_rank, batch_format="pandas")
    for sf in sort_fields:
        if sf.missing_last is not None:
            # nulls get rank 1; rank sorts ascending for missing-last
            keys.append(f"_null_{sf.field}")
            desc.append(not sf.missing_last)
        keys.append(sf.field)
        desc.append(sf.descending)
    keys.append("doc_id")
    desc.append(False)
    if after is not None:
        # cursor tuple in key order; helper keys derive from the cursor
        # field's null-ness (pandas NaN == missing)
        cvals = []
        for key in keys:
            if key.startswith("_null_"):
                v = after.get(key[len("_null_"):])
                cvals.append(1 if v is None or
                             (isinstance(v, float) and np.isnan(v)) else 0)
            else:
                cvals.append(after[key])  # KeyError = incomplete cursor

        def strictly_after(df: pd.DataFrame) -> pd.DataFrame:
            n = len(df)
            won = np.zeros(n, dtype=bool)   # strictly after, decided
            tied = np.ones(n, dtype=bool)   # equal so far
            for key, d, cv in zip(keys, desc, cvals):
                col = df[key]
                if cv is None or (isinstance(cv, float) and np.isnan(cv)):
                    eq = col.isna().to_numpy()
                    gt = np.zeros(n, dtype=bool)  # helper key decides
                else:
                    arr = col.to_numpy()
                    with np.errstate(invalid="ignore"):
                        gt = (arr < cv) if d else (arr > cv)
                        eq = arr == cv
                    gt = np.nan_to_num(gt.astype(bool), copy=False)
                won |= tied & gt
                tied &= eq
            return df[won]
        ds = ds.map_batches(strictly_after, batch_format="pandas")
    out = ds.sort(keys, descending=desc).limit(k).to_pandas()
    if out.empty:  # fully-filtered pages lose their schema to_pandas
        out = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                            "url": pd.Series([], dtype="string"),
                            **{c: pd.Series([], dtype="object")
                               for c in meta_cols}})
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["rank", "doc_id", "url", *meta_cols]]


def phrase_freqs_distributed(index_dir: str, terms: list[str],
                             concurrency: int | None = None):
    """(doc_id, freq) of exact-phrase matches — the positional-join operator
    run segment-parallel (ExactPhraseMatcher, SURVEY §2.5): a PhraseQuery
    scored by RawTFSimilarity in float64, where score == freq exactly."""
    segs = [m["seg"] for m in IndexReader(index_dir).manifest["segments"]]
    return _segment_search(index_dir, segs,
                           {"q": PhraseQuery(tuple(terms))}, concurrency,
                           dtype="float64", similarity="rawtf",
                           columns=("doc_id", "freq"))


class SearcherPool:
    """Persistent serving pool — the SearcherManager role for REPEATED
    query batches (``search/SearcherManager.kt:37``): N long-lived
    ``SegmentSearch`` actors each own a SLICE of the segments (the
    ≤250k-doc/≤5-segment leaf-slice assignment of IndexSearcher.kt:227-228,
    here segment ids striped round-robin), open their readers once, and
    answer query batches forever. ``search_distributed`` spins an actor
    pool per call (fine for batch jobs; ~3s of setup at 100 segments),
    while this pool amortizes setup across calls — the serving shape.

    The pool holds at least one actor (an index with no segments yet
    gets one with an empty slice), and at most one per segment. The
    driver-side merge is the tiny TopDocs.merge (k × slices rows).
    ``refresh()`` re-opens readers against the latest commit
    (SearcherManager.maybeRefresh analog).
    """

    def __init__(self, index_dir: str, num_actors: int | None = None,
                 dtype: str = "float32", similarity: str = "bm25"):
        import ray as _ray

        reader = IndexReader(index_dir)
        segs = [m["seg"] for m in reader.manifest["segments"]]
        self._reader = reader
        n = num_actors or _pool_size(None, work_items=max(1, len(segs)))
        n = max(1, min(n, len(segs)))
        actor = _ray.remote(SegmentSearch)
        self._actors = [actor.remote(index_dir, dtype=dtype,
                                     similarity=similarity,
                                     segments=segs[i::n])
                        for i in range(n)]

    def refresh(self) -> bool:
        """SearcherManager.maybeRefresh analog: if the committed manifest
        changed (flush/merge/delete), re-open the DRIVER's reader and
        re-stripe the NEW segment set across the existing actors — each
        actor keeps a disjoint slice, so merged top-k stays duplicate-free
        after merges change segment ids."""
        import ray as _ray
        fresh = self._reader.open_if_changed()
        if fresh is None:
            return False
        self._reader = fresh
        segs = [m["seg"] for m in fresh.manifest["segments"]]
        n = len(self._actors)
        _ray.get([a.open.remote(segs[i::n])
                  for i, a in enumerate(self._actors)])
        return True

    def search(self, queries: dict, k: int = 10) -> pd.DataFrame:
        """Query batch → global top-k rows (query_id, rank, doc_id, url,
        score) with exact TopDocs.merge ordering. KNN rewrites resolve
        ONCE here over the whole index (as search_distributed does) —
        per-slice resolution would give each actor a different 'global'
        top-k doc set and mis-credit hybrid BM25+KNN scores."""
        import ray as _ray

        pre = Searcher(self._reader)
        queries = {qid: pre.rewrite(q) for qid, q in queries.items()}
        parts = _ray.get([a.search.remote(queries, k)
                          for a in self._actors])
        out = {c: [] for c in ("query_id", "rank", "doc_id", "url",
                               "score")}
        for qid in queries:
            hits = {c: np.concatenate([p[qid][c] for p in parts])
                    for c in ("score", "seg", "doc", "doc_id", "url")}
            top = merge_order(hits["score"], hits["seg"], hits["doc"])[:k]
            out["query_id"].append(np.full(len(top), qid, object))
            out["rank"].append(np.arange(1, len(top) + 1, dtype=np.int64))
            for c in ("doc_id", "url", "score"):
                out[c].append(hits[c][top])
        return pd.DataFrame({c: np.concatenate(v) if v else []
                             for c, v in out.items()})

    def shutdown(self):
        import ray as _ray
        for a in self._actors:
            _ray.kill(a)
        self._actors = []
