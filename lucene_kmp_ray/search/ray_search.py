"""Distributed query execution over Ray Data.

SURVEY §3.2 "→ Ray Data shape": a dataset of (segment × query-batch) work
items streams through an actor pool; each actor caches the SegmentReaders it
has opened (the SearcherManager / leaf-slice role, IndexSearcher.kt:227-228)
and emits per-(query, segment) top-k rows; a groupby(query_id).map_groups
reduce reproduces ``TopDocs.merge`` ordering exactly: (score desc, segment
asc, local doc asc), ``TopDocs.kt:166-207``.

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
from .query import Query
from .searcher import Searcher, Weight, _topk_idx


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


class SegmentSearchActor:
    """Actor-pool stage: holds open SegmentReaders + resolved query scorers.

    ``__init__`` runs once per actor (stats resolution + reader open);
    ``__call__`` scores one batch of (seg,) work items against all queries.
    """

    def __init__(self, index_dir: str, queries_ref, k: int, dtype: str,
                 similarity: str = "bm25",
                 soft_deletes_field: str | None = None):
        import ray
        self.k = k
        self.reader = IndexReader(index_dir,
                                  soft_deletes_field=soft_deletes_field)
        self.searcher = Searcher(self.reader,
                                 make_similarity(similarity, dtype))
        # KNN queries resolve to their global top-k ONCE per actor, and
        # each query's Weight (its scorers) is built once for all batches
        self.weights: dict[str, Weight] = {
            qid: Weight(self.searcher, self.searcher.rewrite(q))
            for qid, q in ray.get(queries_ref).items()}
        self.by_seg = {sr.seg: (i, sr)
                       for i, sr in enumerate(self.reader.segment_readers)}

    def __call__(self, batch) -> pd.DataFrame:
        out = {"query_id": [], "seg": [], "doc": [], "score": [],
               "doc_id": [], "url": []}
        for seg in batch["seg"].to_pylist():
            si, sr = self.by_seg[seg]
            for qid, weight in self.weights.items():
                docs, scores = weight.score_segment(sr)
                sel = _topk_idx(scores, docs, self.k)
                docs, scores = docs[sel], scores[sel]
                dm = sr.doc_meta
                out["query_id"].extend([qid] * len(docs))
                out["seg"].extend([seg] * len(docs))
                out["doc"].extend(docs.tolist())
                out["score"].extend(np.asarray(scores, dtype=np.float64).tolist())
                out["doc_id"].extend(
                    dm["doc_id"].take(docs).to_pylist())  # type: ignore[arg-type]
                out["url"].extend(dm["url"].take(docs).to_pylist())
        return pd.DataFrame(out)


def search_distributed(index_dir: str, queries: dict[str, Query], k: int = 10,
                       concurrency: int | None = None, dtype: str = "float32",
                       similarity: str = "bm25",
                       soft_deletes_field: str | None = None):
    """Run many queries over all segments → Dataset of global top-k rows
    with columns (query_id, doc_id, url, score, rank).
    ``soft_deletes_field`` opens every per-actor reader through the
    soft-deletes wrapper (index/softdeletes.py)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    reader = IndexReader(index_dir)
    segs = [m["seg"] for m in reader.manifest["segments"]]
    # KNN queries resolve ONCE here (one pass over the vector sidecars)
    # and broadcast resolved — otherwise EVERY actor would re-scan every
    # segment's vectors during its own rewrite (O(actors × total vectors))
    pre = Searcher(reader)
    queries = {qid: pre.rewrite(q) for qid, q in queries.items()}
    queries_ref = ray.put(queries)  # broadcast once, read per actor

    ds = _seg_work_items(segs)
    per_seg = ds.map_batches(
        SegmentSearchActor,
        fn_constructor_args=(index_dir, queries_ref, k, dtype, similarity,
                             soft_deletes_field),
        batch_format="pyarrow", batch_size=8,
        concurrency=_pool_size(concurrency,
                               work_items=(len(segs) + 7) // 8))

    def merge_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "seg", "doc"],
                          ascending=[False, True, True],
                          kind="mergesort").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "rank", "doc_id", "url", "score"]]

    return per_seg.groupby("query_id").map_groups(merge_topk,
                                                  batch_format="pandas")


class SegmentMatchActor:
    """Emit ALL matches (doc_id, url, score[, meta cols]) of one query per
    segment — the no-limit collector path (TotalHitCountCollector /
    exhaustive). ``meta_cols`` adds doc-meta columns (e.g. ``length``) for
    downstream field sorts (the SortField fetch, SURVEY §2.7)."""

    def __init__(self, index_dir: str, query_ref, dtype: str,
                 meta_cols: tuple[str, ...] = (),
                 per_seg_limit: int | None = None,
                 soft_deletes_field: str | None = None,
                 commit: int | None = None):
        import ray
        self.reader = IndexReader(index_dir,
                                  soft_deletes_field=soft_deletes_field,
                                  commit=commit)
        self.searcher = Searcher(self.reader, BM25Similarity(dtype=dtype))
        self.weight = Weight(self.searcher,
                             self.searcher.rewrite(ray.get(query_ref)))
        self.by_seg = {sr.seg: sr for sr in self.reader.segment_readers}
        self.meta_cols = meta_cols
        self.per_seg_limit = per_seg_limit

    def __call__(self, batch) -> pd.DataFrame:
        frames = []
        for seg in batch["seg"].to_pylist():
            sr = self.by_seg[seg]
            docs, scores = self.weight.score_segment(sr)
            if self.per_seg_limit is not None:
                # early termination on an index-sorted segment: local ids
                # ascend in index-sort order, so the first k matches are
                # the segment's top-k (TopFieldCollector early exit,
                # Sorter.kt / SortField.canEarlyTerminate role)
                docs = docs[:self.per_seg_limit]
                scores = scores[:self.per_seg_limit]
            dm = sr.doc_meta
            cols = {
                "doc_id": dm["doc_id"].take(docs).to_pylist(),
                "url": dm["url"].take(docs).to_pylist(),
                "score": np.asarray(scores, dtype=np.float64)}
            for c in self.meta_cols:
                cols[c] = _meta_series(dm[c].take(docs))
            frames.append(pd.DataFrame(cols))
        if frames:
            return pd.concat(frames)
        empty = {"doc_id": pd.Series([], dtype="int64"),
                 "url": pd.Series([], dtype="string"),
                 "score": pd.Series([], dtype="float64")}
        for c in self.meta_cols:
            empty[c] = pd.Series([], dtype=_meta_empty_dtype(
                self.by_seg[next(iter(self.by_seg))].doc_meta[c].type))
        return pd.DataFrame(empty)


def search_all_matches(index_dir: str, query: Query, dtype: str = "float64",
                       concurrency: int | None = None,
                       meta_cols: tuple[str, ...] = (),
                       per_seg_limit: int | None = None,
                       soft_deletes_field: str | None = None,
                       commit: int | None = None):
    """All matching docs of ``query`` as a Dataset (doc_id, url, score).
    ``per_seg_limit`` truncates each segment to its first N matches in
    local-id order — only correct when the index sort makes that order
    the requested sort order (see search_sorted_by_fields).
    ``soft_deletes_field`` opens every per-actor reader through the
    soft-deletes wrapper (index/softdeletes.py). ``commit`` opens every
    reader at that commit generation (point-in-time search over a
    snapshot-retained commit, index/commits.py SnapshotDeletionPolicy)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    reader = IndexReader(index_dir, commit=commit)
    segs = [m["seg"] for m in reader.manifest["segments"]]
    query = Searcher(reader).rewrite(query)  # resolve KNN once, broadcast
    ds = _seg_work_items(segs)
    return ds.map_batches(SegmentMatchActor,
                          fn_constructor_args=(index_dir, ray.put(query),
                                               dtype, meta_cols,
                                               per_seg_limit,
                                               soft_deletes_field,
                                               commit),
                          batch_format="pyarrow", batch_size=8,
                          concurrency=_pool_size(
                              concurrency, work_items=(len(segs) + 7) // 8))


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


def _meta_empty_dtype(t) -> str:
    import pyarrow as pa
    if pa.types.is_integer(t):
        return "Int64"
    if pa.types.is_floating(t):
        return "float64"
    return "object"


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


def search_sorted_by_field(index_dir: str, query: Query, field: str,
                           descending: bool = True, k: int = 20,
                           concurrency: int | None = None):
    """Single-key convenience wrapper (legacy surface)."""
    return search_sorted_by_fields(
        index_dir, query, (SortField(field, descending),), k=k,
        concurrency=concurrency)


def phrase_freqs_distributed(index_dir: str, terms: list[str],
                             concurrency: int | None = None):
    """(doc_id, freq) of exact-phrase matches — the positional-join operator
    run segment-parallel (ExactPhraseMatcher, SURVEY §2.5)."""
    import pyarrow as pa
    import ray.data as rd

    from .searcher import _exact_phrase

    reader = IndexReader(index_dir)
    segs = [m["seg"] for m in reader.manifest["segments"]]

    class PhraseActor:
        def __init__(self):
            self.reader = IndexReader(index_dir)
            self.by_seg = {sr.seg: sr for sr in self.reader.segment_readers}

        def __call__(self, batch) -> pd.DataFrame:
            frames = []
            for seg in batch["seg"].to_pylist():
                sr = self.by_seg[seg]
                docs, freqs = _exact_phrase(sr, terms)
                tomb = sr.tombstones
                if tomb is not None and len(docs):
                    import numpy as _np
                    live = ~_np.isin(docs, tomb)
                    docs, freqs = docs[live], freqs[live]
                dm = sr.doc_meta
                frames.append(pd.DataFrame({
                    "doc_id": dm["doc_id"].take(docs).to_pylist(),
                    "freq": freqs.astype(np.int64)}))
            return pd.concat(frames) if frames else pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "freq": pd.Series([], dtype="int64")})

    ds = _seg_work_items(segs)
    return ds.map_batches(PhraseActor, batch_format="pyarrow", batch_size=8,
                          concurrency=_pool_size(
                              concurrency, work_items=(len(segs) + 7) // 8))



class SearcherPool:
    """Persistent serving pool — the SearcherManager role for REPEATED
    query batches (``search/SearcherManager.kt:37``): N long-lived Ray
    actors each own a SLICE of the segments (the ≤250k-doc/≤5-segment
    leaf-slice assignment of IndexSearcher.kt:227-228, here segment ids
    striped round-robin), open their readers once, and answer query
    batches forever. ``search_distributed`` spins an actor pool per call
    (fine for batch jobs; ~3s of setup at 100 segments), while this pool
    amortizes setup across calls — the serving shape.

    Driver-side merge is the tiny TopDocs.merge (k × slices rows).
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

        @_ray.remote
        class SliceActor:
            def __init__(self, index_dir: str, my_segs: list[int],
                         dtype: str, similarity: str):
                self.index_dir = index_dir
                self.reader = IndexReader(index_dir, segments=my_segs)
                self.searcher = Searcher(self.reader,
                                         make_similarity(similarity, dtype))
                self.seg_index = {sr.seg: i for i, sr in
                                  enumerate(self.reader.segment_readers)}

            def set_slice(self, my_segs: list[int]) -> bool:
                """Re-open against the latest commit, keeping THIS actor's
                slice assignment (the pool recomputes stripes driver-side
                after a commit change — re-opening all segments here would
                make every actor search everything and the merged top-k
                duplicate each hit)."""
                sim = self.searcher.sim
                self.reader = IndexReader(self.index_dir, segments=my_segs)
                self.searcher = Searcher(self.reader, sim)
                self.seg_index = {sr.seg: i for i, sr in
                                  enumerate(self.reader.segment_readers)}
                return True

            def search_batch(self, queries: dict, k: int) -> dict:
                out = {}
                for qid, q in queries.items():
                    weight = Weight(self.searcher, self.searcher.rewrite(q))
                    rows = []
                    total = 0
                    for sr in self.reader.segment_readers:
                        docs, scores = weight.score_segment(sr)
                        total += len(docs)
                        sel = _topk_idx(scores, docs, k)
                        dm = sr.doc_meta
                        for i in sel:
                            rows.append((float(scores[i]), sr.seg,
                                         int(docs[i]),
                                         dm["doc_id"][int(docs[i])].as_py(),
                                         dm["url"][int(docs[i])].as_py()))
                    out[qid] = (total, rows)
                return out

        self._actors = []
        self._dir = index_dir
        self._n = n
        for i in range(n):
            my = segs[i::n]  # round-robin stripe
            if my:
                self._actors.append(SliceActor.remote(
                    index_dir, my, dtype, similarity))

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
        _ray.get([a.set_slice.remote(segs[i::n])
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
        parts = _ray.get([a.search_batch.remote(queries, k)
                          for a in self._actors])
        frames = []
        for qid in queries:
            total = sum(p[qid][0] for p in parts)
            rows = [r for p in parts for r in p[qid][1]]
            rows.sort(key=lambda r: (-r[0], r[1], r[2]))
            rows = rows[:k]
            frames.append(pd.DataFrame({
                "query_id": [qid] * len(rows),
                "rank": np.arange(1, len(rows) + 1, dtype=np.int64),
                "doc_id": [r[3] for r in rows],
                "url": [r[4] for r in rows],
                "score": [r[0] for r in rows],
            }))
        return pd.concat(frames, ignore_index=True) if frames else \
            pd.DataFrame({"query_id": [], "rank": [], "doc_id": [],
                          "url": [], "score": []})

    def shutdown(self):
        import ray as _ray
        for a in self._actors:
            _ray.kill(a)
        self._actors = []
