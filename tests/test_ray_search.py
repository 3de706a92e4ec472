"""Distributed query execution == driver-side Searcher (the TopDocs.merge
equivalence across the actor-pool + groupby reduce path)."""

import numpy as np
import pytest

from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   PrefixQuery, Searcher, TermQuery)
from lucene_kmp_ray.search.ray_search import (SortField,
                                              phrase_freqs_distributed,
                                              search_all_matches,
                                              search_distributed,
                                              search_sorted_by_fields)
from lucene_kmp_ray.similarity.bm25 import BM25Similarity


@pytest.fixture(scope="module")
def local64(built_index):
    return Searcher(IndexReader(built_index), BM25Similarity(dtype="float64"))


def test_distributed_topk_matches_local(built_index, local64, ray_session):
    qs = {
        "t": TermQuery("spark"),
        "b": BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                (Occur.MUST, TermQuery("join"))),
    }
    df = search_distributed(built_index, qs, k=10, dtype="float64") \
        .to_pandas()
    for qid, q in qs.items():
        td = local64.search(q, k=10)
        got = df[df["query_id"] == qid].sort_values("rank")
        assert got["doc_id"].tolist() == [h.doc_id for h in td.score_docs]
        np.testing.assert_array_equal(
            got["score"].to_numpy(),
            np.array([h.score for h in td.score_docs]))


def test_all_matches_distributed(built_index, local64, ray_session):
    q = TermQuery("join")
    df = search_all_matches(built_index, q).to_pandas()
    td = local64.search(q, k=100_000)
    assert sorted(df["doc_id"].tolist()) == \
        sorted(h.doc_id for h in td.score_docs)


def test_phrase_freqs_distributed(built_index, ray_session, corpus_texts):
    from lucene_kmp_ray.analysis import tokenize
    df = phrase_freqs_distributed(built_index, ["batch", "batch"]).to_pandas()
    exp = {}
    for i, text in enumerate(corpus_texts):
        toks = tokenize(text)
        c = sum(1 for j in range(len(toks) - 1)
                if toks[j] == "batch" and toks[j + 1] == "batch")
        if c:
            exp[i] = c
    assert dict(zip(df["doc_id"], df["freq"])) == exp


def test_sorted_by_field_distributed(built_index, ray_session, corpus_texts):
    from lucene_kmp_ray.analysis import tokenize
    toks = [tokenize(t) for t in corpus_texts]
    df = search_sorted_by_fields(built_index, TermQuery("spark"),
                                 (SortField("length", descending=True),),
                                 k=15)
    match = [(len(t), -i) for i, t in enumerate(toks) if "spark" in t]
    exp = [-d for _, d in sorted(match, reverse=True)[:15]]
    assert df["doc_id"].tolist() == exp
    assert df["rank"].tolist() == list(range(1, len(exp) + 1))


def test_multi_key_sort_with_missing_policy(ray_session, tmp_path):
    """SortField generality: string key, multi-key, and the missing-value
    policy (nulls first vs last) — SortField.kt:54-80."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.search.ray_search import SortField

    # missing policy exercised directly on the sort machinery: the helper
    # null-rank column must place nulls per-key
    df = pd.DataFrame({"doc_id": [0, 1, 2, 3],
                       "v": [2.5, None, 1.0, None]})
    ds = rd.from_pandas(df)
    sf = SortField("v", descending=False, missing_last=True)

    def add_null_rank(d: pd.DataFrame) -> pd.DataFrame:
        d["_null_v"] = d["v"].isna().astype(int)
        return d
    got = ds.map_batches(add_null_rank, batch_format="pandas") \
        .sort(["_null_v", "v", "doc_id"], descending=[False, False, False]) \
        .to_pandas()["doc_id"].tolist()
    assert got == [2, 0, 1, 3]  # values ascending, nulls last by doc_id


def test_searcher_pool_matches_distributed(ray_session, built_index):
    """Persistent SearcherPool returns exactly the per-call actor-pool
    results (same TopDocs.merge order), amortizing setup; refresh() picks
    up a new commit."""
    from lucene_kmp_ray.search import BooleanQuery, Occur, TermQuery
    from lucene_kmp_ray.search.ray_search import (SearcherPool,
                                                  search_distributed)

    qs = {"t": TermQuery("spark"),
          "b": BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                  (Occur.MUST, TermQuery("join")))}
    want = search_distributed(built_index, qs, k=5).to_pandas() \
        .sort_values(["query_id", "rank"]).reset_index(drop=True)
    pool = SearcherPool(built_index, num_actors=2)
    try:
        got = pool.search(qs, k=5).sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        import numpy as np
        assert np.allclose(got["score"], want["score"], rtol=1e-6)
        assert pool.refresh() is False  # nothing changed
        # second call reuses the live actors (no respawn) and agrees
        got2 = pool.search(qs, k=5).sort_values(["query_id", "rank"]) \
            .reset_index(drop=True)
        assert got2["doc_id"].tolist() == want["doc_id"].tolist()
    finally:
        pool.shutdown()


def test_searcher_pool_refresh_after_merge(ray_session, built_index,
                                           tmp_path):
    """refresh() after a real commit change must keep slices DISJOINT:
    re-striping the new segment set across the pool, not re-opening all
    segments in every actor (which would duplicate every hit N_actors
    times in the merged top-k)."""
    import shutil

    from lucene_kmp_ray.index.merge import force_merge
    from lucene_kmp_ray.search import TermQuery
    from lucene_kmp_ray.search.ray_search import (SearcherPool,
                                                  search_distributed)

    idx = str(tmp_path / "idx")
    shutil.copytree(built_index, idx)
    pool = SearcherPool(idx, num_actors=2)
    try:
        before = pool.search({"t": TermQuery("spark")}, k=10)
        force_merge(idx, max_segments=2)
        assert pool.refresh() is True
        got = pool.search({"t": TermQuery("spark")}, k=10)
        assert got["doc_id"].is_unique  # no duplicate hits post-merge
        want = search_distributed(idx, {"t": TermQuery("spark")}, k=10) \
            .to_pandas().sort_values("rank")
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert got["doc_id"].tolist() == before["doc_id"].tolist()
        assert pool.refresh() is False
    finally:
        pool.shutdown()


def test_searcher_pool_knn_resolved_globally(ray_session, tmp_path):
    """KNN (and hybrid BM25+KNN) through the pool must equal the local
    Searcher: the KnnFloatVectorQuery resolves ONCE over the whole index
    driver-side, not per slice actor (per-slice 'global top-k' would give
    KNN credit to docs outside the true top-k)."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.search import (BooleanQuery, KnnFloatVectorQuery,
                                       Occur, TermQuery)
    from lucene_kmp_ray.search.ray_search import SearcherPool
    from lucene_kmp_ray.similarity.bm25 import BM25Similarity

    rng = np.random.default_rng(11)
    n, d = 80, 6
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    texts = [f"doc {'spark' if i % 3 == 0 else 'join'} w{i}"
             for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
        "text": pa.array(texts, pa.string()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))}))
    idx = str(tmp_path / "vecidx")
    build_index(ds, idx, segment_size=16, vector_col="embedding")

    knn = KnnFloatVectorQuery(tuple(vecs[5].astype(float).tolist()), k=5)
    hyb = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                             (Occur.SHOULD, knn))
    local = Searcher(IndexReader(idx), BM25Similarity(dtype="float32"))
    pool = SearcherPool(idx, num_actors=3)
    try:
        for name, q in [("knn", knn), ("hybrid", hyb)]:
            want = local.search(q, k=5)
            got = pool.search({name: q}, k=5)
            assert got["doc_id"].tolist() == \
                [h.doc_id for h in want.score_docs], name
            assert np.allclose(got["score"],
                               [h.score for h in want.score_docs],
                               rtol=1e-5), name
    finally:
        pool.shutdown()


def test_sorted_selector_kernel():
    """SortedNumericSelector.kt MIN/MAX + SortedSetSelector.kt
    MIDDLE_MIN/MIDDLE_MAX semantics, incl. empty lists (missing) and
    set-dedup for the middle selectors."""
    import pyarrow as pa

    from lucene_kmp_ray.search.ray_search import _select_from_lists

    ints = pa.array([[5, 1, 9], [], [7], [3, 3, 2]],
                    type=pa.list_(pa.int64()))
    assert _select_from_lists(ints, "min").to_pylist() == [1, None, 7, 2]
    assert _select_from_lists(ints, "max").to_pylist() == [9, None, 7, 3]
    # SortedSet ordinals: per-doc sorted DISTINCT values
    tags = pa.array([["b", "d", "a", "c"], ["x", "x", "x"], [],
                     ["t2", "t0", "t2", "t1"]],
                    type=pa.list_(pa.string()))
    # {'a','b','c','d'}: middle_min = ord[(4-1)//2]='b', middle_max='c'
    assert _select_from_lists(tags, "middle_min").to_pylist() == \
        ["b", "x", None, "t1"]
    assert _select_from_lists(tags, "middle_max").to_pylist() == \
        ["c", "x", None, "t1"]
    # all-empty batch
    empty = pa.array([[], []], type=pa.list_(pa.int64()))
    assert _select_from_lists(empty, "max").to_pylist() == [None, None]


def test_sorted_numeric_sort_end_to_end(built_meta_index=None):
    """Multi-valued sort through search_sorted_by_fields: MAX desc,
    missing (no-value docs) last, docID tiebreak."""
    import shutil

    import pyarrow as pa

    import ray.data as rd
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.search import TermQuery
    from lucene_kmp_ray.search.ray_search import (SortField,
                                                  search_sorted_by_fields)

    idx = "/tmp/test_sortednumeric_idx"
    shutil.rmtree(idx, ignore_errors=True)
    rows = [{"doc_id": i, "url": f"u{i}", "text": "alpha beta",
             "vals": [[7, 2], [], [9], [5, 5, 5], []][i]}
            for i in range(5)]
    build_index(rd.from_items(rows), idx, segment_size=2,
                meta_cols=("vals",))
    out = search_sorted_by_fields(
        idx, TermQuery("alpha"),
        (SortField("vals", descending=True, missing_last=True,
                   selector="max"),), k=10)
    assert out["doc_id"].tolist() == [2, 0, 3, 1, 4]
    assert out["vals"].tolist()[:3] == [9, 7, 5]


def test_commit_pinned_distributed_search(built_index, local64, ray_session,
                                          tmp_path):
    """search_all_matches(commit=gen) sees the pre-merge, pre-delete view
    (DirectoryReader.open(IndexCommit) role): snapshot the current gen,
    force-merge to a later gen, tombstone-delete some urls on the merged
    segments — the commit-pinned distributed result still equals the
    original corpus. (The snapshot gen is whatever the session-scoped
    index is at — earlier tests may have re-committed it.)"""
    import shutil

    from lucene_kmp_ray.index.commits import SnapshotDeletionPolicy
    from lucene_kmp_ray.index.deletes import delete_by_url
    from lucene_kmp_ray.index.merge import run_merges
    from lucene_kmp_ray.index.reader import IndexReader as IR

    idx = str(tmp_path / "snap_idx")
    shutil.copytree(built_index, idx)
    sdp = SnapshotDeletionPolicy()
    snap_gen = sdp.snapshot(idx)
    assert snap_gen >= 1
    import json
    with open(f"{idx}/manifest.json") as f:
        segs = [m["seg"] for m in json.load(f)["segments"]]
    run_merges(idx, merges=[segs], deletion_policy=sdp)
    urls = [sr.doc_meta["url"][0].as_py()
            for sr in IR(idx).segment_readers][:1]
    delete_by_url(idx, urls)

    q = TermQuery("spark")
    pinned = search_all_matches(built_index, q, commit=None).to_pandas()
    snap = search_all_matches(idx, q, commit=snap_gen).to_pandas()
    assert sorted(snap["doc_id"]) == sorted(pinned["doc_id"])
    np.testing.assert_array_equal(
        snap.sort_values("doc_id")["score"].to_numpy(),
        pinned.sort_values("doc_id")["score"].to_numpy())
    # the CURRENT view never returns docs the snapshot view lacks, and
    # loses any deleted doc that matched the query
    cur = search_all_matches(idx, q).to_pandas()
    assert not set(cur["doc_id"]) - set(snap["doc_id"])
    deleted_matching = {int(u.rsplit("/", 1)[1]) for u in urls} \
        & set(snap["doc_id"])
    assert deleted_matching.isdisjoint(set(cur["doc_id"]))


PARITY_QUERIES = {
    "term": TermQuery("spark"),
    "and": BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                              (Occur.MUST, TermQuery("join"))),
    "or": BooleanQuery.build((Occur.SHOULD, TermQuery("window")),
                             (Occur.SHOULD, TermQuery("scan")),
                             (Occur.SHOULD, TermQuery("batch"))),
    "phrase": PhraseQuery(("batch", "batch")),
    "prefix": PrefixQuery("sc"),  # constant score: order is all tie-break
}


@pytest.fixture(scope="module")
def tombstoned_index(built_index, ray_session, tmp_path_factory):
    """A copy of the 5-segment index with "spark" docs of segment 2
    deleted (tombstones in that segment only)."""
    import shutil

    from lucene_kmp_ray.index.deletes import delete_by_url

    idx = str(tmp_path_factory.mktemp("parity") / "idx")
    shutil.copytree(built_index, idx)
    sr = IndexReader(idx).segment_readers[2]
    docs, _ = sr.postings("spark")
    urls = sr.doc_meta["url"].take(docs[::4]).to_pylist()
    assert delete_by_url(idx, urls) == len(urls) > 0
    return idx


def test_search_surfaces_agree(tombstoned_index, ray_session):
    """Every top-k surface gives the same (doc_id, score) list and total:
    Searcher.search, search_after paged to the same depth,
    search_distributed, SearcherPool.search and the top of
    search_all_matches, over 5 segments with tombstones in one."""
    from lucene_kmp_ray.search.ray_search import SearcherPool

    idx, k = tombstoned_index, 10
    reader = IndexReader(idx)
    assert len(reader.segment_readers) >= 3
    assert [sr.tombstones is not None for sr in reader.segment_readers] \
        == [False, False, True, False, False]
    local = Searcher(reader, BM25Similarity(dtype="float64"))
    dist = search_distributed(idx, PARITY_QUERIES, k=k,
                              dtype="float64").to_pandas()
    pool = SearcherPool(idx, num_actors=2, dtype="float64")
    try:
        pooled = pool.search(PARITY_QUERIES, k=k)
    finally:
        pool.shutdown()
    for qid, q in PARITY_QUERIES.items():
        td = local.search(q, k=k)
        want = [(h.doc_id, h.score) for h in td.score_docs]
        assert len(want) == k, qid

        paged, after = [], None
        for size in (3, 3, 3, 1):
            page = local.search_after(after, q, k=size)
            assert page.total_hits == td.total_hits, qid
            paged += page.score_docs
            after = page.score_docs[-1]
        assert [(h.doc_id, h.score) for h in paged] == want, qid

        for name, df in (("distributed", dist), ("pool", pooled)):
            got = df[df["query_id"] == qid].sort_values("rank")
            assert got["rank"].tolist() == list(range(1, k + 1)), name
            assert list(zip(got["doc_id"], got["score"])) == want, \
                (qid, name)

        # doc_id ascends with (segment, local doc) in this index, so
        # (score desc, doc_id asc) is the merge order
        every = search_all_matches(idx, q).to_pandas()
        assert len(every) == td.total_hits, qid
        top = every.sort_values(["score", "doc_id"],
                                ascending=[False, True]).head(k)
        assert list(zip(top["doc_id"], top["score"])) == want, qid


def test_phrase_freqs_match_exact_phrase(tombstoned_index, ray_session):
    """phrase_freqs_distributed == the per-segment exact-phrase freqs
    with deleted docs removed."""
    from lucene_kmp_ray.search.searcher import _exact_phrase

    terms = ["batch", "batch"]
    want = {}
    for sr in IndexReader(tombstoned_index).segment_readers:
        docs, freqs = _exact_phrase(sr, terms)
        if sr.tombstones is not None:
            live = ~np.isin(docs, sr.tombstones)
            docs, freqs = docs[live], freqs[live]
        want.update(zip(sr.doc_meta["doc_id"].take(docs).to_pylist(),
                        freqs.tolist()))
    df = phrase_freqs_distributed(tombstoned_index, terms).to_pandas()
    assert df["freq"].dtype == np.int64
    assert dict(zip(df["doc_id"], df["freq"])) == want
    assert len(df) == len(want) > 0


def test_searcher_pool_opened_on_empty_index(ray_session, built_index,
                                             tmp_path):
    """A pool opened before any segment is committed holds one actor
    with an empty slice; refresh() hands it the segments committed
    later, and shutdown() leaves no actor that answers."""
    import shutil

    import ray

    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.search.ray_search import SearcherPool

    idx = str(tmp_path / "idx")
    (tmp_path / "idx").mkdir()
    commit_index(idx, [])
    pool = SearcherPool(idx, num_actors=2)
    actors = list(pool._actors)
    try:
        assert len(actors) == 1
        assert pool.search({"q": TermQuery("spark")}, k=3).empty
        shutil.copytree(built_index, idx, dirs_exist_ok=True)
        assert pool.refresh() is True
        got = pool.search({"q": TermQuery("spark")}, k=3)
        want = Searcher(IndexReader(idx)).search(TermQuery("spark"), k=3)
        assert got["doc_id"].tolist() == [h.doc_id for h in want.score_docs]
        assert got["rank"].tolist() == [1, 2, 3]
    finally:
        pool.shutdown()
    for a in actors:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(a.search.remote({}, 1), timeout=60)


def test_searcher_pool_shutdown_has_a_deadline(ray_session, built_index,
                                               monkeypatch):
    """An actor that outlives its kill makes shutdown() raise once the
    deadline passes instead of waiting for ever."""
    import ray

    from lucene_kmp_ray.search import ray_search

    pool = ray_search.SearcherPool(built_index, num_actors=1)
    actors = list(pool._actors)
    with monkeypatch.context() as mp:
        mp.setattr(ray, "kill", lambda actor: None)
        mp.setattr(ray_search, "_SHUTDOWN_TIMEOUT_S", 0.0)
        with pytest.raises(TimeoutError, match="still alive"):
            pool.shutdown()
    assert pool._actors == actors
    pool.shutdown()
    assert pool._actors == []
