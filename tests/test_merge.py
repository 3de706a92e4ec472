"""Tiered merge: policy geometry + k-way segment merge equivalence.

Assertion style follows the reference's TestAddIndexes / TestDuelingCodecs
(SURVEY §5): a merged index must be *query-equivalent* to the unmerged one
(identical stats, postings, and top-k docIDs+scores), and a full merge must
be bit-equivalent to a single-segment build of the same corpus.
"""

import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_kmp_ray.index.builder import build_index
from lucene_kmp_ray.index.merge import find_merges, force_merge, run_merges
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery, Searcher,
                                   TermQuery)
from lucene_kmp_ray.sources.corpus import corpus_dataset

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def built(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("merge")
    many = str(base / "many")
    one = str(base / "one")
    build_index(corpus_dataset(SF), many, segment_size=50)   # 10 segments
    build_index(corpus_dataset(SF), one, segment_size=10_000)  # 1 segment
    return many, one


def _topk(index_dir, query, k=10):
    td = Searcher(IndexReader(index_dir)).search(query, k=k)
    return [(h.doc_id, h.score) for h in td.score_docs], td.total_hits


def test_find_merges_geometry():
    segs = [{"seg": i, "doc_count": 1000} for i in range(25)]
    plans = find_merges(segs, segments_per_tier=10, floor_docs=1000)
    assert plans, "25 equal segments at tier=10 must trigger a merge"
    for g in plans:
        assert 2 <= len(g) <= 10
    chosen = [s for g in plans for s in g]
    assert len(chosen) == len(set(chosen)), "a segment merges at most once"

    # under budget → no merges
    assert find_merges(segs[:5], segments_per_tier=10, floor_docs=1000) == []

    # max_merged_docs caps candidate size
    plans = find_merges(segs, segments_per_tier=2, floor_docs=1000,
                        max_merged_docs=3000)
    assert all(sum(1000 for _ in g) <= 3000 for g in plans)


def test_merge_preserves_search(built):
    many, one = built
    work = many + "_copy"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(many, work)

    queries = {
        "t": TermQuery("spark"),
        "and": BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                  (Occur.MUST, TermQuery("join"))),
        "not": BooleanQuery.build((Occur.MUST, TermQuery("the")),
                                  (Occur.MUST_NOT, TermQuery("spark"))),
        "ph": PhraseQuery(("batch", "batch")),
    }
    # merge changes segment ids, so equal-score TIES may legally reorder
    # (exactly as in Lucene: tie-break is by (seg, doc)). The invariant is
    # the full per-doc score map — compare every hit, sorted by
    # (score desc, doc_id) which is merge-independent.
    before = {k: _topk(work, q, k=1000) for k, q in queries.items()}

    man = run_merges(work, merges=[[0, 1, 2], [3, 4]])
    assert len(man["segments"]) == 10 - 5 + 2
    after = {k: _topk(work, q, k=1000) for k, q in queries.items()}
    for k in queries:
        (h0, n0), (h1, n1) = before[k], after[k]
        assert n0 == n1
        key = lambda h: sorted((-s, d) for d, s in h)  # noqa: E731
        assert key(h0) == key(h1)  # float-identical scores, same docs


def test_force_merge_matches_single_segment_build(built):
    many, one = built
    work = many + "_force"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(many, work)
    man = force_merge(work, max_segments=1)
    assert len(man["segments"]) == 1

    # merged segment must equal the from-scratch single-segment build,
    # column for column (terms, postings bytes, norms)
    seg_m = man["segments"][0]["dir"]
    with open(f"{one}/manifest.json") as f:
        import json
        seg_1 = json.load(f)["segments"][0]["dir"]
    from lucene_kmp_ray.index.postings import DOC_FILE, POS_FILE, TERMS_FILE
    for f in (TERMS_FILE, DOC_FILE, POS_FILE):
        assert open(f"{work}/{seg_m}/{f}", "rb").read() == \
            open(f"{one}/{seg_1}/{f}", "rb").read(), f
    dm = pq.read_table(f"{work}/{seg_m}/docs.parquet")
    d1 = pq.read_table(f"{one}/{seg_1}/docs.parquet")
    assert dm.equals(d1)

    # global stats invariant under merge
    with open(f"{work}/manifest.json") as f:
        import json
        mw = json.load(f)
    with open(f"{many}/manifest.json") as f:
        mo = json.load(f)
    for k in ("doc_count", "sum_total_term_freq", "sum_doc_freq"):
        assert mw[k] == mo[k]


def test_add_indexes(built, tmp_path, ray_session):
    """addIndexes analog (IndexWriter.kt:3040): source segments copy in
    under fresh ids and global stats re-aggregate over the union. (Key
    disjointness is the caller's contract, as in Lucene; here both sides
    cover the same corpus, so every global stat must exactly double.)"""
    import json
    import shutil as sh

    from lucene_kmp_ray.index.merge import add_indexes
    many, one = built
    dest = str(tmp_path / "dest")
    sh.copytree(many, dest)
    man = add_indexes(dest, [one])
    assert len(man["segments"]) == 10 + 1
    with open(f"{many}/manifest.json") as f:
        orig = json.load(f)
    for k in ("doc_count", "sum_total_term_freq", "sum_doc_freq"):
        assert man[k] == 2 * orig[k]
    from lucene_kmp_ray.index.builder import global_term_stats
    ts_dest = global_term_stats(dest)
    ts_one = global_term_stats(one)
    assert ts_dest["term"].to_pylist() == ts_one["term"].to_pylist()
    assert [2 * v for v in ts_one["df"].to_pylist()] == \
        ts_dest["df"].to_pylist()
    # the added segment is queryable through the normal reader
    td = Searcher(IndexReader(dest)).search(TermQuery("spark"), k=5)
    assert td.total_hits == 2 * 387


def test_find_merges_never_plans_nonexistent_segments():
    """Regression: an in-round planned merge's placeholder must never be
    selected into a later merge of the same round (it has no segment id
    yet — an in-flight merge is not a candidate)."""
    segs = [{"seg": i, "doc_count": 1000} for i in range(60)]
    for tier in (2, 3, 10):
        plans = find_merges(segs, segments_per_tier=tier, floor_docs=1000,
                            max_merged_docs=10_000)
        for g in plans:
            assert all(0 <= s < 60 for s in g), (tier, g)
        flat = [s for g in plans for s in g]
        assert len(flat) == len(set(flat))


def test_multi_round_merge_keeps_doc_order(built, tmp_path, ray_session):
    """Regression: merging non-contiguous segment ids (normal after one
    round) must keep the merged doc table doc_id-ascending — readers
    binary-search doc_id (explain) and manifests record min/max."""
    import json
    import shutil as sh

    from lucene_kmp_ray.search import TermQuery
    many, _ = built
    work = str(tmp_path / "rounds")
    sh.copytree(many, work)
    run_merges(work, merges=[[0, 2]])   # -> seg 10 (docs 0-49, 100-149)
    man = run_merges(work, merges=[[1, 10]])  # -> seg 11 (0-149)
    seg_dir = [m["dir"] for m in man["segments"] if m["seg"] == 11][0]
    ids = pq.read_table(f"{work}/{seg_dir}/docs.parquet")["doc_id"] \
        .to_pylist()
    assert ids == sorted(ids)
    with open(f"{work}/{seg_dir}/manifest.json") as f:
        sm = json.load(f)
    assert sm["doc_id_min"] == min(ids) and sm["doc_id_max"] == max(ids)
    s = Searcher(IndexReader(work))
    td = s.search(TermQuery("spark"), k=3)
    ex = s.explain(TermQuery("spark"), td.score_docs[0].doc_id)
    assert ex["value"] == pytest.approx(td.score_docs[0].score, abs=0)


def test_delete_by_url_and_merge_reclaim(ray_session, tmp_path):
    """Tombstone sidecar (liveDocs analog): deletes exclude docs from every
    search path immediately; a merge reclaims them physically (docs gone
    from docs.parquet, postings filtered, no tombstone files survive) with
    identical search results before and after — Lucene90LiveDocsFormat /
    DocIDMerger semantics."""
    import os

    import pyarrow.parquet as pq

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.check import check_index
    from lucene_kmp_ray.index.deletes import delete_by_url, read_tombstones
    from lucene_kmp_ray.index.merge import force_merge
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import Searcher, TermQuery
    from lucene_kmp_ray.sources.corpus import corpus_dataset, corpus_table

    idx = str(tmp_path / "delidx")
    build_index(corpus_dataset("/root/testdata/sf0.001"), idx,
                segment_size=100)
    s = Searcher(IndexReader(idx))
    before = {h.doc_id for h in s.search(TermQuery("spark"), k=10_000)
              .score_docs}

    corpus = corpus_table("/root/testdata/sf0.001")
    urls = [u for d, u in zip(corpus["doc_id"].to_pylist(),
                              corpus["url"].to_pylist()) if d % 7 == 0]
    n = delete_by_url(idx, urls)
    assert n == len(urls)
    # idempotent
    assert delete_by_url(idx, urls) == len(urls)

    s2 = Searcher(IndexReader(idx))
    after = {h.doc_id for h in s2.search(TermQuery("spark"), k=10_000)
             .score_docs}
    assert after == {d for d in before if d % 7 != 0}
    td = s2.search(TermQuery("the"), k=10_000)
    assert all(h.doc_id % 7 != 0 for h in td.score_docs)
    # stats unchanged until merge (Lucene: deletes don't touch stats)
    assert s2.reader.doc_count == 500

    man = force_merge(idx, max_segments=1)
    assert man["doc_count"] == 500 - len(urls)
    s3 = Searcher(IndexReader(idx))
    merged = {h.doc_id for h in s3.search(TermQuery("spark"), k=10_000)
              .score_docs}
    assert merged == after
    seg_dir = os.path.join(idx, man["segments"][0]["dir"])
    assert read_tombstones(seg_dir) is None
    docs_t = pq.read_table(os.path.join(seg_dir, "docs.parquet"))
    assert all(d % 7 != 0 for d in docs_t["doc_id"].to_pylist())
    rep = check_index(idx, parallel=False)
    assert rep["ok"], rep["errors"]


def test_delete_merge_bit_equivalent_to_filtered_rebuild(ray_session,
                                                         tmp_path):
    """Strong reclaim invariant: delete a random url subset, force-merge
    to one segment — the result must be BIT-IDENTICAL (terms + docs
    parquet) to a fresh single-segment build over only the surviving
    docs. Exercises docID rebase, posting-entry filtering, position-run
    gathers and per-field stats through the reclaim path."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.deletes import delete_by_url
    from lucene_kmp_ray.index.merge import force_merge
    from lucene_kmp_ray.sources.corpus import corpus_table

    corpus = corpus_table("/root/testdata/sf0.001").sort_by("doc_id")
    rng = random.Random(99)
    dead = sorted(rng.sample(range(corpus.num_rows), 120))
    dead_set = set(dead)

    # path A: build all, delete, merge-reclaim
    idx_a = str(tmp_path / "a")
    build_index(rd.from_arrow(corpus.select(["doc_id", "url", "text",
                                             "title"])),
                idx_a, segment_size=100, fields=("text", "title"))
    delete_by_url(idx_a, [corpus["url"][d].as_py() for d in dead])
    man_a = force_merge(idx_a, max_segments=1)

    # path B: fresh build over survivors only
    keep = pa.array([i for i in range(corpus.num_rows)
                     if i not in dead_set])
    idx_b = str(tmp_path / "b")
    build_index(rd.from_arrow(corpus.take(keep).select(
        ["doc_id", "url", "text", "title"])),
        idx_b, segment_size=1_000, fields=("text", "title"))

    da = man_a["segments"][0]["dir"]
    with open(f"{idx_a}/manifest.json") as f:
        import json
        db = json.load(open(f"{idx_b}/manifest.json"))["segments"][0]["dir"]
    from lucene_kmp_ray.index.postings import DOC_FILE, POS_FILE, TERMS_FILE
    for f in (TERMS_FILE, DOC_FILE, POS_FILE):
        assert open(f"{idx_a}/{da}/{f}", "rb").read() == \
            open(f"{idx_b}/{db}/{f}", "rb").read(), f
    assert pq.read_table(f"{idx_a}/{da}/docs.parquet").equals(
        pq.read_table(f"{idx_b}/{db}/docs.parquet"))


def test_merge_mixed_vector_segments_keeps_vectors(ray_session, tmp_path):
    """Merging a vector segment with a vector-LESS one (after add_indexes)
    must not drop the existing vectors: missing rows become nulls, the
    reader masks them out of KNN, and the original top-k survives the
    merge."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.merge import add_indexes, force_merge
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import KnnFloatVectorQuery, Searcher

    rng = np.random.default_rng(5)
    n, d = 30, 4
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    ds_vec = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "url": pa.array([f"v{i}" for i in range(n)], pa.string()),
        "text": pa.array([f"spark doc w{i}" for i in range(n)], pa.string()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))}))
    ds_plain = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 120), pa.int64()),
        "url": pa.array([f"p{i}" for i in range(20)], pa.string()),
        "text": pa.array(["plain join doc"] * 20, pa.string())}))

    dest = str(tmp_path / "dest")
    src = str(tmp_path / "src")
    build_index(ds_vec, dest, segment_size=15, vector_col="embedding")
    build_index(ds_plain, src, segment_size=10)

    q = KnnFloatVectorQuery(tuple(vecs[3].astype(float).tolist()), k=5)
    want = [h.doc_id for h in
            Searcher(IndexReader(dest)).search(q, k=5).score_docs]

    add_indexes(dest, [src])
    force_merge(dest, max_segments=1)
    r = IndexReader(dest)
    assert r.doc_count == n + 20
    got = [h.doc_id for h in Searcher(r).search(q, k=5).score_docs]
    assert got == want  # vectors survived; vector-less docs never match


def test_run_merges_log_policy_end_to_end(built):
    """MergePolicy extension surface: run_merges(policy='log_doc') plans
    adjacent-window merges (docID order preserved) and the merged index
    returns float-identical scores; policy='none' is a no-op."""
    from lucene_kmp_ray.index.merge import find_merges_log

    many, _ = built
    work = many + "_logpol"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(many, work)
    before, n0 = _topk(work, TermQuery("spark"), k=1000)

    man0 = run_merges(work, policy="none")
    assert len(man0["segments"]) == 10  # NoMergePolicy: nothing planned

    import json
    with open(f"{work}/manifest.json") as f:
        segs = json.load(f)["segments"]
    planned = find_merges_log(segs, merge_factor=5, min_merge_size=10)
    assert planned and all(m == list(range(m[0], m[-1] + 1))
                           for m in planned)
    man = run_merges(work, policy="log_doc", merge_factor=5,
                     min_merge_size=10)
    assert len(man["segments"]) == 10 - sum(len(m) for m in planned) + \
        len(planned)
    after, n1 = _topk(work, TermQuery("spark"), k=1000)
    assert n0 == n1
    key = lambda h: sorted((-s, d) for d, s in h)  # noqa: E731
    assert key(before) == key(after)


def test_bulk_merge_bit_equivalent_to_python_fallback(built, tmp_path,
                                                     monkeypatch):
    """The C record-to-record merge must produce byte-identical segment
    tables to the per-term numpy merge of tests/_ref_merge.py (same
    index, same merge set), including with deletes to exercise the entry
    filter."""
    import shutil as _sh

    from _ref_merge import numpy_merge

    from lucene_kmp_ray.index.deletes import delete_by_url
    from lucene_kmp_ray.index.format import seg_dirname
    from lucene_kmp_ray.index.merge import merge_segments

    many, _ = built
    idx = str(tmp_path / "bulkeq")
    _sh.copytree(many, idx)
    r = IndexReader(idx)
    urls = [sr.doc_meta["url"][0].as_py() for sr in r.segment_readers[:3]]
    delete_by_url(idx, urls, parallel=False)
    segs = [sr.seg for sr in r.segment_readers[:4]]

    merge_segments(idx, segs, 900)          # C record merge
    numpy_merge(monkeypatch)
    merge_segments(idx, segs, 901)          # the reference
    for f in ("terms.parquet", "docs.parquet"):
        a = pq.read_table(f"{idx}/segments/{seg_dirname(900)}/{f}")
        b = pq.read_table(f"{idx}/segments/{seg_dirname(901)}/{f}")
        assert a.equals(b), f
    for f in ("postings.doc", "postings.pos"):
        a = open(f"{idx}/segments/{seg_dirname(900)}/{f}", "rb").read()
        b = open(f"{idx}/segments/{seg_dirname(901)}/{f}", "rb").read()
        assert a == b, f
