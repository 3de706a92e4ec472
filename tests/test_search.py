"""Search correctness: golden assertions in the style of the reference's
TestSearch.kt / TestBooleanQuery.kt (hit counts, FILTER score-invariance,
MUST_NOT exclusion, phrase hits) plus brute-force BM25 rank/score identity."""
from collections import Counter

import numpy as np
import pytest

from lucene_kmp_ray.analysis import tokenize
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, MatchAllDocsQuery, Occur,
                                   PhraseQuery, Searcher, TermQuery)
from lucene_kmp_ray.similarity.bm25 import BM25Similarity
from lucene_kmp_ray.util.smallfloat import int_to_byte4_np


@pytest.fixture(scope="module")
def searcher(built_index):
    return Searcher(IndexReader(built_index))


@pytest.fixture(scope="module")
def brute(corpus_texts):
    tfs = [Counter(tokenize(t)) for t in corpus_texts]
    lens = np.array([sum(c.values()) for c in tfs])
    return tfs, lens, int_to_byte4_np(lens)


def _brute_topk(tfs, lens, norms, term, k=10):
    N = len(tfs)
    docs = np.array([i for i, c in enumerate(tfs) if term in c], dtype=np.int64)
    freqs = np.array([tfs[i][term] for i in docs])
    sc = BM25Similarity().scorer(1.0, N, int(lens.sum()),
                                 [len(docs)])
    scores = sc.score(freqs, norms[docs])
    order = np.lexsort((docs, -scores.astype(np.float64)))[:k]
    return [(int(docs[i]), float(scores[i])) for i in order], len(docs)


@pytest.mark.parametrize("term", ["spark", "join", "window", "the", "scan"])
def test_term_query_rank_and_score_identical(searcher, brute, term):
    tfs, lens, norms = brute
    exp, total = _brute_topk(tfs, lens, norms, term)
    td = searcher.search(TermQuery(term), k=10)
    assert td.total_hits == total
    assert [(h.doc_id, h.score) for h in td.score_docs] == exp


def test_missing_term(searcher):
    td = searcher.search(TermQuery("zzzznotaterm"), k=10)
    assert td.total_hits == 0 and td.score_docs == []


def test_match_all(searcher, corpus_texts):
    assert searcher.count(MatchAllDocsQuery()) == len(corpus_texts)


def test_boolean_must(searcher, brute):
    tfs, _, _ = brute
    q = BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                           (Occur.MUST, TermQuery("join")))
    exp = sum(1 for c in tfs if "spark" in c and "join" in c)
    assert searcher.search(q, k=5).total_hits == exp
    # MUST score == sum of term scores
    td = searcher.search(q, k=3)
    t1 = {h.doc_id: h.score for h in
          searcher.search(TermQuery("spark"), k=500).score_docs}
    t2 = {h.doc_id: h.score for h in
          searcher.search(TermQuery("join"), k=500).score_docs}
    for h in td.score_docs:
        assert h.score == pytest.approx(
            np.float32(t1[h.doc_id]) + np.float32(t2[h.doc_id]), rel=1e-6)


def test_boolean_should_and_must_not(searcher, brute):
    tfs, _, _ = brute
    q = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                           (Occur.SHOULD, TermQuery("join")),
                           (Occur.MUST_NOT, TermQuery("window")))
    exp = sum(1 for c in tfs
              if ("spark" in c or "join" in c) and "window" not in c)
    td = searcher.search(q, k=5)
    assert td.total_hits == exp
    # excluded docs really excluded
    win = {h.doc_id for h in searcher.search(TermQuery("window"), k=500).score_docs}
    assert all(h.doc_id not in win for h in td.score_docs)


def test_filter_clause_behaves_like_must_without_scoring(searcher, brute):
    """TestBooleanQuery.kt:404 + :497 — FILTER matches like MUST but does
    not change the score."""
    tfs, _, _ = brute
    must = BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                              (Occur.MUST, TermQuery("join")))
    filt = BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                              (Occur.FILTER, TermQuery("join")))
    td_m = searcher.search(must, k=500)
    td_f = searcher.search(filt, k=500)
    assert td_m.total_hits == td_f.total_hits  # same matches
    spark = {h.doc_id: h.score for h in
             searcher.search(TermQuery("spark"), k=500).score_docs}
    for h in td_f.score_docs:
        assert h.score == spark[h.doc_id]  # score = spark-only score


def test_pure_negation_matches_nothing(searcher):
    q = BooleanQuery.build((Occur.MUST_NOT, TermQuery("spark")))
    assert searcher.search(q, k=5).total_hits == 0


def test_minimum_should_match(searcher, brute):
    tfs, _, _ = brute
    q = BooleanQuery(
        (( Occur.SHOULD, TermQuery("spark")),
         (Occur.SHOULD, TermQuery("join")),
         (Occur.SHOULD, TermQuery("scan"))), minimum_should_match=2)
    exp = sum(1 for c in tfs
              if sum(t in c for t in ("spark", "join", "scan")) >= 2)
    assert searcher.search(q, k=5).total_hits == exp


def test_phrase_query(searcher, corpus_texts):
    td = searcher.search(PhraseQuery(("batch", "batch")), k=5)
    exp = sum(1 for t in corpus_texts
              if any(a == "batch" and b == "batch"
                     for a, b in zip(tokenize(t), tokenize(t)[1:])))
    assert td.total_hits == exp
    assert all(h.score > 0 for h in td.score_docs)


def test_phrase_three_terms(searcher, corpus_texts):
    phr = ("key", "order", "sort")
    td = searcher.search(PhraseQuery(phr), k=10)

    def has(t):
        toks = tokenize(t)
        return any(tuple(toks[i:i + 3]) == phr for i in range(len(toks) - 2))
    assert td.total_hits == sum(1 for t in corpus_texts if has(t))


def test_tie_break_order(searcher):
    """Equal scores → segment asc then local doc asc (TopDocs.kt:166-207)."""
    td = searcher.search(TermQuery("the"), k=50)
    hits = [(h.score, h.seg, h.doc) for h in td.score_docs]
    assert hits == sorted(hits, key=lambda x: (-x[0], x[1], x[2]))


def test_search_has_no_prune_option(searcher):
    """One top-k path: a ``prune`` argument is refused, not ignored."""
    with pytest.raises(TypeError):
        searcher.search(TermQuery("spark"), k=5, prune=True)


def test_boost_query(searcher):
    from lucene_kmp_ray.search import BoostQuery
    base = searcher.search(TermQuery("spark"), k=5)
    boosted = searcher.search(BoostQuery(TermQuery("spark"), 2.0), k=5)
    assert [h.doc_id for h in base.score_docs] == \
        [h.doc_id for h in boosted.score_docs]
    for hb, h in zip(boosted.score_docs, base.score_docs):
        assert hb.score == pytest.approx(2 * h.score, rel=1e-5)


def test_explain_matches_score(searcher):
    from lucene_kmp_ray.search import BooleanQuery, Occur, TermQuery
    td = searcher.search(TermQuery("spark"), k=3)
    for h in td.score_docs:
        ex = searcher.explain(TermQuery("spark"), h.doc_id)
        assert ex["value"] == pytest.approx(h.score, abs=0)
        assert any("idf" in d["description"] for d in ex["details"])
    q = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                           (Occur.SHOULD, TermQuery("join")))
    td2 = searcher.search(q, k=1)
    ex2 = searcher.explain(q, td2.score_docs[0].doc_id)
    assert ex2["value"] == td2.score_docs[0].score
    assert searcher.explain(TermQuery("zzz"), 0)["value"] == 0.0

    # explain gates boolean clauses like search: a missed MUST or FILTER
    # clause or a matched MUST_NOT clause leaves the doc unmatched
    def hit_ids(q):
        return {h.doc_id: h.score
                for h in searcher.search(q, k=1000).score_docs}

    spark, join = hit_ids(TermQuery("spark")), hit_ids(TermQuery("join"))
    docs = (sorted(spark.keys() - join.keys())[:3]
            + sorted(spark.keys() & join.keys())[:3])
    for q in (BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                 (Occur.MUST, TermQuery("join"))),
              BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                 (Occur.MUST_NOT, TermQuery("join"))),
              BooleanQuery.build((Occur.FILTER, TermQuery("join")),
                                 (Occur.SHOULD, TermQuery("spark")))):
        scores = hit_ids(q)
        for d in docs:
            assert searcher.explain(q, d)["value"] == scores.get(d, 0.0)


def _ann_recall(brute, approx) -> float:
    recalls = []
    for qid in brute["query_id"].unique():
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        v = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(b & v) / len(b))
    return sum(recalls) / len(recalls)


def test_ann_ivf_recall(ray_session, tmp_path):
    """IVF recall@10 vs brute force >= 0.9 at the default nprobe on the
    sf0.1 embeddings (near-uniform random — the adversarial case), for
    BOTH the in-stream form and the partitioned cell=N/ layout; the
    partitioned path must agree with the in-stream path exactly (same
    quantizer, same probes — only the read is partition-pruned)."""
    from lucene_kmp_ray.pipelines.ann import (ann_brute_topk,
                                              ann_ivf_partitioned,
                                              ann_ivf_topk)
    sf = "/root/testdata/sf0.1"
    brute = ann_brute_topk(sf).to_pandas()
    ivf = ann_ivf_topk(sf).to_pandas()
    assert _ann_recall(brute, ivf) >= 0.9
    part = ann_ivf_partitioned(sf, index_dir=str(tmp_path / "ivf")) \
        .to_pandas()
    a = ivf.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = part.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a["vec_id"].tolist() == b["vec_id"].tolist()
    import numpy as np
    assert np.allclose(a["score"], b["score"])


def test_ann_lsh_multiprobe_improves_recall(ray_session):
    """Multi-probe LSH (Hamming-ring bucket expansion) must recover
    strictly more of the brute-force top-10 than single-bucket LSH."""
    from lucene_kmp_ray.pipelines.ann import ann_brute_topk, ann_lsh_topk
    sf = "/root/testdata/sf0.1"
    brute = ann_brute_topk(sf).to_pandas()
    single = ann_lsh_topk(sf, probe_hamming=0).to_pandas()
    multi = ann_lsh_topk(sf, probe_hamming=2).to_pandas()
    r1, r2 = _ann_recall(brute, single), _ann_recall(brute, multi)
    assert r2 > r1
    assert r2 >= 0.3  # random embeddings: documented approximate tier


def test_duplicate_should_terms_score_per_clause(searcher):
    """Regression: duplicate SHOULD clauses each score (Lucene
    semantics), not deduplicated."""
    from lucene_kmp_ray.search import BooleanQuery, Occur, TermQuery
    q = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                           (Occur.SHOULD, TermQuery("spark")))
    single = searcher.search(TermQuery("spark"), k=5)
    dup_full = searcher.search(q, k=5)
    # each clause contributes: doubled score vs the single term
    assert dup_full.score_docs[0].score == \
        pytest.approx(2 * single.score_docs[0].score, rel=1e-6)


def test_single_term_phrase_rewrites_to_term(searcher):
    """Regression: PhraseQuery with one term == TermQuery (Lucene rewrite),
    for both slop=0 and slop>0 (the latter used to crash)."""
    from lucene_kmp_ray.search import PhraseQuery, TermQuery
    t = searcher.search(TermQuery("spark"), k=5)
    for slop in (0, 2):
        p = searcher.search(PhraseQuery(("spark",), slop=slop), k=5)
        assert [(h.doc_id, h.score) for h in p.score_docs] == \
            [(h.doc_id, h.score) for h in t.score_docs]


def test_search_timeout_returns_partial_lower_bound(searcher):
    """TimeLimitingBulkScorer analog: an already-expired budget yields a
    (possibly empty) partial result with a lower-bound hit count, never an
    exception."""
    from lucene_kmp_ray.search import TermQuery
    td = searcher.search(TermQuery("spark"), k=5, timeout_s=0.0)
    assert td.relation == "GREATER_THAN_OR_EQUAL_TO"
    full = searcher.search(TermQuery("spark"), k=5, timeout_s=60.0)
    assert full.relation == "EQUAL_TO"
    assert full.total_hits == searcher.search(TermQuery("spark"),
                                              k=5).total_hits


def test_knn_vector_query_and_hybrid(ray_session, tmp_path):
    """Index-integrated vector field: KnnFloatVectorQuery matches brute
    cosine top-k; hybrid SHOULD(BM25, KNN) sums per doc; merge carries the
    vector sidecar; tombstones exclude deleted docs from KNN."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.deletes import delete_by_url
    from lucene_kmp_ray.index.merge import force_merge
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (BooleanQuery, KnnFloatVectorQuery,
                                       Occur, Searcher, TermQuery)

    rng = np.random.default_rng(3)
    n, d = 60, 8
    vecs = rng.normal(size=(n, d)).astype(np.float32)
    texts = [f"doc {'spark' if i % 3 == 0 else 'join'} number w{i}"
             for i in range(n)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(n)], pa.string()),
        "text": pa.array(texts, pa.string()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32()))}))
    idx = str(tmp_path / "vec")
    build_index(ds, idx, segment_size=20, vector_col="embedding")

    q = vecs[7].astype(np.float64)
    sims = (vecs.astype(np.float64) @ (q / np.linalg.norm(q))) / \
        np.linalg.norm(vecs.astype(np.float64), axis=1)
    exp_top5 = sorted(np.argsort(-sims)[:5].tolist())

    s = Searcher(IndexReader(idx))
    knn = KnnFloatVectorQuery(tuple(q.tolist()), k=5)
    td = s.search(knn, k=5)
    assert sorted(h.doc_id for h in td.score_docs) == exp_top5
    for h in td.score_docs:
        assert abs(h.score - sims[h.doc_id]) < 1e-6

    # hybrid: scores add for docs in both sets
    hyb = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                             (Occur.SHOULD, knn))
    td_h = s.search(hyb, k=n)
    by_doc = {h.doc_id: h.score for h in td_h.score_docs}
    td_t = {h.doc_id: h.score for h in
            s.search(TermQuery("spark"), k=n).score_docs}
    for doc in exp_top5:
        exp = sims[doc] + td_t.get(doc, 0.0)
        assert abs(by_doc[doc] - exp) < 1e-5, doc

    # merge keeps vectors; KNN result unchanged
    force_merge(idx, max_segments=1)
    s2 = Searcher(IndexReader(idx))
    td2 = s2.search(knn, k=5)
    assert sorted(h.doc_id for h in td2.score_docs) == exp_top5

    # tombstoned docs leave the KNN result
    best = int(np.argmax(sims))
    delete_by_url(idx, [f"u{best}"])
    s3 = Searcher(IndexReader(idx))
    td3 = s3.search(knn, k=5)
    assert best not in {h.doc_id for h in td3.score_docs}


def test_search_after_pagination(built_index):
    """searchAfter: pages tile the full ranking exactly, no overlaps."""
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import Searcher, TermQuery

    s = Searcher(IndexReader(built_index))
    q = TermQuery("the")
    full = s.search(q, k=30).score_docs
    p1 = s.search_after(None, q, k=10).score_docs
    p2 = s.search_after(p1[-1], q, k=10).score_docs
    p3 = s.search_after(p2[-1], q, k=10).score_docs
    paged = [(h.doc_id, round(h.score, 7)) for h in p1 + p2 + p3]
    assert paged == [(h.doc_id, round(h.score, 7)) for h in full]


def test_fetch_documents_row_store(built_index):
    from lucene_kmp_ray.sources.corpus import fetch_documents
    t = fetch_documents("/root/testdata/sf0.001", [5, 3, 499],
                        columns=["doc_id", "url", "title"])
    assert t["doc_id"].to_pylist() == [3, 5, 499]
    assert all(u.startswith("https://") for u in t["url"].to_pylist())


def test_open_if_changed(ray_session, tmp_path):
    """DirectoryReader.openIfChanged: None while unchanged; a new reader
    after a merge commit changes the manifest."""
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.merge import force_merge
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.sources.corpus import corpus_dataset

    idx = str(tmp_path / "nrt")
    build_index(corpus_dataset("/root/testdata/sf0.001"), idx,
                segment_size=100)
    r = IndexReader(idx)
    assert r.open_if_changed() is None
    force_merge(idx, max_segments=1)
    r2 = r.open_if_changed()
    assert r2 is not None and len(r2.segment_readers) == 1
    assert len(r.segment_readers) == 5  # old snapshot untouched


def test_random_boolean_equivalence_fuzz(built_index, corpus_texts):
    """TestBoolean2-style randomized battery: random boolean trees over
    random terms — engine matches a brute-force set/score oracle."""
    import random

    from lucene_kmp_ray.analysis import tokenize
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (BooleanQuery, Occur, Searcher,
                                       TermQuery)
    from lucene_kmp_ray.similarity.bm25 import BM25Similarity

    toks = [set(tokenize(t)) for t in corpus_texts]
    vocab = sorted(set().union(*toks))
    s = Searcher(IndexReader(built_index), BM25Similarity(dtype="float64"))
    rng = random.Random(1234)

    def brute(q):
        if isinstance(q, TermQuery):
            return {i for i, t in enumerate(toks) if q.term in t}
        must = [brute(sub) for occ, sub in q.clauses if occ == Occur.MUST]
        should = [brute(sub) for occ, sub in q.clauses
                  if occ == Occur.SHOULD]
        nots = [brute(sub) for occ, sub in q.clauses
                if occ == Occur.MUST_NOT]
        if must:
            out = set.intersection(*must)
            if should and q.minimum_should_match > 0:
                out = {d for d in out
                       if sum(d in x for x in should)
                       >= q.minimum_should_match}
        elif should:
            out = {d for d in set().union(*should)
                   if sum(d in x for x in should)
                   >= max(1, q.minimum_should_match)}
        else:
            return set()
        if q.minimum_should_match > len(should):
            return set()
        for x in nots:
            out -= x
        return out

    for trial in range(25):
        n_cl = rng.randint(2, 4)
        clauses = []
        for _ in range(n_cl):
            occ = rng.choice([Occur.MUST, Occur.SHOULD, Occur.SHOULD,
                              Occur.MUST_NOT])
            clauses.append((occ, TermQuery(rng.choice(vocab))))
        if all(o == Occur.MUST_NOT for o, _ in clauses):
            clauses[0] = (Occur.MUST, clauses[0][1])
        msm = rng.randint(0, 2)
        q = BooleanQuery(tuple(clauses), minimum_should_match=msm)
        got = {h.doc_id for h in s.search(q, k=10_000).score_docs}
        assert got == brute(q), (trial, q)


def test_count_fast_paths(built_index, corpus_texts):
    """Sub-linear count shortcuts (Weight#count role): term count == df
    from stats, match-all == docCount; deletes force the exact walk."""
    from lucene_kmp_ray.analysis import tokenize
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (MatchAllDocsQuery, Searcher,
                                       TermQuery)

    s = Searcher(IndexReader(built_index))
    exp = sum(1 for t in corpus_texts if "spark" in tokenize(t))
    assert s.count(TermQuery("spark")) == exp
    assert s.count(MatchAllDocsQuery()) == len(corpus_texts)


def test_count_honors_deletes(ray_session, tmp_path):
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.index.deletes import delete_by_url
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (MatchAllDocsQuery, Searcher,
                                       TermQuery)
    from lucene_kmp_ray.sources.corpus import corpus_dataset, corpus_table

    idx = str(tmp_path / "cnt")
    build_index(corpus_dataset("/root/testdata/sf0.001"), idx,
                segment_size=100)
    s = Searcher(IndexReader(idx))
    before = s.count(TermQuery("spark"))
    ct = corpus_table("/root/testdata/sf0.001")
    # delete one doc that contains 'spark' (doc 49, r1's top hit)
    delete_by_url(idx, [ct["url"][49].as_py()])
    s2 = Searcher(IndexReader(idx))
    assert s2.count(TermQuery("spark")) == before - 1
    assert s2.count(MatchAllDocsQuery()) == 499
