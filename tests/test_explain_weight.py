"""explain, matches and count read a query through the search Weight
(the CheckHits.checkExplanations contract): every top-k hit's
explanation value is its score bit for bit in float32 and float64, each
boolean node's clause values combine to the node's value in the bulk
scorer's order, ``matches`` holds exactly the hits, a deleted doc
matches no query, and ``count`` takes its shortcuts per segment."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest
from conftest import SF_DIR

from lucene_kmp_ray.index.builder import commit_index
from lucene_kmp_ray.index.deletes import delete_by_url, delete_segment_urls
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.index.reader import IndexReader, SegmentReader
from lucene_kmp_ray.search import (BlendedTermQuery, BooleanQuery,
                                   BoostQuery, CombinedFieldQuery,
                                   ConstantScoreQuery, DisjunctionMaxQuery,
                                   FeatureQuery, GeoDistanceFeatureQuery,
                                   IndexOrDocValuesQuery, IndriAndQuery,
                                   KnnFloatVectorQuery,
                                   LongDistanceFeatureQuery,
                                   MatchAllDocsQuery, MultiPhraseQuery,
                                   NGramPhraseQuery, Occur, PhraseQuery,
                                   PrefixQuery, RangeFilterQuery, Searcher,
                                   SynonymQuery, TermQuery)
from lucene_kmp_ray.search.spans import SpanNearQuery, SpanTermQuery
from lucene_kmp_ray.similarity.bm25 import BM25Similarity

N_DOCS = 120  # per segment
VOCAB = [f"w{i:02d}" for i in range(24)]
DIM = 6
T = TermQuery


def _docs(seg, rng):
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    p /= p.sum()
    texts = []
    for _ in range(N_DOCS):
        words = list(rng.choice(VOCAB, int(rng.integers(4, 30)), p=p))
        if rng.random() < 0.4:  # phrase, n-gram and span hits
            at = int(rng.integers(0, len(words)))
            words[at:at] = ["w00", "w01", "w02"]
        texts.append(" ".join(words))
    base = seg * N_DOCS
    n = N_DOCS
    return pa.table({
        "doc_id": pa.array(range(base, base + n), pa.int64()),
        "url": [f"u{base + i}" for i in range(n)],
        "text": texts,
        "title": [" ".join(rng.choice(VOCAB[:8], 3)) for _ in range(n)],
        "lval": pa.array(rng.integers(0, 100, n), pa.int64()),
        "feat": pa.array(np.where(rng.random(n) < 0.3, 0.0,
                                  rng.random(n) * 5)),
        "lat": pa.array(rng.uniform(-1, 1, n)),
        "lon": pa.array(rng.uniform(-1, 1, n)),
        "embedding": pa.array([v.tolist() for v in
                               rng.normal(size=(n, DIM)).astype(np.float32)],
                              pa.list_(pa.float32()))})


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    rng = np.random.default_rng(11)
    root = str(tmp_path_factory.mktemp("explain") / "idx")
    mans = [build_and_write_segment(
        _docs(seg, rng), seg, root, fields=("text", "title"),
        vector_col="embedding", meta_cols=("lval", "feat", "lat", "lon"))
        for seg in range(3)]
    commit_index(root, mans)
    # tombstones in the middle segment
    delete_segment_urls(os.path.join(root, "segments", "seg=00001"),
                        [f"u{N_DOCS + i}" for i in range(0, N_DOCS, 5)])
    return root


def _queries():
    w0, w1, w2, w3, w5 = (T(w) for w in ("w00", "w01", "w02", "w03", "w05"))
    phrase = PhraseQuery(("w00", "w01"))
    knn = KnnFloatVectorQuery((0.3, -1.0, 0.5, 0.2, 0.0, 0.7), k=15)
    leaves = {
        "term": w1,
        "phrase": phrase,
        "sloppy_phrase": PhraseQuery(("w00", "w02"), slop=2),
        "ngram_phrase": NGramPhraseQuery(2, ("w00", "w01", "w02")),
        "multi_phrase": MultiPhraseQuery((("w00", "w03"), ("w01",))),
        "span": SpanNearQuery((SpanTermQuery("w01"), SpanTermQuery("w03")),
                              3, False),
        "boost": BoostQuery(w2, 2.5),
        "constant_score": BoostQuery(ConstantScoreQuery(w1), 1.5),
        "index_or_dv": IndexOrDocValuesQuery(
            RangeFilterQuery("lval", 20, 60), RangeFilterQuery("lval", 20,
                                                               60)),
        "dismax": DisjunctionMaxQuery((w1, T("w01", "title"), w3), 0.3),
        "synonym": SynonymQuery(("w01", "w05")),
        "combined_field": CombinedFieldQuery(
            ("w01",), (("text", 1.0), ("title", 2.0))),
        "blended": BlendedTermQuery((("w01", "text", 1.0),
                                     ("w01", "title", 1.0))),
        "indri_and": IndriAndQuery((("w01", "text", 1.0),
                                    ("w03", "text", 2.0))),
        "feature": FeatureQuery("feat", 1.5, 2.0),
        "long_distance": LongDistanceFeatureQuery("lval", 50, 10, 2.0),
        "geo_distance": GeoDistanceFeatureQuery(0.0, 0.0, 50_000.0,
                                                weight=2.0),
        "knn": knn,
        "doc_set": PrefixQuery("w1"),
    }
    B = BooleanQuery.build
    S, M, F, N = Occur.SHOULD, Occur.MUST, Occur.FILTER, Occur.MUST_NOT
    booleans = {
        "and2": B((M, w1), (M, w2)),
        "or3": B((S, w1), (S, w3), (S, w5)),
        "or3_boosted": B((S, BoostQuery(w1, 2.5)), (S, w3), (S, w5)),
        "must_should_not": B((M, w1), (S, w2), (S, w3), (N, w5)),
        "filter_msm": B((F, w0), (S, w1), (S, w3), (S, w5),
                        minimum_should_match=2),
        "phrase_term": B((S, phrase), (S, w3)),
        "nested": B((M, B((S, w1), (S, w3))), (S, w5),
                    (S, B((M, w2), (M, w3)))),
        "nested_boosted": B((S, BoostQuery(B((M, w1), (S, w2)), 2.0)),
                            (M, B((S, phrase), (S, w5), (S, w3)))),
        "hybrid": B((S, w1), (S, knn), (S, FeatureQuery("feat")),
                    (F, RangeFilterQuery("lval", 10, 90))),
    }
    return {**leaves, **booleans}


QUERIES = _queries()


def _check_boolean(s, q, ex, doc_id, dt):
    """A boolean node's details are the explanations of its matching
    MUST / SHOULD clauses, in clause order; their values combine to the
    node's value as bulk_score sums: MUST in the dtype from 0, then the
    float64 sum of SHOULD in clause order, cast to the dtype."""
    if not isinstance(q, BooleanQuery):
        return
    scoring = [(occ, sub) for occ, sub in q.clauses
               if occ in (Occur.MUST, Occur.SHOULD)
               and s.matches(sub, doc_id) is not None]
    assert len(ex["details"]) == len(scoring)
    total, should = dt.type(0), []
    for (occ, sub), d in zip(scoring, ex["details"]):
        if occ == Occur.MUST:
            total = total + dt.type(d["value"])
        else:
            should.append(d["value"])
        _check_boolean(s, sub, d, doc_id, dt)
    if should:
        s64 = 0.0
        for v in should:
            s64 += v
        total = total + dt.type(s64)
    assert float(total) == ex["value"]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", list(QUERIES))
def test_explanation_is_the_hit_score(index, name, dtype):
    s = Searcher(IndexReader(index), BM25Similarity(dtype=dtype))
    q = QUERIES[name]
    dt = np.dtype(dtype)
    hits = s.search(q, k=10).score_docs
    assert hits, name
    rq = s.rewrite(q)
    for h in hits:
        ex = s.explain(q, h.doc_id)
        assert ex["value"] == h.score, (name, h.doc_id)
        _check_boolean(s, rq, ex, h.doc_id, dt)
        assert s.matches(q, h.doc_id) is not None, (name, h.doc_id)
    everything = {h.doc_id for h in s.search(q, k=10_000).score_docs}
    miss = next((d for d in range(3 * N_DOCS) if d not in everything),
                None)
    if miss is not None:
        assert s.matches(q, miss) is None
        assert s.explain(q, miss)["value"] == 0.0
    # a deleted doc (u120 of the middle segment) matches nothing
    assert s.matches(q, N_DOCS) is None
    ex = s.explain(q, N_DOCS)
    assert (ex["value"], ex["details"]) == (0.0, [])


def test_term_explanation_details(index):
    s = Searcher(IndexReader(index), BM25Similarity(dtype="float64"))
    h = s.search(T("w03"), k=1).score_docs[0]
    ex = s.explain(T("w03"), h.doc_id)
    idf, freq, dl, avgdl = (d["value"] for d in ex["details"])
    assert ex["value"] == h.score
    sim = BM25Similarity(dtype="float64")
    tf = freq / (freq + sim.k1 * (1 - sim.b + sim.b * dl / avgdl))
    assert ex["value"] == pytest.approx(idf * tf, rel=1e-12)


@pytest.fixture
def deleted_copy(built_index, tmp_path):
    """The sf0.001 index with doc 181 deleted (one tombstone, in one of
    its five segments)."""
    from lucene_kmp_ray.sources.corpus import corpus_table
    idx = str(tmp_path / "del")
    shutil.copytree(built_index, idx)
    ct = corpus_table(SF_DIR).sort_by("doc_id")
    assert delete_by_url(idx, [ct["url"][181].as_py()], parallel=False) == 1
    return idx


def test_deleted_doc_matches_no_query(built_index, deleted_copy):
    queries = [T("spark"),
               BooleanQuery.build((Occur.MUST, T("spark")),
                                  (Occur.MUST, T("the"))),
               PhraseQuery(("the", "spark"))]
    live = Searcher(IndexReader(built_index))
    assert live.explain(queries[0], 181)["value"] > 0
    assert live.explain(queries[1], 181)["value"] > 0
    s = Searcher(IndexReader(deleted_copy))
    for q in queries:
        ex = s.explain(q, 181)
        assert (ex["value"], ex["details"]) == (0.0, [])
        assert s.matches(q, 181) is None


def test_count_shortcuts_per_segment(deleted_copy, monkeypatch):
    r = IndexReader(deleted_copy)
    dead = [sr.seg for sr in r.segment_readers
            if sr.tombstones is not None and len(sr.tombstones)]
    assert len(dead) == 1 and len(r.segment_readers) == 5
    s = Searcher(r)
    decoded = []
    real = SegmentReader.postings

    def spy(self, *a, **kw):
        decoded.append(self.seg)
        return real(self, *a, **kw)

    monkeypatch.setattr(SegmentReader, "postings", spy)
    for q in (T("spark"), T("zzznope"), MatchAllDocsQuery()):
        decoded.clear()
        assert s.count(q) == s.search(q, k=1).total_hits
    decoded.clear()
    s.count(T("spark"))
    assert decoded == dead  # only the tombstoned segment decodes
    assert s.count(MatchAllDocsQuery()) == 499
    q = BooleanQuery.build((Occur.MUST, T("spark")), (Occur.MUST, T("the")))
    assert s.count(q) == s.search(q, k=1).total_hits
    # a reader over two live segments counts their docs, not the index's
    part = Searcher(IndexReader(deleted_copy, segments=[
        sr.seg for sr in r.segment_readers if sr.seg not in dead][:2]))
    for q in (T("spark"), MatchAllDocsQuery()):
        assert part.count(q) == part.search(q, k=1).total_hits
