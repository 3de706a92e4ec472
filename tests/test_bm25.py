"""BM25 scoring properties — BaseSimilarityTestCase / TestBM25Similarity
semantics (reference core/src/commonTest/.../TestBM25Similarity.kt:8-117)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_kmp_ray.similarity.bm25 import BM25Similarity


def test_param_validation():
    # TestBM25Similarity pins k1/b validation (kt:85-86)
    for bad_k1 in [float("inf"), -1, float("nan")]:
        with pytest.raises(ValueError):
            BM25Similarity(k1=bad_k1)
    for bad_b in [2.0, -0.5, float("nan")]:
        with pytest.raises(ValueError):
            BM25Similarity(b=bad_b)


def test_score_float32_reference_expression():
    """Exact float32 expression: weight - weight/(1 + freq*cache[norm])."""
    sim = BM25Similarity()
    sc = sim.scorer(1.0, doc_count=1000, sum_total_term_freq=50_000,
                    doc_freqs=[10])
    # recompute by hand in float32
    import math
    idf = np.float32(math.log(1 + (1000 - 10 + 0.5) / (10 + 0.5)))
    avgdl = np.float32(50_000 / 1000.0)
    from lucene_kmp_ray.util.smallfloat import LENGTH_TABLE
    k1, b = np.float32(1.2), np.float32(0.75)
    cache = np.float32(1) / (k1 * ((np.float32(1) - b) + b * LENGTH_TABLE / avgdl))
    freq, norm = np.float32(3), 40
    expected = idf - idf / (np.float32(1) + freq * cache[norm])
    got = sc.score(np.array([3]), np.array([40], dtype=np.uint8))[0]
    assert got == expected
    assert got.dtype == np.float32


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_monotone_in_freq_and_norm(doc_count, df_seed):
    """Score strictly non-decreasing in freq, non-increasing in length."""
    df = min(df_seed, doc_count)
    sim = BM25Similarity()
    sc = sim.scorer(1.0, doc_count, doc_count * 50, [df])
    freqs = np.arange(1, 200)
    s = sc.score(freqs, np.full(len(freqs), 50, dtype=np.uint8))
    assert (np.diff(s) >= 0).all()
    norms = np.arange(256, dtype=np.uint8)
    s2 = sc.score(np.full(256, 5), norms)
    assert (np.diff(s2[1:]) <= 0).all()  # longer doc → lower score (byte 0 = len 0)


def test_scores_bounded_by_weight():
    sim = BM25Similarity()
    sc = sim.scorer(1.0, 10**6, 10**8, [3])
    s = sc.score(np.array([10**6]), np.array([255], dtype=np.uint8))
    assert 0 <= s[0] <= sc.weight
    assert sc.max_score(10**6, 0) <= sc.weight


def test_multi_term_idf_double_sum():
    """Multi-term idf sums per-term float32 idfs in double (kt:138-146)."""
    sim = BM25Similarity()
    dfs = [3, 17, 200]
    total = 0.0
    for df in dfs:
        total += sim.idf(df, 10_000)
    assert sim.idf_sum(dfs, 10_000) == float(np.float32(total))


def test_float64_mode_matches_formula():
    sim = BM25Similarity(dtype="float64")
    sc = sim.scorer(1.0, 500, 25_000, [7])
    import math
    idf = math.log(1 + (500 - 7 + 0.5) / (7 + 0.5))
    avgdl = 25_000 / 500.0
    from lucene_kmp_ray.util.smallfloat import LENGTH_TABLE_INT
    inv = 1.0 / (1.2 * ((1 - 0.75) + 0.75 * float(LENGTH_TABLE_INT[40]) / avgdl))
    expected = idf - idf / (1.0 + 4.0 * inv)
    got = sc.score(np.array([4]), np.array([40], dtype=np.uint8))[0]
    assert got == pytest.approx(expected, abs=0, rel=0)


def test_classic_and_boolean_similarity(built_index, corpus_texts):
    """Pluggable Similarity slot: ClassicSimilarity reproduces the
    TFIDFScorer formula (idf=ln((N+1)/(df+1))+1, sqrt tf, 1/sqrt(len)
    norm table over the SmallFloat-decoded length); BooleanSimilarity
    scores the boost."""
    import math

    import numpy as np

    from lucene_kmp_ray.analysis import tokenize
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import Searcher, TermQuery
    from lucene_kmp_ray.similarity.classic import (BooleanSimilarity,
                                                   ClassicSimilarity)
    from lucene_kmp_ray.util.smallfloat import LENGTH_TABLE_INT, int_to_byte4

    reader = IndexReader(built_index)
    s = Searcher(reader, ClassicSimilarity(dtype="float64"))
    td = s.search(TermQuery("spark"), k=5)
    toks = [tokenize(t) for t in corpus_texts]
    n = len(toks)
    df = sum(1 for t in toks if "spark" in t)
    idf = math.log((n + 1) / (df + 1)) + 1.0
    for h in td.score_docs:
        freq = toks[h.doc_id].count("spark")
        dln = int(LENGTH_TABLE_INT[int_to_byte4(len(toks[h.doc_id]))])
        exp = (math.sqrt(freq) * idf) * (1.0 / math.sqrt(dln))
        assert abs(h.score - exp) < 1e-12, h.doc_id

    sb = Searcher(reader, BooleanSimilarity())
    tb = sb.search(TermQuery("spark"), k=5)
    assert all(h.score == 1.0 for h in tb.score_docs)


def test_rawtf_similarity(built_index, corpus_texts):
    """RawTFSimilarity (RawTFSimilarity.kt): score = boost * freq,
    norm ignored."""
    from lucene_kmp_ray.analysis import tokenize
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import Searcher, TermQuery
    from lucene_kmp_ray.similarity.classic import RawTFSimilarity

    s = Searcher(IndexReader(built_index), RawTFSimilarity(dtype="float64"))
    td = s.search(TermQuery("the"), k=8)
    toks = [tokenize(t) for t in corpus_texts]
    for h in td.score_docs:
        assert h.score == float(toks[h.doc_id].count("the"))
    # boost scales linearly through a BoostQuery
    from lucene_kmp_ray.search import BoostQuery
    tb = s.search(BoostQuery(TermQuery("the"), 2.5), k=8)
    assert [h.doc_id for h in tb.score_docs] == \
        [h.doc_id for h in td.score_docs]
    assert all(abs(b.score - 2.5 * a.score) < 1e-12
               for a, b in zip(td.score_docs, tb.score_docs))


def test_perfield_similarity_dispatch(built_index):
    """PerFieldSimilarityWrapper.kt: get(field) picks the similarity —
    a field in the map scores under its own similarity, everything else
    under the default; mixed dtypes are rejected."""
    import pytest

    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import Searcher, TermQuery
    from lucene_kmp_ray.search.ray_search import make_similarity
    from lucene_kmp_ray.similarity.bm25 import BM25Similarity
    from lucene_kmp_ray.similarity.classic import ClassicSimilarity
    from lucene_kmp_ray.similarity.perfield import PerFieldSimilarity

    reader = IndexReader(built_index)
    per = PerFieldSimilarity(BM25Similarity(dtype="float64"),
                             {"text": ClassicSimilarity(dtype="float64")})
    got = Searcher(reader, per).search(TermQuery("spark"), k=5)
    want = Searcher(reader, ClassicSimilarity(dtype="float64")).search(
        TermQuery("spark"), k=5)
    assert [(h.doc_id, h.score) for h in got.score_docs] == \
        [(h.doc_id, h.score) for h in want.score_docs]
    # a field NOT in the map falls back to the default similarity
    per2 = PerFieldSimilarity(BM25Similarity(dtype="float64"),
                              {"title": ClassicSimilarity(dtype="float64")})
    got2 = Searcher(reader, per2).search(TermQuery("spark"), k=5)
    want2 = Searcher(reader, BM25Similarity(dtype="float64")).search(
        TermQuery("spark"), k=5)
    assert [(h.doc_id, h.score) for h in got2.score_docs] == \
        [(h.doc_id, h.score) for h in want2.score_docs]
    with pytest.raises(ValueError):
        PerFieldSimilarity(BM25Similarity(dtype="float64"),
                           {"text": ClassicSimilarity(dtype="float32")})
    # the dict registry spec builds the same wrapper
    sim = make_similarity({"text": "classic", "*": "bm25"}, "float64")
    got3 = Searcher(reader, sim).search(TermQuery("spark"), k=5)
    assert [(h.doc_id, h.score) for h in got3.score_docs] == \
        [(h.doc_id, h.score) for h in want.score_docs]
