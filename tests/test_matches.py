"""Matches API (Weight.matches / search/Matches.kt semantics): per-doc
matched positions against brute recomputation from the tokenized text,
plus the BooleanWeight.matches gating rules (BooleanWeight.kt:100-130)."""
import numpy as np
import pytest

from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   RangeFilterQuery, Searcher, SynonymQuery,
                                   TermInSetQuery, TermQuery)


@pytest.fixture(scope="module")
def searcher(built_index):
    return Searcher(IndexReader(built_index))


def _brute_positions(toks, term):
    return [i for i, t in enumerate(toks) if t == term]


def test_term_matches_are_exact_positions(searcher, corpus_texts):
    from lucene_kmp_ray.analysis import tokenize
    td = searcher.search(TermQuery("spark"), k=20)
    for h in td.score_docs:
        m = searcher.matches(TermQuery("spark"), h.doc_id)
        want = _brute_positions(tokenize(corpus_texts[h.doc_id]), "spark")
        assert m == {"text": [(p, p, "spark") for p in want]}
    # a doc with no hit
    miss = next(i for i in range(len(corpus_texts))
                if "spark" not in tokenize(corpus_texts[i]))
    assert searcher.matches(TermQuery("spark"), miss) is None


def test_phrase_matches_window(searcher, corpus_texts):
    from lucene_kmp_ray.analysis import tokenize
    q = PhraseQuery(("the", "spark"))
    td = searcher.search(q, k=100)
    assert td.score_docs, "fixture corpus should contain the phrase"
    for h in td.score_docs:
        toks = tokenize(corpus_texts[h.doc_id])
        want = [(i, i + 1, "the spark") for i in range(len(toks) - 1)
                if toks[i] == "the" and toks[i + 1] == "spark"]
        assert searcher.matches(q, h.doc_id) == {"text": want}


def test_boolean_matches_gating(searcher, corpus_texts):
    from lucene_kmp_ray.analysis import tokenize
    toks = [tokenize(t) for t in corpus_texts]
    d_both = next(i for i, t in enumerate(toks)
                  if "spark" in t and "the" in t)
    d_only = next(i for i, t in enumerate(toks)
                  if "spark" in t and "the" not in t)
    q_not = BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                               (Occur.MUST_NOT, TermQuery("the")))
    assert searcher.matches(q_not, d_both) is None
    got = searcher.matches(q_not, d_only)
    assert got == {"text": [(p, p, "spark")
                            for p in _brute_positions(toks[d_only],
                                                      "spark")]}
    # required miss → None even if SHOULD matches
    q_req = BooleanQuery.build((Occur.MUST, TermQuery("zzznope")),
                               (Occur.SHOULD, TermQuery("spark")))
    assert searcher.matches(q_req, d_both) is None
    # msm: 2 SHOULD needed, only 1 matches → None
    q_msm = BooleanQuery.build((Occur.SHOULD, TermQuery("spark")),
                               (Occur.SHOULD, TermQuery("zzznope")),
                               minimum_should_match=2)
    assert searcher.matches(q_msm, d_both) is None
    # nothing required: at least one SHOULD must match, as in search
    q_none = BooleanQuery.build((Occur.SHOULD, TermQuery("zzznope")),
                                (Occur.SHOULD, TermQuery("yyynope")))
    assert searcher.search(q_none).total_hits == 0
    assert searcher.matches(q_none, d_both) is None
    # FILTER contributes its matches (BooleanWeight: required clauses)
    q_f = BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                             (Occur.FILTER, TermQuery("the")))
    mf = searcher.matches(q_f, d_both)
    n_spark = len(_brute_positions(toks[d_both], "spark"))
    n_the = len(_brute_positions(toks[d_both], "the"))
    assert len(mf["text"]) == n_spark + n_the


def test_disjunction_and_no_terms_matches(searcher, corpus_texts):
    from lucene_kmp_ray.analysis import tokenize
    toks = [tokenize(t) for t in corpus_texts]
    d = next(i for i, t in enumerate(toks) if "spark" in t)
    m = searcher.matches(TermInSetQuery(("spark", "zzznope")), d)
    assert m == {"text": [(p, p, "spark")
                          for p in _brute_positions(toks[d], "spark")]}
    m2 = searcher.matches(SynonymQuery(("spark", "the")), d)
    want = sorted([(p, p, "spark")
                   for p in _brute_positions(toks[d], "spark")] +
                  [(p, p, "the") for p in _brute_positions(toks[d], "the")])
    assert m2 == {"text": want}
    # non-positional match → MATCH_WITH_NO_TERMS ({})
    assert searcher.matches(RangeFilterQuery("length", 0, 10**9), d) == {}
    assert searcher.matches(RangeFilterQuery("length", -5, -1), d) is None
