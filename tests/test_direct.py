"""DirectPostingsFormat role (index/direct.py): up-front-decoded
postings must equal the lazy row-group path term-for-term, rankings
must be bit-identical through the searcher, and the numpy fallback
must match the bulk C kernel."""

import numpy as np
import pytest

from lucene_kmp_ray.index.direct import DirectField
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import BooleanQuery, Occur, Searcher, TermQuery


@pytest.fixture(scope="module")
def reader(built_index):
    return IndexReader(built_index)


def test_direct_equals_lazy_all_terms(reader):
    for sr in reader.segment_readers:
        d = DirectField(sr, "text")
        lo, hi = sr.field_range("text")
        assert d.size == hi - lo
        for o in range(d.size):
            term = sr.term_at(lo + o)
            lazy = sr.postings(term)
            dd, df = d.postings_ord(o)
            assert np.array_equal(dd, lazy[0]), term
            assert np.array_equal(df, lazy[1]), term
            assert d.doc_freq(term) == len(lazy[0])
            assert d.total_term_freq(term) == int(lazy[1].sum())
        assert d.postings("zz_absent_term") is None
        assert d.ord_of("zz_absent_term") == -1


def test_direct_title_field(reader):
    sr = reader.segment_readers[0]
    d = sr.load_direct("title")
    lo, hi = sr.field_range("title")
    for o in range(min(20, d.size)):
        term = sr.term_at(lo + o)
        lazy = sr.postings(term, field="title")
        got = d.postings(term)
        assert np.array_equal(got[0], lazy[0])
        assert np.array_equal(got[1], lazy[1])


def test_search_identical_under_direct(built_index):
    lazy = Searcher(IndexReader(built_index))
    r2 = IndexReader(built_index)
    ram = r2.load_direct("text")
    assert ram > 0
    direct = Searcher(r2)
    for q in (TermQuery("spark"),
              TermQuery("the"),
              BooleanQuery.build((Occur.MUST, TermQuery("spark")),
                                 (Occur.MUST, TermQuery("join"))),
              BooleanQuery.build((Occur.SHOULD, TermQuery("window")),
                                 (Occur.SHOULD, TermQuery("batch")))):
        a = lazy.search(q, k=20)
        b = direct.search(q, k=20)
        assert a.total_hits == b.total_hits
        assert [(h.doc_id, h.score) for h in a.score_docs] == \
               [(h.doc_id, h.score) for h in b.score_docs]


def test_load_direct_cached(reader):
    sr = reader.segment_readers[0]
    d1 = sr.load_direct("text")
    d2 = sr.load_direct("text")
    assert d1 is d2


def test_numpy_fallback_matches_c(reader, monkeypatch):
    """The C bulk decode against the numpy per-stream reference."""
    from _ref_codec import decode_streams

    import lucene_kmp_ray.util.cfor as cfor

    sr = reader.segment_readers[-1]
    with_c = DirectField(sr, "text")
    monkeypatch.setattr(cfor, "decode_streams_at", decode_streams)
    fallback = DirectField(sr, "text")
    assert np.array_equal(with_c.docs_flat, fallback.docs_flat)
    assert np.array_equal(with_c.freqs_flat, fallback.freqs_flat)
    assert np.array_equal(with_c.offs, fallback.offs)
