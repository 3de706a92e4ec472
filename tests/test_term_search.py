"""The term dictionary search over Arrow buffers (util/cfor.py
``SortedTerms``): the C ``term_search`` kernel and its ``bisect``
fallback must both agree with a reference built from ``sorted`` and
``bisect`` over Python strings, in every mode, over random sorted
vocabularies with non-ASCII terms, terms that prefix each other,
U+10FFFF, field sub-ranges and sliced arrays. Then the reader paths
built on it: prefix expansion keeps terms that continue with U+10FFFF,
and multi-term queries match a brute-force evaluation."""

import bisect
import os

import numpy as np
import pyarrow as pa
import pytest

from lucene_kmp_ray.util import cfor
from lucene_kmp_ray.util.cfor import SortedTerms

ALPHABET = ["", "a", "b", "ab", "é", "ｚ", "😀", "aÿ", "\U0010ffff", "z",
            "\x00", "\ud7ff", "\ue000"]


def _vocab(rng, n):
    out = set()
    while len(out) < n:
        k = int(rng.integers(0, 5))
        out.add("".join(ALPHABET[i] for i in
                        rng.integers(0, len(ALPHABET), k)))
    return sorted(out)


def _keys(rng, vocab):
    """Probe keys: every term, each term's prefixes and extensions, and
    random strings."""
    keys = set(vocab)
    for t in vocab:
        keys.update(t[:j] for j in range(len(t)))
        keys.update(t + c for c in ("\x00", "a", "\U0010ffff"))
    keys.update(_vocab(rng, 20))
    return sorted(keys)


def _reference(vocab, key, lo, hi):
    """(exact row or -1, ceil row, prefix-end row) over rows [lo, hi),
    in code points: UTF-8 byte order must reproduce them."""
    ceil = bisect.bisect_left(vocab, key, lo, hi)
    exact = ceil if ceil < hi and vocab[ceil] == key else -1
    n = len(key)
    end = bisect.bisect_right(vocab, key, lo, hi, key=lambda t: t[:n])
    return exact, ceil, end


def _check(st, vocab, keys, rng):
    assert len(st) == len(vocab)
    assert list(st) == vocab
    ranges = [(0, len(vocab))]
    for _ in range(4):  # field sub-ranges
        a, b = sorted(rng.integers(0, len(vocab) + 1, 2).tolist())
        ranges.append((a, b))
    for lo, hi in ranges:
        for key in keys:
            exact, ceil, end = _reference(vocab, key, lo, hi)
            assert st.find(key, lo, hi) == exact, (key, lo, hi)
            assert st.ceil(key, lo, hi) == ceil, (key, lo, hi)
            assert st.prefix_end(key, lo, hi) == end, (key, lo, hi)
            got = [st[i] for i in range(ceil, end)]
            assert got == [t for t in vocab[lo:hi] if t.startswith(key)]


def _arrays(vocab, rng):
    """The vocabulary as string and large_string arrays, whole and as a
    slice of a longer array (non-zero offset)."""
    pad = int(rng.integers(1, 4))
    for typ in (pa.string(), pa.large_string()):
        yield pa.array(vocab, typ)
        longer = pa.array(["~"] * pad + vocab + ["~~"], typ)
        yield longer.slice(pad, len(vocab))
        yield pa.chunked_array([pa.array(vocab, typ)])


@pytest.mark.parametrize("with_c", [True, False])
def test_term_search_fuzz(with_c, monkeypatch):
    if with_c:
        if cfor.lib() is None:
            pytest.skip("no C compiler in environment")
    else:
        monkeypatch.setattr(cfor, "_CACHED", None)
        monkeypatch.setattr(cfor, "_CACHED_PID", os.getpid())
    rng = np.random.default_rng(21 if with_c else 22)
    for trial in range(12):
        vocab = _vocab(rng, int(rng.integers(1, 60)))
        keys = _keys(rng, vocab)
        for arr in _arrays(vocab, rng):
            st = SortedTerms(arr)
            assert (st._c is not None) == with_c
            _check(st, vocab, keys, rng)


def test_term_search_empty_and_all_empty_terms():
    for vocab in ([], [""]):
        st = SortedTerms(pa.array(vocab, pa.string()))
        assert list(st) == vocab
        for key in ("", "a"):
            assert (st.find(key), st.ceil(key), st.prefix_end(key)) == \
                _reference(vocab, key, 0, len(vocab))
    with pytest.raises(IndexError):
        SortedTerms(pa.array(["a"]))[1]


def test_term_search_checks_bounds_and_type():
    """The C search trusts its row bounds, so bad ones raise first."""
    st = SortedTerms(pa.array(["a", "b"]))
    for lo, hi in ((0, 3), (-1, 1), (2, 1)):
        with pytest.raises(IndexError):
            st.find("a", lo, hi)
    with pytest.raises(TypeError):
        SortedTerms(pa.array([1, 2]))


def test_term_search_surrogate_key():
    """A lone surrogate key cannot be in an Arrow column; it still
    sorts by code point (between U+D7FF and U+E000)."""
    vocab = ["\ud7ff", "\ue000"]
    st = SortedTerms(pa.array(vocab))
    assert st.find("\ud800") == -1
    assert st.ceil("\ud800") == 1


# -- the reader and the queries on top --------------------------------------

TEXTS = ["ab\U0010ffff", "ab\U0010ffffz", "abc", "ac"]


@pytest.fixture(scope="module")
def top_index(tmp_path_factory, ray_session):
    from lucene_kmp_ray.analysis.core import WhitespaceAnalyzer
    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.index.format import build_and_write_segment
    from lucene_kmp_ray.index.reader import IndexReader

    idx = str(tmp_path_factory.mktemp("top") / "idx")
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "url": [f"u{i}" for i in range(4)], "text": TEXTS})
    commit_index(idx, [build_and_write_segment(
        t, 0, idx, analyzer=WhitespaceAnalyzer())])
    return IndexReader(idx)


def test_prefix_keeps_terms_continuing_with_max_code_point(top_index):
    from lucene_kmp_ray.search import PrefixQuery, Searcher
    from lucene_kmp_ray.search.spans import (SpanMultiTermQueryWrapper,
                                             span_freqs)

    s = Searcher(top_index)
    td = s.search(PrefixQuery("ab"), k=10)
    assert sorted(h.doc_id for h in td.score_docs) == [0, 1, 2]
    assert s.expand_prefix("ab") == ("abc", "ab\U0010ffff",
                                     "ab\U0010ffffz")
    assert s.expand_prefix("ab\U0010ffff") == ("ab\U0010ffff",
                                               "ab\U0010ffffz")
    assert s.expand_prefix("ab", max_expansions=1) == ("abc",)
    sr = top_index.segment_readers[0]
    docs, _ = span_freqs(sr, SpanMultiTermQueryWrapper(PrefixQuery("ab")))
    assert docs.tolist() == [0, 1, 2]


def test_multiterm_rows_match_brute_force(top_index):
    from lucene_kmp_ray.search import (FuzzyQuery, PrefixQuery,
                                       RegexpQuery, TermInSetQuery,
                                       TermRangeQuery, WildcardQuery)

    sr = top_index.segment_readers[0]
    vocab = sorted(TEXTS)
    cases = [
        (PrefixQuery(""), lambda t: True),
        (PrefixQuery("ab\U0010ffffz"), lambda t: t == "ab\U0010ffffz"),
        (TermRangeQuery("abc", "ab\U0010ffff"),
         lambda t: "abc" <= t <= "ab\U0010ffff"),
        (TermRangeQuery("abc", "ab\U0010ffff", False, False),
         lambda t: "abc" < t < "ab\U0010ffff"),
        (TermRangeQuery(None, "ab"), lambda t: t <= "ab"),
        (TermRangeQuery("ab\U0010ffff", None, False),
         lambda t: t > "ab\U0010ffff"),
        (TermRangeQuery("b", "a"), lambda t: False),
        (TermInSetQuery(("ac", "zz", "abc")), lambda t: t in ("ac", "abc")),
        (WildcardQuery("ab?"), lambda t: len(t) == 3 and t[:2] == "ab"),
        # RE2 rejects the lookahead: Python re runs over the slice
        (RegexpQuery("a(?!c).*"), lambda t: not t.startswith("ac")),
        (FuzzyQuery("abd", 1, 2), lambda t: t in ("abc", "ab\U0010ffff")),
    ]
    for q, pred in cases:
        got = [sr.term_at(i) for i in q.rows(sr)]
        assert got == [t for t in vocab if pred(t)], q
