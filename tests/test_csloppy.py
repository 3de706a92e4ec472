"""The compiled 2-term sloppy walk must be bit-identical to the Python
matchers (which remain the semantic reference — the exact
SloppyPhraseMatcher.kt greedy walk, see test_query_operators'
specialization fuzz): the general ``_sloppy_freq_doc`` and the two-slot
walk of tests/_ref_search.py."""

import numpy as np
from _ref_search import sloppy_freq_2 as _sloppy_freq_2

from lucene_kmp_ray.search.csloppy import sloppy2_batch
from lucene_kmp_ray.search.searcher import _sloppy_freq_doc


def test_csloppy_fuzz_vs_python():
    """3000 random position configurations, one doc per batch call."""
    rng = np.random.default_rng(7)
    for _ in range(3000):
        la = int(rng.integers(1, 9))
        lb = int(rng.integers(1, 9))
        span = int(rng.integers(4, 48))
        a = np.unique(rng.integers(0, span, size=la)).astype(np.int64)
        b = np.unique(rng.integers(0, span, size=lb)).astype(np.int64)
        slop = int(rng.integers(0, 7))
        bn = b - 1
        want2 = _sloppy_freq_2(a, bn, slop)
        want_gen = _sloppy_freq_doc([a, b], slop)
        got = sloppy2_batch(a, np.zeros(1, np.int64),
                            np.array([len(a)], np.int64),
                            bn, np.zeros(1, np.int64),
                            np.array([len(bn)], np.int64),
                            np.zeros(1, np.int64), slop)
        assert got is not None and len(got) == 1
        assert got[0] == want2 == want_gen, \
            (a.tolist(), b.tolist(), slop, float(got[0]), want2, want_gen)


def test_csloppy_batch_layout():
    """Many docs in one flat buffer, walked through a strided walk_idx —
    the exact layout _sloppy_phrase hands over (contiguous runs with
    starts/cnt, a subset of candidates selected by the screen)."""
    rng = np.random.default_rng(11)
    n_docs = 400
    a_parts, b_parts = [], []
    for _ in range(n_docs):
        span = int(rng.integers(4, 60))
        a_parts.append(np.unique(
            rng.integers(0, span, size=int(rng.integers(1, 10)))))
        b_parts.append(np.unique(
            rng.integers(0, span, size=int(rng.integers(1, 10)))) - 1)
    a_cnt = np.array([len(p) for p in a_parts], np.int64)
    b_cnt = np.array([len(p) for p in b_parts], np.int64)
    a_starts = np.cumsum(a_cnt) - a_cnt
    b_starts = np.cumsum(b_cnt) - b_cnt
    a_flat = np.concatenate(a_parts).astype(np.int64)
    b_flat = np.concatenate(b_parts).astype(np.int64)
    for slop in (0, 1, 3, 6):
        walk_idx = np.flatnonzero(
            rng.random(n_docs) < 0.7).astype(np.int64)
        got = sloppy2_batch(a_flat, a_starts, a_cnt,
                            b_flat, b_starts, b_cnt, walk_idx, slop)
        want = np.array([_sloppy_freq_2(a_parts[j], b_parts[j], slop)
                         for j in walk_idx], np.float64)
        assert np.array_equal(got, want)


def test_csloppy_empty_walk():
    out = sloppy2_batch(np.array([1], np.int64), np.zeros(1, np.int64),
                        np.ones(1, np.int64), np.array([2], np.int64),
                        np.zeros(1, np.int64), np.ones(1, np.int64),
                        np.empty(0, np.int64), 2)
    assert out is not None and len(out) == 0
