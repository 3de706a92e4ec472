"""Hypothesis properties for the compiled query-walk kernels
(search/_csloppy.c, search/_cspans.c): the C batched walks must agree
bit-for-bit with the Python matchers — which are the semantic
reference for SloppyPhraseMatcher.kt / NearSpansOrdered.kt /
NearSpansUnordered.kt — on arbitrary position configurations, not just
the seeded-fuzz distributions in test_csloppy/test_cspans.  Hypothesis
shrinks any divergence to a minimal counterexample."""

import numpy as np
from _ref_search import sloppy_freq_2 as _sloppy_freq_2
from hypothesis import given, settings, strategies as st

from lucene_kmp_ray.search.csloppy import sloppy2_batch
from lucene_kmp_ray.search.cspans import span_near_batch
from lucene_kmp_ray.search.searcher import _sloppy_freq_doc
from lucene_kmp_ray.search.spans import _ordered_matches, _unordered_matches

positions = st.lists(st.integers(0, 70), min_size=1, max_size=12,
                     unique=True).map(
    lambda xs: np.asarray(sorted(xs), dtype=np.int64))


def _py_span_freq(pos_lists, slop, in_order):
    subs = [[(int(s), int(s) + 1, 0) for s in pl] for pl in pos_lists]
    if any(not s for s in subs):
        return 0.0
    spans = (_ordered_matches(subs, slop) if in_order
             else _unordered_matches(subs, slop))
    f = np.float32(0.0)
    one = np.float32(1.0)
    for _, _, w in spans:
        f = f + one / (one + np.float32(w))
    return float(f)


@settings(max_examples=300, deadline=None)
@given(a=positions, b=positions, slop=st.integers(0, 8))
def test_sloppy2_kernel_matches_python(a, b, slop):
    b_adj = b - 1  # the caller hands over offset-adjusted slot positions
    got = sloppy2_batch(a, np.zeros(1, np.int64),
                        np.array([len(a)], np.int64),
                        b_adj, np.zeros(1, np.int64),
                        np.array([len(b_adj)], np.int64),
                        np.zeros(1, np.int64), slop)
    assert got is not None and len(got) == 1
    want = _sloppy_freq_2(a, b_adj, slop)
    assert got[0] == want == _sloppy_freq_doc([a, b], slop)


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(st.tuples(positions, positions), min_size=1,
                     max_size=6),
       slop=st.integers(0, 8),
       subset=st.data())
def test_sloppy2_kernel_batched_subset(docs, slop, subset):
    """The flat starts/cnt layout with a walk_idx subset — the exact
    shape _sloppy_phrase hands the kernel after candidate screening."""
    a_parts = [d[0] for d in docs]
    b_parts = [d[1] - 1 for d in docs]
    a_cnt = np.array([len(p) for p in a_parts], np.int64)
    b_cnt = np.array([len(p) for p in b_parts], np.int64)
    walk = subset.draw(st.lists(
        st.integers(0, len(docs) - 1), max_size=len(docs), unique=True))
    walk_idx = np.asarray(sorted(walk), dtype=np.int64)
    got = sloppy2_batch(np.concatenate(a_parts), np.cumsum(a_cnt) - a_cnt,
                        a_cnt, np.concatenate(b_parts),
                        np.cumsum(b_cnt) - b_cnt, b_cnt, walk_idx, slop)
    assert got is not None
    want = np.array([_sloppy_freq_2(a_parts[j], b_parts[j], slop)
                     for j in walk_idx], np.float64)
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(pos_lists=st.lists(positions, min_size=1, max_size=5),
       slop=st.integers(0, 9),
       in_order=st.booleans())
def test_span_near_kernel_matches_python(pos_lists, slop, in_order):
    cnts = [np.array([len(p)], np.int64) for p in pos_lists]
    starts = [np.zeros(1, np.int64) for _ in pos_lists]
    got = span_near_batch(pos_lists, starts, cnts, 1, slop, in_order)
    assert got is not None and len(got) == 1
    assert got[0] == _py_span_freq(pos_lists, slop, in_order)
