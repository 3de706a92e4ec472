"""The compiled all-term span-near walk must agree exactly with the
Python NearSpansOrdered/Unordered matchers (the semantic reference) —
both the per-doc span sets reduced to freqs and the float32
accumulation order."""

import numpy as np
import pytest

from lucene_kmp_ray.search.cspans import span_near_batch
from lucene_kmp_ray.search.spans import (_ordered_matches,
                                         _unordered_matches)


def _py_freq(pos_lists, slop, in_order):
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


@pytest.mark.parametrize("in_order", [True, False])
def test_cspans_fuzz_vs_python(in_order):
    rng = np.random.default_rng(17)
    for trial in range(1500):
        n_subs = int(rng.integers(1, 5))
        n_docs = int(rng.integers(1, 6))
        slop = int(rng.integers(0, 8))
        per_doc = []   # per doc: list of per-sub position arrays
        flats = [[] for _ in range(n_subs)]
        cnts = [[] for _ in range(n_subs)]
        for _ in range(n_docs):
            doc_lists = []
            for i in range(n_subs):
                ln = int(rng.integers(1, 9))
                span = int(rng.integers(4, 40))
                pos = np.unique(rng.integers(0, span, size=ln)) \
                    .astype(np.int64)
                doc_lists.append(pos)
                flats[i].append(pos)
                cnts[i].append(len(pos))
            per_doc.append(doc_lists)
        flats_np, starts_np, cnts_np = [], [], []
        for i in range(n_subs):
            c = np.asarray(cnts[i], np.int64)
            flats_np.append(np.concatenate(flats[i]))
            starts_np.append(np.cumsum(c) - c)
            cnts_np.append(c)
        got = span_near_batch(flats_np, starts_np, cnts_np, n_docs,
                              slop, in_order)
        assert got is not None
        want = np.array([_py_freq(doc_lists, slop, in_order)
                         for doc_lists in per_doc], np.float64)
        assert np.array_equal(got, want), \
            (trial, slop, [p.tolist() for p in per_doc[0]],
             got.tolist(), want.tolist())


def test_cspans_shared_term_positions():
    """A repeated clause term shares one positions array but walks with
    independent cursors — exactly like two separate _doc_spans lists."""
    pos = np.array([2, 5, 9, 14], np.int64)
    one = np.array([4], np.int64)
    starts = np.zeros(1, np.int64)
    for in_order in (True, False):
        got = span_near_batch([pos, pos], [starts, starts],
                              [one, one], 1, 3, in_order)
        want = _py_freq([pos, pos], 3, in_order)
        assert got is not None and got[0] == want
