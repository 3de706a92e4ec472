"""Python references of the engine's C query walks.

``sloppy_freq_2`` is the two-slot sloppy-phrase walk that
``search/_csloppy.c`` transcribes; ``conjoin`` is ``cfor.conjoin``'s
leapfrog as sorted-set intersections.
"""

import numpy as np

from lucene_kmp_ray.search.searcher import _intersect


def conjoin(lists: list):
    """The docs common to the ascending ``lists`` and, per list, each
    one's entry in it (``cfor.conjoin``)."""
    cand = lists[0]
    for d in lists[1:]:
        cand = _intersect(cand, d)
    return cand, [np.searchsorted(d, cand) for d in lists]


def sloppy_freq_2(a: np.ndarray, b: np.ndarray, slop: int) -> float:
    """Specialized 2-distinct-term greedy walk — the exact state machine of
    ``_sloppy_freq_doc`` with the queue/repeat machinery peeled away (two
    pointers, one live min). Fuzz-verified identical to the general matcher
    (tests/test_query_operators.py::test_sloppy_two_term_specialization_fuzz).

    ``a``/``b`` are the offset-normalized position arrays (position - slot
    offset), ascending.
    """
    ia = ib = 0
    pa_ = int(a[0])
    pb = int(b[0])
    end = pa_ if pa_ > pb else pb
    freq = np.float32(0.0)
    one = np.float32(1.0)
    # pop the lesser (tie: lower offset = a), matchLength = end - popped
    while True:
        if pa_ < pb or (pa_ == pb):
            ml = end - pa_
            nxt = pb
            adv_a = True
        else:
            ml = end - pb
            nxt = pa_
            adv_a = False
        matched = False
        matched_ml = 0
        while True:
            if adv_a:
                ia += 1
                if ia >= len(a):
                    break
                pa_ = int(a[ia])
                if pa_ > end:
                    end = pa_
                cur = pa_
            else:
                ib += 1
                if ib >= len(b):
                    break
                pb = int(b[ib])
                if pb > end:
                    end = pb
                cur = pb
            if cur > nxt:
                if ml <= slop:
                    matched = True
                    matched_ml = ml  # before the re-pop overwrites it
                # pop the new lesser
                if pa_ < pb or (pa_ == pb):
                    ml = end - pa_
                    nxt = pb
                    adv_a = True
                else:
                    ml = end - pb
                    nxt = pa_
                    adv_a = False
                if matched:
                    break
            else:
                ml2 = end - cur
                if ml2 < ml:
                    ml = ml2
        if matched:
            freq = freq + one / (one + np.float32(matched_ml))
            continue
        # exhausted
        if ml <= slop:
            freq = freq + one / (one + np.float32(ml))
        return float(freq)
