"""The Python side of the all-term span-near walk (``_cspans.c``, part
of the engine build unit of ``util/native.py``; ``lib()`` is that
loader).

``_cspans.c`` batches the NearSpansOrdered / NearSpansUnordered per-doc
walks across every candidate doc for the common SpanNearQuery shape:
every clause a SpanTermQuery of one field, at most ``MAX_SUBS`` clauses.
Other shapes take the Python matchers in ``spans.py``, which are the
semantic reference (tests/test_cspans.py fuzzes both against each other).
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..util.native import lib

MAX_SUBS = 32


def span_near_batch(flats, starts, cnts, n_docs: int, slop: int,
                    in_order: bool) -> np.ndarray:
    """Per-candidate float freqs (Σ 1/(1+width), float32 accumulation)
    of 1 to ``MAX_SUBS`` term clauses."""
    L = lib()
    n = len(flats)
    flats = [np.ascontiguousarray(a, dtype=np.int64) for a in flats]
    starts = [np.ascontiguousarray(a, dtype=np.int64) for a in starts]
    cnts = [np.ascontiguousarray(a, dtype=np.int64) for a in cnts]
    fp = (ctypes.c_void_p * n)(*[a.ctypes.data for a in flats])
    sp = (ctypes.c_void_p * n)(*[a.ctypes.data for a in starts])
    cp = (ctypes.c_void_p * n)(*[a.ctypes.data for a in cnts])
    out = np.empty(n_docs, dtype=np.float64)
    if L.span_near_batch(fp, sp, cp, n, n_docs, int(slop),
                         1 if in_order else 0, out.ctypes.data) != n_docs:
        raise ValueError(f"span_near_batch takes 1 to {MAX_SUBS} clauses, "
                         f"not {n}")
    return out
