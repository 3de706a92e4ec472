"""On-demand compiled C core for the all-term span-near walk.

``_cspans.c`` batches the NearSpansOrdered / NearSpansUnordered per-doc
walks across every candidate doc for the common SpanNearQuery shape
(every clause a SpanTermQuery).  Nested / non-term shapes always take
the Python matchers in ``spans.py``, which remain the semantic
reference (tests/test_cspans.py fuzzes both against each other).
Compiled once per source hash (``util.cfor.compile_kernel``); a failed
compile warns once per process and the Python matchers run.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from ..util.cfor import compile_kernel, warn_unavailable

_SRC = os.path.join(os.path.dirname(__file__), "_cspans.c")
_CACHED: "ctypes.CDLL | None | bool" = False
_CACHED_PID = -1
_WARNED_PID = -1

MAX_SUBS = 32


def _compile() -> "ctypes.CDLL | None":
    lib = compile_kernel(_SRC, "lkr_cspans")
    vp = ctypes.c_void_p
    i64 = ctypes.c_int64
    lib.span_near_batch.restype = i64
    lib.span_near_batch.argtypes = [vp, vp, vp, i64, i64, i64,
                                    ctypes.c_int32, vp]
    return lib


def lib() -> "ctypes.CDLL | None":
    global _CACHED, _CACHED_PID, _WARNED_PID
    if _CACHED is False or _CACHED_PID != os.getpid():
        try:
            _CACHED = _compile()
        except Exception as e:
            _CACHED = None
            if _WARNED_PID != os.getpid():
                _WARNED_PID = os.getpid()
                warn_unavailable("span-near C kernel", e)
        _CACHED_PID = os.getpid()
    return _CACHED


def span_near_batch(flats, starts, cnts, n_docs: int, slop: int,
                    in_order: bool) -> np.ndarray | None:
    """Per-candidate float freqs (Σ 1/(1+width), float32 accumulation),
    or None when no C library is available / too many subs."""
    L = lib()
    n = len(flats)
    if L is None or n == 0 or n > MAX_SUBS:
        return None
    flats = [np.ascontiguousarray(a, dtype=np.int64) for a in flats]
    starts = [np.ascontiguousarray(a, dtype=np.int64) for a in starts]
    cnts = [np.ascontiguousarray(a, dtype=np.int64) for a in cnts]
    fp = (ctypes.c_void_p * n)(*[a.ctypes.data for a in flats])
    sp = (ctypes.c_void_p * n)(*[a.ctypes.data for a in starts])
    cp = (ctypes.c_void_p * n)(*[a.ctypes.data for a in cnts])
    out = np.empty(n_docs, dtype=np.float64)
    rc = L.span_near_batch(fp, sp, cp, n, n_docs, int(slop),
                           1 if in_order else 0, out.ctypes.data)
    if rc != n_docs:
        return None
    return out
