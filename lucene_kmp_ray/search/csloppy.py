"""On-demand compiled C core for the 2-term sloppy-phrase walk.

``_csloppy.c`` transcribes ``searcher._sloppy_freq_2`` (the exact
SloppyPhraseMatcher.kt greedy walk specialized to two distinct slots)
and batches it across all screened candidate docs in one call — the
per-doc state machine is inherently sequential, so the win is removing
Python dispatch, not changing the algorithm.  Compiled once per source
hash with the system C compiler (``util.cfor.compile_kernel``); a failed
compile warns once per process, ``sloppy2_batch`` then returns ``None``
and callers fall back to the Python walk, which remains the semantic
reference (tests/test_csloppy.py asserts bit-identical freqs).
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from ..util.cfor import compile_kernel, warn_unavailable

_SRC = os.path.join(os.path.dirname(__file__), "_csloppy.c")
_CACHED: "ctypes.CDLL | None | bool" = False  # False = not attempted yet
_CACHED_PID = -1  # library handles don't survive fork/pickle boundaries
_WARNED_PID = -1


def _compile() -> "ctypes.CDLL | None":
    lib = compile_kernel(_SRC, "lkr_csloppy")
    vp = ctypes.c_void_p
    lib.sloppy2_batch.restype = ctypes.c_int64
    lib.sloppy2_batch.argtypes = [vp] * 7 + [ctypes.c_int64] * 2 + [vp]
    return lib


def lib() -> "ctypes.CDLL | None":
    """The compiled walk core, or None when unavailable (pid-stamped: a
    forked/unpickled worker recompiles-or-reloads its own handle)."""
    global _CACHED, _CACHED_PID, _WARNED_PID
    if _CACHED is False or _CACHED_PID != os.getpid():
        try:
            _CACHED = _compile()
        except Exception as e:
            _CACHED = None
            if _WARNED_PID != os.getpid():
                _WARNED_PID = os.getpid()
                warn_unavailable("sloppy-phrase C kernel", e)
        _CACHED_PID = os.getpid()
    return _CACHED


def _c64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def sloppy2_batch(a_flat, a_starts, a_cnt, b_flat, b_starts, b_cnt,
                  walk_idx, slop: int) -> np.ndarray | None:
    """Per-candidate sloppy freqs for ``walk_idx`` (None = no C library;
    caller falls back to the Python per-doc walk)."""
    L = lib()
    if L is None or len(walk_idx) == 0:
        return None if L is None else np.empty(0, np.float64)
    a_flat, a_starts, a_cnt = _c64(a_flat), _c64(a_starts), _c64(a_cnt)
    b_flat, b_starts, b_cnt = _c64(b_flat), _c64(b_starts), _c64(b_cnt)
    walk_idx = _c64(walk_idx)
    out = np.empty(len(walk_idx), dtype=np.float64)
    L.sloppy2_batch(a_flat.ctypes.data, a_starts.ctypes.data,
                    a_cnt.ctypes.data, b_flat.ctypes.data,
                    b_starts.ctypes.data, b_cnt.ctypes.data,
                    walk_idx.ctypes.data, len(walk_idx), int(slop),
                    out.ctypes.data)
    return out
