"""The Python side of the 2-term sloppy-phrase walk (``_csloppy.c``,
part of the engine build unit of ``util/native.py``; ``lib()`` is that
loader).

``_csloppy.c`` is the exact SloppyPhraseMatcher.kt greedy walk
specialized to two distinct slots, batched across all screened candidate
docs in one call — the per-doc state machine is inherently sequential,
so the win is removing Python dispatch, not changing the algorithm.
tests/test_csloppy.py holds it bit-identical to the general Python
matcher (``searcher._sloppy_freq_doc``) and to the two-slot reference
walk kept in tests/_ref_search.py.
"""

from __future__ import annotations

import numpy as np

from ..util.native import lib


def _c64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def sloppy2_batch(a_flat, a_starts, a_cnt, b_flat, b_starts, b_cnt,
                  walk_idx, slop: int) -> np.ndarray:
    """Per-candidate sloppy freqs for ``walk_idx``."""
    L = lib()
    if len(walk_idx) == 0:
        return np.empty(0, np.float64)
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
