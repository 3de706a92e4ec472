"""On-demand compiled C core for the fused positional skip-read.

``_cfor.c`` fuses ``decode_blocks_masked`` + the per-entry position
gather/cumsum of ``SegmentReader.positions_for_entries`` into one C
pass over the encoded stream — the numpy path stays as the fallback
and the semantic reference (tests/test_cfor.py fuzzes both against
each other over random posting shapes, widths and PFor exceptions).
It also holds the term dictionary search ``SortedTerms`` runs over an
Arrow string array's buffers (``bisect`` is its fallback,
tests/test_term_search.py fuzzes both against ``sorted``).
Same compile-once-per-source-hash pattern as ``analysis/cviterbi.py``;
a failed compile warns once per process and every caller takes its
fallback.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings
from collections.abc import Sequence

import numpy as np
import pyarrow as pa

_SRC = os.path.join(os.path.dirname(__file__), "_cfor.c")
_CACHED: "ctypes.CDLL | None | bool" = False
_CACHED_PID = -1
_WARNED_PID = -1


def _compile() -> "ctypes.CDLL | None":
    with open(_SRC, "rb") as f:
        src = f.read()
    tag = hashlib.sha256(src).hexdigest()[:16]
    so = os.path.join(tempfile.gettempdir(), f"lkr_cfor_{tag}.so")
    if not os.path.exists(so):
        tmp = f"{so}.{os.getpid()}.tmp"
        subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", tmp, _SRC],
            check=True, capture_output=True, timeout=120)
        os.replace(tmp, so)
    lib = ctypes.CDLL(so)
    vp = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int
    lib.positions_select.restype = i64
    lib.positions_select.argtypes = [vp, i64, vp, i64, i64, vp,
                                     vp, vp, i64, vp, vp]
    lib.encode_meta.restype = None
    lib.encode_meta.argtypes = [vp, i64, i32, vp, vp, vp]
    lib.encode_pack.restype = None
    lib.encode_pack.argtypes = [vp, i64, vp, vp, vp, vp, vp]
    lib.encode_meta_csr.restype = None
    lib.encode_meta_csr.argtypes = [vp, vp, i64, i32, vp, vp]
    lib.encode_pack_csr.restype = None
    lib.encode_pack_csr.argtypes = [vp, vp, i64, vp, vp, vp, vp]
    lib.decode_streams.restype = None
    lib.decode_streams.argtypes = [vp, i64, vp, vp, i64, vp, vp]
    lib.term_search.restype = i64
    lib.term_search.argtypes = [vp, i32, vp, i64, i64, ctypes.c_char_p,
                                i64, i32]
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
                detail = getattr(e, "stderr", None) or b""
                if isinstance(detail, bytes):
                    detail = detail.decode("utf-8", "replace")
                warnings.warn(
                    f"lucene_kmp_ray C kernels unavailable, using the slow "
                    f"fallbacks: {e!r} {detail.strip()}".rstrip(),
                    RuntimeWarning, stacklevel=2)
        _CACHED_PID = os.getpid()
    return _CACHED


EXACT, CEIL, PREFIX_END = 0, 1, 2  # term_search modes


class SortedTerms(Sequence):
    """A sorted Arrow string array, searched in place. ``find``, ``ceil``
    and ``prefix_end`` binary-search its offsets and data buffers with
    the C ``term_search`` (``bisect`` over the same buffers without a C
    library); ``[i]`` decodes one term. Nothing is built per term, so
    wrapping a 700k-term dictionary costs no conversion. Rows are
    compared as UTF-8 bytes, whose order is code-point order."""

    def __init__(self, arr):
        if isinstance(arr, pa.ChunkedArray):  # one chunk: no copy
            arr = arr.chunk(0) if arr.num_chunks == 1 else \
                arr.combine_chunks()
        t = arr.type
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            raise TypeError(f"SortedTerms needs a string array, not {t}")
        self.array = arr
        self._n = len(arr)
        self._wide = int(pa.types.is_large_string(t))
        _, offs, data = arr.buffers()
        dtype = np.int64 if self._wide else np.int32
        self._offs = np.frombuffer(offs, dtype)[
            arr.offset:arr.offset + len(arr) + 1] if len(arr) else \
            np.zeros(1, dtype)
        # all-empty terms have no data buffer: pass C a valid address
        self._data = data if data is not None and data.size else \
            pa.py_buffer(b"\0")
        self._mv = memoryview(self._data)
        L = lib()
        # pointers and the bound function, set up once per dictionary
        self._c = None if L is None else (
            L.term_search, self._offs.ctypes.data, self._wide,
            self._data.address)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> str:
        n = self._n
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return str(self._mv[self._offs[i]:self._offs[i + 1]], "utf-8")

    def find(self, key: str, lo: int = 0, hi: int | None = None) -> int:
        """The row in ``[lo, hi)`` equal to ``key``, or -1."""
        return self._search(key, lo, hi, EXACT)

    def ceil(self, key: str, lo: int = 0, hi: int | None = None) -> int:
        """The first row in ``[lo, hi)`` >= ``key`` (``hi`` if none)."""
        return self._search(key, lo, hi, CEIL)

    def prefix_end(self, prefix: str, lo: int = 0,
                   hi: int | None = None) -> int:
        """The first row in ``[lo, hi)`` past every row starting with
        ``prefix``: those rows are ``[ceil(prefix), prefix_end(prefix))``
        (``hi`` if none)."""
        return self._search(prefix, lo, hi, PREFIX_END)

    def _search(self, key: str, lo: int, hi: int | None, mode: int) -> int:
        b = key.encode("utf-8", "surrogatepass")
        n = self._n
        hi = n if hi is None else hi
        if not 0 <= lo <= hi <= n:  # the C search trusts the bounds
            raise IndexError(f"rows [{lo}, {hi}) outside [0, {n})")
        c = self._c
        if c is not None:
            return c[0](c[1], c[2], c[3], lo, hi, b, len(b), mode)
        rows = range(lo, hi)
        if mode == PREFIX_END:
            k = len(b)
            return lo + bisect.bisect_right(
                rows, b, key=lambda i: self._bytes(i)[:k])
        i = lo + bisect.bisect_left(rows, b, key=self._bytes)
        if mode == CEIL:
            return i
        return i if i < hi and self._bytes(i) == b else -1

    def _bytes(self, i: int) -> bytes:
        return self._mv[self._offs[i]:self._offs[i + 1]].tobytes()


def positions_select(buf: bytes, meta_pair, n: int, mask: np.ndarray,
                     s: np.ndarray, e: np.ndarray,
                     total: int) -> np.ndarray | None:
    """Absolute positions for the occurrence ranges ``[s,e)`` (entry
    order), or None when no C library is available.  ``meta_pair`` =
    ``block_stream_meta(buf, n)``; ``total`` = ``(e - s).sum()``."""
    L = lib()
    if L is None:
        return None
    mv, meta = meta_pair
    mv = np.ascontiguousarray(mv, dtype=np.uint8)
    meta = np.ascontiguousarray(meta, dtype=np.int64)
    mask8 = np.ascontiguousarray(mask, dtype=np.uint8)
    s = np.ascontiguousarray(s, dtype=np.int64)
    e = np.ascontiguousarray(e, dtype=np.int64)
    scratch = np.empty(max(n, 1), dtype=np.int64)
    out = np.empty(total, dtype=np.int64)
    wrote = L.positions_select(
        mv.ctypes.data, len(mv), meta.ctypes.data, meta.shape[0], n,
        mask8.ctypes.data, s.ctypes.data, e.ctypes.data, len(s),
        scratch.ctypes.data, out.ctypes.data)
    assert wrote == total
    return out


def encode_matrix(resh: np.ndarray, counts: np.ndarray,
                  pfor: bool):
    """C bulk block encode — the for_blocks_matrix / pfor_blocks_matrix
    core (byte-identical, fuzz-asserted).  Returns ``(stream_uint8,
    block_starts)`` or None when no C library is available."""
    L = lib()
    if L is None:
        return None
    R = resh.shape[0]
    resh = np.ascontiguousarray(resh, dtype=np.uint64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    widths = np.empty(R, dtype=np.int64)
    nexc = np.empty(R, dtype=np.int64)
    L.encode_meta(resh.ctypes.data, R, 1 if pfor else 0,
                  counts.ctypes.data, widths.ctypes.data, nexc.ctypes.data)
    payload = (counts * widths + 7) // 8
    block_bytes = 1 + np.where(nexc > 0, 1 + 2 * nexc, 0) + payload
    ends = np.cumsum(block_bytes)
    starts = np.ascontiguousarray(ends - block_bytes)
    out = np.zeros(int(ends[-1]) if R else 0, dtype=np.uint8)
    L.encode_pack(resh.ctypes.data, R, counts.ctypes.data,
                  widths.ctypes.data, nexc.ctypes.data,
                  starts.ctypes.data, out.ctypes.data)
    return out, starts


def encode_csr(vals: np.ndarray, row_ptr: np.ndarray, pfor: bool):
    """C bulk block encode over a CSR layout — row ``r``'s (<= 128)
    values are ``vals[row_ptr[r]:row_ptr[r+1]]``.  Byte-identical to
    ``encode_matrix`` over the equivalent zero-padded matrix (the
    padding contributes bit length 0 and can never be an exception).
    Returns ``(stream_uint8, block_starts)`` or None without a C lib."""
    L = lib()
    if L is None:
        return None
    R = len(row_ptr) - 1
    vals = np.ascontiguousarray(vals, dtype=np.int64)
    row_ptr = np.ascontiguousarray(row_ptr, dtype=np.int64)
    widths = np.empty(R, dtype=np.int64)
    nexc = np.empty(R, dtype=np.int64)
    L.encode_meta_csr(vals.ctypes.data, row_ptr.ctypes.data, R,
                      1 if pfor else 0,
                      widths.ctypes.data, nexc.ctypes.data)
    counts = np.diff(row_ptr)
    payload = (counts * widths + 7) // 8
    block_bytes = 1 + np.where(nexc > 0, 1 + 2 * nexc, 0) + payload
    ends = np.cumsum(block_bytes)
    starts = np.ascontiguousarray(ends - block_bytes)
    out = np.zeros(int(ends[-1]) if R else 0, dtype=np.uint8)
    L.encode_pack_csr(vals.ctypes.data, row_ptr.ctypes.data, R,
                      widths.ctypes.data, nexc.ctypes.data,
                      starts.ctypes.data, out.ctypes.data)
    return out, starts


def decode_streams_bulk(col, counts: np.ndarray):
    """Decode MANY independent FOR/PFor streams (one per row of an Arrow
    binary column) in one C pass — the k-way merge's read side.  Returns
    ``(values_flat int64, value_offsets)`` (stream s's values are
    ``values[offs[s]:offs[s+1]]``) or None without a C lib."""
    if lib() is None:
        return None
    import pyarrow as pa
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    bufs = col.buffers()
    offsets = np.frombuffer(bufs[1], np.int32)[
        col.offset:col.offset + len(col) + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], np.uint8) if bufs[2] is not None \
        else np.empty(0, np.uint8)
    return decode_streams_at(data, offsets[:-1], counts)


def decode_streams_at(data: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray):
    """``decode_streams_bulk`` over streams starting at byte offsets
    ``starts`` of one buffer (a stream needs no end: its value count
    bounds it), or None without a C lib."""
    L = lib()
    if L is None:
        return None
    data = np.ascontiguousarray(data, dtype=np.uint8)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    total = int(counts.sum())
    voffs = np.empty(len(counts) + 1, np.int64)
    voffs[0] = 0
    np.cumsum(counts, out=voffs[1:])
    out = np.empty(total, np.int64)
    sstarts = np.ascontiguousarray(starts, dtype=np.int64)
    out_offs = np.ascontiguousarray(voffs[:-1])
    L.decode_streams(data.ctypes.data, len(data), sstarts.ctypes.data,
                     counts.ctypes.data, len(counts),
                     out_offs.ctypes.data, out.ctypes.data)
    return out, voffs
