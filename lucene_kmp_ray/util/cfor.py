"""On-demand compiled C core of the block codec, the term search, the
bulk scorer and the merge (``_cfor.c``, ``lib()``).

It fuses ``decode_blocks_masked`` + the per-entry position gather/cumsum
of ``SegmentReader.positions_for_entries`` into one C pass over the
encoded stream — the numpy path stays as the fallback and the semantic
reference (tests/test_cfor.py fuzzes both against each other over
random posting shapes, widths and PFor exceptions). It also holds the
term dictionary search ``SortedTerms`` runs over an Arrow string
array's buffers (``bisect`` is its fallback, tests/test_term_search.py
fuzzes both against ``sorted``), the checked ``.doc`` record decoder
(``decode_record``), the leapfrog doc conjunction (``conjoin``), the
per-segment BM25 bulk scorer (``bulk_score``, search/searcher.py;
tests/test_bulk_scorer.py holds them to the numpy path bit for bit),
the bulk block encoders of a flush (``encode_csr``) and the
record-to-record merge (``merge_terms``, ``merge_postings``,
index/merge.py; tests/test_merge_kernel.py holds it to the per-term
numpy merge byte for byte).

It is one library, compiled at a process's first use: perfbench's
``start_engine`` compiles it inside ``setup_s``. With ``cc -O2`` on a
1-CPU VM (medians of 9), it compiles in 0.60-0.68 s, against
0.42-0.48 s before the merge kernels joined it. A separate write
library would only move that compile out of ``setup_s``: every
perfbench workload also builds an index, so each run would compile
both.

``compile_kernel`` builds every C kernel of the package once per
(source, flags) hash; a failed compile warns once per process
(``warn_unavailable``) and every caller takes its fallback.
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


# -ffp-contract=off: a compiler targeting FMA hardware (aarch64, or x86
# with -march=native) may otherwise fuse ``weight - weight / (1 + f *
# inv)`` into a multiply-add, whose single rounding breaks the bulk
# scorer's bit-identity with numpy's float32 scores.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def compile_kernel(src_path: str, prefix: str) -> ctypes.CDLL:
    """Load the shared library of ``src_path``, compiling it into the
    tempdir first unless a build of the same source and flags is
    there (the flags are part of the tag, so a build made with other
    flags is never reused)."""
    with open(src_path, "rb") as f:
        src = f.read()
    tag = hashlib.sha256(src + " ".join(CFLAGS).encode()).hexdigest()[:16]
    so = os.path.join(tempfile.gettempdir(), f"{prefix}_{tag}.so")
    if not os.path.exists(so):
        tmp = f"{so}.{os.getpid()}.tmp"
        subprocess.run(["cc", *CFLAGS, "-o", tmp, src_path],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, so)  # atomic: concurrent processes race safely
    return ctypes.CDLL(so)


def warn_unavailable(what: str, e: Exception) -> None:
    """The one RuntimeWarning a process gets when a kernel fails to
    build, with the compiler's error."""
    detail = getattr(e, "stderr", None) or b""
    if isinstance(detail, bytes):
        detail = detail.decode("utf-8", "replace")
    warnings.warn(f"lucene_kmp_ray {what} unavailable, using the slow "
                  f"fallbacks: {e!r} {detail.strip()}".rstrip(),
                  RuntimeWarning, stacklevel=3)


def _compile() -> "ctypes.CDLL | None":
    lib = compile_kernel(_SRC, "lkr_cfor")
    vp = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int
    lib.positions_select.restype = i64
    lib.positions_select.argtypes = [vp, i64, vp, i64, i64, vp,
                                     vp, vp, i64, vp, vp]
    lib.encode_meta_csr.restype = None
    lib.encode_meta_csr.argtypes = [vp, vp, i64, i32, vp, vp]
    lib.encode_pack_csr.restype = None
    lib.encode_pack_csr.argtypes = [vp, vp, i64, vp, vp, vp, vp]
    lib.decode_streams.restype = i64
    lib.decode_streams.argtypes = [vp, i64, vp, vp, i64, vp, vp]
    lib.term_search.restype = i64
    lib.term_search.argtypes = [vp, i32, vp, i64, i64, ctypes.c_char_p,
                                i64, i32]
    lib.decode_record.restype = i64
    lib.decode_record.argtypes = [vp, i64, i64, i32, vp, vp]
    lib.conjoin.restype = i64
    lib.conjoin.argtypes = [i64, vp, vp, vp, vp, i64]
    lib.bulk_score.restype = i64
    lib.bulk_score.argtypes = [i64, vp, vp, i64, vp, vp, i64, vp, vp, i64,
                               i32, i64, vp, vp]
    lib.merge_terms.restype = i64
    lib.merge_terms.argtypes = [i64] + [vp] * 8
    lib.merge_postings.restype = i64
    lib.merge_postings.argtypes = [i64, vp, i64, vp, i64] + [vp] * 7
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
                warn_unavailable("C kernels", e)
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
        self.array, self._offs, self._wide, self._data = string_parts(arr)
        self._n = len(self.array)
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


def string_parts(arr):
    """``(array, offsets, wide, data)`` of an Arrow string array (a
    chunked one is combined; one chunk is not copied): its int32 offsets
    (int64 when ``wide``, a large_string) as a numpy view and its values
    Buffer — what the C term kernels read."""
    if isinstance(arr, pa.ChunkedArray):  # one chunk: no copy
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    t = arr.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
        raise TypeError(f"need a string array, not {t}")
    wide = int(pa.types.is_large_string(t))
    _, offs, data = arr.buffers()
    dtype = np.int64 if wide else np.int32
    offs = np.frombuffer(offs, dtype)[arr.offset:arr.offset + len(arr) + 1] \
        if len(arr) else np.zeros(1, dtype)
    # all-empty terms have no data buffer: pass C a valid address
    data = data if data is not None and data.size else pa.py_buffer(b"\0")
    return arr, offs, wide, data


def _ptr(a: np.ndarray) -> int:
    """The data address of a contiguous array, at a seventh of the
    cost of ``a.ctypes.data`` (per-query calls pass a dozen arrays)."""
    return pa.py_buffer(a).address


def decode_record(rec: pa.Buffer, payload: int, df: int,
                  has_freqs: bool):
    """Absolute docs, freqs (ones unless ``has_freqs``) and the docs
    stream's byte length of the ``.doc`` record ``rec``, whose first
    ``payload`` bytes hold the two streams; None without a C library.
    Raises IndexError when a stream runs past ``payload``."""
    L = lib()
    if L is None:
        return None
    docs = np.empty(df, np.int64)
    freqs = np.empty(df, np.int64)
    dl = L.decode_record(rec.address, payload, df, int(has_freqs),
                         _ptr(docs), _ptr(freqs))
    if dl < 0:
        raise IndexError("postings record runs past its end")
    return docs, freqs, dl


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
        _ptr(mv), len(mv), _ptr(meta), meta.shape[0], n, _ptr(mask8),
        _ptr(s), _ptr(e), len(s), _ptr(scratch), _ptr(out))
    assert wrote == total
    return out


def encode_matrix(resh: np.ndarray, counts: np.ndarray,
                  pfor: bool):
    """C bulk block encode — the for_blocks_matrix / pfor_blocks_matrix
    core (byte-identical, fuzz-asserted): ``encode_csr`` over each row's
    first ``counts[r]`` values (the zero padding past them has bit
    length 0 and is never an exception). Returns ``(stream_uint8,
    block_starts)`` or None when no C library is available."""
    counts = np.asarray(counts, np.int64)
    keep = np.arange(resh.shape[1]) < counts[:, None]
    vals = np.ascontiguousarray(resh, np.uint64)[keep].view(np.int64)
    return encode_csr(vals, np.append(0, np.cumsum(counts)), pfor)


def encode_csr(vals: np.ndarray, row_ptr: np.ndarray, pfor: bool):
    """C bulk block encode over a CSR layout — row ``r``'s (<= 128)
    values are ``vals[row_ptr[r]:row_ptr[r+1]]``.  Byte-identical to
    the numpy matrix encoders over the equivalent zero-padded matrix
    (the padding contributes bit length 0 and can never be an
    exception). Returns ``(stream_uint8, block_starts)`` or None
    without a C lib."""
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
    out = np.empty(int(ends[-1]) if R else 0, dtype=np.uint8)
    L.encode_pack_csr(vals.ctypes.data, row_ptr.ctypes.data, R,
                      widths.ctypes.data, nexc.ctypes.data,
                      starts.ctypes.data, out.ctypes.data)
    return out, starts


def decode_streams_at(data: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray):
    """Decode many independent FOR/PFor streams, starting at byte
    offsets ``starts`` of one buffer (a stream needs no end: its value
    count bounds it), in one C pass → ``(values_flat int64,
    value_offsets)`` (stream s's values are ``values[offs[s]:offs[s+1]]``),
    or None without a C lib. Raises IndexError when a stream runs past
    the buffer."""
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
    if L.decode_streams(data.ctypes.data, len(data), sstarts.ctypes.data,
                        counts.ctypes.data, len(counts),
                        out_offs.ctypes.data, out.ctypes.data) < 0:
        raise IndexError("a postings stream runs past the end of its buffer")
    return out, voffs


def _list_table(arrays):
    """Contiguous int64 forms of ``arrays`` (the arrays themselves when
    they already are), and their addresses and lengths as int64 arrays
    for a C call; the caller keeps the first alive across the call."""
    arrays = [np.ascontiguousarray(a, np.int64) for a in arrays]
    return (arrays, np.array([_ptr(a) for a in arrays], np.int64),
            np.array([len(a) for a in arrays], np.int64))


def conjoin(lists: list) -> "tuple[np.ndarray, list] | None":
    """The docs common to the ascending int64 ``lists`` and, per list,
    each one's entry in it (leapfrog from the shortest list), or None
    without a C library."""
    L = lib()
    if L is None:
        return None
    lists, ptrs, lens = _list_table(lists)
    cap = int(lens.min())
    out = np.empty(cap, np.int64)
    idx = np.empty((len(lists), cap), np.int64)
    n = L.conjoin(len(lists), _ptr(ptrs), _ptr(lens), _ptr(out), _ptr(idx),
                  cap)
    if n < 0:
        raise MemoryError("conjoin")
    return out[:n], list(idx[:, :n])


# bulk_score's clause row: rec, payload, df, has_freqs, must, cache,
# norms, len(norms)
CL_NCOL = 8


def bulk_score(clauses: list, weights: list, filters: list, excluded: list,
               msm: int, dtype, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """One segment's ``(docs asc, scores)`` of a term query or a flat
    boolean over term clauses, in one C pass. ``clauses`` rows are
    ``(rec, payload, df, has_freqs, must, cache, norms)``: the ``.doc``
    record Buffer and its stream bytes, the scorer's 256-entry cache and
    the field's norms; ``weights`` the scorers' weights; ``filters`` and
    ``excluded`` the FILTER and MUST_NOT doc arrays; at most ``cap``
    docs match. The caller checks ``lib()`` first."""
    L = lib()
    cl = np.empty((len(clauses), CL_NCOL), np.int64)
    for row, (rec, payload, df, has, must, cache, norms) in zip(cl,
                                                                clauses):
        row[:] = (rec.address, payload, df, has, must, _ptr(cache),
                  _ptr(norms), len(norms))
    w = np.array(weights, np.float64)
    filters, req, req_n = _list_table(filters)
    excluded, ex, ex_n = _list_table(excluded)
    docs = np.empty(cap, np.int64)
    scores = np.empty(cap, dtype)
    n = L.bulk_score(len(clauses), _ptr(cl), _ptr(w), len(filters),
                     _ptr(req), _ptr(req_n), len(excluded), _ptr(ex),
                     _ptr(ex_n), msm, int(np.dtype(dtype) == np.float32),
                     cap, _ptr(docs), _ptr(scores))
    if n == -1:
        raise IndexError("postings record runs past its end")
    if n == -2:
        raise IndexError("a posting's doc lies past its field's norms")
    if n < 0:
        raise MemoryError("bulk_score")
    return docs[:n], scores[:n]


def merge_terms(runs: list) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of sorted term runs, in one C pass: ``runs``
    lists ``(terms, lo, hi)``, rows ``[lo, hi)`` of an Arrow string
    array each. Returns each run row's merged code (over the runs
    concatenated in order) and, per code, the concatenated row of its
    first occurrence. The caller checks ``lib()`` first."""
    L = lib()
    tab = np.empty((6, len(runs)), np.int64)  # offs, wide, data, lo, hi,
    keep, base = [], 0                        # base
    for s, (arr, lo, hi) in enumerate(runs):
        _, offs, wide, data = string_parts(arr)
        keep.append((offs, data))
        tab[:, s] = (_ptr(offs), wide, data.address, lo, hi, base)
        base += hi - lo
    codes = np.empty(base, np.int64)
    first = np.empty(base, np.int64)
    n = L.merge_terms(len(runs), *(_ptr(row) for row in tab), _ptr(codes),
                      _ptr(first))
    if n < 0:
        raise MemoryError("merge_terms")
    return codes, first[:n]


# merge_postings' source row: doc, doc_len, pos, pos_len, doc_ptr,
# pos_ptr, df, ttf, codes, nrows, inv, ninv, and the kernel's cursor
SRC_NCOL = 13


def merge_postings(sources: list, n_codes: int, norms: np.ndarray,
                   out_doc: np.ndarray, out_pos: np.ndarray,
                   io: np.ndarray) -> np.ndarray:
    """One field's merged postings records, in one C pass. ``sources``
    rows are ``(doc, pos, doc_ptr, pos_ptr, df, ttf, codes, inv)``: a
    source's whole ``.doc`` / ``.pos`` Buffers; its field rows' record
    pointers, each with the last record's end appended; their df, ttf
    and merged codes; and its doc map (old local doc → new doc, -1 when
    reclaimed). ``norms`` are the merged field's. Records go into
    ``out_doc`` / ``out_pos`` from ``io``'s used counts on (``io`` = doc
    bytes used, doc capacity, pos bytes used, pos capacity, advanced in
    place). Returns the rows ``df, ttf, doc_ptr, pos_ptr`` per code; df
    is 0 for a term whose postings were all reclaimed. Raises IndexError
    when a record is corrupt or a doc lies past its source's doc map or
    the norms. The caller checks ``lib()`` first."""
    L = lib()
    tab = np.zeros((len(sources), SRC_NCOL), np.int64)
    keep = []
    for row, (doc, pos, *arrays) in zip(tab, sources):
        arrays = [np.ascontiguousarray(a, np.int64) for a in arrays]
        keep.append(arrays)
        dp, pp, df, ttf, codes, inv = arrays
        row[:12] = (doc.address, doc.size, pos.address, pos.size, _ptr(dp),
                    _ptr(pp), _ptr(df), _ptr(ttf), _ptr(codes), len(codes),
                    _ptr(inv), len(inv))
    norms = np.ascontiguousarray(norms, np.uint8)
    out = np.empty((4, n_codes), np.int64)
    rc = L.merge_postings(len(sources), _ptr(tab), n_codes, _ptr(norms),
                          len(norms), _ptr(out_doc), _ptr(out_pos), _ptr(io),
                          *(_ptr(r) for r in out))
    if rc == -1:
        raise IndexError("postings record runs past its end")
    if rc == -2:
        raise IndexError("a posting's doc lies past its source's doc map "
                         "or its field's norms")
    if rc < 0:
        raise MemoryError("merge_postings")
    return out
