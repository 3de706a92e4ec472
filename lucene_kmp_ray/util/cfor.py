"""The Python side of the engine's C kernels (``util/_cfor.c``, built
and bound by ``util/native.py``; ``lib()`` is that loader).

``positions_select`` fuses the masked block decode and the per-entry
position gather of ``SegmentReader.positions_for_entries`` into one pass
over the encoded stream. ``SortedTerms`` binary-searches a term
dictionary's Arrow buffers (``term_search``). ``decode_record`` decodes a
checked ``.doc`` record, ``decode_streams_at`` many FOR/PFor streams of
one buffer, ``conjoin`` leapfrogs sorted doc lists and ``bulk_score``
scores a term query or a flat boolean over term clauses for one segment
(search/searcher.py). ``encode_stream`` is the block encoder;
``write_postings`` writes a flushed field's ``.doc`` / ``.pos`` records
(index/format.py), and ``merge_terms`` / ``merge_postings`` are the
record-to-record merge (index/merge.py), whose records go through the
same C record writer.

There is no other implementation in the engine. The numpy references
the tests compare these kernels with live under ``tests/``:
tests/test_cfor.py, tests/test_term_search.py, tests/test_bulk_scorer.py,
tests/test_flush_writer.py and tests/test_merge_kernel.py fuzz them for
byte, bit and row identity.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pyarrow as pa

from .native import lib

EXACT, CEIL, PREFIX_END = 0, 1, 2  # term_search modes


class SortedTerms(Sequence):
    """A sorted Arrow string array, searched in place. ``find``, ``ceil``
    and ``prefix_end`` binary-search its offsets and data buffers with
    the C ``term_search``; ``[i]`` decodes one term. Nothing is built
    per term, so wrapping a 700k-term dictionary costs no conversion.
    Rows are compared as UTF-8 bytes, whose order is code-point
    order."""

    def __init__(self, arr):
        self.array, self._offs, self._wide, self._data = string_parts(arr)
        self._n = len(self.array)
        self._mv = memoryview(self._data)
        # pointers and the bound function, set up once per dictionary
        self._c = (lib().term_search, self._offs.ctypes.data, self._wide,
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
        return c[0](c[1], c[2], c[3], lo, hi, b, len(b), mode)


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
    ``payload`` bytes hold the two streams. Raises IndexError when a
    stream runs past ``payload``."""
    L = lib()
    docs = np.empty(df, np.int64)
    freqs = np.empty(df, np.int64)
    dl = L.decode_record(rec.address, payload, df, int(has_freqs),
                         _ptr(docs), _ptr(freqs))
    if dl < 0:
        raise IndexError("postings record runs past its end")
    return docs, freqs, dl


def positions_select(buf: bytes, meta_pair, n: int, mask: np.ndarray,
                     s: np.ndarray, e: np.ndarray,
                     total: int) -> np.ndarray:
    """Absolute positions for the occurrence ranges ``[s,e)`` (entry
    order) of the position stream ``buf``, decoding only the blocks
    ``mask`` selects. ``meta_pair`` = ``block_stream_meta(buf, n)``;
    ``total`` = ``(e - s).sum()``."""
    L = lib()
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


def encode_stream(vals: np.ndarray, pfor: bool) -> np.ndarray:
    """The FOR (``pfor`` False) or PFor block stream of ``vals`` (non-
    negative int64): one block per 128 values, in one C pass."""
    vals = np.ascontiguousarray(vals, dtype=np.int64)
    n = len(vals)
    out = np.empty(8 * n + -(-n // 128), np.uint8)
    return out[:lib().encode_stream(_ptr(vals), n, int(pfor), _ptr(out))]


def write_postings(term_bounds: np.ndarray, docs: np.ndarray,
                   freqs: np.ndarray, posd: np.ndarray, norms: np.ndarray):
    """One field's postings records, in one C pass: term ``t`` holds the
    entries ``term_bounds[t]:term_bounds[t+1]`` of ``docs`` (ascending
    within a term) and ``freqs``, and its position deltas (each entry's
    first absolute) follow the previous term's in ``posd``. ``norms``
    are the field's. Returns ``(stats, doc, pos)``: the int64 rows ``df,
    ttf, doc_ptr, pos_ptr`` per term and the ``.doc`` / ``.pos`` bytes.
    Raises ValueError when the arrays disagree in size and IndexError
    when a doc lies past the norms."""
    tb, docs, freqs, posd = (np.ascontiguousarray(a, np.int64)
                             for a in (term_bounds, docs, freqs, posd))
    norms = np.ascontiguousarray(norms, np.uint8)
    df = np.diff(tb)
    if tb[0] != 0 or tb[-1] != len(docs) or len(freqs) != len(docs) or \
            (df < 0).any() or (freqs < 0).any() or freqs.sum() != len(posd):
        raise ValueError("term bounds, entries and positions disagree")
    # a block takes at most 1 + 8 * count bytes (write_record's bound)
    nb = -(-df // 128)
    io = np.array([0, 16 * len(docs) + 14 * int(nb.sum()), 0,
                   8 * len(posd) + len(posd) // 128 + len(df)], np.int64)
    out_doc, out_pos = np.empty(io[1], np.uint8), np.empty(io[3], np.uint8)
    dd = np.empty(max(int(df.max(initial=0)), 1), np.int64)
    stats = np.empty((4, len(df)), np.int64)
    rc = lib().write_postings(len(df), _ptr(tb), _ptr(docs), _ptr(freqs),
                              _ptr(posd), _ptr(norms), len(norms), _ptr(dd),
                              _ptr(out_doc), _ptr(out_pos), _ptr(io),
                              *(_ptr(r) for r in stats))
    if rc == -2:
        raise IndexError("a posting's doc lies past its field's norms")
    if rc < 0:  # the capacities above bound every record
        raise MemoryError("write_postings")
    return stats, out_doc[:io[0]], out_pos[:io[2]]


def decode_streams_at(data: np.ndarray, starts: np.ndarray,
                      counts: np.ndarray):
    """Decode many independent FOR/PFor streams, starting at byte
    offsets ``starts`` of one buffer (a stream needs no end: its value
    count bounds it), in one C pass → ``(values_flat int64,
    value_offsets)`` (stream s's values are ``values[offs[s]:offs[s+1]]``).
    Raises IndexError when a stream runs past the buffer."""
    L = lib()
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


def conjoin(lists: list) -> "tuple[np.ndarray, list]":
    """The docs common to the ascending int64 ``lists`` and, per list,
    each one's entry in it (leapfrog from the shortest list)."""
    L = lib()
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
    docs match."""
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
    first occurrence."""
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
    the norms."""
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
