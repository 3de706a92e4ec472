"""Numpy references of the engine's C block codec (lucene_kmp_ray/util/
_cfor.c, reached through util/cfor.py and util/forutil.py).

The engine runs only the C. These are the vectorized numpy forms the
fuzz tests hold it to, byte for byte and value for value: the FOR / PFor
matrix encoders (``for_blocks_matrix``, ``pfor_blocks_matrix``, and
``encode_csr`` over a CSR layout), the stream decoders (``decode_blocks``,
``decode_blocks_masked``, ``decode_streams``), the positional skip-read
(``positions_select``) and the term dictionary search (``BisectTerms``).
"""

import bisect

import numpy as np

from lucene_kmp_ray.util.cfor import CEIL, EXACT, PREFIX_END, string_parts
from lucene_kmp_ray.util.forutil import (BLOCK_SIZE, MAX_EXCEPTIONS,
                                         MAX_PATCH_BITS, PATCHED_FLAG,
                                         block_stream_meta, unpack_ints)


def bit_length(v: np.ndarray) -> np.ndarray:
    """Vectorized int bit_length. Fast path: one ``np.frexp`` (the float64
    exponent IS the bit length for 0 < v < 2^53); shift-mask fallback above."""
    v = np.asarray(v, dtype=np.int64)
    if v.size == 0:
        return np.zeros(v.shape, dtype=np.int64)
    if v.max() < (1 << 53):
        _, e = np.frexp(v.astype(np.float64))
        return e.astype(np.int64)
    out = np.zeros(v.shape, dtype=np.int64)
    v = v.copy()
    for s in (32, 16, 8, 4, 2, 1):
        mask = v >= (np.int64(1) << s)
        out[mask] += s
        v[mask] >>= s
    out[v > 0] += 1
    return out


def pack_ragged(out: np.ndarray, pay_start: np.ndarray, widths: np.ndarray,
                 resh: np.ndarray, counts: np.ndarray) -> None:
    """Pack each block's first ``counts[b]`` values (``widths[b]`` bits
    each, LSB-first) into ``out`` at byte offset ``pay_start[b]``.

    Hybrid strategy by block shape:

    - FULL 128-value blocks (long posting lists — the merge/decode-heavy
      case) pack per width group through ``np.packbits`` over a dense
      uint8 bit tensor — C-loop packing, and 128·w bits is exactly the
      payload, so nothing is wasted;
    - PARTIAL blocks (df=1-ish terms — the web-vocabulary majority in the
      bulk single-block-term path) go through a ragged bit-stream
      scatter that is O(Σ counts[b]·widths[b]) — the true bit count —
      instead of expanding the zero padding 128×. Every absolute bit
      position is written once, so the byte accumulation is an exact
      np.bincount.
    """
    nblocks = len(counts)
    if nblocks == 0:
        return
    full = counts == BLOCK_SIZE
    if full.any():
        for w in np.unique(widths[full]):
            if w == 0:
                continue
            idx = np.flatnonzero(full & (widths == w))
            rows = resh[idx]
            bits = ((rows[:, :, None] >> np.arange(w, dtype=np.uint64)) & 1) \
                .astype(np.uint8)
            packed = np.packbits(bits.reshape(len(idx), BLOCK_SIZE * int(w)),
                                 axis=1, bitorder="little")
            nbytes = (BLOCK_SIZE * int(w)) // 8  # 128·w is byte-aligned
            dest = pay_start[idx][:, None] + np.arange(nbytes)
            out[dest.ravel()] = packed[:, :nbytes].ravel()
    part = np.flatnonzero(~full)
    if not len(part):
        return
    pcounts = counts[part]
    vb_p = np.repeat(part, pcounts)
    total = len(vb_p)
    if total == 0:
        return
    ob = np.cumsum(pcounts) - pcounts
    iib = np.arange(total, dtype=np.int64) - np.repeat(ob, pcounts)
    vals = resh[vb_p, iib]
    w = widths[vb_p]
    keep = w > 0
    if not keep.all():
        vals, vb_p, iib, w = vals[keep], vb_p[keep], iib[keep], w[keep]
    if len(vals) == 0:
        return
    bit_start = pay_start[vb_p] * 8 + iib * w
    tb = int(w.sum())
    off = np.cumsum(w) - w
    bit_idx = np.arange(tb, dtype=np.int64) - np.repeat(off, w)
    val_rep = np.repeat(vals, w)
    bits = ((val_rep >> bit_idx.astype(np.uint64)) &
            np.uint64(1)).astype(np.int64)
    abs_bit = np.repeat(bit_start, w) + bit_idx
    contrib = bits << (abs_bit & 7)
    acc = np.bincount(abs_bit >> 3, weights=contrib, minlength=len(out))
    out |= acc.astype(np.uint8)


def for_blocks_matrix(resh: np.ndarray, counts: np.ndarray):
    """``forutil.for_blocks_matrix`` in numpy: widths from one vectorized
    bit length, payloads packed by ``pack_ragged``."""
    nblocks = resh.shape[0]
    widths = bit_length(resh.max(axis=1).astype(np.int64))
    payload = (counts * widths + 7) // 8
    # stream offsets: 1 header byte + payload per block
    ends = np.cumsum(1 + payload)
    starts = ends - (1 + payload)
    out = np.zeros(int(ends[-1]) if nblocks else 0, dtype=np.uint8)
    out[starts] = widths.astype(np.uint8)
    pack_ragged(out, starts + 1, widths, resh, counts)
    return out, starts


def pfor_blocks_matrix(resh: np.ndarray, counts: np.ndarray):
    """``forutil.pfor_blocks_matrix`` in numpy: the cost-based width
    choice over the top eight bit lengths of every block at once."""
    nblocks = resh.shape[0]
    bl = bit_length(resh.reshape(-1).astype(np.int64)) \
        .reshape(nblocks, BLOCK_SIZE)

    # top-(MAX_EXCEPTIONS+1) bit lengths per block, descending
    k = MAX_EXCEPTIONS + 1
    if bl.shape[1] > k:
        top = -np.partition(-bl, k - 1, axis=1)[:, :k]
        top.sort(axis=1)
        top = top[:, ::-1]
    else:
        top = -np.sort(-bl, axis=1)
    w_full = top[:, 0]
    # candidate e: width = top[:, e]; exceptions have bl > width
    cand_w = top                                 # (nblocks, 8)
    nexc = (bl[:, :, None] > cand_w[:, None, :]).sum(axis=1)  # (nblocks, 8)
    patch_ok = (w_full[:, None] - cand_w) <= MAX_PATCH_BITS
    cost = (counts[:, None] * cand_w + 7) // 8 + \
        np.where(nexc > 0, 1 + 2 * nexc, 0)
    cost = np.where(patch_ok & (nexc <= MAX_EXCEPTIONS), cost, 1 << 40)
    best = np.argmin(cost, axis=1)               # first (fewest-exc) minimum
    widths = cand_w[np.arange(nblocks), best]
    n_exc = nexc[np.arange(nblocks), best]
    patched = n_exc > 0

    payload = (counts * widths + 7) // 8
    block_bytes = 1 + np.where(patched, 1 + 2 * n_exc, 0) + payload
    ends = np.cumsum(block_bytes)
    starts = ends - block_bytes
    out = np.zeros(int(ends[-1]) if nblocks else 0, dtype=np.uint8)
    out[starts] = np.where(patched, PATCHED_FLAG | widths, widths) \
        .astype(np.uint8)
    out[starts[patched] + 1] = n_exc[patched].astype(np.uint8)
    pay_start = starts + 1 + np.where(patched, 1, 0)

    mask64 = np.where(widths >= 64, np.uint64(0xFFFFFFFFFFFFFFFF),
                      (np.uint64(1) << np.minimum(widths, 63)
                       .astype(np.uint64)) - np.uint64(1))
    base = resh & mask64[:, None]
    pack_ragged(out, pay_start, widths, base, counts)
    # exception byte pairs (patched blocks only; positions+highs gathered
    # with one vectorized pass — no per-block Python)
    pb = np.flatnonzero(patched)
    if len(pb):
        exc_mask = bl[pb] > widths[pb, None]          # (p, 128)
        prow, pcol = np.nonzero(exc_mask)             # in block order
        highs = (resh[pb[prow], pcol] >>
                 widths[pb[prow]].astype(np.uint64)).astype(np.uint8)
        nes = n_exc[pb]
        local = np.arange(len(prow)) - np.repeat(
            np.cumsum(nes) - nes, nes)
        e0 = starts[pb] + 2 + payload[pb]
        dest = e0[prow] + 2 * local
        out[dest] = pcol.astype(np.uint8)
        out[dest + 1] = highs
    return out, starts


def decode_blocks(buf: bytes | memoryview, n: int) -> np.ndarray:
    """Decode encode_blocks / encode_blocks_pfor output given the count.

    Vectorized across blocks (mirror of the encoder): per-block Python work
    is only header parsing; all full blocks sharing a bit width unpack with
    a single ``np.unpackbits`` + matmul, scattered back by fancy indexing;
    PFor exception patches apply afterwards (≤7 per patched block).
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mv, meta = block_stream_meta(buf, n)
    nblocks = meta.shape[0]
    tail_cnt = n - (nblocks - 1) * BLOCK_SIZE
    pstarts, widths, nexcs = meta[:, 0], meta[:, 1], meta[:, 2]

    out = np.zeros(n, dtype=np.int64)
    full_w = widths[:-1]
    for wv in np.unique(full_w):
        if wv == 0:
            continue
        idx = np.flatnonzero(full_w == wv)
        pbytes = (BLOCK_SIZE * int(wv)) // 8
        gather = pstarts[idx][:, None] + np.arange(pbytes)
        raw = mv[gather]
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        vals = bits.reshape(len(idx), BLOCK_SIZE, int(wv)).astype(np.int64) \
            @ (np.int64(1) << np.arange(int(wv), dtype=np.int64))
        dest = idx[:, None] * BLOCK_SIZE + np.arange(BLOCK_SIZE)
        out[dest.ravel()] = vals.ravel()
    tw = int(widths[-1])
    if tw:
        s = int(pstarts[-1])
        tb = int(meta[-1, 3])
        out[(nblocks - 1) * BLOCK_SIZE:] = unpack_ints(
            mv[s:s + tb].tobytes(), tail_cnt, tw)
    apply_patches(out, mv, meta, np.flatnonzero(nexcs))
    return out


def apply_patches(out: np.ndarray, mv: np.ndarray, meta: np.ndarray,
                   blocks: np.ndarray) -> None:
    """Vectorized PFor exception application for the given block ids:
    gather every (position, high_bits) byte pair in one fancy index, then
    one scattered |=. Exception positions are unique per block, so the
    fancy in-place OR is safe."""
    if len(blocks) == 0:
        return
    nes = meta[blocks, 2]
    e0 = meta[blocks, 0] + meta[blocks, 3]
    total = int(nes.sum())
    ends = np.cumsum(nes)
    starts = ends - nes
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, nes)
    src = np.repeat(e0, nes) + 2 * local
    block_of = np.repeat(blocks, nes)
    idxs = block_of * BLOCK_SIZE + mv[src].astype(np.int64)
    out[idxs] |= mv[src + 1].astype(np.int64) << meta[block_of, 1]


def decode_blocks_masked(buf, n: int, mask: np.ndarray,
                         meta=None) -> np.ndarray:
    """Decode only the blocks selected by ``mask`` (bool per block); the
    output has length n with zeros in unselected regions. Same vectorized
    per-width unpacking as decode_blocks — the positional skip-read path.
    ``meta`` = a precomputed ``block_stream_meta(buf, n)`` result (callers
    holding a cached term row parse the stream layout once)."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mv, meta = block_stream_meta(buf, n) if meta is None else meta
    nblocks = meta.shape[0]
    out = np.zeros(n, dtype=np.int64)
    pstarts, widths, nexcs = meta[:, 0], meta[:, 1], meta[:, 2]
    sel_full = np.flatnonzero(mask[:nblocks - 1] & (widths[:-1] > 0))
    for wv in np.unique(widths[sel_full]) if len(sel_full) else []:
        idx = sel_full[widths[sel_full] == wv]
        pbytes = (BLOCK_SIZE * int(wv)) // 8
        gather = pstarts[idx][:, None] + np.arange(pbytes)
        bits = np.unpackbits(mv[gather], axis=1, bitorder="little")
        vals = bits.reshape(len(idx), BLOCK_SIZE, int(wv)).astype(np.int64) \
            @ (np.int64(1) << np.arange(int(wv), dtype=np.int64))
        dest = idx[:, None] * BLOCK_SIZE + np.arange(BLOCK_SIZE)
        out[dest.ravel()] = vals.ravel()
    if mask[nblocks - 1]:
        tail_cnt = n - (nblocks - 1) * BLOCK_SIZE
        tw = int(widths[-1])
        if tw:
            s = int(pstarts[-1])
            out[(nblocks - 1) * BLOCK_SIZE:] = unpack_ints(
                mv[s:s + int(meta[-1, 3])].tobytes(), tail_cnt, tw)
    apply_patches(out, mv, meta,
                   np.flatnonzero((nexcs > 0) & mask[:nblocks]))
    return out


def encode_csr(vals: np.ndarray, row_ptr: np.ndarray, pfor: bool):
    """``cfor.encode_csr`` through the matrix encoders: row ``r``'s
    values stacked into a zero-padded 128-column row (the padding has bit
    length 0 and is never an exception)."""
    vals = np.asarray(vals, np.int64)
    row_ptr = np.asarray(row_ptr, np.int64)
    counts = np.diff(row_ptr)
    R = len(counts)
    within = np.arange(len(vals), dtype=np.int64) - \
        np.repeat(row_ptr[:-1], counts)
    m = np.zeros((R, BLOCK_SIZE), np.uint64)
    m[np.repeat(np.arange(R), counts), within] = vals.astype(np.uint64)
    return (pfor_blocks_matrix if pfor else for_blocks_matrix)(m, counts)


def decode_streams(data: np.ndarray, starts, counts):
    """``cfor.decode_streams_at``: one ``decode_blocks`` per stream →
    ``(values_flat, value_offsets)``."""
    counts = np.asarray(counts, np.int64)
    voffs = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=voffs[1:])
    parts = [decode_blocks(data[int(s):], int(n))
             for s, n in zip(starts, counts)]
    return (np.concatenate(parts) if parts else np.empty(0, np.int64)), voffs


def positions_select(buf, meta_pair, n: int, mask: np.ndarray,
                     s: np.ndarray, e: np.ndarray, total: int) -> np.ndarray:
    """``cfor.positions_select``: the masked decode, then each entry's
    ``[s, e)`` delta slice gathered and summed into absolute positions,
    concatenated in entry order."""
    posd = decode_blocks_masked(buf, n, mask, meta=meta_pair)
    sel = (e - s).astype(np.int64)
    if total == 0:
        return np.empty(0, np.int64)
    ends = np.cumsum(sel)
    starts_out = ends - sel
    idx = np.arange(total, dtype=np.int64) - \
        np.repeat(starts_out, sel) + np.repeat(s, sel)
    deltas = posd[idx]
    # per-entry cumsum: global cumsum minus carried base at entry starts
    flat = np.cumsum(deltas)
    carried = flat[starts_out] - deltas[starts_out]
    return flat - np.repeat(carried, sel)


class BisectTerms:
    """``cfor.SortedTerms``'s search by ``bisect`` over the same Arrow
    offsets and data buffers, comparing rows as UTF-8 bytes."""

    def __init__(self, arr):
        self.array, self._offs, _, data = string_parts(arr)
        self._mv = memoryview(data)
        self._n = len(self.array)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> str:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return self._bytes(i).decode("utf-8")

    def find(self, key, lo=0, hi=None):
        return self._search(key, lo, hi, EXACT)

    def ceil(self, key, lo=0, hi=None):
        return self._search(key, lo, hi, CEIL)

    def prefix_end(self, prefix, lo=0, hi=None):
        return self._search(prefix, lo, hi, PREFIX_END)

    def _search(self, key: str, lo: int, hi, mode: int) -> int:
        b = key.encode("utf-8", "surrogatepass")
        hi = self._n if hi is None else hi
        if not 0 <= lo <= hi <= self._n:
            raise IndexError(f"rows [{lo}, {hi}) outside [0, {self._n})")
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
