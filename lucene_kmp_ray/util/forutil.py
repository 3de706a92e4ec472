"""Delta + FOR (Frame-of-Reference) bit-packing for posting lists.

Semantics follow the reference's Lucene101 postings layout
(``/root/reference/core/.../codecs/lucene101/ForUtil.kt:121`` — 128-int
blocks, per-block bit width; ``ForDeltaUtil.kt`` — delta+FOR for docIDs;
skip/impact metadata every block, ``Lucene101PostingsWriter.kt:96-107``).
The byte layout here is our own (numpy little-endian bit packing); scores
depend on the decoded *values*, which round-trip exactly.

Stream layout per encoded column: for each 128-value block (tail may be
short) one header byte = bit width ``w``, then ``ceil(nvals*w/8)`` payload
bytes with values packed LSB-first. ``w == 0`` means all values are 0 and
there is no payload. Decoding needs only the total value count.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128  # ForUtil.kt:121

__all__ = ["BLOCK_SIZE", "pack_ints", "unpack_ints", "encode_blocks",
           "decode_blocks", "delta_encode", "delta_decode"]


def pack_ints(vals: np.ndarray, width: int) -> bytes:
    """Pack non-negative ints into `width` bits each, LSB-first."""
    n = len(vals)
    if width == 0 or n == 0:
        return b""
    v = np.ascontiguousarray(vals, dtype=np.uint64)
    bits = ((v[:, None] >> np.arange(width, dtype=np.uint64)) & 1).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little").tobytes()


def unpack_ints(buf: memoryview | bytes, n: int, width: int) -> np.ndarray:
    """Inverse of pack_ints → int64 array of length n."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.int64)
    raw = np.frombuffer(buf, dtype=np.uint8, count=(n * width + 7) // 8)
    bits = np.unpackbits(raw, bitorder="little", count=n * width)
    weights = (np.int64(1) << np.arange(width, dtype=np.int64))
    return bits.reshape(n, width).astype(np.int64) @ weights


def _width_of(block_max: int) -> int:
    return int(block_max).bit_length()


def _bit_length_np(v: np.ndarray) -> np.ndarray:
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


def _pack_ragged(out: np.ndarray, pay_start: np.ndarray, widths: np.ndarray,
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


def for_blocks_matrix(resh: np.ndarray,
                      counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FOR-encode a (nblocks, 128) uint64 matrix (row b holds ``counts[b]``
    values, zero-padded) into one self-describing block stream. Blocks are
    INDEPENDENT in the stream, so callers may treat each row as a separate
    value list (the bulk single-block-term path of encode_term_table) or as
    consecutive blocks of one list (encode_blocks) — the bytes per block
    are identical either way. Returns ``(stream_uint8, block_starts)``
    (block b's bytes are ``stream[starts[b]:starts[b+1] or end]``).
    """
    from .cfor import encode_matrix as _c_encode
    c = _c_encode(resh, counts, pfor=False)
    if c is not None:
        return c
    return _for_blocks_matrix_np(resh, counts)


def _for_blocks_matrix_np(resh: np.ndarray, counts: np.ndarray):
    """Numpy reference implementation of for_blocks_matrix (the C
    fallback; byte-identity fuzz-asserted in tests/test_cfor.py)."""
    nblocks = resh.shape[0]
    widths = _bit_length_np(resh.max(axis=1).astype(np.int64))
    payload = (counts * widths + 7) // 8
    # stream offsets: 1 header byte + payload per block
    ends = np.cumsum(1 + payload)
    starts = ends - (1 + payload)
    out = np.zeros(int(ends[-1]) if nblocks else 0, dtype=np.uint8)
    out[starts] = widths.astype(np.uint8)
    _pack_ragged(out, starts + 1, widths, resh, counts)
    return out, starts


def encode_blocks(vals: np.ndarray) -> bytes:
    """FOR-encode an int array into self-describing 128-value blocks.

    Vectorized across blocks: blocks sharing a bit width are packed with a
    single ``np.packbits`` call and scattered into the output stream by
    fancy indexing — no per-block Python work.
    """
    v = np.asarray(vals, dtype=np.int64)
    n = len(v)
    if n == 0:
        return b""
    if v.min() < 0:
        raise ValueError("FOR encoding requires non-negative values")
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    padded = np.zeros(nblocks * BLOCK_SIZE, dtype=np.uint64)
    padded[:n] = v.astype(np.uint64)
    counts = np.full(nblocks, BLOCK_SIZE, dtype=np.int64)
    counts[-1] = n - (nblocks - 1) * BLOCK_SIZE
    out, _ = for_blocks_matrix(padded.reshape(nblocks, BLOCK_SIZE), counts)
    return out.tobytes()


PATCHED_FLAG = 0x80      # header high bit: PFor block with exceptions
MAX_EXCEPTIONS = 7       # PForUtil.kt:100
MAX_PATCH_BITS = 8       # exception high bits must fit one byte


def encode_blocks_pfor(vals: np.ndarray) -> bytes:
    """PForDelta-encode: FOR blocks where up to MAX_EXCEPTIONS outlier
    values per 128-block store only their low ``w`` bits in the packed
    payload, with their high bits patched from per-exception bytes —
    the semantics of the reference's ``PForUtil.kt:17-100`` (≤7 patched
    exceptions, chosen when they shrink the block). Self-describing block
    layout: header ``0x80|w``, one exception-count byte, packed payload,
    then ``(position, high_bits)`` byte pairs. Blocks where patching does
    not pay stay plain FOR (header ``w``), so ``decode_blocks`` reads both.

    Width selection is cost-based and fully vectorized: for e ∈ 0..7 the
    candidate width is the (e+1)-th largest bit length in the block; the
    cheapest valid (high bits ≤ 8) candidate wins.
    """
    v = np.asarray(vals, dtype=np.int64)
    n = len(v)
    if n == 0:
        return b""
    if v.min() < 0:
        raise ValueError("FOR encoding requires non-negative values")
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    padded = np.zeros(nblocks * BLOCK_SIZE, dtype=np.uint64)
    padded[:n] = v.astype(np.uint64)
    counts = np.full(nblocks, BLOCK_SIZE, dtype=np.int64)
    counts[-1] = n - (nblocks - 1) * BLOCK_SIZE
    out, _ = pfor_blocks_matrix(padded.reshape(nblocks, BLOCK_SIZE), counts)
    return out.tobytes()


def pfor_blocks_matrix(resh: np.ndarray,
                       counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PFor-encode a (nblocks, 128) matrix into one block stream — the
    vectorized core of encode_blocks_pfor, shared with the bulk
    single-block-term path (see for_blocks_matrix on block independence).
    Returns ``(stream_uint8, block_starts)``."""
    from .cfor import encode_matrix as _c_encode
    c = _c_encode(resh, counts, pfor=True)
    if c is not None:
        return c
    return _pfor_blocks_matrix_np(resh, counts)


def _pfor_blocks_matrix_np(resh: np.ndarray, counts: np.ndarray):
    """Numpy reference implementation of pfor_blocks_matrix (the C
    fallback; byte-identity fuzz-asserted in tests/test_cfor.py)."""
    nblocks = resh.shape[0]
    bl = _bit_length_np(resh.reshape(-1).astype(np.int64)) \
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
    _pack_ragged(out, pay_start, widths, base, counts)
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


def block_stream_meta(buf, n: int):
    """Walk a FOR/PFor block stream → per-block metadata arrays
    ``(start_of_payload, width, n_exc, payload_bytes, block_total_bytes)``
    — the shared parser for decode_blocks and the skip-pointer reader."""
    mv = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    meta = np.empty((nblocks, 5), dtype=np.int64)
    pos = 0
    for b in range(nblocks):
        cnt = BLOCK_SIZE if b < nblocks - 1 else n - b * BLOCK_SIZE
        h = int(mv[pos])
        if h & PATCHED_FLAG:
            w = h & 0x7F
            ne = int(mv[pos + 1])
            pstart = pos + 2
        else:
            w, ne = h, 0
            pstart = pos + 1
        pbytes = (cnt * w + 7) // 8
        total = (pstart - pos) + pbytes + 2 * ne
        meta[b] = (pstart, w, ne, pbytes, total)
        pos += total
    return mv, meta


def decode_one_block(mv: np.ndarray, meta_row, cnt: int) -> np.ndarray:
    """Decode a single block from its stream metadata row (skip-read path)."""
    pstart, w, ne, pbytes = (int(meta_row[0]), int(meta_row[1]),
                             int(meta_row[2]), int(meta_row[3]))
    vals = unpack_ints(mv[pstart:pstart + pbytes].tobytes(), cnt, w)
    if ne:
        pairs = mv[pstart + pbytes:pstart + pbytes + 2 * ne]
        vals[pairs[0::2].astype(np.int64)] |= \
            pairs[1::2].astype(np.int64) << w
    return vals


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
    _apply_patches(out, mv, meta, np.flatnonzero(nexcs))
    return out


def _apply_patches(out: np.ndarray, mv: np.ndarray, meta: np.ndarray,
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
    _apply_patches(out, mv, meta,
                   np.flatnonzero((nexcs > 0) & mask[:nblocks]))
    return out


def delta_encode(sorted_vals: np.ndarray) -> np.ndarray:
    """First value kept absolute, then gaps (input must be ascending)."""
    v = np.asarray(sorted_vals, dtype=np.int64)
    d = np.empty_like(v)
    if len(v):
        d[0] = v[0]
        np.subtract(v[1:], v[:-1], out=d[1:])
    return d


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(deltas, dtype=np.int64))
