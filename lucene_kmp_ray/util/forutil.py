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

The stream encode and decode run in C (``util/cfor.py``); the postings
writer that the flush and the merge share writes its records with the
same block encoder. The numpy references the tests compare them with
live in tests/_ref_codec.py.
"""

from __future__ import annotations

import numpy as np

from . import cfor

BLOCK_SIZE = 128  # ForUtil.kt:121

__all__ = ["BLOCK_SIZE", "encode_blocks", "decode_blocks", "delta_encode",
           "delta_decode"]


def encode_blocks(vals: np.ndarray) -> bytes:
    """FOR-encode an int array into self-describing 128-value blocks
    (one C ``encode_stream`` call)."""
    return _encode(vals, pfor=False)


def _encode(vals: np.ndarray, pfor: bool) -> bytes:
    v = np.asarray(vals, dtype=np.int64)
    if len(v) and v.min() < 0:
        raise ValueError("FOR encoding requires non-negative values")
    return cfor.encode_stream(v, pfor).tobytes()


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

    Width selection is cost-based: for e ∈ 0..7 the candidate width is
    the (e+1)-th largest bit length in the block; the cheapest valid
    (high bits ≤ 8) candidate wins, the first on ties. One C
    ``encode_stream`` call.
    """
    return _encode(vals, pfor=True)


def block_stream_meta(buf, n: int):
    """Walk a FOR/PFor block stream → per-block metadata arrays
    ``(start_of_payload, width, n_exc, payload_bytes, block_total_bytes)``
    — the parser of the positional skip-read (``cfor.positions_select``'s
    metadata)."""
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


def decode_blocks(buf, n: int) -> np.ndarray:
    """Decode encode_blocks / encode_blocks_pfor output given the count:
    one C stream decode (``cfor.decode_streams_at``). Raises IndexError
    when the stream runs past ``buf``."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    data = buf if isinstance(buf, np.ndarray) else \
        np.frombuffer(buf, dtype=np.uint8)
    return cfor.decode_streams_at(data, [0], [n])[0]


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
