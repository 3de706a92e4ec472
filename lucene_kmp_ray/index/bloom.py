"""Bloom-filtered term dictionary sidecar — the reference's
``codecs/bloom/`` package (``BloomFilteringPostingsFormat.kt``,
``FuzzySet.kt``, ``DefaultBloomFilterFactory.kt``) re-expressed for the
Parquet segment layout:

- ``FuzzySet``: the reference's bloom filter exactly — bit positions
  ``(lsb + i*msb) & bloomSize`` from MurmurHash3 x64 128 (seed 104729,
  ``util/StringHelper.kt:581``), usable sizes 2^k - 1, saturation-driven
  ``downsize`` (target 0.5), optimal sizing from
  ``createOptimalSet(maxUniqueValues, fpp=0.1023)``.
- Per segment, per field, one tiny ``bloom.npz`` sidecar written next to
  ``terms.parquet``. A reader consults it BEFORE touching the term
  dictionary: ``NO`` answers skip the vocabulary load + binary search
  entirely. At fleet scale a point lookup of a rare term across
  thousands of segments costs thousands of tiny bitset reads instead of
  thousands of vocabulary scans — the exact use case the reference's
  format documents (primary-key style fields).

The hash is vectorized across same-length keys for the build path
(``murmur128_bulk``, which reads an Arrow term column straight from its
buffers) and asserted equal to the scalar transcription in
tests/test_bloom.py. False-negative freedom is asserted against real
segment vocabularies (the contract CheckIndex verifies).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .postings import _binary_parts

BLOOM_FILE = "bloom.npz"
_SEED = 104729  # StringHelper.murmurhash3_x64_128's fixed seed
_M64 = (1 << 64) - 1

_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _M64


def _fmix(k: int) -> int:
    k ^= k >> 33
    k = (k * 0xFF51AFD7ED558CCD) & _M64
    k ^= k >> 33
    k = (k * 0xC4CEB9FE1A85EC53) & _M64
    k ^= k >> 33
    return k


def murmur128(data: bytes, seed: int = _SEED) -> tuple[int, int]:
    """MurmurHash3 x64 128 (Apache Commons variant, the reference's
    StringHelper.murmurhash3_x64_128) — returns (h1, h2) as unsigned
    64-bit ints."""
    length = len(data)
    h1 = h2 = seed & _M64
    nblocks = length >> 4
    for i in range(nblocks):
        o = i << 4
        k1 = int.from_bytes(data[o:o + 8], "little")
        k2 = int.from_bytes(data[o + 8:o + 16], "little")
        k1 = (k1 * _C1) & _M64
        k1 = _rotl(k1, 31)
        k1 = (k1 * _C2) & _M64
        h1 ^= k1
        h1 = _rotl(h1, 27)
        h1 = (h1 + h2) & _M64
        h1 = (h1 * 5 + 0x52DCE729) & _M64
        k2 = (k2 * _C2) & _M64
        k2 = _rotl(k2, 33)
        k2 = (k2 * _C1) & _M64
        h2 ^= k2
        h2 = _rotl(h2, 31)
        h2 = (h2 + h1) & _M64
        h2 = (h2 * 5 + 0x38495AB5) & _M64
    tail = data[nblocks << 4:]
    k1 = k2 = 0
    t = len(tail)
    if t > 8:
        k2 = int.from_bytes(tail[8:], "little")
        k2 = (k2 * _C2) & _M64
        k2 = _rotl(k2, 33)
        k2 = (k2 * _C1) & _M64
        h2 ^= k2
    if t > 0:
        k1 = int.from_bytes(tail[:min(t, 8)], "little")
        k1 = (k1 * _C1) & _M64
        k1 = _rotl(k1, 31)
        k1 = (k1 * _C2) & _M64
        h1 ^= k1
    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & _M64
    h2 = (h2 + h1) & _M64
    h1 = _fmix(h1)
    h2 = _fmix(h2)
    h1 = (h1 + h2) & _M64
    h2 = (h2 + h1) & _M64
    return h1, h2


def murmur128_bulk(keys, seed: int = _SEED) -> np.ndarray:
    """(n, 2) uint64 of (h1, h2) per key — a list of bytes, or an Arrow
    string/binary array hashed straight from its buffers (UTF-8 bytes of
    each term) — vectorized across keys of equal length (the
    segment-build path hashes a whole vocabulary)."""
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        data, offs = _binary_parts(keys)
        data = np.frombuffer(data, np.uint8)
    else:
        data = np.frombuffer(b"".join(keys), np.uint8)
        offs = np.zeros(len(keys) + 1, np.int64)
        np.cumsum([len(k) for k in keys], out=offs[1:])
    lengths = np.diff(offs)
    out = np.empty((len(lengths), 2), dtype=np.uint64)
    order = np.argsort(lengths, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) \
        if len(order) else []
    with np.errstate(over="ignore"):
        for idx in groups:  # keys of one length, gathered as a matrix
            ln = int(lengths[idx[0]])
            buf = data[offs[idx][:, None] + np.arange(ln)]
            h1, h2 = _bulk_same_len(buf, ln, seed)
            out[idx, 0] = h1
            out[idx, 1] = h2
    return out


def terms_by_field(terms_table) -> list[tuple[str, "pa.ChunkedArray"]]:
    """``(field, Arrow term column)`` per field of a (field, term)
    table, in table order; a table without a ``field`` column is all
    ``text``."""
    term = terms_table["term"]
    if "field" not in terms_table.column_names:
        return [("text", term)] if len(term) else []
    fcol = terms_table["field"].cast(pa.string())
    return [(f, term.filter(pc.equal(fcol, f)))
            for f in pc.unique(fcol).to_pylist()]


def _bulk_same_len(buf: np.ndarray, length: int, seed: int):
    u64 = np.uint64
    h1 = np.full(len(buf), seed, dtype=u64)
    h2 = np.full(len(buf), seed, dtype=u64)
    c1 = u64(_C1)
    c2 = u64(_C2)

    def rotl(x, r):
        return (x << u64(r)) | (x >> u64(64 - r))

    nblocks = length >> 4
    for i in range(nblocks):
        o = i << 4
        k1 = buf[:, o:o + 8].copy().view("<u8").ravel().astype(u64)
        k2 = buf[:, o + 8:o + 16].copy().view("<u8").ravel().astype(u64)
        k1 = rotl(k1 * c1, 31) * c2
        h1 ^= k1
        h1 = rotl(h1, 27) + h2
        h1 = h1 * u64(5) + u64(0x52DCE729)
        k2 = rotl(k2 * c2, 33) * c1
        h2 ^= k2
        h2 = rotl(h2, 31) + h1
        h2 = h2 * u64(5) + u64(0x38495AB5)
    t = length & 0x0F
    o = nblocks << 4
    if t:
        pad = np.zeros((len(buf), 16), dtype=np.uint8)
        pad[:, :t] = buf[:, o:o + t]
        k1 = pad[:, :8].copy().view("<u8").ravel().astype(u64)
        if t > 8:
            k2 = pad[:, 8:16].copy().view("<u8").ravel().astype(u64)
            h2 ^= rotl(k2 * c2, 33) * c1
        h1 ^= rotl(k1 * c1, 31) * c2
    h1 ^= u64(length)
    h2 ^= u64(length)
    h1 = h1 + h2
    h2 = h2 + h1

    def fmix(k):
        k ^= k >> u64(33)
        k *= u64(0xFF51AFD7ED558CCD)
        k ^= k >> u64(33)
        k *= u64(0xC4CEB9FE1A85EC53)
        k ^= k >> u64(33)
        return k

    h1 = fmix(h1)
    h2 = fmix(h2)
    h1 = h1 + h2
    h2 = h2 + h1
    return h1, h2


# usable sizes: (1 << (i+6)) - 1 (FuzzySet.usableBitSetSizes)
USABLE_BITSET_SIZES = [(1 << (i + 6)) - 1 for i in range(26)]


class FuzzySet:
    """FuzzySet.kt — bits is a little-endian uint64 word array of
    ``bloom_size + 1`` bits; ``bloom_size`` is 2^k - 1 and doubles as
    the positional mask."""

    def __init__(self, bloom_size: int, hash_count: int,
                 bits: np.ndarray | None = None):
        self.bloom_size = bloom_size
        self.hash_count = hash_count
        nwords = ((bloom_size + 1) + 63) >> 6
        self.bits = (np.zeros(nwords, dtype=np.uint64)
                     if bits is None else bits)

    # -- sizing (FuzzySet companion) ---------------------------------------
    @staticmethod
    def nearest_set_size(max_number_of_bits: int) -> int:
        result = USABLE_BITSET_SIZES[0]
        for s in USABLE_BITSET_SIZES:
            if s <= max_number_of_bits:
                result = s
        return result

    @classmethod
    def create_optimal_set(cls, max_unique_values: int,
                           target_fpp: float = 0.1023) -> "FuzzySet":
        import math
        set_size = int(math.ceil(
            (max_unique_values * math.log(target_fpp))
            / math.log(1 / (2.0 ** math.log(2.0)))))
        set_size = cls.nearest_set_size(2 * set_size)
        k = int(round((set_size / max(1, max_unique_values))
                      * math.log(2.0)))
        return cls(set_size, max(1, k))

    # -- membership ---------------------------------------------------------
    def _positions(self, h1: int, h2: int) -> list[int]:
        # FuzzySet.contains/addValue: pos_i = (lsb + i*msb) & bloomSize
        # (msb = hash[0], lsb = hash[1]; Kotlin Long wraparound == mask)
        return [((h2 + i * h1) & self.bloom_size)
                for i in range(self.hash_count)]

    def add_value(self, value: bytes) -> None:
        h1, h2 = murmur128(value)
        for pos in self._positions(h1, h2):
            self.bits[pos >> 6] |= np.uint64(1 << (pos & 63))

    def add_values(self, values) -> None:
        """Vectorized bulk add (the segment-build path): a list of bytes
        or an Arrow string array (see ``murmur128_bulk``)."""
        if len(values) == 0:
            return
        h = murmur128_bulk(values)
        mask = np.uint64(self.bloom_size)
        with np.errstate(over="ignore"):
            for i in range(self.hash_count):
                pos = (h[:, 1] + np.uint64(i) * h[:, 0]) & mask
                np.bitwise_or.at(self.bits, (pos >> np.uint64(6))
                                 .astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))

    def may_contain(self, value: bytes) -> bool:
        h1, h2 = murmur128(value)
        for pos in self._positions(h1, h2):
            if not (int(self.bits[pos >> 6]) >> (pos & 63)) & 1:
                return False  # ContainsResult.NO
        return True  # ContainsResult.MAYBE

    # -- saturation / downsize ----------------------------------------------
    @property
    def cardinality(self) -> int:
        return int(np.unpackbits(self.bits.view(np.uint8)).sum())

    @property
    def saturation(self) -> float:
        return self.cardinality / float(self.bloom_size)

    def downsize(self, target_max_saturation: float = 0.5
                 ) -> "FuzzySet | None":
        """Project to the smallest usable size still under the target
        saturation (FuzzySet.downsize — AND-mask reprojection)."""
        num_set = self.cardinality
        right_size = self.bloom_size
        for s in USABLE_BITSET_SIZES:
            if num_set / float(s) <= target_max_saturation:
                right_size = s
                break
        if right_size >= self.bloom_size:
            return None
        small = FuzzySet(right_size, self.hash_count)
        words = self.bits
        for w in np.nonzero(words)[0]:
            word = int(words[w])
            base = int(w) << 6
            while word:
                b = word & -word
                pos = base + b.bit_length() - 1
                dp = pos & right_size
                small.bits[dp >> 6] |= np.uint64(1 << (dp & 63))
                word ^= b
        return small

    # -- persistence ----------------------------------------------------------
    def save(self, path: str) -> None:
        np.savez_compressed(
            path, bloom_size=np.int64(self.bloom_size),
            hash_count=np.int64(self.hash_count), bits=self.bits)

    @classmethod
    def load(cls, path: str) -> "FuzzySet":
        with np.load(path) as z:
            return cls(int(z["bloom_size"]), int(z["hash_count"]),
                       z["bits"].copy())


def build_segment_bloom(terms_table, seg_dir: str,
                        target_fpp: float = 0.1023) -> dict:
    """Build + persist the per-field bloom sidecar for one segment's
    term dictionary (BloomFilteringPostingsFormat.FieldsWriter role:
    one FuzzySet per field, downsized before save, skipped when
    saturated > 0.9). Returns {field: saturation}."""
    sets: dict[str, FuzzySet] = {}
    stats: dict[str, float] = {}
    for f, keys in terms_by_field(terms_table):
        fs = FuzzySet.create_optimal_set(len(keys), target_fpp)
        fs.add_values(keys)
        small = fs.downsize(0.5)
        if small is not None:
            fs = small
        if fs.saturation > 0.9:  # DefaultBloomFilterFactory.isSaturated
            continue
        sets[f] = fs
        stats[f] = fs.saturation
    if sets:
        arrays: dict[str, np.ndarray] = {}
        for f, fs in sets.items():
            arrays[f"{f}__bloom_size"] = np.int64(fs.bloom_size)
            arrays[f"{f}__hash_count"] = np.int64(fs.hash_count)
            arrays[f"{f}__bits"] = fs.bits
        np.savez_compressed(os.path.join(seg_dir, BLOOM_FILE), **arrays)
    return stats


def load_segment_bloom(seg_dir: str) -> dict[str, FuzzySet] | None:
    path = os.path.join(seg_dir, BLOOM_FILE)
    if not os.path.exists(path):
        return None
    out: dict[str, FuzzySet] = {}
    with np.load(path) as z:
        fields = {k[:-len("__bits")] for k in z.files
                  if k.endswith("__bits")}
        for f in fields:
            out[f] = FuzzySet(int(z[f"{f}__bloom_size"]),
                              int(z[f"{f}__hash_count"]),
                              z[f"{f}__bits"].copy())
    return out
