"""Flat per-segment postings files, reached through dictionary pointers.

Lucene's term dictionary keeps, per term, file pointers into the flat
``.doc``/``.pos`` postings files (Lucene101PostingsFormat), so opening a
term's postings costs one seek. A segment directory here holds the same
three parts:

- ``terms.parquet`` — the dictionary only, sorted by (field, term):
  ``field`` (dictionary-encoded), ``term`` (DELTA_BYTE_ARRAY), ``df``,
  ``ttf``, ``doc_ptr`` and ``pos_ptr`` (DELTA_BINARY_PACKED).
- ``postings.doc`` — per term, in dictionary order: ``docs_enc``, then
  ``freqs_enc`` unless ``ttf == df`` (every freq is then 1), then — for
  a term of more than one 128-doc block — its skip/impact metadata as
  little-endian int32 ``block_last_doc``, ``block_max_freq``,
  ``block_min_norm`` (one value per block each).
- ``postings.pos`` — ``pos_enc`` per term.

A record ends where the next term's pointer starts; the last one ends at
the file size. The FOR streams need no length: the value count bounds
them. A single-block term's metadata is not stored — it re-derives from
its one block on first use.

A term row (``TermRow``) is one positioned read of its record. One C call
(``cfor.decode_record``) decodes it: absolute docs, then freqs (ones when
``ttf == df``), and the docs stream's byte length, which splits the
record into ``docs_enc`` / ``freqs_enc`` when a caller asks for those.
Every read is checked against the record's stream bytes, so a truncated
or corrupt record raises IndexError instead of reading past its buffer.

The dictionary's schema is the layout's version: ``read_dictionary``
accepts exactly ``DICT_COLS`` and raises ValueError for anything else
(segments that kept the postings payload in ``terms.parquet``, or a
dictionary without a ``field`` column, predate this layout).

``write_postings`` stores the three parts as they are. One C record
writer makes them: the flush (``format.encode_term_table_arrays``)
hands the inverted entry arrays to ``cfor.write_postings``, and the record-to-record merge (index/merge.py,
``cfor.merge_postings``) writes each merged record through the same
writer. No writer builds a logical terms table.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import cfor
from ..util import forutil as fu

TERMS_FILE = "terms.parquet"
DOC_FILE = "postings.doc"
POS_FILE = "postings.pos"
DICT_COLS = ("field", "term", "df", "ttf", "doc_ptr", "pos_ptr")
BLOCK_COLS = ("block_last_doc", "block_max_freq", "block_min_norm")


def _binary_parts(col) -> tuple[pa.Buffer, np.ndarray]:
    """(values buffer, int64 offsets from 0) of a binary column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], np.int32)[
        col.offset:col.offset + len(col) + 1].astype(np.int64)
    if not len(offs):
        return pa.py_buffer(b""), np.zeros(1, np.int64)
    data = bufs[2] if bufs[2] is not None else pa.py_buffer(b"")
    return data.slice(int(offs[0]), int(offs[-1] - offs[0])), offs - offs[0]


def _narrow(a: np.ndarray) -> pa.Array:
    """int32 when every value fits (half the resident dictionary of an
    open reader), else int64."""
    fits = not len(a) or int(a.max()) < 2 ** 31
    return pa.array(a, pa.int32() if fits else pa.int64())


def write_postings(seg_dir: str, dictionary: pa.Table, doc, pos) -> None:
    """Write the dictionary plus the two flat postings files (every build
    path and the merge store through it): ``doc`` / ``pos`` are the
    ``postings.doc`` / ``postings.pos`` bytes the dictionary's pointers
    address, as the C record writer (``cfor.write_postings`` /
    ``cfor.merge_postings``) returns them."""
    pq.write_table(
        dictionary, os.path.join(seg_dir, TERMS_FILE),
        use_dictionary=["field"],
        column_encoding={"term": "DELTA_BYTE_ARRAY",
                         "doc_ptr": "DELTA_BINARY_PACKED",
                         "pos_ptr": "DELTA_BINARY_PACKED"})
    for name, buf in ((DOC_FILE, doc), (POS_FILE, pos)):
        with open(os.path.join(seg_dir, name), "wb") as f:
            f.write(buf)


def ones_stream(n: int) -> bytes:
    """The FOR stream of ``n`` ones — ``freqs_enc`` of a term whose
    ``ttf == df`` (byte-identical to ``fu.encode_blocks_pfor``)."""
    full, tail = divmod(int(n), fu.BLOCK_SIZE)
    out = (b"\x01" + b"\xff" * (fu.BLOCK_SIZE // 8)) * full
    if tail:
        out += b"\x01" + b"\xff" * (tail // 8) + \
            (bytes([(1 << tail % 8) - 1]) if tail % 8 else b"")
    return out


def stream_nbytes(buf: np.ndarray, starts: np.ndarray,
                  counts: np.ndarray) -> np.ndarray:
    """Byte length of each FOR/PFor stream of ``counts[i]`` values that
    starts at ``buf[starts[i]]`` — a walk over block headers, vectorized
    across streams. Raises IndexError when a stream runs past ``buf``."""
    pos = np.asarray(starts, np.int64).copy()
    left = np.asarray(counts, np.int64).copy()
    live = np.flatnonzero(left > 0)
    while len(live):
        p = pos[live]
        h = buf[p].astype(np.int64)
        patched = (h & fu.PATCHED_FLAG) != 0
        cnt = np.minimum(left[live], fu.BLOCK_SIZE)
        n_exc = np.zeros(len(live), np.int64)
        if patched.any():
            n_exc[patched] = buf[p[patched] + 1]
        pos[live] = p + 1 + patched + (cnt * (h & 0x7F) + 7) // 8 + 2 * n_exc
        left[live] -= cnt
        live = live[left[live] > 0]
    if len(pos) and int(pos.max()) > len(buf):
        raise IndexError("postings stream runs past the end of its file")
    return pos - np.asarray(starts, np.int64)


def _decode_records(buf: np.ndarray, starts: np.ndarray, df: np.ndarray,
                    ttf: np.ndarray, freqs: bool = True):
    """Docs (absolute) and freqs of the ``.doc`` records at ``starts``
    → ``(docs_flat, freqs_flat | None, value_offsets)``."""
    df = np.asarray(df, np.int64)
    deltas, voffs = cfor.decode_streams_at(buf, starts, df)
    docs = deltas
    if len(deltas):  # per-stream restart: cumsum minus carried prefix
        cs = np.cumsum(deltas)
        st = voffs[:-1]
        docs = cs - np.repeat(cs[st] - deltas[st], df)
    if not freqs:
        return docs, None, voffs
    f = np.ones(len(docs), np.int64)
    has = ttf > df
    if has.any():
        fs = starts[has] + stream_nbytes(buf, starts[has], df[has])
        f[np.repeat(has, df)] = cfor.decode_streams_at(buf, fs, df[has])[0]
    return docs, f, voffs


class _Flat:
    """One flat postings file: an open file read with ``os.preadv`` into
    Arrow-pool buffers (a large read never lands on the Python heap)."""

    def __init__(self, path: str):
        self.path = path
        self._f = open(path, "rb", buffering=0)
        self.size = os.fstat(self._f.fileno()).st_size

    def read(self, start: int, end: int) -> pa.Buffer:
        """Bytes ``[start, end)``; IndexError when the file ends first
        (a truncated file never hands out unread buffer bytes)."""
        out = pa.allocate_buffer(end - start)
        if os.preadv(self._f.fileno(), [out], start) != end - start:
            raise IndexError(f"{self.path} ends before byte {end}")
        return out


class TermRow(dict):
    """One term's postings row (``df, ttf, docs_enc, freqs_enc, pos_enc,
    block_last_doc, block_max_freq, block_min_norm``) over its ``.doc``
    record ``rec``, whose first ``payload`` bytes hold the docs and freqs
    streams. ``docs_freqs()`` decodes the record in one C pass; the
    other keys derive on first access: ``docs_enc`` / ``freqs_enc`` split
    the record at the docs stream's end, ``pos_enc`` reads
    ``postings.pos``, and a single-block term's block metadata
    re-derives from its block."""

    __slots__ = ("_src", "rec", "payload")

    def docs_freqs(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute docs and freqs, from the C record decoder."""
        df, ttf = self["df"], self["ttf"]
        docs, freqs, _ = cfor.decode_record(self.rec, self.payload, df,
                                            ttf > df)
        return docs, freqs

    def __missing__(self, key):
        postings, i, norms_of = self._src
        df, ttf, rec = self["df"], self["ttf"], self.rec
        if key == "pos_enc":
            self["pos_enc"] = postings.pos_bytes(i)
        elif key in ("docs_enc", "freqs_enc"):
            if ttf == df:
                dl, freqs = self.payload, ones_stream(df)
            else:
                dl = cfor.decode_record(rec, self.payload, df, True)[2]
                freqs = rec.slice(dl, self.payload - dl).to_pybytes()
            self.update(docs_enc=rec.slice(0, dl).to_pybytes(),
                        freqs_enc=freqs)
        elif key in BLOCK_COLS:
            nb = (df + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
            if nb > 1:
                meta = np.frombuffer(rec, "<i4", offset=self.payload)
                self.update(zip(BLOCK_COLS, meta.reshape(3, nb).tolist()))
            else:
                docs, freqs = self.docs_freqs()
                self.update(block_last_doc=[int(docs[-1])],
                            block_max_freq=[int(freqs.max())],
                            block_min_norm=[int(norms_of()[docs].min())])
        else:
            raise KeyError(key)
        return self[key]


def read_dictionary(seg_dir: str) -> pa.Table:
    """A segment's ``terms.parquet``, whose columns must be exactly
    ``DICT_COLS``; ValueError names the segment and the layout found."""
    t = pq.read_table(os.path.join(seg_dir, TERMS_FILE))
    if t.column_names != list(DICT_COLS):
        raise ValueError(
            f"{seg_dir}: {TERMS_FILE} holds {', '.join(t.column_names)}: an "
            f"old layout, not the flat-postings dictionary "
            f"({', '.join(DICT_COLS)})")
    return t


def field_ranges(dictionary: pa.Table) -> dict[str, tuple[int, int]]:
    """``{field: (lo, hi)}``: each field's rows of a (field, term)-sorted
    dictionary, in row order (one block-tree per field,
    Lucene90BlockTreeTermsWriter.kt:153)."""
    runs = pc.run_end_encode(
        dictionary["field"].combine_chunks().cast(pa.string()))
    ends = runs.run_ends.to_numpy().tolist()
    return {f: (lo, hi) for f, lo, hi in
            zip(runs.values.to_pylist(), [0] + ends[:-1], ends)}


class SegmentPostings:
    """A segment's term dictionary arrays and its open postings files."""

    def __init__(self, seg_dir: str):
        t = read_dictionary(seg_dir)
        self.doc = _Flat(os.path.join(seg_dir, DOC_FILE))
        self.pos = _Flat(os.path.join(seg_dir, POS_FILE))
        self.dictionary = t.select(["field", "term"])
        # zero-copy views of the Arrow columns
        self.df, self.ttf, self.doc_ptr, self.pos_ptr = (
            t[c].combine_chunks().to_numpy()
            for c in ("df", "ttf", "doc_ptr", "pos_ptr"))

    def _end(self, ptr: np.ndarray, i: int, size: int) -> int:
        """End of record ``i``: the next pointer, or the file size."""
        return int(ptr[i + 1]) if i + 1 < len(ptr) else size

    def __len__(self) -> int:
        return len(self.df)

    def row(self, i: int, norms_of) -> TermRow:
        """Term ``i``'s row over one positioned read of its ``.doc``
        record; ``norms_of()`` returns the field's norms."""
        df = int(self.df[i])
        rec = self.doc.read(int(self.doc_ptr[i]), self._end(
            self.doc_ptr, i, self.doc.size))
        nb = (df + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
        row = TermRow(df=df, ttf=int(self.ttf[i]))
        row._src = (self, i, norms_of)
        row.rec = rec
        row.payload = rec.size - (12 * nb if nb > 1 else 0)
        return row

    def pos_bytes(self, i: int) -> bytes:
        return self.pos.read(int(self.pos_ptr[i]), self._end(
            self.pos_ptr, i, self.pos.size)).to_pybytes()

    def docs_freqs(self, idxs: np.ndarray, freqs: bool = True):
        """Decoded docs (and freqs) of the ascending term rows ``idxs``,
        from one read of the ``.doc`` range they span → ``(docs_flat,
        freqs_flat | None, value_offsets)``."""
        idxs = np.asarray(idxs, np.int64)
        if not len(idxs):
            return np.empty(0, np.int64), np.empty(0, np.int64), \
                np.zeros(1, np.int64)
        base = int(self.doc_ptr[idxs[0]])
        buf = np.frombuffer(self.doc.read(base, self._end(
            self.doc_ptr, int(idxs[-1]), self.doc.size)), np.uint8)
        return _decode_records(buf, self.doc_ptr[idxs] - base,
                               self.df[idxs], self.ttf[idxs], freqs)
