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

Segments written before this layout keep every payload column in
``terms.parquet``; ``SegmentPostings`` reads such a table once, whole,
and splits it in memory with ``split_postings``, so both layouts answer
through one lookup path. That old-layout read is ``split_postings``'
only engine caller.

``write_postings`` stores the three parts as they are. One C record
writer makes them: the flush (``format.encode_term_table_arrays``) and
the grouped build (index/grouped.py) hand the inverted entry arrays to
``cfor.write_postings``, and the record-to-record merge (index/merge.py,
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
PAYLOAD_COLS = ("docs_enc", "freqs_enc", "pos_enc")
BLOCK_COLS = ("block_last_doc", "block_max_freq", "block_min_norm")
_EMPTY = pa.scalar(b"", pa.binary())


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


def _n_blocks(df: np.ndarray) -> np.ndarray:
    return (np.asarray(df, np.int64) + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE


def _meta_column(t: pa.Table, df: np.ndarray) -> pa.Array:
    """Per-term skip/impact metadata bytes: the three block lists of a
    multi-block term as int32, empty for a single-block term."""
    nb = _n_blocks(df)
    lens = np.where(nb > 1, 3 * nb, 0)
    offs = np.zeros(len(df) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    vals = np.empty(int(offs[-1]), np.int32)
    if len(vals):
        cnt = nb[nb > 1]
        starts = np.cumsum(nb) - nb
        # concatenated block ranges of the multi-block terms
        within = np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt,
                                                       cnt)
        src = np.repeat(starts[nb > 1], cnt) + within
        dst = np.repeat(offs[:-1][nb > 1], cnt) + within
        for k, name in enumerate(BLOCK_COLS):
            flat = pc.list_flatten(t[name]).to_numpy()
            vals[dst + k * np.repeat(cnt, cnt)] = flat[src]
    return pa.Array.from_buffers(
        pa.binary(), len(df),
        [None, pa.py_buffer((offs * 4).astype(np.int32).tobytes()),
         pa.py_buffer(vals.astype("<i4").tobytes())])


def split_postings(t: pa.Table) -> tuple[pa.Table, pa.Buffer, pa.Buffer]:
    """Logical terms table → (dictionary table with ``doc_ptr``/
    ``pos_ptr``, ``postings.doc`` bytes, ``postings.pos`` bytes): how an
    old-layout segment, whose ``terms.parquet`` holds the payload
    columns, is read (``SegmentPostings``)."""
    df = t["df"].to_numpy()
    ttf = t["ttf"].to_numpy()
    freqs = pc.if_else(pa.array(ttf > df), t["freqs_enc"], _EMPTY)
    doc, doc_offs = _binary_parts(pc.binary_join_element_wise(
        t["docs_enc"], freqs, _meta_column(t, df), _EMPTY))
    pos, pos_offs = _binary_parts(t["pos_enc"])
    cols = {c: t[c] for c in ("field", "term") if c in t.column_names}
    cols.update(df=_narrow(df), ttf=_narrow(ttf), doc_ptr=_narrow(
        doc_offs[:-1]), pos_ptr=_narrow(pos_offs[:-1]))
    return pa.table(cols), doc, pos


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
    Arrow-pool buffers (a large read never lands on the Python heap), or
    an in-memory buffer (old-layout segments)."""

    def __init__(self, path: str | None = None, buf=None):
        self.path = path
        if path is not None:
            self._f = open(path, "rb", buffering=0)
            self.size = os.fstat(self._f.fileno()).st_size
        else:
            self._buf = buf
            self.size = buf.size

    def read(self, start: int, end: int) -> pa.Buffer:
        """Bytes ``[start, end)``; IndexError when the file ends first
        (a truncated file never hands out unread buffer bytes)."""
        if self.path is None:
            return self._buf.slice(start, end - start)
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


class SegmentPostings:
    """A segment's term dictionary arrays and its open postings files."""

    def __init__(self, seg_dir: str, table: pa.Table | None = None):
        t = pq.read_table(os.path.join(seg_dir, TERMS_FILE)) \
            if table is None else table
        if "docs_enc" in t.column_names:  # old layout: split in memory
            t, doc, pos = split_postings(t)
            self.doc, self.pos = _Flat(buf=doc), _Flat(buf=pos)
        else:
            self.doc = _Flat(os.path.join(seg_dir, DOC_FILE))
            self.pos = _Flat(os.path.join(seg_dir, POS_FILE))
        self.dictionary = t.select([c for c in ("field", "term")
                                    if c in t.column_names])
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

    def logical_table(self, norms: dict | None = None,
                      columns=None) -> pa.Table:
        """The full logical terms table (``field, term, df, ttf`` plus
        the payload columns) — what segments stored before the flat
        files. ``norms`` ({field: norm bytes}) is needed only for
        ``block_min_norm``; ``columns`` limits the payload columns."""
        want = [c for c in PAYLOAD_COLS + BLOCK_COLS
                if columns is None or c in columns]
        n = len(self)
        doc = np.frombuffer(self.doc.read(0, self.doc.size), np.uint8)
        df = self.df.astype(np.int64)
        ttf = self.ttf.astype(np.int64)
        starts = self.doc_ptr.astype(np.int64)
        ends = np.append(starts[1:], self.doc.size)
        dl = stream_nbytes(doc, starts, df)
        out = {c: self.dictionary[c] for c in self.dictionary.column_names}
        out["df"], out["ttf"] = pa.array(df), pa.array(ttf)
        if "docs_enc" in want:
            out["docs_enc"] = _gather(doc, starts, dl)
        if "freqs_enc" in want:
            # ttf == df terms get the all-ones stream of their df,
            # appended once per distinct df after the file bytes
            ones = ttf == df
            u, inv = np.unique(df[ones], return_inverse=True)
            tmpl = [ones_stream(x) for x in u]
            tl = np.array([len(x) for x in tmpl], np.int64)
            src = np.concatenate([doc, np.frombuffer(b"".join(tmpl),
                                                     np.uint8)])
            fs, fl = starts + dl, ends - starts - dl - \
                np.where(_n_blocks(df) > 1, 12 * _n_blocks(df), 0)
            fs[ones] = len(doc) + (np.cumsum(tl) - tl)[inv]
            fl[ones] = tl[inv]
            out["freqs_enc"] = _gather(src, fs, fl)
        if "pos_enc" in want:
            offs = np.append(self.pos_ptr, self.pos.size).astype(np.int32)
            out["pos_enc"] = pa.Array.from_buffers(
                pa.binary(), n, [None, pa.py_buffer(offs.tobytes()),
                                 self.pos.read(0, self.pos.size)])
        if any(c in want for c in BLOCK_COLS):
            out.update(self._block_columns(doc, ends, norms or {}))
        return pa.table({c: out[c] for c in
                         list(self.dictionary.column_names) + ["df", "ttf"]
                         + want})

    def _block_columns(self, doc: np.ndarray, ends: np.ndarray,
                       norms: dict) -> dict:
        """Skip/impact list columns: stored for multi-block terms,
        re-derived from the one block for the rest."""
        df = self.df.astype(np.int64)
        nb = _n_blocks(df)
        loffs = np.zeros(len(df) + 1, np.int64)
        np.cumsum(nb, out=loffs[1:])
        cols = [np.empty(int(loffs[-1]), np.int64) for _ in BLOCK_COLS]
        multi = np.flatnonzero(nb > 1)
        for i in multi:
            end = int(ends[i])
            meta = doc[end - 12 * nb[i]:end].view("<i4").reshape(3, nb[i])
            for k in range(3):
                cols[k][loffs[i]:loffs[i + 1]] = meta[k]
        single = np.flatnonzero(nb == 1)
        docs, freqs, voffs = _decode_records(
            doc, self.doc_ptr[single], df[single], self.ttf[single])
        if len(single):
            at = loffs[single]
            cols[0][at] = docs[voffs[1:] - 1]
            cols[1][at] = np.maximum.reduceat(freqs, voffs[:-1])
            fields = self.dictionary["field"].to_numpy() \
                if "field" in self.dictionary.column_names else None
            entry_norm = np.empty(len(docs), np.int64)
            term_of = np.repeat(single, df[single])
            for f in (np.unique(fields[single]) if fields is not None
                      else ["text"]):
                sel = fields[term_of] == f if fields is not None else \
                    slice(None)
                entry_norm[sel] = norms[f][docs[sel]]
            cols[2][at] = np.minimum.reduceat(entry_norm, voffs[:-1])
        return {name: pa.ListArray.from_arrays(
                    pa.array(loffs.astype(np.int32)),
                    pa.array(c.astype(np.int32)))
                for name, c in zip(BLOCK_COLS, cols)}


def _gather(src: np.ndarray, starts: np.ndarray,
            lens: np.ndarray) -> pa.Array:
    """Binary column of the byte slices ``src[starts[i]:+lens[i]]``."""
    lens = np.asarray(lens, np.int64)
    offs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    idx = np.repeat(np.asarray(starts, np.int64) - offs[:-1], lens)
    idx += np.arange(int(offs[-1]), dtype=np.int64)
    return pa.Array.from_buffers(
        pa.binary(), len(lens),
        [None, pa.py_buffer(offs.astype(np.int32).tobytes()),
         pa.py_buffer(src[idx].tobytes())])


def read_norms(seg_dir: str) -> dict:
    """{field: norm bytes} of one segment (field "text" keeps the legacy
    ``norm`` column name)."""
    from .format import DOCS_FILE
    path = os.path.join(seg_dir, DOCS_FILE)
    names = [c for c in pq.read_schema(path).names
             if c == "norm" or c.startswith("norm_")]
    t = pq.read_table(path, columns=names)
    return {("text" if c == "norm" else c[5:]):
            t[c].to_numpy().astype(np.uint8) for c in names}


def read_terms_table(seg_dir: str, columns=None) -> pa.Table:
    """One segment's full logical terms table — ``field, term, df, ttf,
    docs_enc, freqs_enc, pos_enc, block_last_doc, block_max_freq,
    block_min_norm`` — from either layout; ``columns`` limits the
    payload columns (block metadata then needs no norms read)."""
    t = pq.read_table(os.path.join(seg_dir, TERMS_FILE))
    if "docs_enc" in t.column_names:
        return t if columns is None else t.select(
            [c for c in t.column_names
             if c not in PAYLOAD_COLS + BLOCK_COLS or c in columns])
    need_norms = any(c in BLOCK_COLS for c in (columns or BLOCK_COLS))
    return SegmentPostings(seg_dir, t).logical_table(
        read_norms(seg_dir) if need_norms else None, columns)
