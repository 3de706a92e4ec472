"""The numpy logical-table writer: the byte reference of the flush's and
the merge's C record writer (``cfor.write_postings`` /
``cfor.merge_postings``).

A logical terms table has one row per term: ``term, df, ttf, docs_enc,
freqs_enc, pos_enc, block_last_doc, block_max_freq, block_min_norm``.
``encode_term_table_arrays`` builds it in bulk from flat entry arrays
(gapped term views included, as the numpy merge of tests/_ref_merge.py
passes them), ``encode_term_table`` term by term; both encode blocks with
the numpy encoders of tests/_ref_codec.py. ``split_postings`` turns
such a table into the ``(dictionary, .doc, .pos)`` triple, which must
equal the engine's bytes. ``logical_segment`` and ``flush_postings`` run
that over a segment's inverted fields, the flush's reference.
``logical_table`` reads a stored segment back into a logical terms
table, row by row through the engine's ``SegmentPostings.row``;
``write_old_layout`` rewrites a stored segment in one of the layouts
the engine no longer reads.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from _ref_codec import encode_csr

from lucene_kmp_ray.index.format import (DOCS_FILE, _sorted_docs,
                                         field_column, invert_field)
from lucene_kmp_ray.index.postings import (BLOCK_COLS, DOC_FILE, POS_FILE,
                                           TERMS_FILE, SegmentPostings,
                                           _binary_parts, _narrow)
from lucene_kmp_ray.util.forutil import BLOCK_SIZE, delta_encode

PAYLOAD_COLS = ("docs_enc", "freqs_enc", "pos_enc")
_EMPTY = pa.scalar(b"", pa.binary())


def encode_stream(vals: np.ndarray, pfor: bool) -> bytes:
    """The FOR / PFor block stream of ``vals`` (``forutil.encode_blocks``
    / ``encode_blocks_pfor``)."""
    n = len(vals)
    row_ptr = np.append(np.arange(0, n, BLOCK_SIZE), n)
    return encode_csr(vals, row_ptr, pfor)[0].tobytes()


def _list_column(n_terms: int, counts: np.ndarray,
                 values: np.ndarray) -> pa.Array:
    """Per-term list<int32> column from (counts per term, concatenated
    values in term order)."""
    offsets = np.zeros(n_terms + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32)),
        pa.array(values.astype(np.int32)))


def encode_term_table_arrays(uniques, s_doc, s_freq, pos_delta,
                             term_starts, term_ends, pos_bounds,
                             norms: np.ndarray) -> pa.Table:
    """The logical terms table of flat entry arrays: term ``t`` holds
    entries ``term_starts[t]:term_ends[t]`` and their position deltas
    from ``pos_bounds[term_starts[t]]`` on. Every term contributes
    ``ceil(len/128)`` consecutive block rows, so each stream encodes in
    one ``encode_csr`` call; the per-term binary columns are offset slices
    of the shared stream and the skip/impact metadata is one ``reduceat``
    per stat."""
    n_terms = len(uniques)
    BS = BLOCK_SIZE
    df = (term_ends - term_starts).astype(np.int64)
    ttf = (pos_bounds[term_ends] - pos_bounds[term_starts]).astype(np.int64)

    # the block layout below needs the kept terms to TILE the entry and
    # position arrays; the numpy merge passes gapped views (a term whose
    # postings were all reclaimed is dropped), so compact the gaps first
    contiguous = n_terms == 0 or (
        int(term_starts[0]) == 0 and int(term_ends[-1]) == len(s_doc)
        and np.array_equal(term_starts[1:], term_ends[:-1]))
    if not contiguous:
        total = int(df.sum())
        out_start = np.cumsum(df) - df
        within = np.arange(total, dtype=np.int64) - np.repeat(out_start, df)
        gather = np.repeat(term_starts, df) + within
        ptotal = int(ttf.sum())
        pout = np.cumsum(ttf) - ttf
        pwithin = np.arange(ptotal, dtype=np.int64) - np.repeat(pout, ttf)
        pgather = np.repeat(pos_bounds[term_starts], ttf) + pwithin
        s_doc = s_doc[gather]
        s_freq = s_freq[gather]
        pos_delta = pos_delta[pgather]
        term_starts = out_start
        term_ends = out_start + df
        pos_bounds = np.append(0, np.cumsum(s_freq))

    # docs delta chain restarts at every term
    d_delta = np.empty_like(s_doc)
    if len(s_doc):
        d_delta[0] = s_doc[0]
        np.subtract(s_doc[1:], s_doc[:-1], out=d_delta[1:])
        d_delta[term_starts] = s_doc[term_starts]

    nb_d = (df + BS - 1) // BS   # doc/freq blocks per term (df >= 1)
    nb_p = (ttf + BS - 1) // BS  # position blocks per term (ttf >= df)
    Rd = int(nb_d.sum())
    Rp = int(nb_p.sum())
    drow = np.cumsum(nb_d) - nb_d
    prow = np.cumsum(nb_p) - nb_p
    blk_start = (np.repeat(term_starts, nb_d)
                 + (np.arange(Rd) - np.repeat(drow, nb_d)) * BS) \
        if Rd else np.empty(0, np.int64)
    pblk_start = (np.repeat(pos_bounds[term_starts], nb_p)
                  + (np.arange(Rp) - np.repeat(prow, nb_p)) * BS) \
        if Rp else np.empty(0, np.int64)

    row_ptr_d = np.append(blk_start, len(s_doc))
    d_stream, d_starts = encode_csr(d_delta, row_ptr_d, pfor=False)
    f_stream, f_starts = encode_csr(s_freq, row_ptr_d, pfor=True)
    p_stream, p_starts = encode_csr(
        pos_delta, np.append(pblk_start, len(pos_delta)), pfor=True)

    def _contig_binary(stream: np.ndarray, starts: np.ndarray,
                       row_off: np.ndarray) -> pa.Array:
        """Per-term binary column as offset slices of the shared stream
        (terms tile the block rows contiguously in term order)."""
        offs = np.empty(n_terms + 1, np.int64)
        if n_terms:
            offs[:n_terms] = starts[row_off]
        offs[n_terms] = len(stream)
        return pa.Array.from_buffers(
            pa.binary(), n_terms,
            [None, pa.py_buffer(offs.astype(np.int32).tobytes()),
             pa.py_buffer(stream.tobytes())])

    if Rd:
        term_of_block = np.repeat(np.arange(n_terms), nb_d)
        blk_end = np.minimum(blk_start + BS, term_ends[term_of_block])
        v_last = s_doc[blk_end - 1]
        v_maxf = np.maximum.reduceat(s_freq, blk_start)
        v_minn = np.minimum.reduceat(norms[s_doc].astype(np.int64),
                                     blk_start)
    else:
        v_last = v_maxf = v_minn = np.empty(0, np.int64)

    term_col = uniques if isinstance(uniques, (pa.Array, pa.ChunkedArray)) \
        else pa.array(uniques, type=pa.string())
    return pa.table({
        "term": term_col,
        "df": pa.array(df, type=pa.int64()),
        "ttf": pa.array(ttf, type=pa.int64()),
        "docs_enc": _contig_binary(d_stream, d_starts, drow),
        "freqs_enc": _contig_binary(f_stream, f_starts, drow),
        "pos_enc": _contig_binary(p_stream, p_starts, prow),
        "block_last_doc": _list_column(n_terms, nb_d, v_last),
        "block_max_freq": _list_column(n_terms, nb_d, v_maxf),
        "block_min_norm": _list_column(n_terms, nb_d, v_minn),
    })


def encode_term_table(entries, norms: np.ndarray) -> pa.Table:
    """The logical terms table term by term: ``entries`` yields ``(term,
    docs, freqs, pos_deltas)`` in ascending term order (docs ascending,
    pos_deltas the flat within-entry deltas, first of each entry
    absolute)."""
    terms, dfs, ttfs = [], [], []
    docs_enc, freqs_enc, pos_enc = [], [], []
    blk_last, blk_maxf, blk_minn = [], [], []
    for term, d, f, posd in entries:
        terms.append(term)
        dfs.append(len(d))
        ttfs.append(int(f.sum()))
        docs_enc.append(encode_stream(delta_encode(d), pfor=False))
        freqs_enc.append(encode_stream(f, pfor=True))
        pos_enc.append(encode_stream(posd, pfor=True))
        idx = np.arange(0, len(d), BLOCK_SIZE)
        blk_last.append(d[np.minimum(idx + BLOCK_SIZE - 1, len(d) - 1)]
                        .astype(np.int32))
        blk_maxf.append(np.maximum.reduceat(f, idx).astype(np.int32))
        blk_minn.append(np.minimum.reduceat(
            norms[d].astype(np.int64), idx).astype(np.int32))
    return pa.table({
        "term": pa.array(terms, type=pa.string()),
        "df": pa.array(dfs, type=pa.int64()),
        "ttf": pa.array(ttfs, type=pa.int64()),
        "docs_enc": pa.array(docs_enc, type=pa.binary()),
        "freqs_enc": pa.array(freqs_enc, type=pa.binary()),
        "pos_enc": pa.array(pos_enc, type=pa.binary()),
        "block_last_doc": pa.array(blk_last, type=pa.list_(pa.int32())),
        "block_max_freq": pa.array(blk_maxf, type=pa.list_(pa.int32())),
        "block_min_norm": pa.array(blk_minn, type=pa.list_(pa.int32())),
    })


def prepend_field(terms_table: pa.Table, field: str) -> pa.Table:
    """Add the constant ``field`` column in front."""
    return terms_table.add_column(0, "field",
                                  field_column(field, terms_table.num_rows))


def field_table(texts, n_docs: int, analyzer=None) -> pa.Table:
    """One field's logical terms table: the inverter's entry arrays
    (``invert_field``'s ``entries_out``) through the numpy encoder."""
    ent = {}
    _, norms, *_ = invert_field(texts, n_docs, analyzer, entries_out=ent)
    s_freq, bounds, pos = ent["s_freq"], ent["pos_bounds"], ent["pos_sorted"]
    pos_delta = pos.copy()
    pos_delta[1:] -= pos[:-1]
    pos_delta[bounds[:-1]] = pos[bounds[:-1]]  # each entry's first absolute
    starts = np.searchsorted(ent["e_term"], np.arange(len(ent["uniques"])))
    ends = np.append(starts[1:], len(s_freq))
    return encode_term_table_arrays(ent["uniques"], ent["s_doc"], s_freq,
                                    pos_delta, starts, ends, bounds, norms)


def logical_segment(docs: pa.Table, fields=("text",), analyzer=None,
                    index_sort=None) -> pa.Table:
    """The logical terms table of the segment ``invert_segment`` makes
    of ``docs``: its fields in order, each ``field_table``."""
    docs = _sorted_docs(docs, index_sort)
    parts = []
    for f in sorted(fields):
        ana = analyzer.get(f) if isinstance(analyzer, dict) else analyzer
        parts.append(prepend_field(field_table(docs[f], docs.num_rows, ana),
                                   f))
    return pa.concat_tables(parts)


def flush_postings(docs: pa.Table, **kw) -> tuple:
    """The reference flush: ``(dictionary, .doc, .pos)`` of
    ``logical_segment(docs, **kw)`` split by ``split_postings``."""
    return split_postings(logical_segment(docs, **kw))


def _meta_column(t: pa.Table, df: np.ndarray) -> pa.Array:
    """Per-term skip/impact metadata bytes: the three block lists of a
    multi-block term as int32, empty for a single-block term."""
    nb = (np.asarray(df, np.int64) + BLOCK_SIZE - 1) // BLOCK_SIZE
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
    ``pos_ptr``, ``postings.doc`` bytes, ``postings.pos`` bytes): the
    record layout the C writer must produce."""
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


def logical_table(seg_dir: str, columns=PAYLOAD_COLS + BLOCK_COLS
                  ) -> pa.Table:
    """A stored segment's logical terms table (``field, term, df, ttf``
    plus ``columns``), one ``SegmentPostings.row`` per term: each column
    as the engine's ``TermRow`` derives it."""
    sp = SegmentPostings(seg_dir)
    fields = sp.dictionary["field"].to_pylist()
    norms = {}

    def norms_of(f):
        if f not in norms:
            col = "norm" if f == "text" else f"norm_{f}"
            norms[f] = pq.read_table(os.path.join(seg_dir, DOCS_FILE),
                                     columns=[col])[col].to_numpy()
        return norms[f]

    rows = [sp.row(i, lambda f=f: norms_of(f)) for i, f in enumerate(fields)]
    types = {"docs_enc": pa.binary(), "freqs_enc": pa.binary(),
             "pos_enc": pa.binary()}
    return pa.table({
        "field": pa.array(fields, pa.string()),
        "term": sp.dictionary["term"].combine_chunks(),
        "df": pa.array(sp.df, pa.int64()),
        "ttf": pa.array(sp.ttf, pa.int64()),
        **{c: pa.array([r[c] for r in rows],
                       types.get(c, pa.list_(pa.int32())))
           for c in columns}})


OLD_LAYOUT = r"seg=00000: terms\.parquet holds .*: an old layout"


def write_old_layout(seg_dir: str, shape: str) -> None:
    """Rewrite a stored segment as ``shape``: ``payload_in_dictionary``
    (the postings payload in ``terms.parquet``, no flat files, as stored
    before them) or ``no_field_column`` (a dictionary without ``field``).
    ``OLD_LAYOUT`` matches the ValueError that refuses segment 0."""
    path = os.path.join(seg_dir, TERMS_FILE)
    if shape == "payload_in_dictionary":
        pq.write_table(logical_table(seg_dir), path)
        for name in (DOC_FILE, POS_FILE):
            os.remove(os.path.join(seg_dir, name))
    else:
        assert shape == "no_field_column", shape
        pq.write_table(pq.read_table(path).drop_columns(["field"]), path)
