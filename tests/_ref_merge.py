"""The per-term numpy merge: the reference the record-to-record merge
(``merge._merge_records``, the C ``merge_terms`` / ``merge_postings``
pair) is held to, file for file.

``merge_logical`` decodes every source posting list with the numpy
decoder, remaps docIDs, buckets the entries by merged term code (the
vocabulary built by Arrow, ``merged_vocab``), then encodes each field's
logical terms table and splits it into the postings files.
``numpy_merge`` makes ``merge_segments`` run it. It encodes with the
numpy logical-table writer of tests/_ref_postings.py.
"""

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from _ref_codec import decode_blocks
from _ref_postings import (PAYLOAD_COLS, encode_term_table,
                           encode_term_table_arrays, logical_table,
                           prepend_field, split_postings)

from lucene_kmp_ray.index import merge
from lucene_kmp_ray.index.format import field_stats_of, sorted_codes
from lucene_kmp_ray.util.forutil import delta_decode


def numpy_merge(monkeypatch) -> None:
    """Make ``merge_segments`` merge postings with ``merge_logical``
    (undone with ``monkeypatch``)."""
    monkeypatch.setattr(merge, "_merge_records", merge_logical)


def merge_logical(dirs: list[str], bounds: np.ndarray, inv_perm: np.ndarray,
                   docs_table: pa.Table):
    """The per-term numpy merge, the record merge's reference (same
    arguments and result as ``merge._merge_records``): decode every
    source posting list, remap
    docIDs, bucket entries into FLAT arrays keyed by merged term code —
    the per-field MultiTermsEnum union of SegmentMerger.mergeTerms,
    with the vocabulary built by Arrow (``merged_vocab``) — then encode
    each field's logical terms table and split it. Returns
    ``((dictionary, postings.doc, postings.pos), field_stats, phase
    seconds)``."""
    t_read = time.monotonic()
    reclaimed = bool((inv_perm < 0).any())
    source_tables = [logical_table(d, PAYLOAD_COLS) for d in dirs]
    t_vocab = time.monotonic()
    all_codes, vocab_fields = merged_vocab(source_tables)
    n_codes = vocab_fields[-1][2] if vocab_fields else 0
    src_offs = np.append(0, np.cumsum([tt.num_rows for tt in source_tables]))
    t_postings = time.monotonic()

    parts = []  # (code, first_doc, last_doc, nl, freqs, posd)
    for si, tt in enumerate(source_tables):
        dfs = tt["df"].to_numpy()
        ttfs = tt["ttf"].to_numpy()
        de = tt["docs_enc"].to_pylist()
        fe = tt["freqs_enc"].to_pylist()
        pe = tt["pos_enc"].to_pylist()
        for i in range(tt.num_rows):
            docs = delta_decode(decode_blocks(de[i], int(dfs[i])))
            freqs = decode_blocks(fe[i], int(dfs[i]))
            posd = decode_blocks(pe[i], int(ttfs[i]))
            nl = inv_perm[docs + bounds[si]]
            if reclaimed:
                keep = nl >= 0
                if not keep.all():
                    nl, freqs, posd = filter_entries(nl, freqs, posd, keep)
                    if len(nl) == 0:
                        continue  # survives only in other segments
            parts.append((int(all_codes[src_offs[si] + i]), int(nl[0]),
                          int(nl[-1]), nl, freqs, posd))

    # concatenate parts in (code, first_doc) order: when per-code doc
    # ranges do not interleave (the common case — source segments cover
    # disjoint docID ranges) the result is already (code, doc)-sorted and
    # the O(total positions) global sort+gather is skipped entirely (the
    # DocIDMerger sequential-ranges fast path)
    parts.sort(key=lambda p: (p[0], p[1]))
    interleaved = any(parts[i][0] == parts[i + 1][0] and
                      parts[i][2] >= parts[i + 1][1]
                      for i in range(len(parts) - 1))
    if parts:
        e_code = np.concatenate(
            [np.full(len(p[3]), p[0], np.int64) for p in parts])
        e_doc = np.concatenate([p[3] for p in parts])
        e_freq = np.concatenate([p[4] for p in parts])
        posd_all = np.concatenate([p[5] for p in parts])
    else:
        e_code = e_doc = e_freq = posd_all = np.empty(0, np.int64)
    if interleaved:
        # true interleave (post-merge doc ranges overlap): one global
        # entry sort by (code, docID); (code, doc) pairs are unique, and
        # position-delta runs restart per entry so they gather along
        order = np.lexsort((e_doc, e_code))
        bounds_e = np.cumsum(e_freq) - e_freq
        lens = e_freq[order]
        total = int(lens.sum())
        out_start = np.cumsum(lens) - lens
        gather = np.arange(total, dtype=np.int64) - \
            np.repeat(out_start, lens) + np.repeat(bounds_e[order], lens)
        e_code, e_doc, e_freq = e_code[order], e_doc[order], lens
        posd_all = posd_all[gather]
    t_encode = time.monotonic()

    # per-field slices of the (field, term)-sorted code space
    field_tables = []
    field_stats = {}
    pos_bounds_all = np.append(0, np.cumsum(e_freq))
    code_starts = np.searchsorted(e_code, np.arange(n_codes))
    code_ends = np.append(code_starts[1:], len(e_code))
    counts = code_ends - code_starts
    for fld, lo_c, hi_c, fterms in vocab_fields:
        # drop terms whose every posting was reclaimed (df would be 0)
        sel = lo_c + np.flatnonzero(counts[lo_c:hi_c] > 0)
        if not len(sel):
            continue
        lo_e, hi_e = int(code_starts[lo_c]), int(code_ends[hi_c - 1])
        lo_p, hi_p = int(pos_bounds_all[lo_e]), int(pos_bounds_all[hi_e])
        ncol = "norm" if fld == "text" else f"norm_{fld}"
        norms = docs_table[ncol].to_numpy().astype(np.uint8)
        ft = encode_term_table_arrays(
            fterms.take(pa.array(sel - lo_c)), e_doc[lo_e:hi_e],
            e_freq[lo_e:hi_e], posd_all[lo_p:hi_p],
            code_starts[sel] - lo_e, code_ends[sel] - lo_e,
            pos_bounds_all[lo_e:hi_e + 1] - lo_p, norms)
        field_tables.append(prepend_field(ft, fld))
        lcol = "length" if fld == "text" else f"length_{fld}"
        field_stats[fld] = field_stats_of(
            docs_table[lcol].to_numpy().astype(np.int64),
            ft["df"].to_numpy())
    if field_tables:
        terms_table = pa.concat_tables(field_tables)
    else:  # no surviving terms: empty table with the uniform schema
        terms_table = prepend_field(
            encode_term_table(iter(()), np.empty(0, np.uint8)), "text")
    phases = {"read_sec": t_vocab - t_read, "vocab_sec": t_postings - t_vocab,
              "postings_sec": t_encode - t_postings,
              "encode_sec": time.monotonic() - t_encode}
    return split_postings(terms_table), field_stats, phases


def merged_vocab(source_tables: list[pa.Table]):
    """The sources' (field, term) union, built by Arrow with the
    inverter's ``sorted_codes`` (dictionary-encode, then sort the
    dictionary in UTF-8 byte order == code-point order): first the field
    of every row, then the terms of each field. No Python object is made
    per term.

    Returns ``(codes, fields)``. ``codes`` is one int64 array over the
    sources' rows concatenated in source order: each row's code in the
    merged (field, term)-ascending vocabulary. ``fields`` lists
    ``(field, lo, hi, terms)`` in field order: codes ``lo..hi-1`` are the
    field's terms, ``terms`` their sorted Arrow string array. A source
    without a ``field`` column (the old single-field layout) is all
    ``text``.
    """
    def column(name):
        chunks = []
        for tt in source_tables:
            if name in tt.column_names:
                chunks += tt[name].chunks
            else:
                chunks.append(pc.fill_null(pa.nulls(tt.num_rows, pa.string()),
                                           "text"))
        return pa.chunked_array(chunks, pa.string()).combine_chunks()

    terms = column("term")
    field_of, field_names = sorted_codes(column("field"))
    codes = np.empty(len(terms), np.int64)
    fields, base = [], 0
    for fi, fld in enumerate(field_names.to_pylist()):  # a handful of names
        rows = np.flatnonzero(field_of == fi)
        rank, fterms = sorted_codes(terms.take(pa.array(rows)))
        codes[rows] = base + rank
        fields.append((fld, base, base + len(fterms), fterms))
        base += len(fterms)
    return codes, fields


def filter_entries(nl: np.ndarray, freqs: np.ndarray, posd: np.ndarray,
                    keep: np.ndarray):
    """Drop posting entries of reclaimed docs, carrying each surviving
    entry's position-delta run along (vectorized gather; delta chains
    restart per entry so runs move independently)."""
    bounds = np.append(0, np.cumsum(freqs))
    starts = bounds[:-1][keep]
    lens = freqs[keep]
    total = int(lens.sum())
    outs = np.cumsum(lens) - lens
    gather = np.arange(total, dtype=np.int64) - \
        np.repeat(outs, lens) + np.repeat(starts, lens)
    return nl[keep], lens, posd[gather]
