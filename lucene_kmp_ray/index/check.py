"""CheckIndex analog: full-index integrity scan.

Re-reads every structure of every segment and re-derives the statistics the
manifests claim, in the spirit of ``index/CheckIndex.kt:487`` (postings
re-walked at ``:1033-1055``), one Ray task per segment; the driver then
checks the global manifest. Postings files are read once and decode in runs
of whole terms of at most ``CHUNK`` positions (bounded memory); each
invariant is one array operation over a run, segmented per term, and one
error giving its count of terms and, as the only string made, the first.

Checks per segment:
- ``doc_ptr``/``pos_ptr`` ascend from 0; each ``postings.doc`` record is
  its docs stream, its freqs stream (iff ``ttf > df``) and, for a
  multi-block term, its skip/impact metadata; each ``postings.pos``
  record is its ``ttf`` positions;
- (field, term) keys strictly ascending (BytesRef order); docIDs strictly
  ascending per term, in ``[0, doc_count)``; freqs ≥ 1, ``ttf`` == Σ
  freqs; positions per entry strictly ascending, non-negative;
- only STORED metadata is compared: a multi-block term's ``block_last_doc``
  / ``block_max_freq`` / ``block_min_norm`` == their re-derivation over
  128-doc blocks (a single-block term stores none);
- ``norm`` byte == SmallFloat.intToByte4(length); per field, Σ length /
  Σ df / Σ ttf == the manifest, and each doc's ``max_tf`` /
  ``unique_terms`` == its maximum freq / entry count;
- the manifest's top-level ``sum_total_term_freq`` / ``sum_doc_freq`` /
  ``unique_terms`` == those of its ``format.main_field`` (zeros without
  one), what the flush and the merge write (``format.top_stats``).

Global checks: manifest doc_count == Σ segment doc counts; per field, the
manifest's ``sum_doc_freq`` / ``sum_total_term_freq`` == Σ df / Σ ttf over
the segment dictionaries, the df/ttf ``IndexReader.term_stats`` sums.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import cfor, forutil as fu
from ..util.smallfloat import int_to_byte4_np
from .format import DOCS_FILE, TOP_STATS, main_field, top_stats
from .postings import (BLOCK_COLS, DICT_COLS, DOC_FILE, POS_FILE,
                       _decode_records, field_ranges, read_dictionary,
                       stream_nbytes)
from .reader import INDEX_MANIFEST


CHUNK = 1 << 18  # positions decoded at once: bounds a segment's check memory
STAT_KEYS = ("sum_doc_freq", "sum_total_term_freq")  # Σ df, Σ ttf


def check_segment(index_dir: str, seg_dir: str) -> dict:
    """Verify one segment directory; returns {seg, ok, errors, doc_count,
    unique_terms, field_sums: {field: [Σ df, Σ ttf]}}."""
    d = os.path.join(index_dir, seg_dir)
    with open(os.path.join(d, "manifest.json")) as f:
        man = json.load(f)
    docs_t = pq.read_table(os.path.join(d, DOCS_FILE))
    n_docs = docs_t.num_rows
    t = read_dictionary(d)
    ranges = field_ranges(t)
    df, ttf = (t[c].to_numpy().astype(np.int64) for c in ("df", "ttf"))
    sums = {f: [int(df[lo:hi].sum()), int(ttf[lo:hi].sum())]
            for f, (lo, hi) in ranges.items()}
    doc, pos = (np.fromfile(os.path.join(d, name), np.uint8)
                for name in (DOC_FILE, POS_FILE))
    report = {"seg": man["seg"], "doc_count": n_docs, "field_sums": sums}
    errors = _check_records(t, doc, pos)
    if errors:  # the pointers cannot be followed safely
        return {**report, "ok": False, "errors": errors,
                "unique_terms": man.get("unique_terms")}
    if n_docs != man["doc_count"]:
        errors.append(f"doc_count {n_docs} != manifest {man['doc_count']}")

    # per-field norms: field f's columns are length[_f] / norm[_f]
    norms_by_field: dict[str, np.ndarray] = {}
    man_fields = man.get("fields") or {"text": man}
    top = top_stats(man_fields)
    off = [k for k in TOP_STATS if man.get(k) != top[k]]
    if off:
        errors.append(f"top-level {', '.join(off)} != field "
                      f"{main_field(man_fields)}'s")
    for f, got in sums.items():
        want = [man_fields.get(f, {}).get(k) for k in STAT_KEYS]
        if got != want:
            errors.append(f"field {f}: {', '.join(STAT_KEYS)} {want} != {got}")
    for c in docs_t.column_names:
        if c != "norm" and not c.startswith("norm_"):
            continue
        f = c[5:] or "text"
        fl = docs_t["length" + c[4:]].to_numpy().astype(np.int64)
        norms_by_field[f] = fn = docs_t[c].to_numpy().astype(np.uint8)
        bad = np.flatnonzero(fn != int_to_byte4_np(fl))
        if len(bad):
            errors.append(f"field {f}: {len(bad)} norm bytes disagree with "
                          f"SmallFloat(length), first at doc {bad[0]}")
        # a field without live terms has no manifest stats (Σ 0)
        if man_fields.get(f, {}).get("sum_total_term_freq", 0) != fl.sum():
            errors.append(f"Σ length != sum_total_term_freq ({f})")

    if not _keys_ascending(t):
        errors.append("(field, term) keys not strictly ascending")
    errors += _check_postings(t, ranges, doc, pos, docs_t, norms_by_field)
    _check_quantized_sidecar(d, man, n_docs, errors)
    _check_term_vectors_sidecar(d, docs_t, errors)
    _check_bloom_sidecar(d, t, errors)
    return {**report, "ok": not errors, "errors": errors,
            "unique_terms": t.num_rows}


def _check_postings(t: pa.Table, ranges: dict, doc: np.ndarray,
                    pos: np.ndarray, docs_t, norms: dict) -> list[str]:
    """The postings invariants over runs of whole terms (``ranges``: the
    field runs of ``t``; ``norms``: each field's norm bytes)."""
    n, n_docs = t.num_rows, docs_t.num_rows
    df, ttf, doc_ptr, pos_ptr = (t[c].to_numpy().astype(np.int64) for c in
                                 DICT_COLS[2:])
    bad = defaultdict(list)  # invariant -> the term rows that break it
    fields = list(norms)
    fid = np.empty(n, np.int64)  # each term row's index in fields
    for f, (lo, hi) in ranges.items():
        if f not in norms:
            return [f"field {f}: terms without a norm column"]
        fid[lo:hi] = fields.index(f)
    norm = np.stack([norms[f] for f in fields]) if fields else None
    max_tf, uniq = np.zeros((2, len(fields), n_docs), np.int64)
    nb = (df + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
    rec_end = np.append(doc_ptr[1:], len(doc))
    cum = np.concatenate([[0], np.cumsum(ttf)])
    lo, docs_ok = 0, True
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] + CHUNK,
                                              "right")) - 1)
        run, r, lo = np.arange(lo, hi), slice(lo, hi), hi
        try:
            docs, freqs, voffs = _decode_records(doc, doc_ptr[r], df[r],
                                                 ttf[r])
            posd = cfor.decode_streams_at(pos, pos_ptr[r], ttf[r])[0]
        except IndexError as e:  # corrupt encoding
            return [f"postings decode failed: {e}"]
        term_of = np.repeat(run, df[r])  # each entry's term row
        first = voffs[:-1]  # each term's first entry (every df >= 1)
        rising = np.diff(docs, prepend=docs[:1] - 1) > 0
        rising[first] = True
        in_range = (docs >= 0) & (docs < n_docs)
        bad[f"docIDs not strictly ascending in [0, {n_docs})"].append(
            term_of[~(rising & in_range)])
        bad["freq < 1"].append(term_of[freqs < 1])
        sums = np.add.reduceat(freqs, first)
        bad["ttf != Σ freq"].append(run[sums != ttf[r]])
        if np.array_equal(sums, ttf[r]) and (freqs >= 0).all():
            entry_of = np.repeat(np.arange(len(freqs)), freqs)
            inner = np.diff(entry_of, prepend=-1) == 0  # not a first pos
            bad["negative position"].append(term_of[entry_of[posd < 0]])
            bad["positions not strictly ascending"].append(
                term_of[entry_of[inner & (posd <= 0)]])
        docs_ok &= bool(in_range.all())
        if not docs_ok:
            continue  # the checks below index by docID
        fe = fid[term_of]  # each entry's field
        np.maximum.at(max_tf, (fe, docs), freqs)
        np.add.at(uniq, (fe, docs), 1)
        # every 128-entry block; a multi-block term's .doc record ends
        # with its blocks' last docs, then max freqs, then min norms
        blk_term = np.repeat(run, nb[r])
        within = np.arange(len(blk_term)) - np.repeat(
            np.cumsum(nb[r]) - nb[r], nb[r])
        blk = voffs[blk_term - run[0]] + fu.BLOCK_SIZE * within
        multi = nb[blk_term] > 1
        if not multi.any():
            continue
        derived = (docs[np.minimum(blk + fu.BLOCK_SIZE,
                                   voffs[blk_term - run[0] + 1]) - 1],
                   np.maximum.reduceat(freqs, blk),
                   np.minimum.reduceat(norm[fe, docs], blk))
        tm = blk_term[multi]
        at = rec_end[tm] - 12 * nb[tm] + 4 * within[multi]
        for k, name in enumerate(BLOCK_COLS):  # int32 each
            got = doc[(at + 4 * k * nb[tm])[:, None] + np.arange(4)]
            bad[f"{name} disagrees with postings"].append(
                tm[got.view("<i4")[:, 0] != derived[k][multi]])
    errors = []
    for what, rows in bad.items():
        rows = np.unique(np.concatenate(rows))
        if len(rows):
            f, term = (t[c][rows[0]].as_py() for c in ("field", "term"))
            errors.append(f"{len(rows)} terms: {what}, "
                          f"first term {f}:{term!r}")
    if not docs_ok:
        return errors

    # FieldInvertState's per-doc stats of each field
    for k, f in enumerate(fields):
        sfx = "" if f == "text" else f"_{f}"
        if f"max_tf{sfx}" not in docs_t.column_names:
            continue
        for stat, got in (("max_tf", max_tf[k]), ("unique_terms", uniq[k])):
            if not np.array_equal(docs_t[stat + sfx].to_numpy(), got):
                errors.append(f"field {f}: {stat} disagrees with postings")
    return errors


def _check_records(t: pa.Table, doc: np.ndarray, pos: np.ndarray
                   ) -> list[str]:
    """The record layout the pointers of dictionary ``t`` promise in the
    bytes of ``postings.doc`` / ``postings.pos``."""
    df, ttf, ptr, pptr = (t[c].to_numpy().astype(np.int64) for c in
                          DICT_COLS[2:])
    errors = [] if np.all(df >= 1) and np.all(ttf >= df) else \
        ["a term has df < 1 or ttf < df"]
    recs = {DOC_FILE: (ptr, doc), POS_FILE: (pptr, pos)}
    for name, (p, buf) in recs.items():
        if len(p) and (p[0] != 0 or np.any(np.diff(p) < 0)):
            errors.append(f"{name}: pointers do not ascend from 0")
        elif len(p) and p[-1] > len(buf):
            errors.append(f"{name}: a record starts past the end of file")
    if errors:
        return errors
    nb = (df + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
    has = ttf > df
    try:
        dl = stream_nbytes(doc, ptr, df)
        fl = np.zeros_like(dl)
        fl[has] = stream_nbytes(doc, ptr[has] + dl[has], df[has])
        want = {DOC_FILE: dl + fl + np.where(nb > 1, 12 * nb, 0),
                POS_FILE: stream_nbytes(pos, pptr, ttf)}
    except IndexError:
        return ["postings streams run past the end of their file"]
    for name, (p, buf) in recs.items():
        bad = np.flatnonzero(np.diff(np.append(p, len(buf))) != want[name])
        if len(bad):
            errors.append(f"{name}: {len(bad)} records do not match their "
                          f"streams, first term {t['field'][bad[0]]}:"
                          f"{t['term'][bad[0]]}")
    return errors


def _keys_ascending(t: pa.Table, cols=("field", "term"),
                    strict: bool = True) -> bool:
    """Rows ascending by ``cols`` (strictly when ``strict``), compared by
    Arrow row against row — strings as UTF-8 bytes (BytesRef order ==
    code-point order)."""
    n = t.num_rows
    if n < 2:
        return True
    ok = pa.array(np.full(n - 1, not strict))  # rows equal in every col
    for c in reversed(cols):
        col = t[c]
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        a, b = col.slice(0, n - 1), col.slice(1)
        ok = pc.or_(pc.less(a, b), pc.and_(pc.equal(a, b), ok))
    return bool(pc.all(ok).as_py())


def _check_bloom_sidecar(seg_dir: str, terms_t, errors: list[str]) -> None:
    """'test: bloom filter' — the sidecar must answer MAYBE for every
    term actually in the dictionary (false negatives are corruption;
    false positives are by design)."""
    from .bloom import load_segment_bloom, murmur128_bulk, terms_by_field
    blooms = load_segment_bloom(seg_dir)
    if blooms is None:
        return
    for f, keys in terms_by_field(terms_t):
        fs = blooms.get(f)
        if fs is None:  # saturated filters are legitimately skipped
            continue
        h = murmur128_bulk(keys)
        mask = np.uint64(fs.bloom_size)
        ok = np.ones(len(keys), dtype=bool)
        with np.errstate(over="ignore"):
            for i in range(fs.hash_count):
                pos = (h[:, 1] + np.uint64(i) * h[:, 0]) & mask
                word = fs.bits[(pos >> np.uint64(6)).astype(np.int64)]
                ok &= ((word >> (pos & np.uint64(63)))
                       & np.uint64(1)).astype(bool)
        if not ok.all():
            errors.append(f"field {f}: bloom sidecar rejects {(~ok).sum()} "
                          f"dictionary terms (false negatives)")


def _check_term_vectors_sidecar(seg_dir: str, docs_t, errors: list[str]
                                ) -> None:
    """Term-vectors sidecar integrity (the 'test: term vectors...'
    CheckIndex section): rows sorted by (doc_id, field, term), every
    doc_id belongs to this segment, freq == len(positions), positions
    strictly ascending and non-negative."""
    path = os.path.join(seg_dir, "tvectors.parquet")
    if not os.path.exists(path):
        return
    tv = pq.read_table(path)
    if not np.isin(tv["doc_id"].to_numpy(),
                   docs_t["doc_id"].to_numpy()).all():
        errors.append("term vectors reference doc_ids outside the segment")
    if not _keys_ascending(tv, ("doc_id", "field", "term"), strict=False):
        errors.append("term vectors not sorted by (doc_id, field, term)")
    pos = tv["positions"].combine_chunks()
    lens = np.diff(pos.offsets.to_numpy())
    if not np.array_equal(tv["freq"].to_numpy(), lens):
        errors.append("term vector freq != len(positions)")
    flat = pos.flatten().to_numpy()
    if (flat < 0).any():
        errors.append("negative term vector position")
    rising = np.diff(flat, prepend=flat[:1] - 1) > 0
    rising[pos.offsets.to_numpy()[:-1][lens > 0]] = True  # lists restart
    if not rising.all():
        errors.append("term vector positions not strictly ascending")


def _check_quantized_sidecar(seg_dir: str, man: dict, n_docs: int,
                             errors: list[str]) -> None:
    """int8 scalar-quantized sidecar integrity: manifest params present,
    row count matches, bytes within [0, 2^bits − 1], null mask agrees
    with the float sidecar, and one requantization of the floats with the
    manifest's (lo, hi, bits) reproduces the stored bytes and corrections
    exactly (flush determinism)."""
    qpath = os.path.join(seg_dir, "vectors_q.parquet")
    if not os.path.exists(qpath):
        return
    from ..util.quantize import ScalarQuantizer
    qmeta = man.get("quantize")
    if not qmeta:
        errors.append("vectors_q.parquet present but manifest lacks "
                      "quantize params")
        return
    qt = pq.read_table(qpath)
    if qt.num_rows != n_docs:
        errors.append(f"quantized sidecar rows {qt.num_rows} != {n_docs}")
        return
    col = qt["qvec"].combine_chunks()
    qnull = col.is_null().to_numpy(zero_copy_only=False)
    qflat = pc.list_flatten(col).to_numpy().astype(np.int64)
    qlen = pc.list_value_length(col).fill_null(0).to_numpy()
    bits = int(qmeta.get("bits", 7))
    hi_byte = (1 << bits) - 1
    bad = np.flatnonzero((qflat < 0) | (qflat > hi_byte))
    if len(bad):
        i = int(np.searchsorted(np.cumsum(qlen), bad[0], side="right"))
        errors.append(f"quantized bytes out of [0,{hi_byte}] at doc {i}")
    vpath = os.path.join(seg_dir, "vectors.parquet")
    if not os.path.exists(vpath):
        errors.append("quantized sidecar without float vector sidecar")
        return
    vcol = pq.read_table(vpath)["embedding"].combine_chunks()
    vnull = vcol.is_null().to_numpy(zero_copy_only=False)
    if not np.array_equal(qnull, vnull):
        errors.append("quantized/float sidecar null masks disagree")
        return
    # one quantize over the non-null rows, a [rows, dim] matrix
    live = np.flatnonzero(~qnull)
    vlen = pc.list_value_length(vcol).fill_null(0).to_numpy()[live]
    dim = int(vlen[0]) if len(live) else 0
    wrong = (vlen != dim) | (qlen[live] != dim)
    if not wrong.any():
        qb, corr = ScalarQuantizer(float(qmeta["lo"]), float(qmeta["hi"]),
                                   bits).quantize(pc.list_flatten(vcol)
                                                  .to_numpy().reshape(-1, dim))
        wrong = np.any(qflat.reshape(qb.shape) != qb, axis=1)
    if wrong.any():
        errors.append(f"requantization disagrees with stored bytes "
                      f"at doc {live[np.argmax(wrong)]}")
        return
    off = np.abs(corr - qt["qcorr"].to_numpy(zero_copy_only=False)[live]
                 .astype(np.float64)) > 1e-9
    if off.any():
        errors.append(f"stored correction disagrees at doc "
                      f"{live[np.argmax(off)]}")


def check_index(index_dir: str, parallel: bool = True) -> dict:
    """Verify the whole index; returns a report dict (ok, segments, errors)."""
    with open(os.path.join(index_dir, INDEX_MANIFEST)) as f:
        manifest = json.load(f)
    seg_dirs = [m["dir"] for m in manifest["segments"]]

    if parallel:
        import ray

        @ray.remote
        def one(sd: str) -> str:
            return json.dumps(check_segment(index_dir, sd))

        seg_reports = [json.loads(r) for r in
                       ray.get([one.remote(sd) for sd in seg_dirs])]
    else:
        seg_reports = [check_segment(index_dir, sd) for sd in seg_dirs]

    errors = [f"seg {r['seg']}: {e}" for r in seg_reports for e in r["errors"]]
    if sum(r["doc_count"] for r in seg_reports) != manifest["doc_count"]:
        errors.append("global doc_count != Σ segment doc_count")
    got: dict[str, tuple] = {}  # field -> Σ df, Σ ttf over segments
    for r in seg_reports:
        for f, s in r["field_sums"].items():
            got[f] = tuple(np.add(got.get(f, (0, 0)), s).tolist())
    per = manifest.get("fields") or {"text": manifest}
    for f in sorted(set(per) | set(got)):
        for key, col, v in zip(STAT_KEYS, ("df", "ttf"), got.get(f, (0, 0))):
            if per.get(f, {}).get(key, 0) != v:
                errors.append(f"field {f}: manifest {key} "
                              f"{per.get(f, {}).get(key)} != Σ {col} {v}")
    return {"ok": not errors, "doc_count": manifest["doc_count"],
            "segments": seg_reports, "errors": errors}


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python -m lucene_kmp_ray.index.check INDEX_DIR")
    report = check_index(sys.argv[1], parallel=False)
    print(json.dumps(report, indent=1))
    sys.exit(0 if report["ok"] else 1)
