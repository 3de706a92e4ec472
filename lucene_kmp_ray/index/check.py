"""CheckIndex analog: full-index integrity scan.

Re-reads every structure of every segment and re-derives the statistics the
manifests claim, exactly in the spirit of ``index/CheckIndex.kt:487``
(postings re-walked at ``:1033-1055``, norms, stored fields, per-field
stats). Segments are verified by parallel Ray tasks (one per segment — the
scan is embarrassingly parallel and IO-bound); the driver then checks the
global manifest against the segments.

Checks per segment:
- postings pointers: ``doc_ptr``/``pos_ptr`` ascend from 0 and stay inside
  their files; each ``postings.doc`` record is exactly its docs stream,
  its freqs stream (present iff ``ttf > df``) and, for a multi-block
  term, its skip/impact metadata; each ``postings.pos`` record is exactly
  its ``ttf``-value positions stream (so the last records end at the file
  sizes);
- terms strictly ascending (BytesRef order == code-point order);
- decoded docIDs strictly ascending, in ``[0, doc_count)``; ``df`` matches;
- ``ttf`` == Σ freqs; freqs ≥ 1; positions per entry strictly ascending,
  non-negative;
- skip/impact metadata consistent: ``block_last_doc``/``block_max_freq``/
  ``block_min_norm`` re-derivable from the decoded postings;
- ``norm`` byte == SmallFloat.intToByte4(length) for every doc;
- segment manifest stats == re-derived sums.

Global checks: manifest doc_count == Σ segment doc counts; per field, the
manifest's ``sum_doc_freq`` / ``sum_total_term_freq`` == Σ df / Σ ttf over
the segment dictionaries, the same df/ttf that ``IndexReader.term_stats``
sums for the scorer.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import forutil as fu
from ..util.cfor import SortedTerms
from ..util.smallfloat import int_to_byte4_np
from .format import DOCS_FILE, decode_postings
from .postings import (DOC_FILE, POS_FILE, TERMS_FILE, read_terms_table,
                       stream_nbytes)
from .reader import INDEX_MANIFEST


def check_segment(index_dir: str, seg_dir: str) -> dict:
    """Verify one segment directory; returns {seg, ok, errors, stats}."""
    errors: list[str] = []
    d = os.path.join(index_dir, seg_dir)
    with open(os.path.join(d, "manifest.json")) as f:
        man = json.load(f)
    docs_t = pq.read_table(os.path.join(d, DOCS_FILE))
    n_docs = docs_t.num_rows
    errors += check_postings_files(d)
    if errors:  # the pointers cannot be followed safely
        return {"seg": man["seg"], "ok": False, "errors": errors,
                "doc_count": n_docs, "unique_terms": man.get("unique_terms")}
    terms_t = read_terms_table(d)
    if n_docs != man["doc_count"]:
        errors.append(f"doc_count {n_docs} != manifest {man['doc_count']}")

    # per-field norms: field f's columns are length[_f] / norm[_f]
    field_names = sorted({c[5:] if c.startswith("norm_") else "text"
                          for c in docs_t.column_names
                          if c == "norm" or c.startswith("norm_")})
    norms_by_field: dict[str, np.ndarray] = {}
    for f in field_names:
        lcol, ncol = ("length", "norm") if f == "text" else \
            (f"length_{f}", f"norm_{f}")
        fl = docs_t[lcol].to_numpy().astype(np.int64)
        fn = docs_t[ncol].to_numpy().astype(np.uint8)
        norms_by_field[f] = fn
        bad = np.flatnonzero(fn != int_to_byte4_np(fl))
        if len(bad):
            errors.append(f"field {f}: {len(bad)} norm bytes disagree with "
                          f"SmallFloat(length), first at doc {bad[0]}")
    lengths = docs_t["length"].to_numpy().astype(np.int64)

    # terms decode one at a time, for error messages only
    terms = SortedTerms(terms_t["term"])
    tfields = terms_t["field"].to_pylist() \
        if "field" in terms_t.column_names else ["text"] * len(terms)
    if not _keys_ascending(terms_t):
        errors.append("(field, term) keys not strictly ascending")

    per_field_sums: dict[str, list[int]] = {}  # field -> [df, ttf, nterms]
    # re-derive FieldInvertState.maxTermFrequency / uniqueTermCount
    exp_maxtf: dict[str, np.ndarray] = {f: np.zeros(n_docs, np.int64)
                                        for f in field_names}
    exp_uniq: dict[str, np.ndarray] = {f: np.zeros(n_docs, np.int64)
                                       for f in field_names}
    dfs = terms_t["df"].to_numpy()
    ttfs = terms_t["ttf"].to_numpy()
    for i in range(terms_t.num_rows):
        df_i, ttf_i = int(dfs[i]), int(ttfs[i])
        try:
            docs, freqs, flat = decode_postings(
                df_i, ttf_i, terms_t["docs_enc"][i].as_py(),
                terms_t["freqs_enc"][i].as_py(),
                terms_t["pos_enc"][i].as_py())
        except Exception as e:  # corrupt encoding
            errors.append(f"term {terms[i]!r}: decode failed: {e}")
            continue
        if len(docs) != df_i:
            errors.append(f"term {terms[i]!r}: df {df_i} != {len(docs)}")
        if len(docs) and (np.any(np.diff(docs) <= 0) or docs[0] < 0
                          or docs[-1] >= n_docs):
            errors.append(f"term {terms[i]!r}: docIDs not ascending in range")
        if int(freqs.sum()) != ttf_i:
            errors.append(f"term {terms[i]!r}: ttf {ttf_i} != {freqs.sum()}")
        if len(freqs) and freqs.min() < 1:
            errors.append(f"term {terms[i]!r}: freq < 1")
        # positions ascending within each entry
        ends = np.cumsum(freqs)
        starts = ends - freqs
        if len(flat) and np.any(flat < 0):
            errors.append(f"term {terms[i]!r}: negative position")
        inner = np.ones(len(flat), dtype=bool)
        inner[starts[starts < len(flat)]] = False
        if len(flat) > 1 and np.any(np.diff(flat)[inner[1:]] <= 0):
            errors.append(f"term {terms[i]!r}: positions not ascending")
        # impacts / skip metadata re-derivation (against the FIELD's norms)
        fnorms = norms_by_field.get(tfields[i], norms_by_field.get("text"))
        idx = np.arange(0, len(docs), fu.BLOCK_SIZE)
        if len(docs):
            exp_last = docs[np.minimum(idx + fu.BLOCK_SIZE - 1,
                                       len(docs) - 1)]
            exp_maxf = np.maximum.reduceat(freqs, idx)
            exp_minn = np.minimum.reduceat(fnorms[docs].astype(np.int64), idx)
            if not (np.array_equal(exp_last,
                                   np.asarray(terms_t["block_last_doc"][i]
                                              .as_py())) and
                    np.array_equal(exp_maxf,
                                   np.asarray(terms_t["block_max_freq"][i]
                                              .as_py())) and
                    np.array_equal(exp_minn,
                                   np.asarray(terms_t["block_min_norm"][i]
                                              .as_py()))):
                errors.append(f"term {terms[i]!r}: skip/impact metadata "
                              "disagrees with postings")
        acc = per_field_sums.setdefault(tfields[i], [0, 0, 0])
        acc[0] += df_i
        acc[1] += ttf_i
        acc[2] += 1
        if tfields[i] in exp_maxtf:
            np.maximum.at(exp_maxtf[tfields[i]], docs, freqs)
            np.add.at(exp_uniq[tfields[i]], docs, 1)

    man_fields = man.get("fields") or {"text": {
        "sum_doc_freq": man["sum_doc_freq"],
        "sum_total_term_freq": man["sum_total_term_freq"],
        "unique_terms": man.get("unique_terms", 0)}}
    for f, (sum_df, sum_ttf, n_terms) in per_field_sums.items():
        mf = man_fields.get(f, {})
        if sum_df != mf.get("sum_doc_freq"):
            errors.append(f"field {f}: sum_doc_freq "
                          f"{mf.get('sum_doc_freq')} != {sum_df}")
        if sum_ttf != mf.get("sum_total_term_freq"):
            errors.append(f"field {f}: sum_total_term_freq "
                          f"{mf.get('sum_total_term_freq')} != {sum_ttf}")
    if int(lengths.sum()) != man["sum_total_term_freq"]:
        errors.append("Σ length != sum_total_term_freq (text)")
    for f in field_names:
        sfx = "" if f == "text" else f"_{f}"
        mcol, ucol = f"max_tf{sfx}", f"unique_terms{sfx}"
        if mcol in docs_t.column_names:
            if not np.array_equal(docs_t[mcol].to_numpy().astype(np.int64),
                                  exp_maxtf[f]):
                errors.append(f"field {f}: max_tf disagrees with postings")
            if not np.array_equal(docs_t[ucol].to_numpy().astype(np.int64),
                                  exp_uniq[f]):
                errors.append(
                    f"field {f}: unique_terms disagrees with postings")
    _check_quantized_sidecar(d, man, n_docs, errors)
    _check_term_vectors_sidecar(d, docs_t, errors)
    _check_bloom_sidecar(d, terms_t, errors)
    return {"seg": man["seg"], "ok": not errors, "errors": errors,
            "doc_count": n_docs, "unique_terms": terms_t.num_rows}


def check_postings_files(seg_dir: str) -> list[str]:
    """The record layout the dictionary's pointers promise (segments of
    the old all-in-``terms.parquet`` layout have no pointers to check)."""
    t = pq.read_table(os.path.join(seg_dir, TERMS_FILE))
    if "doc_ptr" not in t.column_names:
        return []
    errors: list[str] = []
    df = t["df"].to_numpy().astype(np.int64)
    ttf = t["ttf"].to_numpy().astype(np.int64)
    files = {}
    for col, name in (("doc_ptr", DOC_FILE), ("pos_ptr", POS_FILE)):
        ptr = t[col].to_numpy().astype(np.int64)
        buf = np.fromfile(os.path.join(seg_dir, name), np.uint8)
        if len(ptr) and (ptr[0] != 0 or np.any(np.diff(ptr) < 0)):
            errors.append(f"{name}: pointers do not ascend from 0")
        elif len(ptr) and ptr[-1] > len(buf):
            errors.append(f"{name}: a record starts past the end of file")
        files[name] = (ptr, np.append(ptr, len(buf)), buf)
    if np.any(ttf < df):
        errors.append("a term has ttf < df")
    if errors:
        return errors
    terms = t["term"]
    (ptr, bounds, doc), (pptr, pbounds, pos) = files[DOC_FILE], files[POS_FILE]
    nb = (df + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
    has = ttf > df
    try:
        dl = stream_nbytes(doc, ptr, df)
        fl = np.zeros_like(dl)
        fl[has] = stream_nbytes(doc, ptr[has] + dl[has], df[has])
        expect = dl + fl + np.where(nb > 1, 12 * nb, 0)
        pexpect = stream_nbytes(pos, pptr, ttf)
    except IndexError:
        return ["postings streams run past the end of their file"]
    for name, got, want in ((DOC_FILE, np.diff(bounds), expect),
                            (POS_FILE, np.diff(pbounds), pexpect)):
        bad = np.flatnonzero(got != want)
        if len(bad):
            errors.append(f"{name}: {len(bad)} records do not match their "
                          f"streams, first term {terms[int(bad[0])]}")
    return errors


def _keys_ascending(terms_t) -> bool:
    """(field, term) keys strictly ascending, compared as UTF-8 bytes
    (BytesRef order == code-point order) by Arrow, row against row."""
    n = terms_t.num_rows
    if n < 2:
        return True
    term = terms_t["term"]
    ok = pc.less(term.slice(0, n - 1), term.slice(1))
    if "field" in terms_t.column_names:
        f = terms_t["field"].cast(pa.string())
        f0, f1 = f.slice(0, n - 1), f.slice(1)
        ok = pc.or_(pc.less(f0, f1), pc.and_(pc.equal(f0, f1), ok))
    return bool(pc.all(ok).as_py())


def _check_bloom_sidecar(seg_dir: str, terms_t, errors: list[str]) -> None:
    """'test: bloom filter' — the sidecar must answer MAYBE for every
    term actually in the dictionary (false negatives are corruption;
    false positives are by design)."""
    from .bloom import load_segment_bloom, murmur128_bulk, terms_by_field
    import numpy as np
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
        nbad = int((~ok).sum())
        if nbad:
            errors.append(f"field {f}: bloom sidecar rejects {nbad} "
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
    if tv.num_rows == 0:
        return
    ids = tv["doc_id"].to_numpy()
    seg_ids = set(docs_t["doc_id"].to_numpy().tolist())
    if not set(np.unique(ids).tolist()) <= seg_ids:
        errors.append("term vectors reference doc_ids outside the segment")
    keys = list(zip(ids.tolist(), tv["field"].to_pylist(),
                    tv["term"].to_pylist()))
    if keys != sorted(keys):
        errors.append("term vectors not sorted by (doc_id, field, term)")
    freqs = tv["freq"].to_numpy()
    pos = tv["positions"].combine_chunks()
    lens = np.diff(pos.offsets.to_numpy())
    if not np.array_equal(freqs.astype(np.int64), lens.astype(np.int64)):
        errors.append("term vector freq != len(positions)")
    flat = pos.flatten().to_numpy()
    if len(flat) and flat.min() < 0:
        errors.append("negative term vector position")
    starts = pos.offsets.to_numpy()[:-1]
    if len(flat) > 1:
        rising = np.ones(len(flat), bool)
        rising[1:] = flat[1:] > flat[:-1]
        rising[starts] = True  # list boundaries restart
        if not rising.all():
            errors.append("term vector positions not strictly ascending")


def _check_quantized_sidecar(seg_dir: str, man: dict, n_docs: int,
                             errors: list[str]) -> None:
    """int8 scalar-quantized sidecar integrity: manifest params present,
    row count matches, bytes within [0, 2^bits − 1], null mask agrees
    with the float sidecar, and requantizing the floats with the
    manifest's (lo, hi, bits) reproduces the stored bytes and
    corrections exactly (flush determinism — the CheckIndex spirit of
    re-deriving what the files claim)."""
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
    qnull = np.asarray(col.is_null()) if col.null_count \
        else np.zeros(n_docs, bool)
    rows = col.to_numpy(zero_copy_only=False)
    hi_byte = (1 << int(qmeta.get("bits", 7))) - 1
    for i, r in enumerate(rows):
        if r is None:
            continue
        a = np.asarray(r, np.int64)
        if a.min() < 0 or a.max() > hi_byte:
            errors.append(f"quantized bytes out of [0,{hi_byte}] at doc {i}")
            break
    vpath = os.path.join(seg_dir, "vectors.parquet")
    if not os.path.exists(vpath):
        errors.append("quantized sidecar without float vector sidecar")
        return
    vcol = pq.read_table(vpath)["embedding"].combine_chunks()
    vnull = np.asarray(vcol.is_null()) if vcol.null_count \
        else np.zeros(n_docs, bool)
    if not np.array_equal(qnull, vnull):
        errors.append("quantized/float sidecar null masks disagree")
        return
    sq = ScalarQuantizer(float(qmeta["lo"]), float(qmeta["hi"]),
                         int(qmeta.get("bits", 7)))
    vrows = vcol.to_numpy(zero_copy_only=False)
    corr = qt["qcorr"].to_numpy(zero_copy_only=False)
    for i in np.flatnonzero(~qnull):
        qb, c = sq.quantize(np.asarray(vrows[i], np.float64)[None, :])
        if not np.array_equal(qb[0], np.asarray(rows[i], np.int8)):
            errors.append(f"requantization disagrees with stored bytes "
                          f"at doc {i}")
            return
        if abs(float(c[0]) - float(corr[i])) > 1e-9:
            errors.append(f"stored correction disagrees at doc {i}")
            return


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
    # global aggregates
    if sum(r["doc_count"] for r in seg_reports) != manifest["doc_count"]:
        errors.append("global doc_count != Σ segment doc_count")
    from .builder import global_term_stats
    sums = global_term_stats(index_dir).group_by("field") \
        .aggregate([("df", "sum"), ("ttf", "sum")])
    got = {f: (df, ttf) for f, df, ttf in zip(
        *(sums[c].to_pylist() for c in ("field", "df_sum", "ttf_sum")))}
    per = manifest.get("fields") or {"text": manifest}
    for f in sorted(set(per) | set(got)):
        df, ttf = got.get(f, (0, 0))
        want = per.get(f, {})
        if want.get("sum_doc_freq", 0) != df:
            errors.append(f"field {f}: manifest sum_doc_freq "
                          f"{want.get('sum_doc_freq')} != Σ df {df}")
        if want.get("sum_total_term_freq", 0) != ttf:
            errors.append(f"field {f}: manifest sum_total_term_freq "
                          f"{want.get('sum_total_term_freq')} != Σ ttf {ttf}")
    return {"ok": not errors, "doc_count": manifest["doc_count"],
            "segments": seg_reports, "errors": errors}


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python -m lucene_kmp_ray.index.check INDEX_DIR")
    report = check_index(sys.argv[1], parallel=False)
    print(json.dumps(report, indent=1))
    sys.exit(0 if report["ok"] else 1)
