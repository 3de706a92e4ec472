"""CheckIndex analog: full-index integrity scan.

Re-reads every structure of every segment and re-derives the statistics the
manifests claim, exactly in the spirit of ``index/CheckIndex.kt:487``
(postings re-walked at ``:1033-1055``, norms, stored fields, per-field
stats). Segments are verified by parallel Ray tasks (one per segment — the
scan is embarrassingly parallel and IO-bound); the driver then checks the
global manifest and term_stats aggregation.

Checks per segment:
- terms strictly ascending (BytesRef order == code-point order);
- decoded docIDs strictly ascending, in ``[0, doc_count)``; ``df`` matches;
- ``ttf`` == Σ freqs; freqs ≥ 1; positions per entry strictly ascending,
  non-negative;
- skip/impact metadata consistent: ``block_last_doc``/``block_max_freq``/
  ``block_min_norm`` re-derivable from the decoded postings;
- ``norm`` byte == SmallFloat.intToByte4(length) for every doc;
- segment manifest stats == re-derived sums.

Global checks: manifest totals == Σ segment manifests; ``term_stats``
equals the groupby-term aggregation of per-segment (df, ttf); every
term-stats row group (the reader's stats block) holds one field, its
terms ascend, its footer has min/max statistics of ``term``, and blocks
ascend by (field, term) within a shard.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..util import forutil as fu
from ..util.smallfloat import int_to_byte4_np
from .format import DOCS_FILE, TERMS_FILE, decode_postings
from .reader import FOOTER_STATS_MAX_BYTES, INDEX_MANIFEST, footer_min_max


def check_segment(index_dir: str, seg_dir: str) -> dict:
    """Verify one segment directory; returns {seg, ok, errors, stats}."""
    errors: list[str] = []
    d = os.path.join(index_dir, seg_dir)
    with open(os.path.join(d, "manifest.json")) as f:
        man = json.load(f)
    docs_t = pq.read_table(os.path.join(d, DOCS_FILE))
    terms_t = pq.read_table(os.path.join(d, TERMS_FILE))
    n_docs = docs_t.num_rows
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

    terms = terms_t["term"].to_pylist()
    tfields = terms_t["field"].to_pylist() \
        if "field" in terms_t.column_names else ["text"] * len(terms)
    if any((tfields[i], terms[i]) >= (tfields[i + 1], terms[i + 1])
           for i in range(len(terms) - 1)):
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


def _check_bloom_sidecar(seg_dir: str, terms_t, errors: list[str]) -> None:
    """'test: bloom filter' — the sidecar must answer MAYBE for every
    term actually in the dictionary (false negatives are corruption;
    false positives are by design)."""
    from .bloom import load_segment_bloom, murmur128_bulk
    import numpy as np
    blooms = load_segment_bloom(seg_dir)
    if blooms is None:
        return
    fields = (terms_t["field"].to_pylist()
              if "field" in terms_t.column_names
              else ["text"] * terms_t.num_rows)
    terms = terms_t["term"].to_pylist()
    by_field: dict[str, list[bytes]] = {}
    for f, t in zip(fields, terms):
        by_field.setdefault(f, []).append(t.encode("utf-8"))
    for f, keys in by_field.items():
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
    from .builder import _read_seg_term_stats
    parts = [_read_seg_term_stats(index_dir, m["seg"])
             for m in manifest["segments"]]
    agg = pa.concat_tables(parts).group_by(["field", "term"]) \
        .aggregate([("df", "sum"), ("ttf", "sum")]) \
        .select(["field", "term", "df_sum", "ttf_sum"]) \
        .rename_columns(["field", "term", "df", "ttf"]) \
        .sort_by([("field", "ascending"), ("term", "ascending")])
    from .builder import term_stats_location
    stats = pq.read_table(term_stats_location(index_dir)) \
        .sort_by([("field", "ascending"), ("term", "ascending")])
    if not agg.equals(stats):
        errors.append("term stats disagree with per-segment terms")
    errors += check_term_stats_blocks(index_dir)
    return {"ok": not errors, "doc_count": manifest["doc_count"],
            "segments": seg_reports, "errors": errors}


def check_term_stats_blocks(index_dir: str) -> list[str]:
    """The layout ``IndexReader.term_stats`` binary-searches: per shard
    file, every row group holds one field, its terms ascend strictly,
    its footer's min/max of ``term`` are its first and last term, and
    each group's first (field, term) follows the previous group's last."""
    from .builder import term_stats_location
    loc = term_stats_location(index_dir)
    paths = sorted(os.path.join(loc, n) for n in os.listdir(loc)) \
        if os.path.isdir(loc) else [loc]
    errors: list[str] = []
    for path in paths:
        pf = pq.ParquetFile(path)
        names = pf.schema_arrow.names
        prev = None
        for g in range(pf.metadata.num_row_groups):
            where = f"{os.path.basename(path)} row group {g}"
            t = pf.read_row_group(g, columns=[c for c in ("field", "term")
                                              if c in names])
            if t.num_rows == 0:
                continue
            terms = t["term"]
            fields = t["field"] if "field" in names else pa.array(["text"])
            if pc.count_distinct(fields).as_py() != 1:
                errors.append(f"{where}: spans fields")
            if t.num_rows > 1 and not pc.all(
                    pc.less(terms[:-1], terms[1:])).as_py():
                errors.append(f"{where}: terms not ascending")
            edges = (terms[0].as_py(), terms[-1].as_py())
            st = footer_min_max(pf.metadata.row_group(g).column(
                names.index("term")).statistics)
            if st is None:  # allowed only where Arrow must drop a bound
                if max(len(e.encode()) for e in edges) <= \
                        FOOTER_STATS_MAX_BYTES:
                    errors.append(f"{where}: no min/max statistics for term")
            elif st != edges:
                errors.append(f"{where}: term statistics != first/last term")
            if prev is not None and (fields[0].as_py(), edges[0]) <= prev:
                errors.append(f"{where}: not after the previous row group")
            prev = (fields[-1].as_py(), edges[1])
    return errors
