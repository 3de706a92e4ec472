"""The merge's (field, term) union: the C ``merge_terms`` of the record
merge, and ``merged_vocab`` (Arrow, array-at-a-time) of the reference
merge in tests/_ref_merge.py. Each case checks the merged dictionary
against a pure-Python ``sorted({(field, term)})`` over the sources, each
term's df/ttf against the sources' sums minus the reclaimed postings,
and the C record merge against the reference merge, file for file."""

import collections
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from _ref_merge import merged_vocab, numpy_merge
from _ref_postings import OLD_LAYOUT, write_old_layout

from lucene_kmp_ray.analysis.core import WhitespaceAnalyzer
from lucene_kmp_ray.index.deletes import delete_segment_urls
from lucene_kmp_ray.index.format import build_and_write_segment, seg_dirname
from lucene_kmp_ray.index.merge import merge_segments
from lucene_kmp_ray.index.postings import TERMS_FILE

# byte order == code-point order, unlike UTF-16 order: "😀" (U+1F600,
# a surrogate pair) sorts after "ｚ" (U+FF5A), and "ab" before "aÿ"
SOURCE_A = {0: "z é ab", 2: "😀 z z", 4: "x ab"}
SOURCE_B = {1: "ｚ aÿ", 3: "ab é é", 5: "y aÿ aÿ 😀"}


def _seg_dir(idx, seg):
    return os.path.join(idx, "segments", seg_dirname(seg))


def _write(idx, seg, docs, fields=("text",)):
    """One segment over ``docs`` = {doc_id: {field: text}}."""
    ids = sorted(docs)
    cols = {"doc_id": pa.array(ids, pa.int64()),
            "url": [f"u{i}" for i in ids]}
    for f in fields:
        cols[f] = [docs[i].get(f, "") for i in ids]
    build_and_write_segment(pa.table(cols), seg, idx,
                            analyzer=WhitespaceAnalyzer(), fields=fields)


def _merge_both(idx, segs):
    """Merge ``segs`` through the C record merge (seg 900) and the
    reference merge (seg 901); the two must write the same files."""
    merge_segments(idx, segs, 900)
    with pytest.MonkeyPatch.context() as mp:
        numpy_merge(mp)
        merge_segments(idx, segs, 901)
    a, b = _seg_dir(idx, 900), _seg_dir(idx, 901)
    for f in (TERMS_FILE, "docs.parquet"):
        assert pq.read_table(os.path.join(a, f)).equals(
            pq.read_table(os.path.join(b, f))), f
    for f in ("postings.doc", "postings.pos"):
        with open(os.path.join(a, f), "rb") as fa, \
                open(os.path.join(b, f), "rb") as fb:
            assert fa.read() == fb.read(), f
    return pq.read_table(os.path.join(a, TERMS_FILE))


def _check(idx, segs, docs, deleted=()):
    """Merge ``segs`` and compare with the pure-Python reference.
    ``docs`` = {doc_id: {field: text}} over all sources; ``deleted`` are
    the tombstoned doc_ids."""
    df, ttf = collections.Counter(), collections.Counter()
    keys = set()
    for seg in segs:
        t = pq.read_table(os.path.join(_seg_dir(idx, seg), TERMS_FILE))
        for key, d, n in zip(zip(t["field"].to_pylist(),
                                 t["term"].to_pylist()),
                             t["df"].to_pylist(), t["ttf"].to_pylist()):
            keys.add(key)
            df[key] += d
            ttf[key] += n
    for doc_id in deleted:  # reclaimed postings
        for f, text in docs[doc_id].items():
            counts = collections.Counter(text.split())
            for term, n in counts.items():
                df[(f, term)] -= 1
                ttf[(f, term)] -= n
    expect = [k for k in sorted(keys) if df[k] > 0]

    merged = _merge_both(idx, segs)
    got = list(zip(merged["field"].to_pylist(), merged["term"].to_pylist()))
    assert got == expect
    assert merged["df"].to_pylist() == [df[k] for k in expect]
    assert merged["ttf"].to_pylist() == [ttf[k] for k in expect]
    return got, keys


def _text(d):
    return {i: {"text": s} for i, s in d.items()}


def test_interleaved_non_ascii_vocabularies(tmp_path):
    idx = str(tmp_path / "idx")
    _write(idx, 0, _text(SOURCE_A))
    _write(idx, 1, _text(SOURCE_B))
    got, _ = _check(idx, [0, 1], _text({**SOURCE_A, **SOURCE_B}))
    assert [t for _, t in got] == ["ab", "aÿ", "x", "y", "z", "é", "ｚ",
                                   "😀"]


def test_field_present_in_one_source(tmp_path):
    idx = str(tmp_path / "idx")
    a = {i: {"text": s, "title": ""} for i, s in SOURCE_A.items()}
    b = {i: {"text": s, "title": s.split()[0]} for i, s in SOURCE_B.items()}
    _write(idx, 0, a, fields=("text", "title"))
    _write(idx, 1, b, fields=("text", "title"))
    assert pq.read_table(os.path.join(_seg_dir(idx, 0), TERMS_FILE))[
        "field"].to_pylist() == \
        ["text"] * 5
    got, _ = _check(idx, [0, 1], {**a, **b})
    assert [k for k in got if k[0] == "title"] == [
        ("title", "ab"), ("title", "y"), ("title", "ｚ")]


def test_term_reclaimed_everywhere_is_dropped(tmp_path):
    idx = str(tmp_path / "idx")
    # "x" lives only in doc 4 and "y" only in doc 5: both die with them
    _write(idx, 0, _text(SOURCE_A))
    _write(idx, 1, _text(SOURCE_B))
    assert delete_segment_urls(_seg_dir(idx, 0), ["u4"]) == 1
    assert delete_segment_urls(_seg_dir(idx, 1), ["u5"]) == 1
    got, keys = _check(idx, [0, 1], _text({**SOURCE_A, **SOURCE_B}),
                       deleted=(4, 5))
    assert {("text", "x"), ("text", "y")} <= keys
    assert [t for _, t in got] == ["ab", "aÿ", "z", "é", "ｚ", "😀"]


@pytest.mark.corrupts_index
def test_old_layout_source_without_field_column(tmp_path):
    """A source dictionary without a ``field`` column is refused, not
    merged."""
    idx = str(tmp_path / "idx")
    _write(idx, 0, _text(SOURCE_A))
    _write(idx, 1, _text(SOURCE_B))
    write_old_layout(_seg_dir(idx, 0), "no_field_column")
    with pytest.raises(ValueError, match=OLD_LAYOUT):
        merge_segments(idx, [0, 1], 900)


def test_vocab_codes_slice_per_source(tmp_path):
    """Each source row's code indexes its own (field, term) in the
    merged vocabulary."""
    idx = str(tmp_path / "idx")
    a = {i: {"text": s, "title": "t"} for i, s in SOURCE_A.items()}
    _write(idx, 0, a, fields=("text", "title"))
    _write(idx, 1, _text(SOURCE_B))
    tables = [pq.read_table(os.path.join(_seg_dir(idx, s), TERMS_FILE))
              for s in (0, 1)]
    codes, fields = merged_vocab(tables)
    vocab = [(f, t) for f, lo, hi, terms in fields
             for t in terms.to_pylist()]
    assert vocab == sorted(vocab)
    assert [hi - lo for _, lo, hi, _ in fields] == \
        [len(terms) for *_, terms in fields]
    rows = [k for t in tables
            for k in zip(t["field"].to_pylist(), t["term"].to_pylist())]
    assert [vocab[c] for c in codes] == rows
    assert codes.dtype == np.int64


def test_no_terms_at_all(tmp_path):
    idx = str(tmp_path / "idx")
    _write(idx, 0, {0: {"text": ""}})
    _write(idx, 1, {1: {"text": ""}})
    merged = _merge_both(idx, [0, 1])
    assert merged.num_rows == 0
