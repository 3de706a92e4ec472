"""The record-to-record merge (``merge._merge_records``: the C
``merge_terms`` / ``merge_postings`` pair) against the per-term numpy
merge, its reference. Each case merges the same sources twice, once with
the C library forced off, and the two new segments must hold the same
files byte for byte (the manifests differ only in their timings)."""

import json
import os
import shutil
import subprocess
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from test_postings_file import _to_old_layout

import lucene_kmp_ray.util.cfor as cf
from lucene_kmp_ray.analysis.core import WhitespaceAnalyzer
from lucene_kmp_ray.index.deletes import delete_segment_urls
from lucene_kmp_ray.index.format import build_and_write_segment, seg_dirname
from lucene_kmp_ray.index.merge import merge_segments
from lucene_kmp_ray.index.postings import (DOC_FILE, POS_FILE, TERMS_FILE,
                                           read_terms_table)
from lucene_kmp_ray.index.softdeletes import soft_delete_segment_urls

pytestmark = pytest.mark.skipif(cf.lib() is None,
                                reason="no C compiler in environment")


def _dir(idx, seg):
    return os.path.join(idx, "segments", seg_dirname(seg))


def _write(idx, seg, ids, texts, titles=None, index_sort=None):
    cols = {"doc_id": pa.array(ids, pa.int64()),
            "url": [f"u{i:05d}" for i in ids], "text": texts}
    fields = ("text",)
    if titles is not None:
        cols["title"] = titles
        fields = ("text", "title")
    build_and_write_segment(pa.table(cols), seg, idx,
                            analyzer=WhitespaceAnalyzer(), fields=fields,
                            index_sort=index_sort)


def _corpus(seed, ids, hot_every=0):
    """Zipf-ish texts; with ``hot_every``, "hot" is in every doc and
    every ``hot_every``-th doc repeats it 200 times after a long filler
    run (freq and position-delta outliers: PFor exceptions)."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(300)]
    p = 1.0 / np.arange(1, 301)
    p /= p.sum()
    texts = []
    for i in ids:
        words = list(rng.choice(vocab, int(rng.integers(1, 40)), p=p))
        if hot_every:
            words.append("hot")
            if i % hot_every == 0:
                words += ["pad"] * 900 + ["hot"] * 200
        texts.append(" ".join(words))
    return texts


def _merge_both(idx, segs, **kw):
    """Merge ``segs`` with the record kernel (seg 900) and the numpy path
    (seg 901); every file must match byte for byte."""
    merge_segments(idx, segs, 900, **kw)
    saved = cf._CACHED, cf._CACHED_PID
    try:
        cf._CACHED, cf._CACHED_PID = None, os.getpid()
        merge_segments(idx, segs, 901, **kw)
    finally:
        cf._CACHED, cf._CACHED_PID = saved
    a, b = _dir(idx, 900), _dir(idx, 901)
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        if name == "manifest.json":
            ma, mb = (json.load(open(os.path.join(d, name))) for d in (a, b))
            for m in (ma, mb):
                del m["seg"], m["metrics"]
            assert ma == mb
        else:
            with open(os.path.join(a, name), "rb") as fa, \
                    open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name
    return a


def _two(idx, n=300, **kw):
    _write(idx, 0, list(range(n)), _corpus(1, range(n), **kw))
    _write(idx, 1, list(range(n, 2 * n)), _corpus(2, range(n, 2 * n), **kw))


def test_tombstones(tmp_path):
    idx = str(tmp_path / "idx")
    _two(idx)
    assert delete_segment_urls(_dir(idx, 0), [f"u{i:05d}" for i in
                                              range(0, 300, 7)]) == 43
    assert delete_segment_urls(_dir(idx, 1), ["u00300", "u00599"]) == 2
    out = _merge_both(idx, [0, 1])
    assert json.load(open(os.path.join(out, "manifest.json")))[
        "doc_count"] == 600 - 45


def test_merge_of_merges_interleaved(tmp_path):
    """Sources whose doc_id ranges interleave: the merged entries of a
    term are not ascending in source order and must be sorted."""
    idx = str(tmp_path / "idx")
    for seg in range(4):
        ids = list(range(seg, 800, 4))
        _write(idx, seg, ids, _corpus(seg, ids, hot_every=17))
    merge_segments(idx, [0, 2], 10)
    merge_segments(idx, [1, 3], 11)
    _merge_both(idx, [10, 11])
    shutil.rmtree(_dir(idx, 900))
    shutil.rmtree(_dir(idx, 901))
    _merge_both(idx, [0, 1, 2, 3])


def test_index_sort_url_descending(tmp_path):
    idx = str(tmp_path / "idx")
    sort = (("url", True),)
    for seg in range(2):
        ids = list(range(seg, 600, 2))
        _write(idx, seg, ids, _corpus(seg, ids, hot_every=9),
               index_sort=sort)
    out = _merge_both(idx, [0, 1])
    urls = pq.read_table(os.path.join(out, "docs.parquet"))["url"]
    assert urls.to_pylist() == sorted(urls.to_pylist(), reverse=True)


def test_two_fields(tmp_path):
    idx = str(tmp_path / "idx")
    for seg in range(2):
        ids = list(range(seg * 200, seg * 200 + 200))
        _write(idx, seg, ids, _corpus(seg, ids),
               titles=_corpus(seg + 10, ids))
    out = _merge_both(idx, [0, 1])
    fields = set(read_terms_table(out, columns=())["field"].to_pylist())
    assert fields == {"text", "title"}


def test_old_layout_source(tmp_path):
    idx = str(tmp_path / "idx")
    _two(idx, hot_every=11)
    _to_old_layout(_dir(idx, 0))
    assert not os.path.exists(os.path.join(_dir(idx, 0), DOC_FILE))
    _merge_both(idx, [0, 1])


def test_soft_deletes_with_retention(tmp_path):
    idx = str(tmp_path / "idx")
    _two(idx)
    field = "__soft_deletes"
    soft_delete_segment_urls(_dir(idx, 0), [f"u{i:05d}" for i in range(10)],
                             field=field)
    soft_delete_segment_urls(_dir(idx, 1), ["u00300", "u00301"],
                             field=field)

    def retention(docs):  # keep the soft-deleted docs with an odd id
        return docs["doc_id"].to_numpy() % 2 == 1

    out = _merge_both(idx, [0, 1], soft_deletes_field=field,
                      retention=retention)
    m = json.load(open(os.path.join(out, "manifest.json")))
    assert m["doc_count"] == 600 - 6


def test_term_reclaimed_everywhere(tmp_path):
    idx = str(tmp_path / "idx")
    _write(idx, 0, [0, 1, 2], ["a only0", "a b", "b"])
    _write(idx, 1, [3, 4], ["only1 b", "a"])
    delete_segment_urls(_dir(idx, 0), ["u00000"])
    delete_segment_urls(_dir(idx, 1), ["u00003"])
    out = _merge_both(idx, [0, 1])
    assert read_terms_table(out, columns=())["term"].to_pylist() == \
        ["a", "b"]


def test_all_reclaimed(tmp_path):
    idx = str(tmp_path / "idx")
    _write(idx, 0, [0, 1], ["a b", "b c"])
    _write(idx, 1, [2], ["c d"])
    delete_segment_urls(_dir(idx, 0), ["u00000", "u00001"])
    delete_segment_urls(_dir(idx, 1), ["u00002"])
    out = _merge_both(idx, [0, 1])
    assert pq.read_table(os.path.join(out, TERMS_FILE)).num_rows == 0
    assert os.path.getsize(os.path.join(out, DOC_FILE)) == 0


def test_multi_block_terms_with_pfor_exceptions(tmp_path):
    idx = str(tmp_path / "idx")
    _two(idx, n=700, hot_every=37)
    delete_segment_urls(_dir(idx, 1), [f"u{i:05d}" for i in
                                       range(700, 1400, 5)])
    out = _merge_both(idx, [0, 1])
    t = read_terms_table(out)
    hot = t["term"].to_pylist().index("hot")
    assert len(t["block_last_doc"][hot]) > 4
    freqs, pos = t["freqs_enc"][hot].as_py(), t["pos_enc"][hot].as_py()
    assert freqs[0] & 0x80 and pos[0] & 0x80  # patched first blocks


@pytest.mark.parametrize("name", [DOC_FILE, POS_FILE])
def test_truncated_source_raises(tmp_path, name):
    idx = str(tmp_path / "idx")
    _two(idx, hot_every=7)
    path = os.path.join(_dir(idx, 1), name)
    with open(path, "r+b") as f:
        f.truncate(os.path.getsize(path) - 3)
    with pytest.raises(IndexError):
        merge_segments(idx, [0, 1], 900)


def test_compile_failure_warns_once_and_falls_back(tmp_path, monkeypatch):
    idx = str(tmp_path / "idx")
    _two(idx, hot_every=7)
    merge_segments(idx, [0, 1], 900)

    def broken():
        raise subprocess.CalledProcessError(
            1, ["cc"], stderr=b"cc: error: no such compiler")
    monkeypatch.setattr(cf, "_compile", broken)
    monkeypatch.setattr(cf, "_CACHED", False)
    monkeypatch.setattr(cf, "_WARNED_PID", -1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        merge_segments(idx, [0, 1], 901)
        monkeypatch.setattr(cf, "_CACHED_PID", os.getpid() + 1)
        assert cf.lib() is None  # a retry in the same process
    msgs = [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)]
    assert len(msgs) == 1 and "no such compiler" in msgs[0]
    for name in (DOC_FILE, POS_FILE):
        with open(os.path.join(_dir(idx, 900), name), "rb") as fa, \
                open(os.path.join(_dir(idx, 901), name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("col", ["df", "ttf"])
def test_inflated_df_or_ttf_raises(tmp_path, col):
    """A source dictionary whose df or ttf claims more values than the
    record's bytes can hold (here 2**60, which would overflow the
    scratch size) is rejected before any buffer is sized from it."""
    idx = str(tmp_path / "idx")
    _two(idx, hot_every=7)
    path = os.path.join(_dir(idx, 1), TERMS_FILE)
    t = pq.read_table(path)
    vals = {c: t[c].to_numpy().astype(np.int64) for c in ("df", "ttf")}
    vals[col][3] = 2 ** 60
    vals["ttf"][3] = max(vals["ttf"][3], vals["df"][3])
    for c in ("df", "ttf"):
        t = t.set_column(t.column_names.index(c), c, pa.array(vals[c]))
    pq.write_table(t, path)
    with pytest.raises(IndexError):
        merge_segments(idx, [0, 1], 900)
