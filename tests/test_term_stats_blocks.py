"""Global term stats read as 4096-term blocks: ``IndexReader.term_stats``
locates a term's row group from the shard footer and reads only that
block. Every layout must answer exactly what the per-segment
aggregation says (the stats the whole-shard read used to return)."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_kmp_ray.index.builder import (_agg_term_tables,
                                          _read_seg_term_stats,
                                          _reduce_term_shard, commit_index)
from lucene_kmp_ray.index.check import check_term_stats_blocks
from lucene_kmp_ray.index.format import (TERMS_ROW_GROUP,
                                         build_and_write_segment)
from lucene_kmp_ray.index.parallel import ParallelReader
from lucene_kmp_ray.index.reader import IndexReader, MultiReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   Searcher, TermQuery)

SHARD = os.path.join("term_stats", "shard=0000.parquet")


def _words(rng, n):
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return ["".join(rng.choice(letters, size=rng.integers(5, 9)))
            for _ in range(n)]


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    """Two segments, ~8k distinct text terms (two stats blocks plus a
    partial one) and a title field of its own blocks."""
    rng = np.random.default_rng(7)
    vocab = _words(rng, 12_000)
    root = str(tmp_path_factory.mktemp("blocks") / "idx")
    mans = []
    for seg in range(2):
        n = 300
        texts = [" ".join(rng.choice(vocab, size=40)) for _ in range(n)]
        titles = [" ".join(rng.choice(vocab[:3000], size=3))
                  for _ in range(n)]
        docs = pa.table({
            "doc_id": pa.array(range(seg * n, seg * n + n), pa.int64()),
            "url": [f"u{seg * n + i}" for i in range(n)],
            "text": texts, "title": titles})
        mans.append(build_and_write_segment(docs, seg, root,
                                            fields=("text", "title")))
    commit_index(root, mans)
    return root


@pytest.fixture(scope="module")
def truth(idx):
    """(field, term) → (df, ttf) summed over the segments."""
    with open(os.path.join(idx, "manifest.json")) as f:
        segs = [m["seg"] for m in json.load(f)["segments"]]
    t = _agg_term_tables([_read_seg_term_stats(idx, s) for s in segs]) \
        .sort_by([("field", "ascending"), ("term", "ascending")])
    return t


def _terms(truth, field):
    t = truth.filter(pa.compute.equal(truth["field"], field))
    return t["term"].to_pylist(), dict(zip(
        t["term"].to_pylist(), zip(t["df"].to_pylist(),
                                   t["ttf"].to_pylist())))


def _block_edges(path):
    """(field, first term, last term) per row group of a stats file."""
    pf = pq.ParquetFile(path)
    out = []
    for g in range(pf.metadata.num_row_groups):
        t = pf.read_row_group(g, columns=["field", "term"])
        out.append((t["field"][0].as_py(), t["term"][0].as_py(),
                    t["term"][-1].as_py()))
    return out


def test_blocks_are_field_aligned(idx, truth):
    pf = pq.ParquetFile(os.path.join(idx, SHARD))
    md = pf.metadata
    assert md.num_row_groups >= 3
    for g in range(md.num_row_groups):
        t = pf.read_row_group(g, columns=["field"])
        assert len(set(t["field"].to_pylist())) == 1
        assert md.row_group(g).num_rows <= TERMS_ROW_GROUP
        st = md.row_group(g).column(1).statistics
        assert st.has_min_max
    fields = [f for f, _, _ in _block_edges(os.path.join(idx, SHARD))]
    assert fields == sorted(fields) and set(fields) == {"text", "title"}
    assert check_term_stats_blocks(idx) == []


def test_block_edges_and_gaps(idx, truth):
    text, want = _terms(truth, "text")
    edges = [e for e in _block_edges(os.path.join(idx, SHARD))
             if e[0] == "text"]
    assert len(edges) >= 2
    probes = [t for _, lo, hi in edges for t in (lo, hi)]
    r = IndexReader(idx)
    for term in probes:  # one lookup per term: fresh block each time
        assert r.term_stats([term]) == {term: want[term]}
    # between two blocks, before the first, past the last block
    gap = edges[0][2] + "a"
    assert gap not in want and gap < edges[1][1]
    for term in (gap, "", edges[-1][2] + "z", "zzzzzzzzzz"):
        assert IndexReader(idx).term_stats([term]) == {term: (0, 0)}


def test_fields_do_not_leak(idx, truth):
    text, want_text = _terms(truth, "text")
    titles, want_title = _terms(truth, "title")
    r = IndexReader(idx)
    only_text = [t for t in text if t not in want_title][:50]
    assert r.term_stats(only_text, "title") == {t: (0, 0)
                                                for t in only_text}
    got = r.term_stats(titles[:: 97], "title")
    assert got == {t: want_title[t] for t in titles[:: 97]}
    assert r.term_stats(["nosuchfield"], "body") == {"nosuchfield": (0, 0)}


def test_batch_reads_each_block_once(idx, truth, monkeypatch):
    text, want = _terms(truth, "text")
    batch = text[:: 37]  # spans every text block, many terms per block
    n_text_blocks = sum(1 for e in _block_edges(os.path.join(idx, SHARD))
                        if e[0] == "text")
    calls = []
    real = pq.ParquetFile.read_row_group

    def counting(self, i, *a, **kw):
        calls.append(i)
        return real(self, i, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    r = IndexReader(idx)
    assert r.term_stats(batch) == {t: want[t] for t in batch}
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == n_text_blocks
    calls.clear()
    assert r.term_stats(batch) == {t: want[t] for t in batch}
    assert calls == []  # resolved once per reader


@pytest.mark.parametrize("layout", ["one_group", "no_stats", "legacy_file",
                                    "legacy_no_field"])
def test_old_layouts(idx, truth, tmp_path, layout):
    work = str(tmp_path / layout)
    shutil.copytree(idx, work)
    t = pq.read_table(os.path.join(work, SHARD))
    if layout == "one_group":  # shard written whole, one row group
        pq.write_table(t, os.path.join(work, SHARD))
        assert any("spans fields" in e
                   for e in check_term_stats_blocks(work))
    elif layout == "no_stats":  # groups across fields, no footer stats
        pq.write_table(t, os.path.join(work, SHARD), row_group_size=3000,
                       write_statistics=False)
        assert any("no min/max" in e for e in check_term_stats_blocks(work))
    else:  # the single term_stats.parquet of old manifests
        shutil.rmtree(os.path.join(work, "term_stats"))
        man_path = os.path.join(work, "manifest.json")
        with open(man_path) as f:
            man = json.load(f)
        man.pop("term_stats_shards")
        with open(man_path, "w") as f:
            json.dump(man, f)
        if layout == "legacy_no_field":
            t = t.filter(pa.compute.equal(t["field"], "text")) \
                .drop_columns(["field"])
        pq.write_table(t, os.path.join(work, "term_stats.parquet"))
    text, want = _terms(truth, "text")
    r = IndexReader(work)
    probe = text[:: 41] + ["zzzzzzzzzz", "a"]
    assert r.term_stats(probe) == {t: want.get(t, (0, 0)) for t in probe}
    titles, want_title = _terms(truth, "title")
    expect = {t: want_title[t] for t in titles[:: 53]} \
        if layout != "legacy_no_field" else \
        {t: (0, 0) for t in titles[:: 53]}
    assert r.term_stats(titles[:: 53], "title") == expect


def test_writer_rewrites_field_aligned(idx, truth, tmp_path):
    """The reducer writes any (field, term)-sorted table as blocks; a
    field run longer than a block splits, a short one is its own block."""
    work = str(tmp_path / "rw")
    os.makedirs(os.path.join(work, "term_stats"))
    part = truth.slice(0, TERMS_ROW_GROUP + 5)
    _reduce_term_shard(0, work, True, part,
                       truth.slice(TERMS_ROW_GROUP + 5))
    t = pq.read_table(os.path.join(work, SHARD))
    assert t.equals(truth)
    assert check_term_stats_blocks(work) == []


def test_term_past_footer_stats_limit(idx, tmp_path):
    """Arrow drops a footer bound over 4096 bytes; the block holding such
    a term is read to find its edges instead of being skipped."""
    work = str(tmp_path / "long")
    shutil.copytree(idx, work)
    long_last, long_first = "m" * 5000, "0" * 5000
    t = pa.table({"field": ["text", "text", "text", "title"],
                  "term": [long_first, "kiwi", long_last, "kiwi"],
                  "df": [1, 2, 3, 4], "ttf": [5, 6, 7, 8]})
    _reduce_term_shard(0, work, True, t)
    r = IndexReader(work)
    assert r.term_stats([long_last, "kiwi", long_first, "zz", "a"]) == {
        long_last: (3, 7), "kiwi": (2, 6), long_first: (1, 5),
        "zz": (0, 0), "a": (0, 0)}
    assert r.term_stats(["kiwi"], "title") == {"kiwi": (4, 8)}
    assert check_term_stats_blocks(work) == []


def _hits(searcher, q, k=30):
    td = searcher.search(q, k=k)
    return [(h.doc_id, np.float32(h.score)) for h in td.score_docs]


def _queries(truth):
    text, _ = _terms(truth, "text")
    titles, _ = _terms(truth, "title")
    a, b, c = text[0], text[len(text) // 2], text[-1]
    return {
        "first": TermQuery(a), "last": TermQuery(c),
        "title": TermQuery(titles[-1], field="title"),
        "or": BooleanQuery.build((Occur.SHOULD, TermQuery(a)),
                                 (Occur.SHOULD, TermQuery(b)),
                                 (Occur.SHOULD, TermQuery(c))),
        "and": BooleanQuery.build((Occur.MUST, TermQuery(b)),
                                  (Occur.SHOULD, TermQuery(c))),
        "phrase": PhraseQuery((a, b)),
    }


def test_composite_readers_score_like_searcher(idx, truth):
    base = Searcher(IndexReader(idx))
    for name, q in _queries(truth).items():
        want = _hits(base, q)
        assert _hits(Searcher(MultiReader.open([idx])), q) == want, name
        assert _hits(Searcher(ParallelReader.open([idx])), q) == want, name


def test_pool_slices_score_like_searcher(idx, truth, ray_session):
    from lucene_kmp_ray.search.ray_search import SearcherPool

    qs = _queries(truth)
    base = Searcher(IndexReader(idx))
    pool = SearcherPool(idx, num_actors=2)
    try:
        got = pool.search(qs, k=30)
    finally:
        pool.shutdown()
    for name, q in qs.items():
        want = _hits(base, q)
        g = got[got["query_id"] == name].sort_values("rank")
        assert g["doc_id"].tolist() == [d for d, _ in want], name
        np.testing.assert_allclose(g["score"].to_numpy(np.float32),
                                   [s for _, s in want], rtol=1e-6)
