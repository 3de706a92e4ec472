"""Global term stats summed from the segment dictionaries:
``IndexReader.term_stats`` adds each term's df/ttf over every segment of
the pinned manifest (the TermStates role). Every case must answer exactly
what the whole-index aggregation ``global_term_stats`` says."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from test_postings_file import _to_old_layout

from lucene_kmp_ray.analysis.core import KeywordAnalyzer
from lucene_kmp_ray.index.builder import commit_index, global_term_stats
from lucene_kmp_ray.index.check import check_index
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.index.parallel import ParallelReader
from lucene_kmp_ray.index.postings import TERMS_FILE, read_terms_table
from lucene_kmp_ray.index.reader import IndexReader, MultiReader, SegmentReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   Searcher, TermQuery)


def _words(rng, n):
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    return ["".join(rng.choice(letters, size=rng.integers(5, 9)))
            for _ in range(n)]


def _build(root, fields=("text", "title"), n_segs=2, seed=7):
    """Segments of 300 docs over a 12k-word vocabulary (most words in
    one segment only) and a title field drawn from its first 3k."""
    rng = np.random.default_rng(seed)
    vocab = _words(rng, 12_000)
    mans = []
    for seg in range(n_segs):
        n = 300
        cols = {"text": [" ".join(rng.choice(vocab, size=40))
                         for _ in range(n)],
                "title": [" ".join(rng.choice(vocab[:3000], size=3))
                          for _ in range(n)]}
        docs = pa.table({
            "doc_id": pa.array(range(seg * n, seg * n + n), pa.int64()),
            "url": [f"u{seg * n + i}" for i in range(n)],
            **{f: cols[f] for f in fields}})
        mans.append(build_and_write_segment(docs, seg, root, fields=fields))
    commit_index(root, mans)
    return root


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    return _build(str(tmp_path_factory.mktemp("stats") / "idx"))


@pytest.fixture(scope="module")
def truth(idx):
    return global_term_stats(idx)


def _terms(truth, field):
    t = truth.filter(pc.equal(truth["field"], field))
    return t["term"].to_pylist(), dict(zip(
        t["term"].to_pylist(), zip(t["df"].to_pylist(),
                                   t["ttf"].to_pylist())))


def _seg_stats(root, seg, field="text"):
    t = read_terms_table(os.path.join(root, "segments", f"seg={seg:05d}"),
                         columns=())
    if "field" in t.column_names:
        t = t.filter(pc.equal(t["field"], field))
    return dict(zip(t["term"].to_pylist(),
                    zip(t["df"].to_pylist(), t["ttf"].to_pylist())))


def test_one_segment_and_absent_terms(idx, truth):
    _, want = _terms(truth, "text")
    s0, s1 = _seg_stats(idx, 0), _seg_stats(idx, 1)
    only0 = [t for t in s0 if t not in s1][:: 29]
    only1 = [t for t in s1 if t not in s0][:: 29]
    both = [t for t in s0 if t in s1][:: 29]
    assert only0 and only1 and both
    r = IndexReader(idx)
    for term in only0 + only1:  # one lookup per term
        assert r.term_stats([term]) == {term: want[term]}
        assert want[term] == (s0 if term in s0 else s1)[term]
    for term in both:
        assert want[term] == tuple(a + b for a, b in zip(s0[term], s1[term]))
    assert r.term_stats(both) == {t: want[t] for t in both}
    absent = [min(want) + "a", "", "zzzzzzzzzz", "a"]
    assert not set(absent) & set(want)
    assert IndexReader(idx).term_stats(absent) == {t: (0, 0) for t in absent}


def test_fields_do_not_leak(idx, truth):
    text, want_text = _terms(truth, "text")
    titles, want_title = _terms(truth, "title")
    r = IndexReader(idx)
    only_text = [t for t in text if t not in want_title][:50]
    assert r.term_stats(only_text, "title") == {t: (0, 0)
                                                for t in only_text}
    got = r.term_stats(titles[:: 97], "title")
    assert got == {t: want_title[t] for t in titles[:: 97]}
    assert r.term_stats(titles[:: 97]) == {t: want_text.get(t, (0, 0))
                                           for t in titles[:: 97]}
    assert r.term_stats(["nosuchfield"], "body") == {"nosuchfield": (0, 0)}


def test_batch_resolves_once_and_term_row_reuses_ordinals(idx, truth,
                                                          monkeypatch):
    """Each (segment, term) is binary-searched once: by the stats call,
    and never again by the scorer's ``term_row``."""
    text, want = _terms(truth, "text")
    batch = text[:: 37] + ["zzzzzzzzzz"]
    calls = []
    real = SegmentReader.term_index

    def counting(self, term, field="text"):
        calls.append((self.seg, field, term))
        return real(self, term, field)

    monkeypatch.setattr(SegmentReader, "term_index", counting)
    r = IndexReader(idx)
    assert r.term_stats(batch) == {t: want.get(t, (0, 0)) for t in batch}
    assert sorted(calls) == sorted({(s, "text", t)
                                    for s in (0, 1) for t in batch})
    calls.clear()
    assert r.term_stats(batch) == {t: want.get(t, (0, 0)) for t in batch}
    for sr in r.segment_readers:
        for t in batch:
            row = sr.term_row(t)
            assert (row is None) == (sr.term_ord(t) is None)
    assert calls == []  # resolved once per reader


@pytest.mark.parametrize("layout", ["dir", "file"])
def test_old_term_stats_ignored_and_removed(idx, truth, tmp_path, layout):
    """Stats files older commits wrote are never read (these hold wrong
    figures) and the next commit deletes them."""
    work = str(tmp_path / layout)
    shutil.copytree(idx, work)
    bogus = truth.set_column(2, "df", pc.add(truth["df"], 1000))
    if layout == "dir":
        path = os.path.join(work, "term_stats", "shard=0000.parquet")
        os.makedirs(os.path.dirname(path))
    else:
        path = os.path.join(work, "term_stats.parquet")
    pq.write_table(bogus, path)
    man_path = os.path.join(work, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    if layout == "dir":
        man["term_stats_shards"] = 1
        with open(man_path, "w") as f:
            json.dump(man, f)
    text, want = _terms(truth, "text")
    probe = text[:: 41] + ["zzzzzzzzzz"]
    assert IndexReader(work).term_stats(probe) == {t: want.get(t, (0, 0))
                                                   for t in probe}
    assert check_index(work, parallel=False)["ok"]
    mans = []
    for m in man["segments"]:
        with open(os.path.join(work, m["dir"], "manifest.json")) as f:
            mans.append(json.load(f))
    new = commit_index(work, mans)
    assert not os.path.exists(path)
    assert not os.path.exists(os.path.join(work, "term_stats"))
    assert "term_stats_shards" not in new
    assert global_term_stats(work).equals(truth)


def test_old_layout_segment_without_field_column(tmp_path):
    root = _build(str(tmp_path / "idx"), fields=("text",))
    want = global_term_stats(root)
    terms = want["term"].to_pylist()[:: 23] + ["zzzzzzzzzz"]
    before = IndexReader(root).term_stats(terms)
    seg0 = os.path.join(root, "segments", "seg=00000")
    _to_old_layout(seg0)
    path = os.path.join(seg0, TERMS_FILE)
    pq.write_table(pq.read_table(path).drop_columns(["field"]), path)
    assert "field" not in read_terms_table(seg0).column_names
    assert IndexReader(root).term_stats(terms) == before
    assert global_term_stats(root).equals(want)


def test_term_longer_than_4096_bytes(tmp_path):
    root = str(tmp_path / "long")
    long_first, long_last = "0" * 5000, "m" * 5000
    texts = [[long_first, "kiwi", long_last, long_last], [long_last, "kiwi"]]
    mans = []
    for seg, ts in enumerate(texts):
        ids = range(10 * seg, 10 * seg + len(ts))
        mans.append(build_and_write_segment(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url": [f"u{i}" for i in ids], "text": ts}), seg, root,
            analyzer=KeywordAnalyzer()))
    commit_index(root, mans)
    r = IndexReader(root)
    assert r.term_stats([long_last, "kiwi", long_first, "zz", "a"]) == {
        long_last: (3, 3), "kiwi": (2, 2), long_first: (1, 1),
        "zz": (0, 0), "a": (0, 0)}
    assert r.term_stats([long_last], "title") == {long_last: (0, 0)}


def test_stats_equal_global_term_stats(built_index):
    """Every (field, term) of the 5-segment sf0.001 index; a built index
    carries no global stats files."""
    assert not os.path.exists(os.path.join(built_index, "term_stats"))
    with open(os.path.join(built_index, "manifest.json")) as f:
        man = json.load(f)
    assert len(man["segments"]) == 5 and "term_stats_shards" not in man
    truth = global_term_stats(built_index)
    assert set(truth["field"].to_pylist()) == {"text", "title"}
    r = IndexReader(built_index)
    for field in ("text", "title"):
        terms, want = _terms(truth, field)
        assert r.term_stats(terms, field) == want


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
    """Each actor searches one segment but scores with the stats of
    both."""
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
