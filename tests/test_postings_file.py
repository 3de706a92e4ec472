"""Flat postings files reached through dictionary pointers: a term row
is one positioned read of its ``postings.doc`` record (plus one of its
``postings.pos`` record only for positions), and every reader surface
answers exactly what the logical terms table — the inverter's entries
through the reference writer of tests/_ref_postings.py — says."""

import os
import shutil

import _ref_postings as refp
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_kmp_ray.index import postings as pf
from lucene_kmp_ray.index.builder import commit_index
from lucene_kmp_ray.index.check import check_index
from lucene_kmp_ray.index.format import (build_and_write_segment,
                                         decode_postings)
from lucene_kmp_ray.index.parallel import ParallelReader
from lucene_kmp_ray.index.reader import IndexReader, MultiReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   PrefixQuery, Searcher, TermQuery)
from lucene_kmp_ray.util import forutil as fu

FIELDS = ("text", "title")
N_DOCS = 300  # per segment: the "every" term spans three 128-doc blocks


def _docs(seg, rng):
    vocab = [f"w{i:04d}" for i in range(1500)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts = [" ".join(["every"] + list(rng.choice(vocab, 30, p=p)))
             for _ in range(N_DOCS)]
    titles = [" ".join(rng.choice(vocab[:200], 3)) for _ in range(N_DOCS)]
    base = seg * N_DOCS
    return pa.table({"doc_id": pa.array(range(base, base + N_DOCS),
                                        pa.int64()),
                     "url": [f"u{base + i}" for i in range(N_DOCS)],
                     "text": texts, "title": titles})


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """(index dir, {seg: logical terms table from the reference
    writer})."""
    rng = np.random.default_rng(11)
    root = str(tmp_path_factory.mktemp("postings") / "idx")
    mans, truth = [], {}
    for seg in range(2):
        docs = _docs(seg, rng)
        truth[seg] = refp.logical_segment(docs, fields=FIELDS)
        mans.append(build_and_write_segment(docs, seg, root, fields=FIELDS))
    commit_index(root, mans)
    return root, truth


def _seg_dir(root, seg):
    return os.path.join(root, "segments", f"seg={seg:05d}")


def _row(t, i):
    return {c: t[c][i].as_py() for c in t.column_names
            if c not in ("field", "term")}


def _picks(t, field):
    """Rows worth probing in one field: first, last, a df = 1 term, a
    ttf == df > 1 term, a ttf > df term and the multi-block term."""
    f = np.asarray(t["field"].to_pylist())
    rows = np.flatnonzero(f == field)
    df = t["df"].to_numpy()[rows]
    ttf = t["ttf"].to_numpy()[rows]
    picks = {"first": rows[0], "last": rows[-1],
             "df1": rows[np.flatnonzero(df == 1)[0]],
             "ttf_gt_df": rows[np.flatnonzero(ttf > df)[0]]}
    same = np.flatnonzero((ttf == df) & (df > 1))
    if len(same):
        picks["ttf_eq_df"] = rows[same[0]]
    if df.max() > fu.BLOCK_SIZE:
        picks["multi_block"] = rows[int(np.argmax(df))]
    return {k: int(v) for k, v in picks.items()}


def test_layout_on_disk(built):
    root, truth = built
    for seg in truth:
        d = _seg_dir(root, seg)
        names = pq.read_schema(os.path.join(d, pf.TERMS_FILE)).names
        assert names == ["field", "term", "df", "ttf", "doc_ptr", "pos_ptr"]
        assert os.path.exists(os.path.join(d, pf.DOC_FILE))
        assert os.path.exists(os.path.join(d, pf.POS_FILE))


def test_rows_match_logical_table(built):
    root, truth = built
    r = IndexReader(root)
    seen = set()
    for sr in r.segment_readers:
        t = truth[sr.seg]
        for field in FIELDS:
            for kind, i in _picks(t, field).items():
                seen.add(kind)
                term = t["term"][i].as_py()
                row = sr.term_row(term, field)
                want = _row(t, i)
                meta = refp.block_meta(row, sr.norms_for(field))
                assert {c: meta[c] if c in meta else row[c]
                        for c in want} == want, (field, kind)
                got = sr.postings(term, positions=True, field=field)
                exp = decode_postings(want["df"], want["ttf"],
                                      want["docs_enc"], want["freqs_enc"],
                                      want["pos_enc"])
                for a, b in zip(got, exp):
                    assert np.array_equal(a, b), (field, kind)
    assert seen == {"first", "last", "df1", "ttf_eq_df", "ttf_gt_df",
                    "multi_block"}


def test_multi_block_metadata_rederives(built):
    root, truth = built
    sr = IndexReader(root).segment_readers[0]
    row = sr.term_row("every")
    assert row["df"] == N_DOCS
    docs, freqs = decode_postings(row["df"], row["ttf"], row["docs_enc"],
                                  row["freqs_enc"])
    norms = sr.norms_for("text")
    meta = refp.block_meta(row, norms)
    starts = np.arange(0, len(docs), fu.BLOCK_SIZE)
    ends = np.minimum(starts + fu.BLOCK_SIZE, len(docs))
    assert meta["block_last_doc"] == docs[ends - 1].tolist()
    assert meta["block_max_freq"] == \
        np.maximum.reduceat(freqs, starts).tolist()
    assert meta["block_min_norm"] == \
        np.minimum.reduceat(norms[docs].astype(np.int64), starts).tolist()


def test_rows_derive_the_inverters_table(built):
    """Every column a ``TermRow`` derives, over every term, equals the
    inverter's logical table."""
    root, truth = built
    for seg, t in truth.items():
        assert refp.logical_table(_seg_dir(root, seg)).equals(t)


def test_ones_stream_is_the_encoders_output():
    for n in (1, 7, 8, 9, 127, 128, 129, 256, 300):
        assert pf.ones_stream(n) == \
            fu.encode_blocks_pfor(np.ones(n, np.int64)), n


def _count_reads(monkeypatch):
    reads = []
    real = pf._Flat.read

    def counting(self, start, end):
        reads.append(os.path.basename(self.path))
        return real(self, start, end)

    monkeypatch.setattr(pf._Flat, "read", counting)
    return reads


def test_one_doc_read_per_miss_no_pos_read(built, monkeypatch):
    root, truth = built
    reads = _count_reads(monkeypatch)
    sr = IndexReader(root).segment_readers[1]
    t = truth[1]
    terms = [t["term"][i].as_py()
             for i in sorted(set(_picks(t, "text").values()))]
    for n, term in enumerate(terms, 1):
        sr.postings(term)
        row = sr.term_row(term)  # a hit: no read
        row["freqs_enc"]  # a key split from the record: no read
        assert reads == [pf.DOC_FILE] * n
    sr.postings(terms[0], positions=True)  # cached row: the .pos record
    assert reads == [pf.DOC_FILE] * len(terms) + [pf.POS_FILE]


def test_union_docs_prefix_and_direct(built):
    root, truth = built
    r = IndexReader(root)
    for sr in r.segment_readers:
        t = truth[sr.seg]
        lo, hi = sr.field_range("text")
        idxs = np.arange(lo, hi, 7)
        want = np.unique(np.concatenate([
            decode_postings(*[t[c][int(i)].as_py() for c in
                              ("df", "ttf", "docs_enc", "freqs_enc")])[0]
            for i in idxs]))
        assert np.array_equal(sr.union_docs(idxs), want)
    queries = [PrefixQuery("w00"), PrefixQuery("w1", field="title"),
               TermQuery("every"), PrefixQuery("w01")]
    want = [_hits(Searcher(r), q) for q in queries]
    direct = IndexReader(root)
    assert direct.load_direct("text") > 0
    assert [_hits(Searcher(direct), q) for q in queries] == want


def _hits(searcher, q, k=25):
    td = searcher.search(q, k=k)
    return td.total_hits, [(h.doc_id, np.float32(h.score))
                           for h in td.score_docs]


def _queries():
    return {"term": TermQuery("w0003"), "every": TermQuery("every"),
            "title": TermQuery("w0001", field="title"),
            "or": BooleanQuery.build((Occur.SHOULD, TermQuery("w0000")),
                                     (Occur.SHOULD, TermQuery("w0400"))),
            "and": BooleanQuery.build((Occur.MUST, TermQuery("every")),
                                      (Occur.MUST, TermQuery("w0002"))),
            "phrase": PhraseQuery(("every", "w0000")),
            "prefix": PrefixQuery("w02")}


def test_composite_readers_score_like_searcher(built):
    root, _ = built
    base = Searcher(IndexReader(root))
    for name, q in _queries().items():
        want = _hits(base, q)
        assert want[0] > 0, name
        assert _hits(Searcher(MultiReader.open([root])), q) == want, name
        assert _hits(Searcher(ParallelReader.open([root])), q) == want, name


def test_pool_slices_score_like_searcher(built, ray_session):
    from lucene_kmp_ray.search.ray_search import SearcherPool

    root, _ = built
    qs = _queries()
    base = Searcher(IndexReader(root))
    pool = SearcherPool(root, num_actors=2)
    try:
        got = pool.search(qs, k=25)
    finally:
        pool.shutdown()
    for name, q in qs.items():
        want = _hits(base, q)[1]
        g = got[got["query_id"] == name].sort_values("rank")
        assert g["doc_id"].tolist() == [d for d, _ in want], name
        np.testing.assert_allclose(g["score"].to_numpy(np.float32),
                                   [s for _, s in want], rtol=1e-6)


@pytest.mark.corrupts_index
def test_old_layout_segments(built, tmp_path, ray_session):
    """A segment stored before the flat files (postings payload in
    ``terms.parquet``), or a dictionary without a ``field`` column, is
    refused by every reader of the dictionary, naming the layout."""
    from lucene_kmp_ray.index.builder import global_term_stats
    from lucene_kmp_ray.index.merge import run_merges

    root, _ = built
    for shape in ("payload_in_dictionary", "no_field_column"):
        work = str(tmp_path / shape)
        shutil.copytree(root, work)
        refp.write_old_layout(_seg_dir(work, 0), shape)
        calls = {"search": lambda: Searcher(IndexReader(work)).search(
                     TermQuery("every"), k=3),
                 "merge": lambda: run_merges(work, [[0, 1]]),
                 "check": lambda: check_index(work, parallel=False),
                 "stats": lambda: global_term_stats(work)}
        for name, call in calls.items():
            with pytest.raises(ValueError, match=refp.OLD_LAYOUT):
                call()


def test_reader_outlives_merged_away_segments(built, tmp_path, ray_session):
    from lucene_kmp_ray.index.merge import run_merges

    root, _ = built
    work = str(tmp_path / "live")
    shutil.copytree(root, work)
    reader = IndexReader(work)
    s = Searcher(reader)
    qs = _queries()
    for field in FIELDS:  # opens every segment's files and docs table
        s.search(TermQuery("w0005", field=field), k=5)
    want = {name: _hits(Searcher(IndexReader(root)), q)
            for name, q in qs.items()}
    run_merges(work, [[0, 1]])
    for sr in reader.segment_readers:
        shutil.rmtree(sr.dir, ignore_errors=True)
        assert not os.path.exists(sr.dir)
    for name, q in qs.items():  # terms never looked up before the delete
        assert _hits(s, q) == want[name], name
