"""The per-segment bulk scorer (``cfor.bulk_score``), the checked
``.doc`` record decoder and the C phrase conjunction against the numpy
path they replace, which runs when no C library is available
(``cfor._CACHED = None``) and stays the reference: equal docs,
bit-equal float32 and float64 scores and equal total hits over random
multi-segment indexes with multi-block terms, PFor-patched freq blocks
and tombstones."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from lucene_kmp_ray.index import format as fmt
from lucene_kmp_ray.index import postings as pf
from lucene_kmp_ray.index import reader as rd
from lucene_kmp_ray.index.builder import commit_index
from lucene_kmp_ray.index.deletes import delete_segment_urls
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (BooleanQuery, Occur, PhraseQuery,
                                   PrefixQuery, Searcher, TermQuery)
from lucene_kmp_ray.search.query import BoostQuery
from lucene_kmp_ray.search.searcher import Weight
from lucene_kmp_ray.similarity import bm25
from lucene_kmp_ray.util import cfor
from lucene_kmp_ray.util import forutil as fu

FIELDS = ("text", "title")
N_DOCS = 300  # per segment: "every" spans three 128-doc blocks
VOCAB = [f"w{i:02d}" for i in range(40)]


def _require_lib():
    if cfor.lib() is None:
        pytest.skip("no C compiler in environment")


def _docs(seg, rng):
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    p /= p.sum()
    texts = []
    for i in range(N_DOCS):
        words = ["every"] + list(rng.choice(VOCAB, int(rng.integers(3, 40)),
                                            p=p))
        # most docs hold "burst" once, a few hundreds of times: its
        # freq blocks need PFor exceptions
        words += ["burst"] * (int(rng.integers(150, 400))
                              if rng.random() < 0.02 else 1)
        texts.append(" ".join(words))
    titles = [" ".join(rng.choice(VOCAB[:12], 3)) for _ in range(N_DOCS)]
    base = seg * N_DOCS
    return pa.table({"doc_id": pa.array(range(base, base + N_DOCS),
                                        pa.int64()),
                     "url": [f"u{base + i}" for i in range(N_DOCS)],
                     "text": texts, "title": titles})


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    rng = np.random.default_rng(7)
    root = str(tmp_path_factory.mktemp("bulk") / "idx")
    mans = [build_and_write_segment(_docs(seg, rng), seg, root,
                                    fields=FIELDS) for seg in range(3)]
    commit_index(root, mans)
    # tombstones in the middle segment
    delete_segment_urls(os.path.join(root, "segments", "seg=00001"),
                        [f"u{N_DOCS + i}" for i in range(0, N_DOCS, 7)])
    return root


class _NoC:
    """Every C kernel of ``util.cfor`` unavailable inside the block."""

    def __enter__(self):
        self.saved = cfor._CACHED, cfor._CACHED_PID
        cfor._CACHED, cfor._CACHED_PID = None, os.getpid()

    def __exit__(self, *exc):
        cfor._CACHED, cfor._CACHED_PID = self.saved


def _leaf(rng):
    if rng.random() < 0.15:
        return TermQuery(str(rng.choice(VOCAB[:12])), "title")
    pool = VOCAB[:25] + ["every", "burst", "absent"]
    return TermQuery(str(rng.choice(pool)))


def _boosted(q, rng):
    return BoostQuery(q, float(rng.choice([0.5, 2.0, 3.7]))) \
        if rng.random() < 0.25 else q


def _random_query(rng):
    if rng.random() < 0.25:
        return _boosted(_leaf(rng), rng)
    occurs = [Occur.MUST, Occur.SHOULD, Occur.FILTER, Occur.MUST_NOT]
    clauses = []
    for _ in range(int(rng.integers(1, 6))):
        occ = occurs[int(rng.choice(4, p=[0.35, 0.4, 0.1, 0.15]))]
        sub = _leaf(rng)
        if occ in (Occur.FILTER, Occur.MUST_NOT) and rng.random() < 0.3:
            sub = PrefixQuery("w0")  # a doc-set clause
        clauses.append((occ, _boosted(sub, rng) if occ in (
            Occur.MUST, Occur.SHOULD) else sub))
    msm = int(rng.choice([0, 0, 1, 2]))
    return _boosted(BooleanQuery(tuple(clauses), msm), rng)


def _phrase(rng):
    """An exact phrase of 2-3 common words, half of them led by
    "every" (first in every doc)."""
    n = int(rng.integers(2, 4))
    if rng.random() < 0.5:
        return PhraseQuery(tuple(str(w) for w in rng.choice(VOCAB[:6], n)))
    return PhraseQuery(("every",) + tuple(
        str(w) for w in rng.choice(VOCAB[:4], n - 1)))


def _per_segment(searcher, q):
    w = Weight(searcher, searcher.rewrite(q))
    return [w.score_segment(sr) for sr in searcher.reader.segment_readers]


def _assert_same(got, want, q):
    for (d1, s1), (d2, s2) in zip(got, want):
        assert np.array_equal(d1, d2), q
        assert s1.dtype == s2.dtype, q
        u = np.uint32 if s1.dtype == np.float32 else np.uint64
        assert np.array_equal(s1.view(u), s2.view(u)), q


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_kernel_equals_numpy_path(index, dtype):
    _require_lib()
    root = index
    rng = np.random.default_rng({"float32": 1, "float64": 2}[dtype])
    queries = [_random_query(rng) for _ in range(150)]
    queries += [_phrase(rng) for _ in range(40)]
    sim = bm25.BM25Similarity(dtype=dtype)
    with _NoC():
        ref = Searcher(IndexReader(root), sim)
        want = [(_per_segment(ref, q), ref.search(q, k=20)) for q in queries]
    fast = Searcher(IndexReader(root), sim)
    bulk = 0
    for q, (want_segs, want_td) in zip(queries, want):
        bulk += Weight(fast, fast.rewrite(q))._plan is not None
        _assert_same(_per_segment(fast, q), want_segs, q)
        td = fast.search(q, k=20)
        assert td.total_hits == want_td.total_hits, q
        assert [(h.seg, h.doc, h.score, h.doc_id, h.url)
                for h in td.score_docs] == \
            [(h.seg, h.doc, h.score, h.doc_id, h.url)
             for h in want_td.score_docs], q
    assert bulk >= 100  # most of the random queries took the kernel


def _record(rng, df, has_freqs, pfor_docs):
    docs = np.cumsum(rng.integers(1, rng.choice([3, 300, 1 << 20]), df))
    deltas = np.diff(docs, prepend=0)
    enc = fu.encode_blocks_pfor if pfor_docs else fu.encode_blocks
    docs_enc = enc(deltas.astype(np.int64))
    freqs = np.ones(df, np.int64)
    if has_freqs:
        freqs = rng.integers(1, 5, df)
        out = rng.random(df) < 0.03
        freqs[out] = rng.integers(1 << 8, 1 << 14, int(out.sum()))
    freqs_enc = fu.encode_blocks_pfor(freqs.astype(np.int64))
    nb = (df + fu.BLOCK_SIZE - 1) // fu.BLOCK_SIZE
    meta = rng.integers(0, 256, 12 * nb if nb > 1 else 0,
                        dtype=np.uint8).tobytes()
    rec = docs_enc + (freqs_enc if has_freqs else b"") + meta
    return rec, len(rec) - len(meta), docs_enc, freqs_enc


def test_record_decoder_fuzz():
    _require_lib()
    rng = np.random.default_rng(5)
    for trial in range(400):
        df = int(rng.integers(1, 700))
        has = bool(rng.random() < 0.7)
        rec, payload, docs_enc, freqs_enc = _record(rng, df, has,
                                                    trial % 2 == 1)
        ttf = df + 1 if has else df
        want = fmt.decode_postings(df, ttf, docs_enc,
                                   freqs_enc if has else pf.ones_stream(df))
        docs, freqs, dl = cfor.decode_record(pa.py_buffer(rec), payload, df,
                                             has)
        assert dl == len(docs_enc)
        assert np.array_equal(docs, want[0]), trial
        assert np.array_equal(freqs, want[1]), trial


def test_truncated_record_raises():
    _require_lib()
    rng = np.random.default_rng(9)
    for _ in range(60):
        df = int(rng.integers(1, 400))
        rec, payload, docs_enc, _ = _record(rng, df, bool(rng.random() <
                                                           0.5), False)
        for cut in sorted({0, 1, payload // 2, payload - 1}):
            with pytest.raises(IndexError):
                cfor.decode_record(pa.py_buffer(rec[:cut]), cut, df, True)
        with pytest.raises(IndexError):  # the merge's bulk decode
            cfor.decode_streams_at(np.frombuffer(docs_enc[:-1], np.uint8),
                                   [0], [df])


def test_doc_past_norms_raises():
    """A posting whose doc lies past its field's norms raises, as the
    numpy path's ``norms[docs]`` does, for MUST and SHOULD clauses."""
    _require_lib()
    rng = np.random.default_rng(3)
    rec, payload, _, _ = _record(rng, 50, True, False)
    sc = bm25.BM25Similarity().scorer(1.0, 100, 1000, [50], [80])
    norms = np.zeros(10, np.uint8)  # fewer docs than the postings name
    for must in (True, False):
        with pytest.raises(IndexError):
            cfor.bulk_score([(pa.py_buffer(rec), payload, 50, True, must,
                              sc.cache, norms)], [float(sc.weight)], [], [],
                            0, np.float32, 50)


def test_truncated_postings_file_raises(index, tmp_path):
    _require_lib()
    root = index
    work = str(tmp_path / "cut")
    shutil.copytree(root, work)
    seg_dir = os.path.join(work, "segments", "seg=00000")
    path = os.path.join(seg_dir, pf.DOC_FILE)
    size = os.path.getsize(path)
    sr = IndexReader(root).segment_readers[0]
    last = sr.term_at(len(sr.postings_file) - 1)  # a "title" term
    with open(path, "r+b") as f:
        f.truncate(size - 1)  # the last record loses its last byte
    s = Searcher(IndexReader(work))
    with pytest.raises(IndexError):
        s.search(TermQuery(last, "title"), k=5)
    with open(path, "r+b") as f:
        f.truncate(size // 2)  # later records lie past the end
    s = Searcher(IndexReader(work))
    with pytest.raises(IndexError):
        s.search(BooleanQuery.build((Occur.SHOULD, TermQuery("w30")),
                                    (Occur.SHOULD, TermQuery("w31"))), k=5)


def test_one_scorer_per_leaf_per_search(index, monkeypatch):
    root = index
    built = []
    real = bm25.BM25Scorer.__init__

    def counting(self, *a, **k):
        built.append(1)
        real(self, *a, **k)

    monkeypatch.setattr(bm25.BM25Scorer, "__init__", counting)
    s = Searcher(IndexReader(root))
    assert len(s.reader.segment_readers) == 3
    cases = [
        (BooleanQuery.build((Occur.MUST, TermQuery("every")),
                            (Occur.SHOULD, TermQuery("w01")),
                            (Occur.SHOULD, TermQuery("w02"))), 3),
        (PhraseQuery(("every", "w00")), 1),
        (BooleanQuery.build((Occur.MUST, PhraseQuery(("every", "w00"))),
                            (Occur.SHOULD, TermQuery("w01"))), 2),
    ]
    for q, leaves in cases:
        built.clear()
        assert s.search(q, k=5).total_hits > 0
        assert len(built) == leaves, q


def test_no_numpy_decode_on_the_query_path(index, monkeypatch):
    """Term, boolean and phrase queries decode docs and freqs through the
    C record decoder only."""
    _require_lib()
    root = index
    calls = []

    def spy(name, fn):
        def wrapped(*a, **k):
            calls.append(name)
            return fn(*a, **k)
        return wrapped

    monkeypatch.setattr(rd, "decode_postings",
                        spy("decode_postings", rd.decode_postings))
    monkeypatch.setattr(pf, "stream_nbytes",
                        spy("stream_nbytes", pf.stream_nbytes))
    monkeypatch.setattr(fu, "decode_blocks",
                        spy("decode_blocks", fu.decode_blocks))
    s = Searcher(IndexReader(root))
    for q in (TermQuery("w03"), BoostQuery(TermQuery("every"), 2.0),
              BooleanQuery.build((Occur.MUST, TermQuery("every")),
                                 (Occur.MUST, TermQuery("w01"))),
              BooleanQuery.build((Occur.SHOULD, TermQuery("w01")),
                                 (Occur.SHOULD, TermQuery("burst")),
                                 (Occur.MUST_NOT, TermQuery("w02"))),
              PhraseQuery(("every", "w00")),
              PhraseQuery(("w00", "w01", "w00"))):
        assert s.search(q, k=5).total_hits > 0, q
    assert calls == []
