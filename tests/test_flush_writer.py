"""The flush's postings writer against its byte reference: the files
``build_and_write_segment`` writes (through ``cfor.write_postings``)
must equal those of the numpy logical-table writer of
tests/_ref_postings.py, split by ``split_postings`` and stored with
``write_postings``."""

import _ref_postings as refp
import numpy as np
import pyarrow as pa
import pytest

from lucene_kmp_ray.index import postings as pf
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.util import forutil as fu
from lucene_kmp_ray.util.cfor import write_postings

FIELDS = ("text", "title")
SORT = (("rank", True),)


def _docs(n=400, seed=29):
    """Two fields (``title`` empty in every third doc), a sort key, a
    Zipf vocabulary (df = 1 and ttf == df terms), an ``every`` term in
    all docs (more than one block) whose freqs and first positions carry
    a few outliers (PFor exceptions)."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i:04d}" for i in range(2000)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts, titles = [], []
    for i in range(n):
        words = list(rng.choice(vocab, int(rng.integers(1, 40)), p=p))
        lead = ["pad"] * 200 if i % 97 == 5 else []   # a far first position
        reps = ["every"] * 60 if i % 89 == 3 else ["every"]  # a big freq
        texts.append(" ".join(lead + reps + words))
        titles.append("" if i % 3 == 0 else
                      " ".join(rng.choice(vocab[:100], 3)))
    return pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                     "url": [f"u{i}" for i in range(n)],
                     "text": texts, "title": titles,
                     "rank": pa.array(rng.integers(0, 7, n), pa.int64())})


def _has_exceptions(col, counts) -> bool:
    return any(fu.block_stream_meta(enc, int(c))[1][:, 2].any()
               for enc, c in zip(col.to_pylist(), counts) if c)


def test_flush_files_equal_reference(tmp_path):
    docs = _docs()
    man = build_and_write_segment(docs, 0, str(tmp_path / "engine"),
                                  fields=FIELDS, meta_cols=("rank",),
                                  index_sort=SORT)
    got = tmp_path / "engine" / "segments" / "seg=00000"
    want = tmp_path / "reference"
    want.mkdir()
    pf.write_postings(str(want), *refp.flush_postings(
        docs, fields=FIELDS, index_sort=SORT))
    for name in (pf.TERMS_FILE, pf.DOC_FILE, pf.POS_FILE):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name

    # the input has every shape the record layout tells apart
    t = refp.logical_segment(docs, fields=FIELDS, index_sort=SORT)
    df, ttf = t["df"].to_numpy(), t["ttf"].to_numpy()
    assert (df == 1).any() and ((ttf == df) & (df > 1)).any()
    assert (df > fu.BLOCK_SIZE).any() and (ttf > df).any()
    assert _has_exceptions(t["freqs_enc"], df)
    assert _has_exceptions(t["pos_enc"], ttf)
    assert 0 < man["fields"]["title"]["doc_count"] < docs.num_rows
    assert man["index_sort"] == [["rank", True]]


def test_write_postings_fuzz_vs_reference():
    """Random terms — tail and multi-block head terms, freq and position
    outliers — through ``write_postings`` and through the reference's
    logical table and ``split_postings``: the same pointers and bytes."""
    rng = np.random.default_rng(31)
    for trial in range(30):
        n_docs = int(rng.integers(1, 600))
        norms = rng.integers(0, 256, n_docs).astype(np.uint8)
        docs, freqs, bounds = [], [], [0]
        for _ in range(int(rng.integers(1, 80))):
            df = int(rng.integers(1, n_docs + 1)) if rng.random() < 0.1 \
                else int(rng.integers(1, min(n_docs, 4) + 1))
            docs.append(np.sort(rng.choice(n_docs, df, replace=False)))
            f = rng.integers(1, 4, df)
            f[rng.random(df) < 0.03] = int(rng.integers(50, 400))
            freqs.append(f)
            bounds.append(bounds[-1] + df)
        docs, freqs = np.concatenate(docs), np.concatenate(freqs)
        posd = rng.integers(0, 8, int(freqs.sum()))
        posd[rng.random(len(posd)) < 0.02] = int(rng.integers(256, 1 << 20))
        bounds = np.array(bounds)
        pos_bounds = np.append(0, np.cumsum(freqs))
        logical = refp.encode_term_table_arrays(
            np.array([f"t{i:03d}" for i in range(len(bounds) - 1)],
                     dtype=object),
            docs, freqs, posd, bounds[:-1], bounds[1:], pos_bounds, norms)
        dictionary, want_doc, want_pos = refp.split_postings(logical)
        stats, doc, pos = write_postings(bounds, docs, freqs, posd, norms)
        for k, c in enumerate(("df", "ttf", "doc_ptr", "pos_ptr")):
            assert np.array_equal(stats[k], dictionary[c].to_numpy()), \
                (trial, c)
        assert doc.tobytes() == want_doc.to_pybytes(), trial
        assert pos.tobytes() == want_pos.to_pybytes(), trial


def test_write_postings_checks_its_input():
    norms = np.ones(4, np.uint8)
    args = (np.array([0, 2]), np.array([1, 3]), np.array([1, 2]))
    assert write_postings(*args, np.zeros(3, np.int64), norms)[0][1, 0] == 3
    with pytest.raises(ValueError):  # positions disagree with the freqs
        write_postings(*args, np.zeros(2, np.int64), norms)
    with pytest.raises(ValueError):  # bounds past the entries
        write_postings(np.array([0, 3]), *args[1:],
                       np.zeros(3, np.int64), norms)
    with pytest.raises(IndexError):  # a doc past the norms
        write_postings(*args, np.zeros(3, np.int64), norms[:3])
