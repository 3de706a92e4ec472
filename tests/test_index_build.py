"""Segment inversion, encoding round-trips, Ray build, resume, CheckIndex."""
import json
import os
import random

import _ref_postings as refp
import numpy as np
import pytest

from lucene_kmp_ray.analysis import tokenize
from lucene_kmp_ray.index.format import decode_postings, invert_segment
from lucene_kmp_ray.sources.corpus import corpus_table
from lucene_kmp_ray.util.smallfloat import int_to_byte4

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def inverted(corpus_texts):
    """The logical terms table of the reference writer (tests/
    _ref_postings.py) over the inverter's entries, and the engine's docs
    table and manifest."""
    docs = corpus_table(SF).select(["doc_id", "url", "text"])
    _, docs_t, man = invert_segment(docs, 0)
    return refp.logical_segment(docs), docs_t, man


def _brute_index(texts):
    inv = {}
    for d, txt in enumerate(texts):
        for pos, t in enumerate(tokenize(txt)):
            inv.setdefault(t, {}).setdefault(d, []).append(pos)
    return inv


def test_invert_matches_bruteforce(inverted, corpus_texts):
    terms_t, docs_t, man = inverted
    inv = _brute_index(corpus_texts)
    assert sorted(inv.keys()) == terms_t["term"].to_pylist()  # term sort order
    tt = terms_t.to_pydict()
    random.seed(0)
    idxs = random.sample(range(terms_t.num_rows), min(60, terms_t.num_rows))
    for i in idxs:
        term = tt["term"][i]
        d, f, p = decode_postings(tt["df"][i], tt["ttf"][i], tt["docs_enc"][i],
                                  tt["freqs_enc"][i], tt["pos_enc"][i])
        exp = inv[term]
        assert list(d) == sorted(exp)
        assert list(f) == [len(exp[x]) for x in sorted(exp)]
        assert list(p) == [pos for x in sorted(exp) for pos in exp[x]]


def test_norms_and_stats(inverted, corpus_texts):
    terms_t, docs_t, man = inverted
    lens = [len(tokenize(t)) for t in corpus_texts]
    assert docs_t["length"].to_pylist() == lens
    assert docs_t["norm"].to_pylist() == [int_to_byte4(l) for l in lens]
    assert man["doc_count"] == len(corpus_texts)
    assert man["sum_total_term_freq"] == sum(lens)
    inv = _brute_index(corpus_texts)
    assert man["sum_doc_freq"] == sum(len(v) for v in inv.values())
    assert man["unique_terms"] == len(inv)


def test_block_impacts(inverted):
    """Skip/impact metadata: per 128-doc block last doc, max freq, min norm."""
    terms_t, docs_t, _ = inverted
    norms = np.asarray(docs_t["norm"].to_pylist())
    tt = terms_t.to_pydict()
    i = int(np.argmax(tt["df"]))  # densest term has several blocks
    d, f = decode_postings(tt["df"][i], tt["ttf"][i], tt["docs_enc"][i],
                           tt["freqs_enc"][i])
    B = 128
    for b in range(len(tt["block_last_doc"][i])):
        blk = slice(b * B, min((b + 1) * B, len(d)))
        assert tt["block_last_doc"][i][b] == d[blk][-1]
        assert tt["block_max_freq"][i][b] == f[blk].max()
        assert tt["block_min_norm"][i][b] == norms[d[blk]].min()


def test_ray_build_and_manifest(built_index):
    with open(os.path.join(built_index, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["doc_count"] == 500
    assert len(man["segments"]) == 5
    assert all(s["doc_count"] == 100 for s in man["segments"])
    # global == sum of per-segment stats
    assert man["sum_total_term_freq"] == \
        sum(s["sum_total_term_freq"] for s in man["segments"])


def test_global_term_stats(built_index, corpus_texts):
    import pyarrow.compute as pc
    from lucene_kmp_ray.index.builder import global_term_stats
    stats = global_term_stats(built_index)
    stats = stats.filter(pc.equal(stats["field"], "text"))
    inv = _brute_index(corpus_texts)
    got = {t: (df, ttf) for t, df, ttf in zip(*[stats[c].to_pylist()
                                                for c in ("term", "df", "ttf")])}
    exp = {t: (len(v), sum(len(p) for p in v.values())) for t, v in inv.items()}
    assert got == exp


def test_resume_skips_completed(built_index, ray_session):
    """Second build over the same dir must not rebuild any segment."""
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.sources.corpus import corpus_dataset
    seg_dir = os.path.join(built_index, "segments", "seg=00000")
    mtime = os.path.getmtime(os.path.join(seg_dir, "terms.parquet"))
    man = build_index(corpus_dataset(SF), built_index, segment_size=100)
    assert man["doc_count"] == 500
    assert os.path.getmtime(os.path.join(seg_dir, "terms.parquet")) == mtime


def test_interrupted_build_equals_uninterrupted(tmp_path, ray_session,
                                                corpus_texts):
    """F7: a build killed mid-way and resumed produces the identical index
    (file-for-file) as an uninterrupted one — per-partition checkpoints +
    two-phase commit."""
    import pyarrow.parquet as pq

    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.sources.corpus import corpus_dataset, corpus_shards
    from lucene_kmp_ray.index.format import build_and_write_segment

    full = str(tmp_path / "full")
    build_index(corpus_dataset("/root/testdata/sf0.001"), full,
                segment_size=100)

    # "interrupted": pre-commit only segments 1 and 3 (as a killed run
    # would leave them), then resume via the normal entry point
    part = str(tmp_path / "part")
    shards, make_docs = corpus_shards("/root/testdata/sf0.001", 100)
    for spec in (shards[1], shards[3]):
        build_and_write_segment(make_docs(spec), spec["seg"], part,
                                {"source": "precommitted"})
    man = build_index(corpus_dataset("/root/testdata/sf0.001"), part,
                      segment_size=100)
    assert len(man["segments"]) == 5
    from lucene_kmp_ray.index.postings import DOC_FILE, POS_FILE, TERMS_FILE
    for seg_meta in man["segments"]:
        d = seg_meta["dir"]
        for f in (TERMS_FILE, DOC_FILE, POS_FILE):
            assert open(f"{part}/{d}/{f}", "rb").read() == \
                open(f"{full}/{d}/{f}", "rb").read(), f
        assert pq.read_table(f"{part}/{d}/docs.parquet").equals(
            pq.read_table(f"{full}/{d}/docs.parquet"))
    from lucene_kmp_ray.index.builder import global_term_stats
    assert global_term_stats(part).equals(global_term_stats(full))


def test_crashed_tmp_dir_does_not_break_resume(tmp_path, ray_session):
    """Regression: a crashed attempt's tmp dir (with manifest inside) must
    be invisible to the resume scanner and to a follow-up build."""
    import os

    from lucene_kmp_ray.index.builder import build_index, completed_segments
    from lucene_kmp_ray.sources.corpus import corpus_dataset

    idx = str(tmp_path / "idx")
    os.makedirs(f"{idx}/segments/_tmp.seg=00001.abc123")
    with open(f"{idx}/segments/_tmp.seg=00001.abc123/manifest.json", "w") as f:
        f.write("{}")
    assert completed_segments(idx) == set()
    man = build_index(corpus_dataset("/root/testdata/sf0.001"), idx,
                      segment_size=100)
    assert man["doc_count"] == 500 and len(man["segments"]) == 5


def _term_arrays(rng, terms, n_pos_max):
    """Flat entry arrays of ``(term, docs, freqs)`` in term order."""
    s_doc = np.concatenate([d for _, d, _ in terms])
    s_freq = np.concatenate([f for _, _, f in terms])
    dfs = np.array([len(d) for _, d, _ in terms])
    ends = np.cumsum(dfs)
    pos_bounds = np.append(0, np.cumsum(s_freq))
    pos_delta = rng.integers(1, n_pos_max, int(s_freq.sum()))
    return s_doc, s_freq, ends - dfs, ends, pos_bounds, pos_delta


def test_encode_term_table_arrays_matches_loop_path():
    """The flush's record writer (``encode_term_table_arrays``) must write
    the bytes of the per-term reference path (tests/_ref_postings.py,
    split by ``split_postings``) on random data (incl. multi-block head
    terms and patched PFor freq blocks), and the reference's bulk
    logical table must equal its per-term one."""
    from lucene_kmp_ray.index.format import encode_term_table_arrays
    rng = np.random.default_rng(7)
    n_docs = 400
    norms = rng.integers(1, 255, n_docs).astype(np.uint8)
    # synthetic postings: 300 tail terms (df 1..5), 3 head terms (df ~300)
    terms = []
    for i in range(300):
        df = int(rng.integers(1, 6))
        docs = np.sort(rng.choice(n_docs, df, replace=False))
        freqs = rng.integers(1, 50, df)
        freqs[rng.random(df) < 0.05] += 5000  # pfor exception bait
        terms.append((f"t{i:04d}", docs, freqs))
    for i in range(3):
        df = int(rng.integers(200, 350))
        docs = np.sort(rng.choice(n_docs, df, replace=False))
        freqs = rng.integers(1, 9, df)
        terms.append((f"zzhead{i}", docs, freqs))
    terms.sort(key=lambda t: t[0])
    s_doc, s_freq, term_starts, term_ends, pos_bounds, pos_delta = \
        _term_arrays(rng, terms, 20)  # position deltas 1..20

    uniques = np.array([t for t, _, _ in terms], dtype=object)

    def gen():
        for t in range(len(terms)):
            yield (uniques[t], s_doc[term_starts[t]:term_ends[t]],
                   s_freq[term_starts[t]:term_ends[t]],
                   pos_delta[pos_bounds[term_starts[t]]:
                             pos_bounds[term_ends[t]]])
    slow = refp.encode_term_table(gen(), norms)
    bulk = refp.encode_term_table_arrays(uniques, s_doc, s_freq, pos_delta,
                                         term_starts, term_ends, pos_bounds,
                                         norms)
    assert bulk.equals(slow), "bulk path diverges from per-term path"
    stats, doc, pos = encode_term_table_arrays(
        s_doc, s_freq, pos_delta, np.append(term_starts, len(s_doc)), norms)
    dictionary, want_doc, want_pos = refp.split_postings(slow)
    for k, c in enumerate(("df", "ttf", "doc_ptr", "pos_ptr")):
        assert np.array_equal(stats[k], dictionary[c].to_numpy()), c
    assert doc.tobytes() == want_doc.to_pybytes(), \
        "record writer diverges from per-term path"
    assert pos.tobytes() == want_pos.to_pybytes()


def test_encode_term_table_arrays_gapped_views():
    """The numpy merge (tests/_ref_merge.py) passes GAPPED entry views
    when a term's postings were fully reclaimed: term_starts/term_ends
    need not tile the arrays. Its bulk encoder must compact and still
    match the per-term path exactly."""
    rng = np.random.default_rng(23)
    n_docs = 300
    norms = rng.integers(1, 255, n_docs).astype(np.uint8)
    # build contiguous arrays for 40 terms, then DROP every 5th term from
    # the kept set (its entries stay in the arrays as gaps)
    terms = []
    for i in range(40):
        df = int(rng.integers(1, 200))
        docs = np.sort(rng.choice(n_docs, min(df, n_docs), replace=False))
        freqs = rng.integers(1, 30, len(docs))
        terms.append((f"t{i:03d}", docs, freqs))
    s_doc, s_freq, all_starts, all_ends, pos_bounds, pos_delta = \
        _term_arrays(rng, terms, 15)

    keep = np.array([i for i in range(40) if i % 5 != 0])
    uniques = np.array([terms[i][0] for i in keep], dtype=object)
    fast = refp.encode_term_table_arrays(
        uniques, s_doc, s_freq, pos_delta,
        all_starts[keep], all_ends[keep], pos_bounds, norms)

    def gen():
        for i in keep:
            yield (terms[i][0], s_doc[all_starts[i]:all_ends[i]],
                   s_freq[all_starts[i]:all_ends[i]],
                   pos_delta[pos_bounds[all_starts[i]]:
                             pos_bounds[all_ends[i]]])
    slow = refp.encode_term_table(gen(), norms)
    assert fast.equals(slow), "gapped bulk path diverges from per-term path"
