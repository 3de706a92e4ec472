"""Bloom-filtered term dictionary (codecs/bloom role, index/bloom.py):
MurmurHash3 x64 128 canonical vectors, FuzzySet semantics (no false
negatives, downsize projection, sizing), the bulk/scalar hash identity,
and the end-to-end sidecar contract (bloom-gated searches equal
unfiltered searches; CheckIndex validates; merges carry the sidecar)."""

import random
import shutil

import numpy as np
import pytest

from lucene_kmp_ray.index.bloom import (
    USABLE_BITSET_SIZES,
    FuzzySet,
    build_segment_bloom,
    load_segment_bloom,
    murmur128,
    murmur128_bulk,
)


def test_murmur128_canonical_vectors():
    # canonical MurmurHash3 x64 128 (seed 0): empty -> (0, 0); the
    # SMHasher example string's well-known digest
    assert murmur128(b"", 0) == (0, 0)
    h1, h2 = murmur128(b"The quick brown fox jumps over the lazy dog", 0)
    digest = h1.to_bytes(8, "little") + h2.to_bytes(8, "little")
    assert digest.hex() == "6c1b07bc7bbc4be347939ac4a93c437a"


def test_murmur128_bulk_equals_scalar():
    rng = random.Random(42)
    keys = [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 48)))
            for _ in range(400)]
    bulk = murmur128_bulk(keys)
    for i, k in enumerate(keys):
        assert murmur128(k) == (int(bulk[i, 0]), int(bulk[i, 1])), i


def test_murmur128_bulk_arrow_equals_list():
    """An Arrow term column hashes from its buffers to the same values
    as the list of its bytes (a slice: offsets do not start at 0)."""
    import pyarrow as pa
    terms = ["", "a", "spark", "é", "😀", "x" * 40, "aÿ", "b", "sparks"]
    col = pa.array(["pad"] + terms).slice(1)
    assert np.array_equal(murmur128_bulk(col),
                          murmur128_bulk([t.encode() for t in terms]))
    assert murmur128_bulk(pa.array([], pa.string())).shape == (0, 2)


def test_usable_sizes_and_nearest():
    # FuzzySet.usableBitSetSizes: (1 << (i+6)) - 1
    assert USABLE_BITSET_SIZES[0] == 63
    assert USABLE_BITSET_SIZES[1] == 127
    assert FuzzySet.nearest_set_size(100) == 63
    assert FuzzySet.nearest_set_size(127) == 127


def test_fuzzyset_no_false_negatives_and_fpp():
    fs = FuzzySet.create_optimal_set(2000)
    vocab = [f"key{i:05d}".encode() for i in range(2000)]
    fs.add_values(vocab)
    assert all(fs.may_contain(v) for v in vocab)
    absent = [f"absent{i:05d}".encode() for i in range(4000)]
    fpp = sum(fs.may_contain(a) for a in absent) / len(absent)
    assert fpp < 0.2  # sized for ~0.1023


def test_fuzzyset_scalar_bulk_add_agree():
    vocab = [f"k{i}".encode() for i in range(500)]
    a = FuzzySet.create_optimal_set(500)
    a.add_values(vocab)
    b = FuzzySet(a.bloom_size, a.hash_count)
    for v in vocab:
        b.add_value(v)
    assert np.array_equal(a.bits, b.bits)


def test_downsize_preserves_membership():
    fs = FuzzySet(USABLE_BITSET_SIZES[8], 1)  # oversized for 50 keys
    vocab = [f"v{i}".encode() for i in range(50)]
    fs.add_values(vocab)
    small = fs.downsize(0.5)
    assert small is not None and small.bloom_size < fs.bloom_size
    assert all(small.may_contain(v) for v in vocab)


def test_save_load_roundtrip(tmp_path):
    fs = FuzzySet.create_optimal_set(100)
    fs.add_values([b"alpha", b"beta"])
    p = str(tmp_path / "f.npz")
    fs.save(p)
    g = FuzzySet.load(p)
    assert (g.bloom_size, g.hash_count) == (fs.bloom_size, fs.hash_count)
    assert np.array_equal(g.bits, fs.bits)


@pytest.fixture(scope="module")
def bloom_index(ray_session, tmp_path_factory):
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.sources.corpus import corpus_dataset

    idx = str(tmp_path_factory.mktemp("bloomidx") / "idx")
    shutil.rmtree(idx, ignore_errors=True)
    build_index(corpus_dataset("/root/testdata/sf0.001"), idx,
                segment_size=100, fields=("text", "title"), bloom=True)
    return idx


def test_bloom_sidecar_written_and_gates_lookups(bloom_index):
    import os

    from lucene_kmp_ray.index.bloom import BLOOM_FILE
    from lucene_kmp_ray.index.reader import IndexReader

    r = IndexReader(bloom_index)
    for sr in r.segment_readers:
        assert os.path.exists(os.path.join(sr.dir, BLOOM_FILE))
        assert sr.bloom is not None and "text" in sr.bloom
    sr = r.segment_readers[0]
    # absent term: bloom answers NO without loading the vocabulary
    assert sr.term_index("zzzzdefinitelyabsent") is None
    assert sr._terms is None  # the dictionary never loaded
    # present term: bloom passes through to the binary search
    assert sr.term_index("the") is not None


def test_bloom_search_equals_plain(bloom_index, built_index):
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import Searcher, TermQuery

    sb = Searcher(IndexReader(bloom_index))
    sp = Searcher(IndexReader(built_index))
    for term in ["spark", "the", "join", "window", "zzznothere"]:
        tb = sb.search(TermQuery(term), k=20)
        tp = sp.search(TermQuery(term), k=20)
        assert tb.total_hits == tp.total_hits, term
        assert [(h.doc_id, h.score) for h in tb.score_docs] == \
            [(h.doc_id, h.score) for h in tp.score_docs], term


def test_check_index_validates_bloom(bloom_index, tmp_path):
    import os

    from lucene_kmp_ray.index.bloom import BLOOM_FILE
    from lucene_kmp_ray.index.check import check_segment

    seg_dirs = sorted(
        d for d in os.listdir(os.path.join(bloom_index, "segments"))
        if d.startswith("seg="))
    seg0 = os.path.join(bloom_index, "segments", seg_dirs[0])
    assert check_segment(bloom_index, seg0)["ok"]
    # corrupt: clear all bits -> every dictionary term is a false
    # negative -> CheckIndex must flag it
    work = tmp_path / "seg_corrupt"
    shutil.copytree(seg0, work)
    blooms = load_segment_bloom(str(work))
    arrays = {}
    for f, fs in blooms.items():
        arrays[f"{f}__bloom_size"] = np.int64(fs.bloom_size)
        arrays[f"{f}__hash_count"] = np.int64(fs.hash_count)
        arrays[f"{f}__bits"] = np.zeros_like(fs.bits)
    np.savez_compressed(str(work / BLOOM_FILE), **arrays)
    # np.savez appends .npz only if missing; ensure exact filename
    if (work / (BLOOM_FILE + ".npz")).exists():
        (work / (BLOOM_FILE + ".npz")).rename(work / BLOOM_FILE)
    res = check_segment(bloom_index, str(work))
    assert not res["ok"]
    assert any("bloom" in e for e in res["errors"])


def test_merge_carries_bloom(bloom_index, tmp_path):
    import json
    import os

    from lucene_kmp_ray.index.bloom import BLOOM_FILE
    from lucene_kmp_ray.index.check import check_segment
    from lucene_kmp_ray.index.merge import merge_segments

    idx = str(tmp_path / "m")
    shutil.copytree(bloom_index, idx)
    man = json.load(open(os.path.join(idx, "manifest.json")))
    segs = sorted(m["seg"] for m in man["segments"])[:2]
    merge_segments(idx, segs, 900)
    from lucene_kmp_ray.index.format import seg_dirname
    merged = os.path.join(idx, "segments", seg_dirname(900))
    assert os.path.exists(os.path.join(merged, BLOOM_FILE))
    assert check_segment(idx, merged)["ok"]


def test_build_segment_bloom_per_field(tmp_path):
    import pyarrow as pa
    terms = pa.table({
        "field": ["text"] * 3 + ["title"] * 2,
        "term": ["alpha", "beta", "gamma", "one", "two"]})
    stats = build_segment_bloom(terms, str(tmp_path))
    assert set(stats) == {"text", "title"}
    blooms = load_segment_bloom(str(tmp_path))
    assert blooms["text"].may_contain(b"alpha")
    assert blooms["title"].may_contain(b"two")
