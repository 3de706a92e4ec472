"""Scalar quantization (util/quantize, the ScalarQuantizer.kt /
Lucene99ScalarQuantizedVectorsFormat role) and the byte-vector queries
over the int8 sidecar (KnnByteVectorQuery.kt / ByteVectorSimilarityQuery
semantics, VectorUtil.kt:281-285 dotProductScore)."""

import numpy as np
import pytest

from lucene_kmp_ray.util.quantize import (ScalarQuantizer,
                                          dot_product_score,
                                          quantized_dot_scores,
                                          train_bounds)

RNG = np.random.default_rng(42)
SF = "/root/testdata/sf0.001"


# --- quantizer math --------------------------------------------------------

def test_roundtrip_error_bounded_by_half_alpha():
    m = RNG.standard_normal((200, 16))
    sq = train_bounds(m)  # ci=1.0 -> exact min/max, nothing clipped
    qb, _ = sq.quantize(m)
    assert qb.min() >= 0 and qb.max() <= 127
    back = sq.dequantize(qb)
    assert np.abs(back - m).max() <= sq.alpha / 2 + 1e-12


def test_clipping_outside_quantiles():
    sq = ScalarQuantizer(-1.0, 1.0, 7)
    qb, _ = sq.quantize(np.array([[-5.0, 5.0, 0.0]]))
    assert qb.tolist() == [[0, 127, 64]]  # round(0.5*127)=64 (floor+0.5)


def test_rounding_is_floor_plus_half_not_bankers():
    # byte boundary x where dxs = 0.5 exactly: Math.round(0.5) == 1,
    # numpy's banker's round(0.5) == 0 — the reference uses the former
    sq = ScalarQuantizer(0.0, 127.0, 7)  # scale == 1
    qb, _ = sq.quantize(np.array([[0.5, 1.5, 2.5]]))
    assert qb.tolist() == [[1, 2, 3]]


def test_degenerate_equal_bounds_widen_like_reference_ctor():
    # ScalarQuantizer.kt:173-190: lo == hi widens by the divisor on each
    # side (range 2*divisor, so scale = 0.5, alpha = 2 — the reference's
    # own ctor arithmetic, its "alpha = scale = 1" comment notwithstanding)
    sq = ScalarQuantizer(3.0, 3.0, 7)
    assert sq.lo == 3.0 - 127 and sq.hi == 3.0 + 127
    assert sq.alpha == 2.0 and sq.scale == 0.5


def test_corrected_quantized_dot_approximates_float_dot():
    # the class-doc equation (ScalarQuantizer.kt:44-50):
    # f1·f2 ≈ b1·b2·alpha² + corr1 + corr2; the engine's corrected score
    # (1 + adj)/2 must track the float (1 + f1·f2)/2 closely
    m = _unit(RNG.standard_normal((300, 32)))
    q = _unit(RNG.standard_normal((1, 32)))
    sq = train_bounds(np.vstack([m, q]))
    mb, mcorr = sq.quantize(m)
    qb, qcorr = sq.quantize(q)
    approx = quantized_dot_scores(qb[0], float(qcorr[0]), mb, mcorr,
                                  sq.constant_multiplier)
    exact = (1.0 + m @ q[0]) / 2.0
    err = np.abs(approx - exact)
    # residual ≈ Σ rounding errors: each component contributes O(alpha²/4),
    # so a generous bound is alpha * sqrt(dim) (empirically ~0.006 here)
    assert err.max() < sq.alpha * np.sqrt(m.shape[1])
    assert err.mean() < 5e-3


def test_blocked_float32_dot_is_integer_exact():
    # the scoring path casts int8 blocks to float32: every 7-bit product
    # <= 127^2 and every dot <= dim*127^2 < 2^24 is exactly representable,
    # so the BLAS path must equal a pure int64 evaluation bit-for-bit —
    # checked across the block boundary (n > DOT_BLOCK_ROWS)
    from lucene_kmp_ray.util.quantize import DOT_BLOCK_ROWS
    rng = np.random.default_rng(3)
    n, dim = DOT_BLOCK_ROWS + 513, 64
    m = rng.integers(0, 128, size=(n, dim), dtype=np.int8)
    q = rng.integers(0, 128, size=dim, dtype=np.int8)
    got = dot_product_score(q, m)
    want = 0.5 + (m.astype(np.int64) @ q.astype(np.int64)) / float(dim << 15)
    np.testing.assert_array_equal(got, want)


def test_dot_product_score_formula():
    a = np.array([1, 2, 3], np.int64)
    b = np.array([[4, 5, 6]], np.int64)
    want = 0.5 + (4 + 10 + 18) / (3 * 32768)
    assert dot_product_score(a, b)[0] == pytest.approx(want, abs=0)


def test_train_bounds_quantile_interval():
    vals = np.linspace(0.0, 1.0, 1001).reshape(-1, 1)
    sq = train_bounds(vals, confidence_interval=0.9)
    assert sq.lo == pytest.approx(0.05, abs=1e-9)
    assert sq.hi == pytest.approx(0.95, abs=1e-9)
    with pytest.raises(ValueError):
        train_bounds(vals, confidence_interval=0.5)
    with pytest.raises(ValueError):
        ScalarQuantizer(1.0, 0.0)
    with pytest.raises(ValueError):
        ScalarQuantizer(0.0, np.nan)


def _unit(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# --- index integration ------------------------------------------------------

@pytest.fixture(scope="module")
def quantized_idx(ray_session, tmp_path_factory):
    from lucene_kmp_ray.index.builder import build_index_sharded
    from lucene_kmp_ray.sources.corpus import corpus_shards
    from lucene_kmp_ray.util.quantize import global_vector_bounds
    import ray.data as rd

    idx = str(tmp_path_factory.mktemp("idx") / "quant")
    lo, hi = global_vector_bounds(
        rd.read_parquet(f"{SF}/embeddings.parquet", columns=["embedding"]))
    shards, make_docs = corpus_shards(SF, segment_size=100,
                                      with_vectors=True)
    build_index_sharded(shards, make_docs, idx, vector_col="embedding",
                        quantize={"lo": lo, "hi": hi, "bits": 7})
    return idx, ScalarQuantizer(lo, hi, 7)


def _embeddings():
    import pyarrow.parquet as pq
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).sort_by("vec_id")
    return np.vstack(t["embedding"].combine_chunks()
                     .to_numpy(zero_copy_only=False)).astype(np.float64)


def test_knn_byte_query_matches_numpy_brute(quantized_idx):
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import KnnByteVectorQuery, Searcher

    idx, sq = quantized_idx
    mat = _embeddings()
    qall, _ = sq.quantize(mat)
    qb = qall[0]
    sims = dot_product_score(qb.astype(np.int64), qall.astype(np.int64))
    order = np.lexsort((np.arange(len(sims)), -sims))[:10]
    want = [(int(i), round(float(sims[i]), 6)) for i in order]

    td = Searcher(IndexReader(idx)).search(
        KnnByteVectorQuery(tuple(int(x) for x in qb), k=10), k=10)
    got = [(h.doc_id, round(h.score, 6)) for h in td.score_docs]
    assert got == want


def test_byte_similarity_threshold_count(quantized_idx):
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import ByteVectorSimilarityQuery, Searcher

    idx, sq = quantized_idx
    mat = _embeddings()
    qall, _ = sq.quantize(mat)
    qb = qall[0]
    sims = dot_product_score(qb.astype(np.int64), qall.astype(np.int64))
    thr = float(sims[1])
    td = Searcher(IndexReader(idx)).search(
        ByteVectorSimilarityQuery(tuple(int(x) for x in qb),
                                  result_similarity=thr), k=100_000)
    assert td.total_hits == int((sims >= thr).sum())


def test_quantized_sidecar_roundtrips_through_reader(quantized_idx):
    from lucene_kmp_ray.index.reader import IndexReader

    idx, sq = quantized_idx
    mat = _embeddings()
    qall, call = sq.quantize(mat)
    r = IndexReader(idx)
    got = np.vstack([sr.quantized[0] for sr in r.segment_readers
                     if sr.quantized is not None])
    corr = np.concatenate([sr.quantized[1] for sr in r.segment_readers
                           if sr.quantized is not None])
    assert got.shape == qall.shape
    np.testing.assert_array_equal(got, qall.astype(np.int64))
    np.testing.assert_allclose(corr, call, rtol=0, atol=1e-12)
    sq2 = r.segment_readers[0].quantized[3]
    assert (sq2.lo, sq2.hi, sq2.bits) == (sq.lo, sq.hi, sq.bits)


def test_merge_rebuilds_quantized_sidecar_byte_identical(quantized_idx,
                                                         tmp_path):
    # segment merge requantizes over the merged vectors with the shared
    # global bounds — byte query results must be identical pre/post
    import shutil

    from lucene_kmp_ray.index.merge import run_merges
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import KnnByteVectorQuery, Searcher

    src, sq = quantized_idx
    idx = str(tmp_path / "merged")
    shutil.copytree(src, idx)
    r = IndexReader(idx)
    segs = [m["seg"] for m in r.manifest["segments"]]
    assert len(segs) >= 2
    mat = _embeddings()
    qall, _ = sq.quantize(mat)
    q = KnnByteVectorQuery(tuple(int(x) for x in qall[0]), k=10)
    before = [(h.doc_id, round(h.score, 6))
              for h in Searcher(r).search(q, k=10).score_docs]
    run_merges(idx, merges=[segs])
    r2 = IndexReader(idx)
    assert len(r2.manifest["segments"]) == 1
    assert r2.segment_readers[0].quantized is not None
    after = [(h.doc_id, round(h.score, 6))
             for h in Searcher(r2).search(q, k=10).score_docs]
    assert after == before


@pytest.mark.corrupts_index
def test_check_index_validates_quantized_sidecar(quantized_idx, tmp_path):
    # clean quantized index passes; a flipped byte and a wrong manifest
    # bound are both detected (CheckIndex re-derivation)
    import json
    import shutil

    import pyarrow.parquet as pq

    from lucene_kmp_ray.index.check import check_index, check_segment

    src, _sq = quantized_idx
    rep = check_index(src)
    assert rep["ok"], rep["errors"]

    work = str(tmp_path / "corruptq")
    shutil.copytree(src, work)
    seg = "segments/seg=00000"
    qp = f"{work}/{seg}/vectors_q.parquet"
    t = pq.read_table(qp)
    rows = t["qvec"].combine_chunks().to_pylist()
    rows[0] = list(rows[0])
    rows[0][0] = (rows[0][0] + 1) % 128  # flip one byte
    import pyarrow as pa
    pq.write_table(pa.table({"qvec": pa.array(rows,
                                              type=pa.list_(pa.int8())),
                             "qcorr": t["qcorr"]}), qp)
    bad = check_segment(work, seg)
    assert not bad["ok"]
    assert any("requantization" in e for e in bad["errors"])

    work2 = str(tmp_path / "corruptq2")
    shutil.copytree(src, work2)
    with open(f"{work2}/{seg}/manifest.json") as f:
        man = json.load(f)
    man["quantize"]["hi"] += 0.25
    with open(f"{work2}/{seg}/manifest.json", "w") as f:
        json.dump(man, f)
    bad2 = check_segment(work2, seg)
    assert not bad2["ok"]


def test_sparse_null_vectors_survive_quantized_sidecar(ray_session,
                                                       tmp_path):
    # docs without the vector field: null sidecar rows must stay null
    # and never match byte KNN (the docs-without-field case)
    import pyarrow as pa

    from lucene_kmp_ray.index.format import build_and_write_segment
    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import KnnByteVectorQuery, Searcher

    idx = str(tmp_path / "sparse")
    emb = pa.array([[1.0, 0.0], None, [0.0, 1.0], None],
                   type=pa.list_(pa.float32()))
    docs = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                     "url": pa.array([f"u{i}" for i in range(4)]),
                     "text": pa.array(["a b", "c", "d e", "f"]),
                     "embedding": emb})
    man = build_and_write_segment(docs, 0, idx,
                                  vector_col="embedding",
                                  quantize={"lo": 0.0, "hi": 1.0,
                                            "bits": 7})
    commit_index(idx, [man])
    r = IndexReader(idx)
    mat, corr, missing, _sq = r.segment_readers[0].quantized
    assert missing.tolist() == [False, True, False, True]
    assert np.isnan(corr[1]) and np.isnan(corr[3])
    td = Searcher(r).search(KnnByteVectorQuery((127, 0), k=4), k=4)
    assert sorted(h.doc_id for h in td.score_docs) == [0, 2]
