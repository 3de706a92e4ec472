"""Groupby-term shuffle build (head-term skew splitting) must produce
file-identical segments to the in-task inversion path (TestDuelingCodecs
assertion style, SURVEY §5)."""

import json

import pyarrow.parquet as pq
import pytest

from lucene_kmp_ray.index.builder import build_index
from lucene_kmp_ray.index.grouped import (build_index_grouped,
                                          estimate_head_terms)
from lucene_kmp_ray.index.postings import DOC_FILE, POS_FILE, read_terms_table
from lucene_kmp_ray.sources.corpus import corpus_dataset

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pair(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("grouped")
    a = str(base / "sharded")
    b = str(base / "grouped")
    build_index(corpus_dataset(SF), a, segment_size=100)
    # tiny salt_docs so head terms really split into multiple sub-lists
    build_index_grouped(corpus_dataset(SF), b, segment_size=100,
                        salt_docs=32, head_df_frac=0.05)
    return a, b


def test_head_terms_detected(ray_session):
    heads = estimate_head_terms(corpus_dataset(SF), head_df_frac=0.05)
    assert "the" in heads  # synthetic corpus: 'the' is in ~every doc


def test_identical_manifests(pair):
    a, b = pair
    with open(f"{a}/manifest.json") as f:
        ma = json.load(f)
    with open(f"{b}/manifest.json") as f:
        mb = json.load(f)
    for k in ("doc_count", "sum_total_term_freq", "sum_doc_freq"):
        assert ma[k] == mb[k]
    assert [s["seg"] for s in ma["segments"]] == \
        [s["seg"] for s in mb["segments"]]


def test_identical_segment_files(pair):
    a, b = pair
    with open(f"{a}/manifest.json") as f:
        segs = [s["dir"] for s in json.load(f)["segments"]]
    for d in segs:
        ta = read_terms_table(f"{a}/{d}")
        tb = read_terms_table(f"{b}/{d}")
        assert ta.equals(tb), f"terms mismatch in {d}"
        for f in (DOC_FILE, POS_FILE):
            assert open(f"{a}/{d}/{f}", "rb").read() == \
                open(f"{b}/{d}/{f}", "rb").read(), f"{f} mismatch in {d}"
        da = pq.read_table(f"{a}/{d}/docs.parquet")
        db = pq.read_table(f"{b}/{d}/docs.parquet")
        assert da.equals(db), f"docs mismatch in {d}"


def test_identical_term_stats(pair):
    a, b = pair
    from lucene_kmp_ray.index.builder import global_term_stats
    assert global_term_stats(a).equals(global_term_stats(b))


def test_sparse_doc_ids_match_dense_rank_path(tmp_path, ray_session):
    """Regression: sparse doc_ids (filtered/deduped corpus) must produce
    the same segments as build_index's rank-within-segment path."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_kmp_ray.sources.corpus import corpus_table

    src = corpus_table(SF).sort_by("doc_id").select(["doc_id", "url", "text"])
    sparse = src.filter(pa.compute.equal(
        pa.compute.bit_wise_and(src["doc_id"], 1), 0))  # even ids only
    ds = rd.from_arrow(sparse)
    a = str(tmp_path / "rank")
    b = str(tmp_path / "grouped")
    build_index(ds, a, segment_size=100)
    build_index_grouped(rd.from_arrow(sparse), b, segment_size=100,
                        salt_docs=16, head_df_frac=0.05)
    import json
    with open(f"{a}/manifest.json") as f:
        ma = json.load(f)
    with open(f"{b}/manifest.json") as f:
        mb = json.load(f)
    assert ma["doc_count"] == mb["doc_count"] == sparse.num_rows
    for s in ma["segments"]:
        d = s["dir"]
        assert read_terms_table(f"{a}/{d}").equals(
            read_terms_table(f"{b}/{d}")), d
        for f in (DOC_FILE, POS_FILE):
            assert open(f"{a}/{d}/{f}", "rb").read() == \
                open(f"{b}/{d}/{f}", "rb").read(), (f, d)
        assert pq.read_table(f"{a}/{d}/docs.parquet").equals(
            pq.read_table(f"{b}/{d}/docs.parquet")), d
