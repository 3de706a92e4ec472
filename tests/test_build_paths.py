"""The two build paths — ``build_index`` over a Dataset and
``build_index_sharded`` over pre-sharded input — must write file-identical
segments (TestDuelingCodecs assertion style, SURVEY §5)."""

import json

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from lucene_kmp_ray.index.builder import (build_index, build_index_sharded,
                                          global_term_stats)
from lucene_kmp_ray.sources.corpus import (corpus_dataset, corpus_shards,
                                           corpus_table)

SF = "/root/testdata/sf0.001"
SEGMENT_FILES = ("terms.parquet", "postings.doc", "postings.pos",
                 "docs.parquet")


def _manifest(index_dir):
    with open(f"{index_dir}/manifest.json") as f:
        return json.load(f)


def _assert_same_manifests(a, b):
    ma, mb = _manifest(a), _manifest(b)
    for k in ("doc_count", "sum_total_term_freq", "sum_doc_freq"):
        assert ma[k] == mb[k], k
    assert [s["dir"] for s in ma["segments"]] == \
        [s["dir"] for s in mb["segments"]]


def _assert_same_files(a, b):
    for s in _manifest(a)["segments"]:
        for name in SEGMENT_FILES:
            with open(f"{a}/{s['dir']}/{name}", "rb") as fa, \
                    open(f"{b}/{s['dir']}/{name}", "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs in {s['dir']}"


@pytest.fixture(scope="module")
def pair(tmp_path_factory, ray_session):
    base = tmp_path_factory.mktemp("paths")
    a, b = str(base / "dataset"), str(base / "sharded")
    build_index(corpus_dataset(SF), a, segment_size=100)
    shards, make_docs = corpus_shards(SF, segment_size=100)
    build_index_sharded(shards, make_docs, b)
    return a, b


def test_identical_manifests(pair):
    assert len(_manifest(pair[0])["segments"]) == 5
    _assert_same_manifests(*pair)


def test_identical_segment_files(pair):
    _assert_same_files(*pair)


def test_identical_term_stats(pair):
    a, b = pair
    assert global_term_stats(a).equals(global_term_stats(b))


def test_sparse_doc_ids_match_dense_rank_path(tmp_path, ray_session):
    """Regression: sparse doc_ids (a filtered / deduped corpus) give the
    same segments through build_index's rank-within-segment path as
    through hand-made shards."""
    import ray.data as rd

    src = corpus_table(SF).sort_by("doc_id").select(["doc_id", "url", "text"])
    sparse = src.filter(pc.equal(pc.bit_wise_and(src["doc_id"], 1), 0))
    a, b = str(tmp_path / "dataset"), str(tmp_path / "sharded")
    build_index(rd.from_arrow(sparse), a, segment_size=100)
    seg = pc.divide(sparse["doc_id"], 100).to_numpy()

    def make_docs(spec: dict) -> pa.Table:
        return sparse.filter(pa.array(seg == spec["seg"]))

    build_index_sharded([{"seg": int(s)} for s in sorted(set(seg))],
                        make_docs, b)
    assert _manifest(a)["doc_count"] == sparse.num_rows
    _assert_same_manifests(a, b)
    _assert_same_files(a, b)


def test_job_has_no_path_option(tmp_path):
    """The build job has one build path: ``--path`` is an argparse error
    (raised before Ray starts)."""
    import os
    import subprocess
    import sys
    job = os.path.join(os.path.dirname(__file__), "..", "scripts",
                       "build_index_job.py")
    r = subprocess.run([sys.executable, job,
                        "--out", str(tmp_path / "idx"), "--path", "grouped"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2 and "--path" in r.stderr
