"""Commit points + deletion policies (index/IndexDeletionPolicy.kt /
SnapshotDeletionPolicy.kt / KeepOnlyLastCommitDeletionPolicy.kt roles):
generation recording, point-in-time readers, retention pruning."""
import json
import os
import shutil

import pytest

from lucene_kmp_ray.index.builder import build_index
from lucene_kmp_ray.index.commits import (KeepLastNCommitsDeletionPolicy,
                                          KeepOnlyLastCommitDeletionPolicy,
                                          SnapshotDeletionPolicy,
                                          apply_deletion_policy,
                                          list_commits, read_commit)
from lucene_kmp_ray.index.merge import run_merges
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import Searcher, TermQuery
from lucene_kmp_ray.sources.corpus import corpus_dataset

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def idx(tmp_path, ray_session):
    d = str(tmp_path / "commits_idx")
    build_index(corpus_dataset(SF), d, segment_size=100)  # 5 segments
    return d


def _hits(reader):
    td = Searcher(reader).search(TermQuery("spark"), k=5)
    return [(h.doc_id, h.score) for h in td.score_docs], td.total_hits


def test_build_records_generation(idx):
    assert list_commits(idx) == [1]
    with open(os.path.join(idx, "manifest.json")) as f:
        man = json.load(f)
    assert man["gen"] == 1
    assert read_commit(idx, 1)["segments"] == man["segments"]


def test_merge_advances_generation_and_default_policy_prunes(idx):
    before = _hits(IndexReader(idx))
    run_merges(idx, merges=[[0, 1], [2, 3]])
    # KeepOnlyLastCommit: gen 1 pruned, merged-away seg dirs deleted
    assert list_commits(idx) == [2]
    assert not os.path.isdir(os.path.join(idx, "segments", "seg=00000"))
    assert _hits(IndexReader(idx)) == before


def test_snapshot_retains_point_in_time_reader(idx):
    sdp = SnapshotDeletionPolicy()
    gen1 = sdp.snapshot(idx)
    assert gen1 == 1
    before = _hits(IndexReader(idx))
    run_merges(idx, merges=[[0, 1], [2, 3]], deletion_policy=sdp)
    # both commits retained: the snapshot pins gen 1's segment dirs
    assert list_commits(idx) == [1, 2]
    assert os.path.isdir(os.path.join(idx, "segments", "seg=00000"))
    # a reader opened on the snapshotted commit sees the OLD view,
    # score-identical
    old = IndexReader(idx, commit=gen1)
    assert len(old.manifest["segments"]) == 5
    assert _hits(old) == before
    assert len(IndexReader(idx).manifest["segments"]) == 3
    # release + re-apply: gen 1 and its now-unreferenced dirs die
    sdp.release(idx, gen1)
    res = apply_deletion_policy(idx, sdp)
    assert res["deleted_commits"] == [1]
    assert 0 in res["deleted_segments"]
    assert list_commits(idx) == [2]
    assert _hits(IndexReader(idx)) == before


def test_keep_last_n_policy(idx):
    run_merges(idx, merges=[[0, 1]],
               deletion_policy=KeepLastNCommitsDeletionPolicy(2))
    run_merges(idx, merges=[[2, 3]],
               deletion_policy=KeepLastNCommitsDeletionPolicy(2))
    assert list_commits(idx) == [2, 3]
    # gen 2's view (segs 5,2,3,4) still opens; gen 1 is gone
    r2 = IndexReader(idx, commit=2)
    assert {m["seg"] for m in r2.manifest["segments"]} == {2, 3, 4, 5}
    with pytest.raises(FileNotFoundError):
        IndexReader(idx, commit=1)
    # shrinking to keep-1 prunes gen 2 and seg dirs only gen 2 used
    apply_deletion_policy(idx, KeepOnlyLastCommitDeletionPolicy())
    assert list_commits(idx) == [3]
    assert not os.path.isdir(os.path.join(idx, "segments", "seg=00002"))


def test_snapshot_requires_commits(tmp_path):
    with pytest.raises(FileNotFoundError):
        SnapshotDeletionPolicy().snapshot(str(tmp_path))
    sdp = SnapshotDeletionPolicy()
    with pytest.raises(KeyError):
        sdp.release(str(tmp_path), 1)


def test_retained_commit_scores_with_its_own_stats(tmp_path):
    """A reader on an older generation sums df/ttf over that commit's
    segments only, not over the latest commit's, and so scores like an
    index holding just those segments."""
    import pyarrow as pa

    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.index.format import build_and_write_segment

    def seg(d, n, texts):
        ids = range(10 * n, 10 * n + len(texts))
        return build_and_write_segment(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "url": [f"u{i}" for i in ids], "text": texts}), n, d)

    d, alone = str(tmp_path / "gens"), str(tmp_path / "alone")
    first = seg(d, 0, ["spark join", "spark"])
    commit_index(d, [first])
    commit_index(d, [first, seg(d, 1, ["spark spark", "spark ray", "ray"])])
    commit_index(alone, [seg(alone, 0, ["spark join", "spark"])])
    old, new = IndexReader(d, commit=1), IndexReader(d)
    assert old.doc_count == 2 and new.doc_count == 5
    assert old.term_stats(["spark", "ray"]) == {"spark": (2, 2),
                                               "ray": (0, 0)}
    assert new.term_stats(["spark", "ray"]) == {"spark": (4, 5),
                                               "ray": (2, 2)}
    assert _hits(old) == _hits(IndexReader(alone))
