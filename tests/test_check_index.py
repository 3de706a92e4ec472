"""CheckIndex analog: clean index passes; corruption is detected
(TestCheckIndex style, SURVEY §5)."""

import json
import shutil

import pyarrow.parquet as pq

from lucene_kmp_ray.index.check import check_index, check_segment


def test_clean_index_passes(built_index, ray_session):
    report = check_index(built_index)
    assert report["ok"], report["errors"]
    assert all(r["ok"] for r in report["segments"])
    assert report["doc_count"] == 500


def test_corrupt_stats_detected(built_index, tmp_path):
    work = str(tmp_path / "corrupt")
    shutil.copytree(built_index, work)
    # corrupt one segment's manifest stats
    with open(f"{work}/segments/seg=00000/manifest.json") as f:
        man = json.load(f)
    man["sum_total_term_freq"] += 7
    with open(f"{work}/segments/seg=00000/manifest.json", "w") as f:
        json.dump(man, f)
    rep = check_segment(work, "segments/seg=00000")
    assert not rep["ok"]
    assert any("sum_total_term_freq" in e for e in rep["errors"])


def test_corrupt_global_field_stats_detected(built_index, tmp_path):
    """The manifest's per-field sums must equal Σ df / Σ ttf over the
    segment dictionaries, the figures the scorer's term stats add up."""
    work = str(tmp_path / "corrupt_global")
    shutil.copytree(built_index, work)
    with open(f"{work}/manifest.json") as f:
        man = json.load(f)
    man["fields"]["title"]["sum_doc_freq"] += 1
    with open(f"{work}/manifest.json", "w") as f:
        json.dump(man, f)
    rep = check_index(work, parallel=False)
    assert not rep["ok"]
    assert rep["errors"] == [
        f"field title: manifest sum_doc_freq "
        f"{man['fields']['title']['sum_doc_freq']} != Σ df "
        f"{man['fields']['title']['sum_doc_freq'] - 1}"]


def test_corrupt_postings_detected(built_index, tmp_path):
    work = str(tmp_path / "corrupt2")
    shutil.copytree(built_index, work)
    p = f"{work}/segments/seg=00001/terms.parquet"
    t = pq.read_table(p)
    # flip a df: decoded postings no longer match the claimed df
    import pyarrow as pa
    dfs = t["df"].to_pylist()
    dfs[0] += 1
    t = t.set_column(t.schema.get_field_index("df"), "df",
                     pa.array(dfs, pa.int64()))
    pq.write_table(t, p)
    rep = check_segment(work, "segments/seg=00001")
    assert not rep["ok"]


def test_truncated_postings_file_detected(built_index, tmp_path):
    work = str(tmp_path / "truncated")
    shutil.copytree(built_index, work)
    p = f"{work}/segments/seg=00001/postings.doc"
    with open(p, "rb") as f:
        data = f.read()
    with open(p, "wb") as f:
        f.write(data[:-1])
    rep = check_segment(work, "segments/seg=00001")
    assert not rep["ok"]
    assert any("postings" in e for e in rep["errors"]), rep["errors"]


def test_check_command_line(built_index, tmp_path):
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)

    def run(idx):
        return subprocess.run(
            [sys.executable, "-m", "lucene_kmp_ray.index.check", idx],
            capture_output=True, text=True, env=env, timeout=300)

    ok = run(built_index)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["ok"]
    work = str(tmp_path / "cli")
    shutil.copytree(built_index, work)
    with open(f"{work}/segments/seg=00000/postings.pos", "ab") as f:
        f.write(b"\x00")
    bad = run(work)
    assert bad.returncode == 1
    assert not json.loads(bad.stdout)["ok"]


def test_shifted_postings_pointer_detected(built_index, tmp_path):
    import numpy as np
    import pyarrow as pa

    work = str(tmp_path / "shifted")
    shutil.copytree(built_index, work)
    p = f"{work}/segments/seg=00002/terms.parquet"
    t = pq.read_table(p)
    ptr = t["doc_ptr"].to_numpy().copy()
    ptr[len(ptr) // 2] += 1
    t = t.set_column(t.schema.get_field_index("doc_ptr"), "doc_ptr",
                     pa.array(ptr.astype(np.int64)))
    pq.write_table(t, p)
    rep = check_segment(work, "segments/seg=00002")
    assert not rep["ok"]
    assert any("postings.doc" in e for e in rep["errors"]), rep["errors"]


def test_corrupt_term_vectors_detected(tmp_path):
    """CheckIndex's 'test: term vectors...' section: a freq that
    disagrees with its positions list is caught."""
    import pyarrow as pa

    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.index.check import check_segment
    from lucene_kmp_ray.index.format import build_and_write_segment

    idx = str(tmp_path / "tvidx")
    docs = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                     "url": ["u0", "u1"],
                     "text": ["a b a", "c"]})
    man = build_and_write_segment(docs, 0, idx, store_term_vectors=True)
    commit_index(idx, [man])
    p = f"{idx}/segments/seg=00000/tvectors.parquet"
    t = pq.read_table(p)
    freqs = t["freq"].to_pylist()
    freqs[0] += 1
    t = t.set_column(t.schema.get_field_index("freq"), "freq",
                     pa.array(freqs, pa.int32()))
    pq.write_table(t, p)
    rep = check_segment(idx, "segments/seg=00000")
    assert not rep["ok"]
    assert any("freq != len(positions)" in e for e in rep["errors"])


def test_keys_ascending_compares_bytes_per_field():
    """The dictionary order check: (field, term) strictly ascending in
    UTF-8 byte order; a term order restarts with each field."""
    import pyarrow as pa

    from lucene_kmp_ray.index.check import _keys_ascending

    def table(rows, field=True):
        cols = {"term": [t for _, t in rows]}
        if field:
            fields = pa.array([f for f, _ in rows], pa.string())
            cols = {"field": fields.dictionary_encode(), **cols}
        return pa.table(cols)

    good = [("text", "a"), ("text", "é"), ("text", "😀"), ("title", "a")]
    assert _keys_ascending(table(good))
    assert _keys_ascending(table(good[:3], field=False))
    assert _keys_ascending(table([]))
    assert not _keys_ascending(table([("text", "b"), ("text", "a")]))
    assert not _keys_ascending(table([("text", "a"), ("text", "a")]))
    assert not _keys_ascending(table([("title", "a"), ("text", "b")]))
    assert not _keys_ascending(table([("text", "😀"), ("text", "é")],
                                     field=False))
