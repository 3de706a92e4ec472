"""CheckIndex analog: clean index passes; corruption is detected
(TestCheckIndex style, SURVEY §5)."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_kmp_ray.index import postings as pf
from lucene_kmp_ray.index.check import check_index, check_segment
from lucene_kmp_ray.util import cfor


def test_clean_index_passes(built_index, ray_session):
    report = check_index(built_index)
    assert report["ok"], report["errors"]
    assert all(r["ok"] for r in report["segments"])
    assert report["doc_count"] == 500


@pytest.mark.corrupts_index
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


@pytest.mark.corrupts_index
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


@pytest.mark.corrupts_index
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


@pytest.mark.corrupts_index
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


@pytest.mark.corrupts_index
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


@pytest.mark.corrupts_index
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


@pytest.mark.corrupts_index
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

    def table(rows):
        fields = pa.array([f for f, _ in rows], pa.string())
        return pa.table({"field": fields.dictionary_encode(),
                         "term": [t for _, t in rows]})

    good = [("text", "a"), ("text", "é"), ("text", "😀"), ("title", "a")]
    assert _keys_ascending(table(good))
    assert _keys_ascending(table(good[:3]))
    assert _keys_ascending(table([]))
    assert not _keys_ascending(table([("text", "b"), ("text", "a")]))
    assert not _keys_ascending(table([("text", "a"), ("text", "a")]))
    assert not _keys_ascending(table([("title", "a"), ("text", "b")]))
    assert not _keys_ascending(table([("text", "😀"), ("text", "é")]))


@pytest.fixture(scope="module")
def multi_block_index(tmp_path_factory):
    """One 300-doc segment: ``every`` is in each doc (three 128-doc
    blocks, so its skip/impact metadata is stored) and twice in every
    fifth (ttf > df)."""
    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.index.format import build_and_write_segment

    rng = np.random.default_rng(5)
    vocab = [f"w{i:03d}" for i in range(400)]
    texts = [" ".join(["every"] * (2 if i % 5 == 0 else 1)
                      + list(rng.choice(vocab, int(rng.integers(3, 30)))))
             for i in range(300)]
    idx = str(tmp_path_factory.mktemp("check") / "idx")
    docs = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                     "url": [f"u{i}" for i in range(300)], "text": texts})
    commit_index(idx, [build_and_write_segment(docs, 0, idx)])
    return idx


def _every(seg):
    """(postings, row of ``every``, its record's end in postings.doc)."""
    sp = pf.SegmentPostings(seg)
    i = sp.dictionary["term"].to_pylist().index("every")
    end = int(sp.doc_ptr[i + 1]) if i + 1 < len(sp) else sp.doc.size
    return sp, i, end


def _rewrite_positions(seg, edit):
    """Re-encode the ``postings.pos`` record of ``every`` with
    ``edit(position deltas, freqs)`` applied and store the segment's
    dictionary (its ttf set to the new value count) and files again."""
    sp, i, _ = _every(seg)
    pos = sp.pos.read(0, sp.pos.size).to_pybytes()
    start = int(sp.pos_ptr[i])
    end = int(sp.pos_ptr[i + 1]) if i + 1 < len(sp) else len(pos)
    posd = cfor.decode_streams_at(np.frombuffer(pos, np.uint8),
                                  np.array([start]),
                                  np.array([sp.ttf[i]]))[0]
    posd = edit(posd, sp.docs_freqs(np.array([i]))[1])
    rec = cfor.encode_stream(posd, pfor=True).tobytes()
    t = pq.read_table(os.path.join(seg, pf.TERMS_FILE))
    cols = {c: t[c].to_numpy().copy() for c in ("ttf", "pos_ptr")}
    cols["ttf"][i] = len(posd)
    cols["pos_ptr"][i + 1:] += len(rec) - (end - start)
    for c, v in cols.items():
        t = t.set_column(t.column_names.index(c), c, pa.array(v, t[c].type))
    pf.write_postings(seg, t, sp.doc.read(0, sp.doc.size),
                      pos[:start] + rec + pos[end:])


def _repeat_a_position(posd, freqs):
    """The second position of the first entry with two equals its
    first."""
    at = int(np.cumsum(freqs)[np.argmax(freqs > 1)] - freqs[freqs > 1][0])
    out = posd.copy()
    out[at + 1] = 0
    return out


def _set_docs_value(seg, col, edit):
    path = os.path.join(seg, "docs.parquet")
    t = pq.read_table(path)
    v = t[col].to_numpy().copy()
    v[0] = edit(v[0])
    pq.write_table(t.set_column(t.column_names.index(col), col,
                                pa.array(v, t[col].type)), path)


def _flip_block_min_norm(seg):
    sp, i, end = _every(seg)
    nb = -(-int(sp.df[i]) // 128)
    with open(os.path.join(seg, pf.DOC_FILE), "r+b") as f:
        f.seek(end - 4 * nb)  # the first stored block_min_norm
        b = f.read(1)[0]
        f.seek(end - 4 * nb)
        f.write(bytes([b ^ 1]))


CORRUPTIONS = {
    "block_min_norm": (_flip_block_min_norm,
                       "block_min_norm disagrees with postings",
                       "text:'every'"),
    "positions": (lambda seg: _rewrite_positions(seg, _repeat_a_position),
                  "positions not strictly ascending", "text:'every'"),
    "norm": (lambda seg: _set_docs_value(seg, "norm", lambda v: v ^ 1),
             "norm bytes disagree with SmallFloat(length)", "field text"),
    "max_tf": (lambda seg: _set_docs_value(seg, "max_tf", lambda v: v + 1),
               "max_tf disagrees with postings", "field text"),
    "ttf": (lambda seg: _rewrite_positions(
                seg, lambda posd, freqs: np.append(posd, 1)),
            "ttf != Σ freq", "text:'every'"),
}


@pytest.mark.corrupts_index
@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_invariant_detected(multi_block_index, tmp_path, kind):
    """Each postings invariant that only the record decode can see is
    caught, and the error names the term or the field."""
    corrupt, what, name = CORRUPTIONS[kind]
    work = str(tmp_path / "idx")
    shutil.copytree(multi_block_index, work)
    seg = os.path.join(work, "segments", "seg=00000")
    assert check_segment(work, seg)["ok"]
    corrupt(seg)
    rep = check_segment(work, seg)
    assert not rep["ok"]
    assert any(what in e and name in e for e in rep["errors"]), rep["errors"]



@pytest.mark.corrupts_index
@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_invariants_checked_over_runs_of_terms(multi_block_index, tmp_path,
                                               monkeypatch, kind):
    """Decoded in runs of at most 64 positions (many runs, ``every``
    alone in one), the check reports what one run reports."""
    from lucene_kmp_ray.index import check

    work = str(tmp_path / "idx")
    shutil.copytree(multi_block_index, work)
    seg = os.path.join(work, "segments", "seg=00000")
    CORRUPTIONS[kind][0](seg)
    whole = check_segment(work, seg)["errors"]
    monkeypatch.setattr(check, "CHUNK", 64)
    assert sorted(check_segment(work, seg)["errors"]) == sorted(whole)
    assert whole


@pytest.mark.parametrize("titled", ["deleted", "none"])
def test_merged_field_without_terms_passes(tmp_path, titled):
    """A merge whose ``title`` has no live term keeps the field's
    per-doc columns (all 0) but no ``fields.title`` stats; such an index
    is clean. ``deleted``: every doc with a title term was deleted before
    the merge; ``none``: no source had a title term."""
    from lucene_kmp_ray.analysis.core import WhitespaceAnalyzer
    from lucene_kmp_ray.index.builder import commit_index
    from lucene_kmp_ray.index.deletes import delete_segment_urls
    from lucene_kmp_ray.index.format import build_and_write_segment
    from lucene_kmp_ray.index.merge import merge_segments

    idx = str(tmp_path / "idx")
    mans = []
    for seg in range(2):
        ids = range(seg * 20, seg * 20 + 20)
        titles = [f"t{i}" if titled == "deleted" and i % 7 == 0 else ""
                  for i in ids]
        mans.append(build_and_write_segment(
            pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "url": [f"u{i}" for i in ids],
                      "text": [f"w{i % 3} w{i % 5}" for i in ids],
                      "title": titles}),
            seg, idx, analyzer=WhitespaceAnalyzer(),
            fields=("text", "title")))
        delete_segment_urls(os.path.join(idx, "segments", f"seg={seg:05d}"),
                            [f"u{i}" for i in ids if i % 7 == 0])
    merged = merge_segments(idx, [0, 1], 2)
    assert "title" not in merged.get("fields", {})
    commit_index(idx, [merged])
    report = check_index(idx, parallel=False)
    assert report["ok"], report["errors"]
