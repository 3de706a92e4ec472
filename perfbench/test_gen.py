"""Determinism of the benchmark's generator, and its metric names.

    python3 -m pytest perfbench/test_gen.py -q
"""

from __future__ import annotations

import filecmp
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import gen  # noqa: E402


def _write(seed: int, out: str, marker: bool = False) -> tuple:
    c = gen.Corpus(seed)
    batches = [c.batch(lo, 300, gen.marker_token(seed, lo) if marker
                       else None) for lo in (0, 300)]
    paths = [gen.write_batch(b, out) for b in batches]
    df = gen.document_frequencies(batches)
    stream = gen.query_stream(seed, c.vocab, batches, df, 200)
    return paths, stream, batches


def test_same_seed_gives_identical_shards_and_streams(tmp_path):
    pa_, sa, _ = _write(5, str(tmp_path / "a"))
    pb, sb, _ = _write(5, str(tmp_path / "b"))
    for x, y in zip(pa_, pb):
        assert filecmp.cmp(x, y, shallow=False)
    assert sa == sb


def test_other_seed_gives_other_shards_and_streams(tmp_path):
    pa_, sa, _ = _write(5, str(tmp_path / "a"))
    pb, sb, _ = _write(6, str(tmp_path / "b"))
    for x, y in zip(pa_, pb):
        assert not filecmp.cmp(x, y, shallow=False)
    assert sa != sb


def test_schema_ground_truth_and_markers(tmp_path):
    from lucene_kmp_ray.analysis.standard import StandardAnalyzer

    _, stream, batches = _write(7, str(tmp_path), marker=True)
    t = batches[0].table
    assert t.column_names == ["doc_id", "url", "warc_ts", "html", "text",
                              "lang"]
    lens, flat, _, _ = StandardAnalyzer().analyze_flat(t["text"])
    # every generated word is one token; the marker adds one per doc
    assert np.array_equal(lens, batches[0].doc_lens + 1)
    marker = gen.marker_token(7, 0)
    assert flat.to_pylist().count(marker) == t.num_rows
    assert len(np.unique(batches[0].doc_lens)) > 10   # norms vary
    kinds = {k for k, _ in stream}
    assert kinds == {k for k, _ in gen.BLOCK}


def test_metric_names_match_benchmark_json():
    import json

    from perfbench import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
