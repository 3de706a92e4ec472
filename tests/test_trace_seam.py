"""perfbench's tracer wraps engine names from outside the engine
(``perfbench/trace.py`` ``install``): a renamed entry point breaks traced
benchmark runs (``perfbench/run.py --trace 1``). Install the tracer and
run one search, in a subprocess so its wrappers stay out of this one."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, sys
import pyarrow as pa
from perfbench import trace
from lucene_kmp_ray.index.builder import commit_index
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import Searcher, TermQuery

idx = sys.argv[1]
ids = range(20)
man = build_and_write_segment(
    pa.table({"doc_id": pa.array(ids, pa.int64()),
              "url": [f"u{i}" for i in ids],
              "text": [f"spark w{i % 3}" for i in ids]}), 0, idx)
commit_index(idx, [man])
rec = trace.Recorder()
trace.install(rec)
td = Searcher(IndexReader(idx)).search(TermQuery("spark"), k=3)
print(json.dumps({"hits": td.total_hits,
                  "spans": sorted({s[0] for s in rec.spans})}))
"""


def test_tracer_installs_and_records_a_search(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "idx")], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["hits"] == 20
    assert {"searcher.search", "reader.term_row"} <= set(got["spans"])
