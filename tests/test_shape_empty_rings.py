"""Shape kernels over docs without a ring: per-doc vertex counts must
not lose the last ring's tail when shape-less docs follow it, nor be
disturbed by shape-less docs between rings."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_kmp_ray.index.builder import commit_index
from lucene_kmp_ray.index.format import build_and_write_segment
from lucene_kmp_ray.index.reader import IndexReader
from lucene_kmp_ray.search import (Searcher, ShapeBoxQuery,
                                   ShapeCircleQuery, ShapePolygonQuery)
from lucene_kmp_ray.search.searcher import _ring_counts

TRI = ([2.0, 3.0, 2.0], [2.0, 2.0, 3.0])  # inside every query shape
# doc 1 is an interior ring-less doc, doc 3 a trailing one
RINGS = [TRI, ([], []), TRI, ([], [])]


def test_ring_counts_trailing_empty():
    off = np.array([0, 3, 3])
    flags = np.array([False, False, True])  # only vertex 2 in radius
    assert _ring_counts(flags, off[:-1], np.diff(off)).tolist() == [1, 0]


def test_ring_counts_interior_empty():
    off = np.array([0, 3, 3, 5, 5])
    flags = np.array([1, 0, 1, 1, 1])
    assert _ring_counts(flags, off[:-1], np.diff(off)).tolist() == \
        [2, 0, 2, 0]


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("empty_rings") / "idx")
    n = len(RINGS)
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "url": [f"u{i}" for i in range(n)],
        "text": ["shape doc"] * n,
        "ring_lats": pa.array([r[0] for r in RINGS], pa.list_(pa.float64())),
        "ring_lons": pa.array([r[1] for r in RINGS], pa.list_(pa.float64())),
    })
    man = build_and_write_segment(docs, 0, root,
                                  meta_cols=("ring_lats", "ring_lons"))
    commit_index(root, [man])
    return root


RECT = ((0.0, 0.0), (0.0, 10.0), (10.0, 10.0), (10.0, 0.0))
QUERIES = {
    "box": lambda rel: ShapeBoxQuery("ring_lats", "ring_lons", 0.0, 10.0,
                                     0.0, 10.0, relation=rel),
    "polygon": lambda rel: ShapePolygonQuery("ring_lats", "ring_lons", RECT,
                                             relation=rel),
    "circle": lambda rel: ShapeCircleQuery("ring_lats", "ring_lons", 0.0,
                                           0.0, 10.0, relation=rel),
}


@pytest.mark.parametrize("kind", list(QUERIES))
@pytest.mark.parametrize("relation", ["within", "intersects"])
def test_kernels_with_ringless_docs(idx, kind, relation):
    td = Searcher(IndexReader(idx)).search(QUERIES[kind](relation), k=10)
    assert sorted(h.doc_id for h in td.score_docs) == [0, 2]
