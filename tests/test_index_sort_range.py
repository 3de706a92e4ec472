"""IndexSortRangeQuery (IndexSortSortedNumericDocValuesRangeQuery.kt
role): the binary-searched contiguous-run execution over index-sorted
segments must equal the RangeFilterQuery column scan for every bound
shape, on asc-sorted, desc-sorted and unsorted (fallback) indexes."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

SF = "/root/testdata/sf0.001"


def _build(idx, index_sort):
    from lucene_kmp_ray.index.builder import build_index
    from lucene_kmp_ray.sources.corpus import corpus_dataset

    def add_n_chars(b: pa.Table) -> pa.Table:
        return b.append_column(
            "n_chars", pc.cast(pc.utf8_length(b["text"]), pa.int64()))

    ds = corpus_dataset(SF).map_batches(add_n_chars, batch_format="pyarrow")
    build_index(ds, idx, segment_size=100, index_sort=index_sort,
                meta_cols=("n_chars",))
    return idx


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("isr")
    return {
        "asc": _build(str(root / "asc"), (("n_chars", False),)),
        "desc": _build(str(root / "desc"), (("n_chars", True),)),
        "unsorted": _build(str(root / "plain"), None),
    }


BOUNDS = [(200, 400), (None, 300), (250, None), (None, None),
          (0, 10), (311, 311), (558, 600), (-5, 47)]


@pytest.mark.parametrize("kind", ["asc", "desc", "unsorted"])
@pytest.mark.parametrize("lo,hi", BOUNDS)
def test_matches_column_scan(indexes, kind, lo, hi):
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (IndexSortRangeQuery,
                                       RangeFilterQuery, Searcher)
    s = Searcher(IndexReader(indexes[kind]))
    fast = s.search(IndexSortRangeQuery("n_chars", lo, hi), k=1000)
    scan = s.search(RangeFilterQuery("n_chars", lo, hi), k=1000)
    assert fast.total_hits == scan.total_hits
    assert sorted(h.doc_id for h in fast.score_docs) == \
        sorted(h.doc_id for h in scan.score_docs)


@pytest.mark.parametrize("kind,desc", [("asc", False), ("desc", True)])
def test_binary_search_run_is_contiguous_and_sorted(indexes, kind, desc):
    # white-box: on a matching index sort the per-segment match set is
    # one contiguous local-docID run whose column values are in range
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import IndexSortRangeQuery, Searcher
    from lucene_kmp_ray.search.searcher import Weight
    r = IndexReader(indexes[kind])
    s = Searcher(r)
    q = IndexSortRangeQuery("n_chars", 200, 400)
    for sr in r.segment_readers:
        assert (sr.meta.get("index_sort") or [])[0] == ["n_chars", desc]
        docs, _ = Weight(s, q).score_segment(sr)
        if len(docs):
            assert (np.diff(docs) == 1).all()  # contiguous run
        col = sr.doc_meta["n_chars"].to_numpy()
        assert ((col[docs] >= 200) & (col[docs] <= 400)).all()
        assert len(docs) == int(((col >= 200) & (col <= 400)).sum())


def test_composes_in_boolean_filter(indexes):
    from lucene_kmp_ray.index.reader import IndexReader
    from lucene_kmp_ray.search import (BooleanQuery, IndexSortRangeQuery,
                                       Occur, Searcher, TermQuery)
    s = Searcher(IndexReader(indexes["asc"]))
    q = BooleanQuery.build(
        (Occur.MUST, TermQuery("spark")),
        (Occur.FILTER, IndexSortRangeQuery("n_chars", 200, 400)))
    td = s.search(q, k=1000)
    assert 0 < td.total_hits < s.search(TermQuery("spark"), k=1).total_hits
