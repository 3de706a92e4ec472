"""Every query class reaches a scoring handler through the searcher's
type→handler table; an unknown query type raises instead of being
silently matched by some broader rule."""
import pytest

from lucene_kmp_ray.search import query as query_mod
from lucene_kmp_ray.search import spans as spans_mod
from lucene_kmp_ray.search.query import (MultiTermQuery, PrefixQuery, Query,
                                         TermQuery, VectorSimilarityQuery)
from lucene_kmp_ray.search.searcher import Searcher, _handler
from lucene_kmp_ray.search.spans import SpanQuery, SpanTermQuery

# resolved by Searcher.rewrite before any segment is scored
REWRITE_ONLY = {VectorSimilarityQuery}


def _query_classes():
    out, todo = [], list(Query.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ in (query_mod.__name__, spans_mod.__name__):
            out.append(cls)
    return sorted(set(out), key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", _query_classes(), ids=lambda c: c.__name__)
def test_every_query_class_has_a_handler(cls):
    if cls in REWRITE_ONLY:
        assert _handler(cls) is None
    else:
        assert _handler(cls) is not None


def test_subclass_resolves_to_nearest_registered_base():
    class MyPrefix(PrefixQuery):
        pass

    class MySpanTerm(SpanTermQuery):
        pass

    assert _handler(MyPrefix) is _handler(MultiTermQuery)
    assert _handler(MySpanTerm) is _handler(SpanQuery)
    assert _handler(TermQuery) is not _handler(SpanQuery)


def test_unregistered_query_raises():
    class Custom(Query):
        pass

    s = Searcher.__new__(Searcher)
    with pytest.raises(TypeError, match="unsupported query"):
        s._score(None, Custom())
    with pytest.raises(TypeError, match="unsupported query"):
        s._match_docs(None, Custom())
