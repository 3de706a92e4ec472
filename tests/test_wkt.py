"""SimpleWKTShapeParser subset + GeoLineQuery semantics.

Parser vectors are the reference's own
(``core/src/commonTest/.../geo/TestSimpleWKTShapeParsing.kt``): POINT,
MULTIPOINT, LINESTRING, MULTILINESTRING, POLYGON (+hole), MULTIPOLYGON,
ENVELOPE, GEOMETRYCOLLECTION, the EMPTY keyword, and the
polygon-must-close validation. The line scorer is checked against a
brute-force point-to-segment distance.
"""

import numpy as np
import pytest

from lucene_kmp_ray.search import GeoLineQuery
from lucene_kmp_ray.search.wkt import WKTParseError, parse, to_query


# ------------------------------------------------------------ parser ------
def test_point():
    # TestSimpleWKTShapeParsing.testPoint — WKT order is lon lat
    assert parse("POINT(101.0 10.0)") == ("point", (10.0, 101.0))


def test_empty_point():
    assert parse("POINT EMPTY") == ("point", None)


def test_multipoint():
    tag, pts = parse("MULTIPOINT(101.0 10.0, 180.0 90.0, -180.0 -90.0)")
    assert tag == "multipoint"
    assert pts == ((10.0, 101.0), (90.0, 180.0), (-90.0, -180.0))
    # per-point parens form is equivalent (SimpleWKTShapeParser.kt:95-121)
    assert parse("MULTIPOINT((101.0 10.0), (180.0 90.0), (-180.0 -90.0))") \
        == ("multipoint", pts)


def test_empty_multipoint():
    assert parse("MULTIPOINT EMPTY") == ("multipoint", None)


def test_line():
    tag, pts = parse("LINESTRING(101.0 10.0, 180.0 90.0, -180.0 -90.0)")
    assert tag == "linestring"
    assert pts == ((10.0, 101.0), (90.0, 180.0), (-90.0, -180.0))


def test_empty_line():
    assert parse("LINESTRING EMPTY") == ("linestring", None)


def test_multiline():
    tag, lines = parse(
        "MULTILINESTRING((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0,"
        " 100.0 0.0),(10.0 2.0, 11.0 2.0, 11.0 3.0, 10.0 3.0, 10.0 2.0))")
    assert tag == "multilinestring"
    assert len(lines) == 2
    assert lines[0][0] == (0.0, 100.0)
    assert lines[1][0] == (2.0, 10.0)


def test_empty_multiline():
    assert parse("MULTILINESTRING EMPTY") == ("multilinestring", None)


def test_polygon():
    tag, (shell, holes) = parse(
        "POLYGON((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0, 100.0 0.0))\n")
    assert tag == "polygon"
    assert shell == ((0.0, 100.0), (0.0, 101.0), (1.0, 101.0),
                     (1.0, 100.0), (0.0, 100.0))
    assert holes == ()


def test_polygon_with_hole():
    tag, (shell, holes) = parse(
        "POLYGON((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0, 100.0 0.0), "
        "(100.5 0.5, 100.5 0.75, 100.75 0.75, 100.75 0.5, 100.5 0.5))")
    assert tag == "polygon"
    assert len(holes) == 1
    assert holes[0] == ((0.5, 100.5), (0.75, 100.5), (0.75, 100.75),
                        (0.5, 100.75), (0.5, 100.5))


def test_multipolygon():
    tag, polys = parse(
        "MULTIPOLYGON(((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0,"
        " 100.0 0.0)),((10.0 2.0, 11.0 2.0, 11.0 3.0, 10.0 3.0, 10.0 2.0)))")
    assert tag == "multipolygon"
    assert len(polys) == 2
    assert polys[0][0][0] == (0.0, 100.0)
    assert polys[1][0][0] == (2.0, 10.0)


def test_polygon_not_closed():
    # TestSimpleWKTShapeParsing.testPolygonNotClosed
    with pytest.raises(WKTParseError, match="must close itself"):
        parse("POLYGON((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0))\n")


def test_envelope():
    # ENVELOPE order is (minLon, maxLon, maxLat, minLat)
    assert parse("ENVELOPE(-180.0, 180.0, 90.0, -90.0)") \
        == ("envelope", (-90.0, 90.0, -180.0, 180.0))


def test_geometry_collection():
    tag, shapes = parse(
        "GEOMETRYCOLLECTION("
        "MULTIPOLYGON(((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0,"
        " 100.0 0.0)),((10.0 2.0, 11.0 2.0, 11.0 3.0, 10.0 3.0,"
        " 10.0 2.0))),"
        "POINT(101.0 10.0),"
        "LINESTRING(101.0 10.0, 180.0 90.0, -180.0 -90.0),"
        "ENVELOPE(-180.0, 180.0, 90.0, -90.0))")
    assert tag == "geometrycollection"
    assert [s[0] for s in shapes] == ["multipolygon", "point",
                                      "linestring", "envelope"]


def test_z_dimension_dropped():
    assert parse("POINT(101.0 10.0 5.0)") == ("point", (10.0, 101.0))


def test_comments_and_case():
    assert parse("point(101.0 10.0) # trailing comment") \
        == ("point", (10.0, 101.0))


def test_parse_errors():
    with pytest.raises(WKTParseError):
        parse("BOGUS(1 2)")
    with pytest.raises(WKTParseError):
        parse("POINT(1.0)")          # missing lat
    with pytest.raises(WKTParseError):
        parse("POINT(1.0 2.0) POINT(3.0 4.0)")  # trailing content
    with pytest.raises(WKTParseError):
        parse("ENVELOPE(1.0, 2.0, 3.0)")


# --------------------------------------------------------- to_query -------
def test_to_query_shapes():
    from lucene_kmp_ray.search import (BooleanQuery, GeoBoxQuery,
                                       GeoPolygonQuery)
    assert to_query("ENVELOPE(-180.0, 180.0, 90.0, -90.0)") == \
        GeoBoxQuery(-90.0, 90.0, -180.0, 180.0)
    q = to_query("POLYGON((100.0 0.0, 101.0 0.0, 101.0 1.0, 100.0 1.0,"
                 " 100.0 0.0))")
    assert isinstance(q, GeoPolygonQuery)
    q = to_query("LINESTRING(0.0 0.0, 10.0 10.0)", buffer_deg=1.0)
    assert q == GeoLineQuery(((0.0, 0.0), (10.0, 10.0)), 1.0)
    q = to_query("MULTIPOLYGON(((100.0 0.0, 101.0 0.0, 101.0 1.0,"
                 " 100.0 1.0, 100.0 0.0)),((10.0 2.0, 11.0 2.0, 11.0 3.0,"
                 " 10.0 3.0, 10.0 2.0)))")
    assert isinstance(q, BooleanQuery) and len(q.clauses) == 2
    with pytest.raises(WKTParseError):
        to_query("POINT EMPTY")


# ------------------------------------------------------- line scorer ------
def _line_dist2(lat, lon, line):
    """Brute-force reference: min squared point-to-segment distance."""
    best = np.inf
    for (y1, x1), (y2, x2) in zip(line, line[1:]):
        dy, dx = y2 - y1, x2 - x1
        ll = dy * dy + dx * dx
        t = 0.0 if ll == 0 else min(1.0, max(
            0.0, ((lat - y1) * dy + (lon - x1) * dx) / ll))
        best = min(best, (lat - (y1 + t * dy)) ** 2 +
                   (lon - (x1 + t * dx)) ** 2)
    return best


def test_geo_line_vs_bruteforce():
    from lucene_kmp_ray.search.searcher import Searcher, _geo_line_docs
    line = ((-5.0, -10.0), (0.0, 0.0), (3.0, 12.0))
    rng = np.random.default_rng(7)
    lat = rng.uniform(-15, 15, 400)
    lon = rng.uniform(-20, 20, 400)
    buf = 2.5

    class FakeSR:
        doc_meta = {"lat": _np_col(lat), "lon": _np_col(lon)}

    class FakeSim:
        dtype = np.dtype(np.float64)

    q = GeoLineQuery(line, buf)
    exp = [i for i in range(400)
           if _line_dist2(lat[i], lon[i], line) <= buf * buf]
    assert _geo_line_docs(FakeSR(), q).tolist() == exp
    s = Searcher.__new__(Searcher)
    s.sim = FakeSim()
    docs, scores = s._score(FakeSR(), q, 1.0)
    assert docs.tolist() == exp
    assert (scores == 1.0).all()


def _np_col(arr):
    class C:
        def __init__(self, a):
            self._a = a

        def to_numpy(self):
            return self._a
    return C(arr)


def test_geo_line_degenerate_point():
    from lucene_kmp_ray.search.searcher import _geo_line_docs
    lat = np.array([0.0, 1.0, 3.0])
    lon = np.array([0.0, 1.0, 3.0])

    class FakeSR:
        doc_meta = {"lat": _np_col(lat), "lon": _np_col(lon)}

    # single-vertex "line" = buffered point match
    docs = _geo_line_docs(
        FakeSR(), GeoLineQuery(((1.0, 1.0), (1.0, 1.0)), 0.5))
    assert docs.tolist() == [1]
    # zero buffer matches only points exactly on a segment (dyadic
    # coordinates so the projection round-trips in float64)
    docs = _geo_line_docs(
        FakeSR(), GeoLineQuery(((0.0, 0.0), (2.0, 2.0)), 0.0))
    assert docs.tolist() == [0, 1]


@pytest.mark.usefixtures("ray_session")
def test_geo_line_entry_runs():
    import pandas as pd

    import __ray_entry__ as E
    df = E.queries()["geo_line_all"]("/root/testdata/sf0.001")
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    assert len(df) > 0
    assert {"doc_id", "url", "score"} <= set(df.columns)
