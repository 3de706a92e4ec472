"""GeoPolygonQuery point-in-polygon semantics (crossing number, holes),
plus the end-to-end search path over the geo metadata index."""

import numpy as np
import pytest

from lucene_kmp_ray.search.searcher import _ring_contains as ring

SQUARE = ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))
# concave "L" shape
CONCAVE = ((0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (4.0, 4.0),
           (4.0, 10.0), (0.0, 10.0))


def pts(*pairs):
    lat = np.array([p[0] for p in pairs], dtype=np.float64)
    lon = np.array([p[1] for p in pairs], dtype=np.float64)
    return lat, lon


def test_square_inside_outside():
    lat, lon = pts((5, 5), (-1, 5), (5, -1), (11, 5), (5, 11), (9.9, 9.9))
    got = ring(lat, lon, SQUARE)
    assert got.tolist() == [True, False, False, False, False, True]


def test_concave_notch():
    lat, lon = pts((2, 2), (8, 2), (2, 8), (8, 8), (5, 5))
    got = ring(lat, lon, CONCAVE)
    # (8,8) and (5,5) fall in the notch (lat>4 & lon>4 region removed)
    assert got.tolist() == [True, True, True, False, False]


def test_hole_subtracts():
    from lucene_kmp_ray.search import GeoPolygonQuery
    q = GeoPolygonQuery(SQUARE, (((3.0, 3.0), (7.0, 3.0),
                                  (7.0, 7.0), (3.0, 7.0)),))
    lat, lon = pts((5, 5), (1, 1), (6.5, 6.5), (8, 8))
    inside = ring(lat, lon, q.polygon)
    for hole in q.holes:
        inside &= ~ring(lat, lon, hole)
    assert inside.tolist() == [False, True, False, True]


def test_matches_shapely_free_reference():
    # brute-force winding check against matplotlib-free reference:
    # a triangle, compare with barycentric sign test
    tri = ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))
    rng = np.random.default_rng(3)
    lat = rng.uniform(-2, 12, 500)
    lon = rng.uniform(-2, 12, 500)
    got = ring(lat, lon, tri)
    # reference: inside iff lat>0 & lon>0 & lat+lon<10 (up to boundary)
    exp = (lat > 0) & (lon > 0) & (lat + lon < 10)
    # exclude points within 1e-9 of the boundary (none at this rng scale)
    assert (got == exp).all()


@pytest.mark.usefixtures("ray_session")
def test_geo_polygon_entry_runs():
    import __ray_entry__ as E
    df = E.queries()["geo_polygon_all"]("/root/testdata/sf0.001")
    import pandas as pd
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    assert len(df) > 0
    assert {"doc_id", "url", "score"} <= set(df.columns)
