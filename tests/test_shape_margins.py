"""The shape entries' oracles (oracle.shape_box_relations_all,
shape_polygon_relations_all, shape_circle_relations_all) decide each
relation with one closed-form comparison per doc. Over the doc_ids of the
test corpora, no comparison may come within 0.01 of a tie: a float
rounding difference between the engine's ring kernel and the SQL
arithmetic could flip a tied doc, and the rows must not depend on that."""

import numpy as np
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as E

MIN_MARGIN = 0.01


def _diamonds(sf):
    d = pq.read_table(f"/root/testdata/{sf}/documents.parquet",
                      columns=["doc_id"])["doc_id"].to_numpy()
    return (d * 11 % 80) - 40.0, (d * 13 % 100) - 50.0, 3.0 + d * 7 % 25


def _box_margins(clat, clon, w):
    b = E.SHAPE_BOX
    zero = np.zeros_like(clat)
    dy = np.maximum.reduce([zero, b["min_lat"] - clat, clat - b["max_lat"]])
    dx = np.maximum.reduce([zero, b["min_lon"] - clon, clon - b["max_lon"]])
    fy = np.maximum(abs(b["min_lat"] - clat), abs(b["max_lat"] - clat))
    fx = np.maximum(abs(b["min_lon"] - clon), abs(b["max_lon"] - clon))
    return {
        "intersects/disjoint": w - (dy + dx),
        "within": np.concatenate([clat - w - b["min_lat"],
                                  b["max_lat"] - (clat + w),
                                  clon - w - b["min_lon"],
                                  b["max_lon"] - (clon + w)]),
        "contains": w - (fy + fx),
    }


def _polygon_margins(clat, clon, w):
    q = E.SHAPE_QPOLY
    l1 = abs(clat - q["clat"]) + abs(clon - q["clon"])
    return {
        "intersects/disjoint": (w + q["w"]) - l1,
        "within": q["w"] - (l1 + w),
        "contains": w - (l1 + q["w"]),
    }


def _circle_margins(clat, clon, w):
    c = E.SHAPE_QCIRCLE
    u, v, r = abs(clat - c["clat"]), abs(clon - c["clon"]), c["r"]
    dist = np.where(
        u + v <= w, 0.0,
        np.where(abs(u - v) <= w, (u + v - w) / np.sqrt(2.0),
                 np.sqrt((np.maximum(u, v) - w) ** 2
                         + np.minimum(u, v) ** 2)))
    far = np.maximum(np.sqrt((u + w) ** 2 + v ** 2),
                     np.sqrt(u ** 2 + (v + w) ** 2))
    return {
        "intersects/disjoint": r - dist,
        "within": r - far,
        "contains": (w - r * np.sqrt(2.0)) - (u + v),
    }


@pytest.mark.parametrize("sf", ["sf0.001", "sf0.01"])
@pytest.mark.parametrize("margins", [_box_margins, _polygon_margins,
                                     _circle_margins])
def test_no_relation_is_near_a_tie(sf, margins):
    for rel, m in margins(*_diamonds(sf)).items():
        assert np.abs(m).min() >= MIN_MARGIN, (rel, float(np.abs(m).min()))

