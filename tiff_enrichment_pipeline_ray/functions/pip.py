"""STRtree-backed point-in-polygon join (vectorized numpy).

Replaces the reference's PostGIS `GEOMETRY(POINT,4326)` + GIST index land-cover
lookup (reference: scripts/create-tables.sql:74-79,135-139,257): an STR
(sort-tile-recursive) packed R-tree over polygon bounding boxes, queried with a
vectorized frontier BFS, then exact crossing-number ray casting on the
candidate (point, polygon) pairs.

Determinism: a point contained in several overlapping polygons joins to the
smallest ``polygon_id`` (SURVEY.md §2.4 J2 tie-break). Points on an edge follow
the half-open crossing-number rule (consistent on shared borders).

Designed for the broadcast-small-side pattern: the tree is built once per
worker process (`stages.enrich.Enricher`) from the `put_layers` layer and
queried per batch — no shuffle.
"""

from __future__ import annotations

import numpy as np

_LEAF_CAP = 16


class STRtree:
    """Array-based STR-packed R-tree over axis-aligned bounding boxes."""

    def __init__(self, bboxes: np.ndarray):
        """bboxes: (n,4) float64 [minx, miny, maxx, maxy]."""
        n = len(bboxes)
        self.n_items = n
        if n == 0:
            self.levels = []
            return
        idx = np.arange(n)
        cx = (bboxes[:, 0] + bboxes[:, 2]) / 2.0
        cy = (bboxes[:, 1] + bboxes[:, 3]) / 2.0
        # STR packing: sort by x-center, slice into vertical strips of
        # sqrt(n/cap) leaves each, sort each strip by y-center.
        n_leaves = int(np.ceil(n / _LEAF_CAP))
        n_strips = max(1, int(np.ceil(np.sqrt(n_leaves))))
        per_strip = int(np.ceil(n / n_strips))
        order = np.argsort(cx, kind="stable")
        ordered = []
        for s in range(0, n, per_strip):
            strip = order[s:s + per_strip]
            ordered.append(strip[np.argsort(cy[strip], kind="stable")])
        order = np.concatenate(ordered)
        self.item_order = idx[order]              # leaf slot -> original item
        boxes = bboxes[order]
        self.item_boxes = boxes                   # slot-ordered item bboxes

        # level 0 = leaf nodes (groups of _LEAF_CAP items)
        self.levels = []  # each: (node_bboxes (m,4), child_start, child_end)
        cur = boxes
        base = np.arange(len(cur))
        while True:
            m = int(np.ceil(len(cur) / _LEAF_CAP))
            starts = np.arange(m) * _LEAF_CAP
            ends = np.minimum(starts + _LEAF_CAP, len(cur))
            nb = np.empty((m, 4))
            for i in range(m):
                seg = cur[starts[i]:ends[i]]
                nb[i] = [seg[:, 0].min(), seg[:, 1].min(), seg[:, 2].max(), seg[:, 3].max()]
            self.levels.append((nb, starts, ends))
            if m == 1:
                break
            cur = nb
            base = np.arange(m)
        del base

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """All (point_idx, item_idx) pairs whose item bbox contains the point.

        Vectorized frontier descent from the root: at each level, expand each
        live (point, node) pair to the child nodes whose bbox contains the
        point. Returns two int64 arrays (may be empty).
        """
        npt = len(px)
        if self.n_items == 0 or npt == 0:
            return (np.empty(0, dtype=np.int64),) * 2
        # frontier at top level: every point × the root node
        pt = np.arange(npt, dtype=np.int64)
        node = np.zeros(npt, dtype=np.int64)
        top = len(self.levels) - 1
        nb, _, _ = self.levels[top]
        keep = ((px >= nb[0, 0]) & (px <= nb[0, 2]) & (py >= nb[0, 1]) & (py <= nb[0, 3]))
        pt, node = pt[keep], node[keep]
        for lvl in range(top, -1, -1):
            _, starts, ends = self.levels[lvl]
            counts = ends[node] - starts[node]
            child = np.repeat(starts[node], counts) + _ranges(counts)
            pt = np.repeat(pt, counts)
            if lvl > 0:
                cb, _, _ = self.levels[lvl - 1]
                keep = ((px[pt] >= cb[child, 0]) & (px[pt] <= cb[child, 2])
                        & (py[pt] >= cb[child, 1]) & (py[pt] <= cb[child, 3]))
                pt, node = pt[keep], child[keep]
            else:
                # children are leaf item slots: final filter on ITEM bboxes
                ib = self.item_boxes
                keep = ((px[pt] >= ib[child, 0]) & (px[pt] <= ib[child, 2])
                        & (py[pt] >= ib[child, 1]) & (py[pt] <= ib[child, 3]))
                return pt[keep], self.item_order[child[keep]]
        raise AssertionError("unreachable")


def _ranges(counts):
    """[0..c0-1, 0..c1-1, ...] for an int array of counts (vectorized)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = 0
    ends = np.cumsum(counts)[:-1]
    out[ends] = -(counts[:-1] - 1)
    return np.cumsum(out)


def polygons_to_arrays(rings):
    """Flatten a list of rings (each an (k,2) array-like of lon,lat) into
    padded edge arrays for vectorized PIP + per-polygon bboxes.

    Returns dict with x0,y0,x1,y1 (edges, (n_poly, max_edges) float64,
    padded with NaN), bbox (n,4).
    """
    n = len(rings)
    max_v = max((len(r) for r in rings), default=0)
    x = np.full((n, max_v + 1), np.nan)
    y = np.full((n, max_v + 1), np.nan)
    bbox = np.empty((n, 4))
    for i, r in enumerate(rings):
        arr = np.asarray(r, dtype=np.float64)
        k = len(arr)
        x[i, :k] = arr[:, 0]
        y[i, :k] = arr[:, 1]
        x[i, k] = arr[0, 0]  # close the ring
        y[i, k] = arr[0, 1]
        bbox[i] = [arr[:, 0].min(), arr[:, 1].min(), arr[:, 0].max(), arr[:, 1].max()]
    return {"x": x, "y": y, "bbox": bbox}


def point_in_polygon_pairs(px, py, poly_x, poly_y, pairs_pt, pairs_poly):
    """Crossing-number test for candidate pairs.

    px/py: point coords; poly_x/poly_y: (n_poly, max_v+1) closed-ring vertex
    arrays (NaN padded); pairs_*: candidate indices. Returns bool per pair.
    Half-open rule: edge [a,b) counts a crossing when
    (ay <= y < by) or (by <= y < ay) and the point is strictly left of the
    edge at that y.
    """
    if len(pairs_pt) == 0:
        return np.zeros(0, dtype=bool)
    X = poly_x[pairs_poly]            # (m, v+1)
    Y = poly_y[pairs_poly]
    x = px[pairs_pt][:, None]
    y = py[pairs_pt][:, None]
    x0, x1 = X[:, :-1], X[:, 1:]
    y0, y1 = Y[:, :-1], Y[:, 1:]
    valid = ~np.isnan(x0) & ~np.isnan(x1)
    straddle = ((y0 <= y) & (y < y1)) | ((y1 <= y) & (y < y0))
    with np.errstate(invalid="ignore", divide="ignore"):
        x_int = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        cross = straddle & valid & (x < x_int)
    return (cross.sum(axis=1) % 2).astype(bool)


class PolygonIndex:
    """STRtree + padded-ring store for a polygon layer; one object per actor.

    `join(lat, lon)` → int64 polygon index per point (-1 = no polygon),
    deterministic min-polygon_id tie-break.
    """

    def __init__(self, rings, ids=None):
        arrs = polygons_to_arrays(rings)
        self.x = arrs["x"]
        self.y = arrs["y"]
        self.ids = np.asarray(ids, dtype=np.int64) if ids is not None else np.arange(len(rings), dtype=np.int64)
        self.tree = STRtree(arrs["bbox"])

    def join(self, lat, lon):
        lon = np.asarray(lon, dtype=np.float64)
        lat = np.asarray(lat, dtype=np.float64)
        pt, poly = self.tree.query_points(lon, lat)
        inside = point_in_polygon_pairs(lon, lat, self.x, self.y, pt, poly)
        pt, poly = pt[inside], poly[inside]
        out = np.full(len(lon), -1, dtype=np.int64)
        if len(pt):
            # min polygon_id per point: sort by (point, id) and take first
            pid = self.ids[poly]
            order = np.lexsort((pid, pt))
            pt_s, poly_s = pt[order], poly[order]
            first = np.ones(len(pt_s), dtype=bool)
            first[1:] = pt_s[1:] != pt_s[:-1]
            out[pt_s[first]] = poly_s[first]
        return out
