"""kNN weather-station matching (haversine, exact, deterministic).

Replaces the reference's Open-Meteo nearest-station lookup (reference:
scripts/create-tables.sql:129-132 weather enrichment schema; the distance
metric is the haversine the reference uses at validation.py:85-99 and wraps in
SQL at init-db.sql:157-170).

``CellBucketKNN``: stations bucketed by a coarse lat/lon grid (the "per-cell
local BallTree" of the north_star); a query expands Chebyshev rings of cells
until the k-th best distance provably beats the minimum possible distance of
the next unexplored ring. Exactness bound: any point in a cell at Chebyshev
ring r is ≥ (r−1)·cell_deg degrees away in lat or lon, hence
≥ (r−1)·cell_deg·(πR/180)·cos_max_lat meters (haversine ≥ either component).
The tests check it equal to the full-distance-matrix ``BruteKNN`` of
``tests/reference_forms.py``.

Tie-break (SURVEY §7.4-2): order by (distance, station_id ascending) — callers
pass stations pre-sorted by station_id so index order is the tie order.
"""

from __future__ import annotations

import numpy as np

from ..config import EARTH_RADIUS_M
from .geo import haversine_m

_M_PER_DEG = 2.0 * np.pi * EARTH_RADIUS_M / 360.0

_CELL_OFF = 1 << 20


def _cell_key(ix, iy):
    """Collision-free positive int64 key for |ix|,|iy| < 2^20."""
    return (np.asarray(ix, dtype=np.int64) + _CELL_OFF) * (1 << 21) + (np.asarray(iy, dtype=np.int64) + _CELL_OFF)


class CellBucketKNN:
    """Grid-bucketed exact kNN; build once per actor, query per batch."""

    def __init__(self, lat, lon, cell_deg=0.5):
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)
        self.cell_deg = float(cell_deg)
        ix = np.floor(self.lon / cell_deg).astype(np.int64)
        iy = np.floor(self.lat / cell_deg).astype(np.int64)
        key = _cell_key(ix, iy)
        order = np.argsort(key, kind="stable")
        self._order = order
        self._keys, starts = np.unique(key[order], return_index=True)
        self._starts = starts
        self._ends = np.append(starts[1:], len(order))
        # worst-case ring bound: the whole station extent
        if len(lat):
            span = max(self.lon.max() - self.lon.min(), self.lat.max() - self.lat.min())
            self._max_ring = int(np.ceil(span / cell_deg)) + 2
            self._cos_min = max(np.cos(np.radians(np.abs(self.lat).max() + cell_deg)), 1e-3)
        else:
            self._max_ring = 0

    def _bucket(self, ix, iy):
        key = _cell_key(ix, iy)
        pos = np.searchsorted(self._keys, key)
        if pos >= len(self._keys) or self._keys[pos] != key:
            return None
        return self._order[self._starts[pos]:self._ends[pos]]

    def query(self, qlat, qlon, k=1):
        qlat = np.asarray(qlat, dtype=np.float64)
        qlon = np.asarray(qlon, dtype=np.float64)
        n = len(qlat)
        out_idx = np.full((n, k), -1, dtype=np.int64)
        out_dist = np.full((n, k), np.inf)
        if len(self.lat) == 0 or n == 0:
            return out_idx, out_dist
        cell = self.cell_deg
        qix = np.floor(qlon / cell).astype(np.int64)
        qiy = np.floor(qlat / cell).astype(np.int64)
        qkey = _cell_key(qix, qiy)
        for key in np.unique(qkey):
            sel = np.flatnonzero(qkey == key)
            cx = int(key >> 21) - _CELL_OFF
            cy = int(key & ((1 << 21) - 1)) - _CELL_OFF
            # longitude-leg cosine bound must cover BOTH endpoints' latitudes:
            # stations (cos_min, precomputed over the station extent) AND this
            # group's query points (which may lie outside that extent, e.g.
            # masked no-GPS rows at 0,0) — round-1 advice fix
            cos_q = np.cos(np.radians(min(np.abs(qlat[sel]).max() + cell, 89.9)))
            cos_b = max(min(self._cos_min, cos_q), 1e-3)
            cand = []
            r = 0
            best_k = np.inf
            while r <= self._max_ring:
                # cells on Chebyshev ring r
                ring = _ring_cells(cx, cy, r)
                for ix, iy in ring:
                    b = self._bucket(ix, iy)
                    if b is not None:
                        cand.append(b)
                ncand = sum(len(c) for c in cand)
                if ncand >= k:
                    ca = np.concatenate(cand)
                    d = haversine_m(qlat[sel][:, None], qlon[sel][:, None],
                                    self.lat[ca][None, :], self.lon[ca][None, :])
                    kk = min(k, len(ca))
                    ix_s = np.argsort(d, axis=1, kind="stable")[:, :kk]
                    best_k = np.take_along_axis(d, ix_s, axis=1)[:, -1].max()
                    # any point in the next unexplored ring is ≥ r·cell away
                    # in lat or lon; 0.95 safety pads the linearized haversine
                    min_next = r * cell * _M_PER_DEG * cos_b * 0.95
                    if min_next > best_k:
                        out_idx[sel, :kk] = ca[ix_s]
                        out_dist[sel, :kk] = np.take_along_axis(d, ix_s, axis=1)
                        break
                r += 1
            else:
                # exhausted the extent: brute over everything gathered
                ca = np.concatenate(cand) if cand else np.arange(len(self.lat))
                ca = np.unique(ca) if cand else ca
                d = haversine_m(qlat[sel][:, None], qlon[sel][:, None],
                                self.lat[ca][None, :], self.lon[ca][None, :])
                kk = min(k, len(ca))
                ix_s = np.argsort(d, axis=1, kind="stable")[:, :kk]
                out_idx[sel, :kk] = ca[ix_s]
                out_dist[sel, :kk] = np.take_along_axis(d, ix_s, axis=1)
        return out_idx, out_dist


def _ring_cells(cx, cy, r):
    if r == 0:
        return [(cx, cy)]
    cells = []
    for ix in range(cx - r, cx + r + 1):
        cells.append((ix, cy - r))
        cells.append((ix, cy + r))
    for iy in range(cy - r + 1, cy + r):
        cells.append((cx - r, iy))
        cells.append((cx + r, iy))
    return cells
