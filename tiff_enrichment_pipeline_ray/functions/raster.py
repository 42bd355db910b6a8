"""Raster↔vector join: elevation tile sampling (bilinear).

Replaces the reference's USGS 3DEP / SRTM elevation API enrichment (reference:
scripts/create-tables.sql:123-126 — `elevation_meters DECIMAL(8,2)` + source
enum at scripts/init-db.sql:59-65). The elevation layer is a grid of tiles
(FIXTURES.md §4); the sampler assembles them into one virtual uniform raster
(node-centered) and bilinearly interpolates at each (lat, lon).

Also provides the general affine bilinear resample used for band alignment
(reference: processor.py:300-359 — reproject each band onto the band-3 grid
with bilinear resampling; both grids are north-up WGS84 affine grids, so the
warp reduces to an affine pixel-coordinate mapping + bilinear sampling;
out-of-bounds fills 0 like rasterio's default). The same function serves
the capture alignment and the ImageResize / ImageFeatures stages.
"""

from __future__ import annotations

import numpy as np


class ElevationGrid:
    """Virtual uniform raster assembled from a tile table (broadcast layer).

    tiles: dict of numpy columns — tile_id, min_lon, min_lat, res_deg, nx, ny,
    data (list of float32 bytes). Tiles must share res_deg and form an
    axis-aligned grid (the synthetic layer does; asserted).
    """

    def __init__(self, tiles: dict):
        res = np.asarray(tiles["res_deg"], dtype=np.float64)
        assert len(res) > 0 and np.allclose(res, res[0]), "uniform res required"
        self.res = float(res[0])
        nx = np.asarray(tiles["nx"], dtype=np.int64)
        ny = np.asarray(tiles["ny"], dtype=np.int64)
        assert (nx == nx[0]).all() and (ny == ny[0]).all()
        self.tnx, self.tny = int(nx[0]), int(ny[0])
        min_lon = np.asarray(tiles["min_lon"], dtype=np.float64)
        min_lat = np.asarray(tiles["min_lat"], dtype=np.float64)
        self.lon0 = float(min_lon.min())
        self.lat0 = float(min_lat.min())
        tx = np.rint((min_lon - self.lon0) / (self.res * self.tnx)).astype(np.int64)
        ty = np.rint((min_lat - self.lat0) / (self.res * self.tny)).astype(np.int64)
        ncols = int(tx.max()) + 1
        nrows = int(ty.max()) + 1
        self.grid = np.full((nrows * self.tny, ncols * self.tnx), np.nan, dtype=np.float32)
        for i in range(len(tx)):
            arr = np.frombuffer(tiles["data"][i], dtype="<f4").reshape(self.tny, self.tnx)
            r0, c0 = int(ty[i]) * self.tny, int(tx[i]) * self.tnx
            self.grid[r0:r0 + self.tny, c0:c0 + self.tnx] = arr
        self.nrows, self.ncols = self.grid.shape

    def sample(self, lat, lon):
        """Bilinear sample at (lat, lon); NaN outside the covered extent.

        Grid nodes are cell centers: node (r,c) is at
        (lat0 + (r+0.5)·res, lon0 + (c+0.5)·res).
        """
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        fc = (lon - self.lon0) / self.res - 0.5
        fr = (lat - self.lat0) / self.res - 0.5
        c0 = np.floor(fc).astype(np.int64)
        r0 = np.floor(fr).astype(np.int64)
        wc = fc - c0
        wr = fr - r0
        # clamp edges (constant extrapolation half a cell beyond centers)
        c0c = np.clip(c0, 0, self.ncols - 2)
        r0c = np.clip(r0, 0, self.nrows - 2)
        inside = (fc >= -0.5) & (fc <= self.ncols - 0.5) & (fr >= -0.5) & (fr <= self.nrows - 0.5)
        wc = np.clip(np.where(c0 == c0c, wc, np.where(c0 < 0, 0.0, 1.0)), 0.0, 1.0)
        wr = np.clip(np.where(r0 == r0c, wr, np.where(r0 < 0, 0.0, 1.0)), 0.0, 1.0)
        g = self.grid
        v00 = g[r0c, c0c].astype(np.float64)
        v01 = g[r0c, c0c + 1].astype(np.float64)
        v10 = g[r0c + 1, c0c].astype(np.float64)
        v11 = g[r0c + 1, c0c + 1].astype(np.float64)
        val = (v00 * (1 - wr) * (1 - wc) + v01 * (1 - wr) * wc
               + v10 * wr * (1 - wc) + v11 * wr * wc)
        return np.where(inside, val, np.nan)


def affine_bilinear_resample(src: np.ndarray,
                             src_west: float, src_north: float,
                             src_px: float, src_py: float,
                             dst_west: float, dst_north: float,
                             dst_px: float, dst_py: float,
                             dst_h: int, dst_w: int,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Resample ``src`` onto the destination north-up grid, bilinear, fill 0.

    Pixel (row, col) centers: lon = west + (col+0.5)·px,
    lat = north − (row+0.5)·py (px, py > 0 in degrees). Matches the semantics
    of rasterio.warp.reproject between two EPSG:4326 north-up grids
    (processor.py:330-343) up to resampling kernel details.

    Returns a float32 (dst_h, dst_w) grid, written into ``out`` when given
    (a float32 array of that shape, e.g. one band of a stack). Every value
    is the float32 expression ``(a·(1−wr) + b·wr)·(1−wc) + (c·(1−wr) +
    d·wr)·wc`` of the clamped neighbours, each product and sum rounded in
    that order. Destination rows and columns more than half a pixel
    outside the source are set to 0.0. Contract: ``src`` holds finite,
    non-negative values (every caller passes decoded pixels); for those,
    the 0.0 fill equals multiplying the interpolated value by 0.
    """
    sh, sw = src.shape
    cols = np.arange(dst_w, dtype=np.float64)
    rows = np.arange(dst_h, dtype=np.float64)
    lon = dst_west + (cols + 0.5) * dst_px
    lat = dst_north - (rows + 0.5) * dst_py
    fc = (lon - src_west) / src_px - 0.5          # (w,)
    fr = (src_north - lat) / src_py - 0.5         # (h,)
    # axis-aligned affine ⇒ the mapping is SEPARABLE: interpolate rows, then
    # columns (1-D index gathers instead of four (H,W) fancy-index gathers).
    # clamp base cell; weights relative to the CLAMPED base (constant
    # extrapolation half a pixel beyond centers); minimum(maximum(·)) is
    # np.clip without its wrapper's per-call cost
    c0c = np.minimum(np.maximum(np.floor(fc).astype(np.int64), 0), sw - 2)
    r0c = np.minimum(np.maximum(np.floor(fr).astype(np.int64), 0), sh - 2)
    wc = np.minimum(np.maximum(fc - c0c, 0.0), 1.0).astype(np.float32)
    wr = np.minimum(np.maximum(fr - r0c, 0.0), 1.0).astype(np.float32)
    # rows: ri = s[r0]·(1−wr) + s[r0+1]·wr; the gathered rows' promotion to
    # float32 is exact
    ri = np.asarray(src[r0c], dtype=np.float32)
    ri *= (1.0 - wr)[:, None]
    tmp = np.asarray(src[r0c + 1], dtype=np.float32)
    tmp *= wr[:, None]
    ri += tmp
    # columns: v = ri[:, c0]·(1−wc) + ri[:, c0+1]·wc, gathered as rows of
    # the transpose (a row gather copies whole rows; a column gather
    # copies element by element)
    rt = ri.T.copy()
    vt = rt[c0c]
    vt *= (1.0 - wc)[:, None]
    tmp = rt[c0c + 1]
    tmp *= wc[:, None]
    vt += tmp
    if out is None:
        out = np.empty((dst_h, dst_w), dtype=np.float32)
    out[...] = vt.T
    # zero fill: fr and fc are monotone in the index, so a row or column
    # lies out of range only if an end point does
    if dst_h and not (-0.5 <= fr[0] <= sh - 0.5 and -0.5 <= fr[-1] <= sh - 0.5):
        out[(fr < -0.5) | (fr > sh - 0.5)] = 0.0
    if dst_w and not (-0.5 <= fc[0] <= sw - 0.5 and -0.5 <= fc[-1] <= sw - 0.5):
        out[:, (fc < -0.5) | (fc > sw - 0.5)] = 0.0
    return out


def slope_aspect(grid, dx_m, dy_m):
    """Horn (1981) 3×3 finite-difference slope and aspect over a uniform
    raster — the terrain derivative every DEM pipeline ships (ESRI
    Slope/Aspect; gdaldem). Rows index latitude SOUTH→NORTH, columns
    WEST→EAST (the ElevationGrid layout). ``dx_m`` is the east-west cell
    size in meters — a scalar or per-row (nrows,) vector (it shrinks
    with cos(latitude)); ``dy_m`` the north-south size.

    Returns (slope_deg, aspect_deg): slope in [0, 90); aspect = the
    direction of steepest DESCENT in degrees clockwise from north in
    [0, 360), with −1.0 as the flat-cell sentinel (p = q = 0). Edge
    cells use replicate padding. NaN cells propagate NaN."""
    z = np.pad(np.asarray(grid, dtype=np.float64), 1, mode="edge")
    # stencil (lat increases with row):  g h i   <- north row (r+1)
    #                                    d e f
    #                                    a b c   <- south row (r-1)
    a = z[:-2, :-2]; b = z[:-2, 1:-1]; c = z[:-2, 2:]       # noqa: E702
    d = z[1:-1, :-2]; f = z[1:-1, 2:]                       # noqa: E702
    g = z[2:, :-2]; h = z[2:, 1:-1]; i = z[2:, 2:]          # noqa: E702
    dx = np.asarray(dx_m, dtype=np.float64)
    if dx.ndim == 1:
        dx = dx[:, None]
    p = ((c + 2.0 * f + i) - (a + 2.0 * d + g)) / (8.0 * dx)   # dz/d(east)
    q = ((g + 2.0 * h + i) - (a + 2.0 * b + c)) / (8.0 * float(dy_m))
    slope = np.degrees(np.arctan(np.hypot(p, q)))
    flat = (p == 0.0) & (q == 0.0)
    aspect = (np.degrees(np.arctan2(-p, -q)) + 360.0) % 360.0
    aspect = np.where(flat, -1.0, aspect)
    return slope, aspect


def hillshade(slope_deg, aspect_deg, azimuth_deg: float = 315.0,
              altitude_deg: float = 45.0):
    """Lambertian hillshade in [0, 1] from slope/aspect (the ESRI/gdaldem
    formula): cos(zenith)·cos(slope) + sin(zenith)·sin(slope)·
    cos(azimuth − aspect), clamped at 0. Flat cells (aspect sentinel −1)
    shade cos(zenith) exactly."""
    zen = np.radians(90.0 - altitude_deg)
    az = np.radians(azimuth_deg)
    sl = np.radians(np.asarray(slope_deg, dtype=np.float64))
    asp = np.radians(np.asarray(aspect_deg, dtype=np.float64))
    hs = (np.cos(zen) * np.cos(sl)
          + np.sin(zen) * np.sin(sl) * np.cos(az - asp))
    hs = np.where(np.asarray(aspect_deg) == -1.0,
                  np.cos(zen) * np.cos(sl), hs)
    return np.clip(hs, 0.0, 1.0)


def laplacian_var(img):
    """Variance of the 4-neighbor Laplacian over the VALID interior —
    the standard single-number blur detector (Pech-Pacheco et al. 2000,
    'variance of Laplacian'): sharp imagery has high-frequency content,
    defocused imagery suppresses it. Returns 0.0 for images smaller
    than 3×3."""
    z = np.asarray(img, dtype=np.float64)
    if z.shape[0] < 3 or z.shape[1] < 3:
        return 0.0
    lap = (z[:-2, 1:-1] + z[2:, 1:-1] + z[1:-1, :-2] + z[1:-1, 2:]
           - 4.0 * z[1:-1, 1:-1])
    return float(lap.var())


def tenengrad(img):
    """Mean Sobel gradient energy (gx² + gy²) over the valid interior —
    the Tenengrad focus measure (Krotkov 1988). Returns 0.0 for images
    smaller than 3×3."""
    z = np.asarray(img, dtype=np.float64)
    if z.shape[0] < 3 or z.shape[1] < 3:
        return 0.0
    gx = ((z[:-2, 2:] + 2.0 * z[1:-1, 2:] + z[2:, 2:])
          - (z[:-2, :-2] + 2.0 * z[1:-1, :-2] + z[2:, :-2]))
    gy = ((z[2:, :-2] + 2.0 * z[2:, 1:-1] + z[2:, 2:])
          - (z[:-2, :-2] + 2.0 * z[:-2, 1:-1] + z[:-2, 2:]))
    return float((gx * gx + gy * gy).mean())


def contour_segments(grid, level: float):
    """Marching-squares iso-contour extraction (Lorensen & Cline's 2-D
    case) at one level: returns (x0, y0, x1, y1) float64 arrays of line
    segments in GRID coordinates (x = column, y = row), with linear
    interpolation along cell edges and the center-average rule for the
    two saddle cases. 'High' = value >= level. Straight ramps reproduce
    exact straight lines; closed contours produce topologically closed
    polylines (every endpoint shared by exactly two segments) — both
    pinned in tests."""
    z = np.asarray(grid, dtype=np.float64)
    lv = np.float64(level)
    a = z[:-1, :-1]; b = z[:-1, 1:]; c = z[1:, 1:]; d = z[1:, :-1]  # noqa: E702
    case = ((a >= lv) * 1 + (b >= lv) * 2
            + (c >= lv) * 4 + (d >= lv) * 8).astype(np.int8)
    ny, nx = a.shape
    cx, cy = np.meshgrid(np.arange(nx, dtype=np.float64),
                         np.arange(ny, dtype=np.float64))

    def interp(v0, v1):
        dv = v1 - v0
        return np.where(dv != 0.0, (lv - v0) / np.where(dv == 0.0, 1.0, dv),
                        0.0)

    # edge crossing points: B(ottom) a-b, R(ight) b-c, T(op) d-c, L(eft) a-d
    bx, by = cx + interp(a, b), cy
    rx, ry = cx + 1.0, cy + interp(b, c)
    tx, ty = cx + interp(d, c), cy + 1.0
    lx, ly = cx, cy + interp(a, d)
    center_hi = (a + b + c + d) / 4.0 >= lv

    # case -> list of (edge0, edge1); saddles handled separately
    table = {1: ("L", "B"), 2: ("B", "R"), 3: ("L", "R"), 4: ("T", "R"),
             6: ("B", "T"), 7: ("L", "T"), 8: ("L", "T"), 9: ("B", "T"),
             11: ("T", "R"), 12: ("L", "R"), 13: ("B", "R"),
             14: ("L", "B")}
    pts = {"B": (bx, by), "R": (rx, ry), "T": (tx, ty), "L": (lx, ly)}
    seg = []

    def emit(mask, e0, e1):
        if not mask.any():
            return
        (x0, y0), (x1, y1) = pts[e0], pts[e1]
        seg.append(np.stack([x0[mask], y0[mask], x1[mask], y1[mask]],
                            axis=1))

    for k, (e0, e1) in table.items():
        emit(case == k, e0, e1)
    # saddle 5 (a,c high): center high -> arcs hug the LOW corners b, d
    emit((case == 5) & center_hi, "B", "R")
    emit((case == 5) & center_hi, "L", "T")
    emit((case == 5) & ~center_hi, "L", "B")
    emit((case == 5) & ~center_hi, "T", "R")
    # saddle 10 (b,d high): mirrored
    emit((case == 10) & center_hi, "L", "B")
    emit((case == 10) & center_hi, "T", "R")
    emit((case == 10) & ~center_hi, "B", "R")
    emit((case == 10) & ~center_hi, "L", "T")
    if not seg:
        e = np.empty(0, dtype=np.float64)
        return e, e.copy(), e.copy(), e.copy()
    s = np.concatenate(seg, axis=0)
    return s[:, 0], s[:, 1], s[:, 2], s[:, 3]


_D8_OFF = np.array([(-1, -1), (-1, 0), (-1, 1), (0, -1),
                    (0, 1), (1, -1), (1, 0), (1, 1)], dtype=np.int64)
_D8_DIST = np.array([np.sqrt(2.0), 1.0, np.sqrt(2.0), 1.0,
                     1.0, np.sqrt(2.0), 1.0, np.sqrt(2.0)])


def flow_d8(grid):
    """D8 flow direction (O'Callaghan & Mark 1984): every cell drains to
    the neighbor with the steepest positive drop/distance (distance √2
    on diagonals); ties resolve to the FIRST direction in the fixed
    (NW,N,NE,W,E,SW,S,SE) order; cells with no lower neighbor (pits,
    flats, and anything draining off-grid) get −1. Returns an int64
    array of flat receiver indices (r*ncols + c)."""
    z = np.asarray(grid, dtype=np.float64)
    ny, nx = z.shape
    pad = np.pad(z, 1, mode="constant", constant_values=np.inf)
    best_slope = np.zeros((ny, nx))
    best_dir = np.full((ny, nx), -1, dtype=np.int64)
    for k, ((dr, dc), dist) in enumerate(zip(_D8_OFF, _D8_DIST)):
        nb = pad[1 + dr:1 + dr + ny, 1 + dc:1 + dc + nx]
        slope = (z - nb) / dist
        take = slope > best_slope  # strict: ties keep the earlier k
        best_slope = np.where(take, slope, best_slope)
        best_dir = np.where(take, k, best_dir)
    rr, cc = np.meshgrid(np.arange(ny, dtype=np.int64),
                         np.arange(nx, dtype=np.int64), indexing="ij")
    has = best_dir >= 0
    dr = np.where(has, _D8_OFF[np.clip(best_dir, 0, 7), 0], 0)
    dc = np.where(has, _D8_OFF[np.clip(best_dir, 0, 7), 1], 0)
    recv = np.where(has, (rr + dr) * nx + (cc + dc), -1)
    return recv


def flow_accumulation(recv, shape):
    """Upstream cell count per cell (self included) for a D8 receiver
    field: since every cell has at most ONE outflow, the drainage graph
    is a forest, so the fixpoint of acc = 1 + Σ donors' acc converges in
    max-flow-length iterations, each a vectorized scatter-add. Returns
    float64 (ny, nx)."""
    ny, nx = shape
    r = np.asarray(recv, dtype=np.int64).ravel()
    ok = r >= 0
    src = np.flatnonzero(ok)
    dst = r[ok]
    acc = np.ones(ny * nx)
    for _ in range(ny * nx):  # bounded; breaks at fixpoint
        nxt = np.ones(ny * nx)
        np.add.at(nxt, dst, acc[src])
        if np.array_equal(nxt, acc):
            break
        acc = nxt
    return acc.reshape(ny, nx)
