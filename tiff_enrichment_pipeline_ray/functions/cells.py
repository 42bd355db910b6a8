"""Hierarchical spatial cell encoders — vectorized numpy, no dependencies.

Implements the tiling index that replaces the reference's PostGIS GIST point
index (reference: scripts/create-tables.sql:74,79,257) per the north_star:
H3-style (res 5-9) and S2-style cell assignment as batched encoders.

The sandbox has no ``h3``/``s2sphere`` packages (SURVEY.md §7.0), so both
encoders are built from the published algorithms:

- **S2**: lat/lon → unit sphere → cube face → quadratic (u,v)→(s,t) transform
  → 30-bit (i,j) → Hilbert-curve position → 64-bit cell id laid out like S2's
  (3 face bits, 2·level position bits, trailing lsb marker). The Hilbert
  traversal is the classic d2xy/xy2d recurrence rather than Google's
  lookup-table variant, so ids are *deterministic and hierarchical* but not
  bit-identical to the s2geometry library (documented deviation; SURVEY §7.0:
  determinism > ecosystem-bit-compat). Golden vectors frozen in tests.

- **hex7 ("H3-style")**: icosahedral gnomonic projection per nearest face,
  aperture-7 hexagonal hierarchy via Generalized Balanced Ternary digits:
  the point is quantized to the res-9 hex lattice (cube rounding), the lattice
  coordinate (an Eisenstein-like integer a+b·ω, ω=e^{iπ/3}) is decomposed in
  base u=2+ω (|u|²=7 → aperture 7, rotation arctan(√3/5)≈19.107°), and a
  res-r cell id keeps the high-order digits. Hence **parent(res r) is exactly
  the digit-truncation of res r+1** — the hierarchy property H3 users rely on,
  by construction. Ids are NOT bit-compatible with Uber H3 (no network to
  install it; documented deviation), but are hexagonal, aperture-7,
  icosahedral, and deterministic.

Both encoders are pure int64/float64 numpy with per-level loops of fixed
depth (30 / 12), i.e. O(levels) vectorized passes per batch — suitable for
``map_batches`` over millions of rows per block.
"""

from __future__ import annotations

import numpy as np

# =====================================================================
# S2-style encoder
# =====================================================================

_S2_MAX_LEVEL = 30


def _latlon_to_xyz(lat_deg, lon_deg):
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    cos_lat = np.cos(lat)
    return cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)


def _xyz_to_face_uv(x, y, z):
    """Cube-face projection: face 0..5 = +x,+y,+z,-x,-y,-z (S2 layout)."""
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay,
                    np.where(ax >= az, 0, 2),
                    np.where(ay >= az, 1, 2)).astype(np.int64)
    major = np.choose(face, [x, y, z])
    face = np.where(major < 0, face + 3, face)
    # (u, v) per face, S2 convention
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (unum, vnum, den) in enumerate([
        (y, z, x),      # face 0 (+x): u=y/x  v=z/x
        (-x, z, y),     # face 1 (+y): u=-x/y v=z/y
        (-x, -y, z),    # face 2 (+z): u=-x/z v=-y/z
        (z, y, x),      # face 3 (-x): u=z/x  v=y/x   (den negative)
        (z, -x, y),     # face 4 (-y): u=z/y  v=-x/y
        (-y, -x, z),    # face 5 (-z): u=-y/z v=-x/z
    ]):
        m = face == f
        if m.any():
            u[m] = unum[m] / den[m]
            v[m] = vnum[m] / den[m]
    return face, u, v


def _uv_to_st(u):
    """S2 quadratic projection: equal-ish area within a face."""
    g = 0.5 * np.sqrt(1.0 + 3.0 * np.abs(u))
    return np.where(u >= 0.0, g, 1.0 - g)


def _hilbert_xy2d(order, i, j):
    """Classic Hilbert curve (x,y)→d, vectorized; order bits per axis."""
    i = i.astype(np.int64).copy()
    j = j.astype(np.int64).copy()
    d = np.zeros_like(i)
    s = np.int64(1) << (order - 1)
    while s > 0:
        rx = ((i & s) > 0).astype(np.int64)
        ry = ((j & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        flip = ry == 0
        swap_and_flip = flip & (rx == 1)
        i_f, j_f = i.copy(), j.copy()
        i = np.where(flip, j_f, i)
        j = np.where(flip, i_f, j)
        i = np.where(swap_and_flip, (s - 1) - i, i)
        j = np.where(swap_and_flip, (s - 1) - j, j)
        s >>= 1
    return d


def s2_cell(lat_deg, lon_deg, level=16):
    """Vectorized S2-style cell id at ``level`` (0..30). int64 output.

    Layout (like s2geometry): bits 61-63 face, then 2·30 position bits of the
    leaf Hilbert position with everything below the level marker zeroed, and
    a single 1 bit at position 2·(30-level) ("lsb marker"). The level-1
    parent zeroes two more bits and moves the marker — prefix-hierarchical
    by construction.
    """
    if not (0 <= level <= _S2_MAX_LEVEL):
        raise ValueError("level must be in 0..30")
    x, y, z = _latlon_to_xyz(lat_deg, lon_deg)
    face, u, v = _xyz_to_face_uv(x, y, z)
    s = _uv_to_st(u)
    t = _uv_to_st(v)
    max_ij = (1 << _S2_MAX_LEVEL) - 1
    i = np.clip((s * (1 << _S2_MAX_LEVEL)).astype(np.int64), 0, max_ij)
    j = np.clip((t * (1 << _S2_MAX_LEVEL)).astype(np.int64), 0, max_ij)
    d = _hilbert_xy2d(_S2_MAX_LEVEL, i, j)  # 60-bit position
    lsb_shift = 2 * (_S2_MAX_LEVEL - level)
    pos = (d >> lsb_shift) << lsb_shift
    lsb = np.int64(1) << max(lsb_shift - 1, 0) if lsb_shift > 0 else np.int64(0)
    # marker bit: at lsb position 2*(30-level); leaf (level 30) marker = bit 0
    marker = np.int64(1) << lsb_shift if lsb_shift < 63 else np.int64(0)
    if level == _S2_MAX_LEVEL:
        marker = np.int64(1)
        pos = (d << 1)
        return (face << 61) | pos | marker
    del lsb
    return (face << 61) | (pos << 1) | marker


# =====================================================================
# hex7 (H3-style aperture-7 icosahedral) encoder
# =====================================================================

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _icosa_faces():
    """20 face centers + deterministic tangent bases, computed from the
    canonical icosahedron (vertices (0,±1,±φ) and cyclic perms, normalized)."""
    verts = []
    for a, b in [(1.0, _PHI), (1.0, -_PHI), (-1.0, _PHI), (-1.0, -_PHI)]:
        verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    v = np.array(verts, dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # edges = pairs at the minimal nonzero distance
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d2, np.inf)
    edge2 = d2.min() + 1e-9
    adj = d2 <= edge2
    faces = []
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i, j]:
                continue
            for k in range(j + 1, n):
                if adj[i, k] and adj[j, k]:
                    faces.append((i, j, k))
    assert len(faces) == 20, f"expected 20 faces, got {len(faces)}"
    centers = np.array([v[list(f)].mean(axis=0) for f in faces])
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    # deterministic order: sort by (z, y, x) rounded for stability
    order = np.lexsort((np.round(centers[:, 0], 9),
                        np.round(centers[:, 1], 9),
                        np.round(centers[:, 2], 9)))
    centers = centers[order]
    zaxis = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(np.broadcast_to(zaxis, centers.shape), centers)
    norms = np.linalg.norm(e1, axis=1, keepdims=True)
    assert (norms > 1e-6).all(), "face center parallel to z-axis"
    e1 /= norms
    e2 = np.cross(centers, e1)
    return centers, e1, e2


_F_CENTERS, _F_E1, _F_E2 = _icosa_faces()

# aperture-7 base: u = 2 + ω  (ω = e^{iπ/3});  mult. matrix on (a,b):
#   (a+bω)(2+ω) = (2a−b) + (a+3b)ω ;  det = 7
# residue r = (3a+b) mod 7 → digit offset (da, db):
_GBT_DA = np.array([0, 0, 1, 1, -1, -1, 0], dtype=np.int64)
_GBT_DB = np.array([0, 1, -1, 0, 0, 1, -1], dtype=np.int64)
# (residues: (0,0)→0 (0,1)→1 (1,−1)→2 (1,0)→3 (−1,0)→4 (−1,1)→5 (0,−1)→6)

_HEX7_NDIGITS = 12      # digits extracted at res 9 (enough for the face disk)
_HEX7_FINEST = 9        # finest exposed resolution
_SQRT3 = np.sqrt(3.0)
_S0 = 0.35                                   # res-0 lattice scale (plane units)
_S9 = _S0 / (7.0 ** (_HEX7_FINEST / 2.0))    # res-9 lattice scale


def _hex_round(af, bf):
    """Cube rounding of fractional axial coords to the nearest hex center."""
    cf = -af - bf
    ra, rb, rc = np.round(af), np.round(bf), np.round(cf)
    da, db, dc = np.abs(ra - af), np.abs(rb - bf), np.abs(rc - cf)
    fix_a = (da > db) & (da > dc)
    fix_b = ~fix_a & (db > dc)
    ra = np.where(fix_a, -rb - rc, ra)
    rb = np.where(fix_b, -ra - rc, rb)
    return ra.astype(np.int64), rb.astype(np.int64)


def hex7_digits(lat_deg, lon_deg):
    """Face id + the 12 GBT digits (finest-first) of each point's res-9 hex.

    Returns (face[int64 n], digits[int64 n×12]).
    """
    x, y, z = _latlon_to_xyz(lat_deg, lon_deg)
    p = np.stack([np.asarray(x), np.asarray(y), np.asarray(z)], axis=-1)
    dots = p @ _F_CENTERS.T                       # n×20
    face = np.argmax(dots, axis=-1).astype(np.int64)
    n = _F_CENTERS[face]
    scale = (p * n).sum(-1)
    q = p / scale[:, None]                        # gnomonic onto tangent plane
    gx = (q * _F_E1[face]).sum(-1)
    gy = (q * _F_E2[face]).sum(-1)
    # fractional axial coords on the res-9 lattice (basis (1,0),(1/2,√3/2))
    bf = (2.0 * gy) / (_SQRT3 * _S9)
    af = gx / _S9 - bf / 2.0
    a, b = _hex_round(af, bf)
    digits = np.empty((a.shape[0], _HEX7_NDIGITS), dtype=np.int64)
    for k in range(_HEX7_NDIGITS):
        r = np.mod(3 * a + b, 7)
        digits[:, k] = r
        a2 = a - _GBT_DA[r]
        b2 = b - _GBT_DB[r]
        a = (3 * a2 + b2) // 7
        b = (-a2 + 2 * b2) // 7
    return face, digits


def hex7_cells_multi(lat_deg, lon_deg, res_list=(5, 6, 7, 8, 9)):
    """All requested resolutions from ONE digit extraction (shared work)."""
    face, digits = hex7_digits(lat_deg, lon_deg)
    out = {}
    for res in res_list:
        drop = _HEX7_FINEST - res
        packed = np.zeros_like(face)
        for k in range(_HEX7_NDIGITS - 1, drop - 1, -1):
            packed = (packed << 3) | digits[:, k]
        out[res] = (np.int64(res) << 56) | (face << 48) | packed
    return out


# =====================================================================
# simple lat/lon grid tiles (SQL-expressible; used by elevation layer,
# bucketed kNN, and the DuckDB-oracled tile census queries)
# =====================================================================


def grid_cell_xy(lat_deg, lon_deg, cell_deg, lon0=0.0, lat0=0.0):
    """Integer grid coordinates: ix = floor((lon−lon0)/cell), iy likewise."""
    lon = np.asarray(lon_deg, dtype=np.float64)
    lat = np.asarray(lat_deg, dtype=np.float64)
    ix = np.floor((lon - lon0) / cell_deg).astype(np.int64)
    iy = np.floor((lat - lat0) / cell_deg).astype(np.int64)
    return ix, iy


def grid_cell_id(lat_deg, lon_deg, cell_deg, lon0=0.0, lat0=0.0):
    """Single int64 id: ix·2^21 + iy (collision-free for |i| < 2^20)."""
    ix, iy = grid_cell_xy(lat_deg, lon_deg, cell_deg, lon0, lat0)
    return ix * (1 << 21) + iy
