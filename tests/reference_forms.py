"""Reference forms the tests compare the engine against.

Nothing in the package, the CLI or the driver calls these; they live here
so the package holds only code a workload runs.

Single-process reference-semantics oracle (SURVEY §7.1-6): the reference
pipeline's per-row math re-implemented *directly from the cited formulas*
in plain numpy/Python — deliberately NOT sharing the engine's index
structures (no STRtree, no cell-bucketed kNN, no virtual raster), so the
parity checks compare two independent implementations row-for-row:

- DMS parsing / georef: gps_utils.py:7-42, processor.py:100-133
- land-cover PIP: scalar crossing-number loop over every polygon, min
  polygon_id tie-break (the semantics PostGIS ST_Contains + the J2 tie rule
  pin down; create-tables.sql:135-139)
- weather kNN: full haversine matrix, first-minimum tie (station_id order;
  validation.py:85-99, init-db.sql:157-170)
- vegetation indices + quantizer: processor.py:479-550, :419
- calibration ×10000 clip: processor.py:381-385

Scalar and brute-force forms of engine kernels whose batched or indexed
forms the engine runs: ``calibrate``, ``BruteKNN``, the per-document
sketches, the per-resolution cell encoders and parents,
``chip_content_hashes``, ``decode_png`` and ``psnr``.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from tiff_enrichment_pipeline_ray.config import EARTH_RADIUS_M
from tiff_enrichment_pipeline_ray.functions.cells import (
    _HEX7_FINEST,
    _HEX7_NDIGITS,
    _S2_MAX_LEVEL,
    hex7_digits,
)
from tiff_enrichment_pipeline_ray.functions.geo import haversine_m
from tiff_enrichment_pipeline_ray.functions.sketch import (
    _MERSENNE31,
    _combine_shingles,
    _perm_values,
    _word_hashes,
    simhash64_batch,
)
from tiff_enrichment_pipeline_ray.functions.viz import _PNG_SIG

# ------------------------------------------------ reference-semantics oracle


def oracle_haversine_m(lat1, lon1, lat2, lon2):
    """Scalar-friendly haversine, R=6371000.0 (validation.py:98)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = np.radians(lat2 - lat1)
    dl = np.radians(lon2 - lon1)
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(a))


def oracle_pip(lat: float, lon: float, rings: list, polygon_ids) -> int:
    """Crossing-number PIP over EVERY polygon (no index); smallest
    polygon_id among containers; −1 if none."""
    best = -1
    for pid, ring in zip(polygon_ids, rings):
        inside = False
        k = len(ring)
        for j in range(k):
            x0, y0 = ring[j]
            x1, y1 = ring[(j + 1) % k]
            if (y0 <= lat < y1) or (y1 <= lat < y0):
                if lon < x0 + (lat - y0) * (x1 - x0) / (y1 - y0):
                    inside = not inside
        if inside and (best < 0 or pid < best):
            best = int(pid)
    return best


def oracle_nearest_station(lat: float, lon: float, st_lat, st_lon):
    """Index of the nearest station (ties → lowest index = lowest
    station_id when the arrays are id-sorted)."""
    d = oracle_haversine_m(lat, lon, np.asarray(st_lat), np.asarray(st_lon))
    i = int(np.argmin(d))
    return i, float(d[i])


def oracle_ndvi_quantized(nir_dn: np.ndarray, red_dn: np.ndarray) -> np.ndarray:
    """DN → calibrate ×10000 clip (processor.py:381-385) → NDVI with
    0-where-denom-0 (:479-486) → (x+1)·32767.5 clip uint16 (:419)."""
    nir = np.clip(nir_dn.astype("float32") * 10000.0, 0, 65535) \
        .astype("uint16").astype("float32")
    red = np.clip(red_dn.astype("float32") * 10000.0, 0, 65535) \
        .astype("uint16").astype("float32")
    den = nir + red
    ndvi = np.divide(nir - red, den, out=np.zeros_like(nir), where=den != 0)
    return np.clip((ndvi + 1.0) * 32767.5, 0, 65535).astype("uint16")


def oracle_dms_to_decimal(deg: float, minutes: float, seconds: float,
                          hemi: str) -> float:
    """gps_utils.py:16-22: deg + m/60 + s/3600, negated for S/W."""
    v = deg + minutes / 60.0 + seconds / 3600.0
    return -v if hemi.upper() in ("S", "W") else v


def oracle_georef(lat: float, lon: float, alt: float, width: int, height: int,
                  focal_mm=5.4, sensor_w_mm=4.8, sensor_h_mm=3.6):
    """processor.py:100-133 verbatim math: GSD → m/deg → pixel size → origin."""
    import math

    gsd_x = (sensor_w_mm * alt) / (focal_mm * width)
    gsd_y = (sensor_h_mm * alt) / (focal_mm * height)
    m_lon = (2 * math.pi * EARTH_RADIUS_M * math.cos(math.radians(lat))) / 360.0
    m_lat = (2 * math.pi * EARTH_RADIUS_M) / 360.0
    px = gsd_x / m_lon
    py = gsd_y / m_lat
    west = lon - (width * px / 2.0)
    north = lat + (height * py / 2.0)
    return {"px_deg": px, "py_deg": py, "west": west, "north": north}


# ------------------------------------------------------------- indices


def calibrate(dn_float32):
    """Radiometric calibration: ×10000, clip [0,65535] → uint16
    (processor.py:381-385)."""
    return np.clip(dn_float32.astype("float32") * 10000.0, 0, 65535).astype("uint16")


# ----------------------------------------------------------------- kNN


class BruteKNN:
    def __init__(self, lat, lon):
        self.lat = np.asarray(lat, dtype=np.float64)
        self.lon = np.asarray(lon, dtype=np.float64)

    def query(self, qlat, qlon, k=1):
        """→ (idx (n,k) int64, dist (n,k) float64); idx −1 padded if < k stations."""
        qlat = np.asarray(qlat, dtype=np.float64)
        qlon = np.asarray(qlon, dtype=np.float64)
        n, m = len(qlat), len(self.lat)
        d = haversine_m(qlat[:, None], qlon[:, None], self.lat[None, :], self.lon[None, :])
        kk = min(k, m)
        # stable selection: ties resolved by smaller index (pre-sorted by id)
        idx = np.argsort(d, axis=1, kind="stable")[:, :kk]
        dist = np.take_along_axis(d, idx, axis=1)
        if kk < k:
            idx = np.pad(idx, ((0, 0), (0, k - kk)), constant_values=-1)
            dist = np.pad(dist, ((0, 0), (0, k - kk)), constant_values=np.inf)
        return idx.astype(np.int64), dist


# ------------------------------------------------------------ sketches


def shingle_hashes(text: str, k: int = 3, _cache: dict | None = None) -> np.ndarray:
    """uint64 hashes of word k-shingles (unique, sorted)."""
    cache = _cache if _cache is not None else {}
    words = text.split()
    return _combine_shingles(_word_hashes(words, cache), k)


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_perm,) uint64 signature; empty shingle set → all p."""
    if len(sh) == 0:
        return np.full(len(a), _MERSENNE31, dtype=np.uint64)
    return _perm_values(sh, a, b).min(axis=0)


def simhash64(sh: np.ndarray) -> np.int64:
    """64-bit sign sketch of the shingle-hash multiset (sign-safe 63 bits)."""
    return simhash64_batch([sh])[0]


# --------------------------------------------------------------- cells


def s2_parent(cell_id, parent_level):
    """Digit-truncation parent of an s2_cell id (same layout)."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    face = cell_id >> 61
    pos = (cell_id & ((np.int64(1) << 61) - 1)) >> 1
    lsb_shift = 2 * (_S2_MAX_LEVEL - parent_level)
    pos = (pos >> lsb_shift) << lsb_shift
    marker = np.int64(1) << lsb_shift
    return (face << 61) | (pos << 1) | marker


def hex7_cell(lat_deg, lon_deg, res=9):
    """Vectorized hex7 cell id at ``res`` (0..9). int64.

    Layout: bits 56-59 res, 48-53 face, low 3·(12−(9−res)) bits = GBT digits
    (finest digit in the lowest 3 bits). ``hex7_parent`` = drop 3 low bits.
    """
    if not (0 <= res <= _HEX7_FINEST):
        raise ValueError("res must be 0..9")
    face, digits = hex7_digits(lat_deg, lon_deg)
    drop = _HEX7_FINEST - res
    packed = np.zeros_like(face)
    for k in range(_HEX7_NDIGITS - 1, drop - 1, -1):
        packed = (packed << 3) | digits[:, k]
    return (np.int64(res) << 56) | (face << 48) | packed


def hex7_parent(cell_id):
    """Exact digit-truncation parent (res−1)."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    res = cell_id >> 56
    face = (cell_id >> 48) & 0xFF
    packed = cell_id & ((np.int64(1) << 48) - 1)
    return ((res - 1) << 56) | (face << 48) | (packed >> 3)


# --------------------------------------------------------------- codecs


def chip_content_hashes(px: np.ndarray, tile: int) -> np.ndarray:
    """Per-chip 64-bit content hash, chips in x-major order: each chip's
    row-major pixels dotted with base**i mod 2^64, the powers built by a
    scalar loop in Python ints."""
    base, pw = 0x9E3779B97F4A7C15, [1]
    for _ in range(1, tile * tile):
        pw.append(pw[-1] * base % (1 << 64))
    pw = np.array(pw, dtype=np.uint64)
    out = []
    for x in range(px.shape[1] // tile):
        for y in range(px.shape[0] // tile):
            chip = px[y * tile:(y + 1) * tile, x * tile:(x + 1) * tile]
            with np.errstate(over="ignore"):
                out.append((chip.astype(np.uint64).ravel() * pw).sum())
    return np.array(out, dtype=np.uint64).view(np.int64)


def decode_png(data: bytes):
    """PNG bytes (as written by encode_png) → uint8 array. Test helper."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, idat, meta = 8, b"", None
    while pos < len(data):
        (ln,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + ln]
        if tag == b"IHDR":
            w, h, depth, ctype = struct.unpack_from(">IIBB", payload, 0)
            if depth != 8 or ctype not in (0, 2):
                raise ValueError("decoder only handles 8-bit gray/RGB")
            meta = (w, h, ctype)
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + ln
    w, h, ctype = meta
    nch = 3 if ctype == 2 else 1
    lines = np.frombuffer(zlib.decompress(idat),
                          dtype=np.uint8).reshape(h, 1 + w * nch)
    if (lines[:, 0] != 0).any():
        raise ValueError("decoder only handles filter-0 scanlines")
    px = lines[:, 1:]
    return px.reshape(h, w, 3) if nch == 3 else px.reshape(h, w)


def psnr(orig: np.ndarray, recon: np.ndarray, max_val=65535.0) -> float:
    """PSNR in dB; inf for exact match."""
    err = orig.astype(np.float64) - recon.astype(np.float64)
    mse = float((err * err).mean())
    if mse == 0:
        return float("inf")
    return 20.0 * np.log10(max_val) - 10.0 * np.log10(mse)
