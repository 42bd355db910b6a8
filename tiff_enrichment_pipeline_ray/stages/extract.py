"""Stage 1-4: metadata extraction, georeferencing, validation, cell assign.

All four are STATELESS vectorized ``map_batches`` transforms
(batch_format="pyarrow"); Ray's streaming executor fuses the chain into one
task per block, so header parse / parsed GPS / georef math / cell encode run
in a single pass over each Arrow block. Pixels are decoded once, later, by
the flagship's decode stage (pipelines/flagship.py), which adds the
per-image stats.

Reference semantics re-implemented (not copied):
- filename classification IMG_\\d{4}_[1-5] → micasense vs regular
  (main.py:110-121); capture-id extraction (main.py:117-121). The engine
  accepts ≥4 digits so capture counts can exceed 9999 at scale (documented
  deviation; the reference globs directories of ≤10⁴ files).
- EXIF-analogue header parse + GPS DMS/altitude/timestamp parsers
  (gps_utils.py:44-96, 7-42, 73-86) — via functions.geo.
- quality validation predicates (validation.py:172-236, main.py:165-175):
  min dims, value range, zero-ratio, DateTime presence; georeference checks
  (main.py:494-507): CRS, pixel-size bounds; NL-bounds (main.py:476-517).
- cell assignment: hex7 res 5-9 + S2 + grid tile (north_star tiling index).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import (
    GRID_CELL_DEG,
    MAX_ZERO_RATIO,
    MIN_HEIGHT,
    MIN_WIDTH,
    NL_LAT_MAX,
    NL_LAT_MIN,
    NL_LON_MAX,
    NL_LON_MIN,
    PIXEL_SIZE_DEG_MAX,
    PIXEL_SIZE_DEG_MIN,
)
from ..functions import codec, geo
from ..functions.cells import grid_cell_id, hex7_cells_multi, s2_cell

_MICASENSE_RE = re.compile(r"^IMG_(\d{4,})_([1-5])$")


def extract_meta_light(batch: pa.Table) -> pa.Table:
    """Header-only metadata extraction — parses the EXIF-analogue header
    WITHOUT decompressing pixels (used by the main pass and the skew census;
    the flagship's decode stage decodes the pixels later, once)."""
    ids = batch.column("image_id").to_pylist()
    blobs = batch.column("bytes").to_pylist()
    n = len(ids)
    decode_ok = np.zeros(n, dtype=bool)
    lat_s = [""] * n
    lon_s = [""] * n
    alt_s = [""] * n
    ts_s = [""] * n
    cam = [""] * n
    for i, blob in enumerate(blobs):
        hm = codec.decode_header_meta(blob)
        if hm is None:
            continue
        decode_ok[i] = True
        meta = hm["meta"]
        lat_s[i] = meta.get("GPS Latitude", "")
        lon_s[i] = meta.get("GPS Longitude", "")
        alt_s[i] = meta.get("GPS Altitude", "")
        ts_s[i] = meta.get("Date/Time Original", "")
        cam[i] = meta.get("Camera Model Name", "")

    sid = pd.Series(ids, dtype="string")
    m = sid.str.extract(r"^IMG_(\d{4,})_([1-5])$")
    is_mica = m[0].notna().to_numpy(dtype=bool)
    capture_id = ("IMG_" + m[0]).fillna("").to_numpy(dtype=object)
    band = pd.to_numeric(m[1], errors="coerce").fillna(0).to_numpy(dtype=np.int32)

    lat = geo.parse_gps_coords(pd.Series(lat_s))
    lon = geo.parse_gps_coords(pd.Series(lon_s))
    has_gps = np.array([bool(a) and bool(b) for a, b in zip(lat_s, lon_s)])
    alt = geo.parse_altitude(pd.Series(alt_s))
    ts = geo.parse_exif_datetime(pd.Series(ts_s))

    cols = {
        "decode_ok": decode_ok,
        "file_class": np.where(is_mica, "micasense", "regular"),
        "capture_id": capture_id.astype(str),
        "band": band,
        "has_gps": has_gps,
        "lat": np.where(has_gps, lat, np.nan),
        "lon": np.where(has_gps, lon, np.nan),
        "alt_m": alt,
        "camera": np.array(cam, dtype=object).astype(str),
        "ts_raw": np.array(ts_s, dtype=object).astype(str),
    }
    out = batch
    for k, v in cols.items():
        out = out.append_column(k, pa.array(v))
    out = out.append_column("ts", pa.Array.from_pandas(ts, type=pa.timestamp("us")))
    return out


def georef(batch: pa.Table) -> pa.Table:
    """GSD → pixel size in degrees → affine origin (processor.py:100-133)."""
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    alt = batch.column("alt_m").to_numpy(zero_copy_only=False)
    w = batch.column("w").to_numpy(zero_copy_only=False)
    h = batch.column("h").to_numpy(zero_copy_only=False)
    alt_f = np.nan_to_num(alt, nan=0.0)
    t = geo.georef_transform(lat, lon, alt_f, w, h)
    has = batch.column("has_gps").to_numpy(zero_copy_only=False)
    out = batch
    for k in ("px_deg", "py_deg", "west", "north", "gsd_x", "gsd_y"):
        out = out.append_column(k, pa.array(np.where(has, t[k], np.nan)))
    out = out.append_column("crs", pa.array(np.where(has, "EPSG:4326", "").astype(object).astype(str)))
    # M23 surface-area QA column (validation.py:68-150)
    area = geo.surface_area_m2(t["west"], t["north"], t["px_deg"], t["py_deg"], w, h)
    out = out.append_column("footprint_m2", pa.array(np.where(has, area, np.nan)))
    return out


def validate(batch: pa.Table) -> pa.Table:
    """Vectorized quality predicates → `issues` list<string> + `valid` bool.

    Predicate set = reference V1/V3/M25 (validation.py:172-236,
    main.py:165-175,476-517). Data errors are columns, never exceptions."""
    n = batch.num_rows
    w = batch.column("w").to_numpy(zero_copy_only=False)
    h = batch.column("h").to_numpy(zero_copy_only=False)
    ok = batch.column("decode_ok").to_numpy(zero_copy_only=False)
    zr = batch.column("zero_ratio").to_numpy(zero_copy_only=False)
    ts_raw = pd.Series(batch.column("ts_raw").to_pylist())
    has_gps = batch.column("has_gps").to_numpy(zero_copy_only=False)
    px = batch.column("px_deg").to_numpy(zero_copy_only=False)
    py = batch.column("py_deg").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    lon = batch.column("lon").to_numpy(zero_copy_only=False)

    checks = [
        ("decode_failed", ~ok),
        ("dims_too_small", (w < MIN_WIDTH) | (h < MIN_HEIGHT)),
        ("zero_ratio_exceeded", ok & (zr > MAX_ZERO_RATIO)),
        ("missing_datetime", (ts_raw.str.len() == 0).to_numpy(dtype=bool)),
        ("missing_gps", ~has_gps),
        # M24 coordinate validators (init-db.sql:142-154)
        ("coords_out_of_range",
         has_gps & ~((lat >= -90) & (lat <= 90) & (lon >= -180) & (lon <= 180))),
        ("pixel_size_out_of_range",
         has_gps & ~((px > PIXEL_SIZE_DEG_MIN) & (px < PIXEL_SIZE_DEG_MAX)
                     & (py > PIXEL_SIZE_DEG_MIN) & (py < PIXEL_SIZE_DEG_MAX))),
    ]
    # V4 file integrity: stored phash must match the decoded pixels' hash
    if "phash_ok" in batch.schema.names:
        ph_ok = batch.column("phash_ok").to_numpy(zero_copy_only=False)
        checks.append(("phash_mismatch", ok & ~ph_ok))
    issue_lists = [[] for _ in range(n)]
    for name, mask in checks:
        for i in np.flatnonzero(mask):
            issue_lists[i].append(name)
    valid = np.ones(n, dtype=bool)
    for name, mask in checks:
        valid &= ~mask

    half_w = np.abs(px) * w / 2.0
    half_h = np.abs(py) * h / 2.0
    in_nl = (has_gps
             & (lon - half_w >= NL_LON_MIN) & (lon + half_w <= NL_LON_MAX)
             & (lat - half_h >= NL_LAT_MIN) & (lat + half_h <= NL_LAT_MAX))

    out = batch.append_column("issues", pa.array(issue_lists, pa.list_(pa.string())))
    out = out.append_column("valid", pa.array(valid))
    out = out.append_column("in_nl", pa.array(in_nl))
    return out


def assign_cells(batch: pa.Table) -> pa.Table:
    """hex7 res 5-9 + S2 (level 16) + grid tile per point; one digit
    extraction shared across resolutions. −1 for rows without GPS."""
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    has = batch.column("has_gps").to_numpy(zero_copy_only=False)
    lat_f = np.nan_to_num(lat, nan=0.0)
    lon_f = np.nan_to_num(lon, nan=0.0)
    multi = hex7_cells_multi(lat_f, lon_f, (5, 6, 7, 8, 9))
    out = batch
    for r in (5, 6, 7, 8, 9):
        out = out.append_column(f"h3_r{r}", pa.array(np.where(has, multi[r], -1)))
    s2 = s2_cell(lat_f, lon_f, 16)
    out = out.append_column("s2_cell", pa.array(np.where(has, s2, -1)))
    gc = grid_cell_id(lat_f, lon_f, GRID_CELL_DEG)
    out = out.append_column("grid_cell", pa.array(np.where(has, gc, -1)))
    return out
