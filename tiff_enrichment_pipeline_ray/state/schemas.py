"""Pinned Arrow types for the flagship's partitioned parquet outputs.

Round-1 advice fix: the partition writers built tables with
``pa.Table.from_pandas`` and NO pinned schema, so a salted group whose
object column was all-None (``landcover_class`` in a bin outside polygon
coverage, ``index_*`` in an all-incomplete orphan bucket, ``issues`` all
empty → ``list<null>``) — or an int column that picked up NaNs through the
pandas round-trip (``landcover_year`` → double) — was inferred with a
DIFFERENT Arrow type than its siblings, and ``read_parquet`` over the
directory could fail or mis-type depending on which fragment seeds the
unified schema. Every fragment is now cast to these types at write time.

The reference's analogue is the typed SQL star schema
(scripts/create-tables.sql:66-161) that pins every enrichment column type.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import ALL_INDICES

_F64 = pa.float64()
_F32 = pa.float32()
_I64 = pa.int64()
_I32 = pa.int32()
_STR = pa.string()
_BOOL = pa.bool_()

ENRICHED_TYPES: dict[str, pa.DataType] = {
    # input table (BASELINE.json input_hint), bytes dropped before the write
    "image_id": _STR, "w": _I32, "h": _I32, "fmt": _STR,
    "caption": _STR, "phash": _I64,
    # extract_meta_light
    "decode_ok": _BOOL, "file_class": _STR, "capture_id": _STR, "band": _I32,
    "has_gps": _BOOL, "lat": _F64, "lon": _F64, "alt_m": _F64,
    "camera": _STR, "ts_raw": _STR, "ts": pa.timestamp("us"),
    # georef
    "px_deg": _F64, "py_deg": _F64, "west": _F64, "north": _F64,
    "gsd_x": _F64, "gsd_y": _F64, "crs": _STR, "footprint_m2": _F64,
    # cells
    "h3_r5": _I64, "h3_r6": _I64, "h3_r7": _I64, "h3_r8": _I64, "h3_r9": _I64,
    "s2_cell": _I64, "grid_cell": _I64,
    # enrichment joins
    "landcover_class": _STR, "landcover_confidence": _F32,
    "landcover_year": _I32,
    "elevation_m": _F64, "elevation_src": _STR,
    "weather_station_id": _STR, "weather_dist_m": _F64, "weather_date": _STR,
    "tmin_c": _F32, "tmax_c": _F32, "precip_mm": _F32, "wind_kmh": _F32,
    # decode stats (A4) + integrity: the flagship decode stage
    "px_min": _I32, "px_max": _I32, "px_mean": _F64, "px_std": _F64,
    "zero_ratio": _F64, "phash_ok": _BOOL,
    "px_p25": _F64, "px_p50": _F64, "px_p75": _F64,
    # validation + partitioning
    "issues": pa.list_(_STR), "valid": _BOOL, "in_nl": _BOOL,
    "part_key": _STR,
}

CAPTURE_TYPES: dict[str, pa.DataType] = {
    "capture_id": _STR, "status": _STR, "n_bands": _I32,
    "lat": _F64, "lon": _F64, "alt_m": _F64, "ts_raw": _STR,
    "w": _I32, "h": _I32, "caption": _STR,
    "coverage_gt_02": _F64, "coverage_gt_05": _F64,
    "h3_r5": _I64, "h3_r7": _I64, "h3_r9": _I64, "s2_cell": _I64,
    **{f"mean_{n}": _F64 for n in ALL_INDICES},
    **{f"index_{n}": pa.binary() for n in ALL_INDICES},
}


def pin_from_pandas(df: pd.DataFrame, types: dict) -> pa.Table:
    """pandas → Arrow with every known column cast to its pinned type
    (NaN → null for non-float targets; unknown columns are inferred)."""
    arrays = []
    names = []
    for col in df.columns:
        typ = types.get(col)
        s = df[col]
        if typ is not None and pa.types.is_integer(typ) and s.dtype == object:
            # object column of ints/None (spill round-trips): coerce first
            s = pd.to_numeric(s, errors="coerce")
        arrays.append(pa.Array.from_pandas(s, type=typ))
        names.append(col)
    return pa.Table.from_arrays(arrays, names=names)
