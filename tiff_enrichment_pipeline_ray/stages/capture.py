"""Stage 6: per-capture MicaSense processing.

The capture-set assembly that the reference does with filename grouping +
sequential loops (main.py:268-292, processor.py:177-298) happens without a
shuffle for captures whose five bands share a block (split_local_complete,
run inside the flagship's decode stage); the remaining orphan rows are
spilled and resolved together in one task after the main pass (one group
instead of ~n_captures groups, amortizing the per-group engine overhead).
Either way a group of whole captures goes through one tight per-capture
kernel (process_bucket):

  1. complete-set check (5 bands, J6 semantics: main.py:90-99) — incomplete
     sets emit a status row instead of raising;
  2. align: resample bands 1,2,4,5 onto the band-3 grid, bilinear
     (processor.py:300-359); without GPS/transform the bands stack as-is
     (identity path); clip → uint16;
  3. radiometric calibration ×10000 clip [0,65535] → uint16
     (processor.py:361-399). Applied to a uint16 input this maps onto
     eight levels only: a DN d gives min(d·10000, 65535), i.e.
     {0, 10000, 20000, 30000, 40000, 50000, 60000, 65535} for d = 0..6
     and d ≥ 7. So steps 2-3 on an aligned float32 value v ≥ 0 equal
     min(trunc(v)·10000, 65535) in float32, which the kernel computes
     in three in-place passes over the (5, H, W) stack
     (tests/reference_forms.calibrate keeps the reference form);
  4. the selected vegetation indices (all 8 by default; PipelineConfig
     .indices) on the calibrated float32 bands with the exact
     processor.py:479-550 math, quantized (x+1)·32767.5 → uint16
     (processor.py:419) and stored as raw-format GI01 blobs (uncompressed
     ``<u2`` grid: the parquet page codec is the only compression);
  5. quality metrics: NDVI coverage fractions (indices.py:106-117).

Partitioning assumption: the flagship's orphan pass reads the whole spill
in one task (flagship._resolve_orphans), so every capture's bands meet
there without an exchange; its decoded pixels must fit that worker's heap.
Band order inside the stack is sorted band number (processor.py:325).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..config import ALL_INDICES, REFERENCE_BAND
from ..functions import codec, indices
from ..functions.raster import affine_bilinear_resample


def _f(v):
    """None/NA → nan float (blocks read back from spills may be object)."""
    try:
        return float(v) if v is not None else np.nan
    except (TypeError, ValueError):
        return np.nan


def _nan_row(cid, status, n_bands, ref):
    rec = {
        "capture_id": cid, "status": status, "n_bands": np.int32(n_bands),
        "lat": _f(ref.get("lat")), "lon": _f(ref.get("lon")),
        "alt_m": _f(ref.get("alt_m")), "ts_raw": ref.get("ts_raw", ""),
        "w": np.int32(ref.get("w") or 0), "h": np.int32(ref.get("h") or 0),
        "caption": ref.get("caption", "") or "",
    }
    for name in ALL_INDICES:
        rec[f"mean_{name}"] = np.nan
        rec[f"index_{name}"] = None
    rec["coverage_gt_02"] = np.nan
    rec["coverage_gt_05"] = np.nan
    return rec


def _calibrated_stack(cols: dict, idx: np.ndarray):
    """Steps 2-3 for one complete capture, ``idx`` = its 5 band rows sorted
    by band: decode (or take the stats stage's ``_px``), align onto the
    band-3 grid, clip → uint16, calibrate. → float32 (5, H, W), or None
    when a band does not decode.

    Each band is written straight into the stack (a copy, or the warp's
    ``out=``); calibration is then three in-place passes over the whole
    stack. The aligned values are finite and non-negative (bilinear
    weights in [0, 1] over uint16 pixels), and for those the reference
    chain clip [0, 65535] → uint16 → ×10000 → clip → uint16 → float32
    equals min(trunc(v)·10000, 65535) in float32 (module docstring,
    step 3)."""
    decoded = []
    pre = cols.get("_px")  # pixels already decoded by the stats stage
    for i in idx:
        px = pre[i] if pre is not None else codec.decode_pixels_only(cols["bytes"][i])
        if px is None:
            return None
        decoded.append(px)
    r = idx[REFERENCE_BAND - 1]
    H, W = decoded[REFERENCE_BAND - 1].shape
    have_geo = bool(cols["has_gps"][r]) and np.isfinite(cols["px_deg"][r])
    stack = np.empty((5, H, W), dtype=np.float32)
    for k, (i, px) in enumerate(zip(idx, decoded)):
        if (k == REFERENCE_BAND - 1 or not have_geo
                or not np.isfinite(cols["px_deg"][i])):
            if px.shape == (H, W):
                stack[k] = px
            else:
                affine_bilinear_resample(
                    px, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0,
                    px.shape[1] / W, px.shape[0] / H, H, W, out=stack[k])
        else:
            affine_bilinear_resample(
                px,
                float(cols["west"][i]), float(cols["north"][i]),
                float(cols["px_deg"][i]), float(cols["py_deg"][i]),
                float(cols["west"][r]), float(cols["north"][r]),
                float(cols["px_deg"][r]), float(cols["py_deg"][r]),
                H, W, out=stack[k])
    np.trunc(stack, out=stack)                 # clip → uint16 (:345)
    stack *= 10000.0                           # calibrate (:381-382)
    np.minimum(stack, 65535.0, out=stack)
    return stack


def _one_capture(cid: str, cols: dict, idx: np.ndarray,
                 index_names=ALL_INDICES,
                 ndvi_variant="processor") -> dict:
    """cols: dict of column -> full numpy/object arrays; idx: row indices of
    this capture's band images (any order)."""
    bands = cols["band"][idx]
    order = np.argsort(bands, kind="stable")  # processor.py:325 sorted bands
    idx = idx[order]
    bands = bands[order]
    meta_cols = ("lat", "lon", "alt_m", "ts_raw", "w", "h", "caption")
    first = {k: cols[k][idx[0]] for k in meta_cols}
    if list(bands) != [1, 2, 3, 4, 5]:
        return _nan_row(cid, "incomplete_set", len(idx), first)
    calib_f = _calibrated_stack(cols, idx)
    if calib_f is None:
        return _nan_row(cid, "failed_decode", 5, first)

    ref = {k: cols[k][idx[REFERENCE_BAND - 1]] for k in meta_cols}
    rec = _nan_row(cid, "ok", 5, ref)
    ndvi_f = None
    for name in index_names:
        val = indices.compute_index(name, calib_f, ndvi_variant)
        if name == "ndvi":
            ndvi_f = val
        q = indices.quantize_index(val)
        rec[f"mean_{name}"] = float(val.mean())
        rec[f"index_{name}"] = codec.encode_image(
            q, "raw", {"Index": name.upper(), "Capture Id": cid})
    if ndvi_f is None:
        ndvi_f = indices.compute_index("ndvi", calib_f, ndvi_variant)
    cov = indices.vegetation_coverage(ndvi_f)
    rec["coverage_gt_02"] = cov["coverage_gt_02"]
    rec["coverage_gt_05"] = cov["coverage_gt_05"]
    return rec


def process_bucket(df: pd.DataFrame, index_names=ALL_INDICES,
                   ndvi_variant="processor") -> pd.DataFrame:
    """A group of captures' band rows (one block's complete-in-block
    captures, or a partition's whole orphan spill) → one row per capture
    (deterministic capture_id order)."""
    cols = {c: df[c].to_numpy() for c in df.columns}
    cids = cols["capture_id"]
    order = np.argsort(cids, kind="stable")
    sorted_ids = cids[order]
    boundaries = np.flatnonzero(
        np.concatenate([[True], sorted_ids[1:] != sorted_ids[:-1]]))
    rows = []
    for s, e in zip(boundaries, np.append(boundaries[1:], len(sorted_ids))):
        idx = order[s:e]
        cid = sorted_ids[s]
        if not cid:
            continue
        rows.append(_one_capture(cid, cols, idx, index_names, ndvi_variant))
    if not rows:
        return pd.DataFrame([_nan_row("", "empty", 0, {})]).iloc[0:0]
    return pd.DataFrame(rows)


def split_local_complete(df: pd.DataFrame):
    """Split a block's rows into (complete-in-block captures, orphan rows).

    A capture has ≤1 row per band (image_id is unique), so a capture whose
    full band set {1..5} appears inside one block is globally complete and
    can be processed WITHOUT any shuffle; rows of captures only partially
    present in this block are orphans, spilled to one file per decode task
    and resolved together in one task after the main pass (complete vs
    incomplete_set). This keeps the wide `bytes` column out of the main
    exchange for co-located captures — SURVEY §7.4-3 (never shuffle
    pixels when metadata suffices).
    """
    cid = df["capture_id"].to_numpy()
    band = df["band"].to_numpy()
    order = np.argsort(cid, kind="stable")
    sc = cid[order]
    starts = np.flatnonzero(np.concatenate([[True], sc[1:] != sc[:-1]]))
    ends = np.append(starts[1:], len(sc))
    complete_mask = np.zeros(len(df), dtype=bool)
    for s, e in zip(starts, ends):
        idx = order[s:e]
        if len(idx) == 5 and sorted(band[idx].tolist()) == [1, 2, 3, 4, 5]:
            complete_mask[idx] = True
    return df[complete_mask], df[~complete_mask]


# slim column set the capture kernel reads, and the orphan spill carries
# to the orphan pass (bytes dominate; every other wide column is dropped
# before the spill — SURVEY §7.4-3)
CAPTURE_SHUFFLE_COLS = [
    "capture_id", "image_id", "band", "bytes", "w", "h", "decode_ok",
    "has_gps", "lat", "lon", "alt_m", "ts_raw", "caption",
    "west", "north", "px_deg", "py_deg",
]
