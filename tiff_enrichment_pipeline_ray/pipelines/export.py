"""Report sinks: CSV/JSON exports of the enriched table (K2/K3/K7).

Reference writers re-expressed as Dataset sinks:
- K7 GPS CSV/JSON (scripts/extract_gps_to_csv_json.py:22-57)
- K3 validation report JSON+CSV (main.py:525-535)
- K2 per-record metadata JSON (main.py:386-388) — metadata lives as columns,
  exported with ``write_json``.
"""

from __future__ import annotations

import os

import numpy as np


def export_gps_csv(out_dir: str, export_dir: str):
    """K7: image_id/lat/lon/alt CSV part files from a flagship output dir."""
    import pandas as pd

    from . import flagship

    ds = flagship.read_enriched(out_dir).select_columns(
        ["image_id", "has_gps", "lat", "lon", "alt_m"])

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.has_gps].copy()
        for c in ("lat", "lon", "alt_m"):
            df[c] = df[c].round(8)
        return df.drop(columns=["has_gps"])

    ds.map_batches(rnd, batch_format="pandas").write_csv(export_dir)
    return export_dir


def export_validation_report(out_dir: str, export_dir: str, fmt: str = "csv"):
    """K3: per-image issues report as CSV or JSON part files."""
    import pandas as pd

    from . import flagship

    ds = flagship.read_enriched(out_dir).select_columns(
        ["image_id", "valid", "issues"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_id": df.image_id,
            "valid": df.valid,
            "issues": df.issues.map(lambda l: ";".join(list(l))),
        })

    ds = ds.map_batches(f, batch_format="pandas")
    if fmt == "json":
        ds.write_json(export_dir)
    else:
        ds.write_csv(export_dir)
    return export_dir


def export_metadata_json(out_dir: str, export_dir: str):
    """K2: full per-image metadata rows as JSON part files."""
    from . import flagship

    ds = flagship.read_enriched(out_dir).drop_columns(["issues"])
    ds.write_json(export_dir)
    return export_dir


def thumbnails_dataset(input_dir: str, size: int = 32,
                       concurrency: int | None = None, batch_size: int = 128):
    """K5 thumbnail stage (output/visualizer.py:43-153 analogue): every
    image decoded, bilinear-downsampled to ``size``×``size`` and re-encoded
    lossless through the native codec — an actor-pool map_batches (decode
    state in __init__), small batches because rows carry pixel payloads.

    The pool leaves ≥2 CPUs free for the read/write stages — a pool that
    reserves every CPU starves the producers and stalls the stream."""
    import ray
    import ray.data as rd

    from ..stages.multimodal import ImageResize

    if concurrency is None:
        cpus = int(ray.cluster_resources().get("CPU", 4))
        concurrency = max(1, cpus - 2)
    ds = rd.read_parquet(input_dir, columns=["image_id", "bytes"])
    return ds.map_batches(
        ImageResize,
        fn_constructor_kwargs={"target_h": size, "target_w": size},
        batch_format="pandas",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def export_thumbnails(input_dir: str, export_dir: str, size: int = 32,
                      concurrency: int | None = None):
    """K5: write the thumbnail blobs as partitioned parquet (one file per
    block — resumable by re-running; the thumbnail of an image is
    deterministic)."""
    os.makedirs(export_dir, exist_ok=True)
    thumbnails_dataset(input_dir, size=size,
                       concurrency=concurrency).write_parquet(export_dir)
    return export_dir


def index_visualizations_dataset(flag_dir: str, batch_size: int = 64):
    """Per-(capture, index) colormap visualization + stats
    (visualizer.py:75-153): decode each capture's quantized index rasters,
    dequantize (v = q/32767.5 − 1, the inverse of processor.py:419), apply
    the reference's per-index colormap/vmin/vmax, PNG-encode, and emit the
    stats block (mean/std/min/max/veg%/high-veg%). One stateless map_batches
    over the captures parquet — small batches (rows carry raw index
    rasters); output rows are slim (one RGB PNG + 6 floats per index)."""
    import pandas as pd

    from . import flagship
    from ..functions import codec as C
    from ..functions import viz
    from ..config import ALL_INDICES

    caps = flagship.read_captures(flag_dir)
    cols = ["capture_id"] + [f"index_{n}" for n in ALL_INDICES]
    caps = caps.select_columns([c for c in cols if c in caps.schema().names])

    def render(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in df.iterrows():
            for name in ALL_INDICES:
                blob = r.get(f"index_{name}")
                if blob is None:
                    continue
                q = C.decode_pixels_only(bytes(blob))
                if q is None:
                    continue
                vals = q.astype(np.float64) / 32767.5 - 1.0
                rgb, st = viz.index_vis_rgb(vals, name)
                rows.append({
                    "capture_id": r.capture_id, "index_name": name,
                    "png": viz.encode_png(rgb, level=1),
                    "vis_w": np.int32(rgb.shape[1]),
                    "vis_h": np.int32(rgb.shape[0]),
                    "mean": st["mean"], "std": st["std"],
                    "min": st["min"], "max": st["max"],
                    "veg_pct": st["veg_pct"],
                    "high_veg_pct": st["high_veg_pct"],
                })
        return pd.DataFrame(rows)

    return caps.map_batches(render, batch_format="pandas",
                            batch_size=batch_size)


def band_histograms_dataset(input_dir: str, batch_size: int = 128):
    """Per-band-file histogram PNG (processor.py:579-598): 256 bins over
    (0, 65535) rendered as a deterministic bar raster. Stateless
    map_batches over the images parquet."""
    import pandas as pd
    import ray.data as rd

    from ..functions import codec as C
    from ..functions import viz

    ds = rd.read_parquet(input_dir, columns=["image_id", "bytes"])

    def render(df: pd.DataFrame) -> pd.DataFrame:
        out = {"image_id": [], "png": [], "n_px": []}
        for iid, blob in zip(df.image_id, df["bytes"]):
            px = C.decode_pixels_only(bytes(blob))
            if px is None:
                continue
            out["image_id"].append(iid)
            out["png"].append(viz.encode_png(
                viz.render_histogram_rgb(px), level=1))
            out["n_px"].append(np.int64(px.size))
        return pd.DataFrame(out)

    return ds.map_batches(render, batch_format="pandas",
                          batch_size=batch_size)


def export_visualizations(flag_dir: str, export_dir: str):
    """Write <capture_id>_<INDEX>_vis.png files (the reference's
    visualizations/ directory layout, visualizer.py:131-137) plus a stats
    parquet next to them. Idempotent: file content is deterministic."""
    import pandas as pd

    vis_dir = os.path.join(export_dir, "visualizations")
    os.makedirs(vis_dir, exist_ok=True)
    ds = index_visualizations_dataset(flag_dir)

    def write(df: pd.DataFrame) -> pd.DataFrame:
        for _, r in df.iterrows():
            p = os.path.join(vis_dir,
                             f"{r.capture_id}_{r.index_name.upper()}_vis.png")
            with open(p, "w+b") as f:
                f.write(r.png)
        return df.drop(columns=["png"])

    ds.map_batches(write, batch_format="pandas") \
        .write_parquet(os.path.join(export_dir, "vis_stats"))
    return export_dir


def location_map_dataset(flag_dir: str, size: tuple = (800, 800)):
    """Corpus location map (scripts/visualize_tiff_locations.py:22-57):
    every georeferenced image's bounds box as a red outline over the NL
    bbox (the contextily network-tile basemap and text labels are
    environment-blocked and out of scope). Distributed as MERGEABLE raster
    partials: each block rasterizes its rows' boxes onto one (H, W) bit
    canvas (a single slim packbits row per block, ~80 KB at 800²), the
    partials are OR-merged inside ONE coalesced task (repartition(1), the
    Bloom-merge pattern — the driver never holds the partials), and the
    merged mask is PNG-encoded. Output: one row (png, n_boxes, width,
    height)."""
    import numpy as np
    import pandas as pd

    from .. import config
    from ..functions import viz
    from . import flagship as fl

    h, w = size
    bbox = (config.NL_LON_MIN, config.NL_LAT_MIN,
            config.NL_LON_MAX, config.NL_LAT_MAX)
    ds = fl.read_enriched(flag_dir).select_columns(
        ["west", "north", "px_deg", "py_deg", "w", "h"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ok = df.west.notna() & df.north.notna()
        d = df[ok]
        east = d.west.to_numpy() + d.w.to_numpy() * d.px_deg.to_numpy()
        south = d.north.to_numpy() - d.h.to_numpy() * d.py_deg.to_numpy()
        mask = viz.rasterize_bounds(d.west.to_numpy(), south, east,
                                    d.north.to_numpy(), bbox=bbox, size=size)
        return pd.DataFrame({"mask": [np.packbits(mask).tobytes()],
                             "n": [np.int64(int(ok.sum()))]})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        acc = np.zeros(h * w, dtype=np.uint8)
        for blob in df["mask"]:
            acc |= np.unpackbits(
                np.frombuffer(blob, dtype=np.uint8))[:h * w]
        png = viz.encode_png(viz.bounds_map_rgb(acc.reshape(size)))
        return pd.DataFrame({"png": [png],
                             "n_boxes": [np.int64(df.n.sum())],
                             "width": [np.int64(w)],
                             "height": [np.int64(h)]})

    return (ds.map_batches(partial, batch_format="pandas", batch_size=None)
            .repartition(1)
            .map_batches(merge, batch_format="pandas", batch_size=None))
