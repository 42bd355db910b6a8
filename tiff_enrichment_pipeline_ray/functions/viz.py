"""Visualization kernels: PNG encoding and index colormaps (reference
micasense/output/visualizer.py + processor.py:579-598 histograms).

matplotlib/PIL are not in this environment, so both halves are implemented
from the public specs:

- ``encode_png``: minimal RFC-2083 PNG writer for 8-bit grayscale and RGB
  (filter 0 scanlines, one zlib IDAT); the tests' decoder is
  ``tests/reference_forms.decode_png``.
- Colormap ramps replicating ``LinearSegmentedColormap.from_list(...,
  N=256)`` (visualizer.py:32-41): evenly-spaced color stops, linear RGB
  interpolation, LUT index = round(norm * 255). Stop colors are the
  standard CSS/X11 values matplotlib resolves those names to.
- ``index_vis_rgb``: the per-index (colormap, vmin, vmax) selection of
  visualizer.py:96-112 plus its stats block (:117-124).
- ``render_histogram_rgb``: the 256-bin range-(0,65535) per-band histogram
  of processor.py:579-598, rendered as a bar raster (the data-bearing
  content — bins and frequencies; matplotlib axes/text styling is not
  replicated).

All kernels are vectorized numpy; the Ray side wraps them in map_batches
stages (pipelines/export.py).
"""

from __future__ import annotations

import struct
import zlib
from binascii import crc32

import numpy as np

# ------------------------------------------------------------------ PNG

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", crc32(tag + payload) & 0xFFFFFFFF))


def encode_png(arr: np.ndarray, level: int = 6) -> bytes:
    """uint8 (h,w) grayscale or (h,w,3) RGB → PNG bytes (filter 0 rows)."""
    a = np.ascontiguousarray(arr, dtype=np.uint8)
    if a.ndim == 2:
        h, w = a.shape
        color_type = 0
        raw = a
    elif a.ndim == 3 and a.shape[2] == 3:
        h, w = a.shape[:2]
        color_type = 2
        raw = a.reshape(h, w * 3)
    else:
        raise ValueError(f"unsupported shape {a.shape}")
    # prepend the per-scanline filter byte (0 = None) vectorized
    lines = np.zeros((h, raw.shape[1] + 1), dtype=np.uint8)
    lines[:, 1:] = raw
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(lines.tobytes(), level))
            + _chunk(b"IEND", b""))


# ------------------------------------------------------------- colormaps

# standard CSS/X11 RGB values for the named stops (visualizer.py:32-41)
_C = {
    "darkred": (139, 0, 0), "red": (255, 0, 0), "yellow": (255, 255, 0),
    "lightgreen": (144, 238, 144), "green": (0, 128, 0),
    "darkgreen": (0, 100, 0), "blue": (0, 0, 255), "white": (255, 255, 255),
}

_RAMP_STOPS = {
    # ndvi/ndre/gndvi ramp (visualizer.py:33-36)
    "veg": ["darkred", "red", "yellow", "lightgreen", "green", "darkgreen"],
    # ndwi (visualizer.py:37-38)
    "water": ["blue", "white", "green"],
    # evi + savi family (visualizer.py:39-41)
    "ryg": ["red", "yellow", "green"],
}


def _build_lut(stop_names, n: int = 256) -> np.ndarray:
    """LinearSegmentedColormap.from_list semantics: stops evenly spaced on
    [0,1], linear interpolation per channel → (n,3) uint8 LUT."""
    stops = np.array([_C[s] for s in stop_names], dtype=np.float64)
    pos = np.linspace(0.0, 1.0, len(stop_names))
    x = np.linspace(0.0, 1.0, n)
    lut = np.stack([np.interp(x, pos, stops[:, c]) for c in range(3)], axis=1)
    return (lut + 0.5).astype(np.uint8)


_LUTS = {k: _build_lut(v) for k, v in _RAMP_STOPS.items()}

# a compact grayscale fallback for the reference's `else: viridis` branch —
# none of the eight shipped indices hits it (documented deviation: unknown
# index names render gray min-max instead of viridis)
_LUTS["gray"] = np.repeat(np.arange(256, dtype=np.uint8)[:, None], 3, axis=1)

# per-index (ramp, vmin, vmax) — visualizer.py:96-112
_INDEX_STYLE = {
    "ndvi": ("veg", -0.2, 1.0), "gndvi": ("veg", -0.2, 1.0),
    "ndre": ("veg", -0.2, 1.0),
    "ndwi": ("water", -1.0, 1.0),
    "evi": ("ryg", -1.0, 1.0),
    "savi": ("ryg", -1.0, 1.0), "msavi": ("ryg", -1.0, 1.0),
    "osavi": ("ryg", -1.0, 1.0),
}


def index_style(name: str):
    return _INDEX_STYLE.get(name.lower(), ("gray", None, None))


def apply_cmap(values: np.ndarray, ramp: str, vmin: float | None,
               vmax: float | None) -> np.ndarray:
    """float index values → (h,w,3) uint8 via the ramp's 256-entry LUT;
    imshow normalization: clip((v - vmin)/(vmax - vmin), 0, 1)."""
    v = np.asarray(values, dtype=np.float64)
    if vmin is None or vmax is None:  # viridis-branch autoscale
        vmin = float(np.min(v)) if v.size else 0.0
        vmax = float(np.max(v)) if v.size else 1.0
    span = vmax - vmin
    norm = np.clip((v - vmin) / span, 0.0, 1.0) if span > 0 \
        else np.zeros_like(v)
    idx = (norm * 255.0 + 0.5).astype(np.intp)
    return _LUTS[ramp][idx]


def index_vis_rgb(values: np.ndarray, index_name: str):
    """(rgb uint8 (h,w,3), stats dict) for one index raster — the
    visualization + stats block of visualizer.py:96-124."""
    ramp, vmin, vmax = index_style(index_name)
    rgb = apply_cmap(values, ramp, vmin, vmax)
    v = np.asarray(values, dtype=np.float64)
    stats = {
        "mean": float(v.mean()) if v.size else float("nan"),
        "std": float(v.std()) if v.size else float("nan"),
        "min": float(v.min()) if v.size else float("nan"),
        "max": float(v.max()) if v.size else float("nan"),
        # visualizer.py:122-123 vegetation fractions (percent)
        "veg_pct": float(((v > 0.2) & (v <= 1.0)).sum() / v.size * 100.0)
        if v.size else float("nan"),
        "high_veg_pct": float(((v > 0.5) & (v <= 1.0)).sum() / v.size * 100.0)
        if v.size else float("nan"),
    }
    return rgb, stats


# ------------------------------------------------------------ histograms

def render_histogram_rgb(pixels: np.ndarray, height: int = 200,
                         bins: int = 256) -> np.ndarray:
    """256-bin histogram over range (0, 65535) (processor.py:588) rendered
    as a (height, bins, 3) bar raster: white background, steelblue bars,
    bar height = count / max_count. Deterministic, no text/axes."""
    counts = np.histogram(np.asarray(pixels).ravel(),
                          bins=bins, range=(0, 65535))[0]
    peak = counts.max() if counts.size and counts.max() > 0 else 1
    hpx = np.rint(counts / peak * height).astype(np.intp)
    img = np.full((height, bins, 3), 255, dtype=np.uint8)
    rows = np.arange(height)[:, None]           # 0 = top
    mask = rows >= (height - hpx)[None, :]      # fill from the bottom
    img[mask] = (70, 130, 180)                  # steelblue
    return img


# -------------------------------------------------------- location map


def rasterize_bounds(west: np.ndarray, south: np.ndarray,
                     east: np.ndarray, north: np.ndarray,
                     bbox: tuple = (3.0, 50.7, 7.3, 53.6),
                     size: tuple = (800, 800)) -> np.ndarray:
    """1-px bounds-box OUTLINES on a (H, W) uint8 canvas over ``bbox``
    (lon_min, lat_min, lon_max, lat_max) — the data-bearing content of the
    reference's corpus location map (scripts/visualize_tiff_locations.py:
    22-57 draws each TIFF's bounds as an unfilled red rectangle over an NL
    basemap; the network-tile basemap and text labels are out of scope).
    Row 0 = north edge. Degenerate (sub-pixel) boxes draw as 1-px marks.
    The canvas is a MERGEABLE partial: OR partials from distributed blocks
    to get the corpus map."""
    h, w = size
    lon0, lat0, lon1, lat1 = bbox
    sx = (w - 1) / (lon1 - lon0)
    sy = (h - 1) / (lat1 - lat0)
    x0 = np.clip(np.floor((np.asarray(west) - lon0) * sx), 0, w - 1).astype(np.intp)
    x1 = np.clip(np.floor((np.asarray(east) - lon0) * sx), 0, w - 1).astype(np.intp)
    y0 = np.clip(np.floor((lat1 - np.asarray(north)) * sy), 0, h - 1).astype(np.intp)
    y1 = np.clip(np.floor((lat1 - np.asarray(south)) * sy), 0, h - 1).astype(np.intp)
    canvas = np.zeros(size, dtype=np.uint8)
    for a, b, c, d in zip(y0, y1, x0, x1):
        canvas[a, c:d + 1] = 1          # north edge
        canvas[b, c:d + 1] = 1          # south edge
        canvas[a:b + 1, c] = 1          # west edge
        canvas[a:b + 1, d] = 1          # east edge
    return canvas


def bounds_map_rgb(mask: np.ndarray) -> np.ndarray:
    """White background, red outlines — the visualizer's edgecolor='red',
    facecolor='none' styling."""
    img = np.full(mask.shape + (3,), 255, dtype=np.uint8)
    img[mask.astype(bool)] = (255, 0, 0)
    return img
