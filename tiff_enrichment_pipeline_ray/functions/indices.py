"""Vegetation indices — exact reference semantics, vectorized.

Canonical formulas are the ones the main pipeline executes (reference:
micasense/core/processor.py:479-550), NOT the processing/indices.py variants
(which add ε/clipping — documented divergence, SURVEY.md §7.4-4):

  NDVI  = (nir−red)/(nir+red),          0 where denom == 0   (:479-486)
  NDRE  = (nir−re)/(nir+re)                                   (:488-495)
  GNDVI = (nir−green)/(nir+green)                             (:497-504)
  SAVI  = (nir−red)(1+L)/(nir+red+L), L=0.5                   (:506-514)
  MSAVI = 0.5(2n+1−√((2n+1)²−8(n−r)))                         (:516-518)
  EVI   = G(n−r)/(n+C1·r−C2·b+L), G=2.5 L=1 C1=6 C2=7.5       (:520-531)
  OSAVI = SAVI with L=0.16                                    (:533-541)
  NDWI  = (green−nir)/(green+nir)                             (:543-550)

Quantizer (processor.py:419 and 7 siblings):
  uint16 = clip((x+1)·32767.5, 0, 65535)  — must be bit-exact for parity.

Radiometric calibration (processor.py:361-399 core :381-382):
  calibrated = clip(reflectance·10000, 0, 65535) → uint16.
"""

from __future__ import annotations

import numpy as np


def _safe_div(num, den):
    """num/den, 0 where den == 0 (±0.0). A plain divide into a ``num``-typed
    output, then the zero fill: the same value, dtype and NaN propagation
    as ``divide(..., where=den != 0)`` over zeros, at a fraction of the
    cost of the masked divide."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(num, den, out=np.empty_like(num))
    np.copyto(out, 0.0, where=den == 0)
    return out


def ndvi(nir, red):
    return _safe_div(nir - red, nir + red)


def ndvi_eps(nir, red, epsilon=1e-6):
    """ε-variant NDVI — the reference's processing/indices.py:77-100
    semantics, faithful to the SHIPPED CODE: denom = nir + red + ε in
    float32; divide where denom > ε (0 elsewhere); clip to [−1, 1]; then
    FILL −1 where denom ≤ ε. Note float32(1e-6) < 1e-6, so an all-zero
    pixel takes the −1 fill — the reference's own zero-division test
    (test_vegetation_indices.py:75-80) expects 0 there and contradicts
    its implementation; we pin the implementation (the path production
    data takes) and document the discrepancy. Off by default
    (PipelineConfig.ndvi_variant='processor' keeps the canonical
    processor.py:479-486 semantics)."""
    nir = nir.astype("float32")
    red = red.astype("float32")
    den = nir + red + epsilon
    big = den > epsilon
    out = np.divide(nir - red, den, out=np.zeros_like(nir), where=big)
    out = np.clip(out, -1.0, 1.0)
    out[~big] = -1.0
    return out


def ndre(nir, red_edge):
    return _safe_div(nir - red_edge, nir + red_edge)


def gndvi(nir, green):
    return _safe_div(nir - green, nir + green)


def savi(nir, red, L=0.5):
    return _safe_div((nir - red) * (1.0 + L), nir + red + L)


def msavi(nir, red):
    return 0.5 * (2.0 * nir + 1.0 - np.sqrt((2.0 * nir + 1.0) ** 2 - 8.0 * (nir - red)))


def evi(nir, red, blue, G=2.5, L=1.0, C1=6.0, C2=7.5):
    return G * _safe_div(nir - red, nir + C1 * red - C2 * blue + L)


def osavi(nir, red):
    return savi(nir, red, L=0.16)


def ndwi(green, nir):
    return _safe_div(green - nir, green + nir)


def quantize_index(x):
    """clip((x+1)·32767.5, 0, 65535) → uint16, bit-exact (processor.py:419)."""
    y = np.asarray(x + 1.0)
    y *= 32767.5
    np.maximum(y, 0, out=y)
    np.minimum(y, 65535, out=y)
    return y.astype("uint16")


# band order within a stacked (5,H,W) capture: blue,green,red,nir,red_edge
# (processor.py:406-411: bands 1..5 read in order)
_INDEX_FNS = {
    "ndvi": lambda blue, green, red, nir, red_edge: ndvi(nir, red),
    "ndre": lambda blue, green, red, nir, red_edge: ndre(nir, red_edge),
    "gndvi": lambda blue, green, red, nir, red_edge: gndvi(nir, green),
    "savi": lambda blue, green, red, nir, red_edge: savi(nir, red),
    "msavi": lambda blue, green, red, nir, red_edge: msavi(nir, red),
    "evi": lambda blue, green, red, nir, red_edge: evi(nir, red, blue),
    "osavi": lambda blue, green, red, nir, red_edge: osavi(nir, red),
    "ndwi": lambda blue, green, red, nir, red_edge: ndwi(green, nir),
}


def compute_index(name, bands_f32, ndvi_variant="processor"):
    """Compute one named index from a (5,H,W) float32 calibrated stack.
    ndvi_variant: 'processor' (canonical processor.py:479-486) or 'eps'
    (processing/indices.py:77-100 ε/clip/−1-fill variant)."""
    blue, green, red, nir, red_edge = bands_f32
    if name == "ndvi" and ndvi_variant == "eps":
        return ndvi_eps(nir, red)
    return _INDEX_FNS[name](blue, green, red, nir, red_edge)


def vegetation_coverage(ndvi_arr, thresholds=(0.2, 0.5)):
    """Fraction of pixels with NDVI > t (reference: processing/indices.py:106-117,
    visualizer.py:122-123)."""
    return {f"coverage_gt_{str(t).replace('.', '')}":
            np.count_nonzero(ndvi_arr > t) / ndvi_arr.size
            for t in thresholds}
