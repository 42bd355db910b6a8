"""Engine vs the reference-semantics oracle in reference_forms.py on shared
kernels (the independent re-implementation used by the flagship parity
tests)."""

import os

import numpy as np
import pytest

import reference_forms as ora
from reference_forms import BruteKNN
from tiff_enrichment_pipeline_ray.functions import geo, indices
from tiff_enrichment_pipeline_ray.functions.pip import PolygonIndex


def test_haversine_matches():
    rng = np.random.default_rng(0)
    a = rng.uniform(-80, 80, 50)
    b = rng.uniform(-179, 179, 50)
    c = rng.uniform(-80, 80, 50)
    d = rng.uniform(-179, 179, 50)
    np.testing.assert_allclose(geo.haversine_m(a, b, c, d),
                               ora.oracle_haversine_m(a, b, c, d), rtol=1e-12)


def test_georef_matches():
    t = geo.georef_transform(np.array([52.3]), np.array([4.9]),
                             np.array([80.0]), np.array([120]), np.array([120]))
    o = ora.oracle_georef(52.3, 4.9, 80.0, 120, 120)
    for k in ("px_deg", "py_deg", "west", "north"):
        assert t[k][0] == pytest.approx(o[k], rel=1e-15)


def test_dms_matches():
    import pandas as pd

    got = geo.parse_gps_coords(pd.Series(["52 deg 6' 28.48\" S"]))[0]
    assert got == pytest.approx(ora.oracle_dms_to_decimal(52, 6, 28.48, "S"))


def test_pip_matches():
    rng = np.random.default_rng(1)
    rings = []
    for _ in range(25):
        cx, cy = rng.uniform(0, 5, 2)
        ang = np.sort(rng.uniform(0, 2 * np.pi, 6))
        rad = rng.uniform(0.3, 1.2, 6)
        rings.append(np.stack([cx + rad * np.cos(ang),
                               cy + rad * np.sin(ang)], axis=1))
    ids = np.arange(25)
    idx = PolygonIndex(rings, ids)
    pts = rng.uniform(-0.5, 5.5, (300, 2))
    got = idx.join(pts[:, 1], pts[:, 0])
    for (x, y), g in zip(pts, got):
        want = ora.oracle_pip(y, x, [r.tolist() for r in rings], ids)
        assert (ids[g] if g >= 0 else -1) == want


def test_knn_matches():
    rng = np.random.default_rng(2)
    slat = rng.uniform(50, 54, 120)
    slon = rng.uniform(3, 8, 120)
    knn = BruteKNN(slat, slon)
    for _ in range(40):
        qlat, qlon = rng.uniform(50, 54), rng.uniform(3, 8)
        gi, gd = knn.query(np.array([qlat]), np.array([qlon]), 1)
        oi, od = ora.oracle_nearest_station(qlat, qlon, slat, slon)
        assert gi[0, 0] == oi and gd[0, 0] == pytest.approx(od, rel=1e-12)


def test_ndvi_pipeline_matches():
    rng = np.random.default_rng(3)
    nir = rng.integers(0, 7, (32, 32)).astype(np.uint16)
    red = rng.integers(0, 7, (32, 32)).astype(np.uint16)
    calib = ora.calibrate(np.stack([red, red, red, nir, red]).astype("float32"))
    f = calib.astype("float32")
    got = indices.quantize_index(indices.ndvi(f[3], f[2]))
    want = ora.oracle_ndvi_quantized(nir, red)
    assert (got == want).all()


class TestNdviEpsVariant:
    """Pin BOTH NDVI semantics (SURVEY §7.4-4): canonical processor.py and
    the processing/indices.py:77-100 ε-variant, against the reference's own
    fixture arrays (test_vegetation_indices.py:29-41)."""

    NIR = np.array([[0.8, 0.7], [0.6, 0.5]], dtype="float32")
    RED = np.array([[0.2, 0.3], [0.4, 0.5]], dtype="float32")

    def test_reference_fixture_golden(self):
        # reference golden (test_vegetation_indices.py:38-42), decimal=2
        expected = np.array([[0.6, 0.4], [0.2, 0.0]], dtype="float32")
        got = indices.ndvi_eps(self.NIR, self.RED)
        np.testing.assert_array_almost_equal(got, expected, decimal=2)
        # canonical variant agrees on nonzero denominators (ε only shifts
        # the 4th decimal at these magnitudes)
        np.testing.assert_array_almost_equal(
            indices.ndvi(self.NIR, self.RED), expected, decimal=6)

    def test_zero_pixels_diverge_by_design(self):
        """Faithful-to-code divergence: processor semantics give 0 on a
        zero denominator; the ε-variant CODE fills −1 (float32(1e-6) < ε,
        so the where-mask excludes the pixel and the fill applies). The
        reference's own zero-division test expects 0 and contradicts its
        implementation — we pin the implementation."""
        z = np.zeros((2, 2), dtype="float32")
        assert (indices.ndvi(z, z) == 0.0).all()
        assert (indices.ndvi_eps(z, z) == -1.0).all()

    def test_clip_applies(self):
        # a negative red forces the raw ratio above 1 → ε-variant clips
        nir = np.array([[5.0]], dtype="float32")
        red = np.array([[-4.9]], dtype="float32")
        assert float(indices.ndvi_eps(nir, red)[0, 0]) == 1.0

    def test_compute_index_variant_dispatch(self):
        stack = np.stack([self.RED, self.RED, self.RED, self.NIR, self.RED])
        a = indices.compute_index("ndvi", stack, "processor")
        b = indices.compute_index("ndvi", stack, "eps")
        np.testing.assert_array_equal(a, indices.ndvi(self.NIR, self.RED))
        np.testing.assert_array_equal(b, indices.ndvi_eps(self.NIR, self.RED))
        # non-NDVI indices are unaffected by the toggle
        np.testing.assert_array_equal(
            indices.compute_index("savi", stack, "eps"),
            indices.compute_index("savi", stack, "processor"))

    def test_flagship_toggle_changes_capture_ndvi(self, tiny_images_dir,
                                                  layers_dir, tmp_path):
        """End-to-end: a flagship run with ndvi_variant='eps' produces
        capture mean_ndvi shifted by the ε denominator (strictly
        different bytes for nonzero pixels) while every other index
        column is identical."""
        import glob as _g

        import pandas as pd
        import pyarrow.parquet as _pq

        from tiff_enrichment_pipeline_ray.config import PipelineConfig
        from tiff_enrichment_pipeline_ray.pipelines import flagship

        outs = {}
        for var in ("processor", "eps"):
            out = str(tmp_path / var)
            flagship.run_flagship(
                tiny_images_dir, out, resume=False, layers_dir=layers_dir,
                cfg=PipelineConfig(ndvi_variant=var))
            files = sorted(_g.glob(os.path.join(out, "captures", "**",
                                                "*.parquet"),
                                   recursive=True))
            df = pd.concat([_pq.read_table(f).to_pandas() for f in files],
                           ignore_index=True)
            outs[var] = df.sort_values("capture_id").reset_index(drop=True)
        a, b = outs["processor"], outs["eps"]
        assert list(a.capture_id) == list(b.capture_id)
        ok = a.status == "ok"
        assert ok.any()
        # the toggle must change NDVI (ε denominator + −1 fill on all-zero
        # pixels — the fill dominates when zero pixels exist, so the shift
        # can be large; only inequality is semantic here)
        assert not np.allclose(a.loc[ok, "mean_ndvi"], b.loc[ok, "mean_ndvi"],
                               rtol=0, atol=1e-12)
        np.testing.assert_array_equal(a.loc[ok, "mean_savi"],
                                      b.loc[ok, "mean_savi"])
