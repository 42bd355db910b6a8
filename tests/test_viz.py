"""Visualization parity (visualizer.py:75-153 + processor.py:579-598):
PNG codec roundtrip, colormap endpoints, index-vis stats vs brute force,
and the Ray-side export datasets."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from reference_forms import decode_png
from tiff_enrichment_pipeline_ray.functions import codec, viz


class TestPngCodec:
    def test_roundtrip_gray_and_rgb(self):
        rng = np.random.default_rng(3)
        for shape in [(1, 1), (7, 13), (200, 256)]:
            g = rng.integers(0, 256, shape).astype(np.uint8)
            assert (decode_png(viz.encode_png(g)) == g).all()
            rgb = rng.integers(0, 256, shape + (3,)).astype(np.uint8)
            assert (decode_png(viz.encode_png(rgb)) == rgb).all()

    def test_png_signature_and_chunks(self):
        data = viz.encode_png(np.zeros((4, 4), dtype=np.uint8))
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        assert b"IHDR" in data and b"IDAT" in data and data[-8:-4] == b"IEND"


class TestColormaps:
    def test_veg_ramp_endpoints_and_range(self):
        """vmin=-0.2 → darkred(139,0,0); vmax=1.0 → darkgreen(0,100,0);
        values beyond the range clip (imshow semantics)."""
        for v, want in [(-0.2, (139, 0, 0)), (1.0, (0, 100, 0)),
                        (-0.9, (139, 0, 0)), (1.7, (0, 100, 0))]:
            rgb, _ = viz.index_vis_rgb(np.array([[v]]), "ndvi")
            assert tuple(rgb[0, 0]) == want, (v, rgb[0, 0])

    def test_ndwi_blue_white_green(self):
        lo, _ = viz.index_vis_rgb(np.array([[-1.0]]), "ndwi")
        hi, _ = viz.index_vis_rgb(np.array([[1.0]]), "ndwi")
        mid, _ = viz.index_vis_rgb(np.array([[0.0]]), "ndwi")
        assert tuple(lo[0, 0]) == (0, 0, 255)
        assert tuple(hi[0, 0]) == (0, 128, 0)
        assert (mid[0, 0] >= 250).all()  # ~white at the midpoint

    def test_stats_block_matches_brute_force(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-1.2, 1.2, (31, 17))
        _, st = viz.index_vis_rgb(v, "evi")
        assert st["mean"] == pytest.approx(v.mean(), rel=1e-15)
        assert st["std"] == pytest.approx(v.std(), rel=1e-15)
        assert st["min"] == v.min() and st["max"] == v.max()
        assert st["veg_pct"] == pytest.approx(
            ((v > 0.2) & (v <= 1.0)).mean() * 100)
        assert st["high_veg_pct"] == pytest.approx(
            ((v > 0.5) & (v <= 1.0)).mean() * 100)

    def test_lut_is_linear_between_stops(self):
        """from_list(N=256) semantics: halfway between adjacent stops the
        channel value is the rounded midpoint."""
        lut = viz._build_lut(["red", "yellow"])  # 2 stops spanning [0,1]
        mid = lut[128]
        # x=128/255 ≈ 0.502: red(255,0,0) → yellow(255,255,0)
        assert mid[0] == 255 and abs(int(mid[1]) - 128) <= 1 and mid[2] == 0


class TestHistogramRender:
    def test_bar_heights_proportional_to_counts(self):
        px = np.concatenate([np.zeros(300, np.uint16),
                             np.full(150, 65535, np.uint16)])
        img = viz.render_histogram_rgb(px, height=100)
        blue = (img == (70, 130, 180)).all(axis=2)
        assert blue[:, 0].sum() == 100    # first bin: peak → full height
        assert blue[:, 255].sum() == 50   # last bin: half the peak
        assert blue[:, 1:255].sum() == 0  # everything else empty


class TestVizDatasets:
    def test_index_visualizations_dataset(self, tmp_path):
        """End-to-end over a real (tiny) flagship output: every emitted PNG
        decodes to the brute-force colormap application of its decoded
        index raster."""
        import ray

        from tiff_enrichment_pipeline_ray.pipelines import export as E
        from tiff_enrichment_pipeline_ray.pipelines import flagship as fl
        from tiff_enrichment_pipeline_ray.sources import synth

        img_dir = synth.ensure_images(0.0005)
        out = str(tmp_path / "flag")
        fl.run_flagship(img_dir, out, resume=False)
        df = E.index_visualizations_dataset(out).to_pandas()
        assert len(df) > 0
        assert set(df.index_name) <= {"ndvi", "ndre", "gndvi", "savi",
                                      "msavi", "evi", "osavi", "ndwi"}
        # cross-check 5 rows against brute force
        caps = fl.read_captures(out).to_pandas().set_index("capture_id")
        for _, r in df.head(5).iterrows():
            got = decode_png(bytes(r.png))
            q = codec.decode_pixels_only(
                bytes(caps.loc[r.capture_id][f"index_{r.index_name}"]))
            vals = q.astype(np.float64) / 32767.5 - 1.0
            want, st = viz.index_vis_rgb(vals, r.index_name)
            assert (got == want).all()
            assert r["mean"] == pytest.approx(st["mean"])
            assert r.veg_pct == pytest.approx(st["veg_pct"])

    def test_band_histograms_dataset(self):
        from tiff_enrichment_pipeline_ray.pipelines import export as E
        from tiff_enrichment_pipeline_ray.sources import synth

        img_dir = synth.ensure_images(0.0005)
        df = E.band_histograms_dataset(img_dir).limit(64).to_pandas()
        assert len(df) > 0
        img = decode_png(bytes(df.png.iloc[0]))
        assert img.shape == (200, 256, 3)


class TestLocationMap:
    def test_rasterize_bounds_brute_force(self):
        """Each box's outline pixels (and only those) are set."""
        rng = np.random.default_rng(7)
        west = rng.uniform(3.1, 6.8, size=20)
        south = rng.uniform(50.8, 53.2, size=20)
        east = west + rng.uniform(0.001, 0.3, size=20)
        north = south + rng.uniform(0.001, 0.3, size=20)
        mask = viz.rasterize_bounds(west, south, east, north)
        want = np.zeros((800, 800), dtype=np.uint8)
        lon0, lat0, lon1, lat1 = 3.0, 50.7, 7.3, 53.6
        for wst, sth, est, nth in zip(west, south, east, north):
            x0 = int(np.clip(np.floor((wst - lon0) / (lon1 - lon0) * 799), 0, 799))
            x1 = int(np.clip(np.floor((est - lon0) / (lon1 - lon0) * 799), 0, 799))
            y0 = int(np.clip(np.floor((lat1 - nth) / (lat1 - lat0) * 799), 0, 799))
            y1 = int(np.clip(np.floor((lat1 - sth) / (lat1 - lat0) * 799), 0, 799))
            want[y0, x0:x1 + 1] = 1
            want[y1, x0:x1 + 1] = 1
            want[y0:y1 + 1, x0] = 1
            want[y0:y1 + 1, x1] = 1
        assert (mask == want).all()
        # disjoint single box → exact perimeter pixel count
        m1 = viz.rasterize_bounds(np.array([4.0]), np.array([51.0]),
                                  np.array([4.5]), np.array([51.5]))
        ys, xs = np.nonzero(m1)
        hh, ww = ys.max() - ys.min() + 1, xs.max() - xs.min() + 1
        assert m1.sum() == 2 * hh + 2 * ww - 4

    def test_location_map_dataset(self, tmp_path):
        """Distributed partial-OR render == driver-side brute force; box
        count == georeferenced enriched rows."""
        from tiff_enrichment_pipeline_ray.pipelines import export as E
        from tiff_enrichment_pipeline_ray.pipelines import flagship as fl
        from tiff_enrichment_pipeline_ray.sources import synth

        img_dir = synth.ensure_images(0.0005)
        out = str(tmp_path / "flag")
        fl.run_flagship(img_dir, out, resume=False)
        df = E.location_map_dataset(out).to_pandas()
        assert len(df) == 1
        enr = fl.read_enriched(out).to_pandas()
        geo = enr[enr.west.notna() & enr.north.notna()]
        assert int(df.n_boxes.iloc[0]) == len(geo)
        img = decode_png(bytes(df.png.iloc[0]))
        assert img.shape == (800, 800, 3)
        east = geo.west.to_numpy() + geo.w.to_numpy() * geo.px_deg.to_numpy()
        south = geo.north.to_numpy() - geo.h.to_numpy() * geo.py_deg.to_numpy()
        want = viz.bounds_map_rgb(viz.rasterize_bounds(
            geo.west.to_numpy(), south, east, geo.north.to_numpy()))
        assert (img == want).all()


class TestSharpness:
    """laplacian_var / tenengrad closed-form goldens + the corpus query."""

    def test_constant_image_is_zero(self):
        import numpy as np

        from tiff_enrichment_pipeline_ray.functions.raster import (
            laplacian_var,
            tenengrad,
        )

        z = np.full((16, 16), 1234.0)
        assert laplacian_var(z) == 0.0
        assert tenengrad(z) == 0.0
        # a linear ramp has zero Laplacian everywhere and constant Sobel
        ramp = np.tile(np.arange(16, dtype=np.float64), (16, 1))
        assert laplacian_var(ramp) == 0.0
        # Sobel gx of unit-step ramp = 8 per cell -> energy 64 exactly
        assert tenengrad(ramp) == 64.0

    def test_single_impulse_golden(self):
        import numpy as np

        from tiff_enrichment_pipeline_ray.functions.raster import (
            laplacian_var,
        )

        # 5x5 zeros with one center impulse of 1: interior Laplacian
        # values are -4 (center), +1 (4-neighbors), 0 elsewhere
        z = np.zeros((5, 5))
        z[2, 2] = 1.0
        lap = np.array([-4.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.isclose(laplacian_var(z), lap.var())

    def test_tiny_image_guard(self):
        import numpy as np

        from tiff_enrichment_pipeline_ray.functions.raster import (
            laplacian_var,
            tenengrad,
        )

        assert laplacian_var(np.ones((2, 5))) == 0.0
        assert tenengrad(np.ones((1, 1))) == 0.0

    def test_corpus_query(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = Q.image_sharpness("/root/testdata/sf0.001").to_pandas()
        assert len(df) > 100
        assert (df.lap_var >= 0).all() and (df.tenengrad >= 0).all()
        # blur flag is corpus-relative: strictly fewer blurry than sharp
        assert 0 <= int(df.is_blurry.sum()) < len(df)


class TestHeatmap:
    """geo_heatmap_render: decode roundtrip + exact LUT color at the
    max-density tile (the render is deterministic end-to-end)."""

    def test_render(self, ray_session):
        import numpy as np

        from tiff_enrichment_pipeline_ray.functions import viz
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        row = Q.geo_heatmap_render("/root/testdata/sf0.001") \
            .to_pandas().iloc[0]
        smooth = Q.geo_grid_density_smooth("/root/testdata/sf0.001") \
            .to_pandas()
        assert row.n_tiles == len(smooth)
        assert row.width == (smooth.tile_x.max() + 1) * 8
        assert row.height == (smooth.tile_y.max() + 1) * 8
        # re-render in-process and compare the exact pixel of the max
        # tile against the LUT top entry
        tx = smooth.tile_x.to_numpy()
        ty = smooth.tile_y.to_numpy()
        v = smooth.smooth_density.to_numpy()
        i = int(np.argmax(v))
        h = smooth.tile_y.max() + 1
        grid = np.zeros((h, smooth.tile_x.max() + 1))
        grid[h - 1 - ty, tx] = v
        rgb = viz.apply_cmap(grid, "ryg", 0.0, float(v.max()))
        want = viz._LUTS["ryg"][255]
        assert (rgb[h - 1 - ty[i], tx[i]] == want).all()


class TestHillshade:
    def test_render(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        row = Q.geo_hillshade_render("/root/testdata/sf0.001") \
            .to_pandas().iloc[0]
        assert row.width == 1152 and row.height == 768
        # Lambertian mean over varied terrain sits near cos(zenith)
        assert 0.3 < row.mean_shade < 0.95
        assert row.png_len > 10_000
