"""Kernel unit tests: geo parsers, cell encoders (frozen goldens +
hierarchy properties), vegetation indices (reference golden values), codec."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import reference_forms as ref
from tiff_enrichment_pipeline_ray.functions import cells, codec, geo, indices

LATS = np.array([52.1, 51.0, 50.7, 53.6, 0.0, -33.8688, 40.7128, 89.5, -89.5, 35.6762])
LONS = np.array([5.1, 5.0, 3.0, 7.3, 0.0, 151.2093, -74.0060, 0.0, 180.0 - 1e-9, 139.6503])

# frozen golden vectors (regression pins for the deterministic encoders)
S2_16 = [5171943736292147200, 5170492073316450304, 5178247631054307328,
         5167340162174156800, 1152921504875282432, 9158064619309236224,
         -8520148442687733760, 5764474904913117184, -4995948619812044800,
         6921159981450395648]
S2_30 = [5171943736216877867, 5170492073133776213, 5178247631274479471,
         5167340161915484013, 1152921504606846977, 9158064619082285141,
         -8520148442738587287, 5764474905171197963, -4995948619892566709,
         6921159981539811115]
H7_5 = [365635994747320370, 365635994747320608, 365635994747311245,
        365635994747321650, 362821244980168085, 361413870096625718,
        364510094840406560, 365635994747234540, 360287970189809427,
        364791569817013637]
H7_9 = [653866371628870688, 653866371629843595, 653866371591493915,
        653866371634112915, 651051621674473586, 649644246835621011,
        652740471430448725, 653866371277308481, 648518347036638598,
        653021945982899602]


class TestCells:
    def test_golden_s2(self):
        assert cells.s2_cell(LATS, LONS, 16).tolist() == S2_16
        assert cells.s2_cell(LATS, LONS, 30).tolist() == S2_30

    def test_golden_hex7(self):
        assert ref.hex7_cell(LATS, LONS, 5).tolist() == H7_5
        assert ref.hex7_cell(LATS, LONS, 9).tolist() == H7_9

    def test_s2_hierarchy(self):
        c30 = cells.s2_cell(LATS, LONS, 30)
        for lvl in range(29, 4, -1):
            assert (ref.s2_parent(c30, lvl) == cells.s2_cell(LATS, LONS, lvl)).all()

    def test_hex7_hierarchy_exact(self):
        """parent(res r) == digit truncation of res r+1 — by construction,
        for arbitrary global points."""
        rng = np.random.default_rng(7)
        la = rng.uniform(-89.9, 89.9, 5000)
        lo = rng.uniform(-180, 180, 5000)
        for r in (9, 8, 7, 6):
            assert (ref.hex7_parent(ref.hex7_cell(la, lo, r))
                    == ref.hex7_cell(la, lo, r - 1)).all()

    def test_hex7_digit_residual_zero(self):
        rng = np.random.default_rng(11)
        la = rng.uniform(-89.9, 89.9, 20000)
        lo = rng.uniform(-180, 180, 20000)
        face, digits = cells.hex7_digits(la, lo)
        assert (digits >= 0).all() and (digits <= 6).all()
        # ids at res 0 must use few distinct cells per face (bounded extent:
        # gnomonic face disk ≈ 14 res-0 hexes → well under 30/face globally)
        c0 = ref.hex7_cell(la, lo, 0)
        assert len(np.unique(c0)) < 20 * 30

    def test_locality(self):
        rng = np.random.default_rng(3)
        la = rng.uniform(-80, 80, 5000)
        lo = rng.uniform(-179, 179, 5000)
        frac = (ref.hex7_cell(la, lo, 5)
                == ref.hex7_cell(la + 1e-6, lo + 1e-6, 5)).mean()
        assert frac > 0.99
        frac2 = (cells.s2_cell(la, lo, 10)
                 == cells.s2_cell(la + 1e-7, lo + 1e-7, 10)).mean()
        assert frac2 > 0.99

    def test_determinism_across_batching(self):
        la = LATS.copy()
        lo = LONS.copy()
        whole = ref.hex7_cell(la, lo, 9)
        parts = np.concatenate([ref.hex7_cell(la[i:i + 3], lo[i:i + 3], 9)
                                for i in range(0, len(la), 3)])
        assert (whole == parts).all()

    def test_grid_cells(self):
        ix, iy = cells.grid_cell_xy([52.07], [5.12], 0.05)
        assert ix[0] == int(np.floor(5.12 / 0.05))
        assert iy[0] == int(np.floor(52.07 / 0.05))


class TestGeo:
    def test_haversine_golden(self):
        d = geo.haversine_m(np.array([52.37, 48.8566]), np.array([4.89, 2.3522]),
                            np.array([51.92, 51.5074]), np.array([4.48, -0.1278]))
        assert d[0] == pytest.approx(57327.6266993592, rel=1e-12)
        assert d[1] == pytest.approx(343556.060341041, rel=1e-12)

    def test_dms_parser_reference_cases(self):
        """Exact gps_utils.py:7-42 semantics incl. fallback-to-0.0."""
        s = pd.Series(["52 deg 6' 28.48\" N", "4 deg 53' 2.5\" E",
                       "33 deg 52' 7.68\" S", "52.1234N", "5.5W",
                       "51.5", "", "not a coord", None])
        r = geo.parse_gps_coords(s)
        assert r[0] == pytest.approx(52 + 6 / 60 + 28.48 / 3600)
        assert r[1] == pytest.approx(4 + 53 / 60 + 2.5 / 3600)
        assert r[2] == pytest.approx(-(33 + 52 / 60 + 7.68 / 3600))
        assert r[3] == 52.1234 and r[4] == -5.5 and r[5] == 51.5
        assert r[6] == 0.0 and r[7] == 0.0 and r[8] == 0.0

    def test_float_fallback_accepts_all_float_parseable(self):
        """ADVICE regression: the plain-float fallback must accept anything
        Python float() parses (the reference's float(coord_str),
        gps_utils.py:40-42) — incl. scientific notation, leading +, bare
        leading-dot — not just a hand-rolled digit regex.

        Reference-parity caveat: strings the DEC pattern intercepts first
        never reach the fallback — "1e-3" is parsed by gps_utils.py:27's
        IGNORECASE ``([\\d.]+)\\s*([NSEW])`` as value=1, direction=e(ast)
        → 1.0, NOT float("1e-3"); we must reproduce that too."""
        cases = ["+2.5e2", "-0.75", " 3.5 ", ".5", "+.25",
                 "52.", "  -1E2"]
        r = geo.parse_gps_coords(pd.Series(cases))
        for i, c in enumerate(cases):
            assert r[i] == float(c), (c, r[i])
        r2 = geo.parse_gps_coords(
            pd.Series(["1e-3", "2.5w", "inf-ish junk", "nan-ish junk"]))
        assert r2[0] == 1.0     # DEC intercept: 1 + East, reference-exact
        assert r2[1] == -2.5    # DEC intercept: lowercase w → West
        assert r2[2] == 0.0 and r2[3] == 0.0

    def test_surface_area_reference_corner_golden(self):
        """ADVICE regression: footprint area must use the reference's
        CORNER-pixel-center haversine legs (validation.py:76-112), not
        image-center midpoints: width = haversine(corner(0,0)->corner(W,0))
        at the TOP latitude, height down the EAST edge."""
        import math

        west, north = 4.95, 52.05
        px, py = 1.2e-5, 1.1e-5
        W, H = 1280.0, 960.0

        def ref_haversine(lon1, lat1, lon2, lat2):
            lon1, lat1, lon2, lat2 = map(math.radians,
                                         [lon1, lat1, lon2, lat2])
            dlon, dlat = lon2 - lon1, lat2 - lat1
            a = (math.sin(dlat / 2) ** 2
                 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
            return 2 * math.asin(math.sqrt(a)) * 6371000

        # rasterio.transform.xy(t, row, col, offset='center')
        def xy(row, col):
            return west + (col + 0.5) * px, north - (row + 0.5) * py

        c0, c1, c2 = xy(0, 0), xy(0, W), xy(H, W)
        want = abs(ref_haversine(c0[0], c0[1], c1[0], c1[1])
                   * ref_haversine(c1[0], c1[1], c2[0], c2[1]))
        got = geo.surface_area_m2(np.array([west]), np.array([north]),
                                  np.array([px]), np.array([py]),
                                  np.array([W]), np.array([H]))
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_altitude_parser(self):
        r = geo.parse_altitude(pd.Series(["26.9 m Above Sea Level",
                                          "-4.2 m Below", "nope", None]))
        assert r[0] == 26.9 and r[1] == -4.2
        assert np.isnan(r[2]) and np.isnan(r[3])

    def test_meters_per_degree_reference_constants(self):
        """processor.py:107-111 with R=6371000.0 exactly."""
        m_lon, m_lat = geo.meters_per_degree(np.array([52.0]))
        assert m_lat[0] == pytest.approx(2 * np.pi * 6371000.0 / 360.0, rel=1e-15)
        assert m_lon[0] == pytest.approx(m_lat[0] * np.cos(np.radians(52.0)), rel=1e-12)

    def test_georef_transform(self):
        """processor.py:100-133: center-based origin."""
        t = geo.georef_transform(np.array([52.0]), np.array([5.0]),
                                 np.array([100.0]), np.array([100]), np.array([100]))
        gsd = (4.8 * 100.0) / (5.4 * 100)
        assert t["gsd_x"][0] == pytest.approx(gsd)
        assert t["west"][0] < 5.0 < t["west"][0] + 100 * t["px_deg"][0]
        assert t["north"][0] > 52.0 > t["north"][0] - 100 * t["py_deg"][0]
        # center recovery
        assert t["west"][0] + 50 * t["px_deg"][0] == pytest.approx(5.0)
        assert t["north"][0] - 50 * t["py_deg"][0] == pytest.approx(52.0)


class TestIndices:
    def test_ndvi_reference_golden(self):
        """Reference's own unit-test values (test_vegetation_indices.py:38-60)."""
        nir = np.array([[.8, .7], [.6, .5]], dtype=np.float32)
        red = np.array([[.2, .3], [.4, .5]], dtype=np.float32)
        np.testing.assert_array_almost_equal(
            indices.ndvi(nir, red), [[.6, .4], [.2, .0]], decimal=2)

    def test_zero_division_yields_zero(self):
        z = np.zeros((2, 2), dtype=np.float32)
        for fn in (indices.ndvi, indices.ndre, indices.gndvi, indices.ndwi):
            assert (fn(z, z) == 0).all()

    def test_ranges(self):
        rng = np.random.default_rng(5)
        nir = rng.random((32, 32)).astype(np.float32)
        red = rng.random((32, 32)).astype(np.float32)
        assert np.abs(indices.ndvi(nir, red)).max() <= 1.0
        assert np.isfinite(indices.msavi(nir, red)).all()
        assert np.isfinite(indices.evi(nir, red, red)).all()
        assert indices.savi(nir, red).max() <= 1.5

    def test_quantizer_bit_exact(self):
        """processor.py:419: clip((x+1)·32767.5, 0, 65535) → uint16."""
        q = indices.quantize_index(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
        assert q.tolist() == [0, 0, 32767, 65535, 65535]
        assert q.dtype == np.uint16

    def test_calibration(self):
        """processor.py:381-385: ×10000 clip [0,65535]."""
        c = ref.calibrate(np.array([0.0, 0.5, 6.0, 7.0], dtype=np.float32))
        assert c.tolist() == [0, 5000, 60000, 65535]

    def test_index_passes_match_reference_forms(self):
        """``_safe_div``, ``quantize_index`` and ``vegetation_coverage``
        give the bits, dtype and type of their reference forms (masked
        divide over zeros, np.clip, boolean mean) on every kind of input:
        NaN, ±inf, ±0.0, float64 and 0-d arrays."""
        def bits(a):
            a = np.asarray(a)
            return a.dtype, a.shape, a.tobytes()

        specials = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf,
                             1e-30, 65535.0], dtype=np.float32)
        num = np.repeat(specials, len(specials))
        den = np.tile(specials, len(specials))
        rng = np.random.default_rng(11)
        cases = [(num, den), (num.astype(np.float64), den.astype(np.float64)),
                 (np.array(np.float32(3.0)), np.array(np.float32(0.0))),
                 (np.array(np.float32(3.0)), np.array(np.float32(-2.0))),
                 (rng.normal(size=(17, 19)).astype(np.float32),
                  np.where(rng.random((17, 19)) < 0.3, 0.0,
                           rng.normal(size=(17, 19))).astype(np.float32))]
        for n, d in cases:
            want = np.divide(n, d, out=np.zeros_like(n), where=d != 0)
            got = indices._safe_div(n, d)
            assert type(got) is type(want) and bits(got) == bits(want)
        # EVI with an exactly zero denominator (n + 6r − 7.5b + 1 = 0)
        one = np.ones(1, np.float32)
        assert indices.evi(0.125 * one, 0.125 * one, 0.25 * one).tolist() == [0.0]
        for x in (specials, specials.astype(np.float64),
                  rng.uniform(-3, 3, (31, 7)).astype(np.float32),
                  np.array([0.5], np.float32), np.array(np.float32(0.5))):
            want = np.clip((x + 1.0) * 32767.5, 0, 65535).astype("uint16")
            assert bits(indices.quantize_index(x)) == bits(want)
        for x in (rng.uniform(-1, 1, (64, 48)).astype(np.float32),
                  np.full((3, 5), 0.2, np.float32), specials):
            want = {"coverage_gt_02": float((x > 0.2).mean()),
                    "coverage_gt_05": float((x > 0.5).mean())}
            got = indices.vegetation_coverage(x)
            assert got == want and all(type(v) is float for v in got.values())


class TestCodec:
    def test_roundtrip_lossless(self):
        rng = np.random.default_rng(1)
        px = (rng.random((60, 44)) * 65535).astype(np.uint16)
        meta = {"GPS Latitude": "52 deg 0' 0\" N", "Band Number": "4"}
        for fmt in ("raw", "png"):
            p2, m2, ok = codec.decode_image(codec.encode_image(px, fmt, meta))
            assert ok and (p2 == px).all() and m2["Band Number"] == "4"

    def test_lossyq_psnr(self):
        rng = np.random.default_rng(2)
        px = (rng.random((80, 80)) * 65535).astype(np.uint16)
        p2, _, ok = codec.decode_image(codec.encode_image(px, "lossyq", {}))
        assert ok and ref.psnr(px, p2) >= 40.0

    def test_corruption_isolated(self):
        b = codec.encode_image(np.ones((8, 8), np.uint16), "png", {})
        assert codec.decode_image(b[: len(b) // 2])[2] is False
        assert codec.decode_image(b"garbage")[2] is False
        assert codec.decode_image(b"")[2] is False

    def test_header_only(self):
        b = codec.encode_image(np.ones((10, 12), np.uint16), "png",
                               {"Date/Time Original": "2023:06:01 10:00:00"})
        hm = codec.decode_header_meta(b)
        assert hm["w"] == 12 and hm["h"] == 10
        assert hm["meta"]["Date/Time Original"] == "2023:06:01 10:00:00"


class TestPinnedSchemas:
    def test_all_null_group_gets_pinned_types(self):
        """Round-1 advice: a salted group whose object columns are all-None
        (or whose int columns picked up NaN through pandas) must write the
        same Arrow types as any other fragment."""
        import pandas as pd
        import pyarrow as pa

        from tiff_enrichment_pipeline_ray.state.schemas import (
            ENRICHED_TYPES, pin_from_pandas)

        g = pd.DataFrame({
            "image_id": ["a", "b"],
            "landcover_class": [None, None],        # → null without pinning
            "landcover_year": [float("nan"), float("nan")],  # → double
            "issues": [[], []],                      # → list<null>
            "elevation_m": [None, None],
            "part_key": ["0", "0"],
        })
        t = pin_from_pandas(g, ENRICHED_TYPES)
        assert t.schema.field("landcover_class").type == pa.string()
        assert t.schema.field("landcover_year").type == pa.int32()
        assert t.schema.field("issues").type == pa.list_(pa.string())
        assert t.schema.field("elevation_m").type == pa.float64()
        assert t.column("landcover_year").null_count == 2

    def test_mixed_fragments_unify(self, tmp_path):
        import pandas as pd
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.state.schemas import (
            ENRICHED_TYPES, pin_from_pandas)

        g1 = pd.DataFrame({"image_id": ["a"], "landcover_year": [2020],
                           "issues": [["x"]]})
        g2 = pd.DataFrame({"image_id": ["b"], "landcover_year": [float("nan")],
                           "issues": [[]]})
        pq.write_table(pin_from_pandas(g1, ENRICHED_TYPES), tmp_path / "1.parquet")
        pq.write_table(pin_from_pandas(g2, ENRICHED_TYPES), tmp_path / "2.parquet")
        t = pq.read_table(tmp_path)  # unified read must not raise/mis-type
        assert t.schema.field("landcover_year").type == pa.int32()
        assert t.num_rows == 2


class TestPixelPercentiles:
    """A4 percentile semantics (rasterio_utils.py:282-292):
    np.percentile(pixels, [25, 50, 75]) per image, linear interpolation.
    Run through the live chain: the header pass, then the flagship's one
    pixel-decode stage (capture branch off)."""

    @staticmethod
    def _meta(image_id, blob):
        from tiff_enrichment_pipeline_ray.pipelines.flagship import (
            _make_decode_stats_capture_stage)
        from tiff_enrichment_pipeline_ray.stages.extract import (
            extract_meta_light)

        t = pa.table({"image_id": [image_id], "bytes": [blob],
                      "fmt": ["raw"], "phash": pa.array([0], pa.int64())})
        stage = _make_decode_stats_capture_stage(None)
        return stage(extract_meta_light(t)).to_pandas().iloc[0]

    def test_extract_meta_golden(self):
        rng = np.random.default_rng(11)
        px = (rng.random((30, 40)) * 65535).astype(np.uint16)
        blob = codec.encode_image(px, "raw", {})
        out = self._meta("IMG_0001_1", blob)
        want = np.percentile(px.astype(np.float64), (25, 50, 75))
        assert out.px_p25 == pytest.approx(want[0], rel=1e-12)
        assert out.px_p50 == pytest.approx(want[1], rel=1e-12)
        assert out.px_p75 == pytest.approx(want[2], rel=1e-12)

    def test_corrupt_row_is_nan(self):
        out = self._meta("X", b"corrupt")
        assert np.isnan(out.px_p25) and np.isnan(out.px_p50)


class TestConfigFile:
    """The config surface is the dataclass constructor: there is no file
    loader, and an unknown or removed key fails loudly."""

    def test_unknown_key_rejected(self):
        from tiff_enrichment_pipeline_ray.config import PipelineConfig

        with pytest.raises(TypeError, match="unexpected keyword argument"):
            PipelineConfig(**{"max_workers": 8})

    @pytest.mark.parametrize("key", ["batch_size", "enrich_concurrency",
                                     "enrich_actor_pool",
                                     "capture_concurrency",
                                     "enrich_landcover", "enrich_elevation",
                                     "enrich_weather", "keep_caption",
                                     "validate"])
    def test_removed_execution_knobs_rejected(self, key):
        """The engine has one execution path, no worker-count knobs and no
        toggles it would silently ignore; configs that still set a removed
        knob fail loudly."""
        from tiff_enrichment_pipeline_ray.config import PipelineConfig

        with pytest.raises(TypeError, match="unexpected keyword argument"):
            PipelineConfig(**{key: 1})
