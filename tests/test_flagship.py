"""Flagship end-to-end: row accounting, per-row enrichment parity against
independent single-process oracles, caption equality, validation flags,
dedup, skew budget, and byte-identical resume (FIXTURES.md §5)."""

import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import reference_forms as ref
from tiff_enrichment_pipeline_ray.functions import codec
from tiff_enrichment_pipeline_ray.functions.geo import haversine_m
from tiff_enrichment_pipeline_ray.pipelines import flagship
from tiff_enrichment_pipeline_ray.sources import synth


@pytest.fixture(scope="module")
def enriched_df(flag_out):
    out, _ = flag_out
    return flagship.read_enriched(out).to_pandas()


@pytest.fixture(scope="module")
def failed_df(flag_out):
    out, _ = flag_out
    return flagship.read_failed(out).to_pandas()


@pytest.fixture(scope="module")
def all_df(enriched_df, failed_df):
    """enriched + quarantine = every input row."""
    return pd.concat([enriched_df, failed_df], ignore_index=True)


@pytest.fixture(scope="module")
def input_df(tiny_images_dir):
    files = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))
    return pd.concat([pq.read_table(f).to_pandas() for f in files],
                     ignore_index=True)


class TestShuffleSlimness:
    def test_main_exchange_carries_no_payload_bytes(self, tiny_images_dir,
                                                    layers_dir, tmp_path):
        """Scale contract (SURVEY §7.4-3): the one all-to-all exchange moves
        ONLY slim enriched rows. Payload bytes must never survive past the
        decode stage — local captures are written in-task and orphan rows
        are spilled to side parquet (flagship._resolve_orphans), so no
        binary-typed column may reach the shuffle."""
        import pyarrow as pa

        from tiff_enrichment_pipeline_ray.config import PipelineConfig
        from tiff_enrichment_pipeline_ray.stages import enrich as enrich_stage

        files = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))
        layer_kwargs = enrich_stage.put_layers(layers_dir)
        caps = str(tmp_path / "caps")
        orph = str(tmp_path / "orph")
        os.makedirs(caps, exist_ok=True)
        ds = flagship.enriched_dataset(files, PipelineConfig(), layer_kwargs,
                                       caps_dir=caps, orph_dir=orph)
        schema = ds.schema()
        binary_cols = [n for n, t in zip(schema.names, schema.types)
                       if pa.types.is_binary(t) or pa.types.is_large_binary(t)]
        assert binary_cols == [], binary_cols
        assert "orph_bytes" not in schema.names

    def test_capture_tree_deterministic_across_runs(self, tiny_images_dir,
                                                    layers_dir, flag_out,
                                                    tmp_path):
        """The orphan spill + single-task orphan pass must not introduce
        run-order nondeterminism: a second fresh run produces a
        byte-identical captures tree (file names AND bytes) — the capture
        analogue of the enriched-tree resume pin."""
        out_a, _ = flag_out
        out_b = str(tmp_path / "b")
        flagship.run_flagship(tiny_images_dir, out_b, resume=False,
                              layers_dir=layers_dir)

        def tree(root):
            files = sorted(glob.glob(os.path.join(root, "captures", "**",
                                                  "*.parquet"),
                                     recursive=True))
            return {os.path.relpath(f, root):
                    hashlib.sha256(open(f, "rb").read()).hexdigest()
                    for f in files}

        ta, tb = tree(out_a), tree(out_b)
        assert ta and ta == tb

    def test_orphan_bucket_key_stability(self):
        """o:<bucket> keys derive from the stable capture_id hash — never
        from row position or batch boundaries: the same capture_id maps to
        the same bucket regardless of how rows are batched."""
        import pyarrow as pa

        t = pa.table({"capture_id": ["c1", "c2", "c3", "c1"]})
        keyed = flagship._add_orphan_key(t, orphan_buckets=16)
        keys = keyed.column("part_key").to_pylist()
        assert keys[0] == keys[3] and all(k.startswith("o:") for k in keys)
        # batching-invariant: keying each slice alone gives the same keys
        for i in range(4):
            one = flagship._add_orphan_key(t.slice(i, 1), orphan_buckets=16)
            assert one.column("part_key").to_pylist()[0] == keys[i]

    def test_orphan_pass_runs_no_exchange(self, tiny_images_dir, layers_dir,
                                          tmp_path, monkeypatch):
        """The orphan pass is map-only: with Dataset groupby, sort and
        repartition disabled it still resolves the spill, and its capture
        rows equal the capture kernel over the whole concatenated spill."""
        import pyarrow as pa
        import ray.data

        from tiff_enrichment_pipeline_ray.config import PipelineConfig
        from tiff_enrichment_pipeline_ray.stages import capture as capture_stage
        from tiff_enrichment_pipeline_ray.stages import enrich as enrich_stage
        from tiff_enrichment_pipeline_ray.state.schemas import (
            CAPTURE_TYPES,
            pin_from_pandas,
        )

        files = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))
        caps, orph = str(tmp_path / "caps"), str(tmp_path / "orph")
        os.makedirs(caps)
        flagship.enriched_dataset(files, PipelineConfig(),
                                  enrich_stage.put_layers(layers_dir),
                                  caps_dir=caps, orph_dir=orph).materialize()
        spill = pa.concat_tables(
            [pq.ParquetFile(p).read()
             for p in sorted(glob.glob(os.path.join(orph, "*.parquet")))],
            promote_options="default").to_pandas()
        assert len(spill)

        def no_exchange(*a, **kw):
            raise AssertionError("the orphan pass must not exchange")

        for name in ("groupby", "sort", "repartition"):
            monkeypatch.setattr(ray.data.Dataset, name, no_exchange)
        out = str(tmp_path / "o")
        os.makedirs(out)
        lineage = flagship._resolve_orphans(orph, out)

        def by_capture(t):
            return (t.to_pandas().sort_values("capture_id")
                    .reset_index(drop=True))

        got = by_capture(pa.concat_tables(
            [pq.ParquetFile(p).read()
             for p in sorted(glob.glob(os.path.join(out, "o_*.parquet")))]))
        want = by_capture(flagship._cap_cells(pin_from_pandas(
            capture_stage.process_bucket(
                spill.rename(columns={"orph_bytes": "bytes"})),
            CAPTURE_TYPES)))
        pd.testing.assert_frame_equal(got, want)
        assert int(lineage["rows"].sum()) == len(want)

    def test_shuffled_input_same_captures(self, tiny_images_dir, layers_dir,
                                          flag_out, tmp_path):
        """Orphan-heavy input: the fixture rewritten in a seeded shuffled
        row order splits most capture sets across blocks, so most captures
        go through the spill and the orphan pass. The captures row set
        (incomplete sets included) equals the ordered run's."""
        import pyarrow as pa

        files = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))
        parts = [pq.ParquetFile(f).read() for f in files]
        t = pa.concat_tables(parts)
        t = t.take(pa.array(np.random.default_rng(17).permutation(t.num_rows)))
        in_dir = tmp_path / "shuffled"
        os.makedirs(in_dir)
        start = 0
        for i, p in enumerate(parts):
            pq.write_table(t.slice(start, p.num_rows),
                           str(in_dir / f"images-{i:03d}.parquet"))
            start += p.num_rows
        out_b = str(tmp_path / "b")
        flagship.run_flagship(str(in_dir), out_b, resume=False,
                              layers_dir=layers_dir)

        def captures(root, pattern="*.parquet"):
            return sorted(glob.glob(os.path.join(root, "captures", "**",
                                                 pattern), recursive=True))

        def by_capture(root, pattern="*.parquet"):
            return (pa.concat_tables([pq.ParquetFile(f).read()
                                      for f in captures(root, pattern)])
                    .to_pandas().sort_values("capture_id")
                    .reset_index(drop=True))

        out_a, _ = flag_out
        want = by_capture(out_a)
        assert (want.status == "incomplete_set").any()
        got = by_capture(out_b)
        assert 2 * len(by_capture(out_b, "o_*.parquet")) > len(got)
        pd.testing.assert_frame_equal(got, want)


class TestAccounting:
    def test_row_conservation(self, flag_out, enriched_df, failed_df,
                              all_df, input_df):
        _, summary = flag_out
        assert len(all_df) == len(input_df)
        assert summary["rows_total_manifest"] == len(enriched_df)
        assert summary["failed_rows"] == len(failed_df)
        assert all_df.image_id.is_unique

    def test_quarantine_routing(self, enriched_df, failed_df, input_df):
        """Reference failed-directory semantics (main.py:244-251): exactly
        the undecodable rows land in failed/, none in enriched/."""
        assert len(failed_df) > 0
        assert (~failed_df.decode_ok).all()
        assert enriched_df.decode_ok.all()
        assert failed_df.issues.map(
            lambda l: "decode_failed" in list(l)).all()
        assert not set(failed_df.image_id) & set(enriched_df.image_id)

    def test_empty_grid_row_quarantined(self, tiny_images_dir, layers_dir,
                                        tmp_path):
        """A GI01 payload holding a 0×0 grid is a failed decode: its row
        lands in the failed tree and the rest of its block is still
        enriched."""
        import pyarrow as pa

        f = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))[0]
        t = pq.read_table(f).slice(0, 24)
        df = t.to_pandas()
        df.at[0, "bytes"] = codec.encode_image(np.zeros((0, 0), np.uint16),
                                               "raw", {})
        in_dir = tmp_path / "in"
        os.makedirs(in_dir)
        pq.write_table(pa.Table.from_pandas(df, schema=t.schema,
                                            preserve_index=False),
                       str(in_dir / "images-000.parquet"))
        out = str(tmp_path / "out")
        flagship.run_flagship(str(in_dir), out, resume=False,
                              layers_dir=layers_dir)
        failed = flagship.read_failed(out).to_pandas()
        enriched = flagship.read_enriched(out).to_pandas()
        assert df.image_id[0] in set(failed.image_id)
        good = {i for i, b in zip(df.image_id, df.bytes)
                if codec.decode_image(b)[2]}
        assert len(good) > len(df) // 2
        assert set(enriched.image_id) == good
        assert set(failed.image_id) == set(df.image_id) - good

    def test_manifest_lineage(self, flag_out):
        out, _ = flag_out
        from tiff_enrichment_pipeline_ray.state.manifest import Manifest

        recs = Manifest(out).records()
        assert all(r["status"] == "done" for r in recs)
        part_rows = sum(p["rows"] for r in recs for p in r["parts"]
                        if p.get("kind", "enriched") == "enriched")
        assert part_rows == sum(r["row_count"] for r in recs)
        for r in recs:
            for p in r["parts"]:
                assert p["h3_lo"] <= p["h3_hi"]

    def test_manifest_audit_stamp(self, flag_out):
        """Round-4 audit/versioning stamp (create-tables.sql:226-243):
        every partition row records the producing config hash + engine
        version, and any toggle change changes the hash."""
        out, _ = flag_out
        from tiff_enrichment_pipeline_ray import __version__
        from tiff_enrichment_pipeline_ray.config import PipelineConfig
        from tiff_enrichment_pipeline_ray.state.manifest import Manifest

        cfg = PipelineConfig()
        for r in Manifest(out).records():
            assert r["config_hash"] == cfg.config_hash()
            assert r["engine_version"] == __version__
        other = PipelineConfig(partition_row_budget=1)
        assert other.config_hash() != cfg.config_hash()
        assert PipelineConfig().config_hash() == cfg.config_hash()

    def test_caption_equality_per_row(self, all_df, input_df):
        """BASELINE.json per-row invariant: caption survives byte-equal."""
        m = all_df.merge(input_df[["image_id", "caption"]],
                              on="image_id", suffixes=("", "_in"))
        assert (m.caption == m.caption_in).all()

    def test_phash_passthrough(self, all_df, input_df):
        m = all_df.merge(input_df[["image_id", "phash"]], on="image_id",
                              suffixes=("", "_in"))
        assert (m.phash == m.phash_in).all()


class TestFastPercentiles:
    @staticmethod
    def _separate_passes(px):
        """The A4 stats as separate numpy passes: min, max, float64
        mean/std, zero share, np.percentile(float64, linear)."""
        p = np.percentile(px.astype(np.float64), (25, 50, 75))
        return (int(px.min()), int(px.max()),
                float(px.mean(dtype=np.float64)),
                float(px.std(dtype=np.float64)),
                float((px == 0).mean()),
                float(p[0]), float(p[1]), float(p[2]))

    def test_bit_exact_vs_np_percentile(self):
        """The sorted-order A4 percentiles must equal
        np.percentile(float64, (25,50,75)) BITWISE (the values land in the
        enriched parquet the oracles read)."""
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(1, 500))
            px = rng.integers(0, 65536, n).astype(np.uint16)
            want = np.percentile(px.astype(np.float64), (25, 50, 75))
            got = np.array(flagship._pixel_stats(px)[5:])
            assert (want == got).all(), (n, want, got)
        px = rng.integers(0, 65536, (144, 144)).astype(np.uint16)
        want = np.percentile(px.astype(np.float64), (25, 50, 75))
        assert (np.array(flagship._pixel_stats(px)[5:]) == want).all()

    def test_stats_tuple_matches_separate_passes(self):
        """The one-sort kernel returns the whole stats tuple bit-for-bit
        (and type-for-type) as the separate passes do, on edge shapes and
        on pixel grids with many zeros and ties."""
        rng = np.random.default_rng(9)
        cases = [np.array([0], np.uint16), np.array([65535], np.uint16),
                 np.array([[7]], np.uint16),
                 np.zeros((144, 144), np.uint16),
                 np.full((144, 144), 4242, np.uint16),
                 np.full((3, 5), 65535, np.uint16),
                 rng.integers(0, 65536, (144, 144)).astype(np.uint16)]
        for _ in range(200):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            hi = int(rng.choice([2, 16, 65536]))
            px = rng.integers(0, hi, shape).astype(np.uint16)
            px[rng.random(shape) < rng.random()] = 0
            cases.append(px)
        for px in cases:
            want = self._separate_passes(px)
            got = flagship._pixel_stats(px)
            assert got == want, (px.shape, want, got)
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_no_copy_mean_std_bit_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 20000))
            px = rng.integers(0, 65536, n).astype(np.uint16)
            f = px.astype(np.float64)
            assert float(px.mean(dtype=np.float64)) == float(f.mean())
            assert float(px.std(dtype=np.float64)) == float(f.std())


class TestDecodeInvariants:
    def test_decoded_pixel_stats_and_psnr(self, all_df, input_df):
        """Decode invariant: raw/png bit-exact ⇒ phash(decoded) == phash;
        lossyq PSNR ≥ 40 dB (input_hint)."""
        sample = input_df.sample(n=150, random_state=0)
        e = all_df.set_index("image_id")
        for _, row in sample.iterrows():
            px, _, ok = codec.decode_image(row["bytes"])
            erow = e.loc[row.image_id]
            assert ok == bool(erow.decode_ok)
            if not ok:
                continue
            if row.fmt in ("raw", "png"):
                h = hashlib.blake2b(np.ascontiguousarray(px, "<u2").tobytes(),
                                    digest_size=8).digest()
                assert (int.from_bytes(h, "big") >> 1) == row.phash
            assert erow.px_mean == pytest.approx(float(px.mean()), rel=1e-12)
            assert erow.zero_ratio == pytest.approx(float((px == 0).mean()))


class TestEnrichmentParity:
    """Row-for-row parity vs independent oracles (not the engine's index
    structures): brute PIP loop, brute kNN matrix, direct terrain bilinear."""

    @pytest.fixture(scope="class")
    def sample(self, enriched_df):
        gps = enriched_df[enriched_df.has_gps & enriched_df.decode_ok]
        return gps.sample(n=min(250, len(gps)), random_state=1)

    def test_landcover_class(self, sample, layers_dir):
        lc = pq.read_table(os.path.join(layers_dir, "landcover.parquet")).to_pandas()
        rings = [np.asarray([list(p) for p in r], dtype=np.float64)
                 for r in lc.rings]
        for _, row in sample.iterrows():
            best = -1
            for pid, ring in zip(lc.polygon_id, rings):
                x, y = row.lon, row.lat
                inside = False
                k = len(ring)
                for j in range(k):
                    x0, y0 = ring[j]
                    x1, y1 = ring[(j + 1) % k]
                    if (y0 <= y < y1) or (y1 <= y < y0):
                        if x < x0 + (y - y0) * (x1 - x0) / (y1 - y0):
                            inside = not inside
                if inside and (best < 0 or pid < best):
                    best = pid
            if best < 0:
                assert pd.isna(row.landcover_class)
            else:
                want = lc.set_index("polygon_id").loc[best]
                assert row.landcover_class == want["class"]
                assert row.landcover_confidence == pytest.approx(want.confidence)
                assert row.landcover_year == want.year

    def test_weather_station_knn(self, sample, layers_dir):
        st = pq.read_table(os.path.join(layers_dir,
                                        "weather_stations.parquet")).to_pandas()
        st = st.sort_values("station_id").reset_index(drop=True)
        d = haversine_m(sample.lat.to_numpy()[:, None],
                        sample.lon.to_numpy()[:, None],
                        st.lat.to_numpy()[None, :], st.lon.to_numpy()[None, :])
        best = np.argmin(d, axis=1)  # first index wins ties = min station_id
        want = st.station_id.to_numpy()[best]
        assert (sample.weather_station_id.to_numpy() == want).all()
        np.testing.assert_allclose(sample.weather_dist_m.to_numpy(),
                                   d[np.arange(len(sample)), best], rtol=1e-12)

    def test_weather_obs_join(self, sample, layers_dir):
        obs = pq.read_table(os.path.join(layers_dir, "weather_obs.parquet")).to_pandas()
        obs["date"] = pd.to_datetime(obs["date"]).dt.strftime("%Y-%m-%d")
        omap = obs.set_index(["station_id", "date"])
        for _, row in sample.iterrows():
            key = (row.weather_station_id, row.weather_date)
            if key in omap.index:
                want = omap.loc[key]
                assert row.tmin_c == pytest.approx(want.tmin_c)
                assert row.precip_mm == pytest.approx(want.precip_mm)
            else:
                assert pd.isna(row.tmin_c)

    def test_elevation_bilinear(self, sample):
        """Independent bilinear: direct node-center interpolation of the
        terrain function's sampled grid."""
        tiles = synth.gen_elevation_tiles()
        res = tiles["res_deg"][0]
        lon0 = tiles["min_lon"].min()
        lat0 = tiles["min_lat"].min()
        # sample a few points manually
        sub = sample.head(40)
        for _, row in sub.iterrows():
            fc = (row.lon - lon0) / res - 0.5
            fr = (row.lat - lat0) / res - 0.5
            c0, r0 = int(np.floor(fc)), int(np.floor(fr))
            wc, wr = fc - c0, fr - r0
            def node(rr, cc):
                la = lat0 + (rr + 0.5) * res
                lo = lon0 + (cc + 0.5) * res
                return float(np.float32(synth.terrain_m(la, lo)))
            want = (node(r0, c0) * (1 - wr) * (1 - wc)
                    + node(r0, c0 + 1) * (1 - wr) * wc
                    + node(r0 + 1, c0) * wr * (1 - wc)
                    + node(r0 + 1, c0 + 1) * wr * wc)
            assert row.elevation_m == pytest.approx(want, abs=1e-6)
            assert row.elevation_src == "usgs_3dep"

    def test_cells_nonnull_and_consistent(self, sample):
        from tiff_enrichment_pipeline_ray.functions.cells import s2_cell

        assert (sample.h3_r5 >= 0).all() and (sample.s2_cell != -1).all()
        lat = sample.lat.to_numpy()
        lon = sample.lon.to_numpy()
        assert (sample.h3_r9.to_numpy() == ref.hex7_cell(lat, lon, 9)).all()
        assert (ref.hex7_parent(sample.h3_r6.to_numpy())
                == sample.h3_r5.to_numpy()).all()
        assert (sample.s2_cell.to_numpy() == s2_cell(lat, lon, 16)).all()


class TestValidation:
    def test_small_dims_flagged(self, enriched_df):
        small = enriched_df[(enriched_df.w < 100) | (enriched_df.h < 100)]
        assert len(small) > 0
        assert small.issues.map(lambda l: "dims_too_small" in list(l)).all()

    def test_zero_ratio_flagged(self, enriched_df):
        z = enriched_df[enriched_df.decode_ok & (enriched_df.zero_ratio > 0.5)]
        assert len(z) > 0
        assert z.issues.map(lambda l: "zero_ratio_exceeded" in list(l)).all()

    def test_no_gps_flagged_and_unenriched(self, enriched_df):
        ng = enriched_df[~enriched_df.has_gps & enriched_df.decode_ok]
        assert len(ng) > 0
        assert ng.issues.map(lambda l: "missing_gps" in list(l)).all()
        assert ng.landcover_class.isna().all()
        assert ng.weather_station_id.isna().all()
        assert (ng.h3_r5 == -1).all()

    def test_in_nl_bounds(self, enriched_df):
        ok = enriched_df[enriched_df.in_nl]
        assert len(ok) > 0
        assert (ok.lat >= 50.7).all() and (ok.lat <= 53.6).all()
        assert (ok.lon >= 3.0).all() and (ok.lon <= 7.3).all()


class TestDedup:
    def test_phash_duplicates_exist_and_resolve(self, enriched_df):
        dups = enriched_df.groupby("phash").image_id.agg(["count", "min"])
        multi = dups[dups["count"] > 1]
        assert len(multi) > 0  # ~2% regular rows are template dups
        # keep-first = min image_id (deterministic)
        for ph, row in multi.head(5).iterrows():
            grp = enriched_df[enriched_df.phash == ph]
            assert row["min"] == grp.image_id.min()


def _reference_stack(cols, idx):
    """The capture kernel's steps 2-3 spelled out pass by pass, the way
    processor.py:300-399 runs them: align each band onto band 3's grid
    (``affine_bilinear_resample``; the bands stack as-is without GPS or
    with a non-finite pixel size, resampled only when the shape differs),
    clip → uint16, ``reference_forms.calibrate`` → float32. ``idx`` = the
    five band rows sorted by band; None when a band does not decode."""
    from tiff_enrichment_pipeline_ray.functions import indices as I
    from tiff_enrichment_pipeline_ray.functions.raster import (
        affine_bilinear_resample)

    decoded = [cols["_px"][i] if "_px" in cols
               else codec.decode_pixels_only(cols["bytes"][i]) for i in idx]
    if any(px is None for px in decoded):
        return None
    r = idx[2]
    H, W = decoded[2].shape
    have_geo = bool(cols["has_gps"][r]) and np.isfinite(cols["px_deg"][r])
    bands = []
    for k, (i, px) in enumerate(zip(idx, decoded)):
        if k == 2 or not have_geo or not np.isfinite(cols["px_deg"][i]):
            band = px.astype(np.float32)
            if band.shape != (H, W):
                band = affine_bilinear_resample(
                    px, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0,
                    px.shape[1] / W, px.shape[0] / H, H, W)
        else:
            band = affine_bilinear_resample(
                px, *(float(cols[c][i]) for c in
                      ("west", "north", "px_deg", "py_deg")),
                *(float(cols[c][r]) for c in
                  ("west", "north", "px_deg", "py_deg")), H, W)
        bands.append(band)
    aligned = np.clip(np.stack(bands), 0, 65535).astype(np.uint16)
    return ref.calibrate(aligned.astype(np.float32)).astype(np.float32)


def _reference_row(cid, cols, idx, names):
    """One capture's kernel outputs from the reference chain: stack →
    ``compute_index`` → ``quantize_index`` → raw blob; float32 mean;
    NDVI coverage as the boolean mean."""
    from tiff_enrichment_pipeline_ray.config import ALL_INDICES
    from tiff_enrichment_pipeline_ray.functions import indices as I

    rec = {"status": "incomplete_set", "n_bands": len(idx),
           "coverage_gt_02": np.nan, "coverage_gt_05": np.nan}
    for name in ALL_INDICES:
        rec[f"mean_{name}"] = np.nan
        rec[f"index_{name}"] = None
    idx = idx[np.argsort(cols["band"][idx], kind="stable")]
    if cols["band"][idx].tolist() != [1, 2, 3, 4, 5]:
        return rec
    stack = _reference_stack(cols, idx)
    if stack is None:
        return dict(rec, status="failed_decode")
    rec["status"] = "ok"
    for name in names:
        val = I.compute_index(name, stack)
        rec[f"mean_{name}"] = float(val.mean())
        rec[f"index_{name}"] = codec.encode_image(
            I.quantize_index(val), "raw",
            {"Index": name.upper(), "Capture Id": cid})
    ndvi = I.compute_index("ndvi", stack)
    rec["coverage_gt_02"] = float((ndvi > 0.2).mean())
    rec["coverage_gt_05"] = float((ndvi > 0.5).mean())
    return rec


def _crafted_captures():
    """Band rows (CAPTURE_SHUFFLE_COLS) of captures built to reach every
    branch and edge of the capture kernel: full-range DNs, DNs around the
    saturation level 7, all-zero bands (zero index denominators), a
    negative EVI denominator, ±3 px band offsets (edge clamps and the
    zero fill), no GPS, a band shape that differs on the identity path,
    a NaN pixel size on one band, a corrupt band and an incomplete set."""
    rng = np.random.default_rng(23)
    deg = 1e-5
    rows = []

    def add(cid, bands, gps=True, shifts=None, px_deg=None, bad=()):
        for b, px in bands.items():
            dx, dy = (shifts or {}).get(b, (0.0, 0.0))
            pdeg = (px_deg or {}).get(b, deg)
            blob = (b"GI01corrupt" if b in bad
                    else codec.encode_image(px.astype(np.uint16), "raw", {}))
            rows.append({
                "capture_id": cid, "image_id": f"{cid}_{b}", "band": b,
                "bytes": blob, "w": px.shape[1], "h": px.shape[0],
                "decode_ok": b not in bad, "has_gps": gps,
                "lat": 52.0 if gps else np.nan,
                "lon": 5.0 if gps else np.nan, "alt_m": 80.0,
                "ts_raw": "2024:05:01 10:00:00", "caption": cid,
                "west": 5.0 + dx * deg if gps else np.nan,
                "north": 52.0 + dy * deg if gps else np.nan,
                "px_deg": pdeg if gps else np.nan,
                "py_deg": deg if gps else np.nan})

    def grid(hi, shape=(16, 16)):
        return rng.integers(0, hi, shape)

    sub = {b: (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
           for b in (1, 2, 4, 5)}
    add("C_full", {b: grid(65536) for b in range(1, 6)}, shifts=sub)
    add("C_sat", {b: grid(13) for b in range(1, 6)},
        shifts={1: (3.0, 0.0), 2: (-3.0, 0.0), 4: (0.0, 3.0),
                5: (-2.6, -3.0)})
    add("C_zero", {b: np.zeros((16, 16)) for b in range(1, 6)}, shifts=sub)
    # blue saturated, red/nir zero: n + 6r − 7.5b + 1 < 0 everywhere
    add("C_evi_neg", {1: np.full((16, 16), 9), 2: grid(9), 3: np.zeros((16, 16)),
                      4: np.zeros((16, 16)), 5: grid(9)})
    add("C_nogps", {b: grid(10) for b in range(1, 6)}, gps=False)
    add("C_shape", {1: grid(10, (20, 24)), 2: grid(10, (12, 16)),
                    3: grid(10), 4: grid(10), 5: grid(10, (16, 16))},
        gps=False)
    add("C_nanpx", {b: grid(10) for b in range(1, 6)}, shifts=sub,
        px_deg={2: np.nan})
    add("C_corrupt", {b: grid(10) for b in range(1, 6)}, bad=(4,))
    add("C_incomplete", {b: grid(10) for b in (1, 2, 3, 5)})
    return pd.DataFrame(rows)


class TestCaptures:
    def test_kernel_matches_reference_chain_on_crafted_captures(self):
        """Every ``process_bucket`` output the capture rows store — status,
        n_bands, the index blobs, ``mean_*`` as float64 bits and the
        coverages — equals the step-by-step reference chain on crafted
        captures, with the pixels taken from ``bytes`` or from the stats
        stage's ``_px``, for all indices, NDVI alone and a subset without
        NDVI."""
        from tiff_enrichment_pipeline_ray.config import ALL_INDICES
        from tiff_enrichment_pipeline_ray.stages import capture as C

        df = _crafted_captures()
        cols = {c: df[c].to_numpy() for c in df.columns}
        with_px = df.assign(_px=[codec.decode_pixels_only(b)
                                 for b in df["bytes"]])
        for names in (ALL_INDICES, ("ndvi",), ("evi", "msavi", "ndwi")):
            for frame in (df, with_px):
                got = C.process_bucket(frame, index_names=names)
                got = got.set_index("capture_id")
                assert sorted(got.index) == sorted(df.capture_id.unique())
                for cid, grp in df.groupby("capture_id"):
                    want = _reference_row(cid, cols, grp.index.to_numpy(),
                                          names)
                    row = got.loc[cid]
                    for col, w in want.items():
                        g = row[col]
                        if isinstance(w, float):
                            assert (np.float64(g).view(np.int64)
                                    == np.float64(w).view(np.int64)), \
                                (cid, names, col, g, w)
                        else:
                            assert g == w or (g is None and w is None), \
                                (cid, names, col)
        statuses = C.process_bucket(df).set_index("capture_id").status
        assert statuses.to_dict() == {
            "C_corrupt": "failed_decode", "C_evi_neg": "ok",
            "C_full": "ok", "C_incomplete": "incomplete_set",
            "C_nanpx": "ok", "C_nogps": "ok", "C_sat": "ok",
            "C_shape": "ok", "C_zero": "ok"}

    def test_identity_path_bit_exact(self, flag_out, input_df):
        """A no-GPS capture takes the identity-alignment path: NDVI blob must
        equal the directly computed quantized NDVI, bit-for-bit."""
        out, _ = flag_out
        caps = flagship.read_captures(out).to_pandas()
        ok = caps[caps.status == "ok"]
        nogps = ok[ok.lat.isna()]
        checked = 0
        inp = input_df.set_index("image_id")
        for _, cap in nogps.head(3).iterrows():
            bands = {}
            for b in range(1, 6):
                px = codec.decode_pixels_only(inp.loc[f"{cap.capture_id}_{b}", "bytes"])
                bands[b] = px.astype(np.float32)
            from tiff_enrichment_pipeline_ray.functions import indices as I

            stack = np.stack([bands[b] for b in (1, 2, 3, 4, 5)])
            calib = ref.calibrate(np.clip(stack, 0, 65535).astype("uint16").astype("float32"))
            ndvi = I.ndvi(calib[3].astype("float32"), calib[2].astype("float32"))
            want = I.quantize_index(ndvi)
            got = codec.decode_pixels_only(cap.index_ndvi)
            assert (got == want).all()
            checked += 1
        assert checked > 0 or len(nogps) == 0

    def test_every_index_blob_is_raw_and_exact(self, flag_out, all_df,
                                                input_df):
        """Every ``ok`` capture stores its 8 index grids as raw GI01 blobs
        (the parquet page codec is the only compression) carrying the
        index name and capture id, and each grid equals the quantized index
        of the capture's band stack from the step-by-step reference chain
        (``_reference_stack``), not from the kernel's own fused passes."""
        from tiff_enrichment_pipeline_ray.config import ALL_INDICES
        from tiff_enrichment_pipeline_ray.functions import indices as I
        from tiff_enrichment_pipeline_ray.stages import capture as C

        out, _ = flag_out
        caps = flagship.read_captures(out).to_pandas()
        ok = caps[caps.status == "ok"].set_index("capture_id")
        assert len(ok) > 0
        rows = all_df[all_df.capture_id.isin(ok.index)].merge(
            input_df[["image_id", "bytes"]], on="image_id")
        cols = {c: rows[c].to_numpy() for c in C.CAPTURE_SHUFFLE_COLS}
        for cid, grp in rows.groupby("capture_id"):
            idx = grp.sort_values("band").index.to_numpy()
            assert cols["band"][idx].tolist() == [1, 2, 3, 4, 5]
            stack = _reference_stack(cols, idx)
            for name in ALL_INDICES:
                blob = ok.at[cid, f"index_{name}"]
                assert codec.decode_header_meta(blob)["fmt"] == "raw"
                px, meta, good = codec.decode_image(blob)
                assert good, (cid, name)
                assert meta == {"Index": name.upper(), "Capture Id": cid}
                want = I.quantize_index(I.compute_index(name, stack))
                assert px.dtype == want.dtype and (px == want).all(), \
                    (cid, name)
        assert rows.capture_id.nunique() == len(ok)

    def test_capture_statuses(self, flag_out):
        out, _ = flag_out
        caps = flagship.read_captures(out).to_pandas()
        st = set(caps.status.unique())
        assert "ok" in st and "incomplete_set" in st
        okc = caps[caps.status == "ok"]
        assert (okc.n_bands == 5).all()
        assert okc.coverage_gt_02.between(0, 1).all()
        # NDVI coverage at 0.2 must be ≥ coverage at 0.5
        assert (okc.coverage_gt_02 >= okc.coverage_gt_05).all()

    def test_index_selection_honored(self, tiny_images_dir, layers_dir,
                                     flag_out, tmp_path):
        """``PipelineConfig.indices`` selects the index grids every capture
        writer stores: with ("ndvi",) only ``index_ndvi``/``mean_ndvi`` are
        set, identical to the default run's, and the other seven are
        null."""
        from tiff_enrichment_pipeline_ray.config import (ALL_INDICES,
                                                         PipelineConfig)

        out = str(tmp_path / "ndvi_only")
        flagship.run_flagship(tiny_images_dir, out, resume=False,
                              layers_dir=layers_dir,
                              cfg=PipelineConfig(indices=("ndvi",)))
        caps = flagship.read_captures(out).to_pandas().set_index("capture_id")
        ok = caps[caps.status == "ok"]
        assert len(ok) > 0
        assert ok.index_ndvi.notna().all() and ok.mean_ndvi.notna().all()
        for name in ALL_INDICES:
            if name != "ndvi":
                assert ok[f"index_{name}"].isna().all(), name
                assert ok[f"mean_{name}"].isna().all(), name
        full = flagship.read_captures(flag_out[0]).to_pandas() \
            .set_index("capture_id").loc[ok.index]
        assert (ok.index_ndvi == full.index_ndvi).all()
        assert (ok.coverage_gt_02 == full.coverage_gt_02).all()


class TestResume:
    def test_byte_identical_after_simulated_kill(self, tiny_images_dir,
                                                 layers_dir, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        flagship.run_flagship(tiny_images_dir, a, checkpoint_partitions=2,
                              resume=False, with_captures=False,
                              layers_dir=layers_dir)
        # simulated kill after partition 0, then resume
        flagship.run_flagship(tiny_images_dir, b, checkpoint_partitions=2,
                              resume=False, with_captures=False,
                              layers_dir=layers_dir, limit_partitions=1)
        s2 = flagship.run_flagship(tiny_images_dir, b, checkpoint_partitions=2,
                                   resume=True, with_captures=False,
                                   layers_dir=layers_dir)
        assert s2["partitions_skipped"] == 1 and s2["partitions_run"] == 1
        fa = sorted(glob.glob(os.path.join(a, "enriched", "**", "*.parquet"),
                              recursive=True))
        fb = sorted(glob.glob(os.path.join(b, "enriched", "**", "*.parquet"),
                              recursive=True))
        assert [os.path.relpath(p, a) for p in fa] == \
               [os.path.relpath(p, b) for p in fb]
        for pa_, pb_ in zip(fa, fb):
            with open(pa_, "rb") as f1, open(pb_, "rb") as f2:
                assert hashlib.sha256(f1.read()).digest() == \
                    hashlib.sha256(f2.read()).digest(), pa_


class TestEnrichmentExecution:
    def test_dataset_matches_in_process_chain(self, tiny_images_dir,
                                              layers_dir):
        """The one enrichment execution (``enrich_batch_cached`` with its
        per-worker ``_WORKER_ENRICHER`` cache, fused into the read/decode
        task chain) equals the same stages run in-process with a directly
        built ``Enricher``, row for row."""
        import pyarrow as pa

        from tiff_enrichment_pipeline_ray.config import PipelineConfig
        from tiff_enrichment_pipeline_ray.stages import enrich as E
        from tiff_enrichment_pipeline_ray.stages.extract import (
            assign_cells, extract_meta_light, georef, validate)

        files = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))[:2]
        got = (flagship.enriched_dataset(files, PipelineConfig(),
                                         E.put_layers(layers_dir))
               .to_pandas().sort_values("image_id").reset_index(drop=True))

        enricher = E.Enricher(layers=E.load_layers(layers_dir))
        decode = flagship._make_decode_stats_capture_stage(None)
        blocks = []
        for f in files:
            t = pq.read_table(f)
            for fn in (extract_meta_light, georef, assign_cells, enricher,
                       decode, validate):
                t = fn(t)
            blocks.append(t)
        want = (pa.concat_tables(blocks).to_pandas()
                .sort_values("image_id").reset_index(drop=True))
        assert len(want) > 0 and want.landcover_class.notna().any()
        pd.testing.assert_frame_equal(got[want.columns], want)


class TestSkew:
    def test_partition_budget_respected(self, tiny_images_dir, layers_dir,
                                        tmp_path):
        from tiff_enrichment_pipeline_ray.config import PipelineConfig

        out = str(tmp_path / "skew")
        cfg = PipelineConfig(partition_row_budget=60)
        flagship.run_flagship(tiny_images_dir, out, cfg=cfg, resume=False,
                              with_captures=False, layers_dir=layers_dir)
        from tiff_enrichment_pipeline_ray.state.manifest import Manifest

        recs = Manifest(out).records()
        sizes = [p["rows"] for r in recs for p in r["parts"]]
        # sampled census ⇒ allow slack, but the hotspot cell MUST be split
        assert max(sizes) <= 60 * 3
        keys = [p["part_key"] for r in recs for p in r["parts"]]
        cells = pd.Series([k.split(":")[0] for k in keys])
        assert (cells.value_counts() > 1).any()  # at least one salted cell
        # several bins take the sort tail: its one exchange is on record
        ops = flagship.read_ops(out).to_pandas()
        assert ops["exchanges"].dtype == np.int64
        assert ops.set_index("stage")["exchanges"].to_dict() == {
            "census": 0, "enrich_write": 1, "orphan_resolve": 0,
            "captures_commit": 0, "quarantine": 0}


def _tree_digest(root, subs=("enriched", "captures", "failed")):
    """relative path → sha256 of every file under ``root``/``subs``."""
    files = sorted(f for sub in subs for f in glob.glob(
        os.path.join(root, sub, "**", "*"), recursive=True)
        if os.path.isfile(f))
    return {os.path.relpath(f, root):
            hashlib.sha256(open(f, "rb").read()).hexdigest() for f in files}


class TestWriteTail:
    def test_single_bin_partition_runs_no_exchange(
            self, tiny_images_dir, layers_dir, flag_out, tmp_path,
            monkeypatch):
        """A partition that fits one bin (no salted cells) is written by
        ONE writer task: with Dataset groupby, sort and repartition
        disabled the run still commits, its enriched, captures and failed
        trees are byte-identical to the shared run's (file names
        included), and its ops rows record no exchange."""
        import ray.data

        def no_exchange(*a, **kw):
            raise AssertionError("a single-bin partition must not exchange")

        for name in ("groupby", "sort", "repartition"):
            monkeypatch.setattr(ray.data.Dataset, name, no_exchange)
        out = str(tmp_path / "single")
        s = flagship.run_flagship(tiny_images_dir, out, resume=False,
                                  layers_dir=layers_dir)
        monkeypatch.undo()
        assert s["rows_written"] == flag_out[1]["rows_written"]
        want = _tree_digest(flag_out[0])
        assert want and _tree_digest(out) == want
        ops = flagship.read_ops(out).to_pandas()
        assert ops["exchanges"].dtype == np.int64
        assert (ops["exchanges"] == 0).all() and len(ops) == 5

    def test_empty_input_commits_empty_partition(self, tiny_images_dir,
                                                 layers_dir, tmp_path):
        """An input whose parquet has zero rows commits an empty partition
        (no writer call ever runs): empty enriched/failed/captures trees, a
        manifest row with 0 rows, and a resume skips it."""
        from tiff_enrichment_pipeline_ray.state.manifest import Manifest

        f = sorted(glob.glob(os.path.join(tiny_images_dir, "*.parquet")))[0]
        in_dir = tmp_path / "empty_in"
        os.makedirs(in_dir)
        pq.write_table(pq.read_table(f).slice(0, 0),
                       str(in_dir / "images-000.parquet"))
        out = str(tmp_path / "empty_out")
        s = flagship.run_flagship(str(in_dir), out, resume=False,
                                  layers_dir=layers_dir)
        assert (s["rows_written"], s["failed_rows"],
                s["captures_written"]) == (0, 0, 0)
        for sub in ("enriched", "failed", "captures"):
            assert os.listdir(os.path.join(out, sub, "part=00000")) == []
        recs = Manifest(out).records()
        assert [(r["partition_id"], r["row_count"]) for r in recs] == [(0, 0)]
        s2 = flagship.run_flagship(str(in_dir), out, resume=True,
                                   layers_dir=layers_dir)
        assert s2["partitions_skipped"] == 1 and s2["partitions_run"] == 0


class TestLayerBroadcast:
    def test_put_layers_cached_per_session_and_files(self, layers_dir,
                                                     tmp_path):
        """One broadcast per (session, layers dir, layer file mtimes and
        sizes): a second call returns the same ref, so the workers' built
        indexes stay cached; touching a layer file re-broadcasts."""
        import shutil

        from tiff_enrichment_pipeline_ray.stages import enrich as E

        d = str(tmp_path / "layers")
        shutil.copytree(layers_dir, d)
        a = E.put_layers(d)["layers_ref"]
        assert E.put_layers(d)["layers_ref"] is a
        lc = os.path.join(d, "landcover.parquet")
        st = os.stat(lc)
        os.utime(lc, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        b = E.put_layers(d)["layers_ref"]
        assert b is not a and E.put_layers(d)["layers_ref"] is b

    def test_put_layers_fresh_session_gets_live_ref(self, layers_dir):
        """A second ``ray.init`` in one process (the benchmark restarts its
        session this way) must not be handed the first session's ref,
        whose owner is gone: the cache is keyed on the session."""
        import subprocess
        import sys
        import textwrap

        import tiff_enrichment_pipeline_ray as pkg

        script = textwrap.dedent(f"""
            import ray
            from tiff_enrichment_pipeline_ray.stages import enrich as E
            refs = []
            for _ in range(2):
                ray.init(address="local", num_cpus=1, include_dashboard=False,
                         logging_level="ERROR",
                         object_store_memory=100 * 2**20)
                ref = E.put_layers({layers_dir!r})["layers_ref"]
                assert E.put_layers({layers_dir!r})["layers_ref"] is ref
                assert "landcover" in ray.get(ref, timeout=60)
                refs.append(ref.hex())
                ray.shutdown()
            assert refs[0] != refs[1], refs
            print("OK")
        """)
        root = os.path.dirname(os.path.dirname(pkg.__file__))
        env = dict(os.environ, PYTHONPATH=root)
        r = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0 and r.stdout.strip().endswith("OK"), \
            r.stderr[-2000:]


class TestStorageContract:
    """Multi-node storage contract (PipelineConfig.side_channel_dir):
    worker-written paths must be shared storage; the orphan spill honors
    the relocation knob without changing output bytes."""

    def test_worker_reachable_probe_passes_and_cleans(self, ray_session,
                                                      tmp_path):
        d = str(tmp_path / "shared")
        flagship.assert_worker_reachable(d)
        assert glob.glob(os.path.join(d, ".reach_probe_*")) == []

    def test_worker_reachable_probe_reads_on_every_alive_node(
            self, ray_session, tmp_path, monkeypatch):
        """The probe pins one reader to every alive node of ray.nodes()
        (hard node affinity) and skips dead nodes."""
        import ray
        from ray.util import scheduling_strategies

        me = ray.get_runtime_context().get_node_id()
        monkeypatch.setattr(ray, "nodes", lambda: [
            {"NodeID": me, "Alive": True},
            {"NodeID": "f" * len(me), "Alive": False},
            {"NodeID": me, "Alive": True}])
        pinned = []
        real = scheduling_strategies.NodeAffinitySchedulingStrategy

        def spy(node_id, soft):
            pinned.append((node_id, soft))
            return real(node_id, soft=soft)

        monkeypatch.setattr(scheduling_strategies,
                            "NodeAffinitySchedulingStrategy", spy)
        d = str(tmp_path / "shared")
        flagship.assert_worker_reachable(d)
        assert pinned == [(me, False), (me, False)]
        assert glob.glob(os.path.join(d, ".reach_probe_*")) == []

    def test_side_channel_dir_relocates_orphan_spill(
            self, tiny_images_dir, layers_dir, flag_out, tmp_path,
            monkeypatch):
        from tiff_enrichment_pipeline_ray.config import PipelineConfig

        side = str(tmp_path / "scratch")
        out_b = str(tmp_path / "b")
        seen = []
        orig = flagship._resolve_orphans

        def spy(*a, **kw):
            seen.append(a[0])
            return orig(*a, **kw)

        monkeypatch.setattr(flagship, "_resolve_orphans", spy)
        flagship.run_flagship(
            tiny_images_dir, out_b, resume=False, layers_dir=layers_dir,
            cfg=PipelineConfig(side_channel_dir=side))
        assert seen and all(p.startswith(side) for p in seen)

        # relocation must not change a byte of the captures output
        def tree(root):
            files = sorted(glob.glob(os.path.join(root, "captures", "**",
                                                  "*.parquet"),
                                     recursive=True))
            return {os.path.relpath(f, root):
                    hashlib.sha256(open(f, "rb").read()).hexdigest()
                    for f in files}

        out_a, _ = flag_out
        ta, tb = tree(out_a), tree(out_b)
        assert ta and ta == tb
