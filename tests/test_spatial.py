"""STRtree/PIP and bucketed-kNN correctness vs brute-force oracles, plus
elevation bilinear sampling and band-alignment resampling."""

import numpy as np
import pytest

from reference_forms import BruteKNN
from tiff_enrichment_pipeline_ray.functions.knn import CellBucketKNN
from tiff_enrichment_pipeline_ray.functions.pip import (
    PolygonIndex,
    STRtree,
    point_in_polygon_pairs,
    polygons_to_arrays,
)
from tiff_enrichment_pipeline_ray.functions.raster import (
    ElevationGrid,
    affine_bilinear_resample,
)
from tiff_enrichment_pipeline_ray.sources import synth


def _random_polys(rng, n):
    polys = []
    for _ in range(n):
        cx, cy = rng.uniform(0, 10, 2)
        nv = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        rad = rng.uniform(0.2, 1.5, nv)
        polys.append(np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], axis=1))
    return polys


def _brute_pip(px, py, polys, ids):
    """Independent crossing-number implementation (scalar loop oracle)."""
    out = np.full(len(px), -1, dtype=np.int64)
    for i, (x, y) in enumerate(zip(px, py)):
        best = None
        for pid, ring in zip(ids, polys):
            inside = False
            k = len(ring)
            for j in range(k):
                x0, y0 = ring[j]
                x1, y1 = ring[(j + 1) % k]
                if (y0 <= y < y1) or (y1 <= y < y0):
                    xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
                    if x < xi:
                        inside = not inside
            if inside and (best is None or pid < best):
                best = pid
        if best is not None:
            out[i] = best
    return out


class TestPIP:
    def test_strtree_candidates_complete(self):
        rng = np.random.default_rng(0)
        polys = _random_polys(rng, 80)
        arrs = polygons_to_arrays(polys)
        tree = STRtree(arrs["bbox"])
        px = rng.uniform(-1, 11, 500)
        py = rng.uniform(-1, 11, 500)
        pt, items = tree.query_points(px, py)
        # oracle: brute bbox containment
        got = set(zip(pt.tolist(), items.tolist()))
        for i in range(len(px)):
            for j, b in enumerate(arrs["bbox"]):
                if b[0] <= px[i] <= b[2] and b[1] <= py[i] <= b[3]:
                    assert (i, j) in got, (i, j)
        for (i, j) in got:
            b = arrs["bbox"][j]
            assert b[0] <= px[i] <= b[2] and b[1] <= py[i] <= b[3]

    def test_pip_matches_brute(self):
        rng = np.random.default_rng(1)
        polys = _random_polys(rng, 60)
        ids = np.arange(60, dtype=np.int64)
        idx = PolygonIndex(polys, ids)
        px = rng.uniform(-1, 11, 1000)
        py = rng.uniform(-1, 11, 1000)
        got = idx.join(py, px)  # (lat, lon) = (y, x)
        want = _brute_pip(px, py, polys, ids)
        # idx.join returns polygon positions == ids here
        assert (np.where(got >= 0, idx.ids[np.clip(got, 0, None)], -1)
                == want).sum() == len(px)

    def test_empty_layers(self):
        idx = PolygonIndex([], [])
        assert (idx.join(np.array([1.0]), np.array([1.0])) == -1).all()
        pt, it = STRtree(np.empty((0, 4))).query_points(np.array([1.0]), np.array([2.0]))
        assert len(pt) == 0 and len(it) == 0

    def test_pairs_vectorized_consistency(self):
        rng = np.random.default_rng(2)
        polys = _random_polys(rng, 10)
        arrs = polygons_to_arrays(polys)
        px = rng.uniform(0, 10, 200)
        py = rng.uniform(0, 10, 200)
        pairs_pt = np.repeat(np.arange(200), 10)
        pairs_poly = np.tile(np.arange(10), 200)
        inside = point_in_polygon_pairs(px, py, arrs["x"], arrs["y"],
                                        pairs_pt, pairs_poly)
        want = _brute_pip(px, py, polys, np.arange(10))
        # for each point the min inside poly must match the brute result
        for i in range(200):
            mask = inside[pairs_pt == i]
            mine = np.flatnonzero(mask)
            assert (mine.min() if len(mine) else -1) == want[i]


class TestKNN:
    def test_bucketed_equals_brute(self):
        rng = np.random.default_rng(3)
        slat = rng.uniform(50.7, 53.6, 400)
        slon = rng.uniform(3.0, 7.3, 400)
        brute = BruteKNN(slat, slon)
        bucket = CellBucketKNN(slat, slon, cell_deg=0.5)
        qlat = rng.uniform(50.5, 53.8, 2000)
        qlon = rng.uniform(2.8, 7.5, 2000)
        for k in (1, 3):
            bi, bd = brute.query(qlat, qlon, k)
            ci, cd = bucket.query(qlat, qlon, k)
            assert (bi == ci).all()
            np.testing.assert_allclose(bd, cd, rtol=1e-12)

    def test_deterministic_tie_break(self):
        # two stations at identical coords: lowest index must win
        slat = np.array([52.0, 52.0, 53.0])
        slon = np.array([5.0, 5.0, 6.0])
        for impl in (BruteKNN(slat, slon), CellBucketKNN(slat, slon, 0.5)):
            idx, _ = impl.query(np.array([52.001]), np.array([5.001]), k=2)
            assert idx[0, 0] == 0 and idx[0, 1] == 1

    def test_skewed_cluster(self):
        rng = np.random.default_rng(4)
        # dense cluster + sparse field (the urban-hotspot shape)
        slat = np.concatenate([52.37 + rng.normal(0, 0.05, 300),
                               rng.uniform(50.7, 53.6, 100)])
        slon = np.concatenate([4.89 + rng.normal(0, 0.05, 300),
                               rng.uniform(3.0, 7.3, 100)])
        brute = BruteKNN(slat, slon)
        bucket = CellBucketKNN(slat, slon, cell_deg=0.5)
        qlat = rng.uniform(50.7, 53.6, 1500)
        qlon = rng.uniform(3.0, 7.3, 1500)
        bi, _ = brute.query(qlat, qlon, 1)
        ci, _ = bucket.query(qlat, qlon, 1)
        assert (bi == ci).all()


class TestElevation:
    def test_sample_matches_terrain(self):
        tiles = synth.gen_elevation_tiles()
        grid = ElevationGrid(tiles)
        rng = np.random.default_rng(5)
        lat = rng.uniform(50.8, 53.5, 500)
        lon = rng.uniform(3.1, 7.2, 500)
        got = grid.sample(lat, lon)
        want = synth.terrain_m(lat, lon)
        # bilinear of a smooth field at 1/240° — within a few meters
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() < 3.0

    def test_outside_is_nan(self):
        grid = ElevationGrid(synth.gen_elevation_tiles())
        out = grid.sample(np.array([40.0, 60.0]), np.array([5.0, 5.0]))
        assert np.isnan(out).all()

    def test_exact_at_nodes(self):
        tiles = synth.gen_elevation_tiles()
        grid = ElevationGrid(tiles)
        res = tiles["res_deg"][0]
        lon = tiles["min_lon"].min() + (np.arange(5) + 0.5) * res
        lat = tiles["min_lat"].min() + (np.arange(5) + 0.5) * res
        got = grid.sample(lat, lon)
        want = synth.terrain_m(lat, lon)
        np.testing.assert_allclose(got, want, atol=1e-4)


class TestResample:
    def test_identity(self):
        src = np.arange(20 * 30, dtype=np.float32).reshape(20, 30)
        out = affine_bilinear_resample(src, 5.0, 52.0, 0.001, 0.001,
                                       5.0, 52.0, 0.001, 0.001, 20, 30)
        np.testing.assert_allclose(out, src, atol=1e-4)

    def test_half_pixel_shift(self):
        src = np.tile(np.arange(16, dtype=np.float32), (8, 1))
        # shift east by half a pixel: interior becomes the mean of neighbors
        out = affine_bilinear_resample(src, 0.0, 1.0, 0.1, 0.1,
                                       0.05, 1.0, 0.1, 0.1, 8, 16)
        np.testing.assert_allclose(out[:, :15],
                                   (src[:, :15] + src[:, 1:]) / 2.0, atol=1e-4)

    def test_out_of_bounds_zero_fill(self):
        src = np.ones((4, 4), dtype=np.float32)
        out = affine_bilinear_resample(src, 0.0, 1.0, 0.1, 0.1,
                                       10.0, 1.0, 0.1, 0.1, 4, 4)
        assert (out == 0).all()


class TestResampleBits:
    @staticmethod
    def _reference(src, sw_, sn, spx, spy, dw, dn, dpx, dpy, h, w):
        """The warp written plainly: float32 source, out-of-place products
        and sums, out-of-range rows/columns multiplied by 0."""
        sh, sw = src.shape
        fc = (dw + (np.arange(w, dtype=np.float64) + 0.5) * dpx - sw_) / spx - 0.5
        fr = (sn - (dn - (np.arange(h, dtype=np.float64) + 0.5) * dpy)) / spy - 0.5
        c0 = np.clip(np.floor(fc).astype(np.int64), 0, sw - 2)
        r0 = np.clip(np.floor(fr).astype(np.int64), 0, sh - 2)
        wc = np.clip(fc - c0, 0.0, 1.0).astype(np.float32)
        wr = np.clip(fr - r0, 0.0, 1.0).astype(np.float32)
        s = np.asarray(src, dtype=np.float32)
        ri = s[r0] * (1.0 - wr)[:, None] + s[r0 + 1] * wr[:, None]
        v = ri[:, c0] * (1.0 - wc)[None, :] + ri[:, c0 + 1] * wc[None, :]
        v *= ((fr >= -0.5) & (fr <= sh - 0.5))[:, None].astype(np.float32)
        v *= ((fc >= -0.5) & (fc <= sw - 0.5))[None, :].astype(np.float32)
        return v

    def test_bitwise_equal_to_plain_form_and_out(self):
        """Shifts, scales and shapes of every caller (capture alignment,
        ImageResize, ImageFeatures), uint16 and float32 sources: the
        result, with and without ``out=``, has the plain form's bits."""
        rng = np.random.default_rng(17)
        for it in range(300):
            sh, sw = (int(v) for v in rng.integers(2, 40, 2))
            h, w = (int(v) for v in rng.integers(1, 40, 2))
            src = rng.integers(0, 65536, (sh, sw)).astype(np.uint16)
            if it % 3 == 0:
                src = src.astype(np.float32) * np.float32(rng.random())
            if it % 4 == 0:     # the resize form: unit extents
                args = (0.0, 0.0, 1.0 / sw, 1.0 / sh,
                        0.0, 0.0, 1.0 / w, 1.0 / h, h, w)
            else:               # the alignment form: shifted, rescaled
                px, py = rng.uniform(0.5, 2.0, 2) * 1e-5
                dx, dy = rng.uniform(-6, 6, 2) * 1e-5
                args = (5.0, 52.0, px, py, 5.0 + dx, 52.0 + dy,
                        px * rng.uniform(0.3, 3), py * rng.uniform(0.3, 3),
                        h, w)
            want = self._reference(src, *args)
            got = affine_bilinear_resample(src, *args)
            into = np.full((h, w), np.nan, np.float32)
            assert affine_bilinear_resample(src, *args, out=into) is into
            for a in (got, into):
                assert a.dtype == np.float32 and a.shape == (h, w)
                assert a.tobytes() == want.tobytes(), it


class TestKNNExtremeLatitudes:
    """ADVICE regression (knn.py ring-termination bound): the longitude-leg
    cosine bound must hold for queries OUTSIDE the station latitude extent.
    Mid-latitude stations × polar/equatorial queries (and the reverse) is the
    geometry where a station-extent-only cosine overestimates the distance to
    unexplored rings; bucketed must equal brute everywhere."""

    def test_queries_far_outside_station_extent(self):
        # coarse cells keep the ring walk tractable over a 35-degree gap
        rng = np.random.default_rng(11)
        slat = rng.uniform(50.7, 53.6, 300)
        slon = rng.uniform(3.0, 7.3, 300)
        brute = BruteKNN(slat, slon)
        bucket = CellBucketKNN(slat, slon, cell_deg=2.0)
        # polar, equatorial, antimeridian-ish, and the 0,0 no-GPS mask point
        qlat = np.concatenate([rng.uniform(84.0, 89.0, 8),
                               rng.uniform(-89.0, -84.0, 8),
                               rng.uniform(-5.0, 5.0, 8),
                               np.array([0.0, 89.0, -89.0])])
        qlon = np.concatenate([rng.uniform(-179.0, 179.0, 24),
                               np.array([0.0, 7.0, -170.0])])
        for k in (1, 3):
            bi, bd = brute.query(qlat, qlon, k)
            ci, cd = bucket.query(qlat, qlon, k)
            assert (bi == ci).all()
            np.testing.assert_allclose(bd, cd, rtol=1e-12)

    def test_polar_stations_low_queries(self):
        rng = np.random.default_rng(12)
        slat = rng.uniform(82.0, 88.0, 200)
        slon = rng.uniform(-179.0, 179.0, 200)
        brute = BruteKNN(slat, slon)
        bucket = CellBucketKNN(slat, slon, cell_deg=2.0)
        qlat = rng.uniform(20.0, 60.0, 20)
        qlon = rng.uniform(-179.0, 179.0, 20)
        bi, bd = brute.query(qlat, qlon, 2)
        ci, cd = bucket.query(qlat, qlon, 2)
        assert (bi == ci).all()
        np.testing.assert_allclose(bd, cd, rtol=1e-12)


class TestDBSCAN:
    """geo_dbscan_clusters vs an O(n^2) brute-force DBSCAN with the same
    deterministic border rule (border -> min cluster label among its core
    neighbors)."""

    @staticmethod
    def _brute(ids, eps, min_pts):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        lat, lon = Q._dbscan_points(ids)
        dlat = lat[:, None] - lat[None, :]
        dlon = lon[:, None] - lon[None, :]
        d2 = 1.8 * dlat * dlat + dlon * dlon
        e2 = np.float64(eps) * np.float64(eps)
        nbr = d2 <= e2
        np.fill_diagonal(nbr, False)
        k = nbr.sum(axis=1)
        core = k + 1 >= min_pts
        # CC over the core-core eps-graph (BFS), label = min core id
        n = len(ids)
        label = {}
        core_idx = np.where(core)[0]
        seen = set()
        for s in core_idx:
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            queue = [s]
            while queue:
                u = queue.pop()
                for v in np.where(nbr[u] & core)[0]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        queue.append(v)
            lbl = int(min(ids[c] for c in comp))
            for c in comp:
                label[c] = lbl
        rows = [(int(ids[c]), label[c], True) for c in core_idx]
        for i in range(n):
            if core[i]:
                continue
            cn = np.where(nbr[i] & core)[0]
            if len(cn):
                rows.append((int(ids[i]),
                             min(label[c] for c in cn), False))
        import pandas as pd

        return (pd.DataFrame(rows,
                             columns=["event_id", "cluster_id", "is_core"])
                .sort_values(["event_id"]).reset_index(drop=True))

    # (the defaults, then two border-heavy settings: a brute census gives
    # 23 / 117 / 146 border and 271 / 145 / 58 core points at sf0.001)
    @pytest.mark.parametrize("eps,min_pts", [(0.0025, 5), (0.0025, 8),
                                             (0.0029, 12)])
    def test_brute_force_sf0001(self, ray_session, eps, min_pts):
        import pandas as pd
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        assert eps < Q._DBS_CELL  # every eps-neighbor is 8-adjacent
        ids = pq.read_table("/root/testdata/sf0.001/events.parquet",
                            columns=["event_id"]).column(0).to_numpy()
        want = self._brute(np.asarray(ids, dtype=np.int64), eps, min_pts)
        got = (Q.geo_dbscan_clusters("/root/testdata/sf0.001", eps, min_pts)
               .to_pandas().sort_values(["event_id"])
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["event_id", "cluster_id", "is_core"]].astype(
                {"is_core": bool}),
            want, check_dtype=False)
        assert not got.is_core.astype(bool).all()  # border points exist
        # structure sanity: clusters exist, every cluster has >=1 core and
        # its label is the min CORE id
        assert got.cluster_id.nunique() >= 2
        g = got.groupby("cluster_id")
        assert bool(g.is_core.any().all())
        mins = g.apply(lambda d: d.loc[d.is_core, "event_id"].min())
        assert (mins.index.to_numpy() == mins.to_numpy()).all()

    def test_all_noise_sf0001(self, ray_session):
        """No core position and no qualifying pair: the union-find task
        gets no row and builds no table, every point is noise, and the
        result keeps its three typed columns."""
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import to_pandas

        got = to_pandas(Q.geo_dbscan_clusters("/root/testdata/sf0.001",
                                              1e-9, 2))
        assert len(got) == 0
        assert dict(got.dtypes) == {"event_id": np.int64,
                                    "cluster_id": np.int64, "is_core": bool}


class TestTerrain:
    """slope_aspect / hillshade kernel goldens: planar ramps have exact
    closed-form slope, aspect and hillshade."""

    def test_flat_grid(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            hillshade,
            slope_aspect,
        )

        s, a = slope_aspect(np.full((8, 10), 42.0), 30.0, 30.0)
        assert (s == 0.0).all() and (a == -1.0).all()
        hs = hillshade(s, a)
        assert np.allclose(hs, np.cos(np.radians(45.0)))

    def test_planar_ramp_east(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            hillshade,
            slope_aspect,
        )

        # z = 2m per 30m cell eastward: slope = atan(2/30), descent = west
        z = np.tile(np.arange(12, dtype=np.float64) * 2.0, (6, 1))
        s, a = slope_aspect(z, 30.0, 30.0)
        # interior exact; edge COLUMNS see a halved east-west difference
        # through the replicate padding (the standard DEM boundary rule)
        want_deg = np.degrees(np.arctan(2.0 / 30.0))
        assert np.allclose(s[:, 1:-1], want_deg)
        assert np.allclose(s[:, [0, -1]],
                           np.degrees(np.arctan(1.0 / 30.0)))
        assert np.allclose(a, 270.0)
        # hillshade identity at az=315, alt=45
        sl = np.radians(s)
        want = (np.cos(np.radians(45.0)) * np.cos(sl)
                + np.sin(np.radians(45.0)) * np.sin(sl)
                * np.cos(np.radians(315.0 - 270.0)))
        assert np.allclose(hillshade(s, a), np.clip(want, 0, 1))

    def test_planar_ramp_north_and_per_row_dx(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            slope_aspect,
        )

        # z rises 3m per 25m cell northward (rows index south->north):
        # steepest descent = south (180 deg)
        z = np.tile((np.arange(7, dtype=np.float64) * 3.0)[:, None],
                    (1, 9))
        s, a = slope_aspect(z, 25.0, 25.0)
        assert np.allclose(s[1:-1, :], np.degrees(np.arctan(3.0 / 25.0)))
        assert np.allclose(s[[0, -1], :],
                           np.degrees(np.arctan(1.5 / 25.0)))
        assert np.allclose(a, 180.0)
        # per-row dx vector: east ramp with row-dependent cell width
        z2 = np.tile(np.arange(9, dtype=np.float64), (7, 1))
        dx = np.linspace(20.0, 40.0, 7)
        s2, a2 = slope_aspect(z2, dx, 25.0)
        want = np.degrees(np.arctan(1.0 / dx))[:, None]
        assert np.allclose(s2[:, 1:-1],
                           np.broadcast_to(want, s2[:, 1:-1].shape))
        assert np.allclose(a2, 270.0)

    def test_zonal_query(self, ray_session):
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = Q.geo_terrain_stats("/root/testdata/sf0.001").to_pandas()
        nev = pq.ParquetFile(
            "/root/testdata/sf0.001/events.parquet").metadata.num_rows
        assert int(df.n_points.sum()) == nev
        assert ((df.mean_slope_deg >= 0) & (df.mean_slope_deg < 90)).all()
        assert ((df.mean_hillshade >= 0) & (df.mean_hillshade <= 1)).all()
        # terrain is non-flat by construction
        assert df.mean_slope_deg.max() > 0.01


class TestContours:
    """Marching-squares geometry goldens + closed-contour topology."""

    def test_straight_ramp_exact(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            contour_segments,
        )

        z = np.tile(np.arange(10, dtype=np.float64), (6, 1))
        x0, y0, x1, y1 = contour_segments(z, 4.5)
        assert len(x0) == 5
        assert np.isclose(np.hypot(x1 - x0, y1 - y0).sum(), 5.0)
        assert np.allclose(np.concatenate([x0, x1]), 4.5)

    def test_diagonal_ramp_exact(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            contour_segments,
        )

        yy, xx = np.mgrid[0:8, 0:8]
        x0, y0, x1, y1 = contour_segments((xx + yy).astype(float), 3.5)
        assert np.isclose(np.hypot(x1 - x0, y1 - y0).sum(),
                          3.5 * np.sqrt(2.0))

    def test_cone_closed_loop(self):
        import collections

        from tiff_enrichment_pipeline_ray.functions.raster import (
            contour_segments,
        )

        yy, xx = np.mgrid[0:41, 0:41]
        z = 20.0 - np.hypot(xx - 20, yy - 20)
        x0, y0, x1, y1 = contour_segments(z, 9.5)
        total = np.hypot(x1 - x0, y1 - y0).sum()
        # polyline length approximates the circle circumference from
        # below, within the marching-squares chord error
        circ = 2 * np.pi * 10.5
        assert 0.99 * circ < total <= circ
        # closed topology: every endpoint belongs to exactly 2 segments
        pts = np.concatenate([np.stack([x0, y0], 1),
                              np.stack([x1, y1], 1)])
        cnt = collections.Counter(map(tuple, np.round(pts, 9)))
        assert set(cnt.values()) == {2}

    def test_saddle_cases(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            contour_segments,
        )

        # one quad, diagonal highs: two segments either way the saddle
        # resolves; flipping the level flips the case (5 <-> 10)
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        for lv in (0.4, 0.6):
            x0, y0, x1, y1 = contour_segments(z, lv)
            assert len(x0) == 2

    def test_level_query(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = (Q.geo_contour_lines("/root/testdata/sf0.001").to_pandas()
              .sort_values("level").reset_index(drop=True))
        assert list(df.level) == list(range(20, 301, 40))
        # the synthetic terrain tops out below 300 m — the last level
        # may legitimately be empty
        assert (df.n_segments[df.level <= 260] > 0).all()
        assert (df.total_len_km[df.level <= 260] > 0).all()


class TestRasterize:
    """_rasterize_rows on crafted rectangles: exact cell counts/areas."""

    def test_rectangle_exact_cells(self):
        from tiff_enrichment_pipeline_ray.functions.geo import (
            meters_per_degree,
        )
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            _rasterize_rows,
        )

        # axis-aligned rectangle covering cell centers x in [2,5],
        # y in [1,3] of a res=1 grid anchored at (0,0): center (c+0.5,
        # r+0.5) inside (1.9, 0.9)-(5.6, 3.6) <=> c in {2..5}, r in {1..3}
        rect = [np.array([[1.9, 0.9], [5.6, 0.9], [5.6, 3.6], [1.9, 3.6]])]
        idx = PolygonIndex(rect, ids=np.array([7]))
        classes = np.array(["crop"], dtype=object)
        df = _rasterize_rows(idx, classes, 0.0, 0.0, 1.0, 8,
                             np.arange(6))
        got = dict(zip(df.landcover_class, df.n_cells))
        assert got["crop"] == 4 * 3
        assert got["none"] == 8 * 6 - 12
        # area: sum over the 3 covered rows of 4 * cell_area(lat_row)
        want = 0.0
        for r in (1, 2, 3):
            m_lon, m_lat = meters_per_degree(np.array([r + 0.5]))
            want += 4 * float(m_lon[0]) * float(m_lat[0])
        area = float(df.loc[df.landcover_class == "crop", "area_m2"].iloc[0])
        assert np.isclose(area, want, rtol=1e-12)

    def test_overlap_min_id_rule(self):
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            _rasterize_rows,
        )

        # two overlapping rectangles; the smaller polygon_id wins
        rects = [np.array([[0.2, 0.2], [3.8, 0.2], [3.8, 3.8], [0.2, 3.8]]),
                 np.array([[1.8, 1.8], [5.8, 1.8], [5.8, 5.8], [1.8, 5.8]])]
        idx = PolygonIndex(rects, ids=np.array([5, 9]))
        classes = np.array(["water", "urban"], dtype=object)
        df = _rasterize_rows(idx, classes, 0.0, 0.0, 1.0, 7,
                             np.arange(7))
        got = dict(zip(df.landcover_class, df.n_cells))
        # id 5 region: centers (0.5..3.5)^2 = 16 cells (wins overlaps);
        # id 9 exclusive: centers in [2.5..5.5]^2 minus the 2x2 overlap
        assert got["water"] == 16
        assert got["urban"] == 16 - 4

    def test_corpus_query(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = Q.geo_rasterize_landcover("/root/testdata/sf0.001").to_pandas()
        # every cell tabulated exactly once (grid dims from the tile set)
        el = synth.gen_elevation_tiles()
        ntiles = len(el["tile_id"])
        assert int(df.n_cells.sum()) == ntiles * 128 * 128
        assert (df.area_km2 > 0).all()
        assert "none" in set(df.landcover_class)
        assert len(df) >= 3


class TestLineOfSight:
    """_los_pairs on crafted terrains: flat -> all visible with exact
    clearance; a plateau wall -> blocked with exact obstruction."""

    @staticmethod
    def _grid(z2d, res=0.01):
        ny, nx = z2d.shape
        return ElevationGrid({
            "tile_id": np.array([0]),
            "min_lon": np.array([0.0]), "min_lat": np.array([0.0]),
            "res_deg": np.array([res]),
            "nx": np.array([nx], dtype=np.int32),
            "ny": np.array([ny], dtype=np.int32),
            "data": [z2d.astype("<f4").tobytes()]})

    def test_flat_all_visible(self):
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            _los_pairs,
        )

        eg = self._grid(np.zeros((64, 64)))
        vis, obst = _los_pairs(eg, np.array([0.1, 0.2]),
                               np.array([0.1, 0.1]),
                               np.array([0.5, 0.55]),
                               np.array([0.6, 0.2]))
        assert vis.all()
        # flat terrain, 10 m masts: obstruction is exactly -10 everywhere
        assert np.allclose(obst, -10.0)

    def test_wall_blocks_with_exact_obstruction(self):
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            _los_pairs,
        )

        z = np.zeros((64, 64))
        z[:, 28:36] = 100.0  # plateau wall across the middle columns
        eg = self._grid(z)
        # endpoints on flat ground either side, same latitude row
        vis, obst = _los_pairs(eg, np.array([0.3]), np.array([0.05]),
                               np.array([0.3]), np.array([0.59]))
        assert not vis[0]
        # interior samples land on the plateau INTERIOR (bilinear = 100
        # exactly); the sight line sits at 10 m -> obstruction 90
        assert np.isclose(obst[0], 90.0)

    def test_corpus_query(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = Q.geo_line_of_sight("/root/testdata/sf0.001").to_pandas()
        n = len(synth.gen_stations()["lat"])
        assert len(df) == n * (n - 1) // 2
        assert df.sid_a.nunique() == n - 1
        # the synthetic terrain has relief: both outcomes occur
        assert 0 < int(df.visible.sum()) < len(df)


class TestFlow:
    """D8 direction + accumulation closed-form goldens."""

    def test_column_ramp(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            flow_accumulation,
            flow_d8,
        )

        z = np.tile((np.arange(10)[::-1])[:, None].astype(float), (1, 4))
        acc = flow_accumulation(flow_d8(z), z.shape)
        for r in range(10):
            assert (acc[r] == r + 1).all()

    def test_v_valley(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            flow_accumulation,
            flow_d8,
        )

        yy, xx = np.mgrid[0:6, 0:5]
        z = np.abs(xx - 2) * 1.0 + (5 - yy) * 0.4
        acc = flow_accumulation(flow_d8(z), z.shape)
        # center column drains both flanks: 5 cells per row, cumulative
        assert (acc[:, 2] == 5 * np.arange(1, 7)).all()
        assert (acc[:, [0, 4]] == 1).all()
        assert (acc[:, [1, 3]] == 2).all()

    def test_pit_and_flat(self):
        from tiff_enrichment_pipeline_ray.functions.raster import (
            flow_accumulation,
            flow_d8,
        )

        flat = np.zeros((4, 4))
        recv = flow_d8(flat)
        assert (recv == -1).all()
        acc = flow_accumulation(recv, flat.shape)
        assert (acc == 1.0).all()

    def test_corpus_query(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = Q.geo_flow_accumulation("/root/testdata/sf0.001").to_pandas()
        assert len(df) == 20
        assert (df["rank"] == np.arange(1, 21)).all()
        assert df.flow_cells.is_monotonic_decreasing
        # real drainage: outlets accumulate far more than one cell
        assert int(df.flow_cells.iloc[0]) > 100


class TestKriging:
    """Ordinary-kriging identities + independent per-point solve."""

    @staticmethod
    def _layer():
        sid = np.arange(100, dtype=np.int64)
        return (50.8 + ((sid * 37) % 270) / 100.0,
                3.1 + ((sid * 73) % 410) / 100.0,
                5.0 + ((sid * 13) % 70).astype(np.float64))

    def test_exact_at_stations(self):
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            _krige_batch,
            _krige_system,
        )

        slat, slon, sval = self._layer()
        # duplicate-position stations make C singular; the synthetic
        # layer has duplicates ((37,73) mod grid collides) — drop them
        pos = {}
        for i in range(100):
            pos.setdefault((slat[i], slon[i]), i)
        keep = np.array(sorted(pos.values()))
        slat, slon, sval = slat[keep], slon[keep], sval[keep]
        ainv = _krige_system(slat, slon)
        est, var = _krige_batch(ainv, slat, slon, sval, slat, slon)
        np.testing.assert_allclose(est, sval, atol=1e-6)
        np.testing.assert_allclose(var, 0.0, atol=1e-6)

    def test_weights_sum_one_and_independent_solve(self):
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            _krige_batch,
            _krige_system,
        )

        slat, slon, sval = self._layer()
        pos = {}
        for i in range(100):
            pos.setdefault((slat[i], slon[i]), i)
        keep = np.array(sorted(pos.values()))
        slat, slon, sval = slat[keep], slon[keep], sval[keep]
        n = len(keep)
        ainv = _krige_system(slat, slon)
        rng = np.random.default_rng(7)
        qlat = rng.uniform(50.8, 53.4, 20)
        qlon = rng.uniform(3.1, 7.2, 20)
        est, var = _krige_batch(ainv, slat, slon, sval, qlat, qlon)
        # independent per-point solve (no precomputed inverse)
        dlat = slat[:, None] - slat[None, :]
        dlon = slon[:, None] - slon[None, :]
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = np.exp(-np.sqrt(1.8 * dlat**2 + dlon**2) / 0.5)
        a[:n, n] = 1.0
        a[n, :n] = 1.0
        for i in range(20):
            h = np.sqrt(1.8 * (qlat[i] - slat) ** 2
                        + (qlon[i] - slon) ** 2)
            rhs = np.concatenate([np.exp(-h / 0.5), [1.0]])
            lam = np.linalg.solve(a, rhs)
            assert np.isclose(lam[:n].sum(), 1.0, atol=1e-9)
            assert np.isclose(est[i], lam[:n] @ sval, atol=1e-8)
            assert np.isclose(var[i], 1.0 - lam @ rhs, atol=1e-8)
        assert (var >= -1e-9).all()

    def test_corpus_query(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        df = Q.geo_kriging_interpolate("/root/testdata/sf0.001") \
            .to_pandas()
        assert len(df) == 1000
        assert df.kriged_value.between(4.0, 76.0).all()
        assert (df.kriging_var >= 0).all()


class TestDBSCANMultiplicity:
    """At sf0.001 every derived position is unique (the slot-hash stride
    is 7×144 = 1008 ids), so the sf0.001 brute test never exercises the
    POSITION-CONTRACTION path (multiplicity sums, same-position stars).
    sf0.01 has ~10 points per blob slot — this chunked brute compare
    pins exactly that path."""

    def test_brute_force_sf001(self, ray_session):
        import collections

        import pandas as pd
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        ids = np.asarray(pq.read_table(
            "/root/testdata/sf0.01/events.parquet",
            columns=["event_id"]).column(0).to_numpy(), dtype=np.int64)
        lat, lon = Q._dbscan_points(ids)
        # multiplicity MUST be present for this test to mean anything
        mult = collections.Counter(
            collections.Counter(zip(lat.tolist(), lon.tolist())).values())
        assert max(mult) > 1, "no duplicate positions at sf0.01?"
        n = len(ids)
        e2 = np.float64(Q._DBS_EPS) * np.float64(Q._DBS_EPS)
        nbr = np.zeros((n, n), dtype=bool)
        for s in range(0, n, 1000):  # chunked O(n^2) predicate
            sl = slice(s, min(s + 1000, n))
            dlat = lat[sl, None] - lat[None, :]
            dlon = lon[sl, None] - lon[None, :]
            nbr[sl] = 1.8 * dlat * dlat + dlon * dlon <= e2
        np.fill_diagonal(nbr, False)
        k = nbr.sum(axis=1)
        core = k + 1 >= Q._DBS_MIN_PTS
        label = {}
        seen = set()
        for s in np.where(core)[0]:
            if s in seen:
                continue
            comp, queue = [s], [s]
            seen.add(s)
            while queue:
                u = queue.pop()
                for v in np.where(nbr[u] & core)[0]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        queue.append(v)
            lbl = int(min(ids[c] for c in comp))
            for c in comp:
                label[c] = lbl
        rows = [(int(ids[c]), label[c], True) for c in np.where(core)[0]]
        for i in range(n):
            if core[i]:
                continue
            cn = np.where(nbr[i] & core)[0]
            if len(cn):
                rows.append((int(ids[i]), min(label[c] for c in cn),
                             False))
        want = (pd.DataFrame(rows, columns=["event_id", "cluster_id",
                                            "is_core"])
                .sort_values("event_id").reset_index(drop=True))
        got = (Q.geo_dbscan_clusters("/root/testdata/sf0.01").to_pandas()
               .sort_values("event_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["event_id", "cluster_id", "is_core"]].astype(
                {"is_core": bool}), want, check_dtype=False)
