"""Stage 5: point enrichment — the worker-cached spatial joins.

Replaces the reference's external-API + PostGIS/Redis enrichment stack
(reference: scripts/create-tables.sql:118-161 — elevation_meters + source,
weather_data JSONB keyed by weather_historical_date, land_cover class/
confidence/year; Redis response cache per README.md:122-123). All three layers
are broadcast once per Ray session via ``ray.put`` and their indexes built once
per worker process (``enrich_batch_cached``), so the network cache collapses
into worker memory (SURVEY §2.3 T2/T4/T5/T6):

- land-cover: STRtree point-in-polygon join (functions.pip.PolygonIndex),
  deterministic min-polygon_id tie-break;
- elevation: virtual-raster bilinear sample (functions.raster.ElevationGrid),
  source tag 'usgs_3dep' (enum at init-db.sql:59-65);
- weather: k=1 nearest station by haversine via per-cell bucketed kNN
  (functions.knn.CellBucketKNN), ties by station_id ascending, then a
  vectorized (station_id, date) lookup against the observations table —
  the as-of composite of SURVEY §2.4 J3.

Usage:
    refs = put_layers(layers_dir)           # once per session, on the driver
    ds = ds.map_batches(enrich_batch_cached, fn_kwargs=refs,
                        batch_format="pyarrow", batch_size=None)

In-process (tests, the benchmark's traced chain): ``Enricher(layers=
load_layers(layers_dir))(table)``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.knn import CellBucketKNN
from ..functions.pip import PolygonIndex
from ..functions.raster import ElevationGrid


_LAYER_FILES = ("landcover.parquet", "weather_stations.parquet",
                "weather_obs.parquet", "elevation_tiles.parquet")


def load_layers(layers_dir: str) -> dict:
    """Read the four layer tables into plain dicts (driver side)."""
    import os

    lc, st, ob, el = (pq.read_table(os.path.join(layers_dir, f))
                      for f in _LAYER_FILES)
    return {
        "landcover": {
            "polygon_id": lc.column("polygon_id").to_numpy(),
            "class": np.asarray(lc.column("class").to_pylist(), dtype=object),
            "confidence": lc.column("confidence").to_numpy(),
            "year": lc.column("year").to_numpy(),
            "rings": lc.column("rings").to_pylist(),
        },
        "stations": {
            "station_id": np.asarray(st.column("station_id").to_pylist(), dtype=object),
            "lat": st.column("lat").to_numpy(),
            "lon": st.column("lon").to_numpy(),
        },
        "obs": ob.to_pandas(),
        "elevation": {
            "tile_id": el.column("tile_id").to_numpy(),
            "min_lon": el.column("min_lon").to_numpy(),
            "min_lat": el.column("min_lat").to_numpy(),
            "res_deg": el.column("res_deg").to_numpy(),
            "nx": el.column("nx").to_numpy(),
            "ny": el.column("ny").to_numpy(),
            "data": el.column("data").to_pylist(),
        },
    }


_PUT_LAYERS: dict = {}


def put_layers(layers_dir: str) -> dict:
    """Broadcast the layers into the object store ONCE per Ray session;
    returns kwargs for ``map_batches(enrich_batch_cached, fn_kwargs=...)``.

    The ref is cached per (session, layers dir, each layer file's mtime and
    size), so repeated runs in one session (watch mode, resumed runs) skip
    the load + ``ray.put`` AND keep hitting the workers' built indexes,
    which ``enrich_batch_cached`` keys on the ref. The session key is the
    driver's node id plus job id: a fresh local session gets a new node id
    (its job id restarts at the same value), a reconnect to a running
    cluster gets a new job id, and a ref owned by an earlier session's
    driver is dead in either."""
    import os

    import ray

    ctx = ray.get_runtime_context()
    stats = tuple((st.st_mtime_ns, st.st_size) for st in
                  (os.stat(os.path.join(layers_dir, f)) for f in _LAYER_FILES))
    key = (ctx.get_node_id(), ctx.get_job_id(), os.path.abspath(layers_dir),
           stats)
    ref = _PUT_LAYERS.get(key)
    if ref is None:
        ref = ray.put(load_layers(layers_dir))
        _PUT_LAYERS.clear()
        _PUT_LAYERS[key] = ref
    return {"layers_ref": ref}


_WORKER_ENRICHER: dict = {}


def enrich_batch_cached(batch: pa.Table, layers_ref=None) -> pa.Table:
    """The enrichment stage: an ``Enricher`` behind a per-worker-process
    cache. The broadcast layers are ``ray.get`` once per worker and the
    built indexes (STRtree/kNN buckets/elevation grid) are reused for every
    subsequent batch that worker processes. As a plain task, Ray fuses it
    with the upstream read/decode chain and schedules it elastically across
    ALL cpus (no pool sizing)."""
    key = layers_ref.hex() if hasattr(layers_ref, "hex") else id(layers_ref)
    e = _WORKER_ENRICHER.get(key)
    if e is None:
        e = Enricher(layers_ref=layers_ref)
        _WORKER_ENRICHER.clear()
        _WORKER_ENRICHER[key] = e
    return e(batch)


class Enricher:
    """Batch enricher: builds the three layer indexes once at construction
    (from broadcast ``layers_ref`` or in-process ``layers``), then enriches
    pyarrow batches. The flagship holds one per worker via
    ``enrich_batch_cached``."""

    def __init__(self, layers_ref=None, layers=None):
        if layers is None:
            import ray

            layers = ray.get(layers_ref) if isinstance(layers_ref, ray.ObjectRef) else layers_ref
        lc = layers["landcover"]
        # stations must be tie-ordered by station_id: sort once
        st = layers["stations"]
        order = np.argsort(st["station_id"], kind="stable")
        self.station_ids = st["station_id"][order]
        self.pip = PolygonIndex(lc["rings"], ids=lc["polygon_id"])
        self.lc_class = lc["class"]
        self.lc_conf = lc["confidence"]
        self.lc_year = lc["year"]
        self.knn = CellBucketKNN(st["lat"][order], st["lon"][order], cell_deg=0.5)
        self.elev = ElevationGrid(layers["elevation"])
        obs = layers["obs"].copy()
        obs["date"] = pd.to_datetime(obs["date"]).dt.strftime("%Y-%m-%d")
        self.obs = obs.rename(columns={"date": "weather_date",
                                       "station_id": "weather_station_id"})

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        has = batch.column("has_gps").to_numpy(zero_copy_only=False)
        n = len(lat)
        latf = np.nan_to_num(lat, nan=0.0)
        lonf = np.nan_to_num(lon, nan=0.0)

        # --- land-cover PIP ---
        poly = self.pip.join(latf, lonf)
        poly = np.where(has, poly, -1)
        lc_null = poly < 0
        pidx = np.where(lc_null, 0, poly)
        lc_class = self.lc_class[pidx].astype(object)
        lc_conf = self.lc_conf[pidx].astype(np.float32)
        lc_year = self.lc_year[pidx].astype(np.int32)

        # --- elevation bilinear ---
        elev = self.elev.sample(latf, lonf)
        elev = np.where(has, elev, np.nan)
        elev_null = ~np.isfinite(elev)

        # --- weather kNN + (station, date) lookup ---
        sidx, sdist = self.knn.query(latf, lonf, k=1)
        st_null = ~has | (sidx[:, 0] < 0)
        s0 = np.where(st_null, 0, sidx[:, 0])
        station = self.station_ids[s0].astype(object)
        dist = np.where(st_null, np.nan, sdist[:, 0])
        ts = batch.column("ts").to_pandas()
        wdate = ts.dt.strftime("%Y-%m-%d")
        left = pd.DataFrame({
            "weather_station_id": np.where(st_null, None, station),
            "weather_date": wdate.where(~st_null, None),
        })
        merged = left.merge(self.obs, on=["weather_station_id", "weather_date"],
                            how="left")

        def _mask_arr(values, mask, typ):
            return pa.array(np.asarray(values), type=typ, from_pandas=True,
                            mask=np.asarray(mask, dtype=bool))

        out = batch
        out = out.append_column("landcover_class", _mask_arr(lc_class, lc_null, pa.string()))
        out = out.append_column("landcover_confidence", _mask_arr(lc_conf, lc_null, pa.float32()))
        out = out.append_column("landcover_year", _mask_arr(lc_year, lc_null, pa.int32()))
        out = out.append_column("elevation_m", _mask_arr(np.nan_to_num(elev), elev_null, pa.float64()))
        out = out.append_column(
            "elevation_src",
            _mask_arr(np.where(elev_null, "", "usgs_3dep").astype(object), elev_null, pa.string()))
        out = out.append_column("weather_station_id", _mask_arr(station, st_null, pa.string()))
        out = out.append_column("weather_dist_m", _mask_arr(np.nan_to_num(dist), st_null, pa.float64()))
        out = out.append_column("weather_date",
                                pa.Array.from_pandas(left["weather_date"], type=pa.string()))
        for c in ("tmin_c", "tmax_c", "precip_mm", "wind_kmh"):
            vals = merged[c].to_numpy(dtype=np.float64, na_value=np.nan)
            out = out.append_column(c, _mask_arr(np.nan_to_num(vals).astype(np.float32),
                                                 ~np.isfinite(vals), pa.float32()))
        assert out.num_rows == n
        return out
