"""The flagship pipeline: images → enriched rows + capture products.

Ray-Data-first restatement of the reference's full run
(reference lifecycle: main.py:405-550 — detect/classify → MicaSense branch →
regular branch → summary/validation), as ONE streaming DAG per checkpoint
partition:

  fragment read (file, row group)          # bytes never cross the  ┐ ONE fused
    → map_batches(extract_meta_light)      # header + EXIF          │ task per
    → map_batches(georef)                  # GSD/affine             │ block,
    → map_batches(assign_cells)            # hex7 r5-9 + S2 + grid  │ elastic
    → map_batches(enrich_batch_cached)     # PIP + elev + kNN       │ across all
    → map_batches(decode_stage)            # decode + pixel stats;  │ CPUs
      #  complete-in-block captures: align/calibrate/indices        │ (worker-
      #  computed + written HERE (no shuffle); orphan rows spilled; │  cached
      #  bytes dropped                                              │ indexes)
    → map_batches(validate)                # issue columns          ┘
    → add part_key (salted range bins)     # skew-bounded layout
    → one of two write tails (partitioned parquet + lineage):
      - single bin (no salts, est_rows ≤ bin budget): ONE writer task,
        map_batches(write, batch_size=est_rows, concurrency=1) — no
        all-to-all exchange;
      - several bins: repartition(coalesce) → groupby(part_key)
        .map_groups(write), the one sort-based exchange.

  orphan spill (block-boundary + incomplete sets, one file per decode task)
    → from_items([all spill files]) → map_batches(process_bucket) → captures/
      # map-only: ONE task reads the whole spill, no exchange

The skew census runs first as a sampled header-only pass.

Checkpoint/resume: partitions = deterministic groups of input files; each
commits atomically then appends a manifest line (state/manifest.py). A re-run
skips done partitions and reproduces byte-identical output (partition-sorted
writes, stable salting).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import ALL_INDICES, PipelineConfig
from ..functions import codec
from ..sources import synth
from ..stages import capture as capture_stage
from ..stages import enrich as enrich_stage
from ..stages.extract import (
    assign_cells,
    extract_meta_light,
    georef,
    validate,
)
from ..state.manifest import Manifest, plan_partitions
from ..state.schemas import CAPTURE_TYPES, ENRICHED_TYPES, pin_from_pandas
from ..state.skew import add_part_key, census_counts, salt_map

ENRICHED_DROP = ["bytes"]


def _make_part_writer(out_dir: str, caps_dir: str | None = None,
                      fail_dir: str | None = None,
                      ndvi_variant: str = "processor",
                      index_names: tuple = ALL_INDICES):
    """The partition writer of both write tails: called once per
    '<bin>[:salt]' key, by ``groupby(part_key).map_groups`` after the sort
    exchange (several bins) or by the single-bin tail's one
    ``map_batches`` call over every row (key "0"). One parquet file per
    salted partition, sorted by image_id (deterministic), atomic
    tmp+rename. Groups of spilled orphan rows ('o:<bucket>' keys from
    _add_orphan_key, carrying orph_bytes) go through
    _resolve_capture_group into ``caps_dir`` instead. Both return a lineage
    row (kind column).

    When ``fail_dir`` is set, unreadable rows (decode_ok=False) are routed to
    a quarantine partition there instead of the enriched output — the
    reference's failed-directory behavior (main.py:244-251,
    tests/test_integration.py:160-163) as a partitioned parquet tree."""

    def part_writer(g: pd.DataFrame) -> pd.DataFrame:
        key_raw = str(g["part_key"].iloc[0])
        key = key_raw.replace(":", "_")
        if key_raw.startswith("o:") and caps_dir is not None:
            return pd.DataFrame([_resolve_capture_group(
                g, key_raw, os.path.join(caps_dir, f"{key}.parquet"),
                ndvi_variant, index_names)])
        g = g.sort_values("image_id").reset_index(drop=True)
        lineage_rows = []
        if fail_dir is not None:
            bad = g[~g["decode_ok"]]
            if len(bad):
                os.makedirs(fail_dir, exist_ok=True)
                ffinal = os.path.join(fail_dir, f"{key}.parquet")
                pq.write_table(pin_from_pandas(bad.reset_index(drop=True),
                                               ENRICHED_TYPES),
                               ffinal + ".tmp", compression="zstd")
                os.replace(ffinal + ".tmp", ffinal)
                lineage_rows.append({
                    "part_key": key_raw, "kind": "failed", "rows": len(bad),
                    "h3_lo": -1, "h3_hi": -1,
                    "file": os.path.basename(ffinal),
                })
            g = g[g["decode_ok"]].reset_index(drop=True)
        os.makedirs(out_dir, exist_ok=True)
        final = os.path.join(out_dir, f"{key}.parquet")
        tmp = final + ".tmp"
        # pinned schema: every fragment carries identical column types even
        # when a group's column is all-null (state/schemas.py)
        pq.write_table(pin_from_pandas(g, ENRICHED_TYPES), tmp,
                       compression="zstd")
        os.replace(tmp, final)
        cells = g["h3_r5"].to_numpy()
        lineage_rows.append({
            "part_key": key_raw, "kind": "enriched", "rows": len(g),
            "h3_lo": int(cells.min()) if len(cells) else -1,
            "h3_hi": int(cells.max()) if len(cells) else -1,
            "file": os.path.basename(final),
        })
        return pd.DataFrame(lineage_rows)

    return part_writer


_LINEAGE_COLS = {"part_key": str, "kind": str, "rows": np.int64,
                 "h3_lo": np.int64, "h3_hi": np.int64, "file": str}


def _empty_lineage() -> pd.DataFrame:
    return pd.DataFrame({k: pd.Series(dtype=v)
                         for k, v in _LINEAGE_COLS.items()})


def tune_data_context():
    """Raise the streaming executor's object-store budget to what the node
    actually has: the default conservative cap throttles read/map concurrency
    to a handful of tasks on wide binary rows (measured 2-3× on the read).
    Safe: the budget only gates task launches; blocks still spill if the
    store fills."""
    import ray
    from ray.data import DataContext, ExecutionResources

    ctx = DataContext.get_current()
    try:
        total = ray.cluster_resources().get("object_store_memory")
        if total:
            ctx.execution_options.resource_limits = ExecutionResources(
                object_store_memory=float(total) * 0.8)
    except Exception:
        pass
    # per-operator resource reservation guarantees each op a fixed slice of
    # the cluster; with one dominant fused task stage that caps it at ~60%
    # utilization (measured 2.4×). Our DAGs are task-only chains + at most
    # one shuffle, so the anti-starvation reservation isn't needed.
    if hasattr(ctx, "op_resource_reservation_enabled"):
        ctx.op_resource_reservation_enabled = False
    return ctx


# ~2048 rows/block measured fastest at sf0.4/16 CPUs (141 s vs 163 s at
# 4096 and 150 s at 1024): smaller decode tasks bound straggler length and
# per-task heap (the task holds the block's decoded pixels), and the
# post-map coalesce keeps the shuffle width independent of this choice.
MAP_ROWS_PER_BLOCK = 2048


def _fused_read(files, rows_per_block: int):
    """Read the images parquet INSIDE the map-chain tasks instead of as a
    separate ReadParquet operator.

    Why: the payload column makes the input ~14× wider than the enriched
    output (sf0.1: 7.0 GB of blobs → 0.55 GB of slim rows). A ReadParquet
    operator hands its output to the fused map chain THROUGH THE OBJECT
    STORE, so every blob is serialized + deserialized once before the one
    stage that consumes it (measured: 32 pyarrow reads = 11.3 s wall at 32
    CPUs; the same reads returned through the object store = 44.2 s). Here
    the parallelism unit is a (file, row_group) fragment carried as a tiny
    item row; the fragment is read, sliced to ``rows_per_block`` and fed to
    the downstream (fused) stages inside ONE task, so bytes never transit
    the object store — only post-decode slim rows do. On a multi-node
    cluster the same holds: each task reads its fragment straight from
    shared storage; the network carries enriched rows, not payloads.
    """
    import ray.data as rd

    items = []
    for f in files:
        md = pq.read_metadata(f)
        for rg in range(md.num_row_groups):
            items.append({"path": f, "rg": rg})
    if not items:
        return rd.read_parquet(files)

    def read_fragments(batch: pa.Table):
        for path, rg in zip(batch.column("path").to_pylist(),
                            batch.column("rg").to_pylist()):
            t = pq.ParquetFile(path).read_row_group(rg)
            for s in range(0, t.num_rows, rows_per_block):
                yield t.slice(s, min(rows_per_block, t.num_rows - s))

    items_ds = rd.from_items(items, override_num_blocks=len(items))
    return items_ds.map_batches(read_fragments, batch_format="pyarrow",
                                batch_size=None)


def enriched_dataset(files, cfg: PipelineConfig, layer_kwargs: dict,
                     caps_dir: str | None = None,
                     orph_dir: str | None = None):
    """Build the lazy enriched Dataset over the given input files (full
    schema: metadata + georef + cells + enrichment + pixel stats +
    validation). When ``caps_dir`` is given, complete-in-block captures are
    processed and written as a side effect of the single decode stage and
    orphan rows are spilled to ``orph_dir`` for _resolve_orphans (see
    _make_decode_stats_capture_stage).

    Enrichment state (STRtree, kNN buckets, elevation grid) is broadcast via
    ``ray.put`` and built once per worker process by ``enrich_batch_cached``,
    a plain task that fuses with the whole stateless chain into one task per
    block, elastic across all CPUs."""
    # block sizing: MAP_ROWS_PER_BLOCK rows per block (data-sized,
    # cluster-independent)
    ds = _fused_read(files, MAP_ROWS_PER_BLOCK)
    ds = ds.map_batches(extract_meta_light, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(georef, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(assign_cells, batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(
        enrich_stage.enrich_batch_cached,
        fn_kwargs=layer_kwargs,
        batch_format="pyarrow",
        batch_size=None,
    )
    # the ONE pixel-decode stage (stats + in-block captures), then the
    # validators that depend on the decoded stats
    ds = ds.map_batches(
        _make_decode_stats_capture_stage(caps_dir, orph_dir,
                                         ndvi_variant=cfg.ndvi_variant,
                                         index_names=cfg.indices),
        batch_format="pyarrow", batch_size=None)
    return ds.map_batches(validate, batch_format="pyarrow", batch_size=None)


def _pixel_stats(px: np.ndarray) -> tuple:
    """A4 per-image stats (rasterio_utils.py:257-296) of a non-empty uint16
    pixel grid: (min, max, mean, std, zero_ratio, p25, p50, p75).

    One ``np.sort(kind="stable")`` (a radix sort for uint16) serves min,
    max, the zero count (``searchsorted(s, 1)``) and the percentiles, which
    are bit-exact with ``np.percentile(px.astype(float64), (25, 50, 75))``
    (linear method: numpy's _lerp branch t<0.5: a+(b-a)t, else
    b-(b-a)(1-t)). mean/std stay unsorted reductions: dtype=float64
    accumulation on the uint16 array is bit-identical to
    ``.astype(float64).mean()/.std()`` (same pairwise reduction over the
    same promoted values, tested), while a sum over the sorted order would
    round differently. The std reuses the mean and runs the operations of
    NumPy's ``_var`` (px − mean in float64, squared in place, summed,
    ÷ n, sqrt), so it is bit-identical without a second mean pass."""
    s = np.sort(px.ravel(), kind="stable")
    n = s.size
    mean = px.mean(dtype=np.float64)
    d = np.subtract(px, mean, dtype=np.float64)
    d *= d
    out = [int(s[0]), int(s[-1]),
           float(mean), float(np.sqrt(d.sum() / n)),
           int(np.searchsorted(s, 1)) / n]
    for vi in (0.25 * (n - 1), 0.5 * (n - 1), 0.75 * (n - 1)):
        lo = int(vi)
        a = float(s[lo])
        b = float(s[min(lo + 1, n - 1)])
        t = vi - lo
        out.append((a + (b - a) * t) if t < 0.5 else (b - (b - a) * (1 - t)))
    return tuple(out)


def _make_decode_stats_capture_stage(caps_dir: str | None,
                                     orph_dir: str | None = None,
                                     ndvi_variant: str = "processor",
                                     index_names: tuple = ALL_INDICES):
    """The ONE pixel-decode stage of the main pass. Per block:

    - decode every row's payload once → per-image stats columns
      (min/max/mean/std/zero-ratio — A4 semantics, rasterio_utils.py:257-296
      with exact merge) and the payload-level ``decode_ok``;
    - complete-in-block captures: align/calibrate/index them HERE from the
      already-decoded pixels and write the capture rows as side-effect
      parquet (content-hash named → idempotent under task retry; no shuffle);
    - orphan micasense rows (block-boundary / incomplete): SPILLED to
      ``orph_dir`` as slim capture-column parquet, one file per block
      (content-hash named, idempotent), and resolved AFTER the main pass
      by one map task that reads the whole spill (_resolve_orphans), so
      no exchange is needed. Earlier the orphans rode the main part_key
      shuffle as duplicate rows carrying ``orph_bytes``;
      sort-range partitioning put every ``o:*`` key (2% of rows but ~25%
      of shuffle BYTES) into ONE reduce partition — measured at sf0.4/16
      CPUs as a 690 MB block, an 8.5 s reduce straggler and a 2.8 s
      writer straggler. The spill keeps payload bytes out of every
      all-to-all (SURVEY §7.4-3);
    - return the block without ``bytes``.

    With caps_dir=None the capture branch is skipped (stats only)."""

    def decode_stage(t: pa.Table) -> pa.Table:
        import hashlib as _h

        blobs = t.column("bytes").to_pylist()
        hdr_ok = t.column("decode_ok").to_numpy(zero_copy_only=False)
        n = len(blobs)
        decode_ok = np.zeros(n, dtype=bool)
        px_min = np.zeros(n, dtype=np.int32)
        px_max = np.zeros(n, dtype=np.int32)
        px_mean = np.full(n, np.nan)
        px_std = np.full(n, np.nan)
        zero_ratio = np.full(n, np.nan)
        px_p25 = np.full(n, np.nan)
        px_p50 = np.full(n, np.nan)
        px_p75 = np.full(n, np.nan)
        phash_ok = np.zeros(n, dtype=bool)
        stored_ph = t.column("phash").to_numpy(zero_copy_only=False)
        fmts = t.column("fmt").to_pylist()
        pixels = [None] * n
        for i, blob in enumerate(blobs):
            if not hdr_ok[i]:
                continue
            px = codec.decode_pixels_only(blob)
            if px is None:
                continue
            decode_ok[i] = True
            pixels[i] = px
            (px_min[i], px_max[i], px_mean[i], px_std[i], zero_ratio[i],
             px_p25[i], px_p50[i], px_p75[i]) = _pixel_stats(px)
            # V4 integrity (rasterio_utils.py:118-155): verify the stored
            # phash against the decoded pixels (lossless formats only —
            # lossyq legitimately reconstructs different bits)
            if fmts[i] in ("raw", "png"):
                hsh = _h.blake2b(np.ascontiguousarray(px, "<u2").tobytes(),
                                 digest_size=8).digest()
                phash_ok[i] = (int.from_bytes(hsh, "big") >> 1) == stored_ph[i]
            else:
                phash_ok[i] = True

        out = t.set_column(t.schema.get_field_index("decode_ok"), "decode_ok",
                           pa.array(decode_ok))
        for name, arr in (("px_min", px_min), ("px_max", px_max),
                          ("px_mean", px_mean), ("px_std", px_std),
                          ("zero_ratio", zero_ratio), ("phash_ok", phash_ok),
                          ("px_p25", px_p25), ("px_p50", px_p50),
                          ("px_p75", px_p75)):
            out = out.append_column(name, pa.array(arr))

        orph_global = np.empty(0, dtype=np.int64)
        if caps_dir is not None:
            import pyarrow.compute as pc

            mask = pc.and_(
                pc.equal(t.column("file_class"), pa.scalar("micasense")),
                pc.not_equal(t.column("capture_id"), pa.scalar("")))
            midx = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
            if len(midx):
                # the kernel reads the decoded ``_px``, never ``bytes``
                mica = t.select([c for c in capture_stage.CAPTURE_SHUFFLE_COLS
                                 if c != "bytes"]) \
                    .take(pa.array(midx)).to_pandas()
                mica["_px"] = [pixels[i] for i in midx]
                done, orphans = capture_stage.split_local_complete(mica)
                if len(done):
                    res = capture_stage.process_bucket(
                        done, index_names=index_names,
                        ndvi_variant=ndvi_variant)
                    tag = _h.blake2b("|".join(sorted(res["capture_id"])).encode(),
                                     digest_size=10).hexdigest()
                    _write_captures(
                        res, os.path.join(caps_dir, f"local-{tag}.parquet"))
                if len(orphans):
                    orph_global = midx[orphans.index.to_numpy()]

        if len(orph_global) and orph_dir is not None:
            sel = out.select(ORPHAN_SPILL_COLS).take(pa.array(orph_global))
            # bytes → orph_bytes, the column name _resolve_capture_group
            # renames back
            sel = sel.rename_columns(
                ["orph_bytes" if c == "bytes" else c
                 for c in sel.schema.names])
            ids = sorted(sel.column("image_id").to_pylist())
            tag = _h.blake2b("|".join(ids).encode(),
                             digest_size=10).hexdigest()
            os.makedirs(orph_dir, exist_ok=True)
            final = os.path.join(orph_dir, f"orph-{tag}.parquet")
            pq.write_table(sel, final + ".tmp", compression="zstd")
            os.replace(final + ".tmp", final)
        return out.drop_columns(ENRICHED_DROP)

    return decode_stage


# slim columns spilled for orphan (block-boundary) captures: what the
# capture kernel consumes + h3_r5 for the lineage record
ORPHAN_SPILL_COLS = capture_stage.CAPTURE_SHUFFLE_COLS + ["h3_r5"]


def _add_orphan_key(t: pa.Table, orphan_buckets: int = 16) -> pa.Table:
    """'o:<bucket>' part_key for spilled orphan rows: a stable capture_id
    hash mod ``orphan_buckets``, never row position or batch boundaries,
    so all bands of a capture share a key. For grouping a spill in memory
    and handing each group to ``_make_part_writer``'s orphan branch (the
    benchmark's in-process traced chain does this); run_flagship never
    groups the spill (_resolve_orphans)."""
    from ..state.skew import _salt_hash

    cids = np.asarray(t.column("capture_id").to_pylist(), dtype=object)
    buckets = _salt_hash(cids) % orphan_buckets
    keys = np.array([f"o:{b}" for b in buckets], dtype=object)
    return t.append_column("part_key", pa.array(keys.astype(str)))


def assert_worker_reachable(path: str) -> None:
    """Enforce the multi-node storage contract (PipelineConfig
    .side_channel_dir): every path worker tasks write through
    (out_dir trees, the orphan spill) must be on storage visible to
    every node. Probe = driver writes a token file, and one reader task
    pinned to each alive node (hard node affinity) must read it back.
    Trivially true single-node; on a real cluster it fails fast (before
    any data is written) when out_dir is a node-local path."""
    import uuid

    import ray as _ray
    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    os.makedirs(path, exist_ok=True)
    token = uuid.uuid4().hex
    probe = os.path.join(path, f".reach_probe_{token}")
    with open(probe, "w") as f:
        f.write(token)

    @_ray.remote(num_cpus=0)
    def _read(p):
        try:
            with open(p) as f:
                return f.read()
        except OSError:
            return None

    try:
        seen = _ray.get([_read.options(
            scheduling_strategy=NodeAffinitySchedulingStrategy(
                n["NodeID"], soft=False)).remote(probe)
            for n in _ray.nodes() if n["Alive"]])
        if any(s != token for s in seen):
            raise RuntimeError(
                f"storage contract violation: {path!r} is not visible from "
                f"worker tasks on every node — out_dir/side_channel_dir "
                f"must be shared storage on a multi-node cluster")
    finally:
        try:
            os.remove(probe)
        except OSError:
            pass


def _resolve_capture_group(g: pd.DataFrame, part_key: str, final: str,
                           ndvi_variant: str = "processor",
                           index_names: tuple = ALL_INDICES) -> dict:
    """Spilled orphan rows of whole captures (``orph_bytes`` payloads) →
    the capture kernel → ``final`` (_write_captures) → lineage row."""
    res = capture_stage.process_bucket(
        g.rename(columns={"orph_bytes": "bytes"}), index_names=index_names,
        ndvi_variant=ndvi_variant)
    _write_captures(res, final)
    cells = g["h3_r5"].to_numpy()
    return {
        "part_key": part_key, "kind": "captures", "rows": len(res),
        "h3_lo": int(cells.min()) if len(cells) else -1,
        "h3_hi": int(cells.max()) if len(cells) else -1,
        "file": os.path.basename(final),
    }


def _resolve_orphans(orph_tmp: str, cap_tmp: str,
                     ndvi_variant: str = "processor",
                     index_names: tuple = ALL_INDICES):
    """Orphan pass: spilled orphan rows → capture parquet, with NO exchange.

    ONE map task (``from_items → map_batches``, the _fused_read pattern)
    reads every spill file the decode stage wrote (~5% of input rows), so
    every band of a capture meets in it; it runs the capture kernel and
    writes ``o_0.parquet`` (_resolve_capture_group). No groupby, sort or
    repartition: the payloads go from the spill files straight into the
    task that consumes them. The whole spill sits in that task's heap
    (2,483 rows at sf0.01); splitting it across tasks is left until it is
    measured on a multi-CPU host. Returns the lineage DataFrame
    (kind='captures'), empty if there were no orphans."""
    import glob as _g

    import ray.data as rd

    orph_files = sorted(_g.glob(os.path.join(orph_tmp, "*.parquet")))
    if not orph_files:
        return _empty_lineage()

    def resolve_spill(batch: pa.Table) -> pd.DataFrame:
        files = batch.column("files")[0].as_py()
        g = pa.concat_tables([pq.ParquetFile(f).read() for f in files],
                             promote_options="default").to_pandas()
        return pd.DataFrame([_resolve_capture_group(
            g, "o:0", os.path.join(cap_tmp, "o_0.parquet"),
            ndvi_variant, index_names)])

    return (rd.from_items([{"files": orph_files}])
            .map_batches(resolve_spill, batch_format="pyarrow",
                         batch_size=None)
            .to_pandas())


def _write_captures(res: pd.DataFrame, final: str) -> None:
    """The one capture-tree writer: a ``process_bucket`` result → pinned
    schema + cell columns → ``final`` (zstd, atomic tmp+rename). Used by
    the decode stage's in-block captures and the orphan pass. The
    ``index_*`` blobs are unique per capture, so a dictionary page never
    hits for them: dictionary encoding stays on for the other columns only."""
    t = _cap_cells(pin_from_pandas(res, CAPTURE_TYPES))
    os.makedirs(os.path.dirname(final), exist_ok=True)
    pq.write_table(t, final + ".tmp", compression="zstd",
                   use_dictionary=[c for c in t.schema.names
                                   if not c.startswith("index_")])
    os.replace(final + ".tmp", final)


def _cap_cells(t: pa.Table) -> pa.Table:
    from ..functions.cells import hex7_cells_multi, s2_cell

    # robust to all-null blocks (arrow `null` type → object array of Nones)
    lat_raw = pd.to_numeric(t.column("lat").to_pandas(), errors="coerce") \
        .to_numpy(dtype=np.float64)
    lon_raw = pd.to_numeric(t.column("lon").to_pandas(), errors="coerce") \
        .to_numpy(dtype=np.float64)
    lat = np.nan_to_num(lat_raw, nan=0.0)
    lon = np.nan_to_num(lon_raw, nan=0.0)
    ok = np.isfinite(lat_raw)
    multi = hex7_cells_multi(lat, lon, (5, 7, 9))
    out = t
    for r in (5, 7, 9):
        out = out.append_column(f"h3_r{r}", pa.array(np.where(ok, multi[r], -1)))
    out = out.append_column("s2_cell", pa.array(np.where(ok, s2_cell(lat, lon, 16), -1)))
    return out


def run_flagship(input_dir: str, out_dir: str,
                 cfg: PipelineConfig | None = None,
                 checkpoint_partitions: int = 1,
                 resume: bool = True,
                 with_captures: bool = True,
                 layers_dir: str | None = None,
                 limit_partitions: int | None = None) -> dict:
    """Run the flagship pipeline; returns a summary dict (A1 semantics:
    main.py:441-459 — totals, duration, rows/s)."""
    import glob

    cfg = cfg or PipelineConfig()
    tune_data_context()
    layers_dir = layers_dir or synth.ensure_layers()
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet in {input_dir}")
    manifest = Manifest(out_dir)
    if not resume:
        for sub in ("enriched", "captures", "failed", "ops"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
        if os.path.exists(manifest.path):
            os.remove(manifest.path)
    done = manifest.done_partitions()
    partitions = plan_partitions(files, checkpoint_partitions)
    pending = [(pid, fs) for pid, fs in partitions if pid not in done]
    if limit_partitions is not None:
        pending = pending[:limit_partitions]  # simulated-kill / paced resume

    # audit/versioning stamp on every manifest row (create-tables.sql:
    # 226-243 configuration versioning; :168-186 audit-log intent)
    from .. import __version__

    stamp = {"config_hash": cfg.config_hash(), "engine_version": __version__}

    # multi-node storage contract: fail fast if worker tasks can't see the
    # output / spill storage (no-op cost single-node; see PipelineConfig)
    assert_worker_reachable(out_dir)
    if cfg.side_channel_dir:
        assert_worker_reachable(cfg.side_channel_dir)

    layer_kwargs = enrich_stage.put_layers(layers_dir)
    t0 = time.time()
    total_rows = 0
    total_caps = 0
    total_failed = 0
    phases = {"census": 0.0, "enrich_write": 0.0, "orphans": 0.0,
              "captures": 0.0}
    for pid, part_files in pending:
        t_start = time.time()
        # --- skew plan. Bin budget: bounded above by the configured row
        # budget (north_rule size cap) and below so writes parallelize
        # (≈ 2 output bins per CPU). Parquet row counts are free metadata.
        import ray as _ray

        cpus = int(_ray.cluster_resources().get("CPU", 8))
        est_rows = sum(pq.read_metadata(f).num_rows for f in part_files)
        # bins: bounded above by the configured budget, below only so the
        # partition count stays modest (too many bins makes the shuffle pay
        # O(blocks × bins) object fetches)
        bin_budget = int(min(cfg.partition_row_budget,
                             max(8192, est_rows // 32)))
        if est_rows > bin_budget:
            counts = census_counts(part_files,
                                   cell_col=f"h3_r{cfg.cell_partition_res}")
            salts = salt_map(counts, bin_budget)
        else:
            salts = {}
        census_s_part = time.time() - t_start
        phases["census"] += census_s_part
        t_ph = time.time()

        cap_part = os.path.join(out_dir, "captures", f"part={pid:05d}")
        cap_tmp = cap_part + ".tmp"  # must stay beside cap_part (os.replace)
        orph_tmp = (os.path.join(cfg.side_channel_dir, f"part={pid:05d}.orph")
                    if cfg.side_channel_dir else cap_part + ".orph")
        if with_captures:
            shutil.rmtree(cap_tmp, ignore_errors=True)
            shutil.rmtree(cap_part, ignore_errors=True)
            shutil.rmtree(orph_tmp, ignore_errors=True)
            os.makedirs(cap_tmp, exist_ok=True)
        enriched = enriched_dataset(
            part_files, cfg, layer_kwargs,
            caps_dir=cap_tmp if with_captures else None,
            orph_dir=orph_tmp if with_captures else None)
        enriched = enriched.map_batches(
            lambda t, _s=salts: add_part_key(t, _s, f"h3_r{cfg.cell_partition_res}"),
            batch_format="pyarrow")
        part_dir = os.path.join(out_dir, "enriched", f"part={pid:05d}")
        tmp_dir = part_dir + ".tmp"
        fail_part = os.path.join(out_dir, "failed", f"part={pid:05d}")
        fail_tmp = fail_part + ".tmp"
        for d in (tmp_dir, part_dir, fail_tmp, fail_part):
            shutil.rmtree(d, ignore_errors=True)
        # staged up front: a partition with no rows gets no writer call but
        # still commits (empty) trees
        os.makedirs(tmp_dir)
        os.makedirs(fail_tmp)
        writer = _make_part_writer(tmp_dir, fail_dir=fail_tmp)
        if salts:
            # ONE all-to-all exchange of the slim (bytes-free) rows;
            # coalescing first kills the O(map_blocks × reduce_partitions)
            # fetch term
            coal = int(max(2 * cpus, min(est_rows // 50_000, 8 * cpus)))
            written = (enriched.repartition(coal)
                       .groupby("part_key")
                       .map_groups(writer, batch_format="pandas"))
            exchanges = 1
        else:
            # single bin: every row has part_key "0", so ONE writer call
            # over all of them needs no exchange. concurrency=1 keeps the
            # writer out of the read→decode fusion (an unsized upstream is
            # never fused into a size-1 pool), so decode stays one task
            # per block and writes the same in-block capture files.
            written = enriched.map_batches(
                writer, batch_size=max(1, est_rows), concurrency=1,
                batch_format="pandas")
            exchanges = 0
        lineage = written.to_pandas()
        if lineage.empty:
            lineage = _empty_lineage()
        # one file per key and tree: a second writer call for a key would
        # have overwritten the first one's file
        assert not lineage.duplicated(["kind", "file"]).any(), lineage
        enrich_write_s = time.time() - t_ph
        phases["enrich_write"] += enrich_write_s
        t_ph = time.time()
        orph_rows = 0
        if with_captures:
            orph_lineage = _resolve_orphans(orph_tmp, cap_tmp,
                                            ndvi_variant=cfg.ndvi_variant,
                                            index_names=cfg.indices)
            if len(orph_lineage):
                orph_rows = int(orph_lineage["rows"].sum())
                lineage = pd.concat([lineage, orph_lineage],
                                    ignore_index=True)
            shutil.rmtree(orph_tmp, ignore_errors=True)
        orph_s = time.time() - t_ph
        phases["orphans"] += orph_s
        t_ph = time.time()
        os.replace(tmp_dir, part_dir)
        os.replace(fail_tmp, fail_part)
        enr_lineage = lineage[lineage["kind"] == "enriched"]
        rows = int(enr_lineage["rows"].sum())
        failed_rows = int(lineage.loc[lineage["kind"] == "failed", "rows"].sum())

        caps = 0
        if with_captures:
            os.replace(cap_tmp, cap_part)
            caps = sum(pq.read_metadata(f).num_rows
                       for f in glob.glob(os.path.join(cap_part, "*.parquet")))
        caps_s = time.time() - t_ph
        phases["captures"] += caps_s
        manifest.commit(pid, part_files, rows, caps, t_start,
                        lineage.to_dict("records"), stamp=stamp)
        # --- ops/monitoring dataset (reference system_metrics/api_usage
        # analogue, create-tables.sql:185-223 + rasterio_monitor.py:66-200):
        # one row per (partition, stage) with wall/rows/throughput, plus the
        # raw Ray Data per-operator stats report for the executed DAG.
        try:
            stats_text = written.stats()
        except Exception:
            stats_text = ""
        ops_df = pd.DataFrame([
            {"partition": pid, "stage": "census",
             "wall_s": round(census_s_part, 3),
             "rows": est_rows, "detail": ""},
            {"partition": pid, "stage": "enrich_write",
             "wall_s": round(enrich_write_s, 3), "rows": rows,
             "detail": stats_text},
            {"partition": pid, "stage": "orphan_resolve",
             "wall_s": round(orph_s, 3), "rows": orph_rows, "detail": ""},
            {"partition": pid, "stage": "captures_commit",
             "wall_s": round(caps_s, 3), "rows": caps, "detail": ""},
            {"partition": pid, "stage": "quarantine", "wall_s": 0.0,
             "rows": failed_rows, "detail": ""},
        ])
        ops_df["rows_per_sec"] = (
            ops_df["rows"] / ops_df["wall_s"].clip(lower=1e-9)).round(1)
        # all-to-all exchanges each stage ran: which write tail this
        # partition took, without parsing the ``detail`` stats text
        ops_df["exchanges"] = np.where(ops_df["stage"] == "enrich_write",
                                       exchanges, 0).astype(np.int64)
        ops_dir = os.path.join(out_dir, "ops")
        os.makedirs(ops_dir, exist_ok=True)
        ops_path = os.path.join(ops_dir, f"part={pid:05d}.parquet")
        pq.write_table(pa.Table.from_pandas(ops_df, preserve_index=False),
                       ops_path + ".tmp", compression="zstd")
        os.replace(ops_path + ".tmp", ops_path)
        total_rows += rows
        total_caps += caps
        total_failed += failed_rows

    dur = time.time() - t0
    recs = manifest.records()
    return {
        "partitions_total": len(partitions),
        "partitions_run": len(pending),
        "partitions_skipped": len(partitions) - len(pending),
        "rows_written": total_rows,
        "captures_written": total_caps,
        "failed_rows": total_failed,
        "rows_total_manifest": int(sum(r["row_count"] for r in recs)),
        "duration_sec": round(dur, 3),
        "rows_per_sec": round(total_rows / dur, 1) if dur > 0 and total_rows else 0.0,
        "phases_sec": {k: round(v, 2) for k, v in phases.items()},
        "out_dir": out_dir,
    }


def read_enriched(out_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(out_dir, "enriched"),
                           file_extensions=["parquet"])


def read_captures(out_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(out_dir, "captures"))


def read_failed(out_dir: str):
    """The quarantine dataset: rows whose payload could not be decoded,
    routed out of the enriched output during the partition write (reference
    failed-directory semantics, main.py:244-251)."""
    import ray.data as rd

    return rd.read_parquet(os.path.join(out_dir, "failed"),
                           file_extensions=["parquet"])


def read_ops(out_dir: str):
    """Per-(partition, stage) operational metrics written by run_flagship —
    the reference's system_metrics/api_usage analogue
    (create-tables.sql:185-223); `exchanges` counts the all-to-all
    exchanges a stage ran (1 on the sort tail's enrich_write row, else 0)
    and `detail` carries the raw Ray Data per-operator stats report for
    the partition's executed DAG."""
    import ray.data as rd

    return rd.read_parquet(os.path.join(out_dir, "ops"),
                           file_extensions=["parquet"])
