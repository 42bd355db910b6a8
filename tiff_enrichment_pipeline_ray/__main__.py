"""CLI entry point — mirrors the reference's sub-pipeline flags
(reference: main.py:571-596 — --detect-only / --micasense-only /
--health-check-only) on the Ray engine: ``detect`` is the classify-only
path, ``run --skip-captures`` the regular-TIFF branch, ``health`` the
health gate.

    python -m tiff_enrichment_pipeline_ray run --input DIR --output DIR
    python -m tiff_enrichment_pipeline_ray detect --input DIR
    python -m tiff_enrichment_pipeline_ray health
    python -m tiff_enrichment_pipeline_ray synth --sf 0.001

Owns its Ray session (guarded init); the driver-facing API in
__ray_entry__.py never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_run(args):
    _init_ray(args.num_cpus)
    from .config import PipelineConfig
    from .pipelines import flagship

    cfg = PipelineConfig(
        indices=tuple(args.indices.split(",")) if args.indices else
        PipelineConfig.indices,
        partition_row_budget=args.partition_budget,
    )
    summary = flagship.run_flagship(
        args.input, args.output, cfg=cfg,
        checkpoint_partitions=args.checkpoint_partitions,
        resume=not args.no_resume,
        with_captures=not args.skip_captures)
    print(json.dumps(summary))


def cmd_detect(args):
    """Classify files only (detect_file_types analogue, main.py:50-108)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .stages.extract import extract_meta_light

    ds = rd.read_parquet(args.input)
    ds = ds.map_batches(extract_meta_light, batch_format="pyarrow")
    counts = ds.groupby("file_class").count().to_pandas()
    print(counts.to_json(orient="records"))


def cmd_health(args):
    """Health gate analogue (health.py:92-107): Ray up, layers present,
    output dir writable."""
    import os
    import tempfile

    _init_ray(args.num_cpus)
    import ray

    from .sources import synth

    checks = {"ray": ray.is_initialized()}
    try:
        layers = synth.ensure_layers()
        checks["layers"] = os.path.exists(os.path.join(layers, "_DONE"))
    except Exception:
        checks["layers"] = False
    try:
        with tempfile.NamedTemporaryFile(dir="/tmp"):
            checks["filesystem"] = True
    except Exception:
        checks["filesystem"] = False
    print(json.dumps(checks))
    sys.exit(0 if all(checks.values()) else 1)


def cmd_watch(args):
    """Watcher daemon (watcher.py:8-18): poll + re-run; the manifest makes
    each cycle process only new input partitions (exact resume — late files
    are picked up next cycle, finished work is never recomputed)."""
    import time

    _init_ray(args.num_cpus)
    from .pipelines import flagship

    cycle = 0
    while True:
        cycle += 1
        try:
            s = flagship.run_flagship(args.input, args.output, resume=True)
            print(json.dumps({"cycle": cycle,
                              "partitions_run": s["partitions_run"],
                              "partitions_skipped": s["partitions_skipped"]}),
                  flush=True)
        except FileNotFoundError as e:
            print(json.dumps({"cycle": cycle, "waiting": str(e)}), flush=True)
        if args.max_cycles and cycle >= args.max_cycles:
            break
        time.sleep(args.interval)


def cmd_synth(args):
    _init_ray(args.num_cpus)
    from .sources import synth

    out = synth.ensure_images(args.sf)
    synth.ensure_layers()
    print(out)


def main(argv=None):
    p = argparse.ArgumentParser(prog="tiff_enrichment_pipeline_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("run", help="full flagship pipeline")
    pr.add_argument("--input", required=True)
    pr.add_argument("--output", required=True)
    pr.add_argument("--num-cpus", type=int, default=None)
    pr.add_argument("--checkpoint-partitions", type=int, default=1)
    pr.add_argument("--no-resume", action="store_true")
    pr.add_argument("--skip-captures", action="store_true",
                    help="regular-TIFF branch only (no MicaSense products)")
    pr.add_argument("--indices", default=None,
                    help="comma list, e.g. ndvi,ndre (default: all 8)")
    pr.add_argument("--partition-budget", type=int, default=50_000)
    pr.set_defaults(fn=cmd_run)

    pd_ = sub.add_parser("detect", help="classify inputs only")
    pd_.add_argument("--input", required=True)
    pd_.add_argument("--num-cpus", type=int, default=None)
    pd_.set_defaults(fn=cmd_detect)

    ph = sub.add_parser("health", help="health checks")
    ph.add_argument("--num-cpus", type=int, default=2)
    ph.set_defaults(fn=cmd_health)

    ps = sub.add_parser("synth", help="generate synthetic fixtures")
    ps.add_argument("--sf", type=float, default=0.001)
    ps.add_argument("--num-cpus", type=int, default=None)
    ps.set_defaults(fn=cmd_synth)

    pw = sub.add_parser(
        "watch", help="watcher daemon: re-run with resume every INTERVAL s "
        "(reference watcher.py:8-18; exact incremental resume replaces "
        "overwrite-based idempotence)")
    pw.add_argument("--input", required=True)
    pw.add_argument("--output", required=True)
    pw.add_argument("--interval", type=float, default=30.0)
    pw.add_argument("--max-cycles", type=int, default=0,
                    help="0 = run forever")
    pw.add_argument("--num-cpus", type=int, default=None)
    pw.set_defaults(fn=cmd_watch)

    args = p.parse_args(argv)
    args.fn(args)
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
