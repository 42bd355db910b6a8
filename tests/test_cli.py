"""The command-line entry point, run as a user runs it: in a subprocess
that starts and stops its own Ray session."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args, timeout=600):
    env = dict(os.environ, PYTHONPATH=ROOT)
    return subprocess.run(
        [sys.executable, "-m", "tiff_enrichment_pipeline_ray", *args],
        env=env, capture_output=True, text=True, timeout=timeout)


def test_run_skip_captures_prints_summary(tiny_images_dir, tmp_path):
    r = _cli("run", "--input", tiny_images_dir,
             "--output", str(tmp_path / "out"), "--skip-captures",
             "--num-cpus", "1")
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["captures_written"] == 0
    assert summary["rows_written"] > 0


def test_run_detect_only_is_not_an_option():
    """Classify-only is the ``detect`` subcommand; ``run`` has no
    ``--detect-only`` flag (it only ever skipped the captures)."""
    r = _cli("run", "--input", "in", "--output", "out", "--detect-only",
             timeout=60)
    assert r.returncode == 2
    assert "--detect-only" in r.stderr
