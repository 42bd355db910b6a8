"""Every registered query's output at sf0.001 equals its golden digest.

``tests/golden/sf0.001.json`` holds ``{query: {columns, dtypes, rows,
digest}}`` from ``tools/minidriver.py --digest``: the digest hashes the
normalized output (columns by name, rows sorted, floats by their exact
repr), so it also pins the rows-only queries, which no oracle checks. Each
sweep runs in its own process and Ray session, at 2 and at 16 CPUs, since
the hash exchanges and ``_dsjoin`` size their bucket count by the session's
CPUs and no output may depend on it. A change that alters an output
regenerates the file in the same commit and says why.
"""
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "sf0.001.json")
SF_DIR = "/root/testdata/sf0.001"
# ops_stats reports the measured wall seconds of the cached flagship run
# it reads, so its digest holds only while that cache lives; its columns,
# dtypes and rows must still match.
SHAPE_ONLY = {"ops_stats"}

# One sweep: start a Ray session with the given CPUs, digest the registry,
# shut the session down, then print the session name.
SWEEP = """
import json, sys
import ray
ctx = ray.init(address="local", num_cpus=int(sys.argv[1]),
               include_dashboard=False, logging_level="ERROR")
try:
    from tools import minidriver
    got = minidriver.digests(sys.argv[2])
finally:
    ray.shutdown()
with open(sys.argv[3], "w") as fh:
    json.dump(got, fh)
print("SESSION", ctx.address_info["session_dir"])
"""


def _procs_of(session_dir):
    """PIDs of live processes whose command line names ``session_dir``'s
    session (Ray's daemons and workers all carry it)."""
    name = os.path.basename(session_dir.rstrip("/"))
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
        except OSError:
            continue
        if name.encode() in cmd:
            pids.append(int(pid))
    return pids


@pytest.mark.parametrize("cpus", [2, 16])
def test_registry_matches_golden_digests(cpus, tmp_path):
    out = tmp_path / "digests.json"
    env = dict(os.environ, GRAFT_ORACLE_SF="0.001")
    res = subprocess.run(
        [sys.executable, "-c", SWEEP, str(cpus), SF_DIR, str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1500)
    assert res.returncode == 0, res.stderr[-4000:]
    session = [ln.split(" ", 1)[1] for ln in res.stdout.splitlines()
               if ln.startswith("SESSION ")][0]
    deadline = time.time() + 30
    while _procs_of(session) and time.time() < deadline:
        time.sleep(0.5)
    assert not _procs_of(session), f"Ray processes left by {session}"

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    with open(out) as fh:
        got = json.load(fh)
    assert sorted(got) == sorted(golden)
    for q in SHAPE_ONLY:
        got[q].pop("digest", None)
        golden[q].pop("digest", None)
    diff = {q: {"got": got[q], "golden": golden[q]}
            for q in golden if got[q] != golden[q]}
    assert not diff, json.dumps(diff, indent=1)[:4000]
