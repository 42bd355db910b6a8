"""Local stand-in for the driver's correctness gate: runs every queries()
entry at a given sf and compares against oracle_sql() via DuckDB —
row count + schema + order-insensitive value compare (columns sorted by name,
rows sorted by all columns). Usage:

    python tools/minidriver.py [sf_dir] [--hash] [query ...]
    python tools/minidriver.py [sf_dir] --digest OUT.json [query ...]

``--digest`` runs no oracle: it writes ``{query: {columns, dtypes, rows,
digest}}`` of the engine's own output, the form of ``tests/golden/``. A
caller that already ran ``ray.init(num_cpus=N)`` sweeps at N CPUs (the
command line starts 8).
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np
import pandas as pd


def to_pandas(res):
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def compare(name, ray_df, sql_df, exact=False):
    """exact=True emulates the DRIVER's hash compare (round-4 verdict item:
    the tolerance compare masked the HUGEINT/BIGINT typing bug class twice
    — doc_source_token_budget r3, geo_block_split r4). In exact mode a
    dtype-KIND mismatch (e.g. an oracle sum(<BIGINT>) widening to HUGEINT
    → pandas float64/object vs the engine's int64) fails even when values
    compare equal under the float tolerance, and float columns must be
    bit-identical."""
    a, b = normalize(ray_df), normalize(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA mismatch: ray={list(a.columns)} sql={list(b.columns)}"
    if len(a) != len(b):
        return f"ROWS mismatch: ray={len(a)} sql={len(b)}"
    if exact:
        for c in a.columns:
            ka = a[c].dtype.kind
            kb = b[c].dtype.kind
            if ka != kb and not ({ka, kb} <= {"O", "U", "S"}):
                return (f"DTYPE mismatch col={c}: ray={a[c].dtype} "
                        f"sql={b[c].dtype} (driver hash would differ)")
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if ka == "f":
                av = np.asarray(av, np.float64)
                bv = np.asarray(bv, np.float64)
                eq = (av == bv) | (np.isnan(av) & np.isnan(bv))
            else:
                eq = pd.Series(av).astype(str).to_numpy() \
                    == pd.Series(bv).astype(str).to_numpy()
            if not np.asarray(eq).all():
                i = int(np.flatnonzero(~np.asarray(eq))[0])
                return (f"EXACT mismatch col={c} row={i}: "
                        f"ray={av[i]!r} sql={bv[i]!r}")
        return None
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(np.asarray(av).dtype, np.floating) or np.issubdtype(np.asarray(bv).dtype, np.floating):
            av = np.asarray(av, dtype=np.float64)
            bv = np.asarray(bv, dtype=np.float64)
            both_nan = np.isnan(av) & np.isnan(bv)
            # Tolerance for float columns (round 4, VERDICT item 8): the
            # engines round explicitly (round(x, 4/6)) but the values FED
            # to round() come from differently-associated distributed sums;
            # a pre-round quantity 1 ulp across a .5 boundary lands ONE
            # ROUNDING QUANTUM apart post-round (observed at sf0.1:
            # events_hourly 30.046562 vs .046563). 2e-7 RELATIVE covers one
            # 6-decimal quantum at O(10) magnitudes while staying ~100×
            # below any real defect (a single dropped row in a 100k-row sum
            # shifts it ≥1e-5 relative); 4 ulps absolute covers unrounded
            # columns near zero.
            tol = np.maximum(4 * np.spacing(np.maximum(np.abs(av), np.abs(bv))),
                             2e-7 * np.maximum(np.abs(av), np.abs(bv)))
            eq = both_nan | (av == bv) | (np.abs(av - bv) <= tol)
            if not eq.all():
                i = int(np.flatnonzero(~eq)[0])
                return f"VALUE mismatch col={c} row={i}: ray={av[i]!r} sql={bv[i]!r}"
        else:
            eq = pd.Series(av).astype(str).to_numpy() == pd.Series(bv).astype(str).to_numpy()
            if not eq.all():
                i = int(np.flatnonzero(~eq)[0])
                return f"VALUE mismatch col={c} row={i}: ray={av[i]!r} sql={bv[i]!r}"
    return None


def _cell_text(v):
    """Exact text of one object cell: arrays by dtype, shape and bytes
    (``str`` of an array rounds and elides), everything else by repr."""
    if isinstance(v, np.ndarray):
        return (f"{v.dtype}{v.shape}:" + hashlib.sha256(
            np.ascontiguousarray(v).tobytes()).hexdigest())
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_cell_text(x) for x in v) + "]"
    return repr(v)


def digest(df: pd.DataFrame) -> dict:
    """Columns, dtypes, row count and a sha256 of ``normalize(df)``.

    Object cells become exact text first, so rows holding arrays sort;
    every column then hashes as ``str`` values, which for floats is the
    shortest round-trip repr: a one-ulp change changes the digest."""
    df = df.reset_index(drop=True)
    text = df.copy()
    for c in text.columns:
        if text[c].dtype == object:
            text[c] = text[c].map(_cell_text)
    n = normalize(text)
    h = hashlib.sha256()
    for c in n.columns:
        h.update(f"{c}:{df[c].dtype};".encode())
        h.update(pd.util.hash_pandas_object(n[c].astype(str),
                                            index=False).to_numpy().tobytes())
    return {"columns": sorted(map(str, df.columns)),
            "dtypes": {str(c): str(df[c].dtype) for c in sorted(df.columns)},
            "rows": len(df), "digest": h.hexdigest()}


def _registry(sf_dir):
    """The driver contract's module, in a Ray session (8 CPUs unless the
    caller already started one)."""
    import ray
    import os
    import re

    # pin the flagship oracles to the sf being swept (they read the
    # MATERIALIZED flagship output for GRAFT_ORACLE_SF, default 0.01 —
    # sweeping sf0.1 without this reads 0.01-scale oracle tables and every
    # flagship/images-derived query rows-mismatches by ~10x)
    if "GRAFT_ORACLE_SF" not in os.environ:
        m = re.search(r"sf([0-9.]+)/?$", sf_dir)
        if m:
            os.environ["GRAFT_ORACLE_SF"] = m.group(1)

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    return entrymod


def digests(sf_dir, only=None):
    """``{query: digest(output)}`` over the registry; a query that raises
    maps to ``{"error": ...}``."""
    out = {}
    for name, fn in _registry(sf_dir).queries().items():
        if only and name not in only:
            continue
        try:
            out[name] = digest(to_pandas(fn(sf_dir)))
        except Exception as e:
            out[name] = {"error": f"{type(e).__name__}: {e}"}
        print(f"{name:28s} {out[name].get('rows', 'ERROR')}", flush=True)
    return out


def run(sf_dir, only=None, exact=False):
    import duckdb

    entrymod = _registry(sf_dir)
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time

        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            results[name] = f"RAY ERROR: {type(e).__name__}: {e}"
            print(f"{name:28s} FAIL {results[name]}")
            continue
        dt = time.time() - t0
        if name in oracles:
            try:
                sql_df = con.sql(oracles[name]).df()
            except Exception as e:
                results[name] = f"SQL ERROR: {type(e).__name__}: {e}"
                print(f"{name:28s} FAIL {results[name]}")
                continue
            err = compare(name, ray_df, sql_df, exact=exact)
            results[name] = err or "OK"
            print(f"{name:28s} {'OK  ' if not err else 'FAIL'} "
                  f"rows={len(ray_df)} {dt:.1f}s {err or ''}")
        else:
            results[name] = f"rows-only ({len(ray_df)})"
            print(f"{name:28s} ROWS rows={len(ray_df)} {dt:.1f}s")
    bad = {k: v for k, v in results.items()
           if v != "OK" and not v.startswith("rows-only")}
    print(f"\n{len(results) - len(bad)}/{len(results)} passing; failures: {list(bad) or 'none'}")
    return bad


if __name__ == "__main__":
    args = sys.argv[1:]
    exact = "--hash" in args
    args = [a for a in args if a != "--hash"]
    out_json = None
    if "--digest" in args:
        i = args.index("--digest")
        out_json = args[i + 1]
        del args[i:i + 2]
    # default to sf0.01 — the scale the driver compares at; the flagship
    # oracles are pinned to GRAFT_ORACLE_SF (default 0.01), so running the
    # queries at any other sf makes the flagship-derived rows mismatch.
    sf_dir = args[0] if args and args[0].startswith("/") else "/root/testdata/sf0.01"
    only = set(a for a in args if not a.startswith("/")) or None
    if out_json:
        got = digests(sf_dir, only)
        with open(out_json, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
        sys.exit(1 if any("error" in v for v in got.values()) else 0)
    bad = run(sf_dir, only, exact=exact)
    sys.exit(1 if bad else 0)
