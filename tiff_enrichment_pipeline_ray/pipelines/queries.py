"""Driver-gate query suite: Ray Data implementations.

Every function takes ``sf_dir`` (a /root/testdata/sf* directory) and returns a
``ray.data.Dataset`` / pandas DataFrame. Each SQL-expressible query has a
matching ANSI-SQL oracle in pipelines/oracles.py with IDENTICAL column names
(the driver hash-compares after sorting columns by name).

Float discipline (so Ray and DuckDB hash-match bit-for-bit):
- money sums (2- or 4-decimal-quantized inputs) → round(…, 4)
- averages / free quotients → round(…, 6)
  Rounding to N decimals maps both engines' near-identical doubles to the
  same nearest-double of the same decimal, and the half-even vs half-away
  difference can't trigger (an exact decimal boundary is not binary-
  representable).
- geo-derived queries use integer-only or expression-identical arithmetic
  (documented per query) so values match exactly without rounding.

Keyed aggregates use ``_preagg``: a per-block arrow partial inside
map_batches, then a small groupby over the partials — the shuffle moves one
row per (key × block), not one per input row.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.joinsafe import install_joinsafe
from ..sources import synth
from ..sources.tables import read_testdata, testdata_path

install_joinsafe()  # every Dataset.join below tolerates empty hash partitions

# --------------------------------------------------------------- helpers


def _preagg(ds, keys, spec):
    """spec: [(out_col, src_col|None, op)] with op ∈ sum|count|min|max.
    count with src None = COUNT(*). Returns the aggregated Dataset.

    Two-stage hash aggregate: per-block arrow partials, then a shuffle on a
    single int32 hash-partition key and a vectorized pandas combine per
    partition.  Shuffling on ``_pk`` instead of the raw (possibly multi-
    string) key matters: Ray's sort-based Aggregate combine walks rows in
    Python per group boundary, which measured ~17 s for a 40k-group/100k-row
    events aggregate where this pattern takes ~4 s.  The shuffle moves one
    row per (key × block), and each combine group holds ~n_groups/P rows —
    bounded regardless of input row count."""
    import ray

    keys = list(keys)
    npart = max(8, int(ray.cluster_resources().get("CPU", 8)))

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, dropna=False, sort=False)
        cols = {}
        for out, _src, op in spec:
            # partial counts combine by SUM; min/max stay idempotent
            red = "sum" if op in ("sum", "count") else op
            cols[out] = getattr(g[out], red)()
        return pd.DataFrame(cols).reset_index()

    def partial(t: pa.Table) -> pa.Table:
        """Arrow-native partial: zero-copy block in, pyarrow hash-group
        kernel, no block-wide pandas conversion; only the (one row per
        group) OUTPUT touches pandas, for the _pk hash. Faster than a
        pandas-groupby partial at sf0.1/32 (BASELINE.md round 5: q1 +21%,
        events_hourly +12%)."""
        aggs = []
        names = {}
        for out, src, op in spec:
            if op == "count" and src is None:
                aggs.append(([], "count_all"))
                names["count_all"] = out
            else:
                aggs.append((src, op))
                names[f"{src}_{op}"] = out
        g = t.group_by(keys, use_threads=False).aggregate(aggs)
        g = g.rename_columns([names.get(c, c) for c in g.schema.names])
        out = g.to_pandas()
        out["_pk"] = (pd.util.hash_pandas_object(out[keys], index=False)
                      % npart).astype("int32")
        return pa.Table.from_pandas(out, preserve_index=False)

    # partial names pyarrow's output columns back by (src, op), so a
    # repeated pair — two COUNT(*) entries are (None, "count") twice —
    # would be mislabeled silently
    pairs = [(src, op) for _out, src, op in spec]
    assert len(set(pairs)) == len(pairs), \
        f"_preagg spec repeats a (src, op) pair: {pairs}"
    # whole-block partials: combining works at block granularity (a 1024-row
    # default batch barely combines on high-cardinality keys)
    pds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return pds.groupby("_pk").map_groups(
        lambda df: combine(df.drop(columns=["_pk"])), batch_format="pandas")


def _ts_filter(col, op, iso):
    import pyarrow.compute as pc

    bound = pa.scalar(np.datetime64(iso, "us"))
    return lambda t: t.filter(getattr(pc, op)(t.column(col), bound))


def _pq_files(path: str) -> list:
    """The parquet files of a file or directory path, sorted."""
    import glob as _glob

    return (sorted(_glob.glob(os.path.join(path, "**", "*.parquet"),
                              recursive=True))
            if os.path.isdir(path) else [path])


def _pq_nrows(path: str) -> int:
    """Metadata-only parquet row count (file or directory) — no Ray job, no
    data read. Used to size shuffle bucket counts to the input."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in _pq_files(path))


def _pq_colminmax(path: str, col: str) -> tuple:
    """Metadata-only (min, max) of a column across a parquet file or
    directory — row-group footer statistics, no Ray job, no data read.
    Returns the raw statistics (int, float or datetime, by column type);
    callers cast. Sizes ORDERED range-buckets for the ordered scans. Row
    groups without min/max (an empty file's one row group has none) are
    skipped; (None, None) when no row group has any."""
    import pyarrow.parquet as pq

    lo, hi = None, None
    for f in _pq_files(path):
        md = pq.ParquetFile(f).metadata
        idx = {md.schema.column(i).name: i for i in range(md.num_columns)}[col]
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                continue
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
    return lo, hi


def _bucket_offsets(slim, key: str, spec: tuple, scan=np.cumsum, init=0):
    """Phase 1 of the two-phase ordered scan. ``slim`` rows carry an
    ORDERED bucket id in ``key``; ``spec`` = (out, src, op) is one
    ``_preagg`` partial per bucket (≤ nbk rows reach the driver, bounded by
    the bucket count, not the input). The driver scans the partials in
    bucket order (``scan`` = np.cumsum for counts and sums,
    np.maximum.accumulate for a running max) and shifts the result by one
    bucket from ``init``: bucket b's offset aggregates every bucket < b.

    Returns (partials sorted by bucket, {bucket: exclusive offset}). Phase 2
    is the caller's ``groupby(key).map_groups``: sort inside the bucket and
    apply its offset. An empty ``slim`` gives a zero-row partial frame that
    still has the ``key`` and ``spec`` columns, and no offsets."""
    parts = _preagg(slim, [key], [spec]).to_pandas()
    if parts.empty:
        parts = pd.DataFrame({key: np.empty(0, np.int64),
                              spec[0]: np.empty(0, np.result_type(init))})
    parts = parts.sort_values(key).reset_index(drop=True)
    acc = scan(parts[spec[0]].to_numpy(np.result_type(init)))
    offsets = dict(zip(parts[key].to_numpy(np.int64).tolist(),
                       np.concatenate([[init], acc[:-1]]).tolist()))
    return parts, offsets


def _no_rows(**dtypes) -> pd.DataFrame:
    """The zero-row result of an operator over an empty input: its columns
    and dtypes, where a groupby over no rows would return no schema."""
    return pd.DataFrame({c: np.empty(0, t) for c, t in dtypes.items()})


def _nbuckets(n_rows: int, rows_per_bucket: int = 4096, lo: int = 64) -> int:
    """Shuffle-bucket count that SCALES with the input (round-3 fix: the LSH
    / banded-hamming buckets were fixed constants — 64/256 — which at 100 TB
    would pile the whole key space into a bounded number of groups). Target
    ~rows_per_bucket exploded rows per groupby group; floor keeps small-sf
    runs parallel."""
    return max(lo, int(np.ceil(n_rows / rows_per_bucket)))


def _flat_words(texts: pd.Series) -> np.ndarray:
    """Every whitespace-split token of the batch, concatenated, as one
    object ndarray. ONE C-level join + split replaces the per-token Python
    list comprehension that used to dominate the vocab partials (round-4
    fix). Exactness: ``" ".join(ts).split(" ")`` ≡ the concatenation of
    each ``t.split(" ")`` — the single joining space between consecutive
    texts regenerates each text's own boundary, and an empty text yields
    the same [''] token either way."""
    if len(texts) == 0:
        return np.empty(0, dtype=object)
    return np.array(" ".join(texts.fillna("").tolist()).split(" "),
                    dtype=object)


def _ngram_hashes(texts: pd.Series, n: int):
    """n-token window hashes of one batch of texts. Tokens are hashed ONCE
    at C level (pd.util.hash_array over the flat token array —
    deterministic across processes); each window hash is a polynomial
    combine in wrapping uint64 over a sliding view, and a doc-index mask
    drops windows that cross a doc boundary. Returns (gh, wdoc, valid,
    cnts): the int64 hash and the batch row of every in-doc window, the
    in-doc mask over all window starts of the flat token array, and the
    per-row token counts; None when the batch holds no window."""
    if len(texts) == 0:
        return None
    texts = texts.fillna("")
    cnts = (texts.str.count(" ") + 1).to_numpy(np.int64)
    h = pd.util.hash_array(_flat_words(texts))
    nw = len(h) - n + 1
    if nw <= 0:
        return None
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int64), cnts)
    valid = doc_of[:nw] == doc_of[n - 1:]  # window start+end in same doc
    W = np.lib.stride_tricks.sliding_window_view(h, n)[valid]
    pw = np.uint64(0x9E3779B97F4A7C15) ** np.arange(n, dtype=np.uint64)
    gh = (W * pw).sum(axis=1, dtype=np.uint64).view(np.int64)
    return gh, doc_of[:nw][valid], valid, cnts


def _spread_read(sf_dir: str, table: str, columns,
                 rows_per_block: int = 192):
    """Read a small table split into ~CPU-count blocks so a CPU-heavy map
    downstream (minhash/simhash sketching) runs across the cluster instead
    of serially in one fused read+map task. Uses ``override_num_blocks`` —
    the read stays ONE task (single fragment) but its output is split, so
    no repartition exchange is paid (round 4: the repartition variant cost
    ~0.9 s of barrier per pipeline). Bounded: only small inputs (< ~2M
    rows) are touched — at real scale the read arrives already
    multi-fragment and the hint is omitted. Returns (dataset, n_rows)."""
    import ray

    n_rows = _pq_nrows(testdata_path(sf_dir, table))
    kw = {}
    if n_rows <= 2_000_000:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        k = int(min(cpus * 2, max(1, n_rows // rows_per_block)))
        if k > 1:
            kw["override_num_blocks"] = k
    from ..sources.tables import read_table

    return (read_table(testdata_path(sf_dir, table), columns=columns, **kw),
            n_rows)


# ------------------------------------------------------- TPC-H-style


def _dsjoin(left, right, on, join_type="inner", right_on=None):
    """Distributed hash-partition join sized to the cluster: partition count
    ~ CPUs (enough parallelism without flooding the scheduler). Aggregator
    actors reserve ZERO logical CPUs: every join in a plan eagerly spawns
    num_partitions aggregators, so any positive reservation deadlocks a
    deep-enough join chain (4 joins x 8 partitions x 0.25 CPU ate an entire
    8-CPU session and starved the map tasks — observed livelock). The
    aggregators' combine work is bounded by the shuffle's memory
    backpressure, not by CPU reservation. join_type passes through to Ray
    (inner | left_outer | left_semi | left_anti | ...)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    return left.join(right, join_type=join_type,
                     num_partitions=max(4, cpus),
                     on=on, right_on=right_on,
                     aggregator_ray_remote_args={"num_cpus": 0})


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 flavor (SURVEY A1/A2 aggregate family)."""
    ds = read_testdata(sf_dir, "lineitem",
                       columns=["l_returnflag", "l_linestatus", "l_quantity",
                                "l_extendedprice", "l_discount", "l_shipdate"])
    ds = ds.map_batches(_ts_filter("l_shipdate", "less_equal", "1998-09-02"),
                        batch_format="pyarrow")

    def derive(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        disc = pc.multiply(t.column("l_extendedprice"),
                           pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return t.append_column("disc_price", disc)

    ds = ds.map_batches(derive, batch_format="pyarrow")
    agg = _preagg(ds, ["l_returnflag", "l_linestatus"], [
        ("sum_qty", "l_quantity", "sum"),
        ("sum_base_price", "l_extendedprice", "sum"),
        ("sum_disc_price", "disc_price", "sum"),
        ("count_order", None, "count"),
    ])
    df = agg.to_pandas()
    df["avg_qty"] = (df["sum_qty"] / df["count_order"]).round(6)
    df["avg_price"] = (df["sum_base_price"] / df["count_order"]).round(6)
    df["sum_qty"] = df["sum_qty"].round(4)
    df["sum_base_price"] = df["sum_base_price"].round(4)
    df["sum_disc_price"] = df["sum_disc_price"].round(4)
    return df


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6 flavor: pure scan + vectorized predicate + global sum."""
    import pyarrow.compute as pc

    ds = read_testdata(sf_dir, "lineitem",
                       columns=["l_shipdate", "l_discount", "l_quantity",
                                "l_extendedprice"])

    def f(t: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64("1996-01-01", "us"))
        hi = pa.scalar(np.datetime64("1997-01-01", "us"))
        m = pc.and_(pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                            pc.less(t.column("l_shipdate"), hi)),
                    pc.and_(pc.greater_equal(t.column("l_discount"), pa.scalar(0.02)),
                            pc.less(t.column("l_quantity"), pa.scalar(24.0))))
        t = t.filter(m)
        rev = pc.multiply(t.column("l_extendedprice"), t.column("l_discount"))
        return pa.table({"rev": rev})

    from ray.data.aggregate import Count, Sum

    agg = (ds.map_batches(f, batch_format="pyarrow")
           .aggregate(Sum("rev", alias_name="revenue"),
                      Count(alias_name="n_rows")))
    return pd.DataFrame([{"revenue": round(agg["revenue"], 4),
                          "n_rows": int(agg["n_rows"])}])


def q3_shipping_priority(sf_dir: str):
    """Top-10 order revenue. Customer is SF-proportional, so the BUILDING
    qualification is a distributed LEFT SEMI hash join (``Dataset.join``) —
    no table, dimension or fact, is ever gathered to the driver (round-3
    fix; round 2 broadcast a frozenset of all BUILDING custkeys, O(SF)
    driver state). Top-10 = per-batch partial top-k + tiny driver merge."""
    cutoff = np.datetime64("1998-03-15", "us")

    bcust = read_testdata(sf_dir, "customer",
                          columns=["c_custkey", "c_mktsegment"])

    def c_building(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"c_custkey": df.loc[df.c_mktsegment == "BUILDING", "c_custkey"]})

    bcust = bcust.map_batches(c_building, batch_format="pandas")

    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey", "o_orderdate",
                                    "o_orderpriority"])

    def o_filter(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.o_orderdate < cutoff]
        return pd.DataFrame({"l_orderkey": df.o_orderkey,
                             "o_custkey": df.o_custkey,
                             "o_orderdate": df.o_orderdate.dt.strftime("%Y-%m-%d"),
                             "o_orderpriority": df.o_orderpriority})

    orders = _dsjoin(orders.map_batches(o_filter, batch_format="pandas"),
                     bcust, on=("o_custkey",), right_on=("c_custkey",),
                     join_type="left_semi").select_columns(
        ["l_orderkey", "o_orderdate", "o_orderpriority"])

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_extendedprice", "l_discount",
                                "l_shipdate"])
    li = li.map_batches(_ts_filter("l_shipdate", "greater", "1998-03-15"),
                        batch_format="pyarrow")

    def rev(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df.l_orderkey,
            "revenue": df.l_extendedprice * (1.0 - df.l_discount),
        })

    agg = _preagg(li.map_batches(rev, batch_format="pandas"),
                  ["l_orderkey"], [("revenue", "revenue", "sum")])
    joined = _dsjoin(agg, orders, on=("l_orderkey",))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["revenue"] = df["revenue"].round(4)  # round BEFORE top-k: ties
        return df.sort_values(["revenue", "l_orderkey"],
                              ascending=[False, True]).head(10)

    parts = joined.map_batches(topk, batch_format="pandas").to_pandas()
    df = parts.sort_values(["revenue", "l_orderkey"],
                           ascending=[False, True]).head(10)
    return df[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]


def q5_regional_revenue(sf_dir: str):
    """Revenue per nation for EUROPE where customer and supplier share the
    nation. Only the true constants (region/nation, 25 rows) stay
    driver-side; supplier reaches lineitem by a distributed hash join
    (round-3 fix; rounds 1-2 gathered the O(SF) supplier table into a
    driver dict), orders ⋈ customer and lineitem ⋈ orders are distributed
    hash-partition joins. The lineitem side is block-level pre-aggregated
    by (orderkey, supp-nation) after the supplier join."""
    region = read_testdata(sf_dir, "region").to_pandas()
    nation = read_testdata(sf_dir, "nation").to_pandas()
    rk = region.loc[region.r_name == "EUROPE", "r_regionkey"].iloc[0]
    nat = nation[nation.n_regionkey == rk][["n_nationkey", "n_name"]]
    nmap = nat.set_index("n_nationkey")["n_name"].to_dict()
    supp2 = read_testdata(sf_dir, "supplier",
                          columns=["s_suppkey", "s_nationkey"]) \
        .map_batches(lambda df: df[df.s_nationkey.isin(nmap)],
                     batch_format="pandas")

    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.o_orderdate >= lo) & (df.o_orderdate < hi)]
        return df[["o_orderkey", "o_custkey"]]

    orders = orders.map_batches(o_filter, batch_format="pandas")
    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_nationkey"])

    def c_proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.c_nationkey.isin(nmap)]
        return pd.DataFrame({"o_custkey": df.c_custkey,
                             "cust_nation": df.c_nationkey})

    cust = cust.map_batches(c_proj, batch_format="pandas")
    # fact ⋈ dimension-sized-but-sf-proportional: distributed hash join
    o_nat = _dsjoin(orders, cust, on=("o_custkey",)).select_columns(
        ["o_orderkey", "cust_nation"])

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                                "l_discount"])

    def li_proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df.l_orderkey, "l_suppkey": df.l_suppkey,
            "revenue": df.l_extendedprice * (1.0 - df.l_discount)})

    li = li.map_batches(li_proj, batch_format="pandas")
    # inner join doubles as the EUROPE-supplier filter (supp2 pre-filtered)
    li = _dsjoin(li, supp2, on=("l_suppkey",), right_on=("s_suppkey",))

    def li_preagg(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "o_orderkey": df.l_orderkey,
            "supp_nation": df.s_nationkey.astype(np.int64),
            "revenue": df.revenue,
        })
        return out.groupby(["o_orderkey", "supp_nation"],
                           as_index=False, sort=False).sum()

    li = li.map_batches(li_preagg, batch_format="pandas")
    joined = _dsjoin(li, o_nat, on=("o_orderkey",))

    def to_nation(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.supp_nation == df.cust_nation]
        return pd.DataFrame({"n_name": df.supp_nation.map(nmap),
                             "revenue": df.revenue})

    df = _preagg(joined.map_batches(to_nation, batch_format="pandas"),
                 ["n_name"], [("revenue", "revenue", "sum")]).to_pandas()
    df["revenue"] = df["revenue"].round(4)
    return df


def orders_per_segment(sf_dir: str):
    """Per-segment order stats. customer is sf-proportional, so the segment
    lookup is a distributed hash join (orders pre-aggregated per custkey
    first — the join then carries one row per customer, not one per
    order), never a driver-side map (round-2 fix of a round-1 leftover)."""
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_custkey", "o_totalprice"])
    per_cust = _preagg(orders, ["o_custkey"], [
        ("n_orders", None, "count"),
        ("sum_totalprice", "o_totalprice", "sum"),
        ("max_totalprice", "o_totalprice", "max"),
    ])
    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_mktsegment"])
    joined = _dsjoin(per_cust, cust, on=("o_custkey",),
                     right_on=("c_custkey",))
    agg = _preagg(joined.select_columns(
        ["c_mktsegment", "n_orders", "sum_totalprice", "max_totalprice"]),
        ["c_mktsegment"], [
        ("n_orders", "n_orders", "sum"),
        ("sum_totalprice", "sum_totalprice", "sum"),
        ("max_totalprice", "max_totalprice", "max"),
    ])
    df = agg.to_pandas()  # ≤ 5 segments
    df["sum_totalprice"] = df["sum_totalprice"].round(4)
    df["max_totalprice"] = df["max_totalprice"].round(4)
    return df


def top10_customers(sf_dir: str):
    """Top-10 customers by total order value. The per-customer aggregate is
    customer-cardinality (sf-proportional), so it is NEVER gathered whole:
    per-block partial top-10 under the final (rounded revenue, custkey)
    order → ≤ 10 × blocks rows reach the driver merge; c_name arrives via a
    distributed filter on the 10 winning keys (round-2 fix of a round-1
    leftover)."""
    orders = read_testdata(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    agg = _preagg(orders, ["o_custkey"], [
        ("revenue", "o_totalprice", "sum"),
        ("n_orders", None, "count"),
    ])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["revenue"] = df["revenue"].round(4)  # round BEFORE top-k: ties
        return df.sort_values(["revenue", "o_custkey"],
                              ascending=[False, True]).head(10)

    parts = agg.map_batches(topk, batch_format="pandas").to_pandas()
    df = parts.sort_values(["revenue", "o_custkey"],
                           ascending=[False, True]).head(10)
    keys = set(df.o_custkey)
    cust = read_testdata(sf_dir, "customer", columns=["c_custkey", "c_name"])
    cmap = cust.map_batches(lambda c: c[c.c_custkey.isin(keys)],
                            batch_format="pandas").to_pandas()  # ≤ 10 rows
    df = df.merge(cmap, left_on="o_custkey", right_on="c_custkey").drop(columns=["c_custkey"])
    return df


def part_brand_stats(sf_dir: str):
    part = read_testdata(sf_dir, "part",
                         columns=["p_brand", "p_retailprice", "p_size"])
    agg = _preagg(part, ["p_brand"], [
        ("n_parts", None, "count"),
        ("sum_retail", "p_retailprice", "sum"),
        ("min_size", "p_size", "min"),
        ("max_size", "p_size", "max"),
    ])
    df = agg.to_pandas()
    df["avg_retailprice"] = (df["sum_retail"] / df["n_parts"]).round(6)
    df["sum_retail"] = df["sum_retail"].round(4)
    return df


def supplier_nation_balance(sf_dir: str):
    nation = read_testdata(sf_dir, "nation").to_pandas()
    nmap = nation.set_index("n_nationkey")["n_name"].to_dict()
    supp = read_testdata(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df["n_name"] = df.s_nationkey.map(nmap)
        return df[["n_name", "s_acctbal"]]

    agg = _preagg(supp.map_batches(tag, batch_format="pandas"), ["n_name"], [
        ("n_suppliers", None, "count"),
        ("sum_acctbal", "s_acctbal", "sum"),
    ])
    df = agg.to_pandas()
    df["sum_acctbal"] = df["sum_acctbal"].round(4)
    return df


def q4_priority_semijoin(sf_dir: str):
    """TPC-H Q4-shaped EXISTS semi-join: count 1996H1 orders that have at
    least one returned ('R') lineitem. The semi side is deduped FIRST
    (distinct l_orderkey via groupby — the shuffle then carries one row per
    qualifying order, not one per lineitem) and joined hash-partitioned;
    neither fact table touches the driver."""
    li = read_testdata(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])
    li = li.filter(expr="l_returnflag == 'R'")
    semi = li.groupby("l_orderkey").count().select_columns(["l_orderkey"])

    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_orderpriority",
                                    "o_orderdate"])
    orders = orders.map_batches(
        _ts_filter("o_orderdate", "greater_equal", "1996-01-01"),
        batch_format="pyarrow").map_batches(
        _ts_filter("o_orderdate", "less", "1996-07-01"),
        batch_format="pyarrow")

    semi = semi.rename_columns({"l_orderkey": "o_orderkey"})
    joined = _dsjoin(orders, semi, on=("o_orderkey",))
    agg = _preagg(joined.select_columns(["o_orderpriority"]),
                  ["o_orderpriority"], [("n_orders", None, "count")])
    return agg


def q4_bloom_semijoin(sf_dir: str, p: int = 20):
    """q4's EXISTS semi-join with BLOOM-FILTER shuffle pruning (the
    100-TB-scale variant): a Bloom filter over the date-filtered orders keys
    is built distributed (per-block packed partials → one bitwise-OR
    map_groups level → tiny driver OR), broadcast once via ray.put, and
    probed INSIDE the lineitem scan — R-flag rows whose orderkey cannot be a
    1996H1 order are dropped before the dedup shuffle, so the exchange
    carries ~matching keys + false positives instead of every returned
    lineitem. The final hash join is exact, so FPs never leak into the
    result (same oracle as q4_priority_semijoin)."""
    import ray

    from ..functions import bloom as bf

    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_orderpriority",
                                    "o_orderdate"])
    orders = orders.map_batches(
        _ts_filter("o_orderdate", "greater_equal", "1996-01-01"),
        batch_format="pyarrow").map_batches(
        _ts_filter("o_orderdate", "less", "1996-07-01"),
        batch_format="pyarrow")

    nmerge = 16

    def bloom_partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.o_orderkey.to_numpy(np.int64)
        bits = bf.add(bf.empty(p), keys)
        pk = int(keys[0]) % nmerge if len(keys) else 0
        return pd.DataFrame({"_pk": [np.int32(pk)],
                             "bits": [bits.tobytes()]})

    def bloom_or(g: pd.DataFrame) -> pd.DataFrame:
        acc = bf.empty(p)
        for b in g.bits:
            acc = bf.merge(acc, np.frombuffer(b, dtype=np.uint8))
        return pd.DataFrame({"bits": [acc.tobytes()]})

    parts = (orders.select_columns(["o_orderkey"])
             .map_batches(bloom_partial, batch_format="pandas",
                          batch_size=None)
             .groupby("_pk").map_groups(bloom_or, batch_format="pandas")
             .to_pandas())  # ≤ nmerge one-row partials reach the driver
    acc = bf.empty(p)
    for b in parts.bits:
        acc = bf.merge(acc, np.frombuffer(b, dtype=np.uint8))
    bloom_ref = ray.put(acc)

    li = read_testdata(sf_dir, "lineitem", columns=["l_orderkey",
                                                    "l_returnflag"])

    def probe(df: pd.DataFrame, _b=bloom_ref) -> pd.DataFrame:
        bits = ray.get(_b) if isinstance(_b, ray.ObjectRef) else _b
        df = df[df.l_returnflag == "R"]
        keys = df.l_orderkey.to_numpy(np.int64)
        keep = pd.unique(keys[bf.might_contain(bits, keys)])
        return pd.DataFrame({"o_orderkey": keep})

    semi = (li.map_batches(probe, batch_format="pandas")
            .groupby("o_orderkey").count().select_columns(["o_orderkey"]))
    joined = _dsjoin(orders.select_columns(["o_orderkey", "o_orderpriority"]),
                     semi, on=("o_orderkey",))
    return _preagg(joined.select_columns(["o_orderpriority"]),
                   ["o_orderpriority"], [("n_orders", None, "count")])


def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14-shaped promo revenue share for 1996-01. part is
    SF-proportional, so it is never gathered (round-3 fix of the last
    O(SF) driver broadcast: a max(p_partkey)-sized bool array shipped via
    ray.put — 20 GB at SF=100k): the month's lineitem gets its revenue
    column in the scan, total_rev sums it directly, and promo_rev comes
    from a DISTRIBUTED hash join against the PROMO-filtered part
    projection (the q19 fact⋈dim shape)."""
    import pyarrow.compute as pc

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_partkey", "l_extendedprice", "l_discount",
                                "l_shipdate"])
    li = li.map_batches(
        _ts_filter("l_shipdate", "greater_equal", "1996-01-01"),
        batch_format="pyarrow").map_batches(
        _ts_filter("l_shipdate", "less", "1996-02-01"),
        batch_format="pyarrow")

    def with_rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0), t.column("l_discount")))
        return pa.table({"l_partkey": t.column("l_partkey"), "rev": rev})

    # two consumers (global total + promo join) re-run this cheap pruned
    # scan rather than materializing a month of lineitem to the store
    li = li.map_batches(with_rev, batch_format="pyarrow")

    def totals(t: pa.Table) -> pa.Table:
        rev = t.column("rev").to_numpy(zero_copy_only=False)
        return pa.table({"total_rev": [float(rev.sum())],
                         "n_rows": [np.int64(len(rev))]})

    tot = li.map_batches(totals, batch_format="pyarrow").to_pandas()

    promo_parts = read_testdata(sf_dir, "part",
                                columns=["p_partkey", "p_type"]) \
        .map_batches(lambda df: df[df.p_type == "PROMO"][["p_partkey"]],
                     batch_format="pandas")
    pj = _dsjoin(li, promo_parts, on=("l_partkey",), right_on=("p_partkey",))
    pdf = pj.map_batches(
        lambda t: pa.table({"promo_rev": [float(
            t.column("rev").to_numpy(zero_copy_only=False).sum())]}),
        batch_format="pyarrow").to_pandas()
    promo_rev, total_rev = pdf.promo_rev.sum(), tot.total_rev.sum()
    df = tot
    return pd.DataFrame({
        "promo_pct": [round(100.0 * promo_rev / total_rev, 6)],
        "promo_rev": [round(promo_rev, 4)],
        "total_rev": [round(total_rev, 4)],
        "n_rows": [np.int64(df.n_rows.sum())],
    })


def q18_large_orders(sf_dir: str, min_qty: float = 300.0):
    """TPC-H Q18-shaped large-volume orders: HAVING on a fact-sized
    distributed aggregate FEEDING two hash-partition joins. sum(l_quantity)
    per order is a two-stage hash aggregate; the HAVING filter runs
    distributed on the (already small) aggregate, and only qualifying
    orders flow into orders ⋈ customer — neither fact table is ever
    gathered to the driver. Final top-100 is a driver sort of the tiny
    HAVING survivors."""
    li = read_testdata(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    agg = _preagg(li, ["l_orderkey"], [("sum_qty", "l_quantity", "sum")])

    def having(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.sum_qty > min_qty]
        return df.rename(columns={"l_orderkey": "o_orderkey"})

    big = agg.map_batches(having, batch_format="pandas")
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey", "o_totalprice",
                                    "o_orderdate"])
    joined = _dsjoin(big, orders, on=("o_orderkey",))
    cust = read_testdata(sf_dir, "customer", columns=["c_custkey", "c_name"])
    joined = _dsjoin(joined, cust, on=("o_custkey",), right_on=("c_custkey",))
    df = joined.to_pandas()  # ≤ HAVING survivors: tiny by construction
    df["o_orderdate"] = df.o_orderdate.dt.strftime("%Y-%m-%d")
    df["sum_qty"] = df.sum_qty.round(4)
    df = df.sort_values(["o_totalprice", "o_orderkey"],
                        ascending=[False, True]).head(100)
    return df[["c_name", "o_custkey", "o_orderkey", "o_orderdate",
               "o_totalprice", "sum_qty"]].reset_index(drop=True)


def customers_inactive_1997(sf_dir: str):
    """Distributed ANTI-join (NOT EXISTS): customers with no 1997 order,
    aggregated per nation. The order side is date-filtered then deduped
    per block BEFORE the shuffle (the anti probe needs key presence, not
    multiplicity), and Ray's hash-partition ``left_anti`` join does the
    rest — the complement of q4's EXISTS semi-join."""
    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_nationkey", "c_acctbal"])
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        _ts_filter("o_orderdate", "greater_equal", "1997-01-01"),
        batch_format="pyarrow").map_batches(
        _ts_filter("o_orderdate", "less", "1998-01-01"),
        batch_format="pyarrow")

    def block_keys(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_custkey": df.o_custkey.unique()})

    keys = orders.map_batches(block_keys, batch_format="pandas")
    inactive = _dsjoin(cust, keys, on=("c_custkey",),
                       right_on=("o_custkey",), join_type="left_anti")
    agg = _preagg(inactive, ["c_nationkey"], [
        ("n_customers", None, "count"),
        ("sum_acctbal", "c_acctbal", "sum"),
    ])
    df = agg.to_pandas()
    df["sum_acctbal"] = df["sum_acctbal"].round(4)
    return df


def lineitem_corr_stats(sf_dir: str):
    """Per-flag Pearson correlation + sample covariance of (quantity,
    extendedprice): a MULTI-MOMENT mergeable aggregate done as TWO passes —
    pass 1 aggregates (n, Σx, Σy) per group; the 3-row means table is
    broadcast into pass 2, which sums CENTERED products (no big-number
    cancellation, so the result matches DuckDB's numerically-stable
    corr()/covar_samp() within rounding). The partials pattern is the same
    exact-merge family as A4 (rasterio_utils.py:257-296)."""
    cols = ["l_returnflag", "l_quantity", "l_extendedprice"]
    li = read_testdata(sf_dir, "lineitem", columns=cols)
    m1 = _preagg(li, ["l_returnflag"], [
        ("n_rows", None, "count"),
        ("sx", "l_quantity", "sum"),
        ("sy", "l_extendedprice", "sum"),
    ]).to_pandas()
    means = {r.l_returnflag: (r.sx / r.n_rows, r.sy / r.n_rows)
             for r in m1.itertuples()}

    def centered(df: pd.DataFrame) -> pd.DataFrame:
        mx = df.l_returnflag.map({k: v[0] for k, v in means.items()})
        my = df.l_returnflag.map({k: v[1] for k, v in means.items()})
        dx = df.l_quantity - mx
        dy = df.l_extendedprice - my
        return pd.DataFrame({"l_returnflag": df.l_returnflag,
                             "cxx": dx * dx, "cyy": dy * dy, "cxy": dx * dy})

    m2 = _preagg(li.map_batches(centered, batch_format="pandas"),
                 ["l_returnflag"], [
        ("cxx", "cxx", "sum"), ("cyy", "cyy", "sum"), ("cxy", "cxy", "sum"),
    ]).to_pandas()
    df = m1.merge(m2, on="l_returnflag")
    n = df.n_rows.astype(np.float64)
    return pd.DataFrame({
        "l_returnflag": df.l_returnflag,
        "n_rows": df.n_rows.astype(np.int64),
        "corr_qty_price": (df.cxy / np.sqrt(df.cxx * df.cyy)).round(6),
        "covar_qty_price": (df.cxy / (n - 1.0)).round(4),
    })


# ------------------------------------------------------------ events


def events_hourly(sf_dir: str):
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts", "value"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df["hour"] = df.ts.dt.floor("h").dt.strftime("%Y-%m-%d %H:%M:%S")
        return df[["event_type", "hour", "value"]]

    agg = _preagg(ev.map_batches(tag, batch_format="pandas"),
                  ["event_type", "hour"], [
        ("n_events", None, "count"),
        ("sum_value", "value", "sum"),
    ])
    df = agg.to_pandas()
    df["avg_value"] = (df["sum_value"] / df["n_events"]).round(6)
    df["sum_value"] = df["sum_value"].round(4)
    return df


def events_user_daily(sf_dir: str):
    """Tumbling 1-day window per user (streaming-shaped → groupby window key,
    ray_guide 'Streaming-shaped workloads')."""
    ev = read_testdata(sf_dir, "events", columns=["user_id", "ts", "value"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df["day"] = df.ts.dt.floor("D").dt.strftime("%Y-%m-%d")
        return df[["user_id", "day", "value"]]

    agg = _preagg(ev.map_batches(tag, batch_format="pandas"),
                  ["user_id", "day"], [
        ("n_events", None, "count"),
        ("sum_value", "value", "sum"),
    ])
    df = agg.to_pandas()
    df["sum_value"] = df["sum_value"].round(4)
    return df


def events_rollup(sf_dir: str):
    """GROUPING-SETS / ROLLUP over (event_type, day): ONE distributed pass
    computes the finest aggregate; the coarser levels (per-type, grand
    total) are derived from the finest result — the standard rollup
    optimization, since the finest table is tiny (types × days) and counts
    re-aggregate exactly. 'ALL' marks the rolled-up dimension."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts", "value"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df["day"] = df.ts.dt.floor("D").dt.strftime("%Y-%m-%d")
        return df[["event_type", "day", "value"]]

    finest = _preagg(ev.map_batches(tag, batch_format="pandas"),
                     ["event_type", "day"], [
        ("n_events", None, "count"),
        ("sum_value", "value", "sum"),
    ]).to_pandas()
    per_type = (finest.groupby("event_type", as_index=False)
                .agg(n_events=("n_events", "sum"),
                     sum_value=("sum_value", "sum")))
    per_type["day"] = "ALL"
    grand = pd.DataFrame({"event_type": ["ALL"], "day": ["ALL"],
                          "n_events": [finest.n_events.sum()],
                          "sum_value": [finest.sum_value.sum()]})
    out = pd.concat([finest, per_type, grand], ignore_index=True)
    out["n_events"] = out["n_events"].astype(np.int64)
    out["sum_value"] = out["sum_value"].round(4)
    return out[["event_type", "day", "n_events", "sum_value"]]


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot(sf_dir: str):
    """PIVOT (long → wide conditional aggregation): one row per day with a
    count column per event type plus purchase revenue. The pivot happens
    INSIDE map_batches as vectorized indicator columns, so the shuffle is
    the same one-row-per-(day × block) partial-aggregate exchange — no
    per-type passes, no driver loop."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts", "value"])

    def indicators(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {"day": df.ts.dt.floor("D").dt.strftime("%Y-%m-%d")})
        for t in _EVENT_TYPES:
            out[f"n_{t}"] = (df.event_type == t).to_numpy(np.int64)
        out["purchase_value"] = np.where(
            df.event_type.to_numpy() == "purchase", df.value.to_numpy(), 0.0)
        return out

    spec = [(f"n_{t}", f"n_{t}", "sum") for t in _EVENT_TYPES]
    spec.append(("purchase_value", "purchase_value", "sum"))
    agg = _preagg(ev.map_batches(indicators, batch_format="pandas"),
                  ["day"], spec)
    df = agg.to_pandas()
    df["purchase_value"] = df["purchase_value"].round(4)
    return df


def events_sliding_window(sf_dir: str, win_min: int = 60, hop_min: int = 15):
    """SLIDING (hopping) window aggregate: 60-minute windows advancing every
    15 minutes. Each event is replicated into its win/hop = 4 windows with
    vectorized integer arithmetic INSIDE map_batches (a flat_map done as one
    numpy tile — no Python row loop, no UDF-per-window), then the standard
    partial-aggregate shuffle keys on window_start. Integer epoch µs math on
    both engines → bit-exact SQL parity."""
    n_rep = win_min // hop_min
    hop_us = hop_min * 60 * 1_000_000
    ev = read_testdata(sf_dir, "events", columns=["ts", "value"])

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        base = df.ts.to_numpy(np.int64) // hop_us  # datetime64[us] → µs
        j = np.repeat(np.arange(n_rep, dtype=np.int64), len(df))
        starts = (np.tile(base, n_rep) - j) * hop_us
        return pd.DataFrame({
            "window_start": pd.to_datetime(starts, unit="us")
                              .strftime("%Y-%m-%d %H:%M:%S"),
            "value": np.tile(df.value.to_numpy(np.float64), n_rep),
        })

    agg = _preagg(ev.map_batches(replicate, batch_format="pandas"),
                  ["window_start"], [
        ("n_events", None, "count"),
        ("sum_value", "value", "sum"),
    ])
    df = agg.to_pandas()
    df["sum_value"] = df["sum_value"].round(4)
    return df


def events_top_values(sf_dir: str):
    ev = read_testdata(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def rnd(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(t.schema.get_field_index("value"), "value",
                            pc.round(t.column("value"), ndigits=6))

    ev = ev.map_batches(rnd, batch_format="pyarrow")

    # per-block partial top-k first: the global sort then moves only
    # n_blocks × k rows instead of the whole table (O1/O2 at scale — a full
    # distributed sort for a top-100 is an all-to-all on every row)
    def topk_block(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = min(100, t.num_rows)
        idx = pc.select_k_unstable(
            t, k=k, sort_keys=[("value", "descending"),
                               ("event_id", "ascending")])
        return t.take(idx)

    ev = ev.map_batches(topk_block, batch_format="pyarrow")
    return ev.sort(["value", "event_id"], descending=[True, False]).limit(100)


def events_value_percentiles(sf_dir: str):
    """Exact distributed per-group percentiles (the A4 percentile family at
    corpus level, over the events stream): p25/p50/p75 of value per
    event_type via groupby().map_groups — a group is one type's value
    column, quantiled with the same linear interpolation DuckDB's
    quantile_cont uses, so the SQL oracle is value-exact after round(·, 6).
    At extreme group cardinality swap the in-group exact quantile for
    t-digest partials (the same approximation boundary documented for
    band_stats_by_class)."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "value"])

    def grp(g: pd.DataFrame) -> pd.DataFrame:
        q = g.value.round(6).quantile([0.25, 0.5, 0.75])
        return pd.DataFrame({
            "event_type": [g.event_type.iloc[0]],
            "n": [np.int64(len(g))],
            "p25": [round(float(q.iloc[0]), 6)],
            "p50": [round(float(q.iloc[1]), 6)],
            "p75": [round(float(q.iloc[2]), 6)],
        })

    return ev.groupby("event_type").map_groups(grp, batch_format="pandas")


def events_value_percentiles_tdigest(sf_dir: str, delta: float = 400.0):
    """Approximate per-group percentiles via mergeable t-digest partials
    (functions/tdigest.py) — the documented extreme-cardinality scale path
    of events_value_percentiles: the shuffle carries O(delta) centroids per
    (event_type × block) instead of every row, so a group bigger than one
    worker's heap still quantiles. Approximate by design → rows-only; rank
    error vs the exact quantile is pinned in tests/test_text.py."""
    from ..functions import tdigest as td

    ev = read_testdata(sf_dir, "events", columns=["event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            means, weights = td.build(g.value.to_numpy(np.float64),
                                      delta=delta)
            rows.append({"event_type": et, "means": means.tolist(),
                         "weights": weights.tolist()})
        return pd.DataFrame(rows)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        parts = [(np.asarray(m), np.asarray(w))
                 for m, w in zip(g.means, g.weights)]
        means, weights = td.merge(parts, delta=delta)
        p = td.quantile(means, weights, np.array([0.25, 0.5, 0.75]))
        return pd.DataFrame({
            "event_type": [g.event_type.iloc[0]],
            "n": [np.int64(round(weights.sum()))],
            "p25": [round(float(p[0]), 6)],
            "p50": [round(float(p[1]), 6)],
            "p75": [round(float(p[2]), 6)],
        })

    return (ev.map_batches(partial, batch_format="pandas", batch_size=None)
            .groupby("event_type").map_groups(final, batch_format="pandas"))


def events_type_minmax(sf_dir: str):
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        df["ts_s"] = df.ts.dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        return df[["event_type", "ts_s"]]

    agg = _preagg(ev.map_batches(tag, batch_format="pandas"), ["event_type"], [
        ("n", None, "count"),
        ("first_ts", "ts_s", "min"),
        ("last_ts", "ts_s", "max"),
    ])
    return agg


# ------------------------------------------- streaming-window operators
#
# Session windows, as-of/range joins and ordered per-key windows are the
# reference's "streaming" surface re-expressed Ray-Data-first: ONE shuffle
# keyed on the stream key (user_id), then vectorized numpy over each key's
# (bounded) history inside groupby().map_groups. Outputs are integer-only or
# order-insensitive (max) so the DuckDB oracles match bit-for-bit.


def _epoch_us(s: pd.Series) -> np.ndarray:
    return s.to_numpy(dtype="datetime64[us]").astype(np.int64)


def _daily_type_counts(sf_dir: str) -> pd.DataFrame:
    """The per-(event_type, dkey) DAILY count census (dkey = epoch day), c
    = COUNT(*): ONE `_preagg` over the events; the driver frame is bounded
    by types × days (calendar-bounded, not corpus-bounded)."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts"])
    DAY = 86_400_000_000

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df.event_type.to_numpy(),
            "dkey": (_epoch_us(df.ts) // DAY).astype(np.int64)})

    return _preagg(ev.map_batches(keyed, batch_format="pandas"),
                   ["event_type", "dkey"],
                   [("c", None, "count")]).to_pandas()


def events_sessionize(sf_dir: str, gap_min: int = 30):
    """Session windows per user (a gap > 30 min opens a new session) —
    gaps-and-islands over the events stream. At 100 TB a single user's
    history still fits a group (stream keys are bounded); the one shuffle
    is keyed on user_id."""
    ev = read_testdata(sf_dir, "events", columns=["user_id", "ts"])
    gap_us = gap_min * 60_000_000

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame(columns=["user_id", "n_sessions", "n_events",
                                         "total_session_us",
                                         "max_session_events"])
        us = np.sort(_epoch_us(g.ts))
        new = np.ones(len(us), dtype=bool)
        new[1:] = np.diff(us) > gap_us
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(us)]
        return pd.DataFrame({
            "user_id": [int(g.user_id.iloc[0])],
            "n_sessions": [int(len(starts))],
            "n_events": [int(len(us))],
            "total_session_us": [int((us[ends - 1] - us[starts]).sum())],
            "max_session_events": [int((ends - starts).max())],
        })

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


def events_asof_purchase(sf_dir: str):
    """As-of + range join of every event against the user's 'purchase'
    stream: count and last-timestamp of strictly-earlier purchases, plus
    the [ts-1h, ts) range-join count — sort + searchsorted inside the
    user_id shuffle (no per-row Python). Oracle: equivalent inequality
    join in SQL."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "user_id", "ts", "event_type"])
    HOUR = 3_600_000_000

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        order = np.argsort(us, kind="stable")
        us = us[order]
        ref = us[g.event_type.to_numpy()[order] == "purchase"]
        n_prior = np.searchsorted(ref, us, side="left")
        n_1h = n_prior - np.searchsorted(ref, us - HOUR, side="left")
        last = np.where(n_prior > 0, ref[np.maximum(n_prior - 1, 0)], -1)
        return pd.DataFrame({
            "event_id": g.event_id.to_numpy()[order],
            "n_prior_purchase": n_prior.astype(np.int64),
            "n_purchase_1h": n_1h.astype(np.int64),
            "last_purchase_us": last.astype(np.int64)})

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


def events_user_lag(sf_dir: str):
    """Per-row LAG window function: µs gap to the same user's previous
    event (−1 for the first). One shuffle keyed on user_id, vectorized
    np.diff per group — the Ray-Data form of
    LAG(...) OVER (PARTITION BY user_id ORDER BY ts, event_id).
    Integer-µs arithmetic on both engines → bit-exact SQL parity."""
    ev = read_testdata(sf_dir, "events", columns=["event_id", "user_id",
                                                  "ts"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        order = np.lexsort((g.event_id.to_numpy(), us))
        gap = np.empty(len(us), dtype=np.int64)
        gap[0] = -1
        gap[1:] = np.diff(us[order])
        return pd.DataFrame({"event_id": g.event_id.to_numpy()[order],
                             "user_id": g.user_id.to_numpy(),
                             "gap_us": gap})

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


def events_value_cume_dist(sf_dir: str):
    """Per-row CUME_DIST within event_type: fraction of the group's rows
    with value ≤ this row's (ties inclusive — exactly SQL's
    CUME_DIST() OVER (PARTITION BY event_type ORDER BY round(value, 6))).
    One shuffle keyed on event_type, then one sort + searchsorted per
    group. Scale note: like events_value_percentiles this holds a group in
    one call; beyond worker heap, swap in broadcast t-digest CDFs
    (functions/tdigest.py) at the documented approximation boundary."""
    ev = read_testdata(sf_dir, "events", columns=["event_id", "event_type",
                                                  "value"])

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        v = g.value.round(6).to_numpy(np.float64)
        sv = np.sort(v)
        cume = np.searchsorted(sv, v, side="right") / float(len(v))
        return pd.DataFrame({"event_id": g.event_id.to_numpy(),
                             "event_type": g.event_type.to_numpy(),
                             "cume": np.round(cume, 6)})

    return ev.groupby("event_type").map_groups(per_type,
                                               batch_format="pandas")


def events_rolling_max(sf_dir: str, window: int = 10):
    """Trailing-10-row rolling max of value per user ordered by ts — a
    per-key ordered window aggregate. max is order-insensitive, so after
    input rounding the result is bit-exact vs SQL."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "user_id", "ts", "value"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(_epoch_us(g.ts), kind="stable")
        v = pd.Series(g.value.to_numpy()[order].round(6))
        return pd.DataFrame({
            "event_id": g.event_id.to_numpy()[order],
            "roll_max10": v.rolling(window, min_periods=1).max().to_numpy()})

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


def events_topk_per_type(sf_dir: str, k: int = 3):
    """Top-k per group via per-block partial top-k then a tiny final
    per-group top-k: the shuffle moves ≤ n_blocks × k rows per group, not
    the whole table (the distributed form of ROW_NUMBER() ≤ k)."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "event_type", "value"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(value=df.value.round(6))
        df = df.sort_values(["value", "event_id"], ascending=[False, True])
        return df.groupby("event_type", sort=False).head(k)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"],
                          ascending=[False, True]).head(k)
        g = g.assign(rnk=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["event_type", "rnk", "event_id", "value"]]

    return (ev.map_batches(part, batch_format="pandas")
            .groupby("event_type").map_groups(final, batch_format="pandas"))


def events_stratified_sample(sf_dir: str, n: int = 50):
    """Deterministic STRATIFIED sampling: the n events per event_type with
    the lexicographically smallest salted md5 — a balanced, reproducible
    subset (the class-balancing step of a training-data pipeline), stable
    across runs, partitionings and cluster sizes. Per-block partial top-n
    (the shuffle carries ≤ n × types × blocks rows, never the stream) →
    per-type final; the hex-string sort key is recomputed identically by
    DuckDB's md5 so the oracle is value-exact."""
    import hashlib

    ev = read_testdata(sf_dir, "events", columns=["event_id", "event_type"])

    def tag_topn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hx"] = [hashlib.md5(f"samp:{int(e)}".encode()).hexdigest()
                    for e in df.event_id]
        return (df.sort_values(["hx", "event_id"])
                .groupby("event_type", sort=False).head(n))

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hx", "event_id"]).head(n)
        return pd.DataFrame({"event_id": g.event_id.to_numpy(),
                             "event_type": g.event_type.to_numpy(),
                             "rnk": np.arange(1, len(g) + 1,
                                              dtype=np.int64)})

    return (ev.map_batches(tag_topn, batch_format="pandas",
                           batch_size=None)
            .groupby("event_type").map_groups(per_type,
                                              batch_format="pandas"))


def events_user_setops(sf_dir: str):
    """Distributed set operations (INTERSECT / EXCEPT / UNION over user
    sets): which users purchased, errored, did both, or either. Per-block
    flag dedup → one user-keyed max-flag aggregate (the shuffle carries one
    row per user × block, not one per event) → tiny flag-sum summary."""
    ev = read_testdata(sf_dir, "events", columns=["user_id", "event_type"])

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "user_id": df.user_id,
            "p": (df.event_type == "purchase").to_numpy(np.int64),
            "e": (df.event_type == "error").to_numpy(np.int64),
        })
        return out.groupby("user_id", as_index=False, sort=False).max()

    per_user = _preagg(ev.map_batches(flags, batch_format="pandas"),
                       ["user_id"], [("p", "p", "max"), ("e", "e", "max")])

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        p, e = df.p.to_numpy(np.int64), df.e.to_numpy(np.int64)
        return pd.DataFrame({
            "n_purchase_users": [np.int64(p.sum())],
            "n_error_users": [np.int64(e.sum())],
            "n_both": [np.int64((p & e).sum())],
            "n_purchase_only": [np.int64((p & (1 - e)).sum())],
            "n_error_only": [np.int64((e & (1 - p)).sum())],
            "n_either": [np.int64((p | e).sum())],
        })

    parts = per_user.map_batches(summarize, batch_format="pandas",
                                 batch_size=None).to_pandas()
    return parts.sum().to_frame().T.astype(np.int64)


def events_latest_per_user(sf_dir: str):
    """Snapshot compaction: keep each user's LATEST event (max (ts,
    event_id)) — the 'latest version wins' dedup of CDC/crawl pipelines.
    Two-stage argmax: per-block latest-per-user partials shrink the shuffle
    to ≤ users × blocks rows, then a user-hash-partition pass picks the
    global latest — full rows ride the shuffle only after per-block
    compaction."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "user_id", "ts",
                                "event_type", "value"])

    def latest_block(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["ts", "event_id"], kind="stable")
                  .drop_duplicates("user_id", keep="last"))

    part = ev.map_batches(latest_block, batch_format="pandas",
                          batch_size=None)
    import ray

    npart = max(8, int(ray.cluster_resources().get("CPU", 8)))

    def pk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_pk"] = (df.user_id.to_numpy() % npart).astype("int32")
        return df

    def latest_final(df: pd.DataFrame) -> pd.DataFrame:
        return latest_block(df.drop(columns=["_pk"]))

    return (part.map_batches(pk, batch_format="pandas")
            .groupby("_pk").map_groups(latest_final, batch_format="pandas"))


def events_distinct_users(sf_dir: str):
    """EXACT distinct users per event_type (the companion to the HLL
    estimate): two-stage — per-block (event_type, user_id) dedup partials
    shrink the shuffle to unique pairs, then a hash-partition dedup+count.
    The shuffle moves ≤ unique-pairs rows (bounded by users × types), never
    the raw event stream."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "user_id"])

    def dedup_block(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["event_type", "user_id"])

    pairs = ev.map_batches(dedup_block, batch_format="pandas",
                           batch_size=None)
    # hash-partition on user_id so each partition dedups globally, then sum
    # per-type partial counts (tiny second shuffle: n_types × n_partitions)
    import ray

    npart = max(8, int(ray.cluster_resources().get("CPU", 8)))

    def pk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["_pk"] = (df.user_id.to_numpy() % npart).astype("int32")
        return df

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        u = df.drop(columns=["_pk"]).drop_duplicates(["event_type", "user_id"])
        g = u.groupby("event_type", sort=False).size()
        return pd.DataFrame({"event_type": g.index, "n_part": g.to_numpy()})

    parts = (pairs.map_batches(pk, batch_format="pandas")
             .groupby("_pk").map_groups(count_part, batch_format="pandas"))
    return _preagg(parts, ["event_type"], [("n_users", "n_part", "sum")])


def events_zscore_outliers(sf_dir: str, z: float = 3.0):
    """Feature-normalization outlier filter: events whose value is more
    than z standard deviations from their event_type's mean. Two passes —
    pass 1 aggregates (n, Σv, Σv²) per type (3-float partials, no row
    shuffle), the 5-row stats table is broadcast into pass 2's vectorized
    filter. Population std via the same algebra DuckDB evaluates in the
    oracle CTE, and the z-threshold compares ROUNDED z on both engines so
    the boundary is identical."""
    ev = read_testdata(sf_dir, "events", columns=["event_id", "event_type",
                                                  "value"])

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": df.event_type, "v": df.value,
                             "v2": df.value * df.value})

    m = _preagg(ev.map_batches(derive, batch_format="pandas"),
                ["event_type"], [
        ("n", None, "count"), ("sv", "v", "sum"), ("sv2", "v2", "sum"),
    ]).to_pandas()
    mean = (m.sv / m.n)
    std = np.sqrt(m.sv2 / m.n - mean * mean)
    stats = {t: (mu, sd) for t, mu, sd in zip(m.event_type, mean, std)}

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        mu = df.event_type.map({t: v[0] for t, v in stats.items()})
        sd = df.event_type.map({t: v[1] for t, v in stats.items()})
        zs = ((df.value - mu) / sd).round(6)
        out = pd.DataFrame({"event_id": df.event_id,
                            "event_type": df.event_type,
                            "zscore": zs})
        return out[np.abs(zs.to_numpy()) > z]

    return ev.map_batches(flag, batch_format="pandas")


def events_hll_users(sf_dir: str, p: int = 12):
    """Approximate distinct users per event_type via HyperLogLog: per-block
    partial registers (one 4 KB blob per group × block through the shuffle —
    NOT one row per key, the scale path for COUNT DISTINCT at 100 TB) merged
    by elementwise max in map_groups. Deterministic; ±1.6% at p=12; pytest
    pins the error bound against the exact distinct (no SQL oracle — a
    sketch estimate is not SQL-reproducible)."""
    from ..functions import hll

    ev = read_testdata(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = [{"event_type": t,
                 "reg": hll.registers(g.user_id.to_numpy(), p).tobytes()}
                for t, g in df.groupby("event_type", sort=False)]
        return pd.DataFrame(rows, columns=["event_type", "reg"])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        reg = np.zeros(1 << p, dtype=np.uint8)
        for b in g.reg:
            reg = hll.merge(reg, np.frombuffer(b, dtype=np.uint8))
        return pd.DataFrame({"event_type": [g.event_type.iloc[0]],
                             "approx_users": [int(round(hll.estimate(reg)))]})

    return (ev.map_batches(partial, batch_format="pandas", batch_size=None)
            .groupby("event_type").map_groups(final, batch_format="pandas"))


# --------------------------------------------------------- documents


def doc_train_split(sf_dir: str):
    """Deterministic hash-based train/val/test split (80/10/10) — the
    dataset-splitting step of a training-data pipeline. Salted md5 of the
    doc id → bucket ∈ [0,100); embarrassingly parallel (no shuffle),
    reproducible across runs, partitionings and cluster sizes, and exactly
    recomputable in SQL (DuckDB md5). md5-per-id is a bounded metadata pass
    (~1 µs/row), not a pixel-path kernel."""
    import hashlib

    docs = read_testdata(sf_dir, "documents", columns=["doc_id"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        b = np.array(
            [int(hashlib.md5(f"split:{int(d)}".encode()).hexdigest()[:8], 16)
             % 100 for d in df.doc_id], dtype=np.int64)
        return pd.DataFrame({
            "doc_id": df.doc_id.to_numpy(),
            "split": np.where(b < 80, "train", np.where(b < 90, "val", "test")),
            "bucket": b})

    return docs.map_batches(tag, batch_format="pandas")


def doc_exact_dedup(sf_dir: str):
    """Exact dedup by content hash: keep min doc_id per text (A7 semantics —
    the reference's SHA-256 checksum dedup, create-tables.sql:253)."""
    from ..functions.textkernels import md5_hex

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def h(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"text_md5": md5_hex(df.text), "doc_id": df.doc_id})

    agg = _preagg(docs.map_batches(h, batch_format="pandas"), ["text_md5"], [
        ("keep_doc_id", "doc_id", "min"),
        ("dup_count", None, "count"),
    ])
    return agg


def doc_token_counts(sf_dir: str):
    from ..functions.textkernels import token_count

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df.doc_id, "n_tokens": token_count(df.text)})

    return docs.map_batches(f, batch_format="pandas")


def doc_quality_counts(sf_dir: str):
    from ..functions.textkernels import quality_counts

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": df.doc_id.to_numpy()}
        out.update(quality_counts(df.text))
        return pd.DataFrame(out)

    return docs.map_batches(f, batch_format="pandas")


def doc_lang_stats(sf_dir: str):
    docs = read_testdata(sf_dir, "documents", columns=["lang", "n_chars"])
    agg = _preagg(docs, ["lang"], [
        ("n_docs", None, "count"),
        ("sum_chars", "n_chars", "sum"),
        ("max_chars", "n_chars", "max"),
    ])
    df = agg.to_pandas()
    df["avg_chars"] = (df["sum_chars"] / df["n_docs"]).round(6)
    return df


def doc_source_stats(sf_dir: str):
    docs = read_testdata(sf_dir, "documents", columns=["source", "n_chars"])
    return _preagg(docs, ["source"], [
        ("n_docs", None, "count"),
        ("min_chars", "n_chars", "min"),
        ("max_chars", "n_chars", "max"),
    ])


def doc_quality_scores(sf_dir: str):
    """Composite quality score + n-gram language guess per doc; value-exact
    SQL oracle (the heuristic is closed-form: length/digit/stopword ratios,
    round(·,6) on both engines)."""
    from ..functions.textkernels import lang_id, quality_score

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df.doc_id,
            "quality": quality_score(df.text).round(6),
            "lang_guess": lang_id(df.text),
        })

    return docs.map_batches(f, batch_format="pandas")


# -------------------------------------------------------- embeddings


def _query_vec(sf_dir):
    """Min-vec_id query vector WITHOUT reading the embedding column for the
    whole table: scan only the vec_id column, then a predicate-pushdown read
    of the single matching row."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    ids = pq.read_table(path, columns=["vec_id"]).column("vec_id")
    qid = pc.min(ids).as_py()
    row = pads.dataset(path).to_table(filter=pads.field("vec_id") == qid)
    return int(qid), np.asarray(row.column("embedding")[0].as_py(),
                                dtype=np.float64)


def ann_topk_cosine(sf_dir: str):
    """Brute-force cosine top-10 vs the min-vec_id query vector; the baseline
    ANN path (numpy matmul per batch against a broadcast query)."""
    qid, q = _query_vec(sf_dir)
    qnorm = np.sqrt((q * q).sum())
    emb = read_testdata(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        M = np.stack(df.embedding.to_numpy()).astype(np.float64)
        norms = np.sqrt((M * M).sum(axis=1))
        den = np.where(norms == 0, 1.0, norms) * qnorm
        sims = np.round((M @ q) / den, 6)
        out = pd.DataFrame({"vec_id": df.vec_id, "cosine_sim": sims})
        out = out[out.vec_id != qid]
        # per-batch partial top-k under the FINAL total order — the global
        # top-10 is a subset of the per-batch top-10s, so only ≤10 rows per
        # block reach the driver merge (round-1 fix: no full-score gather)
        return out.sort_values(["cosine_sim", "vec_id"],
                               ascending=[False, True]).head(10)

    parts = emb.map_batches(score, batch_format="pandas").to_pandas()
    df = parts.sort_values(["cosine_sim", "vec_id"],
                           ascending=[False, True]).head(10)
    return df.reset_index(drop=True)


def ann_knn_join(sf_dir: str, n_queries: int = 32, k: int = 5):
    """Distributed k-NN JOIN: top-k cosine neighbors for EACH of the
    n_queries lowest-vec_id query vectors (the retrieval-augmentation /
    cluster-assignment primitive, vs ann_topk_cosine's single query).

    The query matrix is broadcast once (ray.put, read per task — never
    re-shipped per batch); each batch does ONE (batch × nq) matmul and emits
    its per-query partial top-k under the final total order (rounded sim
    desc, neighbor_id asc), so the combine shuffle moves ≤ n_blocks·nq·k
    rows regardless of corpus size; a per-query map_groups merge yields the
    global top-k with ranks. Scales as a single corpus scan + tiny shuffle."""
    import ray

    emb = read_testdata(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    # query set = n_queries smallest vec_ids: per-block partial min-k (≤ nq
    # rows per block reach the driver) instead of a global sort+limit
    def qpart(df: pd.DataFrame) -> pd.DataFrame:
        return df.nsmallest(n_queries, "vec_id")

    qdf = (emb.map_batches(qpart, batch_format="pandas", batch_size=None)
           .to_pandas().nsmallest(n_queries, "vec_id"))
    qids = qdf.vec_id.to_numpy().astype(np.int64)
    Q = np.stack(qdf.embedding.to_numpy()).astype(np.float64)
    qnorm = np.sqrt((Q * Q).sum(1))
    qnorm = np.where(qnorm == 0, 1.0, qnorm)
    q_ref = ray.put((qids, Q, qnorm))

    def score(df: pd.DataFrame, q_ref=q_ref) -> pd.DataFrame:
        qids, Q, qnorm = (ray.get(q_ref)
                          if isinstance(q_ref, ray.ObjectRef) else q_ref)
        M = np.stack(df.embedding.to_numpy()).astype(np.float64)
        norms = np.sqrt((M * M).sum(axis=1))
        norms = np.where(norms == 0, 1.0, norms)
        # same formulation as ann_topk_cosine (dot / (|e|·|q|)) so rounding
        # at 1e-6 agrees bit-for-bit with DuckDB list_cosine_similarity
        S = np.round((M @ Q.T) / (norms[:, None] * qnorm[None, :]), 6)
        vid = df.vec_id.to_numpy().astype(np.int64)
        outs = []
        for j in range(len(qids)):
            mask = vid != qids[j]
            o = pd.DataFrame({"query_id": qids[j],
                              "neighbor_id": vid[mask],
                              "cosine_sim": S[mask, j]})
            outs.append(o.sort_values(["cosine_sim", "neighbor_id"],
                                      ascending=[False, True]).head(k))
        return pd.concat(outs, ignore_index=True)

    parts = emb.map_batches(score, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cosine_sim", "neighbor_id"],
                          ascending=[False, True]).head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return parts.groupby("query_id").map_groups(merge, batch_format="pandas")


def embedding_label_stats(sf_dir: str):
    emb = read_testdata(sf_dir, "embeddings", columns=["label"])
    return _preagg(emb, ["label"], [("n_vecs", None, "count")])


def ann_ivf_topk(sf_dir: str):
    """IVF (inverted-file) ANN — the scale path; recall vs brute force is
    asserted in tests/test_ann.py (approximate by design → rows-only)."""
    from ..stages.ann import ann_ivf_topk as _ivf

    return _ivf(sf_dir)


def ann_lsh_topk(sf_dir: str):
    """LSH-bucketed ANN — the second scale path (sign-random-projection
    buckets, multi-probe pruned search; no training pass). Approximate by
    design → rows-only; recall vs brute force pinned in tests."""
    from ..stages.ann import ann_lsh_topk as _lsh

    return _lsh(sf_dir)


def ann_pq_topk(sf_dir: str):
    """Product-quantization ANN — the memory-compression scale path (16
    uint8 codes per 64-dim vector = 16× smaller scan side; ADC lookup-table
    scoring + exact re-rank of a bounded candidate set). Approximate by
    design → rows-only; recall vs brute force pinned in tests."""
    from ..stages.ann import ann_pq_topk as _pq

    return _pq(sf_dir)


def audio_stats(sf_dir: str):
    """Actor-pool audio decode over the synthetic audio table (multimodal
    plumbing: GA01 container → sample_rate / duration / RMS per clip; poison
    blobs surface as decode_ok=False rows). Rows-only for the driver;
    value semantics pinned in tests/test_ann_multimodal.py."""
    import ray.data as rd

    from ..stages.multimodal import audio_stats_dataset

    audio_dir = synth.ensure_audio(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(audio_dir, columns=["audio_id", "bytes"])
    out = audio_stats_dataset(ds)

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df["duration_s"] = np.round(df["duration_s"], 6)
        df["rms"] = np.round(df["rms"], 6)
        return df

    return out.map_batches(rnd, batch_format="pandas")


def video_frame_sample(sf_dir: str):
    """Every-30th-frame sample over the synthetic video table, composed with
    the image decode stage: sampled frames are re-encoded as GI01 images and
    decoded again downstream (px_mean proves the frame bytes are real images).
    Flat-map shape: one row per sampled frame; corrupt clips keep one
    decode_ok=False row."""
    import ray.data as rd

    from ..stages.multimodal import ImageDecode, video_frames_dataset

    video_dir = synth.ensure_video(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(video_dir, columns=["video_id", "bytes"])
    frames = video_frames_dataset(ds, every_n=30)

    def decode_frame(df: pd.DataFrame) -> pd.DataFrame:
        dec = ImageDecode()(pd.DataFrame({
            "image_id": df["video_id"], "bytes": df["frame_bytes"]}))
        return pd.DataFrame({
            "video_id": df["video_id"].to_numpy(),
            "frame_idx": df["frame_idx"].to_numpy(),
            "w": df["w"].to_numpy(),
            "h": df["h"].to_numpy(),
            "decode_ok": df["decode_ok"].to_numpy() & dec["decode_ok"].to_numpy(),
            "px_mean": np.round(dec["px_mean"].to_numpy(), 4),
        })

    return frames.map_batches(decode_frame, batch_format="pandas")


def image_features(sf_dir: str):
    """Actor-pool feature extraction over the synthetic images table
    (multimodal plumbing: decode → 64-dim embedding per image)."""
    import ray.data as rd

    from ..stages.multimodal import image_features_dataset

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["image_id", "bytes"])
    feats = image_features_dataset(ds)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        F = np.stack(df.feature.to_numpy())
        return pd.DataFrame({
            "image_id": df.image_id,
            "decode_ok": df.decode_ok,
            "feat_norm": np.round(np.sqrt((F * F).sum(1)), 5),
            "feat_mean": np.round(F.mean(1), 6),
        })

    return feats.map_batches(explode, batch_format="pandas")


# ----------------------------------------- geo over events-derived points
# Points derived from `events` with INTEGER-ONLY / expression-identical
# arithmetic so the DuckDB oracle matches exactly:
#   lat = 50.7 + (event_id % 2900)/1000.0
#   lon = 3.0 + ((event_id // 7) % 4300)/1000.0


def _event_points(df: pd.DataFrame) -> pd.DataFrame:
    eid = df.event_id.to_numpy(dtype=np.int64)
    df = df.copy()
    df["lat"] = 50.7 + (eid % 2900) / 1000.0
    df["lon"] = 3.0 + ((eid // 7) % 4300) / 1000.0
    return df


def geo_tile_census(sf_dir: str):
    """Per-tile point census — integer tiling (the per-cell census that feeds
    the skew planner, north_rule)."""
    ev = read_testdata(sf_dir, "events", columns=["event_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        eid = df.event_id.to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "tile_x": ((eid // 7) % 4300) // 50,
            "tile_y": (eid % 2900) // 50,
        })

    return _preagg(ev.map_batches(f, batch_format="pandas"),
                   ["tile_x", "tile_y"], [("n_points", None, "count")])


_N_SYN_STATIONS = 100


def geo_knn_station(sf_dir: str):
    """k=1 nearest synthetic station under a scaled-euclidean metric whose
    expression is bit-identical in SQL; ties broken by station id. (The
    haversine kNN path is exercised by the flagship + pytest oracle; this
    query pins the join semantics under the driver's hash compare.)"""
    sid = np.arange(_N_SYN_STATIONS, dtype=np.int64)
    slat = 50.8 + ((sid * 37) % 270) / 100.0
    slon = 3.1 + ((sid * 73) % 410) / 100.0
    ev = read_testdata(sf_dir, "events", columns=["event_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lat = p.lat.to_numpy()[:, None]
        lon = p.lon.to_numpy()[:, None]
        d2 = (lat - slat[None, :]) * (lat - slat[None, :]) * 1.8 \
            + (lon - slon[None, :]) * (lon - slon[None, :])
        best = np.argmin(d2, axis=1)  # first (= lowest sid) wins ties
        return pd.DataFrame({"event_id": p.event_id, "station": sid[best]})

    return ev.map_batches(f, batch_format="pandas")


_N_RECTS = 40


def _rects():
    rid = np.arange(_N_RECTS, dtype=np.int64)
    rlon0 = 3.0 + ((rid * 97) % 350) / 100.0
    rlat0 = 50.7 + ((rid * 61) % 240) / 100.0
    w = 0.3 + (rid % 5) / 10.0
    h = 0.25 + (rid % 4) / 10.0
    return rid, rlon0, rlat0, w, h


def geo_point_in_rect(sf_dir: str):
    """PIP join against broadcast rectangles; min rect_id tie-break, −1 = no
    match (the J2 landcover-join semantics over an SQL-expressible layer)."""
    rid, rlon0, rlat0, w, h = _rects()
    ev = read_testdata(sf_dir, "events", columns=["event_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lat = p.lat.to_numpy()[:, None]
        lon = p.lon.to_numpy()[:, None]
        inside = ((lon >= rlon0[None, :]) & (lon <= (rlon0 + w)[None, :])
                  & (lat >= rlat0[None, :]) & (lat <= (rlat0 + h)[None, :]))
        first = np.where(inside.any(axis=1),
                         rid[np.argmax(inside, axis=1)], -1)
        return pd.DataFrame({"event_id": p.event_id, "rect_id": first})

    return ev.map_batches(f, batch_format="pandas")


# ------------------------------------------------- flagship (rows-only)

_FLAG_VERSION = "v8"  # bump on any semantics change: invalidates /tmp caches
# v5: orphan-spill flagship (capture/enriched ROW SETS identical to v4;
# orphan file bucketing is volume-scaled so o_*.parquet groupings may
# differ, and ops gains the orphan_resolve stage row) — regenerate so
# driver artifacts exercise the shipped code path
# v6: capture index grids stored as raw GI01 blobs (decoded grids and every
# other column identical to v5; only the index_* blob bytes change)
# v7: orphan captures are one o_0.parquet per partition; capture row set
# identical to v6
# v8: single-bin partitions are written without an exchange (enriched,
# captures and failed files byte-identical to v7); ops gains the integer
# exchanges column


def _flagship_out(sf: float) -> str:
    """Run (once, cached+resumable) the flagship at scale sf; returns out dir."""
    from . import flagship as fl

    img_dir = synth.ensure_images(sf)
    out = os.path.join(
        synth.CACHE_ROOT,
        f"flagout_{_FLAG_VERSION}_sf{sf:g}_n{synth.n_images_for_sf(sf)}")
    fl.run_flagship(img_dir, out, resume=True)
    return out


_ENRICH_SLIM = ["image_id", "capture_id", "file_class", "band", "has_gps",
                "valid", "in_nl", "h3_r5", "h3_r7", "h3_r9", "s2_cell",
                "grid_cell", "landcover_class", "landcover_confidence",
                "landcover_year", "elevation_m", "elevation_src",
                "weather_station_id", "weather_date", "tmin_c", "tmax_c",
                "caption"]


def flagship_enriched(sf_dir: str):
    """The headline pipeline (north_star): H3/S2 assign + PIP + elevation +
    kNN weather over the synthetic images table at this scale. Rows-only vs
    the driver; row-for-row parity is enforced by tests/test_flagship.py
    against the single-process reference-semantics oracle."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    return fl.read_enriched(out).select_columns(_ENRICH_SLIM)


def flagship_captures(sf_dir: str):
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    caps = fl.read_captures(out)
    keep = [c for c in caps.schema().names
            if not c.startswith("index_") and c != "part"]  # hive dir col
    return caps.select_columns(keep)


def px_histogram(sf_dir: str):
    """Corpus-wide 256-bin pixel histogram (A5, processor.py:579-598):
    per-batch np.histogram partials merged by ``_preagg`` — the
    partial+final stats pattern of rasterio_utils.py:257-296, exact."""
    import ray.data as rd

    from ..functions import codec as C

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["bytes"])

    def partial(t):
        import pyarrow as _pa

        counts = np.zeros(256, dtype=np.int64)
        for blob in t.column("bytes").to_pylist():
            px = C.decode_pixels_only(blob)
            if px is not None:
                counts += np.histogram(px, bins=256, range=(0, 65536))[0]
        return _pa.table({"bin": np.arange(256, dtype=np.int64), "count": counts})

    return _preagg(ds.map_batches(partial, batch_format="pyarrow"),
                   ["bin"], [("count", "count", "sum")])


def band_stats_by_class(sf_dir: str):
    """Corpus-level per-(file_class, band) stats with EXACT merge
    (count/sum/sumsq — fixes the reference's biased std merge,
    SURVEY §7.4-5)."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(
        ["file_class", "band", "decode_ok", "px_mean", "px_std", "w", "h"])

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.decode_ok]
        npx = df.w.astype(float) * df.h.astype(float)
        return pd.DataFrame({"file_class": df.file_class, "band": df.band,
                             "n_px": npx, "sum_px": df.px_mean * npx,
                             "sumsq_px": (df.px_std ** 2 + df.px_mean ** 2)
                             * npx})

    df = _preagg(ds.map_batches(moments, batch_format="pandas"),
                 ["file_class", "band"],
                 [("n_px", "n_px", "sum"), ("sum_px", "sum_px", "sum"),
                  ("sumsq_px", "sumsq_px", "sum")]).to_pandas()
    df["mean_px"] = (df.sum_px / df.n_px).round(6)
    var = df.sumsq_px / df.n_px - (df.sum_px / df.n_px) ** 2
    df["std_px"] = np.sqrt(np.clip(var, 0, None)).round(6)

    # A4 corpus percentiles per class (rasterio_utils.py:282-292 analogue at
    # corpus level): distribution of the per-image medians, computed inside a
    # distributed map_groups (a group = one (file_class, band) slice; at
    # extreme scale swap the exact in-group quantile for a t-digest/sample —
    # documented approximation boundary).
    med = fl.read_enriched(out).select_columns(
        ["file_class", "band", "decode_ok", "px_p50"])

    def grp_pct(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g.decode_ok]
        if not len(g):
            return pd.DataFrame(columns=["file_class", "band",
                                         "p25_med", "p50_med", "p75_med"])
        q = g.px_p50.quantile([0.25, 0.5, 0.75])
        return pd.DataFrame({
            "file_class": [g.file_class.iloc[0]], "band": [g.band.iloc[0]],
            "p25_med": [round(float(q.iloc[0]), 6)],
            "p50_med": [round(float(q.iloc[1]), 6)],
            "p75_med": [round(float(q.iloc[2]), 6)],
        })

    pct = (med.groupby(["file_class", "band"])
           .map_groups(grp_pct, batch_format="pandas").to_pandas())
    df = df.merge(pct, on=["file_class", "band"], how="left")
    return df[["file_class", "band", "n_px", "mean_px", "std_px",
               "p25_med", "p50_med", "p75_med"]]


def enriched_daily_stats(sf_dir: str):
    """A2 daily processing stats over the enriched table: per capture-date
    counts, valid counts, mean elevation."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(
        ["ts", "valid", "elevation_m", "has_gps"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.to_datetime(df.ts).dt.strftime("%Y-%m-%d").fillna("unknown")
        return pd.DataFrame({
            "date": d,
            "n_valid": df.valid.astype(int),
            "sum_elev": df.elevation_m.fillna(0.0),
            "n_elev": df.elevation_m.notna().astype(int),
        })

    df = _preagg(ds.map_batches(tag, batch_format="pandas"), ["date"],
                 [("n_images", None, "count"),
                  ("n_valid", "n_valid", "sum"),
                  ("sum_elev", "sum_elev", "sum"),
                  ("n_elev", "n_elev", "sum")]).to_pandas()
    df["mean_elevation"] = (df.sum_elev / df.n_elev.clip(lower=1)).round(4)
    return df.drop(columns=["sum_elev"])


def file_class_counts(sf_dir: str):
    """A8 distinct file-type counts over the enriched table."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(["file_class", "fmt"])
    return _preagg(ds, ["file_class", "fmt"], [("n", None, "count")])


def gps_export(sf_dir: str):
    """K7 GPS exporter (scripts/extract_gps_to_csv_json.py:22-57): per-image
    lat/lon/alt projection of the enriched table."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(
        ["image_id", "has_gps", "lat", "lon", "alt_m"])

    def proj(df: pd.DataFrame) -> pd.DataFrame:
        # raw stored values — the SQL oracle reads the same parquet, so the
        # compare is bit-exact without any re-rounding
        return df[df.has_gps].drop(columns=["has_gps"])

    return ds.map_batches(proj, batch_format="pandas")


def validation_report(sf_dir: str):
    """K3 validation report (main.py:525-535): per-image issue summary over
    ALL inputs — the enriched output plus the quarantine tree (decode
    failures are routed to failed/ by the partition writer)."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    cols = ["image_id", "valid", "issues"]
    ds = fl.read_enriched(out).select_columns(cols) \
        .union(fl.read_failed(out).select_columns(cols))

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_id": df.image_id,
            "valid": df.valid,
            "n_issues": df.issues.map(len).astype(np.int64),
            "issues": df.issues.map(lambda l: ";".join(list(l))),
        })

    return ds.map_batches(fmt, batch_format="pandas")


def quarantine_report(sf_dir: str):
    """The failed-row quarantine output (reference failed-directory,
    main.py:244-251 / tests/test_integration.py:160-163): per-image id +
    issue summary of every row whose payload could not be decoded."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_failed(out).select_columns(["image_id", "file_class", "issues"])

    def fmt(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_id": df.image_id,
            "file_class": df.file_class,
            "issues": df.issues.map(lambda l: ";".join(list(l))),
        })

    return ds.map_batches(fmt, batch_format="pandas")


def ops_stats(sf_dir: str):
    """Per-(partition, stage) operational metrics of the flagship run — the
    reference's system_metrics/api_usage tables (create-tables.sql:185-223)
    as a queryable dataset (wall seconds, rows, throughput per stage)."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    return fl.read_ops(out).select_columns(
        ["partition", "stage", "wall_s", "rows", "rows_per_sec"])


def thumbnails(sf_dir: str):
    """K5 thumbnails (output/visualizer.py:43-153): decode → 32×32 bilinear
    downsample → lossless re-encode, as an actor-pool stage; returns id,
    dims, decode flag and thumbnail payload size (the blobs themselves are
    one ``write_parquet`` of ``export.thumbnails_dataset``)."""
    from .export import thumbnails_dataset

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = thumbnails_dataset(img_dir, size=32)

    def meta(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_id": df.image_id,
            "w": df.w, "h": df.h, "decode_ok": df.decode_ok,
            "thumb_bytes": df["bytes"].map(len).astype(np.int64),
        })

    return ds.map_batches(meta, batch_format="pandas")


def _png_len(df: pd.DataFrame) -> pd.DataFrame:
    """Swap a rendered ``png`` column for its byte length ``png_len``."""
    df = df.copy()
    df["png_len"] = df.png.map(len).astype(np.int64)
    return df.drop(columns=["png"])


def index_visualizations(sf_dir: str):
    """Index-map visualizations (visualizer.py:75-153): per (capture,
    index), the reference's colormap/vmin/vmax rendering PNG-encoded via
    the pure-numpy PNG writer (functions/viz.py — matplotlib is not in
    this environment) plus its stats block. Rows-only for the driver
    (PNG bytes have no SQL analogue); pixel-level correctness pinned by
    tests/test_viz.py against brute-force colormap application."""
    from .export import index_visualizations_dataset

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = index_visualizations_dataset(out)
    return ds.map_batches(_png_len, batch_format="pandas")


def band_histograms(sf_dir: str):
    """Per-band-file histogram PNGs (processor.py:579-598): 256 bins over
    (0, 65535), rendered as a deterministic bar raster. Rows-only; bin
    counts themselves are value-checked by the SQL-exact px_histogram /
    events_value_histogram siblings."""
    from .export import band_histograms_dataset

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = band_histograms_dataset(img_dir)
    return ds.map_batches(_png_len, batch_format="pandas")


def location_map(sf_dir: str):
    """Corpus location-map render (scripts/visualize_tiff_locations.py:
    22-57): bounds boxes of every georeferenced image drawn over the NL
    bbox — the last visualizer-parity gap (round 4). One PNG row; pixel
    correctness pinned by tests/test_viz.py against brute-force
    rasterization, box count checked against the enriched table."""
    from .export import location_map_dataset

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = location_map_dataset(out)
    return ds.map_batches(_png_len, batch_format="pandas")


def micasense_sets(sf_dir: str):
    """The reference's timestamp-prefix set discovery with POSITIONAL band
    assignment (micasense/__main__.py:15-46): group files by the filename
    prefix, keep groups with ≥ 5 files, assign Blue/Green/Red/NIR/RedEdge
    to the first five files of the group in sorted order.

    Reference-parity notes: reference stems are ``<timestamp>_<band>``, so
    its ``stem.split('_')[0]`` equals everything before the band suffix —
    the synthetic ids carry a corpus prefix (``IMG_0320_2``), hence
    ``rsplit('_', 1)[0]``. The reference assigns positions in ``glob``
    order (filesystem-dependent); sorted order is the deterministic
    stand-in. The robust regex classifier in stages/extract.py is the
    shipped variant; this one exists for parity with the reference CLI.
    Scale: one shuffle of a slim 2-column table; groups are capture-sized.
    """
    import ray.data as rd

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["image_id"])

    def key(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.image_id.str.contains("_")].copy()
        df["set_name"] = df.image_id.str.replace(r"_[^_]*$", "", regex=True)
        return df

    BANDS = np.array(["Blue", "Green", "Red", "NIR", "RedEdge"])

    def grp(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 5:
            return pd.DataFrame({"set_name": pd.Series([], dtype=str),
                                 "band_name": pd.Series([], dtype=str),
                                 "image_id": pd.Series([], dtype=str)})
        ids = np.sort(g.image_id.to_numpy(dtype=object))[:5]
        return pd.DataFrame({"set_name": [g.set_name.iloc[0]] * 5,
                             "band_name": BANDS, "image_id": ids})

    return (ds.map_batches(key, batch_format="pandas")
            .groupby("set_name").map_groups(grp, batch_format="pandas"))


def image_exact_dedup(sf_dir: str):
    """Exact image dedup: hash-partition on phash, keep min image_id
    (A7; groupby + per-group first)."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(["phash", "image_id"])
    agg = _preagg(ds, ["phash"], [
        ("keep_image_id", "image_id", "min"),
        ("dup_count", None, "count"),
    ])
    return agg


def image_phash_near_dup(sf_dir: str, max_hamming: int = 3):
    """Image NEAR-dup pair join on the perceptual hash (the multimodal
    sibling of dedup_simhash_pairs): banded hamming buckets over the
    flagship's phash column — any two 64-bit hashes within d ≤ 3 agree on
    ≥ 1 of 4 disjoint 16-bit bands (pigeonhole → lossless candidates),
    verified with an exact popcount. Approximation-free but not
    SQL-expressible at scale (the exact formulation is an O(N²) self-join)
    → rows-only; pair-set equality vs brute force is pinned in
    tests/test_queries.py."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    imgs = fl.read_enriched(out).select_columns(
        ["image_id", "phash", "decode_ok"])
    nb = _nbuckets(_pq_nrows(os.path.join(out, "enriched")) * 4)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.decode_ok]
        ph = df.phash.to_numpy(np.int64).astype(np.uint64)
        n = len(df)
        bands = np.stack([(ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)
                          for b in range(4)], axis=1).astype(np.int64)
        out = pd.DataFrame({
            "image_id": np.repeat(df.image_id.to_numpy(), 4),
            "phash": np.repeat(ph.astype(np.int64), 4),
            "band": np.tile(np.arange(4, dtype=np.int64), n),
            "key": bands.ravel(),
        })
        out["kbucket"] = ((out["key"] * 4 + out["band"]) % nb).astype(np.int64)
        return out

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # singleton pre-filter + FIRST-BAND dedup (round 4, same rule as
        # dedup_simhash_pairs: earlier bands derive from the phash already
        # on the row, so emissions are globally unique at zero extra
        # shuffle bytes and the pair dedup exchange disappears)
        df = df[df.duplicated(["band", "key"], keep=False)]
        rows = []
        for (band, _), g in df.groupby(["band", "key"], sort=False):
            u = g.sort_values("image_id")
            ids = u.image_id.to_numpy()
            hs = u.phash.to_numpy().astype(np.uint64)
            band = int(band)
            for i in range(len(ids)):
                x = hs[i] ^ hs[i + 1:]
                d = np.array([int(v).bit_count() for v in x])
                for j in np.flatnonzero(d <= max_hamming):
                    xj = int(x[j])
                    first = next(b for b in range(4)
                                 if (xj >> (16 * b)) & 0xFFFF == 0)
                    if first == band:
                        rows.append((str(ids[i]), str(ids[i + 1 + j]),
                                     int(d[j])))
        if not rows:
            return pd.DataFrame({"img_a": pd.Series(dtype=object),
                                 "img_b": pd.Series(dtype=object),
                                 "hamming": pd.Series(dtype=np.int64)})
        return pd.DataFrame(rows, columns=["img_a", "img_b", "hamming"])

    # pairs are globally unique by the first-band rule — no dedup exchange
    return (imgs.map_batches(band_rows, batch_format="pandas")
            .groupby("kbucket")
            .map_groups(pairs_in_bucket, batch_format="pandas"))


def caption_exact_dedup(sf_dir: str):
    """Cross-modal exact dedup: the CAPTION (text) side of the image+caption
    pair grouped distributed by exact string — the doc_exact_dedup /
    image_exact_dedup pattern applied to the flagship table's text modality.
    Hash-partition groupby on the caption key, keep = min image_id."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(["caption", "image_id"])
    return _preagg(ds, ["caption"], [
        ("keep_image_id", "image_id", "min"),
        ("dup_count", None, "count"),
    ])


# ------------------------------------------- near-dup suite (rows-only)


def minhash_candidate_pairs(sf_dir: str):
    """MinHash-LSH candidate pairs over `documents` (the distributed part of
    the near-dup pipeline): vectorized shingle→minhash→band keys per batch
    (one reduceat pass per block, no per-doc Python loop), explode to
    (doc_id, band, key), shuffle on a hash BUCKET of the LSH key (most exact
    buckets are singletons; per-group engine overhead at n_docs × n_bands
    groups would dwarf the work), per-bucket pandas groupby recovers the
    exact (band, key) buckets → unique candidate pairs. Bucket count scales
    with the corpus (``_nbuckets``); pair dedup across buckets/bands is a
    DISTRIBUTED groupby — the pair set never touches the driver (round-3
    fix; round 2 ended with ``.to_pandas().drop_duplicates()``)."""
    from ..functions import sketch

    n_perm, n_bands = 64, 16
    a, b = sketch.minhash_params(n_perm)
    docs, nrows = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nb = _nbuckets(nrows * n_bands)

    def sigs(df: pd.DataFrame) -> pd.DataFrame:
        sh = sketch.shingle_hashes_batch(df.text.fillna("").tolist(), k=3)
        keys = sketch.lsh_band_keys_batch(
            sketch.minhash_signatures_batch(sh, a, b), n_bands)
        n = len(df)
        # every row carries the doc's FULL band-key vector (n_bands×8 B
        # blob) so the bucket task can dedup pairs locally: a pair is
        # emitted only at its MINIMAL agreeing band, making emissions
        # globally unique and removing the whole (doc_a, doc_b)-keyed
        # dedup exchange (round-4: ~6× bytes on this exchange buys one
        # fewer all-to-all over O(pairs×bands) rows — strictly fewer
        # shuffled bytes whenever dup-pair volume ≳ corpus×16 keys, and
        # one fewer fixed exchange floor always)
        blob = [k.tobytes() for k in keys]
        out = pd.DataFrame({
            "doc_id": np.repeat(df.doc_id.to_numpy(), n_bands),
            "band": np.tile(np.arange(n_bands, dtype=np.int64), n),
            "key": keys.ravel(),
            "allkeys": np.repeat(np.array(blob, dtype=object), n_bands),
        })
        out["kbucket"] = (out["key"].to_numpy() % nb).astype(np.int64)
        return out

    ds = docs.map_batches(sigs, batch_format="pandas")

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # singleton (band, key) groups are ~99% of rows: drop them with one
        # C-speed duplicated() pass BEFORE any Python-level group iteration
        # (iterating ~790k mostly-singleton groups cost ~2.5 s/bucket-task
        # at sf0.1 — the whole candidate stage was 9 s, now ~3 s)
        df = df[df.duplicated(["band", "key"], keep=False)]
        out = []
        for (band, _), g in df.groupby(["band", "key"], sort=False):
            order = np.argsort(g.doc_id.to_numpy())
            ids = g.doc_id.to_numpy()[order]
            kb = np.frombuffer(b"".join(g.allkeys.to_numpy()[order]),
                               dtype=np.int64).reshape(len(ids), n_bands)
            band = int(band)
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    # first-band rule: emit only if no earlier band agrees
                    if band == 0 or not (kb[i, :band] == kb[j, :band]).any():
                        out.append((ids[i], ids[j]))
        if not out:
            return pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                                 "doc_b": pd.Series(dtype=np.int64)})
        return pd.DataFrame(out, columns=["doc_a", "doc_b"])

    # pairs are globally unique by the first-band rule — no dedup exchange
    return (ds.groupby("kbucket")
            .map_groups(pairs_in_bucket, batch_format="pandas"))


def dedup_minhash_docs(sf_dir: str, threshold: float = 0.5):
    """MinHash-LSH near-dup: LSH candidates → DISTRIBUTED exact-Jaccard
    verify (round-1 fix: the corpus is never read to the driver)."""
    cand = minhash_candidate_pairs(sf_dir)
    return _verify_jaccard_pairs(sf_dir, cand, threshold)


def _verify_jaccard_pairs(sf_dir: str, cand, threshold: float):
    """Distributed exact-Jaccard verify of candidate (doc_a, doc_b) pairs.
    ``cand`` is a DATASET of unique pairs — round-3 fix: round 2 gathered the
    pair set to the driver and re-broadcast a candidate-id frozenset, O(pairs)
    driver state (unbounded on a dup-heavy corpus). Now candidate docs
    qualify via a distributed LEFT SEMI join and the pair side is exploded in
    map_batches; only candidate-bounded data moves, none through the driver.

    A two-hop shuffle join keyed by doc_id then by pair:
      hop 1: shingle rows (computed distributed, only for semi-join-qualified
             candidate docs) ∪ pair-side rows, groupby doc_id → each pair
             side picks up its shingle blob;
      hop 2: groupby (doc_a, doc_b) joins the two sides → exact Jaccard.
    ``cand`` is materialized once (object-store-resident, spillable) because
    two consumers branch from it; a lazy Dataset would recompute the whole
    LSH candidate DAG per consumer.

    Candidate docs qualify through a distributed BLOOM filter over the
    pair ids (built per-block, OR-merged, broadcast once — bounded SIZE
    regardless of pair count) probed inside the documents scan: Ray's
    hash-shuffle Dataset.join here has a ~3.5-6 s fixed floor per call
    (aggregator actor pool spin-up + barrier, measured at sf0.1/32 CPUs)
    that dominated this whole pipeline, and Bloom false positives are
    harmless — a non-candidate doc's shingle row meets no pair row in the
    hop-1 groupby and drops out. Exactness is untouched."""
    import ray

    from ..functions import bloom as bf
    from ..functions import sketch

    cand = cand.materialize()

    def cand_shingles(df: pd.DataFrame) -> pd.DataFrame:
        sh = sketch.shingle_hashes_batch(df.text.fillna("").tolist(), k=3)
        return pd.DataFrame({
            "doc_id": df.doc_id.to_numpy(),
            "doc_a": np.int64(-1), "doc_b": np.int64(-1),
            "sh": [s.tobytes() for s in sh],
        })

    # Size the filter from the candidate volume (2 keys per pair) so the
    # false-positive rate stays low at scale: p = log2(n_keys) + 4 keeps
    # bits/key ≥ 16 (FP ≈ 0.2% at k=4). Capped at 2^27 bits = 16 MiB — the
    # broadcast stays cheap; past that FPs rise gracefully and exactness is
    # unaffected (the hop-1 groupby drops strays).
    npairs = max(cand.count(), 1)
    n_keys = 2 * npairs
    p = int(min(27, max(20, int(np.ceil(np.log2(n_keys))) + 4)))

    def cand_bloom_partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = np.concatenate([df.doc_a.to_numpy(np.int64),
                               df.doc_b.to_numpy(np.int64)])
        return pd.DataFrame({"bits": [bf.add(bf.empty(p), keys).tobytes()]})

    def bloom_or(df: pd.DataFrame) -> pd.DataFrame:
        acc = bf.empty(p)
        for b in df.bits:
            acc = bf.merge(acc, np.frombuffer(b, dtype=np.uint8))
        return pd.DataFrame({"bits": [acc.tobytes()]})

    # one packed partial per block → coalesce into ONE task for the OR
    # (repartition(1) is a narrow merge, far below a hash-shuffle's fixed
    # floor; the OR tree never touches the driver, which receives 1 bitmap)
    parts = (cand.map_batches(cand_bloom_partial, batch_format="pandas",
                              batch_size=None)
             .repartition(1)
             .map_batches(bloom_or, batch_format="pandas", batch_size=None)
             .to_pandas())  # exactly one packed row
    acc = np.frombuffer(parts.bits.iloc[0], dtype=np.uint8).copy() \
        if len(parts) else bf.empty(p)
    bloom_ref = ray.put(acc)

    def explode_pairs(df: pd.DataFrame) -> pd.DataFrame:
        a = df.doc_a.to_numpy(np.int64)
        b = df.doc_b.to_numpy(np.int64)
        return pd.DataFrame({
            "doc_id": np.concatenate([a, b]),
            "doc_a": np.tile(a, 2),
            "doc_b": np.tile(b, 2),
            # b"" sentinel (not None): keeps the column binary-typed so the
            # union with real shingle blobs never hits Arrow null-type blocks
            "sh": [b""] * (2 * len(df)),
        })

    # light probe+shingle chain: a handful of blocks is enough (the 64-way
    # auto split spawned 64 near-empty probe tasks whose launch overhead
    # outweighed the work)
    docs, _ = _spread_read(sf_dir, "documents", ["doc_id", "text"],
                           rows_per_block=768)

    def bloom_probe(df: pd.DataFrame, _b=bloom_ref) -> pd.DataFrame:
        bits = ray.get(_b) if isinstance(_b, ray.ObjectRef) else _b
        keys = df.doc_id.to_numpy(np.int64)
        return df[bf.might_contain(bits, keys)]

    cdocs = docs.map_batches(bloom_probe, batch_format="pandas")
    sh_rows = cdocs.map_batches(cand_shingles, batch_format="pandas")
    pair_rows = cand.map_batches(explode_pairs, batch_format="pandas")

    # Both hops group by a BUCKET key, never per doc / per pair: map_groups
    # pays per-group Python overhead, which at ~500k candidate pairs (the
    # ngram prefix filter on template-heavy corpora) turned the verify into
    # a 25 s stage (round 4). In-bucket work is one vectorized pandas merge
    # (hop 1) and a merge + C-level per-pair intersect1d loop (hop 2).
    ndocs = _pq_nrows(testdata_path(sf_dir, "documents"))
    nb1 = _nbuckets(2 * npairs + ndocs)
    nb2 = _nbuckets(npairs)

    def attach_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                              "doc_b": pd.Series(dtype=np.int64),
                              "doc_id": pd.Series(dtype=np.int64),
                              "sh": pd.Series(dtype=object),
                              "b2": pd.Series(dtype=np.int64)})
        doc = g[g.doc_a < 0][["doc_id", "sh"]]
        pairs = g[g.doc_a >= 0][["doc_a", "doc_b", "doc_id"]]
        if len(doc) == 0 or len(pairs) == 0:
            return empty
        out = pairs.merge(doc, on="doc_id", how="inner")
        out["b2"] = ((out.doc_a.to_numpy(np.int64) * 1_000_003
                      + out.doc_b.to_numpy(np.int64)) % nb2).astype(np.int64)
        return out if len(out) else empty

    def verify_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a_side = g[g.doc_id == g.doc_a][["doc_a", "doc_b", "sh"]]
        b_side = g[g.doc_id == g.doc_b][["doc_a", "doc_b", "sh"]]
        m = a_side.merge(b_side, on=["doc_a", "doc_b"],
                         suffixes=("_a", "_b"))
        oa, ob, js = [], [], []
        for da, db_, ba, bb in zip(m.doc_a.to_numpy(np.int64),
                                   m.doc_b.to_numpy(np.int64),
                                   m.sh_a.to_numpy(), m.sh_b.to_numpy()):
            j = round(sketch.jaccard(np.frombuffer(ba, dtype=np.uint64),
                                     np.frombuffer(bb, dtype=np.uint64)), 6)
            if j >= threshold:
                oa.append(da)
                ob.append(db_)
                js.append(j)
        return pd.DataFrame({"doc_a": np.array(oa, dtype=np.int64),
                             "doc_b": np.array(ob, dtype=np.int64),
                             "jaccard": np.array(js, dtype=np.float64)})

    def add_b1(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["b1"] = (df.doc_id.to_numpy(np.int64) % nb1).astype(np.int64)
        return df

    # coalesce the union before the two sort exchanges: its inputs arrive
    # as ~90 near-empty blocks (the probe chain inherits the 64-way read
    # split; the pair side inherits the LSH reduce partitioning) and a sort
    # over B tiny blocks pays O(B × partitions) object fetches — the two
    # verify sorts were 2.9 s each at sf0.1 before this (round 4). Block
    # count scales with the candidate-bounded row volume.
    nblk = _nbuckets(ndocs + 2 * npairs, rows_per_bucket=2048, lo=8)
    return (sh_rows.map_batches(add_b1, batch_format="pandas")
            .union(pair_rows.map_batches(add_b1, batch_format="pandas"))
            .repartition(nblk)
            .groupby("b1")
            .map_groups(attach_bucket, batch_format="pandas")
            .groupby("b2")
            .map_groups(verify_bucket, batch_format="pandas"))


def doc_ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.6):
    """EXACT n-gram Jaccard similarity self-join via prefix filtering
    (lossless, unlike the MinHash path): every pair with trigram-Jaccard ≥
    threshold, no approximation.

    Prefix-filter bound: order each doc's shingle-hash set ascending (a
    global total order); if J(A,B) ≥ t then |A∩B| ≥ ceil(t·|A|), so A and B
    must share at least one of A's first L = |A| − ceil(t·|A|) + 1 shingles.
    Emitting only prefix shingles bounds the inverted-index shuffle to a
    (1−t) fraction of the shingle volume; candidates are verified with the
    same distributed two-hop exact-Jaccard join as the MinHash path. Pair
    dedup is a distributed groupby; bucket count scales with the corpus
    (≈64 prefix shingles per doc at t=0.6 on the fixture texts)."""
    from ..functions import sketch

    docs, nrows = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nb = _nbuckets(nrows * 64)

    def prefix_rows(df: pd.DataFrame) -> pd.DataFrame:
        sh = sketch.shingle_hashes_batch(df.text.fillna("").tolist(), k=3)
        ids, keys, ns, poss = [], [], [], []
        for d, s in zip(df.doc_id.to_numpy(), sh):
            n = len(s)
            if n == 0:
                continue
            L = n - int(np.ceil(threshold * n)) + 1
            pre = np.sort(s)[:L]
            ids.append(np.full(len(pre), d, dtype=np.int64))
            keys.append(pre.astype(np.int64))
            ns.append(np.full(len(pre), n, dtype=np.int64))
            poss.append(np.arange(len(pre), dtype=np.int64))
        if not ids:
            return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                                 "key": pd.Series(dtype=np.int64),
                                 "n": pd.Series(dtype=np.int64),
                                 "pos": pd.Series(dtype=np.int64),
                                 "kbucket": pd.Series(dtype=np.int64)})
        out = pd.DataFrame({"doc_id": np.concatenate(ids),
                            "key": np.concatenate(keys),
                            "n": np.concatenate(ns),
                            "pos": np.concatenate(poss)})
        out["kbucket"] = (out["key"].to_numpy() % nb).astype(np.int64)
        return out

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # drop singleton keys (~98% of prefix-shingle rows) with one
        # C-speed duplicated() pass, then generate pair emissions with ONE
        # vectorized self-merge (no Python group iteration) and prune with
        # the classic ppjoin LENGTH and POSITIONAL filters — both lossless:
        #   length:   J≥t ⇒ |A∩B|≤min, |A∪B|≥max ⇒ min ≥ t·max
        #   position: shingles are globally sorted, so for a pair's FIRST
        #             shared prefix key at (posA, posB) the overlap is at
        #             most 1+min(nA−posA−1, nB−posB−1); J≥t needs overlap
        #             ≥ ceil(t/(1+t)·(nA+nB)). A true pair always passes at
        #             its first shared key, so keeping any-pass pairs is
        #             exact. (Cuts candidates 451k → 127k on the sf0.1
        #             template-heavy fixture corpus, round 4.)
        df = df[df.duplicated("key", keep=False)]
        if not len(df):
            return pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                                 "doc_b": pd.Series(dtype=np.int64)})
        m = df.merge(df, on="key", suffixes=("_x", "_y"))
        m = m[m.doc_id_x < m.doc_id_y]
        nx, ny = m.n_x.to_numpy(np.float64), m.n_y.to_numpy(np.float64)
        keep = np.minimum(nx, ny) + 1e-9 >= threshold * np.maximum(nx, ny)
        m, nx, ny = m[keep], nx[keep], ny[keep]
        alpha = np.ceil(threshold / (1.0 + threshold) * (nx + ny) - 1e-9)
        ub = 1 + np.minimum(m.n_x.to_numpy() - m.pos_x.to_numpy() - 1,
                            m.n_y.to_numpy() - m.pos_y.to_numpy() - 1)
        m = m[ub >= alpha]
        out = m[["doc_id_x", "doc_id_y"]].drop_duplicates()
        return pd.DataFrame({"doc_a": out.doc_id_x.to_numpy(np.int64),
                             "doc_b": out.doc_id_y.to_numpy(np.int64)})

    cand = (docs.map_batches(prefix_rows, batch_format="pandas")
            .groupby("kbucket")
            .map_groups(pairs_in_bucket, batch_format="pandas"))
    cand = _preagg(cand, ["doc_a", "doc_b"],
                   [("_c", None, "count")]).select_columns(["doc_a", "doc_b"])
    return _verify_jaccard_pairs(sf_dir, cand, threshold)


def doc_dup_clusters(sf_dir: str, threshold: float = 0.6, max_rounds: int = 50):
    """Near-duplicate CLUSTER resolution: distributed connected components
    over the exact trigram-Jaccard near-dup graph — the step that turns
    pairwise near-dup evidence (doc_ngram_jaccard_pairs) into the keep/drop
    partition a dedup pipeline actually applies (reference analogue: the
    duplicate-capture grouping of processor.py, generalized to documents).

    Standard distributed hash-min label propagation (the GraphX/Pregel CC
    loop): every doc starts labeled with its own id; each round each node
    takes the min over {own label} ∪ {neighbor labels}. Converges in
    O(max cluster diameter) rounds — near-dup clusters at threshold 0.6 are
    near-cliques, so 2-3 rounds in practice. Each round is TWO bucketed
    sort exchanges with vectorized in-bucket pandas merges (the
    _verify_jaccard_pairs hop pattern): label rows meet edge rows in
    src-keyed buckets (propagate), then propositions meet labels in
    node-keyed buckets (min-combine). Round 4 replaced the per-round
    Dataset.join here — its ~3.5-6 s fixed aggregator floor (BASELINE.md)
    dominated the loop at small sf; the bucketed form moves the identical
    (edges + labels) row volume. The driver sees only an O(1) convergence
    aggregate (sum of labels, strictly decreasing until fixpoint).
    Output: (doc_id, cluster_id = min doc_id in the component,
    is_rep = doc is the cluster representative)."""
    pairs = doc_ngram_jaccard_pairs(sf_dir, threshold)
    docs = read_testdata(sf_dir, "documents", columns=["doc_id"])

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("doc_id"), "lbl": t.column("doc_id")})

    # coalesce both loop operands: the propagation sorts run EVERY round,
    # and a sort over B near-empty blocks pays O(B × partitions) fetches
    # (the labels read auto-splits 64-way; the edge side inherits ~90
    # verify-output blocks — round-4 measurement: the loop ran 2× slower
    # on un-coalesced inputs than the whole ngram pipeline feeding it)
    nlbl = _pq_nrows(testdata_path(sf_dir, "documents"))
    labels = (docs.map_batches(init_labels, batch_format="pyarrow")
              .repartition(_nbuckets(nlbl, rows_per_bucket=500_000, lo=8))
              .materialize())

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        a = df.doc_a.to_numpy(np.int64)
        b = df.doc_b.to_numpy(np.int64)
        return pd.DataFrame({"src": np.concatenate([a, b]),
                             "node": np.concatenate([b, a])})

    # materialize ONCE: the propagation loop re-joins edges every round, and
    # a lazy edges Dataset would re-run the whole LSH+verify DAG per round.
    # Edge rows never reach the driver (round-3 fix: round 2 built edges
    # from a driver-side pandas pair table).
    edges = (pairs.map_batches(undirect, batch_format="pandas")
             .materialize())

    n_edges = edges.count()
    # the generic distributed hash-min loop (factored round-4d into
    # _cc_label_prop, shared with any row-scaled CC consumer)
    labels = _cc_label_prop(labels, edges, nlbl, n_edges,
                            max_rounds=max_rounds)

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "doc_id": t.column("node"),
            "cluster_id": t.column("lbl"),
            "is_rep": pc.equal(t.column("node"), t.column("lbl")),
        })

    return labels.map_batches(finish, batch_format="pyarrow")


def dedup_simhash_docs(sf_dir: str):
    """64-bit SimHash per doc + hamming-bucket near-dup key (rows-only)."""
    from ..functions import sketch

    docs, _ = _spread_read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        sh = sketch.shingle_hashes_batch(df.text.fillna("").tolist(), k=3)
        return pd.DataFrame({"doc_id": df.doc_id,
                             "simhash": sketch.simhash64_batch(sh)})

    return docs.map_batches(f, batch_format="pandas")


def dedup_simhash_pairs(sf_dir: str, max_hamming: int = 3):
    """SimHash near-dup PAIR join: banded hamming-bucket grouping.

    Pigeonhole: any two 64-bit simhashes within hamming distance ≤ 3 agree
    exactly on at least one of 4 disjoint 16-bit bands, so grouping on
    (band_idx, band_value) is a LOSSLESS candidate generator for d ≤ 3;
    candidates are verified with an exact popcount. Same shuffle shape as
    the MinHash LSH path (bucketed keys → in-group pairs); buckets scale
    with the corpus and pair dedup is a distributed groupby (round-3 fix:
    no driver pair gather)."""
    from ..functions import sketch

    docs, nrows = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nb = _nbuckets(nrows * 4)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        sh = sketch.shingle_hashes_batch(df.text.fillna("").tolist(), k=3)
        sim = sketch.simhash64_batch(sh).astype(np.uint64)
        n = len(df)
        bands = np.stack([(sim >> np.uint64(16 * b)) & np.uint64(0xFFFF)
                          for b in range(4)], axis=1).astype(np.int64)
        out = pd.DataFrame({
            "doc_id": np.repeat(df.doc_id.to_numpy(), 4),
            "simhash": np.repeat(sim.astype(np.int64), 4),
            "band": np.tile(np.arange(4, dtype=np.int64), n),
            "key": bands.ravel(),
        })
        # bucket the (band, key) space for the shuffle (most exact buckets
        # are singletons; per-group engine overhead would dominate)
        out["kbucket"] = ((out["key"] * 4 + out["band"]) % nb).astype(np.int64)
        return out

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # singleton pre-filter, then the FIRST-BAND rule: rows already
        # carry the full simhash, so every earlier band's value is
        # derivable in place — emit a pair only at its minimal agreeing
        # band and the whole (doc_a, doc_b) dedup exchange disappears at
        # zero extra shuffle bytes (round 4; the minhash path pays a
        # key-vector blob for the same rule)
        df = df[df.duplicated(["band", "key"], keep=False)]
        out = []
        for (band, _), g in df.groupby(["band", "key"], sort=False):
            u = g.sort_values("doc_id")
            ids = u.doc_id.to_numpy()
            hs = u.simhash.to_numpy().astype(np.uint64)
            band = int(band)
            for i in range(len(ids)):
                x = hs[i] ^ hs[i + 1:]
                d = np.array([int(v).bit_count() for v in x])
                for j in np.flatnonzero(d <= max_hamming):
                    xj = int(x[j])
                    first = next(b for b in range(4)
                                 if (xj >> (16 * b)) & 0xFFFF == 0)
                    if first == band:
                        out.append((int(ids[i]), int(ids[i + 1 + j]),
                                    int(d[j])))
        if not out:
            return pd.DataFrame({"doc_a": pd.Series(dtype=np.int64),
                                 "doc_b": pd.Series(dtype=np.int64),
                                 "hamming": pd.Series(dtype=np.int64)})
        return pd.DataFrame(out, columns=["doc_a", "doc_b", "hamming"])

    # pairs are globally unique by the first-band rule — no dedup exchange
    return (docs.map_batches(band_rows, batch_format="pandas")
            .groupby("kbucket")
            .map_groups(pairs_in_bucket, batch_format="pandas"))


def doc_token_counts_regex(sf_dir: str):
    """BPE-ish regex tokenizer count: \\w+|[^\\w\\s] matches words and
    standalone punctuation (the subword-style pre-tokenization split)."""
    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        import re

        pat = re.compile(r"\w+|[^\w\s]")
        return pd.DataFrame({
            "doc_id": df.doc_id,
            "n_tokens_re": df.text.fillna("").map(
                lambda t: len(pat.findall(t))).astype(np.int64),
        })

    return docs.map_batches(f, batch_format="pandas")


def embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-duplicate pairs (sim ≥ 0.4, a < b) via the
    IVF-bucketed distributed path (stages/ann.py): multi-assign each vector
    to its nearest centroids in map_batches, all-pairs only WITHIN buckets
    (round-1 fix: no driver-side N×N matmul). The fixture embeddings are
    near-orthogonal (max pair sim ≈ 0.48), so 0.4 surfaces the closest tail;
    bucket-vs-brute pair-set equality is pinned in tests and by the SQL
    oracle's exact self-join."""
    from ..stages.ann import embedding_near_dup_pairs

    return embedding_near_dup_pairs(sf_dir, threshold=0.4)


def doc_fingerprints(sf_dir: str):
    from ..functions.textkernels import fingerprint64

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df.doc_id,
                             "fingerprint": fingerprint64(df.text)})

    return docs.map_batches(f, batch_format="pandas")


def doc_bm25_scores(sf_dir: str, terms: tuple = ("spark", "query", "window")):
    """BM25-style relevance scoring for a fixed query-term set (k1=1.2,
    b=0.75) — the IR primitive for retrieval-based data curation.

    Two-pass broadcast pattern: pass 1 computes the corpus stats
    distributed (per-block one-row partials: N, Σlen, df per term — only
    n_blocks tiny rows reach the driver); the stats are baked into the
    pass-2 closure (broadcast once), which scores every doc vectorized.

    The IDF is the RATIONAL variant (N - df + 0.5)/(df + 0.5) without the
    usual ln(·): ln implementations differ in the last bit across libms,
    while +,-,*,/ are IEEE-exact in both numpy and DuckDB — so the SQL
    oracle (identical operation order) is bit-exact. tf counts exact
    whitespace-token equality."""
    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])
    terms = list(terms)

    def _tf_matrix(texts: pd.Series) -> tuple:
        """(n_docs, n_terms) exact token tf + per-doc n_words, vectorized
        via one factorize over the batch's tokens."""
        toks = texts.fillna("").str.split(" ")
        lens = np.fromiter((len(t) for t in toks), dtype=np.int64,
                           count=len(toks))
        rows = np.repeat(np.arange(len(toks), dtype=np.int64), lens)
        flat = _flat_words(texts)
        codes, uniq = pd.factorize(flat)
        tf = np.zeros((len(toks), len(terms)), dtype=np.int64)
        uniq_list = list(uniq)
        for j, term in enumerate(terms):
            try:
                c = uniq_list.index(term)
            except ValueError:
                continue
            np.add.at(tf[:, j], rows[codes == c], 1)
        return tf, lens

    def stats_block(df: pd.DataFrame) -> pd.DataFrame:
        tf, lens = _tf_matrix(df.text)
        row = {"n_docs": np.int64(len(df)), "len_sum": lens.sum()}
        for j, t in enumerate(terms):
            row[f"df_{j}"] = np.int64((tf[:, j] > 0).sum())
        return pd.DataFrame([row])

    parts = docs.map_batches(stats_block, batch_format="pandas",
                             batch_size=None).to_pandas()
    N = int(parts.n_docs.sum())
    avgdl = float(parts.len_sum.sum()) / N  # exact int-sum, one division
    idf = [ (N - float(parts[f"df_{j}"].sum()) + 0.5)
            / (float(parts[f"df_{j}"].sum()) + 0.5) for j in range(len(terms)) ]

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tf, lens = _tf_matrix(df.text)
        norm = 1.2 * (0.25 + 0.75 * (lens.astype(np.float64) / avgdl))
        s = np.zeros(len(df), dtype=np.float64)
        for j in range(len(terms)):  # fixed order: term 0 + term 1 + ...
            tfj = tf[:, j].astype(np.float64)
            s = s + idf[j] * tfj / (tfj + norm)
        return pd.DataFrame({"doc_id": df.doc_id.to_numpy(),
                             "bm25": np.round(s, 6)})

    return docs.map_batches(score, batch_format="pandas")


def doc_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality filter (Rae et al. 2021 §A1.1-style
    rules re-expressed over the documents table): per-doc most-frequent-word
    fraction + distinct-word ratio, and an integer keep flag
    (top_word_frac <= 0.1 AND n_words >= 20 — integer arithmetic so the SQL
    oracle is bit-exact). Embarrassingly parallel: one vectorized
    map_batches, no shuffle, streams at any scale."""
    from ..functions.textkernels import repetition_stats

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        st = repetition_stats(df.text)
        out = {"doc_id": df.doc_id.to_numpy()}
        out.update(st)
        out["top_word_frac"] = st["top_cnt"] / st["n_words"]
        out["distinct_ratio"] = st["n_distinct"] / st["n_words"]
        out["keep"] = ((st["top_cnt"] * 10 <= st["n_words"])
                       & (st["n_words"] >= 20)).astype(np.int32)
        return pd.DataFrame(out)

    return docs.map_batches(f, batch_format="pandas")


def doc_vocab_topk(sf_dir: str):
    """Corpus vocabulary build (tokenizer-training prep): top-100 words by
    total count, ties broken by word asc. Per-block value_counts partials →
    hash-partition word-sum (_preagg) → per-block top-k → tiny global sort:
    the shuffle moves one row per (word × block), never the token stream."""
    docs = read_testdata(sf_dir, "documents", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = pd.Series(_flat_words(df["text"]), dtype=object).value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    pds = docs.map_batches(partial, batch_format="pandas", batch_size=None)
    agg = _preagg(pds, ["word"], [("cnt", "cnt", "sum")])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cnt", "word"], ascending=[False, True],
                              kind="stable").head(100)

    agg = agg.map_batches(topk, batch_format="pandas", batch_size=None)
    return agg.sort(["cnt", "word"], descending=[True, False]).limit(100)


def doc_vocab_topk_mg(sf_dir: str, k: int = 100, capacity: int = 400):
    """Heavy hitters: CERTIFIED-exact top-k words via two passes, never
    shuffling the full vocabulary (the scale path beside doc_vocab_topk,
    whose word-sum shuffle is vocab-proportional).

    Pass 1 — per-block Misra-Gries summaries (capacity m): value_counts,
    subtract the (m+1)-th largest count sub_b, keep the ≤ m positive rows.
    Guarantee: c_b(w) ≤ f_b(w) ≤ c_b(w) + sub_b, and Σ(m+1 counts ≥ sub_b)
    ≤ n_b ⇒ sub_b ≤ n_b/(m+1). The sub_b's ride the same shuffle as a
    NULL-word row, so one distributed word-sum over the TRUNCATED summaries
    yields c(w) and the global error bound e = Σ sub_b with f ≤ c + e.
    Candidates = {w : c(w) + e ≥ ck} where ck is the k-th largest c — a
    provable superset of the exact top-k (any non-candidate has
    f ≤ c + e < ck ≤ fk), independent of the data distribution.

    Pass 2 — broadcast the candidate set, exact-count ONLY those words
    (shuffle ≤ blocks × |candidates| rows), exact top-k with the same
    (cnt desc, word asc) tie-break as doc_vocab_topk ⇒ identical SQL
    oracle. Misra & Gries '82; mergeability per Agarwal et al. '13."""
    import ray

    docs = read_testdata(sf_dir, "documents", columns=["text"])

    def mg_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = pd.Series(_flat_words(df["text"]), dtype=object).value_counts()
        sub = int(vc.iloc[capacity]) if len(vc) > capacity else 0
        kept = (vc.iloc[:capacity] - sub)
        kept = kept[kept > 0]
        out = pd.DataFrame({"word": kept.index.to_numpy(dtype=object),
                            "cnt": kept.to_numpy(dtype=np.int64)})
        return pd.concat([out, pd.DataFrame({"word": [None],
                                             "cnt": [np.int64(sub)]})],
                         ignore_index=True)

    pds = docs.map_batches(mg_partial, batch_format="pandas",
                           batch_size=None)
    merged = _preagg(pds, ["word"], [("cnt", "cnt", "sum")]).to_pandas()
    # bounded: ≤ blocks × (capacity+1) summary rows survive the shuffle
    is_err = merged.word.isna()
    e = int(merged.loc[is_err, "cnt"].sum())
    c = merged[~is_err]
    ck = int(c.cnt.sort_values(ascending=False).iloc[min(k, len(c)) - 1])
    cand = c.loc[c.cnt + e >= ck, "word"]
    cand_ref = ray.put(frozenset(cand.tolist()))

    def exact_partial(df: pd.DataFrame, _c=cand_ref) -> pd.DataFrame:
        cs = ray.get(_c) if isinstance(_c, ray.ObjectRef) else _c
        vc = pd.Series(_flat_words(df["text"]), dtype=object).value_counts()
        vc = vc[vc.index.isin(cs)]
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    pds2 = docs.map_batches(exact_partial, batch_format="pandas",
                            batch_size=None)
    agg = _preagg(pds2, ["word"], [("cnt", "cnt", "sum")])

    def topk_block(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["cnt", "word"], ascending=[False, True],
                              kind="stable").head(k)

    agg = agg.map_batches(topk_block, batch_format="pandas", batch_size=None)
    out = agg.sort(["cnt", "word"], descending=[True, False]).limit(k)
    df = out.to_pandas()
    assert int(df.cnt.iloc[-1]) >= ck, "MG certification violated"
    return df


def doc_pii_scrub(sf_dir: str):
    """PII redaction pass (training-data hygiene): per-doc email/phone/IP
    match counts on the original text plus the md5 of the redacted text
    (EMAIL → IP → PHONE order, patterns shared verbatim with the DuckDB
    oracle). The testdata corpus is PII-free by construction, so the driver
    oracle pins the regex *plumbing*; tests/test_text.py pins the actual
    redaction semantics on injected PII strings."""
    from ..functions.textkernels import md5_hex, pii_scrub

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        n_emails, n_phones, n_ips, cleaned = pii_scrub(df.text)
        return pd.DataFrame({
            "doc_id": df.doc_id.to_numpy(),
            "n_emails": n_emails,
            "n_phones": n_phones,
            "n_ips": n_ips,
            "clean_md5": md5_hex(cleaned),
        })

    return docs.map_batches(f, batch_format="pandas")


# ---------------------------------------------- TPC-H join breadth (round 2g)
#
# Nine more classic join shapes, adapted to the testdata schema (no partsupp,
# no commit/receipt dates). Join-side discipline, applied consistently:
#   - nation/region: driver-side lookups (25 / 5 rows at every sf).
#   - supplier / part: BROADCAST maps (the two smallest sf-proportional
#     tables — TPC-H sizes them 100× / 10× smaller than lineitem; a dict of
#     int keys ships once per worker via the closure). Where the pattern is
#     the point, q19 instead joins lineitem ⋈ part with a distributed hash
#     join to demonstrate the at-scale alternative.
#   - customer / orders / lineitem: NEVER on the driver — distributed
#     hash-partition joins (_dsjoin) with block-level pre-aggregation
#     (_preagg) so every shuffle carries aggregate-sized rows.


def _nation_names(sf_dir: str) -> dict[int, str]:
    nat = read_testdata(sf_dir, "nation").to_pandas()
    return nat.set_index("n_nationkey")["n_name"].to_dict()


def q7_volume_shipping(sf_dir: str, n_a: str = "NATION_18",
                       n_b: str = "NATION_19"):
    """TPC-H Q7-shaped two-nation shipping volume: revenue between supplier
    nation and customer nation (both directions) per ship year, 1996–1997.
    customer⋈orders, lineitem⋈supplier and lineitem⋈(orders⋈customer) are
    all distributed hash joins (round-3 fix; rounds 1-2 gathered the O(SF)
    supplier table into a driver dict); the lineitem side is pre-aggregated
    by (orderkey, supp-nation, year) after the supplier join. Only the
    25-row nation map stays driver-side."""
    nmap = _nation_names(sf_dir)
    inv = {v: k for k, v in nmap.items()}
    keys = {inv[n_a], inv[n_b]}
    supp2 = read_testdata(sf_dir, "supplier",
                          columns=["s_suppkey", "s_nationkey"]) \
        .map_batches(lambda df: df[df.s_nationkey.isin(keys)],
                     batch_format="pandas")

    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_nationkey"])

    def c_proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.c_nationkey.isin(keys)]
        return pd.DataFrame({"o_custkey": df.c_custkey,
                             "cust_nk": df.c_nationkey})

    cust = cust.map_batches(c_proj, batch_format="pandas")
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey"])
    o_nat = _dsjoin(orders, cust, on=("o_custkey",)).select_columns(
        ["o_orderkey", "cust_nk"])

    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_suppkey", "l_shipdate",
                                "l_extendedprice", "l_discount"])

    def li_proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.l_shipdate >= lo) & (df.l_shipdate < hi)]
        return pd.DataFrame({
            "l_orderkey": df.l_orderkey, "l_suppkey": df.l_suppkey,
            "l_year": df.l_shipdate.dt.year.astype(np.int64),
            "revenue": df.l_extendedprice * (1.0 - df.l_discount)})

    li = li.map_batches(li_proj, batch_format="pandas")
    # inner join doubles as the two-nation supplier filter
    li = _dsjoin(li, supp2, on=("l_suppkey",), right_on=("s_suppkey",))

    def li_pre(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "o_orderkey": df.l_orderkey,
            "supp_nk": df.s_nationkey.astype(np.int64),
            "l_year": df.l_year,
            "revenue": df.revenue,
        })
        return out.groupby(["o_orderkey", "supp_nk", "l_year"],
                           as_index=False, sort=False).sum()

    li = li.map_batches(li_pre, batch_format="pandas")
    joined = _dsjoin(li, o_nat, on=("o_orderkey",))

    def cross(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.supp_nk != df.cust_nk]
        return pd.DataFrame({"supp_nation": df.supp_nk.map(nmap),
                             "cust_nation": df.cust_nk.map(nmap),
                             "l_year": df.l_year,
                             "revenue": df.revenue})

    agg = _preagg(joined.map_batches(cross, batch_format="pandas"),
                  ["supp_nation", "cust_nation", "l_year"],
                  [("revenue", "revenue", "sum")])
    df = agg.to_pandas()  # ≤ 2 directions × 2 years: tiny
    if df.empty:
        df = pd.DataFrame({"supp_nation": pd.Series(dtype=object),
                           "cust_nation": pd.Series(dtype=object),
                           "l_year": pd.Series(dtype=np.int64),
                           "revenue": pd.Series(dtype=np.float64)})
    df["revenue"] = df.revenue.round(4)
    return df.sort_values(["supp_nation", "cust_nation", "l_year"]
                          ).reset_index(drop=True)


def q8_market_share(sf_dir: str, nation: str = "NATION_3",
                    region: str = "EUROPE", ptype: str = "PROMO"):
    """TPC-H Q8-shaped market share: the fraction of PROMO-part revenue to
    EUROPE customers supplied by NATION_3, per order year 1996–1997. Every
    SF-proportional table meets the fact in a distributed hash join: part
    qualifies lineitem via an inner join on partkey, the target-nation
    supplier flag arrives by LEFT OUTER join on suppkey, orders⋈customer is
    a distributed join (round-3 fix; round 2 gathered part into a driver
    set). Only region/nation (25 constant rows) stay driver-side."""
    reg = read_testdata(sf_dir, "region").to_pandas()
    rk = reg.loc[reg.r_name == region, "r_regionkey"].iloc[0]
    nat = read_testdata(sf_dir, "nation").to_pandas()
    rnat = set(nat.loc[nat.n_regionkey == rk, "n_nationkey"])
    target_nk = nat.loc[nat.n_name == nation, "n_nationkey"].iloc[0]

    ppart = read_testdata(sf_dir, "part", columns=["p_partkey", "p_type"])

    def p_promo(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"p_partkey": df.loc[df.p_type == ptype, "p_partkey"]})

    ppart = ppart.map_batches(p_promo, batch_format="pandas")

    tsupp = read_testdata(sf_dir, "supplier",
                          columns=["s_suppkey", "s_nationkey"])

    def s_target(df: pd.DataFrame, _nk=int(target_nk)) -> pd.DataFrame:
        df = df[df.s_nationkey == _nk]
        return pd.DataFrame({"s_suppkey": df.s_suppkey,
                             "is_target": np.ones(len(df), dtype=np.float64)})

    tsupp = tsupp.map_batches(s_target, batch_format="pandas")

    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_nationkey"])

    def c_proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.c_nationkey.isin(rnat)]
        return pd.DataFrame({"o_custkey": df.c_custkey})

    cust = cust.map_batches(c_proj, batch_format="pandas")

    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.o_orderdate >= lo) & (df.o_orderdate < hi)]
        return pd.DataFrame({"o_orderkey": df.o_orderkey,
                             "o_custkey": df.o_custkey,
                             "o_year": df.o_orderdate.dt.year.astype(np.int64)})

    orders = orders.map_batches(o_proj, batch_format="pandas")
    o_eur = _dsjoin(orders, cust, on=("o_custkey",)).select_columns(
        ["o_orderkey", "o_year"])

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_partkey", "l_suppkey",
                                "l_extendedprice", "l_discount"])
    li = _dsjoin(li, ppart, on=("l_partkey",), right_on=("p_partkey",))
    li = _dsjoin(li, tsupp, on=("l_suppkey",), right_on=("s_suppkey",),
                 join_type="left_outer")

    def li_pre(df: pd.DataFrame) -> pd.DataFrame:
        vol = df.l_extendedprice * (1.0 - df.l_discount)
        out = pd.DataFrame({"o_orderkey": df.l_orderkey,
                            "volume": vol,
                            "vol_target": vol * df.is_target.fillna(0.0)})
        return out.groupby("o_orderkey", as_index=False, sort=False).sum()

    li = li.map_batches(li_pre, batch_format="pandas")
    joined = _dsjoin(li, o_eur, on=("o_orderkey",))
    agg = _preagg(joined.select_columns(["o_year", "volume", "vol_target"]),
                  ["o_year"], [("volume", "volume", "sum"),
                               ("vol_target", "vol_target", "sum")])
    df = agg.to_pandas()  # one row per year
    df["mkt_share"] = (df.vol_target / df.volume).round(6)
    return df[["o_year", "mkt_share"]].sort_values("o_year"
                                                   ).reset_index(drop=True)


def q9_profit_by_nation(sf_dir: str, word: str = "red"):
    """TPC-H Q9-shaped profit by supplier nation × order year, adapted to the
    schema (no partsupp): amount = extprice·(1−disc) − retailprice·qty·0.01
    for parts whose name contains `word`. part (retailprice) and supplier
    (nationkey) both reach lineitem by distributed hash joins — round-3 fix;
    round 2 gathered part into a driver price dict, O(SF) state. Only the
    25-row nation name map is a driver-side constant."""
    nmap = _nation_names(sf_dir)

    rpart = read_testdata(sf_dir, "part",
                          columns=["p_partkey", "p_name", "p_retailprice"])

    def p_match(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.p_name.str.contains(word)]
        return pd.DataFrame({"p_partkey": df.p_partkey,
                             "p_retailprice": df.p_retailprice})

    rpart = rpart.map_batches(p_match, batch_format="pandas")
    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_nationkey"])

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_partkey", "l_suppkey",
                                "l_quantity", "l_extendedprice",
                                "l_discount"])
    li = _dsjoin(li, rpart, on=("l_partkey",), right_on=("p_partkey",))
    li = _dsjoin(li, supp, on=("l_suppkey",), right_on=("s_suppkey",))

    def li_pre(df: pd.DataFrame) -> pd.DataFrame:
        amount = (df.l_extendedprice * (1.0 - df.l_discount)
                  - df.p_retailprice * df.l_quantity * 0.01)
        out = pd.DataFrame({
            "o_orderkey": df.l_orderkey,
            "n_name": df.s_nationkey.map(nmap),
            "amount": amount})
        return out.groupby(["o_orderkey", "n_name"],
                           as_index=False, sort=False).sum()

    li = li.map_batches(li_pre, batch_format="pandas")

    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_orderdate"])

    def o_proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_orderkey": df.o_orderkey,
                             "o_year": df.o_orderdate.dt.year.astype(np.int64)})

    orders = orders.map_batches(o_proj, batch_format="pandas")
    joined = _dsjoin(li, orders, on=("o_orderkey",))
    agg = _preagg(joined.select_columns(["n_name", "o_year", "amount"]),
                  ["n_name", "o_year"], [("sum_profit", "amount", "sum")])
    df = agg.to_pandas()  # 25 nations × 7 years
    df["sum_profit"] = df.sum_profit.round(4)
    return df.sort_values(["n_name", "o_year"],
                          ascending=[True, False]).reset_index(drop=True)


def q10_returned_items(sf_dir: str):
    """TPC-H Q10-shaped returned-item report: top 20 customers by revenue
    lost to returns ('R' lineitems) on 1996-Q3 orders. Three distributed
    stages — lineitem preagg by order, ⋈ date-filtered orders, re-agg by
    customer — then a distributed join against customer and a per-block
    top-k with a tiny driver merge."""
    nmap = _nation_names(sf_dir)
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_returnflag",
                                "l_extendedprice", "l_discount"])

    def li_pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.l_returnflag == "R"]
        out = pd.DataFrame({
            "o_orderkey": df.l_orderkey,
            "revenue": df.l_extendedprice * (1.0 - df.l_discount)})
        return out.groupby("o_orderkey", as_index=False, sort=False).sum()

    li = li.map_batches(li_pre, batch_format="pandas")

    lo = np.datetime64("1996-07-01", "us")
    hi = np.datetime64("1996-10-01", "us")
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_proj(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.o_orderdate >= lo) & (df.o_orderdate < hi)]
        return df[["o_orderkey", "o_custkey"]]

    orders = orders.map_batches(o_proj, batch_format="pandas")
    per_cust = _preagg(
        _dsjoin(li, orders, on=("o_orderkey",)).select_columns(
            ["o_custkey", "revenue"]),
        ["o_custkey"], [("revenue", "revenue", "sum")])

    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_name", "c_acctbal",
                                  "c_nationkey"])
    joined = _dsjoin(per_cust, cust, on=("o_custkey",),
                     right_on=("c_custkey",))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["revenue"] = df.revenue.round(4)
        df["n_name"] = df.c_nationkey.map(nmap)
        return df.sort_values(["revenue", "o_custkey"],
                              ascending=[False, True]).head(20)

    parts = joined.map_batches(topk, batch_format="pandas").to_pandas()
    df = parts.sort_values(["revenue", "o_custkey"],
                           ascending=[False, True]).head(20)
    df = df.rename(columns={"o_custkey": "c_custkey"})
    return df[["c_custkey", "c_name", "revenue", "c_acctbal",
               "n_name"]].reset_index(drop=True)


def q13_customer_distribution(sf_dir: str, excl: str = "1-URGENT"):
    """TPC-H Q13-shaped customer order-count distribution via a distributed
    LEFT OUTER join (customers with zero qualifying orders must surface as
    c_count=0): orders are pre-aggregated per customer, left-joined back to
    the full customer table, and the distribution re-aggregated."""
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_custkey", "o_orderpriority"])
    counts = _preagg(orders.filter(expr=f"o_orderpriority != '{excl}'")
                     .select_columns(["o_custkey"]),
                     ["o_custkey"], [("c_count", None, "count")])
    cust = read_testdata(sf_dir, "customer", columns=["c_custkey"])
    joined = _dsjoin(cust, counts, on=("c_custkey",),
                     right_on=("o_custkey",), join_type="left_outer")

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "c_count": df.c_count.fillna(0).astype(np.int64)})

    dist = _preagg(joined.map_batches(norm, batch_format="pandas"),
                   ["c_count"], [("custdist", None, "count")])
    df = dist.to_pandas()
    return df.sort_values(["custdist", "c_count"],
                          ascending=[False, False]).reset_index(drop=True)


def q16_supplier_part_counts(sf_dir: str, max_size: int = 15,
                             excl_type: str = "PROMO"):
    """TPC-H Q16-shaped distinct-supplier counts per (brand, size) using
    lineitem as the part↔supplier link (no partsupp in this schema).
    Fully join-based (round-3 fix; round 2 gathered part into driver dicts
    and suppliers into a driver set — both O(SF)): (partkey, suppkey) pairs
    dedup in the first hash aggregate, ANTI-join against negative-balance
    suppliers (the 'complaints' analogue), INNER join to the filtered part
    dimension for (brand, size), dedup again, count. Only the final
    (brand, size) counts (≤ brands × sizes) reach the driver."""
    part = read_testdata(sf_dir, "part",
                         columns=["p_partkey", "p_brand", "p_type",
                                  "p_size"])
    pok = part.map_batches(
        lambda df: df.loc[(df.p_type != excl_type)
                          & (df.p_size <= max_size),
                          ["p_partkey", "p_brand", "p_size"]],
        batch_format="pandas")
    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_acctbal"])
    bad = supp.map_batches(
        lambda df: df.loc[df.s_acctbal < 0, ["s_suppkey"]],
        batch_format="pandas")

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_partkey", "l_suppkey"])
    pairs = _preagg(li.map_batches(lambda df: df.drop_duplicates(),
                                   batch_format="pandas"),
                    ["l_partkey", "l_suppkey"],
                    [("n", None, "count")]) \
        .select_columns(["l_partkey", "l_suppkey"])
    pairs = _dsjoin(pairs, bad, on=("l_suppkey",), right_on=("s_suppkey",),
                    join_type="left_anti")
    bs = _dsjoin(pairs, pok, on=("l_partkey",), right_on=("p_partkey",))
    bss = _preagg(bs.select_columns(["p_brand", "p_size", "l_suppkey"]),
                  ["p_brand", "p_size", "l_suppkey"], [("n", None, "count")])
    cnt = _preagg(bss.select_columns(["p_brand", "p_size"]),
                  ["p_brand", "p_size"], [("supplier_cnt", None, "count")])
    df = cnt.to_pandas()  # ≤ brands × sizes
    return df.sort_values(["supplier_cnt", "p_brand", "p_size"],
                          ascending=[False, True, True]).reset_index(drop=True)


def q17_small_quantity_revenue(sf_dir: str, pbrand: str = "Brand#3"):
    """TPC-H Q17-shaped small-quantity order revenue: weekly-averaged
    revenue from Brand#3 lineitems whose quantity is below 20% of that
    part's corpus-wide average quantity. The per-part average is a
    distributed aggregate JOINED back to the filtered lineitems (the
    correlated-subquery shape) — exact, because quantities are integral so
    sum/count are order-independent in fp64."""
    # brand partkeys stay a Dataset: the lineitem filter is a distributed
    # LEFT SEMI join (round-3 fix; round 2 closed over a driver-side
    # Python set of O(SF) partkeys)
    bp = read_testdata(sf_dir, "part", columns=["p_partkey", "p_brand"]) \
        .map_batches(lambda df: df.loc[df.p_brand == pbrand, ["p_partkey"]],
                     batch_format="pandas")

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_partkey", "l_quantity",
                                "l_extendedprice"])
    li = _dsjoin(li, bp, on=("l_partkey",), right_on=("p_partkey",),
                 join_type="left_semi")
    avg = _preagg(li.select_columns(["l_partkey", "l_quantity"]),
                  ["l_partkey"], [("sq", "l_quantity", "sum"),
                                  ("nq", None, "count")])
    joined = _dsjoin(li, avg, on=("l_partkey",))

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        m = df.l_quantity < 0.2 * (df.sq / df.nq)
        return pd.DataFrame({"s": [df.l_extendedprice[m].sum()],
                             "n": [np.int64(1)]})

    tot = _preagg(joined.map_batches(pre, batch_format="pandas"),
                  ["n"], [("s", "s", "sum")]).to_pandas()
    return pd.DataFrame({"avg_yearly": [round(float(tot.s.iloc[0]) / 7.0, 4)]})


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19-shaped disjunctive-predicate revenue over a DISTRIBUTED
    lineitem ⋈ part hash join (the at-scale alternative to broadcasting
    part), with the three brand/size/quantity disjuncts evaluated
    vectorized on the joined batches."""
    part = read_testdata(sf_dir, "part",
                         columns=["p_partkey", "p_brand", "p_size"])
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_partkey", "l_quantity",
                                "l_extendedprice", "l_discount"])
    joined = _dsjoin(li, part, on=("l_partkey",), right_on=("p_partkey",))

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        q, b, s = df.l_quantity, df.p_brand, df.p_size
        m = (((b == "Brand#1") & (s <= 10) & (q >= 1) & (q <= 20))
             | ((b == "Brand#2") & (s <= 20) & (q >= 10) & (q <= 30))
             | ((b == "Brand#3") & (s <= 30) & (q >= 20) & (q <= 40)))
        rev = (df.l_extendedprice * (1.0 - df.l_discount))[m]
        return pd.DataFrame({"s": [rev.sum()], "n": [np.int64(1)]})

    tot = _preagg(joined.map_batches(pre, batch_format="pandas"),
                  ["n"], [("s", "s", "sum")]).to_pandas()
    return pd.DataFrame({"revenue": [round(float(tot.s.iloc[0]), 4)]})


def q22_idle_customers(sf_dir: str, since: str = "1999-01-01"):
    """TPC-H Q22-shaped global-sales-opportunity report, grouped by nation
    (no phone column in this schema): customers with above-average positive
    balance and no order since `since` (every synthetic customer has SOME
    order, so the classic no-orders-at-all predicate selects nothing). The
    global average is a distributed two-pass scalar; the no-recent-orders
    test is a distributed ANTI join against the deduped recent-orders key
    set."""
    nmap = _nation_names(sf_dir)
    cust = read_testdata(sf_dir, "customer",
                         columns=["c_custkey", "c_acctbal", "c_nationkey"])

    def pos_pre(df: pd.DataFrame) -> pd.DataFrame:
        v = df.c_acctbal[df.c_acctbal > 0.0]
        return pd.DataFrame({"s": [v.sum()], "c": [np.int64(len(v))],
                             "n": [np.int64(1)]})

    tot = _preagg(cust.map_batches(pos_pre, batch_format="pandas"),
                  ["n"], [("s", "s", "sum"), ("c", "c", "sum")]).to_pandas()
    thresh = float(tot.s.iloc[0]) / float(tot.c.iloc[0])

    rich = cust.map_batches(
        lambda df: df[df.c_acctbal > thresh], batch_format="pandas")
    recent = read_testdata(sf_dir, "orders",
                           columns=["o_custkey", "o_orderdate"]) \
        .map_batches(_ts_filter("o_orderdate", "greater_equal", since),
                     batch_format="pyarrow") \
        .select_columns(["o_custkey"])
    okeys = _preagg(recent, ["o_custkey"], [("n", None, "count")]) \
        .select_columns(["o_custkey"])
    idle = _dsjoin(rich, okeys, on=("c_custkey",), right_on=("o_custkey",),
                   join_type="left_anti")

    def to_nat(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n_name": df.c_nationkey.map(nmap),
                             "acctbal": df.c_acctbal})

    agg = _preagg(idle.map_batches(to_nat, batch_format="pandas"),
                  ["n_name"], [("numcust", None, "count"),
                               ("totacctbal", "acctbal", "sum")])
    df = agg.to_pandas()  # ≤ 25 nations
    df["totacctbal"] = df.totacctbal.round(4)
    return df.sort_values("n_name").reset_index(drop=True)


def events_purchase_error_matrix(sf_dir: str):
    """FULL OUTER join reconciliation at (user, day) grain: per-user-day
    purchase stats ⋈ error counts, with zero-fill on both unmatched sides
    (~40% of user-days are one-sided in the synthetic stream — the outer
    semantics are genuinely exercised). Both sides are distributed
    pre-aggregates; the join is Ray's hash-partition full_outer."""
    ev = read_testdata(sf_dir, "events",
                       columns=["user_id", "ts", "event_type", "value"])

    def side(etype: str, with_value: bool):
        def pre(df: pd.DataFrame) -> pd.DataFrame:
            df = df[df.event_type == etype]
            out = pd.DataFrame({
                "user_id": df.user_id,
                "day": df.ts.dt.strftime("%Y-%m-%d")})
            if with_value:
                out["value"] = df.value.to_numpy()
            return out
        cols = [("n_" + etype, None, "count")]
        if with_value:
            cols.append(("v_" + etype, "value", "sum"))
        return _preagg(ev.map_batches(pre, batch_format="pandas"),
                       ["user_id", "day"], cols)

    p = side("purchase", True)
    e = side("error", False)
    # Ray's full_outer COALESCES the key columns (never-null user_id/day)
    joined = _dsjoin(p, e, on=("user_id", "day"), join_type="full_outer")

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df.user_id,
            "day": df.day,
            "n_purchase": df.n_purchase.fillna(0).astype(np.int64),
            "v_purchase": df.v_purchase.fillna(0.0).round(4),
            "n_error": df.n_error.fillna(0).astype(np.int64)})

    return joined.map_batches(norm, batch_format="pandas")


def doc_unigram_xent(sf_dir: str):
    """Unigram-LM cross-entropy per document — the perplexity-filter
    analogue used by LLM data pipelines (CCNet / Gopher style): pass 1
    builds the corpus unigram distribution with a distributed word-count
    (per-block value_counts partials → hash-partition sum); the vocabulary
    (bounded by |vocab|, not corpus size — the model, not the data) is
    gathered once and broadcast into pass 2, which scores each doc as
    mean(−ln p(w)), p(w) = cnt(w)/N over the whole-corpus ML estimate.
    Every token is in-vocab by construction (the model was fit on this
    corpus), so no OOV smoothing is needed; the SQL oracle recomputes the
    identical estimate relationally."""
    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df.text.fillna("").str.split(" ").explode().value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(dtype=object),
                             "cnt": vc.to_numpy(dtype=np.int64)})

    counts = _preagg(docs.map_batches(partial, batch_format="pandas"),
                     ["word"], [("cnt", "cnt", "sum")]).to_pandas()
    total = float(counts.cnt.sum())
    logp = -np.log(counts.cnt.to_numpy(np.float64) / total)
    lp_map = pd.Series(logp, index=counts.word)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = df.set_index("doc_id").text.fillna("").str.split(" ").explode()
        xent = toks.map(lp_map).groupby(level=0)
        out = pd.DataFrame({"xent": xent.mean().round(6),
                            "n_tokens": xent.size().astype(np.int64)})
        return out.reset_index()

    return docs.map_batches(score, batch_format="pandas")


def events_props_stats(sf_dir: str):
    """Semi-structured JSON handling: extract the integer field ``k`` from
    the ``props`` JSON-string column (vectorized regex — the schema is
    '{"k": <int>}'; a malformed row degrades to NULL and is dropped, same
    as SQL json_extract) and aggregate per event type. Demonstrates the
    props-payload path a clickstream pipeline needs without shipping a JSON
    parser per row."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "props"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        k = pd.to_numeric(
            df.props.str.extract(r'"k"\s*:\s*(-?\d+)', expand=False),
            errors="coerce")
        out = pd.DataFrame({"event_type": df.event_type, "k": k})
        return out[out.k.notna()]

    agg = _preagg(ev.map_batches(pre, batch_format="pandas"),
                  ["event_type"], [("n", None, "count"),
                                   ("sum_k", "k", "sum")])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": df.event_type,
                             "n": df.n,
                             "sum_k": df.sum_k.astype(np.int64),
                             "avg_k": (df.sum_k / df.n).round(6)})

    return agg.map_batches(fin, batch_format="pandas")


def doc_source_token_budget(sf_dir: str, budget: int = 1000):
    """Data-mix curation: per-source token budget enforcement. Within every
    source, documents are ranked by quality desc (doc_id tiebreak — the
    rounded quality score has proven bit-exact SQL parity, so the rank is
    deterministic across engines) and kept while the running token count
    stays within the budget — the greedy quality-first mix used to cap
    over-represented domains in LLM training sets. The rank+cumsum runs
    inside groupby(source).map_groups, distributed per source; only
    (id, score, count) rows ride the shuffle, never the text."""
    from ..functions.textkernels import quality_score, token_count

    docs = read_testdata(sf_dir, "documents",
                         columns=["doc_id", "source", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df.doc_id,
            "source": df.source,
            "quality": quality_score(df.text).round(6),
            "n_tokens": token_count(df.text).astype(np.int64)})

    scored = docs.map_batches(score, batch_format="pandas")

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["quality", "doc_id"], ascending=[False, True],
                          kind="stable")
        g["cum_tokens"] = g.n_tokens.cumsum()
        return g[g.cum_tokens <= budget]

    return scored.groupby("source").map_groups(cut, batch_format="pandas")


def sample_join_uniform(sf_dir: str, k: int = 200):
    """Uniform sampling OVER A JOIN without materializing the join
    (Reservoir Sampling over Joins, SIGMOD'24 / Sampling over Union of
    Joins, SIGMOD'23 — the FK-join special case): lineitem⋈orders is
    key-preserving on the lineitem side (every lineitem matches exactly one
    order), so a uniform sample of the join IS a uniform sample of lineitem
    pushed BELOW the join. Deterministic salted-md5 priorities make the
    sample reproducible across runs/partitionings and give the SQL oracle
    bit-exact parity (ORDER BY md5(...) LIMIT k over the real join).

    Plan: per-block partial top-k by priority (shuffle ≤ k × blocks rows,
    never the fact table) → bounded driver merge → broadcast the k sampled
    orderkeys → distributed filter of orders → tiny join."""
    import hashlib

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_linenumber", "l_quantity"])

    # (l_orderkey, l_linenumber) is NOT unique in the synthetic data, so
    # the priority hashes every output-determining column — tied priorities
    # are then value-identical rows and either engine's pick compares equal.
    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["hx"] = [hashlib.md5(
            f"joinsamp:{int(o)}:{int(n)}:{int(q)}".encode()).hexdigest()
            for o, n, q in zip(df.l_orderkey, df.l_linenumber,
                               df.l_quantity)]
        return df.sort_values(["hx", "l_orderkey", "l_linenumber"]).head(k)

    parts = li.map_batches(topk, batch_format="pandas").to_pandas()
    samp = parts.sort_values(["hx", "l_orderkey", "l_linenumber"]).head(k)
    keys = set(samp.l_orderkey)

    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_orderpriority"])
    omap = orders.map_batches(
        lambda df: df[df.o_orderkey.isin(keys)],
        batch_format="pandas").to_pandas()  # ≤ k rows
    out = samp.merge(omap, left_on="l_orderkey", right_on="o_orderkey")
    return out[["l_orderkey", "l_linenumber", "l_quantity",
                "o_orderpriority"]].reset_index(drop=True)


def geo_distance_join(sf_dir: str, radius: int = 20):
    """Spatial DISTANCE self-join (Random Sampling over Spatial Range Joins,
    ICDE'25 family — the join itself, exact): for every event point, count
    neighbors within `radius` milli-degrees (planar metric over the integer
    point lattice — integer-only arithmetic so the SQL oracle is bit-exact;
    the haversine variant is geo_knn_station's domain).

    The distributed plan is the canonical cell-bucket range join: each point
    lands HOME in its (mlon//R, mlat//R) cell and is GHOST-replicated to the
    8 neighbor cells (_grid_copies: a 9× shuffle of slim integer keys, never
    the payload), grouped by cell BUCKET; every pair within R is then local
    to exactly one home cell, and each bucket counts its home × cell
    candidates with one merge on cell (cell size = R caps the group radius;
    skewed cells would be salted exactly like the flagship's census plan).
    Output: per-event neighbor count + min squared distance, events with ≥1
    neighbor."""
    ev = read_testdata(sf_dir, "events", columns=["event_id"])
    nbk = _nbuckets(9 * _pq_nrows(testdata_path(sf_dir, "events")),
                    rows_per_bucket=8192, lo=32)
    r2 = radius * radius

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        eid = df.event_id.to_numpy(np.int64)
        mlat = eid % 2900
        mlon = (eid // 7) % 4300
        return _grid_copies(mlon // radius, mlat // radius,
                            {"event_id": eid, "mlat": mlat, "mlon": mlon},
                            nbk)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["cell", "event_id", "mlat", "mlon"]
        m = g[g.home][cols].merge(g[cols], on="cell", suffixes=("_a", "_b"))
        dy = m.mlat_a.to_numpy(np.int64) - m.mlat_b.to_numpy(np.int64)
        dx = m.mlon_a.to_numpy(np.int64) - m.mlon_b.to_numpy(np.int64)
        d2 = dy * dy + dx * dx
        ida = m.event_id_a.to_numpy(np.int64)
        keep = (ida != m.event_id_b.to_numpy(np.int64)) & (d2 <= r2)
        out = (pd.DataFrame({"event_id": ida[keep], "d2": d2[keep]})
               .groupby("event_id", sort=False).d2.agg(["size", "min"]))
        return pd.DataFrame({"event_id": out.index.to_numpy(np.int64),
                             "n_neighbors": out["size"].to_numpy(np.int64),
                             "min_d2": out["min"].to_numpy(np.int64)})

    return (ev.map_batches(replicate, batch_format="pandas")
            .groupby("bk").map_groups(per_bucket, batch_format="pandas"))


def sample_weighted(sf_dir: str, k: int = 20):
    """Weighted sampling without replacement (Efraimidis–Spirakis priorities,
    the streaming-weighted-sampling building block from EDBT'23): keep the k
    lineitems with the largest u^(1/w), u a deterministic md5-derived
    uniform, w = l_quantity — heavier rows proportionally likelier, yet the
    sample is reproducible across runs/partitionings and both engines
    compute the BIT-EXACT same double key (verified: pow parity holds).
    Per-block partial top-k (the shuffle carries ≤ k × blocks rows) →
    bounded driver merge."""
    import hashlib

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_linenumber", "l_quantity"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        # SCALAR pow inside the (already per-row) md5 loop: numpy's
        # vectorized pow and libm's scalar pow disagree by 1 ulp on some
        # inputs, and DuckDB uses libm — scalar keeps the priority keys
        # BIT-EXACT across both engines (round-4 sf0.1 finding)
        df["wkey"] = [
            (int(hashlib.md5(f"ws:{int(o)}:{int(n)}:{int(q)}".encode())
                 .hexdigest()[:8], 16) / 4294967296.0) ** (1.0 / float(q))
            for o, n, q in zip(df.l_orderkey, df.l_linenumber,
                               df.l_quantity)]
        return df.sort_values(["wkey", "l_orderkey", "l_linenumber"],
                              ascending=[False, True, True]).head(k)

    parts = li.map_batches(topk, batch_format="pandas").to_pandas()
    out = parts.sort_values(["wkey", "l_orderkey", "l_linenumber"],
                            ascending=[False, True, True]).head(k)
    out["wkey"] = out.wkey.round(6)
    return out[["l_orderkey", "l_linenumber", "l_quantity",
                "wkey"]].reset_index(drop=True)


def events_groupby_estimate(sf_dir: str, pct: int = 10):
    """Sample-based GROUP BY estimation (Every Row Counts, CIDR'19):
    per-type counts estimated from a deterministic md5 Bernoulli sample
    (rate pct%), reported beside the exact count and the signed relative
    error — the accuracy-audit table a sampling-based SQL engine maintains.
    One pass computes both (the exact side is the audit, not a second
    scan in production); the sample membership hashes the row id so both
    engines select the identical sample."""
    import hashlib

    ev = read_testdata(sf_dir, "events", columns=["event_id", "event_type"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        insamp = np.array([int(hashlib.md5(
            f"gb:{int(e)}".encode()).hexdigest()[:8], 16) % 100 < pct
            for e in df.event_id])
        out = pd.DataFrame({"event_type": df.event_type,
                            "n_samp": insamp.astype(np.int64)})
        g = out.groupby("event_type", sort=False)
        return pd.DataFrame({"event_type": g.size().index,
                             "n_samp": g.n_samp.sum().to_numpy(),
                             "n_exact": g.size().to_numpy().astype(np.int64)})

    agg = _preagg(ev.map_batches(pre, batch_format="pandas"),
                  ["event_type"], [("n_samp", "n_samp", "sum"),
                                   ("n_exact", "n_exact", "sum")])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        est = (df.n_samp * (100 // pct)).astype(np.int64)
        return pd.DataFrame({
            "event_type": df.event_type,
            "n_est": est,
            "n_exact": df.n_exact,
            "rel_err": ((est - df.n_exact) / df.n_exact).round(6)})

    return agg.map_batches(fin, batch_format="pandas")


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15-shaped top supplier: revenue per supplier for 1996-Q1
    shipments, returning every supplier tied at the max (the scalar
    subquery over an aggregate). The per-supplier aggregate is distributed;
    the max is a two-phase scalar (per-block max partials → tiny driver
    max) and the filter runs distributed on the already-small aggregate."""
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1996-04-01", "us")
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_suppkey", "l_shipdate",
                                "l_extendedprice", "l_discount"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.l_shipdate >= lo) & (df.l_shipdate < hi)]
        return pd.DataFrame({
            "l_suppkey": df.l_suppkey,
            "total_revenue": df.l_extendedprice * (1.0 - df.l_discount)})

    per_supp = _preagg(li.map_batches(pre, batch_format="pandas"),
                       ["l_suppkey"], [("total_revenue", "total_revenue",
                                        "sum")])

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["total_revenue"] = df.total_revenue.round(4)
        return df

    per_supp = per_supp.map_batches(rnd, batch_format="pandas")
    mx = per_supp.map_batches(
        lambda df: pd.DataFrame({"m": [df.total_revenue.max()]})
        if len(df) else pd.DataFrame({"m": pd.Series(dtype=float)}),
        batch_format="pandas").to_pandas()  # one row per block
    m = float(mx.m.max())
    top = per_supp.map_batches(
        lambda df: df[df.total_revenue == m], batch_format="pandas")
    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_name"])
    joined = _dsjoin(top, supp, on=("l_suppkey",), right_on=("s_suppkey",))
    df = joined.to_pandas()  # ties at the max: tiny
    return df[["l_suppkey", "s_name", "total_revenue"]] \
        .sort_values("l_suppkey").reset_index(drop=True)


def suppliers_with_returns(sf_dir: str):
    """Native LEFT SEMI join (Ray join_type='left_semi'): suppliers with at
    least one returned 1996 lineitem — existence, not multiplicity, so the
    probe side is deduped per block before the shuffle and the semi join
    emits each left row at most once (no post-dedup needed)."""
    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_suppkey", "l_returnflag", "l_shipdate"])

    def keys(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.l_returnflag == "R")
                & (df.l_shipdate >= lo) & (df.l_shipdate < hi)]
        return pd.DataFrame({"l_suppkey": df.l_suppkey.unique()})

    probe = li.map_batches(keys, batch_format="pandas")
    semi = _dsjoin(supp, probe, on=("s_suppkey",), right_on=("l_suppkey",),
                   join_type="left_semi")
    nmap = _nation_names(sf_dir)
    return semi.map_batches(
        lambda df: pd.DataFrame({"s_suppkey": df.s_suppkey,
                                 "s_name": df.s_name,
                                 "n_name": df.s_nationkey.map(nmap)}),
        batch_format="pandas")


# ------------------------------------------- round 2h: final join/agg breadth


def q12_priority_by_status(sf_dir: str):
    """TPC-H Q12-shaped shipping classification (adapted: this schema has no
    l_shipmode/commitdate, so the grouping dimension is l_linestatus and the
    window is shipdate-1996): a DISTRIBUTED lineitem ⋈ orders hash join
    feeding vectorized conditional counts — high-priority (1-URGENT/2-HIGH)
    vs low-priority line counts per status. The lineitem side is
    pre-aggregated to (orderkey, linestatus, n) BEFORE the join, so the
    exchange carries one row per order × status instead of one per line —
    the same preagg-below-join rule every fact⋈fact query here follows."""
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_linestatus", "l_shipdate"])

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.l_shipdate >= lo) & (df.l_shipdate < hi)]
        return df[["l_orderkey", "l_linestatus"]]

    cnt = _preagg(li.map_batches(pre, batch_format="pandas"),
                  ["l_orderkey", "l_linestatus"],
                  [("n_lines", None, "count")])
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderkey", "o_orderpriority"])
    joined = _dsjoin(cnt, orders, on=("l_orderkey",),
                     right_on=("o_orderkey",))

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        hi_m = df.o_orderpriority.isin(("1-URGENT", "2-HIGH")).to_numpy()
        n = df.n_lines.to_numpy(np.int64)
        return pd.DataFrame({"l_linestatus": df.l_linestatus,
                             "high_line_count": np.where(hi_m, n, 0),
                             "low_line_count": np.where(hi_m, 0, n)})

    agg = _preagg(joined.map_batches(classify, batch_format="pandas"),
                  ["l_linestatus"],
                  [("high_line_count", "high_line_count", "sum"),
                   ("low_line_count", "low_line_count", "sum")])
    df = agg.to_pandas()
    df["high_line_count"] = df.high_line_count.astype(np.int64)
    df["low_line_count"] = df.low_line_count.astype(np.int64)
    return df.sort_values("l_linestatus").reset_index(drop=True)


def q21_waiting_suppliers(sf_dir: str, k: int = 10):
    """TPC-H Q21-shaped double-correlated EXISTS / NOT EXISTS (adapted: no
    commit/receipt dates, so 'the supplier that held up the order' is the
    one whose latest shipdate within a multi-supplier order is STRICTLY
    later than every other supplier's). Plan: one hash aggregate to
    per-(order, supplier) max-shipdate rows, then ONE orderkey-hash shuffle
    whose per-partition combine evaluates both correlated subqueries with
    vectorized pandas transforms (group max / sizes) — never a per-order
    Python loop, never a driver materialization. Output: top-k blamed
    suppliers (count desc, suppkey asc — total order, deterministic)."""
    import ray

    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    sm = _preagg(li, ["l_orderkey", "l_suppkey"],
                 [("md", "l_shipdate", "max")])

    npart = max(8, int(ray.cluster_resources().get("CPU", 8)))

    def key(df: pd.DataFrame) -> pd.DataFrame:
        df["_pk"] = (pd.util.hash_pandas_object(df["l_orderkey"], index=False)
                     % npart).astype("int32")
        return df

    def blame(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_orderkey", sort=False)
        mx = g.md.transform("max")
        ns = g.l_orderkey.transform("size")
        w = df[(df.md.to_numpy() == mx.to_numpy()) & (ns.to_numpy() >= 2)]
        nw = w.groupby("l_orderkey", sort=False).l_suppkey.transform("size")
        w = w[nw.to_numpy() == 1]
        return pd.DataFrame({"l_suppkey": w.l_suppkey.astype(np.int64)})

    blamed = (sm.map_batches(key, batch_format="pandas")
                .groupby("_pk")
                .map_groups(lambda df: blame(df.drop(columns=["_pk"])),
                            batch_format="pandas"))
    cnt = _preagg(blamed, ["l_suppkey"], [("numwait", None, "count")])

    # per-block partial top-k so the driver merges ≤ blocks × k rows, not the
    # full supplier-level aggregate (sf-proportional at scale)
    def topk_block(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["numwait", "l_suppkey"],
                              ascending=[False, True]).head(k)

    cnt = cnt.map_batches(topk_block, batch_format="pandas").to_pandas()
    cnt["numwait"] = cnt.numwait.astype(np.int64)
    return (cnt.sort_values(["numwait", "l_suppkey"],
                            ascending=[False, True])
            .head(k).reset_index(drop=True))


def events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, dow): all four grouping sets from ONE
    distributed finest pass (type × day-of-week ≤ 35 rows); the three
    coarser marginals are derived from that tiny table — the standard cube
    optimization (additive measures re-aggregate exactly for counts;
    float sums re-associate, so a marginal can in principle land on the
    other side of a round(·,4) boundary vs the oracle's raw-value sum —
    same risk class as every distributed fp sum here, empirically green at
    both gate scales). 'ALL' marks a rolled-up dimension, same convention
    as events_rollup."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts", "value"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        # (dayofweek+1) % 7 maps pandas Monday=0 onto strftime %w Sunday=0
        dow = ((df.ts.dt.dayofweek + 1) % 7).astype(str)
        return pd.DataFrame({"event_type": df.event_type, "dow": dow,
                             "value": df.value})

    finest = _preagg(ev.map_batches(tag, batch_format="pandas"),
                     ["event_type", "dow"],
                     [("n_events", None, "count"),
                      ("sum_value", "value", "sum")]).to_pandas()
    # the 'ALL' sentinel marks a rolled-up dimension on BOTH engines; a
    # NULL or literal 'ALL' event_type would collide silently — fail loudly
    # instead (same contract as the oracle's COALESCE(event_type,'ALL'))
    assert finest.event_type.notna().all() and \
        (finest.event_type != "ALL").all(), \
        "event_type NULL/'ALL' collides with the cube rollup sentinel"
    per_type = finest.groupby("event_type", as_index=False).agg(
        n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
    per_type["dow"] = "ALL"
    per_dow = finest.groupby("dow", as_index=False).agg(
        n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
    per_dow["event_type"] = "ALL"
    grand = pd.DataFrame({"event_type": ["ALL"], "dow": ["ALL"],
                          "n_events": [finest.n_events.sum()],
                          "sum_value": [finest.sum_value.sum()]})
    out = pd.concat([finest, per_type, per_dow, grand], ignore_index=True)
    out["n_events"] = out.n_events.astype(np.int64)
    out["sum_value"] = out.sum_value.round(4)
    return out[["event_type", "dow", "n_events", "sum_value"]]


def events_skewkurt(sf_dir: str):
    """Higher-moment aggregates (population skewness and excess kurtosis per
    event_type) via the numerically-stable TWO-PASS pattern (same shape as
    lineitem_corr_stats): pass 1 = distributed (n, Σv) → broadcast means;
    pass 2 = centered power sums. Centered sums avoid the catastrophic
    cancellation of the one-pass raw-moment identity; the SQL oracle spells
    out the IDENTICAL centered formula, so parity holds within round(·, 6)."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "value"])
    m1 = _preagg(ev, ["event_type"],
                 [("n", None, "count"), ("sv", "value", "sum")]).to_pandas()
    means = {r.event_type: r.sv / r.n for r in m1.itertuples()}

    def centered(df: pd.DataFrame) -> pd.DataFrame:
        mu = df.event_type.map(means).to_numpy(np.float64)
        d = df.value.to_numpy(np.float64) - mu
        d2 = d * d
        return pd.DataFrame({"event_type": df.event_type,
                             "d2": d2, "d3": d2 * d, "d4": d2 * d2})

    m2 = _preagg(ev.map_batches(centered, batch_format="pandas"),
                 ["event_type"],
                 [("d2", "d2", "sum"), ("d3", "d3", "sum"),
                  ("d4", "d4", "sum")]).to_pandas()
    df = m1.merge(m2, on="event_type")
    n = df.n.astype(np.float64)
    v = df.d2 / n
    # zero-variance guard: both engines emit NULL/NaN explicitly instead of
    # relying on divide-by-zero representation (oracle: CASE WHEN ... = 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        skew = np.where(v > 0, df.d3 / n / np.power(v, 1.5), np.nan)
        kurt = np.where(v > 0, df.d4 / n / (v * v) - 3.0, np.nan)
    return pd.DataFrame({
        "event_type": df.event_type,
        "n": df.n.astype(np.int64),
        "skew_pop": pd.Series(skew).round(6),
        "kurt_excess": pd.Series(kurt).round(6),
    }).sort_values("event_type").reset_index(drop=True)


def events_value_mad(sf_dir: str):
    """Median absolute deviation per event_type — the robust-dispersion
    member of the A4 percentile family: one event_type-keyed exchange, both
    medians computed exactly in-group (np.median ≡ DuckDB median linear
    interpolation). Same extreme-cardinality note as
    events_value_percentiles: swap in t-digest partials when one group
    outgrows a worker's heap."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "value"])

    def grp(g: pd.DataFrame) -> pd.DataFrame:
        v = g.value.to_numpy(np.float64)
        med = float(np.median(v))
        return pd.DataFrame({
            "event_type": [g.event_type.iloc[0]],
            "n": [np.int64(len(g))],
            "median_value": [round(med, 6)],
            "mad_value": [round(float(np.median(np.abs(v - med))), 6)],
        })

    return ev.groupby("event_type").map_groups(grp, batch_format="pandas")


def events_interval_join(sf_dir: str, window_h: int = 2):
    """INTERVAL (band) self-join: per user, the number of (error event,
    purchase window) pairs where the error falls inside
    [purchase_ts, purchase_ts + 2h]. Unlike events_asof_purchase (which
    matches only the MOST RECENT purchase), every covering window counts —
    the overlap-multiplicity interval-join semantic. One user_id-keyed
    shuffle; inside each group the pair count is two np.searchsorted calls
    against the user's sorted purchase timestamps (integer-µs arithmetic on
    both engines → bit-exact SQL parity). Users with zero pairs drop out,
    matching the SQL inner join."""
    ev = read_testdata(sf_dir, "events",
                       columns=["user_id", "ts", "event_type"])
    W = window_h * 3_600_000_000

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        et = g.event_type.to_numpy()
        us = _epoch_us(g.ts)
        p = np.sort(us[et == "purchase"])
        e = us[et == "error"]
        empty = pd.DataFrame({"user_id": np.array([], dtype=np.int64),
                              "n_pairs": np.array([], dtype=np.int64)})
        if len(p) == 0 or len(e) == 0:
            return empty
        # purchases covering e: p ∈ [e − W, e]
        n = (np.searchsorted(p, e, side="right")
             - np.searchsorted(p, e - W, side="left"))
        tot = int(n.sum())
        if tot == 0:
            return empty
        return pd.DataFrame({"user_id": [np.int64(g.user_id.iloc[0])],
                             "n_pairs": [np.int64(tot)]})

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


def events_ntile(sf_dir: str, tiles: int = 4):
    """NTILE(4) window bucketing per event_type: rows totally ordered by
    (value, event_id) are split into 4 near-equal buckets — the first
    n mod 4 buckets take the extra row, exactly SQL NTILE — and reported as
    per-(type, tile) count + mean. One event_type-keyed exchange, one
    argsort per group (same in-group scale boundary as
    events_value_percentiles)."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "event_type", "value"])

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        v = g.value.to_numpy(np.float64)
        order = np.lexsort((g.event_id.to_numpy(np.int64), v))
        n = len(v)
        base, rem = divmod(n, tiles)
        sizes = np.full(tiles, base, dtype=np.int64)
        sizes[:rem] += 1
        sv = v[order]
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        rows = []
        for t in range(tiles):
            seg = sv[bounds[t]:bounds[t + 1]]
            rows.append({"event_type": g.event_type.iloc[0],
                         "tile": np.int64(t + 1),
                         "n": np.int64(len(seg)),
                         "avg_value": round(float(seg.sum() / len(seg)), 6)})
        return pd.DataFrame(rows)

    return ev.groupby("event_type").map_groups(per_type,
                                               batch_format="pandas")


def zonal_stats_landcover(sf_dir: str):
    """Zonal statistics over the J2 spatial-join output: per land-cover
    class (the polygon layer each image fell in), image count, elevation
    coverage and means of elevation/footprint — the reference's PostGIS
    zonal-summary view family (create-tables.sql A3 analogue) recomputed
    over the materialized enriched parquet with one tiny-key hash
    aggregate. NULL class (no GPS / outside polygons) groups as 'none' on
    both engines."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(
        ["landcover_class", "elevation_m", "footprint_m2"])

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "landcover_class": df.landcover_class.fillna("none"),
            "n": np.int64(1),
            "sum_elev": df.elevation_m.fillna(0.0),
            "n_elev": df.elevation_m.notna().astype(np.int64),
            "sum_fp": df.footprint_m2.fillna(0.0),
            "n_fp": df.footprint_m2.notna().astype(np.int64),
        })

    agg = _preagg(ds.map_batches(tag, batch_format="pandas"),
                  ["landcover_class"],
                  [("n_images", "n", "sum"), ("sum_elev", "sum_elev", "sum"),
                   ("n_elev", "n_elev", "sum"), ("sum_fp", "sum_fp", "sum"),
                   ("n_fp", "n_fp", "sum")]).to_pandas()
    agg["mean_elevation"] = (agg.sum_elev / agg.n_elev.clip(lower=1)).round(4)
    agg["mean_footprint_m2"] = (agg.sum_fp / agg.n_fp.clip(lower=1)).round(4)
    agg["n_images"] = agg.n_images.astype(np.int64)
    agg["n_elev"] = agg.n_elev.astype(np.int64)
    return agg[["landcover_class", "n_images", "n_elev",
                "mean_elevation", "mean_footprint_m2"]]


def events_value_histogram(sf_dir: str, bins: int = 20):
    """Equal-width histogram over events.value — the A5 histogram family
    with an exact SQL oracle (px_histogram's bins come from decoded pixels,
    so it is rows-only; this one is value-checked end to end): pass 1 =
    distributed global min/max (order-insensitive, exact); pass 2 =
    vectorized bin ids + one tiny-key hash aggregate. bin =
    min(floor((v − mn)/w), bins−1) with w = (mx − mn)/bins, the IDENTICAL
    fp expression on both engines → bit-exact."""
    ev = read_testdata(sf_dir, "events", columns=["value"])
    mm = ev.map_batches(
        lambda df: pd.DataFrame({"mn": [df.value.min()],
                                 "mx": [df.value.max()]}),
        batch_format="pandas").to_pandas()  # one row per block
    mn, mx = float(mm.mn.min()), float(mm.mx.max())
    w = (mx - mn) / bins

    def binit(df: pd.DataFrame) -> pd.DataFrame:
        if w == 0.0:  # degenerate range (min == max): everything is bin 0,
            # guarded identically in the SQL oracle (CASE WHEN mx = mn)
            return pd.DataFrame({"bin": np.zeros(len(df), dtype=np.int64)})
        b = np.floor((df.value.to_numpy(np.float64) - mn) / w)
        return pd.DataFrame({"bin": np.minimum(b, bins - 1).astype(np.int64)})

    agg = _preagg(ev.map_batches(binit, batch_format="pandas"),
                  ["bin"], [("n", None, "count")]).to_pandas()
    agg["bin_lo"] = (mn + agg.bin * w).round(6)
    agg["n"] = agg.n.astype(np.int64)
    return (agg.sort_values("bin").reset_index(drop=True)
            [["bin", "bin_lo", "n"]])


def orders_monthly_growth(sf_dir: str):
    """Month-over-month revenue growth: LAG window over a monthly
    aggregate — the Ray-Data form of
    ``revenue / LAG(revenue) OVER (ORDER BY month) − 1``.

    Scale contract: the heavy part (summing SF×1.5M orders into monthly
    buckets) is the distributed ``_preagg``; the LAG itself runs on the
    driver over ONE ROW PER CALENDAR MONTH (≤ ~84 for the 1992-1998 data
    — bounded by the calendar, not the corpus). Integer month keys
    (year·12 + month − 1) keep the ordering/rounding bit-exact vs SQL;
    the first month (no predecessor) is omitted on both engines."""
    orders = read_testdata(sf_dir, "orders",
                           columns=["o_orderdate", "o_totalprice"])

    def mkeyed(df: pd.DataFrame) -> pd.DataFrame:
        dt = pd.DatetimeIndex(df.o_orderdate)
        return pd.DataFrame({
            "mkey": (dt.year.to_numpy() * 12
                     + dt.month.to_numpy() - 1).astype(np.int64),
            "rev": df.o_totalprice.to_numpy(np.float64)})

    agg = _preagg(orders.map_batches(mkeyed, batch_format="pandas"),
                  ["mkey"], [("revenue", "rev", "sum")]).to_pandas()
    agg = agg.sort_values("mkey").reset_index(drop=True)
    agg["revenue"] = agg.revenue.round(4)
    rev = agg.revenue.to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.round(rev[1:] / rev[:-1] - 1.0, 6)
    out = pd.DataFrame({"mkey": agg.mkey.to_numpy()[1:],
                        "revenue": rev[1:],
                        "mom_growth": growth})
    # a zero-revenue predecessor yields NULL in SQL (QUALIFY drops it);
    # mirror that instead of keeping numpy's inf — degenerate with
    # TPC-H-shaped data but required for parity on arbitrary inputs
    return out[np.isfinite(growth)].reset_index(drop=True)


def events_user_retention(sf_dir: str):
    """Cohort retention: per day, how many users are active on BOTH that
    day and the next — DISTINCT (user, day) pairs, a distributed
    self-join on (user, day+1), then a count per base day. The
    distinct-pair set is produced by the two-stage hash aggregate (never
    gathered); the self-join is a hash-partition Dataset join keyed on
    (user_id, dkey), so the pipeline is corpus-scale-safe end to end.
    Integer epoch-day keys (µs // 86_400e6 == ts::DATE for the positive
    timestamps here) keep both engines bit-exact."""
    ev = read_testdata(sf_dir, "events", columns=["user_id", "ts"])
    DAY_US = 86_400_000_000

    def dkeyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df.user_id.to_numpy(np.int64),
            "dkey": (_epoch_us(df.ts) // DAY_US).astype(np.int64)})

    pairs = _preagg(ev.map_batches(dkeyed, batch_format="pandas"),
                    ["user_id", "dkey"],
                    [("_c", None, "count")]).select_columns(
        ["user_id", "dkey"]).materialize()

    def shift(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": df.user_id.to_numpy(np.int64),
            "dkey": df.dkey.to_numpy(np.int64),
            "dkey_next": df.dkey.to_numpy(np.int64) + 1})

    def renamed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"r_uid": df.user_id.to_numpy(np.int64),
                             "r_dkey": df.dkey.to_numpy(np.int64)})

    joined = _dsjoin(pairs.map_batches(shift, batch_format="pandas"),
                     pairs.map_batches(renamed, batch_format="pandas"),
                     on=("user_id", "dkey_next"),
                     right_on=("r_uid", "r_dkey"))
    out = _preagg(joined.select_columns(["dkey"]), ["dkey"],
                  [("retained", None, "count")]).to_pandas()
    out["retained"] = out.retained.astype(np.int64)
    return out.sort_values("dkey").reset_index(drop=True)[
        ["dkey", "retained"]]


# --------------------------------------------------------------- partsupp
# The testdata has no partsupp table; q2/q11/q20 derive one with pure
# integer arithmetic (4 deterministic supplier assignments per part),
# spelled IDENTICALLY in the SQL oracles (oracles._PARTSUPP_CTE) so all
# three have value-exact DuckDB oracles. Costs are integer CENTS so every
# join/min/sum/compare is integer-exact; /100.0 happens only at output.


def _partsupp_expand(part_ds, n_supp: int):
    """part Dataset (needs p_partkey) → derived partsupp Dataset.
    Distributed: a flat 4× row expansion inside map_batches."""

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        pk = np.repeat(df.p_partkey.to_numpy(np.int64), 4)
        i = np.tile(np.arange(4, dtype=np.int64), len(df))
        return pd.DataFrame({
            "p_partkey": pk,
            "ps_suppkey": (pk + i * (n_supp // 4)) % n_supp + 1,
            "ps_availqty": (pk * 7 + i * 13) % 9999 + 1,
            "ps_cost_cents": (pk * 31 + i * 17) % 100000 + 100,
        })

    return part_ds.map_batches(expand, batch_format="pandas")


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 adaptation over the derived partsupp: for LARGE
    parts, the EUROPE supplier(s) achieving the part's minimum supply
    cost; top-100 by (s_acctbal DESC, n_name, s_name, p_partkey) — a
    complete tie-break, so the LIMIT cut is deterministic on both engines.

    Scale shape: nation/region are FIXED-size tables (25/5 rows) →
    broadcast dicts; supplier and partsupp are SF-proportional → filtered
    scans + hash-partition joins (never gathered); the min-cost qualifier
    is a distributed min + integer-key re-join; only ≤100×blocks partial
    top-k rows reach the driver."""
    nat = read_testdata(sf_dir, "nation").to_pandas()      # 25 rows, fixed
    reg = read_testdata(sf_dir, "region").to_pandas()      # 5 rows, fixed
    eu_keys = set(nat.merge(reg, left_on="n_regionkey",
                            right_on="r_regionkey")
                  .query("r_name == 'EUROPE'").n_nationkey)
    nname = dict(zip(nat.n_nationkey, nat.n_name))

    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_name", "s_nationkey",
                                  "s_acctbal"])

    def eu_only(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.s_nationkey.isin(eu_keys)].copy()
        df["n_name"] = df.s_nationkey.map(nname)
        return df.drop(columns=["s_nationkey"])

    eu_supp = supp.map_batches(eu_only, batch_format="pandas")

    part = read_testdata(sf_dir, "part",
                         columns=["p_partkey", "p_type"])
    part = part.map_batches(
        lambda df: df[df.p_type == "LARGE"][["p_partkey"]],
        batch_format="pandas")
    n_supp = _pq_nrows(testdata_path(sf_dir, "supplier"))
    ps = _partsupp_expand(part, n_supp)
    cost = _dsjoin(ps, eu_supp, on=("ps_suppkey",), right_on=("s_suppkey",))
    mn = _preagg(cost.select_columns(["p_partkey", "ps_cost_cents"]),
                 ["p_partkey"], [("min_cents", "ps_cost_cents", "min")])
    best = _dsjoin(cost, mn.map_batches(
        lambda df: pd.DataFrame({"m_partkey": df.p_partkey.to_numpy(np.int64),
                                 "ps_cost_cents":
                                     df.min_cents.to_numpy(np.int64)}),
        batch_format="pandas"),
        on=("p_partkey", "ps_cost_cents"),
        right_on=("m_partkey", "ps_cost_cents"))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["s_acctbal", "n_name", "s_name", "p_partkey"],
                              ascending=[False, True, True, True]).head(100)

    parts = best.select_columns(
        ["s_acctbal", "s_name", "n_name", "p_partkey", "ps_cost_cents"]) \
        .map_batches(topk, batch_format="pandas").to_pandas()
    out = parts.sort_values(["s_acctbal", "n_name", "s_name", "p_partkey"],
                            ascending=[False, True, True, True]) \
        .head(100).reset_index(drop=True)
    out["min_cost"] = out.ps_cost_cents.to_numpy(np.float64) / 100.0
    return out[["s_acctbal", "s_name", "n_name", "p_partkey", "min_cost"]]


def q11_important_stock(sf_dir: str):
    """TPC-H Q11 adaptation: per-part stock value (cost × availqty) held
    by EUROPE-region suppliers, keeping parts whose value exceeds 1/150 of
    the region total (the fixed fraction bounds the output at ≤150 rows at
    ANY sf). All arithmetic in integer cents: the HAVING compare is
    value_cents × 150 > total_cents on both engines (no fp threshold).
    The nation total reaches the driver as ONE scalar; everything else is
    filtered scans + hash joins + the two-stage hash aggregate."""
    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_nationkey"])
    nat = read_testdata(sf_dir, "nation").to_pandas()      # 25 rows, fixed
    reg = read_testdata(sf_dir, "region").to_pandas()      # 5 rows, fixed
    nk = set(nat.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
             .query("r_name == 'EUROPE'").n_nationkey)
    nsupp = supp.map_batches(
        lambda df: df[df.s_nationkey.isin(nk)][["s_suppkey"]],
        batch_format="pandas")
    n_supp = _pq_nrows(testdata_path(sf_dir, "supplier"))
    ps = _partsupp_expand(
        read_testdata(sf_dir, "part", columns=["p_partkey"]), n_supp)
    held = _dsjoin(ps, nsupp, on=("ps_suppkey",), right_on=("s_suppkey",))

    def val(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "p_partkey": df.p_partkey.to_numpy(np.int64),
            "val_cents": df.ps_cost_cents.to_numpy(np.int64)
            * df.ps_availqty.to_numpy(np.int64)})

    held = held.map_batches(val, batch_format="pandas")
    per_part = _preagg(held, ["p_partkey"],
                       [("value_cents", "val_cents", "sum")])
    # guard: Ray can deliver a schema-less EMPTY block (observed at sf0.1,
    # AttributeError on the column) — treat it as a zero partial
    total = int(per_part.map_batches(
        lambda df: pd.DataFrame(
            {"t": [df["value_cents"].sum() if "value_cents" in df else 0]}),
        batch_format="pandas").to_pandas().t.sum())  # one scalar

    out = per_part.map_batches(
        lambda df, _t=total: (df[df["value_cents"] * 150 > _t]
                              if "value_cents" in df else df),
        batch_format="pandas").to_pandas()
    if "value_cents" not in out:
        # every HAVING survivor block was empty (legitimate at scales where
        # no part reaches 1/150 of the region total): schema-less concat
        out = pd.DataFrame({"p_partkey": pd.Series(dtype=np.int64),
                            "value_cents": pd.Series(dtype=np.int64)})
    out["value"] = out.value_cents.to_numpy(np.float64) / 100.0
    return (out.sort_values(["value", "p_partkey"],
                            ascending=[False, True])
            .reset_index(drop=True)[["p_partkey", "value"]])


def q20_excess_stock(sf_dir: str):
    """TPC-H Q20 adaptation: NATION_3 suppliers holding more than half a
    year's shipped quantity of any part they stock (1996 shipments).
    Shipped quantities are integer-valued doubles (sums exact, order-free);
    the availqty compare is 2×availqty > qty in integers. Shapes: lineitem
    preagg → hash join with derived partsupp → distinct suppliers →
    hash join with the nation-filtered supplier scan."""
    li = read_testdata(sf_dir, "lineitem",
                       columns=["l_partkey", "l_suppkey", "l_quantity",
                                "l_shipdate"])
    li = li.map_batches(_ts_filter("l_shipdate", "greater_equal",
                                   "1996-01-01"), batch_format="pyarrow")
    li = li.map_batches(_ts_filter("l_shipdate", "less", "1997-01-01"),
                        batch_format="pyarrow")
    sh = _preagg(li.select_columns(["l_partkey", "l_suppkey", "l_quantity"]),
                 ["l_partkey", "l_suppkey"], [("qty", "l_quantity", "sum")])
    n_supp = _pq_nrows(testdata_path(sf_dir, "supplier"))
    ps = _partsupp_expand(
        read_testdata(sf_dir, "part", columns=["p_partkey"]), n_supp)
    j = _dsjoin(ps, sh, on=("p_partkey", "ps_suppkey"),
                right_on=("l_partkey", "l_suppkey"))
    excess = j.map_batches(
        lambda df: df[2 * df.ps_availqty.to_numpy(np.int64)
                      > df.qty.to_numpy(np.float64)][["ps_suppkey"]],
        batch_format="pandas")
    dsupp = _preagg(excess, ["ps_suppkey"], [("_c", None, "count")]) \
        .select_columns(["ps_suppkey"])

    nat = read_testdata(sf_dir, "nation",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    nk = set(nat[nat.n_name == "NATION_3"].n_nationkey)
    supp = read_testdata(sf_dir, "supplier",
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    nsupp = supp.map_batches(
        lambda df: df[df.s_nationkey.isin(nk)][["s_suppkey", "s_name"]],
        batch_format="pandas")
    out = _dsjoin(nsupp, dsupp, on=("s_suppkey",),
                  right_on=("ps_suppkey",)).to_pandas()
    return (out.sort_values("s_name").reset_index(drop=True)
            [["s_suppkey", "s_name"]])


def doc_curation_pipeline(sf_dir: str):
    """End-to-end curation composite — the chain a real training-data run
    executes as ONE dataset pass + one dedup exchange + one survivor join:

      language/length filter → exact dedup (min doc_id per md5(text)) →
      deterministic train/val/test tag → per-doc whitespace token count.

    Every step is the already-oracled kernel (doc_exact_dedup,
    doc_train_split, doc_token_counts), so the COMPOSITE itself has a
    value-exact SQL oracle — chaining does not break parity. Scale shape:
    filter + md5 + token count fused into the scan; dedup is ONE
    hash-bucketed exchange of the slim survivor rows (min doc_id per hash
    picked by a C-speed sort + drop_duplicates inside each bucket — no
    corpus materialization, no re-join); the split tag is shuffle-free."""
    import hashlib

    from ..functions.textkernels import md5_hex, token_count

    docs = read_testdata(sf_dir, "documents",
                         columns=["doc_id", "text", "lang", "source",
                                  "n_chars"])
    nb = _nbuckets(_pq_nrows(testdata_path(sf_dir, "documents")))

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[(df.lang == "en") & (df.n_chars >= 100)
                & (df.n_chars <= 20000)]
        h = md5_hex(df.text)
        return pd.DataFrame({
            "doc_id": df.doc_id.to_numpy(np.int64),
            "source": df.source.to_numpy(),
            "text_md5": h,
            "n_tokens": token_count(df.text),
            "hbucket": (pd.util.hash_array(np.asarray(h, dtype=object))
                        % np.uint64(nb)).astype(np.int64)})

    rows = docs.map_batches(prep, batch_format="pandas")

    def dedup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["text_md5", "doc_id"])
                .drop_duplicates("text_md5", keep="first"))

    surv = rows.groupby("hbucket").map_groups(dedup_bucket,
                                              batch_format="pandas")

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        b = np.array(
            [int(hashlib.md5(f"split:{int(d)}".encode()).hexdigest()[:8], 16)
             % 100 for d in df.doc_id], dtype=np.int64)
        out = df[["doc_id", "source", "n_tokens"]].copy()
        out["split"] = np.where(b < 80, "train",
                                np.where(b < 90, "val", "test"))
        out["n_tokens"] = out.n_tokens.astype(np.int64)
        return out

    out = surv.map_batches(tag, batch_format="pandas").to_pandas()
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "split", "source", "n_tokens"]])


def embedding_kmeans(sf_dir: str, k: int = 8):
    """First-class k-means clustering over the embedding table (the
    training step the IVF ANN index uses internally, exposed as an
    operator): deterministic Lloyd centroids fit on a bounded
    file-order-prefix sample, then a DISTRIBUTED assignment pass (one
    matmul-shaped distance per batch, argmin per row) and a per-cluster
    aggregate — count, mean within-cluster squared distance. Rows-only:
    pinned by a pytest brute-force oracle (single-process numpy recompute
    over the same centroids); floats are heuristic cluster geometry, not
    SQL-expressible."""
    from ..stages.ann import _sq_dists, kmeans_fit

    emb = read_testdata(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample = emb.limit(4096).to_pandas()  # bounded: never corpus-sized
    C = kmeans_fit(np.stack(sample.embedding.to_numpy()), k, seed=42)
    import ray

    c_ref = ray.put(C)

    def assign(df: pd.DataFrame, _c=c_ref) -> pd.DataFrame:
        cc = ray.get(_c) if isinstance(_c, ray.ObjectRef) else _c
        X = np.stack(df.embedding.to_numpy()).astype(np.float32)
        d = _sq_dists(X, cc)
        a = d.argmin(1)
        return pd.DataFrame({
            "cluster": a.astype(np.int64),
            "sqd": d[np.arange(len(a)), a].astype(np.float64),
            })

    agg = _preagg(emb.map_batches(assign, batch_format="pandas"),
                  ["cluster"], [("n", None, "count"), ("sum_sqd", "sqd", "sum")]).to_pandas()
    agg["mean_sqd"] = (agg.sum_sqd / agg.n).round(6)
    agg["n"] = agg.n.astype(np.int64)
    return (agg.sort_values("cluster").reset_index(drop=True)
            [["cluster", "n", "mean_sqd"]])


def events_first_last_value(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE window pair per user: the value of the
    user's first and last event under the total (ts, event_id) order, plus
    the event count — one shuffle keyed on user_id, one lexsort per group
    (the Ray-Data form of FIRST_VALUE(value) OVER (PARTITION BY user_id
    ORDER BY ts, event_id)). round(·,6) on both engines; integer-µs
    timestamps make the order bit-exact."""
    ev = read_testdata(sf_dir, "events",
                       columns=["user_id", "ts", "event_id", "value"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        order = np.lexsort((g.event_id.to_numpy(), us))
        v = g.value.to_numpy(np.float64)[order]
        return pd.DataFrame({
            "user_id": [np.int64(g.user_id.iloc[0])],
            "first_value": [round(float(v[0]), 6)],
            "last_value": [round(float(v[-1]), 6)],
            "n_events": [np.int64(len(v))]})

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


# --------------------------------------- LLM curation additions (round 4)


def doc_substring_dup_spans(sf_dir: str, n: int = 8):
    """Exact duplicate-substring detection at n-token granularity — the
    span-level dedup primitive of Lee et al. 2022 ("Deduplicating Training
    Data Makes Language Models Better"): a verbatim n-token window shared by
    >= 2 DISTINCT documents is memorization fuel that document-level dedup
    misses. Per doc: n_spans = max(#tokens - n + 1, 0) window positions,
    n_dup_spans = positions whose window also occurs in another document,
    dup_frac = round(n_dup_spans / n_spans, 6) (0.0 when the doc has no
    windows).

    Scale shape: ``_ngram_hashes`` hashes tokens ONCE per batch at C level
    (pd.util.hash_array over the flat token array — deterministic across
    processes); window hashes are a sliding polynomial combine in numpy (no
    per-gram Python, windows never cross doc boundaries via a doc-index
    mask); occurrences pre-aggregate to unique (doc, gram, count) rows per
    batch; then ONE gram-hash-bucket exchange marks grams seen in >= 2 docs
    and re-keys bounded per-(doc, bucket) partial counts, and a second tiny
    doc-keyed exchange merges them with the per-doc window counts.
    O(total tokens) rows cross the network exactly once — the volume the
    suffix-array formulation would shuffle too — and nothing reaches the
    driver. 64-bit window hashes: hash equality stands in for window
    equality (birthday bound ~2^32 DISTINCT grams; widen to two uint64
    lanes beyond ~10^9 grams)."""
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nbk = _nbuckets(nd, rows_per_bucket=4096, lo=16)

    def gram_partials(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"gh": np.empty(0, np.int64),
                              "doc_id": np.empty(0, np.int64),
                              "cnt": np.empty(0, np.int64),
                              "bk": np.empty(0, np.int64)})
        r = _ngram_hashes(df.text, n)
        if r is None:
            return empty
        gh, wdoc, _, _ = r
        occ = (pd.DataFrame({
                   "gh": gh,
                   "doc_id": df.doc_id.to_numpy(np.int64)[wdoc]})
               .groupby(["gh", "doc_id"], sort=False)
               .size().reset_index(name="cnt"))
        occ["cnt"] = occ.cnt.astype(np.int64)
        occ["bk"] = occ.gh.to_numpy(np.int64) % nbk
        return occ

    def mark_dups(g: pd.DataFrame) -> pd.DataFrame:
        # rows are unique per (gh, doc) -> group size == distinct doc count
        ndocs = g.groupby("gh", sort=False)["doc_id"].transform("size")
        d = g[ndocs.to_numpy() >= 2]
        out = (d.groupby("doc_id", sort=False)["cnt"].sum()
               .reset_index(name="ndup"))
        return pd.DataFrame({"doc_id": out.doc_id.to_numpy(np.int64),
                             "n_spans": np.int64(-1),
                             "ndup": out.ndup.to_numpy(np.int64),
                             "bk": out.doc_id.to_numpy(np.int64) % nbk})

    def span_counts(df: pd.DataFrame) -> pd.DataFrame:
        cnts = (df.text.fillna("").str.count(" ") + 1).to_numpy(np.int64)
        ids = df.doc_id.to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids,
                             "n_spans": np.maximum(cnts - (n - 1), 0),
                             "ndup": np.int64(0),
                             "bk": ids % nbk})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby("doc_id", sort=False)
               .agg(n_spans=("n_spans", "max"), ndup=("ndup", "sum"))
               .reset_index())
        ns = agg.n_spans.to_numpy(np.int64)
        ndup = agg.ndup.to_numpy(np.int64)
        frac = np.where(ns > 0,
                        np.round(ndup / np.maximum(ns, 1), 6), 0.0)
        return pd.DataFrame({"doc_id": agg.doc_id.to_numpy(np.int64),
                             "n_spans": ns, "n_dup_spans": ndup,
                             "dup_frac": frac})

    dup_parts = (docs.map_batches(gram_partials, batch_format="pandas")
                 .groupby("bk")
                 .map_groups(mark_dups, batch_format="pandas"))
    return (docs.map_batches(span_counts, batch_format="pandas")
            .union(dup_parts)
            .groupby("bk")
            .map_groups(combine, batch_format="pandas"))


def doc_neardup_keep_best(sf_dir: str, threshold: float = 0.6):
    """Near-dup curation composite: resolve the exact-trigram-Jaccard
    near-dup clusters (doc_dup_clusters) and KEEP the best-quality document
    per cluster (max quality_score, ties -> min doc_id) — the keep/drop
    decision an LLM curation pipeline applies after near-dedup: cluster the
    near-duplicates, keep one canonical representative, drop the rest.
    Output: (doc_id, cluster_id, quality, keep).

    Scale shape: inherits doc_dup_clusters' bucketed label propagation; the
    quality side is a stateless scan; the cluster/quality merge and the
    per-cluster argmax are TWO further bucketed union+groupby exchanges with
    vectorized in-bucket pandas merges (no Dataset.join fixed floor, no
    driver state). Quality is round(.,6) on both engines
    (doc_quality_scores is value-exact at the gate), so the argmax and its
    tie-break are engine-independent."""
    from ..functions.textkernels import quality_score

    clusters = doc_dup_clusters(sf_dir, threshold)
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nbk = _nbuckets(nd, rows_per_bucket=4096, lo=16)

    def qual_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids,
                             "cluster_id": np.int64(-1),
                             "quality": quality_score(df.text).round(6),
                             "bk": ids % nbk})

    def cluster_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids,
                             "cluster_id": df.cluster_id.to_numpy(np.int64),
                             "quality": np.nan,
                             "bk": ids % nbk})

    def merge_by_doc(g: pd.DataFrame) -> pd.DataFrame:
        c = g.loc[g.cluster_id >= 0, ["doc_id", "cluster_id"]]
        q = g.loc[g.cluster_id < 0, ["doc_id", "quality"]]
        m = c.merge(q, on="doc_id")
        m["bk"] = m.cluster_id.to_numpy(np.int64) % nbk
        return m

    def pick_best(g: pd.DataFrame) -> pd.DataFrame:
        qmax = g.groupby("cluster_id", sort=False)["quality"].transform("max")
        best = (g[g.quality.to_numpy() == qmax.to_numpy()]
                .groupby("cluster_id", sort=False)["doc_id"].min())
        keep_id = g.cluster_id.map(best).to_numpy(np.int64)
        return pd.DataFrame({"doc_id": g.doc_id.to_numpy(np.int64),
                             "cluster_id": g.cluster_id.to_numpy(np.int64),
                             "quality": g.quality.to_numpy(np.float64),
                             "keep": g.doc_id.to_numpy(np.int64) == keep_id})

    return (clusters.map_batches(cluster_rows, batch_format="pandas")
            .union(docs.map_batches(qual_rows, batch_format="pandas"))
            .groupby("bk")
            .map_groups(merge_by_doc, batch_format="pandas")
            .groupby("bk")
            .map_groups(pick_best, batch_format="pandas"))


def embedding_semantic_dedup(sf_dir: str, k: int = 8,
                             threshold: float = 0.4):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication"): k-means-cluster the embedding space, then deduplicate
    WITHIN clusters only — the clustering turns the corpus-quadratic
    all-pairs cosine search into k independent bounded problems (at scale
    pick k ~ N / target_cluster_size; the quadratic work is per-cluster by
    construction and never crosses clusters). Keep rule (deterministic): a
    vector is DROPPED iff some smaller-vec_id vector in the SAME cluster
    has cosine >= threshold to it (greedy first-seen-wins under the vec_id
    order — dropped vectors still shadow later ones, the conservative
    variant that never under-drops). Output: (vec_id, cluster, keep).

    Scale shape: centroids fit once on a bounded file-order-prefix sample
    and broadcast via ray.put (read per task, never re-shipped per batch);
    assignment is one matmul-shaped distance per batch (same metric as
    embedding_kmeans / the IVF index); the per-cluster greedy is ONE
    groupby(cluster) exchange + an in-group chunked triangular matmul —
    O(cluster_size^2) is the algorithm's defining cost, bounded by k.
    Rows-only: cluster geometry isn't SQL-expressible; pinned by a pytest
    brute-force oracle (single-process numpy recompute, same centroids,
    same rule)."""
    import ray

    from ..stages.ann import _sq_dists, kmeans_fit

    emb = read_testdata(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    sample = emb.limit(4096).to_pandas()  # bounded: never corpus-sized
    C = kmeans_fit(np.stack(sample.embedding.to_numpy()), k, seed=42)
    c_ref = ray.put(C)

    def assign(df: pd.DataFrame, _c=c_ref) -> pd.DataFrame:
        cc = ray.get(_c) if isinstance(_c, ray.ObjectRef) else _c
        X = np.stack(df.embedding.to_numpy()).astype(np.float32)
        return pd.DataFrame({
            "vec_id": df.vec_id.to_numpy(np.int64),
            "cluster": _sq_dists(X, cc).argmin(1).astype(np.int64),
            "embedding": df.embedding})

    def greedy(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        X = np.stack(g.embedding.to_numpy()).astype(np.float64)
        nrm = np.linalg.norm(X, axis=1)
        X /= np.where(nrm == 0, 1.0, nrm)[:, None]
        keep = np.ones(len(g), dtype=bool)
        B = 1024  # chunk rows so the triangular scan never materializes n^2
        for s in range(1, len(g), B):
            e = min(s + B, len(g))
            S = X[s:e] @ X[:e].T
            earlier = np.arange(e)[None, :] < np.arange(s, e)[:, None]
            keep[s:e] = ~((S >= threshold) & earlier).any(axis=1)
        return pd.DataFrame({"vec_id": g.vec_id.to_numpy(np.int64),
                             "cluster": g.cluster.to_numpy(np.int64),
                             "keep": keep})

    return (emb.map_batches(assign, batch_format="pandas")
            .groupby("cluster")
            .map_groups(greedy, batch_format="pandas"))


# ------------------------------------- partitioned spatial joins (round 4)
# Both-sides-large spatial joins via grid partitioning (PBSM, Patel &
# DeWitt 1996): replicate each geometry to every grid cell it overlaps, one
# groupby(cell-bucket) exchange, vectorized candidate merge + exact
# predicate inside the bucket. Complements the existing BROADCAST spatial
# paths (geo_point_in_rect's 40-rect layer, the flagship's landcover
# STRtree): at 100 TB the polygon/rect side can itself be huge, and these
# are the shuffle-born variants — the reference's PostGIS spatial joins
# (create-tables.sql geometry columns + GIST indexes) re-expressed as
# partitioned Ray exchanges.
#
# Rectangles are derived from `orders` with integer-only arithmetic (the
# q2/q11/q20 derived-partsupp trick) so the DuckDB oracles see the
# identical layer. The two axes use DIFFERENT Knuth multiplicative hashes
# mod 2^32 (max o_orderkey * 2654435761 ~ 1.6e16, well inside int64): a
# plain linear map on both axes makes pair deltas lattice-correlated and
# the self-join degenerates to zero overlaps.
#   rect_id = o_orderkey
#   lon0 = 3.0 + (((rect_id * 2654435761) % 4294967296) % 4280) / 1000.0
#   lat0 = 50.7 + (((rect_id * 2246822519) % 4294967296) % 2880) / 1000.0
#   w    = (18 + (rect_id % 7) * 3) / 1000.0        (0.018 .. 0.036)
#   h    = (14 + (rect_id % 5) * 3) / 1000.0        (0.014 .. 0.026)
#
# fp-safety of the grid (why cell assignment can't disagree with the exact
# predicate): IEEE subtraction/division are monotone, so p.lon in
# [lon0, lon1] implies floor((p.lon-3.0)/CELL) lies in the rect's covered
# cx range — a point's cell is always among its containing rect's cells.
# For the banded/neighbor schemes the cell edge (0.012 / 0.05) exceeds the
# predicate reach (0.01 / 0.036) by >= 16%, orders of magnitude above ulp
# noise, so "within reach" can never straddle two cell boundaries.


_GRID_LON0, _GRID_LAT0 = 3.0, 50.7
_GRID_NXY = 4096  # cells per axis bound: cell ids never alias (gy < NXY)
_NBR8 = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
              if dx or dy)  # the 8 ghost offsets of a 3x3 stencil, dx-major


def _grid_copies(cx, cy, cols: dict, nbk: int,
                 offsets=_NBR8) -> pd.DataFrame:
    """Map side of the home+ghost grid exchange. Integer cell coordinates
    (cx, cy) and payload ``cols`` (name → array) → one ``home`` row per
    point in its own cell, plus one ghost row per (dx, dy) in ``offsets``
    whose cell lies on the grid (gx, gy ≥ 0, gy < _GRID_NXY), with
    ``cell = gx·_GRID_NXY + gy`` and shuffle bucket ``bk = cell % nbk``.
    Every pair within one cell of each other then meets in the home cell
    of its first point, inside one bucket group.

    Rows come home first, then ghosts in ``offsets`` order, so in-bucket
    float sums add in a fixed order."""
    frames = [pd.DataFrame({"cell": cx * _GRID_NXY + cy, "home": True,
                            **cols})]
    for dx, dy in offsets:
        gx, gy = cx + dx, cy + dy
        ok = (gx >= 0) & (gy >= 0) & (gy < _GRID_NXY)
        frames.append(pd.DataFrame({"cell": (gx * _GRID_NXY + gy)[ok],
                                    "home": False,
                                    **{k: v[ok] for k, v in cols.items()}}))
    out = pd.concat(frames, ignore_index=True)
    out["bk"] = out.cell.to_numpy() % nbk
    return out


def _band_pairs(g: pd.DataFrame, cols, e2) -> pd.DataFrame:
    """Reduce side of the home+ghost exchange over one bucket frame ``g``
    (_grid_copies rows): every (home a, any b) pair sharing a cell with
    id_a ≠ id_b and scaled-euclidean 1.8·dlat² + dlon² ≤ e2. Carries
    ``cols`` (which include id/lon/lat) suffixed _a/_b, plus the pair's
    ``d2``. Candidate pairs exist only inside this one bucket task."""
    cols = ["cell", *cols]
    m = g[g.home][cols].merge(g[cols], on="cell", suffixes=("_a", "_b"))
    dlat = m.lat_a.to_numpy() - m.lat_b.to_numpy()
    dlon = m.lon_a.to_numpy() - m.lon_b.to_numpy()
    m["d2"] = 1.8 * dlat * dlat + dlon * dlon
    return m[(m.id_a.to_numpy() != m.id_b.to_numpy())
             & (m.d2.to_numpy() <= e2)]


def _positions(frame: pd.DataFrame) -> pd.DataFrame:
    """Position contraction of a bucket frame (_grid_copies rows): one row
    per unique (cell, lat, lon, home) with multiplicity ``m`` and smallest
    ``rep`` id, so pair terms scale with positions, not points. A
    position's rows in one cell are all home or all ghosts (the home cell
    is a function of the coordinates). The float groupby is exact:
    co-located points carry bit-identical integer-derived doubles."""
    g = frame.groupby(["cell", "lat", "lon", "home"], sort=False).id
    return pd.DataFrame({"m": g.size(), "rep": g.min()}).reset_index()


def _rect_layer(df: pd.DataFrame) -> pd.DataFrame:
    """orders batch -> derived rectangle layer (expression-identical to the
    SQL in oracles.py; integer ops then one exact-order float combine)."""
    rid = df.o_orderkey.to_numpy(np.int64)
    lon0 = 3.0 + (((rid * 2654435761) % 4294967296) % 4280) / 1000.0
    lat0 = 50.7 + (((rid * 2246822519) % 4294967296) % 2880) / 1000.0
    w = (18 + (rid % 7) * 3) / 1000.0
    h = (14 + (rid % 5) * 3) / 1000.0
    return pd.DataFrame({"rect_id": rid, "lon0": lon0, "lat0": lat0,
                         "lon1": lon0 + w, "lat1": lat0 + h})


def _cells_of_rects(r: pd.DataFrame, cell: float, nx: int) -> pd.DataFrame:
    """Replicate each rect row to every grid cell it overlaps (vectorized:
    one np.repeat expansion, no per-rect Python). Adds `cell`, `cx`, `cy`."""
    cx0 = np.floor((r.lon0.to_numpy() - _GRID_LON0) / cell).astype(np.int64)
    cx1 = np.floor((r.lon1.to_numpy() - _GRID_LON0) / cell).astype(np.int64)
    cy0 = np.floor((r.lat0.to_numpy() - _GRID_LAT0) / cell).astype(np.int64)
    cy1 = np.floor((r.lat1.to_numpy() - _GRID_LAT0) / cell).astype(np.int64)
    nxs = cx1 - cx0 + 1
    nys = cy1 - cy0 + 1
    reps = nxs * nys
    idx = np.repeat(np.arange(len(r), dtype=np.int64), reps)
    # within-rect copy ordinal -> (dx, dy) offset, fully vectorized
    starts = np.zeros(len(r), dtype=np.int64)
    starts[1:] = np.cumsum(reps)[:-1]
    j = np.arange(int(reps.sum()), dtype=np.int64) - starts[idx]
    dx = j % nxs[idx]
    dy = j // nxs[idx]
    out = r.iloc[idx].reset_index(drop=True)
    out["cx"] = cx0[idx] + dx
    out["cy"] = cy0[idx] + dy
    out["cell"] = out.cy.to_numpy() * nx + out.cx.to_numpy()
    return out


def geo_range_join(sf_dir: str):
    """Point-in-rectangle range join where BOTH sides scale with the input
    (events-derived points x orders-derived rects) — the partitioned
    spatial join the broadcast PIP path can't express once the polygon side
    outgrows worker memory. Output: every (event_id, rect_id) containment
    pair.

    Scale shape: each rect is replicated to the <=4 grid cells it overlaps
    (cell edge 0.05 > max rect extent 0.036 -> <=2 cells per axis, ~2
    copies average); each point goes to exactly ONE cell, so every
    containment pair is tested exactly once and no dedup pass exists. ONE
    union + groupby(cell-bucket) exchange moves O(points + ~2 rects) slim
    rows; inside a bucket the candidate pairs come from a C-level pandas
    merge on cell id and the exact predicate is one vectorized mask. No
    driver state, no O(n^2) anywhere."""
    CELL = 0.05
    NX = int(4.3 / CELL) + 2
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    od, no = _spread_read(sf_dir, "orders", ["o_orderkey"])
    nbk = _nbuckets(ne + no, rows_per_bucket=8192, lo=32)

    def point_rows(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        cx = np.floor((p.lon.to_numpy() - _GRID_LON0) / CELL).astype(np.int64)
        cy = np.floor((p.lat.to_numpy() - _GRID_LAT0) / CELL).astype(np.int64)
        cell = cy * NX + cx
        return pd.DataFrame({"cell": cell,
                             "id": p.event_id.to_numpy(np.int64),
                             "lon0": p.lon, "lat0": p.lat,
                             "lon1": np.nan, "lat1": np.nan,
                             "bk": cell % nbk})

    def rect_rows(df: pd.DataFrame) -> pd.DataFrame:
        rc = _cells_of_rects(_rect_layer(df), CELL, NX)
        return pd.DataFrame({"cell": rc.cell,
                             "id": -1 - rc.rect_id.to_numpy(np.int64),
                             "lon0": rc.lon0, "lat0": rc.lat0,
                             "lon1": rc.lon1, "lat1": rc.lat1,
                             "bk": rc.cell.to_numpy() % nbk})

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pts = g[g.id >= 0]
        rcs = g[g.id < 0]
        m = (pts[["cell", "id", "lon0", "lat0"]]
             .merge(rcs[["cell", "id", "lon0", "lat0", "lon1", "lat1"]],
                    on="cell", suffixes=("_p", "_r")))
        keep = ((m.lon0_p.to_numpy() >= m.lon0_r.to_numpy())
                & (m.lon0_p.to_numpy() <= m.lon1.to_numpy())
                & (m.lat0_p.to_numpy() >= m.lat0_r.to_numpy())
                & (m.lat0_p.to_numpy() <= m.lat1.to_numpy()))
        return pd.DataFrame({
            "event_id": m.id_p.to_numpy(np.int64)[keep],
            "rect_id": (-1 - m.id_r.to_numpy(np.int64))[keep]})

    return (ev.map_batches(point_rows, batch_format="pandas")
            .union(od.map_batches(rect_rows, batch_format="pandas"))
            .groupby("bk")
            .map_groups(join_bucket, batch_format="pandas"))


def geo_near_pairs(sf_dir: str, eps: float = 0.01):
    """Epsilon-distance SELF-join over the events-derived points: every
    unordered pair (id_a < id_b) with scaled-euclidean distance^2
    1.8*dlat^2 + dlon^2 <= eps^2 — the all-pairs proximity primitive
    (duplicate-GPS detection, hotspot pairing) that is quadratic done
    naively. Output: (id_a, id_b).

    Scale shape: grid cells of edge 0.012 > eps (and >> eps/sqrt(1.8) on
    the lat axis), so any qualifying pair lies in the same or 8-adjacent
    cells. Each point is emitted HOME to its own cell plus GHOST copies to
    its (at most) four lexicographically-smaller neighbor cells; a pair is
    resolved exactly once — in the smaller of the two cells (home x home
    with id_a < id_b when cells match, home x ghost otherwise; ghost x
    ghost pairs are never formed). ONE union + groupby(cell-bucket)
    exchange of ~5 slim copies per point; in-bucket candidates via two
    C-level pandas merges; the exact predicate is expression-identical to
    the SQL (products, no pow — numpy-vec-pow vs libm diverges by 1 ulp)."""
    CELL = 0.012
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    nbk = _nbuckets(5 * ne, rows_per_bucket=8192, lo=32)
    e2 = np.float64(eps) * np.float64(eps)

    def copies(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lon = p.lon.to_numpy()
        lat = p.lat.to_numpy()
        cx = np.floor((lon - _GRID_LON0) / CELL).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / CELL).astype(np.int64)
        # half stencil: the four lexicographically-SMALLER neighbors
        return _grid_copies(cx, cy, {"id": p.event_id.to_numpy(np.int64),
                                     "lon": lon, "lat": lat}, nbk,
                            offsets=((-1, -1), (-1, 0), (-1, 1), (0, -1)))

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        home = g[g.home]
        gho = g[~g.home]
        cols = ["cell", "id", "lon", "lat"]
        hh = home[cols].merge(home[cols], on="cell", suffixes=("_a", "_b"))
        hh = hh[hh.id_a.to_numpy() < hh.id_b.to_numpy()]
        hg = home[cols].merge(gho[cols], on="cell", suffixes=("_a", "_b"))
        m = pd.concat([hh, hg], ignore_index=True)
        dlat = m.lat_a.to_numpy() - m.lat_b.to_numpy()
        dlon = m.lon_a.to_numpy() - m.lon_b.to_numpy()
        keep = 1.8 * dlat * dlat + dlon * dlon <= e2
        a = m.id_a.to_numpy(np.int64)[keep]
        b = m.id_b.to_numpy(np.int64)[keep]
        return pd.DataFrame({"id_a": np.minimum(a, b),
                             "id_b": np.maximum(a, b)})

    return (ev.map_batches(copies, batch_format="pandas")
            .groupby("bk")
            .map_groups(pair_bucket, batch_format="pandas"))


def geo_bbox_overlap_pairs(sf_dir: str):
    """Rectangle-rectangle intersection SELF-join over the orders-derived
    layer: every unordered pair (rect_id_a < rect_id_b) whose bounding
    boxes overlap (closed-interval test on both axes) — the footprint-
    overlap join a tiling engine runs to find images covering the same
    ground. Output: (id_a, id_b).

    Scale shape: PBSM with the canonical-cell dedup rule. Each rect is
    replicated to its <=4 overlapped grid cells; a candidate pair can meet
    in up to 4 shared cells, so each copy re-derives the intersection's
    min-corner cell — floor of (max(lon0s), max(lat0s)), a cell BOTH rects
    cover by IEEE monotonicity — and only the copy living in that cell
    emits the pair: exactly-once without any dedup exchange (the
    Patel/DeWitt reference-point rule). ONE union-free groupby(cell-bucket)
    exchange; in-bucket candidates via a C-level self-merge on cell id."""
    CELL = 0.05
    NX = int(4.3 / CELL) + 2
    od, no = _spread_read(sf_dir, "orders", ["o_orderkey"])
    nbk = _nbuckets(2 * no, rows_per_bucket=8192, lo=32)

    def rect_rows(df: pd.DataFrame) -> pd.DataFrame:
        rc = _cells_of_rects(_rect_layer(df), CELL, NX)
        rc["bk"] = rc.cell.to_numpy() % nbk
        return rc[["cell", "cx", "cy", "rect_id",
                   "lon0", "lat0", "lon1", "lat1", "bk"]]

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = ["cell", "cx", "cy", "rect_id", "lon0", "lat0", "lon1", "lat1"]
        m = g[cols].merge(g[cols], on="cell", suffixes=("_a", "_b"))
        m = m[m.rect_id_a.to_numpy() < m.rect_id_b.to_numpy()]
        lo0a, lo0b = m.lon0_a.to_numpy(), m.lon0_b.to_numpy()
        la0a, la0b = m.lat0_a.to_numpy(), m.lat0_b.to_numpy()
        overlap = ((lo0a <= m.lon1_b.to_numpy())
                   & (lo0b <= m.lon1_a.to_numpy())
                   & (la0a <= m.lat1_b.to_numpy())
                   & (la0b <= m.lat1_a.to_numpy()))
        # canonical-cell rule: emit only in the intersection min-corner cell
        ilon = np.maximum(lo0a, lo0b)
        ilat = np.maximum(la0a, la0b)
        ccx = np.floor((ilon - _GRID_LON0) / CELL).astype(np.int64)
        ccy = np.floor((ilat - _GRID_LAT0) / CELL).astype(np.int64)
        keep = overlap & (ccx == m.cx_a.to_numpy()) & (ccy == m.cy_a.to_numpy())
        return pd.DataFrame({
            "id_a": m.rect_id_a.to_numpy(np.int64)[keep],
            "id_b": m.rect_id_b.to_numpy(np.int64)[keep]})

    return (od.map_batches(rect_rows, batch_format="pandas")
            .groupby("bk")
            .map_groups(pair_bucket, batch_format="pandas"))


def doc_substring_dedup_tokens(sf_dir: str, n: int = 8):
    """Span-REMOVAL accounting for exact substring dedup (the second half
    of Lee et al. 2022: after finding duplicate n-token windows, DELETE the
    duplicated spans): per doc, how many token positions are covered by at
    least one duplicated window (the union of [i, i+n) over duplicated
    window starts i) and what fraction of the doc survives the cut.
    Output: (doc_id, n_tokens, n_dup_tokens, keep_frac) with
    keep_frac = round((n_tokens - n_dup_tokens) / n_tokens, 6).

    Scale shape: same O(total tokens) volume as doc_substring_dup_spans —
    one row per window position moves through ONE gram-hash-bucket
    exchange (dup = gram seen in >= 2 distinct docs, marked via a C-level
    map of per-gram distinct-doc counts), the surviving dup positions
    re-key through a doc-bucket exchange, and the per-doc interval union
    is fully vectorized across docs (sorted positions; each window
    contributes min(gap, n) tokens — no per-doc Python loop). Window
    hashing is ``_ngram_hashes``, shared with doc_substring_dup_spans (hash
    equality stands in for window equality, birthday-bounded)."""
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nbk = _nbuckets(nd, rows_per_bucket=4096, lo=16)

    def window_rows(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"gh": np.empty(0, np.int64),
                              "doc_id": np.empty(0, np.int64),
                              "pos": np.empty(0, np.int64),
                              "bk": np.empty(0, np.int64)})
        r = _ngram_hashes(df.text, n)
        if r is None:
            return empty
        gh, wdoc, valid, cnts = r
        starts = np.cumsum(cnts) - cnts
        pos = np.flatnonzero(valid) - starts[wdoc]  # 0-based within doc
        out = pd.DataFrame({"gh": gh,
                            "doc_id": df.doc_id.to_numpy(np.int64)[wdoc],
                            "pos": pos})
        out["bk"] = out.gh.to_numpy(np.int64) % nbk
        return out

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        # (doc, pos) is unique by construction (one window per position),
        # so distinct-doc count per gram = size of the (gh, doc) dedup
        uniq = g.drop_duplicates(["gh", "doc_id"])
        per_gh = uniq.groupby("gh", sort=False)["doc_id"].size()
        d = g[g.gh.map(per_gh).to_numpy() >= 2]
        ids = d.doc_id.to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids, "pos": d.pos.to_numpy(np.int64),
                             "n_tokens": np.int64(0), "bk": ids % nbk})

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        cnts = (df.text.fillna("").str.count(" ") + 1).to_numpy(np.int64)
        ids = df.doc_id.to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids, "pos": np.int64(-1),
                             "n_tokens": cnts, "bk": ids % nbk})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        meta = g[g.pos < 0]
        nt = meta.set_index("doc_id").n_tokens
        dp = g[g.pos >= 0].sort_values(["doc_id", "pos"])
        if len(dp):
            pos = dp.pos.to_numpy(np.int64)
            doc = dp.doc_id.to_numpy(np.int64)
            newdoc = np.ones(len(dp), dtype=bool)
            newdoc[1:] = doc[1:] != doc[:-1]
            gap = np.empty(len(dp), np.int64)
            gap[0] = n
            gap[1:] = pos[1:] - pos[:-1]
            contrib = np.where(newdoc, n, np.minimum(gap, n))
            cov = (pd.DataFrame({"doc_id": doc, "c": contrib})
                   .groupby("doc_id", sort=False)["c"].sum())
        else:
            cov = pd.Series(dtype=np.int64)
        ids = nt.index.to_numpy(np.int64)
        ntv = nt.to_numpy(np.int64)
        cv = cov.reindex(nt.index, fill_value=0).to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids, "n_tokens": ntv,
                             "n_dup_tokens": cv,
                             "keep_frac": np.round((ntv - cv) / ntv, 6)})

    dup = (docs.map_batches(window_rows, batch_format="pandas")
           .groupby("bk")
           .map_groups(dup_positions, batch_format="pandas"))
    return (docs.map_batches(doc_rows, batch_format="pandas")
            .union(dup)
            .groupby("bk")
            .map_groups(combine, batch_format="pandas"))


def geo_knn_join(sf_dir: str, k: int = 3, radius: float = 0.02):
    """Radius-bounded k-nearest-neighbor JOIN where BOTH sides scale with
    the input: for every events-derived point, the k nearest orders-derived
    sites (the Knuth-hash-spread rect min-corners) within `radius` under
    the scaled-euclidean metric d2 = 1.8*dlat^2 + dlon^2, ties broken by
    site_id — the "attach the nearest k ground stations / calibration
    targets to every image" join once the station side outgrows a
    broadcast (the flagship's CellBucketKNN holds the whole station table
    per worker; this operator holds nothing). Output: (event_id, rnk,
    site_id) — integer-only, so the driver hash cannot be perturbed by
    float formatting; the ordering itself is decided on bit-identical
    doubles (both engines evaluate the same product expression over the
    same 0.001-degree lattice; distinct lattice deltas differ by >= 1e-7,
    far above accumulated ulps, and exact ties fall to the site_id key).

    Scale shape: grid cells of edge 0.024 — 20% fp margin over the lon
    reach (radius) and 2x over the lat reach (radius/sqrt(1.8)) — so every
    qualifying site for a point lies in the point's 3x3 cell neighborhood.
    Each SITE is replicated to its 9 neighbor cells (sites are the smaller
    side: |orders| < |events|); each point goes HOME to exactly one cell,
    so each (point, site) candidate meets exactly once and per-point top-k
    needs no cross-cell merge. ONE union + groupby(cell-bucket) exchange of
    slim rows; in-bucket candidates via a C-level merge on cell id; the
    top-k cut is one vectorized sort + cumcount over the whole bucket. No
    driver state, no all-pairs blowup."""
    CELL = 0.024
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    od, no = _spread_read(sf_dir, "orders", ["o_orderkey"])
    nbk = _nbuckets(ne + 9 * no, rows_per_bucket=8192, lo=32)
    r2 = np.float64(radius) * np.float64(radius)

    def point_rows(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lon = p.lon.to_numpy()
        lat = p.lat.to_numpy()
        cx = np.floor((lon - _GRID_LON0) / CELL).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / CELL).astype(np.int64)
        return _grid_copies(cx, cy, {"id": p.event_id.to_numpy(np.int64),
                                     "lon": lon, "lat": lat}, nbk,
                            offsets=())

    def site_rows(df: pd.DataFrame) -> pd.DataFrame:
        r = _rect_layer(df)
        slon = r.lon0.to_numpy()
        slat = r.lat0.to_numpy()
        cx = np.floor((slon - _GRID_LON0) / CELL).astype(np.int64)
        cy = np.floor((slat - _GRID_LAT0) / CELL).astype(np.int64)
        # sites carry negative ids
        return _grid_copies(cx, cy, {"id": -1 - r.rect_id.to_numpy(np.int64),
                                     "lon": slon, "lat": slat}, nbk)

    def knn_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pts = g[g.id >= 0]
        sit = g[g.id < 0]
        cols = ["cell", "id", "lon", "lat"]
        m = pts[cols].merge(sit[cols], on="cell", suffixes=("_p", "_s"))
        dlat = m.lat_p.to_numpy() - m.lat_s.to_numpy()
        dlon = m.lon_p.to_numpy() - m.lon_s.to_numpy()
        d2 = 1.8 * dlat * dlat + dlon * dlon
        keep = d2 <= r2
        c = pd.DataFrame({"event_id": m.id_p.to_numpy(np.int64)[keep],
                          "site_id": (-1 - m.id_s.to_numpy(np.int64))[keep],
                          "d2": d2[keep]})
        c = c.sort_values(["event_id", "d2", "site_id"], kind="mergesort")
        c["rnk"] = c.groupby("event_id", sort=False).cumcount() + 1
        c = c[c.rnk <= k]
        return pd.DataFrame({"event_id": c.event_id.to_numpy(np.int64),
                             "rnk": c.rnk.to_numpy(np.int64),
                             "site_id": c.site_id.to_numpy(np.int64)})

    return (ev.map_batches(point_rows, batch_format="pandas")
            .union(od.map_batches(site_rows, batch_format="pandas"))
            .groupby("bk")
            .map_groups(knn_bucket, batch_format="pandas"))


def doc_tfidf_topterms(sf_dir: str, k: int = 5):
    """Per-document top-k TF-IDF terms — the classic salient-term /
    keyword-extraction primitive of a text-curation stack. Score =
    cnt(term, doc) * ln(N_docs / df(term)); output (doc_id, rnk, term,
    cnt, df, tfidf) with rnk by (score DESC, term ASC) and tfidf =
    round(score, 6).

    Scale shape: per-block exact (doc, term) counts (each doc lives in one
    row, so one C-level groupby per batch is globally exact), then TWO
    bounded exchanges of slim rows: term-hash-bucketed to compute df
    (rows per term-group are pre-aggregated distinct (doc, term) pairs)
    and doc-bucketed for the per-doc top-k (vectorized sort + cumcount per
    bucket, never per doc). N_docs comes from parquet metadata — no extra
    scan, no driver gather anywhere.

    Float parity: idf is computed SCALAR per distinct df via math.log —
    the same libm call DuckDB's ln() makes (numpy's vectorized log can
    diverge by 1 ulp; see graft perf notes) — and score is one IEEE
    multiply, so both engines order bit-identical doubles; exact ties fall
    to the ASCII term key."""
    import math

    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nbk = _nbuckets(nd, rows_per_bucket=2048, lo=16)

    def term_counts(df: pd.DataFrame) -> pd.DataFrame:
        texts = df.text.fillna("")
        words = _flat_words(texts)
        cnts = (texts.str.count(" ") + 1).to_numpy(np.int64)
        doc_of = np.repeat(df.doc_id.to_numpy(np.int64), cnts)
        tc = (pd.DataFrame({"doc_id": doc_of, "term": words})
              .groupby(["doc_id", "term"], sort=False)
              .size().reset_index(name="cnt"))
        tc["bk"] = (pd.util.hash_array(tc.term.to_numpy(object))
                    % nbk).astype(np.int64)
        return tc

    def score_terms(g: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (doc, term) pairs -> df(term) = group size
        dfv = g.groupby("term", sort=False)["doc_id"].transform("size")
        dfv = dfv.to_numpy(np.int64)
        # scalar libm log only over the DISTINCT df values (bounded per
        # bucket); the per-row expansion is a vectorized take
        uniq, inv = np.unique(dfv, return_inverse=True)
        idf_u = np.array([math.log(nd / d) for d in uniq], dtype=np.float64)
        score = g.cnt.to_numpy(np.int64) * idf_u[inv]
        ids = g.doc_id.to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids, "term": g.term.to_numpy(object),
                             "cnt": g.cnt.to_numpy(np.int64), "df": dfv,
                             "score": score, "bk": ids % nbk})

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "score", "term"],
                          ascending=[True, False, True], kind="mergesort")
        rnk = g.groupby("doc_id", sort=False).cumcount() + 1
        g = g[rnk <= k]
        rnk = rnk[rnk <= k]
        return pd.DataFrame({"doc_id": g.doc_id.to_numpy(np.int64),
                             "rnk": rnk.to_numpy(np.int64),
                             "term": g.term.to_numpy(object),
                             "cnt": g.cnt.to_numpy(np.int64),
                             "df": g.df.to_numpy(np.int64),
                             "tfidf": np.round(g.score.to_numpy(), 6)})

    return (docs.map_batches(term_counts, batch_format="pandas")
            .groupby("bk")
            .map_groups(score_terms, batch_format="pandas")
            .groupby("bk")
            .map_groups(topk, batch_format="pandas"))


def doc_pack_chunks(sf_dir: str, capacity: int = 512):
    """LLM-pretraining sequence packing (concat-and-chunk): documents are
    concatenated in doc_id order and cut into fixed `capacity`-token
    training chunks; per doc, which chunk its first token lands in, which
    its last token lands in, and how many chunks it spans. The packing
    plan every pretraining exporter needs, and the repo's distributed
    GLOBAL PREFIX-SUM primitive: unlike the per-group cumsum of
    doc_source_token_budget (bounded groups), the running total here is
    over the WHOLE corpus in a total order.

    Scale shape: the two-phase ordered scan of ``_bucket_offsets``. Docs
    are range-bucketed by doc_id (ORDERED buckets from parquet footer
    min/max — metadata only); phase 1 sums tokens per bucket (<= nbk rows
    to the driver) and prefix-sums them into bucket offsets; phase 2 does
    an exact in-bucket cumsum (vectorized sort + cumsum per bucket) on top
    of its bucket's offset. Token counts are computed once into a slim
    materialized (doc_id, n_tokens) projection (16 B/row) so the text is
    parsed a single time. Output is integer-only."""
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    if nd == 0:
        return _no_rows(doc_id=np.int64, n_tokens=np.int64,
                        first_chunk=np.int64, last_chunk=np.int64,
                        n_chunks=np.int64)
    nbk = _nbuckets(nd, rows_per_bucket=4096, lo=16)
    lo_id, hi_id = map(int, _pq_colminmax(testdata_path(sf_dir, "documents"),
                                          "doc_id"))
    rng = max(1, (hi_id - lo_id + 1 + nbk - 1) // nbk)

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy(np.int64)
        nt = (df.text.fillna("").str.count(" ") + 1).to_numpy(np.int64)
        return pd.DataFrame({"doc_id": ids, "n_tokens": nt,
                             "bk": (ids - lo_id) // rng})

    slim = docs.map_batches(tok_counts, batch_format="pandas").materialize()
    _, offsets = _bucket_offsets(slim, "bk", ("tok", "n_tokens", "sum"))

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        nt = g.n_tokens.to_numpy(np.int64)
        base = offsets.get(int(g.bk.iloc[0]), 0)
        prev = base + nt.cumsum() - nt
        first = prev // capacity
        last = (prev + nt - 1) // capacity
        return pd.DataFrame({"doc_id": g.doc_id.to_numpy(np.int64),
                             "n_tokens": nt,
                             "first_chunk": first, "last_chunk": last,
                             "n_chunks": last - first + 1})

    return slim.groupby("bk").map_groups(pack, batch_format="pandas")


def image_tile_chips(sf_dir: str, tile: int = 64):
    """Training-chip enumeration over the enriched raster corpus — the
    standard geospatial-ML export step (cut every georeferenced image into
    fixed tile×tile model-input chips with per-chip world coordinates;
    reference semantics: the per-image georef of processor.py applied at
    sub-image granularity). For each decode-ok image with GPS georef and
    both dims ≥ tile, emits one row per full chip of its (w//tile,
    h//tile) grid: pixel origin (x0, y0) and the chip's world anchor
    chip_west/chip_north = west/north + x0·px_deg / y0·py_deg (one exact
    int→double convert, one multiply, one add — bit-identical in both
    engines, reported RAW: rounding would re-split engines on half-even
    vs half-away boundary doubles).

    Scale shape: a pure vectorized flat-map — ZERO exchanges. The ~n×
    row explosion happens inside map_batches via np.repeat over cumsum
    offsets (no per-image Python loop), and the expansion factor is
    bounded by (w·h)/tile² per image, so block memory scales with the
    batch's pixel count, never the corpus. At 100 TB this is the
    embarrassingly-parallel stage Ray schedules wherever the enriched
    partitions already live."""
    from . import flagship as fl

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(
        ["image_id", "w", "h", "west", "north", "px_deg", "py_deg",
         "decode_ok", "has_gps"])

    def chips(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.decode_ok & df.has_gps
                & (df.w >= tile) & (df.h >= tile)]
        if len(df) == 0:
            return pd.DataFrame({"image_id": pd.Series([], dtype=object),
                                 "tx": pd.Series([], dtype=np.int64),
                                 "ty": pd.Series([], dtype=np.int64),
                                 "x0": pd.Series([], dtype=np.int64),
                                 "y0": pd.Series([], dtype=np.int64),
                                 "chip_west": pd.Series([], dtype=np.float64),
                                 "chip_north": pd.Series([], dtype=np.float64)})
        ntx = (df.w.to_numpy(np.int64) // tile)
        nty = (df.h.to_numpy(np.int64) // tile)
        n = ntx * nty
        rep = np.repeat(np.arange(len(df)), n)
        # chip linear index 0..n-1 within each image, x-major
        idx = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(
            n.cumsum() - n, n)
        tx = idx // nty[rep]
        ty = idx % nty[rep]
        x0 = tx * tile
        y0 = ty * tile
        west = df.west.to_numpy(np.float64)[rep]
        north = df.north.to_numpy(np.float64)[rep]
        return pd.DataFrame({
            "image_id": df.image_id.to_numpy(object)[rep],
            "tx": tx, "ty": ty, "x0": x0, "y0": y0,
            # RAW doubles, deliberately unrounded: the product+add is
            # bit-identical in both engines, while np.round (half-even)
            # vs DuckDB round() (half-away) disagree one quantum on
            # boundary-adjacent values (seen at sf0.001 row 105)
            "chip_west": west + x0.astype(np.float64)
            * df.px_deg.to_numpy(np.float64)[rep],
            "chip_north": north + y0.astype(np.float64)
            * df.py_deg.to_numpy(np.float64)[rep]})

    return ds.map_batches(chips, batch_format="pandas")


def doc_bigram_pmi(sf_dir: str, k: int = 100, min_cnt: int = 3):
    """Top-k bigram collocations by pointwise mutual information — the
    classic phrase/tokenizer-merge-candidate extractor of a text-curation
    stack (Church & Hanks 1990). pmi = ln(cxy·N / (c1·c2)) with cxy the
    adjacent-pair count within a document, c1/c2 unigram token counts and
    N the total token count; pairs with cxy < min_cnt are noise-filtered.
    Output (w1, w2, cxy, c1, c2, pmi=round(·,6)), top-k by
    (pmi DESC, w1, w2).

    Scale shape: per-block C-level (w1,w2)/unigram partial counts from ONE
    join+split token pass (doc boundaries via repeat+shift mask, no token
    loop), materialized slim; N from a tiny kind-keyed preagg (≤2 rows to
    the driver). Then exactly TWO hash-bucket exchanges: bucket by
    hash(w1) (unigrams ride the same exchange keyed hash(w)) to total cxy,
    attach c1, and min_cnt-filter; re-key survivors by hash(w2) (unigram
    totals re-emitted to their own — identical — bucket) to attach c2.
    Per-bucket top-k bounds the final sort to ≤ k·nbk rows.

    Float parity: the ordering key r = (cxy·N)/(c1·c2) is ONE IEEE divide
    of two exactly-converted int64 products (both < 2^53 at any sf this
    sandbox reaches; at 100 TB switch the compare to int128
    cross-multiplication) — bit-identical across engines, exact ties fall
    to (w1, w2); ln is applied scalar-libm only to the ≤ k·nbk survivors."""
    import math

    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nbk = _nbuckets(nd, rows_per_bucket=2048, lo=16)

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        texts = df.text.fillna("")
        words = _flat_words(texts)
        cnts = (texts.str.count(" ") + 1).to_numpy(np.int64)
        doc_of = np.repeat(np.arange(len(df), dtype=np.int64), cnts)
        uc = pd.Series(words, dtype=object).value_counts()
        uni = pd.DataFrame({"w1": uc.index.to_numpy(object),
                            "w2": "", "cnt": uc.to_numpy(np.int64),
                            "kind": np.int64(0)})
        same = doc_of[:-1] == doc_of[1:]
        bc = (pd.DataFrame({"w1": words[:-1][same], "w2": words[1:][same]})
              .groupby(["w1", "w2"], sort=False).size()
              .reset_index(name="cnt"))
        bc["kind"] = np.int64(1)
        out = pd.concat([uni, bc], ignore_index=True)
        out["bk"] = (pd.util.hash_array(out.w1.to_numpy(object))
                     % nbk).astype(np.int64)
        return out

    slim = docs.map_batches(partials, batch_format="pandas").materialize()
    kinds = _preagg(slim, ["kind"], [("n", "cnt", "sum")]).to_pandas()
    n_tok = int(kinds.set_index("kind").n.get(0, 0))

    def attach_c1(g: pd.DataFrame) -> pd.DataFrame:
        uni = g[g.kind == 0].groupby("w1", sort=False)["cnt"].sum()
        big = (g[g.kind == 1].groupby(["w1", "w2"], sort=False)["cnt"]
               .sum().reset_index(name="cxy"))
        big = big[big.cxy >= min_cnt]
        out = pd.DataFrame({"w1": big.w1.to_numpy(object),
                            "w2": big.w2.to_numpy(object),
                            "cxy": big.cxy.to_numpy(np.int64),
                            "c1": uni.reindex(big.w1).to_numpy(np.int64),
                            "kind": np.int64(1)})
        utab = pd.DataFrame({"w1": uni.index.to_numpy(object), "w2": "",
                             "cxy": uni.to_numpy(np.int64),
                             "c1": np.int64(0), "kind": np.int64(0)})
        out = pd.concat([out, utab], ignore_index=True)
        key = np.where(out.kind.to_numpy() == 0,
                       out.w1.to_numpy(object), out.w2.to_numpy(object))
        out["bk"] = (pd.util.hash_array(key.astype(object))
                     % nbk).astype(np.int64)
        return out

    def attach_c2_topk(g: pd.DataFrame) -> pd.DataFrame:
        uni = g[g.kind == 0].set_index("w1")["cxy"]
        big = g[g.kind == 1]
        if len(big) == 0:
            return pd.DataFrame({"w1": pd.Series([], dtype=object),
                                 "w2": pd.Series([], dtype=object),
                                 "cxy": pd.Series([], dtype=np.int64),
                                 "c1": pd.Series([], dtype=np.int64),
                                 "c2": pd.Series([], dtype=np.int64),
                                 "r": pd.Series([], dtype=np.float64),
                                 "pmi": pd.Series([], dtype=np.float64)})
        c2 = uni.reindex(big.w2).to_numpy(np.int64)
        num = (big.cxy.to_numpy(np.int64) * n_tok).astype(np.float64)
        den = (big.c1.to_numpy(np.int64) * c2).astype(np.float64)
        out = pd.DataFrame({"w1": big.w1.to_numpy(object),
                            "w2": big.w2.to_numpy(object),
                            "cxy": big.cxy.to_numpy(np.int64),
                            "c1": big.c1.to_numpy(np.int64), "c2": c2,
                            "r": num / den})
        out = out.sort_values(["r", "w1", "w2"],
                              ascending=[False, True, True],
                              kind="mergesort").head(k)
        out["pmi"] = np.array([round(math.log(v), 6) for v in out.r],
                              dtype=np.float64)
        return out[["w1", "w2", "cxy", "c1", "c2", "r", "pmi"]]

    return (slim.groupby("bk").map_groups(attach_c1, batch_format="pandas")
            .groupby("bk").map_groups(attach_c2_topk, batch_format="pandas")
            .sort(["r", "w1", "w2"], descending=[True, False, False])
            .limit(k)
            .select_columns(["w1", "w2", "cxy", "c1", "c2", "pmi"]))


def events_funnel(sf_dir: str):
    """Ordered conversion-funnel analysis (signup → click → purchase, the
    product-analytics staple): per user, depth = number of consecutive
    stages whose FIRST occurrence times are strictly increasing
    (t_signup < t_click < t_purchase); output (depth, n_users) for depths
    0-3 (0 = a user with funnel-stage activity but no signup; users with
    no signup/click/purchase events at all are out of scope on both
    engines).

    Scale shape: per-block conditional-min partials ((user, stage) →
    min ts, vectorized via one groupby per batch) → ONE user-hash
    exchange combining mins → vectorized depth evaluation → a ≤4-row
    final aggregate. The stream is reduced to ≤3 slim rows per user
    BEFORE the only exchange; nothing per-event ever shuffles. Missing
    stages ride as NaN µs (comparisons with NaN are False on both
    engines' CASE/np.where paths); µs epochs ≈ 1.7e15 are float64-exact
    (< 2^53), so the strict-< compares are bit-exact."""
    ev = read_testdata(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    STAGES = ("signup", "click", "purchase")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.event_type.isin(STAGES)]
        us = _epoch_us(df.ts)
        m = (pd.DataFrame({"user_id": df.user_id.to_numpy(np.int64),
                           "stage": df.event_type.to_numpy(object),
                           "us": us})
             .groupby(["user_id", "stage"], sort=False)["us"].min()
             .reset_index())
        return m

    def depth_of(g: pd.DataFrame) -> pd.DataFrame:
        m = (g.groupby(["user_id", "stage"], sort=False)["us"].min()
             .unstack("stage"))
        t1 = m.get("signup", pd.Series(np.nan, index=m.index)).to_numpy(np.float64)
        t2 = m.get("click", pd.Series(np.nan, index=m.index)).to_numpy(np.float64)
        t3 = m.get("purchase", pd.Series(np.nan, index=m.index)).to_numpy(np.float64)
        depth = np.where(np.isnan(t1), 0,
                         np.where(~(t2 > t1), 1,
                                  np.where(~(t3 > t2), 2, 3))).astype(np.int64)
        vc = pd.Series(depth).value_counts()
        return pd.DataFrame({"depth": vc.index.to_numpy(np.int64),
                             "n_users": vc.to_numpy(np.int64)})

    import ray

    nbk = max(8, int(ray.cluster_resources().get("CPU", 8)))
    parts = ev.map_batches(partial, batch_format="pandas")
    parts = parts.map_batches(
        lambda df: df.assign(bk=(df.user_id.to_numpy(np.int64) % nbk)),
        batch_format="pandas")
    per_bucket = parts.groupby("bk").map_groups(depth_of, batch_format="pandas")
    return _preagg(per_bucket, ["depth"], [("n_users", "n_users", "sum")])


def doc_inverted_index(sf_dir: str, k_postings: int = 10):
    """Inverted-index build (search/retrieval export): per term its
    document frequency and the first `k_postings` doc_ids ascending as a
    comma-joined posting preview — the index layout a BM25/boolean
    retrieval service consumes. Output (term, df, posting).

    Scale shape: per-block DISTINCT (term, doc_id) pairs (docs are
    row-atomic, so block-local distinct is globally correct after the
    union) → ONE term-hash-bucket exchange → in-bucket vectorized sort +
    cumcount head-k; the comma join runs once per TERM (vocab-bounded),
    never per posting. The full posting lists for stopword-grade terms
    ship through the exchange (O(Σ distinct pairs), same bound as the
    TF-IDF df pass); the output previews are k-bounded. Parity: int→str
    doc_id formatting is locale-free and identical on both engines."""
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "text"])
    nbk = _nbuckets(nd, rows_per_bucket=2048, lo=16)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        texts = df.text.fillna("")
        words = _flat_words(texts)
        cnts = (texts.str.count(" ") + 1).to_numpy(np.int64)
        doc_of = np.repeat(df.doc_id.to_numpy(np.int64), cnts)
        p = (pd.DataFrame({"term": words, "doc_id": doc_of})
             .drop_duplicates())
        p["bk"] = (pd.util.hash_array(p.term.to_numpy(object))
                   % nbk).astype(np.int64)
        return p

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["term", "doc_id"], kind="mergesort")
        dfv = g.groupby("term", sort=False)["doc_id"].transform("size")
        head = g[g.groupby("term", sort=False).cumcount() < k_postings]
        posting = (head.assign(s=head.doc_id.astype(str))
                   .groupby("term", sort=False)["s"]
                   .agg(",".join))
        per_term = (pd.DataFrame({"term": g.term.to_numpy(object),
                                  "df": dfv.to_numpy(np.int64)})
                    .drop_duplicates("term"))
        return pd.DataFrame({
            "term": per_term.term.to_numpy(object),
            "df": per_term.df.to_numpy(np.int64),
            "posting": posting.reindex(per_term.term).to_numpy(object)})

    return (docs.map_batches(pairs, batch_format="pandas")
            .groupby("bk").map_groups(build, batch_format="pandas"))


def events_ohlc_bars(sf_dir: str):
    """Hourly OHLC bars per event_type (the time-series compaction every
    metrics store runs): open/close = value at the first/last (ts,
    event_id) of the bar, low/high = min/max, n = row count. Values are
    COPIED, never recomputed, so the doubles are bit-exact on both
    engines; the (ts, event_id) total order breaks timestamp ties.

    Scale shape: the order-statistics-carrying ALGEBRAIC combiner — each
    block reduces to one partial row per (event_type, hour) carrying
    (open_us, open_id, open, close_us, close_id, close, lo, hi, n); ONE
    bar-hash exchange merges partials with the same sort-based vectorized
    kernel (argmin/argmax merge = sort + first/last per group). Nothing
    per-event ever shuffles, and bar cardinality (types × hours) bounds
    every stage after the first."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "ts", "event_type", "value"])

    def reduce_bars(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "hour", "us", "event_id"],
                            kind="mergesort")
        g = df.groupby(["event_type", "hour"], sort=False)
        first = g.head(1).reset_index(drop=True)
        last = g.tail(1).reset_index(drop=True)
        agg = g.agg(lo=("lo", "min"), hi=("hi", "max"),
                    n=("n", "sum")).reset_index()
        return pd.DataFrame({
            "event_type": agg.event_type.to_numpy(object),
            "hour": agg.hour.to_numpy(),
            "us": first.us.to_numpy(np.int64),
            "event_id": first.event_id.to_numpy(np.int64),
            "open": first.open.to_numpy(np.float64),
            "close_us": last.close_us.to_numpy(np.int64),
            "close_id": last.close_id.to_numpy(np.int64),
            "close": last.close.to_numpy(np.float64),
            "lo": agg.lo.to_numpy(np.float64),
            "hi": agg.hi.to_numpy(np.float64),
            "n": agg.n.to_numpy(np.int64)})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(df.ts)
        p = pd.DataFrame({
            "event_type": df.event_type.to_numpy(object),
            "hour": df.ts.to_numpy(dtype="datetime64[us]")
                      .astype("datetime64[h]").astype("datetime64[us]"),
            "us": us, "event_id": df.event_id.to_numpy(np.int64),
            "open": df.value.to_numpy(np.float64),
            "close_us": us,
            "close_id": df.event_id.to_numpy(np.int64),
            "close": df.value.to_numpy(np.float64),
            "lo": df.value.to_numpy(np.float64),
            "hi": df.value.to_numpy(np.float64),
            "n": np.int64(1)})
        return reduce_bars(p)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # merging partials re-runs the same kernel: first by (us,
        # event_id) picks the global open among block opens; last by
        # (close_us, close_id) needs the CLOSE order — sort ascending by
        # close keys is NOT the open order, so re-sort for the tail pick
        df = df.sort_values(["event_type", "hour", "us", "event_id"],
                            kind="mergesort")
        g = df.groupby(["event_type", "hour"], sort=False)
        first = g.head(1).reset_index(drop=True)
        agg = g.agg(lo=("lo", "min"), hi=("hi", "max"),
                    n=("n", "sum")).reset_index()
        dfc = df.sort_values(["event_type", "hour", "close_us", "close_id"],
                             kind="mergesort")
        last = (dfc.groupby(["event_type", "hour"], sort=False)
                .tail(1).reset_index(drop=True))
        return pd.DataFrame({
            "event_type": agg.event_type.to_numpy(object),
            "hour": agg.hour.to_numpy(),
            "open": first.open.to_numpy(np.float64),
            "high": agg.hi.to_numpy(np.float64),
            "low": agg.lo.to_numpy(np.float64),
            "close": last.close.to_numpy(np.float64),
            "n": agg.n.to_numpy(np.int64)})

    parts = ev.map_batches(partial, batch_format="pandas")
    parts = parts.map_batches(
        lambda df: df.assign(
            bk=(pd.util.hash_pandas_object(
                df[["event_type"]], index=False).to_numpy(np.uint64)
                % np.uint64(32)).astype(np.int64)),
        batch_format="pandas")
    return parts.groupby("bk").map_groups(
        lambda g: combine(g.drop(columns=["bk"])), batch_format="pandas")


def market_basket_pairs(sf_dir: str, min_cnt: int = 2, k: int = 100):
    """Market-basket co-occurrence mining (the association-rules front
    half): top-k part pairs by the number of orders whose lineitems
    contain both, ties by (p1, p2); pair multiplicity follows the
    line-level self-join semantics (two lines of part A and one of part B
    in one order contribute 2 to (A, B)) — expression-identical to the
    SQL self-join oracle. Output (p1, p2, n) with p1 < p2.

    Scale shape: orderkey-hash bucket exchange co-locates each order's
    lines (order size is bounded — TPC-H ≤ 7 — so the in-bucket self-merge
    explosion is O(lines × order_size), never quadratic in the corpus);
    pair partials pre-aggregate in the same pass, then one pair-hash
    _preagg and a per-block top-k ahead of the tiny global sort."""
    li, nl = _spread_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    nbk = _nbuckets(nl, rows_per_bucket=8192, lo=32)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o": df.l_orderkey.to_numpy(np.int64),
            "p": df.l_partkey.to_numpy(np.int64),
            "bk": (df.l_orderkey.to_numpy(np.int64) % nbk)})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["o", "p"]].merge(g[["o", "p"]], on="o",
                                suffixes=("1", "2"))
        m = m[m.p1 < m.p2]
        c = (m.groupby(["p1", "p2"], sort=False).size()
             .reset_index(name="n"))
        c["bk"] = ((c.p1.to_numpy(np.int64) * 1000003
                    + c.p2.to_numpy(np.int64)) % nbk)
        return c

    agg = _preagg(
        li.map_batches(keyed, batch_format="pandas")
        .groupby("bk").map_groups(pairs, batch_format="pandas"),
        ["p1", "p2"], [("n", "n", "sum")])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.n >= min_cnt]
        return df.sort_values(["n", "p1", "p2"],
                              ascending=[False, True, True],
                              kind="mergesort").head(k)

    return (agg.map_batches(topk, batch_format="pandas", batch_size=None)
            .sort(["n", "p1", "p2"], descending=[True, False, False])
            .limit(k))


def _copurchase_edges(sf_dir: str, min_orders: int = 2):
    """Materialized undirected co-purchase edge set over parts (p1 < p2;
    an edge joins parts bought together in ≥ min_orders distinct orders) —
    the shared graph builder for graph_triangles / graph_pagerank.

    Scale shape: distinct (order, part) pairs bucket by ORDER → in-bucket
    self-merge emits co-purchase pair partials (order size bounded, so the
    explosion is linear in lines) → pair-hash ``_preagg`` → filtered edge
    rows, materialized once so downstream graph loops never re-run the
    derivation. Returns ``(edges_dataset, nbk)`` with nbk the input-scaled
    bucket count the caller can reuse for its own exchanges."""
    li, nl = _spread_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    nbk = _nbuckets(nl, rows_per_bucket=8192, lo=32)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o": df.l_orderkey.to_numpy(np.int64),
            "p": df.l_partkey.to_numpy(np.int64),
            "bk": (df.l_orderkey.to_numpy(np.int64) % nbk)})

    def order_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g[["o", "p"]].drop_duplicates()
        m = g.merge(g, on="o", suffixes=("1", "2"))
        m = m[m.p1 < m.p2]
        c = (m.groupby(["p1", "p2"], sort=False).size()
             .reset_index(name="cnt"))
        return c

    pair_parts = (li.map_batches(keyed, batch_format="pandas")
                  .groupby("bk").map_groups(order_pairs,
                                            batch_format="pandas"))
    edges = (_preagg(pair_parts, ["p1", "p2"], [("cnt", "cnt", "sum")])
             .map_batches(lambda df: df[df.cnt >= min_orders]
                          [["p1", "p2"]], batch_format="pandas")
             .materialize())
    return edges, nbk


def graph_triangles(sf_dir: str, min_orders: int = 2, k: int = 100):
    """Distributed triangle counting over the co-purchase graph — the
    graph-analytics canary (clustering coefficients, community seeds,
    fraud rings). Nodes are parts; an undirected edge joins parts bought
    together in ≥ min_orders distinct orders. Output: top-k nodes by the
    number of triangles they participate in, ties by part id.

    Scale shape: the node-iterator wedge-closure algorithm with the
    canonical a < b < c orientation, every stage an exchange of SLIM
    integer rows:
      1. distinct (order, part) pairs bucket by ORDER → in-bucket
         self-merge emits co-purchase pair partials (order size bounded,
         so the explosion is linear in lines) → pair-hash `_preagg` →
         edges (p1 < p2, cnt ≥ min_orders), materialized once and reused.
      2. edges bucket by LOW endpoint → each node's adjacency meets in one
         group; the in-bucket self-merge emits wedges (a; b < c) — each
         triangle is generated exactly once, at its smallest vertex.
      3. wedges re-keyed by hash(b, c) ride ONE union exchange with the
         edge set keyed hash(p1, p2); the in-bucket merge keeps wedges
         whose closing edge exists → triangles (a, b, c), reduced to
         per-node count partials before leaving the bucket.
      4. node-hash `_preagg` + per-block top-k + tiny global sort.
    The wedge count is Σ deg(v)² over low endpoints — the documented skew
    term; hub nodes would need degree-ordered orientation, which changes
    no output (the SQL oracle is orientation-free) and can be swapped in
    behind the same exchanges if a corpus develops hubs."""
    edges, nbk = _copurchase_edges(sf_dir, min_orders)
    MIX = np.int64(1000003)

    def wedge_rows(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="p1", suffixes=("_x", "_y"))
        m = m[m.p2_x < m.p2_y]
        b = m.p2_x.to_numpy(np.int64)
        c = m.p2_y.to_numpy(np.int64)
        return pd.DataFrame({"a": m.p1.to_numpy(np.int64), "b": b, "c": c,
                             "kind": np.int64(1),
                             "bk2": (b * MIX + c) % nbk})

    wedges = (edges.map_batches(
        lambda df: df.assign(bk=df.p1.to_numpy(np.int64) % nbk),
        batch_format="pandas")
        .groupby("bk")
        .map_groups(lambda g: wedge_rows(g.drop(columns=["bk"])),
                    batch_format="pandas"))
    ekeyed = edges.map_batches(
        lambda df: pd.DataFrame({
            "a": np.int64(-1),
            "b": df.p1.to_numpy(np.int64), "c": df.p2.to_numpy(np.int64),
            "kind": np.int64(0),
            "bk2": (df.p1.to_numpy(np.int64) * MIX
                    + df.p2.to_numpy(np.int64)) % nbk}),
        batch_format="pandas")

    def close_and_count(g: pd.DataFrame) -> pd.DataFrame:
        e = g[g.kind == 0][["b", "c"]]
        w = g[g.kind == 1]
        t = w.merge(e, on=["b", "c"])
        nodes = np.concatenate([t.a.to_numpy(np.int64),
                                t.b.to_numpy(np.int64),
                                t.c.to_numpy(np.int64)])
        vc = pd.Series(nodes).value_counts()
        return pd.DataFrame({"p": vc.index.to_numpy(np.int64),
                             "n_tri": vc.to_numpy(np.int64)})

    counts = _preagg(
        wedges.union(ekeyed).groupby("bk2")
        .map_groups(close_and_count, batch_format="pandas"),
        ["p"], [("n_tri", "n_tri", "sum")])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["n_tri", "p"], ascending=[False, True],
                              kind="mergesort").head(k)

    return (counts.map_batches(topk, batch_format="pandas",
                               batch_size=None)
            .sort(["n_tri", "p"], descending=[True, False])
            .limit(k))


def graph_pagerank(sf_dir: str, iters: int = 5, damping: float = 0.85,
                   min_orders: int = 2, k: int = 100):
    """Fixed-iteration PageRank over the co-purchase graph — the iterative
    fixed-point numeric class the graph suite lacked (centrality scoring;
    in an LLM-data pipeline, the link-graph quality prior of
    spam-rank-style corpus weighting). Power method with damping d:
    pr_{t+1}(v) = (1-d)/N + d·Σ_{u→v} pr_t(u)/deg(u), ``iters`` rounds
    from the uniform start; the undirected co-purchase graph has no
    dangling nodes by construction (every node in the edge set has
    deg ≥ 1). Output: top-k nodes by score = round(pr·N, 6)
    (mean-normalized so 1.0 = average centrality), ties by part id.

    Scale shape: the doc_dup_clusters round pattern — per round TWO
    bucketed exchanges of slim numeric rows (never Dataset.join's per-round
    aggregator floor): (1) pr rows meet the deg-carrying directed edge
    rows in src-keyed buckets and emit (dst, pr_src/deg_src) contribution
    rows, plus a zero contribution per node row so every node reaches the
    combine; (2) dst-keyed buckets reduce new_pr = (1-d)/N + d·Σc. The
    edge+node operand is built by ONE src-keyed exchange (deg attached
    where each node's adjacency meets) and materialized before the loop;
    rounds are FIXED, so the driver holds only N and the loop counter —
    no convergence gather at all. Float parity with the SQL oracle: the
    teleport coefficient is the same Python double ``1 - damping``
    serialized into both engines (the literal 0.15 differs from 1-0.85 by
    one ulp), contributions are the identical pr/deg IEEE divide, and
    cross-engine sum-association drift (ulps after ``iters`` rounds) is
    absorbed by the 6-decimal rounding of the O(1)-magnitude score."""
    edges, _ = _copurchase_edges(sf_dir, min_orders)
    n_edges = edges.count()
    if not n_edges:
        return pd.DataFrame({"part_id": np.empty(0, np.int64),
                             "score": np.empty(0, np.float64)})
    # loop buckets: larger rows_per_bucket than one-shot exchanges — the
    # groupby sort runs EVERY round, so its per-group/per-block floor is
    # paid 2·iters times (the doc_dup_clusters coalesce lesson)
    nbk = _nbuckets(2 * n_edges, rows_per_bucket=131072, lo=8)

    def undirect(df: pd.DataFrame) -> pd.DataFrame:
        a = df.p1.to_numpy(np.int64)
        b = df.p2.to_numpy(np.int64)
        s = np.concatenate([a, b])
        t = np.concatenate([b, a])
        return pd.DataFrame({"s": s, "t": t, "bk": s % nbk})

    def attach_deg(g: pd.DataFrame) -> pd.DataFrame:
        # every directed edge of each src s meets here (keyed by s):
        # deg = group size. Emit edge rows (t >= 0) and one node row per
        # src (t == -2); pr rows later carry t == -1.
        s = g.s.to_numpy(np.int64)
        t = g.t.to_numpy(np.int64)
        deg = g.groupby("s", sort=False)["t"].transform("size") \
               .to_numpy(np.int64)
        uniq = np.unique(s)
        key = np.concatenate([s, uniq])
        return pd.DataFrame({
            "key": key,
            "t": np.concatenate([t, np.full(len(uniq), -2, np.int64)]),
            "deg": np.concatenate([deg, np.zeros(len(uniq), np.int64)]),
            "pr": np.zeros(len(key), np.float64),
            "bk": key % nbk})

    # coalesce the static operand to a row-scaled block count: groupby's
    # output partition count inherits its INPUT block count, so without
    # this every round's union grows the pr block count by |mixed blocks|
    # (measured: pr at 128→384 blocks over 5 rounds for 6k rows, round
    # wall 2.2 s → 13.4 s superlinear — the growing-block disease the
    # doc_dup_clusters loop already guards against)
    mixed = (edges.map_batches(undirect, batch_format="pandas")
             .groupby("bk").map_groups(attach_deg, batch_format="pandas")
             .repartition(nbk)
             .materialize())
    n_nodes = mixed.map_batches(
        lambda df: pd.DataFrame({"one": np.ones((df.t == -2).sum(),
                                                np.int64)}),
        batch_format="pandas").count()
    nf = float(n_nodes)
    base = (1.0 - damping) / nf  # one driver-side divide, reused verbatim

    def init_pr(df: pd.DataFrame) -> pd.DataFrame:
        key = df.loc[df.t == -2, "key"].to_numpy(np.int64)
        return pd.DataFrame({
            "key": key, "t": np.full(len(key), -1, np.int64),
            "deg": np.zeros(len(key), np.int64),
            "pr": np.full(len(key), 1.0 / nf, np.float64),
            "bk": key % nbk})

    pr = mixed.map_batches(init_pr, batch_format="pandas")

    def prop(g: pd.DataFrame) -> pd.DataFrame:
        eds = g.loc[g.t >= 0, ["key", "t", "deg"]]
        prs = g.loc[g.t == -1, ["key", "pr"]]
        nodes_k = g.loc[g.t == -2, "key"].to_numpy(np.int64)
        m = eds.merge(prs, on="key")
        # combiner before the shuffle: partial per-dst sums WITHIN this
        # src bucket — the dst-ward exchange then carries one row per
        # (dst × src-bucket) instead of one per edge
        part = (pd.DataFrame({
                    "node": m.t.to_numpy(np.int64),
                    "c": m.pr.to_numpy(np.float64)
                    / m.deg.to_numpy(np.float64)})
                .groupby("node", sort=False)["c"].sum().reset_index())
        node = np.concatenate([part.node.to_numpy(np.int64), nodes_k])
        cc = np.concatenate([part.c.to_numpy(np.float64),
                             np.zeros(len(nodes_k), np.float64)])
        return pd.DataFrame({"node": node, "c": cc, "bk2": node % nbk})

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("node", sort=False)["c"].sum()
        nd = agg.index.to_numpy(np.int64)
        return pd.DataFrame({
            "key": nd, "t": np.full(len(nd), -1, np.int64),
            "deg": np.zeros(len(nd), np.int64),
            "pr": base + damping * agg.to_numpy(np.float64),
            "bk": nd % nbk})

    for _ in range(iters):
        prop_out = (mixed.union(pr).groupby("bk")
                    .map_groups(prop, batch_format="pandas"))
        # repartition(nbk) pins pr's block count per round (one cheap
        # exchange of O(nodes) slim rows) — without it each round's
        # groupby emits (|mixed| + |pr|) output blocks and the loop wall
        # grows superlinearly in the round number
        pr = (prop_out.groupby("bk2")
              .map_groups(combine, batch_format="pandas")
              .repartition(nbk)
              .materialize())
        # hard lineage cut (see _cc_label_prop): drop the accumulated
        # plan/stats chain each round — block refs only, no data movement.
        # The identity map restores pandas block type for union(mixed, pr)
        # (union asserts homogeneous block types); it fuses into the next
        # round's plan.
        import ray.data as _rd

        pr = _rd.from_arrow_refs(pr.to_arrow_refs()).map_batches(
            lambda df: df, batch_format="pandas")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({
            "part_id": df.key.to_numpy(np.int64),
            "score": np.round(df.pr.to_numpy(np.float64) * nf, 6)})
        return out.sort_values(["score", "part_id"],
                               ascending=[False, True],
                               kind="mergesort").head(k)

    return (pr.map_batches(finish, batch_format="pandas", batch_size=None)
            .sort(["score", "part_id"], descending=[True, False])
            .limit(k))


def image_footprint_overlaps(sf_dir: str):
    """Footprint-overlap SELF-join over the REAL enriched corpus — which
    georeferenced images cover the same ground (the mosaic/stitch
    candidate set, stacking depth, revisit detection; reference intent:
    the PostGIS footprint geometry of create-tables.sql applied pairwise).
    A footprint is [west, west + w·px_deg] × [north, north + h·py_deg]
    (py_deg > 0 in this corpus); output every unordered pair
    (img_a < img_b, binary string order — identical in pandas and DuckDB
    on these ASCII ids) whose closed boxes intersect.

    Scale shape: the PBSM reference-point pattern of
    geo_bbox_overlap_pairs, applied to corpus data: grid cells of edge
    0.004 deg (> the 0.0017-deg max footprint extent, so each image
    covers ≤ 4 cells and overlapping pairs sit within ±1 min-corner
    cells); each copy re-derives the intersection's min-corner cell and
    only that cell's copy emits — exactly-once with ONE
    groupby(cell-bucket) exchange and zero dedup passes. The box bounds
    are the same one-multiply-one-add expression in both engines
    (bit-identical doubles), so the overlap predicate needs no epsilon."""
    from . import flagship as fl

    CELL = 0.004
    NX = 2048  # cy < ~250, cx < ~1100 here: cell = cx*NX + cy is injective
    out = _flagship_out(synth.sf_from_dir(sf_dir))
    ds = fl.read_enriched(out).select_columns(
        ["image_id", "w", "h", "west", "north", "px_deg", "py_deg",
         "has_gps", "decode_ok"])
    nbk = _nbuckets(2 * synth.n_images_for_sf(synth.sf_from_dir(sf_dir)),
                    rows_per_bucket=8192, lo=32)

    def rect_rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.has_gps & df.decode_ok]
        x0 = df.west.to_numpy(np.float64)
        x1 = x0 + df.w.to_numpy(np.float64) * df.px_deg.to_numpy(np.float64)
        y0 = df.north.to_numpy(np.float64)
        y1 = y0 + df.h.to_numpy(np.float64) * df.py_deg.to_numpy(np.float64)
        ids = df.image_id.to_numpy(object)
        cx0 = np.floor((x0 - _GRID_LON0) / CELL).astype(np.int64)
        cx1 = np.floor((x1 - _GRID_LON0) / CELL).astype(np.int64)
        cy0 = np.floor((y0 - _GRID_LAT0) / CELL).astype(np.int64)
        cy1 = np.floor((y1 - _GRID_LAT0) / CELL).astype(np.int64)
        frames = []
        for dx in (0, 1):
            for dy in (0, 1):
                ok = (cx0 + dx <= cx1) & (cy0 + dy <= cy1)
                frames.append(pd.DataFrame({
                    "cell": (cx0[ok] + dx) * NX + (cy0[ok] + dy),
                    "img": ids[ok],
                    "x0": x0[ok], "y0": y0[ok],
                    "x1": x1[ok], "y1": y1[ok]}))
        rc = pd.concat(frames, ignore_index=True)
        rc["bk"] = rc.cell.to_numpy() % nbk
        return rc

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # candidate pairs as INT index pairs (ia < ib dedups the unordered
        # pair once): the self-merge carries two int columns instead of
        # every payload column; strings are touched only for KEPT pairs
        g = g.reset_index(drop=True)
        idx = pd.DataFrame({"cell": g.cell.to_numpy(np.int64),
                            "i": np.arange(len(g), dtype=np.int64)})
        m = idx.merge(idx, on="cell", suffixes=("_a", "_b"))
        ia = m.i_a.to_numpy(np.int64)
        ib = m.i_b.to_numpy(np.int64)
        sel = ia < ib
        ia, ib = ia[sel], ib[sel]
        cell = m.cell.to_numpy(np.int64)[sel]
        x0v = g.x0.to_numpy(np.float64)
        y0v = g.y0.to_numpy(np.float64)
        x1v = g.x1.to_numpy(np.float64)
        y1v = g.y1.to_numpy(np.float64)
        x0a, x0b = x0v[ia], x0v[ib]
        y0a, y0b = y0v[ia], y0v[ib]
        overlap = ((x0a <= x1v[ib]) & (x0b <= x1v[ia])
                   & (y0a <= y1v[ib]) & (y0b <= y1v[ia]))
        # canonical-cell rule: the min-corner cell of the intersection,
        # compared against THIS copy's cell (cx = cell // NX, cy = cell % NX)
        ccx = np.floor((np.maximum(x0a, x0b) - _GRID_LON0)
                       / CELL).astype(np.int64)
        ccy = np.floor((np.maximum(y0a, y0b) - _GRID_LAT0)
                       / CELL).astype(np.int64)
        keep = overlap & (ccx == cell // NX) & (ccy == cell % NX)
        imgs = g.img.to_numpy(object)
        sa = imgs[ia[keep]]
        sb = imgs[ib[keep]]
        swap = sa > sb  # output canonicalized by image_id string order
        return pd.DataFrame({"img_a": np.where(swap, sb, sa),
                             "img_b": np.where(swap, sa, sb)})

    return (ds.map_batches(rect_rows, batch_format="pandas")
            .groupby("bk")
            .map_groups(pair_bucket, batch_format="pandas"))


def events_global_rank(sf_dir: str):
    """Global rank / percentile transform of every event by value — the
    rank-normalization step of feature pipelines (quantile scaling, ECDF
    scoring), as a DISTRIBUTED ORDER STATISTIC with no global sort
    barrier. Output (event_id, value, rnk, pct): rnk = row_number under
    the (value, event_id) total order, pct = rnk / N (one IEEE divide of
    exactly-converted int64s — bit-identical across engines; value is a
    copied double).

    Scale shape: the two-phase ordered scan of ``_bucket_offsets`` over
    VALUE-range buckets. Bucket bounds come from the parquet footer min/max
    (metadata only, no scan); every row maps to one ORDERED bucket; phase 1
    counts rows per bucket (≤ nbk rows to the driver) and prefix-sums them
    into offsets; phase 2 sorts WITHIN each bucket (vectorized mergesort on
    (value, event_id)) and adds the offset. Equal-width value buckets can
    skew on pathological distributions — the fix at 100 TB is sampled
    quantile bounds feeding the same two phases; the exchange count does
    not change."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id", "value"])
    if ne == 0:
        return _no_rows(event_id=np.int64, value=np.float64, rnk=np.int64,
                        pct=np.float64)
    lo, hi = map(float, _pq_colminmax(testdata_path(sf_dir, "events"),
                                      "value"))
    nbk = _nbuckets(ne, rows_per_bucket=8192, lo=32)
    width = max((hi - lo) / nbk, 1e-300)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        v = df.value.to_numpy(np.float64)
        bk = np.clip(np.floor((v - lo) / width), 0, nbk - 1).astype(np.int64)
        return pd.DataFrame({"event_id": df.event_id.to_numpy(np.int64),
                             "value": v, "bk": bk})

    slim = ev.map_batches(keyed, batch_format="pandas").materialize()
    cnts, offsets = _bucket_offsets(slim, "bk", ("n", None, "count"))
    n_total = int(cnts.n.sum())

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], kind="mergesort")
        base = offsets.get(int(g.bk.iloc[0]), 0)
        rnk = base + np.arange(1, len(g) + 1, dtype=np.int64)
        return pd.DataFrame({"event_id": g.event_id.to_numpy(np.int64),
                             "value": g.value.to_numpy(np.float64),
                             "rnk": rnk,
                             "pct": rnk.astype(np.float64)
                             / np.float64(n_total)})

    return slim.groupby("bk").map_groups(rank_bucket, batch_format="pandas")


def events_nearest_error(sf_dir: str, tol_min: int = 10):
    """Nearest-event temporal join, both sides large: for every purchase,
    the globally nearest error event within ±tol_min minutes — the
    incident-correlation / nearest-sensor-reading join (the 1-D temporal
    analog of geo_knn_join with k=1). Output (purchase_id, error_id,
    dt_us) with dt_us = error − purchase in signed integer µs; nearest by
    (|dt|, error ts, error id) — integer-only ordering, bit-exact.

    Scale shape: 1-D PBSM on time buckets of width exactly tol: each
    error is replicated to its ±1 neighbor buckets, each purchase goes
    HOME to one bucket, so every in-tolerance pair meets exactly once in
    the purchase's bucket and per-purchase top-1 needs no cross-bucket
    merge. ONE union exchange of slim integer rows; in-bucket candidates
    via a C-level merge on bucket id; the argmin is one vectorized sort +
    cumcount over the whole bucket (never per purchase)."""
    tol_us = np.int64(tol_min) * 60_000_000
    ev, ne = _spread_read(sf_dir, "events", ["event_id", "ts", "event_type"])
    nbk = _nbuckets(ne, rows_per_bucket=8192, lo=32)

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.event_type.isin(("purchase", "error"))]
        us = _epoch_us(df.ts)
        b = us // tol_us
        ids = df.event_id.to_numpy(np.int64)
        isp = df.event_type.to_numpy(object) == "purchase"
        frames = [pd.DataFrame({"b": b[isp], "id": ids[isp],
                                "us": us[isp], "kind": np.int64(0)})]
        for d in (-1, 0, 1):
            frames.append(pd.DataFrame({"b": b[~isp] + d, "id": ids[~isp],
                                        "us": us[~isp],
                                        "kind": np.int64(1)}))
        out = pd.concat(frames, ignore_index=True)
        out["bk"] = out.b.to_numpy() % nbk
        return out

    def nearest(g: pd.DataFrame) -> pd.DataFrame:
        p = g[g.kind == 0]
        e = g[g.kind == 1]
        cols = ["b", "id", "us"]
        m = p[cols].merge(e[cols], on="b", suffixes=("_p", "_e"))
        dt = m.us_e.to_numpy(np.int64) - m.us_p.to_numpy(np.int64)
        keep = np.abs(dt) <= tol_us
        c = pd.DataFrame({"purchase_id": m.id_p.to_numpy(np.int64)[keep],
                          "error_id": m.id_e.to_numpy(np.int64)[keep],
                          "dt_us": dt[keep],
                          "adt": np.abs(dt)[keep],
                          "ets": m.us_e.to_numpy(np.int64)[keep]})
        c = c.sort_values(["purchase_id", "adt", "ets", "error_id"],
                          kind="mergesort")
        c = c[c.groupby("purchase_id", sort=False).cumcount() == 0]
        return pd.DataFrame({
            "purchase_id": c.purchase_id.to_numpy(np.int64),
            "error_id": c.error_id.to_numpy(np.int64),
            "dt_us": c.dt_us.to_numpy(np.int64)})

    return (ev.map_batches(rows, batch_format="pandas")
            .groupby("bk").map_groups(nearest, batch_format="pandas"))


def image_chip_stats(sf_dir: str, tile: int = 64):
    """Per-chip PIXEL statistics — image_tile_chips' compute sibling: the
    actual decode feeding per-64×64-chip min/max/mean/zero-count, the
    quality screen a chip exporter runs before materializing training
    tiles (all-black / saturated / low-variance chips are dropped
    downstream). Output (image_id, tx, ty, px_min, px_max, px_mean,
    n_zero); px_mean is EXACT float64 (a < 2^53 integer sum divided by
    the power-of-two 4096), so the pytest brute-force oracle compares
    with == and no tolerance.

    Scale shape: zero exchanges — decode happens per blob inside
    map_batches (the per-blob loop is inherent to a codec; the chip
    reduction is one vectorized reshape to (ny, t, nx, t) + axis
    reductions per image, never per chip). Bytes stream block-by-block
    from the parquet read straight into decode; nothing is retained
    across batches, so worker memory is bounded by batch_size × image
    size. Rows-only vs the driver (bytes are not SQL-decodable); pinned
    by tests/test_queries.py::test_chip_stats_brute_force."""
    import ray.data as rd

    from ..functions import codec as C

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["image_id", "bytes"])

    def chip_stats(t: pa.Table) -> pd.DataFrame:
        ids_out, txs, tys = [], [], []
        mins, maxs, means, zeros = [], [], [], []
        ids = t.column("image_id").to_pylist()
        for img_id, blob in zip(ids, t.column("bytes").to_pylist()):
            px, _meta, ok = C.decode_image(blob)
            if not ok or px.shape[0] < tile or px.shape[1] < tile:
                continue
            ny, nx = px.shape[0] // tile, px.shape[1] // tile
            q = px[:ny * tile, :nx * tile].reshape(ny, tile, nx, tile)
            ids_out.append(np.repeat(np.array([img_id], dtype=object),
                                     nx * ny))
            # x-major chip order to match image_tile_chips
            txs.append(np.repeat(np.arange(nx, dtype=np.int64), ny))
            tys.append(np.tile(np.arange(ny, dtype=np.int64), nx))
            mins.append(q.min(axis=(1, 3)).T.ravel().astype(np.int64))
            maxs.append(q.max(axis=(1, 3)).T.ravel().astype(np.int64))
            s = q.astype(np.int64).sum(axis=(1, 3)).T.ravel()
            means.append(s.astype(np.float64) / np.float64(tile * tile))
            zeros.append((q == 0).sum(axis=(1, 3)).T.ravel()
                         .astype(np.int64))
        if not ids_out:
            return pd.DataFrame({
                "image_id": pd.Series([], dtype=object),
                "tx": pd.Series([], dtype=np.int64),
                "ty": pd.Series([], dtype=np.int64),
                "px_min": pd.Series([], dtype=np.int64),
                "px_max": pd.Series([], dtype=np.int64),
                "px_mean": pd.Series([], dtype=np.float64),
                "n_zero": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "image_id": np.concatenate(ids_out),
            "tx": np.concatenate(txs), "ty": np.concatenate(tys),
            "px_min": np.concatenate(mins), "px_max": np.concatenate(maxs),
            "px_mean": np.concatenate(means),
            "n_zero": np.concatenate(zeros)})

    return ds.map_batches(chip_stats, batch_format="pyarrow")


def doc_decontaminate(sf_dir: str, n: int = 8, eval_source: str = "src0"):
    """Benchmark decontamination — the named pre-training step (GPT-3
    appendix C; Dodge et al. 2021): find every TRAINING document that
    shares a verbatim n-token window with the held-out evaluation set
    (here: source == eval_source plays the benchmark), so it can be
    dropped before the eval is compromised. Output one row per
    contaminated training doc: (doc_id, n_contam) with n_contam = the
    count of its window POSITIONS whose 8-gram occurs anywhere in the
    eval set.

    Scale shape: doc_substring_dup_spans' machinery as a gram SEMI-JOIN
    between two sub-corpora sharing one pass: tokens hashed once per
    batch at C level, sliding polynomial window hashes, per-batch unique
    (gram, doc, cnt, is_eval) rows; ONE gram-hash-bucket exchange marks
    grams with >= 1 eval occurrence and keeps only matching TRAIN rows
    (bounded by true contamination volume); one tiny doc-keyed exchange
    sums per-doc counts. The eval side rides the same exchange — no
    broadcast needed even when the benchmark set is itself large."""
    docs, nd = _spread_read(sf_dir, "documents",
                            ["doc_id", "text", "source"])
    nbk = _nbuckets(nd, rows_per_bucket=4096, lo=16)

    def gram_partials(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"gh": np.empty(0, np.int64),
                              "doc_id": np.empty(0, np.int64),
                              "cnt": np.empty(0, np.int64),
                              "ev": np.empty(0, np.int64),
                              "bk": np.empty(0, np.int64)})
        r = _ngram_hashes(df.text, n)
        if r is None:
            return empty
        gh, rows_doc, _, _ = r
        ev = (df.source.to_numpy(object) == eval_source).astype(np.int64)
        occ = (pd.DataFrame({
                   "gh": gh,
                   "doc_id": df.doc_id.to_numpy(np.int64)[rows_doc],
                   "ev": ev[rows_doc]})
               .groupby(["gh", "doc_id", "ev"], sort=False)
               .size().reset_index(name="cnt"))
        occ["cnt"] = occ.cnt.astype(np.int64)
        occ["bk"] = occ.gh.to_numpy(np.int64) % nbk
        return occ[["gh", "doc_id", "cnt", "ev", "bk"]]

    def mark_contam(g: pd.DataFrame) -> pd.DataFrame:
        ev_any = g.groupby("gh", sort=False)["ev"].transform("max")
        hit = g[(ev_any.to_numpy() == 1) & (g.ev.to_numpy() == 0)]
        out = (hit.groupby("doc_id", sort=False)["cnt"].sum()
               .reset_index(name="n_contam"))
        return pd.DataFrame({"doc_id": out.doc_id.to_numpy(np.int64),
                             "n_contam": out.n_contam.to_numpy(np.int64),
                             "bk": out.doc_id.to_numpy(np.int64) % nbk})

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("doc_id", sort=False)["n_contam"].sum()
               .reset_index())
        return pd.DataFrame({"doc_id": out.doc_id.to_numpy(np.int64),
                             "n_contam": out.n_contam.to_numpy(np.int64)})

    return (docs.map_batches(gram_partials, batch_format="pandas")
            .groupby("bk").map_groups(mark_contam, batch_format="pandas")
            .groupby("bk").map_groups(
                lambda g: per_doc(g.drop(columns=["bk"])),
                batch_format="pandas"))


def snapshot_diff(sf_dir: str):
    """CDC-style snapshot diff: reconcile two versions of a keyed table
    into (added | deleted | changed) rows — the incremental-ingest /
    table-versioning primitive (what a lakehouse MERGE reads, what a
    resumable 100 TB refresh computes before rewriting only dirty
    partitions). The reference's audit-log intent (create-tables.sql:
    168-186, old/new row capture on change) expressed as a distributed
    set reconciliation instead of a trigger.

    The two snapshots are derived deterministically from the orders
    table with the SAME integer rules in both engines (no synthetic
    side-data): v1 = orders as-is; v2 = v1 minus keys ≡ 0 (mod 97)
    [deleted], with o_totalprice + 10.0 on keys ≡ 0 (mod 101) [changed;
    an exact float64 add — identical bits in numpy and DuckDB], plus a
    re-keyed copy (key + 1e9) of keys ≡ 0 (mod 103) [added]. Output:
    one row per differing key with change ∈ {added, deleted, changed}
    and both prices (-1.0 sentinel where the side is absent — the
    driver's hash compare is NaN-hostile). Unchanged keys never leave
    the diff bucket.

    Scale shape: both snapshot scans emit slim (key, side, price) rows
    into ONE key-hash bucketed exchange; each bucket outer-merges its
    two sides vectorized and emits only differing keys — the all-to-all
    carries 2 rows/key maximum and the output is bounded by the true
    diff size. At real scale both sides stream from storage
    independently (two read_parquet branches union'd), which is exactly
    this plan with the derivation map replaced by the second read."""
    ds = read_testdata(sf_dir, "orders",
                       columns=["o_orderkey", "o_totalprice"])
    n = _pq_nrows(testdata_path(sf_dir, "orders"))
    nbk = _nbuckets(2 * n, rows_per_bucket=8192, lo=16)
    NEWK = np.int64(1_000_000_000)

    def versions(df: pd.DataFrame) -> pd.DataFrame:
        k = df.o_orderkey.to_numpy(np.int64)
        p = df.o_totalprice.to_numpy(np.float64)
        keep = k % 97 != 0
        chg = k % 101 == 0
        add = k % 103 == 0
        out = pd.DataFrame({
            "k": np.concatenate([k, k[keep], k[add] + NEWK]),
            "side": np.concatenate([
                np.zeros(len(k), np.int64),
                np.ones(int(keep.sum()) + int(add.sum()), np.int64)]),
            "price": np.concatenate([
                p, np.where(chg, p + 10.0, p)[keep], p[add]])})
        out["bk"] = out.k.to_numpy(np.int64) % nbk
        return out

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        old = g.loc[g.side == 0, ["k", "price"]]
        new = g.loc[g.side == 1, ["k", "price"]]
        m = old.merge(new, on="k", how="outer", suffixes=("_o", "_n"))
        po = m.price_o.to_numpy(np.float64)
        pn = m.price_n.to_numpy(np.float64)
        deleted = np.isnan(pn)
        added = np.isnan(po)
        sel = deleted | added | (po != pn)
        po, pn = po[sel], pn[sel]
        deleted, added = deleted[sel], added[sel]
        return pd.DataFrame({
            "o_orderkey": m.k.to_numpy(np.int64)[sel],
            "change": np.select([deleted, added], ["deleted", "added"],
                                default="changed"),
            "old_price": np.where(added, -1.0, po),
            "new_price": np.where(deleted, -1.0, pn)})

    return (ds.map_batches(versions, batch_format="pandas")
            .groupby("bk")
            .map_groups(lambda g: diff(g.drop(columns=["bk"])),
                        batch_format="pandas"))


def image_id_fuzzy_neighbors(sf_dir: str):
    """Approximate-string SELF-join at edit distance exactly 1 over the
    corpus filenames — the fuzzy-matching primitive of data cleaning and
    noisy-metadata dedup (typo'd filenames, OCR'd titles, near-identical
    capture ids), the one string-similarity class (edit distance) the
    near-dup suite (minhash/simhash/ngram-Jaccard) did not cover. Output:
    (image_id, n_neighbors) for every id with ≥ 1 distance-1 neighbor.

    Scale shape: the SymSpell deletion-neighborhood join. Each id emits
    its identity + single-deletion 64-bit variant hashes (vectorized per
    deletion POSITION, ≤ width slices per batch — never per string;
    functions/textkernels.deletion_variant_hashes); a distance-1 pair
    provably shares ≥ 1 variant, so ONE variant-hash exchange meets every
    true pair (hash collisions only add candidates). In-bucket: the
    int-index self-merge of the footprint/PBSM pattern, per-pair exact
    verify via the vectorized edit1_mask kernel (no DP, no Python loop).
    A pair CAN share several variants (and so meet in several buckets):
    verified pairs ride one pair-hash exchange whose buckets dedup
    globally — bounded by the TRUE match volume, since only
    verify-passing pairs enter it — then per-id partial counts reduce in
    one `_preagg`. Three exchanges total, all slim; candidate volume is
    bounded by (width+1)² per colliding variant group, and the verify
    kernel kills false candidates before anything heavier runs."""
    import ray.data as rd

    from ..functions import textkernels as tk

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    n = _pq_nrows(img_dir)
    nbk = _nbuckets(12 * n, rows_per_bucket=16384, lo=32)
    ds = rd.read_parquet(img_dir, columns=["image_id"])

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.image_id.to_numpy(object)
        if len(ids) == 0:
            return pd.DataFrame({"vh": np.empty(0, np.int64),
                                 "image_id": np.empty(0, object),
                                 "bk": np.empty(0, np.int64)})
        who, vh = tk.deletion_variant_hashes(ids)
        return pd.DataFrame({"vh": vh, "image_id": ids[who],
                             "bk": vh % nbk})

    def pair_bucket(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": np.empty(0, object),
                              "b": np.empty(0, object),
                              "bk2": np.empty(0, np.int64)})
        # repeated chars make duplicate variants of one id
        g = g.drop_duplicates(["vh", "image_id"]).reset_index(drop=True)
        idx = pd.DataFrame({"vh": g.vh.to_numpy(np.int64),
                            "i": np.arange(len(g), dtype=np.int64)})
        m = idx.merge(idx, on="vh", suffixes=("_a", "_b"))
        ia = m.i_a.to_numpy(np.int64)
        ib = m.i_b.to_numpy(np.int64)
        sel = ia < ib
        ia, ib = ia[sel], ib[sel]
        if len(ia) == 0:
            return empty
        ids = g.image_id.to_numpy(object)
        sa, sb = ids[ia], ids[ib]
        swap = sa > sb
        pairs = (pd.DataFrame({"a": np.where(swap, sb, sa),
                               "b": np.where(swap, sa, sb)})
                 .drop_duplicates())
        keep = tk.edit1_mask(pairs.a.to_numpy(object),
                             pairs.b.to_numpy(object))
        out = pairs[keep]
        if not len(out):
            return empty
        ph = pd.util.hash_pandas_object(out[["a", "b"]], index=False)
        return pd.DataFrame({
            "a": out.a.to_numpy(object), "b": out.b.to_numpy(object),
            "bk2": (ph.to_numpy(np.uint64)
                    % np.uint64(nbk)).astype(np.int64)})

    def dedup_count(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["a", "b"])
        ids = np.concatenate([g.a.to_numpy(object), g.b.to_numpy(object)])
        vc = pd.Series(ids).value_counts()
        return pd.DataFrame({"image_id": vc.index.to_numpy(object),
                             "n_neighbors": vc.to_numpy(np.int64)})

    counted = (ds.map_batches(variants, batch_format="pandas")
               .groupby("bk")
               .map_groups(lambda g: pair_bucket(g.drop(columns=["bk"])),
                           batch_format="pandas")
               .groupby("bk2")
               .map_groups(lambda g: dedup_count(g.drop(columns=["bk2"])),
                           batch_format="pandas"))
    return _preagg(counted, ["image_id"],
                   [("n_neighbors", "n_neighbors", "sum")])


def events_table_profile(sf_dir: str):
    """Dataset profiling / data-quality audit (the Deequ/expectations
    class): per COLUMN null count and EXACT distinct count over the events
    table — the audit a 100 TB ingest runs before training ever starts
    (schema drift, null regressions, key-uniqueness checks). Output: one
    row per column (col_name, n_rows, n_null, n_distinct).

    Scale shape: one pass emits per-block partials — (column, null count)
    plus the block's DISTINCT stringified values as slim (col_id, value)
    rows (stringification is injective per dtype: int64/datetime64/str
    exactly, float64 via shortest-round-trip repr). ONE hash exchange on
    (col, value-bucket) dedups globally and reduces to per-bucket distinct
    partials; a tiny `_preagg` sums per column. Exchange volume is
    bounded by Σ per-block distincts — the profiling cost every engine
    pays; columns ride the SAME exchange (no per-column passes). Null
    counts pre-aggregate per block and move ≤ n_cols rows per block."""
    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    ds = read_testdata(sf_dir, "events", columns=cols)
    n = _pq_nrows(testdata_path(sf_dir, "events"))
    nbk = _nbuckets(n, rows_per_bucket=65536, lo=16)

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for ci, c in enumerate(cols):
            s = df[c]
            nn = int(s.isna().sum())
            vals = s.dropna()
            if c == "ts":
                uniq = np.unique(vals.to_numpy("datetime64[us]").astype(str))
            else:
                if vals.dtype.kind == "f":
                    # -0.0 → +0.0: SQL DISTINCT merges signed zeros, the
                    # string repr would not (x + 0.0 is the IEEE identity
                    # that canonicalizes the zero sign)
                    vals = vals + 0.0
                uniq = np.unique(vals.astype(str).to_numpy(object))
            vh = pd.util.hash_array(uniq.astype(object))
            frames.append(pd.DataFrame({
                "ci": np.full(len(uniq), ci, np.int64),
                "v": uniq.astype(object),
                "nn": np.zeros(len(uniq), np.int64),
                "bk": (vh % np.uint64(nbk)).astype(np.int64)}))
            # one null-count row per (block, column), kind marker ci+1000
            frames.append(pd.DataFrame({
                "ci": np.array([ci + 1000], np.int64),
                "v": np.array([""], object),
                "nn": np.array([nn], np.int64),
                "bk": np.array([ci % nbk], np.int64)}))
        return pd.concat(frames, ignore_index=True)

    def bucket_reduce(g: pd.DataFrame) -> pd.DataFrame:
        vals = g[g.ci < 1000]
        nd = (vals.drop_duplicates(["ci", "v"])
              .groupby("ci", sort=False).size().reset_index(name="cnt"))
        nd["kind"] = "distinct"
        nulls = (g[g.ci >= 1000].groupby("ci", sort=False)["nn"].sum()
                 .reset_index(name="cnt"))
        nulls["ci"] = nulls.ci - 1000
        nulls["kind"] = "null"
        out = pd.concat([nd, nulls], ignore_index=True)
        return pd.DataFrame({"ci": out.ci.to_numpy(np.int64),
                             "kind": out.kind.to_numpy(object),
                             "cnt": out.cnt.to_numpy(np.int64)})

    agg = _preagg(
        ds.map_batches(partials, batch_format="pandas")
        .groupby("bk")
        .map_groups(lambda g: bucket_reduce(g.drop(columns=["bk"])),
                    batch_format="pandas"),
        ["ci", "kind"], [("cnt", "cnt", "sum")]).to_pandas()
    # ≤ 2·n_cols rows: pivot on the driver
    dist = agg[agg.kind == "distinct"].set_index("ci")["cnt"]
    nulls = agg[agg.kind == "null"].set_index("ci")["cnt"]
    return pd.DataFrame({
        "col_name": np.array(cols, object),
        "n_rows": np.full(len(cols), n, np.int64),
        "n_null": np.array([int(nulls.get(i, 0)) for i in range(len(cols))],
                           np.int64),
        "n_distinct": np.array([int(dist.get(i, 0))
                                for i in range(len(cols))], np.int64)})


def doc_chunk_overlap(sf_dir: str, window: int = 64, stride: int = 48):
    """RAG-style overlapping chunker: every document is cut into token
    windows of `window` tokens advancing by `stride` (overlap = window −
    stride), the retrieval-corpus preparation step every RAG/embedding
    pipeline runs before encoding. Output one row per chunk:
    (doc_id, chunk_idx, start_tok, chunk_tokens); a doc with n ≤ window
    tokens is one chunk, else ceil((n − window)/stride) + 1 chunks, the
    last one short. Integer-only — hash-exact vs the oracle.

    Scale shape: a pure vectorized flat-map with ZERO exchanges — token
    counts at C level (str.count), the row explosion via np.repeat over
    per-doc chunk counts (never a per-doc Python loop); expansion factor
    is ~n_tokens/stride per doc so block memory scales with the batch's
    token mass. At 100 TB this runs wherever the documents partitions
    already live, exactly like image_tile_chips on the raster side."""
    from ..functions.textkernels import token_count

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])
    w, s = np.int64(window), np.int64(stride)

    def chunks(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy(np.int64)
        n = np.asarray(token_count(df.text), dtype=np.int64)
        nch = np.where(n <= w, np.int64(1), (n - w + s - 1) // s + 1)
        total = int(nch.sum())
        rep_ids = np.repeat(ids, nch)
        # per-doc chunk index 0..nch-1 without a Python loop
        csum = nch.cumsum()
        idx = np.arange(total, dtype=np.int64) - np.repeat(csum - nch, nch)
        start = idx * s
        toks = np.minimum(w, np.repeat(n, nch) - start)
        return pd.DataFrame({"doc_id": rep_ids, "chunk_idx": idx,
                             "start_tok": start, "chunk_tokens": toks})

    return docs.map_batches(chunks, batch_format="pandas")


def _morton13(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """13-bit × 13-bit Morton (Z-order) interleave → int64 key in
    [0, 2^26). Vectorized bit ops; bit b of ix lands at 2b, of iy at
    2b+1 — the textbook space-filling-curve key (Morton 1966)."""
    z = np.zeros_like(ix)
    for b in range(13):
        z |= ((ix >> b) & 1) << (2 * b)
        z |= ((iy >> b) & 1) << (2 * b + 1)
    return z


def geo_zorder_layout(sf_dir: str, nfiles: int = 64):
    """Z-order clustered write layout — the ZORDER/cluster-by planner of
    Delta/Iceberg/BigQuery applied to the point corpus: quantized grid
    coords are bit-interleaved into a Morton key (locality-preserving:
    nearby points share key prefixes), the corpus is ranked in key order,
    and rank space is cut into `nfiles` equal output files. Output is the
    layout MANIFEST a clustered writer commits — per file: row count, key
    range, and the spatial quality measure x_span/y_span (Z-ordered files
    cover tiny grid rectangles, so any bbox query prunes to O(√nfiles)
    files via the manifest alone). Integer-only → hash-exact vs the
    oracle's window-function formulation.

    Scale shape: the two-phase ordered scan of ``_bucket_offsets`` applied
    to the COMPUTED Morton key — no global sort barrier. Keys are
    equal-width-bucketed over the fixed [0, 2^26) key space; phase 1 counts
    rows per bucket (≤ nbk tiny rows to the driver) and prefix-sums them
    into offsets; phase 2 sorts WITHIN each bucket (vectorized, on (zkey,
    event_id)) and maps global rank → file id, then pre-aggregates per-file
    partials in-bucket, so the final exchange carries ≤ nbk × O(1) partial
    rows. Skewed key regions only imbalance bucket sizes, never
    correctness; the 100-TB fix is sampled quantile bucket bounds, same two
    phases."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    if ne == 0:
        return _no_rows(file_id=np.int64, n_points=np.int64,
                        zkey_lo=np.int64, zkey_hi=np.int64,
                        x_span=np.int64, y_span=np.int64)
    nbk = _nbuckets(ne, rows_per_bucket=8192, lo=32)
    zspace = np.int64(1) << 26

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        eid = df.event_id.to_numpy(np.int64)
        ix = (eid // 7) % 4300
        iy = eid % 2900
        z = _morton13(ix, iy)
        return pd.DataFrame({"event_id": eid, "ix": ix, "iy": iy, "zkey": z,
                             "bk": z * nbk // zspace})

    slim = ev.map_batches(keyed, batch_format="pandas").materialize()
    cnts, offsets = _bucket_offsets(slim, "bk", ("n", None, "count"))
    n_total = int(cnts.n.sum())

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["zkey", "event_id"], kind="mergesort")
        base = offsets.get(int(g.bk.iloc[0]), 0)
        rk = base + np.arange(len(g), dtype=np.int64)
        g = g.assign(file_id=rk * nfiles // n_total)
        p = g.groupby("file_id", sort=False).agg(
            n_points=("event_id", "size"),
            zkey_lo=("zkey", "min"), zkey_hi=("zkey", "max"),
            x_lo=("ix", "min"), x_hi=("ix", "max"),
            y_lo=("iy", "min"), y_hi=("iy", "max")).reset_index()
        return p.astype(np.int64)

    agg = _preagg(
        slim.groupby("bk").map_groups(assign, batch_format="pandas"),
        ["file_id"], [
            ("n_points", "n_points", "sum"),
            ("zkey_lo", "zkey_lo", "min"), ("zkey_hi", "zkey_hi", "max"),
            ("x_lo", "x_lo", "min"), ("x_hi", "x_hi", "max"),
            ("y_lo", "y_lo", "min"), ("y_hi", "y_hi", "max")]).to_pandas()
    # ≤ nfiles rows on the driver
    return pd.DataFrame({
        "file_id": agg.file_id.to_numpy(np.int64),
        "n_points": agg.n_points.to_numpy(np.int64),
        "zkey_lo": agg.zkey_lo.to_numpy(np.int64),
        "zkey_hi": agg.zkey_hi.to_numpy(np.int64),
        "x_span": (agg.x_hi - agg.x_lo).to_numpy(np.int64),
        "y_span": (agg.y_hi - agg.y_lo).to_numpy(np.int64)})


def image_overview_pyramid(sf_dir: str, min_dim: int = 16):
    """COG-style overview pyramid over the image corpus: per decode-ok
    image, successive 2× reductions (each level a 2×2 integer box filter
    of the PREVIOUS level, odd edge rows/cols truncated — the standard
    GeoTIFF overview build) until the next level would drop below
    `min_dim`. Output one row per (image, level): level 0 = the original
    (w, h, pixel sum), then each overview's dims + pixel sum — the
    overview manifest a tile server / COG writer commits.

    Scale shape: zero exchanges — decode + the whole pyramid happen
    per blob inside map_batches (the per-blob loop is inherent to a
    codec; each reduction is one vectorized strided sum, and the total
    pyramid work is ≤ 4/3 of the level-0 pixel count — the geometric
    series — so the stage costs ~1.33× a plain decode pass). Output
    rows are slim integers; worker memory is bounded by batch_size ×
    image size. Rows-only vs the driver (bytes are not SQL-decodable);
    pinned by tests/test_queries.py::test_overview_pyramid_brute."""
    import ray.data as rd

    from ..functions import codec as C

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["image_id", "bytes"])

    def pyramid(t: pa.Table) -> pd.DataFrame:
        ids_out, lvls, ws, hs, sums = [], [], [], [], []
        ids = t.column("image_id").to_pylist()
        for img_id, blob in zip(ids, t.column("bytes").to_pylist()):
            px, _meta, ok = C.decode_image(blob)
            if not ok:
                continue
            a = px.astype(np.int64)
            level = 0
            while True:
                h, w = a.shape
                ids_out.append(img_id)
                lvls.append(level)
                ws.append(w)
                hs.append(h)
                sums.append(int(a.sum()))
                if min(h // 2, w // 2) < min_dim:
                    break
                h2, w2 = h // 2, w // 2
                b = a[:h2 * 2, :w2 * 2]
                a = (b[0::2, 0::2] + b[0::2, 1::2]
                     + b[1::2, 0::2] + b[1::2, 1::2]) // 4
                level += 1
        return pd.DataFrame({
            "image_id": pd.Series(ids_out, dtype=object),
            "level": pd.Series(lvls, dtype=np.int64),
            "w": pd.Series(ws, dtype=np.int64),
            "h": pd.Series(hs, dtype=np.int64),
            "px_sum": pd.Series(sums, dtype=np.int64)})

    return ds.map_batches(pyramid, batch_format="pyarrow")


def embedding_pca_project(sf_dir: str, k: int = 2):
    """Distributed PCA projection over the embedding corpus — the
    dimensionality-reduction step embedding-curation pipelines run before
    visualization / density screens (and the whitening basis SemDeDup-style
    cluster spaces use). Output (vec_id, pc1..pck): every vector's
    coordinates on the top-k principal axes of the corpus covariance.

    Scale shape: the repo's MATRIX-VALUED algebraic aggregate — each block
    reduces to one partial (n, Σx ∈ R^d, Σxxᵀ ∈ R^{d×d}): O(d²) floats per
    block REGARDLESS of rows, so the driver combines ≤ n_blocks tiny rows
    (d=64 → 33 KB each), forms cov = Σxxᵀ/n − x̄x̄ᵀ, and eigendecomposes
    once (O(d³), driver-side by design — the model-fit step, like
    embedding_kmeans' sampled Lloyd). Eigenvector sign is fixed
    deterministically (largest-|coord| positive). Phase 2 broadcasts
    (x̄, W) via ray.put and projects per batch with ONE matmul — the
    trained-transform-apply pattern every model-scoring stage uses.
    Rows-only vs the driver (eigensolve is not SQL); pinned by
    tests/test_ann_multimodal.py::test_pca_project_brute."""
    import ray

    emb = read_testdata(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(df.embedding.to_numpy()).astype(np.float64)
        return pd.DataFrame({
            "n": [np.int64(len(X))],
            "sx": [X.sum(axis=0)],
            "sxx": [(X.T @ X).ravel()]})

    p = emb.map_batches(partials, batch_size=4096,
                        batch_format="pandas").to_pandas()  # ≤ n_blocks rows
    n = int(p.n.sum())
    sx = np.sum(np.stack(p.sx.to_numpy()), axis=0)
    d = sx.shape[0]
    sxx = np.sum(np.stack(p.sxx.to_numpy()), axis=0).reshape(d, d)
    mean = sx / n
    cov = sxx / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)        # ascending
    W = evecs[:, ::-1][:, :k]                 # top-k columns
    flip = W[np.abs(W).argmax(axis=0), np.arange(k)] < 0
    W = W * np.where(flip, -1.0, 1.0)[None, :]
    ref = ray.put((mean, W))

    def project(df: pd.DataFrame, _r=ref) -> pd.DataFrame:
        m, w = ray.get(_r) if isinstance(_r, ray.ObjectRef) else _r
        X = np.stack(df.embedding.to_numpy()).astype(np.float64)
        P = (X - m[None, :]) @ w
        out = {"vec_id": df.vec_id.to_numpy(np.int64)}
        for j in range(w.shape[1]):
            out[f"pc{j + 1}"] = np.round(P[:, j], 6)
        return pd.DataFrame(out)

    return emb.map_batches(project, batch_format="pandas")


def events_record_breakers(sf_dir: str):
    """Record-breaking events — every event whose value strictly exceeds
    ALL earlier values under the (ts, event_id) total order (the running-
    record / 2-D skyline frontier: each survivor is pareto-optimal on
    (earlier, higher)). The monitoring primitive behind "new all-time
    high" alerting and monotone-frontier extraction. Output (event_id,
    value): copied doubles under pure comparisons (no arithmetic) —
    hash-exact vs the window-function oracle.

    Scale shape: the two-phase ordered scan of ``_bucket_offsets`` with MAX
    as the monoid instead of SUM — and a pruning bonus SUM can't have: time
    buckets from parquet footer ts min/max (metadata only); phase 1 reduces
    each bucket to its max (≤ nbk tiny rows to the driver) and prefix-maxes
    them into per-bucket offsets; phase 2 keeps rows beating max(bucket
    offset, in-bucket running max) — and ENTIRE buckets whose max is below
    their offset are dropped before the in-bucket sort (at 100 TB most of
    the stream prunes: records get rare as the running max climbs)."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id", "ts", "value"])
    if ne == 0:
        return _no_rows(event_id=np.int64, value=np.float64)
    lo, hi = _pq_colminmax(testdata_path(sf_dir, "events"), "ts")
    lo_us = np.datetime64(lo, "us").astype(np.int64)
    hi_us = np.datetime64(hi, "us").astype(np.int64)
    nbk = _nbuckets(ne, rows_per_bucket=8192, lo=32)
    width = max((hi_us - lo_us) // nbk + 1, 1)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(df.ts)
        return pd.DataFrame({"event_id": df.event_id.to_numpy(np.int64),
                             "us": us,
                             "value": df.value.to_numpy(np.float64),
                             "bk": (us - lo_us) // width})

    slim = ev.map_batches(keyed, batch_format="pandas").materialize()
    mx, offsets = _bucket_offsets(slim, "bk", ("mx", "value", "max"),
                                  scan=np.maximum.accumulate, init=-np.inf)
    # bucket-level pruning: a bucket whose own max can't beat its offset
    # contributes nothing
    live = {b for b, m in zip(mx.bk.tolist(), mx.mx.tolist())
            if m > offsets[b]}

    def records(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"event_id": np.empty(0, np.int64),
                              "value": np.empty(0, np.float64)})
        if int(g.bk.iloc[0]) not in live:
            return empty
        g = g.sort_values(["us", "event_id"], kind="mergesort")
        v = g.value.to_numpy(np.float64)
        off = offsets.get(int(g.bk.iloc[0]), -np.inf)
        prev = np.maximum(np.concatenate([[off], np.maximum.accumulate(
            v)[:-1]]), off)
        keep = v > prev
        return pd.DataFrame({"event_id": g.event_id.to_numpy(np.int64)[keep],
                             "value": v[keep]})

    return slim.groupby("bk").map_groups(records, batch_format="pandas")


def geo_idw_interpolate(sf_dir: str, k: int = 4):
    """Inverse-distance-weighted spatial interpolation — the canonical
    scattered-points→surface estimator (Shepard 1968): every point's value
    is the 1/d²-weighted mean of its k=4 nearest stations (the same
    broadcast synthetic station layer as geo_knn_station, each station
    carrying a deterministic value). The gridding/infill step weather and
    elevation pipelines run where a raster layer is missing. Output
    (event_id, idw_value·round-6).

    Scale shape: identical to the kNN join — the station layer is tiny
    and BROADCAST (at 100 TB: ray.put once, read per actor), each batch
    computes one (rows × stations) distance matrix and an argpartition
    top-k, zero exchanges. The d² expression, the +1e-12 degeneracy guard
    (a point exactly on a station), and the (d², sid) candidate order are
    expression-identical in the SQL oracle, so the float result agrees to
    IEEE reassociation (covered by the sweep's one-quantum tolerance)."""
    sid = np.arange(_N_SYN_STATIONS, dtype=np.int64)
    slat = 50.8 + ((sid * 37) % 270) / 100.0
    slon = 3.1 + ((sid * 73) % 410) / 100.0
    sval = 5.0 + ((sid * 13) % 70).astype(np.float64)
    ev = read_testdata(sf_dir, "events", columns=["event_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lat = p.lat.to_numpy()[:, None]
        lon = p.lon.to_numpy()[:, None]
        d2 = (lat - slat[None, :]) * (lat - slat[None, :]) * 1.8 \
            + (lon - slon[None, :]) * (lon - slon[None, :])
        # k smallest by (d2, sid): argpartition then stable tie-resolve
        # (argsort of the k+tie slice is overkill — sid IS the column
        # order, so a stable mergesort over d2 alone realizes (d2, sid))
        order = np.argsort(d2, axis=1, kind="stable")[:, :k]
        dk = np.take_along_axis(d2, order, axis=1) + 1e-12
        vk = sval[order]
        w = 1.0 / dk
        est = (vk * w).sum(axis=1) / w.sum(axis=1)
        return pd.DataFrame({"event_id": p.event_id,
                             "idw_value": np.round(est, 6)})

    return ev.map_batches(f, batch_format="pandas")


def doc_shuffle_positions(sf_dir: str, seed: int = 17):
    """Reproducible seeded corpus shuffle — the training-order primitive a
    pretraining exporter runs before sharding (docs must be read in a
    pseudo-random order that is STABLE across resumes and engines, which
    rules out ``ds.random_shuffle``'s placement-dependent permutation).
    Every doc's position = its rank under a multiplicative hash of
    (doc_id, seed): a deterministic permutation both engines express with
    the same integer arithmetic. Output (doc_id, shuffle_pos), 1-based —
    integer-only, hash-exact vs the window-function oracle.

    Scale shape: the two-phase ordered scan of ``_bucket_offsets`` (no
    global sort barrier) over the FIXED [0, 2^32) hash space: phase-1
    per-bucket counts (≤ nbk rows to the driver), broadcast prefix offsets,
    phase-2 in-bucket vectorized sort + offset. The multiplicative constant
    is Knuth's 2654435761; products stay < 2^63 for any doc_id < 2^31, so
    the modulo is exact int64 arithmetic in numpy AND DuckDB (which errors,
    not wraps, on BIGINT overflow — the guard that matters)."""
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id"])
    if nd == 0:
        return _no_rows(doc_id=np.int64, shuffle_pos=np.int64)
    nbk = _nbuckets(nd, rows_per_bucket=8192, lo=16)
    M = np.int64(2654435761)
    S = np.int64(seed) * np.int64(40503)
    SPACE = np.int64(1) << 32

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy(np.int64)
        h = (ids * M + S) % SPACE
        return pd.DataFrame({"doc_id": ids, "h": h,
                             "bk": h * nbk // SPACE})

    slim = docs.map_batches(keyed, batch_format="pandas").materialize()
    _, offsets = _bucket_offsets(slim, "bk", ("n", None, "count"))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"], kind="mergesort")
        base = offsets.get(int(g.bk.iloc[0]), 0)
        return pd.DataFrame({
            "doc_id": g.doc_id.to_numpy(np.int64),
            "shuffle_pos": base + np.arange(1, len(g) + 1, dtype=np.int64)})

    return slim.groupby("bk").map_groups(rank_bucket, batch_format="pandas")


def doc_mixture_order(sf_dir: str):
    """Weighted data-mixture interleave — the ordering sibling of
    doc_source_token_budget's capping: given per-source mixing weights,
    emit each doc's global training position under weighted fair queueing
    (virtual time p = rank-within-source / weight — a source with weight w
    contributes w docs per unit of virtual time, the deterministic form
    of mixture sampling every pretraining data loader implements).
    Weights are a deterministic function of the source id (1 + idx % 4).
    Output (doc_id, mix_pos), 1-based.

    Scale shape: two chained two-phase order statistics, NEVER a per-source
    group (sources are bounded in NUMBER but not in SIZE — a single
    map_groups per source would put billions of rows in one task at 100
    TB). Within-source ranks: doc_id-range buckets (footer min/max,
    metadata only); phase-1 per-(bucket, source) counts — ≤ nbk × n_src
    tiny rows to the driver — prefix-summed per source in bucket order;
    phase-2 in-bucket per-source sort + offsets, emitting slim (doc_id, p)
    rows bucketed by p. Global rank over p: the ``_bucket_offsets`` ordered
    scan on the p-range (p ≤ n_docs / min_w). The p = rn/w quotient is ONE
    IEEE divide of an exact int by a small exact double — bit-identical in
    numpy and DuckDB, so the order (and the integer output) is hash-exact."""
    docs, nd = _spread_read(sf_dir, "documents", ["doc_id", "source"])
    if nd == 0:
        return _no_rows(doc_id=np.int64, mix_pos=np.int64)
    nbk = _nbuckets(nd, rows_per_bucket=8192, lo=16)
    lo_id, hi_id = map(int, _pq_colminmax(testdata_path(sf_dir, "documents"),
                                          "doc_id"))
    rng = max(1, (hi_id - lo_id + 1 + nbk - 1) // nbk)
    pwidth = max(float(nd) / nbk, 1e-300)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy(np.int64)
        sidx = df.source.str.slice(3).astype(np.int64).to_numpy()
        return pd.DataFrame({"doc_id": ids, "src": sidx,
                             "bk": (ids - lo_id) // rng})

    slim = docs.map_batches(keyed, batch_format="pandas").materialize()

    # phase 1a: per-(bucket, source) counts -> per-source prefix offsets
    # (<= nbk x n_src tiny rows; sources are bounded in number)
    c = _preagg(slim, ["bk", "src"], [("n", None, "count")]).to_pandas()
    c = c.sort_values(["src", "bk"]).reset_index(drop=True)
    c["off"] = (c.groupby("src")["n"].cumsum() - c.n).astype(np.int64)
    n_src = int(c.src.max()) + 1
    # dense (bucket -> offset-by-source vector) lookup: O(1) numpy fancy
    # index per row in phase 2, no per-row dict probing
    off_vec = {int(b): np.zeros(n_src, np.int64)
               for b in c.bk.unique().tolist()}
    for b, s, o in zip(c.bk.tolist(), c.src.tolist(), c.off.tolist()):
        off_vec[int(b)][int(s)] = o

    def within_rank(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "doc_id"], kind="mergesort")
        bkv = int(g.bk.iloc[0])
        srcs = g.src.to_numpy(np.int64)
        base = off_vec[bkv][srcs]
        rn = base + g.groupby("src", sort=False).cumcount().to_numpy() + 1
        w = 1.0 + (srcs % 4).astype(np.float64)
        p = rn.astype(np.float64) / w
        return pd.DataFrame({
            "doc_id": g.doc_id.to_numpy(np.int64), "p": p,
            "pbk": np.clip((p / pwidth).astype(np.int64), 0, nbk - 1)})

    mid = (slim.groupby("bk").map_groups(within_rank, batch_format="pandas")
           .materialize())

    # phase 1b/2b: global rank over p (the _bucket_offsets scan on the
    # p-range)
    _, off2 = _bucket_offsets(mid, "pbk", ("n", None, "count"))

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["p", "doc_id"], kind="mergesort")
        base = off2.get(int(g.pbk.iloc[0]), 0)
        return pd.DataFrame({
            "doc_id": g.doc_id.to_numpy(np.int64),
            "mix_pos": base + np.arange(1, len(g) + 1, dtype=np.int64)})

    return mid.groupby("pbk").map_groups(rank_bucket, batch_format="pandas")


def geo_block_split(sf_dir: str, block: int = 64):
    """Spatial block (checkerboard) train/val/test split — the
    leakage-free split geospatial ML requires: a RANDOM row split leaks
    through spatial autocorrelation (neighboring points land in train AND
    test; Roberts et al. 2017), so the unit of assignment must be a
    coarse spatial block, not a row. Every point's 64×64-grid block is
    hashed to a deterministic 80/10/10 split; all points of a block share
    a fate. Output (split, n_points, n_blocks) — n_blocks (exact distinct
    blocks per split) certifies block-granularity assignment.

    Scale shape: a stateless vectorized map (tile + two-prime spatial
    hash — products bounded far below 2^63, exact int64 both engines),
    then ONE (split, tx, ty) pre-aggregated exchange (bounded by the
    BLOCK count, not the corpus) and a ≤ 3-row final group. The split
    rule is pure arithmetic on the block id: resume-stable, identical on
    any engine, no stored split table needed."""
    ev = read_testdata(sf_dir, "events", columns=["event_id"])
    P1, P2 = np.int64(73856093), np.int64(19349663)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        eid = df.event_id.to_numpy(np.int64)
        tx = ((eid // 7) % 4300) // block
        ty = (eid % 2900) // block
        h = (tx * P1 + ty * P2) % np.int64(2147483647) % np.int64(10)
        split = np.where(h == 0, "test", np.where(h == 1, "val", "train"))
        return pd.DataFrame({"split": split, "tx": tx, "ty": ty})

    per_block = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                        ["split", "tx", "ty"], [("n", None, "count")])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("split", sort=False).agg(
            n_points=("n", "sum"), n_blocks=("n", "size")).reset_index()
        return pd.DataFrame({"split": g.split.to_numpy(object),
                             "n_points": g.n_points.to_numpy(np.int64),
                             "n_blocks": g.n_blocks.to_numpy(np.int64)})

    # ≤ n_blocks rows -> one in-task final reduce (3-row output)
    return per_block.repartition(1).map_batches(
        final, batch_format="pandas", batch_size=None)


# --------------------------------------------- spatial statistics (ESDA)

# Distance-band spatial-weights parameters shared by the Getis-Ord /
# Moran family: binary weights w_ij = 1 iff 0 < d(i,j) <= eps under the
# same scaled-euclidean metric (1.8*dlat^2 + dlon^2) the kNN/near-pair
# operators use. Cell edge 0.012 > eps and > eps/sqrt(1.8) on the lat
# axis, so every neighbor of a point lies in its own or one of the 8
# adjacent cells.
_ESDA_EPS = 0.01
_ESDA_CELL = 0.012


def _esda_var(df: pd.DataFrame, name: str) -> np.ndarray:
    """events batch → the named ESDA variable: ``value`` (events.value) or
    ``y``, the derived co-variable ((event_id·13) % 1000)/1000."""
    if name == "value":
        return df.value.to_numpy(np.float64)
    return ((df.event_id.to_numpy(np.int64) * 13) % 1000) / 1000.0


def _esda_neighbor_stats(sf_dir: str, nbr: str = "value"):
    """Per-point neighborhood aggregates over the events-derived layer:
    (event_id, x, k, sx) with x = the event's value, k = neighbor count
    within the distance band, sx = sum of the neighbors' ``nbr`` variable
    (_esda_var: ``value``, or ``y`` for the bivariate statistics).

    Scale shape: the geo_near_pairs grid scheme turned into a per-point
    AGGREGATION — each point is emitted HOME to its own cell plus GHOST
    copies to all 8 adjacent cells (_grid_copies), so a home point's full
    neighborhood is present in its home-cell group and the per-point
    (k, sx) is COMPLETE after ONE groupby(cell-bucket) exchange of ~9 slim
    copies per point. Candidate pairs exist only inside one bucket task
    (_band_pairs); none crosses an exchange. Zero-neighbor points are
    preserved by a left re-attach against the home rows inside the same
    group."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id", "value"])
    nbk = _nbuckets(9 * ne, rows_per_bucket=8192, lo=32)
    e2 = np.float64(_ESDA_EPS) * np.float64(_ESDA_EPS)
    names = ["value"] if nbr == "value" else ["value", nbr]
    cols = ["id", "lon", "lat", *names]

    def copies(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lon = p.lon.to_numpy()
        lat = p.lat.to_numpy()
        cx = np.floor((lon - _GRID_LON0) / _ESDA_CELL).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / _ESDA_CELL).astype(np.int64)
        pay = {"id": p.event_id.to_numpy(np.int64), "lon": lon, "lat": lat}
        pay.update({c: _esda_var(df, c) for c in names})
        return _grid_copies(cx, cy, pay, nbk)

    def nbr_stats(g: pd.DataFrame) -> pd.DataFrame:
        m = _band_pairs(g, cols, e2)
        agg = (m.groupby("id_a", sort=False)
               .agg(k=("id_b", "size"), sx=(f"{nbr}_b", "sum"))
               .reset_index())
        out = g[g.home][["id", "value"]].merge(
            agg, left_on="id", right_on="id_a", how="left")
        return pd.DataFrame({
            "event_id": out.id.to_numpy(np.int64),
            "x": out.value.to_numpy(np.float64),
            "k": out.k.fillna(0).to_numpy(np.int64),
            "sx": out.sx.fillna(0.0).to_numpy(np.float64)})

    return (ev.map_batches(copies, batch_format="pandas")
            .groupby("bk").map_groups(nbr_stats, batch_format="pandas"))


def _esda_scalars(sf_dir: str, names=("value",)):
    """(n, [(mean, population variance) per named _esda_var variable]) —
    the O(1) broadcast side of every ESDA statistic. One pre-aggregated
    pass: per-block (n, sum, M2) partials with M2 = Σ(v − block_mean)²,
    merged on the driver with Chan's parallel-variance update —
    numerically stable (no E[v²]−E[v]² cancellation), matching DuckDB
    var_pop's deviation-based accumulation, so the Gi*/Moran denominators
    stay within the sweep tolerance at any value magnitude. Partials are
    one row per block (bounded), never the data."""
    ev = read_testdata(sf_dir, "events", columns=(
        ["event_id", "value"] if "y" in names else ["value"]))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = {"n": [len(df)]}
        for nm in names:
            v = _esda_var(df, nm)
            m = v.mean() if len(v) else 0.0
            d = v - m
            out[f"s_{nm}"] = [v.sum()]
            out[f"m2_{nm}"] = [(d * d).sum()]
        return pd.DataFrame(out)

    t = ev.map_batches(partial, batch_format="pandas").to_pandas()
    stats = []
    for nm in names:
        n_a = mean_a = m2_a = 0.0
        for n_b, s_b, m2_b in t[["n", f"s_{nm}", f"m2_{nm}"]].itertuples(
                index=False):
            if n_b == 0:
                continue
            n_b = float(n_b)
            mean_b = float(s_b) / n_b
            delta = mean_b - mean_a
            tot = n_a + n_b
            m2_a += float(m2_b) + delta * delta * n_a * n_b / tot
            mean_a += delta * n_b / tot
            n_a = tot
        stats.append((mean_a, m2_a / n_a))
    return n_a, stats


def _esda_cross_sum(sf_dir: str, nbr: str, xbar: float, nbar: float):
    """(Σᵢ (xᵢ − x̄)·(sxᵢ − kᵢ·n̄), W = Σᵢ kᵢ) over
    _esda_neighbor_stats(sf_dir, nbr) — the numerator and weight sum of
    the global Moran statistics. Per-block partials, then one coalesced
    sum: three numbers per block reach the driver."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df.k.to_numpy(np.float64)
        z = df.x.to_numpy(np.float64) - xbar
        num = (z * (df.sx.to_numpy(np.float64) - k * nbar)).sum()
        return pd.DataFrame({"num": [num],
                             "w": [df.k.to_numpy(np.int64).sum()]})

    t = (_esda_neighbor_stats(sf_dir, nbr)
         .map_batches(partial, batch_format="pandas")
         .repartition(1)
         .map_batches(lambda d: pd.DataFrame({
             "num": [d.num.sum()], "w": [d.w.sum()]}),
             batch_format="pandas", batch_size=None)
         .to_pandas())
    return float(t.num.iloc[0]), float(t.w.iloc[0])


def geo_getis_hotspots(sf_dir: str):
    """Getis-Ord Gi* hot/cold-spot detection (Getis & Ord 1992; the
    ArcGIS "Hot Spot Analysis" primitive) over the events-derived point
    layer with value = events.value and binary distance-band weights
    INCLUDING self (the * variant). Per point:

        Gi* = (sx_i + x_i - xbar*(k_i+1))
              / (s * sqrt((k_i+1) * (n - k_i - 1) / (n - 1)))

    with xbar/s the global mean/population-std. Output (event_id,
    n_neighbors, gi_star round-6) — |Gi*| > ~2 marks significant
    clustering of high (hot) or low (cold) values.

    Scale shape: ONE bucketed-grid exchange for the per-point (k, sx)
    (_esda_neighbor_stats — candidate pairs stay inside one bucket task,
    none crosses an exchange) + an O(1) scalar broadcast; the statistic
    itself is a stateless vectorized map. The expression is
    term-identical to the SQL oracle; float reassociation is covered by
    the sweep's one-quantum tolerance."""
    n, ((xbar, var),) = _esda_scalars(sf_dir)
    s = float(np.sqrt(var))

    def gi(df: pd.DataFrame) -> pd.DataFrame:
        k = df.k.to_numpy(np.float64)
        w = k + 1.0
        num = df.sx.to_numpy(np.float64) + df.x.to_numpy(np.float64) \
            - xbar * w
        den = s * np.sqrt(w * (n - w) / (n - 1.0))
        return pd.DataFrame({
            "event_id": df.event_id.to_numpy(np.int64),
            "n_neighbors": df.k.to_numpy(np.int64),
            "gi_star": np.round(num / den, 6)})

    return _esda_neighbor_stats(sf_dir).map_batches(
        gi, batch_format="pandas")


def geo_local_moran(sf_dir: str):
    """Local Moran's I (Anselin 1995 LISA) per point: I_i = z_i * sum_j
    w_ij z_j / m2 with z = x - xbar, m2 = population variance — positive
    where a point sits in a like-valued neighborhood (high-high /
    low-low), negative for spatial outliers. Output (event_id,
    n_neighbors, local_i round-6). Same single-exchange scale shape as
    geo_getis_hotspots (sum_j z_j = sx_i - k_i*xbar needs only the
    per-point neighbor aggregates)."""
    _n, ((xbar, var),) = _esda_scalars(sf_dir)

    def li(df: pd.DataFrame) -> pd.DataFrame:
        k = df.k.to_numpy(np.float64)
        z = df.x.to_numpy(np.float64) - xbar
        lz = df.sx.to_numpy(np.float64) - k * xbar
        return pd.DataFrame({
            "event_id": df.event_id.to_numpy(np.int64),
            "n_neighbors": df.k.to_numpy(np.int64),
            "local_i": np.round(z * lz / var, 6)})

    return _esda_neighbor_stats(sf_dir).map_batches(
        li, batch_format="pandas")


def geo_moran_i(sf_dir: str):
    """GLOBAL Moran's I spatial autocorrelation (Moran 1950) of
    events.value under the distance-band weights:

        I = (n / W) * sum_ij w_ij z_i z_j / sum_i z_i^2

    computed as sum_i z_i * (sx_i - k_i*xbar) over the per-point
    neighbor aggregates (W = sum_i k_i directed pairs). Output is ONE
    row (n_points, w_pairs, moran_i round-6) — the corpus-level "is
    this layer spatially clustered" diagnostic run before any hotspot
    drill-down.

    Scale shape: the neighbor-stats exchange + a per-block partial
    reduction to (num, W) (_esda_cross_sum)."""
    n, ((xbar, var),) = _esda_scalars(sf_dir)
    num, w = _esda_cross_sum(sf_dir, "value", xbar, xbar)
    moran = num / (w * var)
    return pd.DataFrame({"n_points": np.array([int(n)], dtype=np.int64),
                         "w_pairs": np.array([int(w)], dtype=np.int64),
                         "moran_i": np.array([round(moran, 6)])})


def geo_grid_density_smooth(sf_dir: str):
    """Focal 3×3 mean smoothing of the point-density raster — the kernel
    (neighborhood) statistic every raster engine ships (ArcGIS Focal
    Statistics / GDAL smoothing): per occupied 50×50 tile, the mean of
    the 9-cell neighborhood's point counts with EMPTY tiles contributing
    zero (fixed /9 divisor). Output (tile_x, tile_y, n_points,
    smooth_density round-6) — the denoised density surface a hotspot map
    renders instead of the raw census.

    Scale shape: the census is ONE pre-aggregated exchange bounded by
    the tile GRID (86×58 here — a function of the domain, not the row
    count), so the focal pass runs dense-vectorized in a single task:
    scatter counts into a zero-padded 2-D array, sum the 9 shifted
    slices. At planetary tile counts the same focal is a 9-offset merge
    bucketed by tile-block with one-cell halos — the documented upgrade
    path; the exchange count stays 1 either way."""
    census = geo_tile_census(sf_dir)

    def focal(df: pd.DataFrame) -> pd.DataFrame:
        tx = df.tile_x.to_numpy(np.int64)
        ty = df.tile_y.to_numpy(np.int64)
        n = df.n_points.to_numpy(np.int64)
        grid = np.zeros((tx.max() + 3, ty.max() + 3), dtype=np.int64)
        grid[tx + 1, ty + 1] = n
        s = np.zeros_like(grid)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                s[1:-1, 1:-1] += grid[1 + dx:grid.shape[0] - 1 + dx,
                                      1 + dy:grid.shape[1] - 1 + dy]
        return pd.DataFrame({
            "tile_x": tx, "tile_y": ty, "n_points": n,
            "smooth_density": np.round(s[tx + 1, ty + 1] / 9.0, 6)})

    return census.repartition(1).map_batches(focal, batch_format="pandas",
                                             batch_size=None)


def events_markov_transitions(sf_dir: str):
    """First-order Markov transition matrix over per-user event-type
    sequences: count and row-normalized probability of (prev_type →
    next_type) under the (ts, event_id) total order — the session-model
    statistic behind next-action prediction and funnel diagnostics.
    Output (prev_type, next_type, n_trans, p_trans round-6); ≤ |types|²
    rows.

    Scale shape: one shuffle keyed on user_id (the LAG pattern of
    events_user_lag), vectorized in-group pairing, then a pre-aggregated
    count exchange bounded by |types|² and a one-task normalize — the
    per-prev totals live in the same ≤25-row frame, never a second
    pass over the input."""
    ev = read_testdata(sf_dir, "events", columns=["event_id", "user_id",
                                                  "ts", "event_type"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        order = np.lexsort((g.event_id.to_numpy(), us))
        t = g.event_type.to_numpy()[order]
        return pd.DataFrame({"prev_type": t[:-1], "next_type": t[1:]})

    pairs = ev.groupby("user_id").map_groups(per_user,
                                             batch_format="pandas")
    agg = _preagg(pairs, ["prev_type", "next_type"],
                  [("n_trans", None, "count")])

    def normalize(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("prev_type").n_trans.transform("sum")
        return pd.DataFrame({
            "prev_type": df.prev_type.to_numpy(object),
            "next_type": df.next_type.to_numpy(object),
            "n_trans": df.n_trans.to_numpy(np.int64),
            "p_trans": np.round(df.n_trans.to_numpy(np.float64)
                                / tot.to_numpy(np.float64), 6)})

    return agg.repartition(1).map_batches(normalize, batch_format="pandas",
                                          batch_size=None)


# ------------------------------------------------------ density clustering

def _cc_label_prop(labels, edges, n_nodes: int, n_edges: int,
                   max_rounds: int = 50):
    """Generic distributed connected components by hash-min label
    propagation (the doc_dup_clusters loop, factored for reuse):
    ``labels`` = Dataset(node, lbl) (init lbl = node id), ``edges`` =
    Dataset(src, node) DIRECTED BOTH WAYS, both materialized by the
    caller. Each round is two bucketed sort exchanges with vectorized
    in-bucket pandas merges; both loop operands are re-coalesced to
    row-scaled block counts every round (the block-compounding guard
    measured in the PageRank loop); the driver sees only an O(1)
    convergence aggregate. Returns the converged labels Dataset."""
    if n_edges == 0:
        return labels
    nbk = _nbuckets(n_edges + n_nodes, rows_per_bucket=4096, lo=16)
    lbl_blocks = _nbuckets(n_nodes, rows_per_bucket=500_000, lo=8)

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.src.to_numpy(np.int64),
            "node": df.node.to_numpy(np.int64),
            "lbl": np.full(len(df), -1, dtype=np.int64),
            "bk": (df.src.to_numpy(np.int64) % nbk).astype(np.int64)})

    def label_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.node.to_numpy(np.int64),
            "node": np.full(len(df), -1, dtype=np.int64),
            "lbl": df.lbl.to_numpy(np.int64),
            "bk": (df.node.to_numpy(np.int64) % nbk).astype(np.int64)})

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        lbls = g.loc[g.node < 0, ["key", "lbl"]]
        eds = g.loc[g.node >= 0, ["key", "node"]]
        m = eds.merge(lbls, on="key")
        return pd.DataFrame({
            "node": m.node.to_numpy(np.int64),
            "lbl": m.lbl.to_numpy(np.int64),
            "bk": (m.node.to_numpy(np.int64) % nbk).astype(np.int64)})

    def min_combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("node", sort=False).lbl.min().reset_index()
        return pd.DataFrame({"node": out.node.to_numpy(np.int64),
                             "lbl": out.lbl.to_numpy(np.int64)})

    # --- pointer-jumping (label shortcutting) phase: lbl ← lbl(lbl).
    # Neighbor-min alone needs O(diameter) rounds, which a percolating
    # component turns into hundreds (observed: a 74k-image mosaic
    # component at sf0.1). Under the min-propagation invariant
    # lbl(x) ≤ x, every label value is itself a live node id, so one
    # bucketed self-join per round halves the pointer depth →
    # O(log diameter) convergence (Kiveris et al. 2014 star-contraction
    # family). Same fixpoint (per-component min), exact either way.
    def q_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.lbl.to_numpy(np.int64),
            "node": df.node.to_numpy(np.int64),
            "lbl": np.full(len(df), -1, dtype=np.int64),
            "bk": (df.lbl.to_numpy(np.int64) % nbk).astype(np.int64)})

    def v_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.node.to_numpy(np.int64),
            "node": np.full(len(df), -1, dtype=np.int64),
            "lbl": df.lbl.to_numpy(np.int64),
            "bk": (df.node.to_numpy(np.int64) % nbk).astype(np.int64)})

    def shortcut(g: pd.DataFrame) -> pd.DataFrame:
        vals = g.loc[g.node < 0, ["key", "lbl"]]
        qs = g.loc[g.node >= 0, ["key", "node"]]
        m = qs.merge(vals, on="key")
        return pd.DataFrame({"node": m.node.to_numpy(np.int64),
                             "lbl": m.lbl.to_numpy(np.int64)})

    erows = (edges.map_batches(edge_rows, batch_format="pandas")
             .repartition(_nbuckets(n_edges, rows_per_bucket=500_000, lo=8))
             .materialize())
    labels = labels.repartition(lbl_blocks).materialize()
    prev = labels.sum("lbl")
    for _ in range(max_rounds):
        prop = (erows.union(labels.map_batches(label_rows,
                                               batch_format="pandas"))
                .groupby("bk")
                .map_groups(propagate, batch_format="pandas"))
        labels = (prop.union(labels.map_batches(
                      lambda df: df.assign(
                          bk=(df.node.to_numpy(np.int64) % nbk)),
                      batch_format="pandas"))
                  .groupby("bk")
                  .map_groups(min_combine, batch_format="pandas")
                  .materialize())  # consumed twice by the shortcut branches
        labels = (labels.map_batches(q_rows, batch_format="pandas")
                  .union(labels.map_batches(v_rows,
                                            batch_format="pandas"))
                  .groupby("bk")
                  .map_groups(shortcut, batch_format="pandas")
                  .repartition(lbl_blocks)
                  .materialize())
        # HARD lineage cut: materialize() keeps the full plan/stats chain
        # alive on the driver, and per-round planning cost compounds with
        # it (measured: ~1 s/round fresh vs 26 s/round by round 13 at
        # sf0.01 without this). Rebuilding from the materialized block
        # refs moves no data and makes every round O(round-1)-free.
        import ray.data as _rd

        labels = _rd.from_arrow_refs(labels.to_arrow_refs())
        cur = labels.sum("lbl")
        if os.environ.get("GRAFT_CC_TRACE"):
            print(f"[cc] round sum={cur}", flush=True)
        if cur == prev:
            break
        prev = cur
    return labels


# DBSCAN point layer: 30% of events fall in one of 7 dense blobs (12x12
# slot lattice, 0.001 deg spacing, multiplicity grows with sf), the rest
# scatter across the whole domain as noise. Pure integer arithmetic
# (products < 2^63 for any event_id < 2^31) so tests and both engines
# derive bit-identical coordinates.
_DBS_EPS = 0.0025
_DBS_MIN_PTS = 5
_DBS_CELL = 0.003  # > eps and > eps/sqrt(1.8): neighbors in 8-adjacency


def _dbscan_points(eid: np.ndarray):
    pid = np.asarray(eid, dtype=np.int64)
    blob = (pid % 10) < 3
    bid = pid % 7
    blat = 50.9 + ((bid * 41) % 240) / 100.0
    blon = 3.2 + ((bid * 67) % 380) / 100.0
    slot = (pid * np.int64(2654435761)) % 144
    nlat = 50.7 + ((pid * 97) % 2900) / 1000.0
    nlon = 3.0 + (((pid * 31) // 7) % 4300) / 1000.0
    lat = np.where(blob, blat + (slot // 12) / 1000.0, nlat)
    lon = np.where(blob, blon + (slot % 12) / 1000.0, nlon)
    return lat, lon


def geo_dbscan_clusters(sf_dir: str, eps: float = _DBS_EPS,
                        min_pts: int = _DBS_MIN_PTS):
    """Distributed grid-DBSCAN (Ester et al. 1996) over a deterministic
    blob+noise point layer: core points have >= min_pts points (self
    included) within eps under the scaled-euclidean metric; clusters are
    connected components of the core-core eps-graph; border points
    (non-core with a core neighbor) attach to the MINIMUM cluster label
    among their core neighbors — the deterministic resolution of
    DBSCAN's order-dependent border tie (documented variant; classic
    DBSCAN assigns borders to whichever core claimed them first). Noise
    is omitted. Output (event_id, cluster_id = min core id in the
    component, is_core).

    Scale shape (MR-DBSCAN with POSITION CONTRACTION — the piece that
    keeps dense data from going quadratic): duplicate coordinates are
    collapsed to (position, multiplicity, min_id) INSIDE each grid
    bucket before any pairing, so every quadratic term runs over unique
    positions (bounded by the geometry) instead of points; neighbor
    counts come from multiplicity sums (k(p) = sum of m(q) over
    qualifying positions − 1, identical for every point at p). The
    core-core graph is contracted the same way: a per-position STAR
    (member → position's min core id; an exact clique since co-located
    points are at distance 0) plus ONE representative edge per
    qualifying position pair — connectivity is preserved because any
    point-level edge factors through the two stars and the rep edge.
    ONE grid exchange (9 slim copies/point) computes flags + all edge
    candidates; one bucketed merge attaches the b-side core flag (a
    ghost's neighborhood is only complete in its own home bucket); the
    contracted rep graph is DOMAIN-bounded (occupied fine cells × ≤14
    neighbors — the tile-census argument), so its CC runs as union-find
    in ONE task (the diameter-bound _cc_label_prop loop paid ~2 exchange
    floors per round for a graph of a few thousand rows; measured 12.5 s
    → ~4 s at sf0.1/32) and members take their cluster label through ONE
    rep-keyed bucketed merge; row-scaled graphs (doc_dup_clusters) keep
    the distributed loop; border
    attachment is a bucketed merge + distributed min. No pair set,
    label table or cluster ever lives on the driver. Rows-only vs the
    driver (CC is not tractable SQL); value semantics pinned by
    tests/test_spatial.py::TestDBSCAN brute-force."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    nbk = _nbuckets(9 * ne, rows_per_bucket=8192, lo=32)
    e2 = np.float64(eps) * np.float64(eps)

    def copies(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.event_id.to_numpy(np.int64)
        lat, lon = _dbscan_points(ids)
        cx = np.floor((lon - _GRID_LON0) / _DBS_CELL).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / _DBS_CELL).astype(np.int64)
        return _grid_copies(cx, cy, {"id": ids, "lon": lon, "lat": lat}, nbk)

    # kinds emitted by the home-bucket pass:
    #   0: per-point core flag            (a=id,   b=-1,    flag=core)
    #   1: star CC edge, both directions  (a,b core member<->position rep)
    #   2: rep-pair candidate             (a=rep_p core, b=rep_q, flag=T)
    #   3: border candidate               (a=non-core id, b=rep_q)
    def flags_and_edges(g: pd.DataFrame) -> pd.DataFrame:
        home = g[g.home]
        pall = _positions(g)
        ph = pall[pall.home]
        cols = ["cell", "lat", "lon", "m", "rep"]
        mm = ph[cols].merge(pall[cols], on="cell", suffixes=("_a", "_b"))
        dlat = mm.lat_a.to_numpy() - mm.lat_b.to_numpy()
        dlon = mm.lon_a.to_numpy() - mm.lon_b.to_numpy()
        mm = mm[1.8 * dlat * dlat + dlon * dlon <= e2]
        ksum = (mm.groupby(["lat_a", "lon_a"], sort=False).m_b.sum()
                .rename("tot").reset_index())
        ph = ph.merge(ksum, left_on=["lat", "lon"],
                      right_on=["lat_a", "lon_a"])
        ph["core"] = ph.tot.to_numpy(np.int64) >= min_pts
        # expand per-point flags (kind 0)
        hp = home[["id", "lat", "lon"]].merge(
            ph[["lat", "lon", "core", "rep"]], on=["lat", "lon"])
        out_a = [hp.id.to_numpy(np.int64)]
        out_b = [np.full(len(hp), -1, dtype=np.int64)]
        out_k = [np.zeros(len(hp), dtype=np.int8)]
        out_f = [hp.core.to_numpy(bool)]
        # kind 1: position STARS (member -> its position's rep, self
        # included so singleton positions still enumerate their rep)
        st = hp[hp.core.to_numpy(bool)]
        if len(st):
            out_a.append(st.id.to_numpy(np.int64))
            out_b.append(st.rep.to_numpy(np.int64))
            out_k.append(np.ones(len(st), dtype=np.int8))
            out_f.append(np.ones(len(st), dtype=bool))
        # cross-position qualifying pairs with the home side's coreness
        mp = mm.merge(ph[["lat", "lon", "core"]],
                      left_on=["lat_a", "lon_a"], right_on=["lat", "lon"])
        diff = ((mp.lat_a.to_numpy() != mp.lat_b.to_numpy())
                | (mp.lon_a.to_numpy() != mp.lon_b.to_numpy()))
        mp = mp[diff]
        # kind 2: one rep edge per qualifying position pair, core a-side
        k2 = mp[mp.core.to_numpy(bool)]
        if len(k2):
            out_a.append(k2.rep_a.to_numpy(np.int64))
            out_b.append(k2.rep_b.to_numpy(np.int64))
            out_k.append(np.full(len(k2), 2, dtype=np.int8))
            out_f.append(np.ones(len(k2), dtype=bool))
        # kind 3: border candidates — every NON-core home point against
        # each qualifying neighbor position's rep
        k3pos = mp[~mp.core.to_numpy(bool)][["lat_a", "lon_a", "rep_b"]]
        if len(k3pos):
            k3 = hp[~hp.core.to_numpy(bool)][["id", "lat", "lon"]].merge(
                k3pos, left_on=["lat", "lon"],
                right_on=["lat_a", "lon_a"])
            if len(k3):
                out_a.append(k3.id.to_numpy(np.int64))
                out_b.append(k3.rep_b.to_numpy(np.int64))
                out_k.append(np.full(len(k3), 3, dtype=np.int8))
                out_f.append(np.zeros(len(k3), dtype=bool))
        return pd.DataFrame({"kind": np.concatenate(out_k),
                             "a": np.concatenate(out_a),
                             "b": np.concatenate(out_b),
                             "flag": np.concatenate(out_f)})

    mixed = (ev.map_batches(copies, batch_format="pandas")
             .groupby("bk").map_groups(flags_and_edges,
                                       batch_format="pandas")
             .materialize())

    core_tbl = mixed.filter(expr="kind == 0")
    stars = mixed.filter(expr="kind == 1")
    need_b = mixed.filter(expr="kind == 2 or kind == 3")
    n_need = need_b.count()
    pbk = _nbuckets(n_need + ne, rows_per_bucket=8192, lo=16)

    # attach the b-side core flag (kind preserved through the merge)
    def pair_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.b.to_numpy(np.int64),
            "a": df.a.to_numpy(np.int64),
            "kind": df.kind.to_numpy(np.int8),
            "bk": (df.b.to_numpy(np.int64) % pbk).astype(np.int64)})

    def flag_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.a.to_numpy(np.int64),
            "a": np.full(len(df), -1, dtype=np.int64),
            "kind": np.where(df.flag.to_numpy(bool), np.int8(-1),
                             np.int8(-2)),
            "bk": (df.a.to_numpy(np.int64) % pbk).astype(np.int64)})

    def attach_b(g: pd.DataFrame) -> pd.DataFrame:
        corekeys = g.loc[g.kind == -1, ["key"]]
        ps = g.loc[g.kind >= 0, ["key", "a", "kind"]]
        m = ps.merge(corekeys, on="key")  # semi-join: keep core b only
        return pd.DataFrame({"a": m.a.to_numpy(np.int64),
                             "b": m.key.to_numpy(np.int64),
                             "kind": m.kind.to_numpy(np.int8)})

    flagged = (need_b.map_batches(pair_rows, batch_format="pandas")
               .union(core_tbl.map_batches(flag_rows,
                                           batch_format="pandas"))
               .groupby("bk").map_groups(attach_b, batch_format="pandas")
               .materialize())

    # CC edges: stars (already both directions) + core-core rep pairs
    # (the reverse direction arrives from the partner position's own
    # home bucket — rep choice is position-deterministic)
    # CC over the CONTRACTED rep graph. The rep-pair edge set is bounded
    # by occupied fine cells x <=14 neighbor cells — a function of the
    # DOMAIN, not the row count (the tile-census argument) — so it
    # coalesces into ONE task running union-find in memory; per-POINT
    # graphs must instead use the distributed _cc_label_prop loop (the
    # doc_dup_clusters path). Isolated core positions never appear in an
    # edge; their label defaults to their own rep downstream.
    def cc_task(df: pd.DataFrame) -> pd.DataFrame:
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for a, b in zip(df.a.to_numpy(np.int64).tolist(),
                        df.b.to_numpy(np.int64).tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:  # min id becomes the root -> root IS the label
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
        nodes = list(parent.keys())
        return pd.DataFrame({
            "rep": np.array(nodes, dtype=np.int64),
            "lbl": np.array([find(x) for x in nodes], dtype=np.int64)})

    rep_lbl = (flagged.filter(expr="kind == 2")
               .repartition(1)
               .map_batches(cc_task, batch_format="pandas",
                            batch_size=None)
               .materialize())

    # label-back: every core member meets its rep's cluster label in ONE
    # rep-keyed bucketed merge; reps with no edge row label themselves
    def star_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.b.to_numpy(np.int64),
            "node": df.a.to_numpy(np.int64),
            "lbl": np.full(len(df), -1, dtype=np.int64),
            "bk": (df.b.to_numpy(np.int64) % pbk).astype(np.int64)})

    def replbl_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.rep.to_numpy(np.int64),
            "node": np.full(len(df), -1, dtype=np.int64),
            "lbl": df.lbl.to_numpy(np.int64),
            "bk": (df.rep.to_numpy(np.int64) % pbk).astype(np.int64)})

    def label_back(g: pd.DataFrame) -> pd.DataFrame:
        lbls = g.loc[g.node < 0, ["key", "lbl"]]
        mem = g.loc[g.node >= 0, ["key", "node"]]
        m = mem.merge(lbls, on="key", how="left")
        lbl = m.lbl.fillna(m.key).to_numpy(np.int64)  # isolated rep
        return pd.DataFrame({"node": m.node.to_numpy(np.int64),
                             "lbl": lbl})

    labels = (stars.map_batches(star_rows, batch_format="pandas")
              .union(rep_lbl.map_batches(replbl_rows,
                                         batch_format="pandas"))
              .groupby("bk").map_groups(label_back, batch_format="pandas")
              .materialize())

    # border attachment: candidates meet labels in b-keyed buckets;
    # per-bucket PARTIAL mins (a's core neighbors scatter across
    # buckets), then a global min-combine
    def bc_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.b.to_numpy(np.int64),
            "node": df.a.to_numpy(np.int64),
            "lbl": np.full(len(df), -1, dtype=np.int64),
            "bk": (df.b.to_numpy(np.int64) % pbk).astype(np.int64)})

    def lbl_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "key": df.node.to_numpy(np.int64),
            "node": np.full(len(df), -1, dtype=np.int64),
            "lbl": df.lbl.to_numpy(np.int64),
            "bk": (df.node.to_numpy(np.int64) % pbk).astype(np.int64)})

    def attach_border(g: pd.DataFrame) -> pd.DataFrame:
        lbls = g.loc[g.node < 0, ["key", "lbl"]]
        cands = g.loc[g.node >= 0, ["key", "node"]]
        m = cands.merge(lbls, on="key")
        if not len(m):
            return pd.DataFrame({"event_id": pd.Series([], dtype=np.int64),
                                 "cluster_id": pd.Series([], dtype=np.int64)})
        out = m.groupby("node", sort=False).lbl.min().reset_index()
        return pd.DataFrame({"event_id": out.node.to_numpy(np.int64),
                             "cluster_id": out.lbl.to_numpy(np.int64)})

    border_part = (flagged.filter(expr="kind == 3")
                   .map_batches(bc_rows, batch_format="pandas")
                   .union(labels.map_batches(lbl_rows,
                                             batch_format="pandas"))
                   .groupby("bk").map_groups(attach_border,
                                             batch_format="pandas"))
    border = _preagg(border_part, ["event_id"],
                     [("cluster_id", "cluster_id", "min")]).map_batches(
        lambda df: pd.DataFrame({
            "event_id": df.event_id.to_numpy(np.int64),
            "cluster_id": df.cluster_id.to_numpy(np.int64),
            "is_core": np.zeros(len(df), dtype=bool)}),
        batch_format="pandas")

    core_out = labels.map_batches(
        lambda df: pd.DataFrame({
            "event_id": df.node.to_numpy(np.int64),
            "cluster_id": df.lbl.to_numpy(np.int64),
            "is_core": np.ones(len(df), dtype=bool)}),
        batch_format="pandas")
    return core_out.union(border)


def geo_terrain_stats(sf_dir: str):
    """Terrain-derivative zonal statistics: Horn slope + Lambertian
    hillshade (functions/raster.py:slope_aspect/hillshade) computed over
    the synthetic elevation raster (the flagship's own enrichment
    layer), sampled at every event point (nearest grid node) and
    aggregated per 50×50 census tile — mean slope and mean illumination
    per zone, the DEM summary a site-suitability or shadow-aware
    curation pass produces. Output (tile_x, tile_y, n_points,
    mean_slope_deg round-4, mean_hillshade round-4).

    Scale shape: the derivative rasters are computed ONCE from the
    broadcast elevation layer (~0.7M cells — a domain-sized side input,
    ray.put once and read per task, never per batch: worker-side lazy
    cache keyed by the object ref); per batch the sample is a pure
    integer-index gather; the aggregate is one pre-aggregated exchange
    bounded by the tile grid. Rows-only vs the driver (the raster layer
    is not SQL-visible); kernel semantics pinned by
    tests/test_spatial.py::TestTerrain goldens (planar ramps, exact
    arctan/aspect/hillshade identities)."""
    import ray

    from ..functions import geo as G
    from ..functions.raster import ElevationGrid, hillshade, slope_aspect
    from ..sources import synth
    from ..stages.enrich import load_layers

    layers = load_layers(synth.ensure_layers())
    eg = ElevationGrid(layers["elevation"])
    lat_rows = eg.lat0 + (np.arange(eg.nrows) + 0.5) * eg.res
    m_lon, m_lat = G.meters_per_degree(lat_rows)
    slope, aspect = slope_aspect(eg.grid, m_lon * eg.res,
                                 float(m_lat[0]) * eg.res)
    hs = hillshade(slope, aspect)
    ref = ray.put((slope.astype(np.float32), hs.astype(np.float32),
                   eg.lat0, eg.lon0, eg.res, eg.nrows, eg.ncols))
    ev = read_testdata(sf_dir, "events", columns=["event_id"])
    cache = {}

    def sample(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        if "t" not in cache:  # once per worker, not per batch
            cache["t"] = ray.get(_ref)
        sl, h, lat0, lon0, res, nr, nc = cache["t"]
        p = _event_points(df)
        r = np.clip(((p.lat.to_numpy() - lat0) / res).astype(np.int64),
                    0, nr - 1)
        c = np.clip(((p.lon.to_numpy() - lon0) / res).astype(np.int64),
                    0, nc - 1)
        eid = df.event_id.to_numpy(np.int64)
        return pd.DataFrame({
            "tile_x": ((eid // 7) % 4300) // 50,
            "tile_y": (eid % 2900) // 50,
            "s": sl[r, c].astype(np.float64),
            "h": h[r, c].astype(np.float64)})

    agg = _preagg(ev.map_batches(sample, batch_format="pandas"),
                  ["tile_x", "tile_y"],
                  [("n_points", None, "count"), ("ssum", "s", "sum"),
                   ("hsum", "h", "sum")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df.n_points.to_numpy(np.float64)
        return pd.DataFrame({
            "tile_x": df.tile_x.to_numpy(np.int64),
            "tile_y": df.tile_y.to_numpy(np.int64),
            "n_points": df.n_points.to_numpy(np.int64),
            "mean_slope_deg": np.round(df.ssum.to_numpy(np.float64) / n, 4),
            "mean_hillshade": np.round(df.hsum.to_numpy(np.float64) / n, 4)})

    return agg.map_batches(finish, batch_format="pandas")


def image_sharpness(sf_dir: str):
    """Per-image sharpness / blur screening — the image-side quality
    filter a multimodal training-data pipeline runs before captioning or
    chip export (blurred/defocused captures waste tokens): variance of
    the 4-neighbor Laplacian (Pech-Pacheco 2000) + Tenengrad Sobel
    energy (Krotkov 1988) per decoded image, plus the corpus-relative
    blur flag (lap_var below 25% of the corpus median). Output
    (image_id, lap_var round-4, tenengrad round-4, is_blurry).

    Scale shape: decode + both focus measures are one zero-exchange
    actor-less map over the image blobs (per-blob loop inherent to a
    codec; the stencils are whole-array numpy slices); the corpus
    median is a SECOND pass over the tiny per-image metric table (one
    distributed sort-free quantile via np.partition per block partials
    is unnecessary — the metric table is one float per image, exchanged
    once through repartition(1); at 100 TB swap in the t-digest
    broadcast at the documented approximation boundary). Rows-only
    (bytes are not SQL-decodable); kernels pinned by
    tests/test_viz.py::TestSharpness closed-form goldens."""
    import ray.data as rd

    from ..functions import codec as C
    from ..functions.raster import laplacian_var, tenengrad
    from ..sources import synth

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["image_id", "bytes"])

    def metrics(t: pa.Table) -> pd.DataFrame:
        ids, lv, tg = [], [], []
        for img_id, blob in zip(t.column("image_id").to_pylist(),
                                t.column("bytes").to_pylist()):
            px, _meta, ok = C.decode_image(blob)
            if not ok:
                continue
            ids.append(img_id)
            lv.append(laplacian_var(px))
            tg.append(tenengrad(px))
        return pd.DataFrame({
            "image_id": pd.Series(ids, dtype=object),
            "lap_var": np.round(np.array(lv, dtype=np.float64), 4),
            "tenengrad": np.round(np.array(tg, dtype=np.float64), 4)})

    m = ds.map_batches(metrics, batch_format="pyarrow").materialize()
    med = float(m.select_columns(["lap_var"]).repartition(1).map_batches(
        lambda df: pd.DataFrame({"med": [np.median(df.lap_var.to_numpy())]}),
        batch_format="pandas", batch_size=None).to_pandas().med.iloc[0])

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["is_blurry"] = df.lap_var.to_numpy() < 0.25 * med
        return df

    return m.map_batches(flag, batch_format="pandas")


def geo_heatmap_render(sf_dir: str, scale: int = 8):
    """Corpus density-heatmap render: the focal-smoothed tile census
    (geo_grid_density_smooth) rasterized to a PNG via the shipped
    colormap machinery (functions/viz.py apply_cmap + encode_png, 'ryg'
    ramp, min-max normalized, ×8 nearest-neighbor upscale) — the
    hotspot MAP companion to geo_getis_hotspots' statistics, and the
    corpus-level sibling of the per-image index visualizations
    (visualizer parity: scripts/visualize_tiff_locations.py renders
    where data is; this renders how MUCH). Output: one row
    (width, height, n_tiles, vmax, png_len).

    Scale shape: everything upstream of the render is the bounded
    smoothed census (86×58 — domain-sized); the render itself is one
    task. Rows-only vs the driver (PNG bytes are not SQL); pixel
    correctness pinned by tests/test_viz.py::TestHeatmap (decode
    roundtrip + exact LUT color of the max-density tile)."""
    from ..functions import viz

    smooth = geo_grid_density_smooth(sf_dir)

    def render(df: pd.DataFrame) -> pd.DataFrame:
        tx = df.tile_x.to_numpy(np.int64)
        ty = df.tile_y.to_numpy(np.int64)
        v = df.smooth_density.to_numpy(np.float64)
        # row 0 at the TOP = max tile_y (north-up image)
        w, h = int(tx.max()) + 1, int(ty.max()) + 1
        grid = np.zeros((h, w), dtype=np.float64)
        grid[h - 1 - ty, tx] = v
        rgb = viz.apply_cmap(grid, "ryg", 0.0, float(v.max()))
        rgb = np.repeat(np.repeat(rgb, scale, axis=0), scale, axis=1)
        png = viz.encode_png(rgb)
        return pd.DataFrame({
            "width": np.array([w * scale], dtype=np.int64),
            "height": np.array([h * scale], dtype=np.int64),
            "n_tiles": np.array([len(df)], dtype=np.int64),
            "vmax": np.array([round(float(v.max()), 6)]),
            "png_len": np.array([len(png)], dtype=np.int64)})

    return smooth.repartition(1).map_batches(render, batch_format="pandas",
                                             batch_size=None)


def geo_user_paths(sf_dir: str):
    """Per-user trajectory statistics: ordered by (ts, event_id), each
    user's event positions form a path — emit step count, total path
    length and net displacement (start→end) under the scaled-euclidean
    metric shared by the whole geo family (sqrt of a product expression:
    IEEE sqrt is correctly rounded, so both engines compute identical
    step lengths; only the SUM's association differs — covered by the
    sweep tolerance on the rounded output). The movement-analytics
    primitive behind trip-length distributions and GPS-jitter screens.
    Output (user_id, n_steps, path_len round-6, net_disp round-6).

    Scale shape: ONE shuffle keyed on user_id (the LAG pattern), a
    vectorized lexsort + diff per group; per-user output rows only."""
    ev = read_testdata(sf_dir, "events", columns=["event_id", "user_id",
                                                  "ts"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        order = np.lexsort((g.event_id.to_numpy(), us))
        p = _event_points(g.iloc[order])
        lat = p.lat.to_numpy()
        lon = p.lon.to_numpy()
        dlat = lat[1:] - lat[:-1]
        dlon = lon[1:] - lon[:-1]
        steps = np.sqrt(1.8 * dlat * dlat + dlon * dlon)
        nlat = lat[-1] - lat[0]
        nlon = lon[-1] - lon[0]
        return pd.DataFrame({
            "user_id": g.user_id.to_numpy()[:1],
            "n_steps": np.array([len(steps)], dtype=np.int64),
            "path_len": np.array([round(float(steps.sum()), 6)]),
            "net_disp": np.array([round(float(
                np.sqrt(1.8 * nlat * nlat + nlon * nlon)), 6)])})

    return ev.groupby("user_id").map_groups(per_user,
                                            batch_format="pandas")


def geo_contour_lines(sf_dir: str):
    """Iso-elevation contour extraction (raster→vector): marching
    squares (functions/raster.py:contour_segments) over the synthetic
    elevation layer at 8 levels (20..300 m step 40) — the gdaldem
    contour / QGIS contour analogue. Per level: segment count and total
    line length in km (east-west cell widths shrink with cos(latitude);
    each segment is measured with the meter scale of its mean row).
    Output (level, n_segments, total_len_km round-4).

    Scale shape: the raster is ONE broadcast (ray.put once, worker-side
    cache); levels fan out as a tiny Dataset so the 8 extractions run
    as parallel tasks. At planetary rasters the same kernel runs
    per-TILE with one-row halos and the per-level reduce becomes a
    (level)-keyed pre-aggregated exchange — documented upgrade path;
    segment geometry is tile-local either way. Rows-only vs the driver;
    kernel pinned by tests/test_spatial.py::TestContours (exact ramp /
    diagonal lengths, closed-loop topology, circumference match)."""
    import ray
    import ray.data as rd

    from ..functions import geo as G
    from ..functions.raster import ElevationGrid, contour_segments
    from ..sources import synth
    from ..stages.enrich import load_layers

    layers = load_layers(synth.ensure_layers())
    eg = ElevationGrid(layers["elevation"])
    ref = ray.put((eg.grid.astype(np.float32), eg.lat0, eg.res))
    levels = list(range(20, 301, 40))
    cache = {}

    def per_level(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        if "g" not in cache:
            cache["g"] = ray.get(_ref)
        grid, lat0, res = cache["g"]
        out = []
        for lv in df.level.tolist():
            x0, y0, x1, y1 = contour_segments(grid, float(lv))
            ym = (y0 + y1) * 0.5
            m_lon, m_lat = G.meters_per_degree(lat0 + (ym + 0.5) * res)
            dxm = (x1 - x0) * res * m_lon
            dym = (y1 - y0) * res * float(m_lat[0] if len(m_lat) else 0.0)
            out.append((int(lv), len(x0),
                        round(float(np.sqrt(dxm * dxm + dym * dym).sum())
                              / 1000.0, 4)))
        return pd.DataFrame(out, columns=["level", "n_segments",
                                          "total_len_km"]).astype(
            {"level": np.int64, "n_segments": np.int64})

    return rd.from_items([{"level": lv} for lv in levels],
                         override_num_blocks=len(levels)) \
        .map_batches(per_level, batch_format="pandas")


def geo_emerging_hotspots(sf_dir: str):
    """Emerging-hotspot analysis (the ArcGIS space-time-cube primitive):
    per census tile, the Mann-Kendall trend statistic of the DAILY point
    count over the corpus' full [min_day, max_day] range (missing days
    count 0):  S = Σ_{i<j} sign(n_j − n_i)  — S > 0 marks a growing
    (emerging) hotspot, S < 0 a cooling one. Integer-only → hash-exact
    vs the SQL oracle. Output (tile_x, tile_y, n_events, mk_s, trend).

    Scale shape: ONE pre-aggregated (tile, day) census exchange (bounded
    by tiles × days — domain × span, not rows), an O(1) day-range
    aggregate broadcast as two scalars, then a per-tile vectorized
    sign-matrix reduction over the dense day vector (days are bounded by
    the time span; the quadratic term is span², never rows)."""
    ev = read_testdata(sf_dir, "events", columns=["event_id", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        eid = df.event_id.to_numpy(np.int64)
        return pd.DataFrame({
            "tile_x": ((eid // 7) % 4300) // 50,
            "tile_y": (eid % 2900) // 50,
            "day": _epoch_us(df.ts) // DAY_US})

    cen = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                  ["tile_x", "tile_y", "day"],
                  [("n", None, "count")]).materialize()
    d0 = int(cen.min("day"))
    d1 = int(cen.max("day"))
    ndays = d1 - d0 + 1

    def mk(g: pd.DataFrame) -> pd.DataFrame:
        dense = np.zeros(ndays, dtype=np.int64)
        dense[g.day.to_numpy(np.int64) - d0] = g.n.to_numpy(np.int64)
        diff = np.sign(dense[None, :] - dense[:, None])
        s = int(np.triu(diff, 1).sum())
        return pd.DataFrame({
            "tile_x": g.tile_x.to_numpy(np.int64)[:1],
            "tile_y": g.tile_y.to_numpy(np.int64)[:1],
            "n_events": np.array([g.n.sum()], dtype=np.int64),
            "mk_s": np.array([s], dtype=np.int64),
            "trend": np.array(["up" if s > 0 else
                               ("down" if s < 0 else "flat")],
                              dtype=object)})

    return cen.groupby(["tile_x", "tile_y"]).map_groups(
        mk, batch_format="pandas")


def events_cusum_changepoint(sf_dir: str):
    """CUSUM change-point detection per event type: over the dense daily
    count series (missing days = 0), C_t = Σ_{i<=t}(n_i − n̄); the
    change point is the day maximizing |C_t| (first day on ties) — the
    classic Page/Pettitt-style level-shift locator a monitoring pipeline
    runs over event volumes. Output (event_type, cp_day, cusum_at_cp
    round-6, mean_daily round-6).

    Exactness: both engines cumulate LEFT-TO-RIGHT over the identical
    dense day order with identical operands (n̄ is one divide of exact
    integers), so the partial sums are bit-identical doubles — the
    argmax tie-break is therefore deterministic on both sides.

    Scale shape: one (type, day) pre-aggregated census exchange bounded
    by |types| × span; per-type dense vectors bounded by the time span,
    reduced vectorized."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "ts"])
    DAY_US = np.int64(86_400_000_000)

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": df.event_type.to_numpy(object),
                             "day": _epoch_us(df.ts) // DAY_US})

    cen = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                  ["event_type", "day"], [("n", None, "count")]).materialize()
    d0 = int(cen.min("day"))
    d1 = int(cen.max("day"))
    ndays = d1 - d0 + 1

    def cusum(g: pd.DataFrame) -> pd.DataFrame:
        dense = np.zeros(ndays, dtype=np.int64)
        dense[g.day.to_numpy(np.int64) - d0] = g.n.to_numpy(np.int64)
        xbar = dense.sum() / np.float64(ndays)
        cum = np.cumsum(dense.astype(np.float64) - xbar)
        i = int(np.argmax(np.abs(cum)))  # first max on ties
        return pd.DataFrame({
            "event_type": g.event_type.to_numpy(object)[:1],
            "cp_day": np.array([d0 + i], dtype=np.int64),
            "cusum_at_cp": np.array([round(float(cum[i]), 6)]),
            "mean_daily": np.array([round(float(xbar), 6)])})

    return cen.groupby("event_type").map_groups(cusum,
                                                batch_format="pandas")


def _rasterize_rows(idx, classes: np.ndarray, lat0: float, lon0: float,
                    res: float, ncols: int, rows: np.ndarray):
    """Burn the polygon layer into a band of raster rows: classify every
    cell CENTER via the STRtree PolygonIndex (min-polygon_id ties — the
    PIP join's documented rule) and tabulate (class, n_cells, area_m2)
    partials for the band; cell areas shrink with cos(latitude). Cells
    inside no polygon tabulate as 'none'."""
    from ..functions import geo as G

    lons = lon0 + (np.arange(ncols, dtype=np.float64) + 0.5) * res
    out = {}
    for r in rows.tolist():
        lat = lat0 + (r + 0.5) * res
        pos = idx.join(np.full(ncols, lat), lons)
        cls = np.where(pos >= 0, classes[np.clip(pos, 0, None)], "none")
        m_lon, m_lat = G.meters_per_degree(np.array([lat]))
        cell_area = float(m_lon[0]) * res * float(m_lat[0]) * res
        u, c = np.unique(cls, return_counts=True)
        for k, n in zip(u.tolist(), c.tolist()):
            cells, area = out.get(k, (0, 0.0))
            out[k] = (cells + n, area + n * cell_area)
    return pd.DataFrame({
        "landcover_class": np.array(list(out.keys()), dtype=object),
        "n_cells": np.array([v[0] for v in out.values()], dtype=np.int64),
        "area_m2": np.array([v[1] for v in out.values()])})


def geo_rasterize_landcover(sf_dir: str):
    """Vector→raster: rasterize the landcover polygon layer onto the
    elevation grid's cell lattice (gdal_rasterize + 'tabulate area'):
    every 1/240° cell center is classified by the broadcast STRtree
    polygon index and per-class cell counts / areas are tabulated — the
    inverse of geo_contour_lines' raster→vector and the areal ground
    truth behind zonal_stats_landcover. Output (landcover_class,
    n_cells, area_km2 round-4), 'none' = cells outside every polygon.

    Scale shape: the polygon index is ONE broadcast (ray.put once,
    worker-side cache); raster ROWS fan out as a tiny Dataset so bands
    of rows rasterize as parallel tasks (each a vectorized row-at-a-time
    PIP join); per-class partials reduce through one |classes|-bounded
    exchange. Rows-only vs the driver (the polygon layer is not
    SQL-visible); the row kernel is pinned by
    tests/test_spatial.py::TestRasterize crafted rectangles (exact cell
    counts and areas), the PIP join itself by TestPIP brute-force."""
    import ray
    import ray.data as rd

    from ..functions.pip import PolygonIndex
    from ..sources import synth
    from ..stages.enrich import load_layers

    layers = load_layers(synth.ensure_layers())
    lc = layers["landcover"]
    idx = PolygonIndex(lc["rings"], ids=lc["polygon_id"])
    # classes aligned to polygon POSITIONS (join returns positions)
    classes = np.asarray(lc["class"], dtype=object)
    el = layers["elevation"]
    res = float(np.asarray(el["res_deg"])[0])
    lat0 = float(np.asarray(el["min_lat"]).min())
    lon0 = float(np.asarray(el["min_lon"]).min())
    tny = int(np.asarray(el["ny"])[0])
    tnx = int(np.asarray(el["nx"])[0])
    ty = np.rint((np.asarray(el["min_lat"]) - lat0) / (res * tny))
    tx = np.rint((np.asarray(el["min_lon"]) - lon0) / (res * tnx))
    nrows = (int(ty.max()) + 1) * tny
    ncols = (int(tx.max()) + 1) * tnx
    ref = ray.put((idx, classes))
    cache = {}
    band = 64  # rows per task
    starts = list(range(0, nrows, band))

    def burn(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        if "i" not in cache:
            cache["i"] = ray.get(_ref)
        index, cls = cache["i"]
        frames = [_rasterize_rows(index, cls, lat0, lon0, res, ncols,
                                  np.arange(s, min(s + band, nrows)))
                  for s in df.start.tolist()]
        return pd.concat(frames, ignore_index=True)

    part = rd.from_items([{"start": s} for s in starts],
                         override_num_blocks=len(starts)) \
        .map_batches(burn, batch_format="pandas")
    agg = _preagg(part, ["landcover_class"],
                  [("n_cells", "n_cells", "sum"), ("area", "area_m2", "sum")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "landcover_class": df.landcover_class.to_numpy(object),
            "n_cells": df.n_cells.to_numpy(np.int64),
            "area_km2": np.round(df.area.to_numpy(np.float64) / 1e6, 4)})

    return agg.map_batches(finish, batch_format="pandas")


def _los_pairs(eg, alat, alon, blat, blon, mast_m: float = 10.0,
               nsamp: int = 128):
    """Vectorized line-of-sight over a terrain raster for PAIRS of
    endpoints: the sight line runs from (terrain_a + mast) to
    (terrain_b + mast); the pair is visible iff no interior sample's
    terrain rises above the line. Interior samples at t = k/nsamp,
    k = 1..nsamp−1, bilinear terrain; returns (visible bool,
    max_obstruction_m float — negative = clearance)."""
    t = (np.arange(1, nsamp, dtype=np.float64) / nsamp)[None, :]
    lats = alat[:, None] * (1.0 - t) + blat[:, None] * t
    lons = alon[:, None] * (1.0 - t) + blon[:, None] * t
    terr = eg.sample(lats, lons)
    za = eg.sample(alat, alon) + mast_m
    zb = eg.sample(blat, blon) + mast_m
    sight = za[:, None] * (1.0 - t) + zb[:, None] * t
    obst = np.nanmax(terr - sight, axis=1)
    return obst < 0.0, obst


def geo_line_of_sight(sf_dir: str):
    """Station-to-station line-of-sight over the terrain raster (the
    viewshed/radio-planning primitive: which sensor pairs can see each
    other with 10 m masts): all unordered station pairs, 127 bilinear
    terrain samples along each sight line. Output (sid_a, sid_b,
    visible, max_obstruction_m round-2; negative = clearance margin).

    Scale shape: the terrain raster and station layer are ONE broadcast
    (ray.put once, worker cache); pairs are LAYER-sized (n_stations²/2,
    bounded like the layer itself), fanned out per a-station so the
    sampling matrices stay batch-shaped. At corpus-scale pair counts
    the same kernel runs over a PBSM-bucketed pair Dataset — documented
    path. Rows-only vs the driver (raster not SQL-visible); kernel
    pinned by tests/test_spatial.py::TestLineOfSight crafted flat/wall
    terrains with exact obstruction values."""
    import ray
    import ray.data as rd

    from ..functions.raster import ElevationGrid
    from ..sources import synth
    from ..stages.enrich import load_layers

    layers = load_layers(synth.ensure_layers())
    st = layers["stations"]
    eg = ElevationGrid(layers["elevation"])
    ref = ray.put((eg, np.asarray(st["station_id"], dtype=object),
                   np.asarray(st["lat"], dtype=np.float64),
                   np.asarray(st["lon"], dtype=np.float64)))
    n = len(st["lat"])
    cache = {}

    def per_a(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        if "l" not in cache:
            cache["l"] = ray.get(_ref)
        g, sid, slat, slon = cache["l"]
        frames = []
        for a in df.a.tolist():
            b = np.arange(a + 1, n)
            if not len(b):
                continue
            vis, obst = _los_pairs(
                g, np.full(len(b), slat[a]), np.full(len(b), slon[a]),
                slat[b], slon[b])
            frames.append(pd.DataFrame({
                "sid_a": np.repeat(sid[a], len(b)),
                "sid_b": sid[b],
                "visible": vis,
                "max_obstruction_m": np.round(obst, 2)}))
        if not frames:
            return pd.DataFrame({
                "sid_a": pd.Series([], dtype=object),
                "sid_b": pd.Series([], dtype=object),
                "visible": pd.Series([], dtype=bool),
                "max_obstruction_m": pd.Series([], dtype=np.float64)})
        return pd.concat(frames, ignore_index=True)

    return rd.from_items([{"a": i} for i in range(n)],
                         override_num_blocks=min(n, 32)) \
        .map_batches(per_a, batch_format="pandas")


def geo_flow_accumulation(sf_dir: str, topk: int = 20):
    """D8 hydrological flow accumulation over the terrain raster
    (O'Callaghan & Mark 1984 — the gdaldem/ArcGIS Flow Accumulation
    primitive): every cell drains to its steepest-descent neighbor; the
    accumulation field counts upstream cells; the top-k cells are the
    drainage outlets (where the synthetic rivers run). Output (rank,
    lat, lon, flow_cells, elev_m round-2), rank by (accumulation DESC,
    flat cell index) — fully deterministic.

    Scale shape: the raster is domain-bounded (the tile-census
    argument), so direction + accumulation run vectorized in ONE task
    (the fixpoint is max-flow-length scatter-add rounds over a forest —
    each cell has one outflow); only k rows leave it. Planetary rasters
    tile with halo exchange per fixpoint round — documented path.
    Rows-only; kernels pinned by tests/test_spatial.py::TestFlow (ramp
    and V-valley closed forms)."""
    import ray
    import ray.data as rd

    from ..functions.raster import (
        ElevationGrid,
        flow_accumulation,
        flow_d8,
    )
    from ..sources import synth
    from ..stages.enrich import load_layers

    layers = load_layers(synth.ensure_layers())
    eg = ElevationGrid(layers["elevation"])
    ref = ray.put((eg.grid.astype(np.float32), eg.lat0, eg.lon0, eg.res))

    def compute(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        grid, lat0, lon0, res = ray.get(_ref)
        z = grid.astype(np.float64)
        acc = flow_accumulation(flow_d8(z), z.shape).ravel()
        order = np.lexsort((np.arange(len(acc)), -acc))[:topk]
        r, c = order // z.shape[1], order % z.shape[1]
        return pd.DataFrame({
            "rank": np.arange(1, len(order) + 1, dtype=np.int64),
            "lat": lat0 + (r + 0.5) * res,
            "lon": lon0 + (c + 0.5) * res,
            "flow_cells": acc[order].astype(np.int64),
            "elev_m": np.round(z.ravel()[order], 2)})

    return rd.from_items([{"go": 1}]).map_batches(compute,
                                                  batch_format="pandas")


def _krige_system(slat: np.ndarray, slon: np.ndarray,
                  vrange: float = 0.5):
    """Ordinary-kriging system for the station layer under the
    exponential covariance C(h) = exp(−h / range) with h the shared
    scaled-euclidean metric: returns the inverse of the (n+1)×(n+1)
    augmented matrix [[C, 1], [1ᵀ, 0]] (the Lagrange row enforcing
    Σλ = 1). n is LAYER-sized, so the factorization is a one-time
    driver/broadcast cost."""
    dlat = slat[:, None] - slat[None, :]
    dlon = slon[:, None] - slon[None, :]
    h = np.sqrt(1.8 * dlat * dlat + dlon * dlon)
    n = len(slat)
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.exp(-h / vrange)
    a[:n, n] = 1.0
    a[n, :n] = 1.0
    return np.linalg.inv(a)


def _krige_batch(ainv: np.ndarray, slat, slon, sval, qlat, qlon,
                 vrange: float = 0.5):
    """Vectorized ordinary kriging of a batch of query points: one
    (batch × n+1) covariance matrix, one matmul against the broadcast
    inverse; returns (estimate, kriging variance)."""
    dlat = qlat[:, None] - slat[None, :]
    dlon = qlon[:, None] - slon[None, :]
    h = np.sqrt(1.8 * dlat * dlat + dlon * dlon)
    n = len(slat)
    k = np.empty((len(qlat), n + 1))
    k[:, :n] = np.exp(-h / vrange)
    k[:, n] = 1.0
    lam = k @ ainv.T            # rows: [λ_1..λ_n, μ]
    est = lam[:, :n] @ sval
    var = 1.0 - (lam * k).sum(axis=1)  # C(0)=1 − λᵀk − μ·1
    return est, var


def geo_kriging_interpolate(sf_dir: str):
    """Ordinary kriging (Matheron 1963 — the BLUE geostatistical
    estimator, IDW's principled upgrade) of the synthetic station
    values at every event point, with the kriging VARIANCE as the
    uncertainty surface (what IDW cannot give): exponential covariance
    C(h) = exp(−h/0.5) over the shared scaled-euclidean metric, exact
    interpolator at the stations. Output (event_id, kriged_value
    round-6, kriging_var round-6).

    Scale shape: the (n+1)² system is LAYER-sized and inverted ONCE
    (driver), then broadcast; each batch is one covariance matrix and
    one matmul — zero exchanges, the IDW/kNN broadcast pattern.
    Rows-only vs the driver (a matrix solve is not SQL); pinned by
    tests/test_spatial.py::TestKriging — exactness at stations, Σλ = 1,
    zero variance at stations, agreement with an independent per-point
    np.linalg.solve."""
    import ray

    sid = np.arange(_N_SYN_STATIONS, dtype=np.int64)
    slat = 50.8 + ((sid * 37) % 270) / 100.0
    slon = 3.1 + ((sid * 73) % 410) / 100.0
    sval = 5.0 + ((sid * 13) % 70).astype(np.float64)
    ainv = _krige_system(slat, slon)
    ref = ray.put((ainv, slat, slon, sval))
    ev = read_testdata(sf_dir, "events", columns=["event_id"])
    cache = {}

    def f(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        if "k" not in cache:
            cache["k"] = ray.get(_ref)
        a, la, lo, v = cache["k"]
        p = _event_points(df)
        est, var = _krige_batch(a, la, lo, v, p.lat.to_numpy(),
                                p.lon.to_numpy())
        return pd.DataFrame({"event_id": p.event_id.to_numpy(np.int64),
                             "kriged_value": np.round(est, 6),
                             "kriging_var": np.round(var, 6)})

    return ev.map_batches(f, batch_format="pandas")


def geo_hillshade_render(sf_dir: str):
    """Hillshaded relief render of the terrain raster (the gdaldem
    hillshade PNG — the base layer under every terrain map): Horn slope/
    aspect → Lambertian shading (az 315°, alt 45°) → grayscale PNG via
    the pure-numpy encoder. Output: one row (width, height, mean_shade
    round-6, png_len).

    Scale shape: one domain-bounded render task over the broadcast
    raster (the geo_heatmap_render argument); planetary rasters render
    per-tile with one-cell halos. Rows-only; shading kernel pinned by
    TestTerrain, PNG roundtrip by tests/test_viz.py::TestHillshade."""
    import ray
    import ray.data as rd

    from ..functions import geo as G
    from ..functions import viz
    from ..functions.raster import ElevationGrid, hillshade, slope_aspect
    from ..sources import synth
    from ..stages.enrich import load_layers

    layers = load_layers(synth.ensure_layers())
    eg = ElevationGrid(layers["elevation"])
    ref = ray.put((eg.grid.astype(np.float32), eg.lat0, eg.res))

    def render(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
        grid, lat0, res = ray.get(_ref)
        z = grid.astype(np.float64)
        lat_rows = lat0 + (np.arange(z.shape[0]) + 0.5) * res
        m_lon, m_lat = G.meters_per_degree(lat_rows)
        s, a = slope_aspect(z, m_lon * res, float(m_lat[0]) * res)
        hs = hillshade(s, a)
        img = (hs[::-1] * 255.0 + 0.5).astype(np.uint8)  # north-up
        rgb = np.repeat(img[:, :, None], 3, axis=2)
        png = viz.encode_png(rgb)
        return pd.DataFrame({
            "width": np.array([z.shape[1]], dtype=np.int64),
            "height": np.array([z.shape[0]], dtype=np.int64),
            "mean_shade": np.array([round(float(hs.mean()), 6)]),
            "png_len": np.array([len(png)], dtype=np.int64)})

    return rd.from_items([{"go": 1}]).map_batches(render,
                                                  batch_format="pandas")


def geo_station_coverage(sf_dir: str):
    """Sensor-coverage field: per census tile, the mean and max distance
    from its points to their NEAREST station (the accessibility /
    coverage-gap analysis a sensor-network planner runs — large max =
    a blind spot). Distance = sqrt of the shared scaled-euclidean
    product expression (IEEE sqrt: correctly rounded, identical both
    engines); only the per-tile MEAN's summation order differs, covered
    by the rounded-output tolerance. Output (tile_x, tile_y, n_points,
    mean_station_dist round-6, max_station_dist round-6).

    Scale shape: the station layer is broadcast (closure constants);
    each batch computes one (rows × stations) distance matrix and a
    row-min — zero exchanges before the tile-bounded pre-aggregated
    reduce (sums/maxes, never the raw distances)."""
    sid = np.arange(_N_SYN_STATIONS, dtype=np.int64)
    slat = 50.8 + ((sid * 37) % 270) / 100.0
    slon = 3.1 + ((sid * 73) % 410) / 100.0
    ev = read_testdata(sf_dir, "events", columns=["event_id"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lat = p.lat.to_numpy()[:, None]
        lon = p.lon.to_numpy()[:, None]
        d2 = 1.8 * (lat - slat[None, :]) * (lat - slat[None, :]) \
            + (lon - slon[None, :]) * (lon - slon[None, :])
        d = np.sqrt(d2.min(axis=1))
        eid = df.event_id.to_numpy(np.int64)
        return pd.DataFrame({
            "tile_x": ((eid // 7) % 4300) // 50,
            "tile_y": (eid % 2900) // 50,
            "d": d})

    agg = _preagg(ev.map_batches(f, batch_format="pandas"),
                  ["tile_x", "tile_y"],
                  [("n_points", None, "count"), ("dsum", "d", "sum"),
                   ("dmax", "d", "max")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "tile_x": df.tile_x.to_numpy(np.int64),
            "tile_y": df.tile_y.to_numpy(np.int64),
            "n_points": df.n_points.to_numpy(np.int64),
            "mean_station_dist": np.round(
                df.dsum.to_numpy(np.float64)
                / df.n_points.to_numpy(np.float64), 6),
            "max_station_dist": np.round(df.dmax.to_numpy(np.float64), 6)})

    return agg.map_batches(finish, batch_format="pandas")


# ------------------------------------------- round-5 additions: the
# temporal/spatial analytics tier a monitoring + mobility stack runs over
# the same event stream (seasonality, Benford data-quality, trajectory
# speed, OD flows, autocorrelation). All SQL-exact (integer keys /
# term-identical float expressions) — driver hash rows, no tolerance.


def events_seasonality(sf_dir: str):
    """Weekly/diurnal activity fingerprint: count + mean value per
    (event_type, day-of-week, hour-of-day) — the heatmap behind every
    ops dashboard. dow/hour derive from integer-µs arithmetic
    ((epoch_day + 4) % 7, 0 = Sunday; (us % day) // hour) — identical on
    both engines, no timezone/locale function semantics involved.

    Scale shape: pure _preagg (two-stage hash aggregate), zero other
    exchanges; output bounded at types × 168 rows."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_type", "ts", "value"])
    DAY = 86_400_000_000

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(df.ts)
        return pd.DataFrame({
            "event_type": df.event_type.to_numpy(),
            "dow": ((us // DAY + 4) % 7).astype(np.int64),
            "hour": ((us % DAY) // 3_600_000_000).astype(np.int64),
            "v": df.value.to_numpy(np.float64)})

    agg = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                  ["event_type", "dow", "hour"],
                  [("n", None, "count"), ("s", "v", "sum")])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df.event_type.to_numpy(),
            "dow": df.dow.to_numpy(np.int64),
            "hour": df.hour.to_numpy(np.int64),
            "n": df.n.to_numpy(np.int64),
            "mean_value": np.round(df.s.to_numpy(np.float64)
                                   / df.n.to_numpy(np.float64), 6)})

    return agg.map_batches(fin, batch_format="pandas")


def events_benford(sf_dir: str):
    """Benford's-law data-quality audit: leading-digit distribution of
    value per event_type vs the Benford expectation log10(1 + 1/d) —
    the classic fabricated-data / instrumentation-bug detector. The
    digit comes from integer cents (rint(value·100): values carry two
    decimals, so the double sits ~1e-10 from an integer and half-even
    vs half-away rounding never disagrees) via string head — no
    log10-on-float boundary cases.

    Scale shape: one vectorized map + _preagg on (type, digit); the
    per-type frequency normalization runs on the ≤ types × 9-row
    aggregate (bounded by construction)."""
    ev = read_testdata(sf_dir, "events", columns=["event_type", "value"])

    def digits(df: pd.DataFrame) -> pd.DataFrame:
        v = df.value.to_numpy(np.float64)
        m = v > 0
        cents = np.rint(v[m] * 100.0).astype(np.int64)
        first = pd.Series(cents).astype(str).str[0].astype(np.int64)
        return pd.DataFrame({"event_type": df.event_type.to_numpy()[m],
                             "digit": first.to_numpy()})

    agg = _preagg(ev.map_batches(digits, batch_format="pandas"),
                  ["event_type", "digit"],
                  [("n", None, "count")]).to_pandas()
    tot = agg.groupby("event_type").n.transform("sum").to_numpy(np.float64)
    d = agg.digit.to_numpy(np.float64)
    return pd.DataFrame({
        "event_type": agg.event_type.to_numpy(),
        "digit": agg.digit.to_numpy(np.int64),
        "n": agg.n.to_numpy(np.int64),
        "freq": np.round(agg.n.to_numpy(np.float64) / tot, 6),
        "benford_expected": np.round(np.log10(1.0 + 1.0 / d), 6)})


def geo_speed_outliers(sf_dir: str):
    """Trajectory speed audit: per user, consecutive-event displacement
    over the synthetic point layer (shared scaled-euclidean metric —
    IEEE sqrt, term-identical both engines) divided by the µs gap;
    reports per user the segment count and MAX speed (deg-ish/s). Max
    over identical IEEE doubles is exact parity; zero-gap segments are
    excluded on both engines (speed undefined).

    Scale shape: ONE user-keyed exchange; per-group work is one lexsort
    + vectorized diffs (the events_user_lag window pattern)."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "user_id", "ts"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        eid = g.event_id.to_numpy(np.int64)
        order = np.lexsort((eid, us))
        us = us[order]
        p = _event_points(g.iloc[order])
        dlat = np.diff(p.lat.to_numpy(np.float64))
        dlon = np.diff(p.lon.to_numpy(np.float64))
        dt = np.diff(us)
        ok = dt > 0
        if not ok.any():
            return pd.DataFrame({
                "user_id": np.array([], dtype=np.int64),
                "n_segments": np.array([], dtype=np.int64),
                "max_speed": np.array([], dtype=np.float64)})
        speed = (np.sqrt(1.8 * dlat[ok] * dlat[ok] + dlon[ok] * dlon[ok])
                 / (dt[ok] / 1e6))
        return pd.DataFrame({
            "user_id": np.array([np.int64(g.user_id.iloc[0])]),
            "n_segments": np.array([np.int64(ok.sum())]),
            "max_speed": np.array([round(float(speed.max()), 6)])})

    return ev.groupby("user_id").map_groups(per_user, batch_format="pandas")


def geo_od_matrix(sf_dir: str):
    """Origin–destination flow matrix (the mobility-analytics staple):
    per (user, day), the first and last event's coarse tile become an OD
    trip; output per (ox, oy, dx, dy): trip count + distinct users.
    First/last are total-ordered by (ts µs, event_id) — integer keys,
    exact on both engines.

    Scale shape: per-block partial keeps only each (user, day)'s
    first/last candidate rows (one exchange on a hashed user-day key
    resolves them globally — the _preagg pattern for argmin/argmax),
    then two more _preagg stages: (od, user) distinct contraction and
    the final od rollup. Nothing materializes beyond the bounded
    10×10×10×10 OD space."""
    import ray

    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "user_id", "ts"])
    DAY = 86_400_000_000
    npart = max(8, int(ray.cluster_resources().get("CPU", 8)))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(df.ts)
        eid = df.event_id.to_numpy(np.int64)
        uid = df.user_id.to_numpy(np.int64)
        dkey = (us // DAY).astype(np.int64)
        order = np.lexsort((eid, us))
        t = pd.DataFrame({"uid": uid[order], "dkey": dkey[order],
                          "eid": eid[order], "us": us[order]})
        g = t.groupby(["uid", "dkey"], sort=False)
        first = g.head(1)
        last = g.tail(1)
        out = pd.concat([first.assign(end=0), last.assign(end=1)],
                        ignore_index=True)
        out["_pk"] = (pd.util.hash_pandas_object(out[["uid", "dkey"]],
                                                 index=False)
                      % npart).astype("int32")
        return out

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        # global first/last per (uid, dkey) from the per-block candidates.
        # NB: first/last must come from ONE aligned aggregate — head(1)
        # and tail(1) order groups by first- vs last-occurrence position,
        # which scrambles origin/destination pairing.
        order = np.lexsort((df.eid.to_numpy(), df.us.to_numpy()))
        t = df.iloc[order]
        agg = (t.groupby(["uid", "dkey"], sort=False)
               .agg(oe=("eid", "first"), de=("eid", "last")).reset_index())
        oe = agg.oe.to_numpy(np.int64)
        de = agg.de.to_numpy(np.int64)
        return pd.DataFrame({
            "uid": agg.uid.to_numpy(np.int64),
            "ox": ((oe // 7) % 4300) // 430,
            "oy": (oe % 2900) // 290,
            "dx": ((de // 7) % 4300) // 430,
            "dy": (de % 2900) // 290})

    trips = (ev.map_batches(partial, batch_format="pandas",
                            batch_size=None)
             .groupby("_pk").map_groups(resolve, batch_format="pandas"))
    per_user = _preagg(trips, ["ox", "oy", "dx", "dy", "uid"],
                       [("k", None, "count")])
    od = _preagg(per_user, ["ox", "oy", "dx", "dy"],
                 [("n_trips", "k", "sum"), ("n_users", None, "count")])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "ox": df.ox.to_numpy(np.int64), "oy": df.oy.to_numpy(np.int64),
            "dx": df.dx.to_numpy(np.int64), "dy": df.dy.to_numpy(np.int64),
            "n_trips": df.n_trips.to_numpy(np.int64),
            "n_users": df.n_users.to_numpy(np.int64)})

    return od.map_batches(fin, batch_format="pandas")


def events_autocorr_daily(sf_dir: str):
    """Lag-1..7 autocorrelation of the per-type DAILY count series — the
    weekly-cycle detector behind anomaly baselines. All Σ terms are
    exact int64 sums over identical (day, day+lag) inner-join pair sets,
    so the Pearson numerator/denominator are bit-identical on both
    engines before the single float divide (round 6). Zero-variance
    lags drop on both sides.

    Scale shape: the corpus-scale work is ONE _preagg to daily counts;
    the ACF runs on the bounded types × days series on the driver
    (calendar-bounded, not corpus-bounded)."""
    daily = _daily_type_counts(sf_dir)
    rows = []
    for et, g in daily.groupby("event_type", sort=False):
        series = dict(zip(g.dkey.to_numpy(np.int64),
                          g.c.to_numpy(np.int64)))
        for lag in range(1, 8):
            xs, ys = [], []
            for dk, x in series.items():
                y = series.get(dk + lag)
                if y is not None:
                    xs.append(int(x))
                    ys.append(int(y))
            n = len(xs)
            if n == 0:
                continue
            sx, sy = sum(xs), sum(ys)
            sxy = sum(a * b for a, b in zip(xs, ys))
            sxx = sum(a * a for a in xs)
            syy = sum(b * b for b in ys)
            vx = n * sxx - sx * sx
            vy = n * syy - sy * sy
            if vx <= 0 or vy <= 0:
                continue
            acf = float(n * sxy - sx * sy) / (
                np.sqrt(np.float64(vx)) * np.sqrt(np.float64(vy)))
            rows.append((et, lag, n, round(acf, 6)))
    return pd.DataFrame(rows, columns=["event_type", "lag", "n_pairs",
                                       "acf"]).astype(
        {"lag": np.int64, "n_pairs": np.int64})


_RIPLEY_RADII = (0.01, 0.02, 0.03)
_RIPLEY_CELL = 0.031  # strictly > max r: qualifying pairs never straddle ±1


def geo_ripley_k(sf_dir: str):
    """Ripley's K point-pattern statistic (Ripley 1977; the
    clustered-vs-CSR diagnostic) at radii 0.01/0.02/0.03 over the
    events-derived layer, no edge correction (documented; the border
    term needs the same pair counts restricted to an eroded frame):

        K(r) = A · n_pairs(r) / (n · (n − 1)),  A = 4.3 · 2.9

    with n_pairs counting ORDERED pairs i≠j under the shared
    scaled-euclidean metric (d² ≤ r² compared in exact doubles —
    identical pair sets both engines; the only float divide is the final
    bounded expression, term-identical to the SQL).

    Scale shape: the ESDA home+ghost grid scheme with 0.031° cells
    (_grid_copies). Each bucket contracts its rows to unique positions
    (_positions, the DBSCAN contraction) and counts ordered pairs as
    Σ m_a·m_b over qualifying (home position, position) pairs minus
    Σ m_home for the self pairs, so its candidate frame is bounded by
    positions, not points, in a dense cell; it reduces to THREE int64
    partial counts, and one coalesced sum finishes. Candidate pairs exist
    only inside one bucket task; none crosses an exchange."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    nbk = _nbuckets(9 * ne, rows_per_bucket=8192, lo=32)
    r2s = [np.float64(r) * np.float64(r) for r in _RIPLEY_RADII]

    def copies(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lon = p.lon.to_numpy()
        lat = p.lat.to_numpy()
        cx = np.floor((lon - _GRID_LON0) / _RIPLEY_CELL).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / _RIPLEY_CELL).astype(np.int64)
        return _grid_copies(cx, cy, {"id": p.event_id.to_numpy(np.int64),
                                     "lon": lon, "lat": lat}, nbk)

    def pair_counts(g: pd.DataFrame) -> pd.DataFrame:
        pall = _positions(g)
        ph = pall[pall.home]
        cols = ["cell", "lat", "lon", "m"]
        mm = ph[cols].merge(pall[cols], on="cell", suffixes=("_a", "_b"))
        dlat = mm.lat_a.to_numpy() - mm.lat_b.to_numpy()
        dlon = mm.lon_a.to_numpy() - mm.lon_b.to_numpy()
        d2 = 1.8 * dlat * dlat + dlon * dlon
        w = mm.m_a.to_numpy(np.int64) * mm.m_b.to_numpy(np.int64)
        n_self = ph.m.to_numpy(np.int64).sum()  # d2 = 0 pairs i == i
        return pd.DataFrame({f"p{i}": [np.int64(w[d2 <= r2].sum() - n_self)]
                             for i, r2 in enumerate(r2s)})

    part = (ev.map_batches(copies, batch_format="pandas")
            .groupby("bk").map_groups(pair_counts, batch_format="pandas")
            .to_pandas())
    n = _pq_nrows(testdata_path(sf_dir, "events"))
    area = 4.3 * 2.9
    rows = []
    for i, r in enumerate(_RIPLEY_RADII):
        np_r = int(part[f"p{i}"].sum())
        rows.append((r, np_r,
                     round((area * np_r) / (n * (n - 1.0)), 6)))
    return pd.DataFrame(rows, columns=["r", "n_pairs", "k_r"]).astype(
        {"n_pairs": np.int64})


_NN_CENSOR = 0.012  # = the ESDA cell: NN search lossless within ±1 cell


def geo_nearest_neighbor_stats(sf_dir: str):
    """Censored nearest-neighbor field (the Clark–Evans 1954 ingredient,
    banded): per 50×50 census tile, the count of points whose nearest
    OTHER point lies within 0.012 (censor = cell size, so the 9-cell
    neighborhood provably contains any qualifying neighbor), their mean
    and min NN distance (IEEE sqrt of the shared metric), and the
    censored count (no neighbor within the band — isolation flag).
    Tiles with zero uncensored points emit the −1.0 sentinel on both
    engines (NaN-hostile hash compare).

    Scale shape: ONE home+ghost grid exchange (per-bucket row-min, never
    a pair set), then a tile-bounded `_preagg`; mean association drift
    is confined to ≤ tile-sized sums under round-6."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id"])
    nbk = _nbuckets(9 * ne, rows_per_bucket=8192, lo=32)
    c2 = np.float64(_NN_CENSOR) * np.float64(_NN_CENSOR)

    def copies(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lon = p.lon.to_numpy()
        lat = p.lat.to_numpy()
        cx = np.floor((lon - _GRID_LON0) / _NN_CENSOR).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / _NN_CENSOR).astype(np.int64)
        return _grid_copies(cx, cy, {"id": p.event_id.to_numpy(np.int64),
                                     "lon": lon, "lat": lat}, nbk)

    def nn_min(g: pd.DataFrame) -> pd.DataFrame:
        m = _band_pairs(g, ["id", "lon", "lat"], c2)
        agg = (m.groupby("id_a", sort=False)
               .agg(d2min=("d2", "min")).reset_index())
        out = g[g.home][["id"]].merge(agg, left_on="id", right_on="id_a",
                                      how="left")
        eid = out.id.to_numpy(np.int64)
        d = np.sqrt(out.d2min.to_numpy(np.float64))  # NaN where censored
        cens = np.isnan(d)
        return pd.DataFrame({
            "tile_x": ((eid // 7) % 4300) // 50,
            "tile_y": (eid % 2900) // 50,
            "one": np.ones(len(eid), dtype=np.int64),
            "unc": (~cens).astype(np.int64),
            "dsum": np.where(cens, 0.0, d),
            "dmin": np.where(cens, np.inf, d)})

    nn = (ev.map_batches(copies, batch_format="pandas")
          .groupby("bk").map_groups(nn_min, batch_format="pandas"))
    agg = _preagg(nn, ["tile_x", "tile_y"],
                  [("n", "one", "sum"), ("n_unc", "unc", "sum"),
                   ("ds", "dsum", "sum"), ("dm", "dmin", "min")])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        n_unc = df.n_unc.to_numpy(np.float64)
        ds = df.ds.to_numpy(np.float64)
        dm = df.dm.to_numpy(np.float64)
        has = n_unc > 0
        return pd.DataFrame({
            "tile_x": df.tile_x.to_numpy(np.int64),
            "tile_y": df.tile_y.to_numpy(np.int64),
            "n_points": df.n.to_numpy(np.int64),
            "n_censored": (df.n.to_numpy(np.int64)
                           - df.n_unc.to_numpy(np.int64)),
            "mean_nn": np.where(has, np.round(ds / n_unc, 6), -1.0),
            "min_nn": np.where(has, np.round(dm, 6), -1.0)})

    return agg.map_batches(fin, batch_format="pandas")


def geo_quadtree_tiles(sf_dir: str, cap_frac: int = 50, max_level: int = 6):
    """Adaptive quadtree tiling (the spatial-index / adaptive-partitioner
    primitive; geo_zorder_layout's sibling for SKEWED domains): starting
    from the whole domain, any tile holding more than n/50 points splits
    into 4 children, down to level 6 (64×64). Output = the non-empty
    LEAF tiles (level, tx, ty, n_points) — a balanced partitioning plan
    where dense city-cores end at fine levels and empty countryside
    stays coarse. Finest-level tile ids are pure integer arithmetic
    (v·64 // 4300), the cap is an integer count — exact on both engines;
    empty leaves are omitted (never observed in the census).

    Scale shape: ONE `_preagg` exchange to the level-6 census (≤ 4096
    rows — domain-bounded, the tile-census argument); the refinement
    itself is a driver-side rollup over that bounded table. At planetary
    grids the same recursion runs as a per-coarse-cell map over a
    bucketed census."""
    ev = read_testdata(sf_dir, "events", columns=["event_id"])
    side = 1 << max_level

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        eid = df.event_id.to_numpy(np.int64)
        return pd.DataFrame({
            "tx": ((eid // 7) % 4300) * side // 4300,
            "ty": (eid % 2900) * side // 2900})

    census = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                     ["tx", "ty"], [("n", None, "count")]).to_pandas()
    n_total = int(census.n.sum())
    cap = max(1, n_total // cap_frac)

    # per-level rollups from the bounded finest census
    levels = {max_level: {(int(r.tx), int(r.ty)): int(r.n)
                          for r in census.itertuples()}}
    for lvl in range(max_level - 1, -1, -1):
        up: dict = {}
        for (tx, ty), n in levels[lvl + 1].items():
            k = (tx // 2, ty // 2)
            up[k] = up.get(k, 0) + n
        levels[lvl] = up

    rows = []

    def descend(lvl, tx, ty):
        n = levels[lvl].get((tx, ty))
        if n is None:
            return  # empty subtree: omitted
        if n <= cap or lvl == max_level:
            rows.append((lvl, tx, ty, n))
            return
        for cx in (2 * tx, 2 * tx + 1):
            for cy in (2 * ty, 2 * ty + 1):
                descend(lvl + 1, cx, cy)

    descend(0, 0, 0)
    return pd.DataFrame(rows, columns=["level", "tx", "ty",
                                       "n_points"]).astype(np.int64)


def _chip_content_hashes(px: np.ndarray, tile: int) -> np.ndarray:
    """Vectorized 64-bit content hash per tile×tile chip (x-major order):
    each chip's 4096 uint16 pixels dotted with a fixed odd-power vector
    in wrapping uint64 arithmetic — one matmul per image, no per-chip
    Python loop, deterministic across engines/platforms."""
    ny, nx = px.shape[0] // tile, px.shape[1] // tile
    q = px[:ny * tile, :nx * tile].reshape(ny, tile, nx, tile)
    flat = (q.transpose(2, 0, 1, 3)         # x-major to match tile_chips
            .reshape(nx * ny, tile * tile).astype(np.uint64))
    base = np.uint64(0x9E3779B97F4A7C15)
    pw = np.empty(tile * tile, dtype=np.uint64)
    pw[0] = np.uint64(1)
    for i in range(1, tile * tile):
        pw[i] = pw[i - 1] * base  # wraps mod 2^64
    with np.errstate(over="ignore"):
        h = (flat * pw[None, :]).sum(axis=1)  # wraps mod 2^64
    return h.view(np.int64)


def image_duplicate_tiles(sf_dir: str, tile: int = 64, topk: int = 100):
    """Cross-image duplicate-content detection at chip granularity (the
    copy-move / repeated-background screen a training-data curator runs
    before chip export — exact-duplicate chips carry no new signal and
    leak across train/val splits): every decode-ok image's 64×64 chips
    are content-hashed (vectorized — see _chip_content_hashes), and
    hashes seen in ≥ 2 DISTINCT images are reported, top-100 by
    (n_chips DESC, chip_hash ASC). Output (chip_hash, n_images,
    n_chips).

    Scale shape: zero-exchange decode+hash inside map_batches; per-block
    partials emit block-distinct (hash, image) pairs + chip counts, then
    two `_preagg` stages (distinct-image contraction → hash rollup) —
    the events_table_profile distinct-count pattern; only the bounded
    top-k reaches the driver. Rows-only vs the driver (bytes are not
    SQL-decodable); pinned by a brute-force pytest oracle."""
    import ray.data as rd

    from ..functions import codec as C

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(img_dir, columns=["image_id", "bytes"])

    def hashes(t: pa.Table) -> pd.DataFrame:
        hs, ids = [], []
        for img_id, blob in zip(t.column("image_id").to_pylist(),
                                t.column("bytes").to_pylist()):
            px, _meta, ok = C.decode_image(blob)
            if not ok or px.shape[0] < tile or px.shape[1] < tile:
                continue
            h = _chip_content_hashes(px, tile)
            hs.append(h)
            ids.append(np.repeat(np.array([img_id], dtype=object), len(h)))
        if not hs:
            return pd.DataFrame({"chip_hash": pd.Series([], dtype=np.int64),
                                 "image_id": pd.Series([], dtype=object)})
        return pd.DataFrame({"chip_hash": np.concatenate(hs),
                             "image_id": np.concatenate(ids)})

    per_img = _preagg(ds.map_batches(hashes, batch_format="pyarrow"),
                      ["chip_hash", "image_id"], [("k", None, "count")])
    agg = _preagg(per_img, ["chip_hash"],
                  [("n_images", None, "count"), ("n_chips", "k", "sum")])

    def topk_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df.n_images >= 2]
        return df.sort_values(["n_chips", "chip_hash"],
                              ascending=[False, True]).head(topk)

    parts = agg.map_batches(topk_part, batch_format="pandas").to_pandas()
    out = parts.sort_values(["n_chips", "chip_hash"],
                            ascending=[False, True]).head(topk)
    return pd.DataFrame({
        "chip_hash": out.chip_hash.to_numpy(np.int64),
        "n_images": out.n_images.to_numpy(np.int64),
        "n_chips": out.n_chips.to_numpy(np.int64)}).reset_index(drop=True)


def geo_direction_rose(sf_dir: str):
    """Movement direction rose (the compass-octant histogram of
    consecutive-event displacements a mobility dashboard renders): per
    octant, the global segment count. Octants derive from SIGN and
    |dlon| vs |dlat| comparisons of exact doubles — no atan2, whose
    libm rounding isn't pinned across engines — with deterministic tie
    rules (axis-aligned east/west win the corner; zero displacement is
    excluded on both sides).

    Scale shape: one user-keyed exchange (the LAG pattern), vectorized
    octant select per group, 8-row bounded output via `_preagg`."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "user_id", "ts"])

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = _epoch_us(g.ts)
        eid = g.event_id.to_numpy(np.int64)
        order = np.lexsort((eid, us))
        p = _event_points(g.iloc[order])
        dlat = np.diff(p.lat.to_numpy(np.float64))
        dlon = np.diff(p.lon.to_numpy(np.float64))
        lon_major = np.abs(dlon) > np.abs(dlat)
        b = np.select(
            [lon_major & (dlon > 0) & (dlat >= 0),
             lon_major & (dlon > 0) & (dlat < 0),
             lon_major & (dlon < 0) & (dlat >= 0),
             lon_major & (dlon < 0) & (dlat < 0),
             (dlat > 0) & (dlon >= 0),
             (dlat > 0) & (dlon < 0),
             (dlat < 0) & (dlon >= 0),
             (dlat < 0) & (dlon < 0)],
            [0, 1, 2, 3, 4, 5, 6, 7], default=-1)
        b = b[b >= 0]  # zero displacement excluded
        return pd.DataFrame({"octant": b.astype(np.int64)})

    agg = _preagg(ev.groupby("user_id").map_groups(
        per_user, batch_format="pandas"),
        ["octant"], [("n_segments", None, "count")])

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "octant": df.octant.to_numpy(np.int64),
            "n_segments": df.n_segments.to_numpy(np.int64)})

    return agg.map_batches(fin, batch_format="pandas")


def events_gini(sf_dir: str):
    """Gini coefficient of per-user activity (the inequality /
    concentration audit: is the corpus a few power users or a broad
    base?): G = Σ (2i − n − 1)·cᵢ / (n·Σc) over user event-counts cᵢ
    ascending by (count, user_id) — every term an exact Python int (no
    int64 wrap), so both engines divide the same integers (bit-exact
    before round-6). Output one row (n_users, gini).

    Scale shape: the corpus-scale work is ONE `_preagg` to per-user
    counts; the ranked sum runs on that user-bounded census
    driver-side (swap in the ``_bucket_offsets`` ordered scan beyond
    ~10⁷ users — same output, documented boundary)."""
    ev = read_testdata(sf_dir, "events", columns=["user_id"])
    cnt = _preagg(ev, ["user_id"], [("c", None, "count")]).to_pandas()
    c = cnt.sort_values(["c", "user_id"]).c.to_numpy(np.int64).tolist()
    n = len(c)
    # Python ints: (2i − n − 1)·cᵢ and n·Σc wrap int64 on large counts
    num = sum((2 * i - n - 1) * ci for i, ci in enumerate(c, 1))
    den = n * sum(c)
    return pd.DataFrame({"n_users": [np.int64(n)],
                         "gini": [round(float(num) / float(den), 6)]})


def events_pareto_front(sf_dir: str):
    """Pareto-frontier (2-D skyline) extraction: the events not dominated
    in (value, recency) — no other event has BOTH strictly higher value
    AND strictly later timestamp (the multi-objective shortlist primitive:
    'best trade-offs of quality vs freshness'). Deterministic under the
    strict-domination rule; ties on both axes keep both points. Output
    (event_id, value round-6, us).

    Scale shape: the skyline MERGE property (skyline(A ∪ B) =
    skyline(skyline(A) ∪ skyline(B))) makes it an algebraic aggregate:
    per-block vectorized skylines (sort by value desc, keep running-max
    ts breakers) shrink each block to its frontier, ONE coalesced merge
    re-runs the same kernel on the union (frontier-sized, not
    corpus-sized). The SQL oracle is the same sort + running-max window
    — O(n log n), not the naive NOT-EXISTS quadratic."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_id", "ts", "value"])

    def skyline(df: pd.DataFrame) -> pd.DataFrame:
        if "ts" in df.columns:            # first pass: raw rows
            v = np.round(df.value.to_numpy(np.float64), 6)
            us = _epoch_us(df.ts)
        else:                              # merge pass: partial frontiers
            v = df.value.to_numpy(np.float64)
            us = df.us.to_numpy(np.int64)
        eid = df.event_id.to_numpy(np.int64)
        if len(v) == 0:
            return pd.DataFrame({"event_id": eid, "value": v, "us": us})
        # sort by (value DESC, us DESC, eid): a row is on the frontier iff
        # its us strictly exceeds the max us among STRICTLY higher values.
        # Within each distinct-value group (us descending) the group max
        # is the first row; prefix-max over the groups before this one.
        order = np.lexsort((eid, -us, -v))
        v, us, eid = v[order], us[order], eid[order]
        first = np.concatenate([[True], v[1:] != v[:-1]])
        grp = np.cumsum(first) - 1
        gmax = us[np.flatnonzero(first)]          # per-group max us
        lo = np.iinfo(np.int64).min
        before = np.concatenate(
            [[lo], np.maximum.accumulate(gmax)[:-1]])
        keep = us > before[grp]
        return pd.DataFrame({"event_id": eid[keep], "value": v[keep],
                             "us": us[keep]})

    part = ev.map_batches(skyline, batch_format="pandas", batch_size=None)
    merged = part.repartition(1).map_batches(skyline,
                                             batch_format="pandas",
                                             batch_size=None)

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df.event_id.to_numpy(np.int64),
            "value": df.value.to_numpy(np.float64),
            "us": df.us.to_numpy(np.int64)})

    return merged.map_batches(fin, batch_format="pandas")


def events_user_entropy(sf_dir: str):
    """Behavioral entropy per user: Shannon entropy of the user's
    event-type distribution, H = ln(n) − (Σ c·ln c)/n — the bot/script
    detector (near-zero entropy = single-type automation; high =
    organic mix). Logs are SCALAR libm calls on integer counts (the
    doc_tfidf_topterms parity pattern: CPython's math.log and DuckDB's
    ln() resolve to the same libm on a given platform), so both engines
    transform identical integers identically. Output (user_id, n,
    entropy round-6).

    Scale shape: ONE `_preagg` to the (user × type) census; the entropy
    arithmetic runs on that bounded table (types are a small closed set;
    the user dimension streams through the exchange, and the driver-side
    finish swaps for a second user-keyed `_preagg` beyond ~10⁷ users —
    documented boundary)."""
    import math

    ev = read_testdata(sf_dir, "events",
                       columns=["user_id", "event_type"])
    cnt = _preagg(ev, ["user_id", "event_type"],
                  [("c", None, "count")]).to_pandas()
    c = cnt.c.to_numpy(np.int64)
    logs = {int(v): math.log(int(v)) for v in np.unique(c)}
    cnt["cl"] = c * np.array([logs[int(v)] for v in c])
    g = cnt.groupby("user_id", sort=False).agg(
        n=("c", "sum"), s=("cl", "sum")).reset_index()
    n = g.n.to_numpy(np.int64)
    ent = np.array([round(math.log(int(nn)) - ss / nn, 6)
                    for nn, ss in zip(n, g.s.to_numpy(np.float64))])
    return pd.DataFrame({"user_id": g.user_id.to_numpy(np.int64),
                         "n": n, "entropy": ent})


def events_theil_sen(sf_dir: str):
    """Theil–Sen robust trend of the per-type DAILY count series: the
    median of all pairwise slopes (c_j − c_i)/(d_j − d_i), i<j — the
    outlier-immune complement of the Mann-Kendall trend the emerging-
    hotspot analysis uses (MK gives direction significance; Theil–Sen
    gives the magnitude). Every slope is one IEEE divide of exact
    integers — identical multisets both engines — and the median
    midpoint average matches DuckDB's interpolating median. Output
    (event_type, n_pairs, slope round-6).

    Scale shape: ONE `_preagg` to daily counts; the pairwise-slope
    reduction is quadratic in the SPAN (calendar-bounded), never in
    rows, and runs per type on the bounded census."""
    daily = _daily_type_counts(sf_dir)
    rows = []
    for et, g in daily.groupby("event_type", sort=False):
        d = g.dkey.to_numpy(np.int64)
        c = g.c.to_numpy(np.int64)
        o = np.argsort(d)
        d, c = d[o], c[o]
        i, j = np.triu_indices(len(d), k=1)
        if len(i) == 0:
            continue
        slopes = (c[j] - c[i]).astype(np.float64) \
            / (d[j] - d[i]).astype(np.float64)
        rows.append((et, len(i), round(float(np.median(slopes)), 6)))
    return pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                       "slope"]).astype(
        {"n_pairs": np.int64})


def doc_compression_ratio(sf_dir: str, level: int = 6):
    """Compression-ratio quality filter (the Gopher/RefinedWeb-family
    heuristic: highly compressible text = boilerplate/repetition; nearly
    incompressible = noise/binary junk): per doc, zlib ratio
    len(compress(utf8)) / len(utf8) plus the corpus-standard keep flag
    for the healthy band [0.3, 0.9]. zlib at a fixed level is
    deterministic, so output is engine-independent. Empty docs emit
    ratio −1.0 and keep = False.

    Scale shape: embarrassingly parallel map_batches (one C-level
    compress per doc — the codec-loop shape of image_chip_stats), zero
    exchanges. Rows-only vs the driver (no SQL zlib); pinned by a direct
    recompute pytest."""
    import zlib

    docs = read_testdata(sf_dir, "documents", columns=["doc_id", "text"])

    def ratios(df: pd.DataFrame) -> pd.DataFrame:
        ids = df.doc_id.to_numpy()
        out = np.empty(len(ids), dtype=np.float64)
        for k, txt in enumerate(df.text.to_numpy(object)):
            raw = (txt or "").encode("utf-8")
            out[k] = (len(zlib.compress(raw, level)) / len(raw)
                      if raw else -1.0)
        r = np.round(out, 6)
        return pd.DataFrame({
            "doc_id": ids,
            "ratio": r,
            "keep": (r >= 0.3) & (r <= 0.9)})

    return docs.map_batches(ratios, batch_format="pandas")


def events_ks_drift(sf_dir: str, type_a: str = "view",
                    type_b: str = "purchase"):
    """Two-sample Kolmogorov–Smirnov distribution-drift test between two
    event types' value distributions (the monitoring primitive behind
    'did the metric's shape change?'): D = max over the pooled support
    of |F_a − F_b|, with the ARGMAX value reported (smallest value
    attaining D). Values carry two decimals, so the support is a bounded
    census; ECDF steps are exact integer ratios divided identically on
    both engines — the max and its tie-broken argmax are deterministic.
    Output one row (n_a, n_b, ks_d round-6, at_value).

    Scale shape: ONE `_preagg` to the (value, type) census (bounded by
    the distinct-value domain, not rows); the ECDF scan runs on that
    census driver-side (swap for the ``_bucket_offsets`` ordered scan
    beyond ~10⁷ distinct values — documented boundary)."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_type", "value"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        m = df.event_type.isin([type_a, type_b])
        return pd.DataFrame({
            "v": np.round(df.value.to_numpy(np.float64)[m.to_numpy()], 6),
            "t": df.event_type.to_numpy()[m.to_numpy()]})

    cen = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                  ["v", "t"], [("c", None, "count")]).to_pandas()
    piv = cen.pivot_table(index="v", columns="t", values="c",
                          aggfunc="sum", fill_value=0).sort_index()
    ca = piv[type_a].to_numpy(np.int64) if type_a in piv else \
        np.zeros(len(piv), dtype=np.int64)
    cb = piv[type_b].to_numpy(np.int64) if type_b in piv else \
        np.zeros(len(piv), dtype=np.int64)
    na, nb = int(ca.sum()), int(cb.sum())
    if na == 0 or nb == 0:
        return pd.DataFrame({"n_a": pd.Series([], dtype=np.int64),
                             "n_b": pd.Series([], dtype=np.int64),
                             "ks_d": pd.Series([], dtype=np.float64),
                             "at_value": pd.Series([], dtype=np.float64)})
    fa = np.cumsum(ca).astype(np.float64) / float(na)
    fb = np.cumsum(cb).astype(np.float64) / float(nb)
    d = np.abs(fa - fb)
    i = int(np.argmax(d))  # first (= smallest value) argmax
    return pd.DataFrame({
        "n_a": [np.int64(na)], "n_b": [np.int64(nb)],
        "ks_d": [round(float(d[i]), 6)],
        "at_value": [float(piv.index.to_numpy(np.float64)[i])]})


def events_mann_whitney(sf_dir: str, type_a: str = "view",
                        type_b: str = "purchase"):
    """Mann–Whitney U rank-sum test between two event types' value
    distributions (KS's location-shift sibling: 'did the typical value
    move?'): U_a from midrank sums over the pooled census, z-score with
    the tie-correction term. Midranks are (i + j + 1)/2 of exact integer
    cumulative counts and every Σ term stays integer (×2 lifting makes
    midrank sums exact; the sums are Python ints, so no int64 wrap), so
    both engines feed identical integers into the final float expression
    (term-identical, round-6). Output one row (n_a, n_b, u_a, z round-6).

    Scale shape: the events_ks_drift census pattern — ONE `_preagg` to
    the bounded (value, type) table, rank arithmetic on the census."""
    ev = read_testdata(sf_dir, "events",
                       columns=["event_type", "value"])

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        m = df.event_type.isin([type_a, type_b]).to_numpy()
        return pd.DataFrame({
            "v": np.round(df.value.to_numpy(np.float64)[m], 6),
            "t": df.event_type.to_numpy()[m]})

    cen = _preagg(ev.map_batches(keyed, batch_format="pandas"),
                  ["v", "t"], [("c", None, "count")]).to_pandas()
    piv = cen.pivot_table(index="v", columns="t", values="c",
                          aggfunc="sum", fill_value=0).sort_index()
    ca = (piv[type_a].to_numpy(np.int64) if type_a in piv
          else np.zeros(len(piv), dtype=np.int64))
    cb = (piv[type_b].to_numpy(np.int64) if type_b in piv
          else np.zeros(len(piv), dtype=np.int64))
    na, nb = int(ca.sum()), int(cb.sum())
    if na == 0 or nb == 0:
        return pd.DataFrame({"n_a": pd.Series([], dtype=np.int64),
                             "n_b": pd.Series([], dtype=np.int64),
                             "u_a": pd.Series([], dtype=np.float64),
                             "z": pd.Series([], dtype=np.float64)})
    tt = ca + cb
    cum = np.cumsum(tt)
    # 2×midrank of each distinct value = (cum_before + cum) + 1, exact int
    mr2 = (cum - tt) + cum + 1
    # Σ terms in Python ints: mr2·ca and tt³ wrap int64 (tt³ past 2²¹)
    r2a = sum(m * a for m, a in zip(mr2.tolist(), ca.tolist()))
    n = na + nb
    u2a = r2a - na * (na + 1)              # 2 × U_a, exact int
    mu2 = na * nb                          # 2 × E[U]
    tie = sum(t * t * t - t for t in tt.tolist())
    var = (na * nb / 12.0) * ((n + 1) - tie / float(n * (n - 1)))
    z = (u2a - mu2) / (2.0 * np.sqrt(var))
    return pd.DataFrame({
        "n_a": [np.int64(na)], "n_b": [np.int64(nb)],
        "u_a": [u2a / 2.0],
        "z": [round(float(z), 6)]})


def events_runs_test(sf_dir: str):
    """Wald–Wolfowitz runs test on the SIGN of day-over-day changes of
    each type's daily count series (the randomness check behind 'is this
    metric trending or just wiggling?'): runs = 1 + sign changes over
    the zero-skipping up/down sequence, z from the exact integer
    (n_up, n_down, runs) triple. Ordering and counting are pure integer
    — both engines feed the same integers into the term-identical float
    expression. Output (event_type, n_up, n_down, runs, z round-6);
    degenerate series (n_up·n_down = 0) drop on both sides.

    Scale shape: ONE `_preagg` to daily counts; the run scan walks the
    calendar-bounded series."""
    daily = _daily_type_counts(sf_dir)
    rows = []
    for et, g in daily.groupby("event_type", sort=False):
        o = np.argsort(g.dkey.to_numpy(np.int64))
        c = g.c.to_numpy(np.int64)[o]
        sgn = np.sign(np.diff(c))
        sgn = sgn[sgn != 0]                # zero diffs skipped
        n_up = int((sgn > 0).sum())
        n_dn = int((sgn < 0).sum())
        if n_up == 0 or n_dn == 0:
            continue
        runs = 1 + int((sgn[1:] != sgn[:-1]).sum())
        m = n_up + n_dn
        mu = 2.0 * n_up * n_dn / m + 1.0
        var = (2.0 * n_up * n_dn * (2.0 * n_up * n_dn - m)
               / (float(m) * m * (m - 1)))
        z = (runs - mu) / np.sqrt(var)
        rows.append((et, n_up, n_dn, runs, round(float(z), 6)))
    return pd.DataFrame(rows, columns=["event_type", "n_up", "n_down",
                                       "runs", "z"]).astype(
        {"n_up": np.int64, "n_down": np.int64, "runs": np.int64})


def _encode_image_ids(ids: pd.Series) -> np.ndarray:
    """Injective image_id → int64: 'TIFF_<n>' → n·8+5, 'IMG_<a>_<b>' →
    a·8+(b−1) with b ∈ 1..5 — tags 0-4 and 5 are disjoint, so the two
    families never collide. Pure vectorized string splits."""
    parts = ids.str.split("_", expand=True)
    is_img = parts[0].to_numpy() == "IMG"
    p1 = parts[1].astype(np.int64).to_numpy()
    p2 = pd.to_numeric(parts[2], errors="coerce").fillna(0).astype(
        np.int64).to_numpy() if 2 in parts.columns else np.zeros(
        len(ids), dtype=np.int64)
    return np.where(is_img, p1 * 8 + (p2 - 1), p1 * 8 + 5)


def image_mosaic_groups(sf_dir: str):
    """Mosaic/stitch group planning over the enriched corpus: connected
    components of the footprint-overlap graph (image_footprint_overlaps'
    pairs) — each group is one mosaicking unit (the images that share
    ground and must be stitched/blended together; a capture's five bands
    plus any overlapping revisits). Output (image_id, group_id = MIN
    image_id string in the component, is_rep) — the doc_dup_clusters
    shape on the image axis; only images with ≥ 1 overlap appear
    (singletons need no stitching).

    Scale shape: the pair Dataset is materialized once (slim string
    pairs); ids encode to int64 (injective, vectorized) for the generic
    `_cc_label_prop` loop (neighbor-min + pointer jumping: O(log
    diameter) rounds — required here, the overlap graph percolates into
    a 74k-image component at sf0.1);
    the group label maps back to the min STRING id via one `_preagg` +
    two hash joins — so the output is encoding-independent."""

    pairs = image_footprint_overlaps(sf_dir).materialize()
    n_pairs = pairs.count()

    def enc_edges(df: pd.DataFrame) -> pd.DataFrame:
        a = _encode_image_ids(df.img_a)
        b = _encode_image_ids(df.img_b)
        return pd.DataFrame({
            "src": np.concatenate([a, b]),
            "node": np.concatenate([b, a])})

    def enc_nodes(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": np.concatenate([_encode_image_ids(df.img_a),
                                    _encode_image_ids(df.img_b)]),
            "image_id": np.concatenate([df.img_a.to_numpy(object),
                                        df.img_b.to_numpy(object)])})

    edges = pairs.map_batches(enc_edges, batch_format="pandas")
    nodes = _preagg(pairs.map_batches(enc_nodes, batch_format="pandas"),
                    ["node", "image_id"],
                    [("_c", None, "count")]).select_columns(
        ["node", "image_id"]).materialize()
    n_nodes = nodes.count()
    labels = nodes.map_batches(
        lambda df: pd.DataFrame({"node": df.node.to_numpy(np.int64),
                                 "lbl": df.node.to_numpy(np.int64)}),
        batch_format="pandas")
    cc = _cc_label_prop(labels, edges, n_nodes, 2 * n_pairs)
    # component label (int) → min image_id STRING, then back per node
    named = _dsjoin(cc, nodes, on=("node",))
    reps = _preagg(named.select_columns(["lbl", "image_id"]),
                   ["lbl"], [("group_id", "image_id", "min")])
    out = _dsjoin(named.select_columns(["node", "image_id", "lbl"]),
                  reps, on=("lbl",))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "image_id": df.image_id.to_numpy(object),
            "group_id": df.group_id.to_numpy(object),
            "is_rep": df.image_id.to_numpy(object)
            == df.group_id.to_numpy(object)})

    return out.map_batches(fin, batch_format="pandas")


def geo_bivariate_moran(sf_dir: str):
    """BIVARIATE global Moran's I (Anselin et al. 2002; GeoDa's
    "Bivariate Moran") between events.value and the derived co-variable
    y: does HIGH x sit next to HIGH y?

        I_xy = Σᵢ zxᵢ · (syᵢ − kᵢ·ȳ) / (W · σx · σy)

    over the same distance-band weights as the univariate ESDA family.
    Output ONE row (n_points, w_pairs, moran_ixy round-6).

    Scale shape: the _esda_neighbor_stats grid exchange with y as the
    summed neighbor variable (one exchange; candidate pairs stay inside
    one bucket task), per-block partial reduction to (num, W)
    (_esda_cross_sum), plus the O(1) two-variable scalar broadcast."""
    n, ((xbar, vx), (ybar, vy)) = _esda_scalars(sf_dir, ("value", "y"))
    num, w = _esda_cross_sum(sf_dir, "y", xbar, ybar)
    ixy = num / (w * np.sqrt(vx) * np.sqrt(vy))
    return pd.DataFrame({"n_points": np.array([int(n)], dtype=np.int64),
                         "w_pairs": np.array([int(w)], dtype=np.int64),
                         "moran_ixy": np.array([round(ixy, 6)])})


def geo_colocation_quotient(sf_dir: str):
    """Co-location quotient (Leslie & Kronenfeld 2011) between event-type
    categories over the distance-band neighbors: CLQ(A→B) > 1 means
    A-points see MORE B-neighbors than the global B share predicts (the
    categorical sibling of bivariate Moran — "do errors cluster around
    purchases?"):

        CLQ(A→B) = (Σ_{a∈A} nB(a)/k(a) / nA) / (NB' / (N−1))

    with nA = A-points having ≥1 neighbor (zero-neighbor points
    contribute nothing on either engine) and NB' = NB − [A=B] (a point
    is not its own neighbor). Output per ordered (type_a, type_b):
    (type_a, type_b, n_a, clq round-6); per-point fractions are
    identical doubles on both engines, the cross-bucket sum association
    is covered by round-6.

    Scale shape: ONE ESDA grid exchange carrying the category; each
    bucket collapses its per-point neighbor-type fractions to
    types²-bounded partial rows plus per-A contributing counts — no
    pair set, no per-point output; global type counts ride a `_preagg`
    census."""
    ev, ne = _spread_read(sf_dir, "events", ["event_id", "event_type"])
    nbk = _nbuckets(9 * ne, rows_per_bucket=8192, lo=32)
    e2 = np.float64(_ESDA_EPS) * np.float64(_ESDA_EPS)

    def copies(df: pd.DataFrame) -> pd.DataFrame:
        p = _event_points(df)
        lon = p.lon.to_numpy()
        lat = p.lat.to_numpy()
        cx = np.floor((lon - _GRID_LON0) / _ESDA_CELL).astype(np.int64)
        cy = np.floor((lat - _GRID_LAT0) / _ESDA_CELL).astype(np.int64)
        return _grid_copies(cx, cy, {"id": p.event_id.to_numpy(np.int64),
                                     "lon": lon, "lat": lat,
                                     "t": df.event_type.to_numpy(object)},
                            nbk)

    _EMPTY = {"type_a": pd.Series([], dtype=object),
              "type_b": pd.Series([], dtype=object),
              "s": pd.Series([], dtype=np.float64),
              "na": pd.Series([], dtype=np.int64)}

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        m = _band_pairs(g, ["id", "lon", "lat", "t"], e2)
        if len(m) == 0:
            return pd.DataFrame(_EMPTY)
        k = m.groupby("id_a", sort=False).id_b.transform("size") \
            .to_numpy(np.float64)
        m = m.assign(frac=1.0 / k)
        ab = (m.groupby(["t_a", "t_b"], sort=False).frac.sum()
              .reset_index())
        na = (m.drop_duplicates("id_a").groupby("t_a", sort=False)
              .id_a.size().reset_index(name="na"))
        return pd.DataFrame({
            "type_a": np.concatenate([ab.t_a.to_numpy(object),
                                      na.t_a.to_numpy(object)]),
            "type_b": np.concatenate([ab.t_b.to_numpy(object),
                                      np.full(len(na), "", dtype=object)]),
            "s": np.concatenate([ab.frac.to_numpy(np.float64),
                                 np.zeros(len(na))]),
            "na": np.concatenate([np.zeros(len(ab), dtype=np.int64),
                                  na.na.to_numpy(np.int64)])})

    part = (ev.map_batches(copies, batch_format="pandas")
            .groupby("bk").map_groups(partial, batch_format="pandas")
            .to_pandas())
    counts = _preagg(read_testdata(sf_dir, "events",
                                   columns=["event_type"]),
                     ["event_type"], [("n", None, "count")]).to_pandas()
    ntot = int(counts.n.sum())
    nty = dict(zip(counts.event_type, counts.n))
    na_map = (part[part.type_b == ""].groupby("type_a").na.sum())
    ab = (part[part.type_b != ""].groupby(["type_a", "type_b"]).s.sum())
    rows = []
    for (ta, tb), ssum in sorted(ab.items()):
        n_a = int(na_map[ta])
        nb_eff = int(nty[tb]) - (1 if ta == tb else 0)
        clq = (float(ssum) / n_a) / (nb_eff / (ntot - 1.0))
        rows.append((ta, tb, n_a, round(clq, 6)))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "n_a",
                                       "clq"]).astype({"n_a": np.int64})


def audio_segments(sf_dir: str):
    """Energy-based activity segmentation over the synthetic audio table
    (stages.multimodal.AudioSegment — the VAD primitive before
    transcription/chunking): per clip, 20 ms-frame RMS thresholded at
    0.5× clip RMS, consecutive active frames merged; output
    (audio_id, decode_ok, n_segments, active_s, longest_s,
    active_ratio). Rows-only for the driver (bytes not SQL-decodable);
    closed-form crafted-clip pytest pins the kernel.

    Scale shape: autoscaling actor-pool map_batches, zero exchanges —
    the audio_stats shape with a segmentation kernel."""
    import ray.data as rd

    from ..stages.multimodal import AudioSegment

    audio_dir = synth.ensure_audio(synth.sf_from_dir(sf_dir))
    ds = rd.read_parquet(audio_dir, columns=["audio_id", "bytes"])
    # autoscaling (1, N) actor pool — the audio_stats_dataset idiom (a
    # fixed pool starves the upstream read on small sessions)
    return ds.map_batches(AudioSegment, batch_format="pandas",
                          batch_size=256, concurrency=(1, 4), num_cpus=1)


def events_lorenz_deciles(sf_dir: str):
    """Lorenz curve of per-user activity at decile resolution — the
    curve behind events_gini (what share of all events do the bottom
    10%/20%/.../100% of users generate): users ascending by (count,
    user_id), decile boundary at ceil(k·n/10) users (SQL NTILE-free
    integer rule), cumulative event share as one exact-integer divide
    per decile. Output (decile, n_users, cum_events, cum_share round-6).

    Scale shape: ONE `_preagg` to the per-user census; the ranked
    partial sums run on that bounded table driver-side (same documented
    two-phase upgrade boundary as events_gini)."""
    ev = read_testdata(sf_dir, "events", columns=["user_id"])
    cnt = _preagg(ev, ["user_id"], [("c", None, "count")]).to_pandas()
    cnt = cnt.sort_values(["c", "user_id"]).reset_index(drop=True)
    c = cnt.c.to_numpy(np.int64)
    n = len(c)
    tot = int(c.sum())
    cum = np.cumsum(c)
    rows = []
    for k in range(1, 11):
        nk = (k * n + 9) // 10  # ceil(k*n/10), positive-int form (the
        # -(-x//10) idiom differs between Python floor and DuckDB
        # truncating division on the negative operand)
        ce = int(cum[nk - 1]) if nk > 0 else 0
        rows.append((k, nk, ce, round(ce / tot, 6)))
    return pd.DataFrame(rows, columns=["decile", "n_users", "cum_events",
                                       "cum_share"]).astype(
        {"decile": np.int64, "n_users": np.int64, "cum_events": np.int64})
