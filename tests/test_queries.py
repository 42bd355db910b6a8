"""Driver-gate pre-flight: every oracle-backed queries() entry must match its
DuckDB oracle at sf0.001 (schema + rows + order-insensitive values) — the
same compare the driver performs at sf0.01."""

import os
import sys

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def gate():
    import os

    import duckdb

    import __ray_entry__ as entrymod

    os.environ["GRAFT_ORACLE_SF"] = "0.001"  # tests compare at sf0.001
    con = duckdb.connect()
    sf_dir = "/root/testdata/sf0.001"
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")
    return entrymod, con, sf_dir


ORACLED = ["q1_pricing_summary", "q3_shipping_priority", "q5_regional_revenue",
           "orders_per_segment", "top10_customers", "part_brand_stats",
           "supplier_nation_balance", "events_hourly", "events_user_daily",
           "events_top_values", "events_type_minmax", "doc_exact_dedup",
           "doc_token_counts", "doc_quality_counts", "doc_lang_stats",
           "doc_source_stats", "ann_topk_cosine", "embedding_label_stats",
           "geo_tile_census", "geo_knn_station", "geo_point_in_rect",
           # round 2: near-dup self-join + heuristic scoring + oracles over
           # the materialized flagship output
           "embedding_near_dup", "doc_quality_scores",
           "file_class_counts", "gps_export", "validation_report",
           "image_exact_dedup", "enriched_daily_stats", "band_stats_by_class",
           # round 2b: quarantine + ops metrics + flagship projections
           "quarantine_report", "ops_stats",
           "flagship_enriched", "flagship_captures",
           # round 2c: streaming-window operators (sessionize / as-of +
           # range join / ordered per-key window / distributed top-k per
           # group), all integer-only or order-insensitive → bit-exact SQL
           "events_sessionize", "events_asof_purchase",
           "events_rolling_max", "events_topk_per_type",
           # round 2c: exact trigram-Jaccard join recomputed entirely in SQL
           "doc_ngram_jaccard_pairs",
           # round 2c: EXISTS semi-join + broadcast dimension join
           "q4_priority_semijoin", "q14_promo_revenue",
           # round 2c: deterministic hash train/val/test split
           "doc_train_split",
           # round 2d: Gopher-style repetition filter, corpus vocab build,
           # PII scrub (regex plumbing; semantics pinned in test_text.py)
           "doc_repetition_stats", "doc_vocab_topk", "doc_pii_scrub",
           # round 2d: distributed k-NN join (per-query partial top-k)
           "ann_knn_join",
           # round 2d: exact distinct-per-group (HLL's exact companion)
           "events_distinct_users",
           # round 2d: snapshot compaction (latest row per key)
           "events_latest_per_user",
           # round 2d: BM25 relevance (two-pass broadcast; rational IDF)
           "doc_bm25_scores",
           # round 2e: connected-components near-dup cluster resolution
           # (distributed hash-min label propagation vs recursive-CTE SQL)
           "doc_dup_clusters",
           # round 2e: exact per-group percentiles + cross-modal caption dedup
           "events_value_percentiles", "caption_exact_dedup",
           # round 2f: HAVING-join, distributed anti-join, multi-moment
           # correlation aggregate, ROLLUP grouping sets, conditional-agg pivot
           "q18_large_orders", "customers_inactive_1997",
           "lineitem_corr_stats", "events_rollup", "events_pivot",
           # round 2f: sliding windows, certified-exact MG heavy hitters,
           # bloom-pruned semi-join (all exact despite the sketch stages)
           "events_sliding_window", "doc_vocab_topk_mg", "q4_bloom_semijoin",
           # round 2f: per-row window functions (LAG gap, CUME_DIST)
           "events_user_lag", "events_value_cume_dist",
           # round 2f: deterministic stratified sampling + user-set ops
           "events_stratified_sample", "events_user_setops",
           # round 2f: z-score outlier filter (two-pass broadcast stats)
           "events_zscore_outliers",
           # round 2g: TPC-H join breadth — two-nation cross join, market
           # share, profit-by-nation, returned-items top-k, LEFT OUTER
           # distribution, two-level distinct counts, correlated-avg join,
           # disjunctive fact⋈dim hash join, windowed anti-join report
           "q7_volume_shipping", "q8_market_share", "q9_profit_by_nation",
           "q10_returned_items", "q13_customer_distribution",
           "q16_supplier_part_counts", "q17_small_quantity_revenue",
           "q19_disjunctive_revenue", "q22_idle_customers",
           # round 2g: FULL OUTER reconciliation + unigram-LM cross-entropy
           # (perplexity-filter analogue)
           "events_purchase_error_matrix", "doc_unigram_xent",
           # round 2g: JSON props extraction + per-source token-budget mix
           "events_props_stats", "doc_source_token_budget",
           # round 2g: uniform sampling over a join, pushed below the FK
           # join (Reservoir Sampling over Joins, SIGMOD'24 — PAPERS.md)
           "sample_join_uniform",
           # round 2g: spatial distance self-join (cell-bucket range join
           # with 3x3 ghost replication; integer metric -> bit-exact SQL)
           "geo_distance_join",
           # round 2g: Efraimidis-Spirakis weighted sampling (bit-exact pow)
           "sample_weighted",
           # round 2g: sample-based GROUP BY estimation audit (CIDR'19)
           "events_groupby_estimate",
           # round 2g: Q15 max-over-aggregate + native LEFT SEMI join
           "q15_top_supplier", "suppliers_with_returns",
           # round 2h: Q12 conditional-count join, Q21 double-correlated
           # EXISTS/NOT EXISTS, CUBE grouping sets, two-pass higher moments
           # (skew/kurtosis), exact per-group median absolute deviation
           "q12_priority_by_status", "q21_waiting_suppliers",
           "events_cube", "events_skewkurt", "events_value_mad",
           # round 2h: interval (band) self-join with overlap multiplicity,
           # NTILE window bucketing
           "events_interval_join", "events_ntile",
           # round 2h: zonal stats per land-cover class over the J2 join
           "zonal_stats_landcover",
           # round 2h: equal-width histogram (A5 family, SQL-exact bins)
           "events_value_histogram",
           # round 3: reference CLI positional set discovery
           "micasense_sets",
           # round 3: LAG growth over a monthly aggregate; daily cohort
           # retention (distinct-pair self-join on day+1)
           "orders_monthly_growth", "events_user_retention",
           # round 3: TPC-H q2/q11/q20 over the arithmetic-derived partsupp
           "q2_min_cost_supplier", "q11_important_stock",
           "q20_excess_stock",
           # round 3: end-to-end curation composite
           "doc_curation_pipeline",
           # round 3: FIRST_VALUE / LAST_VALUE window pair per user
           "events_first_last_value",
           # round 4: span-level exact dedup (Lee et al. 2022 semantics) and
           # keep-best-per-near-dup-cluster curation
           "doc_substring_dup_spans", "doc_neardup_keep_best",
           # round 4: partitioned (both-sides-large) spatial joins — PBSM
           # grid exchanges vs DuckDB banded equi-joins, bit-exact
           "geo_range_join", "geo_near_pairs", "geo_bbox_overlap_pairs",
           # round 4d: ESDA spatial statistics (Gi* hotspots / local
           # Moran LISA / global Moran's I) over the distance-band weights
           "geo_getis_hotspots", "geo_local_moran", "geo_moran_i",
           # round 4d: focal 3x3 density smoothing + Markov transition matrix
           "geo_grid_density_smooth", "events_markov_transitions",
           # round 4d: per-user trajectory statistics (LAG + IEEE-exact
           # sqrt step lengths)
           "geo_user_paths",
           # round 4d: space-time Mann-Kendall emerging hotspots
           # (integer-only)
           "geo_emerging_hotspots",
           # round 4d: CUSUM change point (bit-identical left-to-right
           # cumulation both engines)
           "events_cusum_changepoint",
           # round 4: span-REMOVAL accounting (interval union per doc)
           "doc_substring_dedup_tokens",
           # round 4: radius-bounded kNN join + per-doc TF-IDF top terms
           "geo_knn_join", "doc_tfidf_topterms",
           # round 4: sequence packing via distributed global prefix-sum
           "doc_pack_chunks",
           # round 4: training-chip enumeration + PMI collocations
           "image_tile_chips", "doc_bigram_pmi",
           # round 4: conversion funnel + inverted-index build
           "events_funnel", "doc_inverted_index",
           # round 4: OHLC bars (argmin/argmax-carrying combiner) and
           # market-basket pair mining
           "events_ohlc_bars", "market_basket_pairs",
           # round 4: distributed triangle counting (wedge-closure)
           "graph_triangles",
           # round 4: footprint-overlap self-join over the enriched corpus
           "image_footprint_overlaps",
           # round 4: distributed rank/percentile transform (bucket prefix)
           "events_global_rank",
           # round 4: nearest-event temporal join (1-D PBSM band join)
           "events_nearest_error",
           # round 4: benchmark decontamination (gram semi-join)
           "doc_decontaminate",
           # round 4b: fixed-iteration PageRank (iterative fixed-point
           # class; unrolled-CTE SQL) + CDC-style snapshot diff
           "graph_pagerank", "snapshot_diff",
           # round 4b: SymSpell deletion-neighborhood fuzzy self-join
           "image_id_fuzzy_neighbors",
           # round 4b: dataset profiling audit (per-column nulls +
           # exact distincts, all columns through ONE exchange)
           "events_table_profile",
           # round 5: temporal/spatial analytics tier (seasonality,
           # Benford audit, trajectory speed, OD flows, daily ACF) +
           # the r4d station-coverage field registered in r5
           "events_seasonality", "events_benford", "geo_speed_outliers",
           "geo_od_matrix", "events_autocorr_daily",
           "geo_ripley_k", "geo_nearest_neighbor_stats",
           "geo_quadtree_tiles", "geo_direction_rose", "events_gini",
           "events_pareto_front", "events_user_entropy",
           "events_theil_sen", "events_ks_drift",
           "events_mann_whitney", "events_runs_test",
           "image_mosaic_groups", "geo_bivariate_moran",
           "geo_colocation_quotient", "events_lorenz_deciles",
           "geo_station_coverage",
           # two-phase ordered scans: seeded shuffle rank and the weighted
           # mixture interleave (two chained scans)
           "doc_shuffle_positions", "doc_mixture_order"]

ROWS_ONLY = ["image_chip_stats",
             "ann_pq_topk",
             "doc_fingerprints", "dedup_minhash_docs", "dedup_simhash_docs",
             "dedup_simhash_pairs", "thumbnails", "events_hll_users",
             "audio_stats", "video_frame_sample", "ann_lsh_topk",
             "events_value_percentiles_tdigest", "image_phash_near_dup",
             # round 3: visualizer parity (PNG bytes, no SQL analogue;
             # pixel-level correctness pinned by tests/test_viz.py)
             "index_visualizations", "band_histograms",
             # round 3: k-means cluster stats (heuristic float geometry;
             # brute-force oracle in test_ann_multimodal::TestKmeansQuery)
             "embedding_kmeans",
             # round 4: corpus location-map PNG (pixel-level correctness
             # pinned by tests/test_viz.py::TestLocationMap)
             "location_map",
             # round 4: SemDeDup semantic dedup (cluster geometry; brute-
             # force oracle in test_ann_multimodal::TestSemanticDedup)
             "embedding_semantic_dedup",
             # round 5: duplicate-chip detection (bytes not SQL-decodable;
             # brute-force oracle in test_duplicate_tiles_brute_force)
             "image_duplicate_tiles",
             # round 5: zlib quality filter (no SQL zlib; direct-recompute
             # oracle in test_compression_ratio_recompute)
             "doc_compression_ratio",
             # round 5: VAD segmentation (crafted-clip closed forms in
             # test_ann_multimodal::TestAudioSegment)
             "audio_segments"]


@pytest.mark.parametrize("name", ORACLED)
def test_oracle_match(gate, name):
    from tools.minidriver import compare, to_pandas

    entrymod, con, sf_dir = gate
    ray_df = to_pandas(entrymod.queries()[name](sf_dir))
    sql_df = con.sql(entrymod.oracle_sql()[name]).df()
    err = compare(name, ray_df, sql_df)
    assert err is None, err


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_runs(gate, name):
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    df = to_pandas(entrymod.queries()[name](sf_dir))
    assert len(df) >= 0 and len(df.columns) > 0


def test_dup_clusters_match_union_find(gate):
    """doc_dup_clusters == brute-force union-find over the verified pair set
    (independent of the SQL oracle's transitive-closure formulation)."""
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    q = entrymod.queries()
    pairs = to_pandas(q["doc_ngram_jaccard_pairs"](sf_dir))
    clusters = to_pandas(q["doc_dup_clusters"](sf_dir))

    parent = {int(d): int(d) for d in clusters.doc_id}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs.doc_a, pairs.doc_b):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # canonicalize to min-id roots (find compresses to the min because
    # unions always attach the larger root under the smaller)
    expect = {d: find(d) for d in parent}
    got = dict(zip(clusters.doc_id.astype(int), clusters.cluster_id.astype(int)))
    assert got == expect
    assert bool((clusters.is_rep == (clusters.doc_id == clusters.cluster_id)).all())


def test_cc_loop_keeps_recursion_limit(gate):
    """The connected-components loop (_cc_label_prop) runs within CPython's
    default 1000-frame limit and leaves the process-wide limit as it found
    it: the per-round lineage cut keeps every round's plan shallow."""
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    prev = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        clusters = to_pandas(entrymod.queries()["doc_dup_clusters"](sf_dir))
        assert (clusters.doc_id != clusters.cluster_id).any()  # loop ran
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(prev)


def test_px_histogram_matches_brute_force(gate):
    """px_histogram (distributed np.histogram partials + Sum merge) ==
    single-process histogram over every decoded image at sf0.001."""
    import numpy as np
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.functions import codec as C
    from tiff_enrichment_pipeline_ray.sources import synth
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    got = to_pandas(entrymod.queries()["px_histogram"](sf_dir)) \
        .sort_values("bin").reset_index(drop=True)

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    expect = np.zeros(256, dtype=np.int64)
    for blob in pq.read_table(img_dir, columns=["bytes"]).column("bytes").to_pylist():
        px = C.decode_pixels_only(blob)
        if px is not None:
            expect += np.histogram(px, bins=256, range=(0, 65536))[0]
    assert got.bin.tolist() == list(range(256))
    assert np.array_equal(got["count"].to_numpy(dtype=np.int64), expect)


def test_oracle_keys_subset_of_queries(gate):
    entrymod, _, _ = gate
    q = set(entrymod.queries())
    o = set(entrymod.oracle_sql())
    assert o <= q, o - q


class TestPreaggSpec:
    """_preagg's arrow partial names pyarrow's output columns back by
    (src, op), so a spec that repeats a pair or carries two COUNT(*)
    entries must fail loudly instead of mislabeling aggregates."""

    @staticmethod
    def _ds():
        import pandas as pd
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {"k": [1, 1, 2], "x": [1.0, 2.0, 3.0]}))

    @pytest.mark.parametrize("spec", [
        [("s1", "x", "sum"), ("s2", "x", "sum")],
        [("n1", None, "count"), ("n2", None, "count")],
    ], ids=["same_src_op", "two_count_all"])
    def test_duplicate_spec_rejected(self, spec):
        from tiff_enrichment_pipeline_ray.pipelines.queries import _preagg

        with pytest.raises(AssertionError):
            _preagg(self._ds(), ["k"], spec).to_pandas()

    def test_distinct_spec_aggregates(self):
        from tiff_enrichment_pipeline_ray.pipelines.queries import _preagg

        spec = [("s", "x", "sum"), ("mx", "x", "max"),
                ("n", None, "count"), ("nx", "x", "count")]
        got = _preagg(self._ds(), ["k"], spec).to_pandas().sort_values("k")
        assert got[["k", "s", "mx", "n", "nx"]].values.tolist() == \
            [[1, 3.0, 2.0, 2, 2], [2, 3.0, 3.0, 1, 1]]


_JOIN_TYPES = ("inner", "left_outer", "full_outer", "left_semi", "left_anti")


class TestJoin:
    """``_dsjoin`` on the bucket exchange. Both sides have fewer distinct
    keys than the four buckets of the test session, so each side leaves
    some bucket without rows; each side that has rows still sends every
    bucket a zero-row piece carrying its schema. Stock ``Dataset.join``
    raises (``ArrowInvalid``, or ``KeyError`` for ``full_outer``) for
    every join type when a side's first block has zero rows."""

    @staticmethod
    def _frames():
        import pandas as pd

        return (pd.DataFrame({"k": [1, 2, 3], "a": [10.0, 20.0, 30.0]}),
                pd.DataFrame({"k": [2, 3, 4, 4], "b": ["x", "y", "z", "w"]}))

    def _mk(self):
        import ray.data as rd

        lf, rf = self._frames()
        return (rd.from_pandas(lf).repartition(3),
                rd.from_pandas(rf).repartition(3))

    @staticmethod
    def _run(left, right, how):
        import pyarrow as pa
        import ray

        from tiff_enrichment_pipeline_ray.pipelines.queries import _dsjoin

        refs = _dsjoin(left, right, on=("k",), join_type=how).to_arrow_refs()
        blocks = [b for b in ray.get(refs) if b.num_columns]
        t = (pa.concat_tables(blocks, promote_options="permissive")
             if blocks else pa.table({}))
        return t, t.to_pandas()

    def _join(self, left, right, how):
        return self._run(left, right, how)[1]

    def test_inner_sparse_sides(self):
        df = self._join(*self._mk(), "inner").sort_values(
            ["k", "b"]).reset_index(drop=True)
        assert df.k.tolist() == [2, 3]
        assert df.a.tolist() == [20.0, 30.0]
        assert df.b.tolist() == ["x", "y"]

    def test_left_anti_sparse_sides(self):
        df = self._join(*self._mk(), "left_anti")
        assert df.k.tolist() == [1] and df.a.tolist() == [10.0]
        assert list(df.columns) == ["k", "a"]  # anti output = left schema

    def test_left_semi_sparse_sides(self):
        df = self._join(*self._mk(), "left_semi").sort_values("k")
        assert df.k.tolist() == [2, 3]
        assert list(df.columns) == ["k", "a"]

    def test_left_outer_sparse_sides(self):
        """Key 1 has no right row: its ``b`` is a null of the right
        side's string type, not an untyped column."""
        t, df = self._run(*self._mk(), "left_outer")
        assert t.schema.field("b").type == "string"
        df = df.sort_values("k").reset_index(drop=True)
        assert df.k.tolist() == [1, 2, 3]
        assert df.a.tolist() == [10.0, 20.0, 30.0]
        assert df.b.tolist() == [None, "x", "y"]

    def test_full_outer_sparse_sides(self):
        t, df = self._run(*self._mk(), "full_outer")
        assert t.schema.field("a").type == "double"
        assert t.schema.field("b").type == "string"
        df = df.sort_values(["k", "b"], na_position="first") \
            .reset_index(drop=True)
        assert df.k.tolist() == [1, 2, 3, 4, 4]
        assert df.a.tolist()[:3] == [10.0, 20.0, 30.0]
        assert df.a.isna().tolist() == [False] * 3 + [True] * 2
        assert df.b.tolist() == [None, "x", "y", "w", "z"]

    @pytest.mark.parametrize("how", _JOIN_TYPES)
    @pytest.mark.parametrize("empty_first", ["left", "right"])
    def test_zero_row_first_block(self, how, empty_first):
        """A side whose first block has zero rows joins like the same
        side without that block."""
        import pandas as pd
        import ray.data as rd

        lf, rf = self._frames()
        frames = {"left": [lf], "right": [rf]}
        frames[empty_first].insert(0, frames[empty_first][0].iloc[:0])
        got = self._join(rd.from_pandas(frames["left"]),
                         rd.from_pandas(frames["right"]), how)
        want = self._join(*self._mk(), how)
        cols = list(want.columns)
        assert list(got.columns) == cols
        pd.testing.assert_frame_equal(
            got.sort_values(cols).reset_index(drop=True),
            want.sort_values(cols).reset_index(drop=True))

    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_side_empty_everywhere(self, empty_side):
        """No piece reaches any bucket from a side without rows: anti
        keeps the left rows, semi and inner give none, outer raises."""
        import ray.data as rd

        lf, rf = self._frames()
        frames = {"left": lf, "right": rf}
        frames[empty_side] = frames[empty_side].iloc[:0]
        left, right = (rd.from_pandas(frames[s]) for s in ("left", "right"))
        anti = self._join(left, right, "left_anti")
        if empty_side == "left":
            assert len(anti) == 0
        else:
            assert sorted(anti.k.tolist()) == [1, 2, 3]
        for how in ("left_semi", "inner"):
            assert len(self._join(left, right, how)) == 0
        for how in ("left_outer", "full_outer"):
            with pytest.raises(Exception, match=how):
                self._join(left, right, how)

    def test_chained_join_through_empty_partitions(self):
        """A join's zero-row bucket outputs feed a SECOND exchange (the
        q18 shape: sparse aggregate ⋈ fact ⋈ dimension)."""
        import pandas as pd
        import ray.data as rd

        from tiff_enrichment_pipeline_ray.pipelines.queries import _dsjoin

        left, right = self._mk()
        j1 = _dsjoin(left, right, on=("k",))
        dim = rd.from_pandas(pd.DataFrame(
            {"b": ["x", "y"], "name": ["ex", "why"]}))
        j2 = _dsjoin(j1, dim, on=("b",))
        df = j2.to_pandas().sort_values("k").reset_index(drop=True)
        assert df.k.tolist() == [2, 3]
        assert df.name.tolist() == ["ex", "why"]


# Join queries covering every join type the registry uses: chained joins
# (q18), four joins with a left_outer (q8), left_outer (q13), full_outer
# (events_purchase_error_matrix), left_anti against a side that is empty at
# sf0.001 (q16) and left_semi (q4).
_JOIN_QUERIES = ["q18_large_orders", "q8_market_share",
                 "q13_customer_distribution", "events_purchase_error_matrix",
                 "q16_supplier_part_counts", "q4_priority_semijoin"]


@pytest.mark.parametrize("name", _JOIN_QUERIES)
def test_join_query_without_dataset_join(gate, name, monkeypatch):
    """The join queries match their oracle hash-exactly while
    ``Dataset.join`` raises: every join runs on the bucket exchange."""
    import ray.data

    from tools.minidriver import compare, to_pandas

    def no_join(self, *a, **kw):
        raise AssertionError("Dataset.join called")

    monkeypatch.setattr(ray.data.Dataset, "join", no_join)
    entrymod, con, sf_dir = gate
    ray_df = to_pandas(entrymod.queries()[name](sf_dir))
    sql_df = con.sql(entrymod.oracle_sql()[name]).df()
    err = compare(name, ray_df, sql_df, exact=True)
    assert err is None, err


def test_tdigest_percentiles_near_exact(gate):
    """The t-digest query's per-group percentiles must rank-match the exact
    events_value_percentiles within the sketch's documented error."""
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    q = entrymod.queries()
    exact = to_pandas(q["events_value_percentiles"](sf_dir)) \
        .set_index("event_type").sort_index()
    approx = to_pandas(q["events_value_percentiles_tdigest"](sf_dir)) \
        .set_index("event_type").sort_index()
    assert list(exact.index) == list(approx.index)
    assert (exact.n == approx.n).all()
    # value-space tolerance: within 2% of the group's IQR per percentile
    for col in ("p25", "p50", "p75"):
        iqr = (exact.p75 - exact.p25).to_numpy()
        err = np.abs(exact[col].to_numpy() - approx[col].to_numpy())
        assert (err <= 0.02 * iqr + 1e-9).all(), (col, err / iqr)


def test_image_phash_near_dup_matches_brute_force(gate):
    """Banded-bucket pHash pair join == brute-force all-pairs popcount at
    sf0.001 (banding is lossless for d ≤ 3 by pigeonhole)."""
    import glob

    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines.queries import _flagship_out
    from tiff_enrichment_pipeline_ray.sources import synth
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    got = to_pandas(entrymod.queries()["image_phash_near_dup"](sf_dir))
    got_set = {(a, b, int(h))
               for a, b, h in zip(got.img_a, got.img_b, got.hamming)}

    out = _flagship_out(synth.sf_from_dir(sf_dir))
    files = sorted(glob.glob(f"{out}/enriched/**/*.parquet", recursive=True))
    t = pq.read_table(files, columns=["image_id", "phash", "decode_ok"])
    df = t.to_pandas()
    df = df[df.decode_ok].drop_duplicates("image_id").sort_values("image_id")
    ids = df.image_id.to_numpy()
    hs = df.phash.to_numpy(np.int64).astype(np.uint64)
    expect = set()
    for i in range(len(ids)):
        x = (hs[i] ^ hs[i + 1:]).astype(np.uint64)
        # vectorized popcount via byte view
        d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                          axis=1).sum(axis=1)
        for j in np.flatnonzero(d <= 3):
            a, b = ids[i], ids[i + 1 + j]
            expect.add((min(a, b), max(a, b), int(d[j])))
    assert got_set == expect
    assert len(expect) > 0  # fixture has exact-duplicate images (d = 0)


def test_degenerate_distributions_guarded(gate, tmp_path):
    """ADVICE regression (round 2): a constant-value events table must not
    silently diverge — histogram w == 0 puts everything in bin 0 on BOTH
    engines; a zero-variance group makes skew/kurt NULL/NaN explicitly on
    BOTH engines (no divide-by-zero representation roulette)."""
    import duckdb
    import pandas as pd

    from tiff_enrichment_pipeline_ray.pipelines import oracles as O
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import to_pandas

    n = 500
    df = pd.DataFrame({
        "event_id": range(n),
        "ts": pd.to_datetime("2024-03-01") + pd.to_timedelta(range(n), "min"),
        "user_id": [i % 7 for i in range(n)],
        # 'click' is constant-valued (zero variance); 'view' varies
        "event_type": ["click" if i % 2 else "view" for i in range(n)],
        "value": [42.0 if i % 2 else float(i) for i in range(n)],
        "props": ["{}"] * n,
    })
    sf_dir = str(tmp_path)
    df.to_parquet(tmp_path / "events.parquet", index=False)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf_dir}/events.parquet')")

    sk = to_pandas(Q.events_skewkurt(sf_dir)).reset_index(drop=True)
    sk_sql = con.sql(O.ORACLES["events_skewkurt"]).df()
    assert sk.event_type.tolist() == sk_sql.event_type.tolist()
    click = sk[sk.event_type == "click"].iloc[0]
    assert np.isnan(click.skew_pop) and np.isnan(click.kurt_excess)
    assert sk_sql[sk_sql.event_type == "click"].skew_pop.isna().all()
    view = sk[sk.event_type == "view"]
    vs = sk_sql[sk_sql.event_type == "view"]
    assert view.skew_pop.iloc[0] == vs.skew_pop.iloc[0]
    assert view.kurt_excess.iloc[0] == vs.kurt_excess.iloc[0]

    # all-constant table → histogram degenerate range
    df2 = df.assign(value=7.5)
    df2.to_parquet(tmp_path / "events.parquet", index=False)
    hist = to_pandas(Q.events_value_histogram(sf_dir))
    con2 = duckdb.connect()
    con2.sql(f"CREATE VIEW events AS SELECT * FROM "
             f"read_parquet('{sf_dir}/events.parquet')")
    hist_sql = con2.sql(O.ORACLES["events_value_histogram"]).df()
    assert hist.bin.tolist() == [0] and hist_sql.bin.tolist() == [0]
    assert hist.n.iloc[0] == n == hist_sql.n.iloc[0]
    assert hist.bin_lo.iloc[0] == 7.5 == hist_sql.bin_lo.iloc[0]


def test_substring_dup_spans_boundary_mask(tmp_path):
    """Adversarial parity for doc_substring_dup_spans: windows must NEVER
    cross doc boundaries (the flat token array concatenates docs), empty
    texts and multi-space runs must tokenize exactly like the SQL
    (split-on-single-space), and same-doc-only repeats must NOT count as
    duplicated. Ground truth = the same DuckDB oracle on a crafted table."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    w8 = " ".join(f"t{i}" for i in range(8))        # one 8-token window
    docs = pd.DataFrame({
        "doc_id": range(7),
        "text": [
            # doc 0 ends with the first 4 tokens, doc 1 begins with the last
            # 4 — the window exists ONLY across the boundary; must not count
            "x0 x1 x2 x3 t0 t1 t2 t3",
            "t4 t5 t6 t7 y0 y1 y2 y3",
            w8,                                      # dup pair (docs 2, 3)
            "lead " + w8 + " tail",
            w8 + " " + w8,       # same window repeated IN ONE DOC only...
            "",                                      # empty text
            "a  b c",                                # double space -> '' token
        ],
    })
    # ...plus doc 4's window also in docs 2/3 -> its repeats DO count (cross
    # -doc), and its count is 2 (both positions of the duplicated gram)
    sf = tmp_path / "sfX"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (Q.doc_substring_dup_spans(str(sf)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_substring_dup_spans"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    # the boundary window did not fire; the single-doc repeat alone did not
    # either (docs 0/1 clean), but doc 4 counts BOTH its positions because
    # docs 2/3 share the gram
    assert got.n_dup_spans.tolist()[:2] == [0, 0]
    assert got.loc[4, "n_dup_spans"] == 2
    assert got.loc[2, "n_dup_spans"] == 1 and got.loc[3, "n_dup_spans"] == 1


def test_substring_dedup_tokens_interval_union(tmp_path):
    """Adversarial coverage semantics for doc_substring_dedup_tokens:
    OVERLAPPING dup windows must union (not double-count) their token
    positions; adjacent same-gram repeats cover their concatenation; the
    cross-doc-boundary window must not fire. Ground truth = the DuckDB
    oracle on a crafted table plus hand-computed coverage."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    w8 = " ".join(f"t{i}" for i in range(8))
    a9 = " ".join(f"a{i}" for i in range(9))  # 2 overlapping dup windows
    docs = pd.DataFrame({
        "doc_id": range(7),
        "text": [
            "x0 x1 x2 x3 t0 t1 t2 t3",       # boundary halves: no dup
            "t4 t5 t6 t7 y0 y1 y2 y3",
            w8,                               # fully covered (8/8)
            "lead " + w8 + " tail",           # covered 8 of 10
            w8 + " " + w8,                    # two disjoint windows: 16/16
            a9,                               # overlapping windows: 9, not 16
            a9 + " tail0 tail1",              # same grams, 9 of 11 covered
        ],
    })
    sf = tmp_path / "sfY"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (Q.doc_substring_dedup_tokens(str(sf)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_substring_dedup_tokens"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert got.n_dup_tokens.tolist() == [0, 0, 8, 8, 16, 9, 9]
    assert got.keep_frac.tolist()[:3] == [1.0, 1.0, 0.0]


def test_tfidf_topterms_exact_tie_and_empty(tmp_path):
    """Adversarial TF-IDF parity: doc0 holds a MATHEMATICALLY exact score
    tie (2*ln(N/2) vs 1*ln(N/1) with N=4) that must resolve by the term
    tie-break identically in both engines; doc3 is the empty-text token;
    doc2 has more distinct terms than k so the rnk<=5 cut is exercised."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    docs = pd.DataFrame({
        "doc_id": range(4),
        "text": [
            "bb bb aa",                      # bb: cnt2/df2, aa: cnt1/df1 — tie
            "bb",
            "t1 t2 t3 t4 t5 t6 t7 t1",       # 7 distinct, cut at 5
            "",                               # the [''] token, df=1
        ],
    })
    sf = tmp_path / "sfT"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (Q.doc_tfidf_topterms(str(sf)).to_pandas()
           .sort_values(["doc_id", "rnk"]).reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_tfidf_topterms"]).df()
            .sort_values(["doc_id", "rnk"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    d2 = got[got.doc_id == 2]
    assert len(d2) == 5 and d2.rnk.tolist() == [1, 2, 3, 4, 5]
    assert got[got.doc_id == 3].term.tolist() == [""]


def test_geo_knn_join_crafted_ids(tmp_path):
    """geo_knn_join vs its banded DuckDB oracle on a CRAFTED id
    distribution (dense event ids 0..1499 x order keys 1..400) — different
    lattice coverage than the driver testdata, exercising cell-boundary
    sites, points with >k in-radius neighbors, and points with none."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    sf = tmp_path / "sfK"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame({"event_id": range(1500)}), preserve_index=False),
        sf / "events.parquet")
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame({"o_orderkey": range(1, 401)}), preserve_index=False),
        sf / "orders.parquet")

    got = (Q.geo_knn_join(str(sf)).to_pandas()
           .sort_values(["event_id", "rnk"]).reset_index(drop=True))
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf}/{t}.parquet')")
    want = (con.sql(ORACLES["geo_knn_join"]).df()
            .sort_values(["event_id", "rnk"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert len(got) > 0
    per = got.groupby("event_id").size()
    assert per.max() <= 3


def test_pack_chunks_boundaries(tmp_path):
    """Packing semantics at exact chunk boundaries: a doc ending exactly at
    a capacity multiple, a doc spanning 3 chunks, a single-token doc, and
    sparse non-contiguous doc_ids (range-bucket generality). Verified
    against the DuckDB window-cumsum oracle plus hand-computed spans."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    def words(n):
        return " ".join(f"w{i}" for i in range(n))

    docs = pd.DataFrame({
        "doc_id": [0, 7, 8, 100, 101, 9000],
        "text": [words(512),     # fills chunk 0 exactly
                 words(1),       # first token of chunk 1
                 words(1023),    # spans chunks 1..2 (ends at 1536)
                 words(510),     # chunk 3 exactly (1536..2045)
                 "",             # the 1-token empty doc at 2046
                 words(3)],      # tokens 2047..2049 straddle chunks 3|4
    })
    sf = tmp_path / "sfP"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (Q.doc_pack_chunks(str(sf)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_pack_chunks"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert got.first_chunk.tolist() == [0, 1, 1, 3, 3, 3]
    assert got.last_chunk.tolist() == [0, 1, 2, 3, 3, 4]
    assert got.n_chunks.tolist() == [1, 1, 2, 1, 1, 2]


def test_bigram_pmi_tie_and_mincnt(tmp_path):
    """Crafted PMI parity: two bigrams with IDENTICAL (cxy, c1, c2) — an
    exact ratio tie that must resolve by the (w1, w2) tie-break in both
    engines; a cxy=2 pair that the min_cnt=3 filter drops; the empty-text
    [''] token; and a doc-boundary adjacency that must NOT form a bigram."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES
    from tools.minidriver import to_pandas

    docs = pd.DataFrame({
        "doc_id": range(6),
        "text": [
            "x y x y x y",      # (x,y) cxy=3  (and (y,x) cxy=2 — filtered)
            "p q p q",          # (p,q) cxy=2 so far
            "p q",              # -> cxy=3; c(p)=c(x)=3, c(q)=c(y)=3: tie
            "a b a b",          # (a,b)=2, (b,a)=1 — both filtered
            "",                 # the [''] token
            "w",                # single-token doc: no bigram, and its
                                # boundary with doc4 must not form one
        ],
    })
    sf = tmp_path / "sfB"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (to_pandas(Q.doc_bigram_pmi(str(sf)))
           .sort_values(["w1", "w2"]).reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_bigram_pmi"]).df()
            .sort_values(["w1", "w2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert set(zip(got.w1, got.w2)) == {("x", "y"), ("p", "q")}
    assert got.cxy.tolist() == [3, 3]
    # identical (cxy=3, c1=3, c2=3, N): same pmi to the last ulp
    assert got.pmi.nunique() == 1


def test_tile_chips_count_and_uniqueness():
    """image_tile_chips invariants at sf0.001 (value parity itself is the
    ORACLED harness): chip count equals the independent pandas arithmetic
    sum((w//64)*(h//64)) over eligible images, every (image, tx, ty) is
    unique, and pixel origins stay inside the raster."""
    import duckdb

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    got = Q.image_tile_chips("/root/testdata/sf0.001").to_pandas()
    from tiff_enrichment_pipeline_ray.pipelines.queries import _flagship_out
    out = _flagship_out(0.001)
    con = duckdb.connect()
    ref = con.sql(
        f"SELECT image_id, w, h FROM read_parquet('{out}/enriched/*/*.parquet') "
        f"WHERE decode_ok AND has_gps AND w >= 64 AND h >= 64").df()
    expect = int(((ref.w // 64) * (ref.h // 64)).sum())
    assert len(got) == expect > 0
    assert not got.duplicated(["image_id", "tx", "ty"]).any()
    dims = ref.set_index("image_id")
    j = got.join(dims, on="image_id")
    assert ((j.x0 + 64) <= j.w).all() and ((j.y0 + 64) <= j.h).all()


def test_funnel_ordering_semantics(tmp_path):
    """Crafted funnel: a full 3-depth user; a user whose click PRECEDES
    signup (depth 1 — strict ordering); a user with purchase exactly AT
    the click timestamp (depth 2 — strict <); a click-only user (depth 0);
    a view-only user (out of scope entirely)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    T = pd.Timestamp("2025-01-01")
    s = pd.Timedelta(seconds=1)
    rows = [
        # user 1: signup < click < purchase -> 3
        (1, "signup", T), (1, "click", T + s), (1, "purchase", T + 2 * s),
        # user 2: click before signup -> 1
        (2, "click", T), (2, "signup", T + s),
        # user 3: purchase AT click ts -> 2 (strict <)
        (3, "signup", T), (3, "click", T + s), (3, "purchase", T + s),
        # user 4: click only, never signed up -> 0
        (4, "click", T),
        # user 5: view only -> out of scope
        (5, "view", T),
    ]
    ev = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    ev["event_id"] = range(len(ev))
    ev["value"] = 0.0
    ev["props"] = "{}"
    sf = tmp_path / "sfF"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(
        ev[["event_id", "ts", "user_id", "event_type", "value", "props"]],
        preserve_index=False), sf / "events.parquet")

    got = (Q.events_funnel(str(sf)).to_pandas()
           .sort_values("depth").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')")
    want = (con.sql(ORACLES["events_funnel"]).df()
            .sort_values("depth").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert dict(zip(got.depth, got.n_users)) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_inverted_index_posting_cap(tmp_path):
    """Posting preview semantics: a term in 12 docs (df=12, posting capped
    at the 10 smallest ids), a repeated-within-doc term (df counts the doc
    once), and the empty-text '' term."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    texts = {i: "common rare%d" % i for i in range(12)}
    texts[3] = "common common dupword dupword"
    texts[12] = ""
    docs = pd.DataFrame({"doc_id": sorted(texts),
                         "text": [texts[i] for i in sorted(texts)]})
    sf = tmp_path / "sfI"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (Q.doc_inverted_index(str(sf)).to_pandas()
           .sort_values("term").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_inverted_index"]).df()
            .sort_values("term").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    row = got.set_index("term").loc["common"]
    assert row.df == 12 and row.posting == "0,1,2,3,4,5,6,7,8,9"
    assert got.set_index("term").loc["dupword"].df == 1
    assert got.set_index("term").loc[""].posting == "12"


def test_ohlc_ties_and_block_splits(tmp_path):
    """OHLC semantics under adversarial order: two events at the IDENTICAL
    timestamp at a bar's start (open must pick the smaller event_id), the
    same at the bar's end (close picks the LARGER id), and rows delivered
    in shuffled file order so the per-block partial merge path is real."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    T = pd.Timestamp("2025-03-01 10:00:00")
    s = pd.Timedelta(seconds=1)
    rows = [
        (7, T, "click", 5.0),    # tied open ts — id 3 must win open
        (3, T, "click", 1.0),
        (5, T + s, "click", 9.0),
        (10, T + 59 * s, "click", 2.0),   # tied close ts — id 11 wins
        (11, T + 59 * s, "click", 4.0),
        (20, T, "view", 8.0),             # second bar, single row
    ]
    ev = pd.DataFrame(rows, columns=["event_id", "ts", "event_type", "value"])
    ev["user_id"] = 0
    ev["props"] = "{}"
    # reversed row order: partials must merge, not ride input order
    ev = ev.iloc[::-1].reset_index(drop=True)
    sf = tmp_path / "sfO"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(
        ev[["event_id", "ts", "user_id", "event_type", "value", "props"]],
        preserve_index=False), sf / "events.parquet")

    got = (Q.events_ohlc_bars(str(sf)).to_pandas()
           .sort_values(["event_type", "hour"]).reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')")
    want = (con.sql(ORACLES["events_ohlc_bars"]).df()
            .sort_values(["event_type", "hour"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    c = got[got.event_type == "click"].iloc[0]
    assert (c.open, c.close, c.low, c.high, c.n) == (1.0, 4.0, 1.0, 9.0, 5)


def test_basket_pair_multiplicity(tmp_path):
    """Pair multiplicity follows line-level self-join semantics: an order
    with lines [A, A, B] contributes (A,B) TWICE; same-part pairs never
    form; the min_cnt=2 floor drops one-off pairs."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES
    from tools.minidriver import to_pandas

    li = pd.DataFrame({
        "l_orderkey": [1, 1, 1, 2, 2, 3, 3],
        "l_partkey":  [4, 4, 9, 4, 9, 2, 5],
    })
    sf = tmp_path / "sfM"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(li, preserve_index=False),
                   sf / "lineitem.parquet")

    got = (to_pandas(Q.market_basket_pairs(str(sf)))
           .sort_values(["p1", "p2"]).reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM "
            f"read_parquet('{sf}/lineitem.parquet')")
    want = (con.sql(ORACLES["market_basket_pairs"]).df()
            .sort_values(["p1", "p2"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    # (4,9): twice in order 1 (duplicated A-line) + once in order 2 = 3
    assert got[["p1", "p2", "n"]].values.tolist() == [[4, 9, 3]]


def test_triangles_k4_and_open_wedge(tmp_path):
    """Crafted graph: K4 on parts 1-4 (two orders each holding all four →
    every pair co-occurs twice) must yield 4 triangles with every node in
    exactly 3; edge (5,6) co-occurs once (below min_orders — excluded);
    the 7-8-9 path closes with (7,9) only ONCE, so its wedge must NOT
    count a triangle."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES
    from tools.minidriver import to_pandas

    orders = [
        (1, [1, 2, 3, 4]), (2, [1, 2, 3, 4]),   # K4, every pair twice
        (3, [5, 6]),                              # once-only edge
        (4, [7, 8]), (5, [7, 8]),                 # edge (7,8) x2
        (6, [8, 9]), (7, [8, 9]),                 # edge (8,9) x2
        (8, [7, 9]),                              # closing edge only ONCE
    ]
    rows = [(o, p) for o, ps in orders for p in ps]
    li = pd.DataFrame(rows, columns=["l_orderkey", "l_partkey"])
    sf = tmp_path / "sfG"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(li, preserve_index=False),
                   sf / "lineitem.parquet")

    got = (to_pandas(Q.graph_triangles(str(sf)))
           .sort_values("p").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM "
            f"read_parquet('{sf}/lineitem.parquet')")
    want = (con.sql(ORACLES["graph_triangles"]).df()
            .sort_values("p").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert got.p.tolist() == [1, 2, 3, 4]
    assert got.n_tri.tolist() == [3, 3, 3, 3]



def test_footprint_overlaps_exactly_once():
    """PBSM exactly-once audit on the real sf0.001 corpus: no pair is
    emitted twice (the canonical-cell rule), pairs are canonicalized
    (img_a < img_b), and the count matches an independent brute-force
    pandas sweep restricted to a dense sub-box (plus the full-corpus
    DuckDB parity run in the ORACLED harness)."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    got = Q.image_footprint_overlaps("/root/testdata/sf0.001").to_pandas()
    assert len(got) > 0
    assert not got.duplicated(["img_a", "img_b"]).any()
    assert (got.img_a < got.img_b).all()

    import duckdb

    out = Q._flagship_out(0.001)
    con = duckdb.connect()
    ref = con.sql(
        f"SELECT image_id, west, west + w * px_deg AS e,"
        f" north, north + h * py_deg AS n2 "
        f"FROM read_parquet('{out}/enriched/*/*.parquet') "
        f"WHERE has_gps AND decode_ok"
    ).df()
    import numpy as np

    ids = ref.image_id.to_numpy(object)
    x0 = ref.west.to_numpy(); x1 = ref.e.to_numpy()
    y0 = ref.north.to_numpy(); y1 = ref.n2.to_numpy()
    n = 0
    for i in range(len(ref)):
        ov = ((x0 <= x1[i]) & (x0[i] <= x1)
              & (y0 <= y1[i]) & (y0[i] <= y1) & (ids > ids[i]))
        n += int(ov.sum())
    assert len(got) == n > 0



def test_nearest_error_ties_and_tolerance(tmp_path):
    """Nearest-error semantics at the edges: a purchase with errors
    equidistant before/after (the earlier error ts wins), an error at
    EXACTLY the ±10-min tolerance (included, closed interval), one just
    past it (excluded), and a purchase with no error in range (absent)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    T = pd.Timestamp("2025-06-01 12:00:00")
    m = pd.Timedelta(minutes=1)
    rows = [
        (1, "purchase", T),
        (2, "error", T - 3 * m),       # |dt| = 3 min (earlier — wins tie)
        (3, "error", T + 3 * m),       # |dt| = 3 min
        (4, "purchase", T + 100 * m),
        (5, "error", T + 110 * m),     # exactly +10 min -> included
        (6, "purchase", T + 300 * m),
        (7, "error", T + 310 * m + pd.Timedelta(microseconds=1)),  # out
    ]
    ev = pd.DataFrame(rows, columns=["event_id", "event_type", "ts"])
    ev["user_id"] = 0
    ev["value"] = 0.0
    ev["props"] = "{}"
    sf = tmp_path / "sfN"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(
        ev[["event_id", "ts", "user_id", "event_type", "value", "props"]],
        preserve_index=False), sf / "events.parquet")

    got = (Q.events_nearest_error(str(sf)).to_pandas()
           .sort_values("purchase_id").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')")
    want = (con.sql(ORACLES["events_nearest_error"]).df()
            .sort_values("purchase_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert got.purchase_id.tolist() == [1, 4]
    assert got.error_id.tolist() == [2, 5]
    assert got.dt_us.tolist() == [-180_000_000, 600_000_000]



def test_chip_stats_brute_force():
    """image_chip_stats vs a direct per-chip double loop over the decoded
    sf0.001 corpus: exact equality (px_mean divides a < 2^53 integer sum
    by 4096, a power of two — no tolerance needed), plus full (image, tx,
    ty) key alignment with image_tile_chips' grid for decode-ok GPS rows."""
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.functions import codec as C
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.sources import synth

    got = (Q.image_chip_stats("/root/testdata/sf0.001").to_pandas()
           .sort_values(["image_id", "tx", "ty"]).reset_index(drop=True))
    img_dir = synth.ensure_images(0.001)
    t = pq.read_table(img_dir, columns=["image_id", "bytes"])
    rows = []
    for img_id, blob in zip(t.column("image_id").to_pylist(),
                            t.column("bytes").to_pylist()):
        px, _m, ok = C.decode_image(blob)
        if not ok or px.shape[0] < 64 or px.shape[1] < 64:
            continue
        for tx in range(px.shape[1] // 64):
            for ty in range(px.shape[0] // 64):
                c = px[ty * 64:(ty + 1) * 64, tx * 64:(tx + 1) * 64]
                rows.append((img_id, tx, ty, int(c.min()), int(c.max()),
                             float(c.astype(np.int64).sum()) / 4096.0,
                             int((c == 0).sum())))
    want = (pd.DataFrame(rows, columns=["image_id", "tx", "ty", "px_min",
                                        "px_max", "px_mean", "n_zero"])
            .sort_values(["image_id", "tx", "ty"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert len(got) > 1000



def test_decontaminate_crafted(tmp_path):
    """Decontamination semantics: a train doc embedding a verbatim 8-gram
    from an eval doc (counted at every occurrence POSITION), a train doc
    sharing only a 7-gram (clean), an eval-eval overlap (never reported),
    and a short eval doc (< 8 tokens, contributes no grams)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    g8 = "a b c d e f g h"          # the leaked 8-gram
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "text": [g8 + " tail words here",          # eval: source of truth
                 "x " + g8 + " y " + g8,            # train: leak at 2 spots
                 "a b c d e f g",                   # train: 7 tokens only
                 g8 + " other eval continuation",   # eval-eval: not output
                 "short eval"],                     # eval, < 8 tokens
        "source": ["src0", "src5", "src5", "src0", "src0"],
    })
    docs["lang"] = "en"
    docs["n_chars"] = docs.text.str.len()
    sf = tmp_path / "sfD"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                   sf / "documents.parquet")

    got = (Q.doc_decontaminate(str(sf)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    want = (con.sql(ORACLES["doc_decontaminate"]).df()
            .sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    # doc1's windows hitting eval grams: both g8 copies, plus any window
    # of doc1 matching an eval window — hand-check via the oracle instead
    # of re-deriving; the hard asserts: doc1 contaminated, doc2 clean,
    # eval docs never reported
    assert 1 in got.doc_id.tolist()
    assert 2 not in got.doc_id.tolist()
    assert not set(got.doc_id) & {0, 3, 4}
    assert int(got.set_index("doc_id").loc[1, "n_contam"]) >= 2


def test_pagerank_matches_numpy_power_iteration(tmp_path):
    """Crafted co-purchase graph vs a dense numpy power iteration with the
    exact engine semantics (same teleport double, same iteration count):
    path-ish graph 1-2-3-4-5 with a triangle on {1,2,3}; part 6 co-occurs
    only once so it must be excluded entirely (min_orders=2)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import to_pandas

    orders = [(1, [1, 2, 3]), (2, [1, 2, 3]),
              (3, [3, 4]), (4, [3, 4]),
              (5, [4, 5]), (6, [4, 5]),
              (7, [5, 6])]
    rows = [(o, p) for o, parts in orders for p in parts]
    li = pd.DataFrame(rows, columns=["l_orderkey", "l_partkey"])
    sf = tmp_path / "sfPR"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(li, preserve_index=False),
                   sf / "lineitem.parquet")

    got = (to_pandas(Q.graph_pagerank(str(sf)))
           .sort_values("part_id").reset_index(drop=True))

    # dense power iteration, identical float semantics
    nodes = [1, 2, 3, 4, 5]
    idx = {p: i for i, p in enumerate(nodes)}
    edges = [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    deg = np.zeros(5)
    for a, b in edges:
        deg[idx[a]] += 1
        deg[idx[b]] += 1
    d, n = 0.85, 5.0
    base = (1.0 - d) / n
    pr = np.full(5, 1.0 / n)
    for _ in range(5):
        new = np.full(5, base)
        for a, b in edges:
            new[idx[b]] += d * (pr[idx[a]] / deg[idx[a]])
            new[idx[a]] += d * (pr[idx[b]] / deg[idx[b]])
        pr = new
    want = np.round(pr * n, 6)

    assert list(got.part_id) == nodes  # node 6 excluded
    assert np.allclose(got.score.to_numpy(), want, atol=2e-6)
    # the triangle nodes out-rank the path tail; node 3 (deg 3) tops
    assert got.score[idx[3]] == got.score.max()


def test_snapshot_diff_rule_semantics(tmp_path):
    """Each CDC rule hit once, plus the composite keys: 97·101 (delete
    wins over change), 97·103 (deleted AND its re-keyed copy added),
    and an untouched key that must NOT appear."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    ks = [1, 97, 101, 103, 97 * 101, 97 * 103]
    od = pd.DataFrame({"o_orderkey": ks,
                       "o_totalprice": [100.0 * (i + 1)
                                        for i in range(len(ks))]})
    sf = tmp_path / "sfCDC"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(od, preserve_index=False),
                   sf / "orders.parquet")

    got = (Q.snapshot_diff(str(sf)).to_pandas()
           .sort_values("o_orderkey").reset_index(drop=True))
    st = dict(zip(got.o_orderkey, got.change))
    assert 1 not in st  # unchanged key never emitted
    assert st[97] == "deleted" and st[97 * 101] == "deleted"
    assert st[101] == "changed"
    assert st[97 * 103] == "deleted"
    assert st[103 + 1_000_000_000] == "added"
    assert st[97 * 103 + 1_000_000_000] == "added"
    chg = got[got.o_orderkey == 101]
    assert float(chg.old_price.iloc[0]) == 300.0
    assert float(chg.new_price.iloc[0]) == 310.0
    assert float(got[got.o_orderkey == 97].new_price.iloc[0]) == -1.0

    con = duckdb.connect()
    con.sql(f"CREATE VIEW orders AS SELECT * FROM "
            f"read_parquet('{sf}/orders.parquet')")
    want = (con.sql(ORACLES["snapshot_diff"]).df()
            .sort_values("o_orderkey").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_overview_pyramid_brute():
    """image_overview_pyramid vs a direct per-image pyramid build over the
    decoded sf0.001 corpus: exact row equality (integer-only output), and
    the level geometry invariants (each level halves dims with floor; the
    last level is the first whose next halving would drop below 16)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.functions import codec as C
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.sources import synth

    got = (Q.image_overview_pyramid("/root/testdata/sf0.001").to_pandas()
           .sort_values(["image_id", "level"]).reset_index(drop=True))
    img_dir = synth.ensure_images(0.001)
    t = pq.read_table(img_dir, columns=["image_id", "bytes"])
    rows = []
    for img_id, blob in zip(t.column("image_id").to_pylist(),
                            t.column("bytes").to_pylist()):
        px, _m, ok = C.decode_image(blob)
        if not ok:
            continue
        a = px.astype(np.int64)
        level = 0
        while True:
            rows.append((img_id, level, a.shape[1], a.shape[0],
                         int(a.sum())))
            if min(a.shape[0] // 2, a.shape[1] // 2) < 16:
                break
            b = a[:a.shape[0] // 2 * 2, :a.shape[1] // 2 * 2]
            a = (b[0::2, 0::2] + b[0::2, 1::2]
                 + b[1::2, 0::2] + b[1::2, 1::2]) // 4
            level += 1
    want = (pd.DataFrame(rows, columns=["image_id", "level", "w", "h",
                                        "px_sum"])
            .sort_values(["image_id", "level"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    # multi-level pyramids actually exercised
    assert (want.groupby("image_id")["level"].max() >= 1).any()
    # each overview halves the previous level's dims (floor)
    g = want.sort_values(["image_id", "level"])
    prev = g.groupby("image_id")[["w", "h"]].shift(1)
    lv = g.level.to_numpy()
    assert (g.w.to_numpy()[lv > 0] == (prev.w.to_numpy()[lv > 0] // 2)).all()
    assert (g.h.to_numpy()[lv > 0] == (prev.h.to_numpy()[lv > 0] // 2)).all()


def test_morton_kernel_and_zorder_locality():
    """_morton13 golden vectors + round-trip de-interleave, and the layout
    quality property the manifest exists to certify: Z-ordered output
    files cover small grid rectangles (median per-file x_span AND y_span
    far below the corpus span), so bbox queries prune on the manifest."""
    from tiff_enrichment_pipeline_ray.pipelines.queries import (
        _morton13, geo_zorder_layout)

    ix = np.array([0, 1, 0, 3, 4299, 0b1010101010101], dtype=np.int64)
    iy = np.array([0, 0, 1, 3, 2899, 0b0101010101010], dtype=np.int64)
    z = _morton13(ix, iy)
    # hand-interleaved goldens: x bits at even positions, y at odd
    assert z[0] == 0 and z[1] == 1 and z[2] == 2 and z[3] == 0b1111
    # round-trip: de-interleave recovers both coordinates
    dx = sum(((z >> (2 * b)) & 1) << b for b in range(13))
    dy = sum(((z >> (2 * b + 1)) & 1) << b for b in range(13))
    assert (dx == ix).all() and (dy == iy).all()
    # alternating-bit patterns interleave to the expected block forms
    assert z[5] == sum(1 << (2 * b) for b in range(0, 13, 2)) \
        + sum(1 << (2 * b + 1) for b in range(1, 13, 2))

    man = geo_zorder_layout("/root/testdata/sf0.001")
    assert len(man) == 64
    assert man.n_points.sum() > 0
    # equal-size rank cut: file sizes differ by at most 1
    assert man.n_points.max() - man.n_points.min() <= 1
    # key ranges are disjoint and ordered file-to-file
    m = man.sort_values("file_id").reset_index(drop=True)
    assert (m.zkey_lo.to_numpy()[1:] > m.zkey_hi.to_numpy()[:-1]).all()
    # locality: median file covers a tiny fraction of the 4300×2900 grid
    assert np.median(m.x_span) <= 430 and np.median(m.y_span) <= 290


def test_record_breakers_crafted_ties(tmp_path):
    """events_record_breakers vs its window oracle AND a pandas brute on a
    CRAFTED stream the synthetic data can't guarantee: equal-ts ties
    (broken by event_id), exact value plateaus (strict > means a repeat of
    the running max is NOT a record), a late global max, and long flat
    tails that exercise the bucket-level pruning path."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    rng = np.random.default_rng(7)
    n = 4000
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        np.sort(rng.integers(0, 600, n)), unit="m")  # many equal-ts ties
    value = rng.choice([1.0, 2.0, 3.0, 5.0, 5.0, 8.0], size=n)  # plateaus
    value[-7] = 100.0  # late global max, then a flat pruned tail
    ev = pd.DataFrame({"event_id": np.arange(n, dtype=np.int64),
                       "ts": ts, "value": value})
    sf = tmp_path / "sfR"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   sf / "events.parquet")

    got = (Q.events_record_breakers(str(sf)).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')")
    want = (con.sql(ORACLES["events_record_breakers"]).df()
            .sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    # brute: strictly-increasing prefix maxima under (ts, event_id) order
    o = ev.sort_values(["ts", "event_id"], kind="mergesort")
    v = o.value.to_numpy()
    prev = np.concatenate([[-np.inf], np.maximum.accumulate(v)[:-1]])
    brute = set(o.event_id.to_numpy()[v > prev].tolist())
    assert set(got.event_id.tolist()) == brute
    # the crafted stream actually exercises the semantics
    assert len(got) >= 3
    assert 100.0 in got.value.tolist()
    # a plateau repeat is not a record: values are strictly increasing
    assert (np.diff(got.sort_values("event_id").value.to_numpy()) > 0).all()


def test_idw_point_on_station_and_zorder_skew(tmp_path):
    """Two crafted edges the lattice testdata may not pin: (1) an event
    point EXACTLY on a station (d² = 0 — the +1e-12 guard must make the
    estimate collapse to that station's value, identically in both
    engines, instead of dividing by zero); (2) geo_zorder_layout on a
    heavily CLUSTERED id distribution (skewed Morton fine-buckets — the
    two-phase rank must still cut rank space into equal files with
    disjoint ordered key ranges)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    # event_id 770707: lat = 50.7 + (770707 % 2900)/1000, lon = 3.0 +
    # ((770707 // 7) % 4300)/1000 — engineered below instead: find an id
    # that lands exactly on station 0 (slat=50.8, slon=3.1): need
    # event_id % 2900 == 100 and (event_id // 7) % 4300 == 100.
    on_station = None
    for eid in range(100, 3_000_000, 2900):
        if (eid // 7) % 4300 == 100:
            on_station = eid
            break
    assert on_station is not None
    # clustered ids: two tight blobs + the on-station point
    ids = np.concatenate([
        np.arange(0, 400),                      # blob at the grid origin
        np.arange(1_000_000, 1_000_400),        # second tight blob
        [on_station]]).astype(np.int64)
    sf = tmp_path / "sfZ"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(
        pd.DataFrame({"event_id": ids}), preserve_index=False),
        sf / "events.parquet")
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')")

    got = (Q.geo_idw_interpolate(str(sf)).to_pandas()
           .sort_values("event_id").reset_index(drop=True))
    want = (con.sql(ORACLES["geo_idw_interpolate"]).df()
            .sort_values("event_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got[want.columns], want)
    # the on-station estimate collapses to station 0's value (5.0):
    # w0 = 1/1e-12 dwarfs the other three in-sum weights
    est = float(got.loc[got.event_id == on_station, "idw_value"].iloc[0])
    assert abs(est - 5.0) < 1e-3

    gotz = Q.geo_zorder_layout(str(sf)).sort_values("file_id") \
        .reset_index(drop=True)
    wantz = (con.sql(ORACLES["geo_zorder_layout"]).df()
             .sort_values("file_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        gotz[wantz.columns].reset_index(drop=True), wantz)
    # equal rank cut despite the skew; ordered disjoint key ranges
    assert gotz.n_points.max() - gotz.n_points.min() <= 1
    assert (gotz.zkey_lo.to_numpy()[1:] > gotz.zkey_hi.to_numpy()[:-1]).all()


def _write_events(tmp_path, df):
    import pyarrow as pa
    import pyarrow.parquet as pq

    sf = tmp_path / "sfX"
    sf.mkdir(exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   sf / "events.parquet")
    return str(sf)


def _events_oracle(sf, name):
    import duckdb

    from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{sf}/events.parquet')")
    return con.sql(ORACLES[name]).df()


# The user-hash exchange operators; events_rolling_max is left out because
# its oracle orders a user's events by ts alone, so ts ties leave it open.
_USER_HASH_OPS = [
    "events_sessionize", "events_asof_purchase", "events_user_lag",
    "events_interval_join", "events_first_last_value",
    "events_markov_transitions", "geo_user_paths", "geo_speed_outliers",
    "geo_direction_rose", "events_latest_per_user", "events_distinct_users",
    "events_funnel"]


@pytest.mark.parametrize("name", _USER_HASH_OPS)
def test_user_hash_ops_crafted(ray_session, tmp_path, name):
    """Many users per hash bucket, timestamps tied within a user, users
    with one event and users with no purchase: each operator matches its
    oracle exactly."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import compare, to_pandas

    rng = np.random.default_rng(3)
    n = 400
    types = np.array(["signup", "click", "purchase", "error", "view"])
    df = pd.DataFrame({
        "event_id": rng.permutation(n).astype(np.int64) * 7 + 1,
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.integers(0, 600, n), unit="min")),
        "user_id": rng.integers(0, 60, n).astype(np.int64),
        "event_type": types[rng.integers(0, 5, n)],
        "value": np.round(rng.normal(10, 5, n), 3)})
    df.loc[df.user_id < 5, "event_type"] = "view"  # users without purchase
    sf = _write_events(tmp_path, df)
    got = to_pandas(getattr(Q, name)(sf))
    want = _events_oracle(sf, name)
    assert compare(name, got, want, exact=True) is None


def test_lex_searchsorted_matches_per_key_searchsorted():
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    rng = np.random.default_rng(5)
    ks = rng.integers(0, 6, 50)
    vs = rng.integers(0, 20, 50)
    o = np.lexsort((vs, ks))
    ks, vs = ks[o], vs[o]
    kq = rng.integers(-1, 7, 80)
    vq = rng.integers(-2, 22, 80)
    want = [np.searchsorted(ks, k) + np.searchsorted(vs[ks == k], v)
            for k, v in zip(kq, vq)]
    assert Q._lex_searchsorted(ks, vs, kq, vq).tolist() == want


class TestRound5Crafted:
    """Adversarial parity for the round-5 analytics tier on crafted
    tables — each pins the edge its implementation note documents."""

    def test_od_matrix_interleaved_group_order(self, ray_session, tmp_path):
        """The head(1)/tail(1) scramble regression: (user, day) groups
        whose FIRST-occurrence order differs from their LAST-occurrence
        order under the global (ts, event_id) sort. A first/last pairing
        taken from differently-ordered frames swaps destinations between
        users; the aligned aggregate must not."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        base = pd.Timestamp("2024-01-01")
        # u1 starts first and ends last; u2 nests inside — distinct tiles
        # per endpoint (event_ids chosen across the 430-wide coarse tiles)
        df = pd.DataFrame({
            "event_id": [0, 3010, 6020, 9030],
            "ts": [base, base + pd.Timedelta(minutes=1),
                   base + pd.Timedelta(minutes=2),
                   base + pd.Timedelta(minutes=3)],
            "user_id": [1, 2, 2, 1],
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.geo_od_matrix(sf))
        want = _events_oracle(sf, "geo_od_matrix")
        assert compare("geo_od_matrix", got, want, exact=True) is None
        # and the trips really are (u1: eid0 -> eid9030), (u2: 3010 -> 6020)
        assert len(got) == 2 and set(got.n_trips) == {1}

    def test_benford_two_decimal_digits(self, ray_session, tmp_path):
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        vals = [0.01, 0.09, 0.10, 9.99, 490.02, 100.00, 55.55]
        df = pd.DataFrame({
            "event_id": range(len(vals)),
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
            "event_type": ["a"] * len(vals),
            "value": vals,
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.events_benford(sf))
        want = _events_oracle(sf, "events_benford")
        assert compare("events_benford", got, want, exact=True) is None
        # digits: 1,9,1,9,4,1,5 -> counts {1:3, 9:2, 4:1, 5:1}
        cnt = dict(zip(got.digit, got.n))
        assert cnt == {1: 3, 9: 2, 4: 1, 5: 1}

    def test_autocorr_constant_series_dropped(self, ray_session, tmp_path):
        """A type with constant daily counts has zero variance at every
        lag — dropped on both engines; a varying type keeps its rows."""
        import numpy as np
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        rows = []
        eid = 0
        for day in range(10):
            for _ in range(3):  # 'flat': 3 events every day
                rows.append((eid, pd.Timestamp("2024-01-01")
                             + pd.Timedelta(days=day, minutes=eid % 60),
                             1, "flat", 1.0))
                eid += 1
            for _ in range(day % 4 + 1):  # 'vary': 1..4 cycling
                rows.append((eid, pd.Timestamp("2024-01-01")
                             + pd.Timedelta(days=day, minutes=eid % 60),
                             1, "vary", 1.0))
                eid += 1
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type", "value"])
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.events_autocorr_daily(sf))
        want = _events_oracle(sf, "events_autocorr_daily")
        assert compare("events_autocorr_daily", got, want, exact=True) is None
        assert "flat" not in set(got.event_type)
        assert (got.event_type == "vary").any()

    def test_speed_outliers_zero_gap_excluded(self, ray_session, tmp_path):
        """Same-microsecond consecutive events have undefined speed:
        excluded from segments; a user with ONLY zero-gap segments drops
        entirely (SQL inner filter)."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame({
            "event_id": [0, 1, 2, 10, 11],
            # u1: one zero-gap pair then a real segment; u2: only zero-gap
            "ts": [t0, t0, t0 + pd.Timedelta(seconds=5), t0, t0],
            "user_id": [1, 1, 1, 2, 2],
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.geo_speed_outliers(sf))
        want = _events_oracle(sf, "geo_speed_outliers")
        assert compare("geo_speed_outliers", got, want, exact=True) is None
        assert set(got.user_id) == {1}
        assert got.n_segments.iloc[0] == 1

    def test_nn_stats_isolated_point_sentinel(self, ray_session, tmp_path):
        """A point with no neighbor inside the 0.012 censor band yields
        the -1.0 sentinel tile; a close pair yields symmetric NN rows."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        # event_ids 0 and 7 differ by 1/1000 deg in lat only (close pair);
        # event_id 2_000_000 lands far from both (isolated)
        df = pd.DataFrame({
            "event_id": [0, 7, 2_000_000],
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.geo_nearest_neighbor_stats(sf))
        want = _events_oracle(sf, "geo_nearest_neighbor_stats")
        assert compare("geo_nearest_neighbor_stats", got, want,
                       exact=True) is None
        sent = got[got.n_censored > 0]
        assert len(sent) == 1 and sent.mean_nn.iloc[0] == -1.0

    def test_ripley_counts_tiny_pattern(self, ray_session, tmp_path):
        """Three crafted points: a pair within r=0.01 of each other and
        one distant point — K counts exactly 2 ordered pairs at every
        radius that admits the pair."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        df = pd.DataFrame({
            "event_id": [0, 7, 2_000_000],
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.geo_ripley_k(sf))
        want = _events_oracle(sf, "geo_ripley_k")
        assert compare("geo_ripley_k", got, want, exact=True) is None
        assert got.n_pairs.tolist() == [2, 2, 2]

    def test_ripley_dense_cell_counts_positions(self, ray_session, tmp_path,
                                                monkeypatch):
        """2,000 events on 4 positions of one 0.031° cell plus scattered
        points: n_pairs equals the closed-form ordered-pair count
        Σ m_p·m_q over position pairs with d² ≤ r², minus n, and the
        DuckDB oracle, exactly. With the bucket reducer run in process, a
        spy on _positions sees the dense cell contract to its positions,
        so the in-bucket candidate frame (home positions × positions) is
        bounded by positions, not points."""
        import pandas as pd
        import ray.data

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        period = 872_900  # lcm(2900, 7·4300): ids this far apart coincide
        # base id → multiplicity; (lat, lon) offsets in 0.001°: (1000, 1000),
        # (1001, 1000), (1000, 1014), (1020, 1017) — pairs at 0.001, 0.014
        # and 0.027 apart, so each radius admits a different set
        dense = {398300: 700, 398301: 600, 157600: 400, 157620: 300}
        ids = [b + j * period for b, m in dense.items() for j in range(m)]
        ids += [0, 50_000, 1_234_567, 2_000_000, 3_333_333]
        df = pd.DataFrame({"event_id": np.array(ids, dtype=np.int64),
                           "ts": pd.Timestamp("2024-01-01"), "user_id": 1})
        sf = _write_events(tmp_path, df)

        eid = df.event_id.to_numpy(np.int64)
        pos = pd.DataFrame({"lat": 50.7 + (eid % 2900) / 1000.0,
                            "lon": 3.0 + ((eid // 7) % 4300) / 1000.0})
        pos = pos.groupby(["lat", "lon"]).size().reset_index(name="m")
        assert len(pos) == 4 + 5
        lat, lon, m = (pos[c].to_numpy() for c in ("lat", "lon", "m"))
        dlat = lat[:, None] - lat[None, :]
        dlon = lon[:, None] - lon[None, :]
        d2 = 1.8 * dlat * dlat + dlon * dlon
        closed = [int((np.outer(m, m) * (d2 <= r * r)).sum()) - len(eid)
                  for r in Q._RIPLEY_RADII]
        assert len(set(closed)) == 3

        got = to_pandas(Q.geo_ripley_k(sf))
        assert got.n_pairs.tolist() == closed
        want = _events_oracle(sf, "geo_ripley_k")
        assert compare("geo_ripley_k", got, want, exact=True) is None

        seen = []
        real = Q._positions

        def spy(frame):
            out = real(frame)
            seen.append((len(frame), len(out)))
            return out

        class InProcess:
            """groupby(key).map_groups(fn) run in this process, so the
            spy sees every bucket."""

            def __init__(self, ds, key):
                self.ds, self.key = ds, key

            def map_groups(self, fn, **kw):
                df = self.ds.to_pandas()
                return ray.data.from_pandas(pd.concat(
                    [fn(g) for _, g in df.groupby(self.key)],
                    ignore_index=True))

        monkeypatch.setattr(Q, "_positions", spy)
        monkeypatch.setattr(ray.data.Dataset, "groupby",
                            lambda ds, key: InProcess(ds, key))
        local = to_pandas(Q.geo_ripley_k(sf))
        monkeypatch.undo()
        pd.testing.assert_frame_equal(local, got)
        assert max(n for n, _ in seen) >= 2000
        # every position (9) has at most 9 cell copies (home + 8 ghosts)
        assert max(k for _, k in seen) <= 9 * len(pos)

    def test_quadtree_skewed_refinement(self, ray_session, tmp_path):
        """All mass in one corner: the quadtree must refine ONLY the
        occupied branch to the bottom level and keep everything else
        absent (empty subtrees omitted); a lone far point stays a
        coarse-level leaf."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        # 300 events at event_id 0 tile (corner) + 1 far event
        df = pd.DataFrame({
            "event_id": [0] * 0 + list(range(0, 2100, 7)) + [2_000_000],
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.geo_quadtree_tiles(sf))
        want = _events_oracle(sf, "geo_quadtree_tiles")
        assert compare("geo_quadtree_tiles", got, want, exact=True) is None
        # the dense corner reached the max level; the far point is a leaf
        # on a coarse level of the OTHER branch
        assert got.level.max() == 6
        assert (got.n_points == 1).any()
        # leaf counts partition the corpus exactly
        assert got.n_points.sum() == len(df)


    def test_pareto_tie_semantics(self, ray_session, tmp_path):
        """Strict domination: ties on value keep every tied row whose us
        beats the strictly-higher-value prefix; an exactly-duplicated
        (value, us) pair keeps BOTH rows."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame({
            "event_id": [0, 1, 2, 3, 4],
            #              dominated   tie-pair (both kept)   frontier
            "value": [5.0, 3.0, 4.0, 4.0, 1.0],
            "ts": [t0 + pd.Timedelta(seconds=s)
                   for s in (10, 5, 20, 20, 30)],
            "user_id": 1,
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.events_pareto_front(sf))
        want = _events_oracle(sf, "events_pareto_front")
        assert compare("events_pareto_front", got, want, exact=True) is None
        # id0 (5.0@10): frontier. ids 2,3 (4.0@20 twice): both beat 10 ->
        # kept. id4 (1.0@30): latest -> kept. id1 (3.0@5): dominated.
        assert set(got.event_id) == {0, 2, 3, 4}

    def test_entropy_single_type_zero(self, ray_session, tmp_path):
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        df = pd.DataFrame({
            "event_id": range(6),
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": [1, 1, 1, 2, 2, 2],
            "event_type": ["a", "a", "a", "x", "y", "z"],
        })
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.events_user_entropy(sf))
        want = _events_oracle(sf, "events_user_entropy")
        assert compare("events_user_entropy", got, want, exact=True) is None
        by = dict(zip(got.user_id, got.entropy))
        assert by[1] == 0.0                     # single-type: H = 0
        assert abs(by[2] - 1.098612) < 1e-6     # uniform over 3: ln 3

    def test_theil_sen_exact_linear(self, ray_session, tmp_path):
        """A perfectly linear daily series has EVERY pairwise slope equal
        to the true slope — Theil-Sen returns it exactly; an outlier day
        in a second type must not move the median off the clean slope."""
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        rows = []
        eid = 0
        for day in range(6):
            for _ in range(2 + 3 * day):          # linear: slope 3
                rows.append((eid, pd.Timestamp("2024-01-01")
                             + pd.Timedelta(days=day), 1, "lin", 1.0))
                eid += 1
            k = 2 + day + (40 if day == 3 else 0)  # slope 1 + one outlier
            for _ in range(k):
                rows.append((eid, pd.Timestamp("2024-01-01")
                             + pd.Timedelta(days=day), 1, "out", 1.0))
                eid += 1
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type", "value"])
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.events_theil_sen(sf))
        want = _events_oracle(sf, "events_theil_sen")
        assert compare("events_theil_sen", got, want, exact=True) is None
        by = dict(zip(got.event_type, got.slope))
        assert by["lin"] == 3.0
        assert by["out"] == 1.0                 # outlier-immune


def test_chip_hashes_match_loop_form_without_warning():
    """The vectorized power vector gives the hashes of the scalar loop on
    random images, and wraps mod 2^64 without an overflow warning."""
    import warnings

    import reference_forms as ref

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    rng = np.random.default_rng(7)
    for shape in [(64, 64), (130, 200), (256, 256)]:
        px = rng.integers(0, 1 << 16, shape, dtype=np.uint16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Q._chip_content_hashes(px, 64)
        np.testing.assert_array_equal(got, ref.chip_content_hashes(px, 64))


def test_duplicate_tiles_brute_force(gate):
    """image_duplicate_tiles == a single-process dict over every decoded
    chip (hash -> {images}, chip count), independent of the distributed
    two-stage distinct/count path."""
    import glob as _g

    import numpy as np
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.functions import codec as C
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tiff_enrichment_pipeline_ray.sources import synth
    from tools.minidriver import to_pandas

    entrymod, _, sf_dir = gate
    got = to_pandas(Q.image_duplicate_tiles(sf_dir))

    img_dir = synth.ensure_images(synth.sf_from_dir(sf_dir))
    seen: dict = {}
    for f in sorted(_g.glob(img_dir + "/*.parquet")):
        t = pq.read_table(f, columns=["image_id", "bytes"])
        for img_id, blob in zip(t.column("image_id").to_pylist(),
                                t.column("bytes").to_pylist()):
            px, _m, ok = C.decode_image(blob)
            if not ok or px.shape[0] < 64 or px.shape[1] < 64:
                continue
            for h in Q._chip_content_hashes(px, 64):
                e = seen.setdefault(int(h), [set(), 0])
                e[0].add(img_id)
                e[1] += 1
    dup = sorted(((h, len(imgs), n) for h, (imgs, n) in seen.items()
                  if len(imgs) >= 2),
                 key=lambda r: (-r[2], r[0]))[:100]
    want = [(int(r.chip_hash), int(r.n_images), int(r.n_chips))
            for r in got.itertuples()]
    assert want == dup and len(dup) > 0


def test_compression_ratio_recompute(gate):
    """doc_compression_ratio == direct zlib recompute per doc, including
    the empty-doc sentinel and the keep band edges."""
    import zlib

    import numpy as np
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import to_pandas

    _entrymod, _, sf_dir = gate
    got = to_pandas(Q.doc_compression_ratio(sf_dir)).set_index("doc_id")
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    assert len(got) == len(t)
    for doc_id, txt in zip(t.doc_id, t.text):
        raw = (txt or "").encode("utf-8")
        want = (round(len(zlib.compress(raw, 6)) / len(raw), 6)
                if raw else -1.0)
        assert got.loc[doc_id, "ratio"] == want
        assert got.loc[doc_id, "keep"] == (0.3 <= want <= 0.9)


def test_mosaic_groups_match_union_find(gate):
    """image_mosaic_groups == single-process union-find over the
    footprint-overlap pair set (independent of the distributed
    label-prop + pointer-jumping loop and of the id encoding)."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import to_pandas

    _entrymod, _, sf_dir = gate
    pairs = to_pandas(Q.image_footprint_overlaps(sf_dir))
    got = to_pandas(Q.image_mosaic_groups(sf_dir))

    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs.img_a, pairs.img_b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    nodes = set(pairs.img_a) | set(pairs.img_b)
    comp: dict = {}
    for n in nodes:
        comp.setdefault(find(n), []).append(n)
    want = {}
    for members in comp.values():
        rep = min(members)
        for m in members:
            want[m] = rep
    assert len(got) == len(nodes)
    got_map = dict(zip(got.image_id, got.group_id))
    assert got_map == want
    assert (got.is_rep == (got.image_id == got.group_id)).all()


def test_mann_whitney_ks_heavy_ties(ray_session, tmp_path):
    """Rank statistics under HEAVY ties (every value shared by both
    samples): midrank lifting and ECDF steps must stay exact — compared
    against the DuckDB oracles AND closed-form expectations on a crafted
    two-type table."""
    import numpy as np
    import pandas as pd

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import compare, to_pandas

    # view: 4x value 1.00, 2x value 2.00 ; purchase: 2x 1.00, 4x 2.00
    vals = [1.00] * 4 + [2.00] * 2 + [1.00] * 2 + [2.00] * 4
    types = ["view"] * 6 + ["purchase"] * 6
    df = pd.DataFrame({
        "event_id": range(12),
        "ts": pd.Timestamp("2024-01-01"),
        "user_id": 1,
        "event_type": types,
        "value": vals,
    })
    sf = _write_events(tmp_path, df)
    got_mw = to_pandas(Q.events_mann_whitney(sf))
    want_mw = _events_oracle(sf, "events_mann_whitney")
    assert compare("events_mann_whitney", got_mw, want_mw,
                   exact=True) is None
    # closed form: value 1.00 -> midrank 3.5 (6 rows), 2.00 -> 9.5;
    # R_view = 4*3.5 + 2*9.5 = 33 ; U_view = 33 - 6*7/2 = 12
    assert float(got_mw.u_a.iloc[0]) == 12.0

    got_ks = to_pandas(Q.events_ks_drift(sf))
    want_ks = _events_oracle(sf, "events_ks_drift")
    assert compare("events_ks_drift", got_ks, want_ks, exact=True) is None
    # ECDFs at 1.00: 4/6 vs 2/6 -> D = 1/3 at value 1.00
    assert float(got_ks.ks_d.iloc[0]) == round(1 / 3, 6)
    assert float(got_ks.at_value.iloc[0]) == 1.0


def test_ks_mann_whitney_empty_sample(ray_session, tmp_path):
    """No `purchase` rows: one sample is empty, so neither test statistic
    exists. Engine and DuckDB oracle both return no row."""
    import pandas as pd

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import to_pandas

    df = pd.DataFrame({
        "event_id": range(8),
        "ts": pd.Timestamp("2024-01-01"),
        "user_id": 1,
        "event_type": ["view"] * 5 + ["click"] * 3,
        "value": [1.0, 2.0, 2.0, 3.5, 4.0, 1.0, 9.0, 2.0],
    })
    sf = _write_events(tmp_path, df)
    for name in ("events_ks_drift", "events_mann_whitney"):
        assert len(to_pandas(getattr(Q, name)(sf))) == 0, name
        assert len(_events_oracle(sf, name)) == 0, name


class TestOrderedScanEdges:
    """Crafted edges of the two-phase ordered scan (`_bucket_offsets`):
    every case matches the DuckDB oracle exactly, and a spy on the helper
    shows which buckets phase 1 saw."""

    @staticmethod
    def _spy(monkeypatch):
        from tiff_enrichment_pipeline_ray.pipelines import queries as Q

        seen = []
        real = Q._bucket_offsets

        def spy(*a, **kw):
            parts, offsets = real(*a, **kw)
            seen.append(parts)
            return parts, offsets
        monkeypatch.setattr(Q, "_bucket_offsets", spy)
        return seen

    @staticmethod
    def _rank(monkeypatch, tmp_path, values):
        import pandas as pd

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tools.minidriver import compare, to_pandas

        seen = TestOrderedScanEdges._spy(monkeypatch)
        n = len(values)
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64)[::-1],
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1, "event_type": "view",
            "value": np.asarray(values, np.float64)})
        sf = _write_events(tmp_path, df)
        got = to_pandas(Q.events_global_rank(sf))
        want = _events_oracle(sf, "events_global_rank")
        assert compare("events_global_rank", got, want, exact=True) is None
        assert len(seen) == 1
        return got.sort_values("rnk").reset_index(drop=True), seen[0]

    def test_rank_all_values_equal(self, ray_session, monkeypatch,
                                   tmp_path):
        got, parts = self._rank(monkeypatch, tmp_path, [2.5] * 300)
        assert parts.n.tolist() == [300]          # one bucket holds all
        assert got.event_id.tolist() == list(range(300))
        assert got.rnk.tolist() == list(range(1, 301))

    def test_rank_one_far_outlier(self, ray_session, monkeypatch,
                                  tmp_path):
        vals = np.linspace(0.0, 1.0, 500).tolist() + [1e9]
        got, parts = self._rank(monkeypatch, tmp_path, vals)
        # 32 equal-width buckets: all but the first and the last are empty
        assert parts.bk.tolist() == [0, 31]
        assert parts.n.tolist() == [500, 1]
        assert got.value.iloc[-1] == 1e9 and got.rnk.iloc[-1] == 501

    def test_rank_single_row(self, ray_session, monkeypatch, tmp_path):
        got, parts = self._rank(monkeypatch, tmp_path, [7.25])
        assert parts.n.tolist() == [1]
        assert got.rnk.tolist() == [1] and got.pct.tolist() == [1.0]

    def test_pack_chunks_wide_id_gap(self, ray_session, monkeypatch,
                                     tmp_path):
        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines import queries as Q
        from tiff_enrichment_pipeline_ray.pipelines.oracles import ORACLES
        from tools.minidriver import compare, to_pandas

        seen = self._spy(monkeypatch)
        ids = list(range(10)) + list(range(10**9, 10**9 + 10))
        docs = pd.DataFrame({
            "doc_id": np.asarray(ids, np.int64),
            "text": [" ".join(["w"] * (37 * k % 300 + 1))
                     for k in range(len(ids))]})
        sf = tmp_path / "sfG"
        sf.mkdir()
        pq.write_table(pa.Table.from_pandas(docs, preserve_index=False),
                       sf / "documents.parquet")
        got = to_pandas(Q.doc_pack_chunks(str(sf)))
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
        want = con.sql(ORACLES["doc_pack_chunks"]).df()
        assert compare("doc_pack_chunks", got, want, exact=True) is None
        # 16 doc_id-range buckets: the 14 between the two id runs are empty
        assert seen[0].bk.tolist() == [0, 15]


class _CensusStub:
    """Stands in for both the events Dataset and ``_preagg``'s result:
    every Dataset call returns itself, ``to_pandas`` the crafted census."""

    def __init__(self, census):
        self.census = census

    def map_batches(self, *a, **kw):
        return self

    def to_pandas(self):
        return self.census.copy()


def _feed_census(monkeypatch, census):
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    stub = _CensusStub(census)
    monkeypatch.setattr(Q, "read_testdata", lambda *a, **kw: stub)
    monkeypatch.setattr(Q, "_preagg", lambda *a, **kw: stub)
    return Q


def test_mann_whitney_exact_past_int64(monkeypatch):
    """A (value, type) census whose pooled tie count is ≥ 2²¹ makes
    tt³ pass 2⁶³: the rank-sum and tie terms must still be the exact
    integers, checked against Python-int math on the census."""
    import math

    import pandas as pd

    big = 2 ** 21
    census = pd.DataFrame({
        "v": [1.0, 1.0, 2.0, 2.0, 3.0],
        "t": ["view", "purchase", "view", "purchase", "view"],
        "c": [big, 5, 3, big + 7, 11]})
    Q = _feed_census(monkeypatch, census)
    got = Q.events_mann_whitney("unused")
    ca = {1.0: big, 2.0: 3, 3.0: 11}
    cb = {1.0: 5, 2.0: big + 7, 3.0: 0}
    na, nb = sum(ca.values()), sum(cb.values())
    n = na + nb
    before = r2a = tie = 0
    for v in (1.0, 2.0, 3.0):
        tt = ca[v] + cb[v]
        r2a += ca[v] * (2 * before + tt + 1)
        tie += tt ** 3 - tt
        before += tt
    assert tie > 2 ** 63
    u2a = r2a - na * (na + 1)
    var = (na * nb / 12.0) * ((n + 1) - tie / float(n * (n - 1)))
    z = (u2a - na * nb) / (2.0 * math.sqrt(var))
    assert got.n_a.tolist() == [na] and got.n_b.tolist() == [nb]
    assert got.u_a.tolist() == [u2a / 2.0]
    assert got.z.tolist() == [round(z, 6)]


def test_gini_exact_past_int64(monkeypatch):
    """Per-user counts large enough that (2i − n − 1)·cᵢ and n·Σc pass
    2⁶³: the Gini numerator and denominator must be the exact
    integers."""
    import pandas as pd

    c = [3, 1, 2, 3 * 2 ** 60, 2 ** 60]
    census = pd.DataFrame({"user_id": [10, 11, 12, 13, 14], "c": c})
    Q = _feed_census(monkeypatch, census)
    got = Q.events_gini("unused")
    asc = sorted(c)
    n = len(asc)
    num = sum((2 * i - n - 1) * ci for i, ci in enumerate(asc, 1))
    den = n * sum(asc)
    assert max(abs(num), den) > 2 ** 63
    assert got.n_users.tolist() == [n]
    assert got.gini.tolist() == [round(float(num) / float(den), 6)]


# Dataset groupby/sort/repartition calls while building each operator that
# shares the home+ghost grid exchange (_grid_copies). One grid exchange
# each (Ray's groupby sorts once per groupby); beyond it, nearest-neighbor
# and co-location add one `_preagg` census, and bivariate Moran and DBSCAN
# one repartition(1) task each (Moran's final sum; DBSCAN's union-find
# and border minimum over positions, whose table a row-wise map reads).
_GRID_OP_EXCHANGES = {
    "geo_getis_hotspots": {"groupby": 1, "sort": 1},
    "geo_bivariate_moran": {"groupby": 1, "sort": 1, "repartition": 1},
    "geo_dbscan_clusters": {"groupby": 1, "sort": 1, "repartition": 1},
    "geo_ripley_k": {"groupby": 1, "sort": 1},
    "geo_nearest_neighbor_stats": {"groupby": 2, "sort": 2},
    "geo_colocation_quotient": {"groupby": 2, "sort": 2},
    "geo_knn_join": {"groupby": 1, "sort": 1},
    "geo_near_pairs": {"groupby": 1, "sort": 1},
    "geo_distance_join": {"groupby": 1, "sort": 1},
}


def _exchange_calls(monkeypatch, build, grouped=False):
    """Dataset groupby/sort/repartition/join calls while running ``build()``
    and, with ``grouped``, GroupedData map_groups/aggregate calls too. A
    ``groupby(...).map_groups`` counts one groupby and the one sort of
    its sort-based shuffle; Ray's aggregates (``Dataset.aggregate/sum/
    min/max``, ``GroupedData.count``) each reach ``GroupedData.aggregate``."""
    import ray.data
    from ray.data.grouped_data import GroupedData

    calls = {}

    def counting(cls, method):
        real = getattr(cls, method)

        def wrapper(self, *a, **kw):
            calls[method] = calls.get(method, 0) + 1
            return real(self, *a, **kw)
        monkeypatch.setattr(cls, method, wrapper)

    for method in ("groupby", "sort", "repartition", "join"):
        counting(ray.data.Dataset, method)
    if grouped:
        for method in ("map_groups", "aggregate"):
            counting(GroupedData, method)
    build()
    return calls


def _query_exchange_calls(monkeypatch, name, sf_dir, grouped=False):
    """``_exchange_calls`` of building query ``name``."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    return _exchange_calls(monkeypatch, lambda: getattr(Q, name)(sf_dir),
                           grouped)


@pytest.mark.parametrize("name", sorted(_GRID_OP_EXCHANGES))
def test_grid_op_exchange_shape(gate, name, monkeypatch):
    _entry, _con, sf_dir = gate
    assert _query_exchange_calls(monkeypatch, name, sf_dir) \
        == _GRID_OP_EXCHANGES[name]


def test_dsjoin_exchange_shape(gate, monkeypatch):
    """A ``_dsjoin`` is one bucket groupby: no repartition, no second
    sort and no ``Dataset.join``."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    _entry, _con, sf_dir = gate

    def build():
        orders = Q.read_testdata(sf_dir, "orders",
                                 columns=["o_orderkey", "o_custkey"])
        cust = Q.read_testdata(sf_dir, "customer", columns=["c_custkey"])
        return Q._dsjoin(orders, cust, on=("o_custkey",),
                         right_on=("c_custkey",))

    assert _exchange_calls(monkeypatch, build) == {"groupby": 1, "sort": 1}


# The same count for the two-phase ordered scans (`_bucket_offsets`): one
# `_preagg` per phase 1 and one bucket groupby per phase 2. The z-order
# layout adds a per-file `_preagg`; the mixture order chains two scans
# (per-(bucket, source) ranks, then the global rank over p).
_SCAN_OP_EXCHANGES = {
    "doc_pack_chunks": {"groupby": 2, "sort": 2},
    "events_global_rank": {"groupby": 2, "sort": 2},
    "geo_zorder_layout": {"groupby": 3, "sort": 3},
    "doc_shuffle_positions": {"groupby": 2, "sort": 2},
    "doc_mixture_order": {"groupby": 4, "sort": 4},
    "events_record_breakers": {"groupby": 2, "sort": 2},
}


@pytest.mark.parametrize("name", sorted(_SCAN_OP_EXCHANGES))
def test_scan_op_exchange_shape(gate, name, monkeypatch):
    _entry, _con, sf_dir = gate
    assert _query_exchange_calls(monkeypatch, name, sf_dir) \
        == _SCAN_OP_EXCHANGES[name]


# Queries whose global top-k runs through `_topk` (no exchange) and whose
# totals, dedup and semi joins run through `_reduce`, `_preagg` and
# `_dsjoin`: every sort they start is a `map_groups` shuffle, and none
# calls a Ray aggregate. ann_*_topk stand for the search_* helpers.
_NO_RAY_AGG_SORT_QUERIES = [
    "events_top_values", "doc_vocab_topk", "doc_vocab_topk_mg",
    "doc_bigram_pmi", "market_basket_pairs", "graph_triangles",
    "graph_pagerank", "q3_shipping_priority", "top10_customers",
    "ann_topk_cosine", "q10_returned_items", "sample_join_uniform",
    "sample_weighted", "q21_waiting_suppliers", "q2_min_cost_supplier",
    "image_duplicate_tiles", "ann_ivf_topk", "ann_lsh_topk", "ann_pq_topk",
    "q4_priority_semijoin", "q4_bloom_semijoin", "q6_forecast_revenue",
    "doc_dup_clusters", "image_mosaic_groups", "geo_emerging_hotspots",
    "events_cusum_changepoint"]


@pytest.mark.parametrize("name", _NO_RAY_AGG_SORT_QUERIES)
def test_query_runs_no_ray_sort_or_aggregate(gate, name, monkeypatch):
    _entry, _con, sf_dir = gate
    calls = _query_exchange_calls(monkeypatch, name, sf_dir, grouped=True)
    assert "aggregate" not in calls, calls
    assert calls.get("sort", 0) == calls.get("groupby", 0) \
        == calls.get("map_groups", 0), calls


def _topk_input(n_blocks=8, rows=12):
    """``n_blocks`` blocks whose leading key ``a`` ties across blocks; the
    trailing key ``b`` (unique, interleaved over blocks) breaks the ties."""
    import ray.data as rd

    n = n_blocks * rows
    i = np.arange(n, dtype=np.int64)
    full = pd.DataFrame({"a": i % 3, "b": (i * 37) % n,
                         "w": [f"r{v}" for v in i]})
    chunks = [full.iloc[j::n_blocks].reset_index(drop=True)
              for j in range(n_blocks)]
    ds = rd.from_pandas(chunks)
    assert ds.materialize().num_blocks() == n_blocks
    return ds, full


@pytest.mark.parametrize("k", [1, 5, 40, 1000])
@pytest.mark.parametrize("ascending", [[False, True], [True, False]])
def test_topk_equals_full_sort(k, ascending):
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    ds, full = _topk_input()
    got = Q._topk(ds, ["a", "b"], ascending, k)
    want = (full.sort_values(["a", "b"], ascending=ascending)
            .head(k).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want)


def test_topk_without_rows_keeps_schema():
    """A filter that keeps no row still gives the input's columns and
    dtypes, though no block returns a top k."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    ds, full = _topk_input(n_blocks=3)
    none = ds.map_batches(lambda df: df[df.a < 0], batch_format="pandas")
    got = Q._topk(none, ["a", "b"], [True, True], 5)
    assert len(got) == 0
    assert dict(got.dtypes) == dict(full.dtypes)


def test_reduce_matches_pandas_and_sql_empty():
    import ray.data as rd

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    ds, full = _topk_input()
    spec = [("s", "a", "sum"), ("n", None, "count"), ("lo", "b", "min"),
            ("hi", "b", "max")]
    assert Q._reduce(ds, spec) == {
        "s": int(full.a.sum()), "n": len(full),
        "lo": int(full.b.min()), "hi": int(full.b.max())}
    empty = rd.from_pandas(Q._no_rows(a=np.int64, b=np.int64))
    assert Q._reduce(empty, spec) == {"s": None, "n": 0, "lo": None,
                                      "hi": None}


def _keyed_input():
    """Four blocks; every key ``k`` has rows in several blocks, and
    ``bk`` = k % 3 is a bucket column a caller computed."""
    import ray.data as rd

    i = np.arange(60, dtype=np.int64)
    full = pd.DataFrame({"k": (i * 7) % 11, "v": i})
    full["bk"] = full.k % 3
    chunks = [full.iloc[j::4].reset_index(drop=True) for j in range(4)]
    ds = rd.from_pandas(chunks)
    assert ds.materialize().num_blocks() == 4
    return ds, full


def _tag_calls():
    """A UDF that returns the rows of one ``_exchange`` call, tagged with
    a call id and the columns the call saw (defined in a function, so Ray
    ships it by value, not by this module's name)."""
    def calls(g: pd.DataFrame) -> pd.DataFrame:
        import uuid

        return g.assign(call=uuid.uuid4().hex, cols=",".join(g.columns))
    return calls


@pytest.mark.parametrize("n", [1, 3, 16])
def test_exchange_hash_mode(n):
    """Hash mode hands ``fn`` whole buckets: every row of a key in one
    call, at most ``n`` calls, no ``_bk`` column, and the same rows out
    for any ``n``."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    ds, full = _keyed_input()
    got = Q._exchange(ds, "k", _tag_calls(), n=n).to_pandas()
    assert (got.groupby("k").call.nunique() == 1).all()
    assert got.call.nunique() <= n
    assert set(got.cols) == {"k,v,bk"}
    out = got[["k", "v", "bk"]].sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, full)


def test_exchange_bucket_mode():
    """Without ``n``, ``fn`` gets one group per value of the caller's
    bucket column, and the column reaches it unchanged."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    ds, full = _keyed_input()
    got = Q._exchange(ds, "bk", _tag_calls()).to_pandas()
    assert (got.groupby("call").bk.nunique() == 1).all()
    assert got.call.nunique() == 3
    assert set(got.cols) == {"k,v,bk"}
    out = got[["k", "v", "bk"]].sort_values("v").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, full)


@pytest.fixture(scope="module")
def empty_sf(gate, tmp_path_factory):
    """The gate's sf with zero-row ``events``, ``documents``, ``lineitem``
    and ``embeddings`` (same schemas; an empty parquet file's one row group
    has no min/max statistics) and every other table linked in
    unchanged."""
    import pyarrow.parquet as pq

    _entry, _con, src = gate
    d = tmp_path_factory.mktemp("empty_sf")
    for f in sorted(os.listdir(src)):
        if f in ("events.parquet", "documents.parquet", "lineitem.parquet",
                 "embeddings.parquet"):
            pq.write_table(pq.read_table(os.path.join(src, f)).slice(0, 0),
                           str(d / f))
        else:
            os.symlink(os.path.join(src, f), d / f)
    return str(d)


def test_dbscan_empty_input_typed_rows(empty_sf):
    """DBSCAN over zero events returns its three typed columns and no
    row, not a frame without columns."""
    from tiff_enrichment_pipeline_ray.pipelines import queries as Q
    from tools.minidriver import to_pandas

    got = to_pandas(Q.geo_dbscan_clusters(empty_sf))
    assert len(got) == 0
    assert dict(got.dtypes) == {"event_id": np.int64,
                                "cluster_id": np.int64, "is_core": bool}


def test_scan_helpers_on_empty_input(empty_sf):
    """The footer reader skips row groups without statistics, and phase 1
    of the ordered scan over no rows keeps its key and spec columns."""
    import ray.data as rd

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    assert Q._pq_colminmax(os.path.join(empty_sf, "events.parquet"),
                           "value") == (None, None)
    empty = rd.from_pandas(Q._no_rows(bk=np.int64, v=np.float64))
    parts, offsets = Q._bucket_offsets(empty, "bk", ("mx", "v", "max"),
                                       scan=np.maximum.accumulate,
                                       init=-np.inf)
    assert offsets == {} and len(parts) == 0
    assert dict(parts.dtypes) == {"bk": np.int64, "mx": np.float64}


@pytest.mark.parametrize("name", sorted(_SCAN_OP_EXCHANGES))
def test_scan_op_empty_input_matches_oracle(gate, empty_sf, name):
    """Each ordered-scan operator returns the oracle's zero rows, with the
    columns and dtypes it returns on real input, instead of raising."""
    import duckdb

    from tools.minidriver import compare, to_pandas

    entrymod, _con, _sf_dir = gate
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{empty_sf}/{t}.parquet')")
    ray_df = to_pandas(entrymod.queries()[name](empty_sf))
    sql_df = con.sql(entrymod.oracle_sql()[name]).df()
    assert len(sql_df) == 0
    err = compare(name, ray_df, sql_df, exact=True)
    assert err is None, err


@pytest.mark.parametrize("name,sql_rows", [
    ("q6_forecast_revenue", 1), ("geo_emerging_hotspots", 0),
    ("events_cusum_changepoint", 0), ("events_user_setops", 1)])
def test_reduce_op_empty_input_matches_oracle(gate, empty_sf, name,
                                              sql_rows):
    """Over an empty fact table the keyless totals give the oracle's
    answer: q6 SQL's one row (revenue NULL, n_rows 0), the user set
    operations' one row of NULL sums, the day-range operators typed zero
    rows."""
    import duckdb

    from tools.minidriver import compare, to_pandas

    entrymod, _con, _sf_dir = gate
    con = duckdb.connect()
    for t in ("events", "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{empty_sf}/{t}.parquet')")
    ray_df = to_pandas(entrymod.queries()[name](empty_sf))
    sql_df = con.sql(entrymod.oracle_sql()[name]).df()
    assert len(sql_df) == sql_rows
    err = compare(name, ray_df, sql_df, exact=True)
    assert err is None, err


def test_ann_topk_cosine_empty_embeddings(gate, empty_sf):
    """With no embedding row there is no query vector: the query returns
    the oracle's zero rows, typed, instead of raising."""
    import duckdb

    from tools.minidriver import compare, to_pandas

    entrymod, _con, _sf_dir = gate
    con = duckdb.connect()
    con.sql("CREATE VIEW embeddings AS SELECT * FROM "
            f"read_parquet('{empty_sf}/embeddings.parquet')")
    name = "ann_topk_cosine"
    ray_df = to_pandas(entrymod.queries()[name](empty_sf))
    sql_df = con.sql(entrymod.oracle_sql()[name]).df()
    assert len(sql_df) == 0
    err = compare(name, ray_df, sql_df, exact=True)
    assert err is None, err
