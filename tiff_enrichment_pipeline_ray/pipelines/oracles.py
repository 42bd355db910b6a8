"""DuckDB oracle SQL — one entry per SQL-expressible query in queries.py.

Column names AND float-rounding match the Ray implementations exactly (the
driver sorts columns by name and hash-compares values). Integer sums are cast
to BIGINT (DuckDB SUM(int) yields HUGEINT otherwise). Top-k queries ORDER BY
the ROUNDED measure with an id tie-break — identical tie semantics to the Ray
side.
"""

ORACLES: dict[str, str] = {}

ORACLES["q1_pricing_summary"] = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 4)                              AS sum_qty,
       round(sum(l_extendedprice), 4)                         AS sum_base_price,
       round(sum(l_extendedprice * (1.0 - l_discount)), 4)    AS sum_disc_price,
       count(*)                                               AS count_order,
       round(sum(l_quantity) / count(*), 6)                   AS avg_qty,
       round(sum(l_extendedprice) / count(*), 6)              AS avg_price
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""

ORACLES["q6_forecast_revenue"] = """
SELECT round(sum(l_extendedprice * l_discount), 4) AS revenue,
       count(*) AS n_rows
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND l_shipdate <  TIMESTAMP '1997-01-01 00:00:00'
  AND l_discount >= 0.02 AND l_quantity < 24.0
"""

ORACLES["q3_shipping_priority"] = """
SELECT l_orderkey, revenue, o_orderdate, o_orderpriority FROM (
  SELECT l.l_orderkey AS l_orderkey,
         round(sum(l.l_extendedprice * (1.0 - l.l_discount)), 4) AS revenue,
         strftime(max(o.o_orderdate), '%Y-%m-%d') AS o_orderdate,
         max(o.o_orderpriority) AS o_orderpriority
  FROM customer c
  JOIN orders o ON c.c_custkey = o.o_custkey
  JOIN lineitem l ON l.l_orderkey = o.o_orderkey
  WHERE c.c_mktsegment = 'BUILDING'
    AND o.o_orderdate < TIMESTAMP '1998-03-15 00:00:00'
    AND l.l_shipdate > TIMESTAMP '1998-03-15 00:00:00'
  GROUP BY l.l_orderkey
)
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""

ORACLES["q5_regional_revenue"] = """
SELECT n.n_name AS n_name,
       round(sum(l.l_extendedprice * (1.0 - l.l_discount)), 4) AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON c.c_nationkey = n.n_nationkey AND s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
WHERE r.r_name = 'EUROPE'
  AND o.o_orderdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND o.o_orderdate <  TIMESTAMP '1997-01-01 00:00:00'
GROUP BY n.n_name
"""

ORACLES["orders_per_segment"] = """
SELECT c.c_mktsegment AS c_mktsegment,
       count(*) AS n_orders,
       round(sum(o.o_totalprice), 4) AS sum_totalprice,
       round(max(o.o_totalprice), 4) AS max_totalprice
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY c.c_mktsegment
"""

ORACLES["top10_customers"] = """
SELECT o_custkey, revenue, n_orders, c_name FROM (
  SELECT o.o_custkey AS o_custkey,
         round(sum(o.o_totalprice), 4) AS revenue,
         count(*) AS n_orders,
         max(c.c_name) AS c_name
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
  GROUP BY o.o_custkey
)
ORDER BY revenue DESC, o_custkey
LIMIT 10
"""

ORACLES["part_brand_stats"] = """
SELECT p_brand,
       count(*) AS n_parts,
       round(sum(p_retailprice), 4) AS sum_retail,
       min(p_size) AS min_size,
       max(p_size) AS max_size,
       round(sum(p_retailprice) / count(*), 6) AS avg_retailprice
FROM part GROUP BY p_brand
"""

ORACLES["supplier_nation_balance"] = """
SELECT n.n_name AS n_name,
       count(*) AS n_suppliers,
       round(sum(s.s_acctbal), 4) AS sum_acctbal
FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY n.n_name
"""

ORACLES["events_hourly"] = """
SELECT event_type,
       strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS hour,
       count(*) AS n_events,
       round(sum(value), 4) AS sum_value,
       round(sum(value) / count(*), 6) AS avg_value
FROM events GROUP BY 1, 2
"""

ORACLES["events_user_daily"] = """
SELECT user_id,
       strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       count(*) AS n_events,
       round(sum(value), 4) AS sum_value
FROM events GROUP BY 1, 2
"""

ORACLES["q18_large_orders"] = """
SELECT c_name, o_custkey, o_orderkey,
       strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       o_totalprice, round(sum_qty, 4) AS sum_qty
FROM (SELECT l_orderkey, sum(l_quantity) AS sum_qty
      FROM lineitem GROUP BY l_orderkey
      HAVING sum(l_quantity) > 300.0) big
JOIN orders ON o_orderkey = big.l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 100
"""

ORACLES["customers_inactive_1997"] = """
SELECT c_nationkey, count(*) AS n_customers,
       round(sum(c_acctbal), 4) AS sum_acctbal
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_orderdate >= TIMESTAMP '1997-01-01 00:00:00'
                    AND o.o_orderdate <  TIMESTAMP '1998-01-01 00:00:00')
GROUP BY c_nationkey
"""

ORACLES["lineitem_corr_stats"] = """
SELECT l_returnflag, count(*) AS n_rows,
       round(corr(l_quantity, l_extendedprice), 6) AS corr_qty_price,
       round(covar_samp(l_quantity, l_extendedprice), 4) AS covar_qty_price
FROM lineitem GROUP BY l_returnflag
"""

ORACLES["events_rollup"] = """
WITH d AS (SELECT event_type,
                  strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                  value
           FROM events)
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(day, 'ALL') AS day,
       count(*) AS n_events,
       round(sum(value), 4) AS sum_value
FROM d GROUP BY ROLLUP (event_type, day)
"""

ORACLES["events_pivot"] = """
SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       count(*) FILTER (WHERE event_type = 'click')    AS n_click,
       count(*) FILTER (WHERE event_type = 'error')    AS n_error,
       count(*) FILTER (WHERE event_type = 'purchase') AS n_purchase,
       count(*) FILTER (WHERE event_type = 'signup')   AS n_signup,
       count(*) FILTER (WHERE event_type = 'view')     AS n_view,
       round(coalesce(sum(value) FILTER (WHERE event_type = 'purchase'),
                      0.0), 4) AS purchase_value
FROM events GROUP BY 1
"""

ORACLES["events_top_values"] = """
SELECT event_id, event_type, round(value, 6) AS value
FROM events
ORDER BY round(value, 6) DESC, event_id
LIMIT 100
"""

ORACLES["events_type_minmax"] = """
SELECT event_type,
       count(*) AS n,
       min(strftime(ts, '%Y-%m-%d %H:%M:%S.%f')) AS first_ts,
       max(strftime(ts, '%Y-%m-%d %H:%M:%S.%f')) AS last_ts
FROM events GROUP BY event_type
"""

ORACLES["q4_priority_semijoin"] = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND o.o_orderdate <  TIMESTAMP '1996-07-01 00:00:00'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
"""

ORACLES["q4_bloom_semijoin"] = ORACLES["q4_priority_semijoin"]

ORACLES["events_sliding_window"] = """
SELECT strftime(make_timestamp(((epoch_us(ts) // 900000000) - hops.j)
                               * 900000000), '%Y-%m-%d %H:%M:%S')
         AS window_start,
       count(*) AS n_events,
       round(sum(value), 4) AS sum_value
FROM events CROSS JOIN (VALUES (0), (1), (2), (3)) AS hops(j)
GROUP BY 1
"""

ORACLES["doc_vocab_topk_mg"] = """
SELECT word, count(*) AS cnt
FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word
      FROM documents)
GROUP BY word
ORDER BY cnt DESC, word
LIMIT 100
"""

ORACLES["q14_promo_revenue"] = """
WITH f AS (
  SELECT l_extendedprice * (1.0 - l_discount) AS rev, p.p_type AS p_type
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  WHERE l.l_shipdate >= TIMESTAMP '1996-01-01 00:00:00'
    AND l.l_shipdate <  TIMESTAMP '1996-02-01 00:00:00'
)
SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END)
             / sum(rev), 6) AS promo_pct,
       round(sum(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END), 4)
         AS promo_rev,
       round(sum(rev), 4) AS total_rev,
       count(*) AS n_rows
FROM f
"""

# Exact trigram-Jaccard self-join (doc_ngram_jaccard_pairs is lossless by
# construction — prefix filtering prunes candidates, never results — so SQL
# can recompute it exactly). Engine parity notes: word tokens = Python
# str.split() ≡ regexp_split on '\\s+' after trim (corpus whitespace is
# plain spaces); docs with < 3 words contribute ONE shingle of all their
# words (_combine_shingles semantics); the threshold is applied to the
# ROUNDED Jaccard, matching verify_pair. Shingle-hash collisions (2^-64)
# are the only possible divergence.
ORACLES["doc_ngram_jaccard_pairs"] = r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents WHERE text IS NOT NULL AND trim(text) <> ''
),
tri AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS tg
  FROM (SELECT doc_id, ws, unnest(range(1, len(ws) - 1)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT DISTINCT doc_id, array_to_string(ws, ' ') AS tg
  FROM w WHERE len(ws) < 3
),
sz AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
  FROM tri a JOIN tri b ON a.tg = b.tg AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT doc_a, doc_b,
       round(CAST(ni AS DOUBLE) / (sa.n + sb.n - ni), 6) AS jaccard
FROM inter
JOIN sz sa ON sa.doc_id = doc_a
JOIN sz sb ON sb.doc_id = doc_b
WHERE round(CAST(ni AS DOUBLE) / (sa.n + sb.n - ni), 6) >= 0.6
ORDER BY doc_a, doc_b
"""

# Connected components over the SAME near-dup pair graph (transitive
# closure via recursive CTE; fine at oracle scale — clusters are tiny).
# cluster_id = min doc_id reachable; every document is a node (singletons
# map to themselves). Mirrors doc_dup_clusters' hash-min fixpoint exactly.
ORACLES["doc_dup_clusters"] = r"""
WITH RECURSIVE w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents WHERE text IS NOT NULL AND trim(text) <> ''
),
tri AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS tg
  FROM (SELECT doc_id, ws, unnest(range(1, len(ws) - 1)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT DISTINCT doc_id, array_to_string(ws, ' ') AS tg
  FROM w WHERE len(ws) < 3
),
sz AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
  FROM tri a JOIN tri b ON a.tg = b.tg AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT doc_a, doc_b
  FROM inter
  JOIN sz sa ON sa.doc_id = doc_a
  JOIN sz sb ON sb.doc_id = doc_b
  WHERE round(CAST(ni AS DOUBLE) / (sa.n + sb.n - ni), 6) >= 0.6
),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION ALL
  SELECT doc_b AS src, doc_a AS dst FROM pairs
),
reach(node, lbl) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.dst, r.lbl FROM reach r JOIN edges e ON e.src = r.node
)
SELECT node AS doc_id, min(lbl) AS cluster_id,
       min(lbl) = node AS is_rep
FROM reach GROUP BY node
"""

# Exact per-group percentiles: pandas Series.quantile and DuckDB
# quantile_cont share the linear-interpolation definition; round(·,6) on
# both sides absorbs last-ulp interpolation differences (same approach as
# the band_stats_by_class p*_med columns).
ORACLES["events_value_percentiles"] = """
SELECT event_type, count(*) AS n,
       round(quantile_cont(round(value, 6), 0.25), 6) AS p25,
       round(quantile_cont(round(value, 6), 0.50), 6) AS p50,
       round(quantile_cont(round(value, 6), 0.75), 6) AS p75
FROM events GROUP BY event_type
"""

ORACLES["events_sessionize"] = """
WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events),
m AS (SELECT user_id, us,
             CASE WHEN lag(us) OVER w IS NULL
                       OR us - lag(us) OVER w > 1800000000
                  THEN 1 ELSE 0 END AS is_new
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us)),
s AS (SELECT user_id, us,
             sum(is_new) OVER (PARTITION BY user_id ORDER BY us
                               ROWS UNBOUNDED PRECEDING) AS sid
      FROM m),
per AS (SELECT user_id, sid, count(*) AS n, max(us) - min(us) AS dur
        FROM s GROUP BY user_id, sid)
SELECT user_id,
       count(*) AS n_sessions,
       CAST(sum(n) AS BIGINT) AS n_events,
       CAST(sum(dur) AS BIGINT) AS total_session_us,
       CAST(max(n) AS BIGINT) AS max_session_events
FROM per GROUP BY user_id
"""

ORACLES["events_asof_purchase"] = """
WITH p AS (SELECT user_id, epoch_us(ts) AS us FROM events
           WHERE event_type = 'purchase')
SELECT e.event_id,
       count(p.us) AS n_prior_purchase,
       CAST(coalesce(sum(CASE WHEN p.us >= epoch_us(e.ts) - 3600000000
                              THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS n_purchase_1h,
       coalesce(max(p.us), -1) AS last_purchase_us
FROM events e
LEFT JOIN p ON p.user_id = e.user_id AND p.us < epoch_us(e.ts)
GROUP BY e.event_id
"""

ORACLES["events_user_lag"] = """
SELECT event_id, user_id,
       coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER
                (PARTITION BY user_id ORDER BY ts, event_id), -1) AS gap_us
FROM events
"""

ORACLES["events_value_cume_dist"] = """
SELECT event_id, event_type,
       round(cume_dist() OVER
             (PARTITION BY event_type ORDER BY round(value, 6)), 6) AS cume
FROM events
"""

ORACLES["events_rolling_max"] = """
SELECT event_id,
       max(round(value, 6)) OVER (PARTITION BY user_id ORDER BY ts
                                  ROWS BETWEEN 9 PRECEDING AND CURRENT ROW)
         AS roll_max10
FROM events
"""

ORACLES["events_topk_per_type"] = """
SELECT event_type, rnk, event_id, value FROM (
  SELECT event_type, event_id, round(value, 6) AS value,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY round(value, 6) DESC, event_id) AS rnk
  FROM events)
WHERE rnk <= 3
"""

ORACLES["doc_train_split"] = """
SELECT doc_id,
       CASE WHEN b < 80 THEN 'train'
            WHEN b < 90 THEN 'val' ELSE 'test' END AS split,
       CAST(b AS BIGINT) AS bucket
FROM (SELECT doc_id,
             ('0x' || substring(md5('split:' || CAST(doc_id AS VARCHAR)),
                                1, 8))::UBIGINT % 100 AS b
      FROM documents)
"""

ORACLES["doc_exact_dedup"] = """
SELECT md5(text) AS text_md5,
       min(doc_id) AS keep_doc_id,
       count(*) AS dup_count
FROM documents GROUP BY md5(text)
"""

ORACLES["doc_token_counts"] = """
SELECT doc_id, len(string_split(text, ' ')) AS n_tokens FROM documents
"""

ORACLES["doc_token_counts_regex"] = r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\w+|[^\w\s]')) AS n_tokens_re
FROM documents
"""

# operation order matches queries.doc_bm25_scores exactly (rational IDF, no
# ln; fixed 3-term sum) so the compare is bit-exact — see that docstring
ORACLES["doc_bm25_scores"] = """
WITH d AS (
  SELECT doc_id,
         len(string_split(coalesce(text, ''), ' ')) AS n_words,
         len(list_filter(string_split(coalesce(text, ''), ' '),
             x -> x = 'spark'))  AS tf0,
         len(list_filter(string_split(coalesce(text, ''), ' '),
             x -> x = 'query'))  AS tf1,
         len(list_filter(string_split(coalesce(text, ''), ' '),
             x -> x = 'window')) AS tf2
  FROM documents),
c AS (
  SELECT count(*) AS n,
         CAST(sum(n_words) AS DOUBLE) / count(*) AS avgdl,
         sum(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS df0,
         sum(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
         sum(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2
  FROM d)
SELECT doc_id,
       round(
         ((c.n - c.df0 + 0.5) / (c.df0 + 0.5)) * tf0
           / (tf0 + 1.2 * (0.25 + 0.75 * (n_words / c.avgdl)))
       + ((c.n - c.df1 + 0.5) / (c.df1 + 0.5)) * tf1
           / (tf1 + 1.2 * (0.25 + 0.75 * (n_words / c.avgdl)))
       + ((c.n - c.df2 + 0.5) / (c.df2 + 0.5)) * tf2
           / (tf2 + 1.2 * (0.25 + 0.75 * (n_words / c.avgdl)))
       , 6) AS bm25
FROM d, c
"""

ORACLES["doc_repetition_stats"] = """
WITH w AS (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS word
           FROM documents),
c AS (SELECT doc_id, word, count(*) AS cnt FROM w GROUP BY doc_id, word),
p AS (SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS n_words,
             count(*) AS n_distinct, max(cnt) AS top_cnt
      FROM c GROUP BY doc_id)
SELECT doc_id, n_words, n_distinct, top_cnt,
       CAST(top_cnt AS DOUBLE) / n_words AS top_word_frac,
       CAST(n_distinct AS DOUBLE) / n_words AS distinct_ratio,
       CASE WHEN top_cnt * 10 <= n_words AND n_words >= 20
            THEN 1 ELSE 0 END AS keep
FROM p
"""

ORACLES["doc_vocab_topk"] = """
SELECT word, count(*) AS cnt
FROM (SELECT unnest(string_split(coalesce(text, ''), ' ')) AS word
      FROM documents)
GROUP BY word
ORDER BY cnt DESC, word
LIMIT 100
"""

# patterns match functions/textkernels.py PII_EMAIL/PII_IP/PII_PHONE verbatim;
# counts on the original text, redaction order EMAIL -> IP -> PHONE
ORACLES["doc_pii_scrub"] = """
SELECT doc_id,
       len(regexp_extract_all(coalesce(text, ''),
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_emails,
       len(regexp_extract_all(coalesce(text, ''),
           '[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}')) AS n_phones,
       len(regexp_extract_all(coalesce(text, ''),
           '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b')) AS n_ips,
       md5(regexp_replace(regexp_replace(regexp_replace(coalesce(text, ''),
           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
           '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b', '<IP>', 'g'),
           '[0-9]{3}[-.][0-9]{3}[-.][0-9]{4}', '<PHONE>', 'g')) AS clean_md5
FROM documents
"""

ORACLES["doc_quality_counts"] = """
SELECT doc_id,
       length(text) AS n_chars,
       length(text) - length(replace(text, ' ', '')) AS n_spaces,
       length(text) - length(replace(text, '.', '')) AS n_periods,
       length(text) - length(replace(text, ',', '')) AS n_commas,
       length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits,
       length(regexp_replace(text, '[^A-Z]', '', 'g')) AS n_upper
FROM documents
"""

ORACLES["doc_lang_stats"] = """
SELECT lang,
       count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       max(n_chars) AS max_chars,
       round(CAST(sum(n_chars) AS DOUBLE) / count(*), 6) AS avg_chars
FROM documents GROUP BY lang
"""

ORACLES["doc_source_stats"] = """
SELECT source,
       count(*) AS n_docs,
       min(n_chars) AS min_chars,
       max(n_chars) AS max_chars
FROM documents GROUP BY source
"""

ORACLES["ann_topk_cosine"] = """
WITH q AS (
  SELECT embedding::DOUBLE[] AS e, vec_id AS qid FROM embeddings
  WHERE vec_id = (SELECT min(vec_id) FROM embeddings)
)
SELECT vec_id, cosine_sim FROM (
  SELECT e2.vec_id AS vec_id,
         round(list_cosine_similarity(e2.embedding::DOUBLE[], q.e), 6) AS cosine_sim
  FROM embeddings e2, q WHERE e2.vec_id != q.qid
)
ORDER BY cosine_sim DESC, vec_id
LIMIT 10
"""

ORACLES["events_stratified_sample"] = """
SELECT event_id, event_type, rnk FROM (
  SELECT event_id, event_type,
         row_number() OVER (
           PARTITION BY event_type
           ORDER BY md5('samp:' || CAST(event_id AS VARCHAR)), event_id
         ) AS rnk
  FROM events) t
WHERE rnk <= 50
"""

ORACLES["events_user_setops"] = """
WITH u AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS p,
         max(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS e
  FROM events GROUP BY user_id)
SELECT CAST(sum(p) AS BIGINT) AS n_purchase_users,
       CAST(sum(e) AS BIGINT) AS n_error_users,
       CAST(sum(p * e) AS BIGINT) AS n_both,
       CAST(sum(p * (1 - e)) AS BIGINT) AS n_purchase_only,
       CAST(sum(e * (1 - p)) AS BIGINT) AS n_error_only,
       CAST(sum(CASE WHEN p + e > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_either
FROM u
"""

ORACLES["events_zscore_outliers"] = """
WITH s AS (SELECT event_type, count(*) AS n, sum(value) AS sv,
                  sum(value * value) AS sv2
           FROM events GROUP BY event_type),
z AS (SELECT e.event_id, e.event_type,
             round((e.value - s.sv / s.n)
                   / sqrt(s.sv2 / s.n - (s.sv / s.n) * (s.sv / s.n)), 6)
               AS zscore
      FROM events e JOIN s USING (event_type))
SELECT event_id, event_type, zscore FROM z WHERE abs(zscore) > 3.0
"""

ORACLES["events_latest_per_user"] = """
SELECT event_id, user_id, ts, event_type, value FROM (
  SELECT event_id, user_id, ts, event_type, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events) WHERE rn = 1
"""

ORACLES["events_distinct_users"] = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""

ORACLES["ann_knn_join"] = """
WITH q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe FROM embeddings
  ORDER BY vec_id LIMIT 32
),
s AS (
  SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
         round(list_cosine_similarity(e.embedding::DOUBLE[], q.qe), 6)
           AS cosine_sim
  FROM embeddings e, q WHERE e.vec_id != q.qid
)
SELECT query_id, neighbor_id, cosine_sim, rank FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id
              ORDER BY cosine_sim DESC, neighbor_id) AS rank
  FROM s)
WHERE rank <= 5
"""

ORACLES["embedding_label_stats"] = """
SELECT label, count(*) AS n_vecs FROM embeddings GROUP BY label
"""

ORACLES["geo_tile_census"] = """
SELECT ((event_id // 7) % 4300) // 50 AS tile_x,
       (event_id % 2900) // 50 AS tile_y,
       count(*) AS n_points
FROM events GROUP BY 1, 2
"""

ORACLES["geo_knn_station"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
st AS (
  SELECT range AS sid,
         50.8 + ((range * 37) % 270) / 100.0 AS slat,
         3.1 + ((range * 73) % 410) / 100.0 AS slon
  FROM range(100)
)
SELECT event_id, sid AS station FROM (
  SELECT p.event_id, s.sid,
         row_number() OVER (
           PARTITION BY p.event_id
           ORDER BY (p.lat - s.slat) * (p.lat - s.slat) * 1.8
                    + (p.lon - s.slon) * (p.lon - s.slon),
                    s.sid) AS rn
  FROM pts p CROSS JOIN st s
) WHERE rn = 1
"""

ORACLES["geo_point_in_rect"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
rects AS (
  SELECT range AS rid,
         3.0 + ((range * 97) % 350) / 100.0 AS rlon0,
         50.7 + ((range * 61) % 240) / 100.0 AS rlat0,
         0.3 + (range % 5) / 10.0 AS w,
         0.25 + (range % 4) / 10.0 AS h
  FROM range(40)
)
SELECT p.event_id AS event_id, COALESCE(MIN(r.rid), -1) AS rect_id
FROM pts p
LEFT JOIN rects r
  ON p.lon >= r.rlon0 AND p.lon <= r.rlon0 + r.w
 AND p.lat >= r.rlat0 AND p.lat <= r.rlat0 + r.h
GROUP BY p.event_id
"""

ORACLES["embedding_near_dup"] = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.embedding::DOUBLE[],
                                    b.embedding::DOUBLE[]), 6) AS cosine_sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[],
                             b.embedding::DOUBLE[]) >= 0.4
"""

# quality_score + lang_id replicated exactly (textkernels.py definitions are
# chosen SQL-expressible: integer counts, clipped quotients, marker argmax
# with first-in-list tie-break)
ORACLES["doc_quality_scores"] = r"""
WITH f AS (
  SELECT doc_id,
         CAST(length(COALESCE(text,'')) AS DOUBLE) AS n,
         CAST(len(string_split(COALESCE(text,''), ' ')) AS DOUBLE) AS words,
         CAST(length(regexp_replace(COALESCE(text,''), '[^0-9]', '', 'g')) AS DOUBLE) AS digits,
         CAST(len(regexp_extract_all(lower(COALESCE(text,'')), '\bthe\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\band\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\bof\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\ba\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\bto\b')) AS DOUBLE) AS stop_hits,
         ' ' || lower(COALESCE(text,'')) || ' ' AS padded
  FROM documents
), m AS (
  SELECT doc_id, n, words, digits, stop_hits,
         len(regexp_extract_all(padded, ' the ')) + len(regexp_extract_all(padded, ' and ')) + len(regexp_extract_all(padded, ' of ')) AS c_en,
         len(regexp_extract_all(padded, ' der ')) + len(regexp_extract_all(padded, ' und ')) + len(regexp_extract_all(padded, ' die ')) AS c_de,
         len(regexp_extract_all(padded, ' le ')) + len(regexp_extract_all(padded, ' la ')) + len(regexp_extract_all(padded, ' et ')) AS c_fr,
         len(regexp_extract_all(padded, ' el ')) + len(regexp_extract_all(padded, ' los ')) + len(regexp_extract_all(padded, ' que ')) AS c_es,
         len(regexp_extract_all(padded, ' de ')) + len(regexp_extract_all(padded, ' het ')) + len(regexp_extract_all(padded, ' een ')) AS c_nl
  FROM f
)
SELECT doc_id,
       round(0.4 * least(greatest(n / 200.0, 0.0), 1.0)
           + 0.3 * least(greatest(1.0 - 3.0 * digits / greatest(n, 1.0), 0.0), 1.0)
           + 0.3 * least(greatest(stop_hits / greatest(words * 0.05, 1.0), 0.0), 1.0), 6) AS quality,
       CASE WHEN greatest(c_en, c_de, c_fr, c_es, c_nl) = 0 THEN 'und'
            WHEN c_en = greatest(c_en, c_de, c_fr, c_es, c_nl) THEN 'en'
            WHEN c_de = greatest(c_en, c_de, c_fr, c_es, c_nl) THEN 'de'
            WHEN c_fr = greatest(c_en, c_de, c_fr, c_es, c_nl) THEN 'fr'
            WHEN c_es = greatest(c_en, c_de, c_fr, c_es, c_nl) THEN 'es'
            ELSE 'nl' END AS lang_guess
FROM m
"""


# ---------------------------------------------- TPC-H join breadth (round 2g)

ORACLES["q7_volume_shipping"] = """
SELECT supp_nation, cust_nation, l_year, ROUND(SUM(volume), 4) AS revenue
FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
             EXTRACT(year FROM l_shipdate) AS l_year,
             l_extendedprice * (1 - l_discount) AS volume
      FROM supplier, lineitem, orders, customer, nation n1, nation n2
      WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
        AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
        AND c_nationkey = n2.n_nationkey
        AND ((n1.n_name = 'NATION_18' AND n2.n_name = 'NATION_19')
          OR (n1.n_name = 'NATION_19' AND n2.n_name = 'NATION_18'))
        AND l_shipdate >= DATE '1996-01-01'
        AND l_shipdate < DATE '1998-01-01') shipping
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""

ORACLES["q8_market_share"] = """
SELECT o_year,
       ROUND(SUM(CASE WHEN supp_nation = 'NATION_3' THEN volume ELSE 0 END)
             / SUM(volume), 6) AS mkt_share
FROM (SELECT EXTRACT(year FROM o_orderdate) AS o_year,
             l_extendedprice * (1 - l_discount) AS volume,
             n2.n_name AS supp_nation
      FROM part, supplier, lineitem, orders, customer, nation n1, nation n2,
           region
      WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
        AND l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
        AND r_name = 'EUROPE' AND s_nationkey = n2.n_nationkey
        AND o_orderdate >= DATE '1996-01-01'
        AND o_orderdate < DATE '1998-01-01'
        AND p_type = 'PROMO') all_nations
GROUP BY o_year ORDER BY o_year
"""

ORACLES["q9_profit_by_nation"] = """
SELECT n_name, o_year, ROUND(SUM(amount), 4) AS sum_profit
FROM (SELECT n_name, EXTRACT(year FROM o_orderdate) AS o_year,
             l_extendedprice * (1 - l_discount)
               - p_retailprice * l_quantity * 0.01 AS amount
      FROM part, supplier, lineitem, orders, nation
      WHERE s_suppkey = l_suppkey AND p_partkey = l_partkey
        AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
        AND p_name LIKE '%red%') profit
GROUP BY n_name, o_year ORDER BY n_name, o_year DESC
"""

ORACLES["q10_returned_items"] = """
SELECT c_custkey, c_name,
       ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue,
       c_acctbal, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1996-07-01' AND o_orderdate < DATE '1996-10-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey LIMIT 20
"""

ORACLES["q13_customer_distribution"] = """
SELECT c_count, COUNT(*) AS custdist
FROM (SELECT c_custkey, COUNT(o_orderkey) AS c_count
      FROM customer LEFT OUTER JOIN orders
        ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
      GROUP BY c_custkey) c_orders
GROUP BY c_count ORDER BY custdist DESC, c_count DESC
"""

ORACLES["q16_supplier_part_counts"] = """
SELECT p_brand, p_size, COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_type <> 'PROMO' AND p_size <= 15
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p_brand, p_size
ORDER BY supplier_cnt DESC, p_brand, p_size
"""

ORACLES["q17_small_quantity_revenue"] = """
SELECT ROUND(SUM(l_extendedprice) / 7.0, 4) AS avg_yearly
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#3'
  AND l_quantity < (SELECT 0.2 * AVG(l2.l_quantity) FROM lineitem l2
                    WHERE l2.l_partkey = lineitem.l_partkey)
"""

ORACLES["q19_disjunctive_revenue"] = """
SELECT ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey
  AND ((p_brand = 'Brand#1' AND p_size <= 10
        AND l_quantity BETWEEN 1 AND 20)
    OR (p_brand = 'Brand#2' AND p_size <= 20
        AND l_quantity BETWEEN 10 AND 30)
    OR (p_brand = 'Brand#3' AND p_size <= 30
        AND l_quantity BETWEEN 20 AND 40))
"""

ORACLES["q22_idle_customers"] = """
SELECT n_name, COUNT(*) AS numcust, ROUND(SUM(c_acctbal), 4) AS totacctbal
FROM customer, nation
WHERE c_nationkey = n_nationkey
  AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0.0)
  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey
                  AND o_orderdate >= DATE '1999-01-01')
GROUP BY n_name ORDER BY n_name
"""


ORACLES["events_purchase_error_matrix"] = """
WITH p AS (SELECT user_id, strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                  count(*) AS n_purchase, sum(value) AS v_purchase
           FROM events WHERE event_type = 'purchase' GROUP BY 1, 2),
     e AS (SELECT user_id, strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                  count(*) AS n_error
           FROM events WHERE event_type = 'error' GROUP BY 1, 2)
SELECT coalesce(p.user_id, e.user_id) AS user_id,
       coalesce(p.day, e.day) AS day,
       coalesce(p.n_purchase, 0) AS n_purchase,
       round(coalesce(p.v_purchase, 0.0), 4) AS v_purchase,
       coalesce(e.n_error, 0) AS n_error
FROM p FULL OUTER JOIN e ON p.user_id = e.user_id AND p.day = e.day
"""

ORACLES["doc_unigram_xent"] = """
WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word
              FROM documents),
     vocab AS (SELECT word, count(*) AS cnt FROM toks GROUP BY word),
     tot AS (SELECT count(*) AS n FROM toks)
SELECT doc_id,
       round(avg(-ln(vocab.cnt / tot.n)), 6) AS xent,
       count(*) AS n_tokens
FROM toks, vocab, tot
WHERE toks.word = vocab.word
GROUP BY doc_id
"""


ORACLES["events_props_stats"] = """
SELECT event_type, count(*) AS n,
       CAST(sum(json_extract(props, '$.k')::BIGINT) AS BIGINT) AS sum_k,
       round(sum(json_extract(props, '$.k')::BIGINT)
             / count(*), 6) AS avg_k
FROM events WHERE json_extract(props, '$.k') IS NOT NULL
GROUP BY event_type
"""


ORACLES["doc_source_token_budget"] = r"""
WITH f AS (
  SELECT doc_id, source,
         len(string_split(text, ' ')) AS n_tokens,
         CAST(length(COALESCE(text,'')) AS DOUBLE) AS n,
         CAST(len(string_split(COALESCE(text,''), ' ')) AS DOUBLE) AS words,
         CAST(length(regexp_replace(COALESCE(text,''), '[^0-9]', '', 'g')) AS DOUBLE) AS digits,
         CAST(len(regexp_extract_all(lower(COALESCE(text,'')), '\bthe\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\band\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\bof\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\ba\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\bto\b')) AS DOUBLE) AS stop_hits
  FROM documents
), scored AS (
  SELECT doc_id, source, n_tokens,
         round(0.4 * least(greatest(n / 200.0, 0.0), 1.0)
             + 0.3 * least(greatest(1.0 - 3.0 * digits / greatest(n, 1.0), 0.0), 1.0)
             + 0.3 * least(greatest(stop_hits / greatest(words * 0.05, 1.0), 0.0), 1.0), 6) AS quality
  FROM f
), ranked AS (
  SELECT *, CAST(SUM(n_tokens) OVER (PARTITION BY source
                                ORDER BY quality DESC, doc_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_tokens
  FROM scored
)
SELECT doc_id, source, quality, n_tokens, cum_tokens
FROM ranked WHERE cum_tokens <= 1000
"""


ORACLES["sample_join_uniform"] = """
SELECT l_orderkey, l_linenumber, l_quantity, o_orderpriority
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
ORDER BY md5('joinsamp:' || l_orderkey || ':' || l_linenumber
             || ':' || l_quantity::BIGINT),
         l_orderkey, l_linenumber
LIMIT 200
"""


ORACLES["geo_distance_join"] = """
WITH p AS (SELECT event_id, (event_id % 2900) AS mlat,
                  ((event_id // 7) % 4300) AS mlon FROM events)
SELECT a.event_id AS event_id, count(*) AS n_neighbors,
       min((a.mlat - b.mlat) * (a.mlat - b.mlat)
         + (a.mlon - b.mlon) * (a.mlon - b.mlon)) AS min_d2
FROM p a JOIN p b
  ON a.event_id <> b.event_id
 AND (a.mlat - b.mlat) * (a.mlat - b.mlat)
   + (a.mlon - b.mlon) * (a.mlon - b.mlon) <= 400
GROUP BY a.event_id
"""


# ORDER BY must use the UNROUNDED priority (wkey_raw): the rounded output
# alias would shadow it and re-break ties among the many rows that round
# to the same 6-decimal value near 1.0 (bit the sf0.1 sweep, round 4)
ORACLES["sample_weighted"] = """
SELECT l_orderkey, l_linenumber, l_quantity, round(wkey_raw, 6) AS wkey
FROM (SELECT l_orderkey, l_linenumber, l_quantity,
             pow(CAST(('0x' || substr(md5('ws:' || l_orderkey || ':'
                       || l_linenumber || ':' || l_quantity::BIGINT),
                       1, 8))::BIGINT AS DOUBLE) / 4294967296.0,
                 1.0 / l_quantity) AS wkey_raw
      FROM lineitem)
ORDER BY wkey_raw DESC, l_orderkey, l_linenumber
LIMIT 20
"""


ORACLES["events_groupby_estimate"] = """
WITH t AS (SELECT event_type,
                  CASE WHEN ('0x' || substr(md5('gb:' || event_id), 1, 8))
                            ::BIGINT % 100 < 10
                       THEN 1 ELSE 0 END AS s
           FROM events)
SELECT event_type,
       sum(s)::BIGINT * 10 AS n_est,
       count(*) AS n_exact,
       round((sum(s)::BIGINT * 10 - count(*)) / CAST(count(*) AS DOUBLE), 6)
         AS rel_err
FROM t GROUP BY event_type
"""


ORACLES["q15_top_supplier"] = """
WITH rev AS (SELECT l_suppkey,
                    round(sum(l_extendedprice * (1 - l_discount)), 4)
                      AS total_revenue
             FROM lineitem
             WHERE l_shipdate >= DATE '1996-01-01'
               AND l_shipdate < DATE '1996-04-01'
             GROUP BY l_suppkey)
SELECT l_suppkey, s_name, total_revenue
FROM rev JOIN supplier ON s_suppkey = l_suppkey
WHERE total_revenue = (SELECT max(total_revenue) FROM rev)
ORDER BY l_suppkey
"""

ORACLES["suppliers_with_returns"] = """
SELECT s_suppkey, s_name, n_name
FROM supplier JOIN nation ON s_nationkey = n_nationkey
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_suppkey = s_suppkey AND l_returnflag = 'R'
                AND l_shipdate >= DATE '1996-01-01'
                AND l_shipdate < DATE '1997-01-01')
"""

ORACLES["q12_priority_by_status"] = """
SELECT l_linestatus,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01 00:00:00'
  AND l_shipdate <  TIMESTAMP '1997-01-01 00:00:00'
GROUP BY l_linestatus
ORDER BY l_linestatus
"""

# the authentic Q21 double-correlated EXISTS / NOT EXISTS form; the Ray side
# evaluates the same predicates vectorized inside one orderkey-hash shuffle
ORACLES["q21_waiting_suppliers"] = """
WITH sm AS (
  SELECT l_orderkey, l_suppkey, max(l_shipdate) AS md
  FROM lineitem GROUP BY l_orderkey, l_suppkey)
SELECT l_suppkey, count(*) AS numwait
FROM sm s
WHERE EXISTS (SELECT 1 FROM sm o
              WHERE o.l_orderkey = s.l_orderkey
                AND o.l_suppkey <> s.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM sm o
                  WHERE o.l_orderkey = s.l_orderkey
                    AND o.l_suppkey <> s.l_suppkey
                    AND o.md >= s.md)
GROUP BY l_suppkey
ORDER BY numwait DESC, l_suppkey
LIMIT 10
"""

ORACLES["events_cube"] = """
SELECT COALESCE(event_type, 'ALL') AS event_type,
       COALESCE(dow, 'ALL') AS dow,
       count(*) AS n_events,
       round(sum(value), 4) AS sum_value
FROM (SELECT event_type, strftime(ts, '%w') AS dow, value FROM events)
GROUP BY CUBE (event_type, dow)
"""

# centered two-pass moments spelled out explicitly (identical formula to the
# Ray side) rather than DuckDB's built-in skewness/kurtosis, which apply
# sample-size bias corrections this population-moment query does not
ORACLES["events_skewkurt"] = """
WITH m AS (SELECT event_type, sum(value) / count(*) AS mu
           FROM events GROUP BY event_type)
SELECT e.event_type AS event_type, count(*) AS n,
       CASE WHEN sum(power(e.value - m.mu, 2)) = 0 THEN NULL
       ELSE round((sum(power(e.value - m.mu, 3)) / count(*))
             / power(sum(power(e.value - m.mu, 2)) / count(*), 1.5), 6)
       END AS skew_pop,
       CASE WHEN sum(power(e.value - m.mu, 2)) = 0 THEN NULL
       ELSE round((sum(power(e.value - m.mu, 4)) / count(*))
             / power(sum(power(e.value - m.mu, 2)) / count(*), 2) - 3.0, 6)
       END AS kurt_excess
FROM events e JOIN m ON e.event_type = m.event_type
GROUP BY e.event_type
ORDER BY event_type
"""

ORACLES["events_interval_join"] = """
SELECT e.user_id AS user_id, count(*) AS n_pairs
FROM events e JOIN events p ON e.user_id = p.user_id
WHERE e.event_type = 'error' AND p.event_type = 'purchase'
  AND e.ts >= p.ts AND e.ts <= p.ts + INTERVAL 2 HOUR
GROUP BY e.user_id
"""

ORACLES["events_ntile"] = """
WITH t AS (
  SELECT event_type, value,
         ntile(4) OVER (PARTITION BY event_type
                        ORDER BY value, event_id) AS tile
  FROM events)
SELECT event_type, tile, count(*) AS n,
       round(sum(value) / count(*), 6) AS avg_value
FROM t GROUP BY event_type, tile
"""

ORACLES["events_value_histogram"] = """
WITH s AS (SELECT min(value) AS mn, max(value) AS mx FROM events),
b AS (SELECT CASE WHEN s.mx = s.mn THEN 0
             ELSE least(CAST(floor((value - s.mn) / ((s.mx - s.mn) / 20))
                             AS BIGINT), 19) END AS bin
      FROM events, s)
SELECT bin,
       round((SELECT mn FROM s)
             + bin * (((SELECT mx FROM s) - (SELECT mn FROM s)) / 20), 6)
         AS bin_lo,
       count(*) AS n
FROM b GROUP BY bin
ORDER BY bin
"""

ORACLES["events_value_mad"] = """
WITH med AS (SELECT event_type, median(value) AS mv
             FROM events GROUP BY event_type)
SELECT e.event_type AS event_type, count(*) AS n,
       round(any_value(m.mv), 6) AS median_value,
       round(median(abs(e.value - m.mv)), 6) AS mad_value
FROM events e JOIN med m ON e.event_type = m.event_type
GROUP BY e.event_type
"""


def images_oracles(img_dir: str) -> dict:
    """SQL oracles over the synthetic images parquet itself (queries that
    consume the raw input table rather than the flagship output)."""
    img = f"read_parquet('{img_dir}/*.parquet')"
    o = {}
    # micasense/__main__.py:15-46: prefix groups, >= 5 files, positional
    # Blue/Green/Red/NIR/RedEdge over the first five in sorted order
    o["micasense_sets"] = f"""
WITH g AS (
  SELECT image_id,
         regexp_replace(image_id, '_[^_]*$', '') AS set_name,
         row_number() OVER (
             PARTITION BY regexp_replace(image_id, '_[^_]*$', '')
             ORDER BY image_id) AS pos,
         count(*) OVER (
             PARTITION BY regexp_replace(image_id, '_[^_]*$', '')) AS n
  FROM {img}
  WHERE contains(image_id, '_')
)
SELECT set_name,
       CASE pos WHEN 1 THEN 'Blue' WHEN 2 THEN 'Green' WHEN 3 THEN 'Red'
                WHEN 4 THEN 'NIR' WHEN 5 THEN 'RedEdge' END AS band_name,
       image_id
FROM g WHERE n >= 5 AND pos <= 5
"""
    # SymSpell deletion-neighborhood fuzzy self-join: a distance-1 pair
    # provably shares an identity-or-deletion variant, so the variant
    # equi-join is a complete candidate generator; levenshtein() = 1 is
    # the exact verify. DISTINCT collapses multi-variant pair meets.
    o["image_id_fuzzy_neighbors"] = f"""
WITH names AS (SELECT DISTINCT image_id AS s FROM {img}),
var AS (
  SELECT s, s AS v FROM names
  UNION ALL
  SELECT s, substr(s, 1, i) || substr(s, i + 2) AS v
  FROM names, unnest(range(0, length(s))) AS t(i)
),
vd AS (SELECT DISTINCT s, v FROM var),
pairs AS (
  SELECT DISTINCT a.s AS a, b.s AS b
  FROM vd a JOIN vd b ON a.v = b.v AND a.s < b.s
  WHERE levenshtein(a.s, b.s) = 1
),
ids AS (SELECT a AS image_id FROM pairs UNION ALL SELECT b FROM pairs)
SELECT image_id, CAST(count(*) AS BIGINT) AS n_neighbors
FROM ids GROUP BY image_id
"""
    return o


def flagship_oracles(out_dir: str) -> dict:
    """SQL oracles over the MATERIALIZED flagship output (the same
    partitioned parquet the Ray queries read): the aggregates are genuinely
    recomputed by DuckDB; projections are bit-exact column reads. `out_dir`
    is resolved by __ray_entry__.oracle_sql() for the scale the driver runs
    (GRAFT_ORACLE_SF, default 0.01)."""
    enr = f"read_parquet('{out_dir}/enriched/*/*.parquet')"
    all_rows = (f"read_parquet(['{out_dir}/enriched/*/*.parquet', "
                f"'{out_dir}/failed/*/*.parquet'])")
    o = {}
    o["file_class_counts"] = f"""
SELECT file_class, fmt, count(*) AS n FROM {enr} GROUP BY file_class, fmt
"""
    o["gps_export"] = f"""
SELECT image_id, lat, lon, alt_m FROM {enr} WHERE has_gps
"""
    o["validation_report"] = f"""
SELECT image_id, valid,
       CAST(len(issues) AS BIGINT) AS n_issues,
       array_to_string(issues, ';') AS issues
FROM {all_rows}
"""
    o["quarantine_report"] = f"""
SELECT image_id, file_class, array_to_string(issues, ';') AS issues
FROM read_parquet('{out_dir}/failed/*/*.parquet')
"""
    o["ops_stats"] = f"""
SELECT "partition", stage, wall_s, "rows", rows_per_sec
FROM read_parquet('{out_dir}/ops/*.parquet')
"""
    # bit-exact projections of the flagship products (same column sets the
    # Ray queries select) — the driver value-hashes the materialized outputs
    from ..config import ALL_INDICES
    from .queries import _ENRICH_SLIM
    from ..state.schemas import CAPTURE_TYPES

    slim = ", ".join(f'"{c}"' for c in _ENRICH_SLIM)
    o["flagship_enriched"] = f"SELECT {slim} FROM {enr}\n"
    cap_cols = ", ".join(f'"{c}"' for c in CAPTURE_TYPES
                         if not c.startswith("index_"))
    o["flagship_captures"] = (
        f"SELECT {cap_cols} "
        f"FROM read_parquet('{out_dir}/captures/*/*.parquet')\n")
    o["caption_exact_dedup"] = f"""
SELECT caption, min(image_id) AS keep_image_id, count(*) AS dup_count
FROM {enr} GROUP BY caption
"""
    o["image_exact_dedup"] = f"""
SELECT phash, min(image_id) AS keep_image_id, count(*) AS dup_count
FROM {enr} GROUP BY phash
"""
    o["zonal_stats_landcover"] = f"""
SELECT COALESCE(landcover_class, 'none') AS landcover_class,
       count(*) AS n_images,
       CAST(count(elevation_m) AS BIGINT) AS n_elev,
       round(sum(COALESCE(elevation_m, 0.0))
             / greatest(count(elevation_m), 1), 4) AS mean_elevation,
       round(sum(COALESCE(footprint_m2, 0.0))
             / greatest(count(footprint_m2), 1), 4) AS mean_footprint_m2
FROM {enr} GROUP BY 1
"""
    o["enriched_daily_stats"] = f"""
SELECT COALESCE(strftime(ts, '%Y-%m-%d'), 'unknown') AS date,
       count(*) AS n_images,
       CAST(sum(CASE WHEN valid THEN 1 ELSE 0 END) AS BIGINT) AS n_valid,
       CAST(count(elevation_m) AS BIGINT) AS n_elev,
       round(sum(COALESCE(elevation_m, 0.0)) / greatest(count(elevation_m), 1), 4) AS mean_elevation
FROM {enr} GROUP BY 1
"""
    o["band_stats_by_class"] = f"""
SELECT file_class, band,
       CAST(sum(CAST(w AS DOUBLE) * h) AS DOUBLE) AS n_px,
       round(sum(px_mean * w * h) / sum(CAST(w AS DOUBLE) * h), 6) AS mean_px,
       round(sqrt(greatest(
           sum((px_std * px_std + px_mean * px_mean) * w * h)
             / sum(CAST(w AS DOUBLE) * h)
           - (sum(px_mean * w * h) / sum(CAST(w AS DOUBLE) * h)) ^ 2, 0.0)), 6) AS std_px,
       round(quantile_cont(px_p50, 0.25), 6) AS p25_med,
       round(quantile_cont(px_p50, 0.50), 6) AS p50_med,
       round(quantile_cont(px_p50, 0.75), 6) AS p75_med
FROM {enr} WHERE decode_ok GROUP BY file_class, band
"""
    # Training-chip enumeration: one row per full 64x64 tile of each
    # georeferenced decode-ok image. DuckDB's range/generate_series table
    # functions reject lateral column args, so the grid is expanded with
    # the SCALAR list range() under two unnest stages (tx, then ty). The
    # world anchors are the engine's exact expression (int->double
    # convert, one multiply, one add), reported raw (see queries.py).
    o["image_tile_chips"] = f"""
WITH g AS (
  SELECT image_id, w, h, west, north, px_deg, py_deg
  FROM {enr}
  WHERE decode_ok AND has_gps AND w >= 64 AND h >= 64
),
ex AS (
  SELECT image_id, h, west, north, px_deg, py_deg,
         unnest(range(0, w // 64)) AS tx
  FROM g
),
exy AS (
  SELECT image_id, west, north, px_deg, py_deg, tx,
         unnest(range(0, h // 64)) AS ty
  FROM ex
)
SELECT image_id, tx, ty,
       tx * 64 AS x0, ty * 64 AS y0,
       west + CAST(tx * 64 AS DOUBLE) * px_deg AS chip_west,
       north + CAST(ty * 64 AS DOUBLE) * py_deg AS chip_north
FROM exy
"""
    # Footprint-overlap self-join: banded on min-corner 0.004-deg cells
    # (cell edge > max footprint extent 0.0017 deg, so overlapping pairs
    # sit within +-1 cells). The box bounds are the engine's exact
    # one-multiply-one-add expression; closed-interval predicate; pairs
    # canonicalized by binary string order on image_id.
    o["image_footprint_overlaps"] = f"""
WITH g AS (
  SELECT image_id, west AS x0, west + w * px_deg AS x1,
         north AS y0, north + h * py_deg AS y1
  FROM {enr}
  WHERE has_gps AND decode_ok
),
c AS (
  SELECT *, CAST(floor((x0 - 3.0) / 0.004) AS BIGINT) AS cx,
            CAST(floor((y0 - 50.7) / 0.004) AS BIGINT) AS cy
  FROM g
)
SELECT a.image_id AS img_a, b.image_id AS img_b
FROM c a JOIN c b
  ON b.cx BETWEEN a.cx - 1 AND a.cx + 1
 AND b.cy BETWEEN a.cy - 1 AND a.cy + 1
 AND a.image_id < b.image_id
 AND a.x0 <= b.x1 AND b.x0 <= a.x1
 AND a.y0 <= b.y1 AND b.y0 <= a.y1
"""
    o["image_mosaic_groups"] = f"""
WITH RECURSIVE g AS (
  SELECT image_id, west AS x0, west + w * px_deg AS x1,
         north AS y0, north + h * py_deg AS y1
  FROM {enr}
  WHERE has_gps AND decode_ok
),
c AS (
  SELECT *, CAST(floor((x0 - 3.0) / 0.004) AS BIGINT) AS cx,
            CAST(floor((y0 - 50.7) / 0.004) AS BIGINT) AS cy
  FROM g
),
pairs AS (
  SELECT a.image_id AS img_a, b.image_id AS img_b
  FROM c a JOIN c b
    ON b.cx BETWEEN a.cx - 1 AND a.cx + 1
   AND b.cy BETWEEN a.cy - 1 AND a.cy + 1
   AND a.image_id < b.image_id
   AND a.x0 <= b.x1 AND b.x0 <= a.x1
   AND a.y0 <= b.y1 AND b.y0 <= a.y1
),
edges AS (
  SELECT img_a AS src, img_b AS dst FROM pairs
  UNION ALL
  SELECT img_b AS src, img_a AS dst FROM pairs
),
nodes AS (SELECT DISTINCT src AS node FROM edges),
reach(node, lbl) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.dst, r.lbl FROM reach r JOIN edges e ON e.src = r.node
)
SELECT node AS image_id, min(lbl) AS group_id, min(lbl) = node AS is_rep
FROM reach GROUP BY node
"""
    return o

ORACLES["orders_monthly_growth"] = """
WITH m AS (
  SELECT (year(o_orderdate) * 12 + month(o_orderdate) - 1) AS mkey,
         round(sum(o_totalprice), 4) AS revenue
  FROM orders GROUP BY 1
)
SELECT mkey, revenue,
       round(revenue / lag(revenue) OVER (ORDER BY mkey) - 1.0, 6)
         AS mom_growth
FROM m
QUALIFY mom_growth IS NOT NULL
ORDER BY mkey
"""

ORACLES["events_user_retention"] = """
WITH ud AS (
  SELECT DISTINCT user_id,
         datediff('day', DATE '1970-01-01', ts::DATE) AS dkey
  FROM events
)
SELECT a.dkey AS dkey, count(*) AS retained
FROM ud a JOIN ud b ON a.user_id = b.user_id AND b.dkey = a.dkey + 1
GROUP BY 1 ORDER BY dkey
"""

# Derived-partsupp CTE shared by q2/q11/q20 — the IDENTICAL integer
# arithmetic as queries._partsupp_expand (testdata ships no partsupp
# table; 4 deterministic supplier assignments per part, costs in cents).
_PARTSUPP_CTE = """
ns AS (SELECT count(*) AS n FROM supplier),
ps AS (
  SELECT p_partkey,
         ((p_partkey + i.i * (ns.n // 4)) % ns.n) + 1 AS ps_suppkey,
         ((p_partkey * 7 + i.i * 13) % 9999) + 1 AS ps_availqty,
         ((p_partkey * 31 + i.i * 17) % 100000) + 100 AS ps_cost_cents
  FROM part, ns, (VALUES (0), (1), (2), (3)) AS i(i)
)
"""

ORACLES["q2_min_cost_supplier"] = f"""
WITH {_PARTSUPP_CTE},
eu AS (
  SELECT s_suppkey, s_name, s_acctbal, n_name
  FROM supplier
  JOIN nation ON s_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'EUROPE'
),
cost AS (
  SELECT ps.p_partkey, ps.ps_cost_cents, eu.s_acctbal, eu.s_name, eu.n_name
  FROM ps
  JOIN part p ON ps.p_partkey = p.p_partkey
  JOIN eu ON ps.ps_suppkey = eu.s_suppkey
  WHERE p.p_type = 'LARGE'
),
mn AS (SELECT p_partkey, min(ps_cost_cents) AS min_cents
       FROM cost GROUP BY 1)
SELECT c.s_acctbal, c.s_name, c.n_name, c.p_partkey,
       CAST(c.ps_cost_cents AS DOUBLE) / 100.0 AS min_cost
FROM cost c JOIN mn ON c.p_partkey = mn.p_partkey
                   AND c.ps_cost_cents = mn.min_cents
ORDER BY c.s_acctbal DESC, c.n_name, c.s_name, c.p_partkey
LIMIT 100
"""

ORACLES["q11_important_stock"] = f"""
WITH {_PARTSUPP_CTE},
held AS (
  SELECT ps.p_partkey, ps.ps_cost_cents * ps.ps_availqty AS val_cents
  FROM ps
  JOIN supplier ON ps.ps_suppkey = s_suppkey
  JOIN nation ON s_nationkey = n_nationkey
  JOIN region ON n_regionkey = r_regionkey
  WHERE r_name = 'EUROPE'
),
per_part AS (
  SELECT p_partkey, sum(val_cents) AS value_cents FROM held GROUP BY 1
)
SELECT p_partkey, CAST(value_cents AS DOUBLE) / 100.0 AS value
FROM per_part
WHERE value_cents * 150 > (SELECT sum(value_cents) FROM per_part)
ORDER BY value DESC, p_partkey
"""

ORACLES["q20_excess_stock"] = f"""
WITH {_PARTSUPP_CTE},
sh AS (
  SELECT l_partkey, l_suppkey, sum(l_quantity) AS qty
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1997-01-01'
  GROUP BY 1, 2
),
excess AS (
  SELECT DISTINCT ps.ps_suppkey
  FROM ps JOIN sh ON ps.p_partkey = sh.l_partkey
                 AND ps.ps_suppkey = sh.l_suppkey
  WHERE 2 * ps.ps_availqty > sh.qty
)
SELECT s_suppkey, s_name
FROM supplier JOIN excess ON s_suppkey = ps_suppkey
JOIN nation ON s_nationkey = n_nationkey
WHERE n_name = 'NATION_3'
ORDER BY s_name
"""

ORACLES["doc_curation_pipeline"] = """
WITH f AS (
  SELECT doc_id, text, source
  FROM documents
  WHERE lang = 'en' AND n_chars BETWEEN 100 AND 20000
),
keep AS (SELECT md5(text) AS h, min(doc_id) AS doc_id FROM f GROUP BY 1)
SELECT f.doc_id,
       CASE WHEN b < 80 THEN 'train'
            WHEN b < 90 THEN 'val' ELSE 'test' END AS split,
       f.source,
       len(string_split(f.text, ' ')) AS n_tokens
FROM f
JOIN keep ON f.doc_id = keep.doc_id AND md5(f.text) = keep.h,
LATERAL (SELECT ('0x' || substring(
            md5('split:' || CAST(f.doc_id AS VARCHAR)), 1, 8))::UBIGINT
            % 100 AS b) l
ORDER BY f.doc_id
"""

ORACLES["events_first_last_value"] = """
SELECT DISTINCT user_id,
       round(FIRST_VALUE(value) OVER w, 6) AS first_value,
       round(LAST_VALUE(value) OVER
             (PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING),
             6) AS last_value,
       count(*) OVER (PARTITION BY user_id) AS n_events
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


# ----------------------------------------- LLM curation additions (round 4)

# Span-level exact dedup (Lee et al. 2022 semantics at n = 8 tokens):
# tokenization = split on single space (same convention as doc_token_counts);
# a window is duplicated iff its 8-token gram occurs in >= 2 DISTINCT docs.
# CAST(SUM(...) AS BIGINT): DuckDB SUM over integers returns HUGEINT, which
# lands in pandas as float64 (the r02/r03 dtype trap).
ORACLES["doc_substring_dup_spans"] = r"""
WITH t AS (
  SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS toks FROM documents
),
s AS (SELECT doc_id, toks, len(toks) AS nt FROM t),
g AS (
  SELECT doc_id, array_to_string(toks[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, toks, unnest(range(1, nt - 6)) AS i
        FROM s WHERE nt >= 8)
),
cd AS (SELECT doc_id, gram, count(*) AS cnt FROM g GROUP BY doc_id, gram),
dup AS (SELECT gram FROM cd GROUP BY gram HAVING count(*) >= 2),
dc AS (SELECT cd.doc_id, CAST(SUM(cd.cnt) AS BIGINT) AS ndup
       FROM cd JOIN dup USING (gram) GROUP BY cd.doc_id)
SELECT s.doc_id,
       CAST(greatest(nt - 7, 0) AS BIGINT) AS n_spans,
       CAST(COALESCE(dc.ndup, 0) AS BIGINT) AS n_dup_spans,
       round(CASE WHEN nt >= 8
                  THEN CAST(COALESCE(dc.ndup, 0) AS DOUBLE) / (nt - 7)
                  ELSE 0.0 END, 6) AS dup_frac
FROM s LEFT JOIN dc USING (doc_id)
"""

# Keep-best-per-near-dup-cluster curation: the doc_dup_clusters recursive
# CTE (same trigram-Jaccard graph + transitive closure) joined with the
# doc_quality_scores quality formula; keep = argmax quality per cluster,
# ties -> min doc_id. Both sides round quality to 6 dp before comparing, so
# the argmax is engine-independent.
ORACLES["doc_neardup_keep_best"] = r"""
WITH RECURSIVE w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents WHERE text IS NOT NULL AND trim(text) <> ''
),
tri AS (
  SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS tg
  FROM (SELECT doc_id, ws, unnest(range(1, len(ws) - 1)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT DISTINCT doc_id, array_to_string(ws, ' ') AS tg
  FROM w WHERE len(ws) < 3
),
sz AS (SELECT doc_id, count(*) AS n FROM tri GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
  FROM tri a JOIN tri b ON a.tg = b.tg AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
pairs AS (
  SELECT doc_a, doc_b
  FROM inter
  JOIN sz sa ON sa.doc_id = doc_a
  JOIN sz sb ON sb.doc_id = doc_b
  WHERE round(CAST(ni AS DOUBLE) / (sa.n + sb.n - ni), 6) >= 0.6
),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION ALL
  SELECT doc_b AS src, doc_a AS dst FROM pairs
),
reach(node, lbl) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.dst, r.lbl FROM reach r JOIN edges e ON e.src = r.node
),
clusters AS (
  SELECT node AS doc_id, min(lbl) AS cluster_id FROM reach GROUP BY node
),
f AS (
  SELECT doc_id,
         CAST(length(COALESCE(text,'')) AS DOUBLE) AS n,
         CAST(len(string_split(COALESCE(text,''), ' ')) AS DOUBLE) AS words,
         CAST(length(regexp_replace(COALESCE(text,''), '[^0-9]', '', 'g')) AS DOUBLE) AS digits,
         CAST(len(regexp_extract_all(lower(COALESCE(text,'')), '\bthe\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\band\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\bof\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\ba\b'))
            + len(regexp_extract_all(lower(COALESCE(text,'')), '\bto\b')) AS DOUBLE) AS stop_hits
  FROM documents
),
q AS (
  SELECT doc_id,
         round(0.4 * least(greatest(n / 200.0, 0.0), 1.0)
             + 0.3 * least(greatest(1.0 - 3.0 * digits / greatest(n, 1.0), 0.0), 1.0)
             + 0.3 * least(greatest(stop_hits / greatest(words * 0.05, 1.0), 0.0), 1.0), 6) AS quality
  FROM f
),
j AS (
  SELECT c.doc_id, c.cluster_id, q.quality
  FROM clusters c JOIN q USING (doc_id)
),
best AS (
  SELECT cluster_id, min(doc_id) AS keep_id
  FROM (SELECT cluster_id, doc_id, quality,
               max(quality) OVER (PARTITION BY cluster_id) AS qmax FROM j) z
  WHERE quality = qmax GROUP BY cluster_id
)
SELECT j.doc_id, j.cluster_id, j.quality, j.doc_id = b.keep_id AS keep
FROM j JOIN best b USING (cluster_id)
"""


# ------------------------------------- partitioned spatial joins (round 4)
# Rectangle layer derived from `orders` with integer-only arithmetic (the
# derived-partsupp trick) — identical expressions in queries.py:_rect_layer.
# All containment/overlap predicates are closed-interval and use products
# (never pow: numpy-vec-pow vs libm diverges by 1 ulp), so accept/reject
# decisions are bit-identical across engines.

_RECTS_SQL = """
  SELECT o_orderkey AS rect_id,
         3.0 + (((o_orderkey * 2654435761) % 4294967296) % 4280) / 1000.0
           AS lon0,
         50.7 + (((o_orderkey * 2246822519) % 4294967296) % 2880) / 1000.0
           AS lat0,
         (18 + (o_orderkey % 7) * 3) / 1000.0 AS w,
         (14 + (o_orderkey % 5) * 3) / 1000.0 AS h
  FROM orders
"""

ORACLES["geo_range_join"] = f"""
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
rects AS ({_RECTS_SQL})
SELECT p.event_id AS event_id, r.rect_id AS rect_id
FROM pts p JOIN rects r
  ON p.lon >= r.lon0 AND p.lon <= r.lon0 + r.w
 AND p.lat >= r.lat0 AND p.lat <= r.lat0 + r.h
"""

# eps-distance self-join; the xb band (floor(lon/0.012), +-1) is pruning
# only — cell edge 0.012 exceeds the predicate's lon reach 0.01 by 16%, so
# a qualifying pair can never straddle two band boundaries (ulp-safe); the
# exact predicate decides membership identically to the Ray kernel.
ORACLES["geo_near_pairs"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
b AS (
  SELECT event_id, lat, lon,
         CAST(floor(lon / 0.012) AS BIGINT) AS xb
  FROM pts
)
SELECT a.event_id AS id_a, p.event_id AS id_b
FROM b a
CROSS JOIN (VALUES (-1), (0), (1)) d(k)
JOIN b p ON p.xb = a.xb + d.k AND a.event_id < p.event_id
WHERE 1.8 * (a.lat - p.lat) * (a.lat - p.lat)
      + (a.lon - p.lon) * (a.lon - p.lon) <= 0.01 * 0.01
"""

# bbox-overlap self-join; band on floor(lon0/0.05): overlapping rects have
# |lon0_a - lon0_b| <= max rect width 0.036 << 0.05, band +-1 lossless.
ORACLES["geo_bbox_overlap_pairs"] = f"""
WITH r AS ({_RECTS_SQL}),
b AS (
  SELECT rect_id, lon0, lat0, lon0 + w AS lon1, lat0 + h AS lat1,
         CAST(floor(lon0 / 0.05) AS BIGINT) AS xb
  FROM r
)
SELECT a.rect_id AS id_a, p.rect_id AS id_b
FROM b a
CROSS JOIN (VALUES (-1), (0), (1)) d(k)
JOIN b p ON p.xb = a.xb + d.k AND a.rect_id < p.rect_id
WHERE a.lon0 <= p.lon1 AND p.lon0 <= a.lon1
  AND a.lat0 <= p.lat1 AND p.lat0 <= a.lat1
"""


# Span-REMOVAL accounting (Lee et al. 2022 second half): n_dup_tokens =
# |union of [i, i+8) over duplicated-window starts i| per doc. DuckDB uses
# 1-based window starts; only the covered-set CARDINALITY is compared, which
# is offset-invariant. CASTs: count(*)/len() land as HUGEINT/float otherwise.
ORACLES["doc_substring_dedup_tokens"] = r"""
WITH t AS (
  SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS toks FROM documents
),
s AS (SELECT doc_id, toks, len(toks) AS nt FROM t),
g AS (
  SELECT doc_id, i, array_to_string(toks[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, toks, unnest(range(1, nt - 6)) AS i
        FROM s WHERE nt >= 8)
),
dup AS (
  SELECT gram FROM (SELECT DISTINCT gram, doc_id FROM g)
  GROUP BY gram HAVING count(*) >= 2
),
cov AS (
  SELECT DISTINCT doc_id, pos
  FROM (SELECT g.doc_id, unnest(range(g.i, g.i + 8)) AS pos
        FROM g JOIN dup USING (gram))
),
cnt AS (SELECT doc_id, count(*) AS ndup FROM cov GROUP BY doc_id)
SELECT s.doc_id,
       CAST(nt AS BIGINT) AS n_tokens,
       CAST(COALESCE(cnt.ndup, 0) AS BIGINT) AS n_dup_tokens,
       round(CAST(nt - COALESCE(cnt.ndup, 0) AS DOUBLE) / nt, 6) AS keep_frac
FROM s LEFT JOIN cnt USING (doc_id)
"""


# Radius-bounded kNN join. The (xb, yb) +-1 band is pruning only — cell
# edge 0.024 exceeds the lon reach (0.02) and lat reach (0.02/sqrt(1.8))
# with margin, so no qualifying (point, site) pair can straddle two band
# boundaries; the exact d2 predicate and the (d2, site_id) window order
# decide membership identically to the Ray kernel on bit-identical
# doubles (shared 0.001-degree lattice, identical product expressions).
# Output is integer-only so the driver hash sees no float column.
ORACLES["geo_knn_join"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
sites AS (
  SELECT o_orderkey AS site_id,
         3.0 + (((o_orderkey * 2654435761) % 4294967296) % 4280) / 1000.0
           AS slon,
         50.7 + (((o_orderkey * 2246822519) % 4294967296) % 2880) / 1000.0
           AS slat
  FROM orders
),
pb AS (
  SELECT *, CAST(floor((lon - 3.0) / 0.024) AS BIGINT) AS xb,
            CAST(floor((lat - 50.7) / 0.024) AS BIGINT) AS yb
  FROM pts
),
sb AS (
  SELECT *, CAST(floor((slon - 3.0) / 0.024) AS BIGINT) AS xb,
            CAST(floor((slat - 50.7) / 0.024) AS BIGINT) AS yb
  FROM sites
),
cand AS (
  SELECT p.event_id, s.site_id,
         1.8 * (p.lat - s.slat) * (p.lat - s.slat)
           + (p.lon - s.slon) * (p.lon - s.slon) AS d2
  FROM pb p
  CROSS JOIN (VALUES (-1), (0), (1)) dx(i)
  CROSS JOIN (VALUES (-1), (0), (1)) dy(j)
  JOIN sb s ON s.xb = p.xb + dx.i AND s.yb = p.yb + dy.j
  WHERE 1.8 * (p.lat - s.slat) * (p.lat - s.slat)
          + (p.lon - s.slon) * (p.lon - s.slon) <= 0.02 * 0.02
)
SELECT event_id,
       CAST(row_number() OVER (PARTITION BY event_id
                               ORDER BY d2, site_id) AS BIGINT) AS rnk,
       site_id
FROM cand
QUALIFY rnk <= 3
"""


# Per-doc top-k TF-IDF terms. ln() is the same libm call the engine makes
# scalar per distinct df; score = one IEEE multiply -> bit-identical
# ordering keys on both engines; ties fall to the ASCII term (binary
# collation on both sides). CASTs: count(*) is HUGEINT-prone otherwise.
ORACLES["doc_tfidf_topterms"] = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(COALESCE(text, ''), ' ')) AS term
  FROM documents
),
cnt AS (
  SELECT doc_id, term, count(*) AS cnt FROM tok GROUP BY doc_id, term
),
dfreq AS (SELECT term, count(*) AS df FROM cnt GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
sc AS (
  SELECT c.doc_id, c.term, c.cnt, d.df,
         c.cnt * ln(CAST(n.n AS DOUBLE) / d.df) AS score
  FROM cnt c JOIN dfreq d USING (term) CROSS JOIN n
)
SELECT doc_id,
       CAST(row_number() OVER (PARTITION BY doc_id
                               ORDER BY score DESC, term) AS BIGINT) AS rnk,
       term,
       CAST(cnt AS BIGINT) AS cnt,
       CAST(df AS BIGINT) AS df,
       round(score, 6) AS tfidf
FROM sc
QUALIFY rnk <= 5
"""


# Sequence packing (concat-and-chunk): global running token total in
# doc_id order; chunk ids by integer division. CAST the windowed SUM —
# DuckDB widens it to HUGEINT which lands as float64 in pandas (the
# round-2/3 dtype trap); `//` on BIGINTs stays BIGINT.
ORACLES["doc_pack_chunks"] = """
WITH t AS (
  SELECT doc_id,
         CAST(len(string_split(COALESCE(text, ''), ' ')) AS BIGINT)
           AS n_tokens
  FROM documents
),
c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS prev_cum
  FROM t
)
SELECT doc_id, n_tokens,
       prev_cum // 512 AS first_chunk,
       (prev_cum + n_tokens - 1) // 512 AS last_chunk,
       (prev_cum + n_tokens - 1) // 512 - prev_cum // 512 + 1 AS n_chunks
FROM c
"""


# Top-k bigram collocations by PMI. The ordering key r is ONE IEEE divide
# of two exactly-int64->double-converted products — bit-identical to the
# engine's numpy divide; exact ties fall to (w1, w2). ln() applied only in
# the reported (rounded) column. lead() over the unnest position recovers
# adjacency; partition ends yield NULL w2 (no token is NULL — string_split
# never produces one), matching the engine's same-doc shift mask.
ORACLES["doc_bigram_pmi"] = """
WITH tok AS (
  SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS ws FROM documents
),
pos AS (
  SELECT doc_id, unnest(ws) AS w, unnest(range(1, len(ws) + 1)) AS p
  FROM tok
),
ucnt AS (SELECT w, count(*) AS c FROM pos GROUP BY w),
ntok AS (SELECT count(*) AS n FROM pos),
big AS (
  SELECT w AS w1, lead(w) OVER (PARTITION BY doc_id ORDER BY p) AS w2
  FROM pos
),
bcnt AS (
  SELECT w1, w2, count(*) AS cxy FROM big WHERE w2 IS NOT NULL
  GROUP BY w1, w2 HAVING count(*) >= 3
),
sc AS (
  SELECT b.w1, b.w2, CAST(b.cxy AS BIGINT) AS cxy,
         CAST(u1.c AS BIGINT) AS c1, CAST(u2.c AS BIGINT) AS c2,
         CAST(b.cxy * n.n AS DOUBLE) / CAST(u1.c * u2.c AS DOUBLE) AS r
  FROM bcnt b
  JOIN ucnt u1 ON u1.w = b.w1
  JOIN ucnt u2 ON u2.w = b.w2
  CROSS JOIN ntok n
)
SELECT w1, w2, cxy, c1, c2, round(ln(r), 6) AS pmi
FROM sc
QUALIFY row_number() OVER (ORDER BY r DESC, w1, w2) <= 100
"""


# Conversion funnel: first-occurrence stage times per user, strict-<
# ordering. The IN filter matches the engine's partial (users with no
# funnel-stage events are out of scope). NaN/NULL semantics align: the
# engine's np.where(~(t2 > t1)) is exactly the CASE's NULL-or-<= branch.
ORACLES["events_funnel"] = """
WITH f AS (
  SELECT user_id, event_type, ts FROM events
  WHERE event_type IN ('signup', 'click', 'purchase')
),
m AS (
  SELECT user_id,
         min(CASE WHEN event_type = 'signup' THEN ts END) AS t1,
         min(CASE WHEN event_type = 'click' THEN ts END) AS t2,
         min(CASE WHEN event_type = 'purchase' THEN ts END) AS t3
  FROM f GROUP BY user_id
)
SELECT depth, CAST(count(*) AS BIGINT) AS n_users
FROM (
  SELECT CAST(CASE WHEN t1 IS NULL THEN 0
                   WHEN t2 IS NULL OR t2 <= t1 THEN 1
                   WHEN t3 IS NULL OR t3 <= t2 THEN 2
                   ELSE 3 END AS BIGINT) AS depth
  FROM m
)
GROUP BY depth
"""


# Inverted-index build: df + first-10 ascending doc_ids per term. DuckDB
# list slicing is 1-based inclusive and clamps; int->string formatting is
# locale-free on both engines.
ORACLES["doc_inverted_index"] = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(COALESCE(text, ''), ' ')) AS term
  FROM documents
),
dt AS (SELECT DISTINCT term, doc_id FROM tok)
SELECT term, CAST(count(*) AS BIGINT) AS df,
       array_to_string(list(doc_id ORDER BY doc_id)[1:10], ',') AS posting
FROM dt GROUP BY term
"""


# Hourly OHLC bars: open/close picked by row_number over the (ts,
# event_id) total order — values are COPIED doubles, bit-exact; lo/hi/n
# are order-free aggregates. max(CASE...) collapses the picked row.
ORACLES["events_ohlc_bars"] = """
WITH e AS (
  SELECT event_type, date_trunc('hour', ts) AS hour, ts, event_id, value
  FROM events
),
r AS (
  SELECT *,
         row_number() OVER (PARTITION BY event_type, hour
                            ORDER BY ts, event_id) AS rn_a,
         row_number() OVER (PARTITION BY event_type, hour
                            ORDER BY ts DESC, event_id DESC) AS rn_d
  FROM e
)
SELECT event_type, hour,
       max(CASE WHEN rn_a = 1 THEN value END) AS open,
       max(value) AS high,
       min(value) AS low,
       max(CASE WHEN rn_d = 1 THEN value END) AS close,
       CAST(count(*) AS BIGINT) AS n
FROM r GROUP BY event_type, hour
"""


# Market-basket pair counts: the line-level self-join defines the pair
# multiplicity (two A-lines + one B-line in an order -> (A,B) twice);
# p1 < p2 canonicalizes. Integer-only output.
ORACLES["market_basket_pairs"] = """
WITH pc AS (
  SELECT a.l_partkey AS p1, b.l_partkey AS p2,
         CAST(count(*) AS BIGINT) AS n
  FROM lineitem a
  JOIN lineitem b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY a.l_partkey, b.l_partkey
  HAVING count(*) >= 2
)
SELECT p1, p2, n
FROM pc
QUALIFY row_number() OVER (ORDER BY n DESC, p1, p2) <= 100
"""


# Triangle counting over the co-purchase graph. The 3-way self-join is
# orientation-free; the canonical a<b<c edge orientation means each
# triangle appears exactly once in t. Top-k nodes by participation.
ORACLES["graph_triangles"] = """
WITH po AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (
  SELECT a.p AS p1, b.p AS p2
  FROM po a JOIN po b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p HAVING count(*) >= 2
),
t AS (
  SELECT e1.p1 AS a, e1.p2 AS b, e2.p2 AS c
  FROM e e1
  JOIN e e2 ON e2.p1 = e1.p2
  JOIN e e3 ON e3.p1 = e1.p1 AND e3.p2 = e2.p2
),
n AS (
  SELECT a AS p FROM t
  UNION ALL SELECT b FROM t
  UNION ALL SELECT c FROM t
)
SELECT p, CAST(count(*) AS BIGINT) AS n_tri
FROM n GROUP BY p
QUALIFY row_number() OVER (ORDER BY n_tri DESC, p) <= 100
"""


# Global rank/percentile transform: row_number over the (value, event_id)
# total order; pct is one IEEE divide of exactly-converted int64s. value
# is a copied double.
ORACLES["events_global_rank"] = """
WITH n AS (SELECT count(*) AS n FROM events)
SELECT event_id, value,
       CAST(row_number() OVER (ORDER BY value, event_id) AS BIGINT) AS rnk,
       CAST(row_number() OVER (ORDER BY value, event_id) AS DOUBLE)
         / CAST(n.n AS DOUBLE) AS pct
FROM events CROSS JOIN n
"""


# Nearest-error temporal join: banded on tol-width time buckets (an
# in-tolerance pair sits within +-1 buckets); nearest by the integer-only
# (|dt|, error ts, error id) order — bit-exact.
ORACLES["events_nearest_error"] = """
WITH p AS (
  SELECT event_id AS pid, epoch_us(ts) AS pus,
         epoch_us(ts) // 600000000 AS b
  FROM events WHERE event_type = 'purchase'
),
e AS (
  SELECT event_id AS eid, epoch_us(ts) AS eus,
         epoch_us(ts) // 600000000 AS b
  FROM events WHERE event_type = 'error'
),
c AS (
  SELECT p.pid, e.eid, e.eus - p.pus AS dt_us, e.eus
  FROM p JOIN e ON e.b BETWEEN p.b - 1 AND p.b + 1
  WHERE abs(e.eus - p.pus) <= 600000000
)
SELECT pid AS purchase_id, eid AS error_id, CAST(dt_us AS BIGINT) AS dt_us
FROM c
QUALIFY row_number() OVER (PARTITION BY pid
                           ORDER BY abs(dt_us), eus, eid) = 1
"""


# Decontamination: training docs (source <> 'src0') sharing a verbatim
# 8-gram with the eval set (source = 'src0'); n_contam counts the train
# doc's window POSITIONS whose gram occurs anywhere in eval. Same gram
# construction as the dup-spans oracle.
ORACLES["doc_decontaminate"] = r"""
WITH t AS (
  SELECT doc_id, source, string_split(COALESCE(text, ''), ' ') AS toks
  FROM documents
),
s AS (SELECT doc_id, source, toks, len(toks) AS nt FROM t),
g AS (
  SELECT doc_id, source, array_to_string(toks[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, source, toks, unnest(range(1, nt - 6)) AS i
        FROM s WHERE nt >= 8)
),
ev AS (SELECT DISTINCT gram FROM g WHERE source = 'src0')
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_contam
FROM g JOIN ev USING (gram)
WHERE source <> 'src0'
GROUP BY doc_id
"""


def _pagerank_sql(iters: int = 5, damping: float = 0.85,
                  min_orders: int = 2, k: int = 100) -> str:
    """Unrolled fixed-iteration PageRank over the co-purchase graph.

    The power method's fixed round count makes it SQL-expressible as a
    chain of `iters` CTEs (no recursion needed). Float parity with the
    engine: the teleport coefficient is the SAME Python double
    ``1 - damping`` serialized via repr into both engines (the literal
    0.15 is one ulp away from 1-0.85), and pr/outdeg is the identical
    IEEE divide (BIGINT outdeg promotes to double in DuckDB exactly as
    numpy converts int64)."""
    coef = 1.0 - damping
    parts = [f"""
WITH po AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
e AS (
  SELECT a.p AS p1, b.p AS p2
  FROM po a JOIN po b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p HAVING count(*) >= {min_orders}
),
dir AS (SELECT p1 AS s, p2 AS t FROM e UNION ALL SELECT p2 AS s, p1 AS t FROM e),
nodes AS (SELECT s AS node, count(*) AS outdeg FROM dir GROUP BY s),
nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM nodes),
pr0 AS (SELECT node, 1.0 / nn.n AS pr FROM nodes CROSS JOIN nn)"""]
    for i in range(iters):
        parts.append(f""",
pr{i + 1} AS (
  SELECT nd.node,
         {coef!r} / nn.n + {damping!r} * COALESCE(c.contrib, 0.0) AS pr
  FROM nodes nd CROSS JOIN nn
  LEFT JOIN (
    SELECT dd.t AS node, SUM(p.pr / sn.outdeg) AS contrib
    FROM dir dd
    JOIN pr{i} p ON p.node = dd.s
    JOIN nodes sn ON sn.node = dd.s
    GROUP BY dd.t
  ) c ON c.node = nd.node
)""")
    parts.append(f"""
SELECT node AS part_id, ROUND(pr * nn.n, 6) AS score
FROM pr{iters} CROSS JOIN nn
QUALIFY row_number() OVER (ORDER BY ROUND(pr * nn.n, 6) DESC, node) <= {k}
""")
    return "".join(parts)


ORACLES["graph_pagerank"] = _pagerank_sql()


# CDC-style snapshot diff: v2 is derived from orders by the same integer
# rules as the engine (delete %97, +10.0 price on %101, re-keyed insert
# on %103); the reconciliation is a FULL OUTER JOIN keeping only
# differing keys. -1.0 sentinels replace NULL prices (hash-compare
# safety). The +10.0 is an exact float64 add — identical bits in numpy
# and DuckDB — so the <> test needs no epsilon.
ORACLES["snapshot_diff"] = """
WITH v1 AS (SELECT o_orderkey AS k, o_totalprice AS price FROM orders),
v2 AS (
  SELECT o_orderkey AS k,
         CASE WHEN o_orderkey % 101 = 0 THEN o_totalprice + 10.0
              ELSE o_totalprice END AS price
  FROM orders WHERE o_orderkey % 97 <> 0
  UNION ALL
  SELECT o_orderkey + 1000000000 AS k, o_totalprice AS price
  FROM orders WHERE o_orderkey % 103 = 0
)
SELECT COALESCE(v1.k, v2.k) AS o_orderkey,
       CASE WHEN v2.k IS NULL THEN 'deleted'
            WHEN v1.k IS NULL THEN 'added'
            ELSE 'changed' END AS change,
       COALESCE(v1.price, -1.0) AS old_price,
       COALESCE(v2.price, -1.0) AS new_price
FROM v1 FULL JOIN v2 ON v1.k = v2.k
WHERE v1.k IS NULL OR v2.k IS NULL OR v1.price <> v2.price
"""


# Dataset profiling audit: per-column nulls + exact distincts. The
# engine's distinct is over stringified values — injective per dtype
# (int64/datetime64/varchar exactly; float64 via shortest-round-trip
# repr), so it equals COUNT(DISTINCT native) here.
_PROFILE_COLS = ["event_id", "ts", "user_id", "event_type", "value",
                 "props"]
ORACLES["events_table_profile"] = "\nUNION ALL\n".join(
    f"""SELECT '{c}' AS col_name,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count({c}) AS BIGINT) AS n_null,
       CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct
FROM events""" for c in _PROFILE_COLS)


ORACLES["doc_chunk_overlap"] = """
WITH t AS (SELECT doc_id, len(string_split(text, ' ')) AS n FROM documents),
e AS (
  SELECT doc_id, n, unnest(generate_series(0, CASE WHEN n <= 64 THEN 0
         ELSE (n - 64 + 47) // 48 END)) AS chunk_idx
  FROM t)
SELECT doc_id, chunk_idx, chunk_idx * 48 AS start_tok,
       least(64, n - chunk_idx * 48) AS chunk_tokens
FROM e
"""

# 13-bit Morton interleave written out as generated bit terms (the engine's
# _morton13 kernel, term for term)
_MORTON_TERMS = " | ".join(
    f"(((ix >> {b}) & 1) << {2 * b}) | (((iy >> {b}) & 1) << {2 * b + 1})"
    for b in range(13))

ORACLES["geo_zorder_layout"] = f"""
WITH pts AS (
  SELECT event_id, (event_id // 7) % 4300 AS ix, event_id % 2900 AS iy
  FROM events
), z AS (
  SELECT event_id, ix, iy, ({_MORTON_TERMS}) AS zkey FROM pts
), r AS (
  SELECT *, row_number() OVER (ORDER BY zkey, event_id) - 1 AS rk,
         count(*) OVER () AS n FROM z
)
SELECT (rk * 64) // n AS file_id, count(*) AS n_points,
       min(zkey) AS zkey_lo, max(zkey) AS zkey_hi,
       max(ix) - min(ix) AS x_span, max(iy) - min(iy) AS y_span
FROM r GROUP BY 1
"""

ORACLES["events_record_breakers"] = """
WITH o AS (
  SELECT event_id, value,
         max(value) OVER (ORDER BY ts, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM events)
SELECT event_id, value FROM o WHERE prev_max IS NULL OR value > prev_max
"""

ORACLES["geo_idw_interpolate"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
st AS (
  SELECT range AS sid,
         50.8 + ((range * 37) % 270) / 100.0 AS slat,
         3.1 + ((range * 73) % 410) / 100.0 AS slon,
         5.0 + ((range * 13) % 70) AS val
  FROM range(100)
),
d AS (
  SELECT p.event_id, s.val,
         (p.lat - s.slat) * (p.lat - s.slat) * 1.8
           + (p.lon - s.slon) * (p.lon - s.slon) AS d2,
         row_number() OVER (
           PARTITION BY p.event_id
           ORDER BY (p.lat - s.slat) * (p.lat - s.slat) * 1.8
                    + (p.lon - s.slon) * (p.lon - s.slon),
                    s.sid) AS rn
  FROM pts p CROSS JOIN st s
)
SELECT event_id,
       round(sum(val / (d2 + 1e-12)) / sum(1 / (d2 + 1e-12)), 6)
         AS idw_value
FROM d WHERE rn <= 4 GROUP BY event_id
"""

ORACLES["doc_shuffle_positions"] = """
SELECT doc_id,
       row_number() OVER (
         ORDER BY (doc_id * 2654435761 + 17 * 40503) % 4294967296,
                  doc_id) AS shuffle_pos
FROM documents
"""

ORACLES["doc_mixture_order"] = """
WITH r AS (SELECT doc_id, source,
             row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn,
             1.0 + (CAST(substr(source, 4) AS INT) % 4) AS w
           FROM documents)
SELECT doc_id, row_number() OVER (ORDER BY rn / w, doc_id) AS mix_pos FROM r
"""

ORACLES["geo_block_split"] = """
WITH b AS (
  SELECT ((event_id // 7) % 4300) // 64 AS tx,
         (event_id % 2900) // 64 AS ty
  FROM events
), s AS (
  SELECT tx, ty, count(*) AS n,
         CASE (tx * 73856093 + ty * 19349663) % 2147483647 % 10
           WHEN 0 THEN 'test' WHEN 1 THEN 'val' ELSE 'train' END AS split
  FROM b GROUP BY tx, ty
)
SELECT split, CAST(sum(n) AS BIGINT) AS n_points,
       CAST(count(*) AS BIGINT) AS n_blocks
FROM s GROUP BY split
"""


# ESDA spatial statistics: shared distance-band neighbor CTE (banded
# lon self-join, both directions) + global scalars. The band on
# floor(lon/0.012) +-1 is lossless: qualifying pairs have
# |dlon| <= 0.01 < 0.012. Predicate and statistic expressions are
# term-identical to the engine; fp reassociation is covered by the
# sweep tolerance.
_ESDA_SQL = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon,
         CAST(value AS DOUBLE) AS x
  FROM events
),
b AS (
  SELECT event_id, lat, lon, x,
         CAST(floor(lon / 0.012) AS BIGINT) AS xb
  FROM pts
),
nb AS (
  SELECT a.event_id, count(*) AS k, sum(p.x) AS sx
  FROM b a
  CROSS JOIN (VALUES (-1), (0), (1)) d(kk)
  JOIN b p ON p.xb = a.xb + d.kk AND p.event_id != a.event_id
  WHERE 1.8 * (a.lat - p.lat) * (a.lat - p.lat)
        + (a.lon - p.lon) * (a.lon - p.lon) <= 0.01 * 0.01
  GROUP BY a.event_id
),
g AS (
  SELECT CAST(count(*) AS DOUBLE) AS n, avg(x) AS xbar, var_pop(x) AS v
  FROM pts
)
"""

ORACLES["geo_getis_hotspots"] = _ESDA_SQL + """
SELECT p.event_id,
       CAST(COALESCE(nb.k, 0) AS BIGINT) AS n_neighbors,
       round((COALESCE(nb.sx, 0) + p.x - g.xbar * (COALESCE(nb.k, 0) + 1))
             / (sqrt(g.v) * sqrt((COALESCE(nb.k, 0) + 1.0)
                                 * (g.n - COALESCE(nb.k, 0) - 1.0)
                                 / (g.n - 1.0))), 6) AS gi_star
FROM pts p CROSS JOIN g LEFT JOIN nb USING (event_id)
"""

ORACLES["geo_local_moran"] = _ESDA_SQL + """
SELECT p.event_id,
       CAST(COALESCE(nb.k, 0) AS BIGINT) AS n_neighbors,
       round((p.x - g.xbar)
             * (COALESCE(nb.sx, 0) - COALESCE(nb.k, 0) * g.xbar)
             / g.v, 6) AS local_i
FROM pts p CROSS JOIN g LEFT JOIN nb USING (event_id)
"""

ORACLES["geo_moran_i"] = _ESDA_SQL + """
, t AS (
  SELECT sum((p.x - g.xbar)
             * (COALESCE(nb.sx, 0) - COALESCE(nb.k, 0) * g.xbar)) AS num,
         sum(COALESCE(nb.k, 0)) AS w
  FROM pts p CROSS JOIN g LEFT JOIN nb USING (event_id)
)
SELECT CAST(g.n AS BIGINT) AS n_points,
       CAST(t.w AS BIGINT) AS w_pairs,
       round(t.num / (t.w * g.v), 6) AS moran_i
FROM g, t
"""


# Focal 3x3 smoothing over the tile census: empty neighbor tiles
# contribute zero (inner join drops them; divisor fixed at 9).
ORACLES["geo_grid_density_smooth"] = """
WITH c AS (
  SELECT ((event_id // 7) % 4300) // 50 AS tile_x,
         (event_id % 2900) // 50 AS tile_y,
         count(*) AS n
  FROM events GROUP BY 1, 2
)
SELECT a.tile_x, a.tile_y, CAST(a.n AS BIGINT) AS n_points,
       round(sum(b.n) / 9.0, 6) AS smooth_density
FROM c a
CROSS JOIN (VALUES (-1), (0), (1)) dx(i)
CROSS JOIN (VALUES (-1), (0), (1)) dy(j)
JOIN c b ON b.tile_x = a.tile_x + dx.i AND b.tile_y = a.tile_y + dy.j
GROUP BY a.tile_x, a.tile_y, a.n
"""

ORACLES["events_markov_transitions"] = """
WITH s AS (
  SELECT event_type,
         lead(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
),
c AS (
  SELECT event_type AS prev_type, nxt AS next_type, count(*) AS n
  FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2
)
SELECT prev_type, next_type, CAST(n AS BIGINT) AS n_trans,
       round(CAST(n AS DOUBLE)
             / sum(n) OVER (PARTITION BY prev_type), 6) AS p_trans
FROM c
"""


# Per-user path statistics: LAG under (ts, event_id); step lengths are
# sqrt of the shared scaled-euclidean product expression (IEEE sqrt is
# correctly rounded -> identical per-step values in both engines).
ORACLES["geo_user_paths"] = """
WITH pts AS (
  SELECT user_id, ts, event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
),
s AS (
  SELECT user_id, lat, lon,
         lag(lat) OVER w AS plat, lag(lon) OVER w AS plon,
         first_value(lat) OVER w AS lat0,
         first_value(lon) OVER w AS lon0,
         row_number() OVER w AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM pts
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT user_id,
       CAST(max(n) - 1 AS BIGINT) AS n_steps,
       round(COALESCE(sum(sqrt(1.8 * (lat - plat) * (lat - plat)
                               + (lon - plon) * (lon - plon))), 0),
             6) AS path_len,
       round(max(CASE WHEN rn = n THEN
               sqrt(1.8 * (lat - lat0) * (lat - lat0)
                    + (lon - lon0) * (lon - lon0)) END),
             6) AS net_disp
FROM s GROUP BY user_id
"""


# Emerging hotspots: Mann-Kendall S per tile over the dense daily count
# series (missing days = 0). Integer-only.
ORACLES["geo_emerging_hotspots"] = """
WITH c AS (
  SELECT ((event_id // 7) % 4300) // 50 AS tile_x,
         (event_id % 2900) // 50 AS tile_y,
         epoch_us(ts) // 86400000000 AS day,
         count(*) AS n
  FROM events GROUP BY 1, 2, 3
),
wr AS (
  SELECT unnest(range((SELECT min(day) FROM c),
                      (SELECT max(day) FROM c) + 1)) AS day
),
tiles AS (SELECT DISTINCT tile_x, tile_y FROM c),
d AS (
  SELECT t.tile_x, t.tile_y, w.day, COALESCE(c.n, 0) AS n
  FROM tiles t CROSS JOIN wr w
  LEFT JOIN c ON c.tile_x = t.tile_x AND c.tile_y = t.tile_y
             AND c.day = w.day
),
s AS (
  SELECT a.tile_x, a.tile_y,
         CAST(sum(sign(b.n - a.n)) AS BIGINT) AS mk_s
  FROM d a JOIN d b ON b.tile_x = a.tile_x AND b.tile_y = a.tile_y
                   AND b.day > a.day
  GROUP BY a.tile_x, a.tile_y
)
SELECT s.tile_x, s.tile_y,
       CAST(t.n_events AS BIGINT) AS n_events, s.mk_s,
       CASE WHEN s.mk_s > 0 THEN 'up'
            WHEN s.mk_s < 0 THEN 'down' ELSE 'flat' END AS trend
FROM s JOIN (SELECT tile_x, tile_y, sum(n) AS n_events FROM c
             GROUP BY tile_x, tile_y) t
  ON t.tile_x = s.tile_x AND t.tile_y = s.tile_y
"""


# CUSUM change point per type over dense daily counts: the window
# cumulative sum evaluates left-to-right with the same operands as the
# engine's np.cumsum -> bit-identical partial sums; first-day tie-break.
ORACLES["events_cusum_changepoint"] = """
WITH c AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day, count(*) AS n
  FROM events GROUP BY 1, 2
),
wr AS (
  SELECT unnest(range((SELECT min(day) FROM c),
                      (SELECT max(day) FROM c) + 1)) AS day
),
types AS (SELECT DISTINCT event_type FROM c),
d AS (
  SELECT t.event_type, w.day, COALESCE(c.n, 0) AS n
  FROM types t CROSS JOIN wr w
  LEFT JOIN c ON c.event_type = t.event_type AND c.day = w.day
),
m AS (
  SELECT event_type,
         CAST(sum(n) AS DOUBLE) / count(*) AS xbar
  FROM d GROUP BY event_type
),
cu AS (
  SELECT d.event_type, d.day,
         sum(d.n - m.xbar) OVER (PARTITION BY d.event_type
                                 ORDER BY d.day) AS cum,
         m.xbar
  FROM d JOIN m USING (event_type)
)
SELECT event_type, CAST(day AS BIGINT) AS cp_day,
       round(cum, 6) AS cusum_at_cp, round(xbar, 6) AS mean_daily
FROM (SELECT *, row_number() OVER (PARTITION BY event_type
                                   ORDER BY abs(cum) DESC, day) AS rn
      FROM cu)
WHERE rn = 1
"""


# Station-coverage field: nearest-station distance per point (IEEE sqrt
# of the shared product metric), tile-aggregated.
ORACLES["geo_station_coverage"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon,
         ((event_id // 7) % 4300) // 50 AS tile_x,
         (event_id % 2900) // 50 AS tile_y
  FROM events
),
st AS (
  SELECT range AS sid,
         50.8 + ((range * 37) % 270) / 100.0 AS slat,
         3.1 + ((range * 73) % 410) / 100.0 AS slon
  FROM range(100)
),
nn AS (
  SELECT p.event_id, p.tile_x, p.tile_y,
         sqrt(min(1.8 * (p.lat - s.slat) * (p.lat - s.slat)
                  + (p.lon - s.slon) * (p.lon - s.slon))) AS d
  FROM pts p CROSS JOIN st s
  GROUP BY p.event_id, p.tile_x, p.tile_y
)
SELECT tile_x, tile_y,
       CAST(count(*) AS BIGINT) AS n_points,
       round(sum(d) / count(*), 6) AS mean_station_dist,
       round(max(d), 6) AS max_station_dist
FROM nn GROUP BY tile_x, tile_y
"""


# ----------------------------------------------------- round-5 additions

ORACLES["events_seasonality"] = """
SELECT event_type,
       CAST((epoch_us(ts) // 86400000000 + 4) % 7 AS BIGINT) AS dow,
       CAST((epoch_us(ts) % 86400000000) // 3600000000 AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n,
       round(sum(value) / count(*), 6) AS mean_value
FROM events GROUP BY 1, 2, 3
"""

ORACLES["events_benford"] = """
WITH d AS (
  SELECT event_type,
         CAST(substr(CAST(CAST(round(value * 100, 0) AS BIGINT) AS VARCHAR),
                     1, 1) AS BIGINT) AS digit
  FROM events WHERE value > 0
), c AS (
  SELECT event_type, digit, CAST(count(*) AS BIGINT) AS n
  FROM d GROUP BY 1, 2
)
SELECT event_type, digit, n,
       round(CAST(n AS DOUBLE)
             / sum(n) OVER (PARTITION BY event_type), 6) AS freq,
       round(log10(1.0 + 1.0 / digit), 6) AS benford_expected
FROM c
"""

ORACLES["geo_speed_outliers"] = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
), seg AS (
  SELECT user_id,
         us - lag(us) OVER w AS dt,
         lat - lag(lat) OVER w AS dlat,
         lon - lag(lon) OVER w AS dlon
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_segments,
       round(max(sqrt(1.8 * dlat * dlat + dlon * dlon) / (dt / 1e6)), 6)
           AS max_speed
FROM seg WHERE dt IS NOT NULL AND dt > 0
GROUP BY user_id
"""

ORACLES["geo_od_matrix"] = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         epoch_us(ts) // 86400000000 AS dkey,
         ((event_id // 7) % 4300) // 430 AS tx,
         (event_id % 2900) // 290 AS ty
  FROM events
), rn AS (
  SELECT user_id, dkey, tx, ty,
         row_number() OVER (PARTITION BY user_id, dkey
                            ORDER BY us, event_id) AS a,
         row_number() OVER (PARTITION BY user_id, dkey
                            ORDER BY us DESC, event_id DESC) AS b
  FROM e
), trips AS (
  SELECT f.user_id, f.tx AS ox, f.ty AS oy, l.tx AS dx, l.ty AS dy
  FROM (SELECT * FROM rn WHERE a = 1) f
  JOIN (SELECT * FROM rn WHERE b = 1) l USING (user_id, dkey)
)
SELECT CAST(ox AS BIGINT) AS ox, CAST(oy AS BIGINT) AS oy,
       CAST(dx AS BIGINT) AS dx, CAST(dy AS BIGINT) AS dy,
       CAST(count(*) AS BIGINT) AS n_trips,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM trips GROUP BY 1, 2, 3, 4
"""

ORACLES["events_autocorr_daily"] = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS dkey,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), l AS (SELECT range AS lag FROM range(1, 8)),
p AS (
  SELECT a.event_type, l.lag, a.c AS x, b.c AS y
  FROM d a CROSS JOIN l
  JOIN d b ON b.event_type = a.event_type AND b.dkey = a.dkey + l.lag
), s AS (
  SELECT event_type, lag, CAST(count(*) AS BIGINT) AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * y) AS BIGINT) AS sxy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy
  FROM p GROUP BY 1, 2
)
SELECT event_type, CAST(lag AS BIGINT) AS lag, n AS n_pairs,
       round((n * sxy - sx * sy)
             / (sqrt(CAST(n * sxx - sx * sx AS DOUBLE))
                * sqrt(CAST(n * syy - sy * sy AS DOUBLE))), 6) AS acf
FROM s
WHERE (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
"""


ORACLES["geo_ripley_k"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
), b AS (
  SELECT event_id, lat, lon,
         CAST(floor(lon / 0.031) AS BIGINT) AS xb
  FROM pts
), pr AS (
  SELECT 1.8 * (a.lat - c.lat) * (a.lat - c.lat)
         + (a.lon - c.lon) * (a.lon - c.lon) AS d2
  FROM b a JOIN b c
    ON c.xb BETWEEN a.xb - 1 AND a.xb + 1
   AND c.event_id != a.event_id
), s AS (
  SELECT
    CAST(sum(CASE WHEN d2 <= 0.01 * 0.01 THEN 1 ELSE 0 END) AS BIGINT) AS p0,
    CAST(sum(CASE WHEN d2 <= 0.02 * 0.02 THEN 1 ELSE 0 END) AS BIGINT) AS p1,
    CAST(sum(CASE WHEN d2 <= 0.03 * 0.03 THEN 1 ELSE 0 END) AS BIGINT) AS p2
  FROM pr
), n AS (SELECT count(*) AS n FROM events)
SELECT 0.01 AS r, p0 AS n_pairs,
       round((4.3 * 2.9 * p0) / (n.n * (n.n - 1.0)), 6) AS k_r FROM s, n
UNION ALL
SELECT 0.02, p1, round((4.3 * 2.9 * p1) / (n.n * (n.n - 1.0)), 6) FROM s, n
UNION ALL
SELECT 0.03, p2, round((4.3 * 2.9 * p2) / (n.n * (n.n - 1.0)), 6) FROM s, n
"""

ORACLES["geo_nearest_neighbor_stats"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon,
         ((event_id // 7) % 4300) // 50 AS tile_x,
         (event_id % 2900) // 50 AS tile_y
  FROM events
), b AS (
  SELECT *, CAST(floor(lon / 0.012) AS BIGINT) AS xb FROM pts
), nn AS (
  SELECT a.event_id, a.tile_x, a.tile_y,
         min(CASE WHEN 1.8 * (a.lat - c.lat) * (a.lat - c.lat)
                       + (a.lon - c.lon) * (a.lon - c.lon)
                       <= 0.012 * 0.012
                  THEN sqrt(1.8 * (a.lat - c.lat) * (a.lat - c.lat)
                            + (a.lon - c.lon) * (a.lon - c.lon)) END) AS d
  FROM b a LEFT JOIN b c
    ON c.xb BETWEEN a.xb - 1 AND a.xb + 1
   AND c.event_id != a.event_id
  GROUP BY 1, 2, 3
)
SELECT CAST(tile_x AS BIGINT) AS tile_x,
       CAST(tile_y AS BIGINT) AS tile_y,
       CAST(count(*) AS BIGINT) AS n_points,
       CAST(count(*) - count(d) AS BIGINT) AS n_censored,
       CASE WHEN count(d) > 0
            THEN round(sum(d) / count(d), 6) ELSE -1.0 END AS mean_nn,
       CASE WHEN count(d) > 0
            THEN round(min(d), 6) ELSE -1.0 END AS min_nn
FROM nn GROUP BY 1, 2
"""


ORACLES["geo_quadtree_tiles"] = """
WITH p AS (
  SELECT ((event_id // 7) % 4300) * 64 // 4300 AS tx,
         (event_id % 2900) * 64 // 2900 AS ty
  FROM events
), cap AS (SELECT greatest(1, count(*) // 50) AS c FROM events),
c6 AS (SELECT tx, ty, CAST(count(*) AS BIGINT) AS n FROM p GROUP BY 1, 2),
c5 AS (SELECT tx // 2 AS tx, ty // 2 AS ty, CAST(sum(n) AS BIGINT) AS n
       FROM c6 GROUP BY 1, 2),
c4 AS (SELECT tx // 2 AS tx, ty // 2 AS ty, CAST(sum(n) AS BIGINT) AS n
       FROM c5 GROUP BY 1, 2),
c3 AS (SELECT tx // 2 AS tx, ty // 2 AS ty, CAST(sum(n) AS BIGINT) AS n
       FROM c4 GROUP BY 1, 2),
c2 AS (SELECT tx // 2 AS tx, ty // 2 AS ty, CAST(sum(n) AS BIGINT) AS n
       FROM c3 GROUP BY 1, 2),
c1 AS (SELECT tx // 2 AS tx, ty // 2 AS ty, CAST(sum(n) AS BIGINT) AS n
       FROM c2 GROUP BY 1, 2),
c0 AS (SELECT tx // 2 AS tx, ty // 2 AS ty, CAST(sum(n) AS BIGINT) AS n
       FROM c1 GROUP BY 1, 2),
-- s_l: tiles at level l that SPLIT (count > cap, every ancestor split)
s0 AS (SELECT tx, ty FROM c0, cap WHERE n > cap.c),
s1 AS (SELECT c1.tx, c1.ty FROM c1
       JOIN s0 ON s0.tx = c1.tx // 2 AND s0.ty = c1.ty // 2, cap
       WHERE c1.n > cap.c),
s2 AS (SELECT c2.tx, c2.ty FROM c2
       JOIN s1 ON s1.tx = c2.tx // 2 AND s1.ty = c2.ty // 2, cap
       WHERE c2.n > cap.c),
s3 AS (SELECT c3.tx, c3.ty FROM c3
       JOIN s2 ON s2.tx = c3.tx // 2 AND s2.ty = c3.ty // 2, cap
       WHERE c3.n > cap.c),
s4 AS (SELECT c4.tx, c4.ty FROM c4
       JOIN s3 ON s3.tx = c4.tx // 2 AND s3.ty = c4.ty // 2, cap
       WHERE c4.n > cap.c),
s5 AS (SELECT c5.tx, c5.ty FROM c5
       JOIN s4 ON s4.tx = c5.tx // 2 AND s4.ty = c5.ty // 2, cap
       WHERE c5.n > cap.c)
SELECT CAST(0 AS BIGINT) AS level, tx, ty, n AS n_points FROM c0, cap
WHERE n <= cap.c
UNION ALL
SELECT 1, c1.tx, c1.ty, c1.n FROM c1
JOIN s0 ON s0.tx = c1.tx // 2 AND s0.ty = c1.ty // 2, cap
WHERE c1.n <= cap.c
UNION ALL
SELECT 2, c2.tx, c2.ty, c2.n FROM c2
JOIN s1 ON s1.tx = c2.tx // 2 AND s1.ty = c2.ty // 2, cap
WHERE c2.n <= cap.c
UNION ALL
SELECT 3, c3.tx, c3.ty, c3.n FROM c3
JOIN s2 ON s2.tx = c3.tx // 2 AND s2.ty = c3.ty // 2, cap
WHERE c3.n <= cap.c
UNION ALL
SELECT 4, c4.tx, c4.ty, c4.n FROM c4
JOIN s3 ON s3.tx = c4.tx // 2 AND s3.ty = c4.ty // 2, cap
WHERE c4.n <= cap.c
UNION ALL
SELECT 5, c5.tx, c5.ty, c5.n FROM c5
JOIN s4 ON s4.tx = c5.tx // 2 AND s4.ty = c5.ty // 2, cap
WHERE c5.n <= cap.c
UNION ALL
SELECT 6, c6.tx, c6.ty, c6.n FROM c6
JOIN s5 ON s5.tx = c6.tx // 2 AND s5.ty = c6.ty // 2
"""


ORACLES["geo_direction_rose"] = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS us,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon
  FROM events
), seg AS (
  SELECT lat - lag(lat) OVER w AS dlat,
         lon - lag(lon) OVER w AS dlon
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us, event_id)
), b AS (
  SELECT CASE
    WHEN abs(dlon) > abs(dlat) AND dlon > 0 AND dlat >= 0 THEN 0
    WHEN abs(dlon) > abs(dlat) AND dlon > 0 AND dlat < 0 THEN 1
    WHEN abs(dlon) > abs(dlat) AND dlon < 0 AND dlat >= 0 THEN 2
    WHEN abs(dlon) > abs(dlat) AND dlon < 0 AND dlat < 0 THEN 3
    WHEN dlat > 0 AND dlon >= 0 THEN 4
    WHEN dlat > 0 AND dlon < 0 THEN 5
    WHEN dlat < 0 AND dlon >= 0 THEN 6
    WHEN dlat < 0 AND dlon < 0 THEN 7
    END AS octant
  FROM seg WHERE dlat IS NOT NULL
)
SELECT CAST(octant AS BIGINT) AS octant,
       CAST(count(*) AS BIGINT) AS n_segments
FROM b WHERE octant IS NOT NULL GROUP BY 1
"""

ORACLES["events_gini"] = """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
), r AS (
  SELECT c, row_number() OVER (ORDER BY c, user_id) AS rn,
         count(*) OVER () AS n
  FROM c
)
SELECT CAST(max(n) AS BIGINT) AS n_users,
       round(CAST(sum((2 * rn - n - 1) * c) AS DOUBLE)
             / CAST(max(n) * sum(c) AS DOUBLE), 6) AS gini
FROM r
"""


ORACLES["events_pareto_front"] = """
WITH e AS (
  SELECT event_id, epoch_us(ts) AS us, round(value, 6) AS v FROM events
), g AS (
  SELECT v, max(us) AS gmax FROM e GROUP BY v
), p AS (
  SELECT v, max(gmax) OVER (ORDER BY v DESC
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING) AS before
  FROM g
)
SELECT e.event_id, e.v AS value, e.us
FROM e JOIN p USING (v)
WHERE p.before IS NULL OR e.us > p.before
"""


ORACLES["events_user_entropy"] = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), u AS (
  SELECT user_id, CAST(sum(c) AS BIGINT) AS n,
         sum(c * ln(c)) AS s
  FROM c GROUP BY 1
)
SELECT user_id, n, round(ln(n) - s / n, 6) AS entropy FROM u
"""

ORACLES["events_theil_sen"] = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS dkey,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), p AS (
  SELECT a.event_type,
         CAST(b.c - a.c AS DOUBLE) / CAST(b.dkey - a.dkey AS DOUBLE)
             AS slope
  FROM d a JOIN d b
    ON b.event_type = a.event_type AND b.dkey > a.dkey
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_pairs,
       round(median(slope), 6) AS slope
FROM p GROUP BY 1
"""


ORACLES["events_ks_drift"] = """
WITH f AS (
  SELECT round(value, 6) AS v, event_type AS t FROM events
  WHERE event_type IN ('view', 'purchase')
), c AS (
  SELECT v,
         CAST(sum(CASE WHEN t = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS ca,
         CAST(sum(CASE WHEN t = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
             AS cb
  FROM f GROUP BY v
), w AS (
  SELECT v,
         CAST(sum(ca) OVER (ORDER BY v) AS DOUBLE)
             / (SELECT sum(ca) FROM c) AS fa,
         CAST(sum(cb) OVER (ORDER BY v) AS DOUBLE)
             / (SELECT sum(cb) FROM c) AS fb
  FROM c
), d AS (SELECT v, abs(fa - fb) AS d FROM w)
SELECT (SELECT CAST(sum(ca) AS BIGINT) FROM c) AS n_a,
       (SELECT CAST(sum(cb) AS BIGINT) FROM c) AS n_b,
       round(d, 6) AS ks_d, v AS at_value
FROM d
WHERE (SELECT sum(ca) FROM c) > 0 AND (SELECT sum(cb) FROM c) > 0
ORDER BY d DESC, v LIMIT 1
"""


ORACLES["events_mann_whitney"] = """
WITH f AS (
  SELECT round(value, 6) AS v, event_type AS t FROM events
  WHERE event_type IN ('view', 'purchase')
), c AS (
  SELECT v,
         CAST(sum(CASE WHEN t = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS ca,
         CAST(sum(CASE WHEN t = 'purchase' THEN 1 ELSE 0 END) AS BIGINT)
             AS cb
  FROM f GROUP BY v
), w AS (
  SELECT ca, cb, ca + cb AS tt,
         CAST(sum(ca + cb) OVER (ORDER BY v) AS BIGINT) AS cum
  FROM c
), s AS (
  SELECT CAST(sum(ca) AS BIGINT) AS na, CAST(sum(cb) AS BIGINT) AS nb,
         CAST(sum(((cum - tt) + cum + 1) * ca) AS BIGINT) AS r2a,
         CAST(sum(tt * tt * tt - tt) AS BIGINT) AS tie
  FROM w
)
SELECT na AS n_a, nb AS n_b,
       (r2a - na * (na + 1)) / 2.0 AS u_a,
       round(((r2a - na * (na + 1)) - na * nb)
             / (2.0 * sqrt((na * nb / 12.0)
                 * ((na + nb + 1)
                    - tie / CAST((na + nb) * (na + nb - 1) AS DOUBLE)))),
             6) AS z
FROM s WHERE na > 0 AND nb > 0
"""

ORACLES["events_runs_test"] = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS dkey,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
), df AS (
  SELECT event_type, dkey,
         c - lag(c) OVER (PARTITION BY event_type ORDER BY dkey) AS dc
  FROM d
), s AS (
  SELECT event_type, dkey, CASE WHEN dc > 0 THEN 1 ELSE -1 END AS sgn
  FROM df WHERE dc IS NOT NULL AND dc != 0
), ch AS (
  SELECT event_type, sgn,
         lag(sgn) OVER (PARTITION BY event_type ORDER BY dkey) AS prev
  FROM s
), agg AS (
  SELECT event_type,
         CAST(sum(CASE WHEN sgn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_up,
         CAST(sum(CASE WHEN sgn = -1 THEN 1 ELSE 0 END) AS BIGINT)
             AS n_down,
         CAST(1 + sum(CASE WHEN prev IS NOT NULL AND sgn != prev
                           THEN 1 ELSE 0 END) AS BIGINT) AS runs
  FROM ch GROUP BY 1
)
SELECT event_type, n_up, n_down, runs,
       round((runs - (2.0 * n_up * n_down / (n_up + n_down) + 1.0))
             / sqrt(2.0 * n_up * n_down
                    * (2.0 * n_up * n_down - (n_up + n_down))
                    / (CAST(n_up + n_down AS DOUBLE) * (n_up + n_down)
                       * (n_up + n_down - 1))), 6) AS z
FROM agg WHERE n_up > 0 AND n_down > 0
"""


ORACLES["geo_bivariate_moran"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon,
         CAST(value AS DOUBLE) AS x,
         ((event_id * 13) % 1000) / 1000.0 AS y
  FROM events
),
b AS (
  SELECT event_id, lat, lon, x, y,
         CAST(floor(lon / 0.012) AS BIGINT) AS xb
  FROM pts
),
nb AS (
  SELECT a.event_id, count(*) AS k, sum(p.y) AS sy
  FROM b a
  CROSS JOIN (VALUES (-1), (0), (1)) d(kk)
  JOIN b p ON p.xb = a.xb + d.kk AND p.event_id != a.event_id
  WHERE 1.8 * (a.lat - p.lat) * (a.lat - p.lat)
        + (a.lon - p.lon) * (a.lon - p.lon) <= 0.01 * 0.01
  GROUP BY a.event_id
),
g AS (
  SELECT CAST(count(*) AS DOUBLE) AS n,
         avg(x) AS xbar, var_pop(x) AS vx,
         avg(y) AS ybar, var_pop(y) AS vy
  FROM pts
)
SELECT CAST(g.n AS BIGINT) AS n_points,
       CAST(sum(nb.k) AS BIGINT) AS w_pairs,
       round(sum((p.x - g.xbar) * (nb.sy - nb.k * g.ybar))
             / (sum(nb.k) * sqrt(g.vx) * sqrt(g.vy)), 6) AS moran_ixy
FROM pts p JOIN nb USING (event_id) CROSS JOIN g
GROUP BY g.n, g.xbar, g.vx, g.ybar, g.vy
"""


ORACLES["geo_colocation_quotient"] = """
WITH pts AS (
  SELECT event_id,
         50.7 + (event_id % 2900) / 1000.0 AS lat,
         3.0 + ((event_id // 7) % 4300) / 1000.0 AS lon,
         event_type AS t
  FROM events
),
b AS (
  SELECT event_id, lat, lon, t,
         CAST(floor(lon / 0.012) AS BIGINT) AS xb
  FROM pts
),
nb AS (
  SELECT a.event_id, a.t AS ta, p.t AS tb
  FROM b a
  CROSS JOIN (VALUES (-1), (0), (1)) d(kk)
  JOIN b p ON p.xb = a.xb + d.kk AND p.event_id != a.event_id
  WHERE 1.8 * (a.lat - p.lat) * (a.lat - p.lat)
        + (a.lon - p.lon) * (a.lon - p.lon) <= 0.01 * 0.01
),
perpt AS (
  SELECT event_id, ta, tb, CAST(count(*) AS DOUBLE) AS nbt,
         CAST(sum(count(*)) OVER (PARTITION BY event_id) AS DOUBLE) AS k
  FROM nb GROUP BY event_id, ta, tb
),
s AS (
  SELECT ta AS type_a, tb AS type_b, sum(nbt / k) AS ssum
  FROM perpt GROUP BY 1, 2
),
na AS (
  SELECT ta AS type_a, CAST(count(DISTINCT event_id) AS BIGINT) AS n_a
  FROM nb GROUP BY 1
),
cnt AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
        FROM events GROUP BY 1),
tot AS (SELECT count(*) AS n FROM events)
SELECT s.type_a, s.type_b, na.n_a,
       round((ssum / na.n_a)
             / ((cnt.n - CASE WHEN s.type_a = s.type_b
                              THEN 1 ELSE 0 END)
                / (tot.n - 1.0)), 6) AS clq
FROM s
JOIN na USING (type_a)
JOIN cnt ON cnt.event_type = s.type_b
CROSS JOIN tot
"""


ORACLES["events_lorenz_deciles"] = """
WITH c AS (
  SELECT user_id, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
), r AS (
  SELECT c, row_number() OVER (ORDER BY c, user_id) AS rn,
         count(*) OVER () AS n,
         sum(c) OVER (ORDER BY c, user_id) AS cum,
         sum(c) OVER () AS tot
  FROM c
), d AS (SELECT range AS k FROM range(1, 11))
SELECT k AS decile,
       CAST((k * r.n + 9) // 10 AS BIGINT) AS n_users,
       CAST(max(CASE WHEN rn <= (k * r.n + 9) // 10 THEN cum END)
            AS BIGINT) AS cum_events,
       round(CAST(max(CASE WHEN rn <= (k * r.n + 9) // 10 THEN cum END)
                  AS DOUBLE) / CAST(max(tot) AS DOUBLE), 6) AS cum_share
FROM d CROSS JOIN r
GROUP BY k, r.n
"""
