"""Text kernels + dedup sketch unit tests."""

import numpy as np
import pandas as pd
import pytest

import reference_forms as ref
from tiff_enrichment_pipeline_ray.functions import sketch, textkernels as tk


class TestTextKernels:
    def test_md5_matches_duckdb(self):
        import duckdb

        s = pd.Series(["hello world", "", "Ünïcode tëxt"])
        got = tk.md5_hex(s)
        con = duckdb.connect()
        for text, h in zip(s, got):
            want = con.sql("select md5(?)", params=[text]).fetchone()[0]
            assert h == want

    def test_token_count_single_space_semantics(self):
        s = pd.Series(["a b  c", "", "one"])
        assert tk.token_count(s).tolist() == [4, 1, 1]

    def test_quality_counts(self):
        s = pd.Series(["Ab1. c,"])
        q = tk.quality_counts(s)
        assert q["n_chars"][0] == 7 and q["n_spaces"][0] == 1
        assert q["n_periods"][0] == 1 and q["n_commas"][0] == 1
        assert q["n_digits"][0] == 1 and q["n_upper"][0] == 1

    def test_quality_score_range_and_order(self):
        good = "The quick brown fox jumps over the lazy dog and runs to the hills. " * 4
        bad = "3141592653 5897932384 6264338327"
        s = tk.quality_score(pd.Series([good, bad]))
        assert 0 <= s[1] < s[0] <= 1

    def test_lang_id(self):
        s = pd.Series(["the cat and the dog of the house",
                       "der hund und die katze",
                       "le chat et la maison",
                       "zzz qqq xxx"])
        assert tk.lang_id(s).tolist() == ["en", "de", "fr", "und"]

    def test_repetition_stats_vs_bruteforce(self):
        from collections import Counter

        texts = ["a a a b c", "", "one", "x y x y x y", "w " * 50 + "end"]
        s = pd.Series(texts)
        st = tk.repetition_stats(s)
        for i, t in enumerate(texts):
            c = Counter(t.split(" "))
            assert st["n_words"][i] == len(t.split(" "))
            assert st["n_distinct"][i] == len(c)
            assert st["top_cnt"][i] == max(c.values())

    def test_pii_scrub_redacts_and_counts(self):
        s = pd.Series([
            "mail me at jane.doe+x@example.co.uk or bob@test.org now",
            "call 555-123-4567 or 555.987.6543",
            "server at 192.168.0.1 and 10.0.0.255 up",
            "clean text with no pii at all",
            None,
        ])
        n_emails, n_phones, n_ips, cleaned = tk.pii_scrub(s)
        assert n_emails.tolist() == [2, 0, 0, 0, 0]
        assert n_phones.tolist() == [0, 2, 0, 0, 0]
        assert n_ips.tolist() == [0, 0, 2, 0, 0]
        assert cleaned[0] == "mail me at <EMAIL> or <EMAIL> now"
        assert cleaned[1] == "call <PHONE> or <PHONE>"
        assert cleaned[2] == "server at <IP> and <IP> up"
        assert cleaned[3] == "clean text with no pii at all"
        assert cleaned[4] == ""

    def test_pii_scrub_matches_duckdb_semantics(self):
        """The driver oracle only sees PII-free testdata; pin the regex
        semantics against DuckDB's RE2 on actual PII here."""
        import duckdb

        s = pd.Series([
            "jane.doe+x@example.co.uk wrote from 192.168.0.1, call 555-123-4567",
            "edge 999.999.999.999 and a@b.io and 123.456.7890",
        ])
        n_emails, n_phones, n_ips, cleaned = tk.pii_scrub(s)
        con = duckdb.connect()
        for i, t in enumerate(s):
            row = con.sql(
                "SELECT len(regexp_extract_all(?, ?)), len(regexp_extract_all(?, ?)),"
                " len(regexp_extract_all(?, ?)),"
                " regexp_replace(regexp_replace(regexp_replace(?, ?, '<EMAIL>', 'g'),"
                "   ?, '<IP>', 'g'), ?, '<PHONE>', 'g')",
                params=[t, tk.PII_EMAIL, t, tk.PII_PHONE, t, tk.PII_IP,
                        t, tk.PII_EMAIL, tk.PII_IP, tk.PII_PHONE]).fetchone()
            assert row[0] == n_emails[i] and row[1] == n_phones[i] and row[2] == n_ips[i]
            assert row[3] == cleaned[i]

    def test_fingerprint_deterministic(self):
        s = pd.Series(["doc one", "doc two"])
        a = tk.fingerprint64(s)
        b = tk.fingerprint64(s)
        assert (a == b).all() and a[0] != a[1] and (a >= 0).all()


class TestSketches:
    def test_minhash_similarity_estimate(self):
        a_text = "the quick brown fox jumps over the lazy dog " * 5
        b_text = a_text.replace("lazy", "sleepy")
        a_sh = ref.shingle_hashes(a_text, 3)
        b_sh = ref.shingle_hashes(b_text, 3)
        true_j = sketch.jaccard(a_sh, b_sh)
        pa_, pb_ = sketch.minhash_params(256)
        sa = ref.minhash_signature(a_sh, pa_, pb_)
        sb = ref.minhash_signature(b_sh, pa_, pb_)
        est = (sa == sb).mean()
        assert est == pytest.approx(true_j, abs=0.15)

    def test_lsh_identical_docs_collide(self):
        sh = sketch.shingle_hashes_batch(["identical text content here"] * 2, 3)
        a, b = sketch.minhash_params(64)
        s = sketch.minhash_signatures_batch(sh, a, b)
        k1 = sketch.lsh_band_keys_batch(s[:1], 16)[0]
        k2 = sketch.lsh_band_keys_batch(s[1:].copy(), 16)[0]
        assert (k1 == k2).all()

    def test_simhash_near_docs_low_hamming(self):
        a_text = "spark ray data processing engine with many operators " * 10
        b_text = a_text + "tail"
        ha, hb, hc = sketch.simhash64_batch(sketch.shingle_hashes_batch(
            [a_text, b_text, "completely different words entirely"], 3))

        def hamming(x, y):
            return bin(int(x) ^ int(y)).count("1")

        assert hamming(ha, hb) < hamming(ha, hc)

    def test_jaccard_edges(self):
        e = np.empty(0, dtype=np.uint64)
        x = ref.shingle_hashes("a b c d", 3)
        assert sketch.jaccard(e, e) == 1.0
        assert sketch.jaccard(x, e) == 0.0
        assert sketch.jaccard(x, x) == 1.0


class TestNgramJaccardJoin:
    """Prefix-filter exact similarity join: the result must equal the
    brute-force all-pairs trigram-Jaccard join (lossless by construction)."""

    def test_pairs_equal_brute(self, ray_session):
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.functions import sketch
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            doc_ngram_jaccard_pairs,
        )

        t = 0.6
        from tools.minidriver import to_pandas

        got = to_pandas(
            doc_ngram_jaccard_pairs("/root/testdata/sf0.001", threshold=t))
        docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas()
        sh = sketch.shingle_hashes_batch(docs.text.fillna("").tolist(), k=3)
        ids = docs.doc_id.to_numpy()
        want = set()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if sketch.jaccard(sh[i], sh[j]) >= t:
                    a, b = sorted((int(ids[i]), int(ids[j])))
                    want.add((a, b))
        assert set(zip(got.doc_a, got.doc_b)) == want
        assert len(got) > 0  # fixture has dup families by construction


class TestSimhashPairJoin:
    """Banded hamming-bucket join is lossless for d <= 3 (pigeonhole over
    4 disjoint 16-bit bands) — must equal brute-force popcount all-pairs."""

    def test_pairs_equal_brute(self, ray_session):
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.functions import sketch
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            dedup_simhash_pairs,
        )

        from tools.minidriver import to_pandas

        got = to_pandas(
            dedup_simhash_pairs("/root/testdata/sf0.001", max_hamming=3))
        docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                             columns=["doc_id", "text"]).to_pandas()
        sh = sketch.shingle_hashes_batch(docs.text.fillna("").tolist(), k=3)
        sim = sketch.simhash64_batch(sh).astype(np.uint64)
        ids = docs.doc_id.to_numpy()
        want = set()
        for i in range(len(ids)):
            x = sim[i] ^ sim[i + 1:]
            for j, v in enumerate(x):
                if int(v).bit_count() <= 3:
                    a, b = sorted((int(ids[i]), int(ids[i + 1 + j])))
                    want.add((a, b))
        assert set(zip(got.doc_a, got.doc_b)) == want
        assert len(got) > 0


class TestHLL:
    """HyperLogLog: exact-rank registers, mergeability, error bound, and the
    distributed query against the exact distinct."""

    def test_estimate_accuracy_and_merge(self):
        from tiff_enrichment_pipeline_ray.functions import hll

        keys = np.arange(50_000, dtype=np.int64) * 7919 + 13
        full = hll.registers(keys, p=12)
        est = hll.estimate(full)
        assert abs(est - 50_000) / 50_000 < 0.05
        # merge of disjoint halves == registers of the union (associativity)
        merged = hll.merge(hll.registers(keys[:25_000], p=12),
                           hll.registers(keys[25_000:], p=12))
        assert np.array_equal(merged, full)
        # idempotent: duplicates don't move the registers
        assert np.array_equal(hll.registers(np.repeat(keys, 3), p=12), full)

    def test_small_range_linear_counting(self):
        from tiff_enrichment_pipeline_ray.functions import hll

        keys = np.arange(100, dtype=np.int64)
        assert abs(hll.estimate(hll.registers(keys, p=12)) - 100) < 5

    def test_query_within_tolerance(self, ray_session):
        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            events_hll_users,
        )

        got = events_hll_users("/root/testdata/sf0.001").to_pandas()
        ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet",
                             columns=["event_type", "user_id"])
        exact = ev.groupby("event_type").user_id.nunique()
        assert len(got) == len(exact)
        for _, r in got.iterrows():
            e = exact[r.event_type]
            assert abs(r.approx_users - e) / e < 0.1, (r.event_type, r.approx_users, e)


class TestTDigest:
    """Mergeable t-digest (functions/tdigest.py) — the extreme-cardinality
    percentile scale path."""

    def _sample(self, n=200_000):
        rng = np.random.default_rng(7)
        return rng.lognormal(mean=0.0, sigma=1.2, size=n)

    def test_rank_accuracy(self):
        from tiff_enrichment_pipeline_ray.functions import tdigest as td

        x = self._sample()
        m, w = td.build(x, delta=400.0)
        xs = np.sort(x)
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            est = float(td.quantile(m, w, q))
            rank = np.searchsorted(xs, est) / len(xs)
            assert abs(rank - q) < 0.01, (q, rank)

    def test_merge_matches_whole(self):
        from tiff_enrichment_pipeline_ray.functions import tdigest as td

        x = self._sample(80_000)
        parts = [td.build(c, delta=400.0) for c in np.array_split(x, 7)]
        m, w = td.merge(parts, delta=400.0)
        assert abs(w.sum() - len(x)) < 1e-6  # weight is conserved exactly
        xs = np.sort(x)
        for q in (0.25, 0.5, 0.75):
            est = float(td.quantile(m, w, q))
            rank = np.searchsorted(xs, est) / len(xs)
            assert abs(rank - q) < 0.015, (q, rank)

    def test_size_bound_and_determinism(self):
        from tiff_enrichment_pipeline_ray.functions import tdigest as td

        x = self._sample(50_000)
        m, w = td.build(x, delta=200.0)
        assert len(m) <= 220  # ≤ ~delta centroids
        m2, w2 = td.build(x, delta=200.0)
        assert np.array_equal(m, m2) and np.array_equal(w, w2)
        # order-insensitive: shuffled input → identical digest
        m3, w3 = td.build(x[::-1].copy(), delta=200.0)
        assert np.allclose(m, m3) and np.allclose(w, w3)


class TestBloom:
    """Packed Bloom filter (functions/bloom.py) used for broadcast
    semi-join pruning."""

    def test_no_false_negatives(self):
        from tiff_enrichment_pipeline_ray.functions import bloom as bf

        keys = np.arange(1, 10_001, dtype=np.int64) * 7919
        bits = bf.add(bf.empty(20), keys)
        assert bf.might_contain(bits, keys).all()

    def test_false_positive_rate(self):
        from tiff_enrichment_pipeline_ray.functions import bloom as bf

        keys = np.arange(1, 10_001, dtype=np.int64) * 7919
        bits = bf.add(bf.empty(20), keys)
        probe = np.arange(10_000_001, 10_050_001, dtype=np.int64)
        fp = bf.might_contain(bits, probe).mean()
        # 10k keys / 2^20 bits, k=4 → theoretical FP ≈ (1-e^-0.038)^4 ≈ 2e-6
        assert fp < 0.001, fp

    def test_merge_equals_union(self):
        from tiff_enrichment_pipeline_ray.functions import bloom as bf

        a = np.arange(1, 5_001, dtype=np.int64)
        b = np.arange(5_001, 10_001, dtype=np.int64)
        merged = bf.merge(bf.add(bf.empty(18), a), bf.add(bf.empty(18), b))
        assert np.array_equal(merged, bf.add(bf.empty(18),
                                             np.concatenate([a, b])))


class TestEdit1Kernel:
    """edit1_mask vs brute-force Levenshtein DP over the FULL pair space
    of strings of length <= 4 on a 2-letter alphabet (930 strings² pairs
    cover every substitution/insertion/deletion/transposition shape)."""

    @staticmethod
    def _lev(a: str, b: str) -> int:
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    def test_exhaustive_small_alphabet(self):
        import itertools

        import numpy as np

        from tiff_enrichment_pipeline_ray.functions import textkernels as tk

        strs = [""]
        for ln in range(1, 5):
            strs += ["".join(p) for p in itertools.product("ab", repeat=ln)]
        pairs = [(a, b) for a in strs for b in strs]
        sa = np.array([p[0] for p in pairs], dtype=object)
        sb = np.array([p[1] for p in pairs], dtype=object)
        got = tk.edit1_mask(sa, sb)
        want = np.array([self._lev(a, b) == 1 for a, b in pairs])
        assert (got == want).all()

    def test_deletion_neighborhood_complete(self):
        """Every distance-1 pair shares >= 1 identity-or-deletion variant
        hash — the candidate generator misses nothing."""
        import itertools

        import numpy as np

        from tiff_enrichment_pipeline_ray.functions import textkernels as tk

        strs = [""]
        for ln in range(1, 5):
            strs += ["".join(p) for p in itertools.product("ab", repeat=ln)]
        arr = np.array(strs, dtype=object)
        who, vh = tk.deletion_variant_hashes(arr)
        keys = {}
        for w, h in zip(who, vh):
            keys.setdefault(w, set()).add(int(h))
        for i, a in enumerate(strs):
            for j, b in enumerate(strs):
                if i < j and self._lev(a, b) == 1:
                    assert keys[i] & keys[j], (a, b)
