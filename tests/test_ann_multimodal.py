"""ANN (brute + IVF recall) and multimodal stage tests."""

import numpy as np
import pandas as pd
import pytest

from tiff_enrichment_pipeline_ray.functions import codec
from tiff_enrichment_pipeline_ray.stages.ann import kmeans_fit
from tiff_enrichment_pipeline_ray.stages.multimodal import (
    AudioDecode,
    ImageDecode,
    ImageFeatures,
    ImageResize,
    VideoFrameSample,
)


class TestIVF:
    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 16)).astype(np.float32)
        c1 = kmeans_fit(X, 8)
        c2 = kmeans_fit(X, 8)
        np.testing.assert_array_equal(c1, c2)


def _img_df(n=6):
    rng = np.random.default_rng(4)
    rows = []
    for i in range(n):
        px = (rng.random((40, 50)) * 65535).astype(np.uint16)
        rows.append({"image_id": f"IMG_{i:04d}_1",
                     "bytes": codec.encode_image(px, "png", {})})
    rows.append({"image_id": "BAD", "bytes": b"corrupt"})
    return pd.DataFrame(rows)


class TestMultimodal:
    def test_decode_stage(self):
        out = ImageDecode()( _img_df())
        assert out.decode_ok.sum() == 6 and not out.decode_ok.iloc[-1]
        assert (out.h.iloc[:6] == 40).all() and (out.w.iloc[:6] == 50).all()

    def test_resize_stage(self):
        out = ImageResize(32, 32)(_img_df())
        good = out[out.decode_ok]
        px, _, ok = codec.decode_image(good.bytes.iloc[0])
        assert ok and px.shape == (32, 32)

    def test_feature_stage_deterministic_unit_norm(self):
        df = _img_df()
        f1 = ImageFeatures()(df)
        f2 = ImageFeatures()(df)
        good = f1[f1.decode_ok]
        for v in good.feature:
            assert np.sqrt((v * v).sum()) == pytest.approx(1.0, abs=1e-5)
        for a, b in zip(f1.feature, f2.feature):
            np.testing.assert_array_equal(a, b)

    def test_audio_codec_roundtrip_and_poison(self):
        rng = np.random.default_rng(1)
        pcm = (rng.standard_normal(16000) * 8000).astype(np.int16)
        blob = codec.encode_audio(pcm, 16000)
        got, sr, ok = codec.decode_audio(blob)
        assert ok and sr == 16000
        np.testing.assert_array_equal(got, pcm)
        for bad in (b"", b"XXXX" + blob[4:], blob[:10], None if False else blob[:-5]):
            _, _, ok = codec.decode_audio(bad)
            assert not ok

    def test_audio_decode_stage(self):
        pcm = np.full(8000, 16384, dtype=np.int16)  # constant → rms = 0.5
        df = pd.DataFrame({
            "audio_id": np.array([1, 2], dtype=np.int64),
            "bytes": [codec.encode_audio(pcm, 8000), b"not audio"],
        })
        out = AudioDecode()(df)
        assert out.decode_ok.tolist() == [True, False]
        assert out.sample_rate.iloc[0] == 8000
        assert out.n_samples.iloc[0] == 8000
        assert out.duration_s.iloc[0] == pytest.approx(1.0)
        assert out.rms.iloc[0] == pytest.approx(0.5, abs=1e-6)
        assert np.isnan(out.rms.iloc[1])

    def test_video_codec_roundtrip_and_poison(self):
        frames = np.arange(5 * 4 * 6, dtype=np.uint8).reshape(5, 4, 6)
        blob = codec.encode_video(frames)
        got, ok = codec.decode_video(blob)
        assert ok
        np.testing.assert_array_equal(got, frames)
        for bad in (b"", b"YYYY" + blob[4:], blob[:8], blob[:-3]):
            _, ok = codec.decode_video(bad)
            assert not ok

    def test_video_frame_sample_stage(self):
        frames = np.zeros((65, 4, 6), dtype=np.uint8)
        for i in range(65):
            frames[i] = i  # constant frame i → px_mean == i
        df = pd.DataFrame({
            "video_id": np.array([7, 8], dtype=np.int64),
            "bytes": [codec.encode_video(frames), b"junk"],
        })
        out = VideoFrameSample(every_n=30)(df)
        good = out[out.decode_ok]
        assert good.frame_idx.tolist() == [0, 30, 60]  # ceil(65/30) = 3 rows
        assert (good.w == 6).all() and (good.h == 4).all()
        # frames re-encoded as GI01 → image decode recovers the content
        for _, row in good.iterrows():
            px, meta, ok = codec.decode_image(row.frame_bytes)
            assert ok and px.shape == (4, 6)
            assert float(px.mean()) == float(row.frame_idx)
            assert meta["Frame Index"] == str(row.frame_idx)
        bad = out[~out.decode_ok]
        assert bad.video_id.tolist() == [8] and bad.frame_idx.tolist() == [-1]


class TestDistributedIVF:
    SF = "/root/testdata/sf0.001"

    def _brute(self):
        import os

        import pyarrow.parquet as pq

        t = pq.read_table(os.path.join(self.SF, "embeddings.parquet"))
        ids = t.column("vec_id").to_numpy()
        X = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
        n = np.sqrt((X * X).sum(1))
        Xn = X / np.where(n == 0, 1, n)[:, None]
        return ids, Xn

    def test_build_and_search_recall(self, tmp_path):
        from tiff_enrichment_pipeline_ray.stages.ann import (
            build_ivf_index, search_ivf)

        idx = build_ivf_index(self.SF, k=16, out_dir=str(tmp_path / "ivf"))
        ids, Xn = self._brute()
        qpos = int(np.argmin(ids))
        q = Xn[qpos]
        got = search_ivf(idx, q, topk=10, nprobe=8,
                         exclude_vec_id=int(ids[qpos]))
        sims = Xn @ q
        sims[qpos] = -9.0
        order = np.lexsort((ids, -np.round(sims, 6)))[:10]
        want = set(ids[order].tolist())
        recall = len(set(got.vec_id.tolist()) & want) / 10.0
        assert recall >= 0.7  # near-orthogonal fixture = worst case for IVF

    def test_build_never_gathers_dataset(self, tmp_path, monkeypatch):
        """The distributed build may gather only the bounded training sample
        (≤ sample_rows); any full-table to_pandas/take_all is a bug."""
        import ray.data as rd

        from tiff_enrichment_pipeline_ray.stages import ann

        orig = rd.Dataset.to_pandas

        def checked_to_pandas(self, *a, **kw):
            df = orig(self, *a, **kw)
            assert len(df) <= 512, "build gathered more than the sample"
            return df

        def forbidden(self, *a, **kw):
            raise AssertionError("take_all during IVF build")

        monkeypatch.setattr(rd.Dataset, "to_pandas", checked_to_pandas)
        monkeypatch.setattr(rd.Dataset, "take_all", forbidden)
        ann.build_ivf_index(self.SF, k=8, sample_rows=512,
                            out_dir=str(tmp_path / "ivf2"))

    def test_near_dup_pairs_equal_brute(self):
        from tiff_enrichment_pipeline_ray.stages.ann import (
            embedding_near_dup_pairs)

        nd = embedding_near_dup_pairs(self.SF, threshold=0.4)
        ids, Xn = self._brute()
        S = Xn @ Xn.T
        iu = np.triu_indices(len(ids), k=1)
        m = S[iu] >= 0.4
        want = set(zip(ids[iu[0][m]].tolist(), ids[iu[1][m]].tolist()))
        got = set(zip(nd.vec_a.tolist(), nd.vec_b.tolist()))
        assert got == want
        np.testing.assert_allclose(
            nd.cosine_sim.to_numpy(),
            np.round(np.sort(S[iu][m])[::-1], 6)[
                np.argsort(np.argsort(-nd.cosine_sim.to_numpy()))],
            rtol=0, atol=1e-9)


class TestDistributedLSH:
    """LSH-bucketed ANN (the second scale path beside IVF). The fixture's
    near-orthogonal embeddings are the textbook WORST case for angular LSH
    (per-bit collision prob → 0.5); real embedding corpora (clustered) fare
    far better. Bounds below are the measured fixture values."""

    SF = "/root/testdata/sf0.001"

    def _brute(self):
        import os

        import pyarrow.parquet as pq

        t = pq.read_table(os.path.join(self.SF, "embeddings.parquet"))
        ids = t.column("vec_id").to_numpy()
        X = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
        n = np.sqrt((X * X).sum(1))
        Xn = X / np.where(n == 0, 1, n)[:, None]
        return ids, Xn

    def test_build_and_search_recall(self, tmp_path):
        from tiff_enrichment_pipeline_ray.stages.ann import (
            build_lsh_index, search_lsh)

        idx = build_lsh_index(self.SF, nbits=8, out_dir=str(tmp_path / "lsh"))
        ids, Xn = self._brute()
        qpos = int(np.argmin(ids))
        q = Xn[qpos]
        sims = Xn @ q
        sims[qpos] = -9.0
        order = np.lexsort((ids, -np.round(sims, 6)))[:10]
        want = set(ids[order].tolist())
        for max_hamming, bound in ((3, 0.5), (4, 0.7)):
            got = search_lsh(idx, q, topk=10, max_hamming=max_hamming,
                             exclude_vec_id=int(ids[qpos]))
            recall = len(set(got.vec_id.tolist()) & want) / 10.0
            assert recall >= bound, (max_hamming, recall)
        # returned sims are the exact cosine of the returned rows
        idpos = {int(i): p for p, i in enumerate(ids)}
        for _, row in got.iterrows():
            assert abs(row.cosine_sim - round(float(sims[idpos[int(row.vec_id)]]), 6)) < 1e-9

    def test_build_never_gathers_dataset(self, tmp_path, monkeypatch):
        """LSH needs NO training pass: the only driver read is the 1-row
        dimensionality peek."""
        import ray.data as rd

        from tiff_enrichment_pipeline_ray.stages import ann

        orig = rd.Dataset.to_pandas

        def checked_to_pandas(self, *a, **kw):
            df = orig(self, *a, **kw)
            assert len(df) <= 1, "LSH build gathered more than the dim peek"
            return df

        def forbidden(self, *a, **kw):
            raise AssertionError("take_all during LSH build")

        monkeypatch.setattr(rd.Dataset, "to_pandas", checked_to_pandas)
        monkeypatch.setattr(rd.Dataset, "take_all", forbidden)
        ann.build_lsh_index(self.SF, nbits=6, out_dir=str(tmp_path / "lsh2"))

    def test_probe_order_and_determinism(self, tmp_path):
        from tiff_enrichment_pipeline_ray.stages.ann import (
            _probe_keys, build_lsh_index, search_lsh)

        margins = np.array([5.0, 0.1, 2.0, 0.4])
        keys = _probe_keys(0b0000, margins, max_hamming=2)
        assert keys[0] == 0b0000                      # exact bucket first
        assert keys[1] == 0b0010                      # cheapest single flip (bit 1)
        assert keys[2] == 0b1000                      # next cheapest (bit 3)
        assert keys[3] == 0b1010                      # cheapest pair (0.1+0.4)
        assert len(keys) == 1 + 4 + 6
        # same index + query → identical result across calls
        idx = build_lsh_index(self.SF, nbits=8, out_dir=str(tmp_path / "lsh3"))
        ids, Xn = self._brute()
        q = Xn[int(np.argmin(ids))]
        a = search_lsh(idx, q, topk=10, max_hamming=3)
        b = search_lsh(idx, q, topk=10, max_hamming=3)
        assert a.equals(b)


class TestThumbnails:
    """K5 thumbnail writer (output/visualizer.py:43-153 analogue)."""

    def test_export_thumbnails_roundtrip(self, tmp_path):
        import glob

        import pyarrow as pa
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines.export import (
            thumbnails_dataset,
        )

        src = tmp_path / "imgs"
        src.mkdir()
        df = _img_df()
        pq.write_table(pa.Table.from_pandas(df), str(src / "p.parquet"))
        out = str(tmp_path / "thumbs")
        thumbnails_dataset(str(src), size=16).write_parquet(out)
        got = pd.concat([pq.read_table(f).to_pandas()
                         for f in glob.glob(out + "/*.parquet")])
        good = got[got.decode_ok]
        assert len(good) == 6 and (got.w == 16).all()
        px, _, ok = codec.decode_image(good.bytes.iloc[0])
        assert ok and px.shape == (16, 16)
        # corrupt rows flow through as empty blobs (never raise)
        bad = got[~got.decode_ok]
        assert len(bad) == 1 and bad.bytes.iloc[0] == b""


class TestPQ:
    SF = "/root/testdata/sf0.001"

    def _brute(self):
        import os

        import pyarrow.parquet as pq

        t = pq.read_table(os.path.join(self.SF, "embeddings.parquet"))
        ids = t.column("vec_id").to_numpy()
        X = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
        n = np.sqrt((X * X).sum(1))
        Xn = X / np.where(n == 0, 1, n)[:, None]
        return ids, Xn

    def test_build_and_search_recall(self, tmp_path):
        from tiff_enrichment_pipeline_ray.stages.ann import (
            build_pq_index, search_pq)

        idx = build_pq_index(self.SF, out_dir=str(tmp_path / "pq"))
        ids, Xn = self._brute()
        qpos = int(np.argmin(ids))
        q = Xn[qpos]
        got = search_pq(self.SF, idx, q, topk=10, rerank=64,
                        exclude_vec_id=int(ids[qpos]))
        sims = Xn @ q
        sims[qpos] = -9.0
        order = np.lexsort((ids, -np.round(sims, 6)))[:10]
        want = set(ids[order].tolist())
        recall = len(set(got.vec_id.tolist()) & want) / 10.0
        # near-orthogonal fixture = PQ worst case; exact re-rank recovers it
        assert recall >= 0.8
        # exact re-rank: returned sims must equal brute-force sims
        brute = dict(zip(ids.tolist(), np.round(Xn @ q, 6).tolist()))
        for vid, s in zip(got.vec_id, got.cosine_sim):
            assert abs(brute[int(vid)] - float(s)) < 1e-12

    def test_encode_roundtrip_determinism(self):
        from tiff_enrichment_pipeline_ray.stages.ann import (
            pq_encode, pq_train)

        rng = np.random.default_rng(3)
        X = rng.normal(size=(256, 64)).astype(np.float32)
        books = pq_train(X, m=16, ksub=32, seed=7)
        c1 = pq_encode(X, books)
        c2 = pq_encode(X, books)
        assert (c1 == c2).all()
        assert c1.shape == (256, 16) and c1.dtype == np.uint8
        # codes must beat random assignment: reconstruction error below
        # the mean pairwise distance
        m, ksub, dsub = books.shape
        rec = np.concatenate([books[j][c1[:, j]] for j in range(m)], axis=1)
        err = ((X - rec) ** 2).sum(1).mean()
        base = ((X - X.mean(0)) ** 2).sum(1).mean()
        assert err < base

    def test_build_never_gathers_dataset(self, tmp_path, monkeypatch):
        """Only the bounded training sample may reach the driver."""
        import ray.data as rd

        from tiff_enrichment_pipeline_ray.stages import ann

        real = rd.Dataset.to_pandas
        calls = []

        def spy(self, *a, **k):
            df = real(self, *a, **k)
            calls.append(len(df))
            return df

        monkeypatch.setattr(rd.Dataset, "to_pandas", spy)
        ann.build_pq_index(self.SF, sample_rows=128,
                           out_dir=str(tmp_path / "pq2"))
        assert calls and max(calls) <= 128


class TestKmeansQuery:
    def test_embedding_kmeans_vs_brute(self, ray_session):
        """Distributed k-means assignment == single-process numpy recompute
        over the same deterministic sample-trained centroids."""
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            embedding_kmeans)
        from tiff_enrichment_pipeline_ray.stages.ann import (_sq_dists,
                                                             kmeans_fit)

        sf_dir = "/root/testdata/sf0.001"
        got = embedding_kmeans(sf_dir, k=8)

        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"]).to_pandas()
        C = kmeans_fit(np.stack(t.embedding.to_numpy()[:4096]), 8, seed=42)
        X = np.stack(t.embedding.to_numpy()).astype(np.float32)
        d = _sq_dists(X, C)
        a = d.argmin(1)
        sqd = d[np.arange(len(a)), a].astype(np.float64)
        exp = (pd.DataFrame({"cluster": a.astype(np.int64), "sqd": sqd})
               .groupby("cluster")
               .agg(n=("sqd", "size"), mean_sqd=("sqd", "mean"))
               .reset_index())
        got = got.sort_values("cluster").reset_index(drop=True)
        exp = exp.sort_values("cluster").reset_index(drop=True)
        assert got.cluster.tolist() == exp.cluster.tolist()
        assert got.n.tolist() == exp.n.tolist()
        # distributed partial sums re-associate fp addition: ulp tolerance
        np.testing.assert_allclose(got.mean_sqd.to_numpy(),
                                   exp.mean_sqd.round(6).to_numpy(),
                                   rtol=1e-9)
        assert int(got.n.sum()) == len(t)


class TestSemanticDedup:
    def test_semantic_dedup_vs_brute(self, ray_session):
        """Distributed SemDeDup == single-process numpy recompute: same
        sample-trained centroids, same greedy smaller-id-shadows rule."""
        import pyarrow.parquet as pq

        from tiff_enrichment_pipeline_ray.pipelines.queries import (
            embedding_semantic_dedup)
        from tiff_enrichment_pipeline_ray.stages.ann import (_sq_dists,
                                                             kmeans_fit)

        sf_dir = "/root/testdata/sf0.001"
        thr = 0.2  # fixture embeddings are near-orthogonal; low threshold
        got = (embedding_semantic_dedup(sf_dir, k=8, threshold=thr)
               .to_pandas().sort_values("vec_id").reset_index(drop=True))

        t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"]).to_pandas()
        C = kmeans_fit(np.stack(t.embedding.to_numpy()[:4096]), 8, seed=42)
        X32 = np.stack(t.embedding.to_numpy()).astype(np.float32)
        cl = _sq_dists(X32, C).argmin(1).astype(np.int64)
        Xn = np.stack(t.embedding.to_numpy()).astype(np.float64)
        nrm = np.linalg.norm(Xn, axis=1)
        Xn /= np.where(nrm == 0, 1.0, nrm)[:, None]
        exp_keep = {}
        order = np.argsort(t.vec_id.to_numpy(), kind="stable")
        for c in np.unique(cl):
            idx = order[cl[order] == c]
            for pos, i in enumerate(idx):
                dup = any(Xn[i] @ Xn[j] >= thr for j in idx[:pos])
                exp_keep[int(t.vec_id[i])] = not dup
        assert len(got) == len(t)
        assert got.cluster.tolist() == cl[order].tolist()
        assert got.keep.tolist() == [exp_keep[v] for v in got.vec_id]
        assert bool(got.keep.any()) and not bool(got.keep.all())


def test_pca_project_brute():
    """embedding_pca_project vs a single-process numpy PCA over the same
    table: projections match to ≤ one rounding quantum (distributed
    partial sums reassociate floats; eigensolve runs on the driver in
    both), the variance ordering holds (pc1 variance ≥ pc2 variance),
    and the deterministic sign rule is applied (largest-|coord| positive
    per component)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from tiff_enrichment_pipeline_ray.pipelines import queries as Q

    got = (Q.embedding_pca_project("/root/testdata/sf0.001").to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    t = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    X = np.stack(t.column("embedding").to_pylist()).astype(np.float64)
    mean = X.mean(axis=0)
    cov = (X.T @ X) / len(X) - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)
    W = evecs[:, ::-1][:, :2]
    flip = W[np.abs(W).argmax(axis=0), np.arange(2)] < 0
    W = W * np.where(flip, -1.0, 1.0)[None, :]
    P = (X - mean[None, :]) @ W
    want = pd.DataFrame({"vec_id": t.column("vec_id").to_numpy(),
                         "pc1": np.round(P[:, 0], 6),
                         "pc2": np.round(P[:, 1], 6)})
    want = want.sort_values("vec_id").reset_index(drop=True)
    assert len(got) == len(want) == 500
    assert np.allclose(got.pc1, want.pc1, atol=1.1e-6)
    assert np.allclose(got.pc2, want.pc2, atol=1.1e-6)
    assert got.pc1.var() >= got.pc2.var()
    # sign rule: the dominant coordinate of each component is positive
    assert (np.abs(W).max(axis=0) == W.max(axis=0)).all()


class TestAudioSegment:
    """Closed-form crafted clips for the VAD segmentation kernel."""

    def _seg(self, pcm, rate=16000, **kw):
        import pandas as pd

        from tiff_enrichment_pipeline_ray.functions import codec
        from tiff_enrichment_pipeline_ray.stages.multimodal import (
            AudioSegment,
        )

        df = pd.DataFrame({"audio_id": [1],
                           "bytes": [codec.encode_audio(pcm, rate)]})
        return AudioSegment(**kw)(df).iloc[0]

    def test_silence_has_no_segments(self):
        import numpy as np

        r = self._seg(np.zeros(16000, dtype=np.int16))
        assert r.decode_ok and r.n_segments == 0 and r.active_ratio == 0.0

    def test_constant_tone_one_full_segment(self):
        import numpy as np

        pcm = (np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
               * 10000).astype(np.int16)
        r = self._seg(pcm)
        assert r.n_segments == 1
        assert r.active_ratio == 1.0
        assert r.active_s == 1.0 and r.longest_s == 1.0

    def test_tone_silence_tone_two_segments(self):
        import numpy as np

        tone = (np.sin(2 * np.pi * 440 * np.arange(8000) / 16000)
                * 10000).astype(np.int16)
        pcm = np.concatenate([tone, np.zeros(16000, dtype=np.int16), tone])
        r = self._seg(pcm)
        assert r.n_segments == 2
        assert r.active_s == 1.0          # 2 x 0.5 s of tone
        assert r.longest_s == 0.5
        assert abs(r.active_ratio - 0.5) < 1e-9

    def test_corrupt_blob_flagged(self):
        import pandas as pd

        from tiff_enrichment_pipeline_ray.stages.multimodal import (
            AudioSegment,
        )

        r = AudioSegment()(pd.DataFrame({"audio_id": [1],
                                         "bytes": [b"junk"]})).iloc[0]
        assert not r.decode_ok and r.n_segments == 0
