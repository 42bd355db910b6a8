"""Multimodal column stages: decode / resize / feature-extract / frame-sample.

Images/audio/video travel as opaque `binary` columns with typed metadata
(BASELINE.json input_hint). The Ray-side plumbing — schemas, actor-pool
signatures, batch sizing, output layout — is real and tested. Decode uses the
repo's deterministic native containers only (GI01 image / GA01 audio / GV01
video, functions/codec.py — the documented stand-ins for TIFF/WAV/MP4, whose
libraries aren't in this sandbox). A blob in any other container is a
decode_ok=False row, never an exception (charter: fake the codec
deterministically, keep the plumbing real).

All stages are callable CLASSES → actor pools: state (codec tables, resize
kernels, model weights) is built once per actor in ``__init__``
(`map_batches(Cls, concurrency=N, batch_size=B)`); batch sizes must be small
for wide binary rows (decoded pixels dominate worker heap: batch_size ×
concurrency × H × W × 2B must fit — see config notes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions import codec

class ImageDecode:
    """binary `bytes` → per-image decoded stats (GI01 container)."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ok, h, w, mean = [], [], [], []
        for blob in df["bytes"]:
            px, _, good = codec.decode_image(blob)
            ok.append(good)
            h.append(px.shape[0] if good else 0)
            w.append(px.shape[1] if good else 0)
            mean.append(float(px.mean()) if good else np.nan)
        return pd.DataFrame({
            "image_id": df["image_id"].to_numpy(),
            "decode_ok": np.array(ok),
            "h": np.array(h, dtype=np.int32),
            "w": np.array(w, dtype=np.int32),
            "px_mean": np.array(mean),
        })


class ImageResize:
    """Decoded image → fixed (target_h, target_w) bilinear resize, re-encoded.
    Real implementation over the native container (separable bilinear)."""

    def __init__(self, target_h: int = 64, target_w: int = 64):
        from ..functions.raster import affine_bilinear_resample

        self.resample = affine_bilinear_resample
        self.th, self.tw = target_h, target_w

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        out_bytes = []
        ok = []
        for blob in df["bytes"]:
            px, meta, good = codec.decode_image(blob)
            if not good:
                out_bytes.append(b"")
                ok.append(False)
                continue
            h, w = px.shape
            r = self.resample(px, 0.0, 0.0, 1.0 / w, 1.0 / h,
                              0.0, 0.0, 1.0 / self.tw, 1.0 / self.th,
                              self.th, self.tw)
            out_bytes.append(codec.encode_image(
                np.clip(r, 0, 65535).astype(np.uint16), "png", meta, level=1))
            ok.append(True)
        return pd.DataFrame({
            "image_id": df["image_id"].to_numpy(),
            "bytes": out_bytes,
            "w": np.full(len(df), self.tw, dtype=np.int32),
            "h": np.full(len(df), self.th, dtype=np.int32),
            "decode_ok": np.array(ok),
        })


class ImageFeatures:
    """Image → 64-dim float32 feature vector.

    Deterministic downsampled-intensity-grid "embedding" (8×8 mean-pool of
    the normalized image, flattened, L2-normalized) — the documented stand-in
    for a CNN/CLIP encoder (no model weights in this container). The actor
    signature (load once in __init__, batched __call__) is exactly what a real
    model stage uses."""

    DIM = 64

    def __init__(self):
        from ..functions.raster import affine_bilinear_resample

        self.resample = affine_bilinear_resample

    def _feat(self, px: np.ndarray) -> np.ndarray:
        g = self.resample(px.astype(np.float32), 0.0, 0.0,
                          1.0 / px.shape[1], 1.0 / px.shape[0],
                          0.0, 0.0, 1.0 / 8, 1.0 / 8, 8, 8).ravel()
        mx = g.max()
        g = g / mx if mx > 0 else g
        n = np.sqrt((g * g).sum())
        return (g / n if n > 0 else g).astype(np.float32)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        feats, ok = [], []
        for blob in df["bytes"]:
            px, _, good = codec.decode_image(blob)
            ok.append(good)
            feats.append(self._feat(px) if good
                         else np.zeros(self.DIM, dtype=np.float32))
        return pd.DataFrame({
            "image_id": df["image_id"].to_numpy(),
            "feature": feats,
            "decode_ok": np.array(ok),
        })


class AudioDecode:
    """Audio `bytes` → per-clip decoded stats (actor-pool stage).

    The native GA01 container (codec.encode_audio — the deterministic WAV
    stand-in, since soundfile/librosa aren't in this sandbox) decodes for
    real. Corrupt/unknown blobs → decode_ok=False row, never raises (same
    per-row isolation contract as the image reader).

    __call__(df[audio_id, bytes]) → df[audio_id, decode_ok, sample_rate:int32,
    n_samples:int64, duration_s:float64, rms:float64]."""

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        ok = np.zeros(n, dtype=bool)
        sr = np.zeros(n, dtype=np.int32)
        ns = np.zeros(n, dtype=np.int64)
        rms = np.full(n, np.nan)
        for i, blob in enumerate(df["bytes"]):
            pcm, rate, good = codec.decode_audio(blob)
            ok[i] = good
            if good:
                sr[i] = rate
                ns[i] = pcm.size
                x = pcm.astype(np.float64) / 32768.0
                rms[i] = float(np.sqrt((x * x).mean())) if pcm.size else 0.0
        dur = np.where(sr > 0, ns / np.maximum(sr, 1), 0.0)
        return pd.DataFrame({
            "audio_id": df["audio_id"].to_numpy(),
            "decode_ok": ok,
            "sample_rate": sr,
            "n_samples": ns,
            "duration_s": dur,
            "rms": rms,
        })


class AudioSegment:
    """Audio `bytes` → energy-based activity segments (the VAD primitive a
    speech-data pipeline runs before transcription/chunking): PCM framed
    into 20 ms windows, a frame is ACTIVE when its RMS exceeds
    ``thresh_rel`` x the clip RMS, and consecutive active frames merge
    into segments. All-silence clips (zero RMS) have no active frames.

    __call__(df[audio_id, bytes]) → df[audio_id, decode_ok,
    n_segments:int64, active_s:float64, longest_s:float64,
    active_ratio:float64] — one row per clip, vectorized frame math
    (reshape + axis reductions; the only Python loop is per blob, the
    codec boundary)."""

    def __init__(self, frame_ms: int = 20, thresh_rel: float = 0.5):
        self.frame_ms = int(frame_ms)
        self.thresh_rel = float(thresh_rel)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        ok = np.zeros(n, dtype=bool)
        nseg = np.zeros(n, dtype=np.int64)
        act = np.zeros(n, dtype=np.float64)
        lng = np.zeros(n, dtype=np.float64)
        ratio = np.zeros(n, dtype=np.float64)
        for i, blob in enumerate(df["bytes"]):
            pcm, rate, good = codec.decode_audio(blob)
            ok[i] = good
            if not good or rate <= 0 or pcm.size == 0:
                continue
            spf = max(1, rate * self.frame_ms // 1000)
            nf = pcm.size // spf
            if nf == 0:
                continue
            x = pcm[:nf * spf].astype(np.float64) / 32768.0
            fr = x.reshape(nf, spf)
            frms = np.sqrt((fr * fr).mean(axis=1))
            clip_rms = np.sqrt((x * x).mean())
            active = frms > self.thresh_rel * clip_rms
            if not active.any():
                ratio[i] = 0.0
                continue
            # run-length over the active mask
            d = np.diff(active.astype(np.int8))
            starts = np.flatnonzero(d == 1) + 1
            ends = np.flatnonzero(d == -1) + 1
            if active[0]:
                starts = np.concatenate([[0], starts])
            if active[-1]:
                ends = np.concatenate([ends, [nf]])
            runs = ends - starts
            nseg[i] = len(runs)
            act[i] = float(active.sum()) * spf / rate
            lng[i] = float(runs.max()) * spf / rate
            ratio[i] = float(active.sum()) / nf
        return pd.DataFrame({
            "audio_id": df["audio_id"].to_numpy(),
            "decode_ok": ok,
            "n_segments": nseg,
            "active_s": np.round(act, 6),
            "longest_s": np.round(lng, 6),
            "active_ratio": np.round(ratio, 6),
        })


class VideoFrameSample:
    """Video `bytes` → every-Nth-frame sample as image rows (flat-map shape:
    one output row per sampled frame; a clip yields ceil(n_frames/every_n)
    rows, a corrupt clip yields one decode_ok=False row so poison inputs stay
    visible downstream).

    Frames are re-encoded into the GI01 image container, so the output
    `frame_bytes` column feeds ImageDecode/ImageResize/ImageFeatures
    unchanged — the video path composes with the image stages.

    __call__(df[video_id, bytes]) → df[video_id, frame_idx:int32,
    frame_bytes:binary, w:int32, h:int32, decode_ok:bool]."""

    def __init__(self, every_n: int = 30):
        self.every_n = max(1, int(every_n))

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        vid, idx, fb, ws, hs, ok = [], [], [], [], [], []
        for v, blob in zip(df["video_id"], df["bytes"]):
            frames, good = codec.decode_video(blob)
            if not good:
                vid.append(v); idx.append(-1); fb.append(b"")
                ws.append(0); hs.append(0); ok.append(False)
                continue
            nf, h, w = frames.shape
            for i in range(0, nf, self.every_n):
                vid.append(v)
                idx.append(i)
                fb.append(codec.encode_image(
                    frames[i].astype(np.uint16), "png",
                    {"Frame Index": i}, level=1))
                ws.append(w); hs.append(h); ok.append(True)
        return pd.DataFrame({
            "video_id": np.asarray(vid, dtype=np.int64),
            "frame_idx": np.asarray(idx, dtype=np.int32),
            "frame_bytes": fb,
            "w": np.asarray(ws, dtype=np.int32),
            "h": np.asarray(hs, dtype=np.int32),
            "decode_ok": np.asarray(ok, dtype=bool),
        })


def audio_stats_dataset(audio_ds, concurrency: int = 4, batch_size: int = 256):
    """audio Dataset → per-clip stats via actor pool (autoscaling (1, N):
    a FIXED pool of N 1-CPU actors on an N-CPU cluster starves the upstream
    read tasks and deadlocks the streaming executor — observed at the 4-CPU
    test fixture)."""
    return audio_ds.map_batches(
        AudioDecode, batch_format="pandas", batch_size=batch_size,
        concurrency=(1, concurrency), num_cpus=1)


def video_frames_dataset(video_ds, every_n: int = 30, concurrency: int = 4,
                         batch_size: int = 16):
    """video Dataset → sampled frame rows via actor pool. batch_size is small:
    decoded clips are the widest rows in the system (n_frames × h × w bytes
    per input row live in the worker heap during __call__)."""
    return video_ds.map_batches(
        VideoFrameSample, fn_constructor_kwargs={"every_n": every_n},
        batch_format="pandas", batch_size=batch_size,
        concurrency=(1, concurrency), num_cpus=1)


def image_features_dataset(images_ds, concurrency: int = 4, batch_size: int = 256):
    """images Dataset → (image_id, feature[64], decode_ok) via actor pool."""
    return images_ds.map_batches(
        ImageFeatures, batch_format="pandas", batch_size=batch_size,
        concurrency=(1, concurrency), num_cpus=1)
