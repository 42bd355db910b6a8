"""Image codec: the `bytes` column format (the TIFF/EXIF analogue).

The sandbox has no rasterio/Pillow (SURVEY.md §7.0), so images travel as an
opaque binary column with a self-describing container:

    magic  b'GI01'            (4 bytes)
    fmt    u8                 0=raw  1=png(zlib lossless)  2=lossyq (8-bit quant)
    w, h   u16 LE each
    meta_len u16 LE
    meta   utf-8 "Key: value\n" lines — the EXIF analogue, exiftool-style
           (reference reads `exiftool` stdout lines 'GPS Latitude : ...',
            gps_utils.py:55-68); keys used:
           GPS Latitude / GPS Longitude  (DMS strings, gps_utils.py:7-42)
           GPS Altitude                  ('26.9 m Above Sea Level', :73-79)
           Date/Time Original            ('%Y:%m:%d %H:%M:%S', :81-86)
           Camera Model Name, Band Number
    payload_len u32 LE
    payload    uint16 little-endian pixel grid (raw), zlib(raw) (png), or
               zlib(uint8 high-quant) + f32 scale (lossyq)

`lossyq` quantizes to 8 bits against the per-image max (scale stored in the
payload head); reconstruction error ≤ scale/510 ⇒ PSNR (MAX=65535) far above
the 40 dB invariant (BASELINE.json input_hint).

Which writer uses which fmt:

- input images (``sources.synth``): a seeded mix of all three;
- capture index grids (``stages.capture``): ``raw`` — they land in a zstd
  parquet column, and the page codec compresses the plain ``<u2`` grid
  better and cheaper than zlib-then-zstd does;
- resized images and sampled video frames (``stages.multimodal``
  ``ImageResize``/``VideoFrameSample``): ``png`` at zlib level 1.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

MAGIC = b"GI01"
FMT_RAW, FMT_PNG, FMT_LOSSYQ = 0, 1, 2
FMT_NAMES = {FMT_RAW: "raw", FMT_PNG: "png", FMT_LOSSYQ: "lossyq"}
FMT_CODES = {v: k for k, v in FMT_NAMES.items()}

_HDR = struct.Struct("<4sBHHH")


def encode_meta(meta: dict) -> bytes:
    return "".join(f"{k}: {v}\n" for k, v in meta.items()).encode("utf-8")


def decode_meta(raw: bytes) -> dict:
    out = {}
    for line in raw.decode("utf-8", errors="replace").splitlines():
        if ":" in line:
            k, v = line.split(":", 1)
            out[k.strip()] = v.strip()
    return out


def encode_image(pixels: np.ndarray, fmt: str, meta: dict, level: int = 6) -> bytes:
    """Encode a 2-D uint16 pixel grid + metadata dict into the container.
    `level` = zlib effort (decode is level-independent; hot writers use 1)."""
    px = np.ascontiguousarray(pixels, dtype="<u2")
    h, w = px.shape
    mb = encode_meta(meta)
    code = FMT_CODES[fmt]
    if code == FMT_RAW:
        payload = px.tobytes()
    elif code == FMT_PNG:
        payload = zlib.compress(px.tobytes(), level)
    else:  # lossyq
        mx = float(px.max()) if px.size else 0.0
        scale = mx if mx > 0 else 1.0
        q = np.round(px.astype(np.float32) * (255.0 / scale)).astype(np.uint8)
        payload = struct.pack("<f", scale) + zlib.compress(q.tobytes(), level)
    return (_HDR.pack(MAGIC, code, w, h, len(mb)) + mb
            + struct.pack("<I", len(payload)) + payload)


def decode_image(blob: bytes):
    """Decode → (pixels uint16 (h,w) | None, meta dict, ok: bool).

    Any structural corruption returns (None, {}, False) — per-row error
    isolation, never raises (reference quarantines bad files,
    main.py:244-251)."""
    try:
        if len(blob) < _HDR.size:
            return None, {}, False
        magic, code, w, h, mlen = _HDR.unpack_from(blob, 0)
        if magic != MAGIC:
            return None, {}, False
        off = _HDR.size
        meta = decode_meta(blob[off:off + mlen])
        if w * h == 0:  # an empty grid has no pixel stats: quarantine it
            return None, meta, False
        off += mlen
        (plen,) = struct.unpack_from("<I", blob, off)
        off += 4
        payload = blob[off:off + plen]
        if len(payload) != plen:
            return None, meta, False
        if code == FMT_RAW:
            px = np.frombuffer(payload, dtype="<u2")
            if px.size != w * h:
                return None, meta, False
            return px.reshape(h, w).astype(np.uint16), meta, True
        if code == FMT_PNG:
            raw = zlib.decompress(payload)
            px = np.frombuffer(raw, dtype="<u2")
            if px.size != w * h:
                return None, meta, False
            return px.reshape(h, w).astype(np.uint16), meta, True
        if code == FMT_LOSSYQ:
            (scale,) = struct.unpack_from("<f", payload, 0)
            q = np.frombuffer(zlib.decompress(payload[4:]), dtype=np.uint8)
            if q.size != w * h:
                return None, meta, False
            px = np.round(q.reshape(h, w).astype(np.float32) * (scale / 255.0))
            return np.clip(px, 0, 65535).astype(np.uint16), meta, True
        return None, meta, False
    except Exception:
        return None, {}, False


def decode_pixels_only(blob: bytes):
    """Pixels without metadata parse (hot path for the capture branch)."""
    px, _, ok = decode_image(blob)
    return px if ok else None


def decode_header_meta(blob: bytes):
    """Metadata + dims WITHOUT decompressing the pixel payload — the cheap
    path for the metadata-extraction stage (mirrors reading EXIF without
    decoding the raster)."""
    try:
        if len(blob) < _HDR.size:
            return None
        magic, code, w, h, mlen = _HDR.unpack_from(blob, 0)
        if magic != MAGIC:
            return None
        meta = decode_meta(blob[_HDR.size:_HDR.size + mlen])
        return {"w": w, "h": h, "fmt": FMT_NAMES.get(code, "?"), "meta": meta}
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Audio / video containers — the deterministic stand-ins for WAV/FLAC and
# MP4 (soundfile/pyav are not in this sandbox; charter: fake the codec,
# keep the Ray-side plumbing real). Same safety contract as decode_image:
# any structural corruption → ok=False, never raises.

AUDIO_MAGIC = b"GA01"
_AHDR = struct.Struct("<4sIQ")  # magic, sample_rate u32, n_samples u64


def encode_audio(pcm: np.ndarray, sample_rate: int) -> bytes:
    """int16 PCM (n,) + sample rate → GA01 container (zlib payload)."""
    p = np.ascontiguousarray(pcm, dtype="<i2")
    return _AHDR.pack(AUDIO_MAGIC, sample_rate, p.size) + zlib.compress(p.tobytes(), 1)


def decode_audio(blob: bytes):
    """→ (pcm int16 (n,) | None, sample_rate: int, ok: bool); never raises."""
    try:
        if len(blob) < _AHDR.size:
            return None, 0, False
        magic, sr, n = _AHDR.unpack_from(blob, 0)
        if magic != AUDIO_MAGIC:
            return None, 0, False
        pcm = np.frombuffer(zlib.decompress(blob[_AHDR.size:]), dtype="<i2")
        if pcm.size != n:
            return None, int(sr), False
        return pcm.astype(np.int16), int(sr), True
    except Exception:
        return None, 0, False


VIDEO_MAGIC = b"GV01"
_VHDR = struct.Struct("<4sIHH")  # magic, n_frames u32, h u16, w u16


def encode_video(frames: np.ndarray) -> bytes:
    """uint8 frame stack (n, h, w) → GV01 container (zlib payload)."""
    f = np.ascontiguousarray(frames, dtype=np.uint8)
    n, h, w = f.shape
    return _VHDR.pack(VIDEO_MAGIC, n, h, w) + zlib.compress(f.tobytes(), 1)


def decode_video(blob: bytes):
    """→ (frames uint8 (n,h,w) | None, ok: bool); never raises."""
    try:
        if len(blob) < _VHDR.size:
            return None, False
        magic, n, h, w = _VHDR.unpack_from(blob, 0)
        if magic != VIDEO_MAGIC:
            return None, False
        raw = np.frombuffer(zlib.decompress(blob[_VHDR.size:]), dtype=np.uint8)
        if raw.size != n * h * w:
            return None, False
        return raw.reshape(n, h, w), True
    except Exception:
        return None, False

