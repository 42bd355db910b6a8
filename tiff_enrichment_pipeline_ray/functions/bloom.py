"""Vectorized Bloom filter for broadcast semi-join pruning.

The classic shuffle-avoidance pattern at 100 TB: instead of shipping every
probe-side row into a hash-partition semi-join, build a Bloom filter over
the (filtered) build side, capture it in the probe map (2^p bits =
2^(p-3) bytes; 1 MiB at p=23), and drop probe rows that cannot match INSIDE
map_batches before any shuffle. False positives only let extra rows through
— the downstream exact join keeps the result exact — so the pruning is
lossless by construction.

Deterministic double hashing (Kirsch–Mitzenmacher '06): k probe positions
g_i = h1 + i·h2 (mod 2^p) from one splitmix64 of the key — one hash pass,
k vectorized gathers. Bits are kept packed (uint8) so partial filters
merge with ``np.bitwise_or`` — associative/commutative, the same
partial/merge family as the HLL registers (functions/hll.py).
"""

from __future__ import annotations

import numpy as np

from .hll import _splitmix64


def empty(p: int = 20) -> np.ndarray:
    """Packed all-zero filter of 2^p bits."""
    return np.zeros(1 << max(p - 3, 0), dtype=np.uint8)


def _positions(keys: np.ndarray, p: int, k: int) -> np.ndarray:
    """(n, k) int64 bit positions via double hashing of splitmix64(key)."""
    h = _splitmix64(np.asarray(keys, dtype=np.int64).astype(np.uint64))
    h1 = h & np.uint64((1 << p) - 1)
    h2 = (h >> np.uint64(32)) | np.uint64(1)  # odd → full-period stride
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            & np.uint64((1 << p) - 1)).astype(np.int64)


def add(bits: np.ndarray, keys: np.ndarray, k: int = 4) -> np.ndarray:
    """Set the k probe bits of every key (in place; returns bits)."""
    if len(keys) == 0:
        return bits
    p = int(np.log2(len(bits))) + 3
    pos = _positions(keys, p, k).ravel()
    np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bits


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.bitwise_or(a, b)


def might_contain(bits: np.ndarray, keys: np.ndarray,
                  k: int = 4) -> np.ndarray:
    """Vectorized membership: True = possibly present, False = definitely
    absent (no false negatives)."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    p = int(np.log2(len(bits))) + 3
    pos = _positions(keys, p, k)
    probe = (bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return probe.all(axis=1)
