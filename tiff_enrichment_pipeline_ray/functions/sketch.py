"""Dedup sketches: shingles, MinHash, SimHash, n-gram Jaccard (numpy).

Near-dedup primitives for the `documents` table at training-data scale
(the reference only does exact checksum dedup — create-tables.sql:253,
SURVEY §2.5 A7 — these extend it per the engine's charter). Every sketch
runs over a whole batch of documents; the per-document forms the tests
compare against live in tests/reference_forms.py.

- shingle_hashes_batch: word k-shingles → uint64 hashes.
  Word hashing is blake2b-seeded (deterministic, PYTHONHASHSEED-independent);
  the k-word combine is a vectorized polynomial in uint64 (wraparound —
  a fingerprint, not a modular family; collision prob ≈ 2^-64 per pair).
- minhash_signatures_batch: P independent permutations of the *exact*
  universal family h(x) = (a·x + b) mod p with p = 2^31 − 1 (Mersenne-31):
  a ∈ [1,p), b ∈ [0,p), x reduced mod p first, so every product fits a
  uint64 exactly — no silent 2^64 wraparound (round-1 advice fix). It
  evaluates ALL docs' shingles in one (Σ|sh|, P) matrix and min-reduces
  per doc via np.minimum.reduceat — no per-doc Python loop.
- lsh_band_keys_batch: per-band bucket keys of the MinHash signatures.
- simhash64_batch: 64-bit sign sketch over shingle hashes, vectorized via
  unpackbits + reduceat.
- jaccard: exact set Jaccard for candidate verification.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE31 = np.uint64((1 << 31) - 1)

# odd 64-bit mixing multipliers for the k-word polynomial combine
_POLY_MULTS = (
    np.uint64(0x9E3779B97F4A7C15),  # golden-ratio odd constant
    np.uint64(0xC2B2AE3D27D4EB4F),
    np.uint64(0x165667B19E3779F9),
    np.uint64(0x27D4EB2F165667C5),
    np.uint64(0xFF51AFD7ED558CCD),
)


def _hash64(token: str) -> int:
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


def _word_hashes(words: list, cache: dict) -> np.ndarray:
    out = np.empty(len(words), dtype=np.uint64)
    for i, w in enumerate(words):
        h = cache.get(w)
        if h is None:
            h = _hash64(w)
            cache[w] = h
        out[i] = h
    return out


def _combine_shingles(wh: np.ndarray, k: int) -> np.ndarray:
    """Vectorized k-window polynomial combine over word hashes → unique
    sorted uint64 shingle hashes. < k words → one shingle of all words."""
    n = len(wh)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    kk = min(k, n)
    acc = np.zeros(n - kk + 1, dtype=np.uint64)
    for j in range(kk):
        acc = acc * _POLY_MULTS[j % len(_POLY_MULTS)] + wh[j:n - kk + 1 + j]
    # finalizer (splitmix64-style) so low-entropy word hashes still spread
    acc ^= acc >> np.uint64(30)
    acc *= np.uint64(0xBF58476D1CE4E5B9)
    acc ^= acc >> np.uint64(27)
    return np.unique(acc)


def shingle_hashes_batch(texts, k: int = 3) -> list:
    """Shingle-hash every text with one shared word-hash cache (the
    vocabulary is far smaller than the token stream)."""
    cache: dict = {}
    return [_combine_shingles(_word_hashes(t.split() if t else [], cache), k)
            for t in texts]


def minhash_params(n_perm: int, seed: int = 42):
    rng = np.random.default_rng(seed)
    p = int(_MERSENNE31)
    a = rng.integers(1, p, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, p, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def _perm_values(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(sh), n_perm) exact (a·x+b) mod (2^31−1): x' = x mod p < 2^31 and
    a < 2^31, so a·x' + b < 2^62 + 2^31 fits uint64 with no wraparound.
    (Scalar ``%`` is the fast path here — numpy's uint64 mod-by-scalar beats
    a shift-fold Mersenne reduction ~15× because the fold's np.where and
    temporaries dominate; measured round 4.)"""
    x = (sh % _MERSENNE31)[:, None]
    return (x * a[None, :] + b[None, :]) % _MERSENNE31


def minhash_signatures_batch(shingle_sets: list, a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """(n_docs, n_perm) signatures for a whole batch in one vectorized pass:
    all shingles concatenated, permuted once, min-reduced per doc boundary."""
    n_perm = len(a)
    lens = np.array([len(s) for s in shingle_sets], dtype=np.int64)
    out = np.full((len(shingle_sets), n_perm), _MERSENNE31, dtype=np.uint64)
    nz = np.flatnonzero(lens)
    if len(nz) == 0:
        return out
    allsh = np.concatenate([shingle_sets[i] for i in nz])
    bounds = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
    # Evaluate in ~32k-shingle chunks split at doc boundaries: the full
    # (Σ|sh|, P) uint64 matrix (hundreds of MB at realistic batch sizes)
    # thrashes cache and malloc — chunking measured ~20× faster round 4,
    # bit-identical (docs never straddle a chunk; reduceat runs per chunk).
    chunk = 32768
    starts = [0]  # indices into nz where each chunk begins
    for i in range(1, len(nz)):
        if bounds[i] - bounds[starts[-1]] >= chunk:
            starts.append(i)
    starts_sh = [int(bounds[i]) for i in starts] + [len(allsh)]
    doc_idx = starts + [len(nz)]
    for c in range(len(starts)):
        lo, hi = starts_sh[c], starts_sh[c + 1]
        if lo == hi:
            continue
        hv = _perm_values(allsh[lo:hi], a, b)
        sub = bounds[doc_idx[c]:doc_idx[c + 1]] - lo
        out[nz[doc_idx[c]:doc_idx[c + 1]]] = \
            np.minimum.reduceat(hv, sub, axis=0)
    return out


def lsh_band_keys_batch(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, n_bands) int64 LSH bucket keys: each band's rows are mixed
    with the polynomial+finalizer combine (vectorized; band index is salted
    in so identical band values in different bands never collide)."""
    sigs = np.asarray(sigs, dtype=np.uint64)
    n_docs, n_perm = sigs.shape
    rows = n_perm // n_bands
    acc = np.zeros((n_docs, n_bands), dtype=np.uint64)
    banded = sigs[:, :rows * n_bands].reshape(n_docs, n_bands, rows)
    for j in range(rows):
        acc = acc * _POLY_MULTS[j % len(_POLY_MULTS)] + banded[:, :, j]
    acc += np.arange(1, n_bands + 1, dtype=np.uint64)[None, :] * _POLY_MULTS[1]
    acc ^= acc >> np.uint64(30)
    acc *= np.uint64(0xBF58476D1CE4E5B9)
    acc ^= acc >> np.uint64(27)
    return (acc >> np.uint64(1)).astype(np.int64)


def simhash64_batch(shingle_sets: list) -> np.ndarray:
    """(n_docs,) int64 SimHash: unpackbits over all shingles at once,
    per-doc bit-score via np.add.reduceat."""
    lens = np.array([len(s) for s in shingle_sets], dtype=np.int64)
    out = np.zeros(len(shingle_sets), dtype=np.int64)
    nz = np.flatnonzero(lens)
    if len(nz) == 0:
        return out
    allsh = np.concatenate([shingle_sets[i] for i in nz])
    bits = np.unpackbits(
        allsh.view(np.uint8).reshape(-1, 8), axis=1,
        bitorder="little").astype(np.int64)          # (Σ|sh|, 64) little-endian
    bounds = np.concatenate([[0], np.cumsum(lens[nz])[:-1]])
    ones = np.add.reduceat(bits, bounds, axis=0)      # per-doc set-bit counts
    score = 2 * ones - lens[nz][:, None]              # (+1/-1 vote sum)
    words = (score > 0).astype(np.uint64) @ (np.uint64(1) << np.arange(64, dtype=np.uint64))
    out[nz] = (words >> np.uint64(1)).astype(np.int64)  # keep sign-safe 63 bits
    return out


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 1.0
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0
