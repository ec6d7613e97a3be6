"""64-bit SimHash fingerprints (Charikar; as used by the paper, §3).

The fingerprint of a text is computed in the classic way: every weighted
feature (word or word shingle) contributes its 64-bit token hash to a vector
of 64 signed accumulators — ``+weight`` where the hash bit is 1, ``-weight``
where it is 0 — and the fingerprint's *i*-th bit is 1 iff accumulator *i* is
positive. Texts sharing most features agree on most bits, so the Hamming
distance of two fingerprints tracks the cosine distance of the texts.

:func:`simhash_from_features` is the one implementation every caller shares
(:func:`simhash`, :func:`~repro.simhash.simhash_preprocessed` and
``Post.create``). It is a single numpy kernel over the ``n`` features:

1. the token hashes go into a little-endian ``'<u8'`` array, so byte *k* of
   each row holds hash bits ``8k … 8k+7`` whatever the host's byte order;
2. ``np.unpackbits(..., bitorder="little")`` turns them into an ``(n, 64)``
   bit matrix whose column *i* is hash bit *i*;
3. ``np.where(bits, w, -w).sum(axis=0)`` builds the 64 accumulators from the
   float64 weights;
4. ``np.packbits(acc > 0, bitorder="little")`` packs the sign bits back.

Step 3 is exact, not merely close: summing over axis 0 of a C-ordered
matrix adds whole rows one after another, in feature (dict) order, so each
accumulator sees the same float64 additions in the same order as a scalar
``acc[bit] += ±weight`` loop — integer and float weights alike. (Only the
sign of a zero can differ, which ``> 0`` does not see.) A ``w @ bits``
product would promise no summation order. The tests keep that scalar loop
as the reference the kernel must match bit for bit.

The paper fingerprints both raw and normalised tweet text (its Figures 3 and
4); :func:`simhash` exposes the same switch.
"""

from __future__ import annotations

import time

import numpy as np

from .hashing import hash_token
from .normalize import normalize
from .tokenize import feature_counts

FINGERPRINT_BITS = 64

#: Module-level instrumentation hook (see :func:`enable_metrics`); ``None``
#: keeps :func:`simhash` on the exact uninstrumented path.
_METRICS = None


def enable_metrics(registry) -> None:
    """Count and time every :func:`simhash` call into ``registry``
    (``repro_simhash_fingerprints_total`` / ``repro_simhash_latency_seconds``).

    Pass ``None`` or a no-op registry to disable again. The hook is
    module-level because fingerprinting is a free function on the ingest
    hot path, not a method of any engine.
    """
    global _METRICS
    if registry is None or getattr(registry, "is_noop", False):
        _METRICS = None
        return
    from ..obs.instruments import SimhashInstruments

    _METRICS = SimhashInstruments(registry)


def disable_metrics() -> None:
    """Detach the fingerprint-path instrumentation."""
    global _METRICS
    _METRICS = None

#: Fingerprint assigned to texts with no features at all (empty string).
#: Two empty texts are trivially near-duplicates; distance to anything else
#: is whatever the bit pattern gives.
EMPTY_FINGERPRINT = 0


def simhash_from_features(weighted_features: dict[str, int] | dict[str, float]) -> int:
    """SimHash of an explicit ``feature -> weight`` mapping.

    Exposed separately so callers with custom feature extraction (e.g. the
    hashtag-reweighting ablation) can reuse the bit-accumulation core.
    """
    n = len(weighted_features)
    if not n:
        return EMPTY_FINGERPRINT
    hashes = np.fromiter(map(hash_token, weighted_features), dtype="<u8", count=n)
    bits = np.unpackbits(hashes.view(np.uint8), bitorder="little").reshape(n, -1)
    w = np.fromiter(weighted_features.values(), dtype=np.float64, count=n)[:, None]
    acc = np.where(bits, w, -w).sum(axis=0)
    packed = np.packbits(acc > 0, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def simhash(text: str, *, normalized: bool = True, shingle_width: int = 2) -> int:
    """64-bit SimHash fingerprint of ``text``.

    ``normalized=True`` (the library default, matching the paper's final
    configuration from Figure 4) lowercases and strips punctuation first;
    ``normalized=False`` reproduces the raw-text setting of Figure 3.

    >>> simhash("hello world") == simhash("hello world")
    True
    >>> simhash("") == EMPTY_FINGERPRINT
    True
    """
    metrics = _METRICS
    if metrics is None:
        if normalized:
            text = normalize(text)
        return simhash_from_features(feature_counts(text, shingle_width))
    start = time.perf_counter()
    if normalized:
        text = normalize(text)
    fingerprint = simhash_from_features(feature_counts(text, shingle_width))
    metrics.observe(time.perf_counter() - start)
    return fingerprint
