"""Scalar SimHash reference: the per-bit loop the numpy kernel replaced.

Kept verbatim as the oracle that ``simhash_from_features`` must match bit
for bit, so any change to the kernel's hashing, bit order or summation
order shows up as a test failure rather than as drifted fingerprints.
"""

from repro.simhash import EMPTY_FINGERPRINT, FINGERPRINT_BITS, hash_token

MASK64 = (1 << 64) - 1


def simhash_from_features(weighted_features: dict[str, int] | dict[str, float]) -> int:
    """SimHash of an explicit ``feature -> weight`` mapping.

    Exposed separately so callers with custom feature extraction (e.g. the
    hashtag-reweighting ablation) can reuse the bit-accumulation core.
    """
    if not weighted_features:
        return EMPTY_FINGERPRINT
    acc = [0.0] * FINGERPRINT_BITS
    for feature, weight in weighted_features.items():
        h = hash_token(feature)
        for bit in range(FINGERPRINT_BITS):
            if (h >> bit) & 1:
                acc[bit] += weight
            else:
                acc[bit] -= weight
    fingerprint = 0
    for bit in range(FINGERPRINT_BITS):
        if acc[bit] > 0:
            fingerprint |= 1 << bit
    return fingerprint & MASK64
