"""Hamming distance over 64-bit fingerprints.

This is the hot inner loop of every diversifier: each incoming post's
fingerprint is compared against every candidate in the scanned bins, so the
scalar path must be as cheap as Python allows (a single XOR plus
``int.bit_count``). A vectorised bulk path over numpy arrays is provided for
the distribution studies, which compare hundreds of thousands of pairs.
"""

from __future__ import annotations

import numpy as np


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two 64-bit fingerprints.

    >>> hamming(0b1010, 0b0110)
    2
    >>> hamming(123456789, 123456789)
    0
    """
    return (a ^ b).bit_count()


def popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element bit count of a uint64 array, as ``uint8`` counts.

    The shared primitive of every batched Hamming path: the distribution
    studies, the vectorized coverage kernel
    (:mod:`repro.simhash.coverage`) and the pigeonhole index's bucket
    filter all XOR their candidates against a probe and feed the result
    here. One ``np.bitwise_count`` call (numpy >= 2.0, the hardware
    popcount where the CPU has one).
    """
    return np.bitwise_count(x.astype(np.uint64, copy=False))


def hamming_bulk(fingerprints_a: np.ndarray, fingerprints_b: np.ndarray) -> np.ndarray:
    """Element-wise Hamming distances of two equal-length uint64 arrays.

    Widened to ``int64`` so callers can subtract and sum distances
    without wrapping the ``uint8`` counts.
    """
    return popcount64(
        fingerprints_a.astype(np.uint64) ^ fingerprints_b.astype(np.uint64)
    ).astype(np.int64)


def within(a: int, b: int, threshold: int) -> bool:
    """True iff the fingerprints differ in at most ``threshold`` bits."""
    return (a ^ b).bit_count() <= threshold
