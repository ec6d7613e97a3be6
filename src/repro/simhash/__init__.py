"""Content-distance substrate: SimHash fingerprints for short social posts.

Public surface:

* :func:`simhash` / :func:`simhash_from_features` — 64-bit fingerprints.
* :func:`hamming` / :func:`hamming_bulk` / :func:`within` — bit distances.
* :func:`normalize` — the paper's §3 text normalisation.
* :class:`TfVector`, :func:`cosine_similarity` — the cosine baseline.
* :class:`SimHashIndex` — pigeonhole near-neighbour index (ablation).
* :class:`CoverageKernel` — vectorized newest-first window probe.
"""

from .cosine import TfVector, cosine_distance, cosine_similarity
from .coverage import (
    CoverageKernel,
    kernel_enabled,
    set_kernel_enabled,
)
from .fingerprint import (
    EMPTY_FINGERPRINT,
    FINGERPRINT_BITS,
    disable_metrics,
    enable_metrics,
    simhash,
    simhash_from_features,
)
from .hamming import hamming, hamming_bulk, popcount64, within
from .hashing import clear_token_cache, hash_token, token_cache_size
from .index import SimHashIndex, block_bounds
from .normalize import expand_short_urls, normalize, strip_short_urls
from .preprocess import (
    ABBREVIATIONS,
    PreprocessOptions,
    expand_abbreviations,
    preprocess_text,
    simhash_preprocessed,
    weighted_features,
)
from .tokenize import feature_counts, shingles, words

__all__ = [
    "ABBREVIATIONS",
    "CoverageKernel",
    "EMPTY_FINGERPRINT",
    "FINGERPRINT_BITS",
    "PreprocessOptions",
    "SimHashIndex",
    "TfVector",
    "expand_abbreviations",
    "preprocess_text",
    "simhash_preprocessed",
    "weighted_features",
    "block_bounds",
    "clear_token_cache",
    "cosine_distance",
    "cosine_similarity",
    "disable_metrics",
    "enable_metrics",
    "expand_short_urls",
    "feature_counts",
    "hamming",
    "hamming_bulk",
    "hash_token",
    "kernel_enabled",
    "normalize",
    "popcount64",
    "set_kernel_enabled",
    "shingles",
    "simhash",
    "simhash_from_features",
    "strip_short_urls",
    "token_cache_size",
    "within",
    "words",
]
