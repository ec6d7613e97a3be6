"""Stable 64-bit token hashing.

SimHash fingerprints must be reproducible across processes and machines, so
we cannot use Python's builtin ``hash`` (randomised by ``PYTHONHASHSEED``).
We use blake2b with an 8-byte digest, which is fast, stdlib-only and has
excellent avalanche behaviour, plus a tiny per-call memo because streams hash
the same (Zipf-distributed) tokens over and over.
"""

from __future__ import annotations

from hashlib import blake2b

# Token-hash memo shared by all fingerprinting calls. Vocabulary in a
# microblog stream is small relative to the number of token occurrences, so
# this cache has a very high hit rate; it is capped to keep long-running
# processes bounded.
_MEMO_LIMIT = 1 << 20
_memo: dict[str, int] = {}


def hash_token(token: str) -> int:
    """Return a stable unsigned 64-bit hash of ``token``.

    >>> hash_token("hello") == hash_token("hello")
    True
    >>> 0 <= hash_token("hello") < 2 ** 64
    True
    """
    cached = _memo.get(token)
    if cached is not None:
        return cached
    value = int.from_bytes(
        blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )
    if len(_memo) < _MEMO_LIMIT:
        _memo[token] = value
    return value


def clear_token_cache() -> None:
    """Drop the token-hash memo (useful in memory-sensitive tests)."""
    _memo.clear()


def token_cache_size() -> int:
    """Number of tokens currently memoised."""
    return len(_memo)
