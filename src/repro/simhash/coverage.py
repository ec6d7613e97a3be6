"""Vectorized coverage probing for window scans (the parallel hot path).

UniBin's per-arrival cost is a newest-first scan over every in-window
admitted post, applying the three-dimensional coverage predicate one
candidate at a time in the interpreter. This module replaces that loop
with batch arithmetic: a :class:`CoverageKernel` mirrors the window bin
in columnar numpy arrays (fingerprints as ``uint64``, timestamps as
``float64``, author ids as ``int64``) and answers each probe with a
chunked XOR → popcount sweep, newest first, so the content test for
a whole block of candidates costs one vector expression instead of a
block of Python iterations. Two owners keep one: UniBin over a plain
in-memory bin once its scans are long enough to vectorize, and every
:class:`~repro.storage.TieredPostBin` over its *spilled* entries, where
the columns are all that stays resident of a spilled post.

Bit-exactness contract (asserted by ``tests/core/test_vector_coverage.py``):

* verdicts are identical to the scalar probe — same greedy decision on
  every post of every stream;
* ``RunStats.comparisons`` is identical — a hit at newest-first position
  ``p`` (1-based) costs ``p`` comparisons, a full miss costs the number
  of candidates scanned, and a governor probe limit truncates the scan
  at exactly ``limit`` candidates, matching the scalar loop's
  ``checked >= limit`` break;
* ``AuthorGraph.are_similar`` is consulted for exactly the candidates
  the scalar loop would consult (content-similar, different author,
  newest-first up to and including the first hit), so graphs with
  side effects or instrumentation observe the same call sequence.

The time dimension needs no mask here: every engine expires the bin at
the probing post's timestamp *before* scanning, and stream order bounds
every remaining candidate inside ``[t − λt, t]``, so ``time_similar`` is
vacuously true for every candidate the kernel sees.

Fingerprints outside ``[0, 2^64)`` or author ids outside the ``int64``
range cannot be mirrored; the owner abandons its kernel and scans scalar
(UniBin catches the ``OverflowError`` of :meth:`CoverageKernel.append`,
see :meth:`repro.core.unibin.UniBin._admit`; a tiered bin checks a post's
types before mirroring it, because numpy would quietly store a bool
author or an int timestamp). A module-level switch
(:func:`set_kernel_enabled`, env ``REPRO_COVERAGE_KERNEL=0``) forces the
scalar path for UniBin's in-memory mirror globally — the differential
tests run both sides of it.
"""

from __future__ import annotations

import os

import numpy as np

from .hamming import popcount64

__all__ = [
    "CoverageKernel",
    "FIRST_BLOCK",
    "PROBE_BLOCK",
    "VECTOR_MIN_SCAN",
    "kernel_enabled",
    "set_kernel_enabled",
]

#: Largest candidate block per vectorized sweep. Blocks ramp up
#: geometrically from :data:`FIRST_BLOCK` — a hit near the newest end
#: (the common case on duplicate-heavy streams — near-duplicates cluster
#: in time) pays one small popcount, while a deep miss quickly reaches
#: full-width blocks that amortize the numpy call overhead.
PROBE_BLOCK = 256

#: First (newest) block size of the ramp.
FIRST_BLOCK = 32

#: Scans shorter than this are cheaper in the scalar loop: one numpy
#: sweep costs ~4µs of fixed call overhead regardless of width, which a
#: Python loop over a handful of candidates undercuts easily, and below
#: it a mirror of an in-memory bin is not worth keeping. UniBin consults
#: this before probing (see ``UniBin._is_covered``); the kernel itself
#: answers any scan it is asked for, as it does for a tiered bin's
#: spilled entries, whose columns are resident anyway.
VECTOR_MIN_SCAN = 64

_MIN_CAPACITY = 64

_enabled = os.environ.get("REPRO_COVERAGE_KERNEL", "1") != "0"


def kernel_enabled() -> bool:
    """True when engines should build a :class:`CoverageKernel` (default)."""
    return _enabled


def set_kernel_enabled(flag: bool) -> bool:
    """Globally enable/disable kernel construction; returns the old value.

    Affects engines constructed *after* the call — existing engines keep
    whatever path they were built with. The differential tests flip this
    to run scalar reference engines next to vectorized ones.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


class CoverageKernel:
    """Columnar mirror of one window bin plus a batched coverage probe.

    The owning engine keeps it in lockstep with its deque: one
    :meth:`append` per admitted post, one :meth:`drop_oldest` per expiry
    batch, one :meth:`rebuild` per checkpoint restore. Live entries
    occupy ``[_start, _end)`` of the backing arrays, oldest first;
    appends go at ``_end`` and expiry just advances ``_start``, so both
    hot operations are O(1) with compaction amortized into growth.
    """

    __slots__ = ("_fp", "_ts", "_au", "_start", "_end")

    def __init__(self, capacity: int = _MIN_CAPACITY):
        capacity = max(int(capacity), _MIN_CAPACITY)
        self._fp = np.empty(capacity, dtype=np.uint64)
        self._ts = np.empty(capacity, dtype=np.float64)
        self._au = np.empty(capacity, dtype=np.int64)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def nbytes(self) -> int:
        """Bytes of columnar state for the live window (accounting gauge)."""
        n = self._end - self._start
        return n * (self._fp.itemsize + self._ts.itemsize + self._au.itemsize)

    def append(self, fingerprint: int, timestamp: float, author: int) -> None:
        """Mirror a newly-admitted post.

        Raises ``OverflowError``/``TypeError`` when a field does not fit
        its column; the caller must then abandon the kernel (the window
        would no longer round-trip) and fall back to scalar scans.
        """
        if self._end == self._fp.shape[0]:
            self._make_room()
        end = self._end
        self._fp[end] = fingerprint
        self._ts[end] = timestamp
        self._au[end] = author
        self._end = end + 1

    def _make_room(self) -> None:
        n = self._end - self._start
        capacity = self._fp.shape[0]
        # Compact in place when at least half the array is dead prefix,
        # otherwise double — classic amortized-O(1) ring maintenance.
        new_capacity = capacity if 2 * n <= capacity else 2 * capacity
        for name in ("_fp", "_ts", "_au"):
            column = getattr(self, name)
            fresh = np.empty(new_capacity, dtype=column.dtype)
            fresh[:n] = column[self._start : self._end]
            setattr(self, name, fresh)
        self._start, self._end = 0, n

    def drop_oldest(self, count: int) -> None:
        """Mirror an expiry batch: the bin dropped ``count`` from the left."""
        self._start += count
        if self._start >= self._end:
            self._start = self._end = 0

    def count_older(self, cutoff: float) -> int:
        """How many entries a left-to-right expiry at ``cutoff`` drops:
        the length of the leading run with ``timestamp < cutoff`` — the
        deque loop's exact answer, read off the timestamp column. The
        common "oldest entry still in window" case costs one cell read."""
        start, end = self._start, self._end
        if start == end or not self._ts[start] < cutoff:
            return 0
        older = self._ts[start:end] < cutoff
        first_kept = int(older.argmin())
        return first_kept if not older[first_kept] else end - start

    def clear(self) -> None:
        self._start = self._end = 0

    def probe(
        self,
        fingerprint: int,
        author: int,
        *,
        lambda_c: int,
        limit: int | None = None,
        author_free: bool = True,
        graph=None,
    ) -> tuple[bool, int] | None:
        """Scan newest-first for a covering candidate.

        Returns ``(covered, comparisons)`` with the scalar loop's exact
        accounting, or ``None`` when the probing fingerprint itself does
        not fit ``uint64`` (the caller scans scalar for that one post —
        the mirrored window is still valid).
        """
        n = self._end - self._start
        scan = n if limit is None or limit > n else limit
        if scan <= 0:
            return (False, 0)
        try:
            fp = np.uint64(fingerprint)
        except (OverflowError, ValueError, TypeError):
            return None
        fp_column = self._fp
        end = self._end
        floor = end - scan
        are_similar = None if author_free or graph is None else graph.are_similar
        hi = end
        block = FIRST_BLOCK
        while hi > floor:
            lo = max(floor, hi - block)
            block = min(block * 2, PROBE_BLOCK)
            content = popcount64(fp_column[lo:hi] ^ fp) <= lambda_c
            candidates = np.flatnonzero(content)
            if candidates.size:
                if author_free:
                    # Newest-first ⇒ the largest in-block offset wins.
                    return (True, end - (lo + int(candidates[-1])))
                au_column = self._au
                for offset in candidates[::-1]:
                    j = lo + int(offset)
                    candidate_author = int(au_column[j])
                    if candidate_author == author or (
                        are_similar is not None
                        and are_similar(author, candidate_author)
                    ):
                        return (True, end - j)
            hi = lo
        return (False, scan)
