"""Pigeonhole SimHash index in the spirit of Manku et al. (WWW'07).

The paper (§3, end) notes that the classic permuted-table SimHash index is
only practical for *small* Hamming thresholds — the number of tables grows
quickly with λc, and at the λc = 18 the tweet study calls for, the index
degenerates — which is why the SPSD algorithms fall back to linear scans
pruned by the time and author dimensions. We implement the index anyway, as
an ablation: it lets the benchmarks *measure* the regime where indexing wins
(λc ≤ ~6) and where it collapses (large λc), substantiating the paper's
design decision.

Construction: to find all stored fingerprints within Hamming distance ``k``
of a query, split the 64 bits into ``k + 1`` contiguous blocks. Two
fingerprints within distance ``k`` must agree exactly on at least one block
(pigeonhole), so one hash table per block keyed by that block's bits finds a
candidate superset, verified with a full Hamming check.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable, Iterator

import numpy as np

from .hamming import hamming, popcount64

#: Bucket size from which :meth:`SimHashIndex.iter_within` switches from
#: per-entry ``int.bit_count`` to one batched XOR + popcount over the
#: whole bucket. Below this the ~10µs fixed numpy call overhead outweighs
#: the win — measured breakeven against the scalar loop sits near 90
#: entries, so 64 leaves margin for slower per-entry consumers.
VECTOR_BUCKET_MIN = 64


def block_bounds(total_bits: int, blocks: int) -> list[tuple[int, int]]:
    """Split ``total_bits`` into ``blocks`` contiguous (offset, width) spans,
    widths differing by at most one bit.

    >>> block_bounds(64, 4)
    [(0, 16), (16, 16), (32, 16), (48, 16)]
    """
    if not 1 <= blocks <= total_bits:
        raise ValueError(f"need 1 <= blocks <= {total_bits}, got {blocks}")
    base, extra = divmod(total_bits, blocks)
    bounds = []
    offset = 0
    for i in range(blocks):
        width = base + (1 if i < extra else 0)
        bounds.append((offset, width))
        offset += width
    return bounds


class SimHashIndex:
    """Near-neighbour index over 64-bit fingerprints for a fixed radius.

    Items are (fingerprint, key) pairs; ``key`` is any hashable identifier
    (e.g. a post id) so entries can be removed when they fall out of the
    time window. Duplicate fingerprints are fine.
    """

    def __init__(self, radius: int, *, total_bits: int = 64):
        if radius < 0 or radius >= total_bits:
            raise ValueError(f"need 0 <= radius < {total_bits}, got {radius}")
        self.radius = radius
        self.total_bits = total_bits
        self._bounds = block_bounds(total_bits, radius + 1)
        self._masks = [((1 << width) - 1) << offset for offset, width in self._bounds]
        # One table per block: block-bits -> {key -> fingerprint}.
        self._tables: list[dict[int, dict[Hashable, int]]] = [
            defaultdict(dict) for _ in self._bounds
        ]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def table_count(self) -> int:
        """Number of hash tables, i.e. radius + 1."""
        return len(self._tables)

    def _block_keys(self, fingerprint: int) -> Iterator[tuple[int, int]]:
        for table_idx, mask in enumerate(self._masks):
            yield table_idx, fingerprint & mask

    def add(self, fingerprint: int, key: Hashable) -> None:
        """Insert ``fingerprint`` under ``key`` (replacing a same-key entry)."""
        for table_idx, block in self._block_keys(fingerprint):
            self._tables[table_idx][block][key] = fingerprint
        self._size += 1

    def remove(self, fingerprint: int, key: Hashable) -> None:
        """Remove the entry added under (fingerprint, key); no-op if absent."""
        removed = False
        for table_idx, block in self._block_keys(fingerprint):
            bucket = self._tables[table_idx].get(block)
            if bucket is not None and bucket.pop(key, None) is not None:
                removed = True
                if not bucket:
                    del self._tables[table_idx][block]
        if removed:
            self._size -= 1

    def iter_within(self, fingerprint: int) -> Iterator[tuple[Hashable, int]]:
        """Lazily yield (key, distance) pairs within ``radius``.

        Same candidates, same order and same deduplication as
        :meth:`query`, but produced one at a time — a consumer that stops
        at its first acceptable match never pays for the rest of the
        candidate set (the :class:`~repro.core.IndexedUniBin` hot path).

        Buckets of at least :data:`VECTOR_BUCKET_MIN` entries are
        distance-filtered with one vectorized popcount instead of a
        Python loop; keys, order and the seen-set dedup (every inspected
        key is marked seen, in or out of radius) are identical either
        way. Fingerprints that do not fit ``uint64`` stay on the scalar
        path.
        """
        seen: set[Hashable] = set()
        radius = self.radius
        query = None
        if self.total_bits <= 64 and 0 <= fingerprint < 1 << 64:
            query = np.uint64(fingerprint)
        for table_idx, block in self._block_keys(fingerprint):
            bucket = self._tables[table_idx].get(block)
            if not bucket:
                continue
            if query is not None and len(bucket) >= VECTOR_BUCKET_MIN:
                keys = [key for key in bucket if key not in seen]
                if not keys:
                    continue
                seen.update(keys)
                try:
                    candidates = np.fromiter(
                        (bucket[key] for key in keys),
                        dtype=np.uint64,
                        count=len(keys),
                    )
                except (OverflowError, ValueError):
                    # A stored fingerprint outside uint64: filter this
                    # bucket entry-by-entry instead.
                    for key in keys:
                        distance = hamming(fingerprint, bucket[key])
                        if distance <= radius:
                            yield key, distance
                    continue
                distances = popcount64(candidates ^ query).tolist()
                for key, distance in zip(keys, distances):
                    if distance <= radius:
                        yield key, distance
                continue
            for key, candidate in bucket.items():
                if key in seen:
                    continue
                seen.add(key)
                distance = hamming(fingerprint, candidate)
                if distance <= radius:
                    yield key, distance

    def query(self, fingerprint: int) -> list[tuple[Hashable, int]]:
        """All (key, distance) pairs within ``radius`` of ``fingerprint``."""
        return list(self.iter_within(fingerprint))

    def first_match(self, fingerprint: int, accept=None) -> Hashable | None:
        """Key of the first stored fingerprint within ``radius``, or None.

        ``accept`` optionally filters candidates: a callable receiving each
        in-radius key (in :meth:`query` order) that returns True to accept
        it. The scan short-circuits at the first accepted key, so callers
        verifying extra dimensions per candidate (time, author) stop as
        soon as one passes instead of materializing every candidate.
        """
        for key, _distance in self.iter_within(fingerprint):
            if accept is None or accept(key):
                return key
        return None

    def any_within(self, fingerprint: int) -> bool:
        """True iff any stored fingerprint is within ``radius``."""
        for table_idx, block in self._block_keys(fingerprint):
            bucket = self._tables[table_idx].get(block)
            if not bucket:
                continue
            for candidate in bucket.values():
                if hamming(fingerprint, candidate) <= self.radius:
                    return True
        return False

    def candidate_count(self, fingerprint: int) -> int:
        """Number of candidate entries inspected for this query — the cost
        metric the ablation benchmark reports (distinct keys touched)."""
        seen: set[Hashable] = set()
        for table_idx, block in self._block_keys(fingerprint):
            bucket = self._tables[table_idx].get(block)
            if bucket:
                seen.update(bucket.keys())
        return len(seen)
