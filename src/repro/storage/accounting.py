"""Byte accounting for the memory governor (deterministic estimates).

The governor (:class:`repro.resilience.MemoryGovernor`) budgets *estimated*
bytes, not ``sys.getsizeof`` walks: estimates are deterministic across
platforms and Python builds, cheap enough to recompute at the governor's
tick cadence, and — because both the budget and the usage are measured with
the same ruler — the hysteresis ladder behaves reproducibly in tests and
benchmarks. The constants below are calibrated against CPython 3.11 object
sizes (slotted ``Post``, deque blocks, dict entries) and err slightly high,
so staying under the accounted budget keeps the real RSS contribution of
the accounted structures under it too.

Accounted families (one gauge each in :mod:`repro.obs`):

* ``window`` — admitted posts held in engine bins (RAM head only for
  tiered bins; a spilled post costs its three resident column cells, not
  the post).
* ``index``  — SimHash pigeonhole tables (:class:`repro.simhash.SimHashIndex`).
* ``journal`` — the supervisor's write-ahead :class:`~repro.supervise.BatchJournal`.
* ``service`` — the ingest service's per-run reservoirs (arrival/latency
  samples, the per-user mailbox analog of the paper's reading model).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..core.post import Post

#: Slotted frozen ``Post`` instance: object header, five slot pointers, the
#: boxed float timestamp and the (often large) fingerprint int.
POST_BASE_BYTES = 168

#: One deque slot (pointer into a deque block, amortized).
DEQUE_SLOT_BYTES = 8

#: What stays resident of a spilled post: one ``uint64`` fingerprint, one
#: ``float64`` timestamp and one ``int64`` author cell in the bin's scan
#: columns (the post itself lives on disk).
SPILLED_ENTRY_BYTES = 24

#: One SimHash table entry: a dict slot in a bucket plus the key/fingerprint
#: references (each stored fingerprint appears once per table).
INDEX_ENTRY_BYTES = 104

#: Fixed overhead of one journalled command tuple (list slot, tuple header,
#: per-post wrapping tuples are charged via :func:`estimate_message_bytes`).
JOURNAL_ENTRY_BASE_BYTES = 96

#: One float sample in a service reservoir (boxed float + list slot).
SAMPLE_BYTES = 32

#: Fixed overhead of one materialized per-user mailbox: the object, its
#: entry deque (one empty block) and its seen-set header.
MAILBOX_BASE_BYTES = 480

#: One slotted ``FeedEntry`` in a mailbox: object header, four slot
#: pointers, the boxed float timestamp, plus its deque slot.
MAILBOX_ENTRY_BYTES = 112

#: One sequence number in a mailbox's impression (seen) set: the set slot
#: plus the (usually small) int.
SEEN_ENTRY_BYTES = 32


def estimate_mailbox_bytes(mailboxes: int, entries: int, seen: int) -> int:
    """Accounted bytes of a fanout mailbox store: ``mailboxes``
    materialized boxes holding ``entries`` feed entries and ``seen``
    recorded impressions. The store tracks all three counts
    incrementally, so the governor's ``mailbox`` family costs O(1) per
    tick regardless of subscriber count."""
    return (
        mailboxes * MAILBOX_BASE_BYTES
        + entries * MAILBOX_ENTRY_BYTES
        + seen * SEEN_ENTRY_BYTES
    )


def estimate_post_bytes(post: Post) -> int:
    """Estimated resident bytes of one in-memory :class:`Post`."""
    return POST_BASE_BYTES + len(post.text) + DEQUE_SLOT_BYTES


def estimate_posts_bytes(posts: Iterable[Post]) -> int:
    """Sum of :func:`estimate_post_bytes` over ``posts``."""
    return sum(POST_BASE_BYTES + len(p.text) + DEQUE_SLOT_BYTES for p in posts)


def estimate_bin_bytes(bin_) -> int:
    """Accounted bytes of one window bin, either flavour: a tiered bin
    reports its own head/column accounting, a plain :class:`PostBin` is
    charged per resident post."""
    approx = getattr(bin_, "approx_bytes", None)
    if approx is not None:
        return approx()
    return estimate_posts_bytes(bin_)


def estimate_index_bytes(index) -> int:
    """Estimated bytes of a :class:`~repro.simhash.SimHashIndex`: every
    stored fingerprint occupies one entry in each of the ``radius + 1``
    pigeonhole tables."""
    return len(index) * index.table_count * INDEX_ENTRY_BYTES


def estimate_message_bytes(message: tuple) -> int:
    """Estimated bytes of one journalled wire message.

    Walks the message payload charging :func:`estimate_post_bytes` for every
    :class:`Post` and a flat per-element overhead for containers — exact
    enough for budgeting the journal family, and computed once per append
    (the journal accumulates the total incrementally).
    """
    total = JOURNAL_ENTRY_BASE_BYTES
    stack: list[object] = [message]
    while stack:
        obj = stack.pop()
        if isinstance(obj, Post):
            total += POST_BASE_BYTES + len(obj.text)
        elif isinstance(obj, (tuple, list)):
            total += 8 * len(obj)
            stack.extend(obj)
        elif isinstance(obj, dict):
            total += 16 * len(obj)
            stack.extend(obj.values())
        elif isinstance(obj, str):
            total += len(obj)
        elif isinstance(obj, (bytes, bytearray, memoryview)):
            # Detached shared-memory batches journal their packed rows as
            # one bytes blob; charge it at face value.
            total += len(obj)
    return total


def estimate_ring_bytes(rings: Iterable) -> int:
    """Accounted bytes of the parallel engine's shared-memory rings —
    fixed at creation (``capacity`` per ring), deliberately reported via
    :meth:`~repro.parallel.ParallelSharedMultiUser.transport_bytes`
    rather than a governor family: ring capacity is constant for the
    pool's lifetime, so it belongs in capacity planning, not in the
    governor's reclaim ladder."""
    return sum(ring.capacity for ring in rings)
