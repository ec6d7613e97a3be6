"""Per-user mailboxes: the materialized feeds behind fanout-on-write.

The diversification engines answer *who should receive this post*; this
module stores the answer so reads are cheap. Every accepted post is fanned
out into one bounded :class:`Mailbox` per receiver — a ring of
:class:`FeedEntry` stubs ordered by a store-global sequence number — and a
``GET /feed`` read is then a pure mailbox scan: no engine work, no graph
walk, no re-ranking.

Bounding is two-dimensional, mirroring the engines' own windows:

* **capacity** — each mailbox keeps at most ``capacity`` entries; the
  oldest fall off the left (a reader that far behind has lost them, which
  is the classic feed contract);
* **window** — entries older than ``window`` in *stream time* expire,
  exactly like the λt window of the engines, so a mailbox never serves
  posts the diversifier itself would consider stale.

Pagination is cursor-based and stable: a cursor is "the next page serves
entries with sequence strictly below N". Sequence numbers are assigned
once per post at fanout and never reused, so concurrent ingestion only
*prepends* — a reader paging through their feed sees a consistent
snapshot no matter how many posts land mid-pagination.

The impression filter is per-user server-side state: clients POST the
sequence numbers they have rendered, and subsequent pages skip them — a
refresh never re-serves what the user has already seen.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import count
from threading import RLock

from ..core.post import Post
from ..errors import CheckpointError, ConfigurationError, UnknownUserError
from ..storage.accounting import estimate_mailbox_bytes


@dataclass(frozen=True, slots=True)
class FeedEntry:
    """One delivered post in a mailbox (a stub, not the post payload)."""

    seq: int
    post_id: int
    author: int
    timestamp: float

    def to_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "post_id": self.post_id,
            "author": self.author,
            "timestamp": self.timestamp,
        }


@dataclass(frozen=True)
class MailboxConfig:
    """Bounds for every mailbox in a store.

    Attributes:
        capacity: max entries per mailbox (oldest evicted past it).
        window: stream-time seconds an entry stays servable; ``inf``
            disables expiry (capacity still bounds memory).
    """

    capacity: int = 1024
    window: float = math.inf

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(
                f"mailbox capacity must be >= 1, got {self.capacity}"
            )
        if not self.window > 0:
            raise ConfigurationError(
                f"mailbox window must be > 0 (or inf), got {self.window}"
            )


@dataclass(frozen=True, slots=True)
class FeedPage:
    """One page of a mailbox read."""

    entries: tuple[FeedEntry, ...]
    next_cursor: int | None
    filtered: int

    def to_dict(self) -> dict[str, object]:
        return {
            "entries": [entry.to_dict() for entry in self.entries],
            "next_cursor": self.next_cursor,
            "filtered": self.filtered,
        }


class Mailbox:
    """One user's bounded feed: entries ascending by seq, plus the seen set."""

    __slots__ = ("entries", "seen", "evicted_capacity", "evicted_expired")

    def __init__(self) -> None:
        self.entries: deque[FeedEntry] = deque()
        self.seen: set[int] = set()
        self.evicted_capacity = 0
        self.evicted_expired = 0

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: FeedEntry, capacity: int) -> tuple[int, int]:
        """Deliver ``entry``; returns ``(entries_evicted, seen_pruned)``."""
        self.entries.append(entry)
        evicted = pruned = 0
        while len(self.entries) > capacity:
            old = self.entries.popleft()
            evicted += 1
            if old.seq in self.seen:
                self.seen.discard(old.seq)
                pruned += 1
        self.evicted_capacity += evicted
        return evicted, pruned

    def expire(self, now: float, window: float) -> tuple[int, int]:
        """Drop entries older than ``now - window`` (stream time)."""
        cutoff = now - window
        evicted = pruned = 0
        entries = self.entries
        while entries and entries[0].timestamp < cutoff:
            old = entries.popleft()
            evicted += 1
            if old.seq in self.seen:
                self.seen.discard(old.seq)
                pruned += 1
        self.evicted_expired += evicted
        return evicted, pruned

    def page(self, cursor: int | None, limit: int) -> FeedPage:
        """Serve up to ``limit`` unseen entries newest-first below ``cursor``.

        ``next_cursor`` is the seq of the last entry *scanned* (served or
        filtered); pass it back to continue, ``None`` means exhausted.
        """
        served: list[FeedEntry] = []
        filtered = 0
        scanned_to: int | None = None
        exhausted = True
        for entry in reversed(self.entries):
            if cursor is not None and entry.seq >= cursor:
                continue
            if len(served) >= limit:
                exhausted = False
                break
            scanned_to = entry.seq
            if entry.seq in self.seen:
                filtered += 1
            else:
                served.append(entry)
        next_cursor = scanned_to if not exhausted else None
        return FeedPage(tuple(served), next_cursor, filtered)

    def record_impressions(self, seqs: Iterable[int]) -> tuple[int, int]:
        """Mark live seqs as seen; returns ``(recorded, ignored)``.

        Seqs not currently in the mailbox (already evicted, or never
        delivered here) are ignored — the seen set only ever holds live
        entries, so it is bounded by ``capacity`` too.
        """
        live = {entry.seq for entry in self.entries}
        recorded = ignored = 0
        for seq in seqs:
            if seq in live and seq not in self.seen:
                self.seen.add(seq)
                recorded += 1
            elif seq not in live:
                ignored += 1
        return recorded, ignored

    def state_dict(self) -> dict[str, object]:
        """JSON-able snapshot of this mailbox (seqs into the store's table)."""
        return {
            "seqs": [e.seq for e in self.entries],
            "seen": sorted(self.seen),
            "evicted_capacity": self.evicted_capacity,
            "evicted_expired": self.evicted_expired,
        }

    @classmethod
    def from_state(cls, state: dict, table: dict[int, FeedEntry]) -> "Mailbox":
        box = cls()
        try:
            box.entries.extend(table[seq] for seq in state["seqs"])
        except KeyError as missing:
            raise CheckpointError(
                f"snapshot mailbox names seq {missing.args[0]}, which its "
                "entry table does not hold"
            ) from None
        box.seen = {int(s) for s in state["seen"]}
        box.evicted_capacity = int(state.get("evicted_capacity", 0))
        box.evicted_expired = int(state.get("evicted_expired", 0))
        return box


class MailboxStore:
    """All mailboxes of a feed deployment, behind one lock.

    Mailboxes materialize lazily on first delivery or read — a store over
    10⁵ subscribers costs only its user set until posts start flowing.
    Entry/seen/box counts are tracked incrementally so
    :meth:`approx_bytes` (the governor's ``mailbox`` family) is O(1).

    Thread-safe: the HTTP front end serves reads from the
    ``ThreadingHTTPServer`` pool while the write path fans out.
    """

    def __init__(self, users: Iterable[int], config: MailboxConfig | None = None):
        self.config = config or MailboxConfig()
        self._users = frozenset(users)
        if not self._users:
            raise ConfigurationError("a MailboxStore needs at least one user")
        self._boxes: dict[int, Mailbox] = {}
        self._lock = RLock()
        self._seq = count(1)
        self._entries = 0
        self._seen = 0
        self.deliveries = 0
        self.evicted_capacity = 0
        self.evicted_expired = 0
        self.impressions = 0

    @property
    def users(self) -> frozenset[int]:
        return self._users

    def __contains__(self, user: int) -> bool:
        return user in self._users

    def _box(self, user: int) -> Mailbox:
        if user not in self._users:
            raise UnknownUserError(f"user {user} has no mailbox (not subscribed)")
        box = self._boxes.get(user)
        if box is None:
            box = self._boxes[user] = Mailbox()
        return box

    def peek_next_seq(self) -> int:
        """The sequence number the next :meth:`fanout` will assign (the
        WAL records it *before* the fanout applies)."""
        with self._lock:
            nxt = next(self._seq)
            self._seq = count(nxt)  # peeking consumed one; re-arm
            return nxt

    def fanout(self, post: Post, receivers: Iterable[int]) -> tuple[int, int]:
        """Deliver ``post`` to every receiver mailbox under one sequence
        number; returns ``(seq, deliveries)``."""
        with self._lock:
            seq = next(self._seq)
            entry = FeedEntry(seq, post.post_id, post.author, post.timestamp)
            capacity = self.config.capacity
            delivered = 0
            for user in receivers:
                evicted, pruned = self._box(user).append(entry, capacity)
                delivered += 1
                self._entries += 1 - evicted
                self._seen -= pruned
                self.evicted_capacity += evicted
            self.deliveries += delivered
            return seq, delivered

    def expire(self, now: float) -> int:
        """Expire window-stale entries across all materialized mailboxes
        (stream time ``now``); returns how many were dropped."""
        if math.isinf(self.config.window):
            return 0
        with self._lock:
            dropped = 0
            for box in self._boxes.values():
                evicted, pruned = box.expire(now, self.config.window)
                dropped += evicted
                self._entries -= evicted
                self._seen -= pruned
            self.evicted_expired += dropped
            return dropped

    def read(self, user: int, cursor: int | None, limit: int) -> FeedPage:
        """One page of ``user``'s feed (see :meth:`Mailbox.page`)."""
        if limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        if cursor is not None and cursor < 1:
            raise ConfigurationError(f"cursor must be >= 1, got {cursor}")
        with self._lock:
            return self._box(user).page(cursor, limit)

    def read_all(self, user: int, *, page_size: int = 64) -> list[FeedEntry]:
        """Page through ``user``'s whole feed (test/differential helper)."""
        entries: list[FeedEntry] = []
        cursor: int | None = None
        while True:
            page = self.read(user, cursor, page_size)
            entries.extend(page.entries)
            if page.next_cursor is None:
                return entries
            cursor = page.next_cursor

    def record_impressions(self, user: int, seqs: Iterable[int]) -> tuple[int, int]:
        """Mark ``seqs`` seen for ``user``; returns ``(recorded, ignored)``."""
        with self._lock:
            recorded, ignored = self._box(user).record_impressions(seqs)
            self._seen += recorded
            self.impressions += recorded
            return recorded, ignored

    # -- accounting --------------------------------------------------------

    @property
    def mailbox_count(self) -> int:
        """Materialized (non-lazy) mailboxes."""
        return len(self._boxes)

    @property
    def total_entries(self) -> int:
        """Live entries across all mailboxes (total feed depth)."""
        return self._entries

    @property
    def total_seen(self) -> int:
        """Live impression records across all mailboxes."""
        return self._seen

    def approx_bytes(self) -> int:
        """Accounted bytes for the governor's ``mailbox`` family."""
        return estimate_mailbox_bytes(len(self._boxes), self._entries, self._seen)

    def depth_of(self, user: int) -> int:
        with self._lock:
            box = self._boxes.get(user)
            return len(box) if box is not None else 0

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict[str, object]:
        """JSON-able snapshot of the whole store, including the next
        sequence number — :meth:`load_state` restores it byte-identically
        (the durability differential harness compares exactly this). Each
        live entry is written once, in ``entries``; a box lists its seqs."""
        with self._lock:
            next_seq = next(self._seq)
            self._seq = count(next_seq)  # peeking consumed one; re-arm
            table = {e.seq: e for box in self._boxes.values() for e in box.entries}
            return {
                "next_seq": next_seq,
                "entries": [
                    [e.seq, e.post_id, e.author, e.timestamp]
                    for _, e in sorted(table.items())
                ],
                "boxes": {
                    str(user): box.state_dict()
                    for user, box in sorted(self._boxes.items())
                },
                "deliveries": self.deliveries,
                "evicted_capacity": self.evicted_capacity,
                "evicted_expired": self.evicted_expired,
                "impressions": self.impressions,
            }

    def load_state(self, state: dict[str, object]) -> None:
        """Replace all mailbox contents with ``state`` (from
        :meth:`state_dict`). The user set and config are *not* part of the
        state — they come from the deployment, and a snapshot naming a
        user outside it is rejected. Boxes share entries, as in :meth:`fanout`."""
        with self._lock:
            table = {
                int(s): FeedEntry(int(s), int(p), int(a), float(t))
                for s, p, a, t in state["entries"]
            }
            boxes: dict[int, Mailbox] = {}
            entries = seen = 0
            for user_key, box_state in state["boxes"].items():
                user = int(user_key)
                if user not in self._users:
                    raise UnknownUserError(
                        f"snapshot names user {user}, who is not subscribed "
                        "in this deployment"
                    )
                box = Mailbox.from_state(box_state, table)
                boxes[user] = box
                entries += len(box.entries)
                seen += len(box.seen)
            self._boxes = boxes
            self._entries = entries
            self._seen = seen
            self._seq = count(int(state["next_seq"]))
            self.deliveries = int(state.get("deliveries", 0))
            self.evicted_capacity = int(state.get("evicted_capacity", 0))
            self.evicted_expired = int(state.get("evicted_expired", 0))
            self.impressions = int(state.get("impressions", 0))
