"""The reference every reply is checked against, and the script built on it.

Receiver sets come from an in-process serial ``make_multiuser("s_unibin")``
(the engine the repo's differential suites prove every other engine equal
to); mailboxes come from the plain model below, which shares no code with
``repro.feed.mailbox``. The script builder walks the phase script once,
in the exact order the driver will execute it, advancing the model with
every op so each request carries the reply it must get.

For the default seed the digests of all requests, expected replies and
receiver sets are pinned in ``golden.json``: the in-process reference
shares the engine with the server, so only a pinned digest can notice a
change that moves both the same way.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.authors import AuthorGraph
from repro.core import Thresholds
from repro.io import post_from_dict
from repro.multiuser import SubscriptionTable, make_multiuser

from workloads import (
    EXPIRE_EVERY,
    MIXED_READS,
    PAGE_LIMIT,
    PHASES,
    Op,
    World,
    bulk_op,
    digest_requests,
    impressions_op,
    post_op,
    read_op,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class MailboxModel:
    """Bounded per-user feeds for the sampled readers only.

    Mirrors the serving contract, not its code: one global seq per
    processed post, oldest entry evicted past ``capacity``, an expiry
    sweep every ``EXPIRE_EVERY`` processed posts dropping entries older
    than ``window`` stream-seconds, pages newest-first below the cursor
    skipping seen seqs.
    """

    def __init__(self, users, capacity: int, window: float):
        self.capacity = capacity
        self.window = window
        self.boxes = {user: deque() for user in users}
        self.seen = {user: set() for user in users}
        self.users = frozenset(users)
        self.next_seq = 1
        self.since_expire = 0
        self.expiries = 0

    def deliver(self, record: dict, receivers: frozenset) -> None:
        seq = self.next_seq
        self.next_seq += 1
        entry = {
            "seq": seq,
            "post_id": record["post_id"],
            "author": record["author"],
            "timestamp": record["timestamp"],
        }
        for user in receivers & self.users:
            box = self.boxes[user]
            box.append(entry)
            if len(box) > self.capacity:
                self.seen[user].discard(box.popleft()["seq"])
        self.since_expire += 1
        if self.since_expire >= EXPIRE_EVERY:
            self.since_expire = 0
            self.expiries += 1
            cutoff = record["timestamp"] - self.window
            for user, box in self.boxes.items():
                while box and box[0]["timestamp"] < cutoff:
                    self.seen[user].discard(box.popleft()["seq"])

    def page(self, user: int, cursor: int | None) -> dict:
        entries, filtered, scanned_to, exhausted = [], 0, None, True
        seen = self.seen[user]
        for entry in reversed(self.boxes[user]):
            if cursor is not None and entry["seq"] >= cursor:
                continue
            if len(entries) >= PAGE_LIMIT:
                exhausted = False
                break
            scanned_to = entry["seq"]
            if entry["seq"] in seen:
                filtered += 1
            else:
                entries.append(entry)
        return {
            "user": user,
            "entries": entries,
            "next_cursor": None if exhausted else scanned_to,
            "filtered": filtered,
            "stale": False,
        }

    def impressions(self, user: int, seqs: list[int]) -> dict:
        live = {entry["seq"] for entry in self.boxes[user]}
        seen = self.seen[user]
        recorded = ignored = 0
        for seq in seqs:
            if seq in live and seq not in seen:
                seen.add(seq)
                recorded += 1
            elif seq not in live:
                ignored += 1
        return {"user": user, "recorded": recorded, "ignored": ignored}


@dataclass
class Round:
    phase: str
    ops: list[Op]


@dataclass
class Script:
    """Every request of one run, in execution order, with expectations."""

    warm: list[Op] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    verify: list[Op] = field(default_factory=list)
    tail: list[Op] = field(default_factory=list)
    #: sent to every recovered server: the verify reads again, then one
    #: already-acked idempotency key, which must answer "deduplicated"
    recheck: list[Op] = field(default_factory=list)
    snapshot_interval: int = 0
    #: WAL records recovery must replay (tail posts + their expiry sweeps)
    tail_records: int = 0
    #: expected `/feed/stats` fields after the tail
    posts: int = 0
    deliveries: int = 0
    impressions: int = 0
    expiries: int = 0
    receivers_sha256: str = ""
    #: what one `offer` cost the plain in-memory reference engine (raw us);
    #: the denominator of `storage.spill_overhead_ratio`
    reference_offer_us: float = 0.0

    def all_ops(self):
        yield from self.warm
        for rnd in self.rounds:
            yield from rnd.ops
        yield from self.verify
        yield from self.tail
        yield from self.recheck

    def digests(self) -> dict[str, str]:
        replies = hashlib.sha256()
        for op in self.all_ops():
            replies.update(json.dumps(op.expect, sort_keys=True).encode())
        return {
            "requests_sha256": digest_requests(self.all_ops()),
            "replies_sha256": replies.hexdigest(),
            "receivers_sha256": self.receivers_sha256,
        }


def engine_inputs(world: World) -> tuple:
    """``(thresholds, graph, subscriptions)`` as `make_multiuser` takes them."""
    w = world.workload
    return (
        Thresholds(lambda_c=w.lambda_c, lambda_t=w.lambda_t, lambda_a=w.lambda_a),
        AuthorGraph(nodes=world.nodes, edges=world.edges),
        SubscriptionTable(world.subscriptions),
    )


class _Builder:
    def __init__(self, world: World):
        w = world.workload
        self.world = world
        self.engine = make_multiuser("s_unibin", *engine_inputs(world))
        self.model = MailboxModel(
            world.readers, w.mailbox_capacity, w.lambda_t * w.mailbox_windows
        )
        self.cursor = 0  # next unread stream position
        self.script = Script()
        self.sha = hashlib.sha256()
        self.records = 0  # WAL records logged so far
        self.offer_seconds = 0.0
        self.last_keyed: tuple[dict, str, dict] | None = None
        self._reader = 0
        self._chain: tuple[int, int | None] | None = None

    # -- writes ------------------------------------------------------------

    def _ingest(self, count: int) -> tuple[list[dict], list[frozenset]]:
        stream = self.world.records(self.cursor + count)[self.cursor :]
        self.cursor += count
        posts = [post_from_dict(r) for r in stream]
        start = time.perf_counter()
        verdicts = self.engine.offer_batch(posts)
        self.offer_seconds += time.perf_counter() - start
        for record, receivers in zip(stream, verdicts):
            self.sha.update(b"%d:%d;" % (len(receivers), sum(receivers)))
            self.model.deliver(record, receivers)
            self.script.deliveries += len(receivers)
        before = self.script.posts
        self.script.posts += count
        self.records += count + self.script.posts // EXPIRE_EVERY - before // EXPIRE_EVERY
        return stream, verdicts

    def single(self) -> Op:
        (record,), (receivers,) = self._ingest(1)
        key = f"k{record['post_id']}"
        expect = {
            "accepted": 1,
            "post_id": record["post_id"],
            "receivers": sorted(receivers),
            "deliveries": len(receivers),
            "deduplicated": False,
        }
        self.last_keyed = (record, key, expect)
        return post_op(record, key, expect)

    def bulk(self, count: int) -> Op:
        stream, verdicts = self._ingest(count)
        return bulk_op(stream, sum(len(r) for r in verdicts))

    # -- reads -------------------------------------------------------------

    def read(self, *, restart: bool = False) -> Op:
        """The next page of the current reader's cursor chain; an exhausted
        (or abandoned, with ``restart``) chain moves on to the next sampled
        reader."""
        if restart or self._chain is None:
            readers = self.world.readers
            self._chain = (readers[self._reader % len(readers)], None)
            self._reader += 1
        user, cursor = self._chain
        page = self.model.page(user, cursor)
        self._chain = (user, page["next_cursor"]) if page["next_cursor"] else None
        return read_op(user, cursor, page)

    def impressions(self, page: dict) -> Op:
        seqs = [entry["seq"] for entry in page["entries"]]
        self.script.impressions += 1
        self.records += 1
        return impressions_op(page["user"], seqs, self.model.impressions(page["user"], seqs))

    def sweep(self) -> list[Op]:
        """Every sampled reader paged to exhaustion."""
        ops = []
        for user in self.world.readers:
            cursor = None
            while True:
                page = self.model.page(user, cursor)
                ops.append(read_op(user, cursor, page))
                cursor = page["next_cursor"]
                if cursor is None:
                    break
        return ops

    # -- the phase script --------------------------------------------------

    def round(self, phase: str) -> Round:
        w = self.world.workload
        if phase == "ingest_single":
            return Round(phase, [self.single() for _ in range(w.singles_per_round)])
        if phase == "ingest_bulk":
            return Round(phase, [self.bulk(w.bulk_per_round)])
        if phase == "read":
            return Round(phase, [self.read() for _ in range(w.reads_per_round)])
        ops: list[Op] = []
        for _ in range(w.mixed_cycles):
            first = self.read(restart=True)
            ops.append(first)
            ops.extend(self.read() for _ in range(MIXED_READS - 1))
            ops.append(self.impressions(first.expect))
            ops.append(self.single())
        return Round(phase, ops)

    def build(self, rounds: int) -> Script:
        w, script = self.world.workload, self.script
        chunk = w.bulk_per_round
        for start in range(0, w.warm_posts, chunk):
            script.warm.append(self.bulk(min(chunk, w.warm_posts - start)))
        # Two interleaved passes (A B C D A B C D): slow machine drift
        # lands on every phase alike instead of on whichever ran last.
        half = rounds // 2
        for count in (half, rounds - half):
            for phase in PHASES:
                script.rounds.extend(self.round(phase) for _ in range(count))
        script.verify = self.sweep()
        # The first tail post is the record that trips the one rolling
        # snapshot; everything after it is what recovery replays.
        script.snapshot_interval = self.records + 1
        script.tail.append(self.bulk(1))
        after_snapshot = self.records
        for start in range(0, w.tail_posts, chunk):
            script.tail.append(self.bulk(min(chunk, w.tail_posts - start)))
        script.tail_records = self.records - after_snapshot
        record, key, expect = self.last_keyed
        script.recheck = self.sweep()
        script.recheck.append(post_op(record, key, {**expect, "deduplicated": True}))
        script.expiries = self.model.expiries
        script.receivers_sha256 = self.sha.hexdigest()
        script.reference_offer_us = self.offer_seconds / script.posts * 1e6
        return script


def build_script(world: World, rounds: int) -> Script:
    """The full op script of ``world`` at ``rounds`` rounds per phase."""
    return _Builder(world).build(rounds)


def golden_key(workload: str, rounds: int, smoke: bool) -> str:
    return f"{workload}:{'smoke' if smoke else 'full'}:{rounds}"


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())
