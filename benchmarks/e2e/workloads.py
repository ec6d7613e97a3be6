"""Workload constants, seeded world generation and request encoding.

A *world* is everything `repro serve` is started with (author graph,
subscription table, thresholds, flags) plus the post stream; it is a pure
function of ``(workload, seed)``. The seed relabels authors and draws the
post stream and the sampled readers, but never changes a world's *shape*
(the follow graph, degrees, follower counts, window size are the same
under another labelling), so a metric's spread over seeds is measurement
noise and not input variance. `reference.py` turns a world into the
script of requests and expected replies.

Constants live here, not behind flags: a benchmark whose sizes can be
passed on the command line measures something different on every machine.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace

#: The four timed phases, in the order one pass runs them.
PHASES = ("ingest_single", "ingest_bulk", "read", "mixed")

#: `FeedService` runs mailbox expiry (and logs one WAL record for it) every
#: this many processed posts; the record-count model below depends on it.
EXPIRE_EVERY = 256

PAGE_LIMIT = 50
MIXED_READS = 8

_FIRST_USER = 100_000_000
_VOCAB = 4096
_WORDS_PER_POST = 12


@dataclass(frozen=True)
class Workload:
    """One traffic mix: a world shape plus per-round op counts.

    Round op counts are sized so a round lasts 0.05-0.2 s on the 2-vCPU
    reference box; every workload runs the same phase script.
    """

    name: str
    why: str
    algorithm: str
    authors: int
    #: "none" | "ring3" (ring lattice, 3 neighbours each side) | "pairs"
    graph: str
    subscribers: int
    follows: int
    #: "balanced" (seeded, every author exactly the same follower count) |
    #: "ring" (subscriber u follows `follows` consecutive ring positions)
    follow_shape: str
    lambda_c: int
    lambda_t: float
    lambda_a: float
    #: posts per stream-second; window = stream_rate * lambda_t posts
    stream_rate: float
    mailbox_capacity: int
    #: mailbox window as a multiple of lambda_t
    mailbox_windows: float
    #: text-only posts: the server computes SimHash
    text_only: bool
    #: share of posts that are near-duplicates of a recent post
    dup_share: float
    serve_flags: tuple[str, ...] = ()
    #: accounted-byte governor budget (needs a spill dir); None = no governor
    memory_budget: int | None = None
    singles_per_round: int = 100
    bulk_per_round: int = 256
    reads_per_round: int = 150
    mixed_cycles: int = 10
    #: untimed bulk posts before the first timed round
    warm_posts: int = 512
    #: WAL records replayed by recovery (posts after the rolling snapshot)
    tail_posts: int = 512
    #: users whose feeds are read and checked
    readers: int = 48
    #: name of the workload whose world and stream this one shares
    world_of: str | None = None

    def smoke(self) -> "Workload":
        """The `--smoke` shape: worlds / 20, op counts cut to match."""
        return replace(
            self,
            subscribers=max(self.subscribers // 20, 40),
            singles_per_round=20,
            bulk_per_round=64,
            reads_per_round=30,
            mixed_cycles=2,
            warm_posts=128,
            tail_posts=64,
            readers=12,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fanout_wide",
            why=(
                "20k subscribers x 2 follows over 100 edgeless authors: exactly "
                "400 deliveries per post, so mailbox fanout, WAL append and the "
                "20k-mailbox snapshot do the work; scan and SimHash do none"
            ),
            algorithm="s_unibin",
            authors=100,
            graph="none",
            subscribers=20_000,
            follows=2,
            follow_shape="balanced",
            lambda_c=8,
            lambda_t=120.0,
            lambda_a=1.0,
            stream_rate=2.0,
            mailbox_capacity=64,
            mailbox_windows=1.0,
            text_only=False,
            dup_share=0.0,
            singles_per_round=100,
            bulk_per_round=512,
            reads_per_round=300,
            mixed_cycles=25,
            warm_posts=512,
            tail_posts=512,
        ),
        Workload(
            name="scan_dense",
            why=(
                "200 readers each following 20 consecutive authors of a ring "
                "lattice: 200 distinct overlapping components, every text-only "
                "post is fingerprinted and scanned in 20 of them; 20 deliveries"
            ),
            algorithm="s_unibin",
            authors=200,
            graph="ring3",
            subscribers=200,
            follows=20,
            follow_shape="ring",
            lambda_c=18,
            lambda_t=100.0,
            lambda_a=0.7,
            stream_rate=6.0,
            mailbox_capacity=1024,
            mailbox_windows=2.0,
            text_only=True,
            dup_share=0.2,
            singles_per_round=80,
            bulk_per_round=256,
            reads_per_round=200,
            mixed_cycles=20,
            warm_posts=1280,
            tail_posts=768,
        ),
        Workload(
            name="spill_bounded",
            why=(
                "scan_dense's world and stream byte for byte, plus --spill-dir "
                "and a governor budget that holds the spill rung: the pair "
                "isolates tiered storage + governor cost"
            ),
            algorithm="s_unibin",
            authors=200,
            graph="ring3",
            subscribers=200,
            follows=20,
            follow_shape="ring",
            lambda_c=18,
            lambda_t=100.0,
            lambda_a=0.7,
            stream_rate=6.0,
            mailbox_capacity=1024,
            mailbox_windows=2.0,
            text_only=True,
            dup_share=0.2,
            memory_budget=4_500_000,
            singles_per_round=30,
            bulk_per_round=64,
            reads_per_round=200,
            mixed_cycles=10,
            warm_posts=2048,
            tail_posts=512,
            world_of="scan_dense",
        ),
        Workload(
            name="sharded_bulk",
            why=(
                "p_unibin over 2 supervised shm shards, 400 authors in 200 "
                "similarity pairs, 2000 subscribers x 10 follows: every post "
                "pays a shard IPC round trip, row encode and journal; 50 "
                "deliveries, short scans"
            ),
            algorithm="p_unibin",
            authors=400,
            graph="pairs",
            subscribers=2_000,
            follows=10,
            follow_shape="balanced",
            lambda_c=8,
            lambda_t=120.0,
            lambda_a=0.7,
            stream_rate=8.0,
            mailbox_capacity=256,
            mailbox_windows=1.0,
            text_only=False,
            dup_share=0.2,
            serve_flags=("--workers", "2", "--transport", "shm", "--supervise"),
            singles_per_round=100,
            bulk_per_round=256,
            reads_per_round=250,
            mixed_cycles=25,
            warm_posts=1024,
            tail_posts=768,
        ),
    )
}


# -- the world -------------------------------------------------------------


class World:
    """Seeded inputs of one workload: graph, follows, sampled readers and
    the (lazily generated) post stream."""

    def __init__(self, workload, rng, labels, edges, subscriptions, readers):
        self.workload: Workload = workload
        self.nodes: list[int] = sorted(labels)
        self.edges: list[tuple[int, int]] = edges
        self.subscriptions: dict[int, list[int]] = subscriptions
        self.readers: list[int] = readers
        self._rng: random.Random = rng
        self._labels: list[int] = labels  # ring position -> author id
        self._position = {author: i for i, author in enumerate(labels)}
        self._records: list[dict] = []
        self._now = 0.0

    def records(self, count: int) -> list[dict]:
        """The first ``count`` posts of the stream, in wire form."""
        while len(self._records) < count:
            self._records.append(self._next_record())
        return self._records[:count]

    def _next_record(self) -> dict:
        w, rng, labels = self.workload, self._rng, self._labels
        post_id = len(self._records)
        self._now += (0.5 + rng.random()) / w.stream_rate
        recent = self._records[-64:]
        if recent and rng.random() < w.dup_share:
            # A near-duplicate of a recent post, by its author or the next
            # one on the ring: one word replaced, or up to 3 bits flipped.
            base = recent[rng.randrange(len(recent))]
            position = self._position[base["author"]]
            if rng.random() < 0.5:
                position = (position + 1) % len(labels)
            author = labels[position]
            if w.text_only:
                words = base["text"].split()
                words[rng.randrange(len(words))] = _word(rng)
                content = {"text": " ".join(words)}
            else:
                fingerprint = base["fingerprint"]
                for _ in range(rng.randrange(4)):
                    fingerprint ^= 1 << rng.randrange(64)
                content = {"text": f"post {post_id}", "fingerprint": fingerprint}
        else:
            author = labels[rng.randrange(len(labels))]
            if w.text_only:
                content = {"text": " ".join(_word(rng) for _ in range(_WORDS_PER_POST))}
            else:
                content = {"text": f"post {post_id}", "fingerprint": rng.getrandbits(64)}
        return {"post_id": post_id, "author": author, "timestamp": self._now, **content}


def _word(rng: random.Random) -> str:
    return f"w{rng.randrange(_VOCAB):03x}"


def build_world(workload: Workload, seed: int) -> World:
    """Graph, follow table and (lazy) post stream for ``(workload, seed)``."""
    w = workload
    rng = random.Random(f"{w.world_of or w.name}:{seed}")
    labels = list(range(1, w.authors + 1))
    rng.shuffle(labels)  # ring position -> author id
    n = w.authors
    if w.graph == "ring3":
        edges = [(labels[i], labels[(i + d) % n]) for i in range(n) for d in (1, 2, 3)]
    elif w.graph == "pairs":
        edges = [(labels[i], labels[i + 1]) for i in range(0, n - 1, 2)]
    else:
        edges = []
    users = range(_FIRST_USER, _FIRST_USER + w.subscribers)
    if w.follow_shape == "ring":
        stride = max(n // w.subscribers, 1)
        subscriptions = {
            user: [labels[(k * stride + d) % n] for d in range(w.follows)]
            for k, user in enumerate(users)
        }
    else:
        # Subscribers come in blocks of `authors`; block r draws `follows`
        # distinct ring offsets and its q-th member follows position
        # q + offset. Each offset is a bijection over the ring, so every
        # author has exactly subscribers * follows / authors followers.
        # The offsets come from the workload's name, not the seed: every
        # seed's world is the same graph under another labelling (on
        # sharded_bulk the shard plan, and with it the ingest rate, moved
        # 1.6x between seeds while the offsets were seeded).
        shape = random.Random(w.world_of or w.name)
        subscriptions = {}
        offsets: list[int] = []
        for k, user in enumerate(users):
            q = k % n
            if q == 0:
                offsets = shape.sample(range(n), w.follows)
            subscriptions[user] = [labels[(q + o) % n] for o in offsets]
    readers = rng.sample(sorted(subscriptions), min(w.readers, w.subscribers))
    return World(w, rng, labels, edges, subscriptions, readers)


# -- the script ------------------------------------------------------------


@dataclass
class Op:
    """One HTTP request and what its reply must say.

    ``kind`` is ``single`` / ``bulk`` / ``read`` / ``impressions`` / ``get``;
    ``expect`` is the reply body as a dict (``None`` = any 200 will do).
    """

    kind: str
    request: bytes
    expect: dict | None = None
    posts: int = 0


def request_bytes(method: str, path: str, body: bytes | None = None) -> bytes:
    head = f"{method} {path} HTTP/1.0\r\nHost: bench\r\n"
    if body is None:
        return (head + "\r\n").encode()
    head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


def post_op(record: dict, key: str, expect: dict) -> Op:
    body = json.dumps({**record, "idempotency_key": key}).encode()
    return Op("single", request_bytes("POST", "/posts", body), expect, posts=1)


def bulk_op(records: list[dict], deliveries: int) -> Op:
    body = json.dumps(records).encode()
    expect = {"accepted": len(records), "shed": 0, "deliveries": deliveries}
    return Op("bulk", request_bytes("POST", "/posts", body), expect, posts=len(records))


def read_op(user: int, cursor: int | None, expect: dict) -> Op:
    path = f"/feed?user={user}&limit={PAGE_LIMIT}"
    if cursor is not None:
        path += f"&cursor={cursor}"
    return Op("read", request_bytes("GET", path), expect)


def impressions_op(user: int, seqs: list[int], expect: dict) -> Op:
    body = json.dumps({"user": user, "seqs": seqs}).encode()
    return Op("impressions", request_bytes("POST", "/impressions", body), expect)


def get_op(path: str) -> Op:
    return Op("get", request_bytes("GET", path))


def digest_requests(ops) -> str:
    """SHA-256 over every request's bytes, in order (the determinism check)."""
    sha = hashlib.sha256()
    for op in ops:
        sha.update(op.request)
    return sha.hexdigest()
