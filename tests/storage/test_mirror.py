"""The resident scan columns of the spilled tier.

A :class:`TieredPostBin` keeps fingerprint, timestamp and author of every
spilled post in a :class:`~repro.simhash.CoverageKernel`; the engines scan
the head scalar and probe those columns for the rest. Nothing observable
may depend on that: verdicts, ``comparisons``, evictions, the
``are_similar`` call sequence, checkpoints and accounted bytes all equal
the plain in-memory bin's under any interleaving of the bin API.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.authors import AuthorGraph
from repro.core import Post, Thresholds, make_diversifier
from repro.core.bins import PostBin
from repro.feed import DurabilityConfig, FeedService, MailboxConfig
from repro.multiuser import SubscriptionTable, make_multiuser
from repro.service import DiversificationService
from repro.storage import SpillConfig, TieredPostBin
from repro.storage.accounting import (
    DEQUE_SLOT_BYTES,
    POST_BASE_BYTES,
    SPILLED_ENTRY_BYTES,
)
from repro.storage.tiered import _Segment

from ..support import AUTHORS, EDGES, SUBSCRIPTIONS_SPEC, make_posts

ENGINES = ("unibin", "neighborbin", "cliquebin")
NODES = (1, 2, 3, 4, 5)
GRAPH_EDGES = ((1, 2), (1, 3), (2, 3), (3, 4))
THRESHOLDS = Thresholds(lambda_c=2, lambda_t=12.0, lambda_a=0.5)
#: Few enough distinct contents, a bit or two apart, that coverage fires.
FINGERPRINTS = (0b0, 0b1, 0b11, 0b111, 0xFF00, 0xFF01, 0xF0F0F0, 2**64 - 1, 2**63)


class SpyGraph(AuthorGraph):
    """An author graph that records every ``are_similar`` consultation."""

    __slots__ = ("calls",)

    def __init__(self, nodes, edges):
        super().__init__(nodes, edges)
        self.calls: list[tuple[int, int]] = []

    def are_similar(self, a, b):
        self.calls.append((a, b))
        return super().are_similar(a, b)


def bins_of(engine) -> list:
    """The engine's window bins in a stable order."""
    if hasattr(engine, "_bin"):
        return [engine._bin]
    return [engine._bins[key] for key in sorted(engine._bins)]


def engine_pair(name: str, directory, *, head_limit=3, segment_size=2):
    plain_graph, tiered_graph = SpyGraph(NODES, GRAPH_EDGES), SpyGraph(NODES, GRAPH_EDGES)
    plain = make_diversifier(name, THRESHOLDS, plain_graph)
    tiered = make_diversifier(
        name,
        THRESHOLDS,
        tiered_graph,
        storage=SpillConfig(str(directory), head_limit=head_limit, segment_size=segment_size),
    )
    return plain, tiered


def assert_same(plain, tiered):
    assert tiered.stats.snapshot() == plain.stats.snapshot()
    assert tiered.graph.calls == plain.graph.calls
    for plain_bin, tiered_bin in zip(bins_of(plain), bins_of(tiered), strict=True):
        assert list(tiered_bin) == list(plain_bin)
        mirror = tiered_bin._mirror
        assert mirror is None or len(mirror) == tiered_bin.spilled_len


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"),
            st.sampled_from(NODES),
            st.sampled_from(FINGERPRINTS),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(st.just("flush")),
        st.tuples(st.just("purge")),
        st.tuples(st.just("limit"), st.one_of(st.none(), st.integers(1, 9))),
        st.tuples(
            st.just("merge"),
            st.integers(min_value=0, max_value=20),
            st.lists(
                st.tuples(
                    st.sampled_from(NODES),
                    st.sampled_from(FINGERPRINTS),
                    st.integers(min_value=0, max_value=8),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(
            st.just("remove_authored"),
            st.integers(min_value=0, max_value=20),
            st.sampled_from(NODES),
        ),
        st.tuples(st.just("clear"), st.integers(min_value=0, max_value=20)),
    ),
    max_size=60,
)


class TestEngineDifferential:
    """Tiered vs plain engines under arbitrary interleavings."""

    @pytest.mark.parametrize("name", ENGINES)
    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_any_interleaving_is_invisible(self, name, ops):
        with tempfile.TemporaryDirectory() as directory:
            plain, tiered = engine_pair(name, directory)
            engines = (plain, tiered)
            now, next_id = 0.0, 0
            for op in ops:
                kind = op[0]
                if kind == "offer":
                    now += op[3]
                    post = Post(next_id, op[1], f"p{next_id}", now, op[2])
                    next_id += 1
                    assert tiered.offer(post) == plain.offer(post)
                elif kind == "flush":
                    tiered.spill()
                elif kind == "purge":
                    for engine in engines:
                        engine.purge()
                elif kind == "limit":
                    for engine in engines:
                        engine.set_probe_limit(op[1])
                elif kind == "merge":
                    # Older than anything a later offer can bring, so the
                    # bins stay timestamp-ordered like the engines' own.
                    incoming = []
                    for author, fingerprint, age in op[2]:
                        incoming.append(
                            Post(next_id, author, "m", now - age, fingerprint)
                        )
                        next_id += 1
                    for engine in engines:
                        bins = bins_of(engine)
                        bins[op[1] % len(bins)].merge(incoming)
                elif kind == "remove_authored":
                    removed = []
                    for engine in engines:
                        bins = bins_of(engine)
                        removed.append(bins[op[1] % len(bins)].remove_authored(op[2]))
                    assert removed[0] == removed[1]
                else:
                    cleared = []
                    for engine in engines:
                        bins = bins_of(engine)
                        cleared.append(bins[op[1] % len(bins)].clear())
                    assert cleared[0] == cleared[1]
                assert_same(plain, tiered)

    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("limit", range(1, 9))
    @pytest.mark.parametrize("hit_at", (None, 1, 2, 3, 4, 5, 6, 7))
    def test_probe_limit_counts_across_the_head_cold_boundary(
        self, tmp_path, name, limit, hit_at
    ):
        """Seven stored posts by author 1, three of them in the head: the
        limit lands inside the head (1-2), on the boundary (3) and inside
        the cold tier (4+); the one coverer sits at every position."""
        plain, tiered = engine_pair(name, tmp_path, head_limit=3, segment_size=2)
        far = [1 << (8 * k) | 1 << (8 * k + 4) | 1 << (8 * k + 2) for k in range(7)]
        for i, fingerprint in enumerate(far):
            post = Post(i, 1, "", float(i), fingerprint)
            assert tiered.offer(post) and plain.offer(post)
        assert any((b.head_len, b.spilled_len) == (3, 4) for b in bins_of(tiered))
        for engine in (plain, tiered):
            engine.set_probe_limit(limit)
        # Newest-first position p holds far[7 - p].
        fingerprint = far[7 - hit_at] if hit_at is not None else 1 << 63
        probe = Post(99, 1, "", 7.0, fingerprint)
        before = plain.stats.comparisons
        assert tiered.offer(probe) == plain.offer(probe)
        assert tiered.stats.comparisons == plain.stats.comparisons
        if name == "unibin":
            covered = hit_at is not None and hit_at <= limit
            expected = hit_at if covered else min(limit, 7)
            assert plain.stats.comparisons - before == expected
        assert_same(plain, tiered)


class TestScansStayResident:
    def test_full_miss_over_a_spilled_window_reads_no_segment(
        self, tmp_path, monkeypatch
    ):
        reads = []
        real_read = TieredPostBin._read
        monkeypatch.setattr(
            TieredPostBin, "_read", lambda self, seg: reads.append(seg) or real_read(self, seg)
        )
        th = Thresholds(lambda_c=0, lambda_t=1e6, lambda_a=1.0)
        plain = make_diversifier("unibin", th, None)
        tiered = make_diversifier(
            "unibin", th, None,
            storage=SpillConfig(str(tmp_path), head_limit=4, segment_size=2),
        )
        for i in range(200):  # distinct fingerprints, λc = 0: every scan misses
            post = Post(i, 1, f"p{i}", float(i), i)
            assert tiered.offer(post) and plain.offer(post)
        assert tiered._bin.spilled_len >= 196
        assert tiered.stats.snapshot() == plain.stats.snapshot()
        assert tiered.stats.comparisons == 199 * 200 // 2
        assert reads == []
        # Whole posts still come off the disk when somebody wants them.
        assert list(tiered._bin) == list(plain._bin)
        assert reads != []

    def test_expiry_reads_the_timestamp_column_not_the_files(
        self, tmp_path, monkeypatch
    ):
        bin_ = SpillConfig(str(tmp_path), head_limit=2, segment_size=2).make_bin()
        plain = PostBin()
        for i in range(20):
            post = Post(i, 1, "", float(i), i)
            bin_.append(post)
            plain.append(post)
        monkeypatch.setattr(
            TieredPostBin, "_read", lambda self, seg: pytest.fail("segment read")
        )
        for now in (3.0, 7.5, 7.5, 11.0, 18.0, 100.0):
            assert bin_.expire(now, 4.0) == plain.expire(now, 4.0)
            assert len(bin_) == len(plain)
        assert bin_.segment_count == 0


def unencodable(kind: str, post_id: int, timestamp: float) -> Post:
    lone = 0b111 << 40  # three bits from every single-bit fingerprint below
    if kind == "fingerprint":
        return Post(post_id, 1, "", timestamp, 2**64 + lone)
    if kind == "author":
        return Post(post_id, 2**63, "", timestamp, lone)
    return Post(post_id, 1, "", int(timestamp), lone)  # an int, not a float


class TestUnencodableFallback:
    @pytest.mark.parametrize("kind", ("fingerprint", "author", "timestamp"))
    @pytest.mark.parametrize("after_first_spill", (False, True))
    def test_bin_drops_its_mirror_and_nothing_else_changes(
        self, tmp_path, kind, after_first_spill
    ):
        th = Thresholds(lambda_c=1, lambda_t=30.0, lambda_a=0.5)
        nodes = [1, 2, 2**63]
        plain_graph, tiered_graph = SpyGraph(nodes, [(1, 2)]), SpyGraph(nodes, [(1, 2)])
        plain = make_diversifier("unibin", th, plain_graph)
        tiered = make_diversifier(
            "unibin", th, tiered_graph,
            storage=SpillConfig(str(tmp_path), head_limit=2, segment_size=2),
        )
        bin_ = tiered._bin
        stream = [Post(i, 1 + i % 2, "", float(i), 1 << (2 * i)) for i in range(8)]
        bad = unencodable(kind, 100, 8.0)
        stream.insert(6 if after_first_spill else 0, bad)
        stream = [
            Post(p.post_id, p.author, p.text, type(p.timestamp)(i), p.fingerprint)
            for i, p in enumerate(stream)
        ]
        # Echoes of stored posts (covered through the cold tier), a probe
        # equal to the bad post, and a probing fingerprint that does not
        # fit the columns either.
        stream += [
            Post(200, 1, "", 10.0, stream[1].fingerprint),
            Post(201, bad.author, "", 11.0, bad.fingerprint),
            Post(202, 2, "", 12.0, 2**64 + 4),
            Post(203, 1, "", 13.0, stream[3].fingerprint ^ 1),
        ]
        saw_mirror = False
        for post in stream:
            assert tiered.offer(post) == plain.offer(post), post
            assert tiered.stats.snapshot() == plain.stats.snapshot()
            assert tiered_graph.calls == plain_graph.calls
            saw_mirror = saw_mirror or bin_._mirror is not None
        assert saw_mirror == after_first_spill
        assert bin_.spilled_len and bin_._mirror is None
        assert tiered.state_dict() == plain.state_dict()
        # Once the window has drained, the cold tier mirrors again.
        late = [Post(300 + i, 1, "", 100.0 + i, 1 << i) for i in range(6)]
        for post in late:
            assert tiered.offer(post) == plain.offer(post)
        assert bin_._mirror is not None and len(bin_._mirror) == bin_.spilled_len
        assert tiered.stats.snapshot() == plain.stats.snapshot()

    def test_unencodable_probe_leaves_the_mirror_valid(self, tmp_path):
        th = Thresholds(lambda_c=0, lambda_t=1e6, lambda_a=1.0)
        plain = make_diversifier("unibin", th, None)
        tiered = make_diversifier(
            "unibin", th, None,
            storage=SpillConfig(str(tmp_path), head_limit=2, segment_size=2),
        )
        for engine in (plain, tiered):
            engine.set_probe_limit(6)
        stream = [Post(i, 1, "", float(i), i) for i in range(10)]
        stream.append(Post(50, 1, "", 10.0, 2**64))  # walks the posts: a miss
        stream.append(Post(51, 1, "", 11.0, 7))  # head + columns again: a hit
        for post in stream:
            assert tiered.offer(post) == plain.offer(post), post
            assert tiered.stats.snapshot() == plain.stats.snapshot()
        # The huge post was admitted and has not spilled yet.
        assert tiered._bin._mirror is not None


class TestRoundTrips:
    @pytest.mark.parametrize("name", ENGINES)
    def test_checkpoint_over_a_mostly_spilled_window(self, tmp_path, name):
        graph = AuthorGraph(nodes=AUTHORS, edges=EDGES)
        th = Thresholds(lambda_c=8, lambda_t=400.0, lambda_a=0.5)
        config = SpillConfig(str(tmp_path), head_limit=2, segment_size=2)
        posts = make_posts(200, seed=5)
        plain = make_diversifier(name, th, graph)
        tiered = make_diversifier(name, th, graph, storage=config)
        for post in posts[:120]:
            assert tiered.offer(post) == plain.offer(post)
        spilled = sum(b.spilled_len for b in bins_of(tiered))
        assert spilled > 0.6 * tiered.stored_copies()
        state = tiered.state_dict()
        assert state == plain.state_dict()
        restored = make_diversifier(name, th, graph, storage=config)
        restored.load_state(state)
        for post in posts[120:]:
            verdict = plain.offer(post)
            assert tiered.offer(post) == verdict
            assert restored.offer(post) == verdict
        assert restored.state_dict() == plain.state_dict() == tiered.state_dict()

    def test_durable_feed_snapshot_over_a_mostly_spilled_window(self, tmp_path):
        graph = AuthorGraph(nodes=AUTHORS, edges=EDGES)
        subscriptions = SubscriptionTable(SUBSCRIPTIONS_SPEC)
        th = Thresholds(lambda_c=8, lambda_t=400.0, lambda_a=0.5)

        def build(wal_dir, storage):
            engine = make_multiuser("s_unibin", th, graph, subscriptions, storage=storage)
            return FeedService(
                DiversificationService(engine),
                mailboxes=MailboxConfig(capacity=64, window=400.0),
                durability=DurabilityConfig(
                    wal_dir=wal_dir, fsync="never", snapshot_every=50
                ),
            )

        config = SpillConfig(str(tmp_path / "spill"), head_limit=2, segment_size=2)
        posts = make_posts(160, seed=9)
        plain = build(tmp_path / "plain", None)
        tiered = build(tmp_path / "tiered", config)
        for post in posts[:130]:
            assert tiered.ingest(post) == plain.ingest(post)
        assert tiered.durable.snapshots_taken >= 2
        tiered.durable.wal.close()  # crash: no shutdown flush
        recovered = build(tmp_path / "tiered", config)
        recovered.recover()
        assert recovered.store.state_dict() == plain.store.state_dict()
        assert recovered.service.engine.state_dict() == plain.service.engine.state_dict()
        for post in posts[130:]:
            assert recovered.ingest(post) == plain.ingest(post)
        assert recovered.store.state_dict() == plain.store.state_dict()
        recovered.close()
        plain.close()


class TestAccountingIsUnchanged:
    def test_a_spilled_post_is_accounted_as_three_eight_byte_cells(self):
        assert SPILLED_ENTRY_BYTES == 24

    def test_no_per_segment_timestamp_list_survives(self):
        assert _Segment.__slots__ == ("path", "count", "start")

    def test_approx_bytes_over_a_bin_history(self, tmp_path):
        """The parent's formula, step by step: full posts in the head, 24
        bytes for each live spilled entry."""
        bin_ = SpillConfig(str(tmp_path), head_limit=4, segment_size=2).make_bin()
        per_post = POST_BASE_BYTES + DEQUE_SLOT_BYTES + 2  # two-character texts
        seen = []
        for i in range(10, 21):
            bin_.append(Post(i, 1, f"{i}", float(i), i))
            seen.append(bin_.approx_bytes())
        assert seen[:4] == [per_post * k for k in (1, 2, 3, 4)]
        assert seen[4] == 3 * per_post + 2 * 24  # first spill: 2 posts go cold
        assert seen[-1] == 3 * per_post + 8 * 24
        assert (bin_.head_len, bin_.spilled_len, bin_.segment_count) == (3, 8, 4)
        assert bin_.expire(20.0, 7.5) == 3  # one whole segment and one entry
        assert bin_.approx_bytes() == 3 * per_post + 5 * 24
        assert bin_.flush() == 3
        assert bin_.approx_bytes() == 8 * 24
        assert bin_.remove_authored(1) == 8
        assert bin_.approx_bytes() == 0
