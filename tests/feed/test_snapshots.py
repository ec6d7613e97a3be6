"""Rolling snapshots: CRC validation, corrupt-snapshot fallback, full-disk
absorption, WAL truncation keyed to snapshot retention (without reading a
snapshot back), and the version-2 mailbox entry table."""

from __future__ import annotations

import pytest

from repro.core import Thresholds
from repro.errors import CheckpointError
from repro.feed import DurabilityConfig, FeedService, MailboxConfig, durable
from repro.feed.durable import FEED_SNAPSHOT_VERSION, SnapshotStore
from repro.feed.wal import list_segments
from repro.multiuser import make_multiuser
from repro.resilience import FeedFaultPlan
from repro.service import DiversificationService
from repro.storage.framing import read_framed, write_framed

from .conftest import THRESHOLDS, make_posts


def build_feed(graph, subscriptions, wal_dir, **durability_kwargs):
    durability_kwargs.setdefault("fsync", "never")
    engine = make_multiuser("s_unibin", THRESHOLDS, graph, subscriptions)
    return FeedService(
        DiversificationService(engine),
        mailboxes=MailboxConfig(capacity=64, window=120.0),
        expire_every=16,
        durability=DurabilityConfig(wal_dir=wal_dir, **durability_kwargs),
    )


class TestSnapshotStore:
    def test_save_prunes_to_keep(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for i in range(4):
            store.save({"version": FEED_SNAPSHOT_VERSION, "i": i})
        names = [p.name for p in store.list()]
        assert names == ["snapshot-000003.ckpt", "snapshot-000004.ckpt"]
        payload, path, skipped = store.load_best()
        assert payload["i"] == 3 and path.name == names[-1] and skipped == []

    def test_load_best_skips_corrupt_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save({"version": FEED_SNAPSHOT_VERSION, "i": 0})
        store.save({"version": FEED_SNAPSHOT_VERSION, "i": 1})
        newest = store.list()[-1]
        raw = bytearray(newest.read_bytes())
        raw[-3] ^= 0xFF  # bit rot inside the newest snapshot's payload
        newest.write_bytes(bytes(raw))
        payload, path, skipped = store.load_best()
        assert payload["i"] == 0
        assert path.name == "snapshot-000001.ckpt"
        assert len(skipped) == 1 and "CRC" in skipped[0][1]

    def test_load_best_skips_torn_write(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save({"version": FEED_SNAPSHOT_VERSION, "i": 0})
        torn = tmp_path / "snapshot-000002.ckpt"
        write_framed(torn, {"version": FEED_SNAPSHOT_VERSION, "i": 1})
        torn.write_bytes(torn.read_bytes()[:-10])
        payload, path, skipped = store.load_best()
        assert payload["i"] == 0
        assert "truncated" in skipped[0][1]

    def test_all_corrupt_returns_none_with_trail(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save({"version": FEED_SNAPSHOT_VERSION})
        store.list()[0].write_bytes(b"garbage")
        payload, path, skipped = store.load_best()
        assert payload is None and path is None and len(skipped) == 1


class TestDurableSnapshots:
    def test_rolling_snapshot_rotates_and_prunes_wal(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(
            graph, subscriptions, tmp_path, snapshot_every=25, keep_snapshots=2
        )
        for post in make_posts(120):
            feed.ingest(post)
        durable = feed.durable
        assert durable.snapshots_taken >= 3
        # WAL segments older than the oldest retained snapshot are gone.
        snaps = durable.snapshots.list()
        assert len(snaps) == 2
        from repro.storage.framing import read_framed

        oldest_needed = min(
            int(read_framed(p)["wal_segment"]) for p in snaps
        )
        on_disk = [p for p in list_segments(tmp_path)]
        from repro.feed.wal import segment_index

        assert all(segment_index(p) >= oldest_needed for p in on_disk)
        feed.close()

    def test_corrupt_newest_snapshot_falls_back_to_longer_replay(
        self, graph, subscriptions, tmp_path
    ):
        posts = make_posts(120)
        live = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        for post in posts:
            live.ingest(post)
        expected = live.store.state_dict()
        # Corrupt the newest snapshot; recovery must use the previous one
        # and replay a longer WAL tail to the same state.
        newest = live.durable.snapshots.list()[-1]
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))

        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        report = recovered.recover()
        assert report.used_snapshot != newest.name
        assert len(report.snapshots_skipped) == 1
        assert recovered.store.state_dict() == expected
        recovered.close()

    def test_injected_full_disk_absorbed_and_counted(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(
            graph,
            subscriptions,
            tmp_path,
            snapshot_every=25,
            fault_plan=FeedFaultPlan(fail_snapshots=2),
        )
        posts = make_posts(120)
        for post in posts:
            feed.ingest(post)
        assert feed.durable.snapshot_failures == 2
        assert feed.durable.snapshots_taken >= 1  # disk "recovered" later
        # Recovery still lands on the exact live state despite the misses.
        expected = feed.store.state_dict()
        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        recovered.recover()
        assert recovered.store.state_dict() == expected
        recovered.close()

    def test_flush_failure_propagates_from_close(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(
            graph,
            subscriptions,
            tmp_path,
            snapshot_every=10_000,
            fault_plan=FeedFaultPlan(fail_snapshots=1),
        )
        for post in make_posts(10):
            feed.ingest(post)
        with pytest.raises(OSError, match="No space left"):
            feed.close()

    def test_pruned_wal_with_unreadable_snapshots_refuses_recovery(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(
            graph, subscriptions, tmp_path, snapshot_every=20, keep_snapshots=1
        )
        for post in make_posts(100):
            live.ingest(post)
        assert min(
            int(p.name.split("-")[1].split(".")[0]) for p in list_segments(tmp_path)
        ) > 1
        for snap in live.durable.snapshots.list():
            snap.write_bytes(b"garbage")
        recovered = build_feed(graph, subscriptions, tmp_path)
        with pytest.raises(CheckpointError, match="cannot be reconstructed"):
            recovered.recover()


def count_snapshot_reads(monkeypatch) -> list[str]:
    """Names of the files ``repro.feed.durable`` reads back, in order."""
    names: list[str] = []

    def counting(path):
        names.append(path.name)
        return read_framed(path)

    monkeypatch.setattr(durable, "read_framed", counting)
    return names


def ingest_and_crash(graph, subscriptions, wal_dir, posts=110):
    """Ingest ``posts`` with rolling snapshots every 25 records, then drop
    the feed without its shutdown flush (a SIGKILL's on-disk state)."""
    live = build_feed(graph, subscriptions, wal_dir, snapshot_every=25)
    for post in make_posts(posts):
        live.ingest(post)
    live.durable.close()
    return live


class TestSnapshotReads:
    def test_rolling_snapshots_and_flush_read_nothing_back(
        self, graph, subscriptions, tmp_path, monkeypatch
    ):
        reads = count_snapshot_reads(monkeypatch)
        feed = build_feed(graph, subscriptions, tmp_path, snapshot_every=10)
        for post in make_posts(120):
            feed.ingest(post)
        feed.close()
        assert feed.durable.snapshots_taken >= 10
        assert reads == []

    def test_recover_reads_each_examined_snapshot_once(
        self, graph, subscriptions, tmp_path, monkeypatch
    ):
        live = ingest_and_crash(graph, subscriptions, tmp_path)
        newest = live.durable.snapshots.list()[-1].name
        reads = count_snapshot_reads(monkeypatch)
        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        report = recovered.recover()
        # The replayed tail is folded into a fresh snapshot, whose pruning
        # needs the floor of every retained file: all are known by now.
        assert report.records_total > 0
        assert recovered.durable.snapshots.list()[-1].name > newest
        assert reads == [newest]
        recovered.close()
        assert reads == [newest]

    def test_fallback_reads_the_corrupt_snapshot_once(
        self, graph, subscriptions, tmp_path, monkeypatch
    ):
        live = ingest_and_crash(graph, subscriptions, tmp_path)
        older, newest = live.durable.snapshots.list()
        newest.write_bytes(b"garbage")
        reads = count_snapshot_reads(monkeypatch)
        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        report = recovered.recover()
        assert report.used_snapshot == older.name
        assert reads == [newest.name, older.name]
        # The unreadable file is still retained, and still pins the WAL.
        assert newest in recovered.durable.snapshots.list()
        assert recovered.durable.snapshots.wal_floor() == 1
        assert reads == [newest.name, older.name]
        recovered.close()


class TestEntryTable:
    def test_recovered_store_shares_one_entry_per_seq(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(graph, subscriptions, tmp_path, snapshot_every=10_000)
        for post in make_posts(120):
            live.ingest(post)
        live.close()
        recovered = build_feed(graph, subscriptions, tmp_path)
        recovered.recover()
        for store in (live.store, recovered.store):
            by_seq: dict = {}
            held = 0
            for box in store._boxes.values():
                for entry in box.entries:
                    assert by_seq.setdefault(entry.seq, entry) is entry
                    held += 1
            assert held > len(by_seq)  # some post sits in several boxes
            assert sorted(by_seq) == [row[0] for row in store.state_dict()["entries"]]
        assert recovered.store.state_dict() == live.store.state_dict()
        recovered.close()

    def test_box_seq_missing_from_the_table_raises(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(graph, subscriptions, tmp_path, snapshot_every=10_000)
        for post in make_posts(40):
            feed.ingest(post)
        state = feed.store.state_dict()
        state["entries"] = state["entries"][1:]
        with pytest.raises(CheckpointError, match="entry table"):
            feed.store.load_state(state)
        feed.close()

    def test_v1_snapshot_is_skipped_and_a_pruned_wal_refuses_recovery(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(
            graph, subscriptions, tmp_path, snapshot_every=20, keep_snapshots=1
        )
        for post in make_posts(100):
            live.ingest(post)
        live.durable.close()
        (snap,) = live.durable.snapshots.list()
        # Rewrite it in the version-1 layout: entries inline in each box.
        payload = read_framed(snap)
        mailbox = payload["mailbox"]
        table = {row[0]: row for row in mailbox.pop("entries")}
        for box in mailbox["boxes"].values():
            box["entries"] = [table[seq] for seq in box.pop("seqs")]
        write_framed(snap, {**payload, "version": 1})

        assert min(
            int(p.name.split("-")[1].split(".")[0]) for p in list_segments(tmp_path)
        ) > 1
        payload, path, skipped = SnapshotStore(tmp_path).load_best()
        assert payload is None and path is None
        assert skipped == [(snap.name, "unsupported feed snapshot version 1")]
        recovered = build_feed(graph, subscriptions, tmp_path)
        with pytest.raises(CheckpointError, match="cannot be reconstructed"):
            recovered.recover()
