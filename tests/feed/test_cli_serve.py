"""``repro serve`` in a real subprocess: startup banner, live ingest and
reads over HTTP, clean SIGTERM shutdown with a faithful summary."""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.authors import AuthorGraph
from repro.io import write_graph_json, write_posts_jsonl, write_subscriptions_json
from repro.multiuser import SubscriptionTable

from .conftest import AUTHORS, EDGES, SUBSCRIPTIONS_SPEC, make_posts


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-trace")
    write_graph_json(AuthorGraph(nodes=AUTHORS, edges=EDGES), root / "graph.json")
    write_subscriptions_json(
        SubscriptionTable(SUBSCRIPTIONS_SPEC), root / "subscriptions.json"
    )
    write_posts_jsonl(make_posts(60), root / "posts.jsonl")
    return root


def start_server(trace, *extra: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--graph", str(trace / "graph.json"),
            "--subscriptions", str(trace / "subscriptions.json"),
            "--algorithm", "s_unibin",
            "--port", "0",
            "--lambda-c", "8", "--lambda-t", "60", "--lambda-a", "0.5",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline()
    assert "serving feeds on http://" in banner, banner
    return proc, "http://" + banner.split("http://")[1].split()[0]


def test_serve_roundtrip_and_clean_shutdown(trace):
    proc, url = start_server(trace, "--posts", str(trace / "posts.jsonl"))
    try:
        users = sorted(json.loads((trace / "subscriptions.json").read_text()), key=int)
        served = 0
        for user in users:
            page = json.load(
                urllib.request.urlopen(f"{url}/feed?user={user}&limit=50", timeout=10)
            )
            served += len(page["entries"])
        assert served > 0
        health = urllib.request.urlopen(url + "/healthz", timeout=10).read()
        assert health == b"ok\n"
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert "preloaded 60 posts" in err
    assert "feed: 60 posts received (60 processed, 0 shed, 0 deduplicated)" in out
    assert f"{served} entries" in out


def test_serve_rejects_unknown_algorithm(trace):
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--graph", str(trace / "graph.json"),
            "--subscriptions", str(trace / "subscriptions.json"),
            "--algorithm", "bogus",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "unknown multi-user algorithm" in result.stderr


def post_json(url: str, payload) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return json.load(urllib.request.urlopen(request, timeout=10))


def test_serve_durable_roundtrip_and_flush_summary(trace, tmp_path):
    wal_dir = tmp_path / "wal"
    proc, url = start_server(
        trace, "--wal-dir", str(wal_dir), "--fsync", "interval"
    )
    try:
        posts = [
            json.loads(line)
            for line in (trace / "posts.jsonl").read_text().splitlines()
        ][:20]
        for i, post in enumerate(posts):
            post["idempotency_key"] = f"cli-{i}"
            reply = post_json(url + "/posts", post)
            assert reply["deduplicated"] is False
        # A retried key answers from the dedup window, no double fanout.
        retry = dict(posts[3], idempotency_key="cli-3")
        reply = post_json(url + "/posts", retry)
        assert reply["deduplicated"] is True
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert "durability: flushed clean" in out
    assert "1 idempotent retries answered" in out
    assert list(wal_dir.glob("snapshot-*.ckpt")), "shutdown flush wrote no snapshot"


def test_serve_refuses_nonempty_wal_dir_without_recover(trace, tmp_path):
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    (wal_dir / "wal-000001.log").write_bytes(b"")
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--graph", str(trace / "graph.json"),
            "--subscriptions", str(trace / "subscriptions.json"),
            "--wal-dir", str(wal_dir),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "pass --recover" in result.stderr


def test_serve_recover_flag_needs_wal_dir(trace):
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "serve",
            "--graph", str(trace / "graph.json"),
            "--subscriptions", str(trace / "subscriptions.json"),
            "--recover",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "--recover needs --wal-dir" in result.stderr


def test_serve_recovers_preloaded_state_across_restart(trace, tmp_path):
    wal_dir = tmp_path / "wal"
    proc, url = start_server(
        trace,
        "--wal-dir", str(wal_dir),
        "--posts", str(trace / "posts.jsonl"),
    )
    try:
        baseline = json.load(
            urllib.request.urlopen(url + "/feed?user=100&limit=50", timeout=10)
        )
    finally:
        proc.kill()  # SIGKILL: no flush, recovery rebuilds from WAL alone
        proc.communicate(timeout=60)

    proc, url = start_server(trace, "--wal-dir", str(wal_dir), "--recover")
    try:
        recovered = json.load(
            urllib.request.urlopen(url + "/feed?user=100&limit=50", timeout=10)
        )
        assert recovered["entries"] == baseline["entries"]
        assert recovered["stale"] is False
    finally:
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert "recovered from" in err


def test_serve_exits_nonzero_when_shutdown_flush_fails(trace, tmp_path):
    import os

    wal_dir = tmp_path / "wal"
    env = dict(os.environ)
    env["REPRO_FEED_FAULT_PLAN"] = json.dumps({"fail_snapshots": 100})
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--graph", str(trace / "graph.json"),
            "--subscriptions", str(trace / "subscriptions.json"),
            "--algorithm", "s_unibin",
            "--port", "0",
            "--wal-dir", str(wal_dir),
            "--lambda-c", "8", "--lambda-t", "60", "--lambda-a", "0.5",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    assert "serving feeds on http://" in banner, banner
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "durability flush FAILED" in err
    assert "durability: FLUSH FAILED" in out


def test_sigterm_racing_incoming_connections_is_never_lost(trace):
    """The kernel may deliver SIGTERM to a request thread; the main
    thread must still notice and shut down (it used to stay parked in
    ``Event.wait()`` about one time in six)."""
    import socket
    import threading
    import time

    for round_ in range(20):
        proc, url = start_server(trace)
        host, port = url.removeprefix("http://").split(":")
        connected, done = threading.Event(), threading.Event()

        def client():
            while not done.is_set():
                try:
                    conn = socket.create_connection((host, int(port)), timeout=1)
                except OSError:
                    return  # the listener is gone: the server is stopping
                connected.set()
                done.wait(0.002)
                conn.close()

        thread = threading.Thread(target=client)
        thread.start()
        try:
            assert connected.wait(5.0)
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=5.0)
            elapsed = time.monotonic() - start
        finally:
            done.set()
            thread.join(timeout=5.0)
            proc.kill()
            proc.communicate()
        assert proc.returncode == 0, f"round {round_}: {err}"
        assert "feed: 0 posts received" in out
        assert elapsed < 5.0
