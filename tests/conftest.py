"""Shared fixtures: a paper-example world and a session-scoped dataset."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.authors import AuthorGraph
from repro.core import Post, Thresholds
from repro.social import small_dataset


def _live_descendants() -> dict[int, str]:
    """pid -> command line of every live (non-zombie) descendant of this
    process, the multiprocessing resource tracker excepted (it exits by
    itself once the last process holding its pipe is gone)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were looking
        if fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    found: dict[int, str] = {}
    frontier = [os.getpid()]
    while frontier:
        for pid in children.get(frontier.pop(), ()):
            frontier.append(pid)
            try:
                raw = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            cmdline = raw.replace(b"\0", b" ").decode(errors="replace").strip()
            if "resource_tracker" not in cmdline:
                found[pid] = cmdline
    return found


@pytest.fixture(scope="session", autouse=True)
def no_process_left_running():
    """Fail the session if a test leaves a process behind: serve
    subprocesses, shard workers and the like must be reaped by the test
    that started them."""
    yield
    if not Path("/proc/self/stat").exists():
        return
    deadline = time.monotonic() + 2.0  # a worker told to stop may still be exiting
    while (leaked := _live_descendants()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not leaked, "processes left running by the test session: " + "; ".join(
        f"pid {pid}: {cmdline}" for pid, cmdline in sorted(leaked.items())
    )


@pytest.fixture(scope="session")
def dataset():
    """A small but realistic dataset, built once per session."""
    return small_dataset()


@pytest.fixture()
def paper_graph() -> AuthorGraph:
    """The author graph of the paper's running example (Figure 5a):
    a1–a2, a1–a3, a2–a3 form a triangle; a3–a4 hangs off it."""
    return AuthorGraph(
        nodes=[1, 2, 3, 4],
        edges=[(1, 2), (1, 3), (2, 3), (3, 4)],
    )


def fp(bits: int) -> int:
    """Fingerprint with ``bits`` low bits set (Hamming distance from zero
    equals ``bits``)."""
    return (1 << bits) - 1


@pytest.fixture()
def paper_posts() -> list[Post]:
    """Posts enacting the paper's Figure 5b/6 walk-through with λc = 3,
    λt = 100:

    * P1 (a1, t=0): baseline fingerprint.
    * P2 (a2, t=1): far from P1 in content → admitted.
    * P3 (a3, t=2): content-close to P1, far from P2; a1~a3 → covered by P1.
    * P4 (a4, t=3): far from P1 and P2 → admitted.
    * P5 (a3, t=4): content-close to P4; a3~a4 → covered by P4.
    """
    base = 0
    far = fp(10)  # 10 bits away from base
    very_far = fp(20) << 30  # far from both base and far
    near_p4 = very_far ^ 0b11  # 2 bits from P4
    return [
        Post(post_id=1, author=1, text="p1", timestamp=0.0, fingerprint=base),
        Post(post_id=2, author=2, text="p2", timestamp=1.0, fingerprint=far),
        Post(post_id=3, author=3, text="p3", timestamp=2.0, fingerprint=base ^ 0b1),
        Post(post_id=4, author=4, text="p4", timestamp=3.0, fingerprint=very_far),
        Post(post_id=5, author=3, text="p5", timestamp=4.0, fingerprint=near_p4),
    ]


@pytest.fixture()
def paper_thresholds() -> Thresholds:
    """λc = 3, λt = 100 s; λa is embodied by the example graph's edges."""
    return Thresholds(lambda_c=3, lambda_t=100.0, lambda_a=0.7)
