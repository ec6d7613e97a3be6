"""Shard workers never outlive their parent.

Under ``fork`` a worker inherits the parent's ends of its own and its
elder siblings' pipes, so a SIGKILLed parent never reads as EOF on the
command pipe; the workers notice the re-parenting instead
(:func:`repro.supervise.parent_commands`).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
TESTS_ROOT = str(Path(__file__).resolve().parents[2])

POOL_SCRIPT = """
import multiprocessing, sys, time
from repro.authors import AuthorGraph
from repro.core import Thresholds
from repro.multiuser import SubscriptionTable
from repro.parallel import ParallelSharedMultiUser
from tests.support import AUTHORS, EDGES, SUBSCRIPTIONS_SPEC, make_posts

engine = ParallelSharedMultiUser(
    "unibin",
    Thresholds(lambda_c=8, lambda_t=40.0, lambda_a=0.5),
    AuthorGraph(nodes=AUTHORS, edges=EDGES),
    SubscriptionTable(SUBSCRIPTIONS_SPEC),
    workers=2,
    supervised=sys.argv[1] == "supervised",
)
engine.offer_batch(make_posts(24))
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` is a live (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("mode", ["supervised", "plain"])
def test_workers_exit_within_two_seconds_of_a_sigkilled_parent(mode):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS_ROOT]))
    parent = subprocess.Popen(
        [sys.executable, "-c", POOL_SCRIPT, mode],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    workers: list[int] = []
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(workers) == 2
        assert all(_running(pid) for pid in workers)
        parent.kill()
        parent.wait(timeout=5.0)
        deadline = time.monotonic() + 2.0
        while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        parent.kill()
        parent.wait(timeout=5.0)
        parent.stdout.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
