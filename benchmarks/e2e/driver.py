"""Load generation and measurement primitives: the calibration op, the
closed-loop HTTP client, the `repro serve` subprocess with process-tree
accounting, and the median-of-normalised-rounds estimators.

One thread, one connection at a time: the server speaks HTTP/1.0 (a
connection per request) and a firehose connector waits for its ack, so a
single closed-loop client is both the realistic load and the only one a
2-core box measures repeatably.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import Op

#: Seconds one calibration op (a request to refserver.py) takes on the
#: machine the round sizes were chosen on, pinned to one CPU. Times are
#: reported scaled to this speed ("reference seconds"), so a slow
#: quarter-hour on a shared box does not read as a regression. Changing it
#: rescales every reported time.
REFERENCE_OP_S = 0.00115
#: The same for one lifecycle op (`refserver.py --lifecycle`), which scales
#: the single-shot timings: spawn -> banner, --recover, SIGTERM -> exit.
REFERENCE_LIFECYCLE_S = 0.34
#: `socketserver.serve_forever` polls for shutdown every 0.5 s and `repro
#: serve` does not override it: the first half second of SIGTERM -> exit
#: is a sleep. A sleep runs no faster on a faster machine, so only the
#: time beyond it is scaled to reference speed.
POLL_QUANTUM_S = 0.5

REQUEST_TIMEOUT_S = 10.0
BANNER_TIMEOUT_S = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")

REPO_ROOT = Path(__file__).resolve().parents[2]


def pin_to_one_cpu() -> None:
    """Pin this process (and every child it starts) to one CPU.

    Client and server take turns in a closed loop, so one CPU loses no
    throughput; what it removes is the cross-CPU wakeup on every hop,
    whose latency on this 2-vCPU box flips between modes minutes long
    (reads 0.33 ms <-> 0.50 ms with identical code and inputs).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def scale_for(*calibrations: float, reference: float = REFERENCE_OP_S) -> float:
    """Factor turning a raw duration measured beside ``calibrations`` into
    reference-speed seconds."""
    return reference / statistics.fmean(calibrations)


# -- the client ------------------------------------------------------------


def exchange(port: int, request: bytes) -> bytes:
    """Send one pre-encoded request, return the raw reply (b"" on any
    socket error or timeout: the caller counts it as a failed op)."""
    try:
        with socket.create_connection(("127.0.0.1", port), REQUEST_TIMEOUT_S) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)
    except OSError:
        return b""


class Calibrator:
    """Owns the reference server; ``op()`` times one request to it and
    ``lifecycle()`` one run of the lifecycle reference."""

    _REFSERVER = str(Path(__file__).with_name("refserver.py"))

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, self._REFSERVER], stdout=subprocess.PIPE)
        self.samples: list[float] = []
        try:
            self.port = int(self.proc.stdout.readline())
            self.op(20)  # first requests pay imports and cold caches
        except BaseException:
            self.close()
            raise
        self.samples.clear()

    def op(self, repeats: int = 5) -> float:
        """Median seconds of ``repeats`` reference requests (about 6 ms)."""
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            if not exchange(self.port, b"GET / HTTP/1.0\r\n\r\n"):
                raise RuntimeError("the calibration reference server is gone")
            timings.append(time.perf_counter() - start)
        self.samples.append(statistics.median(timings))
        return self.samples[-1]

    def lifecycle(self) -> float:
        """Seconds of one lifecycle op (about 0.33 s)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, self._REFSERVER, "--lifecycle"], check=True)
        return time.perf_counter() - start

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def reply_body(raw: bytes) -> bytes | None:
    """The body of a 200 reply, else None."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep or head[9:12] != b"200":
        return None
    return body


def reply_ok(op: Op, raw: bytes) -> bool:
    """True iff ``raw`` is a 200 carrying exactly what the reference says."""
    body = reply_body(raw)
    if body is None:
        return False
    if op.expect is None:
        return True
    try:
        return json.loads(body) == op.expect
    except ValueError:
        return False


def failed_ops(ops: list[Op], replies: list[bytes]) -> int:
    return sum(not reply_ok(op, raw) for op, raw in zip(ops, replies))


def scale_rounds(rounds: list[dict], calibrations: list[float], window: int) -> None:
    """Set each round's ``scale`` from the median of the ``window``
    calibrations on each side of it (``after`` indexes the one taken
    right after the round)."""
    for rnd in rounds:
        after = rnd["after"]
        nearby = calibrations[max(0, after - window) : after + window]
        rnd["scale"] = REFERENCE_OP_S / statistics.median(nearby)


class RoundTimer:
    """Runs rounds of pre-encoded ops, keeping raw replies for checking
    after the clock has stopped, and a calibration op between rounds."""

    #: a round is scaled by the median calibration of this many ops on
    #: each side of it: one op alone carries ~7% noise of its own, which
    #: would land on every round; the machine drifts over minutes, not
    #: over the two seconds such a window spans
    WINDOW = 3

    def __init__(self, port: int, calibrator: Calibrator):
        self.port = port
        self.calibrator = calibrator
        self.calibrations = [calibrator.op()]
        self.attempted = 0
        self.failed = 0

    def run(self, ops: list[Op]) -> dict:
        """One timed round: per-op raw latencies and the round's wall
        time; :meth:`scale_rounds` adds the reference-speed factor."""
        port = self.port
        clock = time.perf_counter
        replies = []
        latencies = []
        start = clock()
        for op in ops:
            t0 = clock()
            replies.append(exchange(port, op.request))
            latencies.append(clock() - t0)
        elapsed = clock() - start
        self.calibrations.append(self.calibrator.op())
        self.check(ops, replies)
        return {
            "elapsed": elapsed,
            "latencies": latencies,
            "kinds": [op.kind for op in ops],
            "after": len(self.calibrations) - 1,
        }

    def scale_rounds(self, rounds: list[dict]) -> None:
        scale_rounds(rounds, self.calibrations, self.WINDOW)

    def untimed(self, ops: list[Op]) -> list[bytes]:
        replies = [exchange(self.port, op.request) for op in ops]
        self.check(ops, replies)
        return replies

    def check(self, ops: list[Op], replies: list[bytes]) -> None:
        self.attempted += len(ops)
        self.failed += failed_ops(ops, replies)


# -- estimators ------------------------------------------------------------


def median_round_seconds(rounds: list[dict]) -> float:
    """Median over rounds of the round's normalised wall time. Rounds do a
    fixed amount of identical work, so the median is the estimator: one
    round stretched 10x by a noisy neighbour moves it by nothing."""
    return statistics.median(r["elapsed"] * r["scale"] for r in rounds)


def median_round_p50(rounds: list[dict], kind: str | None = None) -> float:
    """Median over rounds of each round's own normalised median latency."""
    values = []
    for r in rounds:
        sample = [
            lat for lat, k in zip(r["latencies"], r["kinds"]) if kind is None or k == kind
        ]
        if sample:
            values.append(statistics.median(sample) * r["scale"])
    return statistics.median(values)


def pooled_percentile(rounds: list[dict], q: float, kind: str | None = None) -> tuple[float, int]:
    """The q-quantile of all normalised op latencies, and the sample count."""
    pool = sorted(
        lat * r["scale"]
        for r in rounds
        for lat, k in zip(r["latencies"], r["kinds"])
        if kind is None or k == kind
    )
    if not pool:
        return 0.0, 0
    return pool[min(len(pool) - 1, int(q * len(pool)))], len(pool)


# -- the server ------------------------------------------------------------


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant, by a ppid walk over /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # exited between listdir and read
        ppid = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """utime + stime summed over ``pids`` (gone processes count 0)."""
    ticks = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


def _cmdline(pid: int) -> bytes:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return b""


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Server:
    """One `python -m repro serve` subprocess."""

    def __init__(self, args: list[str], log_path: Path):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self._log = open(log_path, "wb")
        #: descendants alive at the banner (shard workers, resource tracker):
        #: remembered so they are reaped even if the server dies first
        self._descendants: list[int] = []
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], BANNER_TIMEOUT_S)
        banner = self.proc.stdout.readline().decode() if ready else ""
        #: spawn -> ready banner, raw seconds
        self.startup_s = time.perf_counter() - start
        if "serving feeds on http://" not in banner:
            self.kill()
            raise RuntimeError(
                f"no ready banner from repro serve (got {banner!r}); "
                f"stderr: {log_path.read_text(errors='replace')[-2000:]}"
            )
        self.port = int(banner.split("http://")[1].split()[0].rpartition(":")[2])
        self._descendants = self.tree()[1:]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def tree(self) -> list[int]:
        return process_tree(self.pid)

    def kill(self) -> None:
        """SIGKILL the server and its orphans. Forked shard workers do not
        exit with their parent (they were still alive 3 s later), so they
        are killed; the multiprocessing resource tracker is spared until
        it has unlinked the dead server's shm rings (it exits by itself
        once every process holding its pipe is gone)."""
        orphans = sorted({*self._descendants, *self.tree()[1:]})
        trackers = [pid for pid in orphans if b"resource_tracker" in _cmdline(pid)]
        self.proc.kill()
        self.proc.wait()
        for pid in orphans:
            if pid not in trackers:
                _kill(pid)
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in orphans) and time.monotonic() < deadline:
            time.sleep(0.01)
        for pid in orphans:
            if _alive(pid):
                _kill(pid)
        self._close()

    def terminate(self) -> tuple[float, int, str]:
        """SIGTERM -> exit: ``(raw seconds, exit code, stdout)``.

        The caller's last request was a cheap one just before, so the
        wait for `serve_forever` to notice is its full poll interval, a
        constant, and not a uniform draw from it. No connection is made
        while the server stops: a SIGTERM racing an incoming connection
        is lost about every other time (30 trials: 14-17 hangs), the
        main thread staying parked in `Event.wait()`.
        """
        start = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return 60.0, -1, ""
        elapsed = time.perf_counter() - start
        self._close()
        return elapsed, self.proc.returncode, out.decode(errors="replace")

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
