"""ShardSupervisor: self-healing worker pools for the sharded engines.

The parallel and dynamic engines push exactness across process
boundaries; this module keeps that promise through process *failure*. One
supervisor owns one pool of shard workers and guarantees:

* **Liveness detection** — every request carries a deadline on the pipe
  ``recv``; idle shards are pinged on a heartbeat cadence. A dead pipe,
  a breached deadline, or a reply that is not a valid protocol tuple all
  count as a worker failure.
* **Exact recovery** — acknowledged mutating commands since the last
  rolling checkpoint live in a :class:`~repro.supervise.journal.
  BatchJournal`. On failure the worker is respawned under bounded
  exponential backoff + jitter, its last checkpoint is restored, the
  journal is replayed (engines are deterministic, so replayed state is
  bit-identical), and the in-flight request is re-issued. No acknowledged
  work is ever lost; the caller just sees a slow reply.
* **Graceful degradation** — a shard that exhausts its restart budget is
  quarantined as a *poison shard*: its components are rebuilt in-parent
  (checkpoint + journal replay through the same ``handle`` code the
  worker runs) and served serially from then on. Slower, never wrong.

The supervisor is engine-agnostic: everything family-specific — how to
spawn a worker, which commands mutate state, how to checkpoint/restore,
how to build the in-parent fallback server — arrives in a
:class:`WorkerProtocol` built by :mod:`repro.parallel` or
:mod:`repro.dynamic` (which import this package, never the reverse).
"""

from __future__ import annotations

import os
import random
import select
import time
import weakref
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from ..errors import CheckpointError, ConfigurationError, ParallelError
from ..storage.framing import read_framed, write_framed
from .journal import BatchJournal


@dataclass(frozen=True)
class SupervisionConfig:
    """Tuning knobs for one :class:`ShardSupervisor`.

    ``heartbeat_interval`` paces liveness pings to idle shards;
    ``deadline`` bounds every pipe ``recv`` (the hang detector);
    ``max_restarts`` is the per-shard respawn budget before degradation;
    ``backoff_base``/``backoff_cap``/``jitter`` shape the respawn delay
    ``min(cap, base * 2**attempt) * (1 + jitter * rand())``;
    ``checkpoint_every`` is the rolling-checkpoint cadence in acknowledged
    stream posts per shard, and ``journal_limit`` forces an early
    checkpoint once that many mutating commands are journalled (bounding
    replay cost). ``seed`` drives the jitter deterministically.
    ``checkpoint_dir``, when set, spills each shard's rolling checkpoint
    to an atomically-written, checksummed file in that directory instead
    of holding the payload in parent memory — bounding the coordinator's
    footprint and surviving torn writes (a truncated or corrupted file is
    rejected with a clear :class:`~repro.errors.CheckpointError`).
    """

    heartbeat_interval: float = 1.0
    deadline: float = 30.0
    max_restarts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    checkpoint_every: int = 2048
    journal_limit: int = 64
    seed: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {self.deadline}")
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ConfigurationError(
                f"backoff_cap {self.backoff_cap} < backoff_base {self.backoff_base}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.journal_limit < 1:
            raise ConfigurationError(
                f"journal_limit must be >= 1, got {self.journal_limit}"
            )


@dataclass(frozen=True)
class WorkerProtocol:
    """How one engine family's shards are run, saved and replaced.

    ``target`` is the worker process entry point ``(conn, spec)``;
    ``mutating`` names the commands that change worker state (these are
    journalled); ``checkpoint_command`` is the read-only message whose
    reply captures a shard's full state; ``restore_messages`` turns that
    reply back into the command sequence that rebuilds it;
    ``make_server`` builds the in-parent fallback (an object with
    ``handle(message)`` sharing the worker's dispatch code);
    ``strip_faults`` returns a spec with injected faults removed (respawn
    hygiene); ``posts_of`` counts the stream posts a message carries, for
    the checkpoint cadence. ``journal_form``, when set, converts an
    acknowledged mutating message into the form the journal should hold —
    families whose wire messages reference external buffers (the parallel
    family's shared-memory batches) detach them into self-contained
    payloads here, at commit time, while the referenced region is still
    valid; replay then works no matter what the buffer holds later.
    """

    target: Callable
    mutating: frozenset[str]
    checkpoint_command: tuple
    restore_messages: Callable[[object], list[tuple]]
    make_server: Callable[[object], object]
    strip_faults: Callable[[object], object]
    posts_of: Callable[[tuple], int]
    journal_form: Callable[[tuple], tuple] | None = None


class _WorkerFailure(Exception):
    """Internal: one observed worker failure (timeout/EOF/corrupt/send)."""


class _DiskCheckpoint:
    """Marker for a shard checkpoint that lives on disk, not in memory."""

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path


# Shard checkpoints share the CRC-framed atomic persistence used by every
# durability layer (feed mailbox snapshots included); the framing header is
# what turns a torn write into a loud CheckpointError instead of
# silently-wrong recovered state.
_write_shard_checkpoint = write_framed
_read_shard_checkpoint = read_framed


class _Shard:
    """Supervisor-side record of one shard worker."""

    __slots__ = (
        "index",
        "spec",
        "process",
        "conn",
        "journal",
        "checkpoint",
        "restarts",
        "degraded",
        "retired",
        "server",
        "last_contact",
        "last_command",
    )

    def __init__(self, index: int, spec, journal_limit: int):
        self.index = index
        self.spec = spec
        self.process = None
        self.conn = None
        self.journal = BatchJournal(journal_limit)
        self.checkpoint = None
        self.restarts = 0
        self.degraded = False
        self.retired = False
        self.server = None
        self.last_contact = 0.0
        self.last_command = "spawn"


def _reap_process(process) -> None:
    """terminate → kill escalation for one worker, with join verification."""
    if process is None:
        return
    process.join(timeout=0.1)
    if process.is_alive():
        process.terminate()
        process.join(timeout=2.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=2.0)


#: How often an idle worker looks whether its parent is still there.
ORPHAN_CHECK_SECONDS = 0.5


def parent_commands(conn):
    """A worker's command stream: yields each message the parent sends
    and ends when the pipe closes or the parent process is gone. Call it
    first thing in the worker — the parent is whoever it is then.

    A closed pipe alone does not tell: under ``fork`` a worker inherits
    the parent's ends of its own and its elder siblings' pipes, so a
    SIGKILLed parent never reads as EOF. Being re-parented does. The wait
    is a bare ``poll(2)`` on the descriptor: ``conn.poll()`` builds a
    selector per call, on the path of every batch.
    """
    parent_pid = os.getppid()
    waiter = select.poll()
    waiter.register(conn, select.POLLIN)

    def commands():
        while True:
            while not waiter.poll(ORPHAN_CHECK_SECONDS * 1000):
                if os.getppid() != parent_pid:
                    return
            try:
                yield conn.recv()
            except EOFError:
                return

    return commands()


def shutdown_workers(processes, connections) -> None:
    """Hardened pool teardown, safe to run twice (weakref.finalize target).

    Polite first — send ``stop``, drain the acknowledgement so the
    worker's send never blocks — then escalating: a worker that did not
    acknowledge gets a short grace join, ``terminate`` (SIGTERM), and
    finally ``kill`` (SIGKILL), each verified by a bounded ``join``, so no
    zombie survives ``close()`` even when a worker ignores both ``stop``
    and SIGTERM.
    """
    acknowledged = []
    for conn in connections:
        try:
            conn.send(("stop",))
            acknowledged.append(True)
        except (OSError, ValueError):
            acknowledged.append(False)
    for position, conn in enumerate(connections):
        if acknowledged[position]:
            try:
                if conn.poll(1.0):
                    conn.recv()
                else:
                    acknowledged[position] = False
            except (OSError, EOFError, ValueError):
                acknowledged[position] = False
        try:
            conn.close()
        except OSError:
            pass
    for position, process in enumerate(processes):
        graceful = position < len(acknowledged) and acknowledged[position]
        process.join(timeout=5.0 if graceful else 0.2)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=2.0)


class ShardSupervisor:
    """Owns one pool of shard workers: request routing, liveness,
    journalled checkpoints, crash recovery and serial degradation.

    Args:
        specs: one picklable startup spec per shard (positional = shard
            index). The supervisor owns these and may strip their fault
            plans on respawn.
        context: the multiprocessing context to spawn under.
        protocol: the engine family's :class:`WorkerProtocol`.
        config: tuning knobs; defaults are production-shaped.
        name: label used in error messages (the engine's name).
    """

    def __init__(
        self,
        specs,
        *,
        context,
        protocol: WorkerProtocol,
        config: SupervisionConfig | None = None,
        name: str = "shard",
    ):
        self.protocol = protocol
        self.config = config if config is not None else SupervisionConfig()
        self.name = name
        self.instruments = None  # set by SupervisionInstruments when bound
        self._context = context
        self._rng = random.Random(self.config.seed)
        self._closed = False
        self.restarts_total = 0
        self.degradations = 0
        self.checkpoints_taken = 0
        self.heartbeats_sent = 0
        self.heartbeats_missed = 0
        self.replayed_commands = 0
        self.recovery_latencies: list[float] = []
        self._shards = [
            _Shard(index, spec, self.config.journal_limit)
            for index, spec in enumerate(specs)
        ]
        # The finalizer holds these exact list objects; spawn/destroy keep
        # them current so GC-time teardown reaps whatever is live *now*.
        self._live_processes: list = []
        self._live_connections: list = []
        self._finalizer = weakref.finalize(
            self, shutdown_workers, self._live_processes, self._live_connections
        )
        self._last_sweep = time.monotonic()
        try:
            for shard in self._shards:
                self._spawn(shard)
        except _WorkerFailure as exc:
            self._finalizer()
            raise ParallelError(
                f"{name} shard worker failed to start: {exc}"
            ) from exc
        except BaseException:
            self._finalizer()
            raise

    # -- spawning and teardown ---------------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        """Start one worker and wait for its ready handshake."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=self.protocol.target,
            args=(child_conn, shard.spec),
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard.conn = parent_conn
        shard.process = process
        self._live_processes.append(process)
        self._live_connections.append(parent_conn)
        shard.last_command = "ready"
        self._recv(shard, "ready")

    def _destroy(self, shard: _Shard) -> None:
        """Tear down one worker (terminate → kill) and drop its handles."""
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            if shard.conn in self._live_connections:
                self._live_connections.remove(shard.conn)
            shard.conn = None
        if shard.process is not None:
            _reap_process(shard.process)
            if shard.process in self._live_processes:
                self._live_processes.remove(shard.process)
            shard.process = None

    def close(self) -> None:
        """Stop every live worker; idempotent, zombie-free."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()  # shutdown_workers over the live lists, once
        self._live_processes.clear()
        self._live_connections.clear()
        for shard in self._shards:
            shard.conn = None
            shard.process = None

    # -- wire plumbing -------------------------------------------------------

    def _send(self, shard: _Shard, message: tuple) -> None:
        try:
            shard.conn.send(message)
        except (OSError, ValueError) as exc:
            raise _WorkerFailure(
                f"send of {message[0]!r} failed (pipe closed): {exc}"
            ) from exc

    def _recv(self, shard: _Shard, command: str):
        deadline = self.config.deadline
        try:
            if not shard.conn.poll(deadline):
                raise _WorkerFailure(
                    f"no reply to {command!r} within {deadline:.1f}s (worker hung)"
                )
            reply = shard.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerFailure(
                f"pipe closed awaiting reply to {command!r}: {exc}"
            ) from exc
        if (
            not isinstance(reply, tuple)
            or len(reply) < 2
            or reply[0] not in ("ok", "error")
        ):
            raise _WorkerFailure(
                f"corrupt reply to {command!r}: {str(reply)[:80]!r}"
            )
        if reply[0] == "error":
            # A well-formed engine error: the worker is alive and sane.
            raise ParallelError(
                f"{self.name} shard {shard.index} worker {reply[1]}: {reply[2]}"
            )
        shard.last_contact = time.monotonic()
        return reply[1]

    # -- request routing -----------------------------------------------------

    def request(self, index: int, message: tuple):
        """Send one command to one shard and return its payload, healing
        the shard first if it fails mid-request."""
        if self._closed:
            raise ParallelError(f"{self.name} supervisor already closed")
        shard = self._shards[index]
        if shard.retired:
            raise ParallelError(
                f"{self.name} shard {index} was retired (merged away); "
                "routing to it is a coordinator bug"
            )
        shard.last_command = message[0]
        if shard.degraded:
            payload = self._handle_degraded(shard, message)
        else:
            try:
                self._send(shard, message)
                payload = self._recv(shard, message[0])
            except _WorkerFailure as failure:
                payload = self._recover(shard, failure, inflight=message)
        self._committed(shard, message)
        return payload

    def request_many(self, messages: Mapping[int, tuple]) -> dict[int, object]:
        """One command per shard; sends complete before the first receive
        so live shards overlap, then failed shards are healed one by one."""
        if self._closed:
            raise ParallelError(f"{self.name} supervisor already closed")
        replies: dict[int, object] = {}
        failures: dict[int, _WorkerFailure] = {}
        sent: list[int] = []
        for index, message in messages.items():
            shard = self._shards[index]
            shard.last_command = message[0]
            if shard.degraded:
                replies[index] = self._handle_degraded(shard, message)
            else:
                try:
                    self._send(shard, message)
                    sent.append(index)
                except _WorkerFailure as failure:
                    failures[index] = failure
        for index in sent:
            try:
                replies[index] = self._recv(self._shards[index], messages[index][0])
            except _WorkerFailure as failure:
                failures[index] = failure
        # Journal the successes before healing anyone, so a recovery that
        # raises cannot leave an acknowledged command un-journalled.
        for index in messages:
            if index not in failures:
                self._committed(self._shards[index], messages[index])
        for index, failure in failures.items():
            shard = self._shards[index]
            replies[index] = self._recover(shard, failure, inflight=messages[index])
            self._committed(shard, messages[index])
        return replies

    def request_all(self, message: tuple) -> dict[int, object]:
        """Broadcast to every *active* shard (retired tombstones are
        skipped — their components live on in the shard they merged into)."""
        return self.request_many(
            {shard.index: message for shard in self._shards if not shard.retired}
        )

    def _handle_degraded(self, shard: _Shard, message: tuple):
        try:
            return shard.server.handle(message)
        except ParallelError:
            raise
        except Exception as exc:
            raise ParallelError(
                f"{self.name} shard {shard.index} (degraded, in-parent) "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    # -- journalling and checkpoints ----------------------------------------

    def _committed(self, shard: _Shard, message: tuple) -> None:
        """An acknowledged command: journal it if it mutates state, and
        roll a checkpoint when the cadence (or journal bound) says so."""
        if shard.degraded or message[0] not in self.protocol.mutating:
            return
        if self.protocol.journal_form is not None:
            message = self.protocol.journal_form(message)
        shard.journal.append(message, posts=self.protocol.posts_of(message))
        if self.instruments is not None:
            self.instruments.observe_journal_depth(len(shard.journal))
        if shard.journal.full or shard.journal.posts >= self.config.checkpoint_every:
            self._checkpoint(shard)

    def _checkpoint(self, shard: _Shard) -> None:
        command = self.protocol.checkpoint_command
        try:
            self._send(shard, command)
            payload = self._recv(shard, command[0])
        except _WorkerFailure as failure:
            payload = self._recover(shard, failure, inflight=command)
            if shard.degraded:
                return  # degraded shards neither journal nor checkpoint
        shard.checkpoint = self._store_checkpoint(shard, payload)
        shard.journal.clear()
        self.checkpoints_taken += 1

    def _checkpoint_path(self, shard: _Shard) -> str:
        assert self.config.checkpoint_dir is not None
        return os.path.join(
            self.config.checkpoint_dir, f"{self.name}-shard{shard.index:04d}.ckpt"
        )

    def _store_checkpoint(self, shard: _Shard, payload):
        """Keep the payload in memory, or — with ``checkpoint_dir`` — spill
        it to an atomic, checksummed file and keep only the reference."""
        directory = self.config.checkpoint_dir
        if directory is None:
            return payload
        os.makedirs(directory, exist_ok=True)
        path = self._checkpoint_path(shard)
        _write_shard_checkpoint(path, payload)
        return _DiskCheckpoint(path)

    def _checkpoint_payload(self, shard: _Shard):
        """Resolve a shard's stored checkpoint to its payload; raises
        :class:`CheckpointError` on a torn or truncated on-disk file."""
        checkpoint = shard.checkpoint
        if isinstance(checkpoint, _DiskCheckpoint):
            return _read_shard_checkpoint(checkpoint.path)
        return checkpoint

    def _drop_checkpoint_file(self, shard: _Shard) -> None:
        if isinstance(shard.checkpoint, _DiskCheckpoint):
            try:
                os.unlink(shard.checkpoint.path)
            except OSError:
                pass

    # -- liveness -----------------------------------------------------------

    def maybe_heartbeat(self, *, force: bool = False) -> None:
        """Ping shards idle past the heartbeat interval; heal dead ones.

        Called from the engine's batch path (and from tests with
        ``force=True``), so liveness checks piggyback on traffic without a
        background thread.
        """
        if self._closed:
            return
        now = time.monotonic()
        if not force and now - self._last_sweep < self.config.heartbeat_interval:
            return
        self._last_sweep = now
        for shard in self._shards:
            if shard.degraded or shard.retired:
                continue
            if not force and now - shard.last_contact < self.config.heartbeat_interval:
                continue
            shard.last_command = "ping"
            self.heartbeats_sent += 1
            try:
                self._send(shard, ("ping",))
                self._recv(shard, "ping")
            except _WorkerFailure as failure:
                self.heartbeats_missed += 1
                self._recover(shard, failure, inflight=None)

    # -- recovery and degradation -------------------------------------------

    def _recover(self, shard: _Shard, failure: _WorkerFailure, *, inflight):
        """Heal one failed shard: respawn under backoff, restore the last
        checkpoint, replay the journal, re-issue the in-flight request.
        Past the restart budget, degrade to an in-parent serial server."""
        started = time.perf_counter()
        config = self.config
        last_failure = failure
        self._destroy(shard)
        faults = getattr(shard.spec, "faults", None)
        if faults is not None and not getattr(faults, "survive_restarts", False):
            shard.spec = self.protocol.strip_faults(shard.spec)
        attempt = 0
        while shard.restarts < config.max_restarts:
            shard.restarts += 1
            self.restarts_total += 1
            delay = min(config.backoff_cap, config.backoff_base * (2.0**attempt))
            delay *= 1.0 + config.jitter * self._rng.random()
            attempt += 1
            if delay > 0:
                time.sleep(delay)
            try:
                self._spawn(shard)
                self._restore(shard)
                payload = None
                if inflight is not None:
                    self._send(shard, inflight)
                    payload = self._recv(shard, inflight[0])
                elapsed = time.perf_counter() - started
                self.recovery_latencies.append(elapsed)
                if self.instruments is not None:
                    self.instruments.observe_recovery(elapsed)
                return payload
            except _WorkerFailure as exc:
                last_failure = exc
                self._destroy(shard)
        self._degrade(shard, last_failure)
        if inflight is None:
            return None
        return self._handle_degraded(shard, inflight)

    def _restore(self, shard: _Shard) -> None:
        """Rebuild a fresh worker's state: checkpoint, then journal replay
        (replies are drained and discarded — the caller already has them)."""
        if shard.checkpoint is not None:
            for message in self.protocol.restore_messages(
                self._checkpoint_payload(shard)
            ):
                self._send(shard, message)
                self._recv(shard, message[0])
        for message in shard.journal.replay():
            self._send(shard, message)
            self._recv(shard, message[0])
            self.replayed_commands += 1

    def _degrade(self, shard: _Shard, failure: _WorkerFailure) -> None:
        """Quarantine a poison shard: rebuild its engines in-parent from
        checkpoint + journal and serve them serially from now on."""
        spec = self.protocol.strip_faults(shard.spec)
        try:
            server = self.protocol.make_server(spec)
            if shard.checkpoint is not None:
                for message in self.protocol.restore_messages(
                    self._checkpoint_payload(shard)
                ):
                    server.handle(message)
            for message in shard.journal.replay():
                server.handle(message)
                self.replayed_commands += 1
        except Exception as exc:
            raise ParallelError(
                f"{self.name} shard {shard.index} exhausted its restart "
                f"budget ({self.config.max_restarts}) and in-parent "
                f"degradation failed: {type(exc).__name__}: {exc} "
                f"(last worker failure during {shard.last_command!r}: {failure})"
            ) from exc
        shard.server = server
        shard.degraded = True
        self._drop_checkpoint_file(shard)
        shard.checkpoint = None
        shard.journal.clear()
        self.degradations += 1

    # -- live topology (shard autoscaling) ----------------------------------
    #
    # The autoscaler (:mod:`repro.parallel.autoscale`) splits hot shards and
    # merges cold ones through these hooks. Shard indices are stable for the
    # supervisor's lifetime: new shards append, merged-away shards become
    # retired tombstones that no request or heartbeat ever touches again.

    def spec_of(self, index: int):
        """The startup spec currently on file for ``index`` (what a respawn
        would build)."""
        return self._shards[index].spec

    def update_spec(self, index: int, spec) -> None:
        """Replace a shard's respawn spec after a live topology change —
        call only once the worker's actual state matches ``spec`` (e.g.
        after the split's ``drop`` was acknowledged)."""
        self._shards[index].spec = spec

    def add_shard(self, spec) -> int:
        """Spawn a new worker for ``spec`` and return its shard index.

        The shard starts with an empty journal and no checkpoint: state is
        installed through normal journalled commands (``load``/``adopt``),
        so a crash at any point of a split replays to the identical state.
        """
        if self._closed:
            raise ParallelError(f"{self.name} supervisor already closed")
        shard = _Shard(len(self._shards), spec, self.config.journal_limit)
        self._shards.append(shard)
        try:
            self._spawn(shard)
        except _WorkerFailure as failure:
            # Same healing contract as any other shard: a worker that dies
            # while being added is respawned under the restart budget.
            self._recover(shard, failure, inflight=None)
        return shard.index

    def retire_shard(self, index: int) -> None:
        """Tear down a shard merged into another one; idempotent.

        The tombstone keeps indices stable; its journal/checkpoint are
        dropped because its components' state now lives in (and is
        journalled by) the adopting shard.
        """
        shard = self._shards[index]
        if shard.retired:
            return
        shard.retired = True
        shard.degraded = False
        shard.server = None
        self._drop_checkpoint_file(shard)
        shard.checkpoint = None
        shard.journal.clear()
        self._destroy(shard)

    def checkpoint_now(self, index: int) -> bool:
        """Take an immediate rolling checkpoint of one shard (and clear its
        journal). Returns False for degraded or retired shards, which have
        nothing to checkpoint."""
        shard = self._shards[index]
        if shard.degraded or shard.retired:
            return False
        self._checkpoint(shard)
        return not shard.degraded

    # -- status -------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def active_shard_count(self) -> int:
        """Shards still serving traffic (excludes retired tombstones)."""
        return sum(1 for s in self._shards if not s.retired)

    def is_retired(self, index: int) -> bool:
        return self._shards[index].retired

    def retired_shards(self) -> tuple[int, ...]:
        return tuple(s.index for s in self._shards if s.retired)

    def journal_bytes(self) -> int:
        """Accounted bytes of every active shard's journal (a memory-
        governor family)."""
        return sum(s.journal.approx_bytes() for s in self._shards if not s.retired)

    def restarts_of(self, index: int) -> int:
        return self._shards[index].restarts

    def is_degraded(self, index: int) -> bool:
        return self._shards[index].degraded

    def is_live(self, index: int) -> bool:
        """True while the shard's worker process is running (a degraded
        shard has no process and reports False)."""
        shard = self._shards[index]
        return shard.process is not None and shard.process.is_alive()

    def journal_depth(self, index: int) -> int:
        return len(self._shards[index].journal)

    def degraded_shards(self) -> tuple[int, ...]:
        return tuple(s.index for s in self._shards if s.degraded)

    def status(self) -> dict[str, object]:
        """One JSON-able health summary (the /healthz substrate)."""
        return {
            "shards": self.shard_count,
            "live_shards": sum(
                1 for s in self._shards if self.is_live(s.index)
            ),
            "degraded_shards": list(self.degraded_shards()),
            "retired_shards": list(self.retired_shards()),
            "restarts": self.restarts_total,
            "degradations": self.degradations,
            "checkpoints": self.checkpoints_taken,
            "heartbeats": self.heartbeats_sent,
            "heartbeats_missed": self.heartbeats_missed,
            "replayed_commands": self.replayed_commands,
        }
