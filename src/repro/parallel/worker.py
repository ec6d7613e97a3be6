"""Shard worker: one process owning a subset of distinct components.

Each worker builds the single-user engines for *its* components only —
under the ``fork`` start method nothing is pickled, under ``spawn`` the
spec (algorithm, thresholds, component node sets, author graph) travels
once at startup — and then serves a tiny command protocol over its pipe:

===========  =======================================  ======================
command      payload                                  reply payload
===========  =======================================  ======================
batch        [(seq, post, [component idx, ...]), …]   [(seq, [admitting idx, …]), …]
shm_batch    ring name, offset, nrows, nidx, texts    [(seq, [admitting idx, …]), …]
shm_batch_payload  packed bytes, nrows, nidx, texts   [(seq, [admitting idx, …]), …]
stats        —                                        merged RunStats state dict
stored       —                                        resident post copies
purge        now                                      None
state        —                                        [(idx, engine state dict), …]
load         [(idx, engine state dict), …]            None
memory       —                                        accounted bytes by family
spill        —                                        posts force-spilled to disk
probe_limit  limit or None                            None
drop         [component idx, …]                       None (shard split: give up)
adopt        [(idx, nodes, state or None), …]         None (shard merge: take on)
ping         —                                        "pong" (liveness probe)
stop         —                                        None (worker exits)
===========  =======================================  ======================

Every reply is ``("ok", payload)`` or ``("error", type_name, message)``;
the parent converts errors into :class:`~repro.errors.ParallelError`.
Posts inside a batch are offered to each named component's engine in
catalog-index order, so per-engine streams — and therefore every verdict
and counter — are identical to the serial engine's. The three batch
commands are one logical command with three framings: ``batch`` carries
pickled tuples (the slow path), ``shm_batch`` a descriptor into the
shard's shared-memory ring (:mod:`.shm`, the hot path), and
``shm_batch_payload`` the same packed bytes inline (the journal's
self-contained replay form). All three decode to identical items and run
the identical offer loop.

Command dispatch lives in :class:`ShardServer`, which the worker main
loop, the supervisor's journal replay, and the degraded in-parent mode
all share — identical semantics via identical code. A
:class:`~repro.resilience.WorkerFaultPlan` on the spec is executed *only*
in :func:`shard_worker_main` (the process boundary), after the engines
applied a batch but before the reply is sent — the window where a crash
loses acknowledged work unless the supervisor's journal saves it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..authors import AuthorGraph
from ..core import RunStats, StreamDiversifier, Thresholds, make_diversifier
from ..resilience.faults import WorkerFaultPlan, execute_worker_fault
from ..supervise import WorkerProtocol, parent_commands
from .shm import (
    attach_ring,
    batch_nbytes,
    close_attached_rings,
    detach_shm_batch,
    unpack_batch,
)


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to build its engines (picklable).

    ``storage`` (a :class:`repro.storage.SpillConfig`) makes the shard's
    window bins tiered; each worker spills into the configured directory
    with process-unique segment names, so shards never collide.
    """

    algorithm: str
    thresholds: Thresholds
    graph: AuthorGraph
    components: tuple[tuple[int, frozenset[int]], ...]
    faults: WorkerFaultPlan | None = None
    storage: object | None = None


def build_shard_engines(spec: ShardSpec) -> dict[int, StreamDiversifier]:
    """Construct one engine per owned component, keyed by catalog index.

    Mirrors :class:`~repro.multiuser.SharedComponentMultiUser` exactly —
    same ``graph.subgraph(component)`` call on the same frozenset — so
    derived structures (e.g. CliqueBin's greedy cover) come out identical
    to the serial engine's and outputs stay byte-for-byte equal.
    """
    return {
        idx: make_diversifier(
            spec.algorithm,
            spec.thresholds,
            spec.graph.subgraph(component),
            storage=spec.storage,
        )
        for idx, component in spec.components
    }


class ShardServer:
    """Dispatch one shard's commands against its component engines.

    Fault-free by construction: injection happens only at the process
    boundary in :func:`shard_worker_main`, so the supervisor can run this
    same class in-parent (degraded mode, journal replay) without a fault
    plan ever touching the coordinator process.
    """

    def __init__(self, spec: ShardSpec):
        self.spec = spec
        self.engines = build_shard_engines(spec)
        self._probe_limit: int | None = None

    def _offer_items(self, items) -> list:
        """The one offer loop behind all three batch framings."""
        engines = self.engines
        out = []
        for seq, post, indices in items:
            admitted = [idx for idx in indices if engines[idx].offer(post)]
            out.append((seq, admitted))
        return out

    def handle(self, message: tuple):
        """Execute one command tuple; return the reply payload."""
        command = message[0]
        engines = self.engines
        if command == "batch":
            return self._offer_items(message[1])
        if command == "shm_batch":
            _, name, offset, nrows, nidx, texts = message
            ring = attach_ring(name)
            region = ring.read(offset, batch_nbytes(nrows, nidx))
            return self._offer_items(unpack_batch(region, nrows, nidx, texts))
        if command == "shm_batch_payload":
            # The journal's detached form: same bytes, shipped inline.
            _, blob, nrows, nidx, texts = message
            return self._offer_items(unpack_batch(blob, nrows, nidx, texts))
        if command == "stats":
            total = RunStats()
            for engine in engines.values():
                total.merge(engine.stats)
            return total.state_dict()
        if command == "stored":
            return sum(engine.stored_copies() for engine in engines.values())
        if command == "purge":
            for engine in engines.values():
                engine.purge(message[1])
            return None
        if command == "state":
            return [(idx, engines[idx].state_dict()) for idx in sorted(engines)]
        if command == "load":
            # Unknown indices are skipped, not errors: after a shard split
            # the respawn spec may own fewer components than an older
            # checkpoint covers, and the journalled "drop" that follows in
            # replay would discard them anyway.
            for idx, state in message[1]:
                engine = engines.get(idx)
                if engine is not None:
                    engine.load_state(state)
            return None
        if command == "memory":
            total: dict[str, int] = {}
            for engine in engines.values():
                for family, amount in engine.memory_breakdown().items():
                    total[family] = total.get(family, 0) + amount
            return total
        if command == "spill":
            return sum(engine.spill() for engine in engines.values())
        if command == "probe_limit":
            self._probe_limit = message[1]
            for engine in engines.values():
                engine.set_probe_limit(message[1])
            return None
        if command == "drop":
            # Shard split: this shard gives up the named components.
            # Idempotent (missing indices ignored) so journal replay that
            # races a spec update stays byte-exact.
            for idx in message[1]:
                engines.pop(idx, None)
            return None
        if command == "adopt":
            # Shard merge: take ownership of components migrated from a
            # retiring shard. Rebuilds unconditionally — replaying an
            # adopt lands on the same carried state either way — and the
            # adopted engines inherit this shard's active probe limit.
            spec = self.spec
            for idx, nodes, state in message[1]:
                engine = make_diversifier(
                    spec.algorithm,
                    spec.thresholds,
                    spec.graph.subgraph(frozenset(nodes)),
                    storage=spec.storage,
                )
                if state is not None:
                    engine.load_state(state)
                if self._probe_limit is not None:
                    engine.set_probe_limit(self._probe_limit)
                engines[idx] = engine
            return None
        if command == "ping":
            return "pong"
        if command == "stop":
            return None
        raise ValueError(f"unknown command {command!r}")


#: The three framings of the batch command: fault-plan ordinals count any
#: of them, so a chaos schedule keyed on "the Nth batch" fires at the
#: same stream position whichever transport carried it.
BATCH_COMMANDS = frozenset({"batch", "shm_batch", "shm_batch_payload"})


def shard_worker_main(conn, spec: ShardSpec) -> None:
    """Worker process entry point: build engines, serve commands, exit on
    ``stop``, when the parent's end of the pipe closes or when the parent
    process is gone. Borrowed shared-memory mappings are closed on every
    return path (the coordinator owns — and eventually unlinks — the
    segments)."""
    commands = parent_commands(conn)
    try:
        server = ShardServer(spec)
    except BaseException as exc:  # startup failure: report, then die
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        finally:
            conn.close()
        return
    faults = spec.faults
    batches = 0
    conn.send(("ok", "ready"))
    try:
        for message in commands:
            command = message[0]
            try:
                payload = server.handle(message)
            except Exception as exc:
                # Engine errors (StreamOrderError, CheckpointError, …) are
                # reported, not fatal: the worker keeps serving so the parent
                # can still checkpoint or shut down cleanly.
                conn.send(("error", type(exc).__name__, str(exc)))
                continue
            if command in BATCH_COMMANDS and faults is not None:
                batches += 1
                action = faults.action_for(batches)
                if action is not None and execute_worker_fault(action, faults, conn):
                    continue  # corrupt reply already sent
            conn.send(("ok", payload))
            if command == "stop":
                break
        conn.close()
    finally:
        close_attached_rings()


#: Commands that change worker state and therefore must be journalled.
#: ``spill`` is deliberately absent: it moves posts between residency
#: tiers without changing any verdict-relevant state, so replaying it
#: after a crash is unnecessary. ``shm_batch`` is journalled in its
#: detached ``shm_batch_payload`` form (see ``supervision_protocol``).
MUTATING_COMMANDS = frozenset(
    {"batch", "shm_batch", "shm_batch_payload", "purge", "load", "probe_limit", "drop", "adopt"}
)


def _posts_of(message: tuple) -> int:
    command = message[0]
    if command == "batch":
        return len(message[1])
    if command in ("shm_batch", "shm_batch_payload"):
        return message[3] if command == "shm_batch" else message[2]
    return 0


def supervision_protocol() -> WorkerProtocol:
    """The static-shard family's adapter for :class:`ShardSupervisor`.

    A shard's checkpoint is its ``state`` reply — the positional
    ``(idx, engine state dict)`` list — and restoring is one ``load`` of
    that same payload, so checkpoint/restore reuse the exact wire shapes
    the engine's own :meth:`state_dict`/:meth:`load_state` speak.

    ``journal_form`` detaches ``shm_batch`` descriptors into
    self-contained payload bytes at commit time: a journalled ring
    reference would dangle once the ring region is overwritten, so the
    journal must never hold one.
    """
    return WorkerProtocol(
        target=shard_worker_main,
        mutating=MUTATING_COMMANDS,
        checkpoint_command=("state",),
        restore_messages=lambda payload: [("load", payload)],
        make_server=ShardServer,
        strip_faults=lambda spec: replace(spec, faults=None),
        posts_of=_posts_of,
        journal_form=detach_shm_batch,
    )
