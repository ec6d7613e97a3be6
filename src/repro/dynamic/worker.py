"""Dynamic shard worker: a process hosting migratable engine instances.

Unlike the static :mod:`repro.parallel.worker`, a dynamic worker starts
**empty** — instances are born, split, merged and retired while the stream
runs, so the coordinator installs and removes them over the pipe instead
of baking a component list into the startup spec. Re-sharding after a
topology change is therefore just placement: the coordinator installs each
new instance on the least-loaded worker.

========  ============================================  ========================
command   payload                                       reply payload
========  ============================================  ========================
install   (iid, subgraph, carried posts, last_ts)       None
batch     [(seq, post, [iid, ...]), …]                  [(seq, [admitting iid, …]), …]
patch     (iid, added edges, removed edges)             None
peek      iid                                           (admitted posts, last_ts)
extract   iid (removes the instance)                    (admitted posts, last_ts, stats state)
stats     —                                             merged RunStats state dict
stored    —                                             resident post copies
purge     now                                           None
states    —                                             [(iid, engine state dict), …]
snapshot  —                                             [(iid, subgraph, state), …]
load      (iid, engine state dict)                      None
reset     — (drops every instance)                      None
ping      —                                             "pong" (liveness probe)
stop      —                                             None (worker exits)
========  ============================================  ========================

Every reply is ``("ok", payload)`` or ``("error", type_name, message)``;
the parent converts errors into :class:`~repro.errors.ParallelError`.
``patch`` mutates the instance's own subgraph and re-indexes via
:func:`~repro.dynamic.migrate.patch_engine`, exactly what the coordinator
does to in-process instances.

``snapshot`` is the supervision checkpoint: unlike ``states`` it carries
each instance's *subgraph* too, because a crashed worker's replacement
must rebuild engines on the graph as it stood at checkpoint time — later
journalled ``patch``/``install`` commands re-apply the topology churn.
Dispatch lives in :class:`DynamicShardServer`, shared by the worker main
loop, supervised journal replay, and degraded in-parent mode; a
:class:`~repro.resilience.WorkerFaultPlan` on the spec fires only in
:func:`dynamic_worker_main`, at the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core import RunStats, StreamDiversifier, Thresholds
from ..resilience.faults import WorkerFaultPlan, execute_worker_fault
from ..supervise import WorkerProtocol, parent_commands
from .migrate import mutate_subgraph, patch_engine, seeded_engine


@dataclass(frozen=True)
class DynamicShardSpec:
    """Startup spec (picklable): how to build engines, not which ones."""

    algorithm: str
    thresholds: Thresholds
    faults: WorkerFaultPlan | None = None


class DynamicShardServer:
    """Dispatch one dynamic worker's commands against its instances.

    Fault-free by construction (injection happens only in
    :func:`dynamic_worker_main`), so the supervisor runs this same class
    in-parent for degraded shards and journal replay.
    """

    def __init__(self, spec: DynamicShardSpec):
        self.spec = spec
        self.engines: dict[int, StreamDiversifier] = {}

    def handle(self, message: tuple):
        """Execute one command tuple; return the reply payload."""
        command = message[0]
        engines = self.engines
        if command == "batch":
            out = []
            for seq, post, iids in message[1]:
                admitted = [iid for iid in iids if engines[iid].offer(post)]
                out.append((seq, admitted))
            return out
        if command == "install":
            iid, subgraph, carried, last_timestamp = message[1]
            engines[iid] = seeded_engine(
                self.spec.algorithm,
                self.spec.thresholds,
                subgraph,
                carried,
                last_timestamp,
            )
            return None
        if command == "patch":
            iid, added, removed = message[1]
            engine = engines[iid]
            mutate_subgraph(engine.graph, added, removed)
            patch_engine(engine, added, removed)
            return None
        if command == "peek":
            engine = engines[message[1]]
            return engine.admitted_posts(), engine.last_timestamp
        if command == "extract":
            engine = engines.pop(message[1])
            return (
                engine.admitted_posts(),
                engine.last_timestamp,
                engine.stats.state_dict(),
            )
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
        if command == "states":
            return [(iid, engines[iid].state_dict()) for iid in sorted(engines)]
        if command == "snapshot":
            return [
                (iid, engines[iid].graph, engines[iid].state_dict())
                for iid in sorted(engines)
            ]
        if command == "load":
            iid, state = message[1]
            engines[iid].load_state(state)
            return None
        if command == "reset":
            engines.clear()
            return None
        if command == "ping":
            return "pong"
        if command == "stop":
            return None
        raise ValueError(f"unknown command {command!r}")


def dynamic_worker_main(conn, spec: DynamicShardSpec) -> None:
    """Worker entry point: serve commands until ``stop``, pipe close or
    the death of the parent process."""
    commands = parent_commands(conn)
    server = DynamicShardServer(spec)
    faults = spec.faults
    batches = 0
    conn.send(("ok", "ready"))
    for message in commands:
        command = message[0]
        try:
            payload = server.handle(message)
        except Exception as exc:
            # Engine errors are reported, not fatal: the worker keeps
            # serving so the parent can still checkpoint or shut down.
            conn.send(("error", type(exc).__name__, str(exc)))
            continue
        if command == "batch" and faults is not None:
            batches += 1
            action = faults.action_for(batches)
            if action is not None and execute_worker_fault(action, faults, conn):
                continue  # corrupt reply already sent
        conn.send(("ok", payload))
        if command == "stop":
            break
    conn.close()


#: Commands that change dynamic-worker state and must be journalled.
MUTATING_COMMANDS = frozenset(
    {"install", "batch", "patch", "load", "purge", "reset", "extract"}
)


def _posts_of(message: tuple) -> int:
    return len(message[1]) if message[0] == "batch" else 0


def _restore_messages(payload) -> list[tuple]:
    """Turn a ``snapshot`` reply back into install + load commands.

    Installing on the snapshotted subgraph with an empty carried window
    and then loading the state dict reproduces the engine bit-for-bit —
    the same two-step the coordinator's own ``load_state`` performs.
    """
    messages: list[tuple] = []
    for iid, subgraph, state in payload:
        messages.append(("install", (iid, subgraph, [], float("-inf"))))
        messages.append(("load", (iid, state)))
    return messages


def dynamic_supervision_protocol() -> WorkerProtocol:
    """The dynamic family's adapter for :class:`ShardSupervisor`."""
    return WorkerProtocol(
        target=dynamic_worker_main,
        mutating=MUTATING_COMMANDS,
        checkpoint_command=("snapshot",),
        restore_messages=_restore_messages,
        make_server=DynamicShardServer,
        strip_faults=lambda spec: replace(spec, faults=None),
        posts_of=_posts_of,
    )
