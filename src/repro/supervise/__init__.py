"""Self-healing supervision for the sharded execution engines.

The parallel (:mod:`repro.parallel`) and dynamic (:mod:`repro.dynamic`)
engines run their components in worker processes; this package makes that
pool survive the processes themselves failing:

* :class:`ShardSupervisor` — per-shard liveness (request deadlines +
  heartbeats), a bounded write-ahead :class:`BatchJournal` of acknowledged
  commands, rolling per-shard checkpoints, crash recovery by respawn →
  restore → replay (bit-identical to a fault-free run), and — past the
  restart budget — quarantine of poison shards into in-parent serial
  engines (graceful degradation, never silent data loss).
* :class:`SupervisionConfig` — heartbeat/deadline/restart-budget/backoff/
  checkpoint-cadence knobs (CLI: ``--supervise``, ``--heartbeat-interval``,
  ``--max-restarts``, ``--shard-deadline``).
* :class:`WorkerProtocol` — the adapter each engine family supplies
  (spawn target, mutating-command set, checkpoint/restore wire messages,
  in-parent fallback server), keeping this package import-free of the
  engines that use it.
* :func:`shutdown_workers` — hardened pool teardown with terminate → kill
  escalation and join verification (shared by supervised and plain pools).
* :func:`parent_commands` — the workers' command stream, which ends when
  the parent process dies (a worker never outlives a SIGKILLed parent).

Enable it with ``make_multiuser(..., supervised=True)`` or
``ParallelSharedMultiUser(..., supervised=True)`` /
``DynamicMultiUser(..., supervised=True)``.
"""

from .journal import BatchJournal
from .supervisor import (
    ShardSupervisor,
    SupervisionConfig,
    WorkerProtocol,
    parent_commands,
    shutdown_workers,
)

__all__ = [
    "BatchJournal",
    "ShardSupervisor",
    "SupervisionConfig",
    "WorkerProtocol",
    "parent_commands",
    "shutdown_workers",
]
