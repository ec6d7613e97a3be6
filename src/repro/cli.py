"""Command-line interface.

Three modes:

* **experiments** — regenerate any paper figure/table::

      python -m repro list
      python -m repro figure11 --scale medium
      python -m repro all

* **diversify** — run an algorithm over a JSONL post trace::

      python -m repro diversify --posts posts.jsonl --graph graph.json \
          --algorithm cliquebin --lambda-t 1800 --output shown.jsonl

  or over a **mixed event trace** (posts + follow/unfollow churn), with
  the author graph derived live from the follow relation::

      python -m repro diversify --events events.jsonl --friends friends.json \
          --algorithm cliquebin --subscriptions subscriptions.json

* **generate** — emit a synthetic trace (posts + graph + subscriptions)
  for trying the tool without your own data::

      python -m repro generate --out-dir ./trace --scale small

* **experiments** — run a scenario × engine matrix of adversarial
  workloads with cross-checked receiver sets, and gate the perf
  trajectory (see ``EXPERIMENTS.md``)::

      python -m repro experiments --matrix smoke --out report.json
      python -m repro experiments --matrix smoke --check
      python -m repro experiments --list

* **serve** — run the end-to-end feed service: fanout-on-write per-user
  mailboxes over any multi-user engine, with a paginated HTTP read path
  (plus ``/metrics`` and ``/healthz`` on the same port)::

      python -m repro serve --graph graph.json \
          --subscriptions subscriptions.json --algorithm s_unibin --port 8080
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .eval import ABLATIONS, EXPERIMENTS, SCALES


def _experiment_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firehose",
        description=(
            "Reproduce experiments from 'Slowing the Firehose: "
            "Multi-Dimensional Diversity on Social Post Streams' (EDBT 2016)"
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="medium",
        help="synthetic dataset scale (default: medium)",
    )
    return parser


def _diversify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firehose diversify",
        description="Diversify a JSONL post trace with an SPSD algorithm",
    )
    parser.add_argument("--posts", help="input posts.jsonl")
    parser.add_argument(
        "--events",
        help="mixed events.jsonl (post/follow/unfollow records): run in "
        "dynamic mode, deriving the author graph from --friends and "
        "migrating live state on every effective topology change",
    )
    parser.add_argument(
        "--graph",
        help="author graph.json; omit only with --lambda-a 1 (author dim off)",
    )
    parser.add_argument(
        "--friends",
        help="friends.json (author -> followees): the initial follow "
        "relation dynamic mode cuts its similarity graph from (required "
        "with --events)",
    )
    parser.add_argument(
        "--algorithm",
        default="unibin",
        help="unibin | neighborbin | cliquebin | indexed_unibin; with "
        "--subscriptions also multi-user names (m_*, s_*, p_*)",
    )
    parser.add_argument(
        "--subscriptions",
        help="subscriptions.json: run in multi-user mode, emitting per-post "
        "receiver sets instead of a single diversified trace",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sharded parallel engine "
        "(multi-user mode; 1 = in-process fast path)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=512,
        help="posts shipped per shard round-trip in multi-user mode "
        "(amortizes IPC; 1 = per-post offers)",
    )
    parser.add_argument(
        "--transport",
        choices=("auto", "shm", "pipe"),
        default="auto",
        help="shard batch transport for the parallel engines: shm packs "
        "posts into per-shard shared-memory rings, pipe pickles them; "
        "auto (default) picks shm when the platform supports it",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="self-healing worker pool: heartbeat liveness, crash recovery "
        "by checkpoint + journal replay, and quarantine of poison shards "
        "into in-parent serial execution (multi-user sharded engines)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="supervised mode: seconds a shard may sit idle before a "
        "liveness ping (default 1.0)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help="supervised mode: respawn budget per shard before it is "
        "degraded to in-parent serial execution (default 3)",
    )
    parser.add_argument(
        "--shard-deadline",
        type=float,
        default=120.0,
        help="seconds to wait on a worker reply before declaring the "
        "shard dead (supervised mode recovers; plain mode raises)",
    )
    parser.add_argument(
        "--memory-budget",
        type=int,
        help="accounted-byte budget: attach the memory governor, which "
        "degrades one rung at a time past the budget (spill tiered "
        "windows, then cap probe fan-out) and releases with hysteresis",
    )
    parser.add_argument(
        "--spill-dir",
        help="directory for tiered window storage: bins keep a bounded "
        "in-memory head and spill cold segments to disk here (identical "
        "verdicts; gives the governor's spill rung something to free)",
    )
    parser.add_argument("--lambda-c", type=int, default=18, help="content bits")
    parser.add_argument("--lambda-t", type=float, default=1800.0, help="seconds")
    parser.add_argument("--lambda-a", type=float, default=0.7, help="author distance")
    parser.add_argument("--output", help="write the diversified trace here (JSONL)")
    parser.add_argument(
        "--on-error",
        choices=("strict", "skip", "quarantine"),
        default="strict",
        help="bad JSONL records: abort (strict), drop with counts (skip), "
        "or retain in a dead-letter sink (quarantine)",
    )
    parser.add_argument(
        "--quarantine-out",
        help="write quarantined records (with line numbers and reasons) "
        "to this JSONL dead-letter file",
    )
    parser.add_argument(
        "--max-skew",
        type=float,
        default=0.0,
        help="reorder-buffer window in seconds: absorb out-of-order posts "
        "displaced up to this much (default 0 = no buffering)",
    )
    parser.add_argument(
        "--order-policy",
        choices=("drop", "clamp", "raise"),
        default="raise",
        help="posts arriving beyond --max-skew: drop (counted), clamp "
        "timestamps forward, or raise (default, the strict stream model)",
    )
    parser.add_argument(
        "--checkpoint-out",
        help="write a JSON snapshot of the pipeline state after the run "
        "(resume with --resume-from)",
    )
    parser.add_argument(
        "--resume-from",
        help="restore pipeline state from a --checkpoint-out snapshot "
        "before processing (its skew/policy settings take precedence)",
    )
    parser.add_argument(
        "--metrics-out",
        help="instrument the run and write a JSON metrics snapshot here "
        "(counters match the printed stats exactly)",
    )
    parser.add_argument(
        "--trace-out",
        help="write a sampled JSONL span log of per-post offer decisions "
        "(implies instrumentation)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="fraction of offer spans to record in --trace-out "
        "(seeded, deterministic across reruns; default 1.0 = all)",
    )
    return parser


def _print_supervision_summary(engine) -> None:
    """One stderr line of self-healing accounting, when supervised."""
    status_of = getattr(engine, "supervision_status", None)
    status = status_of() if callable(status_of) else None
    if status is None:
        return
    line = (
        f"supervision: {status['live_shards']}/{status['shards']} shards "
        f"live, {status['restarts']} restarts, "
        f"{status['checkpoints']} checkpoints, "
        f"{status['replayed_commands']} journal commands replayed"
    )
    if status["degraded_shards"]:
        line += (
            f"; shards {sorted(status['degraded_shards'])} degraded to "
            "in-parent serial"
        )
    print(line, file=sys.stderr)


def _storage_config(args):
    """A :class:`repro.storage.SpillConfig` from --spill-dir (or None)."""
    if not args.spill_dir:
        return None
    from .storage import SpillConfig

    return SpillConfig(args.spill_dir)


def _attach_governor(args, engine):
    """A :class:`repro.resilience.MemoryGovernor` from --memory-budget
    (or None). The CLI has no overload controller, so the ladder tops
    out at the probe rung."""
    if args.memory_budget is None:
        return None
    from .resilience import GovernorConfig, MemoryGovernor

    return MemoryGovernor(engine, GovernorConfig(budget_bytes=args.memory_budget))


def _print_governor_summary(governor) -> None:
    """One stderr line of memory-governor accounting, when attached."""
    if governor is None:
        return
    status = governor.status()
    print(
        f"memory: {status['total_bytes']:,}/{status['budget_bytes']:,} "
        f"accounted bytes, level {status['level']}, "
        f"{status['escalations']} escalations / {status['releases']} releases",
        file=sys.stderr,
    )


def _supervision_kwargs(args) -> dict:
    """Engine kwargs for the --supervise / --shard-deadline flags.

    ``make_multiuser`` and ``restore_engine`` take the same three
    keywords, so both construction paths share this translation."""
    if not args.supervise:
        return {"shard_deadline": args.shard_deadline}
    from .supervise import SupervisionConfig

    return {
        "supervised": True,
        "supervision": SupervisionConfig(
            heartbeat_interval=args.heartbeat_interval,
            deadline=args.shard_deadline,
            max_restarts=args.max_restarts,
        ),
        "shard_deadline": args.shard_deadline,
    }


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firehose serve",
        description=(
            "Serve diversified feeds over HTTP: POST /posts fans accepted "
            "posts out into bounded per-user mailboxes, GET /feed pages "
            "them with cursor pagination and an impression filter"
        ),
    )
    parser.add_argument("--graph", required=True, help="author graph.json")
    parser.add_argument(
        "--subscriptions", required=True, help="subscriptions.json"
    )
    parser.add_argument(
        "--algorithm",
        default="s_unibin",
        help="a multi-user engine name (m_*, s_*, p_*) or a bare algorithm "
        "(sharded p_* is picked); default s_unibin",
    )
    parser.add_argument(
        "--posts",
        help="preload this posts.jsonl through the write path before "
        "accepting traffic (mailboxes start warm)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="0 picks a free port"
    )
    parser.add_argument(
        "--mailbox-capacity",
        type=int,
        default=1024,
        help="max entries per user mailbox (oldest evicted past it)",
    )
    parser.add_argument(
        "--mailbox-window",
        type=float,
        help="stream-time seconds an entry stays servable (default: the "
        "engine window lambda-t)",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument(
        "--transport", choices=("auto", "shm", "pipe"), default="auto"
    )
    parser.add_argument("--supervise", action="store_true")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    parser.add_argument("--max-restarts", type=int, default=3)
    parser.add_argument("--shard-deadline", type=float, default=120.0)
    parser.add_argument(
        "--memory-budget",
        type=int,
        help="accounted-byte budget for the memory governor (mailbox bytes "
        "join the engine windows in the same budget)",
    )
    parser.add_argument("--spill-dir", help="tiered window spill directory")
    parser.add_argument(
        "--max-delay",
        type=float,
        help="ingest backlog (seconds) past which POST /posts sheds with "
        "429 + Retry-After; omit to never shed",
    )
    parser.add_argument(
        "--shed-policy", choices=("drop", "passthrough"), default="drop"
    )
    parser.add_argument(
        "--wal-dir",
        help="turn on crash-safe durability: write-ahead log + rolling "
        "snapshots in this directory (see docs/operations.md)",
    )
    parser.add_argument(
        "--snapshot-interval",
        type=int,
        default=1024,
        help="logged records between rolling snapshots (bounds WAL replay)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="replay snapshot + WAL tail from --wal-dir before serving "
        "(required when the directory already holds state)",
    )
    parser.add_argument(
        "--fsync",
        choices=("always", "interval", "never"),
        default="interval",
        help="WAL fsync policy: always = every append survives power "
        "loss; interval = group commit (default); never = test only",
    )
    parser.add_argument(
        "--fsync-interval",
        type=int,
        default=64,
        help="appends per group commit under --fsync interval",
    )
    parser.add_argument(
        "--keep-snapshots",
        type=int,
        default=2,
        help=">= 2 lets recovery fall back past a corrupt newest snapshot",
    )
    parser.add_argument(
        "--dedup-window",
        type=int,
        default=1024,
        help="most-recent idempotency keys remembered for exactly-once "
        "POST /posts retries",
    )
    parser.add_argument(
        "--retry-jitter",
        type=float,
        default=0.0,
        help="spread 429 Retry-After by up to this fraction (0.25 = +25%%) "
        "so shed clients do not retry in lockstep",
    )
    parser.add_argument(
        "--jitter-seed",
        type=int,
        help="seed the Retry-After jitter RNG (reproducible backoff)",
    )
    parser.add_argument(
        "--request-deadline",
        type=float,
        help="per-request time budget in seconds; an overrunning handler "
        "answers 504 (retry with the same idempotency key)",
    )
    parser.add_argument("--lambda-c", type=int, default=18, help="content bits")
    parser.add_argument("--lambda-t", type=float, default=1800.0, help="seconds")
    parser.add_argument("--lambda-a", type=float, default=0.7, help="author distance")
    return parser


def _run_serve(argv: list[str]) -> int:
    import signal
    import threading

    from .core import ALGORITHMS, Thresholds
    from .feed import FeedService, MailboxConfig
    from .io import read_graph_json, read_posts_jsonl, read_subscriptions_json
    from .multiuser import MULTIUSER_NAMES, PARALLEL_NAMES, make_multiuser
    from .obs import Registry
    from .service import DiversificationService

    args = _serve_parser().parse_args(argv)
    name = args.algorithm
    if name in ALGORITHMS:
        name = f"p_{name}"
    if name not in MULTIUSER_NAMES + PARALLEL_NAMES:
        print(
            f"unknown multi-user algorithm {args.algorithm!r}; choose a bare "
            f"algorithm ({', '.join(ALGORITHMS)}) or one of "
            f"{MULTIUSER_NAMES + PARALLEL_NAMES}",
            file=sys.stderr,
        )
        return 2
    thresholds = Thresholds(
        lambda_c=args.lambda_c, lambda_t=args.lambda_t, lambda_a=args.lambda_a
    )
    graph = read_graph_json(args.graph)
    subscriptions = read_subscriptions_json(args.subscriptions)
    engine = make_multiuser(
        name,
        thresholds,
        graph,
        subscriptions,
        workers=args.workers,
        batch_size=args.batch_size,
        storage=_storage_config(args),
        transport=args.transport,
        **_supervision_kwargs(args),
    )
    overload = None
    if args.max_delay is not None:
        from .resilience import OverloadController

        overload = OverloadController(
            max_delay=args.max_delay, policy=args.shed_policy
        )
    service = DiversificationService(engine, overload=overload)
    governor = _attach_governor(args, engine)
    service.governor = governor
    if governor is not None and overload is not None:
        governor.overload = overload
    window = (
        args.mailbox_window if args.mailbox_window is not None else args.lambda_t
    )
    durability = None
    if args.wal_dir:
        import json as _json
        import os as _os
        from pathlib import Path as _Path

        from .feed import DurabilityConfig
        from .resilience import FeedFaultPlan

        wal_dir = _Path(args.wal_dir)
        has_state = wal_dir.is_dir() and any(wal_dir.iterdir())
        if has_state and not args.recover:
            print(
                f"{wal_dir} already holds WAL/snapshot state; pass --recover "
                "to replay it (or point --wal-dir at an empty directory)",
                file=sys.stderr,
            )
            return 2
        fault_plan = None
        plan_json = _os.environ.get("REPRO_FEED_FAULT_PLAN")
        if plan_json:
            fault_plan = FeedFaultPlan.from_dict(_json.loads(plan_json))
        durability = DurabilityConfig(
            wal_dir=wal_dir,
            snapshot_every=args.snapshot_interval,
            fsync=args.fsync,
            fsync_interval=args.fsync_interval,
            keep_snapshots=args.keep_snapshots,
            dedup_window=args.dedup_window,
            fault_plan=fault_plan,
        )
    elif args.recover:
        print("--recover needs --wal-dir", file=sys.stderr)
        return 2
    feed = FeedService(
        service,
        mailboxes=MailboxConfig(capacity=args.mailbox_capacity, window=window),
        durability=durability,
        retry_jitter=args.retry_jitter,
        jitter_seed=args.jitter_seed,
    )
    service.bind_metrics(Registry())
    feed.bind_metrics()

    if args.recover:
        report = feed.recover()
        print(
            "recovered from {snap}: replayed {records} WAL records over "
            "{segments} segment(s), {torn} torn bytes truncated, "
            "{skipped} snapshot(s) skipped, {secs:.3f}s".format(
                snap=report.used_snapshot or "empty state",
                records=report.records_total,
                segments=report.segments_replayed,
                torn=report.torn_bytes,
                skipped=len(report.snapshots_skipped),
                secs=report.duration_seconds,
            ),
            file=sys.stderr,
        )

    if args.posts:
        summary = feed.replay(read_posts_jsonl(args.posts))
        print(
            f"preloaded {summary['accepted']} posts "
            f"({summary['shed']} shed, {summary['deliveries']} deliveries)",
            file=sys.stderr,
        )

    # Handlers go in before the banner: the banner is the "ready" signal
    # supervisors key on, so a SIGTERM raced right after it must already
    # land on the graceful path, not the default (no-flush) death.
    stopping = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stopping.set())

    server = feed.serve(
        host=args.host, port=args.port, request_deadline=args.request_deadline
    )
    host, port = server.address
    print(
        f"{engine.name}: serving feeds on http://{host}:{port} "
        f"({len(feed.store.users)} users)",
        flush=True,
    )
    # A timed wait in a loop, never a bare wait(): the kernel may hand the
    # signal to a request thread, and the Python-level handler runs only
    # when the main thread next executes bytecode — which a main thread
    # parked on a lock without a timeout never does. A signal that does
    # land on the main thread still interrupts the wait at once.
    while not stopping.wait(0.1):
        pass
    server.stop()
    # The shutdown flush is load-bearing: SIGTERM must leave a complete
    # final snapshot + fsync'd WAL, and a failed flush must be *loud* —
    # exiting zero here would report durable state that does not exist.
    flush_error: Exception | None = None
    try:
        feed.close()
    except Exception as error:  # noqa: BLE001 - any flush failure is fatal
        flush_error = error
        print(f"durability flush FAILED on shutdown: {error}", file=sys.stderr)
    stats = feed.stats()
    print(
        "feed: {received} posts received ({processed} processed, {shed} "
        "shed, {deduped} deduplicated), {deliveries} deliveries to {boxes} "
        "mailboxes; {reads} reads served {served} entries "
        "({filtered} impression-filtered)".format(
            received=stats["posts"]["received"],
            processed=stats["posts"]["processed"],
            shed=stats["posts"]["shed"],
            deduped=stats["posts"]["deduped"],
            deliveries=stats["deliveries"],
            boxes=stats["mailboxes"]["materialized"],
            reads=stats["reads"]["count"],
            served=stats["reads"]["entries_served"],
            filtered=stats["reads"]["entries_filtered"],
        )
    )
    durable = stats.get("durability")
    if durable is not None:
        state = "FLUSH FAILED" if flush_error is not None else "flushed clean"
        print(
            "durability: {state}; {records} WAL records "
            "({fsyncs} fsyncs, segment {segment}), {snaps} snapshot(s) "
            "written ({fails} failed), {hits} idempotent retries "
            "answered".format(
                state=state,
                records=durable["wal"]["records_total"],
                fsyncs=durable["wal"]["fsyncs_total"],
                segment=durable["wal"]["segment"],
                snaps=durable["snapshots"]["taken"],
                fails=durable["snapshots"]["failures"],
                hits=durable["dedup"]["hits"],
            )
        )
    _print_supervision_summary(engine)
    _print_governor_summary(governor)
    return 1 if flush_error is not None else 0


def _generate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firehose generate",
        description="Generate a synthetic trace (posts/graph/subscriptions)",
    )
    parser.add_argument("--out-dir", required=True, help="output directory")
    parser.add_argument("--scale", choices=SCALES, default="small")
    parser.add_argument(
        "--lambda-a",
        type=float,
        default=0.7,
        help="author-distance threshold the exported graph is cut at",
    )
    parser.add_argument(
        "--churn-rate",
        type=float,
        default=0.05,
        help="mean follow/unfollow events per post in the exported mixed "
        "events.jsonl (0 disables the dynamic-mode files)",
    )
    return parser


def _run_diversify(argv: list[str]) -> int:
    from .core import Thresholds, make_diversifier
    from .io import post_to_dict, read_graph_json, read_posts_jsonl
    from .resilience import (
        Quarantine,
        ResilientIngest,
        load_checkpoint,
        save_checkpoint,
    )

    args = _diversify_parser().parse_args(argv)
    if bool(args.posts) == bool(args.events):
        print("pass exactly one of --posts or --events", file=sys.stderr)
        return 2
    if args.events:
        return _run_diversify_events(args)
    if args.subscriptions:
        return _run_diversify_multiuser(args)
    if args.workers != 1 or args.supervise:
        print(
            "--workers/--supervise apply to the multi-user sharded engine; "
            "pass --subscriptions to enable them",
            file=sys.stderr,
        )
        return 2
    thresholds = Thresholds(
        lambda_c=args.lambda_c, lambda_t=args.lambda_t, lambda_a=args.lambda_a
    )
    graph = read_graph_json(args.graph) if args.graph else None
    sink = Quarantine()
    if args.resume_from:
        if args.spill_dir:
            print(
                "note: --spill-dir is ignored with --resume-from; the "
                "checkpointed engine keeps its windows in memory",
                file=sys.stderr,
            )
        pipeline = ResilientIngest.restore(
            load_checkpoint(args.resume_from), graph=graph, quarantine=sink
        )
        resumed_name = getattr(pipeline.engine, "name", None)
        if resumed_name is not None and resumed_name != args.algorithm:
            print(
                f"note: resuming {resumed_name!r} from {args.resume_from}; "
                f"--algorithm {args.algorithm!r} ignored",
                file=sys.stderr,
            )
    else:
        diversifier = make_diversifier(
            args.algorithm, thresholds, graph, storage=_storage_config(args)
        )
        pipeline = ResilientIngest(
            diversifier,
            max_skew=args.max_skew,
            late_policy=args.order_policy,
            quarantine=sink,
        )
    governor = _attach_governor(args, pipeline.engine)

    registry = None
    tracer = None
    if args.metrics_out or args.trace_out:
        from . import simhash
        from .obs import OfferTracer, Registry, write_json_snapshot

        registry = Registry()
        if args.trace_out:
            tracer = OfferTracer(args.trace_out, sample=args.trace_sample)
        # Bind after any restore so callbacks see the live engine objects.
        pipeline.bind_metrics(registry, tracer=tracer)
        simhash.enable_metrics(registry)

    out_handle = open(args.output, "w", encoding="utf-8") if args.output else None
    try:
        import json

        def emit(events):
            for event in events:
                if event.admitted and out_handle is not None:
                    out_handle.write(
                        json.dumps(post_to_dict(event.post), sort_keys=True)
                    )
                    out_handle.write("\n")

        for post in read_posts_jsonl(
            args.posts, on_error=args.on_error, quarantine=sink
        ):
            emit(pipeline.ingest(post))
            if governor is not None:
                governor.observe()
        emit(pipeline.flush())
    finally:
        if out_handle is not None:
            out_handle.close()

    stats = (
        pipeline.engine.stats
        if not pipeline.is_multiuser
        else pipeline.engine.aggregate_stats()
    )
    print(
        f"{pipeline.engine.name}: {stats.posts_admitted}/{stats.posts_processed} "
        f"posts kept ({100 * (1 - stats.retention_ratio):.1f}% pruned); "
        f"{stats.comparisons:,} comparisons, {stats.insertions:,} insertions"
    )
    _print_governor_summary(governor)
    reorder = pipeline.reorder.counters
    if reorder.reordered or reorder.late_dropped or reorder.late_clamped:
        print(
            f"reorder: {reorder.reordered} out-of-order absorbed, "
            f"{reorder.late_dropped} dropped late, "
            f"{reorder.late_clamped} clamped late "
            f"(peak buffer {reorder.peak_buffered})"
        )
    if len(sink):
        print(
            f"quarantined {len(sink)} records: "
            + ", ".join(f"{r}={c}" for r, c in sorted(sink.by_reason.items()))
        )
    if args.quarantine_out:
        written = sink.write_jsonl(args.quarantine_out)
        print(f"dead-letter file written to {args.quarantine_out} ({written} records)")
    if args.checkpoint_out:
        save_checkpoint(pipeline.checkpoint(), args.checkpoint_out)
        print(f"checkpoint written to {args.checkpoint_out}")
    if registry is not None:
        from . import simhash

        simhash.disable_metrics()
        if args.metrics_out:
            write_json_snapshot(registry, args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
        if tracer is not None:
            tracer.close()
            print(
                f"trace written to {args.trace_out} "
                f"({tracer.spans_written}/{tracer.spans_seen} spans)"
            )
    if args.output:
        print(f"diversified trace written to {args.output}")
    return 0


def _run_diversify_events(args) -> int:
    """Dynamic mode of ``diversify``: consume a mixed post/follow/unfollow
    trace, deriving (and live-migrating) the author graph from the follow
    relation. Single-engine without --subscriptions, multi-user with."""
    import json

    from .core import ALGORITHMS, Post, Thresholds
    from .dynamic import DynamicDiversifier, FollowEvent, UnfollowEvent, read_events_jsonl
    from .io import post_to_dict, read_friends_json, read_subscriptions_json
    from .multiuser import make_multiuser
    from .resilience import (
        Quarantine,
        load_checkpoint,
        restore_engine,
        save_checkpoint,
        snapshot_engine,
    )

    if not args.friends:
        print("--events requires --friends (the initial follow relation)", file=sys.stderr)
        return 2
    if args.graph:
        print(
            "note: --graph is ignored with --events; the graph is derived "
            "from --friends and the event stream",
            file=sys.stderr,
        )
    if args.max_skew or args.trace_out:
        print(
            "--max-skew and --trace-out are single-user pipeline features; "
            "dynamic mode streams strictly ordered events",
            file=sys.stderr,
        )
        return 2
    if args.supervise and not args.subscriptions:
        print(
            "--supervise applies to the multi-user sharded engine; "
            "pass --subscriptions to enable it",
            file=sys.stderr,
        )
        return 2
    if args.spill_dir or args.memory_budget is not None:
        print(
            "--spill-dir/--memory-budget are static-topology features; "
            "dynamic mode rewrites bins wholesale on churn and keeps its "
            "windows in memory",
            file=sys.stderr,
        )
        return 2
    thresholds = Thresholds(
        lambda_c=args.lambda_c, lambda_t=args.lambda_t, lambda_a=args.lambda_a
    )
    friends = read_friends_json(args.friends)
    subscriptions = (
        read_subscriptions_json(args.subscriptions) if args.subscriptions else None
    )
    sink = Quarantine()

    if args.resume_from:
        engine = restore_engine(
            load_checkpoint(args.resume_from),
            subscriptions=subscriptions,
            # --workers > 1 re-shards the restored engine; otherwise the
            # checkpointed pool size is kept.
            workers=args.workers if args.workers > 1 else None,
            **_supervision_kwargs(args),
        )
        print(
            f"note: resuming {engine.name!r} from {args.resume_from}; "
            "--algorithm and the friends file come from the checkpoint",
            file=sys.stderr,
        )
    elif subscriptions is None:
        if args.algorithm not in ALGORITHMS:
            print(
                f"unknown algorithm {args.algorithm!r}; dynamic single-user "
                f"mode takes one of {tuple(ALGORITHMS)}",
                file=sys.stderr,
            )
            return 2
        engine = DynamicDiversifier(args.algorithm, thresholds, friends)
    else:
        name = args.algorithm
        if name in ALGORITHMS:
            name = f"p_{name}"  # bare algorithm → workers decide the layout
        try:
            engine = make_multiuser(
                name,
                thresholds,
                None,
                subscriptions,
                workers=args.workers,
                batch_size=args.batch_size,
                dynamic=True,
                friends=friends,
                **_supervision_kwargs(args),
            )
        except Exception as exc:
            print(str(exc), file=sys.stderr)
            return 2

    registry = None
    if args.metrics_out:
        from . import simhash
        from .obs import Registry

        registry = Registry()
        engine.bind_metrics(registry)
        simhash.enable_metrics(registry)

    multiuser = subscriptions is not None
    deliveries = 0
    admitted = 0
    out_handle = open(args.output, "w", encoding="utf-8") if args.output else None
    try:
        chunk: list[Post] = []

        def drain() -> None:
            nonlocal deliveries, admitted
            if not chunk:
                return
            if multiuser:
                for post, receivers in zip(chunk, engine.offer_batch(chunk)):
                    deliveries += len(receivers)
                    if receivers and out_handle is not None:
                        record = post_to_dict(post)
                        record["receivers"] = sorted(receivers)
                        out_handle.write(json.dumps(record, sort_keys=True))
                        out_handle.write("\n")
            else:
                for post in chunk:
                    if engine.offer(post):
                        admitted += 1
                        if out_handle is not None:
                            out_handle.write(
                                json.dumps(post_to_dict(post), sort_keys=True)
                            )
                            out_handle.write("\n")
            chunk.clear()

        for event in read_events_jsonl(
            args.events, on_error=args.on_error, quarantine=sink
        ):
            if isinstance(event, (FollowEvent, UnfollowEvent)):
                drain()
                engine.apply(event)
            else:
                chunk.append(event)
                if len(chunk) >= args.batch_size:
                    drain()
        drain()

        stats = engine.aggregate_stats() if multiuser else engine.stats
        counts = engine.event_counts
        print(
            f"{engine.name}: {counts['post']} posts, {counts['follow']} follows, "
            f"{counts['unfollow']} unfollows; graph version "
            f"{engine.graph_version} ({engine.migrations} migrations)"
        )
        if multiuser:
            print(
                f"{stats.posts_admitted}/{stats.posts_processed} instance "
                f"offers admitted; {deliveries:,} deliveries to "
                f"{len(subscriptions)} users; {stats.comparisons:,} "
                f"comparisons, {stats.insertions:,} insertions"
            )
            _print_supervision_summary(engine)
        else:
            print(
                f"{stats.posts_admitted}/{stats.posts_processed} posts kept; "
                f"{stats.comparisons:,} comparisons, "
                f"{stats.insertions:,} insertions"
            )
        if len(sink):
            print(
                f"quarantined {len(sink)} records: "
                + ", ".join(f"{r}={c}" for r, c in sorted(sink.by_reason.items()))
            )
        if args.quarantine_out:
            written = sink.write_jsonl(args.quarantine_out)
            print(
                f"dead-letter file written to {args.quarantine_out} "
                f"({written} records)"
            )
        if args.checkpoint_out:
            save_checkpoint(snapshot_engine(engine), args.checkpoint_out)
            print(f"checkpoint written to {args.checkpoint_out}")
        if registry is not None:
            from . import simhash
            from .obs import write_json_snapshot

            simhash.disable_metrics()
            write_json_snapshot(registry, args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
        if args.output:
            kind = "receiver trace" if multiuser else "diversified trace"
            print(f"{kind} written to {args.output}")
    finally:
        if out_handle is not None:
            out_handle.close()
        if hasattr(engine, "close"):
            engine.close()
    return 0


def _run_diversify_multiuser(args) -> int:
    """Multi-user mode of ``diversify``: route every post to the users who
    receive it, through a serial (m_*/s_*) or sharded parallel (p_*)
    engine, batching posts to amortize per-offer — and, with workers > 1,
    IPC — overhead."""
    import json

    from .core import ALGORITHMS, Thresholds
    from .io import (
        post_to_dict,
        read_graph_json,
        read_posts_jsonl,
        read_subscriptions_json,
    )
    from .multiuser import MULTIUSER_NAMES, PARALLEL_NAMES, make_multiuser
    from .resilience import (
        Quarantine,
        load_checkpoint,
        restore_engine,
        save_checkpoint,
        snapshot_engine,
    )

    if not args.graph:
        print("multi-user mode requires --graph", file=sys.stderr)
        return 2
    if args.max_skew or args.trace_out:
        print(
            "--max-skew and --trace-out are single-user pipeline features; "
            "multi-user mode streams strictly ordered posts",
            file=sys.stderr,
        )
        return 2
    thresholds = Thresholds(
        lambda_c=args.lambda_c, lambda_t=args.lambda_t, lambda_a=args.lambda_a
    )
    graph = read_graph_json(args.graph)
    subscriptions = read_subscriptions_json(args.subscriptions)
    sink = Quarantine()

    if args.resume_from:
        if args.spill_dir:
            print(
                "note: --spill-dir is ignored with --resume-from; the "
                "checkpointed engine keeps its windows in memory",
                file=sys.stderr,
            )
        snap = load_checkpoint(args.resume_from)
        if snap.get("kind") == "pipeline":
            snap = snap["engine"]
        engine = restore_engine(
            snap,
            graph=graph,
            subscriptions=subscriptions,
            **_supervision_kwargs(args),
        )
        print(
            f"note: resuming {engine.name!r} from {args.resume_from}; "
            "--algorithm/--workers come from the checkpoint",
            file=sys.stderr,
        )
    else:
        name = args.algorithm
        if name in ALGORITHMS:
            name = f"p_{name}"  # bare algorithm → sharded engine
        if name not in MULTIUSER_NAMES + PARALLEL_NAMES:
            print(
                f"unknown multi-user algorithm {args.algorithm!r}; choose a "
                f"bare algorithm ({', '.join(ALGORITHMS)}) or one of "
                f"{MULTIUSER_NAMES + PARALLEL_NAMES}",
                file=sys.stderr,
            )
            return 2
        if args.workers > 1 and not name.startswith("p_"):
            print(
                f"--workers {args.workers} needs the sharded engine; use a "
                f"bare algorithm name or p_* (got {name!r})",
                file=sys.stderr,
            )
            return 2
        engine = make_multiuser(
            name,
            thresholds,
            graph,
            subscriptions,
            workers=args.workers,
            batch_size=args.batch_size,
            storage=_storage_config(args),
            transport=args.transport,
            **_supervision_kwargs(args),
        )
    governor = _attach_governor(args, engine)

    registry = None
    if args.metrics_out:
        from . import simhash
        from .obs import Registry

        registry = Registry()
        engine.bind_metrics(registry)
        simhash.enable_metrics(registry)

    deliveries = 0
    out_handle = open(args.output, "w", encoding="utf-8") if args.output else None
    try:
        chunk: list = []

        def drain() -> None:
            nonlocal deliveries
            for post, receivers in zip(chunk, engine.offer_batch(chunk)):
                deliveries += len(receivers)
                if receivers and out_handle is not None:
                    record = post_to_dict(post)
                    record["receivers"] = sorted(receivers)
                    out_handle.write(json.dumps(record, sort_keys=True))
                    out_handle.write("\n")
            if governor is not None and chunk:
                governor.observe(len(chunk))
            chunk.clear()

        for post in read_posts_jsonl(
            args.posts, on_error=args.on_error, quarantine=sink
        ):
            chunk.append(post)
            if len(chunk) >= args.batch_size:
                drain()
        drain()

        stats = engine.aggregate_stats()
        print(
            f"{engine.name}: {stats.posts_admitted}/{stats.posts_processed} "
            f"instance offers admitted; {deliveries:,} deliveries to "
            f"{len(subscriptions)} users; {stats.comparisons:,} comparisons, "
            f"{stats.insertions:,} insertions"
        )
        if hasattr(engine, "shard_count"):
            print(
                f"shards: {engine.shard_count()} "
                f"(imbalance {engine.shard_imbalance():.3f}, "
                f"sharing ratio {engine.sharing_ratio():.3f})"
            )
        _print_supervision_summary(engine)
        _print_governor_summary(governor)
        if len(sink):
            print(
                f"quarantined {len(sink)} records: "
                + ", ".join(f"{r}={c}" for r, c in sorted(sink.by_reason.items()))
            )
        if args.quarantine_out:
            written = sink.write_jsonl(args.quarantine_out)
            print(
                f"dead-letter file written to {args.quarantine_out} "
                f"({written} records)"
            )
        if args.checkpoint_out:
            save_checkpoint(snapshot_engine(engine), args.checkpoint_out)
            print(f"checkpoint written to {args.checkpoint_out}")
        if registry is not None:
            from . import simhash
            from .obs import write_json_snapshot

            simhash.disable_metrics()
            write_json_snapshot(registry, args.metrics_out)
            print(f"metrics snapshot written to {args.metrics_out}")
        if args.output:
            print(f"receiver trace written to {args.output}")
    finally:
        if out_handle is not None:
            out_handle.close()
        if hasattr(engine, "close"):
            engine.close()
    return 0


def _run_generate(argv: list[str]) -> int:
    from .eval import default_dataset
    from .io import (
        write_friends_json,
        write_graph_json,
        write_posts_jsonl,
        write_subscriptions_json,
    )

    args = _generate_parser().parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = default_dataset(args.scale)
    count = write_posts_jsonl(dataset.posts, out_dir / "posts.jsonl")
    write_graph_json(dataset.graph(args.lambda_a), out_dir / "graph.json")
    write_subscriptions_json(dataset.subscriptions(), out_dir / "subscriptions.json")
    print(
        f"wrote {count} posts, the lambda_a={args.lambda_a} author graph and "
        f"the subscription table to {out_dir}/"
    )
    if args.churn_rate > 0:
        from .dynamic import write_events_jsonl
        from .social import ChurnConfig, interleave_churn

        # Dynamic-mode inputs: followees restricted to the sampled author
        # universe (the relation the similarity graph is derived from).
        sampled = set(dataset.authors)
        friends = {
            author: dataset.network.followees[author] & sampled
            for author in dataset.authors
        }
        write_friends_json(friends, out_dir / "friends.json")
        events = write_events_jsonl(
            interleave_churn(
                dataset.posts, friends, ChurnConfig(rate=args.churn_rate)
            ),
            out_dir / "events.jsonl",
        )
        print(
            f"wrote the follow relation and a mixed event trace "
            f"({events - count} churn events at rate {args.churn_rate}) "
            f"for dynamic mode"
        )
    return 0


def _experiments_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firehose experiments",
        description=(
            "Run a scenario-matrix experiment (adversarial workloads x "
            "engine variants) and maintain the perf trajectory store"
        ),
    )
    parser.add_argument(
        "--matrix",
        default="smoke",
        help="a registered matrix name or a JSON grid file (default: smoke)",
    )
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--html", help="write a self-contained HTML report here")
    parser.add_argument(
        "--seed",
        type=int,
        help="override every scenario row's seed (same seed, same digests)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        help="override the per-trial timeout in seconds",
    )
    parser.add_argument(
        "--trajectory",
        default="BENCH_trajectory.json",
        help="the trajectory store file (default: BENCH_trajectory.json)",
    )
    parser.add_argument(
        "--label",
        default="current",
        help="trajectory entry label for --append/--check (one per PR)",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="append (or refresh) this run's entry in the trajectory store",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate this run against the last committed trajectory entry; "
        "a regressed metric is named and exits non-zero",
    )
    parser.add_argument(
        "--legacy-root",
        help="directory holding the legacy BENCH_*.json baselines to fold "
        "into the entry (default: the trajectory file's directory)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_registry",
        help="list registered scenarios and matrices, then exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-cell progress lines on stderr",
    )
    return parser


def _run_experiments(argv: list[str]) -> int:
    import dataclasses

    from .errors import ExperimentError, TrajectoryRegressionError
    from .experiments import (
        MATRICES,
        append_entry,
        check_regression,
        load_trajectory,
        make_entry,
        report_dict,
        resolve_matrix,
        run_matrix,
        scenario_help,
        write_html_report,
        write_json_report,
        write_trajectory,
    )

    args = _experiments_parser().parse_args(argv)
    if args.list_registry:
        print("scenarios:")
        for name, line in scenario_help().items():
            print(f"  {name:<12} {line}")
        print("matrices:")
        for name, spec in MATRICES.items():
            print(
                f"  {name:<12} {spec.cells} cells "
                f"({len(spec.scenarios)} scenarios x {len(spec.engines)} "
                f"engines) — {spec.description}"
            )
        return 0

    try:
        spec = resolve_matrix(args.matrix)
    except ExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    replacements: dict[str, object] = {}
    if args.seed is not None:
        replacements["scenarios"] = tuple(
            dataclasses.replace(s, seed=args.seed) for s in spec.scenarios
        )
    if args.timeout is not None:
        replacements["timeout_s"] = args.timeout
    if replacements:
        spec = dataclasses.replace(spec, **replacements)

    progress = None if args.quiet else (lambda line: print(line, file=sys.stderr))
    result = run_matrix(spec, progress=progress)

    counts = result.counts()
    print(
        f"matrix {spec.name}: {'PASS' if result.ok else 'FAIL'} — "
        + ", ".join(f"{v} {k}" for k, v in counts.items() if v)
        + f"; {len(result.cross_checks)} cross-check groups, "
        f"{sum(1 for c in result.cross_checks if not c['ok'])} disagreements "
        f"({result.duration_s:.2f}s)"
    )
    for check in result.cross_checks:
        if not check["ok"]:
            print(
                f"cross-check FAIL: {check['scenario']} / {check['algorithm']} "
                f"— {len(check['digests'])} distinct digests across "
                f"{', '.join(check['engines'])}",
                file=sys.stderr,
            )
    for trial in result.trials:
        if trial.status == "crash":
            last = (trial.error or "").strip().splitlines()
            print(
                f"crash: {trial.scenario} x {trial.engine}: "
                f"{last[-1] if last else 'unknown'}",
                file=sys.stderr,
            )
    if args.out:
        write_json_report(result, args.out)
        print(f"report written to {args.out}")
    if args.html:
        write_html_report(result, args.html)
        print(f"HTML report written to {args.html}")

    exit_code = 0 if result.ok else 1
    if args.append or args.check:
        trajectory_path = Path(args.trajectory)
        legacy_root = Path(args.legacy_root) if args.legacy_root else (
            trajectory_path.parent if str(trajectory_path.parent) else Path(".")
        )
        try:
            history = load_trajectory(trajectory_path)
        except ExperimentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        entry = make_entry(args.label, result=result, root=legacy_root)
        if args.check:
            try:
                compared = check_regression(history, entry)
            except TrajectoryRegressionError as exc:
                print(f"trajectory check FAIL: {exc}", file=sys.stderr)
                exit_code = 1
            else:
                print(
                    f"trajectory check PASS: {len(compared)} metrics within "
                    "tolerance of the last committed entry"
                )
        if args.append:
            write_trajectory(append_entry(history, entry), trajectory_path)
            print(
                f"trajectory entry {args.label!r} written to {trajectory_path} "
                f"({len(entry['metrics'])} metrics)"
            )
    elif args.label != "current":
        print(
            "note: --label only matters with --append/--check", file=sys.stderr
        )
    return exit_code


def _report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firehose report",
        description="Regenerate the full evaluation as one markdown report",
    )
    parser.add_argument("--output", help="write markdown here (default: stdout)")
    parser.add_argument("--scale", choices=SCALES, default="medium")
    parser.add_argument(
        "--only",
        nargs="*",
        help="experiment ids to include (default: everything)",
    )
    return parser


def _run_report(argv: list[str]) -> int:
    from .eval import generate_report

    args = _report_parser().parse_args(argv)
    markdown = generate_report(scale=args.scale, experiment_ids=args.only)
    if args.output:
        Path(args.output).write_text(markdown, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(markdown)
    return 0


def _all_runners() -> dict[str, object]:
    runners: dict[str, object] = dict(EXPERIMENTS)
    runners.update(ABLATIONS)
    return runners


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "diversify":
        return _run_diversify(argv[1:])
    if argv and argv[0] == "generate":
        return _run_generate(argv[1:])
    if argv and argv[0] == "report":
        return _run_report(argv[1:])
    if argv and argv[0] == "experiments":
        return _run_experiments(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])

    args = _experiment_parser().parse_args(argv)
    runners = _all_runners()

    if args.experiment == "list":
        print("available experiments:")
        for name in runners:
            print(f"  {name}")
        print(
            "other commands: diversify, generate, report, experiments, "
            "serve (see --help on each)"
        )
        return 0

    if args.experiment == "all":
        for name, runner in runners.items():
            print(runner(args.scale).render())  # type: ignore[operator]
            print()
        return 0

    runner = runners.get(args.experiment)
    if runner is None:
        print(
            f"unknown experiment {args.experiment!r}; run 'list' to see "
            "available ids",
            file=sys.stderr,
        )
        return 2
    print(runner(args.scale).render())  # type: ignore[operator]
    return 0


if __name__ == "__main__":
    sys.exit(main())
