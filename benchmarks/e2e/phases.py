"""The phase script against a real `repro serve` subprocess.

`run_normal` is the whole life of a post, end to end: spawn -> banner
(``setup_s``), untimed warm-up, the four timed phases in two interleaved
passes, a verifying sweep of the sampled readers, the one rolling
snapshot and a fixed WAL tail, SIGKILL, then ``--recover`` on copies of
the crashed WAL directory (``recover_s``), the same sweep plus one
retried idempotency key, and SIGTERM (``shutdown_s``). Every reply and
every counter the server reports is checked against the script.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path

import driver
from reference import Script
from workloads import PHASES, World, get_op

#: spawn -> banner is timed this many times per run (median reported);
#: so are SIGKILL -> --recover -> banner and SIGTERM -> exit.
SETUPS = 3
RECOVERIES = 3


# -- world files and server flags -------------------------------------------


def write_world(world: World, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    graph = {"nodes": world.nodes, "edges": sorted(sorted(e) for e in world.edges)}
    (run_dir / "graph.json").write_text(json.dumps(graph))
    subscriptions = {str(u): sorted(a) for u, a in world.subscriptions.items()}
    (run_dir / "subscriptions.json").write_text(json.dumps(subscriptions))


def serve_args(world: World, script: Script, run_dir: Path, tag: str) -> list[str]:
    """`repro serve` flags for ``world``; ``tag`` names this server's own
    WAL (and spill) directory under ``run_dir``."""
    w = world.workload
    args = [
        "--graph", str(run_dir / "graph.json"),
        "--subscriptions", str(run_dir / "subscriptions.json"),
        "--algorithm", w.algorithm,
        "--lambda-c", str(w.lambda_c),
        "--lambda-t", str(w.lambda_t),
        "--lambda-a", str(w.lambda_a),
        "--mailbox-capacity", str(w.mailbox_capacity),
        "--mailbox-window", str(w.lambda_t * w.mailbox_windows),
        "--wal-dir", str(run_dir / f"wal-{tag}"),
        "--fsync", "interval",
        "--snapshot-interval", str(script.snapshot_interval),
        *w.serve_flags,
    ]  # fmt: skip
    if w.memory_budget is not None:
        args += [
            "--spill-dir", str(run_dir / f"spill-{tag}"),
            "--memory-budget", str(w.memory_budget),
        ]  # fmt: skip
    return args


# -- scraping ---------------------------------------------------------------


def fetch_json(port: int, path: str) -> dict:
    body = driver.reply_body(driver.exchange(port, get_op(path).request))
    return json.loads(body) if body else {}


def metric_samples(snapshot: dict, name: str) -> list[dict]:
    for family in snapshot.get("metrics", []):
        if family.get("name") == name:
            return family.get("samples", [])
    return []


def metric_total(snapshot: dict, name: str) -> float:
    return sum(s.get("value", 0.0) for s in metric_samples(snapshot, name))


# -- the normal (untraced) run -----------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_posts_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("read_pages_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("mixed_ops_per_s", "1/s"),
    ("ingest_cpu_ms_per_post", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("recover_s", "s"),
    ("shutdown_s", "s"),
)


class Checks:
    """Correctness checks that are not a single reply: each is one op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")


def governor_level(port: int) -> int | None:
    """The memory governor's rung (0 normal, 1 spill, 2 probe, 3 shed)."""
    samples = metric_samples(fetch_json(port, "/metrics.json"), "repro_memory_governor_level")
    return int(samples[0]["value"]) if samples else None


def check_stats(checks: Checks, stats: dict, script: Script, *, recovered: bool) -> None:
    """`/feed/stats` against the script's exact accounting."""
    posts = stats.get("posts", {})
    durable = stats.get("durability") or {}
    wal = durable.get("wal", {})
    by_type = wal.get("records_by_type", {})
    deduped = 1 if recovered else 0
    checks.expect("posts.processed", posts.get("processed"), script.posts)
    checks.expect("posts.received", posts.get("received"), script.posts + deduped)
    checks.expect("posts.shed", posts.get("shed"), 0)
    checks.expect("posts.deduped", posts.get("deduped"), deduped)
    checks.expect("deliveries", stats.get("deliveries"), script.deliveries)
    checks.expect("wal post records", by_type.get("post"), script.posts)
    checks.expect("wal expire records", by_type.get("expire"), script.expiries)
    checks.expect("wal impression records", by_type.get("impressions"), script.impressions)
    if recovered:
        replayed = (durable.get("recovery") or {}).get("records_total")
        checks.expect("recovery.records_total", replayed, script.tail_records)
    else:
        checks.expect("snapshots.taken", durable.get("snapshots", {}).get("taken"), 1)
        checks.expect(
            "wal.records_since_snapshot",
            wal.get("records_since_snapshot"),
            script.tail_records,
        )


def check_summary(checks: Checks, code: int, out: str, script: Script, reads: dict) -> None:
    """Exit code and the `feed:` summary line of a SIGTERM'd server."""
    checks.expect("SIGTERM exit code", code, 0)
    want = (
        f"feed: {script.posts + 1} posts received ({script.posts} processed, 0 shed, "
        f"1 deduplicated), {script.deliveries} deliveries to"
    )
    line = next((ln for ln in out.splitlines() if ln.startswith("feed:")), "")
    checks.expect("summary counts", line[: len(want)], want)
    tail = (
        f"{reads['count']} reads served {reads['entries']} entries "
        f"({reads['filtered']} impression-filtered)"
    )
    checks.expect("summary reads", line.rpartition("; ")[2], tail)
    checks.expect("durability flushed", "durability: flushed clean" in out, True)


def recheck_reads(script: Script) -> dict:
    pages = [op.expect for op in script.recheck if op.kind == "read"]
    return {
        "count": len(pages),
        "entries": sum(len(p["entries"]) for p in pages),
        "filtered": sum(p["filtered"] for p in pages),
    }


def phase_rounds(script: Script, timer, server, level_check) -> tuple[dict, dict]:
    """Run every timed round; returns rounds and server-tree CPU seconds
    by phase (CPU read from /proc at phase boundaries, as deltas)."""
    rounds: dict[str, list[dict]] = {phase: [] for phase in PHASES}
    cpu = dict.fromkeys(PHASES, 0.0)
    tree = server.tree()
    current, mark = None, 0.0
    for rnd in script.rounds:
        if rnd.phase != current:
            now = driver.cpu_seconds(tree)
            if current is not None:
                cpu[current] += now - mark
                if rnd.phase == PHASES[0]:
                    level_check()
            current, mark = rnd.phase, now
        rounds[rnd.phase].append(timer.run(rnd.ops))
    cpu[current] += driver.cpu_seconds(tree) - mark
    for phase in PHASES:
        timer.scale_rounds(rounds[phase])
    return rounds, cpu


def run_normal(
    world: World, script: Script, run_dir: Path, calibrator: driver.Calibrator, *, repeats: bool
) -> dict:
    """The untraced subprocess run: every end-to-end metric, plus the
    http-side numbers the traced run needs (``extras``)."""
    w = world.workload
    checks = Checks()
    setups, recoveries, shutdowns = [], [], []

    def lifecycle_scale(before: float, after: float) -> float:
        return driver.scale_for(before, after, reference=driver.REFERENCE_LIFECYCLE_S)

    # spawn -> banner, several times over: throwaway servers, then the one
    # the phases run against; a lifecycle op before and after each.
    life = calibrator.lifecycle()
    for tag in [f"setup{i}" for i in range(SETUPS - 1 if repeats else 0)] + ["main"]:
        server = driver.Server(serve_args(world, script, run_dir, tag), run_dir / f"{tag}.log")
        try:
            before, life = life, calibrator.lifecycle()
        except BaseException:
            server.kill()
            raise
        if tag != "main":
            server.kill()
        setups.append((server.startup_s * lifecycle_scale(before, life), server.startup_s))
    try:
        timer = driver.RoundTimer(server.port, calibrator)

        levels = [0]

        def level_check() -> None:
            # The probe rung caps scans and halves comparisons: a run that
            # reaches it measured a different algorithm, so it fails.
            if w.memory_budget is not None:
                level = governor_level(server.port)
                checks.expect(f"governor level {level} <= 1 (probe guard)", level in (0, 1), True)
                levels.append(level or 0)

        timer.untimed(script.warm)
        level_check()
        scrape_warm = fetch_json(server.port, "/metrics.json")
        rounds, cpu = phase_rounds(script, timer, server, level_check)
        scrape_rounds = fetch_json(server.port, "/metrics.json")
        timer.untimed(script.verify)
        timer.untimed(script.tail)
        level_check()
        stats = fetch_json(server.port, "/feed/stats")
        check_stats(checks, stats, script, recovered=False)
        start = time.perf_counter()
        scrape_ok = driver.reply_body(driver.exchange(server.port, get_op("/metrics").request))
        scrape_ms = (time.perf_counter() - start) * 1e3
        checks.expect("GET /metrics", scrape_ok is not None, True)
        tree = server.tree()
        rss_mb = driver.peak_rss_mb(tree)
        tree_cpu = driver.cpu_seconds(tree)
        parent_cpu = driver.cpu_seconds([server.pid])
    finally:
        server.kill()

    reads = recheck_reads(script)
    life = calibrator.lifecycle()
    for i in range(RECOVERIES if repeats else 1):
        shutil.copytree(run_dir / "wal-main", run_dir / f"wal-recover{i}")
        args = serve_args(world, script, run_dir, f"recover{i}") + ["--recover"]
        recovered = driver.Server(args, run_dir / f"recover{i}.log")
        try:
            again = driver.RoundTimer(recovered.port, calibrator)
            again.untimed(script.recheck)
            check_stats(checks, fetch_json(recovered.port, "/feed/stats"), script, recovered=True)
            timer.attempted += again.attempted
            timer.failed += again.failed
            stopping, code, out = recovered.terminate()
        except BaseException:
            recovered.kill()
            raise
        before, life = life, calibrator.lifecycle()
        scale = lifecycle_scale(before, life)
        recoveries.append((recovered.startup_s * scale, recovered.startup_s))
        asleep = min(stopping, driver.POLL_QUANTUM_S)
        shutdowns.append((asleep + (stopping - asleep) * scale, stopping))
        check_summary(checks, code, out, script, reads)

    single, bulk, read, mixed = (rounds[phase] for phase in PHASES)
    bulk_posts = w.bulk_per_round * len(bulk)
    bulk_scale = statistics.fmean(r["scale"] for r in bulk)
    mixed_ops = len(mixed[0]["latencies"])
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ingest_posts_per_s": w.bulk_per_round / driver.median_round_seconds(bulk),
        "ingest_p50_ms": driver.median_round_p50(single) * 1e3,
        "read_pages_per_s": w.reads_per_round / driver.median_round_seconds(read),
        "read_p50_ms": driver.median_round_p50(read) * 1e3,
        "mixed_ops_per_s": mixed_ops / driver.median_round_seconds(mixed),
        "ingest_cpu_ms_per_post": cpu["ingest_bulk"] * bulk_scale / bulk_posts * 1e3,
        "server_peak_rss_mb": rss_mb,
        "recover_s": statistics.median(s for s, _ in recoveries),
        "shutdown_s": statistics.median(s for s, _ in shutdowns),
    }
    deciles = statistics.quantiles(calibrator.samples, n=10)
    return {
        "metrics": metrics,
        "info": {
            "machine": (
                f"calibration op median {statistics.median(calibrator.samples) * 1e3:.3f} ms "
                f"(reference {driver.REFERENCE_OP_S * 1e3:.3f}), p90/p10 {deciles[-1] / deciles[0]:.2f}"
            ),
            "raw (unscaled) single-shot seconds": {
                "setup_s": round(statistics.median(r for _, r in setups), 4),
                "recover_s": round(statistics.median(r for _, r in recoveries), 4),
                "shutdown_s": round(statistics.median(r for _, r in shutdowns), 4),
            },
        },
        "attempted": timer.attempted + checks.attempted,
        "failed": timer.failed + len(checks.failures),
        "failures": checks.failures,
        "extras": {
            "rounds": rounds,
            "cpu": cpu,
            "calibrations": list(calibrator.samples),
            "scrape_warm": scrape_warm,
            "scrape_rounds": scrape_rounds,
            "stats": stats,
            "scrape_ms": scrape_ms,
            "governor_level_max": max(levels),
            "tree_processes": len(tree),
            "tree_cpu_s": tree_cpu,
            "parent_cpu_s": parent_cpu,
        },
    }


