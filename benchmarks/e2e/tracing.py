"""The traced run: per-layer numbers from spans recorded around each layer.

`--trace 1` runs the script twice at half the rounds: once through the
subprocess like a normal run (for the counters scraped from
``/metrics.json`` and the over-HTTP latencies) and once in-process, where
the same stack `repro serve` builds (``make_multiuser`` ->
``DiversificationService`` -> ``FeedService(durability=...)`` ->
``FeedServer.routes()``) is handed the same request bytes with span
recorders wrapped around the methods of each layer. Spans live in memory
and are written to ``.benchmarks/e2e/trace-<workload>.jsonl`` when the run
ends. Rounds alternate untraced / traced, so the tracing overhead is
measured on the same state (``trace.overhead_share``) and the untraced
handler time is what is subtracted from the over-HTTP time to get
``http.transport_us_per_request``.

Pure functions the handlers call by name (``post_from_dict``, ``simhash``,
``encode_record``, ``json.loads`` / ``json.dumps`` of bodies) are not
wrapped: they are timed by direct calls on the same inputs after the
request, and subtracted from the self time of the span that called them.
What is left of a handler's self time after that is "unattributed".

No end-to-end metric is ever taken from this run.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.feed import DurabilityConfig, FeedServer, FeedService, MailboxConfig
from repro.feed.wal import encode_record
from repro.io import post_from_dict, post_to_dict
from repro.multiuser import make_multiuser
from repro.resilience import GovernorConfig, MemoryGovernor
from repro.service import DiversificationService
from repro.simhash import simhash
from repro.storage import SpillConfig
from repro.storage.tiered import TieredPostBin

import driver
import phases
from reference import Script, engine_inputs
from workloads import PHASES, World

PER_LAYER = (
    ("http.transport_us_per_request", "us"),
    ("http.posts_decode_us_per_post", "us"),
    ("http.posts_encode_us_per_post", "us"),
    ("http.feed_encode_us_per_page", "us"),
    ("http.feed_bytes_per_page", "count"),
    ("http.ingest_p99_ms", "ms"),
    ("http.read_p99_ms", "ms"),
    ("http.impression_p50_ms", "ms"),
    ("io.parse_us_per_post", "us"),
    ("simhash.fingerprint_us_per_post", "us"),
    ("simhash.fingerprints_per_post", "count"),
    ("resilience.gate_us_per_post", "us"),
    ("resilience.governor_level_max", "count"),
    ("service.ingest_self_us_per_post", "us"),
    ("multiuser.offer_us_per_post", "us"),
    ("core.comparisons_per_post", "count"),
    ("core.ns_per_comparison", "ns"),
    ("core.admitted_share", "count"),
    ("core.stored_copies_peak", "count"),
    ("storage.spill_overhead_ratio", "count"),
    ("storage.append_us_per_post", "us"),
    ("storage.scan_us_per_post", "us"),
    ("storage.expire_us_per_post", "us"),
    ("storage.spilled_share", "count"),
    ("storage.segments", "count"),
    ("parallel.encode_us_per_post", "us"),
    ("parallel.ipc_wait_us_per_post", "us"),
    ("parallel.transport_bytes_per_post", "count"),
    ("parallel.shard_imbalance", "count"),
    ("supervise.checkpoints_per_1k_posts", "count"),
    ("wal.encode_us_per_record", "us"),
    ("wal.append_us_per_record", "us"),
    ("wal.bytes_per_post", "count"),
    ("wal.fsyncs_per_1k_records", "count"),
    ("durable.log_post_self_us", "us"),
    ("durable.snapshot_s", "s"),
    ("durable.snapshot_mb", "MB"),
    ("durable.snapshot_load_s", "s"),
    ("durable.replay_us_per_record", "us"),
    ("durable.replay_speedup", "count"),
    ("mailbox.fanout_us_per_post", "us"),
    ("mailbox.fanout_ns_per_delivery", "ns"),
    ("mailbox.deliveries_per_post", "count"),
    ("mailbox.expire_us_per_post", "us"),
    ("mailbox.evictions_per_post", "count"),
    ("mailbox.bytes_per_entry", "count"),
    ("mailbox.read_us_per_page", "us"),
    ("mailbox.entries_per_page", "count"),
    ("mailbox.filtered_per_page", "count"),
    ("mailbox.impressions_us_per_call", "us"),
    ("feed.ingest_self_us_per_post", "us"),
    ("obs.scrape_ms", "ms"),
    ("trace.unattributed_share_ingest", "count"),
    ("trace.unattributed_share_read", "count"),
    ("trace.overhead_share", "count"),
    ("machine.calib_ms", "ms"),
    ("machine.calib_spread", "count"),
    ("machine.disturbed", "count"),
)

#: bytes of one post row / one index slot on the shm transport
#: (`repro.parallel.shm`: 40-byte structured rows, int64 index arrays)
_ROW_BYTES, _INDEX_BYTES = 40, 8


class Tracer:
    """In-memory span recorder: name, start, end, parent span, request id."""

    def __init__(self) -> None:
        #: (name, start, end, parent index, request id, reference-speed scale)
        self.spans: list[tuple] = []
        self.request = 0
        self.scale = 1.0
        self._stack: list[int] = []
        self._wrapped: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self.request, self.scale)

    def wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        """Route ``owner.attr`` through :meth:`call` (``owner`` is an
        instance, or a class for slotted types); a layer this workload
        does not have is skipped."""
        inner = getattr(owner, attr, None)
        if inner is None:
            return
        call = self.call

        def span(*args, **kwargs):
            result = call(name, inner, *args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        self._wrapped.append((owner, attr, inner if isinstance(owner, type) else None))
        setattr(owner, attr, span)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._wrapped):
            if original is None:
                delattr(owner, attr)  # drop the instance attribute shadowing the method
            else:
                setattr(owner, attr, original)
        self._wrapped.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive and self reference-seconds.
        Self time is the span minus the part its child spans cover."""
        covered = defaultdict(float)
        for _, start, end, parent, _, scale in self.spans:
            if parent >= 0:
                covered[parent] += (end - start) * scale
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"n": 0, "incl": 0.0, "self": 0.0})
        for index, (name, start, end, _, _, scale) in enumerate(self.spans):
            row = out[name]
            row["n"] += 1
            row["incl"] += (end - start) * scale
            row["self"] += (end - start) * scale - covered[index]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, request, _) in enumerate(self.spans):
                handle.write(
                    f'{{"span": {index}, "name": "{name}", "start": {start!r}, '
                    f'"end": {end!r}, "parent": {parent}, "request": {request}}}\n'
                )


def build_stack(world: World, script: Script, run_dir: Path, tag: str):
    """The stack `repro serve` builds, in this process."""
    w = world.workload
    flags = dict(zip(w.serve_flags[::2], w.serve_flags[1::2]))
    engine = make_multiuser(
        w.algorithm,
        *engine_inputs(world),
        workers=int(flags.get("--workers", 1)),
        transport=flags.get("--transport", "auto"),
        supervised="--supervise" in w.serve_flags,
        storage=SpillConfig(str(run_dir / f"spill-{tag}")) if w.memory_budget else None,
    )
    service = DiversificationService(engine)
    if w.memory_budget:
        service.governor = MemoryGovernor(engine, GovernorConfig(budget_bytes=w.memory_budget))
    feed = FeedService(
        service,
        mailboxes=MailboxConfig(capacity=w.mailbox_capacity, window=w.lambda_t * w.mailbox_windows),
        durability=DurabilityConfig(
            wal_dir=run_dir / f"wal-{tag}", snapshot_every=script.snapshot_interval
        ),
    )
    feed.bind_metrics()
    return engine, service, feed


def parse_request(request: bytes) -> tuple[str, str, dict, bytes | None]:
    head, _, body = request.partition(b"\r\n\r\n")
    method, target, _ = head.split(b"\r\n", 1)[0].decode().split(" ")
    url = urlsplit(target)
    return method, url.path, parse_qs(url.query), body or None


def timed(fn, *args) -> tuple[float, object]:
    """``(seconds, result)`` of ``fn(*args)``."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class InProcess:
    """Feeds pre-encoded requests straight to the route handlers."""

    def __init__(self, world: World, script: Script, run_dir: Path, calibrator: driver.Calibrator):
        self.calibrator = calibrator
        self.engine, self.service, self.feed = build_stack(world, script, run_dir, "trace")
        self.routes = FeedServer(self.feed).routes()
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        #: direct timings of the pure functions, reference-seconds by name
        self.direct: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        wrap, feed, service, engine = self.tracer.wrap, self.feed, self.service, self.engine
        wrap(feed, "replay", "feed.replay")
        wrap(feed, "ingest_detailed", "feed.ingest")
        wrap(feed, "read", "feed.read")
        wrap(feed, "record_impressions", "feed.impressions")
        wrap(feed.durable, "dedup_lookup", "resilience.dedup")
        wrap(service.governor, "observe", "resilience.governor")
        wrap(service, "ingest", "service.ingest")
        wrap(engine, "offer", "multiuser.offer")
        wrap(engine, "_encode_shard_batch", "parallel.encode", self._count_transport)
        wrap(getattr(engine, "supervisor", None), "request_many", "parallel.ipc")
        wrap(feed.durable, "log_post", "durable.log_post")
        wrap(feed.durable, "log_expire", "durable.log_expire")
        wrap(feed.durable, "log_impressions", "durable.log_impressions")
        wrap(feed.durable, "maybe_snapshot", "durable.maybe_snapshot")
        wrap(feed.durable.wal, "append", "wal.append")
        wrap(feed.store, "fanout", "mailbox.fanout")
        wrap(feed.store, "expire", "mailbox.expire")
        wrap(feed.store, "read", "mailbox.read")
        wrap(feed.store, "record_impressions", "mailbox.impressions")
        if service.governor is not None:  # tiered bins are slotted: class-level
            wrap(TieredPostBin, "append", "storage.append")
            wrap(TieredPostBin, "expire", "storage.expire")
            wrap(TieredPostBin, "_read", "storage.scan")  # segment fault-in

    def _count_transport(self, message: tuple) -> None:
        if message[0] == "shm_batch":
            rows, indexes = message[3], message[4]
            self.counts["transport_bytes"] += (
                rows * _ROW_BYTES + (rows + 1 + indexes) * _INDEX_BYTES
            )

    def handle(self, op, *, traced: bool) -> float:
        """One request; returns the handler's raw seconds."""
        method, path, query, body = parse_request(op.request)
        handler = self.routes[(method, path)]
        self.tracer.request += 1
        start = time.perf_counter()
        if traced:
            status, _, payload = self.tracer.call(f"http.{op.kind}", handler, query, body)[:3]
        else:
            status, _, payload = handler(query, body)[:3]
        elapsed = time.perf_counter() - start
        if traced:
            self._direct(op, body, payload)
        self.attempted += 1
        if status != 200 or (op.expect is not None and json.loads(payload) != op.expect):
            self.failed += 1
        return elapsed

    def _direct(self, op, body: bytes | None, payload: bytes) -> None:
        """Time the pure functions this request's handler called, on the
        same inputs, outside the handler."""
        direct, counts, scale = self.direct, self.counts, self.tracer.scale

        def spend(name: str, fn, *args):
            seconds, result = timed(fn, *args)
            direct[name] += seconds * scale
            return result

        if op.kind in ("single", "bulk"):
            records = spend("http.posts_decode", json.loads, body)
            spend("http.posts_encode", json.dumps, json.loads(payload))
            records = records if isinstance(records, list) else [records]
            first_seq = self.feed.store.peek_next_seq() - len(records)
            for offset, record in enumerate(records):
                key = record.pop("idempotency_key", None)
                post = spend("io.parse", post_from_dict, record)
                if record.get("fingerprint") is None:
                    spend("simhash", simhash, record["text"])
                    counts["fingerprints"] += 1
                wal_record = {
                    "t": "post",
                    "post": post_to_dict(post),
                    "recv": [0, 0],
                    "seq": first_seq + offset,
                    "idem": key,
                }
                spend("wal.encode", encode_record, wal_record)
            counts["posts"] += len(records)
        elif op.kind == "read":
            page = json.loads(payload)
            spend("http.feed_encode", json.dumps, page)
            counts["pages"] += 1
            counts["page_bytes"] += len(payload)
            counts["page_entries"] += len(page["entries"])
            counts["page_filtered"] += page["filtered"]

    def run_round(self, ops, *, traced: bool) -> dict:
        # Spans are stamped as they close, so the round's scale comes from
        # the calibration before it only.
        scale = self.tracer.scale = driver.scale_for(self.calibrator.op())
        if traced:
            self.install()
        try:
            seconds = [self.handle(op, traced=traced) for op in ops]
        finally:
            self.tracer.unwrap_all()
        return {"seconds": seconds, "scale": scale, "kinds": [op.kind for op in ops]}

    def untimed(self, ops) -> None:
        for op in ops:
            self.handle(op, traced=False)


def median_handler_us(rounds: list[dict]) -> float:
    """Median over rounds of the round's median handler time."""
    return statistics.median(statistics.median(r["seconds"]) * r["scale"] for r in rounds) * 1e6


def round_seconds(rounds: list[dict]) -> float:
    return statistics.median(sum(r["seconds"]) * r["scale"] for r in rounds)


def traced_recovery(world: World, script: Script, run_dir: Path, calibrator) -> dict:
    """Recover the (copied, un-flushed) in-process WAL directory into a
    fresh stack, with spans around snapshot read and mailbox load."""
    engine, service, feed = build_stack(world, script, run_dir, "trace-crash")
    tracer = Tracer()
    tracer.wrap(feed.durable.snapshots, "load_best", "durable.snapshot_read")
    tracer.wrap(feed.store, "load_state", "mailbox.load_state")
    try:
        tracer.scale = driver.scale_for(calibrator.op())
        report = feed.recover(snapshot_after=False)
    finally:
        tracer.unwrap_all()
        feed.close()
    load_s = sum(row["incl"] for row in tracer.totals().values())
    replay_s = report.duration_seconds * tracer.scale - load_s
    return {
        "load_s": load_s,
        "replay_us_per_record": replay_s / max(report.records_total, 1) * 1e6,
        "spans": tracer.spans,
    }


def run_traced(
    world: World, script: Script, run_dir: Path, calibrator: driver.Calibrator, trace_path: Path
) -> dict:
    normal = phases.run_normal(world, script, run_dir, calibrator, repeats=False)
    extras = normal["extras"]
    snapshots = sorted((run_dir / "wal-recover0").glob("snapshot-*.ckpt"))
    snapshot_mb = snapshots[-1].stat().st_size / 1e6 if snapshots else 0.0

    inproc = InProcess(world, script, run_dir, calibrator)
    rounds: dict[tuple[str, bool], list[dict]] = defaultdict(list)
    try:
        inproc.untimed(script.warm)
        for index, rnd in enumerate(script.rounds):
            traced = index % 2 == 1
            rounds[rnd.phase, traced].append(inproc.run_round(rnd.ops, traced=traced))
        engine_stats = inproc.engine.aggregate_stats()
        offered = sum(op.posts for op in script.warm) + sum(
            op.posts for rnd in script.rounds for op in rnd.ops
        )
        store = inproc.feed.store
        bytes_per_entry = store.approx_bytes() / max(store.total_entries, 1)
        bins = [obj for obj in gc.get_objects() if isinstance(obj, TieredPostBin)]
        spilled = sum(b.spilled_len for b in bins)
        resident = sum(len(b) for b in bins)
        segments = sum(b.segment_count for b in bins)
        imbalance = getattr(inproc.engine, "shard_imbalance", lambda: 0.0)()
        inproc.untimed(script.verify)
        inproc.untimed(script.tail)
        shutil.copytree(run_dir / "wal-trace", run_dir / "wal-trace-crash")
    finally:
        inproc.feed.close()
    recovery = traced_recovery(world, script, run_dir, calibrator)

    tracer = inproc.tracer
    spans = tracer.totals()
    tracer.spans.extend(recovery["spans"])
    tracer.write(trace_path)
    direct, counts = inproc.direct, inproc.counts

    def incl(name: str) -> float:
        return spans[name]["incl"] if name in spans else 0.0

    def own(name: str) -> float:
        return spans[name]["self"] if name in spans else 0.0

    def per_call(name: str) -> float:
        return incl(name) / spans[name]["n"] if name in spans else 0.0

    posts = max(counts["posts"], 1)
    pages = max(counts["pages"], 1)
    comparisons_per_post = engine_stats.comparisons / offered
    ingest_handlers = incl("http.single") + incl("http.bulk")
    ingest_unattributed = (
        own("http.single") + own("http.bulk")
        - direct["http.posts_decode"] - direct["http.posts_encode"] - direct["io.parse"]
    )  # fmt: skip
    read_unattributed = own("http.read") - direct["http.feed_encode"]

    single_http = driver.median_round_p50(extras["rounds"]["ingest_single"]) * 1e6
    read_http = driver.median_round_p50(extras["rounds"]["read"]) * 1e6
    transport = (
        single_http - median_handler_us(rounds["ingest_single", False])
        + read_http - median_handler_us(rounds["read", False])
    ) / 2  # fmt: skip
    overhead = statistics.median(
        round_seconds(rounds[phase, True]) / round_seconds(rounds[phase, False]) - 1.0
        for phase in PHASES
    )

    def delta(name: str) -> float:
        """Counter growth over the timed rounds of the subprocess run."""
        return phases.metric_total(extras["scrape_rounds"], name) - phases.metric_total(
            extras["scrape_warm"], name
        )

    posts_http = max(delta("repro_multiuser_posts_total"), 1)
    deciles = statistics.quantiles(extras["calibrations"], n=10)
    calib_spread = deciles[-1] / deciles[0]
    live_us = incl("feed.ingest") / posts * 1e6
    offer_us = incl("multiuser.offer") / posts * 1e6

    metrics = {
        "http.transport_us_per_request": transport,
        "http.posts_decode_us_per_post": direct["http.posts_decode"] / posts * 1e6,
        "http.posts_encode_us_per_post": direct["http.posts_encode"] / posts * 1e6,
        "http.feed_encode_us_per_page": direct["http.feed_encode"] / pages * 1e6,
        "http.feed_bytes_per_page": counts["page_bytes"] / pages,
        "http.ingest_p99_ms": driver.pooled_percentile(extras["rounds"]["ingest_single"], 0.99)[0] * 1e3,
        "http.read_p99_ms": driver.pooled_percentile(extras["rounds"]["read"], 0.99)[0] * 1e3,
        "http.impression_p50_ms": driver.median_round_p50(extras["rounds"]["mixed"], "impressions") * 1e3,
        "io.parse_us_per_post": (direct["io.parse"] - direct["simhash"]) / posts * 1e6,
        "simhash.fingerprint_us_per_post": direct["simhash"] / posts * 1e6,
        "simhash.fingerprints_per_post": counts["fingerprints"] / posts,
        "resilience.gate_us_per_post": (incl("resilience.dedup") + incl("resilience.governor")) / posts * 1e6,
        "resilience.governor_level_max": extras["governor_level_max"],
        "service.ingest_self_us_per_post": own("service.ingest") / posts * 1e6,
        "multiuser.offer_us_per_post": own("multiuser.offer") / posts * 1e6,
        "core.comparisons_per_post": delta("repro_comparisons_total") / posts_http,
        "core.ns_per_comparison": own("multiuser.offer") / posts / max(comparisons_per_post, 1) * 1e9,
        "core.admitted_share": delta("repro_insertions_total")
        / max(delta("repro_multiuser_instance_offers_total"), 1),
        "core.stored_copies_peak": phases.metric_total(extras["scrape_rounds"], "repro_stored_copies"),
        "storage.spill_overhead_ratio": offer_us / script.reference_offer_us if bins else 1.0,
        "storage.append_us_per_post": incl("storage.append") / posts * 1e6,
        "storage.scan_us_per_post": incl("storage.scan") / posts * 1e6,
        "storage.expire_us_per_post": incl("storage.expire") / posts * 1e6,
        "storage.spilled_share": spilled / resident if resident else 0.0,
        "storage.segments": segments,
        "parallel.encode_us_per_post": incl("parallel.encode") / posts * 1e6,
        "parallel.ipc_wait_us_per_post": incl("parallel.ipc") / posts * 1e6,
        "parallel.transport_bytes_per_post": counts["transport_bytes"] / posts,
        "parallel.shard_imbalance": imbalance,
        "supervise.checkpoints_per_1k_posts": delta("repro_supervision_checkpoints_total") / posts_http * 1e3,
        "wal.encode_us_per_record": direct["wal.encode"] / posts * 1e6,
        "wal.append_us_per_record": (own("wal.append") - direct["wal.encode"])
        / max(spans["wal.append"]["n"], 1) * 1e6,
        "wal.bytes_per_post": delta("repro_feed_wal_bytes_total") / posts_http,
        "wal.fsyncs_per_1k_records": delta("repro_feed_wal_fsyncs_total")
        / max(delta("repro_feed_wal_records_total"), 1) * 1e3,
        "durable.log_post_self_us": own("durable.log_post") / posts * 1e6,
        "durable.snapshot_s": extras["stats"]["durability"]["snapshots"]["last_seconds"],
        "durable.snapshot_mb": snapshot_mb,
        "durable.snapshot_load_s": recovery["load_s"],
        "durable.replay_us_per_record": recovery["replay_us_per_record"],
        "durable.replay_speedup": live_us / recovery["replay_us_per_record"],
        "mailbox.fanout_us_per_post": incl("mailbox.fanout") / posts * 1e6,
        "mailbox.fanout_ns_per_delivery": incl("mailbox.fanout") / posts
        / max(script.deliveries / script.posts, 1) * 1e9,
        "mailbox.deliveries_per_post": delta("repro_feed_deliveries_total") / posts_http,
        "mailbox.expire_us_per_post": incl("mailbox.expire") / posts * 1e6,
        "mailbox.evictions_per_post": delta("repro_feed_mailbox_evictions_total") / posts_http,
        "mailbox.bytes_per_entry": bytes_per_entry,
        "mailbox.read_us_per_page": per_call("mailbox.read") * 1e6,
        "mailbox.entries_per_page": counts["page_entries"] / pages,
        "mailbox.filtered_per_page": counts["page_filtered"] / pages,
        "mailbox.impressions_us_per_call": per_call("mailbox.impressions") * 1e6,
        "feed.ingest_self_us_per_post": (own("feed.ingest") + own("feed.replay")) / posts * 1e6,
        "obs.scrape_ms": extras["scrape_ms"],
        "trace.unattributed_share_ingest": ingest_unattributed / ingest_handlers,
        "trace.unattributed_share_read": read_unattributed / incl("http.read"),
        "trace.overhead_share": overhead,
        "machine.calib_ms": statistics.median(extras["calibrations"]) * 1e3,
        "machine.calib_spread": calib_spread,
        "machine.disturbed": 1.0 if calib_spread > 1.5 else 0.0,
    }
    failures = list(normal["failures"])
    if inproc.failed:
        failures.append(f"{inproc.failed} in-process replies differ from the reference")
    return {
        "metrics": metrics,
        "attempted": normal["attempted"] + inproc.attempted,
        "failed": normal["failed"] + inproc.failed,
        "failures": failures,
        "info": {
            "spans": f"{len(tracer.spans)} written to {trace_path}",
            "end-to-end at half rounds (not gated)": {
                k: round(v, 4) for k, v in normal["metrics"].items()
            },
        },
    }
