"""The diversification service: per-post latency and capacity measurement.

The paper claims "scalable real-time stream processing" — the decision for
each arriving post must be instant, and the engine must keep up with the
firehose. This module measures both for any single-user algorithm or
M-SPSD engine:

* :class:`DiversificationService` wraps an engine, times every ``offer``
  and records the latency distribution;
* :meth:`DiversificationService.replay` feeds a recorded stream through
  the engine and runs a single-server queueing simulation over the
  measured service times at a chosen real-time ``speedup``, answering
  "could this engine absorb this stream K× faster than real time?";
* :func:`capacity_sweep` finds each algorithm's sustainable speedup.

A live service is also *scrapable*: construct it with a
:class:`repro.obs.Registry` (or call :meth:`DiversificationService.
serve_metrics`, which makes one) and :class:`MetricsServer` exposes the
registry over HTTP — Prometheus text at ``/metrics``, a JSON snapshot at
``/metrics.json`` — from a daemon thread, with no extra dependencies.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Iterable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..core import Post, StreamDiversifier
from ..errors import ConfigurationError
from ..multiuser import MultiUserDiversifier
from ..obs import Registry, render_prometheus, snapshot
from ..obs.instruments import ServiceInstruments
from ..resilience import OverloadController
from .latency import (
    LatencyRecorder,
    QueueingReport,
    SheddingReport,
    simulate_queueing,
)

#: How often the serving thread checks for a shutdown request. ``stop()``
#: waits out up to one interval, so it is far below the stdlib's 0.5 s.
SHUTDOWN_POLL_S = 0.05


class DiversificationService:
    """Latency-instrumented wrapper around a diversification engine.

    When an :class:`OverloadController` is attached, :meth:`replay` runs
    the queueing simulation *online* and sheds posts whenever the virtual
    backlog exceeds the controller's budget — the replay then reports
    exact shed counts instead of pretending infinite capacity.
    """

    def __init__(
        self,
        engine: StreamDiversifier | MultiUserDiversifier,
        *,
        purge_every: int = 2000,
        overload: OverloadController | None = None,
        governor=None,
        registry: Registry | None = None,
        tracer=None,
    ):
        if purge_every < 1:
            raise ConfigurationError(f"purge_every must be >= 1, got {purge_every}")
        self.engine = engine
        self.latency = LatencyRecorder()
        self.overload = overload
        #: Optional :class:`repro.resilience.MemoryGovernor`; ticked from
        #: the ingest path (and while shedding, so memory pressure can
        #: release once purges drain the windows).
        self.governor = governor
        self._purge_every = purge_every
        self._since_purge = 0
        self._service_times: list[float] = []
        self._arrivals: list[float] = []
        self.registry: Registry | None = None
        if registry is not None or tracer is not None:
            self.bind_metrics(registry, tracer=tracer)

    @property
    def is_multiuser(self) -> bool:
        return isinstance(self.engine, MultiUserDiversifier)

    def bind_metrics(self, registry: Registry | None, *, tracer=None) -> None:
        """Bind the engine and the service's own gauges to ``registry``
        (created on demand when ``None`` but a tracer is given)."""
        if registry is None and tracer is not None:
            registry = Registry()
        if isinstance(self.engine, MultiUserDiversifier):
            self.engine.bind_metrics(registry)
        else:
            self.engine.bind_metrics(registry, tracer=tracer)
        if registry is not None and not registry.is_noop:
            ServiceInstruments(registry, self)
            if self.governor is not None:
                from ..obs.instruments import MemoryInstruments

                MemoryInstruments(registry, self.governor)
            self.registry = registry

    def serve_metrics(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> "MetricsServer":
        """Start a daemon-thread HTTP endpoint exposing this service's
        registry (binding one first if the service has none). ``port=0``
        picks a free port; read it off the returned server's ``address``.

        Supervised engines feed ``/healthz``: the probe degrades (while
        staying 200 — the service still answers, exactly) once any shard
        has been quarantined into in-parent serial execution."""
        if self.registry is None:
            self.bind_metrics(Registry())
        assert self.registry is not None
        server = MetricsServer(
            self.registry,
            host=host,
            port=port,
            health=self._health_probe,
            health_json=self.degradation_report,
        )
        server.start()
        return server

    def degradation_report(self) -> dict[str, object]:
        """The single structured health report behind ``/healthz``.

        Composes every degradation the stack can enter — quarantined
        shards (supervision), the memory governor's ladder rung, and
        active load shedding — into one JSON-able dict:

        ``status``
            ``"ok"`` or ``"degraded"``.
        ``reasons``
            one human-readable string per active degradation (empty when
            healthy); ``/healthz`` renders these joined with ``"; "``.
        ``shards`` / ``memory`` / ``shedding``
            the underlying structured sections, present whenever the
            corresponding subsystem is attached (degraded or not).
        """
        reasons: list[str] = []
        report: dict[str, object] = {"status": "ok", "reasons": reasons}
        status_of = getattr(self.engine, "supervision_status", None)
        status = status_of() if callable(status_of) else None
        if status is not None:
            report["shards"] = status
            if status.get("degraded_shards"):
                shards = sorted(status["degraded_shards"])
                reasons.append(
                    f"shards {shards} quarantined, running serial in-parent"
                )
        if self.governor is not None:
            memory = self.governor.status()
            report["memory"] = memory
            if self.governor.degraded:
                reasons.append(
                    "memory governor at {level} "
                    "({total_bytes} of {budget_bytes} budget bytes)".format(**memory)
                )
        if self.overload is not None:
            shedding = self.overload.snapshot()
            report["shedding"] = shedding
            if self.overload.shedding:
                cause = (
                    "memory pressure"
                    if self.overload.memory_pressure
                    else "backlog over budget"
                )
                reasons.append(
                    f"shedding arrivals ({cause}, policy {self.overload.policy})"
                )
        autoscaler = getattr(self.engine, "autoscaler", None)
        if autoscaler is not None:
            report["autoscale"] = autoscaler.status()
        if reasons:
            report["status"] = "degraded"
        return report

    def _health_probe(self) -> str:
        """``/healthz`` body: ``ok`` or ``degraded: <reason>; <reason>``."""
        report = self.degradation_report()
        if report["status"] == "ok":
            return "ok\n"
        return "degraded: " + "; ".join(report["reasons"]) + "\n"

    def ingest(self, post: Post):
        """Process one post, timing the decision. Returns the engine's
        verdict (bool for single-user, receiver set for multi-user)."""
        start = time.perf_counter()
        verdict = self.engine.offer(post)
        elapsed = time.perf_counter() - start
        self.latency.record(elapsed)
        self._arrivals.append(post.timestamp)
        self._service_times.append(elapsed)
        self._since_purge += 1
        if self._since_purge >= self._purge_every:
            self.engine.purge(post.timestamp)
            self._since_purge = 0
        if self.governor is not None:
            self.governor.observe()
        return verdict

    def replay(
        self, posts: Iterable[Post], *, speedups: tuple[float, ...] = (1.0,)
    ) -> list[QueueingReport | SheddingReport]:
        """Feed ``posts`` through the engine and evaluate against the
        stream's arrival process at each ``speedup`` (1.0 = real time).

        Without an overload controller every post is processed and the
        queueing simulation runs offline over the measured service times.
        With one, the simulation runs *online* at a single speedup: the
        controller watches the virtual backlog and sheds arriving posts
        past its budget, and the returned :class:`SheddingReport` carries
        the exact shed accounting.
        """
        if self.overload is not None:
            if len(speedups) != 1:
                raise ConfigurationError(
                    "overload-controlled replay processes the stream once "
                    "and therefore supports exactly one speedup; got "
                    f"{speedups!r}"
                )
            return [self._replay_shedding(posts, speedup=speedups[0])]
        for post in posts:
            self.ingest(post)
        return [
            simulate_queueing(self._arrivals, self._service_times, speedup=s)
            for s in speedups
        ]

    def _replay_shedding(
        self, posts: Iterable[Post], *, speedup: float
    ) -> SheddingReport:
        """Online single-server replay with backlog-triggered shedding."""
        if speedup <= 0:
            raise ConfigurationError(f"speedup must be positive, got {speedup}")
        controller = self.overload
        assert controller is not None
        first_arrival: float | None = None
        arrival = 0.0
        server_free = 0.0
        total = 0
        total_delay = 0.0
        max_delay = 0.0
        for post in posts:
            total += 1
            arrival = post.timestamp / speedup
            if first_arrival is None:
                first_arrival = arrival
                server_free = arrival
            backlog = max(0.0, server_free - arrival)
            if controller.should_shed(backlog):
                controller.record_shed()
                # Shed posts still advance time for the engine: purge on
                # the usual cadence and tick the governor, so windows
                # keep expiring and memory pressure can release instead
                # of deadlocking in permanent shed (nothing processed →
                # no purges → memory never drops).
                self._since_purge += 1
                if self._since_purge >= self._purge_every:
                    self.engine.purge(post.timestamp)
                    self._since_purge = 0
                if self.governor is not None:
                    self.governor.observe()
                continue
            start = time.perf_counter()
            self.ingest(post)
            elapsed = time.perf_counter() - start
            controller.record_processed()
            begin = max(arrival, server_free)
            server_free = begin + elapsed
            delay = server_free - arrival
            total_delay += delay
            if delay > max_delay:
                max_delay = delay
        processed = controller.counters.processed
        return SheddingReport(
            speedup=speedup,
            posts=total,
            processed=processed,
            shed_dropped=controller.counters.shed_dropped,
            shed_passthrough=controller.counters.shed_passthrough,
            shed_episodes=controller.counters.episodes,
            busy_time=sum(self._service_times),
            stream_span=(arrival - first_arrival) if first_arrival is not None else 0.0,
            max_delay=max_delay,
            mean_delay=total_delay / processed if processed else 0.0,
            final_backlog_delay=max(0.0, server_free - arrival),
        )

    def sustainable_speedup(self) -> float:
        """Largest stream compression the engine keeps up with, estimated
        from total busy time vs stream span (utilisation = 1 boundary)."""
        if not self._arrivals or len(self._arrivals) < 2:
            return float("inf")
        span = self._arrivals[-1] - self._arrivals[0]
        busy = sum(self._service_times)
        if busy <= 0:
            return float("inf")
        return span / busy

    def throughput_posts_per_second(self) -> float:
        """Pure processing throughput (ignoring arrival pacing)."""
        if self.latency.mean <= 0:
            return float("inf")
        return 1.0 / self.latency.mean


class RouteError(Exception):
    """An HTTP route refused the request.

    Handlers raise this to turn invalid input into a clean status line
    with a JSON ``{"error": ...}`` body — 400 for malformed parameters,
    404 for unknown resources, 429 (with ``Retry-After``) for shed
    ingestion — instead of a traceback in the serving thread.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: tuple[tuple[str, str], ...] = (),
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


#: One route handler: ``(query, body) -> (status, content-type, body bytes)``
#: or a 4-tuple adding extra ``((name, value), ...)`` response headers.
RouteHandler = Callable[[dict, bytes | None], tuple]


class MetricsServer:
    """Minimal scrape endpoint over a :class:`repro.obs.Registry`.

    Routes:

    * ``GET /metrics`` — Prometheus text exposition format 0.0.4;
    * ``GET /metrics.json`` — the JSON snapshot;
    * ``GET /healthz`` — liveness probe (``ok``, or whatever the
      ``health`` callback reports — a degraded stack answers
      ``degraded: <reason>; <reason>``);
    * ``GET /healthz.json`` — the structured degradation report from the
      ``health_json`` callback (shards, memory, shedding in one dict).

    Serves from a daemon thread (:class:`ThreadingHTTPServer`), so a
    replay loop stays scrapable while it runs. Metrics collection reads
    live callback values; scraping mid-run observes the current counters.

    Routing is table-driven: :meth:`routes` maps ``(method, path)`` to a
    handler receiving the parsed query string and (for POST) the request
    body; subclasses — the feed front end
    (:class:`repro.feed.FeedServer`) — extend the table rather than
    re-implementing dispatch, so ``/metrics`` and ``/healthz`` stay
    uniform across every endpoint the stack serves.
    """

    #: Thread name for the serving daemon; subclasses override.
    thread_name = "repro-metrics-server"

    def __init__(
        self,
        registry: Registry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Callable[[], str] | None = None,
        health_json: Callable[[], dict] | None = None,
        request_deadline: float | None = None,
    ):
        if request_deadline is not None and not request_deadline > 0:
            raise ConfigurationError(
                f"request_deadline must be > 0 seconds, got {request_deadline}"
            )
        self.registry = registry
        self.health = health
        self.health_json = health_json
        #: Per-request time budget (seconds); a handler that overruns it
        #: answers 504 instead of its normal response. The work may have
        #: committed by then — which is exactly why ingestion is
        #: idempotent: the client's retry is absorbed by the dedup window.
        self.request_deadline = request_deadline
        self._host = host
        self._port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def _deadline_exceeded(self, method: str, path: str, elapsed: float) -> None:
        """Hook: one request overran ``request_deadline`` (subclasses
        count it; the base server just answers 504)."""

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)``; raises before :meth:`start`."""
        if self._httpd is None:
            raise RuntimeError(f"{type(self).__name__} is not running")
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- the route table -----------------------------------------------------

    def routes(self) -> dict[tuple[str, str], RouteHandler]:
        """``(method, path) -> handler``; subclasses extend the dict."""
        return {
            ("GET", "/metrics"): self._route_metrics,
            ("GET", "/metrics.json"): self._route_metrics_json,
            ("GET", "/healthz"): self._route_healthz,
            ("GET", "/healthz.json"): self._route_healthz_json,
        }

    def _route_metrics(self, query: dict, body: bytes | None) -> tuple:
        payload = render_prometheus(self.registry).encode("utf-8")
        return 200, "text/plain; version=0.0.4; charset=utf-8", payload

    def _route_metrics_json(self, query: dict, body: bytes | None) -> tuple:
        payload = json.dumps(
            snapshot(self.registry), indent=2, sort_keys=True
        ).encode("utf-8")
        return 200, "application/json", payload

    def _route_healthz(self, query: dict, body: bytes | None) -> tuple:
        text = self.health() if self.health is not None else "ok\n"
        return 200, "text/plain; charset=utf-8", text.encode("utf-8")

    def _route_healthz_json(self, query: dict, body: bytes | None) -> tuple:
        report = (
            self.health_json()
            if self.health_json is not None
            else {"status": "ok", "reasons": []}
        )
        payload = json.dumps(report, indent=2, sort_keys=True).encode("utf-8")
        return 200, "application/json", payload

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve from a daemon thread; returns the address."""
        if self._httpd is not None:
            return self.address
        routes = self.routes()
        deadline = self.request_deadline
        on_deadline = self._deadline_exceeded

        class Handler(BaseHTTPRequestHandler):
            def _dispatch(self, method: str) -> None:
                url = urlsplit(self.path)
                handler = routes.get((method, url.path))
                if handler is None:
                    self.send_error(404, "unknown path (try /metrics)")
                    return
                body: bytes | None = None
                if method == "POST":
                    length = int(self.headers.get("Content-Length") or 0)
                    body = self.rfile.read(length)
                started = time.monotonic()
                try:
                    response = handler(parse_qs(url.query), body)
                except RouteError as error:
                    payload = json.dumps({"error": error.message}).encode("utf-8")
                    self._reply(
                        error.status, "application/json", payload, error.headers
                    )
                    return
                elapsed = time.monotonic() - started
                if deadline is not None and elapsed > deadline:
                    on_deadline(method, url.path, elapsed)
                    payload = json.dumps(
                        {
                            "error": (
                                f"deadline exceeded: {method} {url.path} took "
                                f"{elapsed:.3f}s against a {deadline:.3f}s budget"
                            ),
                            # The handler DID run to completion — a write
                            # may be committed. Retry with the same
                            # idempotency key to learn the outcome safely.
                            "committed": "unknown",
                        }
                    ).encode("utf-8")
                    self._reply(504, "application/json", payload)
                    return
                status, ctype, payload = response[:3]
                headers = response[3] if len(response) > 3 else ()
                self._reply(status, ctype, payload, headers)

            def _reply(
                self,
                status: int,
                ctype: str,
                payload: bytes,
                headers=(),
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 (stdlib API)
                self._dispatch("GET")

            def do_POST(self) -> None:  # noqa: N802 (stdlib API)
                self._dispatch("POST")

            def log_message(self, format: str, *args: object) -> None:
                pass  # scrapes are high-frequency; stay silent

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_S},
            name=self.thread_name,
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Shut the endpoint down and join the serving thread."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def capacity_sweep(
    make_engine,
    posts: list[Post],
    *,
    algorithms: tuple[str, ...],
) -> list[dict[str, object]]:
    """Measure latency and sustainable speedup for several algorithms.

    ``make_engine(name)`` constructs a fresh engine per algorithm name;
    one row per algorithm is returned with the latency snapshot, raw
    throughput, and the sustainable real-time speedup.
    """
    rows: list[dict[str, object]] = []
    for name in algorithms:
        service = DiversificationService(make_engine(name))
        for post in posts:
            service.ingest(post)
        row: dict[str, object] = {"algorithm": name}
        row.update(service.latency.snapshot())
        row["throughput_posts_s"] = round(service.throughput_posts_per_second(), 0)
        row["sustainable_speedup"] = round(service.sustainable_speedup(), 0)
        rows.append(row)
    return rows
