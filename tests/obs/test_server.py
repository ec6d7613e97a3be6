"""MetricsServer: the stdlib HTTP scrape endpoint."""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.authors import AuthorGraph
from repro.core import Post, Thresholds, make_diversifier
from repro.obs import Registry
from repro.service import DiversificationService, MetricsServer


def _service() -> DiversificationService:
    graph = AuthorGraph(nodes=[1, 2], edges=[(1, 2)])
    engine = make_diversifier("unibin", Thresholds(lambda_t=10.0), graph)
    return DiversificationService(engine)


def _ingest(service: DiversificationService, n: int, start: int = 0) -> None:
    for i in range(start, start + n):
        service.ingest(
            Post(post_id=i, author=1 + i % 2, text=f"t{i}", timestamp=float(i), fingerprint=i)
        )


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read()


def test_routes_and_live_scrape():
    service = _service()
    with service.serve_metrics() as server:
        _ingest(service, 25)
        text = _get(server.url + "/metrics").decode()
        assert 'repro_offers_total{engine="unibin",decision="admitted"}' in text
        assert 'repro_offer_latency_seconds_bucket{engine="unibin",le="+Inf"} 25' in text
        assert "repro_service_decisions_total 25" in text

        snap = json.loads(_get(server.url + "/metrics.json"))
        names = {m["name"] for m in snap["metrics"]}
        assert "repro_comparisons_total" in names

        assert _get(server.url + "/healthz") == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/unknown")
        assert excinfo.value.code == 404


def test_serve_metrics_binds_a_registry_on_demand():
    service = _service()
    assert service.registry is None
    server = service.serve_metrics()
    try:
        assert isinstance(service.registry, Registry)
        # A second scrape sees counters advance: callbacks are live.
        _ingest(service, 3)
        assert "repro_service_decisions_total 3" in _get(server.url + "/metrics").decode()
        _ingest(service, 2, start=3)
        assert "repro_service_decisions_total 5" in _get(server.url + "/metrics").decode()
    finally:
        server.stop()


def test_stop_releases_the_port():
    registry = Registry()
    server = MetricsServer(registry)
    host, port = server.start()
    assert server.start() == (host, port)  # idempotent while running
    server.stop()
    server.stop()  # idempotent when stopped
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=0.5).close()
    with pytest.raises(RuntimeError):
        _ = server.address


def test_stop_after_a_scrape_returns_within_the_shutdown_poll():
    # The serving thread re-enters its poll right after handing the scrape
    # to a request thread, so stop() waits out nearly one whole interval.
    server = MetricsServer(Registry())
    server.start()
    assert _get(server.url + "/healthz") == b"ok\n"
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.4


def test_explicit_registry_is_served():
    registry = Registry()
    registry.counter("custom_total", "Custom").labels().inc(7)
    with MetricsServer(registry) as server:
        assert "custom_total 7" in _get(server.url + "/metrics").decode()


def test_unknown_method_on_known_path_is_404():
    # /metrics only routes GET; a POST to it falls off the route table.
    with MetricsServer(Registry()) as server:
        request = urllib.request.Request(
            server.url + "/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404


def test_query_strings_do_not_break_routing():
    with MetricsServer(Registry()) as server:
        assert b"ok" in _get(server.url + "/healthz?verbose=1&x=y")


def test_concurrent_scrapes_all_succeed():
    import threading

    service = _service()
    with service.serve_metrics() as server:
        _ingest(service, 10)
        failures: list[str] = []

        def scrape() -> None:
            try:
                for _ in range(10):
                    body = _get(server.url + "/metrics").decode()
                    assert "repro_service_decisions_total 10" in body
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        threads = [threading.Thread(target=scrape) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert failures == []


def test_degraded_health_body_while_shedding():
    from repro.resilience import OverloadController

    graph = AuthorGraph(nodes=[1, 2], edges=[(1, 2)])
    engine = make_diversifier("unibin", Thresholds(lambda_t=10.0), graph)
    controller = OverloadController(max_delay=1.0)
    service = DiversificationService(engine, overload=controller)
    with service.serve_metrics() as server:
        assert _get(server.url + "/healthz") == b"ok\n"
        controller.set_memory_pressure(True)
        body = _get(server.url + "/healthz").decode()
        assert body.startswith("degraded:")
        assert "shedding arrivals (memory pressure" in body
        report = json.loads(_get(server.url + "/healthz.json"))
        assert report["status"] == "degraded"
        assert report["shedding"]["shedding"] is True
        controller.set_memory_pressure(False)
        controller.should_shed(0.0)  # hysteresis releases below resume
        assert _get(server.url + "/healthz") == b"ok\n"
