"""Tests for the asyncio HTTP gateway (``repro.serving.gateway`` / ``.explain``).

Five surfaces:

* **HTTP protocol edge cases** — malformed framing, oversized/truncated
  bodies, unknown routes, wrong methods, bad addresses/hex: every failure
  must answer the correct 4xx with a structured ``{"error": {"code", …}}``
  JSON body (mirroring the JSON-RPC error-shape tests of PR 5).
* **Admission control** — deterministic token-bucket refill through an
  injected clock, bounded-queue load shedding (429 + ``Retry-After`` while
  in-flight requests still complete), request timeouts (504) that do not
  poison the micro-batcher, and graceful drain.
* **Explanations** — the per-model explainer cache builds exactly once,
  explanations are seed-deterministic, and runtime threshold changes flip
  the verdict without invalidating cached SHAP values.
* **Verdict shape** — probability, 0–100 score, threshold verdict, reasons.
* **Resolved lane** — verdict-cache hits are answered without a Task, a
  timer or ``wrap_future``, behind the same gates and telemetry as work
  that waits; the node fetch of ``/score/address`` runs off the loop.

Everything runs on the dependency-free ``event_loop_thread`` conftest
fixture (no pytest-asyncio): the server lives on a private loop thread and
tests speak real HTTP over ``http.client`` and raw sockets.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from collections import Counter
from dataclasses import asdict

import pytest

import numpy as np

from repro.analysis import StaticAnalyzer
from repro.chain import templates
from repro.chain.rpc import SimulatedEthereumNode
from repro.features.batch import BatchFeatureService
from repro.models.hsc import make_random_forest_hsc
from repro.monitor.pipeline import MonitorStats
from repro.serving import gateway as gateway_module
from repro.serving import (
    ExplainerCache,
    ExplanationService,
    Gateway,
    GatewayConfig,
    ScoringService,
    ServingConfig,
    TokenBucket,
)

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


class SlowDetector:
    """Wrap a fitted detector, delaying every vectorized model pass."""

    def __init__(self, detector, delay_s: float):
        self._detector = detector
        self._delay_s = delay_s

    def __getattr__(self, name):
        return getattr(self._detector, name)

    def predict_proba(self, bytecodes):
        time.sleep(self._delay_s)
        return self._detector.predict_proba(bytecodes)


@pytest.fixture(scope="module")
def module_service():
    return BatchFeatureService()


@pytest.fixture(scope="module")
def fitted_detector(dataset, module_service):
    detector = make_random_forest_hsc(seed=5)
    detector.feature_service = module_service
    detector.fit(dataset.bytecodes, dataset.labels)
    return detector


@pytest.fixture()
def node(corpus):
    return SimulatedEthereumNode.from_records(corpus.records)


@pytest.fixture()
def service(fitted_detector, node):
    config = ServingConfig(max_batch=32, max_wait_ms=1.0)
    with ScoringService(fitted_detector, node=node, config=config) as svc:
        yield svc


@pytest.fixture()
def start_gateway(event_loop_thread):
    """Factory starting gateways on the background loop; stops them after."""
    gateways = []

    def _start(service, config=None, **kwargs) -> Gateway:
        gateway = Gateway(service, config=config or GatewayConfig(), **kwargs)
        event_loop_thread.run(gateway.start())
        gateways.append(gateway)
        return gateway

    yield _start
    for gateway in gateways:
        event_loop_thread.run(gateway.stop())


@pytest.fixture()
def gateway(service, start_gateway) -> Gateway:
    return start_gateway(service)


@pytest.fixture()
def explainer(fitted_detector, dataset):
    return ExplanationService(
        fitted_detector,
        background=dataset.bytecodes[:12],
        top_k=4,
        n_permutations=2,
        max_background=4,
        seed=11,
    )


# ---------------------------------------------------------------------------
# HTTP helpers (stdlib only)
# ---------------------------------------------------------------------------


def request(port, method, path, body=None, headers=None, timeout=15.0):
    """One HTTP request via ``http.client``; returns (status, headers, json)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if isinstance(body, (dict, list)) else body
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        header_map = {name.lower(): value for name, value in response.getheaders()}
        return response.status, header_map, json.loads(data) if data else None
    finally:
        conn.close()


def raw_request(port, data: bytes, shutdown_write=False, timeout=10.0):
    """Send raw bytes, read to EOF; returns (status, headers, json).

    Only suitable for exchanges the server answers-and-closes (protocol
    errors, ``Connection: close`` requests).
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        if shutdown_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _parse_response(b"".join(chunks))


def _parse_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.lower()] = value.strip()
    return status, headers, json.loads(body) if body else None


def recv_response(sock):
    """Read one framed response off a kept-alive socket (by Content-Length)."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            break
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(rest) < length:
        rest += sock.recv(65536)
    return _parse_response(head + b"\r\n\r\n" + rest[:length])


def assert_error(result, status, code):
    """Every non-2xx body is the structured error envelope."""
    got_status, _, body = result
    assert got_status == status
    assert isinstance(body, dict) and "error" in body
    assert body["error"]["code"] == code
    assert body["error"]["message"]  # human-readable, never empty
    return body


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestGatewayConfig:
    def test_defaults_validate(self):
        config = GatewayConfig()
        assert config.max_inflight >= 1
        assert config.rate_limit_per_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backlog": 0},
            {"max_connections": 0},
            {"max_inflight": 0},
            {"rate_limit_per_s": -1.0},
            {"rate_burst": 0},
            {"request_timeout_s": 0.0},
            {"drain_timeout_s": -1.0},
            {"max_body_bytes": 0},
            {"max_header_bytes": 10},
            {"max_batch_items": 0},
            {"explain_top_k": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs)

    def test_free_port_fixture_binds_requested_port(
        self, service, start_gateway, free_port
    ):
        gateway = start_gateway(service, config=GatewayConfig(port=free_port))
        assert gateway.port == free_port
        status, _, body = request(free_port, "GET", "/healthz")
        assert status == 200 and body["status"] == "ok"


# ---------------------------------------------------------------------------
# protocol edge cases
# ---------------------------------------------------------------------------


class TestProtocolEdgeCases:
    def test_unknown_route_404(self, gateway):
        result = request(gateway.port, "GET", "/nope")
        assert_error(result, 404, "not_found")

    def test_wrong_method_405_lists_allowed(self, gateway):
        status, headers, body = request(gateway.port, "GET", "/score/bytecode")
        assert status == 405
        assert body["error"]["code"] == "method_not_allowed"
        assert headers["allow"] == "POST"

    def test_post_on_get_route_405(self, gateway):
        result = request(gateway.port, "POST", "/healthz", body={})
        assert_error(result, 405, "method_not_allowed")

    def test_malformed_request_line_400(self, gateway):
        result = raw_request(gateway.port, b"GARBAGE\r\n\r\n")
        assert_error(result, 400, "malformed_request")

    def test_unsupported_http_version_505(self, gateway):
        result = raw_request(gateway.port, b"GET /healthz HTTP/2.0\r\n\r\n")
        assert_error(result, 505, "http_version_unsupported")

    def test_malformed_header_400(self, gateway):
        result = raw_request(
            gateway.port, b"GET /healthz HTTP/1.1\r\nnot a header line\r\n\r\n"
        )
        assert_error(result, 400, "malformed_header")

    def test_post_without_content_length_411(self, gateway):
        result = raw_request(
            gateway.port,
            b"POST /score/bytecode HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        assert_error(result, 411, "length_required")

    def test_invalid_content_length_400(self, gateway):
        result = raw_request(
            gateway.port,
            b"POST /score/bytecode HTTP/1.1\r\ncontent-length: abc\r\n\r\n",
        )
        assert_error(result, 400, "invalid_content_length")

    def test_oversized_body_413(self, service, start_gateway):
        gateway = start_gateway(service, config=GatewayConfig(max_body_bytes=64))
        result = raw_request(
            gateway.port,
            b"POST /score/bytecode HTTP/1.1\r\ncontent-length: 5000\r\n\r\n",
        )
        assert_error(result, 413, "body_too_large")

    def test_truncated_body_400(self, gateway):
        result = raw_request(
            gateway.port,
            b"POST /score/bytecode HTTP/1.1\r\ncontent-length: 100\r\n\r\nabc",
            shutdown_write=True,
        )
        assert_error(result, 400, "truncated_body")

    def test_oversized_headers_431(self, service, start_gateway):
        gateway = start_gateway(service, config=GatewayConfig(max_header_bytes=256))
        filler = b"x-filler: " + b"a" * 1000 + b"\r\n"
        result = raw_request(
            gateway.port, b"GET /healthz HTTP/1.1\r\n" + filler + b"\r\n"
        )
        assert_error(result, 431, "headers_too_large")

    def test_get_with_body_400(self, gateway):
        result = request(gateway.port, "GET", "/healthz", body={"x": 1})
        assert_error(result, 400, "unexpected_body")

    def test_malformed_json_400(self, gateway):
        result = request(gateway.port, "POST", "/score/bytecode", body="{nope")
        assert_error(result, 400, "invalid_json")

    def test_non_object_json_400(self, gateway):
        result = request(gateway.port, "POST", "/score/bytecode", body=[1, 2])
        assert_error(result, 400, "invalid_request")

    def test_missing_bytecode_field_400(self, gateway):
        result = request(gateway.port, "POST", "/score/bytecode", body={})
        assert_error(result, 400, "invalid_request")

    def test_bad_hex_bytecode_400(self, gateway):
        result = request(
            gateway.port, "POST", "/score/bytecode", body={"bytecode": "0xzz"}
        )
        assert_error(result, 400, "invalid_bytecode")

    def test_invalid_address_400(self, gateway):
        result = request(
            gateway.port, "POST", "/score/address", body={"address": "0x1234"}
        )
        assert_error(result, 400, "invalid_address")

    def test_unknown_address_404(self, gateway):
        result = request(
            gateway.port, "POST", "/score/address", body={"address": "0x" + "ee" * 20}
        )
        assert_error(result, 404, "unknown_address")

    def test_address_without_node_503(self, fitted_detector, start_gateway):
        with ScoringService(fitted_detector) as nodeless:
            gateway = start_gateway(nodeless)
            result = request(
                gateway.port, "POST", "/score/address", body={"address": "0x" + "ee" * 20}
            )
            assert_error(result, 503, "no_node")

    def test_batch_non_list_400(self, gateway):
        result = request(
            gateway.port, "POST", "/score/batch", body={"bytecodes": "0x60"}
        )
        assert_error(result, 400, "invalid_request")

    def test_batch_too_large_413(self, service, start_gateway):
        gateway = start_gateway(service, config=GatewayConfig(max_batch_items=2))
        result = request(
            gateway.port, "POST", "/score/batch", body={"bytecodes": ["0x60"] * 3}
        )
        assert_error(result, 413, "batch_too_large")

    def test_batch_bad_item_400_names_index(self, gateway):
        result = request(
            gateway.port,
            "POST",
            "/score/batch",
            body={"bytecodes": ["0x6001", "0xzz"]},
        )
        body = assert_error(result, 400, "invalid_bytecode")
        assert "item 1" in body["error"]["message"]

    def test_non_boolean_explain_400(self, gateway):
        result = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x6001", "explain": "yes"},
        )
        assert_error(result, 400, "invalid_request")


# ---------------------------------------------------------------------------
# scoring surface
# ---------------------------------------------------------------------------


class TestScoring:
    def test_score_bytecode_matches_detector(self, gateway, fitted_detector, dataset):
        code = dataset.bytecodes[0]
        status, _, body = request(
            gateway.port, "POST", "/score/bytecode", body={"bytecode": "0x" + code.hex()}
        )
        assert status == 200
        expected = float(fitted_detector.predict_proba([code])[0, 1])
        assert body["probability"] == pytest.approx(expected, abs=0)

    def test_verdict_has_scanner_shape(self, gateway, dataset):
        code = dataset.bytecodes[1]
        status, _, body = request(
            gateway.port, "POST", "/score/bytecode", body={"bytecode": "0x" + code.hex()}
        )
        assert status == 200
        assert set(body) >= {
            "address", "probability", "score", "verdict", "threshold", "cached", "latency_ms",
        }
        assert body["score"] == int(round(body["probability"] * 100))
        assert 0 <= body["score"] <= 100
        assert body["verdict"] in ("phishing", "benign")
        assert (body["verdict"] == "phishing") == (
            body["probability"] >= body["threshold"]
        )

    def test_score_address_roundtrip(self, gateway, corpus, fitted_detector):
        record = corpus.records[0]
        status, _, body = request(
            gateway.port, "POST", "/score/address", body={"address": record.address}
        )
        assert status == 200
        assert body["address"] == record.address
        expected = float(fitted_detector.predict_proba([record.bytecode])[0, 1])
        assert body["probability"] == pytest.approx(expected, abs=0)

    def test_second_request_is_verdict_cache_hit(self, gateway, dataset):
        payload = {"bytecode": "0x" + dataset.bytecodes[2].hex()}
        first = request(gateway.port, "POST", "/score/bytecode", body=payload)[2]
        second = request(gateway.port, "POST", "/score/bytecode", body=payload)[2]
        assert not first["cached"]
        assert second["cached"]
        assert second["probability"] == first["probability"]

    def test_batch_preserves_order(self, gateway, fitted_detector, dataset):
        codes = dataset.bytecodes[:6]
        status, _, body = request(
            gateway.port,
            "POST",
            "/score/batch",
            body={"bytecodes": ["0x" + code.hex() for code in codes]},
        )
        assert status == 200
        assert body["count"] == len(codes)
        expected = fitted_detector.predict_proba(codes)[:, 1]
        got = [verdict["probability"] for verdict in body["verdicts"]]
        assert got == pytest.approx(list(expected), abs=0)

    def test_batch_empty_list_ok(self, gateway):
        status, _, body = request(
            gateway.port, "POST", "/score/batch", body={"bytecodes": []}
        )
        assert status == 200
        assert body == {"verdicts": [], "count": 0}

    def test_keep_alive_serves_two_requests_on_one_connection(self, gateway, dataset):
        conn = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=15)
        try:
            for code in dataset.bytecodes[:2]:
                conn.request(
                    "POST", "/score/bytecode", body=json.dumps({"bytecode": "0x" + code.hex()})
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()
        assert gateway.stats().connections == 1

    def test_healthz_ok(self, gateway):
        status, _, body = request(gateway.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_stats_surface_gateway_and_service(self, gateway, dataset):
        request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
        )
        status, _, body = request(gateway.port, "GET", "/stats")
        assert status == 200
        assert body["gateway"]["responses_ok"] >= 1
        assert body["gateway"]["requests"] >= 2
        assert body["gateway"]["peak_inflight"] >= 1
        assert body["service"]["requests"] >= 1
        assert "latency_ms_p99" in body["service"]
        assert "monitor" not in body
        assert "explain" not in body

    def test_stats_include_monitor_when_pipeline_attached(
        self, service, start_gateway
    ):
        class StubPipeline:
            def stats(self):
                return MonitorStats(
                    blocks_scanned=7,
                    contracts_scanned=21,
                    alerts_emitted=3,
                    alert_rate=3 / 21,
                    windows=2,
                    next_block=8,
                    reorgs_detected=0,
                    block_latency_ms_p50=1.0,
                    block_latency_ms_p95=2.0,
                    block_latency_ms_p99=2.5,
                    drift_windows=1,
                    drifted=False,
                    service=service.stats(),
                )

        gateway = start_gateway(service, pipeline=StubPipeline())
        status, _, body = request(gateway.port, "GET", "/stats")
        assert status == 200
        assert body["monitor"]["blocks_scanned"] == 7
        assert body["monitor"]["service"]["requests"] == body["service"]["requests"]

    def test_stats_include_explain_when_configured(
        self, service, start_gateway, explainer
    ):
        gateway = start_gateway(service, explainer=explainer)
        status, _, body = request(gateway.port, "GET", "/stats")
        assert status == 200
        assert body["explain"]["explainers_built"] == 0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_deterministic_refill_under_injected_clock(self):
        now = [0.0]
        bucket = TokenBucket(2.0, 4, clock=lambda: now[0])
        for _ in range(4):
            assert bucket.try_acquire("c") == 0.0
        assert bucket.try_acquire("c") == pytest.approx(0.5)
        now[0] += 0.25  # half a token refilled — still 0.25s short
        assert bucket.try_acquire("c") == pytest.approx(0.25)
        now[0] += 0.25
        assert bucket.try_acquire("c") == 0.0

    def test_burst_caps_accumulation(self):
        now = [0.0]
        bucket = TokenBucket(1.0, 2, clock=lambda: now[0])
        now[0] += 100.0  # a long-idle client still only gets `burst` tokens
        assert bucket.try_acquire("c") == 0.0
        assert bucket.try_acquire("c") == 0.0
        assert bucket.try_acquire("c") == pytest.approx(1.0)

    def test_clients_are_isolated(self):
        bucket = TokenBucket(1.0, 1, clock=lambda: 0.0)
        assert bucket.try_acquire("a") == 0.0
        assert bucket.try_acquire("a") > 0.0
        assert bucket.try_acquire("b") == 0.0

    def test_zero_rate_disables_limiting(self):
        bucket = TokenBucket(0.0, 1, clock=lambda: 0.0)
        assert all(bucket.try_acquire("c") == 0.0 for _ in range(100))

    def test_request_larger_than_burst_quotes_full_bucket(self):
        bucket = TokenBucket(1.0, 2, clock=lambda: 0.0)
        bucket.try_acquire("c", 2)
        assert bucket.try_acquire("c", 5) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"rate_per_s": -1.0}, {"burst": 0}, {"max_clients": 0}],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        defaults = {"rate_per_s": 1.0, "burst": 1, "max_clients": 10}
        with pytest.raises(ValueError):
            TokenBucket(**{**defaults, **kwargs})


class TestAdmissionControl:
    def test_rate_limited_429_with_deterministic_retry_after(
        self, service, start_gateway
    ):
        now = [0.0]
        config = GatewayConfig(rate_limit_per_s=1.0, rate_burst=2)
        gateway = start_gateway(service, config=config, clock=lambda: now[0])
        payload = {"bytecodes": []}
        assert request(gateway.port, "POST", "/score/batch", body=payload)[0] == 200
        assert request(gateway.port, "POST", "/score/batch", body=payload)[0] == 200
        result = request(gateway.port, "POST", "/score/batch", body=payload)
        body = assert_error(result, 429, "rate_limited")
        assert result[1]["retry-after"] == "1"
        now[0] += 1.0  # deterministic refill: exactly one token back
        assert request(gateway.port, "POST", "/score/batch", body=payload)[0] == 200
        assert gateway.stats().rate_limited == 1

    def test_rate_limit_keys_on_client_id_header(self, service, start_gateway):
        config = GatewayConfig(rate_limit_per_s=0.001, rate_burst=1)
        gateway = start_gateway(service, config=config)
        payload = {"bytecodes": []}
        headers_a = {"X-Client-Id": "wallet-a"}
        assert (
            request(gateway.port, "POST", "/score/batch", body=payload, headers=headers_a)[0]
            == 200
        )
        result = request(
            gateway.port, "POST", "/score/batch", body=payload, headers=headers_a
        )
        assert_error(result, 429, "rate_limited")
        assert int(result[1]["retry-after"]) >= 1
        # A different client is not collateral damage of a's limit.
        assert (
            request(
                gateway.port,
                "POST",
                "/score/batch",
                body=payload,
                headers={"X-Client-Id": "wallet-b"},
            )[0]
            == 200
        )

    def test_overload_sheds_429_while_inflight_completes(
        self, fitted_detector, start_gateway, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=0.5)
        config = ServingConfig(max_batch=4, max_wait_ms=1.0, verdict_cache_size=0)
        with ScoringService(slow, config=config) as service:
            gateway = start_gateway(
                service, config=GatewayConfig(max_inflight=1, request_timeout_s=10.0)
            )
            results = {}

            def first():
                results["first"] = request(
                    gateway.port,
                    "POST",
                    "/score/bytecode",
                    body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
                )

            thread = threading.Thread(target=first)
            thread.start()
            time.sleep(0.15)  # the first request is now inside the model pass
            shed = request(
                gateway.port,
                "POST",
                "/score/bytecode",
                body={"bytecode": "0x" + dataset.bytecodes[1].hex()},
            )
            body = assert_error(shed, 429, "overloaded")
            assert shed[1]["retry-after"] == "1"
            thread.join(timeout=10)
            # Shedding protected the admitted request: it still completed.
            assert results["first"][0] == 200
            stats = gateway.stats()
            assert stats.shed == 1
            assert stats.peak_inflight == 1

    def test_timeout_returns_504(self, fitted_detector, start_gateway, dataset):
        slow = SlowDetector(fitted_detector, delay_s=0.6)
        config = ServingConfig(max_batch=4, max_wait_ms=1.0)
        with ScoringService(slow, config=config) as service:
            gateway = start_gateway(
                service, config=GatewayConfig(request_timeout_s=0.1)
            )
            started = time.perf_counter()
            result = request(
                gateway.port,
                "POST",
                "/score/bytecode",
                body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
            )
            elapsed = time.perf_counter() - started
            assert_error(result, 504, "timeout")
            assert elapsed < 0.5  # answered at the budget, not after the model
            assert gateway.stats().timeouts == 1

    def test_timeout_does_not_poison_micro_batcher(
        self, fitted_detector, start_gateway, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=0.4)
        config = ServingConfig(max_batch=4, max_wait_ms=1.0)
        with ScoringService(slow, config=config) as service:
            gateway = start_gateway(
                service, config=GatewayConfig(request_timeout_s=0.1)
            )
            payload = {"bytecode": "0x" + dataset.bytecodes[0].hex()}
            assert request(gateway.port, "POST", "/score/bytecode", body=payload)[0] == 504
            time.sleep(0.6)  # the abandoned flush finishes and fills the cache
            status, _, body = request(
                gateway.port, "POST", "/score/bytecode", body=payload
            )
            assert status == 200
            # The timed-out request's work was not wasted: its probability
            # landed in the verdict cache, so the retry is a pure hit.
            assert body["cached"] is True

    def test_graceful_drain_finishes_inflight_work(
        self, fitted_detector, start_gateway, event_loop_thread, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=0.4)
        config = ServingConfig(max_batch=4, max_wait_ms=1.0, verdict_cache_size=0)
        with ScoringService(slow, config=config) as service:
            gateway = start_gateway(service)
            port = gateway.port
            results = {}

            def inflight():
                results["inflight"] = request(
                    port,
                    "POST",
                    "/score/bytecode",
                    body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
                )

            thread = threading.Thread(target=inflight)
            thread.start()
            time.sleep(0.15)  # request admitted, model pass running
            event_loop_thread.run(gateway.stop())  # blocks until drained
            thread.join(timeout=10)
            assert results["inflight"][0] == 200  # queued work finished
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=2)

    def test_draining_healthz_503_on_kept_alive_connection(
        self, fitted_detector, start_gateway, event_loop_thread, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=0.6)
        config = ServingConfig(max_batch=4, max_wait_ms=1.0, verdict_cache_size=0)
        with ScoringService(slow, config=config) as service:
            gateway = start_gateway(service)
            port = gateway.port
            keeper = socket.create_connection(("127.0.0.1", port), timeout=10)
            try:
                keeper.sendall(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                assert recv_response(keeper)[0] == 200

                def inflight():
                    request(
                        port,
                        "POST",
                        "/score/bytecode",
                        body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
                    )

                scorer = threading.Thread(target=inflight)
                scorer.start()
                time.sleep(0.15)
                stopper = threading.Thread(
                    target=lambda: event_loop_thread.run(gateway.stop())
                )
                stopper.start()
                time.sleep(0.1)  # drain has begun, the slow request holds it open
                keeper.sendall(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                status, _, body = recv_response(keeper)
                assert status == 503
                assert body["status"] == "draining"
                scorer.join(timeout=10)
                stopper.join(timeout=10)
            finally:
                keeper.close()

    def test_connection_cap_503(self, service, start_gateway):
        gateway = start_gateway(service, config=GatewayConfig(max_connections=1))
        holder = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
        try:
            holder.sendall(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            assert recv_response(holder)[0] == 200  # slot held by keep-alive
            result = request(gateway.port, "GET", "/healthz")
            assert_error(result, 503, "busy")
            assert gateway.stats().rejected_connections == 1
        finally:
            holder.close()


# ---------------------------------------------------------------------------
# explanations
# ---------------------------------------------------------------------------


class TestExplain:
    def test_explained_verdict_has_reasons(
        self, service, start_gateway, explainer, fitted_detector, dataset
    ):
        gateway = start_gateway(service, explainer=explainer)
        status, _, body = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + dataset.bytecodes[0].hex(), "explain": True},
        )
        assert status == 200
        reasons = body["reasons"]
        assert len(reasons) == gateway.config.explain_top_k
        names = set(fitted_detector.feature_names())
        magnitudes = [abs(reason["shap"]) for reason in reasons]
        assert magnitudes == sorted(magnitudes, reverse=True)
        for reason in reasons:
            assert reason["opcode"] in names
            assert reason["direction"] in ("phishing", "benign")
            assert isinstance(reason["count"], int)

    def test_second_explained_request_builds_zero_explainers(
        self, service, start_gateway, explainer, dataset
    ):
        gateway = start_gateway(service, explainer=explainer)
        payload = {"bytecode": "0x" + dataset.bytecodes[0].hex(), "explain": True}
        first = request(gateway.port, "POST", "/score/bytecode", body=payload)[2]
        assert explainer.stats().explainers_built == 1
        second = request(gateway.port, "POST", "/score/bytecode", body=payload)[2]
        stats = explainer.stats()
        # Counter-pinned: the second request performed zero constructions
        # and served its SHAP row from the memo.
        assert stats.explainers_built == 1
        assert stats.explanations == 1
        assert stats.memo_hits == 1
        assert second["reasons"] == first["reasons"]

    def test_explanations_deterministic_under_fixed_seed(
        self, fitted_detector, dataset
    ):
        def fresh():
            return ExplanationService(
                fitted_detector,
                background=dataset.bytecodes[:12],
                top_k=4,
                n_permutations=2,
                max_background=4,
                seed=11,
            )

        code = dataset.bytecodes[3]
        assert fresh().explain(code) == fresh().explain(code)

    def test_threshold_flip_keeps_cached_shap(
        self, service, start_gateway, explainer, dataset
    ):
        gateway = start_gateway(service, explainer=explainer)
        payload = {"bytecode": "0x" + dataset.bytecodes[0].hex(), "explain": True}
        service.decision_threshold = 1.0
        strict = request(gateway.port, "POST", "/score/bytecode", body=payload)[2]
        service.decision_threshold = 0.0
        lax = request(gateway.port, "POST", "/score/bytecode", body=payload)[2]
        # The runtime re-threshold flipped the verdict...
        assert strict["verdict"] == "benign" or strict["probability"] >= 1.0
        assert lax["verdict"] == "phishing"
        assert lax["threshold"] == 0.0
        # ...without invalidating the cached SHAP values: one construction,
        # identical reasons, and the re-request was a memo hit.
        assert explainer.stats().explainers_built == 1
        assert lax["reasons"] == strict["reasons"]
        assert explainer.stats().memo_hits >= 1

    def test_explain_unavailable_400(self, gateway, dataset):
        result = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + dataset.bytecodes[0].hex(), "explain": True},
        )
        assert_error(result, 400, "explain_unavailable")

    def test_explanation_service_rejects_featureless_detector(self, dataset):
        class Opaque:
            def predict_proba(self, bytecodes):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(TypeError, match="histogram"):
            ExplanationService(Opaque(), background=dataset.bytecodes[:4])

    def test_explanation_service_rejects_empty_background(self, fitted_detector):
        with pytest.raises(ValueError, match="background"):
            ExplanationService(fitted_detector, background=[])

    def test_explainer_cache_is_lru_with_build_counter(self):
        cache = ExplainerCache(capacity=1)
        assert cache.get("a", lambda: "explainer-a") == "explainer-a"
        assert cache.get("a", lambda: "rebuilt") == "explainer-a"
        assert cache.built == 1
        assert cache.get("b", lambda: "explainer-b") == "explainer-b"
        assert cache.built == 2
        assert len(cache) == 1  # "a" evicted
        assert cache.get("a", lambda: "explainer-a2") == "explainer-a2"
        assert cache.built == 3


# ---------------------------------------------------------------------------
# static analysis
# ---------------------------------------------------------------------------


def _backdoor_bytecode(seed=0):
    family = {f.name: f for f in templates.PHISHING_FAMILIES}["sweeper_backdoor"]
    return templates.build_family_bytecode(
        family, np.random.default_rng(seed), mix_bias={"selfdestruct": 50.0}
    )


class TestAnalyze:
    @pytest.fixture()
    def analyzer(self):
        return StaticAnalyzer(features=BatchFeatureService())

    def test_analyzed_verdict_carries_findings(
        self, service, start_gateway, analyzer
    ):
        gateway = start_gateway(service, analyzer=analyzer)
        status, _, body = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + _backdoor_bytecode().hex(), "analyze": True},
        )
        assert status == 200
        analysis = body["analysis"]
        assert analysis["max_severity"] == "high"
        rules = {finding["rule"] for finding in analysis["findings"]}
        assert "reachable-selfdestruct" in rules
        for finding in analysis["findings"]:
            assert set(finding) >= {"rule", "severity", "pc", "message"}
        assert analysis["metrics"]["unresolved_jumps"] == 0

    def test_unanalyzed_verdict_has_no_analysis_key(
        self, service, start_gateway, analyzer
    ):
        gateway = start_gateway(service, analyzer=analyzer)
        status, _, body = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + _backdoor_bytecode().hex()},
        )
        assert status == 200
        assert "analysis" not in body

    def test_analyze_address_resolves_chain_bytecode(
        self, service, start_gateway, analyzer, corpus
    ):
        gateway = start_gateway(service, analyzer=analyzer)
        record = corpus.records[0]
        status, _, body = request(
            gateway.port,
            "POST",
            "/score/address",
            body={"address": record.address, "analyze": True},
        )
        assert status == 200
        assert body["analysis"]["metrics"]["code_bytes"] > 0

    def test_analysis_unavailable_400(self, gateway):
        result = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + _backdoor_bytecode().hex(), "analyze": True},
        )
        assert_error(result, 400, "analysis_unavailable")

    def test_stats_include_analysis_section(self, service, start_gateway, analyzer):
        gateway = start_gateway(service, analyzer=analyzer)
        payload = {"bytecode": "0x" + _backdoor_bytecode().hex(), "analyze": True}
        request(gateway.port, "POST", "/score/bytecode", body=payload)
        request(gateway.port, "POST", "/score/bytecode", body=payload)
        status, _, body = request(gateway.port, "GET", "/stats")
        assert status == 200
        stats = body["analysis"]
        assert stats["analyses"] == 1
        assert stats["cache_hits"] == 1
        assert stats["high_severity"] >= 1

    def test_stats_without_analyzer_omit_section(self, gateway):
        status, _, body = request(gateway.port, "GET", "/stats")
        assert status == 200
        assert "analysis" not in body


# ---------------------------------------------------------------------------
# resolved lane: verdict-cache hits skip the asyncio scheduling machinery
# ---------------------------------------------------------------------------


class CountingAsyncio:
    """Stand-in for the gateway module's ``asyncio`` counting selected calls."""

    COUNTED = ("wrap_future", "timeout", "create_task", "ensure_future")

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(asyncio, name)
        if name not in self.COUNTED:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.fixture()
def counting_asyncio(monkeypatch):
    counter = CountingAsyncio()
    monkeypatch.setattr(gateway_module, "asyncio", counter)
    return counter


def post_bytecode(sock, code: bytes, **flags) -> tuple:
    """One ``/score/bytecode`` exchange on a kept-alive raw socket."""
    body = json.dumps({"bytecode": "0x" + code.hex(), **flags}).encode()
    sock.sendall(
        b"POST /score/bytecode HTTP/1.1\r\nhost: t\r\n"
        + f"content-length: {len(body)}\r\n\r\n".encode()
        + body
    )
    return recv_response(sock)


def bytecode_latency_count(port) -> int:
    """Observations of the ``/score/bytecode`` route latency histogram."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    needle = 'repro_gateway_request_latency_seconds_count{route="/score/bytecode"} '
    for line in text.splitlines():
        if line.startswith(needle):
            return int(float(line[len(needle):]))
    return 0


class SlowStage:
    """An explainer/analyzer stub whose every call outlasts the budget."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s

    def explain(self, code, top_k):
        time.sleep(self.delay_s)
        return []

    def analyze(self, code):
        time.sleep(self.delay_s)
        return None


class TestResolvedLane:
    def test_cache_hit_creates_no_task_timer_or_wrap_future(
        self, gateway, service, event_loop_thread, counting_asyncio, dataset
    ):
        cached, fresh = dataset.bytecodes[0], dataset.bytecodes[1]
        service.score(cached)
        created = []

        def counting_factory(loop, coro):
            created.append(coro)
            return asyncio.Task(coro, loop=loop)

        async def set_factory(factory):
            asyncio.get_running_loop().set_task_factory(factory)

        keeper = socket.create_connection(("127.0.0.1", gateway.port), timeout=10)
        try:
            keeper.sendall(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
            assert recv_response(keeper)[0] == 200  # connection task exists
            event_loop_thread.run(set_factory(counting_factory))
            try:
                status, _, body = post_bytecode(keeper, cached)
                tasks_on_hit = len(created)
            finally:
                event_loop_thread.run(set_factory(None))
            assert status == 200 and body["cached"] is True
            assert tasks_on_hit == 0
            assert sum(counting_asyncio.calls.values()) == 0

            # A miss still waits on the micro-batcher under the budget.
            status, _, body = post_bytecode(keeper, fresh)
            assert status == 200 and body["cached"] is False
            assert counting_asyncio.calls["wrap_future"] == 1
            assert counting_asyncio.calls["timeout"] == 1
        finally:
            keeper.close()

    def test_hit_feeds_peak_inflight_trace_slow_log_and_latency(
        self, service, start_gateway, dataset
    ):
        gateway = start_gateway(service, config=GatewayConfig(slow_request_ms=0.0))
        code = dataset.bytecodes[0]
        service.score(code)
        observed = bytecode_latency_count(gateway.port)
        status, _, body = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + code.hex(), "trace": True},
        )
        assert status == 200 and body["cached"] is True
        spans = [span["name"] for span in body["trace"]["spans"]]
        assert spans == ["gateway"]  # no batch span: it never queued
        stats = gateway.stats()
        assert stats.peak_inflight == 1
        assert stats.inflight == 0
        slow = request(gateway.port, "GET", "/debug/slow")[2]
        (entry,) = slow["entries"]
        assert entry["route"] == "/score/bytecode"
        assert entry["status"] == 200
        assert entry["trace_id"] == body["trace"]["trace_id"]
        assert [span["name"] for span in entry["spans"]] == ["gateway"]
        assert bytecode_latency_count(gateway.port) == observed + 1

    def test_hit_is_rate_limited_and_logged(self, service, start_gateway, dataset):
        now = [0.0]
        config = GatewayConfig(rate_limit_per_s=1.0, rate_burst=1, slow_request_ms=0.0)
        gateway = start_gateway(service, config=config, clock=lambda: now[0])
        code = dataset.bytecodes[0]
        service.score(code)
        payload = {"bytecode": "0x" + code.hex()}
        assert request(gateway.port, "POST", "/score/bytecode", body=payload)[0] == 200
        result = request(gateway.port, "POST", "/score/bytecode", body=payload)
        assert_error(result, 429, "rate_limited")
        assert result[1]["retry-after"] == "1"
        now[0] += 1.0
        assert request(gateway.port, "POST", "/score/bytecode", body=payload)[0] == 200
        assert gateway.stats().rate_limited == 1
        entries = request(gateway.port, "GET", "/debug/slow")[2]["entries"]
        assert [entry["status"] for entry in entries] == [200, 429, 200]

    def test_hit_is_shed_at_the_inflight_bound(
        self, fitted_detector, start_gateway, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=0.5)
        with ScoringService(slow, config=ServingConfig(max_wait_ms=1.0)) as service:
            cached = dataset.bytecodes[1]
            service.score(cached)
            gateway = start_gateway(service, config=GatewayConfig(max_inflight=1))
            results = {}

            def pending():
                results["pending"] = request(
                    gateway.port,
                    "POST",
                    "/score/bytecode",
                    body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
                )

            thread = threading.Thread(target=pending)
            thread.start()
            time.sleep(0.15)  # the miss holds the only inflight slot
            shed = request(
                gateway.port,
                "POST",
                "/score/bytecode",
                body={"bytecode": "0x" + cached.hex()},
            )
            assert_error(shed, 429, "overloaded")
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert results["pending"][0] == 200
            stats = gateway.stats()
            assert stats.shed == 1
            assert stats.peak_inflight == 1

    def test_hit_answers_503_while_draining(
        self, fitted_detector, start_gateway, event_loop_thread, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=0.6)
        with ScoringService(slow, config=ServingConfig(max_wait_ms=1.0)) as service:
            cached = dataset.bytecodes[1]
            service.score(cached)
            gateway = start_gateway(service)
            port = gateway.port
            keeper = socket.create_connection(("127.0.0.1", port), timeout=10)
            try:
                assert post_bytecode(keeper, cached)[0] == 200
                scorer = threading.Thread(
                    target=lambda: request(
                        port,
                        "POST",
                        "/score/bytecode",
                        body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
                    )
                )
                scorer.start()
                time.sleep(0.15)
                stopper = threading.Thread(
                    target=lambda: event_loop_thread.run(gateway.stop())
                )
                stopper.start()
                time.sleep(0.1)  # drain has begun, the miss holds it open
                status, headers, body = post_bytecode(keeper, cached)
                assert status == 503
                assert body["error"]["code"] == "draining"
                assert headers["connection"] == "close"
                scorer.join(timeout=10)
                stopper.join(timeout=10)
                assert not scorer.is_alive() and not stopper.is_alive()
            finally:
                keeper.close()

    @pytest.mark.parametrize("flag", ["explain", "analyze"])
    def test_hit_with_explain_or_analyze_waits_under_the_budget(
        self, service, start_gateway, counting_asyncio, dataset, flag
    ):
        stage = SlowStage(delay_s=0.5)
        gateway = start_gateway(
            service,
            config=GatewayConfig(request_timeout_s=0.1),
            **{"explainer" if flag == "explain" else "analyzer": stage},
        )
        code = dataset.bytecodes[0]
        service.score(code)
        started = time.perf_counter()
        result = request(
            gateway.port,
            "POST",
            "/score/bytecode",
            body={"bytecode": "0x" + code.hex(), flag: True},
        )
        assert_error(result, 504, "timeout")
        assert time.perf_counter() - started < 0.45  # answered at the budget
        assert gateway.stats().timeouts == 1
        assert counting_asyncio.calls["timeout"] == 1
        assert counting_asyncio.calls["wrap_future"] == 0  # verdict was ready


class TestWaitingLane:
    def test_stop_cancelling_a_pending_verdict_is_not_a_timeout(
        self, fitted_detector, start_gateway, event_loop_thread, dataset
    ):
        slow = SlowDetector(fitted_detector, delay_s=1.0)
        with ScoringService(slow, config=ServingConfig(max_wait_ms=1.0)) as service:
            gateway = start_gateway(
                service,
                config=GatewayConfig(request_timeout_s=10.0, drain_timeout_s=0.05),
            )
            outcome = {}

            def pending():
                try:
                    outcome["result"] = request(
                        gateway.port,
                        "POST",
                        "/score/bytecode",
                        body={"bytecode": "0x" + dataset.bytecodes[0].hex()},
                    )
                except (http.client.HTTPException, OSError) as exc:
                    outcome["error"] = exc

            thread = threading.Thread(target=pending)
            thread.start()
            time.sleep(0.2)  # the verdict is pending inside the model pass
            event_loop_thread.run(gateway.stop())
            thread.join(timeout=10)
            assert not thread.is_alive()
            # Torn down by the drain, not answered: no 504 was sent.
            assert "error" in outcome
            stats = gateway.stats()
            assert stats.timeouts == 0
            assert stats.inflight == 0
            assert stats.responses_server_error == 0


class StalledNode:
    """An RPC node whose ``get_code`` blocks until released."""

    def __init__(self, code: bytes):
        self.code = code
        self.entered = threading.Event()
        self.release = threading.Event()

    def get_code(self, address: str) -> bytes:
        self.entered.set()
        self.release.wait(timeout=10)
        return self.code


class TestAddressFetch:
    def test_stalled_node_answers_504_without_freezing_the_loop(
        self, fitted_detector, start_gateway, dataset
    ):
        node = StalledNode(dataset.bytecodes[0])
        with ScoringService(fitted_detector, node=node) as service:
            gateway = start_gateway(
                service, config=GatewayConfig(request_timeout_s=0.5)
            )
            results = {}

            def stalled():
                results["stalled"] = request(
                    gateway.port,
                    "POST",
                    "/score/address",
                    body={"address": "0x" + "ab" * 20},
                )

            thread = threading.Thread(target=stalled)
            thread.start()
            try:
                assert node.entered.wait(timeout=10)
                started = time.perf_counter()
                status, _, body = request(gateway.port, "GET", "/healthz")
                assert status == 200 and body["inflight"] == 1
                assert time.perf_counter() - started < 0.4  # not behind the fetch
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert_error(results["stalled"], 504, "timeout")
                assert gateway.stats().timeouts == 1
            finally:
                node.release.set()
                thread.join(timeout=10)


# ---------------------------------------------------------------------------
# response encoding
# ---------------------------------------------------------------------------


class TestResponseEncoding:
    def test_shared_encoder_matches_json_dumps(self, gateway, service, dataset):
        verdict = gateway_module.Gateway._verdict_payload(
            service.score(dataset.bytecodes[0]), "0x" + "12" * 20
        )
        error = gateway_module._HttpError(429, "overloaded", "at capacity")
        stats = {
            "gateway": asdict(gateway.stats()),
            "service": asdict(service.stats()),
            "numpy": {
                "count": np.int64(7),
                "share": np.float32(0.25),
                "ratio": np.float64(1 / 3),
                "rows": np.arange(4, dtype=np.int32),
                "grid": np.linspace(0.0, 1.0, 6).reshape(2, 3),
            },
        }
        for payload in (verdict, error.response.payload, stats):
            expected = json.dumps(payload, default=gateway_module._json_default)
            encoded = gateway_module._Response(200, payload).encode(True)
            assert encoded.endswith(b"\r\n\r\n" + expected.encode("utf-8"))
            assert f"content-length: {len(expected)}".encode() in encoded
