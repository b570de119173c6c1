"""Async HTTP gateway: the network front door of the scoring service.

:class:`Gateway` is an HTTP/1.1 server built on stdlib ``asyncio`` streams
(no third-party dependencies) in front of one
:class:`~repro.serving.ScoringService`.  It turns the in-process serving
stack into something that can actually take traffic, with the production
posture a public scoring endpoint needs: per-client rate limiting, bounded
admission that fast-fails with 429 instead of collapsing latency, per-request
timeouts, and a graceful drain.

Endpoints
---------

========================  ======================================================
``POST /score/address``   ``{"address": "0x…", "explain": false, "analyze":
                          false, "trace": false}`` → verdict
``POST /score/bytecode``  ``{"bytecode": "0x…", "explain": false, "analyze":
                          false, "trace": false}`` → verdict
``POST /score/batch``     ``{"bytecodes": ["0x…", …]}`` → ``{"verdicts": […]}``
``GET /healthz``          liveness (``503`` while draining)
``GET /stats``            gateway + service (+ monitor, + multichain,
                          + explain, + analysis)
``GET /metrics``          Prometheus text exposition of the whole stack
                          (see :mod:`repro.obs`)
``GET /debug/slow``       recent slow requests with their span breakdowns
========================  ======================================================

Verdicts follow the scanner-backend shape (probability, 0–100 ``score``,
threshold ``verdict``), and ``"explain": true`` adds the top contributing
opcodes through the per-model :mod:`~repro.serving.explain` cache::

    $ curl -s localhost:8199/score/bytecode \\
          -d '{"bytecode": "0x6001600201", "explain": true}'
    {"address": null, "probability": 0.93, "score": 93, "verdict": "phishing",
     "threshold": 0.5, "cached": false, "latency_ms": 1.8,
     "reasons": [{"opcode": "CALLER", "shap": 0.21, "count": 4,
                  "direction": "phishing"}, …]}

``"analyze": true`` attaches the structural static-analysis report of the
:mod:`repro.analysis` plane — lint findings (reachable ``SELFDESTRUCT``,
balance sweeps, hidden redirects, proxy forwarding with resolved
implementations, …) plus per-contract CFG metrics — under ``"analysis"``,
so one verdict carries both the model's SHAP reasons and the
rule-engine's evidence.  The analyzer shares the scoring service's cached
disassembly, so the extra report costs no second kernel pass on warm
content.

Errors are structured JSON, mirroring the simulated node's JSON-RPC error
envelope: every non-2xx body is ``{"error": {"code": "<slug>", "message":
"<human text>"}}`` with a matching HTTP status.

Admission control
-----------------

A scoring request passes three gates before it touches the micro-batcher:

1. **connection bound** — beyond ``max_connections`` concurrent sockets the
   gateway answers ``503`` immediately instead of queueing accepts;
2. **token bucket** — per-client (``X-Client-Id`` header, else peer host)
   refill at ``rate_limit_per_s`` with ``rate_burst`` capacity; over-rate
   requests get ``429`` with a deterministic ``Retry-After``;
3. **inflight bound** — at most ``max_inflight`` admitted scoring requests
   at a time; excess load is shed as fast ``429``s, so p99 of the admitted
   stays bounded instead of every request sharing a collapsing queue.

A verdict the cache already holds is answered inline once the request is
admitted: no Task, no timer and no hop back from another thread, so it never
arms the request budget.  Only work that waits — a verdict the micro-batcher
still has to compute, an explanation, an analysis, a ``/score/batch`` pass,
or the node fetch of ``/score/address`` — runs under ``request_timeout_s``.
A timeout answers ``504`` and *abandons* the scoring future — the
micro-batcher detects the cancelled future, skips resolving it, and still
caches the computed probability, so an expired request never poisons its
batch and a retry is a verdict-cache hit.

:meth:`Gateway.stop` drains gracefully: the listening socket closes first,
in-flight requests run to completion (new requests on kept-alive connections
get ``503 draining``), then idle connections are torn down.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
import threading
import time
from dataclasses import asdict, dataclass
from typing import Awaitable, Callable, Dict, Optional, Tuple

import numpy as np

from ..chain.addresses import is_valid_address
from ..evm.disassembler import normalize_bytecode
from ..evm.errors import BytecodeFormatError
from ..obs import trace as obs_trace
from ..obs.bridge import (
    analysis_collector,
    explain_collector,
    gateway_collector,
    multichain_collector,
    pipeline_collector,
)
from ..obs.metrics import MetricsRegistry
from ..obs.trace import SlowRequestLog
from .explain import ExplanationService
from .service import ScoringService, Verdict

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of one :class:`Gateway` deployment.

    Args:
        host: Bind host.
        port: Bind port (``0`` picks a free one; see :attr:`Gateway.port`).
        backlog: Listen backlog of the accept socket.
        max_connections: Concurrent-connection cap; excess connections are
            answered ``503`` and closed instead of queueing.
        max_inflight: Concurrent *admitted* scoring requests; excess is shed
            as fast ``429``s (the load-shedding bound).
        rate_limit_per_s: Per-client token-bucket refill rate; ``0``
            disables rate limiting.
        rate_burst: Token-bucket capacity (burst size) per client.
        request_timeout_s: Budget of the work an admitted scoring request
            waits for (node fetch, micro-batcher, explanation, analysis,
            batch pass); expiry answers ``504``.  A verdict already in the
            cache is answered without arming it.
        drain_timeout_s: How long :meth:`Gateway.stop` waits for in-flight
            requests before tearing connections down.
        max_body_bytes: Largest accepted request body (``413`` beyond).
        max_header_bytes: Largest accepted request head (``431`` beyond).
        max_batch_items: Largest accepted ``/score/batch`` list (``413``).
        explain_top_k: Reasons per explained verdict.
        slow_request_ms: Scoring requests at or above this total latency
            are recorded (trace id, route, status, span breakdown) in the
            ring buffer behind ``GET /debug/slow``.
        slow_log_size: Capacity of that ring buffer (newest entries win).
    """

    host: str = "127.0.0.1"
    port: int = 0
    backlog: int = 1024
    max_connections: int = 2048
    max_inflight: int = 64
    rate_limit_per_s: float = 0.0
    rate_burst: int = 16
    request_timeout_s: float = 10.0
    drain_timeout_s: float = 5.0
    max_body_bytes: int = 1_048_576
    max_header_bytes: int = 16_384
    max_batch_items: int = 256
    explain_top_k: int = 5
    slow_request_ms: float = 250.0
    slow_log_size: int = 128

    def __post_init__(self) -> None:
        if self.backlog < 1:
            raise ValueError("backlog must be >= 1")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.rate_limit_per_s < 0:
            raise ValueError("rate_limit_per_s must be >= 0")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.max_header_bytes < 64:
            raise ValueError("max_header_bytes must be >= 64")
        if self.max_batch_items < 1:
            raise ValueError("max_batch_items must be >= 1")
        if self.explain_top_k < 1:
            raise ValueError("explain_top_k must be >= 1")
        if self.slow_request_ms < 0:
            raise ValueError("slow_request_ms must be >= 0")
        if self.slow_log_size < 1:
            raise ValueError("slow_log_size must be >= 1")


@dataclass(frozen=True)
class GatewayStats:
    """Telemetry snapshot of one :class:`Gateway`.

    ``rate_limited`` and ``shed`` partition the 429s (over-rate clients vs.
    load shedding at the inflight bound); ``peak_inflight`` never exceeding
    ``max_inflight`` is the no-unbounded-queue-growth invariant the
    saturation benchmark pins.
    """

    connections: int
    rejected_connections: int
    requests: int
    responses_ok: int
    responses_client_error: int
    responses_server_error: int
    rate_limited: int
    shed: int
    timeouts: int
    inflight: int
    peak_inflight: int
    draining: bool


class TokenBucket:
    """Per-client token buckets with an injectable monotonic clock.

    ``try_acquire`` is deterministic given the clock: it refills the
    client's bucket to ``min(burst, tokens + elapsed * rate)``, admits when
    enough tokens are present, and otherwise returns the exact seconds until
    they would be — the gateway's ``Retry-After``.  A zero rate disables
    limiting (every call admits).  Client state is LRU-bounded so an open
    endpoint cannot grow memory with one bucket per spoofed client id.
    """

    def __init__(
        self,
        rate_per_s: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 65_536,
    ):
        if rate_per_s < 0:
            raise ValueError("rate_per_s must be >= 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self.rate = float(rate_per_s)
        self.burst = float(burst)
        self.clock = clock
        self.max_clients = max_clients
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._lock = threading.Lock()

    def try_acquire(self, client: str, tokens: int = 1) -> float:
        """Admit ``tokens`` for ``client`` now, or say how long to wait.

        Returns ``0.0`` when admitted; otherwise the (positive) seconds
        until the bucket would hold ``tokens``.  Requests larger than the
        burst capacity can never be admitted; they are quoted the wait for
        a full bucket.
        """
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        if self.rate == 0:
            return 0.0
        now = self.clock()
        with self._lock:
            level, stamp = self._buckets.get(client, (self.burst, now))
            level = min(self.burst, level + (now - stamp) * self.rate)
            need = min(float(tokens), self.burst)
            if level >= tokens:
                self._buckets[client] = (level - tokens, now)
                self._evict()
                return 0.0
            self._buckets[client] = (level, now)
            self._evict()
            return (need - level) / self.rate

    def _evict(self) -> None:
        while len(self._buckets) > self.max_clients:
            self._buckets.pop(next(iter(self._buckets)))


@dataclass
class _Request:
    """One parsed HTTP request."""

    method: str
    path: str
    version: str
    headers: Dict[str, str]
    body: bytes
    client: str
    keep_alive: bool


@dataclass
class _Response:
    """One HTTP response about to be written.

    Bodies are JSON (``payload``) by default; ``text`` carries a raw
    non-JSON body instead (the Prometheus exposition of ``/metrics``),
    with ``content_type`` naming its media type.
    """

    status: int
    payload: Optional[dict]
    headers: Tuple[Tuple[str, str], ...] = ()
    close: bool = False
    text: Optional[str] = None
    content_type: str = "application/json"

    def encode(self, keep_alive: bool) -> bytes:
        if self.text is not None:
            body = self.text.encode("utf-8")
        else:
            body = _JSON_ENCODER.encode(self.payload).encode("utf-8")
        keep = keep_alive and not self.close
        lines = [
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown')}",
            f"content-type: {self.content_type}",
            f"content-length: {len(body)}",
            f"connection: {'keep-alive' if keep else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def _json_default(value):
    """Serialize the numpy scalars that leak out of the stats dataclasses."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


# ``json.dumps(..., default=...)`` builds a new encoder on every call; the
# encoder holds only its settings, so one serves every response.
_JSON_ENCODER = json.JSONEncoder(default=_json_default)


class _HttpError(Exception):
    """A request that must be answered with a structured 4xx/5xx."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        headers: Tuple[Tuple[str, str], ...] = (),
        close: bool = False,
    ):
        super().__init__(f"{status} {code}: {message}")
        self.response = _Response(
            status=status,
            payload={"error": {"code": code, "message": message}},
            headers=headers,
            close=close,
        )


class Gateway:
    """The asyncio HTTP front end of one :class:`ScoringService`.

    Args:
        service: The scoring service verdicts come from (address ingest uses
            its ``node``; its ``decision_threshold`` stays runtime-mutable
            underneath the gateway).
        config: Gateway knobs (defaults to :class:`GatewayConfig`'s
            defaults).
        explainer: Optional :class:`~repro.serving.explain
            .ExplanationService`; without one, ``"explain": true`` requests
            are rejected with ``400 explain_unavailable``.
        analyzer: Optional :class:`~repro.analysis.StaticAnalyzer`; without
            one, ``"analyze": true`` requests are rejected with
            ``400 analysis_unavailable``.
        pipeline: Optional :class:`~repro.monitor.MonitorPipeline` whose
            :class:`~repro.monitor.MonitorStats` should appear under
            ``"monitor"`` in ``GET /stats``.
        monitor: Optional :class:`~repro.monitor.MultiChainMonitor` whose
            aggregate :class:`~repro.monitor.MultiChainStats` (per-chain
            roll-up + shared-service telemetry) should appear under
            ``"multichain"`` in ``GET /stats``.
        clock: Monotonic clock injected into the rate limiter (tests pin
            deterministic refill through it).
        registry: :class:`~repro.obs.metrics.MetricsRegistry` served at
            ``GET /metrics``.  Defaults to the scoring service's registry,
            so one scrape covers the gateway and everything beneath it;
            every attached subsystem (explainer, analyzer, pipeline,
            multichain monitor) registers a scrape-time collector here.

    All request handling runs on the event loop :meth:`start` was awaited
    on; the admission counters are therefore loop-confined and lock-free.
    ``stats()`` may be read from any thread (snapshot of plain ints).
    """

    def __init__(
        self,
        service: ScoringService,
        config: Optional[GatewayConfig] = None,
        explainer: Optional[ExplanationService] = None,
        analyzer=None,
        pipeline=None,
        monitor=None,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.service = service
        self.config = config or GatewayConfig()
        self.explainer = explainer
        self.analyzer = analyzer
        self.pipeline = pipeline
        self.monitor = monitor
        self.registry = registry if registry is not None else service.registry
        self.slow_log = SlowRequestLog(
            capacity=self.config.slow_log_size,
            threshold_ms=self.config.slow_request_ms,
        )
        self._bucket = TokenBucket(
            self.config.rate_limit_per_s, self.config.rate_burst, clock=clock
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._draining = False
        self._connections = 0
        self._active = 0  # requests between parse and response write
        self._inflight = 0  # admitted scoring requests
        self._peak_inflight = 0
        self._total_connections = 0
        self._rejected_connections = 0
        self._requests = 0
        self._responses = [0, 0, 0]  # 2xx, 4xx, 5xx
        self._rate_limited = 0
        self._shed = 0
        self._timeouts = 0
        self._routes: Dict[str, Dict[str, Callable[[_Request], Awaitable[_Response]]]] = {
            "/score/address": {"POST": self._score_address},
            "/score/bytecode": {"POST": self._score_bytecode},
            "/score/batch": {"POST": self._score_batch},
            "/healthz": {"GET": self._healthz},
            "/stats": {"GET": self._stats_endpoint},
            "/metrics": {"GET": self._metrics_endpoint},
            "/debug/slow": {"GET": self._debug_slow},
        }
        self._request_latency = self.registry.histogram(
            "repro_gateway_request_latency_seconds",
            "End-to-end request handling latency by route.",
            ("route",),
        )
        self.registry.register_collector("gateway", gateway_collector(self))
        if explainer is not None:
            self.registry.register_collector("explain", explain_collector(explainer))
        if analyzer is not None:
            self.registry.register_collector("analysis", analysis_collector(analyzer))
        if pipeline is not None:
            self.registry.register_collector("monitor", pipeline_collector(pipeline))
        if monitor is not None:
            self.registry.register_collector(
                "multichain", multichain_collector(monitor)
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("gateway is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the gateway is listening on."""
        return (self.config.host, self.port)

    async def start(self) -> "Gateway":
        """Bind and start serving on the current event loop."""
        if self._server is not None:
            raise RuntimeError("gateway is already running")
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.config.host,
            port=self.config.port,
            backlog=self.config.backlog,
            limit=max(self.config.max_header_bytes, 65_536),
        )
        return self

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, then close connections.

        The listening socket closes first (new connections are refused),
        in-flight requests get up to ``drain_timeout_s`` to complete —
        requests arriving on kept-alive connections during the drain are
        answered ``503 draining`` — and finally idle connections are torn
        down.  Idempotent.
        """
        if self._server is None:
            return
        self._draining = True
        server, self._server = self._server, None
        server.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while self._active > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._total_connections += 1
        try:
            if self._connections >= self.config.max_connections or self._draining:
                self._rejected_connections += 1
                await self._write(
                    writer,
                    _Response(
                        503,
                        {"error": {"code": "busy", "message": "connection limit reached"}},
                        close=True,
                    ),
                    keep_alive=False,
                )
                return
            self._connections += 1
            try:
                await self._serve_requests(reader, writer)
            finally:
                self._connections -= 1
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:  # drain teardown of an idle connection
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _serve_requests(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else "unknown"
        while True:
            try:
                request = await self._read_request(reader, peer_host)
            except _HttpError as exc:
                # Framing is unreliable after a protocol error: answer, then
                # close regardless of keep-alive.
                self._active += 1
                try:
                    exc.response.close = True
                    await self._write(writer, exc.response, keep_alive=False)
                finally:
                    self._active -= 1
                return
            if request is None:
                return
            self._requests += 1
            self._active += 1
            handling_started = time.perf_counter()
            try:
                try:
                    response = await self._dispatch(request)
                except _HttpError as exc:
                    response = exc.response
                except Exception as exc:  # surface, never hang the socket
                    response = _Response(
                        500,
                        {"error": {"code": "internal", "message": str(exc)}},
                        close=True,
                    )
                # Unrouted paths collapse into one label so a scanner
                # probing random URLs cannot grow the series cardinality.
                route = request.path if request.path in self._routes else "other"
                self._request_latency.observe(
                    time.perf_counter() - handling_started, route=route
                )
                keep = request.keep_alive and not response.close and not self._draining
                await self._write(writer, response, keep_alive=keep)
            finally:
                self._active -= 1
            if not keep:
                return

    async def _write(self, writer, response: _Response, keep_alive: bool) -> None:
        bucket = response.status // 100
        if bucket == 2:
            self._responses[0] += 1
        elif bucket == 4:
            self._responses[1] += 1
        else:
            self._responses[2] += 1
        writer.write(response.encode(keep_alive))
        await writer.drain()

    async def _read_request(self, reader, peer_host: str) -> Optional[_Request]:
        """Parse one request off the stream (``None`` on clean EOF)."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise _HttpError(
                400, "truncated_request", "connection closed mid-request-head"
            )
        except asyncio.LimitOverrunError:
            raise _HttpError(
                431,
                "headers_too_large",
                f"request head exceeds {self.config.max_header_bytes} bytes",
            )
        if len(head) > self.config.max_header_bytes:
            raise _HttpError(
                431,
                "headers_too_large",
                f"request head exceeds {self.config.max_header_bytes} bytes",
            )
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise _HttpError(400, "malformed_request", "undecodable request head")
        request_line, *header_lines = text.split("\r\n")[:-2]
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _HttpError(
                400, "malformed_request", f"malformed request line: {request_line!r}"
            )
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise _HttpError(
                505, "http_version_unsupported", f"unsupported version {version!r}"
            )
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator or not name.strip():
                raise _HttpError(400, "malformed_header", f"malformed header {line!r}")
            headers[name.strip().lower()] = value.strip()

        body = b""
        declared = headers.get("content-length")
        if method == "POST":
            if declared is None:
                raise _HttpError(
                    411, "length_required", "POST requires a Content-Length header"
                )
            try:
                length = int(declared)
                if length < 0:
                    raise ValueError
            except ValueError:
                raise _HttpError(
                    400, "invalid_content_length", f"invalid Content-Length {declared!r}"
                )
            if length > self.config.max_body_bytes:
                raise _HttpError(
                    413,
                    "body_too_large",
                    f"body of {length} bytes exceeds {self.config.max_body_bytes}",
                    close=True,
                )
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise _HttpError(
                    400,
                    "truncated_body",
                    f"connection closed after {len(exc.partial)} of {length} body bytes",
                )
        elif declared is not None:
            raise _HttpError(
                400, "unexpected_body", f"{method} requests must not carry a body"
            )

        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version == "HTTP/1.1"
            else connection == "keep-alive"
        )
        return _Request(
            method=method,
            path=target.split("?", 1)[0],
            version=version,
            headers=headers,
            body=body,
            client=headers.get("x-client-id", peer_host),
            keep_alive=keep_alive,
        )

    # ------------------------------------------------------------------
    # routing + admission
    # ------------------------------------------------------------------

    async def _dispatch(self, request: _Request) -> _Response:
        methods = self._routes.get(request.path)
        if methods is None:
            raise _HttpError(404, "not_found", f"no route {request.path!r}")
        handler = methods.get(request.method)
        if handler is None:
            raise _HttpError(
                405,
                "method_not_allowed",
                f"{request.method} is not allowed on {request.path}",
                headers=(("allow", ", ".join(sorted(methods))),),
            )
        return await handler(request)

    def _admit(self, request: _Request, tokens: int = 1) -> None:
        """Run the admission gates; raises the rejection response if any."""
        if self._draining:
            raise _HttpError(
                503, "draining", "gateway is draining", close=True
            )
        retry_after = self._bucket.try_acquire(request.client, tokens)
        if retry_after > 0:
            self._rate_limited += 1
            raise _HttpError(
                429,
                "rate_limited",
                f"client {request.client!r} is over its rate limit",
                headers=(("retry-after", str(max(1, math.ceil(retry_after)))),),
            )
        if self._inflight >= self.config.max_inflight:
            self._shed += 1
            raise _HttpError(
                429,
                "overloaded",
                f"gateway is at its {self.config.max_inflight}-request capacity",
                headers=(("retry-after", "1"),),
            )

    async def _scored(
        self, request: _Request, route: str, trace, work, tokens: int = 1
    ):
        """Run one scoring request through the gates, feeding the slow log.

        ``work`` is called once the request is admitted.  It returns the
        response body when nothing has to wait — a verdict the cache already
        held, served with no Task, no timer and no loop wakeup — or else an
        awaitable, which runs under ``request_timeout_s`` in the connection
        task.  A rejected request never calls ``work``, so it never
        instantiates (and leaks) a coroutine.
        """
        try:
            self._admit(request, tokens)
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            try:
                result = work()
                if inspect.isawaitable(result):
                    async with asyncio.timeout(self.config.request_timeout_s):
                        result = await result
            except TimeoutError:
                self._timeouts += 1
                raise _HttpError(
                    504,
                    "timeout",
                    f"request exceeded the {self.config.request_timeout_s}s budget",
                )
            finally:
                self._inflight -= 1
        except _HttpError as exc:
            self.slow_log.record(trace, route, exc.response.status)
            raise
        self.slow_log.record(trace, route, 200)
        return result

    # ------------------------------------------------------------------
    # request bodies
    # ------------------------------------------------------------------

    @staticmethod
    def _json_body(request: _Request) -> dict:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "invalid_json", f"body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(
                400, "invalid_request", "body must be a JSON object"
            )
        return payload

    @staticmethod
    def _explain_flag(payload: dict) -> bool:
        explain = payload.get("explain", False)
        if not isinstance(explain, bool):
            raise _HttpError(400, "invalid_request", "'explain' must be a boolean")
        return explain

    @staticmethod
    def _analyze_flag(payload: dict) -> bool:
        analyze = payload.get("analyze", False)
        if not isinstance(analyze, bool):
            raise _HttpError(400, "invalid_request", "'analyze' must be a boolean")
        return analyze

    @staticmethod
    def _trace_flag(payload: dict) -> bool:
        trace = payload.get("trace", False)
        if not isinstance(trace, bool):
            raise _HttpError(400, "invalid_request", "'trace' must be a boolean")
        return trace

    @staticmethod
    def _bytecode_field(payload: dict, key: str = "bytecode") -> bytes:
        value = payload.get(key)
        if not isinstance(value, str):
            raise _HttpError(
                400, "invalid_request", f"missing or non-string field {key!r}"
            )
        try:
            return normalize_bytecode(value)
        except BytecodeFormatError as exc:
            raise _HttpError(400, "invalid_bytecode", str(exc))

    # ------------------------------------------------------------------
    # verdict plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _verdict_payload(verdict: Verdict, address: Optional[str] = None) -> dict:
        return {
            "address": address,
            "probability": verdict.probability,
            "score": int(round(verdict.probability * 100)),
            "verdict": "phishing" if verdict.is_phishing else "benign",
            "threshold": verdict.threshold,
            "cached": verdict.cached,
            "latency_ms": verdict.latency_ms,
        }

    def _score_one(
        self,
        code: bytes,
        explain: bool,
        analyze: bool,
        trace: obs_trace.Trace,
    ):
        """Submit one bytecode; answer inline when nothing has to wait.

        ``submit`` runs with ``trace`` active, so a verdict-cache miss
        captures it into the batcher's pending record.  A hit comes back
        already resolved; without explain or analyze its body is built
        right here.  Otherwise this returns the coroutine that finishes
        the request.
        """
        gateway_started = time.perf_counter()
        with obs_trace.activate(trace):
            future = self.service.submit(code)
        if future.done() and not (explain or analyze):
            payload = self._verdict_payload(future.result())
            trace.record("gateway", gateway_started, time.perf_counter())
            return payload
        return self._finish_one(
            future, code, None, explain, analyze, trace, gateway_started
        )

    async def _fetch_and_score(
        self, address: str, explain: bool, analyze: bool, trace: obs_trace.Trace
    ) -> dict:
        """Fetch ``address``'s code off the loop, then score it.

        The node call may block (a real RPC round trip), so it runs in the
        default executor under the same budget as the scoring work.
        """
        gateway_started = time.perf_counter()
        loop = asyncio.get_running_loop()
        code = await loop.run_in_executor(None, self.service.node.get_code, address)
        if not code:
            raise _HttpError(
                404, "unknown_address", f"no contract code deployed at {address}"
            )
        with obs_trace.activate(trace):
            future = self.service.submit(code)
        return await self._finish_one(
            future, code, address, explain, analyze, trace, gateway_started
        )

    async def _finish_one(
        self,
        future,
        code: bytes,
        address: Optional[str],
        explain: bool,
        analyze: bool,
        trace: obs_trace.Trace,
        gateway_started: float,
    ) -> dict:
        """Wait for a verdict, then explain/analyze it, off the loop.

        The model pass happens on the micro-batcher thread behind
        ``future``; the SHAP estimation and the static-analysis pass run in
        the default executor — the loop stays free to shed the next wave of
        requests either way.
        """
        if future.done():
            verdict = future.result()
        else:
            verdict = await asyncio.wrap_future(future)
        payload = self._verdict_payload(verdict, address)
        loop = asyncio.get_running_loop()
        if explain:
            stage_started = time.perf_counter()
            payload["reasons"] = await loop.run_in_executor(
                None, self.explainer.explain, code, self.config.explain_top_k
            )
            trace.record("explain", stage_started, time.perf_counter())
        if analyze:
            stage_started = time.perf_counter()
            report = await loop.run_in_executor(None, self.analyzer.analyze, code)
            payload["analysis"] = report.to_dict()
            trace.record("analysis", stage_started, time.perf_counter())
        trace.record("gateway", gateway_started, time.perf_counter())
        return payload

    def _require_explainer(self) -> None:
        if self.explainer is None:
            raise _HttpError(
                400,
                "explain_unavailable",
                "this gateway serves no explanations (no ExplanationService configured)",
            )

    def _require_analyzer(self) -> None:
        if self.analyzer is None:
            raise _HttpError(
                400,
                "analysis_unavailable",
                "this gateway serves no static analysis (no StaticAnalyzer configured)",
            )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    async def _score_address(self, request: _Request) -> _Response:
        payload = self._json_body(request)
        address = payload.get("address")
        if not isinstance(address, str) or not is_valid_address(address):
            raise _HttpError(
                400, "invalid_address", f"not a 0x-prefixed 20-byte address: {address!r}"
            )
        explain = self._explain_flag(payload)
        if explain:
            self._require_explainer()
        analyze = self._analyze_flag(payload)
        if analyze:
            self._require_analyzer()
        want_trace = self._trace_flag(payload)
        if self.service.node is None:
            raise _HttpError(
                503, "no_node", "gateway's scoring service has no RPC node attached"
            )
        trace = obs_trace.new_trace()
        body = await self._scored(
            request,
            "/score/address",
            trace,
            lambda: self._fetch_and_score(address, explain, analyze, trace),
        )
        if want_trace:
            body["trace"] = trace.to_dict()
        return _Response(200, body)

    async def _score_bytecode(self, request: _Request) -> _Response:
        payload = self._json_body(request)
        code = self._bytecode_field(payload)
        explain = self._explain_flag(payload)
        if explain:
            self._require_explainer()
        analyze = self._analyze_flag(payload)
        if analyze:
            self._require_analyzer()
        want_trace = self._trace_flag(payload)
        trace = obs_trace.new_trace()
        body = await self._scored(
            request,
            "/score/bytecode",
            trace,
            lambda: self._score_one(code, explain, analyze, trace),
        )
        if want_trace:
            body["trace"] = trace.to_dict()
        return _Response(200, body)

    async def _score_batch(self, request: _Request) -> _Response:
        payload = self._json_body(request)
        items = payload.get("bytecodes")
        if not isinstance(items, list):
            raise _HttpError(
                400, "invalid_request", "missing or non-list field 'bytecodes'"
            )
        if len(items) > self.config.max_batch_items:
            raise _HttpError(
                413,
                "batch_too_large",
                f"{len(items)} items exceed the {self.config.max_batch_items}-item cap",
            )
        codes = []
        for index, item in enumerate(items):
            if not isinstance(item, str):
                raise _HttpError(
                    400, "invalid_request", f"item {index}: bytecodes must be hex strings"
                )
            try:
                codes.append(normalize_bytecode(item))
            except BytecodeFormatError as exc:
                raise _HttpError(400, "invalid_bytecode", f"item {index}: {exc}")
        want_trace = self._trace_flag(payload)
        if not codes:
            # No scoring work, but the request still passes (and pays) the
            # admission gates — an empty batch is not a rate-limit bypass.
            self._admit(request)
            return _Response(200, {"verdicts": [], "count": 0})
        loop = asyncio.get_running_loop()
        trace = obs_trace.new_trace()
        gateway_started = time.perf_counter()

        def scored_batch():
            # The sync bulk path runs on an executor thread; contextvars do
            # not follow run_in_executor, so activate the trace explicitly.
            with obs_trace.activate(trace):
                result = self.service.score_batch(codes)
            trace.record("gateway", gateway_started, time.perf_counter())
            return result

        verdicts = await self._scored(
            request,
            "/score/batch",
            trace,
            lambda: loop.run_in_executor(None, scored_batch),
            tokens=max(1, len(codes)),
        )
        body = {
            "verdicts": [self._verdict_payload(verdict) for verdict in verdicts],
            "count": len(verdicts),
        }
        if want_trace:
            body["trace"] = trace.to_dict()
        return _Response(200, body)

    async def _healthz(self, request: _Request) -> _Response:
        if self._draining:
            return _Response(
                503, {"status": "draining", "inflight": self._inflight}, close=True
            )
        return _Response(200, {"status": "ok", "inflight": self._inflight})

    async def _stats_endpoint(self, request: _Request) -> _Response:
        body = {
            "gateway": asdict(self.stats()),
            "service": asdict(self.service.stats()),
        }
        if self.pipeline is not None:
            body["monitor"] = asdict(self.pipeline.stats())
        if self.monitor is not None:
            body["multichain"] = asdict(self.monitor.stats())
        if self.explainer is not None:
            body["explain"] = asdict(self.explainer.stats())
        if self.analyzer is not None:
            body["analysis"] = asdict(self.analyzer.stats())
        return _Response(200, body)

    async def _metrics_endpoint(self, request: _Request) -> _Response:
        return _Response(
            200,
            None,
            text=self.registry.render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _debug_slow(self, request: _Request) -> _Response:
        return _Response(200, self.slow_log.snapshot())

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def stats(self) -> GatewayStats:
        """Snapshot of the gateway's admission and response telemetry."""
        return GatewayStats(
            connections=self._total_connections,
            rejected_connections=self._rejected_connections,
            requests=self._requests,
            responses_ok=self._responses[0],
            responses_client_error=self._responses[1],
            responses_server_error=self._responses[2],
            rate_limited=self._rate_limited,
            shed=self._shed,
            timeouts=self._timeouts,
            inflight=self._inflight,
            peak_inflight=self._peak_inflight,
            draining=self._draining,
        )


class BackgroundGateway:
    """Run a :class:`Gateway` on a dedicated event-loop thread.

    The synchronous embedding used by the examples and tests: the context
    manager spins up a private loop thread, starts the gateway on it, and
    on exit drains the gateway and stops the loop::

        with BackgroundGateway(Gateway(service)) as gateway:
            requests.post(f"http://127.0.0.1:{gateway.port}/score/bytecode", …)
    """

    def __init__(self, gateway: Gateway, startup_timeout_s: float = 30.0):
        self.gateway = gateway
        self.startup_timeout_s = startup_timeout_s
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def run(self, coroutine, timeout: Optional[float] = None):
        """Run ``coroutine`` on the gateway's loop and wait for its result."""
        if self._loop is None:
            raise RuntimeError("BackgroundGateway is not running")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout or self.startup_timeout_s)

    def __enter__(self) -> Gateway:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="gateway-loop", daemon=True
        )
        self._thread.start()
        try:
            self.run(self.gateway.start())
        except BaseException:
            self._teardown()
            raise
        return self.gateway

    def __exit__(self, *exc_info) -> None:
        try:
            self.run(self.gateway.stop())
        finally:
            self._teardown()

    def _teardown(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=self.startup_timeout_s)
        if self._loop is not None:
            self._loop.close()
        self._loop = None
        self._thread = None
