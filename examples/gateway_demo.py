"""HTTP gateway: the network front door of the wallet-screening stack.

``examples/wallet_screening.py`` calls the :class:`~repro.serving
.ScoringService` in-process; this example puts the :class:`~repro.serving
.Gateway` in front of it and talks to the stack the way a wallet backend
would — over HTTP.  It starts the asyncio gateway on a background thread
(:class:`~repro.serving.BackgroundGateway`), then exercises every endpoint
with stdlib ``http.client`` requests, the equivalent of::

    curl -s http://127.0.0.1:$PORT/healthz
    curl -s -X POST http://127.0.0.1:$PORT/score/address \
         -d '{"address": "0x…"}'
    curl -s -X POST http://127.0.0.1:$PORT/score/bytecode \
         -d '{"bytecode": "0x6080…", "explain": true}'
    curl -s -X POST http://127.0.0.1:$PORT/score/batch \
         -d '{"bytecodes": ["0x…", "0x…"]}'
    curl -s http://127.0.0.1:$PORT/stats

Verdicts come back in scanner-backend shape — phishing probability, a
0–100 risk score, the thresholded verdict — and ``"explain": true`` adds
the top contributing opcodes via the cached per-model SHAP explainer
(:class:`~repro.serving.ExplanationService`), so a wallet can show *why*
a contract was flagged.  Malformed input demonstrates the structured
error envelope, and the closing ``/stats`` snapshot shows the admission
and cache telemetry capacity planning reads.

Static analysis (``repro.analysis``)
------------------------------------

With a :class:`~repro.analysis.StaticAnalyzer` attached, ``"analyze":
true`` adds structural evidence next to the statistical verdict: the
bytecode's CFG is recovered (metadata trailer split, jumps resolved by
abstract-stack constant propagation) and lint rules report reachable
``SELFDESTRUCT``, balance sweeps, approval-drain call patterns and
delegatecall forwarding as an ``"analysis"`` object on the verdict —
findings, max severity, dispatcher selectors and CFG metrics::

    curl -s -X POST http://127.0.0.1:$PORT/score/bytecode \
         -d '{"bytecode": "0x6080…", "analyze": true}'

The closing ``/stats`` body then carries an ``"analysis"`` section with
the analyzer's report-cache and finding counters.

Observability (``repro.obs``)
-----------------------------

The gateway also speaks the observability plane.  ``GET /metrics`` is a
Prometheus text scrape covering the whole system — every counter ``/stats``
reaches (gateway admission, verdict/feature caches per view, explainer and
analyzer telemetry) plus live request-latency and batch-size histograms::

    curl -s http://127.0.0.1:$PORT/metrics | grep repro_serving

Any scoring request accepts ``"trace": true`` and returns a per-request
span breakdown — where the milliseconds went across ``gateway``, the
micro-``batch`` queue, shared ``features``/``kernel`` resolution and the
vectorized ``model`` pass (plus ``explain``/``analysis`` when requested)::

    curl -s -X POST http://127.0.0.1:$PORT/score/bytecode \
         -d '{"bytecode": "0x6080…", "trace": true}'

Requests slower than ``GatewayConfig.slow_request_ms`` land in a bounded
ring buffer at ``GET /debug/slow`` with their trace id, route, status and
span breakdown, so the worst requests stay inspectable after the fact.

Run with::

    python examples/gateway_demo.py
"""

from __future__ import annotations

import http.client
import json

from repro import PhishingHook, Scale, ScoringService, ServingConfig, build_model
from repro.analysis import AnalysisConfig, StaticAnalyzer
from repro.chain.rpc import SimulatedEthereumNode
from repro.serving import BackgroundGateway, ExplanationService, Gateway, GatewayConfig


def call(port: int, method: str, path: str, body=None):
    """One JSON request against the gateway (what curl would send)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def scrape(port: int, path: str = "/metrics") -> str:
    """One plain-text request (what a Prometheus poller would send)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


def main() -> None:
    scale = Scale.smoke()
    hook = PhishingHook(scale=scale)
    corpus = hook.generate_corpus()
    dataset = hook.build_dataset()

    detector = build_model("Random Forest", seed=1)
    detector.fit(dataset.bytecodes, dataset.labels)

    node = SimulatedEthereumNode.from_records(corpus.records)
    service = ScoringService(detector, node=node, config=ServingConfig())
    explainer = ExplanationService(
        detector, background=dataset.bytecodes[:16], n_permutations=4, seed=7
    )
    analyzer = StaticAnalyzer(
        config=AnalysisConfig(),
        code_resolver=node.get_code,
    )
    gateway = Gateway(
        service,
        # slow_request_ms=0 records every scoring request into /debug/slow
        # so the demo has entries to show; production keeps the default.
        config=GatewayConfig(slow_request_ms=0.0),
        explainer=explainer,
        analyzer=analyzer,
    )

    phishing = next(r for r in corpus.records if r.is_phishing)
    benign = next(r for r in corpus.records if not r.is_phishing)

    with service, BackgroundGateway(gateway) as running:
        port = running.port
        print(f"gateway listening on http://127.0.0.1:{port}\n")

        status, body = call(port, "GET", "/healthz")
        print(f"GET /healthz -> {status} {body}")

        for record in (phishing, benign):
            status, body = call(
                port, "POST", "/score/address", {"address": record.address}
            )
            truth = "phishing" if record.is_phishing else "benign"
            print(
                f"POST /score/address {record.address} ({truth}) -> {status}: "
                f"score {body['score']}/100, verdict {body['verdict']} "
                f"(P={body['probability']:.3f}, {body['latency_ms']:.1f} ms)"
            )

        # Explainable verdict: the top opcodes pushing the score, via the
        # cached per-model SHAP explainer.
        status, body = call(
            port,
            "POST",
            "/score/bytecode",
            {"bytecode": "0x" + phishing.bytecode.hex(), "explain": True},
        )
        print(f"POST /score/bytecode explain=true -> {status}: {body['verdict']}")
        for reason in body["reasons"]:
            print(
                f"    {reason['opcode']:<14s} shap {reason['shap']:+.4f} "
                f"(count {reason['count']}, pushes {reason['direction']})"
            )

        # Structural evidence: the same endpoint with "analyze": true runs
        # the static-analysis plane (CFG recovery + risk lints) and attaches
        # its findings to the verdict.
        status, body = call(
            port,
            "POST",
            "/score/bytecode",
            {"bytecode": "0x" + phishing.bytecode.hex(), "analyze": True},
        )
        analysis = body["analysis"]
        print(
            f"POST /score/bytecode analyze=true -> {status}: "
            f"{body['verdict']}, max severity {analysis['max_severity']}, "
            f"{analysis['metrics']['resolved_jumps']}/{analysis['metrics']['jumps']} "
            f"jumps resolved"
        )
        for finding in analysis["findings"][:3]:
            print(f"    [{finding['severity']}] {finding['rule']}: {finding['message']}")

        batch = ["0x" + r.bytecode.hex() for r in corpus.records[:8]]
        status, body = call(port, "POST", "/score/batch", {"bytecodes": batch})
        flagged = sum(v["verdict"] == "phishing" for v in body["verdicts"])
        print(
            f"POST /score/batch ({len(batch)} contracts) -> {status}: "
            f"{flagged} flagged phishing"
        )

        # Malformed input gets a structured error envelope, not a stack trace.
        status, body = call(port, "POST", "/score/address", {"address": "0x1234"})
        print(f"POST /score/address (bad address) -> {status}: {body['error']}")

        # Observability: "trace": true returns the request's span breakdown
        # (the micro-batcher's shared model pass shows up in every rider).
        # A not-yet-seen contract, so the full pipeline runs — a cached
        # verdict would trace as a single gateway span.
        fresh = corpus.records[-1]
        status, body = call(
            port,
            "POST",
            "/score/bytecode",
            {"bytecode": "0x" + fresh.bytecode.hex(), "trace": True},
        )
        trace = body["trace"]
        print(f"\nPOST /score/bytecode trace=true -> trace {trace['trace_id']}:")
        for span in trace["spans"]:
            print(
                f"    {span['name']:<10s} +{span['start_ms']:7.2f} ms  "
                f"({span['duration_ms']:.2f} ms)"
            )

        # GET /metrics: the Prometheus scrape covering the whole system.
        exposition = scrape(port)
        families = sorted(
            line.split(" ")[2]
            for line in exposition.splitlines()
            if line.startswith("# TYPE ")
        )
        print(
            f"\nGET /metrics -> {len(families)} metric families, e.g. "
            + ", ".join(families[:3])
        )
        for line in exposition.splitlines():
            if line.startswith(("repro_gateway_requests_total", "repro_serving_verdict_cache_total")):
                print(f"    {line}")

        # GET /debug/slow: the slow-request ring buffer (threshold 0 here).
        status, slow = call(port, "GET", "/debug/slow")
        print(
            f"GET /debug/slow -> {slow['recorded']}/{slow['seen']} requests "
            f"recorded over threshold {slow['threshold_ms']:.0f} ms; newest:"
        )
        for entry in slow["entries"][-2:]:
            stages = ",".join(span["name"] for span in entry["spans"])
            print(
                f"    {entry['trace_id']} {entry['route']} -> {entry['status']} "
                f"in {entry['latency_ms']:.1f} ms [{stages}]"
            )

        status, body = call(port, "GET", "/stats")
        gw, sv, ex = body["gateway"], body["service"], body["explain"]
        print(
            f"\nGET /stats -> {status}: "
            f"{gw['requests']} requests ({gw['responses_ok']} ok, "
            f"{gw['responses_client_error']} client errors), "
            f"peak inflight {gw['peak_inflight']}"
        )
        print(
            f"service: verdict-cache hit rate {sv['verdict_hit_rate']:.0%}, "
            f"batches {sv['batches']}, p95 {sv['latency_ms_p95']:.1f} ms; "
            f"explainers built {ex['explainers_built']} "
            f"({ex['explanations']} explanations, {ex['memo_hits']} memo hits)"
        )
        an = body["analysis"]
        print(
            f"analysis: {an['analyses']} analyses, {an['findings']} findings "
            f"({an['high_severity']} high severity), "
            f"{an['cache_hits']} report-cache hits"
        )

    print("\ngateway drained cleanly")


if __name__ == "__main__":
    main()
