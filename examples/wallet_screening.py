"""Wallet screening: real-time checks before a user signs a transaction.

The paper motivates PhishingHook with crypto wallets that must warn users
within seconds of connecting to a contract.  This example runs that workflow
through the serving stack: a wallet vendor trains a detector offline, wraps
it in a :class:`~repro.serving.ScoringService` (content-hash verdict cache +
micro-batched vectorized scoring) next to a JSON-RPC client, and screens a
stream of addresses — reporting per-request verdicts, p50/p95 latency over
the screened batch, and the serving telemetry (verdict/feature cache hit
rates, kernel passes) that capacity planning reads.

Continuous monitoring
---------------------

This example is the *pull* side: a wallet asks about one contract at a
time.  The *push* side — following the chain and flagging phishing
deployments as they land, with checkpointed resume and drift telemetry —
is the :mod:`repro.monitor` pipeline; see ``examples/chain_monitor.py``
and ``examples/drift_monitoring.py``.

Static analysis (``repro.analysis``)
------------------------------------

A probability alone is a weak warning to show a user about to sign.  The
:class:`~repro.analysis.StaticAnalyzer` complements the score with
structural evidence from the bytecode itself — CFG recovery with resolved
jump targets, then lint rules for reachable ``SELFDESTRUCT``, balance
sweeps, approval-drain patterns and delegatecall forwarding (EIP-1167
proxies resolved through ``eth_getCode``).  A wallet pairs the two::

    analyzer = StaticAnalyzer(code_resolver=node.get_code)
    report = analyzer.analyze(node.get_code(address))
    # verdict.probability 0.93 + report: [high] balance-sweep @ pc 211

See ``examples/static_analysis.py`` for the full walk-through, and
``examples/gateway_demo.py`` for the same evidence over HTTP
(``"analyze": true``).

Run with::

    python examples/wallet_screening.py
"""

from __future__ import annotations

import numpy as np

from repro import PhishingHook, Scale, ScoringService, ServingConfig, build_model
from repro.chain.rpc import SimulatedEthereumNode


def main() -> None:
    scale = Scale.smoke()
    hook = PhishingHook(scale=scale)
    corpus = hook.generate_corpus()
    dataset = hook.build_dataset()

    # The wallet vendor trains the detector offline…
    detector = build_model("Random Forest", seed=1)
    detector.fit(dataset.bytecodes, dataset.labels)

    # …and ships it behind a scoring service next to a JSON-RPC client.
    node = SimulatedEthereumNode.from_records(corpus.records)
    service = ScoringService(detector, node=node, config=ServingConfig())

    rng = np.random.default_rng(5)
    picks = rng.choice(len(corpus.records), size=12, replace=False)
    # Popular contracts get screened repeatedly (proxy clones, re-visits):
    # append a second pass over the first half to exercise the verdict cache.
    to_screen = [corpus.records[i] for i in picks]
    to_screen += to_screen[: len(to_screen) // 2]

    print("address                                      label      verdict     P(phish)  latency")
    correct = 0
    verdicts = []
    with service:
        for record in to_screen:
            verdict = service.score_address(record.address)
            verdicts.append(verdict)
            shown = "PHISHING" if verdict.is_phishing else "ok"
            truth = "phishing" if record.is_phishing else "benign"
            correct += int(verdict.is_phishing == record.is_phishing)
            cached = " (cached)" if verdict.cached else ""
            print(
                f"{record.address}  {truth:9s}  {shown:10s}  {verdict.probability:7.2f}"
                f"  {verdict.latency_ms:6.1f} ms{cached}"
            )
        stats = service.stats()

    latencies = np.array([verdict.latency_ms for verdict in verdicts])
    print(f"\nscreened {len(to_screen)} contracts, {correct} correct verdicts")
    print(
        f"latency over the screened batch: p50 {np.percentile(latencies, 50):.1f} ms, "
        f"p95 {np.percentile(latencies, 95):.1f} ms "
        f"(service window: p50 {stats.latency_ms_p50:.1f} / p95 {stats.latency_ms_p95:.1f} ms)"
    )
    print(
        f"serving telemetry: verdict-cache hit rate {stats.verdict_hit_rate:.0%} "
        f"({stats.verdict_hits}/{stats.verdict_hits + stats.verdict_misses}), "
        f"feature-cache hit rate {stats.feature_hit_rate:.0%}, "
        f"kernel passes {stats.kernel_passes}, "
        f"batches {stats.batches} (mean size {stats.mean_batch_size:.1f})"
    )


if __name__ == "__main__":
    main()
