"""Request-facing scoring subsystem (the wallet-screening serving layer).

The paper motivates PhishingHook with wallets that must warn a user within
seconds of touching an unknown contract.  :class:`ScoringService` is the
reproduction's production-shaped answer: a long-lived service wrapping one
trained detector that turns *requests* (a contract address or raw bytecode)
into *verdicts* (phishing probability + thresholded decision) while keeping
per-request cost close to the hardware floor.

Cache layering
--------------

A request falls through three layers, each strictly cheaper than the next:

1. **Verdict cache** — a content-hash LRU mapping the digest of the
   normalised bytecode to its scored probability.  A hit costs one hash and
   one dict lookup; no feature extraction and no model forward pass run.
   EIP-1167 proxy clones (bit-identical bytecode at thousands of addresses)
   collapse onto one entry, so re-screening a popular contract is O(1)
   regardless of the model behind it.  Verdicts are stored as
   *probabilities*, so changing :attr:`ScoringService.decision_threshold`
   re-decides instantly without invalidating the cache.
2. **Feature cache** — verdict misses are scored by the detector, which
   resolves all of its feature views (opcode counts, sequences, n-grams,
   byte histograms, R2D2 images) through the shared
   :class:`~repro.features.batch.BatchFeatureService` multi-view cache.  A
   bytecode seen before — by *any* detector in the process, or pre-warmed
   from a persistent :class:`~repro.features.store.FeatureStore` file —
   skips disassembly entirely.
3. **Kernel extraction** — only bytecodes new to the process pay a
   vectorized single-pass disassembly kernel sweep.

Micro-batching
--------------

Concurrent verdict misses are not scored one by one: requests submitted
through :meth:`ScoringService.submit` (or its blocking wrapper
:meth:`~ScoringService.score`) accumulate in a micro-batcher that flushes
when either ``max_batch`` requests are pending or the oldest request has
waited ``max_wait_ms`` — whichever comes first — and the whole flush is
scored in **one** vectorized ``predict_proba`` pass (duplicates within a
flush are deduplicated first).  Under load this amortises the per-call
Python and model overhead across the batch; an idle service degrades to
single-request scoring with at most ``max_wait_ms`` of added latency.
:meth:`ScoringService.score_batch` is the synchronous bulk path that skips
the wait entirely.

Telemetry
---------

:meth:`ScoringService.stats` snapshots a :class:`ServiceStats`: request and
batch counters, verdict-cache hit rate, the feature-cache hit rate and
``kernel_passes`` aggregated across every view of the underlying
:class:`~repro.features.batch.BatchFeatureService` (the capacity and cost
signals the ROADMAP asks for), optional
:class:`~repro.features.store.FeatureStore` file hit/miss counters, and
p50/p95/p99 request-latency percentiles over a sliding window.

Knobs live in :class:`ServingConfig`.

HTTP gateway
------------

:class:`Gateway` (:mod:`repro.serving.gateway`) is the network front door:
an asyncio HTTP server (stdlib streams, no extra dependencies) exposing
``/score/address``, ``/score/bytecode``, ``/score/batch``, ``/healthz``,
``/stats``, the Prometheus scrape ``/metrics`` and the slow-request ring
``/debug/slow`` on top of the micro-batcher, with per-client token-bucket rate
limiting, a bounded-admission load shed (fast 429s instead of latency
collapse), per-request timeouts (504), and graceful drain.  Verdicts follow
the scanner-backend shape — probability, 0–100 score, threshold verdict —
and ``"explain": true`` adds the top contributing opcodes through
:class:`ExplanationService` (:mod:`repro.serving.explain`), a per-model
SHAP-explainer cache so explanations never pay a background refit per
request.  Gateway knobs live in :class:`GatewayConfig`.
"""

from .explain import ExplainerCache, ExplainStats, ExplanationService
from .gateway import (
    BackgroundGateway,
    Gateway,
    GatewayConfig,
    GatewayStats,
    TokenBucket,
)
from .service import ScoringService, ServiceStats, ServingConfig, Verdict

__all__ = [
    "BackgroundGateway",
    "ExplainerCache",
    "ExplainStats",
    "ExplanationService",
    "Gateway",
    "GatewayConfig",
    "GatewayStats",
    "ScoringService",
    "ServiceStats",
    "ServingConfig",
    "TokenBucket",
    "Verdict",
]
