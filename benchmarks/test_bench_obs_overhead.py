"""Bench: observability-plane overhead on the warm serving hot path.

The obs tentpole's acceptance bar: serving with the real
:class:`~repro.obs.MetricsRegistry` (flush counters, batch-size and
model-pass histograms, scrape collectors registered) must stay within 10%
of the uninstrumented path (:class:`~repro.obs.NullRegistry`, no active
trace).  Both arms drive the identical duplicate-heavy per-request stream
through a warm :class:`~repro.serving.ScoringService`.

Two further costs are measured and reported (not pinned to the 0.9x bar,
because they are *opt-in* per request at this layer):

* **per-request tracing** — what a gateway pays to wrap every request in a
  fresh :class:`~repro.obs.Trace` (create, activate, slow-log check).  At
  the raw service layer this is microseconds against a ~10 µs cache hit;
  behind real HTTP handling (~100 µs/request) it amortises to a few
  percent, which is why the gateway keeps traces always-on for
  ``/debug/slow``.
* **scrape cost** — one full ``/metrics`` render through every registered
  collector, the price a Prometheus poller pays off the request path.
"""

import numpy as np

from conftest import best_time, interleaved_best
from repro.features.batch import BatchFeatureService
from repro.models.hsc import make_random_forest_hsc
from repro.obs import MetricsRegistry, NullRegistry, SlowRequestLog
from repro.obs import trace as obs_trace
from repro.obs.bridge import feature_collector, service_collector
from repro.serving import ScoringService, ServingConfig


def _request_stream(dataset, n_requests: int = 400, seed: int = 9):
    """A duplicate-heavy request stream drawn from the bench dataset."""
    rng = np.random.default_rng(seed)
    codes = dataset.bytecodes
    picks = rng.integers(0, max(1, len(codes) // 4), size=n_requests)
    return [codes[int(i)] for i in picks]


def test_bench_obs_overhead(benchmark, dataset):
    features = BatchFeatureService()
    detector = make_random_forest_hsc(seed=3)
    detector.feature_service = features
    detector.fit(dataset.bytecodes, dataset.labels)

    requests = _request_stream(dataset)
    config = ServingConfig(max_batch=64)

    def warm_service(registry):
        service = ScoringService(detector, config=config, registry=registry)
        service.score_batch(requests)  # fill the verdict cache
        return service

    # Arm 1 — uninstrumented: no-op instruments, no collectors, no trace.
    null_service = warm_service(NullRegistry())

    def uninstrumented_pass():
        for code in requests:
            null_service.score(code)

    # Arm 2 — instrumented: live registry, identical driving code.
    registry = MetricsRegistry()
    service = warm_service(registry)

    def instrumented_pass():
        for code in requests:
            service.score(code)

    # Reported extra: always-on per-request tracing (the gateway's cost).
    slow_log = SlowRequestLog(capacity=32, threshold_ms=250.0)

    def traced_pass():
        for code in requests:
            trace = obs_trace.new_trace()
            with obs_trace.activate(trace):
                service.score(code)
            slow_log.record(trace, "/score/bytecode", 200)

    benchmark.pedantic(instrumented_pass, rounds=3, iterations=1)
    null_time, instrumented_time, traced_time = interleaved_best(
        [uninstrumented_pass, instrumented_pass, traced_pass]
    )
    null_service.close()

    # Reported extra: one full /metrics render through the scrape collectors.
    registry.register_collector("serving", service_collector(service))
    registry.register_collector("features", feature_collector(lambda: features))
    scrape_time, exposition = best_time(registry.render, repeats=5)
    service.close()
    assert "repro_serving_flushes_total" in exposition

    n = len(requests)
    null_rps = n / null_time
    instrumented_rps = n / instrumented_time
    traced_rps = n / traced_time
    trace_us = (traced_time - instrumented_time) / n * 1e6
    print(
        f"\n[obs] {n} warm requests: uninstrumented {null_rps:,.0f} req/s, "
        f"instrumented {instrumented_rps:,.0f} req/s "
        f"({instrumented_rps / null_rps:.2f}x), "
        f"traced {traced_rps:,.0f} req/s "
        f"(+{trace_us:.1f} µs/request for trace+slow-log); "
        f"/metrics render {scrape_time * 1e3:.2f} ms "
        f"({len(exposition.splitlines())} lines)"
    )

    # The acceptance criterion: registry instrumentation costs <= 10%.
    assert instrumented_rps >= 0.9 * null_rps
    # Always-on tracing is pricier per request but must stay bounded: the
    # full trace+activate+slow-log wrapper may at most halve raw hot-path
    # throughput (it amortises to a few percent behind real HTTP).
    assert traced_rps >= 0.5 * null_rps
