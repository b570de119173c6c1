"""Bench: vectorized opcode-count fast path vs. the per-instruction oracle.

Measures end-to-end histogram extraction (`fit_transform`) over the bench
corpus on three paths — the per-instruction ``OracleHistogram`` of
``tests/oracles.py`` ("legacy"), fast uncached, fast with a warm cache —
asserting bit-identical feature matrices and the fast path's
throughput advantage.
"""

import numpy as np

from conftest import best_time
from oracles import OracleHistogram

from repro.features.batch import BatchFeatureService
from repro.features.histogram import OpcodeHistogramExtractor

#: Minimum acceptable speedup of the uncached fast path over the oracle arm.
MIN_SPEEDUP = 5.0


def test_bench_extraction_fastpath(benchmark, dataset):
    bytecodes = dataset.bytecodes

    legacy = OracleHistogram()
    legacy_time, legacy_features = best_time(lambda: legacy.fit_transform(bytecodes))

    def fast_cold():
        return OpcodeHistogramExtractor(
            service=BatchFeatureService(cache_size=0)
        ).fit_transform(bytecodes)

    fast_time, fast_features = best_time(fast_cold)

    warm_service = BatchFeatureService()
    warm = OpcodeHistogramExtractor(service=warm_service)
    warm.fit(bytecodes)  # populate the cache
    warm_features = benchmark.pedantic(
        warm.transform, args=(bytecodes,), rounds=3, iterations=1
    )

    assert np.array_equal(legacy_features, fast_features)
    assert np.array_equal(legacy_features, warm_features)
    assert legacy.feature_names() == warm.feature_names()
    assert warm_service.stats.hits > 0

    speedup = legacy_time / fast_time
    contracts_per_second = len(bytecodes) / fast_time
    print(
        f"\n[fast path] {len(bytecodes)} contracts: legacy {legacy_time:.4f}s, "
        f"fast {fast_time:.4f}s ({speedup:.1f}x, {contracts_per_second:,.0f} contracts/s), "
        f"warm-cache hit rate {warm_service.stats.hit_rate:.0%}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fast path only {speedup:.1f}x faster than legacy (need >= {MIN_SPEEDUP}x)"
    )
