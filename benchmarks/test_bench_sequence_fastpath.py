"""Bench: vectorized sequence fast path vs. the per-instruction oracles.

Measures end-to-end tokenizer and frequency-image extraction over the bench
corpus on three paths — the per-instruction oracles of ``tests/oracles.py``
("legacy"), fast uncached, fast with a warm shared cache — asserting
bit-identical outputs and the fast path's throughput advantage.
"""

import numpy as np

from conftest import best_time
from oracles import OracleFrequencyImage, OracleTokenizer

from repro.features.batch import BatchFeatureService
from repro.features.image import FrequencyImageEncoder
from repro.features.tokenizer import OpcodeTokenizer

#: Minimum acceptable speedup of the uncached fast path over the oracle
#: arm (conservative: loaded machines must not flake).
MIN_SPEEDUP = 2.0


def test_bench_tokenizer_fastpath(benchmark, dataset):
    bytecodes = dataset.bytecodes

    legacy = OracleTokenizer()
    legacy_time, legacy_ids = best_time(lambda: legacy.transform(bytecodes))

    fast_time, fast_ids = best_time(
        lambda: OpcodeTokenizer(
            service=BatchFeatureService(cache_size=0)
        ).transform(bytecodes)
    )

    warm_service = BatchFeatureService()
    warm = OpcodeTokenizer(service=warm_service)
    warm.transform(bytecodes)  # populate the sequence cache
    warm_ids = benchmark.pedantic(warm.transform, args=(bytecodes,), rounds=3, iterations=1)

    assert np.array_equal(legacy_ids, fast_ids)
    assert np.array_equal(legacy_ids, warm_ids)
    assert warm_service.sequence_stats.hits > 0
    assert warm_service.kernel_passes == len(warm_service)

    speedup = legacy_time / fast_time
    print(
        f"\n[sequence fast path] tokenizer over {len(bytecodes)} contracts: "
        f"legacy {legacy_time:.4f}s, fast {fast_time:.4f}s ({speedup:.1f}x), "
        f"warm hit rate {warm_service.sequence_stats.hit_rate:.0%}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"tokenizer fast path only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
    )


def test_bench_frequency_image_fastpath(benchmark, dataset):
    bytecodes = dataset.bytecodes

    legacy = OracleFrequencyImage(image_size=16)
    legacy_time, legacy_images = best_time(lambda: legacy.fit_transform(bytecodes))

    def fast_cold():
        return FrequencyImageEncoder(
            image_size=16, service=BatchFeatureService(cache_size=0)
        ).fit_transform(bytecodes)

    fast_time, fast_images = best_time(fast_cold)

    warm_service = BatchFeatureService()
    warm = FrequencyImageEncoder(image_size=16, service=warm_service)
    warm.fit(bytecodes)
    warm_images = benchmark.pedantic(warm.transform, args=(bytecodes,), rounds=3, iterations=1)

    assert np.array_equal(legacy_images, fast_images)
    assert np.array_equal(legacy_images, warm_images)
    assert warm_service.sequence_stats.hits > 0

    speedup = legacy_time / fast_time
    print(
        f"\n[sequence fast path] freq-image over {len(bytecodes)} contracts: "
        f"legacy {legacy_time:.4f}s, fast {fast_time:.4f}s ({speedup:.1f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"freq-image fast path only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
    )
