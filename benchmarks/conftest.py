"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
("bench") scale so the whole harness completes on a CPU-only machine.  The
corpus is served through the on-disk cache under ``benchmarks/.corpus_cache``
(:func:`repro.chain.corpus_cache.load_or_generate`) and, like the dataset,
built once per session; heavyweight experiments are executed exactly once
inside ``benchmark.pedantic(rounds=1)``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.chain.corpus_cache import load_or_generate
from repro.chain.generator import CorpusConfig
from repro.core.config import Scale
from repro.core.dataset import PhishingDataset
from repro.models.registry import DeepModelScale

#: Where the bench-scale corpus is cached between benchmark runs.
CORPUS_CACHE_DIR = Path(__file__).parent / ".corpus_cache"

# The per-instruction reference extractors the fast-path benches time
# against live in ``tests/oracles.py``.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def pytest_collection_modifyitems(config, items):
    """Tag every benchmark with the opt-in ``bench`` marker (see pytest.ini).

    The hook receives the session-wide item list (even from a directory
    conftest), so in mixed invocations like ``pytest tests benchmarks`` only
    items that actually live under this directory get the marker.
    """
    bench_dir = Path(__file__).parent
    for item in items:
        if bench_dir in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


def bench_scale() -> Scale:
    """The scale used across the benchmark harness."""
    return Scale(
        name="bench",
        corpus=CorpusConfig(n_phishing=320, n_benign=200, seed=2025, hard_fraction=0.22),
        dataset_size=260,
        n_folds=3,
        n_runs=1,
        deep_folds=2,
        deep_runs=1,
        deep_scale=DeepModelScale.smoke(),
        seed=2025,
    )


@pytest.fixture(scope="session")
def scale() -> Scale:
    return bench_scale()


@pytest.fixture(scope="session")
def corpus(scale):
    return load_or_generate(scale.corpus, CORPUS_CACHE_DIR)[0]


@pytest.fixture(scope="session")
def dataset(corpus, scale) -> PhishingDataset:
    return PhishingDataset.build(corpus.records, target_size=scale.dataset_size, seed=scale.seed)


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def best_time(function, repeats=3):
    """Best-of-``repeats`` wall clock of ``function`` plus its last result.

    The fast-path benchmarks compare two implementations outside
    pytest-benchmark's fixture, so both sides share this one methodology.
    """
    import time

    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def interleaved_best(passes, rounds: int = 7):
    """Best wall clock per arm, arms interleaved round-robin.

    Timing the arms back-to-back lets one noisy scheduling period land
    entirely on one arm and skew the ratio; cycling through every arm each
    round spreads machine noise evenly, and best-of-rounds then discards
    it.
    """
    import time

    best = [float("inf")] * len(passes)
    for _ in range(rounds):
        for index, one_pass in enumerate(passes):
            start = time.perf_counter()
            one_pass()
            best[index] = min(best[index], time.perf_counter() - start)
    return best
