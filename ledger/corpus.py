"""``corpus_store``: a fresh corpus through a cold ``FeatureStore`` session.

Each cycle of the timed phase opens a cold session (cache and blob
directories set, both empty) over the run's corpus, extracts every view —
sequences, counts, 2-byte n-grams, byte counts, R2D2 images and the
analysis matrix — and saves on exit.  Warm reopens of the same directories
then serve the same views, and every warm matrix must be bit-identical to
its cold twin.  Serving and the model do no work here.
"""

from __future__ import annotations

import shutil
from typing import Dict, List

import numpy as np

from common import (
    Outcome,
    Size,
    Timer,
    derived_seed,
    median,
    now,
    peak_rss_mb,
    percentile,
    process_cpu_s,
    tree_bytes,
)

#: Fixed tail percentile, so commits compare like with like: a run makes
#: some fifty cold passes, which leaves over ten beyond p75.
TAIL_PERCENTILE = 75.0

NGRAM_BYTES = 2
#: Contracts of the set-up's warm-up session.
WARMUP_CONTRACTS = 128
#: Views in extraction order: (per-layer name, call).
VIEWS = (
    ("sequences", lambda service, codes, size: service.sequences(codes)),
    ("counts", lambda service, codes, size: service.count_matrix(codes)),
    ("ngrams", lambda service, codes, size: service.ngram_codes_batch(codes, NGRAM_BYTES)),
    ("bytes", lambda service, codes, size: service.byte_count_matrix(codes)),
    ("images", lambda service, codes, size: service.r2d2_images(codes, size)),
    ("analysis", lambda service, codes, size: service.analysis_matrix(codes)),
)


def make_corpus(seed: int, size: Size) -> List[bytes]:
    """The run's corpus, proxy clones and all (the store dedupes by content)."""
    from repro.chain.generator import CorpusConfig, generate_corpus

    n = size.corpus_contracts
    corpus = generate_corpus(
        CorpusConfig(
            n_phishing=n * 6 // 10, n_benign=n - n * 6 // 10,
            seed=derived_seed(seed, "corpus"),
        )
    )
    return [record.bytecode for record in corpus.records]


def _session_pass(directory, codes, image_size, timer=None):
    """Open a session on ``directory``, serve every view, close (save).

    Returns the views and the session telemetry; ``timer`` (traced runs)
    receives the wall time of each public store and service call.
    """
    from repro.features.store import FeatureStore

    started = now()
    store = FeatureStore(directory / "cache", blob_dir=directory / "blob")
    scope = store.session(codes, warm=False)
    session = scope.__enter__()
    if timer is not None:
        timer.add("open", now() - started)
    try:
        views = {}
        for name, call in VIEWS:
            started = now()
            views[name] = call(session.service, codes, image_size)
            if timer is not None:
                timer.add(name, now() - started)
    except BaseException as exc:
        scope.__exit__(type(exc), exc, exc.__traceback__)
        raise
    started = now()
    scope.__exit__(None, None, None)
    if timer is not None:
        timer.add("close", now() - started)
    return views, session


def _same(cold, warm) -> bool:
    """Bit-identity of two view dicts (sequences and n-gram lists included)."""
    for name, _ in VIEWS:
        a, b = cold[name], warm[name]
        if name == "sequences":
            if len(a) != len(b) or not all(
                np.array_equal(x.opcodes, y.opcodes) and np.array_equal(x.widths, y.widths)
                for x, y in zip(a, b)
            ):
                return False
        elif name == "ngrams":
            if len(a) != len(b) or not all(
                x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b)
            ):
                return False
        elif a.dtype != b.dtype or not np.array_equal(a, b):
            return False
    return True


def _phase(codes, seconds, size, state, image_size, traced, corrupt):
    """Cycles of one cold pass plus warm reopens until ``seconds`` elapse."""
    timer = Timer() if traced else None
    cold_s: List[float] = []
    warm_s: List[float] = []
    cold_cpu: List[float] = []
    attempted = failed = 0
    layers: Dict[str, List[float]] = {}
    deadline = now() + seconds
    cycle = 0
    while now() < deadline or cycle == 0:
        directory = state / f"cycle-{cycle}"
        cpu = process_cpu_s()
        started = now()
        cold, cold_session = _session_pass(directory, codes, image_size, timer)
        cold_s.append(now() - started)
        cold_cpu.append(process_cpu_s() - cpu)
        attempted += len(codes)
        if timer is not None:
            parts = timer.take()
            for name, seconds_taken in parts.items():
                layers.setdefault(f"cold.{name}", []).append(seconds_taken)
            layers.setdefault("unattributed", []).append(cold_s[-1] - sum(parts.values()))
            layers.setdefault("bytes_written", []).append(tree_bytes(directory))
            layers.setdefault("kernel_passes", []).append(cold_session.kernel_passes)
            layers.setdefault("hit_ratio", []).append(cold_session.hit_rate)
        if corrupt and cycle == 0:
            cold["counts"] = cold["counts"].copy()
            cold["counts"][0, 0] += 1
        for _ in range(size.warm_reopens):
            started = now()
            warm, warm_session = _session_pass(directory, codes, image_size, timer)
            warm_s.append(now() - started)
            attempted += len(codes)
            if not (warm_session.warm_start and _same(cold, warm)):
                failed += len(codes)
            if timer is not None:
                for name, seconds_taken in timer.take().items():
                    layers.setdefault(f"warm.{name}", []).append(seconds_taken)
                layers.setdefault("entries_loaded", []).append(warm_session.entries_loaded)
                layers.setdefault("warm_kernel_passes", []).append(warm_session.kernel_passes)
        shutil.rmtree(directory)
        cycle += 1
    return {
        "cold_s": cold_s, "warm_s": warm_s, "cold_cpu": cold_cpu,
        "attempted": attempted, "failed": failed, "layers": layers,
    }


def run(seed: int, seconds: float, trace: bool, size: Size, state, corrupt: bool) -> Outcome:
    from repro.models.registry import DeepModelScale

    image_size = DeepModelScale().image_size
    setups = []
    for _ in range(size.setup_repeats):
        started = now()
        codes = make_corpus(seed, size)
        # Warm-up: one cold pass over a slice, so lazy imports and first
        # calls are paid in set-up rather than in the first timed cycle.
        _session_pass(state / "warmup", codes[:WARMUP_CONTRACTS], image_size)
        shutil.rmtree(state / "warmup")
        setups.append(now() - started)

    phase_seconds = seconds / 2 if trace else seconds
    plain = _phase(codes, phase_seconds, size, state, image_size, False, corrupt)
    n = len(codes)
    cold_ms = [value * 1000.0 for value in plain["cold_s"]]
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "contracts_per_s": (n / median(plain["cold_s"]), "1/s"),
        "latency_p50_ms": (median(cold_ms), "ms"),
        "latency_tail_ms": (percentile(cold_ms, TAIL_PERCENTILE), "ms"),
        "cpu_ms_per_contract": (median(plain["cold_cpu"]) * 1000.0 / n, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "warm_start_ms": (median([value * 1000.0 for value in plain["warm_s"]]), "ms"),
    }
    detail = {
        "corpus_contracts": n,
        "unique_contracts": len(set(codes)),
        "cold_passes": len(cold_ms),
        "warm_reopens": len(plain["warm_s"]),
        "latency_unit": "one cold session pass over the corpus",
        "latency_tail_percentile": TAIL_PERCENTILE,
        "image_size": image_size,
    }
    attempted, failed = plain["attempted"], plain["failed"]
    per_layer: Dict[str, tuple] = {}
    if trace:
        traced = _phase(codes, seconds / 2, size, state, image_size, True, corrupt)
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = traced["layers"]
        per_layer = {
            "features.kernel_passes": (median(layers["kernel_passes"]), "count"),
            "features.hit_ratio": (median(layers["hit_ratio"]), "ratio"),
            **{
                f"features.{name}_s": (median(layers[f"cold.{name}"]), "s")
                for name, _ in VIEWS if name != "analysis"
            },
            "analysis.ms_per_contract": (
                median(layers["cold.analysis"]) * 1000.0 / len(set(codes)), "ms"
            ),
            "analysis.reports": (len(set(codes)), "count"),
            "store.cold_open_s": (median(layers["cold.open"]), "s"),
            "store.save_s": (median(layers["cold.close"]), "s"),
            "store.bytes_written": (median(layers["bytes_written"]), "bytes"),
            "store.load_s": (median(layers["warm.open"]), "s"),
            "store.entries_loaded": (median(layers["entries_loaded"]), "count"),
            "store.warm_kernel_passes": (max(layers["warm_kernel_passes"]), "count"),
            "store.unattributed_s": (median(layers["unattributed"]), "s"),
            "obs.trace_overhead": (
                median(traced["cold_s"]) / median(plain["cold_s"]), "ratio"),
        }
    return Outcome(attempted, failed, end_to_end, per_layer, detail)
