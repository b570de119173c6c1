"""``monitor_replay``: block → alert through an in-process ``MonitorPipeline``.

The pipeline replays a pre-mined chain with proxy clones and a non-zero
impersonation share, with a ``StaticAnalyzer``, the impersonation detector,
a structured ``JsonlSink`` and a ``Checkpoint``.  Each pass starts from a
fresh scoring service (cold verdict and feature caches) and fresh state
files, and runs the chain to its confirmed head; passes repeat until the
run's time is up.  Scoring goes through ``score_batch`` (no micro-batcher,
no HTTP), so gateway and batcher changes should not move this workload.

Run state lives inside the checkout, which may sit on a shared ext4 disk.
There ``Checkpoint.save`` (an atomic replace of an existing file) waits
for the disk: 40-60 ms per call, a delay set by other tenants that does not
repeat from run to run, and which is close to zero on tmpfs.  Window times,
throughput and warm starts therefore exclude the time inside
``Checkpoint.save``; the save is still made every window, its count is
``monitor.checkpoint_writes`` and its time ``monitor.checkpoint_ms``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from common import (
    LedgerError,
    Outcome,
    Size,
    Timer,
    derived_seed,
    fit_detector,
    median,
    now,
    peak_rss_mb,
    percentile,
    process_cpu_s,
)

#: Fixed tail percentile, so commits compare like with like.  A pass has 60
#: windows and a run two passes, which leaves some thirty beyond p75; p90
#: moves by 17-25% between runs of the same code on a shared 2-core machine,
#: set by how often a neighbour stalls it.
TAIL_PERCENTILE = 75.0
#: Warm starts resume from the checkpoint saved every this many windows.
RESUME_EVERY = 5


class _Timed:
    """Timing proxy: delegates everything, times the named methods."""

    def __init__(self, target, timer: Timer, methods: Dict[str, str]):
        self._target = target
        self._timer = timer
        self._methods = methods

    def __getattr__(self, name):
        value = getattr(self._target, name)
        label = self._methods.get(name)
        if label is None:
            return value
        timer = self._timer

        def timed(*args, **kwargs):
            started = now()
            try:
                return value(*args, **kwargs)
            finally:
                timer.add(label, now() - started)

        return timed


def mine_chain(seed: int, size: Size):
    from repro.chain.blocks import BlockStream, BlockStreamConfig
    from repro.chain.rpc import SimulatedEthereumNode

    node = SimulatedEthereumNode()
    node.mine(
        BlockStream(
            BlockStreamConfig(
                seed=derived_seed(seed, "chain"),
                deploys_per_block=size.deploys_per_block,
                phishing_share=0.3,
                impersonation_share=0.05,
            )
        ),
        size.chain_blocks,
    )
    return node


def _pass(detector, node, directory, traced: bool, resume_from=None, max_windows=None,
          snapshots=None):
    """Replay the chain once from a fresh scoring service; per-window records.

    The checkpoint is always behind a timing proxy: a window's ``seconds``
    excludes the time inside ``Checkpoint.save`` (see the module docstring),
    which is kept as the window's ``checkpoint`` part.  ``resume_from``
    seeds the checkpoint file with saved bytes, so the pipeline resumes;
    ``snapshots`` (a list) receives the checkpoint's bytes every
    ``RESUME_EVERY`` windows, outside the window timing.
    """
    from repro.analysis import StaticAnalyzer
    from repro.features.batch import BatchFeatureService
    from repro.monitor import MonitorConfig, MonitorPipeline
    from repro.monitor.checkpoint import Checkpoint
    from repro.monitor.pipeline import JsonlSink
    from repro.serving import ScoringService, ServingConfig

    cpu = process_cpu_s()
    started = now()
    features = BatchFeatureService()
    detector.feature_service = features
    timer = Timer()
    directory.mkdir(parents=True, exist_ok=True)
    if resume_from is not None:
        (directory / "monitor.json").write_bytes(resume_from)
    sink = JsonlSink(directory / "alerts.jsonl", structured=True)
    checkpoint = _Timed(Checkpoint(directory / "monitor.json"), timer, {"save": "checkpoint"})
    analyzer = StaticAnalyzer(features=features)
    source = node
    model = detector
    if traced:
        source = _Timed(node, timer, {"block_number": "poll", "get_block": "poll"})
        model = _Timed(detector, timer, {"predict_proba": "model"})
        sink = _Timed(sink, timer, {"emit": "sink"})
        analyzer = _Timed(analyzer, timer, {"analyze": "analyze"})
    service = ScoringService(model, config=ServingConfig())
    scorer = _Timed(service, timer, {"score_batch": "score"}) if traced else service
    pipeline = MonitorPipeline(
        scorer, source, config=MonitorConfig(), sink=sink, checkpoint=checkpoint,
        impersonation=True, analyzer=analyzer,
    )
    restore_s = now() - started
    windows = []
    try:
        while max_windows is None or len(windows) < max_windows:
            started = now()
            blocks = pipeline.step()
            elapsed = now() - started
            if not blocks:
                break
            parts = timer.take()
            windows.append({
                "seconds": elapsed - parts.get("checkpoint", 0.0),
                "contracts": sum(len(block.transactions) for block in blocks),
                "parts": parts,
            })
            if snapshots is not None and len(windows) % RESUME_EVERY == 0:
                snapshots.append((directory / "monitor.json").read_bytes())
    finally:
        sink.close()
    return {
        "cpu": process_cpu_s() - cpu,
        "windows": windows,
        "stats": pipeline.stats(),
        "analyze_calls": timer.calls.get("analyze", 0),
        "restore_s": restore_s,
        "resumed": pipeline.resumed,
        "directory": directory,
    }


def _phase(detector, node, seconds, state, traced, tag, snapshots=None) -> List[dict]:
    """Whole-chain passes until ``seconds`` of wall time elapse."""
    passes = []
    deadline = now() + seconds
    while now() < deadline or not passes:
        passes.append(_pass(detector, node, state / f"{tag}-{len(passes)}", traced,
                            snapshots=None if passes else snapshots))
    return passes


def _pass_seconds(passes) -> float:
    """Time of one pass, checkpoint saves excluded: the median restore plus,
    for each window, its median over passes (all passes replay the same
    chain, so window ``i`` is the same work in each)."""
    per_window = zip(*[[w["seconds"] for w in record["windows"]] for record in passes])
    return median([r["restore_s"] for r in passes]) + sum(median(list(w)) for w in per_window)


def _check(passes, node, reference, threshold, corrupt) -> tuple:
    """Alerts must be the threshold crossings of the reference verdicts,
    and each final checkpoint cursor the confirmed head."""
    from repro.monitor import MonitorConfig
    from repro.monitor.checkpoint import Checkpoint

    head = node.block_number() - MonitorConfig().confirmations
    expected = {}
    scanned = 0
    for number in range(head + 1):
        for tx in node.get_block(number).transactions:
            scanned += 1
            probability = reference[tx.bytecode]
            if probability >= threshold:
                expected[(number, tx.tx_hash)] = probability
    attempted = failed = 0
    for index, record in enumerate(passes):
        attempted += scanned
        got = {}
        with open(record["directory"] / "alerts.jsonl", encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event["event"] == "Alert":
                    got[(event["block_number"], event["tx_hash"])] = event["probability"]
        if corrupt and index == 0 and got:
            key = next(iter(got))
            got[key] = 1.0 - got[key]
        failed += sum(1 for key in expected.keys() | got.keys()
                      if expected.get(key) != got.get(key))
        state = Checkpoint(record["directory"] / "monitor.json").load()
        if state is None or state.cursor.next_block != head + 1:
            failed += 1
    return attempted, failed


def _warm_starts(detector, node, state, snapshots) -> List[float]:
    """Restart cost: resume from a checkpoint with cold caches, through the
    first window (checkpoint save excluded), from points along the chain."""
    times = []
    for index, snapshot in enumerate(snapshots):
        record = _pass(detector, node, state / f"resume-{index}", False,
                       resume_from=snapshot, max_windows=1)
        if not record["resumed"]:
            raise LedgerError("monitor did not resume from its checkpoint")
        if record["windows"]:
            times.append((record["restore_s"] + record["windows"][0]["seconds"]) * 1000.0)
    return times


def _reference(size, node):
    """Probabilities of every deployed bytecode from an independently
    fitted detector's ``score_batch``, and its decision threshold."""
    from repro.features.batch import BatchFeatureService
    from repro.serving import ScoringService

    detector, _ = fit_detector(size, feature_service=BatchFeatureService())
    codes = list({
        tx.bytecode: None
        for number in range(node.block_number() + 1)
        for tx in node.get_block(number).transactions
    })
    service = ScoringService(detector)
    verdicts = service.score_batch(codes)
    return {code: v.probability for code, v in zip(codes, verdicts)}, service.decision_threshold


def _layers(traced, overhead: float) -> Dict[str, tuple]:
    windows = [w for record in traced for w in record["windows"]]
    parts = ("poll", "score", "analyze", "sink", "checkpoint")
    ms = {name: [w["parts"].get(name, 0.0) * 1000.0 for w in windows] for name in parts}
    # A window's "seconds" already excludes the checkpoint save.
    unattributed = [
        w["seconds"] * 1000.0 - sum(ms[name][i] for name in parts if name != "checkpoint")
        for i, w in enumerate(windows)
    ]
    stats = [record["stats"] for record in traced]
    model_ms = [w["parts"]["model"] * 1000.0 for w in windows if "model" in w["parts"]]
    analyze_calls = sum(record["analyze_calls"] for record in traced)
    return {
        **{f"monitor.{name}_ms": (median(ms[name]), "ms") for name in parts},
        "monitor.unattributed_ms": (median(unattributed), "ms"),
        "monitor.checkpoint_writes": (median([len(r["windows"]) for r in traced]), "count"),
        "monitor.alerts": (median([s.alerts_emitted for s in stats]), "count"),
        "service.verdict_hit_ratio": (median([s.service.verdict_hit_rate for s in stats]), "ratio"),
        "features.kernel_passes": (median([s.service.kernel_passes for s in stats]), "count"),
        "features.hit_ratio": (median([s.service.feature_hit_rate for s in stats]), "ratio"),
        "model.pass_ms_p50": (median(model_ms), "ms"),
        "model.rows_per_pass": (median([s.service.mean_batch_size for s in stats]), "count"),
        "analysis.ms_per_contract": (
            sum(ms["analyze"]) / analyze_calls if analyze_calls else 0.0, "ms"),
        "analysis.reports": (median([r["analyze_calls"] for r in traced]), "count"),
        "obs.trace_overhead": (overhead, "ratio"),
    }


def run(seed: int, seconds: float, trace: bool, size: Size, state, corrupt: bool) -> Outcome:
    from dataclasses import replace

    from repro.features.batch import BatchFeatureService

    setups = []
    for index in range(size.setup_repeats):
        started = now()
        detector, _ = fit_detector(size, feature_service=BatchFeatureService())
        node = mine_chain(seed, size)
        # Warm-up: replay a short chain, so first-call costs land in set-up.
        short = mine_chain(seed + 1, replace(size, chain_blocks=16))
        _pass(detector, short, state / f"warmup-{index}", False)
        setups.append(now() - started)

    snapshots: List[bytes] = []
    plain = _phase(detector, node, seconds / 2 if trace else seconds, state, False, "pass",
                   snapshots)
    windows = [w for record in plain for w in record["windows"]]
    contracts = sum(w["contracts"] for w in plain[0]["windows"])
    window_ms = [w["seconds"] * 1000.0 for w in windows]
    rate = contracts / _pass_seconds(plain)
    passes = list(plain)
    per_layer: Dict[str, tuple] = {}
    if trace:
        traced = _phase(detector, node, seconds / 2, state, True, "traced")
        passes += traced
        per_layer = _layers(traced, rate / (contracts / _pass_seconds(traced)))
    warm_starts = _warm_starts(detector, node, state, snapshots)
    reference, threshold = _reference(size, node)
    attempted, failed = _check(passes, node, reference, threshold, corrupt)

    saves = [w["parts"]["checkpoint"] * 1000.0 for w in windows]
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "contracts_per_s": (rate, "1/s"),
        "latency_p50_ms": (median(window_ms), "ms"),
        "latency_tail_ms": (percentile(window_ms, TAIL_PERCENTILE), "ms"),
        "cpu_ms_per_contract": (median([r["cpu"] for r in plain]) * 1000.0 / contracts, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "warm_start_ms": (median(warm_starts), "ms"),
    }
    detail = {
        "passes": len(plain),
        "windows": len(windows),
        "contracts_per_pass": contracts,
        "latency_unit": "one MonitorPipeline.step() window, checkpoint save excluded",
        "latency_tail_percentile": TAIL_PERCENTILE,
        "windows_beyond_tail": sum(v > end_to_end["latency_tail_ms"][0] for v in window_ms),
        "checkpoint_save_ms_p50": median(saves),
        "checkpoint_save_ms_max": max(saves),
        "warm_start_unit": "resume from a checkpoint through its first window",
        "warm_starts": len(warm_starts),
        "chain_blocks": size.chain_blocks,
    }
    return Outcome(attempted, failed, end_to_end, per_layer, detail)
