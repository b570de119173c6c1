"""The monitor pipeline: follower → scoring service → alert sink.

:class:`MonitorPipeline` ties the subsystem together.  Each iteration of
:meth:`MonitorPipeline.run`:

1. polls the :class:`~repro.monitor.follower.BlockFollower` for up to
   ``poll_blocks`` newly confirmed blocks;
2. collects the contract-creation transactions of that block window and
   scores all deployed bytecodes in **one**
   :meth:`~repro.serving.ScoringService.score_batch` pass (the window is
   the monitoring analogue of the serving micro-batch — proxy-clone waves
   collapse onto verdict-cache hits);
3. emits an :class:`Alert` through the pluggable sink for every verdict
   over the service's decision threshold, in deterministic block/tx order —
   interleaved, when an
   :class:`~repro.monitor.impersonation.ImpersonationDetector` is attached,
   with bytecode-free
   :class:`~repro.monitor.impersonation.ImpersonationAlert` records for
   deployments whose address impersonates a known contract (per
   transaction: the verdict alert first, then the impersonation alert);
4. feeds the scores to the :class:`~repro.monitor.drift.DriftTracker`;
5. persists the advanced cursor *and* the drift-tracker and impersonation
   state through the :class:`~repro.monitor.checkpoint.Checkpoint` —
   *after* the window's alerts were emitted, so a restart never re-scores
   a checkpointed block, never skips one, and never re-baselines the drift
   reference window.  The guarantee is window-granular: a kill between
   windows (e.g. anywhere ``run(max_blocks=...)`` can stop) resumes the
   alert *and* drift-window sequences bit-for-bit; a kill in the instant
   between a window's emission and its checkpoint save re-emits that one
   window on restart (at-least-once for externally side-effecting sinks,
   never a gap).

Each block source may carry a ``chain_id`` (as
:class:`~repro.chain.rpc.SimulatedEthereumNode` does); it is stamped onto
every alert, so the multi-chain supervisor
(:class:`~repro.monitor.multichain.MultiChainMonitor`) can merge N
pipelines' alerts into one attributable stream.

The loop terminates when the chain has no more confirmed blocks to hand
out, or after ``max_blocks`` blocks were processed in this call — the clean
-termination contract the examples' smoke tests rely on.  Against a live
node the caller wraps :meth:`run` in its own scheduling loop; the pipeline
itself never sleeps.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, List, Optional, Protocol, Union

import numpy as np

from ..chain.blocks import Block
from ..obs import trace as obs_trace
from ..serving.service import ScoringService, ServiceStats
from .checkpoint import Checkpoint, MonitorCursor
from .drift import DriftTracker, DriftWindow
from .follower import BlockFollower
from .impersonation import ImpersonationDetector


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs of one :class:`MonitorPipeline` deployment.

    Args:
        confirmations: Confirmation depth of the block follower.
        poll_blocks: Maximum blocks consumed (and scored together) per poll
            window; also the checkpoint granularity.
        start_block: Where a fresh monitor (no checkpoint) starts.
        drift_window: Scores per drift-telemetry window.
        drift_alpha: Significance level of the drift decision.
        latency_window: Number of recent per-block scoring latencies kept
            for the percentile telemetry.
        known_contracts: Registry size of an attached impersonation
            detector (``MonitorPipeline(..., impersonation=True)`` and the
            multi-chain supervisor build detectors from these knobs).
        impersonation_prefix: Leading hex characters of an address match.
        impersonation_suffix: Trailing hex characters of an address match.
    """

    confirmations: int = 2
    poll_blocks: int = 8
    start_block: int = 0
    drift_window: int = 64
    drift_alpha: float = 0.05
    latency_window: int = 4096
    known_contracts: int = 512
    impersonation_prefix: int = 4
    impersonation_suffix: int = 4

    def __post_init__(self) -> None:
        if self.confirmations < 0:
            raise ValueError("confirmations must be >= 0")
        if self.poll_blocks < 1:
            raise ValueError("poll_blocks must be >= 1")
        if self.start_block < 0:
            raise ValueError("start_block must be >= 0")
        if self.drift_window < 2:
            raise ValueError("drift_window must be >= 2")
        if not 0.0 < self.drift_alpha < 1.0:
            raise ValueError("drift_alpha must be in (0, 1)")
        if self.latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        if self.known_contracts < 1:
            raise ValueError("known_contracts must be >= 1")
        if self.impersonation_prefix < 1 or self.impersonation_suffix < 1:
            raise ValueError("impersonation prefix/suffix must be >= 1")


@dataclass(frozen=True)
class Alert:
    """One flagged deployment (a verdict over the decision threshold).

    ``chain_id`` attributes the alert to its source chain (``0`` when the
    block source does not expose one), so multi-chain deployments can merge
    N pipelines into one stream without losing provenance.
    ``static_findings`` carries the structural evidence of an attached
    :class:`~repro.analysis.StaticAnalyzer` (empty when the pipeline runs
    without one) — :class:`~repro.analysis.Finding` tuples serialize
    through ``asdict`` into the JSONL sink unchanged.
    """

    block_number: int
    contract_address: str
    tx_hash: str
    probability: float
    threshold: float
    chain_id: int = 0
    static_findings: tuple = ()


class AlertSink(Protocol):
    """Anything alerts can be pushed into (list, file, message bus, …)."""

    def emit(self, alert: Alert) -> None:  # pragma: no cover - protocol
        ...


class ListSink:
    """Collect alerts in memory (the default sink)."""

    def __init__(self) -> None:
        self.alerts: List[Alert] = []

    def emit(self, alert: Alert) -> None:
        self.alerts.append(alert)


class JsonlSink:
    """Append alerts as JSON lines to a file (one object per alert).

    With ``structured=True`` each line becomes a *structured event*: the
    alert's fields are wrapped in an envelope carrying ``event`` (the alert
    class name — ``Alert`` or ``ImpersonationAlert``), ``chain_id``, and
    the ``trace_id`` active when the alert was emitted (the pipeline
    activates one trace per processed window), so gateway traces and
    monitor alerts can be joined offline on trace id.  The default mode
    keeps the original bare-``asdict`` line shape.
    """

    def __init__(self, path: Union[str, Path], structured: bool = False):
        self.path = Path(path)
        self.structured = structured
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = None

    def emit(self, alert: Alert) -> None:
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        record = asdict(alert)
        if self.structured:
            record = {
                "event": type(alert).__name__,
                "trace_id": obs_trace.current_trace_id(),
                "chain_id": getattr(alert, "chain_id", 0),
                **record,
            }
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass(frozen=True)
class MonitorStats:
    """Telemetry snapshot of one :class:`MonitorPipeline`.

    ``blocks_scanned`` / ``contracts_scanned`` / ``alerts_emitted`` —
    and, with checkpointing, ``drift_windows`` and
    ``impersonation_alerts`` — are cumulative across restarts (restored
    from the checkpoint), and ``alert_rate`` is alerts per scanned contract
    over that whole history; ``windows`` and ``reorgs_detected`` are
    process-local (they describe this pipeline instance, not the
    checkpointed lifetime).  The
    latency percentiles cover the *scoring* cost per block over the recent
    ``latency_window`` blocks — each block in a window is attributed the
    window's vectorized scoring time divided by the window's block count.
    ``service`` embeds the wrapped scoring service's own telemetry, whose
    ``feature_hit_rate`` / ``kernel_passes`` are the monitoring capacity
    and cost signals (a proxy-clone wave shows up as a rising hit rate and
    flat kernel passes).
    """

    blocks_scanned: int
    contracts_scanned: int
    alerts_emitted: int
    alert_rate: float
    windows: int
    next_block: int
    reorgs_detected: int
    block_latency_ms_p50: float
    block_latency_ms_p95: float
    block_latency_ms_p99: float
    drift_windows: int
    drifted: bool
    service: ServiceStats
    chain_id: int = 0
    impersonation_alerts: int = 0


class MonitorPipeline:
    """Continuous deploy-time monitoring over a block-producing node.

    Args:
        service: The :class:`~repro.serving.ScoringService` verdicts come
            from (its decision threshold is the alert threshold).
        node: Block source (``block_number()`` / ``get_block(number)``),
            e.g. :class:`~repro.chain.rpc.SimulatedEthereumNode`.
        config: Monitor knobs (defaults to :class:`MonitorConfig`'s
            defaults).
        sink: Alert destination (defaults to a fresh :class:`ListSink`,
            reachable as :attr:`sink`).
        checkpoint: Optional state persistence; when the file already
            holds a checkpoint the pipeline *resumes* from it — cursor,
            drift-tracker state and impersonation registry alike
            (``config.start_block`` only seeds a fresh run).
        drift: Optional pre-configured :class:`DriftTracker` (e.g. with an
            explicit reference sample); by default one is built from the
            config's ``drift_window`` / ``drift_alpha``.  On resume the
            checkpointed state is restored into it either way.
        impersonation: ``True`` builds an
            :class:`~repro.monitor.impersonation.ImpersonationDetector`
            from the config's ``known_contracts`` /
            ``impersonation_prefix`` / ``impersonation_suffix`` knobs; a
            pre-built detector is used as given; ``None`` (default)
            disables bytecode-free address screening.
        analyzer: Optional :class:`~repro.analysis.StaticAnalyzer`; when
            set, every emitted :class:`Alert` carries the flagged
            bytecode's lint findings in ``static_findings`` — the
            analyzer shares the scoring service's cached disassembly, so
            the evidence costs no extra kernel pass per alert.
    """

    def __init__(
        self,
        service: ScoringService,
        node,
        config: Optional[MonitorConfig] = None,
        sink: Optional[AlertSink] = None,
        checkpoint: Optional[Checkpoint] = None,
        drift: Optional[DriftTracker] = None,
        impersonation: Union[None, bool, ImpersonationDetector] = None,
        analyzer=None,
    ):
        self.service = service
        self.node = node
        self.config = config or MonitorConfig()
        self.sink: AlertSink = sink if sink is not None else ListSink()
        self.checkpoint = checkpoint
        self.chain_id = int(getattr(node, "chain_id", 0) or 0)
        self.drift = drift or DriftTracker(
            window=self.config.drift_window, alpha=self.config.drift_alpha
        )
        if impersonation is True:
            impersonation = ImpersonationDetector(
                known_contracts=self.config.known_contracts,
                prefix_hex=self.config.impersonation_prefix,
                suffix_hex=self.config.impersonation_suffix,
                chain_id=self.chain_id,
            )
        self.impersonation: Optional[ImpersonationDetector] = impersonation or None
        self.analyzer = analyzer
        state = checkpoint.load() if checkpoint is not None else None
        self.resumed = state is not None
        if state is not None:
            cursor = state.cursor
            if state.drift is not None:
                self.drift.restore(state.drift)
            if state.impersonation is not None and self.impersonation is not None:
                self.impersonation.restore(state.impersonation)
        else:
            cursor = MonitorCursor(next_block=self.config.start_block)
        self.follower = BlockFollower(
            node,
            confirmations=self.config.confirmations,
            start_block=cursor.next_block,
            last_hash=cursor.last_hash,
        )
        self._blocks_scanned = cursor.blocks_scanned
        self._contracts_scanned = cursor.contracts_scanned
        self._alerts_emitted = cursor.alerts_emitted
        self._windows = 0
        self._latencies: deque = deque(maxlen=self.config.latency_window)

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------

    def _cursor(self) -> MonitorCursor:
        return MonitorCursor(
            next_block=self.follower.next_block,
            last_hash=self.follower.last_hash,
            blocks_scanned=self._blocks_scanned,
            contracts_scanned=self._contracts_scanned,
            alerts_emitted=self._alerts_emitted,
        )

    def _process_window(self, blocks) -> List[Alert]:
        """Score one confirmed block window and emit its alerts in order.

        Each window runs under its own trace, so a structured sink
        (``JsonlSink(structured=True)``) stamps every alert of the window
        with one shared trace id — the offline join key against gateway
        traces and span timings.
        """
        with obs_trace.activate(obs_trace.new_trace()):
            return self._process_window_traced(blocks)

    def _process_window_traced(self, blocks) -> List[Alert]:
        deployments = [(block, tx) for block in blocks for tx in block.transactions]
        start = time.perf_counter()
        verdicts = (
            self.service.score_batch(
                [tx.bytecode for _, tx in deployments],
                addresses=[tx.contract_address for _, tx in deployments],
            )
            if deployments
            else []
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        per_block_ms = elapsed_ms / len(blocks)
        self._latencies.extend([per_block_ms] * len(blocks))

        alerts: List[Alert] = []
        cursor = 0
        for block in blocks:
            probabilities: List[float] = []
            flags: List[bool] = []
            for tx in block.transactions:
                verdict = verdicts[cursor]
                cursor += 1
                probabilities.append(verdict.probability)
                flags.append(verdict.is_phishing)
                if verdict.is_phishing:
                    findings: tuple = ()
                    if self.analyzer is not None:
                        findings = self.analyzer.analyze(tx.bytecode).findings
                    alert = Alert(
                        block_number=block.number,
                        contract_address=tx.contract_address,
                        tx_hash=tx.tx_hash,
                        probability=verdict.probability,
                        threshold=verdict.threshold,
                        chain_id=self.chain_id,
                        static_findings=findings,
                    )
                    self.sink.emit(alert)
                    alerts.append(alert)
                if self.impersonation is not None:
                    impersonation = self.impersonation.observe(block.number, tx)
                    if impersonation is not None:
                        self.sink.emit(impersonation)
            if probabilities:
                self.drift.observe(probabilities, flags, block.number)
        self._blocks_scanned += len(blocks)
        self._contracts_scanned += len(deployments)
        self._alerts_emitted += len(alerts)
        self._windows += 1
        if self.checkpoint is not None:
            self.checkpoint.save(
                self._cursor(),
                drift=self.drift.state(),
                impersonation=(
                    self.impersonation.state()
                    if self.impersonation is not None
                    else None
                ),
            )
        return alerts

    def step(self, limit: Optional[int] = None) -> List[Block]:
        """Process at most one poll window; returns the blocks it covered.

        One scheduling quantum of the multi-chain supervisor: a single
        follower poll (clamped to ``limit`` and ``config.poll_blocks``),
        scored, alerted and checkpointed as one window.  An empty return
        means the chain is currently dry *or* a reorg rewound the cursor
        (the follower's ``reorgs_detected`` tells the two apart).
        """
        window = self.config.poll_blocks
        if limit is not None:
            if limit < 1:
                raise ValueError("limit must be >= 1")
            window = min(window, limit)
        blocks = self.follower.poll(limit=window)
        if blocks:
            self._process_window(blocks)
        return blocks

    def run(self, max_blocks: Optional[int] = None) -> MonitorStats:
        """Follow the chain until it runs dry or ``max_blocks`` are done.

        ``max_blocks`` caps the blocks processed *by this call* (windows
        are clamped to it, so the cap is exact); the loop also terminates
        as soon as a poll returns no confirmed blocks — with a static
        simulated chain that is the natural end of the stream.  Returns the
        final :meth:`stats` snapshot.
        """
        if max_blocks is not None and max_blocks < 0:
            raise ValueError("max_blocks must be >= 0")
        processed = 0
        while max_blocks is None or processed < max_blocks:
            limit = None if max_blocks is None else max_blocks - processed
            blocks = self.step(limit=limit)
            if not blocks:
                break
            processed += len(blocks)
        return self.stats()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    @property
    def drift_windows(self) -> List[DriftWindow]:
        """All completed drift-telemetry windows."""
        return self.drift.windows

    def stats(self) -> MonitorStats:
        """Snapshot of the monitoring telemetry (cumulative counters)."""
        latencies = np.array(self._latencies, dtype=np.float64)
        p50, p95, p99 = (
            np.percentile(latencies, [50.0, 95.0, 99.0])
            if latencies.size
            else (0.0, 0.0, 0.0)
        )
        return MonitorStats(
            blocks_scanned=self._blocks_scanned,
            contracts_scanned=self._contracts_scanned,
            alerts_emitted=self._alerts_emitted,
            alert_rate=(
                self._alerts_emitted / self._contracts_scanned
                if self._contracts_scanned
                else 0.0
            ),
            windows=self._windows,
            next_block=self.follower.next_block,
            reorgs_detected=self.follower.reorgs_detected,
            block_latency_ms_p50=float(p50),
            block_latency_ms_p95=float(p95),
            block_latency_ms_p99=float(p99),
            drift_windows=self.drift.completed_windows,
            drifted=self.drift.drifted,
            service=self.service.stats(),
            chain_id=self.chain_id,
            impersonation_alerts=(
                self.impersonation.alerts_emitted
                if self.impersonation is not None
                else 0
            ),
        )
