"""Multi-chain fan-in monitoring: N chains, one service, one alert stream.

A real deployment does not watch one chain: the same drainer campaigns land
on mainnet, L2s and side-chains within minutes of each other, usually as
byte-identical clones.  :class:`MultiChainMonitor` supervises one
:class:`~repro.monitor.pipeline.MonitorPipeline` per simulated chain — each
with its own :class:`~repro.chain.rpc.SimulatedEthereumNode` (distinct
``eth_chainId``, seed and :class:`~repro.chain.blocks.BlockStreamConfig`
schedule), its own per-chain :class:`~repro.monitor.checkpoint.Checkpoint`
under a single checkpoint directory, and its own bytecode-free
:class:`~repro.monitor.impersonation.ImpersonationDetector` — all feeding
**one shared** :class:`~repro.serving.ScoringService` (so a clone wave
crossing chains collapses onto verdict-cache hits) and **one merged alert
sink**.

Deterministic merge order
-------------------------

The supervisor's scheduler is a pure function of the per-chain cursors: at
every step it advances the *lowest* chain — the pipeline whose follower has
the smallest ``next_block``, ties broken by ``chain_id`` — by one poll
window.  Because the cursors are exactly what the per-chain checkpoints
persist, a killed supervisor resumes with the same scheduling decisions the
uninterrupted run would have made: the merged alert stream (verdict and
impersonation alerts alike) and every chain's drift-window sequence
continue bit-for-bit.  A process-local round counter could not offer that
(after a restart it would re-interleave the chains differently).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..chain.blocks import BlockStreamConfig
from ..serving.service import ScoringService, ServiceStats
from .checkpoint import Checkpoint
from .pipeline import AlertSink, ListSink, MonitorConfig, MonitorPipeline, MonitorStats

__all__ = [
    "MultiChainConfig",
    "MultiChainStats",
    "MultiChainMonitor",
    "chain_stream_configs",
]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MultiChainConfig:
    """Knobs of one :class:`MultiChainMonitor` deployment.

    The supervisor monitors whatever nodes it is given; the config does not
    fix their number.

    Args:
        monitor: Per-chain pipeline knobs (confirmation depth, poll window,
            drift telemetry, impersonation registry).
        impersonation: Whether each chain runs the bytecode-free
            address-impersonation detector.
    """

    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    impersonation: bool = True


def chain_stream_configs(
    n_chains: int,
    base: Optional[BlockStreamConfig] = None,
    first_chain_id: int = 1,
    spread_seeds: bool = True,
) -> List[BlockStreamConfig]:
    """N per-chain stream configs derived from one base schedule.

    Chain ids count up from ``first_chain_id``; with ``spread_seeds`` each
    chain also gets a distinct seed (independent traffic).  Without it the
    chains replay the *same* deployment bytecodes under distinct chain ids,
    hashes and addresses — the clone-heavy cross-chain workload where one
    shared scoring service shines (see ``benchmarks/test_bench_multichain``).
    """
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    base = base or BlockStreamConfig()
    return [
        replace(
            base,
            chain_id=first_chain_id + offset,
            seed=base.seed + offset if spread_seeds else base.seed,
        )
        for offset in range(n_chains)
    ]


# ----------------------------------------------------------------------
# aggregate telemetry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MultiChainStats:
    """Cross-chain roll-up of N per-chain :class:`MonitorStats`.

    The counters sum the per-chain cumulative counters (checkpointed
    lifetimes included); ``drifted_chains`` lists the chain ids whose
    latest drift window drifted; ``service`` embeds the **shared** scoring
    service's telemetry once (it is deliberately not duplicated into the
    per-chain snapshots' own ``service`` fields, which all alias it).
    """

    chains: Tuple[MonitorStats, ...]
    blocks_scanned: int
    contracts_scanned: int
    alerts_emitted: int
    impersonation_alerts: int
    alert_rate: float
    drift_windows: int
    drifted_chains: Tuple[int, ...]
    reorgs_detected: int
    service: ServiceStats


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------


class MultiChainMonitor:
    """Fan-in supervisor over one pipeline per chain (see module docstring).

    Args:
        service: The **shared** :class:`~repro.serving.ScoringService`
            every chain scores through.
        nodes: One block source per chain; each must expose a distinct
            ``chain_id`` (build them with
            :meth:`~repro.chain.rpc.SimulatedEthereumNode.from_stream`).
        config: Supervisor knobs (defaults to :class:`MultiChainConfig`'s
            defaults).
        sink: The merged alert destination every chain emits into
            (defaults to one shared :class:`ListSink`).  Verdict and
            impersonation alerts both land here, each stamped with its
            ``chain_id``.
        checkpoint_dir: Directory of the per-chain checkpoints
            (``chain-<id>.json``); ``None`` disables persistence.  Existing
            checkpoints are resumed per chain, independently.

    Raises:
        ValueError: on missing or duplicate chain ids — an unattributable
            alert stream would be useless, and two chains sharing a
            checkpoint file would corrupt each other's cursors.
    """

    def __init__(
        self,
        service: ScoringService,
        nodes: Sequence,
        config: Optional[MultiChainConfig] = None,
        sink: Optional[AlertSink] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ):
        self.service = service
        self.config = config or MultiChainConfig()
        self.sink: AlertSink = sink if sink is not None else ListSink()
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        chain_ids = [int(getattr(node, "chain_id", 0) or 0) for node in nodes]
        if not chain_ids:
            raise ValueError("at least one chain node is required")
        if 0 in chain_ids:
            raise ValueError("every node must expose a non-zero chain_id")
        if len(set(chain_ids)) != len(chain_ids):
            raise ValueError(f"duplicate chain ids: {sorted(chain_ids)}")
        self.pipelines: Dict[int, MonitorPipeline] = {}
        for chain_id, node in sorted(zip(chain_ids, nodes)):
            checkpoint = (
                Checkpoint(self.checkpoint_dir / f"chain-{chain_id}.json")
                if self.checkpoint_dir is not None
                else None
            )
            self.pipelines[chain_id] = MonitorPipeline(
                service,
                node,
                config=self.config.monitor,
                sink=self.sink,
                checkpoint=checkpoint,
                impersonation=self.config.impersonation,
            )
        self.resumed = any(pipeline.resumed for pipeline in self.pipelines.values())

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def run(self, max_blocks: Optional[int] = None) -> MultiChainStats:
        """Monitor every chain until all run dry or ``max_blocks`` are done.

        ``max_blocks`` bounds the blocks processed across *all* chains by
        this call (the kill-point knob of the crash/resume tests): the loop
        stops before the first window that would exceed it.  A window is
        never *truncated* to the budget — the checkpoint granularity is the
        window, so a real kill always lands between whole windows, and
        truncating one would give every chain a window partition (and hence
        a merged order) that depends on where the previous lifetime died.

        Each iteration advances the chain whose follower cursor is lowest
        by one poll window — a decision derived purely from checkpointed
        state, so stopping anywhere and resuming reproduces the
        uninterrupted merged alert order exactly.  A chain whose poll comes
        back empty without a reorg rewind has drained for this call and
        leaves the rotation; a rewound chain stays (the next visit
        re-fetches the replaced blocks).
        """
        if max_blocks is not None and max_blocks < 0:
            raise ValueError("max_blocks must be >= 0")
        active = dict(self.pipelines)
        processed = 0
        while active and (max_blocks is None or processed < max_blocks):
            chain_id = min(
                active, key=lambda cid: (active[cid].follower.next_block, cid)
            )
            pipeline = active[chain_id]
            reorgs_before = pipeline.follower.reorgs_detected
            blocks = pipeline.step()
            if blocks:
                processed += len(blocks)
            elif pipeline.follower.reorgs_detected == reorgs_before:
                del active[chain_id]  # dry, not rewound: out of this rotation
        return self.stats()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def stats(self) -> MultiChainStats:
        """Aggregate snapshot across every chain (cumulative counters)."""
        per_chain = tuple(
            self.pipelines[chain_id].stats() for chain_id in sorted(self.pipelines)
        )
        contracts = sum(stats.contracts_scanned for stats in per_chain)
        alerts = sum(stats.alerts_emitted for stats in per_chain)
        return MultiChainStats(
            chains=per_chain,
            blocks_scanned=sum(stats.blocks_scanned for stats in per_chain),
            contracts_scanned=contracts,
            alerts_emitted=alerts,
            impersonation_alerts=sum(
                stats.impersonation_alerts for stats in per_chain
            ),
            alert_rate=alerts / contracts if contracts else 0.0,
            drift_windows=sum(stats.drift_windows for stats in per_chain),
            drifted_chains=tuple(
                stats.chain_id for stats in per_chain if stats.drifted
            ),
            reorgs_detected=sum(stats.reorgs_detected for stats in per_chain),
            service=self.service.stats(),
        )
