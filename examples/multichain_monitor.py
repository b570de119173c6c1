"""Multi-chain monitoring: three chains, one service, one alert stream.

Drainer campaigns cross chains: the same scam bytecode lands on mainnet
and the side-chains within minutes, while vanity-address impersonators
grind look-alike addresses of reputable contracts.  This example runs a
:class:`~repro.monitor.MultiChainMonitor` over three simulated chains —
two whose phishing share drifts upward mid-stream and one carrying an
address-impersonation wave — all scoring through **one shared**
:class:`~repro.serving.ScoringService` into one merged,
deterministically-ordered alert stream (verdict alerts and bytecode-free
:class:`~repro.monitor.ImpersonationAlert` records side by side).

The supervisor schedules the chain with the lowest follower cursor next,
so the merged order is a pure function of the per-chain checkpoints: the
demo "kills" the monitor mid-run, starts a fresh supervisor over the same
checkpoint directory, and the combined stream continues seamlessly —
drift telemetry and impersonation registries included.

Run with::

    python examples/multichain_monitor.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import PhishingHook, Scale, ScoringService, build_model
from repro.chain.blocks import BlockStream, BlockStreamConfig
from repro.chain.rpc import SimulatedEthereumNode
from repro.monitor import (
    ImpersonationAlert,
    MonitorConfig,
    MultiChainConfig,
    MultiChainMonitor,
)

N_BLOCKS = 30


def build_chains() -> list:
    """Three chains with distinct ids, seeds and traffic schedules."""
    drifting = dict(
        seed=13,
        deploys_per_block=2.5,
        phishing_share=0.2,
        # The share ramps up in later phases: the drift telemetry's prey.
        phishing_profile=(0.5, 1.0, 2.5),
    )
    configs = [
        BlockStreamConfig(chain_id=1, **drifting),
        # Chain 2 shares chain 1's seed: the same campaign bytecodes land
        # on both chains (under distinct hashes and addresses), so the
        # shared scoring service turns the second chain into cache hits.
        BlockStreamConfig(chain_id=2, **drifting),
        # Chain 3 carries the vanity-address impersonation wave.
        BlockStreamConfig(
            chain_id=3,
            seed=15,
            deploys_per_block=2.5,
            phishing_share=0.15,
            impersonation_share=0.4,
        ),
    ]
    nodes = []
    for config in configs:
        node = SimulatedEthereumNode(chain_id=config.chain_id)
        node.mine(BlockStream(config), N_BLOCKS)
        nodes.append(node)
    return nodes


def main() -> None:
    scale = Scale.smoke()
    hook = PhishingHook(scale=scale)
    dataset = hook.build_dataset()

    detector = build_model("Random Forest", seed=1)
    detector.fit(dataset.bytecodes, dataset.labels)

    config = MultiChainConfig(
        monitor=MonitorConfig(confirmations=2, poll_blocks=5, drift_window=16),
    )

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = Path(tmp) / "checkpoints"

        # Supervisor #1: monitor all three chains, then "crash" mid-run.
        nodes = build_chains()
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(
                service, nodes, config=config, checkpoint_dir=checkpoint_dir
            )
            stats = monitor.run(max_blocks=40)
            first_alerts = list(monitor.sink.alerts)
        print(
            f"supervisor #1: {stats.blocks_scanned} blocks / "
            f"{stats.contracts_scanned} deployments across "
            f"{len(stats.chains)} chains, {stats.alerts_emitted} verdict + "
            f"{stats.impersonation_alerts} impersonation alerts"
        )
        cursors = {c.chain_id: c.next_block for c in stats.chains}
        print(f"…killed with per-chain cursors {cursors} (checkpoints persisted)\n")

        # Supervisor #2: a fresh process resumes every chain from its own
        # checkpoint and drains the chains; the merged stream continues
        # exactly where the first lifetime stopped.
        nodes = build_chains()
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(
                service, nodes, config=config, checkpoint_dir=checkpoint_dir
            )
            assert monitor.resumed
            stats = monitor.run()
            second_alerts = list(monitor.sink.alerts)
        print(
            f"supervisor #2: resumed, drained all chains to block "
            f"{stats.chains[0].next_block} — cumulative {stats.blocks_scanned} "
            f"blocks, {stats.alerts_emitted} verdict alerts, "
            f"{stats.impersonation_alerts} impersonation alerts"
        )

    merged = first_alerts + second_alerts
    print("\nchain  block  kind           contract")
    for alert in merged[:14]:
        kind = (
            "IMPERSONATION"
            if isinstance(alert, ImpersonationAlert)
            else f"P={alert.probability:.2f}"
        )
        print(
            f"{alert.chain_id:5d}  {alert.block_number:5d}  {kind:13s}  "
            f"{alert.contract_address}"
        )
    print(f"({min(14, len(merged))} of {len(merged)} merged alerts shown)")

    impersonations = [a for a in merged if isinstance(a, ImpersonationAlert)]
    if impersonations:
        alert = impersonations[0]
        print(
            f"\nfirst impersonation: chain {alert.chain_id} block "
            f"{alert.block_number}: {alert.contract_address}\n"
            f"  impersonates       {alert.impersonated_address}\n"
            f"  shared display digits: {alert.matched_prefix}…{alert.matched_suffix} "
            f"(no bytecode was read)"
        )

    print(
        f"\nshared service across chains: verdict hit rate "
        f"{stats.service.verdict_hit_rate:.0%}, feature hit rate "
        f"{stats.service.feature_hit_rate:.0%}, kernel passes "
        f"{stats.service.kernel_passes}"
    )
    drifted = ", ".join(str(cid) for cid in stats.drifted_chains) or "none"
    print(
        f"drift telemetry: {stats.drift_windows} windows total, "
        f"currently drifted chains: {drifted}"
    )


if __name__ == "__main__":
    main()
