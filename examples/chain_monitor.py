"""Chain monitor: flagging phishing contracts as they are deployed.

The paper's deployment scenario end to end: a security team trains a
detector offline, then points a :class:`~repro.monitor.MonitorPipeline` at
a block-producing node.  The monitor follows the chain head behind a
confirmation depth, batches every block window's contract creations into
one vectorized scoring pass, emits alerts through a sink, and checkpoints
its cursor after every window.

Continuous monitoring
---------------------

The monitor is built to run forever and die safely: the checkpoint file is
written atomically after each processed window, so a process killed
between windows resumes exactly where it stopped — no checkpointed
deployment is scored twice and none is skipped (a kill in the instant
before a window's checkpoint save re-emits just that window).  This
example demonstrates precisely that: it monitors the first stretch of the
chain, "crashes", then a *fresh* pipeline resumes from the checkpoint while
the chain has kept growing, and the combined alert stream is seamless.
``run(max_blocks=...)`` bounds each monitoring pass so the loop terminates
cleanly (the smoke tests rely on that contract); a production deployment
would call ``run()`` on a schedule instead.

Run with::

    python examples/chain_monitor.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import MonitorConfig, MonitorPipeline, PhishingHook, Scale, ScoringService, build_model
from repro.chain.blocks import BlockStream, BlockStreamConfig
from repro.chain.rpc import SimulatedEthereumNode
from repro.monitor import Checkpoint


def main() -> None:
    scale = Scale.smoke()
    hook = PhishingHook(scale=scale)
    dataset = hook.build_dataset()

    # Offline: train the detector that will watch the chain.
    detector = build_model("Random Forest", seed=1)
    detector.fit(dataset.bytecodes, dataset.labels)

    # The chain: a deterministic block stream with a phishing wave brewing.
    stream = BlockStream(
        BlockStreamConfig(seed=13, deploys_per_block=2.5, phishing_share=0.3)
    )
    node = SimulatedEthereumNode()
    node.mine(stream, 36)

    config = MonitorConfig()
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Checkpoint(Path(tmp) / "monitor-cursor.json")

        # First monitor process: follow the chain until it is drained…
        with ScoringService(detector, node=node) as service:
            monitor = MonitorPipeline(
                service, node, config=config, checkpoint=checkpoint
            )
            stats = monitor.run(max_blocks=20)
            first_alerts = list(monitor.sink.alerts)
            kill_block = stats.next_block
        print(
            f"monitor #1: scanned {stats.blocks_scanned} blocks / "
            f"{stats.contracts_scanned} deployments, "
            f"{stats.alerts_emitted} alerts "
            f"(rate {stats.alert_rate:.0%}), "
            f"scoring p50 {stats.block_latency_ms_p50:.2f} ms/block"
        )
        print(f"…killed at block {kill_block} (checkpoint persisted)\n")

        # The chain keeps growing while the monitor is down.
        node.mine(stream, 8)

        # Second monitor process: a fresh pipeline resumes from the cursor.
        with ScoringService(detector, node=node) as service:
            monitor = MonitorPipeline(
                service, node, config=config, checkpoint=checkpoint
            )
            assert monitor.resumed
            stats = monitor.run()
            second_alerts = list(monitor.sink.alerts)
        print(
            f"monitor #2: resumed at block {kill_block}, drained to block "
            f"{stats.next_block} — cumulative {stats.blocks_scanned} blocks, "
            f"{stats.alerts_emitted} alerts, no duplicates, no gaps"
        )

    print("\nblock  contract                                    P(phish)")
    for alert in (first_alerts + second_alerts)[:12]:
        print(
            f"{alert.block_number:5d}  {alert.contract_address}  "
            f"{alert.probability:7.2f}"
        )
    shown = min(12, len(first_alerts) + len(second_alerts))
    print(f"({shown} of {len(first_alerts) + len(second_alerts)} alerts shown)")

    serving = stats.service
    print(
        f"\nserving telemetry under monitoring: verdict hit rate "
        f"{serving.verdict_hit_rate:.0%}, feature hit rate "
        f"{serving.feature_hit_rate:.0%}, kernel passes {serving.kernel_passes}"
    )
    if stats.drift_windows:
        latest = monitor.drift.latest
        print(
            f"drift telemetry: {stats.drift_windows} windows, latest "
            f"alert rate {latest.alert_rate:.0%}, p={latest.p_value:.3f} "
            f"({'DRIFTED' if latest.drifted else 'stable'})"
        )


if __name__ == "__main__":
    main()
