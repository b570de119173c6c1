"""Drift monitoring: the time-resistance analysis as live telemetry.

The paper's Fig. 8 shows model quality decaying as the contract population
shifts over months — measured offline, after the fact.  This example runs
the same phenomenon through the deploy-time monitoring pipeline instead: a
detector trained on today's contract mix watches a chain whose phishing
wave composition ramps up phase by phase, and the monitor's
:class:`~repro.monitor.DriftTracker` turns the shift into an observable —
a windowed alert rate plus a rank-test statistic (the non-parametric
machinery of the paper's PAM, reused from :mod:`repro.stats`) comparing
each score window against the reference distribution captured when the
monitor went live.  A drifted window is the operational retraining trigger
that the offline AUT analysis can only recommend in hindsight.

Continuous monitoring
---------------------

The pipeline processes the chain in confirmed block windows and terminates
cleanly when the stream is drained (``run()`` returns once a poll comes
back empty), so this example is a bounded batch over a finite simulated
chain; pointed at a live node, the same loop just keeps following the head.
Checkpointed resume (see ``examples/chain_monitor.py``) applies unchanged.

Run with::

    python examples/drift_monitoring.py
"""

from __future__ import annotations

from repro import MonitorConfig, MonitorPipeline, PhishingHook, Scale, ScoringService, build_model
from repro.chain.blocks import BlockStream, BlockStreamConfig
from repro.chain.rpc import SimulatedEthereumNode

RETRAIN_ALERT_RATE = 0.5


def main() -> None:
    scale = Scale.smoke()
    hook = PhishingHook(scale=scale)
    dataset = hook.build_dataset()

    detector = build_model("Random Forest", seed=1)
    detector.fit(dataset.bytecodes, dataset.labels)

    # A chain whose phishing share ramps 1x → 2x → 4x across phases: the
    # population shift of the paper's time-resistance experiment, replayed
    # as a block stream.
    stream = BlockStream(
        BlockStreamConfig(
            seed=29,
            deploys_per_block=3.0,
            phishing_share=0.15,
            phishing_profile=(1.0, 2.0, 4.0),
            blocks_per_phase=14,
        )
    )
    node = SimulatedEthereumNode()
    node.mine(stream, 44)

    config = MonitorConfig(drift_window=24)
    with ScoringService(detector, node=node) as service:
        monitor = MonitorPipeline(service, node, config=config)
        stats = monitor.run()

    print(
        f"monitored {stats.blocks_scanned} blocks / {stats.contracts_scanned} "
        f"deployments across 3 phases (phishing share ramping 1x -> 4x)\n"
    )
    print("window  blocks      alert-rate  mean P(phish)   shift-stat       p  status")
    for window in monitor.drift_windows:
        status = "reference" if window.index == 0 else (
            "DRIFTED" if window.drifted else "stable"
        )
        print(
            f"{window.index:6d}  {window.start_block:4d}-{window.end_block:4d}"
            f"  {window.alert_rate:10.0%}  {window.mean_score:13.2f}"
            f"  {window.statistic:10.2f}  {window.p_value:6.3f}  {status}"
        )

    print()
    latest = monitor.drift.latest
    if latest is None:
        print("[..] not enough scored deployments for a drift window yet")
    elif latest.drifted and latest.alert_rate > RETRAIN_ALERT_RATE:
        print(
            f"[!] score distribution shifted (p={latest.p_value:.3f}) and the "
            f"alert rate hit {latest.alert_rate:.0%} — schedule retraining"
        )
    elif latest.drifted:
        print(
            f"[!] score distribution shifted (p={latest.p_value:.3f}) — "
            f"investigate the new deployment mix"
        )
    else:
        print(f"[ok] latest window stable (p={latest.p_value:.3f}) — model holds")


if __name__ == "__main__":
    main()
