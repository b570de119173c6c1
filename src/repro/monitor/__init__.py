"""Deploy-time block-stream monitoring (the continuous-ingest subsystem).

PhishingHook's stated deployment scenario is catching phishing contracts
*at deploy time*: as contracts land on-chain, their bytecode is scored and
suspicious deployments are flagged within seconds — before victims interact
with them.  :mod:`repro.serving` gave the repository a request-facing
scoring service; this package adds the layer that *drives* it from a chain,
turning "scores bytecode on request" into "watches a chain and flags
phishing deployments as they happen".

Architecture
------------

Three cooperating pieces, each independently testable:

* :class:`~repro.monitor.follower.BlockFollower` — a reorg-safe poll loop
  over a block-producing node (``eth_blockNumber`` /
  ``eth_getBlockByNumber``): only blocks ``confirmations`` below the head
  are handed out, and a parent-hash linkage check rewinds the cursor if
  the chain is rewritten under the confirmation depth.
* :class:`~repro.monitor.checkpoint.Checkpoint` — an atomic JSON cursor
  file.  The pipeline saves it after every processed window, so a monitor
  killed between windows resumes *exactly* where it stopped:
  restart-from-checkpoint reproduces the uninterrupted alert sequence
  bit-for-bit, with no rescoring and no gaps.  (A kill in the instant
  between a window's alert emission and its checkpoint save re-emits that
  one window — at-least-once delivery at window granularity for
  externally side-effecting sinks.)
* :class:`~repro.monitor.pipeline.MonitorPipeline` — batches the newly
  deployed bytecodes of each confirmed block window into one vectorized
  :meth:`~repro.serving.ScoringService.score_batch` pass, emits
  :class:`~repro.monitor.pipeline.Alert` records through a pluggable sink
  (:class:`~repro.monitor.pipeline.ListSink`,
  :class:`~repro.monitor.pipeline.JsonlSink`, or anything implementing
  ``emit``), and snapshots :class:`~repro.monitor.pipeline.MonitorStats`
  (blocks/contracts scanned, alert rate, per-block scoring latency
  p50/p95, plus the embedded serving telemetry with its feature-cache hit
  rate and kernel passes).

On top rides the drift telemetry
(:class:`~repro.monitor.drift.DriftTracker`): scores are grouped into
fixed-size windows and each window is rank-tested (via
:mod:`repro.stats.rank_tests`) against a reference window, so the
time-resistance phenomenon of the paper's Fig. 8 becomes an operational
observable — a ``drifted`` flag and a shift statistic per window — instead
of a retrospective figure.

Two detectors ride on the pipeline: the opcode models behind the scoring
service, and the bytecode-free address-impersonation screen
(:class:`~repro.monitor.impersonation.ImpersonationDetector`) that flags
fresh deployments whose created address shares the displayed leading and
trailing hex digits of an already-known contract — the vanity-address
social-engineering scam no opcode feature can see.  Both emit through the
same pluggable sink.

Above the single-chain pipeline sits the fan-in supervisor
(:class:`~repro.monitor.multichain.MultiChainMonitor`): one pipeline per
simulated chain (distinct ``eth_chainId``, seed and schedule; per-chain
checkpoints under one directory), all scoring through one **shared**
:class:`~repro.serving.ScoringService` into one merged,
deterministically-ordered alert stream.

Knobs live in :class:`~repro.monitor.pipeline.MonitorConfig` and
:class:`~repro.monitor.multichain.MultiChainConfig`.  The chain
side (deterministic seeded block streams with configurable deploy-rate,
phishing-share and impersonation schedules) lives in
:mod:`repro.chain.blocks`; see ``examples/chain_monitor.py`` for the
end-to-end loop, ``examples/drift_monitoring.py`` for the drift telemetry
in action and ``examples/multichain_monitor.py`` for the multi-chain
fan-in with impersonation alerts.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    MonitorCursor,
    MonitorState,
)
from .drift import DriftTracker, DriftWindow
from .follower import BlockFollower
from .impersonation import ImpersonationAlert, ImpersonationDetector
from .multichain import (
    MultiChainConfig,
    MultiChainMonitor,
    MultiChainStats,
    chain_stream_configs,
)
from .pipeline import (
    Alert,
    AlertSink,
    JsonlSink,
    ListSink,
    MonitorConfig,
    MonitorPipeline,
    MonitorStats,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "MonitorCursor",
    "MonitorState",
    "DriftTracker",
    "DriftWindow",
    "BlockFollower",
    "ImpersonationAlert",
    "ImpersonationDetector",
    "MultiChainConfig",
    "MultiChainMonitor",
    "MultiChainStats",
    "chain_stream_configs",
    "Alert",
    "AlertSink",
    "JsonlSink",
    "ListSink",
    "MonitorConfig",
    "MonitorPipeline",
    "MonitorStats",
]
