"""Tests for the deploy-time monitoring subsystem (``repro.monitor``)."""

import json

import numpy as np
import pytest

from repro.chain.blocks import Block, BlockStream, BlockStreamConfig
from repro.chain.rpc import SimulatedEthereumNode
from repro.features.batch import BatchFeatureService
from repro.models.hsc import make_random_forest_hsc
from repro.monitor import (
    Alert,
    BlockFollower,
    Checkpoint,
    CheckpointError,
    DriftTracker,
    ImpersonationAlert,
    JsonlSink,
    ListSink,
    MonitorConfig,
    MonitorCursor,
    MonitorPipeline,
)
from repro.obs import trace as obs_trace
from repro.serving import ScoringService, ServingConfig


@pytest.fixture(scope="module")
def stream_config():
    return BlockStreamConfig(seed=23, deploys_per_block=2.0, phishing_share=0.35)


@pytest.fixture(scope="module")
def node(stream_config):
    node = SimulatedEthereumNode()
    node.mine(BlockStream(stream_config), 32)
    return node


@pytest.fixture(scope="module")
def fitted_detector(dataset):
    detector = make_random_forest_hsc(seed=3)
    detector.feature_service = BatchFeatureService()
    detector.fit(dataset.bytecodes, dataset.labels)
    return detector


@pytest.fixture()
def service(fitted_detector, node):
    with ScoringService(fitted_detector, node=node, config=ServingConfig(max_wait_ms=0.0)) as service:
        yield service


@pytest.fixture()
def monitor_config():
    return MonitorConfig(confirmations=2, poll_blocks=5, drift_window=10)


class TestCheckpoint:
    def test_missing_file_loads_none(self, tmp_path):
        assert Checkpoint(tmp_path / "cursor.json").load() is None

    def test_roundtrip(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "cursor.json")
        cursor = MonitorCursor(
            next_block=7,
            last_hash="0x" + "ab" * 32,
            blocks_scanned=7,
            contracts_scanned=19,
            alerts_emitted=4,
        )
        checkpoint.save(cursor)
        assert checkpoint.exists()
        state = checkpoint.load()
        assert state.cursor == cursor
        assert state.drift is None
        assert state.impersonation is None

    def test_roundtrip_with_component_state(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "cursor.json")
        drift = {"reference": [0.25, 0.5], "scores": [0.1], "alerts": [False],
                 "start_block": 4, "last_block": 4, "completed_windows": 3}
        impersonation = {"known": ["0x" + "ab" * 20], "observed": 9, "alerts_emitted": 1}
        checkpoint.save(MonitorCursor(next_block=5), drift=drift, impersonation=impersonation)
        state = checkpoint.load()
        assert state.drift == drift
        assert state.impersonation == impersonation

    def test_save_creates_parent_directories(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "deep" / "nested" / "cursor.json")
        checkpoint.save(MonitorCursor())
        assert checkpoint.load().cursor == MonitorCursor()

    def test_save_leaves_no_staging_files(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "cursor.json")
        for block in range(5):
            checkpoint.save(MonitorCursor(next_block=block))
        assert [p.name for p in tmp_path.iterdir()] == ["cursor.json"]

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "cursor.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            Checkpoint(path).load()

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "cursor.json"
        path.write_text(json.dumps({"version": 999, "next_block": 0}), encoding="utf-8")
        with pytest.raises(CheckpointError):
            Checkpoint(path).load()

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "cursor.json"
        path.write_text(
            json.dumps({"version": 2, "cursor": {"next_block": 3}}), encoding="utf-8"
        )
        with pytest.raises(CheckpointError):
            Checkpoint(path).load()

    def test_stale_v1_file_raises_loudly(self, tmp_path):
        # v1 persisted the flat cursor alone; silently adopting it would
        # re-baseline drift detection after every restart.
        path = tmp_path / "cursor.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "next_block": 9,
                    "last_hash": "0x" + "cd" * 32,
                    "blocks_scanned": 9,
                    "contracts_scanned": 21,
                    "alerts_emitted": 3,
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(CheckpointError, match="version 1"):
            Checkpoint(path).load()

    def test_init_sweeps_stale_staging_of_dead_writers(self, tmp_path):
        # A writer that crashed between the staging write and the atomic
        # rename leaks one staging file per attempt; pid 2**22+5 is far
        # above any live pid on this box.
        dead = tmp_path / f".cursor.json.{2**22 + 5}.abc123.tmp"
        dead.write_text("{}", encoding="utf-8")
        Checkpoint(tmp_path / "cursor.json")
        assert not dead.exists()

    def test_sweep_spares_live_writers_and_other_names(self, tmp_path):
        import os

        live = tmp_path / f".cursor.json.{os.getpid()}.beef.tmp"
        live.write_text("{}", encoding="utf-8")
        other = tmp_path / f".cursor.json.backup.{2**22 + 5}.dead.tmp"
        other.write_text("{}", encoding="utf-8")  # a different checkpoint's name
        odd = tmp_path / ".cursor.json.notapid.tmp"
        odd.write_text("{}", encoding="utf-8")  # malformed: never guessed about
        Checkpoint(tmp_path / "cursor.json")
        assert live.exists()
        assert other.exists()
        assert odd.exists()

    def test_crashed_save_staging_is_swept_on_reopen(self, tmp_path, monkeypatch):
        import os

        checkpoint = Checkpoint(tmp_path / "cursor.json")
        real_replace = os.replace
        monkeypatch.setattr(os, "replace", lambda *a: (_ for _ in ()).throw(OSError("boom")))
        staging = checkpoint._staging_path()
        with pytest.raises(CheckpointError):
            checkpoint.save(MonitorCursor(next_block=3))
        monkeypatch.setattr(os, "replace", real_replace)
        # The failed save cleaned its own staging file already …
        assert not staging.exists()
        # … and a staging file orphaned by a hard kill (no cleanup ran) is
        # swept when the checkpoint name is next opened by a fresh process.
        orphan = tmp_path / f".cursor.json.{2**22 + 7}.{id(checkpoint):x}.tmp"
        orphan.write_text("{}", encoding="utf-8")
        Checkpoint(tmp_path / "cursor.json")
        assert not orphan.exists()

    def test_clear_is_idempotent(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "cursor.json")
        checkpoint.save(MonitorCursor())
        checkpoint.clear()
        checkpoint.clear()
        assert checkpoint.load() is None

    def test_negative_cursor_rejected(self):
        with pytest.raises(ValueError):
            MonitorCursor(next_block=-1)
        with pytest.raises(ValueError):
            MonitorCursor(alerts_emitted=-1)


class TestBlockFollower:
    def test_confirmation_depth_holds_back_tip(self, node):
        follower = BlockFollower(node, confirmations=4)
        blocks = follower.poll()
        # head is 31, so only blocks 0..27 are confirmed.
        assert blocks[-1].number == 27
        assert follower.poll() == []

    def test_zero_confirmations_reach_head(self, node):
        follower = BlockFollower(node, confirmations=0)
        assert follower.poll()[-1].number == 31

    def test_poll_limit_batches_windows(self, node):
        follower = BlockFollower(node, confirmations=2)
        first = follower.poll(limit=10)
        second = follower.poll(limit=10)
        assert [b.number for b in first] == list(range(0, 10))
        assert [b.number for b in second] == list(range(10, 20))

    def test_cursor_resume_mid_chain(self, node):
        full = BlockFollower(node, confirmations=2)
        all_blocks = full.poll()
        resumed = BlockFollower(
            node,
            confirmations=2,
            start_block=12,
            last_hash=all_blocks[11].block_hash,
        )
        assert resumed.poll() == all_blocks[12:]

    def test_linkage_mismatch_rewinds(self, node):
        follower = BlockFollower(
            node, confirmations=2, start_block=10, last_hash="0x" + "ee" * 32
        )
        assert follower.poll() == []
        assert follower.reorgs_detected == 1
        assert follower.next_block == 7  # rewound by confirmations + 1
        assert follower.last_hash == ""
        # The refetch re-links cleanly from the rewound position.
        blocks = follower.poll(limit=5)
        assert [b.number for b in blocks] == [7, 8, 9, 10, 11]

    def test_deep_reorg_rewinds_to_the_fork_point(self):
        class ReorgableNode:
            """Serve a block dict that a test can rewrite mid-follow."""

            def __init__(self, blocks):
                self.blocks = {block.number: block for block in blocks}

            def block_number(self):
                return max(self.blocks)

            def get_block(self, number):
                return self.blocks.get(number)

        def fork_from(blocks, fork_point):
            """Rewrite the chain from ``fork_point`` on (distinct hashes)."""
            forked = list(blocks[:fork_point])
            parent = blocks[fork_point - 1].block_hash
            for original in blocks[fork_point:]:
                block = Block(
                    number=original.number,
                    block_hash="0x" + f"{original.number:02x}" * 32,
                    parent_hash=parent,
                    timestamp=original.timestamp,
                    transactions=original.transactions,
                )
                forked.append(block)
                parent = block.block_hash
            return forked

        original = BlockStream(BlockStreamConfig(seed=5, deploys_per_block=1.0)).take(12)
        node = ReorgableNode(original)
        follower = BlockFollower(node, confirmations=0)
        follower.poll(limit=10)
        assert follower.next_block == 10
        # A 4-deep reorg rewrites blocks 6..11 under the follower's cursor.
        replacement = fork_from(original, 6)
        node.blocks = {block.number: block for block in replacement}
        assert follower.poll() == []
        assert follower.reorgs_detected == 1
        # The rewind walked the recent-hash ring back to the exact fork
        # point, so every replaced block gets re-scored and nothing before
        # the fork is touched again.
        assert follower.next_block == 6
        assert follower.last_hash == original[5].block_hash
        refetched = follower.poll()
        assert [block.number for block in refetched] == [6, 7, 8, 9, 10, 11]
        assert refetched[0].parent_hash == original[5].block_hash
        assert refetched == replacement[6:]

    def test_rewind_never_precedes_genesis(self, node):
        follower = BlockFollower(
            node, confirmations=8, start_block=3, last_hash="0x" + "ee" * 32
        )
        follower.poll()
        assert follower.next_block == 0

    def test_validation(self, node):
        with pytest.raises(ValueError):
            BlockFollower(node, confirmations=-1)
        with pytest.raises(ValueError):
            BlockFollower(node, start_block=-1)
        with pytest.raises(ValueError):
            BlockFollower(node).poll(limit=0)


class TestDriftTracker:
    def test_first_window_becomes_reference(self):
        tracker = DriftTracker(window=4)
        windows = tracker.observe([0.1, 0.2, 0.1, 0.3], [False] * 4, block_number=1)
        assert len(windows) == 1
        assert windows[0].p_value == 1.0
        assert not windows[0].drifted
        assert tracker.reference is not None

    def test_shifted_window_detected(self):
        rng = np.random.default_rng(0)
        tracker = DriftTracker(window=64)
        tracker.observe(rng.uniform(0.0, 0.3, size=64), [False] * 64, block_number=1)
        report = tracker.observe(
            rng.uniform(0.6, 1.0, size=64), [True] * 64, block_number=2
        )[0]
        assert report.drifted
        assert report.p_value < 0.05
        assert report.mean_shift > 0.3
        assert report.alert_rate == 1.0
        assert tracker.drifted

    def test_same_distribution_not_flagged(self):
        rng = np.random.default_rng(1)
        tracker = DriftTracker(window=64, alpha=0.01)
        tracker.observe(rng.uniform(size=64), [False] * 64, block_number=1)
        report = tracker.observe(rng.uniform(size=64), [False] * 64, block_number=2)[0]
        assert not report.drifted

    def test_identical_scores_are_not_drift(self):
        tracker = DriftTracker(window=3)
        tracker.observe([0.5] * 3, [False] * 3, block_number=1)
        report = tracker.observe([0.5] * 3, [False] * 3, block_number=2)[0]
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_explicit_reference_sample(self):
        tracker = DriftTracker(window=32, reference=[0.1] * 16 + [0.2] * 16)
        report = tracker.observe([0.9] * 32, [True] * 32, block_number=5)[0]
        assert report.drifted

    def test_window_block_span_recorded(self):
        tracker = DriftTracker(window=4)
        tracker.observe([0.1, 0.2], [False, False], block_number=3)
        report = tracker.observe([0.3, 0.4], [False, False], block_number=5)[0]
        assert (report.start_block, report.end_block) == (3, 5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DriftTracker().observe([0.1], [], block_number=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftTracker(window=1)
        with pytest.raises(ValueError):
            DriftTracker(alpha=0.0)


class TestMonitorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confirmations": -1},
            {"poll_blocks": 0},
            {"start_block": -1},
            {"drift_window": 1},
            {"drift_alpha": 1.0},
            {"latency_window": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MonitorConfig(**kwargs)

class TestMonitorPipeline:
    def test_run_scans_confirmed_chain(self, service, node, monitor_config):
        pipeline = MonitorPipeline(service, node, config=monitor_config)
        stats = pipeline.run()
        assert stats.blocks_scanned == 30  # head 31 minus 2 confirmations, +genesis
        assert stats.next_block == 30
        assert stats.contracts_scanned == sum(
            len(node.get_block(n).transactions) for n in range(30)
        )
        assert stats.windows == 6  # 30 blocks in windows of 5
        assert stats.reorgs_detected == 0

    def test_alerts_deterministic_and_ordered(self, fitted_detector, node, monitor_config):
        def run_once():
            with ScoringService(fitted_detector, node=node) as service:
                pipeline = MonitorPipeline(service, node, config=monitor_config)
                pipeline.run()
                return pipeline.sink.alerts

        first, second = run_once(), run_once()
        assert first == second
        assert len(first) > 0
        blocks = [alert.block_number for alert in first]
        assert blocks == sorted(blocks)

    def test_alerts_flag_true_phishing_mostly(self, service, node, monitor_config):
        pipeline = MonitorPipeline(service, node, config=monitor_config)
        stats = pipeline.run()
        truth = {
            tx.contract_address: tx.is_phishing
            for n in range(stats.blocks_scanned)
            for tx in node.get_block(n).transactions
        }
        flagged = [truth[a.contract_address] for a in pipeline.sink.alerts]
        # The detector is imperfect but far better than chance.
        assert np.mean(flagged) > 0.6

    def test_max_blocks_caps_exactly(self, service, node, monitor_config):
        pipeline = MonitorPipeline(service, node, config=monitor_config)
        stats = pipeline.run(max_blocks=7)
        assert stats.blocks_scanned == 7
        assert stats.next_block == 7
        # Windows clamp to the cap: 5 + 2.
        assert stats.windows == 2

    def test_run_is_incremental(self, service, node, monitor_config):
        pipeline = MonitorPipeline(service, node, config=monitor_config)
        pipeline.run(max_blocks=7)
        stats = pipeline.run()
        assert stats.blocks_scanned == 30
        assert pipeline.run().blocks_scanned == 30  # chain exhausted, no-op

    def test_checkpoint_written_per_window(self, service, node, monitor_config, tmp_path):
        checkpoint = Checkpoint(tmp_path / "cursor.json")
        pipeline = MonitorPipeline(service, node, config=monitor_config, checkpoint=checkpoint)
        pipeline.run(max_blocks=5)
        cursor = checkpoint.load().cursor
        assert cursor.next_block == 5
        assert cursor.last_hash == node.get_block(4).block_hash
        assert cursor.blocks_scanned == 5

    def test_counters_cumulative_across_resume(
        self, service, node, monitor_config, tmp_path
    ):
        checkpoint = Checkpoint(tmp_path / "cursor.json")
        MonitorPipeline(
            service, node, config=monitor_config, checkpoint=checkpoint
        ).run(max_blocks=10)
        resumed = MonitorPipeline(
            service, node, config=monitor_config, checkpoint=checkpoint
        )
        assert resumed.resumed
        stats = resumed.run()
        assert stats.blocks_scanned == 30
        assert stats.next_block == 30

    def test_latency_and_drift_telemetry(self, service, node, monitor_config):
        pipeline = MonitorPipeline(service, node, config=monitor_config)
        stats = pipeline.run()
        assert stats.block_latency_ms_p50 > 0.0
        assert stats.block_latency_ms_p95 >= stats.block_latency_ms_p50
        assert stats.block_latency_ms_p99 >= stats.block_latency_ms_p95
        assert stats.drift_windows == len(pipeline.drift_windows)
        assert stats.drift_windows >= 1
        assert stats.alert_rate == pytest.approx(
            stats.alerts_emitted / stats.contracts_scanned
        )

    def test_service_telemetry_embedded(self, service, node, monitor_config):
        pipeline = MonitorPipeline(service, node, config=monitor_config)
        stats = pipeline.run()
        assert stats.service.requests == stats.contracts_scanned
        # Re-monitoring the same chain is pure verdict-cache traffic.
        rerun = MonitorPipeline(service, node, config=monitor_config)
        rerun_stats = rerun.run()
        assert rerun_stats.service.kernel_passes == stats.service.kernel_passes
        assert rerun_stats.service.verdict_hit_rate > 0.5

    def test_custom_sink_receives_alerts(self, service, node, monitor_config):
        sink = ListSink()
        pipeline = MonitorPipeline(service, node, config=monitor_config, sink=sink)
        pipeline.run()
        assert sink.alerts
        assert all(isinstance(alert, Alert) for alert in sink.alerts)

    def test_jsonl_sink_round_trips(self, service, node, monitor_config, tmp_path):
        path = tmp_path / "alerts" / "stream.jsonl"
        sink = JsonlSink(path)
        pipeline = MonitorPipeline(service, node, config=monitor_config, sink=sink)
        pipeline.run()
        sink.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == pipeline.stats().alerts_emitted
        first = json.loads(lines[0])
        assert set(first) == {
            "block_number", "contract_address", "tx_hash", "probability",
            "threshold", "chain_id", "static_findings",
        }

    def test_structured_jsonl_sink_stamps_event_envelope(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, structured=True)
        trace = obs_trace.new_trace(trace_id="feedc0de00000001")
        with obs_trace.activate(trace):
            sink.emit(
                Alert(
                    block_number=7,
                    contract_address="0x" + "ab" * 20,
                    tx_hash="0x" + "01" * 32,
                    probability=0.91,
                    threshold=0.5,
                    chain_id=1337,
                )
            )
            sink.emit(
                ImpersonationAlert(
                    chain_id=1337,
                    block_number=8,
                    tx_hash="0x" + "02" * 32,
                    contract_address="0x" + "cd" * 20,
                    impersonated_address="0x" + "ef" * 20,
                    matched_prefix="cdcd",
                    matched_suffix="cdcd",
                )
            )
        sink.close()
        first, second = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert first["event"] == "Alert"
        assert second["event"] == "ImpersonationAlert"
        assert first["trace_id"] == second["trace_id"] == "feedc0de00000001"
        assert first["chain_id"] == second["chain_id"] == 1337
        # The alert's own fields still round-trip inside the envelope.
        assert first["probability"] == 0.91
        assert second["impersonated_address"] == "0x" + "ef" * 20

    def test_structured_sink_through_pipeline_run(
        self, service, node, monitor_config, tmp_path
    ):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, structured=True)
        pipeline = MonitorPipeline(service, node, config=monitor_config, sink=sink)
        pipeline.run()
        sink.close()
        lines = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert len(lines) == pipeline.stats().alerts_emitted
        # Each processed window runs under its own trace, so every emitted
        # event carries a joinable trace id.
        assert all(record["event"] == "Alert" for record in lines)
        assert all(record["trace_id"] for record in lines)

    def test_default_jsonl_sink_shape_unchanged_by_structured_mode(
        self, service, node, monitor_config, tmp_path
    ):
        sink = JsonlSink(tmp_path / "plain.jsonl")
        assert sink.structured is False

    def test_negative_max_blocks_rejected(self, service, node, monitor_config):
        with pytest.raises(ValueError):
            MonitorPipeline(service, node, config=monitor_config).run(max_blocks=-1)

    def test_empty_chain_terminates_cleanly(self, service, monitor_config):
        empty = SimulatedEthereumNode(latest_block=0)
        pipeline = MonitorPipeline(service, empty, config=monitor_config)
        # latest_block=0 with confirmations=2 means nothing is confirmed.
        stats = pipeline.run()
        assert stats.blocks_scanned == 0
        assert stats.windows == 0
