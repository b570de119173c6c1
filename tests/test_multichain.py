"""Tests for multi-chain fan-in monitoring (``repro.monitor.multichain``)
and the bytecode-free impersonation detector riding on it."""

import collections

import pytest

from repro.chain.addresses import create_address
from repro.chain.blocks import BlockStream, BlockStreamConfig, ContractLabel
from repro.chain.rpc import SimulatedEthereumNode
from repro.features.batch import BatchFeatureService
from repro.models.hsc import make_random_forest_hsc
from repro.monitor import (
    Alert,
    Checkpoint,
    ImpersonationAlert,
    ImpersonationDetector,
    MultiChainConfig,
    MultiChainMonitor,
    chain_stream_configs,
)
from repro.serving import ScoringService

N_BLOCKS = 22
CONFIRMATIONS = 2
N_CONFIRMED = N_BLOCKS - CONFIRMATIONS


@pytest.fixture(scope="module")
def detector(dataset):
    detector = make_random_forest_hsc(seed=3)
    detector.feature_service = BatchFeatureService()
    detector.fit(dataset.bytecodes, dataset.labels)
    return detector


def _config(**kwargs):
    from repro.monitor import MonitorConfig

    kwargs.setdefault("confirmations", CONFIRMATIONS)
    kwargs.setdefault("poll_blocks", 4)
    kwargs.setdefault("drift_window", 8)
    return MultiChainConfig(monitor=MonitorConfig(**kwargs))


def _mine(stream_config, blocks=N_BLOCKS):
    node = SimulatedEthereumNode(chain_id=stream_config.chain_id)
    node.mine(BlockStream(stream_config), blocks)
    return node


def _nodes(n_chains=3, **overrides):
    kwargs = {"seed": 67, "deploys_per_block": 2.0, "phishing_share": 0.3, **overrides}
    return [_mine(config) for config in chain_stream_configs(n_chains, BlockStreamConfig(**kwargs))]


# ----------------------------------------------------------------------
# impersonation: chain-side generation
# ----------------------------------------------------------------------


class TestImpersonationWave:
    def test_disabled_by_default_and_draw_stable(self):
        # Adding the impersonation knobs must not perturb existing chains:
        # the default config never consumes the extra RNG draw.
        plain = BlockStream(BlockStreamConfig(seed=9)).take(12)
        explicit = BlockStream(
            BlockStreamConfig(seed=9, impersonation_share=0.0)
        ).take(12)
        assert plain == explicit
        families = {
            tx.family for block in plain for tx in block.transactions
        }
        assert "address_impersonation" not in families

    def test_wave_produces_vanity_addresses_of_earlier_deployments(self):
        stream = BlockStream(
            BlockStreamConfig(
                seed=9, deploys_per_block=2.5, impersonation_share=0.5
            )
        )
        blocks = stream.take(20)
        seen = {}
        impersonations = []
        for block in blocks:
            for tx in block.transactions:
                if tx.family == "address_impersonation":
                    impersonations.append((block.number, tx))
                seen.setdefault(tx.contract_address, block.number)
        assert len(impersonations) >= 5
        for number, tx in impersonations:
            assert tx.label is ContractLabel.PHISHING
            prefix = tx.contract_address[2:6]
            suffix = tx.contract_address[-4:]
            victims = [
                (address, first_block)
                for address, first_block in seen.items()
                if address != tx.contract_address
                and address[2:6] == prefix
                and address[-4:] == suffix
            ]
            assert victims, "every impersonation copies a real address"
            assert min(first for _, first in victims) < number

    def test_honest_deployments_follow_create_rule(self):
        blocks = BlockStream(BlockStreamConfig(seed=9, deploys_per_block=2.0)).take(8)
        for block in blocks:
            for tx in block.transactions:
                assert tx.contract_address == create_address(tx.sender, tx.nonce)

    def test_chain_id_distinguishes_same_seed_chains(self):
        one = BlockStream(BlockStreamConfig(seed=9, chain_id=1)).take(6)
        two = BlockStream(BlockStreamConfig(seed=9, chain_id=2)).take(6)
        assert [b.block_hash for b in one] != [b.block_hash for b in two]
        # Same seed => same traffic content (the clone-heavy cross-chain
        # workload): bytecodes repeat even though hashes/addresses differ.
        bytecodes_one = [tx.bytecode for b in one for tx in b.transactions]
        bytecodes_two = [tx.bytecode for b in two for tx in b.transactions]
        assert bytecodes_one == bytecodes_two
        addresses_one = {tx.contract_address for b in one for tx in b.transactions}
        addresses_two = {tx.contract_address for b in two for tx in b.transactions}
        assert addresses_one.isdisjoint(addresses_two)

    def test_chain_stream_configs_spread_ids_and_seeds(self):
        configs = chain_stream_configs(3, BlockStreamConfig(seed=50))
        assert [c.chain_id for c in configs] == [1, 2, 3]
        assert [c.seed for c in configs] == [50, 51, 52]
        clones = chain_stream_configs(3, BlockStreamConfig(seed=50), spread_seeds=False)
        assert {c.seed for c in clones} == {50}


# ----------------------------------------------------------------------
# impersonation: detector
# ----------------------------------------------------------------------


class _Tx:
    def __init__(self, contract_address, tx_hash="0x" + "00" * 32, sender=None, nonce=0):
        self.contract_address = contract_address
        self.tx_hash = tx_hash
        self.sender = sender or "0x" + "11" * 20
        self.nonce = nonce


class TestImpersonationDetector:
    def test_flags_prefix_suffix_match_of_known_contract(self):
        detector = ImpersonationDetector(chain_id=7)
        victim = "0x" + "abcd" + "0" * 32 + "beef"
        scam = "0x" + "abcd" + "f" * 32 + "beef"
        assert detector.observe(1, _Tx(victim)) is None
        alert = detector.observe(5, _Tx(scam, tx_hash="0x" + "22" * 32))
        assert isinstance(alert, ImpersonationAlert)
        assert alert.chain_id == 7
        assert alert.block_number == 5
        assert alert.impersonated_address == victim
        assert alert.matched_prefix == "abcd"
        assert alert.matched_suffix == "beef"
        assert detector.alerts_emitted == 1

    def test_partial_match_not_flagged(self):
        detector = ImpersonationDetector()
        detector.observe(1, _Tx("0x" + "abcd" + "0" * 32 + "beef"))
        assert detector.observe(2, _Tx("0x" + "abcd" + "1" * 32 + "beee")) is None
        assert detector.observe(3, _Tx("0x" + "abce" + "2" * 32 + "beef")) is None

    def test_same_address_redeployment_not_flagged(self):
        detector = ImpersonationDetector()
        address = "0x" + "abcd" + "3" * 32 + "beef"
        detector.observe(1, _Tx(address))
        assert detector.observe(2, _Tx(address)) is None

    def test_registry_is_bounded_and_rolling(self):
        detector = ImpersonationDetector(known_contracts=3)
        victim = "0x" + "aaaa" + "0" * 32 + "bbbb"
        detector.observe(1, _Tx(victim))
        for i in range(3):  # evicts the victim from the 3-slot registry
            detector.observe(2, _Tx("0x" + f"{i:04x}" + "1" * 32 + f"{i + 8:04x}"))
        assert len(detector.known) == 3
        assert victim not in detector.known
        scam = "0x" + "aaaa" + "f" * 32 + "bbbb"
        assert detector.observe(9, _Tx(scam)) is None  # victim forgotten

    def test_derives_address_from_sender_and_nonce_when_receipt_absent(self):
        detector = ImpersonationDetector()
        sender, nonce = "0x" + "42" * 20, 11
        derived = create_address(sender, nonce)
        tx = _Tx(None, sender=sender, nonce=nonce)
        tx.contract_address = None
        detector.observe(1, tx)
        assert detector.known == (derived,)

    def test_state_round_trip(self):
        detector = ImpersonationDetector(known_contracts=4)
        detector.observe(1, _Tx("0x" + "abcd" + "0" * 32 + "beef"))
        detector.observe(2, _Tx("0x" + "abcd" + "1" * 32 + "beef", tx_hash="0x" + "33" * 32))
        restored = ImpersonationDetector(known_contracts=4)
        restored.restore(detector.state())
        assert restored.known == detector.known
        assert restored.observed == detector.observed
        assert restored.alerts_emitted == detector.alerts_emitted

    def test_restore_into_used_detector_rejected(self):
        detector = ImpersonationDetector()
        detector.observe(1, _Tx("0x" + "ab" * 20))
        with pytest.raises(ValueError):
            detector.restore({"known": [], "observed": 0, "alerts_emitted": 0})

    def test_validation(self):
        with pytest.raises(ValueError):
            ImpersonationDetector(known_contracts=0)
        with pytest.raises(ValueError):
            ImpersonationDetector(prefix_hex=0)
        with pytest.raises(ValueError):
            ImpersonationDetector(prefix_hex=30, suffix_hex=30)


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------


class TestMultiChainMonitor:
    def test_monitors_every_chain_through_one_service(self, detector):
        nodes = _nodes(3)
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(service, nodes, config=_config())
            stats = monitor.run()
        assert len(stats.chains) == 3
        assert [chain.chain_id for chain in stats.chains] == [1, 2, 3]
        for chain in stats.chains:
            assert chain.blocks_scanned == N_CONFIRMED
        assert stats.blocks_scanned == 3 * N_CONFIRMED
        assert stats.alerts_emitted == sum(c.alerts_emitted for c in stats.chains)
        assert stats.service.requests == stats.contracts_scanned

    def test_merged_alerts_attributed_and_deterministic(self, detector):
        def run_once():
            nodes = _nodes(3)
            with ScoringService(detector, node=nodes[0]) as service:
                monitor = MultiChainMonitor(service, nodes, config=_config())
                monitor.run()
                return list(monitor.sink.alerts)

        first, second = run_once(), run_once()
        assert first == second
        assert len(first) > 0
        assert {alert.chain_id for alert in first} == {1, 2, 3}
        # Within each chain the merged stream preserves block order.
        by_chain = collections.defaultdict(list)
        for alert in first:
            by_chain[alert.chain_id].append(alert.block_number)
        for numbers in by_chain.values():
            assert numbers == sorted(numbers)

    def test_kill_resume_reproduces_merged_stream_bit_for_bit(self, detector, tmp_path):
        """The acceptance criterion: scheduling is cursor-driven, so a kill
        at an arbitrary cross-chain block count resumes the *merged* alert
        order exactly — not merely each chain's own order."""
        nodes = _nodes(3)
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(service, nodes, config=_config())
            monitor.run()
            baseline = list(monitor.sink.alerts)

        for kill in [1, 7, 18, 30, 44]:
            workdir = tmp_path / f"kill-{kill}"
            nodes = _nodes(3)
            with ScoringService(detector, node=nodes[0]) as service:
                before_monitor = MultiChainMonitor(
                    service, nodes, config=_config(), checkpoint_dir=workdir
                )
                before_monitor.run(max_blocks=kill)
                before = list(before_monitor.sink.alerts)
            with ScoringService(detector, node=nodes[0]) as service:
                resumed = MultiChainMonitor(
                    service, nodes, config=_config(), checkpoint_dir=workdir
                )
                assert resumed.resumed
                resumed.run()
                after = list(resumed.sink.alerts)
            assert before + after == baseline, f"kill point {kill}"

    def test_impersonation_alerts_flow_through_merged_sink(self, detector):
        nodes = _nodes(2, impersonation_share=0.5, deploys_per_block=2.5)
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(service, nodes, config=_config())
            stats = monitor.run()
        impersonations = [
            alert for alert in monitor.sink.alerts
            if isinstance(alert, ImpersonationAlert)
        ]
        assert impersonations, "the wave must surface in the merged stream"
        assert stats.impersonation_alerts == len(impersonations)
        assert {alert.chain_id for alert in impersonations} <= {1, 2}
        truth = {}
        for node in nodes:
            for number in range(N_CONFIRMED):
                for tx in node.get_block(number).transactions:
                    truth[(node.chain_id, tx.contract_address)] = tx.family
        for alert in impersonations:
            assert truth[(alert.chain_id, alert.contract_address)] == "address_impersonation"
            assert alert.matched_prefix == alert.impersonated_address[2:6]
            assert alert.matched_suffix == alert.impersonated_address[-4:]

    def test_impersonation_needs_no_bytecode(self):
        # The detector sees deployment metadata only: feeding it the full
        # wave with bytecode withheld still produces every alert.
        stream_config = BlockStreamConfig(
            seed=67, deploys_per_block=2.5, impersonation_share=0.5
        )
        blocks = BlockStream(stream_config).take(N_BLOCKS)
        detector = ImpersonationDetector(chain_id=stream_config.chain_id)
        alerts = []
        for block in blocks:
            for tx in block.transactions:
                stripped = _Tx(tx.contract_address, tx.tx_hash, tx.sender, tx.nonce)
                alert = detector.observe(block.number, stripped)
                if alert is not None:
                    alerts.append(alert)
        expected = sum(
            1 for block in blocks for tx in block.transactions
            if tx.family == "address_impersonation"
        )
        assert expected > 0
        assert len(alerts) >= expected  # every planted scam plus any chance hit

    def test_impersonation_registry_survives_restart(self, detector, tmp_path):
        """A restarted monitor keeps recognising pre-kill contracts: the
        two-lifetime impersonation alert sequence equals the uninterrupted
        one (kill points land both before and after the wave's victims)."""
        nodes = _nodes(2, impersonation_share=0.4, deploys_per_block=2.5)
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(
                service, nodes, config=_config(), checkpoint_dir=tmp_path / "baseline"
            )
            monitor.run()
            baseline = [
                a for a in monitor.sink.alerts if isinstance(a, ImpersonationAlert)
            ]
        assert baseline, "the wave must produce impersonation alerts"
        for kill in [3, 11, 25]:
            workdir = tmp_path / f"seq-{kill}"
            nodes = _nodes(2, impersonation_share=0.4, deploys_per_block=2.5)
            with ScoringService(detector, node=nodes[0]) as service:
                first = MultiChainMonitor(
                    service, nodes, config=_config(), checkpoint_dir=workdir
                )
                first.run(max_blocks=kill)
                before = [
                    a for a in first.sink.alerts if isinstance(a, ImpersonationAlert)
                ]
            with ScoringService(detector, node=nodes[0]) as service:
                second = MultiChainMonitor(
                    service, nodes, config=_config(), checkpoint_dir=workdir
                )
                second.run()
                after = [
                    a for a in second.sink.alerts if isinstance(a, ImpersonationAlert)
                ]
            assert before + after == baseline, f"kill point {kill}"

    def test_per_tx_ordering_verdict_before_impersonation(self, detector):
        nodes = _nodes(2, impersonation_share=0.5, deploys_per_block=2.5)
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(service, nodes, config=_config())
            monitor.run()
        last_seen = {}
        for position, alert in enumerate(monitor.sink.alerts):
            key = (alert.chain_id, alert.tx_hash)
            if isinstance(alert, Alert):
                assert key not in last_seen
                last_seen[key] = position
            else:  # an impersonation alert for an already-flagged tx follows it
                if key in last_seen:
                    assert position > last_seen[key]

    def test_duplicate_or_missing_chain_ids_rejected(self, detector):
        nodes = _nodes(2)
        clash = _mine(BlockStreamConfig(seed=99, chain_id=nodes[0].chain_id))
        with ScoringService(detector, node=nodes[0]) as service:
            with pytest.raises(ValueError):
                MultiChainMonitor(service, [*nodes, clash], config=_config())
            with pytest.raises(ValueError):
                MultiChainMonitor(service, [], config=_config())
            anonymous = SimulatedEthereumNode(chain_id=0)
            with pytest.raises(ValueError):
                MultiChainMonitor(service, [anonymous], config=_config())

    def test_aggregate_stats_roll_up(self, detector):
        nodes = _nodes(2)
        with ScoringService(detector, node=nodes[0]) as service:
            monitor = MultiChainMonitor(service, nodes, config=_config())
            stats = monitor.run()
        assert stats.contracts_scanned == sum(c.contracts_scanned for c in stats.chains)
        assert stats.alert_rate == pytest.approx(
            stats.alerts_emitted / stats.contracts_scanned
        )
        assert stats.drift_windows == sum(c.drift_windows for c in stats.chains)
        assert stats.reorgs_detected == 0
