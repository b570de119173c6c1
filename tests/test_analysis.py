"""Tests for ``repro.analysis``: lint rules, analyzer caching, integrations.

The per-family matrix pins the headline acceptance criteria: every
``chain.templates`` family round-trips through :func:`analyze_cfg` with all
jumps resolved, benign families never produce a HIGH finding, and each
phishing family (with its signature fragment forced into the mix) triggers
the expected rule.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisReport,
    DEFAULT_RULES,
    Finding,
    RULES,
    Severity,
    StaticAnalyzer,
)
from repro.chain import templates
from repro.chain.blocks import BlockStream, BlockStreamConfig
from repro.chain.rpc import SimulatedEthereumNode
from repro.evm import analyze_cfg
from repro.features.batch import BatchFeatureService
from repro.models.hsc import make_random_forest_hsc
from repro.monitor import MonitorConfig, MonitorPipeline, JsonlSink
from repro.serving import ScoringService, ServingConfig

NON_PROXY_BENIGN = [f for f in templates.BENIGN_FAMILIES if not f.is_proxy]
NON_PROXY_PHISHING = [f for f in templates.PHISHING_FAMILIES if not f.is_proxy]
FAMILY_BY_NAME = {f.name: f for f in templates.ALL_FAMILIES}


def build(name, rng, mix_bias=None):
    return templates.build_family_bytecode(
        FAMILY_BY_NAME[name], rng, mix_bias=mix_bias
    )


#: (family, forced fragment, rule the fragment must trigger).
SIGNATURE_RULES = [
    ("sweeper_backdoor", "selfdestruct", "reachable-selfdestruct"),
    ("approval_drainer", "approval_harvest", "approval-drain"),
    ("counterfeit_token", "hidden_redirect", "hidden-redirect"),
    ("fake_airdrop", "selfbalance_sweep", "balance-sweep"),
]


@pytest.fixture(scope="module")
def analyzer():
    return StaticAnalyzer(features=BatchFeatureService())


# ---------------------------------------------------------------------------
# per-family matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [f.name for f in NON_PROXY_BENIGN])
def test_benign_family_has_no_high_findings(analyzer, family):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        code = build(family, rng)
        report = analyzer.analyze(code)
        assert report.max_severity() < Severity.HIGH, (family, seed, report.findings)
        assert report.metrics.unresolved_jumps == 0


@pytest.mark.parametrize("family,fragment,rule_name", SIGNATURE_RULES)
def test_phishing_family_triggers_signature_rule(analyzer, family, fragment, rule_name):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        code = build(family, rng, mix_bias={fragment: 50.0})
        report = analyzer.analyze(code)
        assert report.has(rule_name), (family, seed, report.findings)
        assert report.max_severity() >= Severity.HIGH
        assert report.metrics.unresolved_jumps == 0


def test_proxy_families_flag_delegatecall_forward(analyzer):
    report = analyzer.analyze(templates.minimal_proxy_bytecode("0x" + "22" * 20))
    assert report.has("delegatecall-forward")
    assert report.max_severity() == Severity.MEDIUM


@pytest.mark.parametrize(
    "family", [f.name for f in NON_PROXY_BENIGN + NON_PROXY_PHISHING]
)
def test_every_family_resolves_all_jumps(family):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        code = build(family, rng)
        assert analyze_cfg(code).metrics.unresolved_jumps == 0


# ---------------------------------------------------------------------------
# proxy implementation resolution
# ---------------------------------------------------------------------------


def test_proxy_resolution_lifts_implementation_findings():
    impl_address = "0x" + "ab" * 20
    rng = np.random.default_rng(0)
    impl_code = build(
        "sweeper_backdoor", rng, mix_bias={"selfdestruct": 50.0}
    )

    calls = []

    def resolver(address):
        calls.append(address)
        return impl_code if address == impl_address else b""

    analyzer = StaticAnalyzer(
        features=BatchFeatureService(), code_resolver=resolver
    )
    report = analyzer.analyze(templates.minimal_proxy_bytecode(impl_address))
    assert calls == [impl_address]
    assert report.resolved_implementations == (impl_address,)
    lifted = report.by_rule("reachable-selfdestruct")
    assert lifted and all(f.address == impl_address for f in lifted)
    assert all(f.message.startswith("[impl ") for f in lifted)
    assert report.max_severity() == Severity.HIGH
    assert analyzer.stats().proxy_resolutions == 1


def test_proxy_resolution_survives_resolver_errors():
    def resolver(address):
        raise ConnectionError("node down")

    analyzer = StaticAnalyzer(
        features=BatchFeatureService(), code_resolver=resolver
    )
    report = analyzer.analyze(templates.minimal_proxy_bytecode("0x" + "cd" * 20))
    assert report.has("delegatecall-forward")
    assert report.resolved_implementations == ()


def test_proxy_resolution_uses_simulated_node_get_code():
    node = SimulatedEthereumNode()
    node.mine(BlockStream(BlockStreamConfig(seed=5, deploys_per_block=2.0)), 8)
    analyzer = StaticAnalyzer(
        features=BatchFeatureService(), code_resolver=node.get_code
    )
    # Proxies minted by the stream point at deployed implementations.
    deployed = [
        tx
        for n in range(node.block_number() + 1)
        for tx in node.get_block(n).transactions
    ]
    proxies = [
        tx.bytecode
        for tx in deployed
        if analyze_cfg(tx.bytecode).metrics.delegatecalls > 0
        and len(tx.bytecode) < 64
    ]
    for code in proxies:
        report = analyzer.analyze(code)
        assert report.has("delegatecall-forward")


# ---------------------------------------------------------------------------
# analyzer caching + batch path
# ---------------------------------------------------------------------------


def test_report_cache_hits_on_repeat_analysis():
    analyzer = StaticAnalyzer(features=BatchFeatureService())
    rng = np.random.default_rng(7)
    code = build("erc20_token", rng)
    first = analyzer.analyze(code)
    second = analyzer.analyze(code)
    assert first is second
    stats = analyzer.stats()
    assert stats.analyses == 1  # one fresh analysis; the repeat was a hit
    assert stats.cache_hits == 1
    assert stats.cache_misses == 1
    assert stats.hit_rate == 0.5
    analyzer.cache_clear()
    analyzer.analyze(code)
    assert analyzer.stats().cache_misses == 2


def test_report_cache_evicts_at_capacity():
    analyzer = StaticAnalyzer(
        config=AnalysisConfig(report_cache=2), features=BatchFeatureService()
    )
    codes = [
        build("erc20_token", np.random.default_rng(seed))
        for seed in range(3)
    ]
    for code in codes:
        analyzer.analyze(code)
    analyzer.analyze(codes[0])  # evicted by the third insert
    assert analyzer.stats().cache_misses == 4


def test_analyze_many_matches_analyze(bytecodes):
    subset = list(bytecodes[:12])
    batch = StaticAnalyzer(features=BatchFeatureService())
    single = StaticAnalyzer(features=BatchFeatureService())
    reports = batch.analyze_many(subset)
    assert len(reports) == len(subset)
    for code, report in zip(subset, reports):
        expected = single.analyze(code)
        assert report.to_dict() == expected.to_dict()


def test_default_rules_registry_is_complete():
    assert set(DEFAULT_RULES) == set(RULES)
    expected = {
        "reachable-selfdestruct",
        "balance-sweep",
        "approval-drain",
        "hidden-redirect",
        "delegatecall-forward",
        "owner-gated-guard",
        "timestamp-gate",
        "unresolved-jump",
        "dead-code",
    }
    assert expected <= set(RULES)


def test_rule_subset_restricts_findings():
    rng = np.random.default_rng(0)
    code = build(
        "sweeper_backdoor", rng, mix_bias={"selfdestruct": 50.0}
    )
    analyzer = StaticAnalyzer(
        features=BatchFeatureService(), rules=("timestamp-gate",)
    )
    report = analyzer.analyze(code)
    assert not report.has("reachable-selfdestruct")
    assert all(f.rule == "timestamp-gate" for f in report.findings)


# ---------------------------------------------------------------------------
# report shape
# ---------------------------------------------------------------------------


def test_report_to_dict_is_json_serializable(analyzer):
    rng = np.random.default_rng(1)
    code = build(
        "approval_drainer", rng, mix_bias={"approval_harvest": 50.0}
    )
    payload = analyzer.analyze(code).to_dict()
    text = json.dumps(payload)
    decoded = json.loads(text)
    assert decoded["max_severity"] == "high"
    assert decoded["findings"], "expected at least one finding"
    finding = decoded["findings"][0]
    assert set(finding) >= {"rule", "severity", "pc", "message"}
    assert all(s.startswith("0x") and len(s) == 10 for s in decoded["selectors"])
    assert decoded["metrics"]["unresolved_jumps"] == 0


def test_severity_ordering():
    assert Severity.INFO < Severity.LOW < Severity.MEDIUM < Severity.HIGH
    empty = AnalysisReport(findings=(), metrics=analyze_cfg(b"").metrics)
    assert empty.max_severity() == Severity.INFO


def test_findings_sorted_by_severity_then_pc(analyzer):
    rng = np.random.default_rng(2)
    code = build(
        "sweeper_backdoor", rng, mix_bias={"selfdestruct": 50.0}
    )
    findings = analyzer.analyze(code).findings
    keys = [(-int(f.severity), f.pc, f.rule) for f in findings]
    assert keys == sorted(keys)


def test_max_findings_truncates():
    rng = np.random.default_rng(3)
    code = build("sweeper_backdoor", rng)
    analyzer = StaticAnalyzer(
        config=AnalysisConfig(max_findings=1), features=BatchFeatureService()
    )
    report = analyzer.analyze(code)
    assert len(report.findings) <= 1


# ---------------------------------------------------------------------------
# feature-service analysis view
# ---------------------------------------------------------------------------


def test_feature_service_analysis_view_caches(bytecodes):
    service = BatchFeatureService()
    subset = list(bytecodes[:8])
    matrix = service.analysis_matrix(subset)
    assert matrix.shape == (len(subset), 16)
    assert service.analysis_stats.misses == len(set(map(bytes, subset)))
    again = service.analysis_matrix(subset)
    np.testing.assert_array_equal(matrix, again)
    assert service.analysis_stats.misses == len(set(map(bytes, subset)))


def test_feature_service_analysis_view_persists(tmp_path, bytecodes):
    subset = list(bytecodes[:6])
    service = BatchFeatureService()
    matrix = service.analysis_matrix(subset)
    path = tmp_path / "cache.npz"
    service.save(path)
    fresh = BatchFeatureService()
    fresh.load(path)
    reloaded = fresh.analysis_matrix(subset)
    np.testing.assert_array_equal(matrix, reloaded)
    assert fresh.analysis_stats.misses == 0


# ---------------------------------------------------------------------------
# monitor integration
# ---------------------------------------------------------------------------


def test_monitor_alerts_carry_static_findings(tmp_path, dataset):
    detector = make_random_forest_hsc(seed=3)
    detector.feature_service = BatchFeatureService()
    detector.fit(dataset.bytecodes, dataset.labels)
    node = SimulatedEthereumNode()
    node.mine(
        BlockStream(
            BlockStreamConfig(seed=23, deploys_per_block=2.0, phishing_share=0.5)
        ),
        16,
    )
    analyzer = StaticAnalyzer(
        features=BatchFeatureService(), code_resolver=node.get_code
    )
    sink_path = tmp_path / "alerts.jsonl"
    with ScoringService(
        detector, node=node, config=ServingConfig(max_wait_ms=0.0)
    ) as service:
        pipeline = MonitorPipeline(
            service,
            node,
            config=MonitorConfig(confirmations=2, poll_blocks=5),
            sink=JsonlSink(sink_path),
            analyzer=analyzer,
        )
        pipeline.run()
        pipeline.sink.close()
    lines = [json.loads(line) for line in sink_path.read_text().splitlines()]
    assert lines, "expected at least one alert"
    assert all("static_findings" in alert for alert in lines)
    decorated = [a for a in lines if a["static_findings"]]
    assert decorated, "expected at least one alert with static findings"
    finding = decorated[0]["static_findings"][0]
    assert finding["rule"] in RULES
    assert isinstance(finding["severity"], int)


def test_monitor_without_analyzer_emits_empty_findings(dataset):
    detector = make_random_forest_hsc(seed=3)
    detector.feature_service = BatchFeatureService()
    detector.fit(dataset.bytecodes, dataset.labels)
    node = SimulatedEthereumNode()
    node.mine(
        BlockStream(
            BlockStreamConfig(seed=23, deploys_per_block=2.0, phishing_share=0.5)
        ),
        12,
    )
    with ScoringService(
        detector, node=node, config=ServingConfig(max_wait_ms=0.0)
    ) as service:
        pipeline = MonitorPipeline(
            service, node, config=MonitorConfig(confirmations=2, poll_blocks=5)
        )
        pipeline.run()
        alerts = pipeline.sink.alerts
    assert alerts
    assert all(alert.static_findings == () for alert in alerts)


def test_finding_asdict_roundtrip():
    finding = Finding(
        rule="reachable-selfdestruct",
        severity=Severity.HIGH,
        pc=42,
        message="SELFDESTRUCT reachable from dispatcher",
    )
    payload = asdict(finding)
    assert json.loads(json.dumps(payload))["pc"] == 42
    assert finding.to_dict()["severity"] == "high"
