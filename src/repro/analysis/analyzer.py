"""The static-analysis engine: cached CFG lints with proxy resolution.

:class:`StaticAnalyzer` turns one bytecode into one
:class:`~repro.analysis.report.AnalysisReport`: it borrows the disassembly
(:class:`~repro.evm.fastcount.OpcodeSequence`) from a shared
:class:`~repro.features.batch.BatchFeatureService` — the same cached view
the histogram/n-gram/image features read, so scoring plus analysis still
costs one kernel pass per unique bytecode — runs
:func:`~repro.evm.cfg.analyze_cfg`, evaluates the lint registry, and
memoizes the finished report in a content-hash LRU.  Constant and EIP-1167
``DELEGATECALL`` targets are resolved through an injectable
``code_resolver`` (typically a node's ``eth_getCode``) and the
implementation's findings are lifted into the proxy's report with address
provenance, bounded by ``proxy_depth``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..evm.cfg import analyze_cfg
from ..evm.disassembler import BytecodeLike, normalize_bytecode
from ..features.batch import BatchFeatureService, content_key, resolve_service
from .report import AnalysisReport, Finding, Severity
from .rules import RULES


@dataclass(frozen=True)
class AnalysisConfig:
    """Static-analysis knobs.

    ``report_cache`` bounds the analyzer's content-hash report LRU,
    ``proxy_depth`` how many ``DELEGATECALL`` indirections are resolved and
    analyzed transitively (0 disables resolution), ``dead_ratio`` the
    unreachable-region fraction above which the ``dead-code`` rule fires,
    and ``max_findings`` truncates pathological reports.
    """

    report_cache: int = 4096
    proxy_depth: int = 1
    dead_ratio: float = 0.4
    max_findings: int = 64


@dataclass(frozen=True)
class AnalysisStats:
    """Telemetry snapshot of one :class:`StaticAnalyzer` (``/stats`` shape)."""

    analyses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    proxy_resolutions: int = 0
    findings: int = 0
    high_severity: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


#: ``eth_getCode``-shaped callable: hex address -> deployed bytecode.
CodeResolver = Callable[[str], bytes]


class StaticAnalyzer:
    """Content-hash-cached lint evaluation over resolved CFGs.

    Thread-safe: the report cache and counters sit behind one lock, and
    reports themselves are immutable.  Safe to share between the gateway's
    executor threads, the monitor pipeline, and batch drivers.
    """

    def __init__(
        self,
        config: Optional[AnalysisConfig] = None,
        features: Optional[BatchFeatureService] = None,
        code_resolver: Optional[CodeResolver] = None,
        rules: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config or AnalysisConfig()
        self._features = features
        self._code_resolver = code_resolver
        if rules is None:
            self._rules = tuple(RULES)
        else:
            unknown = [name for name in rules if name not in RULES]
            if unknown:
                raise ValueError(f"unknown analysis rules: {unknown}")
            self._rules = tuple(rules)
        self._reports: "OrderedDict[bytes, AnalysisReport]" = OrderedDict()
        self._lock = threading.Lock()
        self._analyses = 0
        self._hits = 0
        self._misses = 0
        self._proxy_resolutions = 0
        self._findings = 0
        self._high = 0
        self._rule_hits: Dict[str, int] = {}

    # -- cache plumbing ------------------------------------------------------

    def _cache_get(self, key: bytes) -> Optional[AnalysisReport]:
        with self._lock:
            report = self._reports.get(key)
            if report is not None:
                self._reports.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return report

    def _cache_put(self, key: bytes, report: AnalysisReport) -> None:
        with self._lock:
            self._reports[key] = report
            self._reports.move_to_end(key)
            while len(self._reports) > self.config.report_cache:
                self._reports.popitem(last=False)
            self._analyses += 1
            self._findings += len(report.findings)
            self._high += sum(
                1 for f in report.findings if f.severity >= Severity.HIGH
            )
            for finding in report.findings:
                self._rule_hits[finding.rule] = (
                    self._rule_hits.get(finding.rule, 0) + 1
                )

    def cache_clear(self) -> None:
        """Drop all memoized reports (telemetry counters are kept)."""
        with self._lock:
            self._reports.clear()

    def stats(self) -> AnalysisStats:
        """Point-in-time telemetry snapshot."""
        with self._lock:
            return AnalysisStats(
                analyses=self._analyses,
                cache_hits=self._hits,
                cache_misses=self._misses,
                proxy_resolutions=self._proxy_resolutions,
                findings=self._findings,
                high_severity=self._high,
            )

    def rule_hits(self) -> Dict[str, int]:
        """Cumulative finding counts by rule (kept out of the pinned
        :class:`AnalysisStats` shape; the observability bridge labels its
        ``repro_analysis_rule_hits_total`` series with these keys)."""
        with self._lock:
            return dict(self._rule_hits)

    # -- analysis ------------------------------------------------------------

    def analyze(self, bytecode: BytecodeLike) -> AnalysisReport:
        """Full report for one bytecode (memoized by content hash)."""
        code = normalize_bytecode(bytecode)
        return self._analyze(code, depth=0)

    def analyze_many(self, bytecodes: Sequence[BytecodeLike]) -> List[AnalysisReport]:
        """Batch driver: one report per input bytecode.

        The shared feature service computes all missing
        :class:`~repro.evm.fastcount.OpcodeSequence` views in one vectorized
        batch first (duplicates deduplicated by content hash), then each
        analysis runs against a warm view — byte-identical reports to
        :meth:`analyze`, materially faster on cold corpora.
        """
        codes = [normalize_bytecode(code) for code in bytecodes]
        service = resolve_service(self._features)
        service.sequences(codes)
        return [self._analyze(code, depth=0) for code in codes]

    def _analyze(self, code: bytes, depth: int) -> AnalysisReport:
        key = content_key(code)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        service = resolve_service(self._features)
        cfg = analyze_cfg(code, sequence=service.sequence(code))
        findings: List[Finding] = []
        for name in self._rules:
            findings.extend(RULES[name](cfg, self.config))
        implementations: List[str] = []
        if depth < self.config.proxy_depth and self._code_resolver is not None:
            findings, implementations = self._resolve_proxies(cfg, findings, depth)
        findings.sort(key=lambda f: (-int(f.severity), f.pc, f.rule))
        report = AnalysisReport(
            findings=tuple(findings[: self.config.max_findings]),
            metrics=cfg.metrics,
            selectors=tuple(sorted(cfg.selectors)),
            resolved_implementations=tuple(implementations),
        )
        self._cache_put(key, report)
        return report

    def _resolve_proxies(
        self, cfg, findings: List[Finding], depth: int
    ) -> Tuple[List[Finding], List[str]]:
        """Analyze constant ``DELEGATECALL`` targets; lift their findings."""
        implementations: List[str] = []
        lifted: List[Finding] = list(findings)
        seen: set = set()
        for event in cfg.events:
            if event.kind != "delegatecall" or not event.reachable:
                continue
            if len(event.operands) < 2 or not event.operands[1].is_const:
                continue
            address = f"0x{event.operands[1].value & (1 << 160) - 1:040x}"
            if address in seen:
                continue
            seen.add(address)
            try:
                implementation = self._code_resolver(address)
            except Exception:
                continue
            if not implementation:
                continue
            code = normalize_bytecode(implementation)
            if content_key(code) == content_key(cfg.code + cfg.trailer):
                continue  # self-referential proxy; avoid trivial cycles
            with self._lock:
                self._proxy_resolutions += 1
            implementations.append(address)
            sub = self._analyze(code, depth=depth + 1)
            for finding in sub.findings:
                lifted.append(
                    Finding(
                        rule=finding.rule,
                        severity=finding.severity,
                        pc=finding.pc,
                        message=f"[impl {address}] {finding.message}",
                        address=finding.address or address,
                    )
                )
        return lifted, implementations
