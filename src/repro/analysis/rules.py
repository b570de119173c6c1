"""Lint-rule registry evaluated over a resolved CFG.

Each rule is a pure function ``(cfg, config) -> iterable of Finding``
registered under a stable id via the :func:`rule` decorator.  Rules read
the abstract-stack event stream of a :class:`~repro.evm.cfg.CfgAnalysis` —
provenance tags, not byte patterns — so a ``CALL`` whose value operand was
*computed from* ``SELFBALANCE`` trips ``balance-sweep`` even when the
surrounding bytes differ, while a dispatcher's own selector plumbing (which
also loads calldata and pops values) does not.

Severity policy, validated against every benign ``chain.templates``
family: ``HIGH`` is reserved for money-moving structures no benign
fragment produces (reachable ``SELFDESTRUCT``, balance-feeding ``CALL``
value, calldata-addressed token calls, discarded-calldata storage
redirects); ``delegatecall-forward`` stays ``MEDIUM`` because legitimate
upgradeable and EIP-1167 proxies forward too — the *resolved
implementation's* findings, lifted with address provenance by the
analyzer, carry the real verdict.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, Tuple

from ..evm.cfg import CfgAnalysis
from .report import Finding, Severity

if TYPE_CHECKING:
    from .analyzer import AnalysisConfig

RuleFn = Callable[[CfgAnalysis, object], Iterable[Finding]]

#: Registry of every known rule, id -> function (insertion-ordered).
RULES: Dict[str, RuleFn] = {}


def rule(name: str) -> Callable[[RuleFn], RuleFn]:
    """Register a lint rule under ``name``."""

    def register(fn: RuleFn) -> RuleFn:
        RULES[name] = fn
        return fn

    return register


_SELECTOR_LOW_MASK = (1 << 224) - 1


def _is_selector_word(value: int) -> bool:
    """A 32-byte word holding a left-aligned 4-byte selector (ABI prefix)."""
    return value > 0 and value & _SELECTOR_LOW_MASK == 0


@rule("reachable-selfdestruct")
def reachable_selfdestruct(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A ``SELFDESTRUCT`` a jump can legally reach — the rug-pull escape."""
    for event in cfg.events:
        if event.kind == "selfdestruct" and event.reachable:
            beneficiary = event.operands[0].kind if event.operands else "unknown"
            yield Finding(
                rule="reachable-selfdestruct",
                severity=Severity.HIGH,
                pc=event.pc,
                message=f"reachable SELFDESTRUCT (beneficiary: {beneficiary})",
            )


@rule("balance-sweep")
def balance_sweep(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A ``CALL`` whose value operand derives from SELFBALANCE/BALANCE."""
    for event in cfg.events:
        if event.kind in ("call", "callcode") and event.reachable:
            if len(event.operands) >= 3 and event.operands[2].kind == "balance":
                yield Finding(
                    rule="balance-sweep",
                    severity=Severity.HIGH,
                    pc=event.pc,
                    message="CALL forwards the full contract balance",
                )


@rule("approval-drain")
def approval_drain(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A token-method call (selector word staged in memory) aimed at a
    calldata-supplied token address — the approval-harvest shape."""
    stages_selector = any(
        event.kind == "mstore"
        and event.reachable
        and len(event.operands) == 2
        and event.operands[1].is_const
        and _is_selector_word(event.operands[1].value)
        for event in cfg.events
    )
    if not stages_selector:
        return
    for event in cfg.events:
        if event.kind in ("call", "callcode") and event.reachable:
            if len(event.operands) >= 2 and event.operands[1].kind in (
                "calldata",
                "calldata_dyn",
            ):
                yield Finding(
                    rule="approval-drain",
                    severity=Severity.HIGH,
                    pc=event.pc,
                    message=(
                        "staged token-method call against a "
                        "calldata-supplied contract address"
                    ),
                )


@rule("hidden-redirect")
def hidden_redirect(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """Calldata arguments discarded while a hashed storage slot is written —
    the hidden-owner-redirect shape (caller's payee ignored, real payee
    read from an attacker-set slot)."""
    writes_hashed_slot = any(
        event.kind == "sstore"
        and len(event.operands) == 2
        and event.operands[0].kind == "sha3"
        for event in cfg.events
    )
    if not writes_hashed_slot:
        return
    for event in cfg.events:
        if (
            event.kind == "pop"
            and event.reachable
            and event.operands
            and event.operands[0].kind == "calldata"
            and event.operands[0].value >= 4
        ):
            yield Finding(
                rule="hidden-redirect",
                severity=Severity.HIGH,
                pc=event.pc,
                message=(
                    "calldata argument discarded while a hashed storage "
                    "slot is written"
                ),
            )


@rule("delegatecall-forward")
def delegatecall_forward(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A reachable ``DELEGATECALL`` — proxy indirection; the analyzer
    resolves constant/EIP-1167 targets and lifts their findings."""
    for event in cfg.events:
        if event.kind == "delegatecall" and event.reachable:
            target = event.operands[1] if len(event.operands) >= 2 else None
            if target is not None and target.is_const:
                detail = f"to 0x{target.value:x}"
            else:
                detail = f"to {target.kind if target else 'unknown'} target"
            yield Finding(
                rule="delegatecall-forward",
                severity=Severity.MEDIUM,
                pc=event.pc,
                message=f"DELEGATECALL forwards {detail}",
            )


@rule("owner-gated-guard")
def owner_gated_guard(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A branch conditioned on ``CALLER``/``ORIGIN`` vs a storage slot."""
    for event in cfg.events:
        if (
            event.kind == "jumpi"
            and len(event.operands) == 2
            and event.operands[1].kind == "cmp_owner"
        ):
            yield Finding(
                rule="owner-gated-guard",
                severity=Severity.LOW,
                pc=event.pc,
                message="branch guarded by caller-vs-storage owner check",
            )


@rule("timestamp-gate")
def timestamp_gate(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A branch conditioned on ``TIMESTAMP`` — the classic trap gate."""
    for event in cfg.events:
        if (
            event.kind == "jumpi"
            and len(event.operands) == 2
            and event.operands[1].kind == "cmp_timestamp"
        ):
            yield Finding(
                rule="timestamp-gate",
                severity=Severity.LOW,
                pc=event.pc,
                message="branch gated on block timestamp",
            )


@rule("unresolved-jump")
def unresolved_jump(cfg: CfgAnalysis, config) -> Iterator[Finding]:
    """A ``JUMP``/``JUMPI`` whose target the dataflow could not resolve."""
    for pc in cfg.unresolved_pcs:
        yield Finding(
            rule="unresolved-jump",
            severity=Severity.MEDIUM,
            pc=pc,
            message="jump target not resolved by constant propagation",
        )


@rule("dead-code")
def dead_code(cfg: CfgAnalysis, config: AnalysisConfig) -> Iterator[Finding]:
    """An outsized terminator-shadowed region no jump can legally enter."""
    threshold = config.dead_ratio
    if cfg.metrics.dead_ratio > threshold:
        yield Finding(
            rule="dead-code",
            severity=Severity.LOW,
            pc=0,
            message=(
                f"{cfg.metrics.dead_instructions} of "
                f"{cfg.metrics.instructions} instructions unreachable "
                f"(ratio {cfg.metrics.dead_ratio:.2f} > {threshold:.2f})"
            ),
        )


#: Rule ids evaluated by default, in registration order.
DEFAULT_RULES: Tuple[str, ...] = tuple(RULES)
