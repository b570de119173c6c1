"""Golden-vector regression tests for the histogram feature path.

These pin exact opcode histograms for deterministic template bytecodes from
:mod:`repro.chain.templates`, so any future change to the fast-count kernel,
the batch service or the extractor that silently drifts feature values fails
loudly here.  The per-instruction oracle of ``oracles.py`` is asserted
against the same goldens, keeping both anchored to one reference.
"""

import numpy as np

from repro.chain.templates import (
    ALL_FAMILIES,
    build_family_bytecode,
    minimal_proxy_bytecode,
)
from repro.evm.fastcount import mnemonic_counts
from repro.features.batch import BatchFeatureService
from repro.features.histogram import OpcodeHistogramExtractor

from oracles import OracleHistogram

#: EIP-1167 minimal proxy for a fixed implementation address — bit-exact
#: bytecode independent of any RNG, the strongest golden anchor.
PROXY_GOLDEN = {
    "CALLDATACOPY": 1,
    "CALLDATASIZE": 2,
    "DELEGATECALL": 1,
    "DUP1": 1,
    "DUP3": 1,
    "GAS": 1,
    "JUMPDEST": 1,
    "JUMPI": 1,
    "PUSH1": 1,
    "PUSH20": 1,
    "RETURN": 1,
    "RETURNDATACOPY": 1,
    "RETURNDATASIZE": 8,
    "REVERT": 1,
    "SWAP1": 1,
    "SWAP2": 1,
}

#: (family name, rng seed) → exact mnemonic counts of the generated bytecode.
FAMILY_GOLDENS = {
    ("erc20_token", 11): {
        "ADD": 3, "ADDRESS": 2, "CALLDATALOAD": 1, "CALLDATASIZE": 2,
        "CALLER": 7, "CALLVALUE": 1, "CREATE": 1, "CREATE2": 1, "DIV": 2,
        "DUP1": 12, "DUP5": 1, "DUP7": 1, "EQ": 4, "GASLIMIT": 1,
        "INVALID": 8, "ISZERO": 4, "JUMPDEST": 7, "JUMPI": 9, "LOG2": 1,
        "LOG3": 3, "LT": 3, "MSTORE": 13, "MUL": 2, "ORIGIN": 1, "POP": 5,
        "PUSH1": 55, "PUSH2": 11, "PUSH4": 7, "PUSH5": 1, "RETURN": 2,
        "REVERT": 2, "SHA3": 4, "SHR": 1, "SLOAD": 7, "SLT": 2, "SSTORE": 3,
        "STOP": 1, "SWAP1": 5,
    },
    ("sweeper_backdoor", 22): {
        "CALL": 1, "CALLDATACOPY": 1, "CALLDATALOAD": 3, "CALLDATASIZE": 3,
        "CALLER": 2, "DELEGATECALL": 2, "DIV": 1, "DUP1": 11, "EQ": 3,
        "GAS": 2, "INVALID": 5, "ISZERO": 1, "JUMPDEST": 5, "JUMPI": 5,
        "LOG2": 2, "LT": 2, "MSTORE": 4, "POP": 3, "PUSH1": 23, "PUSH2": 7,
        "PUSH4": 2, "PUSH5": 1, "RETURN": 2, "RETURNDATACOPY": 1,
        "RETURNDATASIZE": 1, "REVERT": 2, "SELFBALANCE": 1, "SHA3": 1,
        "SHR": 1, "SLOAD": 1, "SSTORE": 1, "STOP": 1, "SWAP1": 1,
    },
}


def family_bytecode(name: str, seed: int) -> bytes:
    family = next(f for f in ALL_FAMILIES if f.name == name)
    return build_family_bytecode(family, np.random.default_rng(seed))


def golden_bytecodes():
    codes = {("minimal_proxy", 0): minimal_proxy_bytecode("0x" + "ab" * 20)}
    for (name, seed) in FAMILY_GOLDENS:
        codes[(name, seed)] = family_bytecode(name, seed)
    return codes


def all_goldens():
    return {("minimal_proxy", 0): PROXY_GOLDEN, **FAMILY_GOLDENS}


class TestGoldenVectors:
    def test_minimal_proxy_counts_pinned(self):
        assert mnemonic_counts(minimal_proxy_bytecode("0x" + "ab" * 20)) == PROXY_GOLDEN

    def test_family_counts_pinned(self):
        for (name, seed), golden in FAMILY_GOLDENS.items():
            assert mnemonic_counts(family_bytecode(name, seed)) == golden, (name, seed)

    def test_extractor_rows_match_goldens(self):
        codes = golden_bytecodes()
        goldens = all_goldens()
        keys = list(codes)
        extractor = OpcodeHistogramExtractor(service=BatchFeatureService())
        features = extractor.fit_transform([codes[key] for key in keys])
        names = extractor.feature_names()
        for row, key in enumerate(keys):
            expected = goldens[key]
            for column, mnemonic in enumerate(names):
                assert features[row, column] == expected.get(mnemonic, 0), (key, mnemonic)

    def test_legacy_extractor_rows_match_goldens(self):
        codes = golden_bytecodes()
        goldens = all_goldens()
        keys = list(codes)
        extractor = OracleHistogram()
        features = extractor.fit_transform([codes[key] for key in keys])
        names = extractor.feature_names()
        for row, key in enumerate(keys):
            expected = goldens[key]
            for column, mnemonic in enumerate(names):
                assert features[row, column] == expected.get(mnemonic, 0), (key, mnemonic)
