"""Equivalence tests: the vectorized opcode kernel vs. the disassembler.

The fast path must count exactly what ``Counter(Disassembler().mnemonics(bc))``
counts, for every bytecode — including truncated PUSH tails, undefined
opcodes, and empty inputs.  ~200 seeded random bytecodes exercise the
property; targeted cases pin the tricky edges.
"""

from collections import Counter

import numpy as np
import pytest

from repro.evm.disassembler import Disassembler
from repro.evm.errors import BytecodeFormatError
from repro.evm.fastcount import (
    BIN_MNEMONICS,
    INVALID_BIN,
    MNEMONIC_BINS,
    bins_for_mnemonics,
    count_many,
    count_opcodes,
    instruction_count,
    mnemonic_counts,
    observed_mnemonics,
)
from repro.evm.opcodes import SHANGHAI_OPCODES


def legacy_counts(bytecode) -> dict:
    return dict(Counter(Disassembler().mnemonics(bytecode)))


def random_bytecodes(n_cases: int = 200, seed: int = 20250726):
    """Seeded random bytecodes biased towards the awkward encodings."""
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(n_cases):
        kind = index % 4
        length = int(rng.integers(0, 300))
        if kind == 0:
            # Uniform bytes: plenty of undefined opcodes and accidental PUSHes.
            body = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        elif kind == 1:
            # PUSH-heavy: immediates frequently contain push-valued bytes.
            body = rng.integers(0x60, 0x80, size=length, dtype=np.uint8).tobytes()
        elif kind == 2:
            # Undefined-heavy: gaps of the Shanghai registry.
            body = rng.integers(0x0C, 0x10, size=length, dtype=np.uint8).tobytes()
        else:
            # Valid-looking code with a truncated PUSH tail.
            body = rng.integers(0, 0x60, size=length, dtype=np.uint8).tobytes()
            width = int(rng.integers(1, 33))
            tail = int(rng.integers(0, width))
            body += bytes([0x5F + width]) + bytes(tail)
        cases.append(body)
    return cases


class TestKernelEquivalence:
    def test_matches_disassembler_on_random_bytecodes(self):
        for bytecode in random_bytecodes():
            assert mnemonic_counts(bytecode) == legacy_counts(bytecode)

    def test_batch_matches_single(self):
        codes = random_bytecodes(80, seed=7)
        matrix = count_many(codes)
        assert matrix.shape == (len(codes), 256)
        for row, code in enumerate(codes):
            assert np.array_equal(matrix[row], count_opcodes(code))

    def test_empty_inputs(self):
        for empty in (b"", "", "0x", "0X"):
            counts = count_opcodes(empty)
            assert counts.shape == (256,)
            assert counts.sum() == 0
            assert mnemonic_counts(empty) == {}

    def test_hex_string_input(self):
        assert mnemonic_counts("0x6080604052") == legacy_counts("0x6080604052")

    def test_malformed_hex_raises(self):
        with pytest.raises(BytecodeFormatError):
            count_opcodes("0x123")

    def test_truncated_push_counts_once(self):
        # PUSH32 with only 3 immediate bytes: one PUSH32, nothing else.
        code = bytes([0x7F, 0x60, 0x60, 0x60])
        assert mnemonic_counts(code) == {"PUSH32": 1}
        assert mnemonic_counts(code) == legacy_counts(code)

    def test_push_immediates_are_skipped(self):
        # PUSH1 0x60: the immediate is push-valued but must not be counted.
        code = bytes([0x60, 0x60, 0x00])
        assert mnemonic_counts(code) == {"PUSH1": 1, "STOP": 1}

    def test_undefined_bytes_fold_into_invalid(self):
        code = bytes([0x0C, 0x0D, 0xFE, 0xEF])
        counts = count_opcodes(code)
        assert counts[INVALID_BIN] == 4
        assert counts.sum() == 4
        assert mnemonic_counts(code) == {"INVALID": 4}

    def test_every_single_byte_value(self):
        for value in range(256):
            code = bytes([value])
            assert mnemonic_counts(code) == legacy_counts(code), hex(value)

    def test_instruction_count_matches_mnemonic_length(self):
        for bytecode in random_bytecodes(40, seed=3):
            assert instruction_count(bytecode) == len(Disassembler().mnemonics(bytecode))

    def test_dtype_and_shape(self):
        counts = count_opcodes(bytes([0x60, 0x01, 0x00]))
        assert counts.dtype == np.int64
        assert counts.shape == (256,)


class TestHelpers:
    def test_count_many_accepts_hex_and_bytes(self):
        matrix = count_many(["0x6001", bytes([0x60, 0x01])])
        assert matrix.shape == (2, 256)
        assert np.array_equal(matrix[0], matrix[1])

    def test_count_many_empty(self):
        assert count_many([]).shape == (0, 256)

    def test_bin_maps_are_inverse(self):
        for value, info in SHANGHAI_OPCODES.items():
            assert BIN_MNEMONICS[value] == info.mnemonic
            assert MNEMONIC_BINS[info.mnemonic] == value

    def test_bins_for_mnemonics_unknown(self):
        bins = bins_for_mnemonics(["PUSH1", "NOT_AN_OPCODE", "STOP"])
        assert bins[0] == 0x60
        assert bins[1] == -1
        assert bins[2] == 0x00

    def test_observed_mnemonics_sorted_union(self):
        matrix = count_many([bytes([0x60, 0x01, 0x00]), bytes([0x01, 0x02])])
        assert observed_mnemonics(matrix) == ["ADD", "MUL", "PUSH1", "STOP"]


class TestBufferKernels:
    """The packed buffer kernel vs. the per-code reference kernels.

    ``sequence_buffer`` is what every cache miss runs on, over memmap views
    of a corpus blob or over staged in-memory buffers; it must be
    bit-identical to ``opcode_sequence``/``count_opcodes`` on each code, or
    the feature plane would silently change features.
    """

    @staticmethod
    def _pack(codes):
        from repro.evm.fastcount import sequence_buffer

        buffer = np.frombuffer(b"".join(codes), dtype=np.uint8)
        lengths = np.array([len(code) for code in codes], dtype=np.int64)
        return sequence_buffer(buffer, lengths)

    def test_sequence_buffer_matches_per_code_kernel(self):
        from repro.evm.fastcount import opcode_sequence

        codes = random_bytecodes(120, seed=11)
        split = self._pack(codes).split()
        assert len(split) == len(codes)
        for got, code in zip(split, codes):
            want = opcode_sequence(code)
            assert np.array_equal(got.opcodes, want.opcodes)
            assert np.array_equal(got.widths, want.widths)
            assert got.opcodes.dtype == want.opcodes.dtype
            assert got.widths.dtype == want.widths.dtype

    def test_packed_counts_match_count_opcodes(self):
        codes = random_bytecodes(120, seed=12)
        matrix = self._pack(codes).counts()
        assert matrix.shape == (len(codes), 256)
        assert matrix.dtype == np.int64
        for row, code in zip(matrix, codes):
            assert np.array_equal(row, count_opcodes(code))

    def test_packed_counts_match_per_sequence_counts(self):
        codes = random_bytecodes(60, seed=13)
        packed = self._pack(codes)
        matrix = packed.counts()
        for row, sequence in zip(matrix, packed.split()):
            assert np.array_equal(row, sequence.counts())

    def test_edge_cases(self):
        from repro.evm.fastcount import opcode_sequence

        cases = [
            [],
            [b""],
            [b"", b"", b""],
            [bytes([0x7F])],                      # truncated PUSH32, no data
            [bytes([0x60])],                      # truncated PUSH1
            [bytes(range(256))],
            [b"", bytes([0x60, 0x61]), b"", bytes([0x00])],
        ]
        for codes in cases:
            split = self._pack(codes).split()
            assert len(split) == len(codes)
            for got, code in zip(split, codes):
                want = opcode_sequence(code)
                assert np.array_equal(got.opcodes, want.opcodes), codes
                assert np.array_equal(got.widths, want.widths), codes

    def test_memmap_views_accepted(self, tmp_path):
        from repro.evm.fastcount import opcode_sequence, sequence_buffer

        codes = random_bytecodes(30, seed=14)
        blob = tmp_path / "codes.bin"
        blob.write_bytes(b"".join(codes))
        mapped = np.memmap(blob, dtype=np.uint8, mode="r")
        lengths = np.array([len(code) for code in codes], dtype=np.int64)
        packed = sequence_buffer(mapped, lengths)
        for got, code in zip(packed.split(), codes):
            assert np.array_equal(got.opcodes, opcode_sequence(code).opcodes)
        for row, code in zip(packed.counts(), codes):
            assert np.array_equal(row, count_opcodes(code))

    def test_length_mismatch_rejected(self):
        from repro.evm.fastcount import sequence_buffer

        buffer = np.zeros(10, dtype=np.uint8)
        lengths = np.array([4, 4], dtype=np.int64)
        with pytest.raises(ValueError):
            sequence_buffer(buffer, lengths)
