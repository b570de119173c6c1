"""Equivalence tests: the vectorized sequence kernel vs. the disassembler.

The sequence kernel must reproduce the exact ``Disassembler`` token stream —
opcode values, byte offsets, immediate operands — for every bytecode,
including truncated PUSH tails, undefined opcodes, and empty inputs.  Seeded
random bytecodes exercise the property (with a larger ``slow``-marked
sweep); targeted cases pin the tricky edges.
"""

import numpy as np
import pytest

from repro.evm.disassembler import Disassembler
from repro.evm.errors import BytecodeFormatError
from repro.evm.fastcount import (
    INVALID_BIN,
    OpcodeSequence,
    count_opcodes,
    mnemonic_sequence,
    opcode_sequence,
    sequence_many,
)


def random_bytecodes(n_cases: int = 200, seed: int = 20250726, max_length: int = 300):
    """Seeded random bytecodes biased towards the awkward encodings."""
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(n_cases):
        kind = index % 4
        length = int(rng.integers(0, max_length))
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


def assert_sequence_matches_disassembler(code: bytes, sequence: OpcodeSequence):
    """The full reconstruction contract of :class:`OpcodeSequence`."""
    instructions = Disassembler().disassemble(code)
    assert len(sequence) == len(instructions)
    assert sequence.mnemonics() == [instr.mnemonic for instr in instructions]
    starts = sequence.starts()
    assert starts.tolist() == [instr.offset for instr in instructions]
    for index, instruction in enumerate(instructions):
        value = int(sequence.opcodes[index])
        width = int(sequence.widths[index])
        if 0x60 <= value <= 0x7F:
            operand = code[starts[index] + 1 : starts[index] + 1 + width]
        else:
            operand = None
            assert width == 0
        assert operand == instruction.operand, (code.hex(), index)
    assert np.array_equal(sequence.counts(), count_opcodes(code))


class TestSequenceEquivalence:
    def test_matches_disassembler_on_random_bytecodes(self):
        for code in random_bytecodes():
            assert_sequence_matches_disassembler(code, opcode_sequence(code))

    def test_batch_matches_single(self):
        codes = random_bytecodes(80, seed=7)
        sequences = sequence_many(codes)
        assert len(sequences) == len(codes)
        for code, sequence in zip(codes, sequences):
            single = opcode_sequence(code)
            assert np.array_equal(sequence.opcodes, single.opcodes)
            assert np.array_equal(sequence.widths, single.widths)

    @pytest.mark.slow
    def test_matches_disassembler_on_large_random_sweep(self):
        codes = random_bytecodes(600, seed=99, max_length=4096)
        for code, sequence in zip(codes, sequence_many(codes)):
            assert_sequence_matches_disassembler(code, sequence)

    def test_empty_inputs(self):
        for empty in (b"", "", "0x", "0X"):
            sequence = opcode_sequence(empty)
            assert len(sequence) == 0
            assert sequence.counts().sum() == 0
            assert mnemonic_sequence(empty) == []

    def test_hex_string_input(self):
        assert mnemonic_sequence("0x6080604052") == [
            "PUSH1", "PUSH1", "MSTORE",
        ]

    def test_malformed_hex_raises(self):
        with pytest.raises(BytecodeFormatError):
            opcode_sequence("0x123")

    def test_truncated_push_is_one_instruction(self):
        # PUSH32 with only 3 immediate bytes: one PUSH32 of width 3.
        code = bytes([0x7F, 0x60, 0x60, 0x60])
        sequence = opcode_sequence(code)
        assert sequence.mnemonics() == ["PUSH32"]
        assert sequence.widths.tolist() == [3]

    def test_push_immediates_are_skipped(self):
        code = bytes([0x60, 0x60, 0x00])
        sequence = opcode_sequence(code)
        assert sequence.mnemonics() == ["PUSH1", "STOP"]
        assert sequence.widths.tolist() == [1, 0]
        assert sequence.starts().tolist() == [0, 2]

    def test_undefined_bytes_fold_into_invalid(self):
        sequence = opcode_sequence(bytes([0x0C, 0x0D, 0xFE, 0xEF]))
        assert sequence.mnemonics() == ["INVALID"] * 4
        assert set(sequence.opcodes.tolist()) == {INVALID_BIN}
        assert sequence.widths.tolist() == [0, 0, 0, 0]

    def test_push0_has_no_immediate(self):
        sequence = opcode_sequence(bytes([0x5F, 0x01]))
        assert sequence.mnemonics() == ["PUSH0", "ADD"]
        assert sequence.widths.tolist() == [0, 0]

    def test_every_single_byte_value(self):
        disassembler = Disassembler()
        for value in range(256):
            code = bytes([value])
            assert mnemonic_sequence(code) == disassembler.mnemonics(code), hex(value)

    def test_sequence_many_accepts_hex_and_bytes(self):
        first, second = sequence_many(["0x6001", bytes([0x60, 0x01])])
        assert np.array_equal(first.opcodes, second.opcodes)
        assert np.array_equal(first.widths, second.widths)

    def test_sequence_many_empty(self):
        assert sequence_many([]) == []

    def test_batch_with_empty_codes_interleaved(self):
        codes = [b"", bytes([0x60, 0x01, 0x00]), b"", bytes([0x01])]
        sequences = sequence_many(codes)
        assert [len(sequence) for sequence in sequences] == [0, 2, 0, 1]
        assert sequences[1].mnemonics() == ["PUSH1", "STOP"]
        assert sequences[3].mnemonics() == ["ADD"]
