"""Differential property test of the one batch kernel.

Every cache miss of the feature plane is decoded by
:func:`~repro.evm.fastcount.sequence_buffer` over codes laid back to back
in one buffer.  Random bytes split at random code boundaries — with PUSH
immediates truncated at each code's end — must decode, code by code,
exactly as the per-code reference kernel :func:`opcode_sequence` does,
which in turn must match the :class:`Disassembler` instruction stream;
:meth:`PackedSequences.counts` must match :func:`count_opcodes`.  A
bounded run gates every change; a deep sweep runs under ``slow``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evm.disassembler import Disassembler
from repro.evm.fastcount import (
    count_opcodes,
    opcode_sequence,
    pack_codes,
    sequence_buffer,
)

#: Byte values weighted towards the PUSH family, whose immediates are what
#: decides instruction boundaries.
_BYTES = st.one_of(st.integers(0, 255), st.integers(0x60, 0x7F))


@st.composite
def split_codes(draw, max_bytes: int):
    data = bytes(draw(st.lists(_BYTES, max_size=max_bytes)))
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=12)))
    bounds = [0, *cuts, len(data)]
    codes = [data[start:stop] for start, stop in zip(bounds, bounds[1:])]
    if draw(st.booleans()):
        # End each code inside a PUSH immediate: PUSHn followed by fewer
        # than n bytes.
        truncated = []
        for code in codes:
            width = draw(st.integers(1, 32))
            tail = bytes(draw(st.lists(_BYTES, max_size=width - 1)))
            truncated.append(code + bytes([0x5F + width]) + tail)
        codes = truncated
    return codes


def check_against_references(codes):
    packed = sequence_buffer(*pack_codes(codes))
    assert len(packed) == len(codes)
    disassembler = Disassembler()
    for code, got, row in zip(codes, packed.split(), packed.counts()):
        want = opcode_sequence(code)
        assert np.array_equal(got.opcodes, want.opcodes), code.hex()
        assert np.array_equal(got.widths, want.widths), code.hex()
        assert got.opcodes.dtype == want.opcodes.dtype == np.uint8
        assert got.widths.dtype == want.widths.dtype == np.uint8
        instructions = disassembler.disassemble(code)
        assert want.mnemonics() == [instr.mnemonic for instr in instructions]
        assert want.starts().tolist() == [instr.offset for instr in instructions]
        starts = want.starts()
        for index, instruction in enumerate(instructions):
            if instruction.operand is not None:
                start = int(starts[index]) + 1
                assert code[start : start + int(want.widths[index])] == instruction.operand
            else:
                assert want.widths[index] == 0
        assert np.array_equal(row, count_opcodes(code)), code.hex()


@given(split_codes(max_bytes=256))
@settings(max_examples=60, deadline=None)
def test_buffer_kernel_matches_per_code_kernels_and_disassembler(codes):
    check_against_references(codes)


@pytest.mark.slow
@given(split_codes(max_bytes=4096))
@settings(max_examples=600, deadline=None)
def test_buffer_kernel_deep_sweep(codes):
    check_against_references(codes)
