"""Vectorized opcode counting and sequencing — the extraction hot path.

PhishingHook's entire detection signal flows through bytecode → opcode
streams, so disassembly dominates extraction time.  The
:class:`~repro.evm.disassembler.Disassembler` materialises one
:class:`~repro.evm.instruction.Instruction` object per opcode, which is the
right representation for listings, gas profiling and the interpreter — but
orders of magnitude too slow for chain-scale feature extraction.

This module provides bytes-level kernels with no per-instruction
allocation that are provably equivalent to the linear-sweep disassembler:

* every byte that starts an instruction is an instruction of its byte value;
* ``PUSH1``..``PUSH32`` immediates are skipped (truncated-PUSH-aware: an
  immediate running past the end of the code simply ends the sweep, matching
  the disassembler's no-zero-padding behaviour);
* byte values that do not map to a defined Shanghai opcode are folded into
  the ``INVALID`` bin (0xFE), exactly as the disassembler reports them.

There is one batch kernel, :func:`sequence_buffer`: it decodes codes laid
back to back in one uint8 buffer (an in-memory staging buffer or a
read-only ``numpy.memmap`` slice of a corpus blob) into
:class:`PackedSequences` — the ``(opcode value, immediate width)`` arrays of
every instruction, from which the tokenizer, n-gram, frequency-image and
static-analysis views reconstruct the exact ``Disassembler`` token stream,
and whose :meth:`PackedSequences.counts` is the 256-bin histogram (HSC)
view.  :func:`count_many` / :func:`sequence_many` wrap it for plain
bytecode lists.  The per-code kernels :func:`count_opcodes` and
:func:`opcode_sequence` stay as the single-bytecode entry points of
:mod:`repro.evm.cfg` and as the reference the batch kernel is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .disassembler import BytecodeLike, normalize_bytecode
from .opcodes import SHANGHAI_OPCODES

#: Bin that collects both the designated INVALID opcode and every undefined
#: byte value (the disassembler reports both as ``INVALID``).
INVALID_BIN: int = 0xFE

#: Byte-value range of the immediate-carrying PUSH family (PUSH1..PUSH32).
_FIRST_PUSH: int = 0x60
_LAST_PUSH: int = 0x7F

#: Byte values with no Shanghai opcode assigned; folded into INVALID_BIN.
UNDEFINED_VALUES: np.ndarray = np.array(
    [value for value in range(256) if value not in SHANGHAI_OPCODES], dtype=np.intp
)

#: Byte value → byte value, with undefined values folded into INVALID_BIN.
_FOLD: np.ndarray = np.arange(256, dtype=np.intp)
_FOLD[UNDEFINED_VALUES] = INVALID_BIN

#: Byte value → mnemonic for every defined opcode.
BIN_MNEMONICS: Dict[int, str] = {
    value: info.mnemonic for value, info in SHANGHAI_OPCODES.items()
}

#: Mnemonic → byte value (the histogram bin that counts it).
MNEMONIC_BINS: Dict[str, int] = {
    info.mnemonic: value for value, info in SHANGHAI_OPCODES.items()
}


def _keep_mask(code: bytes, array: np.ndarray) -> "np.ndarray | None":
    """Boolean instruction-start mask of ``code``; ``None`` when every byte
    starts an instruction (no PUSH immediates to skip).

    This loop is the truncated-PUSH invariant of the whole module — both the
    count and the sequence kernel resolve instruction starts through it, so
    it lives in exactly one place.
    """
    push_positions = np.flatnonzero((array >= _FIRST_PUSH) & (array <= _LAST_PUSH))
    if push_positions.size == 0:
        return None
    keep = np.ones(array.shape[0], dtype=bool)
    cursor = 0
    for position in push_positions.tolist():
        if position < cursor:
            # This push-valued byte sits inside an earlier PUSH immediate.
            continue
        # Every byte in [cursor, position) is a non-push single-byte
        # instruction, so `position` is guaranteed to be an instruction start.
        width = code[position] - 0x5F
        keep[position + 1 : position + 1 + width] = False
        cursor = position + 1 + width
    return keep


def _count_raw(code: bytes) -> np.ndarray:
    """256-bin counts of instruction-start bytes (immediates skipped)."""
    if not code:
        return np.zeros(256, dtype=np.int64)
    array = np.frombuffer(code, dtype=np.uint8)
    keep = _keep_mask(code, array)
    starts = array if keep is None else array[keep]
    return np.bincount(starts, minlength=256).astype(np.int64, copy=False)


def count_opcodes(bytecode: BytecodeLike) -> np.ndarray:
    """Count opcode occurrences in ``bytecode`` as a 256-bin int64 vector.

    ``counts[value]`` equals the number of instructions whose opcode byte is
    ``value``; undefined byte values are folded into ``counts[INVALID_BIN]``.
    The result matches ``Counter(Disassembler().mnemonics(bytecode))``
    bin-for-bin under the :data:`BIN_MNEMONICS` mapping.

    Raises:
        BytecodeFormatError: on malformed hex input (same contract as the
            disassembler's :func:`normalize_bytecode`).
    """
    counts = _count_raw(normalize_bytecode(bytecode))
    undefined_total = int(counts[UNDEFINED_VALUES].sum())
    if undefined_total:
        counts[UNDEFINED_VALUES] = 0
        counts[INVALID_BIN] += undefined_total
    return counts


# ----------------------------------------------------------------------------
# Sequence kernel
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class OpcodeSequence:
    """The disassembled instruction stream of one bytecode, as two arrays.

    ``opcodes[k]`` is the opcode byte value of the *k*-th instruction
    (undefined byte values folded into :data:`INVALID_BIN`, exactly as the
    disassembler reports them as ``INVALID``) and ``widths[k]`` is the number
    of immediate bytes it consumed (truncation-aware: a ``PUSHn`` whose
    immediate runs past the end of the code has ``width < n``).  Together
    they reconstruct the full ``Disassembler`` output against the original
    code bytes:

    * mnemonic of instruction *k* — ``BIN_MNEMONICS[opcodes[k]]``;
    * byte offset — ``starts()[k]``;
    * immediate operand — ``code[starts()[k] + 1 : starts()[k] + 1 +
      widths[k]]`` when ``0x60 <= opcodes[k] <= 0x7F``, else ``None``
      (matching ``operand_size > 0`` in the registry — ``PUSH0`` carries
      no immediate).

    Both arrays are ``uint8`` (opcodes are byte values, widths are at most
    32), so a cached sequence costs two bytes per instruction.
    """

    opcodes: np.ndarray
    widths: np.ndarray

    def __len__(self) -> int:
        return int(self.opcodes.shape[0])

    def starts(self) -> np.ndarray:
        """Byte offset of every instruction (``Instruction.offset``)."""
        sizes = self.widths.astype(np.int64) + 1
        starts = np.empty(sizes.shape[0], dtype=np.int64)
        if sizes.shape[0]:
            starts[0] = 0
            np.cumsum(sizes[:-1], out=starts[1:])
        return starts

    def counts(self) -> np.ndarray:
        """256-bin count vector (equals :func:`count_opcodes` on the code)."""
        return np.bincount(self.opcodes, minlength=256).astype(np.int64, copy=False)

    def mnemonics(self) -> List[str]:
        """Mnemonic list (equals ``Disassembler().mnemonics(code)``)."""
        return [BIN_MNEMONICS[int(value)] for value in self.opcodes.tolist()]


_EMPTY_SEQUENCE = OpcodeSequence(
    opcodes=np.zeros(0, dtype=np.uint8), widths=np.zeros(0, dtype=np.uint8)
)


def _sequence_from_starts(
    array: np.ndarray, starts: np.ndarray, length: int
) -> OpcodeSequence:
    """Build an :class:`OpcodeSequence` from instruction-start offsets."""
    widths = np.diff(np.append(starts, length)) - 1
    return OpcodeSequence(
        opcodes=_FOLD[array[starts]].astype(np.uint8),
        widths=widths.astype(np.uint8),
    )


def _sequence_raw(code: bytes) -> OpcodeSequence:
    """Sequence of already-normalised ``code`` (single-bytecode kernel)."""
    if not code:
        return _EMPTY_SEQUENCE
    array = np.frombuffer(code, dtype=np.uint8)
    keep = _keep_mask(code, array)
    starts = (
        np.arange(array.shape[0], dtype=np.int64)
        if keep is None
        else np.flatnonzero(keep)
    )
    return _sequence_from_starts(array, starts, len(code))


def opcode_sequence(bytecode: BytecodeLike) -> OpcodeSequence:
    """Disassemble ``bytecode`` into an :class:`OpcodeSequence`.

    Bit-identical to the :class:`~repro.evm.disassembler.Disassembler` token
    stream (see the dataclass docstring for the reconstruction rules).

    Raises:
        BytecodeFormatError: on malformed hex input (same contract as the
            disassembler's :func:`normalize_bytecode`).
    """
    return _sequence_raw(normalize_bytecode(bytecode))


def _instruction_starts_sparse(
    buffer: np.ndarray, lengths: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Sorted global offsets of every instruction start in ``buffer``.

    Resolved over the PUSH-valued byte positions only: a byte is *not* an
    instruction start iff it sits inside the immediate of a reachable PUSH,
    so it suffices to decide reachability for the PUSH *candidates* (every
    push-valued byte, real or immediate garbage) and subtract their covered
    immediate ranges.  Candidate chains are resolved by pointer doubling
    over the candidate array — typically 4-8x smaller than the byte buffer —
    with the round count driven by the largest per-code candidate count.
    """
    n_bytes = buffer.shape[0]
    code_starts = ends - lengths
    candidates = np.flatnonzero((buffer >= _FIRST_PUSH) & (buffer <= _LAST_PUSH))
    m = candidates.shape[0]
    if m == 0:
        return np.arange(n_bytes, dtype=np.int64)
    owner = np.searchsorted(ends, candidates, side="right")
    boundary = ends[owner]
    widths = buffer[candidates].astype(np.int64) - 0x5F
    # Byte position following each candidate's immediate, clamped to the
    # owning code's end (a truncated PUSH simply exhausts the chain).
    after = np.minimum(candidates + 1 + widths, boundary)
    # Each candidate's successor candidate: the first candidate at or past
    # ``after`` that still belongs to the same code; sentinel ``m`` otherwise.
    successor = np.searchsorted(candidates, after, side="left")
    clipped = np.minimum(successor, m - 1)
    jump = np.append(
        np.where((successor < m) & (candidates[clipped] < boundary), successor, m), m
    )
    # Seed: every byte from a code's start to its first candidate is a
    # single-byte instruction, so the first in-code candidate is reachable.
    reachable = np.zeros(m + 1, dtype=bool)
    first = np.searchsorted(candidates, code_starts, side="left")
    in_array = first < m
    first_in = first[in_array]
    in_code = candidates[first_in] < ends[in_array]
    reachable[first_in[in_code]] = True
    per_code = np.bincount(owner, minlength=lengths.shape[0])
    longest = int(per_code.max()) if per_code.size else 1
    rounds = max(1, int(np.ceil(np.log2(max(longest, 2)))) + 1)
    for _ in range(rounds):
        reachable[jump[np.flatnonzero(reachable)]] = True
        jump = jump[jump]
    reachable = reachable[:-1]
    # Immediate ranges of reachable candidates cover the non-start bytes:
    # position i is covered iff some reachable PUSH at p < i reaches past i.
    # Reachable immediates are disjoint, so a running maximum of their end
    # offsets (recorded at p + 1, the first covered byte) decides coverage.
    covered_until = np.zeros(n_bytes + 1, dtype=np.int64)
    covered_until[candidates[reachable] + 1] = after[reachable]
    covered = np.maximum.accumulate(covered_until)[:n_bytes] > np.arange(
        n_bytes, dtype=np.int64
    )
    return np.flatnonzero(~covered)


@dataclass(frozen=True)
class PackedSequences:
    """The :class:`OpcodeSequence` views of a batch, as three flat arrays.

    ``opcodes`` and ``widths`` are the concatenated per-instruction arrays
    of every code in order, and ``lengths[i]`` is the instruction count of
    code *i* — the split points.  This is the result of every kernel task,
    and the wire format of process workers: one pickle of three contiguous
    buffers replaces one pickle per :class:`OpcodeSequence` (two tiny arrays
    each), and :meth:`split` rebuilds the exact per-code sequences on the
    parent side.
    """

    opcodes: np.ndarray
    widths: np.ndarray
    lengths: np.ndarray

    def __len__(self) -> int:
        return int(self.lengths.shape[0])

    def split(self) -> List[OpcodeSequence]:
        """Per-code :class:`OpcodeSequence` list (slices, no copies)."""
        bounds = np.cumsum(self.lengths)
        sequences: List[OpcodeSequence] = []
        start = 0
        for stop in bounds.tolist():
            if stop == start:
                sequences.append(_EMPTY_SEQUENCE)
            else:
                sequences.append(
                    OpcodeSequence(
                        opcodes=self.opcodes[start:stop],
                        widths=self.widths[start:stop],
                    )
                )
            start = stop
        return sequences

    def counts(self) -> np.ndarray:
        """``(n, 256)`` per-code opcode counts (equals per-code ``counts()``)."""
        n = self.lengths.shape[0]
        if self.opcodes.shape[0] == 0:
            return np.zeros((n, 256), dtype=np.int64)
        owners = np.repeat(np.arange(n, dtype=np.int64), self.lengths)
        flat = np.bincount(
            owners * 256 + self.opcodes.astype(np.int64), minlength=n * 256
        )
        return flat.reshape(n, 256).astype(np.int64, copy=False)


def _checked_lengths(buffer: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Validate that ``lengths`` exactly tiles ``buffer`` (buffer kernels)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size and (lengths < 0).any():
        raise ValueError("buffer kernel lengths must be non-negative")
    total = int(lengths.sum()) if lengths.size else 0
    if total != buffer.shape[0]:
        raise ValueError(
            f"buffer kernel lengths sum to {total}, buffer holds "
            f"{buffer.shape[0]} bytes"
        )
    return lengths


def sequence_buffer(buffer: np.ndarray, lengths: np.ndarray) -> PackedSequences:
    """Packed sequence kernel over an already-concatenated uint8 buffer.

    ``buffer`` holds the codes back to back (``lengths`` are their byte
    sizes, summing to ``buffer.shape[0]``); a read-only ``numpy.memmap``
    slice works as-is, so blob-span workers never copy the corpus bytes.
    Per-code results are bit-identical to :func:`opcode_sequence` on each
    code (pinned by the differential property tests).
    """
    lengths = _checked_lengths(buffer, lengths)
    n = lengths.shape[0]
    if n == 0 or buffer.shape[0] == 0:
        return PackedSequences(
            opcodes=np.zeros(0, dtype=np.uint8),
            widths=np.zeros(0, dtype=np.uint8),
            lengths=np.zeros(n, dtype=np.int64),
        )
    buffer = np.ascontiguousarray(buffer).view(np.uint8)
    ends = np.cumsum(lengths)
    starts = _instruction_starts_sparse(buffer, lengths, ends)
    opcodes = _FOLD[buffer[starts]].astype(np.uint8)
    widths = np.diff(np.append(starts, buffer.shape[0])) - 1
    per_code = np.diff(np.concatenate([[0], np.searchsorted(starts, ends, side="left")]))
    # The plain diff pairs each code's final instruction with the *next
    # code's* first start; its true width runs to its own code's end.
    last = np.cumsum(per_code) - 1
    nonempty = per_code > 0
    last_in = last[nonempty]
    widths[last_in] = ends[nonempty] - starts[last_in] - 1
    return PackedSequences(
        opcodes=opcodes, widths=widths.astype(np.uint8), lengths=per_code
    )


def pack_codes(codes: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """``(buffer, lengths)`` of already-normalised ``codes`` laid back to back."""
    lengths = np.fromiter(map(len, codes), dtype=np.int64, count=len(codes))
    return np.frombuffer(b"".join(codes), dtype=np.uint8), lengths


def count_many(bytecodes: Iterable[BytecodeLike]) -> np.ndarray:
    """Stack opcode counts over ``bytecodes`` into an ``(n, 256)`` matrix."""
    codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
    return sequence_buffer(*pack_codes(codes)).counts()


def sequence_many(bytecodes: Iterable[BytecodeLike]) -> List[OpcodeSequence]:
    """Sequences of ``bytecodes`` (normalising hex/bytes inputs first)."""
    codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
    return sequence_buffer(*pack_codes(codes)).split()


def mnemonic_sequence(bytecode: BytecodeLike) -> List[str]:
    """The mnemonic stream of ``bytecode``.

    Equals ``Disassembler().mnemonics(bytecode)``.
    """
    return opcode_sequence(bytecode).mnemonics()


def mnemonic_counts(bytecode: BytecodeLike) -> Dict[str, int]:
    """Opcode counts keyed by mnemonic (only non-zero entries).

    Equals ``dict(Counter(Disassembler().mnemonics(bytecode)))``.
    """
    counts = count_opcodes(bytecode)
    return {
        BIN_MNEMONICS[int(value)]: int(counts[value])
        for value in np.flatnonzero(counts)
    }


def instruction_count(bytecode: BytecodeLike) -> int:
    """Total number of instructions (equals ``len(Disassembler().mnemonics(...))``)."""
    return int(count_opcodes(bytecode).sum())


def bins_for_mnemonics(mnemonics: Sequence[str]) -> np.ndarray:
    """Byte-value bin of each mnemonic; ``-1`` for names outside the registry."""
    return np.array(
        [MNEMONIC_BINS.get(mnemonic, -1) for mnemonic in mnemonics], dtype=np.intp
    )


def observed_mnemonics(count_matrix: np.ndarray) -> List[str]:
    """Sorted mnemonics of every bin with a non-zero count anywhere in ``count_matrix``.

    Mirrors how :class:`~repro.features.histogram.OpcodeHistogramExtractor`
    learns its vocabulary from a training set.
    """
    matrix = np.asarray(count_matrix)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    observed = np.flatnonzero(matrix.any(axis=0))
    return sorted(BIN_MNEMONICS[int(value)] for value in observed)
