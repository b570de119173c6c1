"""Opcode-sequence tokenizers for the language-model detectors.

The paper feeds the textual opcode sequence to GPT-2 and T5 through their
Hugging Face tokenizers.  Offline there are no pretrained vocabularies, so
this module provides an :class:`OpcodeTokenizer` whose vocabulary is the
closed set of EVM mnemonics plus coarse operand-bucket tokens, which plays
the same role (turning a disassembled contract into a bounded-vocabulary
token-id sequence) for the from-scratch GPT-2-style and T5-style models.

Bytecodes are disassembled once by the shared
:class:`~repro.features.batch.BatchFeatureService` (content-hash LRU cache
over :class:`~repro.evm.fastcount.OpcodeSequence` views) and token ids are
produced by array lookups — one LUT maps opcode byte values to mnemonic ids,
another maps immediate widths to operand-bucket ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..evm.fastcount import BIN_MNEMONICS, OpcodeSequence
from ..evm.opcodes import CANONICAL_MNEMONICS
from .batch import BatchFeatureService, resolve_service

#: Special token ids.
PAD_TOKEN = "<pad>"
UNKNOWN_TOKEN = "<unk>"
CLS_TOKEN = "<cls>"
EOS_TOKEN = "<eos>"
SPECIAL_TOKENS = (PAD_TOKEN, UNKNOWN_TOKEN, CLS_TOKEN, EOS_TOKEN)

#: Operand-magnitude buckets: the byte width of a PUSH immediate is a compact
#: proxy for its magnitude and keeps the vocabulary closed.
_OPERAND_BUCKETS = tuple(f"<imm{width}>" for width in (0, 1, 2, 4, 8, 16, 32))

#: Byte-value range of opcodes that emit an operand-bucket token (the PUSH
#: family including PUSH0, whose missing operand buckets to ``<imm0>``).
_FIRST_PUSH_TOKEN = 0x5F
_LAST_PUSH_TOKEN = 0x7F


def _bucket_for_width(width: int) -> str:
    if width <= 0:
        return _OPERAND_BUCKETS[0]
    for bucket_width, token in zip((1, 2, 4, 8, 16, 32), _OPERAND_BUCKETS[1:]):
        if width <= bucket_width:
            return token
    return _OPERAND_BUCKETS[-1]


class OpcodeTokenizer:
    """Turns bytecode into token-id sequences over a closed EVM vocabulary."""

    def __init__(
        self,
        max_length: int = 256,
        include_operands: bool = True,
        add_cls: bool = True,
        service: Optional[BatchFeatureService] = None,
    ):
        """Create a tokenizer.

        Args:
            max_length: Fixed output length (truncate/pad).
            include_operands: Whether operand-bucket tokens are interleaved
                with mnemonics (roughly doubling the sequence length per
                instruction).
            add_cls: Prepend a ``<cls>`` token used by the sequence
                classifiers as the pooled representation position.
            service: Batch extraction service to disassemble through;
                defaults to the process-wide shared service so detectors
                share one cache.
        """
        self.max_length = max_length
        self.include_operands = include_operands
        self.add_cls = add_cls
        vocabulary: List[str] = list(SPECIAL_TOKENS) + list(_OPERAND_BUCKETS) + CANONICAL_MNEMONICS
        self.vocabulary: Dict[str, int] = {token: index for index, token in enumerate(vocabulary)}
        self._service = service
        # Vectorized encoding tables: opcode byte value -> mnemonic token id,
        # immediate width (0..32) -> operand-bucket token id.
        unknown = self.vocabulary[UNKNOWN_TOKEN]
        self._mnemonic_ids = np.full(256, unknown, dtype=np.int64)
        for value, mnemonic in BIN_MNEMONICS.items():
            self._mnemonic_ids[value] = self.vocabulary[mnemonic]
        self._bucket_ids = np.array(
            [self.vocabulary[_bucket_for_width(width)] for width in range(33)],
            dtype=np.int64,
        )

    @property
    def service(self) -> BatchFeatureService:
        """The batch service tokens are read through (default resolved lazily)."""
        return resolve_service(self._service)

    @service.setter
    def service(self, service: Optional[BatchFeatureService]) -> None:
        """Inject a service (``None`` reverts to the process-wide default)."""
        self._service = service

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct token ids."""
        return len(self.vocabulary)

    @property
    def pad_id(self) -> int:
        """Id of the padding token."""
        return self.vocabulary[PAD_TOKEN]

    @property
    def cls_id(self) -> int:
        """Id of the classification token."""
        return self.vocabulary[CLS_TOKEN]

    # ------------------------------------------------------------------
    # String tokenization
    # ------------------------------------------------------------------

    def tokenize(self, bytecode) -> List[str]:
        """The full (untruncated) token string sequence of ``bytecode``."""
        sequence = self.service.sequence(bytecode)
        tokens: List[str] = [CLS_TOKEN] if self.add_cls else []
        for value, width in zip(sequence.opcodes.tolist(), sequence.widths.tolist()):
            tokens.append(BIN_MNEMONICS[value])
            if self.include_operands and _FIRST_PUSH_TOKEN <= value <= _LAST_PUSH_TOKEN:
                tokens.append(_bucket_for_width(width))
        tokens.append(EOS_TOKEN)
        return tokens

    # ------------------------------------------------------------------
    # Id encoding
    # ------------------------------------------------------------------

    def _ids_from_sequence(self, sequence: OpcodeSequence) -> np.ndarray:
        """Unpadded token ids of one cached sequence (pure array lookups)."""
        opcodes = sequence.opcodes
        n = opcodes.shape[0]
        prefix = 1 if self.add_cls else 0
        mnemonic_ids = self._mnemonic_ids[opcodes]
        if self.include_operands and n:
            push = (opcodes >= _FIRST_PUSH_TOKEN) & (opcodes <= _LAST_PUSH_TOKEN)
            ids = np.empty(prefix + n + int(push.sum()) + 1, dtype=np.int64)
            positions = prefix + np.arange(n) + np.cumsum(push) - push
            ids[positions] = mnemonic_ids
            ids[positions[push] + 1] = self._bucket_ids[sequence.widths[push]]
        else:
            ids = np.empty(prefix + n + 1, dtype=np.int64)
            ids[prefix : prefix + n] = mnemonic_ids
        if prefix:
            ids[0] = self.cls_id
        ids[-1] = self.vocabulary[EOS_TOKEN]
        return ids

    def _fit_length(self, ids: np.ndarray, length: int) -> np.ndarray:
        """Truncate/pad an unpadded id array to ``length``."""
        out = np.full(length, self.pad_id, dtype=np.int64)
        cut = min(ids.shape[0], length)
        out[:cut] = ids[:cut]
        return out

    def encode_one(self, bytecode) -> np.ndarray:
        """Tokenize and encode one bytecode (truncation variant, α models)."""
        ids = self._ids_from_sequence(self.service.sequence(bytecode))
        return self._fit_length(ids, self.max_length)

    def full_sequences(self, bytecodes: Sequence) -> List[np.ndarray]:
        """Unpadded token ids of every contract (for the β chunking)."""
        return [
            self._ids_from_sequence(sequence)
            for sequence in self.service.sequences(bytecodes)
        ]

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        """Encode a batch: ``(n, max_length)`` int64 matrix."""
        return np.stack(
            [
                self._fit_length(self._ids_from_sequence(sequence), self.max_length)
                for sequence in self.service.sequences(bytecodes)
            ]
        )
