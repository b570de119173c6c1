"""Per-instruction reference extractors for the equivalence and golden tests.

Every production feature front end — the opcode histogram, the tokenizer,
the hex n-gram and image encoders, and ESCORT's byte embedding — reads its
input through the shared :class:`~repro.features.batch.BatchFeatureService`
and the vectorized kernels of :mod:`repro.evm.fastcount`.  The oracles here
compute the same features the slow, obvious way: one
:class:`~repro.evm.disassembler.Disassembler` instruction, one hex slice or
one byte at a time.  They import neither of those two modules, so a test
that compares production output with an oracle checks the kernels and the
cache against an independent reference.

Each oracle offers the methods the detectors call (``fit``, ``transform``,
``fit_transform`` ...), so ``test_detector_service_equivalence.py`` can swap
it into a detector.  Fitted state keeps the attribute names of the
production class (``vocabulary_``, ``_scale``, ``_mnemonic_encoder`` ...),
so tests can compare the two field by field.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

from repro.evm.disassembler import Disassembler, normalize_bytecode
from repro.evm.opcodes import CANONICAL_MNEMONICS
from repro.ml.preprocessing import FrequencyEncoder
from repro.models.escort import _vulnerability_class

_DISASSEMBLER = Disassembler()

#: The tokenizer's special tokens, in vocabulary order: pad, unknown, cls, eos.
_SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<eos>")

#: Operand-bucket widths of the tokenizer vocabulary: a PUSH immediate of
#: ``w`` bytes becomes ``<immB>`` for the smallest bucket ``B >= w``.
_BUCKET_WIDTHS = (0, 1, 2, 4, 8, 16, 32)


def _pad(ids: List[int], length: int, pad_id: int) -> np.ndarray:
    ids = ids[:length]
    return np.asarray(ids + [pad_id] * (length - len(ids)), dtype=np.int64)


class OracleHistogram:
    """Opcode histogram from a ``Counter`` over disassembled mnemonics."""

    def __init__(self, normalize: bool = False):
        self.normalize = normalize
        self.mnemonics: List[str] = []

    def fit(self, bytecodes: Sequence) -> "OracleHistogram":
        seen = {m for code in bytecodes for m in _DISASSEMBLER.mnemonics(code)}
        self.mnemonics = sorted(seen)
        return self

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        column = {mnemonic: i for i, mnemonic in enumerate(self.mnemonics)}
        features = np.zeros((len(bytecodes), len(self.mnemonics)))
        for row, code in enumerate(bytecodes):
            for mnemonic, count in Counter(_DISASSEMBLER.mnemonics(code)).items():
                if mnemonic in column:
                    features[row, column[mnemonic]] = count
            total = features[row].sum()
            if self.normalize and total > 0:
                features[row] /= total
        return features

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        return self.fit(bytecodes).transform(bytecodes)

    def feature_names(self) -> List[str]:
        return list(self.mnemonics)


class OracleTokenizer:
    """Token strings built instruction by instruction, then looked up."""

    def __init__(self, max_length: int = 256, include_operands: bool = True, add_cls: bool = True):
        self.max_length = max_length
        self.include_operands = include_operands
        self.add_cls = add_cls
        tokens = list(_SPECIAL_TOKENS)
        tokens += [f"<imm{width}>" for width in _BUCKET_WIDTHS]
        tokens += CANONICAL_MNEMONICS
        self.vocabulary: Dict[str, int] = {token: i for i, token in enumerate(tokens)}

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)

    @property
    def pad_id(self) -> int:
        return self.vocabulary["<pad>"]

    def tokenize(self, bytecode) -> List[str]:
        tokens = ["<cls>"] if self.add_cls else []
        for instruction in _DISASSEMBLER.disassemble(bytecode):
            tokens.append(instruction.mnemonic)
            if self.include_operands and instruction.opcode.is_push:
                width = len(instruction.operand or b"")
                tokens.append(f"<imm{min(w for w in _BUCKET_WIDTHS if w >= width)}>")
        tokens.append("<eos>")
        return tokens

    def _ids(self, bytecode) -> List[int]:
        unknown = self.vocabulary["<unk>"]
        return [self.vocabulary.get(token, unknown) for token in self.tokenize(bytecode)]

    def encode_one(self, bytecode) -> np.ndarray:
        return _pad(self._ids(bytecode), self.max_length, self.pad_id)

    def full_sequences(self, bytecodes: Sequence) -> List[np.ndarray]:
        return [np.asarray(self._ids(code), dtype=np.int64) for code in bytecodes]

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        return np.stack([self.encode_one(code) for code in bytecodes])


class OracleHexNgrams:
    """Hex n-grams sliced out of the bytecode's hex string."""

    def __init__(self, chars_per_gram: int = 6, max_length: int = 256, max_vocabulary: int = 4096):
        self.chars_per_gram = chars_per_gram
        self.max_length = max_length
        self.max_vocabulary = max_vocabulary
        self.vocabulary_: Dict[str, int] = {}

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary_) + 2

    def _grams(self, bytecode) -> List[str]:
        text = normalize_bytecode(bytecode).hex()
        step = self.chars_per_gram
        return [text[i : i + step] for i in range(0, len(text) - step + 1, step)]

    def fit(self, bytecodes: Sequence) -> "OracleHexNgrams":
        counts = Counter(gram for code in bytecodes for gram in self._grams(code))
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        kept = ranked[: self.max_vocabulary]
        self.vocabulary_ = {gram: i + 2 for i, (gram, _) in enumerate(kept)}
        return self

    def encode_one(self, bytecode) -> np.ndarray:
        ids = [self.vocabulary_.get(gram, 1) for gram in self._grams(bytecode)]
        return _pad(ids, self.max_length, 0)

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        return np.stack([self.encode_one(code) for code in bytecodes])

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        return self.fit(bytecodes).transform(bytecodes)


def _records(bytecode) -> List[tuple]:
    """(mnemonic, operand hex, gas) of every instruction, as the BDM records it."""
    return [
        (
            instruction.mnemonic,
            instruction.operand_hex or "NaN",
            instruction.gas if instruction.gas is not None else "NaN",
        )
        for instruction in _DISASSEMBLER.disassemble(bytecode)
    ]


class OracleFrequencyImage:
    """Frequency images from per-instruction lookups in three token tables."""

    def __init__(self, image_size: int = 32):
        self.image_size = image_size
        self._mnemonic_encoder = FrequencyEncoder(normalize=True)
        self._operand_encoder = FrequencyEncoder(normalize=True)
        self._gas_encoder = FrequencyEncoder(normalize=True)
        self._scale = 1.0

    def fit(self, bytecodes: Sequence) -> "OracleFrequencyImage":
        records = [record for code in bytecodes for record in _records(code)]
        encoders = (self._mnemonic_encoder, self._operand_encoder, self._gas_encoder)
        for channel, encoder in enumerate(encoders):
            encoder.fit([record[channel] for record in records])
        top = max(max(encoder.table_.values(), default=1.0) for encoder in encoders)
        self._scale = 1.0 / top if top > 0 else 1.0
        return self

    def use_tables(self, fitted) -> "OracleFrequencyImage":
        """Adopt the token tables and scale of a fitted production encoder."""
        self._mnemonic_encoder = fitted._mnemonic_encoder
        self._operand_encoder = fitted._operand_encoder
        self._gas_encoder = fitted._gas_encoder
        self._scale = fitted._scale
        return self

    def encode_one(self, bytecode) -> np.ndarray:
        capacity = self.image_size * self.image_size
        image = np.zeros((capacity, 3))
        encoders = (self._mnemonic_encoder, self._operand_encoder, self._gas_encoder)
        for pixel, record in enumerate(_records(bytecode)[:capacity]):
            for channel, encoder in enumerate(encoders):
                frequency = encoder.table_.get(record[channel], encoder.unknown_value)
                image[pixel, channel] = frequency * self._scale
        image = np.clip(image, 0.0, 1.0).reshape(self.image_size, self.image_size, 3)
        return np.transpose(image, (2, 0, 1))

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        return np.stack([self.encode_one(code) for code in bytecodes])

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        return self.fit(bytecodes).transform(bytecodes)


class OracleR2D2:
    """R2D2 images: every byte triplet of the raw code becomes one RGB pixel."""

    def __init__(self, image_size: int = 32):
        self.image_size = image_size

    def encode_one(self, bytecode) -> np.ndarray:
        code = normalize_bytecode(bytecode)
        image = np.zeros((3, self.image_size, self.image_size))
        for index, byte in enumerate(code[: 3 * self.image_size**2]):
            pixel, channel = divmod(index, 3)
            row, column = divmod(pixel, self.image_size)
            image[channel, row, column] = byte / 255.0
        return image

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        return np.stack([self.encode_one(code) for code in bytecodes])

    def fit(self, bytecodes: Sequence) -> "OracleR2D2":
        return self

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        return self.transform(bytecodes)


def escort_embedding(bytecodes: Sequence) -> np.ndarray:
    """ESCORT's input: the relative frequency of each byte value per contract."""
    features = np.zeros((len(bytecodes), 256))
    for row, bytecode in enumerate(bytecodes):
        code = normalize_bytecode(bytecode)
        for byte, count in Counter(code).items():
            features[row, byte] = count / len(code)
    return features


def structural_vulnerability_label(bytecode) -> int:
    """ESCORT's pretraining class of one bytecode, from its mnemonic list.

    Applies production's decision rule to per-mnemonic counts taken from
    the disassembler instead of from the 256-bin count vector.
    """
    mnemonics = _DISASSEMBLER.mnemonics(bytecode)
    return _vulnerability_class(Counter(mnemonics), len(mnemonics))


def escort_vulnerability_targets(bytecodes: Sequence) -> np.ndarray:
    """ESCORT's pretraining classes, decided on each disassembled mnemonic list."""
    return np.array([structural_vulnerability_label(code) for code in bytecodes])
