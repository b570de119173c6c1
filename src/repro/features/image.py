"""Image encodings of contract bytecode (the vision-model feature extractors).

Two encoders are provided:

* :class:`R2D2ImageEncoder` — the ViT+R2D2 / ECA+EfficientNet input: the raw
  bytecode is read as a stream of bytes, consecutive byte triplets become RGB
  pixels, and pixels are arranged row-major into a square ``image_size ×
  image_size × 3`` tensor with zero padding (R2-D2-style "binary as colour
  image").
* :class:`FrequencyImageEncoder` — the ViT+Freq input: the *disassembled*
  instruction stream is encoded through a frequency lookup table built once
  on the training set; the relative frequencies of each instruction's
  mnemonic, operand and gas value become the R, G and B intensities of one
  pixel.

The paper uses 224×224 images for the pretrained ViT-B/16; the reproduction
keeps the construction identical but defaults to a smaller spatial size so
that from-scratch CPU training is feasible (`image_size` is configurable).

:class:`FrequencyImageEncoder` disassembles each bytecode once through the
shared :class:`~repro.features.batch.BatchFeatureService` (content-hash-cached
:class:`~repro.evm.fastcount.OpcodeSequence` views), mnemonic and gas
frequencies are resolved through 256-entry lookup tables indexed by opcode
byte value, and only PUSH immediates take a per-instruction dict lookup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..evm.disassembler import normalize_bytecode
from ..evm.fastcount import BIN_MNEMONICS, OpcodeSequence
from ..evm.opcodes import SHANGHAI_OPCODES
from ..ml.preprocessing import FrequencyEncoder
from .batch import BatchFeatureService, resolve_service

#: Byte-value range of opcodes that carry an immediate (PUSH1..PUSH32; the
#: disassembler reports no operand for anything else, including PUSH0).
_FIRST_IMMEDIATE = 0x60
_LAST_IMMEDIATE = 0x7F

#: Opcode byte value → gas token as the BDM records it (``"NaN"`` for the
#: gas-less ``INVALID``, which also absorbs every undefined byte value).
_GAS_TOKENS: Dict[int, object] = {
    value: (info.gas if info.gas is not None else "NaN")
    for value, info in SHANGHAI_OPCODES.items()
}


class R2D2ImageEncoder:
    """Map raw bytecode bytes to RGB images (no training state).

    Encoding is pure byte arithmetic (no disassembly), but it still resolves
    through the shared :class:`~repro.features.batch.BatchFeatureService` by
    default: the service caches the rendered image per ``(bytecode,
    image_size)``, so the two R2D2-fed detectors (ViT+R2D2 and
    ECA+EfficientNet) and repeated fit/score calls over duplicate-heavy
    corpora encode each unique bytecode once.
    """

    def __init__(
        self,
        image_size: int = 32,
        service: Optional[BatchFeatureService] = None,
    ):
        if image_size < 2:
            raise ValueError("image_size must be at least 2")
        self.image_size = image_size
        self._service = service

    @property
    def service(self) -> BatchFeatureService:
        """The batch service images are read through (default resolved lazily)."""
        return resolve_service(self._service)

    @service.setter
    def service(self, service: Optional[BatchFeatureService]) -> None:
        """Inject a service (``None`` reverts to the process-wide default)."""
        self._service = service

    def encode_one(self, bytecode) -> np.ndarray:
        """Encode one bytecode as a ``(3, image_size, image_size)`` tensor."""
        return self.service.r2d2_image(bytecode, self.image_size)

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        """Encode a batch: ``(n, 3, image_size, image_size)``."""
        return self.service.r2d2_images(bytecodes, self.image_size)

    # The encoder is stateless; fit is provided for interface symmetry.
    def fit(self, bytecodes: Sequence) -> "R2D2ImageEncoder":
        """No-op (kept for a uniform extractor interface)."""
        return self

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        """Alias of :meth:`transform`."""
        return self.transform(bytecodes)


class FrequencyImageEncoder:
    """Frequency-lookup encoding of disassembled instructions into RGB images.

    The lookup tables (one each for mnemonics, operands and gas values) are
    built exactly once on the training corpus, as required by the paper.
    """

    def __init__(
        self,
        image_size: int = 32,
        service: Optional[BatchFeatureService] = None,
    ):
        if image_size < 2:
            raise ValueError("image_size must be at least 2")
        self.image_size = image_size
        self._mnemonic_encoder = FrequencyEncoder(normalize=True)
        self._operand_encoder = FrequencyEncoder(normalize=True)
        self._gas_encoder = FrequencyEncoder(normalize=True)
        self._fitted = False
        self._scale = 1.0
        self._service = service
        self._mnemonic_lut: Optional[np.ndarray] = None
        self._gas_lut: Optional[np.ndarray] = None

    @property
    def service(self) -> BatchFeatureService:
        """The batch service sequences are read through (default resolved lazily)."""
        return resolve_service(self._service)

    @service.setter
    def service(self, service: Optional[BatchFeatureService]) -> None:
        """Inject a service (``None`` reverts to the process-wide default)."""
        self._service = service

    @staticmethod
    def _operand_tokens(
        sequence: OpcodeSequence, code: bytes, limit: Optional[int] = None
    ) -> List[Tuple[int, str]]:
        """``(instruction index, operand hex token)`` of PUSH immediates.

        ``limit`` bounds the scan to the first ``limit`` instructions —
        encoding only renders ``image_size**2`` pixels, so the per-PUSH
        Python loop must not walk the tail of a large contract.  Fitting
        passes no limit (the frequency tables see the whole corpus).
        """
        opcodes = sequence.opcodes if limit is None else sequence.opcodes[:limit]
        pushes = np.flatnonzero(
            (opcodes >= _FIRST_IMMEDIATE) & (opcodes <= _LAST_IMMEDIATE)
        )
        if pushes.size == 0:
            return []
        widths = sequence.widths if limit is None else sequence.widths[:limit]
        # Offsets of the scanned prefix only — cumsumming the full sequence
        # would re-introduce the O(total instructions) work the limit avoids.
        sizes = widths.astype(np.int64) + 1
        starts = np.empty(sizes.shape[0], dtype=np.int64)
        starts[0] = 0
        np.cumsum(sizes[:-1], out=starts[1:])
        tokens = []
        for index in pushes.tolist():
            start = int(starts[index]) + 1
            tokens.append((index, "0x" + code[start : start + int(widths[index])].hex()))
        return tokens

    def _finalize_fit(self) -> "FrequencyImageEncoder":
        # Scale so that the most frequent token maps close to full intensity.
        max_frequency = max(
            max(self._mnemonic_encoder.table_.values(), default=1.0),
            max(self._operand_encoder.table_.values(), default=1.0),
            max(self._gas_encoder.table_.values(), default=1.0),
        )
        self._scale = 1.0 / max_frequency if max_frequency > 0 else 1.0
        self._fitted = True
        self._mnemonic_lut = None
        self._gas_lut = None
        return self

    def fit(self, bytecodes: Sequence) -> "FrequencyImageEncoder":
        """Build the frequency lookup tables on the training set."""
        codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
        sequences = self.service.sequences(codes)
        opcode_totals = np.zeros(256, dtype=np.int64)
        operand_counts: Dict[object, int] = {}
        total = 0
        for sequence, code in zip(sequences, codes):
            opcode_totals += np.bincount(sequence.opcodes, minlength=256)
            total += len(sequence)
            for _, token in self._operand_tokens(sequence, code):
                operand_counts[token] = operand_counts.get(token, 0) + 1
        mnemonic_counts = {
            BIN_MNEMONICS[value]: int(opcode_totals[value])
            for value in np.flatnonzero(opcode_totals)
        }
        gas_counts: Dict[object, int] = {}
        for value in np.flatnonzero(opcode_totals).tolist():
            token = _GAS_TOKENS[value]
            gas_counts[token] = gas_counts.get(token, 0) + int(opcode_totals[value])
        # Instructions without an immediate contribute the "NaN" operand token.
        n_operands = sum(operand_counts.values())
        if total - n_operands:
            operand_counts["NaN"] = operand_counts.get("NaN", 0) + (total - n_operands)
        self._mnemonic_encoder.fit_counts(mnemonic_counts, total=total)
        self._operand_encoder.fit_counts(operand_counts, total=total)
        self._gas_encoder.fit_counts(gas_counts, total=total)
        return self._finalize_fit()

    def _ensure_luts(self) -> None:
        """Opcode-value → scaled channel intensity tables (built after fit)."""
        if self._mnemonic_lut is not None:
            return
        mnemonic_table = self._mnemonic_encoder.table_
        gas_table = self._gas_encoder.table_
        mnemonic_lut = np.zeros(256, dtype=np.float64)
        gas_lut = np.zeros(256, dtype=np.float64)
        for value, mnemonic in BIN_MNEMONICS.items():
            mnemonic_lut[value] = (
                mnemonic_table.get(mnemonic, self._mnemonic_encoder.unknown_value)
                * self._scale
            )
            gas_lut[value] = (
                gas_table.get(_GAS_TOKENS[value], self._gas_encoder.unknown_value)
                * self._scale
            )
        self._mnemonic_lut = mnemonic_lut
        self._gas_lut = gas_lut

    def _encode_sequence(self, sequence: OpcodeSequence, code: bytes) -> np.ndarray:
        self._ensure_luts()
        if self._mnemonic_lut is None or self._gas_lut is None:
            raise RuntimeError("encoder lookup tables failed to initialise")
        capacity = self.image_size * self.image_size
        image = np.zeros((capacity, 3), dtype=np.float64)
        count = min(len(sequence), capacity)
        if count:
            opcodes = sequence.opcodes[:count]
            image[:count, 0] = self._mnemonic_lut[opcodes]
            image[:count, 2] = self._gas_lut[opcodes]
            operand_table = self._operand_encoder.table_
            unknown = self._operand_encoder.unknown_value
            image[:count, 1] = operand_table.get("NaN", unknown) * self._scale
            for index, token in self._operand_tokens(sequence, code, limit=count):
                image[index, 1] = operand_table.get(token, unknown) * self._scale
        image = np.clip(image, 0.0, 1.0).reshape(self.image_size, self.image_size, 3)
        return np.transpose(image, (2, 0, 1))

    def encode_one(self, bytecode) -> np.ndarray:
        """Encode one bytecode as a ``(3, image_size, image_size)`` tensor."""
        if not self._fitted:
            raise RuntimeError("FrequencyImageEncoder must be fitted before encoding")
        code = normalize_bytecode(bytecode)
        return self._encode_sequence(self.service.sequence(code), code)

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        """Encode a batch: ``(n, 3, image_size, image_size)``."""
        if not self._fitted:
            raise RuntimeError("FrequencyImageEncoder must be fitted before encoding")
        codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
        return np.stack(
            [
                self._encode_sequence(sequence, code)
                for sequence, code in zip(self.service.sequences(codes), codes)
            ]
        )

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        """Fit the lookup tables and encode the same batch."""
        return self.fit(bytecodes).transform(bytecodes)
