"""Hex n-gram encoding (the SCSGuard feature extractor).

SCSGuard reads the hexadecimal bytecode string as a stream of "bigrams"
(6-character groups in the paper's terminology, i.e. 3 bytes), builds an
integer vocabulary over them on the training set, and pads sequences to a
uniform length for the embedding + attention + GRU model.

Grams are read through the shared
:class:`~repro.features.batch.BatchFeatureService`, which caches each
bytecode's grams as *integer codes* (the big-endian value of the gram's
bytes, in bijection with its lowercase hex string), so fit/encode reduce to
``np.unique`` + ``np.searchsorted`` instead of per-gram string slicing and
dict lookups.  Gram sizes above :data:`~repro.features.batch.MAX_NGRAM_BYTES`
bytes are rejected: their integer codes would overflow ``int64``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from .batch import MAX_NGRAM_BYTES, BatchFeatureService, resolve_service

#: Vocabulary id reserved for padding.
PAD_ID = 0
#: Vocabulary id reserved for n-grams unseen at fit time.
UNKNOWN_ID = 1


class HexNgramEncoder:
    """Fixed-length integer sequences of hex n-grams."""

    def __init__(
        self,
        chars_per_gram: int = 6,
        max_length: int = 256,
        max_vocabulary: int = 4096,
        service: Optional[BatchFeatureService] = None,
    ):
        """Create an encoder.

        Args:
            chars_per_gram: Number of hex characters per gram (paper: 6); an
                even number from 2 to ``2 * MAX_NGRAM_BYTES``.
            max_length: Output sequence length (longer inputs are truncated,
                shorter ones padded with :data:`PAD_ID`).
            max_vocabulary: Cap on vocabulary size; the most frequent grams
                are kept and the rest map to :data:`UNKNOWN_ID`.
            service: Batch extraction service whose n-gram view caches gram
                codes per bytecode; defaults to the process-wide service.
        """
        if chars_per_gram < 2 or chars_per_gram % 2 != 0:
            raise ValueError("chars_per_gram must be an even number >= 2")
        if chars_per_gram > 2 * MAX_NGRAM_BYTES:
            raise ValueError(f"chars_per_gram must be <= {2 * MAX_NGRAM_BYTES}")
        self.chars_per_gram = chars_per_gram
        self.max_length = max_length
        self.max_vocabulary = max_vocabulary
        self.vocabulary_: Dict[str, int] = {}
        self._service = service
        self._sorted_codes: Optional[np.ndarray] = None
        self._sorted_ids: Optional[np.ndarray] = None

    @property
    def service(self) -> BatchFeatureService:
        """The batch service grams are read through (default resolved lazily)."""
        return resolve_service(self._service)

    @service.setter
    def service(self, service: Optional[BatchFeatureService]) -> None:
        """Inject a service (``None`` reverts to the process-wide default)."""
        self._service = service

    @property
    def _bytes_per_gram(self) -> int:
        return self.chars_per_gram // 2

    def _gram_string(self, code: int) -> str:
        return format(code, f"0{self.chars_per_gram}x")

    @property
    def vocabulary_size(self) -> int:
        """Total vocabulary size including the PAD and UNK ids."""
        return len(self.vocabulary_) + 2

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _set_vocabulary(self, ranked_grams: Sequence[str]) -> None:
        """Install the fitted vocabulary and its vectorized lookup arrays."""
        self.vocabulary_ = {gram: index + 2 for index, gram in enumerate(ranked_grams)}
        codes = np.array(
            [int(gram, 16) for gram in ranked_grams], dtype=np.int64
        )
        ids = np.arange(2, 2 + codes.shape[0], dtype=np.int64)
        order = np.argsort(codes)
        self._sorted_codes = codes[order]
        self._sorted_ids = ids[order]

    def fit(self, bytecodes: Sequence) -> "HexNgramEncoder":
        """Build the gram vocabulary from training bytecodes.

        The kept grams are the ``max_vocabulary`` most frequent ones, ties
        broken by gram (for fixed-width lowercase hex, lexicographic string
        order equals numeric code order).
        """
        code_arrays = self.service.ngram_codes_batch(bytecodes, self._bytes_per_gram)
        populated = [codes for codes in code_arrays if codes.size]
        if populated:
            values, counts = np.unique(np.concatenate(populated), return_counts=True)
            order = np.lexsort((values, -counts))[: self.max_vocabulary]
            ranked = [self._gram_string(int(values[i])) for i in order]
        else:
            ranked = []
        self._set_vocabulary(ranked)
        return self

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def _encode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Map gram codes to vocabulary ids (vectorized binary search)."""
        if self._sorted_codes is None or self._sorted_ids is None:
            raise RuntimeError("encoder must be fitted before encoding")
        ids = np.full(min(codes.shape[0], self.max_length), UNKNOWN_ID, dtype=np.int64)
        codes = codes[: self.max_length]
        if self._sorted_codes.shape[0] and codes.shape[0]:
            slots = np.searchsorted(self._sorted_codes, codes)
            slots[slots == self._sorted_codes.shape[0]] = 0
            known = self._sorted_codes[slots] == codes
            ids[known] = self._sorted_ids[slots[known]]
        if ids.shape[0] < self.max_length:
            ids = np.concatenate(
                [ids, np.full(self.max_length - ids.shape[0], PAD_ID, dtype=np.int64)]
            )
        return ids

    def encode_one(self, bytecode) -> np.ndarray:
        """Encode one bytecode as a fixed-length id sequence."""
        if not self.vocabulary_:
            raise RuntimeError("HexNgramEncoder must be fitted before encoding")
        return self._encode_codes(self.service.ngram_codes(bytecode, self._bytes_per_gram))

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        """Encode a batch: ``(n, max_length)`` int64 matrix."""
        return np.stack([self.encode_one(bytecode) for bytecode in bytecodes])

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        """Fit the vocabulary and encode the same batch."""
        return self.fit(bytecodes).transform(bytecodes)
