"""Opcode-histogram features (the HSC feature extractor).

For each contract bytecode a histogram of opcode occurrences is built.  As in
the paper, the feature vector's length equals the number of unique opcodes
observed in the *training set*, and the raw counts are fed to the classifiers
without normalisation or standardisation.

Bytecodes are counted by the single-pass bytes-level kernel
(:mod:`repro.evm.fastcount`) through a shared
:class:`~repro.features.batch.BatchFeatureService` (content-hash LRU cache +
chunked batch transform), and counts are projected onto the learned
vocabulary with a precomputed index map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..evm.fastcount import MNEMONIC_BINS, observed_mnemonics
from .batch import BatchFeatureService, VocabularyProjection, resolve_service


@dataclass
class HistogramVocabulary:
    """Mnemonic → column-index mapping learned on the training set."""

    mnemonics: List[str]

    @property
    def size(self) -> int:
        """Number of histogram columns."""
        return len(self.mnemonics)

    def index_of(self, mnemonic: str) -> Optional[int]:
        """Column of ``mnemonic`` or ``None`` if it was unseen at fit time."""
        try:
            return self.mnemonics.index(mnemonic)
        except ValueError:
            return None


class OpcodeHistogramExtractor:
    """Builds opcode-count vectors from raw bytecodes."""

    def __init__(
        self,
        normalize: bool = False,
        service: Optional[BatchFeatureService] = None,
    ):
        """Create an extractor.

        Args:
            normalize: If true, convert counts to relative frequencies.  The
                paper's HSC pipeline uses raw counts (the default).
            service: Batch extraction service to count through; defaults to
                the process-wide shared service so detectors share one cache.
        """
        self.normalize = normalize
        self.vocabulary_: Optional[HistogramVocabulary] = None
        self._projection: Optional[VocabularyProjection] = None
        self._service = service

    @property
    def service(self) -> BatchFeatureService:
        """The batch service the extractor counts through.

        Resolved per access when no explicit service was given, so
        ``use_service``/``set_default_service`` swaps reach extractors that
        have already been used.
        """
        return resolve_service(self._service)

    @service.setter
    def service(self, service: Optional[BatchFeatureService]) -> None:
        """Inject a service (``None`` reverts to the process-wide default)."""
        self._service = service

    def _set_vocabulary(self, mnemonics: List[str]) -> None:
        self.vocabulary_ = HistogramVocabulary(mnemonics=mnemonics)
        self._projection = VocabularyProjection.for_mnemonics(mnemonics)

    def fit(self, bytecodes: Sequence) -> "OpcodeHistogramExtractor":
        """Learn the opcode vocabulary from training bytecodes."""
        counts = self.service.count_matrix(bytecodes)
        self._set_vocabulary(observed_mnemonics(counts))
        return self

    def transform(self, bytecodes: Sequence) -> np.ndarray:
        """Histogram matrix of shape ``(n_contracts, vocabulary_size)``."""
        if self.vocabulary_ is None:
            raise RuntimeError("extractor must be fitted before transform")
        if self._projection is None:
            raise RuntimeError("vocabulary projection missing after fit")
        return self.service.transform(bytecodes, self._projection, normalize=self.normalize)

    def fit_transform(self, bytecodes: Sequence) -> np.ndarray:
        """Fit the vocabulary and transform in one step."""
        return self.fit(bytecodes).transform(bytecodes)

    def feature_names(self) -> List[str]:
        """Column names (mnemonics) of the histogram matrix."""
        if self.vocabulary_ is None:
            raise RuntimeError("extractor must be fitted before reading feature names")
        return list(self.vocabulary_.mnemonics)


def opcode_usage_distribution(
    bytecodes: Sequence,
    mnemonics: Sequence[str],
    service: Optional[BatchFeatureService] = None,
) -> Dict[str, np.ndarray]:
    """Per-contract usage counts of selected opcodes (Fig. 3's raw data)."""
    service = resolve_service(service)
    matrix = service.count_matrix(bytecodes)
    usage: Dict[str, np.ndarray] = {}
    for mnemonic in mnemonics:
        value = MNEMONIC_BINS.get(mnemonic)
        if value is None:
            usage[mnemonic] = np.zeros(len(bytecodes))
        else:
            usage[mnemonic] = matrix[:, value].astype(float)
    return usage
