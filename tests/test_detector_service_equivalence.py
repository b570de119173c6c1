"""Cross-detector equivalence: shared injected service vs. oracle extraction.

The shared feature-resolution path must not move a single probability: for
every one of the 16 Table II detectors, fitting and scoring through an
explicitly injected :class:`~repro.features.batch.BatchFeatureService` has
to produce bit-identical ``predict_proba`` output to the same detector fed
by the per-instruction oracles of ``oracles.py`` (disassembled instruction
lists, string n-grams, per-contract byte loops).  Training is deterministic
given the seed, so any feature-level divergence would surface as a
probability mismatch here.
"""

import numpy as np
import pytest

from repro.features.batch import BatchFeatureService
from repro.features.histogram import OpcodeHistogramExtractor
from repro.features.image import FrequencyImageEncoder, R2D2ImageEncoder
from repro.features.ngram import HexNgramEncoder
from repro.features.tokenizer import OpcodeTokenizer
from repro.models.base import PhishingDetector
from repro.models.escort import ESCORTDetector
from repro.models.registry import DeepModelScale, TABLE2_MODEL_NAMES, build_model

from oracles import (
    OracleFrequencyImage,
    OracleHexNgrams,
    OracleHistogram,
    OracleR2D2,
    OracleTokenizer,
    escort_embedding,
    escort_vulnerability_targets,
)


def _oracle_like(extractor):
    """The oracle configured like a production extractor (``None`` if none fits)."""
    if isinstance(extractor, OpcodeHistogramExtractor):
        return OracleHistogram(normalize=extractor.normalize)
    if isinstance(extractor, OpcodeTokenizer):
        return OracleTokenizer(
            max_length=extractor.max_length,
            include_operands=extractor.include_operands,
            add_cls=extractor.add_cls,
        )
    if isinstance(extractor, HexNgramEncoder):
        return OracleHexNgrams(
            chars_per_gram=extractor.chars_per_gram,
            max_length=extractor.max_length,
            max_vocabulary=extractor.max_vocabulary,
        )
    if isinstance(extractor, FrequencyImageEncoder):
        return OracleFrequencyImage(image_size=extractor.image_size)
    if isinstance(extractor, R2D2ImageEncoder):
        return OracleR2D2(image_size=extractor.image_size)
    return None


def swap_in_oracles(detector: PhishingDetector) -> PhishingDetector:
    """Replace every feature front end the detector owns with its oracle."""
    swapped = 0
    for attribute in ("extractor", "tokenizer", "encoder"):
        oracle = _oracle_like(getattr(detector, attribute, None))
        if oracle is not None:
            setattr(detector, attribute, oracle)
            swapped += 1
    if isinstance(detector, ESCORTDetector):
        detector._embed = escort_embedding
        detector._vulnerability_targets = escort_vulnerability_targets
        swapped += 1
    assert swapped > 0, f"{detector.name} exposes no extractor to compare against"
    return detector


@pytest.fixture(scope="module")
def split(dataset):
    codes = dataset.bytecodes[:22]
    labels = dataset.labels[:22]
    return codes[:14], labels[:14], codes[14:]


@pytest.mark.parametrize("name", TABLE2_MODEL_NAMES)
def test_detector_bit_identical_with_shared_service(name, split):
    train_codes, train_labels, test_codes = split
    scale = DeepModelScale.smoke()

    service = BatchFeatureService()
    shared = build_model(name, scale=scale, seed=0, service=service)
    shared.fit(train_codes, train_labels)
    shared_probabilities = shared.predict_proba(test_codes)

    legacy = swap_in_oracles(build_model(name, scale=scale, seed=0))
    legacy.fit(train_codes, train_labels)
    legacy_probabilities = legacy.predict_proba(test_codes)

    assert np.array_equal(shared_probabilities, legacy_probabilities), name
    # The shared detector really resolved its features through the injected
    # service (not some private extractor or the process-wide default).
    assert service.aggregate_stats().lookups > 0, name


def test_all_16_detectors_share_one_service(split):
    """One injected service serves every detector; dedup works across them."""
    train_codes, train_labels, test_codes = split
    scale = DeepModelScale.smoke()
    service = BatchFeatureService()
    for name in TABLE2_MODEL_NAMES:
        detector = build_model(name, scale=scale, seed=0, service=service)
        assert detector.feature_service is service, name
        detector.fit(train_codes, train_labels)
        detector.predict_proba(test_codes)
    # Every disassembly-consuming view was served out of at most one kernel
    # pass per unique bytecode, across all 16 detectors.
    unique = len({bytes(code) for code in train_codes + test_codes})
    assert service.kernel_passes <= unique
    assert service.aggregate_stats().hit_rate > 0.5
