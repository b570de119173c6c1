"""Cross-extractor equivalence harness: each extractor vs. its oracle.

Every feature view that consumes the disassembled opcode stream — tokenizer
(GPT-2/T5), hex n-grams (SCSGuard), frequency images (ViT+Freq) and opcode
histograms (HSC) — must be bit-identical between the vectorized
service-backed extractor and the per-instruction ("legacy") reference of
``oracles.py``, on both the session dataset and randomized adversarial
bytecodes.  The harness also pins
the headline property of the shared multi-view service: running *all* views
over the same contracts disassembles each unique bytecode exactly once.
"""

import numpy as np
import pytest

from repro.evm.disassembler import normalize_bytecode
from repro.features.batch import BatchFeatureService, use_service
from repro.features.histogram import OpcodeHistogramExtractor
from repro.features.image import FrequencyImageEncoder
from repro.features.ngram import HexNgramEncoder
from repro.features.tokenizer import OpcodeTokenizer

from oracles import OracleFrequencyImage, OracleHexNgrams, OracleHistogram, OracleTokenizer
from test_evm_sequence import random_bytecodes


@pytest.fixture()
def service():
    return BatchFeatureService()


@pytest.fixture()
def adversarial_codes():
    return random_bytecodes(100, seed=31, max_length=400) + [b""]


class TestTokenizerEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"include_operands": False},
            {"add_cls": False},
            {"max_length": 17},
        ],
    )
    def test_fast_matches_legacy_on_adversarial_codes(
        self, service, adversarial_codes, kwargs
    ):
        fast = OpcodeTokenizer(service=service, **kwargs)
        legacy = OracleTokenizer(**kwargs)
        for code in adversarial_codes:
            assert fast.tokenize(code) == legacy.tokenize(code), code.hex()
            assert np.array_equal(fast.encode_one(code), legacy.encode_one(code))
        assert np.array_equal(
            fast.transform(adversarial_codes), legacy.transform(adversarial_codes)
        )
        for fast_ids, legacy_ids in zip(
            fast.full_sequences(adversarial_codes),
            legacy.full_sequences(adversarial_codes),
        ):
            assert np.array_equal(fast_ids, legacy_ids)

    def test_fast_matches_legacy_on_dataset(self, service, bytecodes):
        sample = bytecodes[:25]
        fast = OpcodeTokenizer(max_length=64, service=service)
        legacy = OracleTokenizer(max_length=64)
        assert np.array_equal(fast.transform(sample), legacy.transform(sample))

    @pytest.mark.slow
    def test_fast_matches_legacy_on_large_random_sweep(self, service):
        codes = random_bytecodes(300, seed=77, max_length=2048)
        fast = OpcodeTokenizer(max_length=512, service=service)
        legacy = OracleTokenizer(max_length=512)
        assert np.array_equal(fast.transform(codes), legacy.transform(codes))


class TestNgramEquivalence:
    @pytest.mark.parametrize("chars_per_gram", [2, 6, 8])
    def test_fast_matches_legacy(self, service, adversarial_codes, chars_per_gram):
        fast = HexNgramEncoder(
            chars_per_gram=chars_per_gram, max_length=40, max_vocabulary=64,
            service=service,
        )
        legacy = OracleHexNgrams(
            chars_per_gram=chars_per_gram, max_length=40, max_vocabulary=64
        )
        fast.fit(adversarial_codes[:60])
        legacy.fit(adversarial_codes[:60])
        # Same grams, same ids, same frequency/lexicographic tie-break.
        assert fast.vocabulary_ == legacy.vocabulary_
        assert np.array_equal(
            fast.transform(adversarial_codes), legacy.transform(adversarial_codes)
        )

    def test_fast_matches_legacy_on_dataset(self, service, bytecodes):
        sample = bytecodes[:30]
        fast = HexNgramEncoder(max_length=48, service=service)
        legacy = OracleHexNgrams(max_length=48)
        assert np.array_equal(
            fast.fit_transform(sample), legacy.fit_transform(sample)
        )
        assert fast.vocabulary_ == legacy.vocabulary_

    def test_oversized_grams_rejected(self):
        # 8-byte grams would overflow the int64 code space the n-gram view
        # keys grams by; 7 bytes (14 hex characters) is the largest size.
        HexNgramEncoder(chars_per_gram=14)
        with pytest.raises(ValueError):
            HexNgramEncoder(chars_per_gram=16)
        with pytest.raises(ValueError):
            HexNgramEncoder(chars_per_gram=20)


class TestFrequencyImageEquivalence:
    def test_fast_matches_legacy_on_adversarial_codes(self, service, adversarial_codes):
        fast = FrequencyImageEncoder(image_size=8, service=service)
        legacy = OracleFrequencyImage(image_size=8)
        fast.fit(adversarial_codes[:50])
        legacy.fit(adversarial_codes[:50])
        assert fast._mnemonic_encoder.table_ == legacy._mnemonic_encoder.table_
        assert fast._operand_encoder.table_ == legacy._operand_encoder.table_
        assert fast._gas_encoder.table_ == legacy._gas_encoder.table_
        assert fast._scale == legacy._scale
        assert np.array_equal(
            fast.transform(adversarial_codes), legacy.transform(adversarial_codes)
        )

    def test_fast_matches_legacy_on_dataset(self, service, bytecodes):
        sample = bytecodes[:20]
        fast = FrequencyImageEncoder(image_size=6, service=service)
        legacy = OracleFrequencyImage(image_size=6)
        assert np.array_equal(
            fast.fit_transform(sample), legacy.fit_transform(sample)
        )

    def test_mixed_paths_share_tables(self, service, bytecodes):
        # Per-instruction lookups in the encoder's fitted tables must render
        # the encoder's own images: its LUTs are built from those tables.
        sample = bytecodes[:15]
        encoder = FrequencyImageEncoder(image_size=6, service=service).fit(sample)
        legacy = OracleFrequencyImage(image_size=6).use_tables(encoder)
        assert np.array_equal(encoder.transform(sample), legacy.transform(sample))


class TestSharedServiceSinglePass:
    def test_all_views_disassemble_each_unique_bytecode_once(self, bytecodes):
        sample = list(bytecodes[:40])
        sample += sample[:10]  # duplicates must not cost extra passes
        n_unique = len({normalize_bytecode(code) for code in sample})
        service = BatchFeatureService(cache_size=4 * len(sample))
        with use_service(service):
            tokenizer = OpcodeTokenizer(max_length=64)
            tokenizer.transform(sample)
            image = FrequencyImageEncoder(image_size=6)
            image.fit_transform(sample)
            histogram = OpcodeHistogramExtractor()
            histogram.fit_transform(sample)
            ngram = HexNgramEncoder(max_length=48)
            ngram.fit_transform(sample)
        # One bytes-level kernel pass per unique bytecode across all four
        # feature views: the tokenizer extracted the sequences, every other
        # view was served from the shared cache (histogram counts are binned
        # out of the cached sequences, n-grams never disassemble at all).
        assert service.kernel_passes == n_unique
        assert len(service) == n_unique
        # Misses are per-lookup (duplicates miss too on first sight), but the
        # deduplicated kernel only ever swept the unique codes.
        assert service.sequence_stats.misses == len(sample)
        assert service.stats.misses == 0  # every count lookup was a hit
        assert service.stats.hits > 0
        assert service.ngram_stats.lookups > 0

    def test_single_pass_holds_with_histogram_first(self, bytecodes):
        # The invariant must not depend on which view asks first: a cached
        # counts miss extracts the sequence and bins the counts out of it,
        # so the later sequence consumers are pure cache hits.
        sample = list(bytecodes[:30])
        n_unique = len({normalize_bytecode(code) for code in sample})
        service = BatchFeatureService()
        with use_service(service):
            OpcodeHistogramExtractor().fit_transform(sample)
            assert service.kernel_passes == n_unique
            OpcodeTokenizer(max_length=64).transform(sample)
            FrequencyImageEncoder(image_size=6).fit_transform(sample)
        assert service.kernel_passes == n_unique
        assert service.sequence_stats.misses == 0

    def test_histogram_fast_still_matches_legacy_under_shared_service(self, bytecodes):
        sample = bytecodes[:25]
        service = BatchFeatureService()
        service.sequences(sample)  # pre-warm sequences only
        fast = OpcodeHistogramExtractor(service=service)
        legacy = OracleHistogram()
        assert np.array_equal(fast.fit_transform(sample), legacy.fit_transform(sample))
        assert fast.feature_names() == legacy.feature_names()
