"""Tests for the batch feature-extraction service (cache + workers + projection)."""

import numpy as np
import pytest

from repro.evm.fastcount import count_opcodes
from repro.features.batch import (
    BatchFeatureService,
    VocabularyProjection,
    get_default_service,
    set_default_service,
    use_service,
)
from repro.features.histogram import (
    OpcodeHistogramExtractor,
    opcode_usage_distribution,
)

from oracles import OracleHistogram, OracleR2D2


def make_codes(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8).tobytes()
        for _ in range(n)
    ]


class TestCacheBehaviour:
    def test_hit_miss_accounting(self):
        service = BatchFeatureService(cache_size=16)
        codes = make_codes(4)
        service.count_matrix(codes)
        assert service.stats.misses == 4
        assert service.stats.hits == 0
        service.count_matrix(codes)
        assert service.stats.misses == 4
        assert service.stats.hits == 4
        assert service.stats.hit_rate == pytest.approx(0.5)

    def test_duplicates_counted_once(self):
        service = BatchFeatureService(cache_size=16)
        code = make_codes(1)[0]
        matrix = service.count_matrix([code, code, code])
        # Three lookups, but only one distinct bytecode is ever computed.
        assert service.stats.misses == 3
        assert len(service) == 1
        assert np.array_equal(matrix[0], matrix[1])
        assert np.array_equal(matrix[0], matrix[2])

    def test_eviction_at_capacity(self):
        service = BatchFeatureService(cache_size=3)
        codes = make_codes(5, seed=1)
        for code in codes:
            service.count_vector(code)
        assert len(service) == 3
        assert service.stats.evictions == 2
        # The least recently used entries (first two) were evicted.
        service.count_vector(codes[0])
        assert service.stats.misses == 6

    def test_lru_ordering(self):
        service = BatchFeatureService(cache_size=2)
        a, b, c = make_codes(3, seed=2)
        service.count_vector(a)
        service.count_vector(b)
        service.count_vector(a)  # refresh a; b is now the LRU entry
        service.count_vector(c)  # evicts b
        hits_before = service.stats.hits
        service.count_vector(a)
        assert service.stats.hits == hits_before + 1
        misses_before = service.stats.misses
        service.count_vector(b)
        assert service.stats.misses == misses_before + 1

    def test_per_view_eviction_accounting(self):
        service = BatchFeatureService(cache_size=2)
        a, b, c = make_codes(3, seed=11)
        service.sequence(a)
        service.ngram_codes(a, 3)
        service.count_vector(b)
        service.count_vector(c)  # evicts a, which held a sequence and n-grams
        assert service.stats.evictions == 1
        assert service.sequence_stats.evictions == 1
        assert service.ngram_stats.evictions == 1

    def test_cache_disabled(self):
        service = BatchFeatureService(cache_size=0)
        code = make_codes(1)[0]
        service.count_vector(code)
        service.count_vector(code)
        assert len(service) == 0
        assert service.stats.hits == 0
        assert service.stats.misses == 2

    def test_cached_vectors_are_read_only(self):
        service = BatchFeatureService()
        vector = service.count_vector(make_codes(1)[0])
        with pytest.raises(ValueError):
            vector[0] = 99

    def test_cache_clear(self):
        service = BatchFeatureService()
        service.count_matrix(make_codes(3))
        service.cache_clear()
        assert len(service) == 0
        assert service.stats.lookups == 0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            BatchFeatureService(cache_size=-1)
        with pytest.raises(ValueError):
            BatchFeatureService(chunk_size=0)

    def test_shrinking_capacity_evicts_immediately(self):
        service = BatchFeatureService(cache_size=8)
        service.count_matrix(make_codes(6, seed=7))
        service.cache_size = 2
        assert len(service) == 2
        assert service.stats.evictions == 4

    def test_disabling_capacity_clears_cache(self):
        service = BatchFeatureService(cache_size=8)
        service.count_matrix(make_codes(4, seed=8))
        service.cache_size = 0
        assert len(service) == 0
        assert service.stats.evictions == 4


class TestKernelPassAccountingWithoutCache:
    """``kernel_passes`` must count real disassembly work when caching is off.

    With ``cache_size=0`` every put is a no-op, so the old
    ``_record_pass(self._sequence_put(...))`` pattern silently under-counted
    on some paths and over-counted on none — the entry points disagreed.
    The rule now lives in one place (``_install_sequence``): a fresh kernel
    run counts exactly once whether or not its result could be cached.
    """

    def test_count_vector_counts_each_call(self):
        service = BatchFeatureService(cache_size=0)
        code = make_codes(1, seed=20)[0]
        service.count_vector(code)
        assert service.kernel_passes == 1
        for _ in range(2):
            service.count_vector(code)
        assert service.kernel_passes == 3

    def test_count_matrix_counts_unique_codes(self):
        service = BatchFeatureService(cache_size=0)
        a, b = make_codes(2, seed=21)
        service.count_matrix([a, b, a])
        assert service.kernel_passes == 2

    def test_sequences_counts_unique_codes(self):
        service = BatchFeatureService(cache_size=0)
        a, b = make_codes(2, seed=22)
        service.sequences([a, b, a])
        assert service.kernel_passes == 2

    def test_single_sequence_counts_each_call(self):
        service = BatchFeatureService(cache_size=0)
        code = make_codes(1, seed=23)[0]
        for _ in range(3):
            service.sequence(code)
        assert service.kernel_passes == 3

    def test_mixed_batch_entry_points_accumulate(self):
        service = BatchFeatureService(cache_size=0)
        a, b = make_codes(2, seed=24)
        service.count_matrix([a, b, a])
        service.sequences([a, b])
        assert service.kernel_passes == 4

    def test_analysis_matrix_counts_sequence_passes_only(self):
        # Analysis vectors run the CFG pass, not the sequence kernel; only
        # the sequence decode behind each unique code counts — and with the
        # cache off, the per-row pre-sweep must not double-charge it.
        service = BatchFeatureService(cache_size=0)
        a, b = make_codes(2, seed=25)
        service.analysis_matrix([a, b, a])
        assert service.kernel_passes == 3

    def test_cached_reference_counts_once_per_unique(self):
        service = BatchFeatureService(cache_size=8)
        a, b = make_codes(2, seed=24)
        service.count_matrix([a, b, a])
        service.sequences([a, b])
        assert service.kernel_passes == 2


class TestResultsInvariance:
    def test_identical_with_caching_on_and_off(self):
        codes = make_codes(30, seed=3)
        cached = BatchFeatureService(cache_size=64).count_matrix(codes)
        uncached = BatchFeatureService(cache_size=0).count_matrix(codes)
        assert np.array_equal(cached, uncached)

    def test_identical_workers_1_vs_n(self):
        codes = make_codes(60, seed=4)
        serial = BatchFeatureService(max_workers=1).count_matrix(codes)
        threaded = BatchFeatureService(max_workers=4, chunk_size=8).count_matrix(codes)
        assert np.array_equal(serial, threaded)

    def test_identical_across_sequential_chunk_sizes(self):
        codes = make_codes(25, seed=9)
        whole = BatchFeatureService(chunk_size=64).count_matrix(codes)
        sliced = BatchFeatureService(chunk_size=1).count_matrix(codes)
        assert np.array_equal(whole, sliced)

    def test_matches_single_kernel(self):
        codes = make_codes(10, seed=5)
        matrix = BatchFeatureService().count_matrix(codes)
        for row, code in enumerate(codes):
            assert np.array_equal(matrix[row], count_opcodes(code))

    def test_extractor_fast_path_matches_legacy(self, bytecodes):
        sample = bytecodes[:30]
        legacy = OracleHistogram()
        fast = OpcodeHistogramExtractor(service=BatchFeatureService())
        legacy_features = legacy.fit_transform(sample)
        fast_features = fast.fit_transform(sample)
        assert legacy.feature_names() == fast.feature_names()
        assert np.array_equal(legacy_features, fast_features)

    def test_extractor_fast_path_matches_legacy_normalized(self, bytecodes):
        sample = bytecodes[:20]
        legacy = OracleHistogram(normalize=True)
        fast = OpcodeHistogramExtractor(normalize=True, service=BatchFeatureService())
        assert np.array_equal(legacy.fit_transform(sample), fast.fit_transform(sample))


class TestVocabularyProjection:
    def test_unknown_mnemonics_project_to_zero(self):
        projection = VocabularyProjection.for_mnemonics(["PUSH1", "BOGUS", "STOP"])
        counts = np.zeros((1, 256), dtype=np.int64)
        counts[0, 0x60] = 3
        counts[0, 0x00] = 1
        features = projection.apply(counts)
        assert features.shape == (1, 3)
        assert features[0].tolist() == [3.0, 0.0, 1.0]

    def test_projection_dtype_is_float64(self):
        projection = VocabularyProjection.for_mnemonics(["ADD"])
        assert projection.apply(np.zeros((2, 256), dtype=np.int64)).dtype == np.float64


class TestDefaultService:
    def test_default_service_is_shared(self):
        set_default_service(None)
        assert get_default_service() is get_default_service()

    def test_use_service_swaps_and_restores(self):
        original = get_default_service()
        scoped = BatchFeatureService()
        with use_service(scoped) as active:
            assert active is scoped
            assert get_default_service() is scoped
        assert get_default_service() is original

    def test_extractor_resolves_default_lazily(self):
        scoped = BatchFeatureService()
        with use_service(scoped):
            extractor = OpcodeHistogramExtractor()
            assert extractor.service is scoped

    def test_explicit_empty_service_is_not_dropped(self):
        # An *empty* service is falsy (len() == 0), so ``service or default``
        # would silently reroute extraction to the process default; callers
        # passing a fresh service must still get their own cache populated.
        scoped = BatchFeatureService()
        assert len(scoped) == 0
        opcode_usage_distribution(make_codes(3, seed=6), ["PUSH1"], service=scoped)
        assert scoped.stats.lookups == 3
        assert len(scoped) > 0


class TestRawByteViews:
    """The memory-only byte-count and R2D2-image views (ESCORT / vision)."""

    def test_byte_counts_match_numpy_reference(self):
        service = BatchFeatureService()
        codes = make_codes(5, seed=11) + [b""]
        matrix = service.byte_count_matrix(codes)
        for row, code in enumerate(codes):
            expected = np.bincount(
                np.frombuffer(code, dtype=np.uint8), minlength=256
            ) if code else np.zeros(256, dtype=np.int64)
            assert np.array_equal(matrix[row], expected)
            assert int(matrix[row].sum()) == len(code)

    def test_byte_view_is_cached_and_accounted(self):
        service = BatchFeatureService()
        codes = make_codes(4, seed=12)
        service.byte_count_matrix(codes)
        assert service.byte_stats.misses == 4
        service.byte_count_matrix(codes)
        assert service.byte_stats.hits == 4
        # No disassembly happens for the byte view.
        assert service.kernel_passes == 0

    def test_r2d2_image_matches_encoder_legacy_path(self):
        from repro.features.image import R2D2ImageEncoder

        service = BatchFeatureService()
        codes = make_codes(4, seed=13) + [b""]
        fast = R2D2ImageEncoder(image_size=8, service=service)
        legacy = OracleR2D2(image_size=8)
        assert np.array_equal(fast.transform(codes), legacy.transform(codes))
        for code in codes:
            assert np.array_equal(fast.encode_one(code), legacy.encode_one(code))

    def test_image_view_cached_per_size(self):
        service = BatchFeatureService()
        code = make_codes(1, seed=14)[0]
        small = service.r2d2_image(code, 4)
        again = service.r2d2_image(code, 4)
        assert small is again  # served the cached (frozen) tensor
        large = service.r2d2_image(code, 8)
        assert large.shape == (3, 8, 8)
        assert service.image_stats.hits == 1
        assert service.image_stats.misses == 2

    def test_caching_disabled_still_serves_views(self):
        service = BatchFeatureService(cache_size=0)
        codes = make_codes(3, seed=15)
        reference = BatchFeatureService()
        assert np.array_equal(
            service.byte_count_matrix(codes), reference.byte_count_matrix(codes)
        )
        assert np.array_equal(
            service.r2d2_images(codes, 4), reference.r2d2_images(codes, 4)
        )
        assert len(service) == 0

    def test_aggregate_stats_sums_all_views(self):
        service = BatchFeatureService()
        codes = make_codes(3, seed=16)
        service.count_matrix(codes)
        service.byte_count_matrix(codes)
        service.r2d2_images(codes, 4)
        service.ngram_codes_batch(codes, 3)
        total = service.aggregate_stats()
        assert total.lookups == (
            service.stats.lookups
            + service.sequence_stats.lookups
            + service.ngram_stats.lookups
            + service.byte_stats.lookups
            + service.image_stats.lookups
        )
        assert total.hits == (
            service.stats.hits
            + service.sequence_stats.hits
            + service.ngram_stats.hits
            + service.byte_stats.hits
            + service.image_stats.hits
        )

    def test_cache_clear_resets_raw_byte_stats(self):
        service = BatchFeatureService()
        codes = make_codes(2, seed=17)
        service.byte_count_matrix(codes)
        service.r2d2_images(codes, 4)
        service.cache_clear()
        assert service.byte_stats.lookups == 0
        assert service.image_stats.lookups == 0

    def test_raw_views_survive_save_load_roundtrip(self, tmp_path):
        # Raw-byte views are memory-only: a reloaded cache simply recomputes
        # them; the persisted views (counts/sequences/ngrams) are unaffected.
        service = BatchFeatureService()
        codes = make_codes(3, seed=18)
        service.count_matrix(codes)
        images = service.r2d2_images(codes, 4)
        path = tmp_path / "cache.npz"
        service.save(path)
        fresh = BatchFeatureService()
        fresh.load(path)
        assert np.array_equal(fresh.count_matrix(codes), service.count_matrix(codes))
        assert fresh.kernel_passes == service.kernel_passes
        assert np.array_equal(fresh.r2d2_images(codes, 4), images)
