"""Tests for the request-facing scoring subsystem (``repro.serving``).

Covers the three cache layers (verdict cache over the feature cache over
the kernels), the micro-batcher, the configurable decision threshold (both
the serving knob and the detector-level satellite), address ingest through
the simulated JSON-RPC node, and the :class:`ServiceStats` telemetry
surface the ROADMAP asks for.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chain.rpc import SimulatedEthereumNode
from repro.features.batch import BatchFeatureService
from repro.features.store import FeatureStore
from repro.models.hsc import make_random_forest_hsc
from repro.serving import ScoringService, ServiceStats, ServingConfig, Verdict


class CountingDetector:
    """Wrap a fitted detector, counting vectorized ``predict_proba`` passes."""

    def __init__(self, detector):
        self._detector = detector
        self.calls = 0
        self.rows_scored = 0

    def __getattr__(self, name):
        return getattr(self._detector, name)

    def predict_proba(self, bytecodes):
        self.calls += 1
        self.rows_scored += len(bytecodes)
        return self._detector.predict_proba(bytecodes)


@pytest.fixture(scope="module")
def module_service():
    return BatchFeatureService()


@pytest.fixture(scope="module")
def fitted_detector(dataset, module_service):
    detector = make_random_forest_hsc(seed=3)
    detector.feature_service = module_service
    detector.fit(dataset.bytecodes, dataset.labels)
    return detector


@pytest.fixture()
def detector(fitted_detector):
    return CountingDetector(fitted_detector)


@pytest.fixture()
def codes(dataset):
    return dataset.bytecodes[:16]


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.max_batch >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_ms": -1.0},
            {"verdict_cache_size": -1},
            {"latency_window": 0},
            {"decision_threshold": 1.5},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_default_config_adopts_detector_threshold(self, detector):
        # ServingConfig.decision_threshold defaults to None, so a tuned
        # detector.decision_threshold is not silently overridden by a fixed
        # serving default.
        config = ServingConfig()
        assert config.decision_threshold is None
        detector.decision_threshold = 0.7
        try:
            with ScoringService(detector, config=config) as service:
                assert service.decision_threshold == 0.7
        finally:
            detector.decision_threshold = 0.5


class TestScoreBatch:
    def test_probabilities_match_direct_detector(self, detector, codes):
        expected = detector.predict_proba(codes)[:, 1]
        with ScoringService(detector) as service:
            verdicts = service.score_batch(codes)
        assert [v.probability for v in verdicts] == pytest.approx(list(expected), abs=0)

    def test_second_pass_served_from_verdict_cache(self, detector, codes):
        with ScoringService(detector) as service:
            service.score_batch(codes)
            calls_after_first = detector.calls
            verdicts = service.score_batch(codes)
            assert detector.calls == calls_after_first
            assert all(v.cached for v in verdicts)
            stats = service.stats()
        assert stats.verdict_hits == len(codes)

    def test_duplicates_deduplicated_within_one_pass(self, detector, codes):
        duplicated = list(codes) + list(codes)
        with ScoringService(detector) as service:
            verdicts = service.score_batch(duplicated)
        assert detector.rows_scored == len(codes)  # one model row per unique
        first, second = verdicts[: len(codes)], verdicts[len(codes):]
        assert [v.probability for v in first] == [v.probability for v in second]

    def test_empty_batch(self, detector):
        with ScoringService(detector) as service:
            assert service.score_batch([]) == []


class TestDecisionThreshold:
    def test_detector_predict_honours_attribute(self, fitted_detector, codes):
        probabilities = fitted_detector.predict_proba(codes)[:, 1]
        fitted_detector.decision_threshold = 0.9
        try:
            predictions = fitted_detector.predict(codes)
            assert np.array_equal(predictions, (probabilities >= 0.9).astype(int))
        finally:
            fitted_detector.decision_threshold = 0.5
        assert np.array_equal(
            fitted_detector.predict(codes), (probabilities >= 0.5).astype(int)
        )

    def test_service_threshold_defaults_to_detector(self, detector):
        with ScoringService(detector) as service:
            assert service.decision_threshold == detector.decision_threshold

    def test_config_threshold_overrides_detector(self, detector):
        config = ServingConfig(decision_threshold=0.9)
        with ScoringService(detector, config=config) as service:
            assert service.decision_threshold == 0.9

    def test_rethresholding_redecides_without_rescoring(self, detector, codes):
        with ScoringService(detector) as service:
            service.score_batch(codes)
            calls = detector.calls
            service.decision_threshold = 0.0
            verdicts = service.score_batch(codes)
            assert detector.calls == calls
            assert all(v.is_phishing for v in verdicts)
            assert all(v.threshold == 0.0 for v in verdicts)
            service.decision_threshold = 1.0
            verdicts = service.score_batch(codes)
            assert not any(v.probability < 1.0 and v.is_phishing for v in verdicts)

    def test_invalid_threshold_rejected(self, detector):
        with ScoringService(detector) as service:
            with pytest.raises(ValueError):
                service.decision_threshold = -0.1


class TestMicroBatching:
    def test_concurrent_submissions_coalesce(self, detector, codes):
        config = ServingConfig(max_batch=8, max_wait_ms=20.0)
        with ScoringService(detector, config=config) as service:
            expected = {
                bytes(code): probability
                for code, probability in zip(
                    codes, detector.predict_proba(codes)[:, 1]
                )
            }
            calls_before = detector.calls
            with ThreadPoolExecutor(max_workers=16) as pool:
                verdicts = list(pool.map(service.score, codes))
            stats = service.stats()
        for code, verdict in zip(codes, verdicts):
            assert verdict.probability == expected[bytes(code)]
        # Far fewer vectorized passes than requests, each bounded by max_batch.
        assert detector.calls - calls_before < len(codes)
        assert stats.max_batch_size <= 8
        assert stats.batches >= 1
        assert stats.requests == len(codes)

    def test_submit_future_resolves(self, detector, codes):
        with ScoringService(detector) as service:
            future = service.submit(codes[0])
            verdict = future.result(timeout=5)
            assert isinstance(verdict, Verdict)
            assert not verdict.cached
            assert service.submit(codes[0]).result(timeout=5).cached

    def test_flush_on_max_wait_even_when_batch_not_full(self, detector, codes):
        config = ServingConfig(max_batch=1000, max_wait_ms=5.0)
        with ScoringService(detector, config=config) as service:
            verdict = service.score(codes[0])
            assert verdict.latency_ms >= 5.0  # waited out the batching window

    def test_submit_after_close_raises(self, detector, codes):
        service = ScoringService(detector)
        service.score(codes[0])
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(codes[1])

    def test_close_is_idempotent(self, detector):
        service = ScoringService(detector)
        service.close()
        service.close()

    def test_model_failure_propagates_to_caller(self, fitted_detector, codes):
        class ExplodingDetector(CountingDetector):
            def predict_proba(self, bytecodes):
                raise RuntimeError("model crashed")

        with ScoringService(ExplodingDetector(fitted_detector)) as service:
            with pytest.raises(RuntimeError, match="model crashed"):
                service.score(codes[0])


class TestAddressIngest:
    def test_score_address_fetches_and_scores(self, detector, corpus):
        node = SimulatedEthereumNode.from_records(corpus.records)
        record = corpus.records[0]
        with ScoringService(detector, node=node) as service:
            verdict = service.score_address(record.address)
            assert verdict.address == record.address
            direct = detector.predict_proba([record.bytecode])[0, 1]
            assert verdict.probability == float(direct)
            # Proxy-clone economics: a second screening of the same address
            # is a pure verdict-cache hit, no RPC-side model work.
            assert service.score_address(record.address).cached

    def test_score_address_without_node_raises(self, detector):
        with ScoringService(detector) as service:
            with pytest.raises(RuntimeError, match="without a node"):
                service.score_address("0x" + "11" * 20)


class TestTelemetry:
    def test_stats_expose_feature_cache_and_latencies(self, detector, codes):
        with ScoringService(detector) as service:
            service.score_batch(codes)
            service.score_batch(codes)
            stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.requests == 2 * len(codes)
        assert stats.verdict_hit_rate == 0.5
        assert stats.verdict_entries == len({bytes(code) for code in codes})
        # The detector was fitted through the same service, so serving over
        # fit-time contracts is fully warm — and the telemetry reports
        # *serving-lifetime deltas*, not the training traffic: every lookup
        # hits, and zero kernel passes are attributed to serving.
        assert stats.feature_hit_rate == 1.0
        assert stats.feature_lookups > 0
        assert stats.kernel_passes == 0
        assert stats.latency_ms_p50 > 0.0
        assert stats.latency_ms_p95 >= stats.latency_ms_p50
        assert stats.latency_ms_p99 >= stats.latency_ms_p95
        assert stats.store_file_hits is None

    def test_stats_surface_store_counters(self, detector, tmp_path):
        store = FeatureStore(tmp_path)
        with ScoringService(detector, store=store) as service:
            stats = service.stats()
        assert stats.store_file_hits == 0
        assert stats.store_file_misses == 0

    def test_verdict_cache_disabled(self, detector, codes):
        config = ServingConfig(verdict_cache_size=0)
        with ScoringService(detector, config=config) as service:
            service.score_batch(codes)
            verdicts = service.score_batch(codes)
            stats = service.stats()
        assert not any(v.cached for v in verdicts)
        assert stats.verdict_hits == 0
        assert stats.verdict_entries == 0

    def test_verdict_cache_evicts_lru(self, detector, codes):
        config = ServingConfig(verdict_cache_size=4)
        with ScoringService(detector, config=config) as service:
            service.score_batch(codes)
            stats = service.stats()
        assert stats.verdict_entries <= 4

    def test_injected_feature_service_reaches_detector(
        self, fitted_detector, module_service, codes
    ):
        dedicated = BatchFeatureService()
        try:
            with ScoringService(fitted_detector, feature_service=dedicated) as service:
                service.score_batch(codes)
                assert service.feature_service is dedicated
                # The injection propagated into the detector's extractor, and
                # the scored batch resolved its features through it.
                assert fitted_detector.extractor.service is dedicated
                assert dedicated.aggregate_stats().lookups > 0
        finally:
            fitted_detector.feature_service = module_service


class TestWarmStart:
    """Eviction-aware feature-cache warm-up from a ``FeatureStore`` file."""

    @pytest.fixture()
    def store_path(self, dataset, tmp_path):
        """A persisted feature-cache file covering the whole dataset."""
        store = FeatureStore(tmp_path / "store")
        with store.session(dataset.bytecodes, install_default=False) as session:
            pass  # the pre-warm sweep inside the session fills both views
        assert session.saved
        return session.path

    @pytest.fixture()
    def cold_detector(self, dataset, module_service):
        """A fitted detector whose feature service holds nothing yet."""
        detector = make_random_forest_hsc(seed=3)
        detector.feature_service = module_service  # warm fit, cold serving
        detector.fit(dataset.bytecodes, dataset.labels)
        return detector

    def test_warm_start_scores_first_batch_without_kernels(
        self, cold_detector, dataset, store_path
    ):
        with ScoringService(cold_detector, warmup_path=store_path) as service:
            verdicts = service.score_batch(dataset.bytecodes)
            stats = service.stats()
        assert len(verdicts) == len(dataset.bytecodes)
        # The first batch the service ever scored ran zero bytecode sweeps:
        # every feature lookup was served from the pre-populated cache.
        assert stats.kernel_passes == 0
        assert stats.feature_hit_rate == 1.0
        assert stats.feature_lookups > 0

    def test_warmup_grows_dedicated_cache_to_fit_file(
        self, cold_detector, dataset, store_path
    ):
        tiny = BatchFeatureService(cache_size=4)
        with ScoringService(
            cold_detector, feature_service=tiny, warmup_path=store_path
        ) as service:
            assert service.feature_service is tiny
            # Eviction-aware: the capacity grew to fit every stored entry
            # instead of silently dropping all but 4 of them.
            assert tiny.cache_size == len(tiny)
            assert len(tiny) > 4
            service.score_batch(dataset.bytecodes)
            assert service.stats().kernel_passes == 0

    def test_warmup_without_explicit_service_is_dedicated(
        self, cold_detector, module_service, store_path
    ):
        from repro.features.batch import get_default_service

        with ScoringService(cold_detector, warmup_path=store_path) as service:
            # Loading replaces a cache wholesale, so the warm-up must never
            # implicitly clobber the process-wide shared service.
            assert service.feature_service is not get_default_service()
            assert service.feature_service is not module_service
            assert len(service.feature_service) > 0

    def test_warmup_missing_file_raises(self, cold_detector, tmp_path):
        from repro.features.batch import CacheLoadError

        with pytest.raises(CacheLoadError):
            ScoringService(cold_detector, warmup_path=tmp_path / "absent.npz")
