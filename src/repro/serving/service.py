"""The request-facing scoring service (see the package docstring).

Implementation notes:

* The verdict cache stores *probabilities* keyed by the blake2b digest of
  the normalised bytecode — the same content hash the feature service keys
  its multi-view cache on — so verdict re-decisions under a new threshold
  are free and proxy clones share one entry.
* The micro-batcher runs one daemon worker thread, started lazily on the
  first submitted request.  Its flush callback scores all pending requests
  in a single vectorized ``predict_proba`` pass; request futures are
  resolved with per-request latencies measured from ingest (including the
  RPC fetch for address requests).
* All counters are guarded by one lock; snapshots (:meth:`ScoringService
  .stats`) are consistent within a single lock acquisition.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..evm.disassembler import BytecodeLike, normalize_bytecode
from ..features.batch import BatchFeatureService, content_key
from ..models.base import PhishingDetector
from ..obs import trace as obs_trace
from ..obs.bridge import feature_collector, service_collector, store_collector
from ..obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    get_default_registry,
)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one :class:`ScoringService` deployment.

    Args:
        max_batch: Flush the micro-batcher as soon as this many requests are
            pending (also the size cap of one flush).
        max_wait_ms: Flush when the oldest pending request has waited this
            long, even if the batch is not full.  ``0`` scores every
            request immediately (no batching delay).
        verdict_cache_size: Entry capacity of the content-hash verdict
            cache; ``0`` disables verdict caching.
        decision_threshold: Probability cutoff of the served verdicts;
            ``None`` adopts the detector's own ``decision_threshold``.
        latency_window: Number of most recent request latencies kept for
            the percentile telemetry.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    verdict_cache_size: int = 4096
    decision_threshold: Optional[float] = None
    latency_window: int = 2048

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.verdict_cache_size < 0:
            raise ValueError("verdict_cache_size must be >= 0")
        if self.latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        if self.decision_threshold is not None and not 0.0 <= self.decision_threshold <= 1.0:
            raise ValueError("decision_threshold must be in [0, 1]")


@dataclass(frozen=True)
class Verdict:
    """One scored request."""

    #: Phishing probability produced by the detector.
    probability: float
    #: ``probability >= threshold`` at decision time.
    is_phishing: bool
    #: The threshold the decision was taken at.
    threshold: float
    #: Whether the probability came from the verdict cache (no model pass).
    cached: bool
    #: End-to-end latency from ingest (including the RPC fetch, if any).
    latency_ms: float
    #: The screened address, when the request came in by address.
    address: Optional[str] = None


@dataclass(frozen=True)
class ServiceStats:
    """Telemetry snapshot of one :class:`ScoringService`.

    ``feature_hit_rate`` / ``feature_lookups`` / ``kernel_passes`` aggregate
    the underlying :class:`~repro.features.batch.BatchFeatureService` across
    all of its views (counts, sequences, n-grams, byte counts, images),
    as *deltas since the scoring service was created* — the hit rate is the
    ROADMAP's capacity signal, ``kernel_passes`` the complementary cost
    signal, and neither includes offline fit-time extraction that went
    through the same shared cache.  ``store_file_hits``/``store_file_misses``
    surface :class:`~repro.features.store.FeatureStore` warm/cold session
    counts when the service was built on top of a store (``None``
    otherwise).
    """

    requests: int
    verdict_hits: int
    verdict_misses: int
    verdict_hit_rate: float
    verdict_entries: int
    batches: int
    mean_batch_size: float
    max_batch_size: int
    feature_hit_rate: float
    feature_lookups: int
    kernel_passes: int
    latency_ms_p50: float
    latency_ms_p95: float
    latency_ms_p99: float
    store_file_hits: Optional[int] = None
    store_file_misses: Optional[int] = None


@dataclass
class _Pending:
    """One request waiting in the micro-batcher.

    ``start`` is the latency origin (request ingest, before any RPC fetch);
    ``enqueued`` is stamped when the request enters the batcher and drives
    the ``max_wait_ms`` aging deadline — keying the deadline off ``start``
    would make slow-fetch requests arrive pre-expired and flush alone.
    ``trace`` carries the submitter's active trace across the thread
    handoff into the batcher's worker (contextvars don't follow it).
    """

    start: float
    code: bytes
    key: bytes
    address: Optional[str]
    future: Future
    enqueued: float = field(default_factory=time.perf_counter)
    trace: Optional[obs_trace.Trace] = None


class _MicroBatcher:
    """Accumulate requests and flush them in bounded, aged batches."""

    def __init__(self, flush, max_batch: int, max_wait_s: float):
        self._flush = flush
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: List[_Pending] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def submit(self, item: _Pending) -> None:
        with self._wakeup:
            if self._closed:
                raise RuntimeError("cannot submit to a closed ScoringService")
            self._pending.append(item)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="scoring-microbatcher", daemon=True
                )
                self._thread.start()
            self._wakeup.notify()

    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._pending and not self._closed:
                    self._wakeup.wait()
                if not self._pending:
                    return  # closed and drained
                deadline = self._pending[0].enqueued + self.max_wait_s
                while len(self._pending) < self.max_batch and not self._closed:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(timeout=remaining)
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
                if len(batch) >= self.max_batch:
                    reason = "full"
                elif self._closed:
                    reason = "closed"
                else:
                    reason = "aged"
            try:
                self._flush(batch, reason)
            except BaseException as exc:  # propagate to the blocked callers
                for item in batch:
                    if not item.future.done():
                        item.future.set_exception(exc)

    def close(self) -> None:
        """Stop accepting requests; pending ones are flushed before exit."""
        with self._wakeup:
            self._closed = True
            thread = self._thread
            self._wakeup.notify()
        if thread is not None:
            thread.join()


class ScoringService:
    """Score contracts through a trained detector with serving-grade caching.

    Args:
        detector: A fitted :class:`~repro.models.base.PhishingDetector`.
        node: Optional JSON-RPC-shaped node (anything with ``get_code``,
            e.g. :class:`~repro.chain.rpc.SimulatedEthereumNode`) enabling
            :meth:`score_address`.
        config: Serving knobs; defaults to :class:`ServingConfig`'s
            defaults.
        feature_service: Optional dedicated feature service to inject into
            the detector (propagated into its extractors); by default the
            detector keeps extracting through the process-wide shared one.
        store: Optional :class:`~repro.features.store.FeatureStore` whose
            file hit/miss counters should appear in :meth:`stats`.
        warmup_path: Optional path of a persisted feature-cache file (a
            :class:`~repro.features.store.FeatureStore`
            ``features-<fingerprint>.npz``).  It is loaded *eviction-aware*
            (``load(grow=True)``: the cache capacity is raised to fit every
            stored entry) into the injected ``feature_service`` — or, when
            none was given, into a fresh dedicated service created for the
            purpose (loading replaces a service's cache wholesale, so the
            process-wide shared service is never clobbered implicitly).
            A warm-started service scores its first batch of known
            bytecodes with zero kernel passes.
        registry: :class:`~repro.obs.metrics.MetricsRegistry` receiving
            this service's metrics (flush counters, batch-size and
            model-pass histograms, plus scrape-time collectors bridging
            :meth:`stats` and the feature/store telemetry).  Defaults to
            the process-wide default registry; inject a fresh one for
            isolation, or a :class:`~repro.obs.metrics.NullRegistry` to
            disable accounting.

    Raises:
        CacheLoadError: if ``warmup_path`` is missing, corrupt, or stale —
            an explicitly requested warm start that silently degraded to a
            cold one would defeat its purpose.
    """

    def __init__(
        self,
        detector: PhishingDetector,
        node=None,
        config: Optional[ServingConfig] = None,
        feature_service: Optional[BatchFeatureService] = None,
        store=None,
        warmup_path=None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.detector = detector
        self.node = node
        self.config = config or ServingConfig()
        self.store = store
        self.registry = registry if registry is not None else get_default_registry()
        if warmup_path is not None:
            if feature_service is None:
                feature_service = BatchFeatureService()
            feature_service.load(warmup_path, grow=True)
        if feature_service is not None:
            detector.feature_service = feature_service
        threshold = self.config.decision_threshold
        self._threshold = (
            detector.decision_threshold if threshold is None else float(threshold)
        )
        self._lock = threading.Lock()
        self._verdicts: "OrderedDict[bytes, float]" = OrderedDict()
        self._verdict_hits = 0
        self._verdict_misses = 0
        self._requests = 0
        self._batches = 0
        self._batched_requests = 0
        self._max_batch_size = 0
        self._latencies: deque = deque(maxlen=self.config.latency_window)
        # Feature-cache telemetry is reported as *deltas over this service's
        # lifetime*: the shared process-wide service carries counters from
        # offline training, which would otherwise contaminate the serving
        # capacity signal.
        self._feature_baseline_service = self.detector.feature_service
        self._feature_baseline = self._feature_counters(self._feature_baseline_service)
        self._batcher = _MicroBatcher(
            self._flush_batch, self.config.max_batch, self.config.max_wait_ms / 1000.0
        )
        self._flushes = self.registry.counter(
            "repro_serving_flushes_total",
            "Micro-batch flushes by trigger.",
            ("reason",),
        )
        self._batch_size_hist = self.registry.histogram(
            "repro_serving_batch_size",
            "Requests per micro-batch flush.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._model_pass_hist = self.registry.histogram(
            "repro_serving_model_pass_seconds",
            "Wall time of one vectorized predict_proba pass.",
        )
        self.registry.register_collector("serving", service_collector(self))
        self.registry.register_collector(
            "features", feature_collector(lambda: self.feature_service)
        )
        if store is not None:
            self.registry.register_collector("features_store", store_collector(store))

    @staticmethod
    def _feature_counters(service: BatchFeatureService):
        aggregate = service.aggregate_stats()
        return aggregate.hits, aggregate.misses, service.kernel_passes

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def feature_service(self) -> BatchFeatureService:
        """The feature service the wrapped detector currently resolves."""
        return self.detector.feature_service

    @property
    def decision_threshold(self) -> float:
        """Probability cutoff applied to served verdicts (mutable at runtime).

        Verdicts are cached as probabilities, so re-thresholding never
        invalidates the verdict cache.
        """
        return self._threshold

    @decision_threshold.setter
    def decision_threshold(self, threshold: float) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("decision_threshold must be in [0, 1]")
        self._threshold = float(threshold)

    # ------------------------------------------------------------------
    # Verdict cache
    # ------------------------------------------------------------------

    @staticmethod
    def _key(code: bytes) -> bytes:
        # The same content hash the feature service keys its views on.
        return content_key(code)

    def _cached_probability(self, key: bytes) -> Optional[float]:
        """Look up (and account) one verdict-cache entry."""
        with self._lock:
            probability = self._verdicts.get(key)
            if probability is None:
                self._verdict_misses += 1
                return None
            self._verdicts.move_to_end(key)
            self._verdict_hits += 1
            return probability

    def _store_probability(self, key: bytes, probability: float) -> None:
        if self.config.verdict_cache_size == 0:
            return
        with self._lock:
            self._verdicts[key] = probability
            self._verdicts.move_to_end(key)
            while len(self._verdicts) > self.config.verdict_cache_size:
                self._verdicts.popitem(last=False)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _verdict(
        self,
        probability: float,
        cached: bool,
        start: float,
        address: Optional[str],
    ) -> Verdict:
        latency_ms = (time.perf_counter() - start) * 1000.0
        threshold = self._threshold
        with self._lock:
            self._requests += 1
            self._latencies.append(latency_ms)
        return Verdict(
            probability=float(probability),
            is_phishing=bool(probability >= threshold),
            threshold=threshold,
            cached=cached,
            latency_ms=latency_ms,
            address=address,
        )

    def _predict_unique(
        self, codes: Sequence[bytes], keys: Sequence[bytes]
    ) -> "OrderedDict[bytes, float]":
        """One vectorized model pass over deduplicated codes; fills the cache."""
        unique: "OrderedDict[bytes, bytes]" = OrderedDict()
        for code, key in zip(codes, keys):
            unique.setdefault(key, code)
        pass_start = time.perf_counter()
        probabilities = self.detector.predict_proba(list(unique.values()))[:, 1]
        pass_end = time.perf_counter()
        obs_trace.record_span("model", pass_start, pass_end)
        self._model_pass_hist.observe(pass_end - pass_start)
        with self._lock:
            self._batches += 1
            self._batched_requests += len(unique)
            self._max_batch_size = max(self._max_batch_size, len(unique))
        scored: "OrderedDict[bytes, float]" = OrderedDict()
        for key, probability in zip(unique, probabilities):
            probability = float(probability)
            self._store_probability(key, probability)
            scored[key] = probability
        return scored

    def _flush_batch(self, batch: List[_Pending], reason: str = "full") -> None:
        """Micro-batcher callback: score one flush in a single model pass."""
        flush_start = time.perf_counter()
        self._flushes.inc(reason=reason)
        self._batch_size_hist.observe(len(batch))
        # Transition every future to RUNNING first: a caller that gave up
        # (the gateway cancels timed-out requests) is dropped from
        # resolution here, atomically — resolving a cancelled future would
        # raise mid-flush and poison its batch siblings.  The abandoned
        # codes are still scored below so the probability lands in the
        # verdict cache and a retry is a pure cache hit.
        live = [item for item in batch if item.future.set_running_or_notify_cancel()]
        # Close out the queueing stage per request before the shared work.
        for item in live:
            if item.trace is not None:
                item.trace.record("batch", item.enqueued, flush_start)
        # An earlier flush may have scored a key between submit and now;
        # snapshot those probabilities under the lock so eviction between
        # check and read cannot lose them.
        with self._lock:
            filled = {
                item.key: self._verdicts[item.key]
                for item in batch
                if item.key in self._verdicts
            }
        missing = [item for item in batch if item.key not in filled]
        # The model/feature/kernel spans of this single shared pass belong
        # to every live request riding it: activate a fan-out recorder over
        # their captured traces for the duration of the pass.
        recorder = obs_trace.fan_out(
            [item.trace for item in live if item.key not in filled]
        )
        if missing:
            with obs_trace.activate(recorder):
                scored = self._predict_unique(
                    [item.code for item in missing], [item.key for item in missing]
                )
        else:
            scored = {}
        for item in live:
            probability = scored.get(item.key)
            cached = probability is None
            if cached:
                probability = filled[item.key]
                # The request missed the verdict cache at submit time but an
                # earlier flush filled it in flight; reclassify so cached
                # verdicts and hit counters agree.
                with self._lock:
                    self._verdict_misses -= 1
                    self._verdict_hits += 1
            item.future.set_result(
                self._verdict(probability, cached, item.start, item.address)
            )

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------

    def _submit(
        self, bytecode: BytecodeLike, address: Optional[str], start: float
    ) -> "Future[Verdict]":
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        future: "Future[Verdict]" = Future()
        probability = self._cached_probability(key)
        if probability is not None:
            future.set_result(self._verdict(probability, True, start, address))
            return future
        recorder = obs_trace.current()
        self._batcher.submit(
            _Pending(
                start=start,
                code=code,
                key=key,
                address=address,
                future=future,
                trace=recorder if isinstance(recorder, obs_trace.Trace) else None,
            )
        )
        return future

    def submit(self, bytecode: BytecodeLike) -> "Future[Verdict]":
        """Enqueue one bytecode; the future resolves after the next flush.

        A verdict-cache hit resolves immediately without entering the
        micro-batcher.
        """
        return self._submit(bytecode, None, time.perf_counter())

    def score(self, bytecode: BytecodeLike) -> Verdict:
        """Blocking single-request scoring (``submit().result()``)."""
        return self.submit(bytecode).result()

    def score_address(self, address: str) -> Verdict:
        """Fetch ``address``'s runtime bytecode from the node and score it.

        The reported latency covers the RPC fetch plus scoring — the
        end-to-end time a wallet user would wait.
        """
        if self.node is None:
            raise RuntimeError("ScoringService was built without a node")
        start = time.perf_counter()
        code = self.node.get_code(address)
        return self._submit(code, address, start).result()

    def score_batch(
        self,
        bytecodes: Sequence[BytecodeLike],
        addresses: Optional[Sequence[Optional[str]]] = None,
    ) -> List[Verdict]:
        """Synchronous bulk path: one vectorized pass, no batching delay."""
        start = time.perf_counter()
        if addresses is None:
            addresses = [None] * len(bytecodes)
        codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
        keys = [self._key(code) for code in codes]
        cached = [self._cached_probability(key) for key in keys]
        pending = [i for i, probability in enumerate(cached) if probability is None]
        scored = (
            self._predict_unique(
                [codes[i] for i in pending], [keys[i] for i in pending]
            )
            if pending
            else {}
        )
        verdicts = []
        for key, probability, address in zip(keys, cached, addresses):
            hit = probability is not None
            verdicts.append(
                self._verdict(
                    probability if hit else scored[key], hit, start, address
                )
            )
        return verdicts

    # ------------------------------------------------------------------
    # Telemetry / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Consistent snapshot of the serving telemetry.

        Feature-cache numbers are deltas since this service first observed
        its feature service (so offline fit-time extraction through the
        shared cache does not masquerade as serving traffic); if the
        detector's service is swapped mid-flight, the baseline resets and
        deltas restart from the swap.
        """
        feature_service = self.feature_service
        if feature_service is not self._feature_baseline_service:
            self._feature_baseline_service = feature_service
            self._feature_baseline = (0, 0, 0)
        hits, misses, kernel_passes = self._feature_counters(feature_service)
        base_hits, base_misses, base_passes = self._feature_baseline
        feature_hits = hits - base_hits
        feature_lookups = feature_hits + (misses - base_misses)
        kernel_passes -= base_passes
        with self._lock:
            latencies = np.array(self._latencies, dtype=np.float64)
            p50, p95, p99 = (
                np.percentile(latencies, [50.0, 95.0, 99.0])
                if latencies.size
                else (0.0, 0.0, 0.0)
            )
            lookups = self._verdict_hits + self._verdict_misses
            return ServiceStats(
                requests=self._requests,
                verdict_hits=self._verdict_hits,
                verdict_misses=self._verdict_misses,
                verdict_hit_rate=self._verdict_hits / lookups if lookups else 0.0,
                verdict_entries=len(self._verdicts),
                batches=self._batches,
                mean_batch_size=(
                    self._batched_requests / self._batches if self._batches else 0.0
                ),
                max_batch_size=self._max_batch_size,
                feature_hit_rate=feature_hits / feature_lookups if feature_lookups else 0.0,
                feature_lookups=feature_lookups,
                kernel_passes=kernel_passes,
                latency_ms_p50=float(p50),
                latency_ms_p95=float(p95),
                latency_ms_p99=float(p99),
                store_file_hits=getattr(self.store, "file_hits", None),
                store_file_misses=getattr(self.store, "file_misses", None),
            )

    def close(self) -> None:
        """Drain and stop the micro-batcher (idempotent)."""
        self._batcher.close()

    def __enter__(self) -> "ScoringService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
