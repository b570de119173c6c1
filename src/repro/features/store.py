"""Persistent per-corpus feature store wired into the experiment drivers.

:class:`~repro.features.batch.BatchFeatureService` can already round-trip
its multi-view cache through one ``.npz`` file, but on its own every caller
has to invent a file-naming scheme, decide when a file belongs to which
corpus, and remember to save.  :class:`FeatureStore` owns those decisions so
the experiment drivers can opt in with a single ``Scale.feature_cache_dir``
setting and get warm starts for free.

Store layout
------------

* **One file per corpus fingerprint** — a store directory holds
  ``features-<fingerprint>.npz`` files, where the fingerprint
  (:func:`corpus_fingerprint`) is a blake2b digest over the *sorted set of
  content hashes* of the normalised bytecodes plus the cache format
  version.  The fingerprint is therefore order-insensitive and
  duplicate-insensitive (proxy clones collapse), so any experiment run over
  the same contract set — however shuffled or re-balanced in order — reuses
  the same file.
* **Invalidation** — changing the corpus contents changes the fingerprint
  (the old file is simply never looked up again); bumping
  :data:`~repro.features.batch.CACHE_FILE_VERSION` changes every
  fingerprint *and* makes :meth:`BatchFeatureService.load` reject old files
  as stale, so a format change can never serve wrong bytes.  A corrupt file
  is treated as a cold start and overwritten at session end.
* **Sessions** — :meth:`FeatureStore.session` loads-or-creates the file for
  a corpus, installs a right-sized service as the process-wide default (so
  every detector inside the ``with`` block extracts through it), optionally
  pre-warms the sequence + count views, and saves back on exit whenever the
  session is dirty — new kernel passes *or* new (kernel-free) n-gram views,
  so an SCSGuard run after a counts-only warm-up persists its n-grams too.
  The yielded :class:`StoreSession` carries the telemetry the warm-start
  guarantee is asserted on: ``session.kernel_passes == 0`` on a fully warm
  run, ``session.hit_rate`` exposes the capacity signal the ROADMAP asks
  for, and ``session.store`` reaches the store-level file hit/miss
  counters.

The executor backend of the underlying service (``"thread"`` or
``"process"``) and its worker count are store construction knobs, threaded
from ``Scale.feature_executor`` / ``Scale.feature_workers`` by
:func:`feature_session` — the helper every experiment driver calls.

Two disk planes compose with the ``.npz`` warm starts:

* **Corpus blobs** (``Scale.corpus_blob_dir`` → ``blob_dir``): sessions
  build-or-open the memmap-backed ``corpus-<fingerprint>.blob``
  (:class:`~repro.features.corpus.CorpusBlob`) and attach it to the
  service, so cache misses are decoded straight from the memmap instead of
  staged copies — fig2/fig3/table2/scalability build the blob once and
  every later run extracts from it.
* **Eviction spill** (automatic under ``<cache_dir>/spill``): session
  services write evicted entries' persistable views to content-addressed
  spill files and read them back on demand, so LRU pressure degrades to a
  disk read instead of a recompute.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..evm.disassembler import BytecodeLike, normalize_bytecode
from .batch import (
    CACHE_FILE_VERSION,
    DEFAULT_CHUNK_SIZE,
    BatchFeatureService,
    CacheLoadError,
    content_key,
    use_service,
)
from ..obs.log import get_logger
from .corpus import CorpusBlob, CorpusBlobError

logger = get_logger(__name__)

#: File-name prefix of every store file (``features-<fingerprint>.npz``).
STORE_FILE_PREFIX = "features-"


def _fingerprint_normalized(codes: Sequence[bytes]) -> str:
    """Fingerprint of already-normalised codes (one hash pass, no copies)."""
    hashes = sorted({content_key(code) for code in codes})
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(CACHE_FILE_VERSION).encode("ascii"))
    digest.update(len(hashes).to_bytes(8, "little"))
    for item in hashes:
        digest.update(item)
    return digest.hexdigest()


def corpus_fingerprint(bytecodes: Sequence[BytecodeLike]) -> str:
    """Deterministic fingerprint of a corpus' bytecode *contents*.

    The digest covers the sorted set of per-bytecode content hashes, so it
    is insensitive to ordering and to duplicates (bit-identical proxy
    clones), and it folds in the cache format version so a layout bump
    invalidates every previously stored file.
    """
    return _fingerprint_normalized([normalize_bytecode(code) for code in bytecodes])


@dataclass
class StoreSession:
    """Telemetry of one :meth:`FeatureStore.session` (yielded to the caller).

    ``warm_start`` reports whether the session began from a valid store
    file; the counters below are *deltas over this session*, so a fully
    warm run shows ``kernel_passes == 0`` regardless of how much work the
    loaded statistics already carried.

    ``service`` is live only while the session is open.  At close the
    counters are snapshotted and the reference is dropped (set to ``None``)
    so the telemetry object :func:`last_session` keeps around does not pin
    the session's entire multi-view cache in memory after the experiment
    ends.
    """

    path: Optional[Path]
    fingerprint: str
    service: Optional[BatchFeatureService]
    store: "FeatureStore"
    warm_start: bool
    entries_loaded: int
    saved: bool = False
    #: The session's corpus blob (``None`` unless ``blob_dir`` is set).
    blob: Optional[CorpusBlob] = None
    _passes_start: int = 0
    _hits_start: int = 0
    _lookups_start: int = 0
    _ngram_misses_start: int = 0
    _analysis_misses_start: int = 0
    #: (kernel_passes, ngram_misses, analysis_misses, hits, lookups)
    #: frozen at close.
    _final: Optional[Tuple[int, int, int, int, int]] = None

    def _hits(self) -> int:
        service = self.service
        return (
            service.stats.hits + service.sequence_stats.hits + service.ngram_stats.hits
        )

    def _lookups(self) -> int:
        service = self.service
        return (
            service.stats.lookups
            + service.sequence_stats.lookups
            + service.ngram_stats.lookups
        )

    def _finalize(self) -> None:
        """Freeze the counters and release the live service reference."""
        if self._final is None:
            self._final = (
                self.kernel_passes, self.ngram_misses, self.analysis_misses,
                self.hits, self.lookups,
            )
            self.service = None

    @property
    def kernel_passes(self) -> int:
        """Bytecode kernel sweeps performed *during* this session."""
        if self._final is not None:
            return self._final[0]
        return self.service.kernel_passes - self._passes_start

    @property
    def ngram_misses(self) -> int:
        """N-gram views computed during this session.

        Tracked separately because building n-gram codes never runs a
        bytecode kernel (no disassembly), so it does not move
        ``kernel_passes`` — yet it is new cacheable work the session must
        persist.
        """
        if self._final is not None:
            return self._final[1]
        return self.service.ngram_stats.misses - self._ngram_misses_start

    @property
    def analysis_misses(self) -> int:
        """Analysis vectors computed during this session.

        Like n-grams, a CFG-metrics vector derived from an already-cached
        sequence runs no bytecode kernel, yet it is new persistable work:
        without tracking it, a warm session that only computed analysis
        views would skip its save and recompute them forever.
        """
        if self._final is not None:
            return self._final[2]
        return self.service.analysis_stats.misses - self._analysis_misses_start

    @property
    def dirty(self) -> bool:
        """True when the session produced views the store file lacks."""
        return (
            self.kernel_passes > 0
            or self.ngram_misses > 0
            or self.analysis_misses > 0
            or not self.warm_start
        )

    @property
    def hits(self) -> int:
        """Cache hits (all views) during this session."""
        if self._final is not None:
            return self._final[3]
        return self._hits() - self._hits_start

    @property
    def lookups(self) -> int:
        """Cache lookups (all views) during this session."""
        if self._final is not None:
            return self._final[4]
        return self._lookups() - self._lookups_start

    @property
    def hit_rate(self) -> float:
        """Fraction of this session's lookups served from cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


#: Most recently finished session (telemetry surface; ``None`` before any).
_last_session: Optional[StoreSession] = None


def last_session() -> Optional[StoreSession]:
    """The most recently completed :class:`StoreSession` in this process.

    The experiment drivers open their store sessions internally; this
    accessor is how callers (and the warm-start tests) observe whether the
    run they just made was warm and how many kernel passes it cost.
    """
    return _last_session


class FeatureStore:
    """Load-or-create persistent feature caches keyed by corpus fingerprint.

    Args:
        cache_dir: Directory holding the ``features-*.npz`` files (created
            on first save).  ``None`` disables file persistence — useful for
            blob-only stores (``blob_dir`` set) where the corpus plane is
            wanted without ``.npz`` warm starts.
        cache_size: Minimum entry capacity of session services; each session
            grows it to the corpus size so warming can never self-evict.
        max_workers: Worker-pool width of session services.
        chunk_size: Chunk size of session services.
        executor: Executor backend of session services (``"thread"`` or
            ``"process"``, see :class:`BatchFeatureService`).
        blob_dir: Optional directory of memmap corpus blobs.  When set, each
            session builds-or-opens ``corpus-<fingerprint>.blob`` there and
            attaches it to the service, so misses are decoded from its memmap.

    When ``cache_dir`` is set, session services also spill evicted entries
    to ``<cache_dir>/spill`` (content-addressed, shared across corpora), so
    LRU eviction degrades to a disk read instead of a recompute.

    ``file_hits`` / ``file_misses`` count sessions that started warm/cold —
    the store-level analogue of the service's per-entry hit rate.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]],
        cache_size: int = 4096,
        max_workers: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        executor: str = "thread",
        blob_dir: Optional[Union[str, Path]] = None,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache_size = cache_size
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.executor = executor
        self.blob_dir = Path(blob_dir) if blob_dir is not None else None
        self.file_hits = 0
        self.file_misses = 0

    def path_for(self, fingerprint: str) -> Optional[Path]:
        """The store file a corpus with ``fingerprint`` persists under.

        ``None`` when the store is blob-only (no ``cache_dir``).
        """
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{STORE_FILE_PREFIX}{fingerprint}.npz"

    @property
    def spill_dir(self) -> Optional[Path]:
        """Directory session services spill evicted entries to."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "spill"

    def _service_for(self, n_codes: int) -> BatchFeatureService:
        return BatchFeatureService(
            cache_size=max(self.cache_size, n_codes, 1),
            max_workers=self.max_workers,
            chunk_size=self.chunk_size,
            executor=self.executor,
            spill_dir=self.spill_dir,
        )

    def _blob_for(
        self, codes: Sequence[bytes], fingerprint: str
    ) -> Optional[CorpusBlob]:
        """Build-or-open the corpus blob of one session (best-effort).

        A blob that cannot be created (unwritable directory, corrupt beyond
        the rebuild :meth:`CorpusBlob.for_corpus` already performs) degrades
        to staging misses in memory rather than failing the experiment.
        """
        if self.blob_dir is None:
            return None
        try:
            return CorpusBlob.for_corpus(self.blob_dir, codes, fingerprint)
        except CorpusBlobError as exc:
            logger.warning("corpus blob unavailable, falling back: %s", exc)
            return None

    @contextmanager
    def session(
        self,
        bytecodes: Sequence[BytecodeLike],
        warm: bool = True,
        install_default: bool = True,
    ) -> Iterator[StoreSession]:
        """Open the store for one corpus: load, run, save back.

        Loads the corpus' store file into a fresh right-sized service when a
        valid one exists (a corrupt/stale file is a cold start, not an
        error), optionally pre-extracts the sequence + count views of every
        bytecode (cache lookups when warm), installs the service as the
        process-wide default for the ``with`` block, and saves the file on
        exit iff the session is *dirty* — it ran new kernel passes, computed
        new n-gram views, or the file did not exist.  The save also runs
        (best-effort) when the body raised, preserving partial progress, but
        a failing save never masks the body's exception.  The service's
        worker pool is released on exit either way.  Yields the
        :class:`StoreSession` telemetry object.
        """
        global _last_session
        codes: List[bytes] = [normalize_bytecode(code) for code in bytecodes]
        fingerprint = _fingerprint_normalized(codes)
        path = self.path_for(fingerprint)
        service = self._service_for(len(codes))
        blob = self._blob_for(codes, fingerprint)
        if blob is not None:
            service.attach_blob(blob)
        warm_start = False
        entries_loaded = 0
        if path is not None and path.exists():
            try:
                entries_loaded = service.load(path)
                warm_start = True
            except CacheLoadError:
                pass
        if warm_start:
            self.file_hits += 1
        else:
            self.file_misses += 1
        session = StoreSession(
            path=path,
            fingerprint=fingerprint,
            service=service,
            store=self,
            warm_start=warm_start,
            entries_loaded=entries_loaded,
            blob=blob,
            _passes_start=service.kernel_passes,
            _ngram_misses_start=service.ngram_stats.misses,
            _analysis_misses_start=service.analysis_stats.misses,
        )
        session._hits_start = session._hits()
        session._lookups_start = session._lookups()
        scope = use_service(service) if install_default else nullcontext()
        body_failed = False
        try:
            with scope:
                if warm:
                    service.sequences(codes)
                    service.count_matrix(codes)
                yield session
        except BaseException:
            body_failed = True
            raise
        finally:
            try:
                if path is not None and session.dirty:
                    size_before = path.stat().st_size if path.exists() else 0
                    service.save(path)
                    session.saved = True
                    size_after = path.stat().st_size
                    logger.info(
                        "feature store save %s: %d -> %d bytes (%+d; "
                        "%d kernel passes, %d ngram misses, %d analysis misses)",
                        path.name, size_before, size_after,
                        size_after - size_before, session.kernel_passes,
                        session.ngram_misses, session.analysis_misses,
                    )
                elif path is not None:
                    logger.debug(
                        "feature store save skipped (nothing new): %s", path.name
                    )
            except Exception:
                # The body's own outcome wins over a failed best-effort
                # save of partial progress.
                if not body_failed:
                    raise
            finally:
                service.close()
                # Snapshot counters and drop the cache reference, then
                # publish: last_session() must never pin a dead corpus'
                # feature arrays in memory.
                session._finalize()
                _last_session = session


@contextmanager
def feature_session(
    scale, bytecodes: Optional[Sequence[BytecodeLike]]
) -> Iterator[Optional[StoreSession]]:
    """The experiment drivers' store hook; a no-op unless configured.

    Yields ``None`` (and touches nothing) when ``scale`` is ``None``, sets
    neither ``feature_cache_dir`` nor ``corpus_blob_dir``, or the driver has
    no bytecodes to cache (Table I is registry-only).  Otherwise opens a
    :meth:`FeatureStore.session` built from the scale's feature knobs, so
    the driver's whole body runs against the persistent warm service —
    with ``corpus_blob_dir`` set, the session builds the corpus blob once
    and every extraction thereafter goes through the zero-copy span path.

    ``scale.fresh_service`` suppresses the session's pre-warm sweep: the
    MEM timing cells it exists for extract through their own cold per-cell
    services, so warming the session service would be pure wasted work —
    whatever those drivers do route through the session still persists.
    """
    cache_dir = getattr(scale, "feature_cache_dir", None) if scale else None
    blob_dir = getattr(scale, "corpus_blob_dir", None) if scale else None
    if (cache_dir is None and blob_dir is None) or bytecodes is None:
        yield None
        return
    store = FeatureStore(
        cache_dir,
        max_workers=getattr(scale, "feature_workers", None),
        executor=getattr(scale, "feature_executor", "thread"),
        blob_dir=blob_dir,
    )
    warm = not getattr(scale, "fresh_service", False)
    with store.session(bytecodes, warm=warm) as session:
        yield session
