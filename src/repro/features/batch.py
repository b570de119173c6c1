"""Multi-view batch feature-extraction service around the buffer kernel.

PhishingHook's model zoo consumes the *same* disassembled opcode stream four
ways — opcode histograms (HSC), token-id sequences (GPT-2/T5), hex n-grams
(SCSGuard) and frequency-image pixel streams (ViT+Freq) — over a corpus that
is duplicate-heavy (EIP-1167 minimal proxy clones share bytecode bit-for-bit)
and re-extracted many times (cross-validation folds, data splits, model
families).  :class:`BatchFeatureService` exploits all of it:

* **one content-hash LRU, one view table** — every unique bytecode owns one
  cache entry keyed by a digest of its normalised bytes.  The entry holds
  up to six views (:data:`VIEWS`): the 256-bin opcode ``counts``, the
  ``sequences`` (:class:`~repro.evm.fastcount.OpcodeSequence` of opcode
  values + immediate widths), the ``ngrams`` (integer codes of
  non-overlapping byte groups, per group size), the raw-byte ``bytes``
  histogram (ESCORT's embedding input) and ``images`` (R2D2 tensors, per
  image size), and the ``analysis`` vector (the
  :data:`~repro.evm.cfg.CFG_METRIC_NAMES` static-analysis metrics).  One
  lookup and one install serve every view, keyed by ``(view, parameter)``,
  with one :class:`CacheStats` per view.  Counts binned out of a cached
  sequence are a hit, so one disassembly pass per unique bytecode feeds
  the histogram, tokenizer, frequency-image and static-analysis
  extractors; n-grams and the raw-byte views need no disassembly at all.
  :attr:`BatchFeatureService.kernel_passes` counts the kernel results
  installed into the cache (every kernel run when caching is disabled).
* **one miss path** — deduplicated misses become spans over a uint8
  buffer, decoded ``chunk_size`` codes per task by
  :func:`~repro.features.corpus.extract_spans` into
  :class:`~repro.evm.fastcount.PackedSequences`; counts come from
  :meth:`~repro.evm.fastcount.PackedSequences.counts`.  Misses an attached
  :class:`~repro.features.corpus.CorpusBlob` indexes are spans of its
  memmap; the rest are staged into one in-memory buffer per task.  Tasks
  run inline, on a thread pool (``executor="thread"``) or on a process
  pool (``executor="process"``, which ships ``(blob_path, spans)`` or
  ``(buffer, spans)`` and gets packed arrays back); every backend is
  bit-identical (pinned by the equivalence tests).
* **spill-on-evict caching** — with a spill directory configured, evicting
  an entry writes its persistable views to a content-addressed one-entry
  cache file instead of dropping them, and lookups fall back to that file
  before declaring a miss (``CacheStats.spills`` / ``spill_hits``) —
  eviction stops meaning recompute;
* **array-based vocabulary projection** — a precomputed 256 → column index
  map replaces a per-mnemonic dict loop;
* **on-disk persistence** — :meth:`BatchFeatureService.save` /
  :meth:`BatchFeatureService.load` round-trip the persistable views
  (counts, sequences, n-grams, analysis) and the statistics through one
  ``.npz`` file, so repeated experiment runs skip extraction entirely.
  Corrupt or incompatible-version files are rejected with
  :class:`CacheLoadError`; unwritable targets raise
  :class:`CacheWriteError`.  :class:`~repro.features.store.FeatureStore`
  layers corpus-fingerprint file resolution and load-or-create sessions on
  top, which is how the experiment drivers get persistent warm starts.

A process-wide default service (:func:`get_default_service`) lets every
detector share one cache, which is what makes the scalability experiment's
nine fit/score cells extract each contract only once.  The flip side is a
measurement-semantics change: timing rows captured against a warm shared
cache no longer include extraction cost.  ``Scale(fresh_service=True)``
makes the Model Evaluation Module run every timed cell against a fresh
cold service when end-to-end timings are needed (see
:mod:`repro.core.mem`; within-cell dedup of identical bytecodes remains).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, starmap
from pathlib import Path
from threading import Lock
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs import trace as obs_trace
from ..persist import open_validated_npz, write_npz
from ..evm.cfg import CFG_METRIC_NAMES, cfg_metrics_vector
from ..evm.disassembler import BytecodeLike, normalize_bytecode
from ..evm.fastcount import (
    UNDEFINED_VALUES,
    OpcodeSequence,
    PackedSequences,
    bins_for_mnemonics,
    pack_codes,
)
from .rawbytes import byte_count_vector, r2d2_image_from_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .corpus import CorpusBlob

#: Opcode byte values a folded sequence may legally contain (undefined
#: values are collapsed into INVALID by the kernel, so a persisted sequence
#: carrying one is tampered or corrupt).
_DEFINED_OPCODES: np.ndarray = np.ones(256, dtype=bool)
_DEFINED_OPCODES[UNDEFINED_VALUES] = False

#: Format tag of the persistent cache file (see :meth:`BatchFeatureService.save`).
CACHE_FILE_MAGIC = "phishinghook-feature-cache"
#: Bump when the on-disk layout changes; older files are rejected as stale.
CACHE_FILE_VERSION = 1

#: Format tag of per-entry spill files written on LRU eviction.  A spill
#: file is a one-entry cache file under this tag.
SPILL_FILE_MAGIC = "phishinghook-feature-spill"
#: Bump when the spill layout changes; stale files read as misses.
SPILL_FILE_VERSION = 2

#: Codes decoded per kernel task unless a service is told otherwise.
DEFAULT_CHUNK_SIZE = 64

#: Largest byte group the integer n-gram view supports (256**7 < 2**63).
MAX_NGRAM_BYTES = 7

#: Every cached view, in reporting order.
VIEWS = ("counts", "sequences", "ngrams", "bytes", "images", "analysis")
#: Views :meth:`BatchFeatureService.save` and spill files persist.  Byte
#: counts and images are cheap to recompute and stay memory-only.
PERSISTED_VIEWS = frozenset({"counts", "sequences", "ngrams", "analysis"})
#: Views whose hits, misses and evictions the cache file records, in order
#: (followed by ``kernel_passes``).
_FILE_STAT_VIEWS = ("counts", "sequences", "ngrams")

#: A view slot of a cache entry: ``(view, parameter)``, where the parameter
#: is the n-gram group size or the image size and 0 for the other views.
_Slot = Tuple[str, int]
_COUNTS: _Slot = ("counts", 0)
_SEQUENCES: _Slot = ("sequences", 0)
_BYTES: _Slot = ("bytes", 0)
_ANALYSIS: _Slot = ("analysis", 0)


def content_key(code: bytes) -> bytes:
    """16-byte blake2b digest keying every bytecode-derived cache.

    One definition shared by the multi-view feature cache, the corpus
    fingerprint and the serving layer's verdict cache, so "same content
    hash" is a structural guarantee rather than a coincidence of copies.
    """
    return hashlib.blake2b(code, digest_size=16).digest()


class CacheLoadError(RuntimeError):
    """A persistent cache file is corrupt, stale, or otherwise unreadable."""


class CacheWriteError(RuntimeError):
    """A persistent cache file could not be written (bad path, full disk)."""


#: Executor backends the kernel tasks of a :class:`BatchFeatureService` run on.
EXECUTOR_BACKENDS = ("thread", "process")


def _traced(name: str):
    """Record the wrapped call as a span of the active trace, if any.

    Untraced callers pay one ``ContextVar`` read (see
    :func:`repro.obs.trace.span`), which is what keeps the feature getters
    safe to instrument on the serving hot path.
    """

    def decorate(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            with obs_trace.span(name):
                return method(*args, **kwargs)

        return wrapper

    return decorate


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting of one :class:`BatchFeatureService` view.

    A lookup served from the cache counts as a hit even when it required a
    cheap derivation (a count vector binned out of a cached sequence); a miss
    means the bytecode had to go through a bytes-level kernel for this view.
    When a spill directory is configured, ``spills`` counts entries whose
    views were written to disk on eviction instead of dropped, and
    ``spill_hits`` counts lookups served by reloading a spilled entry —
    no kernel ran, so they count toward the hit rate, but they are kept
    distinct from in-memory ``hits`` because they paid a disk read.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    spill_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits + self.spill_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a kernel (0.0 when never queried)."""
        served = self.hits + self.spill_hits
        return served / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class VocabularyProjection:
    """Precomputed 256-bin → histogram-column index map for one vocabulary.

    ``columns[i]`` is the output column and ``bins[i]`` the opcode byte value
    of every vocabulary mnemonic that exists in the Shanghai registry;
    mnemonics outside the registry can never be counted and are dropped.
    """

    size: int
    columns: np.ndarray
    bins: np.ndarray

    @classmethod
    def for_mnemonics(cls, mnemonics: Sequence[str]) -> "VocabularyProjection":
        """Build the projection for an ordered mnemonic vocabulary."""
        bins = bins_for_mnemonics(mnemonics)
        known = np.flatnonzero(bins >= 0)
        return cls(size=len(mnemonics), columns=known, bins=bins[known])

    def apply(self, count_matrix: np.ndarray) -> np.ndarray:
        """Project an ``(n, 256)`` count matrix onto the vocabulary columns."""
        matrix = np.asarray(count_matrix)
        features = np.zeros((matrix.shape[0], self.size))
        features[:, self.columns] = matrix[:, self.bins]
        return features


@dataclass
class _CacheEntry:
    """All cached views of one unique bytecode, keyed by :data:`_Slot`.

    ``spilled`` records that the entry's persistable views already live in
    an up-to-date spill file, so re-evicting it after a spill reload writes
    nothing; installing a new persistable view clears the flag.
    """

    views: Dict[_Slot, object] = field(default_factory=dict)
    spilled: bool = False


def _freeze(value):
    """Mark a cached view read-only (both arrays of a sequence)."""
    if isinstance(value, OpcodeSequence):
        value.opcodes.setflags(write=False)
        value.widths.setflags(write=False)
    else:
        value.setflags(write=False)
    return value


def _gram_codes(code: bytes, bytes_per_gram: int) -> np.ndarray:
    """Integer codes of the non-overlapping ``bytes_per_gram`` groups of ``code``.

    Each complete group of *k* bytes becomes its big-endian integer value, so
    the code is in bijection with the ``2k``-character lowercase hex gram of
    the bytecode's hex string; a trailing partial group is dropped, exactly
    like slicing that string.
    """
    if not 1 <= bytes_per_gram <= MAX_NGRAM_BYTES:
        raise ValueError(f"bytes_per_gram must be in [1, {MAX_NGRAM_BYTES}]")
    n_grams = len(code) // bytes_per_gram
    if n_grams == 0:
        return np.zeros(0, dtype=np.int64)
    grouped = np.frombuffer(code[: n_grams * bytes_per_gram], dtype=np.uint8)
    grouped = grouped.reshape(n_grams, bytes_per_gram).astype(np.int64)
    weights = 256 ** np.arange(bytes_per_gram - 1, -1, -1, dtype=np.int64)
    return grouped @ weights


# ----------------------------------------------------------------------------
# Cache file format (the store file and every spill file)
# ----------------------------------------------------------------------------


def _write_cache_file(
    path: Union[str, Path],
    items: Sequence[Tuple[bytes, Dict[_Slot, object]]],
    stats: np.ndarray,
    *,
    magic: str,
    version: int,
) -> None:
    """Write the persistable views of ``items`` (``(key, views)`` pairs).

    Entries keep their order, so a reload preserves LRU order.  Raises
    :class:`CacheWriteError` when the file cannot be written.
    """
    views = [slots for _, slots in items]
    count_rows = [i for i, slots in enumerate(views) if _COUNTS in slots]
    seq_rows = [i for i, slots in enumerate(views) if _SEQUENCES in slots]
    sequences = [views[i][_SEQUENCES] for i in seq_rows]
    analysis_rows = [i for i, slots in enumerate(views) if _ANALYSIS in slots]
    ngrams = [
        (i, size, slots[("ngrams", size)])
        for i, slots in enumerate(views)
        for size in sorted(size for view, size in slots if view == "ngrams")
    ]
    arrays: Dict[str, np.ndarray] = {
        "stats": stats,
        "keys": np.frombuffer(
            b"".join(key for key, _ in items), dtype=np.uint8
        ).reshape(len(items), 16),
        "count_rows": np.array(count_rows, dtype=np.int64),
        "count_data": (
            np.stack([views[i][_COUNTS] for i in count_rows])
            if count_rows
            else np.zeros((0, 256), dtype=np.int64)
        ),
        "seq_rows": np.array(seq_rows, dtype=np.int64),
        "seq_lengths": np.array([len(s) for s in sequences], dtype=np.int64),
        # Sequences persist in their native uint8 (2 bytes per instruction);
        # the reader is value-validated and casts, so dtype is not part of
        # the format contract.
        "seq_opcodes": (
            np.concatenate([s.opcodes for s in sequences])
            if sequences
            else np.zeros(0, dtype=np.uint8)
        ),
        "seq_widths": (
            np.concatenate([s.widths for s in sequences])
            if sequences
            else np.zeros(0, dtype=np.uint8)
        ),
        "ngram_rows": np.array([i for i, _, _ in ngrams], dtype=np.int64),
        "ngram_sizes": np.array([size for _, size, _ in ngrams], dtype=np.int64),
        "ngram_lengths": np.array(
            [codes.shape[0] for _, _, codes in ngrams], dtype=np.int64
        ),
        "ngram_data": (
            np.concatenate([codes for _, _, codes in ngrams])
            if ngrams
            else np.zeros(0, dtype=np.int64)
        ),
        # Optional in the reader: files written before the analysis view
        # existed lack these two arrays and still load.
        "analysis_rows": np.array(analysis_rows, dtype=np.int64),
        "analysis_data": (
            np.stack([views[i][_ANALYSIS] for i in analysis_rows])
            if analysis_rows
            else np.zeros((0, len(CFG_METRIC_NAMES)), dtype=np.float64)
        ),
    }
    write_npz(path, arrays, magic=magic, version=version, error=CacheWriteError)


def _read_cache_file(
    path: Union[str, Path], *, magic: str, version: int
) -> Tuple[List[Tuple[bytes, _CacheEntry]], np.ndarray]:
    """``(entries, stats)`` of a file written by :func:`_write_cache_file`.

    Every array is shape- and value-checked; any damage raises
    :class:`CacheLoadError`.
    """
    required = {
        "stats", "keys",
        "count_rows", "count_data",
        "seq_rows", "seq_lengths", "seq_opcodes", "seq_widths",
        "ngram_rows", "ngram_sizes", "ngram_lengths", "ngram_data",
    }
    with open_validated_npz(
        path, magic=magic, version=version, required=required, error=CacheLoadError
    ) as data:
        stats = np.asarray(data["stats"], dtype=np.int64)
        if stats.shape != (3 * len(_FILE_STAT_VIEWS) + 1,):
            raise CacheLoadError(f"cache file {path} has malformed stats")
        keys_array = data["keys"]
        if keys_array.ndim != 2 or keys_array.shape[1] != 16:
            raise CacheLoadError(f"cache file {path} has malformed keys")
        n = keys_array.shape[0]
        entries: List[Tuple[bytes, _CacheEntry]] = [
            (keys_array[i].astype(np.uint8).tobytes(), _CacheEntry())
            for i in range(n)
        ]

        def valid_rows(rows: np.ndarray) -> bool:
            return bool(((rows >= 0) & (rows < n)).all())

        count_rows = data["count_rows"]
        count_data = data["count_data"]
        if (
            count_data.shape != (count_rows.shape[0], 256)
            or not valid_rows(count_rows)
            or (count_data.size and (count_data < 0).any())
        ):
            raise CacheLoadError(f"cache file {path} has malformed counts")
        for row, vector in zip(count_rows.tolist(), count_data):
            vector = np.array(vector, dtype=np.int64)
            vector.setflags(write=False)
            entries[row][1].views[_COUNTS] = vector
        seq_rows = data["seq_rows"].tolist()
        seq_lengths = data["seq_lengths"]
        seq_opcodes = data["seq_opcodes"]
        seq_widths = data["seq_widths"]
        total = int(seq_lengths.sum()) if seq_lengths.size else 0
        if (
            seq_lengths.shape[0] != len(seq_rows)
            or seq_opcodes.shape[0] != total
            or seq_widths.shape[0] != total
            or not valid_rows(data["seq_rows"])
            or (seq_lengths.size and (seq_lengths < 0).any())
        ):
            raise CacheLoadError(f"cache file {path} has malformed sequences")
        if seq_opcodes.size and not (
            ((seq_opcodes >= 0) & (seq_opcodes <= 255)).all()
            and _DEFINED_OPCODES[seq_opcodes].all()
            and ((seq_widths >= 0) & (seq_widths <= 32)).all()
        ):
            raise CacheLoadError(
                f"cache file {path} carries out-of-range sequence values"
            )
        offset = 0
        for row, length in zip(seq_rows, seq_lengths.tolist()):
            entries[row][1].views[_SEQUENCES] = _freeze(
                OpcodeSequence(
                    opcodes=seq_opcodes[offset : offset + length].astype(np.uint8),
                    widths=seq_widths[offset : offset + length].astype(np.uint8),
                )
            )
            offset += length
        ngram_rows = data["ngram_rows"].tolist()
        ngram_sizes = data["ngram_sizes"].tolist()
        ngram_lengths = data["ngram_lengths"]
        ngram_data = data["ngram_data"]
        total = int(ngram_lengths.sum()) if ngram_lengths.size else 0
        if (
            ngram_lengths.shape[0] != len(ngram_rows)
            or len(ngram_sizes) != len(ngram_rows)
            or ngram_data.shape[0] != total
            or not valid_rows(data["ngram_rows"])
            or (ngram_lengths.size and (ngram_lengths < 0).any())
            or any(not 1 <= size <= MAX_NGRAM_BYTES for size in ngram_sizes)
            or (ngram_data.size and (ngram_data < 0).any())
        ):
            raise CacheLoadError(f"cache file {path} has malformed n-grams")
        offset = 0
        for row, size, length in zip(ngram_rows, ngram_sizes, ngram_lengths.tolist()):
            codes = ngram_data[offset : offset + length].astype(np.int64)
            codes.setflags(write=False)
            entries[row][1].views[("ngrams", size)] = codes
            offset += length
        if "analysis_rows" in data.files and "analysis_data" in data.files:
            analysis_rows = data["analysis_rows"]
            analysis_data = data["analysis_data"]
            if (
                analysis_data.shape != (analysis_rows.shape[0], len(CFG_METRIC_NAMES))
                or not valid_rows(analysis_rows)
                or (analysis_data.size and not np.isfinite(analysis_data).all())
            ):
                raise CacheLoadError(
                    f"cache file {path} has malformed analysis metrics"
                )
            for row, vector in zip(analysis_rows.tolist(), analysis_data):
                vector = np.array(vector, dtype=np.float64)
                vector.setflags(write=False)
                entries[row][1].views[_ANALYSIS] = vector
        return entries, stats


def _stats_property(view: str) -> property:
    return property(
        lambda self: self._stats[view],
        doc=f"Live :class:`CacheStats` of the ``{view}`` view.",
    )


class BatchFeatureService:
    """Cached, chunked, multi-worker extraction of all bytecode feature views.

    Args:
        cache_size: Maximum number of cached bytecodes (entries) kept in the
            LRU cache; ``0`` disables caching entirely.
        max_workers: Worker-pool width for batch extraction; ``None`` or ``1``
            keeps extraction on the calling thread.
        chunk_size: Number of distinct bytecodes decoded per kernel task.
        executor: ``"thread"`` (default) runs kernel tasks on a
            ``ThreadPoolExecutor`` — no pickling, the kernel spends its time
            in NumPy; ``"process"`` runs them on a ``ProcessPoolExecutor``,
            shipping ``(blob_path, spans)`` or ``(buffer, spans)`` and
            merging the returned packed arrays into the parent cache.  Both
            backends are bit-identical.
        corpus_blob: Optional :class:`~repro.features.corpus.CorpusBlob`.
            Misses whose content key the blob indexes are decoded straight
            from its memmap (process workers map it themselves), so their
            bytes are never staged or pickled.  Bit-identical to staging.
        spill_dir: Optional directory for eviction spill files.  When set,
            evicting an entry writes its persistable views (counts,
            sequence, n-grams, analysis) to a content-addressed
            ``spill-<hash>.npz`` instead of dropping them, and view lookups
            fall back to a spill read before declaring a miss — eviction
            stops meaning recompute.

    Per-view statistics are live :class:`CacheStats` objects:
    :attr:`stats` (counts; its ``evictions``/``spills`` count every evicted
    or spilled *entry*), :attr:`sequence_stats`, :attr:`ngram_stats`,
    :attr:`byte_stats`, :attr:`image_stats` and :attr:`analysis_stats`.
    """

    stats = _stats_property("counts")
    sequence_stats = _stats_property("sequences")
    ngram_stats = _stats_property("ngrams")
    byte_stats = _stats_property("bytes")
    image_stats = _stats_property("images")
    analysis_stats = _stats_property("analysis")

    def __init__(
        self,
        cache_size: int = 4096,
        max_workers: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        executor: str = "thread",
        corpus_blob: Optional["CorpusBlob"] = None,
        spill_dir: Optional[Union[str, Path]] = None,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if executor not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_BACKENDS}, got {executor!r}"
            )
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.executor = executor
        self._pool = None
        self._blob = corpus_blob
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._stats: Dict[str, CacheStats] = {view: CacheStats() for view in VIEWS}
        self.kernel_passes = 0
        self._cache: "OrderedDict[bytes, _CacheEntry]" = OrderedDict()
        self._lock = Lock()
        self.cache_size = cache_size

    @property
    def corpus_blob(self) -> Optional["CorpusBlob"]:
        """The attached corpus blob (``None`` → every miss is staged)."""
        return self._blob

    def attach_blob(self, blob: Optional["CorpusBlob"]) -> None:
        """Attach (or detach, with ``None``) the corpus blob misses read from."""
        with self._lock:
            self._blob = blob

    @property
    def spill_dir(self) -> Optional[Path]:
        """Directory receiving eviction spill files (``None`` → disabled)."""
        return self._spill_dir

    @property
    def cache_size(self) -> int:
        """Maximum number of cached bytecodes (0 disables caching)."""
        return self._cache_size

    @cache_size.setter
    def cache_size(self, capacity: int) -> None:
        """Resize the cache; shrinking evicts LRU entries immediately."""
        if capacity < 0:
            raise ValueError("cache_size must be >= 0")
        with self._lock:
            self._cache_size = capacity
            while len(self._cache) > capacity:
                self._evict_lru()

    # ------------------------------------------------------------------
    # The view table: one lookup, one install
    # ------------------------------------------------------------------

    def _lookup(self, slot: _Slot, key: bytes):
        """Cached ``slot`` value of ``key``; ``None`` is a miss.

        Persisted views fall back to the entry's spill file (a
        ``spill_hit``).  Counts are binned out of a cached sequence when
        only that is present: no bytes-level kernel runs, so it is a hit.
        """
        view = slot[0]
        with self._lock:
            entry = self._cache.get(key)
            value = None if entry is None else entry.views.get(slot)
            from_spill = False
            if value is None and self._cache_size:
                value = self._derive(entry, slot)
                if value is None and view in PERSISTED_VIEWS:
                    entry = self._spill_fill(key, entry)
                    value = self._derive(entry, slot)
                    from_spill = value is not None
            stats = self._stats[view]
            if value is None:
                stats.misses += 1
                return None
            self._cache.move_to_end(key)
            if from_spill:
                stats.spill_hits += 1
            else:
                stats.hits += 1
            return value

    @staticmethod
    def _derive(entry: Optional[_CacheEntry], slot: _Slot):
        """``slot`` of ``entry``, binning counts out of a cached sequence."""
        if entry is None:
            return None
        value = entry.views.get(slot)
        if value is None and slot == _COUNTS:
            sequence = entry.views.get(_SEQUENCES)
            if sequence is not None:
                value = entry.views[_COUNTS] = _freeze(sequence.counts())
        return value

    def _install(self, slot: _Slot, key: bytes, value) -> bool:
        """Cache a computed view (frozen read-only); true when newly set."""
        if self._cache_size == 0:
            return False
        _freeze(value)
        with self._lock:
            entry = self._entry_for(key)
            fresh = slot not in entry.views
            entry.views[slot] = value
            if fresh and slot[0] in PERSISTED_VIEWS:
                entry.spilled = False
            return fresh

    def _install_sequence(self, key: bytes, sequence: OpcodeSequence) -> None:
        """Install one freshly *computed* sequence and account its kernel pass.

        ``kernel_passes`` counts kernel results *installed* into the cache
        (plus every kernel run when caching is disabled), so two threads
        racing to compute the same uncached bytecode cost one pass, not
        two — the counter tracks unique extraction work, the signal the
        one-disassembly-per-unique-bytecode invariant is asserted on.
        """
        if self._install(_SEQUENCES, key, sequence) or self._cache_size == 0:
            with self._lock:
                self.kernel_passes += 1

    def _entry_for(self, key: bytes) -> _CacheEntry:
        """Get-or-create the entry of ``key`` (caller holds the lock)."""
        entry = self._cache.get(key)
        if entry is None:
            entry = _CacheEntry()
            self._cache[key] = entry
        else:
            self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._evict_lru()
        return entry

    def _evict_lru(self) -> None:
        """Evict the least recently used entry (caller holds the lock).

        ``stats.evictions`` counts evicted *entries*; the other views count
        the evicted entries that held them.  With a spill directory
        configured, the persistable views are written to disk first
        (skipped when an up-to-date spill file exists from a prior reload).
        """
        key, entry = self._cache.popitem(last=False)
        held = {view for view, _ in entry.views}
        for view in held | {"counts"}:
            self._stats[view].evictions += 1
        persisted = held & PERSISTED_VIEWS
        if self._spill_dir is not None and not entry.spilled and persisted:
            self._spill_entry(key, entry, persisted)

    # ------------------------------------------------------------------
    # Eviction spilling
    # ------------------------------------------------------------------

    def _spill_path(self, key: bytes) -> Path:
        # Content-addressed: one file per unique bytecode, shareable across
        # services and corpora pointing at the same directory.
        return self._spill_dir / f"spill-{key.hex()}.npz"

    def _spill_entry(self, key: bytes, entry: _CacheEntry, views) -> None:
        """Write an evicted entry as a one-entry cache file (lock held).

        Spilling is best-effort — an unwritable directory degrades to
        drop-on-evict rather than failing the call that happened to trigger
        the eviction.
        """
        try:
            _write_cache_file(
                self._spill_path(key),
                [(key, entry.views)],
                np.zeros(3 * len(_FILE_STAT_VIEWS) + 1, dtype=np.int64),
                magic=SPILL_FILE_MAGIC,
                version=SPILL_FILE_VERSION,
            )
        except CacheWriteError:
            return
        for view in views | {"counts"}:
            self._stats[view].spills += 1

    def _spill_fill(
        self, key: bytes, entry: Optional[_CacheEntry]
    ) -> Optional[_CacheEntry]:
        """Merge ``key``'s spill file into the cache (caller holds the lock).

        Returns the (created or updated) entry when a readable spill file
        of this very contract exists, ``None`` otherwise.  A corrupt file,
        or one holding another contract's key, reads as a plain miss and
        is deleted so it cannot shadow a future, healthy spill.  Loaded
        views never overwrite ones the live entry already holds.
        """
        if self._spill_dir is None:
            return None
        path = self._spill_path(key)
        if not path.exists():
            return None
        try:
            entries, _ = _read_cache_file(
                path, magic=SPILL_FILE_MAGIC, version=SPILL_FILE_VERSION
            )
            if len(entries) != 1 or entries[0][0] != key:
                raise CacheLoadError(f"spill file {path} holds another contract")
        except CacheLoadError:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if entry is None:
            entry = self._entry_for(key)
            entry.spilled = True
        for slot, value in entries[0][1].views.items():
            entry.views.setdefault(slot, value)
        return entry

    def cache_clear(self) -> None:
        """Drop every cached entry, reset all statistics, delete spill files."""
        with self._lock:
            self._cache.clear()
            if self._spill_dir is not None and self._spill_dir.is_dir():
                for path in self._spill_dir.glob("spill-*.npz"):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self._stats = {view: CacheStats() for view in VIEWS}
            self.kernel_passes = 0

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # The miss path: one buffer kernel for every view that disassembles
    # ------------------------------------------------------------------

    def _resolve(
        self,
        slot: _Slot,
        bytecodes: Sequence[BytecodeLike],
        fill: Callable[[Dict[bytes, bytes]], Dict[bytes, object]],
    ) -> list:
        """Per-bytecode ``slot`` values; misses deduplicated, then ``fill``ed.

        ``fill`` maps ``{key: code}`` of the distinct misses to
        ``{key: value}`` (proxy clones are extracted once).
        """
        codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
        values: list = [None] * len(codes)
        pending: Dict[bytes, List[int]] = {}
        pending_codes: Dict[bytes, bytes] = {}
        for row, code in enumerate(codes):
            key = content_key(code)
            value = self._lookup(slot, key)
            if value is None:
                pending.setdefault(key, []).append(row)
                pending_codes[key] = code
            else:
                values[row] = value
        if pending:
            for key, value in fill(pending_codes).items():
                for row in pending[key]:
                    values[row] = value
        return values

    @_traced("kernel")
    def _run_kernel(
        self, codes: Dict[bytes, bytes]
    ) -> List[Tuple[List[bytes], PackedSequences]]:
        """Decode distinct misses, ``chunk_size`` codes per task.

        Keys the attached blob indexes become spans of its memmap; the rest
        are staged into one in-memory buffer per task.  Tasks run inline, or
        on the pool when there is more than one: process workers get
        ``(blob_path, spans)`` or ``(buffer, spans)``.  Returns ``(task keys,
        packed sequences)`` per task.
        """
        from .corpus import extract_spans

        blob = self._blob
        if blob is None:
            blob_keys, staged = [], list(codes)
        else:
            blob_keys = [key for key in codes if key in blob]
            staged = [key for key in codes if key not in blob]
        size = self.chunk_size
        blob_tasks = [blob_keys[i : i + size] for i in range(0, len(blob_keys), size)]
        staged_tasks = [staged[i : i + size] for i in range(0, len(staged), size)]
        pooled = (
            self.max_workers is not None
            and self.max_workers > 1
            and len(blob_tasks) + len(staged_tasks) > 1
        )
        source = blob
        if blob_tasks and pooled and self.executor == "process":
            source = str(blob.path)

        def blob_args(task):
            return source, np.array([blob.span(key) for key in task], dtype=np.int64)

        def staged_args(task):
            # Staged lazily, one task at a time inline: a call with
            # thousands of misses never holds a second copy of all their
            # bytes at once.
            buffer, lengths = pack_codes([codes[key] for key in task])
            stops = np.cumsum(lengths)
            return buffer, np.stack([stops - lengths, stops], axis=1)

        args = chain(map(blob_args, blob_tasks), map(staged_args, staged_tasks))
        if pooled:
            results = self._get_pool().map(extract_spans, *zip(*args))
        else:
            results = starmap(extract_spans, args)
        return list(zip(blob_tasks + staged_tasks, results))

    def _fill_sequences(self, codes: Dict[bytes, bytes]) -> Dict[bytes, OpcodeSequence]:
        sequences: Dict[bytes, OpcodeSequence] = {}
        for keys, packed in self._run_kernel(codes):
            for key, sequence in zip(keys, packed.split()):
                self._install_sequence(key, sequence)
                sequences[key] = sequence
        return sequences

    def _fill_counts(self, codes: Dict[bytes, bytes]) -> Dict[bytes, np.ndarray]:
        # With caching on, the sequence is installed alongside the counts,
        # so a later sequence lookup is a hit instead of a second pass.
        vectors: Dict[bytes, np.ndarray] = {}
        for keys, packed in self._run_kernel(codes):
            matrix = packed.counts()
            if self._cache_size == 0:
                with self._lock:
                    self.kernel_passes += len(keys)
                vectors.update(zip(keys, matrix))
                continue
            for key, sequence, row in zip(keys, packed.split(), matrix):
                self._install_sequence(key, sequence)
                # A copy, so a cached vector never pins the task's matrix.
                vector = row.copy()
                self._install(_COUNTS, key, vector)
                vectors[key] = vector
        return vectors

    def _per_code(
        self,
        slot: _Slot,
        bytecodes: Sequence[BytecodeLike],
        compute: Callable[[bytes], np.ndarray],
    ) -> List[np.ndarray]:
        """Per-bytecode ``slot`` values, each miss ``compute``d alone.

        The path of the views no disassembly feeds (n-grams, byte counts,
        images) and of the analysis vector, which reads the cached sequence.
        """
        values = []
        for bytecode in bytecodes:
            code = normalize_bytecode(bytecode)
            key = content_key(code)
            value = self._lookup(slot, key)
            if value is None:
                value = compute(code)
                self._install(slot, key, value)
            values.append(value)
        return values

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _get_pool(self):
        """The service's lazily created, reused worker pool.

        Keeping one pool alive across batches matters most for the process
        backend, where per-call pool construction would pay worker startup
        (fork/spawn, interpreter + NumPy import) on every ``count_matrix``
        call; experiment drivers issue many small calls per run.  Call
        :meth:`close` to release the workers (the next batch transparently
        builds a fresh pool).
        """
        with self._lock:
            if self._pool is None:
                pool_type = (
                    ProcessPoolExecutor
                    if self.executor == "process"
                    else ThreadPoolExecutor
                )
                self._pool = pool_type(max_workers=self.max_workers)
            return self._pool

    def warm_pool(self) -> None:
        """Eagerly start the worker pool so later batches don't pay startup.

        A no-op when ``max_workers`` would never build a pool.  Callers that
        time extraction (the MEM ``fresh_service`` cells) use this to keep
        one-off pool construction — expensive for the process backend —
        outside their measured window.
        """
        if self.max_workers is not None and self.max_workers > 1:
            self._get_pool()

    def close(self) -> None:
        """Shut down the worker pool (if any); the cache stays intact.

        Safe to call repeatedly; further batch calls recreate the pool on
        demand.  Mostly relevant for ``executor="process"`` services, whose
        idle workers would otherwise live until interpreter exit.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BatchFeatureService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Count extraction (histogram view)
    # ------------------------------------------------------------------

    def count_vector(self, bytecode: BytecodeLike) -> np.ndarray:
        """256-bin opcode counts of one bytecode (read-only when cached).

        A miss runs the buffer kernel once and caches the *sequence* too,
        so a later sequence lookup of the same bytecode is a hit.
        """
        return self._resolve(_COUNTS, [bytecode], self._fill_counts)[0]

    @_traced("features")
    def count_matrix(self, bytecodes: Sequence[BytecodeLike]) -> np.ndarray:
        """``(n, 256)`` opcode-count matrix for a batch of bytecodes.

        As in :meth:`count_vector`, misses install sequences alongside the
        counts, keeping the one-disassembly-per-unique-bytecode property
        independent of which feature view asks first.
        """
        rows = self._resolve(_COUNTS, bytecodes, self._fill_counts)
        return np.array(rows, dtype=np.int64).reshape(len(rows), 256)

    def transform(
        self,
        bytecodes: Sequence[BytecodeLike],
        projection: VocabularyProjection,
        normalize: bool = False,
    ) -> np.ndarray:
        """Histogram feature matrix for ``bytecodes`` under ``projection``."""
        features = projection.apply(self.count_matrix(bytecodes))
        if normalize:
            totals = features.sum(axis=1)
            populated = totals > 0
            features[populated] /= totals[populated, np.newaxis]
        return features

    # ------------------------------------------------------------------
    # Sequence extraction (tokenizer / frequency-image view)
    # ------------------------------------------------------------------

    def sequence(self, bytecode: BytecodeLike) -> OpcodeSequence:
        """The :class:`OpcodeSequence` of one bytecode (read-only when cached)."""
        return self._resolve(_SEQUENCES, [bytecode], self._fill_sequences)[0]

    @_traced("features")
    def sequences(self, bytecodes: Sequence[BytecodeLike]) -> List[OpcodeSequence]:
        """Sequences for a batch of bytecodes (misses deduplicated + chunked)."""
        return self._resolve(_SEQUENCES, bytecodes, self._fill_sequences)

    # ------------------------------------------------------------------
    # N-gram extraction (SCSGuard view)
    # ------------------------------------------------------------------

    def ngram_codes(self, bytecode: BytecodeLike, bytes_per_gram: int) -> np.ndarray:
        """Integer codes of the non-overlapping byte groups of one bytecode.

        The *k*-byte group starting at offset ``i*k`` becomes its big-endian
        integer value — in bijection with the ``2k``-character lowercase hex
        gram :class:`~repro.features.ngram.HexNgramEncoder` names it by.  No
        disassembly is involved; the view is cached per
        ``(bytecode, bytes_per_gram)``.
        """
        return self._ngram_codes([bytecode], bytes_per_gram)[0]

    @_traced("features")
    def ngram_codes_batch(
        self, bytecodes: Sequence[BytecodeLike], bytes_per_gram: int
    ) -> List[np.ndarray]:
        """N-gram codes for a batch of bytecodes."""
        return self._ngram_codes(bytecodes, bytes_per_gram)

    def _ngram_codes(self, bytecodes, bytes_per_gram: int) -> List[np.ndarray]:
        return self._per_code(
            ("ngrams", bytes_per_gram), bytecodes,
            lambda code: _gram_codes(code, bytes_per_gram),
        )

    # ------------------------------------------------------------------
    # Raw-byte extraction (ESCORT embedding / R2D2 image views)
    # ------------------------------------------------------------------

    def byte_counts(self, bytecode: BytecodeLike) -> np.ndarray:
        """256-bin raw byte-value histogram of one bytecode.

        This is the *byte* view (ESCORT's embedding input), distinct from
        :meth:`count_vector`'s *opcode* view: immediates count here and PUSH
        data never becomes an instruction.  No disassembly runs, so the view
        does not move ``kernel_passes``.
        """
        return self._per_code(_BYTES, [bytecode], byte_count_vector)[0]

    @_traced("features")
    def byte_count_matrix(self, bytecodes: Sequence[BytecodeLike]) -> np.ndarray:
        """``(n, 256)`` raw byte-count matrix (duplicates served from cache)."""
        rows = self._per_code(_BYTES, bytecodes, byte_count_vector)
        return np.array(rows, dtype=np.int64).reshape(len(rows), 256)

    def r2d2_image(self, bytecode: BytecodeLike, image_size: int) -> np.ndarray:
        """R2D2-style RGB tensor of one bytecode, cached per image size."""
        return self._r2d2_images([bytecode], image_size)[0]

    @_traced("features")
    def r2d2_images(
        self, bytecodes: Sequence[BytecodeLike], image_size: int
    ) -> np.ndarray:
        """``(n, 3, image_size, image_size)`` batch of R2D2 images."""
        return np.stack(self._r2d2_images(bytecodes, image_size))

    def _r2d2_images(self, bytecodes, image_size: int) -> List[np.ndarray]:
        return self._per_code(
            ("images", image_size), bytecodes,
            lambda code: r2d2_image_from_bytes(code, image_size),
        )

    # ------------------------------------------------------------------
    # Static-analysis extraction (CFG metrics view)
    # ------------------------------------------------------------------

    def analysis_vector(self, bytecode: BytecodeLike) -> np.ndarray:
        """CFG-metrics feature vector of one bytecode (read-only when cached).

        The :data:`~repro.evm.cfg.CFG_METRIC_NAMES` block — block/edge/jump
        counts, resolved-jump and dead-code ratios, selector and call-family
        tallies — computed by :func:`~repro.evm.cfg.analyze_cfg` over the
        *cached* :class:`~repro.evm.fastcount.OpcodeSequence` view, so the
        structural features ride the same single disassembly pass as the
        histogram/token/image views.  Persisted by :meth:`save` alongside
        counts and sequences.
        """
        return self._analysis_vectors([bytecode])[0]

    @_traced("features")
    def analysis_matrix(self, bytecodes: Sequence[BytecodeLike]) -> np.ndarray:
        """``(n, len(CFG_METRIC_NAMES))`` CFG-metrics matrix for a batch.

        Missing sequence views are computed first in one deduplicated,
        chunked batch (:meth:`sequences`), so a cold corpus pays one
        vectorized disassembly sweep rather than n scalar ones.  With
        caching disabled the pre-sweep is skipped — its results could not
        be installed, so it would only inflate ``kernel_passes`` with work
        each :meth:`analysis_vector` call must redo anyway.
        """
        if self.cache_size > 0:
            self.sequences(bytecodes)
        rows = self._analysis_vectors(bytecodes)
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(CFG_METRIC_NAMES))

    def _analysis_vectors(self, bytecodes) -> List[np.ndarray]:
        return self._per_code(
            _ANALYSIS, bytecodes,
            lambda code: cfg_metrics_vector(code, sequence=self.sequence(code)),
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def view_stats(self) -> Dict[str, CacheStats]:
        """Per-view counter snapshots, keyed by view name.

        The observability bridge labels its ``repro_features_cache_*``
        series with these names; values are copies, so a scrape never
        holds a reference into the live counters.
        """
        with self._lock:
            return {
                view: dataclasses.replace(stats) for view, stats in self._stats.items()
            }

    def aggregate_stats(self) -> CacheStats:
        """Hit/miss/eviction totals across every feature view.

        The serving telemetry surface reports one feature-cache hit rate;
        this sums every view's counters into a single :class:`CacheStats`
        snapshot.
        """
        total = CacheStats()
        with self._lock:
            for stats in self._stats.values():
                for name in ("hits", "misses", "evictions", "spills", "spill_hits"):
                    setattr(total, name, getattr(total, name) + getattr(stats, name))
        return total

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the cached count/sequence/n-gram/analysis store to ``path``.

        The file also carries the hit/miss/eviction statistics of the
        count, sequence and n-gram views and the kernel-pass counter, so
        accounting survives a :meth:`load`.  Entries are written in LRU
        order (oldest first) so reloading preserves eviction order.
        Parent directories are created as needed; the write is atomic with
        a per-writer randomized staging name, so concurrent saves to the
        same path are safe (last rename wins, the file is never truncated).

        Raises:
            CacheWriteError: if the file cannot be written — e.g. the parent
                path is occupied by a regular file, or the directory is
                unwritable.
        """
        # Snapshot the view tables while holding the lock; the arrays
        # themselves are frozen read-only at install time, so referencing
        # them after release is safe.
        with self._lock:
            items = [(key, dict(entry.views)) for key, entry in self._cache.items()]
            stats = np.array(
                [
                    value
                    for view in _FILE_STAT_VIEWS
                    for value in (
                        self._stats[view].hits,
                        self._stats[view].misses,
                        self._stats[view].evictions,
                    )
                ]
                + [self.kernel_passes],
                dtype=np.int64,
            )
        _write_cache_file(
            path, items, stats, magic=CACHE_FILE_MAGIC, version=CACHE_FILE_VERSION
        )

    def load(self, path: Union[str, Path], grow: bool = False) -> int:
        """Replace the cache contents with a store written by :meth:`save`.

        Every counter is reset, then the ones the file records are
        restored; entries beyond the service's ``cache_size`` are evicted
        oldest-first (adding to the restored eviction count) — unless
        ``grow`` is set, in which case the cache capacity is raised to fit
        every stored entry, so an eviction-aware warm-up (e.g.
        :class:`~repro.serving.ScoringService` pre-populating its feature
        cache from a store file) can never silently drop part of what it
        just loaded.  Returns the number of entries retained.

        Raises:
            CacheLoadError: if the file is missing, corrupt, or was written
                by an incompatible format version.
            ValueError: if this service has caching disabled — loading into
                a ``cache_size=0`` service would silently drop every entry.
        """
        if self.cache_size == 0:
            raise ValueError(
                "cannot load a persistent cache into a caching-disabled "
                "service (cache_size=0)"
            )
        entries, stats = _read_cache_file(
            path, magic=CACHE_FILE_MAGIC, version=CACHE_FILE_VERSION
        )
        values = iter(int(value) for value in stats)
        with self._lock:
            self._cache = OrderedDict(entries)
            if grow and len(self._cache) > self._cache_size:
                self._cache_size = len(self._cache)
            self._stats = {view: CacheStats() for view in VIEWS}
            for view in _FILE_STAT_VIEWS:
                restored = self._stats[view]
                restored.hits, restored.misses, restored.evictions = (
                    next(values), next(values), next(values)
                )
            self.kernel_passes = next(values)
            while len(self._cache) > self._cache_size:
                self._evict_lru()
            return len(self._cache)


# ----------------------------------------------------------------------------
# Process-wide default service
# ----------------------------------------------------------------------------

_default_service: Optional[BatchFeatureService] = None


def get_default_service() -> BatchFeatureService:
    """The process-wide shared service (created lazily)."""
    global _default_service
    if _default_service is None:
        _default_service = BatchFeatureService()
    return _default_service


def set_default_service(service: Optional[BatchFeatureService]) -> None:
    """Replace the process-wide shared service (``None`` resets to lazy)."""
    global _default_service
    _default_service = service


def resolve_service(service: Optional[BatchFeatureService]) -> BatchFeatureService:
    """``service`` itself, or the process-wide default when ``None``.

    Checks identity, not truthiness: an *empty* service is falsy
    (``len() == 0``) and must still be honoured when passed explicitly.
    """
    return service if service is not None else get_default_service()


@contextmanager
def use_service(service: BatchFeatureService) -> Iterator[BatchFeatureService]:
    """Temporarily install ``service`` as the process-wide default."""
    global _default_service
    previous = _default_service
    _default_service = service
    try:
        yield service
    finally:
        _default_service = previous
