"""Memmap-backed corpus blobs — the zero-copy corpus plane.

:class:`CorpusBlob` keeps a corpus on disk as *spans*: one append-only
bytes file holds every unique normalised bytecode back to back, an
offset/content-hash index maps each bytecode's
:func:`~repro.features.batch.content_key` to its ``(start, stop)`` span,
and the whole file is exposed through a read-only ``numpy.memmap`` — so a
corpus that dwarfs RAM is addressable without ever being materialised.

:func:`extract_spans` is the one kernel task of
:class:`~repro.features.batch.BatchFeatureService`: it decodes a list of
spans with :func:`~repro.evm.fastcount.sequence_buffer` and returns one
:class:`~repro.evm.fastcount.PackedSequences`.  The spans index either a
corpus blob — process workers receive ``(blob_path, spans)``, map the blob
read-only once per process and slice zero-copy views, while threads slice
the parent's own memmap — or a uint8 buffer holding the cache misses the
blob does not index, staged back to back.

On-disk format
--------------

A blob is two files sharing one stem:

* ``<stem>.blob`` — the data file.  A fixed :data:`BLOB_HEADER_SIZE`-byte
  header — :data:`BLOB_MAGIC` (16 bytes), a little-endian ``uint32`` format
  version (:data:`BLOB_VERSION`), and 12 reserved zero bytes — followed by
  the raw bytecode bytes, appended in first-seen order and never rewritten.
  Spans are absolute file offsets (the first bytecode starts at
  :data:`BLOB_HEADER_SIZE`), so one memmap of the whole file serves every
  span without offset arithmetic.
* ``<stem>.blob.idx.npz`` — the index, a validated ``.npz`` envelope
  (:mod:`repro.persist`, magic :data:`INDEX_MAGIC`, version
  :data:`BLOB_VERSION`) carrying ``keys`` (``(n, 16)`` uint8 — the blake2b
  content digest of each entry), ``starts`` / ``stops`` (``int64`` absolute
  offsets), and ``data_size`` (the blob file size the index describes).
  The index is rewritten atomically on every append; a crash between the
  data append and the index rewrite leaves dead bytes past ``data_size``
  that the next append simply overwrites, so the pair is always
  consistent.

Corpus fingerprints (:func:`~repro.features.store.corpus_fingerprint`) name
blobs on disk — ``corpus-<fingerprint>.blob`` under a blob directory — and
:meth:`CorpusBlob.for_corpus` is the build-once entry the experiment
drivers use: open the fingerprint's blob when it exists, create it
otherwise, and append whatever bytecodes it does not yet index.  Because
entries are content-addressed, reopening and appending are idempotent.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..persist import open_validated_npz, write_npz
from ..evm.disassembler import BytecodeLike, normalize_bytecode
from ..evm.fastcount import PackedSequences, sequence_buffer
from .batch import content_key

#: 16-byte tag opening every blob data file.
BLOB_MAGIC = b"phishhook-corpus"
#: Format version shared by the data header and the index envelope.
BLOB_VERSION = 1
#: Fixed data-file header: magic (16) + uint32 version (4) + reserved (12).
BLOB_HEADER_SIZE = 32
#: Envelope magic of the ``.idx.npz`` sidecar.
INDEX_MAGIC = "phishinghook-corpus-blob-index"
#: Suffix appended to the data path to name the index sidecar.
INDEX_SUFFIX = ".idx.npz"
#: File-name prefix of per-fingerprint blobs (``corpus-<fingerprint>.blob``).
BLOB_FILE_PREFIX = "corpus-"


class CorpusBlobError(RuntimeError):
    """A corpus blob or its index is missing, corrupt, or inconsistent."""


def _pack_header() -> bytes:
    return BLOB_MAGIC + struct.pack("<I", BLOB_VERSION) + b"\x00" * 12


def _gather(
    data: np.ndarray, spans: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(buffer, lengths)`` of ``spans`` of ``data``, zero-copy when contiguous.

    Spans that tile one contiguous region — the common case: blob order is
    first-seen order, misses are dispatched in that order, and staged
    buffers are contiguous by construction — come back as a single slice;
    arbitrary spans fall back to one gather copy of just the requested
    bytes.
    """
    if len(spans) == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    array = np.asarray(spans, dtype=np.int64).reshape(len(spans), 2)
    lengths = array[:, 1] - array[:, 0]
    if (lengths < 0).any():
        raise CorpusBlobError("negative-length span requested")
    if bool((array[1:, 0] == array[:-1, 1]).all()):
        return data[int(array[0, 0]) : int(array[-1, 1])], lengths
    if not int(lengths.sum()):
        return np.zeros(0, dtype=np.uint8), lengths
    return np.concatenate([data[a:b] for a, b in array.tolist()]), lengths


class CorpusBlob:
    """One append-only corpus bytes file addressed by content-hash spans.

    Instances are handles over the two on-disk files (see the module
    docstring for the format); construction goes through :meth:`create`,
    :meth:`open` or :meth:`for_corpus`.  The data file is exposed as a
    read-only ``numpy.memmap`` (:attr:`data`), so :meth:`view` slices are
    zero-copy pages served by the OS cache, never Python ``bytes``.
    """

    def __init__(
        self,
        path: Path,
        data: Optional[np.memmap],
        index: Dict[bytes, Tuple[int, int]],
        data_size: int,
    ):
        self.path = path
        self._data = data
        self._index = index
        self.data_size = data_size

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path: Union[str, Path]) -> "CorpusBlob":
        """Create an empty blob at ``path`` (parent directories included)."""
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(_pack_header())
        except OSError as exc:
            raise CorpusBlobError(f"cannot create corpus blob {path}: {exc}") from exc
        blob = cls(path=path, data=None, index={}, data_size=BLOB_HEADER_SIZE)
        blob._write_index()
        return blob

    @classmethod
    def open(cls, path: Union[str, Path]) -> "CorpusBlob":
        """Open an existing blob, validating the header and the index.

        Raises:
            CorpusBlobError: when either file is missing, the magic or
                version does not match, or the index describes more data
                than the blob file holds.
        """
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                header = handle.read(BLOB_HEADER_SIZE)
            file_size = path.stat().st_size
        except OSError as exc:
            raise CorpusBlobError(f"unreadable corpus blob {path}: {exc}") from exc
        if len(header) < BLOB_HEADER_SIZE or header[:16] != BLOB_MAGIC:
            raise CorpusBlobError(f"{path} is not a corpus blob (bad magic)")
        (version,) = struct.unpack("<I", header[16:20])
        if version != BLOB_VERSION:
            raise CorpusBlobError(
                f"corpus blob {path} has stale format version {version} "
                f"(expected {BLOB_VERSION})"
            )
        index, data_size = cls._read_index(path)
        if data_size > file_size:
            raise CorpusBlobError(
                f"corpus blob {path} is truncated: index describes {data_size} "
                f"bytes, file holds {file_size}"
            )
        return cls(path=path, data=None, index=index, data_size=data_size)

    @classmethod
    def for_corpus(
        cls,
        directory: Union[str, Path],
        bytecodes: Sequence[BytecodeLike],
        fingerprint: str,
    ) -> "CorpusBlob":
        """Open-or-create ``corpus-<fingerprint>.blob`` covering ``bytecodes``.

        The build-once entry point of the experiment drivers: an existing
        blob is opened and appended to (content-addressed entries make this
        idempotent); a corrupt one is rebuilt from scratch rather than
        trusted.
        """
        path = Path(directory) / f"{BLOB_FILE_PREFIX}{fingerprint}.blob"
        if path.exists():
            try:
                blob = cls.open(path)
            except CorpusBlobError:
                blob = cls.create(path)
        else:
            blob = cls.create(path)
        blob.append(bytecodes)
        return blob

    # ------------------------------------------------------------------
    # Index + data plumbing
    # ------------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        """Path of the ``.idx.npz`` sidecar."""
        return self.path.with_name(self.path.name + INDEX_SUFFIX)

    def _write_index(self) -> None:
        keys = list(self._index)
        spans = np.array(
            [self._index[key] for key in keys], dtype=np.int64
        ).reshape(len(keys), 2)
        write_npz(
            self.index_path,
            {
                "keys": (
                    np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), 16)
                    if keys
                    else np.zeros((0, 16), dtype=np.uint8)
                ),
                "starts": spans[:, 0].copy(),
                "stops": spans[:, 1].copy(),
                "data_size": np.array([self.data_size], dtype=np.int64),
            },
            magic=INDEX_MAGIC,
            version=BLOB_VERSION,
            error=CorpusBlobError,
        )

    @staticmethod
    def _read_index(path: Path) -> Tuple[Dict[bytes, Tuple[int, int]], int]:
        index_path = path.with_name(path.name + INDEX_SUFFIX)
        required = {"keys", "starts", "stops", "data_size"}
        with open_validated_npz(
            index_path,
            magic=INDEX_MAGIC,
            version=BLOB_VERSION,
            required=required,
            error=CorpusBlobError,
        ) as data:
            keys = data["keys"]
            starts = data["starts"].astype(np.int64)
            stops = data["stops"].astype(np.int64)
            data_size = int(data["data_size"][0])
            if (
                keys.ndim != 2
                or keys.shape[1] != 16
                or starts.shape != (keys.shape[0],)
                or stops.shape != (keys.shape[0],)
                or (starts < BLOB_HEADER_SIZE).any()
                or (stops < starts).any()
                or (stops > data_size).any()
                or data_size < BLOB_HEADER_SIZE
            ):
                raise CorpusBlobError(f"corpus blob index {index_path} is malformed")
            index = {
                keys[i].astype(np.uint8).tobytes(): (int(starts[i]), int(stops[i]))
                for i in range(keys.shape[0])
            }
            return index, data_size

    @property
    def data(self) -> np.memmap:
        """Read-only ``numpy.memmap`` of the whole data file (lazily opened)."""
        if self._data is None or self._data.shape[0] < self.data_size:
            try:
                self._data = np.memmap(self.path, dtype=np.uint8, mode="r")
            except (OSError, ValueError) as exc:
                raise CorpusBlobError(
                    f"cannot map corpus blob {self.path}: {exc}"
                ) from exc
        return self._data

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    @property
    def data_bytes(self) -> int:
        """Payload size in bytes (header excluded)."""
        return self.data_size - BLOB_HEADER_SIZE

    def span(self, key: bytes) -> Optional[Tuple[int, int]]:
        """The ``(start, stop)`` span of content ``key``, if indexed."""
        return self._index.get(key)

    def view(self, start: int, stop: int) -> np.ndarray:
        """Zero-copy uint8 view of one span of the data file."""
        if not BLOB_HEADER_SIZE <= start <= stop <= self.data_size:
            raise CorpusBlobError(
                f"span ({start}, {stop}) is outside corpus blob {self.path} "
                f"(data ends at {self.data_size})"
            )
        return self.data[start:stop]

    def code(self, key: bytes) -> bytes:
        """The bytecode of ``key`` as ``bytes`` (copies — debug/test helper)."""
        span = self._index.get(key)
        if span is None:
            raise KeyError(key.hex())
        return self.view(*span).tobytes()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, bytecodes: Sequence[BytecodeLike]) -> int:
        """Append every not-yet-indexed unique bytecode; return the new count.

        Codes are normalised and deduplicated against the index by content
        key, so appending a corpus the blob already covers writes nothing.
        Data bytes are written at ``data_size`` (overwriting any dead bytes
        a crashed previous append left) before the index is atomically
        rewritten, and the memmap is refreshed afterwards.
        """
        fresh: Dict[bytes, bytes] = {}
        for bytecode in bytecodes:
            code = normalize_bytecode(bytecode)
            key = content_key(code)
            if key not in self._index and key not in fresh:
                fresh[key] = code
        if not fresh:
            return 0
        try:
            with open(self.path, "r+b") as handle:
                handle.seek(self.data_size)
                cursor = self.data_size
                for key, code in fresh.items():
                    handle.write(code)
                    self._index[key] = (cursor, cursor + len(code))
                    cursor += len(code)
                handle.truncate(cursor)
        except OSError as exc:
            raise CorpusBlobError(
                f"cannot append to corpus blob {self.path}: {exc}"
            ) from exc
        self.data_size = cursor
        self._write_index()
        self._data = None
        return len(fresh)

    # ------------------------------------------------------------------
    # Span extraction
    # ------------------------------------------------------------------

    def spans_buffer(
        self, spans: Sequence[Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(buffer, lengths)`` of ``spans``, zero-copy when contiguous."""
        array = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
        if array.size and (
            (array[:, 0] < BLOB_HEADER_SIZE) | (array[:, 1] > self.data_size)
        ).any():
            raise CorpusBlobError(
                f"span outside corpus blob {self.path} "
                f"(data ends at {self.data_size})"
            )
        return _gather(self.data, array)


# ----------------------------------------------------------------------------
# Kernel task entry point
# ----------------------------------------------------------------------------

#: Per-process cache of opened blobs, keyed by path.  Worker processes are
#: long-lived (the service keeps one pool across batches), so each worker
#: maps a given blob once; a span past the mapped size (the parent appended
#: since) reopens it.
_WORKER_BLOBS: Dict[str, CorpusBlob] = {}


def extract_spans(
    source: Union[str, CorpusBlob, np.ndarray], spans: Sequence[Tuple[int, int]]
) -> PackedSequences:
    """Decode ``spans`` of ``source`` — the one kernel task of every miss.

    ``source`` is a corpus-blob path (what the process backend pickles to
    its workers: one short string, whatever the corpus size), an open
    :class:`CorpusBlob` (threads and inline calls slice the parent's
    memmap), or a uint8 buffer of staged bytecodes (``spans`` are offsets
    into it).
    """
    if isinstance(source, str):
        blob = _WORKER_BLOBS.get(source)
        stops = np.asarray(spans, dtype=np.int64).reshape(-1, 2)[:, 1]
        if blob is None or (stops.size and int(stops.max()) > blob.data_size):
            # First use in this worker, or the parent appended since this
            # worker mapped the blob: reopen to pick up the grown index/data.
            blob = CorpusBlob.open(source)
            _WORKER_BLOBS[source] = blob
        source = blob
    if isinstance(source, CorpusBlob):
        return sequence_buffer(*source.spans_buffer(spans))
    return sequence_buffer(*_gather(source, spans))
