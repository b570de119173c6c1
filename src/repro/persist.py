"""Shared envelope for validated ``.npz`` persistence files.

Both on-disk caches (the feature store of
:mod:`repro.features.batch` and the corpus cache of
:mod:`repro.chain.corpus_cache`) speak the same envelope protocol: a magic
tag identifying the file kind, an integer format version, and pure-NumPy
payload arrays loaded with ``allow_pickle=False`` so reading a cache file
never executes arbitrary code.  This module owns that protocol in one place
— writers go through :func:`write_npz`, readers through
:func:`open_validated_npz`, which rejects unreadable, corrupt, mistagged,
stale-version and incomplete files by raising the caller's domain error.

Zip member CRCs only cover compressed payload bytes — several local-header
fields are never consulted by ``zipfile``, so a flipped byte there would
load silently.  The writer therefore stamps a whole-file blake2b digest
into the archive comment, and the reader re-derives it over every byte of
the file except the digest's own characters, so any single-byte damage
anywhere in the file is rejected.  A file without the digest (one with its
comment stripped) is rejected too.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Type, Union

import numpy as np

#: Length of the hex integrity digest stamped into the zip comment.
_DIGEST_BYTES = 32


def _integrity_digest(blob: bytes) -> bytes:
    """Whole-file digest over everything but the trailing comment bytes.

    The comment-length field of the end-of-central-directory record IS
    covered (its value is the fixed ``_DIGEST_BYTES`` before the digest is
    computed), so only the digest's own bytes are outside the hash — and
    damage to those fails the comparison directly.
    """
    return hashlib.blake2b(
        blob[:-_DIGEST_BYTES], digest_size=16
    ).hexdigest().encode("ascii")


def write_npz(
    path: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    *,
    magic: str,
    version: int,
    error: Optional[Type[Exception]] = None,
) -> None:
    """Write ``arrays`` plus the ``magic``/``version`` envelope to ``path``.

    Parent directories are created, and the write is atomic: the payload
    goes to a temporary file in the same directory — ``tempfile.mkstemp``
    picks a fresh randomized name per call, so concurrent writers (threads
    or processes) targeting the same ``path`` can never clobber each
    other's staging file — and is renamed over the target, so an
    interrupted or concurrent save never leaves a truncated file at the
    final path.  Writing goes through an open handle so NumPy never appends
    an extension to the requested filename.

    When ``error`` is given, filesystem failures (an unwritable directory,
    a parent path occupied by a regular file, a disk-full ``OSError``) are
    re-raised as ``error`` with the target path named, so callers surface
    their domain error instead of a bare ``OSError``.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, staging = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=path.parent
        )
    except OSError as exc:
        if error is None:
            raise
        raise error(f"cannot write cache file {path}: {exc}") from exc
    try:
        with os.fdopen(descriptor, "wb") as handle:
            np.savez_compressed(
                handle,
                magic=np.array([magic]),
                version=np.array([version], dtype=np.int64),
                **arrays,
            )
        # Stamp the whole-file integrity digest: reserve the comment slot
        # (this rewrites the end-of-central-directory record), hash the
        # final byte layout, then patch the digest in place so the bytes
        # being hashed never include the digest itself.
        with zipfile.ZipFile(staging, "a") as archive:
            archive.comment = b"0" * _DIGEST_BYTES
        with open(staging, "rb") as handle:
            blob = handle.read()
        digest = _integrity_digest(blob)
        with open(staging, "r+b") as handle:
            handle.seek(-_DIGEST_BYTES, os.SEEK_END)
            handle.write(digest)
        os.replace(staging, path)
    except BaseException as exc:
        try:
            os.unlink(staging)
        except OSError:
            pass
        if error is not None and isinstance(exc, OSError):
            raise error(f"cannot write cache file {path}: {exc}") from exc
        raise


@contextmanager
def open_validated_npz(
    path: Union[str, Path],
    *,
    magic: str,
    version: int,
    required: Set[str],
    error: Type[Exception],
) -> Iterator:
    """Open an ``.npz`` written by :func:`write_npz` with the envelope checked.

    Yields the open ``NpzFile`` after validating readability, the magic tag,
    the format version and the presence of every ``required`` array.  Any
    failure — including exceptions the caller's payload parsing raises
    inside the ``with`` block — is re-raised as ``error``; the caller's own
    ``error`` instances pass through unchanged.
    """
    try:
        blob = Path(path).read_bytes()
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            comment = archive.comment
    except Exception as exc:
        raise error(f"unreadable cache file {path}: {exc}") from exc
    if len(comment) != _DIGEST_BYTES or _integrity_digest(blob) != comment:
        raise error(f"corrupt cache file {path}: integrity digest mismatch")
    try:
        data = np.load(io.BytesIO(blob), allow_pickle=False)
    except Exception as exc:
        raise error(f"unreadable cache file {path}: {exc}") from exc
    try:
        with data:
            missing = (required | {"magic", "version"}) - set(data.files)
            if missing:
                raise error(f"cache file {path} is missing arrays: {sorted(missing)}")
            if str(data["magic"][0]) != magic:
                raise error(f"{path} is not a {magic} file")
            found = int(data["version"][0])
            if found != version:
                raise error(
                    f"cache file {path} has stale format version {found} "
                    f"(expected {version})"
                )
            yield data
    except error:
        raise
    except Exception as exc:
        raise error(f"corrupt cache file {path}: {exc}") from exc
