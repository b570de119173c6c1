"""Raw-byte feature kernels (no disassembly involved).

Two of the sixteen detectors consume the bytecode's *bytes* directly rather
than its opcode stream: ESCORT embeds each contract as a 256-bin byte-value
frequency vector, and the R2D2-style vision models (ViT+R2D2 and
ECA+EfficientNet) read consecutive byte triplets as RGB pixels.  These pure
functions are the single source of truth for both computations; the
:class:`~repro.features.batch.BatchFeatureService` caches their outputs as
the byte-count and R2D2-image views of its multi-view cache.

This module deliberately imports nothing from the rest of the package so the
batch service (which the extractors import) can depend on it without cycles.
"""

from __future__ import annotations

import numpy as np


def byte_count_vector(code: bytes) -> np.ndarray:
    """256-bin histogram of the raw byte values of ``code`` (``int64``)."""
    if len(code) == 0:
        return np.zeros(256, dtype=np.int64)
    return np.bincount(np.frombuffer(code, dtype=np.uint8), minlength=256).astype(
        np.int64
    )


def r2d2_image_from_bytes(code: bytes, image_size: int) -> np.ndarray:
    """R2-D2-style RGB image of ``code``: ``(3, image_size, image_size)``.

    Consecutive byte triplets become one RGB pixel (intensities in
    ``[0, 1]``), pixels fill the square row-major, and the tail is
    zero-padded.
    """
    capacity = image_size * image_size * 3
    buffer = np.zeros(capacity, dtype=np.float64)
    flat = np.frombuffer(code[:capacity], dtype=np.uint8).astype(np.float64)
    buffer[: len(flat)] = flat / 255.0
    image = buffer.reshape(image_size, image_size, 3)
    return np.transpose(image, (2, 0, 1))
