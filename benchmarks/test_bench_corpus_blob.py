"""Bench: process-backend extraction from a corpus blob vs staged buffers.

Every cache miss is decoded by the one buffer kernel; what differs between
the two arms is where the bytes come from.  The **blob** arm attaches a
:class:`~repro.features.corpus.CorpusBlob`, so process workers receive
``(blob_path, spans)`` and slice their own read-only memmap — corpus bytes
never cross the pipe.  The **buffer** arm has no blob: the parent stages
the misses of each task into one in-memory buffer and ships ``(buffer,
spans)`` to the workers.  Both arms extract a blown-up bench corpus (the
unique bytecodes tiled with distinguishing suffix bytes) cold, interleaved
round-robin so machine noise lands on both.

The outputs must be bit-identical with equal ``kernel_passes``; the ratio
is printed, not pinned — both arms share the kernel, so it measures only
the cost of shipping the bytes.  Parent peak RSS is printed too: the blob
arm only ever touches the memmap lazily.
"""

import resource

import numpy as np

from conftest import interleaved_best

from repro.features.batch import BatchFeatureService
from repro.features.corpus import CorpusBlob
from repro.features.store import corpus_fingerprint

#: How many suffix-tagged copies of each unique bytecode to add; sized so
#: one cold pass of either arm takes well over 100 ms.
TILE_FACTOR = 15


def inflate_corpus(bytecodes):
    """Tile unique codes with distinguishing suffixes."""
    unique = list({code for code in bytecodes if code})
    inflated = list(bytecodes)
    for tile in range(1, TILE_FACTOR + 1):
        suffix = bytes([tile, 0x5B])  # distinct tail keeps content keys apart
        inflated.extend(code + suffix for code in unique)
    return inflated


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_bench_blob_spans_vs_staged_buffers(benchmark, corpus, tmp_path):
    bytecodes = inflate_corpus([record.bytecode for record in corpus.records])
    blob = CorpusBlob.for_corpus(tmp_path, bytecodes, corpus_fingerprint(bytecodes))

    def service(**kwargs):
        return BatchFeatureService(
            cache_size=len(bytecodes), max_workers=2, executor="process", **kwargs
        )

    arms = {"blob": service(corpus_blob=blob), "buffer": service()}
    results = {}

    def extract(name):
        def run():
            arm = arms[name]
            arm.cache_clear()
            results[name] = (arm.sequences(bytecodes), arm.count_matrix(bytecodes))

        return run

    # Fork both pools before timing so neither side pays startup cost.
    for arm in arms.values():
        arm.warm_pool()
    try:
        rss_before = peak_rss_mb()
        blob_time, buffer_time = benchmark.pedantic(
            lambda: interleaved_best([extract("blob"), extract("buffer")]),
            rounds=1,
            iterations=1,
        )
        rss_after = peak_rss_mb()
    finally:
        for arm in arms.values():
            arm.close()

    blob_sequences, blob_matrix = results["blob"]
    buffer_sequences, buffer_matrix = results["buffer"]
    assert np.array_equal(blob_matrix, buffer_matrix)
    for got, want in zip(blob_sequences, buffer_sequences):
        assert np.array_equal(got.opcodes, want.opcodes)
        assert np.array_equal(got.widths, want.widths)
    assert arms["blob"].kernel_passes == arms["buffer"].kernel_passes

    total_bytes = sum(len(code) for code in bytecodes)
    print(
        f"\n[corpus-blob] {len(bytecodes)} contracts ({total_bytes / 1e6:.1f} MB): "
        f"blob spans {blob_time:.4f}s, staged buffers {buffer_time:.4f}s "
        f"(buffer/blob {buffer_time / blob_time:.2f}x) | parent peak RSS "
        f"{rss_before:.0f} -> {rss_after:.0f} MB"
    )
