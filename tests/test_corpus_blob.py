"""Tests for the memmap corpus blob and the zero-copy span path.

Two families: the on-disk format contract of :class:`CorpusBlob` (magic /
version / index validation, idempotent appends, crash self-healing), and
the bit-identity of blob-backed extraction against the plain in-memory
path for every persistable view over every executor backend — the
acceptance pin of the zero-copy corpus plane.
"""

import struct

import numpy as np
import pytest

from repro.evm.fastcount import count_opcodes, opcode_sequence
from repro.features.batch import BatchFeatureService, content_key
from repro.features.corpus import (
    BLOB_HEADER_SIZE,
    BLOB_MAGIC,
    BLOB_VERSION,
    CorpusBlob,
    CorpusBlobError,
    extract_spans,
)
from repro.features.store import corpus_fingerprint


def make_codes(n: int, seed: int = 0, max_len: int = 300):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=int(size), dtype=np.uint8).tobytes()
        for size in rng.integers(0, max_len, size=n)
    ]


class TestOnDiskFormat:
    def test_create_writes_header_and_empty_index(self, tmp_path):
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        raw = blob.path.read_bytes()
        assert raw[:16] == BLOB_MAGIC
        assert struct.unpack("<I", raw[16:20])[0] == BLOB_VERSION
        assert len(raw) == BLOB_HEADER_SIZE
        assert blob.index_path.exists()
        assert len(blob) == 0
        assert blob.data_bytes == 0

    def test_append_then_open_round_trips(self, tmp_path):
        codes = make_codes(25, seed=1)
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        added = blob.append(codes)
        unique = {content_key(code) for code in codes}
        assert added == len(unique)
        reopened = CorpusBlob.open(blob.path)
        assert len(reopened) == len(unique)
        for code in codes:
            assert reopened.code(content_key(code)) == code

    def test_append_is_idempotent_and_content_addressed(self, tmp_path):
        codes = make_codes(10, seed=2)
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append(codes)
        size = blob.path.stat().st_size
        assert blob.append(codes) == 0
        assert blob.append([codes[0], codes[0]]) == 0
        assert blob.path.stat().st_size == size

    def test_spans_are_absolute_offsets(self, tmp_path):
        codes = [b"\x60\x01", b"\x00\x01\x02"]
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append(codes)
        start, stop = blob.span(content_key(codes[0]))
        assert start == BLOB_HEADER_SIZE
        assert stop - start == len(codes[0])
        assert bytes(blob.view(start, stop)) == codes[0]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "corpus.blob"
        blob = CorpusBlob.create(path)
        blob.append(make_codes(3, seed=3))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorpusBlobError):
            CorpusBlob.open(path)

    def test_stale_version_rejected(self, tmp_path):
        path = tmp_path / "corpus.blob"
        CorpusBlob.create(path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", BLOB_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorpusBlobError):
            CorpusBlob.open(path)

    def test_truncated_data_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.blob"
        blob = CorpusBlob.create(path)
        blob.append(make_codes(5, seed=4, max_len=100))
        with open(path, "r+b") as handle:
            handle.truncate(blob.data_size - 1)
        with pytest.raises(CorpusBlobError):
            CorpusBlob.open(path)

    def test_missing_index_rejected(self, tmp_path):
        path = tmp_path / "corpus.blob"
        blob = CorpusBlob.create(path)
        blob.index_path.unlink()
        with pytest.raises(CorpusBlobError):
            CorpusBlob.open(path)

    def test_dead_bytes_from_crashed_append_are_overwritten(self, tmp_path):
        # Simulate a crash between the data write and the index rewrite:
        # garbage past data_size must be ignored on open and reclaimed by
        # the next append.
        path = tmp_path / "corpus.blob"
        blob = CorpusBlob.create(path)
        blob.append([b"\x60\x01"])
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")
        reopened = CorpusBlob.open(path)
        code = b"\x00\x01"
        reopened.append([code])
        assert reopened.code(content_key(code)) == code
        final = CorpusBlob.open(path)
        assert final.data_size == path.stat().st_size

    def test_for_corpus_builds_once_and_reuses(self, tmp_path):
        codes = make_codes(12, seed=5)
        fingerprint = corpus_fingerprint(codes)
        blob = CorpusBlob.for_corpus(tmp_path, codes, fingerprint)
        assert blob.path.name == f"corpus-{fingerprint}.blob"
        mtime = blob.path.stat().st_mtime_ns
        again = CorpusBlob.for_corpus(tmp_path, codes, fingerprint)
        assert again.path == blob.path
        assert blob.path.stat().st_mtime_ns == mtime

    def test_for_corpus_rebuilds_corrupt_blob(self, tmp_path):
        codes = make_codes(6, seed=6)
        fingerprint = corpus_fingerprint(codes)
        blob = CorpusBlob.for_corpus(tmp_path, codes, fingerprint)
        blob.path.write_bytes(b"not a blob at all")
        rebuilt = CorpusBlob.for_corpus(tmp_path, codes, fingerprint)
        for code in codes:
            assert rebuilt.code(content_key(code)) == code

    def test_view_bounds_checked(self, tmp_path):
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append([b"\x00\x01\x02"])
        with pytest.raises(CorpusBlobError):
            blob.view(0, 4)
        with pytest.raises(CorpusBlobError):
            blob.view(BLOB_HEADER_SIZE, blob.data_size + 1)


class TestSpanExtraction:
    def test_contiguous_spans_are_zero_copy(self, tmp_path):
        codes = [b"\x60\x01", b"\x00", b"\x01\x02\x03"]
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append(codes)
        spans = [blob.span(content_key(code)) for code in codes]
        buffer, lengths = blob.spans_buffer(spans)
        assert buffer.base is not None  # a view into the memmap, not a copy
        assert lengths.tolist() == [2, 1, 3]

    def test_gather_path_for_non_contiguous_spans(self, tmp_path):
        codes = [b"\x60\x01", b"\x00", b"\x01\x02\x03"]
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append(codes)
        spans = [blob.span(content_key(code)) for code in (codes[2], codes[0])]
        buffer, lengths = blob.spans_buffer(spans)
        assert bytes(buffer) == codes[2] + codes[0]
        assert lengths.tolist() == [3, 2]

    def test_extract_matches_batch_kernels(self, tmp_path):
        codes = make_codes(40, seed=7)
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append(codes)
        unique, seen = [], set()
        for code in codes:
            key = content_key(code)
            if key not in seen:
                seen.add(key)
                unique.append(code)
        spans = [blob.span(content_key(code)) for code in unique]
        packed = extract_spans(blob, spans)
        for got, code in zip(packed.split(), unique):
            want = opcode_sequence(code)
            assert np.array_equal(got.opcodes, want.opcodes)
            assert np.array_equal(got.widths, want.widths)
        for row, code in zip(packed.counts(), unique):
            assert np.array_equal(row, count_opcodes(code))

    def test_worker_entry_point_reopens_after_append(self, tmp_path):
        # extract_spans caches blobs per process; a span past the cached
        # mapping (the parent appended since) must remap, not fail.
        first, second = make_codes(2, seed=8, max_len=50)
        blob = CorpusBlob.create(tmp_path / "corpus.blob")
        blob.append([first])
        span1 = blob.span(content_key(first))
        extract_spans(str(blob.path), [span1])
        blob.append([second])
        span2 = blob.span(content_key(second))
        matrix = extract_spans(str(blob.path), [span2]).counts()
        assert np.array_equal(matrix[0], count_opcodes(second))


class TestServiceBitIdentity:
    """Blob-backed extraction vs. the in-memory path, over all executors."""

    EXECUTORS = [("thread", None), ("thread", 3), ("process", 2)]

    @pytest.fixture()
    def corpus(self):
        codes = make_codes(30, seed=9)
        return codes + codes[:5]  # duplicates exercise dedup

    @pytest.fixture()
    def blob(self, tmp_path, corpus):
        return CorpusBlob.for_corpus(tmp_path, corpus, corpus_fingerprint(corpus))

    @pytest.mark.parametrize("executor,workers", EXECUTORS)
    def test_all_persistable_views_bit_identical(
        self, corpus, blob, executor, workers
    ):
        reference = BatchFeatureService()
        ref_counts = reference.count_matrix(corpus)
        ref_sequences = reference.sequences(corpus)
        ref_ngrams = reference.ngram_codes_batch(corpus, 2)
        ref_analysis = reference.analysis_matrix(corpus)
        service = BatchFeatureService(
            executor=executor,
            max_workers=workers,
            corpus_blob=blob,
            chunk_size=8,
        )
        try:
            assert np.array_equal(service.count_matrix(corpus), ref_counts)
            for got, want in zip(service.sequences(corpus), ref_sequences):
                assert np.array_equal(got.opcodes, want.opcodes)
                assert np.array_equal(got.widths, want.widths)
            for got, want in zip(
                service.ngram_codes_batch(corpus, 2), ref_ngrams
            ):
                assert np.array_equal(got, want)
            assert np.array_equal(service.analysis_matrix(corpus), ref_analysis)
            assert service.kernel_passes == reference.kernel_passes
        finally:
            service.close()

    def test_no_cache_blob_counts_bit_identical(self, corpus, blob):
        reference = BatchFeatureService()
        ref_counts = reference.count_matrix(corpus)
        service = BatchFeatureService(cache_size=0, corpus_blob=blob)
        assert np.array_equal(service.count_matrix(corpus), ref_counts)

    def test_blob_misses_fall_back_to_byte_path(self, tmp_path, corpus):
        # A blob covering only part of the corpus: indexed keys take blob
        # spans, the rest are staged in memory; results merge bit-identically.
        half = corpus[: len(corpus) // 2]
        blob = CorpusBlob.for_corpus(tmp_path, half, corpus_fingerprint(half))
        reference = BatchFeatureService()
        service = BatchFeatureService(corpus_blob=blob)
        assert np.array_equal(
            service.count_matrix(corpus), reference.count_matrix(corpus)
        )

    def test_attach_blob_after_construction(self, corpus, blob):
        reference = BatchFeatureService()
        service = BatchFeatureService()
        service.attach_blob(blob)
        assert service.corpus_blob is blob
        assert np.array_equal(
            service.count_matrix(corpus), reference.count_matrix(corpus)
        )

    def test_scalar_lookups_read_the_blob(self, corpus, blob, monkeypatch):
        # count_vector/sequence misses of blob-indexed codes are decoded
        # from the memmap like batch misses: nothing is staged in memory.
        import repro.features.batch as batch

        def no_staging(codes):
            raise AssertionError("a blob-indexed miss was staged")

        monkeypatch.setattr(batch, "pack_codes", no_staging)
        service = BatchFeatureService(corpus_blob=blob)
        assert np.array_equal(service.count_vector(corpus[0]), count_opcodes(corpus[0]))
        got = service.sequence(corpus[1])
        assert np.array_equal(got.opcodes, opcode_sequence(corpus[1]).opcodes)
        assert service.kernel_passes == 2


class TestOneMissPath:
    """Every view equals the per-code references on every route a miss can
    take: inline, thread or process; blob or staged buffer; cache on or off."""

    @pytest.mark.parametrize("cache_size", [4096, 0])
    @pytest.mark.parametrize("use_blob", [True, False])
    @pytest.mark.parametrize("executor,workers", TestServiceBitIdentity.EXECUTORS)
    def test_every_view_matches_per_code_references(
        self, tmp_path, executor, workers, use_blob, cache_size
    ):
        from repro.evm.cfg import cfg_metrics_vector
        from repro.features.rawbytes import byte_count_vector, r2d2_image_from_bytes

        codes = make_codes(20, seed=21)
        corpus = codes + codes[:4]
        blob = (
            CorpusBlob.for_corpus(tmp_path, corpus, corpus_fingerprint(corpus))
            if use_blob
            else None
        )
        with BatchFeatureService(
            cache_size=cache_size,
            max_workers=workers,
            executor=executor,
            chunk_size=4,
            corpus_blob=blob,
        ) as service:
            counts = service.count_matrix(corpus)
            sequences = service.sequences(corpus)
            ngrams = service.ngram_codes_batch(corpus, 2)
            analysis = service.analysis_matrix(corpus)
            byte_counts = service.byte_count_matrix(corpus)
            images = service.r2d2_images(corpus, 8)
            scalar = [service.count_vector(code) for code in corpus]
        for row, code in enumerate(corpus):
            want = opcode_sequence(code)
            assert np.array_equal(counts[row], count_opcodes(code))
            assert np.array_equal(scalar[row], count_opcodes(code))
            assert np.array_equal(sequences[row].opcodes, want.opcodes)
            assert np.array_equal(sequences[row].widths, want.widths)
            assert np.array_equal(
                ngrams[row], BatchFeatureService(cache_size=0).ngram_codes(code, 2)
            )
            assert np.array_equal(analysis[row], cfg_metrics_vector(code))
            assert np.array_equal(byte_counts[row], byte_count_vector(code))
            assert np.array_equal(images[row], r2d2_image_from_bytes(code, 8))
