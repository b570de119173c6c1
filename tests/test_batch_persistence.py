"""Tests for the persistent on-disk cache of :class:`BatchFeatureService`.

Covers the save/load round trip of all three cached views (counts,
sequences, n-gram codes), graceful rejection of corrupt and
stale-version files, statistics surviving a reload, capacity
enforcement on load, and the write-side guarantees: clear errors on
unwritable paths and clobber-free concurrent saves.
"""

import multiprocessing

import numpy as np
import pytest

from repro.features.batch import (
    CACHE_FILE_MAGIC,
    CACHE_FILE_VERSION,
    BatchFeatureService,
    CacheLoadError,
    CacheStats,
    CacheWriteError,
)
from repro.persist import write_npz


def make_codes(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8).tobytes()
        for _ in range(n)
    ]


def saved_arrays(codes, path):
    """The payload arrays of a freshly saved cache file, envelope stripped."""
    populated_service(codes).save(path)
    with np.load(str(path), allow_pickle=False) as data:
        return {name: data[name] for name in data.files if name not in ("magic", "version")}


def rewrite(path, arrays, *, magic=CACHE_FILE_MAGIC, version=CACHE_FILE_VERSION):
    """Write tampered ``arrays`` with a valid integrity digest.

    Going through the real writer keeps the whole-file digest intact, so the
    file gets past the digest check and reaches the check a test targets.
    """
    write_npz(path, arrays, magic=magic, version=version)


def load_error(path) -> str:
    with pytest.raises(CacheLoadError) as excinfo:
        BatchFeatureService().load(path)
    message = str(excinfo.value)
    assert "integrity digest" not in message
    return message


def populated_service(codes):
    service = BatchFeatureService()
    service.count_matrix(codes)
    service.sequences(codes)
    for code in codes:
        service.ngram_codes(code, 3)
    return service


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        codes = make_codes(6, seed=1)
        service = populated_service(codes)
        path = tmp_path / "cache.npz"
        service.save(path)
        restored = BatchFeatureService()
        assert restored.load(path) == len(service)
        assert len(restored) == len(service)
        # Every view is served from the restored cache: no kernel runs.
        kernel_passes = restored.kernel_passes
        for code in codes:
            assert np.array_equal(restored.count_vector(code), service.count_vector(code))
            theirs = service.sequence(code)
            ours = restored.sequence(code)
            assert np.array_equal(ours.opcodes, theirs.opcodes)
            assert np.array_equal(ours.widths, theirs.widths)
            assert np.array_equal(
                restored.ngram_codes(code, 3), service.ngram_codes(code, 3)
            )
        assert restored.kernel_passes == kernel_passes

    def test_stats_survive_reload(self, tmp_path):
        codes = make_codes(4, seed=2)
        service = populated_service(codes)
        service.count_matrix(codes)  # generate some hits on top of the misses
        path = tmp_path / "cache.npz"
        service.save(path)
        restored = BatchFeatureService()
        restored.load(path)
        assert restored.stats == service.stats
        assert restored.sequence_stats == service.sequence_stats
        assert restored.ngram_stats == service.ngram_stats
        assert restored.kernel_passes == service.kernel_passes

    def test_load_resets_counters_the_file_does_not_record(self, tmp_path):
        # The file records hits/misses/evictions of three views plus the
        # kernel passes; every other live counter (spills, spill hits, the
        # byte/image/analysis views) must not survive a load either.
        codes = make_codes(4, seed=12)
        writer = populated_service(codes)
        path = tmp_path / "cache.npz"
        writer.save(path)
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path / "spill")
        service.count_vector(codes[0])
        service.count_vector(codes[1])  # evicts and spills codes[0]
        service.count_vector(codes[0])  # spill hit
        service.byte_counts(codes[0])
        service.r2d2_image(codes[0], 8)
        service.analysis_vector(codes[0])
        assert service.stats.spills >= 1 and service.stats.spill_hits == 1
        service.load(path, grow=True)
        assert service.stats == writer.stats
        assert service.sequence_stats == writer.sequence_stats
        assert service.ngram_stats == writer.ngram_stats
        assert service.kernel_passes == writer.kernel_passes
        assert service.byte_stats == CacheStats()
        assert service.image_stats == CacheStats()
        assert service.analysis_stats == CacheStats()

    def test_empty_service_round_trips(self, tmp_path):
        path = tmp_path / "empty.npz"
        BatchFeatureService().save(path)
        restored = BatchFeatureService()
        assert restored.load(path) == 0
        assert len(restored) == 0

    def test_partial_views_round_trip(self, tmp_path):
        # Entries holding only some views must restore exactly those views.
        sequence_only, ngrams_only = make_codes(2, seed=3)
        service = BatchFeatureService()
        service.sequence(sequence_only)
        service.ngram_codes(ngrams_only, 3)
        path = tmp_path / "cache.npz"
        service.save(path)
        restored = BatchFeatureService()
        restored.load(path)
        assert len(restored) == 2
        passes = restored.kernel_passes
        restored.sequence(sequence_only)
        restored.count_vector(sequence_only)  # derived from the cached sequence
        restored.ngram_codes(ngrams_only, 3)
        assert restored.kernel_passes == passes  # all served from cache
        restored.sequence(ngrams_only)
        assert restored.kernel_passes == passes + 1  # that view was absent

    def test_load_respects_capacity(self, tmp_path):
        codes = make_codes(8, seed=4)
        service = populated_service(codes)
        path = tmp_path / "cache.npz"
        service.save(path)
        small = BatchFeatureService(cache_size=3)
        assert small.load(path) == 3  # returns the *retained* count
        assert len(small) == 3
        assert small.stats.evictions == service.stats.evictions + 5
        # The retained entries are the most recently used ones.
        passes = small.kernel_passes
        small.count_vector(codes[-1])
        assert small.kernel_passes == passes

    def test_load_grow_retains_every_entry(self, tmp_path):
        codes = make_codes(8, seed=4)
        service = populated_service(codes)
        path = tmp_path / "cache.npz"
        service.save(path)
        small = BatchFeatureService(cache_size=3)
        assert small.load(path, grow=True) == 8  # capacity grew to fit
        assert len(small) == 8
        assert small.cache_size == 8
        assert small.stats.evictions == service.stats.evictions
        passes = small.kernel_passes
        for code in codes:
            small.count_vector(code)
        assert small.kernel_passes == passes  # nothing was dropped

    def test_load_grow_keeps_larger_capacity(self, tmp_path):
        path = tmp_path / "cache.npz"
        populated_service(make_codes(2, seed=10)).save(path)
        roomy = BatchFeatureService(cache_size=64)
        roomy.load(path, grow=True)
        assert roomy.cache_size == 64  # grow never shrinks

    def test_load_into_disabled_cache_raises(self, tmp_path):
        # A cache_size=0 service would silently drop every loaded entry
        # while reporting success; that must be an explicit error.
        path = tmp_path / "cache.npz"
        populated_service(make_codes(2, seed=10)).save(path)
        disabled = BatchFeatureService(cache_size=0)
        with pytest.raises(ValueError):
            disabled.load(path)
        assert disabled.stats.evictions == 0

    def test_save_creates_parent_directories(self, tmp_path):
        service = populated_service(make_codes(2, seed=5))
        path = tmp_path / "nested" / "dir" / "cache.npz"
        service.save(path)
        assert path.exists()
        assert BatchFeatureService().load(path) == 2

    def test_save_to_unwritable_parent_raises_clear_error(self, tmp_path):
        # A parent path occupied by a regular file cannot become a directory;
        # that must surface as a domain error naming the target, not a raw
        # FileNotFoundError/FileExistsError out of the temp-file machinery.
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"i am a file, not a directory")
        service = populated_service(make_codes(2, seed=20))
        target = blocker / "cache.npz"
        with pytest.raises(CacheWriteError) as excinfo:
            service.save(target)
        assert str(target) in str(excinfo.value)
        # The failed save never corrupted the live cache.
        assert len(service) == 2


def _concurrent_writer(path, seed, started, release):
    """Child-process body: build a small store and save it repeatedly."""
    service = populated_service(make_codes(4, seed=seed))
    started.wait()
    release.wait()
    for _ in range(5):
        service.save(path)


class TestConcurrentWriters:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork start method",
    )
    def test_two_process_writers_cannot_clobber_each_other(self, tmp_path):
        # Both children hammer the same final path simultaneously.  Each
        # save stages under a unique randomized temp name before its atomic
        # rename, so whatever interleaving happens, the final file is one
        # writer's complete, loadable store — never a truncated mix.
        context = multiprocessing.get_context("fork")
        path = tmp_path / "contested.npz"
        barrier = context.Barrier(2)
        release = context.Event()
        workers = [
            context.Process(
                target=_concurrent_writer, args=(path, seed, barrier, release)
            )
            for seed in (31, 32)
        ]
        for worker in workers:
            worker.start()
        release.set()
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        restored = BatchFeatureService()
        assert restored.load(path) == 4
        # No orphaned staging files were left behind next to the target.
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []


class TestRejection:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CacheLoadError):
            BatchFeatureService().load(tmp_path / "nope.npz")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CacheLoadError):
            BatchFeatureService().load(path)

    def test_truncated_file_rejected(self, tmp_path):
        codes = make_codes(4, seed=6)
        path = tmp_path / "cache.npz"
        populated_service(codes).save(path)
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CacheLoadError):
            BatchFeatureService().load(clipped)

    def test_wrong_magic_rejected(self, tmp_path):
        arrays = saved_arrays(make_codes(3, seed=10), tmp_path / "cache.npz")
        path = tmp_path / "other.npz"
        rewrite(path, arrays, magic="some-other-tool")
        assert f"is not a {CACHE_FILE_MAGIC} file" in load_error(path)

    def test_stale_version_rejected(self, tmp_path):
        arrays = saved_arrays(make_codes(3, seed=11), tmp_path / "cache.npz")
        path = tmp_path / "old.npz"
        rewrite(path, arrays, version=999)
        assert (
            f"stale format version 999 (expected {CACHE_FILE_VERSION})"
            in load_error(path)
        )

    def test_negative_row_indices_rejected(self, tmp_path):
        # A tampered file with a negative row index must not silently attach
        # a view to the wrong bytecode entry via Python negative indexing.
        arrays = saved_arrays(make_codes(3, seed=8), tmp_path / "cache.npz")
        for field, view in (
            ("count_rows", "counts"), ("seq_rows", "sequences"), ("ngram_rows", "n-grams")
        ):
            rows = arrays[field].copy()
            rows[0] = -1
            tampered = tmp_path / f"tampered-{field}.npz"
            rewrite(tampered, {**arrays, field: rows})
            assert f"has malformed {view}" in load_error(tampered)

    def test_out_of_range_sequence_values_rejected(self, tmp_path):
        arrays = saved_arrays(make_codes(3, seed=9), tmp_path / "cache.npz")
        # 0x0C is an undefined byte value: a folded sequence can never carry
        # it, so a file that does is tampered or corrupt.
        for field, bad_value in (("seq_opcodes", 0x0C), ("seq_widths", 64)):
            values = arrays[field].copy()
            values[0] = bad_value
            tampered = tmp_path / f"tampered-{field}.npz"
            rewrite(tampered, {**arrays, field: values})
            assert "out-of-range sequence values" in load_error(tampered)

    def test_failed_load_leaves_service_usable(self, tmp_path):
        codes = make_codes(3, seed=7)
        service = populated_service(codes)
        entries = len(service)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"\x00" * 32)
        with pytest.raises(CacheLoadError):
            service.load(bad)
        # The rejected load never touched the live cache.
        assert len(service) == entries
        passes = service.kernel_passes
        service.count_matrix(codes)
        assert service.kernel_passes == passes
