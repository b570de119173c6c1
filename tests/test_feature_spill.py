"""Tests for spill-on-evict caching: eviction stops meaning recompute.

The pins the ISSUE asks for: evicting a cold entry writes its persistable
views to a content-addressed spill file, a follow-up get is a ``spill_hit``
serving a bit-identical array with **zero** new kernel passes — including
across a service ``close()``/reopen (a second service pointed at the same
spill directory), since spill files are keyed by content hash, not by
service identity.
"""

import shutil

import numpy as np
import pytest

from repro.evm.cfg import cfg_metrics_vector
from repro.evm.fastcount import count_opcodes, opcode_sequence
from repro.features.batch import (
    BatchFeatureService,
    CacheLoadError,
    SPILL_FILE_MAGIC,
    SPILL_FILE_VERSION,
    content_key,
)
from repro.persist import open_validated_npz, write_npz


def make_codes(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8).tobytes()
        for _ in range(n)
    ]


def spill_files(spill_dir):
    return sorted(spill_dir.glob("spill-*.npz"))


class TestEvictionSpills:
    def test_eviction_writes_spill_files(self, tmp_path):
        service = BatchFeatureService(cache_size=2, spill_dir=tmp_path)
        codes = make_codes(5, seed=1)
        for code in codes:
            service.count_vector(code)
        assert service.stats.evictions == 3
        assert service.stats.spills == 3
        assert len(spill_files(tmp_path)) == 3
        assert service.sequence_stats.spills == 3  # counts derive from sequences

    def test_no_spill_dir_means_plain_eviction(self, tmp_path):
        service = BatchFeatureService(cache_size=2)
        for code in make_codes(5, seed=2):
            service.count_vector(code)
        assert service.stats.evictions == 3
        assert service.stats.spills == 0

    def test_spill_reload_is_bit_identical_with_zero_passes(self, tmp_path):
        service = BatchFeatureService(cache_size=2, spill_dir=tmp_path)
        codes = make_codes(6, seed=3)
        for code in codes:
            service.count_vector(code)
        evicted = codes[0]
        passes = service.kernel_passes
        hits = service.stats.hits
        vector = service.count_vector(evicted)
        assert np.array_equal(vector, count_opcodes(evicted))
        assert service.kernel_passes == passes  # reload, not recompute
        assert service.stats.spill_hits == 1
        assert service.stats.hits == hits  # spill hits are not plain hits

    def test_sequence_spill_round_trip(self, tmp_path):
        service = BatchFeatureService(cache_size=2, spill_dir=tmp_path)
        codes = make_codes(6, seed=4)
        service.sequences(codes)
        passes = service.kernel_passes
        got = service.sequence(codes[0])
        want = opcode_sequence(codes[0])
        assert np.array_equal(got.opcodes, want.opcodes)
        assert np.array_equal(got.widths, want.widths)
        assert service.kernel_passes == passes
        assert service.sequence_stats.spill_hits == 1

    def test_ngram_spill_round_trip(self, tmp_path):
        service = BatchFeatureService(cache_size=2, spill_dir=tmp_path)
        codes = make_codes(6, seed=5)
        reference = [
            BatchFeatureService().ngram_codes(code, 2) for code in codes
        ]
        for code in codes:
            service.ngram_codes(code, 2)
        got = service.ngram_codes(codes[0], 2)
        assert np.array_equal(got, reference[0])
        assert service.ngram_stats.spill_hits == 1

    def test_analysis_spill_round_trip(self, tmp_path):
        service = BatchFeatureService(cache_size=2, spill_dir=tmp_path)
        codes = make_codes(6, seed=6)
        for code in codes:
            service.analysis_vector(code)
        passes = service.kernel_passes
        got = service.analysis_vector(codes[0])
        assert np.array_equal(got, cfg_metrics_vector(codes[0]))
        assert service.kernel_passes == passes
        assert service.analysis_stats.spill_hits == 1

    def test_spill_survives_service_close_and_reopen(self, tmp_path):
        first = BatchFeatureService(cache_size=2, spill_dir=tmp_path)
        codes = make_codes(6, seed=7)
        expected = first.count_matrix(codes)
        first.close()
        second = BatchFeatureService(cache_size=8, spill_dir=tmp_path)
        # Entries the first service spilled must serve the second with
        # zero kernel passes; entries it kept in memory (never spilled)
        # are recomputed.
        spilled = {path.name[len("spill-"):-len(".npz")] for path in spill_files(tmp_path)}
        for row, code in enumerate(codes):
            if content_key(code).hex() not in spilled:
                continue
            vector = second.count_vector(code)
            assert np.array_equal(vector, expected[row])
        assert second.kernel_passes == 0
        assert second.stats.spill_hits == len(spilled & {content_key(c).hex() for c in codes})

    def test_spill_hits_count_toward_hit_rate(self, tmp_path):
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b = make_codes(2, seed=8)
        service.count_vector(a)
        service.count_vector(b)  # evicts + spills a
        service.count_vector(a)  # spill hit
        assert service.stats.spill_hits == 1
        assert service.stats.lookups == 3
        assert service.stats.hit_rate == pytest.approx(1 / 3)

    def test_respilling_an_unchanged_entry_writes_nothing(self, tmp_path):
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b = make_codes(2, seed=9)
        service.count_vector(a)
        service.count_vector(b)  # spills a
        assert service.stats.spills == 1
        mtime = spill_files(tmp_path)[0].stat().st_mtime_ns
        service.count_vector(a)  # reload a (spills b), evicting b -> a stays
        service.count_vector(b)  # evicts a again — but its file is current
        assert service.stats.spills == 2  # only b's spill was added
        assert spill_files(tmp_path)[0].stat().st_mtime_ns == mtime

    def test_new_view_after_reload_respills(self, tmp_path):
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b = make_codes(2, seed=10)
        service.sequence(a)
        service.sequence(b)          # spills a (sequence only)
        service.sequence(a)          # reload a from spill
        service.ngram_codes(a, 2)    # new persistable view -> spill is stale
        service.sequence(b)          # evicts a: must rewrite its spill file
        reloaded = BatchFeatureService(cache_size=4, spill_dir=tmp_path)
        got = reloaded.ngram_codes(a, 2)
        assert np.array_equal(got, BatchFeatureService().ngram_codes(a, 2))
        assert reloaded.ngram_stats.spill_hits == 1

    def test_corrupt_spill_file_reads_as_miss_and_is_deleted(self, tmp_path):
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b = make_codes(2, seed=11)
        service.count_vector(a)
        service.count_vector(b)
        path = spill_files(tmp_path)[0]
        path.write_bytes(b"garbage")
        passes = service.kernel_passes
        vector = service.count_vector(a)
        assert np.array_equal(vector, count_opcodes(a))
        assert service.kernel_passes == passes + 1  # recomputed
        assert service.stats.spill_hits == 0
        assert not path.exists()

    def test_spill_file_of_another_contract_reads_as_miss(self, tmp_path):
        # Spill files are named by content hash, but the name is not
        # trusted: a file holding another contract's views must never be
        # served for this one.
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b, c = make_codes(3, seed=15)
        service.count_vector(a)
        service.count_vector(b)  # spills a
        impostor = tmp_path / f"spill-{content_key(c).hex()}.npz"
        shutil.copy(tmp_path / f"spill-{content_key(a).hex()}.npz", impostor)
        passes = service.kernel_passes
        vector = service.count_vector(c)
        assert np.array_equal(vector, count_opcodes(c))
        assert service.kernel_passes == passes + 1  # recomputed
        assert service.stats.spill_hits == 0
        assert not impostor.exists()

    def test_old_spill_format_reads_as_miss(self, tmp_path):
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b = make_codes(2, seed=16)
        service.count_vector(a)
        service.count_vector(b)  # spills a
        path = tmp_path / f"spill-{content_key(a).hex()}.npz"
        with np.load(path) as data:
            arrays = {
                name: data[name]
                for name in data.files
                if name not in ("magic", "version")
            }
        write_npz(path, arrays, magic=SPILL_FILE_MAGIC, version=SPILL_FILE_VERSION - 1)
        # The digest and magic hold: only the version check rejects the file.
        with pytest.raises(CacheLoadError) as excinfo:
            with open_validated_npz(
                path,
                magic=SPILL_FILE_MAGIC,
                version=SPILL_FILE_VERSION,
                required=set(arrays),
                error=CacheLoadError,
            ):
                pass
        assert "stale format version" in str(excinfo.value)
        passes = service.kernel_passes
        assert np.array_equal(service.count_vector(a), count_opcodes(a))
        assert service.kernel_passes == passes + 1
        assert service.stats.spill_hits == 0
        assert not path.exists()

    def test_cache_clear_removes_spill_files(self, tmp_path):
        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        for code in make_codes(4, seed=12):
            service.count_vector(code)
        assert spill_files(tmp_path)
        service.cache_clear()
        assert spill_files(tmp_path) == []
        assert service.stats.spills == 0

    def test_cache_size_zero_never_touches_spills(self, tmp_path):
        service = BatchFeatureService(cache_size=0, spill_dir=tmp_path)
        for code in make_codes(3, seed=13):
            service.count_vector(code)
        assert spill_files(tmp_path) == []
        assert service.stats.spills == 0
        assert service.stats.spill_hits == 0

    def test_spill_file_magic(self, tmp_path):
        import zipfile

        service = BatchFeatureService(cache_size=1, spill_dir=tmp_path)
        a, b = make_codes(2, seed=14)
        service.count_vector(a)
        service.count_vector(b)
        path = spill_files(tmp_path)[0]
        with zipfile.ZipFile(path) as archive:
            assert "magic.npy" in archive.namelist()
        data = np.load(path, allow_pickle=False)
        assert str(data["magic"][0]) == SPILL_FILE_MAGIC
