"""Tests for the persistent feature store and its driver wiring.

Covers corpus fingerprinting, cold→warm store sessions, corrupt-file
recovery, the one-byte-corruption guard on the persistence format, and the
end-to-end warm-start guarantee: running an experiment driver twice with
``Scale.feature_cache_dir`` set performs zero kernel passes on the second
run and produces identical matrices.
"""

import dataclasses
import zipfile

import numpy as np
import pytest

from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.scalability import run_scalability
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.features.batch import BatchFeatureService, CacheLoadError
from repro.features.store import (
    FeatureStore,
    corpus_fingerprint,
    feature_session,
    last_session,
)


def make_codes(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=int(rng.integers(1, 200)), dtype=np.uint8).tobytes()
        for _ in range(n)
    ]


def cached_scale(scale, tmp_path, **extra):
    """A copy of ``scale`` with the persistent feature store turned on."""
    return dataclasses.replace(scale, feature_cache_dir=str(tmp_path), **extra)


class TestCorpusFingerprint:
    def test_deterministic(self):
        codes = make_codes(5, seed=1)
        assert corpus_fingerprint(codes) == corpus_fingerprint(codes)

    def test_order_and_duplicate_insensitive(self):
        codes = make_codes(5, seed=2)
        shuffled = list(reversed(codes)) + codes[:2]
        assert corpus_fingerprint(codes) == corpus_fingerprint(shuffled)

    def test_content_sensitive(self):
        codes = make_codes(5, seed=3)
        assert corpus_fingerprint(codes) != corpus_fingerprint(codes[:-1])

    def test_hex_and_bytes_agree(self):
        code = b"\x60\x01\x60\x02\x01"
        assert corpus_fingerprint([code]) == corpus_fingerprint(["0x6001600201"])


class TestStoreSession:
    def test_cold_then_warm(self, tmp_path):
        codes = make_codes(8, seed=4)
        store = FeatureStore(tmp_path)
        with store.session(codes) as cold:
            reference = cold.service.count_matrix(codes)
        assert not cold.warm_start
        assert cold.saved
        assert cold.kernel_passes > 0
        assert cold.path.exists()

        with store.session(codes) as warmed:
            matrix = warmed.service.count_matrix(codes)
        assert warmed.warm_start
        assert warmed.entries_loaded == len(set(codes))
        assert warmed.kernel_passes == 0
        assert not warmed.saved  # no new work, nothing to rewrite
        assert warmed.hit_rate == 1.0
        assert np.array_equal(matrix, reference)
        assert (store.file_hits, store.file_misses) == (1, 1)

    def test_session_installs_default_service(self, tmp_path):
        codes = make_codes(4, seed=5)
        from repro.features.batch import get_default_service

        with FeatureStore(tmp_path).session(codes) as session:
            assert get_default_service() is session.service
        assert get_default_service() is not session.service

    def test_new_views_trigger_resave(self, tmp_path):
        codes = make_codes(4, seed=6)
        store = FeatureStore(tmp_path)
        with store.session(codes):
            pass
        # A *sequence* of an unseen bytecode is a real new kernel pass.
        extra = make_codes(2, seed=7)
        with store.session(codes) as session:
            session.service.sequences(extra)
        assert session.warm_start
        assert session.kernel_passes > 0
        assert session.saved

    def test_ngram_views_persist_without_kernel_passes(self, tmp_path):
        # The warm-up covers sequences + counts only; n-gram codes are
        # kernel-free (no disassembly) yet must still be saved back, or an
        # SCSGuard-style run would recompute them on every invocation.
        codes = make_codes(4, seed=12)
        store = FeatureStore(tmp_path)
        with store.session(codes):
            pass
        with store.session(codes) as ngram_run:
            for code in codes:
                ngram_run.service.ngram_codes(code, 2)
        assert ngram_run.warm_start
        assert ngram_run.kernel_passes == 0
        assert ngram_run.ngram_misses == len(set(codes))
        assert ngram_run.saved  # dirty via the n-gram view alone
        with store.session(codes) as warm:
            for code in codes:
                warm.service.ngram_codes(code, 2)
        assert warm.kernel_passes == 0 and warm.ngram_misses == 0
        assert not warm.saved
        assert warm.store is store and store.file_hits == 2

    def test_corrupt_file_is_cold_start_and_overwritten(self, tmp_path):
        codes = make_codes(5, seed=8)
        store = FeatureStore(tmp_path)
        with store.session(codes) as first:
            pass
        first.path.write_bytes(b"garbage, not a zip archive")
        with store.session(codes) as second:
            pass
        assert not second.warm_start
        assert second.saved
        with store.session(codes) as third:
            pass
        assert third.warm_start
        assert third.kernel_passes == 0

    def test_session_releases_service_but_keeps_telemetry(self, tmp_path):
        codes = make_codes(5, seed=13)
        with FeatureStore(tmp_path).session(codes) as session:
            live = session.service
            assert live is not None
        # The close snapshotted the counters and dropped the cache reference,
        # so last_session() cannot pin a finished corpus' arrays in memory.
        assert session.service is None
        assert session.kernel_passes > 0
        assert session.lookups > 0 and session.hit_rate >= 0.0
        assert live._pool is None  # worker pool released too

    def test_fresh_service_skips_the_warm_sweep(self, smoke_scale, tmp_path):
        # MEM fresh_service cells extract through their own cold services,
        # so the session pre-warm would be pure wasted work.
        codes = make_codes(5, seed=14)
        scale = cached_scale(smoke_scale, tmp_path, fresh_service=True)
        with feature_session(scale, codes) as session:
            assert session is not None
            assert session.lookups == 0  # no sweep happened
            assert session.kernel_passes == 0
        assert session.saved  # first sight of this corpus still records it

    def test_unconfigured_feature_session_is_noop(self, smoke_scale):
        with feature_session(smoke_scale, [b"\x00"]) as session:
            assert session is None
        with feature_session(None, [b"\x00"]) as session:
            assert session is None

    def test_noop_save_leaves_file_untouched(self, tmp_path):
        # Regression: a pure-warm session used to rewrite the cache file
        # byte-for-byte on every exit, churning mtimes and rsync state.
        codes = make_codes(6, seed=15)
        store = FeatureStore(tmp_path)
        with store.session(codes) as cold:
            cold.service.count_matrix(codes)
        raw = cold.path.read_bytes()
        mtime = cold.path.stat().st_mtime_ns
        with store.session(codes) as warm:
            warm.service.count_matrix(codes)
            warm.service.sequences(codes)
        assert warm.warm_start and not warm.dirty
        assert not warm.saved
        assert warm.path.stat().st_mtime_ns == mtime
        assert warm.path.read_bytes() == raw

    def test_analysis_views_dirty_the_session(self, tmp_path):
        # Analysis vectors derive from already-cached sequences (zero kernel
        # passes on a warm run) yet are persistable — computing them must
        # still mark the session dirty or they would never reach disk.
        codes = make_codes(4, seed=16)
        store = FeatureStore(tmp_path)
        with store.session(codes):
            pass
        with store.session(codes) as analysis_run:
            analysis_run.service.analysis_matrix(codes)
        assert analysis_run.kernel_passes == 0
        assert analysis_run.analysis_misses == len(set(codes))
        assert analysis_run.saved
        with store.session(codes) as warm:
            warm.service.analysis_matrix(codes)
        assert warm.analysis_misses == 0
        assert not warm.saved


class TestBlobSessions:
    """FeatureStore wiring for the corpus-blob plane."""

    def test_session_builds_and_attaches_blob(self, tmp_path):
        codes = make_codes(6, seed=17)
        store = FeatureStore(tmp_path / "cache", blob_dir=tmp_path / "blobs")
        with store.session(codes) as session:
            assert session.blob is not None
            assert session.service.corpus_blob is session.blob
            assert len(session.blob) == len(set(codes))
            matrix = session.service.count_matrix(codes)
        reference = BatchFeatureService().count_matrix(codes)
        assert np.array_equal(matrix, reference)
        assert session.blob.path.parent == tmp_path / "blobs"

    def test_blob_only_store_has_no_cache_file(self, tmp_path):
        codes = make_codes(5, seed=18)
        store = FeatureStore(None, blob_dir=tmp_path)
        with store.session(codes) as session:
            assert session.path is None
            assert session.blob is not None
            session.service.count_matrix(codes)
        assert not session.saved
        assert list(tmp_path.glob("corpus-*.blob"))

    def test_sessions_share_spill_dir_under_cache_dir(self, tmp_path):
        store = FeatureStore(tmp_path)
        assert store.spill_dir == tmp_path / "spill"
        codes = make_codes(4, seed=19)
        with store.session(codes) as session:
            assert session.service.spill_dir == store.spill_dir

    def test_scale_knob_threads_blob_through_feature_session(
        self, smoke_scale, tmp_path
    ):
        codes = make_codes(5, seed=20)
        scale = dataclasses.replace(
            smoke_scale, corpus_blob_dir=str(tmp_path / "blobs")
        )
        with feature_session(scale, codes) as session:
            assert session is not None
            assert session.blob is not None
            matrix = session.service.count_matrix(codes)
        assert np.array_equal(matrix, BatchFeatureService().count_matrix(codes))
        assert list((tmp_path / "blobs").glob("corpus-*.blob"))


class TestSingleByteCorruption:
    """Tier-1 guard: the persistence format must reject byte-level damage."""

    def test_one_flipped_byte_rejected(self, tmp_path):
        codes = make_codes(6, seed=9)
        store = FeatureStore(tmp_path)
        with store.session(codes) as session:
            pass
        payload = bytearray(session.path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        session.path.write_bytes(bytes(payload))
        with pytest.raises(CacheLoadError):
            BatchFeatureService().load(session.path)
        # The store layer degrades to a cold start instead of erroring out.
        with store.session(codes) as recovered:
            pass
        assert not recovered.warm_start
        assert recovered.saved

    def test_every_byte_offset_rejected(self, tmp_path):
        # The whole-file integrity digest makes the guard position-free:
        # a flip at ANY offset — member data, zip headers the reader never
        # consults, the digest itself — must be rejected.
        codes = make_codes(4, seed=21)
        store = FeatureStore(tmp_path)
        with store.session(codes) as session:
            pass
        pristine = session.path.read_bytes()
        for offset in range(len(pristine)):
            payload = bytearray(pristine)
            payload[offset] ^= 0xFF
            session.path.write_bytes(bytes(payload))
            with pytest.raises(CacheLoadError):
                BatchFeatureService().load(session.path)
        session.path.write_bytes(pristine)
        BatchFeatureService().load(session.path)  # pristine file still loads


    def test_stripped_digest_rejected(self, tmp_path):
        # Zip CRCs never cover the local header's modification time (offset
        # 10), so with its digest comment stripped a file damaged there would
        # load; the digest is therefore required on every file.
        codes = make_codes(4, seed=21)
        store = FeatureStore(tmp_path)
        with store.session(codes) as session:
            pass
        with zipfile.ZipFile(session.path, "a") as archive:
            archive.comment = b""
        payload = bytearray(session.path.read_bytes())
        payload[10] ^= 0xFF
        session.path.write_bytes(bytes(payload))
        with pytest.raises(CacheLoadError):
            BatchFeatureService().load(session.path)
        with store.session(codes) as recovered:
            pass
        assert not recovered.warm_start
        assert recovered.saved


class TestDriverWarmStart:
    def test_fig3_second_run_is_warm_and_identical(self, dataset, smoke_scale, tmp_path):
        scale = cached_scale(smoke_scale, tmp_path)
        first = run_fig3(dataset, scale=scale)
        cold = last_session()
        assert cold is not None and not cold.warm_start
        assert cold.kernel_passes > 0 and cold.saved

        second = run_fig3(dataset, scale=scale)
        warm = last_session()
        assert warm is not cold
        assert warm.warm_start
        assert warm.kernel_passes == 0
        assert not warm.saved
        for opcode in first.opcodes:
            assert np.array_equal(first.benign_usage[opcode], second.benign_usage[opcode])
            assert np.array_equal(
                first.phishing_usage[opcode], second.phishing_usage[opcode]
            )

    def test_fig3_explicit_service_bypasses_store(self, dataset, smoke_scale, tmp_path):
        scale = cached_scale(smoke_scale, tmp_path)
        service = BatchFeatureService()
        marker = last_session()
        run_fig3(dataset, service=service, scale=scale)
        assert last_session() is marker  # no session was opened
        assert list(tmp_path.iterdir()) == []
        assert service.kernel_passes > 0

    def test_table2_second_run_is_warm(self, dataset, smoke_scale, tmp_path):
        scale = cached_scale(smoke_scale, tmp_path)
        first = run_table2(dataset, scale, model_names=["Random Forest"])
        assert not last_session().warm_start
        second = run_table2(dataset, scale, model_names=["Random Forest"])
        warm = last_session()
        assert warm.warm_start
        assert warm.kernel_passes == 0
        assert first.rows() == second.rows()

    def test_scalability_second_run_is_warm(self, dataset, smoke_scale, tmp_path):
        scale = cached_scale(smoke_scale, tmp_path)
        subset = dataset.split_fraction(0.5, seed=1)
        first = run_scalability(subset, scale, model_names=["Random Forest"])
        assert not last_session().warm_start
        second = run_scalability(subset, scale, model_names=["Random Forest"])
        warm = last_session()
        assert warm.warm_start
        assert warm.kernel_passes == 0
        assert first.fig5_rows() == second.fig5_rows()

    def test_fig2_prewarms_store_and_conflict_rejected(
        self, smoke_scale, corpus, tmp_path
    ):
        scale = cached_scale(smoke_scale, tmp_path / "features")
        with pytest.raises(ValueError):
            run_fig2(scale, corpus=corpus, cache_dir=tmp_path / "corpus")
        series = run_fig2(scale, corpus=corpus)
        session = last_session()
        assert session is not None and session.saved
        assert series.total_obtained == len(corpus.phishing)
        run_fig2(scale, corpus=corpus)
        assert last_session().warm_start
        assert last_session().kernel_passes == 0

    def test_table1_accepts_scale_as_noop(self, smoke_scale, tmp_path):
        scale = cached_scale(smoke_scale, tmp_path)
        marker = last_session()
        assert len(run_table1(scale=scale)) == 144
        assert last_session() is marker  # registry-only: no store session
        assert list(tmp_path.iterdir()) == []

    def test_process_executor_store_round_trip(self, tmp_path):
        codes = make_codes(10, seed=11)
        thread_store = FeatureStore(tmp_path / "thread")
        process_store = FeatureStore(
            tmp_path / "process", max_workers=2, chunk_size=2, executor="process"
        )
        with thread_store.session(codes) as ours:
            reference = ours.service.count_matrix(codes)
        with process_store.session(codes) as theirs:
            matrix = theirs.service.count_matrix(codes)
        assert np.array_equal(matrix, reference)
        with process_store.session(codes) as warmed:
            pass
        assert warmed.warm_start and warmed.kernel_passes == 0
