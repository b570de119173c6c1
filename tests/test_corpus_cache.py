"""Tests for the on-disk corpus cache used by the benchmark harness."""

import pytest

from repro.chain.corpus_cache import (
    CORPUS_FILE_MAGIC,
    CORPUS_FILE_VERSION,
    CorpusCacheError,
    config_digest,
    corpus_cache_path,
    load_corpus,
    load_or_generate,
    save_corpus,
)
from repro.chain.generator import ContractCorpusGenerator, CorpusConfig
from repro.persist import write_npz

TINY = CorpusConfig(n_phishing=14, n_benign=10, seed=3, hard_fraction=0.2)


def records_equal(first, second):
    if len(first.records) != len(second.records):
        return False
    return all(
        (a.address, a.bytecode, a.label, a.deployed_month, a.family, a.metadata)
        == (b.address, b.bytecode, b.label, b.deployed_month, b.family, b.metadata)
        for a, b in zip(first.records, second.records)
    )


class TestLoadOrGenerate:
    def test_second_build_is_a_cache_hit(self, tmp_path):
        first, from_cache_first = load_or_generate(TINY, tmp_path)
        assert not from_cache_first
        assert corpus_cache_path(TINY, tmp_path).exists()
        second, from_cache_second = load_or_generate(TINY, tmp_path)
        assert from_cache_second
        assert records_equal(first, second)
        assert second.config == TINY

    def test_different_config_regenerates(self, tmp_path):
        load_or_generate(TINY, tmp_path)
        other = CorpusConfig(n_phishing=16, n_benign=10, seed=3, hard_fraction=0.2)
        assert config_digest(other) != config_digest(TINY)
        corpus, from_cache = load_or_generate(other, tmp_path)
        assert not from_cache
        assert len(corpus.records) == 26

    def test_corrupt_cache_regenerates_gracefully(self, tmp_path):
        first, _ = load_or_generate(TINY, tmp_path)
        path = corpus_cache_path(TINY, tmp_path)
        path.write_bytes(b"not a corpus")
        regenerated, from_cache = load_or_generate(TINY, tmp_path)
        assert not from_cache
        assert records_equal(first, regenerated)
        # The overwritten file is valid again.
        _, from_cache = load_or_generate(TINY, tmp_path)
        assert from_cache

    def test_cached_corpus_matches_direct_generation(self, tmp_path):
        direct = ContractCorpusGenerator(TINY).generate()
        cached, _ = load_or_generate(TINY, tmp_path)
        reloaded, from_cache = load_or_generate(TINY, tmp_path)
        assert from_cache
        assert records_equal(direct, cached)
        assert records_equal(direct, reloaded)


class TestRejection:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CorpusCacheError):
            load_corpus(tmp_path / "nope.npz", TINY)

    def test_unwritable_save_path_raises_domain_error(self, tmp_path):
        # Same write-side contract as the feature cache: a parent occupied
        # by a regular file surfaces as CorpusCacheError, not a raw OSError.
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"file, not a directory")
        corpus = ContractCorpusGenerator(TINY).generate()
        with pytest.raises(CorpusCacheError):
            save_corpus(corpus, blocker / "corpus.npz")

    def test_digest_mismatch_rejected(self, tmp_path):
        corpus = ContractCorpusGenerator(TINY).generate()
        path = tmp_path / "corpus.npz"
        save_corpus(corpus, path)
        other = CorpusConfig(n_phishing=15, n_benign=10, seed=3, hard_fraction=0.2)
        with pytest.raises(CorpusCacheError) as excinfo:
            load_corpus(path, other)
        assert "different config" in str(excinfo.value)

    def test_shifted_lengths_rejected(self, tmp_path):
        # Moving bytes between adjacent records keeps the total length (so
        # the blob-size check passes) but garbles every bytecode boundary;
        # the payload digest must catch it.
        import numpy as np

        corpus = ContractCorpusGenerator(TINY).generate()
        path = tmp_path / "corpus.npz"
        save_corpus(corpus, path)
        with np.load(str(path), allow_pickle=False) as data:
            arrays = {
                name: data[name]
                for name in data.files
                if name not in ("magic", "version")
            }
        lengths = arrays["code_lengths"].copy()
        lengths[0] -= 5
        lengths[1] += 5
        arrays["code_lengths"] = lengths
        # Written through the real writer, so the whole-file digest holds
        # and only the payload digest can reject the file.
        tampered = tmp_path / "tampered.npz"
        write_npz(
            tampered, arrays, magic=CORPUS_FILE_MAGIC, version=CORPUS_FILE_VERSION
        )
        with pytest.raises(CorpusCacheError) as excinfo:
            load_corpus(tampered, TINY)
        assert "has a corrupt payload" in str(excinfo.value)

    def test_truncated_file_rejected(self, tmp_path):
        corpus = ContractCorpusGenerator(TINY).generate()
        path = tmp_path / "corpus.npz"
        save_corpus(corpus, path)
        clipped = tmp_path / "clipped.npz"
        clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CorpusCacheError):
            load_corpus(clipped, TINY)
