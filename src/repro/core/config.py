"""Experiment-scale configuration.

Every experiment driver takes a :class:`Scale` that bounds corpus size,
cross-validation effort and deep-model size.  ``Scale.paper()`` mirrors the
paper's setting (7,000 contracts, 10-fold × 3 runs, 224×224 ViT inputs);
``Scale.ci()`` (the default) finishes on a CPU-only machine, and
``Scale.smoke()`` is used by the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..chain.generator import CorpusConfig
from ..models.registry import DeepModelScale


@dataclass(frozen=True)
class Scale:
    """Bundle of corpus-, evaluation- and model-size knobs.

    ``fresh_service`` controls the measurement semantics of the MEM timing
    rows: by default detectors extract through the warm process-wide
    :class:`~repro.features.batch.BatchFeatureService`, so ``train_time`` /
    ``inference_time`` exclude feature extraction once the cache is
    populated (and therefore depend on process-wide cache state and run
    order).  Setting ``fresh_service=True`` runs every timed fit/score cell
    against a fresh, cold service, so each cell's times include extracting
    its own contracts.  Within a cell the service still deduplicates: a test
    contract byte-identical to a train contract (proxy clones are common by
    corpus design) is extracted once, not once per call — the knob removes
    cross-cell warm-cache distortion, it does not disable batching dedup.

    ``feature_cache_dir`` turns on the persistent feature store
    (:class:`~repro.features.store.FeatureStore`): every experiment driver
    then opens a store session keyed by its corpus fingerprint, so a second
    invocation of the same experiment loads all cached feature views from
    disk and performs zero kernel passes.  ``feature_executor`` /
    ``feature_workers`` pick the extraction backend (``"thread"`` or
    ``"process"``) and pool width of the services those sessions — and
    ``fresh_service`` timing cells — extract through.
    ``corpus_blob_dir`` turns on the zero-copy corpus plane
    (:class:`~repro.features.corpus.CorpusBlob`): each store session builds
    (once) or opens the memmap-backed ``corpus-<fingerprint>.blob`` under
    that directory and attaches it to the session service, so cache misses
    are decoded straight from the memmap — process workers receive
    ``(blob_path, spans)``, never the bytes — and a corpus larger than RAM
    streams through the OS page cache.  It composes with ``feature_cache_dir`` (which also enables
    spill-on-evict under ``<feature_cache_dir>/spill``) but works without
    it.
    """

    name: str = "ci"
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    dataset_size: int = 700
    n_folds: int = 5
    n_runs: int = 2
    deep_folds: int = 2
    deep_runs: int = 1
    deep_scale: DeepModelScale = field(default_factory=DeepModelScale.ci)
    seed: int = 2025
    fresh_service: bool = False
    feature_cache_dir: Optional[str] = None
    feature_executor: str = "thread"
    feature_workers: Optional[int] = None
    corpus_blob_dir: Optional[str] = None

    @classmethod
    def smoke(cls) -> "Scale":
        """Tiny configuration for unit tests (seconds)."""
        return cls(
            name="smoke",
            corpus=CorpusConfig(n_phishing=140, n_benign=90, seed=7, hard_fraction=0.2),
            dataset_size=120,
            n_folds=3,
            n_runs=1,
            deep_folds=2,
            deep_runs=1,
            deep_scale=DeepModelScale.smoke(),
        )

    @classmethod
    def ci(cls) -> "Scale":
        """Default CPU-scale configuration (minutes)."""
        return cls(
            name="ci",
            corpus=CorpusConfig(n_phishing=900, n_benign=520, seed=2025, hard_fraction=0.22),
            dataset_size=700,
            n_folds=5,
            n_runs=2,
            deep_folds=2,
            deep_runs=1,
            deep_scale=DeepModelScale.ci(),
        )

    @classmethod
    def paper(cls) -> "Scale":
        """Paper-equivalent configuration (needs far more compute)."""
        return cls(
            name="paper",
            corpus=CorpusConfig(n_phishing=17455, n_benign=4000, seed=2025, hard_fraction=0.22),
            dataset_size=7000,
            n_folds=10,
            n_runs=3,
            deep_folds=10,
            deep_runs=3,
            deep_scale=DeepModelScale.paper(),
        )

    def folds_for(self, category: str) -> tuple:
        """(n_folds, n_runs) used for a model family.

        HSCs are cheap and always get the full cross-validation; the neural
        families get the reduced ``deep_folds`` / ``deep_runs`` budget outside
        the paper scale.
        """
        if category == "histogram" or self.name == "paper":
            return self.n_folds, self.n_runs
        return self.deep_folds, self.deep_runs
