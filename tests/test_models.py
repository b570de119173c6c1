"""Tests for the 16 detectors and the model registry."""

import numpy as np
import pytest

from repro.models.base import ModelCategory, validate_labels
from repro.models.escort import (
    ESCORTDetector,
    VULNERABILITY_CLASSES,
    vulnerability_label_from_counts,
)
from repro.models.gpt2 import GPT2Detector
from repro.models.hsc import HSC_FACTORIES, make_random_forest_hsc
from repro.models.registry import (
    DeepModelScale,
    MODEL_SPECS,
    POSTHOC_MODEL_NAMES,
    SCALABILITY_MODEL_NAMES,
    TABLE2_MODEL_NAMES,
    build_model,
    get_model_spec,
)
from repro.models.scsguard import SCSGuardDetector
from repro.models.t5 import T5Detector
from repro.models.vision import make_eca_efficientnet, make_vit_freq, make_vit_r2d2
from repro.evm.assembler import assemble, push
from repro.evm.fastcount import count_opcodes

from oracles import structural_vulnerability_label


@pytest.fixture(scope="module")
def split(dataset):
    codes = dataset.bytecodes
    labels = dataset.labels
    n_train = int(0.75 * len(codes))
    return codes[:n_train], labels[:n_train], codes[n_train:], labels[n_train:]


class TestBaseInterface:
    def test_validate_labels_accepts_binary(self):
        assert validate_labels([0, 1, 1]).tolist() == [0, 1, 1]

    def test_validate_labels_rejects_multiclass(self):
        with pytest.raises(ValueError):
            validate_labels([0, 1, 2])

    def test_predict_threshold(self, split):
        train_codes, train_labels, test_codes, _ = split
        detector = make_random_forest_hsc(seed=0)
        detector.fit(train_codes, train_labels)
        probabilities = detector.predict_proba(test_codes)
        predictions = detector.predict(test_codes)
        assert np.array_equal(predictions, (probabilities[:, 1] >= 0.5).astype(int))


class TestHSCFamily:
    @pytest.mark.parametrize("name", list(HSC_FACTORIES))
    def test_each_hsc_learns(self, name, split):
        train_codes, train_labels, test_codes, test_labels = split
        detector = HSC_FACTORIES[name](seed=0)
        detector.fit(train_codes, train_labels)
        accuracy = detector.score(test_codes, test_labels)
        assert accuracy > 0.6, f"{name} accuracy {accuracy}"
        assert detector.category is ModelCategory.HISTOGRAM

    def test_probabilities_well_formed(self, split):
        train_codes, train_labels, test_codes, _ = split
        detector = make_random_forest_hsc(seed=1).fit(train_codes, train_labels)
        probabilities = detector.predict_proba(test_codes)
        assert probabilities.shape == (len(test_codes), 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_feature_names_available_after_fit(self, split):
        train_codes, train_labels, _, _ = split
        detector = make_random_forest_hsc(seed=0).fit(train_codes, train_labels)
        assert "PUSH1" in detector.feature_names()


class TestDeepDetectors:
    def test_scsguard_learns(self, split):
        train_codes, train_labels, test_codes, test_labels = split
        scale = DeepModelScale.smoke()
        detector = SCSGuardDetector(
            max_length=scale.max_length,
            d_embed=scale.d_model,
            n_heads=scale.n_heads,
            d_hidden=scale.d_model,
            trainer_config=scale.trainer_config(0),
            seed=0,
        )
        detector.fit(train_codes, train_labels)
        assert detector.score(test_codes, test_labels) > 0.6
        assert detector.category is ModelCategory.LANGUAGE

    @pytest.mark.parametrize("variant", ["alpha", "beta"])
    def test_gpt2_variants_run(self, variant, split):
        train_codes, train_labels, test_codes, _ = split
        detector = GPT2Detector(
            variant=variant, max_length=32, d_model=16, n_layers=1, n_heads=2,
            trainer_config=DeepModelScale.smoke().trainer_config(0), seed=0,
        )
        detector.fit(train_codes[:60], train_labels[:60])
        probabilities = detector.predict_proba(test_codes[:10])
        assert probabilities.shape == (10, 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    @pytest.mark.parametrize("variant", ["alpha", "beta"])
    def test_t5_variants_run(self, variant, split):
        train_codes, train_labels, test_codes, _ = split
        detector = T5Detector(
            variant=variant, max_length=32, d_model=16, n_layers=1, n_heads=2,
            trainer_config=DeepModelScale.smoke().trainer_config(0), seed=0,
        )
        detector.fit(train_codes[:60], train_labels[:60])
        assert detector.predict(test_codes[:8]).shape == (8,)

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            GPT2Detector(variant="gamma")
        with pytest.raises(ValueError):
            T5Detector(variant="gamma")

    def test_vision_detectors_run(self, split):
        train_codes, train_labels, test_codes, _ = split
        scale = DeepModelScale.smoke()
        for maker in (make_vit_r2d2, make_vit_freq):
            detector = maker(
                image_size=scale.image_size,
                trainer_config=scale.vision_trainer_config(0),
                seed=0,
                d_model=16,
                n_layers=1,
                n_heads=2,
                patch_size=4,
            )
            detector.fit(train_codes[:60], train_labels[:60])
            assert detector.predict(test_codes[:6]).shape == (6,)
        eca = make_eca_efficientnet(
            image_size=scale.image_size, trainer_config=scale.vision_trainer_config(0), seed=0
        )
        eca.fit(train_codes[:60], train_labels[:60])
        assert eca.predict_proba(test_codes[:6]).shape == (6, 2)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            SCSGuardDetector().predict_proba([b"\x00"])


class TestESCORT:
    def test_structural_labels_cover_classes(self, bytecodes):
        labels = [vulnerability_label_from_counts(count_opcodes(code)) for code in bytecodes[:80]]
        assert labels == [structural_vulnerability_label(code) for code in bytecodes[:80]]
        assert set(labels) <= set(range(len(VULNERABILITY_CLASSES)))
        assert len(set(labels)) >= 2

    def test_delegatecall_class(self):
        code = assemble([push(0, 1)] * 6 + ["GAS", "DELEGATECALL", "STOP"])
        label = vulnerability_label_from_counts(count_opcodes(code))
        assert VULNERABILITY_CLASSES[label] == "delegatecall_injection"
        assert structural_vulnerability_label(code) == label

    def test_escort_transfer_learning_is_weak(self, split):
        # The paper's negative result: ESCORT's frozen vulnerability features
        # transfer poorly to phishing detection.
        train_codes, train_labels, test_codes, test_labels = split
        detector = ESCORTDetector(pretrain_epochs=2, transfer_epochs=2, seed=0)
        detector.fit(train_codes, train_labels)
        accuracy = detector.score(test_codes, test_labels)
        assert accuracy < 0.85
        assert detector.category is ModelCategory.VULNERABILITY

    def test_trunk_frozen_during_transfer(self, split):
        train_codes, train_labels, _, _ = split
        detector = ESCORTDetector(pretrain_epochs=1, transfer_epochs=1, seed=0)
        detector.fit(train_codes[:50], train_labels[:50])
        # After fit, rerun only phase 2 manually and check trunk unchanged.
        trunk_before = [p.data.copy() for p in detector.network.trunk.parameters()]
        inputs = detector._embed(train_codes[:20])
        detector._train_phase(
            inputs,
            train_labels[:20],
            detector.network.phishing_branch.parameters(),
            lambda x: detector.network.phishing_branch(detector.network.features(x).detach()),
            epochs=1,
        )
        trunk_after = [p.data for p in detector.network.trunk.parameters()]
        assert all(np.array_equal(a, b) for a, b in zip(trunk_before, trunk_after))


class TestRegistry:
    def test_all_16_models_registered(self):
        assert len(TABLE2_MODEL_NAMES) == 16
        assert set(TABLE2_MODEL_NAMES) == set(MODEL_SPECS)

    def test_posthoc_excludes_escort_and_beta_variants(self):
        assert len(POSTHOC_MODEL_NAMES) == 13
        assert "ESCORT" not in POSTHOC_MODEL_NAMES
        assert "GPT-2b" not in POSTHOC_MODEL_NAMES
        assert "T5b" not in POSTHOC_MODEL_NAMES

    def test_scalability_models_are_family_bests(self):
        assert SCALABILITY_MODEL_NAMES == ["Random Forest", "ECA+EfficientNet", "SCSGuard"]

    def test_categories_counts_match_paper(self):
        categories = [MODEL_SPECS[name].category for name in TABLE2_MODEL_NAMES]
        assert categories.count(ModelCategory.HISTOGRAM) == 7
        assert categories.count(ModelCategory.VISION) == 3
        assert categories.count(ModelCategory.LANGUAGE) == 5
        assert categories.count(ModelCategory.VULNERABILITY) == 1

    def test_build_model_unknown_name(self):
        with pytest.raises(KeyError):
            build_model("NotAModel")

    def test_get_model_spec(self):
        spec = get_model_spec("Random Forest")
        assert spec.category is ModelCategory.HISTOGRAM

    def test_build_each_model_instantiates(self):
        scale = DeepModelScale.smoke()
        for name in TABLE2_MODEL_NAMES:
            detector = build_model(name, scale=scale, seed=0)
            assert hasattr(detector, "fit")
            assert detector.category is MODEL_SPECS[name].category

    def test_scale_presets(self):
        assert DeepModelScale.paper().image_size == 224
        assert DeepModelScale.smoke().image_size <= DeepModelScale.ci().image_size
        config = DeepModelScale.ci().trainer_config(seed=5)
        assert config.seed == 5
