"""The 16 phishing detectors of Table II behind one interface."""

from .base import ModelCategory, PhishingDetector, validate_labels
from .eca_efficientnet import ECAEfficientNet, ECAModule
from .escort import (
    ESCORTDetector,
    ESCORTNetwork,
    VULNERABILITY_CLASSES,
    vulnerability_label_from_counts,
)
from .gpt2 import CausalTransformerClassifier, GPT2Detector
from .hsc import (
    HSC_FACTORIES,
    HistogramDetector,
    make_catboost_hsc,
    make_knn_hsc,
    make_lightgbm_hsc,
    make_logistic_regression_hsc,
    make_random_forest_hsc,
    make_svm_hsc,
    make_xgboost_hsc,
)
from .registry import (
    DeepModelScale,
    MODEL_SPECS,
    ModelSpec,
    POSTHOC_MODEL_NAMES,
    SCALABILITY_MODEL_NAMES,
    TABLE2_MODEL_NAMES,
    build_model,
    get_model_spec,
)
from .scsguard import SCSGuardDetector, SCSGuardNetwork
from .t5 import EncoderTransformerClassifier, T5Detector
from .vision import VisionDetector, make_eca_efficientnet, make_vit_freq, make_vit_r2d2
from .vit import VisionTransformer

__all__ = [
    "ModelCategory",
    "PhishingDetector",
    "validate_labels",
    "ECAEfficientNet",
    "ECAModule",
    "ESCORTDetector",
    "ESCORTNetwork",
    "VULNERABILITY_CLASSES",
    "vulnerability_label_from_counts",
    "CausalTransformerClassifier",
    "GPT2Detector",
    "HSC_FACTORIES",
    "HistogramDetector",
    "make_catboost_hsc",
    "make_knn_hsc",
    "make_lightgbm_hsc",
    "make_logistic_regression_hsc",
    "make_random_forest_hsc",
    "make_svm_hsc",
    "make_xgboost_hsc",
    "DeepModelScale",
    "MODEL_SPECS",
    "ModelSpec",
    "POSTHOC_MODEL_NAMES",
    "SCALABILITY_MODEL_NAMES",
    "TABLE2_MODEL_NAMES",
    "build_model",
    "get_model_spec",
    "SCSGuardDetector",
    "SCSGuardNetwork",
    "EncoderTransformerClassifier",
    "T5Detector",
    "VisionDetector",
    "make_eca_efficientnet",
    "make_vit_freq",
    "make_vit_r2d2",
    "VisionTransformer",
]
