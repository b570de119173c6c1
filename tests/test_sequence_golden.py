"""Golden-vector regression tests for the sequence-derived feature views.

Analogous to ``test_feature_golden.py`` for histograms: exact tokenizer
id-sequences and frequency-image pixel values are pinned for deterministic
template bytecodes, so any future change to the sequence kernel, the batch
service or the extractors that silently drifts these features fails loudly
here.  Both the production extractor ("fast") and its per-instruction
oracle from ``oracles.py`` ("legacy") are asserted against the same goldens,
keeping them anchored to one reference.

The float literals are exact: Python ``repr`` round-trips IEEE doubles, and
both arms are required to be bit-identical to them.
"""

import numpy as np
import pytest

from repro.chain.templates import (
    ALL_FAMILIES,
    build_family_bytecode,
    minimal_proxy_bytecode,
)
from repro.features.batch import BatchFeatureService
from repro.features.image import FrequencyImageEncoder
from repro.features.tokenizer import OpcodeTokenizer

from oracles import OracleFrequencyImage, OracleTokenizer

#: Token ids at max_length=48 (default operand buckets + <cls>), keyed by
#: (template, rng seed).  The minimal proxy is bit-exact bytecode with no
#: RNG involved — the strongest golden anchor.
TOKEN_GOLDENS = {
    ("minimal_proxy", 0): [
        2, 44, 51, 51, 45, 51, 51, 51, 44, 51, 95, 10, 73, 149, 51, 110,
        108, 52, 124, 51, 125, 76, 5, 70, 152, 74, 148, 3, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ],
    ("erc20_token", 11): [
        2, 76, 5, 76, 5, 65, 76, 5, 44, 23, 77, 6, 70, 76, 5, 43,
        76, 5, 35, 108, 79, 7, 27, 77, 6, 70, 108, 79, 7, 27, 77, 6,
        70, 108, 79, 7, 27, 77, 6, 70, 108, 79, 7, 27, 77, 6, 70, 74,
    ],
    ("sweeper_backdoor", 22): [
        2, 76, 5, 76, 5, 65, 76, 5, 44, 23, 77, 6, 70, 76, 5, 43,
        76, 5, 35, 108, 79, 7, 27, 77, 6, 70, 108, 79, 7, 27, 77, 6,
        70, 74, 63, 76, 5, 108, 108, 108, 61, 41, 73, 146, 63, 44, 76, 5,
    ],
}

#: Scale factor of the 4×4 frequency-image encoder fitted on the three
#: template bytecodes (in TOKEN_GOLDENS key order).
IMAGE_GOLDEN_SCALE = 1.511737089201878

#: Exact (3, 4, 4) frequency-image tensors of two templates under that fit.
IMAGE_GOLDENS = {
    ("minimal_proxy", 0): [
        [[0.03286384976525822, 0.04225352112676057, 0.04225352112676057, 0.009389671361502348],
         [0.04225352112676057, 0.04225352112676057, 0.04225352112676057, 0.03286384976525822],
         [0.04225352112676057, 0.004694835680751174, 0.014084507042253521, 0.014084507042253521],
         [0.04225352112676057, 0.004694835680751174, 0.11267605633802817, 0.009389671361502348]],
        [[1.0, 1.0, 1.0, 1.0],
         [1.0, 1.0, 1.0, 1.0],
         [1.0, 0.004694835680751174, 1.0, 1.0],
         [1.0, 1.0, 1.0, 1.0]],
        [[0.19248826291079812, 0.19248826291079812, 0.19248826291079812, 0.9061032863849765],
         [0.19248826291079812, 0.19248826291079812, 0.19248826291079812, 0.19248826291079812],
         [0.19248826291079812, 0.9061032863849765, 0.19248826291079812, 0.07511737089201878],
         [0.19248826291079812, 0.9061032863849765, 0.9061032863849765, 0.9061032863849765]],
    ],
    ("sweeper_backdoor", 22): [
        [[0.37089201877934275, 0.37089201877934275, 0.07981220657276995, 0.37089201877934275],
         [0.03286384976525822, 0.02347417840375587, 0.08450704225352114, 0.07042253521126761],
         [0.37089201877934275, 0.018779342723004695, 0.37089201877934275, 0.009389671361502348],
         [0.11267605633802817, 0.04225352112676057, 0.03286384976525822, 0.08450704225352114]],
        [[0.009389671361502348, 0.028169014084507043, 1.0, 0.014084507042253521],
         [1.0, 1.0, 0.02347417840375587, 1.0],
         [0.16901408450704228, 1.0, 0.009389671361502348, 1.0],
         [1.0, 0.004694835680751174, 1.0, 0.02347417840375587]],
        [[0.9061032863849765, 0.9061032863849765, 0.9061032863849765, 0.9061032863849765],
         [0.19248826291079812, 0.9061032863849765, 0.9061032863849765, 0.07042253521126761],
         [0.9061032863849765, 0.9061032863849765, 0.9061032863849765, 0.9061032863849765],
         [0.9061032863849765, 0.9061032863849765, 0.9061032863849765, 0.9061032863849765]],
    ],
}


def family_bytecode(name: str, seed: int) -> bytes:
    family = next(f for f in ALL_FAMILIES if f.name == name)
    return build_family_bytecode(family, np.random.default_rng(seed))


def golden_bytecodes():
    codes = {}
    for (name, seed) in TOKEN_GOLDENS:
        if name == "minimal_proxy":
            codes[(name, seed)] = minimal_proxy_bytecode("0x" + "ab" * 20)
        else:
            codes[(name, seed)] = family_bytecode(name, seed)
    return codes


def make_tokenizer(arm: str):
    if arm == "fast":
        return OpcodeTokenizer(max_length=48, service=BatchFeatureService())
    return OracleTokenizer(max_length=48)


@pytest.mark.parametrize("arm", ["fast", "legacy"])
class TestTokenizerGoldens:
    def test_token_ids_pinned(self, arm):
        codes = golden_bytecodes()
        tokenizer = make_tokenizer(arm)
        for key, code in codes.items():
            assert tokenizer.encode_one(code).tolist() == TOKEN_GOLDENS[key], key

    def test_transform_rows_pinned(self, arm):
        codes = golden_bytecodes()
        keys = list(codes)
        tokenizer = make_tokenizer(arm)
        matrix = tokenizer.transform([codes[key] for key in keys])
        expected = np.array([TOKEN_GOLDENS[key] for key in keys], dtype=np.int64)
        assert np.array_equal(matrix, expected)


@pytest.mark.parametrize("arm", ["fast", "legacy"])
class TestFrequencyImageGoldens:
    def _fitted_encoder(self, arm):
        if arm == "fast":
            encoder = FrequencyImageEncoder(image_size=4, service=BatchFeatureService())
        else:
            encoder = OracleFrequencyImage(image_size=4)
        return encoder.fit(list(golden_bytecodes().values()))

    def test_fit_scale_pinned(self, arm):
        encoder = self._fitted_encoder(arm)
        assert encoder._scale == IMAGE_GOLDEN_SCALE

    def test_pixels_pinned(self, arm):
        codes = golden_bytecodes()
        encoder = self._fitted_encoder(arm)
        for key, golden in IMAGE_GOLDENS.items():
            image = encoder.encode_one(codes[key])
            assert image.shape == (3, 4, 4)
            assert np.array_equal(image, np.array(golden, dtype=np.float64)), key
