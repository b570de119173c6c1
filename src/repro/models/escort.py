"""ESCORT: a vulnerability-detection DNN transferred to phishing detection.

ESCORT (Sendner et al., NDSS'23) embeds smart-contract bytecode into a vector
space and feeds it to a deep neural network with a shared feature-extractor
trunk and per-vulnerability output branches.  Its two operating modes are:

1. an initial multi-class training phase where the trunk learns features that
   characterise *technical code vulnerabilities*, and
2. a transfer-learning phase where a new output branch is attached for a new
   detection task while the trunk is kept frozen.

The paper applies mode 2 to phishing detection and finds it ineffective
(≈56% accuracy) because phishing exploits human behaviour, not code flaws.
The reproduction follows the same protocol: the trunk is pretrained to
predict *structural vulnerability-style classes* derived from the bytecode
itself (presence of delegatecall, selfdestruct, unchecked external calls,
heavy arithmetic), then frozen, and only a small phishing branch is trained.
Because those structural classes cut across benign and phishing contracts,
the frozen features transfer poorly — reproducing the paper's negative
result by construction rather than by accident.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..evm.fastcount import MNEMONIC_BINS
from ..features.batch import BatchFeatureService
from ..nn.layers import Linear, ReLU, Sequential
from ..nn.losses import cross_entropy
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from .base import ModelCategory, PhishingDetector, as_bytecode_list, validate_labels

#: Names of the synthetic vulnerability classes used for trunk pretraining.
VULNERABILITY_CLASSES = (
    "none",
    "delegatecall_injection",
    "selfdestruct_reachable",
    "unchecked_call",
    "arithmetic_heavy",
)


def _vulnerability_class(counts, total: int) -> int:
    """Shared decision rule over per-mnemonic counts (``counts[name]``)."""
    if counts.get("DELEGATECALL", 0) > 0:
        return VULNERABILITY_CLASSES.index("delegatecall_injection")
    if counts.get("SELFDESTRUCT", 0) > 0:
        return VULNERABILITY_CLASSES.index("selfdestruct_reachable")
    calls = counts.get("CALL", 0) + counts.get("CALLCODE", 0)
    iszero = counts.get("ISZERO", 0)
    if calls > 0 and iszero < calls:
        return VULNERABILITY_CLASSES.index("unchecked_call")
    arithmetic = sum(counts.get(name, 0) for name in ("ADD", "MUL", "SUB", "DIV", "EXP", "MOD"))
    if arithmetic >= max(8, total // 20):
        return VULNERABILITY_CLASSES.index("arithmetic_heavy")
    return VULNERABILITY_CLASSES.index("none")


#: Mnemonics the decision rule reads, with their opcode byte values.
_RULE_MNEMONICS = (
    "DELEGATECALL", "SELFDESTRUCT", "CALL", "CALLCODE", "ISZERO",
    "ADD", "MUL", "SUB", "DIV", "EXP", "MOD",
)
_RULE_BINS = {name: MNEMONIC_BINS[name] for name in _RULE_MNEMONICS}


def vulnerability_label_from_counts(count_vector: np.ndarray) -> int:
    """Heuristic vulnerability class of a contract's 256-bin opcode counts.

    This is ESCORT's pretraining target.  The classes describe technical
    code properties and are deliberately orthogonal to the phishing label.
    """
    counts = {name: int(count_vector[value]) for name, value in _RULE_BINS.items()}
    return _vulnerability_class(counts, int(count_vector.sum()))


class ESCORTNetwork(Module):
    """Shared trunk + detachable output branches."""

    def __init__(self, input_dim: int = 256, d_hidden: int = 64, seed: int = 0):
        super().__init__()
        self.trunk = Sequential(
            Linear(input_dim, d_hidden, seed=seed),
            ReLU(),
            Linear(d_hidden, d_hidden // 2, seed=seed + 1),
            ReLU(),
        )
        self.vulnerability_branch = Linear(d_hidden // 2, len(VULNERABILITY_CLASSES), seed=seed + 2)
        self.phishing_branch = Linear(d_hidden // 2, 2, seed=seed + 3)

    def features(self, x: Tensor) -> Tensor:
        """Trunk features."""
        return self.trunk(x)

    def forward(self, x: Tensor) -> Tensor:
        """Default forward: the phishing branch (after transfer learning)."""
        return self.phishing_branch(self.features(x))


class ESCORTDetector(PhishingDetector):
    """ESCORT adapted to phishing via frozen-trunk transfer learning."""

    category = ModelCategory.VULNERABILITY
    name = "ESCORT"

    def __init__(
        self,
        d_hidden: int = 64,
        pretrain_epochs: int = 6,
        transfer_epochs: int = 6,
        batch_size: int = 32,
        learning_rate: float = 2e-3,
        service: Optional[BatchFeatureService] = None,
        seed: int = 0,
    ):
        self.d_hidden = d_hidden
        self.pretrain_epochs = pretrain_epochs
        self.transfer_epochs = transfer_epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._feature_service = service
        self.network: Optional[ESCORTNetwork] = None

    # ------------------------------------------------------------------

    def _embed(self, bytecodes: Sequence) -> np.ndarray:
        """Byte-value frequency embedding of each bytecode (256-dim).

        The byte-count view is resolved through the shared feature service,
        so duplicates are counted once per process.
        """
        counts = self.feature_service.byte_count_matrix(bytecodes)
        totals = counts.sum(axis=1)
        features = np.zeros((len(bytecodes), 256))
        populated = totals > 0
        features[populated] = counts[populated] / totals[populated, np.newaxis]
        return features

    def _vulnerability_targets(self, bytecodes: Sequence) -> np.ndarray:
        """Pretraining classes, read off the cached count vectors."""
        matrix = self.feature_service.count_matrix(bytecodes)
        return np.array([vulnerability_label_from_counts(row) for row in matrix])

    def _train_phase(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        parameters,
        forward,
        epochs: int,
    ) -> None:
        rng = np.random.default_rng(self.seed)
        optimizer = Adam(parameters, learning_rate=self.learning_rate)
        for _ in range(epochs):
            order = rng.permutation(len(targets))
            for start in range(0, len(targets), self.batch_size):
                batch = order[start : start + self.batch_size]
                optimizer.zero_grad()
                logits = forward(Tensor(inputs[batch]))
                loss = cross_entropy(logits, targets[batch])
                loss.backward()
                optimizer.step()

    # ------------------------------------------------------------------

    def fit(self, bytecodes: Sequence, labels: Sequence[int]) -> "ESCORTDetector":
        """Pretrain the trunk on vulnerability classes, then transfer to phishing."""
        bytecodes = as_bytecode_list(bytecodes)
        labels = validate_labels(labels)
        inputs = self._embed(bytecodes)
        self.network = ESCORTNetwork(input_dim=256, d_hidden=self.d_hidden, seed=self.seed)

        # Phase 1: multi-class vulnerability pretraining (trunk + vuln branch).
        vulnerability_targets = self._vulnerability_targets(bytecodes)
        phase1_parameters = (
            self.network.trunk.parameters() + self.network.vulnerability_branch.parameters()
        )
        self.network.train(True)
        self._train_phase(
            inputs,
            vulnerability_targets,
            phase1_parameters,
            lambda x: self.network.vulnerability_branch(self.network.features(x)),
            self.pretrain_epochs,
        )

        # Phase 2: transfer learning — the trunk is frozen, only the new
        # phishing branch is optimised.
        phase2_parameters = self.network.phishing_branch.parameters()
        self._train_phase(
            inputs,
            labels,
            phase2_parameters,
            lambda x: self.network.phishing_branch(self.network.features(x).detach()),
            self.transfer_epochs,
        )
        self.network.train(False)
        return self

    def predict_proba(self, bytecodes: Sequence) -> np.ndarray:
        """Class probabilities from the phishing branch."""
        if self.network is None:
            raise RuntimeError("detector must be fitted before prediction")
        inputs = self._embed(as_bytecode_list(bytecodes))
        logits = self.network(Tensor(inputs)).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)
