"""Per-instance loss functions and the learning-protocol container.

A learning protocol is what one peer model hands the other in each
co-teaching iteration: the selected training instances together with their
per-instance margins or weights, plus the loss kind to apply. Margins and
weights are produced by the teacher and treated as constants by the
student's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PairwiseTriple, PointwiseExample

# Loss kinds
CROSS_ENTROPY = "cross_entropy"
WEIGHTED_CROSS_ENTROPY = "weighted_cross_entropy"
HINGE_WITH_MARGIN = "hinge_with_margin"

LOSS_KINDS = (CROSS_ENTROPY, WEIGHTED_CROSS_ENTROPY, HINGE_WITH_MARGIN)

# Scores are clamped to [CE_EPS, 1 - CE_EPS] inside cross_entropy so the
# logs stay finite; the clamp perturbs desk-scale losses below any test
# tolerance used here.
CE_EPS = 1e-7


@dataclass(frozen=True)
class LearningProtocol:
    """Instances plus loss kind for one student update.

    Exactly one of ``pairwise`` / ``pointwise`` is nonempty: the hinge loss
    consumes (triple, margin) pairs, the cross-entropy losses consume
    (example, weight) pairs. Plain cross-entropy weights are all 1.
    """

    loss_kind: str
    pairwise: tuple[tuple[PairwiseTriple, float], ...] = ()
    pointwise: tuple[tuple[PointwiseExample, float], ...] = ()

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if bool(self.pairwise) == bool(self.pointwise):
            raise ValueError("exactly one of pairwise/pointwise must be nonempty")
        if self.pairwise and self.loss_kind != HINGE_WITH_MARGIN:
            raise ValueError("pairwise instances require the hinge loss")
        if self.pointwise and self.loss_kind == HINGE_WITH_MARGIN:
            raise ValueError("hinge loss requires pairwise instances")
        for _, margin in self.pairwise:
            if margin < 0:
                raise ValueError(f"negative margin {margin}")
        for _, weight in self.pointwise:
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"weight {weight} outside [0, 1]")
            if weight != 1.0 and self.loss_kind == CROSS_ENTROPY:
                raise ValueError(f"plain cross-entropy weight {weight} is not 1")


def cross_entropy(y, s):
    """Binary cross-entropy -y*log(s) - (1-y)*log(1-s), score clamped.

    Element-wise over arrays of labels and scores; scalars give a scalar.
    """
    s = np.clip(s, CE_EPS, 1.0 - CE_EPS)
    return -np.log(np.where(np.equal(y, 1), s, 1.0 - s))


def hinge_with_margin(s_pos, s_neg, margin):
    """Ranking hinge max(0, margin - s_pos + s_neg), element-wise."""
    if np.any(np.less(margin, 0)):
        raise ValueError(f"negative margin {np.min(margin)}")
    return np.maximum(0.0, margin - s_pos + s_neg)
