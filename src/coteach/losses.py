"""Per-instance loss functions and the learning-protocol container.

A learning protocol is what one peer model hands the other in each
co-teaching iteration: the selected training instances together with their
per-instance margins or weights. The instances fix the loss: pairwise
(triple, margin) instances train with the hinge loss, pointwise (example,
weight) instances with cross-entropy. Margins and weights are produced by
the teacher (see ``strategies``) and treated as constants by the student's
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import PairwiseTriple, PointwiseExample

# Loss kinds, as ``LearningProtocol.loss_kind`` names them
CROSS_ENTROPY = "cross_entropy"
HINGE_WITH_MARGIN = "hinge_with_margin"

# Scores are clamped to [CE_EPS, 1 - CE_EPS] inside cross_entropy so the
# logs stay finite; the clamp perturbs desk-scale losses below any test
# tolerance used here.
CE_EPS = 1e-7


@dataclass(frozen=True)
class LearningProtocol:
    """The instances of one student update.

    Exactly one of ``pairwise`` / ``pointwise`` is nonempty: (triple,
    margin) pairs with margin >= 0 train with the hinge loss, (example,
    weight) pairs with weight in [0, 1] train with cross-entropy. Plain
    cross-entropy is the case where every weight is 1.
    """

    pairwise: tuple[tuple[PairwiseTriple, float], ...] = ()
    pointwise: tuple[tuple[PointwiseExample, float], ...] = ()

    def __post_init__(self):
        if bool(self.pairwise) == bool(self.pointwise):
            raise ValueError("exactly one of pairwise/pointwise must be nonempty")
        for _, margin in self.pairwise:
            if margin < 0:
                raise ValueError(f"negative margin {margin}")
        for _, weight in self.pointwise:
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"weight {weight} outside [0, 1]")

    @property
    def loss_kind(self) -> str:
        """``HINGE_WITH_MARGIN`` for pairwise instances, else ``CROSS_ENTROPY``."""
        return HINGE_WITH_MARGIN if self.pairwise else CROSS_ENTROPY


def cross_entropy(y, s):
    """Binary cross-entropy -y*log(s) - (1-y)*log(1-s), score clamped.

    Element-wise over arrays of labels and scores; scalars give a scalar.
    """
    s = np.minimum(np.maximum(s, CE_EPS), 1.0 - CE_EPS)
    return -np.log(np.where(np.equal(y, 1), s, 1.0 - s))


def hinge_with_margin(s_pos, s_neg, margin):
    """Ranking hinge max(0, margin - s_pos + s_neg), element-wise."""
    if np.any(np.less(margin, 0)):
        raise ValueError(f"negative margin {np.min(margin)}")
    return np.maximum(0.0, margin - s_pos + s_neg)
