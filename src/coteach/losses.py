"""Per-instance loss functions and the learning-protocol container.

A learning protocol is what one peer model hands the other in each
co-teaching iteration: the selected training instances, as positions in a
``corpus.Triples`` split whose pack ``matcher`` gathers from, with the
per-instance margins or weights the teacher (see ``strategies``) produced.
The student's gradient treats those as constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Triples

# Loss kinds, as ``LearningProtocol.loss_kind`` names them
CROSS_ENTROPY = "cross_entropy"
HINGE_WITH_MARGIN = "hinge_with_margin"

# Scores are clamped to [CE_EPS, 1 - CE_EPS] inside cross_entropy so the logs
# stay finite; the clamp perturbs desk-scale losses below any test tolerance.
CE_EPS = 1e-7


@dataclass(frozen=True, eq=False)
class LearningProtocol:
    """The instances of one student update, as positions in the pointwise
    view of ``split`` (2t is triple t's positive, y = 1, 2t + 1 its
    negative, y = 0), with ``coef``, one float each, checked when built.

    The instances fix the loss: a row of two positions in ``examples``
    trains with the hinge loss, the first ranked above the second, and a
    finite margin >= 0; a single position with cross-entropy and a weight in
    [0, 1], all 1 for plain cross-entropy.
    """

    split: Triples
    examples: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        examples, coef = np.asarray(self.examples), np.asarray(self.coef)
        if examples.dtype.kind not in "iu":
            raise TypeError("instance positions must be integers")
        if not coef.size or examples.shape not in ((coef.size,), (coef.size, 2)):
            raise ValueError("need one margin or weight for each of at least "
                             "one instance")
        if examples.min() < 0 or examples.max() >= 2 * len(self.split):
            raise ValueError("instance position outside the split")
        if examples.ndim == 2 and not (coef.min() >= 0 and coef.sum() < np.inf):
            raise ValueError(f"negative margin {coef.min()}" if np.isfinite(coef).all()
                             else "non-finite margin")
        if examples.ndim == 1 and not ((0.0 <= coef) & (coef <= 1.0)).all():
            raise ValueError("weight outside [0, 1]")
        object.__setattr__(self, "examples", examples)
        object.__setattr__(self, "coef", coef)

    @property
    def loss_kind(self) -> str:
        """``HINGE_WITH_MARGIN`` for pairs of examples, else ``CROSS_ENTROPY``."""
        return HINGE_WITH_MARGIN if self.examples.ndim == 2 else CROSS_ENTROPY

    @cached_property
    def pairwise(self) -> tuple:
        """((first, second) positions, margin) of each hinge instance."""
        if self.examples.ndim == 1:
            return ()
        return tuple(zip(map(tuple, self.examples.tolist()), self.coef.tolist()))

    @cached_property
    def pointwise(self) -> tuple:
        """(position, weight) of each cross-entropy instance."""
        if self.examples.ndim == 2:
            return ()
        return tuple(zip(self.examples.tolist(), self.coef.tolist()))


def cross_entropy(y, s):
    """Binary cross-entropy -y*log(s) - (1-y)*log(1-s), score clamped.

    Element-wise over arrays of labels and scores; scalars give a scalar.
    """
    s = np.minimum(np.maximum(s, CE_EPS), 1.0 - CE_EPS)
    return -np.log(np.where(np.equal(y, 1), s, 1.0 - s))


def hinge(s_pos, s_neg, margin):
    """Ranking hinge max(0, margin - s_pos + s_neg); margins are not checked."""
    return np.maximum(0.0, margin - s_pos + s_neg)
