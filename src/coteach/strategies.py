"""Teaching strategies: how a teacher model builds its peer's protocol.

Each strategy is a pure function of (teacher parameters, sub-batch,
hyperparameter), the sub-batch a ``corpus.Batch`` the teacher scores through
``matcher``. The teacher only annotates or filters the triples' pointwise
view; margin keeps a (positive, negative) pair per triple. The ``none``
protocol needs no teacher: plain cross-entropy, as in pretraining.
"""

from __future__ import annotations

import math

import numpy as np

from . import losses, matcher
from .corpus import Batch
from .losses import LearningProtocol


def margin_protocol(teacher: matcher.ModelState, sub_batch: Batch,
                    lam: float) -> LearningProtocol:
    """Dynamic-margin teaching over pairwise triples: each triple keeps its
    place, with hinge margin max(0, lam * (s_T(c, r+) - s_T(c, r-))) from
    the teacher's scores. A teacher that ranks the negative above the
    positive (a likely false negative) hands the student margin 0,
    flattening that instance's loss; a teacher that scores NaN has diverged."""
    if not 0 < lam < math.inf:  # also rejects nan
        raise ValueError("lambda must be positive and finite")
    examples = sub_batch.examples()
    s = matcher.split_scores(teacher, sub_batch.split, examples)
    if not math.isfinite(s.sum()):
        raise FloatingPointError("non-finite teacher score")
    return LearningProtocol(sub_batch.split, examples,
                            np.maximum(0.0, lam * (s[0::2] - s[1::2])))


def weighting_protocol(teacher: matcher.ModelState, sub_batch: Batch) -> LearningProtocol:
    """Dynamic instance weighting over the triples' pointwise view:
    positives keep weight 1, a negative gets 1 - s_T(c, r), so negatives the
    teacher scores highly (suspected false negatives) weigh almost 0."""
    examples, weights = sub_batch.examples(), np.ones(2 * len(sub_batch))
    weights[1::2] = 1.0 - matcher.split_scores(teacher, sub_batch.split, examples[:, 1:])
    return LearningProtocol(sub_batch.split, examples.ravel(), weights)


def curriculum_protocol(teacher: matcher.ModelState, sub_batch: Batch,
                        delta: float) -> LearningProtocol:
    """Dynamic data curriculum: keeps the ceil(delta * n) of the triples' n
    pointwise examples with smallest teacher cross-entropy, ties broken by
    pointwise order (earlier wins), in that order with weight 1. The teacher
    pools each triple's context once to score its positive, then negative."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    examples = sub_batch.examples()
    s = matcher.split_scores(teacher, sub_batch.split, examples)
    examples = examples.ravel()
    teacher_losses = losses.cross_entropy(1 - (examples & 1), s)
    keep = math.ceil(delta * examples.size)
    selected = np.sort(np.argsort(teacher_losses, kind="stable")[:keep])
    return LearningProtocol(sub_batch.split, examples[selected], np.ones(keep))


def none_protocol(sub_batch: Batch) -> LearningProtocol:
    """No teaching: plain cross-entropy, weight 1, on the pointwise view."""
    return LearningProtocol(sub_batch.split, sub_batch.examples().ravel(),
                            np.ones(2 * len(sub_batch)))
