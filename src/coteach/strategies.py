"""Teaching strategies: how a teacher model builds its peer's protocol.

Each strategy is a pure function of (teacher parameters, sub-batch,
hyperparameter). The teacher only annotates or filters; the returned
protocol carries the student's instances plus per-instance margins or
weights and the loss kind to use.
"""

from __future__ import annotations

import math

import numpy as np

from . import losses, matcher
from .corpus import interleaved_dialogues
from .losses import LearningProtocol


def margin_protocol(teacher: matcher.ModelState, sub_batch,
                    lam: float) -> LearningProtocol:
    """Dynamic-margin teaching over pairwise triples.

    Each triple keeps its place in the protocol; its hinge margin is
    max(0, lam * (s_T(c, r+) - s_T(c, r-))) from the teacher's scores. A
    teacher that ranks the negative above the positive (a likely false
    negative) hands the student margin 0, flattening that instance's loss.
    """
    if not 0 < lam < math.inf:  # also rejects nan
        raise ValueError("lambda must be positive and finite")
    sub_batch = list(sub_batch)
    s = matcher.scores(teacher, interleaved_dialogues(sub_batch))
    margins = np.maximum(0.0, lam * (s[0::2] - s[1::2])).tolist()
    return LearningProtocol(losses.HINGE_WITH_MARGIN,
                            pairwise=tuple(zip(sub_batch, margins)))


def weighting_protocol(teacher: matcher.ModelState, sub_batch) -> LearningProtocol:
    """Dynamic instance weighting over pointwise examples.

    Positives keep weight 1; a negative gets 1 - s_T(c, r), so negatives the
    teacher scores highly (suspected false negatives) are downweighted
    toward 0.
    """
    sub_batch = list(sub_batch)
    neg_weights = iter((1.0 - matcher.scores(
        teacher, [ex.dialogue for ex in sub_batch if ex.y != 1])).tolist())
    annotated = tuple((ex, 1.0 if ex.y == 1 else next(neg_weights))
                      for ex in sub_batch)
    return LearningProtocol(losses.WEIGHTED_CROSS_ENTROPY, pointwise=annotated)


def curriculum_protocol(teacher: matcher.ModelState, sub_batch,
                        delta: float) -> LearningProtocol:
    """Dynamic data curriculum: keep the small-teacher-loss instances.

    Keeps the ceil(delta * |sub_batch|) examples with smallest teacher
    cross-entropy, ties broken by original sub-batch order (earlier wins);
    the kept examples stay in original order with weight 1.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    sub_batch = list(sub_batch)
    if not sub_batch:
        raise ValueError("empty sub-batch")
    teacher_losses = losses.cross_entropy(
        np.array([ex.y for ex in sub_batch]),
        matcher.scores(teacher, [ex.dialogue for ex in sub_batch]))
    keep = math.ceil(delta * len(sub_batch))
    selected = np.sort(np.argsort(teacher_losses, kind="stable")[:keep])
    return LearningProtocol(losses.CROSS_ENTROPY,
                            pointwise=tuple((sub_batch[i], 1.0) for i in selected))
