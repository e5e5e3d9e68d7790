"""Teaching strategies: how a teacher model builds its peer's protocol.

Each strategy is a pure function of (teacher parameters, sub-batch of
pairwise triples, hyperparameter). It owns its instance view: margin keeps
the triples, the others expand them into the pointwise view themselves.
The teacher only annotates or filters; the returned protocol carries the
student's instances plus per-instance margins or weights, which fix the
loss. The ``none`` protocol needs no teacher: plain cross-entropy, the
loss of pretraining too.
"""

from __future__ import annotations

import math

import numpy as np

from . import losses, matcher
from .corpus import to_pointwise
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
    s = matcher.scores(teacher, [(t.context, (t.pos_response, t.neg_response))
                                 for t in sub_batch])
    margins = np.maximum(0.0, lam * (s[0::2] - s[1::2])).tolist()
    return LearningProtocol(pairwise=tuple(zip(sub_batch, margins)))


def weighting_protocol(teacher: matcher.ModelState, sub_batch) -> LearningProtocol:
    """Dynamic instance weighting over the triples' pointwise view.

    Positives keep weight 1; a negative gets 1 - s_T(c, r), so negatives the
    teacher scores highly (suspected false negatives) are downweighted
    toward 0.
    """
    examples = to_pointwise(sub_batch)
    neg_weights = iter((1.0 - matcher.scores(
        teacher, [(ex.dialogue.context, (ex.dialogue.response,))
                  for ex in examples if ex.y != 1])).tolist())
    return LearningProtocol(pointwise=tuple(
        (ex, 1.0 if ex.y == 1 else next(neg_weights)) for ex in examples))


def curriculum_protocol(teacher: matcher.ModelState, sub_batch,
                        delta: float) -> LearningProtocol:
    """Dynamic data curriculum: keep the small-teacher-loss instances.

    Keeps the ceil(delta * n) of the triples' n pointwise examples with
    smallest teacher cross-entropy, ties broken by pointwise order (earlier
    wins); the kept examples stay in that order with weight 1. The teacher
    pools each triple's context once to score its positive, then negative.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    sub_batch = list(sub_batch)
    examples = to_pointwise(sub_batch)
    if not examples:
        raise ValueError("empty sub-batch")
    teacher_losses = losses.cross_entropy(
        np.array([ex.y for ex in examples]),
        matcher.scores(teacher, [(t.context, (t.pos_response, t.neg_response))
                                 for t in sub_batch]))
    keep = math.ceil(delta * len(examples))
    selected = np.sort(np.argsort(teacher_losses, kind="stable")[:keep])
    return LearningProtocol(pointwise=tuple((examples[i], 1.0) for i in selected))


def none_protocol(sub_batch) -> LearningProtocol:
    """No teaching: plain cross-entropy, weight 1, on the pointwise view."""
    return LearningProtocol(pointwise=tuple((ex, 1.0) for ex in to_pointwise(sub_batch)))
