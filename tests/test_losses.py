"""Unit tests for the per-instance losses and the protocol container."""

import math

import pytest

from coteach import (LearningProtocol, PairwiseTriple, PointwiseExample,
                     TokenizedDialogue, cross_entropy, hinge_with_margin)
from coteach.losses import CE_EPS, CROSS_ENTROPY, HINGE_WITH_MARGIN


def _example(y=1):
    return PointwiseExample(y, TokenizedDialogue(((1, 2),), (3,)))


def _triple():
    return PairwiseTriple(((1, 2),), (3,), (4,))


class TestCrossEntropy:
    def test_half_score_positive(self):
        assert cross_entropy(1, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_half_score_negative(self):
        assert cross_entropy(0, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_clamp_at_tiny_score(self):
        # scores below the clamp floor all behave like s = 1e-7
        assert cross_entropy(1, 1e-9) == pytest.approx(-math.log(CE_EPS), abs=1e-9)
        assert cross_entropy(1, 0.0) == cross_entropy(1, 1e-9)

    def test_clamp_at_high_score(self):
        assert cross_entropy(0, 1.0) == pytest.approx(-math.log(CE_EPS), abs=1e-9)

    def test_loss_approaches_zero_near_label(self):
        assert cross_entropy(1, 1.0 - 1e-9) < 1e-6
        assert cross_entropy(0, 1e-9) < 1e-6

    def test_monotonicity(self):
        scores = [0.1, 0.3, 0.5, 0.7, 0.9]
        pos = [cross_entropy(1, s) for s in scores]
        neg = [cross_entropy(0, s) for s in scores]
        assert pos == sorted(pos, reverse=True)
        assert neg == sorted(neg)


class TestHingeWithMargin:
    def test_satisfied_pair_gives_zero(self):
        assert hinge_with_margin(0.9, 0.2, 0.4) == 0.0

    def test_equal_scores_pay_the_margin(self):
        assert hinge_with_margin(0.5, 0.5, 0.1) == pytest.approx(0.1)

    def test_zero_margin_boundary(self):
        assert hinge_with_margin(0.5, 0.5, 0.0) == 0.0

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            hinge_with_margin(0.5, 0.5, -0.1)

    def test_zero_exactly_when_separated_by_margin(self):
        for s_pos, s_neg, margin in [(0.8, 0.3, 0.5), (0.9, 0.1, 0.2)]:
            expected = 0.0 if s_pos - s_neg >= margin else margin - s_pos + s_neg
            assert hinge_with_margin(s_pos, s_neg, margin) == pytest.approx(expected)


class TestLearningProtocol:
    def test_requires_exactly_one_view(self):
        with pytest.raises(ValueError):
            LearningProtocol()
        with pytest.raises(ValueError):
            LearningProtocol(pairwise=((_triple(), 0.1),),
                             pointwise=((_example(), 1.0),))

    def test_instances_fix_the_loss_kind(self):
        assert (LearningProtocol(pairwise=((_triple(), 0.1),)).loss_kind
                == HINGE_WITH_MARGIN)
        for weights in ((1.0, 1.0), (1.0, 0.25)):
            protocol = LearningProtocol(pointwise=tuple(
                (_example(y), w) for y, w in zip((1, 0), weights)))
            assert protocol.loss_kind == CROSS_ENTROPY

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError, match="negative margin"):
            LearningProtocol(pairwise=((_triple(), 0.0), (_triple(), -0.2)))

    def test_rejects_weight_outside_unit_interval(self):
        for weight in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="outside"):
                LearningProtocol(pointwise=((_example(), 1.0), (_example(), weight)))

    def test_valid_protocols_accepted(self):
        LearningProtocol(pairwise=((_triple(), 0.0),))
        LearningProtocol(pointwise=((_example(), 1.0),))
        LearningProtocol(pointwise=((_example(), 0.0),))
