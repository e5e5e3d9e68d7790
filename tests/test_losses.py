"""Unit tests for the per-instance losses and the protocol container."""

import math

import numpy as np
import pytest

from coteach import cross_entropy
from coteach.corpus import PairwiseTriple
from coteach.losses import (CE_EPS, CROSS_ENTROPY, HINGE_WITH_MARGIN, LearningProtocol,
                            hinge)
from oracles import build_split

# Two triples: pointwise examples 0 and 2 are positives, 1 and 3 negatives.
SPLIT = build_split([PairwiseTriple(((1, 2),), (3,), (4,))] * 2)


def _pairwise(*margins, pairs=((0, 1), (2, 3))):
    return LearningProtocol(SPLIT, np.array(pairs[:len(margins)]).reshape(-1, 2),
                            np.array(margins))


def _pointwise(*weights, examples=None):
    if examples is None:
        examples = np.arange(len(weights))
    return LearningProtocol(SPLIT, np.array(examples), np.array(weights))


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
    # A negative margin never reaches the hinge: LearningProtocol rejects it
    # (TestLearningProtocol.test_rejects_negative_margin).
    def test_satisfied_pair_gives_zero(self):
        assert hinge(0.9, 0.2, 0.4) == 0.0

    def test_equal_scores_pay_the_margin(self):
        assert hinge(0.5, 0.5, 0.1) == pytest.approx(0.1)

    def test_zero_margin_boundary(self):
        assert hinge(0.5, 0.5, 0.0) == 0.0

    def test_zero_exactly_when_separated_by_margin(self):
        for s_pos, s_neg, margin in [(0.8, 0.3, 0.5), (0.9, 0.1, 0.2)]:
            expected = 0.0 if s_pos - s_neg >= margin else margin - s_pos + s_neg
            assert hinge(s_pos, s_neg, margin) == pytest.approx(expected)


class TestLearningProtocol:
    def test_rejects_instances_of_neither_shape(self):
        for examples in (np.zeros((1, 3), int), np.zeros((1, 2, 2), int),
                         np.array(0)):
            with pytest.raises(ValueError, match="at least one instance"):
                LearningProtocol(SPLIT, examples, np.array([1.0]))

    def test_instances_fix_the_loss_kind(self):
        assert _pairwise(0.1).loss_kind == HINGE_WITH_MARGIN
        for weights in ((1.0, 1.0), (1.0, 0.25)):
            assert _pointwise(*weights).loss_kind == CROSS_ENTROPY

    def test_views_pair_each_instance_with_its_coefficient(self):
        assert _pairwise(0.1, 0.0).pairwise == (((0, 1), 0.1), ((2, 3), 0.0))
        assert _pairwise(0.1, 0.0).pointwise == ()
        protocol = _pointwise(1.0, 0.25, examples=[3, 0])
        assert protocol.pointwise == ((3, 1.0), (0, 0.25))
        assert protocol.pairwise == ()

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError, match="negative margin"):
            _pairwise(0.0, -0.2)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_margin(self, margin):
        with pytest.raises(ValueError, match="^non-finite margin$"):
            _pairwise(margin, 0.5)

    def test_rejects_weight_outside_unit_interval(self):
        for weight in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="outside"):
                _pointwise(1.0, weight)

    def test_rejects_positions_outside_the_split(self):
        for bad in ((4, 5), (-1, 0)):
            with pytest.raises(ValueError, match="outside the split"):
                _pairwise(1.0, pairs=(bad,))
        for bad in (4, -1):
            with pytest.raises(ValueError, match="outside the split"):
                _pointwise(1.0, examples=[bad])

    def test_positions_must_be_integers(self):
        # A boolean mask would read as positions 0 and 1.
        for examples in (np.array([True, True]), np.array([0.0, 3.0])):
            with pytest.raises(TypeError, match="positions must be integers"):
                _pointwise(1.0, 1.0, examples=examples)
        protocol = LearningProtocol(SPLIT, [[0, 1]], [0.5])
        assert protocol.pairwise == (((0, 1), 0.5),)

    def test_rejects_empty_and_mismatched_instances(self):
        with pytest.raises(ValueError, match="at least one instance"):
            _pointwise()
        with pytest.raises(ValueError, match="at least one instance"):
            _pointwise(1.0, examples=[0, 1])

    def test_valid_protocols_accepted(self):
        _pairwise(0.0)
        _pointwise(1.0)
        _pointwise(0.0)
