"""Unit tests for the three teaching strategies."""

import math

import numpy as np
import pytest

from coteach import (PairwiseTriple, PointwiseExample, TokenizedDialogue,
                     curriculum_protocol, init_params, margin_protocol,
                     weighting_protocol)
from coteach import matcher, strategies
from coteach.losses import (CROSS_ENTROPY, HINGE_WITH_MARGIN,
                            WEIGHTED_CROSS_ENTROPY, cross_entropy)

from conftest import random_triple


def _dialogue(tag):
    """Distinct dialogues keyed by an integer tag (vocab 20)."""
    return TokenizedDialogue(((tag % 20,),), ((tag * 7 + 1) % 20,))


def _fixed_score_teacher(monkeypatch, table):
    """Make matcher.scores return table[response] regardless of the model."""

    def fake_scores(model, dialogues):
        return np.array([table[d.response] for d in dialogues])

    monkeypatch.setattr(matcher, "scores", fake_scores)


@pytest.fixture
def teacher(small_spec):
    return init_params(small_spec, seed=3)


class TestMarginProtocol:
    def test_margin_formula_against_teacher_scores(self, teacher):
        rng = np.random.default_rng(0)
        sub_batch = [random_triple(rng) for _ in range(10)]
        lam = 0.5
        protocol = margin_protocol(teacher, sub_batch, lam)
        assert protocol.loss_kind == HINGE_WITH_MARGIN
        assert [t for t, _ in protocol.pairwise] == sub_batch
        for triple, margin in protocol.pairwise:
            s_pos = matcher.score(teacher, TokenizedDialogue(
                triple.context, triple.pos_response))
            s_neg = matcher.score(teacher, TokenizedDialogue(
                triple.context, triple.neg_response))
            assert margin == pytest.approx(max(0.0, lam * (s_pos - s_neg)),
                                           abs=1e-15)

    def test_confident_teacher_example(self, teacher, monkeypatch):
        triple = PairwiseTriple(((1,),), (2,), (3,))
        _fixed_score_teacher(monkeypatch, {(2,): 0.9, (3,): 0.1})
        protocol = margin_protocol(teacher, [triple], lam=0.5)
        assert protocol.pairwise[0][1] == pytest.approx(0.4)

    def test_misranked_pair_gets_zero_margin(self, teacher, monkeypatch):
        # teacher thinks the negative is better: likely a false negative
        triple = PairwiseTriple(((1,),), (2,), (3,))
        _fixed_score_teacher(monkeypatch, {(2,): 0.2, (3,): 0.7})
        protocol = margin_protocol(teacher, [triple], lam=0.5)
        assert protocol.pairwise[0][1] == 0.0

    def test_margin_homogeneous_in_lambda(self, teacher):
        rng = np.random.default_rng(1)
        sub_batch = [random_triple(rng) for _ in range(5)]
        one = margin_protocol(teacher, sub_batch, 1.0)
        half = margin_protocol(teacher, sub_batch, 0.5)
        for (_, m1), (_, m05) in zip(one.pairwise, half.pairwise):
            assert m05 == pytest.approx(0.5 * m1, abs=1e-15)

    def test_nonpositive_lambda_rejected(self, teacher):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            margin_protocol(teacher, [random_triple(rng)], 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_lambda_rejected(self, teacher, lam):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            margin_protocol(teacher, [random_triple(rng)], lam)

    def test_margins_equal_per_dialogue_oracle_bit_for_bit(
            self, small_spec, monkeypatch):
        rng = np.random.default_rng(4)
        teacher = matcher.ModelState(
            small_spec, rng.normal(0.0, 1.0, matcher.n_params(small_spec)))
        sub_batch = [random_triple(rng) for _ in range(40)]
        lam = 0.7
        expected = [max(0.0, lam * (
            matcher.score(teacher, TokenizedDialogue(t.context, t.pos_response))
            - matcher.score(teacher, TokenizedDialogue(t.context, t.neg_response))))
            for t in sub_batch]
        scored = []
        real_scores = matcher.scores
        monkeypatch.setattr(matcher, "scores", lambda model, ds: (
            scored.append(list(ds)) or real_scores(model, ds)))
        margins = [m for _, m in margin_protocol(teacher, sub_batch, lam).pairwise]
        assert np.array(margins).tobytes() == np.array(expected).tobytes()
        # One call, each triple's two dialogues side by side: one pooled context.
        [dialogues] = scored
        assert [d.context for d in dialogues[0::2]] == [d.context for d in dialogues[1::2]]

    def test_pure_function(self, teacher):
        rng = np.random.default_rng(3)
        sub_batch = [random_triple(rng) for _ in range(4)]
        assert (margin_protocol(teacher, sub_batch, 0.5)
                == margin_protocol(teacher, sub_batch, 0.5))


class TestWeightingProtocol:
    def test_positives_always_weight_one(self, teacher):
        examples = [PointwiseExample(1, _dialogue(i)) for i in range(5)]
        protocol = weighting_protocol(teacher, examples)
        assert protocol.loss_kind == WEIGHTED_CROSS_ENTROPY
        assert all(w == 1.0 for _, w in protocol.pointwise)

    def test_negative_weight_is_one_minus_teacher_score(self, teacher, monkeypatch):
        example = PointwiseExample(0, TokenizedDialogue(((1,),), (2,)))
        _fixed_score_teacher(monkeypatch, {(2,): 0.7})
        protocol = weighting_protocol(teacher, [example])
        assert protocol.pointwise[0][1] == pytest.approx(0.3)

    def test_certain_false_negative_effectively_removed(self, teacher, monkeypatch):
        example = PointwiseExample(0, TokenizedDialogue(((1,),), (2,)))
        _fixed_score_teacher(monkeypatch, {(2,): 1.0 - 1e-12})
        protocol = weighting_protocol(teacher, [example])
        assert protocol.pointwise[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_weights_bounded_and_order_preserved(self, teacher):
        rng = np.random.default_rng(4)
        examples = [PointwiseExample(int(rng.integers(2)), _dialogue(i))
                    for i in range(12)]
        protocol = weighting_protocol(teacher, examples)
        assert [e for e, _ in protocol.pointwise] == examples
        for example, w in protocol.pointwise:
            assert 0.0 <= w <= 1.0
            if example.y == 1:
                assert w == 1.0


class TestCurriculumProtocol:
    def _examples_with_losses(self, monkeypatch, losses):
        # all labels 1 and score = exp(-loss) makes teacher CE equal `loss`
        examples = [PointwiseExample(1, _dialogue(i)) for i in range(len(losses))]
        table = {e.dialogue.response: math.exp(-l)
                 for e, l in zip(examples, losses)}
        _fixed_score_teacher(monkeypatch, table)
        return examples

    def test_small_loss_selection(self, teacher, monkeypatch):
        examples = self._examples_with_losses(monkeypatch, [0.2, 0.9, 0.1, 0.5])
        protocol = curriculum_protocol(teacher, examples, delta=0.5)
        assert protocol.loss_kind == CROSS_ENTROPY
        # losses 0.1 and 0.2 win; kept in original sub-batch order
        assert [e for e, _ in protocol.pointwise] == [examples[0], examples[2]]
        assert all(w == 1.0 for _, w in protocol.pointwise)

    def test_delta_one_keeps_everything_in_order(self, teacher, monkeypatch):
        examples = self._examples_with_losses(monkeypatch, [0.5, 0.1, 0.9])
        protocol = curriculum_protocol(teacher, examples, delta=1.0)
        assert [e for e, _ in protocol.pointwise] == examples

    def test_cardinality_is_ceiling(self, teacher, monkeypatch):
        for n, delta, expected in [(10, 0.9, 9), (10, 0.85, 9), (4, 0.5, 2),
                                   (5, 0.1, 1), (3, 0.34, 2)]:
            examples = self._examples_with_losses(
                monkeypatch, list(np.linspace(0.1, 1.0, n)))
            protocol = curriculum_protocol(teacher, examples, delta)
            assert len(protocol.pointwise) == expected == math.ceil(delta * n)

    def test_ties_prefer_earlier_examples(self, teacher, monkeypatch):
        examples = self._examples_with_losses(monkeypatch, [0.3, 0.3, 0.3, 0.3])
        protocol = curriculum_protocol(teacher, examples, delta=0.5)
        assert [e for e, _ in protocol.pointwise] == examples[:2]

    def test_matches_full_sort_oracle(self, teacher):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            delta = float(rng.uniform(0.05, 1.0))
            examples = [PointwiseExample(int(rng.integers(2)), _dialogue(int(t)))
                        for t in rng.integers(0, 50, size=n)]
            teacher_losses = [
                cross_entropy(e.y, matcher.score(teacher, e.dialogue))
                for e in examples]
            keep = math.ceil(delta * n)
            order = np.argsort(np.array(teacher_losses), kind="stable")
            expected = [examples[i] for i in sorted(order[:keep])]
            protocol = curriculum_protocol(teacher, examples, delta)
            assert [e for e, _ in protocol.pointwise] == expected

    def test_kept_losses_never_exceed_dropped(self, teacher):
        rng = np.random.default_rng(6)
        examples = [PointwiseExample(int(rng.integers(2)), _dialogue(i))
                    for i in range(20)]
        protocol = curriculum_protocol(teacher, examples, delta=0.4)
        loss_of = {id(e): cross_entropy(e.y, matcher.score(teacher, e.dialogue))
                   for e in examples}
        kept_ids = {id(e) for e, _ in protocol.pointwise}
        kept = [loss_of[id(e)] for e in examples if id(e) in kept_ids]
        dropped = [loss_of[id(e)] for e in examples if id(e) not in kept_ids]
        assert max(kept) <= min(dropped) + 1e-12

    def test_invalid_delta_rejected(self, teacher, monkeypatch):
        examples = self._examples_with_losses(monkeypatch, [0.1])
        for delta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                curriculum_protocol(teacher, examples, delta)

    def test_empty_sub_batch_rejected(self, teacher):
        with pytest.raises(ValueError):
            curriculum_protocol(teacher, [], delta=0.5)
