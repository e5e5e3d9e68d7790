"""Unit tests for the teaching strategies and the teacherless ``none``."""

import math

import numpy as np
import pytest

from coteach import curriculum_protocol, margin_protocol, weighting_protocol
from coteach.corpus import PairwiseTriple, pack_groups
from coteach.matcher import init_params
from coteach import matcher, strategies
from coteach.losses import CROSS_ENTROPY, HINGE_WITH_MARGIN, cross_entropy

from conftest import example, fix_teacher_scores, random_triple, whole_batch


def _pointwise_view(triples):
    """The (y, context, response) examples of ``triples``: each triple's
    positive, then its negative."""
    return [example(triples, i) for i in range(2 * len(triples))]


def _kept(protocol):
    """The (y, context, response) examples a cross-entropy protocol keeps."""
    return [example(protocol.split, e) for e, _ in protocol.pointwise]


@pytest.fixture
def teacher(small_spec):
    return init_params(small_spec, seed=3)


class TestMarginProtocol:
    def test_margin_formula_against_teacher_scores(self, teacher):
        rng = np.random.default_rng(0)
        sub_batch = [random_triple(rng) for _ in range(10)]
        lam = 0.5
        protocol = margin_protocol(teacher, whole_batch(sub_batch), lam)
        assert protocol.loss_kind == HINGE_WITH_MARGIN
        assert [pair for pair, _ in protocol.pairwise] == [
            (2 * i, 2 * i + 1) for i in range(10)]
        assert list(protocol.split) == sub_batch
        for (pos, _), margin in protocol.pairwise:
            triple = protocol.split[pos // 2]
            s_pos = matcher.score(teacher, triple.context, triple.pos_response)
            s_neg = matcher.score(teacher, triple.context, triple.neg_response)
            assert margin == pytest.approx(max(0.0, lam * (s_pos - s_neg)),
                                           abs=1e-15)

    def test_confident_teacher_example(self, teacher, monkeypatch):
        triple = PairwiseTriple(((1,),), (2,), (3,))
        fix_teacher_scores(monkeypatch, {(2,): 0.9, (3,): 0.1})
        protocol = margin_protocol(teacher, whole_batch([triple]), lam=0.5)
        assert protocol.pairwise[0][1] == pytest.approx(0.4)

    def test_misranked_pair_gets_zero_margin(self, teacher, monkeypatch):
        # teacher thinks the negative is better: likely a false negative
        triple = PairwiseTriple(((1,),), (2,), (3,))
        fix_teacher_scores(monkeypatch, {(2,): 0.2, (3,): 0.7})
        protocol = margin_protocol(teacher, whole_batch([triple]), lam=0.5)
        assert protocol.pairwise[0][1] == 0.0

    def test_diverged_teacher_is_reported_as_divergence(self, teacher, monkeypatch):
        triple = PairwiseTriple(((1,),), (2,), (3,))
        fix_teacher_scores(monkeypatch, {(2,): math.nan, (3,): 0.1})
        with pytest.raises(FloatingPointError, match="^non-finite teacher score$"):
            margin_protocol(teacher, whole_batch([triple]), lam=0.5)

    def test_margin_homogeneous_in_lambda(self, teacher):
        rng = np.random.default_rng(1)
        sub_batch = [random_triple(rng) for _ in range(5)]
        one = margin_protocol(teacher, whole_batch(sub_batch), 1.0)
        half = margin_protocol(teacher, whole_batch(sub_batch), 0.5)
        for (_, m1), (_, m05) in zip(one.pairwise, half.pairwise):
            assert m05 == pytest.approx(0.5 * m1, abs=1e-15)

    def test_nonpositive_lambda_rejected(self, teacher):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            margin_protocol(teacher, whole_batch([random_triple(rng)]), 0.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_lambda_rejected(self, teacher, lam):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            margin_protocol(teacher, whole_batch([random_triple(rng)]), lam)

    def test_margins_equal_per_dialogue_oracle_bit_for_bit(
            self, small_spec, monkeypatch):
        rng = np.random.default_rng(4)
        teacher = matcher.ModelState(
            small_spec, rng.normal(0.0, 1.0, matcher.n_params(small_spec)))
        sub_batch = [random_triple(rng) for _ in range(40)]
        lam = 0.7
        expected = [max(0.0, lam * (
            matcher.score(teacher, t.context, t.pos_response)
            - matcher.score(teacher, t.context, t.neg_response)))
            for t in sub_batch]
        scored = []
        real_scores = matcher.split_scores
        monkeypatch.setattr(matcher, "split_scores", lambda model, split, examples: (
            scored.append((split, examples)) or real_scores(model, split, examples)))
        margins = [m for _, m in margin_protocol(teacher, whole_batch(sub_batch), lam).pairwise]
        assert np.array(margins).tobytes() == np.array(expected).tobytes()
        # One call scoring each triple's two responses: one pooled context.
        [(split, examples)] = scored
        assert list(split) == sub_batch
        assert examples.tolist() == [[2 * i, 2 * i + 1] for i in range(40)]

    def test_pure_function(self, teacher):
        rng = np.random.default_rng(3)
        sub_batch = [random_triple(rng) for _ in range(4)]
        one, two = (margin_protocol(teacher, whole_batch(sub_batch), 0.5) for _ in range(2))
        assert one.pairwise == two.pairwise and one.split == two.split


class TestWeightingProtocol:
    def test_positives_always_weight_one(self, teacher):
        rng = np.random.default_rng(3)
        sub_batch = [random_triple(rng) for _ in range(5)]
        protocol = weighting_protocol(teacher, whole_batch(sub_batch))
        assert protocol.loss_kind == CROSS_ENTROPY
        assert _kept(protocol) == _pointwise_view(sub_batch)
        assert all(w == 1.0 for e, w in protocol.pointwise if e % 2 == 0)

    def test_negative_weight_is_one_minus_teacher_score(self, teacher, monkeypatch):
        triple = PairwiseTriple(((1,),), (3,), (2,))
        fix_teacher_scores(monkeypatch, {(2,): 0.7})
        protocol = weighting_protocol(teacher, whole_batch([triple]))
        assert protocol.pointwise[0][1] == 1.0
        assert protocol.pointwise[1][1] == pytest.approx(0.3)

    def test_certain_false_negative_effectively_removed(self, teacher, monkeypatch):
        triple = PairwiseTriple(((1,),), (3,), (2,))
        fix_teacher_scores(monkeypatch, {(2,): 1.0 - 1e-12})
        protocol = weighting_protocol(teacher, whole_batch([triple]))
        assert protocol.pointwise[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_weights_bounded_and_order_preserved(self, teacher):
        rng = np.random.default_rng(4)
        sub_batch = [random_triple(rng) for _ in range(6)]
        protocol = weighting_protocol(teacher, whole_batch(sub_batch))
        assert _kept(protocol) == _pointwise_view(sub_batch)
        for e, w in protocol.pointwise:
            assert 0.0 <= w <= 1.0
            if e % 2 == 0:
                assert w == 1.0


def _triples_with_losses(monkeypatch, losses):
    """Triples whose pointwise view has teacher cross-entropies ``losses``:
    a positive scores exp(-loss), a negative 1 - exp(-loss)."""
    triples, table = [], {}
    for i in range(0, len(losses), 2):
        pos, neg = (2 * i,), (2 * i + 1,)
        triples.append(PairwiseTriple(((1,),), pos, neg))
        table[pos] = math.exp(-losses[i])
        table[neg] = 1.0 - math.exp(-losses[i + 1])
    fix_teacher_scores(monkeypatch, table)
    return triples, _pointwise_view(triples)


class TestCurriculumProtocol:
    def test_small_loss_selection(self, teacher, monkeypatch):
        triples, examples = _triples_with_losses(monkeypatch, [0.2, 0.9, 0.1, 0.5])
        protocol = curriculum_protocol(teacher, whole_batch(triples), delta=0.5)
        assert protocol.loss_kind == CROSS_ENTROPY
        # losses 0.1 and 0.2 win; kept in original pointwise order
        assert _kept(protocol) == [examples[0], examples[2]]
        assert all(w == 1.0 for _, w in protocol.pointwise)

    def test_delta_one_keeps_everything_in_order(self, teacher, monkeypatch):
        triples, examples = _triples_with_losses(monkeypatch, [0.5, 0.1, 0.9, 0.3])
        protocol = curriculum_protocol(teacher, whole_batch(triples), delta=1.0)
        assert _kept(protocol) == examples

    def test_cardinality_is_ceiling(self, teacher, monkeypatch):
        for n, delta, expected in [(10, 0.9, 9), (10, 0.85, 9), (4, 0.5, 2),
                                   (2, 0.1, 1), (6, 0.34, 3)]:
            triples, _ = _triples_with_losses(
                monkeypatch, list(np.linspace(0.1, 1.0, n)))
            protocol = curriculum_protocol(teacher, whole_batch(triples), delta)
            assert len(protocol.pointwise) == expected == math.ceil(delta * n)

    def test_ties_prefer_earlier_examples(self, teacher, monkeypatch):
        triples, examples = _triples_with_losses(monkeypatch, [0.3, 0.3, 0.3, 0.3])
        protocol = curriculum_protocol(teacher, whole_batch(triples), delta=0.5)
        assert _kept(protocol) == examples[:2]

    def test_matches_full_sort_oracle(self, teacher):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            delta = float(rng.uniform(0.05, 1.0))
            triples = [random_triple(rng) for _ in range(n)]
            examples = _pointwise_view(triples)
            teacher_losses = [cross_entropy(y, matcher.score(teacher, c, r))
                              for y, c, r in examples]
            keep = math.ceil(delta * len(examples))
            order = np.argsort(np.array(teacher_losses), kind="stable")
            expected = [examples[i] for i in sorted(order[:keep])]
            protocol = curriculum_protocol(teacher, whole_batch(triples), delta)
            assert _kept(protocol) == expected

    def test_pooled_teacher_equals_unpooled_reference(self, small_spec, monkeypatch):
        # The teacher pools each triple's context once; a reference that
        # scores every pointwise example on its own selects the same
        # instances from the same scores, bit for bit.
        rng = np.random.default_rng(7)
        teacher = matcher.ModelState(
            small_spec, rng.normal(0.0, 1.0, matcher.n_params(small_spec)))
        triples = [random_triple(rng, n_utts=int(rng.integers(1, 4)))
                   for _ in range(12)]
        examples = _pointwise_view(triples)
        reference = matcher.scores(teacher, pack_groups([(c, (r,)) for _, c, r in examples],
                                                        small_spec.vocab_size))
        teacher_losses = cross_entropy(np.array([y for y, _, _ in examples]), reference)
        order = np.argsort(teacher_losses, kind="stable")
        for delta in (0.3, 0.75, 1.0):
            scored = []
            real_scores = matcher.split_scores
            monkeypatch.setattr(matcher, "split_scores", lambda model, split, rows: (
                scored.append((split, rows, real_scores(model, split, rows)))
                or scored[-1][2]))
            protocol = curriculum_protocol(teacher, whole_batch(triples), delta)
            monkeypatch.undo()
            keep = math.ceil(delta * len(examples))
            assert protocol.loss_kind == CROSS_ENTROPY
            assert protocol.pointwise == tuple((int(i), 1.0) for i in sorted(order[:keep]))
            [(split, rows, pooled)] = scored
            assert list(split) == triples and split is protocol.split
            assert rows.shape == (len(triples), 2)
            assert pooled.tobytes() == reference.tobytes()

    def test_kept_losses_never_exceed_dropped(self, teacher):
        rng = np.random.default_rng(6)
        triples = [random_triple(rng) for _ in range(10)]
        protocol = curriculum_protocol(teacher, whole_batch(triples), delta=0.4)
        kept = _kept(protocol)
        dropped = [e for e in _pointwise_view(triples) if e not in kept]
        assert (len(kept), len(dropped)) == (8, 12)

        def loss(e):
            y, c, r = e
            return cross_entropy(y, matcher.score(teacher, c, r))

        assert max(map(loss, kept)) <= min(map(loss, dropped)) + 1e-12

    def test_invalid_delta_rejected(self, teacher, monkeypatch):
        triples, _ = _triples_with_losses(monkeypatch, [0.1, 0.2])
        for delta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                curriculum_protocol(teacher, whole_batch(triples), delta)

    def test_empty_sub_batch_rejected(self, teacher):
        with pytest.raises(ValueError):
            curriculum_protocol(teacher, whole_batch([]), delta=0.5)


class TestNoneProtocol:
    def test_plain_cross_entropy_on_the_pointwise_view(self, monkeypatch):
        def no_teacher(model, groups):
            raise AssertionError("the none protocol scored with a teacher")

        monkeypatch.setattr(matcher, "scores", no_teacher)
        monkeypatch.setattr(matcher, "split_scores", no_teacher)
        rng = np.random.default_rng(7)
        sub_batch = [random_triple(rng) for _ in range(3)]
        protocol = strategies.none_protocol(whole_batch(sub_batch))
        assert protocol.loss_kind == CROSS_ENTROPY
        assert protocol.pointwise == tuple((e, 1.0) for e in range(6))
        assert _kept(protocol) == _pointwise_view(sub_batch)
