"""Unit tests for the matcher architectures, gradients and checkpoints."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coteach import MatcherSpec, engine, evaluation, score
from coteach import corpus, matcher
from coteach.corpus import PairwiseTriple, Triples
from coteach.losses import CROSS_ENTROPY, HINGE_WITH_MARGIN, LearningProtocol
from coteach.matcher import (ModelState, init_params, load_checkpoint, loss_and_grad,
                             n_params, param_layout, save_checkpoint, scores)

from conftest import (Dialogue, call_entries, pairwise_protocol, pointwise_protocol,
                      random_dialogue, random_triple)
from oracles import finite_diff_check


def _ragged_tokens(rng, vocab_size=20):
    return tuple(int(t) for t in rng.integers(0, vocab_size, size=rng.integers(1, 11)))


def _ragged_dialogue(rng):
    """1-3 context utterances and a response, each of 1-10 tokens."""
    context = tuple(_ragged_tokens(rng) for _ in range(rng.integers(1, 4)))
    return Dialogue(context, _ragged_tokens(rng))


def _scores(model, groups):
    """``scores`` of (context, responses) groups, packed and checked."""
    return scores(model, corpus.pack_groups(groups, model.spec.vocab_size))


def _one_each(dialogues):
    """Dialogues as (context, responses) groups of one response each."""
    return [(d.context, (d.response,)) for d in dialogues]


# Ragged (context, responses) groups over a vocab of 20: 1-3 context
# utterances and 1-6 responses, each of 1-10 tokens. A group may reuse the
# previous group's context object.
_TOKENS = st.lists(st.integers(0, 19), min_size=1, max_size=10).map(tuple)
_CONTEXTS = st.lists(_TOKENS, min_size=1, max_size=3).map(tuple)


@st.composite
def _ragged_groups(draw):
    groups = []
    for _ in range(draw(st.integers(1, 8))):
        reuse = groups and draw(st.booleans())
        context = groups[-1][0] if reuse else draw(_CONTEXTS)
        groups.append((context, draw(st.lists(_TOKENS, min_size=1, max_size=6))))
    return groups


def _ragged_triple(rng):
    d = _ragged_dialogue(rng)
    return PairwiseTriple(d.context, d.response, _ragged_tokens(rng))


def _reference_score(model, dialogue):
    """Per-dialogue forward: mean of utterance means, head, clamped sigmoid."""
    spec, p = model.spec, model.params
    layout, d = param_layout(spec), spec.embedding_dim
    E = p[layout["E"]].reshape(spec.vocab_size, d)
    u = np.mean([E[list(utt)].mean(axis=0) for utt in dialogue.context], axis=0)
    v = E[list(dialogue.response)].mean(axis=0)
    if spec.kind == "mean-embedding-bilinear":
        z = u @ p[layout["W"]].reshape(d, d) @ v + p[layout["b"]][0]
    else:
        W1 = p[layout["W1"]].reshape(spec.hidden_dim, 3 * d)
        a = np.tanh(W1 @ np.concatenate([u, v, u * v]) + p[layout["b1"]])
        z = p[layout["w2"]] @ a + p[layout["b2"]][0]
    return 1.0 / (1.0 + math.exp(-min(max(z, -30.0), 30.0)))


class TestSpecAndLayout:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MatcherSpec(kind="transformer", vocab_size=10)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            MatcherSpec(kind="mean-embedding-bilinear", vocab_size=10,
                        embedding_dim=0)

    def test_layout_partitions_param_vector(self, small_spec):
        layout = dict(param_layout(small_spec))
        total = layout.pop("_total")
        slices = sorted(layout.values(), key=lambda s: s.start)
        assert slices[0].start == 0
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start
        assert slices[-1].stop == total.stop == n_params(small_spec)

    def test_model_state_validates_length(self, small_spec):
        with pytest.raises(ValueError):
            ModelState(small_spec, np.zeros(n_params(small_spec) + 1))

    def test_model_state_rejects_nonfinite(self, small_spec):
        params = np.zeros(n_params(small_spec))
        params[0] = np.nan
        with pytest.raises(ValueError):
            ModelState(small_spec, params)


class TestInitParams:
    def test_deterministic(self, small_spec):
        a = init_params(small_spec, seed=5)
        b = init_params(small_spec, seed=5)
        assert np.array_equal(a.params, b.params)

    def test_biases_are_zero(self, small_spec):
        model = init_params(small_spec, seed=5)
        layout = param_layout(small_spec)
        for name, sl in layout.items():
            if name.startswith("b") and name != "_total":
                assert np.all(model.params[sl] == 0.0)

    def test_weights_in_init_range(self, small_spec):
        model = init_params(small_spec, seed=5)
        assert np.all(np.abs(model.params) <= 0.1)


class TestScore:
    def test_score_in_open_unit_interval(self, small_model):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = score(small_model, *random_dialogue(rng))
            assert 0.0 < s < 1.0

    def test_zero_head_gives_half(self, small_spec):
        # With every head parameter zero the pre-sigmoid logit is 0.
        model = init_params(small_spec, seed=5)
        params = model.params.copy()
        layout = param_layout(small_spec)
        for name, sl in layout.items():
            if name not in ("E", "_total"):
                params[sl] = 0.0
        model = ModelState(small_spec, params)
        assert score(model, ((1, 2),), (3,)) == 0.5

    def test_bilinear_closed_form(self):
        # d=1, all embeddings 1, W=[2], b=0: u=v=1, s = sigmoid(2).
        spec = MatcherSpec("mean-embedding-bilinear", vocab_size=5, embedding_dim=1)
        params = np.zeros(n_params(spec))
        layout = param_layout(spec)
        params[layout["E"]] = 1.0
        params[layout["W"]] = 2.0
        model = ModelState(spec, params)
        s = score(model, ((0, 1), (2,)), (3, 4))
        assert s == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        assert s == pytest.approx(0.880797, abs=1e-6)

    def test_token_permutation_invariance(self, small_model):
        d = (((3, 1, 4, 1, 5), (9, 2, 6)), (5, 3, 5, 8))
        permuted = (((1, 5, 4, 3, 1), (2, 6, 9)), (8, 5, 3, 5))
        assert score(small_model, *d) == pytest.approx(
            score(small_model, *permuted), abs=1e-15)

    def test_out_of_range_token_rejected(self, small_model):
        with pytest.raises(ValueError):
            score(small_model, ((99,),), (1,))

    def test_empty_utterance_rejected(self, small_model):
        with pytest.raises(ValueError):
            score(small_model, ((),), (1,))

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @pytest.mark.parametrize("dim", [4, 16, 32])
    def test_batch_equals_one_at_a_time_bit_for_bit(self, kind, dim):
        # Row-blocked BLAS products break this only at some sizes, so try
        # several widths and batch sizes.
        model = init_params(MatcherSpec(kind, vocab_size=20, embedding_dim=dim,
                                        hidden_dim=dim), seed=11)
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 17, 40, 96, 200):
            dialogues = [_ragged_dialogue(rng) for _ in range(n)]
            batched = _scores(model, _one_each(dialogues))
            assert batched.tolist() == [score(model, *d) for d in dialogues]

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @settings(max_examples=100, deadline=None)
    @given(groups=_ragged_groups())
    def test_pooled_contexts_score_bit_for_bit_alone(self, kind, groups):
        model = init_params(MatcherSpec(kind, vocab_size=20, embedding_dim=8,
                                        hidden_dim=8), seed=14)
        assert _scores(model, groups).tolist() == [
            score(model, c, r) for c, rs in groups for r in rs]
        packed = corpus.pack_groups(groups, 20)
        assert packed.runs.tolist() == [len(rs) for _, rs in groups]
        assert packed.n_utts.tolist() == [len(c) for c, _ in groups]

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @settings(max_examples=100, deadline=None)
    @given(groups=_ragged_groups())
    def test_scores_are_the_sigmoid_of_the_training_forward(self, kind, groups):
        # Scoring forms no derivatives, yet gives the training forward's
        # scores, one response per group, bit for bit.
        model = init_params(MatcherSpec(kind, vocab_size=20, embedding_dim=8,
                                        hidden_dim=8), seed=15)
        pooled = corpus.pack_groups(groups, 20)
        unpooled = corpus.pack_groups([(c, (r,)) for c, rs in groups for r in rs], 20)
        z, _ = matcher._forward(model.spec, model.params, unpooled)
        assert _scores(model, groups).tobytes() == matcher._sigmoid(z).tobytes()
        for packed in (pooled, unpooled):
            assert packed.n_ctx == packed.n_utts.sum()
            assert packed.ids.size == packed.lengths.sum()

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    def test_groups_without_responses_score_nothing(self, kind):
        model = init_params(MatcherSpec(kind, vocab_size=20, embedding_dim=4,
                                        hidden_dim=4), seed=16)
        empty = (((1, 2), (3,)), ())
        full = (((4,), (5, 6)), ((7,), (8, 9)))
        for groups in ([], [empty], [empty, empty]):
            assert _scores(model, groups).shape == (0,)
        assert (_scores(model, [empty, full, empty]).tobytes()
                == _scores(model, [full]).tobytes())
        with pytest.raises(ValueError, match="token ID out of range"):
            _scores(model, [(((99,),), ())])

    def test_matches_per_dialogue_reference(self, small_spec):
        rng = np.random.default_rng(13)
        # Large weights push some bilinear logits past the sigmoid clamp.
        model = ModelState(small_spec, rng.normal(0.0, 3.0, n_params(small_spec)))
        dialogues = [_ragged_dialogue(rng) for _ in range(40)]
        expected = [_reference_score(model, d) for d in dialogues]
        assert np.allclose(_scores(model, _one_each(dialogues)), expected,
                           rtol=0, atol=1e-12)


class TestSplitScores:
    """However many calls ``split_scores`` makes, every score is the one-call
    score, bit for bit, and so are validation P@1 and the ranked groups."""

    N = 41

    @pytest.fixture(scope="class")
    def splits(self):
        rng = np.random.default_rng(21)
        triples = Triples([_ragged_triple(rng) for _ in range(self.N)], vocab_size=20)
        groups = corpus.TestGroups([corpus.TestGroup(_ragged_dialogue(rng).context, tuple(
            (_ragged_tokens(rng), int(rng.integers(2))) for _ in range(rng.integers(1, 7))))
            for _ in range(self.N)], vocab_size=20)
        return ((triples, 2 * np.arange(self.N)[:, None] + (0, 1)),
                (groups, np.arange(self.N)))

    @staticmethod
    def _at(monkeypatch, model, split, rows_per_call):
        """Size calls to ``rows_per_call`` rows; returns the list each
        ``matcher.scores`` call appends its row count to."""
        monkeypatch.setattr(matcher, "_CALL_ENTRIES", call_entries(
            split, rows_per_call, model.spec.embedding_dim))
        calls, real_scores = [], matcher.scores
        monkeypatch.setattr(matcher, "scores", lambda m, packed: (
            calls.append(len(packed.runs)) or real_scores(m, packed)))
        return calls

    # One call; two calls, the last partial; one group a call; 3 a call with
    # a partial last call.
    @pytest.mark.parametrize("rows_per_call", [N, 21, 1, 3])
    def test_chunking_cannot_change_a_score(self, small_model, splits, rows_per_call,
                                            monkeypatch):
        (triples, _), (groups, _) = splits
        results = {}
        for size in (self.N, rows_per_call):
            for split, rows in splits:
                calls = self._at(monkeypatch, small_model, split, size)
                s = matcher.split_scores(small_model, split, rows)
                assert calls == [size] * (self.N // size) + (
                    [self.N % size] if self.N % size else [])
                results.setdefault(size, []).append(s.tobytes())
            self._at(monkeypatch, small_model, triples, size)
            results[size].append(engine.validation_p_at_1(small_model, triples))
            self._at(monkeypatch, small_model, groups, size)
            results[size].append(evaluation.rank_test_groups(small_model, groups))
            monkeypatch.undo()
        assert results[rows_per_call] == results[self.N]


def _pointwise_protocol(rng, weighted=True, n=4, make_dialogue=random_dialogue):
    """Cross-entropy instances; unweighted ones all have weight 1."""
    examples, weights = [], []
    for i in range(n):
        y = int(rng.integers(2))
        weights.append(float(rng.uniform(0, 1)) if weighted else 1.0)
        examples.append((y, *make_dialogue(rng)))
    return pointwise_protocol(examples, weights)


def _pairwise_protocol(rng, n=4, make_triple=random_triple):
    triples, margins = [], []
    for _ in range(n):
        triples.append(make_triple(rng))
        margins.append(float(rng.uniform(0, 0.5)))
    return pairwise_protocol(triples, margins)


def _add_at_gradient(model, protocol):
    """The gradient as a zero-filled buffer and ``np.add.at`` build it."""
    layout, d = param_layout(model.spec), model.spec.embedding_dim
    packed, labels, coef = matcher._protocol_arrays(protocol, model.spec.vocab_size)
    z, cache = matcher._forward(model.spec, model.params, packed)
    dL_dz = matcher._loss(protocol.loss_kind, z, labels, coef)[1]
    c, grad = dL_dz[:, None], np.zeros_like(model.params)
    if model.spec.kind == "mean-embedding-bilinear":
        u, v, W, Wv = cache
        du, dv = c * Wv, c * (u @ W)
        grad[layout["W"]] += ((c * u).T @ v).ravel()
    else:
        u, v, W1, w2, f, a = cache
        dpre = c * w2 * (1.0 - a * a)
        grad[layout["W1"]] += (dpre.T @ f).ravel()
        grad[layout["b1"]] += dpre.sum(axis=0)
        grad[layout["w2"]] += dL_dz @ a
        df = dpre @ W1
        du, dv = df[:, :d] + df[:, 2 * d:] * v, df[:, d:2 * d] + df[:, 2 * d:] * u
    grad[-1] += dL_dz.sum()  # b or b2: either head's last parameter
    seg = np.repeat(du / packed.n_utts[:, None], packed.n_utts, axis=0)
    seg = np.concatenate([seg, dv]) / packed.lengths[:, None]
    rows = np.repeat(seg, packed.lengths, axis=0)
    np.add.at(grad[layout["E"]].reshape(-1, d), packed.ids, rows)
    return grad


# Ragged instances over a vocab of 12 whose contexts all open with the
# utterance (0, 11, 0): token 0 repeats within a segment, and 0 and V-1
# recur across segments, so embedding entries sum several rows.
_V = 12
_ANCHOR = (0, _V - 1, 0)
_GRAD_TOKENS = st.lists(st.sampled_from((0, _V - 1)) | st.integers(0, _V - 1),
                        min_size=1, max_size=6).map(tuple)
_GRAD_CONTEXTS = st.lists(_GRAD_TOKENS, max_size=2).map(lambda us: (_ANCHOR, *us))


@st.composite
def _gradient_protocols(draw, loss_kind):
    n = draw(st.integers(2, 6))
    coef = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
    if loss_kind == HINGE_WITH_MARGIN:
        return pairwise_protocol([PairwiseTriple(
            draw(_GRAD_CONTEXTS), draw(_GRAD_TOKENS), draw(_GRAD_TOKENS))
            for _ in range(n)], coef)
    return pointwise_protocol([(draw(st.integers(0, 1)), draw(_GRAD_CONTEXTS),
                                draw(_GRAD_TOKENS)) for _ in range(n)], coef)


class TestLossAndGrad:
    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @pytest.mark.parametrize("loss_kind", [CROSS_ENTROPY, HINGE_WITH_MARGIN])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gradient_equals_add_at_scatter_bit_for_bit(self, kind, loss_kind, data):
        # allclose and finite differences cannot see a reordered sum; this can.
        spec = MatcherSpec(kind, vocab_size=_V, embedding_dim=3, hidden_dim=4)
        model = init_params(spec, seed=data.draw(st.integers(0, 1000)))
        protocol = data.draw(_gradient_protocols(loss_kind))
        protocols = [protocol]
        if protocol.pointwise:  # the drawn weights, then plain cross-entropy
            protocols.append(LearningProtocol(protocol.split, protocol.examples,
                                              np.ones(len(protocol.coef))))
        for p in protocols:
            assert np.array_equal(loss_and_grad(model, p)[1],
                                  _add_at_gradient(model, p))

    def test_satisfied_hinge_is_flat(self, small_spec):
        # Teacher margin 0 and positive already ahead: loss 0, zero gradient.
        model = init_params(small_spec, seed=1)
        rng = np.random.default_rng(2)
        triple = random_triple(rng)
        s_pos = score(model, triple.context, triple.pos_response)
        s_neg = score(model, triple.context, triple.neg_response)
        if s_pos < s_neg:
            triple = PairwiseTriple(triple.context, triple.neg_response,
                                    triple.pos_response)
        protocol = pairwise_protocol([triple], [0.0])
        loss, grad = loss_and_grad(model, protocol)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("bias", [100.0, -100.0])
    def test_hinge_gradient_is_zero_past_the_clamp(self, small_spec, bias):
        # Every hinge is active, but past the clamp the score is constant in
        # the params: the gradient is exactly zero, not s * (1 - s) ~ 1e-13.
        params = init_params(small_spec, seed=17).params.copy()
        params[-1] = bias  # b or b2: either head's last parameter
        model = ModelState(small_spec, params)
        protocol = _pairwise_protocol(np.random.default_rng(18), n=6,
                                      make_triple=_ragged_triple)
        packed, _, _ = matcher._protocol_arrays(protocol, small_spec.vocab_size)
        z, _ = matcher._forward(small_spec, params, packed)
        assert np.all(np.abs(z) > matcher._Z_CLAMP)
        loss, grad = loss_and_grad(model, protocol)
        assert loss > 0.0
        assert not grad.any()

    def test_zero_weights_give_zero_loss_and_grad(self, small_model):
        rng = np.random.default_rng(3)
        protocol = pointwise_protocol(
            [(1, *random_dialogue(rng)) for _ in range(3)], [0.0] * 3)
        loss, grad = loss_and_grad(small_model, protocol)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_empty_protocol_rejected(self):
        # the protocol container itself refuses emptiness
        with pytest.raises(ValueError):
            pairwise_protocol([], [])

    @pytest.mark.parametrize("kind", [CROSS_ENTROPY, HINGE_WITH_MARGIN])
    def test_batch_loss_and_grad_is_sum_of_single_instances(self, small_model, kind):
        rng = np.random.default_rng(14)
        if kind == HINGE_WITH_MARGIN:
            # Margins up to 0.5 keep most hinges active at init.
            protocol = _pairwise_protocol(rng, n=8, make_triple=_ragged_triple)
        else:
            protocol = _pointwise_protocol(rng, n=8, make_dialogue=_ragged_dialogue)
        singles = [LearningProtocol(protocol.split, protocol.examples[i:i + 1],
                                    protocol.coef[i:i + 1]) for i in range(8)]
        loss, grad = loss_and_grad(small_model, protocol)
        parts = [loss_and_grad(small_model, p) for p in singles]
        assert loss == pytest.approx(sum(l for l, _ in parts), rel=0, abs=1e-12)
        assert np.allclose(grad, sum(g for _, g in parts), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("loss_kind", ["hinge", "ce", "wce", "ragged-hinge"])
    def test_gradient_matches_finite_differences(self, small_spec, loss_kind):
        rng = np.random.default_rng(5)
        model = init_params(small_spec, seed=int(rng.integers(1000)))
        if loss_kind == "ragged-hinge":
            protocol = _pairwise_protocol(rng, make_triple=_ragged_triple)
        elif loss_kind == "hinge":
            protocol = _pairwise_protocol(rng)
        else:
            protocol = _pointwise_protocol(rng, weighted=loss_kind == "wce")
        assert finite_diff_check(model, protocol, step=1e-5) < 1e-4


class TestFiniteDiffCheck:
    def test_doubled_gradient_detected(self, small_model, monkeypatch):
        rng = np.random.default_rng(6)
        protocol = _pointwise_protocol(rng, weighted=False)
        real = matcher.loss_and_grad

        def doubled(model, proto):
            loss, grad = real(model, proto)
            return loss, 2.0 * grad

        monkeypatch.setattr(matcher, "loss_and_grad", doubled)
        err = finite_diff_check(small_model, protocol, step=1e-5)
        # |2g - g| / max(|2g|, |g|) = 0.5 on every active coordinate
        assert err == pytest.approx(0.5, abs=1e-3)

    def test_flat_region_reports_zero(self, small_spec):
        # A protocol whose loss is identically 0 near the current params.
        model = init_params(small_spec, seed=1)
        rng = np.random.default_rng(7)
        triple = random_triple(rng)
        s_pos = score(model, triple.context, triple.pos_response)
        s_neg = score(model, triple.context, triple.neg_response)
        if s_pos < s_neg:
            triple = PairwiseTriple(triple.context, triple.neg_response,
                                    triple.pos_response)
        protocol = pairwise_protocol([triple], [0.0])
        assert finite_diff_check(model, protocol, step=1e-6) == 0.0

    def test_nonpositive_step_rejected(self, small_model):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            finite_diff_check(small_model, _pointwise_protocol(rng, weighted=False),
                              step=0.0)


class TestCheckpoints:
    def test_round_trip_preserves_bits(self, small_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == small_model.spec
        assert np.array_equal(loaded.params, small_model.params)
        rng = np.random.default_rng(9)
        d = random_dialogue(rng)
        assert score(loaded, *d) == score(small_model, *d)

    def test_truncated_file_rejected(self, small_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, small_model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(small_model, path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="oversized checkpoint"):
            load_checkpoint(path)

    def test_header_count_does_not_size_the_read(self, tmp_path):
        spec = MatcherSpec("interaction-mlp", vocab_size=10 ** 17,
                           embedding_dim=4, hidden_dim=4)
        path = tmp_path / "m.ckpt"
        path.write_bytes(f"interaction-mlp {10 ** 17} 4 4 {n_params(spec)}\n"
                         .encode() + bytes(64))
        with pytest.raises(ValueError, match="64 parameter bytes"):
            load_checkpoint(path)
