"""Unit tests for the training engine: Adam, the co-teaching loop, history."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from coteach import (GenConfig, MatcherSpec, OptimizerState, PairwiseTriple,
                     TokenizedDialogue, TrainConfig, adam_update, coteach_step,
                     coteach_train, generate_synthetic_corpus, init_params,
                     pretrain, select_model, split_batch, validation_p_at_1)
from coteach import engine, matcher
from coteach.engine import (HistoryRecord, RunHistory, init_optimizer,
                            read_history, write_history)


SPEC = MatcherSpec("mean-embedding-bilinear", vocab_size=60, embedding_dim=8)


def _config(**kw):
    defaults = dict(strategy="none", learning_rate=1e-3, batch_size=10,
                    n_epochs=1, seed=0, eval_every=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            _config(batch_size=9)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            _config(strategy="distillation")

    def test_margin_requires_lambda(self):
        with pytest.raises(ValueError):
            _config(strategy="margin")
        _config(strategy="margin", lam=0.5)

    def test_curriculum_requires_delta_in_range(self):
        with pytest.raises(ValueError):
            _config(strategy="curriculum")
        with pytest.raises(ValueError):
            _config(strategy="curriculum", delta=1.5)
        _config(strategy="curriculum", delta=0.9)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_learning_rate_rejected(self, value):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            _config(learning_rate=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_lambda_rejected(self, value):
        with pytest.raises(ValueError, match="finite lam"):
            _config(strategy="margin", lam=value)


def _adam_reference(params, grad, state, lr, beta1, beta2, eps):
    """The whole-vector Adam step the blocked kernel must reproduce bit for bit."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


B = engine.ADAM_BLOCK


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0])
        state = OptimizerState(np.zeros(2), np.zeros(2), 0)
        new_params, new_state = adam_update(params, np.zeros(2), state, lr=0.1)
        assert np.array_equal(new_params, params)
        assert np.all(new_state.m == 0.0) and np.all(new_state.v == 0.0)
        assert new_state.t == 1

    def test_first_step_moves_by_learning_rate(self):
        # with g=1 the bias-corrected ratio m_hat/sqrt(v_hat) is exactly 1
        params = np.array([0.0])
        state = OptimizerState(np.zeros(1), np.zeros(1), 0)
        lr = 0.05
        new_params, _ = adam_update(params, np.ones(1), state, lr=lr)
        assert new_params[0] == pytest.approx(-lr, rel=1e-6)

    def test_zero_learning_rate_still_updates_moments(self):
        params = np.array([1.0])
        state = OptimizerState(np.zeros(1), np.zeros(1), 0)
        new_params, new_state = adam_update(params, np.array([2.0]), state, lr=0.0)
        assert np.array_equal(new_params, params)
        assert new_state.m[0] != 0.0 and new_state.v[0] != 0.0

    def test_nonfinite_gradient_aborts_with_index(self):
        params = np.zeros(3)
        state = OptimizerState(np.zeros(3), np.zeros(3), 0)
        grad = np.array([0.0, np.inf, 0.0])
        with pytest.raises(FloatingPointError, match="index 1"):
            adam_update(params, grad, state, lr=0.1)

    def test_length_mismatch_rejected(self):
        state = OptimizerState(np.zeros(2), np.zeros(2), 0)
        with pytest.raises(ValueError):
            adam_update(np.zeros(2), np.zeros(3), state, lr=0.1)

    @staticmethod
    def _inputs(n, seed, sparse):
        rng = np.random.default_rng(seed)
        grad = rng.standard_normal(n) * rng.uniform(1e-6, 10.0)
        if sparse:
            grad[rng.random(n) >= 0.02] = 0.0
        state = OptimizerState(rng.standard_normal(n) * 0.01,
                               rng.random(n) * 1e-3, int(rng.integers(0, 5000)))
        hyper = dict(lr=float(rng.uniform(0, 1e-2)),
                     beta1=float(rng.uniform(0.5, 0.99)),
                     beta2=float(rng.uniform(0.9, 0.9999)),
                     eps=float(10.0 ** rng.uniform(-10, -6)))
        return rng.standard_normal(n), grad, state, hyper

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7, 641_025])
    def test_bit_identical_to_whole_vector_step(self, n, sparse):
        params, grad, state, hyper = self._inputs(n, n + sparse, sparse)
        new_params, new_state = adam_update(params, grad, state, **hyper)
        ref_params, ref_m, ref_v, ref_t = _adam_reference(params, grad, state, **hyper)
        assert new_params.tobytes() == ref_params.tobytes()
        assert new_state.m.tobytes() == ref_m.tobytes()
        assert new_state.v.tobytes() == ref_v.tobytes()
        assert new_state.t == ref_t

    def test_inputs_are_not_written(self):
        params, grad, state, hyper = self._inputs(3 * B + 7, 0, False)
        before = [a.tobytes() for a in (params, grad, state.m, state.v)]
        adam_update(params, grad, state, **hyper)
        assert [a.tobytes() for a in (params, grad, state.m, state.v)] == before

    def test_nonfinite_entry_in_last_block_reported_at_its_index(self):
        n = 3 * B + 7
        grad = np.zeros(n)
        grad[n - 3] = np.inf
        state = OptimizerState(np.zeros(n), np.zeros(n), 0)
        with pytest.raises(FloatingPointError, match=f"index {n - 3}$"):
            adam_update(np.zeros(n), grad, state, lr=0.1)

    def test_overflowed_parameter_reported_at_its_index(self):
        # A finite gradient whose step takes a parameter past the float range.
        n = 3 * B + 7
        params, grad = np.zeros(n), np.zeros(n)
        params[B + 5], grad[B + 5] = -1.7e308, 1.0
        state = OptimizerState(np.zeros(n), np.zeros(n), 0)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(FloatingPointError,
                              match=f"non-finite parameter at index {B + 5}$"):
            adam_update(params, grad, state, lr=1e308)

    def test_gradient_in_a_later_block_is_reported_before_a_parameter(self):
        n = 3 * B + 7
        params, grad = np.zeros(n), np.zeros(n)
        params[5], grad[5] = -1.7e308, 1.0
        grad[2 * B + 3] = np.nan
        state = OptimizerState(np.zeros(n), np.zeros(n), 0)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(FloatingPointError,
                              match=f"non-finite gradient entry at index {2 * B + 3}$"):
            adam_update(params, grad, state, lr=1e308)

    def test_nonfinite_gradient_raises_no_numpy_warning(self):
        # inf/inf and inf - inf inside the step would warn "invalid value".
        grad = np.array([0.0, np.inf, -np.inf, np.nan, 1.0])
        state = OptimizerState(np.ones(5), np.ones(5), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="index 1$"):
                adam_update(np.full(5, np.inf), grad, state, lr=0.1)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_mis_sized_state_rejected(self, size):
        state = OptimizerState(np.zeros(size), np.zeros(size), 0)
        with pytest.raises(ValueError, match="optimizer state"):
            adam_update(np.zeros(3), np.zeros(3), state, lr=0.1)
        with pytest.raises(ValueError, match="optimizer state"):
            adam_update(np.zeros(3), np.zeros(3),
                        OptimizerState(np.zeros(3), np.zeros(size), 0), lr=0.1)


class TestSplitBatch:
    def test_halves_are_disjoint_and_cover(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = 2 * int(rng.integers(1, 12))
            batch = list(range(n))
            a, b = split_batch(batch, rng)
            assert len(a) == len(b) == n // 2
            assert set(a) | set(b) == set(batch)
            assert set(a) & set(b) == set()

    def test_minimal_batch(self):
        rng = np.random.default_rng(1)
        a, b = split_batch([1, 2], rng)
        assert sorted(a + b) == [1, 2]

    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            split_batch([1, 2, 3], np.random.default_rng(0))


class TestValidationP1:
    def test_counts_ranked_positives(self, monkeypatch):
        triples = [PairwiseTriple(((1,),), (2,), (3,)),
                   PairwiseTriple(((1,),), (4,), (5,))]
        table = {(2,): 0.8, (3,): 0.2, (4,): 0.1, (5,): 0.9}
        monkeypatch.setattr(matcher, "scores",
                            lambda model, ds: np.array([table[d.response]
                                                        for d in ds]))
        model = init_params(SPEC, 0)
        assert validation_p_at_1(model, triples) == 0.5

    def test_tie_counts_for_positive(self, monkeypatch):
        triples = [PairwiseTriple(((1,),), (2,), (3,))]
        monkeypatch.setattr(matcher, "scores",
                            lambda model, ds: np.full(len(ds), 0.5))
        assert validation_p_at_1(init_params(SPEC, 0), triples) == 1.0

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            validation_p_at_1(init_params(SPEC, 0), [])

    def test_equals_per_dialogue_oracle_bit_for_bit(self, corpus, monkeypatch):
        rng = np.random.default_rng(8)
        model = matcher.ModelState(SPEC, rng.normal(0.0, 1.0, matcher.n_params(SPEC)))
        triples = corpus.valid
        pairs = [(matcher.score(model, TokenizedDialogue(t.context, t.pos_response)),
                  matcher.score(model, TokenizedDialogue(t.context, t.neg_response)))
                 for t in triples]
        scored = []
        real_scores = matcher.scores
        monkeypatch.setattr(matcher, "scores", lambda m, ds: (
            scored.append(real_scores(m, ds)) or scored[-1]))
        p1 = validation_p_at_1(model, triples)
        assert p1 == sum(pos >= neg for pos, neg in pairs) / len(triples)
        # One call, the two dialogues of each triple side by side, so each
        # context is pooled once; every score is the per-dialogue one.
        [s] = scored
        assert s.tobytes() == np.array(pairs).ravel().tobytes()


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        GenConfig(vocab_size=60, n_topics=3, n_train=200, n_valid=60,
                  n_test_contexts=10, n_candidates=6, turns_per_context=2,
                  tokens_per_utterance=5, false_negative_rate=0.3, seed=5))


def _batch(corpus, n=10, offset=0):
    return list(corpus.train[offset:offset + n])


class TestCoteachStep:
    @pytest.mark.parametrize("strategy,extra", [
        ("margin", dict(lam=0.5)),
        ("weighting", {}),
        ("curriculum", dict(delta=0.9)),
        ("none", {}),
    ])
    def test_update_order_is_irrelevant(self, corpus, strategy, extra):
        config = _config(strategy=strategy, **extra)
        model_a = init_params(SPEC, 1)
        model_b = init_params(SPEC, 2)
        opt_a = init_optimizer(model_a.params.size)
        opt_b = init_optimizer(model_b.params.size)
        batch = _batch(corpus)
        out_ab = coteach_step(model_a, model_b, opt_a, opt_b, batch, config,
                              np.random.default_rng(7), update_order=("A", "B"))
        out_ba = coteach_step(model_a, model_b, opt_a, opt_b, batch, config,
                              np.random.default_rng(7), update_order=("B", "A"))
        assert np.array_equal(out_ab[0].params, out_ba[0].params)
        assert np.array_equal(out_ab[1].params, out_ba[1].params)
        assert out_ab[4] == out_ba[4] and out_ab[5] == out_ba[5]

    def test_zero_learning_rate_keeps_models_but_reports_loss(self, corpus):
        config = _config(learning_rate=0.0)
        model_a = init_params(SPEC, 1)
        model_b = init_params(SPEC, 2)
        opt_a = init_optimizer(model_a.params.size)
        opt_b = init_optimizer(model_b.params.size)
        new_a, new_b, _, _, loss_a, loss_b = coteach_step(
            model_a, model_b, opt_a, opt_b, _batch(corpus), config,
            np.random.default_rng(0))
        assert np.array_equal(new_a.params, model_a.params)
        assert np.array_equal(new_b.params, model_b.params)
        assert loss_a > 0.0 and loss_b > 0.0

    def test_curriculum_delta_one_equals_plain_ce(self, corpus):
        kwargs = dict(learning_rate=1e-3, batch_size=10, n_epochs=1, seed=0)
        model_a = init_params(SPEC, 1)
        model_b = init_params(SPEC, 2)
        results = []
        for config in (_config(strategy="curriculum", delta=1.0, **kwargs),
                       _config(strategy="none", **kwargs)):
            opt_a = init_optimizer(model_a.params.size)
            opt_b = init_optimizer(model_b.params.size)
            results.append(coteach_step(model_a, model_b, opt_a, opt_b,
                                        _batch(corpus), config,
                                        np.random.default_rng(3)))
        assert np.array_equal(results[0][0].params, results[1][0].params)
        assert np.array_equal(results[0][1].params, results[1][1].params)

    def test_sub_batches_disjoint_every_iteration(self, corpus):
        config = _config(strategy="weighting", learning_rate=1e-4, n_epochs=2)
        seen = []

        def check(batch, sub_a, sub_b):
            assert len(sub_a) == len(sub_b) == len(batch) // 2
            ids = [id(t) for t in sub_a] + [id(t) for t in sub_b]
            assert sorted(ids) == sorted(id(t) for t in batch)
            seen.append(1)

        init = init_params(SPEC, 1)
        coteach_train(init, init, corpus, config, split_hook=check)
        assert len(seen) == 2 * (len(corpus.train) // config.batch_size)


class TestCoteachTrain:
    def test_history_bookkeeping(self, corpus):
        config = _config(strategy="margin", lam=0.5, n_epochs=2, eval_every=7)
        init = init_params(SPEC, 1)
        _, _, history = coteach_train(init, init, corpus, config)
        n_iters = 2 * (len(corpus.train) // config.batch_size)
        assert len(history.records) == n_iters
        assert [r.iteration for r in history.records] == list(range(1, n_iters + 1))
        for r in history.records:
            has_eval = r.valid_p1_a is not None
            assert has_eval == (r.iteration % config.eval_every == 0)
            assert (r.valid_p1_b is not None) == has_eval

    def test_deterministic_in_seed(self, corpus):
        config = _config(strategy="curriculum", delta=0.9, learning_rate=1e-4)
        init = init_params(SPEC, 1)
        a1, b1, h1 = coteach_train(init, init, corpus, config)
        a2, b2, h2 = coteach_train(init, init, corpus, config)
        assert np.array_equal(a1.params, a2.params)
        assert np.array_equal(b1.params, b2.params)
        assert h1.records == h2.records

    def test_peers_diverge_on_disjoint_halves(self, corpus):
        config = _config(strategy="none", learning_rate=1e-3)
        init = init_params(SPEC, 1)
        model_a, model_b, _ = coteach_train(init, init, corpus, config)
        assert not np.array_equal(model_a.params, model_b.params)

    def test_eval_cadence_does_not_change_training(self, corpus):
        config = _config(strategy="weighting", learning_rate=1e-4)
        init = init_params(SPEC, 1)
        a1, b1, _ = coteach_train(init, init, corpus, config)
        a2, b2, _ = coteach_train(init, init, corpus,
                                  replace(config, eval_every=3))
        assert np.array_equal(a1.params, a2.params)
        assert np.array_equal(b1.params, b2.params)

    def test_checkpoints_written_on_cadence(self, corpus, tmp_path):
        config = _config(strategy="none", eval_every=10)
        init = init_params(SPEC, 1)
        coteach_train(init, init, corpus, config, checkpoint_dir=tmp_path)
        n_iters = len(corpus.train) // config.batch_size
        expected = [i for i in range(1, n_iters + 1) if i % 10 == 0]
        for i in expected:
            assert (tmp_path / f"A_{i}.ckpt").exists()
            assert (tmp_path / f"B_{i}.ckpt").exists()

    def test_training_set_smaller_than_batch_rejected(self, corpus, tmp_path):
        small = replace(corpus, train=corpus.train[:4])
        init = init_params(SPEC, 0)
        with pytest.raises(ValueError, match="smaller than one batch"):
            coteach_train(init, init, small, _config(batch_size=10),
                          checkpoint_dir=tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()


class TestPretrain:
    def test_zero_epochs_returns_initialization(self, corpus):
        config = _config(n_epochs=0)
        model = pretrain(SPEC, corpus, config)
        expected = init_params(
            SPEC, int(engine._stream(config.seed, "init").integers(2 ** 31)))
        assert np.array_equal(model.params, expected.params)

    def test_deterministic(self, corpus):
        config = _config(n_epochs=2)
        a = pretrain(SPEC, corpus, config)
        b = pretrain(SPEC, corpus, config)
        assert np.array_equal(a.params, b.params)

    def test_requires_none_strategy(self, corpus):
        with pytest.raises(ValueError):
            pretrain(SPEC, corpus, _config(strategy="margin", lam=0.5))

    def test_training_set_smaller_than_batch_rejected(self, corpus):
        small = replace(corpus, train=corpus.train[:4])
        with pytest.raises(ValueError, match="smaller than one batch"):
            pretrain(SPEC, small, _config(batch_size=10))

    def test_clean_corpus_is_learnable(self):
        corpus = generate_synthetic_corpus(
            GenConfig(vocab_size=60, n_topics=3, n_train=600, n_valid=100,
                      n_test_contexts=10, n_candidates=6, turns_per_context=2,
                      tokens_per_utterance=5, false_negative_rate=0.0, seed=2))
        model = pretrain(SPEC, corpus, _config(n_epochs=5, eval_every=50))
        assert validation_p_at_1(model, corpus.valid) > 0.9


class TestSelectModel:
    def test_prefers_better_validation_score(self, corpus):
        config = _config(n_epochs=3, eval_every=50)
        trained = pretrain(SPEC, corpus, config)
        fresh = init_params(SPEC, 99)
        p_trained = validation_p_at_1(trained, corpus.valid)
        p_fresh = validation_p_at_1(fresh, corpus.valid)
        assert p_trained != p_fresh
        better = trained if p_trained > p_fresh else fresh
        assert select_model(trained, fresh, corpus.valid) is better
        assert select_model(fresh, trained, corpus.valid) is better

    def test_tie_goes_to_first_model(self, corpus):
        model = init_params(SPEC, 1)
        clone = matcher.ModelState(SPEC, model.params.copy())
        assert select_model(model, clone, corpus.valid) is model


class TestHistory:
    def test_round_trip(self, tmp_path):
        history = RunHistory()
        history.append(HistoryRecord(1, 0.5, 0.6))
        history.append(HistoryRecord(2, 0.4, 0.5, 0.75, 0.8))
        path = tmp_path / "history.csv"
        write_history(history, path)
        assert read_history(path).records == history.records

    def test_iterations_strictly_increasing(self):
        history = RunHistory()
        history.append(HistoryRecord(3, 0.5, 0.6))
        with pytest.raises(ValueError):
            history.append(HistoryRecord(3, 0.4, 0.5))

    def test_wall_ms_column_is_stable(self, tmp_path):
        history = RunHistory()
        history.append(HistoryRecord(1, 0.5, 0.6))
        write_history(history, tmp_path / "a.csv")
        write_history(history, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header, row = (tmp_path / "a.csv").read_text().splitlines()
        assert header == "iter,loss_A,loss_B,valid_P@1_A,valid_P@1_B"
        assert row == "1,0.5,0.6,,"

    def test_reads_files_with_the_old_wall_ms_column(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text("iter,loss_A,loss_B,valid_P@1_A,valid_P@1_B,wall_ms\n"
                        "1,0.5,0.6,,,0\n2,0.4,0.5,0.75,0.8,0\n")
        records = read_history(path).records
        assert records == [HistoryRecord(1, 0.5, 0.6),
                           HistoryRecord(2, 0.4, 0.5, 0.75, 0.8)]
        write_history(read_history(path), tmp_path / "new.csv")
        assert read_history(tmp_path / "new.csv").records == records

    def test_two_network_mode_supports_mixed_kinds(self, corpus):
        # peers of different architecture kinds co-teach without error
        mlp_spec = MatcherSpec("interaction-mlp", vocab_size=60,
                               embedding_dim=8, hidden_dim=8)
        config = _config(strategy="margin", lam=0.5, n_epochs=1)
        a, b, history = coteach_train(init_params(SPEC, 1),
                                      init_params(mlp_spec, 2), corpus, config)
        assert a.spec.kind == "mean-embedding-bilinear"
        assert b.spec.kind == "interaction-mlp"
        assert len(history.records) == len(corpus.train) // config.batch_size
