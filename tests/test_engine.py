"""Unit tests for the training engine: Adam, the co-teaching loop, history."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coteach import (Batch, GenConfig, MatcherSpec, TrainConfig, coteach_train,
                     generate_synthetic_corpus, pretrain, select_model,
                     validation_p_at_1)
from coteach import engine, matcher
from coteach.corpus import PairwiseTriple, Triples
from coteach.engine import (HistoryRecord, OptimizerState, RunHistory, adam_update,
                            coteach_step, init_optimizer, read_history, split_batch,
                            write_history)
from coteach.matcher import init_params

from conftest import BFirstStep, call_entries, diverged, fix_teacher_scores


SPEC = MatcherSpec("mean-embedding-bilinear", vocab_size=60, embedding_dim=8)
STRATEGY_SETTINGS = [("margin", dict(lam=0.5)), ("weighting", {}),
                     ("curriculum", dict(delta=0.9)), ("none", {})]


def _config(**kw):
    defaults = dict(strategy="none", learning_rate=1e-3, batch_size=10,
                    n_epochs=1, seed=0, eval_every=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            _config(batch_size=9)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            _config(seed=-1)

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


def _adam_reference(params, grad, state, lr):
    """The whole-vector Adam step the blocked kernel must reproduce bit for bit."""
    beta1, beta2, eps = engine.BETA1, engine.BETA2, engine.EPS
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grad
    v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


B = engine.ADAM_BLOCK


class TestAdam:
    def test_constants_are_the_documented_ones(self):
        # README: beta1 = 0.9, beta2 = 0.999, eps = 1e-8, not settings.
        assert (engine.BETA1, engine.BETA2, engine.EPS) == (0.9, 0.999, 1e-8)

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
        hyper = dict(lr=float(rng.uniform(0, 1e-2)))
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


# An embedding table of 3 blocks and a part, rows of 24 entries; row ids in
# its first and last block, rows across block edges (682 and 1365), and none
# at all (a head-only gradient).
ROW_DIM = 24
ROW_VOCAB = 3 * B // ROW_DIM + 5
ROW_IDS = {"first-last": [0, 3, ROW_VOCAB - 1], "straddle": [681, 682, 1365],
           "head-only": []}


def _row_case(kind, ids, seed):
    """(params, RowGrad, state) of a ``kind`` matcher whose params, moments
    and gradient hold -0.0, subnormal and huge entries among normal ones."""
    spec = MatcherSpec(kind, vocab_size=ROW_VOCAB, embedding_dim=ROW_DIM, hidden_dim=8)
    n, table = matcher.n_params(spec), ROW_VOCAB * ROW_DIM
    rng = np.random.default_rng(seed)

    def values(size, scale, special):
        out = rng.standard_normal(size) * scale
        for value in special if size else ():
            out[rng.integers(0, size, max(1, size // 50))] = value
        return out

    specials = (-0.0, 5e-324, -5e-324, 2.2e-308)
    params = values(n, 0.1, (*specials, 1e300, -1e300))
    state = OptimizerState(values(n, 0.01, (*specials, 1e300, -1e300)),
                           np.abs(values(n, 1e-3, (5e-324, 2.2e-308, 1e300))), 4)
    state.v[rng.integers(0, n, 20)] = -0.0
    ids = np.array(ROW_IDS[ids], np.intp)
    grad = matcher.RowGrad(ids, values(ids.size * ROW_DIM, 1.0, (*specials, 1e150))
                           .reshape(-1, ROW_DIM), values(n - table, 1.0, specials),
                           (n,))
    return params, grad, state


def _adam_outcome(params, grad, state, lr=1e-3):
    """What ``adam_update`` gives: the new params and the dense view of the
    moments as bytes, or its error's text. Overflow in v = g*g is part of
    the cases."""
    try:
        with np.errstate(over="ignore"):
            new, st = adam_update(params, grad, state, lr=lr)
    except FloatingPointError as exc:
        return str(exc)
    st = st.dense(params.size)
    return new.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t


class TestAdamRowForm:
    """A ``matcher.RowGrad`` steps exactly as its dense vector does."""

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @pytest.mark.parametrize("ids", sorted(ROW_IDS))
    def test_bit_identical_to_dense_form(self, kind, ids):
        params, grad, state = _row_case(kind, ids, len(ids) + len(kind))
        dense = np.asarray(grad)
        assert dense.shape == grad.shape == params.shape
        rows = _adam_outcome(params, grad, state)
        assert not isinstance(rows, str), rows
        assert rows == _adam_outcome(params, dense, state)

    def test_dense_form_holds_rows_and_head(self):
        params, grad, _ = _row_case(matcher.INTERACTION_MLP, "first-last", 0)
        dense = np.asarray(grad)
        table = dense[:ROW_VOCAB * ROW_DIM].reshape(ROW_VOCAB, ROW_DIM)
        assert table[grad.ids].tobytes() == grad.rows.tobytes()
        assert not np.delete(table, grad.ids, axis=0).any()
        assert dense[table.size:].tobytes() == grad.head.tobytes()

    @pytest.mark.parametrize("case", ["row", "head", "row-after-parameter",
                                      "untouched-parameter", "touched-parameter"])
    def test_same_error_as_dense_form(self, case):
        params, grad, state = _row_case(matcher.MEAN_EMBEDDING_BILINEAR, "first-last", 1)
        table, lr = ROW_VOCAB * ROW_DIM, 1e-3
        row_entry = 3 * ROW_DIM + 5  # row 1 (id 3), column 5
        if case == "row":
            grad.rows[1, 5] = np.nan
            expected = f"non-finite gradient entry at index {row_entry}$"
        elif case == "head":
            grad.head[7] = -np.inf
            expected = f"non-finite gradient entry at index {table + 7}$"
        else:
            # A step near the float maximum overflows one parameter; with a
            # non-finite row entry as well, the gradient is named first.
            at = {"row-after-parameter": 20, "untouched-parameter": B + 9,
                  "touched-parameter": row_entry}[case]
            params[:], state.m[:], state.v[:], grad.rows[:], grad.head[:] = 0.0, 0.0, 1.0, 0.0, 0.0
            params[at], state.m[at], lr = -1.7e308, 1.0, 1e308
            expected = f"non-finite parameter at index {at}$"
            if case == "row-after-parameter":
                grad.rows[2, 1] = np.inf
                expected = f"non-finite gradient entry at index {(ROW_VOCAB - 1) * ROW_DIM + 1}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _adam_outcome(params, grad, state, lr)
            assert rows == _adam_outcome(params, np.asarray(grad), state, lr)
        assert re.search(expected, rows), rows

    def test_inputs_are_not_written(self):
        params, grad, state = _row_case(matcher.INTERACTION_MLP, "straddle", 2)
        inputs = (params, grad.ids, grad.rows, grad.head, state.m, state.v)
        before = [a.tobytes() for a in inputs]
        _adam_outcome(params, grad, state)
        assert [a.tobytes() for a in inputs] == before


def _row_grads(spec, steps, rng):
    """``steps`` random ``RowGrad``s of ``spec``'s layout, some touching no row."""
    n, d = matcher.n_params(spec), spec.embedding_dim
    for _ in range(steps):
        ids = np.unique(rng.integers(0, spec.vocab_size, rng.integers(0, 40)))
        yield matcher.RowGrad(ids, rng.standard_normal((ids.size, d)),
                              rng.standard_normal(n - spec.vocab_size * d), (n,))


def _compact_case(kind, seed):
    """(spec, params holding -0.0 entries, and the compact state of two row
    steps from ``init_optimizer``) for the cases below."""
    spec = MatcherSpec(kind, vocab_size=ROW_VOCAB, embedding_dim=ROW_DIM, hidden_dim=8)
    rng = np.random.default_rng(seed)
    params = rng.standard_normal(matcher.n_params(spec)) * 0.1
    params[rng.integers(0, params.size, 200)] = -0.0
    state = init_optimizer(params.size)
    for grad in _row_grads(spec, 2, rng):
        params, state = adam_update(params, grad, state, lr=1e-3)
    return spec, params, state


# (state form, gradient form) of a step: every pairing adam_update takes.
FORMS = [("dense", "dense"), ("dense", "rows"), ("rows", "rows"), ("rows", "dense")]


def _in_form(params, grad, state, forms):
    return (state.dense(params.size) if forms[0] == "dense" else state,
            np.asarray(grad) if forms[1] == "dense" else grad)


class TestCompactState:
    """A row step stores moments only for the rows it or earlier steps
    touched; every entry still ends with the bits of the dense formula."""

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @pytest.mark.parametrize("forms", ["RRRRRR", "RRDDRR", "DRRDRD"])
    def test_steps_from_init_match_the_dense_formula(self, kind, forms):
        spec, params, _ = _compact_case(kind, len(forms))
        n, rng = params.size, np.random.default_rng(len(kind))
        state, ref = init_optimizer(n), (params, np.zeros(n), np.zeros(n), 0)
        for i, (form, grad) in enumerate(zip(forms, _row_grads(spec, len(forms), rng))):
            params, state = adam_update(params, grad if form == "R" else np.asarray(grad),
                                        state, lr=1e-3)
            ref = _adam_reference(ref[0], np.asarray(grad), OptimizerState(*ref[1:]), 1e-3)
            assert (state.rows is None) == ("D" in forms[:i + 1])  # a dense state stays dense
            dense = state.dense(n)
            assert params.tobytes() == ref[0].tobytes()
            assert (dense.m.tobytes(), dense.v.tobytes(), dense.t) == (
                ref[1].tobytes(), ref[2].tobytes(), ref[3])

    def test_rows_are_the_union_of_the_steps_ids(self):
        spec, params, _ = _compact_case(matcher.INTERACTION_MLP, 0)
        state, seen = init_optimizer(params.size), np.zeros(0, np.intp)
        assert state.rows.size == state.m.size == state.v.size == 0
        for grad in _row_grads(spec, 8, np.random.default_rng(1)):
            prev, (params, state) = state, adam_update(params, grad, state, lr=1e-3)
            seen = np.union1d(seen, grad.ids)
            assert np.sort(state.rows).tolist() == seen.tolist()
            assert state.m.size == state.v.size == seen.size * ROW_DIM + grad.head.size
            # A stored row keeps its slot: the stored rows are a prefix of the new
            # ones, and an untouched one's moments decay at the same offset.
            k = prev.rows.size
            assert state.rows[:k].tolist() == prev.rows.tolist()
            untouched = ~np.isin(prev.rows, grad.ids)
            for was, now, beta in ((prev.m, state.m, engine.BETA1), (prev.v, state.v, engine.BETA2)):
                was, now = (x[:k * ROW_DIM].reshape(k, ROW_DIM)[untouched] for x in (was, now))
                assert now.tobytes() == (beta * was + 0.0).tobytes()

    def test_a_run_past_the_stored_share_steps_densely(self, monkeypatch):
        spec, params, _ = _compact_case(matcher.INTERACTION_MLP, 8)
        monkeypatch.setattr(engine, "_STORED_SHARE", 0.05)  # about 103 of the 2,053 rows
        n, rng = params.size, np.random.default_rng(8)
        state, ref = init_optimizer(n), (params, np.zeros(n), np.zeros(n), 0)
        seen = np.zeros(0, np.intp)  # the rows a compact state stores; None once dense
        for grad in _row_grads(spec, 12, rng):
            params, state = adam_update(params, grad, state, lr=1e-3)
            ref = _adam_reference(ref[0], np.asarray(grad), OptimizerState(*ref[1:]), 1e-3)
            if seen is not None:
                seen = np.union1d(seen, grad.ids)
                seen = seen if seen.size <= 0.05 * ROW_VOCAB else None
            assert (state.rows is None) == (seen is None)
            if seen is not None:
                assert np.sort(state.rows).tolist() == seen.tolist()
            dense = state.dense(n)
            assert (params.tobytes(), dense.m.tobytes(), dense.v.tobytes()) == (
                ref[0].tobytes(), ref[1].tobytes(), ref[2].tobytes())
        assert state.rows is None

    def test_row_step_on_a_dense_state_keeps_every_special_moment(self):
        spec, params, _ = _compact_case(matcher.MEAN_EMBEDDING_BILINEAR, 2)
        n, table = params.size, ROW_VOCAB * ROW_DIM
        m, v = np.zeros(n), np.zeros(n)
        specials = {5: (m, -0.0), 9: (v, -0.0), 11: (m, 5e-324), 700: (v, 2.2e-308),
                    1200: (m, 1e300), 1201: (m, -1e300), 1202: (v, 1e300)}
        for row, (moment, value) in specials.items():
            moment[row * ROW_DIM + 3] = value
        m[table:], v[table:] = 0.01, 1e-4
        state = OptimizerState(m, v, 7)
        grad = next(_row_grads(spec, 1, np.random.default_rng(3)))
        assert _adam_outcome(params, grad, state) == _adam_outcome(params, np.asarray(grad), state)
        assert adam_update(params, grad, state, lr=1e-3)[1].rows is None

    def test_row_step_on_a_compact_state_keeps_every_special_moment(self):
        spec, params, _ = _compact_case(matcher.MEAN_EMBEDDING_BILINEAR, 3)
        grad = next(_row_grads(spec, 1, np.random.default_rng(9)))
        n, h, ids = params.size, grad.head.size, grad.ids.tolist()
        # Stored rows out of id order: untouched ones around half of the touched ones.
        rows = np.array([1200, 5, *ids[::2], 700, 9, 1201, 11, 1202], np.intp)
        touched = np.isin(rows, grad.ids)
        assert touched[2:4].all() and not touched[[0, 1, -3, -2, -1]].any()
        m, v = np.zeros(rows.size * ROW_DIM + h), np.zeros(rows.size * ROW_DIM + h)
        k = rows.size
        specials = {0: (m, -0.0), 1: (v, -0.0), 2: (m, 5e-324), 3: (v, 2.2e-308),
                    k - 3: (m, 1e300), k - 2: (m, -1e300), k - 1: (v, 1e300)}
        for slot, (moment, value) in specials.items():
            moment[slot * ROW_DIM + 3] = value  # in untouched and touched stored rows
        m[rows.size * ROW_DIM:], v[rows.size * ROW_DIM:] = 0.01, 1e-4
        state = OptimizerState(m, v, 7, rows, (ROW_VOCAB, ROW_DIM))
        dense = state.dense(n)
        assert _adam_outcome(params, grad, state) == _adam_outcome(params, np.asarray(grad), dense)
        ref = _adam_reference(params, np.asarray(grad), dense, 1e-3)
        new, after = adam_update(params, grad, state, lr=1e-3)
        assert after.rows[:rows.size].tolist() == rows.tolist()
        after = after.dense(n)
        assert (new.tobytes(), after.m.tobytes(), after.v.tobytes()) == (
            ref[0].tobytes(), ref[1].tobytes(), ref[2].tobytes())

    def test_a_fresh_row_keeps_negative_zero_params(self):
        spec = MatcherSpec(matcher.INTERACTION_MLP, vocab_size=ROW_VOCAB,
                           embedding_dim=ROW_DIM, hidden_dim=8)
        params, ids = np.full(matcher.n_params(spec), -0.0), np.array([3, 4, ROW_VOCAB - 1])
        grad = matcher.RowGrad(ids, np.ones((3, ROW_DIM)),
                               np.zeros(params.size - ROW_VOCAB * ROW_DIM), params.shape)
        new, state = adam_update(params, grad, init_optimizer(params.size), lr=1e-3)
        table = new[:ROW_VOCAB * ROW_DIM].reshape(ROW_VOCAB, ROW_DIM)
        untouched = np.delete(table, ids, axis=0)
        assert not untouched.any() and np.signbit(untouched).all()
        assert (table[ids] < 0).all() and state.rows.tolist() == ids.tolist()
        assert _adam_outcome(params, grad, init_optimizer(params.size)) == _adam_outcome(
            params, np.asarray(grad), OptimizerState(np.zeros(params.size), np.zeros(params.size)))

    @pytest.mark.parametrize("case", ["row", "head", "unstored-parameter",
                                      "overflowed-parameter", "parameter-then-row"])
    def test_same_error_in_every_form(self, case):
        spec, params, state = _compact_case(matcher.MEAN_EMBEDDING_BILINEAR, 4)
        grad, lr = next(_row_grads(spec, 1, np.random.default_rng(4))), 1e-3
        table = ROW_VOCAB * ROW_DIM
        unstored = int(np.setdiff1d(np.arange(ROW_VOCAB), np.union1d(state.rows, grad.ids))[0])
        row_entry = int(grad.ids[1]) * ROW_DIM + 2
        if case == "row":
            grad.rows[1, 2] = np.nan
            expected = f"non-finite gradient entry at index {row_entry}$"
        elif case == "head":
            grad.head[5] = -np.inf
            expected = f"non-finite gradient entry at index {table + 5}$"
        elif case == "overflowed-parameter":
            params[row_entry], lr = -1.7e308, 1e308
            grad.rows[1, 2] = 1.0
            expected = f"non-finite parameter at index {row_entry}$"
        else:
            params[unstored * ROW_DIM + 1] = np.inf
            expected = f"non-finite parameter at index {unstored * ROW_DIM + 1}$"
            if case == "parameter-then-row":
                grad.rows[-1, 0] = np.nan
                expected = f"non-finite gradient entry at index {int(grad.ids[-1]) * ROW_DIM}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = {_adam_outcome(params, *_in_form(params, grad, state, forms)[::-1], lr)
                        for forms in FORMS}
        assert len(outcomes) == 1
        assert re.search(expected, outcomes.pop())

    @pytest.mark.parametrize("forms", FORMS)
    def test_no_input_array_is_written(self, forms):
        spec, params, state = _compact_case(matcher.INTERACTION_MLP, 5)
        state, grad = _in_form(params, next(_row_grads(spec, 1, np.random.default_rng(5))),
                               state, forms)
        arrays = [params, state.m, state.v, *(() if state.rows is None else (state.rows,)),
                  *((grad,) if forms[1] == "dense" else (grad.ids, grad.rows, grad.head))]
        before = [a.tobytes() for a in arrays]
        adam_update(params, grad, state, lr=1e-3)
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("lr,t", [(-0.0, 3), (-1e-3, 3), (1e-3, -1)],
                             ids=["minus-zero-lr", "negative-lr", "step-zero"])
    def test_a_row_step_outside_the_identity_steps_every_entry(self, lr, t):
        # Here an unstored row's step is not the identity: a -0.0 param may
        # become +0.0, or every entry nan.
        spec, params, state = _compact_case(matcher.INTERACTION_MLP, 6)
        state = replace(state, t=t)
        grad = next(_row_grads(spec, 1, np.random.default_rng(6)))
        with np.errstate(all="ignore"):
            rows = _adam_outcome(params, grad, state, lr)
            assert rows == _adam_outcome(params, np.asarray(grad), state.dense(params.size), lr)
            if not isinstance(rows, str):
                assert adam_update(params, grad, state, lr)[1].rows is None

    def test_mis_sized_compact_state_rejected(self):
        spec, params, state = _compact_case(matcher.INTERACTION_MLP, 7)
        grad = next(_row_grads(spec, 1, np.random.default_rng(7)))
        head = np.zeros(params.size - ROW_VOCAB * ROW_DIM)
        halved = OptimizerState(head, head, 2, np.zeros(0, np.intp), (2 * ROW_VOCAB, ROW_DIM // 2))
        for bad in (replace(state, m=state.m[:-1]), replace(state, v=state.v[:-1]),
                    replace(state, rows=state.rows[:-1]),
                    replace(state, table=(ROW_VOCAB - 1, ROW_DIM)), halved):
            # Only a RowGrad has a table that the halved one contradicts.
            for g in (grad, *(() if bad is halved else (np.asarray(grad),))):
                with pytest.raises(ValueError, match="optimizer state"):
                    adam_update(params, g, bad, lr=1e-3)


class TestSplitBatch:
    def test_halves_are_disjoint_and_cover(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = 2 * int(rng.integers(1, 12))
            batch = np.arange(n)
            a, b = split_batch(batch, rng)
            assert len(a) == len(b) == n // 2
            assert set(a) | set(b) == set(batch)
            assert set(a) & set(b) == set()

    def test_minimal_batch(self):
        rng = np.random.default_rng(1)
        a, b = split_batch(np.array([1, 2]), rng)
        assert sorted([*a, *b]) == [1, 2]

    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            split_batch(np.array([1, 2, 3]), np.random.default_rng(0))


class TestValidationP1:
    def test_counts_ranked_positives(self, monkeypatch):
        triples = [PairwiseTriple(((1,),), (2,), (3,)),
                   PairwiseTriple(((1,),), (4,), (5,))]
        fix_teacher_scores(monkeypatch, {(2,): 0.8, (3,): 0.2, (4,): 0.1, (5,): 0.9})
        model = init_params(SPEC, 0)
        assert validation_p_at_1(model, Triples(triples)) == 0.5

    def test_tie_counts_for_positive(self, monkeypatch):
        triples = [PairwiseTriple(((1,),), (2,), (3,))]
        fix_teacher_scores(monkeypatch, {(2,): 0.5, (3,): 0.5})
        assert validation_p_at_1(init_params(SPEC, 0), Triples(triples)) == 1.0

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            validation_p_at_1(init_params(SPEC, 0), Triples([]))

    @pytest.mark.parametrize("call_entries", [None, 1], ids=["one-call", "a-row-a-call"])
    def test_diverged_model_is_reported(self, corpus, monkeypatch, call_entries):
        if call_entries:
            monkeypatch.setattr(matcher, "_CALL_ENTRIES", call_entries)
        model = diverged(init_params(SPEC, 0))
        for judge in (lambda: validation_p_at_1(model, corpus.valid),
                      lambda: select_model(init_params(SPEC, 1), model, corpus.valid)):
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                          match="^non-finite score$"):
                judge()

    def test_equals_per_dialogue_oracle_bit_for_bit(self, corpus, monkeypatch):
        rng = np.random.default_rng(8)
        model = matcher.ModelState(SPEC, rng.normal(0.0, 1.0, matcher.n_params(SPEC)))
        triples = corpus.valid
        pairs = [(matcher.score(model, t.context, t.pos_response),
                  matcher.score(model, t.context, t.neg_response))
                 for t in triples]
        # Calls of 25 triples: the 60 triples take three, the last of 10.
        monkeypatch.setattr(matcher, "_CALL_ENTRIES",
                            call_entries(triples, 25, SPEC.embedding_dim))
        scored, packs = [], []
        real_split_scores, real_scores = matcher.split_scores, matcher.scores
        monkeypatch.setattr(matcher, "split_scores", lambda m, split, examples: (
            scored.append((split, examples, real_split_scores(m, split, examples)))
            or scored[-1][2]))
        monkeypatch.setattr(matcher, "scores", lambda m, packed: (
            packs.append(packed) or real_scores(m, packed)))
        p1 = validation_p_at_1(model, triples)
        assert p1 == sum(pos >= neg for pos, neg in pairs) / len(triples)
        # One scorer call over the kept pack of the whole split, each
        # triple's context pooled once; every score is the per-dialogue one.
        [(split, examples, s)] = scored
        assert split is triples
        assert examples.ravel().tolist() == list(range(2 * len(triples)))
        assert s.tobytes() == np.array(pairs).ravel().tobytes()
        # Its scoring calls cover the examples in order, each within the size.
        lo = 0
        for packed in packs:
            assert packed.ids.size * SPEC.embedding_dim <= matcher._CALL_ENTRIES
            expected = split.gather(examples[lo:lo + len(packed.runs)], SPEC.vocab_size)
            assert all(np.array_equal(a, b) for a, b in zip(packed, expected))
            lo += len(packed.runs)
        assert [len(p.runs) for p in packs] == [25, 25, 10] and lo == len(triples)
        validation_p_at_1(model, triples)
        assert scored[1][0].pack is split.pack


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(
        GenConfig(vocab_size=60, n_topics=3, n_train=200, n_valid=60,
                  n_test_contexts=10, n_candidates=6, turns_per_context=2,
                  tokens_per_utterance=5, false_negative_rate=0.3, seed=5))


def _batch(corpus, n=10, offset=0):
    return Batch(corpus.train, np.arange(offset, offset + n))


class TestCoteachStep:
    @pytest.mark.parametrize("strategy,extra", STRATEGY_SETTINGS)
    def test_order_of_updates_is_irrelevant(self, corpus, strategy, extra, monkeypatch):
        config = _config(strategy=strategy, **extra)
        model_a = init_params(SPEC, 1)
        model_b = init_params(SPEC, 2)
        opt_a = init_optimizer(model_a.params.size)
        opt_b = init_optimizer(model_b.params.size)
        batch = _batch(corpus)
        out_ab = coteach_step(model_a, model_b, opt_a, opt_b, batch, config,
                              np.random.default_rng(7))
        b_first = BFirstStep(monkeypatch)
        out_ba = b_first(model_a, model_b, opt_a, opt_b, batch, config,
                         np.random.default_rng(7))
        assert b_first.ok
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

    def test_sub_batches_disjoint_every_iteration(self, corpus, monkeypatch):
        config = _config(strategy="weighting", learning_rate=1e-4, n_epochs=2)
        seen = []
        real_split = engine.split_batch

        def check(batch, rng):
            sub_a, sub_b = real_split(batch, rng)
            assert len(sub_a) == len(sub_b) == len(batch) // 2
            assert sub_a.split is sub_b.split is batch.split is corpus.train
            assert sorted([*sub_a.index, *sub_b.index]) == sorted(batch.index)
            assert len(set(batch.index)) == len(batch)
            seen.append(1)
            return sub_a, sub_b

        monkeypatch.setattr(engine, "split_batch", check)
        init = init_params(SPEC, 1)
        coteach_train(init, init, corpus, config)
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

    @pytest.mark.parametrize("strategy,extra", STRATEGY_SETTINGS)
    def test_noise_flags_never_reach_a_protocol(self, corpus, tmp_path, monkeypatch,
                                                strategy, extra):
        def flip(triples):
            return tuple(replace(t, noise_flag=not t.noise_flag) for t in triples)

        def flagless(protocol):
            assert protocol.split is data.train
            return (protocol.pairwise, protocol.pointwise,
                    [replace(t, noise_flag=None) for t in protocol.split])

        flipped = replace(corpus, train=flip(corpus.train), valid=flip(corpus.valid))
        assert any(t.noise_flag for t in corpus.train)
        config = _config(strategy=strategy, learning_rate=1e-3, **extra)
        init = init_params(SPEC, 1)
        real_build = engine.build_protocol
        runs = []
        for data in (corpus, flipped):
            built = []
            monkeypatch.setattr(engine, "build_protocol", lambda *args: (
                built.append(real_build(*args)) or built[-1]))
            _, _, history = coteach_train(init, init, data, config)
            write_history(history, tmp_path / "history.csv")
            runs.append(([(p.loss_kind, flagless(p)) for p in built],
                         (tmp_path / "history.csv").read_bytes()))
        (protocols, history), (flipped_protocols, flipped_history) = runs
        assert len(protocols) == 2 * len(history.splitlines()[1:]) > 0
        assert protocols == flipped_protocols
        assert history == flipped_history

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


class TestGradientForms:
    """Forcing either gradient form (``matcher._ROW_GRAD_RATIO`` 0 gives
    rows on every step, 10**9 a dense vector) trains to the same bytes."""

    @staticmethod
    def _train(corpus, monkeypatch, ratio, kind, strategy, settings):
        monkeypatch.setattr(matcher, "_ROW_GRAD_RATIO", ratio)
        forms = set()
        monkeypatch.setattr(engine, "adam_update", lambda params, grad, *rest: (
            forms.add(type(grad)) or adam_update(params, grad, *rest)))
        spec = MatcherSpec(kind, vocab_size=60, embedding_dim=8, hidden_dim=4)
        base = pretrain(spec, corpus, _config(eval_every=4))
        a, b, history = coteach_train(base, init_params(spec, 3), corpus, _config(
            strategy=strategy, learning_rate=1e-2, eval_every=4, **settings))
        return forms, [m.params.tobytes() for m in (base, a, b)], history.records

    @pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
    @pytest.mark.parametrize("strategy,settings", STRATEGY_SETTINGS)
    def test_both_forms_train_the_same_bytes(self, corpus, monkeypatch, kind,
                                             strategy, settings):
        rows = self._train(corpus, monkeypatch, 0, kind, strategy, settings)
        dense = self._train(corpus, monkeypatch, 10 ** 9, kind, strategy, settings)
        assert rows[0] == {matcher.RowGrad} and dense[0] == {np.ndarray}
        assert rows[1:] == dense[1:]


class TestStoredShare:
    """``engine._STORED_SHARE`` only chooses how fast a run steps: a run whose
    state turns dense at its first row step (0) trains the same bytes as one
    that stays compact (1)."""

    @staticmethod
    def _train(corpus, monkeypatch, share):
        monkeypatch.setattr(matcher, "_ROW_GRAD_RATIO", 0)
        monkeypatch.setattr(engine, "_STORED_SHARE", share)
        forms = set()

        def spy(params, grad, state, lr):
            new, state = adam_update(params, grad, state, lr)
            forms.add((type(grad), state.rows is None))
            return new, state

        monkeypatch.setattr(engine, "adam_update", spy)
        peers = [init_params(MatcherSpec(kind, vocab_size=60, embedding_dim=8, hidden_dim=4),
                             seed) for seed, kind in enumerate(matcher.MATCHER_KINDS)]
        a, b, history = coteach_train(*peers, corpus, _config(
            strategy="weighting", learning_rate=1e-2, n_epochs=2, eval_every=4))
        return forms, [m.params.tobytes() for m in (a, b)], history.records

    def test_dense_and_compact_runs_train_the_same_bytes(self, corpus, monkeypatch):
        dense = self._train(corpus, monkeypatch, 0)
        compact = self._train(corpus, monkeypatch, 1)
        assert dense[0] == {(matcher.RowGrad, True)}
        assert compact[0] == {(matcher.RowGrad, False)}
        assert dense[1:] == compact[1:]


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
