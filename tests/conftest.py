"""Shared fixtures: small corpora and models sized for fast tests."""

from typing import NamedTuple

import numpy as np
import pytest

from coteach import GenConfig, MatcherSpec, engine, generate_synthetic_corpus, matcher
from coteach.corpus import Batch, PairwiseTriple, Triples
from coteach.losses import LearningProtocol
from coteach.matcher import ModelState, init_params
from oracles import build_split


@pytest.fixture(scope="session")
def tiny_gen_config():
    return GenConfig(vocab_size=60, n_topics=3, n_train=120, n_valid=40,
                     n_test_contexts=20, n_candidates=6, turns_per_context=2,
                     tokens_per_utterance=5, false_negative_rate=0.3, seed=7)


@pytest.fixture(scope="session")
def tiny_corpus(tiny_gen_config):
    return generate_synthetic_corpus(tiny_gen_config)


@pytest.fixture(params=["mean-embedding-bilinear", "interaction-mlp"])
def small_spec(request):
    return MatcherSpec(kind=request.param, vocab_size=20, embedding_dim=4,
                       hidden_dim=3)


@pytest.fixture
def small_model(small_spec):
    return init_params(small_spec, seed=11)


def diverged(model):
    """``model`` with its parameters alternately -1e300 and +1e300: finite,
    but every score overflows to NaN (u, v and W hold both signs)."""
    return ModelState(model.spec, np.where(np.arange(model.params.size) % 2, 1e300, -1e300))


class Dialogue(NamedTuple):
    """A context and one response; ``score(model, *dialogue)`` scores it."""

    context: tuple
    response: tuple


def random_dialogue(rng, vocab_size=20, n_utts=2, n_tokens=3):
    """A random Dialogue for property tests."""
    context = tuple(
        tuple(int(t) for t in rng.integers(0, vocab_size, size=n_tokens))
        for _ in range(n_utts))
    response = tuple(int(t) for t in rng.integers(0, vocab_size, size=n_tokens))
    return Dialogue(context, response)


def random_triple(rng, vocab_size=20, n_utts=2, n_tokens=3):
    d = random_dialogue(rng, vocab_size, n_utts, n_tokens)
    neg = tuple(int(t) for t in rng.integers(0, vocab_size, size=n_tokens))
    while neg == d.response:
        neg = tuple(int(t) for t in rng.integers(0, vocab_size, size=n_tokens))
    return PairwiseTriple(d.context, d.response, neg)


def whole_batch(triples):
    """A Batch of every triple of ``triples``, a Triples split or a list of
    PairwiseTriples; strategies take a Batch."""
    split = triples if isinstance(triples, Triples) else build_split(triples)
    return Batch(split, np.arange(len(split)))


def pairwise_protocol(triples, margins):
    """The hinge protocol of ``triples``, in order, with ``margins``."""
    return LearningProtocol(build_split(triples), 2 * np.arange(len(triples))[:, None]
                            + (0, 1), np.array(margins, dtype=float))


def pointwise_protocol(examples, weights):
    """The cross-entropy protocol of (y, context, response) ``examples``
    with ``weights``. Example i becomes triple i, whose positive (y = 1) or
    negative (y = 0) is the response; the other response is a filler."""
    triples = [PairwiseTriple(c, r, (0,)) if y else PairwiseTriple(c, (0,), r)
               for y, c, r in examples]
    return LearningProtocol(
        build_split(triples), np.array([2 * i + 1 - y for i, (y, _, _) in enumerate(examples)]),
        np.array(weights, dtype=float))


def example(split, position):
    """Pointwise example ``position`` of ``split`` as (y, context, response)."""
    t = split[position // 2]
    return (1, t.context, t.pos_response) if position % 2 == 0 else (
        0, t.context, t.neg_response)


def fix_teacher_scores(monkeypatch, table):
    """Make matcher.split_scores score each response as table[response],
    whatever the model."""

    def fake(model, split, examples):
        return np.array([table[example(split, e)[2]] for e in examples.ravel()])

    monkeypatch.setattr(matcher, "split_scores", fake)


def call_entries(split, rows_per_call, embedding_dim):
    """A ``matcher._CALL_ENTRIES`` at which ``matcher.split_scores`` scores
    ``rows_per_call`` rows of ``split`` a call."""
    return -(-rows_per_call * embedding_dim * split.pack.ids.size // len(split))


class BFirstStep:
    """``engine.coteach_step`` with B's update applied before A's.

    It wraps ``engine._apply_update`` and ``matcher.loss_and_grad`` to log
    one step's calls, checks that both updates come after both gradients
    and start from the step's entry snapshots, and replays them in B, A
    order. ``ok`` stays True while every step passes that check; a step
    that fails it returns its own, A-first result.
    """

    def __init__(self, monkeypatch):
        self._update = engine._apply_update
        self._log, self.ok = [], True
        grad = matcher.loss_and_grad
        monkeypatch.setattr(matcher, "loss_and_grad", lambda *args: (
            self._log.append(("grad", args)) or grad(*args)))
        monkeypatch.setattr(engine, "_apply_update", lambda *args: (
            self._log.append(("update", args)) or self._update(*args)))

    def __call__(self, model_a, model_b, opt_a, opt_b, batch, config, rng):
        self._log.clear()
        result = engine.coteach_step(model_a, model_b, opt_a, opt_b, batch,
                                     config, rng)
        updates = [args for kind, args in self._log if kind == "update"]
        self.ok = (self.ok
                   and [kind for kind, _ in self._log] == ["grad", "grad",
                                                          "update", "update"]
                   and all(u[0] is model and u[2] is opt for u, (model, opt)
                           in zip(updates, [(model_a, opt_a), (model_b, opt_b)])))
        if not self.ok:
            return result
        update_a, update_b = updates
        model_b, opt_b = self._update(*update_b)
        model_a, opt_a = self._update(*update_a)
        return (model_a, model_b, opt_a, opt_b, *result[4:])
