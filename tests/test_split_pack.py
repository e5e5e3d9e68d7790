"""The packed data path against the tuple path, on ragged corpora.

Generated corpora give every utterance the same length, so an offset bug
in a split's pack or in the gathers from it could go unseen there. Here
contexts hold 1-4 utterances and every segment 1-6 tokens. A test-local
reference packs the same dialogues as tuple groups through
``corpus.pack_groups`` and must agree, bit for bit, with what strategies,
``loss_and_grad`` and ``validation_p_at_1`` compute from the split's pack.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coteach import Batch, MatcherSpec, corpus, engine, matcher
from coteach.corpus import Corpus, PairwiseTriple
from coteach.matcher import ModelState
from coteach.losses import HINGE_WITH_MARGIN, cross_entropy

from conftest import example

V = 15
_SEGMENTS = st.lists(st.integers(0, V - 1), min_size=1, max_size=6).map(tuple)
_TRIPLES = st.builds(PairwiseTriple, st.lists(_SEGMENTS, min_size=1, max_size=4)
                     .map(tuple), _SEGMENTS, _SEGMENTS)


@st.composite
def _cases(draw):
    """A ragged corpus, a sub-batch of its training split, a model seed,
    lambda and delta."""
    train = draw(st.lists(_TRIPLES, min_size=1, max_size=10))
    data = Corpus(train=train, valid=draw(st.lists(_TRIPLES, min_size=1, max_size=6)),
                  test=(), vocab_size=V)
    index = draw(st.lists(st.integers(0, len(train) - 1), min_size=1,
                          max_size=6, unique=True))
    return (data, Batch(data.train, np.array(index)), draw(st.integers(0, 2 ** 16)),
            draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 1.0)))


def _tuple_scores(model, triples, responses):
    """Scores of each triple's named responses through tuple groups."""
    return matcher.scores(model, corpus.pack_groups([(t.context, tuple(
        (t.pos_response, t.neg_response)[k] for k in responses)) for t in triples], V))


def _tuple_loss_and_grad(model, protocol):
    """``loss_and_grad`` of a protocol whose instances are packed from
    tuple groups: every pair's first example, then every pair's second,
    for the hinge; one group per example for cross-entropy."""
    split = protocol.split
    if protocol.loss_kind == HINGE_WITH_MARGIN:
        firsts, seconds = ([example(split, e) for e in column]
                           for column in protocol.examples.T)
        groups = [(c, (r,)) for _, c, r in firsts + seconds]
        labels = None
    else:
        examples = [example(split, e) for e in protocol.examples]
        groups = [(c, (r,)) for _, c, r in examples]
        labels = np.array([y for y, _, _ in examples])
    packed = corpus.pack_groups(groups, V)
    z, cache = matcher._forward(model.spec, model.params, packed)
    total, dL_dz = matcher._loss(protocol.loss_kind, z, labels, protocol.coef)
    return float(total), matcher._backward(model.spec, packed, cache, dL_dz)


@pytest.mark.parametrize("kind", matcher.MATCHER_KINDS)
@settings(max_examples=80, deadline=None)
@given(case=_cases())
def test_packed_path_equals_tuple_path_bit_for_bit(kind, case):
    data, batch, seed, lam, delta = case
    spec = MatcherSpec(kind, vocab_size=V, embedding_dim=3, hidden_dim=4)
    model = ModelState(spec, np.random.default_rng(seed).normal(
        0.0, 1.0, matcher.n_params(spec)))
    triples = [data.train[i] for i in batch.index]

    pairs = _tuple_scores(model, triples, (0, 1))
    assert matcher.split_scores(model, data.train, batch.examples()).tobytes() == (
        pairs.tobytes())
    margins = np.maximum(0.0, lam * (pairs[0::2] - pairs[1::2]))
    weights = np.ones(2 * len(triples))
    weights[1::2] = 1.0 - _tuple_scores(model, triples, (1,))
    examples = (2 * batch.index[:, None] + (0, 1)).ravel()
    teacher_losses = cross_entropy(1 - examples % 2, pairs)
    kept = np.sort(np.argsort(teacher_losses, kind="stable")[
        :math.ceil(delta * examples.size)])
    expected = {
        "margin": (tuple(zip(map(tuple, batch.examples().tolist()),
                             margins.tolist())), ()),
        "weighting": ((), tuple(zip(examples.tolist(), weights.tolist()))),
        "curriculum": ((), tuple((int(e), 1.0) for e in examples[kept])),
        "none": ((), tuple((int(e), 1.0) for e in examples)),
    }
    config = engine.TrainConfig(strategy="margin", lam=lam, delta=delta)
    for strategy, (pairwise, pointwise) in expected.items():
        protocol = engine.build_protocol(strategy, model, batch, config)
        assert protocol.split is data.train
        assert (protocol.pairwise, protocol.pointwise) == (pairwise, pointwise)
        loss, grad = matcher.loss_and_grad(model, protocol)
        ref_loss, ref_grad = _tuple_loss_and_grad(model, protocol)
        assert (loss, grad.tobytes()) == (ref_loss, ref_grad.tobytes())

    valid = _tuple_scores(model, data.valid, (0, 1))
    assert engine.validation_p_at_1(model, data.valid) == (
        np.count_nonzero(valid[0::2] >= valid[1::2]) / len(data.valid))

