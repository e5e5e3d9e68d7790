"""Test oracles that no pipeline path needs.

``finite_diff_check`` is the gradient oracle: it calls
``matcher.loss_and_grad`` through the module, so a test that swaps that
attribute sees its checker use the swapped function.
``reference_corpus_files`` is the corpus writer's: each id formatted on its
own with ``str``, a line at a time.
"""

import numpy as np

from coteach import matcher
from coteach.losses import LearningProtocol
from coteach.matcher import ModelState


def finite_diff_check(model: ModelState, protocol: LearningProtocol,
                      step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate the relative error is |g - fd| / max(|g|, |fd|, 1e-8).
    The difference quotient is evaluated in extended precision so its
    roundoff cannot mask genuine gradient bugs at small step sizes. It
    differences the loss only, so it is independent of the backward.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, grad = matcher.loss_and_grad(model, protocol)
    packed, labels, coef = matcher._protocol_arrays(protocol, model.spec.vocab_size)

    def loss_at(params):
        z, _ = matcher._forward(model.spec, params, packed)
        return matcher._loss(protocol.loss_kind, z, labels, coef)[0]

    worst = 0.0
    params = model.params.astype(np.longdouble)
    step_ld = np.longdouble(step)
    for i in range(params.size):
        saved = params[i]
        params[i] = saved + step_ld
        f_plus = loss_at(params)
        params[i] = saved - step_ld
        f_minus = loss_at(params)
        params[i] = saved
        fd = float((f_plus - f_minus) / (2.0 * step_ld))
        err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def reference_corpus_files(corpus) -> dict:
    """The text of the three corpus files ``save_corpus`` writes for
    ``corpus``, keyed by file name."""
    header = f"#vocab={corpus.vocab_size} candidates={corpus.n_candidates}"

    def line(label, context, response):
        return "\t".join([label, *(" ".join(map(str, utt)) for utt in context),
                          " ".join(map(str, response))])

    files = {}
    for name, triples in (("train.txt", corpus.train), ("valid.txt", corpus.valid)):
        lines = [header]
        for t in triples:
            lines += [line("POS", t.context, t.pos_response),
                      line("NEG", t.context, t.neg_response)]
        files[name] = "\n".join(lines) + "\n"
    files["test.txt"] = "\n".join([header] + [
        line(str(label), g.context, response)
        for g in corpus.test for response, label in g.candidates]) + "\n"
    return files
