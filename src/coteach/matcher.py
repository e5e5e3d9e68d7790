"""Context-response matching models with analytic gradients.

Two small reference architectures share one interface:

* ``mean-embedding-bilinear`` -- mean-pool token embeddings over the
  context and over the response, then score s = sigmoid(u^T W v + b).
* ``interaction-mlp`` -- the same pooled vectors u, v feed a one-hidden-
  layer tanh MLP over the feature [u, v, u*v].

Parameters live in a single flat float64 vector with a fixed layout
(embedding table first, then the head), which keeps optimizer state,
checkpoints and finite-difference checking trivial.

Every computation is batched: ``_pack`` validates and flattens dialogues
once, then one ``_forward``, ``_loss`` and ``_backward`` serve scoring,
training and the finite-difference checker (the correctness oracle, which
differences the loss in extended precision). All gradients are
hand-derived. Scoring pools each run of consecutive dialogues that share a
context once (a ranked group's candidates, a triple's pointwise pair);
training packs one context per dialogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import losses
from .corpus import TokenizedDialogue, pair_dialogues
from .losses import LearningProtocol

MEAN_EMBEDDING_BILINEAR = "mean-embedding-bilinear"
INTERACTION_MLP = "interaction-mlp"
MATCHER_KINDS = (MEAN_EMBEDDING_BILINEAR, INTERACTION_MLP)

# Sigmoid input clamp; keeps exp() finite and makes score deterministic for
# any finite parameters.
_Z_CLAMP = 30.0


@dataclass(frozen=True)
class MatcherSpec:
    kind: str
    vocab_size: int
    embedding_dim: int = 32
    hidden_dim: int = 32

    def __post_init__(self):
        if self.kind not in MATCHER_KINDS:
            raise ValueError(f"unknown matcher kind {self.kind!r}")
        if self.vocab_size <= 0 or self.embedding_dim <= 0 or self.hidden_dim <= 0:
            raise ValueError("spec dimensions must be positive")


def param_layout(spec: MatcherSpec) -> dict[str, slice]:
    """Slices of the flat parameter vector, in storage order.

    bilinear:        E (V*d), W (d*d), b (1)
    interaction-mlp: E (V*d), W1 (h*3d), b1 (h), w2 (h), b2 (1)
    """
    v, d, h = spec.vocab_size, spec.embedding_dim, spec.hidden_dim
    layout = {"E": slice(0, v * d)}
    off = v * d
    if spec.kind == MEAN_EMBEDDING_BILINEAR:
        layout["W"] = slice(off, off + d * d)
        off += d * d
        layout["b"] = slice(off, off + 1)
        off += 1
    else:
        layout["W1"] = slice(off, off + h * 3 * d)
        off += h * 3 * d
        layout["b1"] = slice(off, off + h)
        off += h
        layout["w2"] = slice(off, off + h)
        off += h
        layout["b2"] = slice(off, off + 1)
        off += 1
    layout["_total"] = slice(0, off)
    return layout


def n_params(spec: MatcherSpec) -> int:
    return param_layout(spec)["_total"].stop


@dataclass(frozen=True)
class ModelState:
    """A matcher spec plus its flat float64 parameter vector.

    Treated as immutable: optimizer steps build a new ModelState rather
    than writing into ``params``.

    The constructor checks the layout length and that every parameter is
    finite, so ``init_params``, ``load_checkpoint`` and any caller's params
    are checked at the boundary. Only the optimizer step skips it, through
    ``_unchecked``: ``engine.adam_update`` has just checked the new params
    block by block.
    """

    spec: MatcherSpec
    params: np.ndarray

    def __post_init__(self):
        expected = n_params(self.spec)
        if self.params.shape != (expected,):
            raise ValueError(
                f"params length {self.params.shape} does not match layout ({expected},)")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("params contain non-finite entries")

    @classmethod
    def _unchecked(cls, spec: MatcherSpec, params: np.ndarray) -> ModelState:
        """A ModelState from params of the right length already known to be
        finite, built without ``__post_init__``'s checks."""
        model = object.__new__(cls)
        object.__setattr__(model, "spec", spec)
        object.__setattr__(model, "params", params)
        return model


def init_params(spec: MatcherSpec, seed: int) -> ModelState:
    """Initialize weights ~ uniform(-0.1, 0.1) and biases to 0."""
    rng = np.random.default_rng(seed)
    layout = param_layout(spec)
    params = np.zeros(n_params(spec))
    for name, sl in layout.items():
        if name.startswith("b") or name == "_total":
            continue
        params[sl] = rng.uniform(-0.1, 0.1, size=sl.stop - sl.start)
    return ModelState(spec, params)


class _Packed(NamedTuple):
    """Flat token ids of all context utterances, context by context, then
    of one response per dialogue; segment k has ``lengths[k]`` tokens, and
    context j has ``n_utts[j]`` utterance segments. Context j serves
    dialogue j, or with ``runs`` set, the next ``runs[j]`` dialogues."""

    ids: np.ndarray
    lengths: np.ndarray
    n_utts: np.ndarray
    runs: np.ndarray | None


def _pack(dialogues, vocab_size: int, pool: bool = False) -> _Packed:
    """Flatten a sequence of dialogues, validating every token once. With
    ``pool``, each run of consecutive equal contexts is packed once."""
    contexts = [d.context for d in dialogues]
    runs = None
    if pool:
        firsts = [i for i, c in enumerate(contexts) if i == 0 or c != contexts[i - 1]]
        if len(firsts) < len(contexts):
            runs = np.diff(np.array(firsts + [len(contexts)], np.intp))
            contexts = [contexts[i] for i in firsts]
    n_utts = np.fromiter(map(len, contexts), np.intp, len(contexts))
    if not n_utts.all():
        raise ValueError("dialogue has no context utterances")
    segments = [utt for c in contexts for utt in c]
    n_ctx = len(segments)
    segments += [d.response for d in dialogues]
    lengths = np.fromiter(map(len, segments), np.intp, len(segments))
    if not lengths[:n_ctx].all():
        raise ValueError("empty utterance")
    if not lengths[n_ctx:].all():
        raise ValueError("empty response")
    ids = np.fromiter(chain.from_iterable(segments), np.intp, int(lengths.sum()))
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError("token ID out of range for vocab")
    return _Packed(ids, lengths, n_utts, runs)


def _forward(spec: MatcherSpec, params: np.ndarray, packed: _Packed):
    """Scores, ds/dz and the backward cache of a packed batch.

    Runs in the dtype of ``params``. Every reduction stays inside one
    dialogue (``reduceat`` over its segments, ``einsum`` over its row; BLAS
    matmul would block rows differently for different batch sizes), so a
    dialogue's score does not depend on the rest of the batch, bit for bit.
    A pooled context is pooled by the same reduction as an unpooled one.
    """
    n = packed.n_utts.size if packed.runs is None else int(packed.runs.sum())
    d = spec.embedding_dim
    layout = param_layout(spec)
    E = params[layout["E"]].reshape(spec.vocab_size, d)
    starts = np.cumsum(packed.lengths) - packed.lengths
    seg = np.add.reduceat(E[packed.ids], starts, axis=0) / packed.lengths[:, None]
    ctx_starts = np.cumsum(packed.n_utts) - packed.n_utts
    u = np.add.reduceat(seg[:-n], ctx_starts, axis=0) / packed.n_utts[:, None]
    if packed.runs is not None:
        u = np.repeat(u, packed.runs, axis=0)
    v = seg[-n:]
    if spec.kind == MEAN_EMBEDDING_BILINEAR:
        W = params[layout["W"]].reshape(d, d)
        Wv = np.einsum("ij,nj->ni", W, v)
        z = np.einsum("ni,ni->n", u, Wv) + params[layout["b"]][0]
        cache = (u, v, W, Wv)
    else:
        W1 = params[layout["W1"]].reshape(spec.hidden_dim, 3 * d)
        w2 = params[layout["w2"]]
        f = np.concatenate([u, v, u * v], axis=1)
        a = np.tanh(np.einsum("hk,nk->nh", W1, f) + params[layout["b1"]])
        z = np.einsum("nh,h->n", a, w2) + params[layout["b2"]][0]
        cache = (u, v, W1, w2, f, a)
    s = 1.0 / (1.0 + np.exp(-np.clip(z, -_Z_CLAMP, _Z_CLAMP)))
    dsdz = np.where(np.abs(z) < _Z_CLAMP, s * (1.0 - s), 0.0)
    return s, dsdz, cache


def _backward(spec: MatcherSpec, packed: _Packed, cache, dL_dz: np.ndarray,
              grad: np.ndarray) -> None:
    """Add sum_i dL_dz[i] * dz_i/dtheta into ``grad`` (flat, same layout).

    ``packed`` holds one context per dialogue (``_pack`` without ``pool``),
    so every dialogue's context tokens get their own ``np.add.at`` rows.
    """
    d = spec.embedding_dim
    layout = param_layout(spec)
    c = dL_dz[:, None]
    if spec.kind == MEAN_EMBEDDING_BILINEAR:
        u, v, W, Wv = cache
        du = c * Wv
        dv = c * (u @ W)
        grad[layout["W"]] += ((c * u).T @ v).ravel()
        grad[layout["b"]] += dL_dz.sum()
    else:
        u, v, W1, w2, f, a = cache
        dpre = c * w2 * (1.0 - a * a)
        grad[layout["W1"]] += (dpre.T @ f).ravel()
        grad[layout["b1"]] += dpre.sum(axis=0)
        grad[layout["w2"]] += dL_dz @ a
        grad[layout["b2"]] += dL_dz.sum()
        df = dpre @ W1
        du = df[:, :d] + df[:, 2 * d:] * v
        dv = df[:, d:2 * d] + df[:, 2 * d:] * u
    # A context token gets 1/(n_utts * length) of du, a response token
    # 1/length of dv.
    seg_grad = np.concatenate([
        np.repeat(du / packed.n_utts[:, None], packed.n_utts, axis=0), dv])
    seg_grad /= packed.lengths[:, None]
    E_grad = grad[layout["E"]].reshape(spec.vocab_size, d)
    np.add.at(E_grad, packed.ids, np.repeat(seg_grad, packed.lengths, axis=0))


def _protocol_arrays(protocol: LearningProtocol, vocab_size: int):
    """A protocol's packed dialogues, labels and per-instance coefficients.

    Hinge: the positive dialogues then the negative ones, no labels, the
    margins. Cross-entropy: one dialogue per example, the labels y, the
    weights (all 1 for plain cross-entropy).
    """
    if protocol.loss_kind == losses.HINGE_WITH_MARGIN:
        triples, margins = zip(*protocol.pairwise)
        return _pack(pair_dialogues(triples), vocab_size), None, np.array(margins)
    examples, weights = zip(*protocol.pointwise)
    return (_pack([e.dialogue for e in examples], vocab_size),
            np.array([e.y for e in examples]), np.array(weights))


def _loss(loss_kind: str, s: np.ndarray, dsdz: np.ndarray, labels, coef):
    """Total protocol loss and dL/dz for the scores of ``_protocol_arrays``."""
    if loss_kind == losses.HINGE_WITH_MARGIN:
        n = coef.size
        hinge = losses.hinge_with_margin(s[:n], s[n:], coef)
        active = (hinge > 0.0).astype(s.dtype)
        return hinge.sum(), np.concatenate([-active, active]) * dsdz
    ce = coef * losses.cross_entropy(labels, s)
    # Inside the clamp, d(ce)/dz = s - y; at or beyond the clamp the loss is
    # locally constant in the parameters.
    inside = (losses.CE_EPS < s) & (s < 1.0 - losses.CE_EPS)
    return ce.sum(), np.where(inside, coef * (s - labels), 0.0)


def scores(model: ModelState, dialogues) -> np.ndarray:
    """Matching scores s(c, r) in (0, 1) for a sequence of dialogues.

    Each run of consecutive dialogues with equal contexts has its context
    pooled once, so order the candidates of one context next to each other.
    Each entry equals, bit for bit, the score of that dialogue alone.
    """
    packed = _pack(dialogues, model.spec.vocab_size, pool=True)
    s, _, _ = _forward(model.spec, model.params, packed)
    return s


def score(model: ModelState, dialogue: TokenizedDialogue) -> float:
    """Matching score s(c, r) in (0, 1) of one dialogue."""
    return float(scores(model, [dialogue])[0])


def loss_and_grad(model: ModelState, protocol: LearningProtocol):
    """Total protocol loss and its analytic gradient w.r.t. the flat params.

    Teacher-provided margins and weights are constants; no gradient flows
    through them.
    """
    packed, labels, coef = _protocol_arrays(protocol, model.spec.vocab_size)
    s, dsdz, cache = _forward(model.spec, model.params, packed)
    total, dL_dz = _loss(protocol.loss_kind, s, dsdz, labels, coef)
    grad = np.zeros_like(model.params)
    _backward(model.spec, packed, cache, dL_dz, grad)
    return float(total), grad


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
    _, grad = loss_and_grad(model, protocol)
    packed, labels, coef = _protocol_arrays(protocol, model.spec.vocab_size)

    def loss_at(params):
        s, dsdz, _ = _forward(model.spec, params, packed)
        return _loss(protocol.loss_kind, s, dsdz, labels, coef)[0]

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


def save_checkpoint(model: ModelState, path) -> None:
    """Write header line + little-endian float64 parameter vector."""
    spec = model.spec
    header = (f"{spec.kind} {spec.vocab_size} {spec.embedding_dim} "
              f"{spec.hidden_dim} {model.params.size}\n")
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        f.write(model.params.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelState:
    with open(path, "rb") as f:
        header = f.readline().decode("utf-8").split()
        if len(header) != 5:
            raise ValueError(f"malformed checkpoint header in {path}")
        kind, vocab, d, h, count = header[0], *map(int, header[1:])
        spec = MatcherSpec(kind=kind, vocab_size=vocab, embedding_dim=d, hidden_dim=h)
        if count != n_params(spec):
            raise ValueError(f"checkpoint param count {count} does not match spec layout")
        # Read what is there, not count * 8 bytes: the header may lie.
        data = f.read()
    if len(data) != count * 8:
        raise ValueError(f"truncated or oversized checkpoint {path}: "
                         f"{len(data)} parameter bytes, expected {count * 8}")
    return ModelState(spec, np.frombuffer(data, dtype="<f8").astype(np.float64))
