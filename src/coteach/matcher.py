"""Context-response matching models with analytic gradients.

Two small reference architectures share one interface:

* ``mean-embedding-bilinear`` -- mean-pool token embeddings over the
  context and over the response, then score s = sigmoid(u^T W v + b).
* ``interaction-mlp`` -- the same pooled vectors u, v feed a one-hidden-
  layer tanh MLP over the feature [u, v, u*v].

Parameters live in a single flat float64 vector with a fixed layout
(embedding table first, then the head), which keeps optimizer state,
checkpoints and finite-difference checking trivial.

Every computation is batched: ``_pack`` validates and flattens a sequence
of (context, responses) groups once. One ``_forward`` returns logits and
a backward cache for scoring and training; scoring only takes their
sigmoid, and ``_loss`` forms ds/dz where it is read. ``_forward`` and
``_loss`` run in the dtype of the params, so the tests' finite-difference
oracle can difference the loss in extended precision.
Each group's context is pooled once: scoring passes a ranked group's
candidates or a triple's two responses as one group, training one response.

``_backward`` builds the embedding gradient with one ``np.bincount`` over
``token_id * d + column``. bincount adds each entry's contributions in
token order starting from 0.0, the order of a sequential scatter-add into
a zeroed buffer, so every entry is the same left-to-right sum as that
scatter's, and the tests compare the two bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import losses
from .corpus import TokenizedDialogue
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
    n = n_params(spec)
    try:
        params = np.zeros(n)
    except MemoryError as exc:
        raise ValueError(f"cannot allocate a model of {n} parameters (vocab "
                         f"{spec.vocab_size}, embedding_dim {spec.embedding_dim})") from exc
    for name, sl in layout.items():
        if name.startswith("b") or name == "_total":
            continue
        params[sl] = rng.uniform(-0.1, 0.1, size=sl.stop - sl.start)
    return ModelState(spec, params)


class _Packed(NamedTuple):
    """Flat token ids of all context utterances, context by context, then
    of every response; segment k has ``lengths[k]`` tokens, context j has
    ``n_utts[j]`` utterance segments and serves the next ``runs[j]``
    responses, whose segments start at segment ``n_ctx``."""

    ids: np.ndarray
    lengths: np.ndarray
    n_utts: np.ndarray
    runs: np.ndarray
    n_ctx: int


def _pack(groups, vocab_size: int) -> _Packed:
    """Flatten a sequence of (context, responses) groups, validating every
    token once; each group's context is packed once."""
    runs = np.fromiter((len(rs) for _, rs in groups), np.intp, len(groups))
    n_utts = np.fromiter((len(c) for c, _ in groups), np.intp, len(groups))
    if not n_utts.all():
        raise ValueError("dialogue has no context utterances")
    segments = [utt for c, _ in groups for utt in c]
    n_ctx = len(segments)
    segments += [r for _, rs in groups for r in rs]
    lengths = np.fromiter(map(len, segments), np.intp, len(segments))
    if not lengths[:n_ctx].all():
        raise ValueError("empty utterance")
    if not lengths[n_ctx:].all():
        raise ValueError("empty response")
    ids = np.fromiter(chain.from_iterable(segments), np.intp, int(lengths.sum()))
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError("token ID out of range for vocab")
    return _Packed(ids, lengths, n_utts, runs, n_ctx)


def _forward(spec: MatcherSpec, params: np.ndarray, packed: _Packed):
    """Logits z and the backward cache of a packed batch; forms no derivatives.

    Runs in the dtype of ``params``. Every reduction stays inside one
    dialogue (``reduceat`` over its segments, ``einsum`` over its row; BLAS
    matmul would block rows differently for different batch sizes), so a
    dialogue's logit does not depend on the rest of the batch, bit for bit.
    A context shared by several responses is pooled once, by the same
    reduction as a context of one response.
    """
    d = spec.embedding_dim
    layout = param_layout(spec)
    E = params[layout["E"]].reshape(spec.vocab_size, d)
    starts = packed.lengths.cumsum() - packed.lengths
    seg = (np.add.reduceat(E.take(packed.ids, axis=0), starts, axis=0)
           / packed.lengths[:, None])
    ctx_starts = packed.n_utts.cumsum() - packed.n_utts
    u = np.add.reduceat(seg[:packed.n_ctx], ctx_starts, axis=0) / packed.n_utts[:, None]
    u = u.repeat(packed.runs, axis=0)
    v = seg[packed.n_ctx:]
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
    return z, cache


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Scores s = sigmoid(z) of logits clamped to [-_Z_CLAMP, _Z_CLAMP]."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -_Z_CLAMP), _Z_CLAMP)))


def _backward(spec: MatcherSpec, packed: _Packed, cache,
              dL_dz: np.ndarray) -> np.ndarray:
    """sum_i dL_dz[i] * dz_i/dtheta as a new flat vector (same layout).

    ``packed`` holds groups of one response each, so every dialogue's
    context tokens get their own rows. One ``np.bincount`` over
    ``id * d + column`` scatters the token rows into the whole vector: each
    entry starts at 0.0 and takes its rows in token order, as a sequential
    scatter-add into zeros would, so the sums match that scatter bit for bit.
    """
    d = spec.embedding_dim
    layout = param_layout(spec)
    c = dL_dz[:, None]
    if spec.kind == MEAN_EMBEDDING_BILINEAR:
        u, v, W, Wv = cache
        du = c * Wv
        dv = c * (u @ W)
        heads = (("W", ((c * u).T @ v).ravel()), ("b", np.add.reduce(dL_dz)))
    else:
        u, v, W1, w2, f, a = cache
        dpre = c * w2 * (1.0 - a * a)
        heads = (("W1", (dpre.T @ f).ravel()), ("b1", np.add.reduce(dpre)),
                 ("w2", dL_dz @ a), ("b2", np.add.reduce(dL_dz)))
        df = dpre @ W1
        du = df[:, :d] + df[:, 2 * d:] * v
        dv = df[:, d:2 * d] + df[:, 2 * d:] * u
    # A context token gets 1/(n_utts * length) of du, a response token
    # 1/length of dv.
    seg_grad = np.concatenate([
        (du / packed.n_utts[:, None]).repeat(packed.n_utts, axis=0), dv])
    seg_grad /= packed.lengths[:, None]
    rows = seg_grad.repeat(packed.lengths, axis=0)
    grad = np.bincount((packed.ids[:, None] * d + np.arange(d)).ravel(),
                       weights=rows.ravel(), minlength=layout["_total"].stop)
    for name, g in heads:
        grad[layout[name]] += g
    return grad


def _protocol_arrays(protocol: LearningProtocol, vocab_size: int):
    """A protocol's packed groups, labels and per-instance coefficients;
    each group holds one response.

    Hinge: every triple's positive, then every triple's negative, no labels,
    the margins. Cross-entropy: one group per example, the labels y, the
    weights (all 1 for plain cross-entropy).
    """
    if protocol.loss_kind == losses.HINGE_WITH_MARGIN:
        triples, margins = zip(*protocol.pairwise)
        groups = ([(t.context, (t.pos_response,)) for t in triples]
                  + [(t.context, (t.neg_response,)) for t in triples])
        return _pack(groups, vocab_size), None, np.array(margins)
    examples, weights = zip(*protocol.pointwise)
    return (_pack([(e.dialogue.context, (e.dialogue.response,)) for e in examples],
                  vocab_size),
            np.array([e.y for e in examples]), np.array(weights))


def _loss(loss_kind: str, z: np.ndarray, labels, coef):
    """Loss and dL/dz of ``_protocol_arrays``' logits; only the hinge forms ds/dz."""
    s = _sigmoid(z)
    if loss_kind == losses.HINGE_WITH_MARGIN:
        n = coef.size
        hinge = losses.hinge_with_margin(s[:n], s[n:], coef)
        active = (hinge > 0.0).astype(s.dtype)
        dsdz = np.where(np.abs(z) < _Z_CLAMP, s * (1.0 - s), 0.0)
        return hinge.sum(), np.concatenate([-active, active]) * dsdz
    ce = coef * losses.cross_entropy(labels, s)
    # Inside the clamp, d(ce)/dz = s - y; at or beyond the clamp the loss is
    # locally constant in the parameters.
    inside = (losses.CE_EPS < s) & (s < 1.0 - losses.CE_EPS)
    return ce.sum(), np.where(inside, coef * (s - labels), 0.0)


def scores(model: ModelState, groups) -> np.ndarray:
    """Matching scores s(c, r) in (0, 1) of a sequence of (context,
    responses) groups: every response of the first group in order, then of
    the next. Each group's context is pooled once, and each entry equals,
    bit for bit, the score of that dialogue alone.
    """
    z, _ = _forward(model.spec, model.params, _pack(groups, model.spec.vocab_size))
    return _sigmoid(z)


def score(model: ModelState, dialogue: TokenizedDialogue) -> float:
    """Matching score s(c, r) in (0, 1) of one dialogue."""
    return float(scores(model, [(dialogue.context, (dialogue.response,))])[0])


def loss_and_grad(model: ModelState, protocol: LearningProtocol):
    """Total protocol loss and its analytic gradient w.r.t. the flat params.

    Teacher-provided margins and weights are constants; no gradient flows
    through them.
    """
    packed, labels, coef = _protocol_arrays(protocol, model.spec.vocab_size)
    z, cache = _forward(model.spec, model.params, packed)
    total, dL_dz = _loss(protocol.loss_kind, z, labels, coef)
    return float(total), _backward(model.spec, packed, cache, dL_dz)


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
