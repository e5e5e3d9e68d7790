"""Context-response matching models with analytic gradients.

Two small reference architectures share one interface:

* ``mean-embedding-bilinear`` -- mean-pool token embeddings over the
  context and over the response, then score s = sigmoid(u^T W v + b).
* ``interaction-mlp`` -- the same pooled vectors u, v feed a one-hidden-
  layer tanh MLP over the feature [u, v, u*v].

Parameters live in a single flat float64 vector with a fixed layout
(embedding table first, then the head), which keeps optimizer state,
checkpoints and finite-difference checking trivial.

Every computation is batched over a ``corpus.Packed`` batch of (context,
responses) groups, gathered from the pack a ``corpus.Triples`` or
``corpus.TestGroups`` split built and checked once (``split_scores`` scores
any split's rows in 1 MiB calls); ``score`` packs and checks one dialogue.
One ``_forward`` serves scoring and training; scoring takes only the
sigmoid of its logits, and ``_loss`` forms ds/dz where it is read. Both
run in the dtype of the params, so the tests' finite-difference oracle
can difference the loss in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import losses
from .corpus import Packed, TestGroups, Triples, atomic_open, pack_groups
from .losses import LearningProtocol

MEAN_EMBEDDING_BILINEAR = "mean-embedding-bilinear"
INTERACTION_MLP = "interaction-mlp"
MATCHER_KINDS = (MEAN_EMBEDDING_BILINEAR, INTERACTION_MLP)

# Sigmoid input clamp; keeps exp() finite and makes score deterministic for
# any finite parameters.
_Z_CLAMP = 30.0
# Float64 embedding entries (tokens x embedding_dim) a ``split_scores`` call
# gathers, 1 MiB. One pinned CPU, medians of 40-60 rounds: noise-experiment
# validation 1.19 ms at 163 triples a call, 2.59 in one, 1.23 at 64, 1.35 at 256;
# cli-pipeline ranking 18.1 ms at 63 groups, 18.0 at 64; large-vocab one call.
_CALL_ENTRIES = 2 ** 17
# ``_backward`` returns a ``RowGrad`` when the batch's tokens times this are below the
# vocab size. Whole runs from init break even at a vocab of about 16x the tokens at
# both 60 tokens (d=32, 200 steps) and 400 (d=16, 500 steps); one pinned CPU, 4 alternations.
_ROW_GRAD_RATIO = 16


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


@lru_cache(maxsize=None)
def param_layout(spec: MatcherSpec) -> MappingProxyType[str, slice]:
    """Slices of the flat parameter vector in storage order, cached per spec.

    bilinear:        E (V*d), W (d*d), b (1)
    interaction-mlp: E (V*d), W1 (h*3d), b1 (h), w2 (h), b2 (1)
    """
    v, d, h = spec.vocab_size, spec.embedding_dim, spec.hidden_dim
    if spec.kind == MEAN_EMBEDDING_BILINEAR:
        sizes = (("E", v * d), ("W", d * d), ("b", 1))
    else:
        sizes = (("E", v * d), ("W1", h * 3 * d), ("b1", h), ("w2", h), ("b2", 1))
    layout, off = {}, 0
    for name, size in sizes:
        layout[name] = slice(off, off + size)
        off += size
    layout["_total"] = slice(0, off)
    return MappingProxyType(layout)


def n_params(spec: MatcherSpec) -> int:
    return param_layout(spec)["_total"].stop


@dataclass(frozen=True)
class ModelState:
    """A matcher spec plus its flat float64 parameter vector, treated as
    immutable: optimizer steps build a new ModelState.

    The constructor checks the layout length and that every parameter is
    finite. Only the optimizer step skips that, through ``_unchecked``:
    ``engine.adam_update`` has just checked the new params block by block.
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


@dataclass(frozen=True, eq=False)
class RowGrad:
    """A gradient of ``shape``: ``rows`` at embedding rows ``ids`` (sorted, unique),
    +0.0 in the rest of the table, then ``head``. ``np.asarray`` gives it flat."""

    ids: np.ndarray
    rows: np.ndarray
    head: np.ndarray
    shape: tuple[int]

    def __array__(self, dtype=None, copy=None):
        grad, table = np.zeros(self.shape, dtype), self.shape[0] - self.head.size
        grad[:table].reshape(-1, self.rows.shape[1])[self.ids] = self.rows
        grad[table:] = self.head
        return grad


def init_params(spec: MatcherSpec, seed: int) -> ModelState:
    """Initialize weights ~ uniform(-0.1, 0.1) and biases to 0."""
    rng = np.random.default_rng(seed)
    n = n_params(spec)
    try:
        params = np.zeros(n)
    except MemoryError as exc:
        raise ValueError(f"cannot allocate a model of {n} parameters (vocab "
                         f"{spec.vocab_size}, embedding_dim {spec.embedding_dim})") from exc
    for name, sl in param_layout(spec).items():
        if name.startswith("b") or name == "_total":
            continue
        params[sl] = rng.uniform(-0.1, 0.1, size=sl.stop - sl.start)
    return ModelState(spec, params)


def _forward(spec: MatcherSpec, params: np.ndarray, packed: Packed):
    """Logits z and the backward cache of a packed batch, in the dtype of
    ``params``; forms no derivatives. Every reduction stays inside one
    dialogue (``reduceat`` over its segments, ``einsum`` over its row; BLAS
    matmul would block rows differently for different batch sizes), so a
    dialogue's logit does not depend on the rest of the batch, bit for bit.
    A context shared by several responses is pooled once, by the same
    reduction as a context of one response."""
    d = spec.embedding_dim
    layout = param_layout(spec)
    E = params[layout["E"]].reshape(spec.vocab_size, d)
    seg = (np.add.reduceat(E.take(packed.ids, axis=0), packed.starts, axis=0)
           / packed.lengths[:, None])
    u = (np.add.reduceat(seg[:packed.n_ctx], packed.ctx_starts, axis=0)
         / packed.n_utts[:, None])
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


def _backward(spec: MatcherSpec, packed: Packed, cache,
              dL_dz: np.ndarray) -> np.ndarray | RowGrad:
    """sum_i dL_dz[i] * dz_i/dtheta as a new flat vector (same layout), or
    as its ``RowGrad`` when ``_ROW_GRAD_RATIO`` says so.

    ``packed`` holds groups of one response each, so every dialogue's
    context tokens get their own rows. One ``np.bincount`` over ``id * d +
    column`` (or over ``k * d + column``, k an id's rank among the ids)
    scatters the token rows: each entry starts at 0.0 and takes its rows in
    token order, as a sequential scatter-add into zeros would, so the sums
    match that scatter, and each other, bit for bit."""
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
    n, off, bins = layout["_total"].stop, 0, packed.ids
    rowwise = packed.ids.size * _ROW_GRAD_RATIO < spec.vocab_size
    if rowwise:
        ids, bins = np.unique(packed.ids, return_inverse=True)
        off = layout["E"].stop
    flat = np.bincount((bins[:, None] * d + np.arange(d)).ravel(), weights=rows.ravel(),
                       minlength=ids.size * d if rowwise else n)
    grad = np.zeros(n - off) if rowwise else flat
    for name, g in heads:
        grad[layout[name].start - off:layout[name].stop - off] += g
    return RowGrad(ids, flat.reshape(-1, d), grad, (n,)) if rowwise else grad


def _protocol_arrays(protocol: LearningProtocol, vocab_size: int):
    """A protocol's packed groups of one response each, the labels y and
    the coefficients. Hinge: every pair's first example, then every pair's
    second, and no labels. Cross-entropy: one group per example."""
    split, examples = protocol.split, protocol.examples
    if protocol.loss_kind == losses.HINGE_WITH_MARGIN:
        return split.gather(examples.T.reshape(-1, 1), vocab_size), None, protocol.coef
    return (split.gather(examples[:, None], vocab_size), 1 - (examples & 1),
            protocol.coef)


def _loss(loss_kind: str, z: np.ndarray, labels, coef):
    """Loss and dL/dz of ``_protocol_arrays``' logits; only the hinge forms ds/dz."""
    s = _sigmoid(z)
    if loss_kind == losses.HINGE_WITH_MARGIN:
        n = coef.size
        hinge = losses.hinge(s[:n], s[n:], coef)
        active = (hinge > 0.0).astype(s.dtype)
        dsdz = np.where(np.abs(z) < _Z_CLAMP, s * (1.0 - s), 0.0)
        return hinge.sum(), np.concatenate([-active, active]) * dsdz
    ce = coef * losses.cross_entropy(labels, s)
    # Inside the clamp, d(ce)/dz = s - y; at or beyond the clamp the loss is
    # locally constant in the parameters.
    inside = (losses.CE_EPS < s) & (s < 1.0 - losses.CE_EPS)
    return ce.sum(), np.where(inside, coef * (s - labels), 0.0)


def scores(model: ModelState, packed: Packed) -> np.ndarray:
    """Matching scores s(c, r) in (0, 1) of a Packed batch, group by group
    in response order. Each group's context is pooled once, and each entry
    equals, bit for bit, the score of that dialogue alone."""
    return _sigmoid(_forward(model.spec, model.params, packed)[0])


def split_scores(model: ModelState, split: Triples | TestGroups, rows: np.ndarray) -> np.ndarray:
    """``scores`` of the groups ``split.gather(rows, ...)`` packs, in calls of about
    ``_CALL_ENTRIES`` entries, each ``score``'s bit for bit; a non-finite one raises."""
    spec, entries = model.spec, model.spec.embedding_dim * split.pack.ids.size
    if len(rows) * entries <= _CALL_ENTRIES * len(split):
        s = scores(model, split.gather(rows, spec.vocab_size))
    else:
        step = max(1, _CALL_ENTRIES * len(split) // entries)
        s = np.concatenate([scores(model, split.gather(rows[lo:lo + step], spec.vocab_size))
                            for lo in range(0, len(rows), step)])
    if not math.isfinite(s.sum()):
        raise FloatingPointError("non-finite score")
    return s


def score(model: ModelState, context, response) -> float:
    """Matching score s(c, r) in (0, 1) of one dialogue, packed and checked."""
    return float(scores(model, pack_groups([(context, (response,))], model.spec.vocab_size))[0])


def loss_and_grad(model: ModelState, protocol: LearningProtocol):
    """Total protocol loss and its analytic gradient w.r.t. the flat params, as
    ``_backward`` forms it; no gradient flows through the teacher's margins and weights."""
    packed, labels, coef = _protocol_arrays(protocol, model.spec.vocab_size)
    z, cache = _forward(model.spec, model.params, packed)
    total, dL_dz = _loss(protocol.loss_kind, z, labels, coef)
    return float(total), _backward(model.spec, packed, cache, dL_dz)


def save_checkpoint(model: ModelState, path) -> None:
    """Write header line + little-endian float64 parameter vector."""
    spec = model.spec
    header = (f"{spec.kind} {spec.vocab_size} {spec.embedding_dim} "
              f"{spec.hidden_dim} {model.params.size}\n")
    with atomic_open(path, "wb") as f:
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
