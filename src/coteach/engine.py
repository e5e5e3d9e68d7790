"""Training engine: pre-training, the co-teaching loop, Adam, selection.

The co-teaching loop keeps two peer models. Every iteration a batch is
split into two disjoint halves; each model builds a learning protocol for
its peer from a snapshot of its own parameters, then both models step on
the protocol they received. Because protocols and gradients come from the
snapshots taken at step entry, the order in which the two updates are
applied cannot matter.

Randomness is organized as one RNG stream per concern (init / shuffle /
split), each seeded by (seed, concern, epoch), so e.g. changing the
evaluation cadence never perturbs the data order. That order lives in
``_batches``: both pretraining and co-teaching walk the batches it yields.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import losses, matcher, strategies
from .corpus import (Corpus, interleaved_dialogues, parse_metric, read_text,
                     to_pointwise, write_csv)
from .losses import LearningProtocol

STRATEGIES = ("margin", "weighting", "curriculum", "none")

_CONCERN_IDS = {"init": 0, "shuffle": 1, "split": 2}


def _stream(seed: int, concern: str, epoch: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _CONCERN_IDS[concern], epoch])


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "none"
    lam: float | None = None
    delta: float | None = None
    learning_rate: float = 1e-4
    batch_size: int = 50
    n_epochs: int = 1
    seed: int = 0
    eval_every: int = 50

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 <= self.learning_rate < np.inf:  # also rejects nan
            raise ValueError("learning rate must be finite and non-negative")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ValueError("batch size must be even and at least 2")
        if self.strategy == "margin" and (
                self.lam is None or not 0 < self.lam < np.inf):
            raise ValueError("margin strategy requires a finite lam > 0")
        if self.strategy == "curriculum" and (
                self.delta is None or not 0.0 < self.delta <= 1.0):
            raise ValueError("curriculum strategy requires delta in (0, 1]")
        if self.n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")


@dataclass(frozen=True)
class OptimizerState:
    """Adam moment vectors and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_optimizer(n: int) -> OptimizerState:
    return OptimizerState(np.zeros(n), np.zeros(n), 0)


# Entries per block of ``adam_update``: 16,384 float64 entries are 128 KB,
# so the nine arrays one block touches fit in a 2 MB per-core L2 cache.
ADAM_BLOCK = 16384


def adam_update(params: np.ndarray, grad: np.ndarray, state: OptimizerState,
                lr: float, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8):
    """One bias-corrected Adam step on float64 vectors; returns (new params,
    new state).

    The step is::

        m = beta1*m + (1-beta1)*g
        v = beta2*v + ((1-beta2)*g)*g
        params - (lr * (m/c1)) / (sqrt(v/c2) + eps),  c_i = 1 - beta_i**t

    It walks the vectors in blocks of ``ADAM_BLOCK`` entries, writing each
    block's results into the freshly allocated outputs and two block-sized
    scratch buffers, so no temporary leaves the cache. Every element goes
    through the same IEEE operations, on the same operands and in the same
    order, as the one-line whole-vector form; each rounds identically, so
    the result is bit-for-bit the same whatever the block size. The inputs
    are never written: callers keep them as snapshots.

    Finiteness is checked per block, on the new params while they are in
    cache. A non-finite gradient entry always makes its parameter
    non-finite, so a block that fails first sends the whole gradient
    through the check: the error names the first non-finite gradient entry
    if there is one, else the block's first non-finite parameter. Either
    is a ``FloatingPointError``; the invalid and divide-by-zero results
    that lead to it raise no numpy warning.
    """
    if params.shape != grad.shape:
        raise ValueError("params/grad length mismatch")
    if state.m.shape != params.shape or state.v.shape != params.shape:
        raise ValueError(
            f"optimizer state shapes {state.m.shape}/{state.v.shape} do not "
            f"match params {params.shape}")
    t = state.t + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    n = params.size
    m, v, new_params = np.empty(n), np.empty(n), np.empty(n)
    a, b = np.empty(min(ADAM_BLOCK, n)), np.empty(min(ADAM_BLOCK, n))
    finite = np.empty(min(ADAM_BLOCK, n), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, n, ADAM_BLOCK):
            s = slice(lo, lo + ADAM_BLOCK)
            g, mb, vb, pb = grad[s], m[s], v[s], new_params[s]
            ta, tb, fb = a[:g.size], b[:g.size], finite[:g.size]
            np.multiply(beta1, state.m[s], out=mb)
            np.multiply(1.0 - beta1, g, out=ta)
            np.add(mb, ta, out=mb)
            np.multiply(beta2, state.v[s], out=vb)
            np.multiply(1.0 - beta2, g, out=ta)
            np.multiply(ta, g, out=ta)
            np.add(vb, ta, out=vb)
            np.divide(mb, c1, out=ta)
            np.divide(vb, c2, out=tb)
            np.sqrt(tb, out=tb)
            np.add(tb, eps, out=tb)
            np.multiply(lr, ta, out=ta)
            np.divide(ta, tb, out=ta)
            np.subtract(params[s], ta, out=pb)
            if not np.logical_and.reduce(np.isfinite(pb, out=fb)):
                _raise_first_nonfinite(grad, "gradient entry")
                _raise_first_nonfinite(pb, "parameter", lo)
    return new_params, OptimizerState(m, v, t)


def _raise_first_nonfinite(values: np.ndarray, what: str, offset: int = 0):
    """Raise FloatingPointError naming the first non-finite entry, if any."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FloatingPointError(f"non-finite {what} at index {offset + int(bad[0])}")


def _apply_update(model: matcher.ModelState, grad: np.ndarray,
                  opt: OptimizerState, config: TrainConfig):
    params, opt = adam_update(model.params, grad, opt, config.learning_rate)
    # adam_update has checked every new parameter, and kept the shape.
    return matcher.ModelState._unchecked(model.spec, params), opt


def split_batch(batch, rng: np.random.Generator):
    """Randomly permute and halve a batch into two disjoint sub-batches."""
    if len(batch) % 2 != 0:
        raise ValueError("batch size must be even")
    perm = rng.permutation(len(batch))
    half = len(batch) // 2
    return ([batch[i] for i in perm[:half]], [batch[i] for i in perm[half:]])


def validation_p_at_1(model: matcher.ModelState, triples) -> float:
    """P@1 over validation triples framed as 2-candidate ranking.

    The positive candidate precedes the negative, so a score tie ranks the
    positive first.
    """
    if not triples:
        raise ValueError("empty validation set")
    n = len(triples)
    s = matcher.scores(model, interleaved_dialogues(triples))
    return int(np.count_nonzero(s[0::2] >= s[1::2])) / n


def _batches(corpus: Corpus, config: TrainConfig):
    """(iteration, batch, split_rng) for each full batch of every epoch's
    shuffle, numbered from 1; split_rng is the epoch's stream for halving
    batches. Raises on the call if the training set holds no full batch."""
    size = config.batch_size
    n_batches = len(corpus.train) // size
    if n_batches == 0:
        raise ValueError(
            f"training set of {len(corpus.train)} triples is smaller than "
            f"one batch ({size})")

    def walk():
        for epoch in range(config.n_epochs):
            perm = _stream(config.seed, "shuffle", epoch).permutation(len(corpus.train))
            split_rng = _stream(config.seed, "split", epoch)
            for k in range(n_batches):
                batch = [corpus.train[i] for i in perm[k * size:(k + 1) * size]]
                yield epoch * n_batches + k + 1, batch, split_rng
    return walk()


def _plain_ce_protocol(triples) -> LearningProtocol:
    pointwise = tuple((ex, 1.0) for ex in to_pointwise(triples))
    return LearningProtocol(losses.CROSS_ENTROPY, pointwise=pointwise)


def build_protocol(strategy: str, teacher: matcher.ModelState, sub_batch,
                   config: TrainConfig) -> LearningProtocol:
    """Apply a teaching strategy to a sub-batch of pairwise triples."""
    if strategy == "margin":
        return strategies.margin_protocol(teacher, sub_batch, config.lam)
    if strategy == "weighting":
        return strategies.weighting_protocol(teacher, to_pointwise(sub_batch))
    if strategy == "curriculum":
        return strategies.curriculum_protocol(teacher, to_pointwise(sub_batch),
                                              config.delta)
    if strategy == "none":
        return _plain_ce_protocol(sub_batch)
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class HistoryRecord:
    iteration: int
    loss_a: float
    loss_b: float
    valid_p1_a: float | None = None
    valid_p1_b: float | None = None


@dataclass
class RunHistory:
    """Append-only per-iteration log of the co-teaching loop."""

    records: list[HistoryRecord] = field(default_factory=list)

    def append(self, record: HistoryRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise ValueError("iteration indices must be strictly increasing")
        self.records.append(record)


HISTORY_COLUMNS = ["iter", "loss_A", "loss_B", "valid_P@1_A", "valid_P@1_B"]


def write_history(history: RunHistory, path) -> None:
    """Write history.csv; identical runs produce byte-identical files."""
    write_csv(path, HISTORY_COLUMNS, ([
        r.iteration,
        repr(r.loss_a),
        repr(r.loss_b),
        "" if r.valid_p1_a is None else repr(r.valid_p1_a),
        "" if r.valid_p1_b is None else repr(r.valid_p1_b),
    ] for r in history.records))


def _parse_loss(cell: str) -> float:
    loss = float(cell)
    if not 0.0 <= loss < np.inf:  # also rejects nan
        raise ValueError(f"{cell!r} is not a finite non-negative loss")
    return loss


def _history_record(row: dict) -> HistoryRecord:
    if any(row[c] is None for c in HISTORY_COLUMNS):
        raise ValueError(f"expected {len(HISTORY_COLUMNS)} fields")
    p1_a = parse_metric(row["valid_P@1_A"]) if row["valid_P@1_A"] else None
    p1_b = parse_metric(row["valid_P@1_B"]) if row["valid_P@1_B"] else None
    if (p1_a is None) != (p1_b is None):
        raise ValueError("valid_P@1_A and valid_P@1_B must both be set or both empty")
    iteration = int(row["iter"])
    if iteration < 1:
        raise ValueError(f"iteration {iteration} is below 1")
    return HistoryRecord(iteration, _parse_loss(row["loss_A"]),
                         _parse_loss(row["loss_B"]), p1_a, p1_b)


def read_history(path) -> RunHistory:
    """Load a history.csv. Columns past ``HISTORY_COLUMNS``, such as the
    always-0 ``wall_ms`` of older files, are ignored. A malformed file
    raises ValueError naming the file and line."""
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    history = RunHistory()
    try:
        missing = [c for c in HISTORY_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"missing column(s) {', '.join(missing)}")
        for row in reader:
            history.append(_history_record(row))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    return history


def _pretrain_candidates(model: matcher.ModelState, batches, config: TrainConfig):
    """The models pretraining evaluates: ``model``, then the model after
    every ``eval_every``-th step and after the last step."""
    yield model
    opt = init_optimizer(model.params.size)
    iteration = 0
    for iteration, batch, _ in batches:
        _, grad = matcher.loss_and_grad(model, _plain_ce_protocol(batch))
        model, opt = _apply_update(model, grad, opt, config)
        if iteration % config.eval_every == 0:
            yield model
    if iteration % config.eval_every != 0:
        yield model


def pretrain(spec: matcher.MatcherSpec, corpus: Corpus,
             config: TrainConfig, return_p1: bool = False):
    """Train a single model on the full (noisy) training set.

    Plain cross-entropy on the pointwise view, shuffled each epoch; returns
    the evaluated checkpoint with the best validation P@1 (the initial
    model counts as a candidate, ties keep the earlier checkpoint). With
    ``return_p1`` it returns (model, its validation P@1).
    """
    if config.strategy != "none":
        raise ValueError("pretrain requires strategy 'none'")
    if not corpus.train:
        raise ValueError("empty training set")
    model = matcher.init_params(spec, int(_stream(config.seed, "init").integers(2 ** 31)))
    # Zero epochs return the initialization, even without a full batch.
    batches = _batches(corpus, config) if config.n_epochs else ()
    best, best_p1 = None, -1.0
    for candidate in _pretrain_candidates(model, batches, config):
        p1 = validation_p_at_1(candidate, corpus.valid)
        if p1 > best_p1:
            best, best_p1 = candidate, p1
    return (best, best_p1) if return_p1 else best


def coteach_step(model_a: matcher.ModelState, model_b: matcher.ModelState,
                 opt_a: OptimizerState, opt_b: OptimizerState,
                 batch, config: TrainConfig, rng: np.random.Generator,
                 update_order: tuple[str, str] = ("A", "B"),
                 split_hook=None):
    """One co-teaching iteration; returns (A, B, optA, optB, lossA, lossB).

    Protocols and gradients are computed from the entry snapshots of both
    models before either update is applied, so ``update_order`` cannot
    change the result; it exists to make that property testable.
    """
    sub_a, sub_b = split_batch(batch, rng)
    if split_hook is not None:
        split_hook(batch, sub_a, sub_b)
    protocol_a = build_protocol(config.strategy, model_b, sub_a, config)
    protocol_b = build_protocol(config.strategy, model_a, sub_b, config)
    loss_a, grad_a = matcher.loss_and_grad(model_a, protocol_a)
    loss_b, grad_b = matcher.loss_and_grad(model_b, protocol_b)
    for which in update_order:
        if which == "A":
            model_a, opt_a = _apply_update(model_a, grad_a, opt_a, config)
        elif which == "B":
            model_b, opt_b = _apply_update(model_b, grad_b, opt_b, config)
        else:
            raise ValueError(f"unknown model name {which!r}")
    return model_a, model_b, opt_a, opt_b, loss_a, loss_b


def coteach_train(init_a: matcher.ModelState, init_b: matcher.ModelState,
                  corpus: Corpus, config: TrainConfig,
                  checkpoint_dir=None, split_hook=None):
    """Run the full co-teaching loop; returns (A, B, RunHistory).

    Validation P@1 for both peers is recorded (and both models are
    checkpointed if ``checkpoint_dir`` is given) every ``eval_every``
    iterations. Fully deterministic in (seed, config, corpus).
    """
    batches = _batches(corpus, config)
    model_a, model_b = init_a, init_b
    opt_a = init_optimizer(model_a.params.size)
    opt_b = init_optimizer(model_b.params.size)
    history = RunHistory()
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
    for iteration, batch, split_rng in batches:
        model_a, model_b, opt_a, opt_b, loss_a, loss_b = coteach_step(
            model_a, model_b, opt_a, opt_b, batch, config, split_rng,
            split_hook=split_hook)
        p1_a = p1_b = None
        if iteration % config.eval_every == 0:
            p1_a = validation_p_at_1(model_a, corpus.valid)
            p1_b = validation_p_at_1(model_b, corpus.valid)
            if checkpoint_dir is not None:
                matcher.save_checkpoint(model_a, checkpoint_dir / f"A_{iteration}.ckpt")
                matcher.save_checkpoint(model_b, checkpoint_dir / f"B_{iteration}.ckpt")
        history.append(HistoryRecord(iteration, loss_a, loss_b, p1_a, p1_b))
    return model_a, model_b, history


def select_model(model_a: matcher.ModelState, model_b: matcher.ModelState,
                 valid) -> matcher.ModelState:
    """Return the peer with higher validation P@1; ties go to A."""
    p_a = validation_p_at_1(model_a, valid)
    p_b = validation_p_at_1(model_b, valid)
    return model_a if p_a >= p_b else model_b
