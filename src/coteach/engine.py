"""Training engine: pre-training, the co-teaching loop, Adam, selection.

The co-teaching loop keeps two peer models. Every iteration a batch is
split into two disjoint halves; each model builds a learning protocol for
its peer from a snapshot of its own parameters, then both models step on
the protocol they received, A first. Because protocols and gradients come
from the snapshots taken at step entry, the order in which the two updates
are applied cannot matter. The engine picks the strategy by name;
``strategies`` builds each protocol and ``matcher`` turns it into a loss
and gradient. The engine never packs: a batch is a ``corpus.Batch`` of
the training split, which, like the validation split, packs itself once.

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

from . import matcher, strategies
from .corpus import Batch, Corpus, Triples, parse_metric, read_text, write_csv

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
        for name in ("n_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
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
# Adam's constants: the learning rate is its only setting.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_update(params: np.ndarray, grad: np.ndarray, state: OptimizerState,
                lr: float):
    """One bias-corrected Adam step on float64 vectors; returns (new params,
    new state). The step is::

        m = BETA1*m + (1-BETA1)*g
        v = BETA2*v + ((1-BETA2)*g)*g
        params - (lr * (m/c1)) / (sqrt(v/c2) + EPS),  c_i = 1 - BETA_i**t

    It walks the vectors in blocks of ``ADAM_BLOCK`` entries into the fresh
    outputs and two block-sized scratch buffers, so no temporary leaves the
    cache. Every element takes the same IEEE operations, on the same
    operands and in the same order, as the one-line whole-vector form, so
    the result is bit-for-bit the same whatever the block size. The inputs
    are never written: callers keep them as snapshots.

    Finiteness is checked per block, on the new params while in cache. A
    non-finite gradient entry always makes its parameter non-finite, so a
    failing block sends the whole gradient through the check: the
    ``FloatingPointError`` names the first non-finite gradient entry if
    there is one, else the block's first non-finite parameter. The invalid
    and divide-by-zero results on the way raise no numpy warning.
    """
    if params.shape != grad.shape:
        raise ValueError("params/grad length mismatch")
    if state.m.shape != params.shape or state.v.shape != params.shape:
        raise ValueError(
            f"optimizer state shapes {state.m.shape}/{state.v.shape} do not "
            f"match params {params.shape}")
    t = state.t + 1
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    n = params.size
    m, v, new_params = np.empty(n), np.empty(n), np.empty(n)
    a, b = np.empty(min(ADAM_BLOCK, n)), np.empty(min(ADAM_BLOCK, n))
    finite = np.empty(min(ADAM_BLOCK, n), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, n, ADAM_BLOCK):
            s = slice(lo, lo + ADAM_BLOCK)
            g, mb, vb, pb = grad[s], m[s], v[s], new_params[s]
            ta, tb, fb = a[:g.size], b[:g.size], finite[:g.size]
            np.multiply(BETA1, state.m[s], out=mb)
            np.multiply(1.0 - BETA1, g, out=ta)
            np.add(mb, ta, out=mb)
            np.multiply(BETA2, state.v[s], out=vb)
            np.multiply(1.0 - BETA2, g, out=ta)
            np.multiply(ta, g, out=ta)
            np.add(vb, ta, out=vb)
            np.divide(mb, c1, out=ta)
            np.divide(vb, c2, out=tb)
            np.sqrt(tb, out=tb)
            np.add(tb, EPS, out=tb)
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
    """Randomly permute and halve a Batch (or index array) into two disjoint halves."""
    if len(batch) % 2 != 0:
        raise ValueError("batch size must be even")
    perm = rng.permutation(len(batch))
    half = len(batch) // 2
    return batch[perm[:half]], batch[perm[half:]]


def validation_p_at_1(model: matcher.ModelState, split: Triples) -> float:
    """P@1 over the triples of a Triples split, framed as 2-candidate
    ranking; a score tie ranks the positive first."""
    s = matcher.split_scores(model, split, Batch(split, np.arange(len(split))).examples())
    return int(np.count_nonzero(s[0::2] >= s[1::2])) / len(split)


def _batches(corpus: Corpus, config: TrainConfig):
    """(iteration, Batch of the training split, split_rng) for each full
    batch of every epoch's shuffle, numbered from 1, split_rng the epoch's
    stream for halving batches. Raises on the call if no full batch fits."""
    size, train = config.batch_size, corpus.train
    n_batches = len(train) // size
    if n_batches == 0:
        raise ValueError(
            f"training set of {len(train)} triples is smaller than "
            f"one batch ({size})")

    def walk():
        for epoch in range(config.n_epochs):
            perm = _stream(config.seed, "shuffle", epoch).permutation(len(train))
            split_rng = _stream(config.seed, "split", epoch)
            for k in range(n_batches):
                yield (epoch * n_batches + k + 1,
                       Batch(train, perm[k * size:(k + 1) * size]),
                       split_rng)
    return walk()


def build_protocol(strategy: str, teacher: matcher.ModelState, sub_batch,
                   config: TrainConfig):
    """Apply a teaching strategy to a sub-batch of pairwise triples; returns
    the student's ``LearningProtocol``."""
    if strategy == "margin":
        return strategies.margin_protocol(teacher, sub_batch, config.lam)
    if strategy == "weighting":
        return strategies.weighting_protocol(teacher, sub_batch)
    if strategy == "curriculum":
        return strategies.curriculum_protocol(teacher, sub_batch, config.delta)
    if strategy == "none":
        return strategies.none_protocol(sub_batch)
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
    write_csv(path, HISTORY_COLUMNS, (
        [r.iteration, repr(r.loss_a), repr(r.loss_b),
         *("" if p1 is None else repr(p1) for p1 in (r.valid_p1_a, r.valid_p1_b))]
        for r in history.records))


def _parse_loss(cell: str) -> float:
    loss = float(cell)
    if not 0.0 <= loss < np.inf:  # also rejects nan
        raise ValueError(f"{cell!r} is not a finite non-negative loss")
    return loss


def _history_record(row: dict) -> HistoryRecord:
    if any(row[c] is None for c in HISTORY_COLUMNS):
        raise ValueError(f"expected {len(HISTORY_COLUMNS)} fields")
    p1_a, p1_b = (parse_metric(row[c]) if row[c] else None
                  for c in ("valid_P@1_A", "valid_P@1_B"))
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
        _, grad = matcher.loss_and_grad(model, strategies.none_protocol(batch))
        model, opt = _apply_update(model, grad, opt, config)
        if iteration % config.eval_every == 0:
            yield model
    if iteration % config.eval_every != 0:
        yield model


def pretrain(spec: matcher.MatcherSpec, corpus: Corpus,
             config: TrainConfig) -> matcher.ModelState:
    """Train a single model on the full (noisy) training set with the
    ``none`` protocol, shuffled each epoch; returns the evaluated checkpoint
    with the best validation P@1 (the initial model counts as a candidate,
    ties keep the earlier checkpoint)."""
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
    return best


def coteach_step(model_a: matcher.ModelState, model_b: matcher.ModelState,
                 opt_a: OptimizerState, opt_b: OptimizerState,
                 batch, config: TrainConfig, rng: np.random.Generator):
    """One co-teaching iteration; returns (A, B, optA, optB, lossA, lossB).
    Both protocols and gradients come from the models' entry snapshots, so
    applying B's update before A's would give the same result."""
    sub_a, sub_b = split_batch(batch, rng)
    protocol_a = build_protocol(config.strategy, model_b, sub_a, config)
    protocol_b = build_protocol(config.strategy, model_a, sub_b, config)
    loss_a, grad_a = matcher.loss_and_grad(model_a, protocol_a)
    loss_b, grad_b = matcher.loss_and_grad(model_b, protocol_b)
    model_a, opt_a = _apply_update(model_a, grad_a, opt_a, config)
    model_b, opt_b = _apply_update(model_b, grad_b, opt_b, config)
    return model_a, model_b, opt_a, opt_b, loss_a, loss_b


def coteach_train(init_a: matcher.ModelState, init_b: matcher.ModelState,
                  corpus: Corpus, config: TrainConfig,
                  checkpoint_dir=None):
    """Run the full co-teaching loop; returns (A, B, RunHistory). Every
    ``eval_every`` iterations both peers' validation P@1 is recorded and,
    if ``checkpoint_dir`` is given, both are checkpointed. Fully
    deterministic in (seed, config, corpus)."""
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
            model_a, model_b, opt_a, opt_b, batch, config, split_rng)
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
                 valid: Triples) -> matcher.ModelState:
    """Return the peer with higher P@1 on the ``valid`` split; ties go to A."""
    p_a = validation_p_at_1(model_a, valid)
    p_b = validation_p_at_1(model_b, valid)
    return model_a if p_a >= p_b else model_b
