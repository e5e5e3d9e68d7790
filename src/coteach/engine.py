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
    """Adam's moments and step counter. With ``rows`` set (sorted, unique ids of
    rows of an embedding table of shape ``table``), ``m`` and ``v`` hold those
    rows' moments, then the head's; every other moment is +0.0. A state whose
    ``table`` is None stores nothing."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    rows: np.ndarray | None = None
    table: tuple[int, int] | None = None

    def dense(self, n: int) -> OptimizerState:
        """This state with dense moment vectors of ``n`` entries."""
        if self.rows is None:
            return self
        if self.table is None:  # it stores nothing
            return OptimizerState(np.zeros(n), np.zeros(n), self.t)
        return OptimizerState(*(_spread(x, self.rows, self.table[1], n) for x in (self.m, self.v)),
                              self.t)


def _spread(x: np.ndarray, at: np.ndarray, d: int, n: int) -> np.ndarray:
    """``x``'s rows of ``d`` entries at rows ``at`` of ``n`` entries, +0.0 in the other
    rows, then the rest of ``x`` (a head)."""
    kd = at.size * d
    return np.asarray(matcher.RowGrad(at, x[:kd].reshape(-1, d), x[kd:], (n,)))


def init_optimizer(n: int) -> OptimizerState:
    """The state of ``n`` params before their first step: it stores nothing."""
    return OptimizerState(np.zeros(0), np.zeros(0), 0, np.zeros(0, np.intp))


# Entries per block of ``adam_update``: 16,384 float64 entries are 128 KB,
# so the nine arrays one block touches fit in a 2 MB per-core L2 cache.
ADAM_BLOCK = 16384
# Adam's constants: the learning rate is its only setting.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# The largest share of the table's rows a compact state stores (see ``adam_update``).
# Past it a row step on the compact state costs more than on dense vectors: every step
# of a run timed both ways breaks even at about 0.33 (20,000 rows of 32, 60 tokens a
# step) and 0.28 (40,000 rows of 16, 400 tokens); one pinned CPU.
_STORED_SHARE = 0.3


def adam_update(params: np.ndarray, grad: np.ndarray | matcher.RowGrad,
                state: OptimizerState, lr: float):
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

    A ``matcher.RowGrad`` on a compact state (``rows`` set) steps the head and
    the rows the state stores or the gradient touches, and returns a state
    storing those rows. Any other row has +0.0 gradient and moments, so for
    ``t >= 1`` and a finite ``lr >= +0.0`` its step would give back its
    params, -0.0 included, and +0.0 moments: it is skipped. Otherwise, or once
    the state would store more than ``_STORED_SHARE`` of the rows, or on a
    dense state, the step is dense: the table takes the step of a +0.0
    gradient, ``BETA1*m + 0.0`` and ``BETA2*v + 0.0``, then its rows and head.

    Finiteness is checked per block, on the new params while in cache. A
    non-finite gradient entry always makes its parameter non-finite, so only
    a failing step sends the whole gradient through the check: the
    ``FloatingPointError`` names the first non-finite gradient entry if
    there is one, else the first non-finite parameter. The invalid and
    divide-by-zero results on the way raise no numpy warning.
    """
    if params.shape != grad.shape:
        raise ValueError("params/grad length mismatch")
    t, n, (r, d) = state.t + 1, params.size, state.table or (0, 0)
    size = n if state.rows is None else state.rows.size * d + (n - r * d if state.table else 0)
    if state.m.shape != (size,) or state.v.shape != (size,):
        raise ValueError(f"optimizer state shapes {state.m.shape}/{state.v.shape} do not "
                         f"match the {size} entries it stores of params {params.shape}")
    rowwise = isinstance(grad, matcher.RowGrad)
    step = None
    if rowwise and state.rows is not None and t > 0 and not np.signbit(lr) and lr < np.inf:
        step = _row_step(params, grad, state, t, lr)
    if step is None:
        state = state.dense(n)
        m, v, new_params = np.empty(n), np.empty(n), np.empty(n)
        if rowwise:
            d, table = grad.rows.shape[1], n - grad.head.size
            at = np.concatenate([(grad.ids[:, None] * d + np.arange(d)).ravel(), np.arange(table, n)])
            g, out = np.concatenate([grad.rows.ravel(), grad.head]), np.empty((3, at.size))
            finite = _adam_blocks(params[:table], None, state.m[:table], state.v[:table],
                                  m[:table], v[:table], new_params[:table], t, lr)
            finite &= _adam_blocks(params[at], g, state.m[at], state.v[at], *out, t, lr)
            m[at], v[at], new_params[at] = out
        else:
            finite = _adam_blocks(params, grad, state.m, state.v, m, v, new_params, t, lr)
        step = new_params, OptimizerState(m, v, t), finite
    new_params, state, finite = step
    if not finite:  # a non-finite gradient entry is named before a parameter
        for what, values in (("gradient entry", np.asarray(grad)), ("parameter", new_params)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise FloatingPointError(f"non-finite {what} at index {int(bad[0])}")
    return new_params, state


def _row_step(params, grad: matcher.RowGrad, state: OptimizerState, t: int, lr: float):
    """``adam_update`` of a ``RowGrad`` on a compact state: (new params, new state, all
    new params finite), or None when it would store more than ``_STORED_SHARE``."""
    d, h = grad.rows.shape[1], grad.head.size
    cut = params.size - h
    table = cut // d, d
    if state.table is None:  # it stores nothing
        state = OptimizerState(np.zeros(h), np.zeros(h), state.t, np.zeros(0, np.intp), table)
    if state.table != table:
        raise ValueError(f"optimizer state of a {state.table} table does not fit {table}")
    stored = np.zeros(table[0], bool)
    stored[state.rows] = stored[grad.ids] = True
    rows = np.flatnonzero(stored)
    if rows.size > _STORED_SHARE * table[0]:
        return None
    kd, at = rows.size * d, np.searchsorted(rows, state.rows)
    m0, v0 = (_spread(x, at, d, kd + h) for x in (state.m, state.v))
    g = np.asarray(matcher.RowGrad(np.searchsorted(rows, grad.ids), grad.rows, grad.head, (kd + h,)))
    m, v, p = np.empty(kd + h), np.empty(kd + h), np.empty(kd + h)
    gathered = np.concatenate((np.take(params[:cut].reshape(-1, d), rows, axis=0).ravel(), params[cut:]))
    finite = _adam_blocks(gathered, g, m0, v0, m, v, p, t, lr)
    new_params = np.concatenate((params[:cut], p[kd:]))
    new_params[:cut].reshape(-1, d)[rows] = p[:kd].reshape(-1, d)
    finite &= bool(np.isfinite(params).all())  # an unstored row keeps its params
    return new_params, OptimizerState(m, v, t, rows, table), finite


def _adam_blocks(params, grad, m0, v0, m, v, new_params, t: int, lr: float) -> bool:
    """``adam_update``'s step ``t`` from ``params``, ``m0`` and ``v0`` into ``m``, ``v``
    and ``new_params``; ``grad`` None is +0.0. Whether every new param is finite."""
    c1, c2, n = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t, params.size
    a, b = np.empty(min(ADAM_BLOCK, n)), np.empty(min(ADAM_BLOCK, n))
    finite, ok = np.empty(min(ADAM_BLOCK, n), dtype=bool), True
    with np.errstate(invalid="ignore", divide="ignore"):
        for lo in range(0, n, ADAM_BLOCK):
            s = slice(lo, lo + ADAM_BLOCK)
            mb, vb, pb = m[s], v[s], new_params[s]
            ta, tb, fb = a[:pb.size], b[:pb.size], finite[:pb.size]
            np.multiply(BETA1, m0[s], out=mb)
            np.multiply(BETA2, v0[s], out=vb)
            if grad is None:
                np.add(mb, 0.0, out=mb)
                np.add(vb, 0.0, out=vb)
            else:
                g = grad[s]
                np.multiply(1.0 - BETA1, g, out=ta)
                np.add(mb, ta, out=mb)
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
            ok &= bool(np.logical_and.reduce(np.isfinite(pb, out=fb)))
    return ok


def _apply_update(model: matcher.ModelState, grad: np.ndarray | matcher.RowGrad,
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
