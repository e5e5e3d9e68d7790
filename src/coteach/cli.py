"""Command-line front end for the co-teaching pipeline.

Subcommands: generate | pretrain | coteach | evaluate | sweep | report.
Configuration is a plain-text file of ``key = value`` lines with ``#``
comments. All outputs are CSV or checkpoint files; given the same config
and seed every command writes byte-identical data files.

Exit codes, all set by ``main``: 0 success, 1 a rejected value (usage error),
2 an artifact that is missing, malformed, unreadable or unwritable (data error).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import engine, evaluation, matcher
from .corpus import (CorpusFormatError, GenConfig, generate_synthetic_corpus,
                     load_corpus, parse_metric, read_text, save_corpus, write_csv)
from .evaluation import METRIC_KEYS


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


# Per-strategy learning-rate defaults (margin trains with a 10x larger
# rate than the two cross-entropy strategies).
STRATEGY_LEARNING_RATES = {"margin": 1e-3, "weighting": 1e-4, "curriculum": 1e-4,
                           "none": 1e-4}
PRETRAIN_LEARNING_RATE = 1e-3

METRICS_COLUMNS = ["run", "strategy", "MAP", "MRR", "P@1",
                   "R10@1", "R10@2", "R10@5", "n_contexts"]

# The keys a config may set, GenConfig's fields and those the commands read.
CONFIG_KEYS = {f.name for f in fields(GenConfig)} | {
    "corpus_dir", "run_dir", "matcher_kind", "embedding_dim", "hidden_dim",
    "strategy", "lambda", "delta", "pretrain_lr", "learning_rate", "batch_size",
    "pretrain_epochs", "n_epochs", "eval_every", "checkpoint_a", "checkpoint_b",
    "sweep_param", "sweep_values", "ema_alpha"}


def parse_config(path) -> dict[str, str]:
    try:
        text = read_text(path)
    except OSError as exc:  # missing, a directory, unreadable
        raise UsageError(f"cannot read config file {path}: {exc.strerror}") from exc
    except CorpusFormatError as exc:
        raise UsageError(str(exc)) from exc
    config: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _get(config, key, cast, default=None):
    if key not in config:
        if default is None:
            raise UsageError(f"missing config key {key!r}")
        return default
    try:
        return cast(config[key])
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _gen_config(config, seed_override=None) -> GenConfig:
    """GenConfig from the config keys named as its fields, or their defaults."""
    values = {f.name: _get(config, f.name, type(f.default), f.default)
              for f in fields(GenConfig) if f.name != "seed"}
    values["seed"] = (seed_override if seed_override is not None
                      else _get(config, "seed", int, 0))
    return GenConfig(**values)


def _matcher_spec(config, vocab_size) -> matcher.MatcherSpec:
    return matcher.MatcherSpec(
        kind=_get(config, "matcher_kind", str, matcher.MEAN_EMBEDDING_BILINEAR),
        vocab_size=vocab_size,
        embedding_dim=_get(config, "embedding_dim", int, 32),
        hidden_dim=_get(config, "hidden_dim", int, 32),
    )


def _corpus_dir(config) -> Path:
    return Path(_get(config, "corpus_dir", str, "corpus"))


def _run_dir(config, args) -> Path:
    """The run directory; commands that write into it create it first."""
    if args.run_dir is not None:
        return Path(args.run_dir)
    return Path(_get(config, "run_dir", str, "run"))


def _usable_dir(path: Path) -> Path:
    """``path``, checked before any training: raise the OSError a later
    ``mkdir`` would, if it or its nearest existing ancestor is not a
    directory. An absent directory is still created only when written."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == path else errno.ENOTDIR
        raise OSError(code, os.strerror(code), str(path))
    return path


def _load_corpus(path, splits):
    """Load the corpus, parsing only the named splits; every command that
    loads it needs validation triples."""
    if not Path(path).exists():
        raise DataError(f"corpus directory not found: {path} (run 'coteach generate')")
    corpus = load_corpus(path, splits)  # main reports a CorpusFormatError as a data error
    if not corpus.valid:
        raise DataError(f"{Path(path) / 'valid.txt'}: empty validation set")
    return corpus


def _train_config(config, args, strategy: str,
                  pretraining: bool = False) -> engine.TrainConfig:
    seed = args.seed if args.seed is not None else _get(config, "seed", int, 0)
    if pretraining:
        lr_key, lr_default, epochs_key = (
            "pretrain_lr", PRETRAIN_LEARNING_RATE, "pretrain_epochs")
    else:
        lr_key, lr_default, epochs_key = (
            "learning_rate", STRATEGY_LEARNING_RATES[strategy], "n_epochs")
    return engine.TrainConfig(
        strategy=strategy,
        lam=(_get(config, "lambda", _finite_float, -1.0)
             if strategy == "margin" else None),
        delta=(_get(config, "delta", _finite_float, -1.0)
               if strategy == "curriculum" else None),
        learning_rate=_get(config, lr_key, _finite_float, lr_default),
        batch_size=_get(config, "batch_size", int, 50),
        n_epochs=_get(config, epochs_key, int, 3),
        seed=seed,
        eval_every=_get(config, "eval_every", int, 50),
    )


@contextmanager
def _training(lr_key: str):
    """Report a non-finite gradient or parameter as a usage error naming
    ``lr_key``; numpy's overflow warnings on the way are silenced."""
    try:
        with np.errstate(all="ignore"):
            yield
    except FloatingPointError as exc:
        raise UsageError(f"training diverged ({exc}); try a lower {lr_key!r}") from exc


def cmd_generate(config, args) -> int:
    gen = _gen_config(config, args.seed)
    corpus = generate_synthetic_corpus(gen)
    out = _corpus_dir(config)
    save_corpus(corpus, out)
    noisy = sum(corpus.train.flags)
    print(f"wrote corpus to {out}")
    print(f"train={len(corpus.train)} valid={len(corpus.valid)} "
          f"test_contexts={len(corpus.test)} vocab={corpus.vocab_size}")
    print(f"configured_noise_rate={gen.false_negative_rate} "
          f"realized_noise_fraction={noisy / len(corpus.train):.4f}")
    return 0


def cmd_pretrain(config, args) -> int:
    corpus = _load_corpus(_corpus_dir(config), ("train", "valid"))
    spec = _matcher_spec(config, corpus.vocab_size)
    train_config = _train_config(config, args, "none", pretraining=True)
    run_dir = _usable_dir(_run_dir(config, args))
    with _training("pretrain_lr"):
        model = engine.pretrain(spec, corpus, train_config)
        p1 = engine.validation_p_at_1(model, corpus.valid)
    run_dir.mkdir(parents=True, exist_ok=True)
    matcher.save_checkpoint(model, run_dir / "pretrained.ckpt")
    print(f"wrote {run_dir / 'pretrained.ckpt'} (validation P@1 = {p1:.4f})")
    return 0


def _load_checkpoint(path, corpus, hint=""):
    """Load a checkpoint whose vocabulary must match the corpus; ``hint``
    follows the message when the file is missing."""
    if not Path(path).exists():
        raise DataError(f"checkpoint not found: {path}{hint}")
    try:
        model = matcher.load_checkpoint(path)
    except ValueError as exc:
        raise DataError(f"checkpoint {path}: {exc}") from exc
    if model.spec.vocab_size != corpus.vocab_size:
        raise DataError(
            f"checkpoint {path} vocab {model.spec.vocab_size} does not match "
            f"corpus vocab {corpus.vocab_size}")
    return model


def _init_peers(config, run_dir, corpus):
    """Clone the pre-trained checkpoint, or load two distinct checkpoints
    when the two-network mode keys are present."""
    ckpt_a = config.get("checkpoint_a")
    ckpt_b = config.get("checkpoint_b")
    if (ckpt_a is None) != (ckpt_b is None):
        raise UsageError("two-network mode needs both checkpoint_a and checkpoint_b")
    hint = ""
    if ckpt_a is None:
        ckpt_a = ckpt_b = run_dir / "pretrained.ckpt"
        hint = " (run 'coteach pretrain')"
    return (_load_checkpoint(ckpt_a, corpus, hint),
            _load_checkpoint(ckpt_b, corpus, hint))


def _strategy(config, args) -> str:
    strategy = args.strategy or config.get("strategy")
    if strategy is None:
        raise UsageError("no strategy given (--strategy or config key 'strategy')")
    if strategy not in engine.STRATEGIES:
        raise UsageError(f"unknown strategy {strategy!r}")
    return strategy


def _coteach(config, run_dir, corpus, train_config, checkpoint_dir=None):
    """Co-teach the initial peers."""
    model_a, model_b = _init_peers(config, run_dir, corpus)
    with _training("learning_rate"):
        return engine.coteach_train(model_a, model_b, corpus, train_config,
                                    checkpoint_dir=checkpoint_dir)


def cmd_coteach(config, args) -> int:
    corpus = _load_corpus(_corpus_dir(config), ("train", "valid"))
    strategy = _strategy(config, args)
    train_config = _train_config(config, args, strategy)
    run_dir = _run_dir(config, args)
    model_a, model_b, history = _coteach(config, run_dir, corpus, train_config,
                                         checkpoint_dir=run_dir)
    matcher.save_checkpoint(model_a, run_dir / "A_final.ckpt")
    matcher.save_checkpoint(model_b, run_dir / "B_final.ckpt")
    engine.write_history(history, run_dir / "history.csv")
    print(f"co-teaching done: {len(history.records)} iterations, "
          f"strategy={strategy}, outputs in {run_dir}")
    return 0


def _metrics_row(run_name, strategy, report, stars=None):
    stars = stars or {}
    cells = [run_name, strategy]
    for key, value in zip(METRIC_KEYS, astuple(report)):
        cells.append(f"{value:.6f}" + ("*" if stars.get(key) else ""))
    cells.append(str(report.n_contexts))
    return cells


def _write_per_group_dump(per_group, path):
    n = len(per_group[METRIC_KEYS[0]])
    write_csv(path, ["group_id", *METRIC_KEYS],
              ([i] + [repr(float(per_group[k][i])) for k in METRIC_KEYS]
               for i in range(n)))


def _read_per_group_dump(path):
    path = Path(path)
    if not path.exists():
        raise DataError(f"baseline per-group dump not found: {path}")
    try:
        reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    except CorpusFormatError as exc:
        raise DataError(str(exc)) from exc
    columns = {k: [] for k in METRIC_KEYS}
    try:
        for row in reader:
            for k in METRIC_KEYS:
                if k not in row or row[k] is None:
                    raise DataError(f"{path}: missing column {k!r}")
                try:
                    columns[k].append(parse_metric(row[k]))
                except ValueError as exc:
                    raise DataError(
                        f"{path}:{reader.line_num}: column {k!r}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    return columns


def _rank_test_set(model_a, model_b, corpus):
    """Rank the non-degenerate test groups with the peer that wins on
    validation; returns (ranked groups, number of groups removed)."""
    model = engine.select_model(model_a, model_b, corpus.valid)
    groups, n_removed = evaluation.filter_degenerate(corpus.test)
    if not groups:
        raise DataError("all test groups are degenerate")
    return evaluation.rank_test_groups(model, groups), n_removed


def cmd_evaluate(config, args) -> int:
    corpus = _load_corpus(_corpus_dir(config), ("valid", "test"))
    run_dir = _run_dir(config, args)
    hint = " (run 'coteach coteach')"
    ranked, n_removed = _rank_test_set(
        _load_checkpoint(run_dir / "A_final.ckpt", corpus, hint),
        _load_checkpoint(run_dir / "B_final.ckpt", corpus, hint), corpus)
    per_group = evaluation.per_group_metrics(ranked)
    report = evaluation.mean_metrics(per_group)

    stars = {}
    if args.baseline_dump:
        baseline = _read_per_group_dump(args.baseline_dump)
        if any(len(baseline[key]) != len(ranked) for key in METRIC_KEYS):
            raise DataError("baseline dump group count does not match test set")
        if len(ranked) < 2:
            raise DataError(f"a paired t-test needs at least 2 test groups, "
                            f"{len(ranked)} left after removing degenerate ones")
        for key in METRIC_KEYS:
            _, p_value = evaluation.paired_t_test(per_group[key], baseline[key])
            stars[key] = p_value < 0.05
            print(f"t-test {key}: p={p_value:.6g}" + (" *" if stars[key] else ""))

    if args.per_group_dump:
        _write_per_group_dump(per_group, args.per_group_dump)

    strategy = args.strategy or config.get("strategy", "none")
    row = _metrics_row(run_dir.name, strategy, report, stars)
    print(",".join(METRICS_COLUMNS))
    print(",".join(row))
    write_csv(run_dir / "metrics.csv", METRICS_COLUMNS, [row])
    if n_removed:
        print(f"removed {n_removed} degenerate test contexts")
    return 0


def cmd_sweep(config, args) -> int:
    corpus = _load_corpus(_corpus_dir(config), ("train", "valid", "test"))
    run_dir = _run_dir(config, args)
    param = _get(config, "sweep_param", str, "")
    if param not in ("lambda", "delta"):
        raise UsageError("config key 'sweep_param' must be 'lambda' or 'delta'")
    raw_values = _get(config, "sweep_values", str, "")
    if not raw_values:
        raise UsageError("missing config key 'sweep_values'")
    try:
        values = [_finite_float(v) for v in raw_values.split(",")]
    except ValueError as exc:
        raise UsageError(f"sweep_values: {exc}") from exc

    reader = "margin" if param == "lambda" else "curriculum"
    strategy = args.strategy or config.get("strategy", reader)
    if strategy != reader:
        raise UsageError(f"strategy {strategy!r} does not read sweep_param "
                         f"{param!r}; only {reader!r} does")
    _usable_dir(run_dir)
    rows = []
    for value in values:
        point_config = dict(config)
        point_config[param] = str(value)
        point_config["strategy"] = strategy
        train_config = _train_config(point_config, args, strategy)
        model_a, model_b, _ = _coteach(config, run_dir, corpus, train_config)
        ranked, _ = _rank_test_set(model_a, model_b, corpus)
        report = evaluation.compute_metrics(ranked)
        rows.append([param, repr(value)] + _metrics_row(run_dir.name, strategy, report))
        print(f"{param}={value}: P@1={report.p_at_1:.4f}")
    run_dir.mkdir(parents=True, exist_ok=True)
    write_csv(run_dir / "sweep.csv", ["param", "value"] + METRICS_COLUMNS, rows)
    print(f"wrote {run_dir / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_report(config, args) -> int:
    run_dir = _run_dir(config, args)
    history_path = run_dir / "history.csv"
    if not history_path.exists():
        raise DataError(f"history not found: {history_path} (run 'coteach coteach')")
    try:
        history = engine.read_history(history_path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    alpha = _get(config, "ema_alpha", float, 0.3)
    loss_a = evaluation.ema([r.loss_a for r in history.records], alpha)
    loss_b = evaluation.ema([r.loss_b for r in history.records], alpha)
    eval_records = [r for r in history.records if r.valid_p1_a is not None]
    p1_a = evaluation.ema([r.valid_p1_a for r in eval_records], alpha)
    p1_b = evaluation.ema([r.valid_p1_b for r in eval_records], alpha)
    p1_by_iter = {r.iteration: (repr(a), repr(b))
                  for r, a, b in zip(eval_records, p1_a, p1_b)}
    out = run_dir / "curves.csv"
    rows = [[r.iteration, repr(la), repr(lb), *p1_by_iter.get(r.iteration, ("", ""))]
            for r, la, lb in zip(history.records, loss_a, loss_b)]
    write_csv(out, ["iter", "loss_A_ema", "loss_B_ema",
                    "valid_P@1_A_ema", "valid_P@1_B_ema"], rows)
    print(f"wrote {out} ({len(history.records)} rows, ema_alpha={alpha})")
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "pretrain": cmd_pretrain,
    "coteach": cmd_coteach,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it, on one line
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coteach",
        description="Co-teaching pipeline for noisy response-selection training")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to key = value config file")
    parser.add_argument("--run-dir", default=None, help="override run directory")
    parser.add_argument("--strategy", default=None,
                        choices=list(engine.STRATEGIES), help="teaching strategy")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--baseline-dump", default=None,
                        help="per-group metrics CSV of a baseline run for t-tests")
    parser.add_argument("--per-group-dump", default=None,
                        help="write per-group metrics CSV to this path")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = parse_config(args.config)
        unknown = [key for key in config if key not in CONFIG_KEYS]
        if unknown:
            raise UsageError(f"unknown config key {unknown[0]!r}")
        return COMMANDS[args.command](config, args)
    except SystemExit as exc:  # --help; a bad command line raises UsageError
        return exc.code
    except (DataError, CorpusFormatError) as exc:  # the latter is a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an artifact path that cannot be read or written
        where = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"data error: {where}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message says what it could not allocate
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
