"""The benchmark's workloads: what each runs, why, and what it checks.

| workload         | stresses                                    | bypasses / barely touches             |
|------------------|---------------------------------------------|----------------------------------------|
| noise-experiment | matcher pooling (`_Forward`/`_pool`) and    | dense Adam (16k params), corpus I/O,   |
|                  | teacher scoring in strategies; all three    | checkpoints, CLI start-up              |
|                  | strategies, validation, ranking, t-test     |                                        |
| large-vocab      | dense per-step work over 641k/643k params:  | pooling (3 tokens per dialogue),       |
|                  | `adam_update`, `zeros_like`/`isfinite`,     | corpus I/O, checkpoints, CLI start-up  |
|                  | `ModelState` rebuild; the MLP head and      |                                        |
|                  | mixed-architecture peers                    |                                        |
| cli-pipeline     | interpreter/import start-up (6 processes),  | backward and Adam (1 epoch each),      |
|                  | corpus save + 4 parses of a ~4 MB file,     | in-process state reuse                 |
|                  | checkpoint I/O, scoring-only ranking of 20k |                                        |
|                  | candidates, paired t-test, report           |                                        |

A change to pooling or batching should move `noise-experiment` (and the
scoring part of `cli-pipeline`) and leave `large-vocab` flat; a change to
the optimizer or parameter handling should move `large-vocab` and barely
touch `noise-experiment`; start-up, parsing and checkpoint changes should
show on `cli-pipeline` only.

Every workload has a ``setup`` (imports done, inputs built) and a ``rep``
(one repetition of the timed phase), made of named phases: each training
run, each evaluation, each CLI command. A rep is deterministic in the
seed, so its outputs are compared across the reps of one run. ``scale``
"tiny" shrinks every size for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from coteach import corpus, engine, evaluation, matcher

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The experiment of the paper (acceptance check 5): each strategy with its
# learning rate, continued from one pre-trained checkpoint.
STRATEGY_RUNS = (
    ("margin", {"lam": 0.5}, 1e-3),
    ("weighting", {}, 1e-4),
    ("curriculum", {"delta": 0.9}, 1e-4),
)

# The acceptance-5 corpus and matcher. One epoch per training phase (the
# acceptance check runs 5 + 3) so that a run holds several repetitions;
# the per-step work is the same.
NOISE_SIZES = {
    "full": dict(gen=dict(vocab_size=1000, n_topics=10, n_train=5000,
                          n_valid=500, n_test_contexts=150,
                          turns_per_context=3, tokens_per_utterance=10),
                 dim=16, epochs=1),
    "tiny": dict(gen=dict(vocab_size=100, n_topics=5, n_train=200, n_valid=40,
                          n_test_contexts=20, turns_per_context=2,
                          tokens_per_utterance=4),
                 dim=8, epochs=1),
}
# 641,025 (bilinear) and 643,137 (MLP, h=32) parameters; 200 steps per
# repetition.
LARGE_VOCAB_SIZES = {
    "full": dict(gen=dict(vocab_size=20000, n_topics=10, n_train=2000,
                          n_valid=300, n_test_contexts=150,
                          turns_per_context=1, tokens_per_utterance=3),
                 dim=32, hidden=32, epochs=1),
    "tiny": dict(gen=dict(vocab_size=2000, n_topics=10, n_train=100,
                          n_valid=40, n_test_contexts=20,
                          turns_per_context=1, tokens_per_utterance=3),
                 dim=8, hidden=8, epochs=1),
}
# 2000 training triples, 2000 judged test groups x 10 candidates (a ~4 MB
# corpus), one epoch of each phase, checkpoints every 50 steps.
CLI_SIZES = {
    "full": dict(vocab_size=1000, n_topics=10, n_train=2000, n_valid=500,
                 n_test_contexts=2000, n_candidates=10, turns_per_context=3,
                 tokens_per_utterance=10, embedding_dim=16, eval_every=50),
    "tiny": dict(vocab_size=100, n_topics=5, n_train=100, n_valid=30,
                 n_test_contexts=30, n_candidates=6, turns_per_context=2,
                 tokens_per_utterance=4, embedding_dim=8, eval_every=5),
}
# (phase, kind, command, extra arguments)
CLI_COMMANDS = (
    ("generate", "other", "generate", []),
    ("pretrain", "train", "pretrain", []),
    ("coteach", "train", "coteach", ["--strategy", "margin"]),
    ("evaluate.dump", "eval", "evaluate",
     ["--strategy", "margin", "--per-group-dump", "run/groups.csv"]),
    ("evaluate.baseline", "eval", "evaluate",
     ["--strategy", "margin", "--baseline-dump", "run/groups.csv"]),
    ("report", "other", "report", []),
)
CLI_TIMEOUT_S = 120


class Phase(NamedTuple):
    kind: str       # "train", "eval" or "other"
    seconds: float  # wall time, less the time spent sampling speed
    factor: float   # mean SpeedSampler factor during the phase

    @property
    def normalised(self) -> float:
        return self.seconds * self.factor


@dataclass
class RepResult:
    """What one repetition of the timed phase produced."""

    # name -> Phase; the phases cover all of the package's work in the rep.
    phases: dict = field(default_factory=dict)
    # phase name -> normalised time of every coteach_step in it, in ms.
    step_ms: dict = field(default_factory=dict)
    train_triples: int = 0
    p1: dict = field(default_factory=dict)
    # Deterministic outputs; must be equal across the reps of one run.
    outputs: dict = field(default_factory=dict)
    # (operation, ok) for every operation and output check of the rep.
    checks: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.seconds for p in self.phases.values())


@contextmanager
def phase(result: RepResult, probes, name: str, kind: str = "other"):
    """Time one phase of a rep, normalised by the machine speed sampled
    during it (see speed.py), and keep the coteach_step times inside it."""
    mark, n_steps = probes.sampler.mark(), len(probes.timer.step_ms)
    t0 = perf_counter()
    yield
    seconds = perf_counter() - t0
    kernel = probes.train_kernel if kind == "train" else "interpreter"
    factor, sampling = probes.sampler.since(mark, kernel)
    result.phases[name] = Phase(kind, seconds - sampling, factor)
    if len(probes.timer.step_ms) > n_steps:
        result.step_ms[name] = [ms * factor
                                for ms in probes.timer.step_ms[n_steps:]]


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def check_ranking(result: RepResult, label: str, groups, ranked, report) -> None:
    """Ranked groups keep every candidate, sort by descending score with
    ties in candidate order, and P@1 is the mean label of the top entries."""
    ok = len(ranked) == len(groups) == report.n_contexts
    for group, r in zip(groups, ranked):
        keys = [(-s, i) for i, s, _ in r.entries]
        labels = sorted((i, y) for i, _, y in r.entries)
        ok = ok and keys == sorted(keys) and labels == [
            (i, y) for i, (_, y) in enumerate(group.candidates)]
    p1 = sum(r.entries[0][2] for r in ranked) / len(ranked)
    ok = ok and abs(p1 - report.p_at_1) <= 1e-12 and 0.0 <= p1 <= 1.0
    result.checks.append((f"ranking {label}", ok))
    result.p1[label] = report.p_at_1


def history_digest(history) -> str:
    return digest([(r.loss_a, r.loss_b) for r in history.records])


# --- noise-experiment -----------------------------------------------------

@dataclass
class NoiseInputs:
    seed: int
    size: dict
    data: corpus.Corpus
    spec: matcher.MatcherSpec
    groups: list


def noise_setup(seed: int, scale: str, workdir: Path) -> NoiseInputs:
    size = NOISE_SIZES[scale]
    data = corpus.generate_synthetic_corpus(corpus.GenConfig(
        false_negative_rate=0.3, seed=seed, **size["gen"]))
    spec = matcher.MatcherSpec("mean-embedding-bilinear",
                               vocab_size=data.vocab_size,
                               embedding_dim=size["dim"])
    groups, _ = evaluation.filter_degenerate(data.test)
    return NoiseInputs(seed, size, data, spec, groups)


def noise_rep(inp: NoiseInputs, probes) -> RepResult:
    result = RepResult()
    data, epochs = inp.data, inp.size["epochs"]
    n_steps = len(data.train) // 10 * epochs
    with phase(result, probes, "pretrain", "train"):
        base = engine.pretrain(inp.spec, data, engine.TrainConfig(
            strategy="none", learning_rate=1e-3, batch_size=10,
            n_epochs=epochs, seed=inp.seed, eval_every=100000))
    with phase(result, probes, "rank.pretrained"):
        base_groups = evaluation.per_group_metrics(
            evaluation.rank_test_groups(base, inp.groups))
    for name, kwargs, lr in STRATEGY_RUNS:
        config = engine.TrainConfig(strategy=name, learning_rate=lr,
                                    batch_size=10, n_epochs=epochs,
                                    seed=inp.seed, eval_every=100000, **kwargs)
        with phase(result, probes, "coteach." + name, "train"):
            model_a, model_b, history = engine.coteach_train(base, base, data,
                                                             config)
        with phase(result, probes, "evaluate." + name, "eval"):
            model = engine.select_model(model_a, model_b, data.valid)
            ranked = evaluation.rank_test_groups(model, inp.groups)
            report = evaluation.compute_metrics(ranked)
            # Is the strategy's gain over the noisy baseline significant?
            t, p = evaluation.paired_t_test(
                evaluation.per_group_metrics(ranked)["P@1"], base_groups["P@1"])
        check_ranking(result, name, inp.groups, ranked, report)
        result.outputs[name] = (report.p_at_1, report.map, t, p,
                                history_digest(history))
        result.checks.append((f"coteach {name}",
                              len(history.records) == n_steps))
    result.train_triples = 4 * n_steps * 10
    return result


# --- large-vocab ----------------------------------------------------------

@dataclass
class LargeVocabInputs:
    seed: int
    size: dict
    data: corpus.Corpus
    peer_a: matcher.ModelState
    peer_b: matcher.ModelState
    groups: list


def large_vocab_setup(seed: int, scale: str, workdir: Path) -> LargeVocabInputs:
    size = LARGE_VOCAB_SIZES[scale]
    data = corpus.generate_synthetic_corpus(corpus.GenConfig(
        false_negative_rate=0.3, seed=seed, **size["gen"]))
    v, d, h = data.vocab_size, size["dim"], size["hidden"]
    peer_a = matcher.init_params(matcher.MatcherSpec(
        "mean-embedding-bilinear", vocab_size=v, embedding_dim=d), 2 * seed)
    peer_b = matcher.init_params(matcher.MatcherSpec(
        "interaction-mlp", vocab_size=v, embedding_dim=d, hidden_dim=h),
        2 * seed + 1)
    groups, _ = evaluation.filter_degenerate(data.test)
    return LargeVocabInputs(seed, size, data, peer_a, peer_b, groups)


def large_vocab_rep(inp: LargeVocabInputs, probes) -> RepResult:
    result = RepResult()
    data, epochs = inp.data, inp.size["epochs"]
    n_steps = len(data.train) // 10 * epochs
    config = engine.TrainConfig(strategy="weighting", learning_rate=1e-4,
                                batch_size=10, n_epochs=epochs, seed=inp.seed,
                                eval_every=100000)
    with phase(result, probes, "coteach.weighting", "train"):
        model_a, model_b, history = engine.coteach_train(
            inp.peer_a, inp.peer_b, data, config)
    with phase(result, probes, "evaluate.weighting", "eval"):
        selected = engine.select_model(model_a, model_b, data.valid)
        ranked = evaluation.rank_test_groups(selected, inp.groups)
        report = evaluation.compute_metrics(ranked)
        # Do the two architectures rank differently? Paired t-test A vs B.
        other = model_b if selected is model_a else model_a
        t, p = evaluation.paired_t_test(
            evaluation.per_group_metrics(ranked)["P@1"],
            evaluation.per_group_metrics(
                evaluation.rank_test_groups(other, inp.groups))["P@1"])
    check_ranking(result, "weighting", inp.groups, ranked, report)
    result.outputs["weighting"] = (report.p_at_1, report.map, t, p,
                                   history_digest(history))
    result.checks.append(("coteach weighting", len(history.records) == n_steps))
    result.train_triples = n_steps * 10
    return result


# --- cli-pipeline ---------------------------------------------------------

@dataclass
class CliInputs:
    seed: int
    size: dict
    workdir: Path


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_setup(seed: int, scale: str, workdir: Path) -> CliInputs:
    """Write the experiment config; the CLI generates everything else."""
    import coteach.cli  # noqa: F401  (the import every command pays)

    size = CLI_SIZES[scale]
    workdir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in size.items()]
    lines += ["false_negative_rate = 0.3", f"seed = {seed}", "batch_size = 10",
              "pretrain_epochs = 1", "n_epochs = 1", "lambda = 0.5"]
    (workdir / "exp.cfg").write_text("\n".join(lines) + "\n")
    return CliInputs(seed, size, workdir)


def run_command(workdir: Path, probe: Path, trace: bool, name: str, extra):
    """Run one ``coteach`` command in a fresh interpreter; returns
    (exit code, probe data or None)."""
    argv = [sys.executable, str(BENCH_DIR / "cli_entry.py"), str(probe),
            "1" if trace else "0", name, "--config", "exp.cfg", *extra]
    probe.unlink(missing_ok=True)
    proc = subprocess.run(argv, cwd=workdir, env=cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
    data = json.loads(probe.read_text()) if probe.exists() else None
    return proc.returncode, data


def cli_outputs(workdir: Path, size: dict) -> tuple[dict, list]:
    """Read the pipeline's files; returns (deterministic outputs, checks)."""
    run = workdir / "run"
    outputs, checks = {}, []
    for name in ("history.csv", "metrics.csv", "curves.csv"):
        path = run / name
        outputs[name] = digest(path.read_bytes()) if path.exists() else None
        checks.append((f"output {name}", path.exists()))
    n_steps = size["n_train"] // 10
    history_rows = _csv_rows(run / "history.csv")
    curves_rows = _csv_rows(run / "curves.csv")
    metrics_rows = _csv_rows(run / "metrics.csv")
    groups_rows = _csv_rows(run / "groups.csv")
    checks.append(("history rows", len(history_rows) == n_steps))
    checks.append(("curves rows", len(curves_rows) == n_steps))
    checks.append(("per-group dump rows",
                   len(groups_rows) == size["n_test_contexts"]))
    ckpts = sorted(p.name for p in run.glob("[AB]_*.ckpt"))
    n_evals = n_steps // size["eval_every"]
    checks.append(("checkpoints", len(ckpts) == 2 * n_evals + 2))
    p1 = None
    if len(metrics_rows) == 1:
        row = metrics_rows[0]
        # The second evaluate tests the model against its own dump: every
        # paired difference is 0, so no metric may be starred.
        no_stars = not any(v.endswith("*") for v in row.values())
        p1 = float(row["P@1"].rstrip("*"))
        checks.append(("metrics.csv", no_stars and 0.0 <= p1 <= 1.0 and
                       int(row["n_contexts"]) == size["n_test_contexts"]))
        if groups_rows:
            mean_p1 = sum(float(r["P@1"]) for r in groups_rows) / len(groups_rows)
            checks.append(("P@1 matches per-group dump",
                           abs(mean_p1 - p1) <= 5e-7))
    else:
        checks.append(("metrics.csv", False))
    outputs["P@1"] = p1
    return outputs, checks


def _csv_rows(path: Path) -> list:
    if not path.exists():
        return []
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def cli_rep(inp: CliInputs, probes) -> RepResult:
    """generate -> pretrain -> coteach -> evaluate (dump) -> evaluate
    (baseline) -> report, one process at a time, from a clean run dir."""
    result = RepResult()
    for name in ("corpus", "run"):
        shutil.rmtree(inp.workdir / name, ignore_errors=True)
    probe = inp.workdir / "probe.json"
    tracer = probes.tracer
    for name, kind, command, extra in CLI_COMMANDS:
        t0 = perf_counter()
        if tracer is not None:
            with tracer.span("cli." + name) as sid:
                code, data = run_command(inp.workdir, probe, True,
                                         command, extra)
            if data is not None:
                tracer.merge(data["spans"], data["counts"], sid)
        else:
            code, data = run_command(inp.workdir, probe, False, command, extra)
        seconds = perf_counter() - t0
        result.checks.append((f"coteach {name}", code == 0 and data is not None))
        if data is None:
            continue
        # The command sampled the machine speed itself (see cli_entry.py).
        result.phases[name] = Phase(kind, seconds - data["sampling_s"],
                                    data["factor"])
        if data["step_ms"]:
            result.step_ms[name] = data["step_ms"]
        probes.audit.merge(data["audit"])
    result.train_triples = 2 * (inp.size["n_train"] // 10 * 10)
    outputs, checks = cli_outputs(inp.workdir, inp.size)
    result.outputs = outputs
    result.checks.extend(checks)
    result.p1["margin"] = outputs["P@1"]
    return result


@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is in the table at the top."""

    name: str
    setup: object
    rep: object
    in_process: bool
    # The speed.KERNELS loop shaped like its training work; other phases
    # use the interpreter loop.
    train_kernel: str = "interpreter"


WORKLOADS = {w.name: w for w in (
    Workload("noise-experiment", noise_setup, noise_rep, True),
    Workload("large-vocab", large_vocab_setup, large_vocab_rep, True, "vector"),
    Workload("cli-pipeline", cli_setup, cli_rep, False),
)}
