"""End-to-end tests of the command-line pipeline."""

import ast
import json
import shutil
from collections import defaultdict
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coteach import cli, engine, load_corpus, matcher
from coteach.evaluation import MetricsReport
from coteach.matcher import load_checkpoint
from coteach.cli import main, parse_config
from coteach.corpus import GenConfig

TINY_CONFIG = """\
# desk-scale experiment
vocab_size = 60
n_topics = 3
n_train = 120
n_valid = 40
n_test_contexts = 12
n_candidates = 6
turns_per_context = 2
tokens_per_utterance = 5
false_negative_rate = 0.3
seed = 7

embedding_dim = 8
batch_size = 10
pretrain_epochs = 1
n_epochs = 1
eval_every = 6
lambda = 0.5
delta = 0.9
"""


HISTORY_HEADER = b"iter,loss_A,loss_B,valid_P@1_A,valid_P@1_B\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(TINY_CONFIG)
    return tmp_path


def _run(*argv):
    return main(list(argv))


def _pipeline(workdir, run_dir, strategy, seed=None, extra=()):
    args = ["--config", "exp.cfg", "--run-dir", run_dir]
    if seed is not None:
        args += ["--seed", str(seed)]
    assert _run("pretrain", *args) == 0
    assert _run("coteach", *args, "--strategy", strategy) == 0
    assert _run("evaluate", *args, "--strategy", strategy, *extra) == 0


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


class TestParseConfig:
    def test_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1  # trailing comment\n\n# full-line comment\nb=x y\n")
        assert parse_config(path) == {"a": "1", "b": "x y"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(Exception):
            parse_config(tmp_path / "absent.cfg")

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception, match="c.cfg:1"):
            parse_config(path)


class TestConfigKeys:
    def test_known_keys_are_the_keys_cli_reads(self):
        # Every key that _get or config.get reads in cli.py, where a key held
        # in a variable counts as each string assigned to it; _gen_config
        # reads GenConfig's fields by f.name.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        assigned = defaultdict(set)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
                for target in node.targets:
                    for name, value in zip(getattr(target, "elts", ()), node.value.elts):
                        if isinstance(name, ast.Name) and isinstance(value, ast.Constant):
                            assigned[name.id].add(value.value)
        read = {f.name for f in fields(GenConfig)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if ast.unparse(node.func) == "_get":
                key = node.args[1]
            elif ast.unparse(node.func) == "config.get":
                key = node.args[0]
            else:
                continue
            if isinstance(key, ast.Constant):
                read.add(key.value)
            elif isinstance(key, ast.Name) and assigned[key.id]:
                read |= assigned[key.id]
            else:
                assert ast.unparse(key) == "f.name", ast.unparse(node)
        assert read == cli.CONFIG_KEYS


class TestExitCodes:
    def test_missing_config_is_usage_error(self, workdir):
        assert _run("generate", "--config", "absent.cfg") == 1

    def test_config_that_is_a_directory_is_usage_error(self, workdir, capsys):
        (workdir / "adir").mkdir()
        assert _run("generate", "--config", "adir") == 1
        assert _one_line_error(capsys, "error: ") == (
            "error: cannot read config file adir: Is a directory\n")
        assert not (workdir / "corpus").exists()

    def test_unknown_command_is_usage_error(self, workdir):
        assert _run("transmogrify", "--config", "exp.cfg") == 1

    def test_config_with_invalid_utf8_is_usage_error(self, workdir, capsys):
        (workdir / "bad.cfg").write_bytes(b"seed = 1\xff\n")
        assert _run("generate", "--config", "bad.cfg") == 1
        assert _one_line_error(capsys, "error: ") == (
            "error: bad.cfg:1: invalid UTF-8 at byte 8\n")
        assert not (workdir / "corpus").exists()

    def test_missing_corpus_is_data_error(self, workdir):
        assert _run("pretrain", "--config", "exp.cfg") == 2

    def test_missing_pretrained_checkpoint_is_data_error(self, workdir):
        assert _run("generate", "--config", "exp.cfg") == 0
        assert _run("coteach", "--config", "exp.cfg", "--strategy", "margin") == 2

    def test_corrupt_corpus_is_data_error(self, workdir):
        assert _run("generate", "--config", "exp.cfg") == 0
        (workdir / "corpus" / "train.txt").write_text("garbage\n")
        assert _run("pretrain", "--config", "exp.cfg") == 2

    def test_deeply_nested_meta_json_is_data_error(self, workdir, capsys):
        # json gives up on this nesting with a RecursionError, not a JSONDecodeError.
        assert _run("generate", "--config", "exp.cfg") == 0
        (workdir / "corpus" / "meta.json").write_text("[" * 200000)
        capsys.readouterr()
        assert _run("pretrain", "--config", "exp.cfg") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: corpus/meta.json:1: malformed JSON: nested too deeply\n")
        assert not (workdir / "run").exists()

    def test_missing_strategy_is_usage_error(self, workdir):
        assert _run("generate", "--config", "exp.cfg") == 0
        assert _run("pretrain", "--config", "exp.cfg") == 0
        assert _run("coteach", "--config", "exp.cfg") == 1

    def test_training_set_smaller_than_batch_is_usage_error(self, workdir, capsys):
        small = TINY_CONFIG.replace("n_train = 120", "n_train = 4")
        (workdir / "small.cfg").write_text(small)
        assert _run("generate", "--config", "small.cfg") == 0
        capsys.readouterr()
        assert _run("pretrain", "--config", "small.cfg") == 1
        _one_line_error(capsys, "error: training set of 4 triples")
        (workdir / "small.cfg").write_text(small + "pretrain_epochs = 0\n")
        assert _run("pretrain", "--config", "small.cfg") == 0
        capsys.readouterr()
        assert _run("coteach", "--config", "small.cfg", "--strategy", "margin") == 1
        _one_line_error(capsys, "error: training set of 4 triples")
        assert not (workdir / "run" / "history.csv").exists()

    def test_diverging_training_is_usage_error(self, workdir, capsys):
        (workdir / "div.cfg").write_text(
            TINY_CONFIG + "pretrain_lr = 1e300\nlearning_rate = 1e300\n")
        assert _run("generate", "--config", "div.cfg") == 0
        capsys.readouterr()
        assert _run("pretrain", "--config", "div.cfg") == 1
        err = _one_line_error(capsys, "error: training diverged (non-finite "
                                      "gradient entry at index ")
        assert "'pretrain_lr'" in err
        assert not (workdir / "run" / "pretrained.ckpt").exists()
        assert _run("pretrain", "--config", "exp.cfg") == 0
        capsys.readouterr()
        assert _run("coteach", "--config", "div.cfg", "--strategy", "margin") == 1
        # A teacher past the float range scores NaN before its student's
        # gradient is formed; a NaN margin never reaches a protocol.
        err = _one_line_error(capsys, "error: training diverged (non-finite "
                                      "teacher score); ")
        assert "'learning_rate'" in err
        assert not (workdir / "run" / "history.csv").exists()

    def test_parameter_overflow_with_finite_gradient_is_divergence(
            self, workdir, capsys):
        # Hidden unit 0 is saturated (tanh = -1), so w2[0] gets a gradient
        # of about the number of positives and a step near the float maximum
        # overflows it; every gradient entry stays finite.
        spec = matcher.MatcherSpec("interaction-mlp", vocab_size=60,
                                   embedding_dim=8, hidden_dim=4)
        layout = matcher.param_layout(spec)
        params = matcher.init_params(spec, 0).params.copy()
        params[layout["b1"].start], params[layout["w2"].start] = -1e300, 0.0
        params[layout["b2"]] = -9.0
        matcher.save_checkpoint(matcher.ModelState(spec, params), workdir / "sat.ckpt")
        (workdir / "sat.cfg").write_text(
            TINY_CONFIG + "checkpoint_a = sat.ckpt\ncheckpoint_b = sat.ckpt\n"
            "learning_rate = 1.7e308\n")
        assert _run("generate", "--config", "sat.cfg") == 0
        capsys.readouterr()
        assert _run("coteach", "--config", "sat.cfg", "--strategy", "none") == 1
        assert _one_line_error(capsys, "error: ") == (
            f"error: training diverged (non-finite parameter at index "
            f"{layout['w2'].start}); try a lower 'learning_rate'\n")
        assert not (workdir / "run" / "history.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["pretrain_lr", "learning_rate", "lambda"])
    def test_nonfinite_learning_rate_or_lambda_is_usage_error(
            self, workdir, capsys, key, value):
        assert _run("generate", "--config", "exp.cfg") == 0
        command = "pretrain" if key == "pretrain_lr" else "coteach"
        if command == "coteach":
            assert _run("pretrain", "--config", "exp.cfg") == 0
        (workdir / "bad.cfg").write_text(TINY_CONFIG + f"{key} = {value}\n")
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert _run(command, "--config", "bad.cfg", "--strategy", "margin") == 1
        assert _one_line_error(capsys, "error: ") == (
            f"error: config key {key!r}: {value!r} is not a finite number\n")
        assert sorted(workdir.rglob("*")) == before

    def test_empty_validation_set_is_data_error(self, workdir, capsys):
        assert _run("generate", "--config", "exp.cfg") == 0
        assert _run("pretrain", "--config", "exp.cfg") == 0
        assert _run("coteach", "--config", "exp.cfg", "--strategy", "margin") == 0
        valid = workdir / "corpus" / "valid.txt"
        valid.write_text(valid.read_text().splitlines()[0] + "\n")
        # meta.json must list one noise flag per remaining validation triple.
        _edit_meta(workdir, valid_noise_flags=[])
        capsys.readouterr()
        for command in ("pretrain", "coteach", "evaluate"):
            assert _run(command, "--config", "exp.cfg", "--strategy", "margin") == 2
            assert "empty validation set" in _one_line_error(capsys, "data error:")

    @pytest.mark.parametrize("damage, message", [
        ("utf8", "train.txt:3: invalid UTF-8"),
        ("json", "meta.json:1: malformed JSON"),
        ("short_flags", "meta.json:1: train_noise_flags must list one"),
        ("long_flags", "meta.json:1: train_noise_flags must list one"),
    ], ids=["utf8", "json", "short-flags", "long-flags"])
    def test_malformed_corpus_file_is_data_error(self, workdir, capsys,
                                                 damage, message):
        assert _run("generate", "--config", "exp.cfg") == 0
        corpus = workdir / "corpus"
        if damage == "utf8":
            lines = (corpus / "train.txt").read_bytes().split(b"\n")
            lines[2] = lines[2].replace(b"\t", b"\t\xff", 1)
            (corpus / "train.txt").write_bytes(b"\n".join(lines))
        elif damage == "json":
            (corpus / "meta.json").write_text('{"seed": 7,')
        else:
            flags = json.loads((corpus / "meta.json").read_text())["train_noise_flags"]
            _edit_meta(workdir, train_noise_flags=(
                flags[:-1] if damage == "short_flags" else flags + [0]))
        capsys.readouterr()
        assert _run("pretrain", "--config", "exp.cfg") == 2
        assert message in _one_line_error(capsys, "data error: corpus/")

    @pytest.mark.parametrize("field, message", [
        (1, "corpus/valid.txt:2: empty utterance 1"),
        (-1, "corpus/valid.txt:2: empty response"),
    ], ids=["utterance", "response"])
    def test_empty_corpus_field_is_data_error(self, workdir, capsys, field, message):
        assert _run("generate", "--config", "exp.cfg") == 0
        path = workdir / "corpus" / "valid.txt"
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")  # the POS line of the first triple
        fields[field] = ""
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        for command in ("pretrain", "coteach", "evaluate"):
            assert _run(command, "--config", "exp.cfg", "--strategy", "margin") == 2
            assert message in _one_line_error(capsys, "data error:")

    @pytest.mark.parametrize("history, message", [
        (b"foo,bar\n1,2\n", "history.csv:1: missing column(s) iter,"),
        (HISTORY_HEADER + b"x,0.5,0.6,,\n", "history.csv:2: invalid literal"),
        (HISTORY_HEADER + b"2,0.5,0.6,,\n1,0.4,0.5,,\n",
         "history.csv:3: iteration indices must be strictly increasing"),
        (HISTORY_HEADER + b"0,0.5,0.6,,\n", "history.csv:2: iteration 0 is below 1"),
        (HISTORY_HEADER + b"-5,0.5,0.5,,\n", "history.csv:2: iteration -5 is below 1"),
        (HISTORY_HEADER + b"1,0.5,0.6,,\n2,0.4\xff,0.5,,\n",
         "history.csv:3: invalid UTF-8"),
        (HISTORY_HEADER + b"1,0.5,0.6,0.75,\n", "history.csv:2: valid_P@1_A and"),
        (HISTORY_HEADER + b"1,nan,0.6,,\n",
         "history.csv:2: 'nan' is not a finite non-negative loss"),
        (HISTORY_HEADER + b"1,0.5,0.6,,\n2,0.5,inf,,\n",
         "history.csv:3: 'inf' is not a finite non-negative loss"),
        (HISTORY_HEADER + b"1,-1,0.6,,\n",
         "history.csv:2: '-1' is not a finite non-negative loss"),
        (HISTORY_HEADER + b"1,0.5,0.6,nan,0.5\n",
         "history.csv:2: 'nan' is not a metric in [0, 1]"),
        (HISTORY_HEADER + b"1,0.5,0.6,0.5,inf\n",
         "history.csv:2: 'inf' is not a metric in [0, 1]"),
        (HISTORY_HEADER + b"1,0.5,0.6,7.5,0.5\n",
         "history.csv:2: '7.5' is not a metric in [0, 1]"),
        (HISTORY_HEADER + b"1,0.5,0.6,0.5,-1\n",
         "history.csv:2: '-1' is not a metric in [0, 1]"),
    ], ids=["header", "iter-cell", "order", "iter-zero", "iter-negative", "utf8",
            "one-sided-p1", "nan-loss", "inf-loss", "negative-loss", "nan-p1",
            "inf-p1", "p1-above-1", "p1-below-0"])
    def test_malformed_history_is_data_error(self, workdir, capsys, history, message):
        (workdir / "run").mkdir()
        (workdir / "run" / "history.csv").write_bytes(history)
        assert _run("report", "--config", "exp.cfg") == 2
        assert message in _one_line_error(capsys, "data error: run/history.csv:")
        assert not (workdir / "run" / "curves.csv").exists()

    def test_baseline_t_test_with_one_test_group_is_data_error(self, workdir, capsys):
        (workdir / "one.cfg").write_text(
            TINY_CONFIG.replace("n_test_contexts = 12", "n_test_contexts = 1"))
        assert _run("generate", "--config", "one.cfg") == 0
        assert _run("pretrain", "--config", "one.cfg") == 0
        assert _run("coteach", "--config", "one.cfg", "--strategy", "margin") == 0
        assert _run("evaluate", "--config", "one.cfg",
                    "--per-group-dump", "groups.csv") == 0
        capsys.readouterr()
        assert _run("evaluate", "--config", "one.cfg",
                    "--baseline-dump", "groups.csv") == 2
        _one_line_error(capsys, "data error: a paired t-test needs at least 2 "
                                "test groups, 1 left")

    def test_checkpoint_with_a_huge_parameter_count_is_data_error(
            self, workdir, capsys):
        assert _run("generate", "--config", "exp.cfg") == 0
        assert _run("pretrain", "--config", "exp.cfg") == 0
        count = 10 ** 18 * 4 + 4 * 4 + 1
        (workdir / "run" / "pretrained.ckpt").write_bytes(
            f"mean-embedding-bilinear {10 ** 18} 4 4 {count}\n".encode())
        capsys.readouterr()
        assert _run("coteach", "--config", "exp.cfg", "--strategy", "margin") == 2
        assert "truncated or oversized checkpoint" in _one_line_error(
            capsys, "data error: checkpoint run/pretrained.ckpt:")


    # Both sizes ask for exabytes, more than any address space holds, so
    # numpy refuses them outright on every machine.
    @pytest.mark.parametrize("vocab, extra, count", [
        (10 ** 17, "", 8 * 10 ** 17 + 8 * 8 + 1),
        (None, "embedding_dim = 1000000000\n", 10 ** 18 + 60 * 10 ** 9 + 1),
    ])
    def test_model_too_large_to_allocate_is_usage_error(
            self, workdir, capsys, vocab, extra, count):
        (workdir / "big.cfg").write_text(TINY_CONFIG + extra)
        assert _run("generate", "--config", "big.cfg") == 0
        if vocab is not None:
            for name in ("train.txt", "valid.txt", "test.txt"):
                path = workdir / "corpus" / name
                path.write_text(path.read_text().replace(
                    "#vocab=60 ", f"#vocab={vocab} ", 1))
        capsys.readouterr()
        assert _run("pretrain", "--config", "big.cfg") == 1
        err = _one_line_error(capsys, f"error: cannot allocate a model of {count} "
                                      "parameters")
        assert f"(vocab {vocab or 60}, embedding_dim " in err
        assert not (workdir / "run").exists()


def _edit_meta(workdir, **fields):
    path = workdir / "corpus" / "meta.json"
    meta = json.loads(path.read_text())
    meta.update(fields)
    path.write_text(json.dumps(meta))


class TestGenerate:
    def test_writes_corpus_and_summary(self, workdir, capsys):
        assert _run("generate", "--config", "exp.cfg") == 0
        out = capsys.readouterr().out
        assert "train=120" in out and "realized_noise_fraction=" in out
        for name in ("train.txt", "valid.txt", "test.txt", "meta.json"):
            assert (workdir / "corpus" / name).exists()

    def test_seed_override_changes_corpus(self, workdir):
        assert _run("generate", "--config", "exp.cfg") == 0
        first = (workdir / "corpus" / "train.txt").read_bytes()
        assert _run("generate", "--config", "exp.cfg", "--seed", "8") == 0
        assert (workdir / "corpus" / "train.txt").read_bytes() != first


class TestPretrain:
    # 12 steps with eval_every = 6: the initial model, step 6, step 12. With
    # eval_every = 5 the last step is off the cadence: initial, 5, 10, 12.
    @pytest.mark.parametrize("epochs, eval_every, evaluations",
                             [(0, 6, 1), (1, 6, 3), (1, 5, 4)])
    def test_prints_p1_of_saved_model(
            self, workdir, capsys, monkeypatch, epochs, eval_every, evaluations):
        (workdir / "pre.cfg").write_text(
            TINY_CONFIG + f"pretrain_epochs = {epochs}\neval_every = {eval_every}\n")
        assert _run("generate", "--config", "pre.cfg") == 0
        calls = []
        original = engine.validation_p_at_1

        def counted(model, triples):
            calls.append(len(triples))
            return original(model, triples)

        monkeypatch.setattr(engine, "validation_p_at_1", counted)
        capsys.readouterr()
        assert _run("pretrain", "--config", "pre.cfg") == 0
        # Pretraining's evaluations, then one for the printed figure.
        assert len(calls) == evaluations + 1
        monkeypatch.undo()
        model = load_checkpoint(workdir / "run" / "pretrained.ckpt")
        p1 = engine.validation_p_at_1(model, load_corpus(workdir / "corpus").valid)
        assert capsys.readouterr().out == (
            f"wrote run/pretrained.ckpt (validation P@1 = {p1:.4f})\n")


class TestPipeline:
    @pytest.fixture(autouse=True)
    def corpus(self, workdir):
        assert _run("generate", "--config", "exp.cfg") == 0

    def test_full_run_produces_artifacts(self, workdir, capsys):
        _pipeline(workdir, "run", "margin")
        for name in ("pretrained.ckpt", "A_final.ckpt", "B_final.ckpt",
                     "history.csv", "metrics.csv"):
            assert (workdir / "run" / name).exists()
        out = capsys.readouterr().out
        assert "run,margin," in out

    def test_metrics_row_shape(self, workdir):
        _pipeline(workdir, "run", "weighting")
        header, row = (workdir / "run" / "metrics.csv").read_text().splitlines()
        assert header == "run,strategy,MAP,MRR,P@1,R6@1,R6@2,R6@5,n_contexts"
        cells = row.split(",")
        assert cells[:2] == ["run", "weighting"]
        for cell in cells[2:8]:
            assert 0.0 <= float(cell) <= 1.0
        assert int(cells[8]) > 0

    def test_repeat_run_is_byte_identical(self, workdir):
        _pipeline(workdir, "one", "curriculum")
        _pipeline(workdir, "two", "curriculum")
        for name in ("history.csv", "metrics.csv"):
            a = (workdir / "one" / name).read_text().replace("one", "x")
            b = (workdir / "two" / name).read_text().replace("two", "x")
            assert a == b

    def test_per_group_dump_and_baseline_t_test(self, workdir, capsys):
        _pipeline(workdir, "base", "none",
                  extra=["--per-group-dump", "base_groups.csv"])
        capsys.readouterr()
        _pipeline(workdir, "treat", "margin",
                  extra=["--baseline-dump", "base_groups.csv"])
        out = capsys.readouterr().out
        assert "t-test AP: p=" in out and "t-test P@1: p=" in out
        assert (workdir / "base_groups.csv").exists()

    def test_non_numeric_baseline_dump_is_data_error(self, workdir, capsys):
        _pipeline(workdir, "run", "margin",
                  extra=["--per-group-dump", "groups.csv"])
        lines = (workdir / "groups.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "x"  # the AP cell of group 1
        lines[2] = ",".join(cells)
        (workdir / "groups.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert _run("evaluate", "--config", "exp.cfg", "--run-dir", "run",
                    "--baseline-dump", "groups.csv") == 2
        _one_line_error(capsys, "data error: groups.csv:3: column 'AP'")

    def test_baseline_dump_cell_outside_unit_interval_is_data_error(
            self, workdir, capsys):
        _pipeline(workdir, "run", "margin",
                  extra=["--per-group-dump", "groups.csv"])
        lines = (workdir / "groups.csv").read_text().splitlines()
        for cell in ("nan", "inf", "1.5", "-0.5"):
            cells = lines[2].split(",")
            cells[3] = cell  # the P@1 cell of group 1
            (workdir / "bad.csv").write_text(
                "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
            capsys.readouterr()
            assert _run("evaluate", "--config", "exp.cfg", "--run-dir", "run",
                        "--baseline-dump", "bad.csv") == 2
            err = _one_line_error(capsys, "data error: bad.csv:3: column 'P@1'")
            assert f"{cell!r} is not a metric in [0, 1]" in err

    def test_unknown_checkpoint_kind_is_data_error(self, workdir, capsys):
        _pipeline(workdir, "run", "margin")
        path = workdir / "run" / "A_final.ckpt"
        path.write_bytes(path.read_bytes().replace(
            b"mean-embedding-bilinear", b"transformer", 1))
        capsys.readouterr()
        assert _run("evaluate", "--config", "exp.cfg", "--run-dir", "run") == 2
        assert "unknown matcher kind" in _one_line_error(capsys, "data error:")

    def test_checkpoint_vocab_mismatch_is_data_error(self, workdir, capsys):
        _pipeline(workdir, "run", "margin")
        (workdir / "v90.cfg").write_text(
            TINY_CONFIG.replace("vocab_size = 60", "vocab_size = 90"))
        assert _run("generate", "--config", "v90.cfg") == 0
        capsys.readouterr()
        assert _run("evaluate", "--config", "v90.cfg", "--run-dir", "run") == 2
        assert "vocab 60 does not match corpus vocab 90" in _one_line_error(
            capsys, "data error:")

    def test_two_network_mode_uses_named_checkpoints(self, workdir):
        _pipeline(workdir, "seed-a", "none", seed=1)
        _pipeline(workdir, "seed-b", "none", seed=2)
        cfg = TINY_CONFIG + (
            "checkpoint_a = seed-a/pretrained.ckpt\n"
            "checkpoint_b = seed-b/pretrained.ckpt\n")
        (workdir / "two.cfg").write_text(cfg)
        assert _run("coteach", "--config", "two.cfg", "--run-dir", "twonet",
                    "--strategy", "margin") == 0
        a = load_checkpoint(workdir / "seed-a" / "pretrained.ckpt")
        final_a = load_checkpoint(workdir / "twonet" / "A_final.ckpt")
        assert a.spec == final_a.spec

    def test_two_network_mode_requires_both_checkpoints(self, workdir):
        _pipeline(workdir, "seed-a", "none", seed=1)
        (workdir / "half.cfg").write_text(
            TINY_CONFIG + "checkpoint_a = seed-a/pretrained.ckpt\n")
        assert _run("coteach", "--config", "half.cfg", "--run-dir", "halfnet",
                    "--strategy", "margin") == 1

    def test_sweep_writes_table(self, workdir, capsys):
        assert _run("pretrain", "--config", "exp.cfg", "--run-dir", "swp") == 0
        (workdir / "swp.cfg").write_text(
            TINY_CONFIG + "sweep_param = delta\nsweep_values = 0.5,0.9\n"
            "run_dir = swp\n")
        assert _run("sweep", "--config", "swp.cfg") == 0
        lines = (workdir / "swp" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("param,value,run,strategy,MAP")
        assert lines[0].endswith(",R6@1,R6@2,R6@5,n_contexts")
        assert len(lines) == 3
        assert lines[1].split(",")[:2] == ["delta", "0.5"]

    def test_sweep_rejects_unknown_param(self, workdir, capsys):
        (workdir / "bad.cfg").write_text(
            TINY_CONFIG + "sweep_param = gamma\nsweep_values = 1\n")
        capsys.readouterr()
        assert _run("sweep", "--config", "bad.cfg") == 1
        _one_line_error(capsys, "error: config key 'sweep_param'")
        assert not (workdir / "run").exists()

    def test_report_smooths_history(self, workdir):
        _pipeline(workdir, "run", "margin")
        assert _run("report", "--config", "exp.cfg", "--run-dir", "run") == 0
        lines = (workdir / "run" / "curves.csv").read_text().splitlines()
        assert lines[0] == "iter,loss_A_ema,loss_B_ema,valid_P@1_A_ema,valid_P@1_B_ema"
        assert len(lines) == 1 + 12  # one row per training iteration

    def test_report_without_history_is_data_error(self, workdir, capsys):
        shutil.rmtree(workdir / "run", ignore_errors=True)
        capsys.readouterr()
        assert _run("report", "--config", "exp.cfg", "--run-dir", "run") == 2
        _one_line_error(capsys, "data error: history not found")
        assert not (workdir / "run").exists()


# The benchmark's cli-pipeline experiment at seed 5, with a two-point sweep.
CLI_PIPELINE_CONFIG = """\
vocab_size = 1000
n_topics = 10
n_train = 2000
n_valid = 500
n_test_contexts = 2000
n_candidates = 10
turns_per_context = 3
tokens_per_utterance = 10
embedding_dim = 16
eval_every = 50
false_negative_rate = 0.3
seed = 5
batch_size = 10
pretrain_epochs = 1
n_epochs = 1
lambda = 0.5
sweep_param = lambda
sweep_values = 0.3,0.7
"""


def _must_not_run(*args, **kwargs):
    raise AssertionError("the pipeline built tuples")


def _forbid_tuples(monkeypatch):
    """Make building an item tuple, a ranked entry or a pack of tuple
    groups fail the run."""
    from coteach import corpus, evaluation
    for split in (corpus.Triples, corpus.TestGroups):
        monkeypatch.setattr(split, "_build", _must_not_run)
    monkeypatch.setattr(evaluation.RankedGroup, "entries", property(_must_not_run))
    for module in (corpus, matcher):
        real = module.pack_groups
        monkeypatch.setattr(module, "pack_groups", lambda groups, vocab_size, real=real: (
            _must_not_run() if len(groups) else real(groups, vocab_size)))


def test_pipeline_builds_no_tuples(tmp_path, monkeypatch):
    # Every split is born packed, and ranking ends in rank-ordered arrays.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(CLI_PIPELINE_CONFIG)
    _forbid_tuples(monkeypatch)
    strategy = ["--config", "exp.cfg", "--strategy", "margin"]
    for argv in (["generate", "--config", "exp.cfg"], ["pretrain", "--config", "exp.cfg"],
                 ["coteach", *strategy],
                 ["evaluate", *strategy, "--per-group-dump", "run/groups.csv"],
                 ["evaluate", *strategy, "--baseline-dump", "run/groups.csv"],
                 ["report", "--config", "exp.cfg"], ["sweep", *strategy]):
        assert _run(*argv) == 0, argv
    assert len((tmp_path / "run" / "sweep.csv").read_text().splitlines()) == 3


def _label_test_groups(path, groups, label):
    """Give every candidate of the test groups at ``groups`` in the
    10-candidate corpus file ``path`` the label ``label``."""
    lines = path.read_bytes().split(b"\n")
    for line in (1 + 10 * g + i for g in groups for i in range(10)):
        lines[line] = label + lines[line][1:]
    path.write_bytes(b"\n".join(lines))


def test_degenerate_test_groups_are_dropped_from_the_pack(tmp_path, monkeypatch, capsys):
    # A corpus file may hold groups whose candidates are all positive; they
    # are dropped by a gather from the test pack, with no tuple built. A test
    # split of such groups alone is a data error.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(CLI_PIPELINE_CONFIG.replace(
        "sweep_values = 0.3,0.7", "sweep_values = 0.5"))
    _forbid_tuples(monkeypatch)
    strategy = ["--config", "exp.cfg", "--strategy", "margin"]
    for argv in (["generate", "--config", "exp.cfg"], ["pretrain", "--config", "exp.cfg"],
                 ["coteach", *strategy]):
        assert _run(*argv) == 0, argv
    _label_test_groups(tmp_path / "corpus" / "test.txt", [0], b"1")
    capsys.readouterr()
    assert _run("evaluate", *strategy) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "run,strategy,MAP,MRR,P@1,R10@1,R10@2,R10@5,n_contexts"
    assert out[1].endswith(",1999") and out[2] == "removed 1 degenerate test contexts"
    assert (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:] == [out[1]]
    assert _run("sweep", *strategy) == 0
    _, row = (tmp_path / "run" / "sweep.csv").read_text().splitlines()
    assert row.startswith("lambda,0.5,run,margin,") and row.endswith(",1999")
    _label_test_groups(tmp_path / "corpus" / "test.txt", range(2000), b"1")
    capsys.readouterr()
    assert _run("evaluate", *strategy) == 2
    assert _one_line_error(capsys, "data error: ") == (
        "data error: all test groups are degenerate\n")


class TestSplitsPerCommand:
    """pretrain and coteach parse the train and valid bodies, evaluate the
    valid and test bodies; every command that loads the corpus checks all
    three headers against each other."""

    @pytest.fixture(autouse=True)
    def trained(self, workdir):
        assert _run("generate", "--config", "exp.cfg") == 0
        _pipeline(workdir, "run", "margin")

    def _damage_body(self, workdir, name):
        path = workdir / "corpus" / name
        lines = path.read_text().splitlines()
        lines[1] = "garbage"  # the header stays
        path.write_text("\n".join(lines) + "\n")

    def test_damaged_test_body_fails_only_evaluate(self, workdir, capsys):
        self._damage_body(workdir, "test.txt")
        args = ["--config", "exp.cfg", "--strategy", "margin"]
        assert _run("pretrain", *args) == 0
        assert _run("coteach", *args) == 0
        capsys.readouterr()
        assert _run("evaluate", *args) == 2
        assert _one_line_error(capsys, "data error: ").startswith(
            "data error: corpus/test.txt:2: ")

    def test_damaged_train_body_fails_only_training(self, workdir, capsys):
        self._damage_body(workdir, "train.txt")
        args = ["--config", "exp.cfg", "--strategy", "margin"]
        assert _run("evaluate", *args) == 0
        capsys.readouterr()
        for command in ("pretrain", "coteach"):
            assert _run(command, *args) == 2
            assert _one_line_error(capsys, "data error: ").startswith(
                "data error: corpus/train.txt:2: ")

    @pytest.mark.parametrize("name", ["train.txt", "valid.txt", "test.txt"])
    def test_header_mismatch_fails_every_loading_command(self, workdir, capsys, name):
        path = workdir / "corpus" / name
        path.write_text(path.read_text().replace("#vocab=60 ", "#vocab=61 ", 1))
        capsys.readouterr()
        for command in ("pretrain", "coteach", "evaluate", "sweep"):
            assert _run(command, "--config", "exp.cfg", "--strategy", "margin") == 2
            assert "inconsistent headers across files" in _one_line_error(
                capsys, "data error: ")


def _trains_nothing(*args, **kwargs):
    raise AssertionError("training started before the run directory was checked")


class TestFailingCommandWritesNothing:
    """A failing command exits with its code and a one-line message, no
    traceback, and leaves no file or directory behind."""

    @pytest.mark.parametrize("rate", ["0.3", "1.0"])
    def test_generate_with_one_topic_is_usage_error(self, workdir, capsys,
                                                     monkeypatch, rate):
        (workdir / "one.cfg").write_text(
            TINY_CONFIG + f"n_topics = 1\nfalse_negative_rate = {rate}\n")

        def generator_reached(config):
            raise AssertionError("the config was not rejected")

        monkeypatch.setattr(cli, "generate_synthetic_corpus", generator_reached)
        assert _run("generate", "--config", "one.cfg") == 1
        assert _one_line_error(capsys, "error: ") == (
            "error: n_topics must be at least 2: negatives come from another topic\n")
        assert not (workdir / "corpus").exists()

    def test_generate_with_one_candidate_is_usage_error(self, workdir, capsys,
                                                         monkeypatch):
        (workdir / "one.cfg").write_text(TINY_CONFIG + "n_candidates = 1\n")

        def generator_reached(config):
            raise AssertionError("the config was not rejected")

        monkeypatch.setattr(cli, "generate_synthetic_corpus", generator_reached)
        assert _run("generate", "--config", "one.cfg") == 1
        assert _one_line_error(capsys, "error: ") == (
            "error: n_candidates must be at least 2: a test group holds a "
            "positive and a negative\n")
        assert not (workdir / "corpus").exists()

    @pytest.mark.parametrize("param, strategy, given_by", [
        ("lambda", "weighting", "config"), ("lambda", "curriculum", "flag"),
        ("delta", "margin", "config"), ("delta", "none", "flag")])
    def test_sweep_param_its_strategy_never_reads_is_usage_error(
            self, workdir, capsys, monkeypatch, param, strategy, given_by):
        assert _run("generate", "--config", "exp.cfg") == 0
        (workdir / "swp.cfg").write_text(
            TINY_CONFIG + f"sweep_param = {param}\nsweep_values = 0.1,5.0\n"
            + (f"strategy = {strategy}\n" if given_by == "config" else ""))
        flag = ["--strategy", strategy] if given_by == "flag" else []
        capsys.readouterr()
        monkeypatch.setattr(engine, "coteach_train", _trains_nothing)
        assert _run("sweep", "--config", "swp.cfg", *flag) == 1
        reader = "margin" if param == "lambda" else "curriculum"
        assert _one_line_error(capsys, "error: ") == (
            f"error: strategy {strategy!r} does not read sweep_param "
            f"{param!r}; only {reader!r} does\n")
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("given_by", ["flag", "config"])
    @pytest.mark.parametrize("command", ["generate", "pretrain", "coteach"])
    def test_negative_seed_is_usage_error(self, workdir, capsys, command, given_by):
        if command != "generate":
            assert _run("generate", "--config", "exp.cfg") == 0
        if command == "coteach":
            assert _run("pretrain", "--config", "exp.cfg") == 0
        (workdir / "neg.cfg").write_text(TINY_CONFIG.replace("seed = 7", "seed = -1"))
        args = (["--config", "exp.cfg", "--seed", "-1"] if given_by == "flag"
                else ["--config", "neg.cfg"])
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert _run(command, *args, "--strategy", "margin") == 1
        assert _one_line_error(capsys, "error: ") == "error: seed must be non-negative\n"
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize("command", ["generate", "pretrain", "coteach"])
    def test_unknown_config_key_is_usage_error(self, workdir, capsys, command):
        # Read as they were, both keys would leave their settings at the defaults.
        if command != "generate":
            assert _run("generate", "--config", "exp.cfg") == 0
        if command == "coteach":
            assert _run("pretrain", "--config", "exp.cfg") == 0
        (workdir / "typo.cfg").write_text(TINY_CONFIG + "learning_rat = 5\nn_epoch = 40\n")
        before = sorted(workdir.rglob("*"))
        capsys.readouterr()
        assert _run(command, "--config", "typo.cfg", "--strategy", "margin") == 1
        assert _one_line_error(capsys, "error: ") == (
            "error: unknown config key 'learning_rat'\n")
        assert sorted(workdir.rglob("*")) == before

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 TiB", "error: out of memory: Unable to allocate 7.28 TiB\n"),
        ("", "error: out of memory\n")], ids=["numpy", "bare"])
    def test_out_of_memory_is_usage_error(self, workdir, capsys, monkeypatch,
                                          message, line):
        # Raised, not provoked: whether a huge allocation fails at once
        # depends on the host's overcommit policy.
        def allocation_fails(config):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_synthetic_corpus", allocation_fails)
        assert _run("generate", "--config", "exp.cfg") == 1
        assert _one_line_error(capsys, "error: ") == line
        assert not (workdir / "corpus").exists()

    def test_unwritable_corpus_dir_is_data_error(self, workdir, capsys):
        (workdir / "afile").write_text("")
        (workdir / "gen.cfg").write_text(TINY_CONFIG + "corpus_dir = afile\n")
        assert _run("generate", "--config", "gen.cfg") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: afile: File exists\n")

    def test_run_dir_that_is_a_file_is_data_error(self, workdir, capsys, monkeypatch):
        assert _run("generate", "--config", "exp.cfg") == 0
        (workdir / "afile").write_text("")
        capsys.readouterr()
        monkeypatch.setattr(engine, "pretrain", _trains_nothing)
        assert _run("pretrain", "--config", "exp.cfg", "--run-dir", "afile") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: afile: File exists\n")
        assert (workdir / "afile").read_text() == ""

    def test_run_dir_under_a_file_is_data_error(self, workdir, capsys, monkeypatch):
        assert _run("generate", "--config", "exp.cfg") == 0
        (workdir / "afile").write_text("")
        capsys.readouterr()
        monkeypatch.setattr(engine, "pretrain", _trains_nothing)
        assert _run("pretrain", "--config", "exp.cfg", "--run-dir", "afile/run") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: afile/run: Not a directory\n")
        assert (workdir / "afile").read_text() == ""

    def test_sweep_run_dir_that_is_a_file_is_data_error(self, workdir, capsys,
                                                        monkeypatch):
        assert _run("generate", "--config", "exp.cfg") == 0
        (workdir / "afile").write_text("")
        (workdir / "swp.cfg").write_text(
            TINY_CONFIG + "sweep_param = delta\nsweep_values = 0.5,0.9\n")
        capsys.readouterr()
        monkeypatch.setattr(engine, "coteach_train", _trains_nothing)
        assert _run("sweep", "--config", "swp.cfg", "--run-dir", "afile") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: afile: File exists\n")
        assert (workdir / "afile").read_text() == ""

    def test_per_group_dump_in_missing_directory_is_data_error(self, workdir, capsys):
        assert _run("generate", "--config", "exp.cfg") == 0
        assert _run("pretrain", "--config", "exp.cfg") == 0
        assert _run("coteach", "--config", "exp.cfg", "--strategy", "margin") == 0
        capsys.readouterr()
        assert _run("evaluate", "--config", "exp.cfg",
                    "--per-group-dump", "nodir/x.csv") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: nodir/x.csv: No such file or directory\n")
        assert not (workdir / "run" / "metrics.csv").exists()

    def test_baseline_dump_that_is_a_directory_is_data_error(self, workdir, capsys):
        assert _run("generate", "--config", "exp.cfg") == 0
        assert _run("pretrain", "--config", "exp.cfg") == 0
        assert _run("coteach", "--config", "exp.cfg", "--strategy", "margin") == 0
        capsys.readouterr()
        assert _run("evaluate", "--config", "exp.cfg", "--baseline-dump", "run") == 2
        assert _one_line_error(capsys, "data error: ") == (
            "data error: run: Is a directory\n")
        assert not (workdir / "run" / "metrics.csv").exists()

    def test_evaluate_without_checkpoints_creates_no_run_dir(self, workdir, capsys):
        assert _run("generate", "--config", "exp.cfg") == 0
        capsys.readouterr()
        assert _run("evaluate", "--config", "exp.cfg") == 2
        _one_line_error(capsys, "data error: checkpoint not found")
        assert not (workdir / "run").exists()


class TestArtifactBytes:
    """Exact bytes of CSV artifacts built from inputs that involve no linear
    algebra, so they are the same on every machine: CRLF line ends, floats
    as repr, empty cells for missing values."""

    REPORT = MetricsReport(map=0.75, mrr=2 / 3, p_at_1=0.5, r10_at_1=0.5,
                           r10_at_2=0.1 + 0.2, r10_at_5=1.0, n_contexts=2)
    PER_GROUP = {"AP": np.array([1.0, 0.5]), "RR": np.array([1.0, 1 / 3]),
                 "P@1": np.array([1.0, 0.0]), "R@1": np.array([1.0, 0.0]),
                 "R@2": np.array([0.1 + 0.2, 0.3]), "R@5": np.array([1.0, 1.0])}

    def test_curves_csv_from_a_written_history(self, workdir):
        (workdir / "run").mkdir()
        (workdir / "run" / "history.csv").write_bytes(
            HISTORY_HEADER + b"1,0.5,0.25,,\n2,0.25,0.5,0.5,0.75\n"
            b"3,0.125,1.0,,\n4,0.75,0.0,1.0,0.25\n")
        assert _run("report", "--config", "exp.cfg") == 0
        assert (workdir / "run" / "curves.csv").read_bytes() == (
            b"iter,loss_A_ema,loss_B_ema,valid_P@1_A_ema,valid_P@1_B_ema\r\n"
            b"1,0.5,0.25,,\r\n"
            b"2,0.425,0.32499999999999996,0.5,0.75\r\n"
            b"3,0.33499999999999996,0.5275,,\r\n"
            b"4,0.4594999999999999,0.36924999999999997,"
            b"0.6499999999999999,0.5999999999999999\r\n")

    def test_evaluate_writes_fixed_metrics_and_dump(self, workdir, monkeypatch):
        # Everything before the writers is replaced by fixed results; the
        # run directory is where the faked checkpoints would live.
        (workdir / "run").mkdir()
        monkeypatch.setattr(cli, "_load_corpus", lambda *args: SimpleNamespace(n_candidates=10))
        monkeypatch.setattr(cli, "_load_checkpoint", lambda *args: None)
        monkeypatch.setattr(cli, "_rank_test_set", lambda *args: ([None] * 2, 0))
        calls = []
        monkeypatch.setattr(cli.evaluation, "per_group_metrics",
                            lambda ranked: calls.append(ranked) or self.PER_GROUP)
        assert _run("evaluate", "--config", "exp.cfg", "--strategy", "margin",
                    "--per-group-dump", "groups.csv") == 0
        assert len(calls) == 1  # the report averages the dumped vectors
        assert (workdir / "run" / "metrics.csv").read_bytes() == (
            b"run,strategy,MAP,MRR,P@1,R10@1,R10@2,R10@5,n_contexts\r\n"
            b"run,margin,0.750000,0.666667,0.500000,0.500000,0.300000,1.000000,2\r\n")
        assert (workdir / "groups.csv").read_bytes() == (
            b"group_id,AP,RR,P@1,R@1,R@2,R@5\r\n"
            b"0,1.0,1.0,1.0,1.0,0.30000000000000004,1.0\r\n"
            b"1,0.5,0.3333333333333333,0.0,0.0,0.3,1.0\r\n")

    def test_metrics_row_stars_significant_metrics(self):
        assert cli._metrics_row("run", "margin", self.REPORT,
                                {"AP": True, "RR": False, "R@5": True}) == [
            "run", "margin", "0.750000*", "0.666667", "0.500000", "0.500000",
            "0.300000", "1.000000*", "2"]
