"""The CLI's error contract, over edge values of its inputs.

Hypothesis sets config keys, ``--seed`` and ``--strategy`` to edge values
and runs the six commands in pipeline order through ``cli.main``, in
process, on a tiny corpus. The commands before a drawn one run on the
plain config and must succeed; from that one on, each runs with the edge
values. Whatever the values:

- every command exits 0, 1 or 2, and no exception escapes ``main``
- a failing command prints exactly one stderr line, starting ``error:``
  or ``data error:``, and creates no directory
- a ``seed`` that is not a non-negative integer fails ``generate`` with a
  message naming ``seed``, and so does a huge ``vocab_size`` or
  ``tokens_per_utterance``, naming its key; 2**62 tokens an utterance,
  below int64's limit but past 2**63 bytes, fails the same way

Counts that the run iterates over (``n_train``, ``n_epochs``, ...) get no
huge value: they run rather than fail. Nor does any value between 10**6
and 10**18 appear, which could ask for gigabytes before failing. Each case
runs under an alarm, so a command that loops fails its case instead of
hanging the suite.
"""

import contextlib
import io
import signal
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coteach.cli import main
from coteach.corpus import GenConfig

BASE_CONFIG = """\
vocab_size = 40
n_topics = 2
n_train = 40
n_valid = 10
n_test_contexts = 4
n_candidates = 4
turns_per_context = 1
tokens_per_utterance = 3
false_negative_rate = 0.3
seed = 1
embedding_dim = 4
hidden_dim = 4
batch_size = 10
pretrain_epochs = 1
n_epochs = 1
eval_every = 2
lambda = 0.5
delta = 0.9
strategy = margin
sweep_param = lambda
sweep_values = 0.5
"""

EDGE_VALUES = ["0", "-1", "nan", "inf", "1e400", "", "x", "1.5"]
# numpy refuses a size this large at once, so it fails without allocating.
HUGE = str(10 ** 30)
HUGE_KEYS = {"vocab_size", "tokens_per_utterance", "embedding_dim", "hidden_dim",
             "batch_size", "eval_every"}
CONFIG_KEYS = sorted({f.name for f in fields(GenConfig)} | HUGE_KEYS | {
    "matcher_kind", "pretrain_epochs", "n_epochs", "pretrain_lr", "learning_rate",
    "lambda", "delta", "strategy", "sweep_values", "ema_alpha"})
COMMANDS = ["generate", "pretrain", "coteach", "evaluate", "sweep", "report"]


@st.composite
def edge_settings(draw):
    """(target, value) pairs: a config key, ``--seed`` or ``--strategy``."""
    targets = st.sampled_from(CONFIG_KEYS + ["--seed", "--strategy"])
    pairs = []
    for target in draw(st.lists(targets, min_size=1, max_size=2, unique=True)):
        values = EDGE_VALUES + ([HUGE] if target in HUGE_KEYS else [])
        pairs.append((target, draw(st.sampled_from(values))))
    return pairs


# Seconds a whole case (six commands on the tiny corpus) may take.
CASE_ALARM_S = 20


class CaseTimedOut(BaseException):
    """Raised by the alarm; a BaseException, so ``main`` does not report it."""


@contextlib.contextmanager
def _alarm(seconds: int):
    def expire(signum, frame):
        raise CaseTimedOut(f"case ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _run(argv):
    """(exit code, stderr) of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edge_settings(), st.sampled_from(COMMANDS))
@example([("seed", "-1")], "generate")
@example([("--seed", "-1")], "generate")
@example([("--seed", "-1")], "pretrain")
@example([("vocab_size", HUGE)], "generate")
@example([("tokens_per_utterance", HUGE)], "generate")
@example([("tokens_per_utterance", str(2**62))], "generate")
@example([("embedding_dim", HUGE)], "pretrain")
def test_every_command_exits_with_a_code_and_one_line(tmp_path_factory, pairs, first):
    with _alarm(CASE_ALARM_S):
        _check_case(tmp_path_factory.mktemp("cli"), pairs, first)


def _check_case(work, pairs, first):
    base = BASE_CONFIG + f"corpus_dir = {work / 'corpus'}\n"
    (work / "base.cfg").write_text(base)
    (work / "edge.cfg").write_text(base + "".join(
        f"{key} = {value}\n" for key, value in pairs if not key.startswith("--")))
    flags = [arg for key, value in pairs if key.startswith("--") for arg in (key, value)]
    edge = COMMANDS.index(first)
    only_seed = len(pairs) == 1 and pairs[0][0] in ("seed", "--seed")
    only_huge_size = pairs in ([("vocab_size", HUGE)], [("tokens_per_utterance", HUGE)],
                               [("tokens_per_utterance", str(2**62))])
    for k, command in enumerate(COMMANDS):
        dirs = {p for p in work.rglob("*") if p.is_dir()}
        argv = [command, "--run-dir", str(work / "run"),
                *(["--config", str(work / "edge.cfg"), *flags] if k >= edge
                  else ["--config", str(work / "base.cfg")])]
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert code == 0 or k >= edge, (argv, err)
        if code:
            assert err.count("\n") == 1, (argv, err)
            assert err.startswith(("error: ", "data error: ")), (argv, err)
            assert {p for p in work.rglob("*") if p.is_dir()} <= dirs, argv
        if only_seed and command == first and command in ("generate", "pretrain", "coteach"):
            assert (code == 0) == (pairs[0][1] == "0"), (argv, err)
            assert code == 0 or "seed" in err, (argv, err)
        if only_huge_size and command == first == "generate":
            assert code == 1 and pairs[0][0] in err, (argv, err)
