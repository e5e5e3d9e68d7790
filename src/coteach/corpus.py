"""Dialogue corpus data model and synthetic noisy-corpus generation.

A corpus holds pairwise training/validation triples (context, positive
response, negative response) and judged test groups of ranked candidates.
The synthetic generator builds a topic-separable corpus with a controllable
false-negative rate: with probability ``false_negative_rate`` the sampled
negative comes from the same topic as the context, i.e. it would be a
perfectly good response that is nevertheless labeled negative.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed; carries the line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class TokenizedDialogue:
    """A conversation context paired with one response candidate.

    ``context`` is a tuple of utterances, each a tuple of token IDs; the
    most recent utterance is last.
    """

    context: tuple[tuple[int, ...], ...]
    response: tuple[int, ...]


@dataclass(frozen=True)
class PointwiseExample:
    """A labeled (y, context, response) training example with y in {0, 1}."""

    y: int
    dialogue: TokenizedDialogue

    def __post_init__(self):
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")


@dataclass(frozen=True)
class PairwiseTriple:
    """A (context, positive response, negative response) training triple.

    ``noise_flag`` marks synthetic false negatives (negative drawn from the
    context's own topic). It exists for diagnostics only and is absent
    (None) for non-synthetic corpora; training code never reads it.
    """

    context: tuple[tuple[int, ...], ...]
    pos_response: tuple[int, ...]
    neg_response: tuple[int, ...]
    noise_flag: bool | None = None


@dataclass(frozen=True)
class TestGroup:
    """A judged test context with its candidate responses.

    ``candidates`` holds (response, human_label) pairs, label 1 meaning the
    response is appropriate for the context.
    """

    context: tuple[tuple[int, ...], ...]
    candidates: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class Corpus:
    train: tuple[PairwiseTriple, ...]
    valid: tuple[PairwiseTriple, ...]
    test: tuple[TestGroup, ...]
    vocab_size: int
    n_candidates: int = 10
    seed: int | None = None
    noise_rate: float | None = None


@dataclass(frozen=True)
class GenConfig:
    """Settings for the synthetic corpus generator."""

    vocab_size: int = 1000
    n_topics: int = 10
    n_train: int = 5000
    n_valid: int = 500
    n_test_contexts: int = 200
    n_candidates: int = 10
    turns_per_context: int = 3
    tokens_per_utterance: int = 10
    false_negative_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "n_topics", "n_train", "n_valid",
                     "n_test_contexts", "n_candidates", "turns_per_context",
                     "tokens_per_utterance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.false_negative_rate <= 1.0:
            raise ValueError("false_negative_rate must lie in [0, 1]")
        if self.vocab_size // self.n_topics < 2:
            raise ValueError(
                "vocab_size too small to give each topic a disjoint token "
                "range of at least 2 tokens")


def _topic_range(config: GenConfig, topic: int) -> tuple[int, int]:
    # Topics own disjoint, equal-width token ranges so a bag-of-tokens model
    # can separate them; leftover tokens at the top of the vocab are unused.
    width = config.vocab_size // config.n_topics
    return topic * width, (topic + 1) * width


def _sample_utterance(rng, config: GenConfig, topic: int) -> tuple[int, ...]:
    lo, hi = _topic_range(config, topic)
    return tuple(rng.integers(lo, hi, size=config.tokens_per_utterance).tolist())


def _sample_context(rng, config: GenConfig, topic: int):
    return tuple(_sample_utterance(rng, config, topic)
                 for _ in range(config.turns_per_context))


def _sample_triple(rng, config: GenConfig) -> PairwiseTriple:
    topic = int(rng.integers(config.n_topics))
    context = _sample_context(rng, config, topic)
    pos = _sample_utterance(rng, config, topic)
    is_noise = bool(rng.random() < config.false_negative_rate)
    if is_noise:
        neg_topic = topic
    else:
        neg_topic = int(rng.integers(config.n_topics - 1))
        if neg_topic >= topic:
            neg_topic += 1
    neg = _sample_utterance(rng, config, neg_topic)
    while neg == pos:
        neg = _sample_utterance(rng, config, neg_topic)
    return PairwiseTriple(context, pos, neg, noise_flag=is_noise)


# Probability that a test candidate is drawn from the context's own topic.
# Chosen so groups average ~2-3 positives out of 10 candidates.
_TEST_POSITIVE_PROB = 0.25


def _sample_test_group(rng, config: GenConfig) -> TestGroup:
    topic = int(rng.integers(config.n_topics))
    context = _sample_context(rng, config, topic)
    while True:
        candidates = []
        for _ in range(config.n_candidates):
            if config.n_topics == 1 or rng.random() < _TEST_POSITIVE_PROB:
                cand_topic = topic
            else:
                cand_topic = int(rng.integers(config.n_topics - 1))
                if cand_topic >= topic:
                    cand_topic += 1
            response = _sample_utterance(rng, config, cand_topic)
            candidates.append((response, int(cand_topic == topic)))
        labels = {label for _, label in candidates}
        if len(labels) == 2:  # regenerate degenerate groups
            return TestGroup(context, tuple(candidates))


def generate_synthetic_corpus(config: GenConfig) -> Corpus:
    """Generate a deterministic synthetic corpus from ``config``.

    Each context and its true response live in a single topic. Training and
    validation negatives come from the same topic with probability
    ``false_negative_rate`` (marked ``noise_flag=True``), otherwise from a
    different topic. Test groups carry clean labels (positive iff the
    candidate shares the context's topic) and always contain at least one
    positive and one negative.
    """
    rng = np.random.default_rng(config.seed)
    train = tuple(_sample_triple(rng, config) for _ in range(config.n_train))
    valid = tuple(_sample_triple(rng, config) for _ in range(config.n_valid))
    test = tuple(_sample_test_group(rng, config)
                 for _ in range(config.n_test_contexts))
    return Corpus(train=train, valid=valid, test=test,
                  vocab_size=config.vocab_size,
                  n_candidates=config.n_candidates,
                  seed=config.seed, noise_rate=config.false_negative_rate)


def to_pointwise(triples) -> list[PointwiseExample]:
    """Expand pairwise triples into the pointwise view.

    Each triple yields (1, c, r+) followed by (0, c, r-); order is
    preserved, so the output alternates labels 1, 0, 1, 0, ...
    """
    out = []
    for t in triples:
        out.append(PointwiseExample(1, TokenizedDialogue(t.context, t.pos_response)))
        out.append(PointwiseExample(0, TokenizedDialogue(t.context, t.neg_response)))
    return out


def pair_dialogues(triples) -> list[TokenizedDialogue]:
    """The (c, r+) dialogue of every triple, then the (c, r-) of every one."""
    return ([TokenizedDialogue(t.context, t.pos_response) for t in triples]
            + [TokenizedDialogue(t.context, t.neg_response) for t in triples])


def interleaved_dialogues(triples) -> list[TokenizedDialogue]:
    """The (c, r+) then the (c, r-) dialogue of each triple in turn, so
    ``matcher.scores`` pools each triple's context once."""
    return [TokenizedDialogue(t.context, r) for t in triples
            for r in (t.pos_response, t.neg_response)]


# ----------------------------------------------------------------------
# File IO
#
# Line-delimited UTF-8. Every file starts with the header line
# `#vocab=<V> candidates=<n>`; each following line is
#   label<TAB>utt_1<TAB>...<TAB>utt_k<TAB>response
# with every field a non-empty run of space-separated decimal token IDs.
# Lines come in blocks that share one context, and each position in a
# block allows its own labels: a train/valid block is a POS line then a NEG
# line (one triple), a test block is n_candidates lines labelled 0 or 1
# (one judged group). Generation metadata and the diagnostic noise flags
# live in a sidecar meta.json, keeping the text format self-contained.
# ----------------------------------------------------------------------

_HEADER_PREFIX = "#vocab="


# (lines per block, labels by position): each position's labels map to the
# value a loaded block holds for them, and positions past the last reuse the
# labels from the first. None lines per block means the header's candidate
# count, so nothing is ever sized by that untrusted count.
_TRIPLE_BLOCK = 2, ({"POS": 1}, {"NEG": 0})
_GROUP_BLOCK = None, ({"0": 0, "1": 1},)


def _format_tokens(tokens) -> str:
    return " ".join(map(str, tokens))


def _write_blocks(path, header: str, blocks) -> None:
    """Write ``header`` and ``blocks`` of (context, ((response, label), ...))."""
    lines = [header]
    for context, candidates in blocks:
        # The context's fields, each followed by the tab before the response.
        context = "".join(_format_tokens(utt) + "\t" for utt in context)
        for response, label in candidates:
            lines.append(f"{label}\t{context}{_format_tokens(response)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_corpus(corpus: Corpus, path) -> None:
    """Write ``corpus`` under directory ``path`` (created if needed)."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header = f"#vocab={corpus.vocab_size} candidates={corpus.n_candidates}"
    for name, triples in (("train.txt", corpus.train), ("valid.txt", corpus.valid)):
        _write_blocks(path / name, header,
                      ((t.context, ((t.pos_response, "POS"), (t.neg_response, "NEG")))
                       for t in triples))
    _write_blocks(path / "test.txt", header,
                  ((g.context, g.candidates) for g in corpus.test))

    meta = {
        "seed": corpus.seed,
        "noise_rate": corpus.noise_rate,
        "train_noise_flags": _flag_list(corpus.train),
        "valid_noise_flags": _flag_list(corpus.valid),
    }
    (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def _flag_list(triples):
    flags = [t.noise_flag for t in triples]
    if any(f is None for f in flags):
        return None
    return [int(f) for f in flags]


def _parse_header(line: str, path, line_no: int) -> tuple[int, int]:
    if not line.startswith(_HEADER_PREFIX):
        raise CorpusFormatError(path, line_no, f"expected header line, got {line!r}")
    try:
        vocab_part, cand_part = line.split()
        vocab = int(vocab_part[len(_HEADER_PREFIX):])
        cands = int(cand_part.split("=", 1)[1])
    except (ValueError, IndexError) as exc:
        raise CorpusFormatError(path, line_no, f"malformed header: {line!r}") from exc
    if vocab <= 0 or cands <= 0:
        raise CorpusFormatError(
            path, line_no, f"header needs a positive vocab and candidate count: {line!r}")
    return vocab, cands


def _parse_tokens(field: str, vocab_size: int, path, line_no: int) -> tuple[int, ...]:
    try:
        tokens = tuple(map(int, field.split()))
    except ValueError as exc:
        raise CorpusFormatError(path, line_no, f"non-integer token in {field!r}") from exc
    if tokens and (min(tokens) < 0 or max(tokens) >= vocab_size):
        bad = next(t for t in tokens if not 0 <= t < vocab_size)
        raise CorpusFormatError(
            path, line_no, f"token ID {bad} outside vocab of size {vocab_size}")
    return tokens


def read_text(path) -> str:
    """A file's UTF-8 text; invalid UTF-8 raises CorpusFormatError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first bad byte, counted as str.splitlines counts.
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CorpusFormatError(
            path, line_no, f"invalid UTF-8 at byte {exc.start}") from exc


def parse_metric(cell: str) -> float:
    """The number in a CSV cell that holds a metric, which lies in [0, 1]."""
    value = float(cell)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise ValueError(f"{cell!r} is not a metric in [0, 1]")
    return value


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` of ready-formatted cells as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _read_blocks(path, block):
    """The header and the blocks of one corpus file, or (None, []) for a
    missing or empty file. A block is (context, [(response, value), ...]),
    laid out as ``block`` (_TRIPLE_BLOCK or _GROUP_BLOCK) says."""
    if not path.exists():
        return None, []
    lines = read_text(path).splitlines()
    if not lines:
        return None, []
    header = vocab_size, n_candidates = _parse_header(lines[0], path, 1)
    lines = [(line_no, line) for line_no, line in enumerate(lines[1:], 2) if line]
    size, allowed = block
    size = size or n_candidates
    if len(lines) % size:
        raise CorpusFormatError(
            path, lines[-1][0], f"dangling line: blocks hold {size} lines")
    blocks = []
    # Field text -> tokens, for this file only. A field that fails is never
    # added, so every error is raised at the line it is on.
    parsed = {}
    for index, (line_no, line) in enumerate(lines):
        position = index % size
        label, *fields = line.split("\t")
        labels = allowed[position % len(allowed)]
        value = labels.get(label)
        if value is None:
            expected = "/".join(labels)
            raise CorpusFormatError(path, line_no, f"expected label {expected}, got {label!r}")
        if len(fields) < 2:
            raise CorpusFormatError(
                path, line_no, "need at least one utterance and a response")
        tokens = []
        for field in fields:
            t = parsed.get(field)
            if t is None:
                t = _parse_tokens(field, vocab_size, path, line_no)
                if not t:
                    i = len(tokens) + 1
                    raise CorpusFormatError(path, line_no, f"empty utterance {i}"
                                            if i < len(fields) else "empty response")
                parsed[field] = t
            tokens.append(t)
        context = tuple(tokens[:-1])
        if not position:
            first, candidates = context, []
            blocks.append((context, candidates))
        elif context != first:
            raise CorpusFormatError(
                path, line_no, "context differs from the first line of its block")
        candidates.append((tokens[-1], value))
    return header, blocks


def _with_noise_flags(blocks, meta, key, meta_path):
    """Triples from POS/NEG blocks, flagged from ``meta[key]`` when
    present; the list must hold one 0/1 flag per triple."""
    flags = meta.get(key)
    if flags is None:
        flags = [None] * len(blocks)
    elif not (isinstance(flags, list) and len(flags) == len(blocks)
              and all(f in (0, 1) for f in flags)):
        raise CorpusFormatError(
            meta_path, 1, f"{key} must list one 0/1 flag per triple ({len(blocks)})")
    else:
        flags = [bool(f) for f in flags]
    return tuple(PairwiseTriple(c, pos, neg, noise_flag=flag)
                 for (c, ((pos, _), (neg, _))), flag in zip(blocks, flags))


def _read_meta(path) -> dict:
    """The sidecar's JSON object; a missing sidecar means no metadata."""
    if not path.exists():
        return {}
    try:
        meta = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(path, exc.lineno, f"malformed JSON: {exc.msg}") from exc
    if not isinstance(meta, dict):
        raise CorpusFormatError(path, 1, "expected a JSON object")
    return meta


def load_corpus(path) -> Corpus:
    """Load a corpus directory written by :func:`save_corpus`."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = _read_meta(meta_path)
    h_train, train = _read_blocks(path / "train.txt", _TRIPLE_BLOCK)
    h_valid, valid = _read_blocks(path / "valid.txt", _TRIPLE_BLOCK)
    h_test, test = _read_blocks(path / "test.txt", _GROUP_BLOCK)

    headers = [h for h in (h_train, h_valid, h_test) if h is not None]
    if not headers:
        raise CorpusFormatError(path, 0, "no corpus files with headers found")
    if len(set(headers)) != 1:
        raise CorpusFormatError(path, 1, f"inconsistent headers across files: {headers}")
    vocab_size, n_candidates = headers[0]

    return Corpus(train=_with_noise_flags(train, meta, "train_noise_flags", meta_path),
                  valid=_with_noise_flags(valid, meta, "valid_noise_flags", meta_path),
                  test=tuple(TestGroup(c, tuple(candidates)) for c, candidates in test),
                  vocab_size=vocab_size, n_candidates=n_candidates,
                  seed=meta.get("seed"), noise_rate=meta.get("noise_rate"))
