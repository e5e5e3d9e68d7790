"""Dialogue corpus data model and synthetic noisy-corpus generation.

A corpus holds pairwise training/validation triples (context, positive
response, negative response) and judged test groups of ranked candidates.
The synthetic generator builds a topic-separable corpus with a controllable
false-negative rate: with probability ``false_negative_rate`` the sampled
negative comes from the same topic as the context, i.e. it would be a
perfectly good response that is nevertheless labeled negative. Its items
are the ones ``_sample_triple`` and ``_sample_test_group`` draw call by
call, which define the stream; ``_sample_split`` draws the same stream as
PCG64 words in bulk (32-bit halves through PCG64's one-half buffer mapped
by Lemire's method, whole words for ``random()``), into packs.

This module owns the pack: a training or validation split is a
``Triples`` and the test split a ``TestGroups``. Each holds its items as
flat int arrays, packed and checked once, when it is built; it builds its
item tuples only when they are read.
A ``Batch`` addresses a split's triples by position, and ``gather`` takes
what ``matcher`` scores or trains on from a pack. ``load_corpus`` reads a
file once, a chunk of lines at a time, parsing each chunk's ids in one
array pass; a chunk not in canonical form is first parsed line by line.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed; carries the line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class PairwiseTriple:
    """A (context, positive response, negative response) training triple.

    ``context`` is a tuple of utterances, each a tuple of token IDs; the
    most recent utterance is last. ``noise_flag`` marks synthetic false
    negatives (negative drawn from the context's own topic). It exists for
    diagnostics only and is absent (None) for non-synthetic corpora;
    training code never reads it.
    """

    context: tuple[tuple[int, ...], ...]
    pos_response: tuple[int, ...]
    neg_response: tuple[int, ...]
    noise_flag: bool | None = None


@dataclass(frozen=True)
class TestGroup:
    """A judged test context and its ``candidates``, (response, human_label)
    pairs, label 1 meaning the response is appropriate for the context."""

    context: tuple[tuple[int, ...], ...]
    candidates: tuple[tuple[tuple[int, ...], int], ...]


class Packed(NamedTuple):
    """Flat token ids of all context utterances, context by context, then
    of every response. Segment k is ``ids[starts[k]:starts[k] + lengths[k]]``;
    context j is the ``n_utts[j]`` segments from segment ``ctx_starts[j]``
    on and serves the next ``runs[j]`` responses (``runs`` each, if it is
    one count), whose segments start at segment ``n_ctx``."""

    ids: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    n_utts: np.ndarray
    ctx_starts: np.ndarray
    runs: np.ndarray | int
    n_ctx: int


def pack_groups(groups, vocab_size: int | None) -> Packed:
    """Flatten a sequence of (context, responses) groups, validating every
    token once (ids below 0, or at or past ``vocab_size`` if given); each
    group's context is packed once."""
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
    if ids.size and (ids.min() < 0 or vocab_size is not None
                     and ids.max() >= vocab_size):
        raise ValueError("token ID out of range for vocab")
    return Packed(ids, lengths, lengths.cumsum() - lengths, n_utts,
                  n_utts.cumsum() - n_utts, runs, n_ctx)


class _Split(Sequence):
    """A split's ``pack`` and per-item ``columns``; items given are packed,
    and so checked against ``vocab_size``, when the split is built. Its item
    tuples are built from them when first read. Compares as the tuple of
    its items."""

    def __init__(self, items=(), vocab_size: int | None = None, pack=None, **columns):
        self.vocab_size = vocab_size
        if pack is None:
            groups, columns = self._unbuild(tuple(items))
            pack = pack_groups(groups, vocab_size)
        self.pack = pack
        vars(self).update(columns)

    @cached_property
    def _items(self) -> tuple:
        ids = iter(self.pack.ids.tolist())
        segments = [tuple(islice(ids, n)) for n in self.pack.lengths.tolist()]
        contexts, responses = iter(segments), iter(segments[self.pack.n_ctx:])
        return tuple(self._build((tuple(islice(contexts, n)), tuple(islice(responses, runs)))
                                 for n, runs in zip(self.pack.n_utts.tolist(),
                                                    self.pack.runs.tolist())))

    @cached_property
    def top_id(self) -> int:
        """The largest token id in the pack, or -1."""
        return int(self.pack.ids.max(initial=-1))

    def __len__(self) -> int:
        return len(self.pack.n_utts)

    def __getitem__(self, index):
        return self._items[index]

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Split)):
            return NotImplemented
        return self._items == tuple(other)

    def _gather(self, groups, responses, runs, vocab_size: int) -> Packed:
        """The Packed contexts at ``groups`` with the responses at positions
        ``responses``, ``runs`` a group, tokens in ``pack_groups``' order for
        the same groups; a token at or past ``vocab_size`` raises."""
        if self.top_id >= vocab_size:
            raise ValueError("token ID out of range for vocab")
        pack = self.pack
        n_utts = pack.n_utts[groups]
        utterances, ctx_starts = _spans(pack.ctx_starts[groups], n_utts)
        segments = np.concatenate([utterances, pack.n_ctx + responses])
        lengths = pack.lengths[segments]
        tokens, starts = _spans(pack.starts[segments], lengths)
        return Packed(pack.ids[tokens], lengths, starts, n_utts, ctx_starts, runs,
                      utterances.size)


class Triples(_Split):
    """Pairwise triples, as a split holds them. ``pack`` is the Packed
    group (context, (positive, negative)) of every triple, so pointwise
    example 2t + k (t's positive for k = 0, negative for k = 1) is segment
    ``n_ctx + 2t + k``; the column ``flags`` holds noise flags."""

    @staticmethod
    def _unbuild(items):
        return ([(t.context, (t.pos_response, t.neg_response)) for t in items],
                dict(flags=[t.noise_flag for t in items]))

    def _build(self, groups):
        return (PairwiseTriple(context, pos, neg, flag)
                for (context, (pos, neg)), flag in zip(groups, self.flags))

    def gather(self, examples: np.ndarray, vocab_size: int) -> Packed:
        """The Packed groups of the pointwise examples in each row of
        ``examples``, with the context of the row's first example."""
        return self._gather(examples[:, 0] >> 1, examples.ravel(), examples.shape[1],
                            vocab_size)


class TestGroups(_Split):
    """Judged test groups, as a corpus holds them. ``pack`` is the Packed
    group (context, responses) of every group, and the column ``labels``
    holds the candidates' labels in the pack's response order."""

    @staticmethod
    def _unbuild(items):
        return ([(g.context, [response for response, _ in g.candidates]) for g in items],
                dict(labels=np.fromiter((y for g in items for _, y in g.candidates), np.intp)))

    def _build(self, groups):
        labels = iter(self.labels.tolist())
        return (TestGroup(context, tuple(zip(responses, labels)))
                for context, responses in groups)

    def gather(self, index: np.ndarray, vocab_size: int) -> Packed:
        """The Packed groups at positions ``index``."""
        runs = self.pack.runs
        responses, _ = _spans((runs.cumsum() - runs)[index], runs[index])
        return self._gather(index, responses, runs[index], vocab_size)


def _spans(starts: np.ndarray, counts: np.ndarray):
    """The ranges [starts[i], starts[i] + counts[i]) concatenated, and the
    offset of each range in the result."""
    offsets = counts.cumsum() - counts
    return (np.arange(offsets[-1] + counts[-1]) + (starts - offsets).repeat(counts),
            offsets)


@dataclass(frozen=True, eq=False)
class Batch:
    """The triples of a Triples ``split`` at the positions in ``index``, a
    1-d integer array; a batch indexed by positions is a batch too."""

    split: Triples
    index: np.ndarray

    def __post_init__(self):
        index = np.asarray(self.index)
        if not (isinstance(self.split, Triples) and index.ndim == 1
                and index.dtype.kind in "iu"):
            raise TypeError("a batch is a Triples split and a 1-d integer index array")
        if index.size and not (0 <= index.min() and index.max() < len(self.split)):
            raise ValueError("batch position outside the split")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, positions) -> Batch:
        return Batch(self.split, self.index[positions])

    def examples(self) -> np.ndarray:
        """A row per triple: the pointwise positions of its positive, negative."""
        return 2 * self.index[:, None] + (0, 1)


def as_batch(triples) -> Batch:
    """A Batch as it is, or a whole Triples split as a Batch; raises if empty."""
    batch = triples if isinstance(triples, Batch) else Batch(triples, np.arange(len(triples)))
    if not len(batch):
        raise ValueError("empty batch of triples")
    return batch


@dataclass(frozen=True)
class Corpus:
    """``train`` and ``valid`` become Triples and ``test`` TestGroups over
    ``vocab_size``, or stay as they are, pack included, if they are; a bad
    triple or group is rejected when its split is built."""

    train: Triples
    valid: Triples
    test: TestGroups
    vocab_size: int
    n_candidates: int = 10
    seed: int | None = None
    noise_rate: float | None = None

    def __post_init__(self):
        for name, kind in (("train", Triples), ("valid", Triples), ("test", TestGroups)):
            split = getattr(self, name)
            if not (isinstance(split, kind) and split.vocab_size == self.vocab_size):
                object.__setattr__(self, name, kind(split, self.vocab_size))


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
        for name in ("vocab_size", "n_train", "n_valid", "n_test_contexts",
                     "turns_per_context", "tokens_per_utterance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("vocab_size", "n_topics", "n_train", "n_valid", "n_test_contexts",
                     "n_candidates", "turns_per_context", "tokens_per_utterance"):
            if getattr(self, name) >= 2**63:  # past numpy's int64 sizes
                raise ValueError(f"{name} must be below 2**63")
        if self.tokens_per_utterance >= 2**60:  # an utterance past 2**63 bytes
            raise ValueError("tokens_per_utterance must be below 2**60")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_topics < 2:
            raise ValueError("n_topics must be at least 2: negatives come from "
                             "another topic")
        if self.n_candidates < 2:
            raise ValueError("n_candidates must be at least 2: a test group "
                             "holds a positive and a negative")
        if not 0.0 <= self.false_negative_rate <= 1.0:
            raise ValueError("false_negative_rate must lie in [0, 1]")
        if self.vocab_size // self.n_topics < 2:
            raise ValueError(
                "vocab_size too small to give each topic a disjoint token "
                "range of at least 2 tokens")


def _sample_utterance(rng, config: GenConfig, topic: int) -> tuple[int, ...]:
    # Topics own disjoint, equal-width token ranges so a bag-of-tokens model
    # can separate them; leftover tokens at the top of the vocab are unused.
    width = config.vocab_size // config.n_topics
    return tuple(rng.integers(topic * width, (topic + 1) * width,
                              size=config.tokens_per_utterance).tolist())


def _sample_context(rng, config: GenConfig, topic: int):
    return tuple(_sample_utterance(rng, config, topic)
                 for _ in range(config.turns_per_context))


def _other_topic(rng, config: GenConfig, topic: int) -> int:
    """A topic drawn uniformly from all but ``topic``."""
    other = int(rng.integers(config.n_topics - 1))
    return other + (other >= topic)


def _sample_triple(rng, config: GenConfig) -> PairwiseTriple:
    topic = int(rng.integers(config.n_topics))
    context = _sample_context(rng, config, topic)
    pos = _sample_utterance(rng, config, topic)
    is_noise = bool(rng.random() < config.false_negative_rate)
    neg_topic = topic if is_noise else _other_topic(rng, config, topic)
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
            cand_topic = (topic if rng.random() < _TEST_POSITIVE_PROB
                          else _other_topic(rng, config, topic))
            response = _sample_utterance(rng, config, cand_topic)
            candidates.append((response, int(cand_topic == topic)))
        labels = {label for _, label in candidates}
        if len(labels) == 2:  # regenerate degenerate groups
            return TestGroup(context, tuple(candidates))


_CHUNK_WORDS = 1 << 14  # the most words a chunk draws, whatever the config


def _bounded(halves: np.ndarray, n: int):
    """Lemire's draws below ``n`` (2 to 2**32) from 32-bit ``halves``, and
    which of them it would reject."""
    m = halves * np.uint64(n)
    return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) < 2**32 % n


def _sample_split(rng, config: GenConfig, n: int, triples: bool) -> _Split:
    """The ``n`` items that as many ``_sample_triple`` calls (or
    ``_sample_test_group``, if not ``triples``) draw from ``rng``, leaving
    it where they do. Those calls define the stream, drawn in chunks of raw
    words here. default_rng is PCG64. `integers` over n <= 2**32 values maps
    a 32-bit half a value by Lemire's method, taking another half while the
    low 32 bits of half * n fall below 2**32 % n. Halves come through
    PCG64's one-half buffer: a fresh word gives its low half, and its high
    half waits for the next 32-bit draw, even in a later call. `random()`
    takes a whole word, (word >> 11) * 2**-53, and leaves the buffer alone;
    `integers(1)` draws nothing; wider ranges draw whole words.

    A scalar loop reads a chunk's whole words and counts the halves between
    them; one array pass maps halves to values. An item that pass cannot
    model (a rejected half, a negative equal to its positive, one past the
    chunk or a range past 2**32) ends the chunk and is drawn per call."""
    bitgen, k, turns, n_topics = (rng.bit_generator, config.tokens_per_utterance,
                                  config.turns_per_context, config.n_topics)
    width, other = config.vocab_size // n_topics, int(n_topics > 2)
    n_resp, cut = (2, config.false_negative_rate) if triples else (
        config.n_candidates, _TEST_POSITIVE_PROB)
    # The pack's ids and the marks, written in place: a context and a response row an item.
    ids, marks = np.empty(n * (turns + n_resp) * k, np.intp), np.empty((n, n_resp), bool)
    contexts, responses = (part.reshape(n, -1) for part in np.split(ids, [n * turns * k]))
    done, limit, misses, wait = 0, n, 0, 0

    def word_at(h):  # the words h halves take from the chunk, the first buffered if p
        return (h - p + 1) // 2

    def scan(h, nw):
        """(halves, words) that the chunk holds after one more item, or
        None; the item's utterance starts, own-topic marks and word reads
        go to ``at``, ``own`` and ``reads``."""
        at.extend(range(h + 1, h + 1 + turns * k, k))  # after its topic's half
        own.extend([True] * turns)
        h += 1 + turns * k
        while True:
            for r in range(n_resp):
                mark = True
                if r or not triples:  # all but a triple's positive draw a word
                    if word_at(h) + nw >= len(below):
                        return None
                    reads.append(word_at(h) + nw)
                    mark, nw = below[reads[-1]], nw + 1
                h += other * (not mark)  # the other topic's half
                at.append(h)
                own.append(mark)
                h += k
            if triples or True in own[-n_resp:] and False in own[-n_resp:]:
                return (h, nw) if word_at(h) + nw <= len(below) else None
            del at[-n_resp:], own[-n_resp:]  # a degenerate group is drawn again

    while done < n:
        scanned, spots, at, own, reads = 0, [(0, 0)], [], [], []
        if max(width, n_topics) <= 2**32 and done >= wait:
            state = bitgen.state
            p = state["has_uint32"]
            words = bitgen.random_raw(
                min(_CHUNK_WORDS, limit * (turns * k + 2 * n_resp * (k + 2))))
            bitgen.state = state
            below = ((words >> 11) * 2.0**-53 < cut).tolist()
            while scanned < min(limit, n - done) and (end := scan(*spots[-1])):
                spots.append(end)
                scanned += 1
        if scanned:
            h, nw = spots[-1]
            sources = np.delete(words[:word_at(h) + nw], reads[:nw]).astype("<u8", copy=False)
            halves = np.concatenate([np.full(p, state["uinteger"], np.uint64),
                                     sources.view("<u4").astype(np.uint64)])
            at = np.array(at[:scanned * (turns + n_resp)], np.intp).reshape(scanned, -1)
            own = np.array(own[:at.size], bool).reshape(scanned, -1)
            topic = _bounded(halves[at[:, :1] - 1], n_topics)[0]
            alt = _bounded(halves[at - 1], n_topics - 1)[0] if other else 0
            tokens = _bounded(halves[at[:, :, None] + np.arange(k)], width)[0] + width * (
                np.where(own, topic, alt + (alt >= topic))[:, :, None])
            tokens = tokens.reshape(scanned, -1)
            bad = np.flatnonzero(np.any([_bounded(halves[:h], modulus)[1]
                                         for modulus in {width, n_topics, n_topics - 1}], 0))
            same = triples and (tokens[:, -2 * k:-k] == tokens[:, -k:]).all(1)
            m = int(min([scanned, *np.searchsorted(at[:, 0] - 1, bad[:1], "right") - 1,
                         *np.flatnonzero(same)[:1]]))
            contexts[done:done + m], responses[done:done + m] = np.split(
                tokens[:m], [turns * k], 1)
            marks[done:done + m] = own[:m, turns:]
            done, limit = done + m, 2 * limit if m == scanned else m + 1
            h, nw = spots[m]  # to item m's first word and buffered half
            bitgen.advance(word_at(h) + nw)
            bitgen.state = {**bitgen.state, "has_uint32": (h - p) % 2, "uinteger": int(
                halves[p + 2 * word_at(h) - 1]) if word_at(h) else state["uinteger"]}
            misses = 0 if m else 2 * misses + 1  # chunks in a row that drew nothing
            if m == scanned:
                continue
            wait = done + 1 + misses  # the items before the next chunk, drawn per call
        item = (_sample_triple if triples else _sample_test_group)(rng, config)
        pairs = ((item.pos_response, True), (item.neg_response, item.noise_flag)
                 ) if triples else item.candidates
        utterances, marks[done] = zip(*pairs)
        contexts[done], responses[done] = list(chain(*item.context)), list(chain(*utterances))
        done += 1
    lengths, n_utts = np.full(ids.size // k, k), np.full(n, turns)
    pack = Packed(ids, lengths, lengths.cumsum() - lengths, n_utts,
                  n_utts.cumsum() - n_utts, np.full(n, n_resp), n * turns)
    kind, column = (Triples, dict(flags=marks[:, 1].tolist())) if triples else (
        TestGroups, dict(labels=marks.ravel().astype(np.intp)))
    return kind(vocab_size=config.vocab_size, pack=pack, **column)


def generate_synthetic_corpus(config: GenConfig) -> Corpus:
    """A deterministic synthetic corpus from ``config``. Each context and its
    true response live in a single topic. Training and validation negatives
    come from the same topic with probability ``false_negative_rate``
    (marked ``noise_flag=True``), otherwise from a different topic. Test
    groups carry clean labels (positive iff the candidate shares the
    context's topic) and always hold a positive and a negative.
    """
    rng = np.random.default_rng(config.seed)
    train, valid, test = (_sample_split(rng, config, n, triples) for n, triples in (
        (config.n_train, True), (config.n_valid, True), (config.n_test_contexts, False)))
    return Corpus(train=train, valid=valid, test=test,
                  vocab_size=config.vocab_size,
                  n_candidates=config.n_candidates,
                  seed=config.seed, noise_rate=config.false_negative_rate)


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
# The reader takes a chunk of lines in save_corpus's canonical form (one
# space, tab or line end after each id of 1-19 ASCII digits, no leading
# zero) straight to one array pass over its ids; any other chunk is first
# parsed line by line, which words every error.
# ----------------------------------------------------------------------

_HEADER_PREFIX = "#vocab="
# The splits a corpus holds, each in the file of its name with ".txt".
SPLITS = ("train", "valid", "test")


# (lines per block, labels by position): each position's labels map to the
# value a loaded block holds for them, and positions past the last reuse the
# labels from the first. None lines per block means the header's candidate
# count, so nothing is ever sized by that untrusted count.
_TRIPLE_BLOCK = 2, ({"POS": 1}, {"NEG": 0})
_GROUP_BLOCK = None, ({"0": 0, "1": 1},)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` by way of a temp file that replaces
    ``path`` only when the block ends without error, else is removed; an
    OSError on the temp file names ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())  # the bytes are on disk before the rename
        os.replace(tmp, path)
    except BaseException as exc:
        Path(tmp).unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


# Groups a corpus file is written from per array pass, so the writer holds
# one chunk whatever the corpus size. On the cli-pipeline corpus, a save took
# 40 ms at 64 groups, 31 at 128 and 29 at 256, and peaked at 1.0, 1.7 and
# 3.4 MB traced, the same with 4x its test split (one pinned CPU).
_GROUPS_PER_WRITE = 128


def _lines(pack: Packed, labels: tuple, codes: np.ndarray) -> np.ndarray:
    """The bytes of a Packed chunk's lines, one a response: ``labels[codes[i]]``,
    the group's context fields and the response, each followed by a tab but
    the response by "\\n". Each id is formatted once, as a row of zero bytes,
    its digits and a separator; lines gather rows and drop the zeros."""
    rest, n, n_digits = pack.ids, len(labels), len(str(pack.ids.max()))
    rows = np.zeros((n + rest.size, max(n_digits, *map(len, labels)) + 1), np.uint8)
    for row, label in zip(rows, labels):
        row[-len(label) - 1:] = np.frombuffer(label + b"\t", np.uint8)
    for column in range(-2, -2 - n_digits, -1):  # the last digit first
        rest, digit = np.divmod(before := rest, 10)
        rows[n:, column] = (digit + ord("0")) * (before > 0)
    rows[n:, -2] |= ord("0")  # the one digit of 0
    rows[n:, -1] = ord(" ")
    firsts, ends = n + pack.starts, n + pack.starts + pack.lengths
    rows[ends - 1, -1] = np.where(np.arange(ends.size) < pack.n_ctx, ord("\t"), ord("\n"))
    group = np.repeat(np.arange(pack.n_utts.size), pack.runs)
    starts = np.stack([codes, firsts[pack.ctx_starts][group], firsts[pack.n_ctx:]], 1)
    stops = np.stack([codes + 1, ends[pack.ctx_starts + pack.n_utts - 1][group],
                      ends[pack.n_ctx:]], 1)
    text = rows.view(f"V{rows.shape[1]}")[_spans(starts.ravel(), (stops - starts).ravel())[0]]
    return text.view(np.uint8)[text.view(np.uint8) != 0]


def save_corpus(corpus: Corpus, path) -> None:
    """Write ``corpus`` under directory ``path`` (created if needed), from
    each split's pack, ``_GROUPS_PER_WRITE`` groups an array pass. A corpus
    that ``load_corpus`` could not read back raises ValueError before the
    first file is written."""
    splits = [getattr(corpus, name) for name in SPLITS]
    runs, labels = [split.pack.runs for split in splits], corpus.test.labels
    if min(corpus.vocab_size, corpus.n_candidates) <= 0:
        raise ValueError("vocab_size and n_candidates must be positive")
    if (runs[2] != corpus.n_candidates).any() or not (
            0 <= labels.min(initial=0) <= labels.max(initial=0) <= 1):
        raise ValueError(f"a test group must hold {corpus.n_candidates} candidates "
                         "labelled 0 or 1")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for name, split, counts, table in zip(SPLITS, splits, runs,
                                          [(b"POS", b"NEG")] * 2 + [(b"0", b"1")]):
        with atomic_open(path / f"{name}.txt", "wb") as f:
            f.write(b"#vocab=%d candidates=%d\n" % (corpus.vocab_size, corpus.n_candidates))
            end = 0
            for lo in range(0, counts.size, _GROUPS_PER_WRITE):
                groups = np.arange(lo, min(lo + _GROUPS_PER_WRITE, counts.size))
                responses = np.arange(end, end := end + counts[groups].sum())
                # A test line's label is its candidate's; a triple's, POS then NEG.
                codes = labels[responses] if name == "test" else responses % 2
                f.write(_lines(split._gather(groups, responses, counts[groups],
                                             corpus.vocab_size), table, codes))
    meta = {"seed": corpus.seed, "noise_rate": corpus.noise_rate} | {
        f"{name}_noise_flags": None if None in split.flags else [int(f) for f in split.flags]
        for name, split in zip(SPLITS, splits[:2])}
    with atomic_open(path / "meta.json", encoding="utf-8") as f:
        f.write(json.dumps(meta))


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


def _decode(data: bytes, path, line_no: int = 0, offset: int = 0) -> str:
    """``data``, from byte ``offset`` and after line ``line_no`` of ``path``,
    as UTF-8 text; invalid UTF-8 raises CorpusFormatError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the first bad byte: one past the line ends before it.
        line_no += data.count(b"\n", 0, exc.start) + 1
        raise CorpusFormatError(path, line_no, f"invalid UTF-8 at byte {offset + exc.start}") from exc


def read_text(path) -> str:
    """A file's UTF-8 text."""
    with open(path, "rb") as f:
        return _decode(f.read(), path)


def parse_metric(cell: str) -> float:
    """The number in a CSV cell that holds a metric, which lies in [0, 1]."""
    value = float(cell)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise ValueError(f"{cell!r} is not a metric in [0, 1]")
    return value


def write_csv(path, header, rows) -> None:
    """Write a header row and then ``rows`` of ready-formatted cells as CSV."""
    with atomic_open(path, newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


# Lines a corpus file is read in per pass, so the reader holds one chunk of
# them. Cli-pipeline corpus, one CPU, medians of 25 alternating in-process
# loads: valid and test took 1.06, 0.93 and 0.90 x the whole-file read's time
# at 256, 512 and 1,024 lines; test.txt peaked at 5.3, 5.3, 5.4 against 9.5 MB.
_LINES_PER_READ = 1024


def _parse_fields(fields, vocab_size: int, path, line_no: int, parsed: dict) -> list:
    """One line's ``fields``, each a non-empty run of ids below ``vocab_size``, as
    the bytes ``save_corpus`` writes for them; ``parsed`` caches those by text for
    one chunk, never a field that fails, so every error is raised at its line."""
    written = []
    for i, field in enumerate(fields, 1):
        if field not in parsed:
            try:
                if "_" in field:  # int() reads 2_2 as 22; an id is digits alone
                    raise ValueError
                tokens = tuple(map(int, field.split()))
            except ValueError as exc:
                raise CorpusFormatError(path, line_no, f"non-integer token in {field!r}") from exc
            if not tokens:
                raise CorpusFormatError(path, line_no, f"empty utterance {i}"
                                        if i < len(fields) else "empty response")
            if min(tokens) < 0 or max(tokens) >= min(vocab_size, 2**63):
                bad = next(t for t in tokens if not 0 <= t < min(vocab_size, 2**63))
                raise CorpusFormatError(path, line_no, f"token ID {bad} " + (
                    "past int64" if 0 <= bad < vocab_size else f"outside vocab of size {vocab_size}"))
            parsed[field] = " ".join(map(str, tokens)).encode()
        written.append(parsed[field])
    return written


def _read_lines(path, lines, block, header, index, first, by_line: bool):
    """A chunk's arrays as ``_read_split`` joins them, then the context of the
    block open at its end, from its non-empty (line number, line) ``lines``
    after ``index`` body lines, ``first`` the context of the block open there.
    ``by_line``, lines are text, each field parsed on its line; else they are
    bytes with their line ends, and a chunk not in canonical form raises."""
    size, allowed = block[0] or header[1], block[1]
    tab, tables = ("\t", allowed) if by_line else (b"\t", [
        {label.encode(): value for label, value in labels.items()} for labels in allowed])
    # Later lines of a block repeat its first context, so only it is kept;
    # responses follow all contexts, as they do in a pack.
    parsed, context, contexts, n_utts, responses, values = {}, first, [], [], [], []
    for index, (line_no, line) in enumerate(lines, index):
        position = index % size
        fields = line.split(tab)
        value = tables[position % len(tables)].get(fields[0])
        if value is None:
            expected = "/".join(allowed[position % len(allowed)])
            raise CorpusFormatError(path, line_no, f"expected label {expected}, got {fields[0]!r}")
        if len(fields) < 3:
            raise CorpusFormatError(path, line_no, "need at least one utterance and a response")
        if by_line:
            fields[1:] = _parse_fields(fields[1:], header[0], path, line_no, parsed)
            fields[-1] += b"\n"
        if not position:
            context = fields[1:-1]
            contexts += context
            n_utts.append(len(context))
        elif fields[1:-1] != context:
            raise CorpusFormatError(
                path, line_no, "context differs from the first line of its block")
        responses.append(fields[-1])
        values.append(value)
    # One array pass parses the ids: 1 to 19 ASCII digits, no leading zero, each
    # ended by one space or by the tab or line end that ends its field; a tab leads.
    text = b"\t".join([b""] + contexts + [b""]) + b"".join(responses).replace(b"\r\n", b"\n")
    chars = np.frombuffer(text, np.uint8)
    seps = np.flatnonzero((chars < 48) | (chars > 57))
    kinds, digits = chars[seps], np.diff(seps) - 1
    if not (text.endswith(b"\n") and ((kinds == 32) | (kinds == 9) | (kinds == 10)).all()
            and 1 <= digits.min(initial=1) <= digits.max(initial=1) <= 19
            and not ((chars[seps[:-1] + 1] == 48) & (digits > 1)).any()) or int(
                (ids := np.fromstring(text, np.uint64, sep=" ")).max(initial=0)
            ) >= min(header[0], 2**63):
        raise CorpusFormatError(path, line_no, "not in canonical form")
    lengths, n = np.diff(np.flatnonzero(kinds != 32)), len(contexts)
    ids, cut = ids.view(np.int64), int(lengths[:n].sum())
    return (ids[:cut], lengths[:n], ids[cut:], lengths[n:], np.array(n_utts, np.intp),
            np.array(values, np.intp), context)


def _read_split(path, block, parse: bool):
    """The header, pack and line values of one corpus file, or of its first
    line alone if not ``parse``. The file is read once: its first line, then
    ``_LINES_PER_READ`` lines at a time; a line ends at "\\n", a "\\r" just
    before it included. A bad file raises what reading it whole, line by
    line, would: its first invalid UTF-8, else a bad header, a dangling line
    or its first bad line."""
    # Each part is a chunk's arrays and the context of the block open after it.
    parts, header, error = [(np.zeros(0, np.intp),) * 6 + ([],)], None, None
    line_no = n_lines = last = 0
    with open(path, "rb") if path.exists() else io.BytesIO() as f:
        chunks = chain([[f.readline()]], iter(lambda: list(islice(f, _LINES_PER_READ)), []))
        for chunk in islice(chunks, None if parse else 1):
            body, part = list(enumerate(chunk, line_no + 1)), None
            if header and not error:  # a chunk of canonical lines is read as bytes
                with suppress(CorpusFormatError):
                    part = _read_lines(path, body, block, header, n_lines, parts[-1][-1], False)
            if not part:  # any other chunk is decoded and read line by line
                data = b"".join(chunk)
                *ended, rest = _decode(data, path, line_no, f.tell() - len(data)).split("\n")
                chunk = [line.removesuffix("\r") for line in ended] + [rest][:bool(rest)]
                body = [(no, line) for no, line in enumerate(chunk, line_no + 1) if line and no > 1]
                try:
                    if chunk and not line_no:
                        header = _parse_header(chunk[0], path, 1)
                    if body and header and not error:
                        part = _read_lines(path, body, block, header, n_lines, parts[-1][-1], True)
                except CorpusFormatError as exc:
                    error = exc
            line_no, n_lines, last = line_no + len(chunk), n_lines + len(body), (
                body[-1][0] if body else last)
            if part:
                parts.append(part)
    size = header and (block[0] or header[1])
    if size and n_lines % size:
        raise CorpusFormatError(path, last, f"dangling line: blocks hold {size} lines")
    if error:
        raise error
    ctx_ids, ctx_lengths, ids, lengths, n_utts, values, _ = map(list, zip(*parts))
    lengths, n_utts = np.concatenate(ctx_lengths + lengths), np.concatenate(n_utts)
    # Blocks of n_lines / n_blocks lines: the header's count may be past int64.
    return header, Packed(np.concatenate(ctx_ids + ids), lengths, lengths.cumsum() - lengths,
                          n_utts, n_utts.cumsum() - n_utts,
                          np.full(n_utts.size, n_lines // max(n_utts.size, 1)),
                          sum(map(len, ctx_lengths))), np.concatenate(values)


def _noise_flags(meta, key, n_triples, meta_path) -> list:
    """The flags in ``meta[key]``, None each when absent; the list must
    hold one 0/1 flag per triple."""
    flags = meta.get(key)
    if flags is None:
        return [None] * n_triples
    if not (isinstance(flags, list) and len(flags) == n_triples
            and all(f in (0, 1) for f in flags)):
        raise CorpusFormatError(
            meta_path, 1, f"{key} must list one 0/1 flag per triple ({n_triples})")
    return [bool(f) for f in flags]


def _read_meta(path) -> dict:
    """The sidecar's JSON object; a missing sidecar means no metadata."""
    if not path.exists():
        return {}
    try:
        meta = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(path, exc.lineno, f"malformed JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise CorpusFormatError(path, 1, "malformed JSON: nested too deeply") from exc
    if not isinstance(meta, dict):
        raise CorpusFormatError(path, 1, "expected a JSON object")
    return meta


def load_corpus(path, splits=SPLITS) -> Corpus:
    """Load a corpus directory written by :func:`save_corpus`, parsing only
    the named ``splits``; the others load empty, but all three headers are
    read and must agree."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = _read_meta(meta_path)
    read = {name: _read_split(path / f"{name}.txt", block, name in splits)
            for name, block in zip(SPLITS, (_TRIPLE_BLOCK, _TRIPLE_BLOCK, _GROUP_BLOCK))}

    headers = [h for h, *_ in read.values() if h is not None]
    if not headers:
        raise CorpusFormatError(path, 0, "no corpus files with headers found")
    if len(set(headers)) != 1:
        raise CorpusFormatError(path, 1, f"inconsistent headers across files: {headers}")
    vocab_size, n_candidates = headers[0]

    def triples(name):
        if name not in splits:
            return ()
        pack = read[name][1]
        return Triples(vocab_size=vocab_size, pack=pack, flags=_noise_flags(
            meta, f"{name}_noise_flags", len(pack.n_utts), meta_path))

    test = (TestGroups(vocab_size=vocab_size, pack=read["test"][1], labels=read["test"][2])
            if "test" in splits else ())
    return Corpus(train=triples("train"), valid=triples("valid"), test=test,
                  vocab_size=vocab_size, n_candidates=n_candidates,
                  seed=meta.get("seed"), noise_rate=meta.get("noise_rate"))
