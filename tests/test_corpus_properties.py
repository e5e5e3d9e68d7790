"""Property tests of the corpus file format: fuzzed text either loads or
raises CorpusFormatError, corpora are saved as a reference writer formats
them, id by id, whatever the writer's chunk size, and load back equal, a
corpus that could not load back is refused before any file is written, the
chunked reader loads what the whole-file reference reader loads, raising
where it raises, whatever its chunk size, the packs a load builds equal
those ``pack_groups`` builds from the reference reader's tuples, and the
bulk generator draws the items, and leaves the generator in the state,
that the per-call functions do."""

import re
import tempfile
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coteach import GenConfig, load_corpus, save_corpus
from coteach import corpus as corpus_module
from coteach.corpus import (CorpusFormatError, PairwiseTriple, Triples, _sample_test_group,
                            _sample_triple, generate_synthetic_corpus)
from coteach.corpus import TestGroup as CandidateGroup, TestGroups as CandidateGroups
from oracles import build_corpus, build_split, reference_corpus_files, reference_read_split

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Pieces of well-formed lines, so fuzzed text gets past the header and
# into the field parser instead of failing on the first byte.
PIECES = st.sampled_from(["POS", "NEG", "0", "1", "2", "7", "12", "-3", "x",
                          "\t", " ", "  ", "\n", "\r\n", "#vocab=", "=",
                          "candidates=", " ", "٣", "_", "+"])
BODY = st.one_of(st.lists(PIECES, max_size=60).map("".join), st.text(max_size=80))
HEADER = st.builds("#vocab={} candidates={}\n".format,
                   st.integers(-1, 20), st.integers(-1, 4))


def _load_or_format_error(files: dict):
    """load_corpus on a fresh directory holding ``files`` (name -> bytes);
    any exception but CorpusFormatError fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        try:
            load_corpus(tmp)
        except CorpusFormatError:
            pass


@SETTINGS
@given(header=HEADER, train=BODY, test=BODY)
def test_fuzzed_text_raises_only_format_errors(header, train, test):
    _load_or_format_error({"train.txt": (header + train).encode(),
                           "test.txt": (header + test).encode()})


@SETTINGS
@given(header=HEADER, body=st.binary(max_size=80),
       name=st.sampled_from(["train.txt", "valid.txt", "test.txt", "meta.json"]))
def test_fuzzed_bytes_raise_only_format_errors(header, body, name):
    _load_or_format_error({"valid.txt": header.encode(),
                           name: header.encode() + body})


# ---------------------------------------------------------------------------
# Generated corpora


# Ids either side of a change in digit count, for the wide vocabularies.
EDGE_IDS = [9, 10, 99, 100, 999, 1000, 10**18 - 1, 10**18, 2**63 - 2]


@st.composite
def corpus_fields(draw, least=st.integers(0, 1), vocab=st.integers(1, 30)):
    """The fields of ``oracles.build_corpus``: a Corpus's splits as tuples of
    items, its counts and metadata."""
    vocab = draw(vocab)
    n_candidates = draw(st.integers(1, 4))
    # Empty contexts, utterances and responses do not load, and are not
    # saved; half the corpora have none, so the round trip is exercised too.
    least = draw(least)
    ids = st.integers(0, vocab - 1) | st.sampled_from([0] + [i for i in EDGE_IDS if i < vocab])
    tokens = st.lists(ids, min_size=least, max_size=4).map(tuple)
    contexts = st.lists(tokens, min_size=least, max_size=3).map(tuple)

    def triples(flagged):
        flag = st.booleans() if flagged else st.none()
        return st.lists(st.builds(PairwiseTriple, contexts, tokens, tokens, flag),
                        max_size=5).map(tuple)

    candidate = st.tuples(tokens, st.integers(0, 1))
    groups = st.lists(st.builds(CandidateGroup, contexts,
                                st.lists(candidate, min_size=n_candidates,
                                         max_size=n_candidates).map(tuple)),
                      max_size=4).map(tuple)
    return dict(train=draw(triples(draw(st.booleans()))),
                valid=draw(triples(draw(st.booleans()))),
                test=draw(groups), vocab_size=vocab, n_candidates=n_candidates,
                seed=draw(st.none() | st.integers(0, 2 ** 31)),
                noise_rate=draw(st.none() | st.floats(0.0, 1.0)))


def corpora(**kwargs):
    return corpus_fields(**kwargs).map(lambda fields: build_corpus(**fields))


@SETTINGS
@given(fields=corpus_fields())
def test_save_matches_reference_and_load_inverts_it(fields):
    with tempfile.TemporaryDirectory() as tmp:
        blocks = ([(t.context, (t.pos_response, t.neg_response))
                   for t in fields["train"] + fields["valid"]]
                  + [(g.context, [r for r, _ in g.candidates]) for g in fields["test"]])
        # Only non-empty contexts, utterances and responses load back.
        if all(context and all(context) and all(responses)
               for context, responses in blocks):
            corpus = build_corpus(**fields)
            save_corpus(corpus, tmp)
            for name, text in reference_corpus_files(corpus).items():
                assert (Path(tmp) / name).read_bytes() == text.encode(), name
            assert load_corpus(tmp) == corpus
        else:
            # Such a corpus is refused when its splits are built.
            (Path(tmp) / "train.txt").write_bytes(b"before")
            with pytest.raises(ValueError, match="^(dialogue has no context utterances"
                                                 "|empty (utterance|response))$"):
                save_corpus(build_corpus(**fields), tmp)
            assert {p.name: p.read_bytes() for p in Path(tmp).iterdir()} == {
                "train.txt": b"before"}


@settings(SETTINGS, max_examples=100)
@given(corpus=corpora(least=st.just(1), vocab=st.sampled_from([2, 1000, 2**40, 2**63 - 1])))
@example(corpus=build_corpus(
    train=(PairwiseTriple(((2**63 - 2,),), (0,), (10**18,), True),) * 7,
    test=(CandidateGroup(((9,),), (((2**63 - 2,), 1), ((10,), 0))),) * 5,
    vocab_size=2**63 - 1, n_candidates=2))
def test_save_writes_the_reference_bytes(corpus):
    # Every chunk size writes the same bytes: one group a chunk, a size
    # that leaves a shorter last chunk, and the module's own.
    files = {name: text.encode() for name, text in reference_corpus_files(corpus).items()}
    n_groups = max(len(corpus.train), len(corpus.valid), len(corpus.test))
    partial = next(k for k in count(2) if n_groups % k or not n_groups)
    for chunk in (1, partial, corpus_module._GROUPS_PER_WRITE):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_module, "_GROUPS_PER_WRITE", chunk)
            save_corpus(corpus, tmp)
            for name, data in files.items():
                assert (Path(tmp) / name).read_bytes() == data, (name, chunk)


# ---------------------------------------------------------------------------
# The chunked reader against the whole-file reference reader

# Edits that take a canonical line off the array pass: extra or missing
# separators, line breaks that only str.splitlines knows, digits and ids
# that int() reads but the pass does not, ids past the vocab or past 19
# digits, and labels valid elsewhere in a block or nowhere.
EDITS = st.sampled_from(["", "\t", " ", "  ", "\n", "\r", "\r\n", "\x0b", "\x1c",
                         "٣", "+", "-", "_", "0", "7", "12", "99", "00012",
                         "12345678901234567890", "POS", "NEG", "1", "2", "x"])

ID = re.compile("[0-9]+")


@st.composite
def edited_files(draw):
    """The files save_corpus writes for a generated corpus, with one to
    three edits, each an edit piece or an id up to 40. Half replace a
    whole id after the header, which keeps a line canonical; the rest
    replace up to two characters anywhere."""
    files = reference_corpus_files(draw(corpora(least=st.just(1))))
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        text = files[name]
        ids = [m.span() for m in ID.finditer(text, text.find("\n") + 1)]
        if ids and draw(st.booleans()):
            start, stop = draw(st.sampled_from(ids))
        else:
            start = draw(st.integers(0, len(text)))
            stop = start + draw(st.integers(0, 2))
        files[name] = text[:start] + draw(EDITS | st.integers(0, 40).map(str)) + text[stop:]
    return files


def _outcome(root):
    """load_corpus(root), or the text of the CorpusFormatError it raises."""
    try:
        return load_corpus(root)
    except CorpusFormatError as exc:
        return str(exc)


# Chunks of one line, of 7 (so a block of 2 to 6 lines straddles two), and
# the module's own size.
LINES_PER_READ = pytest.mark.parametrize("lines_per_read", [
    1, 7, corpus_module._LINES_PER_READ])


def _reference_outcome(root):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_module, "_read_split", reference_read_split)
        return _outcome(root)


def _chunked_outcome(root, lines_per_read):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_module, "_LINES_PER_READ", lines_per_read)
        return _outcome(root)


@LINES_PER_READ
@settings(SETTINGS, max_examples=200)
@given(files=edited_files())
def test_chunked_reader_loads_what_the_reference_reader_loads(files, lines_per_read):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        assert _chunked_outcome(tmp, lines_per_read) == _reference_outcome(tmp)


def _edit_line(root, name, line_no, edit):
    """Apply ``edit`` to line ``line_no`` (from 1) of a file's bytes."""
    lines = (Path(root) / name).read_bytes().split(b"\n")
    lines[line_no - 1] = edit(lines[line_no - 1])
    (Path(root) / name).write_bytes(b"\n".join(lines))


def _crlf_from(line_no):
    def edit(root):
        path = Path(root) / "train.txt"
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[:line_no - 1] + [
            line + b"\r" if line else line for line in lines[line_no - 1:]]))
    return edit


# Edits that each sit in a later chunk than the first, whatever the chunk
# size: with 7 lines a chunk, test.txt's 6-line block from line 92 straddles
# the chunks from lines 86 and 93.
LATER_CHUNK_EDITS = {
    "bad-token": (lambda root: _edit_line(root, "test.txt", 80, lambda line: line + b" 60"),
                  r"test\.txt:80: token ID 60 outside vocab"),
    "bad-label": (lambda root: _edit_line(root, "train.txt", 100, lambda line: b"NEG" + line[3:]),
                  r"train\.txt:100: expected label POS, got 'NEG'"),
    "context-differs": (lambda root: _edit_line(root, "test.txt", 94,
                                                lambda line: line.replace(b"\t", b"\t0 ", 1)),
                        r"test\.txt:94: context differs from the first line of its block"),
    "invalid-utf8": (lambda root: _edit_line(root, "valid.txt", 60, lambda line: b"\xc3(" + line),
                     r"valid\.txt:60: invalid UTF-8 at byte \d+$"),
    "dangling-after-a-bad-token": (
        lambda root: (_edit_line(root, "train.txt", 100, lambda line: line + b" x"),
                      _edit_line(root, "train.txt", 241, lambda line: b"")),
        r"train\.txt:240: dangling line: blocks hold 2 lines"),
    "crlf-after-canonical": (_crlf_from(150), None),
}


@LINES_PER_READ
@pytest.mark.parametrize("case", LATER_CHUNK_EDITS)
def test_later_chunk_reports_what_the_reference_reader_reports(tiny_corpus, tmp_path,
                                                              case, lines_per_read):
    edit, message = LATER_CHUNK_EDITS[case]
    save_corpus(tiny_corpus, tmp_path)
    edit(tmp_path)
    outcome = _chunked_outcome(tmp_path, lines_per_read)
    assert outcome == _reference_outcome(tmp_path)
    if message is None:
        assert outcome == tiny_corpus
    else:
        assert re.search(message, outcome), outcome
    if case == "invalid-utf8":
        offset = (tmp_path / "valid.txt").read_bytes().index(b"\xc3(")
        assert outcome.endswith(f"at byte {offset}")


# A line ends only at "\n" (a "\r" just before it is part of its end):
# every other line break str.splitlines knows stays inside its line.
REFUSED_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                       "\u2028", "\u2029"]


@LINES_PER_READ
@pytest.mark.parametrize("spelling", REFUSED_LINE_BREAKS,
                         ids=lambda spelling: f"U+{ord(spelling):04X}")
def test_only_a_newline_ends_a_line(tmp_path, spelling, lines_per_read):
    path = tmp_path / "train.txt"
    path.write_text(f"#vocab=10 candidates=2\nPOS\t1 2\t3{spelling}NEG\t1 2\t4\n",
                    encoding="utf-8")
    outcome = _chunked_outcome(tmp_path, lines_per_read)
    assert outcome == _reference_outcome(tmp_path) == (
        f"{path}:2: dangling line: blocks hold 2 lines")
    path.write_text("#vocab=10 candidates=2\r\nPOS\t1 2\t3\r\nNEG\t1 2\t4\r\n")
    assert len(_chunked_outcome(tmp_path, lines_per_read).train) == 1


def _no_line_reader(fields, vocab_size, path, *args):
    raise AssertionError(f"{path.name} went to the line reader")


@settings(SETTINGS, max_examples=100)
@given(corpus=corpora(least=st.just(1)))
def test_saved_corpus_never_reaches_the_line_reader(corpus):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        save_corpus(corpus, tmp)
        mp.setattr(corpus_module, "_parse_fields", _no_line_reader)
        assert load_corpus(tmp) == corpus


def test_generated_corpus_never_reaches_the_line_reader(tmp_path, monkeypatch):
    corpus = generate_synthetic_corpus(GenConfig(
        vocab_size=1000, n_train=50, n_valid=20, n_test_contexts=20,
        false_negative_rate=0.3, seed=4))
    save_corpus(corpus, tmp_path)
    monkeypatch.setattr(corpus_module, "_parse_fields", _no_line_reader)
    assert load_corpus(tmp_path) == corpus


# ---------------------------------------------------------------------------
# The packs load_corpus builds against pack_groups of the reference reader's tuples


@LINES_PER_READ
@settings(SETTINGS, max_examples=150)
@given(files=edited_files() | corpora(least=st.just(1)).map(reference_corpus_files))
def test_loaded_packs_equal_pack_groups_of_the_line_readers_tuples(files, lines_per_read):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        loaded = _chunked_outcome(tmp, lines_per_read)
        if isinstance(loaded, str):
            return
        by_lines = _reference_outcome(tmp)
    groups = {
        "train": [(t.context, (t.pos_response, t.neg_response)) for t in by_lines.train],
        "valid": [(t.context, (t.pos_response, t.neg_response)) for t in by_lines.valid],
        "test": [(g.context, tuple(r for r, _ in g.candidates)) for g in by_lines.test],
    }
    for name, split_groups in groups.items():
        pack = getattr(loaded, name).pack
        reference = corpus_module.pack_groups(split_groups, loaded.vocab_size)
        for field, array, expected in zip(pack._fields, pack, reference):
            assert np.asarray(array).dtype == np.asarray(expected).dtype, (name, field)
            assert np.array_equal(array, expected), (name, field)
    assert loaded.test.labels.tolist() == [y for g in by_lines.test for _, y in g.candidates]
    # The tuples a loaded split builds on demand are the line reader's.
    assert (tuple(loaded.train), tuple(loaded.valid), tuple(loaded.test)) == (
        tuple(by_lines.train), tuple(by_lines.valid), tuple(by_lines.test))
    assert [t.noise_flag for t in loaded.train] == [t.noise_flag for t in by_lines.train]


# ---------------------------------------------------------------------------
# The bulk generator against the per-call functions that define its stream

# Ranges (tokens a topic, topics) from tiny to past the 32-bit draws:
# 2**31 + 1 rejects about half the halves it draws, 43,000,001 about one in
# 113, 2**32 takes the raw half and 2**32 + 1 or more whole words.
WIDTHS = st.integers(2, 40) | st.sampled_from([2**31 + 1, 43_000_001, 2**32, 2**40])
TOPICS = st.integers(2, 5) | st.sampled_from([2**31 + 1, 2**31 + 2, 2**32, 2**32 + 1])


@st.composite
def gen_configs(draw):
    n_topics = draw(TOPICS)
    width = draw(WIDTHS if n_topics < 6 else st.integers(2, 40))
    return GenConfig(
        vocab_size=n_topics * width + draw(st.integers(0, n_topics - 1)), n_topics=n_topics,
        n_train=draw(st.integers(1, 12)), n_valid=draw(st.integers(1, 4)),
        n_test_contexts=draw(st.integers(1, 8)), n_candidates=draw(st.integers(2, 5)),
        turns_per_context=draw(st.integers(1, 3)), tokens_per_utterance=draw(st.integers(1, 5)),
        false_negative_rate=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32)))


def _config(**changes):
    return replace(GenConfig(vocab_size=40, n_topics=4, n_train=10, n_valid=3,
                             n_test_contexts=6, n_candidates=4, turns_per_context=2,
                             tokens_per_utterance=2, false_negative_rate=0.3, seed=5),
                   **changes)


def _drawn_items(rng, config, sample, n):
    """The items ``n`` calls of ``sample`` draw from ``rng``, each a context
    and its (response, mark) pairs, as the PairwiseTriples or TestGroups
    they stand for; a triple's positive is marked True."""
    items = []
    for _ in range(n):
        context, pairs = sample(rng, config)
        if sample is _sample_triple:
            (pos, mark), (neg, flag) = pairs
            assert mark is True
            items.append(PairwiseTriple(context, pos, neg, flag))
        else:
            items.append(CandidateGroup(context, pairs))
    return tuple(items)


@settings(max_examples=200, deadline=None)
@given(config=gen_configs(), chunk=st.sampled_from([8, 40, 1 << 14]))
@example(config=_config(tokens_per_utterance=3), chunk=1 << 14)
@example(config=_config(vocab_size=20, n_topics=2), chunk=1 << 14)
@example(config=_config(vocab_size=8, tokens_per_utterance=1, turns_per_context=1,
                        false_negative_rate=1.0, n_train=30), chunk=1 << 14)
@example(config=_config(n_candidates=2, n_test_contexts=20), chunk=1 << 14)
@example(config=_config(vocab_size=4 * (2**31 + 1)), chunk=1 << 14)
@example(config=_config(vocab_size=4 * 2**32), chunk=1 << 14)
@example(config=_config(vocab_size=4 * 2**40), chunk=1 << 14)
@example(config=_config(vocab_size=2**33, n_topics=2**32), chunk=1 << 14)
@example(config=_config(vocab_size=2**32 + 4, n_topics=2**31 + 2, n_train=40), chunk=1 << 14)
@example(config=_config(false_negative_rate=0.0), chunk=40)
@example(config=_config(false_negative_rate=1.0), chunk=8)
def test_bulk_generator_draws_the_per_call_stream(config, chunk):
    rng = np.random.default_rng(config.seed)
    expected = [(_drawn_items(rng, config, sample, n), sample is _sample_triple)
                for sample, n in ((_sample_triple, config.n_train),
                                  (_sample_triple, config.n_valid),
                                  (_sample_test_group, config.n_test_contexts))]
    bulk = np.random.default_rng(config.seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus_module, "_CHUNK_WORDS", chunk)
        for items, triples in expected:
            split = corpus_module._sample_split(bulk, config, len(items), triples)
            assert split == build_split(items, config.vocab_size,
                                        Triples if triples else CandidateGroups)
            groups = [(t.context, (t.pos_response, t.neg_response)) if triples
                      else (t.context, tuple(r for r, _ in t.candidates)) for t in items]
            reference = corpus_module.pack_groups(groups, config.vocab_size)
            for field, array, wanted in zip(split.pack._fields, split.pack, reference):
                assert np.asarray(array).dtype == np.asarray(wanted).dtype, field
                assert np.array_equal(array, wanted), field
            if triples:
                assert split.flags == [t.noise_flag for t in items]
            else:
                assert split.labels.tolist() == [y for g in items for _, y in g.candidates]
    assert bulk.bit_generator.state == rng.bit_generator.state
    if chunk == 1 << 14:
        assert generate_synthetic_corpus(config) == build_corpus(
            *(items for items, _ in expected), vocab_size=config.vocab_size,
            n_candidates=config.n_candidates, seed=config.seed,
            noise_rate=config.false_negative_rate)
