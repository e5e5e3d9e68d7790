"""Test oracles that no pipeline path needs.

``finite_diff_check`` is the gradient oracle: it calls
``matcher.loss_and_grad`` through the module, so a test that swaps that
attribute sees its checker use the swapped function.
``reference_corpus_files`` is the corpus writer's: each id formatted on its
own with ``str``, a line at a time. ``reference_read_split`` is the corpus
reader's: the whole file decoded at once and parsed line by line.
``ranked_group`` builds a ``RankedGroup`` from its (index, score, label)
entries, as a ranking oracle writes them.
"""

import numpy as np

from coteach import corpus, matcher
from coteach.corpus import CorpusFormatError
from coteach.evaluation import RankedGroup
from coteach.losses import LearningProtocol
from coteach.matcher import ModelState


def finite_diff_check(model: ModelState, protocol: LearningProtocol,
                      step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate the relative error is |g - fd| / max(|g|, |fd|, 1e-8).
    The difference quotient is evaluated in extended precision so its
    roundoff cannot mask genuine gradient bugs at small step sizes. It
    differences the loss only, so it is independent of the backward.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, grad = matcher.loss_and_grad(model, protocol)
    packed, labels, coef = matcher._protocol_arrays(protocol, model.spec.vocab_size)

    def loss_at(params):
        z, _ = matcher._forward(model.spec, params, packed)
        return matcher._loss(protocol.loss_kind, z, labels, coef)[0]

    worst = 0.0
    params = model.params.astype(np.longdouble)
    step_ld = np.longdouble(step)
    for i in range(params.size):
        saved = params[i]
        params[i] = saved + step_ld
        f_plus = loss_at(params)
        params[i] = saved - step_ld
        f_minus = loss_at(params)
        params[i] = saved
        fd = float((f_plus - f_minus) / (2.0 * step_ld))
        err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def ranked_group(context_id: int, entries) -> RankedGroup:
    """The RankedGroup of rank-ordered (index, score, label) ``entries``."""
    entries = tuple(entries)
    return RankedGroup(context_id, np.array([i for i, _, _ in entries], np.intp),
                       np.array([s for _, s, _ in entries], float),
                       np.array([y for _, _, y in entries], np.intp))


def reference_corpus_files(corpus) -> dict:
    """The text of the three corpus files ``save_corpus`` writes for
    ``corpus``, keyed by file name."""
    header = f"#vocab={corpus.vocab_size} candidates={corpus.n_candidates}"

    def line(label, context, response):
        return "\t".join([label, *(" ".join(map(str, utt)) for utt in context),
                          " ".join(map(str, response))])

    files = {}
    for name, triples in (("train.txt", corpus.train), ("valid.txt", corpus.valid)):
        lines = [header]
        for t in triples:
            lines += [line("POS", t.context, t.pos_response),
                      line("NEG", t.context, t.neg_response)]
        files[name] = "\n".join(lines) + "\n"
    files["test.txt"] = "\n".join([header] + [
        line(str(label), g.context, response)
        for g in corpus.test for response, label in g.candidates]) + "\n"
    return files


def _parse_tokens(field: str, vocab_size: int, path, line_no: int) -> tuple[int, ...]:
    try:
        if "_" in field:  # int() reads 2_2 as 22; an id is digits alone
            raise ValueError
        tokens = tuple(map(int, field.split()))
    except ValueError as exc:
        raise CorpusFormatError(path, line_no, f"non-integer token in {field!r}") from exc
    if tokens and (min(tokens) < 0 or max(tokens) >= vocab_size):
        bad = next(t for t in tokens if not 0 <= t < vocab_size)
        raise CorpusFormatError(
            path, line_no, f"token ID {bad} outside vocab of size {vocab_size}")
    return tokens


def _read_blocks(path, block):
    """The header and the blocks of one corpus file, or (None, []) for a
    missing or empty file. A block is (context, [(response, value), ...]),
    laid out as ``block`` says."""
    if not path.exists():
        return None, []
    # A line ends at "\n", and a "\r" just before it is part of its end.
    *ended, rest = corpus.read_text(path).split("\n")
    lines = [line[:-1] if line.endswith("\r") else line for line in ended] + [rest] * bool(rest)
    if not lines:
        return None, []
    header = vocab_size, n_candidates = corpus._parse_header(lines[0], path, 1)
    lines = [(line_no, line) for line_no, line in enumerate(lines[1:], 2) if line]
    size, allowed = block
    size = size or n_candidates
    if len(lines) % size:
        raise CorpusFormatError(
            path, lines[-1][0], f"dangling line: blocks hold {size} lines")
    blocks = []
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
            t = _parse_tokens(field, vocab_size, path, line_no)
            if not t:
                i = len(tokens) + 1
                raise CorpusFormatError(path, line_no, f"empty utterance {i}"
                                        if i < len(fields) else "empty response")
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


def reference_read_split(path, block, parse: bool):
    """What ``corpus._read_split`` returns, from the whole file read line
    by line and packed by ``pack_groups``; the header alone is read as
    ``_read_split`` reads it."""
    if not parse:
        return corpus._read_split(path, block, parse)
    header, blocks = _read_blocks(path, block)
    return header, corpus.pack_groups([(c, [r for r, _ in lines]) for c, lines in blocks], None), (
        np.fromiter((value for _, lines in blocks for _, value in lines), np.intp))
