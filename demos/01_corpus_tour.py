"""A tour of the synthetic noisy-corpus generator.

Generates a small topic-structured corpus, shows what a training triple and
a judged test group look like, measures how many negatives were silently
relabeled as false negatives, and round-trips everything through the
on-disk format.

Run:  python demos/01_corpus_tour.py
"""

import tempfile
from dataclasses import replace
from pathlib import Path

from coteach import GenConfig, generate_synthetic_corpus, load_corpus, save_corpus

config = GenConfig(vocab_size=200, n_topics=5, n_train=1000, n_valid=200,
                   n_test_contexts=20, n_candidates=10, turns_per_context=3,
                   tokens_per_utterance=8, false_negative_rate=0.3, seed=42)
corpus = generate_synthetic_corpus(config)

print("== sizes ==")
print(f"train triples   : {len(corpus.train)}")
print(f"valid triples   : {len(corpus.valid)}")
print(f"test contexts   : {len(corpus.test)} x {config.n_candidates} candidates")

triple = corpus.train[0]
print("\n== one training triple ==")
print(f"context ({len(triple.context)} turns): {triple.context}")
print(f"positive response : {triple.pos_response}")
print(f"negative response : {triple.neg_response}")
print(f"noise flag        : {triple.noise_flag}  "
      "(True = the 'negative' is secretly a plausible response)")

# The pointwise view is what cross-entropy training consumes: each triple's
# positive (y=1), then its negative (y=0). The weighting, curriculum and
# none strategies address triple t's two examples as positions 2t and
# 2t + 1 of the split; no example is ever copied out of it.
examples = [(1, triple.pos_response), (0, triple.neg_response)]
print("\npointwise view    :", examples)

group = corpus.test[0]
labels = [label for _, label in group.candidates]
print("\n== one judged test group ==")
print(f"candidate labels  : {labels}  (always a mix, so ranking is meaningful)")

realized = sum(t.noise_flag for t in corpus.train) / len(corpus.train)
print("\n== label noise ==")
print(f"configured false-negative rate : {config.false_negative_rate}")
print(f"realized fraction in train     : {realized:.3f}")

clean = generate_synthetic_corpus(replace(config, false_negative_rate=0.0))
print(f"with rate 0.0, flagged triples : {sum(t.noise_flag for t in clean.train)}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "corpus"
    save_corpus(corpus, out)
    files = sorted(p.name for p in out.iterdir())
    print("\n== on-disk format ==")
    print(f"files        : {files}")
    head = (out / "train.txt").read_text().splitlines()[:3]
    for line in head:
        print(f"train.txt    : {line[:70]}{'...' if len(line) > 70 else ''}")
    assert load_corpus(out) == corpus
    print("round trip   : loaded corpus equals the original, bit for bit")
