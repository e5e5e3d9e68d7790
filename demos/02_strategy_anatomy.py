"""What each teaching strategy actually hands its peer.

A 'teacher' model turns a raw sub-batch of triples into a learning
protocol: dynamic margins for pairwise hinge training, per-example weights
for cross-entropy on the pointwise view, or a small-loss subset of that
view for curriculum training. A sub-batch is a set of positions in the
packed training split, and a protocol names its instances by position too:
pointwise example 2t is triple t's positive and 2t + 1 its negative, and a
margin instance pairs the two.
This script trains a quick teacher on noisy data and dissects the three
protocols it produces for one sub-batch — including how each one treats the
examples the generator secretly flagged as false negatives.

Run:  python demos/02_strategy_anatomy.py
"""

import numpy as np

from coteach import (Batch, GenConfig, MatcherSpec, TrainConfig, cross_entropy,
                     curriculum_protocol, generate_synthetic_corpus,
                     margin_protocol, pretrain, score, weighting_protocol)

config = GenConfig(vocab_size=200, n_topics=5, n_train=2000, n_valid=200,
                   n_test_contexts=20, turns_per_context=2,
                   tokens_per_utterance=6, false_negative_rate=0.3, seed=1)
corpus = generate_synthetic_corpus(config)

spec = MatcherSpec("mean-embedding-bilinear", vocab_size=200, embedding_dim=12)
teacher = pretrain(spec, corpus, TrainConfig(
    strategy="none", learning_rate=1e-3, batch_size=10, n_epochs=3,
    seed=1, eval_every=1000))

train = corpus.train
sub_batch = Batch(train, np.arange(8))  # the first 8 triples, by position
flags = [train[t].noise_flag for t in sub_batch.index]
print(f"sub-batch noise flags (generator truth): {flags}\n")


def example(e):
    """Pointwise example e of the training split: (y, context, response)."""
    t = train[e // 2]
    return (0, t.context, t.neg_response) if e % 2 else (1, t.context, t.pos_response)


print("== margin strategy: pairwise hinge with teacher-set margins ==")
protocol = margin_protocol(teacher, sub_batch, lam=0.5)
for ((pos, neg), margin), flag in zip(protocol.pairwise, flags):
    s_pos = score(teacher, *example(pos)[1:])
    s_neg = score(teacher, *example(neg)[1:])
    note = "suspected false negative -> margin collapses" if margin == 0 else ""
    print(f"  s+={s_pos:.3f} s-={s_neg:.3f} margin={margin:.3f} "
          f"noisy={flag!s:5} {note}")

print("\n== weighting strategy: soft down-weighting of dubious negatives ==")
protocol = weighting_protocol(teacher, sub_batch)
for e, weight in protocol.pointwise:
    y, context, response = example(e)
    if y == 0:
        s = score(teacher, context, response)
        print(f"  y=0 teacher score={s:.3f} -> weight={weight:.3f}")
print("  (every y=1 example keeps weight 1.0)")

print("\n== curriculum strategy: keep the smallest-loss fraction ==")
examples = range(2 * len(sub_batch))  # the view the strategy selects from
losses = [cross_entropy(y, score(teacher, c, r))
          for y, c, r in map(example, examples)]
for delta in (0.25, 0.5, 0.9):
    protocol = curriculum_protocol(teacher, sub_batch, delta=delta)
    kept = {e for e, _ in protocol.pointwise}
    kept_losses = [l for e, l in zip(examples, losses) if e in kept]
    print(f"  delta={delta}: kept {len(protocol.pointwise)}/{len(examples)} "
          f"examples, max kept loss {max(kept_losses):.3f} "
          f"(batch max {max(losses):.3f})")
