"""Co-teaching framework for learning context-response matching models
from noisy training data.

Two peer matching models train simultaneously; each iteration every model
prepares the other's learning protocol (re-margined, re-weighted, or
curriculum-filtered training instances) from its own view of the data.
Includes a synthetic noisy-corpus generator, two small reference matchers
with analytic gradients, a ranking-evaluation harness, and a CLI pipeline.
"""

from .corpus import (Batch, Corpus, GenConfig, PairwiseTriple, TestGroup, Triples,
                     generate_synthetic_corpus, load_corpus, save_corpus)
from .engine import (OptimizerState, RunHistory, TrainConfig, adam_update,
                     coteach_step, coteach_train, pretrain, select_model,
                     split_batch, validation_p_at_1)
from .evaluation import (MetricsReport, RankedGroup, compute_metrics, ema,
                         filter_degenerate, paired_t_test, per_group_metrics,
                         rank_test_groups)
from .losses import LearningProtocol, cross_entropy, hinge_with_margin
from .matcher import (MatcherSpec, ModelState, init_params, load_checkpoint,
                      loss_and_grad, save_checkpoint, score, scores)
from .strategies import curriculum_protocol, margin_protocol, weighting_protocol

__all__ = [
    "Batch", "Corpus", "GenConfig", "PairwiseTriple", "TestGroup", "Triples",
    "generate_synthetic_corpus", "load_corpus", "save_corpus",
    "OptimizerState", "RunHistory", "TrainConfig", "adam_update",
    "coteach_step", "coteach_train", "pretrain", "select_model",
    "split_batch", "validation_p_at_1",
    "MetricsReport", "RankedGroup", "compute_metrics", "ema",
    "filter_degenerate", "paired_t_test", "per_group_metrics",
    "rank_test_groups",
    "LearningProtocol", "cross_entropy", "hinge_with_margin",
    "MatcherSpec", "ModelState", "init_params", "load_checkpoint",
    "loss_and_grad", "save_checkpoint", "score", "scores",
    "curriculum_protocol", "margin_protocol", "weighting_protocol",
]

__version__ = "0.1.0"
