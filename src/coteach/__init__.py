"""Co-teaching framework for learning context-response matching models
from noisy training data.

Two peer matching models train simultaneously; each iteration every model
prepares the other's learning protocol (re-margined, re-weighted, or
curriculum-filtered training instances) from its own view of the data.
Includes a synthetic noisy-corpus generator, two small reference matchers
with analytic gradients, a ranking-evaluation harness, and a CLI pipeline.
"""

from .corpus import (Batch, GenConfig, generate_synthetic_corpus, load_corpus,
                     save_corpus)
from .engine import (TrainConfig, coteach_train, pretrain, select_model,
                     validation_p_at_1)
from .evaluation import (compute_metrics, filter_degenerate, paired_t_test,
                         per_group_metrics, rank_test_groups)
from .losses import cross_entropy
from .matcher import MatcherSpec, score
from .strategies import curriculum_protocol, margin_protocol, weighting_protocol

# What README's quick start and the demos import; the rest is in submodules.
__all__ = [
    "Batch", "GenConfig", "generate_synthetic_corpus", "load_corpus", "save_corpus",
    "TrainConfig", "coteach_train", "pretrain", "select_model", "validation_p_at_1",
    "compute_metrics", "filter_degenerate", "paired_t_test", "per_group_metrics",
    "rank_test_groups", "cross_entropy", "MatcherSpec", "score",
    "curriculum_protocol", "margin_protocol", "weighting_protocol",
]

__version__ = "0.1.0"
