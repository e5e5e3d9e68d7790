"""Ranking evaluation over judged test groups: MAP, MRR, P@1 and R_n@k for
k in {1, 2, 5}, averaged over contexts. R_n@k divides by the group's
number of positives, so multi-positive contexts are handled. Groups whose
candidates are all positive or all negative carry no ranking signal and
are filtered out before evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcher

RECALL_KS = (1, 2, 5)
# Per-group metric names, in the order of MetricsReport's fields.
METRIC_KEYS = ("AP", "RR", "P@1", "R@1", "R@2", "R@5")
# Groups ranked per scoring call. At 10 candidates a group, one call
# gathers about 1 MB of embedding rows; scoring 2,000 such groups in one
# call was twice as slow and raised peak memory by about 40 MB.
_GROUPS_PER_CALL = 64


@dataclass(frozen=True)
class RankedGroup:
    """Candidates of one context sorted by descending model score, ties by
    ascending candidate index; ``entries`` holds (index, score, human label)."""

    context_id: int
    entries: tuple[tuple[int, float, int], ...]


@dataclass(frozen=True)
class MetricsReport:
    map: float
    mrr: float
    p_at_1: float
    r10_at_1: float
    r10_at_2: float
    r10_at_5: float
    n_contexts: int


def filter_degenerate(groups):
    """Drop groups whose labels are all equal; returns (kept, n_removed)."""
    kept = [g for g in groups if len({label for _, label in g.candidates}) == 2]
    return kept, len(groups) - len(kept)


def rank_test_groups(model: matcher.ModelState, groups) -> list[RankedGroup]:
    """Score and sort the candidates of every group; group i gets context
    id i. Each ``matcher.scores`` call takes ``_GROUPS_PER_CALL`` groups,
    each scored as one (context, candidate responses) group, so that its
    context is pooled once."""
    if not all(g.candidates for g in groups):
        raise ValueError("empty candidate list")
    ranked = []
    for lo in range(0, len(groups), _GROUPS_PER_CALL):
        part = groups[lo:lo + _GROUPS_PER_CALL]
        s = iter(matcher.scores(model, [(g.context, [r for r, _ in g.candidates])
                                        for g in part]).tolist())
        for g in part:
            scored = sorted(((i, next(s), label)
                             for i, (_, label) in enumerate(g.candidates)),
                            key=lambda e: (-e[1], e[0]))
            ranked.append(RankedGroup(len(ranked), tuple(scored)))
    return ranked


def _group_metrics(group: RankedGroup) -> dict[str, float]:
    labels = [label for _, _, label in group.entries]
    # The ranks of the positives; the k-th of them has precision k / rank.
    hits = [rank for rank, label in enumerate(labels, start=1) if label == 1]
    if not hits:
        raise ValueError(
            f"group {group.context_id} has no positive candidate; "
            "filter degenerate groups before evaluation")
    n_pos = len(hits)
    out = {
        "AP": sum(k / rank for k, rank in enumerate(hits, start=1)) / n_pos,
        "RR": 1.0 / hits[0],
        "P@1": float(labels[0]),
    }
    for k in RECALL_KS:
        out[f"R@{k}"] = sum(labels[:k]) / n_pos
    return out


def per_group_metrics(groups) -> dict[str, np.ndarray]:
    """Metric vectors with one entry per group, for significance testing."""
    if not groups:
        raise ValueError("no groups to evaluate")
    rows = [_group_metrics(g) for g in groups]
    return {key: np.array([r[key] for r in rows]) for key in rows[0]}


def mean_metrics(per_group) -> MetricsReport:
    """The report of ``per_group_metrics``' vectors: each metric's mean."""
    return MetricsReport(*(float(per_group[key].mean()) for key in METRIC_KEYS),
                         n_contexts=len(per_group["AP"]))


def compute_metrics(groups) -> MetricsReport:
    """Mean metrics over ranked groups."""
    return mean_metrics(per_group_metrics(groups))


def paired_t_test(metric_a, metric_b) -> tuple[float, float]:
    """Two-tailed paired t-test on per-group metric vectors. All differences
    zero give (0, p=1), a constant nonzero difference (signed inf, p=0)."""
    a = np.asarray(metric_a, dtype=float)
    b = np.asarray(metric_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("metric vectors must be 1-d and of equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 paired observations")
    diff = a - b
    mean = diff.mean()
    sd = diff.std(ddof=1)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(n))
    # stdtr(df, -|t|) is the upper tail of Student's t, which is what
    # scipy.stats.t.sf computes. It is imported here, not at module level:
    # scipy.special takes longer to import than the rest of coteach, and
    # only this test needs it (scipy.stats would take longer still).
    from scipy.special import stdtr
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return float(t), p


def ema(series, alpha: float) -> list[float]:
    """Exponential moving average: out[t] = a*x[t] + (1-a)*out[t-1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    out: list[float] = []
    for x in series:
        out.append(alpha * float(x) + (1.0 - alpha) * out[-1] if out else float(x))
    return out
