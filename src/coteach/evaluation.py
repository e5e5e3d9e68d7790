"""Ranking evaluation over judged test groups: MAP, MRR, P@1 and R_n@k for
k in {1, 2, 5}, averaged over contexts. R_n@k divides by the group's
number of positives, so multi-positive contexts are handled. Groups whose
candidates are all positive or all negative carry no ranking signal and
are filtered out before evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcher
from .corpus import TestGroups

RECALL_KS = (1, 2, 5)
# Per-group metric names, in the order of MetricsReport's fields.
METRIC_KEYS = ("AP", "RR", "P@1", "R@1", "R@2", "R@5")
# Groups ranked per scoring call, each call gathered from the test pack. At
# 10 candidates a group and d = 16, a call takes about 1 MB of embedding
# rows; ranking 2,000 such groups in one call took 49 ms against 25 ms and
# peaked at 39 MB against 3 MB, and 32 to 96 groups a call were within
# noise of 64 (one pinned CPU).
_GROUPS_PER_CALL = 64


class RankedGroup:
    """Candidates of one context sorted by descending model score, ties by
    ascending candidate index, as the rank-ordered arrays ``index``,
    ``score`` and ``labels`` (human labels); ``entries`` holds them as
    (index, score, label) tuples, built when first read. Groups with equal
    context ids and entries are equal."""

    def __init__(self, context_id: int, index, score, labels):
        self.context_id = context_id
        self.index, self.score, self.labels = index, score, labels

    @cached_property
    def entries(self) -> tuple[tuple[int, float, int], ...]:
        return tuple(zip(self.index.tolist(), self.score.tolist(), self.labels.tolist()))

    def __eq__(self, other):
        return isinstance(other, RankedGroup) and (
            self.context_id, self.entries) == (other.context_id, other.entries)


@dataclass(frozen=True)
class MetricsReport:
    map: float
    mrr: float
    p_at_1: float
    r10_at_1: float
    r10_at_2: float
    r10_at_5: float
    n_contexts: int


def _rows(labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The flat ``labels`` of groups of ``sizes`` items as rows, zero-padded."""
    rows = np.zeros((sizes.size, sizes.max(initial=0)), np.intp)
    rows[np.arange(rows.shape[1]) < sizes[:, None]] = labels
    return rows


def filter_degenerate(test: TestGroups):
    """Drop groups whose 0/1 labels are all equal; returns (kept, n_removed),
    ``test`` itself if it keeps all, else its kept groups gathered from its pack."""
    n_pos = (_rows(test.labels, test.pack.runs) == 1).sum(1)
    keep = (0 < n_pos) & (n_pos < test.pack.runs)
    kept = test if keep.all() else TestGroups(
        vocab_size=test.vocab_size, pack=test.gather(np.flatnonzero(keep), test.top_id + 1),
        labels=test.labels[keep.repeat(test.pack.runs)])
    return kept, len(test) - len(kept)


def rank_test_groups(model: matcher.ModelState, test: TestGroups) -> list[RankedGroup]:
    """Score and sort the candidates of every group; group i gets context
    id i. Each ``matcher.scores`` call takes ``_GROUPS_PER_CALL`` groups,
    gathered from the test pack, and pools each context once."""
    runs = test.pack.runs
    if not runs.all():
        raise ValueError("empty candidate list")
    index, ends = np.arange(runs.size), runs.cumsum()
    scores = np.concatenate([np.zeros(0)] + [
        matcher.scores(model, test.gather(index[lo:lo + _GROUPS_PER_CALL],
                                          model.spec.vocab_size))
        for lo in range(0, runs.size, _GROUPS_PER_CALL)])
    group = index.repeat(runs)
    position = np.arange(group.size) - (ends - runs)[group]
    order = np.lexsort((position, -scores, group))
    positions, scores, labels = position[order], scores[order], test.labels[order]
    return [RankedGroup(i, positions[end - n:end], scores[end - n:end], labels[end - n:end])
            for i, (n, end) in enumerate(zip(runs.tolist(), ends.tolist()))]


def per_group_metrics(groups) -> dict[str, np.ndarray]:
    """Metric vectors with one entry per group, for significance testing.
    AP adds the positives' precisions in rank order, one after another, as
    a plain loop or Python 3.11's ``sum`` does."""
    if not groups:
        raise ValueError("no groups to evaluate")
    rows = [g.labels for g in groups]
    labels = _rows(np.concatenate(rows), np.fromiter(map(len, rows), np.intp, len(rows)))
    hits = labels == 1
    n_pos = hits.sum(1)
    if not n_pos.all():
        raise ValueError(
            f"group {groups[int(n_pos.argmin())].context_id} has no positive "
            "candidate; filter degenerate groups before evaluation")
    # The k-th positive, at rank r, has precision k / r; the padding adds 0.0.
    precision = np.where(hits, hits.cumsum(1) / np.arange(1, labels.shape[1] + 1), 0.0)
    out = {"AP": precision.cumsum(1)[:, -1] / n_pos, "RR": 1.0 / (hits.argmax(1) + 1),
           "P@1": labels[:, 0] * 1.0}
    for k in RECALL_KS:
        out[f"R@{k}"] = labels[:, :k].sum(1) / n_pos
    return out


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
