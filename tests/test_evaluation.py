"""Unit tests for ranking metrics, significance testing and smoothing."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from coteach import (compute_metrics, filter_degenerate, paired_t_test,
                     per_group_metrics, rank_test_groups)
from coteach.evaluation import MetricsReport, RankedGroup, ema
import coteach
from coteach import matcher
from coteach.corpus import TestGroup as CandidateGroup, TestGroups as CandidateGroups

from conftest import call_entries, diverged, random_dialogue
from oracles import build_split, ranked_group


def _group(labels, scores=None, context_id=0):
    """RankedGroup already in rank order with the given labels."""
    if scores is None:
        scores = [1.0 - 0.05 * i for i in range(len(labels))]
    entries = tuple((i, s, y) for i, (s, y) in enumerate(zip(scores, labels)))
    return ranked_group(context_id, entries)


class TestFilterDegenerate:
    def test_all_positive_removed(self):
        groups = [CandidateGroup(((1,),), (((2,), 1), ((3,), 1)))]
        kept, removed = filter_degenerate(build_split(groups, kind=CandidateGroups))
        assert list(kept) == [] and removed == 1

    def test_all_negative_removed(self):
        groups = [CandidateGroup(((1,),), (((2,), 0), ((3,), 0)))]
        kept, removed = filter_degenerate(build_split(groups, kind=CandidateGroups))
        assert list(kept) == [] and removed == 1

    def test_mixed_kept_in_order(self):
        mixed = CandidateGroup(((1,),), (((2,), 1), ((3,), 0)))
        pure = CandidateGroup(((1,),), (((2,), 1), ((3,), 1)))
        kept, removed = filter_degenerate(build_split([pure, mixed, pure], kind=CandidateGroups))
        assert list(kept) == [mixed] and removed == 2

    def test_kept_groups_are_the_test_groups_of_the_kept_items(self):
        mixed = CandidateGroup(((1, 2), (3,)), (((4, 5), 0), ((6,), 1), ((7,), 0)))
        other = CandidateGroup(((8,),), (((9,), 1), ((1, 1), 0)))
        pure = CandidateGroup(((2,),), (((3,), 1), ((4,), 1)))
        test = build_split([mixed, pure, other], 10, CandidateGroups)
        kept, removed = filter_degenerate(test)
        expected = build_split([mixed, other], 10, CandidateGroups)
        assert isinstance(kept, CandidateGroups) and kept.vocab_size == 10 and removed == 1
        for got, want in zip(kept.pack + (kept.labels,), expected.pack + (expected.labels,)):
            assert np.array_equal(got, want)
        assert filter_degenerate(expected)[0] is expected  # nothing to drop


def _rank_one(model, context, candidates):
    """The ranking of a single group."""
    (ranked,) = rank_test_groups(model, build_split(
        [CandidateGroup(context, tuple(candidates))], kind=CandidateGroups))
    return ranked


class TestRankGroup:
    def test_equal_scores_preserve_order(self, small_model, monkeypatch):
        monkeypatch.setattr(matcher, "scores", lambda m, packed: np.full(
            packed.lengths.size - packed.n_ctx, 0.5))
        candidates = [((i,), i % 2) for i in range(6)]
        ranked = _rank_one(small_model, ((1,),), candidates)
        assert [idx for idx, _, _ in ranked.entries] == list(range(6))

    def test_descending_scores_identity_permutation(self, small_model, monkeypatch):
        # Each response is one token; its score falls with the token.
        monkeypatch.setattr(matcher, "scores", lambda m, packed: (
            1.0 - 0.1 * packed.ids[packed.starts[packed.n_ctx:]]))
        candidates = [((i,), 1) for i in range(5)]
        ranked = _rank_one(small_model, ((1,),), candidates)
        assert [idx for idx, _, _ in ranked.entries] == list(range(5))

    def test_matches_sort_oracle_on_random_candidates(self, small_model):
        rng = np.random.default_rng(0)
        for _ in range(50):
            context = random_dialogue(rng).context
            candidates = [(random_dialogue(rng).response, int(rng.integers(2)))
                          for _ in range(10)]
            ranked = _rank_one(small_model, context, candidates)
            scores = [matcher.score(small_model, context, r) for r, _ in candidates]
            oracle = sorted(range(10), key=lambda i: (-scores[i], i))
            assert [idx for idx, _, _ in ranked.entries] == oracle

    def test_rank_test_groups_matches_per_group_sort_oracle(self, small_model,
                                                            monkeypatch):
        rng = np.random.default_rng(6)
        responses = [random_dialogue(rng).response for _ in range(4)]
        groups = []
        for _ in range(150):
            context = random_dialogue(rng, n_utts=int(rng.integers(1, 4))).context
            # Few distinct responses, so most groups hold tied scores.
            groups.append(CandidateGroup(context, tuple(
                (responses[int(rng.integers(4))], int(rng.integers(2)))
                for _ in range(int(rng.integers(1, 9))))))
        test = build_split(groups, kind=CandidateGroups)
        # 64 groups a scoring call: three calls, the last one partial.
        monkeypatch.setattr(matcher, "_CALL_ENTRIES", call_entries(
            test, 64, small_model.spec.embedding_dim))
        ranked = rank_test_groups(small_model, test)
        n_tied = 0
        for i, (g, r) in enumerate(zip(groups, ranked)):
            s = [matcher.score(small_model, g.context, c) for c, _ in g.candidates]
            oracle = sorted(range(len(s)), key=lambda k: (-s[k], k))
            assert r == ranked_group(i, tuple((k, s[k], g.candidates[k][1])
                                              for k in oracle))
            assert r.entries == _rank_one(small_model, g.context, g.candidates).entries
            n_tied += len(set(s)) < len(s)
        assert n_tied >= 50

    def test_empty_candidates_rejected(self, small_model):
        with pytest.raises(ValueError):
            _rank_one(small_model, ((1,),), [])

    def test_diverged_model_is_reported(self, small_model):
        rng = np.random.default_rng(2)
        groups = build_split([CandidateGroup(random_dialogue(rng).context,
                                             (((1,), 1), ((2,), 0)))], kind=CandidateGroups)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError,
                                                      match="^non-finite score$"):
            rank_test_groups(diverged(small_model), groups)

    def test_rank_test_groups_assigns_context_ids(self, small_model):
        rng = np.random.default_rng(1)
        groups = [CandidateGroup(random_dialogue(rng).context,
                            (((1,), 1), ((2,), 0))) for _ in range(3)]
        ranked = rank_test_groups(small_model, build_split(groups, kind=CandidateGroups))
        assert [g.context_id for g in ranked] == [0, 1, 2]


class TestRankedGroup:
    def test_columns_equal_the_entries_oracle(self):
        group = RankedGroup(3, np.array([2, 0, 1]), np.array([0.9, 0.5, 0.5]),
                            np.array([1, 0, 1]))
        entries = ((2, 0.9, 1), (0, 0.5, 0), (1, 0.5, 1))
        assert group == ranked_group(3, entries) and group.entries == entries
        assert group != ranked_group(2, entries)
        assert group != ranked_group(3, entries[:2] + ((1, 0.5, 0),))


class TestComputeMetrics:
    def test_perfect_ranking(self):
        report = compute_metrics([_group([1] + [0] * 9)])
        assert report == MetricsReport(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1)

    def test_positives_at_ranks_one_and_three(self):
        report = compute_metrics([_group([1, 0, 1, 0, 0, 0, 0, 0, 0, 0])])
        assert report.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert round(report.map, 6) == 0.833333
        assert report.mrr == 1.0 and report.p_at_1 == 1.0
        assert report.r10_at_1 == 0.5
        assert report.r10_at_2 == 0.5
        assert report.r10_at_5 == 1.0

    def test_single_positive_at_rank_three(self):
        report = compute_metrics([_group([0, 0, 1, 0, 0, 0, 0, 0, 0, 0])])
        assert report.mrr == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.p_at_1 == 0.0
        assert report.r10_at_2 == 0.0
        assert report.r10_at_5 == 1.0

    def test_mean_over_groups(self):
        report = compute_metrics([_group([1, 0]), _group([0, 1])])
        assert report.p_at_1 == 0.5
        assert report.mrr == pytest.approx(0.75)
        assert report.n_contexts == 2

    def test_no_positive_group_raises(self):
        with pytest.raises(ValueError):
            compute_metrics([_group([0, 0, 0])])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_recall_nondecreasing_and_single_positive_map_equals_mrr(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            labels = [0] * n
            labels[int(rng.integers(n))] = 1
            report = compute_metrics([_group(labels)])
            assert report.r10_at_1 <= report.r10_at_2 <= report.r10_at_5
            assert report.map == pytest.approx(report.mrr, abs=1e-12)

    def test_mean_mrr_at_least_mean_p_at_1(self):
        rng = np.random.default_rng(3)
        groups = []
        for _ in range(40):
            labels = [int(rng.integers(2)) for _ in range(8)]
            if len(set(labels)) == 2:
                groups.append(_group(labels))
        report = compute_metrics(groups)
        assert report.mrr >= report.p_at_1

    def test_ap_of_many_positives_adds_left_to_right_bit_for_bit(self):
        # From 8 positives on, an np.sum or reduceat over a row would switch
        # to numpy's unrolled summation and round differently.
        rng = np.random.default_rng(11)
        groups, expected = [], []
        for i in range(400):
            size = int(rng.integers(1, 12))
            labels = [1] * min(size, int(rng.integers(8, 12)))
            labels = rng.permutation(labels + [0] * (size - len(labels))).tolist()
            groups.append(_group(labels, context_id=i))
            total = 0.0  # the positives' precisions, added one after another
            hits = [rank for rank, y in enumerate(labels, start=1) if y == 1]
            for k, rank in enumerate(hits, start=1):
                total += k / rank
            expected.append(total / len(hits))
        assert per_group_metrics(groups)["AP"].tobytes() == np.array(expected).tobytes()

    def test_per_group_metrics_align_with_report(self):
        groups = [_group([1, 0, 0]), _group([0, 1, 1]), _group([0, 0, 1])]
        per_group = per_group_metrics(groups)
        report = compute_metrics(groups)
        assert float(per_group["AP"].mean()) == pytest.approx(report.map)
        assert float(per_group["P@1"].mean()) == pytest.approx(report.p_at_1)
        assert len(per_group["RR"]) == 3


class TestPairedTTest:
    def test_identical_lists(self):
        t, p = paired_t_test([0.5, 0.7, 0.9], [0.5, 0.7, 0.9])
        assert t == 0.0 and p == 1.0

    def test_constant_nonzero_difference(self):
        # dyadic values keep the differences exactly constant in binary
        t, p = paired_t_test([0.5, 0.75, 1.0], [0.25, 0.5, 0.75])
        assert t == math.inf and p == 0.0
        t, p = paired_t_test([0.25, 0.5, 0.75], [0.5, 0.75, 1.0])
        assert t == -math.inf and p == 0.0

    def test_gaussian_differences_match_t_table(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.6, 0.1, size=30)
        b = a - rng.normal(0.03, 0.05, size=30)
        t, p = paired_t_test(a, b)
        # published two-tailed critical values for df = 29
        assert (p < 0.05) == (abs(t) > 2.045)
        assert (p < 0.01) == (abs(t) > 2.756)
        ref = stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-3)

    def test_p_is_bit_identical_to_scipy_stats(self):
        # Differences of mean ``offset`` and scale ``spread``; |t| runs from
        # below 1e-10 to above 1e15 over the grid.
        rng = np.random.default_rng(4)
        ts = []
        for df in (1, 2, 5, 29, 199, 5000):
            for offset in (0.0, 1e-12, 0.01, 0.3, 1.0):
                for spread in (1e-15, 1e-6, 0.1, 10.0):
                    z = rng.standard_normal(df + 1)
                    a = offset + spread * (z - z.mean())
                    t, p = paired_t_test(a, np.zeros(df + 1))
                    assert p == 2.0 * float(stats.t.sf(abs(t), df)), (df, t)
                    ts.append(abs(t))
        assert min(ts) < 1e-10 and max(ts) > 1e15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([0.1, 0.2], [0.1])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([0.1], [0.2])


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new Python that imports this
    checkout's coteach."""
    src = str(Path(coteach.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of a second to import, and every coteach
    # command would pay for it.
    code = "import sys, coteach.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_interpreter(code) == "False\n"


def test_imports_leave_out_scipy_until_the_t_test():
    # scipy.special takes longer to import than all of coteach, and only
    # the t-test of ``evaluate --baseline-dump`` needs it.
    code = """
import sys
import coteach
print('scipy' in sys.modules)
import coteach.cli
print('scipy' in sys.modules)
import numpy as np
a = np.random.default_rng(5).normal(0.02, 0.1, size=30)
t, p = coteach.paired_t_test(a, np.zeros(30))
from scipy import stats
print(p == 2.0 * float(stats.t.sf(abs(t), 29)), 0.0 < p < 1.0)
"""
    assert _fresh_interpreter(code) == "False\nFalse\nTrue True\n"


class TestEma:
    def test_alpha_one_is_identity(self):
        series = [0.3, 0.9, 0.1]
        assert ema(series, 1.0) == series

    def test_constant_series_is_fixed_point(self):
        assert ema([0.4] * 5, 0.3) == pytest.approx([0.4] * 5)

    def test_one_step_recurrence(self):
        assert ema([0.0, 1.0], 0.5) == [0.0, 0.5]

    def test_empty_series(self):
        assert ema([], 0.5) == []

    def test_invalid_alpha_rejected(self):
        for alpha in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                ema([1.0], alpha)
