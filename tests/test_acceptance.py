"""Acceptance gate: eight end-to-end checks of the co-teaching framework.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line (visible even
under output capture) and then asserts. The noise-robustness experiment is
shared between checks 5 and 6.
"""

import math
import statistics
import time

import numpy as np
import pytest

import coteach as ct
from coteach import engine, evaluation, matcher, strategies
from coteach.cli import main as cli_main
from coteach.corpus import PairwiseTriple
from coteach.losses import CROSS_ENTROPY, HINGE_WITH_MARGIN, cross_entropy

from conftest import (BFirstStep, example, fix_teacher_scores, pairwise_protocol,
                      pointwise_protocol, random_dialogue, random_triple, whole_batch)
from oracles import finite_diff_check, ranked_group


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------- check 1


def _random_protocol(rng, loss_kind, vocab_size):
    """Hinge instances, or cross-entropy ones whose weights are, in half the
    draws, all 1 (plain cross-entropy)."""
    n = int(rng.integers(1, 4))
    if loss_kind == HINGE_WITH_MARGIN:
        pairwise = [(random_triple(rng, vocab_size), float(rng.uniform(0.0, 0.5)))
                    for _ in range(n)]
        return pairwise_protocol(*zip(*pairwise))
    weighted = bool(rng.integers(2))
    pointwise = [((int(rng.integers(2)), *random_dialogue(rng, vocab_size)),
                  float(rng.uniform(0.0, 1.0)) if weighted else 1.0)
                 for _ in range(n)]
    return pointwise_protocol(*zip(*pointwise))


def test_1_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    vocab = 20
    specs = [ct.MatcherSpec("mean-embedding-bilinear", vocab_size=vocab,
                            embedding_dim=4),
             ct.MatcherSpec("interaction-mlp", vocab_size=vocab,
                            embedding_dim=4, hidden_dim=3)]
    worst = 0.0
    for spec in specs:
        for loss_kind in (CROSS_ENTROPY, HINGE_WITH_MARGIN):
            for _ in range(150):
                model = matcher.init_params(spec, int(rng.integers(1 << 31)))
                protocol = _random_protocol(rng, loss_kind, vocab)
                err = finite_diff_check(model, protocol, step=1e-5)
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _report(capsys, 1, ok,
            f"600 random draws, max relative error {worst:.2e} (< 1e-4), "
            f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------- check 2


def test_2_strategy_formulas(capsys, monkeypatch):
    spec = ct.MatcherSpec("mean-embedding-bilinear", vocab_size=20,
                          embedding_dim=4)
    teacher = matcher.init_params(spec, 7)
    checks = []

    # margin: hold the teacher's scores fixed and verify the formula exactly
    fixed = {(2,): 0.9, (3,): 0.1, (4,): 0.2, (5,): 0.7}
    with monkeypatch.context() as patch:
        fix_teacher_scores(patch, fixed)
        confident = strategies.margin_protocol(
            teacher, whole_batch([PairwiseTriple(((1,),), (2,), (3,))]), lam=0.5)
        misranked = strategies.margin_protocol(
            teacher, whole_batch([PairwiseTriple(((1,),), (4,), (5,))]), lam=0.5)
        checks.append(abs(confident.pairwise[0][1] - 0.4) < 1e-12)
        checks.append(misranked.pairwise[0][1] == 0.0)
        # weighting: positives weight 1, negatives 1 - teacher score
        weighted = strategies.weighting_protocol(
            teacher, whole_batch([PairwiseTriple(((1,),), (2,), (5,))]))
        checks.append(weighted.pointwise[0][1] == 1.0)
        checks.append(abs(weighted.pointwise[1][1] - 0.3) < 1e-12)
        # curriculum: pointwise losses [0.2, 0.9, 0.1, 0.5], delta 0.5 keeps
        # losses .1/.2, the two positives
        cur_triples = [PairwiseTriple(((1,),), (10,), (11,)),
                       PairwiseTriple(((1,),), (12,), (13,))]
        for response, loss, y in zip([(10,), (11,), (12,), (13,)],
                                     [0.2, 0.9, 0.1, 0.5], [1, 0, 1, 0]):
            fixed[response] = math.exp(-loss) if y else 1.0 - math.exp(-loss)
        selected = strategies.curriculum_protocol(teacher, whole_batch(cur_triples), delta=0.5)
        checks.append([e for e, _ in selected.pointwise] == [0, 2])

    # curriculum equals the full-sort oracle on 1000 random sub-batches
    rng = np.random.default_rng(202)
    oracle_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        delta = float(rng.uniform(0.05, 1.0))
        triples = [random_triple(rng, 20) for _ in range(n)]
        examples = [example(triples, i) for i in range(2 * n)]
        losses = [cross_entropy(y, matcher.score(teacher, c, r))
                  for y, c, r in examples]
        keep = math.ceil(delta * len(examples))
        order = np.argsort(np.array(losses), kind="stable")
        expected = [examples[i] for i in sorted(order[:keep])]
        protocol = strategies.curriculum_protocol(teacher, whole_batch(triples), delta)
        if [example(protocol.split, e) for e, _ in protocol.pointwise] != expected:
            oracle_ok = False
            break
    checks.append(oracle_ok)

    ok = all(checks)
    _report(capsys, 2, ok,
            "margin/weighting/curriculum unit examples exact; curriculum "
            "matches full-sort oracle on 1000 random sub-batches")


# ---------------------------------------------------------------- check 3


def test_3_coteaching_loop_fidelity(capsys, monkeypatch):
    gen = ct.GenConfig(vocab_size=60, n_topics=3, n_train=100, n_valid=30,
                       n_test_contexts=5, n_candidates=6, turns_per_context=2,
                       tokens_per_utterance=5, false_negative_rate=0.3, seed=3)
    corpus = ct.generate_synthetic_corpus(gen)
    spec = ct.MatcherSpec("mean-embedding-bilinear", vocab_size=60,
                          embedding_dim=8)
    config = ct.TrainConfig(strategy="margin", lam=0.5, learning_rate=1e-3,
                            batch_size=10, n_epochs=5, seed=0, eval_every=1000)
    split_ok = [True]
    real_split = engine.split_batch

    def check_split(batch, rng):
        sub_a, sub_b = real_split(batch, rng)
        ids_ok = (len(sub_a) == len(sub_b) == len(batch) // 2
                  and sub_a.split is sub_b.split is batch.split
                  and sorted([*sub_a.index, *sub_b.index]) == sorted(batch.index))
        split_ok[0] = split_ok[0] and ids_ok
        return sub_a, sub_b

    monkeypatch.setattr(engine, "split_batch", check_split)

    def run(step):
        model_a = matcher.init_params(spec, 1)
        model_b = matcher.init_params(spec, 2)
        opt_a = engine.init_optimizer(model_a.params.size)
        opt_b = engine.init_optimizer(model_b.params.size)
        iters = 0
        for epoch in range(config.n_epochs):
            shuffle_rng = engine._stream(config.seed, "shuffle", epoch)
            split_rng = engine._stream(config.seed, "split", epoch)
            perm = shuffle_rng.permutation(len(corpus.train))
            for k in range(len(corpus.train) // config.batch_size):
                batch = ct.Batch(corpus.train, perm[k * config.batch_size:
                                                    (k + 1) * config.batch_size])
                model_a, model_b, opt_a, opt_b, _, _ = step(
                    model_a, model_b, opt_a, opt_b, batch, config, split_rng)
                iters += 1
        return model_a, model_b, iters

    a_ab, b_ab, n_iters = run(engine.coteach_step)
    b_first = BFirstStep(monkeypatch)
    a_ba, b_ba, _ = run(b_first)
    bit_identical = (np.array_equal(a_ab.params, a_ba.params)
                     and np.array_equal(b_ab.params, b_ba.params))
    ok = split_ok[0] and b_first.ok and bit_identical and n_iters == 50
    _report(capsys, 3, ok,
            f"sub-batches disjoint/equal at all {n_iters} iterations; "
            "update-order swap bit-identical final parameters")


# ---------------------------------------------------------------- check 4


def _oracle_metrics(labels):
    """Definitional AP/RR/P@1/R@k for one group already in rank order."""
    n_pos = sum(labels)
    ap_terms = [sum(labels[:k]) / k for k in range(1, len(labels) + 1)
                if labels[k - 1] == 1]
    first = min(i for i, y in enumerate(labels, start=1) if y == 1)
    out = {"AP": sum(ap_terms) / n_pos, "RR": 1.0 / first,
           "P@1": float(labels[0])}
    for k in (1, 2, 5):
        out[f"R@{k}"] = sum(labels[:k]) / n_pos
    return out


def test_4_metric_oracle(capsys):
    rng = np.random.default_rng(404)
    groups, oracle_rows = [], []
    while len(groups) < 1000:
        n = int(rng.integers(2, 12))
        labels = [int(rng.integers(2)) for _ in range(n)]
        if len(set(labels)) != 2:
            continue
        entries = tuple((i, 1.0 - i * 1e-3, y) for i, y in enumerate(labels))
        groups.append(ranked_group(len(groups), entries))
        oracle_rows.append(_oracle_metrics(labels))

    report = evaluation.compute_metrics(groups)
    oracle_means = {key: statistics.fmean(r[key] for r in oracle_rows)
                    for key in oracle_rows[0]}
    per_group = evaluation.per_group_metrics(groups)
    max_diff = max(
        float(np.max(np.abs(per_group[key]
                            - np.array([r[key] for r in oracle_rows]))))
        for key in oracle_means)
    means_ok = all(
        abs(got - oracle_means[key]) <= 1e-12
        for key, got in [("AP", report.map), ("RR", report.mrr),
                         ("P@1", report.p_at_1), ("R@1", report.r10_at_1),
                         ("R@2", report.r10_at_2), ("R@5", report.r10_at_5)])

    two_pos = evaluation.compute_metrics(
        [ranked_group(0, tuple((i, 1.0 - i * 0.1, y) for i, y in
                               enumerate([1, 0, 1] + [0] * 7)))])
    rank3 = evaluation.compute_metrics(
        [ranked_group(0, tuple((i, 1.0 - i * 0.1, y) for i, y in
                               enumerate([0, 0, 1] + [0] * 7)))])
    examples_ok = (round(two_pos.map, 6) == 0.833333
                   and round(rank3.mrr, 6) == 0.333333)

    ok = max_diff <= 1e-12 and means_ok and examples_ok
    _report(capsys, 4, ok,
            f"1000 random groups match brute-force oracle (max diff "
            f"{max_diff:.1e} <= 1e-12); hand-derived MAP 0.833333 and "
            "MRR 0.333333 reproduce to 6 decimals")


# ------------------------------------------------------- checks 5 and 6


STRATEGY_RUNS = [("margin", "margin", dict(lam=0.5), 1e-3),
                 ("weighting", "weighting", {}, 1e-4),
                 ("curriculum", "curriculum", dict(delta=0.9), 1e-4)]


def _experiment_corpus(seed, n_valid):
    gen = ct.GenConfig(vocab_size=1000, n_topics=10, n_train=5000,
                       n_valid=n_valid, n_test_contexts=150,
                       turns_per_context=3, tokens_per_utterance=10,
                       false_negative_rate=0.3, seed=seed)
    return ct.generate_synthetic_corpus(gen)


def _pretrained(corpus, seed, batch_size=10):
    spec = ct.MatcherSpec("mean-embedding-bilinear", vocab_size=1000,
                          embedding_dim=16)
    config = ct.TrainConfig(strategy="none", learning_rate=1e-3,
                            batch_size=batch_size, n_epochs=5, seed=seed,
                            eval_every=100000)
    return engine.pretrain(spec, corpus, config)


def _clean_test_p1(model, corpus):
    groups, _ = evaluation.filter_degenerate(corpus.test)
    ranked = evaluation.rank_test_groups(model, groups)
    return evaluation.compute_metrics(ranked).p_at_1


@pytest.fixture(scope="module")
def noise_experiment():
    """Pretrained baseline vs the three strategies over five seeds."""
    start = time.perf_counter()
    seeds = (1, 2, 3, 4, 5)
    runs = {}
    for seed in seeds:
        corpus = _experiment_corpus(seed, n_valid=500)
        pre = _pretrained(corpus, seed)
        record = {"base": _clean_test_p1(pre, corpus),
                  "base_valid": engine.validation_p_at_1(pre, corpus.valid)}
        for name, strat, kwargs, lr in STRATEGY_RUNS:
            config = ct.TrainConfig(strategy=strat, learning_rate=lr,
                                    batch_size=10, n_epochs=3, seed=seed,
                                    eval_every=100000, **kwargs)
            model_a, model_b, _ = engine.coteach_train(pre, pre, corpus, config)
            selected = engine.select_model(model_a, model_b, corpus.valid)
            record[name] = _clean_test_p1(selected, corpus)
            record[name + "_valid"] = (
                engine.validation_p_at_1(model_a, corpus.valid),
                engine.validation_p_at_1(model_b, corpus.valid))
        runs[seed] = record
    return {"seeds": seeds, "runs": runs,
            "elapsed": time.perf_counter() - start}


def test_5_noise_robustness(capsys, noise_experiment):
    seeds, runs = noise_experiment["seeds"], noise_experiment["runs"]
    base_mean = statistics.fmean(runs[s]["base"] for s in seeds)
    details, all_win, best_delta = [], True, -1.0
    for name, _, _, _ in STRATEGY_RUNS:
        values = [runs[s][name] for s in seeds]
        wins = sum(runs[s][name] >= runs[s]["base"] for s in seeds)
        delta = statistics.fmean(values) - base_mean
        best_delta = max(best_delta, delta)
        all_win = all_win and wins >= 4
        details.append(f"{name} {delta:+.4f} ({wins}/5)")
    elapsed = noise_experiment["elapsed"]
    ok = all_win and best_delta >= 0.02 and elapsed < 300.0
    _report(capsys, 5, ok,
            f"baseline P@1 {base_mean:.4f}; " + ", ".join(details)
            + f"; best gain {best_delta:+.4f} (>= 0.02), {elapsed:.0f}s (< 5 min)")


def test_6_peer_co_evolution(capsys, noise_experiment):
    seeds, runs = noise_experiment["seeds"], noise_experiment["runs"]
    winner = max((name for name, _, _, _ in STRATEGY_RUNS),
                 key=lambda n: statistics.fmean(runs[s][n] for s in seeds))
    both_up = sum(
        runs[s][winner + "_valid"][0] >= runs[s]["base_valid"]
        and runs[s][winner + "_valid"][1] >= runs[s]["base_valid"]
        for s in seeds)
    ok = both_up >= 4
    _report(capsys, 6, ok,
            f"winning strategy '{winner}': both peers reach the pre-trained "
            f"validation P@1 or better in {both_up}/5 seeds (>= 4)")


# ---------------------------------------------------------------- check 7


def test_7_curriculum_budget_sensitivity(capsys):
    # Each seed's corpus and pretrained model serve every keep fraction.
    values = {0.1: [], 0.5: [], 0.9: []}
    for seed in (1, 2, 3, 4, 5):
        corpus = _experiment_corpus(seed, n_valid=600)
        pre = _pretrained(corpus, seed)
        for delta, p1s in values.items():
            config = ct.TrainConfig(strategy="curriculum", delta=delta,
                                    learning_rate=1e-4, batch_size=6,
                                    n_epochs=3, seed=seed, eval_every=100000)
            model_a, model_b, _ = engine.coteach_train(pre, pre, corpus, config)
            selected = engine.select_model(model_a, model_b, corpus.valid)
            p1s.append(_clean_test_p1(selected, corpus))
    means = {delta: statistics.fmean(p1s) for delta, p1s in values.items()}
    ok = means[0.1] < means[0.9]
    _report(capsys, 7, ok,
            f"mean clean-test P@1 by keep fraction: 0.1 -> {means[0.1]:.4f}, "
            f"0.5 -> {means[0.5]:.4f}, 0.9 -> {means[0.9]:.4f}; "
            "0.1 strictly below 0.9")


# ---------------------------------------------------------------- check 8


PIPELINE_CONFIG = """\
vocab_size = 60
n_topics = 3
n_train = 120
n_valid = 40
n_test_contexts = 12
n_candidates = 6
turns_per_context = 2
tokens_per_utterance = 5
false_negative_rate = 0.3
seed = 7
embedding_dim = 8
batch_size = 10
pretrain_epochs = 1
n_epochs = 1
eval_every = 6
lambda = 0.5
"""


def test_8_pipeline_determinism(capsys, tmp_path, monkeypatch):
    outputs = []
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        root.mkdir()
        monkeypatch.chdir(root)
        (root / "exp.cfg").write_text(PIPELINE_CONFIG)
        for command in ("generate", "pretrain", "coteach", "evaluate"):
            argv = [command, "--config", "exp.cfg", "--run-dir", "run",
                    "--strategy", "margin"]
            assert cli_main(argv) == 0
        outputs.append({name: (root / "run" / name).read_bytes()
                        for name in ("history.csv", "metrics.csv")})
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    _report(capsys, 8, ok,
            "same seed twice: history.csv and metrics.csv byte-identical")
