"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them on
success; pytest shows captured output on failure). The directional
studies run at desk scale and take a few minutes in total.
"""

import copy
import itertools
import json
import math
import time

import numpy as np
import pytest
from oracles import finite_diff_grad, label_coverage, max_relative_grad_error, weighted_ce_sum

from moltr import cli, evaluation, nn, pipeline
from moltr.data import GeneratorConfig, generate_dataset
from moltr.distill import (
    BoostRule,
    DistillConfig,
    Run,
    SoftLabelSet,
    TeacherEnsemble,
    fuse_soft_labels,
    score_dataset,
    score_models,
    train_hard_only,
    train_runs,
    train_student,
    train_teacher,
    train_teachers,
)
from moltr.nn import MlpConfig


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def small_dataset(num_queries=120, seed=3, **kwargs):
    config = GeneratorConfig(
        num_queries=num_queries, items_per_query=(4, 6), m=6, K=3, seed=seed, **kwargs
    )
    return generate_dataset(config)


def test_criterion_1_gradient_correctness():
    """Analytic backprop matches central differences on random MLPs."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        depth = int(rng.integers(0, 3))
        dims = (int(rng.integers(2, 9)),) + tuple(
            int(rng.integers(2, 9)) for _ in range(depth)
        ) + (1,)
        activation = ["relu", "tanh"][trial % 2]
        config = MlpConfig(
            layer_dims=dims, activation=activation, init_scale=0.4, seed=trial
        )
        params = nn.init_params(config)
        n = int(rng.integers(2, 11))
        x = rng.normal(size=(n, dims[0]))
        hard = np.zeros(n)
        hard[int(rng.integers(n))] = 1.0
        soft = rng.dirichlet(np.ones(n))
        alpha = float(rng.uniform(0.0, 1.0))
        temp = float(rng.uniform(0.5, 4.0))

        def loss(p):
            scores, _ = nn.mlp_forward(p, x, activation)
            value, _ = nn.distill_loss(scores, hard, soft, alpha, temp)
            return value

        scores, trace = nn.mlp_forward(params, x, activation)
        _, score_grad = nn.distill_loss(scores, hard, soft, alpha, temp)
        analytic = nn.backward(trace, params, score_grad, activation)
        numeric = finite_diff_grad(params, loss, epsilon=1e-5)
        worst = max(worst, max_relative_grad_error(analytic, numeric))
    elapsed = time.time() - start
    verdict(
        1,
        "gradient correctness",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} over 20 MLPs in {elapsed:.1f}s",
    )


def test_criterion_2_ce_aggregation_identity():
    """Weighted sum of CEs equals CE against the fused target."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 6))
        pred = rng.dirichlet(np.ones(n))
        targets = [rng.dirichlet(np.ones(n)) for _ in range(k)]
        weights = rng.dirichlet(np.ones(k))
        lhs = weighted_ce_sum(pred, targets, list(weights))
        fused = np.sum([w * t for w, t in zip(weights, targets)], axis=0)
        worst = max(worst, abs(lhs - nn.distill_loss(np.log(pred), fused, None, alpha=1.0)[0]))
    verdict(
        2,
        "cross-entropy aggregation identity",
        worst < 1e-9,
        f"max deviation {worst:.2e} over 1000 triples",
    )


def test_criterion_3_blend_degeneracy():
    """alpha=1 is bitwise hard-only; alpha=0 ignores hard labels entirely."""
    dataset = small_dataset()
    config = DistillConfig(
        mlp=MlpConfig(layer_dims=(6, 8, 1), init_scale=0.3, seed=7),
        epochs=3,
    )
    teachers = train_teachers(dataset, DistillConfig.from_dict({**config.to_dict(), "alpha": 1.0}))
    soft = fuse_soft_labels(teachers, dataset)

    hard_cfg = DistillConfig.from_dict({**config.to_dict(), "alpha": 1.0})
    bitwise = (
        train_student(dataset, soft, hard_cfg).params
        == train_hard_only(dataset, hard_cfg).params
    )

    # Rotate the primary-label column inside every booked group: with
    # alpha=0 this must not move a single bit of the trained parameters.
    permuted = copy.deepcopy(dataset)
    for g in permuted.groups:
        if g.has_labels_for(0):
            col = [row[0] for row in g.labels]
            col = col[-1:] + col[:-1]
            for row, v in zip(g.labels, col):
                row[0] = v
    soft_cfg = DistillConfig.from_dict({**config.to_dict(), "alpha": 0.0})
    unaffected = (
        train_student(dataset, soft, soft_cfg).params
        == train_student(permuted, soft, soft_cfg).params
    )
    verdict(
        3,
        "loss-blend degeneracy",
        bitwise and unaffected,
        f"alpha=1 bitwise hard-only: {bitwise}; alpha=0 label-blind: {unaffected}",
    )


def brute_force_ndcg(scores, labels, k):
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    dcg = sum(
        labels[j] / math.log2(rank + 2) for rank, j in enumerate(order[:k])
    )
    ideal_order = sorted(labels, reverse=True)
    idcg = sum(
        rel / math.log2(rank + 2) for rank, rel in enumerate(ideal_order[:k])
    )
    return dcg / idcg if idcg > 0 else 0.0


def brute_force_tau(a, b):
    pos = {item: i for i, item in enumerate(b)}
    c = d = 0
    for x, y in itertools.combinations(a, 2):
        if pos[x] < pos[y]:
            c += 1
        else:
            d += 1
    return (c - d) / (c + d)


def test_criterion_4_metric_oracles():
    """NDCG, Kendall tau, and PD match independent oracles and properties."""
    ndcg_ok = True
    for n in range(2, 5):
        for perm in itertools.permutations(range(n)):
            scores = [float(p) for p in perm]
            for labels in itertools.product([0, 1], repeat=n):
                for k in list(range(1, n + 1)) + [None]:
                    got = evaluation.ndcg_at_k(scores, labels, k)
                    want = brute_force_ndcg(scores, labels, n if k is None else k)
                    if got != pytest.approx(want, abs=1e-12):
                        ndcg_ok = False

    tau_ok = True
    for n in range(2, 6):
        base = list(range(n))
        for perm in itertools.permutations(base):
            got = evaluation._tau(np.argsort(perm))  # perm's position of each item of base
            if got != pytest.approx(brute_force_tau(base, perm), abs=1e-12):
                tau_ok = False

    rng = np.random.default_rng(4)
    pd_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        a = rng.uniform(1e-4, 10.0, size=n)
        b = rng.uniform(1e-4, 10.0, size=n)
        scale = float(rng.uniform(0.1, 100.0))
        zero = evaluation.prediction_difference(a, a) == 0.0
        sym = evaluation.prediction_difference(a, b) == pytest.approx(
            evaluation.prediction_difference(b, a), abs=1e-12
        )
        inv = evaluation.prediction_difference(scale * a, scale * b) == pytest.approx(
            evaluation.prediction_difference(a, b), abs=1e-9
        )
        if not (zero and sym and inv):
            pd_ok = False
    verdict(
        4,
        "metric oracles",
        ndcg_ok and tau_ok and pd_ok,
        f"ndcg exhaustive n<=4: {ndcg_ok}; tau all perms n<=5: {tau_ok}; "
        f"pd zero/symmetry/scale-invariance: {pd_ok}",
    )


def test_criterion_5_self_distillation_parity(tmp_path):
    """Self-distilled V1 matches a teacher-retrained V0 within 0.005 NDCG@10."""
    start = time.time()
    config = pipeline.default_experiment_config(str(tmp_path))
    report = pipeline.study_self_distillation(config)
    gap = report["parity_gap"]
    elapsed = time.time() - start
    verdict(
        5,
        "self-distillation parity",
        gap <= 0.005 and elapsed < 600,
        f"|mean NDCG@10 gap| = {gap:.5f} over {config.parity_seeds} seeds "
        f"({elapsed:.0f}s)",
    )


def test_criterion_6_irreproducibility_reduction(tmp_path):
    """Distilled students are strictly more stable across seeds."""
    start = time.time()
    config = pipeline.default_experiment_config(str(tmp_path))
    report = pipeline.study_irreproducibility(config)
    hard = report["hard_only"]
    dist = report["distilled"]
    ok = (
        dist["mean_change_rate"] < hard["mean_change_rate"]
        and dist["mean_pd"] < hard["mean_pd"]
    )
    elapsed = time.time() - start
    verdict(
        6,
        "irreproducibility reduction",
        ok and elapsed < 1200,
        f"change rate {hard['mean_change_rate']:.3f} -> {dist['mean_change_rate']:.3f}, "
        f"PD {hard['mean_pd']:.3f} -> {dist['mean_pd']:.3f} ({elapsed:.0f}s)",
    )


def test_criterion_7_adhoc_boost_efficiency(tmp_path):
    """At matched exposure, the soft-label boost costs no more NDCG."""
    config = pipeline.default_experiment_config(str(tmp_path))
    report = pipeline.study_adhoc_boost(config)
    gap = report["max_exposure_gap"]
    serve_loss = report["mean_serve_ndcg_loss"]
    soft_loss = report["mean_soft_ndcg_loss"]
    ok = gap <= 0.01 and soft_loss <= serve_loss
    verdict(
        7,
        "ad-hoc boost efficiency",
        ok,
        f"NDCG@10 loss soft {soft_loss:.5f} <= serve {serve_loss:.5f} "
        f"at exposure gap {gap:.4f}",
    )


def test_criterion_8_sparsity_mitigation():
    """With 10x sparser secondary labels, distillation tracks the
    secondary teacher's exposure preference better than hard-only training.

    The quality objective prefers high-rated items, so exposure@10 of
    items rated >= 3.8 measures how much of that preference each model
    inherited. The primary utility ignores the rating feature to keep the
    two objectives in genuine tension.
    """
    m = 16
    w = np.random.default_rng(5).normal(size=(3, m))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w[0, 0] = 0.0
    w[0] /= np.linalg.norm(w[0])
    w[2] = 0.0
    w[2, 0] = 1.0
    gen = GeneratorConfig(
        num_queries=4000,
        items_per_query=(20, 30),
        m=m,
        K=3,
        seed=13,
        objective_weights=w.tolist(),
        objective_correlation=0.0,
        label_rates=[0.1, 0.1],
        new_item_fraction=0.05,
        primary_rate=0.9,
        num_days=20,
    )
    train_ds = generate_dataset(gen)
    eval_ds = generate_dataset(
        GeneratorConfig.from_dict(
            {**gen.to_dict(), "num_queries": 1000, "seed": 1013}
        )
    )
    primary_cov = label_coverage(train_ds, 0)
    secondary_cov = max(label_coverage(train_ds, 1), label_coverage(train_ds, 2))
    assert secondary_cov <= primary_cov / 8  # roughly 10x sparser

    mlp = MlpConfig(layer_dims=(m, 32, 16, 1), seed=11, init_scale=0.3)
    teachers = []
    for k in range(3):
        cfg = DistillConfig(
            mlp=mlp,
            alpha=1.0,
            epochs=8 if k == 0 else 16,
            learning_rate=0.05,
            teacher_temperature=2.5,
        )
        teachers.append(train_teacher(train_ds, k, cfg.with_seed(11 + k)))
    ensemble = TeacherEnsemble(
        models=teachers, fusion_weights=np.array([0.3, 0.1, 0.6])
    )
    soft = fuse_soft_labels(ensemble, train_ds)
    rule = BoostRule(predicate="rating_at_least", rho=3.8)
    student_cfg = DistillConfig(
        mlp=mlp, alpha=0.2, epochs=8, learning_rate=0.05, teacher_temperature=2.5,
    )

    teacher_exp = evaluation.mean_boosted_exposure(
        score_dataset(teachers[2], eval_ds), eval_ds, rule, 10
    )
    # Each seed's distilled and hard-only students train as one family and
    # score the eval split together.
    seeds = (11, 1011, 2011)
    models = train_runs(train_ds, [
        run for seed in seeds for run in (
            Run.student(train_ds, soft, student_cfg.with_seed(seed)),
            Run.hard_only(student_cfg.with_seed(seed)),
        )
    ])
    exposures = [evaluation.mean_boosted_exposure(scores, eval_ds, rule, 10)
                 for scores in score_models(models, eval_ds)]
    rows = list(zip(seeds, exposures[1::2], exposures[::2]))
    mean_dist_gap = float(np.mean([abs(d - teacher_exp) for _, _, d in rows]))
    mean_hard_gap = float(np.mean([abs(h - teacher_exp) for _, h, _ in rows]))
    verdict(
        8,
        "sparsity mitigation",
        mean_dist_gap < mean_hard_gap,
        f"teacher exposure {teacher_exp:.3f}; mean |gap| distilled "
        f"{mean_dist_gap:.3f} < hard-only {mean_hard_gap:.3f} over 3 seeds",
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    """Every CLI study rerun with the same config is byte-identical."""
    config_doc = {
        "generator": {
            "num_queries": 120,
            "items_per_query": [4, 6],
            "m": 6,
            "K": 3,
            "seed": 3,
            "label_rates": [0.4, 0.4],
            "num_days": 10,
        },
        "distill": {
            "mlp": {"layer_dims": [6, 8, 1], "init_scale": 0.3, "seed": 5},
            "alpha": 0.2,
            "epochs": 2,
        },
        "eval_queries": 60,
        "num_seeds": 2,
        "parity_seeds": 1,
        "alpha_sweep": [0.2],
        "boost": {
            "rho": 3.5,
            "exposure_k": 5,
            "target_lift": 0.05,
            "exposure_tolerance": 0.02,
            "items_per_query": [10, 14],
            "num_queries": 150,
        },
    }
    ok = True
    details = []
    for study in ("distill", "self", "repro", "boost"):
        out = tmp_path / study
        doc = dict(config_doc, output_dir=str(out))
        config_path = tmp_path / f"{study}.json"
        config_path.write_text(json.dumps(doc))
        assert cli.main([f"study-{study}", "--config", str(config_path)]) == 0
        first = (out / "report.json").read_bytes()
        assert cli.main([f"study-{study}", "--config", str(config_path)]) == 0
        same = (out / "report.json").read_bytes() == first
        ok = ok and same
        details.append(f"{study}={'identical' if same else 'DIFFERS'}")
    verdict(9, "end-to-end determinism", ok, "; ".join(details))
