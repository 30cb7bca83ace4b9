"""Experiment orchestration: desk-scale studies over synthetic data.

Each study trains its arms deterministically from an ExperimentConfig,
evaluates on a held-out synthetic split, and emits a report whose JSON is
byte-identical across reruns with the same config. Every metric row
carries the content hashes of the checkpoint and dataset it came from.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

from . import distill, evaluation, nn
from .data import Dataset, GeneratorConfig, generate_dataset, split_by_time
from .distill import (
    BoostRule,
    DistillConfig,
    Model,
    TeacherEnsemble,
    fuse_soft_labels,
    fusion_serve_scores,
    inject_boost,
    score_dataset,
    self_distill_step,
    train_hard_only,
    train_scalarized_baseline,
    train_student,
    train_teachers,
)
from .errors import CalibrationError, ConfigError, config_keys


@dataclass
class BoostStudyConfig:
    """Knobs for the ad-hoc boost study.

    Pages must be deeper than exposure_k for boosting to move exposure at
    all, so this study overrides the generator's page size (and query
    count, to keep the many calibration retrainings fast).
    """

    rho: float = 3.8
    exposure_k: int = 10
    target_lift: float = 0.08
    # Per-arm calibration tolerance; the two arms then agree within twice
    # this value.
    exposure_tolerance: float = 0.005
    max_iterations: int = 50
    gamma_max: float = 64.0
    beta_max: float = 64.0
    items_per_query: tuple[int, int] | None = (20, 30)
    num_queries: int | None = 2500

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "exposure_k": self.exposure_k,
            "target_lift": self.target_lift,
            "exposure_tolerance": self.exposure_tolerance,
            "max_iterations": self.max_iterations,
            "gamma_max": self.gamma_max,
            "beta_max": self.beta_max,
            "items_per_query": list(self.items_per_query)
            if self.items_per_query
            else None,
            "num_queries": self.num_queries,
        }


@dataclass
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    distill: DistillConfig = None
    teacher_epochs: int | None = None
    eval_queries: int = 1000
    eval_seed_offset: int = 100003
    num_seeds: int = 4
    parity_seeds: int = 3
    alpha_sweep: tuple[float, ...] = (0.0, 0.2, 0.5, 1.0)
    train_boundary_day: int | None = None
    shift_start_day: int | None = None
    boost: BoostStudyConfig = field(default_factory=BoostStudyConfig)
    output_dir: str = "out"

    def __post_init__(self):
        if self.distill is None:
            raise ConfigError("distill config is required")
        if self.distill.mlp.input_dim != self.generator.m:
            raise ConfigError("mlp input dim must equal generator m")
        if self.num_seeds < 2:
            raise ConfigError("num_seeds must be >= 2 for the irreproducibility study")
        if self.parity_seeds < 1:
            raise ConfigError("parity_seeds must be >= 1")
        days = self.generator.num_days
        if self.train_boundary_day is None:
            self.train_boundary_day = max(1, (days * 3) // 5)
        if self.shift_start_day is None:
            self.shift_start_day = max(0, days - self.train_boundary_day - 1)
        if not (0 < self.train_boundary_day <= days):
            raise ConfigError("train_boundary_day outside the generated day range")
        if not (0 <= self.shift_start_day < days):
            raise ConfigError("shift_start_day outside the generated day range")

    @property
    def teacher_config(self) -> DistillConfig:
        epochs = self.teacher_epochs
        if epochs is None:
            epochs = self.distill.epochs
        return replace(self.distill, alpha=1.0, temperature=1.0, epochs=epochs)

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.to_dict(),
            "distill": self.distill.to_dict(),
            "teacher_epochs": self.teacher_epochs,
            "eval_queries": self.eval_queries,
            "eval_seed_offset": self.eval_seed_offset,
            "num_seeds": self.num_seeds,
            "parity_seeds": self.parity_seeds,
            "alpha_sweep": list(self.alpha_sweep),
            "train_boundary_day": self.train_boundary_day,
            "shift_start_day": self.shift_start_day,
            "boost": self.boost.to_dict(),
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = config_keys(d, cls, "experiment", required=("distill",))
        d["generator"] = GeneratorConfig.from_dict(d.get("generator", {}))
        d["distill"] = DistillConfig.from_dict(d["distill"])
        if "alpha_sweep" in d:
            d["alpha_sweep"] = tuple(d["alpha_sweep"])
        if "boost" in d:
            b = config_keys(d["boost"], BoostStudyConfig, "boost")
            if b.get("items_per_query"):
                b["items_per_query"] = tuple(b["items_per_query"])
            d["boost"] = BoostStudyConfig(**b)
        return cls(**d)


def default_experiment_config(output_dir: str = "out", **overrides) -> ExperimentConfig:
    """The desk-scale default: 5000 train / 1000 eval queries, m=16, K=3."""
    gen = GeneratorConfig(
        num_queries=5000,
        items_per_query=(8, 12),
        m=16,
        K=3,
        seed=7,
        objective_correlation=0.8,
        label_rates=[0.3, 0.3],
        new_item_fraction=0.08,
        primary_rate=0.9,
        num_days=20,
    )
    dc = DistillConfig(
        mlp=distill.nn.MlpConfig(layer_dims=(16, 32, 16, 1), seed=11, init_scale=0.3),
        alpha=0.2,
        temperature=1.0,
        epochs=8,
        learning_rate=0.05,
        seed=11,
        # Softer teacher-side targets regularize better and keep the
        # learned ad-hoc boost gentler than the serving-time boost.
        teacher_temperature=2.5,
    )
    unknown = set(overrides) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown experiment config keys: {sorted(unknown)}")
    # One construction, so __post_init__ validates the overrides and derives
    # the default time windows from the generator actually used.
    return ExperimentConfig(
        **{"generator": gen, "distill": dc, "output_dir": output_dir, **overrides}
    )


class CheckpointStore:
    """Content-addressed checkpoint directory under the output dir."""

    def __init__(self, output_dir: str):
        self.dir = os.path.join(output_dir, "checkpoints")
        os.makedirs(self.dir, exist_ok=True)

    def put_model(self, model: Model) -> str:
        payload, digest = nn.checkpoint_payload(
            model.config, model.params, extra={"lineage": model.lineage}
        )
        path = os.path.join(self.dir, f"{digest}.json")
        if not os.path.exists(path):
            with open(path, "w") as f:
                f.write(payload)
        return digest

    def put_ensemble(self, teachers: TeacherEnsemble) -> list[str]:
        return [self.put_model(m) for m in teachers.models]


def _mean(xs) -> float:
    return float(math.fsum(xs) / len(xs))


def _prepare(config: ExperimentConfig):
    train_ds = generate_dataset(config.generator)
    eval_gen = GeneratorConfig.from_dict(
        {
            **config.generator.to_dict(),
            "num_queries": config.eval_queries,
            "seed": config.generator.seed + config.eval_seed_offset,
        }
    )
    eval_ds = generate_dataset(eval_gen)
    return train_ds, eval_ds


def study_distill_vs_baselines(config: ExperimentConfig) -> dict:
    """Distilled student vs model-fusion, scalarized, and hard-only arms."""
    train_ds, eval_ds = _prepare(config)
    store = CheckpointStore(config.output_dir)
    eval_hash = eval_ds.content_hash()
    rule = BoostRule(predicate="rating_at_least", rho=config.boost.rho)

    teachers = train_teachers(train_ds, config.teacher_config)
    teacher_hashes = store.put_ensemble(teachers)
    soft = fuse_soft_labels(teachers, train_ds)

    def trained(name, model, extra=None):
        return name, model.lineage, store.put_model(model), score_dataset(model, eval_ds), extra

    fusion_scores = {g.query_id: fusion_serve_scores(teachers, g) for g in eval_ds.groups}
    # Each run is (arm name, lineage, checkpoint hash, eval scores, extra fields).
    arm_runs = [
        ("fusion_baseline", "baseline:model_fusion", ",".join(teacher_hashes), fusion_scores, None),
        trained(
            "scalarized_baseline",
            train_scalarized_baseline(train_ds, [1.0 / train_ds.K] * train_ds.K, config.distill),
        ),
        trained("hard_only_student", train_hard_only(train_ds, config.distill)),
        trained(
            "distilled_student",
            train_student(train_ds, soft, config.distill),
            {"alpha": config.distill.alpha},
        ),
    ]
    sweep_runs = [
        trained(
            f"alpha_{alpha}",
            train_student(train_ds, soft, replace(config.distill, alpha=alpha)),
            {"alpha": alpha},
        )
        for alpha in config.alpha_sweep
    ]

    def entries(runs):
        return [
            {
                "arm": name,
                "lineage": lineage,
                "checkpoint_hash": checkpoint,
                "dataset_hash": eval_hash,
                "metrics": evaluation.ranking_metrics_report(scores, eval_ds, rule).to_dict(),
                **(extra or {}),
            }
            for name, lineage, checkpoint, scores, extra in runs
        ]

    arms = entries(arm_runs)
    sweep = entries(sweep_runs)
    per_query = {run[0]: run[3] for run in arm_runs}
    baseline_ndcg = arms[0]["metrics"]["ndcg_at_10"]
    report = {
        "study": "distill_vs_baselines",
        "config": config.to_dict(),
        "teacher_checkpoints": teacher_hashes,
        "train_dataset_hash": train_ds.content_hash(),
        "eval_dataset_hash": eval_hash,
        "arms": arms,
        "alpha_sweep": sweep,
        "deltas_vs_fusion_ndcg10": {
            a["arm"]: a["metrics"]["ndcg_at_10"] - baseline_ndcg for a in arms
        },
    }
    _write_report(config.output_dir, report, per_query, eval_ds)
    return report


def study_self_distillation(config: ExperimentConfig) -> dict:
    """V1 (self-distilled on shifted window) vs V0 retrained from teachers."""
    train_ds, eval_ds = _prepare(config)
    store = CheckpointStore(config.output_dir)
    eval_hash = eval_ds.content_hash()

    window_a, _ = split_by_time(train_ds, config.train_boundary_day)
    _, window_b = split_by_time(train_ds, config.shift_start_day)
    if not window_a.groups or not window_b.groups:
        raise ConfigError("time shift leaves an empty training window")

    teachers = train_teachers(window_a, config.teacher_config)
    teacher_hashes = store.put_ensemble(teachers)
    soft_a = fuse_soft_labels(teachers, window_a)
    soft_b = fuse_soft_labels(teachers, window_b)

    rows = []
    ndcg_v1, ndcg_rv0 = [], []
    for s in range(config.parity_seeds):
        cfg = config.distill.with_seed(config.distill.seed + 1000 * s)
        v0 = train_student(window_a, soft_a, cfg)
        v1 = self_distill_step(v0, window_b, cfg)
        rv0 = train_student(window_b, soft_b, cfg, lineage="student_v0")
        n_v1 = evaluation.mean_ndcg(score_dataset(v1, eval_ds), eval_ds, 10)
        n_rv0 = evaluation.mean_ndcg(score_dataset(rv0, eval_ds), eval_ds, 10)
        ndcg_v1.append(n_v1)
        ndcg_rv0.append(n_rv0)
        rows.append(
            {
                "seed": cfg.seed,
                "v0_checkpoint": store.put_model(v0),
                "v1_checkpoint": store.put_model(v1),
                "retrained_v0_checkpoint": store.put_model(rv0),
                "v1_lineage": v1.lineage,
                "ndcg10_v1": n_v1,
                "ndcg10_retrained_v0": n_rv0,
                "dataset_hash": eval_hash,
            }
        )

    report = {
        "study": "self_distillation",
        "config": config.to_dict(),
        "teacher_checkpoints": teacher_hashes,
        "train_dataset_hash": train_ds.content_hash(),
        "eval_dataset_hash": eval_hash,
        "window_a_queries": len(window_a.groups),
        "window_b_queries": len(window_b.groups),
        "per_seed": rows,
        "mean_ndcg10_v1": _mean(ndcg_v1),
        "mean_ndcg10_retrained_v0": _mean(ndcg_rv0),
        "parity_gap": abs(_mean(ndcg_v1) - _mean(ndcg_rv0)),
    }
    _write_report(config.output_dir, report)
    return report


def _pairwise_sxs(models: list[Model], dataset: Dataset, tau_threshold: float):
    rates, pds = [], []
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            rep = evaluation.sxs_change_rate(models[i], models[j], dataset, tau_threshold)
            rates.append(rep.change_rate)
            pds.append(rep.pd)
    return _mean(rates), _mean(pds)


def study_irreproducibility(config: ExperimentConfig, tau_threshold: float = 0.02) -> dict:
    """Seed-to-seed instability of hard-only vs distilled students."""
    if config.num_seeds < 2:
        raise ConfigError("num_seeds must be >= 2")
    train_ds, eval_ds = _prepare(config)
    store = CheckpointStore(config.output_dir)
    eval_hash = eval_ds.content_hash()

    teachers = train_teachers(train_ds, config.teacher_config)
    teacher_hashes = store.put_ensemble(teachers)
    soft = fuse_soft_labels(teachers, train_ds)

    hard_family, dist_family = [], []
    hard_rows, dist_rows = [], []
    for s in range(config.num_seeds):
        cfg = config.distill.with_seed(config.distill.seed + 1000 * s)
        h = train_hard_only(train_ds, cfg)
        d = train_student(train_ds, soft, cfg)
        hard_family.append(h)
        dist_family.append(d)
        hard_rows.append({"seed": cfg.seed, "checkpoint_hash": store.put_model(h)})
        dist_rows.append({"seed": cfg.seed, "checkpoint_hash": store.put_model(d)})

    hard_rate, hard_pd = _pairwise_sxs(hard_family, eval_ds, tau_threshold)
    dist_rate, dist_pd = _pairwise_sxs(dist_family, eval_ds, tau_threshold)

    report = {
        "study": "irreproducibility",
        "config": config.to_dict(),
        "tau_threshold": tau_threshold,
        "teacher_checkpoints": teacher_hashes,
        "train_dataset_hash": train_ds.content_hash(),
        "eval_dataset_hash": eval_hash,
        "hard_only": {
            "models": hard_rows,
            "mean_change_rate": hard_rate,
            "mean_pd": hard_pd,
        },
        "distilled": {
            "models": dist_rows,
            "mean_change_rate": dist_rate,
            "mean_pd": dist_pd,
        },
        "change_rate_reduction_pct": (
            100.0 * (hard_rate - dist_rate) / hard_rate if hard_rate > 0 else 0.0
        ),
        "pd_reduction_pct": 100.0 * (hard_pd - dist_pd) / hard_pd if hard_pd > 0 else 0.0,
    }
    _write_report(config.output_dir, report)
    return report


def _bisect_exposure(measure, target: float, tolerance: float, hi_max: float, max_iter: int):
    """Find the boost magnitude whose exposure hits target +/- tolerance.

    measure(x) must be (noisily) non-decreasing; evaluated points are
    checked for monotonicity. Returns (x, exposure, evaluations).
    """
    evals = []

    def f(x):
        e = measure(x)
        evals.append((x, e))
        return e

    iterations = 0
    lo, hi = 0.0, 1.0
    e_lo = f(lo)
    if e_lo >= target - tolerance:
        return lo, e_lo, evals
    e_hi = f(hi)
    while e_hi < target and hi < hi_max:
        iterations += 1
        if iterations > max_iter:
            raise CalibrationError("exposure bracketing did not converge")
        lo, e_lo = hi, e_hi
        hi *= 2.0
        e_hi = f(hi)
    if e_hi < target - tolerance:
        raise CalibrationError(
            f"exposure target {target:.3f} unreachable (max {e_hi:.3f} at {hi})"
        )
    best_x, best_e = hi, e_hi
    while iterations < max_iter:
        iterations += 1
        mid = (lo + hi) / 2.0
        e_mid = f(mid)
        if abs(e_mid - target) <= abs(best_e - target):
            best_x, best_e = mid, e_mid
        if abs(e_mid - target) <= tolerance:
            _check_monotone(evals)
            return mid, e_mid, evals
        if e_mid < target:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid
    if abs(best_e - target) <= tolerance:
        _check_monotone(evals)
        return best_x, best_e, evals
    raise CalibrationError(
        f"exposure calibration did not reach {target:.3f} within {max_iter} iterations"
    )


def _check_monotone(evals, slack: float = 0.02) -> None:
    pts = sorted(evals)
    for (x0, e0), (x1, e1) in zip(pts, pts[1:]):
        if e1 < e0 - slack:
            raise CalibrationError(
                f"exposure not monotone: f({x0})={e0:.4f} > f({x1})={e1:.4f}"
            )


def study_adhoc_boost(config: ExperimentConfig) -> dict:
    """Serving-time score boost vs soft-label boost at matched exposure."""
    overrides = {}
    if config.boost.items_per_query is not None:
        overrides["items_per_query"] = list(config.boost.items_per_query)
    if config.boost.num_queries is not None:
        overrides["num_queries"] = config.boost.num_queries
    if overrides:
        import copy

        config = copy.deepcopy(config)
        config.generator = config.generator.from_dict(
            {**config.generator.to_dict(), **overrides}
        )
    train_ds, eval_ds = _prepare(config)
    store = CheckpointStore(config.output_dir)
    eval_hash = eval_ds.content_hash()
    bc = config.boost
    rule = BoostRule(predicate="rating_at_least", rho=bc.rho)

    teachers = train_teachers(train_ds, config.teacher_config)
    teacher_hashes = store.put_ensemble(teachers)
    soft = fuse_soft_labels(teachers, train_ds)

    rows = []
    serve_losses, soft_losses = [], []
    for s in range(config.parity_seeds):
        cfg = config.distill.with_seed(config.distill.seed + 1000 * s)
        base = train_student(train_ds, soft, cfg)
        base_scores = score_dataset(base, eval_ds)
        base_ndcg = evaluation.mean_ndcg(base_scores, eval_ds, 10)
        base_exp = evaluation.mean_boosted_exposure(
            base_scores, eval_ds, rule, bc.exposure_k
        )
        target = base_exp + bc.target_lift

        def serve_exposure(gamma):
            scored = {
                g.query_id: evaluation.serve_with_boost(base, g, rule, gamma)
                for g in eval_ds.groups
            }
            return evaluation.mean_boosted_exposure(scored, eval_ds, rule, bc.exposure_k)

        gamma, serve_exp, _ = _bisect_exposure(
            serve_exposure, target, bc.exposure_tolerance, bc.gamma_max, bc.max_iterations
        )
        serve_scores = {
            g.query_id: evaluation.serve_with_boost(base, g, rule, gamma)
            for g in eval_ds.groups
        }
        serve_ndcg = evaluation.mean_ndcg(serve_scores, eval_ds, 10)

        soft_models = {}

        def soft_exposure(beta):
            boosted = inject_boost(
                soft, BoostRule(rule.predicate, beta=beta, rho=rule.rho), train_ds
            )
            m = train_student(train_ds, boosted, cfg)
            scored = score_dataset(m, eval_ds)
            soft_models[beta] = (m, scored)
            return evaluation.mean_boosted_exposure(scored, eval_ds, rule, bc.exposure_k)

        beta, soft_exp, _ = _bisect_exposure(
            soft_exposure, target, bc.exposure_tolerance, bc.beta_max, bc.max_iterations
        )
        soft_model, soft_scores = soft_models[beta]
        soft_ndcg = evaluation.mean_ndcg(soft_scores, eval_ds, 10)

        serve_losses.append(base_ndcg - serve_ndcg)
        soft_losses.append(base_ndcg - soft_ndcg)
        rows.append(
            {
                "seed": cfg.seed,
                "baseline_checkpoint": store.put_model(base),
                "soft_boost_checkpoint": store.put_model(soft_model),
                "dataset_hash": eval_hash,
                "baseline_ndcg10": base_ndcg,
                "baseline_exposure": base_exp,
                "target_exposure": target,
                "gamma": gamma,
                "serve_exposure": serve_exp,
                "serve_ndcg10": serve_ndcg,
                "beta": beta,
                "soft_exposure": soft_exp,
                "soft_ndcg10": soft_ndcg,
                "exposure_gap": abs(serve_exp - soft_exp),
            }
        )

    report = {
        "study": "adhoc_boost",
        "config": config.to_dict(),
        "teacher_checkpoints": teacher_hashes,
        "train_dataset_hash": train_ds.content_hash(),
        "eval_dataset_hash": eval_hash,
        "boost_rule": rule.describe(),
        "per_seed": rows,
        "mean_serve_ndcg_loss": _mean(serve_losses),
        "mean_soft_ndcg_loss": _mean(soft_losses),
        "max_exposure_gap": max(r["exposure_gap"] for r in rows),
    }
    _write_report(config.output_dir, report)
    return report


def _report_markdown(report: dict) -> str:
    lines = [f"# Study: {report['study']}", ""]

    def table(rows, columns):
        out = ["| " + " | ".join(columns) + " |"]
        out.append("|" + "---|" * len(columns))
        for r in rows:
            out.append(
                "| "
                + " | ".join(
                    f"{r.get(c):.5f}" if isinstance(r.get(c), float) else str(r.get(c))
                    for c in columns
                )
                + " |"
            )
        return out

    if "arms" in report:
        rows = [
            {
                "arm": a["arm"],
                "ndcg@5": a["metrics"]["ndcg_at_5"],
                "ndcg@10": a["metrics"]["ndcg_at_10"],
                "ndcg_full": a["metrics"]["ndcg_full"],
            }
            for a in report["arms"] + report.get("alpha_sweep", [])
        ]
        lines += table(rows, ["arm", "ndcg@5", "ndcg@10", "ndcg_full"]) + [""]
    if "per_seed" in report:
        rows = report["per_seed"]
        columns = [c for c in rows[0] if isinstance(rows[0][c], (int, float, str))]
        lines += table(rows, columns) + [""]
    for key in (
        "mean_ndcg10_v1",
        "mean_ndcg10_retrained_v0",
        "parity_gap",
        "change_rate_reduction_pct",
        "pd_reduction_pct",
        "mean_serve_ndcg_loss",
        "mean_soft_ndcg_loss",
        "max_exposure_gap",
    ):
        if key in report:
            lines.append(f"- **{key}**: {report[key]:.6f}")
    if "hard_only" in report:
        lines.append(
            f"- hard-only: change_rate={report['hard_only']['mean_change_rate']:.4f}, "
            f"PD={report['hard_only']['mean_pd']:.4f}"
        )
        lines.append(
            f"- distilled: change_rate={report['distilled']['mean_change_rate']:.4f}, "
            f"PD={report['distilled']['mean_pd']:.4f}"
        )
    lines.append("")
    return "\n".join(lines)


def _write_report(output_dir, report, per_query_scores=None, eval_ds=None) -> None:
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "report.json")
    with open(path, "w") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")
    with open(os.path.join(output_dir, "report.md"), "w") as f:
        f.write(_report_markdown(report))
    if per_query_scores and eval_ds is not None:
        with open(os.path.join(output_dir, "metrics.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["arm", "query_id", "ndcg_at_10"])
            for arm in sorted(per_query_scores):
                scores = per_query_scores[arm]
                for g in eval_ds.groups:
                    writer.writerow(
                        [
                            arm,
                            g.query_id,
                            repr(
                                evaluation.ndcg_at_k(
                                    scores[g.query_id], g.primary_labels(), 10
                                )
                            ),
                        ]
                    )


STUDIES = {
    "distill": study_distill_vs_baselines,
    "self": study_self_distillation,
    "repro": study_irreproducibility,
    "boost": study_adhoc_boost,
}
