"""Experiment orchestration: desk-scale studies over synthetic data.

Each study trains its arms deterministically from an ExperimentConfig,
evaluates on a held-out synthetic split, and emits a report whose JSON is
byte-identical across reruns with the same config. Every metric row
carries the content hashes of the checkpoint and dataset it came from.

Each distinct model is trained and stored once: the distill study's
distilled arm is its sweep student at the config's alpha, and its alpha
1.0 student is the hard-only student's parameters. Every study trains runs
that share a dataset and an architecture together, in lockstep, through
distill.train_runs, each run with its own seed, and scores each family
together, one length bucket at a time, through distill.score_models. The
self study's V0s, their V1s (distill.self_distill) and the V0s retrained
from the teachers train as three families and score in one pass. The repro
study trains every seed's hard-only and distilled students as one family,
scores each model once and compares every pair from those scores.

The boost calibrations ask for points in batches and walk the path of a
search that measures one point at a time. The soft sides of all parity
seeds run first, in lockstep: each round trains every seed's next batch
of betas as one family. A seed's first batch is beta 0, 1, 2 and 4 (beta
0 alone when the target lift is within the tolerance), and beta 0 (the
unboosted soft labels) gives the seed's baseline. Both sides boost through
the one BoostRule.apply: the soft side through distill.inject_boost, and
the serving side adds each gamma to the baseline's eval scores, with no
forward pass.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from statistics import fmean

from . import distill, evaluation, nn
from .data import Dataset, GeneratorConfig, generate_dataset, split_by_time
from .distill import (
    BoostRule,
    DistillConfig,
    Model,
    Run,
    TeacherEnsemble,
    fuse_soft_labels,
    inject_boost,
    score_models,
    self_distill,
    train_runs,
    train_student,  # unused here; perfbench's tracer test checks this name is wrapped
    train_teachers,
)
from .errors import CalibrationError, Config, ConfigError, write_atomic

TAU_THRESHOLD = 0.02  # study-repro counts a ranking changed above this Kendall-tau distance
MONOTONE_SLACK = 0.02  # how far exposure may fall as a calibrated boost grows


@dataclass
class BoostStudyConfig(Config, section="boost"):
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

    def __post_init__(self):
        for name in ("exposure_k", "max_iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"boost {name} must be >= 1, got {getattr(self, name)}")
        for name in ("exposure_tolerance", "gamma_max", "beta_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"boost {name} must be finite and positive, got {value}")
        if not math.isfinite(self.target_lift):
            raise ConfigError(f"boost target_lift must be finite, got {self.target_lift}")
        _named("boost rho", lambda: BoostRule(predicate="rating_at_least", rho=self.rho))


def _named(name: str, build) -> None:
    """Run build(), naming the config field name in any ConfigError it raises."""
    try:
        build()
    except ConfigError as e:
        raise ConfigError(f"{name}: {e}") from e


@dataclass
class ExperimentConfig(Config, section="experiment"):
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
        if self.generator.seed + self.eval_seed_offset < 0:
            raise ConfigError("generator.seed + eval_seed_offset, the eval seed, must be >= 0")
        # Build what the studies build, so a bad value stops before any data exists.
        _named("alpha_sweep", lambda: [replace(self.distill, alpha=a) for a in self.alpha_sweep])
        _named("teacher_epochs", lambda: self.teacher_config)
        _named("eval_queries", lambda: self.eval_generator)
        _named("boost", lambda: self.boost_generator)
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

    @property
    def eval_generator(self) -> GeneratorConfig:
        """The held-out split's generator: eval_queries queries, its own seed."""
        return replace(self.generator, num_queries=self.eval_queries,
                       seed=self.generator.seed + self.eval_seed_offset)

    @property
    def boost_generator(self) -> GeneratorConfig:
        """The generator with the boost study's page size and query count."""
        bc = self.boost
        overrides = {"items_per_query": bc.items_per_query, "num_queries": bc.num_queries}
        return replace(self.generator, **{k: v for k, v in overrides.items() if v is not None})


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
        # write_atomic makes a rewrite whole, so it replaces a truncated file.
        with write_atomic(os.path.join(self.dir, f"{digest}.json")) as f:
            f.write(payload)
        return digest


class _Study:
    """What every study shares: the train and eval splits, the checkpoint
    store, the teachers, the seed family and the report header."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.train_ds = generate_dataset(config.generator)
        self.eval_ds = generate_dataset(config.eval_generator)
        self.eval_hash = self.eval_ds.content_hash()
        self.store = CheckpointStore(config.output_dir)
        self.teacher_hashes = None

    def teachers(self, dataset: Dataset) -> TeacherEnsemble:
        """One teacher per objective on dataset, stored and named in the report."""
        teachers = train_teachers(dataset, self.config.teacher_config)
        self.teacher_hashes = [self.store.put_model(m) for m in teachers.models]
        return teachers

    def seed_configs(self, n: int) -> list[DistillConfig]:
        """The student config reseeded n times, 1000 apart."""
        dc = self.config.distill
        return [dc.with_seed(dc.seed + 1000 * s) for s in range(n)]

    def report(self, study: str, body: dict, per_query_scores=None) -> dict:
        """The report: the shared header plus body, written to the output dir."""
        report = {
            "study": study,
            "config": self.config.to_dict(),
            "teacher_checkpoints": self.teacher_hashes,
            "train_dataset_hash": self.train_ds.content_hash(),
            "eval_dataset_hash": self.eval_hash,
            **body,
        }
        _write_report(self.config.output_dir, report, per_query_scores, self.eval_ds)
        return report


def study_distill_vs_baselines(config: ExperimentConfig) -> dict:
    """Distilled student vs model-fusion, scalarized, and hard-only arms."""
    study = _Study(config)
    train_ds, eval_ds = study.train_ds, study.eval_ds
    rule = BoostRule(predicate="rating_at_least", rho=config.boost.rho)
    teachers = study.teachers(train_ds)
    soft = fuse_soft_labels(teachers, train_ds)

    def measured(lineage, checkpoint, scores):
        """A run's report entry, less its arm name, and its eval scores."""
        metrics = evaluation.ranking_metrics_report(scores, eval_ds, rule).to_dict()
        entry = {"lineage": lineage, "checkpoint_hash": checkpoint,
                 "dataset_hash": study.eval_hash, "metrics": metrics}
        return entry, scores

    # One lockstep family: every run shares the data and config.distill up
    # to its loss. Acceptance criterion 3: train_student at alpha 1.0 is
    # train_hard_only bit for bit, so the alpha 1.0 student takes the
    # hard-only parameters, scores and metrics under its own lineage.
    alphas = dict.fromkeys((config.distill.alpha, *config.alpha_sweep))
    distilled = [a for a in alphas if a != 1.0]
    models = train_runs(train_ds, [
        Run.hard_only(config.distill),
        *(Run.student(train_ds, soft, replace(config.distill, alpha=a)) for a in distilled),
        Run.scalarized(train_ds, [1.0 / train_ds.K] * train_ds.K, config.distill),
    ])
    hard_run, *sweep, scalarized_run = (
        measured(model.lineage, study.store.put_model(model), scores)
        for model, scores in zip(models, score_models(models, eval_ds))
    )
    students = {alpha: ({**entry, "alpha": alpha}, scores)
                for alpha, (entry, scores) in zip(distilled, sweep)}
    if 1.0 in alphas:
        entry, scores = hard_run
        hard_only = models[0]
        checkpoint = study.store.put_model(Model(hard_only.config, hard_only.params, "student_v0"))
        students[1.0] = ({**entry, "lineage": "student_v0", "checkpoint_hash": checkpoint,
                          "alpha": 1.0}, scores)
    fusion_scores = fuse_soft_labels(teachers, eval_ds).scores
    teacher_hashes = ",".join(study.teacher_hashes)
    arm_runs = {
        "fusion_baseline": measured("baseline:model_fusion", teacher_hashes, fusion_scores),
        "scalarized_baseline": scalarized_run,
        "hard_only_student": hard_run,
        "distilled_student": students[config.distill.alpha],
    }
    arms = [{"arm": name, **entry} for name, (entry, _) in arm_runs.items()]
    baseline_ndcg = arms[0]["metrics"]["ndcg_at_10"]
    return study.report(
        "distill_vs_baselines",
        {
            "arms": arms,
            "alpha_sweep": [
                {"arm": f"alpha_{alpha}", **students[alpha][0], "alpha": alpha}
                for alpha in config.alpha_sweep
            ],
            "deltas_vs_fusion_ndcg10": {
                a["arm"]: a["metrics"]["ndcg_at_10"] - baseline_ndcg for a in arms
            },
        },
        per_query_scores={name: scores for name, (_, scores) in arm_runs.items()},
    )


def study_self_distillation(config: ExperimentConfig) -> dict:
    """V1 (self-distilled on shifted window) vs V0 retrained from teachers."""
    study = _Study(config)
    window_a, _ = split_by_time(study.train_ds, config.train_boundary_day)
    _, window_b = split_by_time(study.train_ds, config.shift_start_day)
    if not window_a.groups or not window_b.groups:
        raise ConfigError("time shift leaves an empty training window")

    teachers = study.teachers(window_a)
    soft_a = fuse_soft_labels(teachers, window_a)
    soft_b = fuse_soft_labels(teachers, window_b)

    configs = study.seed_configs(config.parity_seeds)
    v0s = train_runs(window_a, [Run.student(window_a, soft_a, cfg) for cfg in configs])
    v1s = self_distill(v0s, window_b, configs)
    rv0s = train_runs(window_b, [Run.student(window_b, soft_b, cfg) for cfg in configs])
    ndcg10 = [evaluation.mean_ndcg(scores, study.eval_ds, 10)
              for scores in score_models(v1s + rv0s, study.eval_ds)]
    ndcg_v1, ndcg_rv0 = ndcg10[:len(configs)], ndcg10[len(configs):]
    rows = [
        {
            "seed": cfg.seed,
            "v0_checkpoint": study.store.put_model(v0),
            "v1_checkpoint": study.store.put_model(v1),
            "retrained_v0_checkpoint": study.store.put_model(rv0),
            "v1_lineage": v1.lineage,
            "ndcg10_v1": v1_ndcg,
            "ndcg10_retrained_v0": rv0_ndcg,
            "dataset_hash": study.eval_hash,
        }
        for cfg, v0, v1, rv0, v1_ndcg, rv0_ndcg in zip(configs, v0s, v1s, rv0s, ndcg_v1, ndcg_rv0)
    ]

    mean_v1, mean_rv0 = fmean(ndcg_v1), fmean(ndcg_rv0)
    return study.report(
        "self_distillation",
        {
            "window_a_queries": len(window_a.groups),
            "window_b_queries": len(window_b.groups),
            "per_seed": rows,
            "mean_ndcg10_v1": mean_v1,
            "mean_ndcg10_retrained_v0": mean_rv0,
            "parity_gap": abs(mean_v1 - mean_rv0),
        },
    )


def _pairwise_sxs(scores: list[dict], dataset: Dataset, tau_threshold: float):
    """Mean change rate and PD over every pair of models' scores."""
    rates, pds = [], []
    for i in range(len(scores)):
        for j in range(i + 1, len(scores)):
            rep = evaluation.sxs_report(scores[i], scores[j], dataset, tau_threshold)
            rates.append(rep.change_rate)
            pds.append(rep.pd)
    return fmean(rates), fmean(pds)


def study_irreproducibility(config: ExperimentConfig) -> dict:
    """Seed-to-seed instability of hard-only vs distilled students."""
    study = _Study(config)
    train_ds = study.train_ds
    soft = fuse_soft_labels(study.teachers(train_ds), train_ds)

    models = train_runs(train_ds, [
        run for cfg in study.seed_configs(config.num_seeds)
        for run in (Run.hard_only(cfg), Run.student(train_ds, soft, cfg))
    ])
    scores = score_models(models, study.eval_ds)
    families = {"hard_only": slice(0, None, 2), "distilled": slice(1, None, 2)}

    body = {"tau_threshold": TAU_THRESHOLD}
    for name, family in families.items():
        rate, pd = _pairwise_sxs(scores[family], study.eval_ds, TAU_THRESHOLD)
        body[name] = {
            "models": [
                {"seed": m.seed, "checkpoint_hash": study.store.put_model(m)}
                for m in models[family]
            ],
            "mean_change_rate": rate,
            "mean_pd": pd,
        }
    reductions = {"change_rate_reduction_pct": "mean_change_rate", "pd_reduction_pct": "mean_pd"}
    for key, metric in reductions.items():
        hard, dist = body["hard_only"][metric], body["distilled"][metric]
        body[key] = 100.0 * (hard - dist) / hard if hard > 0 else 0.0
    return study.report("irreproducibility", body)


def _doublings(x: float, iterations: int, hi_max: float, max_iter: int) -> list[float]:
    """The next two doublings of x, at most hi_max, that _bisect_exposure's
    bracketing could still reach after iterations of its max_iter."""
    return [x * 2.0**k for k in (1, 2) if x * 2.0**k <= hi_max and iterations + k <= max_iter]


def _exposure_search(lift: float, tolerance: float, hi_max: float, max_iter: int):
    """Search for the boost x whose exposure is exposure(0) + lift, +/- tolerance.

    A generator: it yields each list of xs it needs measured and is sent
    the (exposure, result) pair of each, with exposure (noisily)
    non-decreasing in x. It returns (x, exposure, result) at the x picked,
    and the pair at x = 0.

    The search doubles x from 1 until the exposure reaches the target, then
    bisects. It asks for each x it needs with the points it could visit
    next: first x = 0 with 1 and its next two doublings (x = 0 alone when
    lift <= tolerance, where zero is on target), then while bracketing the
    next two doublings up to hi_max (see _doublings), and while bisecting
    both child midpoints. The path, the result and every error are those of
    a search that measures one x at a time, and only the path is checked
    for monotonicity.
    """
    evals = []
    measured = {}

    def f(x, ahead):
        nonlocal measured
        if x not in measured:
            # Every point measured so far is on the path already, or off it for good.
            xs = [x, *ahead]
            measured = dict(zip(xs, (yield xs)))
        e, result = measured[x]
        evals.append((x, e))
        return e, result

    first = [] if lift <= tolerance else [1.0, *_doublings(1.0, 0, hi_max, max_iter)]
    at_zero = yield from f(0.0, first)
    target = at_zero[0] + lift
    if at_zero[0] >= target - tolerance:
        return (0.0, *at_zero), at_zero
    iterations = 0
    lo, hi = 0.0, 1.0
    e_hi, r_hi = yield from f(hi, _doublings(hi, iterations, hi_max, max_iter))
    while e_hi < target and hi < hi_max:
        iterations += 1
        if iterations > max_iter:
            raise CalibrationError("exposure bracketing did not converge")
        lo = hi
        hi *= 2.0
        e_hi, r_hi = yield from f(hi, _doublings(hi, iterations, hi_max, max_iter))
    if e_hi < target - tolerance:
        raise CalibrationError(
            f"exposure target {target:.3f} unreachable (max {e_hi:.3f} at {hi})"
        )
    best = (hi, e_hi, r_hi)
    while iterations < max_iter:
        iterations += 1
        mid = (lo + hi) / 2.0
        children = [(lo + mid) / 2.0, (mid + hi) / 2.0] if iterations < max_iter else []
        e_mid, r_mid = yield from f(mid, children)
        if abs(e_mid - target) <= abs(best[1] - target):
            best = (mid, e_mid, r_mid)
        if abs(e_mid - target) <= tolerance:
            _check_monotone(evals)
            return (mid, e_mid, r_mid), at_zero
        if e_mid < target:
            lo = mid
        else:
            hi = mid
    if abs(best[1] - target) <= tolerance:
        _check_monotone(evals)
        return best, at_zero
    raise CalibrationError(
        f"exposure calibration did not reach {target:.3f} within {max_iter} iterations"
    )


def _lockstep(searches, measure) -> list:
    """Each search's return value, or the CalibrationError it raised,
    running the searches in rounds: each round, measure(requests) gets the
    (index, xs) request of every search still running, at once, and
    returns each request's measurements in order. An error is kept, not
    raised, so that the caller can raise the errors in the order of
    searches run one after another."""
    outcomes = [None] * len(searches)
    replies = dict.fromkeys(range(len(searches)))
    while replies:
        requests = []
        for i, reply in replies.items():
            try:
                requests.append((i, searches[i].send(reply)))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except CalibrationError as e:
                outcomes[i] = e
        replies = dict(zip([i for i, _ in requests], measure(requests))) if requests else {}
    return outcomes


def _outcome(outcome):
    """A _lockstep outcome's return value; a CalibrationError is raised."""
    if isinstance(outcome, CalibrationError):
        raise outcome
    return outcome


def _bisect_exposure(measure, lift: float, tolerance: float, hi_max: float, max_iter: int):
    """The _exposure_search for lift, measuring each of its requests with
    measure(xs)."""
    search = _exposure_search(lift, tolerance, hi_max, max_iter)
    (outcome,) = _lockstep([search], lambda requests: [measure(xs) for _, xs in requests])
    return _outcome(outcome)


def _check_monotone(evals) -> None:
    pts = sorted(evals)
    for (x0, e0), (x1, e1) in zip(pts, pts[1:]):
        if e1 < e0 - MONOTONE_SLACK:
            raise CalibrationError(
                f"exposure not monotone: f({x0})={e0:.4f} > f({x1})={e1:.4f}"
            )


def study_adhoc_boost(config: ExperimentConfig) -> dict:
    """Serving-time score boost vs soft-label boost at matched exposure."""
    bc = config.boost
    config = replace(config, generator=config.boost_generator)
    study = _Study(config)
    train_ds, eval_ds = study.train_ds, study.eval_ds
    rule = BoostRule(predicate="rating_at_least", rho=bc.rho)
    soft = fuse_soft_labels(study.teachers(train_ds), train_ds)

    def exposure(scores):
        return evaluation.mean_boosted_exposure(scores, eval_ds, rule, bc.exposure_k)

    # Both boosts at zero are the baseline: gamma 0 adds +0.0 to every
    # score, and beta 0 only turns a -0.0 soft score into +0.0, which
    # leaves every softmax target, and so the trained student, unchanged.
    # So beta 0 trains on the soft labels as they are, and gamma 0 reuses that student.
    configs = study.seed_configs(config.parity_seeds)

    def soft_exposures(requests):
        """For each seed's request of betas, the (exposure, (model, eval
        scores)) of its student on the soft labels boosted by each beta;
        every seed's students train as one lockstep family."""
        runs = [Run.student(train_ds, inject_boost(soft, replace(rule, beta=b), train_ds)
                            if b else soft, configs[i])
                for i, betas in requests for b in betas]
        models = train_runs(train_ds, runs)
        measured = iter([(exposure(scores), (model, scores))
                         for model, scores in zip(models, score_models(models, eval_ds))])
        return [[next(measured) for _ in betas] for _, betas in requests]

    searches = [_exposure_search(bc.target_lift, bc.exposure_tolerance, bc.beta_max,
                                 bc.max_iterations) for _ in configs]
    rows = []
    for cfg, outcome in zip(configs, _lockstep(searches, soft_exposures)):
        (beta, soft_exp, (soft_model, soft_scores)), (base_exp, (base, base_scores)) = (
            _outcome(outcome)
        )

        def served(gamma):
            """The baseline's eval scores boosted by gamma: serving rescores
            nothing, since scoring is deterministic."""
            boost = replace(rule, beta=gamma)
            scores = {g.query_id: boost.apply(base_scores[g.query_id], g) for g in eval_ds.groups}
            return exposure(scores), scores

        (gamma, serve_exp, serve_scores), _ = _bisect_exposure(
            lambda gammas: [served(x) if x else (base_exp, base_scores) for x in gammas],
            bc.target_lift, bc.exposure_tolerance, bc.gamma_max, bc.max_iterations,
        )
        rows.append(
            {
                "seed": cfg.seed,
                "baseline_checkpoint": study.store.put_model(base),
                "soft_boost_checkpoint": study.store.put_model(soft_model),
                "dataset_hash": study.eval_hash,
                "baseline_ndcg10": evaluation.mean_ndcg(base_scores, eval_ds, 10),
                "baseline_exposure": base_exp,
                "target_exposure": base_exp + bc.target_lift,
                "gamma": gamma,
                "serve_exposure": serve_exp,
                "serve_ndcg10": evaluation.mean_ndcg(serve_scores, eval_ds, 10),
                "beta": beta,
                "soft_exposure": soft_exp,
                "soft_ndcg10": evaluation.mean_ndcg(soft_scores, eval_ds, 10),
                "exposure_gap": abs(serve_exp - soft_exp),
            }
        )

    return study.report(
        "adhoc_boost",
        {
            "boost_rule": rule.describe(),
            "per_seed": rows,
            "mean_serve_ndcg_loss": fmean(
                [r["baseline_ndcg10"] - r["serve_ndcg10"] for r in rows]
            ),
            "mean_soft_ndcg_loss": fmean([r["baseline_ndcg10"] - r["soft_ndcg10"] for r in rows]),
            "max_exposure_gap": max(r["exposure_gap"] for r in rows),
        },
    )


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


def _write_report(output_dir, report, per_query_scores, eval_ds) -> None:
    markdown = _report_markdown(report)
    with write_atomic(os.path.join(output_dir, "report.json")) as f:
        f.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with write_atomic(os.path.join(output_dir, "report.md")) as f:
        f.write(markdown)
    if per_query_scores:
        with write_atomic(os.path.join(output_dir, "metrics.csv")) as f:
            writer = csv.writer(f)
            writer.writerow(["arm", "query_id", "ndcg_at_10"])
            for arm in sorted(per_query_scores):
                ndcgs = evaluation.query_ndcg(per_query_scores[arm], eval_ds, 10)
                for g, ndcg in zip(eval_ds.groups, ndcgs):
                    writer.writerow([arm, g.query_id, repr(ndcg)])


STUDIES = {
    "distill": study_distill_vs_baselines,
    "self": study_self_distillation,
    "repro": study_irreproducibility,
    "boost": study_adhoc_boost,
}
