"""Training pipelines: per-objective teachers, soft-label fusion, boost
injection, student distillation, self-distillation, and baselines.

All trainers share one deterministic engine, train_runs: a generator
seeded with the run's one seed, mlp.seed, draws the initial weights and
then one shuffle of the query-group order per epoch, and each group is a
single SGD step for each run that does not skip it. A run's loss on a
group is a list of weighted listwise-CE terms, built once per run; each
step calls nn's forward, listwise_grad and backprop kernels, the same code
behind nn's public functions, and nn.sgd_step updates the flat parameter
buffer in place. Two runs with the same config and seed are bit-identical,
and equal to a loop over the public nn functions.

Runs that share a dataset, an mlp config (and so a seed), the epochs and
the learning rate differ only in their loss terms, so train_runs trains
them together: one stacked forward pass, backprop and update per group,
each run's rows bit for bit what it gives trained alone. Each public
trainer is its Run plus one train_runs call.
"""

from __future__ import annotations

import json
import math
from contextlib import closing
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .data import Dataset, QueryGroup
from .errors import (
    Config, ConfigError, InputError, ParseError, TrainingError, read_jsonl, write_atomic,
)


@dataclass(frozen=True)
class DistillConfig(Config, section="distill"):
    """Hyperparameters for one training run. Its only seed is mlp.seed,
    which checkpoints store: it draws the initial weights, then every
    epoch's shuffle."""

    mlp: nn.MlpConfig
    alpha: float = 0.2
    temperature: float = 1.0
    epochs: int = 10
    learning_rate: float = 0.05
    # Temperature of the softmax turning fused teacher scores into a target
    # distribution; kept separate from the student-side temperature.
    teacher_temperature: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.temperature > 0 and self.teacher_temperature > 0):
            raise ConfigError("temperatures must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive")

    @property
    def seed(self) -> int:
        return self.mlp.seed

    def with_seed(self, seed: int) -> "DistillConfig":
        return replace(self, mlp=replace(self.mlp, seed=seed))


@dataclass
class Model:
    """A trained ranker with its provenance."""

    config: nn.MlpConfig
    params: nn.ParameterSet
    lineage: str

    def __post_init__(self):
        if self.params.flat.ndim != 1:
            raise InputError("a model holds one run's parameters, not a stack")
        if self.params.layer_dims() != self.config.layer_dims:
            raise InputError("params do not match config")

    @property
    def seed(self) -> int:
        return self.config.seed

    def score_group(self, group: QueryGroup) -> np.ndarray:
        scores, _ = nn.mlp_forward(self.params, group.features, self.config.activation)
        return scores

    def save(self, path) -> str:
        return nn.save_checkpoint(
            self.config, self.params, path, extra={"lineage": self.lineage}
        )

    @classmethod
    def load(cls, path) -> "Model":
        config, params, doc = nn.load_checkpoint(path)
        lineage = doc.get("lineage", "unknown")
        if type(lineage) is not str:
            raise ParseError(f"checkpoint {path}: lineage must be a string")
        return cls(config=config, params=params, lineage=lineage)


def _weight_vector(weights, n: int, name: str) -> np.ndarray:
    """weights as n finite nonnegative floats, not all zero, with a finite
    sum, or a ConfigError naming the parameter."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ConfigError(f"{name} must have {n} entries, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ConfigError(f"{name} must be finite")
    if (w < 0).any():
        raise ConfigError(f"{name} must be nonnegative")
    with np.errstate(over="ignore"):  # an overflowing sum raises below
        total = w.sum()
    if total <= 0:
        raise ConfigError(f"{name} must not all be zero")
    if not np.isfinite(total):
        raise ConfigError(f"{name} must have a finite sum")
    return w


@dataclass
class TeacherEnsemble:
    """One frozen model per objective plus fusion weights."""

    models: list[Model]
    fusion_weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.models:
            raise ConfigError("ensemble needs at least one model")
        if self.fusion_weights is None:
            self.fusion_weights = np.full(len(self.models), 1.0 / len(self.models))
        w = _weight_vector(self.fusion_weights, len(self.models), "fusion_weights")
        self.fusion_weights = w / w.sum()

    def params_hashes(self) -> list[str]:
        return [m.params.params_hash() for m in self.models]


@dataclass
class SoftLabelSet:
    """Per-query raw soft scores aligned with a dataset.

    scores maps query_id to the fused (or self-distilled, or boosted) raw
    score vector over that query's items; a student's soft target is
    nn.listwise_softmax of it at teacher_temperature.
    """

    scores: dict[int, np.ndarray]
    provenance: str

    def check_alignment(self, dataset: Dataset) -> None:
        for g in dataset.groups:
            s = self.scores.get(g.query_id)
            if s is None or len(s) != g.size:
                raise InputError(
                    f"soft labels misaligned with dataset at query {g.query_id}"
                )

    def save(self, path) -> None:
        with write_atomic(path) as f:
            f.write(json.dumps({"provenance": self.provenance}, sort_keys=True) + "\n")
            for qid in self.scores:
                doc = {"query_id": qid, "scores": self.scores[qid].tolist()}
                f.write(json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SoftLabelSet":
        name = f"soft labels {path}"
        with closing(read_jsonl(path, name)) as rows:
            lineno, header = next(rows, (None, None))
            provenance = header.get("provenance") if isinstance(header, dict) else None
            if lineno != 1 or type(provenance) is not str:
                message = f"{name}: header must be an object with a string 'provenance'"
                raise ParseError(message, line=1)
            scores = {}
            for lineno, doc in rows:
                try:
                    qid, row = doc["query_id"], doc["scores"]
                except (KeyError, TypeError) as e:
                    raise ParseError(f"{name}: bad soft-label row: {e}", line=lineno) from e
                if type(qid) is not int:
                    got = json.dumps(qid)
                    raise ParseError(f"{name}: query_id must be an int, got {got}", line=lineno)
                if qid in scores:
                    raise ParseError(f"{name}: duplicate query_id {qid}", line=lineno)
                # numpy would read true as 1.0 and "1.5" as 1.5.
                if type(row) is not list or not set(map(type, row)) <= {int, float}:
                    message = f"{name}: query_id {qid}: scores must be a list of numbers"
                    raise ParseError(message, line=lineno)
                try:
                    row = np.asarray(row, dtype=np.float64)
                except OverflowError as e:
                    raise ParseError(f"{name}: query_id {qid}: {e}", line=lineno) from e
                if not np.isfinite(row).all():
                    raise ParseError(f"{name}: query_id {qid}: non-finite scores", line=lineno)
                scores[qid] = row
        return cls(scores=scores, provenance=provenance)


@dataclass(frozen=True)
class BoostRule:
    """Predicate over a group's items plus the boost magnitude added to soft scores."""

    predicate: str  # "rating_at_least" | "is_new"
    beta: float = 0.0
    rho: float = 4.0

    def __post_init__(self):
        if self.predicate not in ("rating_at_least", "is_new"):
            raise ConfigError(f"unknown predicate {self.predicate!r}")
        if not (0.0 <= self.rho <= 5.0):
            raise ConfigError("rho must be in [0, 5]")
        if not math.isfinite(self.beta):
            raise ConfigError(f"beta must be finite, got {self.beta}")

    def match_mask(self, group: QueryGroup) -> np.ndarray:
        if self.predicate == "is_new":
            return group.is_new.copy()
        return group.ratings >= self.rho

    def describe(self) -> str:
        if self.predicate == "is_new":
            return f"is_new:beta={self.beta}"
        return f"rating_at_least:rho={self.rho}:beta={self.beta}"


def _objective_target(group: QueryGroup, k: int) -> np.ndarray | None:
    """Objective k's labels normalized to a distribution, or None with no positive."""
    vals, _ = group.objective_labels(k)
    total = vals.sum()
    if total <= 0:
        return None
    return vals / total


def _label_terms(k: int):
    """terms(group) for listwise CE against objective k's labels alone."""
    return lambda group: nn.blend_terms(_objective_target(group, k), None, 1.0, 1.0)


class Run(NamedTuple):
    """One training run for train_runs: terms(group) gives the group's loss
    as nn.listwise_grad terms, or None or no terms to skip the group. Its
    model gets config.mlp and lineage."""

    config: DistillConfig
    lineage: str
    terms: Callable

    @classmethod
    def hard_only(cls, config: DistillConfig) -> "Run":
        """The run of train_hard_only."""
        return cls(config, "baseline:hard_only", _label_terms(0))

    @classmethod
    def student(
        cls, dataset: Dataset, soft: SoftLabelSet, config: DistillConfig, lineage="student_v0"
    ) -> "Run":
        """The run of train_student."""
        soft.check_alignment(dataset)
        alpha, t, teacher_t = config.alpha, config.temperature, config.teacher_temperature

        def terms(group):
            soft_target = None  # at alpha 1 blend_terms drops the soft term
            if alpha < 1:
                soft_target = nn.listwise_softmax(soft.scores[group.query_id], teacher_t)
            return nn.blend_terms(_objective_target(group, 0), soft_target, alpha, t)

        return cls(config, lineage, terms)

    @classmethod
    def scalarized(cls, dataset: Dataset, objective_weights, config: DistillConfig) -> "Run":
        """The run of train_scalarized_baseline."""
        weights = _weight_vector(objective_weights, dataset.K, "objective_weights")
        return cls(config, "baseline:scalarized", lambda group: nn.live_terms(
            [(w, 1.0, _objective_target(group, k)) for k, w in enumerate(weights)]
        ))


def train_runs(dataset: Dataset, runs: list[Run]) -> list[Model]:
    """The model of each run, trained together in one deterministic SGD
    loop over query groups. The runs must share the mlp config (and so the
    seed), epochs and learning rate.

    Each run's terms(group) runs once per group before the first epoch.
    The runs start from the same weights and visit the groups in the same
    shuffled order, so they step in lockstep: each group takes one stacked
    nn.layer_outputs over the runs that step there, one nn.listwise_grad
    per run, one stacked nn.backprop_into into arrays reused across steps,
    and one nn.sgd_step on their rows of the (R, P) buffer, with one finiteness
    check that names the layer on failure. A run that skips a group has its
    rows neither read nor written there and its scores unchecked, and no
    skip moves the shuffle stream. So each model is bit for bit its run
    trained alone, which is what makes degenerate trainer comparisons
    bitwise.
    """
    if not runs:
        raise ConfigError("train_runs needs at least one run")
    config = runs[0].config

    def shared(c):
        return c.mlp, c.epochs, c.learning_rate

    if any(shared(run.config) != shared(config) for run in runs):
        raise ConfigError("runs trained together must share mlp, epochs and learning_rate")
    if not dataset.groups:
        raise TrainingError("cannot train on an empty dataset")
    mlp = config.mlp
    if dataset.m != mlp.input_dim:
        raise InputError(f"dataset m={dataset.m} != mlp input dim {mlp.input_dim}")
    plan = []
    for group in dataset.groups:
        if not np.isfinite(group.features).all():
            raise InputError(f"query {group.query_id}: features contain non-finite values")
        terms = [run.terms(group) for run in runs]
        active = [r for r, t in enumerate(terms) if t]
        plan.append((group, active, [terms[r] for r in active]))
    rng = np.random.default_rng(config.seed)
    first = nn.init_params(mlp, rng)
    params = nn.ParameterSet(np.tile(first.flat, (len(runs), 1)), first.shapes)
    grads = nn.zeros_like_params(params)
    relu, lr = mlp.activation == "relu", config.learning_rate
    order = np.arange(len(plan))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for gi in order:
            group, active, work = plan[gi]
            if len(active) == len(runs):
                p, g = params, grads
            elif active:  # copies of the active rows, written back after the step
                p = nn.ParameterSet(params.flat[active], first.shapes)
                g = nn.ParameterSet(grads.flat[:len(active)], first.shapes)
            else:
                continue
            hs = nn.layer_outputs(p, group.features, relu)
            scores = hs[-1][..., 0]
            if not np.isfinite(scores).all():
                raise InputError(f"query {group.query_id}: forward pass produced non-finite scores")
            per_score = np.array([nn.listwise_grad(scores[j], t) for j, t in enumerate(work)])
            nn.backprop_into(g, hs, p, per_score, relu)
            nn.sgd_step(p, g, lr)
            if p is not params:
                params.flat[active] = p.flat
    return [Model(config=mlp, params=params.row(r), lineage=run.lineage)
            for r, run in enumerate(runs)]


def train_teacher(
    dataset: Dataset, objective_index: int, config: DistillConfig
) -> Model:
    """Listwise-CE model for one objective, on its covered groups only."""
    if not (0 <= objective_index < dataset.K):
        raise InputError(f"objective index {objective_index} out of range")
    covered = [g for g in dataset.groups if g.has_labels_for(objective_index)]
    if not covered:
        raise TrainingError(
            f"objective {objective_index} has zero label coverage; cannot train"
        )
    subset = Dataset(
        objectives=list(dataset.objectives), groups=covered, m=dataset.m, K=dataset.K
    )
    name = dataset.objectives[objective_index].name
    run = Run(config, f"teacher:{name}", _label_terms(objective_index))
    return train_runs(subset, [run])[0]


def train_teachers(dataset: Dataset, config: DistillConfig) -> TeacherEnsemble:
    """One teacher per objective, objective k's seeded with config.seed + k."""
    models = [
        train_teacher(dataset, k, config.with_seed(config.seed + k)) for k in range(dataset.K)
    ]
    return TeacherEnsemble(models=models)


def fusion_serve_scores(teachers: TeacherEnsemble, group: QueryGroup) -> np.ndarray:
    """Serving-time model fusion: weighted sum of teacher scores."""
    fused = np.zeros(group.size)
    for w, model in zip(teachers.fusion_weights, teachers.models):
        fused = fused + w * model.score_group(group)
    return fused


def fuse_soft_labels(teachers: TeacherEnsemble, dataset: Dataset) -> SoftLabelSet:
    """Fused raw teacher scores per query; teachers stay frozen."""
    before = teachers.params_hashes()
    scores = {g.query_id: fusion_serve_scores(teachers, g) for g in dataset.groups}
    if teachers.params_hashes() != before:
        raise TrainingError("teacher parameters changed during fusion")
    return SoftLabelSet(scores=scores, provenance="teacher_fusion")


def inject_boost(soft: SoftLabelSet, rule: BoostRule, dataset: Dataset) -> SoftLabelSet:
    """Add beta to matching items' raw soft scores; others untouched."""
    soft.check_alignment(dataset)
    boosted = {}
    for g in dataset.groups:
        mask = rule.match_mask(g)
        boosted[g.query_id] = soft.scores[g.query_id] + rule.beta * mask
    return SoftLabelSet(scores=boosted, provenance=f"boosted({rule.describe()})")


def score_dataset(model: Model, dataset: Dataset) -> dict[int, np.ndarray]:
    """Deterministic per-group score vectors (the serving path)."""
    if dataset.m != model.config.input_dim:
        raise InputError("dataset feature dim does not match model")
    return {g.query_id: model.score_group(g) for g in dataset.groups}


def train_student(
    dataset: Dataset, soft: SoftLabelSet, config: DistillConfig, lineage: str = "student_v0"
) -> Model:
    """Distillation training: alpha-weighted hard CE plus soft CE.

    Groups without a booked item contribute only the soft term. The soft
    target is the softmax (at teacher_temperature) of the stored raw
    scores; the student-side soft softmax uses config.temperature.
    """
    return train_runs(dataset, [Run.student(dataset, soft, config, lineage)])[0]


def train_hard_only(dataset: Dataset, config: DistillConfig) -> Model:
    """Hard-label-only trainer over the full dataset (baseline family)."""
    return train_runs(dataset, [Run.hard_only(config)])[0]


def student_version(model: Model) -> int | None:
    if model.lineage.startswith("student_v"):
        try:
            return int(model.lineage[len("student_v"):])
        except ValueError:
            return None
    return None


def self_distill_step(
    prev_student: Model, dataset_new: Dataset, config: DistillConfig
) -> Model:
    """Retrain using the previous student's own scores as soft labels."""
    if dataset_new.m != prev_student.config.input_dim:
        raise InputError("dataset feature dim does not match previous student")
    before = prev_student.params.params_hash()
    raw = score_dataset(prev_student, dataset_new)
    prev_version = student_version(prev_student)
    version = 1 if prev_version is None else prev_version + 1
    soft = SoftLabelSet(scores=raw, provenance=f"self_distill(version={version})")
    model = train_student(dataset_new, soft, config, lineage=f"student_v{version}")
    if prev_student.params.params_hash() != before:
        raise TrainingError("previous student parameters changed during self-distill")
    return model


def train_scalarized_baseline(dataset: Dataset, objective_weights, config: DistillConfig) -> Model:
    """Single MLP minimizing the weighted sum of per-objective listwise CEs.

    Each objective contributes only on groups with a positive label for
    it, so sparse objectives show up in fewer steps.
    """
    return train_runs(dataset, [Run.scalarized(dataset, objective_weights, config)])[0]
