"""Training pipelines: per-objective teachers, soft-label fusion, boost
injection, student distillation, self-distillation, and baselines.

All trainers share one deterministic engine, train_runs: a generator
seeded with the run's one seed, mlp.seed, draws the initial weights and
then one shuffle of the query-group order per epoch, and each SGD step
takes the next batch_size groups of that order (one, by default) and
steps on the mean gradient of the groups the run does not skip, if any.
A batch's groups are stacked on the item axis, so a step over several
costs little more than a step over one. A run's loss on a
group is a list of weighted listwise-CE terms, built once per run for a
whole length bucket (data.length_buckets) at a time and written into
arrays allocated once, at the most terms any run gives on the first
bucket. Every group is padded once, to the dataset's longest list, by
repeating its last item, and the padding is masked out of every softmax,
so every step computes at that one width. Each step calls nn's
forward, terms_grad and backprop kernels, the same code behind nn's public
functions, and nn.sgd_step updates the flat parameter buffer in place. Two
runs with the same config and seed are bit-identical, and equal to a loop
over the public nn functions that pads each group the same way (to
rounding, at a batch_size above one).

Runs that share a dataset, an architecture, the epochs, the learning rate
and the batch size differ only in their seeds and loss terms, so
train_runs trains them together: each run takes its own next batch, and
one gather, one stacked forward pass, one loss call, one backprop and one
update serve every run per step, each run's rows bit for bit what it
gives trained alone. Each public trainer is its Run plus one train_runs
call, and self_distill retrains a whole generation of students as one
family.

Scoring and fusion run once per length bucket, not once per query:
score_models scores a family's models together over their stacked
parameters, and every score is bit for bit what Model.score_group, the
serving path, gives its query.

BoostRule.apply is the one ad-hoc boost: inject_boost adds it to the soft
labels before training, and evaluation.serve_with_boost and the boost
study add it, at beta gamma, to served scores. inject_boost and the boost
study apply it through BoostRule.apply_by_query, once per length bucket.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import closing, suppress
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import nn
from .data import Dataset, QueryGroup, by_query, check_finite, length_buckets
from .errors import (
    Config, ConfigError, InputError, ParseError, TrainingError, read_jsonl, write_atomic,
)


@dataclass(frozen=True)
class DistillConfig(Config, section="distill"):
    """Hyperparameters for one training run. Its only seed is mlp.seed,
    which checkpoints store: it draws the initial weights, then every
    epoch's shuffle. Each SGD step takes the next batch_size groups of that
    shuffle and averages their gradients."""

    mlp: nn.MlpConfig
    alpha: float = 0.2
    temperature: float = 1.0
    epochs: int = 10
    learning_rate: float = 0.05
    # Temperature of the softmax turning fused teacher scores into a target
    # distribution; kept separate from the student-side temperature.
    teacher_temperature: float = 1.0
    batch_size: int = 1

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (self.temperature > 0 and self.teacher_temperature > 0):
            raise ConfigError("temperatures must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")

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
    nn.softmax of it at teacher_temperature.
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
            for qid, row in self.scores.items():
                check_finite(row, qid, "refusing to save non-finite soft scores")
                doc = {"query_id": qid, "scores": row.tolist()}
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
    """Predicate over a group's items plus the boost beta that apply adds to
    the matching items' scores."""

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

    def apply(self, scores: np.ndarray, group) -> np.ndarray:
        """scores with beta added to the items of group matching the rule,
        for a query group or, row by row, a data.Bucket of them."""
        return scores + self.beta * self.match_mask(group)

    def apply_by_query(self, scores: dict, groups, buckets=None) -> dict[int, np.ndarray]:
        """{query_id: scores} of groups boosted by apply, once per
        data.length_buckets bucket of groups (buckets, if given). The
        addition is elementwise, so each row is apply on its own group."""
        buckets = length_buckets(groups) if buckets is None else buckets
        return by_query(groups, buckets, [self.apply(b.rows(scores), b) for b in buckets])

    def describe(self) -> str:
        if self.predicate == "is_new":
            return f"is_new:beta={self.beta}"
        return f"rating_at_least:rho={self.rho}:beta={self.beta}"


def _objective_targets(labels: np.ndarray, k: int) -> np.ndarray:
    """Objective k's labels normalized to a distribution row by row, from
    (..., n, K) labels; a row with no positive label is all zeros, which
    nn.stack_terms reads as no target."""
    vals = (labels[..., k] == 1).astype(np.float64)
    total = vals.sum(axis=-1, keepdims=True)
    return np.divide(vals, total, out=np.zeros_like(vals), where=total > 0)


def _label_terms(k: int):
    """terms(bucket) for listwise CE against objective k's labels alone."""
    return lambda bucket: nn.blend_terms(_objective_targets(bucket.labels, k), None, 1.0, 1.0)


class Run(NamedTuple):
    """One training run for train_runs. terms(bucket) gives its loss on a
    data.Bucket of groups of one length n, from the bucket's stacked
    labels (B, n, K) and query_id (B,), as nn.stack_terms arrays: weights
    (B, S), temperatures (S,) and targets (B, S, n), one slot per term. A
    group whose weights are all 0 is skipped, so a run of S = 0 never
    steps. train_runs reads S from the first bucket, and no later bucket
    may give more. Its model gets config.mlp and lineage."""

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

        def terms(bucket):
            soft_target = None  # at alpha 1 blend_terms drops the soft term
            if alpha < 1:
                rows = bucket.rows(soft.scores)
                check_finite(rows, bucket.query_id, "soft scores contain non-finite values")
                soft_target = nn.softmax(rows, teacher_t)
            return nn.blend_terms(_objective_targets(bucket.labels, 0), soft_target, alpha, t)

        return cls(config, lineage, terms)

    @classmethod
    def scalarized(cls, dataset: Dataset, objective_weights, config: DistillConfig) -> "Run":
        """The run of train_scalarized_baseline: a slot per objective whose
        weight is not 0."""
        weights = _weight_vector(objective_weights, dataset.K, "objective_weights")
        return cls(config, "baseline:scalarized", lambda bucket: nn.stack_terms(
            [(w, 1.0, _objective_targets(bucket.labels, k)) for k, w in enumerate(weights)],
            bucket.labels.shape[:-1],
        ))


def train_runs(dataset: Dataset, runs: list[Run]) -> list[Model]:
    """The model of each run, trained together in one deterministic SGD
    loop over query groups. The runs must share the architecture, epochs,
    learning rate and batch size; each keeps its own mlp.seed.

    Each run's terms(bucket) runs once per length bucket of the groups
    (data.length_buckets) before the first epoch, and its terms are written
    then into arrays as wide as the most terms a run gives on the first
    bucket, a slot a run leaves empty holding a term of weight 0; a run
    that gives more terms on a later bucket than on the first is refused.
    Every group is padded once to the dataset's longest list by repeating
    its last item, so a padded row has exactly the activations of a real
    one, and a pad of -inf gives it probability and score gradient 0. A
    generator per seed draws the run's initial weights and then one shuffle
    of the group order per epoch. At each step every run takes the next B =
    batch_size groups of its own order, fewer at the end of an epoch, and
    the runs that do not skip all of them take one gather of their groups as
    (R, B, W, m) features, read as (R, B * W, m) rows, then one stacked
    nn.layer_outputs and one nn.terms_grad over (R, B, W), one stacked
    nn.backprop_into into arrays reused across steps, whose weight
    gradients h^T @ delta sum the batch, and one nn.sgd_step on their rows
    of the (R, P) buffer, with one finiteness check that names the layer on
    failure. Each group's score gradient is weighted one over the run's
    live groups in the batch (exactly 1.0 at B = 1), and a group it skips
    weighs 0, so a step is the mean over live groups and a sparse run
    keeps its step size.
    Every group a stepping run's batch holds is scored and checked. A run
    that skips its whole batch has its rows neither read nor written there
    and its scores unchecked, and no skip moves a shuffle stream.

    Every step of every run, a lone run's included, computes at that one
    width, so each run's rows in a stacked call are the arithmetic of its
    call alone on any BLAS kernel: each model is bit for bit its run
    trained alone, which is what makes degenerate trainer comparisons
    bitwise. Runs that share a seed draw the same groups.
    """
    if not runs:
        raise ConfigError("train_runs needs at least one run")
    config = runs[0].config

    def shared(c):
        return replace(c.mlp, seed=0), c.epochs, c.learning_rate, c.batch_size

    if any(shared(run.config) != shared(config) for run in runs):
        raise ConfigError("runs trained together must share mlp up to its seed, epochs, "
                          "learning_rate and batch_size")
    groups = dataset.groups
    if not groups:
        raise TrainingError("cannot train on an empty dataset")
    mlp = config.mlp
    if dataset.m != mlp.input_dim:
        raise InputError(f"dataset m={dataset.m} != mlp input dim {mlp.input_dim}")
    query_ids = np.array([g.query_id for g in groups])
    items = np.concatenate([g.features for g in groups])
    sizes = np.array([g.size for g in groups])
    width, column = sizes.max(), np.arange(sizes.max())
    # Group g's item j, or its last item for j past its size.
    features = items[(np.cumsum(sizes) - sizes)[:, None] + np.minimum(column, sizes[:, None] - 1)]
    check_finite(features, query_ids, "features contain non-finite values", row_axes=2)
    pad = np.where(column < sizes[:, None], 0.0, -np.inf)
    del items
    # Each run's loss terms on each group, written bucket by bucket into
    # arrays allocated once, at the most terms a run gives on the first bucket.
    buckets = length_buckets(groups)
    losses = ([run.terms(bucket) for run in runs] for bucket in buckets)
    first = next(losses)
    counts = [w.shape[-1] for w, _, _ in first]
    active = np.zeros((len(runs), len(groups)), dtype=bool)
    weights = np.zeros(active.shape + (max(counts),))
    temperatures, targets = np.ones(weights.shape), np.zeros(weights.shape + (width,))
    for bucket, loss in zip(buckets, itertools.chain([first], losses)):
        index, n = bucket.index, bucket.groups[0].size
        for r, (run, (w, t, target)) in enumerate(zip(runs, loss)):
            if w.shape[-1] > counts[r]:
                raise ConfigError(f"run {run.lineage!r} gave {w.shape[-1]} loss terms on a "
                                  f"later length bucket, {counts[r]} on the first")
            live = w.any(axis=-1)
            rows = index[live]
            active[r, rows] = True
            weights[r, rows, :w.shape[-1]] = w[live]
            temperatures[r, rows, :w.shape[-1]] = t
            targets[r, rows, :w.shape[-1], :n] = target[live]
    # terms_grad reads None as all ones, and skips their arithmetic. Steps
    # take the plan's rows at run * len(groups) + group.
    plan_shape = (active.size, targets.shape[-2])
    weights = None if (weights[active] == 1).all() else weights.reshape(plan_shape)
    temperatures = None if (temperatures == 1).all() else temperatures.reshape(plan_shape)
    targets, active = targets.reshape(*plan_shape, width), active.ravel()
    rngs = {run.config.seed: np.random.default_rng(run.config.seed) for run in runs}
    firsts = {seed: nn.init_params(mlp, rng) for seed, rng in rngs.items()}
    shapes = firsts[config.seed].shapes
    params = nn.ParameterSet(np.array([firsts[run.config.seed].flat for run in runs]), shapes)
    grads = nn.zeros_like_params(params)
    relu, lr, batch = mlp.activation == "relu", config.learning_rate, config.batch_size
    orders = {seed: np.arange(len(groups)) for seed in rngs}
    offsets = np.arange(len(runs))[:, None] * len(groups)
    with np.errstate(over="ignore", invalid="ignore"):  # every step checks scores and update
        for _ in range(config.epochs):
            for seed, rng in rngs.items():
                rng.shuffle(orders[seed])
            # Column t: the group each run takes t-th, and its plan row.
            order = np.array([orders[run.config.seed] for run in runs])
            plan = order + offsets
            live = active[plan]
            for start in range(0, len(groups), batch):
                span = slice(start, start + batch)
                group_index, plan_index, batch_live = order[:, span], plan[:, span], live[:, span]
                stepping = batch_live.any(axis=1)
                if stepping.all():
                    p, g = params, grads
                elif stepping.any():  # copies of the active rows, written back after the step
                    rows = np.flatnonzero(stepping)
                    group_index, plan_index = group_index[rows], plan_index[rows]
                    batch_live = batch_live[rows]
                    p = nn.ParameterSet(params.flat[rows], shapes)
                    g = nn.ParameterSet(grads.flat[:len(rows)], shapes)
                else:
                    continue
                # (R, b, W, m) features as (R, b * W, m) rows: one forward pass per batch.
                x = features.take(group_index, axis=0)
                hs = nn.layer_outputs(p, x.reshape(len(x), -1, x.shape[-1]), relu)
                scores = hs[-1][..., 0].reshape(group_index.shape + (width,))
                if not np.isfinite(scores).all():
                    check_finite(scores, query_ids[group_index],
                                 "forward pass produced non-finite scores")
                per_score = nn.terms_grad(
                    scores, pad.take(group_index, axis=0),
                    None if weights is None else weights.take(plan_index, axis=0),
                    None if temperatures is None else temperatures.take(plan_index, axis=0),
                    targets.take(plan_index, axis=0),
                )
                # The mean over the run's live groups; a skipped group weighs 0.
                per_score *= (batch_live / batch_live.sum(axis=1, keepdims=True))[..., None]
                nn.backprop_into(g, hs, p, per_score.reshape(len(x), -1), relu)
                nn.sgd_step(p, g, lr)
                if p is not params:
                    params.flat[rows] = p.flat
    return [Model(config=run.config.mlp, params=params.row(r), lineage=run.lineage)
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


def _forward(params: nn.ParameterSet, activation: str, group) -> np.ndarray:
    """The scores of a query group (n,) or of a data.Bucket's groups (B, n),
    with one run's params, or (R, B, n) with R runs' stacked as (R, 1, P).
    Non-finite features or scores raise an InputError naming the first
    query that has them."""
    check_finite(group.features, group.query_id, "features contain non-finite values", row_axes=2)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite scores raise below
        scores = nn.layer_outputs(params, group.features, activation == "relu")[-1][..., 0]
    check_finite(scores, group.query_id, "forward pass produced non-finite scores")
    return scores


def fusion_serve_scores(teachers: TeacherEnsemble, group) -> np.ndarray:
    """Serving-time model fusion: weighted sum of teacher scores, for a
    query group or, row by row, a data.Bucket of them."""
    *rows, m = group.features.shape
    fused = np.zeros(rows)
    for w, model in zip(teachers.fusion_weights, teachers.models):
        if m != model.config.input_dim:
            raise InputError(f"feature dim {m} != input dim {model.config.input_dim}")
        fused = fused + w * _forward(model.params, model.config.activation, group)
    return fused


def fuse_soft_labels(teachers: TeacherEnsemble, dataset: Dataset) -> SoftLabelSet:
    """Fused raw teacher scores per query, one length bucket at a time;
    teachers stay frozen."""
    before = teachers.params_hashes()
    buckets = length_buckets(dataset.groups)
    scores = by_query(dataset.groups, buckets, [fusion_serve_scores(teachers, b) for b in buckets])
    if teachers.params_hashes() != before:
        raise TrainingError("teacher parameters changed during fusion")
    return SoftLabelSet(scores=scores, provenance="teacher_fusion")


def inject_boost(soft: SoftLabelSet, rule: BoostRule, dataset: Dataset) -> SoftLabelSet:
    """The soft labels with rule.apply's beta added to matching items' raw
    scores, one length bucket at a time; others untouched."""
    soft.check_alignment(dataset)
    boosted = rule.apply_by_query(soft.scores, dataset.groups)
    return SoftLabelSet(scores=boosted, provenance=f"boosted({rule.describe()})")


def score_dataset(model: Model, dataset: Dataset) -> dict[int, np.ndarray]:
    """Deterministic per-group score vectors, each bit for bit the model's
    score_group (the serving path), computed one length bucket at a time."""
    return score_models([model], dataset)[0]


def score_models(models: list[Model], dataset: Dataset) -> list[dict[int, np.ndarray]]:
    """Each model's score_dataset, the models scored together: one forward
    pass per length bucket over their stacked parameters. The models must
    share an architecture and activation; each keeps its own seed."""
    config = models[0].config
    if any(replace(m.config, seed=0) != replace(config, seed=0) for m in models):
        raise InputError("models scored together must share an architecture and activation")
    if dataset.m != config.input_dim:
        raise InputError("dataset feature dim does not match model")
    flat = np.array([m.params.flat for m in models])[:, None, :]
    params = nn.ParameterSet(flat, models[0].params.shapes)
    buckets = length_buckets(dataset.groups)
    scores = [_forward(params, config.activation, b) for b in buckets]
    return [by_query(dataset.groups, buckets, [s[r] for s in scores]) for r in range(len(models))]


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


def self_distill(prev_students: list[Model], dataset_new: Dataset,
                 configs: list[DistillConfig]) -> list[Model]:
    """Each previous student retrained on dataset_new under its config, with
    its own scores as soft labels: the frozen students score dataset_new in
    one score_models pass, and their successors train as one train_runs
    family. student_v<n> begets student_v<n+1>, any other lineage student_v1."""
    if not prev_students or len(configs) != len(prev_students):
        raise ConfigError(f"got {len(configs)} configs for {len(prev_students)} previous students")
    if any(dataset_new.m != prev.config.input_dim for prev in prev_students):
        raise InputError("dataset feature dim does not match previous student")
    before = [prev.params.params_hash() for prev in prev_students]
    runs = []
    for prev, raw, config in zip(prev_students, score_models(prev_students, dataset_new), configs):
        version = 1
        if prev.lineage.startswith("student_v"):
            with suppress(ValueError):
                version = int(prev.lineage[len("student_v"):]) + 1
        soft = SoftLabelSet(scores=raw, provenance=f"self_distill(version={version})")
        runs.append(Run.student(dataset_new, soft, config, lineage=f"student_v{version}"))
    models = train_runs(dataset_new, runs)
    if [prev.params.params_hash() for prev in prev_students] != before:
        raise TrainingError("previous student parameters changed during self-distill")
    return models


def train_scalarized_baseline(dataset: Dataset, objective_weights, config: DistillConfig) -> Model:
    """Single MLP minimizing the weighted sum of per-objective listwise CEs.

    Each objective contributes only on groups with a positive label for
    it, so sparse objectives show up in fewer steps.
    """
    return train_runs(dataset, [Run.scalarized(dataset, objective_weights, config)])[0]
