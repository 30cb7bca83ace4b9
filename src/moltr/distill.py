"""Training pipelines: per-objective teachers, soft-label fusion, boost
injection, student distillation, self-distillation, and baselines.

All trainers share one deterministic engine: a seeded generator initializes
the MLP and then drives one shuffle of the query-group order per epoch, and
each group is a single SGD step. Two runs with the same config and seed are
bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import Dataset, QueryGroup
from .errors import ConfigError, InputError, ParseError, TrainingError


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters for one training run."""

    mlp: nn.MlpConfig
    alpha: float = 0.2
    temperature: float = 1.0
    epochs: int = 10
    learning_rate: float = 0.05
    seed: int = 0
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

    def with_seed(self, seed: int) -> "DistillConfig":
        return replace(self, mlp=replace(self.mlp, seed=seed), seed=seed)

    def to_dict(self) -> dict:
        return {
            "mlp": self.mlp.to_dict(),
            "alpha": self.alpha,
            "temperature": self.temperature,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "teacher_temperature": self.teacher_temperature,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DistillConfig":
        d = dict(d)
        d["mlp"] = nn.MlpConfig.from_dict(d["mlp"])
        return cls(**d)


@dataclass
class Model:
    """A trained ranker with its provenance."""

    config: nn.MlpConfig
    params: nn.ParameterSet
    lineage: str
    seed: int

    def __post_init__(self):
        if self.params.layer_dims() != self.config.layer_dims:
            raise InputError("params do not match config")

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
        return cls(
            config=config,
            params=params,
            lineage=doc.get("lineage", "unknown"),
            seed=config.seed,
        )


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
        self.fusion_weights = np.asarray(self.fusion_weights, dtype=np.float64)
        if self.fusion_weights.shape != (len(self.models),):
            raise ConfigError("fusion_weights length != model count")
        if (self.fusion_weights < 0).any():
            raise ConfigError("fusion_weights must be nonnegative")
        total = self.fusion_weights.sum()
        if total <= 0:
            raise ConfigError("fusion_weights must not all be zero")
        self.fusion_weights = self.fusion_weights / total

    def params_hashes(self) -> list[str]:
        return [m.params.params_hash() for m in self.models]


@dataclass
class SoftLabelSet:
    """Per-query raw soft scores aligned with a dataset.

    scores maps query_id to the fused (or self-distilled, or boosted) raw
    score vector over that query's items. The distribution form is derived
    on demand via a softmax.
    """

    scores: dict[int, np.ndarray]
    provenance: str

    def distribution(self, query_id: int, temperature: float = 1.0) -> np.ndarray:
        return nn.listwise_softmax(self.scores[query_id], temperature)

    def check_alignment(self, dataset: Dataset) -> None:
        for g in dataset.groups:
            s = self.scores.get(g.query_id)
            if s is None or len(s) != g.size:
                raise InputError(
                    f"soft labels misaligned with dataset at query {g.query_id}"
                )

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"provenance": self.provenance}, sort_keys=True) + "\n")
            for qid in self.scores:
                doc = {"query_id": qid, "scores": self.scores[qid].tolist()}
                f.write(json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SoftLabelSet":
        with open(path) as f:
            lines = f.read().splitlines()
        if not lines:
            raise ParseError("empty soft-label file", line=1)
        try:
            header = json.loads(lines[0])
            provenance = header["provenance"]
        except (json.JSONDecodeError, KeyError) as e:
            raise ParseError(f"bad soft-label header: {e}", line=1) from e
        scores = {}
        for lineno, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            try:
                doc = json.loads(raw)
                scores[int(doc["query_id"])] = np.asarray(
                    doc["scores"], dtype=np.float64
                )
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ParseError(f"bad soft-label row: {e}", line=lineno) from e
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


def _single_label_step(k: int):
    """Training step for listwise CE against objective k's labels alone."""

    def step(group, scores):
        target = _objective_target(group, k)
        if target is None:
            return None
        _, grad = nn.distill_loss(scores, target, None, alpha=1.0)
        return grad

    return step


def _run_training(dataset: Dataset, config: DistillConfig, group_step):
    """Shared deterministic SGD loop over query groups.

    group_step(group, scores) returns the per-score gradient for the step,
    or None to skip the group (the shuffle stream is unaffected either
    way, which is what makes degenerate trainer comparisons bitwise).
    """
    if not dataset.groups:
        raise TrainingError("cannot train on an empty dataset")
    mlp = config.mlp
    if dataset.m != mlp.input_dim:
        raise InputError(f"dataset m={dataset.m} != mlp input dim {mlp.input_dim}")
    rng = np.random.default_rng(config.seed)
    params = nn.init_params(mlp, rng)
    order = np.arange(len(dataset.groups))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for gi in order:
            group = dataset.groups[gi]
            scores, trace = nn.mlp_forward(params, group.features, mlp.activation)
            per_score_grad = group_step(group, scores)
            if per_score_grad is None:
                continue
            grads = nn.backward(trace, params, per_score_grad, mlp.activation)
            params = nn.sgd_step(params, grads, config.learning_rate)
    return params


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
    params = _run_training(subset, config, _single_label_step(objective_index))
    name = dataset.objectives[objective_index].name
    return Model(
        config=config.mlp, params=params, lineage=f"teacher:{name}", seed=config.seed
    )


def train_teachers(dataset: Dataset, config: DistillConfig, seeds=None) -> TeacherEnsemble:
    """One teacher per objective; seed offset per objective by default."""
    if seeds is None:
        seeds = [config.seed + k for k in range(dataset.K)]
    models = [
        train_teacher(dataset, k, config.with_seed(seeds[k])) for k in range(dataset.K)
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
    soft.check_alignment(dataset)
    targets = {
        qid: nn.listwise_softmax(s, config.teacher_temperature)
        for qid, s in soft.scores.items()
    }

    def step(group, scores):
        hard = _objective_target(group, 0)
        if hard is None and config.alpha == 1.0:
            return None
        _, grad = nn.distill_loss(
            scores, hard, targets[group.query_id], config.alpha, config.temperature
        )
        return grad

    params = _run_training(dataset, config, step)
    return Model(config=config.mlp, params=params, lineage=lineage, seed=config.seed)


def train_hard_only(dataset: Dataset, config: DistillConfig) -> Model:
    """Hard-label-only trainer over the full dataset (baseline family)."""
    params = _run_training(dataset, config, _single_label_step(0))
    return Model(
        config=config.mlp, params=params, lineage="baseline:hard_only", seed=config.seed
    )


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


def train_scalarized_baseline(
    dataset: Dataset,
    objective_weights,
    config: DistillConfig,
    batch_log: list | None = None,
) -> Model:
    """Single MLP minimizing the weighted sum of per-objective listwise CEs.

    Each objective contributes only on groups where its label is present,
    so sparse objectives show up in fewer batches; pass batch_log to
    capture the per-objective step counts.
    """
    weights = np.asarray(objective_weights, dtype=np.float64)
    if weights.shape != (dataset.K,):
        raise ConfigError(f"objective_weights must have {dataset.K} entries")
    if (weights < 0).any():
        raise ConfigError("objective_weights must be nonnegative")
    if weights.sum() <= 0:
        raise ConfigError("objective_weights must not all be zero")
    counts = np.zeros(dataset.K, dtype=np.int64)
    objective_steps = [_single_label_step(k) for k in range(dataset.K)]

    def step(group, scores):
        grad = None
        for k in range(dataset.K):
            if weights[k] == 0:
                continue
            g = objective_steps[k](group, scores)
            if g is None:
                continue
            g = weights[k] * g
            grad = g if grad is None else grad + g
            counts[k] += 1
        return grad

    params = _run_training(dataset, config, step)
    if batch_log is not None:
        batch_log.append({"per_objective_steps": counts.tolist()})
    return Model(
        config=config.mlp,
        params=params,
        lineage="baseline:scalarized",
        seed=config.seed,
    )
