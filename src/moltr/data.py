"""Multi-objective ranking dataset model, synthetic generator, persistence.

A dataset is a list of query groups, one per search. Each group owns the
arrays for its n items: an n x m feature matrix, item ids, review ratings,
new-item flags, an n x K int8 label matrix with -1 for a missing label,
and a synthetic day index. Objective 0 is always the primary one
(conversion analog); its label column is either fully present (one item
booked, rest 0) or fully missing (no conversion happened for that query).
Secondary labels are observed only on the booked item, with a per-objective
observation rate, which reproduces the heavy label imbalance of real
marketplace logs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, InputError, ParseError, config_keys

FORMAT_VERSION = 1
# Rating-derived feature slot, masked to this sentinel for new items.
RATING_FEATURE_INDEX = 0
NEW_ITEM_SENTINEL = -1.0
# Label value for an outcome that was never observed.
MISSING_LABEL = -1
_ITEM_FIELDS = frozenset({"item_id", "features", "review_rating", "is_new"})
# JSONL stores a missing label as null; a value not in this map is malformed.
_LABEL_FROM_JSON = {None: MISSING_LABEL, 0: 0, 1: 1}


@dataclass
class QueryGroup:
    """One query's items as arrays; row j of every field is item j."""

    query_id: int
    timestamp: int
    features: np.ndarray  # (n, m) float64, C-contiguous
    item_ids: np.ndarray  # (n,) int64
    ratings: np.ndarray  # (n,) float64 review ratings in [0, 5]
    is_new: np.ndarray  # (n,) bool
    labels: np.ndarray  # (n, K) int8 in {-1, 0, 1}; -1 = missing

    def __post_init__(self):
        q = f"query {self.query_id}"
        try:
            self.features = np.array(self.features, dtype=np.float64, order="C")
            self.item_ids = np.array(self.item_ids, dtype=np.int64)
            self.ratings = np.array(self.ratings, dtype=np.float64)
            self.is_new = np.array(self.is_new, dtype=bool)
            labels = np.array(self.labels, dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise InputError(f"{q}: item fields must be rectangular numeric arrays: {e}") from e
        if self.features.ndim != 2:
            raise InputError(f"{q}: features must be n x m, got shape {self.features.shape}")
        n = self.features.shape[0]
        if n < 2:
            raise InputError(f"{q}: needs at least 2 items")
        for name in ("item_ids", "ratings", "is_new"):
            if getattr(self, name).shape != (n,):
                raise InputError(f"{q}: {name} must have shape ({n},)")
        if labels.ndim != 2 or labels.shape[0] != n or labels.shape[1] < 1:
            raise InputError(f"{q}: labels must be n x K, got shape {labels.shape}")
        bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad.size:
            raise InputError(f"item {self.item_ids[bad[0]]}: non-finite features")
        bad = np.flatnonzero(~((self.ratings >= 0.0) & (self.ratings <= 5.0)))
        if bad.size:
            j = bad[0]
            raise InputError(
                f"item {self.item_ids[j]}: review_rating {self.ratings[j]} out of [0, 5]"
            )
        valid = (labels == 0) | (np.abs(labels) == 1)
        if not valid.all():
            v = labels[~valid][0]
            raise InputError(f"{q}: label {v} not in {{-1,0,1}}")
        self.labels = labels.astype(np.int8)
        positives = int((self.labels[:, 0] == 1).sum())
        if positives > 1:
            raise InputError(f"{q}: {positives} primary-positive items (max 1)")

    @property
    def size(self) -> int:
        return len(self.item_ids)

    def objective_labels(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(values with missing as 0, present mask) for objective k."""
        col = self.labels[:, k]
        return (col == 1).astype(np.float64), col != MISSING_LABEL

    def primary_labels(self) -> np.ndarray:
        return self.objective_labels(0)[0]

    def has_labels_for(self, k: int) -> bool:
        return bool((self.labels[:, k] != MISSING_LABEL).any())


@dataclass(frozen=True)
class ObjectiveSpec:
    index: int
    name: str
    polarity: str = "reward"  # or "cost"; descriptive metadata only
    primary: bool = False

    def __post_init__(self):
        if self.polarity not in ("reward", "cost"):
            raise ConfigError(f"polarity must be reward|cost, got {self.polarity}")


@dataclass
class Dataset:
    objectives: list[ObjectiveSpec]
    groups: list[QueryGroup]
    m: int
    K: int

    def __post_init__(self):
        if len(self.objectives) != self.K:
            raise ConfigError("objectives count != K")
        primaries = [o for o in self.objectives if o.primary]
        if len(primaries) != 1 or primaries[0].index != 0:
            raise ConfigError("exactly one primary objective required, at index 0")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ConfigError("objective names must be unique")
        for g in self.groups:
            if g.features.shape[1] != self.m:
                raise InputError(f"query {g.query_id}: feature dim != m")
            if g.labels.shape[1] != self.K:
                raise InputError(f"query {g.query_id}: label width != K")

    def __len__(self) -> int:
        return len(self.groups)

    def timestamps(self) -> np.ndarray:
        return np.array([g.timestamp for g in self.groups], dtype=np.int64)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for line in serialize_lines(self):
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()


@dataclass
class GeneratorConfig:
    """Knobs for the synthetic marketplace generator.

    objective_weights (K x m) define each objective's latent utility
    direction; None draws them from the seed. objective_correlation pulls
    every secondary utility toward the primary one. label_rates gives, per
    secondary objective, the probability that the booked item's outcome
    for that objective is observed at all.
    """

    num_queries: int = 1000
    items_per_query: tuple[int, int] = (8, 12)
    m: int = 16
    K: int = 3
    seed: int = 0
    objective_weights: list[list[float]] | None = None
    objective_correlation: float = 0.7
    label_rates: list[float] | None = None
    new_item_fraction: float = 0.1
    primary_rate: float = 0.9
    utility_scale: float = 3.0
    # Latent utility directions are drawn from their own seed so that
    # differently-seeded datasets (train vs held-out) share one task.
    weights_seed: int = 0
    num_days: int = 20
    objective_names: list[str] | None = None
    objective_polarities: list[str] | None = None

    def __post_init__(self):
        lo, hi = self.items_per_query
        if self.num_queries < 1:
            raise ConfigError("num_queries must be >= 1")
        if lo < 2 or hi < lo:
            raise ConfigError(f"bad items_per_query range ({lo}, {hi})")
        if self.K < 2:
            raise ConfigError("K must be >= 2")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not (-1.0 <= self.objective_correlation <= 1.0):
            raise ConfigError("objective_correlation must be in [-1, 1]")
        if self.label_rates is None:
            self.label_rates = [0.3] * (self.K - 1)
        if len(self.label_rates) != self.K - 1:
            raise ConfigError("label_rates needs K-1 entries")
        if any(not (0.0 < r <= 1.0) for r in self.label_rates):
            raise ConfigError("label_rates must be in (0, 1]")
        if not (0.0 <= self.new_item_fraction <= 1.0):
            raise ConfigError("new_item_fraction must be in [0, 1]")
        if not (0.0 < self.primary_rate <= 1.0):
            raise ConfigError("primary_rate must be in (0, 1]")
        if not (self.utility_scale > 0):
            raise ConfigError("utility_scale must be positive")
        if self.num_days < 1:
            raise ConfigError("num_days must be >= 1")
        if self.objective_weights is not None:
            w = np.asarray(self.objective_weights, dtype=np.float64)
            if w.shape != (self.K, self.m):
                raise ConfigError(f"objective_weights must be K x m, got {w.shape}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["items_per_query"] = list(self.items_per_query)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        d = config_keys(d, cls, "generator")
        if "items_per_query" in d:
            d["items_per_query"] = tuple(d["items_per_query"])
        return cls(**d)


def default_objectives(config: GeneratorConfig) -> list[ObjectiveSpec]:
    names = config.objective_names
    if names is None:
        names = ["booking"] + [f"secondary_{k}" for k in range(1, config.K)]
        if config.K >= 2:
            names[1] = "cancellation"
        if config.K >= 3:
            names[2] = "quality"
    if len(names) != config.K:
        raise ConfigError("objective_names needs K entries")
    polarities = config.objective_polarities
    if polarities is None:
        polarities = ["reward"] * config.K
        if config.K >= 2:
            polarities[1] = "cost"
    if len(polarities) != config.K:
        raise ConfigError("objective_polarities needs K entries")
    return [
        ObjectiveSpec(index=k, name=names[k], polarity=polarities[k], primary=(k == 0))
        for k in range(config.K)
    ]


def resolve_objective_weights(config: GeneratorConfig) -> np.ndarray:
    """The K x m utility directions, explicit or drawn from weights_seed."""
    if config.objective_weights is not None:
        return np.asarray(config.objective_weights, dtype=np.float64)
    w = np.random.default_rng(config.weights_seed).normal(size=(config.K, config.m))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def generate_dataset(config: GeneratorConfig) -> Dataset:
    """Seeded synthetic marketplace search log.

    Per query: item features are standard normal except feature 0, which is
    the (centered, scaled) review rating; new items get the sentinel there.
    Latent utility for objective k is u_k = rho * u_0 + (1 - |rho|) * w_k.x
    (u_0 = w_0.x). The booked item is a softmax draw over u_0; secondary
    outcomes exist only for the booked item and are observed at label_rates.
    """
    rng = np.random.default_rng(config.seed)
    objectives = default_objectives(config)
    w = resolve_objective_weights(config)
    rho = config.objective_correlation
    lo, hi = config.items_per_query

    groups = []
    next_item_id = 0
    for qid in range(config.num_queries):
        n = int(rng.integers(lo, hi + 1))
        timestamp = int(rng.integers(0, config.num_days))
        ratings = rng.uniform(0.0, 5.0, size=n)
        feats = rng.normal(size=(n, config.m))
        is_new = rng.random(n) < config.new_item_fraction
        ratings[is_new] = 0.0
        feats[:, RATING_FEATURE_INDEX] = (ratings - 2.5) / 1.5
        feats[is_new, RATING_FEATURE_INDEX] = NEW_ITEM_SENTINEL

        u0 = config.utility_scale * (feats @ w[0])
        labels = np.full((n, config.K), MISSING_LABEL, dtype=np.int8)
        if rng.random() < config.primary_rate:
            p = np.exp(u0 - u0.max())
            p /= p.sum()
            booked = int(rng.choice(n, p=p))
            labels[:, 0] = 0
            labels[booked, 0] = 1
            for k in range(1, config.K):
                if rng.random() < config.label_rates[k - 1]:
                    uk = rho * u0[booked] + (1.0 - abs(rho)) * config.utility_scale * float(
                        feats[booked] @ w[k]
                    )
                    labels[booked, k] = 1 if rng.random() < _sigmoid(uk) else 0

        groups.append(
            QueryGroup(
                query_id=qid,
                timestamp=timestamp,
                features=feats,
                item_ids=np.arange(next_item_id, next_item_id + n),
                ratings=ratings,
                is_new=is_new,
                labels=labels,
            )
        )
        next_item_id += n
    return Dataset(objectives=objectives, groups=groups, m=config.m, K=config.K)


def label_coverage(dataset: Dataset, objective_index: int) -> float:
    """Fraction of query groups with at least one present label for k."""
    if not (0 <= objective_index < dataset.K):
        raise InputError(f"objective index {objective_index} out of range")
    if not dataset.groups:
        return 0.0
    covered = sum(1 for g in dataset.groups if g.has_labels_for(objective_index))
    return covered / len(dataset.groups)


def split_by_time(dataset: Dataset, boundary_day: int) -> tuple[Dataset, Dataset]:
    """Partition groups into (day < boundary, day >= boundary)."""
    earlier = [g for g in dataset.groups if g.timestamp < boundary_day]
    later = [g for g in dataset.groups if g.timestamp >= boundary_day]
    mk = lambda gs: Dataset(
        objectives=list(dataset.objectives), groups=gs, m=dataset.m, K=dataset.K
    )
    return mk(earlier), mk(later)


def serialize_lines(dataset: Dataset):
    """Yield the JSONL lines: header first, then one query group per line."""
    header = {
        "format_version": FORMAT_VERSION,
        "m": dataset.m,
        "K": dataset.K,
        "objectives": [asdict(o) for o in dataset.objectives],
    }
    yield json.dumps(header, sort_keys=True)
    for g in dataset.groups:
        items = [
            {"item_id": i, "features": f, "review_rating": r, "is_new": b}
            for i, f, r, b in zip(
                g.item_ids.tolist(), g.features.tolist(), g.ratings.tolist(), g.is_new.tolist()
            )
        ]
        labels = [[None if v == MISSING_LABEL else v for v in row] for row in g.labels.tolist()]
        doc = {
            "query_id": g.query_id,
            "timestamp": g.timestamp,
            "items": items,
            "labels": labels,
        }
        yield json.dumps(doc, sort_keys=True)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w") as f:
        for line in serialize_lines(dataset):
            f.write(line)
            f.write("\n")


def _group_from_doc(doc: dict) -> QueryGroup:
    items = doc["items"]
    for item in items:
        if set(item) != _ITEM_FIELDS:
            raise InputError(f"item fields {sorted(item)} != {sorted(_ITEM_FIELDS)}")
    return QueryGroup(
        query_id=doc["query_id"],
        timestamp=doc["timestamp"],
        features=[item["features"] for item in items],
        item_ids=[item["item_id"] for item in items],
        ratings=[item["review_rating"] for item in items],
        is_new=[item["is_new"] for item in items],
        labels=[[_LABEL_FROM_JSON[v] for v in row] for row in doc["labels"]],
    )


def load_dataset(path) -> Dataset:
    """Parse a JSONL dataset file; errors carry the offending line number.

    The file is read one line at a time, so no copy of the whole text is
    held beside the parsed groups.
    """
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if not first.strip():
            raise ParseError("missing header line", line=1)
        try:
            header = json.loads(first)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid header JSON: {e}", line=1) from e
        for key in ("format_version", "m", "K", "objectives"):
            if key not in header:
                raise ParseError(f"header missing field {key!r}", line=1)
        if header["format_version"] != FORMAT_VERSION:
            raise ParseError(
                f"unsupported format_version {header['format_version']}", line=1
            )
        objectives = [ObjectiveSpec(**o) for o in header["objectives"]]
        groups = []
        for lineno, raw in enumerate(f, start=2):
            if not raw.strip():
                continue
            try:
                doc = json.loads(raw.rstrip("\n"))
            except json.JSONDecodeError as e:
                raise ParseError(f"invalid JSON: {e}", line=lineno) from e
            try:
                group = _group_from_doc(doc)
            except (KeyError, TypeError, InputError) as e:
                raise ParseError(f"bad query group: {e}", line=lineno) from e
            if group.features.shape[1] != header["m"] or group.labels.shape[1] != header["K"]:
                raise ParseError(
                    f"query {group.query_id}: items have {group.features.shape[1]} features "
                    f"and {group.labels.shape[1]} labels, "
                    f"header says m={header['m']}, K={header['K']}",
                    line=lineno,
                )
            groups.append(group)
        return Dataset(objectives=objectives, groups=groups, m=header["m"], K=header["K"])
