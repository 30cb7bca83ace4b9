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

Files are JSONL, format version 2: a header (format_version, m, K and each
objective's index, name and primary flag, the index equal to its position),
then one line per query group, with JSON integer ids, labels that are the
integers 0 or 1 or null for missing, and no repeated query_id.

Dataset.content_hash is the sha256 of the header line, then for each group
in order struct.pack("<3q", query_id, timestamp, n) and the bytes of its
features (<f8, n x m), item_ids (<i8), ratings (<f8), is_new (one byte per
item) and labels (int8, n x K). n comes first, so the encoding is
prefix-free: two datasets hash equal exactly when their JSONL texts are
equal. The digest is not the sha256 of the saved file.

length_buckets splits a list of groups into buckets of one list length,
whose fields read stacked along a new first axis. Scoring, fusion, the
metrics and the training plan each run once per bucket instead of once
per group: a stacked call gives each row the arithmetic of its group's
own call, which padding to one width would not. Bucket.rows stacks a
query-keyed dict of vectors into a bucket's rows, and by_query turns
bucket rows back into such a dict; check_finite names the first query
whose row is not finite. Every pass that moves between the two shapes, or
checks a row, goes through these.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import Config, ConfigError, InputError, ParseError, read_jsonl, write_atomic

FORMAT_VERSION = 2
# Rating-derived feature slot, masked to this sentinel for new items.
RATING_FEATURE_INDEX = 0
NEW_ITEM_SENTINEL = -1.0
# Label value for an outcome that was never observed.
MISSING_LABEL = -1
# content_hash packs query_id and timestamp as int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_ITEM_FIELDS = frozenset({"item_id", "features", "review_rating", "is_new"})
_NUMBERS = frozenset({int, float})
# The most groups one bucket stacks, which bounds a bucketed pass's memory.
BUCKET_GROUPS = 256


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
        if not (_INT64_MIN <= self.query_id <= _INT64_MAX
                and _INT64_MIN <= self.timestamp <= _INT64_MAX):
            raise InputError(f"{q}: query_id and timestamp must fit in int64")
        try:
            # Little-endian on every host, so content_hash is too.
            self.features = np.array(self.features, dtype="<f8", order="C")
            self.item_ids = np.array(self.item_ids, dtype="<i8")
            self.ratings = np.array(self.ratings, dtype="<f8")
            self.is_new = np.array(self.is_new, dtype=bool)
            labels = np.array(self.labels, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise InputError(f"{q}: item fields must be rectangular numeric arrays: {e}") from e
        if self.features.ndim != 2:
            raise InputError(f"{q}: features must be n x m, got shape {self.features.shape}")
        n = self.features.shape[0]
        if n < 2:
            raise InputError(f"{q}: needs at least 2 items")
        for name in ("item_ids", "ratings", "is_new"):
            if getattr(self, name).shape != (n,):
                raise InputError(f"{q}: {name} must have shape ({n},)")
        # Rankings, tau and the side-by-side report identify items by id.
        if len(set(self.item_ids.tolist())) != n:
            raise InputError(f"{q}: item_ids repeat an id")
        if labels.ndim != 2 or labels.shape[0] != n or labels.shape[1] < 1:
            raise InputError(f"{q}: labels must be n x K, got shape {labels.shape}")
        finite = np.isfinite(self.features)
        if not finite.all():
            j = np.flatnonzero(~finite.all(axis=1))[0]
            raise InputError(f"item {self.item_ids[j]}: non-finite features")
        in_range = (self.ratings >= 0.0) & (self.ratings <= 5.0)
        if not in_range.all():
            j = np.flatnonzero(~in_range)[0]
            raise InputError(
                f"item {self.item_ids[j]}: review_rating {self.ratings[j]} out of [0, 5]"
            )
        valid = (labels == 0) | (np.abs(labels) == 1)
        if not valid.all():
            v = labels[~valid][0]
            raise InputError(f"{q}: label {v} not in {{-1,0,1}}")
        self.labels = labels.astype(np.int8)
        positives = np.count_nonzero(self.labels[:, 0] == 1)
        if positives > 1:
            raise InputError(f"{q}: {positives} primary-positive items (max 1)")

    @property
    def size(self) -> int:
        return len(self.item_ids)

    def has_labels_for(self, k: int) -> bool:
        return bool((self.labels[:, k] != MISSING_LABEL).any())


class Bucket:
    """Query groups of one list length n, read as one group of stacked
    arrays: index holds their positions in the list they came from, and a
    QueryGroup field read on the bucket (query_id, features, labels, ...)
    is their values stacked along a new first axis, stacked on first read.
    So bucket.labels is (B, n, K), and a function of a group's arrays that
    works row by row, such as BoostRule.match_mask, takes a bucket too."""

    def __init__(self, groups, index: np.ndarray):
        self.index = index
        self.groups = [groups[i] for i in index.tolist()]

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        value = np.stack([getattr(g, name) for g in self.groups])
        setattr(self, name, value)
        return value

    def rows(self, by_query: dict) -> np.ndarray:
        """The bucket's rows of by_query, {query_id: n values}, stacked
        (B, n) as float64; a query without n values raises an InputError
        naming it."""
        n = self.groups[0].size
        rows = [np.asarray(by_query[g.query_id], dtype=np.float64) for g in self.groups]
        for g, row in zip(self.groups, rows):
            if row.shape != (n,):
                raise InputError(f"query {g.query_id}: {row.shape} scores for {n} items")
        return np.stack(rows)


def length_buckets(groups) -> list[Bucket]:
    """groups in buckets of one list length each, shortest lists first, each
    holding at most BUCKET_GROUPS groups in their order in groups."""
    sizes = np.array([g.size for g in groups], dtype=np.intp)
    order = np.argsort(sizes, kind="stable")
    same = np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1) if sizes.size else []
    return [Bucket(groups, chunk) for index in same
            for chunk in np.split(index, range(BUCKET_GROUPS, index.size, BUCKET_GROUPS))]


def by_query(groups, buckets, rows) -> dict[int, np.ndarray]:
    """{query_id: row} in the order of groups, from the (B, n) rows of each
    of their length buckets; Bucket.rows the other way round."""
    ordered = [None] * len(groups)
    for bucket, bucket_rows in zip(buckets, rows):
        for i, row in zip(bucket.index.tolist(), bucket_rows):
            ordered[i] = row
    return {g.query_id: row for g, row in zip(groups, ordered)}


def check_finite(values, query_ids, what: str, row_axes: int = 1) -> None:
    """Raise an InputError "query <id>: <what>" naming the first of
    query_ids whose row of values is not finite. values is (..., Q, *row)
    for Q = len(query_ids), a row being its last row_axes axes, and a
    query's row counts under every leading index (each of R stacked runs)."""
    query_ids = np.reshape(query_ids, -1)
    finite = np.isfinite(values).all(axis=tuple(range(-row_axes, 0)))
    finite = finite.reshape(-1, query_ids.size).all(axis=0)
    if not finite.all():
        raise InputError(f"query {query_ids[finite.argmin()]}: {what}")


@dataclass(frozen=True)
class ObjectiveSpec(Config, section="objective"):
    index: int
    name: str
    primary: bool = False


@dataclass
class Dataset:
    objectives: list[ObjectiveSpec]
    groups: list[QueryGroup]
    m: int
    K: int

    def __post_init__(self):
        if len(self.objectives) != self.K:
            raise ConfigError("objectives count != K")
        for i, o in enumerate(self.objectives):
            if o.index != i:
                raise ConfigError(f"objective {o.name!r} has index {o.index}, must be {i}")
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

    def content_hash(self) -> str:
        """The array digest the module docstring defines; not the sha256 of
        a saved file."""
        h = hashlib.sha256(next(serialize_lines(self)).encode())
        for g in self.groups:
            h.update(struct.pack("<3q", g.query_id, g.timestamp, g.size))
            # tobytes, not the buffer protocol: numpy would keep buffer info
            # alive on every array it exported.
            for a in (g.features, g.item_ids, g.ratings, g.is_new, g.labels):
                h.update(a.tobytes())
        return h.hexdigest()


@dataclass
class GeneratorConfig(Config, section="generator"):
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
        if not (0 < self.utility_scale < math.inf):
            raise ConfigError("utility_scale must be positive and finite")
        if self.num_days < 1:
            raise ConfigError("num_days must be >= 1")
        for name in ("seed", "weights_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.objective_weights is not None:
            try:
                w = np.asarray(self.objective_weights, dtype=np.float64)
            except ValueError:
                raise ConfigError("objective_weights must be K x m, got ragged rows") from None
            if w.shape != (self.K, self.m):
                raise ConfigError(f"objective_weights must be K x m, got {w.shape}")
            if not np.isfinite(w).all():
                raise ConfigError("objective_weights must be finite")


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
    return [ObjectiveSpec(index=k, name=names[k], primary=(k == 0)) for k in range(config.K)]


def resolve_objective_weights(config: GeneratorConfig) -> np.ndarray:
    """The K x m utility directions, explicit or drawn from weights_seed."""
    if config.objective_weights is not None:
        return np.asarray(config.objective_weights, dtype=np.float64)
    w = np.random.default_rng(config.weights_seed).normal(size=(config.K, config.m))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _sigmoid(x: float) -> float:
    # exp(700) is near the float64 limit; below -700 the result is ~0 anyway.
    return 1.0 / (1.0 + math.exp(min(-x, 700.0)))


def _check_utility(u) -> None:
    if not np.isfinite(u).all():
        raise ConfigError("utility_scale times objective_weights overflows the latent utilities")


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

        with np.errstate(over="ignore"):  # _check_utility raises on an overflow
            u0 = config.utility_scale * (feats @ w[0])
        _check_utility(u0)
        labels = np.full((n, config.K), MISSING_LABEL, dtype=np.int8)
        if rng.random() < config.primary_rate:
            p = np.exp(u0 - u0.max())
            p /= p.sum()
            booked = int(rng.choice(n, p=p))
            labels[:, 0] = 0
            labels[booked, 0] = 1
            for k in range(1, config.K):
                if rng.random() < config.label_rates[k - 1]:
                    with np.errstate(over="ignore"):
                        uk = rho * u0[booked] + (1.0 - abs(rho)) * config.utility_scale * float(
                            feats[booked] @ w[k]
                        )
                    _check_utility(uk)
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
        "objectives": [o.to_dict() for o in dataset.objectives],
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
    with write_atomic(path) as f:
        for line in serialize_lines(dataset):
            f.write(line)
            f.write("\n")


def _group_from_doc(doc: dict) -> QueryGroup:
    # Exact type checks: numpy would truncate 1.5 or true to an int id.
    query_id, timestamp, items = doc["query_id"], doc["timestamp"], doc["items"]
    if type(query_id) is not int or type(timestamp) is not int:
        raise InputError(f"query_id and timestamp must be int: {json.dumps([query_id, timestamp])}")
    for item in items:
        if set(item) != _ITEM_FIELDS:
            raise InputError(f"item fields {sorted(item)} != {sorted(_ITEM_FIELDS)}")
        if type(item["item_id"]) is not int or type(item["is_new"]) is not bool:
            got = json.dumps([item["item_id"], item["is_new"]])
            raise InputError(f"item_id and is_new must be an int and a bool: {got}")
        # numpy would read true as 1.0 and "3.5" as 3.5.
        rating, features = item["review_rating"], item["features"]
        if type(rating) not in _NUMBERS or not set(map(type, features)) <= _NUMBERS:
            raise InputError(f"item {item['item_id']}: features and review_rating must be numbers")
    return QueryGroup(
        query_id=query_id,
        timestamp=timestamp,
        features=[item["features"] for item in items],
        item_ids=[item["item_id"] for item in items],
        ratings=[item["review_rating"] for item in items],
        is_new=[item["is_new"] for item in items],
        # type(v) is int: 1.0 and true compare equal to 1 but are not labels.
        labels=[
            [MISSING_LABEL if v is None else v if type(v) is int and 0 <= v <= 1 else _bad_label(v)
             for v in row]
            for row in doc["labels"]
        ],
    )


def _bad_label(value):
    raise InputError(f"label {json.dumps(value)} must be 0, 1 or null")


def load_dataset(path) -> Dataset:
    """Parse a JSONL dataset file; every error names the file and the line.

    The file is read one line at a time, so no copy of the whole text is
    held beside the parsed groups. Scores and soft labels are keyed by
    query_id, so a repeated query_id is an error.
    """
    name = f"dataset {path}"
    with closing(read_jsonl(path, name)) as rows:
        lineno, header = next(rows, (None, None))
        if lineno != 1 or not isinstance(header, dict):
            raise ParseError(f"{name}: the first line must be a header object", line=1)
        for key in ("format_version", "m", "K", "objectives"):
            if key not in header:
                raise ParseError(f"{name}: header missing field {key!r}", line=1)
        for key in ("format_version", "m", "K"):
            if type(header[key]) is not int:
                got = json.dumps(header[key])
                raise ParseError(f"{name}: header field {key!r} must be int, got {got}", line=1)
        if header["format_version"] != FORMAT_VERSION:
            version = header["format_version"]
            raise ParseError(f"{name}: unsupported format_version {version}", line=1)
        if not isinstance(header["objectives"], list):
            raise ParseError(f"{name}: header field 'objectives' must be a list", line=1)
        try:
            objectives = [ObjectiveSpec.from_dict(o) for o in header["objectives"]]
            dataset = Dataset(objectives=objectives, groups=[], m=header["m"], K=header["K"])
        except ConfigError as e:
            raise ParseError(f"{name}: bad objectives: {e}", line=1) from e
        seen = set()
        for lineno, doc in rows:
            try:
                group = _group_from_doc(doc)
            except (KeyError, TypeError, InputError) as e:
                raise ParseError(f"{name}: bad query group: {e}", line=lineno) from e
            if group.features.shape[1] != header["m"] or group.labels.shape[1] != header["K"]:
                raise ParseError(
                    f"{name}: query {group.query_id}: items have {group.features.shape[1]} "
                    f"features and {group.labels.shape[1]} labels, "
                    f"header says m={header['m']}, K={header['K']}",
                    line=lineno,
                )
            if group.query_id in seen:
                raise ParseError(f"{name}: duplicate query_id {group.query_id}", line=lineno)
            seen.add(group.query_id)
            dataset.groups.append(group)
    return dataset
