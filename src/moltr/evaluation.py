"""Ranking-quality and reproducibility metrics.

All metrics are pure functions over scores and labels. Score ties are
broken deterministically: by list position for NDCG and exposure, and by
ascending item id for the side-by-side change rate.

rank_order, ndcg_at_k and exposure_rate work row by row over any leading
axes, so the dataset-wide metrics run once per length bucket
(data.length_buckets), over the bucket's scores stacked (B, n), and not
once per query. Each row's value is bit for bit its query's: a stable sort
orders each row alone, NDCG sums its gains in rank order as the per-query
definition does, and every mean is a statistics.fmean, an exact
math.fsum that no order changes. A bucket's score rows come from
data.Bucket.rows, and a served boost is distill.BoostRule.apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace
from statistics import fmean

import numpy as np

from .data import Dataset, QueryGroup, length_buckets
from .distill import BoostRule, Model, score_dataset
from .errors import InputError
from .nn import PROB_FLOOR, softmax


@dataclass
class RankingMetricsReport:
    ndcg_at_5: float
    ndcg_at_10: float
    ndcg_full: float
    objective_exposure_at_10: list[float]
    boosted_exposure_at_10: float | None
    query_count: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SxSReport:
    change_rate: float
    mean_tau: float
    pd: float
    tau_threshold: float
    query_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def rank_order(scores: np.ndarray, item_ids: np.ndarray | None = None) -> np.ndarray:
    """Indices in descending-score order, row by row over any leading axes;
    ties by ascending item_ids, else by position."""
    scores = np.asarray(scores, dtype=np.float64)
    ids = np.arange(scores.shape[-1]) if item_ids is None else np.asarray(item_ids)
    return np.lexsort((np.broadcast_to(ids, scores.shape), -scores), axis=-1)


def ndcg_at_k(scores: np.ndarray, primary_labels: np.ndarray, k: int | None):
    """Binary-relevance NDCG; all-zero labels give 0 by convention.

    k=None means the full list. Row by row over any leading axes: a float
    for one list, an array for (..., n) lists.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(primary_labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim < 1 or scores.shape[-1] < 1:
        raise InputError("scores and labels must be matching nonempty (..., n) arrays")
    if k is not None and k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    positive = np.take_along_axis(labels > 0, rank_order(scores), axis=-1)
    return _scalar(_ndcg(positive, scores.shape[-1] if k is None else k))


def _scalar(values: np.ndarray):
    """values, or a 0-d array as a float."""
    return float(values) if values.ndim == 0 else values


def _ndcg(positive: np.ndarray, k: int) -> np.ndarray:
    """NDCG cut at k of each row of positive, (..., n) relevance flags in
    rank order; k at or past n means the full list. The gains 1 / log2(rank
    + 1) are summed best rank first, as a per-query loop sums them."""
    cut = min(k, positive.shape[-1])
    gains = [1.0 / math.log2(rank + 1) for rank in range(1, cut + 1)]
    dcg = np.zeros(positive.shape[:-1])
    for j, gain in enumerate(gains):
        dcg = dcg + np.where(positive[..., j], gain, 0.0)  # adding 0.0 changes nothing
    count = np.minimum(np.count_nonzero(positive, axis=-1), cut)
    ideal = np.array([sum(1.0 / math.log2(r + 1) for r in range(1, c + 1))
                      for c in range(int(count.max(initial=0)) + 1)])[count]
    return np.divide(dcg, ideal, out=np.zeros_like(dcg), where=count > 0)


def exposure_rate(scores: np.ndarray, flags: np.ndarray, k: int):
    """Fraction of top-k positions held by flagged items; k clamps to n.
    Row by row over any leading axes, like ndcg_at_k."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if scores.shape != flags.shape:
        raise InputError("scores and flags must have matching shapes")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return _scalar(_exposure(np.take_along_axis(flags, rank_order(scores), axis=-1), k))


def _exposure(flags: np.ndarray, k: int) -> np.ndarray:
    """The share of each row's first k entries (k clamped to n) set in
    flags, (..., n) in rank order."""
    k = min(k, flags.shape[-1])
    return np.count_nonzero(flags[..., :k], axis=-1) / k


def _per_query(scores_by_query: dict, dataset: Dataset, metric) -> np.ndarray:
    """metric(scores, bucket) of every query, in dataset order: called once
    per length bucket with its scores stacked, it gives a row per query."""
    if not dataset.groups:
        raise InputError("dataset is empty")
    out = None
    for bucket in length_buckets(dataset.groups):
        values = metric(bucket.rows(scores_by_query), bucket)
        if out is None:
            out = np.empty((len(dataset.groups), *values.shape[1:]))
        out[bucket.index] = values
    return out


def serve_with_boost(
    model: Model, group: QueryGroup, rule: BoostRule, gamma: float
) -> np.ndarray:
    """Serving-time score boost: add gamma to items matching the rule."""
    return replace(rule, beta=gamma).apply(model.score_group(group), group)


def _tau(seq: np.ndarray) -> np.ndarray:
    """Kendall tau of each row of seq, a permutation of range(n): the
    positions in ranking b of the items taken in ranking a's order."""
    n = seq.shape[-1]
    pairs = n * (n - 1) // 2
    i = np.arange(n)
    ordered = (seq[..., :, None] < seq[..., None, :]) & (i[:, None] < i)
    concordant = np.count_nonzero(ordered, axis=(-2, -1))
    return (concordant - (pairs - concordant)) / pairs


def prediction_difference(preds_a, preds_b) -> float:
    """Mean of |a - b| / ((a + b) / 2) over item-level predictions."""
    a = np.asarray(preds_a, dtype=np.float64)
    b = np.asarray(preds_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise InputError("predictions must be matching nonempty 1-d vectors")
    if (a <= 0).any() or (b <= 0).any():
        raise InputError("predictions must be strictly positive")
    return fmean(np.abs(a - b) / ((a + b) / 2.0))


def sxs_change_rate(
    model_a: Model, model_b: Model, dataset: Dataset, tau_threshold: float = 0.02
) -> SxSReport:
    """sxs_report of two models' scores over a dataset (score_dataset)."""
    a, b = (score_dataset(m, dataset) for m in (model_a, model_b))
    return sxs_report(a, b, dataset, tau_threshold)


def sxs_report(
    scores_a: dict[int, np.ndarray],
    scores_b: dict[int, np.ndarray],
    dataset: Dataset,
    tau_threshold: float = 0.02,
) -> SxSReport:
    """Side-by-side comparison of two models' scores over a dataset, each
    a dict query_id -> finite score vector, as Model.score_group gives it.

    A query counts as changed when the normalized Kendall distance
    (1 - tau) / 2 between the two induced rankings exceeds tau_threshold.
    PD is computed over per-item softmax probabilities, floored at
    nn.PROB_FLOOR as in the CE, concatenated across all queries.
    """
    probs_a, probs_b = [], []

    def tau(sa, bucket):
        sb = bucket.rows(scores_b)
        ids = bucket.item_ids
        pos_b = np.argsort(rank_order(sb, ids), axis=-1)  # the inverse permutation
        probs_a.append(np.maximum(softmax(sa, 1.0), PROB_FLOOR).ravel())
        probs_b.append(np.maximum(softmax(sb, 1.0), PROB_FLOOR).ravel())
        return _tau(np.take_along_axis(pos_b, rank_order(sa, ids), axis=-1))

    taus = _per_query(scores_a, dataset, tau)
    pd = prediction_difference(np.concatenate(probs_a), np.concatenate(probs_b))
    return SxSReport(
        change_rate=np.count_nonzero((1.0 - taus) / 2.0 > tau_threshold) / len(taus),
        mean_tau=fmean(taus),
        pd=pd,
        tau_threshold=tau_threshold,
        query_count=len(taus),
    )


def ranking_metrics_report(
    scores_by_query: dict[int, np.ndarray],
    dataset: Dataset,
    boost_rule: BoostRule | None = None,
    exposure_k: int = 10,
) -> RankingMetricsReport:
    """Aggregate NDCG and exposure rates over a scored dataset.

    Each length bucket is ranked once and its label rows gathered once in
    that order; every query's NDCG@5, NDCG@10, full NDCG and every
    per-objective exposure come from those rows. Per-objective exposure
    flags an item when its label for that objective is 1. Boosted exposure
    uses the rule's predicate.
    """
    if exposure_k < 1:
        raise InputError(f"k must be >= 1, got {exposure_k}")

    def metrics(scores, bucket):
        order = rank_order(scores)
        positive = np.take_along_axis(bucket.labels, order[..., None], axis=-2) == 1
        columns = [_ndcg(positive[..., 0], k) for k in (5, 10, scores.shape[-1])]
        exposures = [_exposure(positive[..., k], exposure_k) for k in range(dataset.K)]
        if boost_rule is not None:
            flags = np.take_along_axis(boost_rule.match_mask(bucket), order, axis=-1)
            exposures.append(_exposure(flags, exposure_k))
        return np.stack(columns + exposures, axis=-1)

    table = _per_query(scores_by_query, dataset, metrics)
    means = [fmean(column) for column in table.T]
    return RankingMetricsReport(
        ndcg_at_5=means[0],
        ndcg_at_10=means[1],
        ndcg_full=means[2],
        objective_exposure_at_10=means[3:3 + dataset.K],
        boosted_exposure_at_10=means[-1] if boost_rule is not None else None,
        query_count=len(dataset.groups),
    )


def mean_boosted_exposure(
    scores_by_query: dict[int, np.ndarray],
    dataset: Dataset,
    rule: BoostRule,
    k: int = 10,
) -> float:
    return fmean(_per_query(
        scores_by_query, dataset,
        lambda scores, bucket: exposure_rate(scores, rule.match_mask(bucket), k),
    ))


def query_ndcg(
    scores_by_query: dict[int, np.ndarray], dataset: Dataset, k: int | None = 10
) -> list[float]:
    """Each query's ndcg_at_k, in dataset order."""
    return _per_query(
        scores_by_query, dataset,
        lambda scores, bucket: ndcg_at_k(scores, bucket.labels[..., 0] == 1, k),
    ).tolist()


def mean_ndcg(
    scores_by_query: dict[int, np.ndarray], dataset: Dataset, k: int | None = 10
) -> float:
    return fmean(query_ndcg(scores_by_query, dataset, k))
