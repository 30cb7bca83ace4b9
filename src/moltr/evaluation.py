"""Ranking-quality and reproducibility metrics.

All metrics are pure functions over scores and labels. Score ties are
broken deterministically: by list position for NDCG and exposure, and by
ascending item id for the side-by-side change rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .data import Dataset, QueryGroup
from .distill import BoostRule, Model
from .errors import InputError
from .nn import softmax


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
    """Indices in descending-score order; ties by ascending item_ids, else by position."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    ids = np.arange(n) if item_ids is None else np.asarray(item_ids)
    return np.lexsort((ids, -scores))


def ndcg_at_k(scores: np.ndarray, primary_labels: np.ndarray, k: int | None) -> float:
    """Binary-relevance NDCG; all-zero labels give 0 by convention.

    k=None means the full list.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(primary_labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size < 1:
        raise InputError("scores and labels must be matching 1-d vectors")
    if k is not None and k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    ranks = (np.flatnonzero((labels > 0)[rank_order(scores)]) + 1).tolist()
    return _ndcg(ranks, scores.size if k is None else k)


def _ndcg(ranks: list[int], k: int) -> float:
    """NDCG cut at k from the ascending 1-based ranks of every relevant item
    in the full list; k at or past the list's end means the full list."""
    if not ranks:
        return 0.0
    dcg = 0.0
    for rank in ranks:
        if rank > k:
            break
        dcg += 1.0 / math.log2(rank + 1)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(ranks), k) + 1))
    return dcg / ideal


def exposure_rate(scores: np.ndarray, flags: np.ndarray, k: int) -> float:
    """Fraction of top-k positions held by flagged items; k clamps to n."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if scores.shape != flags.shape:
        raise InputError("scores and flags must have matching shapes")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return _exposure(rank_order(scores), flags, k)


def _exposure(order: np.ndarray, flags: np.ndarray, k: int) -> float:
    k = min(k, order.size)
    return float(flags[order[:k]].sum()) / k


def serve_with_boost(
    model: Model, group: QueryGroup, rule: BoostRule, gamma: float
) -> np.ndarray:
    """Serving-time score boost: add gamma to items matching the rule."""
    return boost_scores(model.score_group(group), group, rule, gamma)


def boost_scores(
    scores: np.ndarray, group: QueryGroup, rule: BoostRule, gamma: float
) -> np.ndarray:
    """group's scores with gamma added to the items matching the rule."""
    return scores + gamma * rule.match_mask(group)


def _tau(seq: np.ndarray) -> float:
    """Kendall tau of a permutation seq of range(n): the positions in ranking
    b of the items taken in ranking a's order."""
    n = seq.size
    if n < 2:
        return 1.0
    pairs = n * (n - 1) // 2
    i = np.arange(n)
    concordant = np.count_nonzero((seq[:, None] < seq) & (i[:, None] < i))
    discordant = pairs - concordant
    return (concordant - discordant) / pairs


def prediction_difference(preds_a, preds_b) -> float:
    """Mean of |a - b| / ((a + b) / 2) over item-level predictions."""
    a = np.asarray(preds_a, dtype=np.float64)
    b = np.asarray(preds_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise InputError("predictions must be matching nonempty 1-d vectors")
    if (a <= 0).any() or (b <= 0).any():
        raise InputError("predictions must be strictly positive")
    terms = np.abs(a - b) / ((a + b) / 2.0)
    return float(math.fsum(terms) / a.size)


def sxs_change_rate(
    model_a: Model, model_b: Model, dataset: Dataset, tau_threshold: float = 0.02
) -> SxSReport:
    """sxs_report of two models' scores over a dataset."""
    a, b = ({g.query_id: m.score_group(g) for g in dataset.groups} for m in (model_a, model_b))
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
    PD is computed over per-item softmax probabilities (positive by
    construction), concatenated across all queries.
    """
    if not dataset.groups:
        raise InputError("dataset is empty")
    changed = 0
    taus = []
    probs_a = []
    probs_b = []
    for g in dataset.groups:
        sa, sb = scores_a[g.query_id], scores_b[g.query_id]
        oa = rank_order(sa, g.item_ids)
        ob = rank_order(sb, g.item_ids)
        pos_b = np.empty(g.size, dtype=np.intp)
        pos_b[ob] = np.arange(g.size)
        tau = _tau(pos_b[oa])
        taus.append(tau)
        if (1.0 - tau) / 2.0 > tau_threshold:
            changed += 1
        probs_a.append(softmax(sa, 1.0))
        probs_b.append(softmax(sb, 1.0))
    pd = prediction_difference(np.concatenate(probs_a), np.concatenate(probs_b))
    return SxSReport(
        change_rate=changed / len(dataset.groups),
        mean_tau=float(math.fsum(taus) / len(taus)),
        pd=pd,
        tau_threshold=tau_threshold,
        query_count=len(dataset.groups),
    )


def ranking_metrics_report(
    scores_by_query: dict[int, np.ndarray],
    dataset: Dataset,
    boost_rule: BoostRule | None = None,
    exposure_k: int = 10,
) -> RankingMetricsReport:
    """Aggregate NDCG and exposure rates over a scored dataset.

    Each query is ranked once and its label rows gathered once in that
    order; its NDCG@5, NDCG@10, full NDCG and every per-objective exposure
    come from those rows. Per-objective exposure flags an item when its label
    for that objective is 1. Boosted exposure uses the rule's predicate.
    """
    if not dataset.groups:
        raise InputError("dataset is empty")
    if exposure_k < 1:
        raise InputError(f"k must be >= 1, got {exposure_k}")
    ndcg5, ndcg10, ndcgf = [], [], []
    obj_exp = [[] for _ in range(dataset.K)]
    boost_exp = []
    for g in dataset.groups:
        s = np.asarray(scores_by_query[g.query_id], dtype=np.float64)
        if s.shape != (g.size,):
            raise InputError(f"query {g.query_id}: {s.shape} scores for {g.size} items")
        order = rank_order(s)
        positive = g.labels[order] == 1
        ranks = (np.flatnonzero(positive[:, 0]) + 1).tolist()
        ndcg5.append(_ndcg(ranks, 5))
        ndcg10.append(_ndcg(ranks, 10))
        ndcgf.append(_ndcg(ranks, g.size))
        k = min(exposure_k, g.size)
        for col, count in zip(obj_exp, np.count_nonzero(positive[:k], axis=0).tolist()):
            col.append(count / k)
        if boost_rule is not None:
            boost_exp.append(_exposure(order, boost_rule.match_mask(g), exposure_k))
    mean = lambda xs: float(math.fsum(xs) / len(xs))
    return RankingMetricsReport(
        ndcg_at_5=mean(ndcg5),
        ndcg_at_10=mean(ndcg10),
        ndcg_full=mean(ndcgf),
        objective_exposure_at_10=[mean(e) for e in obj_exp],
        boosted_exposure_at_10=mean(boost_exp) if boost_exp else None,
        query_count=len(dataset.groups),
    )


def mean_boosted_exposure(
    scores_by_query: dict[int, np.ndarray],
    dataset: Dataset,
    rule: BoostRule,
    k: int = 10,
) -> float:
    vals = [
        exposure_rate(scores_by_query[g.query_id], rule.match_mask(g), k)
        for g in dataset.groups
    ]
    return float(math.fsum(vals) / len(vals))


def mean_ndcg(
    scores_by_query: dict[int, np.ndarray], dataset: Dataset, k: int | None = 10
) -> float:
    vals = [
        ndcg_at_k(scores_by_query[g.query_id], g.primary_labels(), k)
        for g in dataset.groups
    ]
    return float(math.fsum(vals) / len(vals))
