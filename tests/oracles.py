"""Reference implementations the tests compare the library against.

Each is written from its formula, in plain loops where that is clearest,
and calls no moltr kernel that the code it checks runs, so a shared bug
cannot make both sides agree. oracle_softmax and oracle_ce are the
listwise softmax and cross entropy, and weighted_ce_sum sums oracle_ce;
the tests compare it with the library's one CE, nn.distill_loss.
padded_train steps through the public nn functions, which the trainers
fuse, and writes the padded loss gradient out itself.
"""

import math

import numpy as np

from moltr import nn
from moltr.data import MISSING_LABEL


def finite_diff_grad(params, loss_evaluator, epsilon=1e-5):
    """Central-difference estimate of d(loss)/d(each parameter), as a
    ParameterSet of params' shapes; slow, one pair of loss calls per entry."""
    work = nn.ParameterSet(params.flat.copy(), params.shapes)
    grad = np.zeros_like(work.flat)
    for j in range(work.flat.size):
        orig = work.flat[j]
        work.flat[j] = orig + epsilon
        lp = loss_evaluator(work)
        work.flat[j] = orig - epsilon
        lm = loss_evaluator(work)
        work.flat[j] = orig
        grad[j] = (lp - lm) / (2.0 * epsilon)
    return nn.ParameterSet(grad, params.shapes)


def max_relative_grad_error(analytic, numeric, floor=1e-6):
    """max |a - n| / max(|a|, |n|, floor) over every parameter.

    The floor keeps central-difference roundoff (absolute noise around
    1e-11 at epsilon 1e-5) from dominating the ratio on near-zero
    gradient entries.
    """
    a, n = analytic.flat, numeric.flat
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def oracle_softmax(scores, temperature=1.0):
    """exp(s_i / T) / sum_j exp(s_j / T), shifted by the largest s / T."""
    z = np.asarray(scores, dtype=np.float64) / temperature
    e = np.exp(z - z.max())
    return e / e.sum()


def oracle_ce(pred, target):
    """-sum_i target_i * log(pred_i), each pred_i floored at nn.PROB_FLOOR."""
    return -math.fsum(t * math.log(max(p, nn.PROB_FLOOR)) for p, t in zip(pred, target))


def weighted_ce_sum(pred, targets, weights):
    """sum_k w_k * oracle_ce(pred, target_k). When the weights sum to 1 this
    equals CE against the weight-averaged target, the aggregation identity
    the distillation loss relies on."""
    return float(sum(w * oracle_ce(pred, t) for w, t in zip(weights, targets)))


def objective_labels(group, k):
    """(values with missing as 0, present mask) for objective k in a group."""
    col = group.labels[:, k]
    return (col == 1).astype(np.float64), col != MISSING_LABEL


def primary_labels(group):
    """The primary objective's labels in a group, missing as 0."""
    return objective_labels(group, 0)[0]


def label_coverage(dataset, k):
    """Fraction of query groups with at least one observed label for objective k."""
    covered = sum(bool((g.labels[:, k] != MISSING_LABEL).any()) for g in dataset.groups)
    return covered / len(dataset.groups)


def kendall_tau(ranking_a, ranking_b):
    """(concordant - discordant) / (n choose 2) between two orderings of the
    same distinct items, best first, counted over every pair."""
    a = list(ranking_a)
    n = len(a)
    pos_b = {item: i for i, item in enumerate(ranking_b)}
    concordant = sum(pos_b[a[i]] < pos_b[a[j]] for i in range(n) for j in range(i + 1, n))
    discordant = n * (n - 1) // 2 - concordant
    return (concordant - discordant) / (n * (n - 1) / 2)


def scalarized_steps(dataset, objective_weights, epochs):
    """The steps in which each objective's term trains the scalarized
    baseline: epochs times the groups with a positive label for k, for each
    w_k != 0, and 0 for w_k == 0."""
    return [
        epochs * sum(bool((g.labels[:, k] == 1).any()) for g in dataset.groups) if w != 0 else 0
        for k, w in enumerate(objective_weights)
    ]


def objective_target(group, k):
    """Objective k's labels in a group, each 1 divided by their count, or
    None when the group has no positive label for k."""
    positive = (group.labels[:, k] == 1).astype(np.float64)
    count = positive.sum()
    return positive / count if count > 0 else None


def padded_train(dataset, config, target, alpha=1.0, soft=None):
    """The per-step SGD loop that the trainers fuse, over the public nn
    functions, with each group padded as they pad it: to the dataset's
    longest list by repeating its last item, every padded item masked out
    of each softmax, and the score gradient summed term by term,
    sum_k w_k * (softmax(scores / T_k) - target_k) / T_k, with the loss
    terms of nn.blend_terms that have a weight. target(group) is the hard
    target or None. Each step takes the next config.batch_size groups and
    steps on the mean gradient of those that have a loss term, if any."""
    mlp = config.mlp
    width = max(g.size for g in dataset.groups)
    rng = np.random.default_rng(config.seed)
    params = nn.init_params(mlp, rng)
    order = np.arange(len(dataset.groups))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            batch = [padded_grad(dataset.groups[gi], params, config, width, target, alpha, soft)
                     for gi in order[start:start + config.batch_size]]
            batch = [g.flat for g in batch if g is not None]
            if batch:
                mean = nn.ParameterSet(np.mean(batch, axis=0), params.shapes)
                params = nn.sgd_step(params, mean, config.learning_rate)
    return params


def padded_grad(group, params, config, width, target, alpha, soft):
    """padded_train's parameter gradient on one group, or None when the
    group has no loss term."""
    mlp = config.mlp
    soft_target = None
    if soft is not None:
        soft_target = oracle_softmax(soft.scores[group.query_id], config.teacher_temperature)
    hard = target(group)
    terms = [(w, t, hard_or_soft) for w, t, hard_or_soft in zip(*nn.blend_terms(
        np.zeros(group.size) if hard is None else hard, soft_target, alpha,
        config.temperature,
    )) if w != 0]
    if not terms:
        return None
    n = group.size
    rows = [min(i, n - 1) for i in range(width)]
    scores, trace = nn.mlp_forward(params, group.features[rows], mlp.activation)
    grad = np.zeros(width)
    for w, t, hard_or_soft in terms:
        z = scores / t
        z[n:] = -np.inf
        e = np.exp(z - z.max())
        padded_target = np.zeros(width)
        padded_target[:n] = hard_or_soft
        grad = grad + (e / e.sum() - padded_target) / t * w
    return nn.backward(trace, params, grad, mlp.activation)
