"""Reference implementations the tests compare the library against.

Each is written from its formula, in plain loops where that is clearest,
and calls no moltr kernel that the code it checks runs, so a shared bug
cannot make both sides agree. weighted_ce_sum calls nn.cross_entropy on
purpose: the aggregation identity it checks is a property of that CE.
padded_train steps through the public nn functions, which the trainers
fuse, and writes the padded loss gradient out itself.
"""

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


def weighted_ce_sum(pred, targets, weights):
    """sum_k w_k * CE(pred, target_k). When the weights sum to 1 this equals
    CE against the weight-averaged target, the aggregation identity the
    distillation loss relies on."""
    return float(sum(w * nn.cross_entropy(pred, t) for w, t in zip(weights, targets)))


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


def padded_train(dataset, config, target, alpha=1.0, soft=None):
    """The per-step SGD loop that the trainers fuse, over the public nn
    functions, with each group padded as they pad it: to the dataset's
    longest list by repeating its last item, every padded item masked out
    of each softmax, and the score gradient summed term by term,
    sum_k w_k * (softmax(scores / T_k) - target_k) / T_k, with the loss
    terms of nn.blend_terms. target(group) is the hard target or None."""
    mlp = config.mlp
    width = max(g.size for g in dataset.groups)
    rng = np.random.default_rng(config.seed)
    params = nn.init_params(mlp, rng)
    order = np.arange(len(dataset.groups))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for gi in order:
            group = dataset.groups[gi]
            soft_target = None
            if soft is not None:
                soft_target = nn.listwise_softmax(
                    soft.scores[group.query_id], config.teacher_temperature
                )
            terms = nn.blend_terms(target(group), soft_target, alpha, config.temperature)
            if not terms:
                continue
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
            grads = nn.backward(trace, params, grad, mlp.activation)
            params = nn.sgd_step(params, grads, config.learning_rate)
    return params
