"""Deterministic feed-forward ranking network with explicit backprop.

Everything here operates on plain numpy arrays; one forward pass scores the
n items of a single query list. Losses are listwise: a softmax over the
query's item scores is compared against a target distribution with cross
entropy.

The arithmetic exists once, in four unchecked kernels: layer_outputs (the
forward pass), backprop_into (gradients written into reused arrays),
softmax, and terms_grad (the score gradient of weighted listwise-CE terms,
the form of every loss). Every loss is a list of (weight, temperature,
target) terms over many lists at once, stacked as arrays by stack_terms;
blend_terms writes the distillation loss that way, row by row. The public
mlp_forward, backward and distill_loss check their inputs and call a
kernel; they leave their inputs unchanged and return fresh arrays. The
trainers in distill call the kernels on inputs they check once per run. A
ParameterSet keeps every layer in one flat buffer, and sgd_step updates
that buffer in place with one finiteness check per step.

A ParameterSet holds one run, flat (P,), or R runs of one architecture as
the rows of flat (R, P). layer_outputs, backprop_into and sgd_step take
either form, and a stacked call may give each run its own items: each
run's slice of a stacked call is the same arithmetic, bit for bit, as the
call on that run's own ParameterSet and items. softmax, stack_terms,
blend_terms and terms_grad likewise work row by row over any leading axes,
each row bit for bit what it gives alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Config, ConfigError, InputError, ParseError, TrainingError, read_json, write_atomic,
)

# Softmax outputs are clamped to this floor before any log or ratio, so
# cross entropy and the side-by-side PD are total even for extreme score gaps.
PROB_FLOOR = 1e-12

ACTIVATIONS = ("relu", "tanh")

# The file name a checkpoint store gives a checkpoint: its sha256, in hex.
_CONTENT_ADDRESSED = re.compile(r"[0-9a-f]{64}\.json")


@dataclass(frozen=True)
class MlpConfig(Config, section="mlp"):
    """Architecture and initialization of the ranking MLP.

    layer_dims runs from the input feature dimension to the final scalar
    score, so it always ends in 1.
    """

    layer_dims: tuple[int, ...]
    activation: str = "relu"
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ConfigError("layer_dims needs at least input and output entries")
        if any(d <= 0 for d in dims):
            raise ConfigError(f"layer_dims must be positive, got {dims}")
        if dims[-1] != 1:
            raise ConfigError("last layer dim must be 1 (scalar score per item)")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if not (0 < 2.0 * self.init_scale < np.inf):  # the init range is 2 * init_scale wide
            raise ConfigError("init_scale must be positive with 2 * init_scale finite")
        if int(self.seed) < 0:
            raise ConfigError("seed must be nonnegative")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass(eq=False)
class ParameterSet:
    """One run's parameters, or R runs' of one architecture, in one flat
    float64 buffer laid out w0, b0, w1, b1, ...; shapes are one run's layer
    shapes. flat is (P,) for one run, with (d_in, d_out) weight and (d_out,)
    bias views, or (R, P) for R runs, row r being run r's flat, with
    (R, d_in, d_out) weight and (R, 1, d_out) bias views, so a bias adds
    across a run's items. An in-place update of flat updates every layer.
    """

    flat: np.ndarray
    shapes: tuple
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        lead = self.flat.shape[:-1]
        views, start = [], 0
        for shape in self.shapes:
            end = start + math.prod(shape)
            if lead and len(shape) == 1:
                shape = (1, *shape)
            views.append(self.flat[..., start:end].reshape(*lead, *shape))
            start = end
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def from_layers(cls, weights, biases) -> "ParameterSet":
        """One run's parameters, copied from per-layer weight matrices
        (d_in x d_out) and bias vectors into one C-contiguous buffer."""
        if len(weights) != len(biases):
            raise InputError("weights and biases layer counts differ")
        if not weights:
            raise InputError("a ParameterSet needs at least one layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise InputError(f"layer {i}: inconsistent shapes {w.shape} / {b.shape}")
        arrays = [a for pair in zip(weights, biases) for a in pair]
        flat = np.concatenate([a.ravel() for a in arrays], dtype=np.float64)
        return cls(flat, tuple(a.shape for a in arrays))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def layer_dims(self) -> tuple[int, ...]:
        return (self.shapes[0][0], *(shape[1] for shape in self.shapes[0::2]))

    def row(self, r: int) -> "ParameterSet":
        """A copy of run r's parameters."""
        return ParameterSet(self.flat[r].copy(), self.shapes)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def params_hash(self) -> str:
        return hashlib.sha256(self.flat.tobytes()).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return self.shapes == other.shapes and np.array_equal(self.flat, other.flat)


def init_params(config: MlpConfig, rng: np.random.Generator | None = None) -> ParameterSet:
    """Uniform init in [-init_scale, init_scale], layer by layer in order."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    s = config.init_scale
    weights, biases = [], []
    for d_in, d_out in zip(config.layer_dims[:-1], config.layer_dims[1:]):
        weights.append(rng.uniform(-s, s, size=(d_in, d_out)))
        biases.append(rng.uniform(-s, s, size=(d_out,)))
    return ParameterSet.from_layers(weights, biases)


def zeros_like_params(params: ParameterSet) -> ParameterSet:
    return ParameterSet(np.zeros_like(params.flat), params.shapes)


def layer_outputs(params, features: np.ndarray, relu: bool) -> list[np.ndarray]:
    """[features, h_1, ..., h_L], h_L (n x 1) holding the scores, or
    (R, n, .) layers for a stacked ParameterSet, the runs scoring the same
    (n, m) features or each its own, (R, n, m). Unchecked kernel of
    mlp_forward. Activation is in place:
    backprop needs no pre-activations, as relu's post > 0 exactly when
    pre > 0 and tanh's derivative is 1 - post^2."""
    hs = [features]
    last = params.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = hs[-1] @ w
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z) if relu else np.tanh(z, out=z)
        hs.append(z)
    return hs


def backprop_into(grads, hs, params, per_score_grad, relu: bool):
    """Write d(loss)/d(each parameter) into grads, given layer_outputs and
    d(loss)/d(score), (n,) for one run or (R, n) for R stacked runs.
    Unchecked kernel of backward; it only reads hs and per_score_grad."""
    delta = per_score_grad[..., None]
    for i in range(params.num_layers - 1, -1, -1):
        bias = grads.biases[i]
        np.matmul(hs[i].swapaxes(-1, -2), delta, out=grads.weights[i])
        delta.sum(axis=-2, keepdims=bias.ndim == delta.ndim, out=bias)
        if i > 0:  # multiplied, not np.where, so a masked entry keeps its signed zero
            delta = delta @ params.weights[i].swapaxes(-1, -2)
            delta *= (hs[i] > 0.0) if relu else 1.0 - hs[i] * hs[i]


def mlp_forward(
    params: ParameterSet, features: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Score each of the n items; the output layer is linear.

    Returns the (n,) score vector and the layer outputs for backward().
    """
    if params.flat.ndim != 1:
        raise InputError("mlp_forward scores with one run's parameters, not a stack")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise InputError(f"features must be 2-d, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise InputError("features contain non-finite values")
    if features.shape[1] != params.weights[0].shape[0]:
        raise InputError(
            f"feature dim {features.shape[1]} != input dim {params.weights[0].shape[0]}"
        )
    hs = layer_outputs(params, features, activation == "relu")
    scores = hs[-1][:, 0]
    if not np.isfinite(scores).all():
        raise InputError("forward pass produced non-finite scores")
    return scores, hs


def backward(
    trace: list[np.ndarray],
    params: ParameterSet,
    per_score_grad: np.ndarray,
    activation: str = "relu",
) -> ParameterSet:
    """Exact gradients of the loss w.r.t. every parameter, in fresh arrays.

    per_score_grad is d(loss)/d(score) per item, as distill_loss gives it.
    The trace must come from mlp_forward with these params.
    """
    if len(trace) != params.num_layers + 1:
        raise InputError("trace does not match parameter layer count")
    per_score_grad = np.asarray(per_score_grad, dtype=np.float64)
    if any(h.shape[0] != per_score_grad.shape[0] for h in trace):
        raise InputError("trace item count does not match gradient length")
    grads = zeros_like_params(params)
    backprop_into(grads, trace, params, per_score_grad, activation == "relu")
    return grads


def softmax(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Max-stabilized temperature softmax in a fresh array, row by row over
    any leading axes. Unchecked: the caller checks scores and temperature."""
    z = scores if temperature == 1.0 else scores / temperature  # x / 1.0 is x bit for bit
    z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def stack_terms(terms, shape) -> tuple:
    """Loss terms on lists of shape (..., n) as terms_grad's arrays: weights
    (..., S), temperatures (S,) and targets (..., S, n), one slot per term
    (w, T, target) in order, each target broadcast to shape. A term of
    weight 0 or with no target (None) gets no slot, and a target row of
    zeros is no target, so its list gets weight 0 in that slot: the one
    rule for which loss terms a step drops."""
    kept = [(w, t, target) for w, t, target in terms if w != 0 and target is not None]
    targets = np.zeros((*shape[:-1], len(kept), shape[-1]))
    for k, (_, _, target) in enumerate(kept):
        targets[..., k, :] = target
    weights = np.array([w for w, _, _ in kept], dtype=np.float64)
    temperatures = np.array([t for _, t, _ in kept], dtype=np.float64)
    return np.where(targets.any(axis=-1), weights, 0.0), temperatures, targets


def blend_terms(hard, soft, alpha: float, temperature: float) -> tuple:
    """The distillation loss as stacked terms (stack_terms), row by row:
    alpha times CE against hard at temperature 1, then 1 - alpha times CE
    against soft at temperature. hard holds (..., n) target rows, a row of
    zeros for a list with no hard target; soft holds such rows or is None.
    A row's lone live term gets weight 1, so alpha == 1 with a hard target
    is exactly hard-label training, and a list with no hard target trains
    on the soft term alone."""
    weights, temperatures, targets = stack_terms(
        [(alpha, 1.0, hard), (1.0 - alpha, temperature, soft)], np.shape(hard)
    )
    live = weights != 0
    lone = np.count_nonzero(live, axis=-1) == 1
    return np.where(lone[..., None], live, weights), temperatures, targets


def distill_loss(
    scores: np.ndarray,
    hard: np.ndarray | None,
    soft: np.ndarray | None,
    alpha: float,
    temperature: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Blended listwise loss and its exact score gradient.

    loss = alpha * CE(softmax(scores, 1), hard)
         + (1 - alpha) * CE(softmax(scores, T), soft)

    The hard term always uses temperature 1; temperature applies only to
    the student softmax of the soft term. Both the value and the gradient
    come from blend_terms, so alpha == 1 or 0, or a missing target (None,
    or all zeros), leaves the other term out entirely. Each CE floors the
    softmax at PROB_FLOOR before its log."""
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise InputError("scores contain non-finite values")
    hard, soft = (None if t is None else np.asarray(t, dtype=np.float64) for t in (hard, soft))
    for target in (hard, soft):
        if target is not None and target.shape != scores.shape:
            raise InputError(f"length mismatch: {scores.shape} vs {target.shape}")
    if scores.ndim != 1 or scores.size < 1:
        raise InputError("scores must be a nonempty 1-d vector")
    terms = blend_terms(np.zeros(scores.shape) if hard is None else hard, soft, alpha, temperature)
    weights, temperatures, _ = terms
    if not (temperatures[weights != 0] > 0).all():
        raise InputError("temperature must be positive")
    parts = [w * -(target * np.log(np.maximum(softmax(scores, t), PROB_FLOOR))).sum()
             for w, t, target in zip(*terms) if w != 0]
    loss = sum(parts[1:], parts[0]) if parts else 0.0
    return float(loss), terms_grad(scores, np.zeros_like(scores), *terms)


def terms_grad(scores, pad, weights, temperatures, targets) -> np.ndarray:
    """d/d(scores) of sum_k weights[k] * CE(softmax(scores / T_k + pad),
    targets[k]) in a fresh array, row by row over any leading axes:
    scores and pad (..., n), weights and temperatures (..., K), targets
    (..., K, n). pad is 0 on items and -inf on padding, whose probability,
    and so gradient, is then exactly 0. weights or temperatures None
    stands for all ones.

    Unchecked kernel of distill_loss and the trainers. Each term gets its
    own max-stabilized softmax, one shared by every term when all are at
    T = 1. The terms are summed in k order, and x / 1.0 and x * 1.0 are x
    bit for bit, so a term at T = 1 or w = 1 is not rounded.
    """
    if not targets.shape[-2]:
        return np.zeros_like(scores)
    # (s + pad) / T equals s / T + pad, up to the sign of a zero, which
    # subtracting the max removes.
    z = scores[..., None, :] + pad[..., None, :]
    if temperatures is not None:
        t = temperatures[..., None]
        z = z / t
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    g = z - targets
    if temperatures is not None:
        g /= t
    if weights is not None:
        g *= weights[..., None]
    total = g[..., 0, :]
    for k in range(1, g.shape[-2]):
        total = total + g[..., k, :]
    return total


def sgd_step(params, grads, lr: float):
    """theta <- theta - lr * g on params.flat, in place; returns params.
    Both are ParameterSets of the same shapes and run count.

    One finiteness check covers every layer; the failing layer is looked up
    only on failure, and the params then hold the non-finite update.
    """
    if not (lr >= 0):
        raise ConfigError("learning rate must be nonnegative")
    if (params.shapes, params.flat.shape) != (grads.shapes, grads.flat.shape):
        raise InputError(
            f"gradient shapes {grads.shapes} in {grads.flat.shape} != "
            f"parameter shapes {params.shapes} in {params.flat.shape}"
        )
    params.flat -= lr * grads.flat
    if not np.isfinite(params.flat).all():
        i = next(i for i, (w, b) in enumerate(zip(params.weights, params.biases))
                 if not (np.isfinite(w).all() and np.isfinite(b).all()))
        raise TrainingError(f"non-finite update at layer {i}")
    return params


def save_checkpoint(
    config: MlpConfig, params: ParameterSet, path, extra: dict | None = None
) -> str:
    """Write a JSON checkpoint; returns its content hash.

    Weights are stored flattened row-major per layer. JSON float repr
    round-trips doubles exactly, so load is value-exact.
    """
    payload, digest = checkpoint_payload(config, params, extra)
    with write_atomic(path) as f:
        f.write(payload)
    return digest


def checkpoint_payload(
    config: MlpConfig, params: ParameterSet, extra: dict | None = None
) -> tuple[str, str]:
    """The checkpoint's JSON text and its sha256 hex digest (the content hash)."""
    payload = json.dumps(checkpoint_document(config, params, extra), sort_keys=True)
    return payload, hashlib.sha256(payload.encode()).hexdigest()


def checkpoint_document(
    config: MlpConfig, params: ParameterSet, extra: dict | None = None
) -> dict:
    if params.flat.ndim != 1:
        raise InputError("a checkpoint holds one run's parameters, not a stack")
    if params.layer_dims() != config.layer_dims:
        raise InputError("params do not match config layer_dims")
    if not params.all_finite():
        raise InputError("refusing to checkpoint non-finite parameters")
    doc = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "layers": [
            {"weights": w.reshape(-1).tolist(), "biases": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
    }
    if extra:
        doc.update(extra)
    return doc


def load_checkpoint(path) -> tuple[MlpConfig, ParameterSet, dict]:
    """Inverse of save_checkpoint; returns (config, params, full document).

    A file that is not a checkpoint document raises a ParseError naming it,
    and so does a content-addressed file, named <sha256 hex>.json as
    CheckpointStore names them, whose sha256 is not its name.
    """
    base = os.path.basename(path)
    digest = base[:64] if _CONTENT_ADDRESSED.fullmatch(base) else None
    doc = read_json(path, f"checkpoint {path}", sha256=digest)
    if not isinstance(doc, dict):
        raise ParseError(f"checkpoint {path}: not a JSON object")
    for key in ("config", "config_hash", "seed", "layers"):
        if key not in doc:
            raise ParseError(f"checkpoint {path}: missing {key!r}")
    try:
        return checkpoint_from_document(doc) + (doc,)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"checkpoint {path}: {e}") from e


def checkpoint_from_document(doc: dict) -> tuple[MlpConfig, ParameterSet]:
    """The config and params of a checkpoint document. A stored config_hash
    or seed that the config does not give, a layer count that layer_dims
    does not describe, or a non-finite parameter raises a ParseError."""
    config = MlpConfig.from_dict(doc["config"])
    if doc["config_hash"] != config.config_hash():
        raise ParseError("stored config_hash does not match the config")
    if type(doc["seed"]) is not int or doc["seed"] != config.seed:
        raise ParseError(f"stored seed {json.dumps(doc['seed'])} != config seed {config.seed}")
    dims, layers = config.layer_dims, doc["layers"]
    if len(layers) != len(dims) - 1:
        raise ParseError(f"{len(layers)} layers, but layer_dims {list(dims)} needs {len(dims) - 1}")
    for i, layer in enumerate(layers):
        for key in ("weights", "biases"):
            # numpy would read true as 1.0 and "0.1" as 0.1.
            if type(layer[key]) is not list or not set(map(type, layer[key])) <= {int, float}:
                raise ParseError(f"layer {i}: {key} must be a list of numbers")
    weights = [
        np.asarray(layer["weights"], dtype=np.float64).reshape(d_in, d_out)
        for layer, d_in, d_out in zip(layers, dims, dims[1:])
    ]
    biases = [np.asarray(layer["biases"], dtype=np.float64) for layer in layers]
    params = ParameterSet.from_layers(weights, biases)
    if not params.all_finite():
        raise ParseError("non-finite parameters")
    return config, params
