"""Deterministic feed-forward ranking network with explicit backprop.

Everything here operates on plain numpy arrays; one forward pass scores the
n items of a single query list. Losses are listwise: a softmax over the
query's item scores is compared against a target distribution with cross
entropy. All public functions are pure and check their inputs; training
state lives in ParameterSet values that are replaced, never mutated. The
trainers in distill run the forward pass and backprop inline, with the
same arithmetic as mlp_forward and backward, and update through sgd_step.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InputError, ParseError, TrainingError, config_keys

# Softmax outputs are clamped to this floor before any log, so cross
# entropy is total even for extreme score gaps.
PROB_FLOOR = 1e-12

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpConfig:
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
        if not (self.init_scale > 0):
            raise ConfigError("init_scale must be positive")
        if int(self.seed) < 0:
            raise ConfigError("seed must be nonnegative")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def to_dict(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "activation": self.activation,
            "init_scale": self.init_scale,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MlpConfig":
        d = config_keys(d, cls, "mlp", required=("layer_dims",))
        if not isinstance(d["layer_dims"], (list, tuple)):
            raise ConfigError("mlp config key 'layer_dims' must be a list")
        return cls(
            layer_dims=tuple(d["layer_dims"]),
            activation=d.get("activation", "relu"),
            init_scale=d.get("init_scale", 0.1),
            seed=d.get("seed", 0),
        )

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass
class ParameterSet:
    """Per-layer weight matrices (d_in x d_out) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise InputError("weights and biases layer counts differ")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise InputError(f"layer {i}: inconsistent shapes {w.shape} / {b.shape}")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def layer_dims(self) -> tuple[int, ...]:
        dims = [self.weights[0].shape[0]]
        dims.extend(w.shape[1] for w in self.weights)
        return tuple(dims)

    def copy(self) -> "ParameterSet":
        return ParameterSet(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and all(
            np.isfinite(b).all() for b in self.biases
        )

    def params_hash(self) -> str:
        h = hashlib.sha256()
        for w, b in zip(self.weights, self.biases):
            h.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
            h.update(np.ascontiguousarray(b, dtype=np.float64).tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return self.num_layers == other.num_layers and all(
            np.array_equal(a, b)
            for a, b in zip(self.weights + self.biases, other.weights + other.biases)
        )


@dataclass
class ForwardTrace:
    """Cached intermediates of one forward pass, enough for exact backprop."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)


# GradientSet has the same structure as ParameterSet; keep one class and an
# alias so signatures stay readable.
GradientSet = ParameterSet


def init_params(config: MlpConfig, rng: np.random.Generator | None = None) -> ParameterSet:
    """Uniform init in [-init_scale, init_scale], layer by layer in order."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    s = config.init_scale
    weights, biases = [], []
    for d_in, d_out in zip(config.layer_dims[:-1], config.layer_dims[1:]):
        weights.append(rng.uniform(-s, s, size=(d_in, d_out)))
        biases.append(rng.uniform(-s, s, size=(d_out,)))
    return ParameterSet(weights, biases)


def zeros_like_params(params: ParameterSet) -> GradientSet:
    return ParameterSet(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    return np.tanh(x)


def _activate_grad(pre: np.ndarray, post: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (pre > 0.0).astype(pre.dtype)
    return 1.0 - post * post


def mlp_forward(
    params: ParameterSet, features: np.ndarray, activation: str = "relu"
) -> tuple[np.ndarray, ForwardTrace]:
    """Score each of the n items; the output layer is linear.

    Returns the (n,) score vector and a trace for backward().
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise InputError(f"features must be 2-d, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise InputError("features contain non-finite values")
    if features.shape[1] != params.weights[0].shape[0]:
        raise InputError(
            f"feature dim {features.shape[1]} != input dim {params.weights[0].shape[0]}"
        )
    trace = ForwardTrace(inputs=features)
    h = features
    last = params.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        trace.pre_activations.append(z)
        h = z if i == last else _activate(z, activation)
        trace.activations.append(h)
    scores = trace.activations[-1][:, 0]
    if not np.isfinite(scores).all():
        raise InputError("forward pass produced non-finite scores")
    return scores, trace


def backward(
    trace: ForwardTrace,
    params: ParameterSet,
    per_score_grad: np.ndarray,
    activation: str = "relu",
) -> GradientSet:
    """Exact gradients of the loss w.r.t. every parameter.

    per_score_grad is d(loss)/d(score) per item, as returned by
    distill_loss. The trace must come from mlp_forward with these params.
    """
    if len(trace.pre_activations) != params.num_layers:
        raise InputError("trace does not match parameter layer count")
    per_score_grad = np.asarray(per_score_grad, dtype=np.float64)
    delta = per_score_grad[:, None]  # grad w.r.t. final pre-activation
    g_weights = [np.empty(0)] * params.num_layers
    g_biases = [np.empty(0)] * params.num_layers
    for i in range(params.num_layers - 1, -1, -1):
        layer_in = trace.inputs if i == 0 else trace.activations[i - 1]
        if layer_in.shape[0] != delta.shape[0]:
            raise InputError("trace item count does not match gradient length")
        g_weights[i] = layer_in.T @ delta
        g_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i].T
            delta = delta * _activate_grad(
                trace.pre_activations[i - 1], trace.activations[i - 1], activation
            )
    return ParameterSet(g_weights, g_biases)


def listwise_softmax(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over one query's item scores, max-stabilized."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise InputError("scores must be a nonempty 1-d vector")
    if not np.isfinite(scores).all():
        raise InputError("scores contain non-finite values")
    if not (temperature > 0):
        raise InputError("temperature must be positive")
    z = scores / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy(pred: np.ndarray, target: np.ndarray) -> float:
    """-sum(target * log(pred)) with pred floored at PROB_FLOOR."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise InputError(f"length mismatch: {pred.shape} vs {target.shape}")
    safe = np.maximum(pred, PROB_FLOOR)
    return float(-(target * np.log(safe)).sum())


def weighted_ce_sum(
    pred: np.ndarray,
    targets: Sequence[np.ndarray],
    weights: Sequence[float],
) -> float:
    """sum_k w_k * CE(pred, target_k).

    When the weights sum to 1 this equals CE against the weight-averaged
    target, which is the aggregation identity the distillation loss relies
    on.
    """
    if len(targets) != len(weights):
        raise InputError("targets and weights lengths differ")
    if any(w < 0 for w in weights):
        raise InputError("weights must be nonnegative")
    return float(sum(w * cross_entropy(pred, t) for w, t in zip(weights, targets)))


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
    the student softmax of the soft term. alpha == 1 or 0 skips the other
    term entirely (no zero-weight arithmetic), so the degenerate cases are
    bitwise identical to single-term training. A missing hard target
    (hard=None) zeroes the hard term the same way.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise InputError("scores contain non-finite values")
    use_hard = alpha > 0.0 and hard is not None
    use_soft = alpha < 1.0 and soft is not None
    if not use_hard and not use_soft:
        return 0.0, np.zeros_like(scores)

    loss = 0.0
    grad = None
    if use_hard:
        p1 = listwise_softmax(scores, 1.0)
        hard = np.asarray(hard, dtype=np.float64)
        hl = cross_entropy(p1, hard)
        hg = p1 - hard
        if use_soft:
            loss += alpha * hl
            grad = alpha * hg
        else:
            loss = hl
            grad = hg
    if use_soft:
        pt = listwise_softmax(scores, temperature)
        soft = np.asarray(soft, dtype=np.float64)
        sl = cross_entropy(pt, soft)
        sg = (pt - soft) / temperature
        if use_hard:
            loss += (1.0 - alpha) * sl
            grad = grad + (1.0 - alpha) * sg
        else:
            loss = sl
            grad = sg
    return float(loss), grad


def sgd_step(params: ParameterSet, grads: GradientSet, lr: float) -> ParameterSet:
    """theta <- theta - lr * g; raises if any layer goes non-finite.

    The new layers are views into one fresh vector, so one finiteness check
    covers them all; the failing layer is looked up only on failure.
    """
    if not (lr >= 0):
        raise ConfigError("learning rate must be nonnegative")
    if params.num_layers != grads.num_layers:
        raise InputError("params and grads layer counts differ")
    theta = np.empty(sum(w.size + b.size for w, b in zip(params.weights, params.biases)))
    weights, biases, at = [], [], 0
    for i, (w, b, gw, gb) in enumerate(
        zip(params.weights, params.biases, grads.weights, grads.biases)
    ):
        if w.shape != gw.shape or b.shape != gb.shape:
            raise InputError(f"layer {i}: gradient shape mismatch")
        end = at + w.size
        nw, nb = theta[at:end].reshape(w.shape), theta[end:end + b.size]
        at = end + b.size
        np.subtract(w, np.multiply(lr, gw, out=nw), out=nw)
        np.subtract(b, np.multiply(lr, gb, out=nb), out=nb)
        weights.append(nw)
        biases.append(nb)
    if not np.isfinite(theta).all():
        i = next(i for i, (w, b) in enumerate(zip(weights, biases))
                 if not (np.isfinite(w).all() and np.isfinite(b).all()))
        raise TrainingError(f"non-finite update at layer {i}")
    return ParameterSet(weights, biases)


def finite_diff_grad(
    params: ParameterSet,
    loss_evaluator: Callable[[ParameterSet], float],
    epsilon: float = 1e-5,
) -> GradientSet:
    """Central-difference gradient estimate, test oracle only (slow)."""
    grads = zeros_like_params(params)
    work = params.copy()
    arrays = list(zip(work.weights, grads.weights)) + list(
        zip(work.biases, grads.biases)
    )
    for arr, out in arrays:
        flat = arr.reshape(-1)
        gout = out.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + epsilon
            lp = loss_evaluator(work)
            flat[j] = orig - epsilon
            lm = loss_evaluator(work)
            flat[j] = orig
            gout[j] = (lp - lm) / (2.0 * epsilon)
    return grads


def max_relative_grad_error(
    analytic: GradientSet, numeric: GradientSet, floor: float = 1e-6
) -> float:
    """max |a - n| / max(|a|, |n|, floor) over every parameter.

    The floor keeps central-difference roundoff (absolute noise around
    1e-11 at epsilon 1e-5) from dominating the ratio on near-zero
    gradient entries.
    """
    worst = 0.0
    for a, n in zip(
        analytic.weights + analytic.biases, numeric.weights + numeric.biases
    ):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        err = np.abs(a - n) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


def save_checkpoint(
    config: MlpConfig, params: ParameterSet, path, extra: dict | None = None
) -> str:
    """Write a JSON checkpoint; returns its content hash.

    Weights are stored flattened row-major per layer. JSON float repr
    round-trips doubles exactly, so load is value-exact.
    """
    payload, digest = checkpoint_payload(config, params, extra)
    with open(path, "w") as f:
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

    A file that is not a checkpoint document raises a ParseError naming it.
    """
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"checkpoint {path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"checkpoint {path}: not a JSON object")
    for key in ("config", "layers"):
        if key not in doc:
            raise ParseError(f"checkpoint {path}: missing {key!r}")
    try:
        return checkpoint_from_document(doc) + (doc,)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"checkpoint {path}: {e}") from e


def checkpoint_from_document(doc: dict) -> tuple[MlpConfig, ParameterSet]:
    config = MlpConfig.from_dict(doc["config"])
    dims = config.layer_dims
    weights, biases = [], []
    for i, layer in enumerate(doc["layers"]):
        d_in, d_out = dims[i], dims[i + 1]
        w = np.asarray(layer["weights"], dtype=np.float64).reshape(d_in, d_out)
        b = np.asarray(layer["biases"], dtype=np.float64)
        weights.append(w)
        biases.append(b)
    return config, ParameterSet(weights, biases)
