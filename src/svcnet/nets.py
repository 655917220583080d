"""Dense feedforward networks with masked squared-error backprop.

All parameters are float64. Training is plain per-presentation gradient
descent; the loss is L = 1/2 * sum_i mask_i * (out_i - target_i)^2, so
masked output units contribute exactly zero error and zero gradient.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import StructuralError
from .fileio import atomic_write_text, fmt_float

ACTIVATIONS = ("sigmoid", "tanh", "linear")


@dataclass(frozen=True)
class LayerSpec:
    """Widths (input first) and one activation name per non-input layer."""

    sizes: tuple
    activations: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.sizes) < 2:
            raise StructuralError(f"need at least 2 layers, got sizes {self.sizes}")
        if any(s < 1 for s in self.sizes):
            raise StructuralError(f"layer widths must be >= 1, got {self.sizes}")
        if len(self.activations) != len(self.sizes) - 1:
            raise StructuralError(
                f"need {len(self.sizes) - 1} activations, got {len(self.activations)}"
            )
        for a in self.activations:
            if a not in ACTIVATIONS:
                raise StructuralError(f"unknown activation {a!r}")

    @property
    def n_layers(self):
        return len(self.sizes)


@dataclass
class NetworkParams:
    """Weight matrices (fan_out x fan_in) and bias vectors, one per non-input layer."""

    spec: LayerSpec
    weights: list
    biases: list

    def copy(self):
        return NetworkParams(
            self.spec,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


@dataclass
class TrainConfig:
    learning_rate: float = 0.2
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise StructuralError("learning_rate must be > 0")
        if self.epochs < 0:
            raise StructuralError("epochs must be >= 0")


def init_network(spec, seed):
    """Uniform +-1/sqrt(fan_in) weights, zero biases, deterministic in seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkParams(spec, weights, biases)


def _activate(z, kind):
    if kind == "sigmoid":
        return expit(z)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activation_deriv(a, kind):
    # derivative expressed in terms of the activation value
    if kind == "sigmoid":
        return a * (1.0 - a)
    if kind == "tanh":
        return 1.0 - a * a
    return np.ones_like(a)


def forward(params, x):
    """Return the activation vector of every layer, input included."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.spec.sizes[0],):
        raise StructuralError(
            f"input has shape {x.shape}, expected ({params.spec.sizes[0]},)"
        )
    acts = [x]
    for w, b, kind in zip(params.weights, params.biases, params.spec.activations):
        acts.append(_activate(w @ acts[-1] + b, kind))
    return acts


def _check_target_mask(params, target, mask):
    out_width = params.spec.sizes[-1]
    target = np.asarray(target, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if target.shape != (out_width,):
        raise StructuralError(f"target shape {target.shape} != ({out_width},)")
    if mask.shape != (out_width,):
        raise StructuralError(f"mask shape {mask.shape} != ({out_width},)")
    return target, mask


def masked_loss(params, x, target, mask):
    target, mask = _check_target_mask(params, target, mask)
    out = forward(params, x)[-1]
    resid = np.where(mask, out - target, 0.0)
    return 0.5 * float(resid @ resid)


def grads_from_activations(params, acts, target, mask):
    """Backprop given precomputed activations from forward()."""
    target, mask = _check_target_mask(params, target, mask)
    resid = np.where(mask, acts[-1] - target, 0.0)
    delta = resid * _activation_deriv(acts[-1], params.spec.activations[-1])
    n = len(params.weights)
    grad_w = [None] * n
    grad_b = [None] * n
    for layer in range(n - 1, -1, -1):
        grad_w[layer] = np.outer(delta, acts[layer])
        grad_b[layer] = delta
        if layer > 0:
            delta = (params.weights[layer].T @ delta) * _activation_deriv(
                acts[layer], params.spec.activations[layer - 1]
            )
    return grad_w, grad_b


def backward(params, x, target, mask):
    """Gradients of the masked squared-error loss w.r.t. all weights and biases."""
    return grads_from_activations(params, forward(params, x), target, mask)


def sgd_step(params, grads, learning_rate):
    """In-place p <- p - lr * g for every parameter; returns params."""
    grad_w, grad_b = grads
    if len(grad_w) != len(params.weights) or len(grad_b) != len(params.biases):
        raise StructuralError("gradient layer count does not match params")
    for w, gw in zip(params.weights, grad_w):
        if w.shape != gw.shape:
            raise StructuralError(f"gradient shape {gw.shape} != weight {w.shape}")
        w -= learning_rate * gw
    for b, gb in zip(params.biases, grad_b):
        if b.shape != gb.shape:
            raise StructuralError(f"gradient shape {gb.shape} != bias {b.shape}")
        b -= learning_rate * gb
    return params


def numerical_gradient(params, x, target, mask, eps=1e-6):
    """Central-difference gradients of the same masked loss; test oracle."""
    if eps <= 0:
        raise StructuralError("eps must be > 0")
    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    for arrs, grads in ((params.weights, grad_w), (params.biases, grad_b)):
        for arr, g in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = masked_loss(params, x, target, mask)
                flat[i] = orig - eps
                lo = masked_loss(params, x, target, mask)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2.0 * eps)
    return grad_w, grad_b


def relative_gradient_error(analytic, numeric, floor=1e-8):
    """Relative disagreement between two gradient sets: norm of the
    difference over the larger norm, floored at `floor` so the all-masked
    (all-zero) case compares clean."""
    ga = np.concatenate([a.reshape(-1) for a in analytic[0] + analytic[1]])
    gn = np.concatenate([a.reshape(-1) for a in numeric[0] + numeric[1]])
    denom = max(np.linalg.norm(ga), np.linalg.norm(gn), floor)
    return float(np.linalg.norm(ga - gn) / denom)


def gradient_check_battery(n_networks=100, seed=0, eps=1e-6):
    """Compare backprop against central differences over random small
    networks with random masks; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_networks):
        n_layers = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
        acts = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
        params = init_network(LayerSpec(sizes, acts), int(rng.integers(0, 2**31)))
        x = rng.normal(0, 1, sizes[0])
        target = rng.normal(0, 1, sizes[-1])
        mask = rng.random(sizes[-1]) < 0.7
        analytic = backward(params, x, target, mask)
        numeric = numerical_gradient(params, x, target, mask, eps)
        worst = max(worst, relative_gradient_error(analytic, numeric))
    return worst


def save_model(params, path):
    """Versioned text format; load(save(m)) reproduces parameters exactly."""
    lines = ["svcnet-model v1"]
    lines.append(
        "layers "
        + ",".join(str(s) for s in params.spec.sizes)
        + " "
        + ",".join(params.spec.activations)
    )
    for w, b in zip(params.weights, params.biases):
        for row in w:
            lines.append(" ".join(fmt_float(v) for v in row))
        lines.append(" ".join(fmt_float(v) for v in b))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or lines[0] != "svcnet-model v1":
        raise StructuralError(f"{path}: not an svcnet-model v1 file")
    spec_line = lines[1] if len(lines) > 1 else ""
    parts = spec_line.split()
    if len(parts) != 3 or parts[0] != "layers":
        raise StructuralError(f"{path}: malformed spec line {spec_line!r}")
    sizes = tuple(int(s) for s in parts[1].split(","))
    activations = tuple(parts[2].split(","))
    spec = LayerSpec(sizes, activations)
    needed = 2 + sum(n + 1 for n in sizes[1:])
    if len(lines) < needed:
        raise StructuralError(f"{path}: {len(lines)} lines, layers {parts[1]} need {needed}")
    weights, biases = [], []
    pos = 2
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        rows = []
        for _ in range(fan_out):
            rows.append([float(v) for v in lines[pos].split()])
            pos += 1
        w = np.array(rows, dtype=float)
        b = np.array([float(v) for v in lines[pos].split()], dtype=float)
        pos += 1
        if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
            raise StructuralError(f"{path}: parameter block shape mismatch")
        weights.append(w)
        biases.append(b)
    params = NetworkParams(spec, weights, biases)
    for w in weights + biases:
        if not np.all(np.isfinite(w)):
            raise StructuralError(f"{path}: non-finite parameter value")
    return params
