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


def _times_deriv(v, a, kind, tmp, out):
    """out = v * f'(a), with f'(a) formed first from the activation value."""
    if kind == "sigmoid":
        np.subtract(1.0, a, out=tmp)
        tmp *= a
    elif kind == "tanh":
        np.multiply(a, a, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
    else:
        if out is not v:
            np.copyto(out, v)
        return
    np.multiply(v, tmp, out=out)


def _backprop(weights_t, act_rows, act_cols, kinds, delta_cols, grad_w, tmp):
    """The one backprop loop. On entry delta_cols[-1] holds the output
    delta; fills the other deltas (the bias gradients) and grad_w. Every
    array is a column (n, 1), a row (1, n) or a matrix, optionally under a
    leading stack axis, and results are written into the given arrays."""
    for layer in range(len(grad_w) - 1, -1, -1):
        delta = delta_cols[layer]
        np.multiply(delta, act_rows[layer], out=grad_w[layer])
        if layer:
            back = delta_cols[layer - 1]
            np.matmul(weights_t[layer], delta, out=back)
            _times_deriv(back, act_cols[layer], kinds[layer - 1], tmp[layer], back)


def grads_from_activations(params, acts, target, mask):
    """Backprop given precomputed activations from forward()."""
    target, mask = _check_target_mask(params, target, mask)
    resid = np.where(mask, acts[-1] - target, 0.0)
    kinds = params.spec.activations
    grad_w = [np.empty_like(w) for w in params.weights]
    grad_b = [np.empty_like(b) for b in params.biases]
    cols = [a[:, None] for a in acts]
    tmp = [np.empty_like(c) for c in cols]
    _times_deriv(resid, acts[-1], kinds[-1], tmp[-1][:, 0], grad_b[-1])
    _backprop(
        [w.T for w in params.weights], [a[None, :] for a in acts], cols, kinds,
        [b[:, None] for b in grad_b], grad_w, tmp,
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


def flat_views(flat, shapes):
    """Consecutive views of the 1-D buffer `flat`, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class FusedStep:
    """Forward, masked backprop and SGD update in one in-place step, for S
    networks of one spec trained side by side (S = 1 for a single net).

    The constructor copies the networks' parameters into one flat buffer
    and rebinds every `weights`/`biases` entry of each network to a view of
    it, so the networks see each update. Gradients live in a second flat
    buffer of the same layout, and one step updates all of them with a
    single `flat -= lr * grad`. Shapes are checked here, once; a step
    checks nothing. Arithmetic matches forward + grads_from_activations +
    sgd_step on each network bit for bit: the stacked (S, out, in) matmuls
    and products equal their per-network slices exactly.
    """

    def __init__(self, nets, learning_rate):
        spec = nets[0].spec
        for net in nets:
            if net.spec != spec:
                raise StructuralError(f"cannot step {net.spec} with {spec}")
            for w, b, fan_in, fan_out in zip(
                net.weights, net.biases, spec.sizes[:-1], spec.sizes[1:]
            ):
                if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
                    raise StructuralError(f"parameter shapes do not match {spec}")
        n = len(nets)
        shapes = []
        for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
            shapes += [(n, fan_out, fan_in), (n, fan_out, 1)]
        self.flat = np.empty(sum(int(np.prod(s)) for s in shapes))
        self.grad = np.empty_like(self.flat)
        params = flat_views(self.flat, shapes)
        grads = flat_views(self.grad, shapes)
        self._weights, self._bias_cols = params[0::2], params[1::2]
        self._weights_t = [w.swapaxes(1, 2) for w in self._weights]
        self._grad_w, self._delta_cols = grads[0::2], grads[1::2]
        for s, net in enumerate(nets):
            for layer, (w, b) in enumerate(zip(self._weights, self._bias_cols)):
                w[s] = net.weights[layer]
                b[s, :, 0] = net.biases[layer]
                net.weights[layer] = w[s]
                net.biases[layer] = b[s, :, 0]
        self._kinds = spec.activations
        self._cols = [np.empty((n, width, 1)) for width in spec.sizes]
        self._rows = [c.swapaxes(1, 2) for c in self._cols]
        self._tmp = [np.empty_like(c) for c in self._cols]
        self.inputs = self._cols[0][:, :, 0]
        self.outputs = self._cols[-1][:, :, 0]
        self._resid = np.empty_like(self.outputs)
        self._out_tmp = self._tmp[-1][:, :, 0]
        self._out_delta = self._delta_cols[-1][:, :, 0]
        self._learning_rate = learning_rate

    def forward(self, x):
        """Stacked forward pass of (S, in) inputs; returns the (S, out)
        outputs, a buffer the next call overwrites."""
        np.copyto(self.inputs, x)
        cols = self._cols
        for layer, kind in enumerate(self._kinds):
            out = cols[layer + 1]
            np.matmul(self._weights[layer], cols[layer], out=out)
            out += self._bias_cols[layer]
            if kind == "sigmoid":
                expit(out, out=out)
            elif kind == "tanh":
                np.tanh(out, out=out)
        return self.outputs

    def __call__(self, x, target, mask=None):
        """One SGD step on (S, in) inputs and (S, out) targets; `mask`
        (broadcast against the targets, None for all units) selects the
        output units that carry error. Returns the masked residual, a
        buffer the next call overwrites."""
        out = self.forward(x)
        resid = self._resid
        if mask is None:
            np.subtract(out, target, out=resid)
        else:
            resid.fill(0.0)
            np.subtract(out, target, out=resid, where=mask)
        _times_deriv(resid, out, self._kinds[-1], self._out_tmp, self._out_delta)
        _backprop(
            self._weights_t, self._rows, self._cols, self._kinds,
            self._delta_cols, self._grad_w, self._tmp,
        )
        np.multiply(self.grad, self._learning_rate, out=self.grad)
        self.flat -= self.grad
        return resid


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
