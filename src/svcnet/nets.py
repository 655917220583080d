"""Dense feedforward networks with masked squared-error backprop.

All parameters are float64. Training is plain gradient descent by Step:
N networks of one spec, each updated once per step by the summed
gradients of its B input rows. The loss is
L = 1/2 * sum_i mask_i * (out_i - target_i)^2, so masked output units
contribute exactly zero error and zero gradient. forward, backward and
sgd_step are the per-presentation references Step is checked against.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy.special import expit

from .errors import StructuralError
from .fileio import check_shapes, read_arrays, str_list, write_arrays

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


def activate(z, kind, out=None):
    """f(z); in place with out=z."""
    if kind == "sigmoid":
        return expit(z, out=out)
    if kind == "tanh":
        return np.tanh(z, out=out)
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
        acts.append(activate(w @ acts[-1] + b, kind))
    return acts


class RowForward:
    """Stacked forward passes of N networks of one spec, each on B input
    rows, into output buffers allocated once: the pass of a loop of many
    small steps, such as a recurrent loop. Weights are (N, out, in)
    stacks (Step's layout), biases (N, out) or (N, 1, out); one network's
    (out, in) weights and (out,) biases are the N = 1 case.

    Row (n, b) of every layer equals forward(net_n, x[n, b]) bit for bit:
    the product W[..., None, :, :] @ x[..., None] runs one matrix-vector
    product per row, the kernel of W @ x[n, b] (x @ W.T can differ in the
    last bits), and the bias is added elementwise, to the flat buffer
    against the bias tiled B times, which spares the broadcast's overhead
    in a loop of small steps. The weights are read at each call, the
    biases tiled here: build a new RowForward after changing the biases.
    """

    def __init__(self, weights, biases, kinds, n_rows):
        n = biases[0].size // biases[0].shape[-1]  # N bias vectors per layer
        self.outputs = [np.empty((n, n_rows, b.shape[-1])) for b in biases]
        self._cols = [out[..., None] for out in self.outputs]
        self._flat = [out.reshape(-1) for out in self.outputs]
        tiled = [np.repeat(b.reshape(n, 1, -1), n_rows, axis=1).reshape(-1) for b in biases]
        self._layers = list(zip([w[..., None, :, :] for w in weights], tiled, kinds))

    def __call__(self, x):
        """Forward pass of the (N, B, in) rows x, which may be the last
        output buffer (the input is read by the first layer only); returns
        the activations of every layer, input included. The outputs are
        the buffers the next call overwrites."""
        col = x[..., None]
        for layer, (w, b, kind) in enumerate(self._layers):
            np.matmul(w, col, out=self._cols[layer])
            col, flat = self._cols[layer], self._flat[layer]
            flat += b
            activate(flat, kind, out=flat)
        return [x] + self.outputs


def forward_rows(params, x, depth=None):
    """Activations of layers 0 (the input) to `depth` (default: the
    output) for each row of the (B, in) input x: one (B, width) array per
    layer, row b equal to forward(params, x[b]) bit for bit. One pass for
    all rows: each layer is the broadcast W @ x[:, :, None], one
    matrix-vector product per row as in RowForward, with the bias added
    by broadcasting. The layers past `depth` are not read."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.spec.sizes[0]:
        raise StructuralError(f"input has shape {x.shape}, expected (B, {params.spec.sizes[0]})")
    acts = [x]
    layers = zip(params.weights, params.biases, params.spec.activations)
    for w, b, kind in islice(layers, depth):
        z = np.matmul(w, acts[-1][:, :, None])[:, :, 0]
        z += b
        acts.append(activate(z, kind, out=z))
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


def _deriv(a, kind):
    """f'(z) from the activation value a = f(z)."""
    if kind == "sigmoid":
        return (1.0 - a) * a
    if kind == "tanh":
        return 1.0 - a * a
    return 1.0


def grads_from_activations(params, acts, target, mask):
    """Backprop given precomputed activations from forward(): the textbook
    per-presentation formulas, a reference independent of Step."""
    target, mask = _check_target_mask(params, target, mask)
    kinds = params.spec.activations
    grad_w, grad_b = [None] * len(kinds), [None] * len(kinds)
    back = np.where(mask, acts[-1] - target, 0.0)
    for layer in range(len(kinds) - 1, -1, -1):
        delta = back * _deriv(acts[layer + 1], kinds[layer])
        grad_w[layer], grad_b[layer] = np.outer(delta, acts[layer]), delta
        back = params.weights[layer].T @ delta
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


class Step:
    """Forward, masked backprop and SGD update in one in-place step, for N
    networks of one spec, each on B input rows and updated once by its
    rows' summed gradients (not averaged: the learning rate keeps its
    per-presentation scale). At B = 1 each network's step equals
    forward + backward + sgd_step on it bit for bit.

    Parameters are copied into one flat buffer, weights (N, out, in) and
    biases (N, 1, out), the stacks `weights`/`biases`, and each network's
    `weights`/`biases` are rebound to views of them; `grad_w`/`grad_b`
    are views of a second buffer of the same layout, so the update is one
    `flat -= lr * grad`. Activations are (N, B, width); per layer the
    forward pass is `acts @ W.T`, the weight gradient `delta.T @ acts`,
    the bias gradient delta summed over rows.
    Shapes are checked and every buffer is allocated here, once.

    An inactive row contributes nothing: its input and target are never
    read (its input keeps that row's last active one, zeros at first) and
    its delta is zero, so garbage there cannot change the parameters.
    """

    def __init__(self, nets, n_rows, learning_rate):
        spec = nets[0].spec
        shapes = []
        for fan_in, fan_out in zip(spec.sizes[:-1], spec.sizes[1:]):
            shapes += [(fan_out, fan_in), (fan_out,)]
        for net in nets:
            if net.spec != spec:
                raise StructuralError(f"cannot step {net.spec} with {spec}")
            if [p.shape for pair in zip(net.weights, net.biases) for p in pair] != shapes:
                raise StructuralError(f"parameter shapes do not match {spec}")
        n = len(nets)
        shapes = [(n, 1) + s if len(s) == 1 else (n,) + s for s in shapes]
        self.flat = np.empty(sum(int(np.prod(s)) for s in shapes))
        self.grad = np.empty_like(self.flat)
        params = flat_views(self.flat, shapes)
        grads = flat_views(self.grad, shapes)
        self.weights, self.biases = params[0::2], params[1::2]
        self._weights_t = [w.swapaxes(1, 2) for w in self.weights]
        self.grad_w, self.grad_b = grads[0::2], grads[1::2]
        for k, net in enumerate(nets):
            for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
                w[k], b[k, 0] = net.weights[layer], net.biases[layer]
                net.weights[layer], net.biases[layer] = w[k], b[k, 0]
        self._kinds = spec.activations
        self._acts = [np.zeros((n, n_rows, width)) for width in spec.sizes]
        # on one row a layer's delta is its bias gradient
        self._summed = n_rows > 1
        self._deltas = ([np.empty((n, n_rows, width)) for width in spec.sizes[1:]]
                        if self._summed else self.grad_b)
        self._deltas_t = [d.swapaxes(1, 2) for d in self._deltas]
        self._tmp = [np.empty_like(d) for d in self._deltas]
        self.outputs = self._acts[-1]
        self._where = np.empty(self.outputs.shape, dtype=bool)
        self._resid = np.empty_like(self.outputs)
        self._learning_rate = learning_rate

    def forward(self, x, active=None):
        """Stacked forward pass of the (N, B, in) inputs `x`; returns the
        (N, B, out) outputs, a buffer the next call overwrites. Rows whose
        `active` entry (bool, broadcast against (N, B, 1); None for all
        rows) is False are not read."""
        acts = self._acts
        if active is None:
            np.copyto(acts[0], x)
        else:
            np.copyto(acts[0], x, where=active)
        for layer, kind in enumerate(self._kinds):
            out = acts[layer + 1]
            np.matmul(acts[layer], self._weights_t[layer], out=out)
            out += self.biases[layer]
            activate(out, kind, out=out)
        return self.outputs

    def gradients(self, x, target, mask=None, active=None):
        """Fill `grad_w`/`grad_b` with the masked loss's gradients summed
        over the active rows, without updating. `mask` (bool, broadcast
        against the (N, B, out) target; None for all units) selects the
        units that carry error; `active` as in forward(). Returns the
        masked residual (zero in inactive rows), overwritten next call."""
        out = self.forward(x, active)
        if active is not None:
            mask = np.logical_and(active, True if mask is None else mask, out=self._where)
        resid = self._resid
        if mask is None:
            np.subtract(out, target, out=resid)
        else:
            resid.fill(0.0)
            np.subtract(out, target, out=resid, where=mask)
        acts, deltas, kinds, tmp = self._acts, self._deltas, self._kinds, self._tmp
        _times_deriv(resid, out, kinds[-1], tmp[-1], deltas[-1])
        for layer in range(len(deltas) - 1, -1, -1):
            delta = deltas[layer]
            np.matmul(self._deltas_t[layer], acts[layer], out=self.grad_w[layer])
            if self._summed:
                np.add.reduce(delta, axis=1, keepdims=True, out=self.grad_b[layer])
            if layer:
                back = deltas[layer - 1]
                np.matmul(delta, self.weights[layer], out=back)
                _times_deriv(back, acts[layer], kinds[layer - 1], tmp[layer - 1], back)
        return resid

    def __call__(self, x, target, mask=None, active=None):
        """gradients(), then one update of every network."""
        resid = self.gradients(x, target, mask, active)
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
        step = Step([params], 1, 1.0)
        step.gradients(x[None, None], target[None, None], mask)
        analytic = ([g[0] for g in step.grad_w], [g[0, 0] for g in step.grad_b])
        numeric = numerical_gradient(params, x, target, mask, eps)
        worst = max(worst, relative_gradient_error(analytic, numeric))
    return worst


MODEL_FIELDS = {"sizes": str_list, "activations": str_list}  # LayerSpec makes sizes ints


def model_arrays(params):
    """Spec fields and named arrays (w0 b0 w1 b1 ...) of a network, for a model file."""
    arrays = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        arrays[f"w{i}"], arrays[f"b{i}"] = w, b
    return {"sizes": params.spec.sizes, "activations": params.spec.activations}, arrays


def model_from_arrays(fields, arrays):
    """Inverse of model_arrays; StructuralError for a bad spec, array name or shape."""
    spec = LayerSpec(fields["sizes"], fields["activations"])
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(spec.sizes[:-1], spec.sizes[1:])):
        shapes[f"w{i}"], shapes[f"b{i}"] = (fan_out, fan_in), (fan_out,)
    check_shapes(arrays, shapes)
    values = list(arrays.values())  # w0 b0 w1 b1 ..., as checked
    return NetworkParams(spec, values[::2], values[1::2])


def save_model(params, path):
    """Versioned text format; load(save(m)) reproduces parameters exactly."""
    write_arrays(path, "model", *model_arrays(params))


def load_model(path):
    return read_arrays(path, "model", MODEL_FIELDS, model_from_arrays)
