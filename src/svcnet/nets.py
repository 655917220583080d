"""Dense feedforward networks with masked squared-error backprop.

All parameters are float64. A network may have a side layer: a sigmoid
layer h = f(W_side c + b_side) of a second input, the code c, whose
activations join the input of every layer l through that layer's
injection weights U_l. Training is plain gradient descent by Step, the
one backprop of the package: N networks of one spec, each updated once
per step by the summed gradients of its B input rows. The loss is
L = 1/2 * sum_i mask_i * (out_i - target_i)^2, so masked output units
contribute exactly zero error and zero gradient. forward, backward and
sgd_step are the per-presentation references Step is checked against.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import StructuralError
from .fileio import check_shapes, parse_int, read_arrays, str_list, write_arrays

ACTIVATIONS = ("sigmoid", "tanh", "linear")
HALF, ONE = np.array(0.5), np.array(1.0)  # 0-d: cheaper ufunc operands than Python floats


@dataclass(frozen=True)
class LayerSpec:
    """Widths (input first), one activation name per non-input layer and,
    for a network with a side layer, its (code width, side width)."""

    sizes: tuple
    activations: tuple
    side: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        object.__setattr__(self, "side", tuple(int(s) for s in self.side))
        if len(self.side) not in (0, 2) or any(s < 1 for s in self.side):
            raise StructuralError(f"side must be (code width, side width) >= 1, got {self.side}")
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

    def param_shapes(self):
        """Shapes of a network's parameter arrays, in NetworkParams.arrays() order."""
        shapes = [(self.side[1], self.side[0]), (self.side[1],)] if self.side else []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            shapes += [(fan_out, fan_in), (fan_out,)]
            if self.side:
                shapes.append((fan_out, self.side[1]))
        return shapes


@dataclass
class NetworkParams:
    """Weight matrices (fan_out x fan_in) and bias vectors, one per
    non-input layer; with a side layer, also its weights and bias, `side`,
    and one injection matrix (fan_out x side width) per layer."""

    spec: LayerSpec
    weights: list
    biases: list
    side: list = field(default_factory=list)
    injections: list = field(default_factory=list)

    @classmethod
    def from_arrays(cls, spec, arrays):
        """The network whose arrays() are `arrays`."""
        if not spec.side:
            return cls(spec, arrays[0::2], arrays[1::2])
        layers = arrays[2:]
        return cls(spec, layers[0::3], layers[1::3], arrays[:2], layers[2::3])

    def arrays(self):
        """Every parameter array: the side layer's weights and bias, then
        per layer its weights, bias and injection (those the net has)."""
        per_layer = [self.weights, self.biases] + ([self.injections] if self.side else [])
        return self.side + [a for layer in zip(*per_layer) for a in layer]

    def copy(self):
        return NetworkParams.from_arrays(self.spec, [a.copy() for a in self.arrays()])


def init_network(spec, seed):
    """Uniform +-1/sqrt(fan_in) weights and injections, drawn in arrays()
    order, and zero biases; deterministic in seed."""
    rng = np.random.default_rng(seed)
    arrays = []
    for shape in spec.param_shapes():
        bound = 1.0 / np.sqrt(shape[-1])
        arrays.append(np.zeros(shape) if len(shape) == 1 else rng.uniform(-bound, bound, shape))
    return NetworkParams.from_arrays(spec, arrays)


def _activation(z, kind, out):
    """The numpy calls that write f(z) into out, as (function, args)
    pairs: the one definition of each activation, which activate() runs
    and Step plans. out may be z."""
    if kind == "sigmoid":  # (tanh(z * 1/2) + 1) * 1/2
        return ((np.multiply, (z, HALF, out)), (np.tanh, (out, out)),
                (np.add, (out, ONE, out)), (np.multiply, (out, HALF, out)))
    if kind == "tanh":
        return ((np.tanh, (z, out)),)
    return () if out is z else ((np.copyto, (out, z)),)


def activate(z, kind, out=None):
    """f(z) into out, a new array by default; in place with out=z."""
    out = np.empty(np.shape(z)) if out is None else out
    for function, args in _activation(z, kind, out):
        function(*args)
    return out


def sigmoid(z, out=None):
    """The logistic function as (tanh(z * 1/2) + 1) * 1/2, in four
    in-place ufunc calls; in place with out=z. tanh saturates to exactly
    -1 or 1 without overflowing, so no input warns: +-inf and any large
    z give exactly 0.0 or 1.0, and NaN gives NaN."""
    return activate(z, "sigmoid", out)


def forward(params, x, code=None):
    """Return the activation vector of every layer, input included; a net
    with a side layer also takes its `code`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.spec.sizes[0],):
        raise StructuralError(
            f"input has shape {x.shape}, expected ({params.spec.sizes[0]},)"
        )
    acts = [x]
    if params.side:
        h = params.side[0] @ code + params.side[1]
        activate(h, "sigmoid", out=h)
    for layer, (w, b, kind) in enumerate(zip(params.weights, params.biases,
                                             params.spec.activations)):
        z = w @ acts[-1] + b
        if params.side:
            z += params.injections[layer] @ h
        acts.append(activate(z, kind, out=z))
    return acts


def forward_rows(params, x, depth=None):
    """Activations of layers 0 (the input) to `depth` (default: the
    output) for each row of the (B, in) input x: one (B, width) array per
    layer, row b equal to forward(params, x[b]) bit for bit. One pass for
    all rows: each layer is the broadcast W @ x[..., None], one
    matrix-vector product per row, the kernel of W @ x[b] (x @ W.T can
    differ in the last bits), with the bias added by broadcasting. The
    layers past `depth` are not read. N networks of one spec stacked as
    Step keeps them, (N, out, in) weights and (N, 1, out) biases, run on
    (N, B, in) rows: row (n, b) of every layer is network n's."""
    x = np.asarray(x, dtype=float)
    if x.ndim != max(2, params.weights[0].ndim) or x.shape[-1] != params.spec.sizes[0]:
        raise StructuralError(f"input has shape {x.shape}, expected (B, {params.spec.sizes[0]})")
    acts = [x]
    layers = zip(params.weights, params.biases, params.spec.activations)
    for w, b, kind in islice(layers, depth):
        z = np.matmul(w[..., None, :, :], acts[-1][..., None])[..., 0]
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


def masked_loss(params, x, target, mask, code=None):
    target, mask = _check_target_mask(params, target, mask)
    out = forward(params, x, code)[-1]
    resid = np.where(mask, out - target, 0.0)
    return 0.5 * float(resid @ resid)


def _times_deriv(v, a, kind, tmp, out):
    """The numpy calls that write v * f'(a) into out, f'(a) formed first
    in tmp from the activation value a, as (function, args) pairs. out may
    be v."""
    if kind == "sigmoid":
        return ((np.subtract, (ONE, a, tmp)), (np.multiply, (tmp, a, tmp)),
                (np.multiply, (v, tmp, out)))
    if kind == "tanh":
        return ((np.multiply, (a, a, tmp)), (np.subtract, (ONE, tmp, tmp)),
                (np.multiply, (v, tmp, out)))
    return () if out is v else ((np.copyto, (out, v)),)


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
    """In-place p <- p - lr * g for backward()'s (grad_w, grad_b); returns params."""
    grad_w, grad_b = grads
    if len(grad_w) != len(params.weights) or len(grad_b) != len(params.biases):
        raise StructuralError("gradient layer count does not match params")
    for p, g in zip(params.weights + params.biases, list(grad_w) + list(grad_b)):
        if p.shape != g.shape:
            raise StructuralError(f"gradient shape {g.shape} != parameter {p.shape}")
        p -= learning_rate * g
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

    Parameters are copied into one flat buffer in arrays() order, each
    array stacked over the networks: `weights` (N, out, in), `biases`
    (N, 1, out), `side` and `injections`; each network's arrays are
    rebound to views of them. `grad` has the same layout, so the update is
    one `flat -= lr * grad`. Activations are (N, B, width). Per layer the
    forward pass is `acts @ W.T + b` (+ `h @ U.T`), each weight gradient
    `delta.T @ input`, each bias gradient delta summed over rows. The side
    layer's delta is (delta_0 @ U_0 + delta_1 @ U_1 + ...) * f'(h).

    Shapes are checked, every buffer is allocated and the forward pass,
    the backprop and the update are planned here, once: each is a tuple of
    (numpy function, args) calls over the buffers, with every activation
    and derivative written as _activation and _times_deriv define it. A
    call copies in its inputs and the residual, then runs the plans. With
    one network every array, inputs and outputs included, is a view
    without the N axis, and each product is the 2-D np.dot: it has
    matmul's bits on every product a Step forms (a test pins it) and
    costs less to dispatch. N stacked networks take the batched matmul.

    An inactive row contributes nothing: its input, code and target are
    never read (its input keeps that row's last active one, zeros at
    first) and its delta is zero, so garbage there cannot change the
    parameters.
    """

    def __init__(self, nets, n_rows, learning_rate):
        spec = nets[0].spec
        shapes = spec.param_shapes()
        for net in nets:
            if net.spec != spec:
                raise StructuralError(f"cannot step {net.spec} with {spec}")
            if [a.shape for a in net.arrays()] != shapes:
                raise StructuralError(f"parameter shapes do not match {spec}")
        n = len(nets)
        stacked = [(n, 1) + s if len(s) == 1 else (n,) + s for s in shapes]
        self.flat = np.empty(sum(int(np.prod(s)) for s in stacked))
        self.grad = np.empty_like(self.flat)
        stacks = flat_views(self.flat, stacked)
        for k, net in enumerate(nets):
            views = [stack[k].reshape(shape) for stack, shape in zip(stacks, shapes)]
            for view, a in zip(views, net.arrays()):
                view[...] = a
            bound = NetworkParams.from_arrays(spec, views)
            net.weights, net.biases = bound.weights, bound.biases
            net.side, net.injections = bound.side, bound.injections
        lead = 0 if n == 1 else ...  # one network: views without the network axis
        params, grads = (NetworkParams.from_arrays(spec, [a[lead] for a in flat_views(f, stacked)])
                         for f in (self.flat, self.grad))
        self.weights, self.biases = params.weights, params.biases
        self.side, self.injections = params.side, params.injections
        self.grad_w, self.grad_b = grads.weights, grads.biases
        rows = (n_rows,) if n == 1 else (n, n_rows)
        acts = [np.zeros(rows + (width,)) for width in spec.sizes]
        self._input, self.outputs = acts[0], acts[-1]
        self._where = np.empty(self.outputs.shape, dtype=bool)
        self._resid = np.empty_like(self.outputs)
        # on one row a layer's delta is its bias gradient
        summed = n_rows > 1
        deltas = [np.empty(rows + (width,)) for width in spec.sizes[1:]] if summed else self.grad_b
        tmp = [np.empty_like(d) for d in deltas]
        kinds = spec.activations
        product = np.dot if n == 1 else np.matmul

        forward = []
        if spec.side:
            self._code = np.zeros(rows + (spec.side[0],))
            h = np.empty(rows + (spec.side[1],))
            forward += [(product, (self._code, self.side[0].swapaxes(-1, -2), h)),
                        (np.add, (h, self.side[1], h)), *_activation(h, "sigmoid", h)]
        for layer, kind in enumerate(kinds):
            out = acts[layer + 1]
            forward += [(product, (acts[layer], self.weights[layer].swapaxes(-1, -2), out)),
                        (np.add, (out, self.biases[layer], out))]
            if spec.side:
                u_t = self.injections[layer].swapaxes(-1, -2)
                forward += [(product, (h, u_t, tmp[layer])), (np.add, (out, tmp[layer], out))]
            forward += _activation(out, kind, out)

        backward = list(_times_deriv(self._resid, self.outputs, kinds[-1], tmp[-1], deltas[-1]))
        for layer in range(len(deltas) - 1, 0, -1):
            back = deltas[layer - 1]
            backward.append((product, (deltas[layer], self.weights[layer], back)))
            backward += _times_deriv(back, acts[layer], kinds[layer - 1], tmp[layer - 1], back)
        # weight gradients as (delta.T, input, out) and bias ones as (delta, out)
        deltas_t = [d.swapaxes(-1, -2) for d in deltas]
        products = list(zip(deltas_t, acts, self.grad_w))
        sums = list(zip(deltas, self.grad_b)) if summed else []
        if spec.side:
            delta = np.empty_like(h) if summed else grads.side[1]
            side_tmp = np.empty_like(h)
            backward.append((product, (deltas[0], self.injections[0], delta)))
            for layer_delta, u in zip(deltas[1:], self.injections[1:]):
                backward += [(product, (layer_delta, u, side_tmp)),
                             (np.add, (delta, side_tmp, delta))]
            backward += _times_deriv(delta, h, "sigmoid", side_tmp, delta)
            products += [(d, h, g) for d, g in zip(deltas_t, grads.injections)]
            products.append((delta.swapaxes(-1, -2), self._code, grads.side[0]))
            sums += [(delta, grads.side[1])] if summed else []
        backward += [(product, args) for args in products]
        backward += [(np.add.reduce, (d, -2, None, g, True)) for d, g in sums]

        self._forward, self._backward = tuple(forward), tuple(backward)
        self._update = ((np.multiply, (self.grad, learning_rate, self.grad)),
                        (np.subtract, (self.flat, self.grad, self.flat)))

    def forward(self, x, active=None, code=None):
        """Stacked forward pass of the (N, B, in) inputs `x`, and with a
        side layer of the (N, B, code width) `code`; returns the
        (N, B, out) outputs, a buffer the next call overwrites. Rows whose
        `active` entry (bool, broadcast against (N, B, 1); None for all
        rows) is False are not read. One network's shapes drop the N."""
        where = {} if active is None else {"where": active}
        np.copyto(self._input, x, **where)
        if self.side:
            np.copyto(self._code, code, **where)
        for function, args in self._forward:
            function(*args)
        return self.outputs

    def gradients(self, x, target, mask=None, active=None, code=None):
        """Fill `grad` with the masked loss's gradients summed over the
        active rows, without updating. `mask` (bool, broadcast against the
        (N, B, out) target; None for all units) selects the units that
        carry error; `active` and `code` as in forward(). Returns the
        masked residual (zero in inactive rows), overwritten next call."""
        out = self.forward(x, active, code)
        if active is not None:
            mask = np.logical_and(active, True if mask is None else mask, out=self._where)
        resid = self._resid
        if mask is None:
            np.subtract(out, target, resid)
        else:
            resid.fill(0.0)
            np.subtract(out, target, out=resid, where=mask)
        for function, args in self._backward:
            function(*args)
        return resid

    def __call__(self, x, target, mask=None, active=None, code=None):
        """gradients(), then one update of every network."""
        resid = self.gradients(x, target, mask, active, code)
        for function, args in self._update:
            function(*args)
        return resid


def numerical_gradient(params, x, target, mask, eps=1e-6, code=None):
    """Central-difference gradients of the same masked loss, one array per
    parameter array in arrays() order; test oracle."""
    if eps <= 0:
        raise StructuralError("eps must be > 0")
    grads = [np.zeros_like(a) for a in params.arrays()]
    for arr, g in zip(params.arrays(), grads):
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = masked_loss(params, x, target, mask, code)
            flat[i] = orig - eps
            lo = masked_loss(params, x, target, mask, code)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
    return grads


def relative_gradient_error(analytic, numeric, floor=1e-8):
    """Relative disagreement between two gradient sets, each a sequence of
    arrays in one order: norm of the difference over the larger norm,
    floored at `floor` so the all-masked (all-zero) case compares clean."""
    ga, gn = (np.concatenate([np.ravel(a) for a in grads]) for grads in (analytic, numeric))
    denom = max(np.linalg.norm(ga), np.linalg.norm(gn), floor)
    return float(np.linalg.norm(ga - gn) / denom)


def gradient_check_battery(n_networks=100, seed=0, eps=1e-6):
    """Compare Step's gradients against central differences over random
    small networks, about half of them with a side layer, with random
    masks; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_networks):
        n_layers = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
        acts = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
        side = tuple(int(w) for w in rng.integers(1, 5, 2)) if rng.random() < 0.5 else ()
        params = init_network(LayerSpec(sizes, acts, side), int(rng.integers(0, 2**31)))
        x = rng.normal(0, 1, sizes[0])
        target = rng.normal(0, 1, sizes[-1])
        mask = rng.random(sizes[-1]) < 0.7
        code = rng.normal(0, 1, side[0]) if side else None
        step = Step([params], 1, 1.0)
        step.gradients(x[None], target[None], mask, code=code)
        numeric = numerical_gradient(params, x, target, mask, eps, code)
        worst = max(worst, relative_gradient_error([step.grad], numeric))
    return worst


MODEL_FIELDS = {"sizes": lambda text: tuple(map(parse_int, str_list(text))),
                "activations": str_list}


def _model_names(spec):
    return [f"{kind}{i}" for i in range(len(spec.activations)) for kind in "wb"]


def model_arrays(params):
    """Spec fields and named arrays (w0 b0 w1 b1 ...) of a network, for a model file."""
    fields = {"sizes": params.spec.sizes, "activations": params.spec.activations}
    return fields, dict(zip(_model_names(params.spec), params.arrays()))


def model_from_arrays(fields, arrays):
    """Inverse of model_arrays; StructuralError for a bad spec, array name or shape."""
    spec = LayerSpec(fields["sizes"], fields["activations"])
    check_shapes(arrays, dict(zip(_model_names(spec), spec.param_shapes())))
    return NetworkParams.from_arrays(spec, list(arrays.values()))  # in arrays() order, as checked


def save_model(params, path):
    """Versioned text format; load(save(m)) reproduces parameters exactly."""
    write_arrays(path, "model", *model_arrays(params))


def load_model(path):
    return read_arrays(path, "model", MODEL_FIELDS, model_from_arrays)
