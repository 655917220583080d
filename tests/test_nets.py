import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svcnet
from svcnet.config import RunConfig
from svcnet.corpus import SoundId
from svcnet.errors import StructuralError
from svcnet.nets import (
    ACTIVATIONS,
    LayerSpec,
    NetworkParams,
    backward,
    forward,
    forward_rows,
    gradient_check_battery,
    init_network,
    load_model,
    masked_loss,
    numerical_gradient,
    relative_gradient_error,
    Step,
    flat_views,
    grads_from_activations,
    save_model,
    sgd_step,
    sigmoid,
)
from svcnet.recognizer import recognizer_spec
from svcnet.svc import SoundLayout, build_svcnet


def spec(sizes, acts=None):
    return LayerSpec(tuple(sizes), tuple(acts or ["sigmoid"] * (len(sizes) - 1)))


def in_order(grads):
    """(grad_w, grad_b) as one list in NetworkParams.arrays() order."""
    return [g for layer in zip(*grads) for g in layer]


def step_rows(n_nets, *arrays):
    """(N, B, width) arrays as a Step of N networks takes them: one
    network's step drops the network axis."""
    return [a[0] if n_nets == 1 else a for a in arrays]


def network_grads(step, net_spec, n_nets):
    """Each network's gradient arrays in arrays() order, read from the
    step's flat gradient buffer."""
    stacks = flat_views(step.grad, [(n_nets, *s) for s in net_spec.param_shapes()])
    return [[g[k] for g in stacks] for k in range(n_nets)]


class TestLayerSpec:
    def test_too_few_layers(self):
        with pytest.raises(StructuralError):
            spec([3])

    def test_zero_width(self):
        with pytest.raises(StructuralError):
            spec([3, 0, 3])

    def test_activation_count(self):
        with pytest.raises(StructuralError):
            LayerSpec((2, 3), ("sigmoid", "sigmoid"))

    def test_unknown_activation(self):
        with pytest.raises(StructuralError):
            LayerSpec((2, 3), ("relu",))


class TestInit:
    def test_shapes_and_bound(self):
        p = init_network(spec([2, 3, 2]), seed=42)
        assert p.weights[0].shape == (3, 2)
        assert p.weights[1].shape == (2, 3)
        assert p.biases[0].shape == (3,)
        assert p.biases[1].shape == (2,)
        assert np.all(np.abs(p.weights[0]) <= 1 / np.sqrt(2))
        assert np.all(np.abs(p.weights[1]) <= 1 / np.sqrt(3))
        assert np.all(p.biases[0] == 0) and np.all(p.biases[1] == 0)

    def test_deterministic(self):
        a = init_network(spec([4, 2, 4]), seed=7)
        b = init_network(spec([4, 2, 4]), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weight_mean_near_zero(self):
        # sampling check over the uniform law
        means = [
            init_network(spec([4, 2, 4]), seed=s).weights[0].mean()
            for s in range(1000)
        ]
        assert abs(np.mean(means)) < 0.02


class TestForward:
    def test_zero_params_sigmoid(self):
        p = init_network(spec([3, 2, 3]), seed=0)
        for w in p.weights:
            w[:] = 0.0
        acts = forward(p, np.array([1.0, -2.0, 0.5]))
        assert np.all(acts[1] == 0.5) and np.all(acts[2] == 0.5)

    def test_identity_linear(self):
        p = init_network(LayerSpec((3, 3), ("linear",)), seed=0)
        p.weights[0][:] = np.eye(3)
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(forward(p, x)[-1], x)

    def test_hand_computed_chain(self):
        # independent hand computation of a 2-3-2 sigmoid net
        p = init_network(spec([2, 3, 2]), seed=5)
        x = np.array([0.4, -0.7])
        h_pre = p.weights[0] @ x + p.biases[0]
        h = 1.0 / (1.0 + np.exp(-h_pre))
        o_pre = p.weights[1] @ h + p.biases[1]
        o = 1.0 / (1.0 + np.exp(-o_pre))
        acts = forward(p, x)
        np.testing.assert_allclose(acts[1], h, rtol=1e-12)
        np.testing.assert_allclose(acts[2], o, rtol=1e-12)

    def test_length_mismatch(self):
        p = init_network(spec([2, 2]), seed=0)
        with pytest.raises(StructuralError):
            forward(p, np.zeros(3))


class TestSigmoid:
    """nets.sigmoid, (tanh(z/2) + 1)/2, is the package's one logistic
    function, and numpy alone computes it."""

    def test_close_to_exp_form(self):
        z = np.linspace(-40.0, 40.0, 160001)
        assert np.abs(sigmoid(z) - 1.0 / (1.0 + np.exp(-z))).max() <= 2.3e-16

    def test_zero_is_one_half(self):
        assert sigmoid(0) == 0.5 and sigmoid(np.zeros(3)).tolist() == [0.5] * 3

    def test_saturates_without_warning(self):
        with np.errstate(all="raise"):
            out = sigmoid(np.array([1e308, np.inf, -1e308, -np.inf, np.nan]))
        assert out[:4].tolist() == [1.0, 1.0, 0.0, 0.0] and np.isnan(out[4])

    def test_in_place(self):
        z = np.array([-3.0, 0.25, 7.0])
        expected = sigmoid(z)
        assert sigmoid(z, out=z) is z and np.array_equal(z, expected)

    def test_same_bits_in_any_layout(self):
        """Rows, columns, Fortran-ordered and strided arrays get the bits of
        the same values as a contiguous vector, so every batched pass keeps
        forward()'s."""
        z = np.random.default_rng(2).normal(0, 8, (61, 60))
        by_value = lambda a: np.array([sigmoid(v) for v in a.ravel().tolist()])  # noqa: E731
        for view in (z, z.T, np.asfortranarray(z), z[::3, 1::2], z[:, 7]):
            assert np.array_equal(sigmoid(view).ravel(), by_value(view))

    @pytest.mark.parametrize("case", [str(RunConfig().svc_flank), "0", "rec0", "rec2", "specs"])
    def test_vector_dot_equals_matmul(self, case):
        """np.dot has matmul's bits on every product it forms here: the
        one-stream feedback loop's 1-D np.dot(W, x, out), forward()'s
        W @ x, on every layer, and each forward, back and weight-gradient
        product of a one-network Step, which runs them as 2-D np.dot. The
        nets: the default completion net and its flank 0 form on 14 rows,
        the recognizer, side layer and injections included, at rec_window
        0 and 2 on 16 rows, and random gradcheck-sized specs on one row.
        A BLAS on which the two differ fails here by name."""
        cfg = RunConfig()
        if case.isdigit():
            sounds = [SoundId(f"p{p:02d}", s) for p in range(cfg.n_words)
                      for s in range(cfg.states_per_phone)]
            layout = SoundLayout.from_sounds(sounds, cfg.ppc_dim)
            cases, draws = [(build_svcnet(layout, cfg.svc_dim, int(case), 1).net.spec, 14)], 50
        elif case.startswith("rec"):
            words = [f"w{i:02d}" for i in range(cfg.n_words)]
            cases = [(recognizer_spec(words, cfg.feature_dim, cfg.svc_dim, int(case[3:]),
                                      cfg.rec_acoustic_units, cfg.rec_state_units), 16)]
            draws = 50
        else:
            spec_rng = np.random.default_rng(7)
            cases, draws = [], 5
            for _ in range(40):
                n_layers = int(spec_rng.integers(2, 5))
                side = tuple(int(w) for w in spec_rng.integers(1, 5, 2)) if len(cases) % 2 else ()
                cases.append((LayerSpec(tuple(int(w) for w in spec_rng.integers(1, 9, n_layers)),
                                        ("sigmoid",) * (n_layers - 1), side), 1))
        rng = np.random.default_rng(0)
        for net_spec, n_rows in cases:
            params = init_network(net_spec, 1)
            for layer in params.weights:
                for _ in range(4 * draws):
                    w = rng.normal(0, 1, layer.shape)
                    x, out = rng.random(w.shape[1]), np.empty(w.shape[0])
                    np.dot(w, x, out)
                    assert np.array_equal(out, w @ x), w.shape
            step = Step([params], n_rows, 0.0)
            products = [args for f, args in step._forward + step._backward if f is np.dot]
            n_layers = len(net_spec.activations)
            assert len(products) == (6 * n_layers + 1 if net_spec.side else 3 * n_layers - 1)
            for a, b, out in products:
                for _ in range(draws):
                    a[...], b[...] = rng.normal(0, 1, a.shape), rng.normal(0, 1, b.shape)
                    np.dot(a, b, out)
                    assert out.tobytes() == np.matmul(a, b).tobytes(), (a.shape, b.shape)

    def test_package_imports_no_scipy(self):
        code = ("import sys, svcnet.cli, svcnet.pipeline, svcnet.quality; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(svcnet.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestForwardRows:
    """The stacked forward equals forward() row by row, exactly: any
    difference in the last bits would change saved codes and reports."""

    def test_equals_forward_per_row(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n_layers = int(rng.integers(2, 6))
            sizes = [int(rng.integers(1, 70)) for _ in range(n_layers)]
            acts = [str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1)]
            p = init_network(LayerSpec(tuple(sizes), tuple(acts)), int(rng.integers(1 << 30)))
            for b in p.biases:
                b[:] = rng.normal(0, 1, b.shape)
            x = rng.normal(0, 2, (int(rng.choice([1, 2, 7, 60, 241])), sizes[0]))
            rows = forward_rows(p, x)
            assert [a.shape for a in rows] == [(len(x), w) for w in sizes]
            for n in range(len(x)):
                for batched, single in zip(rows, forward(p, x[n])):
                    assert np.array_equal(batched[n], single)

    @pytest.mark.parametrize("n_nets, n_rows", [(1, 1), (1, 6), (5, 1), (3, 8)])
    def test_stack_equals_forward_per_net_and_row(self, n_nets, n_rows):
        """N networks of one spec stacked as Step keeps them, (N, out, in)
        weights and (N, 1, out) biases, on (N, B, in) rows: row (n, b) of
        every layer equals forward(net_n, x[n, b])."""
        rng = np.random.default_rng(10 * n_nets + n_rows)
        for trial in range(30):
            n_layers = int(rng.integers(2, 6))
            sizes = tuple(int(rng.integers(1, 40)) for _ in range(n_layers))
            kinds = tuple(ACTIVATIONS[(trial + k) % 3] for k in range(n_layers - 1))
            nets = [init_network(LayerSpec(sizes, kinds), int(rng.integers(1 << 30)))
                    for _ in range(n_nets)]
            for net in nets:
                for b in net.biases:
                    b[:] = rng.normal(0, 1, b.shape)
            weights = [np.array(ws) for ws in zip(*(net.weights for net in nets))]
            biases = [np.array(bs)[:, None] for bs in zip(*(net.biases for net in nets))]
            x = rng.normal(0, 2, (n_nets, n_rows, sizes[0]))
            acts = forward_rows(NetworkParams(LayerSpec(sizes, kinds), weights, biases), x)
            assert [a.shape for a in acts] == [(n_nets, n_rows, w) for w in sizes]
            for n, net in enumerate(nets):
                for b in range(n_rows):
                    for rows, single in zip(acts, forward(net, x[n, b])):
                        assert np.array_equal(rows[n, b], single)

    def test_stops_at_depth(self):
        """Up to layer `depth` the pass returns the full pass's layers 0 to
        depth and reads no parameter past them (here None)."""
        rng = np.random.default_rng(4)
        p = init_network(spec([9, 4, 2, 4, 9]), seed=2)
        for b in p.biases:
            b[:] = rng.normal(0, 1, b.shape)
        x = rng.random((7, 9))
        full = forward_rows(p, x)
        for depth in range(1, 5):
            cut = p.copy()
            cut.weights[depth:] = cut.biases[depth:] = [None] * (4 - depth)
            rows = forward_rows(cut, x, depth)
            assert len(rows) == depth + 1
            assert all(np.array_equal(a, b) for a, b in zip(rows, full))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
    def test_bad_input_shape(self, shape):
        p = init_network(spec([2, 2]), seed=0)
        with pytest.raises(StructuralError):
            forward_rows(p, np.zeros(shape))


class TestBackward:
    def test_all_masked_zero(self):
        p = init_network(spec([3, 4, 3]), seed=1)
        gw, gb = backward(p, np.ones(3), np.ones(3), np.zeros(3, dtype=bool))
        assert all(np.all(g == 0) for g in gw + gb)

    def test_zero_residual(self):
        p = init_network(spec([2, 2]), seed=2)
        x = np.array([0.1, 0.9])
        out = forward(p, x)[-1]
        gw, gb = backward(p, x, out, np.ones(2, dtype=bool))
        assert all(np.all(g == 0) for g in gw + gb)

    def test_matches_numerical(self):
        rng = np.random.default_rng(3)
        p = init_network(spec([3, 4, 3], ["tanh", "sigmoid"]), seed=3)
        x, t = rng.normal(size=3), rng.normal(size=3)
        mask = np.array([True, False, True])
        err = relative_gradient_error(
            in_order(backward(p, x, t, mask)), numerical_gradient(p, x, t, mask, 1e-6)
        )
        assert err < 1e-4

    def test_matches_textbook_loop(self):
        # the per-layer np.outer formulation, in its exact association order
        def deriv(a, kind):
            if kind == "sigmoid":
                return a * (1.0 - a)
            return 1.0 - a * a if kind == "tanh" else np.ones_like(a)

        rng = np.random.default_rng(6)
        for _ in range(40):
            n_layers = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
            kinds = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
            p = init_network(LayerSpec(sizes, kinds), int(rng.integers(0, 2**31)))
            x, t = rng.normal(size=sizes[0]), rng.normal(size=sizes[-1])
            mask = rng.random(sizes[-1]) < 0.7
            acts = forward(p, x)
            delta = np.where(mask, acts[-1] - t, 0.0) * deriv(acts[-1], kinds[-1])
            gw, gb = backward(p, x, t, mask)
            for layer in range(n_layers - 2, -1, -1):
                assert np.array_equal(gw[layer], np.outer(delta, acts[layer]))
                assert np.array_equal(gb[layer], delta)
                if layer:
                    delta = (p.weights[layer].T @ delta) * deriv(acts[layer], kinds[layer - 1])

    def test_masked_target_invariance(self):
        p = init_network(spec([3, 3]), seed=4)
        x = np.array([0.5, -0.5, 1.0])
        mask = np.array([True, False, True])
        t1 = np.array([0.2, 123.0, 0.8])
        t2 = np.array([0.2, -9e9, 0.8])
        g1 = backward(p, x, t1, mask)
        g2 = backward(p, x, t2, mask)
        for a, b in zip(g1[0] + g1[1], g2[0] + g2[1]):
            assert np.array_equal(a, b)


class TestSgdStep:
    def test_zero_lr_unchanged(self):
        p = init_network(spec([2, 2]), seed=0)
        before = p.copy()
        gw, gb = backward(p, np.ones(2), np.zeros(2), np.ones(2, dtype=bool))
        sgd_step(p, (gw, gb), 0.0)
        for a, b in zip(before.weights, p.weights):
            assert np.array_equal(a, b)

    def test_single_weight_definition(self):
        p = init_network(LayerSpec((1, 1), ("linear",)), seed=0)
        p.weights[0][0, 0] = 1.0
        sgd_step(p, ([np.array([[0.5]])], [np.array([0.0])]), 0.1)
        assert p.weights[0][0, 0] == pytest.approx(0.95)

    def test_loss_decreases_on_quadratic(self):
        # loss 1/2 (w*1 - 3)^2 via a 1-1 linear net, target 3
        p = init_network(LayerSpec((1, 1), ("linear",)), seed=0)
        p.weights[0][0, 0] = 0.0
        x, t, mask = np.array([1.0]), np.array([3.0]), np.array([True])
        prev = masked_loss(p, x, t, mask)
        for _ in range(20):
            sgd_step(p, backward(p, x, t, mask), 0.1)
            cur = masked_loss(p, x, t, mask)
            assert cur < prev
            prev = cur

    def test_fused_step_matches_backward_then_sgd_step(self):
        """N networks on one row each (the encoders' lockstep) equal
        backward + sgd_step on each network, bit for bit."""
        rng = np.random.default_rng(8)
        for trial in range(40):
            n_layers = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
            acts = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
            n_nets = int(rng.integers(1, 4))
            fused = [
                init_network(LayerSpec(sizes, acts), int(rng.integers(0, 2**31)))
                for _ in range(n_nets)
            ]
            looped = [p.copy() for p in fused]
            step = Step(fused, 1, 0.1)
            for _ in range(4):
                x = rng.normal(size=(n_nets, 1, sizes[0]))
                t = rng.normal(size=(n_nets, 1, sizes[-1]))
                mask = rng.random((n_nets, 1, sizes[-1])) < 0.7
                resid = step(*step_rows(n_nets, x, t), None if trial % 4 == 0 else
                             step_rows(n_nets, mask)[0]).copy().reshape(x.shape[:2] + (-1,))
                if trial % 4 == 0:
                    mask[:] = True
                for k, net in enumerate(looped):
                    out = forward(net, x[k, 0])[-1]
                    assert np.array_equal(resid[k, 0], np.where(mask[k, 0], out - t[k, 0], 0.0))
                    sgd_step(net, backward(net, x[k, 0], t[k, 0], mask[k, 0]), 0.1)
            for a, b in zip(fused, looped):
                for p, q in zip(a.weights + a.biases, b.weights + b.biases):
                    assert np.array_equal(p, q)

    def test_shared_step_sums_row_gradients(self):
        """Each network's gradients equal the sum of per-row backprop and
        central differences of its rows' summed masked loss, over random
        specs, 1-3 networks of 1-4 rows, with all-masked and inactive rows
        (and mask or active left out, for all units or all rows); the
        update is one -lr * gradient."""
        rng = np.random.default_rng(9)
        for trial in range(40):
            n_layers = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
            acts = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
            n_nets, n_rows = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            nets = [init_network(LayerSpec(sizes, acts), int(rng.integers(0, 2**31)))
                    for _ in range(n_nets)]
            refs = [net.copy() for net in nets]
            step = Step(nets, n_rows, 0.1)
            x = rng.normal(size=(n_nets, n_rows, sizes[0]))
            t = rng.normal(size=(n_nets, n_rows, sizes[-1]))
            mask = rng.random((n_nets, n_rows, sizes[-1])) < 0.7
            mask[:, rng.integers(n_rows)] = trial % 3 != 0  # some all-masked rows
            active = rng.random((n_nets, n_rows)) < 0.7
            given_mask = None if trial % 5 == 1 else mask
            given_active = None if trial % 5 == 2 else active[..., None]
            if given_mask is None:
                mask[:] = True
            if given_active is None:
                active[:] = True
            given = step_rows(n_nets, x, t) + [
                None if a is None else step_rows(n_nets, a)[0] for a in (given_mask, given_active)]
            resid = step.gradients(*given).copy().reshape(x.shape[:2] + (-1,))
            for net, ref in zip(nets, refs):
                for a, b in zip(net.weights + net.biases, ref.weights + ref.biases):
                    assert np.array_equal(a, b)  # gradients() does not update
            per_net = network_grads(step, nets[0].spec, n_nets)
            for k, ref in enumerate(refs):
                grads = per_net[k]
                summed = [np.zeros_like(a) for a in ref.arrays()]
                numeric = [np.zeros_like(a) for a in ref.arrays()]
                for r in np.flatnonzero(active[k]):
                    out = forward(ref, x[k, r])
                    expect = np.where(mask[k, r], out[-1] - t[k, r], 0.0)
                    np.testing.assert_allclose(resid[k, r], expect, rtol=1e-12, atol=1e-15)
                    row = grads_from_activations(ref, out, t[k, r], mask[k, r])
                    num = numerical_gradient(ref, x[k, r], t[k, r], mask[k, r], 1e-6)
                    for total, part in zip(summed + numeric, in_order(row) + num):
                        total += part
                assert np.all(resid[k, ~active[k]] == 0.0)
                assert relative_gradient_error(grads, summed) < 1e-12
                assert relative_gradient_error(grads, numeric) < 1e-6
            expected = [[p - 0.1 * g.reshape(p.shape) for p, g in zip(ref.arrays(), grads)]
                        for ref, grads in zip(refs, per_net)]
            step(*given)
            for net, params in zip(nets, expected):
                for a, b in zip(net.arrays(), params):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("garbage", [np.nan, np.inf, -1e300, 7.0])
    def test_shared_step_ignores_inactive_rows(self, garbage):
        """Inputs, codes and targets of inactive rows, and targets of
        masked units, are never read: garbage there leaves the parameters
        byte-identical, with and without a side layer."""
        rng = np.random.default_rng(10)
        sizes = (5, 4, 2, 4, 5)
        for side in ((), (3, 2)):
            layers = LayerSpec(sizes, ("sigmoid", "tanh", "sigmoid", "linear"), side)
            nets = [init_network(layers, 3) for _ in range(2)]
            clean, dirty = (Step([net], 4, 0.1) for net in nets)
            for _ in range(6):
                x = rng.random((4, 5))
                t = rng.random((4, 5))
                code = rng.random((4, 3))
                mask = rng.random((4, 5)) < 0.6
                active = rng.random(4) < 0.6
                clean(x, t, mask, active[:, None], code)
                x[~active] = garbage
                t[~active] = garbage
                code[~active] = garbage
                t[~mask] = garbage
                dirty(x, t, mask, active[:, None], code)
            assert clean.flat.tobytes() == dirty.flat.tobytes()

    def test_side_step_sums_row_gradients(self):
        """Networks with a side layer: each network's gradients equal
        central differences of its active rows' summed masked loss, over
        random specs, 1-3 networks of 1-4 rows."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_layers = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(1, 7)) for _ in range(n_layers))
            acts = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
            side = tuple(int(w) for w in rng.integers(1, 4, 2))
            n_nets, n_rows = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            nets = [init_network(LayerSpec(sizes, acts, side), int(rng.integers(0, 2**31)))
                    for _ in range(n_nets)]
            refs = [net.copy() for net in nets]
            step = Step(nets, n_rows, 0.1)
            x = rng.normal(size=(n_nets, n_rows, sizes[0]))
            code = rng.normal(size=(n_nets, n_rows, side[0]))
            t = rng.normal(size=(n_nets, n_rows, sizes[-1]))
            mask = rng.random((n_nets, n_rows, sizes[-1])) < 0.7
            active = rng.random((n_nets, n_rows, 1)) < 0.7
            step.gradients(*step_rows(n_nets, x, t, mask, active, code))
            shapes = nets[0].spec.param_shapes()
            for k, (ref, grads) in enumerate(zip(refs, network_grads(step, nets[0].spec, n_nets))):
                numeric = [np.zeros(shape) for shape in shapes]
                for r in np.flatnonzero(active[k]):
                    num = numerical_gradient(ref, x[k, r], t[k, r], mask[k, r], 1e-6, code[k, r])
                    for total, part in zip(numeric, num):
                        total += part
                assert relative_gradient_error(grads, numeric) < 1e-6

    def test_zero_injections_leave_the_main_path(self):
        """A side layer whose injections are all zero leaves the outputs
        and the main path's gradients and update of a step bit-equal to
        the same network stepped without a side layer."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            n_layers = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
            acts = tuple(str(rng.choice(ACTIVATIONS)) for _ in range(n_layers - 1))
            n_rows = int(rng.integers(1, 5))
            plain = init_network(LayerSpec(sizes, acts), int(rng.integers(0, 2**31)))
            sided = init_network(LayerSpec(sizes, acts, (3, 2)), 0)
            sided.weights, sided.biases = plain.weights, plain.biases
            sided.injections = [np.zeros_like(u) for u in sided.injections]
            side_step, plain_step = Step([sided], n_rows, 0.1), Step([plain], n_rows, 0.1)
            x = rng.normal(size=(n_rows, sizes[0]))
            t = rng.normal(size=(n_rows, sizes[-1]))
            mask = rng.random((n_rows, sizes[-1])) < 0.7
            code = rng.normal(size=(n_rows, 3))
            resid = plain_step(x, t, mask).copy()
            assert np.array_equal(side_step(x, t, mask, code=code), resid)
            assert np.array_equal(side_step.outputs, plain_step.outputs)
            for a, b in zip(plain_step.grad_w + plain_step.grad_b,
                            side_step.grad_w + side_step.grad_b):
                assert np.array_equal(a, b)
            for a, b in zip(plain.weights + plain.biases, sided.weights + sided.biases):
                assert np.array_equal(a, b)

    def test_fused_step_rejects_mixed_specs(self):
        nets = [init_network(spec([2, 3, 2]), 0), init_network(spec([2, 4, 2]), 0)]
        with pytest.raises(StructuralError):
            Step(nets, 1, 0.1)

    def test_reversible(self):
        p = init_network(spec([3, 4, 2]), seed=9)
        before = p.copy()
        g = backward(p, np.ones(3), np.zeros(2), np.ones(2, dtype=bool))
        sgd_step(p, g, 0.05)
        neg = ([-a for a in g[0]], [-a for a in g[1]])
        sgd_step(p, neg, 0.05)
        for a, b in zip(before.weights + before.biases, p.weights + p.biases):
            np.testing.assert_allclose(a, b, atol=1e-14)


class TestNumericalGradient:
    def test_all_masked_zero(self):
        p = init_network(spec([2, 2]), seed=0)
        grads = numerical_gradient(p, np.ones(2), np.ones(2), np.zeros(2, dtype=bool))
        assert all(np.all(g == 0) for g in grads)

    def test_analytic_linear_case(self):
        # loss 1/2 (w x - t)^2 with x=2, w=1, t=4 -> dL/dw = (wx-t)x = -4
        p = init_network(LayerSpec((1, 1), ("linear",)), seed=0)
        p.weights[0][0, 0] = 1.0
        w0, _ = numerical_gradient(
            p, np.array([2.0]), np.array([4.0]), np.array([True]), eps=1e-6
        )
        assert w0[0, 0] == pytest.approx(-4.0, abs=1e-8)

    def test_quadratic_convergence_in_eps(self):
        p = init_network(spec([2, 3, 2], ["tanh", "sigmoid"]), seed=11)
        x = np.array([0.3, -0.8])
        t = np.array([0.9, 0.1])
        mask = np.ones(2, dtype=bool)
        exact = backward(p, x, t, mask)

        def err(eps):
            num = numerical_gradient(p, x, t, mask, eps)
            return max(
                np.abs(a - b).max()
                for a, b in zip(in_order(exact), num)
            )

        e1, e2 = err(1e-3), err(5e-4)
        assert e2 < e1 / 2.5  # O(eps^2): halving eps cuts error ~4x

    def test_eps_positive(self):
        p = init_network(spec([2, 2]), seed=0)
        with pytest.raises(StructuralError):
            numerical_gradient(p, np.ones(2), np.ones(2), np.ones(2, dtype=bool), 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_gradcheck_property(seed):
    rng = np.random.default_rng(seed)
    n_layers = int(rng.integers(2, 5))
    sizes = tuple(int(rng.integers(1, 9)) for _ in range(n_layers))
    acts = tuple(str(rng.choice(["sigmoid", "tanh", "linear"])) for _ in range(n_layers - 1))
    p = init_network(LayerSpec(sizes, acts), seed)
    x = rng.normal(size=sizes[0])
    t = rng.normal(size=sizes[-1])
    mask = rng.random(sizes[-1]) < 0.7
    err = relative_gradient_error(
        in_order(backward(p, x, t, mask)), numerical_gradient(p, x, t, mask, 1e-6)
    )
    assert err < 1e-4


def test_gradient_check_battery_small():
    assert gradient_check_battery(n_networks=10, seed=5) < 1e-4


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        p = init_network(spec([4, 3, 4], ["tanh", "linear"]), seed=12)
        path = tmp_path / "model.txt"
        save_model(p, path)
        q = load_model(path)
        assert q.spec == p.spec
        for a, b in zip(p.weights + p.biases, q.weights + q.biases):
            assert np.array_equal(a, b)

    def test_header_line(self, tmp_path):
        p = init_network(spec([2, 1]), seed=0)
        p.weights[0][:] = [[0.5, -1.0]]
        p.biases[0][:] = [0.1]
        path = tmp_path / "model.txt"
        save_model(p, path)
        assert path.read_text() == (
            "svcnet-model v2 sizes=2,1 activations=sigmoid\n"
            "w0 1 2\n0.5 -1.0\n"
            "b0 1\n0.1\n"
        )

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(StructuralError):
            load_model(path)
