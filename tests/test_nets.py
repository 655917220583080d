import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcnet.errors import StructuralError
from svcnet.nets import (
    ACTIVATIONS,
    FusedStep,
    LayerSpec,
    NetworkParams,
    TrainConfig,
    backward,
    forward,
    gradient_check_battery,
    init_network,
    load_model,
    masked_loss,
    numerical_gradient,
    relative_gradient_error,
    save_model,
    sgd_step,
)


def spec(sizes, acts=None):
    return LayerSpec(tuple(sizes), tuple(acts or ["sigmoid"] * (len(sizes) - 1)))


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
            backward(p, x, t, mask), numerical_gradient(p, x, t, mask, 1e-6)
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
            step = FusedStep(fused, 0.1)
            for _ in range(4):
                x = rng.normal(size=(n_nets, sizes[0]))
                t = rng.normal(size=(n_nets, sizes[-1]))
                mask = rng.random((n_nets, sizes[-1])) < 0.7
                resid = step(x, t, None if trial % 4 == 0 else mask).copy()
                if trial % 4 == 0:
                    mask[:] = True
                for k, net in enumerate(looped):
                    out = forward(net, x[k])[-1]
                    assert np.array_equal(resid[k], np.where(mask[k], out - t[k], 0.0))
                    sgd_step(net, backward(net, x[k], t[k], mask[k]), 0.1)
            for a, b in zip(fused, looped):
                for p, q in zip(a.weights + a.biases, b.weights + b.biases):
                    assert np.array_equal(p, q)

    def test_fused_step_rejects_mixed_specs(self):
        nets = [init_network(spec([2, 3, 2]), 0), init_network(spec([2, 4, 2]), 0)]
        with pytest.raises(StructuralError):
            FusedStep(nets, 0.1)

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
        gw, gb = numerical_gradient(p, np.ones(2), np.ones(2), np.zeros(2, dtype=bool))
        assert all(np.all(g == 0) for g in gw + gb)

    def test_analytic_linear_case(self):
        # loss 1/2 (w x - t)^2 with x=2, w=1, t=4 -> dL/dw = (wx-t)x = -4
        p = init_network(LayerSpec((1, 1), ("linear",)), seed=0)
        p.weights[0][0, 0] = 1.0
        gw, _ = numerical_gradient(
            p, np.array([2.0]), np.array([4.0]), np.array([True]), eps=1e-6
        )
        assert gw[0][0, 0] == pytest.approx(-4.0, abs=1e-8)

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
                for a, b in zip(exact[0] + exact[1], num[0] + num[1])
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
        backward(p, x, t, mask), numerical_gradient(p, x, t, mask, 1e-6)
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
        p = init_network(spec([2, 2]), seed=0)
        path = tmp_path / "model.txt"
        save_model(p, path)
        assert path.read_text().splitlines()[0] == "svcnet-model v1"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(StructuralError):
            load_model(path)


class TestTrainConfig:
    def test_rejects_bad_lr(self):
        with pytest.raises(StructuralError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_negative_epochs(self):
        with pytest.raises(StructuralError):
            TrainConfig(epochs=-1)
