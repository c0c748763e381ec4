import numpy as np
import pytest

from ctdrl.approx import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Mlp,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from ctdrl._kernels import quantile_huber_batch


def quantile_huber(pred, target, kappa):
    """The batched kernel on one row: (loss, gradient row)."""
    loss, grad = quantile_huber_batch(np.atleast_2d(pred), np.atleast_2d(target), kappa)
    return loss, grad[0]


def per_tensor(net, vec):
    """Views [W0, b0, W1, b1, ...] into a vector laid out like ``net.flat``."""
    weights, biases = net._split(vec)
    return [p for wb in zip(weights, biases) for p in wb]


def test_zero_network_outputs_zero():
    net = Mlp.zeros([3, 5, 2])
    np.testing.assert_array_equal(net.forward(np.array([[1.0, -2.0, 0.5]])), [[0.0, 0.0]])


def test_identity_single_layer_passthrough():
    net = Mlp([np.eye(4)], [np.zeros(4)])
    x = np.array([[0.3, -1.0, 2.0, 7.5]])
    np.testing.assert_array_equal(net.forward(x), x)


def test_hand_computed_forward_2_2_1():
    net = Mlp(
        [np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.5], [-1.0]])],
        [np.array([0.1, -0.2]), np.array([0.25])],
    )
    # z1 = [2.1, 2.8] (both positive), out = 2.1*1.5 - 2.8 + 0.25 = 0.6
    assert net.forward(np.array([[1.0, 2.0]]))[0, 0] == pytest.approx(0.6)


def test_relu_masks_negative_preactivations():
    net = Mlp(
        [np.array([[1.0]]), np.array([[1.0]])],
        [np.array([-2.0]), np.array([0.0])],
    )
    np.testing.assert_array_equal(net.forward(np.array([[1.0], [3.0]])), [[0.0], [1.0]])


def test_forward_rejects_dim_mismatch():
    net = Mlp.zeros([3, 2])
    for x in (np.zeros((1, 4)), np.zeros(3), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match="network expects"):
            net.forward(x)
    assert net.forward(np.zeros((0, 3))).shape == (0, 2)


def test_parameter_count():
    net = Mlp.zeros([3, 8, 5])
    assert net.flat.shape == ((3 + 1) * 8 + (8 + 1) * 5,)


def test_forward_is_deterministic_bitwise():
    net = Mlp.from_sizes([4, 16, 3], np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(6, 4))
    np.testing.assert_array_equal(net.forward(x), net.forward(x))


def test_seeded_init_is_reproducible_and_bounded():
    a = Mlp.from_sizes([5, 7, 2], np.random.default_rng(42))
    b = Mlp.from_sizes([5, 7, 2], np.random.default_rng(42))
    np.testing.assert_array_equal(a.flat, b.flat)
    limit0 = np.sqrt(6.0 / (5 + 7))
    assert np.max(np.abs(a.weights[0])) <= limit0
    assert np.all(a.biases[0] == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = Mlp.from_sizes([3, 6, 4], rng)
    x = rng.normal(size=(5, 3))
    probe = rng.normal(size=(5, 4))

    def scalar_loss():
        return float(np.sum(net.forward(x) * probe))

    out, acts = net.forward_cached(x)
    grad = net.backward(acts, probe)
    assert grad.shape == net.flat.shape
    eps = 1e-6
    p = net.flat
    for idx in range(p.size):
        old = p[idx]
        p[idx] = old + eps
        up = scalar_loss()
        p[idx] = old - eps
        down = scalar_loss()
        p[idx] = old
        fd = (up - down) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


# ------------------------------------------------------------ quantile huber


def test_quantile_huber_zero_at_match():
    loss, grad = quantile_huber([1.7], [1.7], kappa=1.0)
    assert loss == 0.0
    np.testing.assert_array_equal(grad, [0.0])


def test_quantile_huber_hand_value():
    # m = m' = 1: tau = 0.5, u = 0.4 -> 0.5 * 0.4^2 / 2 = 0.04
    loss, _ = quantile_huber([0.0], [0.4], kappa=1.0)
    assert loss == pytest.approx(0.04)


def test_quantile_huber_rejects_bad_kappa():
    with pytest.raises(ValueError):
        quantile_huber([0.0], [1.0], kappa=0.0)


def test_quantile_huber_gradient_matches_central_differences():
    rng = np.random.default_rng(21)
    step = 1e-5
    for _ in range(20):
        m = 5
        mp = int(rng.integers(2, 7))
        pred = rng.normal(size=m) * 2
        target = rng.normal(size=mp) * 2
        kappa = float(rng.uniform(0.5, 1.5))
        _, grad = quantile_huber(pred, target, kappa)
        fd = np.zeros(m)
        for i in range(m):
            up = pred.copy()
            up[i] += step
            down = pred.copy()
            down[i] -= step
            fd[i] = (
                quantile_huber(up, target, kappa)[0]
                - quantile_huber(down, target, kappa)[0]
            ) / (2 * step)
        denom = max(np.linalg.norm(fd), np.linalg.norm(grad), 1e-12)
        assert np.linalg.norm(fd - grad) / denom < 1e-4


def test_quantile_huber_target_permutation_invariance():
    rng = np.random.default_rng(22)
    pred = rng.normal(size=6)
    target = rng.normal(size=9)
    base_loss, base_grad = quantile_huber(pred, target, 1.0)
    loss, grad = quantile_huber(pred, rng.permutation(target), 1.0)
    assert base_loss == pytest.approx(loss, rel=1e-12)
    np.testing.assert_allclose(base_grad, grad, rtol=1e-12)


def test_quantile_huber_translation_invariance():
    rng = np.random.default_rng(23)
    pred = rng.normal(size=4)
    target = rng.normal(size=6)
    base_loss, _ = quantile_huber(pred, target, 1.0)
    moved_loss, _ = quantile_huber(pred + 3.7, target + 3.7, 1.0)
    assert base_loss == pytest.approx(moved_loss, rel=1e-12)


# ------------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = AdamState(params, lr=1e-2)
    before = [p.copy() for p in params]
    adam_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p, b)
    assert state.step_count == 1


def test_adam_descends_a_quadratic():
    w = [np.array([1.0])]
    state = AdamState(w, lr=1e-2)
    history = []
    for _ in range(100):
        grad = [2.0 * w[0]]
        adam_step(state, w, grad)
        history.append(abs(float(w[0][0])))
    diffs = np.diff(history)
    assert np.all(diffs < 0)
    assert history[-1] < 1.0


def test_adam_first_step_magnitude_is_learning_rate():
    for scale in (1e-6, 1.0, 1e6):
        w = [np.array([1.0])]
        state = AdamState(w, lr=1e-3)
        adam_step(state, w, [np.array([scale])])
        delta = abs(1.0 - float(w[0][0]))
        assert delta == pytest.approx(1e-3, rel=0.1)


def test_adam_shape_validation():
    params = [np.zeros(3)]
    state = AdamState(params)
    with pytest.raises(ValueError):
        adam_step(state, params, [np.zeros(4)])


def adam_step_oracle(state, params, grads):
    """Adam in expression form, allocating its temporaries: the arithmetic
    adam_step must reproduce bit for bit."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1**t)
        v_hat = state.v[i] / (1 - b2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@pytest.mark.parametrize("flat", [False, True])
def test_adam_step_matches_expression_oracle_bitwise(flat):
    rng = np.random.default_rng(41)
    net = Mlp.from_sizes([3, 7, 4], rng)
    ref = net.copy()
    params = [net.flat] if flat else per_tensor(net, net.flat)
    ref_params = [ref.flat] if flat else per_tensor(ref, ref.flat)
    state = AdamState(params, lr=3e-3)
    ref_state = AdamState(ref_params, lr=3e-3)
    scales = [1.0, 0.0, 1e-3, 1e160, 1.0, 0.0, 1e6]  # zero and overflowing g*g
    for scale in scales:
        grads = [scale * rng.standard_normal(p.shape) for p in params]
        with np.errstate(over="ignore"):
            adam_step(state, params, grads)
            adam_step_oracle(ref_state, ref_params, grads)
        for got, want in zip(params + state.m + state.v,
                             ref_params + ref_state.m + ref_state.v):
            assert np.array_equal(got, want)
    assert state.step_count == ref_state.step_count == len(scales)
    assert np.all(np.isfinite(net.flat))


def test_flat_adam_equals_per_tensor_adam_bitwise():
    rng = np.random.default_rng(42)
    flat_net = Mlp.from_sizes([2, 5, 3], rng)
    split_net = flat_net.copy()
    flat_state = AdamState([flat_net.flat], lr=1e-2)
    split_params = per_tensor(split_net, split_net.flat)
    split_state = AdamState(split_params, lr=1e-2)
    x = rng.standard_normal((6, 2))
    for _ in range(5):
        probe = rng.standard_normal((6, 3))
        grad = flat_net.backward(flat_net.forward_cached(x)[1], probe)
        adam_step(flat_state, [flat_net.flat], [grad])
        grad = split_net.backward(split_net.forward_cached(x)[1], probe)
        adam_step(split_state, split_params, per_tensor(split_net, grad))
    assert np.array_equal(flat_net.flat, split_net.flat)


# ------------------------------------------------------- flat parameters


def assert_views_of_flat(net):
    views = per_tensor(net, net.flat)
    assert len(views) == 2 * len(net.weights)
    for view, w_or_b in zip(views, [p for wb in zip(net.weights, net.biases) for p in wb]):
        assert np.shares_memory(view, net.flat)
        assert np.shares_memory(w_or_b, view)
    np.testing.assert_array_equal(np.concatenate([v.ravel() for v in views]), net.flat)


def test_parameters_stay_views_of_flat():
    rng = np.random.default_rng(43)
    net = Mlp.from_sizes([3, 6, 2], rng)
    assert_views_of_flat(net)

    clone = net.copy()
    assert_views_of_flat(clone)
    assert not np.shares_memory(clone.flat, net.flat)
    np.testing.assert_array_equal(clone.flat, net.flat)

    weights = [rng.standard_normal(w.shape) for w in net.weights]
    biases = [rng.standard_normal(b.shape) for b in net.biases]
    net = Mlp(weights, biases)
    assert_views_of_flat(net)
    for got, want in zip(net.weights + net.biases, weights + biases):
        np.testing.assert_array_equal(got, want)
        assert not np.shares_memory(got, want)

    grad = net.backward(net.forward_cached(rng.standard_normal((4, 3)))[1],
                        rng.standard_normal((4, 2)))
    state = AdamState([net.flat], lr=1e-2)
    adam_step(state, [net.flat], [grad])
    assert_views_of_flat(net)
    assert not np.array_equal(net.weights[0], weights[0])


def test_init_rejects_wrong_shapes():
    weights, biases = [np.zeros((2, 3)), np.zeros((3, 1))], [np.zeros(3), np.zeros(1)]
    with pytest.raises(ValueError):
        Mlp(weights, biases[:-1])
    with pytest.raises(ValueError):
        Mlp([], [])
    with pytest.raises(ValueError):
        Mlp(weights, [np.zeros(3), np.zeros(3)])
    with pytest.raises(ValueError):
        Mlp([np.zeros(3), np.zeros((3, 1))], biases)


def test_backward_gradients_are_views_of_a_fresh_flat_vector():
    rng = np.random.default_rng(44)
    net = Mlp.from_sizes([3, 5, 2], rng)
    x = rng.standard_normal((4, 3))
    first = net.backward(net.forward_cached(x)[1], np.ones((4, 2)))
    kept = first.copy()
    assert first.shape == net.flat.shape and first.dtype == np.float64
    for g, p in zip(per_tensor(net, first), per_tensor(net, net.flat)):
        assert g.shape == p.shape
        assert np.shares_memory(g, first)
    second = net.backward(net.forward_cached(2.0 * x)[1], -np.ones((4, 2)))
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    net = Mlp.from_sizes([3, 4, 2], rng)
    named = {"theta.w0": net.weights[0], "theta.b0": net.biases[0]}
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(named)
    for key in named:
        np.testing.assert_array_equal(loaded[key], named[key])


def test_checkpoint_rejects_reserved_names_and_bad_version(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.npz", {"__version__": np.zeros(1)})
    path = tmp_path / "bad.npz"
    np.savez(path, __version__=np.array("other-format"), w=np.zeros(2))
    with pytest.raises(ValueError):
        load_checkpoint(path)
