import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctdrl
from ctdrl import _kernels as kernels

RTOL, ATOL = 1e-12, 1e-15


def dense_quantile_huber(pred, target, kappa):
    """The O(B m m') pairwise formula the sorted kernel must reproduce."""
    b, m = pred.shape
    mp = target.shape[1]
    taus = (np.arange(m) + 0.5) / m
    u = target[:, None, :] - pred[:, :, None]  # (B, m, mp)
    weight = np.abs(taus[None, :, None] - (u < 0.0))
    abs_u = np.abs(u)
    quad = abs_u <= kappa
    huber = np.where(quad, 0.5 * u * u, kappa * (abs_u - 0.5 * kappa))
    dhuber = np.where(quad, u, kappa * np.sign(u))
    norm = 1.0 / (b * m * mp * kappa)
    loss = norm * float(np.sum(weight * huber))
    grad = -norm * np.sum(weight * dhuber, axis=2)
    return loss, grad


def assert_matches_dense(pred, target, kappa):
    loss, grad = kernels.quantile_huber_batch(pred, target, kappa)
    ref_loss, ref_grad = dense_quantile_huber(pred, target, kappa)
    assert loss == pytest.approx(ref_loss, rel=RTOL, abs=ATOL)
    assert grad.shape == pred.shape
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=ATOL)


def test_sorted_kernel_matches_dense_on_random_batches():
    rng = np.random.default_rng(0)
    for _ in range(200):
        b = int(rng.integers(1, 5))
        m = int(rng.integers(1, 12))
        mp = int(rng.integers(1, 12))
        offset = float(rng.choice([0.0, 1e3, -1e3]))
        pred = rng.normal(size=(b, m)) * 3 + offset
        target = rng.normal(size=(b, mp)) * 3 + offset
        kappa = float(rng.uniform(0.2, 2.0))
        assert_matches_dense(pred, target, kappa)


def test_sorted_kernel_matches_dense_at_training_shape():
    rng = np.random.default_rng(1)
    for kappa in (0.5, 1.0):
        pred = rng.normal(size=(32, 100))
        target = rng.normal(size=(32, 100)) + 0.3
        assert_matches_dense(pred, target, kappa)


# Atoms on a 0.1 grid, so ties between targets, and targets exactly at p,
# p - kappa and p + kappa, are common; an optional common offset of about
# 1e3 checks that the prefix sums of squares do not cancel.
_grid = st.integers(-30, 30).map(lambda k: 0.1 * k)


@st.composite
def _batches(draw):
    b = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    mp = draw(st.integers(1, 8))
    offset = draw(st.sampled_from([0.0, 1e3, -1e3 + 0.05]))
    pred = draw(st.lists(_grid, min_size=b * m, max_size=b * m))
    target = draw(st.lists(_grid, min_size=b * mp, max_size=b * mp))
    kappa = draw(st.sampled_from([0.5, 1.0]))
    return (
        np.reshape(pred, (b, m)) + offset,
        np.reshape(target, (b, mp)) + offset,
        kappa,
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_batches())
@example((np.array([[0.3, -0.2, 0.8]]), np.array([[0.8, 0.3, 0.3, -0.2, -0.7]]), 0.5))
@example((np.array([[0.0, 0.0]]), np.array([[1.0, -1.0, 0.0]]), 1.0))
@example((np.array([[1000.3, 999.9]]), np.array([[1000.8, 999.4, 1000.3]]), 0.5))
def test_sorted_kernel_matches_dense_property(batch):
    assert_matches_dense(*batch)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["pred", "target"])
def test_non_finite_input_gives_non_finite_loss_silently(bad, where):
    pred = np.array([[0.1, -0.4, 0.9], [0.0, 0.2, 0.3]])
    target = np.array([[0.5, -1.0, 2.0, 0.0], [0.1, 0.1, -0.3, 0.4]])
    (pred if where == "pred" else target)[1, 1] = bad
    loss, grad = kernels.quantile_huber_batch(pred, target, 1.0)
    assert not np.isfinite(loss)
    assert grad.shape == pred.shape


def test_wasserstein_sorted_hand_values():
    a = np.array([0.0, 1.0, 3.0])
    b = np.array([1.0, 1.0, 1.0])
    assert kernels.wasserstein_sorted(a, b, 1) == pytest.approx(1.0)
    assert kernels.wasserstein_sorted(a, b, 2) == pytest.approx(np.sqrt(5.0 / 3.0))


def test_wrapper_rejects_bad_kappa():
    with pytest.raises(ValueError):
        kernels.quantile_huber_batch(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        kernels.quantile_huber_batch(np.zeros((1, 2)), np.zeros((1, 2)), -1.0)


def test_wrapper_rejects_bad_shapes():
    with pytest.raises(ValueError):
        kernels.quantile_huber_batch(np.zeros((2, 3)), np.zeros((1, 3)), 1.0)
    with pytest.raises(ValueError):
        kernels.wasserstein_sorted(np.zeros(3), np.zeros(4), 1)


def test_wrapper_accepts_noncontiguous_input():
    base = np.arange(12.0).reshape(3, 4)
    loss, grad = kernels.quantile_huber_batch(base[:, ::2], base[:, 1::2], 1.0)
    ref_loss, ref_grad = dense_quantile_huber(
        np.ascontiguousarray(base[:, ::2]), np.ascontiguousarray(base[:, 1::2]), 1.0
    )
    assert loss == pytest.approx(ref_loss, rel=RTOL)
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL)


def test_kernel_backend_is_numpy():
    assert ctdrl.KERNEL_BACKEND == "numpy"
