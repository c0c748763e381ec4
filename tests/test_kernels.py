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


def three_search_quantile_huber(pred, target, kappa):
    """The sorted kernel with all three band searches on every row: the
    new kernel must reproduce its outputs bit for bit."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    b, m = pred.shape
    mp = target.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.sort(target, axis=1)
        anchor = t[:, mp // 2 : mp // 2 + 1].copy()
        t -= anchor
        order = np.argsort(pred, axis=1)
        p = np.take_along_axis(pred, order, axis=1) - anchor
        taus = (order + 0.5) / m
        s1 = np.zeros((b, mp + 1))
        s2 = np.zeros((b, mp + 1))
        np.cumsum(t, axis=1, out=s1[:, 1:])
        np.cumsum(t * t, axis=1, out=s2[:, 1:])
        lo = np.empty((b, m), dtype=np.intp)
        mid = np.empty((b, m), dtype=np.intp)
        hi = np.empty((b, m), dtype=np.intp)
        for k in range(b):
            lo[k] = t[k].searchsorted(p[k] - kappa, side="left")
            mid[k] = t[k].searchsorted(p[k], side="left")
            hi[k] = t[k].searchsorted(p[k] + kappa, side="right")
        row = np.arange(b)[:, None] * (mp + 1)
        s1_lo, s1_mid, s1_hi = s1.take(row + lo), s1.take(row + mid), s1.take(row + hi)
        s2_lo, s2_mid, s2_hi = s2.take(row + lo), s2.take(row + mid), s2.take(row + hi)
        lo, mid, hi = lo.astype(np.float64), mid.astype(np.float64), hi.astype(np.float64)
        n_neg, n_pos, n_above = mid - lo, hi - mid, mp - hi
        sum_neg, sum_pos = s1_mid - s1_lo, s1_hi - s1_mid
        du_neg, du_pos = sum_neg - p * n_neg, sum_pos - p * n_pos
        quad_neg = 0.5 * ((s2_mid - s2_lo) - p * (du_neg + sum_neg))
        quad_pos = 0.5 * ((s2_hi - s2_mid) - p * (du_pos + sum_pos))
        lin_below = kappa * ((p - 0.5 * kappa) * lo - s1_lo)
        lin_above = kappa * ((s1[:, -1:] - s1_hi) - (p + 0.5 * kappa) * n_above)
        below_w = 1.0 - taus
        norm = 1.0 / (b * m * mp * kappa)
        loss = norm * float(
            np.sum(below_w * (lin_below + quad_neg) + taus * (quad_pos + lin_above))
        )
        dloss = below_w * (du_neg - kappa * lo) + taus * (du_pos + kappa * n_above)
        grad = np.empty((b, m))
        np.put_along_axis(grad, order, -norm * dloss, axis=1)
        return loss, grad


def assert_matches_dense(pred, target, kappa):
    loss, grad = kernels.quantile_huber_batch(pred, target, kappa)
    ref_loss, ref_grad = dense_quantile_huber(pred, target, kappa)
    assert loss == pytest.approx(ref_loss, rel=RTOL, abs=ATOL)
    assert grad.shape == pred.shape
    np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=ATOL)


def assert_matches_oracle_bitwise(pred, target, kappa):
    loss, grad = kernels.quantile_huber_batch(pred, target, kappa)
    ref_loss, ref_grad = three_search_quantile_huber(pred, target, kappa)
    assert loss == ref_loss or (np.isnan(loss) and np.isnan(ref_loss))
    assert np.array_equal(grad, ref_grad, equal_nan=True)
    assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))


def band_sides(pred, target, kappa):
    """Per row, whether some target lies below some p - kappa and whether
    some target lies above some p + kappa."""
    return (np.min(target, axis=1) < np.max(pred, axis=1) - kappa,
            np.max(target, axis=1) > np.min(pred, axis=1) + kappa)


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
    assert_matches_oracle_bitwise(*batch)


def _mixed_band_batch(kappa):
    """Rows inside the band, rows that leave it below, above or on both
    sides, and rows whose extreme target sits exactly on a band edge."""
    pred = np.tile([0.125, -0.25, 0.25, 0.0], (6, 1)) + 1.0
    target = np.array([
        [0.0, 0.125, 0.1875, -0.125, 0.125],    # inside
        [-3.0, 0.125, 0.1875, -0.125, 0.0],     # leaves below
        [0.0, 0.125, 3.5, -0.125, 0.125],       # leaves above
        [-3.0, 0.125, 3.5, -0.125, 0.0],        # leaves on both sides
        [0.25 - kappa, 0.125, 0.1875, 0.0, 0.0],  # first target on max(p) - kappa
        [0.0, -0.25 + kappa, 0.1875, 0.0, 0.125],  # last target on min(p) + kappa
    ]) + 1.0
    return pred, target


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_kernel_matches_oracle_on_rows_inside_and_outside_the_band(kappa):
    pred, target = _mixed_band_batch(kappa)
    below, above = band_sides(pred, target, kappa)
    assert below.tolist() == [False, True, False, True, False, False]
    assert above.tolist() == [False, False, True, True, False, False]
    assert_matches_oracle_bitwise(pred, target, kappa)
    assert_matches_dense(pred, target, kappa)
    # Each row alone, and the rows in reverse order.
    for k in range(pred.shape[0]):
        assert_matches_oracle_bitwise(pred[k:k + 1], target[k:k + 1], kappa)
    assert_matches_oracle_bitwise(pred[::-1], target[::-1], kappa)


@pytest.mark.parametrize("kappa, leaves", [(1e-3, True), (1e6, False)])
def test_kernel_matches_oracle_when_every_row_searches_or_none_does(kappa, leaves):
    rng = np.random.default_rng(2)
    pred = rng.normal(size=(32, 100))
    target = rng.normal(size=(32, 100)) + 0.3
    below, above = band_sides(pred, target, kappa)
    assert below.tolist() == above.tolist() == [leaves] * 32
    assert_matches_oracle_bitwise(pred, target, kappa)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("position", [0, 2, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["pred", "target"])
def test_kernel_matches_oracle_with_non_finite_values(where, bad, position):
    """A non-finite value replaces the atom at the first, middle or last
    sorted position of one row, next to rows inside and outside the band."""
    pred, target = _mixed_band_batch(0.5)
    arr = pred if where == "pred" else target
    for k in (0, 3):
        arr[k, np.argsort(arr[k])[position]] = bad
    assert_matches_oracle_bitwise(pred, target, 0.5)


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
    for kappa in (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="kappa"):
            kernels.quantile_huber_batch(np.zeros((1, 2)), np.zeros((1, 2)), kappa)


def test_wrapper_rejects_bad_shapes():
    shapes = [((2, 3), (1, 3)), ((3,), (3,)), ((0, 3), (0, 3)), ((2, 0), (2, 3)),
              ((2, 3), (2, 0))]
    for pred_shape, target_shape in shapes:
        with pytest.raises(ValueError, match="nonempty 2-d"):
            kernels.quantile_huber_batch(
                np.zeros(pred_shape), np.zeros(target_shape), 1.0)
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
