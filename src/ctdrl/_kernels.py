"""Hot numeric kernels: the batched quantile Huber loss and the sorted-atom
transport distance.

The quantile Huber loss never forms the B x m x m' pair tensor. Each target
row is sorted once and summarised by prefix sums of its atoms and their
squares; up to three binary searches per prediction atom split the targets
into the four regions where the loss is linear or quadratic and the
asymmetric weight is tau or 1 - tau, and each region's contribution follows
in closed form. The searches for the band edges p - kappa and p + kappa run
only on rows whose targets leave the band on that side; on the others every
target lies inside that edge, so its bound is 0 or m' without a search. The
cost is O(B (m + m') log m').
"""

import numpy as np


def quantile_huber_batch(pred, target, kappa):
    """Batched quantile Huber loss and its gradient with respect to pred.

    pred: (B, m) quantile predictions at levels (i - 1/2)/m, in any order.
    target: (B, mp) target atoms, in any order.
    Returns (loss, grad): with u_kij = target_kj - pred_ki,
    loss = sum_kij |tau_i - 1{u_kij < 0}| L_kappa(u_kij) / (B m mp kappa),
    and grad has pred's shape. A non-finite input gives a non-finite loss.
    """
    kappa = float(kappa)
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if (pred.ndim != 2 or target.ndim != 2 or pred.shape[0] != target.shape[0]
            or 0 in pred.shape or 0 in target.shape):
        raise ValueError(
            "pred and target must be nonempty 2-d arrays with matching batch size")
    b, m = pred.shape
    mp = target.shape[1]
    with np.errstate(invalid="ignore", over="ignore"):
        t = np.sort(target, axis=1)
        # Centre each row on one of its own atoms: the subtraction is exact for
        # nearby values, so large common offsets do not reach the t^2 sums.
        anchor = t[:, mp // 2 : mp // 2 + 1].copy()
        t -= anchor
        # Work on each prediction row in ascending order, which keeps the
        # binary searches below cheap; the gradient is scattered back.
        order = np.argsort(pred, axis=1)
        flat = order + np.arange(b)[:, None] * m
        p = pred.take(flat) - anchor
        taus = (order + 0.5) / m
        s1 = np.zeros((b, mp + 1))
        s2 = np.zeros((b, mp + 1))
        np.cumsum(t, axis=1, out=s1[:, 1:])
        np.cumsum(t * t, axis=1, out=s2[:, 1:])

        # Region bounds per prediction atom: t < p - kappa (linear, u < 0),
        # p - kappa <= t < p (quadratic, u < 0), p <= t <= p + kappa
        # (quadratic, u >= 0), t > p + kappa (linear, u > 0). Rows are sorted
        # and rounding is monotone, so a row whose first target is at or above
        # its last p - kappa has lo = 0 throughout, and one whose last target
        # is at or below its first p + kappa has hi = mp; only the other rows
        # are searched. The negated tests send rows holding a NaN to the search.
        lo = np.zeros((b, m), dtype=np.intp)
        mid = np.empty((b, m), dtype=np.intp)
        hi = np.full((b, m), mp, dtype=np.intp)
        p_lo, p_hi = p - kappa, p + kappa
        for k in range(b):
            mid[k] = t[k].searchsorted(p[k], side="left")
        for k in np.flatnonzero(~(t[:, 0] >= p_lo[:, -1])):
            lo[k] = t[k].searchsorted(p_lo[k], side="left")
        for k in np.flatnonzero(~(t[:, -1] <= p_hi[:, 0])):
            hi[k] = t[k].searchsorted(p_hi[k], side="right")

        row = np.arange(b)[:, None] * (mp + 1)
        s1_lo, s1_mid, s1_hi = s1.take(row + lo), s1.take(row + mid), s1.take(row + hi)
        s2_lo, s2_mid, s2_hi = s2.take(row + lo), s2.take(row + mid), s2.take(row + hi)
        lo, mid, hi = lo.astype(np.float64), mid.astype(np.float64), hi.astype(np.float64)
        n_neg, n_pos, n_above = mid - lo, hi - mid, mp - hi
        # Within each quadratic region: sum of t, of u = t - p and of u^2 / 2.
        sum_neg, sum_pos = s1_mid - s1_lo, s1_hi - s1_mid
        du_neg, du_pos = sum_neg - p * n_neg, sum_pos - p * n_pos
        quad_neg = 0.5 * ((s2_mid - s2_lo) - p * (du_neg + sum_neg))
        quad_pos = 0.5 * ((s2_hi - s2_mid) - p * (du_pos + sum_pos))
        # Within each linear region: sum of kappa (|t - p| - kappa / 2).
        lin_below = kappa * ((p - 0.5 * kappa) * lo - s1_lo)
        lin_above = kappa * ((s1[:, -1:] - s1_hi) - (p + 0.5 * kappa) * n_above)

        below_w = 1.0 - taus
        norm = 1.0 / (b * m * mp * kappa)
        loss = norm * float(
            np.sum(below_w * (lin_below + quad_neg) + taus * (quad_pos + lin_above))
        )
        dloss = below_w * (du_neg - kappa * lo) + taus * (du_pos + kappa * n_above)
        grad = np.empty((b, m))
        grad.put(flat, -norm * dloss)
        return loss, grad


def wasserstein_sorted(a, b, p):
    """p-transport distance between two equal-size sorted atom vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-d and the same size")
    diff = np.abs(a - b)
    return float(np.mean(diff)) if p == 1 else float(np.mean(diff ** int(p)) ** (1.0 / p))
