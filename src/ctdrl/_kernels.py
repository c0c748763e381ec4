"""Hot numeric kernels: the batched quantile Huber loss and the sorted-atom
transport distance.

The quantile Huber loss never forms the B x m x m' pair tensor. Each target
row is sorted once and summarised by prefix sums of its atoms and their
squares; up to three binary searches per prediction atom split the targets
into the four regions where the loss is linear or quadratic and the
asymmetric weight is tau or 1 - tau, and each region's contribution follows
in closed form. The cost is O(B (m + m') log m'). Four shortcuts, each
chosen from the input, give the same bits as sorting every row, all three
searches and the full region algebra on every row:

- a row whose targets all have the same bits and are finite (a terminal
  transition's) is not sorted: its centred atoms and prefix sums are zeros;
- a row whose targets are all equal splits at p by one comparison with
  that value, without a search;
- the searches for the band edges p - kappa and p + kappa run only on rows
  whose targets leave the band on that side; on the others every target
  lies inside that edge, so its bound is 0 or m';
- when no row leaves the band, the linear regions are empty and the loss
  and gradient follow from the split at p alone.
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
        # Centre each row on one of its own atoms: the subtraction is exact for
        # nearby values, so large common offsets do not reach the t^2 sums. A
        # row whose atoms all have the same bits and are finite centres to
        # +0.0 throughout, as its prefix sums do, so only the other rows are
        # sorted and summed; a row that mixes -0.0 and +0.0, or holds an inf
        # or a NaN, is one of them.
        anchor = target[:, :1].copy()
        t = np.zeros((b, mp))
        s1 = np.zeros((b, mp + 1))
        s2 = np.zeros((b, mp + 1))
        bits = target.view(np.int64)
        varied = np.flatnonzero(~((bits == bits[:, :1]).all(axis=1)
                                  & np.isfinite(anchor[:, 0])))
        if varied.size:
            rows = slice(None) if varied.size == b else varied
            sorted_rows = np.sort(target[rows], axis=1)
            anchor[rows] = sorted_rows[:, mp // 2 : mp // 2 + 1]
            sorted_rows -= anchor[rows]
            t[rows] = sorted_rows
            s1[rows, 1:] = np.cumsum(sorted_rows, axis=1)
            s2[rows, 1:] = np.cumsum(sorted_rows * sorted_rows, axis=1)
        # Work on each prediction row in ascending order, which keeps the
        # binary searches below cheap; the gradient is scattered back.
        order = np.argsort(pred, axis=1)
        flat = order + np.arange(b)[:, None] * m
        p = pred.take(flat) - anchor
        taus = (order + 0.5) / m

        # Region bounds per prediction atom: t < p - kappa (linear, u < 0),
        # p - kappa <= t < p (quadratic, u < 0), p <= t <= p + kappa
        # (quadratic, u >= 0), t > p + kappa (linear, u > 0). A sorted row whose
        # first and last targets are equal is constant, and its bound at p is 0
        # or mp by one comparison (a NaN p goes last, as in the search); only
        # the other rows are searched. Rows are sorted and rounding is
        # monotone, so a row whose first target is at or above its last
        # p - kappa has lo = 0 throughout, and one whose last target is at or
        # below its first p + kappa has hi = mp. The negated tests send rows
        # holding a NaN to the search.
        mid = np.where(p <= t[:, :1], 0, mp)
        for k in np.flatnonzero(~(t[:, 0] == t[:, -1])):
            mid[k] = t[k].searchsorted(p[k], side="left")
        below = np.flatnonzero(~(t[:, 0] >= p[:, -1] - kappa))
        above = np.flatnonzero(~(t[:, -1] <= p[:, 0] + kappa))
        row = np.arange(b)[:, None] * (mp + 1)
        s1_mid, s2_mid = s1.take(row + mid), s2.take(row + mid)
        mid = mid.astype(np.float64)
        below_w = 1.0 - taus
        norm = 1.0 / (b * m * mp * kappa)
        if below.size or above.size:
            lo = np.zeros((b, m), dtype=np.intp)
            hi = np.full((b, m), mp, dtype=np.intp)
            p_lo, p_hi = p - kappa, p + kappa
            for k in below:
                lo[k] = t[k].searchsorted(p_lo[k], side="left")
            for k in above:
                hi[k] = t[k].searchsorted(p_hi[k], side="right")
            s1_lo, s1_hi = s1.take(row + lo), s1.take(row + hi)
            s2_lo, s2_hi = s2.take(row + lo), s2.take(row + hi)
            lo, hi = lo.astype(np.float64), hi.astype(np.float64)
            n_neg, n_pos, n_above = mid - lo, hi - mid, mp - hi
            # Within each quadratic region: sum of t, of u = t - p and of u^2 / 2.
            sum_neg, sum_pos = s1_mid - s1_lo, s1_hi - s1_mid
            du_neg, du_pos = sum_neg - p * n_neg, sum_pos - p * n_pos
            quad_neg = 0.5 * ((s2_mid - s2_lo) - p * (du_neg + sum_neg))
            quad_pos = 0.5 * ((s2_hi - s2_mid) - p * (du_pos + sum_pos))
            # Within each linear region: sum of kappa (|t - p| - kappa / 2).
            lin_below = kappa * ((p - 0.5 * kappa) * lo - s1_lo)
            lin_above = kappa * ((s1[:, -1:] - s1_hi) - (p + 0.5 * kappa) * n_above)
            dloss = below_w * (du_neg - kappa * lo) + taus * (du_pos + kappa * n_above)
        else:
            # Every row inside the band: lo = 0 and hi = mp, so the sums at lo
            # are zero and those at hi are the row totals. The linear regions
            # are empty; their terms keep the signed zeros (and the NaN on
            # overflow) that the general algebra gives them.
            sum_pos = s1[:, -1:] - s1_mid
            du_neg, du_pos = s1_mid - p * mid, sum_pos - p * (mp - mid)
            quad_neg = 0.5 * (s2_mid - p * (du_neg + s1_mid))
            quad_pos = 0.5 * ((s2[:, -1:] - s2_mid) - p * (du_pos + sum_pos))
            lin_below = (p - 0.5 * kappa) * 0.0
            lin_above = (s1[:, -1:] - s1[:, -1:]) - (p + 0.5 * kappa) * 0.0
            dloss = below_w * du_neg + taus * (du_pos + 0.0)
        loss = norm * float(
            np.sum(below_w * (lin_below + quad_neg) + taus * (quad_pos + lin_above))
        )
        grad = np.empty((b, m))
        grad.put(flat, -norm * dloss)
        return loss, grad


def wasserstein_sorted(a, b, p):
    """p-transport distance between sorted atom vectors of one size, read
    along the last axis. Two vectors give a float; a (k, m) block of rows,
    against another block or one (m,) vector broadcast to every row, gives
    the k row distances, each with the bits of the 1-d call on that row.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if (not 1 <= a.ndim <= 2 or not 1 <= b.ndim <= 2 or a.shape[-1] != b.shape[-1]
            or a.ndim == b.ndim == 2 and a.shape[0] != b.shape[0]):
        raise ValueError("inputs must be 1-d or 2-d rows of the same size")
    # A C-ordered difference sums each row in the order the 1-d mean does.
    diff = np.subtract(a, b, order="C")
    np.abs(diff, out=diff)
    if p == 1:
        means = np.mean(diff, axis=-1)
        return float(means) if means.ndim == 0 else means
    means = np.mean(diff ** int(p), axis=-1)
    # A float64 scalar's power is libm's pow, whose bits an array's power
    # (sqrt at p = 2) does not always match, so each row takes the scalar's.
    root = 1.0 / p
    if means.ndim == 0:
        return float(means ** root)
    return np.array([x ** root for x in means])
