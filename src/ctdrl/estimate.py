"""Monte-Carlo estimation of return and superiority distributions, action
gaps under transport distances, and log-log rate fitting."""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from . import dist
from .ctmdp import (
    TIME_TOL,
    ContinuousMdp,
    SimConfig,
    SimulationError,
    _is_integer,
    _rollout_returns,
    substream,
)

__all__ = [
    "GapEstimate",
    "RateFit",
    "mc_action_return_dist",
    "mc_superiority",
    "gap_estimate",
    "action_gaps",
    "fit_rate",
]

ESTIMATOR_M = 512
BOOTSTRAP_RESAMPLES = 200
# Bootstrap resamples per block of array calls: 8 and 16 measured fastest
# at n = 10000, m = 512; 64 was about 2% and 200 about 10% slower.
_BLOCK = 16

# Substream tags so independent estimates never share a noise stream.
_TAG_ACTION = 12
_TAG_BOOT = 13


@dataclass(frozen=True, eq=False)
class GapEstimate:
    """Distributional (W_p) and value (mean) gap between two actions, with
    standard-error proxies: bootstrap for the transport distance,
    delta-method for the mean difference."""

    dist_gap: float
    dist_gap_se: float
    value_gap: float
    value_gap_se: float


@dataclass(frozen=True, eq=False)
class RateFit:
    slope: float
    r_squared: float


def mc_action_return_dist(
    mdp: ContinuousMdp, action: int, t, x, a: int, h: float, n_paths: int,
    cfg: SimConfig,
) -> dist.EmpiricalDist:
    """n_paths independent h-persistent action-conditioned return samples:
    a on [t, t + h), then the base action index ``action``. With a equal to
    ``action`` these are the base policy's own returns, stepped on the same
    grid as every other a.

    Raises ValueError naming the argument when ``action`` or ``a`` is not an
    integer index of the mdp, n_paths is not an integer >= 2, t is not finite
    and before the horizon, or h is not positive and finite with the window
    [t, t + h) ending by the horizon.
    """
    for name, index in (("action", action), ("a", a)):
        if not (_is_integer(index) and 0 <= index < mdp.n_actions):
            raise ValueError(f"{name} must be an action index in "
                             f"range({mdp.n_actions}), got {index!r}")
    if not (_is_integer(n_paths) and n_paths >= 2):
        raise ValueError(f"n_paths must be an integer >= 2, got {n_paths!r}")
    # Each bound is written so that NaN fails it.
    if not -math.inf < t < mdp.horizon:
        raise ValueError(f"start time t={t} must be finite and before the horizon "
                         f"{mdp.horizon}")
    if not 0 < h < math.inf:
        raise ValueError(f"persistence horizon h must be positive and finite, got {h}")
    if t + h > mdp.horizon + TIME_TOL:
        raise ValueError(f"t + h = {t + h} exceeds the horizon {mdp.horizon}")
    rng = substream(cfg.seed, _TAG_ACTION, a)
    gains = _rollout_returns(mdp, action, t, x, n_paths, rng, h / cfg.substeps, t + h, a,
                             tail_dt=cfg.tail_dt)
    return dist.EmpiricalDist(gains)


@contextlib.contextmanager
def _overflow_raises(message):
    """Floating-point overflow or an invalid operation inside the block, or a
    SimulationError raised there, raises SimulationError(message): finite
    samples can still overflow the quantiles interpolated between them."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, SimulationError) as exc:
        raise SimulationError(message) from exc


def mc_superiority(
    zeta: dist.EmpiricalDist, eta: dist.EmpiricalDist, m: int = ESTIMATOR_M
) -> dist.QuantileRep:
    """Empirical superiority: quantize both sides to m levels and subtract.

    Raises SimulationError when finite samples overflow the quantiles or
    their difference.
    """
    with _overflow_raises("non-finite superiority estimate"):
        return dist.superiority(dist.to_quantile_rep(zeta, m),
                                dist.to_quantile_rep(eta, m))


def _bootstrap_w_se(samples_a, samples_b, p, m, n_resamples, rng):
    """Bootstrap standard error of the m-quantile W_p distance.

    A resample stays implicit: its draws, mapped to their sorted-order ranks
    (small unsigned integers) and sorted, locate the order statistics that the
    hazen quantiles read, so no resample value is gathered or sorted. A side
    whose samples all have the same bits resamples to itself, so its sorted
    quantiles are read once; its draws are still made, in the same order, to
    keep the stream.

    Resamples run in blocks of _BLOCK. Each resample makes its draws, side a
    then side b, and keeps each varying side's ranks as one row of that side's
    block; the block's rows are then sorted, read, sorted again and measured
    by one array call each. Every row has the bits of its own 1-d computation.
    """
    reps = np.empty(n_resamples)
    draw_a, read_a = _bootstrap_side(samples_a, m)
    draw_b, read_b = _bootstrap_side(samples_b, m)
    for start in range(0, n_resamples, _BLOCK):
        rows = min(_BLOCK, n_resamples - start)
        for i in range(rows):
            draw_a(rng, i)
            draw_b(rng, i)
        block_w = kernels.wasserstein_sorted(read_a(rows), read_b(rows), p)
        reps[start:start + rows] = block_w
    return float(np.std(reps, ddof=1))


def _bootstrap_side(samples, m):
    """draw(rng, i) makes one resample's draws from one side and keeps them
    as row i of the block; read(rows) gives the sorted m hazen quantiles of
    the block's first ``rows`` resamples, one row each, or one (m,) vector
    for every row when each resample is the samples themselves."""
    n = samples.size
    hazen = dist._hazen(n, m)
    bits = samples.view(np.int64)
    if (bits == bits[0]).all():  # sorted as it is, and every resample is itself
        const = np.sort(hazen(samples))
        return (lambda rng, i: rng.integers(0, n, n)), (lambda rows: const)
    sorted_s, rank = _sorted_ranks(samples)
    block = np.empty((_BLOCK, n), rank.dtype)

    def draw(rng, i):
        # the draws lie in [0, n), so clipping moves none; the default
        # mode="raise" would buffer the output
        np.take(rank, rng.integers(0, n, n), out=block[i], mode="clip")

    def read(rows):
        picks = block[:rows]
        picks.sort(axis=1)
        return np.sort(hazen(sorted_s, picks), axis=1)

    return draw, read


def _sorted_ranks(samples):
    """The stably sorted samples, and each sample's index in that order in
    the smallest unsigned dtype that holds it."""
    order = np.argsort(samples, kind="stable")
    rank = np.empty(samples.size, np.min_scalar_type(samples.size - 1))
    rank[order] = np.arange(samples.size)
    return samples[order], rank


def _require_finite(message, values):
    """Finite samples can still overflow the estimates made from them."""
    if not np.isfinite(values).all():
        raise SimulationError(message)


def gap_estimate(zeta_a: dist.EmpiricalDist, zeta_b: dist.EmpiricalDist, p: int, m: int,
                 bootstrap: int, rng: np.random.Generator) -> GapEstimate:
    """The W_p gap between the m-quantile reps of two return-sample sets, the
    gap between their means, and their standard errors.

    Raises ValueError when ``bootstrap`` is not an integer >= 2 or a side
    holds fewer than 2 samples, whose standard error is undefined, and
    SimulationError when a gap, mean or standard error is not finite.
    """
    if not (_is_integer(bootstrap) and bootstrap >= 2):
        raise ValueError(f"bootstrap must be an integer >= 2, got {bootstrap!r}")
    for name, side in (("zeta_a", zeta_a), ("zeta_b", zeta_b)):
        if side.n < 2:
            raise ValueError(f"{name} needs at least 2 samples, got {side.n}")
    diverged = "non-finite gap estimate"
    a, b = zeta_a.samples, zeta_b.samples
    with _overflow_raises(diverged):
        rep_a = dist.to_quantile_rep(zeta_a, m)
        rep_b = dist.to_quantile_rep(zeta_b, m)
        mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
        se_a = float(np.std(a, ddof=1) / math.sqrt(a.size))
        se_b = float(np.std(b, ddof=1) / math.sqrt(b.size))
        dist_gap = dist.wasserstein(p, rep_a, rep_b)
        value_gap = abs(mean_a - mean_b)
        value_se = math.hypot(se_a, se_b)
        _require_finite(diverged, [dist_gap, value_gap, value_se])
        dist_se = _bootstrap_w_se(a, b, p, m, bootstrap, rng)
        _require_finite(diverged, [dist_se])
    return GapEstimate(dist_gap=dist_gap, dist_gap_se=dist_se,
                       value_gap=value_gap, value_gap_se=value_se)


def action_gaps(mdp: ContinuousMdp, action: int, t, x, h: float, n_paths: int, p: int,
                cfg: SimConfig, m: int = ESTIMATOR_M,
                bootstrap: int = BOOTSTRAP_RESAMPLES) -> GapEstimate:
    """The gap estimate between the h-persistent returns of a two-action
    mdp's actions 0 and 1 at (t, x), each followed by the base action index
    ``action``.

    Raises SimulationError when a gap, mean or standard error is not finite.
    """
    if mdp.n_actions != 2:
        raise ValueError(f"action gaps need exactly two actions, got {mdp.n_actions}")
    zeta_0, zeta_1 = (mc_action_return_dist(mdp, action, t, x, a, h, n_paths, cfg)
                      for a in (0, 1))
    try:
        return gap_estimate(zeta_0, zeta_1, p, m, bootstrap,
                            substream(cfg.seed, _TAG_BOOT, 0, 1))
    except SimulationError as exc:
        raise SimulationError(f"non-finite action-gap estimate at h={h:.8g}") from exc


def fit_rate(points) -> RateFit:
    """Ordinary least squares on (ln h, ln gap); the slope is the empirical
    order of the gap in h."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    for h, gap in points:
        if not 0 < gap < math.inf:
            raise ValueError(f"gap must be positive to take logs, got {gap} at h={h}")
        if not 0 < h < math.inf:
            raise ValueError(f"h must be positive, got {h}")
    log_h = np.array([math.log(h) for h, _ in points])
    log_g = np.array([math.log(g) for _, g in points])
    xc = log_h - log_h.mean()
    yc = log_g - log_g.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("all h values are identical")
    slope = float(np.dot(xc, yc) / denom)
    residuals = yc - slope * xc
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(yc, yc))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(slope=slope, r_squared=r2)
