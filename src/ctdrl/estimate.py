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
    ContinuousMdp,
    SimConfig,
    SimulationError,
    _rollout_dt,
    _rollout_returns,
    substream,
)

__all__ = [
    "GapEstimate",
    "RateFit",
    "mc_return_dist",
    "mc_action_return_dist",
    "mc_superiority",
    "gap_estimate",
    "action_gaps",
    "fit_rate",
]

ESTIMATOR_M = 512
BOOTSTRAP_RESAMPLES = 200

# Substream tags so independent estimates never share a noise stream.
_TAG_RETURN = 11
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


def mc_return_dist(
    mdp: ContinuousMdp, action: int, t, x, n_paths: int, dt: float, seed: int
) -> dist.EmpiricalDist:
    """n_paths independent return samples from (t, x) of the policy that
    always plays the action index ``action``, stepping at dt."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if not 0 < dt < math.inf:  # NaN fails it too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if t >= mdp.horizon:
        raise ValueError(f"start time {t} must be before the horizon {mdp.horizon}")
    rng = substream(seed, _TAG_RETURN)
    gains = _rollout_returns(mdp, action, t, x, n_paths, rng, dt)
    return dist.EmpiricalDist(gains)


def mc_action_return_dist(
    mdp: ContinuousMdp, action: int, t, x, a: int, h: float, n_paths: int,
    cfg: SimConfig,
) -> dist.EmpiricalDist:
    """n_paths independent h-persistent action-conditioned return samples:
    a on [t, t + h), then the base action index ``action``."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    dt = _rollout_dt(mdp, t, cfg, h)
    rng = substream(cfg.seed, _TAG_ACTION, a)
    gains = _rollout_returns(mdp, action, t, x, n_paths, rng, dt, tail_dt=cfg.tail_dt,
                             window_end=t + h, window_action=a)
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
    hazen quantiles read, so no resample value is gathered or sorted.
    """
    reps = np.empty(n_resamples)
    na, nb = samples_a.size, samples_b.size
    sorted_a, rank_a = _sorted_ranks(samples_a)
    sorted_b, rank_b = _sorted_ranks(samples_b)
    hazen_a, hazen_b = dist._hazen(na, m), dist._hazen(nb, m)
    for i in range(n_resamples):
        qa = hazen_a(sorted_a, np.sort(rank_a[rng.integers(0, na, na)]))
        qb = hazen_b(sorted_b, np.sort(rank_b[rng.integers(0, nb, nb)]))
        reps[i] = kernels.wasserstein_sorted(np.sort(qa), np.sort(qb), p)
    return float(np.std(reps, ddof=1))


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


def gap_estimate(
    zeta_a: dist.EmpiricalDist,
    zeta_b: dist.EmpiricalDist,
    p: int,
    m: int,
    bootstrap: int,
    rng: np.random.Generator,
) -> GapEstimate:
    """The W_p gap between the m-quantile reps of two return-sample sets, the
    gap between their means, and their standard errors.

    Raises SimulationError when a gap, mean or standard error is not finite.
    """
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


def action_gaps(
    mdp: ContinuousMdp,
    action: int,
    t,
    x,
    h: float,
    n_paths: int,
    p: int,
    cfg: SimConfig,
    m: int = ESTIMATOR_M,
    bootstrap: int = BOOTSTRAP_RESAMPLES,
) -> GapEstimate:
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
