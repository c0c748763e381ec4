"""Monte-Carlo estimation of return and superiority distributions, action
gaps under transport distances, and log-log rate fitting."""

from __future__ import annotations

import contextlib
import itertools
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
    persistent,
    substream,
)

__all__ = [
    "GapEstimate",
    "RateFit",
    "mc_return_dist",
    "mc_action_return_dist",
    "mc_superiority",
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
    """Action-gap estimates at one (t, x, h).

    pair_distances holds the W_p value for every unordered action-index pair;
    dist_gap / value_gap are the minima, with the lexicographically first
    minimizing pair reported on ties. Standard errors are proxies: bootstrap
    for the transport distance, delta-method for mean differences.
    """

    h: float
    p: int
    n_paths: int
    pair_distances: dict
    pair_value_gaps: dict
    dist_gap: float
    dist_gap_pair: tuple
    dist_gap_se: float
    value_gap: float
    value_gap_pair: tuple
    value_gap_se: float
    means: tuple
    mean_ses: tuple


@dataclass(frozen=True, eq=False)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    log_points: tuple


def mc_return_dist(
    mdp: ContinuousMdp, pi, t, x, n_paths: int, cfg: SimConfig
) -> dist.EmpiricalDist:
    """n_paths independent return samples under pi from (t, x)."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    dt = _rollout_dt(mdp, t, cfg)
    rng = substream(cfg.seed, _TAG_RETURN)
    gains = _rollout_returns(mdp, pi, t, x, n_paths, rng, dt, tail_dt=cfg.tail_dt)
    return dist.EmpiricalDist(gains)


def mc_action_return_dist(
    mdp: ContinuousMdp, pi, t, x, a: int, h: float, n_paths: int, cfg: SimConfig
) -> dist.EmpiricalDist:
    """n_paths independent h-persistent action-conditioned return samples."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    dt = _rollout_dt(mdp, t, cfg, h)
    rng = substream(cfg.seed, _TAG_ACTION, a)
    gains = _rollout_returns(
        mdp,
        persistent(pi, h, a, t),
        t,
        x,
        n_paths,
        rng,
        dt,
        tail_dt=cfg.tail_dt,
        window_end=t + h,
    )
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


def action_gaps(
    mdp: ContinuousMdp,
    pi,
    t,
    x,
    h: float,
    n_paths: int,
    p: int,
    cfg: SimConfig,
    m: int = ESTIMATOR_M,
    bootstrap: int = BOOTSTRAP_RESAMPLES,
) -> GapEstimate:
    """Estimate the distributional and value action gaps at (t, x).

    Raises SimulationError when a gap, mean or standard error is not finite.
    """
    if mdp.n_actions < 2:
        raise ValueError("action gaps need at least two actions")
    diverged = f"non-finite action-gap estimate at h={h:.8g}"
    samples = []
    reps = []
    for idx in range(mdp.n_actions):
        emp = mc_action_return_dist(mdp, pi, t, x, idx, h, n_paths, cfg)
        samples.append(emp.samples)
        with _overflow_raises(diverged):
            reps.append(dist.to_quantile_rep(emp, m))
    means = tuple(float(np.mean(s)) for s in samples)
    mean_ses = tuple(
        float(np.std(s, ddof=1) / math.sqrt(s.size)) for s in samples
    )

    pair_distances = {}
    pair_value_gaps = {}
    for i, j in itertools.combinations(range(mdp.n_actions), 2):
        pair_distances[(i, j)] = dist.wasserstein(p, reps[i], reps[j])
        pair_value_gaps[(i, j)] = abs(means[i] - means[j])
    _require_finite(diverged, [*means, *mean_ses, *pair_distances.values(),
                               *pair_value_gaps.values()])

    dist_pair = min(pair_distances, key=lambda k: (pair_distances[k], k))
    value_pair = min(pair_value_gaps, key=lambda k: (pair_value_gaps[k], k))
    i, j = dist_pair
    boot_rng = substream(cfg.seed, _TAG_BOOT, i, j)
    dist_se = _bootstrap_w_se(samples[i], samples[j], p, m, bootstrap, boot_rng)
    vi, vj = value_pair
    value_se = math.hypot(mean_ses[vi], mean_ses[vj])
    _require_finite(diverged, [dist_se, value_se])

    return GapEstimate(
        h=h,
        p=p,
        n_paths=n_paths,
        pair_distances=pair_distances,
        pair_value_gaps=pair_value_gaps,
        dist_gap=pair_distances[dist_pair],
        dist_gap_pair=dist_pair,
        dist_gap_se=dist_se,
        value_gap=pair_value_gaps[value_pair],
        value_gap_pair=value_pair,
        value_gap_se=value_se,
        means=means,
        mean_ses=mean_ses,
    )


def fit_rate(points) -> RateFit:
    """Ordinary least squares on (ln h, ln gap); the slope is the empirical
    order of the gap in h."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    for h, gap in points:
        if gap <= 0:
            raise ValueError(f"gap must be positive to take logs, got {gap} at h={h}")
        if h <= 0:
            raise ValueError(f"h must be positive, got {h}")
    log_h = np.array([math.log(h) for h, _ in points])
    log_g = np.array([math.log(g) for _, g in points])
    xc = log_h - log_h.mean()
    yc = log_g - log_g.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise ValueError("all h values are identical")
    slope = float(np.dot(xc, yc) / denom)
    intercept = float(log_g.mean() - slope * log_h.mean())
    residuals = yc - slope * xc
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(yc, yc))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        log_points=tuple(zip(log_h.tolist(), log_g.tolist())),
    )
