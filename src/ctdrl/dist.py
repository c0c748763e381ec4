"""One-dimensional distribution machinery on quantile representations.

A QuantileRep with values ``v_1..v_m`` encodes the distribution whose
tau_i = (i - 1/2)/m quantile is ``v_i``; equivalently the uniform mixture of
point masses at the (sorted) values. Values may be stored unsorted because
learned quantile heads are positional; every metric and statistic here
sorts them internally before interpreting values as quantiles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels

__all__ = [
    "QuantileRep",
    "EmpiricalDist",
    "DistortionMeasure",
    "wasserstein",
    "wasserstein_bruteforce",
    "risk_measure",
    "superiority",
    "independent_cdr",
    "rescale",
    "advantage_shift",
    "mean",
    "variance",
    "to_quantile_rep",
]

_SUPPORTED_P = (1, 2)


def _frozen_vector(raw, name):
    arr = np.array(raw, dtype=np.float64).reshape(-1)
    if arr.size < 1:
        raise ValueError(f"{name} needs at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class QuantileRep:
    """Fixed-size m-quantile representation of a distribution on the reals."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_vector(self.values, "values"))

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class EmpiricalDist:
    """A bag of Monte-Carlo samples, convertible to a QuantileRep: returns,
    or the differences of a coupled pair of them."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_vector(self.samples, "samples"))

    @property
    def n(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class DistortionMeasure:
    """Distortion risk measure: a weighting of the quantile midpoints tau_i.

    ``expected_value`` weights every tau_i equally, and ``cvar(alpha)``
    spreads U(0, alpha) over the tau buckets by exact integration (so the
    weights are continuous in alpha).
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("expected_value", "cvar"):
            raise ValueError(f"unknown distortion measure kind {self.kind!r}")
        if self.kind == "cvar" and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"cvar alpha must be in (0, 1], got {self.alpha}")

    @classmethod
    def expected_value(cls):
        return cls(kind="expected_value")

    @classmethod
    def cvar(cls, alpha: float):
        return cls(kind="cvar", alpha=float(alpha))

    def level_weights(self, m: int) -> np.ndarray:
        """Weights over the m midpoints tau_i = (i - 1/2)/m; they sum to 1."""
        if self.kind == "expected_value":
            return np.full(m, 1.0 / m)
        grid = np.arange(m + 1) / m
        mass = np.minimum(self.alpha, grid[1:]) - np.minimum(self.alpha, grid[:-1])
        return mass / self.alpha


def _check_p(p):
    if p not in _SUPPORTED_P:
        raise ValueError(f"p must be one of {_SUPPORTED_P}, got {p}")


def wasserstein(p: int, a: QuantileRep, b: QuantileRep) -> float:
    """Exact W_p between two uniform atom mixtures of equal size."""
    _check_p(p)
    if a.m != b.m:
        raise ValueError(f"rep sizes differ: {a.m} vs {b.m}")
    return kernels.wasserstein_sorted(np.sort(a.values), np.sort(b.values), p)


def wasserstein_bruteforce(
    p: int, a: EmpiricalDist, b: EmpiricalDist, method: str = "auto"
) -> float:
    """Independent transport oracle on equal-size samples.

    ``exhaustive`` enumerates all assignments (size capped at 8);
    ``sorted`` uses the monotone matching. Both realize the coupling
    infimum as a min-cost matching.
    """
    _check_p(p)
    if a.n != b.n:
        raise ValueError(f"sample sizes differ: {a.n} vs {b.n}")
    if method == "auto":
        method = "exhaustive" if a.n <= 8 else "sorted"
    if method == "exhaustive":
        if a.n > 8:
            raise ValueError("exhaustive mode supports at most 8 samples")
        perms = np.array(list(itertools.permutations(range(b.n))))
        costs = np.abs(a.samples[None, :] - b.samples[perms]) ** p
        best = float(costs.mean(axis=1).min())
        return best ** (1.0 / p)
    if method == "sorted":
        sa = np.sort(a.samples)
        sb = np.sort(b.samples)
        return float(np.mean(np.abs(sa - sb) ** p) ** (1.0 / p))
    raise ValueError(f"unknown method {method!r}")


def risk_measure(measure: DistortionMeasure, rep: QuantileRep) -> float:
    """Weighted sum of the canonical quantile values under the measure."""
    w = measure.level_weights(rep.m)
    return float(np.dot(w, np.sort(rep.values)))


def superiority(zeta: QuantileRep, eta: QuantileRep) -> QuantileRep:
    """Comonotone-coupling difference of two return representations.

    The elementwise difference of the sorted values is the quantile-level
    pairing, so the output is already the correct pushforward sample set and
    is deliberately not re-sorted.
    """
    if zeta.m != eta.m:
        raise ValueError(f"rep sizes differ: {zeta.m} vs {eta.m}")
    return QuantileRep(np.sort(zeta.values) - np.sort(eta.values))


def independent_cdr(
    mu: EmpiricalDist, nu: EmpiricalDist, rng: np.random.Generator, n_samples=None
) -> EmpiricalDist:
    """Samples of Z - W with Z, W drawn independently (product coupling)."""
    n = int(n_samples) if n_samples is not None else max(mu.n, nu.n)
    z = rng.choice(mu.samples, size=n, replace=True)
    w = rng.choice(nu.samples, size=n, replace=True)
    return EmpiricalDist(z - w)


def rescale(psi: QuantileRep, h: float, q: float) -> QuantileRep:
    """Multiply every outcome by h**(-q)."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    return QuantileRep(psi.values * h ** (-q))


def advantage_shift(psi_q: QuantileRep, advantage: float, h: float, q: float) -> QuantileRep:
    """Shift every outcome by (1 - h**(1-q)) * advantage."""
    return QuantileRep(psi_q.values + (1.0 - h ** (1.0 - q)) * advantage)


def mean(rep: QuantileRep) -> float:
    return float(np.mean(rep.values))


def variance(rep: QuantileRep) -> float:
    """Population variance: the atoms are the distribution."""
    return float(np.var(rep.values))


def _hazen(n: int, m: int):
    """numpy's ``method="hazen"`` quantiles at the m midpoints tau_i of n
    sorted values, bit for bit, as a reader built once per (n, m).

    ``read(sorted_values)`` interpolates the order statistics directly.
    ``read(sorted_values, picks)`` reads them from the implicit sorted sample
    ``sorted_values[picks]``, where ``picks`` is a sorted vector of n indices
    into ``sorted_values`` (a resample's draws in sorted order). Picks of
    shape (..., n) hold one such vector per row and give (..., m) quantiles,
    each row with the bits of its own 1-d read.
    """
    tau = (np.arange(m) + 0.5) / m
    # numpy's virtual index n*tau + (alpha + tau*(1 - alpha - beta)) - 1 with
    # alpha = beta = 1/2, in its own rounding order.
    virtual = n * tau + 0.5 - 1
    prev = np.floor(virtual)
    # numpy's clipping: an index at or above n - 1 reads the last value (it
    # stores -1), one below 0 reads the first; gamma uses the stored index.
    above, below = virtual >= n - 1, virtual < 0
    prev[above] = -1
    prev[below] = 0
    gamma = virtual - prev
    one_minus_gamma = 1 - gamma
    upper = gamma >= 0.5
    lo = np.where(above, n - 1, prev).astype(np.intp)
    hi = np.where(above | below, lo, lo + 1)
    ranks = np.concatenate((lo, hi))

    def read(sorted_values, picks=None):
        pos = ranks if picks is None else picks[..., ranks]
        a, b = sorted_values[pos[..., :m]], sorted_values[pos[..., m:]]
        # numpy's _lerp: a + d*gamma, or b - d*(1 - gamma) where gamma >= 1/2
        d = b - a
        out = a + d * gamma
        np.subtract(b, d * one_minus_gamma, out=out, where=upper)
        return out

    return read


def to_quantile_rep(dist: EmpiricalDist, m: int) -> QuantileRep:
    """Empirical quantiles at the midpoints tau_i = (i - 1/2)/m, interpolated
    linearly between order statistics (numpy's ``method="hazen"``). At
    m = n this recovers the sorted samples exactly. Samples holding zeros of
    both signs may give a zero of the other sign than np.quantile, which
    partitions where this sorts."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return QuantileRep(_hazen(dist.n, m)(np.sort(dist.samples)))
