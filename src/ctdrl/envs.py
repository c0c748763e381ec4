"""Fixture environments.

Two analytic-oracle MDPs (a Brownian gap construction and a drift-10
illustration) and an option-trading environment driven by geometric Brownian
motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmdp import TIME_TOL, ContinuousMdp, SimulationError

__all__ = [
    "GbmParams",
    "brownian_gap_env",
    "illustration_env",
    "brownian_gap_w1_oracle",
    "OptionTradingEnv",
]


@dataclass(frozen=True)
class GbmParams:
    """Geometric Brownian motion drift (1/time) and volatility (1/sqrt(time))."""

    mu: float
    sigma: float

    def __post_init__(self):
        # NaN fails both tests; sigma * sigma, because ** raises on overflow
        if not (self.sigma >= 0 and self.sigma * self.sigma < math.inf):
            raise ValueError(
                f"volatility must be nonnegative with a finite square, got {self.sigma}")


def brownian_gap_env(horizon: float = 1.0, discount: float = 1.0) -> ContinuousMdp:
    """The illustration env without drift: action 1 turns on unit Brownian
    noise, action 0 freezes the state.

    Under the always-0 policy from (t, x) the return is deterministic:
    x * (T - t) at discount 1, else x * (gamma**(T-t) - 1) / ln(gamma).
    """
    return illustration_env(horizon, discount, drift=0.0, move_diffusion=1.0)


def brownian_gap_w1_oracle(h: float, horizon: float = 1.0) -> float:
    """Closed-form W1 action gap of brownian_gap_env at (t, x) = (0, 0), gamma=1.

    The action-return difference is Gaussian with variance
    h^3/3 + (T-h)^2 h + (T-h) h^2 (integrated-Brownian, endpoint, and cross
    terms of the shared Brownian path), and W1 against the deterministic
    alternative is sigma * sqrt(2/pi).
    """
    var = h**3 / 3.0 + (horizon - h) ** 2 * h + (horizon - h) * h**2
    return math.sqrt(var) * math.sqrt(2.0 / math.pi)


def illustration_env(
    horizon: float = 10.0,
    discount: float = 1.0,
    drift: float = 10.0,
    move_diffusion: float = 1.0,
) -> ContinuousMdp:
    """Action 1 drifts at a constant rate with unit-by-default noise, action 0
    freezes the state; reward is the signed distance to zero."""
    return ContinuousMdp(
        state_dim=1,
        drift=(0.0, drift),
        diffusion=(0.0, move_diffusion),
        reward=lambda X: X[:, 0],
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=horizon,
        discount=discount,
    )


@dataclass(frozen=True)
class OptionTradingEnv:
    """Price process under GBM; action 0 holds, action 1 executes.

    Executing (or reaching the horizon) ends the episode and pays
    max(0, 1 - price) through the terminal-reward channel; running reward is
    identically zero. Prices step by the exact GBM solution so positivity is
    guaranteed.
    """

    gbm: GbmParams
    horizon: float = 100.0
    start_price: float = 1.0
    discount: float = 0.999

    n_actions = 2
    state_dim = 1

    def reset(self, rng=None) -> np.ndarray:
        return np.array([self.start_price])

    def terminal_reward(self, X) -> np.ndarray:
        X = np.atleast_2d(X)
        return np.maximum(0.0, 1.0 - X[:, 0])

    def step_batch(self, t, X, actions, h, rng):
        """Advance a bundle of episodes one decision step.

        Returns (next states, running rewards, done flags); the terminal
        payoff is read through terminal_reward on the returned state. Raises
        SimulationError when a price underflows to 0, as hold_path does.
        """
        if t >= self.horizon - TIME_TOL:
            raise ValueError(f"step at t={t} is past the horizon {self.horizon}")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if np.any(X[:, 0] <= 0):
            raise ValueError("prices must stay positive")
        actions = np.asarray(actions)
        out = X.copy()
        done = np.zeros(X.shape[0], dtype=bool)
        execute = self._stops(actions)
        done[execute] = True
        hold = ~execute
        if np.any(hold):
            prices = X[hold, 0]
            noise = rng.standard_normal(prices.shape)
            out[hold, 0] = prices * self._gbm_factor(min(h, self.horizon - t), noise)
            if not np.all(out[hold, 0] > 0):
                raise SimulationError("GBM price underflowed to 0")
        if t + h >= self.horizon - TIME_TOL:
            done[:] = True
        return out, np.zeros(X.shape[0]), done

    def hold_path(self, times, x, noise, h):
        """Prices of an episode that holds at each of ``times`` from price
        ``x``, the k-th hold stepping on ``noise[k]``, and whether each hold
        ends the episode at the horizon.

        Row k of the (len(times) + 1, 1) price array is the price after k
        holds. One cumprod over [x, f_0, f_1, ...] multiplies in the same
        order as step_batch holding one step at a time, so the prices are
        the same to the last bit. Rows past the horizon are not meaningful.
        """
        delta = np.minimum(np.maximum(self.horizon - times, 0.0), h)
        path = np.cumprod(np.concatenate((x, self._gbm_factor(delta, noise))))
        # a GBM price is never 0; one that underflows there stays 0, or turns
        # NaN at an infinite factor, so the last price shows it
        if not path[-1] > 0:
            raise SimulationError("GBM price underflowed to 0")
        return path[:, None], times + h >= self.horizon - TIME_TOL

    def path_outcomes(self, X, actions):
        """(next states, running rewards, stop flags) of taking ``actions[k]``
        at row k of a hold path ``X``, which has one row more than
        ``actions``: as in step_batch, a stop leaves the state where it is and
        a hold moves on to the next row. Horizon cuts are hold_path's."""
        stop = self._stops(actions)
        return np.where(stop[:, None], X[:-1], X[1:]), np.zeros(stop.size), stop

    @staticmethod
    def _stops(actions):
        """Which actions execute, ending the episode where it stands."""
        return np.asarray(actions) == 1

    def _gbm_factor(self, delta, noise):
        """Exact GBM price ratio over ``delta`` driven by standard normals."""
        mu, sig = self.gbm.mu, self.gbm.sigma
        return np.exp((mu - 0.5 * sig**2) * delta + sig * np.sqrt(delta) * noise)

