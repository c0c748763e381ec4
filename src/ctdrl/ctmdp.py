"""Continuous-time MDPs and Euler-Maruyama return simulation.

An MDP's drift and diffusion are constant per action: one finite float per
action index, so action a moves every path by dX = b_a dt + sigma_a dW with
W a standard n-dimensional Brownian motion. The drift table fixes the number
of actions.
The reward reward(X) and terminal reward terminal_reward(X) are pure
functions of the (paths, n) states alone that act row by row: a row's value
depends on that row only, so one row of states gives that row's value.

Returns are accumulated by left-endpoint quadrature of gamma**(s - t) * r(X_s)
plus gamma**(T - t) * g(X_T); the discount factor is exactly 1 when gamma == 1.
A rollout step draws its (paths, n) normals only when its action's diffusion
is nonzero; a step with zero diffusion is x + b dt and leaves the generator
untouched. A step whose drift and diffusion are both zero leaves the states
as they are, with no + 0 dt, so a signed zero stays signed, and the rollout
reuses the reward it read from those states. Until a step's action has
nonzero diffusion, every path holds the same state, so the rollout steps a
one-row bundle and accumulates one return, a float; the first diffusive
step's (paths, n) normals widen it to every path, and a rollout that never
diffuses broadcasts its one return to every path at the end.

A rollout plays one action on every path, fixed for each of its phases: the
window [t0, window_end) plays the window action and the tail up to the
horizon plays the base action. A window that ends within TIME_TOL of the
horizon plays the window action up to the horizon. This is the return of
the persistent modification of the policy that always plays the base action;
with the base action in the window it is that policy's own return, on the
same step grid.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["SimulationError", "ContinuousMdp", "SimConfig", "substream"]

TIME_TOL = 1e-9


class SimulationError(RuntimeError):
    """Raised on a numerical divergence: a rollout's non-finite state or
    accumulation, a non-finite estimate made from finite samples, or a GBM
    price that underflows to 0."""


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministically derived generator for (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _is_integer(v):
    """A bool is an Integral; 2.0, 2.5, NaN and inf are not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _per_action(name, values, n_actions=None):
    """``values`` as a tuple of floats, after checking that it holds one
    finite real number (not a bool) per action: ``n_actions`` of them, or at
    least one when n_actions is None."""
    try:
        table = tuple(values)
        ok = (len(table) == n_actions if n_actions is not None else bool(table)) and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v) for v in table)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        count = "" if n_actions is None else f" ({n_actions})"
        raise ValueError(f"{name} must hold one finite number per action{count}, "
                         f"got {values!r}")
    return tuple(float(v) for v in table)


@dataclass(frozen=True, eq=False)
class ContinuousMdp:
    """dX = drift[a] dt + diffusion[a] dW under action index a, with W a
    standard n-dimensional Brownian motion (see the module docstring). The
    actions are the indices of the nonempty drift table.

    ``reward`` and ``terminal_reward`` map (paths, n) states to one value per
    row (or a scalar), and a row's value depends on that row only: a rollout
    reads them on a one-row bundle until its paths part.
    """

    state_dim: int
    drift: tuple
    diffusion: tuple
    reward: callable
    terminal_reward: callable
    horizon: float
    discount: float = 1.0

    def __post_init__(self):
        drift = _per_action("drift", self.drift)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion",
                           _per_action("diffusion", self.diffusion, len(drift)))
        for name in ("reward", "terminal_reward"):
            if not callable(getattr(self, name)):
                raise ValueError(f"{name} must be callable")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")

    @property
    def n_actions(self) -> int:
        return len(self.drift)


@dataclass(frozen=True)
class SimConfig:
    """Integration settings of an action-conditioned rollout.

    The persistence window [t, t + h) steps at h / substeps. ``tail_dt``
    optionally sets the step of the tail that plays the base action after
    the window, and defaults to the window step. substeps must be an integer
    >= 1 and tail_dt positive and finite when set.
    """

    substeps: int = 16
    tail_dt: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.substeps) and self.substeps >= 1):
            raise ValueError(f"substeps must be an integer >= 1, got {self.substeps!r}")
        # Written so that NaN fails it.
        if self.tail_dt is not None and not 0 < self.tail_dt < math.inf:
            raise ValueError(f"tail_dt must be positive and finite, got {self.tail_dt}")


def _em_apply(mdp, t, states, action_indices, delta, draw):
    """One EM step x + b delta + sigma sqrt(delta) z on a path bundle whose
    paths all play the action index ``action_indices[0]``, with that action's
    drift b and diffusion sigma; the coefficients do not depend on t.

    ``draw()`` returns the normals z; it is not called when sigma is zero,
    and such a step is x + b delta. When b is zero too, the step returns
    ``states`` itself. A one-row ``states`` broadcasts against the normals,
    so a diffusive step returns one row per row of z.
    """
    a = action_indices[0]
    b, sig = mdp.drift[a], mdp.diffusion[a]
    if not sig:
        return states + b * delta if b else states
    return states + b * delta + math.sqrt(delta) * (sig * draw())


def _phase_steps(start, end, step):
    """Step sizes covering [start, end] with a truncated final step."""
    total = end - start
    if total <= TIME_TOL * max(1.0, abs(end)):
        return []
    k = int(math.floor(total / step + 1e-9))
    deltas = [step] * k
    rem = total - k * step
    if rem > TIME_TOL * max(1.0, step):
        deltas.append(rem)
    return deltas


def _rollout_returns(mdp: ContinuousMdp, action: int, t0: float, x0, n_paths: int,
                     rng: np.random.Generator, dt: float, window_end: float,
                     window_action: int, tail_dt: float | None = None):
    """Discounted returns of n_paths EM rollouts from (t0, x0) to the horizon.

    [t0, window_end) steps at dt playing ``window_action`` and the tail steps
    at tail_dt (dt when None) playing ``action``; see the module docstring.
    """
    n = mdp.state_dim
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.size != n:
        raise ValueError(f"state has dim {x0.size}, mdp expects {n}")
    if not np.isfinite(x0).all():
        raise SimulationError(f"non-finite state at t={t0:.8g}")
    # The bundle is one row, step_gain one entry and the return the float
    # gain, until a step diffuses: before that every path is x0 moved by the
    # same drifts, and the reward reads row by row, so one row stands for all
    # of them. The float takes the same IEEE additions as a one-entry array.
    states = x0.reshape(1, n).copy()
    gain, gains = 0.0, None
    step_gain = np.empty(1)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    horizon = mdp.horizon

    draw = functools.partial(rng.standard_normal, (n_paths, n))
    if window_end < horizon - TIME_TOL:
        phases = [(t0, window_end, dt, window_action),
                  (window_end, horizon, tail_dt if tail_dt is not None else dt, action)]
    else:
        phases = [(t0, horizon, dt, window_action)]

    # Every state that enters a step is finite: x0 is checked above and each
    # new array below, so a step that returns its own input needs no scan.
    # The reward is read again only after a step returns a new array, and at
    # gamma == 1 its product with the step only when either has changed, so a
    # frozen step adds the same step_gain into the gains as the one before.
    # An overflow shows as a non-finite state or return, raised below, so
    # numpy does not warn of it.
    rew_states = gain_delta = None
    with np.errstate(over="ignore", invalid="ignore"):
        for start, end, step, phase_action in phases:
            # one read-only zero-stride index vector for the phase's steps
            acts = np.broadcast_to(np.intp(phase_action), (n_paths,))
            for j, delta in enumerate(_phase_steps(start, end, step)):
                s = start + j * step
                if states is not rew_states:
                    rew = np.asarray(mdp.reward(states), dtype=np.float64)
                    rew_states, gain_delta = states, None
                if gamma == 1.0:  # 1.0 * r is r: the discount multiply is skipped
                    if delta != gain_delta:
                        np.multiply(rew, delta, out=step_gain)
                        gain_delta = delta
                else:
                    np.multiply(math.exp(log_gamma * (s - t0)), rew, out=step_gain)
                    np.multiply(step_gain, delta, out=step_gain)
                if gains is None:
                    gain += float(step_gain[0])
                else:
                    gains += step_gain
                stepped = _em_apply(mdp, s, states, acts, delta, draw)
                if stepped is not states:
                    if not np.isfinite(stepped).all():
                        raise SimulationError(f"non-finite state at t={s + delta:.8g}")
                    if gains is None and stepped.shape[0] != 1:  # the first diffusion
                        gains = np.full(n_paths, gain)
                        step_gain = np.empty(n_paths)
                    states = stepped

        if gains is None:
            gains = np.full(1, gain)
        disc_t = 1.0 if gamma == 1.0 else math.exp(log_gamma * (horizon - t0))
        term = np.asarray(mdp.terminal_reward(states), dtype=np.float64)
        gains += disc_t * np.broadcast_to(term, gains.shape)
    if not np.isfinite(gains).all():
        raise SimulationError("non-finite return accumulation")
    return np.repeat(gains, n_paths) if gains.size != n_paths else gains

