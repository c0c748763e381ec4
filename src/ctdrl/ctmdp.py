"""Continuous-time MDPs and Euler-Maruyama return simulation.

Coefficient callables are vectorized over paths: drift(t, X, a) and
diffusion(t, X, a) receive X of shape (paths, n) and a single action label,
reward(t, X) and terminal_reward(X) likewise. Diffusion is elementwise: its
result broadcasts against X and multiplies the (paths, n) normals entry by
entry; a result that does not broadcast to X's shape raises ValueError.

Returns are accumulated by left-endpoint quadrature of gamma**(s - t) * r(s, X_s)
plus gamma**(T - t) * g(X_T); the discount factor is exactly 1 when gamma == 1.
A rollout step draws its (paths, n) normals only when some path's diffusion
is nonzero; a step with zero diffusion on every path is x + b dt and leaves
the generator untouched. A step whose drift and diffusion are both zero on
every path leaves the states as they are, with no + 0 dt, so a signed zero
stays signed.

A rollout plays one action on every path, fixed for each of its phases: the
window [t0, window_end) plays the window action and the tail up to the
horizon plays the base action. A window that ends within TIME_TOL of the
horizon plays the window action up to the horizon. This is the return of
the persistent modification of the policy that always plays the base action.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulationError",
    "ContinuousMdp",
    "SimConfig",
    "em_step",
    "substream",
]

TIME_TOL = 1e-9


class SimulationError(RuntimeError):
    """Raised on a numerical divergence: a rollout's non-finite state or
    accumulation, a non-finite estimate made from finite samples, or a GBM
    price that underflows to 0."""


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministically derived generator for (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True, eq=False)
class ContinuousMdp:
    """dX = drift(t, X, a) dt + diffusion(t, X, a) * dW with W a standard
    n-dimensional Brownian motion; the diffusion is elementwise, so its
    result must broadcast against X (see the module docstring)."""

    state_dim: int
    actions: tuple
    drift: callable
    diffusion: callable
    reward: callable
    terminal_reward: callable
    horizon: float
    discount: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValueError("action list must be nonempty")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")

    @property
    def n_actions(self) -> int:
        return len(self.actions)


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
        # A bool is an Integral; NaN, inf and 2.5 are not.
        if (isinstance(self.substeps, bool)
                or not isinstance(self.substeps, numbers.Integral)
                or self.substeps < 1):
            raise ValueError(f"substeps must be an integer >= 1, got {self.substeps!r}")
        # Written so that NaN fails it.
        if self.tail_dt is not None and not 0 < self.tail_dt < math.inf:
            raise ValueError(f"tail_dt must be positive and finite, got {self.tail_dt}")


def _em_apply(mdp, t, states, action_indices, delta, draw):
    """One EM step x + b(t,x,a) delta + sigma(t,x,a) sqrt(delta) z on a path
    bundle whose paths all play the action ``action_indices[0]``.

    ``draw()`` returns the normals z; it is not called when sigma is zero on
    every path, and such a step is x + b delta. When b is zero on every path
    too, the step returns ``states`` itself.
    """
    label = mdp.actions[action_indices[0]]
    b = np.asarray(mdp.drift(t, states, label), dtype=np.float64)
    sig = np.asarray(mdp.diffusion(t, states, label), dtype=np.float64)
    if sig.ndim and np.broadcast(sig, states).shape != states.shape:
        raise ValueError(f"diffusion of shape {sig.shape} does not broadcast to "
                         f"the states' shape {states.shape}")
    noisy = np.count_nonzero(sig)
    if not noisy and not np.count_nonzero(b):
        return states
    drifted = states + b * delta
    if not noisy:
        return drifted
    return drifted + math.sqrt(delta) * (sig * draw())


def em_step(mdp: ContinuousMdp, x, t: float, a, dt: float, noise) -> np.ndarray:
    """x' = x + b(t,x,a) dt + sigma(t,x,a) sqrt(dt) noise.

    Accepts a single state (n,) or a bundle (paths, n) and finite noise of
    the same shape; `a` is an action label from mdp.actions.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if a not in mdp.actions:
        raise ValueError(f"action {a!r} is not one of {mdp.actions}")
    states = np.asarray(x, dtype=np.float64)
    z = np.asarray(noise, dtype=np.float64)
    if z.shape != states.shape:
        raise ValueError(f"noise of shape {z.shape} does not match the state shape "
                         f"{states.shape}")
    if not np.isfinite(z).all():
        raise ValueError("noise must be finite")
    single = states.ndim == 1
    if single:
        states, z = states[None, :], z[None, :]
    out = _em_apply(mdp, t, states, (mdp.actions.index(a),), dt, lambda: z)
    if out is states:
        out = out.copy()  # a frozen step; the result never aliases x
    if not np.isfinite(out).all():
        raise SimulationError(f"non-finite state after step at t={t:.8g}")
    return out[0] if single else out


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


def _rollout_returns(
    mdp: ContinuousMdp,
    action: int,
    t0: float,
    x0,
    n_paths: int,
    rng: np.random.Generator,
    dt: float,
    tail_dt: float | None = None,
    window_end: float | None = None,
    window_action: int | None = None,
):
    """Discounted returns of n_paths EM rollouts from (t0, x0) to the horizon.

    Without a window every step plays ``action``. With one, [t0, window_end)
    steps at dt playing ``window_action`` and the tail steps at tail_dt (dt
    when None) playing ``action``; see the module docstring.
    """
    n = mdp.state_dim
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.size != n:
        raise ValueError(f"state has dim {x0.size}, mdp expects {n}")
    if not np.isfinite(x0).all():
        raise SimulationError(f"non-finite state at t={t0:.8g}")
    states = np.broadcast_to(x0, (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    step_gain = np.empty(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    horizon = mdp.horizon

    draw = functools.partial(rng.standard_normal, (n_paths, n))
    if window_end is None:
        phases = [(t0, horizon, dt, action)]
    elif window_end < horizon - TIME_TOL:
        phases = [(t0, window_end, dt, window_action),
                  (window_end, horizon, tail_dt if tail_dt is not None else dt, action)]
    else:
        phases = [(t0, horizon, dt, window_action)]

    # Every state that enters a step is finite: x0 is checked above and each
    # new array below, so a step that returns its own input needs no scan.
    for start, end, step, phase_action in phases:
        # one read-only zero-stride index vector for the phase's steps
        acts = np.broadcast_to(np.intp(phase_action), (n_paths,))
        deltas = _phase_steps(start, end, step)
        for j, delta in enumerate(deltas):
            s = start + j * step
            rew = np.asarray(mdp.reward(s, states), dtype=np.float64)
            if gamma == 1.0:  # 1.0 * r is r: the discount multiply is skipped
                np.multiply(rew, delta, out=step_gain)
            else:
                np.multiply(math.exp(log_gamma * (s - t0)), rew, out=step_gain)
                np.multiply(step_gain, delta, out=step_gain)
            gains += step_gain
            stepped = _em_apply(mdp, s, states, acts, delta, draw)
            if stepped is not states and not np.isfinite(stepped).all():
                raise SimulationError(f"non-finite state at t={s + delta:.8g}")
            states = stepped

    disc_t = 1.0 if gamma == 1.0 else math.exp(log_gamma * (horizon - t0))
    term = np.asarray(mdp.terminal_reward(states), dtype=np.float64)
    gains += disc_t * np.broadcast_to(term, (n_paths,))
    if not np.isfinite(gains).all():
        raise SimulationError("non-finite return accumulation")
    return gains


def _rollout_dt(mdp: ContinuousMdp, t: float, cfg: SimConfig, h: float) -> float:
    """The window step h / cfg.substeps, after checking that h is positive
    and finite and that the window [t, t + h) ends by the horizon."""
    if not 0 < h < math.inf:
        raise ValueError(f"persistence horizon h must be positive and finite, got {h}")
    if t + h > mdp.horizon + TIME_TOL:
        raise ValueError(f"t + h = {t + h} exceeds the horizon {mdp.horizon}")
    return h / cfg.substeps
