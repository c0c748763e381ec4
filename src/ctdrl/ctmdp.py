"""Continuous-time MDPs and Euler-Maruyama return simulation.

Coefficient callables are vectorized over paths: drift(t, X, a) and
diffusion(t, X, a) receive X of shape (paths, n) and a single action label,
reward(t, X) and terminal_reward(X) likewise. Diffusion is elementwise: its
result broadcasts against X and multiplies the (paths, n) normals entry by
entry; a result that does not broadcast to X's shape raises ValueError.

Returns are accumulated by left-endpoint quadrature of gamma**(s - t) * r(s, X_s)
plus gamma**(T - t) * g(X_T); the discount factor is exactly 1 when gamma == 1.
A rollout step draws its (paths, n) normals after the policy has chosen its
actions, and only when some path's diffusion is nonzero; a step with zero
diffusion on every path is x + b dt and leaves the generator untouched. A
step whose drift and diffusion are both zero on every path leaves the states
as they are, with no + 0 dt, so a signed zero stays signed.

A rollout step plays one action on every path. Policies return one action
index per path; an index vector that holds two actions raises ValueError.
``ConstantAction`` and the window of a ``persistent`` policy return theirs as
a read-only zero-stride view, which the EM step takes without scanning it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulationError",
    "ContinuousMdp",
    "SimConfig",
    "ConstantAction",
    "PersistentModification",
    "persistent",
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
    """Integration settings.

    ``dt`` pins the step directly; otherwise it is derived from the
    persistence horizon as h/substeps with a floor of dt_floor (never above
    h itself). ``tail_dt`` applies to action-conditioned rollouts only: it
    optionally coarsens the step after the persistence window, and defaults
    to the window step. A rollout without a window steps at dt throughout.
    """

    dt: float | None = None
    substeps: int = 16
    dt_floor: float = 1e-4
    tail_dt: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.tail_dt is not None and self.tail_dt <= 0:
            raise ValueError("tail_dt must be positive")

    def resolve_dt(self, h: float | None = None) -> float:
        if self.dt is not None:
            return self.dt
        if h is None:
            raise ValueError("SimConfig.dt is unset and no horizon h was given")
        return min(h, max(h / self.substeps, self.dt_floor))


@functools.lru_cache(maxsize=64)
def _uniform_indices(action: int, paths: int) -> np.ndarray:
    """One action index for each of ``paths`` paths: a read-only zero-stride
    view, shared by every call with the same arguments (building one costs
    more than a step's other index work)."""
    return np.broadcast_to(np.intp(action), (paths,))


class ConstantAction:
    """Always plays one action index."""

    def __init__(self, action: int):
        self.action = int(action)

    def sample_actions(self, t, states, rng) -> np.ndarray:
        return _uniform_indices(self.action, states.shape[0])


def _check_persistence(h):
    if not 0 < h < math.inf:
        raise ValueError(f"persistence horizon h must be positive and finite, got {h}")


class PersistentModification:
    """delta_a on [t0, t0 + h), the base policy elsewhere."""

    def __init__(self, base, h: float, action: int, t0: float):
        _check_persistence(h)
        self.base = base
        self.h = h
        self.action = int(action)
        self.t0 = t0
        self._tol = TIME_TOL * max(1.0, abs(t0) + h)

    def _in_window(self, t) -> bool:
        return self.t0 - self._tol <= t < self.t0 + self.h - self._tol

    def sample_actions(self, t, states, rng) -> np.ndarray:
        if self._in_window(t):
            return _uniform_indices(self.action, states.shape[0])
        return self.base.sample_actions(t, states, rng)


def persistent(pi, h: float, a: int, t0: float) -> PersistentModification:
    """The (h, a)-persistent modification of pi at time t0."""
    return PersistentModification(pi, h, a, t0)


def _em_action_step(mdp, t, states, label, delta, draw):
    """x + b(t,x,a) delta + sigma(t,x,a) sqrt(delta) z for one action label.

    ``draw()`` returns the normals z; it is not called when sigma is zero on
    every path, and such a step is x + b delta. When b is zero on every path
    too, the step returns ``states`` itself.
    """
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


def _em_apply(mdp, t, states, action_indices, delta, draw):
    """One EM step on a path bundle whose paths all play one action.

    A zero-stride index vector is uniform by construction and is not
    scanned; any other that holds two actions raises ValueError. An empty
    bundle gives an empty result and draws nothing. The result may be
    ``states`` itself (see _em_action_step).
    """
    if not action_indices.size:
        return np.empty_like(states)
    first = action_indices[0]
    if action_indices.strides[0] and (action_indices != first).any():
        raise ValueError(f"the policy played {np.unique(action_indices).size} actions "
                         f"in the step at t={t:.8g}; a step plays one action")
    return _em_action_step(mdp, t, states, mdp.actions[first], delta, draw)


def em_step(mdp: ContinuousMdp, x, t: float, a, dt: float, noise) -> np.ndarray:
    """x' = x + b(t,x,a) dt + sigma(t,x,a) sqrt(dt) noise.

    Accepts a single state (n,) or a bundle (paths, n) and finite noise of
    the same shape; `a` is an action label from mdp.actions.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
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
    out = _em_action_step(mdp, t, states, a, dt, lambda: z)
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
    policy,
    t0: float,
    x0,
    n_paths: int,
    rng: np.random.Generator,
    dt: float,
    tail_dt: float | None = None,
    window_end: float | None = None,
):
    """Discounted returns of n_paths EM rollouts from (t0, x0) to the horizon."""
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
    phases = []
    if window_end is not None and window_end < horizon - TIME_TOL:
        phases.append((t0, window_end, dt))
        phases.append((window_end, horizon, tail_dt if tail_dt is not None else dt))
    else:
        phases.append((t0, horizon, dt))

    # Every state that enters a step is finite: x0 is checked above and each
    # new array below, so a step that returns its own input needs no scan.
    for start, end, step in phases:
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
            acts = policy.sample_actions(s, states, rng)
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


def _rollout_dt(
    mdp: ContinuousMdp, t: float, cfg: SimConfig, h: float | None = None
) -> float:
    """The EM step for rollouts from time t, after validating the start.

    Without a persistence horizon the start must precede the horizon. With
    one, h must be positive and finite, the window [t, t + h) must end by the
    horizon and the step must divide h.
    """
    if h is None:
        if t >= mdp.horizon:
            raise ValueError(f"start time {t} must be before the horizon {mdp.horizon}")
        return cfg.resolve_dt()
    _check_persistence(h)
    if t + h > mdp.horizon + TIME_TOL:
        raise ValueError(f"t + h = {t + h} exceeds the horizon {mdp.horizon}")
    return _window_dt(cfg, h)


def _window_dt(cfg: SimConfig, h: float) -> float:
    """cfg's EM step for the persistence horizon h, which it must divide."""
    dt = cfg.resolve_dt(h)
    ratio = h / dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(f"dt={dt} does not divide the persistence horizon h={h}")
    return dt
