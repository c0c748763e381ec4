"""Continuous-time MDPs and Euler-Maruyama return simulation.

Coefficient callables are vectorized over paths: drift(t, X, a) and
diffusion(t, X, a) receive X of shape (paths, n) and a single action label,
reward(t, X) and terminal_reward(X) likewise. Diffusion may return anything
broadcastable against X (treated elementwise) or an (n, n) / (paths, n, n)
matrix stack.

Returns are accumulated by left-endpoint quadrature of gamma**(s - t) * r(s, X_s)
plus gamma**(T - t) * g(X_T); the discount factor is exactly 1 when gamma == 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulationError",
    "ContinuousMdp",
    "SimConfig",
    "ConstantAction",
    "DeterministicMap",
    "FiniteAtomic",
    "PersistentModification",
    "persistent",
    "em_step",
    "sample_return",
    "sample_action_return",
    "policy_averaged_coefficients",
    "substream",
]

TIME_TOL = 1e-9

ReturnSample = float


class SimulationError(RuntimeError):
    """Raised when a rollout produces a non-finite state or accumulation."""


def substream(seed: int, *key) -> np.random.Generator:
    """Deterministically derived generator for (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


@dataclass(frozen=True, eq=False)
class ContinuousMdp:
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
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
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
    h itself). ``tail_dt`` optionally coarsens the step after the persistence
    window; it defaults to the window step.
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


class ConstantAction:
    """Always plays one action index."""

    def __init__(self, action: int):
        self.action = int(action)

    def sample_actions(self, t, states, rng) -> np.ndarray:
        return np.full(states.shape[0], self.action, dtype=np.intp)

    def probabilities(self, t, states, n_actions) -> np.ndarray:
        probs = np.zeros((states.shape[0], n_actions))
        probs[:, self.action] = 1.0
        return probs


class DeterministicMap:
    """Action index as a function of (t, states)."""

    def __init__(self, fn):
        self.fn = fn

    def _indices(self, t, states):
        idx = np.asarray(self.fn(t, states), dtype=np.intp)
        return np.broadcast_to(idx, (states.shape[0],))

    def sample_actions(self, t, states, rng) -> np.ndarray:
        return np.array(self._indices(t, states))

    def probabilities(self, t, states, n_actions) -> np.ndarray:
        probs = np.zeros((states.shape[0], n_actions))
        probs[np.arange(states.shape[0]), self._indices(t, states)] = 1.0
        return probs


class FiniteAtomic:
    """Probability vector over actions as a function of (t, states)."""

    def __init__(self, fn):
        self.fn = fn

    def _probs(self, t, states):
        probs = np.asarray(self.fn(t, states), dtype=np.float64)
        if probs.ndim == 1:
            probs = np.broadcast_to(probs, (states.shape[0], probs.size))
        sums = probs.sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-9):
            raise ValueError("action probabilities must sum to 1")
        return probs

    def sample_actions(self, t, states, rng) -> np.ndarray:
        probs = self._probs(t, states)
        u = rng.random(states.shape[0])
        cdf = np.cumsum(probs, axis=1)
        return np.minimum(
            (u[:, None] > cdf).sum(axis=1), probs.shape[1] - 1
        ).astype(np.intp)

    def probabilities(self, t, states, n_actions) -> np.ndarray:
        probs = self._probs(t, states)
        if probs.shape[1] != n_actions:
            raise ValueError("probability vector size does not match action count")
        return np.array(probs)


class PersistentModification:
    """delta_a on [t0, t0 + h), the base policy elsewhere."""

    def __init__(self, base, h: float, action: int, t0: float):
        if h <= 0:
            raise ValueError(f"persistence horizon must be positive, got {h}")
        self.base = base
        self.h = h
        self.action = int(action)
        self.t0 = t0
        self._tol = TIME_TOL * max(1.0, abs(t0) + h)

    def _in_window(self, t) -> bool:
        return self.t0 - self._tol <= t < self.t0 + self.h - self._tol

    def sample_actions(self, t, states, rng) -> np.ndarray:
        if self._in_window(t):
            return np.full(states.shape[0], self.action, dtype=np.intp)
        return self.base.sample_actions(t, states, rng)

    def probabilities(self, t, states, n_actions) -> np.ndarray:
        if self._in_window(t):
            probs = np.zeros((states.shape[0], n_actions))
            probs[:, self.action] = 1.0
            return probs
        return self.base.probabilities(t, states, n_actions)


def persistent(pi, h: float, a: int, t0: float) -> PersistentModification:
    """The (h, a)-persistent modification of pi at time t0."""
    return PersistentModification(pi, h, a, t0)


def _apply_diffusion(sigma, noise, n):
    """Diffusion output times noise, by shape: an (n, n) result is a matrix,
    an (paths, n, n) result a matrix stack, anything else elementwise."""
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.ndim == 2 and sig.shape == (n, n):
        return noise @ sig.T
    if sig.ndim == 3:
        return np.einsum("pij,pj->pi", sig, noise)
    return sig * noise


def _em_action_step(mdp, t, states, label, delta, noise):
    """x + b(t,x,a) delta + sigma(t,x,a) sqrt(delta) noise for one action label."""
    b = np.asarray(mdp.drift(t, states, label), dtype=np.float64)
    diff = _apply_diffusion(mdp.diffusion(t, states, label), noise, mdp.state_dim)
    return states + b * delta + math.sqrt(delta) * diff


def _em_apply(mdp, t, states, action_indices, delta, noise):
    """One EM step on a path bundle with per-path action indices.

    A bundle whose paths all play one action is stepped whole; a mixed one
    is split by action and scattered back.
    """
    if action_indices.size and np.all(action_indices == action_indices[0]):
        label = mdp.actions[action_indices[0]]
        return _em_action_step(mdp, t, states, label, delta, noise)
    out = np.empty_like(states)
    for idx in np.unique(action_indices):
        mask = action_indices == idx
        out[mask] = _em_action_step(
            mdp, t, states[mask], mdp.actions[idx], delta, noise[mask]
        )
    return out


def em_step(mdp: ContinuousMdp, x, t: float, a, dt: float, noise) -> np.ndarray:
    """x' = x + b(t,x,a) dt + sigma(t,x,a) sqrt(dt) noise.

    Accepts a single state (n,) or a bundle (paths, n); `a` is an action
    label from mdp.actions.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    states = np.asarray(x, dtype=np.float64)
    single = states.ndim == 1
    if single:
        states = states[None, :]
    z = np.asarray(noise, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    out = _em_action_step(mdp, t, states, a, dt, z)
    if not np.all(np.isfinite(out)):
        raise SimulationError(f"non-finite state after step at t={t:.8g}")
    return out[0] if single else out


def policy_averaged_coefficients(mdp: ContinuousMdp, policy, t: float, states):
    """Policy-averaged drift and diffusion matrix.

    b_pi = sum_a p_a b(.,a); sigma_pi is the symmetric square root of
    sum_a p_a sigma sigma^T(., a), taken by eigendecomposition (elementwise
    diffusions short-circuit to the scalar square root of the averaged
    squares, which is that decomposition's diagonal case).
    """
    n = mdp.state_dim
    n_paths = states.shape[0]
    probs = policy.probabilities(t, states, mdp.n_actions)
    b_avg = np.zeros((n_paths, n))
    sigmas = []
    all_elementwise = True
    for idx, label in enumerate(mdp.actions):
        b = np.asarray(mdp.drift(t, states, label), dtype=np.float64)
        b_avg += probs[:, idx : idx + 1] * np.broadcast_to(b, (n_paths, n))
        sig = np.asarray(mdp.diffusion(t, states, label), dtype=np.float64)
        if sig.ndim >= 2 and (sig.shape == (n, n) or sig.ndim == 3):
            all_elementwise = False
        sigmas.append(sig)
    if all_elementwise:
        msq = np.zeros((n_paths, n))
        for idx in range(mdp.n_actions):
            sq = np.broadcast_to(sigmas[idx] ** 2, (n_paths, n))
            msq += probs[:, idx : idx + 1] * sq
        return b_avg, np.sqrt(msq)
    msq = np.zeros((n_paths, n, n))
    for idx in range(mdp.n_actions):
        sig = sigmas[idx]
        if sig.ndim == 2 and sig.shape == (n, n):
            mat = np.broadcast_to(sig @ sig.T, (n_paths, n, n))
        elif sig.ndim == 3:
            mat = np.einsum("pij,pkj->pik", sig, sig)
        else:
            diag = np.broadcast_to(sig**2, (n_paths, n))
            mat = np.zeros((n_paths, n, n))
            mat[:, np.arange(n), np.arange(n)] = diag
        msq += probs[:, idx][:, None, None] * mat
    vals, vecs = np.linalg.eigh(msq)
    vals = np.clip(vals, 0.0, None)
    root = np.einsum("pij,pj,pkj->pik", vecs, np.sqrt(vals), vecs)
    return b_avg, root


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
    mode: str = "sample",
):
    """Discounted returns of n_paths EM rollouts from (t0, x0) to the horizon."""
    if mode not in ("sample", "averaged"):
        raise ValueError(f"unknown mode {mode!r}")
    n = mdp.state_dim
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.size != n:
        raise ValueError(f"state has dim {x0.size}, mdp expects {n}")
    states = np.broadcast_to(x0, (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    horizon = mdp.horizon

    phases = []
    if window_end is not None and window_end < horizon - TIME_TOL:
        phases.append((t0, window_end, dt))
        phases.append((window_end, horizon, tail_dt if tail_dt is not None else dt))
    else:
        phases.append((t0, horizon, dt))

    for start, end, step in phases:
        deltas = _phase_steps(start, end, step)
        for j, delta in enumerate(deltas):
            s = start + j * step
            disc = 1.0 if gamma == 1.0 else math.exp(log_gamma * (s - t0))
            rew = np.asarray(mdp.reward(s, states), dtype=np.float64)
            gains += disc * np.broadcast_to(rew, (n_paths,)) * delta
            noise = rng.standard_normal((n_paths, n))
            if mode == "sample":
                acts = policy.sample_actions(s, states, rng)
                states = _em_apply(mdp, s, states, acts, delta, noise)
            else:
                b, sig = policy_averaged_coefficients(mdp, policy, s, states)
                if sig.ndim == 3:
                    diff = np.einsum("pij,pj->pi", sig, noise)
                else:
                    diff = sig * noise
                states = states + b * delta + math.sqrt(delta) * diff
            if not np.all(np.isfinite(states)):
                raise SimulationError(f"non-finite state at t={s + delta:.8g}")

    disc_t = 1.0 if gamma == 1.0 else math.exp(log_gamma * (horizon - t0))
    term = np.asarray(mdp.terminal_reward(states), dtype=np.float64)
    gains += disc_t * np.broadcast_to(term, (n_paths,))
    if not np.all(np.isfinite(gains)):
        raise SimulationError("non-finite return accumulation")
    return gains


def _rollout_dt(
    mdp: ContinuousMdp, t: float, cfg: SimConfig, h: float | None = None
) -> float:
    """The EM step for rollouts from time t, after validating the start.

    Without a persistence horizon the start must precede the horizon. With
    one, the window [t, t + h) must end by the horizon and the step must
    divide h.
    """
    if h is None:
        if t >= mdp.horizon:
            raise ValueError(f"start time {t} must be before the horizon {mdp.horizon}")
        return cfg.resolve_dt()
    if t + h > mdp.horizon + TIME_TOL:
        raise ValueError(f"t + h = {t + h} exceeds the horizon {mdp.horizon}")
    dt = cfg.resolve_dt(h)
    ratio = h / dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(f"dt={dt} does not divide the persistence horizon h={h}")
    return dt


def sample_return(
    mdp: ContinuousMdp, pi, t: float, x, cfg: SimConfig, mode: str = "sample"
) -> ReturnSample:
    """One discounted return sample under pi from (t, x).

    Actions are drawn fresh from pi at every integration step; cfg.dt must
    be set (there is no persistence horizon to derive it from).
    """
    dt = _rollout_dt(mdp, t, cfg)
    rng = np.random.default_rng(cfg.seed)
    gains = _rollout_returns(
        mdp, pi, t, x, 1, rng, dt, tail_dt=cfg.tail_dt, mode=mode
    )
    return float(gains[0])


def sample_action_return(
    mdp: ContinuousMdp,
    pi,
    t: float,
    x,
    a: int,
    h: float,
    cfg: SimConfig,
    mode: str = "sample",
) -> ReturnSample:
    """One h-persistent action-conditioned return sample."""
    dt = _rollout_dt(mdp, t, cfg, h)
    rng = np.random.default_rng(cfg.seed)
    gains = _rollout_returns(
        mdp,
        persistent(pi, h, a, t),
        t,
        x,
        1,
        rng,
        dt,
        tail_dt=cfg.tail_dt,
        window_end=t + h,
        mode=mode,
    )
    return float(gains[0])
