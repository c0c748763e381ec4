"""Value-based learners at decision frequency 1/h.

Four agent kinds share the same learner core and training loop: a quantile
return model with a superiority proxy (optionally carrying an advantage head
on a shared torso), a plain quantile-regression baseline, and an
advantage-updating baseline.
All updates are pure functions of (parameters, batch, rng draw) so runs are
bitwise reproducible under fixed seeds.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .approx import AdamState, Mlp, adam_step
from .ctmdp import TIME_TOL, SimulationError, _is_integer, substream
from .dist import DistortionMeasure, EmpiricalDist, risk_measure, to_quantile_rep

__all__ = [
    "ReplayBuffer",
    "ExplorationSchedule",
    "TrainingDiverged",
    "DsupAgent",
    "QrdqnAgent",
    "DauAgent",
    "TrainConfig",
    "TrainRow",
    "explore_action",
    "dsup_loss_grads",
    "qrdqn_loss_grads",
    "dau_loss_grads",
    "store_subsampled",
    "interactions_per_update",
    "train",
    "evaluate",
    "evaluate_policy",
]


@functools.cache
def _record_dtype(width: int) -> np.dtype:
    """The replay record of a transition between states of ``width``
    coordinates."""
    state = (np.float64, (width,))
    return np.dtype([("t", np.float64), ("x", *state), ("a", np.int64), ("r", np.float64),
                     ("x_next", *state), ("done", np.bool_)], align=True)


def _records(t, x, a, r, x_next, done) -> np.ndarray:
    """One replay record per row of a window's arrays: the time, state,
    action, reward, next state and done flag of each interaction. A scalar
    field, or a single state, is every row's."""
    x_next = np.asarray(x_next)
    rows = np.empty(np.broadcast(t, a, r, done).size, _record_dtype(x_next.shape[-1]))
    rows["t"] = t
    rows["x"] = x
    rows["a"] = a
    rows["r"] = r
    rows["x_next"] = x_next
    rows["done"] = done
    return rows


class ReplayBuffer:
    """Fixed-capacity ring with uniform with-replacement sampling.

    ``ring`` is one preallocated record array of ``_records`` rows, with the
    dtype of the first row added. Record k goes to slot k % capacity, and
    the first ``len(buffer)`` slots are filled. A sampled batch is a record
    array of the same kind.
    """

    def __init__(self, capacity: int):
        if not (_is_integer(capacity) and capacity >= 1):
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        self.capacity = capacity
        self.ring = None
        self._len = 0
        self._pos = 0

    def add(self, row):
        """Copy one record row into the ring."""
        if self.ring is None:
            self.ring = np.empty(self.capacity, dtype=row.dtype)
        pos = self._pos
        self.ring[pos] = row
        pos += 1
        self._pos = 0 if pos == self.capacity else pos
        if self._len < self.capacity:
            self._len += 1

    def sample(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if not self._len:
            raise ValueError("cannot sample from an empty buffer")
        return self.ring[rng.integers(0, self._len, size=k)]

    def __len__(self):
        return self._len


@dataclass(frozen=True)
class ExplorationSchedule:
    """Linear epsilon decay, clamped at the end value."""

    eps_start: float = 1.0
    eps_end: float = 0.02
    decay_steps: int = 10_000

    def epsilon(self, step):
        """Epsilon at one step (a float) or at each of an array of steps."""
        if self.decay_steps <= 0:
            eps = np.full(np.shape(step), self.eps_end)
        else:
            frac = np.clip(np.divide(step, self.decay_steps), 0.0, 1.0)
            eps = self.eps_start + (self.eps_end - self.eps_start) * frac
        return float(eps) if np.ndim(step) == 0 else eps


class TrainingDiverged(RuntimeError):
    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log or []


def _risk_utilities(heads, weights):
    """Distortion-measure value of each action head after canonicalizing."""
    return np.einsum("...am,m->...a", np.sort(heads, axis=-1), weights)


def _zero_terminal(X):
    X = np.atleast_2d(X)
    return np.zeros(X.shape[0])


class _AgentBase:
    """What every agent kind shares: the decision interval, discounting,
    exploration, the network input, network construction and the training
    mechanics.

    ``_nets`` has one row (name prefix, network attribute, target attribute
    or None) per trained network. A kind draws its networks with ``_mlp``,
    in ``_nets`` order, from the one generator seeded by ``seed``, then calls
    ``_init_learner``; everything else about training is written here once.
    """

    _nets = ()

    def __init__(self, state_dim, n_actions, h, *, hidden=(100, 100), lr=1e-4,
                 discount=0.999, horizon=100.0, terminal_reward=None,
                 schedule: ExplorationSchedule | None = None, seed: int = 0):
        if not 0 < h < math.inf:
            raise ValueError(f"h must be positive and finite, got {h}")
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.h = h
        self.lr = lr
        self.discount = discount
        self.gamma_h = discount**h
        self.horizon = horizon
        self.terminal_reward = terminal_reward or _zero_terminal
        self.schedule = schedule or ExplorationSchedule()
        self._hidden = tuple(hidden)
        self._rng = np.random.default_rng(seed)

    def _mlp(self, out_dim) -> Mlp:
        """A new network from the observation to ``out_dim`` outputs."""
        return Mlp.from_sizes([self.state_dim + 1, *self._hidden, out_dim], self._rng)

    def _init_quantiles(self, m, risk, kappa):
        """The m-atom return model and the risk measure that ranks actions."""
        self.m = m
        self.kappa = kappa
        self.risk = risk or DistortionMeasure.expected_value()
        self._risk_w = self.risk.level_weights(m)

    def observe(self, t, X) -> np.ndarray:
        """Network input: normalized clamped time then the state coordinates.

        ``t`` is one time for every row or an array with one per row; both
        clamp with the same IEEE operations. Acting at the reset state passes
        one time, where numpy's scalar ufuncs would cost more than the rest
        of this; a hold chunk passes its array of times.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim < 2:
            X = X.reshape(1, -1)
        tau = t / self.horizon
        obs = np.empty((X.shape[0], X.shape[1] + 1))
        if isinstance(tau, float):
            obs[:, 0] = min(max(tau, 0.0), 1.0)
        else:
            time_col = obs[:, 0]
            np.maximum(tau, 0.0, out=time_col)
            np.minimum(time_col, 1.0, out=time_col)
        obs[:, 1:] = X
        return obs

    def act_greedy(self, t, x) -> int:
        return int(self.act_greedy_batch(t, np.atleast_2d(x))[0])

    def _terminal(self, X):
        return np.asarray(self.terminal_reward(np.atleast_2d(X)), dtype=np.float64)

    def _init_learner(self, losses):
        """Target copies, one AdamState per prefix in ``adam``, and the loss
        functions a train step runs, in order."""
        self._losses = losses
        self.adam = {}
        for prefix, attr, target in self._nets:
            net = getattr(self, attr)
            if target:
                setattr(self, target, net.copy())
            self.adam[prefix] = AdamState([net.flat], lr=self.lr)

    def sync_target(self):
        for _, attr, target in self._nets:
            if target:
                np.copyto(getattr(self, target).flat, getattr(self, attr).flat)

    def named_params(self) -> dict:
        """Every trained tensor by name: ``theta.w0``, ``zeta.b1``, ``v.w0``, ..."""
        out = {}
        for prefix, attr, _ in self._nets:
            net = getattr(self, attr)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                out[f"{prefix}.w{i}"] = w
                out[f"{prefix}.b{i}"] = b
        return out

    def _update(self, loss_grads, batch) -> float:
        """One Adam step on every network that ``loss_grads`` returns
        gradients for; returns the loss."""
        loss, grads, _ = loss_grads(self, batch)
        for prefix, attr, _ in self._nets:
            if prefix in grads:
                adam_step(self.adam[prefix], [getattr(self, attr).flat],
                          [grads[prefix]])
        return loss

    def train_step(self, batch) -> float:
        """One update per loss function of the kind; returns the summed loss."""
        return sum(self._update(loss_grads, batch) for loss_grads in self._losses)


def _dsup_scales(h, q, advantage_head):
    """(h**q, 1 - h**(1 - q)): the superiority rescaling and, with an
    advantage head, its utility shift (else None). Raises ValueError naming
    q when either power overflows a float."""
    try:
        return h**q, (1.0 - h ** (1.0 - q) if advantage_head else None)
    except OverflowError:
        raise ValueError(f"q={q!r} overflows h**q or h**(1 - q) at h={h!r}") from None


class DsupAgent(_AgentBase):
    """Paired return-quantile and superiority-proxy networks.

    theta maps (t, x) to m return quantiles; phi maps (t, x) to one m-atom
    proxy head per action, plus one scalar advantage head per action when
    ``advantage_head`` is set (the two-timescale variant). The proxy
    difference phi(a) - phi(a*) models the rescaled superiority, so the
    prediction at the greedy action is exactly theta.
    """

    _nets = (("theta", "theta", "theta_target"), ("phi", "phi", None))

    def __init__(self, state_dim: int, n_actions: int, h: float, q: float = 0.5,
                 m: int = 100, risk: DistortionMeasure | None = None,
                 kappa: float = 1.0, advantage_head: bool = False, **base):
        super().__init__(state_dim, n_actions, h, **base)
        self.q = q
        self.advantage_head = advantage_head
        self._scale, self._shift = _dsup_scales(h, q, advantage_head)
        self._init_quantiles(m, risk, kappa)
        self.theta = self._mlp(m)
        self.phi = self._mlp(n_actions * m + (n_actions if advantage_head else 0))
        self._init_learner(
            (dsup_loss_grads, dau_loss_grads) if advantage_head else (dsup_loss_grads,))

    def _phi_split(self, phi_out):
        """(proxy heads per action, advantage per action or None), both
        views into ``phi_out``."""
        k = self.n_actions * self.m
        heads = phi_out[:, :k].reshape(phi_out.shape[0], self.n_actions, self.m)
        return heads, (phi_out[:, k:] if self.advantage_head else None)

    def _utilities(self, heads, adv, shifted: bool):
        util = _risk_utilities(heads, self._risk_w)
        if shifted:
            if adv is None:
                raise ValueError("agent has no advantage head")
            util = util + self._shift * adv
        return util

    def _greedy(self, obs, shifted: bool):
        """(risk-greedy action per row, proxy heads), with the utilities
        shifted by the advantage head when ``shifted``."""
        heads, adv = self._phi_split(self.phi.forward(obs))
        return np.argmax(self._utilities(heads, adv, shifted), axis=1), heads

    def act_greedy_batch(self, t, X) -> np.ndarray:
        return self._greedy(self.observe(t, X), self.advantage_head)[0]

    def _bootstrap(self, obs_next):
        return self.theta_target.forward(obs_next)


class QrdqnAgent(_AgentBase):
    """Quantile-regression baseline: one m-atom head per action, trained with
    the same h-scaled rewards and gamma**h discounting as the superiority
    agents so frequency sweeps compare like with like."""

    _nets = (("zeta", "zeta", "zeta_target"),)

    def __init__(self, state_dim: int, n_actions: int, h: float, m: int = 100,
                 risk: DistortionMeasure | None = None, kappa: float = 1.0, **base):
        super().__init__(state_dim, n_actions, h, **base)
        self._init_quantiles(m, risk, kappa)
        self.zeta = self._mlp(n_actions * m)
        self._init_learner((qrdqn_loss_grads,))

    def _heads(self, net, obs):
        return net.forward(obs).reshape(obs.shape[0], self.n_actions, self.m)

    def act_greedy_batch(self, t, X) -> np.ndarray:
        util = _risk_utilities(self._heads(self.zeta, self.observe(t, X)), self._risk_w)
        return np.argmax(util, axis=1)

    def _bootstrap(self, obs_next):
        """Target-network atoms of the risk-greedy next action."""
        heads = self._heads(self.zeta_target, obs_next)
        a_star = np.argmax(_risk_utilities(heads, self._risk_w), axis=1)
        return heads[np.arange(heads.shape[0]), a_star]


class DauAgent(_AgentBase):
    """Advantage-updating baseline: a scalar value network and a per-action
    advantage network pinned to zero at the greedy action."""

    _nets = (("v", "vnet", "v_target"), ("a", "anet", None))

    def __init__(self, state_dim: int, n_actions: int, h: float, **base):
        super().__init__(state_dim, n_actions, h, **base)
        self.vnet = self._mlp(1)
        self.anet = self._mlp(n_actions)
        self._init_learner((dau_loss_grads,))

    def act_greedy_batch(self, t, X) -> np.ndarray:
        return np.argmax(self.anet.forward(self.observe(t, X)), axis=1)


def explore_action(agent, t, X, eps, coins, random_actions) -> np.ndarray:
    """Batched epsilon-greedy: row k takes ``random_actions[k]`` when
    ``coins[k] < eps[k]`` and otherwise the greedy action at (t[k], X[k]).
    All the greedy rows share one forward; a scalar ``t`` with one state
    ``X`` is every row's state, and its greedy action takes a one-row
    forward; when every row is greedy, ``t`` and ``X`` go to it as they are
    and its actions are returned as they come."""
    explore = coins < eps
    explored = np.count_nonzero(explore)
    if explored == explore.size:  # no greedy row, or no row at all
        return np.array(random_actions, dtype=np.int64)
    scalar = np.ndim(t) == 0
    if not (explored or scalar):
        return np.asarray(agent.act_greedy_batch(t, X), dtype=np.int64)
    actions = np.array(random_actions, dtype=np.int64)
    greedy = ~explore
    if scalar:
        actions[greedy] = agent.act_greedy(t, X)
    else:
        actions[greedy] = agent.act_greedy_batch(t[greedy], X[greedy])
    return actions


def _batch_arrays(agent, batch):
    """(obs, obs_next, a, r, done, g) for a record batch from
    ``ReplayBuffer.sample``: network inputs at (t, x) and (t + h, x'),
    actions, rewards, done flags as 0.0/1.0 and terminal rewards g(x')."""
    if not len(batch):
        raise ValueError("batch must be nonempty")
    t, x_next = batch["t"], batch["x_next"]
    obs = agent.observe(t, batch["x"])
    obs_next = agent.observe(t + agent.h, x_next)
    g = agent._terminal(x_next)
    return obs, obs_next, batch["a"], batch["r"], batch["done"].astype(np.float64), g


def _quantile_targets(agent, obs_next, r, done, g):
    """h r + gamma**h ((1 - done) boot + done g) per row and atom, with the
    bootstrap atoms read from the agent's target network."""
    boot = agent._bootstrap(obs_next)
    return (agent.h * r)[:, None] + agent.gamma_h * (
        (1.0 - done)[:, None] * boot + (done * g)[:, None]
    )


def dsup_loss_grads(agent: DsupAgent, batch, a_star=None):
    """Quantile-Huber loss over a batch plus gradients per network.

    The greedy index is recomputed per batch element from the current phi
    unless one is passed in (gradient checks freeze it); either way it is
    treated as constant inside the update. The bootstrap is read from the
    frozen theta copy. Returns (loss, {"theta": grads, "phi": grads}, a_star).
    """
    obs, obs_next, a_idx, r, done, g = _batch_arrays(agent, batch)
    b = len(a_idx)

    theta_out, theta_cache = agent.theta.forward_cached(obs)
    phi_out, phi_cache = agent.phi.forward_cached(obs)
    heads, adv = agent._phi_split(phi_out)
    if a_star is None:
        util = agent._utilities(heads, adv, shifted=agent.advantage_head)
        a_star = np.argmax(util, axis=1)

    rows = np.arange(b)
    scale = agent._scale
    pred = theta_out + scale * (heads[rows, a_idx] - heads[rows, a_star])

    tgt = _quantile_targets(agent, obs_next, r, done, g)

    loss, grad_pred = kernels.quantile_huber_batch(pred, tgt, agent.kappa)

    theta_grads = agent.theta.backward(theta_cache, grad_pred)
    grad_phi_out = np.zeros_like(phi_out)
    grad_heads, _ = agent._phi_split(grad_phi_out)
    grad_pred *= scale
    grad_heads[rows, a_idx] += grad_pred
    grad_heads[rows, a_star] -= grad_pred
    phi_grads = agent.phi.backward(phi_cache, grad_phi_out)
    return float(loss), {"theta": theta_grads, "phi": phi_grads}, a_star


def qrdqn_loss_grads(agent: QrdqnAgent, batch, a_star=None):
    """Quantile-Huber loss of the taken action's head against the target
    network's risk-greedy atoms, plus gradients for zeta.

    No greedy index at the current state enters this loss; ``a_star`` is
    passed through unchanged so that every loss function has one signature.
    Returns (loss, {"zeta": grads}, a_star).
    """
    obs, obs_next, a_idx, r, done, g = _batch_arrays(agent, batch)
    b = len(a_idx)
    rows = np.arange(b)
    out, cache = agent.zeta.forward_cached(obs)
    heads = out.reshape(b, agent.n_actions, agent.m)
    pred = heads[rows, a_idx]
    tgt = _quantile_targets(agent, obs_next, r, done, g)

    loss, grad_pred = kernels.quantile_huber_batch(pred, tgt, agent.kappa)
    grad_heads = np.zeros_like(heads)
    grad_heads[rows, a_idx] = grad_pred
    grads = agent.zeta.backward(cache, grad_heads.reshape(b, -1))
    return float(loss), {"zeta": grads}, a_star


def dau_loss_grads(agent, batch, a_star=None):
    """Half mean squared Bellman error on Q = V + h A, with gradients.

    For the two-timescale agent, V is read as the mean of theta (a constant
    in this loss) and gradients flow through the advantage head and shared
    phi torso only. The standalone advantage agent owns a scalar V network
    and bootstraps from its frozen copy; both its networks get gradients.
    """
    obs, obs_next, a_idx, r, done, g = _batch_arrays(agent, batch)
    b = len(a_idx)
    shared = isinstance(agent, DsupAgent)
    if shared:
        if not agent.advantage_head:
            raise ValueError("agent has no advantage head")
        phi_out, phi_cache = agent.phi.forward_cached(obs)
        heads, adv = agent._phi_split(phi_out)
        if a_star is None:
            a_star = np.argmax(agent._utilities(heads, adv, shifted=True), axis=1)
        v_now = agent.theta.forward(obs).mean(axis=1)
        v_next = agent.theta.forward(obs_next).mean(axis=1)
    elif isinstance(agent, DauAgent):
        v_out, v_cache = agent.vnet.forward_cached(obs)
        adv, a_cache = agent.anet.forward_cached(obs)
        if a_star is None:
            a_star = np.argmax(adv, axis=1)
        v_now = v_out[:, 0]
        v_next = agent.v_target.forward(obs_next)[:, 0]
    else:
        raise TypeError(f"no advantage update for agent type {type(agent)}")

    rows = np.arange(b)
    h = agent.h
    q = v_now + h * (adv[rows, a_idx] - adv[rows, a_star])
    tq = h * r + agent.gamma_h * ((1.0 - done) * v_next + done * g)
    diff = q - tq
    loss = 0.5 * float(np.mean(diff**2))
    dq = diff / b
    grad_adv = np.zeros_like(adv)
    grad_adv[rows, a_idx] += h * dq
    grad_adv[rows, a_star] -= h * dq
    if shared:
        grad_phi_out = np.zeros_like(phi_out)
        grad_phi_out[:, agent.n_actions * agent.m :] = grad_adv
        return loss, {"phi": agent.phi.backward(phi_cache, grad_phi_out)}, a_star
    v_grads = agent.vnet.backward(v_cache, dq[:, None])
    a_grads = agent.anet.backward(a_cache, grad_adv)
    return loss, {"v": v_grads, "a": a_grads}, a_star


def store_subsampled(buffer: ReplayBuffer, row, done: bool, h: float, rng) -> bool:
    """Bernoulli(h) acceptance of one ``_records`` row whose done flag is
    ``done``; returns whether it was added. A terminal row is always kept
    and draws nothing from ``rng``; a non-terminal row draws one double in
    [0, 1), kept below h (so always when h >= 1).
    The caller hands over the flag, which a window reads as one list: a
    field read on a record row costs more than the rest of this."""
    if not 0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    keep = True if done else rng.random() < h
    if keep:
        buffer.add(row)
    return keep


# TrainConfig's integer fields and their least values.
_TRAIN_COUNTS = (("batch_size", 1), ("buffer_capacity", 1), ("target_period", 0),
                 ("eval_every", 0))


def _train_config_errors(cfg) -> list:
    """One message per TrainConfig field, read from the mapping ``cfg``, that
    train() cannot run with: a count that is not an integer at or above its
    least value (``u % -1`` or ``u % 0.5`` would sync the target every
    update, and an empty batch fails the first update), a batch larger than
    the replay ring (no update is ever taken), evaluation of no episodes
    (it fails inside dist on no samples), and a CVaR level outside (0, 1]
    (the first evaluation fails on it)."""
    errors, valid = [], {}
    for name, least in _TRAIN_COUNTS:
        value = cfg[name]
        valid[name] = _is_integer(value) and value >= least
        if not valid[name]:
            errors.append(f"{name} must be an integer >= {least}, got {value!r}")
    if (valid["batch_size"] and valid["buffer_capacity"]
            and cfg["batch_size"] > cfg["buffer_capacity"]):
        errors.append(f"batch_size must not exceed buffer_capacity, got "
                      f"{cfg['batch_size']} > {cfg['buffer_capacity']}")
    episodes = cfg["eval_episodes"]
    if valid["eval_every"] and cfg["eval_every"] > 0 and not (
            _is_integer(episodes) and episodes >= 1):
        errors.append(f"eval_episodes must be an integer >= 1 when eval_every > 0, "
                      f"got {episodes!r}")
    # Written so that NaN fails it.
    if not 0 < cfg["eval_cvar_alpha"] <= 1:
        errors.append(f"eval_cvar_alpha must be in (0, 1], got {cfg['eval_cvar_alpha']!r}")
    return errors


@dataclass(frozen=True)
class TrainConfig:
    """Replay, target-sync and evaluation settings of train(); a setting it
    cannot train with raises ValueError naming every bad field."""

    batch_size: int = 32
    buffer_capacity: int = 20_000
    target_period: int = 1000
    eval_every: int = 1000
    eval_episodes: int = 100
    eval_cvar_alpha: float = 0.25
    seed: int = 0

    def __post_init__(self):
        errors = _train_config_errors(vars(self))
        if errors:
            raise ValueError("; ".join(errors))


@dataclass(frozen=True)
class TrainRow:
    wall_step: int
    env_time: float
    loss: float
    eval_mean_return: float
    eval_cvar_return: float
    epsilon: float


def evaluate_policy(env, action_fn, episodes: int, rng, h: float, cvar_alpha=0.25):
    """Mean and CVaR of discounted returns over lockstep greedy episodes.

    Terminal payoffs are credited at the end of the decision interval,
    matching the bootstrap-target convention.
    """
    x0 = env.reset(rng)
    X = np.tile(np.atleast_2d(x0), (episodes, 1))
    gains = np.zeros(episodes)
    alive = np.ones(episodes, dtype=bool)
    gamma = env.discount
    t = 0.0
    while alive.any() and t < env.horizon - TIME_TOL:
        idx = np.flatnonzero(alive)
        acts = action_fn(t, X[idx])
        xn, rew, done = env.step_batch(t, X[idx], acts, h, rng)
        gains[idx] += gamma**t * rew * h
        t_end = min(t + h, env.horizon)
        if np.any(done):
            done_idx = idx[done]
            gains[done_idx] += gamma**t_end * np.asarray(
                env.terminal_reward(xn[done]), dtype=np.float64
            )
            alive[done_idx] = False
        X[idx] = xn
        t += h
    returns = EmpiricalDist(gains)
    rep = to_quantile_rep(returns, min(episodes, 512))
    cvar = risk_measure(DistortionMeasure.cvar(cvar_alpha), rep)
    return float(np.mean(gains)), float(cvar), gains


def evaluate(agent, env, episodes: int, rng, cvar_alpha=0.25):
    mean_ret, cvar_ret, _ = evaluate_policy(
        env, agent.act_greedy_batch, episodes, rng, agent.h, cvar_alpha
    )
    return mean_ret, cvar_ret


# Rows of the first greedy forward along an episode; later forwards double.
_FIRST_CHUNK = 8


def _act_window(agent, env, x0, start, noise, eps, coins, random_actions):
    """Run one window of interactions with frozen networks; returns
    (records, next start): one ``_records`` row per interaction, in order,
    and the (t, x) the next window goes on from, or None to start at reset.

    The window fills six columns, one entry per interaction, and turns them
    into one record array at its end. From the window's first reset on,
    every row starts as the outcome of its own action at the reset state,
    so a run of episodes that stop there costs no forward beyond one greedy
    action at reset per window. An episode that holds walks its hold path in
    chunks that double in size, one batched epsilon-greedy over each, and
    writes its rows up to its first stop or the horizon. The env's full
    hold steps (``hold_steps``) are computed once per window, and each chunk
    reads its rows of them. Which actions stop, and their next states and
    rewards, are the env's ``path_outcomes``, which acts row by row.
    """
    h = agent.h
    n = noise.size
    t_col, r_col = np.empty(n), np.empty(n)
    x_col, x_next_col = np.empty((n, x0.size)), np.empty((n, x0.size))
    a_col, done_col = np.empty(n, np.int64), np.empty(n, np.bool_)
    reset_actions = None  # each row's action if it falls at the reset state
    steps = None  # env.hold_steps over the window, from its first hold on
    i = 0
    while i < n:
        known = 0  # leading rows of the chunk whose action is already known
        if start is None:
            if reset_actions is None:
                reset_actions = explore_action(agent, 0.0, x0, eps, coins,
                                               random_actions)
                reset_next, reset_rewards, reset_stop = env.path_outcomes(
                    np.broadcast_to(x0, (n + 1, x0.size)), reset_actions)
                holds_at_reset = np.flatnonzero(~reset_stop).tolist()
                # A hold at reset walks its own hold path below and writes
                # over its rows.
                t_col[i:] = 0.0
                x_col[i:] = x0
                a_col[i:] = reset_actions[i:]
                r_col[i:] = reset_rewards[i:]
                x_next_col[i:] = reset_next[i:]
                done_col[i:] = reset_stop[i:]
            k = bisect.bisect_left(holds_at_reset, i)
            i = holds_at_reset[k] if k < len(holds_at_reset) else n
            if i == n:
                break
            start, known = (0.0, x0), 1
        if steps is None:
            steps = env.hold_steps(noise, h)
        t, x = start
        size = _FIRST_CHUNK
        while True:
            e = min(n, i + size)
            # Times by repeated addition of h, as a per-step clock counts them.
            times = np.full(e - i, h)
            times[0] = t
            np.cumsum(times, out=times)
            X, ends = env.hold_path(times, x, noise[i:e], steps[i:e], h)
            actions = explore_action(
                agent, times[known:], X[known:-1], eps[i + known:e],
                coins[i + known:e], random_actions[i + known:e])
            if known:
                actions = np.concatenate((reset_actions[i:i + known], actions))
                known = 0
            X_next, rewards, stop = env.path_outcomes(X, actions)
            done = stop | ends
            m = int(done.argmax()) + 1
            if not done[m - 1]:
                m = e - i
            t_col[i:i + m] = times[:m]
            x_col[i:i + m] = X[:m]
            a_col[i:i + m] = actions[:m]
            r_col[i:i + m] = rewards[:m]
            x_next_col[i:i + m] = X_next[:m]
            done_col[i:i + m] = done[:m]
            i += m
            if done[m - 1]:
                start = None
                break
            t, x = times[-1] + h, X[-1]
            if i == n:
                start = t, x
                break
            size *= 2
    return _records(t_col, x_col, a_col, r_col, x_next_col, done_col), start


def interactions_per_update(h: float) -> int:
    """Env interactions per gradient step at decision period h: floor(1/h),
    at least one."""
    return max(1, int(math.floor(1.0 / h + 1e-9)))


# glibc's mallopt parameter numbers (malloc.h) and the values train() gives
# them: a few MiB above one update's working set, which is under 2 MiB at the
# criterion-10 shape (m = 100, hidden 100x100, batch 32).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 32 << 20


@functools.cache
def _keep_heap_resident() -> bool:
    """Stop glibc from handing the heap top back to the OS between updates.

    Under glibc's default thresholds the frees at the end of an update leave
    enough free memory at the top of the heap for glibc to return it, and
    the next update faults those pages back in: about 100-230 minor faults
    per update at the criterion-10 shape. Fixing the trim threshold keeps
    them; fixing the mmap threshold too matters because any mallopt call
    freezes glibc's dynamic mmap threshold, which could leave each backward
    pass's gradient vector mmapped and unmapped per call. No computed value
    changes.

    The setting is process-wide and lasts for the life of the process. Where
    mallopt is missing or refuses (musl, macOS, Windows) nothing is set.
    Returns whether both thresholds were set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


def train(agent, env, total_updates: int, cfg: TrainConfig = TrainConfig()):
    """Interleaved interaction and learning, one gradient step per window of
    floor(1/h) env interactions; returns the evaluation log rows.

    The env is an optimal-stopping problem: an episode that holds follows
    ``env.hold_path`` on the steps ``env.hold_steps`` gives for a window's
    noise, ``env.path_outcomes`` says which actions stop it and
    what they lead to, and ``env.reset()`` is one fixed state. The
    networks are frozen within a window, so each window's interactions run
    as one batch (``_act_window``) on four random streams,
    ``substream(cfg.seed, 21, k)``: k = 0 env noise, 1 exploration,
    2 replay subsampling, 3 replay sampling. A window draws one normal per
    interaction whatever the action, then its epsilon-coins, then its
    random actions, one call each. It returns one record array, and one
    loop hands its rows to ``store_subsampled``, one call per interaction,
    in order, each with its done flag.

    The first call fixes glibc's heap thresholds for the whole process
    (``_keep_heap_resident``), so each update reuses resident heap pages.

    Raises TrainingDiverged (with the partial log attached) on a non-finite
    loss, a floating-point overflow or invalid operation, or a
    SimulationError from the env.
    """
    _keep_heap_resident()
    log = []
    if total_updates <= 0:
        return log
    env_rng, explore_rng, subsample_rng, replay_rng = (
        substream(cfg.seed, 21, k) for k in range(4))
    buffer = ReplayBuffer(cfg.buffer_capacity)
    h = agent.h
    ipu = interactions_per_update(h)
    window = np.arange(ipu)
    x0 = env.reset()
    env_steps = 0
    updates = 0
    last_loss = float("nan")
    state = None
    # One errstate for the whole run: an overflow or invalid operation
    # anywhere in it is a divergence, at no per-update cost.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for u in range(total_updates):
                noise = env_rng.standard_normal(ipu)
                coins = explore_rng.random(ipu)
                random_actions = explore_rng.integers(agent.n_actions, size=ipu)
                eps = agent.schedule.epsilon(env_steps + window)
                records, state = _act_window(agent, env, x0, state, noise, eps,
                                             coins, random_actions)
                for row, done in zip(records, records["done"].tolist()):
                    store_subsampled(buffer, row, done, h, subsample_rng)
                env_steps += ipu
                if len(buffer) >= cfg.batch_size:
                    batch = buffer.sample(cfg.batch_size, replay_rng)
                    last_loss = agent.train_step(batch)
                    if not math.isfinite(last_loss):
                        raise TrainingDiverged(f"non-finite loss at update {updates}",
                                               log)
                    updates += 1
                    if cfg.target_period and updates % cfg.target_period == 0:
                        agent.sync_target()
                if cfg.eval_every and (u + 1) % cfg.eval_every == 0:
                    mean_ret, cvar_ret = evaluate(agent, env, cfg.eval_episodes,
                                                  substream(cfg.seed, 22, u),
                                                  cfg.eval_cvar_alpha)
                    log.append(TrainRow(
                        wall_step=u + 1,
                        env_time=env_steps * h,
                        loss=last_loss,
                        eval_mean_return=mean_ret,
                        eval_cvar_return=cvar_ret,
                        epsilon=agent.schedule.epsilon(env_steps),
                    ))
    except (SimulationError, FloatingPointError) as exc:
        raise TrainingDiverged(str(exc), log) from exc
    return log
