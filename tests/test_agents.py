
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctdrl.agents as agents_module
from ctdrl.agents import (
    DauAgent,
    DsupAgent,
    ExplorationSchedule,
    QrdqnAgent,
    ReplayBuffer,
    TrainConfig,
    TrainingDiverged,
    dau_loss_grads,
    dsup_loss_grads,
    evaluate_policy,
    explore_action,
    qrdqn_loss_grads,
    store_subsampled,
    train,
    _batch_arrays,
    _quantile_targets,
    _records,
    _risk_utilities,
)
from ctdrl.ctmdp import SimulationError, substream
from ctdrl.dist import DistortionMeasure
from ctdrl.envs import GbmParams, OptionTradingEnv


def make_agent(m=4, n_actions=2, h=0.25, q=0.5, advantage_head=False, seed=0, **kw):
    return DsupAgent(
        state_dim=1,
        n_actions=n_actions,
        h=h,
        q=q,
        m=m,
        hidden=(8, 8),
        discount=kw.pop("discount", 1.0),
        horizon=kw.pop("horizon", 1.0),
        advantage_head=advantage_head,
        seed=seed,
        **kw,
    )


def pin_heads(agent, theta_bias=None, phi_heads=None, adv=None):
    """Zero every weight so outputs equal the final-layer biases."""
    for net in (agent.theta, agent.phi):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    if theta_bias is not None:
        agent.theta.biases[-1][:] = theta_bias
    if phi_heads is not None:
        flat = np.concatenate([np.asarray(h, dtype=float) for h in phi_heads])
        agent.phi.biases[-1][: flat.size] = flat
    if adv is not None:
        agent.phi.biases[-1][agent.n_actions * agent.m :] = adv
    agent.sync_target()
    return agent


# The fields of a replay record, in order.
FIELDS = ("t", "x", "a", "r", "x_next", "done")


def single_transition(t=0.0, x=0.0, a=0, r=0.0, x_next=0.0, done=False):
    """The replay record row of one transition between one-coordinate states."""
    return _records(t, np.array([x]), a, r, np.array([x_next]), done)[0]


def as_batch(transitions):
    """The record batch of ``transitions`` in order, as a replay ring holds them."""
    buf = ReplayBuffer(len(transitions))
    for tr in transitions:
        buf.add(tr)
    return buf.ring


def per_tensor(net, vec):
    """Views [W0, b0, W1, b1, ...] into a vector laid out like ``net.flat``."""
    weights, biases = net._split(vec)
    return [p for wb in zip(weights, biases) for p in wb]


def greedy(agent, t, x, shifted=False):
    return int(agent._greedy(agent.observe(t, x), shifted)[0][0])


def dsup_prediction(agent, t, x, a):
    """Oracle: theta(t, x) + h**q (phi(t, x, a) - phi(t, x, a*)) at one state."""
    obs = agent.observe(t, x)
    a_star, heads = agent._greedy(obs, agent.advantage_head)
    scale = agent.h**agent.q
    return agent.theta.forward(obs)[0] + scale * (heads[0, a] - heads[0, a_star[0]])


def td_target(agent, tr):
    _, obs_next, _, r, done, g = _batch_arrays(agent, as_batch([tr]))
    return _quantile_targets(agent, obs_next, r, done, g)[0]


# ---------------------------------------------------------------- greedy


def test_greedy_action_tie_breaks_to_lowest_index():
    agent = pin_heads(make_agent())
    assert greedy(agent, 0.1, [0.3]) == 0


def test_greedy_action_follows_means():
    agent = pin_heads(make_agent(m=2), phi_heads=[[1.0, 1.0], [3.0, 3.0]])
    assert greedy(agent, 0.0, [0.0]) == 1


def test_greedy_action_cvar_prefers_light_left_tail():
    agent = make_agent(m=4, risk=DistortionMeasure.cvar(0.25))
    pin_heads(agent, phi_heads=[[0.0, 0.0, 0.0, 0.0], [-2.0, 1.0, 1.0, 1.0]])
    assert greedy(agent, 0.0, [0.0]) == 0
    mean_agent = pin_heads(
        make_agent(m=4), phi_heads=[[0.0, 0.0, 0.0, 0.0], [-2.0, 1.0, 1.0, 1.0]]
    )
    assert greedy(mean_agent, 0.0, [0.0]) == 1


def explore_rows(agent, rng, steps):
    """explore_action over ``steps`` rows at (0, [0]), with fresh coins and
    random actions drawn from ``rng``."""
    n = steps.size
    return explore_action(agent, np.zeros(n), np.zeros((n, 1)),
                          agent.schedule.epsilon(steps), rng.random(n),
                          rng.integers(agent.n_actions, size=n))


def test_explore_action_endpoints():
    agent = pin_heads(make_agent(m=2), phi_heads=[[1.0, 1.0], [3.0, 3.0]])
    rng = np.random.default_rng(0)
    agent.schedule = ExplorationSchedule(0.0, 0.0, 1)
    assert all(explore_rows(agent, rng, np.arange(20)) == 1)

    agent.schedule = ExplorationSchedule(1.0, 1.0, 10**9)
    counts = np.bincount(explore_rows(agent, rng, np.arange(10_000)), minlength=2)
    chi2 = np.sum((counts - 5000.0) ** 2 / 5000.0)
    assert chi2 < 6.635  # dof 1 critical value at p = 0.01


class GreedyCallAgent:
    """Greedy action 1 everywhere, with each greedy call recorded as
    (method, rows)."""

    def __init__(self):
        self.calls = []

    def act_greedy_batch(self, t, X):
        self.calls.append(("batch", len(X)))
        return np.ones(len(X), dtype=np.int64)

    def act_greedy(self, t, x):
        self.calls.append(("one", 1))
        return 1


@pytest.mark.parametrize("t, coins, calls", [
    pytest.param(np.zeros(4), [0.0, 0.0, 0.0, 0.0], [], id="every_row_explores"),
    pytest.param(np.zeros(0), [], [], id="no_rows"),
    pytest.param(np.zeros(4), [0.9, 0.9, 0.9, 0.9], [("batch", 4)], id="every_row_greedy"),
    pytest.param(np.zeros(4), [0.0, 0.9, 0.0, 0.9], [("batch", 2)], id="mixed"),
    pytest.param(0.0, [0.9, 0.0, 0.9, 0.0], [("one", 1)], id="one_state"),
])
def test_explore_action_forwards_only_its_greedy_rows(t, coins, calls):
    agent = GreedyCallAgent()
    coins = np.array(coins)
    random_actions = np.zeros(coins.size, dtype=np.int64)
    X = np.zeros((np.size(t), 1)) if np.ndim(t) else np.zeros(1)
    actions = explore_action(agent, t, X, np.full(coins.size, 0.5), coins, random_actions)
    assert agent.calls == calls
    assert actions.dtype == np.int64 and actions is not random_actions
    np.testing.assert_array_equal(actions, coins >= 0.5)


def scalar_epsilon(schedule, step):
    """The per-step schedule formula, on Python floats."""
    if schedule.decay_steps <= 0:
        return schedule.eps_end
    frac = min(1.0, max(0.0, step / schedule.decay_steps))
    return schedule.eps_start + (schedule.eps_end - schedule.eps_start) * frac


@pytest.mark.parametrize("schedule", [
    ExplorationSchedule(1.0, 0.02, 1000),
    ExplorationSchedule(0.7, 0.1, 333),
    ExplorationSchedule(0.3, 0.9, 7),
    ExplorationSchedule(1.0, 0.02, 0),
    ExplorationSchedule(1.0, 0.05, -5),
])
def test_schedule_epsilon_arrays_match_scalar_form(schedule):
    steps = np.arange(3 * max(schedule.decay_steps, 10) + 1)
    expected = np.array([scalar_epsilon(schedule, int(s)) for s in steps])
    got = schedule.epsilon(steps)
    assert got.dtype == np.float64 and got.shape == steps.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    for s in steps[:: max(1, steps.size // 50)]:
        value = schedule.epsilon(int(s))
        assert type(value) is float
        assert value == scalar_epsilon(schedule, int(s))
    window = schedule.epsilon(steps[5:25].reshape(4, 5))
    assert np.array_equal(window, expected[5:25].reshape(4, 5))


def test_schedule_decay_shape():
    sched = ExplorationSchedule(1.0, 0.02, 1000)
    assert sched.epsilon(0) == 1.0
    eps = [sched.epsilon(s) for s in range(0, 3000, 50)]
    assert all(a >= b for a, b in zip(eps, eps[1:]))
    assert sched.epsilon(1000) == pytest.approx(0.02)
    assert sched.epsilon(250_000) == pytest.approx(0.02)


# ------------------------------------------------------------- predictions


def test_dsup_prediction_pins_to_theta_at_greedy():
    for head in (False, True):
        agent = make_agent(m=6, advantage_head=head, seed=3)
        t, x = 0.3, [0.7]
        a_star = greedy(agent, t, x, shifted=head)
        pred = dsup_prediction(agent, t, x, a_star)
        theta = agent.theta.forward(agent.observe(t, x))[0]
        np.testing.assert_array_equal(pred, theta)


def test_dsup_prediction_h_one_drops_rescale():
    agent = make_agent(m=2, h=1.0, q=0.77)
    pin_heads(agent, theta_bias=[0.5, 0.5], phi_heads=[[1.0, 2.0], [4.0, 3.0]])
    # utilities 1.5 vs 3.5 so the greedy head is index 1
    pred = dsup_prediction(agent, 0.0, [0.0], 0)
    np.testing.assert_allclose(pred, [0.5 + (1 - 4), 0.5 + (2 - 3)])


def test_dsup_prediction_hand_value_with_shifted_greedy():
    # theta = 0, phi = ([2,2], [1,1]), advantage pushes the greedy index to the
    # low head; prediction at the other action is 0.25**0.5 * ([2,2]-[1,1])
    agent = make_agent(m=2, h=0.25, q=0.5, advantage_head=True)
    pin_heads(agent, phi_heads=[[2.0, 2.0], [1.0, 1.0]], adv=[0.0, 10.0])
    assert greedy(agent, 0.0, [0.0], shifted=True) == 1
    pred = dsup_prediction(agent, 0.0, [0.0], 0)
    np.testing.assert_allclose(pred, [0.5, 0.5])


def test_dsup_target_examples():
    agent = make_agent(m=3, h=0.5, discount=1.0)
    pin_heads(agent)
    done_zero = td_target(agent, single_transition(a=0, r=0.0, done=True))
    np.testing.assert_array_equal(done_zero, 0.0)

    agent2 = make_agent(m=3, h=0.5, discount=0.9)
    pin_heads(agent2, theta_bias=[2.0, 2.0, 2.0])
    tgt = td_target(agent2, single_transition(r=3.0, done=False))
    np.testing.assert_allclose(tgt, 0.5 * 3.0 + 0.9**0.5 * 2.0)

    agent3 = DsupAgent(
        state_dim=1, n_actions=2, h=0.5, q=0.5, m=2, hidden=(4,),
        discount=1.0, horizon=1.0, seed=0,
        terminal_reward=lambda X: np.ones(np.atleast_2d(X).shape[0]),
    )
    tgt3 = td_target(agent3, single_transition(r=2.0, done=True))
    np.testing.assert_allclose(tgt3, 2.0)  # 0.5*2 + 1*1


def test_dsup_update_zero_loss_leaves_params_unchanged():
    agent = make_agent(m=3, h=0.5, discount=1.0)
    pin_heads(agent, theta_bias=[1.0, 1.0, 1.0])
    tr = single_transition(a=0, r=0.0, done=False)
    before = [agent.theta.flat.copy(), agent.phi.flat.copy()]
    loss = agent.train_step(as_batch([tr]))
    assert loss == 0.0
    np.testing.assert_array_equal(agent.theta.flat, before[0])
    np.testing.assert_array_equal(agent.phi.flat, before[1])


def test_dsup_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    agent = make_agent(m=5, h=0.25, q=0.5, seed=4)
    batch = as_batch([
        single_transition(t=0.0, x=0.2, a=0, r=0.4, x_next=0.3, done=False),
        single_transition(t=0.25, x=-0.5, a=1, r=-0.2, x_next=0.1, done=True),
    ])
    loss, grads, a_star = dsup_loss_grads(agent, batch)
    step = 1e-5
    for net_name, net in (("theta", agent.theta), ("phi", agent.phi)):
        for gi, p in zip(per_tensor(net, grads[net_name]), per_tensor(net, net.flat)):
            flat_g = gi.ravel()
            flat_p = p.ravel()
            check = rng.choice(flat_p.size, size=min(10, flat_p.size), replace=False)
            for idx in check:
                old = flat_p[idx]
                flat_p[idx] = old + step
                up = dsup_loss_grads(agent, batch, a_star)[0]
                flat_p[idx] = old - step
                down = dsup_loss_grads(agent, batch, a_star)[0]
                flat_p[idx] = old
                fd = (up - down) / (2 * step)
                assert flat_g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_qrdqn_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    agent = QrdqnAgent(state_dim=1, n_actions=2, h=0.25, m=5, hidden=(6,),
                       discount=0.99, horizon=1.0, seed=4)
    batch = as_batch([
        single_transition(t=0.0, x=0.2, a=0, r=0.4, x_next=0.3, done=False),
        single_transition(t=0.25, x=-0.5, a=1, r=-0.2, x_next=0.1, done=True),
        single_transition(t=0.5, x=0.6, a=1, r=0.9, x_next=0.7, done=False),
    ])
    loss, grads, a_star = qrdqn_loss_grads(agent, batch)
    assert list(grads) == ["zeta"] and a_star is None
    step = 1e-5
    zeta = agent.zeta
    for gi, p in zip(per_tensor(zeta, grads["zeta"]), per_tensor(zeta, zeta.flat)):
        flat_g, flat_p = gi.ravel(), p.ravel()
        check = rng.choice(flat_p.size, size=min(10, flat_p.size), replace=False)
        for idx in check:
            old = flat_p[idx]
            flat_p[idx] = old + step
            up = qrdqn_loss_grads(agent, batch)[0]
            flat_p[idx] = old - step
            down = qrdqn_loss_grads(agent, batch)[0]
            flat_p[idx] = old
            fd = (up - down) / (2 * step)
            assert flat_g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_dsup_overfits_single_transition():
    agent = make_agent(m=4, h=0.5, lr=3e-3, seed=5)
    tr = single_transition(a=1, r=1.0, x_next=0.4, done=True)
    batch = as_batch([tr])
    losses = [agent.train_step(batch) for _ in range(400)]
    tail = losses[50:]
    assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
    assert losses[-1] < 0.05 * losses[0]


# ------------------------------------------------------------------- dau


def test_dau_fixpoint_has_zero_loss():
    h, gamma, r = 0.5, 0.999, 1.0
    v_star = h * r / (1.0 - gamma**h)
    agent = DauAgent(state_dim=1, n_actions=2, h=h, hidden=(4,), discount=gamma,
                     horizon=1.0, seed=0)
    for net in (agent.vnet, agent.anet):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
    agent.vnet.biases[-1][:] = v_star
    agent.sync_target()
    tr = single_transition(a=0, r=r, done=False)
    loss, _, _ = dau_loss_grads(agent, as_batch([tr]))
    assert loss == pytest.approx(0.0, abs=1e-24)


def test_dau_advantage_is_pinned_at_greedy():
    agent = DauAgent(state_dim=1, n_actions=3, h=0.25, hidden=(8,), discount=1.0,
                     horizon=1.0, seed=1)
    obs = agent.observe(0.2, [0.5])
    a_star = int(np.argmax(agent.anet.forward(obs), axis=1)[0])
    tr = single_transition(t=0.2, x=0.5, a=a_star, r=0.3, x_next=0.5, done=False)
    loss, _, _ = dau_loss_grads(agent, as_batch([tr]))
    v = agent.vnet.forward(obs)[0, 0]
    v_next = agent.v_target.forward(agent.observe(0.45, [0.5]))[0, 0]
    tq = 0.25 * 0.3 + v_next
    assert loss == pytest.approx(0.5 * (v - tq) ** 2, rel=1e-12)


def test_dau_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    step = 1e-5
    batch = as_batch([
        single_transition(t=0.0, x=0.3, a=1, r=0.5, x_next=0.2, done=False),
        single_transition(t=0.25, x=-0.2, a=0, r=0.1, x_next=0.0, done=True),
    ])

    agent = DauAgent(state_dim=1, n_actions=2, h=0.25, hidden=(6,), discount=0.99,
                     horizon=1.0, seed=2)
    loss, grads, a_star = dau_loss_grads(agent, batch)
    for name, net in (("v", agent.vnet), ("a", agent.anet)):
        for gi, p in zip(per_tensor(net, grads[name]), per_tensor(net, net.flat)):
            flat_g, flat_p = gi.ravel(), p.ravel()
            check = rng.choice(flat_p.size, size=min(8, flat_p.size), replace=False)
            for idx in check:
                old = flat_p[idx]
                flat_p[idx] = old + step
                up = dau_loss_grads(agent, batch, a_star)[0]
                flat_p[idx] = old - step
                down = dau_loss_grads(agent, batch, a_star)[0]
                flat_p[idx] = old
                fd = (up - down) / (2 * step)
                assert flat_g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    shared = make_agent(m=4, advantage_head=True, seed=3, discount=0.99)
    loss, grads, a_star = dau_loss_grads(shared, batch)
    phi = shared.phi
    for gi, p in zip(per_tensor(phi, grads["phi"]), per_tensor(phi, phi.flat)):
        flat_g, flat_p = gi.ravel(), p.ravel()
        check = rng.choice(flat_p.size, size=min(8, flat_p.size), replace=False)
        for idx in check:
            old = flat_p[idx]
            flat_p[idx] = old + step
            up = dau_loss_grads(shared, batch, a_star)[0]
            flat_p[idx] = old - step
            down = dau_loss_grads(shared, batch, a_star)[0]
            flat_p[idx] = old
            fd = (up - down) / (2 * step)
            assert flat_g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_dau_update_requires_advantage_capable_agent():
    plain = make_agent()
    with pytest.raises(ValueError):
        dau_loss_grads(plain, as_batch([single_transition()]))
    qr = QrdqnAgent(state_dim=1, n_actions=2, h=0.25, m=4, hidden=(4,), seed=0)
    with pytest.raises(TypeError):
        dau_loss_grads(qr, as_batch([single_transition()]))


# --------------------------------------------------------------- shifted


def test_shifted_greedy_equals_plain_greedy_at_q_one():
    agent = make_agent(m=5, h=0.3, q=1.0, advantage_head=True, seed=6)
    rng = np.random.default_rng(0)
    for _ in range(25):
        t = float(rng.uniform(0, 1))
        x = [float(rng.normal())]
        assert greedy(agent, t, x, shifted=True) == greedy(agent, t, x)


def test_shifted_greedy_follows_dominant_advantage():
    agent = make_agent(m=3, h=0.01, q=0.5, advantage_head=True)
    pin_heads(agent, adv=[0.0, 5.0])
    assert greedy(agent, 0.0, [0.0], shifted=True) == 1
    assert greedy(agent, 0.0, [0.0]) == 0


def test_shifted_greedy_hand_computed():
    agent = make_agent(m=2, h=0.01, q=0.5, advantage_head=True)
    pin_heads(agent, phi_heads=[[1.0, 1.0], [0.0, 0.0]], adv=[0.0, 30.0])
    # shift factor 1 - 0.01**0.5 = 0.9: utilities 1.0 vs 0 + 27
    assert greedy(agent, 0.0, [0.0], shifted=True) == 1


def test_shifted_greedy_requires_head():
    with pytest.raises(ValueError):
        greedy(make_agent(), 0.0, [0.0], shifted=True)


# ----------------------------------------------------------------- replay


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(3)
    for i in range(5):
        buf.add(single_transition(r=float(i)))
    assert len(buf) == 3
    stored = sorted(buf.ring["r"][: len(buf)])
    assert stored == [2.0, 3.0, 4.0]
    rng = np.random.default_rng(0)
    sample = buf.sample(10, rng)
    assert len(sample) == 10


# A capacity that is not an integer used to construct, and the first add
# then failed inside numpy.
@pytest.mark.parametrize("capacity", [0, -3, 2.5, 2.0, math.nan, math.inf, True, "4"])
def test_replay_buffer_rejects_a_capacity_that_is_not_a_positive_integer(capacity):
    with pytest.raises(ValueError, match=r"^capacity must be an integer >= 1, got "):
        ReplayBuffer(capacity)


def test_replay_buffer_takes_a_numpy_integer_capacity():
    buf = ReplayBuffer(np.int64(2))
    buf.add(single_transition())
    assert len(buf) == 1


class ListRing:
    """Ring of record rows in a list: the slot order ReplayBuffer keeps,
    so the same rng draws pick the same transitions."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.pos = 0

    def add(self, tr):
        if len(self.items) < self.capacity:
            self.items.append(tr)
        else:
            self.items[self.pos] = tr
            self.pos = (self.pos + 1) % self.capacity

    def sample(self, k, rng):
        idx = rng.integers(0, len(self.items), size=k)
        return [self.items[i] for i in idx]


def batch_arrays_oracle(agent, batch):
    """Per-transition network inputs and terminal rewards, concatenated."""

    def observe(t, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        tau = min(max(t / agent.horizon, 0.0), 1.0)
        return np.concatenate([np.full((X.shape[0], 1), tau), X], axis=1)

    obs = np.concatenate([observe(tr["t"], tr["x"]) for tr in batch])
    obs_next = np.concatenate([observe(tr["t"] + agent.h, tr["x_next"]) for tr in batch])
    a_idx = np.array([tr["a"] for tr in batch])
    r = np.array([tr["r"] for tr in batch])
    done = np.array([float(tr["done"]) for tr in batch])
    g = np.concatenate([agent._terminal(tr["x_next"]) for tr in batch])
    return obs, obs_next, a_idx, r, done, g


def random_transitions(rng, n, state_dim=2, horizon=1.0):
    # times run past the horizon so the clamp of the time input is exercised
    return [
        _records(
            float(rng.uniform(0.0, 1.3 * horizon)),
            rng.normal(size=state_dim) + 1.0,
            int(rng.integers(3)),
            float(rng.normal()),
            rng.normal(size=state_dim) + 1.0,
            bool(rng.random() < 0.3),
        )[0]
        for _ in range(n)
    ]


def assert_same_transitions(batch, transitions):
    for name in FIELDS:
        np.testing.assert_array_equal(batch[name], [tr[name] for tr in transitions])


def test_replay_buffer_samples_what_the_list_ring_samples():
    rng = np.random.default_rng(13)
    transitions = random_transitions(rng, 23)
    buf, oracle = ReplayBuffer(7), ListRing(7)
    for n_added, tr in enumerate(transitions, start=1):
        buf.add(tr)
        oracle.add(tr)
        assert len(buf) == len(oracle.items)
        if n_added in (1, 4, 7, 8, 15, 23):  # before, at and after wrap-around
            seed = 100 + n_added
            got = buf.sample(11, np.random.default_rng(seed))
            want = oracle.sample(11, np.random.default_rng(seed))
            assert got.shape == (11,) and got.dtype == buf.ring.dtype
            assert not np.shares_memory(got, buf.ring)
            assert_same_transitions(got, want)
            assert got["a"].dtype == np.int64 and got["done"].dtype == np.bool_
    assert buf.ring.dtype.names == FIELDS
    assert [buf.ring.dtype[name] for name in ("t", "r")] == [np.float64] * 2
    assert buf.ring.dtype["x"].shape == buf.ring.dtype["x_next"].shape == (2,)


def test_replay_buffer_copies_on_insert():
    x = np.array([1.0, 2.0])
    buf = ReplayBuffer(4)
    rows = _records(0.0, x, 0, 0.0, x, False)
    buf.add(rows[0])
    rows["x"] = rows["x_next"] = -1.0
    np.testing.assert_array_equal(buf.ring["x"][0], [1.0, 2.0])
    np.testing.assert_array_equal(buf.ring["x_next"][0], [1.0, 2.0])


def test_batch_arrays_match_per_transition_oracle_bitwise():
    env = OptionTradingEnv(GbmParams(0.0, 0.2), horizon=1.0)
    common = dict(state_dim=2, n_actions=3, h=0.3, hidden=(5,), discount=0.97,
                  horizon=1.0, terminal_reward=env.terminal_reward, seed=0)
    kinds = [
        DsupAgent(m=4, advantage_head=True, **common),
        QrdqnAgent(m=4, **common),
        DauAgent(**common),
    ]
    rng = np.random.default_rng(14)
    buf, oracle = ReplayBuffer(16), ListRing(16)
    for tr in random_transitions(rng, 40):
        buf.add(tr)
        oracle.add(tr)
    for agent in kinds:
        for seed in range(3):
            sample = buf.sample(32, np.random.default_rng(seed))
            listed = oracle.sample(32, np.random.default_rng(seed))
            want = batch_arrays_oracle(agent, listed)
            got = _batch_arrays(agent, sample)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w)


def test_store_subsampled_rules():
    rng = np.random.default_rng(1)
    buf = ReplayBuffer(10**6)
    for _ in range(50):
        assert store_subsampled(buf, single_transition(done=False), False, 1.0, rng)
        assert store_subsampled(buf, single_transition(done=True), True, 1e-9, rng)
    for h in (0.0, -0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            store_subsampled(buf, single_transition(), False, h, rng)

    kept = 0
    offers = 100_000
    for _ in range(offers):
        kept += store_subsampled(buf, single_transition(done=False), False, 0.1, rng)
    assert abs(kept / offers - 0.1) < 0.01


def test_store_subsampled_draws_one_double_per_non_terminal_row():
    """The stream rule a batched coin array must reproduce: a terminal row
    draws nothing and is kept, and a non-terminal row draws exactly one
    double and is kept when it falls below min(1, h), whatever h is."""
    rows = _records(np.arange(6) * 0.25, np.ones((6, 1)), [1, 0, 0, 1, 0, 1], np.zeros(6),
                    np.full((6, 1), 2.0), [True, False, False, True, False, True])
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    buf = ReplayBuffer(64)
    for h in (1e-9, 0.3, 1.0, 4.0):
        for row in rows:
            kept = store_subsampled(buf, row, bool(row["done"]), h, rng)
            assert kept == (row["done"] or twin.random() < min(1.0, h))
            assert rng.bit_generator.state == twin.bit_generator.state
    np.testing.assert_array_equal(buf.ring["done"][:3], [True, True, True])
    # the flag handed over decides, not the row's own field
    assert store_subsampled(buf, rows[1], True, 1e-9, rng)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("h", [0.0, -0.25, np.nan, np.inf, -np.inf])
def test_every_agent_kind_rejects_nonpositive_h(h):
    for cls in (DsupAgent, QrdqnAgent, DauAgent):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            cls(state_dim=1, n_actions=2, h=h, hidden=(4,))


def test_dsup_rejects_a_q_whose_power_overflows():
    common = dict(state_dim=1, n_actions=2, h=0.2, m=3, hidden=(4,))
    with pytest.raises(ValueError, match=r"q=-700\.0 overflows h\*\*q"):
        DsupAgent(q=-700.0, **common)
    with pytest.raises(ValueError, match=r"q=700\.0 overflows h\*\*q"):
        DsupAgent(q=700.0, advantage_head=True, **common)
    # without the advantage head only h**q is taken, and it underflows to 0
    agent = DsupAgent(q=700.0, **common)
    assert agent._scale == 0.0 and agent._shift is None


def test_sync_target_copies_into_the_target_views():
    agents = [
        (make_agent(m=3, seed=15), "theta", "theta_target"),
        (QrdqnAgent(state_dim=1, n_actions=2, h=0.25, m=3, hidden=(4,), seed=15),
         "zeta", "zeta_target"),
        (DauAgent(state_dim=1, n_actions=2, h=0.25, hidden=(4,), seed=15),
         "vnet", "v_target"),
    ]
    for agent, online_name, target_name in agents:
        online = getattr(agent, online_name)
        online.flat += 0.5
        agent.sync_target()
        target = getattr(agent, target_name)
        np.testing.assert_array_equal(target.flat, online.flat)
        assert not np.shares_memory(target.flat, online.flat)
        for p in target.weights + target.biases:
            assert np.shares_memory(p, target.flat)
        for p in online.weights + online.biases:
            assert np.shares_memory(p, online.flat)


def test_named_params_names_and_views():
    qr = QrdqnAgent(state_dim=1, n_actions=2, h=0.25, m=3, hidden=(4,), seed=0)
    dau = DauAgent(state_dim=1, n_actions=2, h=0.25, hidden=(4,), seed=0)
    cases = [
        (make_agent(), ["theta", "phi"], ["theta", "phi"]),
        (qr, ["zeta"], ["zeta"]),
        (dau, ["v", "a"], ["vnet", "anet"]),
    ]
    for agent, prefixes, attrs in cases:
        named = agent.named_params()
        nets = [getattr(agent, attr) for attr in attrs]
        assert list(named) == [
            f"{prefix}.{kind}{i}"
            for prefix, net in zip(prefixes, nets)
            for i in range(len(net.weights))
            for kind in "wb"
        ]
        for prefix, net in zip(prefixes, nets):
            for i in range(len(net.weights)):
                assert named[f"{prefix}.w{i}"] is net.weights[i]
                assert named[f"{prefix}.b{i}"] is net.biases[i]


# -------------------------------------------------------- structure checks


def test_qrdqn_target_reduces_to_dsup_target_on_shared_bootstrap():
    # with every action head of the target network equal, the next-state
    # greedy selection is irrelevant and both targets are the h-scaled
    # quantile TD target
    m, h = 4, 0.5
    common = np.array([0.3, 0.6, 0.9, 1.2])
    qr = QrdqnAgent(state_dim=1, n_actions=2, h=h, m=m, hidden=(6,), discount=0.99,
                    horizon=1.0, seed=0)
    for w in qr.zeta.weights:
        w[:] = 0.0
    for b in qr.zeta.biases:
        b[:] = 0.0
    qr.zeta.biases[-1][:] = np.concatenate([common, common])
    qr.sync_target()

    ds = make_agent(m=m, h=h, discount=0.99)
    pin_heads(ds, theta_bias=common)

    for tr in (
        single_transition(r=0.7, done=False),
        single_transition(r=0.0, x_next=0.5, done=True),
    ):
        np.testing.assert_array_equal(td_target(qr, tr), td_target(ds, tr))


def test_rescale_consistency_of_prediction_family():
    # positional transport gap of the predicted return family equals h**q
    # times the gap of the proxy-difference family
    agent = make_agent(m=6, n_actions=3, h=0.25, q=0.5, seed=7)
    t, x = 0.4, [0.2]
    obs = agent.observe(t, x)
    heads, _ = agent._phi_split(agent.phi.forward(obs))
    a_star = greedy(agent, t, x)
    preds = [dsup_prediction(agent, t, x, a) for a in range(3)]
    deltas = [heads[0, a] - heads[0, a_star] for a in range(3)]
    for p in (1, 2):
        for i in range(3):
            for j in range(i + 1, 3):
                gap_pred = float(np.mean(np.abs(preds[i] - preds[j]) ** p) ** (1 / p))
                gap_delta = float(np.mean(np.abs(deltas[i] - deltas[j]) ** p) ** (1 / p))
                assert gap_pred == pytest.approx(0.25**0.5 * gap_delta, rel=1e-12, abs=1e-15)


def test_updates_are_bitwise_reproducible():
    batch = as_batch([
        single_transition(t=0.0, x=0.1, a=0, r=0.2, x_next=0.15, done=False),
        single_transition(t=0.25, x=0.4, a=1, r=-0.1, x_next=0.0, done=True),
    ])
    agents_pair = [make_agent(m=5, seed=11, advantage_head=True) for _ in range(2)]
    for agent in agents_pair:
        for _ in range(3):
            agent.train_step(batch)
    np.testing.assert_array_equal(agents_pair[0].phi.flat, agents_pair[1].phi.flat)
    np.testing.assert_array_equal(agents_pair[0].theta.flat, agents_pair[1].theta.flat)


def test_no_gradient_reaches_target_network():
    agent = make_agent(m=5, seed=12)
    batch = as_batch([single_transition(a=1, r=0.3, x_next=0.2, done=False)])
    before = agent.theta_target.flat.copy()
    for _ in range(5):
        agent.train_step(batch)
    np.testing.assert_array_equal(agent.theta_target.flat, before)


# ------------------------------------------------------------------ train


class BanditEnv:
    """One decision per episode from state 0: holding (action 0) moves the
    state to 1 and stopping (action 1) leaves it at 0, so the next state
    records 1 - a and the terminal reward 1 - x' reads the action back."""

    horizon = 1.0
    discount = 1.0
    n_actions = 2
    state_dim = 1

    def reset(self, rng=None):
        return np.zeros(1)

    def hold_steps(self, noise, h):
        return noise

    def hold_path(self, times, x, noise, steps, h):
        X = np.ones((times.size + 1, 1))
        X[0] = x
        return X, np.ones(times.size, dtype=bool)

    def path_outcomes(self, X, actions):
        stop = np.asarray(actions) == 1
        return np.where(stop[:, None], X[:-1], X[1:]), np.zeros(stop.size), stop

    def step_batch(self, t, X, actions, h, rng):
        X = np.atleast_2d(X)
        nxt = 1.0 - np.asarray(actions, dtype=float).reshape(-1, 1)
        return nxt, np.zeros(X.shape[0]), np.ones(X.shape[0], dtype=bool)

    def terminal_reward(self, X):
        return 1.0 - np.atleast_2d(X)[:, 0]


@pytest.mark.parametrize("fields, named", [
    # the replay gate len(buffer) >= batch_size never opens: zero updates
    pytest.param(dict(batch_size=33, buffer_capacity=32),
                 ["batch_size", "buffer_capacity"], id="batch_over_capacity"),
    # u % -1 == 0 would sync the target every update
    pytest.param(dict(target_period=-1), ["target_period"], id="negative_target_period"),
    pytest.param(dict(target_period=0.5), ["target_period"], id="fractional_target_period"),
    pytest.param(dict(batch_size=True, eval_every=2.0), ["batch_size", "eval_every"],
                 id="bool_batch_and_float_eval_every"),
    # the first update would fail with "batch must be nonempty"
    pytest.param(dict(batch_size=0), ["batch_size"], id="empty_batch"),
    pytest.param(dict(buffer_capacity=0), ["buffer_capacity"], id="empty_buffer"),
    # the first evaluation would fail inside dist on no samples
    pytest.param(dict(eval_every=10, eval_episodes=0), ["eval_episodes"],
                 id="evaluation_of_no_episodes"),
    pytest.param(dict(eval_every=10, eval_episodes=2.5), ["eval_episodes"],
                 id="fractional_episode_count"),
    pytest.param(dict(eval_every=-2), ["eval_every"], id="negative_eval_every"),
    pytest.param(dict(batch_size=0, target_period=-1, eval_every=5, eval_episodes=0),
                 ["batch_size", "target_period", "eval_episodes"], id="three_at_once"),
    # the first evaluation would fail on the CVaR level, dropping the log
    pytest.param(dict(eval_every=2, eval_episodes=2, eval_cvar_alpha=0.0),
                 ["eval_cvar_alpha"], id="cvar_level_zero"),
    pytest.param(dict(eval_cvar_alpha=math.nan), ["eval_cvar_alpha"], id="cvar_level_nan"),
    pytest.param(dict(eval_cvar_alpha=1.5), ["eval_cvar_alpha"], id="cvar_level_over_one"),
])
def test_train_config_rejects_what_train_cannot_run(fields, named):
    with pytest.raises(ValueError) as exc:
        TrainConfig(**fields)
    assert [name for name in named if name not in str(exc.value)] == []


def test_train_config_takes_the_edges_train_can_run():
    TrainConfig(batch_size=32, buffer_capacity=32, target_period=0)
    TrainConfig(batch_size=1, buffer_capacity=1, eval_every=0, eval_episodes=0)
    TrainConfig(eval_every=1, eval_episodes=1, eval_cvar_alpha=1.0)
    TrainConfig(eval_cvar_alpha=1e-300)


def test_train_zero_updates_empty_log():
    env = BanditEnv()
    agent = make_agent(h=1.0, horizon=1.0, terminal_reward=env.terminal_reward)
    assert train(agent, env, 0) == []


def test_train_learns_bandit():
    env = BanditEnv()
    agent = DsupAgent(
        state_dim=1, n_actions=2, h=1.0, q=0.5, m=8, hidden=(16, 16),
        lr=5e-3, discount=1.0, horizon=1.0,
        terminal_reward=env.terminal_reward,
        schedule=ExplorationSchedule(1.0, 0.02, 100),
        seed=0,
    )
    cfg = TrainConfig(batch_size=16, buffer_capacity=500, target_period=25,
                      eval_every=0, seed=0)
    train(agent, env, 300, cfg)
    assert agent.act_greedy(0.0, [0.0]) == 1


def test_train_is_seed_reproducible():
    env = BanditEnv()

    def run():
        agent = DsupAgent(
            state_dim=1, n_actions=2, h=1.0, q=0.5, m=4, hidden=(8,),
            lr=1e-3, discount=1.0, horizon=1.0,
            terminal_reward=env.terminal_reward,
            schedule=ExplorationSchedule(1.0, 0.1, 50), seed=3,
        )
        cfg = TrainConfig(batch_size=8, buffer_capacity=100, target_period=20,
                          eval_every=25, eval_episodes=10, seed=3)
        return train(agent, env, 100, cfg), agent

    log_a, agent_a = run()
    log_b, agent_b = run()
    assert log_a == log_b
    np.testing.assert_array_equal(agent_a.theta.flat, agent_b.theta.flat)


def test_train_aborts_on_divergence_with_partial_log():
    class InfEnv(BanditEnv):
        def terminal_reward(self, X):
            return np.full(np.atleast_2d(X).shape[0], np.inf)

    env = InfEnv()
    agent = DsupAgent(
        state_dim=1, n_actions=2, h=1.0, q=0.5, m=4, hidden=(8,), lr=1e-3,
        discount=1.0, horizon=1.0, terminal_reward=env.terminal_reward, seed=0,
    )
    cfg = TrainConfig(batch_size=4, buffer_capacity=100, target_period=100,
                      eval_every=0, seed=0)
    with pytest.raises(TrainingDiverged):
        train(agent, env, 50, cfg)


@pytest.mark.parametrize("method", ["hold_path", "step_batch"])
def test_train_turns_env_simulation_error_into_divergence(method):
    # the env fails on its second call of `method`: hold_path in a later
    # window of acting, step_batch in the second evaluation; either way the
    # first evaluation's row is kept
    class FailingEnv(BanditEnv):
        calls = 0

        def fail_second(self, *args):
            self.calls += 1
            if self.calls == 2:
                raise SimulationError("price left the floats")
            return getattr(BanditEnv, method)(self, *args)

    env = FailingEnv()
    setattr(env, method, env.fail_second)
    agent = DsupAgent(
        state_dim=1, n_actions=2, h=1.0, q=0.5, m=4, hidden=(8,), lr=1e-3,
        discount=1.0, horizon=1.0, terminal_reward=env.terminal_reward,
        schedule=ExplorationSchedule(0.0, 0.0, 1), seed=0,
    )
    cfg = TrainConfig(batch_size=4, buffer_capacity=100, target_period=100,
                      eval_every=1, eval_episodes=2, seed=0)
    with pytest.raises(TrainingDiverged, match="price left the floats") as exc:
        train(agent, env, 5, cfg)
    assert len(exc.value.log) == 1


def test_evaluate_immediate_execute_is_exactly_zero():
    env = OptionTradingEnv(GbmParams(0.0, 0.2))
    rng = np.random.default_rng(0)
    mean_ret, cvar_ret, gains = evaluate_policy(
        env, lambda t, X: np.ones(X.shape[0], dtype=int), 64, rng, h=0.2
    )
    np.testing.assert_array_equal(gains, 0.0)
    assert mean_ret == 0.0 and cvar_ret == 0.0


# ------------------------------------------------- windowed acting oracle


class TapeRng:
    """Hands step_batch one noise-tape normal in place of a fresh draw."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def greedy_utilities(agent, t, x):
    """The per-action utilities whose argmax is the agent's one-row greedy
    action at (t, x), for every agent kind."""
    obs = agent.observe(t, x)
    if isinstance(agent, QrdqnAgent):
        return _risk_utilities(agent._heads(agent.zeta, obs), agent._risk_w)[0]
    if isinstance(agent, DauAgent):
        return agent.anet.forward(obs)[0]
    heads, adv = agent._phi_split(agent.phi.forward(obs))
    return agent._utilities(heads, adv, agent.advantage_head)[0]


def greedy_with_margin(agent, t, x):
    """One-row greedy action of an agent and its utility margin over the
    runner-up action."""
    util = greedy_utilities(agent, t, x)
    top = np.sort(util)
    return int(np.argmax(util)), float(top[-1] - top[-2])


def per_step_train(agent, env, total_updates, cfg):
    """The training loop one interaction at a time on the same four streams
    as train: a one-row forward per greedy step and a one-row step_batch on
    the noise tape per interaction.

    Returns (record rows, greedy margin per interaction with inf where it
    explored, greedy action at the reset state per window, replay buffer,
    updates taken).
    """
    env_rng, explore_rng, subsample_rng, replay_rng = (
        substream(cfg.seed, 21, k) for k in range(4))
    buffer = ReplayBuffer(cfg.buffer_capacity)
    h = agent.h
    n = max(1, int(math.floor(1.0 / h + 1e-9)))
    transitions, margins, reset_greedy = [], [], []
    steps = updates = 0
    t = x = None
    for _ in range(total_updates):
        noise = env_rng.standard_normal(n)
        coins = explore_rng.random(n)
        random_actions = explore_rng.integers(agent.n_actions, size=n)
        reset_greedy.append(greedy_with_margin(agent, 0.0, env.reset())[0])
        for k in range(n):
            if t is None:
                t, x = 0.0, env.reset()
            if coins[k] < agent.schedule.epsilon(steps):
                a, margin = int(random_actions[k]), math.inf
            else:
                a, margin = greedy_with_margin(agent, t, x)
            X, r, done = env.step_batch(t, x, [a], h, TapeRng(noise[k]))
            tr = _records(t, x, a, r[0], X[0], done[0])[0]
            store_subsampled(buffer, tr, bool(done[0]), h, subsample_rng)
            transitions.append(tr)
            margins.append(margin)
            steps += 1
            t, x = (None, None) if done[0] else (t + h, X[0])
        if len(buffer) >= cfg.batch_size:
            agent.train_step(buffer.sample(cfg.batch_size, replay_rng))
            updates += 1
            if cfg.target_period and updates % cfg.target_period == 0:
                agent.sync_target()
    return transitions, np.array(margins), reset_greedy, buffer, updates


def recorded_train(monkeypatch, agent, env, total_updates, cfg):
    """train with its store_subsampled calls and train steps recorded:
    ([(buffer, record row, kept)], updates taken, buffer inserts)."""
    calls, steps, inserts = [], [], []
    store, train_step, add = (agents_module.store_subsampled, type(agent).train_step,
                              ReplayBuffer.add)

    def recording_store(buffer, row, done, h, rng):
        assert done == row["done"]
        kept = store(buffer, row, done, h, rng)
        calls.append((buffer, row, kept))
        return kept

    def counted_step(self, batch):
        steps.append(len(batch))
        return train_step(self, batch)

    def counted_add(self, row):
        inserts.append(row)
        return add(self, row)

    with monkeypatch.context() as patched:
        patched.setattr(agents_module, "store_subsampled", recording_store)
        patched.setattr(type(agent), "train_step", counted_step)
        patched.setattr(ReplayBuffer, "add", counted_add)
        train(agent, env, total_updates, cfg)
    return calls, len(steps), len(inserts)


def same_transition(a, b):
    return a.dtype == b.dtype and all(np.array_equal(a[name], b[name]) for name in FIELDS)


def oracle_case(kind, h, horizon, seed, tilt=0.1, eps=None):
    """An env, an agent and a config for the per-step oracle: epsilon decays
    from 1 to 0.02 over 8 time units, or stays at ``eps`` when one is given."""
    env = OptionTradingEnv(GbmParams(0.0, 0.3), horizon=horizon)
    schedule = (ExplorationSchedule(1.0, 0.02, int(8 / h)) if eps is None
                else ExplorationSchedule(eps, eps, 0))
    base = dict(
        state_dim=1, n_actions=2, h=h, hidden=(8, 8), lr=1e-3, discount=0.999,
        horizon=horizon, terminal_reward=env.terminal_reward, schedule=schedule,
        seed=seed,
    )
    # Tilt the hold output (action 0's head, or its advantage for DAU) so
    # that the untrained greedy policy holds at the reset state by ``tilt``
    # (stops, for a negative one): greedy steps then both hold and stop along
    # a path, and a small tilt lets training flip the action at reset.
    if kind == "dau":
        agent = DauAgent(**base)
        hold = agent.anet.biases[-1][:1]
    elif kind == "qrdqn":
        agent = QrdqnAgent(m=8, **base)
        hold = agent.zeta.biases[-1][: agent.m]
    else:
        agent = DsupAgent(q=0.5, m=8, advantage_head=(kind == "dau+dsup"), **base)
        hold = agent.phi.biases[-1][: agent.m]
    util = greedy_utilities(agent, 0.0, env.reset())
    hold += util[1] - util[0] + tilt
    agent.sync_target()  # QR-DQN's target copy starts tilted too
    cfg = TrainConfig(batch_size=8, buffer_capacity=5000, target_period=7,
                      eval_every=0, seed=seed + 1)
    return env, agent, cfg


# (h, horizon, updates, what the case covers), and per kind the tilt at
# which each case covers it.
_ORACLE_CASES = [
    (0.2, 0.93, 60, ("horizon cut", "window crossing")),
    (0.005, 0.2237, 25, ("horizon cut", "window crossing")),
    (0.2, 0.93, 60, ("reset flip",)),
    (0.005, 0.2237, 25, ("reset flip",)),
]
_ORACLE_TILTS = {
    "dsup": (0.1, 0.1, 0.003, 0.003),
    "qrdqn": (0.1, 0.1, 0.003, -0.001),
    "dau": (0.1, 0.1, -0.003, -0.003),
    "dau+dsup": (0.1, 1.0, 0.03, 0.01),
}


# The exploration extremes, per kind and h: (epsilon, horizon, updates, what
# the case covers). Epsilon 1 acts at random throughout, so many episodes
# last one step and stops at the reset state come in runs; epsilon 0 acts
# greedily throughout, on a horizon long enough for a hold walk to fill a
# window, its chunks doubling up to the window's end.
_EXTREME_CASES = {
    0.2: ((1.0, 0.93, 60, ("reset stop run",)), (0.0, 100.0, 60, ("window-long walk",))),
    0.005: ((1.0, 0.2237, 25, ("reset stop run",)),
            (0.0, 100.0, 25, ("window-long walk",))),
}


# The DSUP cases keep the ids they had before the other kinds joined.
@pytest.mark.parametrize("kind,h,horizon,updates,tilt,covers,eps", [
    *(pytest.param(kind, h, horizon, updates, tilt, covers, None,
                   id=("" if kind == "dsup" else f"{kind}-")
                   + f"{h}-{horizon}-{updates}-{tilt}-covers{i}")
      for kind, tilts in _ORACLE_TILTS.items()
      for i, ((h, horizon, updates, covers), tilt) in enumerate(zip(_ORACLE_CASES, tilts))),
    *(pytest.param(kind, h, horizon, updates, 0.1, covers, eps,
                   id=f"{kind}-eps{eps:g}-{h}-{horizon}-{updates}")
      for kind in ("dsup", "qrdqn")
      for h, cases in _EXTREME_CASES.items()
      for eps, horizon, updates, covers in cases),
])
def test_windowed_train_matches_per_step_oracle(monkeypatch, kind, h, horizon, updates,
                                                tilt, covers, eps):
    env, agent, cfg = oracle_case(kind, h, horizon, 5, tilt, eps)
    calls, taken, _ = recorded_train(monkeypatch, agent, env, updates, cfg)
    env, oracle_agent, cfg = oracle_case(kind, h, horizon, 5, tilt, eps)
    expected, margins, reset_greedy, oracle_buffer, oracle_taken = per_step_train(
        oracle_agent, env, updates, cfg)

    n = int(round(1 / h))
    assert len(calls) == len(expected) == updates * n
    # What the case is there to cover: greedy holds past the reset state
    # (unless every action is random), plus episodes cut at the horizon,
    # episodes that go on across a window boundary, a greedy action at reset
    # that training changes, two stops at the reset state in a row, or a
    # window of holds only.
    coverage = {
        "horizon cut": any(tr["done"] and tr["a"] == 0 for tr in expected),
        "window crossing": any(expected[k]["t"] > 0 for k in range(n, len(expected), n)),
        "reset flip": len(set(reset_greedy)) > 1,
        "reset stop run": any(a["t"] == b["t"] == 0 and a["done"] and b["done"]
                              for a, b in zip(expected, expected[1:])),
        "window-long walk": any(not any(tr["a"] or tr["done"] for tr in expected[k:k + n])
                                for k in range(0, len(expected), n)),
    }
    if eps == 1.0:
        assert np.isinf(margins).all()
    else:
        assert any(np.isfinite(m) and tr["a"] == 0 and tr["t"] > 0
                   for tr, m in zip(expected, margins))
    if eps == 0.0:
        assert np.isfinite(margins).all()
    assert all(coverage[name] for name in covers), coverage

    # A batched forward may round a utility differently from the one-row
    # forward, so an action may flip only where the greedy margin is tiny.
    small = np.flatnonzero(margins <= 1e-12)
    agree = small[0] if small.size else len(expected)
    for k in range(agree):
        assert same_transition(calls[k][1], expected[k]), k
    flips = sum(calls[k][1]["a"] != expected[k]["a"] for k in small
                if k == agree or same_transition(calls[k - 1][1], expected[k - 1]))
    print(f"h={h}: {small.size} greedy margins <= 1e-12, {flips} action flips")
    # an exploration extreme is compared in full, parameters included
    assert eps is None or not small.size
    if small.size:
        return
    buffer = calls[0][0]
    assert taken == oracle_taken
    assert len(buffer) == len(oracle_buffer)
    for name in FIELDS:
        assert np.array_equal(buffer.ring[name][: len(buffer)],
                              oracle_buffer.ring[name][: len(buffer)])
    for name, value in agent.named_params().items():
        assert np.array_equal(value, oracle_agent.named_params()[name]), name


@pytest.mark.parametrize("h, updates", [(0.2, 60), (0.005, 12)], ids=["0.2", "0.005"])
def test_train_stores_every_interaction_once(monkeypatch, h, updates):
    """The call count a benchmark's updates-taken check relies on, at both
    of its decision frequencies: one store_subsampled call per interaction,
    and every replay insert made by an accepting call."""
    env, agent, cfg = oracle_case("dsup", h, 100.0, 9)
    calls, taken, inserts = recorded_train(monkeypatch, agent, env, updates, cfg)
    n = int(math.floor(1 / h + 1e-9))
    assert len(calls) == updates * n
    kept = np.cumsum([c[2] for c in calls])
    assert kept[-1] == inserts == len(calls[0][0])
    fill = int(np.searchsorted(kept, cfg.batch_size)) + 1
    assert taken == updates - (-(-fill // n) - 1)


class StepRuleAgent:
    """A greedy rule with no network: hold for the first ``stop_step``
    decisions of an episode, then stop; epsilon is zero."""

    n_actions = 2
    schedule = ExplorationSchedule(0.0, 0.0, 0)

    def __init__(self, h, stop_step):
        self.h, self.stop_step = h, stop_step

    def act_greedy_batch(self, t, X):
        return (np.round(np.asarray(t) / self.h) >= self.stop_step).astype(np.int64)

    def act_greedy(self, t, x):
        return int(self.act_greedy_batch(t, x))

    def train_step(self, batch):
        return 0.0


@pytest.mark.parametrize("stop_step", [0, 1, 7, 8, 9, 23, 24, 25, 150, 401])
def test_windowed_train_follows_the_greedy_rule_at_every_step(monkeypatch, stop_step):
    """Each decision, at reset, inside a chunk, at a chunk boundary or
    across a window boundary, takes the greedy action at its own state."""
    h = 0.005
    env = OptionTradingEnv(GbmParams(0.0, 0.3), horizon=100.0)
    cfg = TrainConfig(batch_size=8, target_period=0, eval_every=0, seed=3)
    calls, _, _ = recorded_train(monkeypatch, StepRuleAgent(h, stop_step), env, 6, cfg)
    episode = [0] * stop_step + [1]
    actions = [tr["a"] for _, tr, _ in calls]
    assert actions == (episode * len(actions))[: len(actions)]
    for (_, tr, _), (_, nxt, _) in zip(calls, calls[1:]):
        if tr["a"] == 0:
            assert not tr["done"] and nxt["t"] == tr["t"] + h
            assert (np.array_equal(nxt["x"], tr["x_next"])
                    and not np.array_equal(tr["x"], tr["x_next"]))
        else:
            assert tr["done"] and nxt["t"] == 0.0 and np.array_equal(tr["x_next"], tr["x"])


# train() in a fresh interpreter, so the process-wide heap setting and the
# fault count belong to this run alone.
_SRC = str(Path(agents_module.__file__).resolve().parents[1])

_FAULTS_RUN = """
import json, resource, sys
from ctdrl import agents, envs
env = envs.OptionTradingEnv(envs.GbmParams(0.0, 0.2))
agent = agents.DsupAgent(1, 2, 0.2, q=0.5, m=100, hidden=(100, 100),
                         terminal_reward=env.terminal_reward, seed=0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
agents.train(agent, env, int(sys.argv[1]), agents.TrainConfig(batch_size=32, eval_every=0))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"resident": agents._keep_heap_resident(), "faults": faults}))
"""

_FALLBACK_RUN = """
import ctypes, hashlib, sys

class Refusing:
    def __init__(self, name):
        self.mallopt = lambda param, value: 0

def missing(name):
    raise OSError("no C library")

if sys.argv[1] == "refused":
    ctypes.CDLL = Refusing
elif sys.argv[1] == "missing":
    ctypes.CDLL = missing

from ctdrl import agents, envs
env = envs.OptionTradingEnv(envs.GbmParams(0.0, 0.2))
agent = agents.DsupAgent(1, 2, 0.2, m=8, hidden=(16, 16),
                         terminal_reward=env.terminal_reward, seed=1)
cfg = agents.TrainConfig(batch_size=8, target_period=10, eval_every=20, eval_episodes=10)
log = agents.train(agent, env, 60, cfg)
digest = hashlib.sha256(repr(log).encode())
for name, arr in sorted(agent.named_params().items()):
    digest.update(name.encode())
    digest.update(arr.tobytes())
print(agents._keep_heap_resident(), len(log), digest.hexdigest())
"""


def _run_fresh(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (_SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.parametrize("updates", [60, 200])
def test_train_does_not_refault_the_heap_every_update(updates):
    """At the criterion-10 shape, the faults around train() stay flat in the
    update count: without the heap setting each update re-faults about
    100-230 pages that glibc trimmed after the previous one."""
    run = json.loads(_run_fresh(_FAULTS_RUN, updates))
    if not run["resident"]:
        pytest.skip("mallopt is unavailable or refused")
    assert run["faults"] < 1500


@pytest.fixture(scope="module")
def default_libc_run():
    return _run_fresh(_FALLBACK_RUN, "default").split()


@pytest.mark.parametrize("libc", ["refused", "missing"])
def test_train_without_mallopt_runs_to_the_same_bytes(default_libc_run, libc):
    _, rows, digest = default_libc_run
    fallback = _run_fresh(_FALLBACK_RUN, libc).split()
    assert rows == "3"
    assert fallback == ["False", rows, digest]
