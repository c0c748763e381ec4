import dataclasses
import math
import re

import numpy as np
import pytest

from ctdrl import ctmdp
from ctdrl.ctmdp import (
    TIME_TOL,
    ContinuousMdp,
    SimConfig,
    SimulationError,
    _em_apply,
    _phase_steps,
    _rollout_returns,
    em_step,
    substream,
)
from ctdrl.envs import illustration_env, brownian_gap_env
from ctdrl.estimate import mc_action_return_dist, mc_return_dist


def constant_env(c, horizon=1.0, discount=1.0):
    return ContinuousMdp(
        state_dim=1,
        actions=(0,),
        drift=lambda t, X, a: c,
        diffusion=lambda t, X, a: 0.0,
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0],
        horizon=horizon,
        discount=discount,
    )


# -------------------------------------------------------------- validation


def test_mdp_validation():
    kwargs = dict(
        state_dim=1,
        actions=(0,),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: 0.0,
        reward=lambda t, X: 0.0,
        terminal_reward=lambda X: 0.0,
    )
    # an infinite horizon would leave a rollout with no steps after its window
    for horizon in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon"):
            ContinuousMdp(horizon=horizon, **kwargs)
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=1.0, discount=0.0, **kwargs)
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=1.0, discount=1.2, **kwargs)
    bad = dict(kwargs)
    bad["actions"] = ()
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=1.0, **bad)


# Each bound fails NaN: inf as tail_dt would be one EM step over the whole
# tail, and a NaN substeps one step per window.
@pytest.mark.parametrize("field, value", [
    ("substeps", 0), ("substeps", math.nan), ("substeps", math.inf),
    ("substeps", 2.5), ("substeps", True),
    ("tail_dt", math.inf), ("tail_dt", math.nan), ("tail_dt", 0.0),
])
def test_simconfig_rejects_non_finite_and_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SimConfig(**{field: value})


# ----------------------------------------------------------------- em_step


def test_em_step_frozen_dynamics():
    env = brownian_gap_env()
    x = np.array([0.7])
    out = em_step(env, x, 0.1, 0, 0.01, np.array([1.3]))
    np.testing.assert_array_equal(out, x)


def test_em_step_constant_drift():
    env = constant_env(2.0)
    out = em_step(env, np.array([1.0]), 0.0, 0, 0.1, np.array([0.0]))
    np.testing.assert_allclose(out, [1.2])


def test_em_step_brownian_variance():
    env = brownian_gap_env()
    rng = np.random.default_rng(0)
    n = 100_000
    t = 0.25
    steps = 16
    dt = t / steps
    states = np.zeros((n, 1))
    for _ in range(steps):
        states = em_step(env, states, 0.0, 1, dt, rng.standard_normal((n, 1)))
    var = states[:, 0].var()
    se = t * np.sqrt(2.0 / n)
    assert abs(var - t) <= 3 * se


def test_em_step_rejects_nonfinite():
    env = constant_env(np.inf)
    with pytest.raises(SimulationError):
        em_step(env, np.array([0.0]), 0.0, 0, 0.1, np.array([0.0]))
    with pytest.raises(ValueError):
        em_step(brownian_gap_env(), np.array([0.0]), 0.0, 0, 0.0, np.array([0.0]))


def test_em_step_rejects_an_action_not_in_the_mdp():
    with pytest.raises(ValueError, match=re.escape("action 2 is not one of (0, 1)")):
        em_step(brownian_gap_env(), np.array([0.0]), 0.0, 2, 0.1, np.array([0.0]))


# (7,) noise would broadcast into a (4, 7) state, and (1,) noise would give
# every path the same normal; action 0 has zero diffusion and reads no noise.
@pytest.mark.parametrize("action", [0, 1])
@pytest.mark.parametrize("noise_shape", [(7,), (1,), (4, 2)], ids=["7", "1", "4x2"])
def test_em_step_rejects_noise_not_shaped_like_the_states(noise_shape, action):
    with pytest.raises(ValueError, match=re.escape(f"noise of shape {noise_shape}")):
        em_step(brownian_gap_env(), np.zeros((4, 1)), 0.0, action, 0.25,
                np.full(noise_shape, 0.1))


def test_em_step_rejects_nonfinite_noise_under_zero_diffusion():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="noise must be finite"):
            em_step(brownian_gap_env(), np.zeros((4, 1)), 0.0, 0, 0.25,
                    np.full((4, 1), bad))


# --------------------------------------------------------------- _em_apply


def em_apply_oracle(mdp, t, states, action_indices, delta, noise):
    """Masked per-action EM step: each action's paths are gathered, stepped
    with that action's coefficients and scattered back."""
    out = np.empty_like(states)
    root = math.sqrt(delta)
    for idx in np.unique(action_indices):
        mask = action_indices == idx
        sub = states[mask]
        label = mdp.actions[idx]
        b = np.asarray(mdp.drift(t, sub, label), dtype=np.float64)
        sig = np.asarray(mdp.diffusion(t, sub, label), dtype=np.float64)
        out[mask] = sub + b * delta + root * (sig * noise[mask])
    return out


_LABEL_SCALE = {"hold": 0.0, "buy": 1.0, "sell": -2.5}


def _diffusion(kind):
    def elementwise(t, X, a):
        return 0.5 + 0.1 * _LABEL_SCALE[a] * np.sin(X + t)

    def hold_frozen(t, X, a):
        return abs(_LABEL_SCALE[a]) * elementwise(t, X, a)

    return {"elementwise": elementwise, "hold_frozen": hold_frozen}[kind]


def three_action_env(kind):
    return ContinuousMdp(
        state_dim=3,
        actions=("hold", "buy", "sell"),
        drift=lambda t, X, a: _LABEL_SCALE[a] * (X - 0.3 * t) ** 2,
        diffusion=_diffusion(kind),
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0],
        horizon=1.0,
    )


class CountedDraw:
    """A zero-argument noise draw that counts its calls."""

    def __init__(self, noise):
        self.noise = noise
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.noise


# "hold_frozen" gives "hold" zero diffusion: its paths step x + b delta and
# read no noise, so a bundle that only holds never calls the draw.
@pytest.mark.parametrize("kind", ["elementwise", "hold_frozen"])
@pytest.mark.parametrize(
    "case,n_paths",
    [("first", 257), ("last", 257), ("last", 1)],
)
def test_em_apply_matches_masked_oracle_bitwise(kind, case, n_paths):
    env = three_action_env(kind)
    rng = np.random.default_rng([n_paths, len(case), len(kind)])
    states = rng.normal(size=(n_paths, 3))
    noise = rng.standard_normal((n_paths, 3))
    acts = np.broadcast_to(np.intp({"first": 0, "last": 2}[case]), (n_paths,))
    draw = CountedDraw(noise)
    got = _em_apply(env, 0.1, states, acts, 1 / 48, draw)
    want = em_apply_oracle(env, 0.1, states, acts, 1 / 48, noise)
    assert got.shape == (n_paths, 3) and got.dtype == np.float64
    assert np.array_equal(got, want)
    noisy = acts[acts != 0] if kind == "hold_frozen" else acts
    assert draw.calls == np.unique(noisy).size


# --------------------------------------------------------- diffusion shapes

def square_diffusion_env():
    """Two-dimensional env whose diffusion is (paths, 2) per path; a bundle
    of 2 paths makes it (2, 2), the shape of a 2x2 matrix."""
    return ContinuousMdp(
        state_dim=2,
        actions=(0, 1),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: (1.0 + a) * np.abs(X),
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0],
        horizon=1.0,
    )


def test_per_path_diffusion_on_two_paths_hand_value():
    env = square_diffusion_env()
    out = em_step(env, np.array([[1.0, 2.0], [3.0, 4.0]]), 0.0, 0, 1.0, np.eye(2))
    np.testing.assert_array_equal(out, [[2.0, 2.0], [3.0, 8.0]])
    # zero diffusion on the first path only: the other path still reads noise
    out = em_step(env, np.array([[0.0, 0.0], [3.0, 4.0]]), 0.0, 0, 1.0, np.eye(2))
    np.testing.assert_array_equal(out, [[0.0, 0.0], [3.0, 8.0]])


@pytest.mark.parametrize("n_paths", [2, 3])
def test_per_path_square_diffusion_is_elementwise(n_paths):
    env = square_diffusion_env()
    rng = np.random.default_rng([n_paths, 8])
    states = rng.normal(size=(2 * n_paths, 2))
    noise = rng.standard_normal((2 * n_paths, 2))
    acts = np.tile([0, 1], n_paths)  # each action's sub-bundle has n_paths paths
    want = states + (1.0 + acts)[:, None] * np.abs(states) * noise

    head = slice(0, 2 * n_paths, 2)  # the paths playing action 0
    np.testing.assert_allclose(em_step(env, states[head], 0.0, 0, 1.0, noise[head]),
                               want[head], rtol=1e-14)
    for action in (0, 1):
        rows = slice(action, 2 * n_paths, 2)
        got = _em_apply(env, 0.0, states[rows], acts[rows], 1.0, lambda: noise[rows])
        np.testing.assert_allclose(got, want[rows], rtol=1e-14)


# A (paths, 2, 2) stack broadcasts against 2 paths into a (2, 2, 2) state and
# fails to broadcast against 3; either way the error names the stack's shape,
# also when the stack is zero and no noise is read.
@pytest.mark.parametrize("scale", [0.0, 1.0])
@pytest.mark.parametrize("n_paths", [2, 3])
def test_matrix_stack_diffusion_is_rejected_by_shape(n_paths, scale):
    corr = scale * np.array([[1.0, 0.0], [0.9, 0.1]])
    env = ContinuousMdp(
        state_dim=2,
        actions=(0,),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: np.broadcast_to(corr, (X.shape[0], 2, 2)),
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0],
        horizon=1.0,
    )
    shape = re.escape(str((n_paths, 2, 2)))
    with pytest.raises(ValueError, match=shape):
        em_step(env, np.ones((n_paths, 2)), 0.0, 0, 0.5, np.ones((n_paths, 2)))
    rng = substream(3, 8)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=shape):
        _rollout_returns(env, 0, 0.0, [1.0, 1.0], n_paths, rng, 0.5)
    assert rng.bit_generator.state == before


# ----------------------------------------------------------- mc_return_dist


def test_sample_return_unit_reward_integrates_time():
    env = ContinuousMdp(
        state_dim=1,
        actions=(0,),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: 0.0,
        reward=lambda t, X: np.ones(X.shape[0]),
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=2.0,
    )
    got = mc_return_dist(env, 0, 0.5, [0.0], 2, 0.01, 0)
    np.testing.assert_allclose(got.samples, 1.5, rtol=0, atol=1e-9)


def test_sample_return_linear_drift_terminal_reward():
    c, t0, horizon, gamma = 2.0, 0.25, 1.0, 0.9
    env = constant_env(c, horizon=horizon, discount=gamma)
    got = mc_return_dist(env, 0, t0, [1.0], 2, 0.0125, 0)
    expect = gamma ** (horizon - t0) * (1.0 + c * (horizon - t0))
    np.testing.assert_allclose(got.samples, expect, rtol=1e-9)


def test_sample_return_frozen_gap_env_exact():
    env = brownian_gap_env(horizon=1.0, discount=1.0)
    x = 0.8
    got = mc_return_dist(env, 0, 0.0, [x], 2, 1 / 64, 0)
    np.testing.assert_allclose(got.samples, x * 1.0, rtol=1e-12)


def test_sample_return_discounted_frozen_state():
    gamma = 0.9
    env = brownian_gap_env(horizon=1.0, discount=gamma)
    x = 2.0
    got = mc_return_dist(env, 0, 0.0, [x], 2, 1e-3, 0)
    exact = x * (gamma - 1.0) / np.log(gamma)
    np.testing.assert_allclose(got.samples, exact, rtol=1e-3)


def test_sample_return_rejects_start_past_horizon():
    env = brownian_gap_env()
    with pytest.raises(ValueError):
        mc_return_dist(env, 0, 1.0, [0.0], 2, 0.1, 0)


# ------------------------------------------------- action-conditioned return


def test_action_return_full_horizon_matches_plain_return():
    # a window that reaches the horizon plays its action up to the horizon
    env = brownian_gap_env()
    via_action = _rollout_returns(env, 0, 0.0, [0.0], 4, substream(7), dt=1 / 32,
                                  window_end=1.0, window_action=1)
    via_plain = _rollout_returns(env, 1, 0.0, [0.0], 4, substream(7), dt=1 / 32)
    np.testing.assert_array_equal(via_action, via_plain)


def test_action_return_matching_deterministic_policy_identical_law():
    env = brownian_gap_env()
    a_cond = _rollout_returns(env, 1, 0.0, [0.0], 4, substream(11), dt=1 / 32,
                              window_end=0.25, window_action=1)
    plain = _rollout_returns(env, 1, 0.0, [0.0], 4, substream(11), dt=1 / 32)
    np.testing.assert_array_equal(a_cond, plain)


def test_action_return_mean_is_martingale_value():
    env = brownian_gap_env(horizon=1.0)
    x, h, n = 0.5, 0.25, 30_000
    rng = substream(3, 0)
    gains = _rollout_returns(env, 0, 0.0, [x], n, rng, dt=h / 32, window_end=h,
                             window_action=1)
    se = gains.std(ddof=1) / np.sqrt(n)
    assert abs(gains.mean() - x * 1.0) <= 3 * se


def test_action_return_validations():
    env = brownian_gap_env()
    with pytest.raises(ValueError):
        mc_action_return_dist(env, 0, 0.9, [0.0], 1, 0.25, 2, SimConfig())


# NaN compares false against the horizon check and inf makes the window's end
# inf, so either would give a window that plays its action to the horizon.
@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.25])
def test_persistence_horizon_must_be_positive_and_finite(h):
    named = re.escape(f"persistence horizon h must be positive and finite, got {h}")
    with pytest.raises(ValueError, match=named):
        mc_action_return_dist(brownian_gap_env(), 0, 0.0, [0.0], 1, h, 4, SimConfig())


# ----------------------------------------------------------- reproducibility


def test_seed_determinism_bitwise():
    env = brownian_gap_env()
    a = _rollout_returns(env, 0, 0.0, [0.0], 500, substream(9, 1), dt=1 / 64,
                         window_end=0.25, window_action=1)
    b = _rollout_returns(env, 0, 0.0, [0.0], 500, substream(9, 1), dt=1 / 64,
                         window_end=0.25, window_action=1)
    np.testing.assert_array_equal(a, b)


def window_rule(action, t0, window_end=None, window_action=None):
    """The action index a step from s plays: the persistent modification's
    window test t0 - tol <= s < window_end - tol, evaluated per step."""
    if window_end is None:
        return lambda s: action
    tol = TIME_TOL * max(1.0, abs(t0) + (window_end - t0))
    return lambda s: window_action if t0 - tol <= s < window_end - tol else action


def always_draw_oracle(mdp, action, t0, x0, n_paths, rng, dt, tail_dt=None,
                       window_end=None, window_action=None):
    """The always-draw step loop: every step draws its normals, picks its
    action by window_rule and applies them through the masked oracle,
    diffusion zero or not."""
    n = mdp.state_dim
    states = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    rule = window_rule(action, t0, window_end, window_action)
    phases = [(t0, mdp.horizon, dt)]
    if window_end is not None:
        phases = [(t0, window_end, dt), (window_end, mdp.horizon, tail_dt or dt)]
    for start, end, step in phases:
        for j, delta in enumerate(_phase_steps(start, end, step)):
            s = start + j * step
            disc = 1.0 if gamma == 1.0 else math.exp(log_gamma * (s - t0))
            rew = np.asarray(mdp.reward(s, states), dtype=np.float64)
            gains += disc * np.broadcast_to(rew, (n_paths,)) * delta
            noise = rng.standard_normal((n_paths, n))
            acts = np.full(n_paths, rule(s), dtype=np.intp)
            states = em_apply_oracle(mdp, s, states, acts, delta, noise)
    disc_t = 1.0 if gamma == 1.0 else math.exp(log_gamma * (mdp.horizon - t0))
    term = np.asarray(mdp.terminal_reward(states), dtype=np.float64)
    return gains + disc_t * np.broadcast_to(term, (n_paths,))


# Rollouts whose noise-free steps all follow their last noisy step: the
# gap-rates sweep on brownian_gap_env and superiority-demo's shape on
# illustration_env (a noisy window, then a frozen tail at tail_dt), also with
# a window that reaches the horizon.
_ORACLE_CASES = {
    "gap_base0_action0": (brownian_gap_env(), 0, 0, 0.25, 1 / 64, None),
    "gap_base0_action1": (brownian_gap_env(), 0, 1, 0.25, 1 / 64, None),
    "gap_base1_action1": (brownian_gap_env(discount=0.9), 1, 1, 0.125, 1 / 64, None),
    "demo_window": (illustration_env(horizon=2.0), 0, 1, 0.125, 0.125 / 16, 0.05),
    "demo_plain": (illustration_env(horizon=2.0), 0, None, None, 0.125 / 16, 0.05),
    "demo_window_to_horizon": (illustration_env(horizon=0.125), 0, 1, 0.125,
                               0.125 / 16, 0.05),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_rollout_matches_always_draw_oracle_bitwise(case):
    env, base, action, h, dt, tail_dt = _ORACLE_CASES[case]
    window = {} if action is None else dict(window_end=h, window_action=action)
    got = _rollout_returns(env, base, 0.0, [0.0], 300, substream(3, 5), dt,
                           tail_dt=tail_dt, **window)
    want = always_draw_oracle(env, base, 0.0, [0.0], 300, substream(3, 5), dt,
                              tail_dt=tail_dt, **window)
    assert got.tobytes() == want.tobytes()


def em_step_oracle(mdp, t, states, label, delta, draw):
    """The EM step before frozen steps kept their states: x + b delta, plus
    the noise term when some path's diffusion is nonzero."""
    b = np.asarray(mdp.drift(t, states, label), dtype=np.float64)
    sig = np.asarray(mdp.diffusion(t, states, label), dtype=np.float64)
    drifted = states + b * delta
    if not sig.any():
        return drifted
    return drifted + math.sqrt(delta) * (sig * draw())


def rollout_oracle(mdp, action, t0, x0, n_paths, rng, dt, tail_dt=None,
                   window_end=None, window_action=None):
    """The step loop before frozen steps kept their states: a fresh state
    array, a full finiteness scan, the action picked by window_rule and
    applied per action mask on every step, and the discounted reward added
    through temporaries."""
    n = mdp.state_dim
    states = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    rule = window_rule(action, t0, window_end, window_action)
    phases = [(t0, mdp.horizon, dt)]
    if window_end is not None:
        phases = [(t0, window_end, dt), (window_end, mdp.horizon, tail_dt or dt)]
    for start, end, step in phases:
        for j, delta in enumerate(_phase_steps(start, end, step)):
            s = start + j * step
            disc = 1.0 if gamma == 1.0 else math.exp(log_gamma * (s - t0))
            rew = np.asarray(mdp.reward(s, states), dtype=np.float64)
            gains += disc * rew * delta
            memo = []

            def draw():
                if not memo:
                    memo.append(rng.standard_normal((n_paths, n)))
                return memo[0]

            acts = np.full(n_paths, rule(s), dtype=np.intp)
            out = np.empty_like(states)
            for idx in np.unique(acts):
                mask = acts == idx
                out[mask] = em_step_oracle(mdp, s, states[mask], mdp.actions[idx], delta,
                                           lambda m=mask: draw()[m])
            states = out
            assert np.all(np.isfinite(states))
    disc_t = 1.0 if gamma == 1.0 else math.exp(log_gamma * (mdp.horizon - t0))
    term = np.asarray(mdp.terminal_reward(states), dtype=np.float64)
    return gains + disc_t * np.broadcast_to(term, (n_paths,))


_ROLLOUT_ENVS = {
    "brownian_gap": brownian_gap_env,
    "illustration": lambda: illustration_env(horizon=1.0, drift=2.0),
    "three_action": lambda: three_action_env("hold_frozen"),
}


def _rollout_window(name, n_actions):
    """(t0, window keywords) of a rollout: none, a window [0.125, 0.375) of
    the last action, or a window [0.5, 1) that reaches the horizon."""
    window = {"constant": (0.0, None), "persistent": (0.125, 0.375),
              "to_horizon": (0.5, 1.0)}
    t0, window_end = window[name]
    if window_end is None:
        return t0, {}
    return t0, dict(window_end=window_end, window_action=n_actions - 1)


# The windowed rollouts also run with an explicit tail_dt that does not
# divide the tail, so the tail ends on a short step; a window that reaches
# the horizon has no tail, and its tail_dt goes unused.
@pytest.mark.parametrize("policy, tail_dt", [
    ("constant", None), ("persistent", None), ("persistent", 0.05),
    ("to_horizon", 0.05)])
@pytest.mark.parametrize("env_name", sorted(_ROLLOUT_ENVS))
@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_rollout_matches_step_loop_oracle_bitwise(gamma, env_name, policy, tail_dt):
    env = dataclasses.replace(_ROLLOUT_ENVS[env_name](), discount=gamma)
    t0, window = _rollout_window(policy, env.n_actions)
    x0 = np.linspace(0.1, 0.3, env.state_dim)
    key = (5, len(policy), len(env_name), tail_dt is not None)
    rng, oracle_rng = substream(*key), substream(*key)
    got = _rollout_returns(env, 0, t0, x0, 96, rng, 1 / 32, tail_dt=tail_dt, **window)
    want = rollout_oracle(env, 0, t0, x0, 96, oracle_rng, 1 / 32, tail_dt=tail_dt,
                          **window)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_rollout_from_negative_zero_matches_step_loop_oracle_in_value():
    # A frozen step keeps x0 = -0.0 where the oracle's -0.0 + 0.0 made it
    # +0.0, so a reward that reads the state's sign bit could differ; the
    # values are equal, which is what the returns are compared by here.
    env = brownian_gap_env(discount=0.9)
    window = dict(window_end=0.5, window_action=0)  # frozen, then noisy
    rng, oracle_rng = substream(6, 2), substream(6, 2)
    got = _rollout_returns(env, 1, 0.0, [-0.0], 64, rng, 1 / 32, **window)
    want = rollout_oracle(env, 1, 0.0, [-0.0], 64, oracle_rng, 1 / 32, **window)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("window_end, phases", [
    (None, [(0, 32)]), (0.25, [(1, 8), (0, 24)]), (1.0, [(1, 32)])])
def test_rollout_plays_one_zero_stride_index_vector_per_phase(monkeypatch, window_end,
                                                              phases):
    seen = []

    def recorded(*args):
        seen.append(args[3])  # action_indices
        return _em_apply(*args)

    monkeypatch.setattr(ctmdp, "_em_apply", recorded)
    _rollout_returns(brownian_gap_env(), 0, 0.0, [0.0], 5, substream(6, 4), 1 / 32,
                     window_end=window_end, window_action=1)
    runs = []
    for acts in seen:
        assert acts.shape == (5,) and acts.strides == (0,) and not acts.flags.writeable
        if runs and acts is runs[-1][0]:
            runs[-1][1] += 1
        else:
            runs.append([acts, 1])
    assert [(int(acts[0]), steps) for acts, steps in runs] == phases


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_frozen_rollout_from_non_finite_start_raises(x0):
    with pytest.raises(SimulationError, match="non-finite state"):
        _rollout_returns(brownian_gap_env(), 0, 0.0, [x0], 4, substream(6, 3), 1 / 8)


@pytest.mark.parametrize("shape", [(1,), (5, 1)])
def test_frozen_em_step_returns_a_new_array(shape):
    x = np.full(shape, -0.0)
    out = em_step(brownian_gap_env(), x, 0.1, 0, 0.01, np.ones(shape))
    assert not np.shares_memory(out, x)
    assert np.array_equal(out, x) and np.signbit(out).all()
    out[...] = 1.0
    assert np.signbit(x).all()


@pytest.mark.parametrize("kind", ["elementwise", "hold_frozen"])
@pytest.mark.parametrize("action", [0, 1, 2])
def test_em_apply_zero_stride_indices_match_materialised(kind, action):
    env = three_action_env(kind)
    rng = np.random.default_rng([action, len(kind)])
    states = rng.normal(size=(33, 3))
    noise = rng.standard_normal((33, 3))
    view = np.broadcast_to(np.intp(action), (33,))
    assert view.strides == (0,)
    draws = CountedDraw(noise), CountedDraw(noise)
    got = _em_apply(env, 0.1, states, view, 1 / 48, draws[0])
    want = _em_apply(env, 0.1, states, np.full(33, action, dtype=np.intp), 1 / 48,
                     draws[1])
    assert got.tobytes() == want.tobytes()
    assert draws[0].calls == draws[1].calls


def test_frozen_rollout_leaves_generator_untouched():
    env = brownian_gap_env()
    rng = substream(3, 6)
    before = rng.bit_generator.state
    gains = _rollout_returns(env, 0, 0.0, [0.5], 50, rng, 1 / 64)
    assert rng.bit_generator.state == before
    np.testing.assert_array_equal(gains, 0.5)


def integrated_brownian_law(sigma2, span, dt):
    """Variance of the integral over span of a Brownian motion with variance
    rate sigma2, started at 0, and how far the left-endpoint sum at step dt
    falls below it."""
    var = sigma2 * span**3 / 3.0
    k = round(span / dt)
    return var, var - sigma2 * dt**3 * (k - 1) * k * (2 * k - 1) / 6.0


def test_frozen_window_before_noisy_tail_has_integrated_brownian_variance():
    # base action 1 (unit noise) after action 0 (frozen) on [0, h): the return
    # is the integral of a Brownian motion over T - h, variance (T - h)^3 / 3
    env = brownian_gap_env()
    h, tail_dt, n = 0.25, 1 / 1024, 20_000
    gains = _rollout_returns(env, 1, 0.0, [0.0], n, substream(41, 0), h / 16,
                             tail_dt=tail_dt, window_end=h, window_action=0)
    var, bias = integrated_brownian_law(1.0, 1.0 - h, tail_dt)
    se = var * math.sqrt(2.0 / (n - 1))
    assert abs(gains.var(ddof=1) - var) <= 4 * se + bias


def test_dt_refinement_changes_mean_less_than_mc_error():
    # the Euler bias difference here is ~0.01 against an MC standard error of
    # ~0.022; the fixed seed freezes a draw where the comparison shows it
    env = illustration_env()
    n = 100_000
    h = 0.25
    coarse = _rollout_returns(env, 0, 0.0, [0.0], n, substream(5, 0), dt=h / 16,
                              tail_dt=0.05, window_end=h, window_action=1)
    fine = _rollout_returns(env, 0, 0.0, [0.0], n, substream(5, 1), dt=h / 32,
                            tail_dt=0.05, window_end=h, window_action=1)
    se = np.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / np.sqrt(n)
    assert abs(coarse.mean() - fine.mean()) < se
