import contextlib
import dataclasses
import math
import re
import warnings

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
    substream,
)
from ctdrl.envs import illustration_env, brownian_gap_env
from ctdrl.estimate import mc_action_return_dist


def constant_env(c, horizon=1.0, discount=1.0):
    return ContinuousMdp(
        state_dim=1,
        drift=(c,),
        diffusion=(0.0,),
        reward=lambda X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0],
        horizon=horizon,
        discount=discount,
    )


# -------------------------------------------------------------- validation


def test_mdp_validation():
    kwargs = dict(
        state_dim=1,
        drift=(0.0,),
        diffusion=(0.0,),
        reward=lambda X: 0.0,
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
    # the drift table fixes the action count, and an mdp needs an action
    with pytest.raises(ValueError, match=re.escape("drift must hold one finite number "
                                                   "per action, got ()")):
        ContinuousMdp(horizon=1.0, **{**kwargs, "drift": ()})


def two_action_fields(**changes):
    fields = dict(state_dim=1, drift=(0.0, 1.0), diffusion=(0.0, 1.0),
                  reward=lambda X: X[:, 0], terminal_reward=lambda X: 0.0 * X[:, 0],
                  horizon=1.0)
    return {**fields, **changes}


def test_coefficient_tables_become_float_tuples():
    env = ContinuousMdp(**two_action_fields(drift=[0, np.float64(2.5)],
                                            diffusion=(0.0, 1)))
    assert env.drift == (0.0, 2.5) and env.diffusion == (0.0, 1.0)
    assert all(type(v) is float for v in env.drift + env.diffusion)


# A table needs one finite real number per action: the callable form, a
# short or long table, NaN, an infinity, a bool, a string or None is refused.
# The drift table fixes the action count, so a finite drift of one or three
# entries is refused through the two-entry diffusion that no longer matches.
@pytest.mark.parametrize("field", ["drift", "diffusion"])
@pytest.mark.parametrize("table", [
    lambda t, X, a: 0.0, (1.0,), (0.0, 1.0, 2.0), (0.0, math.nan), (math.inf, 0.0),
    (0.0, -math.inf), (0.0, True), (0.0, "1.0"), (None, 0.0), 1.0, "01", 10**400,
    (0.0, 10**400)],
    ids=["callable", "short", "long", "nan", "inf", "-inf", "bool", "str", "none",
         "scalar", "string", "huge_int", "huge_int_entry"])
def test_coefficient_table_must_hold_one_finite_number_per_action(field, table):
    if field == "diffusion":
        named = "^diffusion must hold one finite number per action \\(2\\)"
    elif table in ((1.0,), (0.0, 1.0, 2.0)):
        named = f"^diffusion must hold one finite number per action \\({len(table)}\\)"
    else:
        named = "^drift must hold one finite number per action, got"
    with pytest.raises(ValueError, match=named):
        ContinuousMdp(**two_action_fields(**{field: table}))


@pytest.mark.parametrize("field", ["reward", "terminal_reward"])
@pytest.mark.parametrize("value", [None, 0.0, (0.0, 1.0)], ids=["none", "float", "tuple"])
def test_reward_must_be_callable(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be callable$"):
        ContinuousMdp(**two_action_fields(**{field: value}))


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


# ----------------------------------------------------------------- EM step


def test_em_step_frozen_dynamics():
    # zero drift and zero diffusion: the step returns its states and draws nothing
    states = np.array([[0.7]])
    draw = CountedDraw(np.array([[1.3]]))
    assert _em_apply(brownian_gap_env(), 0.1, states, (0,), 0.01, draw) is states
    assert draw.calls == 0


def test_em_step_constant_drift():
    out = _em_apply(constant_env(2.0), 0.0, np.array([[1.0]]), (0,), 0.1,
                    CountedDraw(np.array([[0.0]])))
    np.testing.assert_allclose(out, [[1.2]])


def test_em_step_brownian_variance():
    env = brownian_gap_env()
    rng = np.random.default_rng(0)
    n = 100_000
    t = 0.25
    steps = 16
    dt = t / steps
    states = np.zeros((n, 1))
    for _ in range(steps):
        states = _em_apply(env, 0.0, states, (1,), dt,
                           lambda: rng.standard_normal((n, 1)))
    var = states[:, 0].var()
    se = t * np.sqrt(2.0 / n)
    assert abs(var - t) <= 3 * se


@contextlib.contextmanager
def no_warning_raises(exc, match):
    """pytest.raises(exc, match=match), asserting that no warning is issued
    before it is raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(exc, match=match):
            yield
    assert [str(w.message) for w in caught] == []


def test_em_step_rejects_nonfinite():
    # an infinite drift is refused when the MDP is built; a finite one can
    # still overflow the state in one EM step, which the rollout reports with
    # no numpy warning; a step of zero length is refused
    with pytest.raises(ValueError, match="^drift must hold"):
        constant_env(np.inf)
    with no_warning_raises(SimulationError, "non-finite state"):
        mc_action_return_dist(constant_env(1e308), 0, 0.0, [1e308], 0, 1.0, 2,
                              SimConfig(substeps=1))
    with pytest.raises(ValueError, match="^persistence horizon h"):
        mc_action_return_dist(brownian_gap_env(), 0, 0.0, [0.0], 0, 0.0, 2, SimConfig())


# A drift that overflows the state, on the one-row bundle of a rollout that
# never diffuses and on the full-width bundle after a diffusive window;
# "plain" is a window that plays the base action up to the horizon.
@pytest.mark.parametrize("sampler", ["plain", "frozen_window", "diffusive_window"])
def test_overflowing_rollout_raises_without_warning(sampler):
    x = [1e308]
    with no_warning_raises(SimulationError, "non-finite state"):
        if sampler == "plain":
            mc_action_return_dist(constant_env(1e308), 0, 0.0, x, 0, 1.0, 4,
                                  SimConfig(substeps=4))
        elif sampler == "frozen_window":
            mc_action_return_dist(constant_env(1e308), 0, 0.0, x, 0, 0.25, 4,
                                  SimConfig(substeps=2))
        else:
            env = ContinuousMdp(**two_action_fields(drift=(1e308, 1e308)))
            mc_action_return_dist(env, 0, 0.0, x, 1, 0.25, 4, SimConfig(substeps=2))


# --------------------------------------------------------------- _em_apply


def em_apply_oracle(mdp, t, states, action_indices, delta, noise):
    """Masked per-action EM step: each action's paths are gathered, stepped
    with that action's coefficients and scattered back."""
    out = np.empty_like(states)
    root = math.sqrt(delta)
    for idx in np.unique(action_indices):
        mask = action_indices == idx
        b, sig = mdp.drift[idx], mdp.diffusion[idx]
        out[mask] = states[mask] + b * delta + root * (sig * noise[mask])
    return out


# "elementwise": every action reads noise, which its diffusion scales entry
# by entry; "hold_frozen": action 0, "hold", has zero drift and zero
# diffusion (1 and 2 are "buy" and "sell").
_DIFFUSION = {"elementwise": (0.5, 0.75, 0.25), "hold_frozen": (0.0, 0.75, 0.25)}


def three_action_env(kind):
    return ContinuousMdp(
        state_dim=3,
        drift=(0.0, 1.0, -2.5),
        diffusion=_DIFFUSION[kind],
        reward=lambda X: np.cos(X).sum(axis=1),
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


# ------------------------------------------- the base action's own return
# A window that plays the base action gives that action's own return.


def test_sample_return_unit_reward_integrates_time():
    env = ContinuousMdp(
        state_dim=1,
        drift=(0.0,),
        diffusion=(0.0,),
        reward=lambda X: np.ones(X.shape[0]),
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=2.0,
    )
    got = mc_action_return_dist(env, 0, 0.5, [0.0], 0, 0.5, 2, SimConfig(substeps=50))
    np.testing.assert_allclose(got.samples, 1.5, rtol=0, atol=1e-9)


def test_sample_return_linear_drift_terminal_reward():
    c, t0, horizon, gamma = 2.0, 0.25, 1.0, 0.9
    env = constant_env(c, horizon=horizon, discount=gamma)
    got = mc_action_return_dist(env, 0, t0, [1.0], 0, 0.25, 2, SimConfig(substeps=20))
    expect = gamma ** (horizon - t0) * (1.0 + c * (horizon - t0))
    np.testing.assert_allclose(got.samples, expect, rtol=1e-9)


def test_sample_return_frozen_gap_env_exact():
    env = brownian_gap_env(horizon=1.0, discount=1.0)
    x = 0.8
    got = mc_action_return_dist(env, 0, 0.0, [x], 0, 0.25, 2, SimConfig(substeps=16))
    np.testing.assert_allclose(got.samples, x * 1.0, rtol=1e-12)


def test_sample_return_discounted_frozen_state():
    gamma = 0.9
    env = brownian_gap_env(horizon=1.0, discount=gamma)
    x = 2.0
    got = mc_action_return_dist(env, 0, 0.0, [x], 0, 0.25, 2, SimConfig(substeps=250))
    exact = x * (gamma - 1.0) / np.log(gamma)
    np.testing.assert_allclose(got.samples, exact, rtol=1e-3)


def test_sample_return_rejects_start_past_horizon():
    env = brownian_gap_env()
    with pytest.raises(ValueError):
        mc_action_return_dist(env, 0, 1.0, [0.0], 0, 0.1, 2, SimConfig())


# ------------------------------------------------- action-conditioned return


def test_action_return_full_horizon_matches_plain_return():
    # a window that reaches the horizon plays its action up to the horizon,
    # as action 1's own return does
    env = brownian_gap_env()
    via_action = _rollout_returns(env, 0, 0.0, [0.0], 4, substream(7), dt=1 / 32,
                                  window_end=1.0, window_action=1)
    via_plain = _rollout_returns(env, 1, 0.0, [0.0], 4, substream(7), dt=1 / 32,
                                 window_end=0.25, window_action=1)
    np.testing.assert_array_equal(via_action, via_plain)


def test_action_return_matching_deterministic_policy_identical_law():
    env = brownian_gap_env()
    a_cond = _rollout_returns(env, 1, 0.0, [0.0], 4, substream(11), dt=1 / 32,
                              window_end=0.25, window_action=1)
    plain = _rollout_returns(env, 1, 0.0, [0.0], 4, substream(11), dt=1 / 32,
                             window_end=1.0, window_action=1)
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


def window_rule(action, t0, window_end, window_action):
    """The action index a step from s plays: the persistent modification's
    window test t0 - tol <= s < window_end - tol, evaluated per step."""
    tol = TIME_TOL * max(1.0, abs(t0) + (window_end - t0))
    return lambda s: window_action if t0 - tol <= s < window_end - tol else action


def always_draw_oracle(mdp, action, t0, x0, n_paths, rng, dt, window_end, window_action,
                       tail_dt=None):
    """The always-draw step loop: every step draws its normals, picks its
    action by window_rule and applies them through the masked oracle,
    diffusion zero or not."""
    n = mdp.state_dim
    states = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    rule = window_rule(action, t0, window_end, window_action)
    phases = [(t0, window_end, dt), (window_end, mdp.horizon, tail_dt or dt)]
    for start, end, step in phases:
        for j, delta in enumerate(_phase_steps(start, end, step)):
            s = start + j * step
            disc = 1.0 if gamma == 1.0 else math.exp(log_gamma * (s - t0))
            rew = np.asarray(mdp.reward(states), dtype=np.float64)
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
# a window that reaches the horizon; "demo_plain" is superiority-demo's eta,
# whose window plays the base action.
_ORACLE_CASES = {
    "gap_base0_action0": (brownian_gap_env(), 0, 0, 0.25, 1 / 64, None),
    "gap_base0_action1": (brownian_gap_env(), 0, 1, 0.25, 1 / 64, None),
    "gap_base1_action1": (brownian_gap_env(discount=0.9), 1, 1, 0.125, 1 / 64, None),
    "demo_window": (illustration_env(horizon=2.0), 0, 1, 0.125, 0.125 / 16, 0.05),
    "demo_plain": (illustration_env(horizon=2.0), 0, 0, 0.125, 0.125 / 16, 0.05),
    "demo_window_to_horizon": (illustration_env(horizon=0.125), 0, 1, 0.125,
                               0.125 / 16, 0.05),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_rollout_matches_always_draw_oracle_bitwise(case):
    env, base, action, h, dt, tail_dt = _ORACLE_CASES[case]
    got = _rollout_returns(env, base, 0.0, [0.0], 300, substream(3, 5), dt, h, action,
                           tail_dt=tail_dt)
    want = always_draw_oracle(env, base, 0.0, [0.0], 300, substream(3, 5), dt, h, action,
                              tail_dt=tail_dt)
    assert got.tobytes() == want.tobytes()


def em_step_oracle(mdp, states, idx, delta, draw):
    """The EM step before frozen steps kept their states: x + b delta, plus
    the noise term when the action's diffusion is nonzero."""
    drifted = states + mdp.drift[idx] * delta
    if not mdp.diffusion[idx]:
        return drifted
    return drifted + math.sqrt(delta) * (mdp.diffusion[idx] * draw())


def rollout_oracle(mdp, action, t0, x0, n_paths, rng, dt, window_end, window_action,
                   tail_dt=None):
    """The per-step loop: every step reads the reward from its states and
    multiplies it by its discount and its step, picks its action by
    window_rule, makes a fresh state array (a frozen step adds 0 dt) and
    scans it for finiteness."""
    n = mdp.state_dim
    states = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0
    rule = window_rule(action, t0, window_end, window_action)
    phases = [(t0, window_end, dt), (window_end, mdp.horizon, tail_dt or dt)]
    for start, end, step in phases:
        for j, delta in enumerate(_phase_steps(start, end, step)):
            s = start + j * step
            disc = 1.0 if gamma == 1.0 else math.exp(log_gamma * (s - t0))
            rew = np.asarray(mdp.reward(states), dtype=np.float64)
            gains += disc * rew * delta
            states = em_step_oracle(mdp, states, rule(s), delta,
                                    lambda: rng.standard_normal((n_paths, n)))
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
    """(t0, window keywords) of a rollout from base action 0: a window
    [0, 0.375) of the base action itself, a window [0.125, 0.375) of the
    last action, or a window [0.5, 1) of it that reaches the horizon."""
    window = {"constant": (0.0, 0.375, 0), "persistent": (0.125, 0.375, n_actions - 1),
              "to_horizon": (0.5, 1.0, n_actions - 1)}
    t0, window_end, window_action = window[name]
    return t0, dict(window_end=window_end, window_action=window_action)


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


def full_width_rollout(mdp, action, t0, x0, n_paths, rng, dt, window_end, window_action,
                       tail_dt=None):
    """The rollout with its bundle broadcast to n_paths rows from the start:
    the same phases, reward reuse, adds and _em_apply calls, on every path."""
    n = mdp.state_dim
    states = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths, n)).copy()
    gains = np.zeros(n_paths)
    step_gain = np.empty(n_paths)
    gamma = mdp.discount
    log_gamma = math.log(gamma) if gamma < 1.0 else 0.0

    def draw():
        return rng.standard_normal((n_paths, n))

    phases = [(t0, window_end, dt, window_action),
              (window_end, mdp.horizon, tail_dt or dt, action)]
    rew_states = gain_delta = None
    for start, end, step, phase_action in phases:
        acts = np.full(n_paths, phase_action, dtype=np.intp)
        for j, delta in enumerate(_phase_steps(start, end, step)):
            s = start + j * step
            if states is not rew_states:
                rew = np.asarray(mdp.reward(states), dtype=np.float64)
                rew_states, gain_delta = states, None
            if gamma == 1.0:
                if delta != gain_delta:
                    np.multiply(rew, delta, out=step_gain)
                    gain_delta = delta
            else:
                np.multiply(math.exp(log_gamma * (s - t0)), rew, out=step_gain)
                np.multiply(step_gain, delta, out=step_gain)
            gains += step_gain
            states = _em_apply(mdp, s, states, acts, delta, draw)
    disc_t = 1.0 if gamma == 1.0 else math.exp(log_gamma * (mdp.horizon - t0))
    term = np.asarray(mdp.terminal_reward(states), dtype=np.float64)
    gains += disc_t * np.broadcast_to(term, (n_paths,))
    return gains


# (env, base action, window action, window end): the bundle stays one row
# while no step diffuses and widens at the first step that does. A window
# of the base action gives that action's own return.
_WIDTH_CASES = {
    "frozen_only": (brownian_gap_env(), 0, 0, 0.25),
    "drift_then_frozen": (illustration_env(horizon=1.0, drift=2.0, move_diffusion=0.0),
                          0, 1, 0.25),
    "drift_only": (illustration_env(horizon=1.0, drift=-3.0, move_diffusion=0.0),
                   1, 1, 0.25),
    "diffusing_window_then_frozen": (brownian_gap_env(), 0, 1, 0.25),
    "frozen_window_then_diffusing": (brownian_gap_env(), 1, 0, 0.25),
    "diffusing_base": (illustration_env(horizon=1.0, drift=2.0), 1, 1, 0.25),
    "three_action_drift_then_diffusing": (three_action_env("hold_frozen"), 0, 1, 0.5),
}


@pytest.mark.parametrize("terminal", ["env", "nonzero"])
@pytest.mark.parametrize("gamma", [1.0, 0.9])
@pytest.mark.parametrize("case", sorted(_WIDTH_CASES))
def test_rollout_matches_full_width_rollout_bitwise(case, gamma, terminal):
    env, base, window_action, window_end = _WIDTH_CASES[case]
    env = dataclasses.replace(env, discount=gamma)
    if terminal == "nonzero":
        env = dataclasses.replace(env, terminal_reward=lambda X: np.sin(X).sum(axis=1) + 2)
    x0 = np.linspace(-0.3, 0.4, env.state_dim)
    rng, oracle_rng = substream(8, len(case), gamma < 1), substream(8, len(case), gamma < 1)
    got = _rollout_returns(env, base, 0.0, x0, 40, rng, 1 / 32, window_end, window_action,
                           tail_dt=0.05)
    want = full_width_rollout(env, base, 0.0, x0, 40, oracle_rng, 1 / 32, window_end,
                              window_action, tail_dt=0.05)
    assert got.shape == (40,) and got.flags.writeable
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# A frozen step leaves the generator as it was, and the rollout reads the
# reward once per state array that enters a step, so a frozen phase reads it
# at most once, on entry.
@pytest.mark.parametrize("window_action, base", [(1, 0), (0, 1)],
                         ids=["noisy_then_frozen", "frozen_then_noisy"])
def test_frozen_phase_leaves_generator_untouched_and_reads_reward_once(
        monkeypatch, window_action, base):
    rng = substream(6, 5)
    steps, reads = [], []

    def recorded(mdp, t, states, acts, delta, draw):
        before = rng.bit_generator.state
        out = _em_apply(mdp, t, states, acts, delta, draw)
        steps.append((int(acts[0]), states, before == rng.bit_generator.state))
        return out

    env = dataclasses.replace(brownian_gap_env(),
                              reward=lambda X: reads.append(X) or X[:, 0])
    monkeypatch.setattr(ctmdp, "_em_apply", recorded)
    _rollout_returns(env, base, 0.0, [0.5], 8, rng, 1 / 32, tail_dt=0.05,
                     window_end=0.25, window_action=window_action)
    assert {(a, kept) for a, _, kept in steps} == {(0, True), (1, False)}
    entering = [states for _, states, _ in steps]
    distinct = [x for i, x in enumerate(entering) if i == 0 or x is not entering[i - 1]]
    assert len(reads) == len(distinct)
    assert all(x is y for x, y in zip(reads, distinct))


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


def _drift_then_noise_env():
    """Action 0 only drifts; action 1 diffuses. The reward reads the state."""
    return ContinuousMdp(state_dim=2, drift=(1.5, -0.5), diffusion=(0.0, 0.75),
                         reward=lambda X: np.sin(X).sum(axis=1),
                         terminal_reward=lambda X: X[:, 1] + 0.25, horizon=1.0)


# Rollouts whose bundle keeps one row, and its return one float, for many
# steps: (env, base action, x0, window_end, window_action, tail_dt).
_ONE_ROW_CASES = {
    # the frozen base action's own discounted return, one row throughout,
    # with a tail that ends on a short step
    "discounted_frozen_base": (brownian_gap_env(discount=0.9), 0, [0.3], 0.25, 0, 0.05),
    # 24 one-row drift steps, then a diffusing phase widens the bundle
    "drift_then_diffusing": (_drift_then_noise_env(), 1, [0.1, -0.2], 0.75, 0, None),
    # a -0.0 start, frozen for 16 discounted steps, then diffusing
    "negative_zero_start": (brownian_gap_env(discount=0.9), 1, [-0.0], 0.5, 0, None),
}


@pytest.mark.parametrize("case", sorted(_ONE_ROW_CASES))
def test_one_row_rollout_matches_step_loop_oracle_bitwise(monkeypatch, case):
    env, base, x0, window_end, window_action, tail_dt = _ONE_ROW_CASES[case]
    calls = []

    def counted(*args):
        calls.append(args[2].shape[0])  # states
        return _em_apply(*args)

    monkeypatch.setattr(ctmdp, "_em_apply", counted)
    window = dict(window_end=window_end, window_action=window_action, tail_dt=tail_dt)
    rng, oracle_rng = substream(6, 7, len(case)), substream(6, 7, len(case))
    got = _rollout_returns(env, base, 0.0, x0, 48, rng, 1 / 32, **window)
    want = rollout_oracle(env, base, 0.0, x0, 48, oracle_rng, 1 / 32, **window)
    assert got.shape == (48,) and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # one _em_apply call per EM step, the first ones on a one-row bundle
    steps = (len(_phase_steps(0.0, window_end, 1 / 32))
             + len(_phase_steps(window_end, env.horizon, tail_dt or 1 / 32)))
    assert len(calls) == steps and calls[0] == 1


# The window plays the first phase's action, from base action 0.
@pytest.mark.parametrize("window_end, phases", [
    (0.25, [(0, 8), (0, 24)]), (0.25, [(1, 8), (0, 24)]), (1.0, [(1, 32)])])
def test_rollout_plays_one_zero_stride_index_vector_per_phase(monkeypatch, window_end,
                                                              phases):
    seen = []

    def recorded(*args):
        seen.append(args[3])  # action_indices
        return _em_apply(*args)

    monkeypatch.setattr(ctmdp, "_em_apply", recorded)
    _rollout_returns(brownian_gap_env(), 0, 0.0, [0.0], 5, substream(6, 4), 1 / 32,
                     window_end=window_end, window_action=phases[0][0])
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
        _rollout_returns(brownian_gap_env(), 0, 0.0, [x0], 4, substream(6, 3), 1 / 8,
                         window_end=0.25, window_action=0)


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
    gains = _rollout_returns(env, 0, 0.0, [0.5], 50, rng, 1 / 64, window_end=0.25,
                             window_action=0)
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
