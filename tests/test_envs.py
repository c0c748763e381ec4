import numpy as np
import pytest

from ctdrl.ctmdp import SimConfig, SimulationError, substream
from ctdrl.envs import (
    GbmParams,
    OptionTradingEnv,
    illustration_env,
    brownian_gap_env,
    brownian_gap_w1_oracle,
)
from ctdrl.estimate import mc_action_return_dist, mc_return_dist, mc_superiority
from ctdrl.dist import mean, rescale


def test_brownian_gap_env_frozen_return_closed_form():
    for gamma in (1.0, 0.9):
        env = brownian_gap_env(horizon=1.0, discount=gamma)
        x = 1.3
        got = mc_return_dist(env, 0, 0.0, [x], 2, 1e-3, 0)
        if gamma == 1.0:
            expect = x
        else:
            expect = x * (gamma - 1.0) / np.log(gamma)
        np.testing.assert_allclose(got.samples, expect, rtol=2e-3)


def test_brownian_gap_w1_oracle_value():
    # sigma_h^2 = h^3/3 + (T-h)^2 h + (T-h) h^2 at T = 1, h = 1/16
    h = 1.0 / 16
    var = h**3 / 3 + (1 - h) ** 2 * h + (1 - h) * h**2
    assert brownian_gap_w1_oracle(h) == pytest.approx(
        np.sqrt(var * 2.0 / np.pi)
    )


def test_illustration_env_value_at_origin_is_zero():
    env = illustration_env()
    emp = mc_return_dist(env, 0, 0.0, [0.0], 100, 0.05, 1)
    np.testing.assert_array_equal(emp.samples, 0.0)


def test_illustration_rescaled_superiority_mean_near_drift_times_horizon():
    env = illustration_env()
    h, n = 0.01, 20_000
    cfg = SimConfig(substeps=16, tail_dt=0.05, seed=2)
    zeta = mc_action_return_dist(env, 0, 0.0, [0.0], 1, h, n, cfg)
    eta = mc_return_dist(env, 0, 0.0, [0.0], n, 0.05, 3)
    psi1 = rescale(mc_superiority(zeta, eta, 512), h, 1.0)
    se = np.std(zeta.samples, ddof=1) / np.sqrt(n) / h
    assert mean(psi1) == pytest.approx(100.0, abs=3 * se + 5 * h)


# -------------------------------------------------------------- option env


def make_option_env(**kw):
    params = kw.pop("gbm", GbmParams(0.0, 0.2))
    return OptionTradingEnv(params, **kw)


def test_option_step_execute_pays_through_terminal_channel():
    env = make_option_env()
    rng = np.random.default_rng(0)
    X, reward, done = env.step_batch(10.0, [[0.8], [1.3]], [1, 1], 0.2, rng)
    assert done.all() and (reward == 0.0).all()
    np.testing.assert_allclose(env.terminal_reward(X), [0.2, 0.0])


def test_option_step_hold_deterministic_flat_gbm():
    env = make_option_env(gbm=GbmParams(0.0, 0.0))
    rng = np.random.default_rng(0)
    X, t = [[1.0]], 0.0
    done = [False]
    while not done[0]:
        X, _, done = env.step_batch(t, X, [0], 10.0, rng)
        t += 10.0
    assert X[0, 0] == pytest.approx(1.0)
    assert env.terminal_reward(X)[0] == 0.0
    assert t == pytest.approx(env.horizon)


def test_option_step_validations():
    env = make_option_env()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        env.step_batch(0.0, [[-0.5]], [0], 0.2, rng)
    with pytest.raises(ValueError):
        env.step_batch(100.0, [[1.0]], [0], 0.2, rng)


def test_option_prices_stay_positive_under_exact_stepping():
    env = make_option_env(gbm=GbmParams(-0.5, 1.5))
    rng = np.random.default_rng(7)
    X = np.full((500, 1), 1.0)
    t = 0.0
    for _ in range(50):
        X, _, done = env.step_batch(t, X, np.zeros(500, dtype=int), 0.2, rng)
        t += 0.2
    assert np.all(X[:, 0] > 0)


def test_option_price_underflow_is_a_simulation_error():
    # a finite drift this negative takes exp of the log-return to 0
    env = make_option_env(gbm=GbmParams(-1e300, 0.2))
    rng = np.random.default_rng(0)
    with pytest.raises(SimulationError, match="underflowed"):
        env.step_batch(0.0, [[1.0]], [0], 0.2, rng)
    with pytest.raises(SimulationError, match="underflowed"):
        env.hold_path(np.array([0.0, 0.2]), np.array([1.0]), np.zeros(2), 0.2)
    # a stop moves no price
    X, _, done = env.step_batch(0.0, [[1.0]], [1], 0.2, rng)
    assert X[0, 0] == 1.0 and done.all()
    # every factor positive: the price itself underflows (at the third hold)
    env = make_option_env(gbm=GbmParams(-1000.0, 0.0))
    with pytest.raises(SimulationError, match="underflowed"):
        env.step_batch(0.0, [[1e-300]], [0], 0.2, rng)
    path, _ = env.hold_path(np.array([0.0, 0.2]), np.array([1e-100]), np.zeros(2), 0.2)
    assert np.all(path > 0)
    with pytest.raises(SimulationError, match="underflowed"):
        env.hold_path(np.array([0.0, 0.2, 0.4]), np.array([1e-100]), np.zeros(3), 0.2)


def test_gbm_params_validation():
    for sigma in (-0.2, float("nan"), 1e200):
        with pytest.raises(ValueError, match="volatility"):
            GbmParams(0.1, sigma)
