import numpy as np
import pytest

from ctdrl.ctmdp import ConstantAction, SimConfig, substream
from ctdrl.envs import (
    GbmParams,
    OptionTradingEnv,
    estimate_gbm,
    illustration_env,
    load_price_csv,
    save_price_csv,
    brownian_gap_env,
    brownian_gap_w1_oracle,
)
from ctdrl.estimate import mc_action_return_dist, mc_return_dist, mc_superiority
from ctdrl.dist import mean, rescale


def test_brownian_gap_env_frozen_return_closed_form():
    for gamma in (1.0, 0.9):
        env = brownian_gap_env(horizon=1.0, discount=gamma)
        x = 1.3
        got = mc_return_dist(env, ConstantAction(0), 0.0, [x], 2, SimConfig(dt=1e-3))
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
    emp = mc_return_dist(env, ConstantAction(0), 0.0, [0.0], 100,
                         SimConfig(dt=0.05, seed=1))
    np.testing.assert_array_equal(emp.samples, 0.0)


def test_illustration_rescaled_superiority_mean_near_drift_times_horizon():
    env = illustration_env()
    h, n = 0.01, 20_000
    cfg = SimConfig(substeps=16, dt_floor=1e-4, tail_dt=0.05, seed=2)
    zeta = mc_action_return_dist(env, ConstantAction(0), 0.0, [0.0], 1, h, n, cfg)
    eta = mc_return_dist(env, ConstantAction(0), 0.0, [0.0], n,
                         SimConfig(dt=0.05, seed=3))
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


def test_gbm_params_validation():
    with pytest.raises(ValueError):
        GbmParams(0.1, -0.2)


# ------------------------------------------------------------ gbm estimation


def test_estimate_gbm_deterministic_exponential():
    dt = 0.1
    prices = np.exp(0.05 * np.arange(50) * dt)
    params = estimate_gbm(prices, dt)
    assert params.sigma == pytest.approx(0.0, abs=1e-9)
    assert params.mu == pytest.approx(0.05, abs=1e-9)


def test_estimate_gbm_constant_prices():
    params = estimate_gbm(np.full(10, 3.7), 0.5)
    assert params.mu == 0.0 and params.sigma == 0.0


def test_estimate_gbm_recovers_synthetic_parameters():
    mu, sigma, dt, k = 0.1, 0.3, 1.0 / 250, 10_000
    rng = substream(11, 0)
    increments = (mu - 0.5 * sigma**2) * dt + sigma * np.sqrt(dt) * rng.standard_normal(k)
    prices = np.exp(np.concatenate([[0.0], np.cumsum(increments)]))
    params = estimate_gbm(prices, dt)
    assert abs(params.sigma - sigma) <= 3 * sigma / np.sqrt(2 * k)
    assert abs(params.mu - mu) <= 3 * sigma / np.sqrt(k * dt)


def test_estimate_gbm_scale_invariance():
    rng = substream(12, 0)
    prices = np.exp(np.cumsum(rng.normal(0, 0.02, size=200)))
    base = estimate_gbm(prices, 0.01)
    scaled = estimate_gbm(1234.5 * prices, 0.01)
    assert scaled.mu == pytest.approx(base.mu, rel=1e-12, abs=1e-12)
    assert scaled.sigma == pytest.approx(base.sigma, rel=1e-12)


def test_estimate_gbm_validations():
    with pytest.raises(ValueError):
        estimate_gbm([1.0, 2.0], 0.1)
    with pytest.raises(ValueError):
        estimate_gbm([1.0, -2.0, 3.0], 0.1)
    with pytest.raises(ValueError):
        estimate_gbm([1.0, 2.0, 3.0], 0.0)


# ----------------------------------------------------------------- price csv


def test_price_csv_roundtrip(tmp_path):
    path = tmp_path / "prices.csv"
    prices = np.array([1.0, 1.1, 0.95])
    save_price_csv(path, prices)
    steps, loaded = load_price_csv(path)
    np.testing.assert_array_equal(steps, [0, 1, 2])
    np.testing.assert_array_equal(loaded, prices)


def test_price_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,price\n0,1.0\n1,-2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3"):
        load_price_csv(path)
    path.write_text("step,price\n0,1.0\nnot-a-number,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3"):
        load_price_csv(path)
    path.write_text("step,price\n0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        load_price_csv(path)
    path.write_text("wrong,header\n0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_price_csv(path)
    path.write_text("step,price\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data"):
        load_price_csv(path)
