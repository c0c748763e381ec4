import math

import numpy as np
import pytest

from ctdrl.ctmdp import ContinuousMdp, SimConfig, SimulationError, substream
from ctdrl.dist import (
    EmpiricalDist,
    QuantileRep,
    independent_cdr,
    mean,
    rescale,
    variance,
    wasserstein,
)
from ctdrl.estimate import (
    _TAG_BOOT,
    _bootstrap_w_se,
    _sorted_ranks,
    action_gaps,
    fit_rate,
    gap_estimate,
    mc_action_return_dist,
    mc_return_dist,
    mc_superiority,
)
from ctdrl.envs import illustration_env, brownian_gap_env, brownian_gap_w1_oracle

BASE_ACTION = 0


def test_mc_return_dist_deterministic_env_collapses():
    env = brownian_gap_env()
    emp = mc_return_dist(env, BASE_ACTION, 0.0, [0.6], 50, 1 / 32, 1)
    np.testing.assert_allclose(emp.samples, 0.6, rtol=1e-12)


def test_mc_return_dist_validates_sample_count():
    env = brownian_gap_env()
    with pytest.raises(ValueError):
        mc_return_dist(env, BASE_ACTION, 0.0, [0.0], 1, 1 / 32, 0)


def test_mc_return_dist_rejects_start_at_horizon():
    env = brownian_gap_env()
    with pytest.raises(ValueError, match="before the horizon"):
        mc_return_dist(env, BASE_ACTION, 1.0, [0.0], 10, 1 / 32, 0)


# inf would be one EM step over the whole horizon; NaN compares false
# against every step bound.
@pytest.mark.parametrize("dt", [math.inf, math.nan, 0.0, -0.1])
def test_mc_return_dist_rejects_non_finite_or_non_positive_dt(dt):
    with pytest.raises(ValueError, match=f"^dt must be positive and finite, got {dt}$"):
        mc_return_dist(brownian_gap_env(), BASE_ACTION, 0.0, [0.0], 4, dt, 0)


def test_mc_action_return_mean_matches_martingale_value():
    env = brownian_gap_env()
    x = 0.5
    emp = mc_action_return_dist(
        env, BASE_ACTION, 0.0, [x], 1, 0.25, 30_000, SimConfig(substeps=32, seed=2)
    )
    se = np.std(emp.samples, ddof=1) / np.sqrt(emp.n)
    assert abs(np.mean(emp.samples) - x) <= 3 * se


def test_mc_superiority_same_samples_is_zero():
    rng = np.random.default_rng(3)
    emp = EmpiricalDist(rng.normal(size=400))
    psi = mc_superiority(emp, emp, 64)
    np.testing.assert_array_equal(psi.values, 0.0)


def test_mc_superiority_translation():
    rng = np.random.default_rng(4)
    base = rng.normal(size=500)
    psi = mc_superiority(EmpiricalDist(base + 2.5), EmpiricalDist(base), 128)
    np.testing.assert_allclose(psi.values, 2.5, rtol=1e-12)


# Finite samples whose difference overflows, and whose quantiles do.
@pytest.mark.parametrize("zeta, eta", [
    (np.full(10, 1e308), np.full(10, -1e308)),
    ([-1e308, 1e308], [0.0, 1.0]),
])
def test_mc_superiority_overflow_is_a_simulation_error(zeta, eta):
    with pytest.raises(SimulationError, match="non-finite superiority estimate"):
        mc_superiority(EmpiricalDist(zeta), EmpiricalDist(eta), 4)


def test_mc_superiority_variance_below_independent_cdr():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = EmpiricalDist(rng.normal(size=600) * rng.uniform(0.5, 2))
        b = EmpiricalDist(rng.normal(size=600) * rng.uniform(0.5, 2))
        psi = mc_superiority(a, b, 256)
        cdr = independent_cdr(a, b, rng, n_samples=4000)
        d = cdr.samples
        fourth = float(np.mean((d - d.mean()) ** 4))
        se = np.sqrt(max(fourth - np.var(d, ddof=1) ** 2, 0.0) / d.size)
        assert variance(psi) <= np.var(d, ddof=1) + 3 * se


def test_action_gaps_identical_dynamics_vanish():
    env = ContinuousMdp(
        state_dim=1,
        actions=(0, 1),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: 1.0,
        reward=lambda t, X: X[:, 0],
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=1.0,
    )
    est = action_gaps(env, BASE_ACTION, 0.0, [0.0], 0.25, 4000, 1,
                      SimConfig(substeps=16, seed=6), m=256, bootstrap=50)
    assert est.value_gap <= 3 * est.value_gap_se
    assert est.dist_gap <= 0.05


def test_gap_estimate_hand_values():
    a = np.array([0.0, 1.0, 2.0, 3.0])
    zeta_a, zeta_b = EmpiricalDist(a), EmpiricalDist(a + 0.5)
    est = gap_estimate(zeta_a, zeta_b, 1, 4, 20, np.random.default_rng(9))
    # at m = n the reps are the sorted samples, so W1 is the shift exactly
    assert est.dist_gap == 0.5
    assert est.value_gap == 0.5
    se = np.std(a, ddof=1) / 2.0
    assert est.value_gap_se == math.hypot(se, se)
    assert est.dist_gap_se == _bootstrap_w_se(a, a + 0.5, 1, 4, 20,
                                              np.random.default_rng(9))


def test_action_gaps_is_gap_estimate_of_its_rollouts():
    env = brownian_gap_env()
    cfg = SimConfig(substeps=8, seed=31)
    est = action_gaps(env, BASE_ACTION, 0.0, [0.2], 0.25, 300, 2, cfg, m=32,
                      bootstrap=10)
    zetas = [mc_action_return_dist(env, BASE_ACTION, 0.0, [0.2], a, 0.25, 300, cfg)
             for a in (0, 1)]
    want = gap_estimate(*zetas, 2, 32, 10, substream(cfg.seed, _TAG_BOOT, 0, 1))
    assert vars(est) == vars(want)


@pytest.mark.parametrize("actions", [(0,), (0, 1, 2)], ids=["1", "3"])
def test_action_gaps_needs_two_actions(actions):
    env = ContinuousMdp(
        state_dim=1,
        actions=actions,
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: 1.0,
        reward=lambda t, X: X[:, 0],
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=1.0,
    )
    with pytest.raises(ValueError, match="exactly two actions"):
        action_gaps(env, BASE_ACTION, 0.0, [0.0], 0.25, 10, 1, SimConfig(substeps=4))


# Returns of +-1e308: every sample is finite, but at m = 64 the quantiles
# interpolate between the two signs and overflow; at m = 16 they do not, and
# the gap itself overflows. Either way the overflow raises and warns nothing.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [64, 16])
def test_action_gaps_quantile_overflow_is_a_simulation_error(m):
    env = ContinuousMdp(
        state_dim=1,
        actions=(0, 1),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: float(a),
        reward=lambda t, X: np.zeros(X.shape[0]),
        terminal_reward=lambda X: np.where(X[:, 0] > 0, 1e308, -1e308),
        horizon=1.0,
    )
    with pytest.raises(SimulationError, match="non-finite action-gap estimate"):
        action_gaps(env, 1, 0.0, [0.0], 0.25, 64, 1,
                    SimConfig(substeps=4, seed=1), m=m, bootstrap=5)


def test_action_gaps_match_gaussian_oracle():
    env = brownian_gap_env()
    h = 0.25
    est = action_gaps(env, BASE_ACTION, 0.0, [0.0], h, 20_000, 1,
                      SimConfig(substeps=32, seed=7), m=512, bootstrap=100)
    oracle = brownian_gap_w1_oracle(h)
    assert est.dist_gap == pytest.approx(oracle, rel=0.03)
    # the frozen action is deterministic, so the value gap is the mean drift 0
    assert est.value_gap <= 3 * est.value_gap_se


def test_action_gaps_illustration_value_gap_oracle():
    env = illustration_env()
    h = 0.0625
    est = action_gaps(env, BASE_ACTION, 0.0, [0.0], h, 20_000, 1,
                      SimConfig(substeps=32, tail_dt=0.05, seed=8), m=512,
                      bootstrap=50)
    drift, horizon = 10.0, 10.0
    exact = drift * h * (horizon - h) + drift * h**2 / 2.0
    assert est.value_gap == pytest.approx(exact, rel=0.02, abs=3 * est.value_gap_se)


def test_distributional_gap_dominates_value_gap():
    env = brownian_gap_env()
    for h, seed in ((0.5, 11), (0.25, 12), (0.125, 13)):
        est = action_gaps(env, BASE_ACTION, 0.0, [0.3], h, 4000, 1,
                          SimConfig(substeps=16, seed=seed), m=256, bootstrap=50)
        slack = 2 * (est.dist_gap_se + est.value_gap_se)
        assert est.dist_gap >= est.value_gap - slack


def test_collapse_is_monotone_on_bounded_reward_fixture():
    env = ContinuousMdp(
        state_dim=1,
        actions=(0, 1),
        drift=lambda t, X, a: 0.0,
        diffusion=lambda t, X, a: 1.0 if a == 1 else 0.0,
        reward=lambda t, X: np.tanh(X[:, 0]),
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=1.0,
    )
    n = 8000
    h_grid = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    ws, ses = [], []
    for i, h in enumerate(h_grid):
        cfg = SimConfig(substeps=16, seed=100 + i)
        zeta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], 1, h, n, cfg)
        eta = mc_return_dist(env, BASE_ACTION, 0.0, [0.0], n, 1 / 32, 200 + i)
        psi = mc_superiority(zeta, eta, 256)
        ws.append(wasserstein(1, psi, mc_superiority(eta, eta, 256)))
        ses.append(np.std(zeta.samples, ddof=1) / np.sqrt(n))
    for lo, hi, se_lo, se_hi in zip(ws[1:], ws[:-1], ses[1:], ses[:-1]):
        assert lo <= hi + 3 * (se_lo + se_hi)
    # sqrt(h) collapse: four halvings shrink the distance well below half
    assert ws[-1] < 0.5 * ws[0]
    assert ws[-1] < 0.2


def test_rescaled_family_gap_scales_exactly():
    env = brownian_gap_env()
    h, m = 0.25, 256
    cfg = SimConfig(substeps=16, seed=21)
    eta = mc_return_dist(env, BASE_ACTION, 0.0, [0.0], 4000, 1 / 64, 22)
    psis = []
    for a in (0, 1):
        zeta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], a, h, 4000, cfg)
        psis.append(mc_superiority(zeta, eta, m))
    for q in (0.5, 1.0):
        raw = wasserstein(1, psis[0], psis[1])
        scaled = wasserstein(1, rescale(psis[0], h, q), rescale(psis[1], h, q))
        assert scaled == pytest.approx(h ** (-q) * raw, rel=1e-12)


def test_estimator_spread_shrinks_with_sample_size():
    # doubling N should shrink the seed-to-seed spread by about sqrt(2); the
    # seed family is pinned (ratio 1.53 at calibration)
    env = brownian_gap_env()
    gaps_n, gaps_2n = [], []
    for s in range(10):
        for n, acc in ((400, gaps_n), (800, gaps_2n)):
            cfg = SimConfig(substeps=16, seed=5000 + s * 7 + n)
            est = action_gaps(env, BASE_ACTION, 0.0, [0.0], 0.25, n, 1, cfg,
                              m=128, bootstrap=10)
            acc.append(est.dist_gap)
    ratio = np.std(gaps_n, ddof=1) / np.std(gaps_2n, ddof=1)
    assert 1.2 <= ratio <= 1.7


def bootstrap_w_se_oracle(samples_a, samples_b, p, m, n_resamples, rng):
    """Sequential bootstrap: gather each resample, then take its quantiles."""
    reps = np.empty(n_resamples)
    levels = (np.arange(m) + 0.5) / m
    na, nb = samples_a.size, samples_b.size
    for i in range(n_resamples):
        ra = samples_a[rng.integers(0, na, na)]
        rb = samples_b[rng.integers(0, nb, nb)]
        qa = np.quantile(ra, levels, method="hazen")
        qb = np.quantile(rb, levels, method="hazen")
        reps[i] = wasserstein(p, QuantileRep(qa), QuantileRep(qb))
    return float(np.std(reps, ddof=1))


def _bootstrap_samples(kind, rng):
    if kind == "continuous":
        return rng.normal(size=300), rng.normal(0.4, 1.3, size=170)
    if kind == "ties":
        # coarse grid, so most values repeat
        return np.round(rng.normal(size=250), 1), np.round(rng.normal(size=90), 1)
    if kind == "m_above_n":
        return rng.normal(size=40), rng.exponential(size=55)
    if kind == "m_equals_n":
        return rng.normal(size=64), rng.gumbel(size=64)
    # the frozen action's returns are one constant
    return np.full(120, 0.7), rng.normal(0.7, 0.5, size=200)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["continuous", "ties", "m_above_n", "m_equals_n",
                                  "constant"])
def test_bootstrap_w_se_matches_sequential_oracle(p, kind):
    samples_a, samples_b = _bootstrap_samples(kind, np.random.default_rng(41))
    m = 128 if kind == "m_above_n" else 64
    rng, oracle_rng = np.random.default_rng(42), np.random.default_rng(42)
    got = _bootstrap_w_se(samples_a, samples_b, p, m, 25, rng)
    want = bootstrap_w_se_oracle(samples_a, samples_b, p, m, 25, oracle_rng)
    assert got == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _tied_signed_zero_samples(n, rng):
    """Coarsely rounded values, so most repeat, with zeros of both signs."""
    samples = np.round(rng.normal(size=n), 1)
    samples[::5] = 0.0
    samples[::10] = -0.0
    return samples


@pytest.mark.parametrize("na, nb", [(256, 257), (65536, 65537), (65537, 256)])
def test_bootstrap_w_se_matches_oracle_at_rank_dtype_boundaries(na, nb):
    # n - 1 = 255 is the last uint8 rank, 65535 the last uint16 rank
    rank_dtype = {256: np.uint8, 257: np.uint16, 65536: np.uint16, 65537: np.uint32}
    data_rng = np.random.default_rng(na + nb)
    samples_a = _tied_signed_zero_samples(na, data_rng)
    samples_b = _tied_signed_zero_samples(nb, data_rng)
    assert _sorted_ranks(samples_a)[1].dtype == rank_dtype[na]
    assert _sorted_ranks(samples_b)[1].dtype == rank_dtype[nb]
    rng, oracle_rng = np.random.default_rng(43), np.random.default_rng(43)
    got = _bootstrap_w_se(samples_a, samples_b, 1, 64, 3, rng)
    want = bootstrap_w_se_oracle(samples_a, samples_b, 1, 64, 3, oracle_rng)
    assert got == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_fit_rate_exact_power_laws():
    hs = [0.5, 0.25, 0.125, 0.0625]
    half = fit_rate([(h, 3.0 * h**0.5) for h in hs])
    assert half.slope == pytest.approx(0.5, abs=1e-12)
    assert half.r_squared == pytest.approx(1.0, abs=1e-12)
    lin = fit_rate([(h, 0.7 * h) for h in hs])
    assert lin.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_validations():
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.25, 0.0), (0.125, 0.1)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (-0.25, 0.5), (0.125, 0.3)])
    with pytest.raises(ValueError):
        fit_rate([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gap must be positive"):
            fit_rate([(0.5, 1.0), (0.25, bad), (0.125, 0.3)])
        with pytest.raises(ValueError, match="h must be positive"):
            fit_rate([(0.5, 1.0), (bad, 0.5), (0.125, 0.3)])
