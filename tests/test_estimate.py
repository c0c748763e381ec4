import math
import re

import numpy as np
import pytest

from ctdrl import estimate
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
    mc_superiority,
)
from ctdrl.envs import illustration_env, brownian_gap_env, brownian_gap_w1_oracle

BASE_ACTION = 0


def test_base_action_return_deterministic_env_collapses():
    env = brownian_gap_env()
    emp = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.6], BASE_ACTION, 0.25, 50,
                                SimConfig(substeps=8, seed=1))
    np.testing.assert_allclose(emp.samples, 0.6, rtol=1e-12)


def test_mc_return_dist_rejects_start_at_horizon():
    env = brownian_gap_env()
    with pytest.raises(ValueError, match="before the horizon"):
        mc_action_return_dist(env, BASE_ACTION, 1.0, [0.0], BASE_ACTION, 0.25, 10,
                              SimConfig())


# NaN compares false against the horizon and -inf would step forever: both
# used to fail inside the rollout's step count instead of naming t.
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1.0])
@pytest.mark.parametrize("sampler", ["plain", "action"])
def test_start_time_must_be_finite_and_before_the_horizon(sampler, t):
    env = brownian_gap_env()
    named = f"^start time t={t} must be finite and before the horizon 1.0$"
    a = BASE_ACTION if sampler == "plain" else 1
    with pytest.raises(ValueError, match=named):
        mc_action_return_dist(env, BASE_ACTION, t, [0.0], a, 0.25, 4, SimConfig())


# Each argument that selects an action or counts paths is checked by name:
# -1 used to play the last action as the base and fail inside SeedSequence
# as the window action, 2 raised a bare IndexError, and a non-integer path
# count failed inside numpy.
@pytest.mark.parametrize("name, value", [
    ("action", -1), ("action", 2), ("action", True), ("action", 1.0),
    ("a", -1), ("a", 2), ("a", True), ("a", 1.0),
    ("n_paths", 1), ("n_paths", 2.5), ("n_paths", math.nan), ("n_paths", True),
])
def test_mc_action_return_dist_names_a_bad_argument(name, value):
    args = {"action": BASE_ACTION, "a": 1, "n_paths": 4, name: value}
    rule = ("an integer >= 2" if name == "n_paths"
            else "an action index in range(2)")
    with pytest.raises(ValueError, match=f"^{name} must be {re.escape(rule)}, "
                                         f"got {re.escape(repr(value))}$"):
        mc_action_return_dist(brownian_gap_env(), args["action"], 0.0, [0.0], args["a"],
                              0.25, args["n_paths"], SimConfig())


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
        drift=(0.0, 0.0),
        diffusion=(1.0, 1.0),
        reward=lambda X: X[:, 0],
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


# One resample has no spread to measure: its SE would be a NaN that the
# estimate reports as a divergence, after numpy warns of it.
@pytest.mark.parametrize("bootstrap", [1, 0, -3, 2.0, 2.5, math.nan, True, "2", None])
def test_gap_estimate_rejects_bootstrap_below_two_or_not_an_integer(bootstrap):
    zeta = EmpiricalDist([0.0, 1.0, 2.0])
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(
            f"bootstrap must be an integer >= 2, got {bootstrap!r}")):
        gap_estimate(zeta, zeta, 1, 4, bootstrap, rng)
    assert rng.bit_generator.state == before


# A side of one sample has no sample standard deviation: numpy would warn of
# it and the estimate would report a divergence, though the input is invalid.
@pytest.mark.parametrize("sizes, side", [((1, 5), "zeta_a"), ((5, 1), "zeta_b")])
def test_gap_estimate_rejects_a_side_below_two_samples(sizes, side):
    zeta_a, zeta_b = (EmpiricalDist(np.arange(n, dtype=np.float64)) for n in sizes)
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{side} needs at least 2 samples, got 1$"):
        gap_estimate(zeta_a, zeta_b, 1, 4, 20, rng)
    assert rng.bit_generator.state == before


def test_gap_estimate_takes_a_numpy_integer_bootstrap():
    zeta_a, zeta_b = EmpiricalDist([0.0, 1.0, 2.0]), EmpiricalDist([0.5, 1.0, 3.0])
    got = gap_estimate(zeta_a, zeta_b, 1, 4, np.int64(2), np.random.default_rng(9))
    assert vars(got) == vars(gap_estimate(zeta_a, zeta_b, 1, 4, 2,
                                          np.random.default_rng(9)))


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
        drift=(0.0,) * len(actions),
        diffusion=(1.0,) * len(actions),
        reward=lambda X: X[:, 0],
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
        drift=(0.0, 0.0),
        diffusion=(0.0, 1.0),
        reward=lambda X: np.zeros(X.shape[0]),
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
        drift=(0.0, 0.0),
        diffusion=(0.0, 1.0),
        reward=lambda X: np.tanh(X[:, 0]),
        terminal_reward=lambda X: np.zeros(X.shape[0]),
        horizon=1.0,
    )
    n = 8000
    h_grid = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    ws, ses = [], []
    for i, h in enumerate(h_grid):
        cfg = SimConfig(substeps=16, seed=100 + i)
        zeta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], 1, h, n, cfg)
        eta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], BASE_ACTION, h, n,
                                    SimConfig(substeps=16, seed=200 + i))
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
    eta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], BASE_ACTION, h, 4000,
                                SimConfig(substeps=16, seed=22))
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
    if kind == "constant_b":
        return rng.normal(0.7, 0.5, size=200), np.full(90, -1.25)
    if kind == "both_constant":
        return np.full(120, 0.7), np.full(90, -1.25)
    if kind == "negative_zero":
        # every hazen read of a -0.0 side gives zeros of both signs
        return np.full(150, -0.0), rng.normal(size=80)
    if kind == "mixed_zeros":
        # equal values, not equal bits: the side is resampled in full
        return np.where(rng.random(150) < 0.5, -0.0, 0.0), rng.normal(size=80)
    # the frozen action's returns are one constant
    return np.full(120, 0.7), rng.normal(0.7, 0.5, size=200)


# Sides whose samples all have the same bits: (a, b) for each kind.
_CONSTANT_SIDES = {"constant": (True, False), "constant_b": (False, True),
                   "both_constant": (True, True), "negative_zero": (True, False)}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["continuous", "ties", "m_above_n", "m_equals_n",
                                  *_CONSTANT_SIDES, "mixed_zeros"])
def test_bootstrap_w_se_matches_sequential_oracle(monkeypatch, p, kind):
    samples_a, samples_b = _bootstrap_samples(kind, np.random.default_rng(41))
    m = 128 if kind == "m_above_n" else 64
    ranked = []
    sorted_ranks = estimate._sorted_ranks
    monkeypatch.setattr(estimate, "_sorted_ranks",
                        lambda samples: ranked.append(samples) or sorted_ranks(samples))
    rng, oracle_rng = np.random.default_rng(42), np.random.default_rng(42)
    got = _bootstrap_w_se(samples_a, samples_b, p, m, 25, rng)
    want = bootstrap_w_se_oracle(samples_a, samples_b, p, m, 25, oracle_rng)
    assert got == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # only a side that is not constant by bits is ranked and resampled
    constant = _CONSTANT_SIDES.get(kind, (False, False))
    resampled = [x for x, c in zip((samples_a, samples_b), constant) if not c]
    assert len(ranked) == len(resampled)
    assert all(x is y for x, y in zip(ranked, resampled))


def _tied_signed_zero_samples(n, rng):
    """Coarsely rounded values, so most repeat, with zeros of both signs."""
    samples = np.round(rng.normal(size=n), 1)
    samples[::5] = 0.0
    samples[::10] = -0.0
    return samples


# A constant side ("a" or "b", here -0.0) is read once; the other side is
# still resampled through its ranks.
@pytest.mark.parametrize("na, nb, constant", [
    pytest.param(256, 257, None, id="256-257"),
    pytest.param(65536, 65537, None, id="65536-65537"),
    pytest.param(65537, 256, None, id="65537-256"),
    pytest.param(65537, 256, "a", id="65537-256-a_constant"),
    pytest.param(256, 65537, "b", id="256-65537-b_constant")])
def test_bootstrap_w_se_matches_oracle_at_rank_dtype_boundaries(na, nb, constant):
    # n - 1 = 255 is the last uint8 rank, 65535 the last uint16 rank
    rank_dtype = {256: np.uint8, 257: np.uint16, 65536: np.uint16, 65537: np.uint32}
    data_rng = np.random.default_rng(na + nb)
    samples_a = _tied_signed_zero_samples(na, data_rng)
    samples_b = _tied_signed_zero_samples(nb, data_rng)
    if constant == "a":
        samples_a = np.full(na, -0.0)
    elif constant == "b":
        samples_b = np.full(nb, -0.0)
    assert _sorted_ranks(samples_a)[1].dtype == rank_dtype[na]
    assert _sorted_ranks(samples_b)[1].dtype == rank_dtype[nb]
    rng, oracle_rng = np.random.default_rng(43), np.random.default_rng(43)
    got = _bootstrap_w_se(samples_a, samples_b, 1, 64, 3, rng)
    want = bootstrap_w_se_oracle(samples_a, samples_b, 1, 64, 3, oracle_rng)
    assert got == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


_B = estimate._BLOCK
_BLOCK_SIDES = {"neither": (False, False), "a": (True, False), "b": (False, True),
                "both": (True, True)}


# Resample counts that end a block early, fill it, spill one past it and
# span several blocks; each run matches the sequential oracle, and its
# values do not depend on the block size.
@pytest.mark.parametrize("n_resamples", [2, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("constant", sorted(_BLOCK_SIDES))
@pytest.mark.parametrize("na, nb", [(70, 70), (70, 45)])
@pytest.mark.parametrize("p", [1, 2])
def test_bootstrap_w_se_blocks_match_sequential_oracle(monkeypatch, p, na, nb, constant,
                                                       n_resamples):
    data_rng = np.random.default_rng([na, nb, n_resamples])
    const_a, const_b = _BLOCK_SIDES[constant]
    samples_a = np.full(na, 0.25) if const_a else data_rng.normal(size=na)
    samples_b = np.full(nb, -1.5) if const_b else data_rng.normal(0.3, 2.0, size=nb)
    rng, oracle_rng = np.random.default_rng(44), np.random.default_rng(44)
    got = _bootstrap_w_se(samples_a, samples_b, p, 32, n_resamples, rng)
    want = bootstrap_w_se_oracle(samples_a, samples_b, p, 32, n_resamples, oracle_rng)
    assert got == want
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    for block in (1, n_resamples):
        monkeypatch.setattr(estimate, "_BLOCK", block)
        assert _bootstrap_w_se(samples_a, samples_b, p, 32, n_resamples,
                               np.random.default_rng(44)) == want


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
