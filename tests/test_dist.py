import numpy as np
import pytest

from ctdrl.dist import (
    _hazen,
    DistortionMeasure,
    EmpiricalDist,
    QuantileRep,
    advantage_shift,
    independent_cdr,
    mean,
    rescale,
    risk_measure,
    superiority,
    to_quantile_rep,
    variance,
    wasserstein,
    wasserstein_bruteforce,
)


def rep(*vals):
    return QuantileRep(np.array(vals, dtype=float))


def emp(*vals):
    return EmpiricalDist(np.array(vals, dtype=float))


# ---------------------------------------------------------------- basics


def test_rep_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        QuantileRep(np.array([]))
    with pytest.raises(ValueError):
        QuantileRep(np.array([1.0, np.nan]))


def test_rep_values_are_immutable():
    r = rep(1.0, 2.0)
    with pytest.raises(ValueError):
        r.values[0] = 5.0


# ---------------------------------------------------------------- transport


def test_wasserstein_examples():
    assert wasserstein(1, rep(3), rep(7)) == pytest.approx(4.0)
    assert wasserstein(2, rep(3), rep(7)) == pytest.approx(4.0)
    a = rep(0.3, -1.2, 4.0)
    assert wasserstein(1, a, a) == 0.0
    # brute-force over both pairings of {0,2} vs {1,3} gives 1
    assert wasserstein(1, rep(0, 2), rep(1, 3)) == pytest.approx(1.0)


def test_wasserstein_rejects_unequal_sizes():
    with pytest.raises(ValueError, match="rep sizes differ"):
        wasserstein(1, rep(1, 3), rep(1, 1, 3, 3))


def test_wasserstein_rejects_unsupported_p():
    with pytest.raises(ValueError):
        wasserstein(3, rep(1), rep(2))


def test_bruteforce_examples():
    assert wasserstein_bruteforce(1, emp(0, 1), emp(0, 1)) == 0.0
    assert wasserstein_bruteforce(1, emp(0, 10), emp(1, 2)) == pytest.approx(4.5)


def test_bruteforce_rejects_size_mismatch_and_cap():
    with pytest.raises(ValueError):
        wasserstein_bruteforce(1, emp(1, 2), emp(1, 2, 3))
    with pytest.raises(ValueError):
        wasserstein_bruteforce(
            1, emp(*range(9)), emp(*range(9)), method="exhaustive"
        )


def test_bruteforce_exhaustive_matches_sorted_matching():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = EmpiricalDist(rng.normal(size=n) * 4)
        b = EmpiricalDist(rng.normal(size=n) * 4)
        for p in (1, 2):
            ex = wasserstein_bruteforce(p, a, b, method="exhaustive")
            so = wasserstein_bruteforce(p, a, b, method="sorted")
            assert ex == pytest.approx(so, abs=1e-10)


def test_oracle_equivalence_with_quantile_formula():
    # quantizing equal-size samples at m = n recovers the sorted samples, so
    # the quantile-integral distance must match the assignment oracle
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = EmpiricalDist(rng.normal(size=n) * 3)
        b = EmpiricalDist(rng.normal(size=n) * 3)
        for p in (1, 2):
            oracle = wasserstein_bruteforce(p, a, b, method="exhaustive")
            quant = wasserstein(p, to_quantile_rep(a, n), to_quantile_rep(b, n))
            assert quant == pytest.approx(oracle, abs=1e-10)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(1, 12))
        a = QuantileRep(rng.normal(size=m))
        b = QuantileRep(rng.normal(size=m))
        c = QuantileRep(rng.normal(size=m))
        p = int(rng.integers(1, 3))
        assert wasserstein(p, a, a) == 0.0
        ab = wasserstein(p, a, b)
        assert ab == wasserstein(p, b, a)
        ac = wasserstein(p, a, c)
        cb = wasserstein(p, c, b)
        scale = max(1.0, ab, ac, cb)
        assert ab <= ac + cb + 1e-12 * scale


def test_total_variation_is_unsuitable_while_wasserstein_is_not():
    # deltas at h and 0 stay at TV distance 1 for every h, but their W1
    # distance tracks the value gap h
    def tv(xs, ys):
        support = np.union1d(xs, ys)
        px = np.array([np.mean(xs == s) for s in support])
        py = np.array([np.mean(ys == s) for s in support])
        return 0.5 * np.abs(px - py).sum()

    for h in (1.0, 0.1, 1e-3, 1e-6):
        a = np.array([h])
        b = np.array([0.0])
        assert tv(a, b) == 1.0
        assert wasserstein(1, QuantileRep(a), QuantileRep(b)) == pytest.approx(h)


# ---------------------------------------------------------------- risk


def test_risk_measure_examples():
    r = rep(1, 2, 3, 4)
    ev = DistortionMeasure.expected_value()
    assert risk_measure(ev, r) == pytest.approx(2.5)
    assert risk_measure(DistortionMeasure.cvar(0.5), r) == pytest.approx(1.5)
    for measure in (ev, DistortionMeasure.cvar(0.3)):
        assert risk_measure(measure, rep(-3.25)) == pytest.approx(-3.25)


def test_cvar_one_coincides_with_expected_value():
    m = 7
    np.testing.assert_allclose(
        DistortionMeasure.cvar(1.0).level_weights(m),
        DistortionMeasure.expected_value().level_weights(m),
    )


def test_cvar_weights_integrate_bucket_mass():
    w = DistortionMeasure.cvar(0.5).level_weights(4)
    np.testing.assert_allclose(w, [0.5, 0.5, 0.0, 0.0])
    # continuity in alpha around a bucket edge
    lo = DistortionMeasure.cvar(0.25 - 1e-9).level_weights(4)
    hi = DistortionMeasure.cvar(0.25 + 1e-9).level_weights(4)
    np.testing.assert_allclose(lo, hi, atol=1e-7)


def test_cvar_sorts_before_weighting():
    assert risk_measure(DistortionMeasure.cvar(0.25), rep(4, 3, 2, 1)) == 1.0


def test_distortion_validation():
    with pytest.raises(ValueError):
        DistortionMeasure.cvar(0.0)
    with pytest.raises(ValueError):
        DistortionMeasure.cvar(1.2)


# ---------------------------------------------------------------- superiority


def test_superiority_examples():
    z = rep(1.5, -2.0, 0.25)
    assert np.all(superiority(z, z).values == 0.0)
    shifted = QuantileRep(z.values + 3.0)
    np.testing.assert_allclose(superiority(shifted, z).values, 3.0)
    out = superiority(rep(0, 2), rep(1, 1))
    np.testing.assert_array_equal(out.values, [-1, 1])
    assert mean(out) == pytest.approx(mean(rep(0, 2)) - mean(rep(1, 1)))


def test_superiority_output_not_resorted():
    # sorted difference of sorted reps need not be sorted; it must be kept
    # in quantile-level order
    out = superiority(rep(0.0, 10.0), rep(-5.0, 100.0))
    np.testing.assert_array_equal(out.values, [5.0, -90.0])


def test_superiority_rejects_m_mismatch():
    with pytest.raises(ValueError):
        superiority(rep(1, 2), rep(1, 2, 3))


def test_superiority_mean_identity_and_min_variance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(2, 40))
        z = QuantileRep(rng.normal(size=m) * rng.uniform(0.5, 4))
        e = QuantileRep(rng.normal(size=m) * rng.uniform(0.5, 4))
        sup = superiority(z, e)
        lhs = mean(sup)
        rhs = mean(z) - mean(e)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        cdr = independent_cdr(
            EmpiricalDist(z.values), EmpiricalDist(e.values), rng, n_samples=4000
        )
        d = cdr.samples
        var_hat = float(np.var(d, ddof=1))
        fourth = float(np.mean((d - d.mean()) ** 4))
        se = np.sqrt(max(fourth - var_hat**2, 0.0) / d.size)
        assert variance(sup) <= var_hat + 3 * se + 1e-12


def test_independent_cdr_examples():
    rng = np.random.default_rng(12)
    delta = EmpiricalDist(np.full(50, 2.5))
    np.testing.assert_array_equal(independent_cdr(delta, delta, rng).samples, 0.0)

    base = EmpiricalDist(rng.normal(size=4000) * 1.7)
    cdr = independent_cdr(base, base, rng, n_samples=20_000)
    d = cdr.samples
    var_hat = float(np.var(d, ddof=1))
    fourth = float(np.mean((d - d.mean()) ** 4))
    se = np.sqrt(max(fourth - var_hat**2, 0.0) / d.size)
    assert abs(var_hat - 2 * np.var(base.samples)) <= 3 * se

    gauss = EmpiricalDist(rng.normal(size=20_000))
    point = EmpiricalDist(np.zeros(1))
    cdr2 = independent_cdr(gauss, point, rng, n_samples=20_000)
    assert np.var(cdr2.samples, ddof=1) == pytest.approx(1.0, abs=0.05)


def test_cdr_mean_matches_mean_difference():
    rng = np.random.default_rng(13)
    mu = EmpiricalDist(rng.normal(1.0, 2.0, size=5000))
    nu = EmpiricalDist(rng.normal(-0.5, 1.0, size=5000))
    cdr = independent_cdr(mu, nu, rng, n_samples=40_000)
    se = np.sqrt(np.var(cdr.samples, ddof=1) / cdr.samples.size)
    assert np.mean(cdr.samples) == pytest.approx(
        np.mean(mu.samples) - np.mean(nu.samples), abs=4 * se)


# ---------------------------------------------------------------- rescaling


def test_rescale_examples():
    psi = rep(-1, 0.5, 2)
    np.testing.assert_array_equal(rescale(psi, 0.37, 0.0).values, psi.values)
    np.testing.assert_allclose(rescale(rep(2), 4.0, 0.5).values, [1.0])
    with pytest.raises(ValueError):
        rescale(psi, 0.0, 0.5)
    with pytest.raises(ValueError):
        rescale(psi, -1.0, 0.5)


def test_rescaling_isometry():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = int(rng.integers(1, 30))
        a = QuantileRep(rng.normal(size=m))
        b = QuantileRep(rng.normal(size=m))
        h = float(rng.uniform(0.01, 2.0))
        q = float(rng.uniform(0.0, 1.5))
        p = int(rng.integers(1, 3))
        lhs = wasserstein(p, rescale(a, h, q), rescale(b, h, q))
        rhs = h ** (-q) * wasserstein(p, a, b)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_rescale_preserves_risk_greedy_argmax():
    rng = np.random.default_rng(15)
    measures = [
        DistortionMeasure.expected_value(),
        DistortionMeasure.cvar(0.1),
        DistortionMeasure.cvar(0.25),
        DistortionMeasure.cvar(0.5),
    ]
    for _ in range(100):
        m = int(rng.integers(2, 24))
        n_actions = int(rng.integers(2, 6))
        h = float(rng.uniform(0.01, 3.0))
        q = float(rng.uniform(0.0, 1.5))
        eta = np.sort(rng.normal(size=m))
        psis = [QuantileRep(np.sort(rng.normal(size=m))) for _ in range(n_actions)]
        measure = measures[int(rng.integers(len(measures)))]
        zetas = [QuantileRep(eta + h**q * psi.values) for psi in psis]
        via_rescale = np.argmax([risk_measure(measure, rescale(p_, h, q)) for p_ in psis])
        via_returns = np.argmax([risk_measure(measure, z) for z in zetas])
        assert via_rescale == via_returns


def test_advantage_shift_examples():
    psi = rep(-1, 3)
    np.testing.assert_array_equal(advantage_shift(psi, 123.0, 0.2, 1.0).values, psi.values)
    np.testing.assert_allclose(advantage_shift(rep(0), 100.0, 0.01, 0.5).values, [90.0])
    np.testing.assert_array_equal(advantage_shift(psi, 0.0, 0.2, 0.5).values, psi.values)


# ---------------------------------------------------------------- statistics


def test_mean_variance_examples():
    assert mean(rep(1, 3)) == 2.0
    assert variance(rep(4.2)) == 0.0
    assert variance(rep(0, 2)) == 1.0  # population normalization


def test_to_quantile_rep_midpoint_convention():
    rng = np.random.default_rng(16)
    samples = rng.normal(size=17)
    r = to_quantile_rep(EmpiricalDist(samples), 17)
    np.testing.assert_allclose(r.values, np.sort(samples), rtol=0, atol=1e-12)
    small = to_quantile_rep(EmpiricalDist(samples), 5)
    assert np.all(np.diff(small.values) >= 0)
    with pytest.raises(ValueError):
        to_quantile_rep(EmpiricalDist(samples), 0)


# ----------------------------------------------------------- hazen quantiles

HAZEN_M = [1, 2, 5, 512, 1000]


def _hazen_samples(kind, n, rng):
    """Samples of one kind, and whether their zeros all share one sign."""
    if kind == "continuous":
        return rng.normal(size=n), True
    if kind == "grid":
        # coarse rounding: long runs of ties, and zeros of both signs
        return np.round(rng.normal(size=n), 1), False
    # every third value a zero of one sign, so n = 1 is that zero alone
    zero = -0.0 if kind == "minus_zero" else 0.0
    return np.where(np.arange(n) % 3 == 0, zero, rng.choice([-1.5, 2.0], size=n)), True


def _assert_hazen_equal(got, want, one_zero_sign):
    assert np.array_equal(got, want)
    if one_zero_sign:
        # with one sign of zero the sorted values are unique bit for bit, so
        # the signs of zero results must match numpy's too; with both signs,
        # a sort and numpy's partition may order -0.0 and 0.0 differently
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 511, 512, 513, 10000])
def test_hazen_matches_numpy_quantile(n):
    rng = np.random.default_rng(n)
    for kind in ("continuous", "grid", "minus_zero", "plus_zero"):
        samples, one_sign = _hazen_samples(kind, n, rng)
        order = np.argsort(samples, kind="stable")
        idx = rng.integers(0, n, n)
        rank = np.empty(n, np.intp)
        rank[order] = np.arange(n)
        picks = np.sort(rank[idx])
        for m in HAZEN_M:
            levels = (np.arange(m) + 0.5) / m
            want = np.quantile(samples, levels, method="hazen")
            read = _hazen(n, m)
            _assert_hazen_equal(read(np.sort(samples)), want, one_sign)
            _assert_hazen_equal(to_quantile_rep(EmpiricalDist(samples), m).values,
                                want, one_sign)
            # the implicit resample samples[idx] read from its sorted ranks
            _assert_hazen_equal(read(samples[order], picks),
                                np.quantile(samples[idx], levels, method="hazen"),
                                one_sign)


@pytest.mark.parametrize("n", [1, 2, 10, 513])
def test_hazen_reads_a_block_of_picks_row_by_row(n):
    rng = np.random.default_rng(n + 7)
    for kind in ("continuous", "grid", "minus_zero"):
        samples, _ = _hazen_samples(kind, n, rng)
        order = np.argsort(samples, kind="stable")
        rank = np.empty(n, np.uint16)
        rank[order] = np.arange(n)
        block = np.sort(rank[rng.integers(0, n, (10, n))], axis=1)
        for m in HAZEN_M:
            read = _hazen(n, m)
            # a C-ordered block, and every other row of it
            for picks in (block, block[::2]):
                got = read(samples[order], picks)
                want = np.array([read(samples[order], row) for row in picks])
                assert got.shape == (len(picks), m)
                assert got.tobytes() == want.tobytes()
