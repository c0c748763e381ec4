"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line (visible with -s or in captured output)
after its assertions hold. Heavy Monte-Carlo settings follow the criteria;
wall-clock limits are asserted where a criterion states one.
"""

import time

import numpy as np

from ctdrl.agents import (
    DauAgent,
    DsupAgent,
    ExplorationSchedule,
    TrainConfig,
    Transition,
    dau_loss_grads,
    dsup_loss_grads,
    evaluate,
    evaluate_policy,
    train,
)
from ctdrl.cli import main as cli_main
from ctdrl.ctmdp import SimConfig, substream
from ctdrl.dist import (
    DistortionMeasure,
    EmpiricalDist,
    QuantileRep,
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
from ctdrl.envs import (
    GbmParams,
    OptionTradingEnv,
    illustration_env,
    brownian_gap_env,
    brownian_gap_w1_oracle,
)
from ctdrl.estimate import action_gaps, fit_rate, mc_action_return_dist, mc_superiority

H_GRID = [2.0**-k for k in range(2, 8)]
BASE_ACTION = 0


def test_criterion_01_distributional_gap_rate():
    start = time.monotonic()
    env = brownian_gap_env(horizon=1.0, discount=1.0)
    points = []
    for i, h in enumerate(H_GRID):
        cfg = SimConfig(substeps=32, seed=1000 + i)
        est = action_gaps(env, BASE_ACTION, 0.0, [0.0], h, 10_000, 1, cfg,
                          m=512, bootstrap=200)
        points.append((h, est.dist_gap))
    fit = fit_rate(points)
    elapsed = time.monotonic() - start
    assert 0.4 <= fit.slope <= 0.6
    assert fit.r_squared >= 0.98
    assert elapsed <= 300.0
    print(f"PASS criterion 1: W1 gap slope {fit.slope:.3f} in [0.4, 0.6], "
          f"r2 {fit.r_squared:.4f} >= 0.98, runtime {elapsed:.0f}s <= 300s")


def test_criterion_02_analytic_w1_oracle():
    # derivation check first: the cross term of the gap variance rests on
    # Cov(int_0^h B_s ds, B_h) = h^2 / 2, confirmed by direct simulation
    h = 2.0**-4
    n = 1_000_000
    steps = 64
    dt = h / steps
    rng = substream(42, 0)
    b = np.zeros(n)
    integral = np.zeros(n)
    for _ in range(steps):
        integral += b * dt
        b += np.sqrt(dt) * rng.standard_normal(n)
    cov = float(np.mean(integral * b))  # both terms have mean 0
    cov_se = float(np.std(integral * b, ddof=1) / np.sqrt(n))
    discrete_bias = h * dt / 2  # left-endpoint Riemann shortfall
    assert abs(cov + discrete_bias - h**2 / 2) <= 3 * cov_se

    env = brownian_gap_env(horizon=1.0, discount=1.0)
    est = action_gaps(env, BASE_ACTION, 0.0, [0.0], h, 100_000, 1,
                      SimConfig(substeps=32, seed=2024), m=512, bootstrap=200)
    oracle = brownian_gap_w1_oracle(h, horizon=1.0)
    rel = abs(est.dist_gap - oracle) / oracle
    assert rel <= 0.05
    print(f"PASS criterion 2: MC W1 {est.dist_gap:.5f} vs analytic "
          f"{oracle:.5f} (relative error {rel:.3%} <= 5%); "
          f"cross term {cov:.6f} matches h^2/2 = {h**2 / 2:.6f}")


def test_criterion_03_mean_gap_rate():
    env = illustration_env(horizon=10.0, discount=1.0)
    points = []
    for i, h in enumerate(H_GRID):
        cfg = SimConfig(substeps=32, tail_dt=0.05, seed=3000 + i)
        est = action_gaps(env, BASE_ACTION, 0.0, [0.0], h, 10_000, 1, cfg,
                          m=512, bootstrap=50)
        points.append((h, est.value_gap))
    fit = fit_rate(points)
    assert 0.85 <= fit.slope <= 1.15
    print(f"PASS criterion 3: value gap slope {fit.slope:.3f} in [0.85, 1.15]")


def _illustration_panels(h, n, seed, substeps=16):
    env = illustration_env(horizon=10.0, discount=1.0)
    cfg = SimConfig(substeps=substeps, tail_dt=0.05, seed=seed)
    zeta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], 1, h, n, cfg)
    eta = mc_action_return_dist(env, BASE_ACTION, 0.0, [0.0], BASE_ACTION, h, n, cfg)
    psi = mc_superiority(zeta, eta, 512)
    se_mean = float(np.std(zeta.samples, ddof=1) / np.sqrt(n))
    return psi, se_mean


def test_criterion_04_rescaled_panel_statistics():
    # 1e-3 / 10 == 1e-4 in float64: the fine window steps at 1e-4
    psi_fine, se_fine = _illustration_panels(1e-3, 100_000, 40, substeps=10)
    mean_q1 = mean(rescale(psi_fine, 1e-3, 1.0))
    assert abs(mean_q1 - 100.0) <= 5.0

    means_half, stds_half = [], []
    means_raw, stds_raw, ses = [], [], []
    for i, h in enumerate(H_GRID):
        psi, se = _illustration_panels(h, 10_000, 4100 + 10 * i)
        half = rescale(psi, h, 0.5)
        means_half.append((h, mean(half)))
        stds_half.append(float(np.sqrt(variance(half))))
        means_raw.append(mean(psi))
        stds_raw.append(float(np.sqrt(variance(psi))))
        ses.append(se)
    fit = fit_rate(means_half)
    assert 0.4 <= fit.slope <= 0.6
    assert max(stds_half) / min(stds_half) < 1.5
    for k in range(len(H_GRID) - 1):
        n = 10_000
        assert means_raw[k + 1] <= means_raw[k] + 3 * (ses[k] + ses[k + 1])
        std_se = stds_raw[k] / np.sqrt(2 * n) + stds_raw[k + 1] / np.sqrt(2 * n)
        assert stds_raw[k + 1] <= stds_raw[k] + 3 * std_se
    print(f"PASS criterion 4: mean(psi^(1)) = {mean_q1:.2f} within 5% of 100; "
          f"psi^(1/2) mean slope {fit.slope:.3f} in [0.4, 0.6]; "
          f"psi^(1/2) std spread x{max(stds_half) / min(stds_half):.3f} < 1.5; "
          f"raw psi mean/std shrink monotonically")


def test_criterion_05_argmax_invariance():
    rng = np.random.default_rng(55)
    measures = [
        DistortionMeasure.expected_value(),
        DistortionMeasure.cvar(0.1),
        DistortionMeasure.cvar(0.25),
        DistortionMeasure.cvar(0.5),
    ]
    for _ in range(200):
        m = int(rng.integers(2, 33))
        n_actions = int(rng.integers(2, 6))
        h = float(rng.uniform(0.02, 3.0))
        q = float(rng.uniform(0.0, 1.2))
        measure = measures[int(rng.integers(len(measures)))]
        eta = np.sort(rng.normal(size=m) * rng.uniform(0.5, 3))
        psis = [QuantileRep(np.sort(rng.normal(size=m) * rng.uniform(0.5, 3)))
                for _ in range(n_actions)]
        zetas = [QuantileRep(eta + h**q * psi.values) for psi in psis]
        u_psi = np.array([risk_measure(measure, rescale(p, h, q)) for p in psis])
        u_zeta = np.array([risk_measure(measure, z) for z in zetas])
        set_psi = np.flatnonzero(u_psi == u_psi.max())
        set_zeta = np.flatnonzero(u_zeta == u_zeta.max())
        np.testing.assert_array_equal(set_psi, set_zeta)
    print("PASS criterion 5: argmax sets identical on 200 randomized instances")


def test_criterion_06_self_superiority_and_product_coupling_variance():
    rng = np.random.default_rng(66)
    for _ in range(100):
        m = int(rng.integers(1, 64))
        mu = QuantileRep(rng.normal(size=m) * rng.uniform(0.5, 5))
        np.testing.assert_array_equal(superiority(mu, mu).values, 0.0)

    for _ in range(100):
        size = int(rng.integers(500, 2000))
        samples = EmpiricalDist(rng.normal(size=size) * rng.uniform(0.5, 3))
        cdr = independent_cdr(samples, samples, rng, n_samples=8000)
        d = cdr.samples
        var_hat = float(np.var(d, ddof=1))
        fourth = float(np.mean((d - d.mean()) ** 4))
        se = np.sqrt(max(fourth - var_hat**2, 0.0) / d.size)
        target = 2.0 * float(np.var(samples.samples))
        assert abs(var_hat - target) <= 3 * se
    print("PASS criterion 6: superiority(mu, mu) is exactly the zero rep and "
          "independent CDR variance matches 2 Var(mu) within 3 SEs, 100 cases each")


def test_criterion_07_mean_identity_and_minimal_variance():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(2, 64))
        zeta = QuantileRep(rng.normal(size=m) * rng.uniform(0.5, 4))
        eta = QuantileRep(rng.normal(size=m) * rng.uniform(0.5, 4))
        sup = superiority(zeta, eta)
        lhs = mean(sup)
        rhs = mean(zeta) - mean(eta)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale
        cdr = independent_cdr(
            EmpiricalDist(zeta.values), EmpiricalDist(eta.values), rng,
            n_samples=6000,
        )
        d = cdr.samples
        var_hat = float(np.var(d, ddof=1))
        fourth = float(np.mean((d - d.mean()) ** 4))
        se = np.sqrt(max(fourth - var_hat**2, 0.0) / d.size)
        assert variance(sup) <= var_hat + 3 * se
    print("PASS criterion 7: superiority mean identity to 1e-12 and minimal "
          "variance against the product coupling, 100 random instances")


def test_criterion_08_wp_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a = EmpiricalDist(rng.normal(size=n) * rng.uniform(0.5, 5))
        b = EmpiricalDist(rng.normal(size=n) * rng.uniform(0.5, 5))
        for p in (1, 2):
            oracle = wasserstein_bruteforce(p, a, b, method="exhaustive")
            quant = wasserstein(p, to_quantile_rep(a, n), to_quantile_rep(b, n))
            worst = max(worst, abs(oracle - quant))
            assert abs(oracle - quant) <= 1e-10
    print(f"PASS criterion 8: quantile-integral W1/W2 equals exhaustive "
          f"matching on 1000 pairs (worst gap {worst:.2e} <= 1e-10)")


def test_criterion_09_gradient_checks():
    rng = np.random.default_rng(99)

    def random_batch():
        return [
            Transition(
                float(rng.uniform(0, 0.75)),
                rng.normal(size=1),
                int(rng.integers(2)),
                float(rng.normal()),
                rng.normal(size=1),
                bool(rng.integers(2)),
            )
            for _ in range(2)
        ]

    for case in range(50):
        batch = random_batch()
        if case % 2 == 0:
            agent = DsupAgent(
                state_dim=1, n_actions=2, h=0.25, q=0.5, m=5, hidden=(6,),
                discount=0.98, horizon=1.0, seed=900 + case,
                advantage_head=bool(case % 4 == 0),
            )
            loss, grads, a_star = dsup_loss_grads(agent, batch)
            nets = [agent.theta, agent.phi]
            analytic = grads["theta"] + grads["phi"]

            def loss_fn():
                return dsup_loss_grads(agent, batch, a_star)[0]

        else:
            agent = DauAgent(
                state_dim=1, n_actions=2, h=0.25, hidden=(6,),
                discount=0.98, horizon=1.0, seed=900 + case,
            )
            loss, grads, a_star = dau_loss_grads(agent, batch)
            nets = [agent.vnet, agent.anet]
            analytic = grads["v"] + grads["a"]

            def loss_fn():
                return dau_loss_grads(agent, batch, a_star)[0]

        checked_analytic = []
        checked_fd = []
        flat_idx = 0
        for net in nets:
            for p in net.params:
                flat = p.ravel()
                coords = np.arange(flat.size)
                if flat.size > 8:
                    coords = rng.choice(flat.size, size=8, replace=False)
                g = analytic[flat_idx].ravel()
                fd = np.zeros(coords.size)
                an = np.zeros(coords.size)
                for k, idx in enumerate(coords):
                    old = flat[idx]
                    flat[idx] = old + 1e-5
                    up = loss_fn()
                    flat[idx] = old - 1e-5
                    down = loss_fn()
                    flat[idx] = old
                    fd[k] = (up - down) / 2e-5
                    an[k] = g[idx]
                checked_analytic.append(an)
                checked_fd.append(fd)
                flat_idx += 1
        a = np.concatenate(checked_analytic)
        f = np.concatenate(checked_fd)
        rel = np.linalg.norm(a - f) / max(np.linalg.norm(a), np.linalg.norm(f), 1e-12)
        assert rel < 1e-4
    print("PASS criterion 9: quantile-Huber and advantage Bellman gradients "
          "match central differences (rel error < 1e-4) on 50 instances")


def test_criterion_10_learning_smoke():
    start = time.monotonic()
    h = 0.2  # omega = 5 Hz
    updates = 5000  # within the <= 5e4 cap
    wins = 0
    details = []
    for seed in range(5):
        env = OptionTradingEnv(GbmParams(0.0, 0.2), horizon=100.0,
                               start_price=1.0, discount=0.999)
        agent = DsupAgent(
            state_dim=1, n_actions=2, h=h, q=0.5, m=100, hidden=(100, 100),
            lr=1e-4, kappa=1.0, discount=0.999, horizon=100.0,
            terminal_reward=env.terminal_reward,
            schedule=ExplorationSchedule(1.0, 0.02, int(0.1 * updates * 5)),
            seed=seed * 101 + 7,
        )
        cfg = TrainConfig(batch_size=32, buffer_capacity=20_000,
                          target_period=1000, eval_every=0, seed=seed * 77 + 3)
        train(agent, env, updates, cfg)
        trained_mean, _ = evaluate(agent, env, 200, substream(1000 + seed, 0))
        rnd_rng = substream(2000 + seed, 0)
        random_mean, _, _ = evaluate_policy(
            env, lambda t, X: rnd_rng.integers(0, 2, X.shape[0]), 200,
            substream(3000 + seed, 0), h,
        )
        execute_mean = 0.999**h * max(0.0, 1.0 - 1.0)
        beats = trained_mean > random_mean and trained_mean > execute_mean
        wins += beats
        details.append(f"seed {seed}: {trained_mean:.3f} vs random "
                       f"{random_mean:.3f} / execute {execute_mean:.1f}")
    elapsed = time.monotonic() - start
    assert wins >= 4, details
    assert elapsed <= 1200.0
    print("PASS criterion 10: DSUP(1/2) beats both baselines on "
          f"{wins}/5 seeds (need >= 4) in {elapsed:.0f}s <= 1200s; "
          + "; ".join(details))


def test_criterion_11_bitwise_reproducibility(tmp_path):
    gap_args = [
        "gap-rates",
        "--set", "h_grid=0.25,0.125",
        "--set", "n_paths=400",
        "--set", "bootstrap=20",
        "--set", "m=128",
    ]
    train_args = [
        "train",
        "--set", "updates=30",
        "--set", "eval_every=15",
        "--set", "eval_episodes=5",
        "--set", "final_eval_episodes=5",
        "--set", "m=8",
        "--set", "hidden=12,12",
    ]
    for label, args in (("gap-rates", gap_args), ("train", train_args)):
        out1 = tmp_path / f"{label}-1"
        out2 = tmp_path / f"{label}-2"
        assert cli_main([*args, "--out", str(out1)]) == 0
        assert cli_main([*args, "--out", str(out2)]) == 0
        b1 = (out1 / "results.csv").read_bytes()
        b2 = (out2 / "results.csv").read_bytes()
        assert b1 == b2, f"{label} results differ between identical runs"
    print("PASS criterion 11: identical config/seed reproduces result CSVs bitwise")
