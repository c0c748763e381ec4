import csv
import hashlib
import json
import warnings
from pathlib import Path

import pytest

from ctdrl import ctmdp
from ctdrl.agents import TrainConfig
from ctdrl.cli import main, resolve_config, check_train, GAP_RATES_FIELDS, TRAIN_FIELDS


def run(args):
    return main(args)


def read(path):
    return path.read_bytes()


TINY_GAPS = [
    "--set", "h_grid=0.25,0.125,0.0625",
    "--set", "n_paths=400",
    "--set", "bootstrap=10",
    "--set", "m=64",
]


TINY_TRAIN = [
    "--set", "updates=30",
    "--set", "eval_every=15",
    "--set", "eval_episodes=5",
    "--set", "final_eval_episodes=5",
    "--set", "m=8",
    "--set", "hidden=12,12",
]


TINY_SUPERIORITY = [
    "superiority-demo",
    "--set", "omega_grid=4,16",
    "--set", "n_paths=300",
    "--set", "m=32",
    "--set", "write_quantiles=true",
]


def test_gap_rates_writes_schema_and_fit_rows(tmp_path):
    out = tmp_path / "run"
    assert run(["gap-rates", "--out", str(out), *TINY_GAPS]) == 0
    text = (out / "results.csv").read_text().splitlines()
    assert text[0] == "# ctdrl-results-v1"
    assert text[1] == "experiment,seed,h,metric,value,stderr"
    metrics = [line.split(",")[3] for line in text[2:]]
    assert "w_gap_slope" in metrics and "value_gap_r2" in metrics
    assert (out / "config.resolved.cfg").exists()


def test_gap_rates_rerun_is_bitwise_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["gap-rates", "--out", str(out1), *TINY_GAPS]) == 0
    assert run(["gap-rates", "--out", str(out2), *TINY_GAPS]) == 0
    assert read(out1 / "results.csv") == read(out2 / "results.csv")


# Every default of the three field tables is echoed and read back, so each
# must round-trip through its own parser.
@pytest.mark.parametrize("args, files", [
    (["gap-rates", *TINY_GAPS], ["results.csv"]),
    (["train", *TINY_TRAIN], ["results.csv", "trainlog_seed0_omega5.csv"]),
    (TINY_SUPERIORITY, ["results.csv"]),
], ids=["gap_rates", "train", "superiority_demo"])
def test_rerun_from_echoed_config_reproduces_results(tmp_path, args, files):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run([*args, "--out", str(out1)]) == 0
    assert run([
        args[0], "--out", str(out2),
        "--config", str(out1 / "config.resolved.cfg"),
    ]) == 0
    for name in files:
        assert read(out1 / name) == read(out2 / name)


def test_validation_reports_every_offending_key(tmp_path, capsys):
    code = run([
        "gap-rates", "--out", str(tmp_path / "x"),
        "--set", "h_grid=",
        "--set", "nonsense=1",
        "--set", "n_paths=many",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown key: nonsense" in err
    assert "n_paths" in err


def test_validation_rejects_empty_h_grid(tmp_path, capsys):
    code = run(["gap-rates", "--out", str(tmp_path / "x"), "--set", "h_grid="])
    assert code == 2
    assert "h_grid" in capsys.readouterr().err


BAD_VALUES = [
    ("gap-rates", "substeps", "0"),
    ("gap-rates", "m", "0"),
    ("gap-rates", "tail_dt", "-1"),
    ("gap-rates", "horizon", "-1"),
    ("gap-rates", "base_action", "7"),
    ("gap-rates", "t", "5"),
    ("gap-rates", "bootstrap", "1"),
    ("gap-rates", "discount", "0"),
    ("gap-rates", "dt_floor", "0.1"),  # not a key: see test_dt_floor_is_an_unknown_key
    ("gap-rates", "t", "nan"),
    ("gap-rates", "h_grid", "nan"),
    ("gap-rates", "dt_floor", "nan"),
    ("gap-rates", "horizon", "inf"),
    ("gap-rates", "seeds", "-1"),
    ("gap-rates", "drift", "nan"),
    ("gap-rates", "t", "-1e6"),  # would step from t to the horizon for minutes
    ("superiority-demo", "m", "0"),
    ("superiority-demo", "substeps", "0"),
    ("superiority-demo", "horizon", "0"),
    ("superiority-demo", "action", "5"),
    ("superiority-demo", "base_action", "-3"),
    ("superiority-demo", "t", "20"),
    ("superiority-demo", "tail_dt", "0"),
    ("superiority-demo", "dt_floor", "0.1"),
    ("superiority-demo", "t", "nan"),
    ("superiority-demo", "omega_grid", "inf"),
    ("superiority-demo", "seeds", "-2"),
    ("superiority-demo", "t", "-1"),
    ("train", "batch_size", "0"),
    ("train", "buffer_capacity", "0"),
    ("train", "m", "0"),
    ("train", "final_eval_episodes", "0"),
    ("train", "eval_episodes", "0"),
    ("train", "horizon", "0"),
    ("train", "start_price", "0"),
    ("train", "eval_cvar_alpha", "0"),
    ("train", "train_sigma", "-1"),
    ("train", "train_sigma", "nan"),
    ("train", "eval_sigma", "-1"),
    ("train", "eval_sigma", "nan"),
    ("train", "train_mu", "inf"),
    ("train", "eval_mu", "nan"),
    ("train", "q", "nan"),
    ("train", "start_price", "inf"),
    ("train", "horizon", "inf"),
    ("train", "hidden", "0"),
    ("train", "hidden", "100,0"),
    ("train", "discount", "0"),
    ("train", "discount", "1.5"),
    ("train", "target_period", "-1"),
    ("train", "eps_fraction", "-1"),
    ("train", "kappa", "0"),
    ("train", "kappa", "-1"),
    ("train", "kappa", "nan"),
    ("train", "lr", "0"),
    ("train", "lr", "-0.1"),
    ("train", "lr", "nan"),
    ("train", "eps_start", "2"),
    ("train", "eps_start", "-0.5"),
    ("train", "eps_end", "1.5"),
    ("train", "eps_end", "-0.01"),
    ("train", "eps_fraction", "nan"),
    ("train", "eps_fraction", "inf"),
    ("train", "omega_grid", "inf"),
    ("train", "omega_grid", "nan"),
    ("train", "omega_grid", "0.005"),  # h = 200 outlasts the horizon 100
    ("train", "seeds", "-1"),
    ("train", "eval_every", "-2"),
    ("train", "train_sigma", "1e200"),
    ("train", "eval_sigma", "1e200"),
]


# dt_floor, which once floored the EM step, is no longer a key: an old
# config that sets it exits 2 and writes nothing.
@pytest.mark.parametrize("command", ["gap-rates", "superiority-demo"])
@pytest.mark.parametrize("via", ["set", "file"])
def test_dt_floor_is_an_unknown_key(tmp_path, capsys, command, via):
    if via == "file":
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text("[sim]\ndt_floor = 1e-4\n", encoding="utf-8")
        given = ["--config", str(cfgfile)]
    else:
        given = ["--set", "dt_floor=1e-4"]
    assert run([command, "--out", str(tmp_path / "x"), *given]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: unknown key: dt_floor"]
    assert not (tmp_path / "x").exists()


# Every window steps at h / substeps, however small h is: here 2^-14, and
# the tail at the window step, so each rollout makes h_max / dt steps.
def test_gap_rates_runs_at_the_next_octave_of_its_grid(tmp_path, monkeypatch):
    deltas = []
    em_apply = ctmdp._em_apply

    def recorded(*args):
        deltas.append(args[4])
        return em_apply(*args)

    monkeypatch.setattr(ctmdp, "_em_apply", recorded)
    out = tmp_path / "x"
    assert run([
        "gap-rates", "--out", str(out), "--set", "h_grid=0.25,0.001953125",
        "--set", "n_paths=4", "--set", "m=4", "--set", "bootstrap=2",
    ]) == 0
    assert "gap_rates,0,0.001953125,w_gap," in (out / "results.csv").read_text()
    assert deltas == 2 * [2.0**-7] * 2**7 + 2 * [2.0**-14] * 2**14


@pytest.mark.parametrize("command, key, value", BAD_VALUES)
def test_bad_value_exits_2_and_names_the_key(tmp_path, capsys, command, key, value):
    assert run([command, "--out", str(tmp_path / "x"), "--set", f"{key}={value}"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # a rejected config writes nothing


# An exercise is credited at t + h, so each decision period h = 1/omega must
# end by the horizon; h equal to the horizon is one decision per episode.
@pytest.mark.parametrize("sets, ok", [
    (["omega_grid=0.01"], True),
    (["omega_grid=0.5,5", "horizon=2"], True),
    (["omega_grid=5,0.4", "horizon=2"], False),
])
def test_train_decision_period_must_not_exceed_the_horizon(sets, ok):
    cfg, errors = resolve_config(TRAIN_FIELDS, None, sets)
    assert not errors
    errors = check_train(cfg)
    assert not errors if ok else "omega_grid" in errors[0]


def test_train_rejects_batch_larger_than_buffer(tmp_path, capsys):
    # the replay gate len(buffer) >= batch_size would never open: no updates
    code = run([
        "train", "--out", str(tmp_path / "x"), *TINY_TRAIN,
        "--set", "batch_size=5", "--set", "buffer_capacity=4",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "batch_size" in err and "buffer_capacity" in err
    assert not (tmp_path / "x").exists()


def test_train_check_reads_the_train_config_rule():
    cfg, errors = resolve_config(TRAIN_FIELDS, None, [
        "batch_size=5", "buffer_capacity=4", "eval_every=3", "eval_episodes=0"])
    assert not errors
    with pytest.raises(ValueError) as exc:
        TrainConfig(**{k: cfg[k] for k in ("batch_size", "buffer_capacity",
                                           "target_period", "eval_every",
                                           "eval_episodes")})
    assert check_train(cfg) == str(exc.value).split("; ")
    assert len(check_train(cfg)) == 2


def test_train_lists_every_bad_network_and_schedule_key(tmp_path, capsys):
    code = run([
        "train", "--out", str(tmp_path / "x"),
        "--set", "hidden=0", "--set", "discount=0",
        "--set", "target_period=-1", "--set", "eps_fraction=-1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    for key in ("hidden", "discount", "target_period", "eps_fraction"):
        assert key in err


def test_train_lists_gbm_errors_with_the_others(tmp_path, capsys):
    code = run([
        "train", "--out", str(tmp_path / "x"),
        "--set", "agent=bogus", "--set", "train_sigma=-1",
        "--set", "batch_size=0",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "agent" in err and "train_sigma" in err and "batch_size" in err
    assert "eval_sigma" not in err


ILLUSTRATION_GAPS = [
    "--set", "env=illustration",
    "--set", "horizon=10.0",
    "--set", "h_grid=0.25",
    "--set", "n_paths=200",
    "--set", "bootstrap=5",
    "--set", "m=64",
    "--set", "tail_dt=0.1",
]


def test_gap_rates_illustration_env(tmp_path):
    out = tmp_path / "run"
    assert run(["gap-rates", "--out", str(out), *ILLUSTRATION_GAPS]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    # a single grid point cannot be rate-fitted, so only gap rows appear
    assert len(lines) == 2 + 2


# Finite keys whose returns overflow the gap and standard-error arithmetic.
# The overflow raises inside the estimate: no warning is issued (a plain run
# would print it to stderr) and stderr holds the divergence message alone.
@pytest.mark.parametrize("key, value", [("drift", "1e308"), ("move_diffusion", "1e200")])
def test_gap_rates_non_finite_estimate_exits_3(tmp_path, capsys, key, value):
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([
            "gap-rates", "--out", str(out), *ILLUSTRATION_GAPS,
            "--set", "horizon=2", "--set", "n_paths=50", "--set", f"{key}={value}",
        ])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical divergence: non-finite action-gap estimate at h=0.25"]
    assert not caught
    assert not (out / "results.csv").exists()


# Finite keys whose returns overflow the superiority quantiles or moments.
@pytest.mark.parametrize("key, value", [("drift", "1e308"), ("drift", "1e200"),
                                        ("move_diffusion", "1e200")])
def test_superiority_demo_non_finite_estimate_exits_3(tmp_path, capsys, key, value):
    out = tmp_path / "x"
    code = run([
        "superiority-demo", "--out", str(out), "--set", "horizon=2",
        "--set", "omega_grid=4,16", "--set", "n_paths=50", "--set", "m=8",
        "--set", f"{key}={value}",
    ])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical divergence: non-finite superiority estimate at h=0.25"]
    assert not (out / "results.csv").exists()


def test_gap_rates_unknown_env_is_validation_error(tmp_path, capsys):
    code = run([
        "gap-rates", "--out", str(tmp_path / "x"), "--set", "env=pendulum",
    ])
    assert code == 2
    assert "env" in capsys.readouterr().err


def test_set_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "base.cfg"
    cfgfile.write_text("[mc]\nn_paths = 5\n", encoding="utf-8")
    cfg, errors = resolve_config(GAP_RATES_FIELDS, cfgfile, ["n_paths=321"])
    assert not errors
    assert cfg["n_paths"] == 321


# A file key is read as written, as --set reads it; section names stay
# cosmetic, and a [meta] section is skipped in any case.
def test_config_file_keys_are_read_as_written(tmp_path, capsys):
    cfgfile = tmp_path / "keys.cfg"
    cfgfile.write_text("[mc]\nN_PATHS = 50\n", encoding="utf-8")
    out = tmp_path / "x"
    assert run(["gap-rates", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "unknown key: N_PATHS" in capsys.readouterr().err
    assert not out.exists()
    cfgfile.write_text("[META]\nversion = 0\n[MC]\nn_paths = 50\n", encoding="utf-8")
    cfg, errors = resolve_config(GAP_RATES_FIELDS, cfgfile, [])
    assert not errors and cfg["n_paths"] == 50


def test_missing_config_file_is_an_error(tmp_path):
    cfg, errors = resolve_config(GAP_RATES_FIELDS, tmp_path / "nope.cfg", [])
    assert errors


# Files configparser cannot read; '%' is a plain character, not interpolation.
UNREADABLE_CONFIGS = {
    "no_section_header": b"lr = 0.001\n",
    "duplicate_key": b"[train]\nlr = 0.001\nlr = 0.002\n",
    "duplicate_section": b"[train]\nlr = 0.001\n[train]\nm = 8\n",
    "percent_sign": b"[train]\nlr = 1%\n",
    "not_utf8": b"[train]\nlr = \xff\n",
}


@pytest.mark.parametrize("command, name", [
    *(("train", name) for name in UNREADABLE_CONFIGS),
    ("gap-rates", "no_section_header"),
])
def test_unreadable_config_file_exits_2_and_writes_nothing(tmp_path, capsys, command, name):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(UNREADABLE_CONFIGS[name])
    assert run([command, "--config", str(cfgfile), "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_superiority_demo_runs_and_reproduces(tmp_path):
    args = TINY_SUPERIORITY
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run([*args, "--out", str(out1)]) == 0
    assert run([*args, "--out", str(out2)]) == 0
    assert read(out1 / "results.csv") == read(out2 / "results.csv")
    text = (out1 / "results.csv").read_text().splitlines()
    metrics = {line.split(",")[3] for line in text[2:]}
    assert {"psi_raw_mean", "psi_q1_mean", "psi_qhalf_std",
            "psi_qhalf_shifted_mean", "psi_raw_q0000"} <= metrics


def result_rows(path):
    """(h, metric, value, stderr) of every row of a results.csv."""
    rows = csv.DictReader((path / "results.csv").read_text().splitlines()[1:])
    return [(float(r["h"]), r["metric"], float(r["value"]), r["stderr"]) for r in rows]


# The base action's superiority compares its return with itself: zeta and eta
# are one rollout on one grid, so every panel value is exactly 0, and so is
# every standard error, which are blank only for the quantile rows. From x = 1
# at discount 0.9 the frozen returns of the two sides differed when eta stepped
# at the window's step to the horizon and zeta's tail at tail_dt; the mean
# rows' standard errors were those of two independent sides.
@pytest.mark.parametrize("sets", [["x=1", "discount=0.9"], ["base_action=1"]],
                         ids=["base0_x1_discount0.9", "base1"])
def test_superiority_demo_of_the_base_action_is_exactly_zero(tmp_path, sets):
    args = ["superiority-demo", "--out", str(tmp_path), "--set", "horizon=1",
            "--set", "omega_grid=4,64", "--set", "n_paths=200", "--set", "m=16"]
    base = "1" if "base_action=1" in sets else "0"
    for item in [*sets, f"action={base}"]:
        args += ["--set", item]
    assert run(args) == 0
    rows = result_rows(tmp_path)
    assert len(rows) == 2 * 4 * (2 + 16)
    assert [(h, metric) for h, metric, value, _ in rows if value != 0] == []
    for h, metric, _, se in rows:
        moment = metric.endswith(("_mean", "_std"))
        assert (float(se) == 0) if moment else se == "", (h, metric, se)


# Base action 1 with action 0 in the window (seed 41, fixed before the run):
# psi / h has mean -drift * (horizon - h / 2) up to the window's quadrature
# term drift * h / (2 substeps), and must read it within 4 reported SE where
# that SE is largest.
SUPERIORITY_BASE1 = ["superiority-demo", "--set", "horizon=1", "--set", "omega_grid=4,16,64",
                     "--set", "n_paths=2000", "--set", "m=64", "--set", "base_action=1",
                     "--set", "action=0", "--set", "write_quantiles=false",
                     "--set", "seeds=41"]


def test_superiority_demo_base1_mean_matches_drift_times_remaining_horizon(tmp_path):
    assert run([*SUPERIORITY_BASE1, "--out", str(tmp_path)]) == 0
    means = {h: (value, float(se)) for h, metric, value, se in result_rows(tmp_path)
             if metric == "psi_q1_mean"}
    for h in (1 / 16, 1 / 64):
        value, se = means[h]
        assert abs(value - -10.0 * (1.0 - h / 2)) <= 4 * se


# SHA-256 of the output files of twelve short runs, with one train run per
# agent kind and two that train at omega = 200, one of them at the benchmark's
# network shape (m = 100, hidden 100,100). A refactor must leave them alone; only a change that moves results by
# design may re-record a digest, and CHANGES.md must then say which one moved
# and why.
GOLDEN_RESULTS = {
    "gap_rates": (
        ["gap-rates", *TINY_GAPS],
        {"results.csv": "58e3c4c59a7ac70b394ebc0f8de184bf5eacdef5841fc02f12f107dd3b2a874c"},
    ),
    "gap_rates_illustration": (
        ["gap-rates", *ILLUSTRATION_GAPS],
        {"results.csv": "2e79447672fcc525148e201105559465953212504827a7ce3f706cc9d54fd261"},
    ),
    "superiority_demo": (
        TINY_SUPERIORITY,
        {"results.csv": "63f07878c39386c0b39b72f9b549c41d508eb2bb835df9d99d5c9420b75e819e"},
    ),
    # Base action 1 after a window that reaches the horizon (h = 0.5 from
    # t = 0.5), with a tail step that differs from the window's.
    "gap_rates_base1_window_to_horizon": (
        ["gap-rates", "--set", "t=0.5", "--set", "h_grid=0.5,0.25,0.125",
         "--set", "base_action=1", "--set", "tail_dt=0.0625", "--set", "n_paths=400",
         "--set", "bootstrap=10", "--set", "m=64"],
        {"results.csv": "2028d5ce4a47e3c6055459e2ed881700b2a4f9f9a56b903b44649c4ee8df1cdb"},
    ),
    # Base action 1 with action 0 in the window; h = 0.25 reaches the horizon.
    # Re-recorded when eta became the base action's own rollout, drawn from
    # the substream (seed, 12, base_action) instead of (seed, 11).
    "superiority_demo_base1_window_to_horizon": (
        ["superiority-demo", "--set", "horizon=0.25", "--set", "omega_grid=4,16",
         "--set", "n_paths=300", "--set", "m=32", "--set", "tail_dt=none",
         "--set", "base_action=1", "--set", "action=0"],
        {"results.csv": "8b1f52053a79b5a9f4b63dacae80037aa04aaab946f4336944e2504341c23feb"},
    ),
    # Base action 1 with action 0 in the window, with a tail step (the
    # default 0.05) that differs from the window's.
    "superiority_demo_base1_tail_dt": (
        SUPERIORITY_BASE1,
        {"results.csv": "ea6bf350d1a920eef509f31420089a917b90de5b69e71b084a042715ce8e86ff"},
    ),
    "train": (
        ["train", *TINY_TRAIN],
        {
            "results.csv":
                "5915025453082d583feca9f0ffda5309c8148a640c88face61cc9df4c4d51af3",
            "trainlog_seed0_omega5.csv":
                "ae6a1eaa3fda55e588bc4a9df284b7d59bb30f622808345ce393625531603576",
        },
    ),
    "train_200hz": (
        ["train", *TINY_TRAIN, "--set", "omega_grid=200"],
        {
            "results.csv":
                "7a2e3344873e2933c41c73378c237af561601949ab5f9443502f2b552c660118",
            "trainlog_seed0_omega200.csv":
                "68c67c13d1c93a1a840d129304d54a150eb9963a76731b11c60bfcbe8f0dde98",
        },
    ),
    "train_bench_shape": (
        ["train", "--set", "omega_grid=5,200", "--set", "updates=40",
         "--set", "eval_every=20", "--set", "eval_episodes=5",
         "--set", "final_eval_episodes=5"],
        {
            "results.csv":
                "19ce97219991f0868fc066f2b2321b870324ca92a7131507bcb920454ebad1c7",
            "trainlog_seed0_omega5.csv":
                "d0900e1b3f868dc4c874e9ac94b4e4c57d0e2867c51bcb5a368f3dfa8af44e58",
            "trainlog_seed0_omega200.csv":
                "75b18a67233342fb1f7aa1a8eb823f92872016ee980d7b4a92598ef3f382b1f4",
        },
    ),
    "train_dau": (
        ["train", *TINY_TRAIN, "--set", "agent=dau"],
        {
            "results.csv":
                "9a0d0ddfdad07d7c7d5c36553b24d6174f1a020a291c5facad0f1953399037f1",
            "trainlog_seed0_omega5.csv":
                "b4c19744c41a223d089c9684ed3bc21e2c90f226a06921e531f6c5dbc60fa336",
        },
    ),
    "train_qrdqn": (
        ["train", *TINY_TRAIN, "--set", "agent=qrdqn"],
        {
            "results.csv":
                "4891af96275a044edddb836948da2d45b710f962eefc8d405b5d154bcc6fe0b0",
            "trainlog_seed0_omega5.csv":
                "1502bd3bb8307c8b801d5b03caa2f75ff3222e6ec6c04ed1ff1428dcf7a22e5a",
        },
    ),
    "train_dau_dsup": (
        ["train", *TINY_TRAIN, "--set", "agent=dau+dsup"],
        {
            "results.csv":
                "5915025453082d583feca9f0ffda5309c8148a640c88face61cc9df4c4d51af3",
            "trainlog_seed0_omega5.csv":
                "c6a2b2f7fe4da92e3d42aea9720492906ef1dc28c2a106c2da35eb41dc9d8dcf",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RESULTS))
def test_results_match_golden_digest(tmp_path, name):
    args, digests = GOLDEN_RESULTS[name]
    assert run([*args, "--out", str(tmp_path)]) == 0
    for filename, digest in digests.items():
        got = hashlib.sha256(read(tmp_path / filename)).hexdigest()
        assert got == digest, (
            f"{name}: {filename} digest {got} differs from the recorded {digest}. "
            "Re-record it only for a change that moves results by design, and "
            "say in CHANGES.md which results moved and why."
        )


# The benchmark's gap_rates workload is lab gap-rates at its defaults;
# perfbench/design.json records the digest of its results.csv per seed.
_DESIGN = Path(__file__).resolve().parents[1] / "perfbench" / "design.json"


def test_gap_rates_defaults_match_benchmark_digest(tmp_path):
    digest = json.loads(_DESIGN.read_text())["digests"]["gap_rates"]["0"]
    assert run(["gap-rates", "--set", "seeds=0", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(read(tmp_path / "results.csv")).hexdigest() == digest


def test_train_smoke_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), *TINY_TRAIN]) == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "# ctdrl-results-v1"
    metrics = {line.split(",")[3] for line in results[2:]}
    assert {"final_eval_mean", "final_eval_cvar", "random_baseline_mean",
            "execute_baseline"} <= metrics
    log = (out / "trainlog_seed0_omega5.csv").read_text().splitlines()
    assert log[0] == "# ctdrl-trainlog-v1"
    assert len(log) == 2 + 2  # header rows plus two eval points
    assert (out / "checkpoint_seed0_omega5.npz").exists()


def test_train_seed_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["train", "--out", str(out1), *TINY_TRAIN]) == 0
    assert run(["train", "--out", str(out2), *TINY_TRAIN]) == 0
    assert read(out1 / "results.csv") == read(out2 / "results.csv")
    assert read(out1 / "trainlog_seed0_omega5.csv") == read(
        out2 / "trainlog_seed0_omega5.csv"
    )


def test_train_agent_kind_validation(tmp_path, capsys):
    code = run(["train", "--out", str(tmp_path / "x"), "--set", "agent=dqn"])
    assert code == 2
    assert "agent" in capsys.readouterr().err


def test_train_divergence_exits_3(tmp_path, capsys):
    code = run([
        "train", "--out", str(tmp_path / "x"), *TINY_TRAIN,
        "--set", "lr=1e300",
    ])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "divergence in cell seed0_omega5: overflow encountered in matmul"]


# A drift this negative underflows the GBM price to 0: in the eval env only
# the final evaluation diverges, in the train env the first hold does.
@pytest.mark.parametrize("key, log_rows", [("eval_mu", 2), ("train_mu", 0)])
def test_train_price_underflow_exits_3_and_keeps_trainlog(tmp_path, capsys, key,
                                                          log_rows):
    out = tmp_path / "x"
    code = run(["train", "--out", str(out), *TINY_TRAIN, "--set", f"{key}=-1e300"])
    assert code == 3
    assert "GBM price underflowed" in capsys.readouterr().err
    log = (out / "trainlog_seed0_omega5.csv").read_text().splitlines()
    assert len(log) == 2 + log_rows
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 2  # schema and header: the cell wrote no rows


# A drift this large overflows the GBM price: in the eval env only the final
# evaluation diverges, in the train env the first hold does.
@pytest.mark.parametrize("key, log_rows", [("eval_mu", 2), ("train_mu", 0)])
def test_train_price_overflow_exits_3_and_keeps_trainlog(tmp_path, capsys, key,
                                                         log_rows):
    out = tmp_path / "x"
    code = run(["train", "--out", str(out), *TINY_TRAIN, "--set", f"{key}=1e300"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "divergence in cell seed0_omega5: overflow encountered in exp"]
    log = (out / "trainlog_seed0_omega5.csv").read_text().splitlines()
    assert len(log) == 2 + log_rows
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 2  # schema and header: the cell wrote no rows


def test_train_all_agent_kinds_smoke(tmp_path):
    for i, kind in enumerate(("qrdqn", "dau", "dau+dsup")):
        out = tmp_path / f"run{i}"
        assert run([
            "train", "--out", str(out), *TINY_TRAIN, "--set", f"agent={kind}",
        ]) == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gap-rates"])  # --out missing
    assert exc.value.code == 2
