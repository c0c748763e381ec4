"""Experiment runner: gap-rate sweeps, superiority panels and option-trading
training.

Configs are flat key=value text with cosmetic [sections]; every key has a
default, every flag overrides a key, and the fully resolved config is echoed
into the output directory so a run can be reproduced bitwise from its own
artifacts. Exit codes: 0 success, 2 validation error, 3 numerical divergence.

Every key is checked against its domain as the config is read: its parser
in the field table rejects values outside it, and NaN and inf are rejected
wherever a finite value is needed. Rules that join keys live in one
check_<command> each: t + h must not exceed the horizon (gap-rates,
superiority-demo); batch_size must not exceed buffer_capacity, and
eval_episodes must be >= 1 when eval_every > 0 (train). They run once every
key is valid. A rejected config exits 2, lists its errors and writes
nothing; a key the command does not have is an error too, so a config that
still sets the removed dt_floor exits 2.

gap-rates and superiority-demo step each window [t, t + h) at h / substeps
and the tail after it at tail_dt, or at the window step when tail_dt is
none. superiority-demo draws eta as the base action's own h-persistent
return, so zeta and eta share that grid and the base action's superiority is
exactly 0.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, agents, envs, estimate
from .ctmdp import (
    TIME_TOL, SimConfig, SimulationError, substream,
)
from .dist import (
    DistortionMeasure,
    advantage_shift,
    mean as dist_mean,
    rescale,
    variance as dist_variance,
)
from .approx import save_checkpoint

RESULTS_SCHEMA = "# ctdrl-results-v1"
TRAINLOG_SCHEMA = "# ctdrl-trainlog-v1"

AGENT_KINDS = ("qrdqn", "dau", "dsup", "dau+dsup")
ENV_NAMES = ("brownian_gap", "illustration")


@dataclasses.dataclass(frozen=True)
class ResultRow:
    experiment: str
    seed: int
    h: float | None
    metric: str
    value: float
    stderr: float | None = None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, schema, row_type, rows):
    """Schema line, a header of the row dataclass's fields, one line per row."""
    names = [f.name for f in dataclasses.fields(row_type)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(schema + "\n")
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in rows:
            writer.writerow([_fmt(getattr(r, name)) for name in names])


def write_results_csv(path, rows):
    _write_csv(path, RESULTS_SCHEMA, ResultRow, rows)


def write_trainlog_csv(path, rows):
    _write_csv(path, TRAINLOG_SCHEMA, agents.TrainRow, rows)


def _parse_str(s):
    return s.strip()


def _parse_bool(s):
    token = s.strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_opt_float(s):
    token = s.strip().lower()
    if token in ("", "none"):
        return None
    return float(s)


def _parse_list(parse):
    return lambda s: [parse(tok) for tok in s.split(",") if tok.strip()]


def _checked(parse, ok, rule):
    """A parser that also rejects a value outside its key's domain; ``rule``
    says what the value must be. Bounds are written as comparisons that NaN
    fails, such as ``0 < v < math.inf``."""
    def parse_checked(s):
        v = parse(s)
        if not ok(v):
            raise ValueError(f"must be {rule}")
        return v
    return parse_checked


def _list_of(parse, ok, rule):
    """A nonempty comma-separated list whose every entry passes ``ok``."""
    return _checked(_parse_list(parse), lambda vs: bool(vs) and all(map(ok, vs)),
                    f"a nonempty list of {rule}")


def _one_of(parse, choices):
    return _checked(parse, lambda v: v in choices,
                    "one of " + ", ".join(str(c) for c in choices))


def _at_least(low):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


_finite = _checked(float, lambda v: -math.inf < v < math.inf, "finite")
_positive = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_level = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_probability = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_action = _one_of(int, (0, 1))
_positives = _list_of(float, lambda v: 0 < v < math.inf, "positive finite numbers")
_seeds = _list_of(int, lambda v: v >= 0, "integers >= 0")
_tail_dt = _checked(_parse_opt_float, lambda v: v is None or 0 < v < math.inf,
                    "positive and finite, or none")
# sigma * sigma, not sigma**2: a float ** overflows with an exception.
_volatility = _checked(float, lambda v: 0 <= v and v * v < math.inf,
                       ">= 0 with a finite square")


# Field tables: key -> (parser, default). Each parser rejects values outside
# its key's domain; rules that join keys are the check_* functions below.
GAP_RATES_FIELDS = {
    "env": (_one_of(_parse_str, ENV_NAMES), "brownian_gap"),
    "horizon": (_positive, 1.0),
    "discount": (_level, 1.0),
    "drift": (_finite, 10.0),
    "move_diffusion": (_finite, 1.0),
    "t": (_nonnegative, 0.0),
    "x": (_finite, 0.0),
    "base_action": (_action, 0),
    "h_grid": (_positives, [2.0**-k for k in range(2, 8)]),
    "n_paths": (_at_least(2), 10_000),
    "p": (_one_of(int, (1, 2)), 1),
    "m": (_at_least(1), 512),
    "bootstrap": (_at_least(2), 200),
    "substeps": (_at_least(1), 32),
    "tail_dt": (_tail_dt, None),
    "seeds": (_seeds, [0]),
}

SUPERIORITY_FIELDS = {
    "omega_grid": (_positives, [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
    "n_paths": (_at_least(2), 10_000),
    "m": (_at_least(1), 512),
    "horizon": (_positive, 10.0),
    "discount": (_level, 1.0),
    "drift": (_finite, 10.0),
    "move_diffusion": (_finite, 1.0),
    "t": (_nonnegative, 0.0),
    "x": (_finite, 0.0),
    "action": (_action, 1),
    "base_action": (_action, 0),
    "substeps": (_at_least(1), 16),
    "tail_dt": (_tail_dt, 0.05),
    "write_quantiles": (_parse_bool, True),
    "seeds": (_seeds, [0]),
}

TRAIN_FIELDS = {
    "agent": (_one_of(_parse_str, AGENT_KINDS), "dsup"),
    "q": (_finite, 0.5),
    "omega_grid": (_positives, [5.0]),
    "seeds": (_seeds, [0]),
    "updates": (_at_least(0), 5000),
    "batch_size": (_at_least(1), 32),
    "buffer_capacity": (_at_least(1), 20_000),
    "target_period": (_at_least(0), 1000),
    "lr": (_positive, 1e-4),
    "m": (_at_least(1), 100),
    "kappa": (_positive, 1.0),
    # may be empty: a network with no hidden layer is linear
    "hidden": (_checked(_parse_list(int), lambda ws: all(w >= 1 for w in ws),
                        "a list of widths >= 1"), [100, 100]),
    "risk": (_one_of(_parse_str, ("mean", "cvar")), "mean"),
    "risk_alpha": (_level, 1.0),
    "eps_start": (_probability, 1.0),
    "eps_end": (_probability, 0.02),
    "eps_fraction": (_nonnegative, 0.1),
    "eval_every": (_at_least(0), 1000),
    "eval_episodes": (_at_least(0), 100),
    "eval_cvar_alpha": (_level, 0.25),
    "final_eval_episodes": (_at_least(1), 200),
    "train_mu": (_finite, 0.0),
    "train_sigma": (_volatility, 0.2),
    "eval_mu": (_finite, 0.0),
    "eval_sigma": (_volatility, 0.2),
    "horizon": (_positive, 100.0),
    "discount": (_level, 0.999),
    "start_price": (_positive, 1.0),
}


def resolve_config(fields, config_path, set_args):
    """Defaults, then config file, then --set overrides; collects every error."""
    values = {k: default for k, (_, default) in fields.items()}
    errors = []
    raw = {}
    if config_path:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keys are read as written, as --set reads them
        try:
            if not parser.read(config_path, encoding="utf-8"):
                errors.append(f"config file not found: {config_path}")
            sections = parser.sections()
        except (configparser.Error, UnicodeDecodeError) as exc:
            errors.append(f"cannot read config file {config_path}: {exc}")
            sections = []
        for section in sections:
            if section.lower() == "meta":
                continue
            for key, val in parser.items(section):
                if key in raw:
                    errors.append(f"duplicate key across sections: {key}")
                raw[key] = val
    for item in set_args or []:
        if "=" not in item:
            errors.append(f"--set expects key=value, got {item!r}")
            continue
        key, _, val = item.partition("=")
        raw[key.strip()] = val.strip()
    for key, val in raw.items():
        if key not in fields:
            errors.append(f"unknown key: {key}")
            continue
        parse, _ = fields[key]
        try:
            values[key] = parse(val)
        except (ValueError, TypeError) as exc:
            errors.append(f"bad value for {key}: {val!r} ({exc})")
    return values, errors


def echo_config(out_dir: Path, command: str, cfg: dict):
    parser = configparser.ConfigParser()
    parser["meta"] = {"version": __version__, "command": command}
    rendered = {}
    for key, val in cfg.items():
        if isinstance(val, list):
            rendered[key] = ",".join(_fmt(v) for v in val)
        else:
            rendered[key] = _fmt(val)
    parser["config"] = rendered
    with open(out_dir / "config.resolved.cfg", "w", encoding="utf-8") as fh:
        parser.write(fh)


def _cell_seed(seed: int, *key) -> int:
    """One integer seed drawn from the SeedSequence of ``substream(seed, *key)``."""
    return int(substream(seed, *key).bit_generator.seed_seq.generate_state(1)[0])


def _sim_config(cfg, seed) -> SimConfig:
    """The EM settings of a gap-rates or superiority-demo config."""
    return SimConfig(substeps=cfg["substeps"], tail_dt=cfg["tail_dt"], seed=seed)


def _window_errors(cfg, hs):
    """Errors in the rule that joins a gap env's keys: every window
    [t, t + h) must end by the horizon."""
    if cfg["t"] + max(hs) > cfg["horizon"] + TIME_TOL:
        return [f"t + h must not exceed the horizon {cfg['horizon']}, "
                f"got t={cfg['t']} and h={max(hs)}"]
    return []


def check_gap_rates(cfg):
    return _window_errors(cfg, cfg["h_grid"])


def check_superiority_demo(cfg):
    return _window_errors(cfg, [1.0 / w for w in cfg["omega_grid"]])


def check_train(cfg):
    errors = []
    omega = min(cfg["omega_grid"])
    if 1.0 / omega > cfg["horizon"] + TIME_TOL:
        errors.append(f"omega_grid: 1/omega must not exceed the horizon "
                      f"{cfg['horizon']}, got omega={omega}")
    # the rule TrainConfig enforces, so a bad cell is refused before any runs
    return errors + agents._train_config_errors(cfg)


def _build_gap_env(cfg):
    """The env of a gap-rates or superiority-demo config; superiority-demo
    has no env key and runs the illustration env."""
    if cfg.get("env") == "brownian_gap":
        return envs.brownian_gap_env(cfg["horizon"], cfg["discount"])
    return envs.illustration_env(cfg["horizon"], cfg["discount"], cfg["drift"],
                                 cfg["move_diffusion"])


def cmd_gap_rates(cfg, out_dir: Path) -> int:
    mdp = _build_gap_env(cfg)
    rows = []
    for seed in cfg["seeds"]:
        w_points, v_points = [], []
        for i, h in enumerate(sorted(cfg["h_grid"], reverse=True)):
            sim = _sim_config(cfg, _cell_seed(seed, 77, i))
            est = estimate.action_gaps(
                mdp, cfg["base_action"], cfg["t"], [cfg["x"]], h, cfg["n_paths"], cfg["p"],
                sim, m=cfg["m"], bootstrap=cfg["bootstrap"],
            )
            rows.append(ResultRow("gap_rates", seed, h, "w_gap", est.dist_gap, est.dist_gap_se))
            rows.append(ResultRow("gap_rates", seed, h, "value_gap", est.value_gap, est.value_gap_se))
            w_points.append((h, est.dist_gap))
            v_points.append((h, est.value_gap))
        for name, points in (("w_gap", w_points), ("value_gap", v_points)):
            try:
                fit = estimate.fit_rate(points)
            except ValueError:
                continue
            rows.append(ResultRow("gap_rates", seed, None, f"{name}_slope", fit.slope))
            rows.append(ResultRow("gap_rates", seed, None, f"{name}_r2", fit.r_squared))
    write_results_csv(out_dir / "results.csv", rows)
    return 0


def _superiority_rows(cfg, seed, h, zeta, eta):
    """Result rows of the superiority panels at one h."""
    n = cfg["n_paths"]
    rows = []
    psi = estimate.mc_superiority(zeta, eta, cfg["m"])
    advantage = dist_mean(psi) / h
    panels = {
        "psi_raw": psi,
        "psi_q1": rescale(psi, h, 1.0),
        "psi_qhalf": rescale(psi, h, 0.5),
    }
    panels["psi_qhalf_shifted"] = advantage_shift(
        panels["psi_qhalf"], advantage, h, 0.5
    )
    # At the base action eta is zeta itself, so psi is exactly 0 and has no
    # sampling error; otherwise the two sides are independent.
    se_mean = 0.0 if eta is zeta else float(
        np.sqrt(
            np.var(zeta.samples, ddof=1) / zeta.n
            + np.var(eta.samples, ddof=1) / eta.n
        )
    )
    scale = {"psi_raw": 1.0, "psi_q1": h**-1.0, "psi_qhalf": h**-0.5,
             "psi_qhalf_shifted": h**-0.5}
    for name, rep in panels.items():
        mu = dist_mean(rep)
        sd = float(np.sqrt(dist_variance(rep)))
        rows.append(ResultRow("superiority_demo", seed, h, f"{name}_mean",
                              mu, se_mean * scale[name]))
        rows.append(ResultRow("superiority_demo", seed, h, f"{name}_std",
                              sd, sd / np.sqrt(2.0 * n)))
        if cfg["write_quantiles"]:
            for k, v in enumerate(rep.values):
                rows.append(ResultRow("superiority_demo", seed, h,
                                      f"{name}_q{k:04d}", float(v)))
    return rows


def cmd_superiority_demo(cfg, out_dir: Path) -> int:
    mdp = _build_gap_env(cfg)
    n, base = cfg["n_paths"], cfg["base_action"]
    rows = []
    for seed in cfg["seeds"]:
        for i, omega in enumerate(cfg["omega_grid"]):
            h = 1.0 / omega
            sim = _sim_config(cfg, _cell_seed(seed, 78, i))
            zeta = estimate.mc_action_return_dist(
                mdp, base, cfg["t"], [cfg["x"]], cfg["action"], h, n, sim
            )
            # The base action's own rollout is the same draw from the same
            # substream, so it is not drawn twice.
            eta = zeta if cfg["action"] == base else estimate.mc_action_return_dist(
                mdp, base, cfg["t"], [cfg["x"]], base, h, n, sim
            )
            # Finite returns can still overflow the quantiles (mc_superiority
            # raises), their rescaled panels or their moments; any such
            # overflow is a divergence.
            with estimate._overflow_raises(
                    f"non-finite superiority estimate at h={h:.8g}"):
                rows += _superiority_rows(cfg, seed, h, zeta, eta)
    write_results_csv(out_dir / "results.csv", rows)
    return 0


def _gbm_params_from_cfg(cfg):
    """Train and eval GBM parameters, taken directly from the config."""
    return (
        envs.GbmParams(cfg["train_mu"], cfg["train_sigma"]),
        envs.GbmParams(cfg["eval_mu"], cfg["eval_sigma"]),
    )


def build_agent(kind, cfg, h, terminal_reward, decay_steps, seed):
    base = dict(
        state_dim=1, n_actions=2, h=h, hidden=cfg["hidden"], lr=cfg["lr"],
        discount=cfg["discount"], horizon=cfg["horizon"],
        terminal_reward=terminal_reward,
        schedule=agents.ExplorationSchedule(cfg["eps_start"], cfg["eps_end"],
                                            decay_steps),
        seed=seed,
    )
    if kind == "dau":
        return agents.DauAgent(**base)
    risk = (DistortionMeasure.cvar(cfg["risk_alpha"]) if cfg["risk"] == "cvar"
            else DistortionMeasure.expected_value())
    quantiles = dict(m=cfg["m"], risk=risk, kappa=cfg["kappa"], **base)
    if kind == "qrdqn":
        return agents.QrdqnAgent(**quantiles)
    if kind in ("dsup", "dau+dsup"):
        return agents.DsupAgent(q=cfg["q"], advantage_head=(kind == "dau+dsup"),
                                **quantiles)
    raise ValueError(f"unknown agent kind: {kind!r}")


def cmd_train(cfg, out_dir: Path) -> int:
    train_params, eval_params = _gbm_params_from_cfg(cfg)

    rows = []
    exit_code = 0
    for seed in cfg["seeds"]:
        for omega in cfg["omega_grid"]:
            h = 1.0 / omega
            tag = f"seed{seed}_omega{_fmt(float(omega))}"
            train_env = envs.OptionTradingEnv(
                train_params, horizon=cfg["horizon"],
                start_price=cfg["start_price"], discount=cfg["discount"],
            )
            eval_env = dataclasses.replace(train_env, gbm=eval_params)
            ipu = agents.interactions_per_update(h)
            decay = max(1, int(cfg["eps_fraction"] * cfg["updates"] * ipu))
            agent = build_agent(
                cfg["agent"], cfg, h, train_env.terminal_reward, decay,
                seed=_cell_seed(seed, 91),
            )
            tcfg = agents.TrainConfig(
                batch_size=cfg["batch_size"],
                buffer_capacity=cfg["buffer_capacity"],
                target_period=cfg["target_period"],
                eval_every=cfg["eval_every"],
                eval_episodes=cfg["eval_episodes"],
                eval_cvar_alpha=cfg["eval_cvar_alpha"],
                seed=_cell_seed(seed, 92),
            )
            try:
                log = agents.train(agent, train_env, cfg["updates"], tcfg)
            except agents.TrainingDiverged as exc:
                write_trainlog_csv(out_dir / f"trainlog_{tag}.csv", exc.log)
                print(f"divergence in cell {tag}: {exc}", file=sys.stderr)
                exit_code = 3
                continue
            write_trainlog_csv(out_dir / f"trainlog_{tag}.csv", log)
            save_checkpoint(out_dir / f"checkpoint_{tag}.npz", agent.named_params())

            try:
                with np.errstate(over="raise", invalid="raise"):
                    ev_rng = substream(_cell_seed(seed, 93), 0)
                    final_mean, final_cvar = agents.evaluate(
                        agent, eval_env, cfg["final_eval_episodes"], ev_rng,
                        cfg["eval_cvar_alpha"],
                    )
                    base_rng = substream(_cell_seed(seed, 94), 0)
                    rand_mean, rand_cvar, _ = agents.evaluate_policy(
                        eval_env,
                        lambda t, X: base_rng.integers(0, 2, X.shape[0]),
                        cfg["final_eval_episodes"], base_rng, h, cfg["eval_cvar_alpha"],
                    )
            except (SimulationError, FloatingPointError) as exc:
                print(f"divergence in cell {tag}: {exc}", file=sys.stderr)
                exit_code = 3
                continue
            # executing at reset is credited at t + h, as evaluate_policy does
            execute_now = eval_env.discount**h * float(
                eval_env.terminal_reward(eval_env.reset())[0])
            rows.append(ResultRow("train", seed, h, "final_eval_mean", final_mean))
            rows.append(ResultRow("train", seed, h, "final_eval_cvar", final_cvar))
            rows.append(ResultRow("train", seed, h, "random_baseline_mean", rand_mean))
            rows.append(ResultRow("train", seed, h, "execute_baseline", execute_now))
    write_results_csv(out_dir / "results.csv", rows)
    return exit_code


COMMANDS = {
    "gap-rates": (cmd_gap_rates, check_gap_rates, GAP_RATES_FIELDS),
    "superiority-demo": (
        cmd_superiority_demo, check_superiority_demo, SUPERIORITY_FIELDS),
    "train": (cmd_train, check_train, TRAIN_FIELDS),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab", description="continuous-time distributional RL experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", default=None, help="key=value config file")
        cp.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key",
        )
        cp.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    handler, check, fields = COMMANDS[args.command]
    cfg, errors = resolve_config(fields, args.config, args.set)
    errors = errors or check(cfg)
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo_config(out_dir, args.command, cfg)
    try:
        return handler(cfg, out_dir)
    except (SimulationError, agents.TrainingDiverged) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
