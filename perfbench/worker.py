"""One benchmark job, run by run.py in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T [--trace] [--setup-only]

``--spawned`` is the parent's time.monotonic() just before it started this
process, so setup time covers interpreter start, imports, config resolution
and env/agent construction. The job prints one JSON object as the last line
of its standard output: its timings, the outcome of every output check and,
when traced, the per-layer metrics.

An untraced job also runs a speed probe: every 50 ms a timer signal runs a
fixed slice of reference work (small matrix-vector products, elementwise
array ops and a pure-Python loop, the mix the workloads spend their time
in) and times a warm run of it. The probe's time is taken out of every
measured interval, and the ``*_ref`` timings are the measured ones scaled
by SPEED_REF_S over the slice time measured next to them: the time the job
would take at the speed where a slice takes SPEED_REF_S. Setup time is
scaled by slices timed right after setup. Shared virtual machines switch
between speed levels for seconds to minutes at a time (some 40% apart on a
2-vCPU 2.0 GHz Xeon VM); the scaled timings follow the program, not the
host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics, patch

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Job shapes. Each job does a fixed amount of work so that its outputs, and
# their digests, depend on the seed alone.
TRAIN_SHAPES = {
    "train_5hz": {"omega": 5.0, "updates": 200},
    "train_200hz": {"omega": 200.0, "updates": 100},
}
CHECKED_UPDATES = 4  # kernel calls replayed through the dense oracle
GAP_SLOPE_BAND = (0.4, 0.6)
GAP_MIN_R2 = 0.98
RTOL, ATOL = 1e-12, 1e-15


SPEED_PERIOD_S = 0.05
SPEED_REF_S = 2.0e-4  # about a warm slice's time on a 2.0 GHz Xeon vCPU
SPEED_WINDOW = 9  # slices whose median scales one step interval

_REF = np.random.default_rng(20241011)
_REF_W = [0.1 * _REF.standard_normal((100, 100)) for _ in range(3)]
_REF_V = _REF.standard_normal(100)
_REF_X = _REF.standard_normal(10_000)


def speed_slice():
    """Fixed reference work; its time measures the host's current speed."""
    for _ in range(8):
        h = _REF_V
        for w in _REF_W:
            h = np.maximum(h @ w, 0.0)
    y = _REF_X
    for _ in range(4):
        y = np.sqrt(np.abs(y) + 1.0)
    acc = 0.0
    for i in range(300):
        acc += i * 0.5
    return acc


def timed_slice():
    """Time of speed_slice() with its data already in cache. The workload
    between two ticks evicts that data, so each tick runs the slice once to
    load it and times a second run: the result follows the core's speed, not
    how much cache the program under test uses."""
    speed_slice()
    t0 = time.perf_counter()
    speed_slice()
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs speed_slice() from a SIGALRM timer while the job runs."""

    def __init__(self):
        self.start = []
        self.end = []
        self.timed = []
        self._busy = False

    def _tick(self, signum, frame):
        # A tick that arrives while a slice runs (the process was descheduled
        # for a whole period) is dropped rather than nested.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.timed.append(timed_slice())
        self.start.append(t0)
        self.end.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        speed_slice()  # any lazy import it triggers happens here, not in a handler
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, run_s, stamps):
        """Probe-free and speed-scaled run time and step intervals.

        The run time is scaled by the 10%-trimmed mean timed slice of the
        job, each step interval by the median of the SPEED_WINDOW timed
        slices nearest to it.
        """
        start, end, timed = np.array(self.start), np.array(self.end), np.array(self.timed)
        dur = end - start
        stamps = np.asarray(stamps)
        if dur.size == 0:
            steps = np.diff(stamps)
            return {"paused_s": 0.0, "slices": 0, "slice_s": SPEED_REF_S,
                    "run_ref_s": run_s, "step_ms": 1e3 * steps, "step_ref_ms": 1e3 * steps}
        lo, hi = np.quantile(timed, [0.1, 0.9])
        slice_s = float(timed[(timed >= lo) & (timed <= hi)].mean())
        # A slice started before stamp k lies in interval k - 1.
        inside = np.bincount(np.searchsorted(stamps, start), weights=dur,
                             minlength=stamps.size + 1)[1:stamps.size]
        steps = np.diff(stamps) - inside
        half = SPEED_WINDOW // 2
        padded = np.pad(timed, half, mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, SPEED_WINDOW),
                          axis=1)
        mid = 0.5 * (stamps[1:] + stamps[:-1])
        nearest = np.clip(np.searchsorted(start, mid), 0, dur.size - 1)
        return {
            "paused_s": float(dur.sum()),
            "slices": int(dur.size),
            "slice_s": slice_s,
            "run_ref_s": (run_s - float(dur.sum())) * SPEED_REF_S / slice_s,
            "step_ms": 1e3 * steps,
            "step_ref_ms": 1e3 * steps * SPEED_REF_S / local[nearest],
        }


def dense_quantile_huber(pred, target, kappa):
    """Dense O(B m m') quantile-Huber loss and gradient: the reference the
    package's kernel is checked against, kept here so it outlives any
    backend the package ships."""
    b, m = pred.shape
    mp = target.shape[1]
    taus = (np.arange(m) + 0.5) / m
    u = target[:, None, :] - pred[:, :, None]
    weight = np.abs(taus[None, :, None] - (u < 0.0))
    abs_u = np.abs(u)
    quad = abs_u <= kappa
    huber = np.where(quad, 0.5 * u * u, kappa * (abs_u - 0.5 * kappa))
    dhuber = np.where(quad, u, kappa * np.sign(u))
    norm = 1.0 / (b * m * mp * kappa)
    return norm * float(np.sum(weight * huber)), -norm * np.sum(weight * dhuber, axis=2)


def _close(a, b):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= ATOL + RTOL * np.abs(b)))


class Probe:
    """Untimed bookkeeping every job needs for its checks: one timestamp per
    loop step, the replay fill point and the first kernel calls."""

    def __init__(self):
        self.stamps = []
        self.results = []
        self.kernel_calls = []
        self.store_calls = 0
        self.accepted = 0
        self.fill_call = None
        self.absent = []

    def stamp(self, fn):
        """Timestamp every call and keep the first results (the agent's losses)."""
        stamps, results = self.stamps, self.results

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            out = fn(*args, **kwargs)
            if len(results) < CHECKED_UPDATES:
                results.append(out)
            return out

        return stamped

    def store(self, batch_size):
        def make(fn):
            def counted(*args, **kwargs):
                kept = fn(*args, **kwargs)
                if self.fill_call is None:
                    self.store_calls += 1
                    self.accepted += bool(kept)
                    if self.accepted >= batch_size:
                        self.fill_call = self.store_calls
                return kept

            return counted

        return make

    def kernel(self, fn):
        calls = self.kernel_calls

        def captured(pred, target, kappa):
            out = fn(pred, target, kappa)
            if len(calls) < CHECKED_UPDATES:
                calls.append((pred.copy(), target.copy(), kappa, out[0], out[1].copy()))
            return out

        return captured

    def hook(self, target, make_wrapper):
        if not patch(target, make_wrapper):
            self.absent.append(target)


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def setup_gap_rates(seed, probe):
    from ctdrl import cli

    cfg, errors = cli.resolve_config(cli.GAP_RATES_FIELDS, None, [f"seeds={seed}"])
    if errors:
        raise ValueError(errors)
    out_dir = OUT / f"job-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    cli.echo_config(out_dir, "gap-rates", cfg)

    def install():
        probe.hook("ctdrl.ctmdp:_em_apply", probe.stamp)

    def run():
        return cli.cmd_gap_rates(cfg, out_dir)

    def check(code, checks):
        path = out_dir / "results.csv"
        _check(checks, "exit_code", code == 0, f"exit {code}")
        data = path.read_bytes() if path.exists() else b""
        rows = data.decode().splitlines()[2:]
        finite = bool(rows)
        values = {}
        for line in rows:
            experiment, _, h, metric, value, stderr = line.split(",")
            nums = [float(v) for v in (value, stderr) if v]
            finite &= bool(np.all(np.isfinite(nums)))
            if not h:
                values[metric] = float(value)
        _check(checks, "rows_finite", finite, f"{len(rows)} rows")
        slope, r2 = values.get("w_gap_slope", math.nan), values.get("w_gap_r2", math.nan)
        _check(checks, "w_gap_slope_band", GAP_SLOPE_BAND[0] <= slope <= GAP_SLOPE_BAND[1],
               f"slope {slope!r}")
        _check(checks, "w_gap_r2", r2 >= GAP_MIN_R2, f"r2 {r2!r}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return hashlib.sha256(data).hexdigest()

    return install, run, check


def setup_train(seed, probe, omega, updates):
    from ctdrl import agents, cli, envs

    sets = [f"seeds={seed}", f"omega_grid={omega!r}", f"updates={updates}", "eval_every=0"]
    cfg, errors = cli.resolve_config(cli.TRAIN_FIELDS, None, sets)
    if errors:
        raise ValueError(errors)
    # The objects cli.cmd_train builds for this cell, without evaluation.
    train_params, _ = cli._gbm_params_from_cfg(cfg)
    h = 1.0 / omega
    env = envs.OptionTradingEnv(
        train_params, horizon=cfg["horizon"],
        start_price=cfg["start_price"], discount=cfg["discount"],
    )
    ipu = max(1, int(np.floor(1.0 / h + 1e-9)))
    decay = max(1, int(cfg["eps_fraction"] * cfg["updates"] * ipu))
    agent = cli.build_agent(
        cfg["agent"], cfg, h, env.terminal_reward, decay, seed=cli._cell_seed(seed, 91)
    )
    tcfg = agents.TrainConfig(
        batch_size=cfg["batch_size"],
        buffer_capacity=cfg["buffer_capacity"],
        target_period=cfg["target_period"],
        eval_every=0,
        eval_episodes=cfg["eval_episodes"],
        eval_cvar_alpha=cfg["eval_cvar_alpha"],
        seed=cli._cell_seed(seed, 92),
    )

    def install():
        cls = type(agent)
        probe.hook(f"{cls.__module__}:{cls.__qualname__}.train_step", probe.stamp)
        probe.hook("ctdrl.agents:store_subsampled", probe.store(tcfg.batch_size))
        probe.hook("ctdrl._kernels:quantile_huber_batch", probe.kernel)

    def run():
        try:
            agents.train(agent, env, updates, tcfg)
        except agents.TrainingDiverged as exc:
            return f"diverged: {exc}"
        return 0

    def check(code, checks):
        _check(checks, "no_divergence", code == 0, str(code))
        taken = len(probe.stamps)
        if probe.fill_call is None:
            _check(checks, "updates_taken", False, "replay fill point not observed")
        else:
            expected = updates - (-(-probe.fill_call // ipu) - 1)
            _check(checks, "updates_taken", taken == expected,
                   f"{taken} taken, {expected} expected")
        ok = len(probe.kernel_calls) == CHECKED_UPDATES
        for i, (pred, target, kappa, loss, grad) in enumerate(probe.kernel_calls):
            ref_loss, ref_grad = dense_quantile_huber(pred, target, kappa)
            ok &= _close(loss, ref_loss) and _close(grad, ref_grad)
            ok &= i < len(probe.results) and _close(probe.results[i], ref_loss)
        _check(checks, "dense_oracle", ok, f"{len(probe.kernel_calls)} replayed batches")
        digest = hashlib.sha256()
        for name, arr in sorted(agent.named_params().items()):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    return install, run, check


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--run-id", default="")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ctdrl

    if not Path(ctdrl.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported ctdrl from {ctdrl.__file__}, not from {SRC}")

    probe = Probe()
    if args.workload == "gap_rates":
        install, run, check = setup_gap_rates(args.seed, probe)
    else:
        install, run, check = setup_train(args.seed, probe, **TRAIN_SHAPES[args.workload])
    setup_s = time.monotonic() - args.spawned
    burst = [timed_slice() for _ in range(SPEED_WINDOW)]
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * SPEED_REF_S / float(np.median(burst)),
              "kernel_backend": ctdrl.KERNEL_BACKEND}
    if args.setup_only:
        shutil.rmtree(OUT / f"job-{os.getpid()}", ignore_errors=True)
        print(json.dumps(result))
        return 0

    install()
    tracer = None
    if args.trace:
        tracer = Tracer(args.run_id)
        tracer.install()
    speed = SpeedProbe()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is None:
        with speed:
            code = run()
    else:
        code = run()
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = []
    digest = check(code, checks)
    scaled = speed.scale(run_s, probe.stamps)
    result.update(
        run_s=run_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        paused_s=scaled["paused_s"],
        slices=scaled["slices"],
        slice_s=scaled["slice_s"],
        run_ref_s=scaled["run_ref_s"],
        step_ms=scaled["step_ms"].tolist(),
        step_ref_ms=scaled["step_ref_ms"].tolist(),
        checks=checks,
        digest=digest,
        absent=probe.absent,
    )
    if tracer is not None:
        summary = tracer.summary(run_s)
        result["layers"] = layer_metrics(summary, run_s)
        result["absent"] = probe.absent + tracer.absent
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
