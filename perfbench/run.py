"""Benchmark of the ctdrl lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, with no build step. Workloads (why each is chosen is in
design.json):

  gap_rates    ``lab gap-rates`` at its defaults (the criterion-1 sweep)
  train_5hz    DSUP(1/2) option trading at h = 0.2, learning-bound
  train_200hz  the same agent and env at h = 0.005, acting-bound

Load model: closed loop, one job at a time from one process, because users
start ``lab`` runs one after another. Each job is a fresh process that does
a fixed amount of work; jobs repeat until ``--seconds`` is used up (at least
one), and the run reports medians over jobs. Setup-only processes add setup
samples. BLAS runs one thread per job, because a second thread only spins on
the small matrices these workloads use and, on a host with few cores, makes
the timings measure the scheduler; the setting is recorded. Job timings are scaled to a reference host speed by a speed probe
that runs inside each job (see worker.py).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced jobs and prints the per-layer metrics of
the traced ones. Every job's outputs are checked; the run exits 1 when a
check fails and 2 when the package source is missing. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full report, with provenance, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
DESIGN = json.loads((HERE / "design.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = ("gap_rates", "train_5hz", "train_200hz")
SETUP_PROBES = 6
RUN_LIMIT_S = 150.0  # a run must end within 180 s; leave room for the last job
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
JOB_ENV = {**os.environ, **dict.fromkeys(BLAS_ENV, "1")}


def spawn(workload, seed, run_id, timeout, trace=False, setup_only=False):
    """Run one worker process; its JSON result, or a failure record."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--run-id", run_id]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=JOB_ENV,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "traced": trace}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "traced": trace}
    result = json.loads(lines[-1])
    result["traced"] = trace
    result["wall_s"] = time.monotonic() - spawned
    return result


def job_ok(job):
    return "error" not in job and all(c["ok"] for c in job.get("checks", ()))


def provenance(args, run_id, jobs):
    import numpy as np

    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*a):
            return subprocess.run(["git", *a], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip()

        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backends = sorted({j["kernel_backend"] for j in jobs if "kernel_backend" in j})
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DESIGN["default_seed"],
        "held_out_seed": DESIGN["held_out_seed"],
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backends,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: JOB_ENV.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def end_to_end(jobs, probes):
    untraced = [j for j in jobs if not j["traced"]]
    deciles = statistics.quantiles([s for j in untraced for s in j["step_ref_ms"]],
                                   n=10, method="inclusive")
    return {
        "setup_s": statistics.median([j["setup_ref_s"] for j in jobs + probes]),
        "run_ref_s": statistics.median([j["run_ref_s"] for j in untraced]),
        "peak_rss_mb": statistics.median([j["peak_rss_mb"] for j in untraced]),
        "update_ref_ms.p50": deciles[4],
        "update_ref_ms.p90": deciles[8],
    }


def per_layer(jobs, workload, seed):
    traced = [j for j in jobs if j["traced"]]
    untraced = [j for j in jobs if not j["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        out[name] = statistics.median([j["layers"][name] for j in traced])
    out["trace.overhead_share"] = (
        statistics.median([j["run_s"] for j in traced])
        / statistics.median([j["run_s"] - j["paused_s"] for j in untraced]) - 1.0
    )
    recorded = DESIGN["digests"][workload].get(str(seed))
    digests = {j["digest"] for j in jobs}
    out["cli.results_identical"] = (-1 if recorded is None
                                    else int(digests == {recorded}))
    out["trace.hooks_absent"] = len({a for j in traced for a in j["absent"]})
    return out


def accounting_check(jobs):
    """Per-layer self times plus residual equal the traced wall time."""
    bad = []
    for j in jobs:
        if not j["traced"]:
            continue
        layers = j["layers"]
        covered = layers["residual.self_s"] + sum(layers[f"{name}.self_s"] for name in LAYERS)
        wall = layers["trace.wall_s"]
        if abs(covered - wall) > 0.01 * wall or layers["trace.open_spans"]:
            bad.append(f"layers {covered!r} s against wall {wall!r} s")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DESIGN["default_seed"])
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctdrl" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'ctdrl'}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}

    run_id = uuid.uuid4().hex[:12]
    start = time.monotonic()

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    probes = [spawn(args.workload, args.seed, run_id, remaining(), setup_only=True)
              for _ in range(SETUP_PROBES)]
    jobs = []
    window = time.monotonic()
    while all(job_ok(j) for j in jobs + probes):
        traced = bool(args.trace) and len(jobs) % 2 == 1
        jobs.append(spawn(args.workload, args.seed, run_id, remaining(), trace=traced))
        if args.trace and len(jobs) < 2:
            continue
        typical = statistics.median(j.get("wall_s", 0.0) for j in jobs)
        if time.monotonic() - window >= args.seconds or typical > remaining():
            break

    failed = [j for j in jobs + probes if not job_ok(j)]
    problems = [j.get("error") or [c for c in j["checks"] if not c["ok"]] for j in failed]
    metrics = {}
    if not failed:
        if args.trace:
            problems += accounting_check(jobs)
            values = per_layer(jobs, args.workload, args.seed)
        else:
            values = end_to_end(jobs, probes)
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    correct = not failed and not problems

    report = {
        "provenance": provenance(args, run_id, jobs + probes),
        "correct": correct,
        "problems": problems,
        "error_rate": len(failed) / len(jobs + probes),
        "jobs": [{k: v for k, v in j.items() if k not in ("step_ms", "step_ref_ms")}
                 for j in jobs],
        "setup_probes": probes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    print("provenance " + json.dumps(report["provenance"]))
    for job in jobs:
        checks = " ".join(f"{c['name']}={'ok' if c['ok'] else 'FAIL'}"
                          for c in job.get("checks", ()))
        print(f"job traced={int(job['traced'])} run_s={job.get('run_s')}"
              f" run_ref_s={job.get('run_ref_s')} {checks}"
              f" {job.get('error', '')}".rstrip())
    for problem in problems:
        print(f"problem {problem}")
    print(f"error_rate = {report['error_rate']!r} (failed/attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs + probes),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
