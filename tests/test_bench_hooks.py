"""Every entry point the benchmark's tracer hooks exists and is called.

``perfbench/spans.py`` replaces each target at the name its callers look up
at call time. A refactor that renames a target, or routes calls around it,
would silently zero that layer's metrics. These tests put a call counter on
every target, then run a tiny gap-rates sweep and one tiny training cell per
agent kind. The names ``perfbench/worker.py`` calls directly are covered by
running its setup for each workload.
"""

import importlib.util
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from ctdrl import cli

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"
_BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())
_WORKLOADS = [workload["name"] for workload in _BENCHMARK["workloads"]]
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TARGETS = [target for _, targets, _ in spans.HOOKS for target in targets]

TINY_GAP_RATES = ["h_grid=0.25,0.125", "n_paths=200", "bootstrap=5", "m=32"]
TINY_TRAIN = ["updates=10", "batch_size=4", "eval_every=5", "eval_episodes=3",
              "final_eval_episodes=3", "m=4", "hidden=4"]


def _run(command, fields, sets, out):
    cfg, errors = cli.resolve_config(fields, None, sets)
    assert not errors
    out.mkdir()
    assert command(cfg, out) == 0


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    counts = Counter()

    def counter(target, fn):
        def counted(*args, **kwargs):
            counts[target] += 1
            return fn(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        for target in TARGETS:
            found = spans.resolve(target)
            if found is not None:
                owner, attr, fn = found
                mp.setattr(owner, attr, counter(target, fn))
        out = tmp_path_factory.mktemp("hooks")
        # Through the module attributes, where the tracer hooks them.
        _run(cli.cmd_gap_rates, cli.GAP_RATES_FIELDS, TINY_GAP_RATES, out / "gap")
        for i, kind in enumerate(cli.AGENT_KINDS):
            _run(cli.cmd_train, cli.TRAIN_FIELDS, [f"agent={kind}", *TINY_TRAIN],
                 out / f"train{i}")
    return counts


def test_every_hook_target_resolves():
    assert [t for t in TARGETS if spans.resolve(t) is None] == []


@pytest.mark.parametrize("target", TARGETS)
def test_hook_target_is_reached(calls, target):
    assert calls[target] > 0


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_worker_setup_runs(workload):
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--spawned", repr(time.monotonic()), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kernel_backend" in json.loads(proc.stdout.splitlines()[-1])
