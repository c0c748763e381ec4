"""Every entry point the benchmark's tracer hooks exists and is called.

``perfbench/spans.py`` replaces each target at the name its callers look up
at call time. A refactor that renames a target, or routes calls around it,
would silently zero that layer's metrics. These tests put a call counter on
every target, then run a tiny gap-rates sweep and one tiny training cell per
agent kind. The names ``perfbench/worker.py`` calls directly are covered by
running its setup for each workload. Counters that read a target's
positional arguments are pinned to the parameter names at those positions.
"""

import ast
import importlib.util
import inspect
import json
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from ctdrl import cli, ctmdp

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"
_BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text())
_WORKLOADS = [workload["name"] for workload in _BENCHMARK["workloads"]]
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

TARGETS = [target for _, targets, _ in spans.HOOKS for target in targets]

# The parameter at each position a counter (or a span-name function) reads
# from its target's positional arguments. Renaming or reordering one of these
# parameters changes what the counter measures while the hook still installs.
COUNTED_PARAMS = {
    "ctdrl.estimate:_bootstrap_w_se": {4: "n_resamples"},
    "ctdrl.ctmdp:_em_apply": {2: "states", 3: "action_indices"},
    "ctdrl._kernels:quantile_huber_batch": {0: "pred", 1: "target"},
    "ctdrl.approx:Mlp.forward_cached": {1: "x"},
    "ctdrl.agents:adam_step": {1: "params"},
    "ctdrl.agents:train": {2: "total_updates"},
    "ctdrl.envs:OptionTradingEnv.step_batch": {2: "X"},
}

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


def _positions_read(fn):
    """The constant indices fn's source reads from a name ``args``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)}


def test_counted_params_lists_every_positional_read():
    reads = {}
    for name, targets, count in spans.HOOKS:
        positions = set()
        for fn in (name, count):
            if callable(fn):
                positions |= _positions_read(fn)
        reads.update((target, positions) for target in targets if positions)
    assert reads == {target: set(params) for target, params in COUNTED_PARAMS.items()}


@pytest.mark.parametrize("target", sorted(COUNTED_PARAMS))
def test_counted_argument_keeps_its_parameter_name(target):
    params = list(inspect.signature(spans.resolve(target)[2]).parameters)
    assert {pos: params[pos] for pos in COUNTED_PARAMS[target]} == COUNTED_PARAMS[target]


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_worker_setup_runs(workload):
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--spawned", repr(time.monotonic()), "--setup-only"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kernel_backend" in json.loads(proc.stdout.splitlines()[-1])


def test_gap_rates_applies_one_em_step_per_call(tmp_path, monkeypatch):
    # The benchmark's gap_rates update interval is the time between two
    # _em_apply calls, so each EM step must be exactly one call. Its
    # ctmdp.path_steps counts the rows of the states each call steps: one on
    # a rollout that has not diffused, n_paths from its first diffusive step.
    rows = []
    em_apply = ctmdp._em_apply

    def counted(mdp, t, states, action_indices, delta, draw):
        out = em_apply(mdp, t, states, action_indices, delta, draw)
        rows.append((states.shape[0], out.shape[0]))
        return out

    monkeypatch.setattr(ctmdp, "_em_apply", counted)
    _run(cli.cmd_gap_rates, cli.GAP_RATES_FIELDS, TINY_GAP_RATES, tmp_path / "gap")
    cfg, _ = cli.resolve_config(cli.GAP_RATES_FIELDS, None, TINY_GAP_RATES)
    t, horizon, n = cfg["t"], cfg["horizon"], cfg["n_paths"]
    steps = []
    for h in sorted(cfg["h_grid"], reverse=True):
        dt = h / cfg["substeps"]
        window = ctmdp._phase_steps(t, t + h, dt)
        tail = ctmdp._phase_steps(t + h, horizon, cfg["tail_dt"] or dt)
        steps.append(len(window) + len(tail))
    assert len(rows) == 768  # as many calls as when every bundle had n_paths rows
    # per h, the frozen action 0 on one row, then action 1, whose window
    # diffuses from its first step
    want = []
    for k in steps:
        want += [(1, 1)] * k + [(1, n)] + [(n, n)] * (k - 1)
    assert rows == want
