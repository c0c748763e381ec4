"""Span recording for the traced benchmark run.

Each hook replaces one layer entry point at the name its callers look up at
call time (a module attribute or a class attribute), so the package itself
carries no tracing code. A span records its name, start, end and parent; the
spans stay in memory and are summarised, and written out, when the job ends.
Counters are computed from call arguments and results, so they repeat
exactly between runs of the same inputs.

The layer of a span is the part of its name before the first dot. The
package module ``_kernels`` appears as the layer ``kernels`` because metric
names must start with a letter or a digit.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "estimate", "ctmdp", "dist", "envs", "agents", "approx", "kernels")


def _rows(x):
    return 1 if np.ndim(x) < 2 else np.shape(x)[0]


def _count_em_apply(c, args, result):
    states, action_indices = args[2], args[3]
    c["ctmdp.path_steps"] += np.shape(states)[0]
    c["ctmdp.em_apply.uniform_calls"] += bool(np.all(action_indices == action_indices[0]))


def _count_bootstrap(c, args, result):
    c["estimate.bootstrap.resamples"] += args[4]


def _count_quantile_huber(c, args, result):
    b, m = np.shape(args[0])
    mp = np.shape(args[1])[1]
    c["kernels.quantile_huber.pairs"] += b * m * mp
    # Compulsory float64 traffic from the array sizes (read pred and target,
    # write the gradient); cache misses and temporaries are not included.
    c["kernels.quantile_huber.bytes_computed"] += 8 * (2 * b * m + b * mp)


def _count_adam(c, args, result):
    c["approx.adam_step.tensors"] += len(args[1])


def _count_replay(c, args, result):
    c["agents.replay.accepted"] += bool(result)


def _count_step_batch(c, args, result):
    c["envs.step_batch.rows"] += _rows(args[2])


def _count_observe(c, args, result):
    c["agents.observe.calls"] += 1


def _count_train(c, args, result):
    c["agents.loop_iterations"] += max(0, args[2])


def _forward_name(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "approx.forward.b1" if _rows(x) == 1 else "approx.forward.batch"


# (span name, or a function of the call arguments giving it, or None for a
# counter without a span; targets; counter). A target is "module:attribute"
# or "module:Class.attribute"; each present target is hooked and each
# missing one is reported as absent.
HOOKS = (
    ("cli.gap_rates", ("ctdrl.cli:cmd_gap_rates",), None),
    ("cli.write_results", ("ctdrl.cli:write_results_csv",), None),
    ("estimate.action_gaps", ("ctdrl.estimate:action_gaps",), None),
    ("estimate.bootstrap", ("ctdrl.estimate:_bootstrap_w_se",), _count_bootstrap),
    ("ctmdp.rollout", ("ctdrl.estimate:_rollout_returns",), None),
    ("ctmdp.em_apply", ("ctdrl.ctmdp:_em_apply",), _count_em_apply),
    ("dist.to_quantile_rep", ("ctdrl.dist:to_quantile_rep",), None),
    ("dist.wasserstein", ("ctdrl.dist:wasserstein",), None),
    ("kernels.quantile_huber", ("ctdrl._kernels:quantile_huber_batch",),
     _count_quantile_huber),
    ("kernels.wasserstein_sorted", ("ctdrl._kernels:wasserstein_sorted",), None),
    (_forward_name, ("ctdrl.approx:Mlp.forward_cached",), None),
    ("approx.backward", ("ctdrl.approx:Mlp.backward",), None),
    ("approx.adam_step", ("ctdrl.agents:adam_step",), _count_adam),
    ("agents.train", ("ctdrl.agents:train",), _count_train),
    ("agents.act", ("ctdrl.agents:explore_action",), None),
    (None, ("ctdrl.agents:_AgentBase.observe",), _count_observe),
    ("agents.replay", ("ctdrl.agents:store_subsampled",), _count_replay),
    ("agents.batch", ("ctdrl.agents:ReplayBuffer.sample", "ctdrl.agents:_batch_arrays"),
     None),
    ("agents.train_step", ("ctdrl.agents:DsupAgent.train_step",
                           "ctdrl.agents:QrdqnAgent.train_step",
                           "ctdrl.agents:DauAgent.train_step"), None),
    ("envs.step_batch", ("ctdrl.envs:OptionTradingEnv.step_batch",), _count_step_batch),
)


def resolve(target):
    """(owner, attribute name, current value) for a target, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def patch(target, make_wrapper):
    """Replace a target by make_wrapper(original); False when it is absent."""
    found = resolve(target)
    if found is None:
        return False
    owner, attr, fn = found
    setattr(owner, attr, make_wrapper(fn))
    return True


class Tracer:
    """In-memory span store with per-name aggregation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = defaultdict(int)
        self.absent = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, count=None):
        stack, counts = self._stack, self.counts
        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result

            return counted
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self):
        """Hook every entry point in HOOKS; absent ones are listed, not raised."""
        for name, targets, count in HOOKS:
            hooked = [patch(t, lambda fn: self.wrap(fn, name, count)) for t in targets]
            self.absent.extend(t for t, ok in zip(targets, hooked) if not ok)

    def summary(self, wall_s: float) -> dict:
        """Self and inclusive time per span name and per layer, plus counters.

        Self time is a span's duration minus the durations of its direct
        children; residual is wall time covered by no root span.
        """
        n = len(self.start)
        k = len(self.names)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_t = dur - child
        calls = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_t, minlength=k)
        incl_by = np.bincount(name, weights=dur, minlength=k)
        spans = {
            nm: {"calls": int(calls[i]), "self_s": float(self_by[i]), "s": float(incl_by[i])}
            for i, nm in enumerate(self.names)
        }
        layers = dict.fromkeys(LAYERS, 0.0)
        for nm, rec in spans.items():
            layer = nm.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
        return {
            "spans": spans,
            "layers": layers,
            "residual_s": float(wall_s - dur[~nested].sum()),
            "open_spans": int(np.count_nonzero(end[:n] == 0.0)),
            "counts": dict(self.counts),
        }

    def save(self, path):
        n = len(self.start)
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
        )


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """Flat per-layer metrics of one traced job, named as in BENCHMARK.json."""
    spans, counts = summary["spans"], defaultdict(int, summary["counts"])

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.self_s": s for layer, s in summary["layers"].items()}
    for name in ("ctmdp.em_apply", "ctmdp.rollout", "dist.to_quantile_rep",
                 "dist.wasserstein", "kernels.quantile_huber",
                 "kernels.wasserstein_sorted", "approx.forward.batch",
                 "approx.forward.b1", "approx.backward", "approx.adam_step",
                 "agents.act", "envs.step_batch"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    em_calls = get("ctmdp.em_apply", "calls")
    out.update({
        "ctmdp.path_steps": counts["ctmdp.path_steps"],
        "ctmdp.path_steps_per_s": ratio(counts["ctmdp.path_steps"],
                                        summary["layers"]["ctmdp"]),
        "ctmdp.em_apply.uniform_share": 100.0 * ratio(
            counts["ctmdp.em_apply.uniform_calls"], em_calls),
        "estimate.action_gaps.calls": get("estimate.action_gaps", "calls"),
        "estimate.action_gaps.s": get("estimate.action_gaps", "s"),
        "estimate.bootstrap.self_s": get("estimate.bootstrap", "self_s"),
        "estimate.bootstrap.resamples": counts["estimate.bootstrap.resamples"],
        "kernels.quantile_huber.pairs": counts["kernels.quantile_huber.pairs"],
        "kernels.quantile_huber.bytes_computed":
            counts["kernels.quantile_huber.bytes_computed"],
        "approx.adam_step.tensors": counts["approx.adam_step.tensors"],
        "agents.observe.calls": counts["agents.observe.calls"],
        "agents.replay.accept_ratio": ratio(counts["agents.replay.accepted"],
                                            get("agents.replay", "calls")),
        "agents.batch.self_s": get("agents.batch", "self_s"),
        "agents.train_step.calls": get("agents.train_step", "calls"),
        "agents.train_step.s": get("agents.train_step", "s"),
        "agents.update_ratio": ratio(get("agents.train_step", "calls"),
                                     counts["agents.loop_iterations"]),
        "envs.step_batch.rows_per_call": ratio(counts["envs.step_batch.rows"],
                                               get("envs.step_batch", "calls")),
        "cli.write_results.self_s": get("cli.write_results", "self_s"),
        "residual.self_s": summary["residual_s"],
        "trace.wall_s": wall_s,
        "trace.open_spans": summary["open_spans"],
    })
    return out
