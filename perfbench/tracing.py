"""Outside-in layer trace of one closed-loop run.

The program is not edited. Instead every public function of the traced
modules is wrapped at each module attribute a caller looks it up by (so
``controllers.theta_update`` and ``estimators.theta_update`` are both
replaced, and the call inside ``setpc_step`` is seen). A wrapper records a
span (name, start, end, parent span) in memory; self times and per-layer
counters are derived from the spans after the run. The layer of a function
is the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from rampflow import (_simplex, analysis, controllers, ctm, embedding,
                      estimators, harness, milp, mpc)
from rampflow.embedding import PARAM_FIELDS

TRACED_MODULES = (ctm, embedding, estimators, mpc, milp, _simplex, controllers,
                  harness, analysis)
LAYERS = tuple(m.__name__.rsplit(".", 1)[-1] for m in TRACED_MODULES)
HOOK_SPAN = "mpc.incumbent_hook"


def _layer(qualname: str) -> str:
    return qualname.split(".", 1)[0]


class Tracer:
    """Spans and boundary counters of one traced run."""

    def __init__(self):
        # each span is [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.errors: Counter = Counter()
        self.pivots = 0
        self.certified = 0
        self.bounds_moved = 0
        self.solves: list[dict] = []
        self.first_model = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                kwargs = before(self, kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                self.errors[(name, type(err).__name__)] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds.

        A root span's (``harness.run_closed_loop``) own time is spent in
        code that no other wrapper covers, such as the harness's private
        plant loop and the class methods it calls. It is kept apart as
        ``unwrapped`` and left out of the self times, so that their sum
        shows how much of the run the wrapped layers account for.
        """
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        unwrapped = 0.0
        for k, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            if parent >= 0:
                self_s[name] += end - start - child[k]
            else:
                unwrapped += end - start - child[k]
        return {"calls": calls, "incl": incl, "self": self_s, "unwrapped": unwrapped}


def _after_canonical(tracer, args, kwargs, result):
    tracer.pivots += result.iterations


def _after_consistency(tracer, args, kwargs, result):
    tracer.certified += result == estimators.INFEASIBLE


def _after_theta(tracer, args, kwargs, result):
    before = args[1] if len(args) > 1 else kwargs["param_bounds"]
    for corner in ("upper", "lower"):
        for fld in PARAM_FIELDS:
            old = getattr(getattr(before, corner), fld)
            new = getattr(getattr(result, corner), fld)
            tracer.bounds_moved += int(np.count_nonzero(old != new))


def _after_milp(tracer, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    lp = model.lp
    bins = model.binaries
    tracer.solves.append({
        "status": result.status,
        "nodes": result.nodes,
        "gap": float(result.gap),
        "columns": lp.n_cols,
        "rows": lp.n_rows,
        "binaries": int(bins.shape[0]),
        "binaries_fixed": int(np.count_nonzero(lp.col_lower[bins] == lp.col_upper[bins])),
    })
    if tracer.first_model is None:
        tracer.first_model = (model, result)


def _before_milp(tracer, kwargs):
    # the planner's incumbent hook is mpc code run from inside branch and
    # bound; give it a span of its own so its time lands in the mpc layer
    hook = kwargs.get("incumbent_hook")
    if hook is not None:
        kwargs = dict(kwargs, incumbent_hook=tracer.wrap(HOOK_SPAN, hook))
    return kwargs


_AFTER = {
    "_simplex.solve_canonical": _after_canonical,
    "estimators.interval_consistency": _after_consistency,
    "estimators.theta_update": _after_theta,
    "milp.solve_milp": _after_milp,
}
_BEFORE = {"milp.solve_milp": _before_milp}


def public_functions():
    """(module, attribute, qualified name) for every traced call site."""
    owners = {m.__name__: m.__name__.rsplit(".", 1)[-1] for m in TRACED_MODULES}
    sites = []
    for module in TRACED_MODULES:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = owners.get(obj.__module__)
            if owner is not None:
                sites.append((module, attr, f"{owner}.{obj.__name__}"))
    return sites


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, name in public_functions():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced closed loop, as name -> (value, unit)."""
    s = tracer.summary()
    calls, incl, self_s = s["calls"], s["incl"], s["self"]
    layer_self = defaultdict(float)
    for name, sec in self_s.items():
        layer_self[_layer(name)] += sec
    solves = tracer.solves

    def per_call_us(name):
        return 1e6 * incl[name] / calls[name] if calls[name] else 0.0

    checks = calls["estimators.interval_consistency"]
    updates = calls["estimators.theta_update"]
    out = {
        "simplex.solves": (calls["_simplex.solve_canonical"], "count"),
        "simplex.pivots": (tracer.pivots, "count"),
        "simplex.ms": (1e3 * layer_self["_simplex"], "ms"),
        "simplex.breakdowns": (
            tracer.errors[("_simplex.solve_canonical", "NumericalBreakdown")], "count"),
        "milp.nodes": (sum(r["nodes"] for r in solves), "count"),
        "milp.bnb_self_ms": (1e3 * self_s["milp.solve_milp"], "ms"),
        "milp.gap": (_mean([r["gap"] for r in solves if np.isfinite(r["gap"])]), "obj"),
    }
    for status in (milp.OPTIMAL, milp.INFEASIBLE, milp.BUDGET_EXCEEDED, milp.UNBOUNDED):
        out[f"milp.status.{status}"] = (sum(r["status"] == status for r in solves), "count")
    out.update({
        "mpc.plan_ms": (1e3 * incl["mpc.solve_mpc"], "ms"),
        "mpc.self_ms": (1e3 * layer_self["mpc"], "ms"),
    })
    for key in ("columns", "rows", "binaries", "binaries_fixed"):
        out[f"mpc.{key}"] = (_mean([r[key] for r in solves]), "count")
    out.update({
        "estimators.theta_update_ms": (1e3 * incl["estimators.theta_update"], "ms"),
        "estimators.checks_per_tick": (checks / updates if updates else 0.0, "count"),
        "estimators.check_us": (per_call_us("estimators.interval_consistency"), "us"),
        "estimators.certified_ratio": (tracer.certified / checks if checks else 0.0, "ratio"),
        "estimators.bounds_moved": (tracer.bounds_moved, "count"),
        "estimators.state_update_us": (per_call_us("estimators.state_update"), "us"),
        "embedding.lifted_step_us": (per_call_us("embedding.lifted_step"), "us"),
        "embedding.lifted_steps": (calls["embedding.lifted_step"], "count"),
        "ctm.compact_step_us": (per_call_us("ctm.compact_step"), "us"),
        "controllers.local_us": (per_call_us("controllers.local_controller"), "us"),
    })
    # harness has no span below the root, whose own time is trace.unwrapped_ms
    for layer in LAYERS:
        if layer not in ("_simplex", "mpc", "harness"):
            out[f"{layer}.self_ms"] = (1e3 * layer_self[layer], "ms")
    out["trace.run_s"] = (run_s, "s")
    out["trace.unwrapped_ms"] = (1e3 * s["unwrapped"], "ms")
    # falls below 1 by the unwrapped time and the benchmark's own time around the root
    out["trace.self_sum_frac"] = (sum(layer_self.values()) / run_s, "ratio")
    return out
