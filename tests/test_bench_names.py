"""The names the benchmark in ``perfbench/`` looks up in the package.

The benchmark is kept apart from the package and reads it by name: module
attributes it calls or patches, spans its tracer keys on, and ``Scenario``
fields. Renaming or deleting one of them breaks the benchmark without
failing any other test, so the list is pinned here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from rampflow import (_simplex, analysis, controllers, ctm, embedding,  # noqa: E402
                      estimators, harness, milp, mpc)

ATTRIBUTES = {
    harness: ("setpc_step", "forced_step", "run_closed_loop", "emit_csv",
              "read_log", "scenario_meta", "parse_scenario", "PRESETS"),
    analysis: ("certificate_summary", "iss_constants", "lyapunov_decrease_check"),
    milp: ("solve_milp", "solve_canonical", "OPTIMAL", "INFEASIBLE",
           "BUDGET_EXCEEDED", "UNBOUNDED", "NumericalBreakdown"),
    _simplex: ("solve_canonical",),
    estimators: ("interval_consistency", "theta_update", "state_update", "INFEASIBLE"),
    embedding: ("lifted_step", "PARAM_FIELDS"),
    ctm: ("compact_step",),
    controllers: ("local_controller",),
    mpc: ("solve_mpc",),
}

# spans whose calls and times tracing.layer_metrics reads by name
TRACED_SPANS = ("_simplex.solve_canonical", "milp.solve_milp", "mpc.solve_mpc",
                "estimators.interval_consistency", "estimators.theta_update",
                "estimators.state_update", "embedding.lifted_step",
                "ctm.compact_step", "controllers.local_controller")

SCENARIO_FIELDS = ("cost", "mpc", "terminal", "gap_rel", "demand_base", "params",
                   "warmup", "steps", "x0", "n_cells")


@pytest.mark.parametrize("module", ATTRIBUTES, ids=lambda m: m.__name__)
def test_module_attributes_the_benchmark_uses_exist(module):
    missing = [name for name in ATTRIBUTES[module] if not hasattr(module, name)]
    assert not missing


def test_the_tracer_finds_every_span_it_reports():
    found = {name for _, _, name in tracing.public_functions()}
    assert set(TRACED_SPANS) <= found


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_loads_with_the_fields_the_benchmark_reads(workload):
    scenario = workloads.load_workload(workload, 0)
    missing = [name for name in SCENARIO_FIELDS if not hasattr(scenario, name)]
    assert not missing
