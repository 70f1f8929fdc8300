"""Horizon-reach probe: how far out can the first plan be solved?

    python3 perfbench/probe.py

For ``fourcell_constant`` (interval boxes) and its point-parameter variant
(``boxes { mainline_upper jam }``) at each horizon, the closed loop is run
up to its first plan and that one MILP is solved twice, each in a child
process under a wall-clock cap of CAP_S seconds: by the in-house branch
and bound and by HiGHS (``scipy.optimize.milp``) on the identical model.
Each case ends in a typed outcome: optimal, infeasible, budget,
NumericalBreakdown or cap. The probe is informational; it is not one of
the benchmark's workloads.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

# run pins BLAS to one thread when imported, before numpy is
from run import ROOT, add_sources, child_env

CAP_S = 60.0
HORIZONS = (5, 10, 15, 20, 30, 60)
VARIANTS = ("interval", "point")
SOLVERS = ("inhouse", "highs")
# import and the ticks before the first plan, on top of the solve's cap
START_MARGIN_S = 30.0


class _FirstPlanDone(Exception):
    """Stops the closed loop once its first plan has been solved."""


class _CapReached(Exception):
    """Raised by the wall-clock timer inside an in-house solve."""


def _raise_cap(signum, frame):
    raise _CapReached


def _case(variant: str, horizon: int, solver: str) -> dict:
    """Run one case in this process and return its record."""
    from highs_ref import STATUS_NAMES, solve_highs
    from workloads import BASE_PRESET, POINT_PLAN, edit_preset

    from rampflow import harness, milp

    edits = {"mpc": {"horizon": str(horizon)}}
    if variant == "point":
        edits["boxes"] = POINT_PLAN["boxes"]
    scenario = harness.parse_scenario(
        edit_preset(harness.PRESETS[BASE_PRESET], edits), name=f"{variant}{horizon}")
    record = {"variant": variant, "horizon": horizon, "solver": solver}
    solve_milp, solve_canonical = milp.solve_milp, milp.solve_canonical
    pivots = [0]

    def counted(*args, **kwargs):
        res = solve_canonical(*args, **kwargs)
        pivots[0] += res.iterations
        return res

    def first_plan(model, **kwargs):
        lp = model.lp
        record.update(columns=lp.n_cols, rows=lp.n_rows,
                      binaries=int(model.binaries.shape[0]))
        start = time.perf_counter()
        if solver == "highs":
            _, status, objective = solve_highs(model, rel_gap=scenario.gap_rel,
                                               time_limit=CAP_S)
            outcome = {0: "optimal", 1: "cap", 2: "infeasible"}.get(status, STATUS_NAMES[status])
            record.update(outcome=outcome, objective=objective)
        else:
            milp.solve_canonical = counted
            signal.signal(signal.SIGALRM, _raise_cap)
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                sol = solve_milp(model, **kwargs)
            except milp.NumericalBreakdown as err:
                record.update(outcome="NumericalBreakdown", detail=str(err))
            except _CapReached:
                record.update(outcome="cap")
            else:
                outcome = {milp.BUDGET_EXCEEDED: "budget"}.get(sol.status, sol.status)
                record.update(outcome=outcome, objective=sol.objective, nodes=sol.nodes,
                              gap=sol.gap)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                milp.solve_canonical = solve_canonical
            # pivots of the LP solves that returned; a cut solve loses its last
            record["pivots"] = pivots[0]
        record["seconds"] = time.perf_counter() - start
        raise _FirstPlanDone

    milp.solve_milp = first_plan
    try:
        harness.run_closed_loop(scenario)
        record.update(outcome="no plan", seconds=0.0)
    except _FirstPlanDone:
        pass
    finally:
        milp.solve_milp = solve_milp
    return record


def _spawn(variant: str, horizon: int, solver: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--case", variant,
           str(horizon), solver]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CAP_S + START_MARGIN_S)
    except subprocess.TimeoutExpired:
        return {"variant": variant, "horizon": horizon, "solver": solver,
                "outcome": "cap", "seconds": time.perf_counter() - start}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"variant": variant, "horizon": horizon, "solver": solver,
                "outcome": "error", "detail": tail[0]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", nargs=3, metavar=("VARIANT", "HORIZON", "SOLVER"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not add_sources():
        return 2
    if args.case:
        variant, horizon, solver = args.case
        print(json.dumps(_case(variant, int(horizon), solver)))
        return 0
    print(f"{'variant':9s} {'T':>3s} {'solver':8s} {'outcome':18s} {'seconds':>8s} "
          f"{'nodes':>6s} {'pivots':>7s}")
    for variant in VARIANTS:
        for horizon in HORIZONS:
            for solver in SOLVERS:
                rec = _spawn(variant, horizon, solver)
                print(f"{variant:9s} {horizon:3d} {solver:8s} {rec['outcome']:18s} "
                      f"{rec.get('seconds', float('nan')):8.2f} {rec.get('nodes', '-')!s:>6s} "
                      f"{rec.get('pivots', '-')!s:>7s}", flush=True)
                print("  " + json.dumps(rec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
