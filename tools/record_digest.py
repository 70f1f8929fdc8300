"""Print a digest of each benchmark workload's closed loop at given seeds.

    python3 tools/record_digest.py --seed 0 3

One line per workload of ``perfbench/workloads.py`` and seed (default 0,
seeds in the order given): the sha256 of the CSV
``harness.emit_csv`` writes and, under ``rows``, of its lines without the
``#`` metadata, the ticks that planned, the LP solves and
simplex pivots (counted by wrapping ``milp.solve_canonical``), the
branch-and-bound nodes (summed over ``milp.solve_milp``'s solutions), the
basis factorizations (``_simplex._Factors`` built), the slack columns
among the basic columns summed over those factorizations (as
``slacks/columns``), the LP solves that
took the dual simplex (``_simplex._Worker._dual`` calls), the gadget
selectors that nodes fixed from their propagated boxes (summed over
``milp._Selectors.fixes``), the incumbent-hook calls that reached the
planner's ``encode`` (those that returned a vector rather than ``None``),
``tts_veh``, the stacked propagations of
the parameter contraction with the boxes they carry (counted by wrapping
``estimators._certified``), and under ``models`` the sha256 of the joined
``milp.dump_model`` text of every model ``milp.solve_milp`` received. Two
commits that print the same digest, plan ticks, solves, pivots and
``tts_veh`` ran the same loops bit for bit, and the same ``models`` says
they built the same solver models too; the same ``rows`` with a different
sha256 means only the metadata changed.
Nodes that propagation closes are not solved, so the same nodes with fewer
solves is the same tree with less work. The last two counts show what the
contraction spent on them.

Then one line per shipped preset and baseline controller (``alinea``,
``openloop``, ``local``, each set as the preset's ``controller.kind``): the
sha256 of its CSV and ``tts_veh``. The benchmark runs Set-PC only, so these
lines are what shows that a change left the baselines' loops alone.
"""

import argparse
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, edit_preset, load_workload  # noqa: E402

from rampflow import _simplex, estimators, harness, milp  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    seeds = parser.parse_args(argv).seed
    solve_canonical, certified = milp.solve_canonical, estimators._certified
    solve_milp, factors = milp.solve_milp, _simplex._Factors
    dual, box_fixes = _simplex._Worker._dual, milp._Selectors.fixes
    factor = _simplex._Worker._factor
    counts = [0] * 11
    models = hashlib.sha256()

    def counted(*args, **kwargs):
        res = solve_canonical(*args, **kwargs)
        counts[0] += 1
        counts[1] += res.iterations
        return res

    def counted_boxes(window, pair, tol):
        dead = certified(window, pair, tol)
        counts[2] += 1
        counts[3] += dead.size
        return dead

    def counted_nodes(*args, incumbent_hook=None, **kwargs):
        def counted_hook(x):
            cand = incumbent_hook(x)
            counts[8] += cand is not None
            return cand

        if incumbent_hook is not None:
            kwargs["incumbent_hook"] = counted_hook
        models.update(milp.dump_model(args[0]).encode())
        sol = solve_milp(*args, **kwargs)
        counts[4] += sol.nodes
        return sol

    class CountedFactors(factors):
        def __init__(self, cols):
            super().__init__(cols)
            counts[5] += 1

    def counted_factor(worker, factors=None):
        factor(worker, factors)
        if factors is None:  # factored afresh
            slack = (worker.basis >= worker.n) & (worker.basis < worker.n + worker.m)
            counts[9] += int(slack.sum())
            counts[10] += worker.m

    def counted_dual(worker, *args):
        counts[6] += 1
        return dual(worker, *args)

    def counted_fixes(selectors, box, fixes):
        decided = box_fixes(selectors, box, fixes)
        counts[7] += len(decided)
        return decided

    milp.solve_canonical = counted
    _simplex._Worker._dual = counted_dual
    _simplex._Worker._factor = counted_factor
    milp._Selectors.fixes = counted_fixes
    estimators._certified = counted_boxes
    milp.solve_milp = counted_nodes
    _simplex._Factors = CountedFactors
    with tempfile.TemporaryDirectory() as tmp:

        def run(scenario):
            """The scenario's closed-loop log and the bytes of its CSV."""
            log = harness.run_closed_loop(scenario)
            path = harness.emit_csv(log, Path(tmp) / f"{scenario.name}.csv",
                                    meta=harness.scenario_meta(scenario, log))
            return log, path.read_bytes()

        for name, seed in itertools.product(WORKLOADS, seeds):
            counts[:] = [0] * 11
            models = hashlib.sha256()
            log, blob = run(load_workload(name, seed))
            digest = hashlib.sha256(blob).hexdigest()
            rows = hashlib.sha256(b"".join(
                line for line in blob.splitlines(keepends=True)
                if not line.startswith(b"#"))).hexdigest()
            plans = sum(step.phase == "mpc" for step in log.steps)
            print(f"{name} seed {seed}: sha256 {digest} rows {rows} plan_ticks {plans} "
                  f"solves {counts[0]} pivots {counts[1]} nodes {counts[4]} "
                  f"factorizations {counts[5]} basic_slacks {counts[9]}/{counts[10]} "
                  f"dual_solves {counts[6]} "
                  f"node_fixed {counts[7]} hook_encodes {counts[8]} "
                  f"tts_veh {float(log.states.sum()):.6f} "
                  f"certified_calls {counts[2]} certified_boxes {counts[3]} "
                  f"models {models.hexdigest()}")
        for (preset, text), kind in itertools.product(harness.PRESETS.items(),
                                                      ("alinea", "openloop", "local")):
            text = edit_preset(text, {"controller": {"kind": kind}})
            log, blob = run(harness.parse_scenario(text, name=preset))
            print(f"{preset} {kind}: sha256 {hashlib.sha256(blob).hexdigest()} "
                  f"tts_veh {float(log.states.sum()):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
