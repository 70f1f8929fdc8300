"""Print a digest of each benchmark workload's closed loop at given seeds.

    python3 tools/record_digest.py --seed 0 3

One line per workload of ``perfbench/workloads.py`` and seed (default 0,
seeds in the order given): the sha256 of the CSV
``harness.emit_csv`` writes and, under ``rows``, of its lines without the
``#`` metadata, the ticks that planned, the LP solves and
simplex pivots (counted by wrapping ``milp.solve_canonical``), the
branch-and-bound nodes (summed over ``milp.solve_milp``'s solutions),
followed on a workload that plans by ``largest_tree``, the nodes of its
largest single plan (which shows whether a change trims every tree or
only the big ones), the root LPs as ``roots replayed/crashed/cold`` (the first
``milp.solve_canonical`` call of each ``milp.solve_milp``: started from the
previous plan's root basis, which ``_simplex._replay`` accepted, from the
crash basis of a verified candidate, or from the slack basis), the
basis factorizations (``_simplex._Factors`` built), the slack columns
among the basic columns summed over those factorizations (as
``slacks/columns``), the LP solves that
took the dual simplex (``_simplex._Worker._dual`` calls), the gadget
selectors that nodes fixed from their propagated boxes (summed over
``milp._Selectors.fixes``), the incumbent-hook calls that reached the
planner's ``encode`` (those that returned a vector rather than ``None``),
``tts_veh``, the stacked propagations of
the parameter contraction with the boxes they carry (counted by wrapping
``estimators._certified``), the window transitions those propagations
certified as ``transitions computed/reused`` (the transitions
``estimators._stepped`` stepped, and on a fully measured window of more
than one transition the rest of each call's transitions, whose verdicts
the window kept from an earlier call), its probe stacks as ``stacks built/reused``
(``estimators._probe_stack`` calls, and the ``estimators._certify_spines``
calls on a stack that a measurement window kept from an earlier tick), the
row propagations of the branch-and-bound nodes and how many of them closed
a box (as ``calls/closed``, counted by wrapping
``milp._RowPropagation.box``), and under ``models`` the sha256 of
the joined ``milp.dump_model`` text of every model ``milp.solve_milp``
received. Two
commits that print the same digest, plan ticks, solves, pivots and
``tts_veh`` ran the same loops bit for bit, and the same ``models`` says
they built the same solver models too; the same ``rows`` with a different
sha256 means only the metadata changed.
Nodes that propagation closes are not solved, so the same nodes with fewer
solves is the same tree with less work. The propagations show how often the
nodes propagated a box over the rows and how often that closed a node
without an LP; the certified counts show what the contraction spent, and
the reused stacks how many it did not build again.

Then one line for a Set-PC loop whose window has an unmeasured cell, which
the workloads never have: ``fourcell_constant`` with ``output.mask 1 1 0 1``,
``backward_horizon 5``, ``horizon 5`` and ``initial.mainline 30 30 30 30``.
Its certificate steps the window's chain one transition a call. The line
gives how the loop stopped (the typed stop's class name, or ``none``),
its ticks, the sha256 of its CSV, and the certified calls, boxes and
transitions counted as above.

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

# the preset edits of the loop with an unmeasured cell (cell 2)
PARTIAL = {"estimator": {"backward_horizon": "5"}, "mpc": {"horizon": "5"},
           "initial": {"mainline": "30 30 30 30"}}
PARTIAL_MASK = "1 1 0 1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    seeds = parser.parse_args(argv).seed
    solve_canonical, certified = milp.solve_canonical, estimators._certified
    solve_milp, factors = milp.solve_milp, _simplex._Factors
    dual, box_fixes = _simplex._Worker._dual, milp._Selectors.fixes
    factor, box = _simplex._Worker._factor, milp._RowPropagation.box
    replay = _simplex._replay
    probe_stack, certify_spines = estimators._probe_stack, estimators._certify_spines
    stepped = estimators._stepped
    counts = [0] * 21
    models = hashlib.sha256()
    # [a root solve is next, the replay gate accepted a basis]
    root = [False, False]

    def counted(*args, **kwargs):
        root[1] = False
        res = solve_canonical(*args, **kwargs)
        counts[0] += 1
        counts[1] += res.iterations
        if root[0]:
            root[0] = False
            warm = kwargs["warm"]  # a root's crash is passed unbuilt
            if root[1]:
                counts[13] += 1
            else:
                counts[14 if (warm() if callable(warm) else warm) is not None else 15] += 1
        return res

    def counted_replay(*args):
        worker = replay(*args)
        root[1] = worker is not None
        return worker

    def counted_boxes(window, pair, *rows):
        before = counts[19]
        dead = certified(window, pair, *rows)
        counts[2] += 1
        counts[3] += dead.size
        if len(window) > 2 and window.fully_measured:
            counts[20] += len(window) - 1 - (counts[19] - before)
        return dead

    def counted_stepped(x, records, *args):
        counts[19] += len(records)
        return stepped(x, records, *args)

    def counted_stack(*args):
        counts[16] += 1
        return probe_stack(*args)

    def counted_spines(window, stack):
        counts[17] += 1
        return certify_spines(window, stack)

    def counted_nodes(*args, incumbent_hook=None, **kwargs):
        def counted_hook(x):
            cand = incumbent_hook(x)
            counts[8] += cand is not None
            return cand

        if incumbent_hook is not None:
            kwargs["incumbent_hook"] = counted_hook
        models.update(milp.dump_model(args[0]).encode())
        root[0] = True
        sol = solve_milp(*args, **kwargs)
        root[0] = False
        counts[4] += sol.nodes
        counts[18] = max(counts[18], sol.nodes)
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

    def counted_box(propagation, lo, hi, fixes):
        out = box(propagation, lo, hi, fixes)
        counts[11] += 1
        counts[12] += out is None
        return out

    def counted_dual(worker, *args):
        counts[6] += 1
        return dual(worker, *args)

    def counted_fixes(selectors, box, fixes):
        decided = box_fixes(selectors, box, fixes)
        counts[7] += len(decided)
        return decided

    milp.solve_canonical = counted
    _simplex._replay = counted_replay
    _simplex._Worker._dual = counted_dual
    _simplex._Worker._factor = counted_factor
    milp._Selectors.fixes = counted_fixes
    milp._RowPropagation.box = counted_box
    estimators._certified = counted_boxes
    estimators._stepped = counted_stepped
    estimators._probe_stack = counted_stack
    estimators._certify_spines = counted_spines
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
            counts[:] = [0] * 21
            models = hashlib.sha256()
            log, blob = run(load_workload(name, seed))
            digest = hashlib.sha256(blob).hexdigest()
            rows = hashlib.sha256(b"".join(
                line for line in blob.splitlines(keepends=True)
                if not line.startswith(b"#"))).hexdigest()
            plans = sum(step.phase == "mpc" for step in log.steps)
            largest = f" largest_tree {counts[18]}" if counts[4] else ""
            print(f"{name} seed {seed}: sha256 {digest} rows {rows} plan_ticks {plans} "
                  f"solves {counts[0]} pivots {counts[1]} nodes {counts[4]}{largest} "
                  f"roots {counts[13]}/{counts[14]}/{counts[15]} "
                  f"factorizations {counts[5]} basic_slacks {counts[9]}/{counts[10]} "
                  f"dual_solves {counts[6]} "
                  f"node_fixed {counts[7]} hook_encodes {counts[8]} "
                  f"tts_veh {float(log.states.sum()):.6f} "
                  f"certified_calls {counts[2]} certified_boxes {counts[3]} "
                  f"transitions {counts[19]}/{counts[20]} "
                  f"stacks {counts[16]}/{counts[17] - counts[16]} "
                  f"propagations {counts[11]}/{counts[12]} "
                  f"models {models.hexdigest()}")
        counts[:] = [0] * 21
        text = edit_preset(harness.PRESETS["fourcell_constant"], PARTIAL)
        scenario = harness.parse_scenario(f"{text}output {{\n  mask {PARTIAL_MASK}\n}}\n",
                                          name="fourcell_constant")
        try:
            log, stop = harness.run_closed_loop(scenario), "none"
        except harness.LOOP_STOPS as err:
            log, stop = err.log, type(err).__name__
        path = harness.emit_csv(log, Path(tmp) / "partial.csv",
                                meta=harness.scenario_meta(scenario, log))
        print(f"fourcell_constant mask {PARTIAL_MASK}: stop {stop} ticks {len(log)} "
              f"sha256 {hashlib.sha256(path.read_bytes()).hexdigest()} "
              f"certified_calls {counts[2]} certified_boxes {counts[3]} "
              f"transitions {counts[19]}/{counts[20]}")
        for (preset, text), kind in itertools.product(harness.PRESETS.items(),
                                                      ("alinea", "openloop", "local")):
            text = edit_preset(text, {"controller": {"kind": kind}})
            log, blob = run(harness.parse_scenario(text, name=preset))
            print(f"{preset} {kind}: sha256 {hashlib.sha256(blob).hexdigest()} "
                  f"tts_veh {float(log.states.sum()):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
