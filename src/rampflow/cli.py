"""The ``rampflow`` command.

    rampflow run fourcell_constant --csv run.csv
    rampflow run my_stretch.scn

``run`` resolves a preset name or a scenario file (docs/scenario-format.md),
drives its closed loop and writes the record as a CSV that
``harness.read_log`` reads back. Without ``--csv`` the record goes to
``<scenario name>.csv`` in the working directory. A scenario the parser
or a range check rejects ends the command with its message and exit
status 2. A loop that stops with a typed reason (an infeasible or
over-budget plan, a reading outside the state box, a solver breakdown)
ends it with ``rampflow: <scenario>: <reason type>: <message>``, no CSV
and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import estimators, harness, milp, mpc

# the typed reasons a closed loop stops for
_LOOP_STOPS = (mpc.InfeasibleProblem, mpc.SolveBudgetExceeded,
               estimators.ContainmentViolation, milp.NumericalBreakdown)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rampflow")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a scenario's closed loop and write its CSV")
    run.add_argument("scenario",
                     help=f"a preset ({', '.join(sorted(harness.PRESETS))}) or a scenario file")
    run.add_argument("--csv", type=Path, help="where to write the record")
    args = parser.parse_args(argv)

    try:
        scenario = harness.load_scenario(args.scenario)
    except ValueError as err:  # a ScenarioError, or a record's range check
        print(f"rampflow: {err}", file=sys.stderr)
        return 2
    try:
        log = harness.run_closed_loop(scenario)
    except _LOOP_STOPS as err:
        print(f"rampflow: {scenario.name}: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    path = harness.emit_csv(log, args.csv or Path(f"{scenario.name}.csv"),
                            meta=harness.scenario_meta(scenario, log))
    print(f"{scenario.name}: {len(log)} ticks written to {path}")
    return 0
