"""The ``rampflow`` command.

    rampflow run fourcell_constant --csv run.csv
    rampflow run my_stretch.scn

``run`` resolves a preset name or a scenario file (docs/scenario-format.md),
drives its closed loop and writes the record as a CSV that
``harness.read_log`` reads back. Without ``--csv`` the record goes to
``<scenario name>.csv`` in the working directory. A scenario that cannot
be read, or that the parser or a range check rejects, ends the command
with its message and exit status 2. A loop that stops with a typed reason (an infeasible or
over-budget plan, a reading outside the state box, a solver breakdown)
ends it with ``rampflow: <scenario>: <reason type>: <message>`` and exit
status 1; the ticks done before the stop are still written, with a last
metadata line ``# stopped <reason type>: <message>``. A stop before the
first tick is done writes no CSV. A stop that carries the planner's model
(an infeasible or over-budget plan, a solver breakdown) also writes that
model in ``milp.dump_model``'s grammar to ``<csv>.model``, beside where
the CSV goes, and names the file on standard error. A record or a model
that cannot be written (its directory is missing, say) ends the command
with ``rampflow: cannot write <path>: <reason>`` and exit status 2.

The command starts on numpy alone. scipy, which only the planner's
solver uses, loads inside the first plan, so a baseline controller or a
Set-PC run that stays inside its terminal box never imports it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness, milp


def _cannot_write(path: Path, err: OSError) -> int:
    print(f"rampflow: cannot write {path}: {err.strerror or err}", file=sys.stderr)
    return 2


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
    csv = args.csv or Path(f"{scenario.name}.csv")
    stopped: list[tuple[str, str]] = []
    try:
        log = harness.run_closed_loop(scenario)
    except harness.LOOP_STOPS as err:
        reason = f"{type(err).__name__}: {err}"
        print(f"rampflow: {scenario.name}: {reason}", file=sys.stderr)
        model = getattr(err, "model", None)
        if model is not None:
            dump = Path(f"{csv}.model")
            try:
                dump.write_text(milp.dump_model(model))
            except OSError as exc:
                return _cannot_write(dump, exc)
            print(f"rampflow: {scenario.name}: model written to {dump}", file=sys.stderr)
        log, stopped = err.log, [("stopped", " ".join(reason.split()))]  # one line
        if not len(log):
            return 1
    try:
        path = harness.emit_csv(log, csv, meta=harness.scenario_meta(scenario, log) + stopped)
    except OSError as exc:
        return _cannot_write(csv, exc)
    print(f"{scenario.name}: {len(log)} ticks written to {path}")
    return 1 if stopped else 0
