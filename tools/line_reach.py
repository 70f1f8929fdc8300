"""Print which lines of each ``src/rampflow`` module the benchmark's loops reach.

    python3 tools/line_reach.py

Runs one seed-0 loop of each workload in ``perfbench/workloads.py`` the way
``perfbench/run.py`` does (``run_closed_loop``, ``emit_csv`` then
``read_log``, ``certificate_summary`` and ``lyapunov_decrease_check``) under
``sys.settrace``, the package's imports included. For each module it prints
the executable lines, the lines reached and the numbers of the lines never
reached: code that no workload runs, which only tests reach, if anything.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
MODULES = sorted((ROOT / "src" / "rampflow").glob("*.py"))


def executable(path: Path) -> set[int]:
    """The lines that carry bytecode in the module or any code object in it."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= {line for _, _, line in code.co_lines() if line}
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, such as '4, 9-12'."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    reached: dict[str, set[int]] = {str(path): set() for path in MODULES}

    def trace(frame, event, arg):
        hits = reached.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    from workloads import WORKLOADS, load_workload

    from rampflow import analysis, harness
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            scenario = load_workload(name, 0)
            log = harness.run_closed_loop(scenario)
            path = harness.emit_csv(log, Path(tmp) / f"{name}.csv",
                                    meta=harness.scenario_meta(scenario, log))
            harness.read_log(path)
            try:
                constants = analysis.iss_constants(scenario.cost, scenario.mpc.horizon)
            except ValueError:
                constants = None
            analysis.certificate_summary(log, constants=constants, lam=scenario.demand_base,
                                         terminal=scenario.terminal)
            analysis.lyapunov_decrease_check(log)
    sys.settrace(None)

    print(f"{'module':<14} {'executable':>10} {'reached':>8}  never reached")
    for path in MODULES:
        lines = executable(path)
        missed = sorted(lines - reached[str(path)])
        print(f"{path.name:<14} {len(lines):>10} {len(lines) - len(missed):>8}  {spans(missed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
