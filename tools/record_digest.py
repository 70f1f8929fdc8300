"""Print a digest of each benchmark workload's closed loop at one seed.

    python3 tools/record_digest.py --seed 0

One line per workload of ``perfbench/workloads.py``: the sha256 of the CSV
``harness.emit_csv`` writes, the ticks that planned, the LP solves and
simplex pivots (counted by wrapping ``milp.solve_canonical``) and
``tts_veh``. Two commits that print the same lines ran the same loops bit
for bit.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, load_workload  # noqa: E402

from rampflow import harness, milp  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args(argv).seed
    solve_canonical, counts = milp.solve_canonical, [0, 0]

    def counted(*args, **kwargs):
        res = solve_canonical(*args, **kwargs)
        counts[0] += 1
        counts[1] += res.iterations
        return res

    milp.solve_canonical = counted
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            counts[:] = [0, 0]
            scenario = load_workload(name, seed)
            log = harness.run_closed_loop(scenario)
            path = harness.emit_csv(log, Path(tmp) / f"{name}.csv",
                                    meta=harness.scenario_meta(scenario, log))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            plans = sum(step.phase == "mpc" for step in log.steps)
            print(f"{name} seed {seed}: sha256 {digest} plan_ticks {plans} "
                  f"solves {counts[0]} pivots {counts[1]} "
                  f"tts_veh {float(log.states.sum()):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
