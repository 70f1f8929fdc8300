"""Closed-loop Set-PC benchmark.

    python3 perfbench/run.py --workload tube_plan --seed 3 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
over untraced closed loops; ``--trace 1`` runs untraced and traced loops of
the seed's scenario and reports the per-layer metrics. Every
loop passes through the correctness gate. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (closed-loop
ticks) and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported anywhere in this process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import Sampler  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# import time varies by tens of percent from one process to the next
SETUP_SAMPLES = 7
MIN_LOOPS = 2
# keeps a run within its time limit even when the code under test is slow
LOOPS_CEILING_S = 120.0
# numpy is part of what is timed, so the speed kernel runs after the set-up
SETUP_CHILD = """\
import statistics, sys, time
start = time.perf_counter()
from workloads import load_workload
load_workload(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - start
from speed import factor, kernel_s
kernel_s()
print(elapsed * factor(statistics.median(kernel_s() for _ in range(5))))
"""
HIGHS_TIME_LIMIT_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def add_sources() -> bool:
    """Put the checkout's sources on sys.path; report and fail when they are missing."""
    if not (SRC / "rampflow" / "__init__.py").is_file():
        print(f"error: the rampflow sources are missing under {SRC}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(BENCH)]
    return True


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds of import plus parse_scenario, each in a fresh process.

    Each sample is at reference speed.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, workload, str(seed)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


@dataclass
class Loop:
    """One closed loop of a scenario, with its gate verdict.

    ``run_s`` and ``ticks_ms`` are at reference speed when the loop was
    calibrated, and as measured otherwise; ``wall_s`` is always as measured.
    """

    tag: str
    run_s: float
    wall_s: float
    ticks_ms: list[float]
    total_ticks: int
    log: object = None
    failed_ticks: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    csv: bytes = b""

    @property
    def failed(self) -> int:
        return len(self.failed_ticks)

    def fail(self, ticks, reason: str) -> None:
        self.failed_ticks.update(ticks)
        self.reasons.append(reason)


def run_loop(scenario, tag: str, calibrate: bool) -> Loop:
    """Drive one closed loop through the public harness, timing each tick.

    With ``calibrate`` the speed kernel (speed.py) runs before every tick,
    every INTERVAL_S during the loop and once after it. Each tick is scaled
    to reference speed by the samples taken during it and the nearest ones
    around it, and the time outside the ticks by the loop's samples. Kernel
    time is taken out of the tick and loop times.
    """
    from rampflow import harness

    spans: list[tuple[float, float]] = []
    sampler = Sampler()
    originals = harness.setpc_step, harness.forced_step

    def timed(step):
        def tick(*args, **kwargs):
            if calibrate:
                sampler.take()
            start = time.perf_counter()
            out = step(*args, **kwargs)
            spans.append((start, time.perf_counter()))
            return out
        return tick

    harness.setpc_step, harness.forced_step = map(timed, originals)
    log, error = None, None
    with sampler.running() if calibrate else nullcontext():
        start = time.perf_counter()
        try:
            log = harness.run_closed_loop(scenario)
        except Exception as err:  # an aborted loop is a measured outcome
            error = f"{type(err).__name__}: {err}"
        end = time.perf_counter()
    harness.setpc_step, harness.forced_step = originals
    wall_s = end - start
    if calibrate:
        sampler.take()
        ticks_s = [(b - a - sampler.spent_s(a, b)) * sampler.factor(a, b) for a, b in spans]
        between_s = wall_s - sampler.spent_s(start, end) - sum(
            b - a - sampler.spent_s(a, b) for a, b in spans)
        run_s = sum(ticks_s) + between_s * sampler.factor(start, end)
    else:
        ticks_s = [b - a for a, b in spans]
        run_s = wall_s
    loop = Loop(tag, run_s, wall_s, [1e3 * s for s in ticks_s],
                scenario.warmup + scenario.steps, log)
    if error is not None:
        loop.fail(range(len(spans), loop.total_ticks), f"aborted ({error})")
    return loop


def gate(scenario, loop: Loop, path: Path) -> None:
    """Check containment, control limits and the CSV round trip of a loop."""
    import numpy as np
    from rampflow.embedding import PARAM_FIELDS
    from rampflow.harness import emit_csv, read_log, scenario_meta

    log = loop.log
    if log is None:
        return
    tol = 1e-9
    u_max = scenario.params.u_max
    for t, step in enumerate(log.steps):
        if not step.estimate.contains(step.x, tol=tol):
            loop.fail([t], f"tick {t}: true state outside the corrected box")
        for fld in PARAM_FIELDS:
            true = getattr(scenario.params, fld)
            if (np.any(true < getattr(step.theta.lower, fld) - tol)
                    or np.any(true > getattr(step.theta.upper, fld) + tol)):
                loop.fail([t], f"tick {t}: true {fld} outside the theta box")
        if np.any(step.u < -tol) or np.any(step.u > u_max + tol):
            loop.fail([t], f"tick {t}: control outside [0, u_max]")
    everything = range(loop.total_ticks)
    try:
        emit_csv(log, path, meta=scenario_meta(scenario, log))
        loop.csv = path.read_bytes()
        back, _ = read_log(path)
    except (OSError, ValueError) as err:
        loop.fail(everything, f"CSV round trip failed ({type(err).__name__}: {err})")
        return
    same = len(back) == len(log) and all(
        np.allclose(a.x, b.x, rtol=1e-11, atol=0.0)
        and np.allclose(a.estimate.upper, b.estimate.upper, rtol=1e-11, atol=0.0)
        and np.allclose(a.estimate.lower, b.estimate.lower, rtol=1e-11, atol=0.0)
        and np.allclose(a.u, b.u, rtol=1e-11, atol=0.0)
        and np.allclose(a.value, b.value, rtol=1e-11, atol=0.0, equal_nan=True)
        for a, b in zip(log.steps, back.steps))
    if not same:
        loop.fail(everything, "emit_csv -> read_log does not reproduce the log")


def certificates(scenario, log) -> list[str]:
    """The run's certificate verdicts, reported as facts and never gated."""
    from rampflow.analysis import (certificate_summary, iss_constants,
                                   lyapunov_decrease_check)

    try:
        constants = iss_constants(scenario.cost, scenario.mpc.horizon)
    except ValueError:
        constants = None
    lines = certificate_summary(log, constants=constants, lam=scenario.demand_base,
                                terminal=scenario.terminal)
    try:
        dec = lyapunov_decrease_check(log)
    except ValueError:
        return lines
    over = int((dec.residuals > dec.threshold).sum())
    return lines + [f"decrease pairs over threshold: {over} of {dec.times.size}"]


def run_gated(workload: str, seed: int, tag: str, tracer=None,
              calibrate: bool = False) -> tuple[object, Loop]:
    """Load, run and gate one loop of the seed's scenario; only the loop is traced.

    A traced loop is never calibrated, so that no kernel time lands in its spans.
    """
    from workloads import load_workload

    scenario = load_workload(workload, seed)
    if tracer is None:
        loop = run_loop(scenario, tag, calibrate)
    else:
        from tracing import traced

        with traced(tracer):
            loop = run_loop(scenario, tag, calibrate=False)
    gate(scenario, loop, OUT / f"{workload}-{seed}-{tag}.csv")
    return scenario, loop


def check_repeat(first: Loop, again: Loop) -> None:
    """Two loops of one scenario must write byte-identical CSVs."""
    if first.log is not None and again.log is not None and first.csv != again.csv:
        again.fail(range(again.total_ticks), "the rerun wrote a different CSV")


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the order statistics."""
    import numpy as np
    from scipy.special import betainc

    n = len(values)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(values))


def untraced(workload: str, seed: int, seconds: float):
    """End-to-end metrics over repeated untraced loops of the seed's scenario.

    At least MIN_LOOPS loops run, and more while the next one is expected
    to end within ``seconds``. No loop starts that is expected to end after
    LOOPS_CEILING_S. Every loop must write the same CSV as the first.
    Every loop runs the same ticks, so a loop's time and each tick's latency
    are taken as their median over the loops, at reference speed (speed.py).
    The tick percentiles are Harrell-Davis estimates: a weighted mean of all
    the order statistics, steadier than the one a plain percentile picks.
    """
    setup_s = measure_setup(workload, seed)
    loops: list[Loop] = []
    while not loops or (
            sum(l.wall_s for l in loops) + loops[-1].wall_s
            <= (LOOPS_CEILING_S if len(loops) < MIN_LOOPS else seconds)):
        scenario, loop = run_gated(workload, seed, f"loop{len(loops)}", calibrate=True)
        if loops:
            check_repeat(loops[0], loop)
        loops.append(loop)
    ticks = [statistics.median(l.ticks_ms[k] for l in loops if k < len(l.ticks_ms))
             for k in range(max(len(l.ticks_ms) for l in loops))]
    # a loop that aborts in its first tick still gets a latency: its whole time
    ticks = ticks or [1e3 * loops[0].run_s]
    p50, p80 = harrell_davis(ticks, 0.5), harrell_davis(ticks, 0.8)
    tts = [float(loop.log.states.sum()) for loop in loops if loop.log is not None]
    metrics = {
        "run_s": (statistics.median(l.run_s for l in loops), "s"),
        "tick_p50_ms": (float(p50), "ms"),
        "tick_p80_ms": (float(p80), "ms"),
        "setup_s": (setup_s, "s"),
        "tts_veh": (statistics.median(tts) if tts else 0.0, "veh"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"loops {len(loops)}, seconds at reference speed "
             + " ".join(f"{l.run_s:.3f}" for l in loops)
             + ", as measured " + " ".join(f"{l.wall_s:.3f}" for l in loops),
             f"ticks {len(ticks)}, beyond p80 {sum(ms > p80 for ms in ticks)}"]
    if loops[0].log is not None:
        notes += ["certificate: " + line for line in certificates(scenario, loops[0].log)]
    return loops, metrics, notes


def traced_run(workload: str, seed: int):
    """Per-layer metrics from one traced loop of the seed's scenario.

    The first untraced loop warms the process; the second is the base of
    the tracing overhead.
    """
    from highs_ref import NOT_RUN, objective_gap, solve_highs
    from tracing import Tracer, layer_metrics

    _, warm = run_gated(workload, seed, "warm")
    scenario, plain = run_gated(workload, seed, "plain")
    tracer = Tracer()
    _, loop = run_gated(workload, seed, "traced", tracer)
    check_repeat(warm, plain)
    check_repeat(warm, loop)
    metrics = layer_metrics(tracer, loop.run_s)
    metrics["trace.overhead_frac"] = (loop.wall_s / plain.wall_s - 1.0, "ratio")
    ms, status, gap = 0.0, NOT_RUN, 0.0
    if tracer.first_model is not None:
        model, inhouse = tracer.first_model
        seconds, status, objective = solve_highs(model, rel_gap=scenario.gap_rel,
                                                 time_limit=HIGHS_TIME_LIMIT_S)
        ms, gap = 1e3 * seconds, objective_gap(inhouse.objective, objective)
    metrics["highs_ref.ms"] = (ms, "ms")
    metrics["highs_ref.status"] = (status, "code")
    metrics["highs_ref.objective_gap"] = (gap, "ratio")
    notes = [f"untraced loop {plain.wall_s:.3f} s, traced loop {loop.wall_s:.3f} s"]
    if warm.log is not None:
        notes += ["certificate: " + line for line in certificates(scenario, warm.log)]
    return [warm, plain, loop], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not add_sources():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            loops, metrics, notes = traced_run(args.workload, args.seed)
        else:
            loops, metrics, notes = untraced(args.workload, args.seed, args.seconds)
    finally:
        for path in OUT.glob(f"{args.workload}-{args.seed}-*.csv"):
            path.unlink()
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    attempted = sum(loop.total_ticks for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for line in notes:
        print(line)
    for loop in loops:
        for reason in loop.reasons:
            print(f"gate, {loop.tag} loop: {reason}")
    print(f"ticks attempted {attempted}, failed {failed}, "
          f"ticks_failed_frac {failed / attempted:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
