"""Certificates over recorded runs.

Everything in this module is read-only over a :class:`TrajectoryLog`:
contraction constants derived from the cost weights, the geometric bound
on the state norm, the per-step decrease of the planner optimum, the
value-function sandwich, and the first-entry scan for the terminal box.
Nothing here feeds back into the loop that produced the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import LiftedState, ParamBounds
from .milp import MilpBudget
from .mpc import CostSpec, TerminalSet

# slack the tube encoding itself may introduce on top of solver gaps
ENCODING_SLACK = 1e-6

SCOPE_NOMINAL = "known parameters, constant demand"
SCOPE_OUTSIDE = "outside hypotheses: adaptive parameters or varying demand"


@dataclass(frozen=True)
class IssConstants:
    """Contraction data read off the cost weights.

    a1 is the smallest running-cost weight, a2 bounds the value function
    per unit of state norm over the whole horizon, a3 prices the
    arrivals, and rho = 1 - a1/a2 is the per-step contraction factor of
    the value recursion.
    """

    a1: float
    a2: float
    a3: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(
                f"contraction factor {self.rho:.6g} outside (0, 1); the "
                "weights or the horizon give a degenerate bound")


def iss_constants(cost: CostSpec, horizon: int) -> IssConstants:
    """Plug-in constants from the cost weights and the planning horizon.

    Scale-consistent: multiplying every weight by the same factor leaves
    rho unchanged, since it only depends on the ratio of the smallest
    running weight to the horizon-scaled largest weight.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    a1 = float(np.min(cost.l))
    a2 = float((horizon + 1) * max(float(np.max(cost.l)), float(np.max(cost.b))))
    a3 = float(np.max(cost.d))
    return IssConstants(a1=a1, a2=a2, a3=a3, rho=1.0 - a1 / a2)


@dataclass
class LogStep:
    """One tick of a recorded run.

    x is the plant state that was actually driven, estimate the corrected
    box the controller acted on, u the executed control. value is the
    planner optimum at this tick (nan when no plan was solved).
    """

    x: np.ndarray
    estimate: LiftedState
    u: np.ndarray
    value: float
    phase: str
    theta: ParamBounds | None = None


@dataclass
class TrajectoryLog:
    """Per-step record of a closed-loop run plus the run-level facts the
    certificates need.

    cost holds the run's weights, gap_rel the relative gap its solver
    stopped at, and demand the constant arrival vector when the run had
    one (the sandwich check refuses to run without it). The rest derives
    from these: runnings charges l against each upper estimate, gap is
    the absolute slack per solve (gap_rel times the largest solved value,
    plus ``MilpBudget.gap_abs``, the absolute gap a run's solver stops
    at), and decrease_allowance is the per-step growth the terminal
    weights license, the arrival price d @ lam, zero without demand.
    """

    cost: CostSpec
    gap_rel: float
    demand: np.ndarray | None
    known_theta: bool
    steps: list[LogStep] = field(default_factory=list)

    def append(self, x, estimate, u, value, phase, theta=None) -> None:
        self.steps.append(LogStep(
            x=np.asarray(x, dtype=float).copy(), estimate=estimate,
            u=np.asarray(u, dtype=float).copy(), value=float(value),
            phase=str(phase), theta=theta))

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.steps])

    @property
    def runnings(self) -> np.ndarray:
        return np.array([float(self.cost.l @ s.estimate.upper) for s in self.steps])

    @property
    def states(self) -> np.ndarray:
        return np.array([s.x for s in self.steps])

    @property
    def upper_estimates(self) -> np.ndarray:
        return np.array([s.estimate.upper for s in self.steps])

    @property
    def gap(self) -> float:
        vals = self.values
        solved = np.abs(vals[np.isfinite(vals)])
        return self.gap_rel * float(np.max(solved)) + MilpBudget.gap_abs if solved.size else 0.0

    @property
    def decrease_allowance(self) -> float:
        return float(self.cost.d @ self.demand) if self.demand is not None else 0.0


@dataclass(frozen=True)
class IssReport:
    margins: np.ndarray
    min_margin: float
    scope: str


def verify_iss_bound(log: TrajectoryLog, constants: IssConstants,
                     lam) -> IssReport:
    """Margins of the geometric bound on the state norm along a run.

    The bound caps the 1-norm of the true state by
    (a2/a1) rho^t |xbar(0)|_1 plus a constant gain on the arrivals; the
    margin at t is that right-hand side minus |x(t)|_1, so a healthy run
    never goes negative. Runs with adaptive parameters or varying demand
    are still scanned, but the report's scope says the bound was read
    outside its hypotheses.
    """
    if not log.steps:
        raise ValueError("empty log")
    lam1 = float(np.sum(np.abs(np.asarray(lam, dtype=float))))
    x0 = float(np.sum(log.steps[0].estimate.upper))
    a1, a2, a3, rho = constants.a1, constants.a2, constants.a3, constants.rho
    gain = (a3 + (1.0 - rho) * a2) / (a1 * (1.0 - rho))
    t = np.arange(len(log.steps))
    rhs = (a2 / a1) * rho ** t * x0 + gain * lam1
    lhs = np.sum(np.abs(log.states), axis=1)
    margins = rhs - lhs
    nominal = log.known_theta and log.demand is not None
    return IssReport(margins=margins, min_margin=float(np.min(margins)),
                     scope=SCOPE_NOMINAL if nominal else SCOPE_OUTSIDE)


@dataclass(frozen=True)
class LyapunovReport:
    residuals: np.ndarray
    times: np.ndarray
    threshold: float
    allowance: float
    max_residual: float
    passed: bool


def lyapunov_decrease_check(log: TrajectoryLog) -> LyapunovReport:
    """Decrease residuals of the planner optimum along a run.

    residual(t) = V(t+1) - V(t) + running(t) - allowance, over every pair
    of consecutive ticks that both carry a solved plan. The threshold
    2 gap + 1e-6 absorbs the optimality slack of two solves plus the
    encoding slack, so anything above it is a genuine violation rather
    than solver noise.
    """
    vals = log.values
    finite = np.isfinite(vals)
    pairs = [t for t in range(len(vals) - 1) if finite[t] and finite[t + 1]]
    runs = log.runnings
    residuals = np.array(
        [vals[t + 1] - vals[t] + runs[t] - log.decrease_allowance
         for t in pairs])
    threshold = 2.0 * log.gap + ENCODING_SLACK
    worst = float(np.max(residuals)) if pairs else -math.inf
    return LyapunovReport(
        residuals=residuals, times=np.array(pairs, dtype=int),
        threshold=threshold, allowance=log.decrease_allowance,
        max_residual=worst, passed=worst <= threshold)


@dataclass(frozen=True)
class ValueBoundsReport:
    lower_margins: np.ndarray
    upper_margins: np.ndarray
    min_lower: float
    min_upper: float
    passed: bool


def value_function_bounds_check(log: TrajectoryLog,
                                constants: IssConstants) -> ValueBoundsReport:
    """Sandwich a1 |xbar|_1 <= V <= a2 (|xbar|_1 + |lam|_1) per solved tick."""
    if log.demand is None:
        raise ValueError("the log does not record an arrival vector")
    lam1 = float(np.sum(np.abs(log.demand)))
    vals = log.values
    finite = np.isfinite(vals)
    norms = np.sum(np.abs(log.upper_estimates), axis=1)
    lower = vals[finite] - constants.a1 * norms[finite]
    upper = constants.a2 * (norms[finite] + lam1) - vals[finite]
    slack = log.gap + ENCODING_SLACK
    min_lower = float(np.min(lower)) if lower.size else math.inf
    min_upper = float(np.min(upper)) if upper.size else math.inf
    return ValueBoundsReport(
        lower_margins=lower, upper_margins=upper,
        min_lower=min_lower, min_upper=min_upper,
        passed=min(min_lower, min_upper) >= -slack)


def time_to_terminal(log: TrajectoryLog, terminal: TerminalSet) -> int | None:
    """First tick whose upper estimate sits inside the terminal box."""
    for t, step in enumerate(log.steps):
        if terminal.contains(step.estimate.upper):
            return t
    return None


def certificate_summary(log: TrajectoryLog, *,
                        constants: IssConstants | None = None,
                        lam=None,
                        terminal: TerminalSet | None = None) -> list[str]:
    """One line per certificate, ready for a run's sidecar."""
    lines: list[str] = []
    dec = lyapunov_decrease_check(log)
    if dec.times.size:
        lines.append(
            f"decrease: max residual {dec.max_residual:.6g} vs threshold "
            f"{dec.threshold:.6g} -> {'pass' if dec.passed else 'FAIL'}")
    else:
        lines.append("decrease: no consecutive solved ticks to compare")
    if constants is not None:
        try:
            vb = value_function_bounds_check(log, constants)
            if vb.lower_margins.size:
                lines.append(
                    f"value bounds: min lower margin {vb.min_lower:.6g}, min "
                    f"upper margin {vb.min_upper:.6g} -> "
                    f"{'pass' if vb.passed else 'FAIL'}")
            else:
                lines.append("value bounds: no solved ticks")
        except ValueError as err:
            lines.append(f"value bounds: skipped ({err})")
        lam_vec = lam if lam is not None else log.demand
        if lam_vec is None:
            lines.append("state bound: skipped (no arrival vector)")
        else:
            iss = verify_iss_bound(log, constants, lam_vec)
            verdict = "pass" if iss.min_margin >= 0.0 else "FAIL"
            lines.append(
                f"state bound: min margin {iss.min_margin:.6g} "
                f"[{iss.scope}] -> {verdict}")
    if terminal is not None:
        entry = time_to_terminal(log, terminal)
        lines.append("terminal entry: not reached" if entry is None
                     else f"terminal entry: t={entry}")
    return lines
