"""Tube-based predictive metering over the freeway's interval model.

The controller plans against the two-sided tube dynamics: a horizon-long
trajectory of upper and lower state components, driven by one shared
metering sequence. Every piecewise-linear flow term (sending flow with its
capacity switch, receiving flow) is encoded exactly with the gadget
library from :mod:`rampflow.milp`, so the optimal plan is found by branch
and bound rather than by approximation.

Layout of one horizon step, per tube component: the columns are states,
controls, sending and realized flows, and selectors. The speed line v*x,
the switched ceiling alpha*c + (1 - alpha)*c*drop and the receiving flow
(w/beta)(x_jam - x) enter the minima only as terms over the one column
each scales. Equality rows tie states across stages. The state boxes
[0, x_jam] x [0, inf) are column bounds, which is also what forces the
planned ramp discharge to equal the command (queues stay nonnegative only
when u never exceeds queue plus arrivals, and merges fit only below jam
occupancy).

The flow arithmetic itself lives in one place, the tube kernel
``embedding._tube_flows``: the plan codec below scatters its flows and
switch flags into these columns, and the column and term ranges come from
the kernel evaluated at the corners of the propagated state boxes. This
module only writes rows and combines ranges.

Before any row is written, forward interval propagation bounds every
column from the initial box and the control limits. That serves three
purposes: the big-M constants come out near-minimal, gadgets whose branch
is already decided get their binaries fixed (``fix_decided``; the whole
first stage always is, because the initial corners are known numbers),
and one-step problems collapse to plain linear programs.

``solve_mpc`` owns the planning conventions: it pins the parameter box's
jam interval onto its upper end (the receiving-flow rows need one jam value
per cell) and picks the encoding once, the single-component one when every
box is a point and the two-component tube otherwise.

A dynamics-completion heuristic turns fractional relaxation points into
candidate plans: take the relaxed metering sequence, clip it to what the
queues can serve, roll the tube forward, and re-encode. It runs both as
an incumbent hook inside branch and bound and up front on two cheap
seeds (track the arrivals; meter nothing). The codec checks nothing:
``milp.solve_milp`` verifies every candidate and drops a rollout that
leaves the propagated boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import milp
from .ctm import FreewayParams, equilibrium_uncongested
from .embedding import (
    DemandBounds,
    LiftedState,
    ParamBounds,
    _Side,
    _tube_flows,
    _TubeFlows,
    lifted_step,
)

_BOUND_TOL = 1e-9


class InfeasibleProblem(RuntimeError):
    """The horizon problem admits no plan."""


class SolveBudgetExceeded(RuntimeError):
    """Branch and bound hit its node budget before proving optimality."""

    def __init__(self, message: str, solution: milp.Solution):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class TerminalSet:
    """Box the horizon must end inside, applied to both tube components.

    x_f stacks mainline caps first, queue caps second. Infinite entries
    leave that coordinate unconstrained (customary on the queues when the
    operator only insists on an uncongested mainline).
    """

    x_f: np.ndarray

    def __post_init__(self):
        xf = np.asarray(self.x_f, dtype=float)
        if xf.ndim != 1 or xf.shape[0] % 2:
            raise ValueError("terminal bound must be a stacked vector")
        if np.any(np.isnan(xf)) or np.any(xf < 0.0):
            raise ValueError("terminal bound must be nonnegative")
        object.__setattr__(self, "x_f", xf)

    def contains(self, x) -> bool:
        """Whether the stacked state x sits in the box, boundary included
        (within 1e-9); the loop applies it to the upper estimate."""
        return bool(np.all(np.asarray(x, dtype=float) <= self.x_f + 1e-9))

    @classmethod
    def mainline_only(cls, x_up: np.ndarray) -> "TerminalSet":
        """Cap the mainline at x_up and leave the queues unconstrained."""
        x_up = np.asarray(x_up, dtype=float)
        return cls(np.concatenate([x_up, np.full(x_up.shape[0], np.inf)]))

    @classmethod
    def drained(cls, x_up: np.ndarray) -> "TerminalSet":
        """Cap the mainline at x_up and require empty queues."""
        x_up = np.asarray(x_up, dtype=float)
        return cls(np.concatenate([x_up, np.zeros(x_up.shape[0])]))


@dataclass(frozen=True)
class CostSpec:
    """The cost weights, read by the planner and by the certificates.

    l is the running cost and b the terminal weight, both stacked with
    mainline weights first and ramp-queue weights second (2I entries
    each); d prices the arrivals, one entry per ramp. The planner's
    objective is the sum of l*x(k) for k < T plus b*x(T), on the upper tube
    component only; the decrease certificate reads b*F(x) - b*x + l*x
    against d*lambda.
    """

    l: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=float)
        b = np.asarray(self.b, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if l.ndim != 1 or d.ndim != 1 or l.shape != b.shape or l.shape[0] != 2 * d.shape[0]:
            raise ValueError("weight lengths disagree")
        if not np.all(l > 0.0):
            raise ValueError("running-cost weights must be positive")
        if not np.all(b >= 0.0) or not np.all(np.isfinite(b)):
            raise ValueError("terminal weights must be finite and nonnegative")
        if np.any(d < 0.0):
            raise ValueError("demand slack weights must be nonnegative")
        for name, arr in (("l", l), ("b", b), ("d", d)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class MpcConfig:
    """Horizon and cost weights of the planner."""

    horizon: int
    cost: CostSpec

    def __post_init__(self):
        t = int(self.horizon)
        if t != self.horizon or t < 1:
            raise ValueError("horizon must be an integer >= 1")
        object.__setattr__(self, "horizon", t)


@dataclass
class MpcResult:
    """First planned control plus the value and diagnostics of the solve."""

    u: np.ndarray
    value: float
    controls: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    reduced: bool
    solution: milp.Solution


@dataclass
class TerminalCheckReport:
    """Worst-case audit of the terminal box certificate."""

    worst_residual: float
    worst_exit: float
    samples: int
    passed: bool
    worst_state: np.ndarray | None


def compute_xup(lam: np.ndarray, params: FreewayParams) -> np.ndarray:
    """Largest uniformly drainable mainline profile for constant demand lam.

    Backward recursion from the last cell: each cap is the critical
    occupancy unless the cell downstream cannot absorb the implied extra
    flow, in which case the slack that remains downstream is pulled back
    through the split ratio. The result always dominates the uncongested
    equilibrium occupancy.
    """
    lam = np.asarray(lam, dtype=float)
    x_unc = equilibrium_uncongested(params, lam)
    crit = params.x_crit
    v = params.v
    beta = params.beta
    x_up = np.empty_like(x_unc)
    x_up[-1] = crit[-1]
    for i in range(params.n_cells - 2, -1, -1):
        pull = x_unc[i] + (x_up[i + 1] - x_unc[i + 1]) * v[i + 1] / (beta[i] * v[i])
        x_up[i] = min(crit[i], pull)
    return x_up


def choose_terminal_weights(l: np.ndarray, params: FreewayParams) -> np.ndarray:
    """Minimal mainline terminal weights certifying the cost decrease.

    Inside the terminal box with metering equal to arrivals, holding one
    extra vehicle in cell i costs l_i / v_i per residence step and then
    beta_i times the same accounting one cell downstream, so the minimal
    weights satisfy v_i * (b_i - beta_i * b_{i+1}) = l_i, solved backward
    from b_I = l_I / v_I. Used as the demand slack weight d as well, they
    make the arrival terms on both sides of the decrease inequality cancel.

    l is the stacked running-cost vector (length 2I); only its mainline
    entries enter the weights.
    """
    l = np.asarray(l, dtype=float)
    n = params.n_cells
    if l.shape[0] != 2 * n:
        raise ValueError(f"expected {2 * n} cost entries, got {l.shape[0]}")
    l = l[:n]
    if np.any(l <= 0.0):
        raise ValueError("running-cost weights must be positive")
    b = np.empty(n)
    b[-1] = l[-1] / params.v[-1]
    for i in range(n - 2, -1, -1):
        b[i] = l[i] / params.v[i] + params.beta[i] * b[i + 1]
    return b


def _finite_cap(bounds: ParamBounds) -> np.ndarray:
    return np.minimum(bounds.upper.x_jam, bounds.lower.x_jam)


def terminal_lyapunov_check(
    terminal: TerminalSet,
    cost_spec: CostSpec,
    demand_bounds: DemandBounds,
    param_bounds: ParamBounds,
    u_candidate: np.ndarray,
    samples: int,
    *,
    seed: int = 0,
    tol: float = 1e-9,
    queue_probe: float = 50.0,
) -> TerminalCheckReport:
    """Audit the terminal box: cost decrease and invariance under u_candidate.

    Samples lifted states inside the box (deterministic corners first,
    then uniform draws), rolls the tube one step, and records the worst
    value of b*F_up - b*x_up + l*x_up - d*lambda together with the worst
    excursion of the successor tube outside the box. The demand corner
    that maximises the residual is chosen per ramp (the dependence is
    affine), so point demand is audited exactly. Queue coordinates with
    an infinite cap are probed up to ``queue_probe``.
    """
    if samples < 1:
        raise ValueError("sample budget must be at least 1")
    n = param_bounds.upper.n_cells
    xf = terminal.x_f
    if xf.shape[0] != 2 * n:
        raise ValueError("terminal bound length disagrees with the parameters")
    u_candidate = np.asarray(u_candidate, dtype=float)
    jam = _finite_cap(param_bounds)
    cap = np.where(
        np.isfinite(xf),
        np.minimum(xf, np.concatenate([jam, np.full(n, np.inf)])),
        np.concatenate([jam, np.full(n, queue_probe)]),
    )

    lam_up = np.asarray(demand_bounds.upper, dtype=float)
    lam_lo = np.asarray(demand_bounds.lower, dtype=float)
    b = cost_spec.b
    l = cost_spec.l
    d = cost_spec.d
    # per ramp, the residual is affine in the arrival rate with slope
    # b[n:] - d, so the adverse corner is picked coordinatewise
    lam_adverse = np.where(b[n:] >= d, lam_up, lam_lo)
    adverse_box = DemandBounds(upper=lam_adverse, lower=lam_adverse)
    finite = np.isfinite(xf)

    probes: list[tuple[np.ndarray, np.ndarray]] = []
    zero = np.zeros(2 * n)
    probes.append((zero, zero))
    probes.append((cap.copy(), cap.copy()))
    probes.append((cap.copy(), zero))
    for j in range(2 * n):
        corner = np.zeros(2 * n)
        corner[j] = cap[j]
        probes.append((corner, corner.copy()))
        probes.append((corner, zero))
    rng = np.random.default_rng(seed)
    states: list[tuple[np.ndarray, np.ndarray]] = probes[:samples]
    while len(states) < samples:
        hi = rng.uniform(0.0, cap)
        lo = rng.uniform(0.0, hi)
        states.append((hi, lo))

    worst_res = -math.inf
    worst_exit = -math.inf
    worst_state = None
    for hi, lo in states:
        cell = LiftedState(upper=hi, lower=lo)
        stepped = lifted_step(cell, u_candidate, demand_bounds, param_bounds)
        res_step = lifted_step(cell, u_candidate, adverse_box, param_bounds)
        residual = float(
            b @ res_step.upper - b @ hi + l @ hi - d @ lam_adverse
        )
        exit_hi = np.max((stepped.upper - xf)[finite], initial=-math.inf)
        exit_lo = float(np.max(-stepped.lower, initial=-math.inf))
        excursion = max(float(exit_hi), exit_lo)
        if residual > worst_res or (residual == worst_res and excursion > worst_exit):
            worst_state = np.stack([hi, lo])
        worst_res = max(worst_res, residual)
        worst_exit = max(worst_exit, excursion)

    return TerminalCheckReport(
        worst_residual=worst_res,
        worst_exit=worst_exit,
        samples=len(states),
        passed=bool(worst_res <= tol and worst_exit <= tol),
        worst_state=worst_state,
    )


@dataclass(frozen=True)
class _Comp:
    """One tube component: its raising and lowering parameter sets."""

    tag: str
    prim: FreewayParams
    sec: FreewayParams
    lam: np.ndarray
    x0: np.ndarray

    def flows(self, x, z, u) -> _TubeFlows:
        """The tube kernel at own state x and other-component state z."""
        return _tube_flows(x, z, u, self.lam, self.prim, self.sec)


# the columns of one side's stage auxiliaries: the no-drop flag as "drop",
# the sending and realized flows, and the selectors of their two minima
_KEYS = ("drop", "d", "dmin", "f", "fmin")


def _labels(side: str, tag: str, k: int, i: int) -> dict[str, str]:
    """Column and gadget names of one side's stage-k auxiliaries of cell i."""
    return {key: f"{key}.{side}.{tag}[{k}][{i}]" for key in _KEYS}


def _stage_ranges(comp: _Comp, own, oth, merge: bool):
    """Interval bounds of one component's stage columns and terms, per side.

    own and oth are the (lower, upper) boxes of this component's stacked
    state and of the other component's. Every term but the outflow sending
    flow is monotone in the one occupancy it reads, so the kernel at the
    low corner (own state low, other state high) and at the high corner
    gives both ends; the realized flows combine the ranges of their two
    terms. Returns (out, merge) dicts of (lower, upper) pairs keyed like
    the kernel's fields, plus the drop threshold under "thr"; without
    merge columns the merge dict only carries the flow the outflow side
    feeds downstream.
    """
    lo = comp.flows(own[0], oth[1], 0.0)
    hi = comp.flows(own[1], oth[0], 0.0)
    n = own[0].shape[0] // 2
    at_thr = own[0].copy()
    at_thr[:n] = np.clip(lo.out.thr, own[0][:n], own[1][:n])
    peak = comp.flows(at_thr, oth[1], 0.0).out.d
    # The outflow sending flow reads its own occupancy twice: it follows
    # the speed line up to the drop threshold, falls there and never falls
    # again, so its maximum sits at the clipped threshold or at an end. Its
    # minimum sits at an end too: just above the threshold the flow either
    # equals the dropped ceiling, as at xub, or lies on the speed line
    # above its value at xlb.
    d = (np.minimum(lo.out.d, hi.out.d),
         np.maximum(np.maximum(lo.out.d, hi.out.d), peak))
    s = (hi.out.s, lo.out.s)
    f = (d[0].copy(), d[1].copy())
    for f_end, d_end, s_end in zip(f, d, s):
        f_end[:-1] = np.minimum(d_end[:-1], s_end)
    out = {"thr": lo.out.thr, "vx": (lo.out.vx, hi.out.vx),
           "xi": (hi.out.xi, lo.out.xi), "d": d, "s": s, "f": f}
    if not merge:
        return out, {"f": (f[0][:-1], f[1][:-1])}
    d = (lo.merge.d, hi.merge.d)
    s = (hi.merge.s, lo.merge.s)
    return out, {"thr": lo.merge.thr, "vx": (lo.merge.vx, hi.merge.vx),
                 "xi": (lo.merge.xi, hi.merge.xi), "d": d, "s": s,
                 "f": (np.minimum(d[0], s[0]), np.minimum(d[1], s[1]))}


def _finalize(prop_lb, prop_ub, limit_ub):
    """Intersect propagated bounds with the constraint box, never emptying.

    The propagated interval is implied by the rows, so dropping it on a
    conflict only loosens the relaxation; the constraint side always
    stays, which is what lets an unreachable terminal surface as solver
    infeasibility instead of a build-time error.
    """
    lb = np.maximum(prop_lb, 0.0)
    ub = np.minimum(prop_ub, limit_ub)
    bad = lb > ub + 1e-12
    lb = np.where(bad, 0.0, lb)
    ub = np.where(bad, limit_ub, ub)
    return lb, ub


def _validate_inputs(xhat, demand, bounds, config, terminal, n):
    if config.cost.l.shape[0] != 2 * n:
        raise ValueError("cost weight length disagrees with the cell count")
    if terminal.x_f.shape[0] != 2 * n:
        raise ValueError("terminal bound length disagrees with the cell count")
    up = np.asarray(xhat.upper, dtype=float)
    lo = np.asarray(xhat.lower, dtype=float)
    if up.shape != (2 * n,) or lo.shape != (2 * n,):
        raise ValueError("state box must be a stacked vector pair")
    if np.any(lo > up + _BOUND_TOL):
        raise ValueError("state box is inverted")
    if np.any(lo < -_BOUND_TOL):
        raise ValueError("state box dips below zero")
    jam = bounds.upper.x_jam
    if np.any(lo[:n] > jam + _BOUND_TOL):
        raise ValueError("state box lies above jam occupancy")
    lam_up = np.asarray(demand.upper, dtype=float)
    lam_lo = np.asarray(demand.lower, dtype=float)
    if lam_up.shape != (n,) or lam_lo.shape != (n,):
        raise ValueError("demand box must have one entry per ramp")
    if np.any(lam_lo < -_BOUND_TOL) or np.any(lam_lo > lam_up + _BOUND_TOL):
        raise ValueError("demand box is invalid")


class _Problem(NamedTuple):
    """Encoded horizon problem, its (T, I) control columns and its codec."""

    model: milp.MilpModel
    u: np.ndarray
    encode: Callable
    decode: Callable


def _scatter(vec: np.ndarray, ids: dict, k: int, side: _Side) -> None:
    """Write one side's kernel intermediates into its stage-k columns."""
    m = ids["fmin"].shape[1]
    vec[ids["drop"][k]] = side.keep
    vec[ids["d"][k]] = side.d
    vec[ids["dmin"][k]] = side.vx <= side.xi
    vec[ids["f"][k, :m]] = side.f[:m]
    vec[ids["fmin"][k]] = side.d[:m] <= side.s


def _assemble(xhat, demand, bounds, config, terminal, *, reduced):
    """Encode the horizon problem over a box with one jam profile.

    Feasibility is left to the solver. ``reduced`` selects the single-component encoding, which
    is exact only on point boxes.
    """
    p_up, p_lo = bounds.upper, bounds.lower
    n = p_up.n_cells
    t = config.horizon
    _validate_inputs(xhat, demand, bounds, config, terminal, n)
    jam = p_up.x_jam
    box_ub = np.concatenate([jam, np.full(n, np.inf)])
    x_hi = np.minimum(np.maximum(np.asarray(xhat.upper, float), 0.0), box_ub)
    x_lo = np.minimum(np.maximum(np.asarray(xhat.lower, float), 0.0), box_ub)
    x_lo = np.minimum(x_lo, x_hi)
    lam_up = np.asarray(demand.upper, dtype=float)
    lam_lo = np.maximum(np.asarray(demand.lower, dtype=float), 0.0)

    if reduced:
        comps = (_Comp("m", p_up, p_up, lam_up, x_hi),)
    else:
        comps = (
            _Comp("up", p_up, p_lo, lam_up, x_hi),
            _Comp("lo", p_lo, p_up, lam_lo, x_lo),
        )
    low_idx = len(comps) - 1
    merge = not reduced
    u_hw = np.minimum(p_up.u_max, p_lo.u_max)

    # ---- forward interval propagation -------------------------------
    blb = [np.empty((t + 1, 2 * n)) for _ in comps]
    bub = [np.empty((t + 1, 2 * n)) for _ in comps]
    for c, comp in enumerate(comps):
        blb[c][0] = comp.x0
        bub[c][0] = comp.x0
    ucap = np.empty((t, n))
    limit_last = np.minimum(box_ub, terminal.x_f)

    ranges = []  # per stage, per component: the _stage_ranges pair

    for k in range(t):
        ucap[k] = np.minimum(u_hw, bub[low_idx][k][n:] + lam_lo)
        # the other component of c is low_idx-c, itself when there is one
        ranges.append([
            _stage_ranges(comp, (blb[c][k], bub[c][k]),
                          (blb[low_idx - c][k], bub[low_idx - c][k]), merge)
            for c, comp in enumerate(comps)
        ])
        limit = limit_last if k + 1 == t else box_ub
        for c, comp in enumerate(comps):
            r_out, r_merge = ranges[k][c]
            beta = comp.prim.beta
            inc_lb = np.zeros(n)
            inc_ub = ucap[k].copy()
            inc_lb[1:] += beta * r_merge["f"][0]
            inc_ub[1:] += beta * r_merge["f"][1]
            m_lb = blb[c][k][:n] + inc_lb - r_out["f"][1]
            m_ub = bub[c][k][:n] + inc_ub - r_out["f"][0]
            q_lb = blb[c][k][n:] + comp.lam - ucap[k]
            q_ub = bub[c][k][n:] + comp.lam
            plb = np.concatenate([m_lb, q_lb])
            pub = np.concatenate([m_ub, q_ub])
            blb[c][k + 1], bub[c][k + 1] = _finalize(plb, pub, limit)

    # ---- columns and rows --------------------------------------------
    bld = milp.ModelBuilder(name=f"meter{t}")

    # stacked-state columns per component, mainline then queues; only the
    # upper component is costed
    xs = tuple(np.empty((t + 1, 2 * n), dtype=np.int64) for _ in comps)
    for k in range(t + 1):
        weight = config.cost.l if k < t else config.cost.b
        for c, comp in enumerate(comps):
            for j in range(2 * n):
                xs[c][k, j] = bld.add_variable(
                    f"{'xq'[j // n]}.{comp.tag}[{k}][{j % n}]",
                    lower=blb[c][k, j],
                    upper=bub[c][k, j],
                    objective=weight[j] if c == 0 else 0.0,
                )
    u_ids = np.empty((t, n), dtype=np.int64)
    for k in range(t):
        for i in range(n):
            u_ids[k, i] = bld.add_variable(
                f"u[{k}][{i}]", lower=0.0, upper=ucap[k, i]
            )

    # column ids per component and side, keyed like _KEYS; the outflow
    # side's last realized flow is its sending flow (no cell downstream)
    def side_ids(cells, short):
        return {key: np.empty((t, cells - (key in short)), dtype=np.int64)
                for key in _KEYS}

    cols = [{"out": side_ids(n, ("fmin",)), "merge": side_ids(n - 1, ())}
            for _ in comps]

    def term(rng, key, i, col, coef, const=0.0):
        """coef * x[col] + const with cell i's declared range under key."""
        return milp.Term(col, float(coef), float(const),
                         float(rng[key][0][i]), float(rng[key][1][i]))

    def add_aux(ids, rng, key, k, i, at):
        ids[key][k, i] = bld.add_variable(
            at[key], lower=rng[key][0][i], upper=rng[key][1][i])
        return int(ids[key][k, i])

    def sending(ids, rng, p, at, k, i, x_col, z_col):
        """Sending flow of cell i: the speed line against the ceiling."""
        ids["drop"][k, i] = drop = milp.encode_capacity_drop(
            bld, z_col, float(rng["thr"][i]), name=at["drop"])
        cap, alpha = p.c_max[i], p.alpha[i]
        d = add_aux(ids, rng, "d", k, i, at)
        ids["dmin"][k, i] = milp.encode_min_equality(
            bld, d, term(rng, "vx", i, x_col, p.v[i]),
            term(rng, "xi", i, drop, (1.0 - alpha) * cap, alpha * cap),
            name=at["dmin"])

    def receiving(ids, rng, p, beta, at, k, i, x_down):
        """Realized flow into cell i+1: sending against receiving flow."""
        coef = p.w[i + 1] / beta[i]
        s = term(rng, "s", i, x_down, -coef, coef * jam[i + 1])
        f = add_aux(ids, rng, "f", k, i, at)
        d = term(rng, "d", i, int(ids["d"][k, i]), 1.0)
        ids["fmin"][k, i] = milp.encode_min_equality(bld, f, d, s,
                                                     name=at["fmin"])

    for k in range(t):
        for c, comp in enumerate(comps):
            r_out, r_merge = ranges[k][c]
            tag = comp.tag
            prim, sec = comp.prim, comp.sec
            out, mrg = cols[c]["out"], cols[c]["merge"]
            xo_k = xs[c][k, :n]
            xn_k = xs[c][k + 1, :n]
            zo_k = xs[low_idx - c][k, :n]
            for i in range(n):
                sending(out, r_out, sec, _labels("out", tag, k, i), k, i,
                        int(xo_k[i]), int(xo_k[i]))
            for i in range(n - 1):
                receiving(out, r_out, sec, prim.beta,
                          _labels("out", tag, k, i), k, i,
                          int(xo_k[i + 1]))
            out["f"][k, n - 1] = out["d"][k, n - 1]
            if merge:
                for i in range(n - 1):
                    at = _labels("merge", tag, k, i)
                    sending(mrg, r_merge, prim, at, k, i,
                            int(xo_k[i]), int(zo_k[i]))
                    receiving(mrg, r_merge, prim, prim.beta, at, k, i,
                              int(xo_k[i + 1]))
            else:
                mrg["f"][k] = out["f"][k, : n - 1]
            # conservation across the stage boundary
            for i in range(n):
                coeffs = {
                    int(xn_k[i]): 1.0,
                    int(xo_k[i]): -1.0,
                    int(u_ids[k, i]): -1.0,
                    int(out["f"][k, i]): 1.0,
                }
                if i:
                    fid = int(mrg["f"][k, i - 1])
                    coeffs[fid] = coeffs.get(fid, 0.0) - prim.beta[i - 1]
                bld.add_row(coeffs, "E", 0.0, f"dyn.x.{tag}[{k}][{i}]")
                bld.add_row(
                    {
                        int(xs[c][k + 1, n + i]): 1.0,
                        int(xs[c][k, n + i]): -1.0,
                        int(u_ids[k, i]): 1.0,
                    },
                    "E", float(comp.lam[i]), f"dyn.q.{tag}[{k}][{i}]",
                )

    bld.fix_decided()
    model = bld.build()

    def encode(u_seq):
        """Roll the tube under a clipped metering plan into a column vector,
        unchecked: ``milp.solve_milp`` verifies every candidate it gets."""
        u_seq = np.asarray(u_seq, dtype=float).reshape(t, n)
        vec = np.zeros(model.lp.n_cols)
        state = [comp.x0 for comp in comps]
        for ids, x0 in zip(xs, state):
            vec[ids[0]] = x0
        for k in range(t):
            avail = state[low_idx][n:] + lam_lo
            u_k = np.clip(u_seq[k], 0.0, np.minimum(ucap[k], avail))
            vec[u_ids[k]] = u_k
            flows = [comp.flows(state[c], state[low_idx - c], u_k)
                     for c, comp in enumerate(comps)]
            for c, flow in enumerate(flows):
                _scatter(vec, cols[c]["out"], k, flow.out)
                if merge:
                    _scatter(vec, cols[c]["merge"], k, flow.merge)
                vec[xs[c][k + 1]] = flow.next
            state = [flow.next for flow in flows]
        return vec

    def decode(x):
        x = np.asarray(x)
        return x[u_ids], x[xs[0]], x[xs[low_idx]]

    return _Problem(model, u_ids, encode, decode)


def _incumbent_hook(prob: _Problem) -> Callable:
    """One search's incumbent hook: the rollout of a node relaxation's
    controls, or ``None`` for controls an earlier node already offered,
    whose rollout cannot improve the incumbent again."""
    tried = set()

    def hook(x_lp):
        u_seq = np.asarray(x_lp)[prob.u]
        key = u_seq.tobytes()
        if key in tried:
            return None
        tried.add(key)
        return prob.encode(u_seq)

    return hook


def solve_mpc(
    xhat: LiftedState,
    demand_bounds: DemandBounds,
    param_bounds: ParamBounds,
    config: MpcConfig,
    terminal: TerminalSet,
    *,
    budget: milp.MilpBudget,
) -> MpcResult:
    """Plan over the horizon and return the first control with the value.

    The planner owns two conventions. It plans on one jam profile, the
    upper end of the jam interval: the receiving-flow rows need a single
    jam value per cell to stay affine, and the upper end keeps every
    admissible merge admissible in the plan. And it picks the encoding:
    when the state box, demand box and (pinned) parameter box are all
    degenerate the two tube components coincide, and a single-component
    encoding (half the columns, half the binaries) is solved instead, its
    decoded trajectories shared between the tube sides. The result is
    always an optimal plan: an infeasible horizon raises
    ``InfeasibleProblem``, and a solver budget overrun raises
    ``SolveBudgetExceeded`` carrying the incumbent diagnostics.
    """
    bounds = ParamBounds(param_bounds.upper,
                         replace(param_bounds.lower, x_jam=param_bounds.upper.x_jam))
    reduced = (
        np.array_equal(np.asarray(xhat.upper), np.asarray(xhat.lower))
        and np.array_equal(
            np.asarray(demand_bounds.upper), np.asarray(demand_bounds.lower)
        )
        and bounds.is_point
    )
    prob = _assemble(
        xhat, demand_bounds, bounds, config, terminal, reduced=reduced
    )
    t = config.horizon
    track = np.tile(np.asarray(demand_bounds.upper, dtype=float), (t, 1))

    sol = milp.solve_milp(
        prob.model,
        budget=budget,
        incumbent_hook=_incumbent_hook(prob),
        initial_candidates=[prob.encode(s) for s in (track, np.zeros_like(track))],
    )
    if sol.status == milp.OPTIMAL:
        controls, upper, lower = prob.decode(sol.x)
        return MpcResult(
            u=controls[0].copy(),
            value=float(sol.objective),
            controls=controls,
            upper=upper,
            lower=lower,
            reduced=reduced,
            solution=sol,
        )
    if sol.status == milp.INFEASIBLE:
        raise InfeasibleProblem(
            f"no horizon-{t} plan reaches the terminal box from the given "
            f"state box (explored {sol.nodes} nodes)"
        )
    have = "no incumbent" if not np.isfinite(sol.objective) else (
        f"incumbent {sol.objective:.6g}, bound {sol.bound:.6g}"
    )
    raise SolveBudgetExceeded(
        f"node budget exhausted after {sol.nodes} nodes ({have})", sol
    )
