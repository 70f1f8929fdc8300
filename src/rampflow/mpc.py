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

The model's shape is fixed by the horizon, the cell count and the encoding.
``_layout`` builds, on the first plan of each shape, what does not depend
on the numbers: the column, row and gadget names, the final position of
every column and row, and the codec's column indices. Every plan adds
each group of columns, rows and gadgets over every stage, component and
cell in one array call of the builder, with the numbers of that plan: the
propagated bounds, the costs, the term ranges with their big-M constants,
the right-hand sides and the decided selectors. A group joins the same
columns on every plan of a shape; only an entry whose coefficient comes
out exactly zero is left out. The layout puts every column and row where
a cell-by-cell encoding writes it: stage by stage, the upper component
before the lower, and each cell's gadget columns and rows together. That
order is part of the contract, not a convenience: branch and bound
branches on the pseudocost score the tree learns (the most fractional
binary until any child has solved) and the simplex prices by Dantzig's
rule, both breaking ties by the lowest column index, so a reordered model
can search a different tree and return a different plan.

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
box is a point and the two-component tube otherwise. The single-component
encoding is its own model, not the two-component one with its components
merged. Its outflow min reads the cell's drop binary as its selector: on a
point box the drop compares the occupancy with c_max / v of the set whose
v draws the speed line, so the drop decides the min (speed line at or below
the threshold, where v*x <= c_max, the dropped ceiling alpha*c_max above
it), and the tie removes no value of a continuous column. In the
two-component encoding the outflow threshold reads the primary set's v and
the speed line the secondary's, so there the min keeps a selector of its
own.

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
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import milp
from .ctm import FreewayParams, equilibrium_uncongested
from .embedding import (
    DemandBounds,
    LiftedState,
    ParamBounds,
    _stacked,
    _Terms,
    _tube_flows,
    lifted_step,
)

_BOUND_TOL = 1e-9


class InfeasibleProblem(RuntimeError):
    """The horizon problem admits no plan."""


class SolveBudgetExceeded(RuntimeError):
    """Branch and bound hit its node budget before proving optimality."""


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
    """A plan: the decoded controls and tube trajectories, whether the
    single-component encoding was solved, and the solver's result.

    The loop executes ``controls[0]``; ``solution.objective`` is the plan's
    value and ``solution.root_basis`` warms the next plan's root.
    """

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
    pair = param_bounds.pair
    for hi, lo in states:
        cell = LiftedState(upper=hi, lower=lo)
        stepped = lifted_step(cell, u_candidate, demand_bounds, pair)
        res_step = lifted_step(cell, u_candidate, adverse_box, pair)
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


def _stage_ranges(terms: _Terms, lam, own, oth, merge: bool):
    """Interval bounds of the components' stage columns and terms, per side.

    terms are the kernel's terms of the components' (primary, secondary)
    pair (``_Pair.terms``) and lam the components' arrivals, any leading
    axes stacking components. own and oth are the (lower, upper) boxes of
    the components' stacked states and of the other components'. Every
    term but the outflow sending flow is monotone in the one occupancy it
    reads, so the kernel at the low corner (own state low, other state
    high) and at the high corner gives both ends; the realized flows
    combine the ranges of their two terms. Both corners and the outflow's
    peak go through one kernel call. Returns (out, merge) dicts of (lower,
    upper) pairs keyed like the kernel's fields, plus the drop threshold
    under "thr"; without merge columns the merge dict only carries the flow
    the outflow side feeds downstream.
    """
    n = own[0].shape[-1] // 2
    thr = terms.thr[..., 0, :]  # the outflow's drop threshold, as the kernel reads it
    at_thr = own[0].copy()
    at_thr[..., :n] = np.clip(thr, own[0][..., :n], own[1][..., :n])
    corners = _tube_flows(np.array([own[0], own[1], at_thr]),
                          np.array([oth[1], oth[0], oth[1]]), 0.0, lam, terms)
    o, g = corners.out, corners.merge
    # The outflow sending flow reads its own occupancy twice: it follows
    # the speed line up to the drop threshold, falls there and never falls
    # again, so its maximum sits at the clipped threshold or at an end. Its
    # minimum sits at an end too: just above the threshold the flow either
    # equals the dropped ceiling, as at xub, or lies on the speed line
    # above its value at xlb.
    d = (np.minimum(o.d[0], o.d[1]), np.maximum(np.maximum(o.d[0], o.d[1]), o.d[2]))
    s = (o.s[1], o.s[0])
    f = (d[0].copy(), d[1].copy())
    for f_end, d_end, s_end in zip(f, d, s):
        f_end[..., :-1] = np.minimum(d_end[..., :-1], s_end)
    out = {"thr": thr, "vx": (o.vx[0], o.vx[1]), "xi": (o.xi[1], o.xi[0]),
           "d": d, "s": s, "f": f}
    if not merge:
        return out, {"f": (f[0][..., :-1], f[1][..., :-1])}
    d = (g.d[0], g.d[1])
    s = (g.s[1], g.s[0])
    return out, {"thr": g.thr, "vx": (g.vx[0], g.vx[1]), "xi": (g.xi[0], g.xi[1]),
                 "d": d, "s": s, "f": (np.minimum(d[0], s[0]), np.minimum(d[1], s[1]))}


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


# the stage columns of one side: the no-drop flag as "drop", the sending and
# realized flows, and the selectors of their two minima (the single-component
# outflow has no "dmin": its min reads "drop")
_KEYS = ("drop", "d", "dmin", "f", "fmin")


class _Layout(NamedTuple):
    """What the horizon model of one shape fixes before any number is known.

    ``names`` holds the names the builder is handed per group: "x", "u",
    the conservation rows "dyn.x" and "dyn.q", and (side, key) for the
    stage columns and the gadget tags. ``order`` gives the final position
    of each column and row in the order ``_assemble`` adds them. ``x``
    (T+1, C, 2I), ``u`` (T, I) and ``cols[side, key]`` (T, C, cells) are
    final column indices; every array is read-only, since each plan of the
    shape shares them. The single-component layout has no ``("out",
    "dmin")`` column, but its names keep the gadget's tag, which names the
    min's four rows.
    """

    names: dict
    order: tuple
    x: np.ndarray
    u: np.ndarray
    cols: dict


@lru_cache(maxsize=8)
def _layout(t: int, n: int, reduced: bool) -> _Layout:
    """The layout of the horizon-t model over n cells, built on first use.

    ``reduced`` is the single-component layout: one component, no merge
    side, and no selector column for the outflow min, whose four rows stay
    in place and read the drop binary. The two-component layout is the
    cell-by-cell encoding's, selector columns included."""
    tags = ("m",) if reduced else ("up", "lo")
    sides = ("out",) if reduced else ("out", "merge")
    c_n = len(tags)
    # One block of columns and one of rows per stage and component, after
    # the states and controls. Within a block, runs of cells; each cell of
    # a run has its columns and rows together: (side, cells, column keys,
    # (row group, rows per cell) pairs).
    runs = [("out", n, ("drop", "d") if reduced else ("drop", "d", "dmin"),
             (("drop", 2), ("dmin", 4))),
            ("out", n - 1, ("f", "fmin"), (("fmin", 4),))]
    if not reduced:
        runs.append(("merge", n - 1, _KEYS, (("drop", 2), ("dmin", 4), ("fmin", 4))))
    runs.append(("dyn", n, (), (("x", 1), ("q", 1))))
    width = sum(cells * len(keys) for _, cells, keys, _ in runs)
    height = sum(cells * sum(c for _, c in rows) for _, cells, _, rows in runs)
    block = (np.arange(t)[:, None] * c_n + np.arange(c_n))[..., None]  # (t, C, 1)
    n_state = (t + 1) * c_n * 2 * n
    col0, row0 = n_state + t * n + block * width, block * height
    cols, rows = {}, {}
    for side, cells, keys, row_groups in runs:
        cell = np.arange(cells)
        for j, key in enumerate(keys):
            cols[side, key] = col0 + len(keys) * cell + j
        per_cell, first = sum(c for _, c in row_groups), 0
        for group, count in row_groups:
            rows[side, group] = (row0 + per_cell * cell + first)[..., None] + np.arange(count)
            first += count
        col0 = col0 + len(keys) * cells
        row0 = row0 + per_cell * cells
    names = {
        "x": tuple(f"{'xq'[j // n]}.{tag}[{k}][{j % n}]"
                   for k in range(t + 1) for tag in tags for j in range(2 * n)),
        "u": tuple(f"u[{k}][{i}]" for k in range(t) for i in range(n)),
    }
    # the gadget runs' column names and the tags that name their gadgets'
    # rows (the conservation run, last, is named below)
    for side, cells, keys, row_groups in runs[:-1]:
        for key in (*keys, *(group for group, _ in row_groups)):
            names[side, key] = tuple(f"{key}.{side}.{tag}[{k}][{i}]" for k in range(t)
                                     for tag in tags for i in range(cells))
    for group in ("x", "q"):
        names[f"dyn.{group}"] = tuple(f"dyn.{group}.{tag}[{k}][{i}]" for k in range(t)
                                      for tag in tags for i in range(n))
    # the order _assemble adds the groups in
    col_at = [np.arange(n_state + t * n)] + [cols[side, key] for side in sides
                                              for key in _KEYS if (side, key) in cols]
    row_at = [rows[side, group] for side in sides for group in ("drop", "dmin", "fmin")]
    row_at += [rows["dyn", "x"], rows["dyn", "q"]]
    layout = _Layout(names, tuple(np.concatenate([a.ravel() for a in at])
                                  for at in (col_at, row_at)),
                     np.arange(n_state).reshape(t + 1, c_n, 2 * n),
                     n_state + np.arange(t * n).reshape(t, n),
                     cols)
    for arr in (*layout.order, layout.x, layout.u, *layout.cols.values()):
        arr.setflags(write=False)
    return layout


def _assemble(xhat, demand, bounds, config, terminal, *, reduced):
    """Encode the horizon problem over a box with one jam profile.

    Feasibility is left to the solver. ``reduced`` selects the
    single-component encoding, which is exact only on point boxes; its
    outflow min takes the drop binary as selector (``z`` of
    ``milp.encode_min_equality``) and the codec writes no column for it.
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

    # the components on a leading axis, the lower one last
    if reduced:
        pair, lam, x0 = _stacked(p_up), lam_up[None], x_hi[None]
    else:
        pair, lam, x0 = _stacked(p_up, p_lo), np.array([lam_up, lam_lo]), np.array([x_hi, x_lo])
    c_n = x0.shape[0]
    merge = not reduced
    u_hw = np.minimum(p_up.u_max, p_lo.u_max)
    beta = pair.primary.beta

    # ---- forward interval propagation -------------------------------
    blb = np.empty((t + 1, c_n, 2 * n))
    bub = np.empty((t + 1, c_n, 2 * n))
    blb[0] = bub[0] = x0
    ucap = np.empty((t, n))
    limit_last = np.minimum(box_ub, terminal.x_f)
    for k in range(t):
        lo, hi = blb[k], bub[k]
        ucap[k] = np.minimum(u_hw, hi[-1, n:] + lam_lo)
        # each component's other one is the reversed stack, itself when alone
        r_out, r_merge = _stage_ranges(pair.terms, lam, (lo, hi), (lo[::-1], hi[::-1]), merge)
        inc_lb = np.zeros((c_n, n))
        inc_ub = np.empty((c_n, n))
        inc_ub[:] = ucap[k]
        inc_lb[:, 1:] += beta * r_merge["f"][0]
        inc_ub[:, 1:] += beta * r_merge["f"][1]
        plb, pub = np.empty((2, c_n, 2 * n))
        plb[:, :n] = lo[:, :n] + inc_lb - r_out["f"][1]
        plb[:, n:] = lo[:, n:] + lam - ucap[k]
        pub[:, :n] = hi[:, :n] + inc_ub - r_out["f"][0]
        pub[:, n:] = hi[:, n:] + lam
        blb[k + 1], bub[k + 1] = _finalize(plb, pub, limit_last if k + 1 == t else box_ub)

    # ---- columns and rows, each group over every stage ----------------
    # the ranges of every stage at once, elementwise as each stage's were
    ranges = dict(zip(("out", "merge"), _stage_ranges(
        pair.terms, lam, (blb[:t], bub[:t]), (blb[:t, ::-1], bub[:t, ::-1]), merge)))
    lay = _layout(t, n, reduced)
    bld = milp.ModelBuilder(name=f"meter{t}")
    obj = np.zeros((t + 1, c_n, 2 * n))  # only the upper component is costed
    obj[:t, 0] = config.cost.l
    obj[t, 0] = config.cost.b
    xs = bld.add_variable(lay.names["x"], lower=blb.ravel(), upper=bub.ravel(),
                          objective=obj.ravel()).reshape(t + 1, c_n, 2 * n)
    u_ids = bld.add_variable(lay.names["u"], lower=0.0, upper=ucap.ravel()).reshape(t, n)
    own = xs[:t, :, :n]
    ids = {}
    # per side, the groups drop, d, dmin, f and fmin, in the order the
    # layout places them; the single-component min reads its drop as selector
    for side, p in (("out", pair.secondary), ("merge", pair.primary))[:1 + merge]:
        rng, names = ranges[side], {key: lay.names[side, key] for key in _KEYS}
        cells = rng["d"][0].shape[-1]
        # the ceiling reads the own occupancy on the outflow side, the other
        # component's on the merge side
        reads = own if side == "out" else xs[:t, ::-1, :cells]
        drop = milp.encode_capacity_drop(bld, reads, rng["thr"], name=names["drop"])
        d = bld.add_variable(names["d"], lower=rng["d"][0], upper=rng["d"][1])
        d = d.reshape(drop.shape)
        cap, alpha = p.c_max[:, :cells], p.alpha[:, :cells]
        milp.encode_min_equality(
            bld, d, milp.Term(own[..., :cells], p.v[:, :cells], 0.0, *rng["vx"]),
            milp.Term(drop, (1.0 - alpha) * cap, alpha * cap, *rng["xi"]),
            z=drop if reduced else None, name=names["dmin"])
        f = bld.add_variable(names["f"], lower=rng["f"][0][..., :n - 1],
                             upper=rng["f"][1][..., :n - 1]).reshape(t, c_n, n - 1)
        coef = p.w[:, 1:] / beta
        milp.encode_min_equality(
            bld, f, milp.Term(d[..., :n - 1], 1.0, 0.0, *(e[..., :n - 1] for e in rng["d"])),
            milp.Term(own[..., 1:], -coef, coef * jam[1:], *rng["s"]), name=names["fmin"])
        ids[side] = d, f
    # conservation across the stage boundary; the outflow side's last
    # realized flow is its sending flow (no cell downstream), and the merge
    # into cell i + 1 is the outflow of cell i without merge columns
    (d_out, f_out), (_, f_in) = ids["out"], ids["merge" if merge else "out"]
    shape = (t, c_n, n)
    u_all = np.broadcast_to(u_ids[:, None], shape)
    bld.add_row([(xs[1:, :, :n], 1.0), (own, -1.0), (u_all, -1.0),
                 (np.concatenate([f_out, d_out[..., -1:]], axis=-1), 1.0),
                 # cell 0 has no merge: a zero coefficient, which adds no entry
                 (np.concatenate([own[..., :1], f_in], axis=-1),
                  np.broadcast_to(np.concatenate([np.zeros((c_n, 1)), -beta], axis=-1), shape))],
                "E", 0.0, lay.names["dyn.x"])
    bld.add_row([(xs[1:, :, n:], 1.0), (xs[:t, :, n:], -1.0), (u_all, 1.0)],
                "E", np.broadcast_to(lam, shape), lay.names["dyn.q"])
    bld.fix_decided()
    model = bld.build(order=lay.order)

    # each stage column's value from the kernel's flows of its side
    value = {"drop": lambda at: at.keep, "d": lambda at: at.d,
             "dmin": lambda at: at.vx <= at.xi, "f": lambda at: at.f[..., :n - 1],
             "fmin": lambda at: at.d[..., :n - 1] <= at.s}

    def encode(u_seq):
        """Roll the tube under a clipped metering plan into a column vector,
        unchecked: ``milp.solve_milp`` verifies every candidate it gets."""
        u_seq = np.asarray(u_seq, dtype=float).reshape(t, n)
        vec = np.zeros(model.lp.n_cols)
        state = x0
        vec[lay.x[0]] = state
        for k in range(t):
            u_k = np.clip(u_seq[k], 0.0, np.minimum(ucap[k], state[-1, n:] + lam_lo))
            flows = _tube_flows(state, state[::-1], u_k, lam, pair.terms)
            vec[lay.u[k]] = u_k
            for (side, key), at in lay.cols.items():
                vec[at[k]] = value[key](getattr(flows, side))
            state = flows.next
            vec[lay.x[k + 1]] = state
        return vec

    def decode(x):
        x = np.asarray(x)
        return x[lay.u], x[lay.x[:, 0]], x[lay.x[:, -1]]

    return _Problem(model, lay.u, encode, decode)


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
    root_basis: milp.WarmBasis | None = None,
) -> MpcResult:
    """Plan over the horizon and return the optimal plan.

    The planner owns two conventions. It plans on one jam profile, the
    upper end of the jam interval: the receiving-flow rows need a single
    jam value per cell to stay affine, and the upper end keeps every
    admissible merge admissible in the plan. And it picks the encoding:
    when the state box, demand box and (pinned) parameter box are all
    degenerate the tube map's two components coincide, and a
    single-component encoding is solved instead, its decoded trajectories
    shared between the tube sides. At horizon 3 on four cells it has 86
    columns and 21 binaries against the two-component model's 274 and 120.
    The two components need not coincide in the two-component model: on a
    drop threshold, where the kernel keeps full capacity, each
    component's switch admits either branch, so that model can reach below
    the single-component optimum with its lower component ending above its
    upper one. The result is
    always an optimal plan: an infeasible horizon raises
    ``InfeasibleProblem``, and a solver budget overrun raises
    ``SolveBudgetExceeded``, whose message names the nodes, the incumbent
    and the bound. Both, and a ``milp.NumericalBreakdown`` that escapes
    the solver, carry the model that failed as ``model``, for
    ``milp.dump_model``.

    ``root_basis`` is the previous plan's ``solution.root_basis``, handed
    to ``milp.solve_milp`` as the root LP's start; the solver uses it only
    when it passes its replay gate, and a model of another shape never does.
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

    try:
        sol = milp.solve_milp(
            prob.model,
            budget=budget,
            incumbent_hook=_incumbent_hook(prob),
            initial_candidates=[prob.encode(s) for s in (track, np.zeros_like(track))],
            root_basis=root_basis,
        )
    except milp.NumericalBreakdown as err:
        err.model = prob.model
        raise
    if sol.status == milp.OPTIMAL:
        return MpcResult(*prob.decode(sol.x), reduced, sol)
    if sol.status == milp.INFEASIBLE:
        stop = InfeasibleProblem(
            f"no horizon-{t} plan reaches the terminal box from the given "
            f"state box (explored {sol.nodes} nodes)"
        )
    else:
        have = "no incumbent" if not np.isfinite(sol.objective) else (
            f"incumbent {sol.objective:.6g}, bound {sol.bound:.6g}"
        )
        stop = SolveBudgetExceeded(
            f"node budget exhausted after {sol.nodes} nodes ({have})"
        )
    stop.model = prob.model
    raise stop
