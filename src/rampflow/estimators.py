"""Set-membership estimation: state correction and interval identification
of the freeway parameters.

Everything here manipulates boxes. ``state_update`` intersects a predicted
state box with what the detectors report, and ``theta_update`` contracts the
parameter box by branch-and-prune: bisect one coordinate, try to certify
that half the box cannot reproduce the recorded window, and keep only
certified cuts. The certificate is a forward interval propagation of the
tube dynamics (``interval_consistency`` gives it for one box), so the
contraction is conservative by construction: a parameter value is only ever
discarded with a proof. The arrival box is prior knowledge the detectors
cannot sharpen (queues are measured, so arrivals are only seen through the
commanded discharge); the measurement window holds it once for the whole
run.

The propagation takes a stack of boxes at once, which costs little more
than one box. ``theta_update`` uses that to certify every candidate of a
bisection tree (up to six levels, 63 boxes) in one pass, and then replays
the one-at-a-time walk over the stored verdicts. The walk, its check
budget and its result are those of bisecting one candidate at a time.

``freeflow_identify`` is the closed-form complement. While the stretch is in
free flow and fully measured, consecutive occupancy readings determine each
cell's speed and split ratio exactly through small linear solves, and
``full_identify_sweep`` cascades those solves downstream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .ctm import Observation, OutputModel
from .embedding import (PARAM_FIELDS, DemandBounds, LiftedState, ParamBounds,
                        _box_admissible, _clamped_step)

CONSISTENCY_TOL = 1e-9
RANK_TOL = 1e-8

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

CELL_EXACT = "exact"
CELL_UNIDENTIFIED = "unidentified"
CELL_DEGENERATE = "degenerate"

_WIDTH_TOL = 1e-12
# bisection levels certified in one stacked propagation: 2**6 - 1 = 63 boxes
_BATCH_LEVELS = 6


class ContainmentViolation(RuntimeError):
    """A reading, or an entire data window, falls outside the current box.

    Raised when the guaranteed-containment premise breaks: either a detector
    reported a value the predicted state box cannot explain, or no parameter
    value left in the box reproduces the recorded window.
    """


class RankDeficient(RuntimeError):
    """The readings do not pin the parameters down (singular regression)."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the windowed estimators.

    backward_horizon is the window length L: updates look at the last L
    transitions. prune_depth bounds the bisection depth per parameter bound,
    prune_budget caps the total number of consistency checks one
    ``theta_update`` call may spend. With relax_jam set, the jam occupancy
    is left alone by the contraction and treated as fixed at its upper
    bound by the planner.
    """

    backward_horizon: int = 8
    prune_depth: int = 8
    prune_budget: int = 256
    relax_jam: bool = False

    def __post_init__(self):
        if int(self.backward_horizon) != self.backward_horizon or self.backward_horizon < 1:
            raise ValueError("backward_horizon must be an integer >= 1")
        if self.prune_depth < 0 or self.prune_budget < 0:
            raise ValueError("prune_depth and prune_budget must be nonnegative")


@dataclass(frozen=True)
class _Record:
    lifted: LiftedState
    observation: Observation
    control: np.ndarray | None


class MeasurementWindow:
    """Ring buffer of the last L transitions the estimators may look at.

    Each pushed record carries the corrected state box and the raw
    observation at one time step; the control that produced the transition
    *into* that step rides along with it. The first record of a fresh window
    has no incoming transition, every later one must. ``demand`` is the
    run's arrival box, which every transition shares.
    """

    def __init__(self, backward_horizon: int, output_model: OutputModel,
                 demand: DemandBounds):
        if backward_horizon < 1:
            raise ValueError("backward_horizon must be at least 1")
        self.backward_horizon = int(backward_horizon)
        self.output_model = output_model
        self.demand = demand
        self._records: deque[_Record] = deque(maxlen=self.backward_horizon + 1)

    def push(self, lifted: LiftedState, observation: Observation,
             control: np.ndarray | None = None) -> None:
        if self._records and control is None:
            raise ValueError(
                "records after the first need the control of the transition "
                "that led to them")
        if control is not None:
            control = np.asarray(control, dtype=float).copy()
        self._records.append(_Record(lifted, observation, control))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def full(self) -> bool:
        return len(self._records) == self.backward_horizon + 1

    @property
    def lifted_boxes(self) -> list[LiftedState]:
        return [r.lifted for r in self._records]

    @property
    def observations(self) -> list[Observation]:
        return [r.observation for r in self._records]

    @property
    def controls(self) -> list[np.ndarray]:
        """Controls aligned with transitions: controls[k] maps box k to k+1."""
        return [r.control for r in list(self._records)[1:]]


def state_update(predicted: LiftedState, y: Observation,
                 output_model: OutputModel, *, tol: float = 1e-9) -> LiftedState:
    """Intersect a predicted state box with one measurement.

    Detectors are exact, so a measured mainline cell collapses both bounds
    onto y_i / c_i and every ramp queue collapses onto its reading; cells
    without a detector keep their predicted interval. A reading outside the
    predicted box (beyond tol) voids the containment guarantee and raises
    ContainmentViolation. The result is always contained in the input box,
    and applying the same measurement twice is a no-op.
    """
    up = np.array(predicted.upper, dtype=float)
    lo = np.array(predicted.lower, dtype=float)
    n = output_model.mainline_mask.shape[0]
    if up.shape != (2 * n,):
        raise ValueError(f"state box must have {2 * n} entries, got {up.shape}")
    y_main = np.asarray(y.y_main, dtype=float)
    y_ramp = np.asarray(y.y_ramp, dtype=float)
    if y_main.shape != (n,) or y_ramp.shape != (n,):
        raise ValueError("observation does not match the output model's size")
    if np.any(~np.isfinite(y_main[output_model.mainline_mask])):
        raise ValueError("a measured cell is missing its reading")
    idx, vals = _measured(y, output_model)
    outside = _absorb(up, lo, idx, vals, tol)
    if outside.any():
        k = int(np.argmax(outside))
        j = int(idx[k])
        where = f"mainline cell {j}" if j < n else f"ramp queue {j - n}"
        raise ContainmentViolation(
            f"{where}: reading {vals[k]:.6g} outside "
            f"[{predicted.lower[j]:.6g}, {predicted.upper[j]:.6g}]")
    return LiftedState(upper=up, lower=lo)


def _measured(y: Observation, output_model: OutputModel):
    """Indices of the measured entries of the stacked state, and their values.

    Mainline cells whose reading is missing (NaN) are left out.
    """
    n = output_model.mainline_mask.shape[0]
    y_main = np.asarray(y.y_main, dtype=float)
    cells = np.flatnonzero(output_model.mainline_mask & np.isfinite(y_main))
    idx = np.concatenate([cells, n + np.arange(n)])
    vals = np.concatenate([y_main[cells] / output_model.c_diag[cells],
                           np.asarray(y.y_ramp, dtype=float)])
    return idx, vals


def _absorb(up: np.ndarray, lo: np.ndarray, idx: np.ndarray, vals: np.ndarray,
            tol: float) -> np.ndarray:
    """Collapse the measured entries of [lo, up] onto their values, in place.

    Broadcasts over leading axes. Returns, per reading on the last axis,
    whether it sat strictly outside the box by more than tol before the
    collapse; one such reading certifies the box inconsistent with the
    measurement.
    """
    low, high = lo[..., idx], up[..., idx]
    outside = (vals < low - tol) | (vals > high + tol)
    up[..., idx] = lo[..., idx] = np.minimum(np.maximum(vals, low), high)
    return outside


def _certified(window: MeasurementWindow, upper, lower, tol: float) -> np.ndarray:
    """Which stacked boxes [lower, upper] cannot reproduce the window.

    upper and lower are the corners, anything with the parameter fields as
    attributes; leading axes of their arrays stack boxes, and the answer
    has those axes. Propagates the tube dynamics forward from the window's
    first box under its controls and arrival box, intersecting each step
    with the window's own enclosure of that step (certified earlier, so the
    tie sharpens the test without risking a false certificate) and
    collapsing measured entries onto the exact readings as it goes. A box
    is certified when a propagated interval strictly excludes an enclosure
    or a reading by more than tol. Every operation is elementwise, so each
    box gets the bits it would get propagated alone.
    """
    boxes = window.lifted_boxes
    observations = window.observations
    stack = np.broadcast_shapes(*(np.shape(getattr(corner, f))[:-1]
                                  for corner in (upper, lower) for f in PARAM_FIELDS))
    up = np.broadcast_to(boxes[0].upper, stack + boxes[0].upper.shape).copy()
    lo = np.broadcast_to(boxes[0].lower, stack + boxes[0].lower.shape).copy()
    dead = _absorb(up, lo, *_measured(observations[0], window.output_model),
                   tol).any(axis=-1)
    for k, u in enumerate(window.controls, start=1):
        if dead.all():
            break
        up, lo = _clamped_step(up, lo, u, window.demand, upper, lower)
        tied = boxes[k]
        dead = (dead | np.any(lo > tied.upper + tol, axis=-1)
                | np.any(tied.lower > up + tol, axis=-1))
        np.minimum(up, tied.upper, out=up)
        np.maximum(lo, tied.lower, out=lo)
        np.maximum(up, lo, out=up)
        dead = dead | _absorb(up, lo, *_measured(observations[k], window.output_model),
                              tol).any(axis=-1)
    return dead


def interval_consistency(theta_box: ParamBounds, window: MeasurementWindow, *,
                         tol: float = CONSISTENCY_TOL) -> str:
    """Can some parameter in theta_box reproduce the recorded window?

    Answers "infeasible" only when the forward propagation of ``_certified``
    strictly excludes an enclosure or a reading by more than tol. That
    one-sided certificate is sound: a box containing a consistent parameter
    is never labelled infeasible. A passing point box earns "feasible"; a
    passing wider box only earns "unknown", because interval arithmetic may
    keep an empty box alive.
    """
    if _certified(window, theta_box.upper, theta_box.lower, tol):
        return INFEASIBLE
    return FEASIBLE if theta_box.is_point else UNKNOWN


def _corner_maps(bounds: ParamBounds):
    lo = {f: np.array(getattr(bounds.lower, f), dtype=float) for f in PARAM_FIELDS}
    up = {f: np.array(getattr(bounds.upper, f), dtype=float) for f in PARAM_FIELDS}
    return lo, up


def _corners(up_map: dict, lo_map: dict, template: ParamBounds):
    """The coordinate maps as (upper, lower) parameter sets with the
    template's u_max, ready for ``_box_admissible`` and ``_certified``."""
    return (SimpleNamespace(**up_map, u_max=template.upper.u_max),
            SimpleNamespace(**lo_map, u_max=template.lower.u_max))


def _bisection_mids(anchor: float, cut: float, levels: int) -> np.ndarray:
    """The mids of a bisection tree of [anchor, cut], in heap order.

    Node k's children are 2k + 1, the cut moved to its mid, and 2k + 2, the
    anchor moved there. Each mid is 0.5 * (anchor + cut) of its node, so it
    equals the mid a one-at-a-time walk along the same path computes.
    """
    anchors, cuts = np.array([anchor]), np.array([cut])
    mids = []
    for _ in range(levels):
        mid = 0.5 * (anchors + cuts)
        mids.append(mid)
        anchors = np.stack([anchors, mid], axis=-1).ravel()
        cuts = np.stack([mid, cuts], axis=-1).ravel()
    return np.concatenate(mids)


def theta_update(window: MeasurementWindow, param_bounds: ParamBounds,
                 config: EstimatorConfig = EstimatorConfig()) -> ParamBounds:
    """Contract the parameter box against the recorded window.

    Works one scalar coordinate at a time. To lower an upper bound, bisect
    the coordinate's interval and ask whether the upper half-box is
    certifiably unable to reproduce the window; only a certificate moves
    the bound, so the true parameter is never cut off and the result is
    always contained in the input box. Lower bounds mirror this, probes
    shrink toward the edge when a half cannot be certified, and the sweep
    stops once prune_budget consistency checks are spent.

    Each end's probes form a bisection tree. Up to six levels of it are
    certified in one stacked propagation; the walk then reads its verdicts
    and, when it goes deeper, continues with the next tree from the node it
    reached. The budget is charged exactly as a one-at-a-time walk charges
    it: one check per probe the walk visits, none for a probe that fails the
    physical-range checks (it counts as not certified).

    The input box comes back itself when no bound moves, as a point box
    always does after the whole-box check (which costs one check).
    If the whole incoming box is certified inconsistent, containment is
    lost and ContainmentViolation is raised.
    """
    if len(window) < 1:
        raise ValueError("the window is empty")
    checks_left = max(config.prune_budget, 1) - 1
    if interval_consistency(param_bounds, window) == INFEASIBLE:
        raise ContainmentViolation(
            "no parameter left in the box reproduces the recorded window")

    lo_map, up_map = _corner_maps(param_bounds)
    coords = [(f, i)
              for f in PARAM_FIELDS
              if not (config.relax_jam and f == "x_jam")
              for i in range(lo_map[f].shape[0])
              if up_map[f][i] - lo_map[f][i] > _WIDTH_TOL]
    applied: list[tuple[str, int, bool, float]] = []

    for f, i in coords:
        # shave the upper end, then the lower: certify the half between mid
        # and the moving end infeasible, then move that end to mid
        for is_upper in (True, False):
            target, other = (up_map, lo_map) if is_upper else (lo_map, up_map)
            anchor, cut = other[f][i], target[f][i]
            depth_left = config.prune_depth
            while depth_left > 0 and checks_left > 0 and abs(cut - anchor) > _WIDTH_TOL:
                levels = min(_BATCH_LEVELS, depth_left, checks_left)
                mids = _bisection_mids(anchor, cut, levels)
                trial = dict(other)
                trial[f] = np.repeat(other[f][None], mids.shape[0], axis=0)
                trial[f][:, i] = mids
                # an interior sub-box can fail the range checks: its corners
                # mix values the box's own corners never combined
                up, lo = (target, trial) if is_upper else (trial, target)
                upper, lower = _corners(up, lo, param_bounds)
                admissible = _box_admissible(upper, lower)
                certified = admissible & _certified(window, upper, lower, CONSISTENCY_TOL)
                node = 0
                for _ in range(levels):
                    if checks_left <= 0 or abs(cut - anchor) <= _WIDTH_TOL:
                        break
                    checks_left -= int(admissible[node])
                    if certified[node]:
                        cut, node = mids[node], 2 * node + 1
                    else:
                        anchor, node = mids[node], 2 * node + 2
                depth_left -= levels
            if cut != target[f][i]:
                applied.append((f, i, is_upper, cut))
                target[f][i] = cut

    if not applied:
        return param_bounds
    if not _box_admissible(*_corners(up_map, lo_map, param_bounds)):
        # Each cut is individually certified, but their union can push a
        # corner outside the physical-range checks. Reapply them one at a
        # time and drop the ones that break a corner; dropping a cut only
        # enlarges the box, so soundness is kept.
        lo_map, up_map = _corner_maps(param_bounds)
        for f, i, is_upper, value in applied:
            target = up_map if is_upper else lo_map
            old = target[f][i]
            target[f][i] = value
            if not _box_admissible(*_corners(up_map, lo_map, param_bounds)):
                target[f][i] = old
    return ParamBounds(upper=replace(param_bounds.upper, **up_map),
                       lower=replace(param_bounds.lower, **lo_map))


def freeflow_identify(x_cell, lam_cell: float, *, x_upstream=None,
                      v_upstream: float | None = None,
                      tol: float = RANK_TOL) -> tuple[float | None, float]:
    """Recover one cell's parameters from exact free-flow readings.

    In free flow with the ramp passing exactly its arrivals, cell i obeys
    x_i' = x_i + lam_i + beta_{i-1} v_{i-1} x_{i-1} - v_i x_i, which is
    linear in the unknowns. For the first cell (no x_upstream) one
    transition gives v_1 = (x_1 + lam_1 - x_1') / x_1 and the return value
    is (None, v_1); a third reading, when supplied, is checked against the
    recovered speed and rejects non-free-flow data. Downstream cells need
    x_cell over three consecutive steps, x_upstream over the first two, and
    the already-identified v_upstream; the two transitions form a 2x2
    system in (beta_{i-1}, v_i).

    Raises RankDeficient when the normalized determinant falls below tol
    (steady readings, proportional rows, or an empty cell) and ValueError
    when the recovered values leave (0, 1], which free-flow data cannot
    produce.
    """
    x_cell = np.asarray(x_cell, dtype=float).ravel()
    lam_cell = float(lam_cell)
    if np.any(x_cell < 0.0) or not np.all(np.isfinite(x_cell)):
        raise ValueError("occupancy readings must be finite and nonnegative")

    if x_upstream is None:
        if x_cell.shape[0] < 2:
            raise ValueError("the first cell needs at least two readings")
        x0, x1 = x_cell[0], x_cell[1]
        scale = max(1.0, abs(x1), abs(lam_cell))
        if abs(x0) <= tol * scale:
            raise RankDeficient("the cell is empty; its speed leaves no trace")
        v = (x0 + lam_cell - x1) / x0
        if not 0.0 < v <= 1.0 + 1e-9:
            raise ValueError(
                f"recovered speed {v:.6g} leaves (0, 1]; readings are not free flow")
        if x_cell.shape[0] >= 3:
            predicted = x1 + lam_cell - v * x1
            if abs(predicted - x_cell[2]) > 1e-6 * max(1.0, abs(x_cell[2])):
                raise ValueError("third reading does not follow the free-flow map")
        return None, float(min(v, 1.0))

    if v_upstream is None:
        raise ValueError("downstream cells need the upstream speed")
    x_up = np.asarray(x_upstream, dtype=float).ravel()
    if np.any(x_up < 0.0) or not np.all(np.isfinite(x_up)):
        raise ValueError("occupancy readings must be finite and nonnegative")
    if x_cell.shape[0] < 3 or x_up.shape[0] < 2:
        raise ValueError("need three cell readings and two upstream readings")
    a = np.array([[v_upstream * x_up[0], -x_cell[0]],
                  [v_upstream * x_up[1], -x_cell[1]]])
    rhs = np.array([x_cell[1] - x_cell[0] - lam_cell,
                    x_cell[2] - x_cell[1] - lam_cell])
    norms = np.linalg.norm(a, axis=1)
    if np.any(norms <= _WIDTH_TOL):
        raise RankDeficient("a transition carries no parameter information")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) <= tol * norms[0] * norms[1]:
        raise RankDeficient(
            "the two transitions are proportional; the 2x2 system is singular")
    beta, v = np.linalg.solve(a, rhs)
    if not 0.0 < v <= 1.0 + 1e-9:
        raise ValueError(
            f"recovered speed {v:.6g} leaves (0, 1]; readings are not free flow")
    if not 0.0 < beta < 1.0:
        raise ValueError(
            f"recovered split ratio {beta:.6g} leaves (0, 1); readings are not free flow")
    return float(beta), float(min(v, 1.0))


@dataclass(frozen=True)
class IdentifyReport:
    """Per-cell outcome of a sweep: recovered values and a status string.

    v[i] and beta[i-1] are NaN wherever the status is not "exact".
    """

    v: np.ndarray
    beta: np.ndarray
    status: tuple[str, ...]

    @property
    def all_exact(self) -> bool:
        return all(s == CELL_EXACT for s in self.status)


def full_identify_sweep(xs, lam) -> IdentifyReport:
    """Cascade ``freeflow_identify`` along the stretch.

    xs is a (K, I) block of mainline readings on consecutive free-flow
    steps, K >= 3, with NaN marking cells that carry no detector; lam gives
    the constant per-ramp arrivals. Cell 1 needs two consecutive finite
    readings, every later cell needs three of its own plus the first two of
    its upstream neighbour, and its upstream speed must itself have been
    identified; the earliest window that qualifies is used. Cells that
    never qualify, or sit downstream of a break in the cascade, come back
    "unidentified"; windows with data that is singular or off the free-flow
    map come back "degenerate".
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.shape[0] < 3:
        raise ValueError("need at least three consecutive readings")
    n = xs.shape[1]
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape != (n,):
        raise ValueError(f"lam must have length {n}")

    v = np.full(n, np.nan)
    beta = np.full(max(n - 1, 0), np.nan)
    status = [CELL_UNIDENTIFIED] * n

    for i in range(n):
        if i > 0 and status[i - 1] != CELL_EXACT:
            continue
        window = 2 if i == 0 else 3
        tried = False
        for t in range(xs.shape[0] - window + 1):
            own = xs[t:t + 3, i]
            if not np.all(np.isfinite(own[:window])):
                continue
            if own.shape[0] > window and not np.isfinite(own[-1]):
                own = own[:window]
            if i > 0 and not np.all(np.isfinite(xs[t:t + 2, i - 1])):
                continue
            tried = True
            try:
                if i == 0:
                    _, v_i = freeflow_identify(own, lam[0])
                    b_i = None
                else:
                    b_i, v_i = freeflow_identify(
                        own, lam[i], x_upstream=xs[t:t + 2, i - 1],
                        v_upstream=v[i - 1])
            except (RankDeficient, ValueError):
                continue
            v[i] = v_i
            if b_i is not None:
                beta[i - 1] = b_i
            status[i] = CELL_EXACT
            break
        else:
            if tried:
                status[i] = CELL_DEGENERATE
    return IdentifyReport(v=v, beta=beta, status=tuple(status))


def adopt_identified(bounds: ParamBounds, report: IdentifyReport, *,
                     tol: float = 1e-6) -> ParamBounds:
    """Collapse the v and beta intervals onto exact identification results.

    Only cells whose status is "exact" are touched. A recovered value
    outside the current box (beyond tol) contradicts guaranteed
    containment and raises ContainmentViolation; inside, the value is
    clipped into the interval and both bounds are pinned to it.
    """
    lo_v = np.array(bounds.lower.v, dtype=float)
    up_v = np.array(bounds.upper.v, dtype=float)
    lo_b = np.array(bounds.lower.beta, dtype=float)
    up_b = np.array(bounds.upper.beta, dtype=float)
    for i, state in enumerate(report.status):
        if state != CELL_EXACT:
            continue
        val = float(report.v[i])
        if val < lo_v[i] - tol or val > up_v[i] + tol:
            raise ContainmentViolation(
                f"identified v[{i}] = {val:.6g} outside "
                f"[{lo_v[i]:.6g}, {up_v[i]:.6g}]")
        lo_v[i] = up_v[i] = min(max(val, lo_v[i]), up_v[i])
        if i >= 1 and np.isfinite(report.beta[i - 1]):
            val = float(report.beta[i - 1])
            if val < lo_b[i - 1] - tol or val > up_b[i - 1] + tol:
                raise ContainmentViolation(
                    f"identified beta[{i - 1}] = {val:.6g} outside "
                    f"[{lo_b[i - 1]:.6g}, {up_b[i - 1]:.6g}]")
            lo_b[i - 1] = up_b[i - 1] = min(max(val, lo_b[i - 1]), up_b[i - 1])
    return ParamBounds(
        upper=replace(bounds.upper, v=up_v, beta=up_b),
        lower=replace(bounds.lower, v=lo_v, beta=lo_b))
