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

The propagation takes a stack of boxes at once. A stack costs far less
than its boxes one at a time, but its cost still grows with its rows: on
a 5-step window, one box takes about 0.4 ms, 48 rows 0.6 ms and 473 rows
2.2 ms (best of 12 runs, one Xeon core, numpy 2.4). A walk reads only one
path of its bisection tree: the probes it visits while none certifies,
its spine.
``theta_update`` certifies, in one pass, the whole box and the spine of
every coordinate end the check budget can reach, one stacked row per
check, and then replays the one-at-a-time walks over the stored verdicts.
A certified probe ends its spine, and the rest of that walk is certified
on a new spine from the narrowed interval. An applied cut changes the box
every later probe is cut from, so the spines after it are stacked again.
The walks, their check budget and the result are those of bisecting one
candidate at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ctm import Observation, OutputModel
from .embedding import (PARAM_FIELDS, DemandBounds, LiftedState, ParamBounds,
                        _box_admissible, _clamped_step, _pair)

CONSISTENCY_TOL = 1e-9

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

_WIDTH_TOL = 1e-12


class ContainmentViolation(RuntimeError):
    """A reading, or an entire data window, falls outside the current box.

    Raised when the guaranteed-containment premise breaks: either a detector
    reported a value the predicted state box cannot explain, or no parameter
    value left in the box reproduces the recorded window.
    """


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the windowed estimators.

    backward_horizon is the window length L: updates look at the last L
    transitions. prune_depth bounds the bisection depth per parameter bound,
    prune_budget caps the total number of consistency checks one
    ``theta_update`` call may spend. The contraction treats every
    parameter alike, the jam occupancy included. A scenario's
    ``estimator`` block supplies all three (docs/scenario-format.md).
    """

    backward_horizon: int
    prune_depth: int
    prune_budget: int

    def __post_init__(self):
        if int(self.backward_horizon) != self.backward_horizon or self.backward_horizon < 1:
            raise ValueError("backward_horizon must be an integer >= 1")
        if self.prune_depth < 0 or self.prune_budget < 0:
            raise ValueError("prune_depth and prune_budget must be nonnegative")


@dataclass(frozen=True)
class _Record:
    observation: Observation
    control: np.ndarray | None
    bracket: np.ndarray  # the state box as (upper, lower) on a leading axis
    readings: tuple      # _measured(observation, output model)


class MeasurementWindow:
    """Ring buffer of the last L transitions the estimators may look at.

    Each pushed record carries the corrected state box, upper bound before
    lower on a leading axis, and the raw observation at one time step, with
    its readings (``_measured``) computed once; the control that produced
    the transition *into* that step rides along with it. The first record
    of a fresh window has no incoming transition, every later one must.
    ``demand`` is the run's arrival box, which every transition shares.
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
        self._records.append(_Record(observation, control,
                                     np.array([lifted.upper, lifted.lower]),
                                     _measured(observation, self.output_model)))

    def __len__(self) -> int:
        return len(self._records)

    @property
    def observations(self) -> list[Observation]:
        return [r.observation for r in self._records]

    @property
    def controls(self) -> list[np.ndarray]:
        """Controls aligned with transitions: controls[k] maps box k to k+1."""
        return [r.control for r in list(self._records)[1:]]


def state_update(predicted: LiftedState, y: Observation,
                 output_model: OutputModel) -> LiftedState:
    """Intersect a predicted state box with one measurement.

    Detectors are exact, so a measured mainline cell collapses both bounds
    onto y_i / c_i and every ramp queue collapses onto its reading; cells
    without a detector keep their predicted interval. A reading outside the
    predicted box by more than CONSISTENCY_TOL voids the containment
    guarantee and raises ContainmentViolation. The result is always
    contained in the input box, and applying the same measurement twice is
    a no-op.
    """
    x = np.array([predicted.upper, predicted.lower], dtype=float)
    n = output_model.mainline_mask.shape[0]
    if x.shape[1:] != (2 * n,):
        raise ValueError(f"state box must have {2 * n} entries, got {x.shape[1:]}")
    y_main = np.asarray(y.y_main, dtype=float)
    y_ramp = np.asarray(y.y_ramp, dtype=float)
    if y_main.shape != (n,) or y_ramp.shape != (n,):
        raise ValueError("observation does not match the output model's size")
    if np.any(~np.isfinite(y_main[output_model.mainline_mask])):
        raise ValueError("a measured cell is missing its reading")
    idx, vals = _measured(y, output_model)
    outside = _absorb(x, idx, vals, CONSISTENCY_TOL)
    if outside.any():
        k = int(np.argmax(outside))
        j = int(idx[k])
        where = f"mainline cell {j}" if j < n else f"ramp queue {j - n}"
        raise ContainmentViolation(
            f"{where}: reading {vals[k]:.6g} outside "
            f"[{predicted.lower[j]:.6g}, {predicted.upper[j]:.6g}]")
    return LiftedState(upper=x[0], lower=x[1])


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


def _absorb(x: np.ndarray, idx: np.ndarray, vals: np.ndarray, tol: float) -> np.ndarray:
    """Collapse the measured entries of the bracket x onto their values, in place.

    x holds the upper bound before the lower on its leading axis and
    broadcasts over the axes after it. Returns, per reading on the last
    axis, whether it sat strictly outside the box by more than tol before
    the collapse; one such reading certifies the box inconsistent with the
    measurement.
    """
    low, high = x[1][..., idx], x[0][..., idx]
    outside = (vals < low - tol) | (vals > high + tol)
    x[..., idx] = np.minimum(np.maximum(vals, low), high)
    return outside


def _certified(window: MeasurementWindow, pair, tol: float) -> np.ndarray:
    """Which stacked boxes cannot reproduce the window.

    pair is the boxes' (primary, secondary) sets (``embedding._pair``): the
    corners' fields stacked on a leading component axis, upper first, and
    any axes between it and the cells stack boxes; the answer has those
    axes. Propagates the tube dynamics forward from the window's first box
    under its controls and arrival box, carrying the bracket as one
    ``(2, ..., 2I)`` array and stepping it with one kernel call per
    transition. Each step is intersected with the window's own enclosure
    of that step (certified earlier, so the tie sharpens the test without
    risking a false certificate), and measured entries collapse onto the
    exact readings, computed once per record when it was pushed. A box is
    certified when a propagated interval strictly excludes an enclosure or
    a reading by more than tol. Every operation is elementwise, so each
    box gets the bits it would get propagated alone.
    """
    first, *later = window._records
    stack = np.broadcast_shapes(*(np.shape(a)[1:-1] for a in vars(pair[0]).values()))
    along = (2,) + (1,) * len(stack) + (-1,)  # a record's bracket against the stack
    x = np.broadcast_to(first.bracket.reshape(along),
                        (2, *stack, first.bracket.shape[-1])).copy()
    lam = np.array([window.demand.upper, window.demand.lower])
    dead = _absorb(x, *first.readings, tol).any(axis=-1)
    for record in later:
        if dead.all():
            break
        x = _clamped_step(x, record.control, lam, pair)
        tied = record.bracket.reshape(along)
        dead = (dead | (x[1] > tied[0] + tol).any(axis=-1)
                | (tied[1] > x[0] + tol).any(axis=-1))
        np.minimum(x[0], tied[0], out=x[0])
        np.maximum(x[1], tied[1], out=x[1])
        np.maximum(x[0], x[1], out=x[0])
        dead = dead | _absorb(x, *record.readings, tol).any(axis=-1)
    return dead


def interval_consistency(theta_box: ParamBounds, window: MeasurementWindow) -> str:
    """Can some parameter in theta_box reproduce the recorded window?

    Answers "infeasible" only when the forward propagation of ``_certified``
    strictly excludes an enclosure or a reading by more than
    CONSISTENCY_TOL. That one-sided certificate is sound: a box containing
    a consistent parameter is never labelled infeasible. A passing point box
    earns "feasible"; a passing wider box only earns "unknown", because
    interval arithmetic may keep an empty box alive.
    """
    if _certified(window, theta_box.pair, CONSISTENCY_TOL):
        return INFEASIBLE
    return FEASIBLE if theta_box.is_point else UNKNOWN


def _corner_maps(bounds: ParamBounds):
    lo = {f: np.array(getattr(bounds.lower, f), dtype=float) for f in PARAM_FIELDS}
    up = {f: np.array(getattr(bounds.upper, f), dtype=float) for f in PARAM_FIELDS}
    return lo, up


def _corners(up_map: dict, lo_map: dict, template: ParamBounds) -> dict:
    """The box of the coordinate maps as its corners' fields stacked upper
    first, with the template's u_max; ``_pair`` of it is ready for
    ``_box_admissible`` and ``_certified``."""
    return {**{f: np.array([up_map[f], lo_map[f]]) for f in PARAM_FIELDS},
            "u_max": template.pair[0].u_max}


class _Spine(NamedTuple):
    """The probes of one end of one coordinate that a walk from [anchor,
    cut] visits while none certifies, at most length of them: each mid
    becomes the next anchor, m_1 = 0.5 * (anchor + cut) and m_{d+1} =
    0.5 * (m_d + cut), the arithmetic of a one-at-a-time walk.

    A probe at an upper end is the half-box with the lower corner raised to
    its mid; at a lower end, the upper corner is lowered to it.
    """

    field: str
    cell: int
    is_upper: bool
    anchor: float
    cut: float
    length: int


def _certify_spines(window: MeasurementWindow, up_map: dict, lo_map: dict,
                    template: ParamBounds, spines: list[_Spine], with_box: bool):
    """Certify every probe of the spines against the window in one stacked
    propagation; with_box stacks the box itself in front of them.

    Each probed field is one (2, rows, cells) array of both corners, upper
    first, that the probes' mids are written into; the other fields keep
    the box's corners on a unit rows axis. The pair of those arrays is
    what the range checks and ``_certified`` read.

    Returns whether the box was certified inconsistent (False without
    with_box) and, per spine, its mids, whether each probe passes the
    physical-range checks (an interior sub-box can fail them: its corners
    mix values the box's own corners never combined) and whether it is
    admissible and certified inconsistent.
    """
    first = int(with_box)
    rows = first + sum(s.length for s in spines)
    box = _corners(up_map, lo_map, template)
    mids, probed, start = [], {}, first
    for s in spines:
        m, anchor = np.empty(s.length), s.anchor
        for d in range(s.length):
            anchor = m[d] = 0.5 * (anchor + s.cut)
        if s.field not in probed:
            probed[s.field] = np.empty((2, rows) + box[s.field].shape[1:])
            probed[s.field][:] = box[s.field][:, None]
        # a probe at an upper end raises the lower corner (component 1)
        probed[s.field][int(s.is_upper), start:start + s.length, s.cell] = m
        mids.append((start, m))
        start += s.length
    pair = _pair({f: probed[f] if f in probed else a[:, None] for f, a in box.items()})
    admissible = _box_admissible(pair[0])
    dead = _certified(window, pair, CONSISTENCY_TOL)
    certified = admissible & dead
    return with_box and bool(dead[0]), [
        (m, admissible[at:at + len(m)], certified[at:at + len(m)]) for at, m in mids]


def theta_update(window: MeasurementWindow, param_bounds: ParamBounds,
                 config: EstimatorConfig) -> ParamBounds:
    """Contract the parameter box against the recorded window.

    Works one scalar coordinate at a time. To lower an upper bound, bisect
    the coordinate's interval and ask whether the upper half-box is
    certifiably unable to reproduce the window; only a certificate moves
    the bound, so the true parameter is never cut off and the result is
    always contained in the input box. Lower bounds mirror this, probes
    shrink toward the edge when a half cannot be certified, and the sweep
    stops once prune_budget consistency checks are spent.

    The whole-box check and the spine of every end the remaining budget can
    reach (each walk spends at most prune_depth checks) are certified
    together in one stacked propagation. The walks then read their verdicts
    in sweep order. A certified probe ends its spine: the cut moves to its
    mid and the rest of the walk is certified on a new spine from the new
    interval. A cut that is applied changes the box, so the spines of the
    ends after it are stacked again from the new box; a skipped cut leaves
    them valid. The budget is charged exactly as a one-at-a-time walk
    charges it: one check per probe the walk visits, none for a probe that
    fails the physical-range checks (it counts as not certified).

    A box with no end to walk (a point box, a budget of at most one check
    or a depth of zero) gets the whole-box check alone from
    ``interval_consistency``. The input box comes back itself when no
    bound moves. If the whole incoming box is certified inconsistent,
    containment is lost and ContainmentViolation is raised.
    """
    if len(window) < 1:
        raise ValueError("the window is empty")
    checks_left = max(config.prune_budget, 1) - 1

    lo_map, up_map = _corner_maps(param_bounds)
    ends = [(f, i, is_upper)
            for f in PARAM_FIELDS
            for i in range(lo_map[f].shape[0])
            if up_map[f][i] - lo_map[f][i] > _WIDTH_TOL
            # shave the upper end, then the lower: certify the half between
            # mid and the moving end infeasible, then move that end to mid
            for is_upper in (True, False)]

    def interval(f, i, is_upper):
        """(anchor, cut): the end that stays and the end that moves."""
        return ((lo_map[f][i], up_map[f][i]) if is_upper
                else (up_map[f][i], lo_map[f][i]))

    def spines_from(first):
        """The spines of ends[first:] that the budget reaches, by index into ends."""
        spines, budget = {}, checks_left
        for k in range(first, len(ends)):
            length = min(config.prune_depth, budget)
            if length <= 0:
                break
            anchor, cut = interval(*ends[k])
            if abs(cut - anchor) > _WIDTH_TOL:
                spines[k] = _Spine(*ends[k], anchor, cut, length)
                budget -= length
        return spines

    def certify(spines, with_box=False):
        box_dead, verdicts = _certify_spines(window, up_map, lo_map, param_bounds,
                                             list(spines.values()), with_box)
        return box_dead, dict(zip(spines, verdicts))

    spines, sweep = spines_from(0), {}
    if spines:
        box_dead, sweep = certify(spines, with_box=True)
    else:
        # nothing to walk: a point box, one check of budget or a depth of zero
        box_dead = interval_consistency(param_bounds, window) == INFEASIBLE
    if box_dead:
        raise ContainmentViolation(
            "no parameter left in the box reproduces the recorded window")

    moved = False
    for k, (f, i, is_upper) in enumerate(ends):
        if checks_left <= 0:
            break
        anchor, cut = interval(f, i, is_upper)
        depth_left = config.prune_depth
        while depth_left > 0 and checks_left > 0 and abs(cut - anchor) > _WIDTH_TOL:
            if depth_left == config.prune_depth:
                if k not in sweep:
                    _, sweep = certify(spines_from(k))
                mids, admissible, certified = sweep[k]
            else:
                # a certified probe ended the last spine, or it was shorter
                # than the budget left turned out to allow
                spine = _Spine(f, i, is_upper, anchor, cut, min(depth_left, checks_left))
                mids, admissible, certified = certify({k: spine})[1][k]
            # the spine may be longer than the budget left now lets the walk go
            for mid, passes, dead in zip(mids, admissible, certified):
                if checks_left <= 0 or abs(cut - anchor) <= _WIDTH_TOL:
                    break
                checks_left -= int(passes)
                depth_left -= 1
                if dead:
                    cut = mid
                    break
                anchor = mid
        target = up_map if is_upper else lo_map
        if cut != target[f][i]:
            # each cut is certified on its own, but with the cuts made
            # before it, it can push a corner outside the physical-range
            # checks; such a cut is skipped (the box only stays larger,
            # so soundness is kept) and the sweep goes on from a valid box
            old, target[f][i] = target[f][i], cut
            if _box_admissible(_pair(_corners(up_map, lo_map, param_bounds))[0]):
                moved = True
                sweep = {}
            else:
                target[f][i] = old

    if not moved:
        return param_bounds
    return ParamBounds(upper=replace(param_bounds.upper, **up_map),
                       lower=replace(param_bounds.lower, **lo_map))
