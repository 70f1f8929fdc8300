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

The propagation takes a stack of boxes at once. The window corrects
every box it is given against its readings (``MeasurementWindow.push``),
so after each step's test a measured entry restarts from the record's
own enclosure, which holds the reading. With a detector on every cell,
each transition of the window therefore starts from its record alone and
is checked on its own: a fresh stack steps all of them in one kernel
call, and a tick whose window slid by one record steps only the newest,
the stack keeping the verdicts of the others. A stack costs far less
than its boxes one at a time, but its cost still grows with its rows: on
a fully measured 5-step window, a fresh certificate of one box takes
about 0.08 ms, of 48 rows 0.17 ms and of 474 rows 0.96 ms, and one that
steps only the newest transition 0.046, 0.066 and 0.20 ms (medians over
5 processes of the best of 12 runs, one Xeon core, numpy 2.4). A walk
reads only one path of its bisection tree: the probes it visits while
none certifies, its spine.
``theta_update`` certifies, in one pass, the whole box and the spine of
every coordinate end the check budget can reach, one stacked row per
check, and then replays the one-at-a-time walks over the stored verdicts.
A certified probe ends its spine, and the rest of that walk is certified
on a new spine from the narrowed interval. An applied cut changes the box
every later probe is cut from, so the spines after it are stacked again.
The walks, their check budget and the result are those of bisecting one
candidate at a time. They read the box as the kernel does, in the primary
sets of its pair (``embedding._pair``): each field's two corners stacked
upper first, so an end's anchor and cut are one entry of the two rows.

A probe stack (its mids, its stacked pair with the kernel's terms, and the
range verdicts of its rows) depends on the box and the spines alone, never
on the window. Most ticks leave the box as it was, so the measurement
window keeps the first stack of the box the run is using, and the next
tick that brings the same box with the same plan certifies that stack
against its own window without building it again, stepping only the
transitions whose verdicts the stack does not hold yet. It also keeps
the verdict patterns of that stack whose walk moved no bound and
certified no further stack: a tick whose verdicts repeat one returns the
box after the one propagation, without walking.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .ctm import Observation, OutputModel
from .embedding import (PARAM_FIELDS, DemandBounds, LiftedState, ParamBounds,
                        _box_admissible, _clamped_step, _pair, _Pair, _Terms)

CONSISTENCY_TOL = 1e-9

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"

_WIDTH_TOL = 1e-12

# the bracket entries one kernel call of the certificate steps at most
# (64 KiB of doubles). Stepping a window's transitions together saves
# numpy's per-call overhead, but past about this size the arrays outgrow
# the caches and a stacked call costs more than the calls it replaces
_STEP_ENTRIES = 8192


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


@dataclass(frozen=True, eq=False)
class _Record:
    """One pushed time step: the state box corrected against its readings.
    Records compare and hash by identity, so a record keys the verdicts of
    the transition into it."""

    observation: Observation
    control: np.ndarray | None
    bracket: np.ndarray  # the corrected box as (upper, lower) on a leading axis
    raised: np.ndarray   # its upper side raised by CONSISTENCY_TOL
    readings: tuple      # _measured(observation, output model)


class _Stack(NamedTuple):
    """A probe stack: everything certifying it reads besides the window.

    It depends only on the box it was cut from and the spines, so it stays
    valid on every later window while both stand. ``rows`` holds what it
    learnt of the windows: each transition's verdict rows from
    ``_certified``, keyed by the record the transition leads to, while the
    window is fully measured. A new stack starts with none.
    """

    with_box: bool            # row 0 is the box itself
    mids: list                # per spine, (its first row, its mids)
    pair: _Pair               # the rows' stacked pair with its kernel terms
    admissible: np.ndarray    # per row, whether it passes the range checks
    rows: dict                # record -> that transition's verdict per row


@dataclass
class _Held:
    """The box a run is using, its kernel pair, and what ``theta_update``
    keeps of it for one (prune_budget, prune_depth): the ends it walks, the
    first spines by index into the ends, the probe stack built for them
    (with the transition verdicts it holds), and the verdict patterns of
    that stack whose walk moved no bound and certified no further stack."""

    box: ParamBounds
    pair: _Pair
    plan: tuple | None = None  # the (prune_budget, prune_depth) of the rest
    ends: list = field(default_factory=list)
    spines: dict = field(default_factory=dict)
    stack: _Stack | None = None
    quiet: set = field(default_factory=set)


class MeasurementWindow:
    """Ring buffer of the last L transitions the estimators may look at.

    ``push`` corrects the predicted state box against the detectors
    (``state_update``) and keeps the corrected box, upper bound before
    lower on a leading axis, with the raw observation at that time step and
    its readings (``_measured``) computed once; the control that produced
    the transition *into* that step rides along with it. The first record
    of a fresh window has no incoming transition, every later one must.
    ``demand`` is the run's arrival box, which every transition shares.
    Every record is a corrected box, so its measured entries sit at their
    readings: when every entry is measured, a transition out of a record
    starts from that record alone, and each transition is certified once
    while the window holds it.

    The window is the run's, so it also holds one entry for the parameter
    box the run is using: the box's kernel pair (``pair``) and what
    ``theta_update`` keeps of the box (``_Held``). The entry is replaced
    when another box comes; the box is matched by identity, which is what
    ``theta_update`` returns when no bound moved.
    """

    def __init__(self, backward_horizon: int, output_model: OutputModel,
                 demand: DemandBounds):
        if backward_horizon < 1:
            raise ValueError("backward_horizon must be at least 1")
        self.backward_horizon = int(backward_horizon)
        self.output_model = output_model
        self.demand = demand
        self._records: deque[_Record] = deque(maxlen=self.backward_horizon + 1)
        self._held: _Held | None = None

    def pair(self, box: ParamBounds) -> _Pair:
        """box's kernel pair (``ParamBounds.pair``), built once while the
        window holds box."""
        return self._hold(box).pair

    def _hold(self, box: ParamBounds) -> _Held:
        held = self._held
        if held is None or held.box is not box:
            held = self._held = _Held(box, box.pair)
        return held

    def push(self, predicted: LiftedState, observation: Observation,
             control: np.ndarray | None = None) -> LiftedState:
        """Correct predicted against observation (``state_update``), append
        the corrected box as a record and return it.

        A reading outside predicted raises ContainmentViolation before
        anything is appended.
        """
        if self._records and control is None:
            raise ValueError(
                "records after the first need the control of the transition "
                "that led to them")
        if control is not None:
            control = np.asarray(control, dtype=float).copy()
        readings = _measured(observation, self.output_model)
        corrected = state_update(predicted, observation, self.output_model,
                                 readings=readings)
        bracket = np.array([corrected.upper, corrected.lower])
        self._records.append(_Record(observation, control, bracket,
                                     bracket[0] + CONSISTENCY_TOL, readings))
        return corrected

    def __len__(self) -> int:
        return len(self._records)

    @property
    def fully_measured(self) -> bool:
        """Whether every entry of every record is measured, so that each
        transition of the window starts from a value of its record alone."""
        return all(isinstance(r.readings[0], slice) for r in self._records)

    @property
    def observations(self) -> list[Observation]:
        return [r.observation for r in self._records]

    @property
    def controls(self) -> list[np.ndarray]:
        """Controls aligned with transitions: controls[k] maps box k to k+1."""
        return [r.control for r in list(self._records)[1:]]


def state_update(predicted: LiftedState, y: Observation, output_model: OutputModel,
                 *, readings: tuple | None = None) -> LiftedState:
    """Intersect a predicted state box with one measurement.

    Detectors are exact, so a measured mainline cell collapses both bounds
    onto y_i / c_i and every ramp queue collapses onto its reading; cells
    without a detector keep their predicted interval. A reading outside the
    predicted box by more than CONSISTENCY_TOL voids the containment
    guarantee and raises ContainmentViolation. The result is always
    contained in the input box, and applying the same measurement twice is
    a no-op. ``readings`` is ``_measured(y, output_model)`` when the caller
    has computed it already.
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
    if not np.isfinite(y_ramp).all():
        raise ValueError("a ramp queue is missing its reading")
    idx, vals = _measured(y, output_model) if readings is None else readings
    outside = _absorb(x, idx, vals, CONSISTENCY_TOL)
    if outside.any():
        k = int(np.argmax(outside))
        j = int(np.arange(2 * n)[idx][k])
        where = f"mainline cell {j}" if j < n else f"ramp queue {j - n}"
        raise ContainmentViolation(
            f"{where}: reading {vals[k]:.6g} outside "
            f"[{predicted.lower[j]:.6g}, {predicted.upper[j]:.6g}]")
    return LiftedState(upper=x[0], lower=x[1])


def _measured(y: Observation, output_model: OutputModel):
    """Where the measured entries of the stacked state are, and their values.

    Mainline cells whose reading is missing (NaN) are left out. The place
    is a slice when every entry is measured, so a bracket reads and writes
    the readings' entries as views; otherwise it is their indices.
    """
    n = output_model.mainline_mask.shape[0]
    y_main = np.asarray(y.y_main, dtype=float)
    cells = np.flatnonzero(output_model.mainline_mask & np.isfinite(y_main))
    vals = np.concatenate([y_main[cells] / output_model.c_diag[cells],
                           np.asarray(y.y_ramp, dtype=float)])
    if cells.size == n:
        return slice(None), vals
    return np.concatenate([cells, n + np.arange(n)]), vals


def _absorb(x: np.ndarray, idx, vals: np.ndarray, tol: float) -> np.ndarray:
    """Collapse the measured entries of the bracket x onto their values, in place.

    x holds the upper bound before the lower on its leading axis and
    broadcasts over the axes after it. Returns, per reading on the last
    axis, whether it sat strictly outside the box by more than tol before
    the collapse (``_misread``); one such reading certifies the box
    inconsistent with the measurement.
    """
    low, high = x[1][..., idx], x[0][..., idx]
    outside = _misread(x, idx, vals, tol)
    x[..., idx] = np.minimum(np.maximum(vals, low), high)
    return outside


def _misread(x: np.ndarray, idx, vals: np.ndarray, tol: float) -> np.ndarray:
    """Per reading, whether it lies strictly outside the bracket x by more
    than tol; x and vals broadcast as in ``_absorb``."""
    return (vals < x[1][..., idx] - tol) | (vals > x[0][..., idx] + tol)


def _stepped(x: np.ndarray, records: list, lam: np.ndarray, pair) -> tuple:
    """Step transitions and test each against the record it leads to.

    x is one start bracket per transition, ``(2, K, ..., 2I)``: the
    transitions on the axis after the component axis, then the stacking
    axes of pair, whose terms get a broadcast axis for the transitions
    (one transition is stepped without that axis). records are the K
    records the transitions lead to; the control of each drives its step.
    Every operation is elementwise, so a transition gets the bits it would
    get stepped alone. A row is excluded when its propagated interval
    strictly misses the record's enclosure, or a reading of the
    propagation intersected with that enclosure, by more than
    CONSISTENCY_TOL. When K is more than one, every record is fully
    measured.

    Returns the intersected brackets and, per transition and row, whether
    that transition excludes the row.
    """
    tol = CONSISTENCY_TOL
    one = len(records) == 1
    shape = (len(records),) + (1,) * (x.ndim - 3) + (-1,)
    if one:
        x = x[:, 0]
    else:
        pair = _Pair(pair.primary, pair.secondary,
                     _Terms(*(t[:, None] for t in pair.terms)))

    def each(get):
        return get(records[0]) if one else np.array([get(r) for r in records]).reshape(shape)

    x = _clamped_step(x, each(lambda r: r.control), lam, pair)
    upper, lower = each(lambda r: r.bracket[0]), each(lambda r: r.bracket[1])
    outside = (x[1] > each(lambda r: r.raised)) | (lower > x[0] + tol)
    np.minimum(x[0], upper, out=x[0])
    np.maximum(x[1], lower, out=x[1])
    np.maximum(x[0], x[1], out=x[0])
    idx = records[0].readings[0]
    outside[..., idx] |= _misread(x, idx, each(lambda r: r.readings[1]), tol)
    outside = outside.any(axis=-1)
    return (x[:, None], outside[None]) if one else (x, outside)


def _certified(window: MeasurementWindow, pair, rows: dict) -> np.ndarray:
    """Which stacked boxes cannot reproduce the window.

    pair is the boxes' (primary, secondary) sets (``embedding._pair``): the
    corners' fields stacked on a leading component axis, upper first, and
    any axes between it and the cells stack boxes; the answer has those
    axes. Propagates the tube dynamics forward from the window's first box
    under its controls and arrival box, carrying the bracket as one
    ``(2, ..., 2I)`` array. Each step (``_stepped``) is intersected with
    the window's own enclosure of that step (certified earlier, so the tie
    sharpens the test without risking a false certificate). A box is
    certified when a propagated interval strictly excludes an enclosure or
    a reading by more than CONSISTENCY_TOL.

    After each step's test, a measured entry restarts from the record's
    own enclosure, which ``MeasurementWindow.push`` collapsed onto the
    reading clipped into the prediction: a value of the record alone. It
    is sound for the reason the tie is: the detectors are exact, so the
    true state is that reading, within tolerance of the enclosure. When the
    propagated interval contains the restart point, it is also the
    propagation collapsed onto the reading.

    When the window is fully measured (a detector on every cell), each
    transition therefore starts from its first record alone, and the
    transitions are independent: all of them are stepped in one kernel
    call on a transitions axis, and a box is certified when one of them
    excludes it. rows holds the verdict rows of transitions certified
    before for these boxes, keyed by the record each leads to (a probe
    stack's ``_Stack.rows``, or a new dict): only the transitions missing
    from it are stepped and added, so a tick whose window slid by one
    record steps only its newest transition, and the rows of records that
    left the window are dropped. Otherwise, and on a window of one
    transition, which leaves it with the next record, the chain is
    stepped one transition at a time, unmeasured entries carried forward,
    and stops early once every box is certified. Both ways give each box
    the bits it would get propagated alone. A kernel call steps at most
    ``_STEP_ENTRIES`` bracket entries, so a large stack's transitions are
    stepped a few at a time.
    """
    first, *later = window._records
    stack = pair.terms.ceiling.shape[1:-1]
    width = first.bracket.shape[-1]
    dead = np.zeros(stack, dtype=bool)
    lam = np.array([window.demand.upper, window.demand.lower])
    along = (2,) + (1,) * len(stack) + (-1,)  # a record's bracket against the stack
    if len(later) > 1 and window.fully_measured:
        starts = dict(zip(later, window._records))
        fresh = [r for r in later if r not in rows]
        each = max(1, _STEP_ENTRIES // (2 * width * math.prod(stack)))
        for at in range(0, len(fresh), each):
            batch = fresh[at:at + each]
            x = np.empty((2, len(batch), *stack, width))
            for k, record in enumerate(batch):
                x[:, k] = starts[record].bracket.reshape(along)
            rows.update(zip(batch, _stepped(x, batch, lam, pair)[1]))
        for record in set(rows) - set(later):
            del rows[record]
        for record in later:
            dead |= rows[record]
        return dead
    x = np.empty((2, *stack, width))
    x[...] = first.bracket.reshape(along)
    for record in later:
        if dead.all():
            break
        x, outside = _stepped(x[:, None], [record], lam, pair)
        x = x[:, 0]
        idx = record.readings[0]
        x[..., idx] = record.bracket[:, idx].reshape(along)
        dead |= outside[0]
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
    if _certified(window, window.pair(theta_box), {}):
        return INFEASIBLE
    return FEASIBLE if theta_box.is_point else UNKNOWN


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


def _probe_stack(box: dict, spines: list[_Spine], with_box: bool) -> _Stack:
    """The probes of the spines stacked for one propagation; with_box puts
    the box itself in front of them.

    box holds the box's stacked fields, u_max included: each one (2, cells),
    the upper corner in row 0 (the primary sets of ``embedding._pair``).
    Each probed field is one (2, rows, cells) array of both corners, upper
    first, that the probes' mids are written into; the other fields are
    views of box's on a unit rows axis. The pair of those arrays, with its
    kernel terms, is what the range checks and ``_certified`` read; both
    are computed here, so a later write into box does not reach the stack.
    An interior sub-box can fail the range checks: its corners mix values
    the box's own corners never combined.
    """
    first = int(with_box)
    rows = first + sum(s.length for s in spines)
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
    return _Stack(with_box, mids, pair, _box_admissible(pair.primary), {})


def _certify_spines(window: MeasurementWindow, stack: _Stack):
    """Certify every probe of a stack against the window in one stacked
    propagation.

    The stack is built by ``_probe_stack``, either for this call or, for
    the first stack of a tick, on an earlier tick whose box and spines
    were the same (``theta_update`` keeps it in the window); only the
    propagation depends on the window.

    Returns whether the box was certified inconsistent (False without the
    box in the stack) and, per row, whether it is admissible and certified
    inconsistent.
    """
    dead = _certified(window, stack.pair, stack.rows)
    return stack.with_box and bool(dead[0]), stack.admissible & dead


def _verdicts(spines: dict, stack: _Stack, certified: np.ndarray) -> dict:
    """Per spine of the stack, by the spines' keys: its mids, whether each
    probe passes the physical-range checks and whether it is admissible and
    certified inconsistent."""
    return dict(zip(spines, ((m, stack.admissible[at:at + len(m)], certified[at:at + len(m)])
                             for at, m in stack.mids)))


def _interval(box: dict, f: str, i: int, is_upper: bool):
    """(anchor, cut) of an end of box's stacked fields: the end that stays
    and the end that moves, which is row 0 at an upper end."""
    k = 1 - is_upper
    return box[f][1 - k, i], box[f][k, i]


def _spines_from(ends: list, first: int, box: dict, depth: int, budget: int) -> dict:
    """The spines of ends[first:] that budget checks reach, by index into ends."""
    spines = {}
    for k in range(first, len(ends)):
        length = min(depth, budget)
        if length <= 0:
            break
        anchor, cut = _interval(box, *ends[k])
        if abs(cut - anchor) > _WIDTH_TOL:
            spines[k] = _Spine(*ends[k], anchor, cut, length)
            budget -= length
    return spines


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

    The walk reads the held pair's stacked fields (row 0 the upper corner,
    u_max included) and cuts a copy of them, whose rows are the result. The
    whole-box check and the spine of every end the remaining budget can
    reach (each walk spends at most prune_depth checks) are certified
    together in one stacked propagation. The walks then read their verdicts
    in sweep order. A certified probe ends its spine: the cut moves to its
    mid and the rest of the walk is certified on a new spine from the new
    interval. A cut that is applied changes the box, so the spines of the
    ends after it are stacked again from the new box; a skipped cut leaves
    them valid. The budget is charged exactly as a one-at-a-time walk
    charges it: one check per probe the walk visits, none for a probe that
    fails the physical-range checks (it counts as not certified).

    The window holds one entry for the box the run is using. For the
    (prune_budget, prune_depth) of the call it keeps the ends, the first
    spines and their stack (the whole box and the spines from the input
    box), and the verdict patterns of that stack whose walk moved no bound
    and certified no further stack. When the next call brings the same box
    object (the input box comes back itself when no bound moves) with the
    same budget and depth, the stack is certified against the new window
    without being built again (on a fully measured window, only the
    transitions whose verdicts the stack does not hold yet are stepped),
    and a remembered pattern returns the box at once; another budget or
    depth plans afresh and builds its stack anew. Later stacks of a call
    are always built.

    A box with no end to walk (a point box, a budget of at most one check
    or a depth of zero) gets the whole-box check alone from
    ``interval_consistency``. If the whole incoming box is certified
    inconsistent, containment is lost and ContainmentViolation is raised.
    """
    if len(window) < 1:
        raise ValueError("the window is empty")
    checks_left = max(config.prune_budget, 1) - 1
    depth = config.prune_depth

    held = window._hold(param_bounds)
    fields = vars(held.pair.primary)
    if held.plan != (config.prune_budget, depth):
        ends = [(f, i, is_upper)
                for f in PARAM_FIELDS
                for i in range(fields[f].shape[1])
                if fields[f][0, i] - fields[f][1, i] > _WIDTH_TOL
                # shave the upper end, then the lower: certify the half
                # between mid and the moving end infeasible, then move that
                # end to mid
                for is_upper in (True, False)]
        spines = _spines_from(ends, 0, fields, depth, checks_left)
        held.plan, held.ends, held.spines, held.quiet = (
            (config.prune_budget, depth), ends, spines, set())
        held.stack = _probe_stack(fields, list(spines.values()), True) if spines else None

    if held.spines:
        box_dead, certified = _certify_spines(window, held.stack)
    else:
        # nothing to walk: a point box, one check of budget or a depth of zero
        box_dead = interval_consistency(param_bounds, window) == INFEASIBLE
    if box_dead:
        raise ContainmentViolation(
            "no parameter left in the box reproduces the recorded window")
    # verdicts whose walk moved nothing and certified nothing more before
    # return the box at once
    if not held.spines or (pattern := certified.tobytes()) in held.quiet:
        return param_bounds

    # the walk cuts a copy; the held pair and its stack stay the box's
    box = {f: a.copy() for f, a in fields.items()}
    ends = held.ends

    def certify(spines):
        stack = _probe_stack(box, list(spines.values()), False)
        return _verdicts(spines, stack, _certify_spines(window, stack)[1])

    sweep = _verdicts(held.spines, held.stack, certified)
    moved = asked = False
    for k, (f, i, is_upper) in enumerate(ends):
        if checks_left <= 0:
            break
        anchor, cut = _interval(box, f, i, is_upper)
        depth_left = depth
        while depth_left > 0 and checks_left > 0 and abs(cut - anchor) > _WIDTH_TOL:
            if depth_left == depth:
                if k not in sweep:
                    asked = True
                    sweep = certify(_spines_from(ends, k, box, depth, checks_left))
                mids, admissible, dead = sweep[k]
            else:
                # a certified probe ended the last spine, or it was shorter
                # than the budget left turned out to allow
                asked = True
                spine = _Spine(f, i, is_upper, anchor, cut, min(depth_left, checks_left))
                mids, admissible, dead = certify({k: spine})[k]
            # the spine may be longer than the budget left now lets the walk go
            for mid, passes, certain in zip(mids, admissible, dead):
                if checks_left <= 0 or abs(cut - anchor) <= _WIDTH_TOL:
                    break
                checks_left -= int(passes)
                depth_left -= 1
                if certain:
                    cut = mid
                    break
                anchor = mid
        row = box[f][1 - is_upper]  # the corner this end moves
        if cut != row[i]:
            # each cut is certified on its own, but with the cuts made
            # before it, it can push a corner outside the physical-range
            # checks; such a cut is skipped (the box only stays larger,
            # so soundness is kept) and the sweep goes on from a valid box
            old, row[i] = row[i], cut
            if _box_admissible(SimpleNamespace(**box)):
                moved = True
                sweep = {}
            else:
                row[i] = old

    if not moved:
        if not asked:
            held.quiet.add(pattern)
        return param_bounds
    return ParamBounds(upper=replace(param_bounds.upper, **{f: box[f][0] for f in PARAM_FIELDS}),
                       lower=replace(param_bounds.lower, **{f: box[f][1] for f in PARAM_FIELDS}))
