"""One-sided tube dynamics for the metered freeway.

The plant map is not order preserving (outflow jumps down when a cell tips
past its critical occupancy), so interval prediction goes through a
two-argument decomposition instead: ``_tube_flows`` evaluates the next state
from a primary tuple (state x, demand lam, parameter set A) that pushes the
result up and a secondary tuple (state z, parameter set B) that pulls it
down. Evaluating it twice with the tuples exchanged brackets every
trajectory the uncertainty boxes allow.

``_tube_flows`` is the one home of the tube's flow arithmetic. Besides the
next state it returns the named intermediates of the outflow side and the
merge side (speed-line flow, drop threshold and no-drop flag, switched
ceiling, sending flow, affine receiving flow, realized flow).
``_clamped_step`` keeps the next state of both components, clamped; it serves
``lifted_step`` and, on stacks of parameter boxes, the certificate in
:mod:`rampflow.estimators`. The planner in :mod:`rampflow.mpc`
scatters the intermediates into its MILP columns and evaluates them at box
corners for its big-M ranges. The plant in :mod:`rampflow.ctm` is a separate
implementation on purpose: it is the reference the tube is tested against.

Slot orientation, fixed here and relied on by the set-membership code:

==================  =========================================
primary (raises)    x, lam, beta, and v/w/x_jam/c_max/alpha
                    where they feed the merge inflow; v also
                    appears here as the outflow drop threshold
                    denominator
secondary (lowers)  z, and v/w/x_jam/c_max/alpha where they
                    feed the cell outflow; v also appears here
                    as the inflow drop threshold denominator
==================  =========================================

beta has no secondary slot: the merge term multiplies beta back against a
supply that divides by the same beta, so one value serves both.

On the diagonal (equal tuples) the map reproduces ``ctm.compact_step``
bit for bit: it computes in the plant's operation order on purpose, and the
plant's cap of the supply at the upstream capacity, which the kernel leaves
out, never changes the realized flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ctm import RANGE_RULES, FreewayParams, _raise_broken, _rules_hold

PARAM_FIELDS = ("beta", "v", "w", "x_jam", "c_max", "alpha")


@dataclass(frozen=True)
class LiftedState:
    """Componentwise bracket [lower, upper] around the stacked plant state."""

    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.upper, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        if up.shape != lo.shape:
            raise ValueError("upper and lower must have the same shape")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)

    def contains(self, x: np.ndarray, *, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True)
class DemandBounds:
    upper: np.ndarray
    lower: np.ndarray

    def __post_init__(self):
        up = np.asarray(self.upper, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        if up.shape != lo.shape:
            raise ValueError("demand bounds must have the same shape")
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)


# The ranges of a box on top of its corners' own (ctm.RANGE_RULES), as
# (message, rule(upper, lower)) pairs in the order construction checks them.
BOX_RULES = tuple(
    (f"lower bound of {name} exceeds upper bound",
     lambda up, lo, name=name: getattr(lo, name) > getattr(up, name) + 1e-12)
    for name in PARAM_FIELDS) + (
    ("tube propagation needs v + w <= 1 per cell",
     lambda up, lo: up.v + up.w > 1.0 + 1e-12),
)


@dataclass(frozen=True)
class ParamBounds:
    """Interval box over the physical parameters, as two parameter sets.

    Tube propagation is order preserving only while v + w stays at or below
    one in every cell (the occupancy kept by a cell plus what the upstream
    merge can push into it must not overreact to the occupancy itself), so
    the box is rejected when its upper corner violates that.
    """

    upper: FreewayParams
    lower: FreewayParams

    def __post_init__(self):
        _raise_broken(BOX_RULES, self.upper, self.lower)

    @property
    def is_point(self) -> bool:
        return all(
            np.array_equal(getattr(self.lower, n), getattr(self.upper, n))
            for n in PARAM_FIELDS)


def _box_admissible(upper, lower) -> np.ndarray:
    """Would ``ParamBounds`` accept the corners, per candidate on the leading axes?

    upper and lower carry the fields of ``FreewayParams`` (u_max included)
    as arrays with cells on the last axis; any leading axes stack candidate
    boxes. The answer is the one construction gives from the same rules.
    """
    return (_rules_hold(RANGE_RULES, upper) & _rules_hold(RANGE_RULES, lower)
            & _rules_hold(BOX_RULES, upper, lower))


class _Side(NamedTuple):
    """The named intermediates of one flow interface; cells on the last axis."""

    vx: np.ndarray    # speed-line flow v*x of the sending cell
    thr: np.ndarray   # drop threshold c / v of the ceiling's reading
    keep: np.ndarray  # no-drop flag: the reading sits at or below thr
    xi: np.ndarray    # switched ceiling, c or alpha*c
    d: np.ndarray     # sending flow min(vx, xi)
    s: np.ndarray     # affine receiving flow (w/beta)(x_jam - x) downstream
    f: np.ndarray     # realized flow min(d, max(0, s))


class _TubeFlows(NamedTuple):
    """Everything one one-sided tube step computes."""

    out: _Side        # flow leaving every cell (no supply for the last one)
    merge: _Side      # flow from cells 1..I-1 into cells 2..I
    next: np.ndarray  # stacked next state


def _sending(x, z, v, c, alpha, v_threshold):
    """Speed line read at x, ceiling read at z.

    The ceiling switches to the dropped value alpha*c once z passes
    c / v_threshold; the boundary keeps full capacity, matching the plant.
    """
    thr = c / v_threshold
    keep = z <= thr
    vx = v * x
    xi = np.where(keep, c, alpha * c)
    return vx, thr, keep, xi, np.minimum(vx, xi)


def _tube_flows(x, z, u, lam, primary, secondary) -> _TubeFlows:
    """One tube step from the split tuples; broadcasts over leading axes.

    primary is (beta, v, w, x_jam, c_max, alpha) and secondary is the same
    without beta. All arrays; cells along the last axis. The receiving flow
    stays affine (negative above x_jam, which interval arithmetic can reach
    when the jam bound is read from the opposite corner of the box); only
    the realized flow clamps it at zero. Its cap at the upstream capacity
    is left out because the sending flow never exceeds that capacity.
    """
    beta_a, v_a, w_a, xjam_a, c_a, alpha_a = primary
    v_b, w_b, xjam_b, c_b, alpha_b = secondary
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    xm, xr = x[..., :n], x[..., n:]
    zm = np.asarray(z, dtype=float)[..., :n]

    # cell outflow, read from the secondary tuple except for the drop
    # threshold denominator and the supply's beta, which cross over
    vx, thr, keep, xi, d = _sending(xm, xm, v_b, c_b, alpha_b, v_a)
    s = (w_b[..., 1:] / beta_a) * (xjam_b[..., 1:] - xm[..., 1:])
    f = d.copy()
    f[..., :-1] = np.minimum(d[..., :-1], np.maximum(0.0, s))
    out = _Side(vx, thr, keep, xi, d, s, f)

    # merge inflow into cells 2..I: what the upstream cell offers, throttled
    # by the space this cell advertises, all read from the primary tuple
    vx, thr, keep, xi, d = _sending(xm[..., :-1], zm[..., :-1], v_a[..., :-1],
                                    c_a[..., :-1], alpha_a[..., :-1], v_b[..., :-1])
    s = (w_a[..., 1:] / beta_a) * (xjam_a[..., 1:] - xm[..., 1:])
    merge = _Side(vx, thr, keep, xi, d, s, np.minimum(d, np.maximum(0.0, s)))

    shape = np.broadcast_shapes(xm.shape, np.shape(u))
    inflow = np.zeros(shape)
    inflow += u
    inflow[..., 1:] += beta_a * merge.f
    next_m = (xm + inflow) - out.f
    next_r = (xr + lam) - u
    return _TubeFlows(out, merge,
                      np.concatenate(np.broadcast_arrays(next_m, next_r), axis=-1))


def _primary_tuple(p: FreewayParams):
    return (p.beta, p.v, p.w, p.x_jam, p.c_max, p.alpha)


def _secondary_tuple(p: FreewayParams):
    return (p.v, p.w, p.x_jam, p.c_max, p.alpha)


def _clamped_step(up, lo, u, demand: DemandBounds, upper, lower):
    """Both tube components one step, clamped to physical ranges.

    up and lo are the state bracket; upper and lower are the box's corners,
    anything with the parameter fields as attributes. Leading axes of the
    bracket or the corners' arrays stack boxes; the bracket must carry them
    all. Returns the next (up, lo).
    """
    nxt_up = _tube_flows(up, lo, u, demand.upper,
                         _primary_tuple(upper), _secondary_tuple(lower)).next
    nxt_lo = _tube_flows(lo, up, u, demand.lower,
                         _primary_tuple(lower), _secondary_tuple(upper)).next
    n = nxt_up.shape[-1] // 2
    cap = np.maximum(upper.x_jam, lower.x_jam)
    for arr in (nxt_up, nxt_lo):
        np.clip(arr[..., :n], 0.0, cap, out=arr[..., :n])
        np.clip(arr[..., n:], 0.0, None, out=arr[..., n:])
    return nxt_up, nxt_lo


def lifted_step(lifted: LiftedState, u: np.ndarray, demand: DemandBounds,
                bounds: ParamBounds) -> LiftedState:
    """Advance both tube components one step and clamp to physical ranges.

    Clamping is sound: every trajectory the boxes admit keeps its mainline
    in [0, x_jam] and its queues nonnegative, so tightening the bracket to
    those ranges cannot lose the true state.
    """
    up, lo = _clamped_step(lifted.upper, lifted.lower, u, demand,
                           bounds.upper, bounds.lower)
    if np.any(up < lo - 1e-9):
        raise AssertionError("tube inverted: upper fell below lower")
    return LiftedState(upper=up, lower=lo)

