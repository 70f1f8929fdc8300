"""One-sided tube dynamics for the metered freeway.

The plant map is not order preserving (outflow jumps down when a cell tips
past its critical occupancy), so interval prediction goes through a
two-argument decomposition instead: ``_tube_flows`` evaluates the next state
from an own state x with its arrivals lam, an other-component state z, and
two parameter sets, a primary one that pushes the result up and a secondary
one that pulls it down. Evaluating it for both components, with the states
and the sets exchanged, brackets every trajectory the uncertainty boxes
allow.

Every tube step evaluates both components in one call on a leading
component axis, the upper component first: the bracket is one
``(2, ..., 2I)`` array ``x`` whose other component is ``x[::-1]``, and
the primary sets are the box's corners stacked the same way (upper corner
first), so the secondary sets are the same arrays reversed, as views.
``_stacked`` builds that pair from parameter sets and ``_pair`` from
stacked fields; ``ParamBounds.pair`` holds a box's pair, built once.

``_tube_flows`` is the one home of the tube's flow arithmetic. Besides the
next state it returns the named intermediates of the outflow side and the
merge side (speed-line flow, drop threshold and no-drop flag, switched
ceiling, sending flow, affine receiving flow, realized flow).
``_clamped_step`` steps a bracket with one kernel call and clamps it in
place; it serves ``lifted_step`` and, on stacks of parameter boxes, the
certificate in :mod:`rampflow.estimators`. The planner in :mod:`rampflow.mpc`
scatters the sending and realized flows and the selectors into its MILP
columns, and evaluates every intermediate at box corners for the ranges of
its columns and terms, which set the big-M constants. The plant in :mod:`rampflow.ctm` is a separate
implementation on purpose: it is the reference the tube is tested against.

Which set each parameter is read from, fixed here and relied on by the
set-membership code:

==================  =========================================
primary (raises)    beta, and v/w/x_jam/c_max/alpha where
                    they feed the merge inflow; v also appears
                    here as the outflow drop threshold
                    denominator
secondary (lowers)  v/w/x_jam/c_max/alpha where they feed the
                    cell outflow; v also appears here as the
                    inflow drop threshold denominator
==================  =========================================

beta is read from the primary set only: the merge term multiplies beta
back against a supply that divides by the same beta, so one value serves
both.

On the diagonal (one set in both places, z equal to x) the map reproduces
``ctm.compact_step`` bit for bit: it computes in the plant's operation order
on purpose, and the plant's cap of the supply at the upstream capacity,
which the kernel leaves out, never changes the realized flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .ctm import RANGE_RULES, FreewayParams, _raise_broken, _rules_hold

PARAM_FIELDS = ("beta", "v", "w", "x_jam", "c_max", "alpha")


def _pair(fields: dict) -> tuple[SimpleNamespace, SimpleNamespace]:
    """The (primary, secondary) sets of fields stacked on a leading component
    axis, upper component first: the secondary sets are the same arrays
    reversed along that axis, as views."""
    return (SimpleNamespace(**fields),
            SimpleNamespace(**{name: a[::-1] for name, a in fields.items()}))


def _stacked(*sets) -> tuple[SimpleNamespace, SimpleNamespace]:
    """The pair of parameter sets stacked one per component, in the order given."""
    return _pair({name: np.array([getattr(p, name) for p in sets])
                  for name in (*PARAM_FIELDS, "u_max")})


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
# (message, rule(primary)) pairs in the order construction checks them; the
# rules read the primary sets of the box's pair, upper corner at index 0.
BOX_RULES = tuple(
    (f"lower bound of {name} exceeds upper bound",
     lambda p, name=name: getattr(p, name)[1] > getattr(p, name)[0] + 1e-12)
    for name in PARAM_FIELDS) + (
    ("tube propagation needs v + w <= 1 per cell",
     lambda p: p.v[0] + p.w[0] > 1.0 + 1e-12),
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
        _raise_broken(BOX_RULES, self.pair[0])

    @cached_property
    def pair(self) -> tuple[SimpleNamespace, SimpleNamespace]:
        """The corners as the kernel's (primary, secondary) pair, upper first."""
        return _stacked(self.upper, self.lower)

    @property
    def is_point(self) -> bool:
        return all(
            np.array_equal(getattr(self.lower, n), getattr(self.upper, n))
            for n in PARAM_FIELDS)


def _box_admissible(primary) -> np.ndarray:
    """Would ``ParamBounds`` accept the boxes, per candidate on the stacking axes?

    primary is the primary half of a pair: the fields of ``FreewayParams``
    (u_max included) stacked on a leading component axis, upper corner
    first, with cells on the last axis; the axes between stack candidate
    boxes. Both corners' ranges come from one pass of the rules over the
    pair. The answer is the one construction gives from the same rules.
    """
    corners = _rules_hold(RANGE_RULES, primary)
    return corners[0] & corners[1] & _rules_hold(BOX_RULES, primary)


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
    """One tube step from the split parameter sets; broadcasts over leading axes.

    primary and secondary are anything with the parameter fields as
    attributes (``FreewayParams``, or stacked corners); the secondary set's
    beta is never read. All arrays; cells along the last axis; x carries
    every leading axis and the other arguments broadcast against it. The
    receiving flow stays affine (negative above x_jam, which interval
    arithmetic can reach when the jam bound is read from the opposite
    corner of the box); only the realized flow clamps it at zero. Its cap
    at the upstream capacity is left out because the sending flow never
    exceeds that capacity.
    """
    a, b = primary, secondary
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    xm, xr = x[..., :n], x[..., n:]
    zm = np.asarray(z, dtype=float)[..., :n]

    # cell outflow, read from the secondary set except for the drop
    # threshold denominator and the supply's beta, which cross over
    vx, thr, keep, xi, d = _sending(xm, xm, b.v, b.c_max, b.alpha, a.v)
    s = (b.w[..., 1:] / a.beta) * (b.x_jam[..., 1:] - xm[..., 1:])
    f = d.copy()
    f[..., :-1] = np.minimum(d[..., :-1], np.maximum(0.0, s))
    out = _Side(vx, thr, keep, xi, d, s, f)

    # merge inflow into cells 2..I: what the upstream cell offers, throttled
    # by the space this cell advertises, all read from the primary set
    vx, thr, keep, xi, d = _sending(xm[..., :-1], zm[..., :-1], a.v[..., :-1],
                                    a.c_max[..., :-1], a.alpha[..., :-1], b.v[..., :-1])
    s = (a.w[..., 1:] / a.beta) * (a.x_jam[..., 1:] - xm[..., 1:])
    merge = _Side(vx, thr, keep, xi, d, s, np.minimum(d, np.maximum(0.0, s)))

    # the inflow u + beta*f, no merge into cell 0; the next state is written
    # into one array shaped like x
    inflow = np.empty(merge.f.shape[:-1] + (n,))
    inflow[..., 0] = 0.0
    np.multiply(a.beta, merge.f, out=inflow[..., 1:])
    inflow = u + inflow
    nxt = np.empty(x.shape)
    np.add(xm, inflow, out=nxt[..., :n])
    nxt[..., :n] -= out.f
    np.add(xr, lam, out=nxt[..., n:])
    nxt[..., n:] -= u
    return _TubeFlows(out, merge, nxt)


def _clamped_step(x, u, lam, pair):
    """Both tube components one step, clamped to physical ranges.

    x is the bracket, the upper component before the lower on its leading
    axis, and lam the components' arrivals, (2, I) in the same order; pair
    is a box's (primary, secondary) sets stacked the same way (``_pair``).
    The axes between the component axis and the cells stack boxes; x must
    carry them all. One kernel call steps both components, and the next
    bracket is clamped in place and returned.
    """
    prim, sec = pair
    lam = lam.reshape((2,) + (1,) * (x.ndim - 2) + lam.shape[-1:])
    nxt = _tube_flows(x, x[::-1], u, lam, prim, sec).next
    # max-then-min is np.clip's arithmetic, in two whole-array passes
    np.maximum(nxt, 0.0, out=nxt)
    main = nxt[..., :lam.shape[-1]]
    np.minimum(main, np.maximum(prim.x_jam[0], prim.x_jam[1]), out=main)
    return nxt


def lifted_step(lifted: LiftedState, u: np.ndarray, demand: DemandBounds,
                bounds: ParamBounds) -> LiftedState:
    """Advance both tube components one step and clamp to physical ranges.

    Clamping is sound: every trajectory the boxes admit keeps its mainline
    in [0, x_jam] and its queues nonnegative, so tightening the bracket to
    those ranges cannot lose the true state.
    """
    x = _clamped_step(np.array([lifted.upper, lifted.lower]), u,
                      np.array([demand.upper, demand.lower]), bounds.pair)
    if np.any(x[0] < x[1] - 1e-9):
        raise AssertionError("tube inverted: upper fell below lower")
    return LiftedState(upper=x[0], lower=x[1])

