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
stacked fields. ``ParamBounds.pair`` builds a box's pair on every read and
no box keeps it; a closed loop holds the pair of the box it is using in
its measurement window (``estimators.MeasurementWindow.pair``).

``_tube_flows`` is the one home of the tube's flow arithmetic. The terms
it needs that depend on the parameters alone (the drop thresholds c/v, the
dropped ceilings alpha*c, the supply slopes w/beta and the sliced fields of
the merge side) are computed by ``_terms`` once per pair, and ``_pair``
attaches them, so a propagation that steps one pair several times
computes them once; the kernel reads nothing else of the parameters.
Besides the next state it returns the named intermediates of the outflow
side and the merge side (speed-line flow, drop threshold and no-drop flag,
switched ceiling, sending flow, affine receiving flow, realized flow).
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
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .ctm import RANGE_RULES, FreewayParams, _raise_broken, _rules_hold

PARAM_FIELDS = ("beta", "v", "w", "x_jam", "c_max", "alpha")


class _Pair(NamedTuple):
    """A box's (primary, secondary) sets with the kernel's terms of them."""

    primary: SimpleNamespace
    secondary: SimpleNamespace
    terms: _Terms  # what _tube_flows reads (``_terms``)


def _pair(fields: dict) -> _Pair:
    """The (primary, secondary) sets of fields stacked on a leading component
    axis, upper component first: the secondary sets are the same arrays
    reversed along that axis, as views. Their kernel terms come with them."""
    primary = SimpleNamespace(**fields)
    secondary = SimpleNamespace(**{name: a[::-1] for name, a in fields.items()})
    return _Pair(primary, secondary, _terms(primary, secondary))


def _fields(*sets) -> dict:
    """The fields of parameter sets stacked one per component, in the order given."""
    return {name: np.array([getattr(p, name) for p in sets])
            for name in (*PARAM_FIELDS, "u_max")}


def _stacked(*sets) -> _Pair:
    """The pair of parameter sets stacked one per component, in the order given."""
    return _pair(_fields(*sets))


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
        _raise_broken(BOX_RULES, SimpleNamespace(**_fields(self.upper, self.lower)))

    @property
    def pair(self) -> _Pair:
        """The corners as the kernel's (primary, secondary) pair, upper first.

        Built on every read and kept by no box, so the boxes a log keeps stay
        light; a closed loop holds the pair of the box it is using in its
        measurement window (``MeasurementWindow.pair``).
        """
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


class _SideTerms(NamedTuple):
    """The parameter-only terms of one flow interface; cells on the last axis."""

    v: np.ndarray        # speed of the sending cell's speed line
    c: np.ndarray        # its ceiling c_max
    thr: np.ndarray      # drop threshold c / v of the ceiling's reading
    dropped: np.ndarray  # dropped ceiling alpha*c
    slope: np.ndarray    # supply slope w/beta of the receiving cell
    jam: np.ndarray      # jam occupancy of the receiving cell


class _Terms(NamedTuple):
    """Everything ``_tube_flows`` reads of a pair of parameter sets."""

    out: _SideTerms    # the cell outflow
    merge: _SideTerms  # the merge inflow into cells 2..I
    beta: np.ndarray   # the merge share, from the primary set


def _terms(primary, secondary) -> _Terms:
    """The kernel's parameter-only terms of a (primary, secondary) pair.

    primary and secondary are anything with the parameter fields as
    attributes (``FreewayParams``, or stacked corners); the secondary set's
    beta is never read. Each term is one elementwise operation on the
    fields (slices of them on the merge side), so it has the same bits
    whether it is built for one kernel call or kept on a pair for many.
    """
    a, b = primary, secondary
    # cell outflow, read from the secondary set except for the drop
    # threshold denominator and the supply's beta, which cross over
    out = _SideTerms(b.v, b.c_max, b.c_max / a.v, b.alpha * b.c_max,
                     b.w[..., 1:] / a.beta, b.x_jam[..., 1:])
    # merge inflow into cells 2..I: what the upstream cell offers, throttled
    # by the space this cell advertises, all read from the primary set
    c = a.c_max[..., :-1]
    merge = _SideTerms(a.v[..., :-1], c, c / b.v[..., :-1], a.alpha[..., :-1] * c,
                       a.w[..., 1:] / a.beta, a.x_jam[..., 1:])
    return _Terms(out, merge, a.beta)


def _sending(x, z, t: _SideTerms):
    """Speed line read at x, ceiling read at z.

    The ceiling switches to the dropped value alpha*c once z passes the
    drop threshold; the boundary keeps full capacity, matching the plant.
    """
    keep = z <= t.thr
    vx = t.v * x
    xi = np.where(keep, t.c, t.dropped)
    return vx, t.thr, keep, xi, np.minimum(vx, xi)


def _tube_flows(x, z, u, lam, terms: _Terms) -> _TubeFlows:
    """One tube step from a pair's kernel terms; broadcasts over leading axes.

    terms are the parameter-only terms of the split parameter sets
    (``_terms``), computed once per pair; a ``_Pair`` carries them. All
    arrays; cells along the last axis; x carries every leading axis and the
    other arguments broadcast against it. The receiving flow stays affine
    (negative above x_jam, which interval arithmetic can reach when the jam
    bound is read from the opposite corner of the box); only the realized
    flow clamps it at zero. Its cap at the upstream capacity is left out
    because the sending flow never exceeds that capacity.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    xm, xr = x[..., :n], x[..., n:]
    zm = np.asarray(z, dtype=float)[..., :n]

    t = terms.out
    vx, thr, keep, xi, d = _sending(xm, xm, t)
    s = t.slope * (t.jam - xm[..., 1:])
    f = d.copy()
    f[..., :-1] = np.minimum(d[..., :-1], np.maximum(0.0, s))
    out = _Side(vx, thr, keep, xi, d, s, f)

    t = terms.merge
    vx, thr, keep, xi, d = _sending(xm[..., :-1], zm[..., :-1], t)
    s = t.slope * (t.jam - xm[..., 1:])
    merge = _Side(vx, thr, keep, xi, d, s, np.minimum(d, np.maximum(0.0, s)))

    # the inflow u + beta*f, no merge into cell 0; the next state is written
    # into one array shaped like x
    inflow = np.empty(merge.f.shape[:-1] + (n,))
    inflow[..., 0] = 0.0
    np.multiply(terms.beta, merge.f, out=inflow[..., 1:])
    inflow = u + inflow
    nxt = np.empty(x.shape)
    np.add(xm, inflow, out=nxt[..., :n])
    nxt[..., :n] -= out.f
    np.add(xr, lam, out=nxt[..., n:])
    nxt[..., n:] -= u
    return _TubeFlows(out, merge, nxt)


def _clamped_step(x, u, lam, pair: _Pair):
    """Both tube components one step, clamped to physical ranges.

    x is the bracket, the upper component before the lower on its leading
    axis, and lam the components' arrivals, (2, I) in the same order; pair
    is a box's (primary, secondary) sets stacked the same way (``_pair``).
    The axes between the component axis and the cells stack boxes; x must
    carry them all. One kernel call steps both components, and the next
    bracket is clamped in place and returned.
    """
    jam = pair.primary.x_jam
    lam = lam.reshape((2,) + (1,) * (x.ndim - 2) + lam.shape[-1:])
    nxt = _tube_flows(x, x[::-1], u, lam, pair.terms).next
    # max-then-min is np.clip's arithmetic, in two whole-array passes
    np.maximum(nxt, 0.0, out=nxt)
    main = nxt[..., :lam.shape[-1]]
    np.minimum(main, np.maximum(jam[0], jam[1]), out=main)
    return nxt


def lifted_step(lifted: LiftedState, u: np.ndarray, demand: DemandBounds,
                pair: _Pair) -> LiftedState:
    """Advance both tube components one step and clamp to physical ranges.

    pair is the parameter box's kernel pair (``ParamBounds.pair``, or the
    one a measurement window holds for the box). Clamping is sound: every
    trajectory the boxes admit keeps its mainline in [0, x_jam] and its
    queues nonnegative, so tightening the bracket to those ranges cannot
    lose the true state.
    """
    x = _clamped_step(np.array([lifted.upper, lifted.lower]), u,
                      np.array([demand.upper, demand.lower]), pair)
    if np.any(x[0] < x[1] - 1e-9):
        raise AssertionError("tube inverted: upper fell below lower")
    return LiftedState(upper=x[0], lower=x[1])
