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
``_terms`` lays the two flow interfaces out on one side axis just before
the cells, the cell outflow first and the merge inflow second, padded to
the same I cells, and gives every term all the stacking axes of the pair.
Each kernel operation then runs once over both interfaces and over whole
contiguous arrays, which is what a step of a small stack costs: numpy's
per-call overhead, not arithmetic. Besides the next state the kernel
returns the named intermediates of both sides (speed-line flow, drop
threshold and no-drop flag, switched ceiling, sending flow, affine
receiving flow, realized flow) on that axis; ``out`` and ``merge`` read
one side as views. ``_clamped_step`` steps a bracket with one kernel call
and clamps it in place; it serves ``lifted_step`` and, on stacks of
parameter boxes, the certificate in :mod:`rampflow.estimators`. The
planner in :mod:`rampflow.mpc` scatters the sending and realized flows
and the selectors into its MILP columns, and evaluates every intermediate
at box corners for the ranges of its columns and terms, which set the
big-M constants. The plant in :mod:`rampflow.ctm` is a separate
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

    @cached_property
    def is_point(self) -> bool:
        """Whether both corners are the same parameter set; a box is frozen,
        so its corners are compared once."""
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
    """Everything one one-sided tube step computes.

    The intermediates of both flow interfaces lie on the side axis before
    the cells, as ``_Terms`` lays them out; ``out`` and ``merge`` read one
    side of them as a ``_Side`` of views, built when read.
    """

    vx: np.ndarray
    thr: np.ndarray
    keep: np.ndarray
    xi: np.ndarray
    d: np.ndarray
    s: np.ndarray
    f: np.ndarray
    next: np.ndarray  # stacked next state

    def _side(self, k: int, cells) -> _Side:
        at, s_at = (..., k, slice(cells)), (..., k, slice(-1))
        return _Side(self.vx[at], self.thr[at], self.keep[at], self.xi[at],
                     self.d[at], self.s[s_at], self.f[at])

    @property
    def out(self) -> _Side:
        """The flow leaving every cell (no supply for the last one)."""
        return self._side(0, None)

    @property
    def merge(self) -> _Side:
        """The flow from cells 1..I-1 into cells 2..I."""
        return self._side(1, -1)


class _Terms(NamedTuple):
    """Everything ``_tube_flows`` and the clamp of ``_clamped_step`` read of
    a pair of parameter sets.

    The two flow interfaces lie on one side axis just before the cells:
    the cell outflow first, then the merge inflow into cells 2..I. Every
    term but beta is one contiguous array with every stacking axis of the
    pair, so the kernel's operations run over whole arrays. The sending
    cell's terms have I cells, the merge side's I - 1 padded with one zero
    cell that nothing reads. The receiving cell's terms have the I - 1
    receiving cells padded with one infinite cell, whose receiving flow is
    infinite, so the realized flow there is the sending flow: the last
    cell's outflow, which has no supply.
    """

    v: np.ndarray        # speed of the sending cell's speed line
    c: np.ndarray        # its ceiling c_max
    thr: np.ndarray      # drop threshold c / v of the ceiling's reading
    dropped: np.ndarray  # dropped ceiling alpha*c
    slope: np.ndarray    # supply slope w/beta of the receiving cell
    jam: np.ndarray      # jam occupancy of the receiving cell
    beta: np.ndarray     # the merge share, from the primary set
    ceiling: np.ndarray  # per state entry, the clamp's ceiling: the larger
    #                      corner's x_jam on the mainline, inf on the queues


def _terms(primary, secondary) -> _Terms:
    """The kernel's parameter-only terms of a (primary, secondary) pair.

    primary and secondary are anything with the parameter fields as
    attributes (``FreewayParams``, or stacked corners); the secondary set's
    beta is never read. Each term is one elementwise operation on the
    fields (slices of them on the merge side), so it has the same bits
    whether it is built for one kernel call or kept on a pair for many.
    """
    a, b = primary, secondary
    n = np.shape(a.v)[-1]
    lead = np.broadcast(*(getattr(p, f)[..., :0]
                          for p in (a, b) for f in PARAM_FIELDS)).shape[:-1]
    # the six side-axis terms share one buffer, each of them contiguous
    terms = np.empty((6,) + lead + (2, n))
    v, c, thr, dropped, slope, jam = terms
    terms[:4, ..., 1, -1] = 0.0
    terms[4:, ..., -1] = np.inf
    # the cell outflow is read from the secondary set except for the drop
    # threshold denominator and the supply's beta, which cross over
    out, supply = (..., 0, slice(None)), (..., 0, slice(-1))
    v[out] = b.v
    c[out] = b.c_max
    thr[out] = b.c_max / a.v
    dropped[out] = b.alpha * b.c_max
    slope[supply] = b.w[..., 1:] / a.beta
    jam[supply] = b.x_jam[..., 1:]
    # the merge inflow into cells 2..I, what the upstream cell offers
    # throttled by the space this cell advertises, is all read from the
    # primary set
    merge = (..., 1, slice(-1))
    cap = a.c_max[..., :-1]
    v[merge] = a.v[..., :-1]
    c[merge] = cap
    thr[merge] = cap / b.v[..., :-1]
    dropped[merge] = a.alpha[..., :-1] * cap
    slope[merge] = a.w[..., 1:] / a.beta
    jam[merge] = a.x_jam[..., 1:]
    ceiling = np.empty(lead + (2 * n,))
    ceiling[..., :n] = np.maximum(a.x_jam, b.x_jam)
    ceiling[..., n:] = np.inf
    return _Terms(v, c, thr, dropped, slope, jam, a.beta, ceiling)


def _tube_flows(x, z, u, lam, terms: _Terms) -> _TubeFlows:
    """One tube step from a pair's kernel terms; broadcasts over leading axes.

    terms are the parameter-only terms of the split parameter sets
    (``_terms``), computed once per pair; a ``_Pair`` carries them. All
    arrays; cells along the last axis; x carries every leading axis and the
    other arguments broadcast against it. Both flow interfaces go through
    each operation at once on the terms' side axis. The sending flow reads
    its speed line at x and its ceiling at x on the outflow side, at z on
    the merge side; the ceiling switches to the dropped value alpha*c once
    the reading passes the drop threshold, and the boundary keeps full
    capacity, matching the plant. The receiving flow reads the downstream
    cell's occupancy and stays affine (negative above x_jam, which interval
    arithmetic can reach when the jam bound is read from the opposite
    corner of the box); only the realized flow clamps it at zero. Its cap
    at the upstream capacity is left out because the sending flow never
    exceeds that capacity.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    t = terms
    # the occupancies each side reads, on the side axis: its own for the
    # speed line, the ceiling's reading, and the downstream cell's. down is
    # own one entry on, so the last cell reads the next row's first or,
    # at the very end, a zero: any finite value, since its receiving terms
    # are infinite
    shape = x.shape[:-1] + (2, n)
    flat = np.empty(x.size + 1)
    flat[-1] = 0.0
    own, down = flat[:-1].reshape(shape), flat[1:].reshape(shape)
    own[...] = x[..., None, :n]
    reading = own.copy()
    reading[..., 1, :] = np.asarray(z, dtype=float)[..., :n]
    keep = reading <= t.thr
    vx = t.v * own
    xi = np.where(keep, t.c, t.dropped)
    d = np.minimum(vx, xi)
    s = t.slope * (t.jam - down)
    f = np.minimum(d, np.maximum(0.0, s))

    # the next state, with the mainline and the queues on a half axis
    # before the cells: x + arrive - leave, where the mainline gains
    # u + beta*f from the merge (none into cell 0) and loses its outflow,
    # and the queues gain their arrivals and lose u
    arrive = np.empty(shape)
    arrive[..., 0, 0] = 0.0
    np.multiply(t.beta, f[..., 1, :-1], out=arrive[..., 0, 1:])
    arrive[..., 0, :] += u
    arrive[..., 1, :] = lam
    leave = f.copy()
    leave[..., 1, :] = u
    nxt = x.reshape(shape) + arrive
    nxt -= leave
    return _TubeFlows(vx, t.thr, keep, xi, d, s, f, nxt.reshape(x.shape))


def _clamped_step(x, u, lam, pair: _Pair):
    """Both tube components one step, clamped to physical ranges.

    x is the bracket, the upper component before the lower on its leading
    axis, and lam the components' arrivals, (2, I) in the same order; pair
    is a box's (primary, secondary) sets stacked the same way (``_pair``).
    The axes between the component axis and the cells stack boxes; x must
    carry them all. One kernel call steps both components, and the next
    bracket is clamped in place and returned.
    """
    lam = lam.reshape((2,) + (1,) * (x.ndim - 2) + lam.shape[-1:])
    nxt = _tube_flows(x, x[::-1], u, lam, pair.terms).next
    # max-then-min is np.clip's arithmetic, in two whole-array passes
    np.maximum(nxt, 0.0, out=nxt)
    np.minimum(nxt, pair.terms.ceiling, out=nxt)
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
