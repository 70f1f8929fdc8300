"""Mixed-binary linear programs with a self-contained solver.

The optimizer behind the predictive controller.  Everything is in-house:
node relaxations go through the bounded-variable simplex in
:mod:`rampflow._simplex`, binaries through best-bound branch and bound with
depth-first plunging, in one node loop: each node is popped from the pool
or plunged into, and the node budget is checked once per node.  Before its
LP, each node's box is propagated over the rows from its parent's
propagated box, and the gadget selectors the box decides join the node's
fixes; a box that crosses a row or a bound by more than a margin closes
the node without solving it.  The LP sees the fixes, never the propagated
continuous bounds.  A plunge child continues its parent's final basis
factors and eta file, and a child's LP is reoptimised by the dual
simplex.  A model without binaries is solved at its root node.  No
external solver is used.

Models are built through :class:`ModelBuilder`, which hands out column and
row indices and records the two gadget encodings the controller needs.
Every model minimises.  Every column is boxed:
:meth:`ModelBuilder.add_variable` rejects a bound that is not finite.  The
big-M constants are read off the boxes, and the simplex relies on them: a
boxed program is never unbounded.

``encode_min_equality``
    ``f = min(a, b)`` over two :class:`Term` operands, each one column
    times a coefficient plus a constant with a declared range; one binary
    selector, big-M constants derived from the ranges.

``encode_capacity_drop``
    the discharge-capacity switch on a state column: a binary that is 1
    exactly on the uncongested branch, with the threshold boundary
    admitting the uncongested choice.  The switched capacity itself is a
    term over that binary.

Both take one gadget as scalars or a block of them as arrays, and record
their operands on the model as arrays, which :meth:`ModelBuilder.fix_decided`
and the node loop of :func:`solve_milp` read; :func:`dump_model` reads them
as gadget records.

Incumbents come from three sources: caller-supplied ``initial_candidates``,
the caller's ``incumbent_hook`` at every fractional node, and node
relaxations that come out integral.

Text dumps (:func:`dump_model`) use a line grammar, one record per line,
floats in shortest round-trip form::

    milp <name>
    sense min
    vars <n>
    var <idx> <name> lower <v> upper <v> obj <v> [binary]
    rows <m>
    row <idx> <name> <L|E|G> <rhs> : <coef>*<varidx> ...
    gadget min f=<i> a=<col>:<coef>:<const>:<lo>:<hi> b=... z=<i>
    gadget drop x=<i> z=<i> crit=<v>
    end

Statuses: ``optimal`` (gap certified within tolerance), ``infeasible``,
``budget_exceeded`` (node budget ran out; the incumbent and the proven
bound are still reported).  No solve returns ``unbounded``; the name stays
for the counters that read it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# NumericalBreakdown escapes solve_milp; callers catch it as milp.NumericalBreakdown
from ._simplex import (  # noqa: F401
    _TOL_FEAS,
    EqualityForm,
    NumericalBreakdown,
    WarmBasis,
    crash_from_point,
    solve_canonical,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BUDGET_EXCEEDED = "budget_exceeded"

_INT_TOL = 1e-7
# sweeps over the rows per node, and the relative move that counts as progress
_PROPAGATION_ROUNDS = 100
_PROPAGATION_MOVE = 1e-3
# a node closes when its box crosses a row or a bound by more than this many
# times the phase-1 acceptance of the LP, _simplex._TOL_FEAS * (1 + sum|b|)
_PROPAGATION_MARGIN = 1e3


@dataclass
class LinearProgram:
    """Columns, rows and an objective; the plain continuous problem."""

    name: str
    obj: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    col_names: list[str]
    a: sp.csc_matrix  # row coefficients, n_rows x n_cols
    row_senses: np.ndarray
    rhs: np.ndarray
    row_names: list[str]
    sense = "min"  # every model minimises; perfbench/highs_ref.py reads it

    @property
    def n_cols(self) -> int:
        return self.obj.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rhs.shape[0]

    def matrix(self) -> sp.csc_matrix:
        return self.a


class Term(NamedTuple):
    """``coef * x[col] + const``, which lies in ``[lo, hi]`` on the model's boxes.

    The array form of :func:`encode_min_equality` reads one term per gadget
    from fields that are arrays in the shape of the gadgets' results.
    """

    col: int
    coef: float
    const: float
    lo: float
    hi: float


@dataclass(frozen=True)
class MinGadget:
    f: int
    a: Term
    b: Term
    z: int


@dataclass(frozen=True)
class DropGadget:
    x: int
    z: int
    x_crit: float


class _Operands(NamedTuple):
    """Every gadget of a model as arrays: the min gadgets first, then the
    drops, each kind in the order of its selector columns.  ``left`` and
    ``right`` hold one column of operand fields (col, coef, const, lo, hi)
    per gadget: a min gadget's terms ``a`` and ``b``, a drop's term ``x``
    and its constant ``x_crit``.  ``f`` holds the min gadgets' results."""

    z: np.ndarray
    f: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _no_gadgets() -> _Operands:
    return _Operands(np.zeros(0, np.int64), np.zeros(0, np.int64),
                     np.zeros((5, 0)), np.zeros((5, 0)))


@dataclass
class MilpModel:
    """A linear program plus its binary columns and gadget operands."""

    lp: LinearProgram
    binaries: np.ndarray  # sorted column indices
    operands: _Operands = field(default_factory=_no_gadgets)

    @cached_property
    def gadgets(self) -> list:
        """The gadget records, in the order of their selector columns, which
        is the order the gadgets were added in."""
        z, f = self.operands.z.tolist(), self.operands.f.tolist()
        left, right = self.operands.left.T.tolist(), self.operands.right.T.tolist()
        m = len(f)
        records = [MinGadget(fk, Term(int(a[0]), *a[1:]), Term(int(b[0]), *b[1:]), zk)
                   for zk, fk, a, b in zip(z, f, left, right)]
        records += [DropGadget(int(x[0]), zk, crit[2])
                    for zk, x, crit in zip(z[m:], left[m:], right[m:])]
        return sorted(records, key=lambda g: g.z)


@dataclass(frozen=True)
class MilpBudget:
    max_nodes: int = 100_000
    gap_abs: float = 1e-6
    gap_rel: float = 0.0


@dataclass
class Solution:
    status: str
    x: np.ndarray
    objective: float
    bound: float  # proven lower bound on the objective
    gap: float
    nodes: int
    iterations: int


def _at_least_zero(v):
    """``max(v, 0.0)`` elementwise, the sign of a zero kept as Python's max keeps it."""
    return np.where(0.0 > v, 0.0, v)


def _cat(blocks: list, empty: np.ndarray) -> np.ndarray:
    return np.concatenate(blocks, axis=-1) if blocks else empty


def _block(v, k: int) -> np.ndarray:
    """One float per member of a block of k: an array of that size in any
    shape, flattened, or one scalar for all."""
    v = np.asarray(v, dtype=float)
    return v.reshape(k) if v.ndim else np.full(k, v)


class ModelBuilder:
    """Accumulates columns and rows; hands out integer indices.

    Each method adds one column, row or gadget from scalars, or a block of
    them from arrays with one entry per member, which is what the planner
    uses: a sequence of names makes the call a block, and the answer is then
    an index array.  ``build`` can place the columns and rows in positions
    other than the order they were added in.
    """

    def __init__(self, name: str):
        self.name = name
        self.obj: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.col_names: list[str] = []
        self.binary: list[int] = []
        self._entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.row_names: list[str] = []
        # blocks of (f, a, b, z) per min gadget and (x, z, x_crit) per drop
        self._mins: list[tuple] = []
        self._drops: list[tuple] = []
        self._n_gadgets = 0

    @property
    def n_cols(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_variable(
        self,
        name: str | list[str] | None = None,
        *,
        lower=0.0,
        upper=np.inf,
        objective=0.0,
        binary: bool = False,
    ):
        """Add a column and return its index, or one column per name of a
        sequence and return their indices.

        Both bounds must be finite, so a continuous column needs an explicit
        ``upper``; a binary is clipped to [0, 1].
        """
        one = name is None or isinstance(name, str)
        j, k = len(self.obj), 1 if one else len(name)
        lower, upper, objective = (_block(v, k) for v in (lower, upper, objective))
        if binary:
            lower = _at_least_zero(lower)
            upper = np.where(1.0 < upper, 1.0, upper)
        for bad, what in ((~(np.isfinite(lower) & np.isfinite(upper)), "needs finite bounds"),
                          (lower > upper + 1e-12, "has lower > upper")):
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(f"variable {(name if one else name[i]) or j + i} {what}")
        ids = np.arange(j, j + k)
        if binary:
            self.binary.extend(ids.tolist())
        self.obj.extend(objective.tolist())
        self.lower.extend(lower.tolist())
        self.upper.extend(upper.tolist())
        self.col_names.extend([name if name is not None else f"v{j}"] if one else name)
        return j if one else ids

    def add_row(self, coeffs, sense, rhs, name: str | list[str] | None = None):
        """Add a row and return its index; ``coeffs`` maps columns to
        coefficients.  With a sequence of names, add one row per name and
        return their indices: ``coeffs`` is then a sequence of (columns,
        coefficients) pairs, each giving one entry of every row, and
        ``sense`` one letter for every row or a letter per row.  An
        exactly zero coefficient adds no entry."""
        one = isinstance(coeffs, dict)
        i, k = len(self.rhs), 1 if one else len(name)
        senses = [sense] * k if isinstance(sense, str) and len(sense) == 1 else list(sense)
        if len(senses) != k or not set(senses) <= {"L", "E", "G"}:
            raise ValueError("row sense must be 'L', 'E' or 'G'")
        pairs = list(coeffs.items()) if one else coeffs
        cols = np.empty((len(pairs), k), dtype=np.int64)
        vals = np.empty((len(pairs), k))
        for e, (c, v) in enumerate(pairs):
            cols[e], vals[e] = np.reshape(c, -1), np.reshape(v, -1)
        bad = (cols < 0) | (cols >= len(self.obj))
        if bad.any():
            r, e = divmod(int(bad.T.argmax()), cols.shape[0])
            raise IndexError(f"row {(name if one else name[r]) or i + r} "
                             f"references unknown column {cols[e, r]}")
        e, r = (vals != 0.0).nonzero()
        self._entries.append((i + r, cols[e, r], vals[e, r]))
        self.senses.extend(senses)
        self.rhs.extend(_block(rhs, k).tolist())
        self.row_names.extend([name if name is not None else f"r{i}"] if one else name)
        return i if one else np.arange(i, i + k)

    def _tags(self, name, k: int, kind: str) -> list[str]:
        if name is None:
            return [f"{kind}{self._n_gadgets + g}" for g in range(k)]
        return [name] if isinstance(name, str) else list(name)

    def _operands(self) -> _Operands:
        empty = _no_gadgets()
        f, a, b, z_min = (_cat([blk[i] for blk in self._mins], e) for i, e in
                          enumerate((empty.f, empty.left, empty.right, empty.z)))
        x, z_drop, crit = (_cat([blk[i] for blk in self._drops], np.zeros(0, dt))
                           for i, dt in enumerate((np.int64, np.int64, float)))
        one, zero, inf = np.ones_like(crit), np.zeros_like(crit), np.full_like(crit, np.inf)
        return _Operands(np.concatenate([z_min, z_drop]), f,
                         np.concatenate([a, [x, one, zero, -inf, inf]], axis=1),
                         np.concatenate([b, [x, zero, crit, crit, crit]], axis=1))

    def fix_decided(self) -> None:
        """Fix each gadget selector to the branch that every point of the
        column boxes admits, a tie settled as 1 (see :class:`_Selectors`)."""
        selectors = _Selectors(self._operands())
        lower, upper = np.asarray(self.lower), np.asarray(self.upper)
        value = selectors.decide(lower, upper, ties=True)
        k = np.flatnonzero(~np.isnan(value))
        lower[selectors.z[k]] = upper[selectors.z[k]] = value[k]
        self.lower[:], self.upper[:] = lower.tolist(), upper.tolist()

    def build(self, *, order=None) -> MilpModel:
        """The model, its columns and rows in the order they were added, or
        at the positions ``order`` gives: a pair of arrays holding the final
        position of each column and of each row, in the order added."""
        obj, lower, upper = (np.asarray(v, dtype=float)
                             for v in (self.obj, self.lower, self.upper))
        senses, rhs = np.asarray(self.senses, dtype="U1"), np.asarray(self.rhs, dtype=float)
        col_names, row_names = self.col_names, self.row_names
        rows, cols, vals = (_cat([blk[i] for blk in self._entries], np.zeros(0, dt))
                            for i, dt in enumerate((np.int64, np.int64, float)))
        binary = np.asarray(self.binary, dtype=np.int64)
        z, f, left, right = self._operands()
        if order is not None:
            col_at, row_at = (np.asarray(at, dtype=np.int64) for at in order)
            col_of, row_of = (_inverse(at, n) for at, n in ((col_at, self.n_cols),
                                                            (row_at, self.n_rows)))
            obj, lower, upper = obj[col_of], lower[col_of], upper[col_of]
            senses, rhs = senses[row_of], rhs[row_of]
            col_names = [col_names[j] for j in col_of.tolist()]
            row_names = [row_names[r] for r in row_of.tolist()]
            rows, cols = row_at[rows], col_at[cols]
            binary, z, f = col_at[binary], col_at[z], col_at[f]
            left, right = left.copy(), right.copy()
            for terms in (left, right):
                terms[0] = col_at[terms[0].astype(np.int64)]
        # each kind in the order of its selector columns
        m = f.shape[0]
        rank = np.concatenate([np.argsort(z[:m], kind="stable"),
                               m + np.argsort(z[m:], kind="stable")])
        lp = LinearProgram(
            name=self.name,
            obj=obj,
            col_lower=lower,
            col_upper=upper,
            col_names=list(col_names),
            a=sp.csc_matrix((vals, (rows, cols)), shape=(self.n_rows, self.n_cols)),
            row_senses=senses,
            rhs=rhs,
            row_names=list(row_names),
        )
        return MilpModel(lp=lp, binaries=np.sort(binary),
                         operands=_Operands(z[rank], f[rank[:m]], left[:, rank], right[:, rank]))


def _inverse(at: np.ndarray, n: int) -> np.ndarray:
    """The inverse of the permutation ``at`` of ``range(n)``."""
    if not np.array_equal(np.sort(at), np.arange(n)):
        raise ValueError("order must place every column and row exactly once")
    of = np.empty(n, dtype=np.int64)
    of[at] = np.arange(n)
    return of


def _fields(*fields, shape) -> np.ndarray:
    """The fields broadcast to ``shape`` and flattened, one per row."""
    out = np.empty((len(fields),) + shape)
    for i, v in enumerate(fields):
        out[i] = v
    return out.reshape(len(fields), -1)


def _interleave(*per_gadget) -> np.ndarray:
    """The rows of each gadget one after the other, from one array per row."""
    return _fields(*per_gadget, shape=per_gadget[0].shape).T.ravel()


def encode_min_equality(
    builder: ModelBuilder,
    f,
    a: Term,
    b: Term,
    *,
    name: str | list[str] | None = None,
):
    """Add rows forcing ``f = min(a, b)`` and return the selector binary.

    The selector is 1 when ``a`` attains the minimum and 0 when ``b`` does;
    ties admit both.  The big-M constants are ``sup (a - b)+`` and
    ``sup (b - a)+`` over the terms' declared ranges.  With an array ``f``,
    terms whose fields broadcast to its shape and a sequence of names, one
    gadget per entry is added, in C order, each one's selector and four
    rows together, and the selectors come back in ``f``'s shape.
    """
    f = np.asarray(f, dtype=np.int64)
    shape, k = f.shape, f.size
    f = f.reshape(k)
    tags = builder._tags(name, k, "min")
    ta, tb = _fields(*a, shape=shape), _fields(*b, shape=shape)
    ca, cb = ta[0].astype(np.int64), tb[0].astype(np.int64)
    m_a = _at_least_zero(ta[4] - tb[3])
    m_b = _at_least_zero(tb[4] - ta[3])
    z = builder.add_variable([f"{tag}.z" for tag in tags], binary=True)
    zero = np.zeros(k)
    builder.add_row(
        [(np.repeat(f, 4), 1.0),
         (_interleave(ca, cb, ca, cb), _interleave(-ta[1], -tb[1], -ta[1], -tb[1])),
         (np.repeat(z, 4), _interleave(zero, zero, -m_a, m_b))],
        ["L", "L", "G", "G"] * k,
        _interleave(ta[2], tb[2], ta[2] - m_a, tb[2]),
        [f"{tag}.{row}" for tag in tags for row in ("le_a", "le_b", "pick_a", "pick_b")])
    builder._mins.append((f, ta, tb, z))
    builder._n_gadgets += k
    return int(z[0]) if not shape else z.reshape(shape)


def encode_capacity_drop(
    builder: ModelBuilder,
    x,
    x_crit,
    *,
    name: str | list[str] | None = None,
):
    """Add the discharge-capacity switch on ``x`` and return its binary.

    ``z = 1`` forces ``x <= x_crit`` and ``z = 0`` forces ``x >= x_crit``;
    a state exactly on the threshold admits both branches.  The big-M
    constants come from the bounds of ``x``.  With an array ``x``, an
    ``x_crit`` that broadcasts to its shape and a sequence of names, one
    switch per entry is added, in C order, each one's binary and two rows
    together, and the binaries come back in ``x``'s shape.
    """
    x = np.asarray(x, dtype=np.int64)
    shape, k = x.shape, x.size
    x = x.reshape(k)
    tags = builder._tags(name, k, "drop")
    (crit,) = _fields(x_crit, shape=shape)
    lb_x, ub_x = np.asarray(builder.lower)[x], np.asarray(builder.upper)[x]
    z = builder.add_variable([f"{tag}.z" for tag in tags], binary=True)
    builder.add_row(
        [(np.repeat(x, 2), 1.0),
         (np.repeat(z, 2), _interleave(_at_least_zero(ub_x - crit), _at_least_zero(crit - lb_x)))],
        ["L", "G"] * k,
        _interleave(ub_x, crit),
        [f"{tag}.{row}" for tag in tags for row in ("cap", "floor")])
    builder._drops.append((x, z, crit))
    builder._n_gadgets += k
    return int(z[0]) if not shape else z.reshape(shape)


class _Selectors:
    """The gadgets' selectors and the comparisons that decide them on a box.

    A min gadget compares its terms ``a`` and ``b``, each over its declared
    range cut to what its column's box gives; a drop gadget compares ``x``
    with ``x_crit``.  A selector is 1 when the left operand lies strictly
    below the right one at every point of the box and 0 when the right one
    lies strictly below the left: the other branch holds no point of the
    box.  Operands that only touch are a tie, which the builder settles as
    1 (a tied min reads ``a``; a state on the threshold is uncongested)
    and the node loop leaves open, since a subtree's optimum may need
    either branch there.  ``keep`` picks the gadgets to read from the
    model's operands.
    """

    def __init__(self, operands: _Operands, keep=slice(None)):
        self.z = operands.z[keep]
        self.left = operands.left[:, keep]
        self.right = operands.right[:, keep]

    def decide(self, lo: np.ndarray, hi: np.ndarray, *, ties: bool) -> np.ndarray:
        """Each selector's value on the box ``[lo, hi]``, or nan where the
        box leaves it open; ``ties`` settles a tie as 1."""
        a_lo, a_hi = _term_ranges(self.left, lo, hi)
        b_lo, b_hi = _term_ranges(self.right, lo, hi)
        one = a_hi <= b_lo if ties else a_hi < b_lo
        return np.where(one, 1.0, np.where(b_hi < a_lo, 0.0, np.nan))

    def fixes(self, box, fixes: dict[int, float]) -> dict[int, float]:
        """The selectors ``box`` decides that ``fixes`` leaves open."""
        value = self.decide(*box, ties=False)
        return {int(self.z[k]): float(value[k]) for k in np.flatnonzero(~np.isnan(value))
                if int(self.z[k]) not in fixes}


def _term_ranges(terms: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    col = terms[0].astype(np.int64)
    coef, const, t_lo, t_hi = terms[1:]
    at_lo, at_hi = coef * lo[col] + const, coef * hi[col] + const
    return (np.maximum(t_lo, np.minimum(at_lo, at_hi)),
            np.minimum(t_hi, np.maximum(at_lo, at_hi)))


class _RowPropagation:
    """Activity-based bound propagation over the rows of one model.

    Each row's least and greatest activity on a box bound what its other
    entries leave for each column (Achterberg, *Constraint Integer
    Programming*, 2007, ch. 7).  Binaries propagate as the continuous
    columns of the relaxation: a bound is never rounded, so a box this
    closes holds no point of the LP relaxation either.

    One sweep is one sparse product.  With ``P`` and ``N`` the positive and
    negative parts of the rows, ``slack = [rhs_hi - P lo - N hi ;
    P hi + N lo - rhs_lo]`` is how far each row side is from binding at
    the box's worst corner, and an entry ``a`` of column ``j`` caps ``x_j``
    within ``slack / |a|`` of the bound the row read it at.
    """

    def __init__(self, lp: LinearProgram):
        a = lp.matrix()
        (m, n), nnz = a.shape, a.nnz
        rows, up = a.indices, a.data > 0
        # rows [P N ; -N -P] over the stacked box [lo ; hi], and one row of
        # zeros whose slack, +inf, pads every column's list below; column j
        # of the lower half holds a's column j with its negative entries
        # moved down m rows and negated, column n + j the rest
        self.stack = sp.csc_matrix(
            (np.concatenate([np.where(up, a.data, -a.data), np.where(up, -a.data, a.data)]),
             np.concatenate([np.where(up, rows, rows + m), np.where(up, rows + m, rows)]),
             np.concatenate([a.indptr, nnz + a.indptr[1:]])),
            shape=(2 * m + 1, 2 * n)).tocsr()
        self.rhs = np.concatenate([np.where(lp.row_senses == "G", np.inf, lp.rhs),
                                   np.where(lp.row_senses == "L", np.inf, -lp.rhs),
                                   [np.inf]])
        # per column, the slack side that caps it from above (a positive
        # entry's upper side), then the one that caps it from below; each
        # column's list ends on the padding row, so column j's entries sit
        # j places later than in a
        first = a.indptr[:-1] + np.arange(n)
        entry = np.ones(nnz + n, dtype=bool)
        entry[first + np.diff(a.indptr)] = False
        gather = np.full((2, nnz + n), 2 * m, dtype=rows.dtype)
        gather[0, entry] = np.where(up, rows, rows + m)
        gather[1, entry] = np.where(up, rows + m, rows)
        self.gather = gather.ravel()
        inv = np.ones(nnz + n)
        inv[entry] = 1.0 / np.abs(a.data)
        self.inv = np.concatenate([inv, inv])
        self.starts = np.concatenate([first, first + nnz + n])
        self.n = n
        self.margin = _PROPAGATION_MARGIN * _TOL_FEAS * (1.0 + np.abs(lp.rhs).sum())

    def box(self, lo: np.ndarray, hi: np.ndarray, fixes: dict[int, float]):
        """The box ``[lo, hi]`` with ``fixes`` applied and tightened by the
        rows, or ``None`` when it crosses a row or a bound by more than the
        margin."""
        lo, hi = lo.copy(), hi.copy()
        for j, v in fixes.items():
            if not lo[j] - self.margin <= v <= hi[j] + self.margin:
                return None
            lo[j] = hi[j] = v
        n = self.n
        for _ in range(_PROPAGATION_ROUNDS):
            slack = self.rhs - self.stack @ np.concatenate([lo, hi])
            if slack.min() < -self.margin:
                return None
            reach = np.minimum.reduceat(slack[self.gather] * self.inv, self.starts)
            new_hi = np.minimum(hi, lo + reach[:n])
            new_lo = np.maximum(lo, hi - reach[n:])
            if np.any(new_lo > new_hi + self.margin):
                return None
            new_lo = np.minimum(new_lo, new_hi)
            moved = np.maximum(hi - new_hi, new_lo - lo)
            progress = np.any(moved > _PROPAGATION_MOVE * (hi - lo) + 1e-9)
            lo, hi = new_lo, new_hi
            if not progress:
                break
        return lo, hi


def check_solution(model: MilpModel, x: np.ndarray, *, tol: float = 1e-9) -> list[str]:
    """Return human-readable violations of bounds, rows and integrality."""
    lp = model.lp
    x = np.asarray(x, dtype=float)
    out: list[str] = []
    if x.shape != (lp.n_cols,):
        return [f"value vector has shape {x.shape}, expected ({lp.n_cols},)"]
    lo_bad = np.flatnonzero(x < lp.col_lower - tol)
    hi_bad = np.flatnonzero(x > lp.col_upper + tol)
    for j in lo_bad:
        out.append(f"column {lp.col_names[j]}: {x[j]!r} below {lp.col_lower[j]!r}")
    for j in hi_bad:
        out.append(f"column {lp.col_names[j]}: {x[j]!r} above {lp.col_upper[j]!r}")
    ax = lp.matrix() @ x
    senses, rhs = lp.row_senses, lp.rhs
    bad = (((senses == "L") & (ax > rhs + tol))
           | ((senses == "G") & (ax < rhs - tol))
           | ((senses == "E") & (np.abs(ax - rhs) > tol)))
    for i in np.flatnonzero(bad):
        out.append(f"row {lp.row_names[i]} ({senses[i]} {rhs[i]!r}): activity {ax[i]!r}")
    xb = x[model.binaries]
    for j in model.binaries[np.minimum(xb, 1.0 - xb) > _INT_TOL]:
        out.append(f"binary {lp.col_names[j]}: fractional value {x[j]!r}")
    return out


def _fmt(v) -> str:
    return repr(float(v))


def dump_model(model: MilpModel) -> str:
    """Serialize a model to the line grammar documented in the module."""
    lp = model.lp
    binaries = set(int(j) for j in model.binaries)
    lines = [f"milp {lp.name}", f"sense {lp.sense}", f"vars {lp.n_cols}"]
    for j in range(lp.n_cols):
        tail = " binary" if j in binaries else ""
        lines.append(
            f"var {j} {lp.col_names[j]} lower {_fmt(lp.col_lower[j])} "
            f"upper {_fmt(lp.col_upper[j])} obj {_fmt(lp.obj[j])}{tail}"
        )
    lines.append(f"rows {lp.n_rows}")
    mat = lp.matrix().tocsr()
    for i in range(lp.n_rows):
        lo, hi = mat.indptr[i], mat.indptr[i + 1]
        terms = " ".join(
            f"{_fmt(mat.data[k])}*{mat.indices[k]}" for k in range(lo, hi)
        )
        lines.append(
            f"row {i} {lp.row_names[i]} {lp.row_senses[i]} {_fmt(lp.rhs[i])} : {terms}"
        )
    for g in model.gadgets:
        if isinstance(g, MinGadget):
            a, b = (f"{t.col}:" + ":".join(map(_fmt, t[1:])) for t in (g.a, g.b))
            lines.append(f"gadget min f={g.f} a={a} b={b} z={g.z}")
        elif isinstance(g, DropGadget):
            lines.append(f"gadget drop x={g.x} z={g.z} crit={_fmt(g.x_crit)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def solve_milp(
    model: MilpModel,
    *,
    budget: MilpBudget,
    incumbent_hook=None,
    initial_candidates=None,
) -> Solution:
    """Branch and bound over the binary columns of ``model``.

    Exploration is best-bound with depth-first plunging, in one node loop
    that checks the node budget once per node.  Each node is plunged into
    (the root, then the child on the side the parent's relaxation leans
    toward, warm-started from the parent basis) or, with no child pending,
    popped from the pool, where each sibling waits keyed by its inherited
    bound.  Branching picks the most fractional binary, ties to the lowest
    column index, so repeated solves of identical data visit identical trees.

    Incumbents come from three sources.  ``initial_candidates`` are full
    assignments tried before any node is solved, so a caller with a cheap
    feasible guess can seed the incumbent; the best one also crashes the
    root basis.  At every fractional node that survives pruning, the
    optional ``incumbent_hook(x)`` returns a full column vector (the
    controller plugs a dynamics-completion heuristic in here), or ``None``
    to offer nothing, as the controller's hook does for a plan it has
    already offered, which cannot improve the incumbent again.  A node
    whose relaxation is integral is an incumbent itself.  Every candidate
    is verified here, by :func:`check_solution` at ``tol=1e-7``, before
    being trusted, so callers pass their vectors unchecked; candidates only
    tighten pruning and never change the reported optimum.

    Every node, the root included, first propagates its box over the rows:
    its parent's propagated box (the model's box at the root) with the
    node's fixes applied.  Each zero-cost gadget selector that the box
    decides (see :class:`_Selectors`) joins the node's fixes, which its
    children inherit, and the box is propagated once more.  A box that
    crosses a row or a bound by more than a margin (see
    :class:`_RowPropagation`) closes the node without an LP; it still counts
    against the node budget.  Such a node holds no feasible point of the
    model, but its LP need not have come back infeasible: a decided
    selector's fix cuts fractional points of the relaxation, and the
    closure may come from it.  The node LP gets the fixes, never the
    propagated continuous bounds.

    The tree builds one equality form; a node solve passes only its column
    bounds, through this module's ``solve_canonical``, where callers may
    wrap it.  The plunge child also passes its parent's final factors with
    their eta file, so its first basis is not factored again and the
    refactorization cadence runs on across the plunge chain; pool entries
    keep the basis alone.

    Returns a :class:`Solution` whose ``bound`` is the proven lower bound
    and whose ``gap`` is ``objective - bound``.  A search that ends with no
    incumbent and no budget hit after closing an integral relaxation that
    failed verification proved nothing, and raises
    :class:`NumericalBreakdown`.
    """
    lp = model.lp
    form = EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)

    propagation = _RowPropagation(lp)
    # a selector with a cost is left to branching, so that a near tie the box
    # decides by rounding never moves the objective
    z = model.operands.z
    selectors = _Selectors(model.operands,
                           (lp.obj[z] == 0.0) & (lp.col_lower[z] < lp.col_upper[z]))
    best_obj = np.inf
    best_x: np.ndarray | None = None
    pruned_min = np.inf
    nodes = 0
    iters = 0
    unverified = 0  # integral relaxations closed for failing verification
    seq = 0
    # pool entries: (inherited bound, insertion sequence, fixes, warm basis,
    # the parent's propagated box)
    pool: list[tuple[float, int, dict[int, float], WarmBasis | None, tuple]] = []

    def gap_eff() -> float:
        if not np.isfinite(best_obj):
            return budget.gap_abs
        return max(budget.gap_abs, budget.gap_rel * abs(best_obj))

    def consider(x: np.ndarray, obj: float) -> None:
        nonlocal best_obj, best_x
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_x = x.copy()

    def try_candidate(cand) -> None:
        cand = np.asarray(cand, dtype=float)
        if not check_solution(model, cand, tol=1e-7):
            consider(cand, float(lp.obj @ cand))

    for cand in initial_candidates or ():
        try_candidate(cand)

    # The node solved next unless one is popped, as (fixes, warm basis, its
    # factors, the parent's propagated box): the root, whose basis a verified
    # incumbent crashes so that phase 1 starts satisfied, then the child each
    # branching leans toward, which starts from its parent's final factors.
    root_basis = None
    if best_x is not None:
        root_basis = crash_from_point(form, lp.col_lower, lp.col_upper, best_x)
    plunge = ({}, root_basis, None, (lp.col_lower, lp.col_upper))
    while (plunge or pool) and nodes < budget.max_nodes:
        if plunge:
            (fixes, warm, factors, parent_box), plunge = plunge, None
        else:
            inherited, _, fixes, warm, parent_box = heapq.heappop(pool)
            factors = None
            if inherited >= best_obj - gap_eff():
                pruned_min = min(pruned_min, inherited)
                continue
        nodes += 1
        box = propagation.box(*parent_box, fixes)
        decided = {} if box is None else selectors.fixes(box, fixes)
        if decided:
            fixes = {**fixes, **decided}
            box = propagation.box(*box, decided)
        if box is None:
            continue  # no point of the subtree is feasible
        lb, ub = lp.col_lower, lp.col_upper
        if fixes:
            lb, ub = lb.copy(), ub.copy()
            for j, v in fixes.items():
                lb[j] = ub[j] = v
        res = solve_canonical(form, lb, ub, warm=warm, factors=factors)
        iters += res.iterations
        if res.status == "infeasible":
            continue
        bound = res.obj
        if bound >= best_obj - gap_eff():
            pruned_min = min(pruned_min, bound)
            continue
        xb = res.x[model.binaries]
        frac = np.minimum(xb, 1.0 - xb)
        live = np.flatnonzero(frac > _INT_TOL)
        if not live.shape[0]:
            # an integral relaxation is verified like any candidate; one
            # that fails is closed without an incumbent, its bound kept
            if check_solution(model, res.x, tol=1e-7):
                pruned_min = min(pruned_min, bound)
                unverified += 1
            else:
                consider(res.x, bound)
            continue
        if incumbent_hook is not None:
            cand = incumbent_hook(res.x)
            if cand is not None:
                try_candidate(cand)
        if bound >= best_obj - gap_eff():
            pruned_min = min(pruned_min, bound)
            continue
        pick = live[np.argmax(frac[live])]
        ties = live[frac[live] >= frac[pick] - 1e-12]
        j = int(model.binaries[int(ties.min())])
        lean = 1.0 if res.x[j] >= 0.5 else 0.0
        seq += 1
        heapq.heappush(pool, (bound, seq, {**fixes, j: 1.0 - lean}, res.basis, box))
        plunge = ({**fixes, j: lean}, res.basis, res.factors, box)

    budget_hit = bool(plunge or pool)  # work was left when the budget ran out
    found = best_x is not None
    if not (found or budget_hit) and unverified:
        raise NumericalBreakdown(
            f"no incumbent after {nodes} nodes: {unverified} integral node "
            "relaxations failed verification, so the model is undecided"
        )
    proven = min(pruned_min, min((e[0] for e in pool), default=np.inf), best_obj)
    status = BUDGET_EXCEEDED if budget_hit else OPTIMAL if found else INFEASIBLE
    return Solution(
        status,
        best_x if found else np.zeros(lp.n_cols),
        best_obj if found else np.nan,
        np.nan if status == INFEASIBLE else proven,
        max(best_obj - proven, 0.0) if found else np.inf,
        nodes,
        iters,
    )
