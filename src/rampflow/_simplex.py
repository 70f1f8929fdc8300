"""Bounded-variable primal and dual simplex over sparse equality systems.

This is the numerical engine behind :mod:`rampflow.milp`.  Problems arrive
as ``min c.x  s.t.  A x (<=,=,>=) b,  lb <= x <= ub`` with every column
boxed (both bounds finite).  :class:`EqualityForm` converts the rows to
equalities with one slack column each, once: branch and bound builds one
form per tree and every node solve reads it, changing only the column
bounds.  A one-sided column (a slack, or a phase-1 artificial) starts
basic and leaves the basis only at its finite bound, so every nonbasic
column sits at a finite bound, and the program is never unbounded: a
ratio test with no blocking variable raises :class:`NumericalBreakdown`.
Statuses: "optimal" and "infeasible".

Cold and crash starts run a two-phase revised primal simplex:

* phase 1 clones the column of every out-of-bound basic variable into an
  artificial column (sign-adjusted so the artificial starts feasible at the
  violation magnitude), demotes the original to its nearest bound, and
  minimises the sum of artificials;
* phase 2 locks artificials to zero and minimises the real objective.

A warm start whose basis is dual feasible, as a branch-and-bound parent's
optimal basis is for its child's bounds, is reoptimised by a bounded dual
simplex instead (Koberstein, *The dual simplex method, techniques for a
fast and stable implementation*, 2005): it drives the basic variables into
their bounds while every reduced cost keeps its sign, then one primal
phase-2 pass confirms optimality.  Any other warm start goes through phase
1, which repairs a basis whose bounds changed since it was exported.

A basis can also be replayed on another form of the same shape: the
previous plan's root basis on the next plan's root, whose matrix and costs
have moved (the MPC warm start of Ferreau, Bock and Diehl, "An online
active set strategy to overcome the limitations of explicit MPC", 2008).
Such a start is used only when it passes a gate, and otherwise the solve
starts as it would without it.  The basis must have the form's shape, park
no slack at an infinite bound, be structurally nonsingular on the new
matrix and be dual feasible; the dual simplex then reoptimises it in the
worker that checked it, so the basis is factored once.  The structural
check is a maximum bipartite matching over the basis columns' nonzeros
and runs before any factorization, for two reasons: a basis without a
perfect matching always factors singular, and SuperLU leaks memory on
every factorization that fails.  A replay that is not dual feasible is
not repaired by phase 1: that lands on other vertices and grows the
branch-and-bound tree, so it falls back to the crash start instead.

There is one factorization: SuperLU factors of the basis plus a
product-form eta file, one eta vector per pivot, rebuilt every few dozen
pivots.  A solve returns the factors of its final basis, eta file
included, and a warm start from that basis continues them in place of
factoring it again (Maros, *Computational Techniques of the Simplex
Method*, 2003, ch. 8): the eta file travels with the factors, so the
refactorization cadence spans a whole chain of such solves.  A solve that
needed no phase 1 recomputes its basic values through the factors it
returns, and factors afresh before reporting them only if those values
lie outside their bounds by more than phase 1 accepts.  The dual simplex
updates its reduced costs from each pivot row and recomputes them after
every refactorization.

The pivot loop reads ``[A | I]`` straight from its CSC arrays: the
entering column is one ``indptr`` slice, reduced costs use the cached CSR
transpose, and the basis handed to SuperLU is gathered from ``indptr``,
``indices`` and ``data``.  Primal pricing is Dantzig's rule, the
largest reduced-cost violation entering with ties to the lowest index;
the dual's leaving row is the largest bound violation.  Both ratio tests,
the primal one over blocking rows and the dual one over entering columns,
break ties by the largest pivot magnitude.  There is no anti-cycling
rule: termination rests on the pivot budget of ``20000 + 10(m + n)`` per
attempt, which turns a cycle or a stall into a
:class:`NumericalBreakdown`.  All choices are
index-deterministic so repeated solves of the same data produce
identical pivot sequences.

The kernels use the hyper-sparsity of the solves (Hall and McKinnon,
"Hyper-sparsity in the revised simplex method and how to exploit it",
2005) without changing a pivot.  ``ftran`` applies an eta only when the
running vector's entry at the eta's row is nonzero: an exact zero
multiplier leaves every value as it is, and at most keeps the sign of an
exact zero that the full update would have cleared, which no comparison
reads.  The primal ratio test and the dual's entering choice read only the
entries whose magnitude exceeds the pivot tolerance, the only ones that
can be chosen; the fixed-column mask is taken once per phase and per dual
solve; and the dual's reduced-cost update touches only the nonzeros of
the pivot row.  The per-pivot code calls array methods (``.dot``,
``.nonzero``, ``.argmax``) in place of ``@`` and the numpy functions
that wrap them: the same routines, with less dispatch per call.

scipy loads with the first :class:`EqualityForm`, not with this module:
the tube map, the contraction and the baselines use numpy alone, and a
process that never plans should not pay for scipy's sparse stack, which
was 60 % of the package's set-up time.  ``_sparse`` imports it once and
binds ``sp``, ``splu`` and ``maximum_bipartite_matching`` here, so no
import runs inside a solve.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

# scipy.sparse and its two routines, bound by _sparse() with the first form
sp = splu = maximum_bipartite_matching = None

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2

_TIE = 1e-12
_TOL_FEAS = 1e-9
_TOL_OPT = 1e-9
# (pivot tolerance, pivots between refactorizations) of the first attempt
# and of the stricter cold restarts after an exactly singular basis or a
# dual pivot on round-off
_LADDER = ((1e-10, 64), (1e-8, 32), (3e-7, 16))


def _sparse():
    """``scipy.sparse``, imported the first time a model needs it.

    The first call also binds ``splu`` and ``maximum_bipartite_matching``
    at module level, where the solver reads them; later calls import
    nothing.
    """
    global sp, splu, maximum_bipartite_matching
    if sp is None:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import maximum_bipartite_matching
        from scipy.sparse.linalg import splu
    return sp


class NumericalBreakdown(RuntimeError):
    """Raised when the factorization cannot be kept trustworthy.

    Carries a short condition report so callers can surface what went
    wrong: a ray, which no boxed program has, a basis that keeps factoring
    singular, or a spent pivot budget.  The budget is the solver's only
    guard against cycling, since Dantzig pricing has no anti-cycling rule.
    """


@dataclass
class WarmBasis:
    """Opaque restart token: variable statuses plus the basic-variable list.

    Covers structural and slack columns only; artificials never escape a
    solve.  Every nonbasic column sits at one of its finite bounds and moves
    with it, so callers may replay a token against new column bounds of the
    same form, which is exactly what branch and bound does.  ``warm``
    tokens come only from an earlier solve or from :func:`crash_from_point`
    on the same form, so they are well formed; a basis that factors
    singular falls back to the cold start.  A token from another form goes
    through ``solve_canonical``'s ``replay`` gate instead.
    """

    vstat: np.ndarray
    basis: np.ndarray


@dataclass
class CanonicalResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray  # structural values (n,)
    obj: float
    basis: WarmBasis | None
    iterations: int
    # the factors of ``basis``, for a solve that starts there; never in a WarmBasis
    factors: _Factors | None = None


class _SingularBasis(Exception):
    pass


class _Factors:
    """SuperLU factors of a basis plus a product-form eta file."""

    def __init__(self, cols: sp.csc_matrix):
        _sparse()  # binds splu for factors built without a form
        try:
            self.lu = splu(cols)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise _SingularBasis() from exc
        self.etas: list[tuple[int, np.ndarray]] = []

    def share(self) -> _Factors:
        """These factors with a copy of their eta file, for a solve that
        starts from the basis they describe; its pivots extend the copy, so
        the factors it got them from stay as they were."""
        twin = copy.copy(self)
        twin.etas = list(self.etas)
        return twin

    def ftran(self, v: np.ndarray) -> np.ndarray:
        u = self.lu.solve(v)
        for r, g in self.etas:
            ur = u.item(r)
            if ur != 0.0:  # an exact zero leaves u as it is
                u -= g * ur
        return u

    def btran(self, v: np.ndarray) -> np.ndarray:
        u = np.array(v, dtype=float)
        for r, g in reversed(self.etas):
            u[r] -= g.dot(u)
        return self.lu.solve(u, trans="T")

    def update(self, r: int, w: np.ndarray) -> None:
        g = w / w[r]
        g[r] = 1.0 - 1.0 / w[r]
        self.etas.append((r, g))


class EqualityForm:
    """``A x + s = b`` with the slack bounds the row senses give, validated once.

    ``cols`` is ``[A | I]`` in CSC and ``cols_t`` its CSR transpose (the
    same three arrays read by rows); ``c`` is the cost extended with slack
    zeros.  Solves read the form and never write it, so one form serves
    every node of a branch-and-bound tree.  ``senses`` is a length-m
    sequence over {"L", "E", "G"}; right-hand sides must be finite.
    """

    def __init__(self, a: sp.spmatrix, senses, b, c):
        a = _sparse().csc_matrix(a)
        senses = np.asarray(list(senses) if isinstance(senses, str) else senses, dtype="U1")
        if not np.isin(senses, ("L", "E", "G")).all():
            raise ValueError("row senses must come from {'L', 'E', 'G'}")
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        m, n = a.shape
        if senses.shape != (m,) or b.shape != (m,):
            raise ValueError("row data does not match the matrix")
        if c.shape != (n,):
            raise ValueError("column data does not match the matrix")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand sides must be finite")
        self.m, self.n = m, n
        self.senses = senses
        self.b = b
        # [A | I] from A's arrays: the slack columns append one unit entry each
        self.cols = sp.csc_matrix(
            (np.concatenate([a.data, np.ones(m)]), np.concatenate([a.indices, np.arange(m)]),
             np.concatenate([a.indptr, a.nnz + np.arange(1, m + 1)])),
            shape=(m, n + m))
        self.cols_t = self.cols.T
        self.slack_lo = np.where(senses == "G", -np.inf, 0.0)
        self.slack_hi = np.where(senses == "L", np.inf, 0.0)
        self.c = np.concatenate([c, np.zeros(m)])


def _column(cols: sp.csc_matrix, j: int) -> np.ndarray:
    """Column ``j`` of a CSC matrix as a dense vector."""
    lo, hi = cols.indptr[j], cols.indptr[j + 1]
    out = np.zeros(cols.shape[0])
    out[cols.indices[lo:hi]] = cols.data[lo:hi]
    return out


def _columns(cols: sp.csc_matrix, idx: np.ndarray) -> sp.csc_matrix:
    """``cols[:, idx]`` gathered from the CSC arrays, entries in stored order."""
    starts = cols.indptr[idx]
    counts = cols.indptr[idx + 1] - starts
    indptr = np.concatenate([[0], np.cumsum(counts)])
    take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
    return sp.csc_matrix(
        (cols.data[take], cols.indices[take], indptr), shape=(cols.shape[0], idx.shape[0])
    )


def _marginal(w: np.ndarray, r: int) -> bool:
    """Whether ``w[r]`` is too small a pivot to trust through stale factors."""
    return abs(w[r]) < 1e-7 * (1.0 + float(np.abs(w).max()))


class _Worker:
    """One solve: its bounds, basis and factors over a shared equality form.

    ``cols`` starts as the form's matrix; phase 1 replaces it with a copy
    that carries the artificial columns, so the form keeps ``n + m``.
    """

    def __init__(
        self,
        form: EqualityForm,
        lb: np.ndarray,
        ub: np.ndarray,
        warm: WarmBasis | None,
        tol_pivot: float,
        refactor_every: int,
        factors: _Factors | None = None,
    ):
        m, n = form.m, form.n
        self.m, self.n = m, n
        self.cols, self.cols_t = form.cols, form.cols_t
        self.lb = np.concatenate([lb, form.slack_lo])
        self.ub = np.concatenate([ub, form.slack_hi])
        self.c = form.c
        self.b = form.b
        self.tol_pivot = tol_pivot
        self.refactor_every = refactor_every
        self.iterations = 0
        self.max_iter = 20000 + 10 * (m + n)
        self.n_art = 0
        # the reduced costs of a start already shown dual feasible
        self.checked_d: np.ndarray | None = None
        self._install_start(warm, factors)

    # -- start basis -----------------------------------------------------

    def _install_start(self, warm: WarmBasis | None, factors: _Factors | None) -> None:
        self.warm = warm is not None
        if warm is not None:
            self.vstat = warm.vstat.copy()
            self.basis = warm.basis.copy()
            try:
                self._factor(None if factors is None else factors.share())
                return
            except _SingularBasis:
                self.warm = False  # the cold start below
        self.vstat = np.concatenate([
            np.full(self.n, AT_LOWER, dtype=np.int8),
            np.full(self.m, BASIC, dtype=np.int8),
        ])
        self.basis = np.arange(self.n, self.n + self.m, dtype=np.int64)
        self._factor()

    def _factor(self, factors: _Factors | None = None) -> None:
        """Install ``factors`` of the current basis, or factor it afresh;
        inherited etas count toward the next refactorization."""
        if factors is None:
            factors = _Factors(_columns(self.cols, self.basis))
        self.backend = factors
        self.updates_since_factor = len(factors.etas)
        self._recompute_xb()

    def _nonbasic_values(self) -> np.ndarray:
        vals = np.where(self.vstat == AT_LOWER, self.lb, self.ub)
        vals[self.vstat == BASIC] = 0.0
        return vals

    def _recompute_xb(self) -> None:
        xn = self._nonbasic_values()
        rhs = self.b - self.cols @ xn
        self.xb = self.backend.ftran(rhs)

    def _values(self) -> np.ndarray:
        vals = self._nonbasic_values()
        vals[self.basis] = self.xb
        return vals

    # -- phase 1 artificials ----------------------------------------------

    def _add_artificials(self) -> None:
        """Clone every out-of-bound basic column into a feasible artificial."""
        lo_v = self.lb[self.basis] - self.xb
        hi_v = self.xb - self.ub[self.basis]
        viol_pos = np.flatnonzero((lo_v > _TOL_FEAS) | (hi_v > _TOL_FEAS))
        self.n_art = viol_pos.shape[0]
        if not self.n_art:
            return
        j = self.basis[viol_pos]
        v = self.xb[viol_pos]
        below = v < self.lb[j]
        sign = np.where(below, -1.0, 1.0)
        self.vstat[j] = np.where(below, AT_LOWER, AT_UPPER)
        art = _columns(self.cols, j)
        art.data *= np.repeat(sign, np.diff(art.indptr))
        base = self.cols.shape[1]
        self.cols = sp.hstack([self.cols, art], format="csc")
        self.cols_t = self.cols.T
        self.lb = np.concatenate([self.lb, np.zeros(self.n_art)])
        self.ub = np.concatenate([self.ub, np.full(self.n_art, np.inf)])
        self.c = np.concatenate([self.c, np.zeros(self.n_art)])
        self.vstat = np.concatenate(
            [self.vstat, np.full(self.n_art, BASIC, dtype=np.int8)]
        )
        self.basis[viol_pos] = base + np.arange(self.n_art)
        self._factor()

    # -- pivot loop --------------------------------------------------------

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - self.cols_t @ self.backend.btran(cost[self.basis])

    def _price(self, d: np.ndarray, fixed: np.ndarray) -> int:
        """The entering column by Dantzig's rule, or -1; ``fixed`` is
        ``lb == ub``, taken once per phase."""
        score = np.where(self.vstat == AT_LOWER, -d, d)
        score[(self.vstat == BASIC) | fixed] = -np.inf
        j = int(score.argmax())
        return j if score[j] > _TOL_OPT else -1

    def _ratio_test(
        self, enter: int, sigma: float, w: np.ndarray
    ) -> tuple[float, int, bool] | None:
        """Return (step, leaving position or -1 for a bound flip, hit-upper?).

        ``None`` means no variable blocks the step, which only a
        numerically inconsistent basis produces.  A row whose pivot
        element is within ``tol_pivot`` of zero never blocks, so the
        leaving row always has a usable pivot.  Ties between blocking rows
        go to the largest pivot magnitude: the eta update divides by it, so
        a near-zero choice poisons every later ftran.  Only the rows with a
        usable pivot are read.
        """
        limit = self.ub[enter] - self.lb[enter]  # inf for slacks
        rows = (np.abs(w) > self.tol_pivot).nonzero()[0]
        rate = -sigma * w[rows]
        bvars, xb = self.basis[rows], self.xb[rows]
        up = rate > 0
        with np.errstate(invalid="ignore"):
            rooms = np.where(up, self.ub[bvars] - xb, xb - self.lb[bvars]) / np.abs(rate)
        np.maximum(rooms, 0.0, out=rooms)
        best_basic = rooms.min(initial=np.inf)
        if np.isfinite(limit) and limit <= best_basic + _TIE:
            return limit, -1, False
        if not np.isfinite(best_basic):
            return None
        cand = (rooms <= best_basic + _TIE).nonzero()[0]
        pick = cand[np.abs(w[rows[cand]]).argmax()]
        return best_basic, int(rows[pick]), bool(up[pick])

    def _pivot(
        self,
        enter: int,
        sigma: float,
        w: np.ndarray,
        step: float,
        leave_pos: int,
        hit_upper: bool,
    ) -> None:
        leaving = self.basis[leave_pos]
        origin = self.lb[enter] if self.vstat[enter] == AT_LOWER else self.ub[enter]
        enter_val = origin + sigma * step
        self.xb -= sigma * step * w
        self.vstat[leaving] = AT_UPPER if hit_upper else AT_LOWER
        self.basis[leave_pos] = enter
        self.vstat[enter] = BASIC
        self.xb[leave_pos] = enter_val
        self.backend.update(leave_pos, w)
        self.updates_since_factor += 1

    def _check_budget(self) -> None:
        if self.iterations >= self.max_iter:
            raise NumericalBreakdown(
                f"simplex iteration budget exhausted after "
                f"{self.iterations} pivots (m={self.m}, n={self.n})"
            )

    def _run_phase(self, cost: np.ndarray) -> None:
        fixed = self.lb == self.ub
        while True:
            self._check_budget()
            enter = self._price(self._reduced_costs(cost), fixed)
            if enter < 0:
                return
            sigma = -1.0 if self.vstat[enter] == AT_UPPER else 1.0
            w = self.backend.ftran(_column(self.cols, enter))
            hit = self._ratio_test(enter, sigma, w)
            if (
                hit is not None
                and hit[1] >= 0
                and self.updates_since_factor
                and _marginal(w, hit[1])
            ):
                # A marginal pivot seen through a stale factorization is how
                # an exactly dependent column sneaks into the basis; redo the
                # column and the ratio test against fresh factors.
                self._factor()
                w = self.backend.ftran(_column(self.cols, enter))
                hit = self._ratio_test(enter, sigma, w)
            if hit is None:
                raise NumericalBreakdown(
                    "the objective fell without bound in a boxed program; "
                    "the basis is numerically inconsistent"
                )
            step, leave_pos, hit_upper = hit
            self.iterations += 1
            if leave_pos < 0:
                self.xb -= sigma * step * w
                self.vstat[enter] = (
                    AT_UPPER if self.vstat[enter] == AT_LOWER else AT_LOWER
                )
                continue
            self._pivot(enter, sigma, w, step, leave_pos, hit_upper)
            if self.updates_since_factor >= self.refactor_every:
                self._factor()

    # -- dual simplex --------------------------------------------------------

    def _dual_feasible(self) -> np.ndarray | None:
        """The reduced costs when no nonbasic, non-fixed column prices in,
        so that the basis is optimal for its own bounds, as a parent's is
        for a child's; ``None`` otherwise."""
        d = self._reduced_costs(self.c)
        return d if self._price(d, self.lb == self.ub) < 0 else None

    def _dual(self, d: np.ndarray) -> bool:
        """Bounded dual simplex from a dual-feasible basis (Koberstein 2005).

        ``d`` holds the basis's reduced costs; each pivot updates them in
        place from its pivot row, and every refactorization recomputes them.
        The basic variable with the largest bound violation leaves at the
        bound it violates; among the nonbasic columns whose move from their
        bound pushes it toward that bound, the one with the smallest ratio
        ``max(±d_j, 0) / |alpha_j|`` enters, ties going to the largest
        ``|alpha_j|`` as in the primal ratio test.  Stops when every
        violation is within the acceptance of phase 1 and returns
        ``True``, or returns ``False`` when a violated row has no column to
        enter: the bounds admit no point.
        """
        accept = self._acceptance()
        free = self.lb != self.ub
        e_r = np.zeros(self.m)
        while True:
            self._check_budget()
            below = self.lb[self.basis] - self.xb
            above = self.xb - self.ub[self.basis]
            viol = np.maximum(below, above)
            r = int(viol.argmax())
            if viol[r] <= accept:
                return True
            rise = below[r] > 0  # the leaving variable climbs to its lower bound
            e_r[r] = 1.0
            alpha = self.cols_t @ self.backend.btran(e_r)
            e_r[r] = 0.0
            enter = self._dual_ratio_test(alpha, d, rise, free)
            if enter < 0:
                return False
            w = self.backend.ftran(_column(self.cols, enter))
            if _marginal(w, r):
                if self.updates_since_factor:
                    # as in the primal loop: a marginal pivot seen through a
                    # stale factorization; choose again against fresh factors
                    self._factor()
                    d[:] = self._reduced_costs(self.c)
                    continue
                if abs(w[r]) <= self.tol_pivot:
                    # the row's entry was round-off, which the column does not
                    # share: restart cold on the next rung, as for a singular basis
                    raise _SingularBasis()
            target = self.lb[self.basis[r]] if rise else self.ub[self.basis[r]]
            self.iterations += 1
            self._pivot(enter, 1.0, w, (self.xb[r] - target) / w[r], r, not rise)
            if self.updates_since_factor >= self.refactor_every:
                self._factor()
                d[:] = self._reduced_costs(self.c)
            else:
                # row r of the old basis inverse prices the pivot: the leaving
                # column gets -d_q / alpha_q and the basic columns stay at zero
                nz = alpha.nonzero()[0]
                d[nz] -= d[enter] / alpha[enter] * alpha[nz]
                d[self.basis] = 0.0

    def _dual_ratio_test(
        self, alpha: np.ndarray, d: np.ndarray, rise: bool, free: np.ndarray
    ) -> int:
        """The column that enters for the leaving row whose pivot row is
        ``alpha``, or -1 when no column can; ``free`` is ``lb != ub``, taken
        once per dual solve.  Only the columns with a usable pivot are read.
        """
        # a nonbasic column moves up from its lower bound, down from its
        # upper; x_r moves by -alpha_j per unit of that move
        cols = (np.abs(alpha) > self.tol_pivot).nonzero()[0]
        stat = self.vstat[cols]
        move = np.where(stat == AT_LOWER, 1.0, -1.0)
        push = -move * alpha[cols] if rise else move * alpha[cols]
        keep = (push > 0.0) & (stat != BASIC) & free[cols]
        cand, move = cols[keep], move[keep]
        if not cand.shape[0]:
            return -1
        ratio = np.maximum(move * d[cand], 0.0) / np.abs(alpha[cand])
        ties = cand[ratio <= ratio.min() + _TIE]
        return int(ties[np.abs(alpha[ties]).argmax()])

    # -- artificial drive-out ----------------------------------------------

    def _expel_artificials(self) -> None:
        """Pivot basic artificials (all at ~0) out where a real pivot exists.

        An artificial stuck in a row whose real entries all vanish marks a
        redundant row; it stays basic, pinned to zero by its locked bounds.
        A trial swap is matched (``_structurally_nonsingular``) before it is
        factored, since SuperLU leaks memory on every factorization that
        fails; a swap that fails either test is undone and the old basis
        factored again.
        """
        ntot_real = self.n + self.m
        # a row's basic column changes only when that row is visited
        for i in np.flatnonzero(self.basis >= ntot_real):
            e_i = np.zeros(self.m)
            e_i[i] = 1.0
            row = (self.cols_t @ self.backend.btran(e_i))[:ntot_real]
            open_nb = (self.vstat[:ntot_real] != BASIC) & (
                np.abs(row) > 1e-7
            )
            cand = np.flatnonzero(open_nb)
            if not cand.shape[0]:
                continue
            j = int(cand[0])
            old = self.basis[i]
            parked = self.vstat[j]
            self.basis[i] = j
            self.vstat[old] = AT_LOWER
            self.vstat[j] = BASIC
            try:
                if _structurally_nonsingular(self.cols, self.basis):
                    self._factor()
                    continue
            except _SingularBasis:
                pass
            self.basis[i] = old
            self.vstat[j] = parked
            self.vstat[old] = BASIC
            self._factor()

    # -- public --------------------------------------------------------------

    def solve(self) -> CanonicalResult:
        d = self.checked_d
        if d is None and self.warm:
            d = self._dual_feasible()
        if d is not None:
            if not self._dual(d):
                return self._infeasible()
        else:
            self._add_artificials()
        if self.n_art:
            cost1 = np.zeros(self.cols.shape[1])
            cost1[self.n + self.m :] = 1.0
            self._run_phase(cost1)
            art_sum = float(np.sum(np.abs(self._values()[self.n + self.m :])))
            if art_sum > self._acceptance():
                return self._infeasible()
            self.lb[self.n + self.m :] = 0.0
            self.ub[self.n + self.m :] = 0.0
            self._expel_artificials()
        self._run_phase(self.c.copy())
        if self.n_art:
            self._factor()  # clean recompute before extraction
        else:
            # the factors go on to the plunge child, so recompute through
            # them; refactor only if they have drifted past the acceptance
            self._recompute_xb()
            basic_lb, basic_ub = self.lb[self.basis], self.ub[self.basis]
            drift = np.maximum(basic_lb - self.xb, self.xb - basic_ub).max(initial=0.0)
            if drift > self._acceptance():
                self._factor()
        x = self._values()[: self.n]
        obj = float(self.c[: self.n] @ x)
        basis = self._export_basis()
        return CanonicalResult("optimal", x, obj, basis, self.iterations,
                               None if basis is None else self.backend)

    def _acceptance(self) -> float:
        """The largest infeasibility a solve reports as feasible."""
        return _TOL_FEAS * (1.0 + float(np.abs(self.b).sum()))

    def _infeasible(self) -> CanonicalResult:
        return CanonicalResult("infeasible", self._values()[: self.n], np.nan, None,
                               self.iterations)

    def _export_basis(self) -> WarmBasis | None:
        ntot = self.n + self.m
        if np.any(self.basis >= ntot):
            return None  # a redundant-row artificial is still basic
        return WarmBasis(self.vstat[:ntot].copy(), self.basis.copy())


def _structurally_nonsingular(cols: sp.csc_matrix, basis: np.ndarray) -> bool:
    """Whether the basis columns' nonzeros admit a perfect matching of rows
    to columns; without one every factorization of them is singular."""
    b = _columns(cols, basis)
    # B's CSC arrays read as CSR are B transposed, whose matching is B's
    pattern = sp.csr_matrix((b.data, b.indices, b.indptr), shape=b.shape[::-1])
    return bool((maximum_bipartite_matching(pattern, perm_type="column") >= 0).all())


def _replay(form: EqualityForm, lb: np.ndarray, ub: np.ndarray, replay: WarmBasis,
            tol_pivot: float, refactor_every: int):
    """A worker started from ``replay``, its reduced costs checked dual
    feasible on ``[lb, ub]``, or ``None`` when the basis does not fit the
    form, is structurally singular on it, factors singular or is not dual
    feasible.  The matching runs before any factorization."""
    m, n = form.m, form.n
    if replay.vstat.shape != (n + m,) or replay.basis.shape != (m,):
        return None
    slack = replay.vstat[n:]
    parked = np.where(slack == AT_LOWER, form.slack_lo, form.slack_hi)
    if not np.isfinite(parked[slack != BASIC]).all():
        return None  # a slack parked at an infinite bound: another row sense
    if not _structurally_nonsingular(form.cols, replay.basis):
        return None
    worker = _Worker(form, lb, ub, replay, tol_pivot, refactor_every)
    if worker.warm:
        worker.checked_d = worker._dual_feasible()
    return worker if worker.checked_d is not None else None


def solve_canonical(
    form: EqualityForm,
    lb,
    ub,
    *,
    warm: WarmBasis | None = None,
    factors: _Factors | None = None,
    replay: WarmBasis | None = None,
) -> CanonicalResult:
    """Solve ``min c.x  s.t.  A x (senses) b,  lb <= x <= ub`` over ``form``.

    The form carries ``A``, the senses, ``b`` and ``c``; only the column
    bounds come per call, so branch-and-bound nodes share one form and the
    solve leaves it as it found it.  Every bound must be finite (a
    ``ValueError`` otherwise); equal bounds fix a variable.  ``warm``
    replays a basis from an earlier solve of the same form, or one that
    :func:`crash_from_point` built for it; the dual simplex reoptimises it
    when it is dual feasible, and phase 1 repairs it otherwise.
    ``factors`` are the ``factors`` of the result whose ``basis`` is
    ``warm``; with them the solve starts without factoring.  ``warm`` may
    also be a function of no arguments that returns the basis (or
    ``None``); it is called only when the solve starts from it.

    ``replay`` is a basis from a solve of another form, such as the
    previous plan's root.  The solve starts there only when the basis has
    this form's shape, is structurally nonsingular on its matrix and is
    dual feasible for these bounds, and then reoptimises it by the dual
    simplex; otherwise it starts from ``warm`` and ``factors`` exactly as
    without ``replay``.  Statuses: "optimal" and "infeasible"; a boxed
    program is never unbounded.
    """
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = form.n
    if lb.shape != (n,) or ub.shape != (n,):
        raise ValueError("column bounds do not match the matrix")
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("column bounds must be finite")
    if np.any(lb > ub + 1e-12):
        return CanonicalResult("infeasible", np.zeros(n), np.nan, None, 0)
    lb = np.minimum(lb, ub)
    # A basis can still factor exactly singular after heavy eta traffic, or
    # offer the dual a pivot that is round-off; restarting cold with stricter
    # pivoting takes a different (still deterministic) path that avoids it.
    spent = 0
    for rung, (tol_pivot, refactor_every) in enumerate(_LADDER):
        worker = None
        if rung == 0 and replay is not None:
            worker = _replay(form, lb, ub, replay, tol_pivot, refactor_every)
        if worker is None:
            start, lu = (warm, factors) if rung == 0 else (None, None)
            if callable(start):
                start = start()
            worker = _Worker(form, lb, ub, start, tol_pivot, refactor_every, lu)
        try:
            result = worker.solve()
        except _SingularBasis:
            spent += worker.iterations
            continue
        result.iterations += spent
        return result
    raise NumericalBreakdown(
        "the basis kept factoring exactly singular across pivot-tolerance "
        "escalations"
    )


def crash_from_point(
    form: EqualityForm,
    lb,
    ub,
    x0,
) -> WarmBasis | None:
    """Starting basis whose basic solution reproduces a feasible point.

    For ``x0`` to be a basic solution, every column sitting strictly
    between its bounds must be basic, carried by a row that ``x0``
    satisfies with equality; rows not claimed by a column keep their
    slacks basic.  Columns are paired to tight rows by a maximum
    bipartite matching over the structural nonzeros, so the cover is as
    complete as the sparsity pattern allows.  A complete cover makes the
    basic solution equal ``x0`` exactly and phase 1 starts satisfied.

    The matching is structural, so the basis can in principle still
    factor singular (numeric cancellation) and a stranded column (more
    interior values than tight rows can carry) is parked at its nearer
    bound; both cases degrade to a short phase 1 or to the caller's cold
    start rather than to an error.  Returns ``None`` only when the point
    needs no basic structurals at all, where the default start is
    already equivalent.
    """
    m, n = form.m, form.n
    a = form.cols[:, :n]
    senses, b = form.senses, form.b
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    tol = 1e-7

    r = a @ x0
    tight = np.abs(b - r) <= tol * (1.0 + np.abs(b))
    tight |= senses == "E"

    at_lo = x0 - lb <= tol * (1.0 + np.abs(lb))
    at_hi = ub - x0 <= tol * (1.0 + np.abs(ub))
    need = ~(at_lo | at_hi)
    if not need.any():
        return None

    tight_rows = np.flatnonzero(tight)
    need_cols = np.flatnonzero(need)
    kept = sp.csc_matrix(
        (np.abs(a.data) > 1e-9, a.indices, a.indptr), shape=a.shape
    )
    sub = sp.csr_matrix(kept[tight_rows][:, need_cols])
    pair = maximum_bipartite_matching(sub, perm_type="row")
    matched_col = np.full(m, -1, dtype=np.int64)
    matched = np.zeros(n, dtype=bool)
    hitj = pair >= 0
    matched[need_cols[hitj]] = True
    matched_col[tight_rows[pair[hitj]]] = need_cols[hitj]

    vstat = np.empty(n + m, dtype=np.int8)
    # A column at its lower bound parks there; one at its upper bound, or
    # stranded nearer to it, parks at the upper bound.
    park_hi = ~at_lo & (at_hi | (ub - x0 < x0 - lb))
    vstat[:n] = np.where(matched, BASIC, np.where(park_hi, AT_UPPER, AT_LOWER))
    slack_stat = np.where(senses == "G", AT_UPPER, AT_LOWER).astype(np.int8)
    basis = np.arange(n, n + m, dtype=np.int64)
    hit = matched_col >= 0
    basis[hit] = matched_col[hit]
    vstat[n:] = np.where(hit, slack_stat, BASIC)
    return WarmBasis(vstat, basis)
