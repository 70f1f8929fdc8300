"""Mixed-binary linear programs with a self-contained solver.

The optimizer behind the predictive controller.  Everything is in-house:
node relaxations go through the bounded-variable simplex in
:mod:`rampflow._simplex`, binaries through best-bound branch and bound with
depth-first plunging.  A model without binaries is solved at its root node.
No external solver is involved at any point.

Models are built through :class:`ModelBuilder`, which hands out column and
row indices and records the two gadget encodings the controller needs.
Every column is boxed: :meth:`ModelBuilder.add_variable` rejects a bound
that is not finite.  The big-M constants are read off the boxes, and the
simplex relies on them: a boxed program is never unbounded.

``encode_min_equality``
    ``f = min(a, b)``, one binary selector, big-M constants derived from
    the declared bounds.

``encode_capacity_drop``
    the discharge-capacity switch: a binary that is 1 exactly on the
    uncongested branch, with the threshold boundary admitting the
    uncongested choice, plus the affine tie between the capacity value
    and the binary.

Both record their columns on the model as gadget records, which
:func:`dump_model` writes out.

Incumbents come from three sources: caller-supplied ``initial_candidates``,
the caller's ``incumbent_hook`` at every fractional node, and node
relaxations that come out integral.

Text dumps (:func:`dump_model`) use a line grammar, one record per line,
floats in shortest round-trip form::

    milp <name>
    sense min|max
    vars <n>
    var <idx> <name> lower <v> upper <v> obj <v> [binary]
    rows <m>
    row <idx> <name> <L|E|G> <rhs> : <coef>*<varidx> ...
    gadget min f=<i> a=<i> b=<i> z=<i>
    gadget drop xi=<i> x=<i> z=<i> crit=<v>
    end

Statuses: ``optimal`` (gap certified within tolerance), ``infeasible``,
``budget_exceeded`` (node budget ran out; the incumbent and the proven
bound are still reported).  No solve returns ``unbounded``; the name stays
for the counters that read it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# NumericalBreakdown escapes solve_milp; callers catch it as milp.NumericalBreakdown
from ._simplex import (  # noqa: F401
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


@dataclass
class LinearProgram:
    """Columns, rows and an objective; the plain continuous problem."""

    name: str
    sense: str  # "min" | "max"
    obj: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    col_names: list[str]
    a: sp.csc_matrix  # row coefficients, n_rows x n_cols
    row_senses: np.ndarray
    rhs: np.ndarray
    row_names: list[str]

    @property
    def n_cols(self) -> int:
        return self.obj.shape[0]

    @property
    def n_rows(self) -> int:
        return self.rhs.shape[0]

    def matrix(self) -> sp.csc_matrix:
        return self.a


@dataclass(frozen=True)
class MinGadget:
    f: int
    a: int
    b: int
    z: int


@dataclass(frozen=True)
class DropGadget:
    xi: int
    x: int
    z: int
    x_crit: float


@dataclass
class MilpModel:
    """A linear program plus its binary columns and gadget records."""

    lp: LinearProgram
    binaries: np.ndarray  # sorted column indices
    gadgets: list = field(default_factory=list)


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
    bound: float  # proven bound in the model's own sense
    gap: float
    nodes: int
    iterations: int


class ModelBuilder:
    """Accumulates columns and rows; hands out integer indices."""

    def __init__(self, name: str = "model", sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.name = name
        self.sense = sense
        self.obj: list[float] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.col_names: list[str] = []
        self.binary: list[int] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self.row_names: list[str] = []
        self.gadgets: list = []

    @property
    def n_cols(self) -> int:
        return len(self.obj)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    def add_variable(
        self,
        name: str | None = None,
        *,
        lower: float = 0.0,
        upper: float = np.inf,
        objective: float = 0.0,
        binary: bool = False,
    ) -> int:
        """Add a column and return its index.

        Both bounds must be finite, so a continuous column needs an explicit
        ``upper``; a binary is clipped to [0, 1].
        """
        j = len(self.obj)
        if binary:
            lower = max(lower, 0.0)
            upper = min(upper, 1.0)
        if not (np.isfinite(lower) and np.isfinite(upper)):
            raise ValueError(f"variable {name or j} needs finite bounds")
        if lower > upper + 1e-12:
            raise ValueError(f"variable {name or j} has lower > upper")
        if binary:
            self.binary.append(j)
        self.obj.append(float(objective))
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.col_names.append(name if name is not None else f"v{j}")
        return j

    def add_row(
        self,
        coeffs: dict[int, float],
        sense: str,
        rhs: float,
        name: str | None = None,
    ) -> int:
        if sense not in ("L", "E", "G"):
            raise ValueError("row sense must be 'L', 'E' or 'G'")
        i = len(self.rhs)
        n = len(self.obj)
        for j, v in coeffs.items():
            if not 0 <= j < n:
                raise IndexError(f"row {name or i} references unknown column {j}")
            if v != 0.0:
                self._rows.append(i)
                self._cols.append(j)
                self._vals.append(float(v))
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        self.row_names.append(name if name is not None else f"r{i}")
        return i

    def fix_variable(self, j: int, value: float) -> None:
        self.lower[j] = float(value)
        self.upper[j] = float(value)

    def build(self) -> MilpModel:
        ij = (np.asarray(self._rows, dtype=np.int64), np.asarray(self._cols, dtype=np.int64))
        lp = LinearProgram(
            name=self.name,
            sense=self.sense,
            obj=np.asarray(self.obj, dtype=float),
            col_lower=np.asarray(self.lower, dtype=float),
            col_upper=np.asarray(self.upper, dtype=float),
            col_names=list(self.col_names),
            a=sp.csc_matrix(
                (np.asarray(self._vals, dtype=float), ij), shape=(self.n_rows, self.n_cols)
            ),
            row_senses=np.asarray(self.senses, dtype="U1"),
            rhs=np.asarray(self.rhs, dtype=float),
            row_names=list(self.row_names),
        )
        return MilpModel(
            lp=lp,
            binaries=np.asarray(sorted(self.binary), dtype=np.int64),
            gadgets=list(self.gadgets),
        )


def encode_min_equality(
    builder: ModelBuilder,
    f: int,
    a: int,
    b: int,
    *,
    name: str | None = None,
) -> int:
    """Add rows forcing ``f = min(a, b)`` and return the selector binary.

    The selector is 1 when ``a`` attains the minimum and 0 when ``b`` does;
    ties admit both.  The big-M constants are ``sup (a - b)+`` and
    ``sup (b - a)+`` over the declared column bounds.
    """
    tag = name if name is not None else f"min{len(builder.gadgets)}"
    m_a = max(builder.upper[a] - builder.lower[b], 0.0)
    m_b = max(builder.upper[b] - builder.lower[a], 0.0)
    z = builder.add_variable(f"{tag}.z", binary=True)
    builder.add_row({f: 1.0, a: -1.0}, "L", 0.0, f"{tag}.le_a")
    builder.add_row({f: 1.0, b: -1.0}, "L", 0.0, f"{tag}.le_b")
    builder.add_row({f: 1.0, a: -1.0, z: -m_a}, "G", -m_a, f"{tag}.pick_a")
    builder.add_row({f: 1.0, b: -1.0, z: m_b}, "G", 0.0, f"{tag}.pick_b")
    builder.gadgets.append(MinGadget(f=f, a=a, b=b, z=z))
    return z


def encode_capacity_drop(
    builder: ModelBuilder,
    xi: int,
    x: int,
    x_crit: float,
    c_max: float,
    alpha: float,
    x_jam: float,
    *,
    name: str | None = None,
) -> int:
    """Tie ``xi`` to the discharge-capacity switch on ``x``.

    Returns the binary ``z`` with ``z = 1`` forcing ``x <= x_crit`` and
    ``xi = c_max``, and ``z = 0`` forcing ``x >= x_crit`` and
    ``xi = alpha * c_max``.  A state exactly on the threshold admits both
    branches.  ``x_jam`` caps the state from above for the big-M on the
    congested branch.
    """
    tag = name if name is not None else f"drop{len(builder.gadgets)}"
    lb_x = builder.lower[x]
    ub_x = min(builder.upper[x], float(x_jam))
    z = builder.add_variable(f"{tag}.z", binary=True)
    builder.add_row(
        {xi: 1.0, z: -(1.0 - alpha) * c_max}, "E", alpha * c_max, f"{tag}.tie"
    )
    builder.add_row(
        {x: 1.0, z: max(ub_x - x_crit, 0.0)}, "L", ub_x, f"{tag}.cap"
    )
    builder.add_row(
        {x: 1.0, z: max(x_crit - lb_x, 0.0)}, "G", x_crit, f"{tag}.floor"
    )
    builder.gadgets.append(DropGadget(xi=xi, x=x, z=z, x_crit=x_crit))
    return z


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
            lines.append(f"gadget min f={g.f} a={g.a} b={g.b} z={g.z}")
        elif isinstance(g, DropGadget):
            lines.append(
                f"gadget drop xi={g.xi} x={g.x} z={g.z} crit={_fmt(g.x_crit)}"
            )
    lines.append("end")
    return "\n".join(lines) + "\n"


def solve_milp(
    model: MilpModel,
    *,
    budget: MilpBudget | None = None,
    incumbent_hook=None,
    initial_candidates=None,
) -> Solution:
    """Branch and bound over the binary columns of ``model``.

    Exploration is best-bound with depth-first plunging: after branching,
    the child on the side the relaxation leans toward is solved immediately
    (warm-started from the parent basis); the sibling joins the pool keyed
    by its inherited bound.  Branching picks the most fractional binary,
    ties to the lowest column index, so repeated solves of identical data
    visit identical trees.

    Incumbents come from three sources.  ``initial_candidates`` are full
    assignments tried before any node is solved, so a caller with a cheap
    feasible guess can seed the incumbent; the best one also crashes the
    root basis.  At every fractional node that survives pruning, the
    optional ``incumbent_hook(x)`` may return a full column vector (the
    controller plugs a dynamics-completion heuristic in here).  A node
    whose relaxation is integral is an incumbent itself.  Candidates are
    verified against the model before being trusted; they only tighten
    pruning and never change the reported optimum.

    The tree builds one equality form; a node solve passes only its column
    bounds, through this module's ``solve_canonical``, where callers may
    wrap it.

    Returns a :class:`Solution` whose ``bound`` is the proven bound in the
    model's own sense and whose ``gap`` is ``objective - bound`` for ``min``
    (mirrored for ``max``).  A search that ends with no incumbent and no
    budget hit after closing an integral relaxation that failed verification
    proved nothing, and raises :class:`NumericalBreakdown`.
    """
    bud = budget or MilpBudget()
    lp = model.lp
    flip = -1.0 if lp.sense == "max" else 1.0
    c = flip * lp.obj
    form = EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, c)
    nbin = model.binaries.shape[0]

    best_obj = np.inf  # internal (min) sense
    best_x: np.ndarray | None = None
    pruned_min = np.inf
    nodes = 0
    iters = 0
    unverified = 0  # integral relaxations closed for failing verification
    seq = 0
    # pool entries: (inherited bound, insertion sequence, fixes, warm basis)
    pool: list[tuple[float, int, dict[int, float], WarmBasis | None]] = []
    budget_hit = False

    def gap_eff() -> float:
        if not np.isfinite(best_obj):
            return bud.gap_abs
        return max(bud.gap_abs, bud.gap_rel * abs(best_obj))

    def consider(x: np.ndarray, obj_internal: float) -> None:
        nonlocal best_obj, best_x
        if obj_internal < best_obj - 1e-12:
            best_obj = obj_internal
            best_x = x.copy()

    def try_candidate(cand) -> None:
        if cand is not None:
            cand = np.asarray(cand, dtype=float)
            if not check_solution(model, cand, tol=1e-7):
                consider(cand, float(c @ cand))

    for cand in initial_candidates or ():
        try_candidate(cand)

    root_basis = None
    if best_x is not None:
        # The incumbent is a verified feasible point, so the basis that
        # reproduces it starts the root with phase 1 already satisfied.
        root_basis = crash_from_point(form, lp.col_lower, lp.col_upper, best_x)
    heapq.heappush(pool, (-np.inf, seq, {}, root_basis))

    while pool:
        if nodes >= bud.max_nodes:
            budget_hit = True
            break
        inherited, _, fixes, warm = heapq.heappop(pool)
        if inherited >= best_obj - gap_eff():
            pruned_min = min(pruned_min, inherited)
            continue
        # depth-first plunge from this pool entry
        while True:
            if nodes >= bud.max_nodes:
                budget_hit = True
                break
            nodes += 1
            lb, ub = lp.col_lower, lp.col_upper
            if fixes:
                lb, ub = lb.copy(), ub.copy()
                for j, v in fixes.items():
                    lb[j] = ub[j] = v
            res = solve_canonical(form, lb, ub, warm=warm)
            iters += res.iterations
            if res.status == "infeasible":
                break
            bound = res.obj
            if bound >= best_obj - gap_eff():
                pruned_min = min(pruned_min, bound)
                break
            xb = res.x[model.binaries] if nbin else np.empty(0)
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
                break
            if incumbent_hook is not None:
                try_candidate(incumbent_hook(res.x))
            if bound >= best_obj - gap_eff():
                pruned_min = min(pruned_min, bound)
                break
            pick = live[np.argmax(frac[live])]
            ties = live[frac[live] >= frac[pick] - 1e-12]
            pick = int(ties.min())
            j = int(model.binaries[pick])
            lean = 1.0 if res.x[j] >= 0.5 else 0.0
            far = dict(fixes)
            far[j] = 1.0 - lean
            seq += 1
            heapq.heappush(pool, (bound, seq, far, res.basis))
            fixes = dict(fixes)
            fixes[j] = lean
            warm = res.basis
        if budget_hit:
            break

    open_min = min((e[0] for e in pool), default=np.inf)
    proven = min(pruned_min, open_min, best_obj)
    if best_x is None:
        if budget_hit:
            return Solution(
                BUDGET_EXCEEDED,
                np.zeros(model.lp.n_cols),
                np.nan,
                flip * proven,
                np.inf,
                nodes,
                iters,
            )
        if unverified:
            raise NumericalBreakdown(
                f"no incumbent after {nodes} nodes: {unverified} integral node "
                "relaxations failed verification, so the model is undecided"
            )
        return Solution(
            INFEASIBLE, np.zeros(model.lp.n_cols), np.nan, np.nan, np.inf, nodes, iters
        )
    status = BUDGET_EXCEEDED if budget_hit else OPTIMAL
    gap = max(best_obj - proven, 0.0)
    return Solution(status, best_x, flip * best_obj, flip * proven, gap, nodes, iters)
