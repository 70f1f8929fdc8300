"""Solver checks: frozen examples, brute-force oracles, determinism.

scipy.optimize.linprog acts as an independent oracle for randomized
instances; it is never used by the package itself.  Models without
binaries are continuous programs that ``solve_milp`` settles at its root.
"""

from dataclasses import fields as dataclass_fields, replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from rampflow import _simplex, harness, milp, mpc
from rampflow.embedding import DemandBounds, LiftedState, ParamBounds
from rampflow.milp import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    MilpBudget,
    ModelBuilder,
    Term,
    check_solution,
    dump_model,
    encode_capacity_drop,
    encode_min_equality,
    solve_milp,
)

from conftest import highs_milp
from test_mpc import pinned_problem, random_box, random_param_pair


def test_lp_single_lower_bound_row():
    b = ModelBuilder("tiny")
    x = b.add_variable("x", lower=0.0, upper=10.0, objective=1.0)
    b.add_row({x: 1.0}, "G", 3.0)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.x[x] == pytest.approx(3.0, abs=1e-9)


def test_lp_two_variable_vertex():
    b = ModelBuilder("vertex")
    x = b.add_variable("x", upper=10.0, objective=-3.0)
    y = b.add_variable("y", upper=10.0, objective=-2.0)
    b.add_row({x: 1.0, y: 1.0}, "L", 4.0)
    b.add_row({x: 1.0}, "L", 2.0)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-10.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)


def test_lp_infeasible_pair():
    b = ModelBuilder("empty")
    x = b.add_variable("x", lower=0.0, upper=10.0, objective=1.0)
    b.add_row({x: 1.0}, "G", 1.0)
    b.add_row({x: 1.0}, "L", 0.0)
    assert solve_milp(b.build(), budget=MilpBudget()).status == INFEASIBLE


def test_an_infinite_bound_is_rejected_by_the_builder_and_the_solver():
    b = ModelBuilder("ray")
    with pytest.raises(ValueError, match="variable x needs finite bounds"):
        b.add_variable("x", objective=1.0)  # upper bound defaults to +inf
    with pytest.raises(ValueError, match="variable y needs finite bounds"):
        b.add_variable("y", lower=-np.inf, upper=1.0)
    with pytest.raises(ValueError, match="variable z needs finite bounds"):
        b.add_variable("z", lower=np.nan, binary=True)
    assert b.n_cols == 0 and not b.binary
    form = _simplex.EqualityForm(np.eye(2), "LG", np.ones(2), np.ones(2))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            _simplex.solve_canonical(form, np.zeros(2), np.array([1.0, bad]))


def test_lp_equality_row_with_free_variable():
    b = ModelBuilder("freevar")
    x = b.add_variable("x", lower=0.0, upper=10.0, objective=1.0)
    y = b.add_variable("y", lower=-10.0, upper=10.0, objective=1.0)
    b.add_row({x: 1.0, y: -1.0}, "E", 5.0)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.0, -5.0], atol=1e-9)


def test_lp_bound_flip_path():
    # the optimum needs a nonbasic variable to jump between its bounds
    b = ModelBuilder("flip")
    x = b.add_variable("x", upper=1.0, objective=-1.0)
    y = b.add_variable("y", upper=1.0, objective=-1.0)
    b.add_row({x: 1.0, y: 1.0}, "L", 1.5)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.5, abs=1e-9)


def _random_lp(rng, n=7, m=5):
    b = ModelBuilder("rand")
    lower = np.zeros(n)
    upper = rng.uniform(1.0, 10.0, n)
    cost = rng.uniform(-5.0, 5.0, n)
    cols = [
        b.add_variable(f"x{j}", lower=lower[j], upper=upper[j], objective=cost[j])
        for j in range(n)
    ]
    a = rng.uniform(-2.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.7)
    anchor = rng.uniform(lower, upper)
    rhs = a @ anchor + rng.uniform(0.1, 3.0, m)
    for i in range(m):
        b.add_row({cols[j]: a[i, j] for j in range(n)}, "L", rhs[i])
    return b.build(), cost, a, rhs, lower, upper


def test_lp_matches_reference_solver_on_random_instances():
    rng = np.random.default_rng(1107)
    for _ in range(60):
        model, cost, a, rhs, lower, upper = _random_lp(rng)
        sol = solve_milp(model, budget=MilpBudget())
        ref = scipy.optimize.linprog(
            cost, A_ub=a, b_ub=rhs, bounds=list(zip(lower, upper)), method="highs"
        )
        assert sol.status == OPTIMAL
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
        assert not check_solution(model, sol.x, tol=1e-9)


def test_warm_reoptimisation_by_the_dual_matches_cold_solves_and_highs(monkeypatch):
    """Random boxed LPs over all three row senses: solve, change one
    column's bounds, and solve again warm from the exported basis. The
    warm solve takes the dual path and agrees with a cold solve and with
    HiGHS on status and objective."""
    dual, duals = _simplex._Worker._dual, []

    def spy(worker, *args):
        duals.append(worker)
        return dual(worker, *args)

    monkeypatch.setattr(_simplex._Worker, "_dual", spy)
    rng = np.random.default_rng(2305)
    seen = set()
    for _ in range(60):
        m, n = int(rng.integers(2, 7)), int(rng.integers(3, 9))
        a = rng.uniform(-2.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.7)
        senses = rng.choice(list("LEG"), m)
        lb, ub = np.zeros(n), rng.uniform(1.0, 10.0, n)
        act = a @ rng.uniform(lb, ub)
        b = np.where(senses == "L", act + rng.uniform(0.1, 2.0, m),
                     np.where(senses == "G", act - rng.uniform(0.1, 2.0, m), act))
        c = rng.uniform(-5.0, 5.0, n)
        form = _simplex.EqualityForm(sp.csc_matrix(a), senses, b, c)
        root = _simplex.solve_canonical(form, lb, ub)
        assert root.status == "optimal"
        j = int(rng.integers(n))
        cut = rng.uniform(lb[j], ub[j], 2)
        lb2, ub2 = lb.copy(), ub.copy()
        lb2[j] = cut.min()
        ub2[j] = cut.max() if rng.random() < 0.7 else cut.min()  # or fix it
        del duals[:]
        warm = _simplex.solve_canonical(form, lb2, ub2, warm=root.basis)
        assert len(duals) == 1
        cold = _simplex.solve_canonical(form, lb2, ub2)
        ref = scipy.optimize.linprog(
            c, A_ub=np.vstack([a[senses == "L"], -a[senses == "G"]]),
            b_ub=np.concatenate([b[senses == "L"], -b[senses == "G"]]),
            A_eq=a[senses == "E"], b_eq=b[senses == "E"], bounds=list(zip(lb2, ub2)),
            method="highs")
        assert ref.status in (0, 2)
        status = "optimal" if ref.status == 0 else "infeasible"
        assert warm.status == cold.status == status
        seen.add(status)
        if status == "optimal":
            assert warm.obj == pytest.approx(ref.fun, abs=1e-7)
            assert cold.obj == pytest.approx(ref.fun, abs=1e-7)
    assert seen == {"optimal", "infeasible"}


def test_milp_forced_rounding():
    b = ModelBuilder("round")
    x1 = b.add_variable("x1", objective=1.0, binary=True)
    x2 = b.add_variable("x2", objective=1.0, binary=True)
    b.add_row({x1: 1.0, x2: 1.0}, "G", 1.5)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_milp_integral_relaxation_solves_at_root():
    b = ModelBuilder("root")
    x1 = b.add_variable("x1", objective=2.0, binary=True)
    x2 = b.add_variable("x2", objective=3.0, binary=True)
    b.add_row({x1: 1.0, x2: 1.0}, "G", 1.0)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.nodes == 1


def _random_milp(rng, n_bin, n_cont=2, m=4):
    b = ModelBuilder("randmix")
    zc = rng.uniform(-4.0, 4.0, n_bin)
    xc = rng.uniform(-3.0, 3.0, n_cont)
    xu = rng.uniform(1.0, 6.0, n_cont)
    zs = [b.add_variable(f"z{j}", objective=zc[j], binary=True) for j in range(n_bin)]
    xs = [
        b.add_variable(f"x{j}", upper=xu[j], objective=xc[j]) for j in range(n_cont)
    ]
    az = rng.uniform(-3.0, 3.0, (m, n_bin)) * (rng.random((m, n_bin)) < 0.8)
    ax = rng.uniform(-2.0, 2.0, (m, n_cont))
    z0 = rng.integers(0, 2, n_bin).astype(float)
    x0 = rng.uniform(0.0, xu)
    rhs = az @ z0 + ax @ x0 + rng.uniform(0.05, 2.0, m)
    for i in range(m):
        coeffs = {zs[j]: az[i, j] for j in range(n_bin)}
        coeffs.update({xs[j]: ax[i, j] for j in range(n_cont)})
        b.add_row(coeffs, "L", rhs[i])
    return b.build(), zc, xc, az, ax, rhs, xu


def _enumerate_optimum(zc, xc, az, ax, rhs, xu):
    n_bin = zc.shape[0]
    best = np.inf
    for mask in range(1 << n_bin):
        z = np.array([(mask >> j) & 1 for j in range(n_bin)], dtype=float)
        ref = scipy.optimize.linprog(
            xc,
            A_ub=ax,
            b_ub=rhs - az @ z,
            bounds=[(0.0, u) for u in xu],
            method="highs",
        )
        if ref.status == 0:
            best = min(best, float(zc @ z) + float(ref.fun))
    return best


def test_milp_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(40414)
    solved_with_branching = 0
    for _ in range(80):
        nb = int(rng.integers(2, 7))
        model, zc, xc, az, ax, rhs, xu = _random_milp(rng, nb)
        sol = solve_milp(model, budget=MilpBudget())
        best = _enumerate_optimum(zc, xc, az, ax, rhs, xu)
        if not np.isfinite(best):
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(best, abs=1e-6)
        assert not check_solution(model, sol.x, tol=1e-9)
        assert sol.gap <= 1e-6 + 1e-12
        if sol.nodes > 1:
            solved_with_branching += 1
    # the suite must actually exercise the tree, not just integral roots
    assert solved_with_branching >= 10


def test_milp_budget_exhaustion_keeps_proven_bound():
    rng = np.random.default_rng(77)
    model, zc, xc, az, ax, rhs, xu = _random_milp(rng, 6)
    full = solve_milp(model, budget=MilpBudget())
    assert full.status == OPTIMAL
    assert full.nodes > 1
    capped = solve_milp(model, budget=MilpBudget(max_nodes=1))
    assert capped.status == BUDGET_EXCEEDED
    assert capped.bound <= full.objective + 1e-9


def test_milp_budget_exits_at_every_depth(monkeypatch):
    """Cap the search at every node count up to one past what it needs: the
    capped search is the uncapped one cut short, whether the next node
    would have been a plunge child or a pool entry."""
    rng = np.random.default_rng(909)
    box = milp._RowPropagation.box
    fixed = []  # per node: the (binary, value) pairs it fixes

    def spy(rows, lo, hi, fixes):
        fixed.append(set(fixes.items()))
        return box(rows, lo, hi, fixes)

    monkeypatch.setattr(milp._RowPropagation, "box", spy)
    cut_before = {"plunge": 0, "pool": 0}
    for _ in range(12):
        model, *_ = _random_milp(rng, int(rng.integers(4, 8)))
        fixed.clear()
        full = solve_milp(model, budget=MilpBudget())
        path = list(fixed)
        if full.status != OPTIMAL:
            continue
        for cap in range(1, full.nodes + 2):
            sol = solve_milp(model, budget=MilpBudget(max_nodes=cap))
            assert sol.nodes == min(cap, full.nodes)
            assert sol.bound <= full.objective + 1e-9
            if np.isfinite(sol.objective):
                assert not check_solution(model, sol.x, tol=1e-7)
            if cap > full.nodes:
                assert sol.status == OPTIMAL
            elif cap < full.nodes:
                assert sol.status == BUDGET_EXCEEDED
                # a plunge child fixes what its parent fixed and one more
                plunge = path[cap - 1] <= path[cap]
                cut_before["plunge" if plunge else "pool"] += 1
    assert min(cut_before.values()) >= 10


def test_milp_determinism():
    rng = np.random.default_rng(2024)
    model, *_ = _random_milp(rng, 6)
    a = solve_milp(model, budget=MilpBudget())
    b = solve_milp(model, budget=MilpBudget())
    assert a.status == b.status == OPTIMAL
    assert a.objective == b.objective
    assert a.nodes == b.nodes
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.x, b.x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from([0.05, 0.2, 0.3, 0.45, 0.5, 0.55, 0.7, 0.8, 0.95]),
                min_size=1, max_size=8))
def test_with_nothing_observed_the_rule_picks_the_most_fractional_binary(xb):
    """Before any child has solved, every pseudocost reads 1.0, so the
    product score orders the binaries as ``min(x, 1 - x)`` does, and a
    tie (0.3 against 0.7 differs in the last bit) goes to the lowest
    position."""
    xb = np.array(xb)
    live = np.arange(xb.shape[0])
    frac = np.minimum(xb, 1.0 - xb)
    want = int(np.flatnonzero(frac >= frac.max() - 1e-12)[0])
    assert milp._Pseudocosts(xb.shape[0]).pick(xb, live) == want
    # a binary left out of ``live`` is never picked
    if xb.shape[0] > 1:
        rest = np.delete(live, want)
        assert milp._Pseudocosts(xb.shape[0]).pick(xb, rest) in rest


def test_a_pseudocost_is_the_bound_increase_per_unit_of_distance():
    """A child records ``max(child - parent, 0) / distance`` for its binary
    and direction; the rule reads each branch's average, and a branch with
    no observation the mean of the observed averages."""
    pc = milp._Pseudocosts(3)
    pc.record((10.0, 0, 0, 0.25), 12.5)   # down from 0.25: 2.5 over 0.25
    pc.record((10.0, 0, 0, 0.5), 17.0)    # down from 0.5: 7.0 over 0.5
    pc.record((10.0, 0, 1, 0.25), 17.5)   # up from 0.25: 7.5 over 0.75
    pc.record((10.0, 1, 1, 0.5), 9.0)     # a child below its parent gains 0
    np.testing.assert_array_equal(pc.gain, [[10.0 + 14.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    np.testing.assert_array_equal(pc.count, [[2, 0, 0], [1, 1, 0]])
    # averages: binary 0 down 12 and up 10, binary 1 up 0; the mean 22 / 3
    # stands for binary 1 down and both of binary 2's branches
    mean = 22.0 / 3.0
    xb, live = np.array([0.5, 0.5, 0.5]), np.arange(3)
    assert pc.pick(xb, live) == 0  # 6 * 5 against (mean / 2) ** 2
    xb = np.array([0.1, 0.5, 0.5])
    assert (1.2 * 9.0) < (mean / 2) ** 2
    assert pc.pick(xb, live) == 2  # binary 1 scores mean / 2 * 1e-6


def test_two_solves_of_one_model_visit_identical_trees(
        monkeypatch, stretch, nominal_demand):
    """The interval pinned problem branches on learnt pseudocosts for most
    of its nodes; two solves pass the same bounds to every node LP in the
    same order and record the same pseudocost observations."""
    prob, _ = pinned_problem("interval", nominal_demand, stretch,
                             ParamBounds(stretch, stretch))
    solve, record, trail = milp.solve_canonical, milp._Pseudocosts.record, []

    def lp_spy(form, lb, ub, **kwargs):
        res = solve(form, lb, ub, **kwargs)
        trail.append(("lp", lb.tobytes(), ub.tobytes(), res.obj, res.x))
        return res

    def record_spy(pc, branch, bound):
        trail.append(("record", branch, bound))
        record(pc, branch, bound)

    monkeypatch.setattr(milp, "solve_canonical", lp_spy)
    monkeypatch.setattr(milp._Pseudocosts, "record", record_spy)
    runs = []
    for _ in range(2):
        trail.clear()
        sol = solve_milp(prob.model, budget=MilpBudget())
        runs.append((sol.nodes, sol.iterations, sol.objective, list(trail)))
    assert runs[0][:3] == runs[1][:3]
    nodes, first, second = runs[0][0], runs[0][3], runs[1][3]
    assert [t[:4] for t in first] == [t[:4] for t in second]
    # each observation follows its child's LP: the bound is that LP's, the
    # child's LP fixes the binary at the branch's target, and the parent's
    # bound and x_j are an earlier LP's
    binaries = prob.model.binaries
    records = [k for k, t in enumerate(first) if t[0] == "record"]
    assert nodes > 50 and len(records) > 50
    for k in records:
        (parent, pos, up, x_j), bound = first[k][1:]
        _, lb, ub, obj, _ = first[k - 1]
        j = binaries[pos]
        assert bound == obj
        assert np.frombuffer(lb)[j] == np.frombuffer(ub)[j] == up
        assert any(t[4][j] == x_j for t in first[:k - 1] if t[0] == "lp" and t[3] == parent)
    assert len({first[k][2] for k in records}) > 1


def term(b, col):
    """Column ``col`` of builder ``b`` as a term ranged by its bounds."""
    return Term(col, 1.0, 0.0, b.lower[col], b.upper[col])


def test_min_gadget_picks_smaller_argument():
    b = ModelBuilder("minab")
    a = b.add_variable("a", lower=15.0, upper=15.0)
    c = b.add_variable("b", lower=20.0, upper=20.0)
    f = b.add_variable("f", lower=0.0, upper=30.0, objective=1.0)
    z = encode_min_equality(b, f, term(b, a), term(b, c))
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.x[f] == pytest.approx(15.0, abs=1e-9)
    assert sol.x[z] == pytest.approx(1.0, abs=1e-9)


def test_min_gadget_tie_admits_either_selector():
    for push in (1.0, -1.0):
        b = ModelBuilder("tie")
        a = b.add_variable("a", lower=7.0, upper=7.0)
        c = b.add_variable("b", lower=7.0, upper=7.0)
        f = b.add_variable("f", lower=0.0, upper=30.0)
        z = encode_min_equality(b, f, term(b, a), term(b, c))
        # push the selector both ways; f must stay pinned at the tie value
        b.obj[z] = push
        sol = solve_milp(b.build(), budget=MilpBudget())
        assert sol.status == OPTIMAL
        assert sol.x[f] == pytest.approx(7.0, abs=1e-9)
        assert sol.x[z] == pytest.approx(0.0 if push > 0 else 1.0, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_min_gadget_grid_projection(sign):
    grid = [0.0, 3.7, 7.0, 12.0]
    for va in grid:
        for vb in grid:
            b = ModelBuilder("grid")
            a = b.add_variable("a", lower=va, upper=va)
            c = b.add_variable("b", lower=vb, upper=vb)
            f = b.add_variable("f", lower=-5.0, upper=20.0, objective=sign)
            encode_min_equality(b, f, term(b, a), term(b, c))
            sol = solve_milp(b.build(), budget=MilpBudget())
            assert sol.status == OPTIMAL
            assert sol.x[f] == pytest.approx(min(va, vb), abs=1e-9)


def test_min_gadget_derives_big_m_from_column_bounds():
    b = ModelBuilder("ms")
    a = b.add_variable("a", lower=2.0, upper=9.0)
    c = b.add_variable("b", lower=1.0, upper=6.0)
    f = b.add_variable("f", lower=0.0, upper=9.0, objective=-1.0)
    z = encode_min_equality(b, f, term(b, a), term(b, c))
    # g = min(a, 10 - 2b), the second operand ranging over [-2, 8]
    g = b.add_variable("g", lower=-2.0, upper=9.0, objective=-1.0)
    y = encode_min_equality(b, g, term(b, a), Term(c, -2.0, 10.0, -2.0, 8.0))
    # the exact sups of (a-b)+ and (b-a)+ over the bounds, 8 and 4; for g,
    # 9 - (-2) and 8 - 2
    model = b.build()
    for sel, big_m in ((z, [-8.0, 4.0]), (y, [-11.0, 6.0])):
        col = model.lp.matrix()[:, [sel]].toarray().ravel()
        assert sorted(col[col != 0.0].tolist()) == big_m
    b.add_row({a: 1.0}, "E", 3.0)
    b.add_row({c: 1.0}, "E", 5.5)
    sol = solve_milp(b.build(), budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.x[f] == pytest.approx(3.0, abs=1e-9)
    assert sol.x[g] == pytest.approx(-1.0, abs=1e-9)
    assert sol.x[y] == pytest.approx(0.0, abs=1e-9)


def _drop_model(x_value, sign):
    """The switch on a pinned state, its binary priced by ``sign``; the
    binary is 1 on the full-capacity branch."""
    b = ModelBuilder("drop")
    x = b.add_variable("x", lower=x_value, upper=x_value)
    z = encode_capacity_drop(b, x, 40.0)
    b.obj[z] = sign
    return b.build(), z


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_capacity_drop_uncongested_state_forces_full_capacity(sign):
    model, z = _drop_model(30.0, sign)
    sol = solve_milp(model, budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.x[z] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["min", "max"])
def test_capacity_drop_congested_state_forces_reduced_capacity(sign):
    model, z = _drop_model(60.0, sign)
    sol = solve_milp(model, budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.x[z] == pytest.approx(0.0, abs=1e-9)


def test_capacity_drop_boundary_admits_no_drop_branch():
    model, z = _drop_model(40.0, -1.0)
    sol = solve_milp(model, budget=MilpBudget())
    assert sol.status == OPTIMAL
    assert sol.x[z] == pytest.approx(1.0, abs=1e-9)


def test_fix_decided_fixes_the_selectors_the_bounds_decide():
    """A selector is fixed only where every point of the column boxes
    admits its branch; a tie or a boundary point admits both."""
    b = ModelBuilder("decided")

    def col(lo, hi):
        return b.add_variable(lower=lo, upper=hi)

    want = {}
    for a_box, b_box, fixed in [((1.0, 4.0), (4.0, 9.0), 1.0),  # a below b
                                ((5.0, 9.0), (1.0, 4.5), 0.0),  # b strictly below a
                                ((1.0, 6.0), (5.0, 9.0), None),  # overlapping
                                ((4.0, 9.0), (1.0, 4.0), None),  # b touches a
                                ((7.0, 7.0), (7.0, 7.0), 1.0)]:  # pinned tie
        z = encode_min_equality(b, col(0.0, 9.0), term(b, col(*a_box)),
                                term(b, col(*b_box)))
        want[z] = fixed
    for x_box, fixed in [((30.0, 40.0), 1.0), ((40.5, 60.0), 0.0), ((35.0, 45.0), None)]:
        z = encode_capacity_drop(b, col(*x_box), 40.0)
        want[z] = fixed
    b.fix_decided()
    lp = b.build().lp
    for z, fixed in want.items():
        box = (0.0, 1.0) if fixed is None else (fixed, fixed)
        assert (lp.col_lower[z], lp.col_upper[z]) == box, lp.col_names[z]


def _node_tie_model(push):
    """``f = min(a, b)`` with ``a = 4 + 3y`` and ``b = 5 + 2y``: the operand
    ranges overlap at the root, the node ``y = 1`` pins a tie at 7 and the
    node ``y = 0`` decides the selector to 1.  The root relaxation leaves
    ``y`` the most fractional binary (a small reward on ``f`` keeps the
    selector integral there), so the search branches on ``y`` first, and
    ``2w + y >= 1`` makes ``w`` fractional under ``y = 0``, so that node
    has children.  The selector costs ``push``; the optimum is ``y = 1``
    for each push."""
    b = ModelBuilder("node_tie")
    y = b.add_variable("y", objective=-1.0, binary=True)
    w = b.add_variable("w", objective=3.0, binary=True)
    a = b.add_variable("a", upper=10.0)
    c = b.add_variable("b", upper=10.0)
    f = b.add_variable("f", upper=10.0, objective=-0.01)
    z = encode_min_equality(b, f, term(b, a), term(b, c))
    b.obj[z] = push
    b.add_row({a: 1.0, y: -3.0}, "E", 4.0)
    b.add_row({c: 1.0, y: -2.0}, "E", 5.0)
    b.add_row({y: 2.0, w: -1.0}, "L", 1.0)
    b.add_row({w: 2.0, y: 1.0}, "G", 1.0)
    return b.build(), y, w, z


def test_a_selector_two_gadgets_decide_both_ways_closes_the_node():
    """A min reads a drop's binary as its selector. The root box puts x
    strictly below the drop's threshold (1) and the min's constant term b
    strictly below a (0): no point of the box lies on either branch, so the
    root closes without an LP, although its relaxation has a point. The
    min adds rows only, and refuses a selector that is not a binary."""
    b = ModelBuilder("shared")
    x = b.add_variable("x", lower=0.0, upper=0.5)
    y = b.add_variable("y", lower=1.0, upper=2.0)
    f = b.add_variable("f", lower=0.0, upper=2.0)
    z = encode_capacity_drop(b, x, 1.0)
    a_term, b_term = Term(y, 1.0, 0.0, 1.0, 2.0), Term(y, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="binary"):
        encode_min_equality(b, f, a_term, b_term, z=y)
    assert encode_min_equality(b, f, a_term, b_term, z=z) == z
    model = b.build()
    assert (model.lp.n_cols, model.lp.n_rows, model.binaries.tolist()) == (4, 6, [z])
    lp = model.lp
    root = milp._RowPropagation(lp).box(lp.col_lower, lp.col_upper, {})
    assert root is not None
    selectors = milp._Selectors(model.operands)
    assert selectors.decide(*root, ties=False).tolist() == [0.0, 1.0]
    assert selectors.fixes(root, {}) is None
    assert selectors.fixes(root, {z: 1.0}) == {}
    sol = solve_milp(model, budget=MilpBudget())
    assert (sol.status, sol.nodes, sol.iterations) == (INFEASIBLE, 1, 0)
    assert highs_milp(model).status == 2
    # at build time the drop's decision wins
    b.fix_decided()
    assert b.lower[z] == b.upper[z] == 1.0


@pytest.mark.parametrize("push", [1.0, 0.0, -1.0])
def test_a_tie_in_a_node_box_leaves_the_selector_to_branching(push):
    """Priced either way, or free, the selector at the node's tie takes the
    branch the objective wants, as HiGHS finds."""
    model, y, _, z = _node_tie_model(push)
    lp = model.lp
    root = milp._RowPropagation(lp).box(lp.col_lower, lp.col_upper, {})
    assert np.isnan(milp._Selectors(model.operands).decide(*root, ties=False)).all()
    sol = solve_milp(model, budget=MilpBudget())
    ref = highs_milp(model)
    assert sol.status == OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)
    assert not check_solution(model, sol.x, tol=1e-7)
    if push:
        assert (sol.x[y], sol.x[z]) == pytest.approx((1.0, 0.5 - push / 2), abs=1e-9)


def test_a_selector_a_node_box_decides_is_fixed_and_inherited(monkeypatch):
    """Under ``y = 0`` the box decides the free selector; the node's LP and
    its child's LP solve with it fixed at 1, and the search still ends at
    HiGHS's optimum. (The other child, ``w = 0``, closes by propagation.)"""
    model, y, w, z = _node_tie_model(0.0)
    fixes, decide = [], milp._Selectors.fixes

    def spy(selectors, box, node_fixes):
        decided = decide(selectors, box, node_fixes)
        fixes.append((dict(node_fixes), decided))
        return decided

    solve, solved = milp.solve_canonical, []

    def lp_spy(form, lb, ub, **kwargs):
        solved.append((lb[y], ub[y], lb[z], ub[z]))
        return solve(form, lb, ub, **kwargs)

    monkeypatch.setattr(milp._Selectors, "fixes", spy)
    monkeypatch.setattr(milp, "solve_canonical", lp_spy)
    sol = solve_milp(model, budget=MilpBudget())
    assert sol.objective == pytest.approx(highs_milp(model).fun, abs=1e-7)
    decided = [k for k, (_, new) in enumerate(fixes) if new]
    assert [fixes[k][1] for k in decided] == [{z: 1.0}]
    k = decided[0]
    assert fixes[k][0][y] == 0.0
    # the child arrives with the fix among its own
    assert [node for node, _ in fixes[k + 1:] if node.get(y) == 0.0] == [
        {y: 0.0, z: 1.0, w: 1.0}]
    assert solved.count((0.0, 0.0, 1.0, 1.0)) == 2


def test_warm_basis_restart_after_bound_change():
    # branch and bound replays the parent's basis against the child's bounds
    b = ModelBuilder("warm")
    x = b.add_variable("x", upper=10.0, objective=-1.0)
    y = b.add_variable("y", upper=10.0, objective=-2.0)
    b.add_row({x: 1.0, y: 1.0}, "L", 12.0)
    lp = b.build().lp
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)

    def solve(upper, warm=None):
        return _simplex.solve_canonical(form, lp.col_lower, upper, warm=warm)

    first = solve(lp.col_upper)
    assert first.status == "optimal" and first.basis is not None
    upper = lp.col_upper.copy()
    upper[y] = 4.0
    warm = solve(upper, first.basis)
    cold = solve(upper)
    assert warm.status == cold.status == "optimal"
    assert warm.obj == pytest.approx(cold.obj, abs=1e-9)


def test_a_dual_pivot_on_a_round_off_entry_restarts_cold(monkeypatch):
    """The dual's row offers an entering column whose own entry in the
    leaving row is zero, as when the row's entry was round-off: the solve
    restarts cold on the next rung and returns what a cold solve returns."""
    b = ModelBuilder("roundoff")
    x = b.add_variable("x", upper=10.0, objective=-1.0)
    y = b.add_variable("y", upper=10.0, objective=-2.0)
    b.add_row({x: 1.0, y: 1.0}, "L", 12.0)
    lp = b.build().lp
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
    first = _simplex.solve_canonical(form, lp.col_lower, lp.col_upper)
    upper = lp.col_upper.copy()
    upper[x] = 1.0  # the basic x = 2 now lies above its bound
    real_column, real_dual, real_solve = _simplex._column, _simplex._Worker._dual, \
        _simplex._Worker.solve
    seen = {"dual": False, "zeroed": 0, "starts": []}

    def column(cols, j):
        out = real_column(cols, j)
        if seen["dual"] and not seen["zeroed"]:
            seen["zeroed"] += 1
            out[:] = 0.0
        return out

    def dual(worker, *args):
        seen["dual"] = True
        return real_dual(worker, *args)

    def solve(worker):
        seen["starts"].append(worker.warm)
        return real_solve(worker)

    monkeypatch.setattr(_simplex, "_column", column)
    monkeypatch.setattr(_simplex._Worker, "_dual", dual)
    monkeypatch.setattr(_simplex._Worker, "solve", solve)
    warm = _simplex.solve_canonical(form, lp.col_lower, upper, warm=first.basis)
    assert seen["zeroed"] == 1 and seen["starts"] == [True, False]
    cold = _simplex.solve_canonical(form, lp.col_lower, upper)
    assert warm.status == cold.status == "optimal"
    assert warm.obj == cold.obj == pytest.approx(-21.0, abs=1e-9)


def test_an_integral_node_that_violates_a_row_is_not_an_incumbent(monkeypatch):
    b = ModelBuilder("tampered")
    x = b.add_variable("x", upper=10.0, objective=-1.0)
    y = b.add_variable("y", objective=-2.0, binary=True)
    b.add_row({x: 1.0, y: 1.0}, "L", 3.0)
    model = b.build()
    assert solve_milp(model, budget=MilpBudget()).x.tolist() == pytest.approx([2.0, 1.0], abs=1e-9)

    solve = milp.solve_canonical

    def off_by_half(*args, **kwargs):
        # an integral relaxation whose x breaks the row by 0.5
        res = solve(*args, **kwargs)
        moved = res.x.copy()
        moved[x] += 0.5
        return replace(res, x=moved, obj=res.obj - 0.5)

    monkeypatch.setattr(milp, "solve_canonical", off_by_half)
    seed = np.array([0.0, 1.0])
    sol = solve_milp(model, budget=MilpBudget(), initial_candidates=[seed])
    assert sol.nodes == 1
    np.testing.assert_array_equal(sol.x, seed)
    assert sol.objective == pytest.approx(-2.0, abs=1e-9)
    # the closed node's bound stays in the proven bound and the gap
    assert sol.bound == pytest.approx(-4.5, abs=1e-9)
    assert sol.gap == pytest.approx(2.5, abs=1e-9)


def test_a_search_whose_only_integral_node_fails_verification_is_undecided(monkeypatch):
    """The model of the test above without the seed: the one node it closes
    proves nothing, so the search must not report the model infeasible."""
    b = ModelBuilder("tampered")
    x = b.add_variable("x", upper=10.0, objective=-1.0)
    y = b.add_variable("y", objective=-2.0, binary=True)
    b.add_row({x: 1.0, y: 1.0}, "L", 3.0)
    model = b.build()
    solve = milp.solve_canonical

    def off_by_half(*args, **kwargs):
        res = solve(*args, **kwargs)
        moved = res.x.copy()
        moved[x] += 0.5
        return replace(res, x=moved, obj=res.obj - 0.5)

    monkeypatch.setattr(milp, "solve_canonical", off_by_half)
    with pytest.raises(milp.NumericalBreakdown, match="1 integral node"):
        solve_milp(model, budget=MilpBudget())


# ------------------------------------------------- the shared equality form


def _phase_one_lp(seed=5, m=6, n=9):
    """A bounded feasible LP whose cold start needs phase 1 (it has E rows)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 2.0, (m, n))
    a[rng.random((m, n)) < 0.4] = 0.0
    senses = np.array(list("LEGLEG"[:m]))
    x_feas = rng.uniform(0.0, 5.0, n)
    act = a @ x_feas
    b = np.where(senses == "L", act + 1.0, np.where(senses == "G", act - 1.0, act))
    c = rng.uniform(-1.0, 1.0, n)
    return sp.csc_matrix(a), senses, b, c, np.zeros(n), np.full(n, 10.0)


def _form_arrays(form):
    return [arr.copy() for arr in (form.cols.data, form.cols.indices, form.cols.indptr)]


def _assert_form_unchanged(form, before, n, m):
    assert form.cols.shape == (m, n + m)
    for now, then in zip(_form_arrays(form), before):
        assert np.array_equal(now, then)


def _assert_same_solve(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    np.testing.assert_array_equal(got.x, want.x)
    assert got.basis is not None and want.basis is not None
    np.testing.assert_array_equal(got.basis.vstat, want.basis.vstat)
    np.testing.assert_array_equal(got.basis.basis, want.basis.basis)


def test_solves_sharing_a_form_match_solves_on_fresh_forms():
    """A phase-1 root, then a warm child whose tightened bound sends the
    replayed basis through phase 1 again: sharing one form changes no bit."""
    a, senses, b, c, lb, ub = _phase_one_lp()
    m, n = a.shape
    shared = _simplex.EqualityForm(a, senses, b, c)
    before = _form_arrays(shared)
    root = _simplex.solve_canonical(shared, lb, ub)
    _assert_form_unchanged(shared, before, n, m)
    assert root.status == "optimal"
    child_ub = ub.copy()
    basic = root.basis.basis[root.basis.basis < n]
    j = int(basic[np.argmax(root.x[basic])])
    child_ub[j] = 0.5 * root.x[j]
    child = _simplex.solve_canonical(shared, lb, child_ub, warm=root.basis)
    _assert_form_unchanged(shared, before, n, m)

    fresh_root = _simplex.solve_canonical(_simplex.EqualityForm(a, senses, b, c), lb, ub)
    fresh_child = _simplex.solve_canonical(
        _simplex.EqualityForm(a, senses, b, c), lb, child_ub, warm=fresh_root.basis)
    _assert_same_solve(root, fresh_root)
    _assert_same_solve(child, fresh_child)


def test_a_cold_ladder_rung_leaves_the_shared_form_intact(monkeypatch):
    """The first rung's phase-1 factorization fails as singular after the
    worker appended its artificials; the next rung starts cold from the form,
    which must still hold ``n + m`` columns and its original entries."""
    a, senses, b, c, lb, ub = _phase_one_lp()
    m, n = a.shape
    real = _simplex._Factors

    def solve(form):
        built = []

        def flaky(cols):
            built.append(cols.shape)
            if len(built) == 2:  # the cold start, then phase 1's refactorization
                raise _simplex._SingularBasis()
            return real(cols)

        monkeypatch.setattr(_simplex, "_Factors", flaky)
        try:
            return _simplex.solve_canonical(form, lb, ub)
        finally:
            monkeypatch.setattr(_simplex, "_Factors", real)

    form = _simplex.EqualityForm(a, senses, b, c)
    before = _form_arrays(form)
    laddered = solve(form)
    _assert_form_unchanged(form, before, n, m)
    again = solve(form)
    _assert_same_solve(again, laddered)
    _assert_same_solve(solve(_simplex.EqualityForm(a, senses, b, c)), laddered)
    assert laddered.status == "optimal"
    assert laddered.obj == pytest.approx(
        _simplex.solve_canonical(form, lb, ub).obj, abs=1e-9)


def test_a_failed_artificial_swap_keeps_the_column_at_its_bound(monkeypatch):
    """Phase 1 ends with an artificial basic at zero, and the first real
    column that can replace it, ``y``, sits at its upper bound.  The swap
    factors singular once; the restore must leave ``y`` where it was."""
    b = ModelBuilder("expel")
    x = b.add_variable("x", upper=1.0, objective=1.0)
    y = b.add_variable("y", upper=2.0, objective=1.0)
    w = b.add_variable("w", upper=1.0)
    b.add_row({x: 1.0, w: 2.0}, "E", 1.0)
    b.add_row({y: 1.0}, "G", 2.0)
    model = b.build()
    lp = model.lp
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
    real_factors, real_expel = _simplex._Factors, _simplex._Worker._expel_artificials
    seen = {"expelling": False, "failed": False}

    def flaky(cols):
        if seen["expelling"] and not seen["failed"]:
            seen["failed"] = True  # the first factorization after the swap
            raise _simplex._SingularBasis()
        return real_factors(cols)

    def expel(worker):
        seen["before"] = worker.vstat.copy()
        seen["expelling"] = True
        real_expel(worker)
        seen["expelling"] = False
        seen["after"] = worker.vstat.copy()

    monkeypatch.setattr(_simplex, "_Factors", flaky)
    monkeypatch.setattr(_simplex._Worker, "_expel_artificials", expel)
    res = _simplex.solve_canonical(form, lp.col_lower, lp.col_upper)
    assert seen["failed"]
    assert seen["before"][y] == seen["after"][y] == _simplex.AT_UPPER
    assert res.status == "optimal"
    assert not check_solution(model, res.x)
    assert res.obj == pytest.approx(2.0, abs=1e-9)


def test_a_structurally_singular_artificial_swap_never_reaches_splu(monkeypatch):
    """Rows ``x + y = 1`` and ``v = 1`` with ``x`` basic in the first and an
    artificial in the second.  Read through noisy factors, ``y`` (in the
    first row only) looks like a pivot for the second row, and it comes
    before ``v``.  Swapping it in leaves the second row without a nonzero,
    so the swap is undone before SuperLU sees it: every matrix SuperLU
    receives has full rank, and the artificial stays basic."""
    form = _simplex.EqualityForm(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), "EE",
                                 np.ones(2), np.zeros(3))
    worker = _simplex._Worker(form, np.zeros(3), np.ones(3), None, *_simplex._LADDER[0])
    worker._add_artificials()
    n_real = form.n + form.m
    assert worker.n_art == 2
    worker.basis[0], worker.vstat[0], worker.vstat[n_real] = 0, _simplex.BASIC, _simplex.AT_LOWER
    worker._factor()
    btran = worker.backend.btran
    worker.backend.btran = lambda v: btran(v) + np.array([1e-3, 0.0])
    real_splu, factored = _simplex.splu, []

    def splu(cols):
        factored.append(cols.toarray())
        return real_splu(cols)

    monkeypatch.setattr(_simplex, "splu", splu)
    worker._expel_artificials()
    assert factored  # the old basis is factored again after the undo
    assert all(np.linalg.matrix_rank(cols) == form.m for cols in factored)
    np.testing.assert_array_equal(worker.basis, [0, n_real + 1])
    assert worker.vstat[1] == _simplex.AT_LOWER


@pytest.mark.parametrize("seed", range(4))
def test_column_reads_match_scipy_with_artificials_appended(seed):
    rng = np.random.default_rng(seed)
    m, n = 6, 11
    a = sp.random(m, n, density=0.35, random_state=rng, format="csc")
    form = _simplex.EqualityForm(a, list("LEGLEG"), rng.uniform(1.0, 5.0, m), np.zeros(n))
    worker = _simplex._Worker(form, np.zeros(n), np.full(n, 10.0), None, *_simplex._LADDER[0])
    worker._add_artificials()
    cols = worker.cols
    assert worker.n_art == 4  # the E and G slacks start outside their bounds
    assert cols.shape == (m, n + m + 4) and form.cols.shape == (m, n + m)
    dense = cols.toarray()
    np.testing.assert_array_equal(dense[:, : n + m], form.cols.toarray())
    # each artificial clones its slack's unit column, sign-adjusted
    np.testing.assert_array_equal(np.abs(dense[:, n + m:]).sum(axis=0), np.ones(4))
    for j in range(cols.shape[1]):
        np.testing.assert_array_equal(_simplex._column(cols, j), cols[:, [j]].toarray().ravel())
    for _ in range(6):
        idx = rng.choice(cols.shape[1], m, replace=False)
        got, want = _simplex._columns(cols, idx), cols[:, idx]
        assert got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("bad", ["sense", "b", "c", "rhs"])
def test_a_malformed_equality_form_is_rejected(bad):
    args = {"a": sp.csc_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])), "senses": ["L", "G"],
            "b": np.array([4.0, 1.0]), "c": np.array([1.0, 1.0])}
    args.update({"sense": {"senses": ["L", "X"]}, "b": {"b": np.ones(3)},
                 "c": {"c": np.ones(1)}, "rhs": {"b": np.array([4.0, np.inf])}}[bad])
    with pytest.raises(ValueError):
        _simplex.EqualityForm(**args)


@pytest.mark.parametrize("lb, ub", [(np.zeros(3), np.ones(2)), (np.zeros(2), np.ones(1))])
def test_column_bounds_of_the_wrong_length_are_rejected(lb, ub):
    form = _simplex.EqualityForm(np.eye(2), "LG", np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        _simplex.solve_canonical(form, lb, ub)


def test_dump_model_line_grammar():
    b = ModelBuilder("dumpme")
    x = b.add_variable("x", lower=1.0, upper=2.5, objective=-1.0)
    encode_capacity_drop(b, x, 2.0)
    y = b.add_variable("y", lower=0.0, upper=4.0)
    f = b.add_variable("f", lower=-4.0, upper=4.0)
    encode_min_equality(b, f, term(b, y), Term(x, -2.0, 1.0, -4.0, -1.0))
    model = b.build()
    text = dump_model(model)
    lines = text.strip().splitlines()
    assert lines[0] == "milp dumpme"
    assert lines[1] == "sense min"
    assert lines[2] == f"vars {model.lp.n_cols}"
    var_lines = [l for l in lines if l.startswith("var ")]
    row_lines = [l for l in lines if l.startswith("row ")]
    assert len(var_lines) == model.lp.n_cols
    assert len(row_lines) == model.lp.n_rows
    assert sum(l.endswith(" binary") for l in var_lines) == 2
    assert "gadget drop x=0 z=1 crit=2.0" in lines
    assert "gadget min f=3 a=2:1.0:0.0:0.0:4.0 b=0:-2.0:1.0:-4.0:-1.0 z=4" in lines
    assert lines[-1] == "end"
    # every numeric token round-trips through float()
    for line in var_lines:
        parts = line.split()
        float(parts[parts.index("lower") + 1])
        float(parts[parts.index("upper") + 1])
        float(parts[parts.index("obj") + 1])


def test_initial_candidate_seeds_incumbent_without_changing_optimum():
    def fence():
        b = ModelBuilder("seeded")
        x1 = b.add_variable("x1", objective=1.0, binary=True)
        x2 = b.add_variable("x2", objective=1.0, binary=True)
        b.add_row({x1: 1.0, x2: 1.0}, "G", 1.5)
        return b.build()

    baseline = solve_milp(fence(), budget=MilpBudget())
    seeded = solve_milp(fence(), budget=MilpBudget(), initial_candidates=[np.array([1.0, 1.0])])
    assert seeded.status == OPTIMAL
    assert seeded.objective == pytest.approx(baseline.objective, abs=1e-12)
    assert seeded.nodes <= baseline.nodes
    # an infeasible candidate is ignored rather than trusted
    junk = solve_milp(fence(), budget=MilpBudget(), initial_candidates=[np.array([0.0, 0.0])])
    assert junk.objective == pytest.approx(baseline.objective, abs=1e-12)



def _messages_one_by_one(model, x, tol):
    """Reference for check_solution's row and integrality parts: one row,
    then one binary, at a time."""
    lp = model.lp
    ax = lp.matrix() @ x
    out = []
    for i in range(lp.n_rows):
        s, r, v = lp.row_senses[i], lp.rhs[i], ax[i]
        if ((s == "L" and v > r + tol) or (s == "G" and v < r - tol)
                or (s == "E" and abs(v - r) > tol)):
            out.append(f"row {lp.row_names[i]} ({s} {r!r}): activity {v!r}")
    for j in model.binaries:
        if min(x[j], 1.0 - x[j]) > 1e-7:
            out.append(f"binary {lp.col_names[j]}: fractional value {x[j]!r}")
    return out


def test_check_solution_reports_violated_rows_in_row_order():
    rng = np.random.default_rng(5)
    reported = fractional = 0
    for _ in range(40):
        b = ModelBuilder("rows")
        n = int(rng.integers(1, 8))
        binary = rng.random(n) < 0.4
        for j in range(n):
            if binary[j]:
                b.add_variable(f"z{j}", binary=True)
            else:
                b.add_variable(f"x{j}", lower=-5.0, upper=5.0)
        for i in range(int(rng.integers(0, 10))):
            cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            b.add_row({int(j): float(rng.normal()) for j in cols},
                      "LEG"[int(rng.integers(3))], float(rng.normal()))
        model = b.build()
        for tol in (1e-9, 0.5):
            x = rng.uniform(-2.0, 2.0, n)
            # binaries: fractional, integral, or integral up to a tiny offset
            snap = binary & (rng.random(n) < 0.5)
            x[snap] = rng.integers(0, 2, n)[snap] + rng.choice([0.0, 5e-8, -5e-8], n)[snap]
            if rng.random() < 0.2:
                x[int(rng.integers(n))] = np.nan
            msgs = [m for m in check_solution(model, x, tol=tol)
                    if not m.startswith("column ")]
            assert msgs == _messages_one_by_one(model, x, tol)
            reported += len(msgs)
            fractional += sum(m.startswith("binary ") for m in msgs)
    assert reported > 50 and fractional > 10


# ------------------------------------------- phase 1 on the preset's first plans


class _FirstPlan(Exception):
    """Stops a closed loop once its first plan has been built."""


def _first_plan(edits):
    """The model and ``solve_milp`` keywords of the first plan of
    ``fourcell_constant`` with each (old line, new line) of ``edits``."""
    text = harness.PRESETS["fourcell_constant"]
    for old, new in edits:
        assert f"  {old}\n" in text
        text = text.replace(f"  {old}\n", f"  {new}\n")
    seen = {}

    def stop(model, **kwargs):
        seen.update(model=model, kwargs=kwargs)
        raise _FirstPlan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "solve_milp", stop)
        with pytest.raises(_FirstPlan):
            harness.run_closed_loop(harness.parse_scenario(text, name="first_plan"))
    return seen["model"], seen["kwargs"]


def test_phase_one_decides_the_interval_horizon_ten_plan(monkeypatch):
    """The first plan of ``fourcell_constant`` at horizon 10 must be proved
    infeasible at the root within the 958 pivots it takes today."""
    model, kwargs = _first_plan([("horizon 60", "horizon 10")])
    real_canonical = milp.solve_canonical
    seen = {"pivots": 0}

    def counted(*args, **kw):
        res = real_canonical(*args, **kw)
        seen["pivots"] += res.iterations
        return res

    monkeypatch.setattr(milp, "solve_canonical", counted)
    result = milp.solve_milp(model, **kwargs)
    lp = model.lp
    assert (lp.n_rows, lp.n_cols, model.binaries.shape[0]) == (1480, 876, 400)
    assert result.status == INFEASIBLE and result.nodes == 1
    assert seen["pivots"] <= 958


def test_the_horizon_ten_root_closes_by_propagation_and_by_phase_one():
    """The search closes the first plan at horizon 10 by propagating its
    root box, without an LP; the root LP, solved directly, is still proved
    infeasible by phase 1 within the 958 pivots it takes today."""
    model, _ = _first_plan([("horizon 60", "horizon 10")])
    lp = model.lp
    assert milp._RowPropagation(lp).box(lp.col_lower, lp.col_upper, {}) is None
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
    root = _simplex.solve_canonical(form, lp.col_lower, lp.col_upper)
    assert root.status == "infeasible" and root.iterations <= 958


def test_the_ten_step_window_root_lp_is_optimal_cold():
    """With a 10-step measurement window as well, the first plan's root LP,
    solved cold, is optimal within the 1,517 pivots it takes today. A
    phase 1 that stalls on degenerate pivots spends its whole 51,560-pivot
    budget here instead."""
    model, _ = _first_plan([("horizon 60", "horizon 10"),
                            ("backward_horizon 1", "backward_horizon 10")])
    lp = model.lp
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
    root = _simplex.solve_canonical(form, lp.col_lower, lp.col_upper)
    assert root.status == "optimal"
    assert root.obj == pytest.approx(2758.81, rel=1e-6)
    assert root.iterations <= 1517


# ------------------------------------- node propagation and factor reuse


def _planner_model(rng, horizon, reduced):
    """A planner model over random parameter and state boxes."""
    n = int(rng.integers(2, 5))
    p_up, p_lo = random_param_pair(rng, n)
    lo, hi = random_box(rng, p_up.x_jam)
    lam = rng.uniform(0.0, 10.0, n)
    config = mpc.MpcConfig(horizon, mpc.CostSpec(l=np.ones(2 * n), b=np.ones(2 * n),
                                                 d=np.ones(n)))
    return mpc._assemble(LiftedState(upper=hi, lower=lo),
                         DemandBounds(upper=lam, lower=0.9 * lam),
                         ParamBounds(upper=p_up, lower=p_lo), config,
                         mpc.TerminalSet.mainline_only(p_up.x_jam),
                         reduced=reduced).model


def test_the_propagation_filter_closes_only_infeasible_relaxations():
    """Random binary fixes, applied one at a time as branching does, each
    propagated from the box its predecessor left. Every box the filter
    closes has an infeasible LP relaxation, and every relaxation it keeps
    has its optimum inside the box (up to the filter's margin)."""
    closed = []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["random", "tube", "single"]))
    def check(seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            model = _random_milp(rng, int(rng.integers(3, 8)))[0]
        else:
            model = _planner_model(rng, int(rng.integers(1, 5)), kind == "single")
        lp = model.lp
        form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
        rows = milp._RowPropagation(lp)
        free = model.binaries[lp.col_lower[model.binaries] < lp.col_upper[model.binaries]]
        order = rng.permutation(free)[: int(rng.integers(0, 6))]
        lb, ub = lp.col_lower.copy(), lp.col_upper.copy()
        box = (lp.col_lower, lp.col_upper)
        for depth in range(order.shape[0] + 1):
            if depth:
                j, v = int(order[depth - 1]), float(rng.integers(0, 2))
                lb[j] = ub[j] = v
                box = rows.box(*box, {j: v})
            else:
                box = rows.box(*box, {})
            res = _simplex.solve_canonical(form, lb, ub)
            if box is None:
                closed.append(kind)
                assert res.status == "infeasible", (kind, depth)
                return
            if res.status == "optimal":
                assert np.all(res.x >= box[0] - rows.margin)
                assert np.all(res.x <= box[1] + rows.margin)

    check()
    assert len(closed) >= 1


class _FullListPropagation:
    """The row propagation with every row side stacked, the oracle for
    ``milp._RowPropagation``: both sides of every row, each column's list
    one segment of a flat array that ends on the padding row, reduced by
    ``np.minimum.reduceat``, and the box concatenated afresh each sweep."""

    def __init__(self, lp):
        a = lp.matrix()
        (m, n), nnz = a.shape, a.nnz
        rows, up = a.indices, a.data > 0
        self.stack = sp.csc_matrix(
            (np.concatenate([np.where(up, a.data, -a.data), np.where(up, -a.data, a.data)]),
             np.concatenate([np.where(up, rows, rows + m), np.where(up, rows + m, rows)]),
             np.concatenate([a.indptr, nnz + a.indptr[1:]])),
            shape=(2 * m + 1, 2 * n)).tocsr()
        self.rhs = np.concatenate([np.where(lp.row_senses == "G", np.inf, lp.rhs),
                                   np.where(lp.row_senses == "L", np.inf, -lp.rhs),
                                   [np.inf]])
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
        self.margin = milp._PROPAGATION_MARGIN * milp._TOL_FEAS * (1.0 + np.abs(lp.rhs).sum())

    def box(self, lo, hi, fixes):
        lo, hi = lo.copy(), hi.copy()
        for j, v in fixes.items():
            if not lo[j] - self.margin <= v <= hi[j] + self.margin:
                return None
            lo[j] = hi[j] = v
        n = self.n
        for _ in range(milp._PROPAGATION_ROUNDS):
            slack = self.rhs - self.stack @ np.concatenate([lo, hi])
            if slack.min() < -self.margin:
                return None
            slack = np.maximum(slack, 0.0)  # a side within the margin caps as tight
            reach = np.minimum.reduceat(slack[self.gather] * self.inv, self.starts)
            new_hi = np.minimum(hi, lo + reach[:n])
            new_lo = np.maximum(lo, hi - reach[n:])
            if np.any(new_lo > new_hi + self.margin):
                return None
            new_lo = np.minimum(new_lo, new_hi)
            moved = np.maximum(hi - new_hi, new_lo - lo)
            progress = np.any(moved > milp._PROPAGATION_MOVE * (hi - lo) + 1e-9)
            lo, hi = new_lo, new_hi
            if not progress:
                break
        return lo, hi


def _mixed_rows_lp(rng):
    """A sparse program with ``L``, ``G`` and ``E`` rows, some of them with
    a zero rhs, and some zero-width columns at zero. Column 0 is empty, and
    column 1's entries are positive and sit on ``G`` rows only, so the
    sides that would cap it from above all have rhs +inf."""
    m, n = int(rng.integers(2, 8)), int(rng.integers(3, 9))
    senses = rng.choice(list("LGE"), m)
    dense = np.where(rng.random((m, n)) < 0.5, rng.normal(size=(m, n)), 0.0)
    dense[:, 0] = 0.0
    dense[:, 1] = np.where(senses == "G", rng.uniform(0.1, 2.0, m), 0.0)
    lo = rng.uniform(-2.0, 1.0, n)
    hi = lo + rng.uniform(0.0, 3.0, n)
    flat = rng.random(n) < 0.2
    lo[flat] = hi[flat] = 0.0
    act = dense @ rng.uniform(lo, hi)
    # mostly satisfiable at a point of the box, sometimes not
    rhs = act + np.where(senses == "L", 1.0, np.where(senses == "G", -1.0, 0.0)) * rng.uniform(
        -0.2, 2.0, m)
    rhs[rng.random(m) < 0.3] = 0.0
    return milp.LinearProgram("mixed", np.zeros(n), lo, hi, [f"x{j}" for j in range(n)],
                              sp.csc_matrix(dense), senses, rhs, [f"r{i}" for i in range(m)])


def _assert_same_box(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_propagation_over_the_binding_sides_keeps_the_boxes_of_the_full_lists():
    """``box`` returns the bytes the full-list oracle returns, or ``None``
    where it does, along chains of fixes as branching applies them: on the
    solver's random mixed-binary models, on both planner encodings and on
    sparse programs with mixed row senses. Chains start from the model's
    box, a random part of it or a point, and fix a column inside its box or
    exactly at the margin around it, or one step past it."""
    seen = set()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["random", "tube", "single", "mixed"]))
    def check(seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "mixed":
            lp = _mixed_rows_lp(rng)
        elif kind == "random":
            lp = _random_milp(rng, int(rng.integers(3, 8)))[0].lp
        else:
            lp = _planner_model(rng, int(rng.integers(1, 4)), kind == "single").lp
        prop, full = milp._RowPropagation(lp), _FullListPropagation(lp)
        assert prop.margin == full.margin
        lo, hi = lp.col_lower, lp.col_upper
        start = int(rng.integers(3))
        if start:
            point = rng.uniform(lo, hi)
            lo, hi = ((point, point.copy()) if start == 2 else
                      (np.minimum(point, rng.uniform(lo, hi)), np.maximum(point, rng.uniform(lo, hi))))
        box = (lo, hi)
        for depth in range(int(rng.integers(1, 6))):
            fixes = {}
            if depth:
                j = int(rng.integers(lp.n_cols))
                where, up = str(rng.choice(["box", "inside", "outside"])), rng.random() < 0.5
                edge = box[1][j] + prop.margin if up else box[0][j] - prop.margin
                v = {"box": rng.uniform(box[0][j], box[1][j]), "inside": edge,
                     "outside": np.nextafter(edge, np.inf if up else -np.inf)}[where]
                fixes = {j: float(v)}
                seen.add(where)
            got = prop.box(*box, fixes)
            _assert_same_box(got, full.box(*box, fixes))
            if got is None:
                seen.add("closed")
                break
            box = got

    check()
    assert {"closed", "inside", "outside"} <= seen


def test_the_filter_never_rounds_a_binary(monkeypatch):
    """``2z >= 1`` and ``4z <= 3`` leave the binary z in [0.5, 0.75]:
    rounding would close the root, but its relaxation is feasible. The
    filter keeps the root, whose LP is solved, and closes both children,
    whose LPs are not."""
    b = ModelBuilder("fractional")
    z = b.add_variable("z", objective=1.0, binary=True)
    b.add_row({z: 2.0}, "G", 1.0)
    b.add_row({z: 4.0}, "L", 3.0)
    model = b.build()
    lo, hi = milp._RowPropagation(model.lp).box(model.lp.col_lower, model.lp.col_upper, {})
    assert (lo[z], hi[z]) == (0.5, 0.75)
    solve, solved = milp.solve_canonical, []

    def spy(form, lb, ub, **kwargs):
        solved.append((lb[z], ub[z]))
        return solve(form, lb, ub, **kwargs)

    monkeypatch.setattr(milp, "solve_canonical", spy)
    sol = solve_milp(model, budget=MilpBudget())
    assert sol.status == INFEASIBLE and sol.nodes == 3
    assert solved == [(0.0, 1.0)]


@pytest.mark.parametrize("kind, seeded", [("point", False), ("interval", True)])
def test_handed_down_and_signed_factors_solve_like_fresh_ones(
        monkeypatch, stretch, nominal_demand, kind, seeded):
    """Every node LP of a planner search, solved again with every basis
    factored afresh: the plunge child continues its parent's factors and
    eta file, so its values may differ in the last bits, but not its
    status, and its objective only within 1e-9 relative. Every optimal
    node point satisfies the rows and the node's bounds at 1e-7, and no
    solve starts with a full eta file, so the refactorization cadence spans
    the plunge chain. The search runs both paths that remain: the dual
    simplex for every child, and phase 1, whose signed artificial clones
    the cold root factors anew, while the root crashed from a verified seed
    needs none. Neither a pool entry nor a warm basis holds factors."""
    prob, seeds = pinned_problem(kind, nominal_demand, stretch,
                                 ParamBounds(stretch, stretch))
    solve, calls = milp.solve_canonical, []

    def spy(form, lb, ub, **kwargs):
        factors = kwargs.get("factors")
        calls.append((form, lb, ub, kwargs, 0 if factors is None else len(factors.etas)))
        res = solve(form, lb, ub, **kwargs)
        calls[-1] += (res,)
        return res

    push = milp.heapq.heappush

    def checked_push(pool, entry):
        assert not any(isinstance(item, _simplex._Factors) for item in entry)
        return push(pool, entry)

    dual, add_artificials, paths = _simplex._Worker._dual, _simplex._Worker._add_artificials, []

    def counted_dual(worker, *args):
        paths.append("dual")
        return dual(worker, *args)

    def counted_artificials(worker):
        add_artificials(worker)
        paths.append("phase 1" if worker.n_art else "phase 2")

    monkeypatch.setattr(milp, "solve_canonical", spy)
    monkeypatch.setattr(milp.heapq, "heappush", checked_push)
    monkeypatch.setattr(_simplex._Worker, "_dual", counted_dual)
    monkeypatch.setattr(_simplex._Worker, "_add_artificials", counted_artificials)
    milp.solve_milp(prob.model, budget=milp.MilpBudget(),
                    initial_candidates=seeds if seeded else None)
    assert [f.name for f in dataclass_fields(_simplex.WarmBasis)] == ["vstat", "basis"]
    assert paths == ["phase 2" if seeded else "phase 1"] + ["dual"] * (len(calls) - 1)
    inherited = [etas for *_, etas, _ in calls]
    assert max(inherited) > 0  # a plunge child continued a nonempty eta file
    assert max(inherited) < _simplex._LADDER[0][1]

    real_factor = _simplex._Worker._factor
    monkeypatch.setattr(_simplex._Worker, "_factor",
                        lambda self, factors=None: real_factor(self))
    lp = prob.model.lp
    for form, lb, ub, kwargs, _, reused in calls:
        fresh = _simplex.solve_canonical(form, lb, ub, **kwargs)
        assert fresh.status == reused.status
        if reused.status != "optimal":
            continue
        assert abs(reused.obj - fresh.obj) <= 1e-9 * (1.0 + abs(fresh.obj))
        node = milp.MilpModel(replace(lp, col_lower=lb, col_upper=ub),
                              np.array([], dtype=np.int64))
        assert not check_solution(node, reused.x, tol=1e-7)


@pytest.mark.parametrize("kind", ["point", "interval"])
def test_the_dual_updates_its_reduced_costs_like_a_fresh_pricing(
        monkeypatch, stretch, nominal_demand, kind):
    """The dual simplex prices each pivot from reduced costs it updated
    from the previous pivot rows; before every dual pivot of a planner
    search, and when the dual stops, they match a fresh
    ``_reduced_costs(c)`` of the current basis within 1e-9 relative."""
    prob, _ = pinned_problem(kind, nominal_demand, stretch, ParamBounds(stretch, stretch))
    dual, pivot = _simplex._Worker._dual, _simplex._Worker._pivot
    state, pivots = {"d": None}, []

    def check(worker):
        fresh = worker._reduced_costs(worker.c)
        assert np.all(np.abs(state["d"] - fresh) <= 1e-9 * (1.0 + np.abs(fresh)))

    def spy_dual(worker, d):
        state["d"] = d
        pivots.append(0)
        try:
            feasible = dual(worker, d)
            check(worker)
        finally:
            state["d"] = None
        return feasible

    def spy_pivot(worker, *args):
        if state["d"] is not None:
            check(worker)
            pivots[-1] += 1
        return pivot(worker, *args)

    monkeypatch.setattr(_simplex._Worker, "_dual", spy_dual)
    monkeypatch.setattr(_simplex._Worker, "_pivot", spy_pivot)
    sol = milp.solve_milp(prob.model, budget=milp.MilpBudget())
    assert sol.status == OPTIMAL
    assert max(pivots) >= 3  # some child priced from twice-updated costs


def _highs_lp(lp, lb, ub):
    """``linprog`` over the rows of ``lp`` and the bounds ``lb``, ``ub``."""
    a, senses, b = lp.matrix().tocsr(), lp.row_senses, lp.rhs
    return scipy.optimize.linprog(
        lp.obj, A_ub=sp.vstack([a[senses == "L"], -a[senses == "G"]]),
        b_ub=np.concatenate([b[senses == "L"], -b[senses == "G"]]),
        A_eq=a[senses == "E"], b_eq=b[senses == "E"], bounds=list(zip(lb, ub)),
        method="highs")


def test_a_plunge_chain_longer_than_the_refactor_cadence_matches_highs(
        monkeypatch, stretch, nominal_demand):
    """With four pivots between refactorizations, the eta file a plunge
    child inherits fills within the chain: some child refactors during its
    solve, and no eta file, inherited or not, ever holds more than four
    etas. Every node LP agrees with HiGHS on status and objective."""
    monkeypatch.setattr(_simplex, "_LADDER", ((1e-10, 4),) + _simplex._LADDER[1:])
    prob, _ = pinned_problem("point", nominal_demand, stretch, ParamBounds(stretch, stretch))
    solve, built, nodes = milp.solve_canonical, [0], []

    class CountedFactors(_simplex._Factors):
        def __init__(self, cols):
            super().__init__(cols)
            built[0] += 1

        def update(self, r, w):
            assert len(self.etas) < 4
            super().update(r, w)

    def spy(form, lb, ub, **kwargs):
        factors = kwargs.get("factors")
        etas = 0 if factors is None else len(factors.etas)
        before = built[0]
        res = solve(form, lb, ub, **kwargs)
        nodes.append((lb, ub, etas, built[0] - before, res))
        return res

    monkeypatch.setattr(_simplex, "_Factors", CountedFactors)
    monkeypatch.setattr(milp, "solve_canonical", spy)
    assert milp.solve_milp(prob.model, budget=milp.MilpBudget()).status == OPTIMAL
    assert max(etas for _, _, etas, _, _ in nodes) < 4
    assert any(etas and refactored for _, _, etas, refactored, _ in nodes)
    for lb, ub, _, _, res in nodes:
        ref = _highs_lp(prob.model.lp, lb, ub)
        assert ref.status in (0, 2)
        assert res.status == ("optimal" if ref.status == 0 else "infeasible")
        if res.status == "optimal":
            assert res.obj == pytest.approx(ref.fun, rel=1e-9, abs=1e-7)


# -- the hyper-sparse kernels against dense copies of the loops they replaced


def _dense_ftran(factors, v):
    """``_Factors.ftran`` applying every eta, multiplier zero or not."""
    u = factors.lu.solve(v)
    for r, g in factors.etas:
        u -= g * u[r]
    return u


def _dense_btran(factors, v):
    """``_Factors.btran`` with each eta's product taken by ``@``."""
    u = np.array(v, dtype=float)
    for r, g in reversed(factors.etas):
        u[r] -= g @ u
    return factors.lu.solve(u, trans="T")


def _sparse_vector(rng, m, k, scale=1.0):
    v = np.zeros(m)
    signs = rng.choice([-1.0, 1.0], k)
    v[rng.choice(m, k, replace=False)] = scale * signs * rng.uniform(0.5, 2.0, k)
    return v


@pytest.mark.parametrize("seed", range(4))
def test_the_eta_loops_match_their_dense_references(seed):
    """A sparse basis with pivots of both signs and an eta file of sparse
    updates, as the pivot loop builds them; sparse right-hand sides, some
    scaled to 1e-305 so that eta rows meet tiny nonzero multipliers. Every
    ``ftran`` result has the dense loop's values and bits, except that an
    exact zero may keep the sign -0.0 that SuperLU gave it where the dense
    loop's ``u - g * 0.0`` makes it +0.0; the solver never divides by such
    an entry, so the sign changes nothing it computes. ``btran`` matches
    its reference byte for byte."""
    rng = np.random.default_rng(seed)
    m = 40
    basis = sp.random(m, m, density=0.03, random_state=rng) + sp.diags(
        rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m))
    factors = _simplex._Factors(sp.csc_matrix(basis))
    for _ in range(30):
        w = _sparse_vector(rng, m, int(rng.integers(1, 6)))
        factors.update(int(rng.choice(np.flatnonzero(w))), w)
    zero = tiny = signed = 0
    for case in range(200):
        v = _sparse_vector(rng, m, int(rng.integers(1, 4)), 1e-305 if case % 4 == 0 else 1.0)
        new, ref = factors.ftran(v.copy()), _dense_ftran(factors, v.copy())
        assert np.array_equal(new, ref)
        assert (new + 0.0).tobytes() == (ref + 0.0).tobytes()  # +0.0 clears zero signs
        differ = new.view(np.int64) != ref.view(np.int64)
        assert np.all(np.signbit(new[differ]) & ~np.signbit(ref[differ]) & (ref[differ] == 0.0))
        signed += bool(differ.any())
        assert factors.btran(v).tobytes() == _dense_btran(factors, v).tobytes()
        u = factors.lu.solve(v)
        for r, g in factors.etas:
            zero += u[r] == 0.0
            tiny += 0.0 < abs(u[r]) < 1e-300
            u -= g * u[r]
    assert zero > 1000 and tiny > 100 and signed  # skips, tiny multipliers, signed zeros


def _dense_ratio_test(worker, enter, sigma, w):
    """``_Worker._ratio_test`` over full-length masks and room vectors."""
    limit = worker.ub[enter] - worker.lb[enter]
    rate = -sigma * w
    rate[np.abs(w) <= worker.tol_pivot] = 0.0
    bvars = worker.basis
    rooms = np.full(worker.m, np.inf)
    up = rate > 0
    dn = rate < 0
    with np.errstate(invalid="ignore"):
        rooms[up] = (worker.ub[bvars[up]] - worker.xb[up]) / rate[up]
        rooms[dn] = (worker.xb[dn] - worker.lb[bvars[dn]]) / (-rate[dn])
    np.clip(rooms, 0.0, None, out=rooms)
    best_basic = rooms.min(initial=np.inf)
    if np.isfinite(limit) and limit <= best_basic + _simplex._TIE:
        return limit, -1, False
    if not np.isfinite(best_basic):
        return None
    cand = np.flatnonzero(rooms <= best_basic + _simplex._TIE)
    pick = cand[np.argmax(np.abs(w[cand]))]
    return best_basic, int(pick), bool(up[pick])


def _ratio_test_cases(rng, tol, count):
    """Workers with basic values on a coarse grid at or between their
    bounds, one-sided slacks, and pivot columns whose entries include exact
    zeros and entries at and below ``tol``; yields (worker, enter, sigma, w)."""
    from types import SimpleNamespace

    m, n = 12, 8
    entries = np.array([0.0, tol / 2, tol, 0.25, 0.5, 1.0, 2.0, 4.0])
    for _ in range(count):
        lb = rng.choice([0.0, -1.0, -np.inf], n + m, p=[0.6, 0.2, 0.2])
        ub = np.full(n + m, np.inf)
        boxed = np.isfinite(lb)
        ub[boxed] = lb[boxed] + rng.choice([0.0, 1.0, 2.0, np.inf], np.count_nonzero(boxed))
        ub[rng.random(n + m) < 0.1] = 0.0
        lb = np.minimum(lb, ub)
        basis = rng.permutation(n + m)[:m]
        lo = np.where(np.isfinite(lb[basis]), lb[basis], -2.0)
        hi = np.where(np.isfinite(ub[basis]), ub[basis], lo + 2.0)
        xb = np.where(rng.random(m) < 0.3, lo, lo + np.round(4 * rng.random(m) * (hi - lo)) / 4)
        xb = np.where(rng.random(m) < 0.2, hi, xb)
        w = rng.choice([-1.0, 1.0], m) * rng.choice(entries, m)
        if rng.random() < 0.1:
            w *= tol / 4  # no row blocks: a bound flip, or no step at all
        enter = int(rng.choice(np.setdiff1d(np.arange(n + m), basis)))
        worker = SimpleNamespace(m=m, lb=lb, ub=ub, basis=basis, xb=xb, tol_pivot=tol)
        yield worker, enter, float(rng.choice([-1.0, 1.0])), w


@pytest.mark.parametrize("seed", range(3))
def test_the_restricted_primal_ratio_test_matches_the_dense_one(seed):
    """The ratio test reads only the rows with ``|w| > tol_pivot``; on
    random inputs with ties, sub-tolerance rows that would block first,
    bound flips and unblocked steps it returns the dense test's step bytes,
    leaving row and bound."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    tol = _simplex._LADDER[0][0]
    seen = {"flip": 0, "none": 0, "tie": 0, "filtered": 0}
    for worker, enter, sigma, w in _ratio_test_cases(rng, tol, 1000):
        new = _simplex._Worker._ratio_test(worker, enter, sigma, w.copy())
        ref = _dense_ratio_test(worker, enter, sigma, w.copy())
        if ref is None:
            assert new is None
            seen["none"] += 1
            continue
        assert np.float64(new[0]).tobytes() == np.float64(ref[0]).tobytes()
        assert new[1:] == ref[1:]
        seen["flip"] += ref[1] < 0
        loose = _dense_ratio_test(SimpleNamespace(**{**vars(worker), "tol_pivot": 0.0}),
                                  enter, sigma, w.copy())
        seen["filtered"] += loose != ref  # a sub-tolerance row would have blocked
        if ref[1] >= 0:
            # each row's step with the others ignored
            alone = [_dense_ratio_test(worker, enter, sigma, np.where(np.arange(worker.m) == i, w, 0))
                     for i in range(worker.m)]
            seen["tie"] += sum(r is not None and r[0] == ref[0] and r[1] >= 0 for r in alone) > 1
    assert min(seen.values()) >= 10, seen


def _dense_dual_enter(worker, alpha, d, rise):
    """The dual's entering choice as ``_Worker._dual`` made it, over
    full-length masks."""
    move = np.where(worker.vstat == _simplex.AT_LOWER, 1.0, -1.0)
    push = -move * alpha if rise else move * alpha
    cand = np.flatnonzero((push > worker.tol_pivot) & (worker.vstat != _simplex.BASIC)
                          & (worker.lb != worker.ub))
    if not cand.shape[0]:
        return -1
    ratio = np.maximum(move[cand] * d[cand], 0.0) / np.abs(alpha[cand])
    ties = cand[ratio <= ratio.min() + _simplex._TIE]
    return int(ties[np.argmax(np.abs(alpha[ties]))])


@pytest.mark.parametrize("seed", range(3))
def test_the_restricted_dual_entering_choice_matches_the_dense_one(seed):
    """The dual's entering choice reads only the columns with
    ``|alpha| > tol_pivot``; on random pivot rows with exact zeros,
    sub-tolerance entries, fixed and basic columns and tied ratios it picks
    the dense choice's column, or none when the dense choice has none."""
    from types import SimpleNamespace

    rng = np.random.default_rng(seed)
    tol = _simplex._LADDER[0][0]
    ntot = 24
    entries = np.array([0.0, tol / 2, tol, 0.5, 1.0, 2.0])
    seen = {"none": 0, "tie": 0, "filtered": 0}
    for _ in range(1500):
        vstat = rng.choice([_simplex.AT_LOWER, _simplex.AT_UPPER, _simplex.BASIC],
                           ntot, p=[0.45, 0.25, 0.3]).astype(np.int8)
        lb = np.zeros(ntot)
        ub = np.where(rng.random(ntot) < 0.15, 0.0, 1.0)
        alpha = rng.choice([-1.0, 1.0], ntot) * rng.choice(entries, ntot)
        d = rng.choice([0.0, 0.0, 0.5, 1.0], ntot) * np.where(vstat == _simplex.AT_UPPER, -1.0, 1.0)
        d[vstat == _simplex.BASIC] = 0.0
        rise = bool(rng.random() < 0.5)
        worker = SimpleNamespace(vstat=vstat, lb=lb, ub=ub, tol_pivot=tol)
        new = _simplex._Worker._dual_ratio_test(worker, alpha.copy(), d.copy(), rise, lb != ub)
        ref = _dense_dual_enter(worker, alpha, d, rise)
        assert new == ref
        seen["none"] += ref < 0
        loose = _dense_dual_enter(SimpleNamespace(vstat=vstat, lb=lb, ub=ub, tol_pivot=0.0),
                                  alpha, d, rise)
        seen["filtered"] += loose != ref  # a sub-tolerance column would have entered
        if ref >= 0:
            move = np.where(vstat == _simplex.AT_LOWER, 1.0, -1.0)
            push = (-move if rise else move) * alpha
            ok = np.flatnonzero((push > tol) & (vstat != _simplex.BASIC) & (lb != ub))
            ratio = np.maximum(move[ok] * d[ok], 0.0) / np.abs(alpha[ok])
            seen["tie"] += np.count_nonzero(ratio == ratio[ok == ref]) > 1
    assert min(seen.values()) >= 10, seen


def _assert_same_sparse(got, ref):
    assert got.format == ref.format and got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
        assert getattr(got, name).dtype == getattr(ref, name).dtype, name


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_solver_setup_builds_the_arrays_scipy_builds(m, n, seed):
    """``EqualityForm``'s ``[A | I]`` and the propagation's stacked rows,
    built straight from A's CSC arrays, hold exactly the arrays of scipy's
    ``hstack`` and of a COO construction of the row sides that can bind,
    and the propagation's padded per-column lists those of a loop over A's
    columns, dtypes included, on matrices with empty columns, single rows
    and negative entries."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((m, n)) < 0.5, rng.normal(size=(m, n)), 0.0)
    dense[:, rng.random(n) < 0.3] = 0.0
    a = sp.csc_matrix(dense)
    senses = rng.choice(list("LEG"), m)
    form = _simplex.EqualityForm(a, senses, np.ones(m), np.zeros(n))
    _assert_same_sparse(form.cols, sp.hstack([a, sp.identity(m, format="csc")], format="csc"))

    rhs = rng.normal(size=m)
    lp = milp.LinearProgram("stack", np.zeros(n), np.zeros(n), np.ones(n),
                            [f"x{j}" for j in range(n)], a, senses, rhs,
                            [f"r{i}" for i in range(m)])
    prop = milp._RowPropagation(lp)
    # an L row's upper side, a G row's lower side and both sides of an E
    # row, numbered upper sides first, and the padding row after them
    upper, lower = senses != "G", senses != "L"
    side = np.full((2, m), -1)
    side[0, upper] = np.arange(upper.sum())
    side[1, lower] = upper.sum() + np.arange(lower.sum())
    pad = int(upper.sum() + lower.sum())
    coo = a.tocoo()
    i, j, v = coo.row, coo.col, coo.data
    on_upper, on_lower = upper[i], lower[i]
    # the upper side reads P lo + N hi, the lower side -N lo - P hi
    stack = sp.csr_matrix(
        (np.concatenate([v[on_upper], -v[on_lower]]),
         (np.concatenate([side[0, i[on_upper]], side[1, i[on_lower]]]),
          np.concatenate([np.where(v > 0, j, j + n)[on_upper],
                          np.where(v > 0, j + n, j)[on_lower]]))),
        shape=(pad + 1, 2 * n))
    _assert_same_sparse(prop.stack, stack)
    want_rhs = np.concatenate([rhs[upper], -rhs[lower], [np.inf]])
    assert prop.rhs.tobytes() == want_rhs.tobytes()
    # column c < n lists the sides that cap x_c from above, column n + c
    # those that cap it from below, in A's order
    lists = [[] for _ in range(2 * n)]
    for col in range(n):
        for k in range(a.indptr[col], a.indptr[col + 1]):
            row, coef = a.indices[k], a.data[k]
            for c, s in ((col, int(coef < 0)), (n + col, int(coef > 0))):
                if side[s, row] >= 0:
                    lists[c].append((side[s, row], 1.0 / abs(coef)))
    depth = max(map(len, lists)) + 1
    gather, inv = np.full((depth, 2 * n), pad, dtype=np.intp), np.ones((depth, 2 * n))
    for c, entries in enumerate(lists):
        for k, (row, scale) in enumerate(entries):
            gather[k, c], inv[k, c] = row, scale
    for got, ref in ((prop.gather, gather), (prop.inv, inv)):
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype


def test_a_block_of_gadgets_is_the_gadgets_added_one_by_one():
    """The array form of the builder and of both gadget encoders writes the
    model a loop of scalar calls writes, and ``build`` places columns and
    rows where ``order`` says, renumbering entries and gadget operands."""
    rng = np.random.default_rng(3)
    lo, hi = rng.uniform(0.0, 5.0, 6), rng.uniform(5.0, 10.0, 6)
    crit = np.array([4.0, 5.0, 6.0])
    models = []
    for block in (False, True):
        b = ModelBuilder("block")
        x = (b.add_variable([f"x{j}" for j in range(6)], lower=lo, upper=hi) if block else
             [b.add_variable(f"x{j}", lower=lo[j], upper=hi[j]) for j in range(6)])
        terms = [Term(x[j], 1.0, 0.0, lo[j], hi[j]) for j in range(6)]
        if block:
            encode_capacity_drop(b, np.array(x[:3]), crit, name=["d0", "d1", "d2"])
            encode_min_equality(b, np.array(x[3:]), Term(*np.array(terms[:3]).T),
                                Term(*np.array(terms[3:]).T))
            b.add_row([(np.array(x[:3]), 1.0), (np.array(x[3:]), [2.0, 0.0, -1.0])],
                      "LGE", [1.0, 2.0, 3.0], ["s0", "s1", "s2"])
        else:
            for j in range(3):
                encode_capacity_drop(b, x[j], crit[j], name=f"d{j}")
            for j in range(3):
                encode_min_equality(b, x[3 + j], terms[j], terms[3 + j])
            for j, (c, s) in enumerate(zip((2.0, 0.0, -1.0), "LGE")):
                b.add_row({x[j]: 1.0, x[3 + j]: c}, s, float(j + 1), f"s{j}")
        b.fix_decided()
        models.append(b.build())
    assert dump_model(models[0]) == dump_model(models[1])

    reverse = [np.arange(b.n_cols)[::-1], np.arange(b.n_rows)[::-1]]
    placed = b.build(order=reverse)
    assert placed.lp.col_names == models[1].lp.col_names[::-1]
    assert placed.lp.row_names == models[1].lp.row_names[::-1]
    np.testing.assert_array_equal(placed.lp.matrix().toarray(),
                                  models[1].lp.matrix().toarray()[::-1, ::-1])
    last = b.n_cols - 1
    z = placed.operands.z.tolist()
    assert sorted(z) == sorted((last - models[1].operands.z).tolist())
    assert all(placed.lp.col_names[j] == models[1].lp.col_names[last - j] for j in z)
    with pytest.raises(ValueError, match="exactly once"):
        b.build(order=[np.zeros(b.n_cols, dtype=int), reverse[1]])


# ------------------------------------------- the root basis replayed across plans

_BOX_LINES = ("demand_margin 0.1", "v 0.4 0.6", "w 0.1 0.3", "x_jam 150 170",
              "c_max 16 24", "beta 0.7 0.95")
# point boxes at horizon 10, and narrow interval boxes at horizon 4
POINT_LOOP = [(line, None) for line in _BOX_LINES] + [("horizon 60", "horizon 10"),
                                                     ("steps 60", "steps 5")]
TUBE_LOOP = list(zip(_BOX_LINES, ("demand_margin 0.02", "v 0.49 0.51", "w 0.16 0.17",
                                  "x_jam 159 161", "c_max 19.8 20.2", "beta 0.89 0.91"))) + [
    ("horizon 60", "horizon 4"), ("steps 60", "steps 5"),
    ("mainline 30 30 30 120", "mainline 30 30 30 60")]


def _loop_plans(edits):
    """Each plan of a short ``fourcell_constant`` loop, with each (old line,
    new line or ``None`` to drop it) of ``edits``: the model, the keywords
    the controller passed to ``solve_milp`` (the previous plan's root basis
    among them) and a maker of a fresh incumbent hook, since a hook skips
    the controls it has offered before."""
    text = harness.PRESETS["fourcell_constant"]
    for old, new in edits:
        assert f"  {old}\n" in text
        text = text.replace(f"  {old}\n", "" if new is None else f"  {new}\n")
    plans, problems = [], []
    real_solve, real_hook = milp.solve_milp, mpc._incumbent_hook

    def recorded(model, **kwargs):
        plans.append((model, kwargs, lambda prob=problems[-1]: real_hook(prob)))
        return real_solve(model, **kwargs)

    def hook(prob):
        problems.append(prob)
        return real_hook(prob)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "solve_milp", recorded)
        patch.setattr(mpc, "_incumbent_hook", hook)
        harness.run_closed_loop(harness.parse_scenario(text, name="replay_loop"))
    return plans


def _solve_plan(plan, root_basis):
    """Solve a recorded plan again from ``root_basis``, with a fresh hook."""
    model, kwargs, fresh_hook = plan
    return solve_milp(model, **{**kwargs, "incumbent_hook": fresh_hook(),
                                "root_basis": root_basis})


def _root_spies(monkeypatch):
    """Spies on the root solves: per ``solve_milp`` call, whether the replay
    gate accepted the basis and whether the root ran the dual simplex."""
    seen = {"replayed": [], "dual": []}
    real_canonical, real_replay, real_dual = (milp.solve_canonical, _simplex._replay,
                                              _simplex._Worker._dual)
    at_root = [False]

    def canonical(*args, replay=None, **kwargs):
        at_root[0] = replay is not None
        try:
            return real_canonical(*args, replay=replay, **kwargs)
        finally:
            at_root[0] = False

    def gate(*args):
        worker = real_replay(*args)
        seen["replayed"].append(worker is not None)
        return worker

    def dual(worker, d):
        if at_root[0]:
            seen["dual"].append(len(seen["replayed"]))
        return real_dual(worker, d)

    monkeypatch.setattr(milp, "solve_canonical", canonical)
    monkeypatch.setattr(_simplex, "_replay", gate)
    monkeypatch.setattr(_simplex._Worker, "_dual", dual)
    return seen


def test_a_replayed_root_basis_keeps_every_plan_exact(monkeypatch):
    """Every later plan of a point-box loop and of a tube loop, solved from
    the previous plan's root basis, has the crash start's status and an
    objective within the gap of that start's and of HiGHS's, with a bound
    below HiGHS's.  A basis the gate rejects leaves the solve bit for bit
    the crash start's, and at least one replayed root runs the dual."""
    loops = [_loop_plans(edits) for edits in (POINT_LOOP, TUBE_LOOP)]
    seen = _root_spies(monkeypatch)
    offered = 0
    for plans in loops:
        assert len(plans) >= 4 and plans[0][1]["root_basis"] is None
        for plan in plans[1:]:
            model, kwargs, _ = plan
            assert kwargs["root_basis"] is not None
            offered += 1
            replayed = _solve_plan(plan, kwargs["root_basis"])
            accepted = seen["replayed"][-1]
            crashed = _solve_plan(plan, None)
            assert len(seen["replayed"]) == offered
            assert replayed.status == crashed.status == OPTIMAL
            gap = max(kwargs["budget"].gap_abs,
                      kwargs["budget"].gap_rel * abs(crashed.objective))
            assert abs(replayed.objective - crashed.objective) <= gap
            ref = highs_milp(model)
            assert ref.status == 0
            assert abs(replayed.objective - ref.fun) <= gap
            assert replayed.bound <= ref.fun + 1e-6 * (1.0 + abs(ref.fun))
            assert not check_solution(model, replayed.x, tol=1e-7)
            if not accepted:
                assert (replayed.iterations, replayed.nodes) == (crashed.iterations,
                                                                 crashed.nodes)
                np.testing.assert_array_equal(replayed.x, crashed.x)
    assert any(seen["replayed"]) and seen["dual"]
    assert set(seen["dual"]) <= {k + 1 for k, ok in enumerate(seen["replayed"]) if ok}


def test_the_root_crash_is_built_only_when_the_root_starts_from_it(monkeypatch):
    """A later plan whose root basis passes the replay gate never builds
    the crash from its verified seed; one the gate rejects builds it once,
    as a plan offered no basis does."""
    plans = _loop_plans(POINT_LOOP)
    seen = _root_spies(monkeypatch)
    crashes = []
    real_crash = milp.crash_from_point

    def crash(*args):
        crashes.append(args)
        return real_crash(*args)

    monkeypatch.setattr(milp, "crash_from_point", crash)
    built = {True: set(), False: set()}
    for plan in plans[1:]:
        before = len(crashes)
        _solve_plan(plan, plan[1]["root_basis"])
        built[seen["replayed"][-1]].add(len(crashes) - before)
    assert built == {True: {0}, False: {1}}


def _replays_the_gate_rejects(form, kept: _simplex.WarmBasis):
    """Bases the gate must reject, built from this form and a basis ``kept``
    of its shape: one of another shape, one whose slack parks at an
    infinite bound, one whose basis leaves a row without a nonzero, which
    is structurally singular, and the slack basis with every structural
    at its upper bound, which is not dual feasible where a cost is
    positive."""
    m, n = form.m, form.n
    a = form.cols[:, :n].tocsr()
    r = int(np.flatnonzero(form.senses == "L")[0])
    j = int(np.setdiff1d(np.flatnonzero(np.diff(form.cols.indptr[:n + 1])),
                         a.indices[a.indptr[r]:a.indptr[r + 1]])[0])
    vstat = np.concatenate([np.full(n, _simplex.AT_LOWER, dtype=np.int8),
                            np.full(m, _simplex.BASIC, dtype=np.int8)])
    basis = np.arange(n, n + m)
    dual_infeasible = _simplex.WarmBasis(vstat.copy(), basis.copy())
    dual_infeasible.vstat[:n] = _simplex.AT_UPPER
    vstat[n + r], vstat[j], basis[r] = _simplex.AT_LOWER, _simplex.BASIC, j
    singular = _simplex.WarmBasis(vstat, basis)
    assert not _simplex._structurally_nonsingular(form.cols, singular.basis)
    parked = _simplex.WarmBasis(kept.vstat.copy(), kept.basis.copy())
    slack = int(np.flatnonzero((form.senses == "L") & (kept.vstat[n:] != _simplex.BASIC))[0])
    parked.vstat[n + slack] = _simplex.AT_UPPER
    short = _simplex.WarmBasis(np.delete(kept.vstat, n - 1), kept.basis[kept.basis != n - 1])
    return {"singular": singular, "parked": parked, "short": short,
            "dual_infeasible": dual_infeasible}


@pytest.mark.parametrize("kind", ["singular", "parked", "short", "dual_infeasible"])
def test_a_replay_the_gate_rejects_never_reaches_splu(monkeypatch, kind):
    """A structurally singular replayed basis, one whose slack parks at an
    infinite bound, and one of another shape are rejected before any
    factorization: SuperLU receives exactly the matrices of the crash
    start, and the search takes the crash start's pivots, nodes and plan.
    SuperLU leaks memory on every factorization that fails, so a singular
    basis must never reach it.  A basis that is not dual feasible is
    factored once for the check, then the solve is the crash start's."""
    plan = _loop_plans(POINT_LOOP)[1]
    model, kwargs, _ = plan
    lp = model.lp
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
    replay = _replays_the_gate_rejects(form, kwargs["root_basis"])[kind]
    factored, roots = [], []
    real_splu, real_canonical = _simplex.splu, milp.solve_canonical

    def splu(cols):
        factored.append(cols)
        return real_splu(cols)

    def canonical(*args, **kw):
        res = real_canonical(*args, **kw)
        if not roots:
            roots.append(res.iterations)
        return res

    monkeypatch.setattr(_simplex, "splu", splu)
    monkeypatch.setattr(milp, "solve_canonical", canonical)
    crashed = _solve_plan(plan, None)
    want_factored, crash_root = factored[:], roots[:]
    if kind == "dual_infeasible":
        want_factored.insert(0, _simplex._columns(form.cols, replay.basis))
    factored.clear()
    roots.clear()
    replayed = _solve_plan(plan, replay)
    assert len(factored) == len(want_factored)
    for got, want in zip(factored, want_factored):
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert roots == crash_root
    assert (replayed.status, replayed.iterations, replayed.nodes) == (
        crashed.status, crashed.iterations, crashed.nodes)
    np.testing.assert_array_equal(replayed.x, crashed.x)


def test_a_crash_basis_is_structurally_nonsingular():
    """``crash_from_point`` builds a basis that passes the matching gate on
    random sparse models, at points with columns interior, at a bound, or
    fixed, and rows tight or slack: each basic structural covers the tight
    row it was matched to, and a slack covers every other row. So a crash
    start never hands SuperLU a structurally singular basis, whose failed
    factorization leaks memory."""
    rng = np.random.default_rng(2029)
    structurals = rowed = 0
    for _ in range(300):
        m, n = rng.integers(1, 9, size=2)
        a = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
        lb, ub = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
        fixed = rng.random(n) < 0.1
        ub[fixed] = lb[fixed]
        x0 = np.select([rng.random(n) < 0.2, rng.random(n) < 0.2], [lb, ub],
                       rng.uniform(lb, ub))
        senses = rng.choice(list("LEG"), m)
        slack = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.1, 1.0, m))
        b = a @ x0 + np.select([senses == "L", senses == "G"], [slack, -slack], 0.0)
        form = _simplex.EqualityForm(a, senses, b, np.zeros(n))
        start = _simplex.crash_from_point(form, lb, ub, x0)
        if start is None:
            continue
        assert _simplex._structurally_nonsingular(form.cols, start.basis)
        basic = start.basis < n
        structurals += basic.any()
        rowed += (~basic).any()
    assert structurals >= 150 and rowed >= 150, (structurals, rowed)
