"""Horizon planning: frozen values, encoding census, solve paths, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rampflow import _simplex, milp, mpc
from rampflow.ctm import (
    AdmissibilityError,
    FreewayParams,
    compact_step,
    equilibrium_uncongested,
)
from rampflow.embedding import (
    DemandBounds,
    LiftedState,
    ParamBounds,
    _primary_tuple,
    _secondary_tuple,
    _tube_flows,
)

from conftest import homogeneous_params, random_params

X_UNC = np.array([38.34, 37.846, 37.4014, 37.00126])
B_MAIN = np.array([6.878, 5.42, 3.8, 2.0])
BUDGET = milp.MilpBudget()
STAGE_COST = 150.58866  # sum of X_UNC
TERMINAL_COST = 684.95568  # B_MAIN @ X_UNC


@pytest.fixture
def demand(nominal_demand):
    return DemandBounds(upper=nominal_demand, lower=nominal_demand)


@pytest.fixture
def point_params(stretch):
    return ParamBounds(stretch, stretch)


def stacked(b_main):
    return np.concatenate([b_main, b_main])


def default_config(horizon, **kw):
    return mpc.MpcConfig(horizon=horizon, l=np.ones(8), b=stacked(B_MAIN), **kw)


def equilibrium_box():
    x0 = np.concatenate([X_UNC, np.zeros(4)])
    return LiftedState(upper=x0, lower=x0)


# ---------------------------------------------------------------- x_up


def test_largest_drainable_profile_matches_the_demo_numbers(
        stretch, nominal_demand):
    x_up = mpc.compute_xup(nominal_demand, stretch)
    np.testing.assert_allclose(x_up, np.full(4, 40.0), atol=1e-9)


def test_drainable_profile_zero_demand_is_the_critical_occupancy(stretch):
    x_up = mpc.compute_xup(np.zeros(4), stretch)
    np.testing.assert_allclose(x_up, stretch.x_crit, atol=1e-12)


def test_drainable_profile_single_cell():
    p = homogeneous_params(1, beta=0.9, v=0.5, w=0.2, x_jam=100.0,
                           c_max=18.0, alpha=0.8)
    np.testing.assert_allclose(mpc.compute_xup(np.array([5.0]), p),
                               p.x_crit, atol=1e-12)


def test_drainable_profile_dominates_the_equilibrium():
    """x_up >= x_unc cellwise, with the critical occupancy as a hard cap."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 120:
        params = random_params(rng, int(rng.integers(1, 7)),
                               wave_sum_cap=True)
        lam = rng.uniform(0.0, 3.0, params.n_cells)
        lam[0] = rng.uniform(0.0, 0.8 * params.c_max[0])
        try:
            x_unc = equilibrium_uncongested(params, lam)
        except AdmissibilityError:
            continue
        x_up = mpc.compute_xup(lam, params)
        assert np.all(x_up >= x_unc - 1e-9)
        assert np.all(x_up <= params.x_crit + 1e-12)
        checked += 1


def test_drainable_profile_rejects_inadmissible_demand(stretch):
    with pytest.raises(AdmissibilityError):
        mpc.compute_xup(np.array([50.0, 1.0, 1.0, 1.0]), stretch)


# ------------------------------------------------- terminal weights


def test_terminal_weights_match_the_demo_profile(stretch):
    b, d = mpc.choose_terminal_weights(np.ones(8), stretch)
    np.testing.assert_allclose(b, B_MAIN, atol=1e-9)
    np.testing.assert_array_equal(b, d)
    assert b is not d


@given(st.integers(min_value=0, max_value=10_000))
def test_terminal_weights_satisfy_per_cell_equality(seed):
    """The recursion lands exactly on v_i (b_i - beta_i b_{i+1}) = l_i.

    This is the tight form of the decrease condition; any componentwise
    smaller b fails it somewhere.
    """
    rng = np.random.default_rng(seed)
    params = random_params(rng, int(rng.integers(1, 7)), wave_sum_cap=True)
    l = rng.uniform(0.1, 5.0, params.n_cells)
    # the queue entries of the stacked vector play no part
    b, d = mpc.choose_terminal_weights(
        np.concatenate([l, rng.uniform(0.1, 5.0, params.n_cells)]), params)
    slack = params.v * (b - np.concatenate([params.beta * b[1:], [0.0]]))
    np.testing.assert_allclose(slack, l, rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(b, d)


def test_terminal_weights_scale_linearly(stretch):
    b1, _ = mpc.choose_terminal_weights(np.ones(8), stretch)
    b3, _ = mpc.choose_terminal_weights(np.full(8, 3.0), stretch)
    np.testing.assert_allclose(b3, 3.0 * b1, rtol=1e-12)


def test_terminal_weights_single_cell():
    p = homogeneous_params(1, beta=0.9, v=0.25, w=0.2, x_jam=100.0,
                           c_max=20.0, alpha=0.8)
    b, _ = mpc.choose_terminal_weights(np.array([2.0, 2.0]), p)
    np.testing.assert_allclose(b, [8.0])


def test_terminal_weights_reject_bad_lengths(stretch):
    with pytest.raises(ValueError):
        mpc.choose_terminal_weights(np.ones(5), stretch)
    with pytest.raises(ValueError):
        mpc.choose_terminal_weights(np.ones(4), stretch)
    with pytest.raises(ValueError):
        mpc.choose_terminal_weights(np.zeros(8), stretch)


# ------------------------------------------------ terminal certificate


def certificate_inputs(stretch, nominal_demand):
    b_m, d = mpc.choose_terminal_weights(np.ones(8), stretch)
    term = mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))
    spec = mpc.CostSpec(l=np.ones(8), b_main=b_m, b_ramp=b_m, d=d)
    return term, spec


def test_terminal_certificate_demo_configuration_passes(
        stretch, nominal_demand, demand, point_params):
    term, spec = certificate_inputs(stretch, nominal_demand)
    rep = mpc.terminal_lyapunov_check(
        term, spec, demand, point_params, nominal_demand, 200)
    assert rep.passed
    assert rep.worst_residual <= 1e-9
    assert rep.worst_exit <= 1e-9
    assert rep.samples == 200


def test_terminal_certificate_flags_lowered_weights(
        stretch, nominal_demand, demand, point_params):
    term, spec = certificate_inputs(stretch, nominal_demand)
    lowered = mpc.CostSpec(l=spec.l, b_main=0.25 * spec.b_main,
                           b_ramp=spec.b_ramp, d=0.25 * spec.d)
    rep = mpc.terminal_lyapunov_check(
        term, lowered, demand, point_params, nominal_demand, 200)
    assert not rep.passed
    assert rep.worst_residual > 1.0
    assert rep.worst_state is not None


def test_terminal_certificate_rejects_descending_weight_order(
        stretch, nominal_demand, demand, point_params):
    # weights must grow toward upstream: a vehicle entering early passes
    # every downstream cell, so reversing the profile breaks the decrease
    # at the first cell
    term, spec = certificate_inputs(stretch, nominal_demand)
    reversed_spec = mpc.CostSpec(l=spec.l, b_main=spec.b_main[::-1].copy(),
                                 b_ramp=spec.b_ramp, d=spec.b_main[::-1].copy())
    rep = mpc.terminal_lyapunov_check(
        term, reversed_spec, demand, point_params, nominal_demand, 200)
    assert not rep.passed
    assert rep.worst_residual > 1.0


def test_terminal_certificate_zero_box_is_exactly_stationary(
        stretch, point_params):
    term = mpc.TerminalSet(np.zeros(8))
    b_m, d = mpc.choose_terminal_weights(np.ones(8), stretch)
    spec = mpc.CostSpec(l=np.ones(8), b_main=b_m, b_ramp=b_m, d=d)
    still = DemandBounds(upper=np.zeros(4), lower=np.zeros(4))
    rep = mpc.terminal_lyapunov_check(
        term, spec, still, point_params, np.zeros(4), 50)
    assert rep.passed
    assert rep.worst_residual == 0.0
    assert rep.worst_exit == 0.0


# ------------------------------------------------------------- census


def test_census_matches_built_models(demand, point_params, nominal_demand,
                                     stretch):
    term = mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))
    # (columns, rows, binaries) of the two-component encoding
    expected = {1: (142, 188, 40), 2: (268, 376, 80), 3: (394, 564, 120)}
    for horizon, (cols, rows, bins) in expected.items():
        model = mpc._assemble(equilibrium_box(), demand, point_params,
                              default_config(horizon), term, reduced=False).model
        assert model.lp.n_cols == cols
        assert model.lp.n_rows == rows
        assert len(model.binaries) == bins


def test_census_covers_the_single_component_encoding(
        demand, point_params, nominal_demand, stretch):
    term = mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))
    prob = mpc._assemble(equilibrium_box(), demand, point_params,
                         default_config(3), term, reduced=True)
    assert prob.model.lp.n_cols == 131
    assert prob.model.lp.n_rows == 165
    assert len(prob.model.binaries) == 33


# ------------------------------------------ kernel, ranges and codec


def random_param_pair(rng, n):
    """Ordered (upper, lower) parameter sets sharing one jam profile."""
    jam = rng.uniform(100.0, 180.0, n)

    def draw(lo, hi, size):
        a, b = rng.uniform(lo, hi, (2, size))
        return np.maximum(a, b), np.minimum(a, b)

    beta, v, w = draw(0.6, 0.95, n - 1), draw(0.3, 0.6, n), draw(0.05, 0.35, n)
    c_max, alpha = draw(10.0, 25.0, n), draw(0.5, 1.0, n)
    return tuple(
        FreewayParams(beta=beta[j], v=v[j], w=w[j], x_jam=jam,
                      c_max=c_max[j], alpha=alpha[j], u_max=np.full(n, 40.0))
        for j in (0, 1))


def random_box(rng, jam):
    n = jam.shape[0]
    a = np.concatenate([rng.uniform(0.0, jam, (2, n)),
                        rng.uniform(0.0, 20.0, (2, n))], axis=1)
    return np.minimum(a[0], a[1]), np.maximum(a[0], a[1])


def points_in(rng, box, thr, count):
    """Points of a stacked state box. Each coordinate sits on an end of the
    box, on the drop threshold clipped into the box, or uniformly inside,
    picked at random."""
    lb, ub = box
    m = thr.shape[0]
    on_thr = lb.copy()
    on_thr[:m] = np.clip(thr, lb[:m], ub[:m])
    ends = np.stack([lb, ub, on_thr])
    pick = rng.integers(0, 4, (count, lb.shape[0]))
    inside = rng.uniform(lb, ub, pick.shape)
    return np.where(pick < 3, ends[np.minimum(pick, 2), np.arange(lb.shape[0])],
                    inside)


def assert_within(side, ranges, keys=("vx", "xi", "d", "s", "f")):
    for key in keys:
        lb, ub = ranges[key]
        val = getattr(side, key)
        assert np.all(val >= lb) and np.all(val <= ub), key


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_kernel_intermediates_stay_inside_the_stage_ranges(seed):
    """Every intermediate the kernel computes at a point of the state boxes
    lies inside the range the planner declares for its column, for both
    tube components and for the single-component encoding."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p_up, p_lo = random_param_pair(rng, n)
    lam = rng.uniform(0.0, 10.0, n)
    own, oth = random_box(rng, p_up.x_jam), random_box(rng, p_up.x_jam)
    for comp in (mpc._Comp("up", p_up, p_lo, lam, own[1]),
                 mpc._Comp("lo", p_lo, p_up, lam, own[0])):
        r_out, r_merge = mpc._stage_ranges(comp, own, oth, True)
        x = points_in(rng, own, r_out["thr"], 250)
        z = points_in(rng, oth, r_merge["thr"], 250)
        flows = comp.flows(x, z, 0.0)
        assert_within(flows.out, r_out)
        assert_within(flows.merge, r_merge)
    single = mpc._Comp("m", p_up, p_up, lam, own[1])
    r_out, r_merge = mpc._stage_ranges(single, own, own, False)
    x = points_in(rng, own, r_out["thr"], 250)
    flows = single.flows(x, x, 0.0)
    assert_within(flows.out, r_out)
    lb, ub = r_merge["f"]
    assert np.all(flows.out.f[:, :-1] >= lb) and np.all(flows.out.f[:, :-1] <= ub)


@pytest.mark.parametrize("seed", range(6))
def test_encoded_plan_is_feasible_and_replays_the_kernel(seed):
    """A random plan on the two-component model encodes to a point that
    satisfies every row, bound and gadget, and its decoded tube states are
    the kernel's next states bit for bit."""
    rng = np.random.default_rng(seed)
    n, t = 4, 3
    p_up, p_lo = random_param_pair(rng, n)
    jam = p_up.x_jam
    x_hi = np.concatenate([rng.uniform(0.0, 0.5 * jam), rng.uniform(0, 10, n)])
    x_lo = x_hi * rng.uniform(0.8, 1.0, 2 * n)
    lam = rng.uniform(1.0, 5.0, n)
    dem = DemandBounds(upper=lam, lower=0.95 * lam)
    config = mpc.MpcConfig(horizon=t, l=np.ones(2 * n), b=np.ones(2 * n))
    prob = mpc._assemble(LiftedState(upper=x_hi, lower=x_lo), dem,
                         ParamBounds(upper=p_up, lower=p_lo), config,
                         mpc.TerminalSet.mainline_only(jam), reduced=False)
    vec = prob.encode(rng.uniform(0.0, 3.0, (t, n)))
    assert vec is not None
    assert not milp.check_solution(prob.model, vec, tol=1e-7)
    controls, upper, lower = prob.decode(vec)
    for k in range(t):
        np.testing.assert_array_equal(upper[k + 1], _tube_flows(
            upper[k], lower[k], controls[k], dem.upper,
            _primary_tuple(p_up), _secondary_tuple(p_lo)).next)
        np.testing.assert_array_equal(lower[k + 1], _tube_flows(
            lower[k], upper[k], controls[k], dem.lower,
            _primary_tuple(p_lo), _secondary_tuple(p_up)).next)


# --------------------------------------------------------- solve paths


def drained_terminal(stretch, nominal_demand):
    return mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))


def test_one_step_problem_from_equilibrium(stretch, nominal_demand, demand,
                                           point_params):
    """Stage zero is pinned to the box corners, so T=1 is a pure LP."""
    term = drained_terminal(stretch, nominal_demand)
    res = mpc.solve_mpc(equilibrium_box(), demand, point_params,
                        default_config(1), term, budget=BUDGET)
    np.testing.assert_allclose(res.u, nominal_demand, atol=1e-7)
    np.testing.assert_allclose(res.value, STAGE_COST + TERMINAL_COST,
                               atol=1e-9)
    assert res.solution.nodes == 1


def test_equilibrium_value_over_six_steps(stretch, nominal_demand, demand,
                                          point_params):
    term = drained_terminal(stretch, nominal_demand)
    res = mpc.solve_mpc(equilibrium_box(), demand, point_params,
                        default_config(6), term, budget=BUDGET)
    assert res.reduced
    assert res.solution.status == milp.OPTIMAL
    np.testing.assert_allclose(res.value, 6 * STAGE_COST + TERMINAL_COST,
                               atol=1e-6)
    np.testing.assert_allclose(
        res.controls, np.tile(nominal_demand, (6, 1)), atol=1e-7)


def test_point_box_replay_matches_the_compact_plant(
        stretch, nominal_demand, demand, point_params):
    term = drained_terminal(stretch, nominal_demand)
    res = mpc.solve_mpc(equilibrium_box(), demand, point_params,
                        default_config(3), term, budget=BUDGET)
    assert res.reduced
    x = equilibrium_box().upper.copy()
    for k in range(3):
        x = compact_step(stretch, x, res.controls[k], nominal_demand)
        np.testing.assert_allclose(res.upper[k + 1], x, atol=1e-9)
        np.testing.assert_allclose(res.lower[k + 1], x, atol=1e-9)


def test_interval_box_solution_satisfies_the_tube_map(
        stretch, nominal_demand, point_params):
    """Decoded two-component trajectories replay the one-sided maps exactly."""
    lo0 = equilibrium_box().lower * 0.9
    hi0 = np.concatenate([X_UNC * 1.01, np.full(4, 0.5)])
    box = LiftedState(upper=hi0, lower=lo0)
    spread = DemandBounds(upper=nominal_demand * 1.02,
                          lower=nominal_demand * 0.98)
    term = mpc.TerminalSet.mainline_only(np.full(4, 60.0))
    res = mpc.solve_mpc(box, spread, point_params, default_config(2), term, budget=BUDGET)
    assert not res.reduced
    prim = _primary_tuple(point_params.upper)
    sec = _secondary_tuple(point_params.lower)
    hi, lo = hi0.copy(), lo0.copy()
    for k in range(2):
        hi_next = _tube_flows(hi, lo, res.controls[k], spread.upper, prim,
                              sec).next
        lo_next = _tube_flows(lo, hi, res.controls[k], spread.lower,
                              _primary_tuple(point_params.lower),
                              _secondary_tuple(point_params.upper)).next
        np.testing.assert_allclose(res.upper[k + 1], hi_next, atol=1e-9)
        np.testing.assert_allclose(res.lower[k + 1], lo_next, atol=1e-9)
        hi, lo = hi_next, lo_next


def test_threshold_ties_relax_the_two_component_model(
        stretch, nominal_demand, demand, point_params):
    """With both components encoded, a state parked exactly on the capacity
    switch lets the selector binaries disagree between the outflow and the
    merge reading of the same cell, and the optimizer exploits that slack.
    The single-component encoding shares those columns, so it reproduces
    the plant optimum; the two-component value is a lower relaxation.
    """
    term = drained_terminal(stretch, nominal_demand)
    config = default_config(3)
    constant_plan = 3 * STAGE_COST + TERMINAL_COST

    exact = mpc.solve_mpc(equilibrium_box(), demand, point_params, config,
                          term, budget=BUDGET)
    np.testing.assert_allclose(exact.value, constant_plan, atol=1e-6)

    model = mpc._assemble(equilibrium_box(), demand, point_params, config,
                          term, reduced=False).model
    relaxed = milp.solve_milp(model)
    assert relaxed.status == milp.OPTIMAL
    assert relaxed.objective < constant_plan - 1.0
    assert not milp.check_solution(model, relaxed.x, tol=1e-7)


def pinned_problem(kind, nominal_demand, stretch, point_params):
    """A horizon-4 point box (reduced encoding) or a horizon-3 interval box
    (two-component encoding), with the planner's two seed plans."""
    if kind == "point":
        t, box = 4, equilibrium_box()
        dem = DemandBounds(upper=nominal_demand, lower=nominal_demand)
        term = drained_terminal(stretch, nominal_demand)
    else:
        t = 3
        box = LiftedState(upper=np.concatenate([X_UNC * 1.01, np.full(4, 0.5)]),
                          lower=equilibrium_box().lower * 0.9)
        dem = DemandBounds(upper=nominal_demand * 1.02, lower=nominal_demand * 0.98)
        term = mpc.TerminalSet.mainline_only(np.full(4, 60.0))
    prob = mpc._assemble(box, dem, point_params, default_config(t), term,
                         reduced=kind == "point")
    seeds = (np.tile(dem.upper, (t, 1)), np.zeros((t, 4)))
    return prob, [v for v in map(prob.encode, seeds) if v is not None]


@pytest.mark.parametrize("kind, seeded, nodes, iterations, objective", [
    ("point", False, 23, 225, "0x1.41d3dc486ad2ep+10"),
    ("point", True, 1, 8, "0x1.41d3dc486ad2ep+10"),
    ("interval", False, 217, 1278, "0x1.24a3a81f6e5a6p+10"),
    ("interval", True, 17, 167, "0x1.24a3a81f6e5a6p+10"),
])
def test_branch_and_bound_keeps_its_pinned_pivot_path(
        stretch, nominal_demand, point_params, kind, seeded, nodes, iterations,
        objective):
    """Literal node and pivot counts and the objective's bits: a change that
    moves any pivot or branching decision shows here, which a repeatability
    check within one version cannot see. ``seeded`` passes the planner's
    seed plans, so the root starts from the crash basis."""
    prob, seeds = pinned_problem(kind, nominal_demand, stretch, point_params)
    sol = milp.solve_milp(prob.model, initial_candidates=seeds if seeded else None)
    assert sol.status == milp.OPTIMAL
    assert (sol.nodes, sol.iterations, sol.objective.hex()) == (
        nodes, iterations, objective)


@pytest.mark.parametrize("kind", ["point", "interval"])
def test_crash_from_a_verified_plan_starts_without_artificials(
        stretch, nominal_demand, point_params, kind):
    prob, seeds = pinned_problem(kind, nominal_demand, stretch, point_params)
    lp = prob.model.lp
    x0 = seeds[0]
    assert not milp.check_solution(prob.model, x0, tol=1e-7)
    form = _simplex.EqualityForm(lp.matrix(), lp.row_senses, lp.rhs, lp.obj)
    warm = _simplex.crash_from_point(form, lp.col_lower, lp.col_upper, x0)
    worker = _simplex._Worker(form, lp.col_lower, lp.col_upper, warm,
                              *_simplex._LADDER[0])
    np.testing.assert_array_equal(worker.basis, warm.basis)  # not a cold start
    worker._add_artificials()
    assert worker.n_art == 0
    np.testing.assert_allclose(worker._values()[: form.n], x0, rtol=0, atol=1e-9)


def test_infeasible_horizon_raises_by_default(stretch, nominal_demand,
                                              demand, point_params):
    # fifty vehicles queued, forty per step of metering headroom: one step
    # cannot drain them
    x0 = np.concatenate([X_UNC, [50.0, 0.0, 0.0, 0.0]])
    box = LiftedState(upper=x0, lower=x0)
    term = drained_terminal(stretch, nominal_demand)
    with pytest.raises(mpc.InfeasibleProblem):
        mpc.solve_mpc(box, demand, point_params, default_config(1), term, budget=BUDGET)


def test_congested_start_with_free_queues_is_feasible(stretch, point_params):
    """Above critical occupancy everywhere, metering nothing still drains the
    mainline, so the problem with unconstrained terminal queues is feasible."""
    x0 = np.concatenate([np.full(4, 44.0), np.zeros(4)])
    box = LiftedState(upper=x0, lower=x0)
    slow = DemandBounds(upper=np.full(4, 0.5), lower=np.full(4, 0.5))
    term = mpc.TerminalSet.mainline_only(np.full(4, 40.0))
    config = default_config(5)
    prob = mpc._assemble(box, slow, point_params, config, term,
                         reduced=False)
    assert milp.solve_milp(prob.model).status == milp.OPTIMAL
    witness = prob.encode(np.zeros((5, 4)))
    assert witness is not None
    assert not milp.check_solution(prob.model, witness, tol=1e-7)


def test_shifted_plan_stays_feasible_after_one_plant_step(
        stretch, nominal_demand, demand, point_params):
    """Recursive feasibility witness: drop the executed move, append the
    terminal action, and the successor problem accepts the plan as is."""
    term = drained_terminal(stretch, nominal_demand)
    config = default_config(3)
    res = mpc.solve_mpc(equilibrium_box(), demand, point_params, config, term, budget=BUDGET)
    x_next = compact_step(stretch, equilibrium_box().upper, res.controls[0],
                          nominal_demand)
    successor = LiftedState(upper=x_next, lower=x_next)
    prob = mpc._assemble(successor, demand, point_params, config, term,
                         reduced=True)
    shifted = np.vstack([res.controls[1:], nominal_demand[None, :]])
    witness = prob.encode(shifted)
    assert witness is not None
    assert not milp.check_solution(prob.model, witness, tol=1e-7)


def test_value_grows_with_the_initial_box(stretch, nominal_demand, demand,
                                          point_params):
    term = mpc.TerminalSet.mainline_only(np.full(4, 160.0))
    config = default_config(2)
    small = mpc.solve_mpc(equilibrium_box(), demand, point_params, config,
                          term, budget=BUDGET)
    bumped = equilibrium_box().upper + np.concatenate(
        [np.full(4, 2.0), np.zeros(4)])
    large = mpc.solve_mpc(LiftedState(upper=bumped, lower=bumped), demand,
                          point_params, config, term, budget=BUDGET)
    assert small.value <= large.value + 1e-9


def test_budget_overrun_raises_with_diagnostics(
        stretch, nominal_demand, demand, point_params):
    # a mainline box one vehicle wide selects the two-component encoding
    term = drained_terminal(stretch, nominal_demand)
    x0 = equilibrium_box().upper
    box = LiftedState(upper=x0, lower=x0 - np.concatenate([np.ones(4), np.zeros(4)]))
    with pytest.raises(mpc.SolveBudgetExceeded) as err:
        mpc.solve_mpc(box, demand, point_params, default_config(3), term,
                      budget=milp.MilpBudget(max_nodes=5, gap_abs=0.0))
    assert err.value.solution.nodes == 5
    assert np.isfinite(err.value.solution.objective)
    assert "incumbent" in str(err.value)


def test_single_cell_stretch_plans():
    p = homogeneous_params(1, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                           c_max=20.0, alpha=0.9)
    lam = np.array([10.0])
    b, _ = mpc.choose_terminal_weights(np.ones(2), p)
    res = mpc.solve_mpc(
        LiftedState(upper=np.array([20.0, 0.0]), lower=np.array([20.0, 0.0])),
        DemandBounds(upper=lam, lower=lam), ParamBounds(p, p),
        mpc.MpcConfig(horizon=2, l=np.ones(2), b=np.concatenate([b, b])),
        mpc.TerminalSet.drained(mpc.compute_xup(lam, p)), budget=BUDGET)
    np.testing.assert_allclose(res.controls, np.full((2, 1), 10.0),
                               atol=1e-7)
    np.testing.assert_allclose(res.value, 80.0, atol=1e-7)


# ----------------------------------------------------------- validation


def test_split_jam_box_plans_like_its_pinned_box(stretch, nominal_demand,
                                                 demand):
    """The planner pins the jam interval onto its upper end itself, before
    it picks the encoding: a box that is a point but for its jam plans on
    the single-component encoding, exactly like the pinned box."""
    mk = lambda xj: homogeneous_params(4, beta=0.9, v=0.5, w=1.0 / 6.0,
                                       x_jam=xj, c_max=20.0, alpha=0.9)
    split_jam = ParamBounds(upper=mk(160.0), lower=mk(150.0))
    term = drained_terminal(stretch, nominal_demand)
    split = mpc.solve_mpc(equilibrium_box(), demand, split_jam,
                          default_config(3), term, budget=BUDGET)
    pinned = mpc.solve_mpc(equilibrium_box(), demand, ParamBounds(mk(160.0), mk(160.0)),
                           default_config(3), term, budget=BUDGET)
    assert split.reduced and pinned.reduced
    np.testing.assert_array_equal(split.controls, pinned.controls)
    assert split.value == pinned.value


def test_config_rejects_bad_shapes_and_modes():
    with pytest.raises(ValueError):
        mpc.MpcConfig(horizon=0, l=np.ones(8), b=np.ones(8))
    with pytest.raises(ValueError):
        mpc.MpcConfig(horizon=2, l=np.zeros(8), b=np.ones(8))
    with pytest.raises(ValueError):
        mpc.MpcConfig(horizon=2, l=np.ones(8), b=np.ones(6))


def test_terminal_set_rejects_bad_vectors():
    with pytest.raises(ValueError):
        mpc.TerminalSet(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        mpc.TerminalSet(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        mpc.TerminalSet(np.ones(5))


def test_cost_spec_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        mpc.CostSpec(l=np.ones(8), b_main=np.ones(4), b_ramp=np.ones(3),
                     d=np.ones(4))
    with pytest.raises(ValueError):
        mpc.CostSpec(l=np.ones(8), b_main=np.ones(4), b_ramp=np.ones(4),
                     d=-np.ones(4))


def test_state_box_validation(stretch, nominal_demand, demand, point_params):
    term = drained_terminal(stretch, nominal_demand)
    flipped = LiftedState(
        upper=np.concatenate([X_UNC, np.zeros(4)]),
        lower=np.concatenate([X_UNC + 1.0, np.zeros(4)]))
    with pytest.raises(ValueError, match="inverted"):
        mpc.solve_mpc(flipped, demand, point_params, default_config(1), term, budget=BUDGET)
    above_jam = np.concatenate([np.full(4, 170.0), np.zeros(4)])
    with pytest.raises(ValueError, match="above jam"):
        mpc.solve_mpc(LiftedState(upper=above_jam, lower=above_jam),
                      demand, point_params, default_config(1), term, budget=BUDGET)
