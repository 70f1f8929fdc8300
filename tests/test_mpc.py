"""Horizon planning: frozen values, encoding census, solve paths, certificates."""

import hashlib
from dataclasses import replace

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
    _terms,
    _tube_flows,
)

from conftest import highs_milp, homogeneous_params, random_params, tube_flows

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


def stacked(b):
    return np.concatenate([b, b])


def default_config(horizon):
    return mpc.MpcConfig(horizon, mpc.CostSpec(l=np.ones(8), b=stacked(B_MAIN), d=B_MAIN))


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
    b = mpc.choose_terminal_weights(np.ones(8), stretch)
    np.testing.assert_allclose(b, B_MAIN, atol=1e-9)


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
    b = mpc.choose_terminal_weights(
        np.concatenate([l, rng.uniform(0.1, 5.0, params.n_cells)]), params)
    slack = params.v * (b - np.concatenate([params.beta * b[1:], [0.0]]))
    np.testing.assert_allclose(slack, l, rtol=1e-10, atol=1e-12)


def test_terminal_weights_scale_linearly(stretch):
    b1 = mpc.choose_terminal_weights(np.ones(8), stretch)
    b3 = mpc.choose_terminal_weights(np.full(8, 3.0), stretch)
    np.testing.assert_allclose(b3, 3.0 * b1, rtol=1e-12)


def test_terminal_weights_single_cell():
    p = homogeneous_params(1, beta=0.9, v=0.25, w=0.2, x_jam=100.0,
                           c_max=20.0, alpha=0.8)
    b = mpc.choose_terminal_weights(np.array([2.0, 2.0]), p)
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
    b = mpc.choose_terminal_weights(np.ones(8), stretch)
    term = mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))
    spec = mpc.CostSpec(l=np.ones(8), b=stacked(b), d=b)
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
    lowered = mpc.CostSpec(l=spec.l, b=np.concatenate([0.25 * spec.b[:4], spec.b[4:]]),
                           d=0.25 * spec.d)
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
    reversed_spec = mpc.CostSpec(l=spec.l, b=np.concatenate([spec.b[3::-1], spec.b[4:]]),
                                 d=spec.b[3::-1].copy())
    rep = mpc.terminal_lyapunov_check(
        term, reversed_spec, demand, point_params, nominal_demand, 200)
    assert not rep.passed
    assert rep.worst_residual > 1.0


def test_terminal_certificate_zero_box_is_exactly_stationary(
        stretch, point_params):
    term = mpc.TerminalSet(np.zeros(8))
    b = mpc.choose_terminal_weights(np.ones(8), stretch)
    spec = mpc.CostSpec(l=np.ones(8), b=stacked(b), d=b)
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
    expected = {1: (102, 148, 40), 2: (188, 296, 80), 3: (274, 444, 120)}
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
    assert prob.model.lp.n_cols == 86
    assert prob.model.lp.n_rows == 132
    assert len(prob.model.binaries) == 21


@pytest.mark.parametrize("reduced", [False, True], ids=["tube", "single"])
def test_every_column_is_a_state_a_control_or_a_gadget_decision(
        demand, point_params, nominal_demand, stretch, reduced):
    """No column is a second name for another: each one is a state, a
    control, the result of a min gadget or a selector, exactly once, and
    every row is a gadget's or a conservation row."""
    term = mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))
    prob = mpc._assemble(equilibrium_box(), demand, point_params,
                         default_config(2), term, reduced=reduced)
    lp, ops = prob.model.lp, prob.model.operands
    u, upper, lower = prob.decode(np.arange(lp.n_cols))
    mins, gadgets = ops.f.size, ops.z.size
    kinds = [set(upper.ravel()) | set(lower.ravel()), set(u.ravel()),
             set(ops.f.tolist()), set(ops.z.tolist())]
    assert sum(map(len, kinds)) == lp.n_cols
    assert set().union(*kinds) == set(range(lp.n_cols))
    # one mainline and one queue row per state after the first, per side
    conservation = (upper.size - upper.shape[1]) * (1 if reduced else 2)
    assert lp.n_rows == 4 * mins + 2 * (gadgets - mins) + conservation


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
    lies inside the range the planner declares for its column or term, for
    both tube components and for the single-component encoding."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p_up, p_lo = random_param_pair(rng, n)
    lam = rng.uniform(0.0, 10.0, n)
    own, oth = random_box(rng, p_up.x_jam), random_box(rng, p_up.x_jam)
    for terms in (_terms(p_up, p_lo), _terms(p_lo, p_up)):
        r_out, r_merge = mpc._stage_ranges(terms, lam, own, oth, True)
        x = points_in(rng, own, r_out["thr"], 250)
        z = points_in(rng, oth, r_merge["thr"], 250)
        flows = _tube_flows(x, z, 0.0, lam, terms)
        assert_within(flows.out, r_out)
        assert_within(flows.merge, r_merge)
    single = _terms(p_up, p_up)
    r_out, r_merge = mpc._stage_ranges(single, lam, own, own, False)
    x = points_in(rng, own, r_out["thr"], 250)
    flows = _tube_flows(x, x, 0.0, lam, single)
    assert_within(flows.out, r_out)
    lb, ub = r_merge["f"]
    assert np.all(flows.out.f[:, :-1] >= lb) and np.all(flows.out.f[:, :-1] <= ub)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_declared_term_ranges_hold_on_the_column_boxes(seed, reduced):
    """Every min-gadget operand, evaluated at both ends of its column's box
    once the decided selectors are fixed, stays inside the range declared
    for it; the big-M constants are read off those ranges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    p_up, p_lo = random_param_pair(rng, n)
    lo, hi = random_box(rng, p_up.x_jam)
    lam = rng.uniform(0.0, 10.0, n)
    config = mpc.MpcConfig(2, mpc.CostSpec(l=np.ones(2 * n), b=np.ones(2 * n),
                                           d=np.ones(n)))
    model = mpc._assemble(LiftedState(upper=hi, lower=lo),
                          DemandBounds(upper=lam, lower=0.9 * lam),
                          ParamBounds(upper=p_up, lower=p_lo), config,
                          mpc.TerminalSet.mainline_only(p_up.x_jam),
                          reduced=reduced).model
    lp, ops = model.lp, model.operands
    # the min gadgets' terms a and b, one column of (col, coef, const, lo, hi) each
    for col, coef, const, t_lo, t_hi in (ops.left[:, :ops.f.size], ops.right[:, :ops.f.size]):
        col = col.astype(int)
        ends = coef * np.array([lp.col_lower[col], lp.col_upper[col]]) + const
        outside = (ends.min(axis=0) < t_lo - 1e-9) | (ends.max(axis=0) > t_hi + 1e-9)
        assert not outside.any(), [lp.col_names[j] for j in col[outside]]


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
    config = mpc.MpcConfig(t, mpc.CostSpec(l=np.ones(2 * n), b=np.ones(2 * n), d=np.ones(n)))
    prob = mpc._assemble(LiftedState(upper=x_hi, lower=x_lo), dem,
                         ParamBounds(upper=p_up, lower=p_lo), config,
                         mpc.TerminalSet.mainline_only(jam), reduced=False)
    vec = prob.encode(rng.uniform(0.0, 3.0, (t, n)))
    assert not milp.check_solution(prob.model, vec, tol=1e-7)
    controls, upper, lower = prob.decode(vec)
    for k in range(t):
        np.testing.assert_array_equal(upper[k + 1], tube_flows(
            upper[k], lower[k], controls[k], dem.upper, p_up, p_lo).next)
        np.testing.assert_array_equal(lower[k + 1], tube_flows(
            lower[k], upper[k], controls[k], dem.lower, p_lo, p_up).next)


def pinned_case(name, stretch, nominal_demand):
    """The inputs of one pinned model: (state box, demand box, horizon,
    terminal box, reduced, the share of the upper arrivals the encoded plan
    meters)."""
    point_dem = DemandBounds(upper=nominal_demand, lower=nominal_demand)
    drained = mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))
    if name.startswith("point"):
        t = int(name[len("point T="):])
        return equilibrium_box(), point_dem, t, drained, True, 0.75
    if name.startswith("interval"):
        box = LiftedState(upper=np.concatenate([X_UNC * 1.01, np.full(4, 0.5)]),
                          lower=equilibrium_box().lower * 0.9)
        dem = DemandBounds(upper=nominal_demand * 1.02, lower=nominal_demand * 0.98)
        return (box, dem, int(name[len("interval T="):]),
                mpc.TerminalSet.mainline_only(np.full(4, 60.0)), False, 0.9)
    if name == "on the drop threshold":
        # cell 1 starts exactly at c_max / v, so its first-stage drop switch
        # is decided with both big-M constants zero
        x0 = np.concatenate([[stretch.c_max[0] / stretch.v[0]], X_UNC[1:], np.zeros(4)])
        return LiftedState(upper=x0, lower=x0.copy()), point_dem, 3, drained, True, 1.0
    # the mainline caps sit below the propagated reach of the last stage
    return (equilibrium_box(), point_dem, 2,
            mpc.TerminalSet.mainline_only(np.array([38.0, 37.0, 37.5, 36.5])), True, 0.5)


PINNED_MODELS = {
    # sha256 of (dump_model text, encoded plan) as the cell-by-cell encoding wrote them
    "point T=1": ("37163af8b44631c43f26bb27bb348d120df73a00b8a4256d2314911c1de752e3",
                  "be27798926b01bdb473a32d0563d15b15386bc917c87b55656334708517b8d10"),
    "point T=2": ("dc4a06fec7b80774fbd2f6718826088537acf3979c2f4ef0b3b0093034a62be5",
                  "dbb1714040259749254e3072e8b81951b8b4472bb70ad09ef81899306c3eeec3"),
    "point T=10": ("28bc83d8ec6f192c3d6bed36927620dd5f8510394ffdc7b1f7289c704473afb5",
                   "f908e8d4a5a519b087d845a0ae7670cae9f5e8d8f6538551ba03613e7695042c"),
    "interval T=1": ("bc2020854d9ad3f36e1836ccdb5fce7793257b77517d1bc94fe37525263a51cb",
                     "541fd900e343ec5e3f33095ba0415b0fe39872819fb9bacd185d3965dd43991c"),
    "interval T=5": ("435d0073ecec1deda6c6bfe38b1deb2e68d5a660eb7b5001745c493ad6e22fb2",
                     "5eab3f42134ac5174dee3220ffb4dad2bab40622902b3479b17440ccc3a26d2a"),
    "on the drop threshold": ("88a8173ac4b33254796d4e51f0ef823a7462f3d47a772c2c037f0ced54409980",
                              "a06f7195caa88f1b200188a705b0b27ad5a98a86ffb3371241fee707d57410fb"),
    "terminal binds": ("6335888a9a5dc2e939e1205a218126662497361ae6059cf7be91a997fa2f928d",
                       "4852d89b55cbc7a676570be6b128d22e567d413d67a140366cc3a845fa716511"),
}


@pytest.mark.parametrize("name", PINNED_MODELS)
def test_the_planner_builds_its_pinned_models(stretch, nominal_demand, point_params, name):
    """The sha256 of each model's ``dump_model`` text and of one encoded
    plan: every column, row, name, bound, coefficient and gadget record
    in its place, and the codec's vector bit for bit. The column order
    matters beyond the text, since branching and pricing break ties by the
    lowest index."""
    box, dem, t, terminal, reduced, scale = pinned_case(name, stretch, nominal_demand)
    prob = mpc._assemble(box, dem, point_params, default_config(t), terminal, reduced=reduced)
    text = milp.dump_model(prob.model)
    vec = prob.encode(np.tile(dem.upper * scale, (t, 1)))
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(vec.tobytes()).hexdigest()) == PINNED_MODELS[name]
    if name == "on the drop threshold":
        assert "row 0 drop.out.m[0][0].cap L 40.0 : 1.0*0" in text.splitlines()
    if name == "terminal binds":
        lp = prob.model.lp
        last = [lp.col_upper[lp.col_names.index(f"x.m[2][{i}]")] for i in range(4)]
        assert np.any(np.array(last) == terminal.x_f[:4])


# the pinned threshold case at a speed where v * (c_max / v) rounds above c_max
ROUNDED = "on the drop threshold at v 0.54"


def oracle_case(seed):
    """A point box at horizon 2 or 3 drawn from ``seed``: random cells, a
    state near their drop thresholds with one cell exactly on its threshold
    in every third draw, and a terminal box that some draws cannot reach.
    Returns the inputs of ``mpc._assemble`` but ``reduced``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    params = random_params(rng, n, wave_sum_cap=True)
    crit = params.c_max / params.v  # as the kernel computes the threshold
    x = np.concatenate([np.minimum(crit * rng.uniform(0.5, 1.4, n), params.x_jam),
                        rng.uniform(0.0, 8.0, n)])
    if seed % 3 == 0:
        i = int(rng.integers(n))
        x[i] = crit[i]
    lam = params.c_max * rng.uniform(0.05, 0.4, n)
    t = 2 + seed % 2
    cap = np.maximum(x[:n], crit) * rng.uniform(1.1, 1.8, n) * (0.4 if seed % 8 == 5 else 1.0)
    terminal = mpc.TerminalSet.mainline_only(cap) if seed % 5 else mpc.TerminalSet.drained(cap)
    config = mpc.MpcConfig(t, mpc.CostSpec(l=np.ones(2 * n), b=np.ones(2 * n), d=np.ones(n)))
    return (LiftedState(upper=x, lower=x.copy()), DemandBounds(upper=lam, lower=lam.copy()),
            ParamBounds(params, params), config, terminal)


def oracle_inputs(case, stretch, nominal_demand):
    """The inputs of ``mpc._assemble`` but ``reduced`` for a case of
    ``UNTIED_OPTIMA``: a pinned point case, ``ROUNDED`` or a seed."""
    if not isinstance(case, str):
        return oracle_case(case)
    if case == ROUNDED:
        stretch = replace(stretch, v=np.full(4, 0.54))
        box, dem, t, _, _, _ = pinned_case("on the drop threshold", stretch, nominal_demand)
        terminal = mpc.TerminalSet.mainline_only(np.full(4, 60.0))
    else:
        box, dem, t, terminal, _, _ = pinned_case(case, stretch, nominal_demand)
    return box, dem, ParamBounds(stretch, stretch), default_config(t), terminal


# HiGHS optima (gap 0) of the single-component models built with a selector
# column of its own on every outflow min, before the min read the drop binary;
# None marks an infeasible model
UNTIED_OPTIMA = {
    "point T=1": 835.5443400000001,
    "point T=2": 986.1330000000002,
    "on the drop threshold": 1148.1391400000002,
    "terminal binds": 986.1330000000002,
    ROUNDED: 1112.89118404593,
    0: None,
    1: 434.99740845185283,
    2: 629.0918819521502,
    3: 749.374252379692,
    4: 871.2653092651333,
    5: None,
    6: None,
    7: 511.0541780737564,
    8: 248.47940962327786,
    9: 529.2618575419862,
    10: 755.9985792391358,
    11: 487.7810905880675,
    12: 516.3063330270878,
    13: None,
    14: 472.31033865862406,
    15: 1247.7098473128694,
    16: 604.2395741885102,
    17: 445.63219594244157,
    18: 550.038952957087,
    19: None,
    20: 539.8708583772019,
    21: 569.9919610295851,
    22: 541.0590394647618,
    23: 262.40526344441133,
}


@pytest.mark.parametrize("case", UNTIED_OPTIMA)
def test_the_shared_selector_keeps_the_untied_optimum(stretch, nominal_demand, case):
    """The outflow min reads the drop binary as its selector, which removes
    no value of any continuous column on a point box: HiGHS at gap 0 finds
    each model's optimum where it found the untied model's, infeasible
    models included."""
    prob = mpc._assemble(*oracle_inputs(case, stretch, nominal_demand), reduced=True)
    ref = highs_milp(prob.model, mip_rel_gap=0.0)
    if UNTIED_OPTIMA[case] is None:
        assert ref.status == 2
    else:
        assert ref.status == 0
        assert ref.fun == pytest.approx(UNTIED_OPTIMA[case], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("case", ["on the drop threshold", ROUNDED])
def test_the_drop_decides_the_selector_it_shares_on_its_threshold(
        stretch, nominal_demand, case):
    """Cell 1 starts exactly on its drop threshold c_max / v, where the drop
    switch ties and is settled as 1. At v = 0.54, v * (c_max / v) rounds
    above c_max, so the min alone would decide the same selector as 0, by
    one ulp: at build time the drop's decision wins. The seed plan's
    rollout, which keeps cell 1 at full capacity as the kernel does, passes
    the candidate check."""
    inputs = oracle_inputs(case, stretch, nominal_demand)
    prob = mpc._assemble(*inputs, reduced=True)
    lp, ops = prob.model.lp, prob.model.operands
    z = lp.col_names.index("drop.out.m[0][0].z")
    assert lp.col_lower[z] == lp.col_upper[z] == 1.0
    alone = milp._Selectors(ops).decide(lp.col_lower, lp.col_upper, ties=True)
    (k_min, k_drop) = np.flatnonzero(ops.z == z)
    assert k_min < ops.f.size <= k_drop
    assert (alone[k_min], alone[k_drop]) == ((0.0 if case == ROUNDED else 1.0), 1.0)
    t = inputs[3].horizon
    vec = prob.encode(np.tile(inputs[1].upper, (t, 1)))
    assert vec[z] == 1.0
    assert not milp.check_solution(prob.model, vec, tol=1e-7)


# --------------------------------------------------------- solve paths


def drained_terminal(stretch, nominal_demand):
    return mpc.TerminalSet.drained(mpc.compute_xup(nominal_demand, stretch))


def test_one_step_problem_from_equilibrium(stretch, nominal_demand, demand,
                                           point_params):
    """Stage zero is pinned to the box corners, so T=1 is a pure LP."""
    term = drained_terminal(stretch, nominal_demand)
    res = mpc.solve_mpc(equilibrium_box(), demand, point_params,
                        default_config(1), term, budget=BUDGET)
    np.testing.assert_allclose(res.controls[0], nominal_demand, atol=1e-7)
    np.testing.assert_allclose(res.solution.objective, STAGE_COST + TERMINAL_COST,
                               atol=1e-9)
    assert res.solution.nodes == 1


def test_equilibrium_value_over_six_steps(stretch, nominal_demand, demand,
                                          point_params):
    term = drained_terminal(stretch, nominal_demand)
    res = mpc.solve_mpc(equilibrium_box(), demand, point_params,
                        default_config(6), term, budget=BUDGET)
    assert res.reduced
    assert res.solution.status == milp.OPTIMAL
    np.testing.assert_allclose(res.solution.objective, 6 * STAGE_COST + TERMINAL_COST,
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
    p_up, p_lo = point_params.upper, point_params.lower
    hi, lo = hi0.copy(), lo0.copy()
    for k in range(2):
        hi_next = tube_flows(hi, lo, res.controls[k], spread.upper, p_up, p_lo).next
        lo_next = tube_flows(lo, hi, res.controls[k], spread.lower, p_lo, p_up).next
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
    np.testing.assert_allclose(exact.solution.objective, constant_plan, atol=1e-6)

    model = mpc._assemble(equilibrium_box(), demand, point_params, config,
                          term, reduced=False).model
    relaxed = milp.solve_milp(model, budget=BUDGET)
    assert relaxed.status == milp.OPTIMAL
    assert relaxed.objective < constant_plan - 1.0
    assert not milp.check_solution(model, relaxed.x, tol=1e-7)


def pinned_problem(kind, nominal_demand, stretch, point_params):
    """A horizon-4 point box (reduced encoding) or a horizon-3 interval box
    (two-component encoding), with those of the planner's two seed plans
    that pass ``solve_milp``'s candidate check."""
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
    return prob, [v for v in map(prob.encode, seeds)
                  if not milp.check_solution(prob.model, v, tol=1e-7)]


@pytest.mark.parametrize("kind, seeded, nodes, iterations, objective", [
    ("point", False, 13, 146, "0x1.41d3dc486ad2fp+10"),
    ("point", True, 1, 8, "0x1.41d3dc486ad2ep+10"),
    ("interval", False, 135, 291, "0x1.24a3a81f6e5a6p+10"),
    ("interval", True, 17, 69, "0x1.24a3a81f6e5a6p+10"),
])
def test_branch_and_bound_keeps_its_pinned_pivot_path(
        stretch, nominal_demand, point_params, kind, seeded, nodes, iterations,
        objective):
    """Literal node and pivot counts and the objective's bits: a change that
    moves any pivot or branching decision shows here, which a repeatability
    check within one version cannot see. ``seeded`` passes the planner's
    seed plans, so the root starts from the crash basis."""
    prob, seeds = pinned_problem(kind, nominal_demand, stretch, point_params)
    sol = milp.solve_milp(prob.model, budget=BUDGET,
                          initial_candidates=seeds if seeded else None)
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


def test_the_codec_leaves_the_candidate_check_to_the_solver(
        stretch, nominal_demand, point_params):
    """Metering nothing fills the queues that the drained terminal box must
    empty: encode still returns the rollout, check_solution flags it, and
    solve_milp drops it without a trace in the search."""
    prob, _ = pinned_problem("point", nominal_demand, stretch, point_params)
    idle = prob.encode(np.zeros((4, 4)))
    assert milp.check_solution(prob.model, idle, tol=1e-7)[0].startswith("column q.m[4]")
    alone, seeded = (milp.solve_milp(prob.model, budget=BUDGET, initial_candidates=seeds)
                     for seeds in (None, [idle]))
    assert (seeded.nodes, seeded.iterations, seeded.objective.hex()) == (
        alone.nodes, alone.iterations, alone.objective.hex())


def test_the_hook_skips_controls_it_has_offered(stretch, nominal_demand, point_params):
    """The planner's incumbent hook rolls out each node's controls once:
    the search visits the same tree, pivots and objective bits as with a
    hook that rolls out every node, and encodes fewer times."""
    prob, _ = pinned_problem("interval", nominal_demand, stretch, point_params)
    encoded = []

    def counted(u_seq):
        encoded[-1] += 1
        return prob.encode(u_seq)

    counting = prob._replace(encode=counted)
    hooks = (lambda x: counting.encode(np.asarray(x)[prob.u]),
             mpc._incumbent_hook(counting))
    found = []
    for hook in hooks:
        encoded.append(0)
        sol = milp.solve_milp(prob.model, budget=BUDGET, incumbent_hook=hook)
        found.append((sol.status, sol.nodes, sol.iterations, sol.objective.hex()))
    assert found[0] == found[1]
    assert encoded[1] < encoded[0]


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
    assert milp.solve_milp(prob.model, budget=BUDGET).status == milp.OPTIMAL
    witness = prob.encode(np.zeros((5, 4)))
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
    assert small.solution.objective <= large.solution.objective + 1e-9


def test_budget_overrun_raises_with_diagnostics(
        stretch, nominal_demand, demand, point_params):
    # a mainline box one vehicle wide selects the two-component encoding
    term = drained_terminal(stretch, nominal_demand)
    x0 = equilibrium_box().upper
    box = LiftedState(upper=x0, lower=x0 - np.concatenate([np.ones(4), np.zeros(4)]))
    number = r"[-+.0-9e]+"
    with pytest.raises(mpc.SolveBudgetExceeded, match=(
            rf"^node budget exhausted after 5 nodes \(incumbent {number}, bound {number}\)$")):
        mpc.solve_mpc(box, demand, point_params, default_config(3), term,
                      budget=milp.MilpBudget(max_nodes=5, gap_abs=0.0))


def test_single_cell_stretch_plans():
    p = homogeneous_params(1, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                           c_max=20.0, alpha=0.9)
    lam = np.array([10.0])
    b = mpc.choose_terminal_weights(np.ones(2), p)
    res = mpc.solve_mpc(
        LiftedState(upper=np.array([20.0, 0.0]), lower=np.array([20.0, 0.0])),
        DemandBounds(upper=lam, lower=lam), ParamBounds(p, p),
        mpc.MpcConfig(2, mpc.CostSpec(l=np.ones(2), b=np.concatenate([b, b]), d=b)),
        mpc.TerminalSet.drained(mpc.compute_xup(lam, p)), budget=BUDGET)
    np.testing.assert_allclose(res.controls, np.full((2, 1), 10.0),
                               atol=1e-7)
    np.testing.assert_allclose(res.solution.objective, 80.0, atol=1e-7)


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
    assert split.solution.objective == pinned.solution.objective


def test_config_rejects_bad_shapes_and_modes():
    cost = mpc.CostSpec(l=np.ones(8), b=np.ones(8), d=np.ones(4))
    with pytest.raises(ValueError):
        mpc.MpcConfig(horizon=0, cost=cost)
    with pytest.raises(ValueError):
        mpc.CostSpec(l=np.zeros(8), b=np.ones(8), d=np.ones(4))
    with pytest.raises(ValueError):
        mpc.CostSpec(l=np.ones(8), b=np.ones(6), d=np.ones(4))


def test_terminal_set_rejects_bad_vectors():
    with pytest.raises(ValueError):
        mpc.TerminalSet(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        mpc.TerminalSet(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        mpc.TerminalSet(np.ones(5))


def test_cost_spec_rejects_mismatched_weights():
    with pytest.raises(ValueError):
        mpc.CostSpec(l=np.ones(8), b=np.ones(7), d=np.ones(4))
    with pytest.raises(ValueError):
        mpc.CostSpec(l=np.ones(8), b=np.ones(8), d=-np.ones(4))


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
