"""Set-membership updates: collapse rules, contraction soundness, and the
window plumbing they share."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rampflow import estimators
from rampflow.ctm import (FreewayParams, Observation, OutputModel,
                          compact_step, equilibrium_uncongested, measure)
from rampflow.embedding import DemandBounds, LiftedState, ParamBounds, lifted_step
from rampflow.estimators import (FEASIBLE, INFEASIBLE, UNKNOWN,
                                 ContainmentViolation, EstimatorConfig,
                                 MeasurementWindow, interval_consistency,
                                 state_update, theta_update)

from conftest import full_output, homogeneous_params, point_demand, point_state

# deeper walks and a larger budget than a scenario's (6 and 48); theta_update
# reads only these two fields
DEEP = EstimatorConfig(backward_horizon=8, prune_depth=8, prune_budget=256)


def wide_start(params, queue_cap=50.0):
    return LiftedState(
        upper=np.concatenate([params.x_jam, np.full(params.n_cells, queue_cap)]),
        lower=np.zeros(2 * params.n_cells))


def speed_box(params, lo=0.3, hi=0.7):
    n = params.n_cells
    lower = FreewayParams(beta=params.beta, v=np.full(n, lo), w=params.w,
                          x_jam=params.x_jam, c_max=params.c_max,
                          alpha=params.alpha, u_max=params.u_max)
    upper = FreewayParams(beta=params.beta, v=np.full(n, hi), w=params.w,
                          x_jam=params.x_jam, c_max=params.c_max,
                          alpha=params.alpha, u_max=params.u_max)
    return ParamBounds(upper=upper, lower=lower)


def drive_window(true_params, box, x0, steps, model, demand_box, *, u=None):
    """Run the corrector loop on a simulated plant and fill a window."""
    lam = 0.5 * (demand_box.upper + demand_box.lower)
    u = lam if u is None else np.asarray(u, dtype=float)
    window = MeasurementWindow(steps, model, demand_box)
    x = np.asarray(x0, dtype=float)
    lifted = state_update(wide_start(true_params), measure(model, x), model)
    window.push(lifted, measure(model, x))
    truth = [x]
    for _ in range(steps):
        x = compact_step(true_params, x, u, lam)
        predicted = lifted_step(lifted, u, demand_box, box)
        lifted = state_update(predicted, measure(model, x), model)
        window.push(lifted, measure(model, x), control=u)
        truth.append(x)
    return window, truth


@pytest.fixture
def demand_box(nominal_demand):
    return point_demand(nominal_demand)


@pytest.fixture
def transient_start(stretch, nominal_demand):
    x_unc = equilibrium_uncongested(stretch, nominal_demand)
    return np.concatenate([0.6 * x_unc, np.zeros(4)])


# ---------------------------------------------------------------- state


def test_measured_cells_collapse_to_scaled_readings(stretch):
    model = OutputModel(np.array([True, False, False, False]),
                        np.array([2.0, 1.0, 1.0, 1.0]))
    predicted = LiftedState(upper=np.full(8, 40.0), lower=np.zeros(8))
    x = np.array([30.0, 25.0, 20.0, 15.0, 1.0, 2.0, 3.0, 4.0])
    updated = state_update(predicted, measure(model, x), model)
    assert updated.upper[0] == updated.lower[0] == 30.0
    assert updated.upper[1] == 40.0 and updated.lower[1] == 0.0
    assert np.array_equal(updated.upper[4:], x[4:])
    assert np.array_equal(updated.lower[4:], x[4:])


def test_state_update_is_contained_and_idempotent(stretch):
    rng = np.random.default_rng(7)
    model = OutputModel(np.array([True, False, True, False]), np.ones(4))
    for _ in range(25):
        lower = rng.uniform(0.0, 20.0, 8)
        upper = lower + rng.uniform(0.5, 30.0, 8)
        truth = rng.uniform(lower, upper)
        predicted = LiftedState(upper=upper, lower=lower)
        once = state_update(predicted, measure(model, truth), model)
        assert np.all(once.upper <= predicted.upper + 1e-12)
        assert np.all(once.lower >= predicted.lower - 1e-12)
        assert once.contains(truth)
        twice = state_update(once, measure(model, truth), model)
        assert np.array_equal(twice.upper, once.upper)
        assert np.array_equal(twice.lower, once.lower)


def test_state_update_rejects_readings_outside_the_box(stretch):
    model = full_output(4)
    predicted = LiftedState(upper=np.full(8, 10.0), lower=np.full(8, 1.0))
    high = np.concatenate([np.array([11.0, 5.0, 5.0, 5.0]), np.full(4, 5.0)])
    with pytest.raises(ContainmentViolation, match="mainline cell 0"):
        state_update(predicted, measure(model, high), model)
    low_queue = np.concatenate([np.full(4, 5.0), np.array([5.0, 0.0, 5.0, 5.0])])
    with pytest.raises(ContainmentViolation, match="ramp queue 1"):
        state_update(predicted, measure(model, low_queue), model)


def test_state_update_rejects_a_missing_measured_reading():
    model = full_output(2)
    predicted = LiftedState(upper=np.full(4, 10.0), lower=np.zeros(4))
    broken = Observation(y_main=np.array([np.nan, 3.0]), y_ramp=np.zeros(2))
    with pytest.raises(ValueError, match="missing"):
        state_update(predicted, broken, model)


# --------------------------------------------------------------- window


def test_window_rolls_and_keeps_transitions_aligned(stretch, demand_box):
    model = full_output(4)
    window = MeasurementWindow(2, model, demand_box)
    states = [np.full(8, float(k)) for k in range(5)]
    window.push(point_state(states[0]), measure(model, states[0]))
    assert len(window) == 1
    for k, x in enumerate(states[1:], start=1):
        window.push(point_state(x), measure(model, x),
                    control=np.full(4, float(k)))
    assert len(window) == 3
    assert [c[0] for c in window.controls] == [3.0, 4.0]
    assert window.observations[0].y_ramp[0] == 2.0


def test_window_rejects_a_transition_without_its_control(stretch, demand_box):
    model = full_output(4)
    window = MeasurementWindow(3, model, demand_box)
    x = np.zeros(8)
    window.push(point_state(x), measure(model, x))
    with pytest.raises(ValueError, match="control of the transition"):
        window.push(point_state(x), measure(model, x))


# ---------------------------------------------------------- consistency


def test_point_truth_window_reads_feasible(stretch, demand_box, transient_start):
    box = ParamBounds(stretch, stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    verdict = interval_consistency(box, window)
    assert verdict == FEASIBLE


def test_wide_box_around_truth_is_never_infeasible(demand_box, transient_start, stretch):
    rng = np.random.default_rng(21)
    for _ in range(10):
        v_true = rng.uniform(0.35, 0.6, 4)
        truth = FreewayParams(beta=stretch.beta, v=v_true, w=stretch.w,
                              x_jam=stretch.x_jam, c_max=stretch.c_max,
                              alpha=stretch.alpha, u_max=stretch.u_max)
        box = speed_box(stretch, lo=float(v_true.min()) - 0.1,
                        hi=float(v_true.max()) + 0.1)
        window, _ = drive_window(truth, box, transient_start, 4,
                                 full_output(4), demand_box)
        verdict = interval_consistency(box, window)
        assert verdict in (UNKNOWN, FEASIBLE)


def test_box_excluding_the_truth_is_certified_infeasible(
        stretch, demand_box, transient_start):
    window, _ = drive_window(stretch, ParamBounds(stretch, stretch),
                             transient_start, 3, full_output(4), demand_box)
    away = speed_box(stretch, lo=0.75, hi=0.8)
    verdict = interval_consistency(away, window)
    assert verdict == INFEASIBLE


# ---------------------------------------------------------------- theta


def test_theta_update_collapses_onto_the_free_flow_speed(
        stretch, demand_box, transient_start):
    box = speed_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    config = EstimatorConfig(backward_horizon=3, prune_depth=16,
                             prune_budget=512)
    out = theta_update(window, box, config)
    mid = 0.5 * (out.lower.v + out.upper.v)
    assert np.all(np.abs(mid - stretch.v) <= 1e-3)
    assert np.all(out.upper.v - out.lower.v <= 1e-3)


def test_theta_update_is_monotone_and_keeps_the_truth(stretch, demand_box):
    rng = np.random.default_rng(5)
    for _ in range(5):
        v_true = rng.uniform(0.4, 0.55, 4)
        beta_true = rng.uniform(0.7, 0.92, 3)
        truth = FreewayParams(beta=beta_true, v=v_true, w=stretch.w,
                              x_jam=stretch.x_jam, c_max=stretch.c_max,
                              alpha=stretch.alpha, u_max=stretch.u_max)
        lower = FreewayParams(beta=beta_true - 0.05, v=v_true - 0.08,
                              w=stretch.w, x_jam=stretch.x_jam,
                              c_max=stretch.c_max, alpha=stretch.alpha,
                              u_max=stretch.u_max)
        upper = FreewayParams(beta=np.minimum(beta_true + 0.05, 0.97),
                              v=v_true + 0.08, w=stretch.w,
                              x_jam=stretch.x_jam, c_max=stretch.c_max,
                              alpha=stretch.alpha, u_max=stretch.u_max)
        box = ParamBounds(upper=upper, lower=lower)
        x_unc = equilibrium_uncongested(truth, demand_box.upper)
        x0 = np.concatenate([0.5 * x_unc, np.zeros(4)])
        window, _ = drive_window(truth, box, x0, 4, full_output(4),
                                 demand_box)
        out = theta_update(window, box,
                           replace(DEEP, prune_depth=6, prune_budget=150))
        for field, true_vec in (("v", v_true), ("beta", beta_true)):
            lo_in, up_in = getattr(lower, field), getattr(upper, field)
            lo_out, up_out = getattr(out.lower, field), getattr(out.upper, field)
            assert np.all(lo_out >= lo_in - 1e-12)
            assert np.all(up_out <= up_in + 1e-12)
            assert np.all(lo_out <= true_vec + 1e-9)
            assert np.all(up_out >= true_vec - 1e-9)


def test_theta_update_leaves_a_point_box_unchanged(
        stretch, demand_box, transient_start):
    box = ParamBounds(stretch, stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    out = theta_update(window, box, DEEP)
    for field in ("beta", "v", "w", "x_jam", "c_max", "alpha"):
        assert np.array_equal(getattr(out.lower, field), getattr(stretch, field))
        assert np.array_equal(getattr(out.upper, field), getattr(stretch, field))


def test_theta_update_raises_when_no_parameter_fits(
        stretch, demand_box, transient_start):
    window, _ = drive_window(stretch, ParamBounds(stretch, stretch),
                             transient_start, 3, full_output(4), demand_box)
    away = speed_box(stretch, lo=0.75, hi=0.8)
    with pytest.raises(ContainmentViolation, match="window"):
        theta_update(window, away, DEEP)


def test_theta_update_respects_the_check_budget(
        stretch, demand_box, transient_start):
    box = speed_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    out = theta_update(window, box, replace(DEEP, prune_budget=1))
    assert np.array_equal(out.lower.v, box.lower.v)
    assert np.array_equal(out.upper.v, box.upper.v)


def _theta_update_one_by_one(window, param_bounds, config):
    """Reference for theta_update: the bisection walk with one consistency
    check per probe, and the range checks made by constructing each probe.

    Returns the box and the checks spent up to the last certified cut: the
    smallest budget that still reaches the same box.
    """
    fields = ("beta", "v", "w", "x_jam", "c_max", "alpha")
    checks_left = max(config.prune_budget, 1)
    last_cut = None

    def consistent(candidate):
        nonlocal checks_left
        checks_left -= 1
        return interval_consistency(candidate, window)

    def corner_maps(bounds):
        return ({f: np.array(getattr(bounds.lower, f), dtype=float) for f in fields},
                {f: np.array(getattr(bounds.upper, f), dtype=float) for f in fields})

    def build_box(lo_map, up_map):
        try:
            lower = replace(param_bounds.lower, **{f: a.copy() for f, a in lo_map.items()})
            upper = replace(param_bounds.upper, **{f: a.copy() for f, a in up_map.items()})
            return ParamBounds(upper=upper, lower=lower)
        except ValueError:
            return None

    if consistent(param_bounds) == INFEASIBLE:
        raise ContainmentViolation(
            "no parameter left in the box reproduces the recorded window")
    lo_map, up_map = corner_maps(param_bounds)
    coords = [(f, i) for f in fields
              for i in range(lo_map[f].shape[0])
              if up_map[f][i] - lo_map[f][i] > 1e-12]
    for f, i in coords:
        for is_upper in (True, False):
            target, other = (up_map, lo_map) if is_upper else (lo_map, up_map)
            anchor, cut = other[f][i], target[f][i]
            for _ in range(config.prune_depth):
                if checks_left <= 0 or abs(cut - anchor) <= 1e-12:
                    break
                mid = 0.5 * (anchor + cut)
                trial = {g: (a if g != f else a.copy()) for g, a in other.items()}
                trial[f][i] = mid
                candidate = (build_box(trial, target) if is_upper
                             else build_box(target, trial))
                if candidate is not None and consistent(candidate) == INFEASIBLE:
                    cut = mid
                    last_cut = max(config.prune_budget, 1) - checks_left
                else:
                    anchor = mid
            if cut != target[f][i]:
                old, target[f][i] = target[f][i], cut
                if build_box(lo_map, up_map) is None:
                    target[f][i] = old
    return build_box(lo_map, up_map), last_cut


def _record(truth, box, x, lam, demand, model, length, steps):
    """A window of the given length after steps transitions of the plant
    under the control lam, corrected against exact readings."""
    window = MeasurementWindow(length, model, demand)
    lifted = state_update(wide_start(truth), measure(model, x), model)
    window.push(lifted, measure(model, x))
    for _ in range(steps):
        x = compact_step(truth, x, lam, lam)
        lifted = state_update(lifted_step(lifted, lam, demand, box),
                              measure(model, x), model)
        window.push(lifted, measure(model, x), control=lam)
    return window


def _rejected_walk_then_a_cut():
    """Cell 0's upper corner sits on c_max / v = x_jam and its speed
    interval tops out at the truth, so its lower-end walk is all range
    rejections and leaves the box valid. Cell 1, nearly empty upstream and
    full itself, then has its upper speed cut certified at every one of
    the eight levels."""
    truth = homogeneous_params(2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                               c_max=20.0, alpha=0.9)
    upper = replace(truth, v=np.array([0.5, 0.575]), c_max=np.array([80.0, 20.0]))
    box = ParamBounds(upper=upper, lower=replace(truth, v=np.array([0.425, 0.5])))
    lam = np.array([2.0, 4.0])
    x = np.array([8.0, 40.0, 0.0, 0.0])
    window = _record(truth, box, x, lam, point_demand(lam), full_output(2), 3, 3)
    return window, box, replace(DEEP, prune_depth=8, prune_budget=60)


def _corner_breaking_cut_then_a_later_cut():
    """Both cells' upper corners sit on c_max / v = x_jam, so the certified
    cut of v[0]'s upper end would push that corner past the range check.
    The cut is skipped, the box stays valid, and a later coordinate, the
    lower end of c_max[1], still gets its cut certified."""
    truth = homogeneous_params(2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                               c_max=20.0, alpha=0.9)
    upper = replace(truth, v=np.full(2, 0.575), w=np.full(2, 0.2),
                    c_max=np.full(2, 0.575 * 160.0))
    box = ParamBounds(upper=upper, lower=replace(truth, c_max=np.full(2, 15.0)))
    lam = np.array([2.0, 2.0])
    x = np.array([30.0, 40.0, 0.0, 0.0])
    window = _record(truth, box, x, lam, point_demand(lam), full_output(2), 2, 2)
    return window, box, replace(DEEP, prune_depth=4, prune_budget=48)


# a corner put on a range boundary, just inside it, or well inside
_EDGE = st.sampled_from([0.0, 1e-13, 1e-9, 0.02])


@st.composite
def contraction_cases(draw):
    """A recorded window of a simulated plant and a parameter box.

    The speed interval is never a point, so cuts get certified; the other
    fields are mostly points, so the budget often reaches the speeds. Some
    cells sit on v + w = 1, and some on c_max / v = x_jam at the upper or
    the lower corner. There, probes that lower v or x_jam, or raise c_max,
    fail the range checks partway through a walk. Every eighth box or so is
    moved off the truth in v, so that the whole box may be certified away.
    """
    n = draw(st.integers(2, 4))

    def cells(lo, hi, size=n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    def some_cells():
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))

    v, w, alpha = cells(0.3, 0.6), cells(0.1, 0.3), cells(0.8, 1.0)
    beta, x_jam = cells(0.7, 0.95, n - 1), cells(150.0, 170.0)
    c_max = v * x_jam * cells(0.15, 0.35)
    truth = FreewayParams(beta=beta, v=v, w=w, x_jam=x_jam, c_max=c_max,
                          alpha=alpha, u_max=np.full(n, 40.0))

    def spread(x, lo, hi, widths=((0.0, 0.0),) * 3 + ((0.02, 0.01), (0.1, 0.15))):
        below, above = draw(st.sampled_from(widths))
        return np.clip(x - below * x, lo, None), np.clip(x + above * x, None, hi)

    b_lo, b_up = spread(beta, 0.01, 0.99)
    # per cell: the truth at the bottom, the top or inside the speed interval
    v_widths = np.array([draw(st.sampled_from([(0.0, 0.15), (0.15, 0.0), (0.05, 0.05),
                                               (0.1, 0.15), (0.3, 0.2)]))
                         for _ in range(n)])
    v_lo = np.clip(v - v_widths[:, 0] * v, 0.05, None)
    v_up = np.clip(v + v_widths[:, 1] * v, None, 0.95)
    w_lo, w_up = spread(w, 0.02, 1.0)
    j_lo, j_up = spread(x_jam, 1.0, None)
    c_lo, c_up = spread(c_max, 0.1, None)
    a_lo, a_up = spread(alpha, 0.05, 1.0)
    w_up = np.where(some_cells(), np.maximum(1.0 - v_up - draw(_EDGE), w),
                    np.minimum(w_up, 1.0 - v_up))
    c_up = np.where(some_cells(), np.maximum(v_up * j_up * (1.0 - draw(_EDGE)), c_max),
                    c_up)
    j_lo = np.where(some_cells(), c_lo / (v_lo * (1.0 - draw(_EDGE))), j_lo)
    try:
        box = ParamBounds(
            upper=FreewayParams(beta=b_up, v=v_up, w=w_up, x_jam=j_up, c_max=c_up,
                                alpha=a_up, u_max=truth.u_max),
            lower=FreewayParams(beta=b_lo, v=v_lo, w=w_lo, x_jam=j_lo, c_max=c_lo,
                                alpha=a_lo, u_max=truth.u_max))
    except ValueError:
        assume(False)

    lam = truth.c_max * cells(0.0, 0.3)
    margin = draw(st.sampled_from([0.0, 0.0, 0.05]))
    demand = DemandBounds(upper=lam * (1.0 + margin), lower=lam * (1.0 - margin))
    mask = np.array(draw(st.one_of(
        st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n))))
    # mostly free flow, where consecutive readings pin the speeds down
    x = np.concatenate([truth.x_crit * cells(0.2, 1.2), cells(0.0, 10.0)])
    window = _record(truth, box, x, lam, demand, OutputModel(mask, np.ones(n)),
                     draw(st.sampled_from(range(1, 5))), draw(st.sampled_from(range(6))))

    if draw(st.integers(0, 7)) == 0:
        shifted = v_up + 0.15
        box = ParamBounds(upper=replace(box.upper, v=shifted + 0.05,
                                        w=np.minimum(w_up, 0.05)),
                          lower=replace(box.lower, v=shifted,
                                        w=np.minimum(w_lo, 0.05)))
    # the budget is the whole-box check, some full walks and part of one,
    # so it often runs out in the middle of the sweep
    depth = draw(st.sampled_from(range(11)))
    budget = 1 + depth * draw(st.integers(0, 6)) + draw(st.integers(0, depth))
    config = replace(DEEP, prune_budget=min(budget, 60), prune_depth=depth)
    return window, box, config


def _assert_same_contraction(window, box, config):
    """Both walks give equal corner arrays or the same violation; returns
    the reference's smallest budget for its box."""
    try:
        reference, last_cut = _theta_update_one_by_one(window, box, config)
    except ContainmentViolation as err:
        with pytest.raises(ContainmentViolation) as batched:
            theta_update(window, box, config)
        assert str(batched.value) == str(err)
        return None
    batched = theta_update(window, box, config)
    for corner in ("lower", "upper"):
        for field in ("beta", "v", "w", "x_jam", "c_max", "alpha"):
            assert np.array_equal(getattr(getattr(batched, corner), field),
                                  getattr(getattr(reference, corner), field))
    return last_cut


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=contraction_cases())
@example(case=_rejected_walk_then_a_cut())
@example(case=_corner_breaking_cut_then_a_later_cut())
def test_batched_theta_update_equals_the_one_by_one_walk(case):
    window, box, config = case
    last_cut = _assert_same_contraction(window, box, config)
    # again with the budget spent exactly at the last certified cut: a check
    # charged that the reference does not charge now loses that cut
    if last_cut is not None and last_cut < config.prune_budget:
        _assert_same_contraction(window, box, replace(config, prune_budget=last_cut))


def test_theta_update_returns_its_input_when_no_bound_moves(
        stretch, demand_box, transient_start):
    box = speed_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    assert theta_update(window, box, replace(DEEP, prune_budget=1)) is box
    point = ParamBounds(stretch, stretch)
    assert theta_update(window, point, DEEP) is point
    assert theta_update(window, box, DEEP) is not box


def _spied_theta_update(monkeypatch, window, box, config):
    """theta_update with the stack size of every ``_certified`` call and
    the spines of every ``_certify_spines`` call recorded, each spine as
    (field, cell, is_upper, length)."""
    stacks, spines = [], []
    certified, certify_spines = estimators._certified, estimators._certify_spines

    def count_stack(window, pair, tol):
        dead = certified(window, pair, tol)
        stacks.append(dead.size)
        return dead

    def count_spines(window, up_map, lo_map, template, batch, *rest):
        spines.append([(s.field, s.cell, s.is_upper, s.length) for s in batch])
        return certify_spines(window, up_map, lo_map, template, batch, *rest)

    monkeypatch.setattr(estimators, "_certified", count_stack)
    monkeypatch.setattr(estimators, "_certify_spines", count_spines)
    return theta_update(window, box, config), stacks, spines


def _ends(field, cells):
    """(field, cell, is_upper) of the upper, then the lower end of each cell."""
    return [(field, i, is_upper) for i in cells for is_upper in (True, False)]


def _alpha_box(stretch, v_upper=None):
    """The capacity drop never engages in this free-flow window, so no probe
    of an alpha interval is certified."""
    upper = replace(stretch, alpha=np.full(4, 1.0))
    if v_upper is not None:
        upper = replace(upper, v=np.asarray(v_upper, dtype=float))
    return ParamBounds(upper=upper, lower=replace(stretch, alpha=np.full(4, 0.8)))


def test_one_stacked_propagation_certifies_the_whole_sweep(
        monkeypatch, stretch, demand_box, transient_start):
    box = _alpha_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    out, stacks, spines = _spied_theta_update(
        monkeypatch, window, box, replace(DEEP, prune_budget=48, prune_depth=6))
    assert out is box
    # the whole box, then the spines of the eight ends the 47 checks left
    # reach, one row per check: seven of six probes and one of five
    assert stacks == [1 + 47]
    assert spines == [[(*end, 6) for end in _ends("alpha", range(4))[:7]]
                      + [("alpha", 3, False, 5)]]


def test_an_applied_cut_stacks_the_rest_of_the_sweep_again(
        monkeypatch, stretch, demand_box, transient_start):
    box = _alpha_box(stretch, v_upper=[0.7, 0.5, 0.5, 0.5])
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    out, stacks, spines = _spied_theta_update(
        monkeypatch, window, box, replace(DEEP, prune_budget=48, prune_depth=6))
    assert out.upper.v[0] < 0.7 and out.lower.v[0] == 0.5
    assert np.array_equal(out.upper.alpha, box.upper.alpha)
    assert np.array_equal(out.lower.alpha, box.lower.alpha)
    # every probe of v[0]'s upper walk certifies, so each ends its spine and
    # the walk goes on from a new one; its applied cut then stacks the ends
    # after it once more from the new box, with the 41 checks left
    alpha = _ends("alpha", range(4))
    assert stacks == [1 + 47, 5, 4, 3, 2, 1, 41]
    assert spines == ([[(*end, 6) for end in (_ends("v", [0]) + alpha)[:7]]
                       + [("alpha", 2, False, 5)]]
                      + [[("v", 0, True, n)] for n in (5, 4, 3, 2, 1)]
                      + [[(*end, 6) for end in ([("v", 0, False)] + alpha)[:6]]
                         + [("alpha", 2, False, 5)]])


def test_deep_walks_fit_one_stacked_propagation(
        monkeypatch, stretch, demand_box, transient_start):
    box = _alpha_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    out, stacks, spines = _spied_theta_update(
        monkeypatch, window, box, replace(DEEP, prune_budget=48, prune_depth=8))
    assert out is box
    # each walk spends up to eight checks, so the 47 left reach six ends,
    # the last with the seven checks the five before it leave
    assert stacks == [1 + 47]
    alpha = _ends("alpha", range(4))
    assert spines == [[(*end, 8) for end in alpha[:5]] + [(*alpha[5], 7)]]


def test_a_certified_probe_ends_its_spine_and_the_walk_goes_on(monkeypatch):
    window, box, config = _rejected_walk_then_a_cut()
    out, stacks, spines = _spied_theta_update(monkeypatch, window, box, config)
    assert out.upper.v[1] < box.upper.v[1]
    # the whole box and six spines of eight probes; cell 0's lower-end walk
    # is all range rejections and spends nothing. Each of the eight probes
    # of v[1]'s upper walk certifies, so the walk goes on from a new spine
    # of the depth left, and its cut stacks the three ends after it again
    assert stacks == [1 + 48, 7, 6, 5, 4, 3, 2, 1, 24]
    assert spines == ([[(*end, 8) for end in _ends("v", [0, 1]) + _ends("c_max", [0])]]
                      + [[("v", 1, True, n)] for n in range(7, 0, -1)]
                      + [[("v", 1, False, 8), ("c_max", 0, True, 8), ("c_max", 0, False, 8)]])


def test_estimator_config_validates_its_fields():
    with pytest.raises(ValueError, match="backward_horizon"):
        replace(DEEP, backward_horizon=0)
    with pytest.raises(ValueError, match="nonnegative"):
        replace(DEEP, prune_budget=-1)


# ------------------------------------------------------ closing the loop


def test_partial_measurement_loop_keeps_the_truth_enclosed(
        stretch, demand_box, transient_start):
    model = OutputModel(np.array([True, False, True, False]), np.ones(4))
    box = speed_box(stretch, lo=0.42, hi=0.58)
    window = MeasurementWindow(4, model, demand_box)
    x = transient_start
    lifted = state_update(wide_start(stretch), measure(model, x), model)
    window.push(lifted, measure(model, x))
    lam = demand_box.upper
    for _ in range(8):
        x = compact_step(stretch, x, lam, lam)
        predicted = lifted_step(lifted, lam, demand_box, box)
        lifted = state_update(predicted, measure(model, x), model)
        window.push(lifted, measure(model, x), control=lam)
        assert lifted.contains(x)
    out = theta_update(window, box,
                       replace(DEEP, prune_depth=5, prune_budget=120))
    assert np.all(out.lower.v <= stretch.v + 1e-9)
    assert np.all(out.upper.v >= stretch.v - 1e-9)
    assert np.all(out.lower.v >= box.lower.v - 1e-12)
    assert np.all(out.upper.v <= box.upper.v + 1e-12)
