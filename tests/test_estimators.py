"""Set-membership updates: collapse rules, contraction soundness, free-flow
identification oracles, and the window plumbing they share."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rampflow.ctm import (FreewayParams, Observation, OutputModel,
                          compact_step, equilibrium_uncongested,
                          homogeneous_params, measure)
from rampflow.embedding import DemandBounds, LiftedState, ParamBounds, lifted_step
from rampflow.estimators import (CELL_DEGENERATE, CELL_EXACT,
                                 CELL_UNIDENTIFIED, FEASIBLE, INFEASIBLE,
                                 UNKNOWN, ContainmentViolation,
                                 EstimatorConfig, MeasurementWindow,
                                 RankDeficient, adopt_identified,
                                 freeflow_identify,
                                 full_identify_sweep, interval_consistency,
                                 state_update, theta_update)


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
        predicted = lifted_step(lifted, u, demand_box, box, check=False)
        lifted = state_update(predicted, measure(model, x), model)
        window.push(lifted, measure(model, x), control=u)
        truth.append(x)
    return window, truth


@pytest.fixture
def demand_box(nominal_demand):
    return DemandBounds.point(nominal_demand)


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
    model = OutputModel.full(4)
    predicted = LiftedState(upper=np.full(8, 10.0), lower=np.full(8, 1.0))
    high = np.concatenate([np.array([11.0, 5.0, 5.0, 5.0]), np.full(4, 5.0)])
    with pytest.raises(ContainmentViolation, match="mainline cell 0"):
        state_update(predicted, measure(model, high), model)
    low_queue = np.concatenate([np.full(4, 5.0), np.array([5.0, 0.0, 5.0, 5.0])])
    with pytest.raises(ContainmentViolation, match="ramp queue 1"):
        state_update(predicted, measure(model, low_queue), model)


def test_state_update_rejects_a_missing_measured_reading():
    model = OutputModel.full(2)
    predicted = LiftedState(upper=np.full(4, 10.0), lower=np.zeros(4))
    broken = Observation(y_main=np.array([np.nan, 3.0]), y_ramp=np.zeros(2))
    with pytest.raises(ValueError, match="missing"):
        state_update(predicted, broken, model)


# --------------------------------------------------------------- window


def test_window_rolls_and_keeps_transitions_aligned(stretch, demand_box):
    model = OutputModel.full(4)
    window = MeasurementWindow(2, model, demand_box)
    states = [np.full(8, float(k)) for k in range(5)]
    window.push(LiftedState.degenerate(states[0]), measure(model, states[0]))
    assert not window.full
    for k, x in enumerate(states[1:], start=1):
        window.push(LiftedState.degenerate(x), measure(model, x),
                    control=np.full(4, float(k)))
    assert window.full and len(window) == 3
    assert [c[0] for c in window.controls] == [3.0, 4.0]
    assert window.lifted_boxes[0].upper[0] == 2.0


def test_window_rejects_a_transition_without_its_control(stretch, demand_box):
    model = OutputModel.full(4)
    window = MeasurementWindow(3, model, demand_box)
    x = np.zeros(8)
    window.push(LiftedState.degenerate(x), measure(model, x))
    with pytest.raises(ValueError, match="control of the transition"):
        window.push(LiftedState.degenerate(x), measure(model, x))


# ---------------------------------------------------------- consistency


def test_point_truth_window_reads_feasible(stretch, demand_box, transient_start):
    box = ParamBounds.point(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             OutputModel.full(4), demand_box)
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
                                 OutputModel.full(4), demand_box)
        verdict = interval_consistency(box, window)
        assert verdict in (UNKNOWN, FEASIBLE)


def test_box_excluding_the_truth_is_certified_infeasible(
        stretch, demand_box, transient_start):
    window, _ = drive_window(stretch, ParamBounds.point(stretch),
                             transient_start, 3, OutputModel.full(4), demand_box)
    away = speed_box(stretch, lo=0.75, hi=0.8)
    verdict = interval_consistency(away, window)
    assert verdict == INFEASIBLE


# ---------------------------------------------------------------- theta


def test_theta_update_collapses_onto_the_free_flow_speed(
        stretch, demand_box, transient_start):
    box = speed_box(stretch)
    window, truth = drive_window(stretch, box, transient_start, 3,
                                 OutputModel.full(4), demand_box)
    config = EstimatorConfig(backward_horizon=3, prune_depth=16,
                             prune_budget=512)
    out = theta_update(window, box, config)
    block = np.array([x[:4] for x in truth])
    report = full_identify_sweep(block, demand_box.upper)
    assert report.all_exact
    mid = 0.5 * (out.lower.v + out.upper.v)
    assert np.all(np.abs(mid - report.v) <= 1e-3)
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
        window, _ = drive_window(truth, box, x0, 4, OutputModel.full(4),
                                 demand_box)
        out = theta_update(window, box,
                           EstimatorConfig(prune_depth=6, prune_budget=150))
        for field, true_vec in (("v", v_true), ("beta", beta_true)):
            lo_in, up_in = getattr(lower, field), getattr(upper, field)
            lo_out, up_out = getattr(out.lower, field), getattr(out.upper, field)
            assert np.all(lo_out >= lo_in - 1e-12)
            assert np.all(up_out <= up_in + 1e-12)
            assert np.all(lo_out <= true_vec + 1e-9)
            assert np.all(up_out >= true_vec - 1e-9)


def test_theta_update_leaves_a_point_box_unchanged(
        stretch, demand_box, transient_start):
    box = ParamBounds.point(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             OutputModel.full(4), demand_box)
    out = theta_update(window, box)
    for field in ("beta", "v", "w", "x_jam", "c_max", "alpha"):
        assert np.array_equal(getattr(out.lower, field), getattr(stretch, field))
        assert np.array_equal(getattr(out.upper, field), getattr(stretch, field))


def test_theta_update_raises_when_no_parameter_fits(
        stretch, demand_box, transient_start):
    window, _ = drive_window(stretch, ParamBounds.point(stretch),
                             transient_start, 3, OutputModel.full(4), demand_box)
    away = speed_box(stretch, lo=0.75, hi=0.8)
    with pytest.raises(ContainmentViolation, match="window"):
        theta_update(window, away)


def test_theta_update_respects_the_check_budget(
        stretch, demand_box, transient_start):
    box = speed_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             OutputModel.full(4), demand_box)
    out = theta_update(window, box, EstimatorConfig(prune_budget=1))
    assert np.array_equal(out.lower.v, box.lower.v)
    assert np.array_equal(out.upper.v, box.upper.v)


def test_relaxed_jam_mode_never_touches_the_jam_interval(
        stretch, demand_box, transient_start):
    n = stretch.n_cells
    lower = FreewayParams(beta=stretch.beta, v=np.full(n, 0.3), w=stretch.w,
                          x_jam=np.full(n, 150.0), c_max=stretch.c_max,
                          alpha=stretch.alpha, u_max=stretch.u_max)
    upper = FreewayParams(beta=stretch.beta, v=np.full(n, 0.7), w=stretch.w,
                          x_jam=np.full(n, 170.0), c_max=stretch.c_max,
                          alpha=stretch.alpha, u_max=stretch.u_max)
    box = ParamBounds(upper=upper, lower=lower)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             OutputModel.full(4), demand_box)
    out = theta_update(window, box,
                       EstimatorConfig(prune_depth=8, prune_budget=300,
                                       relax_jam=True))
    assert np.array_equal(out.lower.x_jam, lower.x_jam)
    assert np.array_equal(out.upper.x_jam, upper.x_jam)
    assert np.all(out.upper.v - out.lower.v < 0.4)


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
              if not (config.relax_jam and f == "x_jam")
              for i in range(lo_map[f].shape[0])
              if up_map[f][i] - lo_map[f][i] > 1e-12]
    applied = []
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
                applied.append((f, i, is_upper, cut))
                target[f][i] = cut
    result = build_box(lo_map, up_map)
    if result is not None:
        return result, last_cut
    lo_map, up_map = corner_maps(param_bounds)
    for f, i, is_upper, value in applied:
        target = up_map if is_upper else lo_map
        old = target[f][i]
        target[f][i] = value
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
        lifted = state_update(lifted_step(lifted, lam, demand, box, check=False),
                              measure(model, x), model)
        window.push(lifted, measure(model, x), control=lam)
    return window


def _rejected_walk_then_a_cut():
    """Cell 0's upper corner sits on c_max / v = x_jam and its speed
    interval tops out at the truth, so its lower-end walk is all range
    rejections and leaves the box valid. Cell 1, nearly empty upstream and
    full itself, then has its upper speed cut certified down to the eighth
    level, past one batch of the tree."""
    truth = homogeneous_params(2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                               c_max=20.0, alpha=0.9)
    upper = replace(truth, v=np.array([0.5, 0.575]), c_max=np.array([80.0, 20.0]))
    box = ParamBounds(upper=upper, lower=replace(truth, v=np.array([0.425, 0.5])))
    lam = np.array([2.0, 4.0])
    x = np.array([8.0, 40.0, 0.0, 0.0])
    window = _record(truth, box, x, lam, DemandBounds.point(lam), OutputModel.full(2), 3, 3)
    return window, box, EstimatorConfig(prune_depth=8, prune_budget=60)


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
    config = EstimatorConfig(prune_budget=min(budget, 60), prune_depth=depth,
                             relax_jam=draw(st.booleans()))
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
                             OutputModel.full(4), demand_box)
    assert theta_update(window, box, EstimatorConfig(prune_budget=1)) is box
    point = ParamBounds.point(stretch)
    assert theta_update(window, point) is point
    assert theta_update(window, box, EstimatorConfig(prune_depth=8)) is not box


def test_estimator_config_validates_its_fields():
    with pytest.raises(ValueError, match="backward_horizon"):
        EstimatorConfig(backward_horizon=0)
    with pytest.raises(ValueError, match="nonnegative"):
        EstimatorConfig(prune_budget=-1)


# ------------------------------------------------------- identification


def test_first_cell_speed_from_two_readings():
    beta, v = freeflow_identify([30.0, 34.17], 19.17)
    assert beta is None
    assert abs(v - 0.5) <= 1e-12


def test_downstream_pair_from_three_readings():
    beta, v = freeflow_identify([20.0, 25.17, 29.6315], 1.67,
                                x_upstream=[30.0, 34.17], v_upstream=0.5)
    assert abs(beta - 0.9) <= 1e-9
    assert abs(v - 0.5) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(v=st.floats(0.05, 1.0), x0=st.floats(1.0, 100.0), lam=st.floats(0.0, 30.0))
def test_first_cell_identification_inverts_the_free_flow_map(v, x0, lam):
    x1 = x0 + lam - v * x0
    _, recovered = freeflow_identify([x0, x1], lam)
    assert abs(recovered - v) <= 1e-10


def test_sweep_inverts_a_simulated_transient(stretch):
    rng = np.random.default_rng(11)
    lam = np.array([5.0, 1.0, 1.0, 1.0])
    for _ in range(5):
        truth = FreewayParams(beta=rng.uniform(0.6, 0.95, 3),
                              v=rng.uniform(0.3, 0.6, 4), w=stretch.w,
                              x_jam=stretch.x_jam, c_max=stretch.c_max,
                              alpha=stretch.alpha, u_max=stretch.u_max)
        x_unc = equilibrium_uncongested(truth, lam)
        x = np.concatenate([0.5 * x_unc, np.zeros(4)])
        rows = [x[:4]]
        for _ in range(3):
            x = compact_step(truth, x, lam, lam)
            rows.append(x[:4])
        report = full_identify_sweep(np.array(rows), lam)
        assert report.all_exact
        assert np.allclose(report.v, truth.v, atol=1e-9)
        assert np.allclose(report.beta, truth.beta, atol=1e-9)


def test_sweep_is_exact_within_three_steps_of_terminal_entry(
        stretch, nominal_demand):
    # a generic entry state: at or below the per-cell invariant caps, not
    # uniform (uniform occupancies over identical cells move in lockstep
    # and are genuinely unidentifiable)
    x = np.concatenate([np.array([40.0, 37.0, 39.0, 35.0]), np.zeros(4)])
    rows = [x[:4]]
    for _ in range(2):
        x = compact_step(stretch, x, nominal_demand, nominal_demand)
        rows.append(x[:4])
    report = full_identify_sweep(np.array(rows), nominal_demand)
    assert report.all_exact
    assert np.allclose(report.v, stretch.v, atol=1e-9)
    assert np.allclose(report.beta, stretch.beta, atol=1e-9)


def test_sweep_stops_the_cascade_at_a_masked_detector(
        stretch, nominal_demand, transient_start):
    x = transient_start
    rows = [x[:4]]
    for _ in range(3):
        x = compact_step(stretch, x, nominal_demand, nominal_demand)
        rows.append(x[:4])
    block = np.array(rows)
    block[:, 2] = np.nan
    report = full_identify_sweep(block, nominal_demand)
    assert report.status == (CELL_EXACT, CELL_EXACT,
                             CELL_UNIDENTIFIED, CELL_UNIDENTIFIED)
    assert np.allclose(report.v[:2], stretch.v[:2], atol=1e-9)
    assert np.isnan(report.v[2]) and np.isnan(report.beta[1])


def test_sweep_flags_an_empty_cell_degenerate(
        stretch, nominal_demand, transient_start):
    x = transient_start
    rows = [x[:4]]
    for _ in range(3):
        x = compact_step(stretch, x, nominal_demand, nominal_demand)
        rows.append(x[:4])
    block = np.array(rows)
    block[:, 1] = 0.0
    report = full_identify_sweep(block, nominal_demand)
    assert report.status[1] == CELL_DEGENERATE
    assert report.status[2] == CELL_UNIDENTIFIED


def test_equilibrium_readings_are_rank_deficient(stretch, nominal_demand):
    x_unc = equilibrium_uncongested(stretch, nominal_demand)
    with pytest.raises(RankDeficient, match="proportional|singular"):
        freeflow_identify([x_unc[1]] * 3, nominal_demand[1],
                          x_upstream=[x_unc[0]] * 2, v_upstream=0.5)
    with pytest.raises(RankDeficient, match="empty"):
        freeflow_identify([0.0, 5.0], 5.0)


def test_identification_rejects_non_free_flow_readings():
    with pytest.raises(ValueError, match="free.flow|free flow"):
        freeflow_identify([30.0, 34.17, 50.0], 19.17)
    with pytest.raises(ValueError, match="free flow"):
        freeflow_identify([30.0, 52.0], 19.17)


def test_adopt_identified_pins_the_parameter_box(stretch, nominal_demand,
                                                 transient_start):
    x = transient_start
    rows = [x[:4]]
    for _ in range(3):
        x = compact_step(stretch, x, nominal_demand, nominal_demand)
        rows.append(x[:4])
    report = full_identify_sweep(np.array(rows), nominal_demand)
    box = speed_box(stretch)
    adopted = adopt_identified(box, report)
    assert np.array_equal(adopted.lower.v, adopted.upper.v)
    assert np.array_equal(adopted.lower.beta, adopted.upper.beta)
    assert np.allclose(adopted.lower.v, stretch.v, atol=1e-12)
    assert np.allclose(adopted.lower.beta, stretch.beta, atol=1e-12)
    narrow = speed_box(stretch, lo=0.55, hi=0.6)
    with pytest.raises(ContainmentViolation, match="identified v"):
        adopt_identified(narrow, report)


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
        predicted = lifted_step(lifted, lam, demand_box, box, check=False)
        lifted = state_update(predicted, measure(model, x), model)
        window.push(lifted, measure(model, x), control=lam)
        assert lifted.contains(x)
    out = theta_update(window, box,
                       EstimatorConfig(prune_depth=5, prune_budget=120))
    assert np.all(out.lower.v <= stretch.v + 1e-9)
    assert np.all(out.upper.v >= stretch.v - 1e-9)
    assert np.all(out.lower.v >= box.lower.v - 1e-12)
    assert np.all(out.upper.v <= box.upper.v + 1e-12)
