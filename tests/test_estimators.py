"""Set-membership updates: collapse rules, contraction soundness, free-flow
identification oracles, and the window plumbing they share."""

import numpy as np
import pytest
from hypothesis import given, settings
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
