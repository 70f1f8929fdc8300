"""Set-membership updates: collapse rules, contraction soundness, and the
window plumbing they share."""

import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rampflow import controllers, estimators, harness
from rampflow.ctm import (FreewayParams, Observation, OutputModel,
                          compact_step, equilibrium_uncongested, measure)
from rampflow.embedding import (PARAM_FIELDS, DemandBounds, LiftedState, ParamBounds,
                                _clamped_step, _pair, lifted_step)
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
        predicted = lifted_step(lifted, u, demand_box, box.pair)
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


# every cell measured (readings at a slice), and cell 1 without a detector
# (readings at indices)
MODELS = [full_output(4), OutputModel(np.array([True, False, True, True]), np.ones(4))]


def test_state_update_rejects_readings_outside_the_box():
    """The violation names the cell or queue whose reading is outside, with
    the readings at a slice and at indices."""
    predicted = LiftedState(upper=np.full(8, 10.0), lower=np.full(8, 1.0))
    for model in MODELS:
        for cell in (0, 2):
            high = np.full(8, 5.0)
            high[cell] = 11.0
            with pytest.raises(ContainmentViolation, match=f"mainline cell {cell}:"):
                state_update(predicted, measure(model, high), model)
        for queue in (1, 3):
            low_queue = np.full(8, 5.0)
            low_queue[4 + queue] = 0.0
            with pytest.raises(ContainmentViolation, match=f"ramp queue {queue}:"):
                state_update(predicted, measure(model, low_queue), model)


def test_state_update_rejects_a_missing_measured_reading():
    model = full_output(2)
    predicted = LiftedState(upper=np.full(4, 10.0), lower=np.zeros(4))
    broken = Observation(y_main=np.array([np.nan, 3.0]), y_ramp=np.zeros(2))
    with pytest.raises(ValueError, match="missing"):
        state_update(predicted, broken, model)
    # every queue is measured, so a queue without a reading is refused too
    broken = Observation(y_main=np.array([2.0, 3.0]), y_ramp=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="a ramp queue is missing its reading"):
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


@pytest.mark.parametrize("model", MODELS, ids=["slice", "indices"])
def test_push_keeps_and_returns_the_corrected_box(monkeypatch, model, demand_box):
    """push returns the box ``state_update`` corrects, stores it with the
    clipped readings on both rows (cell 0 reads just above the box, within
    tolerance), stores the same bracket when the corrected box is pushed
    again, and refuses a reading outside the box with ``state_update``'s
    message before it appends anything."""
    predicted = LiftedState(upper=np.full(8, 40.0), lower=np.full(8, 1.0))
    x = np.array([40.0 + 1e-10, 25.0, 20.0, 15.0, 1.0, 2.0, 3.0, 4.0])
    y = measure(model, x)
    returned, correct = [], estimators.state_update

    def spy(*args, **kwargs):
        returned.append(correct(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(estimators, "state_update", spy)
    window = MeasurementWindow(3, model, demand_box)
    corrected = window.push(predicted, y)
    assert len(returned) == 1 and corrected is returned[0]
    expected = correct(predicted, y, model)
    assert np.array_equal(corrected.upper, expected.upper)
    assert np.array_equal(corrected.lower, expected.lower)
    idx, vals = estimators._measured(y, model)
    clipped = np.clip(vals, predicted.lower[idx], predicted.upper[idx])
    assert clipped[0] == 40.0
    (record,) = window._records
    assert np.array_equal(record.bracket, np.array([corrected.upper, corrected.lower]))
    assert np.array_equal(record.bracket[0][idx], clipped)
    assert np.array_equal(record.bracket[1][idx], clipped)
    window.push(corrected, y, control=np.zeros(4))
    assert np.array_equal(window._records[-1].bracket, record.bracket)
    outside = x.copy()
    outside[2] = 50.0
    with pytest.raises(ContainmentViolation) as direct:
        correct(predicted, measure(model, outside), model)
    with pytest.raises(ContainmentViolation, match=re.escape(str(direct.value))):
        window.push(predicted, measure(model, outside), control=np.zeros(4))
    assert len(window) == 2


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


def _one_box_dead(window, pair):
    """The certificate of one box written out step by step: the measured
    entries are gathered and scattered through index arrays, every
    exclusion is reduced where it is found, and after each step's test a
    measured entry restarts from its reading clipped into the record's own
    enclosure."""
    tol = estimators.CONSISTENCY_TOL
    model = window.output_model
    n = model.mainline_mask.shape[0]
    lam = np.array([window.demand.upper, window.demand.lower])

    def readings(y):
        cells = np.flatnonzero(model.mainline_mask & np.isfinite(y.y_main))
        idx = np.concatenate([cells, n + np.arange(n)])
        return idx, np.concatenate([y.y_main[cells] / model.c_diag[cells], y.y_ramp])

    def misread(x, record):
        idx, vals = readings(record.observation)
        return np.any(vals < x[1, idx] - tol) or np.any(vals > x[0, idx] + tol)

    def restart(x, record):
        idx, vals = readings(record.observation)
        upper, lower = record.bracket
        x[:, idx] = np.minimum(np.maximum(vals, lower[idx]), upper[idx])

    first, *later = window._records
    x = first.bracket.copy()
    dead = misread(x, first)
    restart(x, first)
    for record in later:
        x = _clamped_step(x, record.control, lam, pair)
        upper, lower = record.bracket
        dead = dead or np.any(x[1] > upper + tol) or np.any(lower > x[0] + tol)
        x[0] = np.minimum(x[0], upper)
        x[1] = np.maximum(x[1], lower)
        x[0] = np.maximum(x[0], x[1])
        dead = misread(x, record) or dead
        restart(x, record)
    return bool(dead)


def _rows_dead(window, pair):
    """``_one_box_dead`` of every row of a stacked pair, each row alone, or
    of a box's pair."""
    fields = vars(pair.primary)
    if pair.terms.ceiling.ndim == 2:
        return np.array(_one_box_dead(window, pair))
    return np.array([
        _one_box_dead(window, _pair({f: a[:, row if a.shape[1] > 1 else 0]
                                     for f, a in fields.items()}))
        for row in range(pair.terms.ceiling.shape[1])])


@pytest.mark.parametrize("model", MODELS, ids=["slice", "indices"])
def test_a_stacked_certificate_is_each_box_propagated_alone(
        model, stretch, demand_box, transient_start):
    """The speed walks' probes of every end, stacked behind the whole box,
    get from ``_certified`` the verdicts each of them gets propagated alone,
    by ``_certified`` and by the certificate written out with index arrays,
    whether the records keep their readings at a slice or at indices: on
    the enclosures of the corrector loop, and on boxes as wide as the
    start. The window corrects those on push, so with every cell measured
    they come out as the loop's enclosures; with cell 1 unmeasured its
    enclosure stays as wide as the start, and only the readings of the
    other cells certify through it."""
    box = speed_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 4, model, demand_box)
    wide = MeasurementWindow(4, model, demand_box)
    start = wide_start(stretch)
    for record in window._records:
        wide.push(start, record.observation, control=record.control)
    measured = np.concatenate([model.mainline_mask, np.ones(4, dtype=bool)])
    for kept, pushed in zip(window._records, wide._records):
        assert np.array_equal(pushed.bracket[:, measured], kept.bracket[:, measured])
        assert np.array_equal(pushed.bracket[:, ~measured],
                              np.array([start.upper, start.lower])[:, ~measured])
    kind = slice if model.mainline_mask.all() else np.ndarray
    assert all(isinstance(r.readings[0], kind) for r in window._records)
    fields = vars(box.pair.primary)
    spines = [estimators._Spine("v", i, is_upper,
                                *estimators._interval(fields, "v", i, is_upper), 6)
              for i in range(4) for is_upper in (True, False)]
    stack = estimators._probe_stack(fields, spines, True)
    for recorded in (window, wide):
        dead = estimators._certified(recorded, stack.pair, {})
        assert dead.shape == (49,) and 0 < np.count_nonzero(dead) < 48
        assert np.array_equal(dead, _rows_dead(recorded, stack.pair))
        for row in range(49):
            alone = _pair({f: a[:, row if a.shape[1] > 1 else 0]
                           for f, a in vars(stack.pair.primary).items()})
            assert estimators._certified(recorded, alone, {}) == dead[row]


@pytest.mark.parametrize("v1", [0.45, 0.55], ids=["slow", "fast"])
def test_each_enclosure_bounds_the_next_step_from_both_sides(v1):
    """Cell 1 carries no detector. Its speed is wrong: too slow puts the
    next density above the truth, too fast below it, but only from the
    true density, not from the whole jam interval the window starts with.
    The certificate needs the middle record's enclosure to cut the
    propagated interval from below (slow) and from above (fast); with that
    enclosure left as wide as the start, the same speed passes."""
    truth = homogeneous_params(2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                               c_max=20.0, alpha=0.9)
    model, lam = OutputModel(np.array([True, False]), np.ones(2)), np.array([2.0, 4.0])
    states = [np.array([8.0, 20.0, 0.0, 0.0])]
    for _ in range(2):
        states.append(compact_step(truth, states[-1], lam, lam))

    def window(pinned):
        window = MeasurementWindow(2, model, point_demand(lam))
        for k, x in enumerate(states):
            box = point_state(x)
            if k == 0 or (k == 1 and not pinned):
                box.upper[1], box.lower[1] = truth.x_jam[1], 0.0
            window.push(box, measure(model, x), control=lam if k else None)
        return window

    wrong = replace(truth, v=np.array([0.5, v1]))
    assert interval_consistency(ParamBounds(wrong, wrong), window(True)) == INFEASIBLE
    assert interval_consistency(ParamBounds(wrong, wrong), window(False)) == FEASIBLE


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
        lifted = state_update(lifted_step(lifted, lam, demand, box.pair),
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
    the spines of every ``_probe_stack`` call recorded, each spine as
    (field, cell, is_upper, length). The window is fresh, so every stack
    the call certifies is built in it."""
    stacks, spines = [], []
    certified, probe_stack = estimators._certified, estimators._probe_stack

    def count_stack(window, pair, rows):
        dead = certified(window, pair, rows)
        stacks.append(dead.size)
        return dead

    def count_spines(box, batch, *rest):
        spines.append([(s.field, s.cell, s.is_upper, s.length) for s in batch])
        return probe_stack(box, batch, *rest)

    monkeypatch.setattr(estimators, "_certified", count_stack)
    monkeypatch.setattr(estimators, "_probe_stack", count_spines)
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
        predicted = lifted_step(lifted, lam, demand_box, box.pair)
        lifted = state_update(predicted, measure(model, x), model)
        window.push(lifted, measure(model, x), control=lam)
        assert lifted.contains(x)
    out = theta_update(window, box,
                       replace(DEEP, prune_depth=5, prune_budget=120))
    assert np.all(out.lower.v <= stretch.v + 1e-9)
    assert np.all(out.upper.v >= stretch.v - 1e-9)
    assert np.all(out.lower.v >= box.lower.v - 1e-12)
    assert np.all(out.upper.v <= box.upper.v + 1e-12)


# --------------------------------------------- the probe stack a box keeps

# starts inside the terminal box with a 5-step window, so every tick after
# the warm-up runs the local law and the contraction does the work
INGEST_TEXT = (harness.PRESETS["fourcell_constant"]
               .replace("backward_horizon 1", "backward_horizon 5")
               .replace("mainline 30 30 30 120", "mainline 30 30 30 30")
               .replace("steps 60", "steps 15"))


def _same_corners(a, b):
    return all(getattr(getattr(a, corner), f).tobytes() == getattr(getattr(b, corner), f).tobytes()
               for corner in ("upper", "lower") for f in PARAM_FIELDS)


def _spied_loop(monkeypatch, scenario):
    """Run the closed loop with every theta_update checked against the same
    call on a copy of the window that holds no entry, so it builds every
    stack afresh: both return the same corners from the same ``_certified``
    calls on the same rows. Returns the log; per tick the input box,
    whether it came back, the first stacks (those with the box in row 0)
    the loop's own call built, and whether that call walked the verdicts;
    and the window's entry after each tick."""
    ticks, entries = [], []
    fresh = [False]
    sizes = {True: [], False: []}
    probe_stack, update = estimators._probe_stack, estimators.theta_update
    certified, verdicts = estimators._certified, estimators._verdicts

    def spy_stack(box, spines, with_box):
        if with_box and not fresh[0]:
            ticks[-1][2] += 1
        return probe_stack(box, spines, with_box)

    def spy_certified(window, pair, rows):
        dead = certified(window, pair, rows)
        sizes[fresh[0]].append(dead.size)
        return dead

    def spy_verdicts(*args):
        if not fresh[0]:
            ticks[-1][3] = True
        return verdicts(*args)

    def spy_update(window, box, config):
        unheld = copy.copy(window)
        unheld._held = None
        sizes[True].clear()
        sizes[False].clear()
        fresh[0] = True
        expected = update(unheld, box, config)
        fresh[0] = False
        ticks.append([box, None, 0, False])
        out = update(window, box, config)
        assert _same_corners(out, expected), len(ticks)
        assert sizes[False] == sizes[True], len(ticks)
        ticks[-1][1] = out is box
        entries.append(window._held)
        return out

    with monkeypatch.context() as m:
        m.setattr(estimators, "_probe_stack", spy_stack)
        m.setattr(estimators, "_certified", spy_certified)
        m.setattr(estimators, "_verdicts", spy_verdicts)
        m.setattr(controllers, "theta_update", spy_update)
        log = harness.run_closed_loop(scenario)
    return log, ticks, entries


# the same loop from a lighter start, where a certified cut falls between
# two runs of standing ticks
STAND_CUT_STAND_TEXT = INGEST_TEXT.replace("mainline 30 30 30 30", "mainline 22 22 22 22")


def test_a_standing_box_reuses_its_first_probe_stack(monkeypatch):
    """Through ticks where the box stands, then takes a certified cut, then
    stands again, theta_update returns on every tick the box a fresh build
    returns, and builds its first stack once per distinct box."""
    log, ticks, entries = _spied_loop(monkeypatch,
                                      harness.parse_scenario(STAND_CUT_STAND_TEXT))
    assert [s.phase for s in log.steps[5:]] == ["local"] * 15
    stood = "".join("S" if kept else "M" for _, kept, _, _ in ticks)
    assert re.search("S{2,}MS{2,}", stood), stood
    builds = [built for _, _, built, _ in ticks]
    new_box = [k == 0 or ticks[k][0] is not ticks[k - 1][0] for k in range(len(ticks))]
    assert builds == [int(new) for new in new_box]
    assert sum(builds) < len(ticks)
    # one entry per run, for the box it is using
    assert all(entry.box is box for entry, (box, kept, _, _) in zip(entries, ticks) if kept)


def test_a_repeated_quiet_pattern_returns_the_box_at_once(monkeypatch):
    """On most standing ticks the kept stack's verdicts repeat a pattern
    whose walk moved nothing and certified no further stack; theta_update
    then returns the same box object without walking, after the same
    ``_certified`` calls on the same rows as a window that holds nothing."""
    _, ticks, _ = _spied_loop(monkeypatch, harness.parse_scenario(INGEST_TEXT))
    quiet = [k for k, (box, kept, built, walked) in enumerate(ticks) if not walked]
    assert all(ticks[k][1] and not ticks[k][2] for k in quiet)
    # a quiet tick repeats what an earlier walk of the same box found
    assert all(k > 0 and ticks[k - 1][0] is ticks[k][0] for k in quiet)
    standing = sum(kept for _, kept, _, _ in ticks[1:])
    assert 2 * len(quiet) > standing > 0


def test_a_walk_that_certified_more_is_walked_again(monkeypatch):
    """v[0]'s upper walk certifies every probe, each on a new stack, and
    its cut is then skipped, so the box stands. The pattern of the kept
    stack is not remembered: the next call on the same window walks and
    certifies the same stacks again."""
    window, box, config = _corner_breaking_cut_then_a_later_cut()
    config = replace(config, prune_budget=5)
    stacks = []
    certified = estimators._certified

    def count_stack(window, pair, rows):
        dead = certified(window, pair, rows)
        stacks.append(dead.size)
        return dead

    monkeypatch.setattr(estimators, "_certified", count_stack)
    for _ in range(2):
        assert theta_update(window, box, config) is box
    assert stacks == [5, 3, 2, 1] * 2 and not window._held.quiet


def test_another_budget_drops_the_held_plan(
        monkeypatch, stretch, demand_box, transient_start):
    """The window keeps the plan of one (prune_budget, prune_depth): a call
    with another budget certifies the stack of its own budget and forgets
    the quiet patterns of the old one."""
    box = _alpha_box(stretch)
    window, _ = drive_window(stretch, box, transient_start, 3,
                             full_output(4), demand_box)
    config = replace(DEEP, prune_budget=48, prune_depth=6)
    assert theta_update(window, box, config) is box
    assert window._held.plan == (48, 6) and len(window._held.quiet) == 1
    stacks = []
    certified = estimators._certified

    def count_stack(window, pair, rows):
        dead = certified(window, pair, rows)
        stacks.append(dead.size)
        return dead

    monkeypatch.setattr(estimators, "_certified", count_stack)
    assert theta_update(window, box, config) is box
    assert theta_update(window, box, replace(config, prune_budget=30)) is box
    assert window._held.plan == (30, 6) and len(window._held.quiet) == 1
    assert theta_update(window, box, config) is box
    assert stacks == [48, 30, 48]


def test_two_closed_loops_share_no_entry_and_write_the_same_csv(monkeypatch, tmp_path):
    scenario = harness.parse_scenario(INGEST_TEXT)
    runs = []
    for k in range(2):
        log, ticks, entries = _spied_loop(monkeypatch, scenario)
        path = harness.emit_csv(log, tmp_path / f"run{k}.csv",
                                meta=harness.scenario_meta(scenario, log))
        runs.append((path.read_bytes(), [built for _, _, built, _ in ticks], entries))
    (first, builds, entries), (second, builds_again, entries_again) = runs
    assert first == second
    # the second loop builds its first stack on its first tick, as the first did
    assert builds == builds_again and builds[0] == 1
    assert not {id(e) for e in entries} & {id(e) for e in entries_again}


# ------------------------------------ the certificate, transition by transition


@st.composite
def certificate_cases(draw):
    """A plant under a constant control, a box around its parameters, a
    window of 1 to 6 transitions that slides 0 to 3 ticks further, a
    detector mask (every cell in about half the draws), a tolerance, the
    bracket entries one kernel call may step (the shipped cap, or one
    transition a call), and a (prune_budget, prune_depth) plan.

    Some cells' upper corner sits on c_max / v = x_jam, so the probes that
    lower that corner's speed or jam fail the range checks. A tolerance
    far above CONSISTENCY_TOL makes the near misses that the restart rule
    settles, which the real tolerance leaves at the scale of rounding,
    large enough to move later verdicts.
    """
    n = draw(st.integers(2, 3))

    def cells(lo, hi, size=n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    v, w, alpha = cells(0.3, 0.6), cells(0.1, 0.3), cells(0.8, 1.0)
    beta, x_jam = cells(0.7, 0.95, n - 1), cells(150.0, 170.0)
    c_max = v * x_jam * cells(0.15, 0.35)
    truth = FreewayParams(beta=beta, v=v, w=w, x_jam=x_jam, c_max=c_max,
                          alpha=alpha, u_max=np.full(n, 40.0))
    v_up = np.minimum(v * (1.0 + cells(0.05, 0.3)), 1.0 - w)
    j_up = x_jam * (1.0 + cells(0.0, 0.05))
    on_edge = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    c_up = np.where(on_edge, v_up * j_up, c_max * (1.0 + cells(0.0, 0.1)))
    box = ParamBounds(
        upper=replace(truth, v=v_up, x_jam=j_up, c_max=c_up),
        lower=replace(truth, v=v * (1.0 - cells(0.05, 0.3)),
                      x_jam=x_jam * (1.0 - cells(0.0, 0.05)),
                      c_max=c_max * (1.0 - cells(0.0, 0.1))))
    lam = truth.c_max * cells(0.0, 0.3)
    margin = draw(st.sampled_from([0.0, 0.05]))
    demand = DemandBounds(upper=lam * (1.0 + margin), lower=lam * (1.0 - margin))
    mask = np.array(draw(st.one_of(
        st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n))))
    x = np.concatenate([truth.x_crit * cells(0.2, 1.2), cells(0.0, 10.0)])
    length, slides = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    tol = draw(st.sampled_from([estimators.CONSISTENCY_TOL, 1e-3, 0.5]))
    entries = draw(st.sampled_from([estimators._STEP_ENTRIES, 1]))
    depth = draw(st.integers(1, 5))
    plan = replace(DEEP, prune_depth=depth, prune_budget=draw(st.integers(depth + 2, 30)))
    return truth, box, x, lam, demand, mask, length, slides, tol, entries, plan


def _near_misses_behind_an_unmeasured_cell():
    """Cell 0 carries no detector and the tolerance is half a vehicle, so
    the probes' propagations miss readings by less than it along a chain
    of six transitions. Each restart then reads the record, not the
    propagation intersected with it, and a later verdict depends on which
    one it reads."""
    truth = replace(homogeneous_params(2, beta=0.75, v=0.5, w=0.25, x_jam=150.0,
                                       c_max=18.75, alpha=1.0),
                    c_max=np.array([11.71875, 18.75]))
    box = ParamBounds(upper=replace(truth, v=np.array([0.625, 0.5625])),
                      lower=replace(truth, v=np.array([0.375, 0.4375])))
    lam = np.array([0.0, 5.2734375])
    return (truth, box, np.array([23.4375, 37.5, 0.0, 0.0]), lam, point_demand(lam),
            np.array([False, True]), 6, 0, 0.5, estimators._STEP_ENTRIES,
            replace(DEEP, prune_depth=1, prune_budget=3))


def _corrected_records(truth, box, x, lam, demand, model):
    """Endless (corrected box, observation, control) of the plant under the
    control lam, each box corrected against exact readings: what a closed
    loop pushes."""
    lifted = state_update(wide_start(truth), measure(model, x), model)
    yield lifted, measure(model, x), None
    while True:
        x = compact_step(truth, x, lam, lam)
        lifted = state_update(lifted_step(lifted, lam, demand, box.pair),
                              measure(model, x), model)
        yield lifted, measure(model, x), lam


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=certificate_cases())
@example(case=_near_misses_behind_an_unmeasured_cell())
def test_the_certificate_is_the_chain_under_the_restart_rule(case):
    """On a fully measured window, ``_certified`` steps every transition in
    one kernel call (in calls of at most ``_STEP_ENTRIES`` bracket
    entries) that the verdicts it is given lack: all of them for a fresh
    stack or a box's pair, and under a held probe stack (and after a new
    stack replaces it) only the newest transition of a window that slid by
    one record.
    Either way each row's verdict is the one the chain written out in
    ``_one_box_dead`` gives it, probes that fail the range checks included.
    A window with an unmeasured cell, or of one transition, steps the
    chain one transition a call, to the same verdicts."""
    truth, box, x, lam, demand, mask, length, slides, tol, entries, plan = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimators, "CONSISTENCY_TOL", tol)
        m.setattr(estimators, "_STEP_ENTRIES", entries)
        stepped, counts = estimators._stepped, []

        def spy(x, records, *rest):
            counts.append(len(records))
            return stepped(x, records, *rest)

        m.setattr(estimators, "_stepped", spy)
        model = OutputModel(mask, np.ones(mask.size))
        window = MeasurementWindow(length, model, demand)
        feed = _corrected_records(truth, box, x, lam, demand, model)
        for _ in range(length + 1):
            lifted, y, u = next(feed)
            window.push(lifted, y, control=u)
        assert window.fully_measured == mask.all()

        def check(pair, rows, transitions):
            """pair's verdicts on the window, given the transition verdicts
            rows, against the chain's; on a fully measured window of more
            than one transition, the transitions stepped in one call, and
            on any other, every transition stepped again."""
            counts.clear()
            dead = estimators._certified(window, pair, rows)
            assert np.array_equal(dead, _rows_dead(window, pair))
            if window.fully_measured and length > 1:
                each = max(1, entries // (2 * x.size * max(dead.size, 1)))
                assert counts == [min(each, transitions - k)
                                  for k in range(0, transitions, each)]
            else:
                # the chain: one transition a call, all L of them unless
                # every row was certified first
                assert counts == [1] * len(counts)
                assert len(counts) == length or dead.all()

        # a stack no window holds: every transition, in one call
        fields = vars(box.pair.primary)
        spines = [estimators._Spine(f, i, is_upper,
                                    *estimators._interval(fields, f, i, is_upper), 3)
                  for f in ("v", "x_jam") for i in range(mask.size)
                  for is_upper in (True, False)]
        stack = estimators._probe_stack(fields, spines, True)
        check(stack.pair, stack.rows, length)
        # the box's pair keeps no verdicts: every transition, every time
        theta_update(window, box, plan)
        check(window._held.pair, {}, length)
        # its first stack held: a slide steps the newest alone
        for _ in range(slides):
            lifted, y, u = next(feed)
            window.push(lifted, y, control=u)
            check(window._held.stack.pair, window._held.stack.rows, 1)
            check(window._held.pair, {}, length)
        # another depth builds another stack, which certifies afresh
        first = window._held.stack
        theta_update(window, box, replace(plan, prune_depth=plan.prune_depth + 1))
        assert window._held.stack is not first
        check(window._held.stack.pair, window._held.stack.rows, 0)
        lifted, y, u = next(feed)
        window.push(lifted, y, control=u)
        check(window._held.stack.pair, window._held.stack.rows, 1)
