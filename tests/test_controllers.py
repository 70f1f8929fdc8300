"""Closed-loop policies: baseline laws, terminal-box membership, and the
set-membership predictive loop driven against the plant."""

import math

import numpy as np
import pytest

from rampflow.ctm import OutputModel, compact_step, equilibrium_uncongested, measure
from rampflow.embedding import DemandBounds, LiftedState, ParamBounds
from rampflow.estimators import (ContainmentViolation, EstimatorConfig,
                                 MeasurementWindow)
from rampflow.milp import MilpBudget
from rampflow.mpc import MpcConfig, TerminalSet, solve_mpc
from rampflow.controllers import (ALINEA_GAIN, AlineaConfig, LocalConfig,
                                  PHASE_LOCAL, PHASE_MPC, SetPcConfig,
                                  SetPcState, alinea_step, local_controller,
                                  open_loop_step, setpc_step)

from conftest import full_output, point_demand, point_state

B_MAIN = np.array([6.878, 5.42, 3.8, 2.0])
ALINEA = AlineaConfig(gain=ALINEA_GAIN, setpoint=None)
LOCAL = LocalConfig(averaging_window=1, epsilon=0.1)


def stacked_cost():
    return np.ones(8), np.concatenate([B_MAIN, np.ones(4)])


def loop_config(horizon=6, **overrides):
    l, b = stacked_cost()
    defaults = dict(
        mpc=MpcConfig(horizon=horizon, l=l, b=b),
        terminal=TerminalSet.drained(np.full(4, 40.0)),
        estimator=EstimatorConfig(backward_horizon=4, prune_depth=8, prune_budget=256),
        local=LOCAL,
        budget=MilpBudget(),
    )
    defaults.update(overrides)
    return SetPcConfig(**defaults)


def fresh_state(x0, params_box, demand_box, model, horizon=4):
    return SetPcState(
        predicted=point_state(x0),
        params=params_box,
        window=MeasurementWindow(horizon, model, demand_box))


# -------------------------------------------------------------- baselines


def test_alinea_matches_the_printed_arithmetic(stretch):
    u = alinea_step(np.full(4, 5.0), np.full(4, 30.0), stretch, ALINEA)
    assert np.allclose(u, 5.0 - ALINEA_GAIN * 10.0, atol=1e-12)
    assert round(float(u[0]), 5) == 4.92708


def test_alinea_holds_at_the_setpoint(stretch):
    u = alinea_step(np.full(4, 5.0), stretch.x_crit, stretch, ALINEA)
    assert np.allclose(u, 5.0, atol=1e-12)


def test_alinea_clips_into_the_control_box(stretch):
    low = alinea_step(np.full(4, 0.001), np.full(4, 10.0), stretch, ALINEA)
    assert np.all(low == 0.0)
    high = alinea_step(np.full(4, 39.999), np.full(4, 70.0), stretch, ALINEA)
    assert np.all(high == stretch.u_max)


def test_alinea_takes_a_custom_setpoint(stretch):
    cfg = AlineaConfig(gain=0.5, setpoint=np.full(4, 20.0))
    u = alinea_step(np.full(4, 5.0), np.full(4, 22.0), stretch, cfg)
    assert np.allclose(u, 6.0, atol=1e-12)
    with pytest.raises(ValueError, match="gain"):
        AlineaConfig(gain=-0.1, setpoint=None)


def test_open_loop_tracks_the_nominal_and_clips(stretch, nominal_demand):
    assert np.array_equal(open_loop_step(nominal_demand, stretch.u_max),
                          nominal_demand)
    assert np.all(open_loop_step(np.full(4, 50.0), stretch.u_max) == 40.0)
    assert np.all(open_loop_step(np.zeros(4), stretch.u_max) == 0.0)


def exact_queue_history(lam_seq, q0, controls):
    """Queues under exact discharge: q' = q + lam - u (all u admissible)."""
    queues = [np.asarray(q0, dtype=float)]
    for lam_k, u_k in zip(lam_seq, controls):
        nxt = queues[-1] + lam_k - u_k
        assert np.all(nxt >= -1e-12)
        queues.append(nxt)
    return queues


def test_local_law_telescopes_onto_constant_demand():
    lam = np.array([19.17, 1.67])
    controls = [np.array([3.0, 1.0])]
    queues = exact_queue_history([lam], [4.0, 1.0], controls)
    u = local_controller(queues, controls, LOCAL, u_max=np.inf)
    assert np.allclose(u, lam + 0.1, atol=1e-12)
    # once the queues are gone the offset is dropped and the law returns
    # the arrivals exactly
    drained = [np.array([1.0, 0.5]), np.zeros(2)]
    u = local_controller(drained, [np.array([1.0, 0.5]) + lam], LOCAL, u_max=np.inf)
    assert np.allclose(u, lam, atol=1e-12)


def test_local_law_averages_the_reconstructed_demand():
    base = np.array([19.17, 1.67])
    lam_seq = [base * (1.0 + 0.05 * math.sin(0.2 * k)) for k in range(8)]
    controls = [np.array([1.0, 1.0])] * 8
    queues = exact_queue_history(lam_seq, [5.0, 5.0], controls)
    cfg = LocalConfig(averaging_window=5, epsilon=0.1)
    u = local_controller(queues, controls, cfg, u_max=np.inf)
    assert np.allclose(u, np.mean(lam_seq[-5:], axis=0) + 0.1, atol=1e-12)


def test_local_law_floors_at_zero_and_caps_at_u_max():
    queues = [np.array([10.0]), np.array([2.0])]
    cfg = LocalConfig(averaging_window=1, epsilon=0.0)
    u = local_controller(queues, [np.array([1.0])], cfg, u_max=np.array([40.0]))
    assert u[0] == 0.0
    surge = [np.array([0.0]), np.array([90.0])]
    u = local_controller(surge, [np.array([5.0])], cfg, u_max=np.array([40.0]))
    assert u[0] == 40.0


def test_local_law_needs_history_and_valid_config():
    with pytest.raises(ValueError, match="two queue readings"):
        local_controller([np.zeros(2)], [], LOCAL, u_max=np.inf)
    with pytest.raises(ValueError, match="averaging_window"):
        LocalConfig(averaging_window=0, epsilon=0.1)
    with pytest.raises(ValueError, match="epsilon"):
        LocalConfig(averaging_window=1, epsilon=-0.5)


# ---------------------------------------------------------- terminal box


def test_terminal_membership_is_inclusive_within_1e9():
    drained = TerminalSet.drained(np.full(4, 40.0))
    inside = np.concatenate([np.full(4, 39.0), np.zeros(4)])
    assert drained.contains(inside)
    assert drained.contains(np.concatenate([np.full(4, 40.0 + 1e-10), np.zeros(4)]))
    assert not drained.contains(np.concatenate([np.full(4, 40.0 + 1e-8), np.zeros(4)]))
    assert not drained.contains(np.concatenate([[41.0], np.full(3, 39.0), np.zeros(4)]))
    assert not drained.contains(np.concatenate([np.full(4, 39.0), [0.0, 0.0, 0.0, 1.0]]))
    # the mainline box leaves the queue caps free
    mainline = TerminalSet.mainline_only(np.full(4, 40.0))
    assert mainline.contains(np.concatenate([np.full(4, 40.0), np.full(4, 1e6)]))
    assert not mainline.contains(np.concatenate([np.full(4, 41.0), np.zeros(4)]))


# ----------------------------------------------------------- setpc loop


def test_setpc_tick_matches_the_direct_planner_on_point_boxes(
        stretch, nominal_demand):
    model = full_output(4)
    demand_box = point_demand(nominal_demand)
    config = loop_config(horizon=3)
    x = np.concatenate([np.array([30.0, 30.0, 30.0, 45.0]),
                        np.array([2.0, 0.0, 0.0, 0.0])])
    state = fresh_state(x, ParamBounds(stretch, stretch), demand_box, model)
    u, _, diag = setpc_step(state, measure(model, x), config)
    direct = solve_mpc(point_state(x), demand_box, ParamBounds(stretch, stretch),
                       config.mpc, config.terminal, budget=config.budget)
    assert np.allclose(u, direct.u, atol=1e-9)
    assert abs(diag.value - direct.value) <= 1e-9
    assert diag.phase == PHASE_MPC


def test_setpc_plans_on_the_upper_end_of_a_jam_interval(stretch, nominal_demand):
    from dataclasses import replace
    model = full_output(4)
    demand_box = point_demand(nominal_demand)
    config = loop_config(horizon=3)
    roomy = ParamBounds(upper=replace(stretch, x_jam=np.full(4, 170.0)),
                        lower=replace(stretch, x_jam=np.full(4, 150.0)))
    x = np.concatenate([np.array([30.0, 30.0, 30.0, 45.0]),
                        np.array([2.0, 0.0, 0.0, 0.0])])
    state = fresh_state(x, roomy, demand_box, model)
    u, successor, diag = setpc_step(state, measure(model, x), config)
    pinned = ParamBounds(upper=roomy.upper,
                         lower=replace(roomy.lower, x_jam=np.full(4, 170.0)))
    direct = solve_mpc(point_state(x), demand_box, pinned,
                       config.mpc, config.terminal, budget=config.budget)
    assert np.allclose(u, direct.u, atol=1e-9)
    assert abs(diag.value - direct.value) <= 1e-9
    assert np.array_equal(successor.params.lower.x_jam, np.full(4, 150.0))


def test_setpc_loop_enters_the_terminal_set_and_switches(
        stretch, nominal_demand):
    model = full_output(4)
    demand_box = point_demand(nominal_demand)
    config = loop_config(horizon=6)
    x = np.concatenate([np.array([30.0, 30.0, 30.0, 50.0]),
                        np.array([5.0, 0.0, 0.0, 0.0])])
    initial_total = x.sum()
    state = fresh_state(x, ParamBounds(stretch, stretch), demand_box, model)
    phases, values = [], []
    for _ in range(16):
        u, state, diag = setpc_step(state, measure(model, x), config)
        x = compact_step(stretch, x, u, nominal_demand)
        phases.append(diag.phase)
        values.append(diag.value)
        assert x.sum() <= 1.2 * initial_total
    assert PHASE_LOCAL in phases
    entry = phases.index(PHASE_LOCAL)
    assert entry <= 8
    assert all(ph == PHASE_LOCAL for ph in phases[entry:])
    assert np.all(x[4:] == 0.0)
    assert np.allclose(x[:4], equilibrium_uncongested(stretch, nominal_demand),
                       atol=0.1)
    assert all(math.isfinite(v) for v in values[:entry])
    assert all(math.isnan(v) for v in values[entry:])


def test_setpc_local_phase_serves_the_arrivals(stretch, nominal_demand):
    model = full_output(4)
    demand_box = point_demand(nominal_demand)
    config = loop_config(horizon=6)
    x = np.concatenate([np.array([30.0, 30.0, 30.0, 50.0]),
                        np.array([5.0, 0.0, 0.0, 0.0])])
    state = fresh_state(x, ParamBounds(stretch, stretch), demand_box, model)
    seen_local = False
    for _ in range(16):
        u, state, diag = setpc_step(state, measure(model, x), config)
        if diag.phase == PHASE_LOCAL and seen_local:
            assert np.allclose(u, nominal_demand, atol=1e-9)
        seen_local = seen_local or diag.phase == PHASE_LOCAL
        x = compact_step(stretch, x, u, nominal_demand)
    assert seen_local


def test_setpc_plans_until_the_window_holds_two_readings(stretch, nominal_demand):
    """A fresh loop that starts inside the terminal box plans its first
    tick, since the local law reads a queue transition, and then hands over."""
    model = full_output(4)
    demand_box = point_demand(nominal_demand)
    config = loop_config(horizon=2, terminal=TerminalSet.mainline_only(np.full(4, 40.0)))
    x = np.concatenate([np.array([20.0, 25.0, 22.0, 30.0]),
                        np.array([3.0, 0.0, 1.0, 0.0])])
    state = fresh_state(x, ParamBounds(stretch, stretch), demand_box, model)
    phases = []
    for _ in range(3):
        u, state, diag = setpc_step(state, measure(model, x), config)
        phases.append(diag.phase)
        x = compact_step(stretch, x, u, nominal_demand)
    assert phases == [PHASE_MPC, PHASE_LOCAL, PHASE_LOCAL]


def test_setpc_keeps_the_truth_enclosed_under_partial_measurement(
        stretch, nominal_demand):
    model = OutputModel(np.array([True, False, True, False]), np.ones(4))
    demand_box = DemandBounds(upper=nominal_demand * 1.02,
                              lower=nominal_demand * 0.98)
    # serving the arrivals keeps the first cell above its cap of 19, so only
    # metering on the last step reaches the box; queue weights of 10 in b
    # make that the cheapest plan, and every tick plans
    l, _ = stacked_cost()
    config = loop_config(
        mpc=MpcConfig(horizon=2, l=l, b=np.concatenate([B_MAIN, np.full(4, 10.0)])),
        terminal=TerminalSet.mainline_only(np.array([19.0, 40.0, 40.0, 40.0])),
        estimator=EstimatorConfig(backward_horizon=4, prune_depth=8, prune_budget=16))
    x = np.concatenate([np.array([20.0, 25.0, 22.0, 30.0]),
                        np.array([3.0, 0.0, 1.0, 0.0])])
    slack = np.array([0.0, 2.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    state = SetPcState(
        predicted=LiftedState(upper=x + slack, lower=np.maximum(x - slack, 0.0)),
        params=ParamBounds(stretch, stretch),
        window=MeasurementWindow(4, model, demand_box))
    rng = np.random.default_rng(3)
    for _ in range(6):
        u, state, diag = setpc_step(state, measure(model, x), config)
        lam_t = rng.uniform(demand_box.lower, demand_box.upper)
        x = compact_step(stretch, x, u, lam_t)
        assert state.predicted.contains(x)
        assert diag.phase == PHASE_MPC


def test_setpc_rejects_a_tampered_measurement(stretch, nominal_demand):
    model = full_output(4)
    demand_box = point_demand(nominal_demand)
    config = loop_config(horizon=3)
    x = np.concatenate([np.array([30.0, 30.0, 30.0, 45.0]),
                        np.array([2.0, 0.0, 0.0, 0.0])])
    state = fresh_state(x, ParamBounds(stretch, stretch), demand_box, model)
    u, state, _ = setpc_step(state, measure(model, x), config)
    x = compact_step(stretch, x, u, nominal_demand)
    tampered = measure(model, x + 5.0)
    with pytest.raises(ContainmentViolation):
        setpc_step(state, tampered, config)
