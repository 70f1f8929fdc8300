"""Certificate checks: constants arithmetic, bound margins, decrease
residuals, the value sandwich, and entry-time scanning, exercised on
synthetic logs and one real planner loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampflow.ctm import compact_step, measure
from rampflow.embedding import ParamBounds
from rampflow.estimators import EstimatorConfig, MeasurementWindow
from rampflow.milp import MilpBudget
from rampflow.mpc import (CostSpec, MpcConfig, TerminalSet,
                          choose_terminal_weights, compute_xup)
from rampflow.controllers import LocalConfig, SetPcConfig, SetPcState, setpc_step
from rampflow.analysis import (SCOPE_NOMINAL, SCOPE_OUTSIDE, IssConstants,
                               TrajectoryLog, certificate_summary,
                               iss_constants, lyapunov_decrease_check,
                               time_to_terminal,
                               value_function_bounds_check, verify_iss_bound)

from conftest import full_output, homogeneous_params, point_demand, point_state

LAM = np.array([19.17, 1.67, 1.67, 1.67])


def demo_cost(params):
    l = np.ones(8)
    d = choose_terminal_weights(l, params)
    return CostSpec(l=l, b=np.concatenate([d, np.ones(4)]), d=d)


def synth_log(states, values, *, demand=None, known_theta=True):
    """Point estimates, running cost half the state's sum, no arrival price
    and no relative gap."""
    dim = len(states[0])
    cost = CostSpec(l=np.full(dim, 0.5), b=np.zeros(dim), d=np.zeros(dim // 2))
    log = TrajectoryLog(cost=cost, gap_rel=0.0, demand=demand, known_theta=known_theta)
    for x, v in zip(states, values):
        x = np.asarray(x, dtype=float)
        log.append(x=x, estimate=point_state(x), u=np.zeros(1), value=v, phase="mpc")
    return log


@pytest.fixture(scope="module")
def planner_run():
    """Ten ticks of the predictive loop in its certificate regime: known
    parameters, constant arrivals, linear cost with the backward terminal
    weights, drained terminal box. The last ramp's queue keeps the loop out
    of the drained box, so every tick plans; the box it returns for the
    entry checks is the mainline one, which the loop enters at t=4."""
    params = homogeneous_params(4, beta=0.9, v=0.5, w=1 / 6, x_jam=160.0,
                                c_max=20.0, alpha=0.9, u_max=40.0)
    cost = demo_cost(params)
    x_up = compute_xup(LAM, params)
    config = SetPcConfig(
        mpc=MpcConfig(horizon=6, cost=cost),
        terminal=TerminalSet.drained(x_up),
        estimator=EstimatorConfig(backward_horizon=4, prune_depth=8, prune_budget=256),
        local=LocalConfig(averaging_window=1, epsilon=0.1),
        budget=MilpBudget())
    model = full_output(4)
    x = np.concatenate([[30.0, 30.0, 30.0, 56.0], [5.0, 0.0, 0.0, 5.0]])
    state = SetPcState(predicted=point_state(x),
                       params=ParamBounds(params, params),
                       window=MeasurementWindow(4, model, point_demand(LAM)))
    log = TrajectoryLog(cost=cost, gap_rel=config.budget.gap_rel, demand=LAM,
                        known_theta=True)
    for _ in range(10):
        u, state, diag = setpc_step(state, measure(model, x), config)
        log.append(x=x, estimate=diag.corrected, u=u, value=diag.value,
                   phase=diag.phase)
        x = compact_step(params, x, u, LAM)
    return log, cost, TerminalSet.mainline_only(x_up)


# --------------------------------------------------------------- constants


def test_constants_match_the_worked_arithmetic():
    params = homogeneous_params(4, beta=0.9, v=0.5, w=1 / 6, x_jam=160.0,
                                c_max=20.0, alpha=0.9, u_max=40.0)
    c = iss_constants(demo_cost(params), 60)
    assert c.a1 == 1.0
    assert c.a2 == pytest.approx(419.558, abs=1e-9)
    assert c.a3 == pytest.approx(6.878, abs=1e-12)
    assert c.rho == pytest.approx(1.0 - 1.0 / 419.558, abs=1e-12)


def test_constants_reject_the_degenerate_boundary():
    flat = CostSpec(l=np.ones(8), b=np.ones(8), d=np.ones(4))
    with pytest.raises(ValueError, match="contraction"):
        iss_constants(flat, 0)
    # a zero running weight would give rho = 1; the record refuses it
    with pytest.raises(ValueError, match="running-cost weights must be positive"):
        CostSpec(l=np.concatenate([np.zeros(1), np.ones(7)]), b=np.ones(8), d=np.ones(4))
    with pytest.raises(ValueError, match="horizon"):
        iss_constants(flat, -1)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(1e-3, 1e3), horizon=st.integers(1, 200))
def test_constants_are_scale_consistent(scale, horizon):
    rng = np.random.default_rng(11)
    l = rng.uniform(0.5, 3.0, 8)
    b_main, b_queue, d = rng.uniform(0.0, 9.0, (3, 4))
    b = np.concatenate([b_main, b_queue])
    base = iss_constants(CostSpec(l=l, b=b, d=d), horizon)
    scaled = iss_constants(CostSpec(l=scale * l, b=scale * b, d=scale * d), horizon)
    assert scaled.rho == pytest.approx(base.rho, rel=1e-12)


# ------------------------------------------------------------ state bound


def test_margins_on_a_contracting_synthetic_run():
    c = IssConstants(a1=1.0, a2=2.0, a3=1.0, rho=0.5)
    states = [np.full(2, 0.5 ** t) for t in range(6)]
    log = synth_log(states, [math.nan] * 6, demand=np.zeros(1))
    rep = verify_iss_bound(log, c, np.zeros(1))
    # with zero arrivals the bound is (a2/a1) rho^t |x(0)|, twice the run
    assert np.allclose(rep.margins, [2 * 0.5 ** t for t in range(6)])
    assert rep.min_margin == pytest.approx(2 * 0.5 ** 5)
    assert rep.scope == SCOPE_NOMINAL
    # closed form at t=0: (a2/a1 - 1)|x(0)| + gain |lam|
    lam = np.array([0.3])
    gain = (c.a3 + (1 - c.rho) * c.a2) / (c.a1 * (1 - c.rho))
    rep = verify_iss_bound(log, c, lam)
    assert rep.margins[0] == pytest.approx((c.a2 / c.a1 - 1.0) * 2.0 + gain * 0.3)


def test_bound_flags_an_inflated_state():
    c = IssConstants(a1=1.0, a2=2.0, a3=1.0, rho=0.5)
    states = [np.full(2, 0.5 ** t) for t in range(6)]
    states[3] = states[3] * 9.0
    log = synth_log(states, [math.nan] * 6)
    rep = verify_iss_bound(log, c, np.zeros(1))
    assert rep.margins[3] < 0.0
    assert rep.min_margin < 0.0
    assert np.all(np.delete(rep.margins, 3) > 0.0)


def test_bound_scope_labels_adaptive_runs():
    c = IssConstants(a1=1.0, a2=2.0, a3=1.0, rho=0.5)
    log = synth_log([np.ones(2)], [math.nan], demand=np.zeros(1), known_theta=False)
    assert verify_iss_bound(log, c, np.zeros(1)).scope == SCOPE_OUTSIDE
    log = synth_log([np.ones(2)], [math.nan])
    assert verify_iss_bound(log, c, np.zeros(1)).scope == SCOPE_OUTSIDE
    with pytest.raises(ValueError, match="empty"):
        verify_iss_bound(replace(log, steps=[]), c, np.zeros(1))


# ---------------------------------------------------------------- decrease


def test_decrease_holds_along_the_planner_loop(planner_run):
    log, cost, terminal = planner_run
    assert np.all(np.isfinite(log.values))
    rep = lyapunov_decrease_check(log)
    assert rep.times.size == len(log) - 1
    assert rep.max_residual <= rep.threshold
    assert rep.passed
    # the shifted plan is tight here, so the residuals sit at fp noise
    assert rep.max_residual < 1e-9


def test_decrease_is_exact_at_an_idle_equilibrium():
    log = synth_log([np.zeros(2)] * 5, [0.0] * 5)
    rep = lyapunov_decrease_check(log)
    assert np.allclose(rep.residuals, 0.0)
    assert rep.passed and rep.allowance == 0.0


def test_decrease_flags_an_injected_suboptimal_step():
    log = synth_log([np.ones(2)] * 3, [10.0, 9.0, 8.5])
    rep = lyapunov_decrease_check(log)
    assert rep.residuals[0] == pytest.approx(0.0)
    assert rep.residuals[1] == pytest.approx(0.5)
    assert not rep.passed and rep.max_residual == pytest.approx(0.5)


def test_decrease_skips_unsolved_ticks():
    log = synth_log([np.ones(2)] * 3, [5.0, math.nan, 4.0])
    rep = lyapunov_decrease_check(log)
    assert rep.times.size == 0 and rep.residuals.size == 0
    assert rep.passed


# ---------------------------------------------------------------- sandwich


def test_sandwich_holds_along_the_planner_loop(planner_run):
    log, cost, terminal = planner_run
    c = iss_constants(cost, 6)
    rep = value_function_bounds_check(log, c)
    assert rep.min_lower > 0.0 and rep.min_upper > 0.0
    assert rep.passed


def test_sandwich_lower_bound_at_the_origin():
    log = synth_log([np.zeros(2)], [0.0], demand=np.zeros(1))
    rep = value_function_bounds_check(log, IssConstants(1.0, 2.0, 1.0, 0.5))
    assert rep.min_lower == 0.0 and rep.passed


def test_sandwich_flags_a_perturbed_value():
    c = IssConstants(a1=1.0, a2=2.0, a3=1.0, rho=0.5)
    log = synth_log([np.ones(2)], [3.0], demand=np.ones(1))
    assert value_function_bounds_check(log, c).passed
    high = synth_log([np.ones(2)], [1e6], demand=np.ones(1))
    rep = value_function_bounds_check(high, c)
    assert rep.min_upper < 0.0 and not rep.passed
    low = synth_log([np.ones(2)], [0.5], demand=np.ones(1))
    rep = value_function_bounds_check(low, c)
    assert rep.min_lower < 0.0 and not rep.passed
    with pytest.raises(ValueError, match="arrival"):
        value_function_bounds_check(synth_log([np.ones(2)], [1.0]), c)


# ------------------------------------------------------- entry and summary


def test_time_to_terminal_along_the_planner_loop(planner_run):
    log, cost, terminal = planner_run
    k = time_to_terminal(log, terminal)
    assert k == 4
    assert np.all(log.steps[k].estimate.upper <= terminal.x_f + 1e-9)
    assert np.any(log.steps[k - 1].estimate.upper > terminal.x_f + 1e-9)


def test_time_to_terminal_edges():
    terminal = TerminalSet.drained(np.full(2, 10.0))
    inside = synth_log([np.array([5.0, 5.0, 0.0, 0.0])], [0.0])
    assert time_to_terminal(inside, terminal) == 0
    growing = synth_log([np.full(4, 20.0 + t) for t in range(4)], [math.nan] * 4)
    assert time_to_terminal(growing, terminal) is None


def test_running_cost_is_the_weighted_sum():
    log = TrajectoryLog(cost=CostSpec(l=np.array([1.0, 2.0, 1.0, 1.0]), b=np.zeros(4),
                                      d=np.zeros(2)),
                        gap_rel=0.0, demand=None, known_theta=True)
    log.append(x=np.zeros(4), estimate=point_state(np.array([5.0, 5.0, 0.0, 0.0])),
               u=np.zeros(2), value=math.nan, phase="mpc")
    assert log.runnings.tolist() == [15.0]


def test_certificate_summary_reads_healthy_and_broken_runs(planner_run):
    log, cost, terminal = planner_run
    lines = certificate_summary(log, constants=iss_constants(cost, 6),
                                terminal=terminal)
    text = "\n".join(lines)
    assert text.count("pass") == 3 and "FAIL" not in text
    assert "terminal entry: t=4" in text
    broken = synth_log([np.ones(2)] * 3, [10.0, 9.0, 8.5], demand=np.ones(1))
    text = "\n".join(certificate_summary(
        broken, constants=IssConstants(1.0, 2.0, 1.0, 0.5), lam=np.ones(1),
        terminal=TerminalSet.drained(np.full(1, 0.5))))
    assert "FAIL" in text and "terminal entry: not reached" in text


def test_certificate_summary_skips_the_arrival_checks_without_an_arrival_vector():
    log = synth_log([np.ones(2)] * 3, [10.0, 9.0, 8.5])
    lines = certificate_summary(log, constants=IssConstants(1.0, 2.0, 1.0, 0.5))
    assert lines[1:] == [
        "value bounds: skipped (the log does not record an arrival vector)",
        "state bound: skipped (no arrival vector)"]
