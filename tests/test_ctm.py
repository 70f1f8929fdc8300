"""Plant model: fundamental diagram, merges, stepping, equilibria."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rampflow.ctm import (
    AdmissibilityError,
    OutputModel,
    compact_step,
    demand_fn,
    equilibrium_flow,
    equilibrium_uncongested,
    mainline_outflow,
    measure,
    plant_step,
    ramp_outflow,
    split_state,
)

from conftest import (full_output, homogeneous_params, ramp_discharge, random_params,
                      random_state)


def zero_queue_state(main):
    main = np.asarray(main, dtype=float)
    return np.concatenate([main, np.zeros_like(main)])


class TestDemandFn:
    def test_freeflow_branch(self, stretch):
        # below critical occupancy (40) the speed line is binding
        assert demand_fn(stretch, np.full(4, 30.0))[0] == pytest.approx(15.0)

    def test_dropped_capacity_branch(self, stretch):
        # 60 veh is congested, so the ceiling is 0.9 * 20
        assert demand_fn(stretch, np.full(4, 60.0))[2] == pytest.approx(18.0)

    def test_zero_state(self, stretch):
        assert np.all(demand_fn(stretch, np.zeros(4)) == 0.0)

    def test_critical_occupancy_keeps_full_capacity(self, stretch):
        d = demand_fn(stretch, np.full(4, 40.0))
        assert np.all(d == 20.0)
        d_above = demand_fn(stretch, np.full(4, np.nextafter(40.0, 50.0)))
        assert np.all(d_above == 18.0)

    def test_rejects_out_of_range(self, stretch):
        with pytest.raises(ValueError):
            demand_fn(stretch, np.full(4, 161.0))
        with pytest.raises(ValueError):
            demand_fn(stretch, np.full(4, -1.0))


class TestSupplyFn:
    """Cell 1's supply caps the flow out of cell 0, whose demand is its
    capacity 20 at the critical occupancy 40."""

    @staticmethod
    def first_outflow(stretch, x1):
        return mainline_outflow(stretch, np.array([40.0, x1, 0.0, 0.0]))[0]

    def test_jam_boundary(self, stretch):
        assert self.first_outflow(stretch, 160.0) == 0.0

    def test_wave_limited(self, stretch):
        assert self.first_outflow(stretch, 100.0) == pytest.approx(60.0 / 5.4)

    def test_capacity_capped(self, stretch):
        assert self.first_outflow(stretch, 0.0) == 20.0


class TestRampOutflow:
    def test_queue_limited(self, stretch):
        x = zero_queue_state([30.0, 30.0, 30.0, 30.0])
        x[4] = 1.0  # one vehicle waiting
        lam = np.array([2.0, 0.0, 0.0, 0.0])
        f_r = ramp_discharge(stretch, x, np.full(4, 5.0), lam)
        assert f_r[0] == pytest.approx(3.0)

    def test_space_limited(self):
        # cell 1 sits at jam with a harsh capacity drop: only the 2 veh that
        # leave the cell this step can be replaced from the ramp
        params = homogeneous_params(
            2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0, c_max=20.0, alpha=0.1)
        x = np.array([160.0, 0.0, 8.0, 0.0])
        f_r = ramp_discharge(params, x, np.array([5.0, 0.0]), np.array([2.0, 0.0]))
        assert f_r[0] == pytest.approx(2.0)

    def test_zero_command(self, stretch):
        x = zero_queue_state([30.0, 30.0, 30.0, 30.0])
        x[4:] = 10.0
        f_r = ramp_discharge(stretch, x, np.zeros(4), np.full(4, 5.0))
        assert np.all(f_r == 0.0)


class TestStepping:
    def test_equilibrium_is_fixed_point(self, stretch, nominal_demand):
        x_eq = zero_queue_state(equilibrium_uncongested(stretch, nominal_demand))
        nxt = plant_step(stretch, x_eq, nominal_demand, nominal_demand)
        np.testing.assert_allclose(nxt, x_eq, rtol=0.0, atol=1e-12)

    def test_zero_everything(self, stretch):
        nxt = plant_step(stretch, np.zeros(8), np.zeros(4), np.zeros(4))
        assert np.all(nxt == 0.0)

    def test_closed_ramps_grow_queues(self, stretch, nominal_demand):
        x_unc = equilibrium_uncongested(stretch, nominal_demand)
        x = zero_queue_state(x_unc)
        nxt = plant_step(stretch, x, np.zeros(4), nominal_demand)
        np.testing.assert_array_equal(nxt[4:], nominal_demand)
        f = mainline_outflow(stretch, x_unc)
        drained = x_unc - f
        drained[1:] += stretch.beta * f[:-1]
        np.testing.assert_allclose(nxt[:4], drained, rtol=0.0, atol=1e-12)

    def test_compact_mirrors_plant_on_equilibrium(self, stretch, nominal_demand):
        x_eq = zero_queue_state(equilibrium_uncongested(stretch, nominal_demand))
        a = plant_step(stretch, x_eq, nominal_demand, nominal_demand)
        b = compact_step(stretch, x_eq, nominal_demand, nominal_demand)
        np.testing.assert_array_equal(a, b)

    def test_compact_rejects_overdraining(self, stretch):
        x = zero_queue_state([30.0, 30.0, 30.0, 30.0])
        with pytest.raises(ValueError):
            compact_step(stretch, x, np.full(4, 5.0), np.full(4, 1.0))

    def test_compact_rejects_overflow(self):
        params = homogeneous_params(
            2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0, c_max=20.0, alpha=0.1)
        x = np.array([160.0, 0.0, 30.0, 0.0])
        with pytest.raises(ValueError):
            compact_step(params, x, np.array([10.0, 0.0]), np.array([0.0, 0.0]))

    def test_agreement_whenever_discharge_matches_command(self, stretch):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_state(rng, stretch)[0]
            u_raw = rng.uniform(0.0, 30.0, 4)
            lam = rng.uniform(0.0, 10.0, 4)
            # the realized discharge is always a feasible command, and
            # commanding it must reproduce the plant bit for bit
            u = ramp_discharge(stretch, x, u_raw, lam)
            np.testing.assert_array_equal(
                plant_step(stretch, x, u_raw, lam),
                compact_step(stretch, x, u, lam))


class TestEquilibrium:
    def test_flow_cascade(self, stretch, nominal_demand):
        f = equilibrium_flow(stretch, nominal_demand)
        np.testing.assert_allclose(
            f, [19.17, 18.923, 18.7007, 18.50063], rtol=0.0, atol=1e-9)
        # independent oracle in exact rational arithmetic
        beta = Fraction(9, 10)
        lam = [Fraction("19.17"), Fraction("1.67"), Fraction("1.67"), Fraction("1.67")]
        exact = [lam[0]]
        for i in range(1, 4):
            exact.append(lam[i] + beta * exact[-1])
        np.testing.assert_allclose(f, [float(e) for e in exact], rtol=0.0, atol=1e-12)

    def test_flow_zero(self, stretch):
        assert np.all(equilibrium_flow(stretch, np.zeros(4)) == 0.0)

    def test_flow_geometric_cascade(self, stretch):
        f = equilibrium_flow(stretch, np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(f, [1.0, 0.9, 0.81, 0.729], rtol=0.0, atol=1e-15)

    def test_flow_monotone_in_demand(self, stretch):
        rng = np.random.default_rng(21)
        for _ in range(300):
            lam = rng.uniform(0.0, 5.0, 4)
            bigger = lam + rng.uniform(0.0, 3.0, 4)
            assert np.all(equilibrium_flow(stretch, bigger)
                          >= equilibrium_flow(stretch, lam) - 1e-15)

    def test_uncongested_state(self, stretch, nominal_demand):
        x = equilibrium_uncongested(stretch, nominal_demand)
        np.testing.assert_allclose(
            x, [38.34, 37.846, 37.4014, 37.00126], rtol=0.0, atol=1e-9)
        assert np.all(x <= stretch.x_crit)

    def test_uncongested_zero(self, stretch):
        assert np.all(equilibrium_uncongested(stretch, np.zeros(4)) == 0.0)

    def test_uncongested_capacity_boundary(self, stretch):
        x = equilibrium_uncongested(stretch, np.array([20.0, 0.0, 0.0, 0.0]))
        assert x[0] == pytest.approx(40.0)

    def test_inadmissible_demand_raises(self, stretch):
        with pytest.raises(AdmissibilityError):
            equilibrium_uncongested(stretch, np.array([25.0, 0.0, 0.0, 0.0]))


class TestAdmissibility:
    def test_constant_nominal(self, stretch, nominal_demand):
        equilibrium_uncongested(stretch, nominal_demand)

    def test_overloaded_first_cell(self, stretch):
        with pytest.raises(AdmissibilityError):
            equilibrium_uncongested(stretch, np.array([25.0, 0.0, 0.0, 0.0]))


class TestMeasure:
    def test_identity(self, stretch):
        x = np.arange(8.0)
        obs = measure(full_output(4), x)
        np.testing.assert_array_equal(obs.y_main, x[:4])
        np.testing.assert_array_equal(obs.y_ramp, x[4:])

    def test_single_detector(self):
        model = OutputModel(np.array([True, False, False, False]), np.ones(4))
        obs = measure(model, np.array([30.0, 5.0, 6.0, 7.0, 1.0, 2.0, 3.0, 4.0]))
        assert obs.y_main[0] == 30.0
        assert np.all(np.isnan(obs.y_main[1:]))
        np.testing.assert_array_equal(obs.y_ramp, [1.0, 2.0, 3.0, 4.0])

    def test_no_mainline_detectors(self):
        model = OutputModel(np.zeros(4, dtype=bool), np.ones(4))
        obs = measure(model, np.arange(8.0))
        assert np.all(np.isnan(obs.y_main))
        np.testing.assert_array_equal(obs.y_ramp, [4.0, 5.0, 6.0, 7.0])


class TestParamsValidation:
    def test_rejects_supercritical_speeds(self):
        with pytest.raises(ValueError):
            homogeneous_params(2, beta=0.9, v=1.2, w=0.2, x_jam=160.0,
                               c_max=20.0, alpha=0.9)
        with pytest.raises(ValueError):
            homogeneous_params(2, beta=0.9, v=0.5, w=1.01, x_jam=160.0,
                               c_max=20.0, alpha=0.9)

    def test_rejects_critical_outside_jam(self):
        with pytest.raises(ValueError):
            homogeneous_params(2, beta=0.9, v=0.1, w=0.2, x_jam=160.0,
                               c_max=20.0, alpha=0.9)

    def test_rejects_unit_split_ratio(self):
        with pytest.raises(ValueError):
            homogeneous_params(2, beta=1.0, v=0.5, w=0.2, x_jam=160.0,
                               c_max=20.0, alpha=0.9)


def test_conservation_residuals():
    """Each cell's balance closes to floating precision for random inputs."""
    rng = np.random.default_rng(99)
    for _ in range(25):
        params = random_params(rng)
        x = random_state(rng, params, 400)
        u = rng.uniform(0.0, 30.0, (400, 4))
        lam = rng.uniform(0.0, 15.0, (400, 4))
        main, queues = split_state(x, 4)
        f_out = mainline_outflow(params, main)
        f_r = ramp_outflow(params, x, u, lam, f_out)
        nxt = plant_step(params, x, u, lam)
        inflow = f_r.copy()
        inflow[:, 1:] += params.beta * f_out[:, :-1]
        res_main = nxt[:, :4] - main - (inflow - f_out)
        res_ramp = nxt[:, 4:] - queues - (lam - f_r)
        assert np.max(np.abs(res_main)) <= 1e-12
        assert np.max(np.abs(res_ramp)) <= 1e-12


def test_state_space_invariance_bulk():
    """10^5 random (params, x, u, lam) draws never leave the state space."""
    rng = np.random.default_rng(1234)
    total = 0
    while total < 100_000:
        params = random_params(rng)
        batch = 5000
        x = random_state(rng, params, batch)
        u = rng.uniform(0.0, 40.0, (batch, 4))
        lam = rng.uniform(0.0, 25.0, (batch, 4))
        nxt = plant_step(params, x, u, lam)
        assert np.all(nxt >= -1e-9)
        assert np.all(nxt[:, :4] <= params.x_jam + 1e-9)
        total += batch


def test_mainline_drain_monotone_without_drop():
    """With the drop disabled, the drained mainline keeps the partial order.

    The ordering can fail once the ceiling drops (the outflow jumps down as
    occupancy crosses critical), which is exactly why the tube dynamics
    treat the ceiling argument separately. It can also fail when v + w > 1,
    so the draw respects that cap.
    """
    rng = np.random.default_rng(5)
    count = 0
    while count < 10_000:
        params = random_params(rng, no_drop=True, wave_sum_cap=True)
        lo = rng.uniform(0.0, params.x_jam, (500, 4))
        hi = lo + rng.uniform(0.0, params.x_jam - lo)

        def drained(main):
            f = mainline_outflow(params, main)
            out = main - f
            out[:, 1:] += params.beta * f[:, :-1]
            return out

        assert np.all(drained(lo) <= drained(hi) + 1e-9)
        count += 500


@given(x=st.floats(0.0, 160.0), u=st.floats(0.0, 40.0),
       queue=st.floats(0.0, 50.0), lam=st.floats(0.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_discharge_never_exceeds_command_or_backlog(x, u, queue, lam):
    params = homogeneous_params(
        4, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0, c_max=20.0, alpha=0.9)
    state = np.array([x, 30.0, 30.0, 30.0, queue, 0.0, 0.0, 0.0])
    f_r = ramp_discharge(params, state, np.full(4, u), np.full(4, lam))
    assert f_r[0] <= u + 1e-12
    assert f_r[0] <= queue + lam + 1e-12
    assert f_r[0] >= 0.0


@given(st.lists(st.floats(0.0, 79.0), min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_step_keeps_interior_states_valid(mains):
    params = homogeneous_params(
        4, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0, c_max=20.0, alpha=0.9)
    x = zero_queue_state(mains)
    nxt = plant_step(params, x, np.full(4, 10.0), np.full(4, 5.0))
    assert np.all(nxt >= 0.0)
    assert np.all(nxt[:4] <= 160.0 + 1e-9)
