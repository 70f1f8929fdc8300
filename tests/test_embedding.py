"""Tube dynamics: diagonal exactness, monotonicity blocks, containment."""

import numpy as np
import pytest

from rampflow.ctm import (
    FreewayParams,
    compact_step,
    equilibrium_uncongested,
    homogeneous_params,
    plant_step,
    ramp_outflow,
)
from rampflow.embedding import (
    DemandBounds,
    LiftedState,
    ParamBounds,
    _primary_tuple,
    _secondary_tuple,
    _tube_flows,
    decomposition_F,
    lifted_point_step,
    lifted_step,
)

from conftest import random_state


def demo_bounds() -> ParamBounds:
    mk = lambda b, v, w, xj, c, a: homogeneous_params(
        4, beta=b, v=v, w=w, x_jam=xj, c_max=c, alpha=a)
    return ParamBounds(
        upper=mk(0.95, 0.6, 0.3, 170.0, 24.0, 1.0),
        lower=mk(0.70, 0.4, 0.1, 150.0, 16.0, 0.8))


def sample_tuple_pair(rng, n, cells=4):
    """Two componentwise-ordered (state, demand, params) primary tuples plus
    a fixed secondary tuple, all broadcast-ready with shape (n, cells)."""
    v_hi = rng.uniform(0.1, 0.9, (n, cells))
    w_hi = rng.uniform(0.05, 1.0 - v_hi)
    lo = {
        "beta": rng.uniform(0.1, 0.85, (n, cells - 1)),
        "v": rng.uniform(0.05, v_hi),
        "w": rng.uniform(0.02, w_hi),
        "x_jam": rng.uniform(60.0, 140.0, (n, cells)),
        "c_max": rng.uniform(5.0, 20.0, (n, cells)),
        "alpha": rng.uniform(0.2, 0.9, (n, cells)),
    }
    hi = {
        "beta": lo["beta"] + rng.uniform(0.0, 0.9 - lo["beta"]),
        "v": v_hi,
        "w": w_hi,
        "x_jam": lo["x_jam"] + rng.uniform(0.0, 40.0, (n, cells)),
        "c_max": lo["c_max"] + rng.uniform(0.0, 6.0, (n, cells)),
        "alpha": lo["alpha"] + rng.uniform(0.0, 1.0 - lo["alpha"]),
    }
    x_lo = np.concatenate([rng.uniform(0.0, lo["x_jam"]),
                           rng.uniform(0.0, 50.0, (n, cells))], axis=-1)
    x_hi = x_lo + np.concatenate([rng.uniform(0.0, hi["x_jam"] - x_lo[:, :cells]),
                                  rng.uniform(0.0, 30.0, (n, cells))], axis=-1)
    lam_lo = rng.uniform(0.0, 10.0, (n, cells))
    lam_hi = lam_lo + rng.uniform(0.0, 5.0, (n, cells))
    return lo, hi, x_lo, x_hi, lam_lo, lam_hi


def as_primary(d):
    return (d["beta"], d["v"], d["w"], d["x_jam"], d["c_max"], d["alpha"])


def as_secondary(d):
    return (d["v"], d["w"], d["x_jam"], d["c_max"], d["alpha"])


def two_cells(x_main, z_main=None):
    """Kernel step of a two-cell demo stretch at the given occupancies.

    The cells have beta 0.9, v 0.5, w 1/6, x_jam 160, c_max 20 and
    alpha 0.9 in both tuples; z_main defaults to x_main.
    """
    p = homogeneous_params(2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                           c_max=20.0, alpha=0.9)
    x = np.concatenate([x_main, np.zeros(2)])
    z = x if z_main is None else np.concatenate([z_main, np.zeros(2)])
    return _tube_flows(x, z, np.zeros(2), np.zeros(2), _primary_tuple(p),
                       _secondary_tuple(p))


class TestTildeFunctions:
    """The decomposition's sending and receiving flows, read off the kernel."""

    def test_demand_diagonal_matches_plant(self, stretch):
        assert two_cells([30.0, 0.0]).out.d[0] == 15.0

    def test_demand_ceiling_reads_second_argument(self):
        # the merge side reads the speed line at x and the ceiling at z
        assert two_cells([30.0, 0.0], [60.0, 0.0]).merge.d[0] == 15.0
        assert two_cells([50.0, 0.0], [60.0, 0.0]).merge.d[0] == 18.0

    def test_supply_matches_plant(self):
        assert two_cells([0.0, 100.0]).out.s[0] == pytest.approx(60.0 / 5.4)

    def test_supply_at_jam(self):
        assert two_cells([0.0, 160.0]).out.s[0] == 0.0

    def test_supply_clamps_above_jam(self):
        # the receiving flow stays affine; the realized flow clamps it
        flows = two_cells([30.0, 175.0])
        assert flows.out.s[0] < 0.0
        assert flows.out.f[0] == 0.0
        assert flows.merge.f[0] == 0.0


class TestDiagonal:
    def test_point_tube_is_compact_step_bitwise(self, stretch):
        rng = np.random.default_rng(3)
        x = random_state(rng, stretch, 500)
        lam = rng.uniform(0.0, 12.0, (500, 4))
        u = ramp_outflow(stretch, x, rng.uniform(0.0, 30.0, (500, 4)), lam)
        np.testing.assert_array_equal(
            lifted_point_step(stretch, x, u, lam),
            compact_step(stretch, x, u, lam))

    def test_decomposition_on_degenerate_box(self, stretch, nominal_demand):
        x = np.concatenate([equilibrium_uncongested(stretch, nominal_demand),
                            np.zeros(4)])
        lifted = LiftedState.degenerate(x)
        out = decomposition_F(lifted, nominal_demand,
                              DemandBounds.point(nominal_demand),
                              ParamBounds.point(stretch))
        np.testing.assert_array_equal(
            out, compact_step(stretch, x, nominal_demand, nominal_demand))

    def test_degenerate_lifted_step_collapses(self, stretch, nominal_demand):
        x = np.concatenate([equilibrium_uncongested(stretch, nominal_demand),
                            np.zeros(4)])
        nxt = lifted_step(LiftedState.degenerate(x), nominal_demand,
                          DemandBounds.point(nominal_demand),
                          ParamBounds.point(stretch))
        np.testing.assert_array_equal(nxt.upper, nxt.lower)


class TestDecomposition:
    def test_upper_dominates_truth_one_step(self, stretch, nominal_demand):
        x_true = np.concatenate(
            [equilibrium_uncongested(stretch, nominal_demand), np.zeros(4)])
        lifted = LiftedState(upper=x_true.copy(), lower=np.zeros(8))
        dem = DemandBounds(upper=nominal_demand * 1.1, lower=nominal_demand * 0.9)
        out = decomposition_F(lifted, nominal_demand, dem, demo_bounds())
        truth = compact_step(stretch, x_true, nominal_demand, nominal_demand)
        assert np.all(out >= truth - 1e-12)

    def test_zero_state_accumulates_demand_in_queues(self, nominal_demand):
        lifted = LiftedState.degenerate(np.zeros(8))
        dem = DemandBounds(upper=nominal_demand, lower=np.zeros(4))
        out = decomposition_F(lifted, np.zeros(4), dem, demo_bounds())
        np.testing.assert_array_equal(out[:4], np.zeros(4))
        np.testing.assert_array_equal(out[4:], nominal_demand)


class TestMonotonicityBlocks:
    def test_primary_block_raises_result(self):
        rng = np.random.default_rng(11)
        lo, hi, x_lo, x_hi, lam_lo, lam_hi = sample_tuple_pair(rng, 20_000)
        z = x_lo * rng.uniform(0.0, 1.0, x_lo.shape)
        u = rng.uniform(0.0, 10.0, (20_000, 4))
        f_small = _tube_flows(x_lo, z, u, lam_lo, as_primary(lo),
                              as_secondary(lo)).next
        f_big = _tube_flows(x_hi, z, u, lam_hi, as_primary(hi),
                            as_secondary(lo)).next
        assert np.all(f_small <= f_big + 1e-9)

    def test_secondary_block_lowers_result(self):
        rng = np.random.default_rng(13)
        lo, hi, z_lo, z_hi, lam_lo, lam_hi = sample_tuple_pair(rng, 20_000)
        x = z_lo * rng.uniform(0.0, 1.0, z_lo.shape)
        u = rng.uniform(0.0, 10.0, (20_000, 4))
        f_hi_sec = _tube_flows(x, z_hi, u, lam_lo, as_primary(lo),
                               as_secondary(hi)).next
        f_lo_sec = _tube_flows(x, z_lo, u, lam_lo, as_primary(lo),
                               as_secondary(lo)).next
        assert np.all(f_hi_sec <= f_lo_sec + 1e-9)

    def test_component_symmetry(self, stretch, nominal_demand):
        rng = np.random.default_rng(17)
        bounds = demo_bounds()
        up_state = random_state(rng, bounds.lower)[0]
        lo_state = up_state * rng.uniform(0.0, 1.0, 8)
        dem = DemandBounds(upper=nominal_demand * 1.1, lower=nominal_demand * 0.9)
        u = rng.uniform(0.0, 5.0, 4)
        stepped = lifted_step(LiftedState(up_state, lo_state), u, dem, bounds)
        # the lower component is literally the upper map with every tuple
        # exchanged, so recomputing it that way must agree exactly
        swapped_upper = _tube_flows(
            lo_state, up_state, u, dem.lower,
            _primary_tuple(bounds.lower), _secondary_tuple(bounds.upper)).next
        n = 4
        cap = np.maximum(bounds.upper.x_jam, bounds.lower.x_jam)
        swapped_upper[:n] = np.clip(swapped_upper[:n], 0.0, cap)
        swapped_upper[n:] = np.clip(swapped_upper[n:], 0.0, None)
        np.testing.assert_array_equal(stepped.lower, swapped_upper)


class TestContainment:
    def run_containment(self, seed, steps=100):
        rng = np.random.default_rng(seed)
        bounds = demo_bounds()
        true = homogeneous_params(
            4,
            beta=rng.uniform(0.7, 0.95),
            v=rng.uniform(0.4, 0.6),
            w=rng.uniform(0.1, 0.3),
            x_jam=rng.uniform(150.0, 170.0),
            c_max=rng.uniform(16.0, 24.0),
            alpha=rng.uniform(0.8, 1.0))
        lam_nom = rng.uniform(1.0, 6.0, 4)
        dem = DemandBounds(upper=lam_nom * 1.1, lower=lam_nom * 0.9)
        x = np.concatenate([rng.uniform(0.0, 60.0, 4), rng.uniform(0.0, 20.0, 4)])
        tube = LiftedState(upper=x + rng.uniform(0.0, 5.0, 8),
                           lower=np.maximum(x - rng.uniform(0.0, 5.0, 8), 0.0))
        for t in range(steps):
            lam = rng.uniform(dem.lower, dem.upper)
            u = ramp_outflow(true, x, rng.uniform(0.0, 20.0, 4), lam)
            tube = lifted_step(tube, u, dem, bounds)
            x = compact_step(true, x, u, lam)
            assert tube.contains(x), f"step {t}: truth escaped the tube"

    @pytest.mark.parametrize("seed", range(8))
    def test_random_runs_stay_bracketed(self, seed):
        self.run_containment(seed)

    def test_wider_parameter_box_gives_wider_tube(self, stretch, nominal_demand):
        narrow = ParamBounds(
            upper=homogeneous_params(4, beta=0.92, v=0.55, w=0.2, x_jam=165.0,
                                     c_max=22.0, alpha=0.95),
            lower=homogeneous_params(4, beta=0.85, v=0.45, w=0.12, x_jam=155.0,
                                     c_max=18.0, alpha=0.85))
        wide = demo_bounds()
        x = np.concatenate([np.full(4, 30.0), np.full(4, 2.0)])
        dem = DemandBounds(upper=nominal_demand * 1.05, lower=nominal_demand * 0.95)
        u = np.full(4, 3.0)
        tn = tw = LiftedState.degenerate(x)
        for _ in range(5):
            tn = lifted_step(tn, u, dem, narrow)
            tw = lifted_step(tw, u, dem, wide)
        assert np.all(tw.upper >= tn.upper - 1e-12)
        assert np.all(tw.lower <= tn.lower + 1e-12)


class TestSimulateLifted:
    """Several tube steps in a row, against the plant."""

    def test_point_box_composition_matches_plant(self, stretch, nominal_demand):
        x = np.concatenate([equilibrium_uncongested(stretch, nominal_demand),
                            np.full(4, 5.0)])
        controls = np.tile(nominal_demand * 0.8, (5, 1))
        out = LiftedState.degenerate(x)
        ref = x
        for k in range(5):
            out = lifted_step(out, controls[k], DemandBounds.point(nominal_demand),
                              ParamBounds.point(stretch))
            ref = compact_step(stretch, ref, controls[k], nominal_demand)
        np.testing.assert_array_equal(out.upper, ref)
        np.testing.assert_array_equal(out.lower, ref)


class TestParamBoundsValidation:
    def test_rejects_inverted_box(self):
        good = demo_bounds()
        with pytest.raises(ValueError):
            ParamBounds(upper=good.lower, lower=good.upper)

    def test_rejects_overreactive_waves(self):
        fast = homogeneous_params(4, beta=0.9, v=0.8, w=0.4, x_jam=160.0,
                                  c_max=20.0, alpha=0.9)
        with pytest.raises(ValueError):
            ParamBounds(upper=fast, lower=fast)

    def test_point_box_flags(self, stretch):
        box = ParamBounds.point(stretch)
        assert box.is_point
        assert not demo_bounds().is_point
