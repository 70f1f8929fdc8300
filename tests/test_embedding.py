"""Tube dynamics: diagonal exactness, monotonicity blocks, containment."""

from types import SimpleNamespace

import numpy as np
import pytest

from rampflow.ctm import (
    RANGE_RULES,
    FreewayParams,
    _rules_hold,
    compact_step,
    equilibrium_uncongested,
)
from rampflow.embedding import (
    PARAM_FIELDS,
    DemandBounds,
    LiftedState,
    ParamBounds,
    _box_admissible,
    _clamped_step,
    _pair,
    _tube_flows,
    lifted_step,
)

from conftest import (homogeneous_params, point_demand, point_state, ramp_discharge,
                      random_state)


def demo_bounds() -> ParamBounds:
    mk = lambda b, v, w, xj, c, a: homogeneous_params(
        4, beta=b, v=v, w=w, x_jam=xj, c_max=c, alpha=a)
    return ParamBounds(
        upper=mk(0.95, 0.6, 0.3, 170.0, 24.0, 1.0),
        lower=mk(0.70, 0.4, 0.1, 150.0, 16.0, 0.8))


def sample_set_pair(rng, n, cells=4):
    """Two componentwise-ordered parameter sets, each with a state and an
    arrival vector, all broadcast-ready with shape (n, cells)."""
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
    return SimpleNamespace(**lo), SimpleNamespace(**hi), x_lo, x_hi, lam_lo, lam_hi


def upper_next(lifted, u, demand, bounds):
    """Upper component of the tube map, before clamping (the lower one is
    the same call with the states and the sets exchanged)."""
    return _tube_flows(lifted.upper, lifted.lower, u, demand.upper,
                       bounds.upper, bounds.lower).next


def two_cells(x_main, z_main=None):
    """Kernel step of a two-cell demo stretch at the given occupancies.

    The cells have beta 0.9, v 0.5, w 1/6, x_jam 160, c_max 20 and
    alpha 0.9 in both sets; z_main defaults to x_main.
    """
    p = homogeneous_params(2, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0,
                           c_max=20.0, alpha=0.9)
    x = np.concatenate([x_main, np.zeros(2)])
    z = x if z_main is None else np.concatenate([z_main, np.zeros(2)])
    return _tube_flows(x, z, np.zeros(2), np.zeros(2), p, p)


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
        u = ramp_discharge(stretch, x, rng.uniform(0.0, 30.0, (500, 4)), lam)
        np.testing.assert_array_equal(
            _tube_flows(x, x, u, lam, stretch, stretch).next,
            compact_step(stretch, x, u, lam))

    def test_decomposition_on_degenerate_box(self, stretch, nominal_demand):
        x = np.concatenate([equilibrium_uncongested(stretch, nominal_demand),
                            np.zeros(4)])
        lifted = point_state(x)
        out = upper_next(lifted, nominal_demand,
                         point_demand(nominal_demand),
                         ParamBounds(stretch, stretch))
        np.testing.assert_array_equal(
            out, compact_step(stretch, x, nominal_demand, nominal_demand))

    def test_degenerate_lifted_step_collapses(self, stretch, nominal_demand):
        x = np.concatenate([equilibrium_uncongested(stretch, nominal_demand),
                            np.zeros(4)])
        nxt = lifted_step(point_state(x), nominal_demand,
                          point_demand(nominal_demand),
                          ParamBounds(stretch, stretch))
        np.testing.assert_array_equal(nxt.upper, nxt.lower)


class TestDecomposition:
    def test_upper_dominates_truth_one_step(self, stretch, nominal_demand):
        x_true = np.concatenate(
            [equilibrium_uncongested(stretch, nominal_demand), np.zeros(4)])
        lifted = LiftedState(upper=x_true.copy(), lower=np.zeros(8))
        dem = DemandBounds(upper=nominal_demand * 1.1, lower=nominal_demand * 0.9)
        out = upper_next(lifted, nominal_demand, dem, demo_bounds())
        truth = compact_step(stretch, x_true, nominal_demand, nominal_demand)
        assert np.all(out >= truth - 1e-12)

    def test_zero_state_accumulates_demand_in_queues(self, nominal_demand):
        lifted = point_state(np.zeros(8))
        dem = DemandBounds(upper=nominal_demand, lower=np.zeros(4))
        out = upper_next(lifted, np.zeros(4), dem, demo_bounds())
        np.testing.assert_array_equal(out[:4], np.zeros(4))
        np.testing.assert_array_equal(out[4:], nominal_demand)


class TestMonotonicityBlocks:
    def test_primary_block_raises_result(self):
        rng = np.random.default_rng(11)
        lo, hi, x_lo, x_hi, lam_lo, lam_hi = sample_set_pair(rng, 20_000)
        z = x_lo * rng.uniform(0.0, 1.0, x_lo.shape)
        u = rng.uniform(0.0, 10.0, (20_000, 4))
        f_small = _tube_flows(x_lo, z, u, lam_lo, lo, lo).next
        f_big = _tube_flows(x_hi, z, u, lam_hi, hi, lo).next
        assert np.all(f_small <= f_big + 1e-9)

    def test_secondary_block_lowers_result(self):
        rng = np.random.default_rng(13)
        lo, hi, z_lo, z_hi, lam_lo, lam_hi = sample_set_pair(rng, 20_000)
        x = z_lo * rng.uniform(0.0, 1.0, z_lo.shape)
        u = rng.uniform(0.0, 10.0, (20_000, 4))
        f_hi_sec = _tube_flows(x, z_hi, u, lam_lo, lo, hi).next
        f_lo_sec = _tube_flows(x, z_lo, u, lam_lo, lo, lo).next
        assert np.all(f_hi_sec <= f_lo_sec + 1e-9)

    def test_component_symmetry(self, stretch, nominal_demand):
        rng = np.random.default_rng(17)
        bounds = demo_bounds()
        up_state = random_state(rng, bounds.lower)[0]
        lo_state = up_state * rng.uniform(0.0, 1.0, 8)
        dem = DemandBounds(upper=nominal_demand * 1.1, lower=nominal_demand * 0.9)
        u = rng.uniform(0.0, 5.0, 4)
        stepped = lifted_step(LiftedState(up_state, lo_state), u, dem, bounds)
        # the lower component is literally the upper map with the states and
        # the sets exchanged, so recomputing it that way must agree exactly
        swapped_upper = _tube_flows(
            lo_state, up_state, u, dem.lower, bounds.lower, bounds.upper).next
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
            u = ramp_discharge(true, x, rng.uniform(0.0, 20.0, 4), lam)
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
        tn = tw = point_state(x)
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
        out = point_state(x)
        ref = x
        for k in range(5):
            out = lifted_step(out, controls[k], point_demand(nominal_demand),
                              ParamBounds(stretch, stretch))
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
        box = ParamBounds(stretch, stretch)
        assert box.is_point
        assert not demo_bounds().is_point


def _edge_stack(rng, m, cells):
    """m candidate boxes whose corners now and then sit exactly on a range
    limit, on its 1e-12 tolerance, or one float past either."""
    def pick(interior, *edges):
        """Put a few entries on one of the edges, some of those one float off."""
        which = np.where(rng.random(interior.shape) < 0.03,
                         rng.integers(1, 1 + len(edges), interior.shape), 0)
        out = interior.copy()
        for k, edge in enumerate(edges, start=1):
            off = np.nextafter(edge, rng.choice([-np.inf, np.inf], interior.shape))
            out = np.where(which == k, np.where(rng.random(interior.shape) < 0.5, edge, off),
                           out)
        return out

    shape = (m, cells)
    upper = {
        "beta": pick(rng.uniform(0.05, 0.95, (m, cells - 1)), 0.0, 1.0),
        "v": pick(rng.uniform(0.1, 1.0, shape), 1.0, 0.0),
        "x_jam": pick(rng.uniform(50.0, 200.0, shape), 0.0),
        "alpha": pick(rng.uniform(0.2, 1.0, shape), 1.0, 0.0),
        "u_max": pick(rng.uniform(0.0, 40.0, shape), 0.0),
    }
    upper["w"] = pick(rng.uniform(0.05, 1.0, shape) * (1.0 - upper["v"]),
                      1.0 + 1e-12 - upper["v"], 1.0)
    upper["c_max"] = pick(upper["v"] * upper["x_jam"] * rng.uniform(0.1, 1.0, shape),
                          upper["v"] * upper["x_jam"] * (1.0 + 1e-12),
                          upper["v"] * upper["x_jam"])
    lower = {}
    for name, up in upper.items():
        # inside the upper corner, equal to it, or on the 1e-12 order tolerance
        lower[name] = pick(up * rng.uniform(0.5, 1.0, up.shape), up, up + 1e-12)
    lower["c_max"] = pick(lower["c_max"], lower["v"] * lower["x_jam"] * (1.0 + 1e-12))
    return lower, upper


# speeds of 0 and one float above it make the c_max / v rule divide by zero
# or overflow; the rules still reject those boxes
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_range_predicate_agrees_with_construction():
    """_box_admissible answers for a stack of boxes what constructing each
    one's FreewayParams corners and ParamBounds answers."""
    rng = np.random.default_rng(23)
    accepted = rejected = 0
    for cells in (1, 2, 4):
        lower, upper = _edge_stack(rng, 4000, cells)
        verdicts = _box_admissible(
            _pair({f: np.array([upper[f], lower[f]]) for f in upper})[0])
        assert verdicts.shape == (4000,)
        for k, verdict in enumerate(verdicts):
            try:
                ParamBounds(upper=FreewayParams(**{f: a[k] for f, a in upper.items()}),
                            lower=FreewayParams(**{f: a[k] for f, a in lower.items()}))
                built = True
            except ValueError:
                built = False
            assert verdict == built, (cells, k)
            accepted += built
            rejected += not built
    assert accepted > 500 and rejected > 500


def _mixed_pair(lower, upper, unstacked, row=0):
    """The boxes' (primary, secondary) pair as the contraction stacks its
    probes: the fields in unstacked keep only the given row, so their
    corners have shape (cells,) next to the others' (rows, cells); returns
    the pair and the corners as the kernel reads them one at a time."""
    corners = []
    for side in (upper, lower):
        corners.append({f: a[row] if f in unstacked else a for f, a in side.items()})
    up, lo = corners
    pair = _pair({f: np.array([up[f], lo[f]]) if f not in unstacked
                  else np.array([up[f], lo[f]])[:, None] for f in up})
    return pair, SimpleNamespace(**up), SimpleNamespace(**lo)


@pytest.mark.parametrize("seed", range(4))
def test_the_stacked_step_is_both_component_calls_clamped(seed):
    """One _clamped_step call on the stacked bracket gives, bit for bit, the
    two per-component kernel calls with the states and the sets exchanged,
    each clamped to [0, x_jam] on the mainline and to [0, inf) on the
    queues, with probe fields of shape (rows, cells) next to box fields of
    shape (cells,)."""
    rng = np.random.default_rng(100 + seed)
    rows, cells = 49, 4
    lo, hi, x_lo, x_hi, lam_lo, lam_hi = sample_set_pair(rng, rows, cells)
    unstacked = set(rng.choice(PARAM_FIELDS, 3, replace=False))
    # mainlines past the jam bound and queues the discharge overdraws make
    # both clamps engage
    x_hi[:, :cells] *= rng.choice([1.0, 1.5], (rows, cells))
    u = rng.uniform(0.0, 40.0, cells)
    pair, upper, lower = _mixed_pair(vars(lo), vars(hi), unstacked)
    x = np.array([x_hi, x_lo])
    step = _clamped_step(x.copy(), u, np.array([lam_hi[0], lam_lo[0]]), pair)
    cap = np.maximum(upper.x_jam, lower.x_jam)
    engaged = 0
    for k, (own, other, lam, prim, sec) in enumerate(
            ((x_hi, x_lo, lam_hi[0], upper, lower), (x_lo, x_hi, lam_lo[0], lower, upper))):
        ref = _tube_flows(own, other, u, lam, prim, sec).next
        clamped = ref.copy()
        clamped[:, :cells] = np.clip(ref[:, :cells], 0.0, cap)
        clamped[:, cells:] = np.clip(ref[:, cells:], 0.0, None)
        engaged += np.count_nonzero(clamped != ref)
        assert np.array_equal(step[k], clamped), k
        assert step[k].tobytes() == clamped.tobytes(), k  # zero signs too
    assert step.shape == (2, rows, 2 * cells) and engaged > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_pair_rules_are_the_per_corner_rules():
    """_box_admissible over a pair with stacked and unstacked fields equals
    the range rules evaluated on each corner and the box rules written out
    per corner."""
    rng = np.random.default_rng(29)
    for cells in (1, 2, 4):
        lower, upper = _edge_stack(rng, 2000, cells)
        unstacked = set(rng.choice([*PARAM_FIELDS, "u_max"], 3, replace=False))
        # the unstacked fields come from an admissible box, so that the
        # stacked ones decide
        whole = _box_admissible(_pair({f: np.array([upper[f], lower[f]]) for f in upper})[0])
        pair, up, lo = _mixed_pair(lower, upper, unstacked, row=int(np.argmax(whole)))
        ordered = np.bool_(True)
        for f in PARAM_FIELDS:
            ordered = ordered & ~np.any(getattr(lo, f) > getattr(up, f) + 1e-12, axis=-1)
        ref = (_rules_hold(RANGE_RULES, up) & _rules_hold(RANGE_RULES, lo) & ordered
               & ~np.any(up.v + up.w > 1.0 + 1e-12, axis=-1))
        got = _box_admissible(pair[0])
        assert got.shape == (2000,) and np.array_equal(got, ref)
        assert 0 < np.count_nonzero(got) < got.size
