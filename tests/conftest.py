import numpy as np
import pytest

from rampflow.ctm import FreewayParams, OutputModel, mainline_outflow, ramp_outflow
from rampflow.embedding import DemandBounds, LiftedState


def homogeneous_params(n_cells: int, *, beta: float, v: float, w: float,
                       x_jam: float, c_max: float, alpha: float,
                       u_max: float = 40.0) -> FreewayParams:
    """A stretch with identical cells."""
    return FreewayParams(
        beta=np.full(n_cells - 1, beta),
        v=np.full(n_cells, v),
        w=np.full(n_cells, w),
        x_jam=np.full(n_cells, x_jam),
        c_max=np.full(n_cells, c_max),
        alpha=np.full(n_cells, alpha),
        u_max=np.full(n_cells, u_max),
    )


def ramp_discharge(params: FreewayParams, x, u, lam) -> np.ndarray:
    """``ramp_outflow`` after the mainline flows of the state x itself."""
    x = np.asarray(x, dtype=float)
    return ramp_outflow(params, x, u, lam,
                        mainline_outflow(params, x[..., :params.n_cells]))


def point_state(x) -> LiftedState:
    """The box [x, x]. Its corners are copies, since the box does not copy."""
    x = np.asarray(x, dtype=float)
    return LiftedState(upper=x.copy(), lower=x.copy())


def point_demand(lam) -> DemandBounds:
    """The arrival box [lam, lam], with copied corners."""
    lam = np.asarray(lam, dtype=float)
    return DemandBounds(upper=lam.copy(), lower=lam.copy())


def full_output(n_cells: int) -> OutputModel:
    """A unit-gain detector on every mainline cell."""
    return OutputModel(np.ones(n_cells, dtype=bool), np.ones(n_cells))


@pytest.fixture
def stretch() -> FreewayParams:
    """Four homogeneous cells; the demo configuration used across the suite."""
    return homogeneous_params(
        4, beta=0.9, v=0.5, w=1.0 / 6.0, x_jam=160.0, c_max=20.0, alpha=0.9)


@pytest.fixture
def nominal_demand() -> np.ndarray:
    return np.array([19.17, 1.67, 1.67, 1.67])


def random_params(rng: np.random.Generator, n_cells: int = 4,
                  *, no_drop: bool = False, wave_sum_cap: bool = False) -> FreewayParams:
    """Draw a random parameter set that passes validation.

    wave_sum_cap additionally enforces v + w <= 1, which the monotonicity
    results need; plain step invariance does not.
    """
    v = rng.uniform(0.05, 0.95, n_cells)
    if wave_sum_cap:
        w = rng.uniform(0.05, 1.0 - v)
    else:
        w = rng.uniform(0.05, 1.0, n_cells)
    x_crit = rng.uniform(5.0, 100.0, n_cells)
    return FreewayParams(
        beta=rng.uniform(0.1, 0.9, n_cells - 1),
        v=v,
        w=w,
        x_jam=x_crit * rng.uniform(1.0, 3.0, n_cells),
        c_max=v * x_crit,
        alpha=np.ones(n_cells) if no_drop else rng.uniform(0.2, 1.0, n_cells),
        u_max=np.full(n_cells, 40.0),
    )


def random_state(rng: np.random.Generator, params: FreewayParams,
                 size: int = 1) -> np.ndarray:
    main = rng.uniform(0.0, params.x_jam, (size, params.n_cells))
    queues = rng.uniform(0.0, 60.0, (size, params.n_cells))
    return np.concatenate([main, queues], axis=-1)
