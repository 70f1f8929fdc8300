"""Discrete-time cell-transmission freeway model with metered on-ramps.

The freeway is a line of I cells, each fed by one metered on-ramp. The state
vector stacks mainline occupancies first and ramp queues second, so it has
2I entries. Flows are in vehicles per step; one step is one simulation tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class AdmissibilityError(ValueError):
    """Demand cannot be served by the mainline at an uncongested equilibrium."""


def _as_float_vector(name: str, value, length: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float)).copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


# The physical ranges of a parameter set, as (message, rule) pairs in the
# order construction checks them. A rule flags the entries that break it;
# cells sit on the last axis, so it flags a whole stack of candidate sets
# (fields with leading axes) in one call.
RANGE_RULES = (
    ("beta must lie strictly inside (0, 1)", lambda p: (p.beta <= 0.0) | (p.beta >= 1.0)),
    ("v must lie in (0, 1] (step invariance)", lambda p: (p.v <= 0.0) | (p.v > 1.0)),
    ("w must lie in (0, 1] (step invariance)", lambda p: (p.w <= 0.0) | (p.w > 1.0)),
    ("x_jam must be positive", lambda p: p.x_jam <= 0.0),
    ("c_max must be positive", lambda p: p.c_max <= 0.0),
    ("alpha must lie in (0, 1]", lambda p: (p.alpha <= 0.0) | (p.alpha > 1.0)),
    ("u_max must be nonnegative", lambda p: p.u_max < 0.0),
    ("critical occupancy c_max/v must not exceed x_jam",
     lambda p: p.c_max / p.v > p.x_jam * (1.0 + 1e-12)),
)


def _raise_broken(rules, *args) -> None:
    """Raise ValueError with the message of the first rule that args break."""
    for message, rule in rules:
        if np.any(rule(*args)):
            raise ValueError(message)


def _rules_hold(rules, *args) -> np.ndarray:
    """Per index of the leading axes of args, whether every rule holds."""
    held = np.bool_(True)
    for _, rule in rules:
        held = held & ~np.any(rule(*args), axis=-1)
    return held


@dataclass(frozen=True)
class FreewayParams:
    """Static description of one freeway stretch.

    beta[i] is the fraction of cell i's outflow that continues to cell i+1
    (the rest exits at the off-ramp between them). v and w are the free-flow
    and congestion-wave speeds in cells per step; the step invariance
    condition requires both to lie in (0, 1]. x_jam and c_max are per-cell
    jam occupancy and capacity, alpha is the post-drop capacity fraction,
    and u_max bounds each ramp's metering rate.
    """

    beta: np.ndarray
    v: np.ndarray
    w: np.ndarray
    x_jam: np.ndarray
    c_max: np.ndarray
    alpha: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        v = _as_float_vector("v", self.v)
        n = v.shape[0]
        if n < 1:
            raise ValueError("at least one cell is required")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "beta", _as_float_vector("beta", self.beta, n - 1))
        object.__setattr__(self, "w", _as_float_vector("w", self.w, n))
        object.__setattr__(self, "x_jam", _as_float_vector("x_jam", self.x_jam, n))
        object.__setattr__(self, "c_max", _as_float_vector("c_max", self.c_max, n))
        object.__setattr__(self, "alpha", _as_float_vector("alpha", self.alpha, n))
        object.__setattr__(self, "u_max", _as_float_vector("u_max", self.u_max, n))
        _raise_broken(RANGE_RULES, self)

    @property
    def n_cells(self) -> int:
        return self.v.shape[0]

    @property
    def x_crit(self) -> np.ndarray:
        """Occupancy at which the demand curve saturates, c_max / v."""
        return self.c_max / self.v


def split_state(x: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked state into (mainline, queues)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2 * n_cells:
        raise ValueError(f"state must have {2 * n_cells} entries, got {x.shape[-1]}")
    return x[..., :n_cells], x[..., n_cells:]


def demand_fn(params: FreewayParams, x_main: np.ndarray) -> np.ndarray:
    """Per-cell sending flow min{v x, xi(x)}.

    The flow ceiling xi equals c_max while the cell is at or below its
    critical occupancy and drops to alpha*c_max strictly above it. The
    boundary point belongs to the no-drop branch; every module that needs
    the drop switch defers to this convention. Occupancies outside
    [0, x_jam] by more than 1e-9 are rejected.
    """
    x_main = np.asarray(x_main, dtype=float)
    if np.any(x_main < -1e-9) or np.any(x_main > params.x_jam + 1e-9):
        raise ValueError("occupancy outside [0, x_jam]")
    xi = np.where(x_main <= params.x_crit, params.c_max, params.alpha * params.c_max)
    return np.minimum(params.v * x_main, xi)


def _receiving_supply(params: FreewayParams, x_main: np.ndarray) -> np.ndarray:
    """Supply of cells 2..I for the mainline flow leaving cells 1..I-1."""
    gap = params.x_jam[..., 1:] - x_main[..., 1:]
    return np.minimum((params.w[..., 1:] / params.beta) * gap, params.c_max[..., :-1])


def mainline_outflow(params: FreewayParams, x_main: np.ndarray) -> np.ndarray:
    """Realized mainline flow out of each cell: demand capped by downstream supply."""
    d = demand_fn(params, x_main)
    f = d.copy()
    f[..., :-1] = np.minimum(d[..., :-1], _receiving_supply(params, x_main))
    return f


def ramp_outflow(params: FreewayParams, x: np.ndarray, u: np.ndarray,
                 lam: np.ndarray, f_out: np.ndarray) -> np.ndarray:
    """Vehicles each ramp actually discharges this step.

    The discharge is the commanded rate capped by what is waiting
    (queue + fresh arrivals) and by the space left in the target cell after
    the mainline flows f_out (``mainline_outflow`` of x) of the current step
    are accounted for.
    """
    main, queues = split_state(x, params.n_cells)
    upstream = np.zeros_like(main)
    upstream[..., 1:] = params.beta * f_out[..., :-1]
    space = params.x_jam - (main + upstream - f_out)
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return np.minimum(np.minimum(u, queues + lam), space)


def plant_step(params: FreewayParams, x: np.ndarray, u: np.ndarray,
               lam: np.ndarray) -> np.ndarray:
    """Advance the full plant one step: ``compact_step`` under the ramp
    discharge that queue and space allow."""
    f_out = mainline_outflow(params, split_state(x, params.n_cells)[0])
    return _advance(params, x, ramp_outflow(params, x, u, lam, f_out), lam, f_out)


def compact_step(params: FreewayParams, x: np.ndarray, u: np.ndarray,
                 lam: np.ndarray) -> np.ndarray:
    """Advance assuming every ramp discharges exactly its commanded rate u.

    Valid only when u_i <= queue_i + lambda_i and the merge fits into the
    target cell; these are the constraints a metering controller is expected
    to enforce, and they are checked here, to within 1e-9, rather than
    silently repaired.
    """
    f_out = mainline_outflow(params, split_state(x, params.n_cells)[0])
    return _advance(params, x, u, lam, f_out)


def _advance(params: FreewayParams, x: np.ndarray, u: np.ndarray, lam: np.ndarray,
             f_out: np.ndarray) -> np.ndarray:
    """The checked state update of ``compact_step``, given the mainline
    outflow f_out of x (``mainline_outflow``), which the caller computes once."""
    tol = 1e-9
    main, queues = split_state(x, params.n_cells)
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(u < -tol) or np.any(u > queues + lam + tol):
        raise ValueError("commanded rate exceeds queue plus arrivals")
    inflow = u.copy()
    inflow[..., 1:] += params.beta * f_out[..., :-1]
    next_main = (main + inflow) - f_out
    if np.any(next_main > params.x_jam + tol):
        raise ValueError("merge would overflow a mainline cell")
    next_queues = (queues + lam) - u
    return np.concatenate([next_main, next_queues], axis=-1)


def equilibrium_flow(params: FreewayParams, lam: np.ndarray) -> np.ndarray:
    """Mainline flow sustaining constant demand lam: f_i = lam_i + beta f_{i-1}."""
    lam = np.asarray(lam, dtype=float)
    f = np.empty_like(lam)
    f[0] = lam[0]
    for i in range(1, params.n_cells):
        f[i] = lam[i] + params.beta[i - 1] * f[i - 1]
    return f


def equilibrium_uncongested(params: FreewayParams, lam: np.ndarray) -> np.ndarray:
    """Uncongested equilibrium occupancy x_unc = f_eq / v; errors if infeasible."""
    f_eq = equilibrium_flow(params, lam)
    excess = f_eq - params.c_max
    if np.any(excess > 1e-9):
        worst = int(np.argmax(excess))
        raise AdmissibilityError(
            f"equilibrium flow {f_eq[worst]:.6g} exceeds capacity "
            f"{params.c_max[worst]:.6g} in cell {worst + 1}")
    return f_eq / params.v


@dataclass(frozen=True)
class OutputModel:
    """Which mainline cells carry a detector, and that detector's gain.

    Ramp queues are always observed exactly; mainline cell i reports
    c_diag[i] * x_i when mainline_mask[i] is set and nothing otherwise.
    """

    mainline_mask: np.ndarray
    c_diag: np.ndarray

    def __post_init__(self):
        mask = np.atleast_1d(np.asarray(self.mainline_mask, dtype=bool)).copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mainline_mask", mask)
        object.__setattr__(
            self, "c_diag", _as_float_vector("c_diag", self.c_diag, mask.shape[0]))
        if np.any(self.c_diag[mask] <= 0.0):
            raise ValueError("measured cells need a positive gain")


@dataclass(frozen=True)
class Observation:
    """One measurement: y_main has NaN where the cell carries no detector."""

    y_main: np.ndarray = field(repr=False)
    y_ramp: np.ndarray = field(repr=False)


def measure(model: OutputModel, x: np.ndarray) -> Observation:
    n = model.mainline_mask.shape[0]
    main, queues = split_state(np.asarray(x, dtype=float), n)
    y_main = np.where(model.mainline_mask, model.c_diag * main, np.nan)
    return Observation(y_main=y_main, y_ramp=queues.copy())
