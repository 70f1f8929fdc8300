"""Closed-loop metering policies.

The centerpiece is ``setpc_step``, one tick of the set-membership predictive
controller: correct the state box against the new measurement, contract the
parameter box, compute a control (horizon planner while outside the terminal
set, local demand tracking inside), and push the corrected box through the
tube dynamics to predict the next step. The arrival box is fixed for the
whole run; the measurement window holds it. The baselines (ALINEA, open
loop, bare local tracking) are standalone functions so the harness can run
them against the same estimation stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import LiftedState, ParamBounds, lifted_step
from .estimators import (EstimatorConfig, MeasurementWindow, state_update,
                         theta_update)
from .milp import MilpBudget
from .mpc import MpcConfig, TerminalSet, solve_mpc

PHASE_MPC = "mpc"
PHASE_LOCAL = "local"
PHASE_WARMUP = "warmup"

# one-hour integral gain translated to per-step units on the demo cell size
ALINEA_GAIN = 70.0 / (60.0 * 160.0)


@dataclass(frozen=True)
class AlineaConfig:
    """Integral feedback on the merge-cell occupancy estimate.

    The update is u(t) = u(t-1) - gain * (setpoint - estimate), applied per
    ramp and clipped into the control box afterwards. Note the sign: an
    estimate below the setpoint lowers the rate. Leaving setpoint as None
    targets each cell's critical occupancy.
    """

    gain: float
    setpoint: np.ndarray | None

    def __post_init__(self):
        if self.gain < 0.0:
            raise ValueError("gain must be nonnegative")


@dataclass(frozen=True)
class LocalConfig:
    """Demand-tracking law: serve the reconstructed arrivals, plus a small
    drain offset while queues persist."""

    averaging_window: int
    epsilon: float

    def __post_init__(self):
        if int(self.averaging_window) != self.averaging_window or self.averaging_window < 1:
            raise ValueError("averaging_window must be an integer >= 1")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")


@dataclass(frozen=True)
class SetPcConfig:
    """Everything one Set-PC loop needs beyond its mutable state.

    The loop is always dual-mode: a tick whose corrected upper estimate lies
    in ``terminal`` (``TerminalSet.contains``, inclusive) runs the ``local``
    law once the window holds two readings, any other tick plans with
    ``mpc`` under ``budget``.
    """

    mpc: MpcConfig
    terminal: TerminalSet
    estimator: EstimatorConfig
    local: LocalConfig
    budget: MilpBudget


@dataclass(frozen=True)
class SetPcState:
    """Carried between ticks: the predicted box, the parameter box, the
    shared measurement window (which holds the arrival box), and the last
    executed control."""

    predicted: LiftedState
    params: ParamBounds
    window: MeasurementWindow
    last_control: np.ndarray | None = None


@dataclass(frozen=True)
class StepDiagnostics:
    """What the harness records of a tick: the plan's value (NaN when no
    plan ran), the phase and the corrected state box."""

    value: float
    phase: str
    corrected: LiftedState


def open_loop_step(lam_nominal, u_max) -> np.ndarray:
    """Meter at the nominal arrival rate, ignoring all measurements."""
    lam = np.asarray(lam_nominal, dtype=float)
    return np.clip(lam, 0.0, np.asarray(u_max, dtype=float))


def alinea_step(prev_u, merge_estimates, params, cfg: AlineaConfig) -> np.ndarray:
    """One ALINEA tick from the merge-cell occupancy estimates."""
    prev_u = np.asarray(prev_u, dtype=float)
    est = np.asarray(merge_estimates, dtype=float)
    setpoint = params.x_crit if cfg.setpoint is None else np.asarray(cfg.setpoint, dtype=float)
    u = prev_u - cfg.gain * (setpoint - est)
    return np.clip(u, 0.0, params.u_max)


def local_controller(queue_history, control_history, cfg: LocalConfig,
                     *, u_max) -> np.ndarray:
    """Serve the demand reconstructed from queue movement.

    Each recorded transition reveals the arrivals exactly: what joined the
    queue is its change plus what was discharged, lam(k) = q(k) - q(k-1)
    + u(k-1). The command is the mean of the latest reconstructions (up to
    averaging_window of them), plus the drain offset epsilon while any
    queue is still standing; with a single-step window and constant
    arrivals this telescopes to the arrivals themselves after one step.
    The command is clipped into [0, u_max].
    """
    queues = [np.asarray(q, dtype=float) for q in queue_history]
    controls = [np.asarray(u, dtype=float) for u in control_history]
    if len(queues) < 2 or len(controls) < len(queues) - 1:
        raise ValueError("need at least two queue readings and the control between them")
    depth = min(cfg.averaging_window, len(queues) - 1)
    recon = [queues[-k] - queues[-k - 1] + controls[-k] for k in range(1, depth + 1)]
    u = np.mean(recon, axis=0)
    if np.any(queues[-1] > 0.0):
        u = u + cfg.epsilon
    return np.clip(u, 0.0, np.asarray(u_max, dtype=float))


def _ingest(state: SetPcState, y, config: SetPcConfig):
    """Measurement correction, window push, parameter contraction."""
    window = state.window
    corrected = state_update(state.predicted, y, window.output_model)
    window.push(corrected, y, control=state.last_control)
    theta = theta_update(window, state.params, config.estimator)
    return corrected, theta


def _dispatch(state, corrected, theta, command, *, phase, value):
    """Clamp the command, predict the next box, assemble the successor."""
    window = state.window
    n = window.output_model.mainline_mask.shape[0]
    cap = corrected.lower[n:] + window.demand.lower
    u_exec = np.clip(command, 0.0, np.minimum(cap, theta.upper.u_max))
    predicted = lifted_step(corrected, u_exec, window.demand, theta)
    successor = SetPcState(predicted=predicted, params=theta, window=window,
                           last_control=u_exec)
    return u_exec, successor, StepDiagnostics(value, phase, corrected)


def setpc_step(state: SetPcState, y, config: SetPcConfig):
    """One tick of the set-membership predictive loop.

    Runs, in order: the measurement correction, the parameter contraction,
    the phase decision and control computation, and the tube prediction for
    the next tick. The local law reads a queue transition, so a tick plans
    until the window holds two readings, even inside the terminal set. The
    executed control is clamped to the guaranteed service bound
    min(u, q-lower + lam-lower) so the plant's ramp discharge equals the
    command exactly and containment carries over.
    Returns (executed control, successor state, diagnostics); estimator and
    solver errors propagate.
    """
    corrected, theta = _ingest(state, y, config)
    phase = (PHASE_LOCAL if len(state.window) > 1
             and config.terminal.contains(corrected.upper) else PHASE_MPC)

    if phase == PHASE_MPC:
        result = solve_mpc(corrected, state.window.demand, theta, config.mpc,
                           config.terminal, budget=config.budget)
        command = result.u
        value = result.value
    else:
        queue_history = [np.asarray(obs.y_ramp, dtype=float)
                         for obs in state.window.observations]
        command = local_controller(queue_history, state.window.controls,
                                   config.local, u_max=theta.upper.u_max)
        value = math.nan

    return _dispatch(state, corrected, theta, command, phase=phase,
                     value=value)


def forced_step(state: SetPcState, y, config: SetPcConfig, command):
    """Estimator tick with an externally chosen command.

    Used to prime the measurement window before the planner takes over:
    the full correction, contraction and prediction pipeline runs, but the
    command is whatever the caller supplies (still clamped to the service
    bound). The diagnostics carry ``PHASE_WARMUP`` as their phase.
    """
    corrected, theta = _ingest(state, y, config)
    return _dispatch(state, corrected, theta, command, phase=PHASE_WARMUP,
                     value=math.nan)
