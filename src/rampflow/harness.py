"""Scenario files, closed-loop runs and trajectory logs.

A scenario is a small block-structured text file (see docs/scenario-format.md)
naming the stretch, the arrival process, the initial uncertainty boxes and the
controller. :func:`load_scenario` turns a preset name or a path into a
:class:`Scenario`; :func:`run_closed_loop` drives the chosen controller
against the plant and records every tick into an
:class:`~rampflow.analysis.TrajectoryLog`; :func:`emit_csv` and
:func:`read_log` move logs to disk and back so the certificate checks can run
on files rather than live objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import TrajectoryLog
from .controllers import (
    ALINEA_GAIN,
    AlineaConfig,
    LocalConfig,
    SetPcConfig,
    SetPcState,
    alinea_step,
    forced_step,
    local_controller,
    open_loop_step,
    setpc_step,
)
from .ctm import (
    AdmissibilityError,
    FreewayParams,
    OutputModel,
    compact_step,
    measure,
    plant_step,
)
from .embedding import PARAM_FIELDS, DemandBounds, LiftedState, ParamBounds
from .estimators import (
    ContainmentViolation,
    EstimatorConfig,
    MeasurementWindow,
    state_update,
)
from .milp import MilpBudget, NumericalBreakdown
from .mpc import (
    CostSpec,
    InfeasibleProblem,
    MpcConfig,
    SolveBudgetExceeded,
    TerminalSet,
    choose_terminal_weights,
    compute_xup,
)

DEMAND_CONSTANT = "constant"
DEMAND_PERIODIC = "periodic"

CTRL_SETPC = "setpc"
CTRL_ALINEA = "alinea"
CTRL_OPENLOOP = "openloop"
CTRL_LOCAL = "local"
CONTROLLERS = (CTRL_SETPC, CTRL_ALINEA, CTRL_OPENLOOP, CTRL_LOCAL)

# the typed reasons a closed loop stops for
LOOP_STOPS = (InfeasibleProblem, SolveBudgetExceeded, ContainmentViolation,
              NumericalBreakdown)

TERMINAL_MAINLINE = "mainline"
TERMINAL_DRAINED = "drained"

# stand-in queue cap for controllers that carry no model of the queues
WIDE_QUEUE_BOUND = 1e9


class ScenarioError(ValueError):
    """Malformed scenario text; carries the offending line number."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# ---------------------------------------------------------------------------
# the block grammar


def _parse_blocks(text: str) -> dict[str, dict[str, tuple[int, list[str]]]]:
    """Split scenario text into ``block -> key -> (line, tokens)``."""
    blocks: dict[str, dict[str, tuple[int, list[str]]]] = {}
    current: str | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            name = line[:-1].strip()
            if current is not None:
                raise ScenarioError(line_no, f"block {current!r} is still open")
            if not name or " " in name:
                raise ScenarioError(line_no, "expected 'name {' to open a block")
            if name in blocks:
                raise ScenarioError(line_no, f"duplicate block {name!r}")
            blocks[name] = {}
            current = name
        elif line == "}":
            if current is None:
                raise ScenarioError(line_no, "'}' without an open block")
            current = None
        else:
            if current is None:
                raise ScenarioError(line_no, f"text outside any block: {line!r}")
            key, *tokens = line.split()
            if key in blocks[current]:
                raise ScenarioError(line_no, f"duplicate key {key!r} in block {current!r}")
            blocks[current][key] = (line_no, tokens)
    if current is not None:
        raise ScenarioError(None, f"block {current!r} never closed")
    return blocks


class _Block:
    """Typed, consuming view of one parsed block."""

    def __init__(self, name: str, entries: dict[str, tuple[int, list[str]]]):
        self.name = name
        self.entries = entries
        self.used: set[str] = set()

    def _take(self, key: str) -> tuple[int, list[str]] | None:
        if key not in self.entries:
            return None
        self.used.add(key)
        return self.entries[key]

    def _floats(self, key: str, line: int, tokens: list[str]) -> np.ndarray:
        try:
            vals = np.array([float(t) for t in tokens], dtype=float)
        except ValueError:
            raise ScenarioError(line, f"{self.name}.{key}: expected numbers, got {tokens}")
        if not np.all(np.isfinite(vals)):
            raise ScenarioError(line, f"{self.name}.{key}: expected finite numbers, got {tokens}")
        return vals

    def vector(self, key: str, n: int, default: float | None = None) -> np.ndarray:
        entry = self._take(key)
        if entry is None:
            if default is None:
                raise ScenarioError(None, f"{self.name}.{key} is required")
            return np.full(n, float(default))
        line, tokens = entry
        vals = self._floats(key, line, tokens)
        if vals.shape[0] == 1:
            return np.full(n, vals[0])
        if vals.shape[0] != n:
            raise ScenarioError(line, f"{self.name}.{key}: expected 1 or {n} values, got {vals.shape[0]}")
        return vals

    def pair(self, key: str) -> tuple[float, float] | None:
        entry = self._take(key)
        if entry is None:
            return None
        line, tokens = entry
        vals = self._floats(key, line, tokens)
        if vals.shape[0] != 2 or vals[0] > vals[1]:
            raise ScenarioError(line, f"{self.name}.{key}: expected 'lo hi' with lo <= hi")
        return float(vals[0]), float(vals[1])

    def scalar(self, key: str, default=None) -> float:
        entry = self._take(key)
        if entry is None:
            if default is None:
                raise ScenarioError(None, f"{self.name}.{key} is required")
            return float(default)
        line, tokens = entry
        vals = self._floats(key, line, tokens)
        if vals.shape[0] != 1:
            raise ScenarioError(line, f"{self.name}.{key}: expected a single number")
        return float(vals[0])

    def integer(self, key: str, default=None, *, minimum: int = 0) -> int:
        val = self.scalar(key, default)
        if val != int(val) or int(val) < minimum:
            raise ScenarioError(self.entries.get(key, (None,))[0],
                                f"{self.name}.{key}: expected an integer >= {minimum}")
        return int(val)

    def word(self, key: str, default: str, choices: tuple[str, ...]) -> str:
        entry = self._take(key)
        if entry is None:
            return default
        line, tokens = entry
        if len(tokens) != 1 or tokens[0] not in choices:
            raise ScenarioError(line, f"{self.name}.{key}: expected one of {choices}")
        return tokens[0]

    def is_word(self, key: str, word: str) -> bool:
        """Whether ``key`` is unset or reads exactly ``word`` (then it is used)."""
        if self.entries.get(key, (None, [word]))[1] != [word]:
            return False
        self._take(key)
        return True

    def finish(self) -> None:
        leftover = set(self.entries) - self.used
        if leftover:
            key = sorted(leftover)[0]
            line = self.entries[key][0]
            raise ScenarioError(line, f"unknown key {key!r} in block {self.name!r}")


# ---------------------------------------------------------------------------
# the scenario itself


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs, resolved and validated."""

    name: str
    params: FreewayParams
    demand_kind: str
    demand_base: np.ndarray
    amplitude_frac: float
    omega: float
    x0: np.ndarray
    state_box: LiftedState
    theta_box: ParamBounds
    demand_box: DemandBounds
    output_model: OutputModel
    controller: str
    alinea: AlineaConfig
    local: LocalConfig
    mpc: MpcConfig
    terminal: TerminalSet
    gap_rel: float
    estimator: EstimatorConfig
    steps: int

    @property
    def cost(self) -> CostSpec:
        """The run's cost weights, which its planner config holds."""
        return self.mpc.cost

    @property
    def n_cells(self) -> int:
        return self.demand_base.shape[0]

    @property
    def warmup(self) -> int:
        """Window-filling ticks driven before the first plan is solved."""
        return self.estimator.backward_horizon if self.controller == CTRL_SETPC else 0

    def demand_at(self, t: int) -> np.ndarray:
        if self.demand_kind == DEMAND_CONSTANT:
            return self.demand_base.copy()
        swing = 1.0 + self.amplitude_frac * math.sin(self.omega * t)
        return self.demand_base * swing

    def loop_config(self) -> SetPcConfig:
        return SetPcConfig(
            mpc=self.mpc,
            terminal=self.terminal,
            estimator=self.estimator,
            local=self.local,
            budget=MilpBudget(gap_rel=self.gap_rel),
        )


def parse_scenario(text: str, *, name: str = "scenario") -> Scenario:
    blocks = _parse_blocks(text)
    known = {"params", "demand", "initial", "boxes", "output",
             "controller", "mpc", "estimator", "run"}
    for block_name in blocks:
        if block_name not in known:
            raise ScenarioError(None, f"unknown block {block_name!r}")
    for required in ("params", "demand", "initial", "run"):
        if required not in blocks:
            raise ScenarioError(None, f"missing block {required!r}")

    def block(block_name: str) -> _Block:
        return _Block(block_name, blocks.get(block_name, {}))

    pb = block("params")
    n = pb.integer("cells", minimum=1)
    params = FreewayParams(
        beta=pb.vector("beta", max(n - 1, 0)),
        v=pb.vector("v", n),
        w=pb.vector("w", n),
        x_jam=pb.vector("x_jam", n),
        c_max=pb.vector("c_max", n),
        alpha=pb.vector("alpha", n),
        u_max=pb.vector("u_max", n, default=40.0),
    )
    pb.finish()

    db = block("demand")
    kind = db.word("kind", DEMAND_CONSTANT, (DEMAND_CONSTANT, DEMAND_PERIODIC))
    base = db.vector("base", n)
    amplitude = db.scalar("amplitude_frac", 0.05)
    omega = db.scalar("omega", 0.2)
    db.finish()
    if np.any(base < 0.0):
        raise ScenarioError(None, "demand.base must be nonnegative")

    ib = block("initial")
    mainline0 = ib.vector("mainline", n)
    queues0 = ib.vector("queues", n, default=0.0)
    ib.finish()
    x0 = np.concatenate([mainline0, queues0])
    if np.any(x0 < 0.0):
        raise ScenarioError(None, "initial state must be nonnegative")
    if np.any(mainline0 > params.x_jam):
        raise ScenarioError(None, "initial mainline exceeds the jam occupancy")

    bb = block("boxes")
    lo_fields, up_fields = {}, {}
    for fld in PARAM_FIELDS:
        true_val = getattr(params, fld)
        pr = bb.pair(fld)
        if pr is None:
            lo_fields[fld] = true_val.copy()
            up_fields[fld] = true_val.copy()
        else:
            lo_fields[fld] = np.full_like(true_val, pr[0])
            up_fields[fld] = np.full_like(true_val, pr[1])
            if np.any(true_val < lo_fields[fld]) or np.any(true_val > up_fields[fld]):
                raise ScenarioError(None, f"boxes.{fld} does not contain the true value")
    theta_box = ParamBounds(
        upper=FreewayParams(u_max=params.u_max.copy(), **up_fields),
        lower=FreewayParams(u_max=params.u_max.copy(), **lo_fields),
    )

    if bb.is_word("mainline_upper", "jam"):
        main_up = theta_box.upper.x_jam.copy()
    else:
        main_up = bb.vector("mainline_upper", n)
    main_lo = bb.vector("mainline_lower", n, default=0.0)
    margin = bb.scalar("demand_margin", 0.0)
    bb.finish()
    if not 0.0 <= margin <= 1.0:
        raise ScenarioError(None, "boxes.demand_margin must lie in [0, 1]")
    if kind == DEMAND_PERIODIC and abs(amplitude) > margin:
        raise ScenarioError(None, "boxes.demand_margin must cover the periodic swing")
    demand_box = DemandBounds(upper=base * (1.0 + margin), lower=base * (1.0 - margin))
    state_box = LiftedState(
        upper=np.concatenate([main_up, queues0.copy()]),
        lower=np.concatenate([main_lo, queues0.copy()]),
    )
    if not state_box.contains(x0):
        raise ScenarioError(None, "initial state box does not contain the initial state")

    ob = block("output")
    mask = ob.vector("mask", n, default=1.0) != 0.0
    gains = ob.vector("gains", n, default=1.0)
    ob.finish()
    output_model = OutputModel(mainline_mask=mask, c_diag=gains)

    cb = block("controller")
    controller = cb.word("kind", CTRL_SETPC, CONTROLLERS)
    epsilon = cb.scalar("epsilon", 0.1)
    averaging = cb.integer("averaging_window", 1, minimum=1)
    gain = cb.scalar("gain", ALINEA_GAIN)
    setpoint = cb.vector("setpoint", n) if "setpoint" in cb.entries else None
    cb.finish()

    mb = block("mpc")
    horizon = mb.integer("horizon", 60, minimum=1)
    l_vec = mb.vector("l", 2 * n, default=1.0)
    drained = mb.word("terminal", TERMINAL_MAINLINE, (TERMINAL_MAINLINE, TERMINAL_DRAINED)) == TERMINAL_DRAINED
    gap_rel = mb.scalar("gap", 0.0)
    if mb.is_word("b", "terminal"):
        d_vec = choose_terminal_weights(l_vec, params)
        b_vec = np.concatenate([d_vec, np.ones(n)])
    else:
        b_vec = mb.vector("b", 2 * n)
        d_vec = np.zeros(n)
    mb.finish()
    if gap_rel < 0.0:
        raise ScenarioError(None, "mpc.gap must be nonnegative")
    mpc_cfg = MpcConfig(horizon=horizon, cost=CostSpec(l=l_vec, b=b_vec, d=d_vec))

    eb = block("estimator")
    estimator = EstimatorConfig(
        backward_horizon=eb.integer("backward_horizon", 1, minimum=1),
        prune_depth=eb.integer("prune_depth", 6, minimum=0),
        prune_budget=eb.integer("prune_budget", 48, minimum=0),
    )
    eb.finish()

    rb = block("run")
    steps = rb.integer("steps", minimum=1)
    rb.finish()

    try:
        x_up = compute_xup(base, params)
    except AdmissibilityError:
        raise ScenarioError(None, "demand.base is not admissible for these parameters")
    terminal = TerminalSet.drained(x_up) if drained else TerminalSet.mainline_only(x_up)

    return Scenario(
        name=name, params=params, demand_kind=kind, demand_base=base,
        amplitude_frac=amplitude, omega=omega, x0=x0, state_box=state_box,
        theta_box=theta_box, demand_box=demand_box, output_model=output_model,
        controller=controller,
        alinea=AlineaConfig(gain=gain, setpoint=setpoint),
        local=LocalConfig(averaging_window=averaging, epsilon=epsilon),
        mpc=mpc_cfg, terminal=terminal,
        gap_rel=gap_rel, estimator=estimator, steps=steps,
    )


PRESETS: dict[str, str] = {
    "fourcell_constant": """\
# Four-cell stretch, constant arrivals, everything to be learned online.
params {
  cells 4
  beta 0.9
  v 0.5
  w 0.16666666666666666
  x_jam 160
  c_max 20
  alpha 0.9
  u_max 40
}
demand {
  kind constant
  base 19.17 1.67 1.67 1.67
}
initial {
  mainline 30 30 30 120
  queues 0
}
boxes {
  mainline_upper jam
  demand_margin 0.1
  v 0.4 0.6
  w 0.1 0.3
  x_jam 150 170
  c_max 16 24
  beta 0.7 0.95
}
controller {
  kind setpc
  epsilon 0.1
}
mpc {
  horizon 60
  terminal mainline
  gap 0.01
}
estimator {
  backward_horizon 1
  prune_depth 6
  prune_budget 48
}
run {
  steps 60
}
""",
    "fourcell_periodic": """\
# Same stretch with a slow sinusoidal swing on the arrivals.
params {
  cells 4
  beta 0.9
  v 0.5
  w 0.16666666666666666
  x_jam 160
  c_max 20
  alpha 0.9
  u_max 40
}
demand {
  kind periodic
  base 19.17 1.67 1.67 1.67
  amplitude_frac 0.05
  omega 0.2
}
initial {
  mainline 30 30 30 120
  queues 0
}
boxes {
  mainline_upper jam
  demand_margin 0.1
  v 0.4 0.6
  w 0.1 0.3
  x_jam 150 170
  c_max 16 24
  beta 0.7 0.95
}
controller {
  kind setpc
  epsilon 0.1
  averaging_window 5
}
mpc {
  horizon 60
  terminal mainline
  gap 0.01
}
estimator {
  backward_horizon 5
  prune_depth 6
  prune_budget 48
}
run {
  steps 60
}
""",
}


def load_scenario(source: str | Path) -> Scenario:
    """Resolve a preset name or a file path into a parsed scenario."""
    if isinstance(source, str) and source in PRESETS:
        return parse_scenario(PRESETS[source], name=source)
    path = Path(source)
    if not path.exists():
        raise ScenarioError(None, f"no preset or file named {source!r}")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:  # a directory, say, or not UTF-8
        reason = getattr(err, "strerror", None) or err
        raise ScenarioError(None, f"cannot read {str(source)!r}: {reason}") from err
    return parse_scenario(text, name=path.stem)


# ---------------------------------------------------------------------------
# running a scenario


def _new_log(scenario: Scenario) -> TrajectoryLog:
    return TrajectoryLog(
        cost=scenario.cost, gap_rel=scenario.gap_rel,
        demand=scenario.demand_base.copy() if scenario.demand_kind == DEMAND_CONSTANT else None,
        known_theta=scenario.theta_box.is_point,
    )


def _run_setpc(scenario: Scenario, log: TrajectoryLog) -> None:
    params, model = scenario.params, scenario.output_model
    config = scenario.loop_config()
    state = SetPcState(
        predicted=scenario.state_box,
        params=scenario.theta_box,
        window=MeasurementWindow(scenario.estimator.backward_horizon, model,
                                 scenario.demand_box),
    )
    x = scenario.x0.copy()
    u_warm = 0.5 * scenario.demand_box.lower
    for tick in range(scenario.warmup + scenario.steps):
        y = measure(model, x)
        if tick < scenario.warmup:
            u, state, diag = forced_step(state, y, config, u_warm)
        else:
            u, state, diag = setpc_step(state, y, config)
        log.append(x, diag.corrected, u, diag.value, diag.phase, theta=state.params)
        x = compact_step(params, x, u, scenario.demand_at(tick))


def _run_baseline(scenario: Scenario, log: TrajectoryLog) -> None:
    params, model, n = scenario.params, scenario.output_model, scenario.n_cells
    prior_up = np.concatenate([np.full(n, np.max(scenario.theta_box.upper.x_jam)),
                               np.full(n, WIDE_QUEUE_BOUND)])
    x = scenario.x0.copy()
    prev_u = 0.5 * scenario.demand_box.lower
    queue_hist: list[np.ndarray] = []
    control_hist: list[np.ndarray] = []
    for t in range(scenario.steps):
        y = measure(model, x)
        corrected = state_update(LiftedState(upper=prior_up.copy(), lower=np.zeros(2 * n)),
                                 y, model)
        queue_hist.append(np.asarray(y.y_ramp, dtype=float))
        if scenario.controller == CTRL_ALINEA:
            u = alinea_step(prev_u, corrected.upper[:n], params, scenario.alinea)
        elif scenario.controller == CTRL_OPENLOOP:
            u = open_loop_step(scenario.demand_base, params.u_max)
        else:
            if len(queue_hist) < 2:
                u = np.clip(prev_u, 0.0, params.u_max)
            else:
                u = local_controller(queue_hist, control_hist, scenario.local,
                                     u_max=params.u_max)
        lam = scenario.demand_at(t)
        x_next = plant_step(params, x, u, lam)
        served = x[n:] + lam - x_next[n:]
        control_hist.append(served)
        prev_u = served
        log.append(x, corrected, served, math.nan, scenario.controller,
                   theta=scenario.theta_box)
        x = x_next


def run_closed_loop(scenario: Scenario) -> TrajectoryLog:
    """Drive the configured controller for the configured number of steps.

    Set-PC runs start with ``warmup`` window-filling ticks metered at half
    the guaranteed arrivals, so the log holds ``warmup + steps`` rows; the
    baselines log exactly ``steps`` rows. Baselines freeze the parameter
    and arrival boxes they were handed (their executed rates are not
    certified against the queue bound, so window-based contraction would
    not be sound) and their logged control is the discharge the plant
    actually realized.

    A loop that stops for one of the typed reasons in :data:`LOOP_STOPS`
    raises that exception with the ticks already done as its ``log``.
    """
    log = _new_log(scenario)
    run = _run_setpc if scenario.controller == CTRL_SETPC else _run_baseline
    try:
        run(scenario, log)
    except LOOP_STOPS as err:
        err.log = log
        raise
    return log


# ---------------------------------------------------------------------------
# CSV emit and read


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return format(float(value), ".12g")


def _theta_columns(n: int) -> list[str]:
    cols = []
    for corner in ("up", "lo"):
        for fld in PARAM_FIELDS:
            count = n - 1 if fld == "beta" else n
            cols.extend(f"theta_{corner}_{fld}_{i}" for i in range(1, count + 1))
    return cols


def _columns(n: int) -> list[str]:
    cols = ["t"]
    cols += [f"x_{i}" for i in range(1, 2 * n + 1)]
    cols += [f"xhat_up_{i}" for i in range(1, 2 * n + 1)]
    cols += [f"xhat_lo_{i}" for i in range(1, 2 * n + 1)]
    cols += [f"u_{i}" for i in range(1, n + 1)]
    cols += _theta_columns(n)
    cols += ["Vstar", "phase", "total_vehicles"]
    return cols


def scenario_meta(scenario: Scenario, log: TrajectoryLog) -> list[tuple[str, str]]:
    """Header lines that make a CSV self-describing for the verifier."""
    def join(arr) -> str:
        return " ".join(_fmt(v) for v in np.asarray(arr, dtype=float))

    meta = [
        ("scenario", scenario.name),
        ("controller", scenario.controller),
        ("cells", str(scenario.n_cells)),
        ("warmup", str(scenario.warmup)),
        ("l", join(log.cost.l)),
        ("b", join(log.cost.b)),
        ("d", join(log.cost.d)),
        ("horizon", str(scenario.mpc.horizon)),
        ("terminal", join(scenario.terminal.x_f)),
        ("gap_rel", _fmt(log.gap_rel)),
        ("known_theta", str(int(log.known_theta))),
    ]
    if log.demand is not None:
        meta.insert(4, ("demand", join(log.demand)))
    return meta


def _theta_row(step) -> list[float]:
    vals: list[float] = []
    for corner in (step.theta.upper, step.theta.lower):
        for fld in PARAM_FIELDS:
            vals.extend(np.asarray(getattr(corner, fld), dtype=float).tolist())
    return vals


def emit_csv(log: TrajectoryLog, path: str | Path, *,
             meta: list[tuple[str, str]]) -> Path:
    """Write a log to disk: '#' metadata, a header row, one row per tick.

    ``meta`` is what :func:`scenario_meta` returns; :func:`read_log` needs
    the lines it lists. Values print with 12 significant digits, so
    re-running the same scenario reproduces the file byte for byte.
    """
    if len(log) == 0:
        raise ValueError("refusing to write an empty log")
    n = log.steps[0].x.shape[0] // 2
    lines = []
    for key, val in meta:
        lines.append(f"# {key} {val}")
    lines.append(",".join(_columns(n)))
    for t, step in enumerate(log.steps):
        row = [float(t)]
        row += step.x.tolist()
        row += step.estimate.upper.tolist()
        row += step.estimate.lower.tolist()
        row += step.u.tolist()
        row += _theta_row(step)
        row.append(step.value)
        cells = [_fmt(v) for v in row]
        cells.append(step.phase)
        cells.append(_fmt(float(np.sum(step.x))))
        lines.append(",".join(cells))
    out = Path(path)
    out.write_text("\n".join(lines) + "\n")
    return out


def read_log(path: str | Path) -> tuple[TrajectoryLog, dict[str, list[str]]]:
    """Rebuild a log and its metadata from an emitted CSV.

    The per-step parameter boxes are not reconstructed (the verifier has
    no use for them). A file missing its ``cells``, ``l``, ``b``, ``d``,
    ``gap_rel`` or ``known_theta`` line, or leaving one empty, is refused
    with a ``ValueError`` naming the line; ``demand`` is optional, as
    periodic runs record none. So is a metadata number that does not
    parse, a ``d`` or ``demand`` line without ``cells`` values, weights
    ``CostSpec`` refuses, a header other than the one :func:`emit_csv`
    writes, and a data row with too few or too many cells or a number that
    does not parse, each naming its file and line or column. Any other metadata
    line is returned and otherwise ignored, such as the ``stopped`` line
    of a record that a typed stop cut short.
    """
    text = Path(path).read_text()
    meta: dict[str, list[str]] = {}
    meta_line: dict[str, int] = {}
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if tokens:
                meta[tokens[0]] = tokens[1:]
                meta_line[tokens[0]] = lineno
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append((lineno, line.split(",")))

    def need(key: str) -> list[str]:
        if not meta.get(key):
            raise ValueError(f"{path}: missing {key!r} metadata")
        return meta[key]

    def numbers(key: str, convert=float) -> list:
        tokens = need(key)
        try:
            return [convert(v) for v in tokens]
        except ValueError:
            raise ValueError(f"{path}: line {meta_line[key]}: {key!r} metadata: "
                             f"expected numbers, got {tokens}") from None

    if header is None:
        raise ValueError(f"{path}: no header row")
    n = numbers("cells", int)[0]
    expected = _columns(n)
    if len(header) != len(expected):
        raise ValueError(f"{path}: expected {len(expected)} columns, found {len(header)}")
    if header != expected:
        col = next(i for i, (a, b) in enumerate(zip(header, expected)) if a != b)
        raise ValueError(f"{path}: column {col + 1} is {header[col]!r}, "
                         f"expected {expected[col]!r}")

    def per_ramp(key: str) -> list:
        vals = numbers(key)
        if len(vals) != n:
            raise ValueError(f"{path}: line {meta_line[key]}: {key!r} metadata has "
                             f"{len(vals)} values, expected {n}")
        return vals

    l_vec, b_vec, d_vec = numbers("l"), numbers("b"), per_ramp("d")
    try:
        cost = CostSpec(l=l_vec, b=b_vec, d=d_vec)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    log = TrajectoryLog(
        cost=cost,
        gap_rel=numbers("gap_rel")[0],
        demand=np.array(per_ramp("demand")) if "demand" in meta else None,
        known_theta=need("known_theta")[0] == "1",
    )
    # the header is _columns(n): t, x, xhat_up, xhat_lo, u, the theta box,
    # Vstar, phase, total_vehicles
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {lineno} has {len(cells)} cells, "
                             f"expected {len(header)}")
        try:
            states = np.array([float(c) for c in cells[1:1 + 7 * n]])
            value = float(cells[-3])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        x, up, lo, u = np.split(states, [2 * n, 4 * n, 6 * n])
        log.append(x, LiftedState(upper=up, lower=lo), u, value, cells[-2])
    return log, meta
