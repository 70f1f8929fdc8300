"""Scenario parsing errors, the CSV record of a short planning run, the
baseline controllers, what a run that never plans imports, and the
documented example and key tables."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rampflow import _simplex, cli, harness, milp
from rampflow.embedding import PARAM_FIELDS
from rampflow.harness import ScenarioError, emit_csv, parse_scenario, read_log

from test_milp import _highs_milp

PRESET = harness.PRESETS["fourcell_constant"]


def _edit(text: str, anchor: str, new: list[str], *, keep: bool = True) -> tuple[str, int]:
    """Put ``new`` lines after (or in place of) the line ``anchor``.

    Returns the text and the 1-based number of the first new line.
    """
    lines = text.splitlines()
    first = lines.index(anchor) + keep
    lines[first:first + (not keep)] = new
    return "\n".join(lines) + "\n", first + 1


@pytest.mark.parametrize("anchor, new, keep, key", [
    ("  mainline_upper jam", "  mainline_upper foo", False, "boxes.mainline_upper"),
    ("  kind setpc", "  setpoint foo", True, "controller.setpoint"),
    ("  horizon 60", "  b foo", True, "mpc.b"),
], ids=["mainline_upper", "setpoint", "b"])
def test_special_keys_reject_non_numbers_with_their_line(anchor, new, keep, key):
    text, line = _edit(PRESET, anchor, [new], keep=keep)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {key}: expected numbers, got ['foo']"


@pytest.mark.parametrize("anchor, new, keep, message", [
    ("  mainline_upper jam", "  mainline_upper 100 110", False,
     "boxes.mainline_upper: expected 1 or 4 values, got 2"),
    ("  horizon 60", "  b 1 2 3", True, "mpc.b: expected 1 or 8 values, got 3"),
], ids=["mainline_upper", "b"])
def test_special_keys_check_the_vector_length(anchor, new, keep, message):
    text, line = _edit(PRESET, anchor, [new], keep=keep)
    with pytest.raises(ScenarioError, match=f"^line {line}: {message}$"):
        parse_scenario(text)


def test_special_keys_take_their_word_or_a_vector():
    text, _ = _edit(PRESET, "  mainline_upper jam", ["  mainline_upper 140"], keep=False)
    text, _ = _edit(text, "  horizon 60", ["  b 2"])
    text, _ = _edit(text, "  kind setpc", ["  setpoint 70 71 72 73"])
    scenario = parse_scenario(text)
    np.testing.assert_array_equal(scenario.state_box.upper[:4], 140.0)
    np.testing.assert_array_equal(scenario.cost.b, 2.0)
    np.testing.assert_array_equal(scenario.cost.d, 0.0)
    np.testing.assert_array_equal(scenario.alinea.setpoint, [70, 71, 72, 73])
    preset = parse_scenario(PRESET)
    np.testing.assert_array_equal(preset.state_box.upper[:4], preset.theta_box.upper.x_jam)
    assert preset.alinea.setpoint is None


@pytest.mark.parametrize("anchor, key, value", [
    ("  horizon 60", "mpc.horizon", "inf"),
    ("  steps 60", "run.steps", "inf"),
    ("  horizon 60", "mpc.horizon", "nan"),
    ("  gap 0.01", "mpc.gap", "nan"),
    ("  epsilon 0.1", "controller.epsilon", "nan"),
    ("  demand_margin 0.1", "boxes.demand_margin", "nan"),
    ("  c_max 20", "params.c_max", "1e400"),
], ids=["horizon-inf", "steps-inf", "horizon-nan", "gap-nan", "epsilon-nan",
        "demand_margin-nan", "c_max-overflow"])
def test_non_finite_numbers_are_rejected_with_their_line(anchor, key, value):
    name = anchor.split()[0]
    text, line = _edit(PRESET, anchor, [f"  {name} {value}"], keep=False)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {key}: expected finite numbers, got ['{value}']"


@pytest.mark.parametrize("anchor, key, value, minimum", [
    ("  horizon 60", "mpc.horizon", "0", 1),
    ("  steps 60", "run.steps", "0", 1),
    ("  steps 60", "run.steps", "1.5", 1),
    ("  backward_horizon 1", "estimator.backward_horizon", "0", 1),
], ids=["horizon-0", "steps-0", "steps-fraction", "backward_horizon-0"])
def test_integer_keys_are_refused_below_their_minimum_or_with_a_fraction(
        anchor, key, value, minimum):
    name = anchor.split()[0]
    text, line = _edit(PRESET, anchor, [f"  {name} {value}"], keep=False)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {key}: expected an integer >= {minimum}"


def test_inadmissible_demand_base_is_a_scenario_error():
    text, _ = _edit(PRESET, "  base 19.17 1.67 1.67 1.67", ["  base 25 1.67 1.67 1.67"],
                    keep=False)
    with pytest.raises(ScenarioError,
                       match="^demand.base is not admissible for these parameters$"):
        parse_scenario(text)


@pytest.mark.parametrize("anchor, new, block", [
    ("  steps 60", "seed 0", "run"),
    ("  epsilon 0.1", "pin_jam 1", "controller"),
    ("  horizon 60", "cost linear", "mpc"),
    ("  epsilon 0.1", "dual_mode 1", "controller"),
    ("  prune_budget 48", "relax_jam 1", "estimator"),
], ids=["run.seed", "controller.pin_jam", "mpc.cost", "controller.dual_mode",
        "estimator.relax_jam"])
def test_unknown_keys_are_refused_with_their_line(anchor, new, block):
    key = new.split()[0]
    text, line = _edit(PRESET, anchor, [f"  {new}"])
    with pytest.raises(ScenarioError,
                       match=f"^line {line}: unknown key '{key}' in block '{block}'$"):
        parse_scenario(text)


def _edited(*edits):
    """``PRESET`` after ``(anchor, new, keep)`` edits, with the number of the
    last edit's first new line."""
    text, line = PRESET, None
    for anchor, new, keep in edits:
        text, line = _edit(text, anchor, new, keep=keep)
    return text, line


@pytest.mark.parametrize("text, line, message", [
    (*_edited(("  cells 4", ["extra {"], True)), "block 'params' is still open"),
    (*_edited(("}", ["two words {"], True)), "expected 'name {' to open a block"),
    (*_edited(("}", ["params {", "}"], True)), "duplicate block 'params'"),
    (*_edited(("}", ["}"], True)), "'}' without an open block"),
    (*_edited(("}", ["cells 4"], True)), "text outside any block: 'cells 4'"),
    (*_edited(("  cells 4", ["  cells 4"], True)), "duplicate key 'cells' in block 'params'"),
    (PRESET.removesuffix("}\n"), None, "block 'run' never closed"),
    (_edited(("}", ["extra {", "}"], True))[0], None, "unknown block 'extra'"),
    (_edited(("run {", ["output {"], False))[0], None, "missing block 'run'"),
    (_edited(("  steps 60", [], False))[0], None, "run.steps is required"),
    (*_edited(("  terminal mainline", ["  terminal open"], False)),
     "mpc.terminal: expected one of ('mainline', 'drained')"),
    (*_edited(("  v 0.4 0.6", ["  v 0.6 0.4"], False)),
     "boxes.v: expected 'lo hi' with lo <= hi"),
    (*_edited(("  gap 0.01", ["  gap 0.01 0.02"], False)), "mpc.gap: expected a single number"),
    (_edited(("  base 19.17 1.67 1.67 1.67", ["  base -1 1.67 1.67 1.67"], False))[0],
     None, "demand.base must be nonnegative"),
    (_edited(("  queues 0", ["  queues -1"], False))[0], None,
     "initial state must be nonnegative"),
    (_edited(("  mainline 30 30 30 120", ["  mainline 30 30 30 170"], False))[0], None,
     "initial mainline exceeds the jam occupancy"),
    (_edited(("  v 0.4 0.6", ["  v 0.6 0.7"], False))[0], None,
     "boxes.v does not contain the true value"),
    (_edited(("  demand_margin 0.1", ["  demand_margin -0.1"], False))[0], None,
     "boxes.demand_margin must lie in [0, 1]"),
    (_edited(("  demand_margin 0.1", ["  demand_margin 1.5"], False))[0], None,
     "boxes.demand_margin must lie in [0, 1]"),
    (_edited(("  kind constant", ["  kind periodic", "  amplitude_frac 0.2"], False))[0],
     None, "boxes.demand_margin must cover the periodic swing"),
    (_edited(("  kind constant", ["  kind periodic", "  amplitude_frac -0.5"], False))[0],
     None, "boxes.demand_margin must cover the periodic swing"),
    (_edited(("  mainline_upper jam", ["  mainline_lower 40"], True))[0], None,
     "initial state box does not contain the initial state"),
    (_edited(("  gap 0.01", ["  gap -0.01"], False))[0], None, "mpc.gap must be nonnegative"),
], ids=["still-open", "block-name", "duplicate-block", "stray-brace", "outside-block",
        "duplicate-key", "never-closed", "unknown-block", "missing-block", "required",
        "one-of", "pair-order", "single-number", "negative-base", "negative-state",
        "above-jam", "true-value", "negative-margin", "margin-above-one", "swing",
        "negative-swing", "state-box", "negative-gap"])
def test_each_documented_scenario_error_is_raised_with_its_message(text, line, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def _short_planning_text(horizon=4, mainline="30 30 30 60"):
    """Point boxes, horizon 4 unless given, five ticks after the warm-up."""
    box_lines = {"  demand_margin 0.1", "  v 0.4 0.6", "  w 0.1 0.3",
                 "  x_jam 150 170", "  c_max 16 24", "  beta 0.7 0.95"}
    text = "\n".join(line for line in PRESET.splitlines() if line not in box_lines) + "\n"
    text = _edit(text, "  horizon 60", [f"  horizon {horizon}"], keep=False)[0]
    text = _edit(text, "  steps 60", ["  steps 5"], keep=False)[0]
    return _edit(text, "  mainline 30 30 30 120", [f"  mainline {mainline}"], keep=False)[0]


def _short_planning_scenario():
    return parse_scenario(_short_planning_text(), name="short_plan")


def test_short_planning_run_writes_identical_csvs_that_read_back(tmp_path):
    scenario = _short_planning_scenario()
    assert scenario.theta_box.is_point
    paths = []
    for k in range(2):
        log = harness.run_closed_loop(scenario)
        paths.append(emit_csv(log, tmp_path / f"run{k}.csv",
                              meta=harness.scenario_meta(scenario, log)))
    assert paths[0].read_bytes() == paths[1].read_bytes()

    planned = [s for s in log.steps if s.phase == "mpc"]
    assert planned and all(np.isfinite(s.value) for s in planned)

    back, meta = read_log(paths[0])
    assert meta["scenario"] == ["short_plan"] and meta["horizon"] == ["4"]
    assert list(meta.items()) == [(key, val.split())
                                  for key, val in harness.scenario_meta(scenario, log)]
    assert len(back) == len(log) == scenario.warmup + scenario.steps
    assert [s.phase for s in back.steps] == [s.phase for s in log.steps]
    np.testing.assert_allclose(back.states, log.states, rtol=1e-11)
    np.testing.assert_allclose(back.upper_estimates, log.upper_estimates, rtol=1e-11)
    np.testing.assert_allclose(back.values, log.values, rtol=1e-11)
    np.testing.assert_allclose([s.u for s in back.steps], [s.u for s in log.steps],
                               rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(back.runnings, log.runnings, rtol=1e-11)


def test_a_second_loop_crashes_its_first_root_and_writes_the_same_bytes(
        tmp_path, monkeypatch):
    """Each plan offers the previous plan's root basis to the solver, but
    the basis lives in the loop's state: two loops of one point-box
    scenario in one process write byte-identical CSVs, and the second
    loop's first root starts from the crash, not from the first loop's
    last basis. Later roots replay their predecessor's basis."""
    scenario = parse_scenario(_short_planning_text(10, "30 30 30 120"), name="point_plan")
    assert scenario.theta_box.is_point
    roots = []  # per plan: (root basis offered, crash basis given, replay accepted)
    real_solve, real_canonical = milp.solve_milp, milp.solve_canonical
    real_replay = _simplex._replay

    def solve(model, **kwargs):
        roots.append([kwargs["root_basis"]])
        return real_solve(model, **kwargs)

    def canonical(*args, warm=None, replay=None, **kwargs):
        if len(roots[-1]) == 1:
            roots[-1] += [warm, False]
        return real_canonical(*args, warm=warm, replay=replay, **kwargs)

    def gate(*args):
        worker = real_replay(*args)
        roots[-1][2] = worker is not None
        return worker

    monkeypatch.setattr(milp, "solve_milp", solve)
    monkeypatch.setattr(milp, "solve_canonical", canonical)
    monkeypatch.setattr(_simplex, "_replay", gate)
    blobs, loops = [], []
    for k in range(2):
        roots.clear()
        log = harness.run_closed_loop(scenario)
        path = emit_csv(log, tmp_path / f"run{k}.csv", meta=harness.scenario_meta(scenario, log))
        blobs.append(path.read_bytes())
        loops.append([list(r) for r in roots])
    assert blobs[0] == blobs[1]
    for plans in loops:
        assert len(plans) >= 4
        offered, crash, replayed = plans[0]
        assert offered is None and crash is not None and not replayed
        assert all(offered is not None for offered, _, _ in plans[1:])
        assert any(replayed for _, _, replayed in plans[1:])
    assert [r[2] for r in loops[0]] == [r[2] for r in loops[1]]


def test_run_command_writes_the_record_of_a_scenario_file(tmp_path, capsys):
    source = tmp_path / "short_plan.scn"
    source.write_text(_short_planning_text())
    out = tmp_path / "record.csv"
    assert cli.main(["run", str(source), "--csv", str(out)]) == 0
    assert str(out) in capsys.readouterr().out

    scenario = _short_planning_scenario()
    log = harness.run_closed_loop(scenario)
    direct = emit_csv(log, tmp_path / "direct.csv", meta=harness.scenario_meta(scenario, log))
    assert out.read_bytes() == direct.read_bytes()
    back, meta = read_log(out)
    assert meta["scenario"] == ["short_plan"]
    assert len(back) == scenario.warmup + scenario.steps
    assert any(s.phase == "mpc" for s in back.steps)


def test_run_command_exits_with_the_scenario_error(tmp_path, capsys):
    assert cli.main(["run", "fourcell_nowhere", "--csv", str(tmp_path / "x.csv")]) == 2
    assert "no preset or file named 'fourcell_nowhere'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    source = tmp_path / "bad.scn"
    source.write_text(_edit(PRESET, "  horizon 60", ["  horizon nan"], keep=False)[0])
    assert cli.main(["run", str(source)]) == 2
    assert "mpc.horizon: expected finite numbers" in capsys.readouterr().err
    # a range check of a record raises a plain ValueError, without a line
    source.write_text(_edit(PRESET, "  v 0.5", ["  v 1.5"], keep=False)[0])
    assert cli.main(["run", str(source)]) == 2
    assert capsys.readouterr().err == "rampflow: v must lie in (0, 1] (step invariance)\n"


def test_run_command_exits_when_it_cannot_read(tmp_path, capsys, monkeypatch):
    """A directory, or a file that is not UTF-8, ends the command with
    the source it could not read, exit status 2 and no CSV."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"rampflow: cannot read {str(tmp_path)!r}: Is a directory\n")
    source = tmp_path / "latin.scn"
    source.write_bytes(b"# caf\xe9\n")
    assert cli.main(["run", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"rampflow: cannot read {str(source)!r}: 'utf-8' codec")
    assert not list(tmp_path.glob("*.csv"))


def test_run_command_exits_when_it_cannot_write(tmp_path, capsys):
    """A record or a model whose directory is missing ends the command,
    after the loop, with the path it could not write and exit status 2."""
    source = tmp_path / "short_plan.scn"
    source.write_text(_short_planning_text())
    out = tmp_path / "missing" / "record.csv"
    assert cli.main(["run", str(source), "--csv", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"rampflow: cannot write {out}: No such file or directory\n")
    # the horizon-10 preset's first plan is infeasible and carries its model
    text = _edit(PRESET, "  horizon 60", ["  horizon 10"], keep=False)[0]
    source.write_text(_edit(text, "  steps 60", ["  steps 3"], keep=False)[0])
    assert cli.main(["run", str(source), "--csv", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        f"rampflow: cannot write {out}.model: No such file or directory\n")
    assert not out.parent.exists()


def test_run_command_exits_with_the_typed_loop_stop(tmp_path, capsys):
    """Horizon 10 is too short for the preset's terminal box, so the first
    plan is infeasible: the command reports the reason, exits 1 and still
    writes the warm-up ticks done before the stop, with a ``stopped`` line
    that names the reason."""
    text = _edit(PRESET, "  horizon 60", ["  horizon 10"], keep=False)[0]
    source = tmp_path / "short.scn"
    source.write_text(_edit(text, "  steps 60", ["  steps 3"], keep=False)[0])
    out = tmp_path / "short.csv"
    assert cli.main(["run", str(source), "--csv", str(out)]) == 1
    reason = ("InfeasibleProblem: no horizon-10 plan reaches the terminal "
              "box from the given state box (explored 1 nodes)")
    assert capsys.readouterr().err == (f"rampflow: short: {reason}\n"
                                       f"rampflow: short: model written to {out}.model\n")
    back, meta = read_log(out)
    assert meta["stopped"] == reason.split()
    warmup = harness.load_scenario(str(source)).warmup
    assert [s.phase for s in back.steps] == ["warmup"] * warmup


def test_a_start_at_jam_finishes_or_stops_typed(tmp_path, capsys):
    """Every cell starts at the true jam occupancy, above the lowest jam of
    the box. The first warm-up command is capped where the merge has no
    space at some point of the boxes, so the plant takes it, and the
    command either finishes or stops with a typed reason that the record
    names, never with a traceback."""
    text = _edit(PRESET, "  mainline 30 30 30 120", ["  mainline 160 160 160 160"],
                 keep=False)[0]
    text = _edit(text, "  horizon 60", ["  horizon 5"], keep=False)[0]
    source = tmp_path / "jam.scn"
    source.write_text(_edit(text, "  steps 60", ["  steps 6"], keep=False)[0])
    out = tmp_path / "jam.csv"
    code = cli.main(["run", str(source), "--csv", str(out)])
    back, meta = read_log(out)
    scenario = harness.load_scenario(str(source))
    if code == 1:
        reason = meta["stopped"][0].rstrip(":")
        assert reason in {stop.__name__ for stop in harness.LOOP_STOPS}
        assert capsys.readouterr().err.startswith(f"rampflow: jam: {reason}: ")
    else:
        assert code == 0 and len(back) == scenario.warmup + scenario.steps
    assert len(back) >= 1
    # cells 1-3 have no space below the lowest jam of 150, so their ramps wait
    assert np.array_equal(back.steps[0].u[:3], np.zeros(3))


def test_a_failed_plan_leaves_its_model_and_a_normal_run_leaves_none(
        tmp_path, monkeypatch, capsys):
    """The horizon-10 scenario's first plan is infeasible: the command
    writes the model the planner handed the solver beside the CSV, in
    ``dump_model``'s grammar. A run whose plans all succeed writes no model
    file, and its CSV is the one ``emit_csv`` writes for the same loop."""
    solve, models = milp.solve_milp, []

    def recorded(model, **kwargs):
        models.append(model)
        return solve(model, **kwargs)

    monkeypatch.setattr(milp, "solve_milp", recorded)
    text = _edit(PRESET, "  horizon 60", ["  horizon 10"], keep=False)[0]
    failed = tmp_path / "failed"
    failed.mkdir()
    (failed / "short.scn").write_text(_edit(text, "  steps 60", ["  steps 3"], keep=False)[0])
    out = failed / "short.csv"
    assert cli.main(["run", str(failed / "short.scn"), "--csv", str(out)]) == 1
    assert str(out) + ".model" in capsys.readouterr().err
    lp = models[-1].lp
    dump = (failed / "short.csv.model").read_text()
    assert f"vars {lp.n_cols}" in dump.splitlines() and f"rows {lp.n_rows}" in dump.splitlines()
    assert dump == milp.dump_model(models[-1])

    normal = tmp_path / "normal"
    normal.mkdir()
    (normal / "short_plan.scn").write_text(_short_planning_text())
    out = normal / "record.csv"
    assert cli.main(["run", str(normal / "short_plan.scn"), "--csv", str(out)]) == 0
    assert sorted(p.name for p in normal.iterdir()) == ["record.csv", "short_plan.scn"]
    scenario = _short_planning_scenario()
    log = harness.run_closed_loop(scenario)
    direct = emit_csv(log, tmp_path / "direct.csv", meta=harness.scenario_meta(scenario, log))
    assert out.read_bytes() == direct.read_bytes()


def test_a_typed_stop_carries_the_ticks_done_and_the_command_writes_them(
        tmp_path, monkeypatch, capsys):
    """A stop on the third plan: ``run_closed_loop`` raises the same
    exception, carrying the ticks before it, and the command writes them
    as the first rows of the full run's record, under its metadata and one
    ``stopped`` line. A stop on the very first tick leaves no record."""
    scenario = _short_planning_scenario()
    log = harness.run_closed_loop(scenario)
    full = emit_csv(log, tmp_path / "full.csv", meta=harness.scenario_meta(scenario, log))
    step, plans = harness.setpc_step, []

    def stop_on_the_third_plan(*args):
        plans.append(0)
        if len(plans) == 3:
            raise harness.SolveBudgetExceeded("node budget\nspent")
        return step(*args)

    monkeypatch.setattr(harness, "setpc_step", stop_on_the_third_plan)
    with pytest.raises(harness.SolveBudgetExceeded) as stop:
        harness.run_closed_loop(scenario)
    assert len(stop.value.log) == scenario.warmup + 2

    plans.clear()
    source = tmp_path / "short_plan.scn"
    source.write_text(_short_planning_text())
    out = tmp_path / "stopped.csv"
    assert cli.main(["run", str(source), "--csv", str(out)]) == 1
    assert capsys.readouterr().err == (
        "rampflow: short_plan: SolveBudgetExceeded: node budget\nspent\n")
    lines, full_lines = out.read_text().splitlines(), full.read_text().splitlines()
    n_meta = len(harness.scenario_meta(scenario, stop.value.log))
    assert lines[n_meta] == "# stopped SolveBudgetExceeded: node budget spent"
    assert lines[:n_meta] + lines[n_meta + 1:] == full_lines[:len(lines) - 1]
    back, meta = read_log(out)
    assert len(back) == scenario.warmup + 2 and meta["stopped"][0] == "SolveBudgetExceeded:"

    def stop_at_once(*args):
        raise harness.ContainmentViolation("reading outside the box")

    monkeypatch.setattr(harness, "forced_step", stop_at_once)
    out.unlink()
    assert cli.main(["run", str(source), "--csv", str(out)]) == 1
    assert not out.exists()


# the lines read_log needs; demand is optional, as periodic runs have none
_NEEDED_META = {"cells": "4", "l": "1 1 1 1 1 1 1 1", "b": "1 1 1 1 1 1 1 1",
                "d": "1 1 1 1", "gap_rel": "0", "known_theta": "1"}


def _csv_without(key: str) -> str:
    lines = [f"# {k} {v}" for k, v in _NEEDED_META.items() if k != key]
    return "\n".join(lines + [",".join(harness._columns(4))]) + "\n"


# a data row read_log accepts
_ROW = ["mpc" if name == "phase" else "0" for name in harness._columns(4)]


def _csv_with_row(row: list[str], header: list[str] = harness._columns(4),
                  **meta: str) -> str:
    """The metadata, with ``meta`` in place of the needed values and its
    other lines after them, the header, and ``row`` as the data row (line 8
    when ``meta`` adds no line)."""
    lines = [f"# {k} {meta.get(k, v)}" for k, v in _NEEDED_META.items()]
    lines += [f"# {k} {v}" for k, v in meta.items() if k not in _NEEDED_META]
    return "\n".join(lines + [",".join(header), ",".join(row)]) + "\n"


_RENAMED = ["y_1" if name == "x_1" else name for name in harness._columns(4)]


@pytest.mark.parametrize("text, message", [
    ("# cells 4\n", "no header row"),
    (",".join(harness._columns(4)) + "\n", "missing 'cells' metadata"),
    ("# cells\n" + ",".join(harness._columns(4)) + "\n", "missing 'cells' metadata"),
    ("# cells 4\nt,x_1\n", f"expected {len(harness._columns(4))} columns, found 2"),
] + [(_csv_without(key), f"missing '{key}' metadata")
     for key in list(_NEEDED_META)[1:]] + [
    (_csv_with_row(_ROW[:-3]), f"line 8 has {len(_ROW) - 3} cells, expected {len(_ROW)}"),
    (_csv_with_row(_ROW[:3] + ["1.5e"] + _ROW[4:]),
     "line 8: could not convert string to float: '1.5e'"),
    (_csv_with_row(_ROW, header=_RENAMED), "column 2 is 'y_1', expected 'x_1'$"),
    (_csv_with_row(_ROW, gap_rel="x"),
     re.escape("line 5: 'gap_rel' metadata: expected numbers, got ['x']")),
    (_csv_with_row(_ROW, cells="x"),
     re.escape("line 1: 'cells' metadata: expected numbers, got ['x']")),
    (_csv_with_row(_ROW, l="1"), "bad.csv: weight lengths disagree$"),
    (_csv_with_row(_ROW, d="1"), "line 4: 'd' metadata has 1 values, expected 4$"),
    (_csv_with_row(_ROW, demand="1 2"), "line 7: 'demand' metadata has 2 values, expected 4$"),
    (_csv_with_row(_ROW, l="1 1 1 0 1 1 1 1"),
     "bad.csv: running-cost weights must be positive$"),
],
    ids=["no_header", "no_cells", "empty_cells", "column_count"]
    + [f"no_{key}" for key in list(_NEEDED_META)[1:]]
    + ["short_row", "bad_number", "renamed_column", "bad_meta_number", "bad_meta_integer",
       "short_l", "short_d", "short_demand", "zero_l"])
def test_read_log_refuses_files_it_cannot_rebuild(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_log(path)


def test_load_scenario_reads_a_file_named_after_its_stem(tmp_path):
    path = tmp_path / "my_stretch.scn"
    path.write_text(PRESET)
    preset = harness.load_scenario("fourcell_constant")
    for source in (path, str(path)):
        scenario = harness.load_scenario(source)
        assert scenario.name == "my_stretch"
        assert repr(replace(scenario, name=preset.name)) == repr(preset)


def test_load_scenario_names_what_it_could_not_find(tmp_path):
    for source in ("fourcell_nowhere", tmp_path / "missing.scn"):
        with pytest.raises(ScenarioError, match="no preset or file named"):
            harness.load_scenario(source)


# ------------------------------------------------------------ baselines


@pytest.mark.parametrize("controller", ["alinea", "openloop", "local"])
@pytest.mark.parametrize("preset", sorted(harness.PRESETS))
def test_baselines_keep_the_truth_enclosed_and_rerun_identically(tmp_path, preset, controller):
    text, _ = _edit(harness.PRESETS[preset], "  kind setpc", [f"  kind {controller}"], keep=False)
    scenario = parse_scenario(text, name=f"{preset}_{controller}")
    assert scenario.warmup == 0
    n, x_jam = scenario.n_cells, scenario.params.x_jam
    blobs = []
    for k in range(2):
        log = harness.run_closed_loop(scenario)
        path = emit_csv(log, tmp_path / f"run{k}.csv", meta=harness.scenario_meta(scenario, log))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert len(log) == scenario.steps == 60
    for step in log.steps:
        assert step.phase == controller
        assert step.estimate.contains(step.x)
        assert np.all(step.x[:n] >= 0.0) and np.all(step.x[:n] <= x_jam)


# ------------------------------------------------------------- start-up

_NEVER_PLANS = """\
import sys
from rampflow import cli, harness, milp

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

steady, baseline, csv = sys.argv[1:]
log = harness.run_closed_loop(harness.load_scenario(steady))
assert {step.phase for step in log.steps} == {"warmup", "local"}, log.steps[-1].phase
assert cli.main(["run", baseline, "--csv", csv]) == 0
assert not scipy_loaded(), scipy_loaded()
b = milp.ModelBuilder("tiny")
x = b.add_variable("x", lower=0.0, upper=10.0, objective=1.0)
b.add_row({x: 1.0}, "G", 3.0)
assert milp.solve_milp(b.build(), budget=milp.MilpBudget()).status == milp.OPTIMAL
assert "scipy.sparse.linalg" in sys.modules, scipy_loaded()
"""


def test_a_run_that_never_plans_never_loads_scipy(tmp_path):
    """Set-PC inside its terminal box, and the CLI on a baseline, run on
    numpy alone in a fresh process; the first model then loads scipy."""
    steady = PRESET
    for anchor, line in (("  backward_horizon 1", "  backward_horizon 5"),
                         ("  mainline 30 30 30 120", "  mainline 30 30 30 30"),
                         ("  steps 60", "  steps 20")):
        steady = _edit(steady, anchor, [line], keep=False)[0]
    baseline = _edit(PRESET, "  kind setpc", ["  kind alinea"], keep=False)[0]
    (tmp_path / "steady.scn").write_text(steady)
    (tmp_path / "alinea.scn").write_text(baseline)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _NEVER_PLANS, "steady.scn", "alinea.scn", "alinea.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------- docs


def _documented_keys(doc: str) -> dict[str, set[str]]:
    """Keys named in the first column of each block's key table."""
    keys: dict[str, set[str]] = {}
    block = None
    for line in doc.splitlines():
        if line.startswith("#"):
            head = re.match(r"### `(\w+)`", line)
            block = head.group(1) if head else None
            if block:
                keys[block] = set()
        elif block and line.startswith("| `"):
            keys[block] |= set(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


def test_the_documented_key_tables_list_exactly_the_keys_the_parser_reads(monkeypatch):
    read: dict[str, set[str]] = {}
    take = harness._Block._take

    def spy(self, key):
        read.setdefault(self.name, set()).add(key)
        return take(self, key)

    monkeypatch.setattr(harness._Block, "_take", spy)
    # the parser only takes controller.setpoint when the key is present
    parse_scenario(_edit(PRESET, "  kind setpc", ["  setpoint 20"])[0])
    doc = (Path(__file__).resolve().parents[1] / "docs" / "scenario-format.md").read_text()
    assert read == _documented_keys(doc)


def test_the_documented_example_is_the_constant_preset():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "scenario-format.md").read_text()
    example = doc.split("\n## Example\n", 1)[1]
    block = example.split("```\n", 2)[1]
    assert block == PRESET
    parse_scenario(block)


def test_the_documented_record_lists_the_metadata_lines_scenario_meta_writes():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "scenario-format.md").read_text()
    record = doc.split("\n## Record\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in record.splitlines() if line.startswith("| `")]
    documented = [re.match(r" `(\w+)` ", row[1]).group(1) for row in rows]
    needed = {key for key, row in zip(documented, rows) if row[3].strip() == "needs"}
    text = _edit(PRESET, "  kind setpc", ["  kind alinea"], keep=False)[0]
    scenario = parse_scenario(_edit(text, "  steps 60", ["  steps 1"], keep=False)[0])
    log = harness.run_closed_loop(scenario)
    assert documented == [key for key, _ in harness.scenario_meta(scenario, log)]
    assert needed == set(_NEEDED_META)


# ------------------------------------------ closed loops over generated scenarios

# per parameter: the range of its box's centre and the largest half-width
_BOX_DRAWS = {"beta": (0.8, 0.85, 0.12), "v": (0.45, 0.55, 0.1), "w": (0.12, 0.25, 0.02),
              "x_jam": (150.0, 170.0, 5.0), "c_max": (18.0, 22.0, 1.0),
              "alpha": (0.85, 0.9, 0.02)}


@st.composite
def _small_scenarios(draw):
    """A small Set-PC scenario as ``parse_scenario`` text: 2-3 cells,
    horizon 3-5, 4-8 ticks, a point box or an interval box per parameter
    (the true values per cell inside it; v + w <= 1 and c_max / v <= x_jam
    on every corner), detectors on some mainline cells, a demand margin of
    0-5 % on an admissible arrival rate, and an initial mainline at 0.6-1.6
    times the critical occupancy, capped at 0.9 x_jam, inside a +-2 % box."""
    n = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    point = draw(st.integers(0, 3)) == 1  # every parameter known, in about a quarter
    params, boxes = {}, []
    for name, (low, high, width) in _BOX_DRAWS.items():
        centre = low + (high - low) * draw(unit)
        half = 0.0 if point else width * draw(unit)
        params[name] = np.array([centre + half * (2.0 * draw(unit) - 1.0)
                                 for _ in range(n - (name == "beta"))])
        if half > 0.0:
            boxes.append(f"  {name} {centre - half!r} {centre + half!r}")
    crit = params["c_max"] / params["v"]
    mainline = np.minimum([draw(st.floats(0.6, 1.6)) * c for c in crit], 0.9 * params["x_jam"])
    # every cell's equilibrium flow stays below its capacity
    base = params["c_max"] * ([draw(st.floats(0.2, 0.6))]
                              + [draw(st.floats(0.0, 0.1)) for _ in range(n - 1)])
    unmeasured = [draw(st.booleans()) for _ in range(n)]

    def join(values):
        return " ".join(repr(float(v)) for v in values)

    lines = ["params {", f"  cells {n}", *(f"  {k} {join(v)}" for k, v in params.items()),
             "}", "demand {", f"  base {join(base)}", "}",
             "initial {", f"  mainline {join(mainline)}", "}",
             "boxes {", f"  mainline_upper {join(1.02 * mainline)}",
             f"  mainline_lower {join(0.98 * mainline)}",
             f"  demand_margin {draw(st.floats(0.0, 0.05))!r}", *boxes, "}",
             "output {", f"  mask {' '.join(str(int(not u)) for u in unmeasured)}", "}",
             "mpc {", f"  horizon {draw(st.integers(3, 5))}", "  gap 0.01", "}",
             "run {", f"  steps {draw(st.integers(4, 8))}", "}"]
    return "\n".join(lines) + "\n"


# A draw whose first plan, solved without candidates, came back infeasible
# while HiGHS solves it: at one node, rows tight at the node's point read a
# slack negative by rounding, and each propagation sweep moved the box
# further off the point until it crossed the closing margin.
_TIGHT_ROWS_DRAW = """params {
  cells 2
  beta 0.8
  v 0.425 0.425
  w 0.12 0.12
  x_jam 150.0 150.0
  c_max 18.0 18.0
  alpha 0.85 0.85
}
demand {
  base 9.0 0.0
}
initial {
  mainline 66.17647058823529 42.35294117647059
}
boxes {
  mainline_upper 67.5 43.2
  mainline_lower 64.85294117647058 41.50588235294117
  demand_margin 0.0
  v 0.425 0.47500000000000003
}
output {
  mask 1 1
}
mpc {
  horizon 5
  gap 0.01
}
run {
  steps 4
}
"""


def test_generated_closed_loops_keep_the_truth_in_their_boxes(monkeypatch):
    """On every tick a generated loop logs, the true state lies in the
    corrected box and the true parameters in the contracted one. Only an
    infeasible or over-budget plan may stop a loop; the ticks before the
    stop are checked too. At least a quarter of the draws execute a plan
    and at least a quarter move a parameter bound, so the check reaches
    the planner and the contraction. The first plan of every draw that
    plans agrees with HiGHS in status, and its objective lies within its
    gap of HiGHS's."""
    draws, plans = [], []
    solve_milp = milp.solve_milp

    def first_plan(model, **kwargs):
        sol = solve_milp(model, **kwargs)
        if not plans:
            plans.append((model, sol))
        return sol

    monkeypatch.setattr(milp, "solve_milp", first_plan)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_small_scenarios())
    @example(_TIGHT_ROWS_DRAW)
    def loop(text):
        scenario = parse_scenario(text)
        plans.clear()
        try:
            log = harness.run_closed_loop(scenario)
        except (harness.InfeasibleProblem, harness.SolveBudgetExceeded) as stop:
            log = stop.log
        truth, prior = scenario.params, scenario.theta_box
        for tick, step in enumerate(log.steps):
            assert step.estimate.contains(step.x), tick
            for name in PARAM_FIELDS:
                value = getattr(truth, name)
                assert np.all(getattr(step.theta.lower, name) <= value + 1e-9), (tick, name)
                assert np.all(getattr(step.theta.upper, name) >= value - 1e-9), (tick, name)
        moved = any(not np.array_equal(getattr(getattr(step.theta, corner), name),
                                       getattr(getattr(prior, corner), name))
                    for step in log.steps for corner in ("upper", "lower")
                    for name in PARAM_FIELDS)
        draws.append((any(step.phase == "mpc" for step in log.steps), moved))
        for model, sol in plans:
            ref = _highs_milp(model, mip_rel_gap=0.0)
            assert (sol.status, ref.status) in ((milp.OPTIMAL, 0), (milp.INFEASIBLE, 2)), text
            if ref.status == 0:
                assert abs(sol.objective - ref.fun) <= sol.gap + 1e-6 * (1.0 + abs(ref.fun))

    loop()
    planned, moved = (sum(column) for column in zip(*draws))
    assert 4 * planned >= len(draws) and 4 * moved >= len(draws), (len(draws), planned, moved)


def test_rows_tight_up_to_rounding_close_no_node(monkeypatch):
    """The first plan of ``_TIGHT_ROWS_DRAW``, solved without candidates,
    finds HiGHS's optimum: a node's propagation reads a side whose slack
    is negative within the margin as tight, so it cannot walk the box off
    a feasible point."""
    models = []

    class FirstPlan(Exception):
        pass

    def first_model(model, **kwargs):
        models.append(model)
        raise FirstPlan  # stops the loop at its first plan

    monkeypatch.setattr(milp, "solve_milp", first_model)
    with pytest.raises(FirstPlan):
        harness.run_closed_loop(parse_scenario(_TIGHT_ROWS_DRAW))
    monkeypatch.undo()
    sol = milp.solve_milp(models[0], budget=milp.MilpBudget())
    ref = _highs_milp(models[0], mip_rel_gap=0.0)
    assert (sol.status, ref.status) == (milp.OPTIMAL, 0)
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)
