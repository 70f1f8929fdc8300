"""Scenario parsing errors and the CSV record of a short planning run."""

import numpy as np
import pytest

from rampflow import harness
from rampflow.harness import ScenarioError, emit_csv, parse_scenario, read_log

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
    np.testing.assert_array_equal(scenario.mpc.b, 2.0)
    np.testing.assert_array_equal(scenario.cost.d, 0.0)
    np.testing.assert_array_equal(scenario.alinea.setpoint, [70, 71, 72, 73])
    preset = parse_scenario(PRESET)
    np.testing.assert_array_equal(preset.state_box.upper[:4], preset.theta_box.upper.x_jam)
    assert preset.alinea.setpoint is None


def test_run_seed_is_an_unknown_key():
    text, line = _edit(PRESET, "  steps 60", ["  seed 0"])
    with pytest.raises(ScenarioError, match=f"^line {line}: unknown key 'seed' in block 'run'$"):
        parse_scenario(text)


def _short_planning_scenario():
    """Point boxes, horizon 4, five ticks after the warm-up."""
    box_lines = {"  demand_margin 0.1", "  v 0.4 0.6", "  w 0.1 0.3",
                 "  x_jam 150 170", "  c_max 16 24", "  beta 0.7 0.95"}
    text = "\n".join(line for line in PRESET.splitlines() if line not in box_lines) + "\n"
    text = _edit(text, "  horizon 60", ["  horizon 4"], keep=False)[0]
    text = _edit(text, "  steps 60", ["  steps 5"], keep=False)[0]
    text = _edit(text, "  mainline 30 30 30 120", ["  mainline 30 30 30 60"], keep=False)[0]
    return parse_scenario(text, name="short_plan")


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
    assert planned and all(s.feasible and np.isfinite(s.value) for s in planned)

    back, meta = read_log(paths[0])
    assert meta["scenario"] == ["short_plan"] and meta["horizon"] == ["4"]
    assert len(back) == len(log) == scenario.warmup + scenario.steps
    assert [s.phase for s in back.steps] == [s.phase for s in log.steps]
    assert [s.feasible for s in back.steps] == [s.feasible for s in log.steps]
    np.testing.assert_allclose(back.states, log.states, rtol=1e-11)
    np.testing.assert_allclose(back.upper_estimates, log.upper_estimates, rtol=1e-11)
    np.testing.assert_allclose(back.values, log.values, rtol=1e-11)
    np.testing.assert_allclose([s.u for s in back.steps], [s.u for s in log.steps],
                               rtol=1e-11, atol=1e-12)
    np.testing.assert_allclose(back.runnings, log.runnings, rtol=1e-11)
