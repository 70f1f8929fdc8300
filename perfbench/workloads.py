"""The benchmark's closed-loop Set-PC workloads.

Every workload is an edit of the ``fourcell_constant`` preset text, so the
program receives nothing but a scenario it could have read from a file.
Seed 0 is the edit exactly as written here. Other seeds move each initial
mainline occupancy by a uniform draw of at most the workload's JITTER_VEH
vehicles either way.
"""

from __future__ import annotations

import numpy as np

from rampflow.harness import PRESETS, Scenario, parse_scenario

BASE_PRESET = "fourcell_constant"

# block -> key -> replacement value; None drops the key from the block
POINT_PLAN = {
    "mpc": {"horizon": "10"},
    "boxes": {"demand_margin": None, "v": None, "w": None, "x_jam": None,
              "c_max": None, "beta": None},
}
TUBE_PLAN = {
    "mpc": {"horizon": "5"},
    "initial": {"mainline": "30 30 30 60"},
    "boxes": {"demand_margin": "0.02", "v": "0.49 0.51", "w": "0.16 0.17",
              "x_jam": "159 161", "c_max": "19.8 20.2", "beta": "0.89 0.91"},
}
INGEST_STEADY = {
    "estimator": {"backward_horizon": "5"},
    "initial": {"mainline": "30 30 30 30"},
    "run": {"steps": "120"},
}

WORKLOADS = {
    "point_plan": POINT_PLAN,
    "tube_plan": TUBE_PLAN,
    "ingest_steady": INGEST_STEADY,
}

# The planning workloads take no jitter. Their closed loops sit on switching
# thresholds: on tube_plan a 1e-6 vehicle move already changes how many ticks
# plan and how many nodes branch and bound visits, and on point_plan a 1
# vehicle move changes run_s by up to 4x, so no bound a regression gate can
# use would hold across seeds. Ingest work does not depend on the start.
JITTER_VEH = {"point_plan": 0.0, "tube_plan": 0.0, "ingest_steady": 1.0}


def edit_preset(text: str, edits: dict[str, dict[str, str | None]]) -> str:
    """Apply ``block -> key -> value`` edits to scenario text.

    Only keys the text already has can be replaced or dropped, so a typo in
    an edit fails loudly instead of adding a key the parser would reject.
    """
    out = []
    block = None
    seen = set()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.endswith("{"):
            block = stripped[:-1].strip()
        elif stripped == "}":
            block = None
        elif block in edits and stripped and not stripped.startswith("#"):
            key = stripped.split()[0]
            if key in edits[block]:
                seen.add((block, key))
                value = edits[block][key]
                if value is not None:
                    out.append(f"  {key} {value}")
                continue
        out.append(line)
    missing = {(b, k) for b, keys in edits.items() for k in keys} - seen
    if missing:
        raise KeyError(f"edits name keys the preset lacks: {sorted(missing)}")
    return "\n".join(out) + "\n"


def workload_text(name: str, seed: int) -> str:
    """Scenario text of a workload at one seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    base = edit_preset(PRESETS[BASE_PRESET], WORKLOADS[name])
    jitter = JITTER_VEH[name]
    if seed == 0 or jitter == 0.0:
        return base
    scenario = parse_scenario(base)
    mainline = scenario.x0[:scenario.n_cells]
    moved = mainline + np.random.default_rng(seed).uniform(-jitter, jitter, mainline.shape[0])
    return edit_preset(base, {"initial": {"mainline": " ".join(repr(float(v)) for v in moved)}})


def load_workload(name: str, seed: int) -> Scenario:
    return parse_scenario(workload_text(name, seed), name=name)
