"""The scripts under ``tools/`` run against the package as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from rampflow import harness  # noqa: E402

WORKLOAD_FIELDS = ("sha256", "rows", "plan_ticks", "solves", "pivots", "nodes",
                   "roots", "factorizations", "basic_slacks", "dual_solves",
                   "node_fixed", "hook_encodes", "tts_veh", "certified_calls",
                   "certified_boxes", "transitions", "stacks", "probes", "propagations",
                   "binaries", "models")


def test_record_digest_prints_every_field_of_every_loop():
    """``tools/record_digest.py`` patches private names of the package and
    never restores them, so it runs in its own process. A rename of one of
    them fails it here rather than at its next use."""
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "record_digest.py"),
                          "--seed", "0"], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    baselines = [f"{preset} {kind}" for preset in harness.PRESETS
                 for kind in ("alinea", "openloop", "local")]
    heads = [line.partition(": ")[0] for line in lines]
    partial = len(workloads.WORKLOADS)
    assert heads == ([f"{name} seed 0" for name in workloads.WORKLOADS]
                     + ["fourcell_constant mask 1 1 0 1"] + baselines)
    for line in lines[:partial]:
        tokens = line.partition(": ")[2].split()
        fields = dict(zip(tokens[::2], tokens[1::2]))
        expected = list(WORKLOAD_FIELDS)
        if fields.get("nodes") != "0":  # only a loop that planned has a largest tree
            expected.insert(expected.index("nodes") + 1, "largest_tree")
        assert tokens[::2] == expected and len(tokens) == 2 * len(expected)
    # the window with an unmeasured cell: its loop stops at its first plan,
    # and its certificate steps the chain, so no transition is reused
    tokens = lines[partial].partition(": ")[2].split()
    assert tokens[::2] == ["stop", "ticks", "sha256", "certified_calls",
                           "certified_boxes", "transitions"]
    fields = dict(zip(tokens[::2], tokens[1::2]))
    assert (fields["stop"], fields["ticks"]) == ("InfeasibleProblem", "5")
    computed, reused = fields["transitions"].split("/")
    assert int(computed) > 0 and reused == "0"
    for line in lines[partial + 1:]:
        assert line.partition(": ")[2].split()[::2] == ["sha256", "tts_veh"]


def test_line_reach_prints_one_line_per_module():
    """``tools/line_reach.py`` traces the benchmark's loops in its own
    process and prints, per module of the package, its executable lines and
    the lines reached, which are never more."""
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "line_reach.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *lines = run.stdout.splitlines()
    assert header.split()[:3] == ["module", "executable", "reached"]
    modules = sorted(path.name for path in (ROOT / "src" / "rampflow").glob("*.py"))
    assert [line.split()[0] for line in lines] == modules
    for line in lines:
        executable, reached = map(int, line.split()[1:3])
        assert 0 <= reached <= executable, line
