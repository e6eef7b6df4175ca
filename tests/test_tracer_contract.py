"""The benchmark's outside-in tracer must still find every function it wraps.

perfbench/layers.py patches the functions named in LAYERS at every import
site.  When a function moves or stops being called, its wrapper silently
stops matching; this test runs one hypothesis check and one twisted root
number under the tracer in a fresh interpreter and checks that every layer
resolved and that the pipeline's layers were counted.  A sweep takes its
formula signs from rootnum.twist_root_number_formula, one call per d.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import twistgate.cli as cli
from layers import LAYERS, Tracer

tracer = Tracer()
tracer.install()
unresolved = []
for name in LAYERS:
    module_name, func_name = name.split(".")
    fn = getattr(sys.modules["twistgate." + module_name], func_name)
    if not hasattr(fn, "__wrapped__"):
        unresolved.append(name)
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.run(argv).status for argv in json.loads(sys.argv[3])]
calls = {name: st["calls"] for name, st in tracer.stats.items()}
print(json.dumps({"unresolved": unresolved, "statuses": statuses, "calls": calls}))
"""

# Layers both operations must pass through.
PIPELINE = (
    "reduction.count_points",
    "reduction.classify",
    "reduction.conductor",
    "lseries.dirichlet_coefficients",
    "lseries.l_value_at_1",
    "fieldsearch.check_hypothesis",
    "rootnum.global_root_number",
    "rootnum.twist_root_number_formula",
    "curve.invariants",
    "curve.minimalize_at",
    "curve.quadratic_twist",
    "numtheory.factor",
    "numtheory.is_prime",
    "numtheory.jacobi",
    "cli.run",
)


def traced(*argvs):
    """Run the CLI calls argvs under the tracer in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH="")
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            str(ROOT / "src"),
            str(ROOT / "perfbench"),
            json.dumps(argvs),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout)


def test_tracer_resolves_and_counts_every_pipeline_layer():
    result = traced(
        ["check-hypothesis", "--p", "5", "--d", "17", "--json"],
        ["root-number", "--label", "15a1", "--twist", "13", "--json"],
    )
    assert result["unresolved"] == []
    assert result["statuses"] == ["ok", "ok"]
    assert result["calls"]["reduction.count_points"] > 0
    assert [name for name in PIPELINE if result["calls"][name] == 0] == []


def test_a_sweep_counts_one_formula_call_per_d():
    # the d <= 60 valid for 15a1: 1, 13, 17, 29, 37, 41, 53
    result = traced(["twist-root-check", "--label", "15a1", "--dmax", "60", "--json"])
    assert result["unresolved"] == []
    assert result["statuses"] == ["ok"]
    assert result["calls"]["rootnum.twist_root_number_formula"] == 7
