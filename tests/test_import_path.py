"""A fresh interpreter packs, round-trips and audits a small packing
without loading numpy; a larger audit loads it and stays exact.  The
audit imports nothing from the lane code it checks."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """\
import dataclasses
import json
import sys

import lanepack
import lanepack.audit
import lanepack.cli
from lanepack.audit import _ALL_PAIRS_MAX, validate

result = lanepack.pack_square_online(
    "general", [0.3, 0.12, 0.07, 0.05, 0.02, 0.01, 0.003])
back = lanepack.PackResult.from_json_dict(
    json.loads(json.dumps(result.to_json_dict())))
assert validate(back).valid
assert "numpy" not in sys.modules, "the small-packing path loaded numpy"

radii = [0.002 + 0.002 * ((k * 7919) % 1000) / 1000
         for k in range(4 * _ALL_PAIRS_MAX)]
big = lanepack.pack_square_online("general", radii)
assert len(big.placements) > _ALL_PAIRS_MAX
assert validate(big).valid
# Move the last circle onto the first one's centre.
first, last = big.placements[0], big.placements[-1]
moved = big.placements[:-1] + [dataclasses.replace(last, x=first.x,
                                                   y=first.y)]
want = []
for i, a in enumerate(moved):
    for j in range(i + 1, len(moved)):
        b = moved[j]
        dx, dy, rsum = a.x - b.x, a.y - b.y, a.r + b.r - big.eps
        if rsum > 0 and dx * dx + dy * dy < rsum * rsum:
            want.append((i, j))
report = validate(dataclasses.replace(big, placements=moved))
found = [v.indices for v in report.violations if v.kind == "overlap"]
assert (0, len(moved) - 1) in want and found == want, (found, want)
assert "numpy" in sys.modules
print("ok")
"""


def test_small_packing_path_loads_no_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


def test_audit_imports_no_lane_module():
    tree = ast.parse((SRC / "lanepack" / "audit.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import name
                modules += [alias.name for alias in node.names]
            else:
                modules.append(node.module)
    assert modules, "no imports found"
    for module in modules:
        assert module.split(".")[-1] not in ("lanes", "dslp", "blocks"), (
            module)
