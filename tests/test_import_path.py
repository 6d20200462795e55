"""A fresh interpreter imports lanepack without its sequence generators,
and packs, round-trips and audits a small packing without loading numpy;
a larger audit loads it and stays exact.  Only its two result records
are dataclasses.  The audit loads nothing of the packer it checks, not
even through the modules it imports, and the package exports the nine
names the README documents."""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import lanepack

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = ["PackResult", "PlacedCircle", "RectRun", "SquareRun", "delta",
          "guarantee_rect", "guarantee_square", "pack_rect_online",
          "pack_square_online"]

SCRIPT = """\
import dataclasses
import json
import sys

import lanepack
assert "lanepack.genseq" not in sys.modules, "import lanepack ran genseq"
import lanepack.audit
import lanepack.cli
from lanepack.audit import _ALL_PAIRS_MAX, validate
from lanepack.geometry import EPS

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
        dx, dy, rsum = a.x - b.x, a.y - b.y, a.r + b.r - EPS
        if rsum > 0 and dx * dx + dy * dy < rsum * rsum:
            want.append((i, j))
report = validate(dataclasses.replace(big, placements=moved))
found = [v.indices for v in report.violations if v.kind == "overlap"]
assert (0, len(moved) - 1) in want and found == want, (found, want)
assert "numpy" in sys.modules
print("ok")
"""

# Every dataclass that a fresh import of the package and its audit defines.
DATACLASSES = """\
import dataclasses
import sys

import lanepack, lanepack.audit

print(*sorted(f"{name}.{cls.__qualname__}"
              for name, module in list(sys.modules.items())
              if name.split(".")[0] == "lanepack"
              for cls in vars(module).values()
              if isinstance(cls, type) and cls.__module__ == name
              and dataclasses.is_dataclass(cls)))
"""


def _fresh(script: str) -> list[str]:
    """The words a script prints in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_small_packing_path_loads_no_numpy():
    assert _fresh(SCRIPT) == ["ok"]


def test_only_the_result_records_are_dataclasses():
    # The other records are plain classes, which cost less to define on
    # every start; these two stay editable copies through replace.
    assert _fresh(DATACLASSES) == ["lanepack.geometry.PlacedCircle",
                                   "lanepack.layout.PackResult"]
    result = lanepack.pack_square_online("general", [0.1, 0.05])
    first = result.placements[0]
    moved = dataclasses.replace(first, x=first.x + 0.5)
    assert (moved.x, moved.y, moved.r) == (first.x + 0.5, first.y, first.r)
    edited = dataclasses.replace(result, placements=[moved])
    assert edited.placements == [moved] and edited.lanes == result.lanes
    assert edited.status == result.status


def _package_imports(module: str) -> set[str]:
    """The lanepack modules that module imports with `from .x import` or
    `from . import x`."""
    tree = ast.parse((SRC / "lanepack" / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_audit_imports_no_lane_module():
    # Every module the audit reaches through the package's own imports,
    # transitively.  The package __init__ is left out: it loads the packer.
    closure, todo = set(), ["audit"]
    while todo:
        new = _package_imports(todo.pop()) - closure
        closure |= new
        todo += new
    assert {"layout", "geometry"} <= closure
    assert not closure & {"lanes", "dslp", "blocks", "containers"}, closure


def test_public_names_are_the_documented_nine():
    assert sorted(lanepack.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(lanepack, name).__name__ == name
