"""Every function the benchmark's tracer wraps still exists, and a traced
pack still runs.

bench/tracing.py stops a traced run when a target it wraps has been
renamed or removed; this resolves each target the same way, so such a
change fails here rather than only in a traced benchmark run.  A short
traced pack into each container checks the tracer's counters, whose
probes read the wrapped functions' arguments by position.  The
module is read and executed, not imported, so no bytecode is written
under bench/.
"""

import types
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # bench/tracing.py imports it

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, path",
    [(m, p) for m, p, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS],
    ids=lambda x: x)
def test_traced_target_resolves(module_name, path):
    _, _, fn = tracing._resolve(module_name, path)
    assert callable(fn)


def test_a_missing_target_is_reported():
    with pytest.raises(tracing.TraceTargetMissing):
        tracing._resolve("lanepack.lanes", "no_such_function")


# Circles of every kind each container's lanes take, so the DSLP lanes
# and the five-step routine run under the tracer, as in a traced
# benchmark run.
TINY = [0.04, 0.01, 0.005, 0.04, 0.01, 0.002]


@pytest.mark.parametrize("name, first, radii", [
    ("pack_rect_online", 2.0, [0.3, 0.2, 0.1, 0.2] + TINY),
    ("pack_square_online", "general", [0.2, 0.1, 0.06, 0.1] + TINY),
], ids=["rect", "square"])
def test_a_traced_pack_counts_its_commits(name, first, radii):
    from lanepack import containers, lanes

    find_position = lanes.find_position
    tracer = tracing.Tracer()
    with tracer.installed():
        result = getattr(containers, name)(first, radii)  # the traced one
    assert result.status == "all_packed"
    assert tracer.counts["lanes.commits"] == len(result.placements) == 10
    # find_position's probe reads its third argument as the packing.
    assert type(tracer.counts["lanes.obstacles"]) is int
    assert lanes.find_position is find_position
