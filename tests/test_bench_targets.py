"""Every function the benchmark's tracer wraps still exists.

bench/tracing.py stops a traced run when a target it wraps has been
renamed or removed; this resolves each target the same way, so such a
change fails here rather than only in a traced benchmark run.  The
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
