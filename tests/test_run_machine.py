"""A state machine over the run API: one run per layout, fed up to 15
pack() calls of valid, boundary, non-finite, bool, int and np.float32
radii.

After every call it checks that the result passes its own audit, that
its JSON reads back equal and audits the same, that the circles of
earlier calls keep their placements, and that a refused call commits
nothing.
"""

import json
import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from lanepack.audit import validate
from lanepack.containers import RectRun, SquareRun
from lanepack.layout import PackResult, columns

LAYOUTS = {
    "rect-1": lambda: RectRun(1.0),
    "rect-2": lambda: RectRun(2.0),
    "rect-3.5": lambda: RectRun(3.5),
    "square-general": lambda: SquareRun("general"),
    "square-no_tiny": lambda: SquareRun("no_tiny"),
}


def _boundaries(table):
    """Radii on and next to the class bounds of a table."""
    out = []
    for row in table.rows:
        for bound in (row.lower_bound, row.upper_bound):
            out += [bound, math.nextafter(bound, 0.0),
                    math.nextafter(bound, math.inf)]
    return out


@st.composite
def radii(draw, table):
    """One radius a run accepts, mostly: inside a class, on or next to a
    class bound, or too large, as a float, an int or an np.float32."""
    row = draw(st.sampled_from(table.rows))
    inside = row.lower_bound + draw(st.floats(0.0, 1.0)) * (
        row.upper_bound - row.lower_bound)
    # The shallow classes, where circles are large and runs fill and
    # reject, more often than the deep ones.
    shallow = table.rows[draw(st.integers(0, min(3, len(table.rows) - 1)))]
    big = math.nextafter(shallow.lower_bound, math.inf) + draw(
        st.floats(0.0, 1.0)) * (shallow.upper_bound - shallow.lower_bound)
    kind = draw(st.sampled_from("iiiiiibbBn"))
    if kind == "i":
        r = inside
    elif kind == "b":
        r = big
    elif kind == "B":
        r = draw(st.sampled_from(_boundaries(table)))
    else:
        r = draw(st.sampled_from([1, 2]))
    if type(r) is float and draw(st.integers(0, 4)) == 0:
        return np.float32(r)
    return r


# Input errors: non-finite, not positive, at or below the deepest class
# bound, or a bool.
ERRORS = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.1, 1e-25,
                          0, -1, True, False, np.bool_(True)])


def input_error(r, table) -> bool:
    """Whether pack() refuses r as an input error."""
    if isinstance(r, (bool, np.bool_)):
        return True
    return not table.min_radius < float(r) < math.inf


class RunMachine(RuleBasedStateMachine):
    @initialize(name=st.sampled_from(sorted(LAYOUTS)))
    def start(self, name):
        self.run = LAYOUTS[name]()
        self.result = None
        self.stopped = False

    @rule(data=st.data())
    def pack(self, data):
        table = self.run.table
        batch = data.draw(st.lists(radii(table), max_size=6))
        if data.draw(st.integers(0, 3)) == 0:
            bad = data.draw(st.one_of(ERRORS, st.just(table.min_radius)))
            batch.insert(data.draw(st.integers(0, len(batch))), bad)
        before = len(self.run.packing)
        refused = self.stopped or any(input_error(r, table) for r in batch)
        try:
            result = self.run.pack(batch)
        except ValueError:
            assert refused, batch
            assert len(self.run.packing) == before
            return
        assert not refused, batch
        if self.result is not None:
            # The circles of earlier calls keep their placements.
            old = columns(self.result.placements)
            new = columns(result.placements)
            assert [c[:len(old[0])] for c in new] == [tuple(c) for c in old]
        assert len(result.placements) == len(self.run.packing)
        self.stopped = result.status == "rejected"
        self.result = result

    @invariant()
    def audits_and_round_trips(self):
        result = self.result
        if result is None:
            return
        report = validate(result)
        assert report.valid, report.violations
        back = PackResult.from_json_dict(json.loads(json.dumps(
            result.to_json_dict())))
        assert back == result
        assert validate(back).to_json_dict() == report.to_json_dict()


RunMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=15, deadline=None)
TestRunMachine = RunMachine.TestCase
