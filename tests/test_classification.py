import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanepack.classification import (Q_SCHEDULE, ClassRow, ClassTable,
                                     TooLarge, TooSmall, build_class_table,
                                     classify, table_csv)
from lanepack.layout import layout

# Printed approximations of the schedule constants (relative bound, and the
# resulting lane width at base width 1).
PRINTED_Q = {1: 0.25, 2: 0.168261, 3: 0.371446, 4: 0.190657, 5: 0.175592,
             6: 0.170699, 7: 0.169078, 8: 0.168354, 9: 0.168293,
             10: 0.168272, 11: 0.168265, 12: 0.168263, 13: 0.168262}
PRINTED_W = {1: 1.0, 2: 0.5, 3: 0.168261, 4: 0.125, 5: 0.047664,
             6: 0.016739, 7: 0.005715}


class TestSchedule:
    def test_constants(self):
        for i, q in PRINTED_Q.items():
            assert Q_SCHEDULE[i - 1] == q
        assert Q_SCHEDULE[13:] == (0.168262,) * 27

    def test_width_recurrence_base_one(self):
        table = build_class_table(1.0)
        for i, w in PRINTED_W.items():
            assert table.row(i).width == pytest.approx(w, abs=1e-6)

    def test_recurrence_exact(self):
        w = 0.288480
        table = build_class_table(w)
        for i in range(1, table.rows[-1].index):
            expect = 2.0 * table.row(i).q * table.row(i).width
            assert table.row(i + 1).width == pytest.approx(expect,
                                                           abs=1e-12 * w)

    def test_scales_linearly_with_base_width(self):
        t1 = build_class_table(1.0)
        t2 = build_class_table(0.25)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert r2.q == r1.q
            assert r2.width == pytest.approx(0.25 * r1.width, rel=1e-14)

    def test_depth_cap(self):
        table = build_class_table(1.0)
        assert table.rows[-1].index == len(Q_SCHEDULE) == 40
        assert table.min_radius < 1e-18

    def test_one_class_per_schedule_entry(self):
        # The general square's and the rectangle's tables hold one class
        # per entry of Q_SCHEDULE, the square's led by the large class 0.
        square = layout("square", "general", None).table
        rect = layout("rect", None, 2.0).table
        assert [row.index for row in square.rows] == list(range(41))
        assert [row.index for row in rect.rows] == list(range(1, 41))
        assert [row.q for row in rect.rows] == list(Q_SCHEDULE)
        assert [row.q for row in square.rows[1:]] == list(Q_SCHEDULE)

    def test_no_tiny_schedule(self):
        # The no-tiny square's schedule is q_1 = 0.25, q_2 = 0.191578.
        table = layout("square", "no_tiny", None).table
        assert table == build_class_table(0.277927, large=True,
                                          qs=(0.25, 0.191578))
        assert table.rows[-1].index == 2
        assert table.row(2).lower_bound == pytest.approx(
            0.191578 * 2 * 0.25 * 0.277927, rel=1e-12)
        assert table.min_radius == pytest.approx(0.0266223, abs=1e-7)

    def test_breakpoint_values(self):
        table = build_class_table(1.0)
        assert table.row(2).lower_bound == pytest.approx(0.0841305, abs=1e-6)
        assert table.row(4).lower_bound == pytest.approx(0.023832125,
                                                         abs=1e-6)

    def test_invalid_width(self):
        for w in (0.0, -1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                build_class_table(w)


def old_recurrence(w, large=False, q2=None, min_radius=None):
    """A class table by a recurrence with stop rules, an independent
    reference: q_2 replaced when q2 is given, and rows generated until
    the first lower bound below min_radius, or class 40."""
    rows = []
    upper = w / 2.0
    if large:
        rows.append(ClassRow(0, upper / (1.0 - w), 1.0 - w, upper,
                             (1.0 - w) / 2.0))
    width = w
    i = 1
    while True:
        if i == 2 and q2 is not None:
            q = q2
        else:
            q = PRINTED_Q[i] if i in PRINTED_Q else 0.168262
        bound = q * width
        rows.append(ClassRow(i, q, width, bound, upper))
        if min_radius is not None and bound < min_radius or i >= 40:
            break
        upper = bound
        width = 2.0 * q * width
        i += 1
    return ClassTable(base_width=w, rows=tuple(rows))


@pytest.mark.parametrize("key, old", [
    (("rect", None, 2.0), lambda: old_recurrence(1.0)),
    (("square", "general", None),
     lambda: old_recurrence(0.288480, large=True)),
    (("square", "no_tiny", None),
     lambda: old_recurrence(0.277927, large=True, q2=0.191578,
                            min_radius=0.026623))],
    ids=["rect", "general", "no_tiny"])
def test_layout_tables_match_the_old_recurrence(key, old):
    # Row for row, every float bit for bit.
    assert layout(*key).table == old()


class TestClassify:
    TABLE = build_class_table(1.0)

    def test_boundaries_upper_inclusive(self):
        t = self.TABLE
        for i in range(1, 6):
            bound = t.row(i).lower_bound
            assert classify(bound, t) == i + 1  # lower-exclusive
            assert classify(bound * (1 + 1e-12), t) == i

    def test_half_width_is_class_one(self):
        assert classify(0.5, self.TABLE) == 1

    def test_too_large(self):
        with pytest.raises(TooLarge):
            classify(0.5 + 1e-9, self.TABLE)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            classify(1e-25, self.TABLE)

    def test_invalid_radius(self):
        for r in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                classify(r, self.TABLE)

    def test_large_class(self):
        w = 0.288480
        t = build_class_table(w, large=True)
        assert classify(0.3, t) == 0
        assert classify((1 - w) / 2, t) == 0
        with pytest.raises(TooLarge):
            classify((1 - w) / 2 + 1e-9, t)
        assert classify(w / 2, t) == 1
        # Class 0's lower bound is class 1's upper bound w/2: anything
        # above w/2 is large, anything at or below is class >= 1.
        assert classify(w / 2 + 1e-9, t) == 0

    @given(st.sampled_from([layout("rect", None, 2.0).table,
                            layout("square", "general", None).table,
                            layout("square", "no_tiny", None).table]),
           st.floats(1e-15, 0.5))
    def test_partition_is_total_and_consistent(self, t, r):
        for prev, row in zip(t.rows, t.rows[1:]):
            assert row.index == prev.index + 1
            assert row.upper_bound == prev.lower_bound
        if r > t.rows[0].upper_bound:
            with pytest.raises(TooLarge):
                classify(r, t)
        elif r <= t.min_radius:
            with pytest.raises(TooSmall):
                classify(r, t)
        else:
            i = classify(r, t)
            assert t.row(i).index == i
            assert t.row(i).lower_bound < r <= t.row(i).upper_bound


class TestCsv:
    def test_round_trips_through_float(self):
        table = build_class_table(0.288480)
        text = table_csv(table)
        lines = text.strip().splitlines()
        assert lines[0] == "i,q_i,w_i,q_i*w_i"
        assert len(lines) == 1 + len(table.rows)
        for line, row in zip(lines[1:], table.rows):
            i, q, w, bound = line.split(",")
            assert int(i) == row.index
            assert float(q) == row.q
            assert float(w) == row.width
            assert float(bound) == row.lower_bound
