import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanepack.classification import (MAX_CLASSES, Q_SCHEDULE, Q_TAIL,
                                     ClassTable, TooLarge, TooSmall,
                                     build_class_table, classify, table_csv)

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
        assert Q_TAIL == Q_SCHEDULE[-1]

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
        assert table.rows[-1].index == MAX_CLASSES
        assert table.min_radius < 1e-18

    def test_min_radius_stops_generation(self):
        table = build_class_table(1.0, min_radius=0.01)
        # The last row is the first whose bound dips below the cutoff.
        assert table.rows[-1].lower_bound < 0.01
        assert table.rows[-2].lower_bound >= 0.01

    def test_q2_override(self):
        table = build_class_table(0.277927, q2_override=0.191578,
                                  min_radius=0.026623, large=True)
        assert table.row(2).q == 0.191578
        assert table.rows[-1].index == 2
        assert table.row(2).lower_bound == pytest.approx(
            0.191578 * 2 * 0.25 * 0.277927, rel=1e-12)
        # The override bound sits just above the declared minimum radius.
        assert table.row(2).lower_bound == pytest.approx(0.0266228, abs=1e-6)

    def test_breakpoint_values(self):
        table = build_class_table(1.0)
        assert table.row(2).lower_bound == pytest.approx(0.0841305, abs=1e-6)
        assert table.row(4).lower_bound == pytest.approx(0.023832125,
                                                         abs=1e-6)

    def test_invalid_width(self):
        for w in (0.0, -1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                build_class_table(w)


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
        # Between w/2 and q0 = w/2 there is no gap: anything above w/2 is
        # large, anything at or below is class >= 1.
        assert classify(w / 2 + 1e-9, t) == 0

    @given(st.floats(1e-15, 0.5))
    def test_partition_is_total_and_consistent(self, r):
        t = self.TABLE
        i = classify(r, t)
        assert 1 <= i <= t.rows[-1].index
        assert r <= (t.base_width / 2 if i == 1 else t.row(i - 1).lower_bound)
        assert r > t.row(i).lower_bound


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
