"""Circle size classes: relative lower bounds q_i and lane widths w_i.

A class schedule is the recurrence w_{i+1} = 2 * q_i * w_i over a list of
relative bounds q_1, q_2, ... (Q_SCHEDULE, or a layout's own).  A circle
of radius r belongs to class 1 when w/2 >= r > q_1*w_1 and to class
i >= 2 when q_{i-1}*w_{i-1} >= r > q_i*w_i (upper-inclusive,
lower-exclusive).  A square's table starts with the large class 0, of
lane width 1 - w and radii (1 - w)/2 >= r > w/2, as row 0; every row
carries its radius range (lower_bound, upper_bound].
"""

from __future__ import annotations

import math

from .geometry import Record

# q_1 .. q_13 as the paper gives them, then q_i = 0.168262 up to q_40.
# Widths shrink by a factor of about 0.3365 per class, so 40 classes cover
# every radius representable above ~1e-19.
Q_SCHEDULE = (
    0.25,
    0.168261,
    0.371446,
    0.190657,
    0.175592,
    0.170699,
    0.169078,
    0.168354,
    0.168293,
    0.168272,
    0.168265,
    0.168263,
    0.168262,
) + (0.168262,) * 27


class TooLarge(ValueError):
    pass


class TooSmall(ValueError):
    pass


class ClassRow(Record):
    def __init__(self, index: int, q: float, width: float,
                 lower_bound: float, upper_bound: float):
        self.index, self.q, self.width = index, q, width
        self.lower_bound = lower_bound  # exclusive
        self.upper_bound = upper_bound  # inclusive


class ClassTable(Record):
    def __init__(self, base_width: float, rows: tuple[ClassRow, ...]):
        self.base_width = base_width
        self.rows = rows  # consecutive classes from rows[0].index

    def row(self, i: int) -> ClassRow:
        return self.rows[i - self.rows[0].index]

    @property
    def min_radius(self) -> float:
        return self.rows[-1].lower_bound


def build_class_table(w: float, large: bool = False,
                      qs: tuple[float, ...] = Q_SCHEDULE) -> ClassTable:
    """The class table for base lane width w: class i = 1, 2, ... has the
    relative bound q_i = qs[i - 1], one class per entry of qs, led by the
    large class 0 when large is set."""
    if not (0 < w <= 1 and math.isfinite(w)):
        raise ValueError(f"base width must be in (0, 1], got {w}")
    rows = []
    upper = w / 2.0
    if large:  # class 0's lower bound is class 1's upper bound
        rows.append(ClassRow(0, upper / (1.0 - w), 1.0 - w, upper,
                             (1.0 - w) / 2.0))
    width = w
    for i, q in enumerate(qs, 1):
        bound = q * width
        rows.append(ClassRow(i, q, width, bound, upper))
        upper = bound
        width = 2.0 * q * width
    return ClassTable(base_width=w, rows=tuple(rows))


def classify(r: float, table: ClassTable) -> int:
    """Class index for radius r, or raise TooLarge / TooSmall."""
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive and finite, got {r}")
    rows = table.rows
    if r > rows[0].upper_bound:
        raise TooLarge(f"radius {r} exceeds the class-{rows[0].index} "
                       f"bound {rows[0].upper_bound}")
    for row in rows:
        if r > row.lower_bound:
            return row.index
    raise TooSmall(f"radius {r} is below the deepest class bound "
                   f"{table.min_radius}")


def table_csv(table: ClassTable) -> str:
    """CSV dump: class index, q_i, w_i, absolute lower bound."""
    lines = ["i,q_i,w_i,q_i*w_i"]
    for row in table.rows:
        lines.append(f"{row.index},{row.q!r},{row.width!r},{row.lower_bound!r}")
    return "\n".join(lines) + "\n"
