"""Circle size classes: relative lower bounds q_i and lane widths w_i.

The class schedule is a fixed recurrence w_{i+1} = 2 * q_i * w_i over the
constants below.  A circle of radius r belongs to class 1 when
w/2 >= r > q_1*w_1 and to class i >= 2 when q_{i-1}*w_{i-1} >= r > q_i*w_i
(upper-inclusive, lower-exclusive).  A square's table starts with the
large class 0, of lane width 1 - w and radii (1 - w)/2 >= r > w/2, as
row 0; every row carries its radius range (lower_bound, upper_bound].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# q_1 .. q_13; beyond that the schedule continues with Q_TAIL.
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
)
Q_TAIL = 0.168262

# With no explicit minimum radius the table stops after this many classes.
# Widths shrink by a factor of about 0.3365 per class, so 40 classes cover
# every radius representable above ~1e-19.
MAX_CLASSES = 40


class TooLarge(ValueError):
    pass


class TooSmall(ValueError):
    pass


@dataclass(frozen=True)
class ClassRow:
    index: int
    q: float
    width: float
    lower_bound: float  # exclusive
    upper_bound: float  # inclusive


@dataclass(frozen=True)
class ClassTable:
    base_width: float
    rows: tuple[ClassRow, ...]  # consecutive classes from rows[0].index

    def row(self, i: int) -> ClassRow:
        return self.rows[i - self.rows[0].index]

    @property
    def min_radius(self) -> float:
        return self.rows[-1].lower_bound


def build_class_table(w: float, q2_override: Optional[float] = None,
                      min_radius: Optional[float] = None,
                      large: bool = False) -> ClassTable:
    """Generate the class table for base lane width w, led by the large
    class 0 when large is set.

    Rows are produced by the width recurrence until the absolute lower
    bound q_i * w_i drops below min_radius (or MAX_CLASSES is hit).
    """
    if not (0 < w <= 1 and math.isfinite(w)):
        raise ValueError(f"base width must be in (0, 1], got {w}")
    if q2_override is not None and not (0 < q2_override < 0.5):
        raise ValueError(f"q2 override must be in (0, 0.5), got {q2_override}")

    def q_of(i: int) -> float:
        if i == 2 and q2_override is not None:
            return q2_override
        return Q_SCHEDULE[i - 1] if i <= len(Q_SCHEDULE) else Q_TAIL

    rows = []
    upper = w / 2.0
    if large:  # class 0's lower bound is class 1's upper bound
        rows.append(ClassRow(0, upper / (1.0 - w), 1.0 - w, upper,
                             (1.0 - w) / 2.0))
    width = w
    i = 1
    while True:
        q = q_of(i)
        bound = q * width
        rows.append(ClassRow(i, q, width, bound, upper))
        if min_radius is not None and bound < min_radius:
            break
        if i >= MAX_CLASSES:
            break
        upper = bound
        width = 2.0 * q * width
        i += 1
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
