"""Circle size classes: relative lower bounds q_i and lane widths w_i.

The class schedule is a fixed recurrence w_{i+1} = 2 * q_i * w_i over the
constants below.  A circle of radius r belongs to class 1 when
w/2 >= r > q_1*w_1 and to class i >= 2 when q_{i-1}*w_{i-1} >= r > q_i*w_i
(upper-inclusive, lower-exclusive).  An optional "large" class 0 sits above
class 1 for square containers.
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

    @property
    def lower_bound(self) -> float:
        """Absolute lower bound for radii of this class."""
        return self.q * self.width


@dataclass(frozen=True)
class LargeClass:
    q0: float
    w0: float

    @property
    def max_radius(self) -> float:
        return self.w0 / 2.0


@dataclass(frozen=True)
class ClassTable:
    base_width: float
    rows: tuple[ClassRow, ...]
    large: Optional[LargeClass] = None

    def row(self, i: int) -> ClassRow:
        return self.rows[i - 1]

    @property
    def min_radius(self) -> float:
        return self.rows[-1].lower_bound


def build_class_table(w: float, q2_override: Optional[float] = None,
                      min_radius: Optional[float] = None,
                      large: bool = False) -> ClassTable:
    """Generate the class table for base lane width w.

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
    width = w
    i = 1
    while True:
        q = q_of(i)
        rows.append(ClassRow(i, q, width))
        bound = q * width
        if min_radius is not None and bound < min_radius:
            break
        if i >= MAX_CLASSES:
            break
        width = 2.0 * q * width
        i += 1

    large_class = LargeClass(q0=w / 2.0, w0=1.0 - w) if large else None
    return ClassTable(base_width=w, rows=tuple(rows), large=large_class)


def classify(r: float, table: ClassTable) -> int:
    """Class index for radius r, or raise TooLarge / TooSmall."""
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"radius must be positive and finite, got {r}")
    w = table.base_width
    if table.large is not None:
        if r > table.large.max_radius:
            raise TooLarge(f"radius {r} exceeds large-lane capacity "
                           f"{table.large.max_radius}")
        if r > table.large.q0:
            return 0
    if r > w / 2.0:
        raise TooLarge(f"radius {r} exceeds half the lane width {w / 2.0}")
    for row in table.rows:
        if r > row.q * row.width:  # row.lower_bound, inlined
            return row.index
    raise TooSmall(f"radius {r} is below the deepest class bound "
                   f"{table.min_radius}")


def table_csv(table: ClassTable) -> str:
    """CSV dump: class index, q_i, w_i, absolute lower bound."""
    lines = ["i,q_i,w_i,q_i*w_i"]
    for row in table.rows:
        lines.append(f"{row.index},{row.q!r},{row.width!r},{row.lower_bound!r}")
    return "\n".join(lines) + "\n"
