"""Executable density bounds and packing guarantees.

Pure closed-form functions: the dense-block density floor delta(q), the
lower bound for a double-sidedly packed lane, the overhead allowance for
still-open vertical sub-lanes, and the container guarantees for the
1 x b rectangle and the unit square.
"""

from __future__ import annotations

import math

# Guarantee constants, stored at printed precision.
RECT_SLOPE = 0.528607
RECT_INTERCEPT = 0.457876
SQUARE_GENERAL = 0.350389
SQUARE_NO_TINY = 0.375898
OVERHEAD_COEFF = 0.213297

# Breakpoints of delta(q).
_Q_LOW = 1.0 / (3.0 * math.sqrt(3.0))
_Q_MID = 1.0 / 3.0


def semicircle_area(r: float) -> float:
    return 0.5 * math.pi * r * r


def delta(q: float) -> float:
    """Minimal density of a dense block whose two semicircle radii are >= q*w."""
    if not (0 < q <= 0.5):
        raise ValueError(f"q must be in (0, 0.5], got {q}")
    if q < _Q_LOW:
        return math.pi * q
    if q <= _Q_MID:
        return math.pi / (3.0 * math.sqrt(3.0))
    return math.pi * q * q / math.sqrt(4.0 * q - 1.0)


def min_dslp(p_t: float, p_b: float, w: float, z: float,
             delta_min: float) -> float:
    """Lower bound for a double-sidedly packed lane of width w.

    z is the absolute minimal radius of the circles involved; the rectangle
    term uses the half width and is clamped at zero when the packing is
    shorter than the constant terms account for.
    """
    rect_term = max(0.0, p_t + p_b - w - 4.0 * z) * (w / 2.0) * delta_min
    return (rect_term + 2.0 * semicircle_area(w / 4.0)
            + 4.0 * semicircle_area(z))


def overhead_bound(w: float) -> float:
    """Allowance for vertical sub-lanes that are still open."""
    if w < 0:
        raise ValueError(f"width must be nonnegative, got {w}")
    return OVERHEAD_COEFF * w * w


def guarantee_rect(b: float) -> float:
    """Area budget guaranteed packable into a 1 x b rectangle."""
    if not (1 <= b < math.inf):
        raise ValueError(f"aspect b must be finite and >= 1, got {b}")
    return min(RECT_SLOPE * b - RECT_INTERCEPT, math.pi / 4.0)


def guarantee_square(mode: str) -> float:
    """Area budget guaranteed packable into the unit square."""
    if mode == "general":
        return SQUARE_GENERAL
    if mode == "no_tiny":
        return SQUARE_NO_TINY
    raise ValueError(f"unknown mode {mode!r}")
