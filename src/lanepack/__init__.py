"""Online circle packing with provable density guarantees.

Lane-based online strategies for packing circle sequences into the unit
square and into 1 x b rectangles, executable forms of the associated
density bounds, audits that verify packings against those bounds, and
seeded adversarial sequence generators.
"""

from .bounds import (delta, guarantee_rect, guarantee_square, min_dslp,
                     min_slp, overhead_bound, sparse_lower)
from .classification import (ClassTable, TooLarge, TooSmall,
                             build_class_table, classify)
from .containers import (PackResult, RectRun, SquareRun, pack_rect_online,
                         pack_square_online, square_layout)
from .genseq import GenSpec, generate
from .geometry import EPS, PlacedCircle, Rect

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "ClassTable",
    "GenSpec",
    "PackResult",
    "PlacedCircle",
    "Rect",
    "RectRun",
    "SquareRun",
    "TooLarge",
    "TooSmall",
    "build_class_table",
    "classify",
    "delta",
    "generate",
    "guarantee_rect",
    "guarantee_square",
    "min_dslp",
    "min_slp",
    "overhead_bound",
    "pack_rect_online",
    "pack_square_online",
    "sparse_lower",
    "square_layout",
]
