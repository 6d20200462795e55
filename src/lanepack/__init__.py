"""Online circle packing with provable density guarantees.

The package exports the nine names the README documents: the online
packers for the unit square and the 1 x b rectangle, their run objects,
results and circles, and the container guarantees with the dense-block
density floor.  The rest stays in its module: the audit in
lanepack.audit, the container layouts in lanepack.layout, the seeded
sequence generators in lanepack.genseq, the class tables in
lanepack.classification, the lane bounds in lanepack.bounds and the
geometry in lanepack.geometry.
"""

from .bounds import delta, guarantee_rect, guarantee_square
from .containers import (RectRun, SquareRun, pack_rect_online,
                         pack_square_online)
from .geometry import PlacedCircle
from .layout import PackResult

__version__ = "0.1.0"

__all__ = [
    "PackResult",
    "PlacedCircle",
    "RectRun",
    "SquareRun",
    "delta",
    "guarantee_rect",
    "guarantee_square",
    "pack_rect_online",
    "pack_square_online",
]
