"""Deterministic, seeded generators of online radius sequences.

Used by the guarantee suites and the CLI.  Output is a pure function of
the GenSpec; the packer under test never shares the random stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .bounds import SQUARE_GENERAL
from .classification import build_class_table

# The base lane width whose class table class_boundary straddles, and how
# far above 1/2 the single_worstcase radius lies.
BOUNDARY_WIDTH = 1.0
WORSTCASE_EPSILON = 1e-6


@dataclass(frozen=True)
class GenSpec:
    kind: str
    seed: int = 0
    # greedy_adversary kind only: SQUARE_GENERAL if None
    threshold: Optional[float] = None
    r_min: float = 0.001
    r_max: float = 0.5
    count: Optional[int] = None  # uniform kind only: 100 draws if None

    def __post_init__(self):
        if self.kind not in _GENERATORS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.count is not None and self.count < 0:
            raise ValueError(f"need count >= 0, got {self.count}")
        if self.count is not None and self.kind != "uniform":
            raise ValueError(f"kind {self.kind!r} takes no count")
        # A NaN or infinite bound would loop forever or emit inf radii.
        if not (0 < self.r_min <= self.r_max < math.inf):
            raise ValueError(f"need finite 0 < r_min <= r_max, got "
                             f"[{self.r_min}, {self.r_max}]")
        if self.kind == "single_worstcase" and (
                (self.r_min, self.r_max) != (GenSpec.r_min, GenSpec.r_max)):
            raise ValueError(f"kind {self.kind!r} takes no r_min or r_max")
        if self.threshold is not None and not (0 < self.threshold < math.inf):
            raise ValueError(f"need finite threshold > 0, got {self.threshold}")
        if self.threshold is not None and self.kind != "greedy_adversary":
            raise ValueError(f"kind {self.kind!r} takes no threshold")


def greedy_adversary(spec: GenSpec) -> list[float]:
    """Radii drawn to saturate the area budget; total area <= threshold."""
    rng = random.Random(spec.seed)
    budget = SQUARE_GENERAL if spec.threshold is None else spec.threshold
    out: list[float] = []
    while True:
        cap = min(spec.r_max, math.sqrt(budget / math.pi))
        if cap < spec.r_min:
            break
        r = rng.uniform(spec.r_min, cap)
        area = math.pi * r * r
        if area > budget:
            break  # rounding at the cap; budget is exhausted
        out.append(r)
        budget -= area
    return out


def uniform(spec: GenSpec) -> list[float]:
    rng = random.Random(spec.seed)
    n = 100 if spec.count is None else spec.count
    return [rng.uniform(spec.r_min, spec.r_max) for _ in range(n)]


def single_worstcase(spec: GenSpec) -> list[float]:
    return [0.5 + WORSTCASE_EPSILON]


def class_boundary(spec: GenSpec) -> list[float]:
    """Radii straddling every class boundary of the table at BOUNDARY_WIDTH."""
    table = build_class_table(BOUNDARY_WIDTH)
    radii = []
    for row in table.rows:
        for r in (row.lower_bound - 1e-9, row.lower_bound + 1e-9):
            if spec.r_min <= r <= spec.r_max:
                radii.append(r)
    rng = random.Random(spec.seed)
    rng.shuffle(radii)
    return radii


_GENERATORS = {
    "greedy_adversary": greedy_adversary,
    "uniform": uniform,
    "single_worstcase": single_worstcase,
    "class_boundary": class_boundary,
}
KINDS = tuple(_GENERATORS)


def generate(spec: GenSpec) -> list[float]:
    return _GENERATORS[spec.kind](spec)
