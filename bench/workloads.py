"""Seeded inputs of the benchmark workloads.

A workload is a list of jobs. A job is one radius sequence plus the
container it is packed into; the packer receives only the radii. The same
workload name and seed always give the same jobs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Union

from lanepack.genseq import GenSpec, generate

# Guarantee constants as printed in the paper. They are typed here rather
# than read from lanepack.bounds so that the guarantee check stays
# independent of the code it checks.
SQUARE_GENERAL = 0.350389
SQUARE_NO_TINY = 0.375898
RECT_SLOPE = 0.528607
RECT_INTERCEPT = 0.457876

# The packer refuses no-tiny radii below this value although the paper's
# class-2 bound is 0.026622 (see the FOUND line in CHANGES.md), so the
# no-tiny sequences are drawn from here up.
NO_TINY_MIN_RADIUS = 0.026623

TINY_STREAM_N = 3000
RECT_MIXED_B = 2.0
RECT_MIXED_TINY = 2000
ADVERSARY_SEQUENCES = 600
ADVERSARY_CONTAINERS = (
    ("rect", 1.0), ("rect", 1.5), ("rect", 2.0), ("rect", 3.0),
    ("square", "general"), ("square", "no_tiny"),
)


@dataclass(frozen=True)
class Job:
    container: str  # "square" or "rect"
    param: Union[str, float]  # square mode, or rectangle aspect b
    radii: tuple[float, ...]

    @property
    def size(self) -> tuple[float, float]:
        """Container width and height."""
        return (self.param, 1.0) if self.container == "rect" else (1.0, 1.0)

    @property
    def guarantee(self) -> float:
        """Area budget below which every sequence must pack."""
        if self.container == "rect":
            return min(RECT_SLOPE * self.param - RECT_INTERCEPT, math.pi / 4)
        return SQUARE_GENERAL if self.param == "general" else SQUARE_NO_TINY


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    warmup: list[Job]  # run untimed before measuring


def tiny_radii(seed: int, n: int) -> tuple[float, ...]:
    """Radii U[0.002, 0.004]: classes 5-6 of the general-mode square."""
    rng = random.Random(f"square_tiny_stream/{seed}")
    return tuple(rng.uniform(0.002, 0.004) for _ in range(n))


def square_tiny_stream(seed: int) -> Workload:
    """One long tiny stream into the general-mode square; total area about
    0.088."""
    radii = tiny_radii(seed, TINY_STREAM_N)
    job = Job("square", "general", radii)
    return Workload([job], [Job("square", "general", radii[:200])])


def rect_mixed_stream(seed: int) -> Workload:
    """One long stream into the 1 x 2 rectangle: two medium circles
    (class 1), four class-2, two class-3 and eight class-4 circles at fixed
    arrival slots among 2,000 tiny ones (classes 5-6).

    The non-tiny circles add up to at most 0.545 and the tiny ones to about
    0.049, so the total stays under the guarantee 0.599338.
    """
    rng = random.Random(f"rect_mixed_stream/{seed}")
    medium = [rng.uniform(0.2505, 0.252) for _ in range(2)]
    small = [rng.uniform(0.0845, 0.088) for _ in range(4)]
    class3 = [rng.uniform(0.063, 0.068) for _ in range(2)]
    class4 = [rng.uniform(0.024, 0.028) for _ in range(8)]
    tiny = [rng.uniform(0.002, 0.0035) for _ in range(RECT_MIXED_TINY)]
    # Each medium circle caps the previous block and opens a sparse one;
    # the circles after it arrive while tiny circles fill that block.
    others = ([medium[0]] + small[:2] + class3[:1] + class4[:4]
              + [medium[1]] + small[2:] + class3[1:] + class4[4:])
    radii = list(tiny)
    step = len(tiny) // len(others)
    for k, r in enumerate(others):
        radii.insert(k * (step + 1), r)
    job = Job("rect", RECT_MIXED_B, tuple(radii))
    return Workload([job], [Job("rect", RECT_MIXED_B, tuple(radii[:300]))])


def adversary_batch(seed: int) -> Workload:
    """Many short greedy-adversary sequences, each saturating the area
    budget of its container, cycling through four rectangle aspects and
    both square modes."""
    jobs = []
    for k in range(ADVERSARY_SEQUENCES):
        container, param = ADVERSARY_CONTAINERS[k % len(ADVERSARY_CONTAINERS)]
        job = Job(container, param, ())
        r_min = NO_TINY_MIN_RADIUS if param == "no_tiny" else 0.001
        spec = GenSpec(kind="greedy_adversary", seed=seed * 1_000_003 + k,
                       threshold=job.guarantee, r_min=r_min)
        jobs.append(Job(container, param, tuple(generate(spec))))
    return Workload(jobs, jobs[:30])


WORKLOADS = {
    "square_tiny_stream": square_tiny_stream,
    "rect_mixed_stream": rect_mixed_stream,
    "adversary_batch": adversary_batch,
}
