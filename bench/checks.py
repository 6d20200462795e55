"""Output checks that do not rely on lanepack.audit.

Every check returns a list of failure strings, each starting with a tag
(`overlap:`, `outside:`, `radius:`, `arrivals:`, `guarantee:`,
`roundtrip:`, `audit:`). An empty list means the output passed.
"""

from __future__ import annotations

import dataclasses
import math

import lanepack
import numpy as np

from workloads import Job

# The packer's default tolerance: touching disks may interpenetrate by
# less than this.
EPS = 1e-9


def overlapping_pairs(xs: np.ndarray, ys: np.ndarray, rs: np.ndarray,
                      eps: float = EPS) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of disks that overlap by more than eps.

    Sort-and-sweep on x: only disks whose x-extents intersect are compared.
    """
    n = len(xs)
    if n < 2:
        return []
    order = np.argsort(xs - rs, kind="stable")
    lo = (xs - rs)[order]
    hi = (xs + rs)[order]
    stop = np.searchsorted(lo, hi, side="left")
    counts = np.maximum(stop - np.arange(n) - 1, 0)
    first = np.repeat(np.arange(n), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    a = order[first]
    b = order[first + 1 + offset]
    rsum = rs[a] + rs[b] - eps
    dx = xs[a] - xs[b]
    dy = ys[a] - ys[b]
    bad = (rsum > 0) & (dx * dx + dy * dy < rsum * rsum)
    return sorted((int(min(i, j)), int(max(i, j)))
                  for i, j in zip(a[bad], b[bad]))


def geometry_failures(result, width: float, height: float) -> list[str]:
    placed = result.placements
    if not placed:
        return []
    xs = np.array([c.x for c in placed])
    ys = np.array([c.y for c in placed])
    rs = np.array([c.r for c in placed])
    out = [f"overlap: disks {i} and {j}"
           for i, j in overlapping_pairs(xs, ys, rs)]
    outside = ((xs - rs < -EPS) | (xs + rs > width + EPS)
               | (ys - rs < -EPS) | (ys + rs > height + EPS))
    out += [f"outside: disk {i} leaves the {width} x {height} container"
            for i in np.nonzero(outside)[0]]
    return out


def arrival_failures(radii, result) -> list[str]:
    """Placement k is arrival k with its radius unchanged; the packed
    prefix ends exactly at the first rejection."""
    n = len(radii)
    if result.status == "all_packed":
        expected = n
    elif result.status == "rejected":
        k = result.rejected_index
        if not (isinstance(k, int) and 0 <= k < n):
            return [f"arrivals: rejected index {k!r} outside 0..{n - 1}"]
        if result.rejected_radius != radii[k]:
            return [f"radius: rejected radius {result.rejected_radius!r} is "
                    f"not input {k} ({radii[k]!r})"]
        expected = k
    else:
        return [f"arrivals: unknown status {result.status!r}"]
    placed = result.placements
    out = []
    if len(placed) != expected:
        out.append(f"arrivals: {len(placed)} placements, expected {expected}")
    for k, c in enumerate(placed[:expected]):
        if c.seq != k:
            out.append(f"arrivals: placement {k} carries index {c.seq}")
            break
    for k, c in enumerate(placed[:expected]):
        if c.r != radii[k]:
            out.append(f"radius: placement {k} has r={c.r!r}, "
                       f"input {radii[k]!r}")
            break
    return out


def guarantee_failures(job: Job, result) -> list[str]:
    area = math.fsum(math.pi * r * r for r in job.radii)
    if area <= job.guarantee and result.status != "all_packed":
        return [f"guarantee: area {area:.6f} <= {job.guarantee:.6f} "
                f"but status {result.status!r}"]
    return []


def roundtrip_failures(result, back) -> list[str]:
    fields = ("status", "placements", "lanes", "rejected_index",
              "rejected_radius", "per_lane")
    return [f"roundtrip: {name} differs after JSON"
            for name in fields if getattr(result, name) != getattr(back, name)]


def failures(job: Job, result, back, report) -> list[str]:
    """Every check on one packed, serialized, parsed and audited job."""
    width, height = job.size
    out = geometry_failures(result, width, height)
    out += arrival_failures(job.radii, result)
    out += guarantee_failures(job, result)
    out += roundtrip_failures(result, back)
    if not report.valid:
        out.append(f"audit: validate reports {len(report.violations)} "
                   f"violations")
    return out


def self_test() -> list[str]:
    """Corrupt a valid packing in five ways; each must be caught.

    Returns the problems found with the checker, empty when it works.
    """
    radii = (0.12, 0.1, 0.08, 0.06, 0.04, 0.03)
    job = Job("square", "general", radii)
    good = lanepack.pack_square_online("general", radii)

    class Valid:
        valid = True
        violations = ()

    problems = []
    found = failures(job, good, good, Valid)
    if found:
        problems.append(f"a valid packing was flagged: {found}")

    placed = good.placements
    moved = list(placed)
    moved[1] = dataclasses.replace(placed[1], x=placed[0].x, y=placed[0].y)
    outside = list(placed)
    outside[2] = dataclasses.replace(placed[2], x=1.0 - placed[2].r / 2)
    shrunk = list(placed)
    shrunk[3] = dataclasses.replace(placed[3], r=placed[3].r * 0.999)
    dropped = placed[:2] + placed[3:]
    corrupt = {
        "overlap": dataclasses.replace(good, placements=moved),
        "outside": dataclasses.replace(good, placements=outside),
        "radius": dataclasses.replace(good, placements=shrunk),
        "arrivals": dataclasses.replace(good, placements=dropped),
        "guarantee": dataclasses.replace(
            good, status="rejected", placements=placed[:-1],
            rejected_index=len(radii) - 1, rejected_radius=radii[-1]),
    }
    for tag, bad in corrupt.items():
        found = failures(job, bad, bad, Valid)
        if not any(f.startswith(tag + ":") for f in found):
            problems.append(f"{tag} corruption not reported (got {found})")
    return problems
