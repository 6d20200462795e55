"""End-to-end acceptance suite.

Each test prints one PASS line on success; a failure carries enough context
to reproduce (seed, container, and for the guarantee suites a minimized
counterexample sequence).  The guarantees are universally quantified over
all input sequences and cannot be verified exhaustively; the suites here
are property-based spot checks plus the analytic identities, which is the
strongest check available by design.
"""

import math
import random

import numpy as np
import pytest

from lanepack.audit import validate
from lanepack.bounds import delta, guarantee_rect, guarantee_square
from lanepack.classification import build_class_table
from lanepack.containers import (RectRun, SquareRun, pack_rect_online,
                                 pack_square_online)
from lanepack.genseq import GenSpec, generate
from lanepack.geometry import Orientation, Rect
from lanepack.lanes import LaneState, Packing, place
from lanepack.layout import LaneInfo
from oracles import CommitLog, audit_dslp_lane, audit_slp_lane

RECT_ASPECTS = (1.0, 1.5, 2.0, 2.36, 3.0, 5.0)
SEEDS_PER_ASPECT = 200
SQUARE_SEEDS = 500
# The no-tiny sequences' smallest radius, above the no-tiny table's deepest
# class bound 0.0266223.
NO_TINY_R_MIN = 0.026623


def minimized_counterexample(pack, radii):
    """Greedily shrink a rejected sequence while it keeps being rejected."""
    result = pack(radii)
    assert result.status == "rejected"
    seq = list(radii[:result.rejected_index + 1])
    i = 0
    while i < len(seq):
        cand = seq[:i] + seq[i + 1:]
        if cand and pack(cand).status == "rejected":
            seq = cand
        else:
            i += 1
    return seq


@pytest.fixture(scope="module")
def commit_log():
    """The circles every lane of the guarantee runs committed, for the
    lane lemma audits."""
    return CommitLog()


@pytest.fixture(scope="module")
def rect_guarantee_runs(commit_log):
    runs = []
    for b in RECT_ASPECTS:
        budget = guarantee_rect(b)
        for seed in range(SEEDS_PER_ASPECT):
            radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                                     threshold=budget))
            run = RectRun(b)
            with commit_log.installed():
                result = run.pack(radii)
            runs.append((b, seed, radii, run, result))
    return runs


@pytest.fixture(scope="module")
def square_guarantee_runs(commit_log):
    runs = []
    for seed in range(SQUARE_SEEDS):
        radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                                 threshold=guarantee_square("general"),
                                 r_min=0.001))
        run = SquareRun("general")
        with commit_log.installed():
            result = run.pack(radii)
        runs.append((seed, radii, run, result))
    return runs


@pytest.fixture(scope="module")
def no_tiny_guarantee_runs():
    runs = []
    for seed in range(SQUARE_SEEDS):
        radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                                 threshold=guarantee_square("no_tiny"),
                                 r_min=NO_TINY_R_MIN))
        run = SquareRun("no_tiny")
        result = run.pack(radii)
        runs.append((seed, radii, run, result))
    return runs


def test_criterion_1_validity_suite():
    """1,000 seeded runs across containers and modes: no validity violations."""
    violations = []
    n_runs = 0
    for seed in range(1000):
        kind = seed % 5
        if kind == 0:
            radii = generate(GenSpec(kind="uniform", seed=seed, r_min=0.01,
                                     r_max=0.3, count=120))
            result = pack_square_online("general", radii)
        elif kind == 1:
            radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                                     threshold=0.35, r_min=0.002))
            result = pack_square_online("general", radii)
        elif kind == 2:
            b = 1.0 + (seed % 9) / 2.0
            radii = generate(GenSpec(kind="uniform", seed=seed, r_min=0.02,
                                     r_max=0.5, count=150))
            result = pack_rect_online(b, radii)
        elif kind == 3:
            radii = generate(GenSpec(kind="greedy_adversary", seed=seed,
                                     threshold=0.375898,
                                     r_min=NO_TINY_R_MIN))
            result = pack_square_online("no_tiny", radii)
        else:
            radii = generate(GenSpec(kind="class_boundary", seed=seed))
            result = pack_rect_online(2.0, radii)
        report = validate(result)
        n_runs += 1
        if not report.valid:
            violations.append((seed, kind, [v.detail
                                            for v in report.violations[:3]]))
    # Two large runs exercise the deep-class machinery at scale.
    for seed in (0, 1):
        rng = random.Random(10_000 + seed)
        radii = [rng.uniform(0.002, 0.004) for _ in range(5000)]
        result = pack_square_online("general", radii)
        report = validate(result)
        n_runs += 1
        if not report.valid:
            violations.append((seed, "large", [v.detail
                                               for v in report.violations[:3]]))
    assert not violations, f"validity violations: {violations}"
    print(f"CRITERION 1: PASS ({n_runs} runs, 0 violations)")


def test_criterion_2_rect_guarantee(rect_guarantee_runs):
    """Budget-bounded adversary sequences always pack into the rectangle."""
    failures = []
    for b, seed, radii, _run, result in rect_guarantee_runs:
        total = sum(math.pi * r * r for r in radii)
        assert total <= guarantee_rect(b), "generator exceeded the budget"
        if result.status != "all_packed":
            failures.append(
                (b, seed, minimized_counterexample(
                    lambda rs: pack_rect_online(b, rs), radii)))
    assert not failures, (
        "guarantee violated; minimized counterexamples (b, seed, radii): "
        f"{failures}")
    print(f"CRITERION 2: PASS ({len(rect_guarantee_runs)} runs, "
          f"b in {RECT_ASPECTS})")


def test_criterion_3_square_guarantee(square_guarantee_runs):
    """Area budget 0.350389 always packs into the unit square."""
    failures = []
    for seed, radii, _run, result in square_guarantee_runs:
        total = sum(math.pi * r * r for r in radii)
        assert total <= 0.350389, "generator exceeded the budget"
        if result.status != "all_packed":
            failures.append(
                (seed, minimized_counterexample(
                    lambda rs: pack_square_online("general", rs), radii)))
    assert not failures, f"minimized counterexamples (seed, radii): {failures}"
    print(f"CRITERION 3: PASS ({len(square_guarantee_runs)} runs)")


def test_criterion_4_no_tiny_guarantee(no_tiny_guarantee_runs):
    """Area budget 0.375898 packs when all radii are at least 0.026623."""
    failures = []
    for seed, radii, _run, result in no_tiny_guarantee_runs:
        total = sum(math.pi * r * r for r in radii)
        assert total <= 0.375898, "generator exceeded the budget"
        assert all(r >= NO_TINY_R_MIN for r in radii)
        if result.status != "all_packed":
            failures.append(
                (seed, minimized_counterexample(
                    lambda rs: pack_square_online("no_tiny", rs), radii)))
    assert not failures, f"minimized counterexamples (seed, radii): {failures}"
    print(f"CRITERION 4: PASS ({len(no_tiny_guarantee_runs)} runs)")


def test_criterion_5_worstcase_witnesses():
    """Radius 0.5 just fits any 1 x b; anything larger is a hard witness."""
    for b in (1.0, 1.2, 2.0, 2.36, 3.0, 10.0):
        assert pack_rect_online(b, [0.5]).status == "all_packed", b
    [r_bad] = generate(GenSpec(kind="single_worstcase"))
    assert r_bad == 0.5 + 1e-6
    assert math.pi * r_bad * r_bad > math.pi / 4
    for b in (1.0, 2.36, 5.0):
        assert pack_rect_online(b, [r_bad]).status == "rejected", b
    print("CRITERION 5: PASS (0.5 fits every aspect, 0.5 + 1e-6 rejected)")


# Repeated patterns that a random hill climb over radii found to reject
# closest to the square's guarantees; the circles sit in the medium lanes
# L1-L4.  (mode, pattern, rejected arrival, area at rejection over the
# guarantee, the refused circle included.)
TIGHT_WITNESSES = [
    ("no_tiny", [0.08657108458804358], 16, 1.064815823081828),
    ("general", [0.023926464191368232, 0.018029964057122885,
                 0.018029982087086942, 0.006821627652308508,
                 0.07212000000000002, 0.006875077714477755],
     110, 1.062847411166897),
]


@pytest.mark.parametrize("mode, pattern, index, ratio", TIGHT_WITNESSES,
                         ids=[w[0] for w in TIGHT_WITNESSES])
def test_tight_witnesses(mode, pattern, index, ratio):
    """A witness rejects above its guarantee, and the same radii scaled
    to 0.999 of it pack completely: the guarantee holds at the bound."""
    radii = [pattern[k % len(pattern)] for k in range(index + 1)]
    result = pack_square_online(mode, radii)
    assert (result.status, result.rejected_index) == ("rejected", index)
    area = result.total_packed_area + math.pi * radii[-1] ** 2
    assert area / guarantee_square(mode) == ratio > 1
    assert validate(result).valid
    scale = math.sqrt(0.999 / ratio)
    scaled = pack_square_online(mode, [r * scale for r in radii])
    assert scaled.status == "all_packed"
    assert len(scaled.placements) == index + 1
    assert validate(scaled).valid
    print(f"TIGHT WITNESS {mode}: PASS (rejected at {ratio:.4f} of the "
          f"guarantee, scaled to 0.999 packs)")


def test_criterion_6_bound_goldens():
    """Golden values of the density floor and the container guarantees."""
    assert delta(0.15) == pytest.approx(0.47123, abs=1e-5)
    assert delta(1.0 / (3.0 * math.sqrt(3.0))) == pytest.approx(0.6046,
                                                                abs=1e-4)
    assert delta(0.4) == pytest.approx(0.6489, abs=1e-4)
    assert guarantee_square("general") == 0.350389
    assert guarantee_square("no_tiny") == 0.375898
    for b in np.linspace(1.0, 10.0, 901):
        linear = min(0.528607 * b - 0.457876, math.pi / 4.0)
        assert guarantee_rect(float(b)) == pytest.approx(linear, abs=5e-6)
    print("CRITERION 6: PASS (density floor goldens and guarantee identities)")


def _random_slp_lane(rng):
    q = rng.uniform(0.17, 0.5)
    w = rng.uniform(0.1, 1.0)
    length = rng.uniform(2 * w, 20 * w)
    lane = LaneState(LaneInfo.from_rect(Rect(0, 0, length, w),
                                        Orientation.RIGHTWARDS, "L", "SLP", 1))
    packing = Packing()
    log = CommitLog()
    with log.installed():
        while place(lane, rng.uniform(q * w, 0.5 * w), packing) is not None:
            pass
    return lane, log.placed(lane), q, w


def test_criterion_7_lemma_audits(rect_guarantee_runs, square_guarantee_runs,
                                  commit_log):
    """Lane occupancy lower bounds hold on random lanes and on suite runs."""
    rng = random.Random(1234)
    audited = 0
    while audited < 500:
        lane, placed, q, w = _random_slp_lane(rng)
        if lane.n == 0:
            continue
        assert audit_slp_lane(lane, placed, q, w), (q, w)
        audited += 1

    dslp_audits = 0
    for b, seed, _radii, run, _result in rect_guarantee_runs:
        if run.medium_lanes[0].host.n:
            assert audit_dslp_lane(run.medium_lanes[0], commit_log), (b, seed)
            dslp_audits += 1
    for seed, _radii, run, _result in square_guarantee_runs:
        for d in run.medium_lanes:
            if d.host.n:
                assert audit_dslp_lane(d, commit_log), (seed, d.lane_id)
                dslp_audits += 1
    assert dslp_audits > 0
    print(f"CRITERION 7: PASS (500 single-class lane audits, "
          f"{dslp_audits} double-sided lane audits)")


def test_criterion_8_class_table_reproduction():
    """The width recurrence reproduces the printed lane widths."""
    printed = {2: 0.5, 3: 0.168261, 4: 0.125, 5: 0.047664, 6: 0.016739,
               7: 0.005715}
    table = build_class_table(1.0)
    for i, w in printed.items():
        assert table.row(i).width == pytest.approx(w, abs=1e-6), i
    print("CRITERION 8: PASS (printed lane widths reproduced within 1e-6)")


def test_criterion_9_scale_note():
    """The guarantees quantify over all sequences; acceptance is
    property-based (criteria 1-7) plus analytic identities (6, 8)."""
    print("CRITERION 9: NOTE (property-based acceptance by design)")
