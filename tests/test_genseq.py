import math

import pytest

from lanepack.classification import build_class_table
from lanepack.genseq import (KINDS, GenSpec, class_boundary, generate,
                             greedy_adversary, single_worstcase, uniform)


class TestGenSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GenSpec(kind="chaotic")

    def test_bad_radius_range(self):
        with pytest.raises(ValueError):
            GenSpec(kind="uniform", r_min=0.2, r_max=0.1)
        with pytest.raises(ValueError):
            GenSpec(kind="uniform", r_min=0.0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            GenSpec(kind="greedy_adversary", threshold=0.0)

    @pytest.mark.parametrize("threshold", [math.inf, math.nan, -math.inf])
    def test_non_finite_threshold(self, threshold):
        # A greedy adversary never exhausts such a budget.
        with pytest.raises(ValueError):
            GenSpec(kind="greedy_adversary", threshold=threshold)

    @pytest.mark.parametrize("r_min, r_max", [
        (0.001, math.inf), (0.001, math.nan), (math.nan, 0.5),
        (math.inf, math.inf)])
    def test_non_finite_radius_range(self, r_min, r_max):
        with pytest.raises(ValueError):
            GenSpec(kind="uniform", r_min=r_min, r_max=r_max)

    def test_all_kinds_generate(self):
        for kind in KINDS:
            radii = generate(GenSpec(kind=kind, seed=1))
            assert isinstance(radii, list)
            assert all(r > 0 for r in radii)


class TestGreedyAdversary:
    def test_budget_never_exceeded(self):
        for seed in range(50):
            spec = GenSpec(kind="greedy_adversary", seed=seed, threshold=0.35)
            radii = greedy_adversary(spec)
            assert sum(math.pi * r * r for r in radii) <= 0.35

    def test_budget_nearly_saturated(self):
        for seed in range(20):
            spec = GenSpec(kind="greedy_adversary", seed=seed,
                           threshold=0.35, r_min=0.001)
            total = sum(math.pi * r * r for r in greedy_adversary(spec))
            # Remaining budget is below the area of the smallest legal draw.
            assert total >= 0.35 - math.pi * 0.001 ** 2

    def test_respects_radius_range(self):
        spec = GenSpec(kind="greedy_adversary", seed=3, threshold=0.5,
                       r_min=0.01, r_max=0.2)
        radii = greedy_adversary(spec)
        assert all(0.01 <= r <= 0.2 for r in radii)

    def test_reproducible(self):
        spec = GenSpec(kind="greedy_adversary", seed=42, threshold=0.35)
        assert greedy_adversary(spec) == greedy_adversary(spec)

    def test_seed_changes_output(self):
        a = greedy_adversary(GenSpec(kind="greedy_adversary", seed=0))
        b = greedy_adversary(GenSpec(kind="greedy_adversary", seed=1))
        assert a != b


class TestUniform:
    def test_count_and_range(self):
        spec = GenSpec(kind="uniform", seed=7, r_min=0.05, r_max=0.3,
                       count=250)
        radii = uniform(spec)
        assert len(radii) == 250
        assert all(0.05 <= r <= 0.3 for r in radii)

    def test_reproducible(self):
        spec = GenSpec(kind="uniform", seed=7)
        assert uniform(spec) == uniform(spec)


class TestSingleWorstcase:
    def test_single_radius_above_half(self):
        radii = single_worstcase(GenSpec(kind="single_worstcase"))
        assert radii == [0.5 + 1e-6]

    def test_area_exceeds_quarter_pi(self):
        [r] = single_worstcase(GenSpec(kind="single_worstcase"))
        assert math.pi * r * r > math.pi / 4


class TestClassBoundary:
    def test_straddles_every_in_range_boundary(self):
        spec = GenSpec(kind="class_boundary", seed=0, r_min=0.001, r_max=0.5)
        radii = class_boundary(spec)
        table = build_class_table(1.0)
        for row in table.rows:
            b = row.lower_bound
            if 0.001 + 1e-9 <= b <= 0.5 - 1e-9:
                assert any(abs(r - (b - 1e-9)) < 1e-15 for r in radii)
                assert any(abs(r - (b + 1e-9)) < 1e-15 for r in radii)

    def test_shuffle_is_seeded(self):
        spec = GenSpec(kind="class_boundary", seed=5)
        assert class_boundary(spec) == class_boundary(spec)
