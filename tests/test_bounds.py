import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanepack.bounds import (OVERHEAD_COEFF, RECT_INTERCEPT, RECT_SLOPE,
                             SQUARE_GENERAL, SQUARE_NO_TINY, delta,
                             guarantee_rect, guarantee_square, min_dslp,
                             overhead_bound, semicircle_area)
from oracles import min_slp, sparse_lower

Q_LOW = 1.0 / (3.0 * math.sqrt(3.0))


class TestDelta:
    def test_golden_values(self):
        assert delta(0.15) == pytest.approx(0.47123, abs=1e-5)
        assert delta(Q_LOW) == pytest.approx(0.6046, abs=1e-4)
        assert delta(0.4) == pytest.approx(0.6489, abs=1e-4)

    def test_linear_regime_is_pi_q(self):
        assert delta(0.1) == pytest.approx(math.pi * 0.1, rel=1e-15)

    def test_plateau(self):
        assert delta(0.2) == delta(0.3) == math.pi / (3 * math.sqrt(3))

    def test_half(self):
        # Two half-circles of radius w/2 spanning the full lane width.
        assert delta(0.5) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_continuity_at_breakpoints(self):
        for q in (Q_LOW, 1.0 / 3.0):
            assert delta(q - 1e-12) == pytest.approx(delta(q + 1e-12),
                                                     abs=1e-9)

    def test_monotone_nondecreasing(self):
        qs = np.linspace(0.01, 0.5, 2000)
        vals = [delta(q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        for q in (0.0, -0.1, 0.51):
            with pytest.raises(ValueError):
                delta(q)

    @given(st.floats(0.001, 0.5))
    def test_never_exceeds_disc_in_square_density(self, q):
        assert 0 < delta(q) <= math.pi / 4 + 1e-12


class TestLaneBounds:
    def test_min_slp_at_minimum_length_is_two_semicircles(self):
        z = 0.05
        assert min_slp(2 * z, 1.0, z, delta(0.2)) == pytest.approx(
            math.pi * z * z, rel=1e-12)

    def test_min_slp_clamped_below_2z(self):
        z = 0.05
        assert min_slp(0.0, 1.0, z, delta(0.2)) == pytest.approx(
            math.pi * z * z, rel=1e-12)

    def test_min_slp_linear_in_p(self):
        z, w, d = 0.05, 0.5, delta(0.2)
        a = min_slp(1.0, w, z, d)
        b = min_slp(2.0, w, z, d)
        assert b - a == pytest.approx(w * d, rel=1e-12)

    def test_sparse_lower_identity(self):
        # A sparse block of length z holds exactly one semicircle.
        z = 0.1
        assert sparse_lower(z, 1.0, z, delta(0.2)) == pytest.approx(
            semicircle_area(z), rel=1e-12)

    def test_sparse_lower_rejects_short_block(self):
        with pytest.raises(ValueError):
            sparse_lower(0.05, 1.0, 0.1, delta(0.2))

    def test_min_dslp_constant_terms(self):
        w, z = 0.3, 0.01
        # With p_t + p_b <= w + 4z only the semicircle terms remain.
        got = min_dslp(0.0, 0.0, w, z, delta(0.168261))
        expect = math.pi * w * w / 16 + 2 * math.pi * z * z
        assert got == pytest.approx(expect, rel=1e-12)

    def test_min_dslp_slope(self):
        w, z, d = 0.3, 0.01, delta(0.168261)
        a = min_dslp(1.0, 1.0, w, z, d)
        b = min_dslp(1.5, 1.0, w, z, d)
        assert b - a == pytest.approx(0.5 * (w / 2) * d, rel=1e-12)

    @given(st.floats(0, 3), st.floats(0, 3), st.floats(0.05, 0.5),
           st.floats(0.0001, 0.01))
    def test_bounds_nonnegative(self, p_t, p_b, w, z):
        assert min_slp(p_t, w, z, delta(0.2)) >= 0
        assert min_dslp(p_t, p_b, w, z, delta(0.2)) >= 0

    def test_overhead(self):
        assert overhead_bound(0.3) == pytest.approx(OVERHEAD_COEFF * 0.09,
                                                    rel=1e-12)
        assert overhead_bound(0.0) == 0.0
        with pytest.raises(ValueError):
            overhead_bound(-0.1)


class TestGuarantees:
    def test_rect_linear_form_matches_slope_identity(self):
        # The linear slope equals the double-sided density floor at the
        # class-2 relative bound, and the intercept is consistent with the
        # constant terms of the lane bound, to printed precision.
        q2 = 0.168261
        d2 = delta(q2)
        assert d2 == pytest.approx(RECT_SLOPE, abs=1e-6)
        intercept = ((0.75 + q2) * d2 - math.pi / 16
                     - (math.pi / 2) * q2 * q2 + OVERHEAD_COEFF)
        assert intercept == pytest.approx(RECT_INTERCEPT, abs=5e-6)

    def test_rect_values(self):
        assert guarantee_rect(1.0) == pytest.approx(0.070731, abs=1e-6)
        assert guarantee_rect(2.0) == pytest.approx(0.599338, abs=1e-6)
        assert guarantee_rect(3.0) == math.pi / 4
        assert guarantee_rect(100.0) == math.pi / 4

    def test_rect_cap_crossover(self):
        b_star = (math.pi / 4 + RECT_INTERCEPT) / RECT_SLOPE
        assert guarantee_rect(b_star - 1e-6) < math.pi / 4
        assert guarantee_rect(b_star + 1e-6) == math.pi / 4
        assert 2.35 < b_star < 2.36

    def test_rect_linear_within_5e6_on_range(self):
        for b in np.linspace(1, 10, 181):
            lin = min(RECT_SLOPE * b - RECT_INTERCEPT, math.pi / 4)
            assert guarantee_rect(float(b)) == pytest.approx(lin, abs=5e-6)

    def test_rect_domain(self):
        with pytest.raises(ValueError):
            guarantee_rect(0.99)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_rect_refuses_non_finite_aspect(self, b):
        # The packer refuses these aspects, so no guarantee holds for them.
        with pytest.raises(ValueError, match="finite"):
            guarantee_rect(b)

    def test_square_values_exact(self):
        assert guarantee_square("general") == SQUARE_GENERAL == 0.350389
        assert guarantee_square("no_tiny") == SQUARE_NO_TINY == 0.375898
        with pytest.raises(ValueError):
            guarantee_square("bogus")

    def test_guarantees_below_trivial_caps(self):
        # No guarantee can exceed the area of the largest inscribed disk
        # of the unit square, and the rectangle guarantee is capped there.
        assert SQUARE_GENERAL < SQUARE_NO_TINY < math.pi / 4
        assert guarantee_rect(50.0) == math.pi / 4

    def test_helpers(self):
        assert semicircle_area(1.0) == pytest.approx(math.pi / 2)
