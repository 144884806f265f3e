import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpv_effect.membership import (
    MembershipFn,
    dominance,
    energy_measure,
    entropy_measure,
    trapezoid,
    triangle,
)

from support import (
    brute_dominance,
    dominance_oracle_setup,
    lattice_trapezoid_pair,
    random_membership,
    refine,
)


@st.composite
def memberships(draw):
    count = draw(st.integers(min_value=2, max_value=7))
    start = draw(st.floats(min_value=-20.0, max_value=20.0))
    steps = draw(
        st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=count - 1, max_size=count - 1)
    )
    grid = start + np.concatenate(([0.0], np.cumsum(steps)))
    values = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=count, max_size=count)
    )
    return MembershipFn(grid, np.array(values))


class TestEvaluation:
    def test_plateau(self):
        assert trapezoid(0, 1, 2, 3)(1.5) == 1.0

    def test_ramp_midpoint(self):
        assert trapezoid(0, 1, 2, 3)(0.5) == 0.5

    def test_zero_outside_support(self):
        m = trapezoid(0, 1, 2, 3)
        assert m(-0.01) == 0.0
        assert m(3.01) == 0.0

    def test_degenerate_corners(self):
        jump_left = trapezoid(1, 1, 2, 3)
        assert jump_left(1.0) == 1.0
        assert jump_left(0.999) == 0.0
        jump_right = trapezoid(0, 1, 3, 3)
        assert jump_right(3.0) == 1.0
        crisp = trapezoid(1, 1, 2, 2)
        assert crisp(1.5) == 1.0
        assert np.array_equal(crisp.grid, [1.0, 2.0])

    def test_rejects_bad_corners(self):
        with pytest.raises(ValueError):
            trapezoid(0, 2, 1, 3)
        with pytest.raises(ValueError):
            trapezoid(1, 1, 1, 1)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            MembershipFn([0.0, 0.0, 1.0], [0, 1, 0])
        with pytest.raises(ValueError):
            MembershipFn([0.0, 1.0], [0.0, 1.5])
        with pytest.raises(ValueError):
            MembershipFn([0.0], [1.0])


class TestMeasures:
    def test_energy_of_zero_membership(self):
        assert energy_measure(MembershipFn([0.0, 1.0], [0.0, 0.0])) == 0.0

    def test_energy_trapezoid(self):
        assert energy_measure(trapezoid(0, 1, 2, 3)) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_energy_triangle(self):
        assert energy_measure(triangle(0, 1, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_entropy_crisp_plateau(self):
        assert entropy_measure(trapezoid(1, 1, 2, 2)) == 0.0

    def test_entropy_triangle(self):
        assert entropy_measure(triangle(0, 1, 2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_entropy_trapezoid_matches_triangle(self):
        # the plateau contributes nothing: same two ramps as the triangle
        assert entropy_measure(trapezoid(0, 1, 2, 3)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @given(memberships())
    def test_bounds_and_ordering(self, m):
        delta = energy_measure(m)
        epsilon = entropy_measure(m)
        assert 0.0 <= delta < 1.0
        assert 0.0 <= epsilon < 1.0
        assert epsilon <= delta + 1e-15

    def test_refinement_stability(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = random_membership(rng)
            fine = refine(refine(m))
            assert abs(energy_measure(m) - energy_measure(fine)) < 1e-12
            assert abs(entropy_measure(m) - entropy_measure(fine)) < 1e-12


class TestDominance:
    def test_equal_triangles(self):
        m = triangle(0, 1, 2)
        assert dominance(m, m) == 1.0

    def test_disjoint_supports_left_of_right(self):
        assert dominance(triangle(0, 1, 2), triangle(10, 11, 12)) == 0.0

    def test_disjoint_supports_right_of_left(self):
        assert dominance(triangle(10, 11, 12), triangle(0, 1, 2)) == 1.0

    def test_overlapping_triangles_cross_at_half(self):
        assert dominance(triangle(0, 1, 2), triangle(1, 2, 3)) == pytest.approx(0.5, abs=1e-12)

    @given(memberships())
    def test_self_dominance_equals_peak(self, m):
        assert dominance(m, m) == pytest.approx(m.peak, abs=1e-12)

    @given(memberships(), memberships(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60)
    def test_shift_monotonicity(self, k, l, offset):
        assert dominance(k.shift(offset), l) >= dominance(k, l) - 1e-12

    def test_normal_peak_ordering_gives_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k_corners = np.sort(rng.uniform(-10, 10, 4))
            l_corners = np.sort(rng.uniform(-10, 10, 4))
            k = trapezoid(*k_corners)
            # slide l until its plateau starts at or left of k's plateau end
            slide = l_corners[1] - k_corners[2] + float(rng.uniform(0.0, 3.0))
            l = trapezoid(*(l_corners - max(slide, 0.0)))
            assert k.peak == 1.0 and l.peak == 1.0
            assert dominance(k, l) == 1.0

    def test_refinement_stability(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            k = random_membership(rng)
            l = random_membership(rng)
            assert abs(dominance(k, l) - dominance(refine(k), refine(l))) < 1e-12

    def test_matches_brute_force_on_lattice_trapezoids(self):
        rng = np.random.default_rng(404)
        xs, feasible = dominance_oracle_setup()
        for _ in range(20):
            k, l = lattice_trapezoid_pair(rng)
            assert dominance(k, l) == pytest.approx(
                brute_dominance(k, l, xs, feasible), abs=1e-6
            )

    def test_subnormal_memberships(self):
        k = MembershipFn([0.0, 1.0, 2.0], [0.0, 0.6, 0.0])
        l = MembershipFn([0.0, 1.0, 2.0], [0.0, 0.8, 0.0])
        assert dominance(k, l) == pytest.approx(0.6, abs=1e-12)
        assert dominance(k, k) == pytest.approx(0.6, abs=1e-12)

    def test_knots_two_ulp_apart_raise_no_warning(self):
        # the refinement interval between 1 and its second successor rounds to width 0
        close = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        k = MembershipFn([0.0, 1.0, close, 3.0], [0.0, 0.5, 0.5, 0.0])
        l = MembershipFn([0.0, 1.0, close, 3.0], [0.0, 0.2, 0.2, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dominance(k, l) == pytest.approx(0.2, abs=1e-12)
            assert dominance(l, k) == pytest.approx(0.2, abs=1e-12)

    def test_jump_edges(self):
        # left-edge jump on k changes nothing to the right of its plateau
        assert dominance(trapezoid(0, 0, 1, 2), triangle(1, 2, 3)) == pytest.approx(0.5, abs=1e-12)
        # right-edge jump: the sup sits exactly at the discontinuity
        assert dominance(trapezoid(0, 1, 2, 2), triangle(1.5, 2.5, 3.5)) == pytest.approx(0.5, abs=1e-12)
        # crisp interval vs crisp interval
        assert dominance(trapezoid(0, 0, 1, 1), trapezoid(1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-12)
        assert dominance(trapezoid(0, 0, 1, 1), trapezoid(1.5, 1.5, 2, 2)) == 0.0
