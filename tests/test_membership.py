import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bpv_effect import effectiveness
from bpv_effect.effectiveness import dominance_matrix
from bpv_effect.membership import (
    MembershipFn,
    energy_measure,
    entropy_measure,
    trapezoid,
)

from support import (
    brute_dominance,
    candidate_dominance,
    dominance,
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

    def test_subnormal_spacing_stays_between_knot_values(self):
        assert MembershipFn([0.0, 1e-323], [1.0, 0.0])(5e-324) == 0.5
        rng = np.random.default_rng(3)
        for _ in range(200):
            grid = np.unique(np.cumsum(rng.integers(1, 6, 6)) * 5e-324 * rng.choice([1.0, 2.0**30]))
            values = rng.choice([0.0, 1.0, rng.uniform()], grid.size)
            m = MembershipFn(grid, values)
            xs = np.concatenate((grid, rng.uniform(grid[0], grid[-1], 50)))
            j = np.clip(np.searchsorted(grid, xs, side="right") - 1, 0, grid.size - 2)
            low, high = np.minimum(values[j], values[j + 1]), np.maximum(values[j], values[j + 1])
            assert np.all((low <= m(xs)) & (m(xs) <= high))
        assert m(1e300) == 0.0 and m(-1e300) == 0.0

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
        assert energy_measure(trapezoid(0, 1, 1, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_entropy_crisp_plateau(self):
        assert entropy_measure(trapezoid(1, 1, 2, 2)) == 0.0

    def test_entropy_triangle(self):
        assert entropy_measure(trapezoid(0, 1, 1, 2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

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
        m = trapezoid(0, 1, 1, 2)
        assert dominance(m, m) == 1.0

    def test_disjoint_supports_left_of_right(self):
        assert dominance(trapezoid(0, 1, 1, 2), trapezoid(10, 11, 11, 12)) == 0.0

    def test_disjoint_supports_right_of_left(self):
        assert dominance(trapezoid(10, 11, 11, 12), trapezoid(0, 1, 1, 2)) == 1.0

    def test_overlapping_triangles_cross_at_half(self):
        assert dominance(trapezoid(0, 1, 1, 2), trapezoid(1, 2, 2, 3)) == pytest.approx(0.5, abs=1e-12)

    @given(memberships())
    def test_self_dominance_equals_peak(self, m):
        assert dominance(m, m) == pytest.approx(m.values.max(), abs=1e-12)

    @given(memberships(), memberships(), st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=60)
    def test_shift_monotonicity(self, k, l, offset):
        assert dominance(MembershipFn(k.grid + offset, k.values), l) >= dominance(k, l) - 1e-12

    def test_normal_peak_ordering_gives_one(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            k_corners = np.sort(rng.uniform(-10, 10, 4))
            l_corners = np.sort(rng.uniform(-10, 10, 4))
            k = trapezoid(*k_corners)
            # slide l until its plateau starts at or left of k's plateau end
            slide = l_corners[1] - k_corners[2] + float(rng.uniform(0.0, 3.0))
            l = trapezoid(*(l_corners - max(slide, 0.0)))
            assert k.values.max() == 1.0 and l.values.max() == 1.0
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
        # a plateau 2 ulp wide: slopes taken over its width would divide by zero
        close = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        k = MembershipFn([0.0, 1.0, close, 3.0], [0.0, 0.5, 0.5, 0.0])
        l = MembershipFn([0.0, 1.0, close, 3.0], [0.0, 0.2, 0.2, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dominance(k, l) == pytest.approx(0.2, abs=1e-12)
            assert dominance(l, k) == pytest.approx(0.2, abs=1e-12)

    def test_crossing_inside_ulp_wide_segment(self):
        # falling k and rising l cross half way along a segment 2 ulp wide,
        # too narrow to hold interior samples
        grid = [1.0, np.nextafter(np.nextafter(1.0, 2.0), 2.0)]
        k, l = MembershipFn(grid, [0.75, 0.0]), MembershipFn(grid, [0.0, 0.75])
        assert dominance(k, l) == pytest.approx(0.375, abs=1e-12)
        assert dominance(l, k) == pytest.approx(0.75, abs=1e-12)

    def test_subnormal_abscissas(self):
        # a crossing 0.8 of the way along a segment two subnormal ulps wide
        grid = [0.0, 1e-323]
        k, l = MembershipFn(grid, [1.0, 0.0]), MembershipFn(grid, [0.0, 0.25])
        assert dominance(k, l) == pytest.approx(0.2, abs=1e-12)

    def test_jump_edges(self):
        # left-edge jump on k changes nothing to the right of its plateau
        assert dominance(trapezoid(0, 0, 1, 2), trapezoid(1, 2, 2, 3)) == pytest.approx(0.5, abs=1e-12)
        # right-edge jump: the sup sits exactly at the discontinuity
        assert dominance(trapezoid(0, 1, 2, 2), trapezoid(1.5, 2.5, 2.5, 3.5)) == pytest.approx(0.5, abs=1e-12)
        # crisp interval vs crisp interval
        assert dominance(trapezoid(0, 0, 1, 1), trapezoid(1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-12)
        assert dominance(trapezoid(0, 0, 1, 1), trapezoid(1.5, 1.5, 2, 2)) == 0.0


class TestBlockedDominance:
    @staticmethod
    def universe(seed, count=24, gated=300):
        """Overlapping sampled-grid memberships and a gate on up to ``gated`` random pairs of them."""
        rng = np.random.default_rng(seed)
        memberships = [random_membership(rng, span=(-3.0, 3.0), max_knots=12) for _ in range(count)]
        gate = np.zeros((count, count), dtype=bool)
        gate[rng.integers(0, count, gated), rng.integers(0, count, gated)] = True
        return memberships, gate

    def test_blocks_of_any_size_give_identical_bits(self, monkeypatch):
        memberships, gate = self.universe(11)
        whole = dominance_matrix(memberships, gate)  # one block under both budgets
        width = max(m.grid.size for m in memberships) + 1
        assert gate.size <= effectiveness.PAIR_BLOCK and len(memberships) * width <= 2 * effectiveness.CUT_BLOCK
        assert not gate.all() and 0.0 < whole[gate].mean() < 1.0
        assert not whole[~gate].any()
        for block in (1, 7, 48, 100, 1000):  # 1, 1, 2 and 4 rows of 24, then all of them
            monkeypatch.setattr(effectiveness, "PAIR_BLOCK", block)
            assert dominance_matrix(memberships, gate).tobytes() == whole.tobytes()
        monkeypatch.setattr(effectiveness, "PAIR_BLOCK", 1000)
        for knots in (1, width, 3 * width, 5 * width):  # 1, 2, 6 and 8 rows by the knot budget, 2 x CUT_BLOCK
            monkeypatch.setattr(effectiveness, "CUT_BLOCK", knots)
            assert np.array_equal(dominance_matrix(memberships, gate).view(np.uint64), whole.view(np.uint64))

    def test_gated_entries_match_the_candidate_oracle(self, monkeypatch):
        memberships, gate = self.universe(13)
        expected = np.zeros(gate.shape)
        for k, l in zip(*np.nonzero(gate)):
            expected[k, l] = candidate_dominance(memberships[k], memberships[l])
        assert 0.0 < expected[gate].mean() < 1.0 and not gate.all()
        for block in (1, 48, 100, effectiveness.PAIR_BLOCK):  # 1, 2 and 4 rows of 24, then all of them
            monkeypatch.setattr(effectiveness, "PAIR_BLOCK", block)
            matrix = dominance_matrix(memberships, gate)
            assert not matrix[~gate].any()
            assert np.abs(matrix - expected).max() <= 1e-12

    def test_peak_memory_is_bounded_by_the_block(self, monkeypatch):
        # n stays fixed, so the output matrix and the left alpha-cut table are the same
        # in both runs; only the pairs' temporaries and the block's right table may
        # grow with the number of blocks
        count, rows = 128, 32
        memberships, _ = self.universe(12, count=count, gated=0)
        left = effectiveness._cut_table(memberships, -1.0, 0, 0)
        held = sum(a.nbytes for a in (left.key, left.at, left.dx, left.dv))
        monkeypatch.setattr(effectiveness, "PAIR_BLOCK", rows * count)

        def peak_beyond_matrix_and_left_table(gated_rows):
            gate = np.zeros((count, count), dtype=bool)
            gate[:gated_rows] = True
            tracemalloc.start()
            try:
                matrix = dominance_matrix(memberships, gate)
                return tracemalloc.get_traced_memory()[1] - matrix.nbytes - held
            finally:
                tracemalloc.stop()

        one = peak_beyond_matrix_and_left_table(rows)  # 4096 pairs in one block
        assert one > 0
        assert peak_beyond_matrix_and_left_table(count) < 2 * one  # 16384 pairs in four blocks
