import numpy as np
import pytest
from hypothesis import given, strategies as st

from bpv_effect import quadrature
from bpv_effect.membership import trapezoid

from support import random_membership, refine, riemann


def test_area_trapezoid():
    m = trapezoid(0, 1, 2, 3)
    assert quadrature.integrate(m.grid, m.values) == pytest.approx(2.0, abs=1e-15)


def test_area_identically_zero():
    assert quadrature.integrate([0.0, 5.0], [0.0, 0.0]) == 0.0


def test_area_refinement_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_membership(rng)
        fine = refine(refine(m))
        assert abs(
            quadrature.integrate(m.grid, m.values) - quadrature.integrate(fine.grid, fine.values)
        ) < 1e-12


def test_first_moment_triangle():
    m = trapezoid(0, 1, 1, 2)
    assert quadrature.first_moment(m.grid, m.values) == pytest.approx(1.0, abs=1e-15)


def test_min_complement_triangle():
    m = trapezoid(0, 1, 1, 2)
    assert quadrature.min_complement_area(m.grid, m.values) == pytest.approx(0.5, abs=1e-15)


def test_min_complement_crisp_plateau():
    assert quadrature.min_complement_area([1.0, 4.0], [1.0, 1.0]) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0))
def test_value_scaling_is_linear(factor):
    m = trapezoid(-1.0, 0.5, 2.0, 4.0)
    scaled = m.values * factor
    assert quadrature.integrate(m.grid, scaled) == pytest.approx(
        factor * quadrature.integrate(m.grid, m.values), abs=1e-12
    )
    assert quadrature.first_moment(m.grid, scaled) == pytest.approx(
        factor * quadrature.first_moment(m.grid, m.values), abs=1e-12
    )


def test_additivity_over_grid_split():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_membership(rng)
        cut = float(rng.uniform(m.grid[0], m.grid[-1]))
        left = np.append(m.grid[m.grid < cut], cut)
        right = np.append(cut, m.grid[m.grid > cut])
        total = quadrature.integrate(m.grid, m.values)
        if left.size < 2 or right.size < 2:
            continue
        parts = quadrature.integrate(left, m(left)) + quadrature.integrate(right, m(right))
        assert parts == pytest.approx(total, abs=1e-12)


def test_agreement_with_fine_riemann_sums():
    rng = np.random.default_rng(29)
    for _ in range(5):
        m = random_membership(rng)
        xs = np.linspace(m.grid[0], m.grid[-1], 10**6 + 1)
        ys = m(xs)
        assert quadrature.integrate(m.grid, m.values) == pytest.approx(
            riemann(ys, xs), abs=1e-9
        )
        assert quadrature.first_moment(m.grid, m.values) == pytest.approx(
            riemann(xs * ys, xs), abs=1e-9
        )
        assert quadrature.min_complement_area(m.grid, m.values) == pytest.approx(
            riemann(np.minimum(ys, 1.0 - ys), xs), abs=1e-9
        )

