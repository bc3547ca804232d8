import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_simpson

from fpkit.quadrature import (ball_average_rule, center_indices, cumulative_integral,
                              disk_rule, fine_mesh, gauss_interval, interval_rule)


def test_gauss_interval_integrates_polynomials_exactly():
    # order-n Gauss is exact through degree 2n-1
    pts, w = gauss_interval(-1.0, 2.0, 8)
    for deg in range(0, 12):
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert np.sum(w * pts**deg) == pytest.approx(exact, rel=1e-13)


def test_gauss_interval_handles_shifted_bounds():
    pts, w = gauss_interval(3.0, 7.0, 16)
    assert w.sum() == pytest.approx(4.0, rel=1e-14)
    assert np.sum(w * np.exp(pts)) == pytest.approx(np.exp(7.0) - np.exp(3.0), rel=1e-12)


def test_cumulative_integral_matches_antiderivative():
    n = 4097
    x = np.linspace(0.0, 2.0, n)
    dx = x[1] - x[0]
    F = cumulative_integral(np.cos(x), dx)
    assert F[0] == 0.0
    assert np.abs(F - np.sin(x)).max() < 1e-10


def test_cumulative_integral_is_exact_on_quadratics():
    # composite Simpson: exact for polynomials of degree <= 3
    x = np.linspace(0.0, 1.0, 129)
    dx = x[1] - x[0]
    F = cumulative_integral(3.0 * x**2, dx)
    assert np.abs(F[::2] - x[::2] ** 3).max() < 1e-14


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), half=st.integers(1, 300),
       dx=st.floats(1e-6, 10.0, allow_nan=False, allow_infinity=False))
def test_cumulative_integral_is_scipys_cumulative_simpson(parity, data, half, dx):
    # bit for bit, on odd and even lengths >= 3 and on a reversed view, as
    # poisson._solve_quadrature_1d passes one; the last array's first interval
    # integrates to -0.0, which scipy's `initial` turns into 0.0
    values = data.draw(arrays(np.float64, 2 * half + 1 + parity,
                              elements=st.floats(-1e6, 1e6, allow_nan=False)))
    for g in (values, values[::-1], np.array([-0.0, -0.0, 0.0, 1.0][:3 + parity])):
        ref = cumulative_simpson(g, dx=dx, initial=0.0)
        out = cumulative_integral(g, dx)
        assert np.array_equal(out, ref)
        assert out.tobytes() == ref.tobytes()


def test_fine_mesh_nests_cell_centers():
    radius, n, subdiv = 8.0, 64, 8
    pts, hf = fine_mesh(radius, n, subdiv)
    idx = center_indices(n, subdiv)
    spec_h = 2.0 * radius / n
    centers = -radius + (np.arange(n) + 0.5) * spec_h
    assert hf == pytest.approx(spec_h / subdiv)
    assert np.abs(pts[idx] - centers).max() < 1e-12


def test_interval_rule_averages_to_one_for_constants():
    pts, w = interval_rule(np.array([0.3]), 0.2, 24)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert pts.min() >= 0.3 - 0.2 and pts.max() <= 0.3 + 0.2


@pytest.mark.parametrize("rule", [disk_rule, ball_average_rule])
def test_disk_rules_average_linear_functions_to_center_value(rule):
    # ball average of an affine function equals its value at the center
    c = np.array([0.4, -0.7])
    pts, w = rule(c, 0.35, 24, 32)
    f = 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1]
    assert np.sum(w * f) / w.sum() == pytest.approx(2.0 + 3.0 * 0.4 + 1.5 * 0.7, abs=1e-12)


def test_disk_rule_weights_normalize_to_an_average():
    pts, w = disk_rule(np.zeros(2), 2.0, 48, 64)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    # mean of r^2 over a disk of radius R is R^2/2; midpoint rule, so O(n^-2)
    r2 = np.sum(pts * pts, axis=1)
    assert np.sum(w * r2) == pytest.approx(2.0, rel=1e-3)
