"""A bit-level 2d oracle: separable models against the 1d grid operator.

With A = diag(a1(x1), a2(x2)) and b = (b1(x1), b2(x2)) the 5-point L_h of
fpk._weight_table is the Kronecker sum of the two 1d tables, so the chain on
the grid moves along each axis on its own. Its stationary density is the
outer product of the 1d null vectors (fpk._pinned_factor on each 1d table),
and the pin's closed class is the product of the 1d classes, so the 2d
density is exactly 0 on the same cells. One draw checks the table, the
minimal upwinding, the pin, the closed class, the transient cells and the
factor against 1d computations that share only the 1d table. Drifts with a
mean away from the origin are left out: the center pin is transient there,
and the 2d table is fitted while a 1d axis is not.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.fields import ClosureField, DiffusionMatrixField, DriftField, GrowthParams
from fpkit.fpk import NearbyFactor, _pinned_factor, _weight_table, solve_grid
from fpkit.grids import GridSpec

LAM = 0.4  # every drawn diffusion lies in [LAM, 1 / LAM]


@st.composite
def axis_models(draw):
    """(a, b) of one axis as functions of a coordinate: a smooth diffusion in
    [LAM, 1 / LAM] and a confining drift, linear or cubic, of a random scale."""
    level = draw(st.floats(0.6, 1.5))
    wave = draw(st.floats(-0.3, 0.3))
    freq, phase = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, math.pi))
    power = draw(st.sampled_from((1, 3)))
    scale = 10.0 ** draw(st.floats(-1.0, 2.0))
    return (lambda x: level * (1.0 + wave * np.sin(freq * x + phase)),
            lambda x: -scale * x ** power)


def separable(axes, scale=1.0):
    """A = diag(a1(x1), a2(x2)) and b = scale (b1(x1), b2(x2)) as fields in d = 2."""
    A = DiffusionMatrixField({(i, i): ClosureField(lambda x, a=a, i=i: a(x[:, i]), 2, f"a{i}{i}")
                              for i, (a, _) in enumerate(axes)}, 2, lam=LAM)
    b = DriftField([ClosureField(lambda x, b=b, i=i: scale * b(x[:, i]), 2, f"b{i}")
                    for i, (_, b) in enumerate(axes)], GrowthParams())
    return A, b


def outer_product_density(axes, spec):
    """The normalized outer product of the pinned 1d null vectors of the two axes."""
    line = GridSpec(1, spec.radius, spec.n)
    x = line.axis_centers()
    nulls = []
    for a, b in axes:
        T, offsets, _ = _weight_table(a(x)[:, None, None], b(x)[:, None], line)
        nulls.append(_pinned_factor(T, offsets, line).null)
    rho = np.outer(*nulls)
    return rho / (rho.sum() * spec.cell_volume)


def assert_is_the_outer_product(rho, ref):
    assert np.abs(rho.values - ref).sum() <= 1e-12 * np.abs(ref).sum()
    assert np.array_equal(rho.values == 0.0, ref == 0.0)


grids = st.builds(lambda r, n: GridSpec(2, r, n), st.sampled_from((4.0, 8.0)),
                  st.sampled_from((16, 32, 64)))


@settings(max_examples=40, deadline=None)
@given(axes=st.tuples(axis_models(), axis_models()), spec=grids)
def test_separable_density_is_the_outer_product_of_the_1d_null_vectors(axes, spec):
    A, b = separable(axes)
    rho = solve_grid(A, b, spec, check_truncation=False)
    assert not rho.info["exponential_fitting"]
    assert_is_the_outer_product(rho, outer_product_density(axes, spec))


@settings(max_examples=15, deadline=None)
@given(axes=st.tuples(axis_models(), axis_models()), spec=grids,
       scale=st.floats(0.95, 1.05))
def test_refined_separable_density_is_the_outer_product(axes, spec, scale):
    # a slot holds the factor of the model with its drift scaled by 1 / scale;
    # the solve of the model itself refines against it, or factors afresh
    # where the closed classes differ
    slot = NearbyFactor()
    solve_grid(*separable(axes, 1.0 / scale), spec, check_truncation=False, nearby=slot)
    rho = solve_grid(*separable(axes), spec, check_truncation=False, nearby=slot)
    assert_is_the_outer_product(rho, outer_product_density(axes, spec))


def test_models_of_the_oracle_checks():
    # the models the oracle was first checked on: OU, a varying diffusion with
    # a cubic drift, and a steep drift whose density lives on a few cells
    cases = {"ou": ((lambda x: np.ones_like(x), lambda x: -x),
                    (lambda x: np.ones_like(x), lambda x: -2.0 * x)),
             "varying": ((lambda x: 1.0 + 0.5 * np.exp(-x ** 2), lambda x: -x),
                         (lambda x: 0.75 + 0.25 * np.cos(x), lambda x: -x ** 3)),
             "steep": ((lambda x: np.ones_like(x), lambda x: -100.0 * x),) * 2}
    for axes in cases.values():
        for n in (32, 128):
            spec = GridSpec(2, 8.0, n)
            rho = solve_grid(*separable(axes), spec, check_truncation=False)
            assert_is_the_outer_product(rho, outer_product_density(axes, spec))
