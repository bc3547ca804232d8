"""Entries of the grid generator and the density it defines.

The centered-difference generator L_h (fpk.generator_matrix) is checked
against the continuous generator L phi = tr(A D^2 phi) + <b, grad phi> on
low-degree polynomials, where the stencils are exact away from the walls;
entry by entry, wall rows included, against a dense loop over cells, terms
and taps that clamps each axis at the walls; and against its conservation
structure: the rows of L_h sum to zero, so the density operator M = L_h^T
has columns that sum to zero. The grid density of
fpk.solve_grid is a discrete probability solution of L_h:
sum_x rho (L_h phi) = 0 for every grid function phi. The table build of
L_h and of the pinned L_h^T handed to SuperLU is checked bit for bit against
a diagonal-format build and a pin of a CSC copy.
"""

import math

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit.fields import SMOOTH, ClosureField, DiffusionMatrixField, DriftField, GrowthParams
from fpkit.fpk import _pinned_generator, builtin_models, generator_matrix, solve_grid
from fpkit.grids import GridSpec

MODELS = builtin_models()


def polynomial(name, x):
    """(phi, grad phi, D^2 phi) of a monomial at the points x of shape (m, d)."""
    m, d = x.shape
    grad, hess = np.zeros((m, d)), np.zeros((m, d, d))
    if name == "x1":
        phi = x[:, 0]
        grad[:, 0] = 1.0
    elif name == "x1*x2":
        phi = x[:, 0] * x[:, 1]
        grad[:, 0], grad[:, 1] = x[:, 1], x[:, 0]
        hess[:, 0, 1] = hess[:, 1, 0] = 1.0
    else:  # x1^2
        phi = x[:, 0] ** 2
        grad[:, 0] = 2.0 * x[:, 0]
        hess[:, 0, 0] = 2.0
    return phi, grad, hess


def generator_on(model, spec, name):
    """(phi at the cells, L phi at the cells, mask of cells >= 2h inside the wall)."""
    x = spec.cell_centers()
    phi, grad, hess = polynomial(name, x)
    exact = (np.einsum("nij,nij->n", model.A.values(x), hess)
             + np.einsum("ni,ni->n", model.b.values(x), grad))
    inside = np.all(np.abs(x) <= spec.radius - 2.0 * spec.h, axis=1)
    return phi, exact, inside


def cases(names_2d, names_1d):
    return [pytest.param(m, name, id=f"{m.name}-{name}")
            for m in MODELS for name in (names_2d if m.dim == 2 else names_1d)]


@pytest.mark.parametrize("model, name", cases(("x1", "x1*x2", "x1^2"), ("x1", "x1^2")))
def test_nondivergence_operator_is_exact_on_quadratics(model, name):
    spec = GridSpec(model.dim, 8.0, 32)
    phi, exact, inside = generator_on(model, spec, name)
    got = generator_matrix(model.A, model.b, spec) @ phi
    assert np.abs(got - exact)[inside].max() <= 1e-12 * max(1.0, np.abs(exact).max())


def reference_generator(A, b, spec):
    """Dense L_h: every cell adds coefficient x weight of every tap of every
    term at the neighbour whose index is clamped to the grid axis by axis."""
    n, h, d = spec.n, spec.h, spec.dim
    x = spec.cell_centers()
    A_x, b_x = A.values(x), b.values(x)
    d1 = ((-1, -0.5 / h), (1, 0.5 / h))
    d2 = ((-1, 1.0 / h ** 2), (0, -2.0 / h ** 2), (1, 1.0 / h ** 2))

    def along(i, taps):
        return [(tuple(k if j == i else 0 for j in range(d)), w) for k, w in taps]

    terms = [term for i in range(d)
             for term in ((A_x[:, i, i], along(i, d2)), (b_x[:, i], along(i, d1)))]
    if d == 2:
        terms.append((2.0 * A_x[:, 0, 1], [((k0, k1), w0 * w1) for k0, w0 in d1 for k1, w1 in d1]))
    L = np.zeros((spec.n_cells, spec.n_cells))
    for r, cell in enumerate(np.ndindex(spec.shape)):
        for coef, taps in terms:
            for offset, w in taps:
                nb = tuple(min(max(c + k, 0), n - 1) for c, k in zip(cell, offset))
                L[r, np.ravel_multi_index(nb, spec.shape)] += coef[r] * w
    return L


def assert_matches_reference(A, b, spec):
    ref = reference_generator(A, b, spec)
    got = generator_matrix(A, b, spec).toarray()
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_every_entry_matches_the_clamped_tap_reference(model):
    # wall and corner rows included: the quadratic check above skips them and
    # a misplaced wall tap that keeps the row sum at zero passes the sum check
    assert_matches_reference(model.A, model.b, GridSpec(model.dim, 8.0, 16))


def assert_conservative(A, b, spec):
    L = generator_matrix(A, b, spec)
    assert np.abs(L.sum(axis=1)).max() <= 1e-12 * abs(L).max()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_flux_columns_and_nondivergence_rows_sum_to_zero(model):
    assert_conservative(model.A, model.b, GridSpec(model.dim, 8.0, 32))


unit = st.floats(-1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(eig=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       angle=st.floats(0.0, math.pi), B=st.tuples(unit, unit, unit, unit),
       c=st.tuples(unit, unit))
def test_sums_vanish_for_constant_spd_diffusion_and_linear_drift(eig, angle, B, c):
    Q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    A = DiffusionMatrixField.from_constant(Q @ np.diag(eig) @ Q.T, lam=0.5)
    Bm = 2.0 * np.reshape(B, (2, 2))
    comps = [ClosureField(lambda x, i=i: x @ Bm[i] + c[i], 2, SMOOTH, f"b{i + 1}")
             for i in range(2)]
    b = DriftField(comps, GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=1.0))
    assert_conservative(A, b, GridSpec(2, 4.0, 16))
    assert_matches_reference(A, b, GridSpec(2, 4.0, 16))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.sampled_from((16, 32)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_density_is_a_discrete_probability_solution(model, n, seed):
    # on the box itself (R = 4), where only the cross-term model clips; a
    # clipped cell moves the pairing by at most its negative mass
    spec = GridSpec(model.dim, 4.0, n)
    rho = solve_grid(model.A, model.b, spec, check_truncation=False)
    L_phi = generator_matrix(model.A, model.b, spec) @ np.random.default_rng(seed).normal(
        size=spec.n_cells)
    slack = rho.info["clipped_mass"] / spec.cell_volume
    bound = (1e-12 * np.linalg.norm(rho.flat()) + slack) * np.linalg.norm(L_phi)
    assert abs(rho.flat() @ L_phi) <= bound


def diagonal_format_generator(A, b, spec):
    """L_h built the other way: every term's taps on all 3^d offsets as an outer
    product over the axes, each slot rolled onto its diagonal, then one
    diagonal-format matrix converted to CSR."""
    n, h, d, N = spec.n, spec.h, spec.dim, spec.n_cells
    pos = np.arange(n)

    def folded(*taps):
        F = np.zeros((3, n))
        for k, w in taps:
            F[np.clip(pos + k, 0, n - 1) - pos + 1, pos] += w
        return F

    eye = folded((0, 1.0))
    D1 = folded((-1, -0.5 / h), (1, 0.5 / h))
    D2 = folded((-1, 1.0 / h ** 2), (0, -2.0 / h ** 2), (1, 1.0 / h ** 2))
    x = spec.cell_centers()
    a, b_x = A.values(x), b.values(x)
    terms = [(coef, [op if j == i else eye for j in range(d)]) for i in range(d)
             for op, coef in ((D2, a[:, i, i]), (D1, b_x[:, i]))]
    if d == 2 and np.any(a[:, 0, 1]):
        terms.append((2.0 * a[:, 0, 1], [D1, D1]))
    W = np.zeros((3 ** d, N))
    for coef, axes in terms:
        taps = np.ones((1, 1))
        for F in axes:
            taps = (taps[:, None, :, None] * F[None, :, None, :]).reshape(3 * len(taps), -1)
        W += taps * coef
    offsets = [sum(k * n ** (d - 1 - i) for i, k in enumerate(o))
               for o in itertools.product((-1, 0, 1), repeat=d)]
    for s, k in enumerate(offsets):
        W[s] = np.roll(W[s], k)
    return sp.dia_matrix((W, offsets), shape=(N, N)).tocsr()


def assert_same_arrays(got, ref):
    for name in ("data", "indices", "indptr"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g.dtype == r.dtype and np.array_equal(g, r), name


@st.composite
def coefficient_pairs(draw):
    """Random SPD diffusion (constant or varying by cell, with or without a^01)
    and drift, with the grid they are solved on."""
    d = draw(st.sampled_from((1, 2)))
    spec = GridSpec(d, draw(st.sampled_from((4.0, 8.0))), draw(st.sampled_from((16, 32, 64))))
    eig = draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
    angle = draw(st.floats(0.0, math.pi)) if draw(st.booleans()) else 0.0
    Q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    m = (Q @ np.diag(eig) @ Q.T)[:d, :d]
    if angle == 0.0 and d == 2:
        m[0, 1] = m[1, 0] = 0.0
    w = draw(st.floats(-0.3, 0.3))  # 0: constant coefficients
    shape = [lambda x: 1.0 + w * np.sin(x[:, 0]), lambda x: 1.0 + w * np.cos(x[:, -1])]
    entries = {(i, i): ClosureField(lambda x, i=i: m[i, i] * shape[i](x), d, SMOOTH, f"a{i}{i}")
               for i in range(d)}
    if d == 2:  # |a^01| <= 0.65 |m01| keeps every cell SPD
        entries[(0, 1)] = ClosureField(lambda x: 0.5 * m[0, 1] * (1.0 + w * np.sin(x[:, 0] * x[:, 1])),
                                       2, SMOOTH, "a01")
    A = DiffusionMatrixField(entries, d, lam=1e-3)
    c = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    comps = [ClosureField(lambda x, i=i: -x[:, i] + c[i] * np.sin(x[:, -1 - i]) + c[2], d,
                          SMOOTH, f"b{i}") for i in range(d)]
    return A, DriftField(comps, GrowthParams()), spec


@settings(max_examples=40, deadline=None)
@given(case=coefficient_pairs())
def test_table_build_matches_the_diagonal_format_build(case):
    A, b, spec = case
    ref = diagonal_format_generator(A, b, spec)
    assert_same_arrays(generator_matrix(A, b, spec), ref)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        real = spla.splu
        # a copy, as splu sorts the indices of the matrix it is given in place
        mp.setattr(spla, "splu",
                   lambda P, **kw: seen.append((P.copy(), kw["permc_spec"])) or real(P, **kw))
        _pinned_generator(A, b, spec)
    [(P, permc_spec)] = seen
    # the pin of a CSC copy of L_h^T: row `pin` zeroed, a unit diagonal, zeros dropped
    pin = int(np.argmin(spec.center_radii()))
    R = sp.csc_matrix(ref.T, dtype=float, copy=True)
    R.data[R.indices == pin] = 0.0
    R[pin, pin] = 1.0
    R.eliminate_zeros()
    cross = spec.dim == 2 and np.any(A.values(spec.cell_centers())[:, 0, 1])
    if cross:  # the 9-point L_h^T comes in the nested-dissection order
        order = spec.dissection_order()
        R = R[order][:, order]
        R.sort_indices()
    assert permc_spec == ("NATURAL" if cross else "MMD_AT_PLUS_A")
    assert P.format == "csc"
    assert_same_arrays(P, R)
