"""Entries of the grid generator and the density it defines.

The fitted generator L_h (fpk.generator_matrix) is checked against the
continuous generator L phi = tr(A D^2 phi) + <b, grad phi> on low-degree
polynomials: on linear functions at every interior cell, and on quadratics
where no cell is upwinded (cell Peclet number at most 1), since the
stencils are exact there away from the walls. It is checked entry by entry,
wall rows included, against a dense loop over cells, terms and taps that
clamps each axis at the walls; and against its structure: the rows of L_h
sum to zero, so the density operator M = L_h^T has columns that sum to
zero, and for a diffusion with condition number below 3 + 2 sqrt 2 every
off-diagonal weight is nonnegative and the chain reaches the pinned cell,
so with a confining drift the density does not clip. The grid
density of fpk.solve_grid is a discrete probability solution of L_h:
sum_x rho (L_h phi) = 0 for every grid function phi. The table build of
L_h and of the pinned L_h^T handed to SuperLU is checked bit for bit against
a diagonal-format build and a pin of a CSC copy. Where the pinned cell does
not reach every cell, the pinned L_h^T in the order of the transient block
and then the closed class is checked block lower triangular by the
components of the chain, its solves exact, and its density exactly 0 on the
transient cells, refined against a nearby operator's factor or not.
"""

import math

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph
from scipy.sparse.csgraph import breadth_first_order, connected_components

from fpkit.errors import DegenerateDensityError
from fpkit.fields import ClosureField, DiffusionMatrixField, DriftField, GrowthParams
from fpkit.fpk import (REFINE_MAX_STEPS, NearbyFactor, PinnedFactor, _apply, _diagonal_share,
                       _generator_table, _null_density, _pinned_factor, _solve_null, _unit_mass,
                       builtin_models, generator_matrix, solve_grid)
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
    """(phi at the cells, L phi at the cells, mask of cells >= 2h inside the wall,
    mask of the cells that are not upwinded).

    With c_i = 2 (a^ii - |a^01|) / h and c_d = 2 |a^01| / h, the axes of a
    cell carry b^0 - beta_d and b^1 - s beta_d centered, s = sign a^01, for
    some diagonal share |beta_d| <= c_d, exactly when every two of the
    intervals b^0 -+ c_0, s b^1 -+ c_1 and -+c_d meet; otherwise the cell is
    upwinded. Where a^01 = 0 that is a cell Peclet number h |b^i| / (2 a^ii)
    above 1. (Every cell of the built-ins is dominant.)
    """
    x = spec.cell_centers()
    phi, grad, hess = polynomial(name, x)
    a, b = model.A.values(x), model.b.values(x)
    exact = np.einsum("nij,nij->n", a, hess) + np.einsum("ni,ni->n", b, grad)
    inside = np.all(np.abs(x) <= spec.radius - 2.0 * spec.h, axis=1)
    if model.dim == 1:
        centered = spec.h * np.abs(b[:, 0]) <= 2.0 * a[:, 0, 0]
    else:
        m = np.abs(a[:, 0, 1])
        c = 2.0 * (np.einsum("nii->ni", a) - m[:, None]) / spec.h
        p = b * np.column_stack([np.ones(len(b)), np.where(a[:, 0, 1] < 0.0, -1.0, 1.0)])
        centered = ((np.abs(p[:, 0] - p[:, 1]) <= c[:, 0] + c[:, 1])
                    & np.all(np.abs(p) <= c + 2.0 * m[:, None] / spec.h, axis=1))
    return phi, exact, inside, centered


def cases(names_2d, names_1d):
    return [pytest.param(m, name, id=f"{m.name}-{name}")
            for m in MODELS for name in (names_2d if m.dim == 2 else names_1d)]


@pytest.mark.parametrize("model, name", cases(("x1", "x1*x2", "x1^2"), ("x1", "x1^2")))
def test_nondivergence_operator_is_exact_on_quadratics(model, name):
    # an upwinded cell is first order: upwinding raises the axis coefficients,
    # whose second differences annihilate x1 and x1*x2 but not x1^2. At
    # R = 8, n = 32 the cells past |x_i| = 4 are upwinded (for anisotropic-2d,
    # whose axes carry a^ii - |a^01| and share the drift with the diagonal,
    # past |x_1| = 4.6 or |x_2| = 3.4, or where |x_1 - x_2| > 5.9)
    spec = GridSpec(model.dim, 8.0, 32)
    phi, exact, inside, centered = generator_on(model, spec, name)
    got = generator_matrix(model.A, model.b, spec) @ phi
    cells = inside & centered if name == "x1^2" else inside
    assert cells.sum() >= spec.n_cells // 8
    assert np.abs(got - exact)[cells].max() <= 1e-12 * max(1.0, np.abs(exact).max())


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_fitted_operator_is_exact_on_linear_functions_at_every_interior_cell(model):
    # upwinded cells included: sigma_i D2_i annihilates a linear function
    spec = GridSpec(model.dim, 8.0, 32)
    x = spec.cell_centers()
    interior = np.all(np.abs(x) < spec.radius - spec.h, axis=1)
    got = generator_matrix(model.A, model.b, spec) @ x  # L x_i = b^i
    exact = model.b.values(x)
    assert np.abs(got - exact)[interior].max() <= 1e-12 * np.abs(exact).max()


def diagonal_drift(p, c, c_d):
    """The share beta_d in [-c_d, c_d] of the drift p = (b^0, s b^1) that the
    diagonal carries, given the axes' capacities c = 2 (a^ii - |a^01|) / h.

    The upwinding the split needs, in units of 2 / h, is
    u = max(0, |p_0 - beta_d| - c_0, |p_1 - beta_d| - c_1), convex and
    piecewise linear in beta_d; the share is the point of least u nearest 0.
    The candidates are 0, the ends +-c_d and the kinks of u.
    """
    def upwinding(t):
        return max(0.0, abs(p[0] - t) - c[0], abs(p[1] - t) - c[1])

    kinks = [p[0], p[1], p[0] - c[0], p[0] + c[0], p[1] - c[1], p[1] + c[1],
             0.5 * (p[0] + p[1] + c[0] - c[1]), 0.5 * (p[0] + p[1] - c[0] + c[1])]
    cands = [0.0, -c_d, c_d] + [min(max(t, -c_d), c_d) for t in kinks]
    least = min(upwinding(t) for t in cands)
    tol = 1e-12 * (1.0 + abs(p[0]) + abs(p[1]) + c[0] + c[1])
    return min((t for t in cands if upwinding(t) <= least + tol), key=abs)


def checked_share(a, b_x, h):
    """The diagonal's share f of the drift at each cell (fpk._diagonal_share),
    each checked against the search of diagonal_drift to 1e-9. The references
    take the share from fpk, as the search's tolerance would pick a
    different point where |a^01| is below it (a turn of 1e-12)."""
    N, d = b_x.shape
    a01 = a[:, 0, 1] if d == 2 else np.zeros(N)
    m = np.where(np.abs(a01) <= np.min(np.einsum("nii->ni", a), axis=1), np.abs(a01), 0.0)
    if not m.any():
        return np.zeros(N)
    lowered = np.einsum("nii->ni", a) - m[:, None]
    f = _diagonal_share(lowered, m, np.sign(a01), b_x, h)
    for r in np.flatnonzero(m > 0.0):
        c = 2.0 * lowered[r] / h
        want = diagonal_drift((b_x[r, 0], np.sign(a01[r]) * b_x[r, 1]), c, 2.0 * m[r] / h)
        assert abs(f[r] * 2.0 * m[r] / h - want) <= 1e-9 * (1.0 + np.abs(b_x[r]).sum() + c.sum())
    return f


def fitted_terms(a, b, h, f=0.0, fitted=False):
    """[(coefficient, [(offset, weight), ...]), ...] of the fitted L_h at one cell.

    a: (d, d), b: (d,). A cell is dominant where |a^01| <= min(a^00, a^11);
    there the cross term is |a^01| times the second difference along the
    diagonal (1, s), s = sign a^01, and each axis loses |a^01|. The diagonal
    also carries the share beta_d = 2 f |a^01| / h of the drift
    (checked_share) as a centered difference, and the axes the rest,
    b - beta_d (1, s). An axis whose drift beta_i is more than its
    coefficient sigma_i carries centered (h |beta_i| / 2 > sigma_i) is
    upwinded: it is beta_i times the one-sided difference downstream. With
    `fitted`, every axis with a drift is exponentially fitted instead: its
    steps downstream and upstream have the rates sigma_i B(-z) / h^2 and
    sigma_i B(z) / h^2, z = h |beta_i| / sigma_i and B(z) = z / (e^z - 1)
    the Bernoulli function. A non-dominant cell keeps the centered cross
    term 2 a^01 D1_0 D1_1 and carries b on its axes.
    """
    d = len(b)
    d1 = ((-1, -0.5 / h), (1, 0.5 / h))
    d2 = ((-1, 1.0 / h ** 2), (0, -2.0 / h ** 2), (1, 1.0 / h ** 2))
    m = abs(a[0, 1]) if d == 2 else 0.0
    dominant = d == 1 or m <= min(a[0, 0], a[1, 1])
    s = 1 if d == 1 or a[0, 1] >= 0.0 else -1
    beta, beta_d = [float(v) for v in b], 0.0
    if d == 2 and m > 0.0 and dominant:
        beta_d = 2.0 * f * m / h
        beta = [b[0] - beta_d, b[1] - s * beta_d]
    terms = []
    for i in range(d):
        sigma = a[i, i] - (m if dominant else 0.0)
        step = [tuple(k if j == i else 0 for j in range(d)) for k in (-1, 0, 1)]
        if 0.5 * h * abs(beta[i]) <= sigma and not (fitted and beta[i] != 0.0):
            terms += [(sigma, [(step[k + 1], w) for k, w in d2]),
                      (beta[i], [(step[k + 1], w) for k, w in d1])]
            continue
        down, up = (step[2], step[0]) if beta[i] > 0.0 else (step[0], step[2])
        z = h * abs(beta[i]) / sigma if sigma > 0.0 else math.inf
        upstream = sigma * z / math.expm1(z) / h ** 2 if fitted and z < 700.0 else 0.0
        downstream = upstream + abs(beta[i]) / h  # sigma B(-z) / h^2 = sigma (B(z) + z) / h^2
        terms.append((1.0, [(down, downstream), (up, upstream), (step[1], -downstream - upstream)]))
    if d == 2 and m > 0.0 and dominant:
        terms += [(m / h ** 2, [((1, s), 1.0), ((-1, -s), 1.0), ((0, 0), -2.0)]),
                  (beta_d, [((1, s), 0.5 / h), ((-1, -s), -0.5 / h)])]
    elif d == 2 and m > 0.0:
        terms.append((2.0 * a[0, 1], [((k0, k1), w0 * w1) for k0, w0 in d1 for k1, w1 in d1]))
    return terms


def reaches_pin(L, spec, least=0.0):
    """Whether the chain with generator L (any sparse or dense matrix) reaches
    the center-most cell from every cell: a search back along its steps, the
    entries L[i, j] above `least`."""
    L = sp.csc_matrix(L)  # column j lists the cells i that may step to j
    pin = int(np.argmin(spec.center_radii()))
    seen, todo = {pin}, [pin]
    while todo:
        j = todo.pop()
        rows = L.indices[L.indptr[j]:L.indptr[j + 1]]
        rates = L.data[L.indptr[j]:L.indptr[j + 1]]
        for i in rows[rates > least]:
            if i not in seen:
                seen.add(i)
                todo.append(i)
    return len(seen) == spec.n_cells


def least_step(A_x, b_x, h):
    """1e-10 (fpk.REACH_TOL) times d (max a^ii / h^2 + max |b^i| / h), a bound
    on every cell's tr(a) / h^2 + |b|_1 / h: a rate below it is roundoff of
    the minimally upwinded L_h, not a step."""
    d = b_x.shape[1]
    return 1e-10 * d * (np.einsum("nii->ni", A_x).max() / h ** 2 + np.abs(b_x).max() / h)


def reference_generator(A, b, spec):
    """Dense L_h: every cell adds coefficient x weight of every tap of every
    term at the neighbour whose index is clamped to the grid axis by axis.
    Every axis is exponentially fitted when the chain of the minimally
    upwinded L_h does not reach the pin from every cell."""
    n = spec.n
    x = spec.cell_centers()
    A_x, b_x = A.values(x), b.values(x)
    f = checked_share(A_x, b_x, spec.h)
    for fitted in (False, True):
        L = np.zeros((spec.n_cells, spec.n_cells))
        for r, cell in enumerate(np.ndindex(spec.shape)):
            for coef, taps in fitted_terms(A_x[r], b_x[r], spec.h, f[r], fitted):
                for offset, w in taps:
                    nb = tuple(min(max(c + k, 0), n - 1) for c, k in zip(cell, offset))
                    L[r, np.ravel_multi_index(nb, spec.shape)] += coef * w
        if reaches_pin(L, spec, 0.0 if fitted else least_step(A_x, b_x, spec.h)):
            return L
    raise AssertionError("the fitted chain does not reach the pin either")


def assert_matches_reference(A, b, spec):
    ref = reference_generator(A, b, spec)
    got = generator_matrix(A, b, spec).toarray()
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_every_entry_matches_the_clamped_tap_reference(model):
    # wall and corner rows included: the quadratic check above skips them and
    # a misplaced wall tap that keeps the row sum at zero passes the sum check.
    # At R = 8, n = 16 the cells past |x_i| = 2 are upwinded
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
    comps = [ClosureField(lambda x, i=i: x @ Bm[i] + c[i], 2, f"b{i + 1}")
             for i in range(2)]
    b = DriftField(comps, GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=1.0))
    assert_conservative(A, b, GridSpec(2, 4.0, 16))
    assert_matches_reference(A, b, GridSpec(2, 4.0, 16))


def rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


@settings(max_examples=30, deadline=None)
@given(low=st.floats(0.5, 2.0), cond=st.floats(1.0, 5.8), angle=st.floats(0.0, math.pi),
       B=st.tuples(unit, unit, unit, unit), c=st.tuples(unit, unit),
       rate=st.tuples(st.floats(0.25, 2.0), st.floats(0.25, 2.0), st.floats(0.0, math.pi),
                      st.floats(-2.0, 2.0)))
def test_well_conditioned_diffusion_gives_a_monotone_operator(low, cond, angle, B, c, rate):
    # condition number below 3 + 2 sqrt 2 = 5.83: |a^01| <= min(a^00, a^11)
    # at every angle, so every cell is dominant. With any linear drift Bx + c
    # the fitted L_h is then a Markov generator (zero row sums, nonnegative
    # off-diagonals) whose chain reaches the pinned cell from every cell, so
    # the pinned L_h^T is nonsingular, or, for an outward drift on axes
    # lowered to near 0, a DegenerateDensityError that says so. With a
    # confining drift, -(S + K) x + c
    # for S SPD and K skew, the density is the chain's unique stationary law
    # and does not clip. (An outward drift piles the mass into corners that
    # the chain links at rates far below roundoff, whose shares the pinned
    # solve cannot resolve: it may clip.)
    A = DiffusionMatrixField.from_constant(
        rotation(angle) @ np.diag([low, low * cond]) @ rotation(angle).T, lam=0.05)
    spec = GridSpec(2, 4.0, 16)

    def drift(Bm):
        comps = [ClosureField(lambda x, i=i: x @ Bm[i] + c[i], 2, f"b{i + 1}")
                 for i in range(2)]
        return DriftField(comps, GrowthParams(beta=1.0, beta1=1.0, beta2=1.0, beta3=1.0))

    s0, s1, phi, k = rate
    for confining, Bm in ((False, 2.0 * np.reshape(B, (2, 2))), (True, -(
            rotation(phi) @ np.diag([s0, s1]) @ rotation(phi).T + [[0.0, k], [-k, 0.0]]))):
        try:
            L = generator_matrix(A, drift(Bm), spec).tocoo()
        except DegenerateDensityError as exc:
            # an outward drift where a^ii - |a^01| is near 0: even the fitted
            # upstream rates underflow, and the table names the cause
            assert not confining and "refine the grid" in str(exc)
            continue
        assert_conservative(A, drift(Bm), spec)
        assert L.data[L.row != L.col].min() >= 0.0
        assert reaches_pin(L, spec)
    rho = solve_grid(A, drift(Bm), spec, check_truncation=False)
    assert rho.info["non_dominant_cells"] == 0
    # a positive null vector, up to roundoff in cells that hold ~1e-20 of the mass
    assert rho.info["clipped_mass"] <= 1e-15


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(MODELS), n=st.sampled_from((16, 32)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_density_is_a_discrete_probability_solution(model, n, seed):
    # on the box itself (R = 4); a clipped cell would move the pairing by at
    # most its negative mass
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
    diagonal-format matrix converted to CSR. The terms come in the table's
    order: per axis sigma_i D2_i (0 on its upwinded cells), beta_i D1_i and
    |beta_i| (h / 2) D2_i on its upwinded cells (its sum with beta_i D1_i is
    beta_i times the one-sided difference downstream, written with the
    table's taps 0.5 / h and -1 / h); then the centered cross term of the
    non-dominant cells, the steps of the diagonals (1, 1) and (1, -1) of the
    dominant ones, and their -2 at the cell itself. Where that chain does
    not reach the pin from every cell (reaches_pin), the axes are
    exponentially fitted: e D2_i, beta_i D1_i and |beta_i| (h / 2) D2_i at
    every cell, e = h |beta_i| / expm1(h |beta_i| / sigma_i) (sigma_i where
    beta_i = 0). The coefficients are computed as the table computes them.
    The diagonal's share of the drift comes from fpk._diagonal_share, so
    this build checks the assembly, not the share: the share is checked
    against diagonal_drift (checked_share, to 1e-9 at every dominant cell)
    and by test_diagonal_share_upwinds_least_and_moves_least."""
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
    a01 = a[:, 0, 1] if d == 2 else np.zeros(N)
    m = np.abs(a01)
    dominant = m <= np.min(np.einsum("nii->ni", a), axis=1)
    m = np.where(dominant, m, 0.0)
    f, beta = np.zeros(N), b_x
    if d == 2 and np.any(a01):
        f = checked_share(a, b_x, h)
        beta = b_x - ((2.0 / h) * f * m)[:, None] * np.column_stack([np.ones(N), np.sign(a01)])
    terms, fits, cross = [], [], []
    one_sided = folded((-1, 0.5 / h), (0, -1.0 / h), (1, 0.5 / h))  # with beta_i D1: downstream
    for i in range(d):
        sigma, b_i = a[:, i, i] - m, beta[:, i]
        up = 0.5 * h * np.abs(b_i) > sigma
        along = [None if j == i else eye for j in range(d)]
        z = h * np.abs(b_i)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e = np.where(b_i == 0.0, sigma, z / np.expm1(z / sigma))
        for out, ops in ((terms, ((D2, np.where(up, 0.0, sigma)), (D1, b_i),
                                  (one_sided, np.where(up, np.abs(b_i), 0.0)))),
                         (fits, ((D2, e), (D1, b_i), (one_sided, np.abs(b_i))))):
            out += [(coef, [op if F is None else F for F in along]) for op, coef in ops]
    if d == 2 and np.any(a01):
        plus, minus = folded((1, 1.0)), folded((-1, 1.0))
        step = m / h ** 2
        cross.append((np.where(dominant, 0.0, 2.0 * a01), [D1, D1]))
        for sign, share, (F0, F1) in ((1, 1.0 + f, (plus, plus)), (1, 1.0 - f, (minus, minus)),
                                      (-1, 1.0 + f, (plus, minus)), (-1, 1.0 - f, (minus, plus))):
            cross.append((step * share * (np.sign(a01) == sign), [F0, F1]))
        cross.append((-2.0 * step, [eye, eye]))
    offsets = [sum(k * n ** (d - 1 - i) for i, k in enumerate(o))
               for o in itertools.product((-1, 0, 1), repeat=d)]

    def assembled(terms):
        W = np.zeros((3 ** d, N))
        for coef, axes in terms:
            taps = np.ones((1, 1))
            for F in axes:
                taps = (taps[:, None, :, None] * F[None, :, None, :]).reshape(3 * len(taps), -1)
            W += taps * coef
        for s, k in enumerate(offsets):
            W[s] = np.roll(W[s], k)
        return sp.dia_matrix((W, offsets), shape=(N, N)).tocsr()

    L = assembled(terms + cross)
    return L if reaches_pin(L, spec, least_step(a, b_x, h)) else assembled(fits + cross)


@settings(max_examples=300, deadline=None)
@given(b=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
       sigma=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), m=st.floats(0.01, 2.0),
       sign=st.sampled_from((-1.0, 1.0)), h=st.sampled_from((0.0625, 0.5, 1.0)))
def test_diagonal_share_upwinds_least_and_moves_least(b, sigma, m, sign, h):
    # cell by cell against the candidate search of diagonal_drift, over drifts
    # up to 40 times what the axes carry centered and axes down to sigma_i = 0
    f = _diagonal_share(np.array([sigma]), np.array([m]), np.array([sign]), np.array([b]), h)[0]
    c_d = 2.0 * m / h
    want = diagonal_drift((b[0], sign * b[1]), [2.0 * s / h for s in sigma], c_d)
    assert -1.0 <= f <= 1.0
    assert abs(f * c_d - want) <= 1e-9 * (1.0 + abs(b[0]) + abs(b[1]) + c_d)


def test_partly_dominant_diffusion_matches_both_references():
    # a^01 = 0.5 tanh(x1 - x2) takes both signs, so both diagonals are used,
    # and the cells where |a^01| > a^11 = 0.3 keep the centered cross term
    entries = {(0, 0): ClosureField(lambda x: np.ones(len(x)), 2, "a00"),
               (1, 1): ClosureField(lambda x: np.full(len(x), 0.3), 2, "a11"),
               (0, 1): ClosureField(lambda x: 0.5 * np.tanh(x[:, 0] - x[:, 1]), 2, "a01")}
    A = DiffusionMatrixField(entries, 2, lam=0.01)
    b = DriftField([ClosureField(lambda x, i=i: -x[:, i], 2, f"b{i}") for i in range(2)],
                   GrowthParams())
    spec = GridSpec(2, 4.0, 16)
    a01 = A.values(spec.cell_centers())[:, 0, 1]
    assert (a01 > 0.3).any() and (a01 < -0.3).any() and (np.abs(a01) < 0.3).any()
    assert_matches_reference(A, b, spec)
    assert_same_arrays(generator_matrix(A, b, spec), diagonal_format_generator(A, b, spec))


def pushing_apart(case):
    """(A, b) of a drift that pushes apart at cell Peclet numbers above 1 at R = 4, n = 16.

    "bistable": b = (4 (x1 - x1^3), -x2) on a = 0.05, away from x1 = 0 at
    Peclet numbers up to 4.7. "saddle": b = (2 x2, 2 x1), outward along
    x1 = x2, on A = diag(1, 1.125) turned by 1 rad (a cross term, every cell
    dominant).
    """
    if case == "bistable":
        return (DiffusionMatrixField.from_constant(0.05 * np.eye(2), lam=0.05),
                DriftField([ClosureField(lambda x: 4.0 * (x[:, 0] - x[:, 0] ** 3), 2, "b1"),
                            ClosureField(lambda x: -x[:, 1], 2, "b2")], GrowthParams()))
    return (DiffusionMatrixField.from_constant(
                rotation(1.0) @ np.diag([1.0, 1.125]) @ rotation(1.0).T, lam=0.5),
            DriftField([ClosureField(lambda x, i=i: 2.0 * x[:, 1 - i], 2, f"b{i + 1}")
                        for i in range(2)], GrowthParams()))


@pytest.mark.parametrize("case", ["bistable", "saddle"])
def test_drift_that_pushes_apart_is_fitted_as_both_references(case):
    # the minimally upwinded chain has no step back against the push, so it
    # misses the pin from some cells; L_h is then exponentially fitted, and
    # the density does not clip
    A, b = pushing_apart(case)
    spec = GridSpec(2, 4.0, 16)
    x = spec.cell_centers()
    A_x, b_x = A.values(x), b.values(x)
    minimal = sp.lil_matrix((spec.n_cells, spec.n_cells))
    f = checked_share(A_x, b_x, spec.h)
    for r, cell in enumerate(np.ndindex(spec.shape)):
        for coef, taps in fitted_terms(A_x[r], b_x[r], spec.h, f[r]):
            for offset, w in taps:
                nb = tuple(min(max(c + k, 0), spec.n - 1) for c, k in zip(cell, offset))
                minimal[r, np.ravel_multi_index(nb, spec.shape)] += coef * w
    assert not reaches_pin(minimal, spec, least_step(A_x, b_x, spec.h))
    assert_matches_reference(A, b, spec)
    assert_same_arrays(generator_matrix(A, b, spec), diagonal_format_generator(A, b, spec))
    rho = solve_grid(A, b, spec, check_truncation=False)
    assert rho.info["exponential_fitting"] is True
    assert rho.info["clipped_mass"] == 0.0


def assert_same_arrays(got, ref):
    for name in ("data", "indices", "indptr"):
        g, r = getattr(got, name), getattr(ref, name)
        assert g.dtype == r.dtype and np.array_equal(g, r), name


@st.composite
def coefficient_pairs(draw, strong=False):
    """Random SPD diffusion (constant or varying by cell, with or without a^01)
    and drift, with the grid they are solved on. A `strong` drift is 4 to 16
    times as steep on grids of n <= 32, so that cells are upwinded and some
    are transient."""
    d = draw(st.sampled_from((1, 2)))
    spec = GridSpec(d, draw(st.sampled_from((4.0, 8.0))),
                    draw(st.sampled_from((16, 32) if strong else (16, 32, 64))))
    eig = draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
    angle = draw(st.floats(0.0, math.pi)) if draw(st.booleans()) else 0.0
    Q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    m = (Q @ np.diag(eig) @ Q.T)[:d, :d]
    if angle == 0.0 and d == 2:
        m[0, 1] = m[1, 0] = 0.0
    w = draw(st.floats(-0.3, 0.3))  # 0: constant coefficients
    shape = [lambda x: 1.0 + w * np.sin(x[:, 0]), lambda x: 1.0 + w * np.cos(x[:, -1])]
    entries = {(i, i): ClosureField(lambda x, i=i: m[i, i] * shape[i](x), d, f"a{i}{i}")
               for i in range(d)}
    if d == 2:  # |a^01| <= 0.65 |m01| keeps every cell SPD
        entries[(0, 1)] = ClosureField(lambda x: 0.5 * m[0, 1] * (1.0 + w * np.sin(x[:, 0] * x[:, 1])),
                                       2, "a01")
    A = DiffusionMatrixField(entries, d, lam=1e-3)
    c = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    s = draw(st.floats(4.0, 16.0)) if strong else 1.0
    comps = [ClosureField(lambda x, i=i: -s * x[:, i] + c[i] * np.sin(x[:, -1 - i]) + c[2], d,
                          f"b{i}") for i in range(d)]
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
        _, factor, *_ = _solve_null(_generator_table(A, b, spec, None), spec, None)
    [(P, permc_spec)] = seen
    # the pin of a CSC copy of L_h^T: row `pin` zeroed, a unit diagonal, zeros dropped
    pin = int(np.argmin(spec.center_radii()))
    R = sp.csc_matrix(ref.T, dtype=float, copy=True)
    R.data[R.indices == pin] = 0.0
    R[pin, pin] = 1.0
    R.eliminate_zeros()
    cross = spec.dim == 2 and np.any(A.values(spec.cell_centers())[:, 0, 1])
    if not factor.transient_cells:  # the 9-point L_h^T comes in the nested-dissection order
        assert factor.ordering == ("nested-dissection" if cross else "mmd")
        assert factor.order is (spec.dissection_order() if cross else None)
    else:  # the closed class alone: in dissection rank for 9 points, else ascending
        order = spec.dissection_order() if cross else np.arange(spec.n_cells)
        closed = np.ones(spec.n_cells, dtype=bool)
        closed[factor.transient.cells] = False
        assert np.array_equal(factor.order, order[closed[order]])
    if factor.order is not None:  # the cells and the order the factor reports
        R = R[factor.order][:, factor.order]
        R.sort_indices()
    assert permc_spec == ("NATURAL" if cross else "MMD_AT_PLUS_A")
    assert P.format == "csc"
    assert_same_arrays(P, R)


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(coefficient_pairs(),
                      st.sampled_from(["bistable", "saddle"]).map(
                          lambda c: (*pushing_apart(c), GridSpec(2, 4.0, 16)))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_table_apply_matches_the_sparse_products(case, seed):
    # M x = L_h^T x, |M| |x| and L_h u applied from the table equal the
    # products of the CSR L_h and its transpose bit for bit, on vectors of
    # either sign whose entries span many orders of magnitude
    A, b, spec = case
    T, offsets, _ = _generator_table(A, b, spec, None)
    L = generator_matrix(A, b, spec)
    rng = np.random.default_rng(seed)
    size = (2, spec.n_cells)
    x, u = rng.standard_normal(size) * np.exp(rng.uniform(-10.0, 10.0, size))
    assert np.array_equal(_apply(T, offsets, x), L.T @ x)
    assert np.array_equal(_apply(np.abs(T), offsets, np.abs(x)), abs(L).T @ np.abs(x))
    assert np.array_equal(_apply(T, offsets, u, adjoint=False), L @ u)


def block_lower_triangular(P, order, L):
    """Whether P, taken in `order`, has no entry above its diagonal outside the blocks of the
    strongly connected components of the chain of L."""
    _, label = connected_components(L, directed=True, connection="strong")
    C = P[order][:, order].tocoo()
    up = C.row < C.col
    return bool(np.all(label[order[C.row[up]]] == label[order[C.col[up]]]))


def pinned_transpose(L, spec):
    """The pinned L_h^T as CSC: row `pin` of L_h^T zeroed, a unit diagonal, zeros dropped."""
    pin = int(np.argmin(spec.center_radii()))
    P = sp.csc_matrix(L.T, dtype=float, copy=True)
    P.data[P.indices == pin] = 0.0
    P[pin, pin] = 1.0
    P.eliminate_zeros()
    return P, pin


@settings(max_examples=40, deadline=None)
@given(case=coefficient_pairs(strong=True), seed=st.integers(0, 2 ** 32 - 1))
def test_block_triangular_factor_solves_and_its_density_lives_on_the_closed_class(case, seed):
    # the factor of the pinned L_h^T solves P x = r and P^T u = r; where the
    # pin does not reach every cell, P in the transient block's order and then
    # the closed class's is block lower triangular, and the density is
    # exactly 0 on the transient cells and agrees with an MMD factor's
    A, b, spec = case
    table = _generator_table(A, b, spec, None)
    factor = _pinned_factor(*table[:2], spec)
    L = generator_matrix(A, b, spec)
    P, pin = pinned_transpose(L, spec)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(spec.n_cells)
    for M, trans in ((P, "N"), (P.T, "T")):
        x = factor.solve(r, trans=trans)
        scale = (abs(M) @ np.abs(x) + np.abs(r)).max()
        assert np.abs(M @ x - r).max() <= 1e-12 * scale
    reached = breadth_first_order(L, pin, directed=True, return_predecessors=False)
    assert factor.transient_cells == spec.n_cells - len(reached)
    assert factor.ordering == ("nested-dissection" if len(table[1]) == 9 else "mmd")
    if factor.transient_cells:
        assert np.array_equal(factor.transient.cells,
                              np.setdiff1d(np.arange(spec.n_cells), reached))
        assert block_lower_triangular(P, np.concatenate([factor.transient.order, factor.order]), L)
    rho = solve_grid(A, b, spec, check_truncation=False)
    assert rho.info["transient_cells"] == factor.transient_cells
    transient = np.ones(spec.n_cells, dtype=bool)
    transient[reached] = False
    assert np.all(rho.flat()[transient] == 0.0)
    mmd = PinnedFactor(spla.splu(P, permc_spec="MMD_AT_PLUS_A"), pin)
    ref = _null_density(spec, table, mmd, _unit_mass(mmd.null, spec), None,
                        check_truncation=False)
    assert np.abs(rho.values - ref.values).max() <= 1e-12 * ref.values.max()


@settings(max_examples=40, deadline=None)
@given(case=coefficient_pairs(strong=True), scale=st.floats(-0.05, 0.05),
       shift=st.floats(-0.1, 0.1))
def test_refinement_against_a_closed_class_factor(case, scale, shift):
    # a slot holds the factor of one operator; the solve of a nearby one (its
    # drift scaled by 1 + scale and shifted) refines against it where the two
    # closed classes agree, without a transient block, and factors afresh at
    # once where they differ; the density is the direct one either way
    A, b, spec = case
    near = DriftField([ClosureField(lambda x, i=i: (1.0 + scale) * b.values(x)[:, i] + shift,
                                    spec.dim, f"b{i}") for i in range(spec.dim)], GrowthParams())
    slot = NearbyFactor()
    solve_grid(A, b, spec, check_truncation=False, nearby=slot)
    held = slot.factor
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        real = spla.splu
        mp.setattr(spla, "splu", lambda P, **kw: sizes.append(P.shape[0]) or real(P, **kw))
        rho = solve_grid(A, near, spec, check_truncation=False, nearby=slot)
    direct = solve_grid(A, near, spec, check_truncation=False)
    assert np.abs(rho.values - direct.values).max() <= 1e-12 * direct.values.max()

    def closed_class(drift):
        L = generator_matrix(A, drift, spec)
        pin = int(np.argmin(spec.center_radii()))
        return np.sort(breadth_first_order(L, pin, directed=True, return_predecessors=False))

    closed = closed_class(near)
    transient = np.ones(spec.n_cells, dtype=bool)
    transient[closed] = False
    assert np.all(rho.flat()[transient] == 0.0)
    assert (rho.info["transient_cells"] == direct.info["transient_cells"]
            == np.count_nonzero(transient))
    assert sizes in ([], [len(closed)])  # no transient block is factored
    if np.array_equal(closed, closed_class(b)):
        assert slot.factor is held or rho.info["refinement_steps"] == REFINE_MAX_STEPS
    else:
        assert slot.factor is not held
        assert rho.info["refinement_steps"] == 0


def test_block_order_does_not_rely_on_the_numbering_of_components(monkeypatch):
    # a block lower triangular transient block from components numbered at
    # random: the levels are raised to a topological order from any start
    # anisotropic-2d: its transient cells form large components
    m, spec = {m.name: m for m in MODELS}["anisotropic-2d"], GridSpec(2, 8.0, 32)
    table = _generator_table(m.A, m.b, spec, None)
    r = np.random.default_rng(1).standard_normal(spec.n_cells)
    plain = _pinned_factor(*table[:2], spec)
    u = plain.solve(r, trans="T")  # the transposed solve factors the transient block
    real = csgraph.connected_components

    def shuffled(G, **kw):
        count, label = real(G, **kw)
        return count, np.random.default_rng(0).permutation(count)[label]

    monkeypatch.setattr(csgraph, "connected_components", shuffled)
    factor = _pinned_factor(*table[:2], spec)
    shuffled_u = factor.solve(r, trans="T")
    L = generator_matrix(m.A, m.b, spec)
    assert factor.transient_cells == plain.transient_cells > 0
    order = np.concatenate([factor.transient.order, factor.order])
    assert block_lower_triangular(pinned_transpose(L, spec)[0], order, L)
    assert factor.null.tobytes() == plain.null.tobytes()
    assert np.abs(shuffled_u - u).max() <= 1e-12 * np.abs(u).max()
