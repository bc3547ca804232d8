import keyword
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpkit import (ClosureField, ConstantField, DiffusionMatrixField, DriftField,
                   ExpressionField, GrowthParams, MollifierSpec,
                   linear_drift, make_example_field, mollify, polynomial_drift)
from fpkit.errors import EllipticityError, EvaluationError
from fpkit.fields import (_ALLOWED_CONSTS, _ALLOWED_FUNCS, _EXAMPLE_PARAMS, WeierstrassField,
                          sampled_eigenvalues)


def _box_points(dim, radius=4.0, n=41):
    ax = np.linspace(-radius, radius, n)
    if dim == 1:
        return ax[:, None]
    g = np.meshgrid(ax, ax, indexing="ij")
    return np.stack([t.ravel() for t in g], axis=1)


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class TestScalarFields:
    def test_constant_field_evaluates_everywhere(self):
        f = ConstantField(5.0, 2)
        vals = f.values(_box_points(2))
        assert (vals == 5.0).all()

    def test_expression_field_matches_closed_form(self):
        f = ExpressionField("tanh(x1) + 0.5*x2**2", 2)
        pts = _box_points(2, 3.0, 17)
        expect = np.tanh(pts[:, 0]) + 0.5 * pts[:, 1] ** 2
        assert np.abs(f.values(pts) - expect).max() < 1e-14

    def test_expression_field_rejects_unknown_names(self):
        with pytest.raises(Exception):
            ExpressionField("__import__('os')", 1).values(np.zeros((1, 1)))

    @pytest.mark.parametrize("name", ["constant", "log-modulus", "weierstrass-holder"])
    def test_builtin_fields_are_finite_on_a_box(self, name):
        f = make_example_field(name)
        vals = f.values(_box_points(1, 6.0, 401))
        assert np.isfinite(vals).all()

    def test_closure_field_wraps_a_callable(self):
        f = ClosureField(lambda p: np.cos(p[:, 0]), 1)
        x = _box_points(1, 2.0, 9)
        assert np.abs(f.values(x) - np.cos(x[:, 0])).max() == 0.0


class TestExampleCatalog:
    def test_constant_example(self):
        f = make_example_field("constant", value=1.0)
        assert f.values(np.array([[0.7]]))[0] == 1.0

    def test_log_modulus_value_at_one_half(self):
        # |ln(1/2)|^(-1/2) = (ln 2)^(-1/2)
        f = make_example_field("log-modulus", gamma=0.5)
        expect = math.log(2.0) ** -0.5
        assert f.values(np.array([[0.5]]))[0] == pytest.approx(expect, rel=1e-12)

    def test_ou_drift_is_minus_x(self):
        b = linear_drift(1)
        assert b.values(np.array([[2.0]]))[0, 0] == pytest.approx(-2.0)

    def test_polynomial_drift_cubes_its_argument(self):
        b = polynomial_drift(1, beta=3.0)
        assert b.values(np.array([[2.0]]))[0, 0] == pytest.approx(-8.0)

    def test_weierstrass_field_stays_inside_the_ellipticity_window(self):
        lam = 0.5
        f = make_example_field("weierstrass-holder", alpha=0.3, lam=lam)
        vals = f.values(_box_points(1, 8.0, 4001))
        assert vals.min() >= lam - 1e-12
        assert vals.max() <= 1.0 / lam + 1e-12

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ValueError, match="log-modulus"):
            make_example_field("no-such-field")

    @pytest.mark.parametrize("name", sorted(_EXAMPLE_PARAMS))
    def test_unknown_parameter_is_named_with_the_known_ones(self, name):
        # regression: unknown keys were ignored, so a misspelt alpha ran with the default
        known = ", ".join(("d", *_EXAMPLE_PARAMS[name]))
        with pytest.raises(ValueError, match=f"'alpah', 'zeta' for example field '{name}'; "
                                             f"known: {known}$"):
            make_example_field(name, zeta=1.0, alpah=0.3)

    @pytest.mark.parametrize("terms", [0, -3, 2.7, 24.0, True, "24"])
    def test_weierstrass_terms_must_be_a_positive_integer(self, terms):
        # regression: 0 gave a 0/0 field and 2.7 was truncated to 2
        with pytest.raises(ValueError, match="terms must be an integer >= 1"):
            make_example_field("weierstrass-holder", terms=terms)

    def test_weierstrass_takes_a_single_term(self):
        f = make_example_field("weierstrass-holder", terms=1, lam=0.5)
        x = _box_points(1, 2.0, 9)
        assert np.array_equal(f.values(x), 1.25 + 0.75 * np.cos(x[:, 0]))


# ---------------------------------------------------------------------------
# values on a sum lattice
# ---------------------------------------------------------------------------

_MOLLIFIERS = {d: MollifierSpec.standard_bump(d) for d in (1, 2)}


def _lattice(dim, finite=True):
    coords = st.floats(-4.0, 4.0) if finite else st.sampled_from([0.5, -1.25, np.inf, -np.inf, np.nan])
    return st.integers(1, 6).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=coords))


def _sums(x, y):
    return (x[:, None, :] + y[None, :, :]).reshape(-1, x.shape[1])


def _default_path_field(kind, dim):
    if kind == "constant":
        return ConstantField(-2.5, dim)
    if kind == "log-modulus":
        return make_example_field("log-modulus", gamma=0.3, d=dim)
    if kind == "expression":
        return ExpressionField("sin(3*x1) + r" if dim == 1 else "x1*x2 + exp(-r)", dim)
    return mollify(make_example_field("log-modulus", gamma=0.5, d=dim), _MOLLIFIERS[dim], 0.2)


class TestValuesOnSums:
    @pytest.mark.parametrize("kind", ["constant", "log-modulus", "expression", "mollified"])
    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_default_is_values_on_the_flattened_sums(self, kind, dim, data):
        f = _default_path_field(kind, dim)
        x, y = data.draw(_lattice(dim)), data.draw(_lattice(dim))
        out = f.values_on_sums(x, y)
        assert out.shape == (len(x), len(y))
        assert out.tobytes() == f.values(_sums(x, y)).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mollified_field_is_the_weighted_sum_of_shifted_samples(self, dim, data):
        # the kernel rule at x - eps z, written out, bit for bit
        spec, eps = _MOLLIFIERS[dim], 0.2
        base = make_example_field("log-modulus", gamma=0.5, d=dim)
        x = data.draw(_lattice(dim))
        shifted = (x[:, None, :] - eps * spec.points[None, :, :]).reshape(-1, dim)
        expect = base.values(shifted).reshape(len(x), -1) @ spec.weights
        assert mollify(base, spec, eps).values(x).tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), alpha=st.floats(0.05, 0.95), lam=st.floats(0.05, 1.0),
           terms=st.integers(1, 30), dim=st.sampled_from([1, 2]))
    def test_weierstrass_angle_addition_is_within_the_rounding_of_the_sums(
            self, data, alpha, lam, terms, dim):
        f = make_example_field("weierstrass-holder", alpha=alpha, lam=lam, terms=terms, d=dim)
        assert isinstance(f, WeierstrassField)
        x, y = data.draw(_lattice(dim)), data.draw(_lattice(dim))
        gap = np.abs(f.values_on_sums(x, y) - f.values(_sums(x, y)).reshape(len(x), len(y)))
        # x + y rounds to within a few ulp of |x| + |y| (three roundings in d = 2), which
        # cos(2^k .) amplifies by 2^k; the sines, cosines and sums add a few eps per term
        c = f.half * f.amps / f.total
        scale = np.abs(x).sum(axis=1)[:, None] + np.abs(y).sum(axis=1)[None, :]
        bound = (4.0 * np.spacing(scale) * float(c @ f.freqs)
                 + 16 * terms * np.finfo(float).eps * (f.mid + f.half))
        assert (gap <= bound).all()

    @pytest.mark.parametrize("field", [
        make_example_field("weierstrass-holder", d=1), make_example_field("weierstrass-holder", d=2),
        ExpressionField("x1", 1), ExpressionField("x1 + x2", 2)],
        ids=["weierstrass-1d", "weierstrass-2d", "default-1d", "default-2d"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_non_finite_value_names_its_point(self, field, data):
        # both fields are non-finite exactly where a coordinate of x_i + y_j is
        x = data.draw(_lattice(field.dim, finite=False))
        y = data.draw(_lattice(field.dim, finite=False))
        with np.errstate(invalid="ignore"):
            sums = _sums(x, y)
            bad = ~np.isfinite(sums).all(axis=1)
            if not bad.any():
                assert np.isfinite(field.values_on_sums(x, y)).all()
                return
            with pytest.raises(EvaluationError, match="non-finite at") as exc:
                field.values_on_sums(x, y)
        assert np.array_equal(exc.value.point, sums[np.argmax(bad)], equal_nan=True)


# ---------------------------------------------------------------------------
# expression whitelist, as properties over generated expressions in d = 2
# ---------------------------------------------------------------------------

_COORDS = ("x1", "x2", "r")
_ARITY = {"minimum": 2, "maximum": 2, "where": 3}
_OPERATORS = ("+", "-", "*", "/", "**", "%", "<", "<=", ">", ">=")


def _call(sub):
    def args(fn):
        n = _ARITY.get(fn, 1)
        return st.lists(sub, min_size=n, max_size=n).map(lambda a: f"{fn}({', '.join(a)})")
    return st.sampled_from(sorted(_ALLOWED_FUNCS)).flatmap(args)


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from(_OPERATORS), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from("-+"), sub).map(lambda t: f"{t[0]}({t[1]})"),
        _call(sub))


WHITELISTED = st.recursive(
    st.one_of(st.sampled_from(_COORDS + tuple(_ALLOWED_CONSTS)), st.integers(0, 99).map(str),
              st.floats(0.0, 1e3).map(repr)),
    _extend, max_leaves=10)

# one construct outside the node whitelist each; A and B stand for
# whitelisted subexpressions
_BAD_SYNTAX = (
    "(A).real", "(A)[0]", "[A, B]", "(A, B)", "{A: B}", "{A}", "lambda: A", "A if B else 1",
    "A and B", "A or B", "not A", "~(A)", "(A) // (B)", "(A) @ (B)", "(A) & (B)", "(A) | (B)",
    "(A) ^ (B)", "(A) << 2", "(A) >> 2", "(A) == (B)", "(A) != (B)", "(A) is (B)",
    "(A) in (B)", "[t for t in A]", "(t for t in A)", "{t for t in A}", "f'{(A)}'", "'text'",
    "b'x'", "...", "(y := A)", "sin(*A)", "sin(x=A)", "(A)(B)",
)
_UNKNOWN_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: not keyword.iskeyword(s) and s not in _COORDS
    and s not in _ALLOWED_FUNCS and s not in _ALLOWED_CONSTS)


class TestExpressionWhitelist:
    @settings(max_examples=100, deadline=None)
    @given(expr=WHITELISTED)
    def test_accepts_every_whitelisted_expression(self, expr):
        assert ExpressionField(expr, 2).expr == expr

    @pytest.mark.parametrize("template", _BAD_SYNTAX)
    @settings(max_examples=10, deadline=None)
    @given(ctx=WHITELISTED, a=WHITELISTED, b=WHITELISTED)
    def test_rejects_syntax_outside_the_node_whitelist(self, template, ctx, a, b):
        bad = template.replace("A", a).replace("B", b)
        with pytest.raises(ValueError):
            ExpressionField(f"({ctx}) + ({bad})", 2)

    @settings(max_examples=100, deadline=None)
    @given(ctx=WHITELISTED, a=WHITELISTED, fn=_UNKNOWN_NAME | st.sampled_from(
        ("eval", "exec", "__import__", "open", "getattr", "compile", "arcsin", "floor")))
    def test_rejects_calls_outside_the_function_whitelist(self, ctx, a, fn):
        with pytest.raises(ValueError, match="function call"):
            ExpressionField(f"({ctx}) * {fn}({a})", 2)

    @settings(max_examples=100, deadline=None)
    @given(ctx=WHITELISTED, name=_UNKNOWN_NAME)
    def test_rejects_names_outside_coordinates_functions_and_constants(self, ctx, name):
        with pytest.raises(ValueError, match="unknown name"):
            ExpressionField(f"({ctx}) - {name}", 2)


# ---------------------------------------------------------------------------
# diffusion matrices
# ---------------------------------------------------------------------------


_ENTRY = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

# (a00, a11, a01) of symmetric 2x2 matrices: generic, with near-equal
# eigenvalues (a00 ~ a11, tiny a01) and with an a01 that dwarfs the diagonal
_SYMMETRIC_2X2 = st.one_of(
    st.tuples(_ENTRY, _ENTRY, _ENTRY),
    st.builds(lambda p, e, f: (p, p * (1.0 + e), f * abs(p)), _ENTRY,
              st.floats(-1e-10, 1e-10), st.floats(-1e-8, 1e-8)),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
              st.floats(1e3, 1e8) | st.floats(-1e8, -1e3)),
)


class TestDiffusionMatrixField:
    def test_entries_share_storage_across_the_diagonal(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        A = DiffusionMatrixField.from_constant(mat)
        assert A.entry(0, 1) is A.entry(1, 0)

    def test_values_are_symmetric_matrices(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        A = DiffusionMatrixField.from_constant(mat)
        V = A.values(_box_points(2, 2.0, 5))
        assert np.abs(V - np.swapaxes(V, 1, 2)).max() == 0.0

    def test_eigenvalues_live_in_the_declared_window(self):
        f = make_example_field("weierstrass-holder", alpha=0.5, lam=0.7)
        A = DiffusionMatrixField.isotropic(f, 0.7)
        lo, hi = sampled_eigenvalues(A.values(_box_points(1, 6.0, 801)))
        assert lo.min() >= 0.7 - 1e-9
        assert hi.max() <= 1.0 / 0.7 + 1e-9

    def test_ellipticity_check_rejects_a_degenerate_matrix(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])  # eigenvalues 0 and 2
        with pytest.raises(Exception):
            A = DiffusionMatrixField.from_constant(mat, lam=0.5)
            A.check_ellipticity(_box_points(2, 1.0, 3))

    @settings(max_examples=200, deadline=None)
    @given(stack=st.lists(_SYMMETRIC_2X2, min_size=1, max_size=12))
    def test_eigenvalue_range_matches_eigvalsh(self, stack):
        # the closed form m -/+ sqrt(((p - s) / 2)^2 + q^2) against LAPACK,
        # relative to the largest eigenvalue magnitude in the stack
        mats = np.array([[[p, q], [q, s]] for p, s, q in stack])
        # point x = (c, c) evaluates to matrix c of the stack
        A = DiffusionMatrixField({(i, j): ClosureField(lambda x, i=i, j=j:
                                                       mats[x[:, 0].astype(int), i, j], 2)
                                  for i, j in ((0, 0), (0, 1), (1, 1))}, 2, lam=1.0)
        pts = np.repeat(np.arange(len(stack), dtype=float)[:, None], 2, axis=1)
        lo, hi = sampled_eigenvalues(A.values(pts))
        w = np.linalg.eigvalsh(mats)
        scale = max(float(np.abs(w).max()), 1e-300)
        assert np.abs(lo - w[:, 0]).max() <= 1e-12 * scale
        assert np.abs(hi - w[:, 1]).max() <= 1e-12 * scale

    def test_ellipticity_window_edge_in_two_dimensions(self):
        # rotated matrices with eigenvalues lam - 1e-7 (inside the 1e-6 tolerance)
        # and lam - 1e-5 (outside), lam = 0.5; the cross entry is nonzero
        th = 0.4
        Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        pts = _box_points(2, 1.0, 3)
        inside = Q @ np.diag([0.5 - 1e-7, 1.5]) @ Q.T
        DiffusionMatrixField.from_constant(inside, lam=0.5).check_ellipticity(pts, tol=1e-6)
        outside = Q @ np.diag([0.5 - 1e-5, 1.5]) @ Q.T
        with pytest.raises(EllipticityError, match="leave"):
            DiffusionMatrixField.from_constant(outside, lam=0.5).check_ellipticity(pts, tol=1e-6)

    def test_from_constant_derives_the_tightest_lambda(self):
        A = DiffusionMatrixField.from_constant(np.diag([0.5, 2.0]))
        assert A.lam == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------


class TestDriftField:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_linear_drift_satisfies_its_growth_envelope(self, dim):
        b = linear_drift(dim, 1.0)
        pts = _box_points(dim, 6.0, 25)
        vals = b.values(pts)
        r = np.linalg.norm(pts, axis=1)
        inner = np.einsum("ni,ni->n", vals, pts)
        g = b.growth
        assert (inner <= g.beta1 - g.beta2 * r**2 + 1e-9).all()
        assert (np.linalg.norm(vals, axis=1) <= g.beta3 * (1 + r) ** g.beta + 1e-9).all()

    def test_cubic_drift_declares_beta_three(self):
        b = polynomial_drift(1, beta=3.0)
        assert b.growth.beta == 3.0
        pts = _box_points(1, 4.0, 101)
        vals = np.abs(b.values(pts)[:, 0])
        r = np.abs(pts[:, 0])
        assert (vals <= b.growth.beta3 * (1 + r) ** 3 + 1e-9).all()

    def test_component_count_must_match_dimension(self):
        with pytest.raises(ValueError):
            DriftField([ConstantField(0.0, 2)], GrowthParams())


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


class TestMollify:
    def test_kernel_weights_are_a_probability_rule_on_the_unit_ball(self):
        for dim in (1, 2):
            spec = MollifierSpec.standard_bump(dim)
            assert (spec.weights >= 0).all()
            assert abs(spec.weights.sum() - 1.0) < 1e-12
            assert (np.linalg.norm(spec.points, axis=1) <= 1.0 + 1e-12).all()
            assert spec.quadrature_defect <= 1e-8

    def test_constants_are_fixed_points(self):
        spec = MollifierSpec.standard_bump(1)
        g = mollify(ConstantField(3.0, 1), spec, 0.1)
        assert np.abs(g.values(_box_points(1, 2.0, 9)) - 3.0).max() < 1e-12

    def test_linear_fields_are_fixed_points_of_a_symmetric_kernel(self):
        spec = MollifierSpec.standard_bump(1)
        g = mollify(ExpressionField("x1", 1), spec, 0.25)
        x = _box_points(1, 2.0, 17)
        assert np.abs(g.values(x) - x[:, 0]).max() < 1e-12

    def test_sup_gap_shrinks_with_the_kernel_scale(self):
        # uniform convergence of mollifications for a continuous field
        spec = MollifierSpec.standard_bump(1)
        f = make_example_field("weierstrass-holder", alpha=0.5)
        x = _box_points(1, 2.0, 301)
        base = f.values(x)
        gaps = [np.abs(mollify(f, spec, e).values(x) - base).max()
                for e in (0.1, 0.01, 0.001)]
        assert gaps[0] > gaps[1] > gaps[2]
