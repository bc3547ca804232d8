"""Coefficient fields: scalars, diffusion matrices, drifts, and mollification.

A field is a vectorized map from points in R^d (arrays of shape (m, d)) to
values, carrying a dimension and a name. Diffusion matrices store
one field object per upper-triangle entry and mirror it, so the (i, j) and
(j, i) entries can never drift apart. Drifts carry their declared growth and
confinement parameters alongside the component fields.

The example library (`make_example_field`) builds the scalar fields used
throughout the test-suite and CLI: constants, a log-modulus field with a
controlled oscillation decay, and a truncated lacunary cosine field with
Holder regularity (`WeierstrassField`). `linear_drift` and
`polynomial_drift` build the two standard confining drifts.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import EllipticityError, EvaluationError
from .quadrature import gauss_interval

_EVAL_CHUNK = 65536


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class ScalarField:
    """A scalar-valued coefficient field on R^d.

    Subclasses implement `_values(x)` for x of shape (m, d). Callers use
    `values`, which takes exactly that shape, or `values_on_sums(x, y)`,
    f(x_i + y_j) on the sum lattice of two point sets. Evaluations are
    checked for finiteness; a NaN or infinity raises EvaluationError carrying
    the first offending point.
    """

    def __init__(self, dim: int, name: str = "field"):
        if dim not in (1, 2):
            raise ValueError(f"fields support d in {{1, 2}}, got {dim}")
        self.dim = int(dim)
        self.name = name

    def _values(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _points(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected shape (m, {self.dim}), got {x.shape}")
        return x

    def _require_finite(self, out: np.ndarray, point_at) -> np.ndarray:
        """Return out, or raise EvaluationError at point_at(i) for its first non-finite entry."""
        bad = ~np.isfinite(out)
        if bad.any():
            p = point_at(np.unravel_index(int(np.argmax(bad)), out.shape))
            raise EvaluationError(f"field {self.name!r} non-finite at {p}", point=p)
        return out

    def values(self, x: np.ndarray) -> np.ndarray:
        x = self._points(x)
        out = np.asarray(self._values(x), dtype=float)
        if out.shape != (x.shape[0],):
            out = np.broadcast_to(out, (x.shape[0],)).copy()
        return self._require_finite(out, lambda i: x[i])

    def values_on_sums(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """f(x_i + y_j) as a (len x, len y) array, for x of shape (m, d) and y of shape (q, d).

        The default is `values` on the flattened sums, x_i + y_j in row-major
        order. A subclass whose formula separates over a sum, such as
        cos(s + t), overrides this to work on m + q points instead of m * q;
        it keeps the finiteness check, naming the point x_i + y_j.
        """
        x, y = self._points(x), self._points(y)
        return self.values((x[:, None, :] + y[None, :, :]).reshape(-1, self.dim)).reshape(len(x), len(y))

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r} d={self.dim}>"


class ClosureField(ScalarField):
    """Scalar field defined by a vectorized closure fn(x: (m, d)) -> (m,)."""

    def __init__(self, fn, dim: int, name: str = "closure"):
        super().__init__(dim, name)
        self._fn = fn

    def _values(self, x):
        return self._fn(x)


class ConstantField(ScalarField):
    def __init__(self, value: float, dim: int = 1, name: str | None = None):
        super().__init__(dim, name or f"const({value})")
        self.value = float(value)

    def _values(self, x):
        return np.full(x.shape[0], self.value)


# ---------------------------------------------------------------------------
# expression fields (config-loadable)
# ---------------------------------------------------------------------------

_ALLOWED_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sign": np.sign, "minimum": np.minimum, "maximum": np.maximum,
    "where": np.where, "arctan": np.arctan,
}
_ALLOWED_CONSTS = {"pi": math.pi, "e": math.e}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
    ast.Compare, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Load,
)


def _validate_expr(tree: ast.AST, dim: int, expr: str):
    coord_names = {f"x{i + 1}" for i in range(dim)} | {"r"}
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"disallowed syntax {type(node).__name__!r} in expression {expr!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ValueError(f"disallowed function call in expression {expr!r}")
            if node.keywords:
                raise ValueError(f"keyword arguments not allowed in expression {expr!r}")
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            raise ValueError(f"assignment not allowed in expression {expr!r}")
        if isinstance(node, ast.Name):
            if node.id not in coord_names and node.id not in _ALLOWED_FUNCS and node.id not in _ALLOWED_CONSTS:
                raise ValueError(f"unknown name {node.id!r} in expression {expr!r} (coordinates: {sorted(coord_names)})")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"non-numeric constant in expression {expr!r}")


class ExpressionField(ScalarField):
    """Scalar field compiled from a restricted expression string.

    Coordinates are `x1`, `x2` (up to the field dimension) and `r` for |x|;
    `pi` and `e` are available, along with elementary numpy functions.
    Anything else is rejected at construction time.
    """

    def __init__(self, expr: str, dim: int, name: str | None = None):
        super().__init__(dim, name or expr)
        tree = ast.parse(expr, mode="eval")
        _validate_expr(tree, dim, expr)
        self.expr = expr
        self._code = compile(tree, "<field-expression>", "eval")

    def _values(self, x):
        env = {"__builtins__": {}}
        env.update(_ALLOWED_FUNCS)
        env.update(_ALLOWED_CONSTS)
        for i in range(self.dim):
            env[f"x{i + 1}"] = x[:, i]
        env["r"] = np.sqrt(np.sum(x * x, axis=1))
        with np.errstate(all="ignore"):
            out = eval(self._code, env)  # noqa: S307 (AST-whitelisted above)
        return np.broadcast_to(np.asarray(out, dtype=float), (x.shape[0],))


# ---------------------------------------------------------------------------
# matrix and drift fields
# ---------------------------------------------------------------------------


def sampled_eigenvalues(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each matrix of an (m, d, d) symmetric stack.

    In d = 2 the eigenvalues of [[p, q], [q, s]] are
    m -/+ sqrt(((p - s) / 2)^2 + q^2) with m = (p + s) / 2, evaluated for
    all points at once.
    """
    if a.shape[1] == 1:
        return a[:, 0, 0], a[:, 0, 0]
    p, s, q = a[:, 0, 0], a[:, 1, 1], a[:, 0, 1]
    m = 0.5 * (p + s)
    rad = np.hypot(0.5 * (p - s), q)
    return m - rad, m + rad


class DiffusionMatrixField:
    """Symmetric diffusion matrix A(x) with declared ellipticity window.

    Entries are ScalarFields stored once per upper-triangle slot; the mirror
    entry is the same object. `lam` declares lambda with
    lambda I <= A(x) <= lambda^{-1} I expected on the working region.
    """

    def __init__(self, entries: dict[tuple[int, int], ScalarField], dim: int, lam: float, name: str = "A"):
        if dim not in (1, 2):
            raise ValueError("diffusion matrices support d in {1, 2}")
        if not (0.0 < lam <= 1.0):
            raise ValueError(f"ellipticity constant must lie in (0, 1], got {lam}")
        self.dim = dim
        self.lam = float(lam)
        self.name = name
        self._entries: dict[tuple[int, int], ScalarField] = {}
        for i in range(dim):
            for j in range(i, dim):
                key = (i, j)
                if key in entries:
                    f = entries[key]
                elif (j, i) in entries:
                    f = entries[(j, i)]
                elif i != j:
                    f = ConstantField(0.0, dim)
                else:
                    raise ValueError(f"missing diagonal entry {key}")
                if f.dim != dim:
                    raise ValueError(f"entry {key} has dimension {f.dim}, matrix has {dim}")
                self._entries[key] = f

    def entry(self, i: int, j: int) -> ScalarField:
        if i > j:
            i, j = j, i
        return self._entries[(i, j)]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Evaluate to an (m, d, d) symmetric stack; a field in several slots is evaluated once."""
        x = np.asarray(x, dtype=float)
        m = x.shape[0]
        out = np.empty((m, self.dim, self.dim))
        vals = {}
        for (i, j), f in self._entries.items():
            if id(f) not in vals:
                vals[id(f)] = f.values(x)
            out[:, i, j] = out[:, j, i] = vals[id(f)]
        return out

    def check_ellipticity(self, x: np.ndarray, tol: float = 1e-9, a: np.ndarray | None = None):
        """Raise EllipticityError, naming the sample point, if an eigenvalue leaves the window.

        `a` is A at x, as from values(x), when the caller has sampled it already.
        """
        lo, hi = sampled_eigenvalues(self.values(x) if a is None else a)
        i, j = int(np.argmin(lo)), int(np.argmax(hi))
        below = lo[i] < self.lam - tol
        if below or hi[j] > 1.0 / self.lam + tol:
            at = ", ".join(f"{v:.6g}" for v in x[i if below else j])
            raise EllipticityError(
                f"matrix {self.name!r}: sampled eigenvalues [{lo[i]:.6g}, {hi[j]:.6g}] leave "
                f"[{self.lam:.6g}, {1.0 / self.lam:.6g}] (tol {tol:g}) at x=({at})")

    @classmethod
    def from_constant(cls, matrix, lam: float | None = None, name: str = "A"):
        mat = np.atleast_2d(np.asarray(matrix, dtype=float))
        dim = mat.shape[0]
        if lam is None:
            w = np.linalg.eigvalsh(mat)
            lam = min(float(w.min()), 1.0 / float(w.max()))
            lam = min(lam, 1.0)
        entries = {(i, j): ConstantField(mat[i, j], dim) for i in range(dim) for j in range(i, dim)}
        return cls(entries, dim, lam, name)

    @classmethod
    def isotropic(cls, f: ScalarField, lam: float):
        """A(x) = a(x) I for a scalar field a."""
        d = f.dim
        entries = {(i, i): f for i in range(d)}
        for i in range(d):
            for j in range(i + 1, d):
                entries[(i, j)] = ConstantField(0.0, d)
        return cls(entries, d, lam, f"{f.name} * I")

    def __repr__(self):
        return f"<DiffusionMatrixField {self.name!r} d={self.dim} lam={self.lam}>"


@dataclass(frozen=True)
class GrowthParams:
    """Declared drift growth/confinement constants.

    <b(x), x> <= beta1 - beta2 |x|^2 and |b(x)| <= beta3 (1 + |x|)^beta,
    with beta >= 1 and beta1, beta2, beta3 > 0.
    """

    beta: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    beta3: float = 1.0

    def __post_init__(self):
        if self.beta < 1.0:
            raise ValueError(f"growth exponent beta must be >= 1, got {self.beta}")
        for nm in ("beta1", "beta2", "beta3"):
            if getattr(self, nm) <= 0.0:
                raise ValueError(f"{nm} must be positive, got {getattr(self, nm)}")


class DriftField:
    """Vector drift b(x) with declared growth parameters."""

    def __init__(self, components: list[ScalarField] | tuple[ScalarField, ...], growth: GrowthParams, name: str = "b"):
        components = tuple(components)
        if not components:
            raise ValueError("drift needs at least one component")
        dim = components[0].dim
        if len(components) != dim or any(c.dim != dim for c in components):
            raise ValueError("drift needs exactly d components of dimension d")
        self.dim = dim
        self.components = components
        self.growth = growth
        self.name = name

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty((x.shape[0], self.dim))
        for i, c in enumerate(self.components):
            out[:, i] = c.values(x)
        return out

    def __repr__(self):
        g = self.growth
        return f"<DriftField {self.name!r} d={self.dim} beta={g.beta}>"


def linear_drift(dim: int, theta: float = 1.0, mu=None) -> DriftField:
    """b(x) = -theta (x - mu), the linear confining drift."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    mu_arr = np.zeros(dim) if mu is None else np.asarray(mu, dtype=float).reshape(dim)
    comps = []
    for i in range(dim):
        mi = float(mu_arr[i])
        comps.append(ClosureField(
            lambda x, i=i, mi=mi: -theta * (x[:, i] - mi), dim, f"-theta(x{i + 1}-mu{i + 1})"))
    mnorm = float(np.linalg.norm(mu_arr))
    if mnorm == 0.0:
        growth = GrowthParams(beta=1.0, beta1=theta, beta2=theta, beta3=theta)
    else:
        # <b,x> = -theta|x|^2 + theta<mu,x> <= theta|mu|^2/2 - (theta/2)|x|^2
        growth = GrowthParams(beta=1.0, beta1=theta * (1.0 + mnorm ** 2) / 2.0,
                              beta2=theta / 2.0, beta3=theta * (1.0 + mnorm))
    return DriftField(comps, growth, f"linear-drift(theta={theta})")


def polynomial_drift(dim: int, beta: float = 3.0) -> DriftField:
    """b(x) = -|x|^{beta-1} x, the superlinear confining drift."""
    if beta < 1.0:
        raise ValueError("beta must be >= 1")

    def comp(i):
        def fn(x):
            r = np.sqrt(np.sum(x * x, axis=1))
            return -r ** (beta - 1.0) * x[:, i]
        return ClosureField(fn, dim, f"-|x|^{beta - 1} x{i + 1}")

    # |x|^{beta+1} >= |x|^2 - 1 for beta >= 1
    growth = GrowthParams(beta=beta, beta1=1.0, beta2=1.0, beta3=1.0)
    return DriftField([comp(i) for i in range(dim)], growth, f"poly-drift(beta={beta})")


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _bump_profile(z2: np.ndarray) -> np.ndarray:
    """Unnormalized bump exp(-1/(1-s)) of squared radius s, zero outside s < 1."""
    out = np.zeros_like(z2)
    inside = z2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - z2[inside]))
    return out


MOLLIFIER_ORDER = 64  # Gauss points of the mollifier's quadrature rule


@dataclass(frozen=True)
class MollifierSpec:
    """A smooth nonnegative kernel on the unit ball with unit mass.

    Holds a fixed quadrature rule (points in the unit ball, weights normalized
    to sum exactly to 1) used for all mollified-field evaluations, plus the
    defect of the raw kernel quadrature against an independent high-order
    reference rule. Construction fails if that defect exceeds 1e-8.
    """

    dim: int
    points: np.ndarray = dc_field(repr=False)
    weights: np.ndarray = dc_field(repr=False)
    quadrature_defect: float = 0.0

    @classmethod
    def standard_bump(cls, dim: int) -> "MollifierSpec":
        """The bump kernel with a Gauss rule of MOLLIFIER_ORDER points (radially in 2d)."""
        if dim not in (1, 2):
            raise ValueError("mollifiers support d in {1, 2}")
        norm = _bump_mass(dim)
        if dim == 1:
            z, w = gauss_interval(-1.0, 1.0, MOLLIFIER_ORDER)
            pts = z[:, None]
        else:
            # radial Gauss x angular midpoint, area element r dr dtheta
            rr, wr = gauss_interval(0.0, 1.0, MOLLIFIER_ORDER)
            na = 2 * MOLLIFIER_ORDER
            th = (np.arange(na) + 0.5) / na * 2.0 * np.pi
            Rg, Tg = np.meshgrid(rr, th, indexing="ij")
            pts = np.stack([(Rg * np.cos(Tg)).ravel(), (Rg * np.sin(Tg)).ravel()], axis=1)
            w = (np.outer(wr * rr, np.full(na, 2.0 * np.pi / na))).ravel()
        raw = w * _bump_profile(np.sum(pts * pts, axis=1)) / norm
        defect = abs(float(raw.sum()) - 1.0)
        if defect > 1e-8:
            raise ValueError(f"kernel quadrature of order {MOLLIFIER_ORDER} has mass defect {defect:.3e} > 1e-8")
        weights = raw / raw.sum()
        return cls(dim=dim, points=pts, weights=weights, quadrature_defect=defect)


def _bump_mass(dim: int) -> float:
    """Integral of the unnormalized bump over the unit ball, high-order reference."""
    if dim == 1:
        z, w = gauss_interval(-1.0, 1.0, 400)
        return float(w @ _bump_profile(z * z))
    rr, wr = gauss_interval(0.0, 1.0, 400)
    return float(2.0 * np.pi * (wr * rr) @ _bump_profile(rr * rr))


class MollifiedField(ScalarField):
    """Convolution f * g_eps evaluated by the kernel's fixed quadrature rule.

    The discrete rule is a convex combination of translates of f, so every
    oscillation bound satisfied by f is inherited by the mollified field up to
    center-sampling error.
    """

    def __init__(self, base: ScalarField, spec: MollifierSpec, eps: float):
        if eps <= 0:
            raise ValueError("mollification width eps must be positive")
        if spec.dim != base.dim:
            raise ValueError(f"kernel dimension {spec.dim} does not match field dimension {base.dim}")
        super().__init__(base.dim, f"mollify({base.name}, eps={eps:g})")
        self.base = base
        self.spec = spec
        self.eps = float(eps)

    def _values(self, x):
        shifts = -self.eps * self.spec.points
        out = np.empty(x.shape[0])
        step = max(1, _EVAL_CHUNK // len(shifts))
        for lo in range(0, x.shape[0], step):
            out[lo:lo + step] = self.base.values_on_sums(x[lo:lo + step], shifts) @ self.spec.weights
        return out


def mollify(f: ScalarField, spec: MollifierSpec, eps: float) -> MollifiedField:
    """Mollify a scalar field at width eps with the given kernel."""
    return MollifiedField(f, spec, eps)


# ---------------------------------------------------------------------------
# example library
# ---------------------------------------------------------------------------


def _log_modulus_field(gamma: float, dim: int) -> ScalarField:
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"log-modulus exponent gamma must lie in (0, 1), got {gamma}")
    plateau = math.log(2.0) ** (-gamma)  # value on |x| >= 1/2, keeps the field Lipschitz there

    def fn(x):
        r = np.sqrt(np.sum(x * x, axis=1))
        out = np.full(x.shape[0], plateau)
        core = (r > 0.0) & (r <= 0.5)
        with np.errstate(divide="ignore"):
            out[core] = np.abs(np.log(r[core])) ** (-gamma)
        out[r == 0.0] = 0.0
        return out

    return ClosureField(fn, dim, f"log-modulus(gamma={gamma:g})")


class WeierstrassField(ScalarField):
    """Truncated lacunary cosine series with Holder exponent alpha.

    f(x) = mid + half * sum_k a_k cos(2^k t) / sum_k a_k with a_k = 2^(-k alpha),
    k < terms, and t = x1 (d = 1) or x1 + x2 (d = 2); mid and half place the
    values inside [lam, 1/lam]. On a sum lattice, cos(2^k (s + t)) =
    cos 2^k s cos 2^k t - sin 2^k s sin 2^k t, so `values_on_sums` takes
    (m + q) * terms sines and cosines and two matrix products in place of
    m * q * terms cosines of arguments up to 2^terms. It differs from
    `values` on the sums by the rounding of x + y amplified at the top
    frequency, about sum_k |c_k| 2^k ulp(|x| + |y|) for the coefficients
    c_k = half a_k / sum a.
    """

    def __init__(self, alpha: float, lam: float, dim: int, terms: int = 24):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"Holder exponent alpha must lie in (0, 1), got {alpha}")
        if not (0.0 < lam <= 1.0):
            raise ValueError(f"lam must lie in (0, 1], got {lam}")
        if isinstance(terms, bool) or not isinstance(terms, (int, np.integer)) or terms < 1:
            raise ValueError(f"terms must be an integer >= 1, got {terms!r}")
        super().__init__(dim, f"weierstrass-holder(alpha={alpha:g})")
        self.amps = 2.0 ** (-alpha * np.arange(terms))
        self.freqs = 2.0 ** np.arange(terms)
        self.total = self.amps.sum()
        self.mid = 0.5 * (lam + 1.0 / lam)
        self.half = 0.5 * (1.0 / lam - lam)

    def _phase(self, x):
        return x[:, 0] if self.dim == 1 else x[:, 0] + x[:, 1]

    def _values(self, x):
        w = np.cos(np.outer(self._phase(x), self.freqs)) @ self.amps
        return self.mid + self.half * (w / self.total)

    def values_on_sums(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = self._points(x), self._points(y)
        s = np.outer(self._phase(x), self.freqs)
        t = np.outer(self._phase(y), self.freqs)
        w = (np.cos(s) * self.amps) @ np.cos(t).T - (np.sin(s) * self.amps) @ np.sin(t).T
        out = self.mid + self.half * (w / self.total)
        return self._require_finite(out, lambda ij: x[ij[0]] + y[ij[1]])


# parameter names each example takes besides the dimension d
_EXAMPLE_PARAMS = {
    "constant": ("value",),
    "log-modulus": ("gamma",),
    "weierstrass-holder": ("alpha", "lam", "terms"),
}


def _real(params: dict, key: str, default: float) -> float:
    """params[key] (default if absent) as a float, or a ValueError naming key."""
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"parameter {key!r} must be a real number, got {v!r}")
    return float(v)


def make_example_field(name: str, **params) -> ScalarField:
    """Build a named example scalar field.

    Names: "constant" (value, d), "log-modulus" (gamma, d),
    "weierstrass-holder" (alpha, lam, d, terms). An unknown name, a
    parameter the name does not take or one that is not a real number is a
    ValueError naming it. The drifts are `linear_drift` and `polynomial_drift`.
    """
    if name not in _EXAMPLE_PARAMS:
        raise ValueError(f"unknown example field {name!r}; known: {', '.join(_EXAMPLE_PARAMS)}")
    known = ("d", *_EXAMPLE_PARAMS[name])
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(f"unknown parameter(s) {', '.join(map(repr, unknown))} for example "
                         f"field {name!r}; known: {', '.join(known)}")
    dim = int(_real(params, "d", 1))
    if name == "constant":
        return ConstantField(_real(params, "value", 1.0), dim)
    if name == "log-modulus":
        return _log_modulus_field(_real(params, "gamma", 0.5), dim)
    return WeierstrassField(_real(params, "alpha", 0.5), _real(params, "lam", 0.5), dim,
                            params.get("terms", 24))
