"""Experiment configuration: schema validation and the objects each run needs.

Configurations are plain JSON mappings. Validation is strict: unknown keys
are rejected by name (catching typos like "betaa2" instead of "beta2"),
types are checked, and range constraints are enforced before any numerics
run. validate_command_config is the one place where a config becomes
objects: in one pass it fills the defaults, so downstream code never
guesses a default twice, and builds what the run needs, which the CLI
runners take as built and only run. A config that validates raises no
config error later, in any command. Every check that needs a built object
is made in that pass, before any output exists: an unknown model or field,
an expression that does not parse, the drift count, a grid past
grids.MAX_CELLS cells, a solve grid with no cell in B(0, 1), a poisson
p <= d, a poisson check grid that cannot be built, a psi constant on the
main grid, each meanfield coupling against the kernel's margin, each start
inside the box, and each sweep point as the run it is.

Builders turn validated sub-configs into objects: named example fields,
expression fields (parsed through the restricted expression grammar),
constants, diffusion matrices, drifts with declared growth envelopes,
grids, interaction kernels and the pair family of `stability`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ValidationError
from .fields import (_EXAMPLE_PARAMS, ConstantField, DiffusionMatrixField, DriftField,
                     ExpressionField, GrowthParams, ScalarField, linear_drift,
                     make_example_field)
from .fpk import builtin_models
from .grids import MAX_CELLS, GridSpec, default_radius
from .meanfield import InteractionKernel, MeanFieldModel
from .poisson import check_grids
from .stability import CoefficientPair

_NUM = (int, float)


@dataclass(frozen=True)
class Key:
    """Schema entry for one config key."""

    types: tuple
    required: bool = False
    default: object = None
    check: Callable | None = None
    expect: str = ""


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def validate_mapping(obj, schema: dict[str, Key], path: str = "") -> dict:
    """Check one mapping against a schema; returns it with defaults applied."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a mapping at {path or '<root>'}, got {type(obj).__name__}",
                              path=path)
    for k in obj:
        if k not in schema:
            raise ValidationError(f"unknown key {k!r} at {path or '<root>'} "
                                  f"(known keys: {', '.join(sorted(schema))})",
                                  path=_join(path, str(k)))
    out = {}
    for name, spec in schema.items():
        if name not in obj:
            if spec.required:
                raise ValidationError(f"missing required key {name!r} at {path or '<root>'}",
                                      path=_join(path, name))
            out[name] = spec.default
            continue
        val = obj[name]
        if spec.types and not isinstance(val, spec.types):
            if not (float in spec.types and isinstance(val, int) and not isinstance(val, bool)):
                raise ValidationError(
                    f"key {name!r} has type {type(val).__name__}, expected "
                    f"{'/'.join(t.__name__ for t in spec.types)}", path=_join(path, name))
        if spec.check is not None and not spec.check(val):
            raise ValidationError(f"key {name!r} fails its range check"
                                  + (f" ({spec.expect})" if spec.expect else ""),
                                  path=_join(path, name))
        out[name] = val
    return out


def _pow2(n) -> bool:
    return isinstance(n, int) and n >= 16 and (n & (n - 1)) == 0


def _positive(v) -> bool:
    return isinstance(v, _NUM) and not isinstance(v, bool) and v > 0


def _num_list(v, minimum=1, positive=True) -> bool:
    if not isinstance(v, list) or len(v) < minimum:
        return False
    return all(isinstance(t, _NUM) and not isinstance(t, bool) and (t > 0 or not positive)
               for t in v)


_FIELD_SCHEMA = {
    "name": Key((str,)),
    "params": Key((dict,), default=None),
    "expression": Key((str,)),
    "constant": Key(_NUM),
    "dim": Key((int,), default=None, check=lambda v: v in (1, 2), expect="1 or 2"),
}

_DIFFUSION_SCHEMA = {
    "constant": Key(_NUM, check=_positive, expect="> 0"),
    "expression": Key((str,)),
    "name": Key((str,)),
    "params": Key((dict,), default=None),
    "lam": Key(_NUM, default=None, check=lambda v: 0 < v <= 1, expect="in (0, 1]"),
}

_DRIFT_SCHEMA = {
    "expressions": Key((list,), required=True,
                       check=lambda v: len(v) >= 1 and all(isinstance(s, str) for s in v),
                       expect="list of expression strings"),
    "beta": Key(_NUM, default=1.0, check=lambda v: v >= 1, expect=">= 1"),
    "beta1": Key(_NUM, required=True, check=_positive, expect="> 0"),
    "beta2": Key(_NUM, required=True, check=_positive, expect="> 0"),
    "beta3": Key(_NUM, required=True, check=_positive, expect="> 0"),
}

_COEFF_SCHEMA = {
    "dim": Key((int,), default=1, check=lambda v: v in (1, 2), expect="1 or 2"),
    "diffusion": Key((dict,), required=True),
    "drift": Key((dict,), required=True),
}

_RADII_SCHEMA = {
    "min": Key(_NUM, default=1e-3, check=_positive, expect="> 0"),
    "max": Key(_NUM, default=0.4, check=_positive, expect="> 0"),
    "count": Key((int,), default=12, check=lambda v: v >= 4, expect=">= 4"),
}

SCHEMAS: dict[str, dict[str, Key]] = {
    "dini": {
        "field": Key((dict,), required=True),
        "radii": Key((dict,), default=None),
        "t0": Key(_NUM, default=0.5, check=_positive, expect="> 0"),
        "box_radius": Key(_NUM, default=1.0, check=lambda v: _positive(v) and v <= 1e6,
                          expect="in (0, 1e6]"),
        "n_centers": Key((int,), default=24, check=lambda v: v >= 4, expect=">= 4"),
        "seed": Key((int,), default=0, check=lambda v: v >= 0, expect=">= 0"),
    },
    "solve": {
        "model": Key((str,)),
        "coefficients": Key((dict,)),
        "radius": Key(_NUM, default=None, check=lambda v: v >= 4, expect=">= 4"),
        "n": Key((int,), default=None, check=_pow2, expect="power of two >= 16"),
        "weight_order": Key(_NUM, default=1.0, check=lambda v: v >= 0, expect=">= 0"),
        "seed": Key((int,), default=0, check=lambda v: v >= 0, expect=">= 0"),
    },
    "poisson": {
        "model": Key((str,)),
        "coefficients": Key((dict,)),
        "psi": Key((dict,), required=True),
        "k": Key(_NUM, default=1.0, check=lambda v: v >= 1, expect=">= 1"),
        "p": Key(_NUM, default=None, check=_positive, expect="> 0"),
        "radius": Key(_NUM, default=None, check=lambda v: v >= 4, expect=">= 4"),
        "n": Key((int,), default=None, check=_pow2, expect="power of two >= 16"),
        "check_radii": Key((list,), default=None, check=lambda v: _num_list(v, 2),
                           expect="list of >= 2 positive radii"),
        "seed": Key((int,), default=0, check=lambda v: v >= 0, expect=">= 0"),
    },
    "stability": {
        "family": Key((str,), required=True,
                      check=lambda v: v in ("drift-linear", "diffusion-constant"),
                      expect="drift-linear or diffusion-constant"),
        "deltas": Key((list,), default=[1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
                      check=lambda v: _num_list(v, 2), expect="list of >= 2 positive sizes"),
        "k": Key(_NUM, default=1.0, check=lambda v: v >= 0, expect=">= 0"),
        "r": Key(_NUM, default=2.0, check=lambda v: v >= 1, expect=">= 1"),
        "dim": Key((int,), default=1, check=lambda v: v in (1, 2), expect="1 or 2"),
        "radius": Key(_NUM, default=None, check=lambda v: v >= 4, expect=">= 4"),
        "n": Key((int,), default=None, check=_pow2, expect="power of two >= 16"),
        "seed": Key((int,), default=0, check=lambda v: v >= 0, expect=">= 0"),
    },
    "meanfield": {
        "eps": Key(_NUM, required=True, check=lambda v: 0 <= v <= 1, expect="in [0, 1]"),
        "kernel": Key((str,), default="tanh",
                      check=lambda v: v in ("tanh", "tanh-relative", "gaussian-diffusion"),
                      expect="tanh, tanh-relative, or gaussian-diffusion"),
        "weight_order": Key(_NUM, default=1.0, check=lambda v: v >= 1, expect=">= 1"),
        "starts": Key((list,), default=[0.5, -0.5],
                      check=lambda v: _num_list(v, 1, positive=False), expect="list of means"),
        "tol": Key(_NUM, default=1e-8, check=_positive, expect="> 0"),
        "max_iter": Key((int,), default=60, check=lambda v: v >= 1, expect=">= 1"),
        "eps_grid": Key((list,), default=None, check=lambda v: _num_list(v, 2),
                        expect="list of >= 2 positive couplings"),
        "threshold": Key((bool,), default=True),
        "dim": Key((int,), default=1, check=lambda v: v in (1, 2), expect="1 or 2"),
        "radius": Key(_NUM, default=None, check=lambda v: v >= 4, expect=">= 4"),
        "n": Key((int,), default=None, check=_pow2, expect="power of two >= 16"),
        "seed": Key((int,), default=0, check=lambda v: v >= 0, expect=">= 0"),
    },
    "sweep": {
        "task": Key((str,), required=True, check=lambda v: v in ("stability", "meanfield"),
                    expect="stability or meanfield"),
        "axis": Key((list,), required=True, check=lambda v: _num_list(v, 3),
                    expect="list of >= 3 positive values"),
        "base": Key((dict,), required=True),
        "seed": Key((int,), default=0, check=lambda v: v >= 0, expect=">= 0"),
    },
}


def validate_command_config(command: str, obj: dict, path: str = "") -> tuple[dict, dict]:
    """Validate a config mapping for one CLI command and build what its run needs.

    Returns (cfg, built). cfg is the config with defaults filled in, the
    mapping that a run report digests. built holds the run's objects: the
    "field" of dini; "A", "b", the model "name" and the grid "spec" of solve
    and poisson, and for poisson also "psi" and its check "grids"; the pair
    family "make" and the "spec" of stability; the MeanFieldModel "model"
    and the "spec" of meanfield; and for a sweep its "points", one built per
    point. Nested sub-configs (fields, coefficient blocks) are validated
    recursively with their own schemas so error paths point at the
    offending key; `path` is the config's own place in an enclosing one (""
    at the root). A sweep's base is replaced by its points: points[i] is the
    validated run config of axis[i], the axis sorted.

    The poisson check radii default to the main grid's radius R and 2R. The
    first check grid (poisson.check_grids) has n_base = n cells per axis in
    1d and min(n, 128) in 2d, so with the default radii it is the main grid
    wherever n <= 128. A check grid that cannot be built is an error at
    `check_radii` for radii the config gives, and at `n` for the default
    ones, whose second grid needs 2 n_base cells per axis.
    """
    if command not in SCHEMAS:
        raise ValidationError(f"unknown command {command!r}", path=path)
    cfg = validate_mapping(obj, SCHEMAS[command], path)
    if command == "dini":
        cfg["field"] = validate_mapping(cfg["field"], _FIELD_SCHEMA, _join(path, "field"))
        cfg["radii"] = validate_mapping(cfg["radii"] or {}, _RADII_SCHEMA, _join(path, "radii"))
        if cfg["radii"]["max"] <= cfg["radii"]["min"]:
            raise ValidationError("radii.max must exceed radii.min", path=_join(path, "radii.max"))
        return cfg, {"field": field_from_config(cfg["field"], path=_join(path, "field"))}
    if command == "stability":
        make, b_sigma = pair_family_from_config(cfg)
        spec = grid_from_config(cfg, cfg["dim"], b_sigma.growth.beta2, path)
        _weight_in_range(spec, False, b_sigma.growth.beta, cfg["k"], "k", path)
        return cfg, {"make": make, "spec": spec}
    if command == "meanfield":
        dim = cfg["dim"]
        model = MeanFieldModel(DiffusionMatrixField.from_constant(np.eye(dim), 1.0),
                               linear_drift(dim, 1.0), eps=float(cfg["eps"]),
                               weight_order=cfg["weight_order"],
                               **kernel_from_name(cfg["kernel"], dim))
        spec = grid_from_config(cfg, dim, model.b0.growth.beta2, path)
        _weight_in_range(spec, True, 2.0 * model.kernel_growth + model.b0.growth.beta,
                         cfg["weight_order"], "weight_order", path)
        couplings = [("eps", cfg["eps"])] + [(f"eps_grid.{i}", e)
                                             for i, e in enumerate(cfg["eps_grid"] or ())]
        for key, eps in couplings:
            if not model.admits(eps):
                raise ValidationError(
                    f"coupling {eps:g} is at or above lambda / (2 sup|q|) = "
                    f"{model.a0.lam / (2.0 * model.diffusion_kernel.sup_bound):g} of kernel "
                    f"{cfg['kernel']!r}, where the kernel eats half the diffusion's ellipticity",
                    path=_join(path, key))
        for i, mean in enumerate(cfg["starts"]):
            if abs(float(mean)) > spec.radius:
                raise ValidationError(f"start mean {float(mean):g} lies outside the box "
                                      f"[-{spec.radius:g}, {spec.radius:g}]^{dim}",
                                      path=_join(path, f"starts.{i}"))
        return cfg, {"model": model, "spec": spec}
    if command == "sweep":
        axis_key = "deltas" if cfg["task"] == "stability" else "eps"
        base, at = cfg.pop("base"), _join(path, "base")
        if axis_key in base:
            raise ValidationError(f"base must not set {axis_key!r}; the sweep axis provides it",
                                  path=_join(at, axis_key))
        runs = []
        for i, v in enumerate(map(float, cfg["axis"])):
            # a per-point slope needs two sizes; pair each delta with its double
            value = [v, 2.0 * v] if axis_key == "deltas" else v
            try:
                runs.append((v, *validate_command_config(cfg["task"], {**base, axis_key: value},
                                                         at)))
            except ValidationError as exc:
                if exc.path != _join(at, axis_key):
                    raise
                raise ValidationError(str(exc), path=_join(path, f"axis.{i}")) from None
        runs.sort(key=lambda run: run[0])
        cfg["axis"] = [v for v, _, _ in runs]
        cfg["points"] = [point for _, point, _ in runs]
        return cfg, {"points": [built for _, _, built in runs]}
    # solve and poisson
    has_model = cfg.get("model") is not None
    if has_model == (cfg.get("coefficients") is not None):
        raise ValidationError("exactly one of 'model' or 'coefficients' must be given",
                              path=_join(path, "model"))
    if not has_model:
        at = _join(path, "coefficients")
        sub = validate_mapping(cfg["coefficients"], _COEFF_SCHEMA, at)
        sub["diffusion"] = validate_mapping(sub["diffusion"], _DIFFUSION_SCHEMA,
                                            _join(at, "diffusion"))
        sub["drift"] = validate_mapping(sub["drift"], _DRIFT_SCHEMA, _join(at, "drift"))
        cfg["coefficients"] = sub
    if command == "poisson":
        cfg["psi"] = validate_mapping(cfg["psi"], _FIELD_SCHEMA, _join(path, "psi"))
    A, b, dim, name = model_from_config(cfg, path)
    spec = grid_from_config(cfg, dim, b.growth.beta2, path)
    built = {"A": A, "b": b, "name": name, "spec": spec}
    if command == "solve":
        if not (spec.center_radii() <= 1.0).any():  # the unit-ball diagnostics need a cell
            raise ValidationError(
                f"no cell center lies in B(0, 1): n {spec.n} and radius {spec.radius:g} give "
                f"cells of width {spec.h:g}; raise n or set a smaller radius",
                path=_join(path, "n"))
        return cfg, built
    if cfg["p"] is not None and cfg["p"] <= dim:
        raise ValidationError(f"integrability exponent p must exceed d = {dim}, "
                              f"got {cfg['p']:g}", path=_join(path, "p"))
    radii = [float(r) for r in cfg["check_radii"] or [spec.radius, 2 * spec.radius]]
    n_base = spec.n if dim == 1 else min(spec.n, 128)
    try:
        grids = check_grids(dim, tuple(radii), n_base)
    except ValueError as exc:
        key = "check_radii" if cfg["check_radii"] else "n"
        raise ValidationError(f"check radii {radii} at the first one's cell width "
                              f"{2 * radii[0] / n_base:g} need a grid that cannot be built: {exc}",
                              path=_join(path, key)) from None
    psi = field_from_config(cfg["psi"], dim=dim, path=_join(path, "psi"))
    try:
        constant = np.ptp(psi.values(spec.cell_centers())) == 0.0
    except EvaluationError:  # a psi that is not finite on the grid fails in the run (exit 3)
        constant = False
    if constant:
        raise ValidationError("psi is constant on the grid, so the centered source is 0: "
                              "Psi = 0 and the quotients G/Psi are undefined",
                              path=_join(path, "psi"))
    return cfg, {**built, "psi": psi, "grids": grids}


def load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}", path="")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}", path="")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def field_from_config(cfg: dict, dim: int | None = None, path: str = "field") -> ScalarField:
    """Build a scalar field from a validated field sub-config, for a run of dimension `dim`.

    The field's dimension is the block's `dim`, else `dim`, else (for a
    named field) its `params.d`, else 1. A block `dim` other than `dim` is a
    ValidationError at `<path>.dim`. A `params.d` other than the field's
    dimension (or other than 1 or 2, when nothing else gives it) is one at
    `<path>.params`, as is any parameter the example catalog rejects. A name
    the catalog does not know is one at `<path>.name`.
    """
    if dim is not None and cfg.get("dim") not in (None, dim):
        raise ValidationError(f"field dimension {cfg['dim']} differs from the run's dimension {dim}",
                              path=_join(path, "dim"))
    d = cfg.get("dim") or dim
    given = [k for k in ("name", "expression", "constant") if cfg.get(k) is not None]
    if len(given) != 1:
        raise ValidationError(
            f"exactly one of 'name', 'expression', 'constant' must be set at {path}", path=path)
    if cfg.get("name") is not None:
        params = dict(cfg.get("params") or {})
        dims = (d,) if d else (1, 2)
        if params.setdefault("d", dims[0]) not in dims:
            raise ValidationError(f"parameter 'd' must be the field's dimension, "
                                  f"{' or '.join(map(str, dims))}, got {params['d']!r}",
                                  path=_join(path, "params"))
        try:
            return make_example_field(cfg["name"], **params)
        except ValueError as exc:
            key = "params" if cfg["name"] in _EXAMPLE_PARAMS else "name"
            raise ValidationError(str(exc), path=_join(path, key)) from None
    if cfg.get("expression") is not None:
        return _expression_field(cfg["expression"], d or 1, _join(path, "expression"))
    return ConstantField(float(cfg["constant"]), d or 1)


def _expression_field(expr: str, dim: int, path: str) -> ExpressionField:
    """ExpressionField(expr, dim), or a ValidationError at path when expr does not
    parse or leaves the expression grammar."""
    try:
        return ExpressionField(expr, dim)
    except SyntaxError as exc:
        raise ValidationError(f"expression {expr!r} does not parse: {exc.msg}",
                              path=path) from None
    except ValueError as exc:
        raise ValidationError(str(exc), path=path) from None


def coefficients_from_config(cfg: dict, path: str = "coefficients"
                             ) -> tuple[DiffusionMatrixField | ScalarField, DriftField, int]:
    """Build (A, b, dim) from a validated coefficients block at `path`.

    A is a I with the block's 'lam', else the scalar field a, whose lambda is
    set on the cells of each grid it is solved on (fpk._diffusion_matrix).
    """
    d = cfg["dim"]
    dc = cfg["diffusion"]
    a_field = field_from_config(dc, dim=d, path=_join(path, "diffusion"))
    lam = dc.get("lam")
    A = a_field if lam is None else DiffusionMatrixField.isotropic(a_field, float(lam))
    drc = cfg["drift"]
    exprs = drc["expressions"]
    if len(exprs) != d:
        raise ValidationError(f"drift needs {d} expressions, got {len(exprs)}",
                              path=_join(path, "drift.expressions"))
    comps = [_expression_field(e, d, _join(path, f"drift.expressions.{i}"))
             for i, e in enumerate(exprs)]
    growth = GrowthParams(beta=float(drc["beta"]), beta1=float(drc["beta1"]),
                          beta2=float(drc["beta2"]), beta3=float(drc["beta3"]))
    return A, DriftField(comps, growth), d


def model_from_config(cfg: dict, path: str = "") -> tuple[DiffusionMatrixField | ScalarField,
                                                          DriftField, int, str]:
    """Resolve the model/coefficients choice of the config at `path` to (A, b, dim, name)."""
    if cfg.get("model") is not None:
        catalog = {m.name: m for m in builtin_models()}
        name = cfg["model"]
        if name not in catalog:
            raise ValidationError(f"unknown model {name!r} (built-ins: "
                                  f"{', '.join(sorted(catalog))})", path=_join(path, "model"))
        m = catalog[name]
        return m.A, m.b, m.dim, m.name
    A, b, d = coefficients_from_config(cfg["coefficients"], _join(path, "coefficients"))
    return A, b, d, "custom"


def grid_from_config(cfg: dict, dim: int, beta2: float, path: str = "") -> GridSpec:
    """GridSpec with radius defaulting to default_radius(beta2) of the run's drift (8 at beta2 = 1).

    A grid of more than MAX_CELLS cells is a ValidationError at `<path>.n`.
    """
    radius = cfg.get("radius") or default_radius(beta2)  # a given radius is >= 4
    n = cfg.get("n") or (1024 if dim == 1 else 128)  # a given n is >= 16
    if n ** dim > MAX_CELLS:
        raise ValidationError(f"a grid of {n}^{dim} cells exceeds the budget of "
                              f"{MAX_CELLS} cells", path=_join(path, "n"))
    return GridSpec(dim, float(radius), int(n))


def _weight_in_range(spec: GridSpec, shifted: bool, order: float, k: float, key: str,
                     path: str) -> None:
    """A ValidationError at `<path>.<key>` when the run's weight passes the float range at the
    farthest cell of its grid: 1 + |x|^(order + k), or (1 + |x|)^(order + k) when `shifted`.
    A weight that overflows turns the weighted integrals into inf * 0 = nan."""
    r = float(spec.center_radii().max())
    base = 1.0 + r if shifted else r
    if base > 1.0 and (order + k) * math.log(base) > math.log(sys.float_info.max):
        weight = "(1 + |x|)^" if shifted else "1 + |x|^"
        raise ValidationError(f"{key} {k:g} makes the weight {weight}({order:g} + {key}) "
                              f"overflow at the farthest cell |x| = {r:.6g} of the grid",
                              path=_join(path, key))


def kernel_from_name(name: str, dim: int) -> dict:
    """Interaction kernels the CLI knows by name."""
    if name == "tanh":
        return {"drift_kernel": InteractionKernel("drift", np.tanh, dim, sup_bound=1.0,
                                                  depends_on_x=False, name="tanh")}
    if name == "tanh-relative":
        return {"drift_kernel": InteractionKernel("drift", None, dim, sup_bound=1.0,
                                                  profile=np.tanh, name="tanh-relative")}
    if name == "gaussian-diffusion":
        def gq(y):
            g = np.exp(-np.sum(y * y, axis=1))
            return g[:, None, None] * np.eye(dim)[None, :, :]
        return {"diffusion_kernel": InteractionKernel("diffusion", gq, dim, sup_bound=1.0,
                                                      depends_on_x=False,
                                                      name="gaussian-diffusion")}
    raise ValidationError(f"unknown kernel {name!r}", path="kernel")


def pair_family_from_config(cfg: dict) -> tuple[Callable[[float], CoefficientPair],
                                                DriftField]:
    """(delta -> CoefficientPair of a stability config's family, sigma's drift -x shared
    by every pair)."""
    dim = cfg["dim"]
    eye = np.eye(dim)
    A1 = DiffusionMatrixField.from_constant(eye, 1.0)
    b1 = linear_drift(dim, 1.0)
    if cfg["family"] == "drift-linear":
        def make(delta: float) -> CoefficientPair:
            return CoefficientPair(A1, linear_drift(dim, 1.0 + delta), A1, b1)
    else:
        def make(delta: float) -> CoefficientPair:
            Am = DiffusionMatrixField.from_constant(eye * (1.0 + delta),
                                                    lam=min(1.0, 1.0 / (1.0 + delta)))
            return CoefficientPair(Am, linear_drift(dim, 1.0), A1, b1)
    return make, b1
