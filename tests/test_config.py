"""Schema validation and object construction for CLI configs."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fpkit
from fpkit.cli import main
from fpkit.config import (
    SCHEMAS,
    coefficients_from_config,
    grid_from_config,
    kernel_from_name,
    load_config_file,
    model_from_config,
    validate_command_config,
)
from fpkit.errors import EllipticityError, ValidationError
from fpkit.fields import ScalarField
from fpkit.fpk import _diffusion_matrix, stationary_density
from fpkit.grids import GridSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def dini_cfg(**over):
    cfg = {"field": {"name": "weierstrass-holder"}}
    cfg.update(over)
    return cfg


def coeff_block(dim=1, expressions=("-x1",), diffusion=None):
    return {
        "dim": dim,
        "diffusion": diffusion or {"constant": 1.0},
        "drift": {"expressions": list(expressions),
                  "beta1": 1.0, "beta2": 1.0, "beta3": 1.0},
    }


class TestValidateMapping:
    def test_unknown_key_names_itself_and_the_alternatives(self):
        with pytest.raises(ValidationError, match="unknown key 'betaa2'") as exc:
            validate_command_config("solve", {"model": "ou-1d", "betaa2": 1.0})
        assert "known keys:" in str(exc.value)
        assert "radius" in str(exc.value)
        assert exc.value.path == "betaa2"

    def test_unknown_key_in_nested_block_reports_full_path(self):
        cfg = {"coefficients": coeff_block()}
        cfg["coefficients"]["drift"]["betaa2"] = 5
        with pytest.raises(ValidationError) as exc:
            validate_command_config("solve", cfg)
        assert exc.value.path == "coefficients.drift.betaa2"
        assert "beta2" in str(exc.value)

    def test_int_accepted_where_float_expected(self):
        out, _ = validate_command_config("solve", {"model": "ou-1d", "radius": 8})
        assert out["radius"] == 8

    def test_bool_never_satisfies_a_numeric_range(self):
        # bool is an int subclass; the range check still rejects it
        with pytest.raises(ValidationError, match="range check"):
            validate_command_config("solve", {"model": "ou-1d", "radius": True})

    def test_wrong_type_is_reported_with_both_types(self):
        with pytest.raises(ValidationError, match="has type str") as exc:
            validate_command_config("solve", {"model": "ou-1d", "radius": "big"})
        assert exc.value.path == "radius"

    def test_missing_required_key(self):
        with pytest.raises(ValidationError, match="missing required key 'eps'"):
            validate_command_config("meanfield", {})

    def test_range_check_message_carries_the_expectation(self):
        with pytest.raises(ValidationError, match="power of two >= 16"):
            validate_command_config("solve", {"model": "ou-1d", "n": 100})

    def test_unknown_command_rejected(self):
        with pytest.raises(ValidationError, match="unknown command"):
            validate_command_config("solvee", {})


class TestCommandRules:
    @pytest.mark.parametrize("command", ["solve", "poisson"])
    def test_model_and_coefficients_are_mutually_exclusive(self, command):
        base = {"psi": {"expression": "x1"}} if command == "poisson" else {}
        with pytest.raises(ValidationError, match="exactly one of 'model' or 'coefficients'"):
            validate_command_config(command, {**base, "model": "ou-1d",
                                              "coefficients": coeff_block()})
        with pytest.raises(ValidationError, match="exactly one of 'model' or 'coefficients'"):
            validate_command_config(command, dict(base))

    def test_solve_defaults_fill_in(self):
        out, _ = validate_command_config("solve", {"model": "ou-1d"})
        # stationary_density picks the solver and --strict sets strictness
        assert not {"method", "strict"} & set(out)
        assert out["weight_order"] == 1.0
        assert out["seed"] == 0
        assert out["n"] is None

    def test_poisson_check_radii_default_doubles_the_radius(self, tmp_path):
        # the runner's one default, [R, 2R], also where the config sets R
        cfg_path = tmp_path / "poisson.json"
        cfg_path.write_text(json.dumps({"model": "ou-1d", "psi": {"expression": "x1"},
                                        "radius": 8, "n": 256}))
        assert main(["poisson", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["8", "16"]

    def test_dini_radii_must_be_ordered(self):
        with pytest.raises(ValidationError, match="radii.max must exceed radii.min") as exc:
            validate_command_config("dini", dini_cfg(radii={"min": 0.2, "max": 0.1}))
        assert exc.value.path == "radii.max"

    def test_dini_radii_defaults(self):
        out, _ = validate_command_config("dini", dini_cfg())
        assert out["radii"]["min"] == pytest.approx(1e-3)
        assert out["radii"]["max"] == pytest.approx(0.4)
        assert out["radii"]["count"] == 12

    def test_stability_family_is_constrained(self):
        with pytest.raises(ValidationError, match="drift-linear or diffusion-constant"):
            validate_command_config("stability", {"family": "drift-cubic"})


class TestSweepValidation:
    def test_base_must_not_set_the_axis_key(self):
        cfg = {"task": "stability", "axis": [0.01, 0.02, 0.04],
               "base": {"family": "drift-linear", "deltas": [0.01, 0.02]}}
        with pytest.raises(ValidationError, match="base must not set 'deltas'") as exc:
            validate_command_config("sweep", cfg)
        assert exc.value.path == "base.deltas"

    @pytest.mark.parametrize("task,axis_key", [("stability", "deltas"), ("meanfield", "eps")])
    def test_axis_key_follows_the_task(self, task, axis_key):
        base = {"family": "drift-linear"} if task == "stability" else {}
        out, _ = validate_command_config("sweep",
                                         {"task": task, "axis": [0.04, 0.01, 0.02], "base": base})
        # each point is the task's run at one axis value, the points in value order
        assert out["axis"] == [0.01, 0.02, 0.04]
        assert [point[axis_key] for point in out["points"]] == \
            ([[v, 2 * v] for v in out["axis"]] if task == "stability" else out["axis"])

    def test_base_is_validated_under_the_task_schema(self):
        out, _ = validate_command_config("sweep",
                                         {"task": "meanfield", "axis": [0.01, 0.02, 0.04],
                                          "base": {}})
        # defaults of the meanfield schema appear in every point
        for point in out["points"]:
            assert point["kernel"] == "tanh"
            assert point["max_iter"] == 60

    def test_base_errors_keep_their_own_path(self):
        cfg = {"task": "meanfield", "axis": [0.01, 0.02, 0.04], "base": {"kernel": "box"}}
        with pytest.raises(ValidationError, match="tanh, tanh-relative, or gaussian-diffusion") \
                as exc:
            validate_command_config("sweep", cfg)
        assert exc.value.path == "base.kernel"

    def test_point_schema_messages_name_the_base(self):
        # regression: a point was validated as a config of its own, so the message said
        # "at <root>" while the path said base.family
        cfg = {"task": "stability", "axis": [0.1, 0.01, 0.03], "base": {"n": 256}}
        with pytest.raises(ValidationError) as exc:
            validate_command_config("sweep", cfg)
        assert str(exc.value) == "missing required key 'family' at base"
        assert exc.value.path == "base.family"

    def test_the_first_bad_axis_value_as_given_is_named(self):
        # 1.5 comes before 1.2 in the axis, after it in value order
        cfg = {"task": "meanfield", "axis": [0.1, 1.5, 1.2], "base": {}}
        with pytest.raises(ValidationError, match="in \\[0, 1\\]") as exc:
            validate_command_config("sweep", cfg)
        assert exc.value.path == "axis.1"

    @pytest.mark.parametrize("axis", [[0.01], [0.01, 0.02], [0.01, -0.02, 0.04]],
                             ids=["one", "two", "negative"])
    def test_axis_needs_three_positive_values(self, axis):
        with pytest.raises(ValidationError, match="list of >= 3 positive values"):
            validate_command_config("sweep", {"task": "stability", "axis": axis,
                                              "base": {"family": "drift-linear"}})

    def test_axis_must_be_a_list_at_all(self):
        with pytest.raises(ValidationError, match="has type str, expected list"):
            validate_command_config("sweep", {"task": "stability", "axis": "abc",
                                              "base": {"family": "drift-linear"}})


class TestLoadConfigFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="config file not found"):
            load_config_file(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_config_file(str(p))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps({"model": "ou-1d", "n": 256}))
        assert load_config_file(str(p)) == {"model": "ou-1d", "n": 256}


class TestFieldBuilder:
    def test_exactly_one_source_two_given(self):
        with pytest.raises(ValidationError, match="exactly one of 'name', 'expression'"):
            validate_command_config("dini", dini_cfg(field={"name": "constant", "constant": 2.0}))

    def test_exactly_one_source_none_given(self):
        with pytest.raises(ValidationError, match="exactly one"):
            validate_command_config("dini", dini_cfg(field={"params": {"alpha": 0.5}}))

    def test_expression_field_evaluates(self):
        _, built = validate_command_config("dini", dini_cfg(field={"expression": "1 + x1**2"}))
        f = built["field"]
        x = np.array([[0.0], [2.0]])
        assert f.values(x) == pytest.approx([1.0, 5.0])

    def test_constant_field(self):
        _, built = validate_command_config("dini", dini_cfg(field={"constant": 3, "dim": 2}))
        f = built["field"]
        assert f.dim == 2
        assert f.values(np.zeros((1, 2))) == pytest.approx([3.0])

    def test_unknown_example_name_lists_the_catalog(self):
        with pytest.raises(ValidationError, match="known: .*weierstrass-holder") as exc:
            validate_command_config("dini", dini_cfg(field={"name": "weierstrass"}))
        assert exc.value.path == "field.name"


class TestCoefficientBuilder:
    def test_drift_expression_count_must_match_dim(self):
        with pytest.raises(ValidationError, match="drift needs 2 expressions, got 1") as exc:
            validate_command_config("solve", {"coefficients": coeff_block(dim=2)})
        assert exc.value.path == "coefficients.drift.expressions"

    def test_scalar_diffusion_without_lam(self):
        # lambda is set on the cells of the grid being solved, not on a fixed box
        block = coeff_block(dim=2, expressions=("-x1", "-x2"),
                            diffusion={"expression": "1 + 0.1*r"})
        cfg, _ = validate_command_config("solve", {"coefficients": block})
        A, b, dim = coefficients_from_config(cfg["coefficients"])
        assert isinstance(A, ScalarField) and dim == 2
        # min(1, min a, 1/max a) over the cells; a is largest at the corner cells
        corner = 1.0 + 0.1 * 7.75 * np.sqrt(2.0)
        assert _diffusion_matrix(A, GridSpec(2, 8.0, 32)).lam == pytest.approx(1.0 / corner)
        cfg["coefficients"]["diffusion"]["lam"] = 0.25
        A, _, _ = coefficients_from_config(cfg["coefficients"])
        assert A.lam == 0.25

    def test_sign_indefinite_diffusion_is_refused_by_the_solve(self):
        block = coeff_block(dim=2, expressions=("-x1", "-x2"), diffusion={"expression": "x1"})
        cfg, _ = validate_command_config("solve", {"coefficients": block})
        A, b, _ = coefficients_from_config(cfg["coefficients"])
        with pytest.raises(EllipticityError, match=r"nonpositive at x=\(-7.75, -7.75\)"):
            stationary_density(A, b, GridSpec(2, 8.0, 32))

    def test_growth_parameters_are_carried_over(self):
        block = coeff_block()
        block["drift"].update({"beta": 3.0, "beta1": 2.0, "beta2": 0.5, "beta3": 4.0})
        cfg, _ = validate_command_config("solve", {"coefficients": block})
        _, b, _ = coefficients_from_config(cfg["coefficients"])
        g = b.growth
        assert (g.beta, g.beta1, g.beta2, g.beta3) == (3.0, 2.0, 0.5, 4.0)


class TestModelResolution:
    def test_unknown_model_lists_builtins(self):
        with pytest.raises(ValidationError, match="built-ins: .*ou-1d.*ou-2d"):
            validate_command_config("solve", {"model": "ou-3d"})

    def test_builtin_keeps_its_name(self):
        cfg, _ = validate_command_config("solve", {"model": "anisotropic-2d"})
        A, b, dim, name = model_from_config(cfg)
        assert (dim, name) == (2, "anisotropic-2d")

    def test_custom_coefficients_are_labelled_custom(self):
        cfg, _ = validate_command_config("solve", {"coefficients": coeff_block()})
        *_, name = model_from_config(cfg)
        assert name == "custom"


class TestGridDefaults:
    def test_resolution_defaults_by_dimension(self):
        cfg, _ = validate_command_config("solve", {"model": "ou-1d"})
        assert grid_from_config(cfg, 1, 1.0).n == 1024
        assert grid_from_config(cfg, 2, 1.0).n == 128

    def test_radius_defaults_from_the_confinement_constant(self):
        cfg, _ = validate_command_config("solve", {"model": "ou-1d"})
        assert grid_from_config(cfg, 1, 1.0).radius == pytest.approx(8.0)
        assert grid_from_config(cfg, 1, 0.5).radius == pytest.approx(8.0 / np.sqrt(0.5))
        assert grid_from_config(cfg, 1, 100.0).radius == pytest.approx(4.0)

    def test_explicit_values_win(self):
        cfg, _ = validate_command_config("solve", {"model": "ou-1d", "radius": 12, "n": 64})
        spec = grid_from_config(cfg, 1, 1.0)
        assert (spec.radius, spec.n) == (12.0, 64)


class TestKernelCatalog:
    @pytest.mark.parametrize("name,slot,depends", [
        ("tanh", "drift_kernel", False),
        ("tanh-relative", "drift_kernel", True),
        ("gaussian-diffusion", "diffusion_kernel", False),
    ])
    def test_catalog_entries(self, name, slot, depends):
        out = kernel_from_name(name, 1)
        assert set(out) == {slot}
        ker = out[slot]
        assert ker.name == name
        assert ker.depends_on_x is depends

    def test_unknown_kernel(self):
        with pytest.raises(ValidationError, match="unknown kernel 'box'"):
            kernel_from_name("box", 1)


class TestReadmeConfigs:
    """Every JSON config in README.md validates under the command it documents."""

    @staticmethod
    def documented_configs() -> list[tuple[str, dict]]:
        # a ```json block documents the last `fpkit <command>` named before it
        text = README.read_text()
        out = []
        for block in re.finditer(r"```json\n(.*?)```", text, re.S):
            commands = re.findall(r"`fpkit (\w+)", text[:block.start()])
            assert commands, f"no `fpkit <command>` before README config {block.group(1)!r}"
            out.append((commands[-1], json.loads(block.group(1))))
        return out

    def test_every_command_is_documented(self):
        assert {command for command, _ in self.documented_configs()} == set(SCHEMAS)

    def test_documented_configs_validate(self):
        for command, cfg in self.documented_configs():
            validate_command_config(command, cfg)


class TestReadmeExamples:
    """Every python block of README.md runs in a fresh interpreter."""

    def test_python_blocks_run(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for code in blocks:
            # run from the directory that holds the imported package, so the
            # child imports this fpkit with or without PYTHONPATH
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  cwd=Path(fpkit.__file__).resolve().parent.parent)
            assert proc.returncode == 0, f"{code}\n{proc.stderr}"
