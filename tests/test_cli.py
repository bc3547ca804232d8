"""End-to-end runs of the command line interface.

Every test drives ``fpkit.cli.main`` in process with a JSON config written
to a temp directory, then inspects exit codes, stderr lines, and the
run_report.json manifest.
"""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import fpkit
from fpkit import __version__, cli, config, fpk, poisson, stability
from fpkit.cli import CLIP_MASS_LIMIT, build_parser, main, write_csv
from fpkit.config import grid_from_config, validate_command_config
from fpkit.fields import ClosureField, DiffusionMatrixField, ExpressionField, linear_drift
from fpkit.fpk import solve_grid
from fpkit.grids import GridSpec
from fpkit.poisson import verify_growth_bounds
from fpkit.stability import CoefficientPair, _measure

REPORT_KEYS = {"command", "version", "config_digest", "seed", "checks", "passed", "outcome",
               "wall_time_s", "artifacts", "summary", "warnings"}

SMALL_CONFIGS = {
    "dini": {"field": {"name": "weierstrass-holder"}, "box_radius": 1.0, "n_centers": 8},
    "solve": {"model": "ou-1d", "n": 256},
    "poisson": {"model": "ou-1d", "psi": {"expression": "x1"}, "n": 256, "radius": 8},
    "stability": {"family": "drift-linear", "deltas": [0.01, 0.03, 0.1], "n": 256},
    "meanfield": {"eps": 0.05, "n": 256, "eps_grid": [0.01, 0.05, 0.1]},
    "sweep": {"task": "meanfield", "axis": [0.02, 0.05, 0.08],
              "base": {"n": 256, "threshold": False}},
}

# a 2d bistable drift on a = 0.05: wells at x1 = -+1, pushing away from
# x1 = 0 at cell Peclet numbers up to 3.9 (R = 8, n = 64)
BISTABLE = {"coefficients": {"dim": 2, "diffusion": {"constant": 0.05},
                             "drift": {"expressions": ["4*(x1 - x1**3)", "-x2"], "beta": 3.0,
                                       "beta1": 1.0, "beta2": 1.0, "beta3": 10.0}},
            "n": 64, "radius": 8}

# the README 1d configs, each [command, config, *flags], as the cli-1d
# benchmark workload runs them
CLI_1D_RUNS = [
    ["dini", {"field": {"name": "weierstrass-holder"}, "box_radius": 1.0, "n_centers": 24}],
    ["solve", {"model": "ou-1d", "n": 1024}],
    ["poisson", {"model": "ou-1d", "psi": {"expression": "x1"}, "k": 1.0}],
    ["stability", {"family": "drift-linear", "deltas": [0.001, 0.003, 0.01, 0.03, 0.1]}],
    ["meanfield", {"eps": 0.05, "kernel": "tanh", "starts": [0.5, -0.5],
                   "eps_grid": [0.01, 0.05, 0.1]}],
    ["sweep", {"task": "stability", "axis": [0.01, 0.03, 0.1],
               "base": {"family": "drift-linear"}}, "--workers", "2"],
]

# A fresh interpreter imports fpkit and fpkit.cli, then runs cli.main on each
# [command, config, *flags] of argv[1] with outputs under argv[2] (run_fresh)
FRESH_RUNS = '''
import contextlib, io, json, os, sys
import fpkit, fpkit.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(json.dumps(loaded()))
for i, (command, cfg, *flags) in enumerate(json.loads(sys.argv[1])):
    path = os.path.join(sys.argv[2], f"cfg{i}.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    argv = [command, "--config", path, "--out", os.path.join(sys.argv[2], f"out{i}"), *flags]
    with contextlib.redirect_stdout(io.StringIO()):
        code = fpkit.cli.main(argv)
    print(json.dumps([command, code, loaded()]))
'''


def run_fresh(workdir, runs):
    """Scipy modules loaded in a fresh interpreter after import, then after each of runs.

    Returns the loaded list after `import fpkit, fpkit.cli`, then
    [command, exit code, loaded] per run; outputs go to workdir/out<i>.
    """
    src = str(Path(fpkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", FRESH_RUNS, json.dumps(runs), str(workdir)],
                          capture_output=True, text=True, cwd=workdir, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


EXPECTED_ARTIFACTS = {
    "dini": {"dini_verdict.json", "omega.csv", "omega.svg"},
    "solve": {"density.csv", "density.svg", "moments.csv"},
    "poisson": {"bounds.csv", "solution.csv", "solution.svg"},
    "stability": {"sweep.csv", "sweep.svg"},
    "meanfield": {"trace.csv", "response.csv", "gaps.svg"},
    "sweep": {"summary.csv", "point-000/run_report.json", "point-001/run_report.json",
              "point-002/run_report.json"},
}


def assert_error_report(report, error_class):
    """A numerical failure writes run_report.json with outcome "error" and the error."""
    assert report is not None
    assert set(report) == REPORT_KEYS | {"error"}
    assert report["passed"] is False
    assert report["outcome"] == "error"
    assert report["error"]["class"] == error_class
    assert report["error"]["message"]


def reject_constant(name):
    raise ValueError(f"report is not strict JSON: {name}")


def run_cli(tmp_path, command, cfg, *flags, out="out"):
    """(exit code, run_report.json parsed as strict JSON or None, output directory)."""
    cfg_path = tmp_path / f"{out}.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / out
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir), *flags])
    report = None
    report_path = out_dir / "run_report.json"
    if report_path.exists():
        report = json.loads(report_path.read_text(), parse_constant=reject_constant)
    return code, report, out_dir


class TestSmokeRuns:
    @pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
    def test_command_passes_and_reports(self, tmp_path, command, capsys):
        code, report, out_dir = run_cli(tmp_path, command, SMALL_CONFIGS[command])
        assert code == 0
        assert set(report) == REPORT_KEYS
        assert report["command"] == command
        assert report["version"] == __version__
        assert report["passed"] is True
        assert report["outcome"] == "pass"
        assert report["checks"] and all(report["checks"].values())
        assert report["wall_time_s"] >= 0.0
        assert report["warnings"] == []
        line = capsys.readouterr().out
        assert f"{command}: pass (" in line
        assert str(out_dir) in line

    @pytest.mark.parametrize("command", sorted(EXPECTED_ARTIFACTS))
    def test_manifest_lists_exactly_the_written_files(self, tmp_path, command):
        _, report, out_dir = run_cli(tmp_path, command, SMALL_CONFIGS[command])
        assert set(report["artifacts"]) == EXPECTED_ARTIFACTS[command]
        for rel in report["artifacts"]:
            assert (out_dir / rel).is_file()

    def test_meanfield_relative_kernel_in_two_dimensions(self, tmp_path):
        # the default 2d grid, n = 128, where the offset is an FFT correlation
        cfg = {"eps": 0.05, "kernel": "tanh-relative", "dim": 2}
        code, report, _ = run_cli(tmp_path, "meanfield", cfg)
        assert code == 0
        assert report["checks"]["converged"] and report["checks"]["fixed_points_agree"]
        assert report["summary"]["kernel"] == "tanh-relative"

    def test_csv_headers_are_declared(self, tmp_path):
        _, _, out_dir = run_cli(tmp_path, "meanfield", SMALL_CONFIGS["meanfield"])
        assert (out_dir / "trace.csv").read_text().splitlines()[0] == \
            "start,iteration,gap,contraction_factor"
        assert (out_dir / "response.csv").read_text().splitlines()[0] == "eps,factor"

    def test_dini_verdict_record(self, tmp_path):
        _, _, out_dir = run_cli(tmp_path, "dini", SMALL_CONFIGS["dini"])
        verdict = json.loads((out_dir / "dini_verdict.json").read_text())
        assert verdict["field"].startswith("weierstrass-holder")
        assert verdict["finite"] is True


# fpkit dini on the README config (dim 1) and on the same config with "dim": 2:
# omega at 12 significant digits, as omega.csv writes it, and the verdict's
# value, tail_exponent and sampled_part as float hex
DINI_PINS = {
    1: (["0.00838803647597", "0.00981053160127", "0.0143378776215", "0.0147441384324",
         "0.0259709644257", "0.0315562389768", "0.0458225672778", "0.0596250208853",
         "0.0717210914555", "0.0893774937921", "0.11019096323", "0.151121781494"],
        {"value": "0x1.5395e8eb2316ep-2", "tail_exponent": "0x1.6b1f96aab730cp+1",
         "sampled_part": "0x1.3463152ee0f01p-2"}),
    2: (["0.00865570694274", "0.0110561044392", "0.0131471303478", "0.0179447557404",
         "0.021580949414", "0.0368314331244", "0.0457238608967", "0.0555948069909",
         "0.060817715602", "0.0983378293223", "0.119848434356", "0.14545477665"],
        {"value": "0x1.4c0d063fce3edp-2", "tail_exponent": "0x1.b2904d800c595p-2",
         "sampled_part": "0x1.3730c85f9a942p-2"}),
}


class TestDiniOutputs:
    @pytest.mark.parametrize("dim", sorted(DINI_PINS))
    def test_readme_dini_outputs_are_pinned(self, tmp_path, dim):
        omega, verdict_hex = DINI_PINS[dim]
        field = {"name": "weierstrass-holder", **({"dim": dim} if dim == 2 else {})}
        code, _, out_dir = run_cli(tmp_path, "dini", dict(CLI_1D_RUNS[0][1], field=field))
        assert code == 0
        rows = (out_dir / "omega.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == omega
        verdict = json.loads((out_dir / "dini_verdict.json").read_text())
        assert verdict["finite"] is True
        for key, pinned in verdict_hex.items():
            assert verdict[key] == pytest.approx(float.fromhex(pinned), rel=1e-12, abs=0.0)

    def test_report_checks_only_the_modulus_sign(self, tmp_path):
        _, report, _ = run_cli(tmp_path, "dini", SMALL_CONFIGS["dini"])
        assert report["checks"] == {"omega_nonnegative": True}


class TestValidationExits:
    @pytest.mark.parametrize("params, message", [
        ({"alpah": 0.3}, "unknown parameter(s) 'alpah' for example field 'weierstrass-holder'; "
                         "known: d, alpha, lam, terms"),
        ({"terms": 0}, "terms must be an integer >= 1, got 0"),
        ({"terms": 2.7}, "terms must be an integer >= 1, got 2.7"),
    ], ids=["unknown-key", "terms-0", "terms-2.7"])
    def test_bad_example_field_parameter_exits_two(self, tmp_path, capsys, params, message):
        # regression: an unknown key ran with the default, terms 0 exited 3 on a 0/0
        # field and terms 2.7 ran with 2 terms
        cfg = {"field": {"name": "weierstrass-holder", "params": params}}
        code, report, _ = run_cli(tmp_path, "dini", cfg)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == f"config error: {message} [at field.params]\n"

    @pytest.mark.parametrize("command, cfg, path", [
        ("dini", {"field": {"name": "ou-drift"}}, "field.name"),
        ("solve", {"coefficients": {"dim": 1, "diffusion": {"name": "ou-drift"},
                                    "drift": {"expressions": ["-x1"], "beta1": 1.0,
                                              "beta2": 1.0, "beta3": 1.0}}},
         "coefficients.diffusion.name"),
        ("poisson", {"model": "ou-1d", "psi": {"name": "polynomial-confining-drift"}},
         "psi.name"),
        ("dini", {"field": {"name": "log-modulus", "params": {"gamma": [0.5]}}}, "field.params"),
        ("dini", {"field": {"name": "weierstrass-holder", "params": {"lam": None}}},
         "field.params"),
    ], ids=["drift-as-field", "drift-as-diffusion", "drift-as-psi", "list-param", "null-param"])
    def test_bad_example_field_exits_two_at_its_path(self, tmp_path, capsys, command, cfg, path):
        # regression: the drifts were catalog entries that no field block can use, and a
        # parameter that is not a number reached float(); these exited 1 with a traceback,
        # or 2 with a matmul message naming no key
        code, report, _ = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err.endswith(f" [at {path}]\n")

    @pytest.mark.parametrize("command, cfg, path", [
        ("solve", {"coefficients": {"dim": 1, "diffusion": {"name": "constant", "params": {"d": 2}},
                                    "drift": {"expressions": ["-x1"], "beta1": 1.0,
                                              "beta2": 1.0, "beta3": 1.0}}},
         "coefficients.diffusion.params"),
        ("poisson", {"model": "ou-1d", "psi": {"name": "constant", "dim": 2}}, "psi.dim"),
        ("dini", {"field": {"name": "weierstrass-holder", "params": {"d": 1.5}}}, "field.params"),
    ], ids=["2d-diffusion-in-1d", "2d-psi-on-ou-1d", "fractional-d"])
    def test_field_block_of_the_wrong_dimension_exits_two_at_its_path(self, tmp_path, capsys,
                                                                     command, cfg, path):
        # regression: the field was built as given and failed later naming no key
        # ("expected shape (m, 2)", "dimensions must match"), and d 1.5 ran as d = 1
        code, report, _ = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(f" [at {path}]\n")

    @pytest.mark.parametrize("command, cfg, path", [
        ("solve", {"model": "ou-2d", "n": 2048}, "n"),
        ("solve", {"model": "ou-1d", "n": 2 ** 21}, "n"),
        ("meanfield", {"eps": 0.05, "dim": 2, "n": 2048}, "n"),
        ("poisson", {"model": "ou-2d", "psi": {"expression": "x1"}, "p": 1.5}, "p"),
        ("poisson", {"model": "ou-1d", "psi": {"expression": "x1"}, "p": 0.5}, "p"),
        ("sweep", {"task": "stability", "axis": [0.01, 0.02, 0.04],
                   "base": {"family": "drift-linear", "dim": 2, "n": 2048}}, "base.n"),
    ], ids=["solve-2d", "solve-1d", "meanfield-2d", "poisson-p-2d", "poisson-p-1d", "sweep"])
    def test_grid_budget_and_p_exit_two_before_any_output(self, tmp_path, capsys, command, cfg,
                                                           path):
        # regression: these exited 2 as "invalid parameter" naming no key, and the
        # sweep wrote three failed points before it did
        code, _, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith(f" [at {path}]\n")

    @pytest.mark.parametrize("command, cfg, path", [
        ("stability", {"family": "diffusion-constant", "k": 1e300}, "k"),
        ("meanfield", {"eps": 0.05, "weight_order": 1e300}, "weight_order"),
        ("sweep", {"task": "stability", "axis": [0.01, 0.02, 0.04],
                   "base": {"family": "drift-linear", "k": 400}}, "base.k"),
    ], ids=["stability", "meanfield", "sweep"])
    def test_weight_that_overflows_on_the_grid_exits_two_before_any_output(
            self, tmp_path, capsys, command, cfg, path):
        # regression: the stability run exited 2 with "cannot convert float NaN to
        # integer" after numpy overflow warnings, and the meanfield run took 60
        # Picard steps of NaN gaps and failed with "contraction too slow: gap nan"
        code, report, out_dir = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert report is None
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "overflow at the farthest cell" in err
        assert err.endswith(f" [at {path}]\n")

    @pytest.mark.parametrize("command, cfg, path", [
        ("solve", {"coefficients": {"dim": 1, "diffusion": {"expression": "x1**"},
                                    "drift": {"expressions": ["-x1"], "beta1": 1.0,
                                              "beta2": 1.0, "beta3": 1.0}}},
         "coefficients.diffusion.expression"),
        ("solve", {"coefficients": {"dim": 2, "diffusion": {"constant": 1.0},
                                    "drift": {"expressions": ["-x1", "-(x2"], "beta1": 1.0,
                                              "beta2": 1.0, "beta3": 1.0}}},
         "coefficients.drift.expressions.1"),
        ("poisson", {"model": "ou-1d", "psi": {"expression": "x1 +"}}, "psi.expression"),
        ("dini", {"field": {"expression": "x1**"}}, "field.expression"),
    ], ids=["diffusion", "drift", "psi", "dini-field"])
    def test_expression_that_does_not_parse_exits_two_and_names_it(self, tmp_path, capsys,
                                                                  command, cfg, path):
        # regression: ast.parse's SyntaxError escaped as a traceback (exit 1)
        code, report, _ = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("config error: expression ") and "does not parse" in err
        assert err.endswith(f"[at {path}]\n")

    def test_expression_outside_the_grammar_names_its_path(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, "poisson", {"model": "ou-1d",
                                                   "psi": {"expression": "foo(x1)"}})
        assert code == 2
        assert capsys.readouterr().err == ("config error: disallowed function call in "
                                           "expression 'foo(x1)' [at psi.expression]\n")

    def test_check_radius_that_needs_too_fine_a_grid_names_check_radii(self, tmp_path, capsys):
        # regression: the error named n, an internal value ("invalid parameter: n must
        # be a power of two >= 16, got 4000"), and came after the main grid's solve
        cfg = {"model": "ou-2d", "n": 16, "psi": {"expression": "tanh(x1)"},
               "check_radii": [4, 1000]}
        code, report, out_dir = run_cli(tmp_path, "poisson", cfg)
        assert code == 2
        assert report is None
        assert not out_dir.exists()
        assert capsys.readouterr().err == (
            "config error: check radii [4.0, 1000.0] at the first one's cell width 0.5 need a "
            "grid that cannot be built: n must be a power of two >= 16, got 4000 "
            "[at check_radii]\n")

    @pytest.mark.parametrize("cfg,path", [
        # the default check radii (R, 2R) need 2n cells per axis in 1d, past the budget
        ({"model": "ou-1d", "psi": {"expression": "x1"}, "n": 2 ** 20}, "n"),
        ({"model": "ou-2d", "psi": {"expression": "x1"}, "check_radii": [8, 12]},
         "check_radii"),
    ])
    def test_check_grid_that_cannot_be_built_exits_before_any_output(self, tmp_path, capsys,
                                                                     cfg, path):
        # regression: both were found in run_poisson, after the output directory was made
        code, report, out_dir = run_cli(tmp_path, "poisson", cfg)
        assert code == 2
        assert report is None
        assert not out_dir.exists()
        assert capsys.readouterr().err.endswith(f" [at {path}]\n")

    def test_huge_dini_box_exits_two(self, tmp_path, capsys):
        # regression: box_radius 1e308 overflowed numpy's uniform sampler (exit 1)
        cfg = {**SMALL_CONFIGS["dini"], "box_radius": 1e308}
        code, report, _ = run_cli(tmp_path, "dini", cfg)
        assert code == 2
        assert report is None
        assert capsys.readouterr().err == ("config error: key 'box_radius' fails its range "
                                           "check (in (0, 1e6]) [at box_radius]\n")

    def test_unknown_key_exits_two_and_names_it(self, tmp_path, capsys):
        code, report, out_dir = run_cli(tmp_path, "solve", {"model": "ou-1d", "betaa2": 1})
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "betaa2" in err
        # validation fails before any artifact directory is created
        assert report is None
        assert not out_dir.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err

    def test_range_violation_exits_two(self, tmp_path, capsys):
        code, _, _ = run_cli(tmp_path, "solve", {"model": "ou-1d", "n": 100})
        assert code == 2
        assert "power of two >= 16" in capsys.readouterr().err

    def test_oversized_grid_exits_two_before_allocating(self, tmp_path, capsys):
        # regression: a 65536^2 grid died with a MemoryError traceback
        tracemalloc.start()
        try:
            code, report, _ = run_cli(tmp_path, "solve", {"model": "ou-2d", "n": 65536})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert report is None
        assert "exceeds the budget" in capsys.readouterr().err
        assert peak < 2 ** 24

    def test_late_parameter_error_exits_two(self, tmp_path, capsys):
        # check radii that force a non power-of-two grid are a config error at check_radii
        cfg = dict(SMALL_CONFIGS["poisson"], check_radii=[6.0, 8.0])
        code, _, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: check radii [6.0, 8.0] at the first one's cell "
                              "width 0.046875 need a grid that cannot be built: n must be a "
                              "power of two >= 16, got 341 ")
        assert err.endswith("[at check_radii]\n")

    def test_poisson_source_dimension_follows_the_model(self, tmp_path):
        # regression: a field "dim" default of 1 overrode the 2d model
        cfg = {"model": "ou-2d", "psi": {"expression": "x1"}, "n": 32}
        code, report, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        assert report["passed"] is True

    def test_poisson_source_of_the_wrong_dimension_exits_two(self, tmp_path, capsys):
        cfg = {"model": "ou-2d", "psi": {"expression": "x1", "dim": 1}, "n": 32}
        code, _, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 2
        assert "[at psi.dim]" in capsys.readouterr().err

    @pytest.mark.parametrize("model,n", [("ou-1d", 1024), ("ou-2d", 32)])
    def test_constant_poisson_source_exits_two_and_names_psi(self, tmp_path, capsys, model, n):
        # regression: psi~ = 0 made G/Psi a ZeroDivisionError traceback (exit 1, no report)
        cfg = {"model": model, "psi": {"constant": 2.0}, "n": n}
        code, report, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Psi = 0" in err and "[at psi]" in err

    def test_meanfield_start_outside_the_box_exits_two_and_names_it(self, tmp_path, capsys):
        # regression: the start's Gaussian vanished on the grid, and the run
        # exited 3 with "DegenerateDensityError: cannot normalize"
        code, report, _ = run_cli(tmp_path, "meanfield",
                                  {"eps": 0.05, "starts": [0.5, 100.0], "threshold": False})
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "start mean 100" in err and "[at starts.1]" in err

    @pytest.mark.parametrize("cfg,path", [
        ({"eps": 0.5}, "eps"),
        ({"eps": 0.05, "eps_grid": [0.1, 0.5]}, "eps_grid.1"),
        ({"eps": 0.05, "eps_grid": [0.7, 0.1], "dim": 2, "n": 16}, "eps_grid.0"),
    ])
    def test_coupling_past_the_ellipticity_margin_exits_two_and_names_it(self, tmp_path, capsys,
                                                                       cfg, path):
        # regression: eps * sup|q| >= lambda / 2 = 0.5 for the unit diffusion
        # is decidable from the config, yet exited 3 with an
        # EllipticityMarginError once the solves reached that coupling
        cfg = {**cfg, "kernel": "gaussian-diffusion", "threshold": False}
        code, report, _ = run_cli(tmp_path, "meanfield", cfg)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "lambda / (2 sup|q|) = 0.5" in err and f"[at {path}]" in err

    @pytest.mark.parametrize("cfg,path", [
        ({"task": "meanfield", "axis": [0.05, 0.5, 1.5],
          "base": {"threshold": False, "starts": [0.5]}}, "axis.2"),
        ({"task": "meanfield", "axis": [0.1, 0.3, 0.6],
          "base": {"kernel": "gaussian-diffusion", "threshold": False}}, "axis.2"),
        ({"task": "meanfield", "axis": [0.01, 0.02, 0.03],
          "base": {"starts": [50.0], "threshold": False}}, "base.starts.0"),
    ], ids=["eps-past-one", "eps-past-the-margin", "start-outside-the-box"])
    @pytest.mark.parametrize("flags", [(), ("--strict",)], ids=["lenient", "strict"])
    def test_bad_sweep_point_exits_two_before_any_point_runs(self, tmp_path, capsys, cfg, path,
                                                            flags):
        # regression: the base was validated once with a placeholder axis
        # value, so every point ran first. An eps of 1.5 then exited 2 with an
        # "invalid parameter" that named no key; a coupling past the margin or a
        # start outside the box failed its own points, and a lenient sweep exited 0
        code, report, out_dir = run_cli(tmp_path, "sweep", cfg, *flags)
        assert (code, report) == (2, None)
        assert not out_dir.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert err.endswith(f"[at {path}]\n")

    def test_grid_without_a_cell_in_the_unit_ball_exits_two(self, tmp_path, capsys):
        # regression: drift -1e-6 x gets the default radius 8000, so at n = 16 no
        # cell center lies in B(0, 1), and the Harnack ratio reduced an empty array
        cfg = {"coefficients": {"dim": 1, "diffusion": {"expression": "1"},
                                "drift": {"expressions": ["-1e-6*x1"], "beta1": 1e-6,
                                          "beta2": 1e-6, "beta3": 1e-6}}, "n": 16}
        code, report, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 2
        assert report is None
        err = capsys.readouterr().err
        assert err.startswith("config error: no cell center lies in B(0, 1)")
        assert "n 16 and radius 8000" in err

    @pytest.mark.parametrize("command, cfg, message, path", [
        ("poisson", {"model": "ou-2d", "psi": {"expression": "x1", "dim": 1}, "n": 32},
         "field dimension 1 differs from the run's dimension 2", "psi.dim"),
        ("solve", {"model": "nope"},
         "unknown model 'nope' (built-ins: anisotropic-2d, dini-1d, ou-1d, ou-2d)", "model"),
        ("solve", {"coefficients": {"dim": 1, "diffusion": {"constant": 1.0},
                                    "drift": {"expressions": ["-x1 +"], "beta1": 1.0,
                                              "beta2": 1.0, "beta3": 1.0}}},
         "expression '-x1 +' does not parse: invalid syntax", "coefficients.drift.expressions.0"),
        ("solve", {"model": "ou-1d", "radius": 100000, "n": 16},
         "no cell center lies in B(0, 1): n 16 and radius 100000 give cells of width 12500; "
         "raise n or set a smaller radius", "n"),
        ("poisson", {"model": "ou-1d", "psi": {"constant": 2.0}},
         "psi is constant on the grid, so the centered source is 0: Psi = 0 and the quotients "
         "G/Psi are undefined", "psi"),
        ("solve", {"coefficients": {"dim": 2, "diffusion": {"constant": 1.0},
                                    "drift": {"expressions": ["-x1"], "beta1": 1.0,
                                              "beta2": 1.0, "beta3": 1.0}}},
         "drift needs 2 expressions, got 1", "coefficients.drift.expressions"),
        ("dini", {"field": {"name": "nope"}},
         "unknown example field 'nope'; known: constant, log-modulus, weierstrass-holder",
         "field.name"),
    ], ids=["psi-dim", "unknown-model", "drift-expression", "no-cell-in-the-unit-ball",
            "constant-psi", "drift-count", "unknown-field"])
    def test_config_error_leaves_nothing_behind(self, tmp_path, capsys, monkeypatch, command,
                                                cfg, message, path):
        # regression: these were found in the runners, after the output directory was
        # made, and a constant psi only after the main grid's Poisson solve
        solves = []
        real = cli.stationary_poisson

        def counted(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "stationary_poisson", counted)
        code, report, out_dir = run_cli(tmp_path, command, cfg)
        assert (code, report) == (2, None)
        assert not out_dir.exists()
        assert solves == []
        assert capsys.readouterr().err == f"config error: {message} [at {path}]\n"

    def test_unknown_subcommand_is_an_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json", "--out", "y"])
        assert exc.value.code == 2

    def test_config_flag_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--out", "y"])
        assert exc.value.code == 2


@pytest.fixture
def skewed(monkeypatch, skewed_2d):
    """2d runs on the non-dominant diffusion skewed_2d, whose densities clip.

    The built-in ou-2d (solve, poisson) takes skewed_2d as its A. The c I
    that config builds for meanfield and stability (and so for sweep) becomes
    c skewed_2d in 2d; 1d runs are left alone.
    """
    real = DiffusionMatrixField
    mat = skewed_2d.values(np.zeros((1, 2)))[0]

    class Skewed:
        @staticmethod
        def from_constant(matrix, lam=None, name="A"):
            if len(matrix) != 2:
                return real.from_constant(matrix, lam, name)
            c = float(matrix[0][0])
            return real.from_constant(c * mat, lam=min(0.1 * c, 1.0 / c), name="skewed")

    models = tuple(dataclasses.replace(m, A=skewed_2d) if m.name == "ou-2d" else m
                   for m in fpk.builtin_models())
    monkeypatch.setattr(config, "DiffusionMatrixField", Skewed)
    monkeypatch.setattr(config, "builtin_models", lambda: models)


@pytest.fixture
def partly_dominant(monkeypatch):
    """The built-in ou-2d takes a^00 = 1, a^11 = 0.3, a^01 = 0.35 tanh((x1 - x2) / 4)
    as its A. The cells with |x1 - x2| > 4 artanh(6 / 7) = 5.1 are not dominant,
    and keep the centered cross term; with b = -x at R = 8, n = 32 the density
    clips 2.5e-7 of its mass there, below CLIP_MASS_LIMIT."""
    entries = {(0, 0): ClosureField(lambda x: np.ones(len(x)), 2, "a00"),
               (1, 1): ClosureField(lambda x: np.full(len(x), 0.3), 2, "a11"),
               (0, 1): ClosureField(lambda x: 0.35 * np.tanh(0.25 * (x[:, 0] - x[:, 1])), 2,
                                    "a01")}
    A = DiffusionMatrixField(entries, 2, lam=0.1, name="partly-dominant")
    models = tuple(dataclasses.replace(m, A=A) if m.name == "ou-2d" else m
                   for m in fpk.builtin_models())
    monkeypatch.setattr(config, "builtin_models", lambda: models)


class TestNumericalExits:
    def test_structured_failure_exits_three(self, tmp_path, capsys):
        cfg = {"coefficients": {"dim": 1, "diffusion": {"constant": 1.0},
                                "drift": {"expressions": ["x1"], "beta1": 1.0,
                                          "beta2": 1.0, "beta3": 1.0}},
               "n": 256}
        code, report, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: TruncationError:")
        assert_error_report(report, "TruncationError")
        assert report["error"]["message"] in err

    def test_strict_poisson_rejects_a_clipped_density(self, tmp_path, capsys, skewed):
        # regression: run_poisson solved the density without `strict`, so a
        # density that clips 6.5e-2 of its mass (the non-dominant skewed
        # diffusion at R = 8, n = 16) passed
        cfg = {"model": "ou-2d", "psi": {"expression": "x1"}, "k": 1.0, "radius": 8, "n": 16}
        code, report, _ = run_cli(tmp_path, "poisson", cfg, "--strict")
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: SchemePositivityError:")
        assert_error_report(report, "SchemePositivityError")

    @pytest.mark.parametrize("command,cfg", [
        ("meanfield", {"eps": 0.05, "starts": [0.5], "threshold": False, "dim": 2}),
        ("stability", {"family": "drift-linear", "deltas": [0.01, 0.1], "dim": 2}),
        ("solve", {"model": "ou-2d"}),
        ("poisson", {"model": "ou-2d", "psi": {"expression": "x1"}, "k": 1.0}),
    ])
    def test_strict_rejects_a_clipped_density(self, tmp_path, capsys, skewed, command, cfg):
        # regression: the densities of meanfield's Picard iterates and of
        # stability's pairs escaped --strict. On the non-dominant skewed
        # diffusion at R = 8, n = 16 the density clips 6.5e-2 of its mass;
        # lenient runs pass. A strict run fails at the lenient run's first
        # warning and names it
        cfg = {**cfg, "radius": 8, "n": 16}
        code, lenient, _ = run_cli(tmp_path, command, cfg, out="lenient")
        assert code == 0
        first = lenient["warnings"][0]
        code, report, _ = run_cli(tmp_path, command, cfg, "--strict")
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: SchemePositivityError:")
        assert_error_report(report, "SchemePositivityError")
        assert report["warnings"] == [first]
        message = report["error"]["message"]
        assert f"clipped negative mass {first['value']:.6g} exceeds 1e-06" in message
        assert "radius 8.0, n 16" in message
        assert "non_dominant_cells 256" in message  # no cell of the skewed diffusion is dominant

    @pytest.mark.parametrize("command,cfg", [
        ("solve", {"model": "ou-2d"}),
        ("poisson", {"model": "ou-2d", "psi": {"expression": "x1"}, "k": 1.0}),
        ("meanfield", {"eps": 0.05, "starts": [0.5], "threshold": False, "dim": 2}),
        ("stability", {"family": "drift-linear", "dim": 2, "deltas": [0.01, 0.03, 0.1]}),
    ])
    def test_lenient_run_warns_of_a_clipped_density(self, tmp_path, skewed, command, cfg):
        # regression: a lenient run that clipped 6.5e-2 of its mass (the case
        # of test_strict_rejects_a_clipped_density) said nothing in its report
        where = {"solve": [{}],
                 # poisson also solves its second check grid (R = 16, n = 32), which clips too
                 "poisson": [{}, {"radius": 16.0, "n": 32}],
                 "meanfield": [{"start": 0.5}],
                 "stability": [{"delta": d} for d in cfg.get("deltas", ())]}[command]
        # the drift (1 + delta) x of a stability pair moves its clip
        clips = [6.54e-2, 6.60e-2, 6.65e-2] if command == "stability" else [6.51e-2] * len(where)
        cfg = {**cfg, "radius": 8, "n": 16}
        code, report, _ = run_cli(tmp_path, command, cfg)
        assert code == 0
        warnings = report["warnings"]
        # each warning counts the non-dominant cells of the density that clipped
        # most, all of them on the skewed diffusion
        where = [{**w, "non_dominant_cells": w.get("n", 16) ** 2} for w in where]
        assert [{k: v for k, v in w.items() if k != "value"} for w in warnings] == \
            [{"kind": "clipped_mass", "limit": 1e-6, "radius": 8.0, "n": 16, **w} for w in where]
        assert warnings[0]["value"] == pytest.approx(clips[0], rel=1e-2)
        if command in ("solve", "poisson"):
            assert warnings[0]["value"] == report["summary"]["telemetry"]["clipped_mass"]
        assert [w["value"] for w in warnings] == pytest.approx(clips, rel=1e-2)

    def test_lenient_meanfield_warns_of_clipped_probe_images(self, tmp_path, skewed):
        # regression: the probe images behind eps_threshold and max_factor
        # clipped 6.51e-2 of their mass each with no warning in the report
        cfg = {"eps": 0.05, "starts": [0.5], "kernel": "tanh", "eps_grid": [0.02, 0.05],
               "dim": 2, "radius": 8, "n": 16}
        code, report, _ = run_cli(tmp_path, "meanfield", cfg)
        assert code == 0
        probes = [w for w in report["warnings"] if "probes" in w]
        # the bisection stops at once: eps_max = 1 already contracts
        assert report["summary"]["eps_threshold"] == 1.0
        assert [(w["probes"], w["eps"]) for w in probes] == \
            [("eps_threshold", 1.0), ("max_factor", 0.02), ("max_factor", 0.05)]
        for w in probes:
            assert (w["kind"], w["limit"], w["radius"], w["n"]) == ("clipped_mass", 1e-6, 8.0, 16)
            assert w["value"] == pytest.approx(6.51e-2, rel=1e-2)

    def test_lenient_sweep_points_warn(self, tmp_path, skewed):
        cfg = {"task": "meanfield", "axis": [0.02, 0.05, 0.08],
               "base": {"dim": 2, "radius": 8, "n": 16, "threshold": False, "starts": [0.5]}}
        code, report, out_dir = run_cli(tmp_path, "sweep", cfg, "--workers", "1")
        assert code == 0
        for i in range(3):
            point = json.loads((out_dir / f"point-{i:03d}" / "run_report.json").read_text())
            [warning] = point["warnings"]
            assert (warning["kind"], warning["start"]) == ("clipped_mass", 0.5)
        assert [w["axis_value"] for w in report["warnings"]] == cfg["axis"]

    def test_strict_sweep_point_failure_reports_at_both_levels(self, tmp_path, capsys, skewed):
        # the clipped density of test_strict_rejects_a_clipped_density, at every point
        cfg = {"task": "meanfield", "axis": [0.02, 0.05, 0.08],
               "base": {"dim": 2, "radius": 8, "n": 16, "threshold": False, "starts": [0.5]}}
        code, report, out_dir = run_cli(tmp_path, "sweep", cfg, "--strict", "--workers", "1")
        assert code == 3
        assert capsys.readouterr().err.startswith("numerical failure: SchemePositivityError:")
        assert_error_report(report, "SchemePositivityError")
        point = json.loads((out_dir / "point-000" / "run_report.json").read_text())
        assert point["outcome"] == "error"
        assert point["error"]["class"] == "SchemePositivityError"
        assert [(w["kind"], w["start"]) for w in point["warnings"]] == [("clipped_mass", 0.5)]
        # the top-level report names the warning of every point that ran, under its axis value
        assert [(w["kind"], w["start"], w["axis_value"]) for w in report["warnings"]] == \
            [("clipped_mass", 0.5, v) for v in cfg["axis"]]
        assert report["warnings"][0]["value"] == point["warnings"][0]["value"]

    @pytest.mark.parametrize("command,cfg", [
        ("solve", {"model": "ou-2d", "n": 16}),
        ("solve", {"model": "anisotropic-2d", "n": 32}),  # every cell dominant: clips nothing
        ("solve", {"model": "ou-2d", "n": 32}),
        ("poisson", {"model": "ou-2d", "psi": {"expression": "x1"}, "k": 1.0, "n": 16}),
        # iterates only; with this kernel a start's fixed point is not its largest clip
        ("meanfield", {"eps": 0.05, "starts": [0.5, -0.5], "kernel": "tanh-relative",
                       "threshold": False, "dim": 2, "n": 16}),
        ("meanfield", {"eps": 0.05, "starts": [0.5], "eps_grid": [0.02, 0.05], "dim": 2,
                       "n": 16}),
        ("meanfield", {"eps": 0.05, "starts": [0.5], "eps_grid": [0.02, 0.05], "dim": 2,
                       "n": 32}),
        ("stability", {"family": "drift-linear", "dim": 2, "deltas": [0.01, 0.03, 0.1],
                       "n": 16}),
    ])
    def test_every_clipped_density_is_warned_of(self, tmp_path, monkeypatch, skewed, command,
                                                cfg):
        # the report warns if and only if some density of the run clipped past
        # the limit; each warning is such a clip, and the largest is among them.
        # The skewed diffusion clips; anisotropic-2d is left as it is
        clipped = []
        null_density = fpk._null_density

        def recorded(*args, **kwargs):
            rho = null_density(*args, **kwargs)
            clipped.append(rho.info["clipped_mass"])
            return rho

        monkeypatch.setattr(fpk, "_null_density", recorded)
        code, report, _ = run_cli(tmp_path, command, {**cfg, "radius": 8})
        assert code == 0
        assert clipped
        over = [c for c in clipped if c > CLIP_MASS_LIMIT]
        warned = [w["value"] for w in report["warnings"]]
        assert bool(warned) == bool(over)
        assert set(warned) <= set(over)
        assert max(warned, default=None) == max(over, default=None)
        if command in ("solve", "poisson"):  # each names the cells that can clip
            assert all(w["non_dominant_cells"] > 0 for w in report["warnings"])

    def test_strict_anisotropic_solve_passes(self, tmp_path):
        # regression: the centered cross term put negative weights on two
        # corners of every cell, so this density clipped 5.9e-5 of its mass and
        # the strict run exited 3. The fitted L_h is monotone on it
        code, report, _ = run_cli(tmp_path, "solve", {"model": "anisotropic-2d", "n": 32},
                                  "--strict")
        assert code == 0
        assert report["warnings"] == []
        assert report["summary"]["telemetry"]["clipped_mass"] == 0.0

    def test_a_clip_at_most_the_limit_is_not_warned_of(self, tmp_path, monkeypatch,
                                                       partly_dominant):
        # the "only if" half of test_every_clipped_density_is_warned_of on a
        # density that clips more than 0 but less than the limit: no warning,
        # and a strict run passes
        clipped = []
        null_density = fpk._null_density

        def recorded(*args, **kwargs):
            rho = null_density(*args, **kwargs)
            clipped.append(rho.info["clipped_mass"])
            return rho

        monkeypatch.setattr(fpk, "_null_density", recorded)
        cfg = {"model": "ou-2d", "n": 32, "radius": 8}
        code, report, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        [value] = clipped
        assert 0.0 < value <= CLIP_MASS_LIMIT
        assert report["warnings"] == []
        assert report["summary"]["telemetry"]["clipped_mass"] == value
        assert report["summary"]["telemetry"]["non_dominant_cells"] > 0
        code, report, _ = run_cli(tmp_path, "solve", cfg, "--strict", out="strict")
        assert code == 0
        assert report["warnings"] == []

    def test_outward_drift_names_the_truncation(self, tmp_path, capsys):
        # regression: minimal upwinding set the inward rates of the cells past
        # |x2| = 2 to zero, so the chain had two closed classes (the walls
        # x2 = -+4) and the pinned factor was exactly singular
        # (ConvergenceError). The fitted chain links them, and the density's
        # mass on the walls is the truncation error it is
        cfg = {"coefficients": {"dim": 2, "diffusion": {"constant": 1.0},
                                "drift": {"expressions": ["0*x1", "2*x2"], "beta1": 1.0,
                                          "beta2": 1.0, "beta3": 1.0}},
               "n": 16, "radius": 4}
        code, report, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: TruncationError: under-truncation")
        assert_error_report(report, "TruncationError")

    @pytest.mark.parametrize("extra", [{}, {"dim": 2, "n": 32}])
    def test_diffusion_kernel_threshold_search_stays_below_the_margin(self, tmp_path, extra):
        # regression: the default threshold search probed eps_max = 1 first,
        # where eps * sup|q| = 1 >= lambda / 2 = 0.5, so every gaussian-diffusion
        # run exited 3. The search now starts just below 0.5 and reports that cap
        code, report, _ = run_cli(tmp_path, "meanfield",
                                  {"eps": 0.05, "kernel": "gaussian-diffusion", **extra})
        assert code == 0
        cap = report["summary"]["eps_threshold_cap"]
        assert cap == math.nextafter(0.5, 0.0)
        assert 0.0 < report["summary"]["eps_threshold"] <= cap

    def test_non_finite_figure_is_written_as_null(self, tmp_path):
        # regression: weighted_l2_norm overflowed (the norm is about 1e408,
        # past the float range) and the report held NaN, which strict JSON
        # readers reject. run_cli parses every report strictly
        code, report, _ = run_cli(tmp_path, "solve",
                                  {"model": "ou-2d", "n": 32, "weight_order": 400})
        assert code == 0
        assert report["summary"]["weighted_l2_norm"] is None
        assert report["warnings"] == [{"kind": "non_finite", "key": "weighted_l2_norm"}]
        code, report, _ = run_cli(tmp_path, "solve", {"model": "ou-2d", "n": 32}, out="normal")
        assert code == 0
        assert math.isfinite(report["summary"]["weighted_l2_norm"])
        assert report["warnings"] == []

    def test_source_that_is_not_finite_on_the_grid_exits_three(self, tmp_path, capsys):
        # config evaluates psi on the main grid to refuse a constant one; a psi that
        # is not finite there is a numerical failure of the run, with its report
        cfg = {"model": "ou-1d", "psi": {"expression": "log(x1)"}, "n": 256}
        code, report, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 3
        assert_error_report(report, "EvaluationError")
        assert capsys.readouterr().err.startswith(
            "numerical failure: EvaluationError: field 'log(x1)' non-finite at [-7.96875]")

    def test_weight_order_past_the_float_range_exits_three(self, tmp_path, capsys):
        # regression: r^{2k} overflowed on the Lyapunov scan radii and the run exited 2
        # with "invalid parameter: zero-size array to reduction operation minimum ..."
        cfg = {"model": "ou-1d", "psi": {"expression": "x1"}, "k": 200}
        code, report, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 3
        assert_error_report(report, "ConfinementError")
        assert "weight order k = 200 is too large" in report["error"]["message"]
        assert "numerical failure: ConfinementError: " in capsys.readouterr().err

    def test_weight_order_past_the_float_range_warns_nothing(self, tmp_path, capsys):
        # regression: the Lyapunov scan printed four numpy RuntimeWarnings (overflow
        # and invalid value) before its ConfinementError
        cfg = {"model": "ou-1d", "psi": {"expression": "x1"}, "k": 200}
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, report, _ = run_cli(tmp_path, "poisson", cfg)
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
        assert code == 3
        assert "weight order k = 200 is too large" in report["error"]["message"]

    def test_stability_response_it_cannot_plot_leaves_out_the_figure(self, tmp_path, capsys):
        # regression: lhs is 0 at deltas this small, and the log-axis figure raised
        # "log axis needs positive y data" (exit 2) after sweep.csv was written
        cfg = {"family": "drift-linear", "deltas": [1e-300, 1e-299]}
        code, report, out_dir = run_cli(tmp_path, "stability", cfg)
        assert code == 3  # by its checks: no slope can be fitted to these
        assert report["outcome"] == "fail"
        assert set(report["checks"]) == {"slope_near_one", "c_hat_spread_ok"}
        assert (out_dir / "sweep.csv").exists()
        assert not (out_dir / "sweep.svg").exists()
        assert "stability: fail (" in capsys.readouterr().out

    def test_failing_check_exits_three_with_fail_line(self, tmp_path, capsys):
        cfg = {"task": "stability", "axis": [0.01, 0.05, 5.0],
               "base": {"family": "drift-linear", "n": 256}}
        code, report, _ = run_cli(tmp_path, "sweep", cfg, "--strict")
        assert code == 3
        assert report["passed"] is False
        assert report["outcome"] == "fail"
        assert report["checks"] == {"all_points_passed": False}
        assert "sweep: fail (" in capsys.readouterr().out


class TestPoissonGrids:
    """`fpkit poisson` solves each distinct grid once; its first check grid is the main one."""

    @staticmethod
    def reference_bounds(tmp_path, cfg) -> bytes:
        # bounds.csv as verify_growth_bounds computes it, every check grid solved afresh
        cfg, built = validate_command_config("poisson", dict(cfg))
        spec = built["spec"]
        n_base = cfg["n"] if spec.dim == 1 else min(cfg["n"], 128)
        radii = cfg["check_radii"] or [spec.radius, 2 * spec.radius]  # the default, as in the CLI
        rep = verify_growth_bounds(built["A"], built["b"], built["psi"], cfg["k"],
                                   radii=tuple(radii), n_base=n_base, p=cfg["p"])
        path = write_csv(str(tmp_path / "reference.csv"),
                         ["radius", "g0_over_psi", "g1_over_psi", "h_over_psi"],
                         [rep.radii, *zip(*rep.quotients)])
        return Path(path).read_bytes()

    def test_two_dimensional_main_grid_is_factored_once(self, tmp_path, monkeypatch):
        sizes = []
        splu = spla.splu

        def counted(P, *args, **kwargs):
            sizes.append(P.shape[0])
            return splu(P, *args, **kwargs)

        cfg = {"model": "ou-2d", "psi": {"expression": "x1"}, "k": 1.0, "n": 32}
        monkeypatch.setattr(spla, "splu", counted)
        code, _, out_dir = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        assert sizes == [32 ** 2, 64 ** 2]  # main grid (R 8) = first check grid, then R 16
        monkeypatch.undo()
        assert (out_dir / "bounds.csv").read_bytes() == self.reference_bounds(tmp_path, cfg)

    def test_one_dimensional_main_grid_is_solved_once(self, tmp_path, monkeypatch):
        calls = []
        exact = poisson.solve_exact_1d

        def counted(*args, **kwargs):
            calls.append(args[2].n)
            return exact(*args, **kwargs)

        cfg = SMALL_CONFIGS["poisson"]
        monkeypatch.setattr(poisson, "solve_exact_1d", counted)
        code, _, out_dir = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        assert calls == [256, 512]
        monkeypatch.undo()
        assert (out_dir / "bounds.csv").read_bytes() == self.reference_bounds(tmp_path, cfg)


class TestTelemetry:
    """2d solve and poisson reports carry the solver telemetry of the main grid."""

    @pytest.mark.parametrize("command,cfg,ordering", [
        ("solve", {"model": "ou-2d", "n": 64}, "mmd"),
        ("poisson", {"model": "anisotropic-2d", "psi": {"expression": "x1"}, "k": 1.0,
                     "radius": 6, "n": 64}, "nested-dissection"),
        ("solve", {"model": "ou-2d", "n": 32}, "block-triangular"),
        ("poisson", {"model": "anisotropic-2d", "psi": {"expression": "x1"}, "k": 1.0,
                     "n": 32}, "block-triangular"),
    ])
    def test_two_dimensional_reports_carry_the_factor(self, tmp_path, command, cfg, ordering):
        code, report, _ = run_cli(tmp_path, command, cfg)
        assert code == 0
        tel = report["summary"]["telemetry"]
        keys = {"residual", "clipped_mass", "pinned_cell", "ordering", "factor_nnz",
                "transient_cells", "max_cell_peclet", "non_dominant_cells", "exponential_fitting"}
        if command == "poisson":  # and the Lyapunov witness of the solve
            assert tel["lyapunov"] == {"m0": report["summary"]["m0"], "r0": report["summary"]["r0"]}
            keys.add("lyapunov")
        assert set(tel) == keys
        assert tel["ordering"] == ordering
        n = cfg["n"]
        assert tel["factor_nnz"] > 5 * n ** 2  # at least the pinned operator itself
        assert 0.0 <= tel["residual"] <= 1e-10
        assert 0 <= tel["pinned_cell"] < n ** 2
        # the corner cell at R - h / 2 has h |b| / (2 a^ii) 1.94 in ou-2d at R = 8,
        # n = 32 (h = 0.5), and 7.75 / (4 * 0.85) = 2.28 on anisotropic-2d's axis 1:
        # past 1, the upwinded cells the pin does not reach are transient
        R = cfg.get("radius", 8.0)
        h = 2.0 * R / n
        a_ii = 1.0 if cfg["model"] == "ou-2d" else 0.85
        assert tel["max_cell_peclet"] == pytest.approx(0.5 * h * (R - 0.5 * h) / a_ii, rel=1e-12)
        assert (tel["transient_cells"] > 0) == (ordering == "block-triangular")
        assert tel["transient_cells"] > 0 or tel["max_cell_peclet"] <= 1.0
        assert tel["non_dominant_cells"] == 0
        assert tel["exponential_fitting"] is False  # the drift confines: minimal upwinding

    def test_non_dominant_cells_are_counted(self, tmp_path, skewed):
        code, report, _ = run_cli(tmp_path, "solve", {"model": "ou-2d", "n": 16, "radius": 8})
        assert code == 0
        tel = report["summary"]["telemetry"]
        assert tel["non_dominant_cells"] == 16 ** 2
        # the corner cell 7.5 on axis 1, where a^11 = 0.325
        assert tel["max_cell_peclet"] == pytest.approx(7.5 / 0.65, rel=1e-12)
        assert tel["clipped_mass"] == pytest.approx(6.51e-2, rel=1e-2)

    def test_a_drift_that_pushes_apart_is_exponentially_fitted(self, tmp_path):
        # the bistable drift pushes away from x1 = 0 where the cell Peclet
        # number is above 1, so minimal upwinding would cut the two wells
        # apart; the fitted chain links them and each holds half the mass
        code, report, out_dir = run_cli(tmp_path, "solve", BISTABLE)
        assert code == 0
        assert report["warnings"] == []
        tel = report["summary"]["telemetry"]
        assert tel["exponential_fitting"] is True
        assert tel["clipped_mass"] == 0.0
        rho = np.genfromtxt(out_dir / "density.csv", delimiter=",", names=True)
        left = rho["rho"][rho["x1"] < 0.0].sum() / rho["rho"].sum()
        assert left == pytest.approx(0.5, abs=1e-6)

    def test_meanfield_reports_factorizations_and_refinement_per_start(self, tmp_path):
        cfg = {"eps": 0.05, "starts": [0.5, -0.5], "kernel": "tanh-relative",
               "threshold": False, "dim": 2, "n": 16}
        code, report, out_dir = run_cli(tmp_path, "meanfield", cfg)
        assert code == 0
        tel = report["summary"]["telemetry"]
        assert [t["start"] for t in tel] == [0.5, -0.5]
        trace = np.genfromtxt(out_dir / "trace.csv", delimiter=",", names=True)
        for i, (t, steps) in enumerate(zip(tel, report["summary"]["iterations"])):
            assert len(t["refinement_steps"]) == len(t["factored"]) == len(t["gaps"]) == steps
            assert 1 <= t["factorizations"] < steps
            assert t["factorizations"] == sum(t["factored"])
            assert t["factored"][0]  # nothing held yet
            # the gaps that trace.csv plots (to its 12 digits), contracting to the tolerance
            assert np.allclose(trace["gap"][trace["start"] == i], t["gaps"], rtol=1e-11, atol=0)
            assert all(b < a for a, b in zip(t["gaps"], t["gaps"][1:]))
            assert t["gaps"][-1] <= 1e-8 < t["gaps"][-2]

    def test_meanfield_telemetry_tells_a_late_convergence_from_a_give_up(self, tmp_path):
        # step 1 refines REFINE_MAX_STEPS = 10 times at both couplings: at
        # eps 0.15 it converged at the tenth step, at eps 0.2 it gave up and factored
        cfg = {"starts": [1.0], "kernel": "tanh-relative", "threshold": False, "dim": 2, "n": 32}
        runs = {eps: run_cli(tmp_path, "meanfield", {**cfg, "eps": eps}, out=f"eps{eps}")
                for eps in (0.15, 0.2)}
        for eps, steps, factored, factorizations in ((0.15, [0, 10, 9], [True, False, False], 1),
                                                     (0.2, [0, 10, 6], [True, True, False], 2)):
            code, report, _ = runs[eps]
            assert code == 0
            (tel,) = report["summary"]["telemetry"]
            assert tel["refinement_steps"][:3] == steps
            assert tel["factored"][:3] == factored
            assert tel["factorizations"] == factorizations

    def test_one_dimensional_meanfield_neither_factors_nor_refines(self, tmp_path):
        _, report, _ = run_cli(tmp_path, "meanfield", SMALL_CONFIGS["meanfield"])
        for t in report["summary"]["telemetry"]:
            assert t["factorizations"] == 0
            assert set(t["refinement_steps"]) == {0}
            assert not any(t["factored"])

    def test_one_dimensional_solve_has_no_factor(self, tmp_path):
        _, report, _ = run_cli(tmp_path, "solve", SMALL_CONFIGS["solve"])
        assert "telemetry" not in report["summary"]

    def test_one_dimensional_solve_reports_no_residual(self, tmp_path):
        # regression: the closed form measures no residual, yet the report said 0.0
        code, report, _ = run_cli(tmp_path, "solve", {"model": "ou-1d", "n": 1024})
        assert code == 0
        assert report["summary"]["method"] == "exact-1d"
        assert report["summary"]["residual"] is None


class TestScalarDiffusion:
    """A coefficients block without "lam" is a scalar diffusion; the solve grid sets lambda."""

    @staticmethod
    def block(diffusion, dim=2):
        return {"dim": dim, "diffusion": diffusion,
                "drift": {"expressions": ["-x1", "-x2"][:dim], "beta1": 1.0, "beta2": 1.0,
                          "beta3": 1.0}}

    def test_lambda_comes_from_the_solve_grid(self, tmp_path):
        # regression: lambda was probed on [-4, 4]^2, so this diffusion's
        # eigenvalues [1.035, 2.096] on the R = 8 grid left [0.639, 1.566] (exit 3)
        cfg = {"coefficients": self.block({"expression": "1 + 0.1*r"}), "radius": 8, "n": 32}
        code, _, out_dir = run_cli(tmp_path, "solve", cfg)
        assert code == 0
        spec = GridSpec(2, 8.0, 32)
        rho = solve_grid(ExpressionField("1 + 0.1*r", 2), linear_drift(2), spec)
        pts = spec.cell_centers()
        ref = write_csv(str(tmp_path / "reference.csv"), ["x1", "x2", "rho"],
                        [pts[:, 0], pts[:, 1], rho.flat()])
        assert (out_dir / "density.csv").read_bytes() == Path(ref).read_bytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("lam", [None, 0.5])
    def test_sign_indefinite_diffusion_exits_three(self, tmp_path, capsys, dim, lam):
        # regression: without "lam" this exited 2 with the advice to give "lam",
        # and with "lam" the 2d check exited 3 without saying where a failed
        diffusion = {"expression": "x1"} if lam is None else {"expression": "x1", "lam": lam}
        cfg = {"coefficients": self.block(diffusion, dim), "radius": 8, "n": 32}
        code, report, _ = run_cli(tmp_path, "solve", cfg)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: EllipticityError:")
        assert_error_report(report, "EllipticityError")
        x1 = float(re.search(r"at x=\(?([-+.e\d]+)", err).group(1))
        assert x1 <= 0.0  # a point where a = x1 is not positive


class TestSweepModes:
    def test_lenient_mode_records_failures_and_exits_zero(self, tmp_path):
        cfg = {"task": "stability", "axis": [0.01, 0.05, 5.0],
               "base": {"family": "drift-linear", "n": 256}}
        code, report, out_dir = run_cli(tmp_path, "sweep", cfg)
        assert code == 0
        assert report["checks"] == {"sweep_completed": True}
        assert report["summary"]["failed_values"] == [5.0]
        assert report["summary"]["all_passed"] is False
        rows = (out_dir / "summary.csv").read_text().splitlines()
        assert rows[0] == "value,passed,slope"
        assert rows[3].startswith("5,false")

    def test_points_get_isolated_reports(self, tmp_path):
        code, report, out_dir = run_cli(tmp_path, "sweep", SMALL_CONFIGS["sweep"])
        assert code == 0
        digests = []
        for i in range(3):
            sub = json.loads((out_dir / f"point-{i:03d}" / "run_report.json").read_text())
            assert sub["command"] == "stability" or sub["command"] == "meanfield"
            digests.append(sub["config_digest"])
        assert len(set(digests)) == 3

    def test_worker_count_defaults_to_four(self):
        args = build_parser().parse_args(["sweep", "--config", "x.json", "--out", "y"])
        assert args.workers == 4

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        _, _, one = run_cli(tmp_path, "sweep", SMALL_CONFIGS["sweep"], "--workers", "1",
                            out="w1")
        _, _, four = run_cli(tmp_path, "sweep", SMALL_CONFIGS["sweep"], "--workers", "4",
                             out="w4")
        assert (one / "summary.csv").read_bytes() == (four / "summary.csv").read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("command,files", [
        ("solve", ("density.csv", "moments.csv")),
        ("meanfield", ("trace.csv", "response.csv")),
    ])
    def test_rerun_is_byte_identical(self, tmp_path, command, files):
        _, rep_a, dir_a = run_cli(tmp_path, command, SMALL_CONFIGS[command], out="a")
        _, rep_b, dir_b = run_cli(tmp_path, command, SMALL_CONFIGS[command], out="b")
        for name in files:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert rep_a["config_digest"] == rep_b["config_digest"]

    def test_seed_flag_overrides_config_and_moves_the_digest(self, tmp_path):
        _, base, _ = run_cli(tmp_path, "solve", SMALL_CONFIGS["solve"], out="s0")
        _, seeded, _ = run_cli(tmp_path, "solve", SMALL_CONFIGS["solve"],
                               "--seed", "7", out="s7")
        assert base["seed"] == 0
        assert seeded["seed"] == 7
        assert seeded["config_digest"] != base["config_digest"]


class TestDefaultRadius:
    """Without a "radius" every grid's radius is default_radius(beta2) of the run's drift."""

    # rho ~ exp(-0.05 x^2): its tail holds more than 1e-4 past R = 8 (TruncationError)
    WEAK = {"coefficients": {"dim": 1, "diffusion": {"constant": 6.0},
                             "drift": {"expressions": ["-0.6*x1"], "beta1": 0.6,
                                       "beta2": 0.6, "beta3": 0.6}}}

    @pytest.mark.parametrize("command,extra", [
        ("solve", {}),
        # regression: poisson defaulted to R = 8 and exited 3 with a TruncationError
        ("poisson", {"psi": {"expression": "tanh(x1)"}}),
    ])
    def test_radius_follows_the_drift(self, tmp_path, command, extra):
        code, _, out_dir = run_cli(tmp_path, command, {**self.WEAK, **extra})
        assert code == 0
        radius = 8.0 / np.sqrt(0.6)
        x = np.loadtxt(out_dir / ("density.csv" if command == "solve" else "solution.csv"),
                       delimiter=",", skiprows=1)[:, 0]
        assert x.max() == pytest.approx(radius * (1.0 - 1.0 / 1024), rel=1e-9)  # n = 1024
        if command == "poisson":
            bounds = np.loadtxt(out_dir / "bounds.csv", delimiter=",", skiprows=1)
            assert bounds[:, 0] == pytest.approx([radius, 2 * radius])

    @pytest.mark.parametrize("k", [1.0, 10.0])
    def test_weak_drift_poisson_passes(self, tmp_path, k):
        # regression: at k = 1 the drift -0.1 x never reaches Lyapunov rate 1
        # ("drift does not confine"); at k = 10 the window check of the scan
        # compared terms of size 1e25 with an absolute 1e-9 (exit 3 both)
        cfg = {"coefficients": {"dim": 1, "diffusion": {"expression": "1"},
                                "drift": {"expressions": ["-0.1*x1"], "beta1": 0.1,
                                          "beta2": 0.1, "beta3": 0.1}},
               "psi": {"expression": "tanh(x1)"}, "k": k}
        code, report, _ = run_cli(tmp_path, "poisson", cfg)
        assert code == 0
        assert report["summary"]["m0"] > 0.0
        if k == 1.0:  # half the rate at the largest radius, R = 8 / sqrt(0.1)
            assert report["summary"]["m0"] < 1.0

    @pytest.mark.parametrize("psi,n", [("x1**2", 1024), ("cos(x1)", None)])
    def test_dini_poisson_centers_by_the_solvers_rule(self, tmp_path, psi, n):
        # regression: psi was centered by cell quadrature and checked by the
        # fine-mesh Simpson rule, which differ by 2.9e-4 (x1**2) and 1.0e-4
        # (cos) for the rough dini-1d diffusion: "TruncationError: tail
        # integral ..." (exit 3)
        cfg = {"model": "dini-1d", "psi": {"expression": psi}, "k": 2.0}
        code, report, _ = run_cli(tmp_path, "poisson", cfg if n is None else {**cfg, "n": n})
        assert code == 0
        assert report["checks"]["centering_ok"]

    @pytest.mark.parametrize("command", ["stability", "meanfield"])
    def test_base_drift_keeps_radius_eight(self, tmp_path, command, monkeypatch):
        specs = []
        real = config.grid_from_config

        def recorded(*args):
            specs.append(real(*args))
            return specs[-1]

        monkeypatch.setattr(config, "grid_from_config", recorded)
        assert run_cli(tmp_path, command, SMALL_CONFIGS[command])[0] == 0
        assert [spec.radius for spec in specs] == [8.0]


class TestStabilityFamilies:
    @pytest.mark.parametrize("cfg", [
        SMALL_CONFIGS["stability"],
        {"family": "diffusion-constant", "dim": 2, "n": 32, "deltas": [0.01, 0.03, 0.1]},
    ])
    def test_sigma_is_solved_once_and_the_sweep_is_unchanged(self, tmp_path, monkeypatch, cfg):
        calls = []
        real = stability.stationary_density

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(stability, "stationary_density", counted)
        code, _, out_dir = run_cli(tmp_path, "stability", cfg)
        monkeypatch.undo()
        assert code == 0
        assert len(calls) == len(cfg["deltas"]) + 1
        # the same rows from pairs that each solve their own sigma
        full, _ = validate_command_config("stability", cfg)
        dim, k, r = full["dim"], full["k"], full["r"]
        spec = grid_from_config(full, dim, 1.0)  # beta2 of sigma's drift -x
        eye = np.eye(dim)
        rows = []
        for d in cfg["deltas"]:
            if cfg["family"] == "drift-linear":
                a_mu, b_mu = DiffusionMatrixField.from_constant(eye, 1.0), linear_drift(dim, 1.0 + d)
            else:
                a_mu = DiffusionMatrixField.from_constant(eye * (1.0 + d), min(1.0, 1.0 / (1.0 + d)))
                b_mu = linear_drift(dim, 1.0)
            pair = CoefficientPair(a_mu, b_mu, DiffusionMatrixField.from_constant(eye, 1.0),
                                   linear_drift(dim, 1.0))
            rep = _measure(pair, *pair.solve_pair(spec), k, r)
            rows.append((d, rep.lhs, rep.rhs_diffusion, rep.rhs_drift, rep.c_hat))
        ref = write_csv(str(tmp_path / "ref.csv"), ["delta", "lhs", "rhs_diffusion", "rhs_drift",
                                                    "c_hat"], zip(*rows))
        assert (out_dir / "sweep.csv").read_bytes() == Path(ref).read_bytes()


class TestEntryPoints:
    def test_parser_is_built_once_and_reused(self, tmp_path):
        assert build_parser() is build_parser()
        code, report, _ = run_cli(tmp_path, "solve", SMALL_CONFIGS["solve"], "--strict",
                                  "--seed", "3", out="a")
        assert (code, report["seed"]) == (0, 3)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", "x.json", "--out", "y", "--no-such-flag"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        # no flag or value of an earlier call carries over
        assert run_cli(tmp_path, "dini", SMALL_CONFIGS["dini"], out="b")[0] == 0
        code, report, _ = run_cli(tmp_path, "solve", SMALL_CONFIGS["solve"], out="c")
        assert (code, report["seed"]) == (0, 0)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"fpkit {__version__}"

    def test_one_dimensional_runs_import_no_scipy(self, tmp_path):
        # import fpkit costs about 0.6 s more when it pulls in scipy, which a
        # 1d run never calls: the README 1d configs must leave it unloaded
        lines = run_fresh(tmp_path, CLI_1D_RUNS)
        assert lines[0] == []  # after import fpkit, fpkit.cli
        assert lines[1:] == [[run[0], 0, []] for run in CLI_1D_RUNS]

    def test_scipy_is_first_imported_in_sweep_threads(self, tmp_path):
        # a 2d meanfield sweep loads scipy.fft and scipy.sparse in its workers
        cfg = {"task": "meanfield", "axis": [0.02, 0.05, 0.08],
               "base": {"dim": 2, "n": 16, "kernel": "tanh-relative", "starts": [0.5],
                        "threshold": False}}
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        lines = run_fresh(fresh, [["sweep", cfg, "--workers", "2"]])
        assert lines[0] == []
        (_, code, loaded), = lines[1:]
        assert code == 0
        assert {"scipy.fft", "scipy.sparse.linalg"} <= set(loaded)
        _, _, in_process = run_cli(tmp_path, "sweep", cfg, "--workers", "2")
        fresh_out = fresh / "out0"
        csvs = sorted(p.relative_to(in_process) for p in in_process.rglob("*.csv"))
        assert len(csvs) == 4  # summary.csv and each point's trace.csv
        assert csvs == sorted(p.relative_to(fresh_out) for p in fresh_out.rglob("*.csv"))
        for rel in csvs:
            assert (fresh_out / rel).read_bytes() == (in_process / rel).read_bytes()

    def test_module_execution_works(self):
        # run from the directory that holds the imported package, so the
        # child finds the same fpkit with or without PYTHONPATH
        proc = subprocess.run([sys.executable, "-m", "fpkit", "--version"],
                              capture_output=True, text=True,
                              cwd=Path(fpkit.__file__).resolve().parent.parent)
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"fpkit {__version__}"
