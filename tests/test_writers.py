"""Golden bytes of the artifact writers: cli.write_csv, svg.line_plot and svg.heatmap.

The CLI promises byte-identical artifacts for a rerun of the same config, so
the writers' output is pinned here: CSV text literally, each SVG by the
sha256 of its bytes for fixed inputs.
"""

import hashlib

import numpy as np
import pytest

from fpkit import svg
from fpkit.cli import write_csv


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestWriteCsv:
    def test_float_array_column(self, tmp_path):
        col = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 123456789012.5, 0.1, 2.0])
        path = write_csv(str(tmp_path / "a.csv"), ["v"], [col])
        assert path == str(tmp_path / "a.csv")
        assert (tmp_path / "a.csv").read_text() == (
            "v\nnan\ninf\n-inf\n-0\n1e-300\n123456789012\n0.1\n2\n")

    def test_float32_array_column(self, tmp_path):
        col = np.array([0.1, 1.5, -3.0e-8, 16777217.0], dtype=np.float32)
        write_csv(str(tmp_path / "a.csv"), ["v"], [col])
        assert (tmp_path / "a.csv").read_text() == (
            "v\n0.10000000149\n1.5\n-2.99999989295e-08\n16777216\n")

    def test_mixed_columns(self, tmp_path):
        ints = np.array([0, -7, 2 ** 40])
        bools = [True, False, np.bool_(True)]
        mixed = [1, 2.5, np.float64(1 / 3)]
        names = ["a", "b,c", "x"]
        write_csv(str(tmp_path / "a.csv"), ["i", "b", "m", "s"], [ints, bools, mixed, names])
        assert (tmp_path / "a.csv").read_text() == (
            "i,b,m,s\n"
            "0,true,1,a\n"
            "-7,false,2.5,b,c\n"
            "1099511627776,true,0.333333333333,x\n")

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(str(tmp_path / "a.csv"), ["x", "y"], [np.zeros(0), []])
        assert (tmp_path / "a.csv").read_text() == "x,y\n"

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(str(tmp_path / "a.csv"), ["x", "y"], [np.zeros(3), [1, 2]])

    def test_header_and_columns_must_match(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            write_csv(str(tmp_path / "a.csv"), ["x", "y"], [np.zeros(3)])


def _line_series():
    x = np.linspace(-3.0, 3.0, 101)
    return [("exp(-x^2/2)", x, np.exp(-0.5 * x ** 2)),
            ("x exp(-x^2) & <tail>", x, x * np.exp(-x ** 2)),
            ("", x[::10], 0.3 * np.sin(x[::10]))]


def _log_series():
    x = np.geomspace(1e-3, 1.0, 40)
    return [("omega", x, x ** 0.7 * (1.0 + 0.1 * np.sin(20.0 * x))),
            ("bound", x, 2.0 * x)]


def _field(n: int) -> np.ndarray:
    c = (np.arange(n) + 0.5) / n * 16.0 - 8.0
    X, Y = np.meshgrid(c, c, indexing="ij")
    return np.exp(-0.5 * ((X - 1.0) ** 2 + 0.5 * Y ** 2)) * (1.0 + 0.2 * np.tanh(X * Y))


class TestSvgGoldenBytes:
    # digests of the bytes the per-value writers wrote; whole-array formatting must match them
    def test_line_plot_linear_axes(self, tmp_path):
        svg.line_plot(str(tmp_path / "a.svg"), _line_series(), title="lines <&>",
                      xlabel="x1", ylabel="value")
        assert _digest(tmp_path / "a.svg") == LINEAR_DIGEST

    def test_line_plot_log_axes(self, tmp_path):
        svg.line_plot(str(tmp_path / "a.svg"), _log_series(), title="log-log",
                      xlabel="r", ylabel="omega", logx=True, logy=True)
        assert _digest(tmp_path / "a.svg") == LOG_DIGEST

    @pytest.mark.parametrize("n", [64, 256])
    def test_heatmap(self, tmp_path, n):
        svg.heatmap(str(tmp_path / "a.svg"), _field(n), 8.0, title=f"field n={n}")
        assert _digest(tmp_path / "a.svg") == HEATMAP_DIGESTS[n]


class TestHeatmapBlocks:
    @pytest.mark.parametrize("n,side", [(64, 64), (96, 48), (100, 50), (128, 64), (200, 50)])
    def test_at_most_max_blocks_per_side(self, tmp_path, n, side):
        svg.heatmap(str(tmp_path / "a.svg"), _field(n), 8.0)
        text = (tmp_path / "a.svg").read_text()
        # the background, the blocks and the frame
        assert text.count("<rect ") == 1 + side * side + 1

    def test_every_cell_is_shown(self, tmp_path):
        # regression: f = 3 does not divide n = 130, and the last row was dropped
        v = np.zeros((130, 130))
        v[-1] = 1.0
        svg.heatmap(str(tmp_path / "a.svg"), v, 8.0)
        text = (tmp_path / "a.svg").read_text()
        assert text.count("<rect ") == 1 + 44 * 44 + 1
        assert "values [0, 1]" in text
        # the last block along x1 holds the one row left over: 44 black blocks,
        # one cell (340 / 130 px, plus the 0.5 px overlap) wide, at the right edge
        assert text.count('fill="rgb(0,0,0)"') == 44
        assert text.count('x="401.38" y="60.15" width="3.12" height="8.35" fill="rgb(0,0,0)"') == 1
        assert text.count('x="401.38" y="34.00" width="3.12" height="3.12" fill="rgb(0,0,0)"') == 1

    def test_non_finite_values_are_refused(self, tmp_path):
        v = _field(8)
        v[3, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            svg.heatmap(str(tmp_path / "a.svg"), v, 8.0)


LINEAR_DIGEST = "1c4a5f683fa84f7221843c0c081419c6aed5959ddad35f78f05264c1eb9301d0"
LOG_DIGEST = "edcb49e71f683f26737fb8990bc28c5cacb038f65f7a6f7e635eac0436d0be25"
HEATMAP_DIGESTS = {
    64: "4ff182e232272f79e728123a2eeeb0c03dd41825811830ea4fa747b09ad55e60",
    256: "df42bfe40fd08c7e60abdb5c4d947bb61ef43cb0fab891dcfe90b5c9f748436a",
}
