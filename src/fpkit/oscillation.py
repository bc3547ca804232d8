"""Mean-oscillation moduli and the Dini integral test.

The mean oscillation of a field f at radius r is the ball average of
|f - f_B| over B(x, r), maximized over sampled centers x. The Dini condition
asks whether the integral of omega(t)/t converges at 0; on sampled curves the
integral over the sampled range is computed by trapezoid in log t, and the
unsampled tail [0, r_min) is extrapolated from a fit of the smallest sampled
decade.

Two tail models are fitted: a power law omega ~ A t^s (finite tail iff s > 0)
and a logarithmic decay omega ~ A |ln t|^{-g} (finite tail iff g > 1). The
better-fitting model decides the verdict; a pure power fit cannot tell a
divergent 1/|ln t| from a convergent |ln t|^{-3/2}, both of which occur as
worked examples, so the second model is not optional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientResolutionError
from .fields import ScalarField
from .quadrature import ball_average_rule

_TINY = 1e-14


@dataclass(frozen=True)
class SamplingSpec:
    """Where and how oscillation is sampled.

    Centers are drawn uniformly from the box [-box_radius, box_radius]^d with
    the recorded seed; ball averages use a midpoint product rule with
    n_radial shells (and n_angular sectors when d = 2).
    """

    box_radius: float = 1.0
    n_centers: int = 24
    n_radial: int = 24
    n_angular: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.box_radius <= 0 or self.n_centers < 1 or self.n_radial < 1 or self.n_angular < 2:
            raise ValueError("invalid sampling spec")

    def centers(self, dim: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-self.box_radius, self.box_radius, size=(self.n_centers, dim))


@dataclass(frozen=True, eq=False)
class DiniEstimate:
    """Result of the Dini integral test on a sampled modulus."""

    value: float
    finite: bool
    tail_model: str           # "power", "log-modulus", or "zero"
    tail_exponent: float
    sampled_part: float
    tail_part: float


@dataclass(frozen=True, eq=False)
class OscillationModulus:
    """Sampled mean-oscillation curve of one scalar field.

    radii are strictly increasing; omega[j] is the sampled modulus at
    radii[j] (max over centers of the ball-averaged oscillation) and
    stderr[j] estimates its center-sampling error from block maxima.
    """

    radii: np.ndarray
    omega: np.ndarray
    stderr: np.ndarray
    t0: float
    sampling: SamplingSpec | None = None

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or len(r) < 1 or (np.diff(r) <= 0).any() or (r <= 0).any():
            raise ValueError("radii must be positive and strictly increasing")
        if np.asarray(self.omega).shape != r.shape or np.asarray(self.stderr).shape != r.shape:
            raise ValueError("omega/stderr must match radii in shape")
        if (np.asarray(self.omega) < -1e-15).any():
            raise ValueError("omega must be nonnegative")

    @classmethod
    def from_curve(cls, radii, omega, t0: float | None = None) -> "OscillationModulus":
        """Wrap a synthetic curve (no sampling metadata, zero stderr)."""
        radii = np.asarray(radii, dtype=float)
        omega = np.asarray(omega, dtype=float)
        return cls(radii=radii, omega=omega, stderr=np.zeros_like(omega),
                   t0=float(t0 if t0 is not None else radii[-1]))


def dini_mean_oscillation(f: ScalarField, radii, sampling: SamplingSpec | None = None,
                          t0: float | None = None) -> OscillationModulus:
    """Sample the mean-oscillation modulus of f on a radii grid.

    For each radius, the ball average of |f - f_B| is computed by midpoint
    quadrature around each sampled center; the modulus is the max over
    centers. The samples are f.values_on_sums(centers, offsets), one row per
    center, so a field that separates over sums (WeierstrassField) evaluates
    centers and offsets apart rather than every pair. The standard error is
    estimated from the spread of block maxima (4 blocks of centers), which is
    also the slack used by the mollification preservation checks.
    """
    sampling = sampling or SamplingSpec()
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or (radii <= 0).any() or (np.diff(radii) <= 0).any():
        raise ValueError("radii must be positive and strictly increasing")
    centers = sampling.centers(f.dim)
    K = centers.shape[0]
    omega = np.empty(len(radii))
    stderr = np.empty(len(radii))
    n_blocks = 4 if K >= 8 else (2 if K >= 2 else 1)
    for jr, r in enumerate(radii):
        offsets, w = ball_average_rule(np.zeros(f.dim), float(r), sampling.n_radial, sampling.n_angular)
        vals = f.values_on_sums(centers, offsets)
        avg = vals @ w
        osc = np.abs(vals - avg[:, None]) @ w
        omega[jr] = float(osc.max())
        if n_blocks > 1:
            blocks = np.array_split(osc, n_blocks)
            maxima = np.array([b.max() for b in blocks])
            stderr[jr] = float(maxima.std(ddof=1) / np.sqrt(n_blocks))
        else:
            stderr[jr] = 0.0
    return OscillationModulus(radii=radii, omega=omega, stderr=stderr,
                              t0=float(t0 if t0 is not None else radii[-1]),
                              sampling=sampling)


def fit_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """Least squares y = slope*x + intercept; returns (slope, intercept, sse)."""
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = ys - A @ sol
    return float(sol[0]), float(sol[1]), float(resid @ resid)


def dini_integral(modulus: OscillationModulus, t0: float | None = None) -> DiniEstimate:
    """Estimate the integral of omega(t)/t over (0, t0] and its finiteness.

    The sampled range [r_min, t0] is integrated by trapezoid in log t. The
    tail below r_min is extrapolated from whichever of the two decay models
    fits the smallest sampled decade better; its closed-form tail integral
    supplies the verdict. Requires at least 4 sampled radii at or below t0.
    """
    t0 = float(t0 if t0 is not None else modulus.t0)
    r = np.asarray(modulus.radii, dtype=float)
    om = np.asarray(modulus.omega, dtype=float)
    sel = r <= t0 * (1.0 + 1e-12)
    if sel.sum() < 4:
        raise InsufficientResolutionError(
            f"need at least 4 sampled radii at or below t0={t0:g}, have {int(sel.sum())}")
    r, om = r[sel], om[sel]

    if om.max() <= _TINY:
        return DiniEstimate(value=0.0, finite=True, tail_model="zero", tail_exponent=0.0,
                            sampled_part=0.0, tail_part=0.0)

    sampled = float(np.trapezoid(om, np.log(r)))

    # fit window: smallest sampled decade
    r_min = r[0]
    win = r <= min(10.0 * r_min, t0)
    rw = r[win]
    ow = np.maximum(om[win], _TINY)
    if len(rw) < 3 or rw[-1] >= 1.0:
        # too few points for a decade fit, or radii too large for |ln t| to make
        # sense; fall back to the power model on whatever is available
        win = slice(0, max(3, min(4, len(r))))
        rw = r[win]
        ow = np.maximum(om[win], _TINY)

    s_pow, c_pow, sse_pow = fit_line(np.log(rw), np.log(ow))
    use_log_model = bool((rw < 1.0).all())
    if use_log_model:
        g_log, c_log, sse_log = fit_line(np.log(np.log(1.0 / rw)), np.log(ow))
        g_log = -g_log
    else:
        g_log, c_log, sse_log = 0.0, 0.0, np.inf

    L_min = np.log(1.0 / r_min) if r_min < 1.0 else None
    if sse_log < sse_pow and L_min is not None:
        model, expo = "log-modulus", g_log
        if g_log > 1.0 + 1e-9:
            tail = float(np.exp(c_log) * L_min ** (1.0 - g_log) / (g_log - 1.0))
            finite = True
        else:
            tail, finite = np.inf, False
    else:
        model, expo = "power", s_pow
        if s_pow > 1e-4:
            tail = float(np.exp(c_pow) * r_min ** s_pow / s_pow)
            finite = True
        else:
            tail, finite = np.inf, False

    value = sampled + tail if finite else np.inf
    return DiniEstimate(value=value, finite=finite, tail_model=model, tail_exponent=expo,
                        sampled_part=sampled, tail_part=tail)
