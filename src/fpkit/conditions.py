"""Verification of the standing coefficient assumptions.

A coefficient pair (A, b) qualifies for the solver and stability machinery
when, on the working box,

* ellipticity: lambda I <= A(x) <= lambda^{-1} I for the declared lambda,
  with each entry of A of Dini mean oscillation, and
* confinement and growth: <b(x), x> <= beta1 - beta2 |x|^2 and
  |b(x)| <= beta3 (1 + |x|)^beta with beta >= 1.

The checks here sample the clauses on a deterministic box grid and attach a
witness point to any violation. They also report the sharpest constants the
samples support (largest admissible beta2 given beta1, tightest beta3), which
is how the declared constants of a hand-built drift are audited.

Verdicts are sampled statements, not proofs: a clause that fails is
definitely violated at the witness, while a clause that passes holds on the
sample. Enlarging the box can only preserve or flip a pass to a failure.

`check_condition_h` reports each clause's verdict, margin and witness and
never raises on a failing clause: whether a failure is fatal is the caller's
decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DiffusionMatrixField, DriftField
from .oscillation import OscillationModulus, SamplingSpec, dini_integral, dini_mean_oscillation

OSC_RADII = np.geomspace(2e-3, 0.4, 10)  # radii of the Dini clause's oscillation samples
T0 = 0.5  # upper limit of the Dini integral
TOL = 1e-9  # a clause passes where its sampled margin is at least -TOL


@dataclass(frozen=True)
class ClauseVerdict:
    """Outcome of one clause: margin is min over samples of (bound - value)."""

    clause: str
    passed: bool
    margin: float
    witness: np.ndarray | None
    detail: str = ""


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """All clause verdicts plus the sharpest constants the samples support."""

    passed: bool
    clauses: tuple[ClauseVerdict, ...]
    lam: float
    beta: float
    beta1: float
    beta2: float
    beta3: float
    largest_beta2: float
    tightest_beta3: float
    entry_moduli: tuple[OscillationModulus, ...]
    box_radius: float

    def clause(self, name: str) -> ClauseVerdict:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)


def _box_samples(dim: int, radius: float, n: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, n)
    if dim == 1:
        return axis[:, None]
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


def check_condition_h(A: DiffusionMatrixField, b: DriftField, box_radius: float = 4.0,
                      n_samples: int = 33) -> ConditionReport:
    """Audit the standing assumptions on the box [-box_radius, box_radius]^d.

    Clause names: "ellipticity" (eigenvalues inside [lambda, 1/lambda]),
    "dini" (every entry modulus passes the Dini integral test on the radii
    OSC_RADII, sampled in the box of radius min(box_radius, 1)),
    "confinement" (<b, x> <= beta1 - beta2 |x|^2), and "growth"
    (|b| <= beta3 (1 + |x|)^beta). The report holds every clause's verdict,
    and a failing clause carries a witness point. Nothing is raised for a
    failing clause: the caller decides whether a failure is fatal.
    """
    if A.dim != b.dim:
        raise ValueError("diffusion and drift dimensions differ")
    d = A.dim
    pts = _box_samples(d, box_radius, n_samples)
    clauses: list[ClauseVerdict] = []

    lo, hi = A.eigenvalues(pts)
    margin = np.minimum(lo - A.lam, 1.0 / A.lam - hi)
    i = int(np.argmin(margin))
    clauses.append(ClauseVerdict(
        "ellipticity", bool(margin[i] >= -TOL), float(margin[i]),
        pts[i] if margin[i] < -TOL else None,
        f"sampled eigenvalues in [{lo.min():.6g}, {hi.max():.6g}], "
        f"window [{A.lam:.6g}, {1.0 / A.lam:.6g}]"))

    sampling = SamplingSpec(box_radius=min(box_radius, 1.0))
    moduli = []
    dini_ok = True
    worst = ""
    for (i0, j0) in sorted({(min(i, j), max(i, j)) for i in range(d) for j in range(d)}):
        f = A.entry(i0, j0)
        mod = dini_mean_oscillation(f, OSC_RADII, sampling, t0=T0)
        mod = mod.with_dini(dini_integral(mod, t0=T0))
        moduli.append(mod)
        if not mod.dini.finite:
            dini_ok = False
            worst = f"entry ({i0},{j0}) [{f.name}] has divergent oscillation integral"
    clauses.append(ClauseVerdict("dini", dini_ok, 0.0, None,
                                 worst or "all entry oscillation integrals finite"))

    g = b.growth
    bv = b.values(pts)
    r2 = np.sum(pts * pts, axis=1)
    bx = np.einsum("ni,ni->n", bv, pts)
    conf_margin = g.beta1 - g.beta2 * r2 - bx
    i = int(np.argmin(conf_margin))
    clauses.append(ClauseVerdict(
        "confinement", bool(conf_margin[i] >= -TOL), float(conf_margin[i]),
        pts[i] if conf_margin[i] < -TOL else None,
        f"min of beta1 - beta2 |x|^2 - <b, x> is {conf_margin[i]:.6g}"))
    pos = r2 > 1e-18
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (g.beta1 - bx[pos]) / r2[pos]
    largest_beta2 = float(max(ratios.min(), 0.0)) if pos.any() else 0.0

    speed = np.sqrt(np.sum(bv * bv, axis=1))
    env = (1.0 + np.sqrt(r2)) ** g.beta
    grow_margin = g.beta3 * env - speed
    i = int(np.argmin(grow_margin))
    clauses.append(ClauseVerdict(
        "growth", bool(grow_margin[i] >= -TOL), float(grow_margin[i]),
        pts[i] if grow_margin[i] < -TOL else None,
        f"min of beta3 (1+|x|)^beta - |b| is {grow_margin[i]:.6g}"))
    tightest_beta3 = float((speed / env).max())

    return ConditionReport(
        passed=all(c.passed for c in clauses), clauses=tuple(clauses),
        lam=A.lam, beta=g.beta, beta1=g.beta1, beta2=g.beta2, beta3=g.beta3,
        largest_beta2=largest_beta2, tightest_beta3=tightest_beta3,
        entry_moduli=tuple(moduli), box_radius=float(box_radius))
