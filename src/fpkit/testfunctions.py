"""Compactly supported smooth test functions with closed-form derivatives.

Used wherever a weak formulation or duality identity needs second derivatives
that are exact rather than differenced: weak-form residuals, duality checks,
and the randomized test families in the acceptance suite.
"""

from __future__ import annotations

import numpy as np


class SmoothTestFunction:
    """Interface: value, gradient, Hessian, and a support ball (center, radius)."""

    dim: int
    center: np.ndarray
    support_radius: float

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def scaled(self, c: float) -> "ScaledTestFunction":
        return ScaledTestFunction(self, c)


class BumpFunction(SmoothTestFunction):
    """phi(x) = exp(1 - 1/(1 - s)) with s = |x - c|^2 / w^2, zero for s >= 1.

    Normalized so phi(c) = 1. Smooth everywhere; derivatives are computed from
    the closed forms B'(s) = -B(s)/(1-s)^2 and B''(s) = B(s)(2s-1)/(1-s)^4
    via the chain rule in s, which is itself a polynomial in x.
    """

    def __init__(self, center, width: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.dim = self.center.shape[0]
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = float(width)
        self.support_radius = float(width)

    def _s(self, x):
        y = x - self.center[None, :]
        return np.sum(y * y, axis=1) / self.width ** 2, y

    @staticmethod
    def _profile(s):
        b = np.zeros_like(s)
        inside = s < 1.0
        b[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return b, inside

    def value(self, x):
        s, _ = self._s(np.asarray(x, dtype=float))
        b, _ = self._profile(s)
        return b

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        s, y = self._s(x)
        b, inside = self._profile(s)
        dbds = np.zeros_like(s)
        dbds[inside] = -b[inside] / (1.0 - s[inside]) ** 2
        return dbds[:, None] * (2.0 * y / self.width ** 2)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        s, y = self._s(x)
        b, inside = self._profile(s)
        dbds = np.zeros_like(s)
        d2bds = np.zeros_like(s)
        one_m = 1.0 - s[inside]
        dbds[inside] = -b[inside] / one_m ** 2
        d2bds[inside] = b[inside] * (2.0 * s[inside] - 1.0) / one_m ** 4
        # s_x = 2y/w^2, s_xx = 2I/w^2
        m, d = x.shape
        sy = 2.0 * y / self.width ** 2
        out = d2bds[:, None, None] * (sy[:, :, None] * sy[:, None, :])
        out += dbds[:, None, None] * (2.0 / self.width ** 2) * np.eye(d)[None, :, :]
        return out


class ScaledTestFunction(SmoothTestFunction):
    """c * phi for a base test function phi."""

    def __init__(self, base: SmoothTestFunction, c: float):
        self.base = base
        self.c = float(c)
        self.dim = base.dim
        self.center = base.center
        self.support_radius = base.support_radius

    def value(self, x):
        return self.c * self.base.value(x)

    def grad(self, x):
        return self.c * self.base.grad(x)

    def hess(self, x):
        return self.c * self.base.hess(x)


def random_bumps(rng: np.random.Generator, count: int, dim: int,
                 box_radius: float) -> list[BumpFunction]:
    """Seeded family of bump functions whose supports stay inside the box.

    Widths are drawn from [0.5, 2], and centers so that center +- width
    remains within box_radius.
    """
    out = []
    for _ in range(count):
        w = float(rng.uniform(0.5, 2.0))
        c = rng.uniform(-(box_radius - w), box_radius - w, size=dim)
        out.append(BumpFunction(c, w))
    return out
