import numpy as np
import pytest

from fpkit import DiffusionMatrixField, GridSpec, linear_drift


@pytest.fixture(scope="session")
def ou_1d():
    """Unit diffusion with b(x) = -x: the stationary density is N(0, 1)."""
    A = DiffusionMatrixField.from_constant(np.eye(1), 1.0)
    return A, linear_drift(1, 1.0)


@pytest.fixture(scope="session")
def ou_2d():
    A = DiffusionMatrixField.from_constant(np.eye(2), 1.0)
    return A, linear_drift(2, 1.0)


@pytest.fixture(scope="session")
def grid_1d():
    return GridSpec(1, 8.0, 512)


@pytest.fixture(scope="session")
def skewed_2d():
    """A = Q(30 deg) diag(1, 0.1) Q^T, a diffusion the fitted L_h cannot make monotone.

    Its |a^01| = 0.390 exceeds a^11 = 0.325, so no cell is dominant and L_h
    keeps the centered cross term, whose corner weights are negative. With
    b = -x at R = 8 its grid density clips 6.5e-2 of its mass at n = 16 and
    4.5e-2 at n = 32.
    """
    th = np.pi / 6.0
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return DiffusionMatrixField.from_constant(Q @ np.diag([1.0, 0.1]) @ Q.T, lam=0.1,
                                              name="skewed")
