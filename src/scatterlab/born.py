"""First Born amplitude and the lambda-resummed Born amplitude.

born1_amplitude is the plain first-order form

    f_B(q) = -(m/(2 pi hbar^2)) Vtilde(q),

always expressed through potentials.fourier3d, never re-derived inline.

born_resummed_amplitude evaluates the resummed series

    f = -(m/(2 pi hbar^2)) int d^3r e^{-i q.r} V(r)
        int_0^1 dlambda exp{-(i lambda/(hbar v)) int dz' V(x, y, z')},

which for a radial potential collapses to a Hankel integral over the
impact parameter of w(b) * Lambda(chi(b)), where w(b) = int_-inf^inf V dz,
chi(b) = -w(b)/(hbar v), and Lambda(x) = (e^{ix}-1)/(ix) is the closed form
of the lambda integral. w(b) is read from eikonal._z_profile, which
integrates it once per potential and impact parameter and shares each
value with the eikonal route's quadrature phase (callers on several
threads may integrate the same b, to the same bits). So the
documented equality of the two amplitudes at small angle checks the
Lambda algebra and the two Hankel integrands against each other.
"""

from dataclasses import dataclass, field

import numpy as np

from .eikonal import _amplitude, _check_theta, _z_profile, momentum_transfer
from .errors import DomainError
# The z-profile integrals run in eikonal._z_profile; evaluate and the two
# integrators are bound here only because perfbench/tracer.py rebinds them
# in born's namespace as well.
from .potentials import evaluate, fourier3d  # noqa: F401
from .quadrature import (QuadratureSettings, hankel0,  # noqa: F401
                         integrate_adaptive, integrate_semi_infinite)

__all__ = [
    "BornSettings",
    "born1_amplitude",
    "born_resummed_amplitude",
]


@dataclass(frozen=True)
class BornSettings:
    """lambda_nodes sets the Gauss-Legendre order for the numeric-lambda
    cross-check mode; spatial carries the quadrature tolerances."""

    lambda_nodes: int = 12
    spatial: QuadratureSettings = field(default_factory=QuadratureSettings)

    def __post_init__(self):
        if self.lambda_nodes < 4:
            raise DomainError("lambda_nodes must be >= 4")


DEFAULT_BORN = BornSettings()


def born1_amplitude(p, kin, theta):
    """First Born amplitude at one angle, or at every angle of a 1-d theta
    array in one fourier3d call (fields are then arrays), q = 2k sin(theta/2).
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim > 1:
        raise DomainError("theta must be a scalar or a 1-d array")
    q = momentum_transfer(kin.k, th)
    value = -(kin.mass / (2.0 * np.pi * kin.hbar**2)) * fourier3d(p, q)
    return _amplitude(theta, th, q, np.asarray(value, dtype=complex),
                      np.zeros(th.shape))


def _lambda_factor(x):
    """Lambda(x) = (e^{ix} - 1)/(ix), the closed-form lambda integral.

    e^{ix} - 1 is written as -2 sin^2(x/2) + i sin(x) so the real part
    does not cancel; below |x| = 1e-4 the Taylor series takes over.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)  # dummy where the series is used
    num = -2.0 * np.sin(xs / 2.0) ** 2 + 1j * np.sin(xs)
    direct = num / (1j * xs)
    series = 1.0 + 1j * x / 2.0 - x * x / 6.0 - 1j * x**3 / 24.0
    return np.where(small, series, direct)


def _lambda_factor_numeric(x, nodes):
    """int_0^1 e^{i lambda x} dlambda by Gauss-Legendre, cross-check mode."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    lam = 0.5 * (t + 1.0)
    wl = 0.5 * w
    x = np.asarray(x, dtype=float)
    return np.sum(wl * np.exp(1j * np.outer(x, lam)), axis=-1)


def born_resummed_amplitude(p, kin, theta, settings=DEFAULT_BORN, *,
                            lambda_numeric=False):
    """Resummed Born amplitude at one (small) angle, or at every angle of a
    1-d theta array in one Hankel pass (fields are then arrays).

    lambda_numeric swaps the closed-form lambda integral for an explicit
    lambda_nodes-point rule; the two must agree to quadrature accuracy.
    """
    th = _check_theta(theta)
    q = momentum_transfer(kin.k, th)
    hv = kin.hbar * kin.v
    spatial = settings.spatial

    def g(b):
        b = np.asarray(b, dtype=float)
        w = _z_profile(p, b.ravel(), spatial)
        x = -w / hv
        if lambda_numeric:
            lam = _lambda_factor_numeric(x, settings.lambda_nodes)
        else:
            lam = _lambda_factor(x)
        return (w * lam).reshape(b.shape)

    res = hankel0(g, q, spatial)
    value = -(kin.mass / kin.hbar**2) * np.asarray(res.value, dtype=complex)
    err = (kin.mass / kin.hbar**2) * res.error_estimate
    return _amplitude(theta, th, q, value, err)
