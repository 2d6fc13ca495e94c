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
of the lambda integral. Its e^{ix} - 1 is special_functions.expm1i, the
one cancellation-free form that the eikonal and partial-wave amplitudes
use too. w(b) is read from eikonal._z_profile, the one profile per
potential and setting that the eikonal route's quadrature phase reads
too, each w with a bound on its error (see eikonal). So the documented
equality of the two amplitudes at small angle checks the Lambda algebra
and the two Hankel integrands against each other. On a table
born1_amplitude reports the a-priori error bound of fourier3d's fixed
Gauss rule, whose piece budget is the settings' max_subdivisions.
"""

import numpy as np

from .eikonal import _amplitude, _check_theta, _z_profile, momentum_transfer
from .errors import DomainError
from .potentials import reach
# The z-profile integrals run in eikonal._z_profile; evaluate and the two
# integrators are bound here only because perfbench/tracer.py rebinds them
# in born's namespace as well.
from .potentials import evaluate, fourier3d  # noqa: F401
from .quadrature import (DEFAULT_SETTINGS, hankel0,  # noqa: F401
                         integrate_adaptive, integrate_semi_infinite)
from .special_functions import expm1i

__all__ = [
    "born1_amplitude",
    "born_resummed_amplitude",
]


def born1_amplitude(p, kin, theta, settings=DEFAULT_SETTINGS):
    """First Born amplitude at one angle, or at every angle of a 1-d theta
    array in one fourier3d call (fields are then arrays), q = 2k sin(theta/2).
    settings.max_subdivisions caps the pieces of a table's transform.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim > 1:
        raise DomainError("theta must be a scalar or a 1-d array")
    q = momentum_transfer(kin.k, th)
    vt, vt_err = fourier3d(p, q, settings, with_error=True)
    scale = kin.mass / (2.0 * np.pi * kin.hbar**2)
    return _amplitude(theta, th, q, np.asarray(-scale * vt, dtype=complex),
                      scale * np.asarray(vt_err))


def _lambda_factor(x):
    """Lambda(x) = (e^{ix} - 1)/(ix), the closed-form lambda integral, with
    its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    xs = np.where(x == 0.0, 1.0, x)  # dummy where the limit is used
    return np.where(x == 0.0, 1.0, expm1i(xs) / (1j * xs))


def born_resummed_amplitude(p, kin, theta, settings=DEFAULT_SETTINGS):
    """Resummed Born amplitude at one (small) angle, or at every angle of a
    1-d theta array in one Hankel pass (fields are then arrays)."""
    th = _check_theta(theta)
    q = momentum_transfer(kin.k, th)
    hv = kin.hbar * kin.v
    upper, tail = reach(p)
    profile = _z_profile(p, settings)

    def g(b):
        w, err = profile(b)
        # d(w Lambda(-w/(hbar v)))/dw = e^{i chi}, of modulus 1
        return w * _lambda_factor(-w / hv), err

    res = hankel0(g, q, upper, settings)
    value = -(kin.mass / kin.hbar**2) * np.asarray(res.value, dtype=complex)
    # beyond reach, |w Lambda| <= |w|
    err = (kin.mass / kin.hbar**2) * (res.error_estimate + tail)
    return _amplitude(theta, th, q, value, err)
