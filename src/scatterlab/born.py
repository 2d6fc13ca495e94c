"""First Born amplitude and the lambda-resummed Born amplitude.

born1_amplitude is the plain first-order form

    f_B(q) = -(m/(2 pi)) Vtilde(q),

in units with hbar = 1, always expressed through potentials.fourier3d,
never re-derived inline.

born_resummed_amplitude evaluates the resummed series

    f = -(m/(2 pi)) int d^3r e^{-i q.r} V(r)
        int_0^1 dlambda exp{-(i lambda/v) int dz' V(x, y, z')},

which for a radial potential collapses to a Hankel integral over the
impact parameter of w(b) * Lambda(chi(b)), where w(b) = int_-inf^inf V dz,
chi(b) = -w(b)/v with v = k/m, and Lambda(x) = (e^{ix}-1)/(ix) is the
closed form of the lambda integral. As w Lambda(chi) = i v (e^{i chi} - 1),
that is the eikonal's integral, so born_resummed takes the eikonal's z-profile
pass, eikonal._profile_amplitude, for every model: on a table it is the
table's eikonal, to the bit. Each call runs its own pass; a run takes a
table's pass once per k for both (runner.run_scan). For Yukawa and Gauss
the eikonal takes its first order in chi, the first Born amplitude, from
fourier3d and its phase in closed form, so the two amplitudes' equality
checks that split. On a table born1_amplitude reports the error bound of
quadrature.integrate_sin's exact series on each spline piece, and reads no
setting.
"""

import numpy as np

from .eikonal import (_amplitude, _check_theta, _profile_amplitude,
                      momentum_transfer)
from .potentials import fourier3d
from .quadrature import DEFAULT_SETTINGS
# The z-profile integrals and their Hankel pass run in eikonal; evaluate,
# hankel0 and the two integrators are bound here only because
# perfbench/tracer.py rebinds them in born's namespace as well.
from .potentials import evaluate  # noqa: F401
from .quadrature import hankel0  # noqa: F401
from .quadrature import integrate_adaptive  # noqa: F401
from .quadrature import integrate_semi_infinite  # noqa: F401

__all__ = [
    "born1_amplitude",
    "born_resummed_amplitude",
]


def born1_amplitude(p, kin, theta):
    """First Born amplitude at one angle, or at every angle of a 1-d theta
    array in one fourier3d call (fields are then arrays), q = 2k sin(theta/2).
    """
    q = momentum_transfer(kin.k, theta)
    th = np.asarray(theta, dtype=float)
    vt, vt_err = fourier3d(p, q, with_error=True)
    return _amplitude(theta, th, q,
                      np.asarray(-kin.born_scale * vt, dtype=complex),
                      kin.born_scale * np.asarray(vt_err))


def born_resummed_amplitude(p, kin, theta, settings=DEFAULT_SETTINGS):
    """Resummed Born amplitude at one (small) angle, or at every angle of a
    1-d theta array in one Hankel pass (fields are then arrays)."""
    th, q = _check_theta(kin.k, theta)
    return _amplitude(theta, th, q, *_profile_amplitude(p, kin, q, settings))
