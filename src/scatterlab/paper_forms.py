"""The reference paper's closed forms, the only place they are written.

Each form is evaluated verbatim, suspected typos included (epsilon factors
dropped), and after the single edit that the reference-formula checks
report: the sign of the Yukawa q^2 (k^2) term, the Gauss |f|^2 decay rate
and the factor 2 of the Gauss total. They are comparison targets, never
ground truth. Every form is elementwise over arrays of theta or q.
"""

import math

import numpy as np

from .errors import PoleError, UnsupportedModelError
from .potentials import Gauss, Yukawa

# libm's exp per element: np.exp moves a few percent of the amplitudes by
# one ulp against the math.exp the paper_closed column was written with
_libm_exp = np.vectorize(math.exp, otypes=[float])


def _check(p):
    if not isinstance(p, (Yukawa, Gauss)):
        raise UnsupportedModelError(
            "reference closed forms exist only for Yukawa and Gauss")


def _yukawa_pole(mu, x2):
    """Where the verbatim Yukawa denominator mu^2 - x2 is within 1e-9 of
    mu^2 + x2: x2 = (k theta)^2 in the amplitude, 4 k^2 in the total."""
    return np.abs(mu**2 - x2) <= 1e-9 * (mu**2 + x2)


def amplitude(p, kin, theta):
    """Verbatim amplitude at each theta (small-angle q), complex, nan + nan j
    at a Yukawa pole. Yukawa: (2 g k/hbar v)/(mu^2 - k^2 theta^2); Gauss:
    (1/(2 alpha)) sqrt(pi/alpha) (g k/hbar v) exp(-k^2 theta^2/(8 alpha))."""
    _check(p)
    hv = kin.hbar * kin.v
    kt2 = (kin.k * np.asarray(theta, dtype=float)) ** 2
    if isinstance(p, Yukawa):
        pole = _yukawa_pole(p.mu, kt2)
        value = (2.0 * p.g * kin.k / hv) / np.where(pole, 1.0, p.mu**2 - kt2)
        return np.where(pole, complex(np.nan, np.nan), value)
    a = p.alpha
    return ((0.5 / a) * math.sqrt(np.pi / a) * (p.g * kin.k / hv)
            * _libm_exp(-kt2 / (8.0 * a))).astype(complex)


def _yukawa_dsigma(p, kin, denom):
    """4 (g k/hbar v)^2 / denom^2, nan where denom^2 is 0."""
    d2 = denom * denom
    return np.where(d2 > 0.0, 4.0 * (p.g * kin.k / (kin.hbar * kin.v)) ** 2
                    / np.where(d2 > 0.0, d2, 1.0), np.nan)


def _gauss_dsigma(p, kin, exponent):
    return (np.pi / (4.0 * p.alpha**3)) * (
        p.g * kin.k / (kin.hbar * kin.v)) ** 2 * np.exp(exponent)


def dsigma(p, kin, theta, q):
    """Verbatim |f|^2 at each angle: the Yukawa form with the exact
    q = 2k sin(theta/2) substituted (nan at its pole); the Gauss form in
    k theta as printed, which reads theta only."""
    _check(p)
    if isinstance(p, Yukawa):
        return _yukawa_dsigma(p, kin, p.mu**2 - q * q)
    return _gauss_dsigma(p, kin, -((kin.k * theta) ** 2) / (4.0 * p.alpha))


def dsigma_corrected(p, kin, q):
    """|f|^2 after the single edit, at each momentum transfer q."""
    _check(p)
    if isinstance(p, Yukawa):
        return _yukawa_dsigma(p, kin, p.mu**2 + q * q)
    return _gauss_dsigma(p, kin, -q * q / (2.0 * p.alpha))


def _yukawa_total(p, kin, denom):
    return 16.0 * np.pi * (p.g * kin.k) ** 2 / (kin.v**2 * p.mu**2 * denom)


def total(p, kin):
    """Verbatim total cross section. Yukawa: 16 pi (g k)^2 /
    (v^2 mu^2 (mu^2 - 4 k^2)), PoleError at mu^2 = 4 k^2; Gauss:
    (pi^2/(2 alpha^2)) (g/hbar v)^2 (1 - e^{-k^2/alpha})."""
    _check(p)
    if isinstance(p, Yukawa):
        k2 = 4.0 * kin.k * kin.k
        if _yukawa_pole(p.mu, k2):
            raise PoleError("reference total has a pole at mu^2 = 4 k^2")
        return _yukawa_total(p, kin, p.mu**2 - k2)
    # -expm1 keeps the low-k limit finite instead of 0/0 noise
    return (np.pi**2 / (2.0 * p.alpha**2)) * (p.g / (kin.hbar * kin.v)) ** 2 \
        * (-math.expm1(-kin.k * kin.k / p.alpha))


def total_corrected(p, kin):
    """Total cross section after the single edit; it has no pole. The Gauss
    edit doubles the prefactor."""
    _check(p)
    if isinstance(p, Yukawa):
        return _yukawa_total(p, kin, p.mu**2 + 4.0 * kin.k * kin.k)
    return 2.0 * total(p, kin)
