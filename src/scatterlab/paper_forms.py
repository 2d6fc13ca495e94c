"""The reference paper's closed forms, the only place they are written.

Each form is evaluated verbatim, suspected typos included (epsilon factors
dropped), and after the single edit that the reference-formula checks
report: the sign of the Yukawa q^2 (k^2) term, the Gauss |f|^2 decay rate
and the factor 2 of the Gauss total. They are comparison targets, never
ground truth. Every form is elementwise over arrays of theta or q.

The forms run in Python floats as written, in the same order, so their
bits do not move. They are written in units with hbar = 1, v = k/mass.
A prefactor that leaves the float range, overflowing or underflowing to 0
while g is not 0, raises RangeError naming the parameter it is keyed to
(g, mu, alpha, or k for v); run_scan records that as skipped checks. An
angle-dependent term that overflows in numpy takes its limit silently:
the Yukawa denominator goes to inf and the form to 0, and a value beside
the Yukawa pole may be inf.
"""

import math

import numpy as np

from .errors import PoleError, RangeError, UnsupportedModelError
from .potentials import Gauss, Yukawa
from .special_functions import libm_exp


def _check(p):
    if not isinstance(p, (Yukawa, Gauss)):
        raise UnsupportedModelError(
            "reference closed forms exist only for Yukawa and Gauss")


def _fit(value, key, what, zero=False):
    """value, a factor of a form in Python floats, if it is finite and, when
    zero is False, nonzero; else RangeError naming the parameter key. A
    factor in g may be 0 when g is."""
    if math.isfinite(value) and (zero or value != 0.0):
        return value
    raise RangeError(f"{key} out of range for the reference closed forms: "
                     f"{what} is {value!r} in floats", key=key)


def _pow(x, n, key, what):
    """x**n in libm pow, as the forms are written, checked by _fit."""
    try:
        return _fit(x**n, key, what, zero=x == 0.0)
    except OverflowError:
        return _fit(math.inf, key, what)


def _v(kin):
    return _fit(kin.v, "k", "v = k/mass")


def _coupling(p, kin, n=1):
    """(g k/v)^n, checked."""
    c = _fit(p.g * kin.k / _v(kin), "g", "g k/v", p.g == 0.0)
    return c if n == 1 else _pow(c, n, "g", f"(g k/v)^{n}")


def _yukawa_pole(mu2, x2):
    """Where the verbatim Yukawa denominator mu^2 - x2 is within 1e-9 of
    mu^2 + x2: x2 = (k theta)^2 in the amplitude, 4 k^2 in the total. An x2
    that overflowed is far from it."""
    return (np.abs(mu2 - x2) <= 1e-9 * (mu2 + x2)) & (x2 < np.inf)


def amplitude(p, kin, theta):
    """Verbatim amplitude at each theta (small-angle q), complex, nan + nan j
    at a Yukawa pole. Yukawa: (2 g k/v)/(mu^2 - k^2 theta^2); Gauss:
    (1/(2 alpha)) sqrt(pi/alpha) (g k/v) exp(-k^2 theta^2/(8 alpha)).
    Out-of-range prefactors raise RangeError (see the module docstring)."""
    _check(p)
    with np.errstate(over="ignore"):
        kt2 = (kin.k * np.asarray(theta, dtype=float)) ** 2
        if isinstance(p, Yukawa):
            mu2 = _pow(p.mu, 2, "mu", "mu^2")
            pole = _yukawa_pole(mu2, kt2)
            value = 2.0 * _coupling(p, kin) / np.where(pole, 1.0, mu2 - kt2)
            return np.where(pole, complex(np.nan, np.nan), value)
        a = p.alpha
        width = _fit((0.5 / a) * math.sqrt(np.pi / a), "alpha",
                     "(1/(2 alpha)) sqrt(pi/alpha)")
        scale = _fit(width * _coupling(p, kin), "g",
                     "the Gauss amplitude at theta = 0", p.g == 0.0)
        return (scale * libm_exp(-kt2 / (8.0 * a))).astype(complex)


def _yukawa_dsigma(p, kin, denom):
    """4 (g k/v)^2 / denom^2, nan where denom^2 is 0."""
    scale = _fit(4.0 * _coupling(p, kin, 2), "g", "4 (g k/v)^2",
                 p.g == 0.0)
    d2 = denom * denom
    return np.where(d2 > 0.0, scale / np.where(d2 > 0.0, d2, 1.0), np.nan)


def _gauss_dsigma(p, kin, exponent):
    width = _fit(np.pi / (4.0 * _pow(p.alpha, 3, "alpha", "alpha^3")),
                 "alpha", "pi/(4 alpha^3)")
    return _fit(width * _coupling(p, kin, 2), "g", "|f|^2 at theta = 0",
                p.g == 0.0) * libm_exp(exponent)


def dsigma(p, kin, theta, q):
    """Verbatim |f|^2 at each angle: the Yukawa form with the exact
    q = 2k sin(theta/2) substituted (nan at its pole); the Gauss form in
    k theta as printed, which reads theta only."""
    _check(p)
    with np.errstate(over="ignore"):
        if isinstance(p, Yukawa):
            return _yukawa_dsigma(p, kin, _pow(p.mu, 2, "mu", "mu^2")
                                  - q * q)
        return _gauss_dsigma(p, kin,
                             -((kin.k * theta) ** 2) / (4.0 * p.alpha))


def dsigma_corrected(p, kin, q):
    """|f|^2 after the single edit, at each momentum transfer q."""
    _check(p)
    with np.errstate(over="ignore"):
        if isinstance(p, Yukawa):
            return _yukawa_dsigma(p, kin, _pow(p.mu, 2, "mu", "mu^2")
                                  + q * q)
        return _gauss_dsigma(p, kin, -q * q / (2.0 * p.alpha))


def _yukawa_total(p, kin, denom):
    num = _fit(16.0 * np.pi * _pow(p.g * kin.k, 2, "g", "(g k)^2"), "g",
               "16 pi (g k)^2", p.g == 0.0)
    den = _fit(_pow(kin.v, 2, "k", "v^2 = (k/mass)^2")
               * _pow(p.mu, 2, "mu", "mu^2") * denom, "mu",
               "v^2 mu^2 (mu^2 -+ 4 k^2)")
    return _fit(num / den, "g", "the Yukawa total", p.g == 0.0)


def _four_k2(kin):
    return _fit(4.0 * kin.k * kin.k, "k", "4 k^2", zero=True)


def total(p, kin):
    """Verbatim total cross section. Yukawa: 16 pi (g k)^2 /
    (v^2 mu^2 (mu^2 - 4 k^2)), PoleError at mu^2 = 4 k^2; Gauss:
    (pi^2/(2 alpha^2)) (g/v)^2 (1 - e^{-k^2/alpha}). A total out of
    the float range is a RangeError too."""
    _check(p)
    if isinstance(p, Yukawa):
        k2 = _four_k2(kin)
        mu2 = _pow(p.mu, 2, "mu", "mu^2")
        if _yukawa_pole(mu2, k2):
            raise PoleError("reference total has a pole at mu^2 = 4 k^2")
        return _yukawa_total(p, kin, mu2 - k2)
    width = _fit(np.pi**2 / (2.0 * _pow(p.alpha, 2, "alpha", "alpha^2")),
                 "alpha", "pi^2/(2 alpha^2)")
    scale = _fit(width * _pow(_fit(p.g / _v(kin), "g", "g/v", p.g == 0.0),
                              2, "g", "(g/v)^2"),
                 "g", "(pi^2/(2 alpha^2)) (g/v)^2", p.g == 0.0)
    # -expm1 keeps the low-k limit finite instead of 0/0 noise
    return _fit(scale * (-math.expm1(-kin.k * kin.k / p.alpha)), "k",
                "the Gauss total", p.g == 0.0)


def total_corrected(p, kin):
    """Total cross section after the single edit; it has no pole. The Gauss
    edit doubles the prefactor."""
    _check(p)
    if isinstance(p, Yukawa):
        return _yukawa_total(p, kin, _pow(p.mu, 2, "mu", "mu^2")
                             + _four_k2(kin))
    return _fit(2.0 * total(p, kin), "g", "the Gauss total", p.g == 0.0)
