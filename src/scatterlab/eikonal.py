"""Eikonal phase and the Glauber amplitude.

The amplitude engine implements

    f(theta) = -i k int_0^inf J0(q b) (e^{i chi(b)} - 1) b db,
    chi(b)   = -(1/v) int_{-inf}^{inf} V(sqrt(b^2 + z^2)) dz,

with q = 2 k sin(theta/2) and v = k/m, in units with hbar = 1. Both
phase routes form e^{i chi} - 1 as -2 sin^2(chi/2) + i sin chi
(special_functions.expm1i), so Im f, of order chi^2 in a weak field, keeps
its digits. The sign convention is the minus in chi, uniformly; reference
closed forms that differ are evaluated verbatim (by paper_forms, through
amplitude_paper_closed) and compared in reports, never silently corrected.

chi has two routes, verified against each other: chi_closed (K0 /
Gaussian closed forms, analytic models only) and chi (the z-integral of
_z_profile, any model). amplitude_eikonal takes its route from the model.

Yukawa and Gauss write e^{i chi} - 1 as i chi + (e^{i chi} - 1 - i chi).
The transform of i chi is the first Born amplitude -(m/(2 pi)) Vtilde(q)
(Glauber 1959), taken in closed form from potentials.fourier3d
at the same q; hankel0 integrates only the remainder, at most chi^2/2 in
modulus, over [0, R2], R2 about 18.2/mu or 4.24/sqrt(alpha), where a
closed-form bound on its tail falls to eps of the whole; k times that
pass's error and the bound, plus 4 eps of the Born term for its rounding,
is the error_estimate.

A table's phase comes from its z-profile w(b) = int V dz, in one pass
over e^{i chi} - 1, _profile_amplitude. born_resummed_amplitude, whose
w Lambda(chi) is i v (e^{i chi} - 1), takes that pass for every
model: a table's two routes are one, and for Yukawa and Gauss it checks
the split. Nothing is kept between calls: each call runs its own pass,
and _z_profile computes w at each b it is given; a run shares a table's
pass at one k between the two routes (runner.run_scan). A table's w is
the exact Abel transform of its pieces (potentials.abel_profile).
Yukawa's and Gauss's w are a fixed trapezoid rule, Yukawa's in t =
asinh(z/b), Gauss's in z, whose step and range per b hold a-priori
bounds on the discretisation and truncation errors; those bounds and a
rounding floor are w's bound. The transforms of w integrate over [0, R],
R the potential's own range from potentials.reach, and add the bound on
the tail beyond R and the J0-weighted integral of w's bounds to their
error_estimate.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import paper_forms
from .errors import (MAX_FLOAT, DomainError, PoleError, SingularityError,
                     UnsupportedModelError, real, reals)
from .potentials import (Gauss, TabulatedRadial, Yukawa, _scale,
                         abel_profile, evaluate, fourier3d, reach)
from .quadrature import _KERNEL_BLOCK, DEFAULT_SETTINGS, hankel0
# integrate_adaptive and integrate_semi_infinite are bound here only because
# perfbench/tracer.py rebinds them in eikonal's namespace.
from .quadrature import integrate_adaptive  # noqa: F401
from .quadrature import integrate_semi_infinite  # noqa: F401
from .special_functions import bessel_k0, expm1i, libm_exp

__all__ = [
    "Kinematics",
    "Amplitude",
    "momentum_transfer",
    "chi",
    "chi_closed",
    "amplitude_eikonal",
    "amplitude_paper_closed",
]


@dataclass(frozen=True)
class Kinematics:
    """Projectile mass and wavenumber, in units with hbar = 1."""

    mass: float
    k: float

    def __post_init__(self):
        for name in ("mass", "k"):
            real(getattr(self, name), name, positive=True)
        # the routes divide by v; v = inf is left to them
        if self.v == 0.0:
            raise DomainError(f"v = k/mass underflows to 0 at k = "
                              f"{self.k!r}", key="k")

    @property
    def v(self):
        """Speed k/mass."""
        return self.k / self.mass

    @property
    def born_scale(self):
        """The first Born factor m/(2 pi): f_B = -born_scale Vtilde."""
        return self.mass / (2.0 * np.pi)


@dataclass(frozen=True)
class Amplitude:
    """Complex scattering amplitude at one angle.

    q is the momentum transfer 2k sin(theta/2), theta in [0, pi].
    error_estimate >= 0 propagates the quadrature error bound (inf where
    none holds); closed-form evaluations report 0.
    """

    theta: float
    q: float
    value: complex
    error_estimate: float = 0.0

    def __post_init__(self):
        reals(self.theta, "theta", 0.0, math.pi)
        reals(self.error_estimate, "error_estimate", 0.0)


def momentum_transfer(k, theta):
    """q = 2k sin(theta/2) for a scalar or 1-d theta in [0, pi]."""
    real(k, "k", positive=True)
    th = reals(theta, "theta", 0.0, math.pi)
    if th.ndim > 1:
        raise DomainError("theta must be a scalar or a 1-d array",
                          key="theta")
    return 2.0 * k * np.sin(0.5 * th)


_EPS = np.finfo(float).eps


def _z_profile(p, b):
    """(w, a bound on the error of each w) at each b of a float array of
    any shape, each of b's shape: w(b) = int_{-inf}^{inf} V(sqrt(b^2 +
    z^2)) dz. A table takes abel_profile, Yukawa and Gauss the trapezoid
    rule; another model raises before any work. Every w has the bits of a
    call for that b alone; a w that is not finite raises, naming its row
    in b.ravel()."""
    flat = b.ravel()
    if isinstance(p, TabulatedRadial):
        w, err = abel_profile(p, flat)
    elif isinstance(p, (Yukawa, Gauss)):
        rule = _yukawa_rule if isinstance(p, Yukawa) else _gauss_rule
        step, nodes, bound, f = rule(p, flat)
        w, absint = _trapezoid_rows(f, step, nodes)
        err = bound + 50.0 * _EPS * absint
    else:
        raise UnsupportedModelError(
            f"unknown potential model {type(p).__name__!r}")
    if not np.all(np.isfinite(w)):
        j = int(np.argmin(np.isfinite(w)))
        raise DomainError(f"z-profile is not finite at b = "
                          f"{float(flat[j])!r} in row {j}")
    return w.reshape(b.shape), err.reshape(b.shape)


# Yukawa's and Gauss's z-profiles take the trapezoid rule h sum_n f(n h)
# over the real line. For f analytic in the strip |Im u| < a, with
# int |f(x + i y)| dx <= M there, its error is at most 2 M/(e^{2 pi a/h}
# - 1) (Trefethen & Weideman, SIAM Review 56, 2014, Thm 5.1). Each step
# holds that bound to eps times a lower bound on |w|, and each range holds
# the bound on the two tails beyond it to the same; the error reported is
# both bounds plus the floor 50 eps h sum |f(n h)| of _qk_errors.
_LOG_EPS = math.log(_EPS)
_LOG_2_EPS = math.log(2.0 / _EPS)
_STRIP_MAX = 0.5 * np.pi * 31.0 / 32.0  # Yukawa's widest strip
_T_MAX = 700.0  # below the overflow of cosh by more than a step


def _yukawa_rule(p, b):
    """Yukawa in t = asinh(z/b), b > 0: f = g e^{-x cosh t}, x = mu b, is
    analytic for |Im t| < pi/2 with M = 2|g| K0(x cos a) <= 2|g| sqrt(pi/(2x
    cos a)) e^{-x cos a}. a = sqrt(2 ln(2/eps)/x), the best strip where
    1 - cos a ~ a^2/2, up to _STRIP_MAX. Beyond T each tail is at most
    |g| e^{-x cosh T}/(x sinh T), as cosh t >= cosh T + (t - T) sinh T.
    Returns (step, node count, bound, row-batched f) of each b."""
    x = p.mu * b
    # |w|/(2|g|) = K0(x) >= E1(x) >= e^{-x} ln(1 + 2/x)/2 (Abramowitz &
    # Stegun 5.1.20); low is the log of that bound times e^x, 2/x held finite
    low = np.log(0.5 * np.log1p(2.0 / np.maximum(x, 1e-300)))
    a = np.minimum(_STRIP_MAX, math.sqrt(2.0 * _LOG_2_EPS) / np.sqrt(x))
    # ln(M e^x/|g|), with x (1 - cos a) = 2 x sin^2(a/2)
    log_m = math.log(2.0) + 0.5 * (np.log(0.5 * np.pi / np.cos(a))
                                   - np.log(x)) + 2.0 * x * np.sin(0.5 * a)**2
    step = 2.0 * np.pi * a / np.logaddexp(0.0, log_m - _LOG_EPS - low)
    # x cosh T = x + k puts the two tails below eps e^{low - x} 2|g|
    k = np.maximum(1.0, -_LOG_EPS - low)
    t_hi = np.minimum(2.0 * np.arcsinh(np.sqrt(0.5 * k) / np.sqrt(x)),
                      _T_MAX)
    nodes = np.ceil(t_hi / step)
    t_hi = nodes * step
    bound = 2.0 * abs(p.g) * (np.exp(log_m - x)
                              / np.expm1(2.0 * np.pi * a / step)
                              + np.exp(-x * np.cosh(t_hi))
                              / (x * np.sinh(t_hi)))

    def f(i, t):
        r = b[i, None] * np.cosh(t)
        return evaluate(p, r) * r
    return step, nodes, bound, f


def _gauss_rule(p, b):
    """Gauss in z itself, any b >= 0: f = g e^{-alpha (b^2 + z^2)} is
    entire with M = |w| e^{alpha a^2}. a^2 = C/alpha, C = ln(2/eps), gives
    h = pi/sqrt(alpha C) and a bound of 2|w| e^C/(e^{2C} - 1); beyond Z
    each tail is at most |w| e^{-alpha Z^2}/(2 Z sqrt(pi alpha)). One step
    and node count serve every b. Returns (step, node count, bound,
    row-batched f) of each b."""
    alpha = p.alpha
    h = math.pi / math.sqrt(alpha * _LOG_2_EPS)
    n = math.ceil(math.sqrt(-_LOG_EPS / alpha) / h)
    z_hi = n * h
    bb = b * b
    w_abs = abs(p.g) * math.sqrt(math.pi / alpha) * np.exp(-alpha * bb)
    bound = w_abs * (2.0 * math.exp(_LOG_2_EPS) / math.expm1(
        2.0 * _LOG_2_EPS) + math.exp(-alpha * z_hi * z_hi)
        / (z_hi * math.sqrt(math.pi * alpha)))

    def f(i, z):
        return evaluate(p, np.sqrt(bb[i, None] + z * z))
    return np.full(b.size, h), np.full(b.size, float(n)), bound, f


def _trapezoid_rows(f, step, nodes):
    """h (f(0) + 2 sum_{n=1}^{N} f(n h)) and h (|f(0)| + 2 sum |f(n h)|),
    the trapezoid rule of an even f on the real line, for each row j with
    h = step[j], N = nodes[j]; f(i, u) gives rows i of the integrand at u.
    Rows of one node count go to f together, in blocks of at most
    _KERNEL_BLOCK nodes, and each row sums its own nodes alone, so a row
    has the bits of a call for that row alone. No rows give empty arrays."""
    value, absint = np.empty(step.size), np.empty(step.size)
    order = np.argsort(nodes, kind="stable")
    # np.split makes one group, with no node count, of no rows
    groups = np.split(order, np.flatnonzero(np.diff(nodes[order])) + 1) \
        if order.size else []
    for group in groups:
        n = np.arange(int(nodes[group[0]]) + 1)
        block = max(1, _KERNEL_BLOCK // n.size)
        for rows in (group[j:j + block]
                     for j in range(0, group.size, block)):
            y = f(rows, step[rows, None] * n)
            y[:, 0] *= 0.5
            value[rows] = 2.0 * step[rows] * y.sum(axis=1)
            absint[rows] = 2.0 * step[rows] * np.abs(y).sum(axis=1)
    return value, absint


def chi(p, kin, b):
    """Eikonal phase -w(b)/v from the z-profile (any model) that
    born_resummed_amplitude reads too (see _z_profile)."""
    b_arr = reals(b, "b", 0.0, MAX_FLOAT)
    if isinstance(p, Yukawa) and np.any(b_arr == 0.0):
        raise SingularityError(
            "chi diverges logarithmically at b = 0 for a 1/r core", key="b")
    # 0.0 - w: +0.0, not -0.0, where w is 0, as beyond a table
    out = (0.0 - _z_profile(p, b_arr)[0]) / kin.v
    return float(out) if b_arr.ndim == 0 else out


def _chi_factor(p, kin):
    """chi0 of chi_closed = chi0 K0(mu b) (Yukawa) or chi0 e^{-alpha b^2}
    (Gauss); a table or another model raises."""
    if isinstance(p, Yukawa):
        return -(2.0 * p.g / kin.v)
    if isinstance(p, Gauss):
        return -(p.g / kin.v) * math.sqrt(np.pi / p.alpha)
    if isinstance(p, TabulatedRadial):
        raise UnsupportedModelError(
            "no closed-form phase for tabulated potentials; use chi()")
    raise UnsupportedModelError(
        f"unknown potential model {type(p).__name__!r}")


def chi_closed(p, kin, b):
    """Closed-form eikonal phase: -(2g/v) K0(mu b) for Yukawa,
    -(g/v) sqrt(pi/alpha) e^{-alpha b^2} for Gauss, with libm's exp,
    whose bits hold at every SIMD level."""
    b_arr = reals(b, "b", 0.0, MAX_FLOAT)
    scalar = b_arr.ndim == 0
    b_arr = np.atleast_1d(b_arr)
    chi0 = _chi_factor(p, kin)
    if isinstance(p, Yukawa):
        if np.any(b_arr == 0.0):
            raise SingularityError("closed-form chi is singular at b = 0 "
                                   "for the 1/r core", key="b")
        out = np.zeros_like(b_arr) if p.g == 0.0 else \
            chi0 * bessel_k0(p.mu * b_arr)
    else:
        out = chi0 * libm_exp(-p.alpha * b_arr * b_arr)
    return float(out[0]) if scalar else out


def _phase_integrand(p, kin):
    """g(b) = (e^{i chi(b)} - 1 from the z-profile, a bound on its error)
    for hankel0, with |d(e^{i chi} - 1)| <= |d chi| = |dw|/v."""
    v = kin.v

    def g(b):
        w, err = _z_profile(p, b)
        return expm1i(-w / v), err / v
    return g


def _profile_amplitude(p, kin, q, settings):
    """(value, error) of -i k int_0^R J0(q b) (e^{i chi(b)} - 1) b db at
    each q, (R, T) = reach(p). The error is k times the pass's error plus
    T/v, a bound on the tail as |e^{i chi} - 1| <= |chi|; T is 0 for
    a table."""
    upper, tail = reach(p)
    res = hankel0(_phase_integrand(p, kin), q, upper, settings)
    return (-1j * kin.k * np.asarray(res.value, dtype=complex),
            kin.k * (res.error_estimate + tail / kin.v))


# The closed route's remainder e^{i chi} - 1 - i chi is at most chi^2/2 in
# modulus. Its transform stops at R2, where a closed-form bound T2 on
# int_R2^inf chi^2/2 b db falls to eps times int_0^inf chi^2/2 b db. With
# c = |chi0| and x = mu b, Yukawa's chi^2/2 is (c^2/2) K0(x)^2, and
# K0(x)^2 <= pi e^{-2x}/(2x) with int_0^inf x K0(x)^2 dx = 1/2 give T2 =
# (c^2/(2 mu^2)) (pi/4) e^{-2 mu R2}, eps c^2/(4 mu^2) at mu R2 =
# ln(pi/(2 eps))/2, about 18.2. Gauss's is (c^2/2) e^{-2 alpha b^2}, so T2
# = c^2 e^{-2 alpha R2^2}/(8 alpha), eps c^2/(8 alpha) at R2 =
# sqrt(ln(1/eps)/(2 alpha)), about 4.24/sqrt(alpha).
_YUKAWA_R2 = 0.5 * math.log(0.5 * np.pi / _EPS)


def _remainder_reach(p, c):
    """(R2, T2) of the remainder of chi_closed with |chi0| = c (above)."""
    if isinstance(p, Yukawa):
        return _YUKAWA_R2 / p.mu, c * c / (2.0 * _scale(p)) \
            * 0.25 * np.pi * math.exp(-2.0 * _YUKAWA_R2)
    upper = math.sqrt(-_LOG_EPS / (2.0 * p.alpha))
    return upper, c * c * math.exp(-2.0 * p.alpha * upper * upper) \
        / (8.0 * p.alpha)


def _closed_amplitude(p, kin, q, settings):
    """(value, error) of the closed-phase amplitude at each q: the first
    Born amplitude, which is the term of e^{i chi} - 1 first order in chi,
    plus -i k int_0^R2 J0(q b) (e^{i chi} - 1 - i chi) b db.

    For both models int_0^inf chi^2/2 b db, which bounds the remainder's
    int |.| b db, is c/4 of int_0^inf |chi| b db; the remainder's pass
    takes abs_tol min(1, c/4), so that a weak field, whose remainder is of
    order c^2, keeps the relative digits of Im f(0). Its imaginary part,
    sin chi - chi, is only eps |chi| accurate, so abs_tol stops at 100 eps
    int_0^inf |chi| b db = 400 T2/c, where finite, like hankel0's floor.
    The error is k times the pass's error and T2, plus born's rounding."""
    c = abs(_chi_factor(p, kin))
    # fourier3d reports no error for a closed form: its rounding is added
    # to the error below
    born = -kin.born_scale * fourier3d(p, q)
    upper, tail = _remainder_reach(p, c)

    def remainder(b):
        x = chi_closed(p, kin, b)
        return expm1i(x) - 1j * x

    rounding = 400.0 * (tail / c) if c > 0.0 else 0.0
    # the smallest positive float where the product underflows, as at g = 0
    tight = dataclasses.replace(settings, abs_tol=max(
        settings.abs_tol * min(1.0, 0.25 * c),
        rounding if rounding < math.inf else 0.0, math.ulp(0.0)))
    res = hankel0(remainder, q, upper, tight)
    value = born - 1j * kin.k * np.asarray(res.value, dtype=complex)
    # 4 eps |born| covers born's rounding: within 2.7 eps of a 40-digit
    # series on weak Gauss potentials, where the pass's error is far less
    return value, kin.k * (res.error_estimate + tail) \
        + 4.0 * _EPS * np.abs(born)


def amplitude_eikonal(p, kin, theta, settings=DEFAULT_SETTINGS):
    """Glauber amplitude at one angle, or at every angle of a 1-d theta
    array in one Hankel pass (fields are then arrays over the grid).

    Yukawa and Gauss take the closed phase, a table its z-profile (see the
    module docstring for each route's pass and error_estimate).
    """
    th, q = _check_theta(kin.k, theta)
    route = _closed_amplitude if isinstance(p, (Yukawa, Gauss)) \
        else _profile_amplitude
    return _amplitude(theta, th, q, *route(p, kin, q, settings))


_BELOW_PI = math.nextafter(math.pi, 0.0)


def _check_theta(k, theta):
    """(theta as a float array, q) for the routes that refuse theta = pi."""
    q = momentum_transfer(k, theta)
    return reals(theta, "theta", 0.0, _BELOW_PI), q


def _amplitude(theta, th, q, value, error_estimate):
    """Amplitude with scalar fields for a scalar theta, else arrays."""
    if np.ndim(theta) == 0:
        return Amplitude(theta=float(th), q=float(q), value=complex(value),
                         error_estimate=float(error_estimate))
    return Amplitude(theta=th, q=q, value=value,
                     error_estimate=error_estimate)


def amplitude_paper_closed(p, kin, theta):
    """Reference closed forms (paper_forms.amplitude) at one angle or at
    every angle of a 1-d theta array: comparison targets, not ground truth.
    The Yukawa form has a pole at k*theta = mu: a scalar theta there raises
    PoleError, an array row there is nan.
    """
    th, q = _check_theta(kin.k, theta)
    value = paper_forms.amplitude(p, kin, th)
    if np.ndim(theta) == 0 and np.isnan(value):
        raise PoleError(
            f"reference Yukawa form has a pole at k*theta = mu "
            f"(theta = {p.mu / kin.k:.6g}); cannot evaluate at "
            f"theta = {float(th):.6g}", key="theta")
    return _amplitude(theta, th, q, value, np.zeros(th.shape))
