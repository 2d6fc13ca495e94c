"""Eikonal phase and the Glauber amplitude.

The amplitude engine implements

    f(theta) = -i k int_0^inf J0(q b) (e^{i chi(b)} - 1) b db,
    chi(b)   = -(1/(hbar v)) int_{-inf}^{inf} V(sqrt(b^2 + z^2)) dz,

with q = 2 k sin(theta/2). Both phase routes form e^{i chi} - 1 as
-2 sin^2(chi/2) + i sin chi (special_functions.expm1i), so Im f, of order
chi^2 in a weak field, keeps its digits. The sign convention is the minus
in chi, uniformly; reference closed forms that differ are evaluated
verbatim (by paper_forms, through amplitude_paper_closed) and compared in
reports, never silently corrected.
The small-angle substitute q = k theta sits behind a flag so its effect can
be isolated.

chi has two routes: chi_closed (K0 / Gaussian closed forms, analytic models
only) and chi (the z-integral of _z_profile, any model). They are
verified against each other; amplitude_eikonal picks the closed route when
one exists unless told otherwise.

The z-profile w(b) = int V dz of the quadrature route is the one that
born.born_resummed_amplitude integrates too. _z_profile holds one
_ZProfile, of the potential and setting last used, so the two routes share
it across angles and k: a plain memo of (w, bound) per exact b, each with
the bits of a call for that b alone, whichever route or call asked first.
A table's w is the exact Abel transform of its pieces
(potentials.abel_profile). Yukawa's and Gauss's take a fixed trapezoid
rule, Yukawa's in t = asinh(z/b), Gauss's in z, whose step and range per b
hold a-priori bounds on the discretisation and truncation errors; those
bounds and a rounding floor are w's bound. The store is safe to call from
several threads: two callers may compute the same b, to the same bits.
Both amplitudes integrate over [0, R], R the potential's own range from
potentials.reach, and add the bound on the tail beyond R and the
J0-weighted integral of w's bounds to their error_estimate.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import paper_forms
from .errors import (DomainError, PoleError, SingularityError,
                     UnsupportedModelError)
from .potentials import (Gauss, TabulatedRadial, Yukawa, abel_profile,
                         evaluate, reach)
from .quadrature import _KERNEL_BLOCK, DEFAULT_SETTINGS, hankel0
# integrate_adaptive and integrate_semi_infinite are bound here only because
# perfbench/tracer.py rebinds them in eikonal's namespace.
from .quadrature import integrate_adaptive  # noqa: F401
from .quadrature import integrate_semi_infinite  # noqa: F401
from .special_functions import bessel_k0, expm1i

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
    """Projectile mass and wavenumber; hbar kept symbolic (default 1)."""

    mass: float
    k: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "k", "hbar"):
            val = getattr(self, name)
            if not math.isfinite(val) or val <= 0.0:
                raise DomainError(f"{name} must be positive and finite, "
                                  f"got {val!r}", key=name)

    @property
    def v(self):
        """Speed hbar*k/mass."""
        return self.hbar * self.k / self.mass

    @property
    def E(self):
        """Kinetic energy (hbar*k)^2 / (2*mass)."""
        return (self.hbar * self.k) ** 2 / (2.0 * self.mass)


@dataclass(frozen=True)
class Amplitude:
    """Complex scattering amplitude at one angle.

    q is the momentum transfer actually used (2k sin(theta/2), or k*theta
    when the small-angle flag was set). error_estimate propagates the
    quadrature error bound; closed-form evaluations report 0.
    """

    theta: float
    q: float
    value: complex
    error_estimate: float = 0.0

    def __post_init__(self):
        if np.any(np.asarray(self.error_estimate) < 0.0):
            raise DomainError("error_estimate must be >= 0")


def _check_k(k):
    """Raise DomainError keyed to k unless k is a positive finite float."""
    if not (np.ndim(k) == 0 and 0.0 < k < math.inf):
        raise DomainError(f"wavenumber k must be positive and finite, got "
                          f"{k!r}", key="k")


def momentum_transfer(k, theta, small_angle=False):
    """q = 2k sin(theta/2); the small-angle flag switches to k*theta."""
    _check_k(k)
    th = np.asarray(theta, dtype=float)
    if not np.all((th >= 0.0) & (th <= np.pi)):
        raise DomainError("theta must lie in [0, pi]", key="theta")
    return k * th if small_angle else 2.0 * k * np.sin(0.5 * th)


def _check_b(b):
    """b as a float array, checked to be finite and non-negative."""
    b_arr = np.asarray(b, dtype=float)
    if not np.all((b_arr >= 0.0) & (b_arr < math.inf)):
        raise DomainError("impact parameter b must be finite and "
                          "non-negative", key="b")
    return b_arr


# The z-profile held: the _ZProfile of the potential last used. A call for
# another potential or setting replaces it; a store of per-b values is
# emptied once it would hold more than _PROFILE_ENTRIES values. Swaps,
# lookups and inserts take the lock; integrating does not, so two threads
# may integrate the same b, to the same bits.
_PROFILE_ENTRIES = 1 << 16
_profile_lock = threading.Lock()
_profile = None


def _z_profile(p, settings):
    """The _ZProfile of p under settings: the one held, or a new one, which
    is then held."""
    global _profile
    with _profile_lock:
        held = _profile
    if held is not None and held.p is p and held.settings == settings:
        return held
    held = _ZProfile(p, settings)
    with _profile_lock:
        _profile = held
    return held


_EPS = np.finfo(float).eps


class _ZProfile:
    """w(b) = int_{-inf}^{inf} V(sqrt(b^2+z^2)) dz of one potential under
    one setting; call it with an array b of any shape for (w, a bound on
    the error of each w), each of b's shape.

    Every b is computed alone and stored by the exact float b with the
    bound on its error; the store reads nothing of the model.
    """

    def __init__(self, p, settings):
        self.p = p
        self.settings = settings
        self._store = {}

    def __call__(self, b):
        """(w, error) at each b from the store, computing the distinct misses
        in one call; a miss's row is its index in b.ravel()."""
        flat = b.ravel()
        keys = flat.tolist()
        with _profile_lock:
            got = [self._store.get(x) for x in keys]
        miss = {}  # b -> index of its first occurrence
        for j, (x, v) in enumerate(zip(keys, got)):
            if v is None and x not in miss:
                miss[x] = j
        if miss:
            rows = np.fromiter(miss.values(), dtype=int, count=len(miss))
            w, err = _integrate_z_profile(self.p, flat[rows], self.settings,
                                          lambda m: f" in row {rows[m]}")
            found = dict(zip(miss, zip(w.tolist(), err.tolist())))
            with _profile_lock:
                if len(self._store) + len(found) > _PROFILE_ENTRIES:
                    self._store.clear()
                self._store.update(found)
            got = [found[x] if v is None else v for x, v in zip(keys, got)]
        return np.moveaxis(np.reshape(got, (*b.shape, 2)), -1, 0)


def _integrate_z_profile(p, b, settings, label):
    """(w(b), a bound on its error) for each b of the 1-d array b, uncached;
    label(j) names row j in error messages. A table takes abel_profile,
    Yukawa and Gauss the trapezoid rule; neither reads a setting."""
    if isinstance(p, TabulatedRadial):
        w, bound = abel_profile(p, b)
    else:
        rule = _yukawa_rule if isinstance(p, Yukawa) else _gauss_rule
        step, nodes, bound, f = rule(p, b)
        w, absint = _trapezoid_rows(f, step, nodes)
        bound = bound + 50.0 * _EPS * absint
    if not np.all(np.isfinite(w)):
        j = int(np.argmin(np.isfinite(w)))
        raise DomainError(f"z-profile is not finite at b = {float(b[j])!r}"
                          f"{label(j)}")
    return w, bound


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
    has the bits of a call for that row alone."""
    value, absint = np.empty(step.size), np.empty(step.size)
    order = np.argsort(nodes, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(nodes[order])) + 1):
        n = np.arange(int(nodes[group[0]]) + 1)
        block = max(1, _KERNEL_BLOCK // n.size)
        for rows in (group[j:j + block]
                     for j in range(0, group.size, block)):
            y = f(rows, step[rows, None] * n)
            y[:, 0] *= 0.5
            value[rows] = 2.0 * step[rows] * y.sum(axis=1)
            absint[rows] = 2.0 * step[rows] * np.abs(y).sum(axis=1)
    return value, absint


def chi(p, kin, b, settings=DEFAULT_SETTINGS):
    """Eikonal phase -w(b)/(hbar v) from the z-profile (any model) that
    born_resummed_amplitude reads too, one per potential and setting (see
    _ZProfile)."""
    b_arr = _check_b(b)
    if isinstance(p, Yukawa) and np.any(b_arr == 0.0):
        raise SingularityError(
            "chi diverges logarithmically at b = 0 for a 1/r core")
    # 0.0 - w: +0.0, not -0.0, where w is 0, as beyond a table
    out = (0.0 - _z_profile(p, settings)(b_arr)[0]) / (kin.hbar * kin.v)
    return float(out) if b_arr.ndim == 0 else out


def chi_closed(p, kin, b):
    """Closed-form eikonal phase: -(2g/hbar v) K0(mu b) for Yukawa,
    -(g/hbar v) sqrt(pi/alpha) e^{-alpha b^2} for Gauss."""
    b_arr = _check_b(b)
    scalar = b_arr.ndim == 0
    b_arr = np.atleast_1d(b_arr)
    hv = kin.hbar * kin.v
    if isinstance(p, Yukawa):
        if np.any(b_arr == 0.0):
            raise SingularityError("closed-form chi is singular at b = 0 "
                                   "for the 1/r core")
        out = np.zeros_like(b_arr) if p.g == 0.0 else \
            -(2.0 * p.g / hv) * bessel_k0(p.mu * b_arr)
    elif isinstance(p, Gauss):
        out = -(p.g / hv) * math.sqrt(np.pi / p.alpha) \
            * np.exp(-p.alpha * b_arr * b_arr)
    elif isinstance(p, TabulatedRadial):
        raise UnsupportedModelError(
            "no closed-form phase for tabulated potentials; use chi()")
    else:
        raise UnsupportedModelError(
            f"unknown potential model {type(p).__name__!r}")
    return float(out[0]) if scalar else out


def _phase_integrand(p, kin, phase, settings):
    """e^{i chi(b)} - 1 as a function of b, chi from the chosen route. The
    quadrature route returns it with a bound on its error from w's bound:
    |d(e^{i chi} - 1)| <= |d chi| = |dw|/(hbar v)."""
    if phase == "auto":
        phase = "quadrature" if isinstance(p, TabulatedRadial) else "closed"
    if phase == "closed":
        return lambda b: expm1i(chi_closed(p, kin, b))
    if phase == "quadrature":
        profile = _z_profile(p, settings)
        hv = kin.hbar * kin.v

        def g(b):
            w, err = profile(b)
            return expm1i(-w / hv), err / hv
        return g
    raise DomainError("phase must be 'auto', 'closed', or 'quadrature'")


def amplitude_eikonal(p, kin, theta, settings=DEFAULT_SETTINGS, *,
                      phase="auto", small_angle_q=False):
    """Glauber amplitude at one angle, or at every angle of a 1-d theta
    array in one Hankel pass (fields are then arrays over the grid).

    phase selects the chi route ("auto" prefers the closed form when the
    model has one); small_angle_q switches the J0 argument from
    2k sin(theta/2) to k*theta for approximation-provenance studies.
    """
    th = _check_theta(theta)
    q = momentum_transfer(kin.k, th, small_angle=small_angle_q)
    g = _phase_integrand(p, kin, phase, settings)
    upper, tail = reach(p)
    res = hankel0(g, q, upper, settings)
    value = -1j * kin.k * np.asarray(res.value, dtype=complex)
    # beyond reach, |e^{i chi} - 1| <= |chi| = |w|/(hbar v)
    err = kin.k * (res.error_estimate + tail / (kin.hbar * kin.v))
    return _amplitude(theta, th, q, value, err)


def _check_theta(theta):
    """theta as a float array, checked to lie in [0, pi)."""
    th = np.asarray(theta, dtype=float)
    if th.ndim > 1:
        raise DomainError("theta must be a scalar or a 1-d array")
    if not np.all((th >= 0.0) & (th < np.pi)):
        raise DomainError("theta must lie in [0, pi)")
    return th


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
    th = _check_theta(theta)
    value = paper_forms.amplitude(p, kin, th)
    if np.ndim(theta) == 0 and np.isnan(value):
        raise PoleError(
            f"reference Yukawa form has a pole at k*theta = mu "
            f"(theta = {p.mu / kin.k:.6g}); cannot evaluate at "
            f"theta = {float(th):.6g}")
    return _amplitude(theta, th, momentum_transfer(kin.k, th), value,
                      np.zeros(th.shape))
