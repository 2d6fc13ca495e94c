"""Eikonal phase and the Glauber amplitude.

The amplitude engine implements

    f(theta) = -i k int_0^inf J0(q b) (e^{i chi(b)} - 1) b db,
    chi(b)   = -(1/(hbar v)) int_{-inf}^{inf} V(sqrt(b^2 + z^2)) dz,

with q = 2 k sin(theta/2). The sign convention is the minus in chi,
uniformly; reference closed forms that differ are evaluated verbatim (by
paper_forms, through amplitude_paper_closed) and compared in reports,
never silently corrected.
The small-angle substitute q = k theta sits behind a flag so its effect can
be isolated.

chi has two routes: chi_closed (K0 / Gaussian closed forms, analytic models
only) and chi (direct quadrature of the z-integral, any model). They are
verified against each other; amplitude_eikonal picks the closed route when
one exists unless told otherwise.

The z-profile w(b) = int V dz of the quadrature route is the one that
born.born_resummed_amplitude integrates too, and _z_profile integrates it
once per potential and impact parameter: it keeps the values of the
potential last used, keyed by the exact b, so the two routes share each
w(b) across angles and k. Each value has the bits of integrating at that
b alone. The store is safe to call from several threads: two callers may
integrate the same b, to the same bits, so results do not depend on who
integrated it first.
"""

import dataclasses
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import paper_forms
from .errors import (DomainError, PoleError, SingularityError,
                     UnsupportedModelError)
from .potentials import Gauss, TabulatedRadial, Yukawa, evaluate
from .quadrature import (DEFAULT_SETTINGS, hankel0, integrate_adaptive,
                         integrate_semi_infinite)
from .special_functions import bessel_k0

__all__ = [
    "Kinematics",
    "PhaseProfile",
    "Amplitude",
    "momentum_transfer",
    "chi",
    "chi_closed",
    "phase_profile",
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
                                  f"got {val!r}")

    @property
    def v(self):
        """Speed hbar*k/mass."""
        return self.hbar * self.k / self.mass

    @property
    def E(self):
        """Kinetic energy (hbar*k)^2 / (2*mass)."""
        return (self.hbar * self.k) ** 2 / (2.0 * self.mass)


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """chi sampled on an impact-parameter grid.

    provenance records which route produced it: "closed-form" or
    "quadrature". For decaying potentials the grid must extend far enough
    that |chi| at the last point is below 1e-8.
    """

    b_grid: np.ndarray
    chi: np.ndarray
    provenance: str

    def __post_init__(self):
        b = np.asarray(self.b_grid, dtype=float)
        c = np.asarray(self.chi, dtype=float)
        if b.ndim != 1 or b.shape != c.shape:
            raise DomainError("b_grid and chi must be matching 1-d arrays")
        if b[0] < 0.0 or not np.all(np.diff(b) > 0.0):
            raise DomainError("b_grid must be non-negative and strictly "
                              "increasing")
        if self.provenance not in ("closed-form", "quadrature"):
            raise DomainError("provenance must be 'closed-form' or "
                              "'quadrature'")
        object.__setattr__(self, "b_grid", b)
        object.__setattr__(self, "chi", c)


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


def momentum_transfer(k, theta, small_angle=False):
    """q = 2k sin(theta/2); the small-angle flag switches to k*theta."""
    if k <= 0.0:
        raise DomainError("wavenumber k must be positive")
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < 0.0) or np.any(theta_arr > np.pi):
        raise DomainError("theta must lie in [0, pi]")
    if small_angle:
        return k * theta
    return 2.0 * k * np.sin(0.5 * np.asarray(theta))


# The z-profile store: (potential, settings, {b: w(b)}) for the potential
# last integrated, keyed by the exact float b. The potential is held by
# identity and kept alive, so its id cannot be reused; a call for another
# potential or setting starts a new store, and a store is emptied once it
# would hold more than _PROFILE_ENTRIES values. Lookups and inserts take
# the lock; integrating the misses does not, so two threads may integrate
# the same b, to the same bits.
_PROFILE_ENTRIES = 1 << 16
_profile_lock = threading.Lock()
_profile = (None, None, {})


def _z_profile(p, b, settings):
    """w(b) = int_{-inf}^{inf} V(sqrt(b^2+z^2)) dz at each impact parameter
    of the 1-d array b. Values already integrated for this potential and
    setting come from the store; the other distinct b are integrated in
    one row-batched quadrature, which gives each the bits of integrating
    at that b alone, and stored. A tabulated potential is cut at its last
    radius: rows there or beyond integrate to 0."""
    global _profile
    # w must hold a RELATIVE tolerance even when the tail value is tiny
    # (chi ~ 1e-12 at large b), so the absolute floor is pushed out of the
    # way instead of letting it stop the refinement early.
    settings = dataclasses.replace(settings, abs_tol=1e-300)
    keys = b.tolist()
    with _profile_lock:
        if _profile[0] is not p or _profile[1] != settings:
            _profile = (p, settings, {})
        store = _profile[2]
        w = [store.get(x) for x in keys]
    miss = {}  # b -> index of its first occurrence in the caller's array
    for j, (x, v) in enumerate(zip(keys, w)):
        if v is None and x not in miss:
            miss[x] = j
    if miss:
        rows = np.fromiter(miss.values(), dtype=int, count=len(miss))
        found = dict(zip(miss, _integrate_z_profile(
            p, b[rows], settings, lambda m: f" in row {rows[m]}").tolist()))
        with _profile_lock:
            if len(store) + len(found) > _PROFILE_ENTRIES:
                store.clear()
            store.update(found)
        w = [found[x] if v is None else v for x, v in zip(keys, w)]
    return np.array(w, dtype=float)


def _integrate_z_profile(p, b, settings, label):
    """w(b) for each b of the 1-d array b, uncached, in one row-batched
    quadrature; label(j) names row j in error messages."""
    bb = b * b

    def f(i, z):
        return evaluate(p, np.sqrt(bb[i, None] + z * z))

    if isinstance(p, TabulatedRadial):
        r_hi = p.r[-1]
        z_hi = np.sqrt(np.where(b < r_hi, r_hi * r_hi - bb, 0.0))
        res = integrate_adaptive(f, 0.0, z_hi, settings, rows=b.size,
                                 label=label)
    else:
        res = integrate_semi_infinite(f, settings, rows=b.size, label=label)
    return 2.0 * res.value


def chi(p, kin, b, settings=DEFAULT_SETTINGS):
    """Eikonal phase -w(b)/(hbar v) by direct quadrature of the z-integral
    (any model); w(b) is the z-profile that born_resummed_amplitude reads
    too, integrated once per potential and b (see _z_profile)."""
    b_arr = np.asarray(b, dtype=float)
    if np.any(b_arr < 0.0):
        raise DomainError("impact parameter b must be non-negative")
    flat = b_arr.ravel()
    if isinstance(p, Yukawa) and np.any(flat == 0.0):
        raise SingularityError(
            "chi diverges logarithmically at b = 0 for a 1/r core")
    out = -_z_profile(p, flat, settings) / (kin.hbar * kin.v)
    if isinstance(p, TabulatedRadial):
        # +0.0, not -0.0, beyond the table
        out = np.where(flat < p.r[-1], out, 0.0)
    return float(out[0]) if b_arr.ndim == 0 else out.reshape(b_arr.shape)


def chi_closed(p, kin, b):
    """Closed-form eikonal phase: -(2g/hbar v) K0(mu b) for Yukawa,
    -(g/hbar v) sqrt(pi/alpha) e^{-alpha b^2} for Gauss."""
    b_arr = np.asarray(b, dtype=float)
    scalar = b_arr.ndim == 0
    b_arr = np.atleast_1d(b_arr)
    if np.any(b_arr < 0.0):
        raise DomainError("impact parameter b must be non-negative")
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


def phase_profile(p, kin, b_grid, provenance="auto",
                  settings=DEFAULT_SETTINGS):
    """Sample chi on a grid. provenance: "auto" picks "closed-form" for
    analytic models, else "quadrature"; the explicit names force a route."""
    if provenance == "auto":
        provenance = "quadrature" if isinstance(p, TabulatedRadial) \
            else "closed-form"
    if provenance == "closed-form":
        values = chi_closed(p, kin, b_grid)
    elif provenance == "quadrature":
        values = chi(p, kin, b_grid, settings)
    else:
        raise DomainError("provenance must be 'auto', 'closed-form', or "
                          "'quadrature'")
    profile = PhaseProfile(b_grid=np.asarray(b_grid, dtype=float),
                           chi=np.atleast_1d(values), provenance=provenance)
    if abs(profile.chi[-1]) > 1e-8:
        raise DomainError(
            f"chi({profile.b_grid[-1]:g}) = {profile.chi[-1]:.3e} has not "
            f"decayed below 1e-8; extend the b grid")
    return profile


def _phase_function(p, kin, phase, settings):
    if phase == "auto":
        phase = "quadrature" if isinstance(p, TabulatedRadial) else "closed"
    if phase == "closed":
        return lambda b: chi_closed(p, kin, b)
    if phase == "quadrature":
        return lambda b: chi(p, kin, b, settings)
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
    chi_fn = _phase_function(p, kin, phase, settings)

    def g(b):
        return np.exp(1j * np.asarray(chi_fn(b))) - 1.0

    res = hankel0(g, q, settings)
    value = -1j * kin.k * np.asarray(res.value, dtype=complex)
    return _amplitude(theta, th, q, value, kin.k * res.error_estimate)


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
