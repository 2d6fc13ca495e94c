"""Exact partial-wave oracle: radial Schrodinger phase shifts by Numerov.

Solves u_l'' = [l(l+1)/r^2 + 2 m V/hbar^2 - k^2] u_l outward from the
origin for every l at once (the per-l integrations are independent; they
are carried as one vectorized state with deterministic assembly), then
extracts tan(delta_l) by matching u_l/r against the free combination
cos(delta) j_l(kr) - sin(delta) n_l(kr) at two radii a quarter local
wavelength apart, with one row of spherical Bessel values per radius.
Each wave is swept and matched once: a sweep returns the array of its
waves' phase shifts, and each pass of the automatic l_max sweeps only the
waves above the previous pass's top.

The sweep runs Numerov's scheme in summed form: it carries y_n and the
first difference y_n - y_{n-1} and adds g_n y_n to the difference at each
step, three in-place operations on the wave vector. Growth in the
classically forbidden region is held in range by scaling each wave's
state by exact powers of two, which cannot change a phase shift's bits.

The reported delta_l live in (-pi/2, pi/2]; the amplitude only ever uses
e^{2 i delta}, for which the mod-pi reduction is exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eikonal import Kinematics, _amplitude, momentum_transfer
from .errors import ConvergenceError, DomainError, RangeError
from .potentials import effective_radius, evaluate, origin_expansion
# The effective radius is integrated in potentials; the two integrators and
# spherical_bessel are bound here only because perfbench/tracer.py rebinds
# them in partial_wave's namespace.
from .quadrature import (integrate_adaptive,  # noqa: F401
                         integrate_semi_infinite)
from .special_functions import legendre_p_row, spherical_bessel_row
from .special_functions import spherical_bessel  # noqa: F401

__all__ = [
    "PhaseShiftSet",
    "phase_shifts",
    "amplitude_partial_wave",
]

# decay criterion on the reduced potential: |V(r_max)| 2m/hbar^2 <= DECAY k^2
_DECAY = 1e-12
_TAIL_TOL = 1e-8  # |delta_{l_max}| below this counts as converged
# auto l_max: the widths top - l0 of the sweeps, tried in turn
_WIDTHS = (64, 128, 256, 416)
_CHUNK = 128  # Numerov steps whose coefficient rows are formed at once


@dataclass(frozen=True, eq=False)
class PhaseShiftSet:
    """Phase shifts delta_l for l = 0..l_max at one wavenumber."""

    k: float
    l_max: int
    delta: np.ndarray
    r_max: float
    dr: float

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise DomainError("k must be positive and finite")
        if self.l_max < 0 or self.l_max != int(self.l_max):
            raise DomainError("l_max must be an integer >= 0")
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "delta", d)
        if d.ndim != 1 or d.shape[0] != self.l_max + 1:
            raise DomainError("delta must hold l_max + 1 entries")
        if not np.all(np.isfinite(d)):
            raise DomainError("delta must be finite")
        if abs(d[-1]) >= _TAIL_TOL:
            raise DomainError(
                f"partial-wave tail not converged: |delta_l_max| = "
                f"{abs(d[-1]):.3e} >= {_TAIL_TOL:g}; increase l_max")
        if not (self.r_max > 0 and self.dr > 0):
            raise DomainError("r_max and dr must be positive")


def _reduced_strength(p, kin, r):
    return abs(float(evaluate(p, r))) * 2.0 * kin.mass / kin.hbar**2


def _auto_r_max(p, kin, r_eff):
    bound = _DECAY * kin.k**2
    r = max(r_eff, 2.0 * np.pi / kin.k, 1.0)
    while _reduced_strength(p, kin, r) > bound:
        r += 0.25
        if r > 500.0:
            raise RangeError("potential does not decay below the matching "
                             "threshold within r = 500")
    return r


def _normalise(y, d):
    """Scale each wave's (y, d) in place by the power of two 2^-e that puts
    max(|y|, |d|) into [1/2, 1); exact, so every ratio keeps its bits."""
    e = np.frexp(np.maximum(np.abs(y), np.abs(d)))[1]
    np.ldexp(y, -e, out=y)
    np.ldexp(d, -e, out=d)


def _advance(g, y, d, t, every_step=False):
    """Step (y, d) in place through the rows of g: d += g_n y, y += d.
    every_step normalises before each step."""
    for g_n in g:
        if every_step:
            _normalise(y, d)
        np.multiply(g_n, y, out=t)
        np.add(d, t, out=d)
        np.add(y, d, out=y)


def _integrate(base, inv_r2, ll1, h2, y, d, i_a, i_b):
    """Carry (y, d) in place from grid index 2 to i_b; return y at i_a.

    g_n = h2 f_n / (1 - h2 f_n/12), f_n = base_n + l(l+1)/r_n^2, is formed
    _CHUNK rows at a time into buffers allocated once. Before i_a each
    chunk starts from a normalised state; a chunk that still overflows
    (the steep growth of a high wave near the origin) is redone from its
    start, normalised at every step. From i_a on nothing is scaled, so y
    at i_a and at i_b carry one common factor.
    """
    t = np.empty_like(y)
    f_buf = np.empty((_CHUNK, y.size))
    g_buf = np.empty((_CHUNK, y.size))
    y_a = None
    # chunk [n0, n1) takes the state from y_{n0} to y_{n1}; i_a is a cut
    cuts = sorted({*range(2, i_b, _CHUNK), i_a, i_b})
    # overflow is caught by the finiteness checks, not by numpy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n0, n1 in zip(cuts, cuts[1:]):
            if n0 == i_a:
                y_a = y.copy()
            f, g = f_buf[:n1 - n0], g_buf[:n1 - n0]
            np.multiply(ll1, inv_r2[n0:n1, None], out=f)
            np.add(base[n0:n1, None], f, out=f)
            np.multiply(h2 / 12.0, f, out=g)
            np.subtract(1.0, g, out=g)
            np.multiply(h2, f, out=f)
            np.divide(f, g, out=g)
            if n0 >= i_a:
                _advance(g, y, d, t)
                continue
            _normalise(y, d)
            start = y.copy(), d.copy()
            _advance(g, y, d, t)
            if not np.isfinite(y).all():
                # a non-finite d reaches y in the same step and stays there
                y[:], d[:] = start
                _advance(g, y, d, t, every_step=True)
    return y_a


def _match(l_arr, k, r_a, r_b, w_a, w_b):
    """The phase shifts of the waves l_arr from u/r at r_a and r_b.

    Each wave's pair (w_a, w_b) is scaled by one power of two, which keeps
    the products with n_l finite and leaves the bits of atan2 as they are.
    The Bessel pairs come from one row per radius. atan2 is libm's, one
    call per wave: numpy's vectorised arctan2 differs from it in the last
    bit for some arguments on AVX-512 hosts.
    """
    e = np.frexp(np.maximum(np.abs(w_a), np.abs(w_b)))[1]
    w_a, w_b = np.ldexp(w_a, -e), np.ldexp(w_b, -e)
    l_top = int(np.max(l_arr))
    j_a, n_a = spherical_bessel_row(l_top, k * r_a)
    j_b, n_b = spherical_bessel_row(l_top, k * r_b)
    with np.errstate(invalid="ignore"):
        num = w_a * j_b[l_arr] - w_b * j_a[l_arr]
        den = w_a * n_b[l_arr] - w_b * n_a[l_arr]
        delta = np.array([math.atan2(y, x)
                          for y, x in zip(num.tolist(), den.tolist())])
        delta[delta > np.pi / 2] -= np.pi
        delta[delta <= -np.pi / 2] += np.pi
    # where n_l overflowed at both radii, den is inf - inf; tan delta is
    # O(j_l/n_l) there, so delta takes its limit 0
    delta[np.isnan(den)] = 0.0
    return delta


def _numerov_sweep(p, kin, l_arr, r_max, dr):
    """Integrate every l of l_arr outward in one radial sweep; return the
    array of their phase shifts.

    Numerov in summed form: with y_n = (1 - h^2 f_n/12) u_n the scheme
    y_{n+1} - 2 y_n + y_{n-1} = h^2 f_n u_n reads d_{n+1} = d_n + g_n y_n,
    y_{n+1} = y_n + d_{n+1}, where d_n = y_n - y_{n-1} and
    g_n = h^2 f_n / (1 - h^2 f_n/12). Carrying the first difference
    instead of two levels costs three in-place operations a step and
    accumulates far less rounding error; u = y/(1 - h^2 f/12) is formed
    only at the two matching radii. Each wave's state is scaled by exact
    powers of two on the way out, never past the first matching radius;
    the match is homogeneous in (u_a, u_b), so the phase shifts do not
    depend on when or how often that happens.
    """
    k = kin.k
    h2 = dr * dr
    two_m = 2.0 * kin.mass / kin.hbar**2

    i_a = int(round(r_max / dr))
    if i_a < 2:
        raise DomainError("r_max must lie at least 2 dr from the origin")
    # the last step lands exactly on r_b = i_b dr
    i_b = i_a + max(1, int(round((np.pi / (2.0 * k)) / dr)))

    r = dr * np.arange(0, i_b + 1, dtype=float)  # r[0] = 0 never used
    base = np.empty(i_b + 1)
    base[0] = 0.0
    base[1:] = two_m * np.asarray(evaluate(p, r[1:]), dtype=float) - k * k
    inv_r2 = np.zeros(i_b + 1)
    inv_r2[1:] = 1.0 / (r[1:] * r[1:])

    if np.all(base[1:] == -k * k):
        # free equation: nothing scatters
        return np.zeros(len(l_arr))

    la = np.asarray(l_arr, dtype=float)
    ll1 = la * (la + 1.0)

    def den_at(n):
        return 1.0 - h2 / 12.0 * (base[n] + ll1 * inv_r2[n])

    # series start u = (r/r_2)^{l+1} (1 + c1 r + c2 r^2 + c3 r^3) from the
    # origin expansion V ~ v_m1/r + v_0 + v_1 r; its power is 1 at r_2 and
    # 2^-(l+1) at r_1 = r_2/2, so the start is finite at every l
    v_m1, v_0, v_1 = origin_expansion(p)
    um1, u0, u1c = two_m * v_m1, two_m * v_0 - k * k, two_m * v_1
    c1 = um1 / (2.0 * la + 2.0)
    c2 = (um1 * c1 + u0) / (2.0 * (2.0 * la + 3.0))
    c3 = (um1 * c2 + u0 * c1 + u1c) / (3.0 * (2.0 * la + 4.0))

    def series(rv):
        return 1.0 + c1 * rv + c2 * rv * rv + c3 * rv**3

    y = den_at(2) * series(r[2])
    d = y - den_at(1) * np.ldexp(series(r[1]), -1 - la.astype(int))
    y_a = _integrate(base, inv_r2, ll1, h2, y, d, i_a, i_b)

    if not (np.all(np.isfinite(y_a)) and np.all(np.isfinite(y))):
        raise ConvergenceError(
            "radial integration overflowed despite rescaling",
            estimate=np.nan, error_estimate=np.inf)
    r_a, r_b = r[i_a], r[i_b]
    return _match(l_arr, k, r_a, r_b, y_a / den_at(i_a) / r_a,
                  y / den_at(i_b) / r_b)


def phase_shifts(p, kin, l_max=None, r_max=None, dr=None):
    """Solve for delta_l, l = 0..l_max, with auto defaults for all knobs.

    l_max=None cuts the waves at the first l0 + 16 j, l0 = ceil(k r_eff)
    + 10, whose |delta| is below the tail threshold, r_eff =
    potentials.effective_radius(p), found on every call. It sweeps up to
    top = l0 + 64, l0 + 128, l0 + 256 and l0 + 416 in turn, each pass only
    the waves above the previous top, stopping at the first pass that holds
    a converged candidate; past l0 + 416 it raises ConvergenceError. An
    explicit l_max is one sweep to l_max.
    r_max=None places the matching radius where the reduced potential
    falls below 1e-12 k^2; dr=None picks a step that holds the
    discretization error well under the tail threshold.
    """
    if not isinstance(kin, Kinematics):
        raise DomainError("kin must be a Kinematics instance")
    k = kin.k
    r_eff = effective_radius(p)
    if dr is None:
        dr = min(0.01 / k, 0.005)
    else:
        dr = float(dr)
        if dr <= 0:
            raise DomainError("dr must be positive")
        if k * dr >= 0.1:
            raise DomainError("k dr must stay below 0.1")

    if r_max is None:
        # up onto the dr grid, so that passing the result back is accepted
        r_max = math.ceil(_auto_r_max(p, kin, r_eff) / dr) * dr
    else:
        r_max = float(r_max)
        if r_max <= 0:
            raise DomainError("r_max must be positive")
        if _reduced_strength(p, kin, r_max) > _DECAY * k * k:
            raise RangeError(
                f"potential has not decayed at r_max = {r_max:g}: "
                f"|V| 2m/hbar^2 exceeds 1e-12 k^2 there")
        # keep the matching radius on the grid
        r_max = round(r_max / dr) * dr

    if l_max is None:
        l0 = int(np.ceil(k * r_eff)) + 10
        tops = [l0 + w for w in _WIDTHS]
    else:
        if l_max < 0 or l_max != int(l_max):
            raise DomainError("l_max must be an integer >= 0")
        l0 = int(l_max)
        tops = [l0]
    # Each pass sweeps the waves above the previous pass's top and tests the
    # candidates l0 + 16 j up to its own top; each l is integrated on its
    # own, so of a wave's bits only the j_l of a wave classically forbidden
    # at the matching radius depend, at rounding level, on which pass swept
    # it. An explicit l_max is kept as given; PhaseShiftSet checks its tail.
    delta = np.empty(0)
    l_cut = l0
    for top in tops:
        delta = np.concatenate([delta, _numerov_sweep(
            p, kin, np.arange(delta.size, top + 1), r_max, dr)])
        while abs(delta[l_cut]) >= _TAIL_TOL and l_cut < top:
            l_cut += 16
        if abs(delta[l_cut]) < _TAIL_TOL or l_max is not None:
            return PhaseShiftSet(k=k, l_max=l_cut, delta=delta[:l_cut + 1],
                                 r_max=r_max, dr=dr)
    raise ConvergenceError(
        "partial-wave tail refuses to converge; the potential may be too "
        "long-ranged for this oracle",
        estimate=float(delta[l_cut]), error_estimate=abs(delta[l_cut]))


def amplitude_partial_wave(ps, theta):
    """f(theta) = (1/2ik) sum (2l+1)(e^{2 i delta_l} - 1) P_l(cos theta).

    theta may be a scalar or a 1-d array in [0, pi]; array input yields an
    Amplitude whose fields are arrays over the same grid.
    """
    th = np.asarray(theta, dtype=float)
    if th.ndim > 1:
        raise DomainError("theta must be a scalar or a 1-d array")
    q = momentum_transfer(ps.k, th)  # checks that theta lies in [0, pi]
    s_mat = (2.0 * np.arange(ps.l_max + 1) + 1.0) * (
        np.exp(2j * ps.delta) - 1.0)
    p_rows = legendre_p_row(ps.l_max, np.cos(th))
    f = np.sum(s_mat[:, None] * p_rows, axis=0) / (2j * ps.k)
    # truncation bound from the last retained partial wave
    tail = (2.0 * ps.l_max + 1.0) * abs(ps.delta[-1]) / ps.k
    return _amplitude(theta, th, q, f.reshape(th.shape), tail)
