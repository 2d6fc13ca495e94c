"""Special functions needed by the scattering engines.

Everything here is plain float64 built on math/numpy. Each routine carries an
accuracy contract checked by the test suite against extended-precision
references (which live in the tests only):

    bessel_j0        |err| <= max(1e-13, 1e-12*|J0|) for |x| <= 1e4
    bessel_k0        same form, x > 0 up to the underflow point of e^{-x}
    legendre_p_row   P_0..P_l by the exact upward recurrence, |x| <= 1
    spherical_bessel relative 1e-10 class away from zeros, via the Wronskian;
                     j_l past the upward range by one Miller pass per row
    j0_zeros         the first n zeros of J0 by bisection, for
                     perfbench/tracer.py only: no library route calls it
    expm1i           e^{ix} - 1 for real x without cancellation: the phase
                     factor of the eikonal, resummed-Born and partial-wave
                     amplitudes, written here once
    libm_exp         exp per element in libm, whose bits do not depend on
                     the SIMD level numpy runs at
    log              natural log of x > 0 from frexp, +, -, * and /, within
                     1 ulp, whose bits hold at every SIMD level too

Scalar in, scalar out; ndarray in, ndarray out. Nothing is cached.
"""

import math

import numpy as np

from .errors import MAX_FLOAT, integer, real, reals

__all__ = [
    "bessel_j0",
    "bessel_k0",
    "legendre_p_row",
    "spherical_bessel",
    "spherical_bessel_row",
    "j0_zeros",
    "expm1i",
    "libm_exp",
    "log",
]

EULER_GAMMA = 0.57721566490153286061


# ---------------------------------------------------------------------------
# Elementary functions whose bits hold on every host: numpy's sin keeps them
# across SIMD levels; libm's exp and a log of exact operations replace np's.
# ---------------------------------------------------------------------------


def expm1i(x):
    """e^{ix} - 1 for real x, as -2 sin^2(x/2) + i sin x: the real part
    1 - cos x ~ x^2/2 does not cancel where x is small."""
    x = np.asarray(x, dtype=float)
    return -2.0 * np.sin(0.5 * x) ** 2 + 1j * np.sin(x)


# exp per element in libm, which np.exp differs from in the last bit for a
# few percent of inputs
libm_exp = np.vectorize(math.exp, otypes=[float])

# log(m), m in [sqrt(1/2), sqrt(2)), is f - (f^2/2 - s (f^2/2 + R)), f = m -
# 1, s = f/(2 + f), R fdlibm's minimax polynomial in s^2 (e_log.c, Sun
# Microsystems 1993); k ln 2 is split so that k ln2_hi is exact
_LG = (0.14798198605116586, 0.15313837699209373, 0.1818357216161805,
       0.22222198432149784, 0.2857142874366239, 0.3999999999940942,
       0.6666666666666735)
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10


def log(x):
    """Natural log of finite x > 0 from frexp, +, -, * and /, within 1 ulp,
    with the same bits at every SIMD level."""
    scalar = np.ndim(x) == 0
    m, k = np.frexp(np.atleast_1d(np.asarray(x, dtype=float)))
    low = m < 0.5 * math.sqrt(2.0)
    # k ln2_hi + (s (hfsq + R) + k ln2_lo - hfsq + f) for f = m (low + 1) - 1
    # and s = f / (2 + f), on temporaries updated in place: each operation
    # is one of the out-of-place form, its operands at most swapped, so the
    # bits stay
    f = low + 1.0
    f *= m
    f -= 1.0
    k -= low
    s = f + 2.0
    np.divide(f, s, out=s)
    z = s * s
    r = z * _LG[0]
    for c in _LG[1:]:
        r += c
        r *= z
    hfsq = 0.5 * f
    hfsq *= f
    r += hfsq
    r *= s
    k = k.astype(float)
    r += np.multiply(k, _LN2_LO, out=z)
    r -= hfsq
    r += f
    k *= _LN2_HI
    r += k
    return float(r[0]) if scalar else r


# ---------------------------------------------------------------------------
# J0: the Cephes (Moshier) approximations. For |x| <= 5 a rational in
# z = x^2 with the first two zeros j_{0,1}^2, j_{0,2}^2 factored out; beyond,
# the Hankel asymptotic form with rational fits of its modulus and phase
# functions in 25/x^2. Both are plain arithmetic plus numpy's cos/sin/sqrt,
# so a Python float and an ndarray element get the same bits.
# ---------------------------------------------------------------------------

_J0_BRANCH = 5.0

_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
       -2.49248344360967716204e14, 9.70862251047306323952e15)
_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5,
       4.84409658339962045305e7, 1.11855537045356834862e10,
       2.11277520115489217587e12, 3.10518229857422583814e14,
       3.18121955943204943306e16, 1.71086294081043136091e18)
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1

_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
       1.23953371646414299388e0, 5.44725003058768775090e0,
       8.74716500199817011941e0, 5.30324038235394892183e0,
       9.99999999999999997821e-1)
_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
       1.25352743901058953537e0, 5.47097740330417105182e0,
       8.76190883237069594232e0, 5.30605288235394617618e0,
       1.00000000000000000218e0)
_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
       -1.95539544257735972385e1, -9.32060152123768231369e1,
       -1.77681167980488050595e2, -1.47077505154951170175e2,
       -5.14105326766599330220e1, -6.05014350600728481186e0)
_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2,
       3.88240183605401609683e3, 7.24046774195652478189e3,
       5.93072701187316984827e3, 2.06209331660327847417e3,
       2.42005740240291393179e2)
_SQ2OPI = 7.9788456080286535587989e-1
_PIO4 = 0.78539816339744830962


def _polevl(x, coeffs):
    r = coeffs[0]
    for c in coeffs[1:]:
        r = r * x + c
    return r


def _p1evl(x, coeffs):
    r = x + coeffs[0]
    for c in coeffs[1:]:
        r = r * x + c
    return r


def _j0_rational(x):
    z = x * x
    return (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _p1evl(z, _RQ)


def _j0_asymptotic(x):
    z = 25.0 / (x * x)
    p = _polevl(z, _PP) / _polevl(z, _PQ)
    q = _polevl(z, _QP) / _p1evl(z, _QQ)
    xn = x - _PIO4
    p = p * np.cos(xn) - (5.0 / x) * q * np.sin(xn)
    return _SQ2OPI * p / np.sqrt(x)


def bessel_j0(x):
    """Bessel function of the first kind, order zero. Even in x. A scalar
    takes the array path and returns a float."""
    ax = np.abs(reals(x, "x", -MAX_FLOAT, MAX_FLOAT))
    out = np.empty_like(ax)
    small = ax <= _J0_BRANCH
    out[small] = _j0_rational(ax[small])
    out[~small] = _j0_asymptotic(ax[~small])
    return float(out) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# K0: defining series on (0, 2], exponentially scaled integral beyond.
# For x > 2 the cosh representation K0 = int_0^inf e^{-x cosh t} dt becomes,
# after u = sqrt(cosh t - 1) and u = s/sqrt(x),
#     K0(x) = 2 e^{-x} / sqrt(x) * int_0^inf e^{-s^2} / sqrt(s^2/x + 2) ds,
# a Gaussian-weighted analytic integrand that the trapezoid rule nails at
# spectral accuracy with a fixed step (worst case is the x = 2 seam).
# ---------------------------------------------------------------------------

_K0_BRANCH = 2.0
_TINIEST = math.ulp(0.0)  # the least x > 0
_K0_H = 0.32
_K0_S = _K0_H * np.arange(0, int(np.ceil(6.8 / _K0_H)) + 1)
_K0_EXP = np.exp(-_K0_S * _K0_S)
_K0_W = np.where(_K0_S == 0.0, 0.5, 1.0) * _K0_EXP * _K0_H


def _k0_series(x):
    # K0 = -(log(x/2) + gamma) I0(x) + sum_{n>=1} (x^2/4)^n / (n!)^2 * H_n
    # All series terms are positive for x <= 2; no cancellation.
    w = 0.25 * x * x
    term = np.ones_like(x)
    i0 = np.ones_like(x)
    hsum = np.zeros_like(x)
    h = 0.0
    for n in range(1, 18):
        term = term * w / (n * n)
        h += 1.0 / n
        i0 = i0 + term
        hsum = hsum + term * h
    return -(np.log(0.5 * x) + EULER_GAMMA) * i0 + hsum


def _k0_scaled_tail(x):
    # x may be an ndarray; returns K0(x) for x > 2.
    xs = np.asarray(x, dtype=float)
    grid = _K0_S * _K0_S
    val = (_K0_W / np.sqrt(grid[None, :] / xs[..., None] + 2.0)).sum(axis=-1)
    return 2.0 * np.exp(-xs) / np.sqrt(xs) * val


def bessel_k0(x):
    """Modified Bessel function of the second kind, order zero, for finite
    x > 0."""
    scalar = np.ndim(x) == 0
    xa = reals(x, "x", _TINIEST, MAX_FLOAT)
    out = np.empty_like(xa)
    small = xa <= _K0_BRANCH
    if small.any():
        out[small] = _k0_series(xa[small])
    if (~small).any():
        out[~small] = _k0_scaled_tail(xa[~small])
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Legendre polynomials and spherical Bessel functions.
# ---------------------------------------------------------------------------


def legendre_p_row(l_max, x):
    """All of P_0(x)..P_{l_max}(x) stacked along a leading axis."""
    l_max = integer(l_max, "l_max")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((l_max + 1,) + xa.shape)
    out[0] = 1.0
    if l_max >= 1:
        out[1] = xa
    for n in range(1, l_max):
        out[n + 1] = ((2 * n + 1) * xa * out[n] - n * out[n - 1]) / (n + 1)
    return out


def spherical_bessel_row(l_max, x):
    """Rows (j, n) of spherical Bessel values j_l(x), n_l(x) for
    l = 0..l_max at finite x > 0.

    n comes from the upward recurrence, which is always stable for it. j
    goes upward as far as that is stable, which is l <= 1 or x >= l + 1;
    the rest of the row comes from one pass of Miller's downward
    recurrence, seeded at l_max + 30 + x and scaled to j_0, or to j_1
    where that is larger. Below x = 0.5, where its closed form cancels,
    j_1 is its power series.
    """
    l_max = integer(l_max, "l_max")
    x = real(x, "x", positive=True)
    sin_x = math.sin(x)
    cos_x = math.cos(x)
    n = [-cos_x / x, -cos_x / (x * x) - sin_x / x]
    for i in range(1, l_max):
        n.append((2 * i + 1) / x * n[i] - n[i - 1])
    j = [sin_x / x, sin_x / (x * x) - cos_x / x]
    if x < 0.5:
        # the closed form cancels: the series x/3 - x^3/30 + x^5/840 - ...,
        # whose terms past the eighth fall below 1e-17 of the first
        term = j[1] = x / 3.0
        for i in range(1, 8):
            term *= -x * x / (2 * i * (2 * i + 3))
            j[1] += term
    for i in range(1, min(l_max, int(x - 1.0))):
        j.append((2 * i + 1) / x * j[i] - j[i - 1])
    up = len(j)
    if up <= l_max:
        # f_i for i = up..l_max, rescaled with the recurrence
        f = np.zeros(l_max + 1 - up)
        f_next, f_cur = 0.0, 1e-300
        for i in range(l_max + 30 + int(x), 0, -1):
            f_next, f_cur = f_cur, (2 * i + 1) / x * f_cur - f_next
            if up < i <= l_max + 1:
                f[i - 1 - up] = f_cur
            if abs(f_cur) > 1e250:
                f_cur *= 1e-250
                f_next *= 1e-250
                f *= 1e-250
        # scaled to j_0, or to j_1 where it is larger: j_0 vanishes at n pi
        scale = (j[0] / f_cur if abs(j[0]) >= abs(j[1])
                 else j[1] / f_next)
        j += (f * scale).tolist()
    return np.array(j[:l_max + 1]), np.array(n[:l_max + 1])


def spherical_bessel(l, x):
    """Spherical Bessel pair (j_l(x), n_l(x)) for x > 0, integer l >= 0:
    the last entries of spherical_bessel_row(l, x)."""
    j, n = spherical_bessel_row(l, x)
    return float(j[-1]), float(n[-1])


# ---------------------------------------------------------------------------
# Positive zeros of J0. McMahon's expansion puts the s-th zero within 0.05
# of (s - 1/4) pi, and consecutive zeros lie more than 3 apart, so
# (s - 1/4) pi +- 0.1 brackets the s-th zero and no other.
# ---------------------------------------------------------------------------


def j0_zeros(n):
    """First n positive zeros of J0, by one bisection of all n brackets at
    once; nothing is kept between calls. Each zero depends on its own
    bracket alone, so j0_zeros(m) is a prefix of j0_zeros(n) for m <= n."""
    n = integer(n, "n")
    guess = (np.arange(1, n + 1) - 0.25) * np.pi
    lo, hi = guess - 0.1, guess + 0.1
    f_lo = bessel_j0(lo)
    for _ in range(60):  # 0.2/2^60 is far below one ulp of 2.4
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j0(mid)
        left = f_lo * f_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
    return 0.5 * (lo + hi)
