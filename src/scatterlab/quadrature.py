"""Quadrature built on a nested Gauss-Kronrod 7/15 rule, and an exact
series for a polynomial times sin(q x).

Four entry points:

    integrate_adaptive       finite interval, worst-interval bisection, for
                             cross_sections._total_direct
    integrate_semi_infinite  [0, inf) as integrate_adaptive of the rational
                             map x = t/(1-t) onto [0, 1]; no library route
                             calls it (the analytic z-profiles take
                             eikonal's trapezoid rule), it stays public,
                             and eikonal, born and partial_wave bind it
                             only for perfbench/tracer.py
    integrate_sin            piecewise polynomial times sin(q x)/q, for
                             many q, by an exact local series
    hankel0                  int_0^upper g(b) J0(q b) b db for many q on
                             one partition that they share

An adaptive integrand f(x) maps a flat ndarray (the nodes of a round's
panels) to one of its shape, complex values allowed. One routine forms
the GK15 sums of the adaptive integrators and of hankel0, each a
fixed-order sum over one panel's own 15 values, so a panel's numbers do
not depend on the panels or the q it is evaluated with, nor on a BLAS
build or its thread count. Error estimation follows the QUADPACK scheme:
err = resasc * min(1, (200 |K15 - G7| / resasc)^1.5) with a roundoff
floor, which the test suite calibrates against a corpus of closed-form
integrals. It is evaluated with numpy over all panels of a round, except
the power, which is libm pow on Python floats: numpy's vectorised power
differs from it in the last bit for some arguments on AVX-512 hosts, and
so would the bisection that follows.

integrate_sin integrates a polynomial times sin(q x)/q between given
breakpoints, such as a table's spline times the 3-d Fourier kernel, in
the manner of Filon (Proc. R. Soc. Edinburgh 49, 1928): the polynomial is
integrated exactly against the kernel's local series. Each interval of
width h is cut into ceil(q h / 2) equal pieces, so that q H <= 2 on every
piece of width H. On a piece from x0, with P shifted to powers of u = x -
x0 and its exact moments mu_n = int_0^H P u^n du,

    int P sin(q x)/q = (sin(q x0)/q) C + cos(q x0) S,
    C = sum_m (-1)^m q^2m mu_2m/(2m)!, S = sum_m (-1)^m q^2m mu_2m+1/(2m+1)!,

both cut at the first M whose dropped term t^(2M+2)/(2M+2)!, t = q H on
the partition's widest piece, is below eps/100. Where q |x0| is below
sqrt(eps) on every piece, sin(q x0)/q takes its q -> 0 limit x0, which
it equals to rounding: a subnormal q x0 keeps too few bits of x0 to be
divided by q again. A partition's moments
serve every q that shares it, and each q takes its own M, so a value has
the bits of a call at that q alone. Only sin and cos are called, whose
bits do not depend on numpy's SIMD level. The dropped terms are at most
twice the first, times (|x0| + H) int |P| a piece, and the reported
error adds the rounding floor 100 eps sum |piece terms|. The series is
exact, so no setting bounds its pieces: only _SIN_PIECES, a cap on the
memory a call takes, counts those beyond two an interval.

hankel0 is global-adaptive over one partition of [0, upper] shared by
every q (Piessens et al., QUADPACK, 1983): it starts from panels about
one J0 period wide at the largest q, and g is evaluated once per node and
J0 once per (q, node). Each round bisects every panel on which some q
whose summed error is above its target max(abs_tol, rel_tol |value_q|,
100 eps int |g J0 b|) has an error above that target's share, an equal
part of it on each panel. The last term is the rounding level of the
integral, twice the floor under every panel's error, so a q asked for
less stops there instead of exhausting the budget. max_subdivisions caps
the bisections of the partition. A value therefore depends, at rounding
level, on the q it was computed with. The range is the caller's: a
property of the integrand, such as the reach of a potential, not a
setting.

Where g is not smooth at b = 0, hankel0's last rounds bisect only the
panel there, as QUADPACK's rules do at an endpoint singularity. Once two
rounds in a row have bisected it, the ratio of its errors predicts the
halvings still to come, and the round makes them at once: it cuts the
panel into the panels those halvings leave, evaluates them in its one
call with its other new panels, and counts each halving against the
budget. The next bisection there is plain and measures the ratio afresh.
The count takes libm's log on Python floats, like the error rule's power,
so the partition does not depend on numpy's SIMD kernels.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (MAX_FLOAT, ConvergenceError, DomainError, integer, real,
                     reals)
from .special_functions import bessel_j0
# j0_zeros is bound here only because perfbench/tracer.py rebinds it in
# quadrature's namespace.
from .special_functions import j0_zeros  # noqa: F401

__all__ = [
    "QuadratureSettings",
    "QuadratureResult",
    "DEFAULT_SETTINGS",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "integrate_sin",
    "hankel0",
]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budgets shared by the integration routines.

    rel_tol/abs_tol       target |error| <= max(abs_tol, rel_tol*|value|)
    max_subdivisions      bisection budget per adaptive call (for
                          hankel0, of the shared partition)
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        real(self.rel_tol, "rel_tol", positive=True)
        real(self.abs_tol, "abs_tol", positive=True)
        integer(self.max_subdivisions, "max_subdivisions", minimum=8)


@dataclass(frozen=True)
class QuadratureResult:
    """value and error_estimate are (m,) arrays for a call with an array of
    m q."""

    value: complex
    error_estimate: float
    evaluations: int


DEFAULT_SETTINGS = QuadratureSettings()

# 15-point Kronrod extension of 7-point Gauss-Legendre (QUADPACK dqk15).
_XK = (0.991455371120812639206854697526329,
       0.949107912342758524526189684047851,
       0.864864423359769072789712788640926,
       0.741531185599394439863864773280788,
       0.586087235467691130294144838258730,
       0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WKH = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WK_CENTER = 0.209482141084727828012999174891714
_WGH = (0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975)
_WG_CENTER = 0.417959183673469387755102040816327

_NODES = np.array([-x for x in _XK] + [0.0] + [x for x in reversed(_XK)])
_WK = np.array(list(_WKH) + [_WK_CENTER] + list(reversed(_WKH)))
_WG = np.array(list(_WGH) + [_WG_CENTER] + list(reversed(_WGH)))

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_ROOT_EPS = math.sqrt(_EPS)


def _abs(z):
    """|z| elementwise; complex moduli by hypot, which has the bits of the
    scalar abs (numpy's vectorised complex abs differs in the last bit)."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _qk_errors(resk, resg, resabs, resasc):
    """QUADPACK error estimates of GK15 panels from their K15 and G7 sums
    and their |f| and |f - mean| moments (arrays of one shape)."""
    err = _abs(resk - resg)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = np.minimum(200.0 * err[scaled] / resasc[scaled], 1.0)
    # x ** 1.5 on Python floats is libm pow, the bits of the scalar
    # formula; numpy's vectorised power differs in the last bit for some
    # arguments on AVX-512 hosts. min(1, r^1.5) = min(1, r)^1.5 for r >= 0.
    err[scaled] = resasc[scaled] * np.array([r ** 1.5
                                             for r in ratio.tolist()])
    return np.maximum(err, 50.0 * _EPS * resabs)


def _nodes(lo, hi):
    """The GK15 nodes of panels [lo[j], hi[j]], a row each, and the panels'
    half widths."""
    hw = 0.5 * (hi - lo)
    return 0.5 * (lo + hi)[:, None] + hw[:, None] * _NODES, hw


def _check_finite(y, a, b):
    """Raise DomainError naming the first panel [a[j], b[j]] whose row of y
    is not finite."""
    finite = np.isfinite(np.abs(y)).all(axis=1)
    if not finite.all():
        j = np.argmin(finite)
        raise DomainError(f"integrand returned non-finite values on "
                          f"[{float(a[j])!r}, {float(b[j])!r}]")


def _gk15(f, hw, width):
    """GK15 panels of half width hw and width width, from the integrand's
    values f at their 15 nodes along the last axis: (K15 values, error
    estimates, K15 integrals of |f|). Every sum runs over one panel's own
    values in a fixed order, so a panel's numbers do not depend on the
    panels or the q it is evaluated with."""
    resk = hw * (_WK * f).sum(axis=-1)
    resg = hw * (_WG * f[..., 1::2]).sum(axis=-1)
    resabs = np.abs(hw) * (_WK * np.abs(f)).sum(axis=-1)
    mean = np.divide(resk, width, out=np.zeros_like(resk), where=width != 0)
    resasc = np.abs(hw) * (_WK * np.abs(f - mean[..., None])).sum(axis=-1)
    return resk, _qk_errors(resk, resg, resabs, resasc), resabs


def _gk15_panels(f, lo, hi):
    """[(error, lo, hi, K15 value)] of GK15 panels [lo[j], hi[j]] of f."""
    lo, hi = np.array(lo), np.array(hi)
    x, hw = _nodes(lo, hi)
    y = np.asarray(f(x.ravel()))
    if y.shape != (x.size,):
        raise DomainError("integrand must map an ndarray to an ndarray of "
                          "the same shape")
    _check_finite(y.reshape(x.shape), lo, hi)
    val, err, _ = _gk15(y.reshape(x.shape), hw, hi - lo)
    return list(zip(err, lo, hi, val))


def integrate_adaptive(f, a, b, settings=DEFAULT_SETTINGS):
    """Integrate f (flat ndarray to one of its shape, complex allowed) over
    [a, b], a <= b, bisecting the first interval of largest error; totals
    are running sums over the intervals in the order made, from +0.0."""
    a, b = real(a, "a"), real(b, "b")
    if a > b:
        raise DomainError(f"interval endpoints out of order: {a!r} > {b!r}",
                          key="b")
    if a == b:
        return QuadratureResult(np.float64(0.0), np.float64(0.0), 0)
    parts = _gk15_panels(f, [a], [b])
    total_err, _, _, total = parts[0]
    while total_err > max(settings.abs_tol,
                          settings.rel_tol * _abs(np.array(total))):
        if len(parts) > settings.max_subdivisions:
            raise ConvergenceError(
                f"quadrature budget of {settings.max_subdivisions} "
                f"subdivisions exhausted (error estimate {total_err:.3e})",
                estimate=total, error_estimate=total_err,
                key="max_subdivisions")
        _, lo, hi, _ = parts.pop(max(range(len(parts)),
                                     key=lambda j: parts[j][0]))
        mid = 0.5 * (lo + hi)
        parts += _gk15_panels(f, [lo, mid], [mid, hi])
        total = sum((part[3] for part in parts), np.float64(0.0))
        total_err = sum((part[0] for part in parts), np.float64(0.0))
    return QuadratureResult(total, total_err, 30 * len(parts) - 15)


def integrate_semi_infinite(f, settings=DEFAULT_SETTINGS):
    """Integrate f over [0, inf): integrate_adaptive of f(t/u)/u^2, u =
    1 - t, over [0, 1]. A tail too slow to integrate, such as 1/x, keeps
    bisecting the panel at t = 1 until a node rounds to 1, or the budget
    runs out first; either raises ConvergenceError."""
    def mapped(t):
        if np.any(t >= 1.0):
            raise ConvergenceError(
                "integrand tail does not decay: the panel at x = inf has "
                "shrunk to the float spacing below t = 1")
        u = 1.0 - t
        return np.asarray(f(t / u)) / (u * u)
    return integrate_adaptive(mapped, 0.0, 1.0, settings)


# pairs per block, so the memory a call takes does not grow with its
# count of points: (q, node) pairs in hankel0's panels, (b, node) pairs in
# eikonal._trapezoid_rows and (b, knot) pairs in potentials.abel_profile
_KERNEL_BLOCK = 1 << 13

# the 7-point Gauss rule embedded in GK15, which potentials' exact weight
# sums take, and the largest q H on a piece of integrate_sin's partition
_G7_NODES = _NODES[1::2]
_PIECE_PHASE = 2.0
# the most pieces beyond two an interval that integrate_sin may cut, a cap
# on a call's memory; the benchmark's table, at q h <= 1, cuts none
_SIN_PIECES = 1 << 15


def _q_array(q, caller):
    """q, a scalar or 1-d array of finite q >= 0, as a 1-d float array."""
    qs = np.atleast_1d(reals(q, "q", 0.0, MAX_FLOAT))
    if qs.ndim != 1:
        raise DomainError(f"{caller} takes a scalar q or a 1-d array of q",
                          key="q")
    return qs


def _series_order(t):
    """(M, d) for t = q H: the first M whose dropped term d =
    t^(2M+2)/(2M+2)! of the cos and sin series is below eps/100, from
    products of Python floats alone."""
    m, d = 0, 0.5 * t * t
    while d >= 0.01 * _EPS:
        m += 1
        d *= t * t / ((2 * m + 1) * (2 * m + 2))
    return m, d


def integrate_sin(q, lo, hi, coef, origin=None):
    """sum_j int_{lo[j]}^{hi[j]} P_j(x - origin[j]) sin(q x)/q dx, which is
    int P_j(x - origin[j]) x dx at q = 0, for a scalar q or for each q of a
    1-d array, by the exact local series of the module docstring. P_j is
    sum_k coef[k, j] s^k, of any degree; origin defaults to lo.

    The error estimate bounds the series' dropped terms, plus the rounding
    floor 100 eps sum |piece terms|. More than _SIN_PIECES pieces beyond
    two an interval raise ConvergenceError naming the largest q.
    """
    scalar = np.ndim(q) == 0
    qs = _q_array(q, "integrate_sin")
    lo = reals(lo, "lo", -MAX_FLOAT, MAX_FLOAT)
    hi = reals(hi, "hi", -MAX_FLOAT, MAX_FLOAT)
    origin = lo if origin is None else \
        reals(origin, "origin", -MAX_FLOAT, MAX_FLOAT)
    coef = reals(coef, "coef", -MAX_FLOAT, MAX_FLOAT)
    width = hi - lo
    if not (np.all(np.isfinite(width)) and np.all(width >= 0.0)):
        raise DomainError("integrate_sin requires intervals with lo <= hi "
                          "and a finite width hi - lo", key="hi")
    value, error = np.zeros(qs.size), np.zeros(qs.size)
    pieces_summed = 0
    if width.size and qs.size:
        order = np.argsort(qs, kind="stable")

        def cut(x):
            return np.maximum(np.ceil(x * width / _PIECE_PHASE), 1.0)

        counts = np.array([cut(x).sum() for x in qs[order]])
        extra = float(np.maximum(cut(qs[order[-1]]) - 2.0, 0.0).sum())
        if extra > _SIN_PIECES:
            raise ConvergenceError(
                f"integrate_sin at q = {float(qs[order[-1]])!r} would cut "
                f"{extra:.6g} pieces beyond two an interval, over "
                f"{_SIN_PIECES:,}")
        # a partition only refines as q grows, so the q of one piece count
        # share a partition
        for group in np.split(order, np.flatnonzero(np.diff(counts)) + 1):
            value[group], error[group], n = _sin_series(
                qs[group], lo, width, origin, coef, cut(qs[group[0]]))
            pieces_summed += n
    if scalar:
        return QuadratureResult(float(value[0]), float(error[0]),
                                pieces_summed)
    return QuadratureResult(value, error, pieces_summed)


def _sin_series(qs, lo, width, origin, coef, pieces):
    """integrate_sin on one partition, for each q of qs: (values, error
    estimates, piece count). The moments depend on the partition alone,
    and each q sums its own terms of them, so its bits are those of a
    call at that q alone."""
    n = pieces.astype(np.int64)
    j = np.repeat(np.arange(width.size), n)
    i = np.arange(j.size) - np.repeat(np.cumsum(n) - n, n)
    H = (width / pieces)[j]
    x0 = lo[j] + i * H
    # each P_j shifted to its piece's start by Horner's scheme, and e_k =
    # c_k H^(k+1), so that mu_n = H^n sum_k e_k / (k + n + 1)
    c = [row[j] for row in coef]
    delta = (lo - origin)[j] + i * H
    for a in range(len(c) - 1):
        for k in range(len(c) - 2, a - 1, -1):
            c[k] = c[k] + delta * c[k + 1]
    e = [ck * hk for ck, hk in zip(c, accumulate([H] * len(c), np.multiply))]
    # |sin(q x0)/q| <= |x0|, and sum_k |e_k|/(k + 1) >= int |P|
    tail = float(((np.abs(x0) + H) * sum(
        np.abs(ek) / (k + 1) for k, ek in enumerate(e))).sum())
    hmax, x0_max = float(H.max()), float(np.abs(x0).max())
    orders = [_series_order(float(x) * hmax) for x in qs]
    # mu_n / (H^n n!), times H for odd n: the terms of C and S at q = 0
    mu = [sum(ek * (1.0 / ((k + n + 1) * math.factorial(n)))
              for k, ek in enumerate(e))
          for n in range(2 * max(m for m, _ in orders) + 2)]
    mu[1::2] = [H * odd for odd in mu[1::2]]
    value, error = np.empty(qs.size), np.empty(qs.size)
    for r, (x, (m, d)) in enumerate(zip(qs, orders)):
        u = x * H
        u *= u
        C, S = mu[2 * m], mu[2 * m + 1]
        for a in range(2 * m - 2, -1, -2):
            C = mu[a] - u * C
            S = mu[a + 1] - u * S
        arg = x * x0
        tc = (np.sin(arg) / x if x * x0_max >= _ROOT_EPS else x0) * C
        ts = np.cos(arg) * S
        value[r] = (tc + ts).sum()
        error[r] = 2.0 * d * tail + 100.0 * _EPS * (np.abs(tc)
                                                      + np.abs(ts)).sum()
    return value, error, H.size


# the most panels hankel0 may start from; the suite, the shipped configs
# and the benchmark's inputs start from at most 382
_HANKEL_PANELS = 1 << 15


def _j0_envelope(q, b):
    """|J0(q b)| b <= min(1, sqrt(2/(pi q b))) b."""
    x = np.maximum(q * b, _TINY)
    return np.minimum(1.0, np.sqrt(2.0 / (np.pi * x))) * b


def _g_values(g, x):
    """[values] or [values, bounds] of g at the node rows x, g called on
    blocks of at most _KERNEL_BLOCK nodes."""
    step = max(1, _KERNEL_BLOCK // _NODES.size)
    parts = []
    for j in range(0, len(x), step):
        y = g(x[j:j + step])
        parts.append([np.asarray(e) for e in (y if isinstance(y, tuple)
                                              else (y,))])
        if any(e.shape != x[j:j + step].shape for e in parts[-1]):
            raise DomainError("integrand must map an ndarray to an ndarray "
                              "of the same shape")
    return [np.concatenate(e) for e in zip(*parts)]


def _hankel_panels(g, q, lo, hi):
    """GK15 panels [lo[j], hi[j]] of g(b) J0(q b) b for every q of the
    (n, 1, 1) array q, g evaluated once per node: (K15 values, error
    estimates, integrals of g's bounds against J0's envelope, zero without
    bounds, K15 integrals of |g J0 b|), each of shape (n, P). J0 is formed
    in blocks of at most _KERNEL_BLOCK (q, node) pairs, which bound the
    memory and move no bit."""
    x, hw = _nodes(lo, hi)
    y, *bound = _g_values(g, x)
    _check_finite(y, lo, hi)
    step = max(1, _KERNEL_BLOCK // (_NODES.size * q.shape[0]))
    parts = []
    for j in range(0, lo.size, step):
        s = slice(j, j + step)
        resk, err, resabs = _gk15(y[s] * (bessel_j0(q * x[s]) * x[s]),
                                  hw[s], hi[s] - lo[s])
        werr = hw[s] * (_WK * (bound[0][s] * _j0_envelope(q, x[s]))).sum(
            axis=-1) if bound else np.zeros(resk.shape)
        parts.append((resk, err, werr, resabs))
    return tuple(np.concatenate(c, axis=1) for c in zip(*parts))


def hankel0(g, q, upper, settings=DEFAULT_SETTINGS):
    """int_0^upper g(b) J0(q b) b db for a scalar q, or for each q of a 1-d
    array on one shared partition (see the module docstring), starting
    from panels about one period 2 pi/q of J0 wide at the largest q.

    g maps an ndarray to one of the same shape, or to a pair (values,
    bounds), bounds[j] >= |error of values[j]|; the bounds are then
    integrated against J0's envelope min(1, sqrt(2/(pi q b))) b on the
    final panels and added to each q's error_estimate. A q whose abs_tol
    and rel_tol ask for less than 100 eps int |g J0 b| stops at that
    rounding level, and its error_estimate may exceed the request. More
    than _HANKEL_PANELS first panels raise ConvergenceError at once.
    """
    real(upper, "upper", positive=True)
    scalar = np.ndim(q) == 0
    qs = _q_array(q, "hankel0")
    if not qs.size:
        return QuadratureResult(np.zeros(0), np.zeros(0), 0)
    value, error, neval = _hankel_loop(g, qs, upper, settings)
    if scalar:
        return QuadratureResult(value[0], float(error[0]), neval)
    return QuadratureResult(value, error, neval)


def _hankel_loop(g, qs, upper, settings):
    """hankel0's rounds over the 1-d array qs: (values, error estimates,
    nodes g saw).

    When a round bisects the panel [0, h] at b = 0 and the round before
    bisected the panel there too, each open q's errors on [0, h] and
    [0, 2h] give a ratio per halving. The round then makes the m further
    halvings that ratio predicts, at most the budget left, at once: [0, h]
    becomes [0, h/2^(m+1)], [h/2^(m+1), h/2^m], ..., [h/2, h], and the m
    halvings count against the budget. The panel at b = 0 is next bisected
    plainly, which measures the ratio afresh.
    """
    q_max = float(np.max(qs))
    periods = q_max * upper / (2.0 * np.pi)
    panels = math.floor(periods) + 1 if math.isfinite(periods) else math.inf
    if panels > _HANKEL_PANELS:
        raise ConvergenceError(
            f"hankel0 at q = {q_max!r} over [0, {upper!r}] would start from "
            f"{panels:.6g} panels, over {_HANKEL_PANELS:,}")
    edges = np.linspace(0.0, upper, panels + 1)
    q3 = qs[:, None, None]
    lo, hi = edges[:-1], edges[1:]
    val, err, werr, resabs = _hankel_panels(g, q3, lo, hi)
    neval = _NODES.size * lo.size
    err0 = None  # the errors on [0, 2h] when the last round bisected it
    splits = 0
    while True:
        value, total = val.sum(axis=1), err.sum(axis=1)
        # no target below twice the rounding floor _qk_errors puts under
        # every panel's error: below it a q could only exhaust the budget
        tol = np.maximum(np.maximum(settings.abs_tol,
                                    settings.rel_tol * _abs(value)),
                         100.0 * _EPS * resabs.sum(axis=1))
        # an open q's share of its target: an equal part on each panel
        share = (tol / lo.size)[:, None]
        going = total > tol
        split = (err > share)[going].any(axis=0)
        n = int(np.count_nonzero(split))
        if not n:
            break
        if splits + n > settings.max_subdivisions:
            j = np.argmax(total / tol)
            raise ConvergenceError(
                f"quadrature budget of {settings.max_subdivisions} "
                f"subdivisions exhausted at q = {float(qs[j])!r} (error "
                f"estimate {total[j]:.3e})",
                estimate=value[j], error_estimate=total[j],
                key="max_subdivisions")
        mid = 0.5 * (lo[split] + hi[split])
        new = (np.concatenate([lo[split], mid]),
               np.concatenate([mid, hi[split]]))
        m = 0
        if split[0] and err0 is not None:
            ends = _ladder(float(mid[0]), min(
                _halvings(err[going, 0], err0[going], share[going, 0]),
                settings.max_subdivisions - splits - n))
            m = ends.size - 1
            new = (np.concatenate([[0.0], ends[:0:-1], new[0][1:]]),
                   np.concatenate([ends[::-1], new[1][1:]]))
        err0 = err[:, 0] if split[0] and not m else None
        parts = _hankel_panels(g, q3, *new)
        neval += _NODES.size * new[0].size
        lo, hi = (np.concatenate([x[~split], y]) for x, y in zip((lo, hi),
                                                                 new))
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        val, err, werr, resabs = (
            np.concatenate([x[:, ~split], y], axis=1)[:, order]
            for x, y in zip((val, err, werr, resabs), parts))
        splits += n + m
    return value, total + werr.sum(axis=1), neval


def _halvings(err, err0, share):
    """The most halvings of the panel at b = 0 after this one that leave
    some q's error above its share, if each halving multiplies that q's
    error by err/err0 as the last one did."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, gap = err / err0, share / err
    falls = (rho < 1.0) & (gap < 1.0) & (gap > 0.0)
    # libm's log on Python floats, as _qk_errors takes its power: numpy's
    # log kernel differs in the last bit between SIMD levels, and a ceil
    # on the boundary would then move the partition between hosts
    return max((math.ceil(math.log(x) / math.log(r)) - 1 for x, r in
                zip(gap[falls].tolist(), rho[falls].tolist())), default=0)


def _ladder(h, halvings):
    """h and its halvings h/2, ..., h/2^halvings, fewer where one would
    fall below the smallest normal float."""
    ends = [h]
    while len(ends) <= halvings and 0.5 * ends[-1] >= _TINY:
        ends.append(0.5 * ends[-1])
    return np.array(ends)
