"""Shared closed-form oracles used by several test modules.

Exact values come from pencil-and-paper antiderivatives, mpmath, or scipy.
The reference kernels at the end are plainer implementations of what the
package computes, most of them frozen copies of earlier code; the optimised
ones must keep their bits. The classic Numerov sweep is kept for comparison
only: the summed form that replaced it rounds differently, and more finely.
"""

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.interpolate import CubicSpline, PPoly, make_interp_spline
from scipy.optimize import brentq

from scatterlab import paper_forms, partial_wave, quadrature
from scatterlab.config import k_tag
from scatterlab.eikonal import Amplitude, momentum_transfer
from scatterlab.errors import (ConvergenceError, DomainError, PoleError,
                               RangeError, ScatterError,
                               UnsupportedModelError)
from scatterlab.potentials import (Gauss, TabulatedRadial, Yukawa, evaluate,
                                   origin_expansion, reach)
from scatterlab.quadrature import (_EPS, _NODES, _WG, _WK, QuadratureSettings,
                                   integrate_adaptive,
                                   integrate_semi_infinite)
from scatterlab.special_functions import (bessel_k0, expm1i,
                                         spherical_bessel_row)

# Corpus for calibrating the quadrature error estimator: (name, f, a, b,
# exact). b = None marks a semi-infinite integral over [0, inf). Entries mix
# smooth, oscillatory, kinked, and endpoint-singular integrands.
E = np.e


def _estimator_corpus():
    entries = [
        ("cubic", lambda x: x**3, 0.0, 1.0, 0.25),
        ("exp", np.exp, 0.0, 1.0, E - 1.0),
        ("sin", np.sin, 0.0, np.pi, 2.0),
        ("lorentz", lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, np.pi / 4),
        ("log1p", np.log1p, 0.0, 1.0, 2.0 * np.log(2.0) - 1.0),
        ("sqrt", np.sqrt, 0.0, 1.0, 2.0 / 3.0),
        ("inv_sqrt", lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
        ("cos2_fast", lambda x: np.cos(10.0 * x) ** 2, 0.0, 2.0 * np.pi,
         np.pi),
        ("gauss", lambda x: np.exp(-(x**2)), 0.0, 1.0,
         0.7468241328124270254),  # sqrt(pi)/2 * erf(1)
        ("runge", lambda x: 1.0 / (1.0 + 25.0 * x**2), -1.0, 1.0,
         0.4 * np.arctan(5.0)),
        ("x_sin30", lambda x: x * np.sin(30.0 * x), 0.0, 1.0,
         np.sin(30.0) / 900.0 - np.cos(30.0) / 30.0),
        ("kink", lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, 5.0 / 18.0),
        ("near_pole", lambda x: 1.0 / (x + 0.01), 0.0, 1.0, np.log(101.0)),
        ("steep_tanh", lambda x: np.tanh(20.0 * (x - 0.5)), 0.0, 1.0, 0.0),
        ("damped_osc", lambda x: np.exp(-x) * np.sin(20.0 * x), 0.0, 3.0,
         (20.0 - np.exp(-3.0) * (20.0 * np.cos(60.0) + np.sin(60.0)))
         / 401.0),
        ("exp_tail", lambda x: np.exp(-x), 0.0, None, 1.0),
        ("gauss_tail", lambda x: np.exp(-(x**2)), 0.0, None,
         np.sqrt(np.pi) / 2.0),
        ("lorentz2_tail", lambda x: 1.0 / (1.0 + x**2) ** 2, 0.0, None,
         np.pi / 4.0),
        ("x_exp_tail", lambda x: x * np.exp(-x), 0.0, None, 1.0),
        ("cos_exp_tail", lambda x: np.exp(-x) * np.cos(5.0 * x), 0.0, None,
         1.0 / 26.0),
    ]
    return entries


ESTIMATOR_CORPUS = _estimator_corpus()


def square_well_delta0(k, v0, a, m=1.0):
    """s-wave phase shift for V(r) = -v0 inside r < a, 0 outside.

    tan(delta0) = (k tan(Ka) - K tan(ka)) / (K + k tan(ka) tan(Ka)) with
    K = sqrt(k^2 + 2 m v0), hbar = 1. Standard textbook matching of the
    interior sin(Kr) solution to sin(kr + delta0).
    """
    kin = np.sqrt(k * k + 2.0 * m * v0)
    num = k * np.tan(kin * a) - kin * np.tan(k * a)
    den = kin + k * np.tan(k * a) * np.tan(kin * a)
    return np.arctan2(num, den)


# List-based worst-interval bisection: each row keeps a Python list of
# (error, a, b, value) intervals, and totals are sum() over that list.
# Reference for quadrature.integrate_adaptive, run on one row, and for its
# vectorised error rule; test_born's knotwise transform runs it on many.


def _qk_error(resk, resg, resabs, resasc):
    """QUADPACK error estimate of one GK15 panel from its K15 and G7 sums
    and its |f| and |f - mean| moments."""
    # Scalar arithmetic on purpose: numpy's vectorised power differs from
    # the scalar one in the last bit for some arguments, so this is mapped
    # over the panels to keep the bits of the scalar formula.
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, 50.0 * _EPS * resabs)


def _row_label(row):
    return f" in row {row}"


def _no_label(row):
    return ""


def _gk15_rows(f, rows, a, b, label=_row_label):
    """GK15 panels [a[j], b[j]] of the row-batched f, row rows[j], in one
    call to f: (K15 values, error estimates)."""
    center = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    y = np.asarray(f(rows, center[:, None] + hw[:, None] * _NODES))
    if y.shape != (len(a), _NODES.size):
        raise DomainError("row-batched integrand must map (P, n) points to "
                          "a (P, n) ndarray")
    finite = np.isfinite(np.abs(y)).all(axis=1)
    if not finite.all():
        j = np.argmin(finite)
        raise DomainError(f"integrand returned non-finite values on "
                          f"[{float(a[j])!r}, {float(b[j])!r}]"
                          f"{label(rows[j])}")
    resk = hw * (_WK * y).sum(axis=1)
    resg = hw * (_WG * y[:, 1::2]).sum(axis=1)
    resabs = np.abs(hw) * (_WK * np.abs(y)).sum(axis=1)
    mean = np.divide(resk, b - a, out=np.zeros_like(resk), where=b != a)
    resasc = np.abs(hw) * (_WK * np.abs(y - mean[:, None])).sum(axis=1)
    err = np.array(list(map(_qk_error, resk, resg, resabs, resasc)))
    return resk, err


def _split_worst(intervals):
    """Pop the interval of largest error (the first on ties) from the
    (error, a, b, value) list; return its (a, midpoint, b)."""
    worst = max(range(len(intervals)), key=lambda i: intervals[i][0])
    _, wa, wb, _ = intervals.pop(worst)
    return wa, 0.5 * (wa + wb), wb


def _adaptive_rows(f, rows, a, b, abs_tol, rel_tol, max_subdivisions,
                   label=_row_label):
    """Worst-interval bisection of the row-batched f over [a[j], b[j]] for
    row rows[j].

    Each row keeps its own interval list; one round bisects the worst
    interval of every unfinished row, evaluating all new panels in one
    call. Returns (values, errors, evaluations), the last summed over rows.
    label(row) names a failing row in the error message.
    """
    if len(a) == 0:
        return np.zeros(0), np.zeros(0), 0
    vals, errs = _gk15_rows(f, rows, a, b, label)
    intervals = [[iv] for iv in zip(errs, a, b, vals)]
    totals = list(vals)
    total_errs = list(errs)
    neval = 15 * len(a)
    live = range(len(a))
    splits = 0
    while True:
        live = [j for j in live
                if total_errs[j] > max(abs_tol, rel_tol * abs(totals[j]))]
        if not live:
            return np.array(totals), np.array(total_errs), neval
        if splits >= max_subdivisions:
            j = live[0]
            raise ConvergenceError(
                f"quadrature budget of {max_subdivisions} subdivisions "
                f"exhausted{label(rows[j])} (error estimate "
                f"{total_errs[j]:.3e})",
                estimate=totals[j], error_estimate=total_errs[j])
        cuts = [_split_worst(intervals[j]) for j in live]
        lo = np.array([x for wa, mid, _ in cuts for x in (wa, mid)])
        hi = np.array([x for _, mid, wb in cuts for x in (mid, wb)])
        v, e = _gk15_rows(f, rows[np.repeat(live, 2)], lo, hi, label)
        for n, j in enumerate(live):
            iv = intervals[j]
            iv.append((e[2 * n], lo[2 * n], hi[2 * n], v[2 * n]))
            iv.append((e[2 * n + 1], lo[2 * n + 1], hi[2 * n + 1],
                       v[2 * n + 1]))
            totals[j] = sum(t[3] for t in iv)
            total_errs[j] = sum(t[0] for t in iv)
        neval += 30 * len(live)
        splits += 1


def abel_transform(edges, coef, bs, dps=30):
    """w(b) = 2 int_b^R V(r) r dr/sqrt(r^2 - b^2) of the piecewise cubic
    (edges, coef) of potentials.TabulatedRadial._pieces at each float b of
    bs, in mpmath at dps digits: each piece in powers of r, against the
    antiderivatives K_n of r^n/sqrt(r^2 - b^2), K_0 = acosh(r/b), K_1 = s,
    K_n = r^(n-1) s/n + (n-1)/n b^2 K_(n-2), which vanish at r = b. The
    knot r = e_k closes piece k - 1 and opens piece k, so it adds the
    difference of their coefficients against its K_1..K_4."""
    mpf = mpmath.mpf
    out = []
    with mpmath.workdps(dps):
        knots = [mpf(float(x)) for x in edges]
        powers = [(0, 0, 0, 0)]
        for j in range(len(knots) - 1):
            y0, c1, c2, c3 = (mpf(float(x)) for x in coef[:, j])
            t = knots[j]
            powers.append((y0 - t * (c1 - t * (c2 - t * c3)),
                           c1 - t * (2 * c2 - 3 * t * c3), c2 - 3 * t * c3,
                           c3))
        powers.append((0, 0, 0, 0))
        # per knot: r, r^2, r^3 and the jumps, with the factors 1/2, 1/3
        # and 1/4 of K_2..K_4 taken into them
        rows = [(r, r * r, r * r * r, x0 - y0, (x1 - y1) / 2, (x2 - y2) / 3,
                 (x3 - y3) / 4) for r, (x0, x1, x2, x3), (y0, y1, y2, y3)
                in zip(knots, powers, powers[1:])]
        for b in bs:
            b = mpf(float(b))
            bb = b * b
            total = mpf(0)
            for r, rr, rrr, j0, j1, j2, j3 in rows:
                if r <= b:
                    continue
                s = mpmath.sqrt((r - b) * (r + b))
                k2 = r * s + bb * mpmath.log((r + s) / b) if b else r * s
                total += j0 * s + j1 * k2 + j2 * s * (rr + 2 * bb) \
                    + j3 * (rrr * s + bb * 1.5 * k2)
            out.append(float(2 * total))
    return np.array(out)


def fourier_transform(edges, coef, qs, dps=30):
    """Vtilde(q) = 4 pi int V r sin(q r)/q dr of the piecewise cubic
    (edges, coef) of potentials.TabulatedRadial._pieces at each float q of
    qs, in mpmath at dps digits: on a piece from e, Q(s) = (e + s) P(s)
    against the antiderivative Im e^{iqr} sum_j (-1)^j Q^(j)/(iq)^(j+1) of
    Q sin(q r), and at q = 0 int Q (e + s) ds from Q's powers."""
    mpf = mpmath.mpf
    out = []
    with mpmath.workdps(dps):
        pieces = []
        for j in range(len(edges) - 1):
            e = mpf(float(edges[j]))
            y0, b, c, d = (mpf(float(x)) for x in coef[:, j])
            pieces.append((e, mpf(float(edges[j + 1])) - e,
                           [e * y0, y0 + e * b, b + e * c, c + e * d, d]))
        for q in qs:
            q = mpf(float(q))
            total = mpf(0)
            for e, h, Q in pieces:
                if not q:
                    total += sum(c * (e * h ** (n + 1) / (n + 1)
                                      + h ** (n + 2) / (n + 2))
                                 for n, c in enumerate(Q))
                    continue

                def antiderivative(s, e=e, Q=Q):
                    acc, der = mpmath.mpc(0), Q
                    for n in range(len(Q)):
                        acc += (-1) ** n * sum(
                            c * s ** i for i, c in enumerate(der)) / (
                            1j * q) ** (n + 1)
                        der = [i * c for i, c in enumerate(der)][1:]
                    return (mpmath.expj(q * (e + s)) * acc).imag / q

                total += antiderivative(h) - antiderivative(mpf(0))
            out.append(float(4 * mpmath.pi * total))
    return np.array(out)


def lambda_factor(x):
    """Lambda(x) = (e^{ix} - 1)/(ix), the closed-form lambda integral of
    the resummed Born series, with its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    xs = np.where(x == 0.0, 1.0, x)  # dummy where the limit is used
    return np.where(x == 0.0, 1.0, expm1i(xs) / (1j * xs))


# hankel0's loop with plain bisections only: each round bisects every panel
# it splits once, where hankel0 makes the halvings predicted at b = 0 in
# one round, so the two partitions differ and their values agree within
# the two error estimates. The panels themselves go through the package's
# _hankel_panels.


def hankel_rounds(g, qs, upper, settings):
    """(values, error estimates, (lo, hi) of the final partition, nodes
    evaluated) of hankel0 over the 1-d array qs, round by round."""
    q_max = float(np.max(qs))
    periods = q_max * upper / (2.0 * np.pi)
    panels = math.floor(periods) + 1 if math.isfinite(periods) else math.inf
    if panels > quadrature._HANKEL_PANELS:
        raise ConvergenceError(
            f"hankel0 at q = {q_max!r} over [0, {upper!r}] would start from "
            f"{panels:.6g} panels, over {quadrature._HANKEL_PANELS:,}")
    edges = np.linspace(0.0, upper, panels + 1)
    q3 = qs[:, None, None]
    lo, hi = edges[:-1], edges[1:]
    val, err, werr, resabs = quadrature._hankel_panels(g, q3, lo, hi)
    neval = 15 * lo.size
    splits = 0
    while True:
        value, total = val.sum(axis=1), err.sum(axis=1)
        tol = np.maximum(np.maximum(settings.abs_tol,
                                    settings.rel_tol * quadrature._abs(value)),
                         100.0 * _EPS * resabs.sum(axis=1))
        split = (err > (tol / lo.size)[:, None])[total > tol].any(axis=0)
        n = int(np.count_nonzero(split))
        if not n:
            break
        if splits + n > settings.max_subdivisions:
            j = np.argmax(total / tol)
            raise ConvergenceError(
                f"quadrature budget of {settings.max_subdivisions} "
                f"subdivisions exhausted at q = {float(qs[j])!r} (error "
                f"estimate {total[j]:.3e})",
                estimate=value[j], error_estimate=total[j])
        mid = 0.5 * (lo[split] + hi[split])
        new = (np.concatenate([lo[split], mid]),
               np.concatenate([mid, hi[split]]))
        parts = quadrature._hankel_panels(g, q3, *new)
        lo, hi = (np.concatenate([x[~split], y]) for x, y in zip((lo, hi),
                                                                 new))
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        val, err, werr, resabs = (
            np.concatenate([x[:, ~split], y], axis=1)[:, order]
            for x, y in zip((val, err, werr, resabs), parts))
        splits += n
        neval += 30 * n
    return value, total + werr.sum(axis=1), (lo, hi), neval


# Spherical Bessel pair of one order, each recurrence run to that order.
# Reference for special_functions.spherical_bessel and spherical_bessel_row.


def spherical_bessel(l, x):
    """Spherical Bessel pair (j_l(x), n_l(x)) for x > 0, integer l >= 0."""
    sin_x = math.sin(x)
    cos_x = math.cos(x)
    n0 = -cos_x / x
    j0 = sin_x / x
    if l == 0:
        return j0, n0

    n1 = -cos_x / (x * x) - sin_x / x
    n_prev, n_cur = n0, n1
    for i in range(1, l):
        n_prev, n_cur = n_cur, (2 * i + 1) / x * n_cur - n_prev
    nl = n_cur

    j1 = sin_x / (x * x) - cos_x / x
    if l == 1:
        return j1, nl

    if x >= l + 1:
        j_prev, j_cur = j0, j1
        for i in range(1, l):
            j_prev, j_cur = j_cur, (2 * i + 1) / x * j_cur - j_prev
        return j_cur, nl

    # Miller's algorithm: seed high above l, recur down, scale to j_0, or
    # to j_1 where it is larger.
    start = l + 30 + int(x)
    f_next = 0.0
    f_cur = 1e-300
    f_l = 0.0
    for i in range(start, 0, -1):
        f_prev = (2 * i + 1) / x * f_cur - f_next
        f_next, f_cur = f_cur, f_prev
        if i - 1 == l:
            f_l = f_cur
        if abs(f_cur) > 1e250:
            f_cur *= 1e-250
            f_next *= 1e-250
            f_l *= 1e-250
    if abs(j0) < abs(j1):
        return f_l * (j1 / f_next), nl
    return f_l * (j0 / f_cur), nl


# Natural cubic spline that forms each interval's coefficients at every
# evaluation, extrapolating the end cubics. Reference for
# _spline.natural_cubic and, through table_evaluate, for a table's pieces.


class CubicSpline1D:
    """Interpolating cubic with natural (zero second derivative) ends."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        if x.ndim != 1 or x.shape != y.shape:
            raise DomainError("spline knots and values must be matching "
                              "1-d arrays")
        if x.size < 2:
            raise DomainError("spline needs at least two knots")
        if not np.all(np.diff(x) > 0.0):
            raise DomainError("spline knots must be strictly increasing")
        self.x = x
        self.y = y
        n = x.size
        m = np.zeros(n, dtype=y.dtype)
        if n > 2:
            h = np.diff(x)
            dy = np.diff(y) / h
            # tridiagonal system for interior second derivatives, natural
            # ends pinned at zero; Thomas elimination
            diag = 2.0 * (h[:-1] + h[1:])
            lower = h[:-1].copy()
            upper = h[1:].copy()
            rhs = 6.0 * (dy[1:] - dy[:-1])
            k = n - 2
            cp = np.zeros(k)
            dp = np.zeros(k, dtype=y.dtype)
            cp[0] = upper[0] / diag[0]
            dp[0] = rhs[0] / diag[0]
            for i in range(1, k):
                denom = diag[i] - lower[i] * cp[i - 1]
                cp[i] = upper[i] / denom
                dp[i] = (rhs[i] - lower[i] * dp[i - 1]) / denom
            m[k] = dp[k - 1]
            for i in range(k - 2, -1, -1):
                m[i + 1] = dp[i] - cp[i] * m[i + 2]
        self._m = m

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        idx = np.clip(np.searchsorted(self.x, xq, side="right") - 1,
                      0, self.x.size - 2)
        x0 = self.x[idx]
        h = self.x[idx + 1] - x0
        m0 = self._m[idx]
        m1 = self._m[idx + 1]
        y0 = self.y[idx]
        y1 = self.y[idx + 1]
        a = y0
        b = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
        c = m0 / 2.0
        d = (m1 - m0) / (6.0 * h)
        s = xq - x0
        out = a + s * (b + s * (c + s * d))
        return out[0] if scalar else out


def table_evaluate(r, v, interpolation, rq):
    """V of a table at the array rq, as potentials.evaluate computed it
    before a table held its pieces: rq clamped up to r[0], then the
    spline or np.interp, then 0 beyond r[-1]."""
    if interpolation == "cubic":
        interp = CubicSpline1D(r, v)
    else:
        def interp(x):
            return np.interp(x, r, v)
    out = np.asarray(interp(np.maximum(rq, r[0])), dtype=float)
    return np.where(rq > r[-1], 0.0, out)


def _kinks(p):
    """A table's knots and the zeros of its V (from scipy's interpolant of
    the same kind), where |V| r^2 is not smooth."""
    if p.interpolation == "cubic":
        spline = CubicSpline(p.r, p.v, bc_type="natural")
    else:
        spline = PPoly.from_spline(make_interp_spline(p.r, p.v, k=1))
    zeros = spline.roots(extrapolate=False)
    return np.r_[p.r, zeros[np.isfinite(zeros)]]


def weight(p, lo, hi):
    """int_lo^hi |V(r)| r^2 dr by scipy quad at epsrel 1e-12, one call
    between each two kinks of a table."""
    kinks = _kinks(p) if isinstance(p, TabulatedRadial) else np.zeros(0)
    edges = np.r_[lo, np.sort(kinks[(kinks > lo) & (kinks < hi)]), hi]
    # a sliver between a knot and a zero of V beside it weighs below 1e-12
    # of the whole, and there QUADPACK warns of roundoff at epsrel 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return math.fsum(
            quad(lambda r: abs(evaluate(p, r)) * r * r, a, b, epsabs=0.0,
                 epsrel=1e-12, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:]))


def spline_total(theta, dsig, clip=True):
    """2 pi int max(S, 0) sin(theta) dtheta of scipy's natural cubic spline
    S of the rows, exact: on each interval, split at S's zeros (scipy's
    roots), the antiderivative -P cos + P' sin + P'' cos - P''' sin of the
    interval's cubic P at 40 digits. clip=False integrates S itself."""
    spline = CubicSpline(theta, dsig, bc_type="natural")
    zeros = spline.roots(extrapolate=False) if clip else np.zeros(0)
    total = mpmath.mpf(0)
    with mpmath.workdps(40):
        for j in range(theta.size - 1):
            a3, a2, a1, a0 = (mpmath.mpf(float(c)) for c in spline.c[:, j])
            x0 = mpmath.mpf(float(theta[j]))

            def cubic(s):
                return a0 + s * (a1 + s * (a2 + s * a3))

            def antiderivative(s):
                c, si = mpmath.cos(x0 + s), mpmath.sin(x0 + s)
                return (-cubic(s) * c + (a1 + s * (2 * a2 + 3 * s * a3)) * si
                        + (2 * a2 + 6 * a3 * s) * c - 6 * a3 * si)

            inside = zeros[(zeros > theta[j]) & (zeros < theta[j + 1])]
            cuts = [mpmath.mpf(0)] + sorted(
                mpmath.mpf(float(z)) - x0 for z in inside) + [
                mpmath.mpf(float(theta[j + 1])) - x0]
            for u, v in zip(cuts[:-1], cuts[1:]):
                if not clip or cubic((u + v) / 2) > 0:
                    total += antiderivative(v) - antiderivative(u)
        return float(2 * mpmath.pi * total)


def effective_radius_tight(p):
    """The radius holding 0.9999 of int_0^R |V| r^2 dr: for Yukawa the
    mpmath root of (1 + x) e^{-x} = 1e-4, x = mu r; for Gauss that of
    erfc(x) + (2/sqrt(pi)) x e^{-x^2} = 1e-4, x = sqrt(alpha) r (the tails
    beyond R = reach(p) are below rounding of the target); for a table a
    root of the weight integrated between kinks, R its last radius."""
    if isinstance(p, Yukawa):
        x = mpmath.findroot(lambda x: (1 + x) * mpmath.exp(-x) - 1e-4, 11.8)
        return float(x / p.mu)
    if isinstance(p, Gauss):
        x = mpmath.findroot(lambda x: mpmath.erfc(x) + 2 / mpmath.sqrt(
            mpmath.pi) * x * mpmath.exp(-x * x) - 1e-4, 3.2)
        return float(x / mpmath.sqrt(p.alpha))
    edges = np.r_[0.0, p.r[p.r > 0.0]]
    below = np.cumsum([weight(p, a, b)
                       for a, b in zip(edges[:-1], edges[1:])])
    target = 0.9999 * below[-1]
    j = int(np.searchsorted(below, target))
    start = below[j - 1] if j else 0.0
    return brentq(lambda r: start + weight(p, edges[j], r) - target,
                  edges[j], edges[j + 1], xtol=1e-300, rtol=4.0 * _EPS)


# Effective radius by a fixed 80 bisection steps over a semi-infinite total.
# Reference for potentials.effective_radius, which is within 1e-11 of it on
# Yukawa and Gauss.


def effective_radius(p, fraction=0.9999):
    """Radius enclosing the given fraction of the weight int |V| r^2 dr."""
    settings = QuadratureSettings(rel_tol=1e-9, abs_tol=1e-300)

    def w(r):
        return np.abs(evaluate(p, r)) * r * r

    if isinstance(p, TabulatedRadial):
        r_hi = float(p.r[-1])
        total = integrate_adaptive(w, 0.0, r_hi, settings).value
    else:
        r_hi = 1.0
        total = integrate_semi_infinite(w, settings).value
        if total > 0.0:
            while integrate_adaptive(w, 0.0, r_hi, settings).value \
                    < fraction * total:
                r_hi *= 2.0
    if total <= 0.0:
        return 0.0
    target = fraction * total
    lo, hi = 0.0, r_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if integrate_adaptive(w, 0.0, mid, settings).value < target:
            lo = mid
        else:
            hi = mid
    return hi


def swept_potential(p, r, r0=math.inf):
    """V at r, times partial_wave's switch s from r0 on: the potential its
    sweep takes when it splits V at r0; V itself for r0 = inf."""
    v = np.asarray(evaluate(p, r), dtype=float)
    return v * partial_wave._switch(r, r0) if r0 < r[-1] else v


# The start rule of partial_wave._wave_starts, one wave and one block at a
# time: where each wave's sweep begins on the fine grid. Reference for the
# rule, and the start the sweeps below take.


def wave_starts(p, kin, l_arr, r_a, r_b, dr, r0=math.inf):
    """The radius at which partial_wave starts each wave of l_arr on the
    grids of finest step dr matched at r_a and r_b, 0 for the origin: the
    last edge 128 b dr, b >= 1, from which the sum over blocks of 128 steps
    of sqrt(min f) 128 dr, up to the first block whose min f <= 0 or to
    r_a, reaches ln(1/eps)/2 + 4; min f is the least 2mV - k^2 on
    the block's points plus l(l+1)/r^2 at its end."""
    two_m = 2.0 * kin.mass
    i_a = int(round(r_a / dr))
    i_b = int(round(r_b / dr))
    r = dr * np.arange(0, i_b + 1, dtype=float)
    base = np.zeros(i_b + 1)
    base[1:] = two_m * swept_potential(p, r[1:], r0) - kin.k * kin.k
    target = 0.5 * math.log(1.0 / np.finfo(float).eps) + 4.0
    out = np.zeros(len(l_arr))
    for i, l in enumerate(l_arr):
        ll1 = float(l) * (float(l) + 1.0)
        growth = []
        for b in range(i_a // 128):
            end = 128 * b + 128
            f_min = min(base[max(128 * b, 1):end + 1]) \
                + ll1 * (1.0 / (r[end] * r[end]))
            if f_min <= 0.0:
                break
            growth.append(math.sqrt(f_min) * (128 * dr))
        total = 0.0
        for b in range(len(growth) - 1, 0, -1):
            total += growth[b]
            if total >= target:
                out[i] = r[128 * b]
                break
    return out


def _first_steps(starts, l_arr, dr):
    """Each wave's start index on the grid of step dr: 2, for the series,
    where starts is None or 0."""
    if starts is None:
        return np.full(len(l_arr), 2)
    s = np.asarray(starts, dtype=float)
    return np.where(s > 0.0, np.rint(s / dr), 2.0).astype(int)


# Numerov sweeps that form each step's coefficients inside the step loop:
# the summed form normalised at every step (reference for each grid of
# partial_wave._sweep_grids, bit for bit), the classic two-level form that
# preceded it, and the summed form in any float dtype (in np.longdouble the
# reference for the rounding error of the other two). Each matches every
# wave with the Bessel rows of _row_match, as partial_wave does. Each takes
# the waves' start radii from wave_starts, or None to start every wave from
# the origin series; a wave started at r_s has u = 0 one step back and y =
# 1 at r_s, and is 0 before.


def series_coefficients(p, two_m, k, la):
    """c_0..c_6 of the origin series u = r^{l+1} sum c_n r^n, each an array
    over the waves la: c_n n (2l + n + 1) = sum_i u_i c_{n-1-i} over the
    expansion 2mV - k^2 ~ u_0/r + u_1 + ... + u_5 r^4."""
    u = [two_m * v for v in origin_expansion(p)]
    u[1] = u[1] - k * k
    c = [np.ones_like(la)]
    for n in range(1, 7):
        c.append(sum(u[i] * c[n - 1 - i] for i in range(min(n, 6)))
                 / (n * (2.0 * la + n + 1.0)))
    return c


def _sweep_start(p, kin, l_arr, r_a, r_b, dr, dtype, starts, r0):
    """(i_a, i_b, r, h2, f, u_1, u_2, first) of a sweep in dtype: the
    matching indices nearest r_a and r_b, the float radii, h^2, f(n) =
    l(l+1)/r_n^2 + 2mV(r_n) - k^2 for every wave, the six-term
    series start at r_1 and r_2 and each wave's start index; None for the
    free equation."""
    k = dtype(kin.k)
    h = dtype(dr)
    two_m = dtype(2.0 * kin.mass)
    i_a = int(round(r_a / dr))
    i_b = int(round(r_b / dr))
    r = dr * np.arange(0, i_b + 1, dtype=float)
    rd = r.astype(dtype)
    base = np.zeros(i_b + 1, dtype=dtype)
    base[1:] = two_m * swept_potential(p, r[1:], r0).astype(dtype) - k * k
    if np.all(base[1:] == -k * k):
        return None
    inv_r2 = np.zeros(i_b + 1, dtype=dtype)
    inv_r2[1:] = 1.0 / (rd[1:] * rd[1:])
    la = np.asarray(l_arr, dtype=dtype)
    ll1 = la * (la + 1.0)

    def f(n):
        return base[n] + ll1 * inv_r2[n]

    c = series_coefficients(p, two_m, k, la)

    def series(rv, scale_pow):
        out = c[6]
        for cn in c[5::-1]:
            out = cn + rv * out
        return scale_pow * out

    u_1 = series(rd[1], 1.0)
    u_2 = series(rd[2], 2.0 ** (la + 1.0))
    return (i_a, i_b, r, h * h, f, u_1, u_2,
            _first_steps(starts, l_arr, dr))


def _match(l_arr, k, r_a, r_b, u_a, u_b):
    """The phase shifts of l_arr from u at r_a and r_b: each wave's pair
    scaled by one power of two, rounded to float, matched by _row_match."""
    if not (np.all(np.isfinite(u_a)) and np.all(np.isfinite(u_b))):
        raise ConvergenceError(
            "radial integration overflowed despite rescaling",
            estimate=np.nan, error_estimate=np.inf)
    w_a, w_b = u_a / r_a, u_b / r_b
    e = np.frexp(np.maximum(np.abs(w_a), np.abs(w_b)))[1]
    return _row_match(l_arr, k, r_a, r_b, np.ldexp(w_a, -e).astype(float),
                      np.ldexp(w_b, -e).astype(float))


def _numerov_sweep(p, kin, l_arr, r_a, r_b, dr, dtype=float, starts=None,
                   r0=math.inf):
    """Summed-form sweep: d_{n+1} = d_n + g_n y_n, y_{n+1} = y_n + d_{n+1}
    with g_n = h^2 f_n / (1 - h^2 f_n/12); before the matching radius each
    wave's (y, d) is scaled by a power of two at every step."""
    start = _sweep_start(p, kin, l_arr, r_a, r_b, dr, dtype, starts, r0)
    if start is None:
        return np.zeros(len(l_arr))
    i_a, i_b, r, h2, f, u_1, u_2, first = start

    def den(n):
        return 1.0 - h2 / 12.0 * f(n)

    y = den(2) * u_2
    d = y - den(1) * u_1
    y[first > 2] = d[first > 2] = 0.0
    y_a = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(2, i_b):
            if n == i_a:
                y_a = y
            if n > 2:
                y[first == n] = d[first == n] = 1.0
            if n < i_a:
                e = np.frexp(np.maximum(np.abs(y), np.abs(d)))[1]
                y, d = np.ldexp(y, -e), np.ldexp(d, -e)
            f_n = f(n)
            g = h2 * f_n / (1.0 - h2 / 12.0 * f_n)
            g[first > n] = 0.0
            d = d + g * y
            y = y + d
    return _match(l_arr, kin.k, r[i_a], r[i_b], y_a / den(i_a),
                  y / den(i_b))


def _numerov_sweep_classic(p, kin, l_arr, r_a, r_b, dr, events=None,
                           starts=None, r0=math.inf):
    """Two-level sweep y_{n+1} = 2 y_n - y_{n-1} + h^2 f_n u_n, u = y/(1 -
    h^2 f/12), rescaled by 1e-250 where |u| passes 1e250. events, if a
    list, receives the grid index of every rescale."""
    start = _sweep_start(p, kin, l_arr, r_a, r_b, dr, float, starts, r0)
    if start is None:
        return np.zeros(len(l_arr))
    i_a, i_b, r, h2, f, u_prev, u_curr, first = start
    f_prev, f_curr = f(1), f(2)
    y_prev = (1.0 - h2 / 12.0 * f_prev) * u_prev
    y_curr = (1.0 - h2 / 12.0 * f_curr) * u_curr
    late = first > 2
    y_prev[late] = y_curr[late] = u_curr[late] = 0.0

    u_a = None
    for n in range(2, i_b):
        fresh = first == n
        if n > 2 and fresh.any():
            y_prev[fresh] = 0.0
            y_curr[fresh] = 1.0
            u_curr[fresh] = 1.0 / (1.0 - h2 / 12.0 * f_curr[fresh])
        y_next = 2.0 * y_curr - y_prev + h2 * f_curr * u_curr
        f_next = f(n + 1)
        u_next = y_next / (1.0 - h2 / 12.0 * f_next)
        if n + 1 < i_a and np.abs(u_next).max() > 1e250:
            # forbidden-region growth: rescale per l, ratios are preserved
            if events is not None:
                events.append(n + 1)
            mask = np.abs(u_next) > 1e250
            scale = np.where(mask, 1e-250, 1.0)
            y_curr = y_curr * scale
            y_next = y_next * scale
            u_next = u_next * scale
        if n + 1 == i_a:
            u_a = u_next.copy()
        y_prev, y_curr = y_curr, y_next
        f_curr = f_next
        u_curr = u_next
    return _match(l_arr, kin.k, r[i_a], r[i_b], u_a, u_curr)


# The three-sweep scheme that phase_shifts ran before its grids shared one
# loop: one chunked sweep per step size h, 2h and 4h, each forming its
# coefficient rows _CHUNK steps at a time, for every wave, and normalising
# each chunk's start before the matching radius; a wave's start index is a
# cut, and its rows are 0 before it. Reference for
# partial_wave._sweep_grids, which must keep its bits on every grid.

_CHUNK = 128


def _normalise(y, d):
    e = np.frexp(np.maximum(np.abs(y), np.abs(d)))[1]
    np.ldexp(y, -e, out=y)
    np.ldexp(d, -e, out=d)


def _advance(g, y, d, t, every_step=False):
    for g_n in g:
        if every_step:
            _normalise(y, d)
        np.multiply(g_n, y, out=t)
        np.add(d, t, out=d)
        np.add(y, d, out=y)


def _integrate(base, inv_r2, ll1, h2, y, d, i_a, i_b, first):
    t = np.empty_like(y)
    f_buf = np.empty((_CHUNK, y.size))
    g_buf = np.empty((_CHUNK, y.size))
    y_a = None
    cuts = sorted({*range(2, i_b, _CHUNK), i_a, i_b, *first.tolist()})
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n0, n1 in zip(cuts, cuts[1:]):
            if n0 == i_a:
                y_a = y.copy()
            if n0 > 2:
                y[first == n0] = d[first == n0] = 1.0
            f, g = f_buf[:n1 - n0], g_buf[:n1 - n0]
            np.multiply(ll1, inv_r2[n0:n1, None], out=f)
            np.add(base[n0:n1, None], f, out=f)
            np.multiply(h2 / 12.0, f, out=g)
            np.subtract(1.0, g, out=g)
            np.multiply(h2, f, out=f)
            np.divide(f, g, out=g)
            g[:, first > n0] = 0.0
            if n0 >= i_a:
                _advance(g, y, d, t)
                continue
            _normalise(y, d)
            start = y.copy(), d.copy()
            _advance(g, y, d, t)
            if not np.isfinite(y).all():
                y[:], d[:] = start
                _advance(g, y, d, t, every_step=True)
    return y_a


def _row_match(l_arr, k, r_a, r_b, w_a, w_b):
    e = np.frexp(np.maximum(np.abs(w_a), np.abs(w_b)))[1]
    w_a, w_b = np.ldexp(w_a, -e), np.ldexp(w_b, -e)
    # rows to partial_wave's top, which depends on k r_b alone; 0 past it
    top = int(k * r_b + 8.0 * (k * r_b) ** (1.0 / 3.0)) + 10
    j_a, n_a = spherical_bessel_row(top, k * r_a)
    j_b, n_b = spherical_bessel_row(top, k * r_b)
    delta = np.zeros(len(l_arr))
    for i, l in enumerate(np.asarray(l_arr).tolist()):
        if l > top:
            continue
        num = w_a[i] * j_b[l] - w_b[i] * j_a[l]
        den = w_a[i] * n_b[l] - w_b[i] * n_a[l]
        d = math.atan2(num, den)
        delta[i] = d - np.pi if d > np.pi / 2 else (
            d + np.pi if d <= -np.pi / 2 else d)
    return delta


def chunked_sweep(p, kin, l_arr, r_a, r_b, dr, starts=None, r0=math.inf):
    """The phase shifts of l_arr from one chunked sweep of step dr matched
    at the grid points nearest r_a and r_b."""
    k = kin.k
    h2 = dr * dr
    two_m = 2.0 * kin.mass
    i_a = int(round(r_a / dr))
    i_b = int(round(r_b / dr))
    r = dr * np.arange(0, i_b + 1, dtype=float)
    base = np.empty(i_b + 1)
    base[0] = 0.0
    base[1:] = two_m * swept_potential(p, r[1:], r0) - k * k
    inv_r2 = np.zeros(i_b + 1)
    inv_r2[1:] = 1.0 / (r[1:] * r[1:])
    if np.all(base[1:] == -k * k):
        return np.zeros(len(l_arr))
    la = np.asarray(l_arr, dtype=float)
    ll1 = la * (la + 1.0)

    def den_at(n):
        return 1.0 - h2 / 12.0 * (base[n] + ll1 * inv_r2[n])

    c = series_coefficients(p, two_m, k, la)

    def series(rv):
        out = c[6]
        for cn in c[5::-1]:
            out = cn + rv * out
        return out

    y = den_at(2) * series(r[2])
    d = y - den_at(1) * np.ldexp(series(r[1]), -1 - la.astype(int))
    first = _first_steps(starts, l_arr, dr)
    y[first > 2] = d[first > 2] = 0.0
    y_a = _integrate(base, inv_r2, ll1, h2, y, d, i_a, i_b, first)
    if not (np.all(np.isfinite(y_a)) and np.all(np.isfinite(y))):
        raise ConvergenceError(
            "radial integration overflowed despite rescaling",
            estimate=np.nan, error_estimate=np.inf)
    r_a, r_b = r[i_a], r[i_b]
    return _row_match(l_arr, k, r_a, r_b, y_a / den_at(i_a) / r_a,
                      y / den_at(i_b) / r_b)


def on_three_grids(sweep, origin=False):
    """A stand-in for partial_wave._sweep_grids that runs sweep once per
    step size: at dr, 2 dr and 4 dr, each wave started where wave_starts
    puts it on the grid of dr, or, if origin, every wave from the origin."""
    def grids(p, kin, l_arr, r_a, r_b, dr, r0=math.inf):
        starts = None if origin else wave_starts(p, kin, l_arr, r_a, r_b,
                                                 dr, r0)
        return tuple(sweep(p, kin, l_arr, r_a, r_b, s * dr, starts=starts,
                           r0=r0)
                     for s in (1.0, 2.0, 4.0))
    return grids


# The automatic r_max search of partial_wave as a scalar loop, one
# candidate at a time. Reference for partial_wave._auto_r_max, which must
# return the same radius.


def auto_r_max(p, kin, r_eff, decay=partial_wave._DECAY):
    """The first r = r0 + 0.25 j, r0 = max(r_eff, 2 pi/k, 1), where
    2m|V| <= decay k^2, 1e-12 k^2 by default, searched over 64 reaches past
    r0."""
    bound = decay * kin.k**2
    r = max(r_eff, 2.0 * np.pi / kin.k, 1.0)
    limit = r + partial_wave._RANGES * reach(p)[0]
    for _ in range(math.ceil((limit - r) / 0.25) + 1):
        if abs(float(evaluate(p, r))) * 2.0 * kin.mass <= bound:
            return r
        r += 0.25
    raise RangeError("potential does not decay", key="r_max")


# The automatic l_max plan of partial_wave.phase_shifts before the width
# schedule: one pass to l0 + 64 cut at the first converged l0 + 16 j, then
# one 16-wave pass per extension up to l0 + 416, each pass three sweeps
# extrapolated wave by wave. Reference for the width schedule, which must
# keep its l_max and its bits.


def second_radius(kin, r_max, dr):
    """The second matching radius of phase_shifts at finest step dr: a
    quarter wavelength beyond r_max, rounded onto the 4 dr grid."""
    step = 4.0 * dr
    return r_max + step * max(1, round((math.pi / (2.0 * kin.k)) / step))


def extrapolated(p, kin, l_arr, r_max, dr, origin=False, r0=math.inf):
    """(R3, R(h, 2h) or R(2h, 4h)) of l_arr, h = dr, from chunked sweeps at
    h, 2h and 4h between r_max and second_radius, one wave at a time: the
    three-sweep partial_wave._extrapolated, bit for bit; origin starts
    every wave from the origin series, and r0 switches V off from there on
    as partial_wave's split does. R3 = R(h, 2h) + (R(h, 2h) - R(2h,
    4h))/63; the second entry is R(h, 2h) for a potential that is not a
    table whose |R(h, 2h) - R(2h, 4h)| is at most 1/32 of |delta(h) -
    delta(2h)|, else R(2h, 4h)."""
    r_b = second_radius(kin, r_max, dr)
    fine, mid, coarse = on_three_grids(chunked_sweep, origin)(
        p, kin, l_arr, r_max, r_b, dr, r0)
    smooth = not isinstance(p, TabulatedRadial)
    best, worse = np.empty(len(l_arr)), np.empty(len(l_arr))
    for i, (f, m, c) in enumerate(zip(fine.tolist(), mid.tolist(),
                                      coarse.tolist())):
        m += math.pi * round((f - m) / math.pi)
        c += math.pi * round((f - c) / math.pi)
        r12, r24 = f + (f - m) / 15.0, m + (m - c) / 15.0
        b = r12 + (r12 - r24) / 63.0
        shown = smooth and abs(r12 - r24) <= abs(f - m) / 32.0
        w = r12 if shown else r24
        if b > math.pi / 2:
            b, w = b - math.pi, w - math.pi
        elif b <= -math.pi / 2:
            b, w = b + math.pi, w + math.pi
        best[i], worse[i] = b, w
    return best, worse


def split(p, kin, r_max, dr):
    """(R0, r_a) of phase_shifts at r_max and finest step dr: the split
    radius, inf where it does not split, and the first matching radius."""
    r0 = partial_wave._split_radius(p, kin, r_max)
    if r0 is None:
        return math.inf, r_max
    step = 4.0 * dr
    return r0, math.ceil((r0 + partial_wave._SWITCH) / step) * step


def split_extrapolated(p, kin, l_arr, r_max, dr):
    """extrapolated as phase_shifts splits it: swept to the matching radius
    past R0 + 2 with V switched off from R0, and the first-order tail from
    R0 to r_max added to both entries by partial_wave._tail_terms."""
    r0, r_a = split(p, kin, r_max, dr)
    best, worse = extrapolated(p, kin, l_arr, r_a, dr, r0=r0)
    if r0 == math.inf:
        return best, worse
    rule = partial_wave._tail_rule(p, kin, r0, partial_wave._auto_r_max(
        p, kin, r_max, partial_wave._FAR))
    (best, worse), _ = partial_wave._tail_terms(rule, kin.k, kin.k * r0,
                                                np.asarray(l_arr),
                                                (best, worse))
    partial_wave._onto_branch(best, worse)
    return best, worse


def phase_shifts_by_extension(p, kin, r_max, dr):
    """(l_max, delta, passes) of the 16-wave extension plan at the r_max and
    dr phase_shifts resolved; raises the plan's ConvergenceError."""
    tol = partial_wave._TAIL_TOL
    l0 = int(np.ceil(kin.k * partial_wave.effective_radius(p))) + 10
    deltas = split_extrapolated(p, kin, np.arange(0, l0 + 65), r_max, dr)[0]
    l_cut = next((l for l in range(l0, l0 + 64, 16)
                  if abs(deltas[l]) < tol), l0 + 64)
    deltas = deltas[:l_cut + 1]
    passes = 1
    while abs(deltas[-1]) >= tol:
        if deltas.size - 1 > l0 + 400:
            raise ConvergenceError(
                "partial-wave tail refuses to converge; the potential may "
                "be too long-ranged for this oracle",
                estimate=float(deltas[-1]), error_estimate=abs(deltas[-1]))
        ext = np.arange(deltas.size, deltas.size + 16)
        deltas = np.concatenate(
            [deltas, split_extrapolated(p, kin, ext, r_max, dr)[0]])
        passes += 1
    return deltas.size - 1, deltas, passes


# Legendre polynomial of one order by its own upward recurrence, as
# special_functions.legendre_p computed it. Reference for legendre_p_row.


def legendre_p(l, x):
    """P_l(x) at an array x, |x| <= 1, by upward recurrence to l."""
    xa = np.asarray(x, dtype=float)
    p_prev = np.ones_like(xa)
    if l == 0:
        return p_prev
    p_cur = xa.copy()
    for n in range(1, l):
        p_prev, p_cur = p_cur, ((2 * n + 1) * xa * p_cur
                                - n * p_prev) / (n + 1)
    return p_cur


# The reference closed-form amplitude at one angle, as eikonal evaluated it
# before paper_forms.amplitude took theta arrays. Reference for
# eikonal.amplitude_paper_closed.


def amplitude_paper_closed(p, kin, theta):
    """Reference closed forms, evaluated verbatim (epsilon factors dropped).

    These are comparison targets for the report, not ground truth: the
    Yukawa form carries a -k^2 theta^2 denominator term with a suspected
    sign typo and a pole at k*theta = mu, and both use the small-angle q.
    """
    theta = float(theta)
    if not 0.0 <= theta < np.pi:
        raise DomainError("theta must lie in [0, pi)")
    q = float(momentum_transfer(kin.k, theta))
    v = kin.v
    kt2 = (kin.k * theta) ** 2
    if isinstance(p, Yukawa):
        denom = p.mu**2 - kt2
        if abs(denom) <= 1e-9 * (p.mu**2 + kt2):
            raise PoleError(
                f"reference Yukawa form has a pole at k*theta = mu "
                f"(theta = {p.mu / kin.k:.6g}); cannot evaluate at "
                f"theta = {theta:.6g}")
        value = (2.0 * p.g * kin.k / v) / denom
    elif isinstance(p, Gauss):
        a = p.alpha
        value = (0.5 / a) * math.sqrt(np.pi / a) * (p.g * kin.k / v) \
            * math.exp(-kt2 / (8.0 * a))
    else:
        raise UnsupportedModelError(
            "reference closed forms exist only for Yukawa and Gauss")
    return Amplitude(theta=theta, q=q, value=complex(value),
                     error_estimate=0.0)


# The closed-phase eikonal amplitude as one Hankel pass of the whole
# e^{i chi} - 1 over [0, reach(p)], as eikonal.amplitude_eikonal computed it
# before its first-order term was taken from the Born transform. Reference
# for that split.


def eikonal_full_transform(p, kin, theta, settings):
    """(value, error estimate) at each theta of a 1-d array: -i k int_0^R
    J0(q b) (e^{i chi} - 1) b db plus the bound k T/v on the tail
    beyond R, with chi's closed form (Yukawa or Gauss) and numpy's exp."""
    v = kin.v
    if isinstance(p, Yukawa):
        def chi(b):
            return -(2.0 * p.g / v) * bessel_k0(p.mu * b)
    else:
        def chi(b):
            return -(p.g / v) * math.sqrt(np.pi / p.alpha) \
                * np.exp(-p.alpha * b * b)
    q = momentum_transfer(kin.k, theta)
    upper, tail = reach(p)
    res = quadrature.hankel0(lambda b: expm1i(chi(b)), q, upper, settings)
    return (-1j * kin.k * np.asarray(res.value, dtype=complex),
            kin.k * (res.error_estimate + tail / v))


# The pairwise report as runner._report_text rendered it before each number
# was formatted once: every pair formats its own theta, q and dsigma cells
# and computes its rel_dev on its own. Reference for runner._report_text,
# which must keep its text.


def report_text(cfg, tables, verdicts):
    lines = ["pairwise comparison of dsigma/dOmega", ""]
    for k in cfg.k_values:
        present = [s for s in cfg.sources if (s, k) in tables]
        lines.append(f"[k = {k_tag(k)}]")
        if not present:
            lines.append("  no sources completed")
            lines.append("")
            continue
        theta = tables[(present[0], k)].rows[:, 0]
        q = tables[(present[0], k)].rows[:, 1]

        columns = {s: tables[(s, k)].rows[:, 4] for s in present}
        if "paper_closed" in present:
            try:
                columns["reference_form"] = paper_forms.dsigma(
                    cfg.potential, cfg.kinematics(k), theta, q)
                lines.append(
                    "  reference_form: closed |f|^2 with q = "
                    "2 k sin(theta/2) substituted (exact-q variant of the "
                    "paper_closed column)")
            except ScatterError as exc:
                lines.append(f"  reference_form: unavailable: {exc}")

        names = list(columns)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = names[i], names[j]
                da, db = columns[a], columns[b]
                scale = np.maximum(np.maximum(np.abs(da), np.abs(db)),
                                   1e-300)
                dev = np.abs(da - db) / scale
                lines.append(f"  pair: {a} vs {b}")
                lines.append("    theta_rad      q              "
                             f"{a[:14]:<14} {b[:14]:<14} rel_dev")
                lines.extend(
                    f"    {t:<14.6e} {qn:<14.6e} {x:<14.6e} {y:<14.6e} "
                    f"{e:.3e}" for t, qn, x, y, e in zip(
                        theta.tolist(), q.tolist(), da.tolist(), db.tolist(),
                        dev.tolist()))
                fwd = (theta <= 0.2) & np.isfinite(dev)
                if np.any(fwd):
                    worst = float(np.max(dev[fwd]))
                    tag = "CONSISTENT" if worst < 2e-2 else "DEVIATES"
                    lines.append(f"    max rel_dev over theta <= 0.2: "
                                 f"{worst:.3e} -> {tag}")
                finite = np.isfinite(dev)
                if np.any(finite):
                    lines.append(f"    max rel_dev overall: "
                                 f"{float(np.max(dev[finite])):.3e}")
                lines.append("")
        lines.append("")

    lines.append("reference formula checks")
    if not verdicts and isinstance(cfg.potential, (Yukawa, Gauss)):
        lines.append("  (skipped: see the manifest's warnings)")
    elif not verdicts:
        lines.append("  (not available for this potential model)")
    for k, comp in verdicts:
        ratio = "" if math.isnan(comp.ratio) else f" ratio={comp.ratio:.9g}"
        lines.append(
            f"  k={k_tag(k)} {comp.name}: {comp.verdict} "
            f"verbatim_dev={comp.verbatim_deviation:.3e} "
            f"corrected_dev={comp.corrected_deviation:.3e}"
            f"{ratio} [{comp.mutation}]")
    lines.append("")
    return "\n".join(lines)


# The fdlibm logarithm as special_functions.log formed it with a new array
# for each operation. Reference for log, which updates its temporaries in
# place and must keep its bits.


def fdlibm_log(x):
    lg = (0.1479819860511658591, 0.1531383769920937332,
          0.1818357216161805012, 0.22222198432149784, 0.2857142874366239,
          0.3999999999940942, 0.6666666666666735)
    ln2_hi, ln2_lo = 0.6931471803691238, 1.9082149292705877e-10
    scalar = np.ndim(x) == 0
    m, k = np.frexp(np.atleast_1d(np.asarray(x, dtype=float)))
    low = m < 0.5 * math.sqrt(2.0)
    f = m * (low + 1.0) - 1.0
    k = (k - low).astype(float)
    s = f / (2.0 + f)
    z = s * s
    r = lg[0] * z
    for c in lg[1:]:
        r = (r + c) * z
    hfsq = 0.5 * f * f
    r = k * ln2_hi + (s * (hfsq + r) + k * ln2_lo - hfsq + f)
    return float(r[0]) if scalar else r
