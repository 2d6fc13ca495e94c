"""Shared closed-form oracles used by several test modules.

Exact values come from pencil-and-paper antiderivatives, mpmath, or scipy.
The reference kernels at the end are frozen copies of earlier, plainer
implementations in the package; the optimised ones must keep their bits.
"""

import math

import numpy as np

from scatterlab.eikonal import Amplitude, momentum_transfer
from scatterlab.errors import (ConvergenceError, DomainError, PoleError,
                               UnsupportedModelError)
from scatterlab.potentials import Gauss, Yukawa, evaluate, origin_expansion
from scatterlab.quadrature import _EPS, _NODES, _WG, _WK
from scatterlab.special_functions import spherical_bessel

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


def square_well_delta0(k, v0, a, m=1.0, hbar=1.0):
    """s-wave phase shift for V(r) = -v0 inside r < a, 0 outside.

    tan(delta0) = (k tan(Ka) - K tan(ka)) / (K + k tan(ka) tan(Ka)) with
    K = sqrt(k^2 + 2 m v0 / hbar^2). Standard textbook matching of the
    interior sin(Kr) solution to sin(kr + delta0).
    """
    kin = np.sqrt(k * k + 2.0 * m * v0 / hbar**2)
    num = k * np.tan(kin * a) - kin * np.tan(k * a)
    den = kin + k * np.tan(k * a) * np.tan(kin * a)
    return np.arctan2(num, den)


# List-based worst-interval bisection: each row keeps a Python list of
# (error, a, b, value) intervals, and totals are sum() over that list.
# Reference for quadrature._adaptive_rows and its vectorised error rule.


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


# Natural cubic spline that forms each interval's coefficients at every
# evaluation, and the Numerov sweep that forms each step's coefficients
# inside the step loop. References for _spline.CubicSpline1D and
# partial_wave._numerov_sweep.


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


def _numerov_sweep(p, kin, l_arr, r_max, dr, events=None):
    """Integrate every l of l_arr outward in one radial sweep; return
    deltas(idx), the phase shifts of l_arr[idx], matched on demand.
    events, if a list, receives the grid index of every rescale."""
    k = kin.k
    h = dr
    h2 = h * h
    two_m = 2.0 * kin.mass / kin.hbar**2

    i_a = int(round(r_max / dr))
    i_delta = max(1, int(round((np.pi / (2.0 * k)) / dr)))
    i_b = i_a + i_delta
    n_pts = i_b  # the loop's final step lands exactly on r = i_b dr

    r = dr * np.arange(0, n_pts + 1, dtype=float)  # r[0] = 0 never used
    base = np.empty(n_pts + 1)
    base[0] = 0.0
    base[1:] = two_m * np.asarray(evaluate(p, r[1:]), dtype=float) - k * k
    inv_r2 = np.zeros(n_pts + 1)
    inv_r2[1:] = 1.0 / (r[1:] * r[1:])

    if np.all(base[1:] == -k * k):
        # free equation: nothing scatters
        return lambda idx: np.zeros(len(idx))

    la = np.asarray(l_arr, dtype=float)
    ll1 = la * (la + 1.0)

    # series start u = (r/r_1)^{l+1} (1 + c1 r + c2 r^2 + c3 r^3) from the
    # origin expansion V ~ v_m1/r + v_0 + v_1 r
    v_m1, v_0, v_1 = origin_expansion(p)
    um1, u0, u1c = two_m * v_m1, two_m * v_0 - k * k, two_m * v_1
    c1 = um1 / (2.0 * la + 2.0)
    c2 = (um1 * c1 + u0) / (2.0 * (2.0 * la + 3.0))
    c3 = (um1 * c2 + u0 * c1 + u1c) / (3.0 * (2.0 * la + 4.0))

    def series(rv, scale_pow):
        return scale_pow * (1.0 + c1 * rv + c2 * rv * rv + c3 * rv**3)

    u_prev = series(r[1], 1.0)
    u_curr = series(r[2], 2.0 ** (la + 1.0))

    f_prev = base[1] + ll1 * inv_r2[1]
    f_curr = base[2] + ll1 * inv_r2[2]
    y_prev = (1.0 - h2 / 12.0 * f_prev) * u_prev
    y_curr = (1.0 - h2 / 12.0 * f_curr) * u_curr

    u_a = None
    for n in range(2, n_pts):
        y_next = 2.0 * y_curr - y_prev + h2 * f_curr * u_curr
        f_next = base[n + 1] + ll1 * inv_r2[n + 1]
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
    u_b = u_curr

    if u_a is None or not (np.all(np.isfinite(u_a))
                           and np.all(np.isfinite(u_b))):
        raise ConvergenceError(
            "radial integration overflowed despite rescaling",
            estimate=np.nan, error_estimate=np.inf)

    r_a, r_b = r[i_a], r[i_b]
    w_a, w_b = u_a / r_a, u_b / r_b

    def deltas(idx):
        out = np.empty(len(idx))
        for n, i in enumerate(idx):
            l = int(l_arr[i])
            j_a, n_a = spherical_bessel(l, k * r_a)
            j_b, n_b = spherical_bessel(l, k * r_b)
            num = w_a[i] * j_b - w_b[i] * j_a
            den = w_a[i] * n_b - w_b[i] * n_a
            d = math.atan2(num, den)
            if d > np.pi / 2:
                d -= np.pi
            elif d <= -np.pi / 2:
                d += np.pi
            out[n] = d
        return out

    return deltas


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
    hv = kin.hbar * kin.v
    kt2 = (kin.k * theta) ** 2
    if isinstance(p, Yukawa):
        denom = p.mu**2 - kt2
        if abs(denom) <= 1e-9 * (p.mu**2 + kt2):
            raise PoleError(
                f"reference Yukawa form has a pole at k*theta = mu "
                f"(theta = {p.mu / kin.k:.6g}); cannot evaluate at "
                f"theta = {theta:.6g}")
        value = (2.0 * p.g * kin.k / hv) / denom
    elif isinstance(p, Gauss):
        a = p.alpha
        value = (0.5 / a) * math.sqrt(np.pi / a) * (p.g * kin.k / hv) \
            * math.exp(-kt2 / (8.0 * a))
    else:
        raise UnsupportedModelError(
            "reference closed forms exist only for Yukawa and Gauss")
    return Amplitude(theta=theta, q=q, value=complex(value),
                     error_estimate=0.0)
