"""Adaptive quadrature built on a nested Gauss-Kronrod 7/15 rule.

Three entry points:

    integrate_adaptive       finite interval, worst-interval bisection
    integrate_semi_infinite  [0, inf) via the rational map x = t/(1-t)
    hankel0                  int_0^inf g(b) J0(q b) b db, block-summed
                             between consecutive zeros of J0(q b) with Euler
                             acceleration of the alternating block series

Integrands must accept ndarray arguments (they are evaluated on 15-point
node batches) and may return complex values. Error estimation follows the
QUADPACK scheme: err = resasc * min(1, (200 |K15 - G7| / resasc)^1.5) with a
roundoff floor, which the test suite calibrates against a corpus of
closed-form integrals.

integrate_adaptive and integrate_semi_infinite also take rows=m: the call
then computes m independent integrals of a row-batched integrand
f(i, x) -> y, where i is an int array of row indices of shape (P,) and x,
y have shape (P, n); row i of y is the integrand of integral i at the
points in row i of x. Every row is bisected exactly as the scalar call
would bisect it (same worst-interval choice, error rule, stopping test,
subdivision budget and tail-decay check) and returns the same bits, but
the new panels of one bisection round, across all rows, go to f in one
call. The result carries per-row value and error_estimate arrays and the
summed evaluation count; the first failing row raises the scalar call's
error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError
from .special_functions import bessel_j0, j0_zeros

__all__ = [
    "QuadratureSettings",
    "QuadratureResult",
    "DEFAULT_SETTINGS",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "hankel0",
]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and budgets shared by the integration routines.

    rel_tol/abs_tol       target |error| <= max(abs_tol, rel_tol*|value|)
    max_subdivisions      bisection budget per adaptive call
    tail_cut              b beyond which semi-infinite tails are presumed
                          negligible (decay-checked, truncation folded into
                          the reported error)
    oscillatory_blocks    hankel0 blocks summed directly before the Euler
                          transformation takes over
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    tail_cut: float = 60.0
    oscillatory_blocks: int = 6

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 8:
            raise DomainError("max_subdivisions must be >= 8")
        if self.tail_cut <= 0:
            raise DomainError("tail_cut must be positive")
        if self.oscillatory_blocks < 1:
            raise DomainError("oscillatory_blocks must be >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    """value and error_estimate are (m,) arrays for a rows=m call."""

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


def _qk_error(resk, resg, resabs, resasc):
    """QUADPACK error estimate of one GK15 panel from its K15 and G7 sums
    and its |f| and |f - mean| moments."""
    # Scalar arithmetic on purpose: numpy's vectorised power differs from
    # the scalar one in the last bit for some arguments, so the batched
    # path maps this over its panels to stay bit-identical.
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, 50.0 * _EPS * resabs)


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: (K15 value, error estimate, evaluations)."""
    center = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    y = np.asarray(f(center + hw * _NODES))
    if y.shape != _NODES.shape:
        raise DomainError("integrand must map an ndarray to an ndarray "
                          "of the same shape")
    if not np.all(np.isfinite(np.abs(y))):
        raise DomainError(f"integrand returned non-finite values on "
                          f"[{a!r}, {b!r}]")
    resk = hw * np.sum(_WK * y)
    resg = hw * np.sum(_WG * y[1::2])
    resabs = abs(hw) * np.sum(_WK * np.abs(y))
    mean = resk / (b - a) if b != a else 0.0
    resasc = abs(hw) * np.sum(_WK * np.abs(y - mean))
    return resk, _qk_error(resk, resg, resabs, resasc), 15


def _gk15_rows(f, rows, a, b):
    """GK15 panels [a[j], b[j]] of the row-batched f, row rows[j], in one
    call to f: (K15 values, error estimates), each as _gk15 computes it."""
    center = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    y = np.asarray(f(rows, center[:, None] + hw[:, None] * _NODES))
    if y.shape != (len(a), _NODES.size):
        raise DomainError("row-batched integrand must map (P, n) points to "
                          "a (P, n) ndarray")
    finite = np.all(np.isfinite(np.abs(y)), axis=1)
    if not finite.all():
        j = np.argmin(finite)
        raise DomainError(f"integrand returned non-finite values on "
                          f"[{float(a[j])!r}, {float(b[j])!r}] in row "
                          f"{rows[j]}")
    resk = hw * np.sum(_WK * y, axis=1)
    resg = hw * np.sum(_WG * y[:, 1::2], axis=1)
    resabs = np.abs(hw) * np.sum(_WK * np.abs(y), axis=1)
    mean = np.divide(resk, b - a, out=np.zeros_like(resk), where=b != a)
    resasc = np.abs(hw) * np.sum(_WK * np.abs(y - mean[:, None]), axis=1)
    err = np.array(list(map(_qk_error, resk, resg, resabs, resasc)))
    return resk, err


def _split_worst(intervals):
    """Pop the interval of largest error (the first on ties) from the
    (error, a, b, value) list; return its (a, midpoint, b)."""
    worst = max(range(len(intervals)), key=lambda i: intervals[i][0])
    _, wa, wb, _ = intervals.pop(worst)
    return wa, 0.5 * (wa + wb), wb


def _adaptive(f, a, b, abs_tol, rel_tol, max_subdivisions):
    """Worst-interval bisection. Returns (value, error, evaluations)."""
    val, err, neval = _gk15(f, a, b)
    intervals = [(err, a, b, val)]
    splits = 0
    total = val
    total_err = err
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if splits >= max_subdivisions:
            raise ConvergenceError(
                f"quadrature budget of {max_subdivisions} subdivisions "
                f"exhausted (error estimate {total_err:.3e})",
                estimate=total, error_estimate=total_err)
        wa, mid, wb = _split_worst(intervals)
        v1, e1, n1 = _gk15(f, wa, mid)
        v2, e2, n2 = _gk15(f, mid, wb)
        intervals.append((e1, wa, mid, v1))
        intervals.append((e2, mid, wb, v2))
        neval += n1 + n2
        splits += 1
        total = sum(iv[3] for iv in intervals)
        total_err = sum(iv[0] for iv in intervals)
    return total, total_err, neval


def _adaptive_rows(f, rows, a, b, abs_tol, rel_tol, max_subdivisions):
    """_adaptive of the row-batched f over [a[j], b[j]] for row rows[j].

    Each row keeps its own interval list and is bisected exactly as
    _adaptive would bisect it; one round bisects the worst interval of
    every unfinished row, evaluating all new panels in one call. Returns
    (values, errors, evaluations), the last summed over rows.
    """
    if len(a) == 0:
        return np.zeros(0), np.zeros(0), 0
    vals, errs = _gk15_rows(f, rows, a, b)
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
                f"exhausted in row {rows[j]} (error estimate "
                f"{total_errs[j]:.3e})",
                estimate=totals[j], error_estimate=total_errs[j])
        cuts = [_split_worst(intervals[j]) for j in live]
        lo = np.array([x for wa, mid, _ in cuts for x in (wa, mid)])
        hi = np.array([x for _, mid, wb in cuts for x in (mid, wb)])
        v, e = _gk15_rows(f, rows[np.repeat(live, 2)], lo, hi)
        for n, j in enumerate(live):
            iv = intervals[j]
            iv.append((e[2 * n], lo[2 * n], hi[2 * n], v[2 * n]))
            iv.append((e[2 * n + 1], lo[2 * n + 1], hi[2 * n + 1],
                       v[2 * n + 1]))
            totals[j] = sum(t[3] for t in iv)
            total_errs[j] = sum(t[0] for t in iv)
        neval += 30 * len(live)
        splits += 1


def integrate_adaptive(f, a, b, settings=DEFAULT_SETTINGS, *, rows=None):
    """Integrate f over the finite interval [a, b] (a <= b).

    rows=m integrates the row-batched f(i, x) over [a[i], b[i]] for each
    i < m, with a and b broadcast to shape (m,); see the module docstring.
    """
    if rows is not None:
        a, b = (np.broadcast_to(np.asarray(e, dtype=float), (rows,))
                for e in (a, b))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("integrate_adaptive requires finite endpoints")
    if np.any(a > b):
        raise DomainError(f"interval endpoints out of order: {a!r} > {b!r}")
    tols = (settings.abs_tol, settings.rel_tol, settings.max_subdivisions)
    if rows is None:
        if a == b:
            return QuadratureResult(0.0, 0.0, 0)
        return QuadratureResult(*_adaptive(f, a, b, *tols))
    # zero-width rows integrate to 0 without evaluations, as in the scalar
    # call
    live = np.flatnonzero(a != b)
    val, err, neval = _adaptive_rows(f, live, a[live], b[live], *tols)
    value = np.zeros(rows, dtype=val.dtype)
    value[live] = val
    error = np.zeros(rows)
    error[live] = err
    return QuadratureResult(value, error, neval)


def _check_tail_decay(f, settings, rows=None):
    # |x f(x)| must shrink along tail_cut * (1, 2, 4); anything flatter makes
    # the improper integral look divergent (covers 1/x and slower decay).
    t = settings.tail_cut
    pts = np.array([t, 2.0 * t, 4.0 * t])
    if rows is None:
        y = np.asarray(f(pts))[None]
    else:
        y = np.asarray(f(np.arange(rows), np.tile(pts, (rows, 1))))
    s = np.abs(y) * pts
    flat = s[:, 2] > np.maximum(0.9 * s[:, 0], settings.abs_tol)
    if flat.any():
        j = np.argmax(flat)
        raise DivergenceError(
            f"integrand tail does not decay: |x f(x)| at x = "
            f"({t:g}, {2*t:g}, {4*t:g}) is ({s[j, 0]:.3e}, {s[j, 1]:.3e}, "
            f"{s[j, 2]:.3e})" + ("" if rows is None else f" in row {j}"))
    return 3 * len(s)


def integrate_semi_infinite(f, settings=DEFAULT_SETTINGS, *, rows=None):
    """Integrate f over [0, inf) after mapping x = t/(1-t) onto [0, 1).

    rows=m integrates the row-batched f(i, x) for each i < m; see the
    module docstring.
    """
    neval = _check_tail_decay(f, settings, rows)

    def mapped(*args):  # (t), or (i, t) for a row-batched f
        *head, t = args
        u = 1.0 - t
        return np.asarray(f(*head, t / u)) / (u * u)

    tols = (settings.abs_tol, settings.rel_tol, settings.max_subdivisions)
    if rows is None:
        val, err, n = _adaptive(mapped, 0.0, 1.0, *tols)
    else:
        val, err, n = _adaptive_rows(mapped, np.arange(rows), np.zeros(rows),
                                     np.ones(rows), *tols)
    return QuadratureResult(val, err, neval + n)


def _euler_diagonal(terms):
    """Apex sequence of the repeated-averaging (Euler) triangle.

    Element k is the accelerated sum estimate using the first k+1 terms; the
    gap between the last two elements estimates the acceleration error.
    """
    row = np.cumsum(np.asarray(terms, dtype=complex))
    diag = [row[0]]
    while len(row) > 1:
        row = 0.5 * (row[:-1] + row[1:])
        diag.append(row[0])
    return diag


def hankel0(g, q, settings=DEFAULT_SETTINGS):
    """Evaluate int_0^inf g(b) J0(q b) b db.

    The axis is cut at the zeros of J0(q b); blocks are integrated adaptively
    and summed directly for settings.oscillatory_blocks blocks, after which
    the alternating block series is Euler-accelerated. Truncation beyond
    settings.tail_cut assumes a decaying envelope and is folded into the
    reported error. q at or below 1e-12/tail_cut is treated as
    non-oscillatory.
    """
    if q < 0:
        raise DomainError("hankel0 requires q >= 0")
    if q <= 1e-12 / settings.tail_cut:
        return integrate_semi_infinite(lambda b: np.asarray(g(b)) * b,
                                       settings)

    def integrand(b):
        return np.asarray(g(b)) * bessel_j0(q * b) * b

    first_zero = j0_zeros(1)[0] / q
    if first_zero >= settings.tail_cut:
        return integrate_semi_infinite(integrand, settings)

    boundaries = j0_zeros(int(q * settings.tail_cut / 3.0) + 2) / q
    block_abs = 0.25 * settings.abs_tol
    head_val, head_err, neval = _adaptive(
        integrand, 0.0, boundaries[0], block_abs, settings.rel_tol,
        settings.max_subdivisions)

    direct_target = settings.oscillatory_blocks
    value_direct = head_val
    quad_err = head_err
    blocks = []
    tail_terms = []
    tail_value = 0.0
    acc_err = 0.0
    trunc_err = 0.0
    small_streak = 0
    i = 0
    while True:
        if i + 1 >= len(boundaries):
            boundaries = j0_zeros(len(boundaries) + 64) / q
        lo, hi = boundaries[i], boundaries[i + 1]
        if lo >= settings.tail_cut:
            # Decaying envelope: the untouched alternating tail is bounded
            # by the last block. If that bound (plus acceleration error)
            # exceeds the requested tolerance, the cut is refusing work the
            # caller asked for, so fail loudly instead of degrading. The
            # blocks' own quadrature error says nothing about the tail: it
            # is reported, not tested here.
            last = abs(blocks[-1]) if blocks else abs(head_val)
            best = value_direct + tail_value
            tol_eff = max(settings.abs_tol, settings.rel_tol * abs(best))
            if acc_err + last > tol_eff:
                partial = list(np.cumsum([head_val] + blocks))
                raise ConvergenceError(
                    f"hankel0 tail beyond b = {settings.tail_cut:g} still "
                    f"contributes ~{last:.3e}; raise tail_cut or "
                    f"oscillatory_blocks",
                    estimate=best, error_estimate=quad_err + acc_err + last,
                    partial_sums=partial)
            trunc_err = last
            break
        val, err, n = _adaptive(integrand, lo, hi, block_abs,
                                settings.rel_tol, settings.max_subdivisions)
        blocks.append(val)
        quad_err += err
        neval += n
        i += 1
        if len(blocks) <= direct_target:
            value_direct += val
        else:
            tail_terms.append(val)
            diag = _euler_diagonal(tail_terms)
            tail_value = diag[-1]
            if len(diag) >= 2:
                acc_err = abs(diag[-1] - diag[-2])
        scale = abs(value_direct + tail_value)
        tol_eff = max(settings.abs_tol, settings.rel_tol * scale)
        if abs(val) <= 0.05 * tol_eff:
            small_streak += 1
            if small_streak >= 2:
                if tail_terms:
                    tail_value = sum(tail_terms)
                    acc_err = abs(val)
                break
        else:
            small_streak = 0
        if tail_terms and len(diag) >= 3 and acc_err <= 0.5 * tol_eff:
            break

    value = value_direct + tail_value
    return QuadratureResult(value, quad_err + acc_err + trunc_err, neval)
