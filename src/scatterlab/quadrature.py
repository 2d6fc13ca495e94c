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
closed-form integrals. It is evaluated with numpy over all panels of a
round, except the power, which is libm pow on Python floats: numpy's
vectorised power differs from it in the last bit for some arguments on
AVX-512 hosts, and so would the bisection that follows.

integrate_adaptive and integrate_semi_infinite also take rows=m: the call
then computes m independent integrals of a row-batched integrand
f(i, x) -> y, where i is an int array of row indices of shape (P,) and x,
y have shape (P, n); row i of y is the integrand of integral i at the
points in row i of x. The intervals of all rows are held in (row, slot)
arrays (see _adaptive_rows), and each row is bisected exactly as a call
for that row alone would bisect it (same worst-interval choice, error
rule, stopping test, subdivision budget and tail-decay check) and returns
the same bits, but the new panels of one bisection round, across all
rows, go to f in one call. The result carries per-row value and
error_estimate arrays and the summed evaluation count; the first failing
row raises the error of a call for that row alone. A scalar call is the
one-row case of the same loop.

hankel0 batches the same way over a 1-d array of q: each q keeps its own
block series, and one round integrates the current block of every q in
one row-batched call. A scalar q is the one-row case of that loop.
"""

import math
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
        for name in ("rel_tol", "abs_tol", "tail_cut"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise DomainError(f"{name} must be finite, got {val!r}",
                                  key=name)
        for name in ("rel_tol", "abs_tol"):
            if getattr(self, name) <= 0:
                raise DomainError("quadrature tolerances must be positive",
                                  key=name)
        if self.max_subdivisions < 8:
            raise DomainError("max_subdivisions must be >= 8",
                              key="max_subdivisions")
        if self.tail_cut <= 0:
            raise DomainError("tail_cut must be positive", key="tail_cut")
        if self.oscillatory_blocks < 1:
            raise DomainError("oscillatory_blocks must be >= 1",
                              key="oscillatory_blocks")


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


def _abs(z):
    """|z| elementwise; complex moduli by hypot, which has the bits of the
    scalar abs (numpy's vectorised complex abs differs in the last bit)."""
    return np.hypot(z.real, z.imag) if np.iscomplexobj(z) else np.abs(z)


def _qk_errors(resk, resg, resabs, resasc):
    """QUADPACK error estimates of GK15 panels from their K15 and G7 sums
    and their |f| and |f - mean| moments (1-d arrays)."""
    err = _abs(resk - resg)
    scaled = (resasc != 0.0) & (err != 0.0)
    ratio = np.minimum(200.0 * err[scaled] / resasc[scaled], 1.0)
    # x ** 1.5 on Python floats is libm pow, the bits of the scalar
    # formula; numpy's vectorised power differs in the last bit for some
    # arguments on AVX-512 hosts. min(1, r^1.5) = min(1, r)^1.5 for r >= 0.
    err[scaled] = resasc[scaled] * np.array([r ** 1.5
                                             for r in ratio.tolist()])
    return np.maximum(err, 50.0 * _EPS * resabs)


def _row_label(row):
    return f" in row {row}"


def _no_label(row):
    return ""


def _one_row(f):
    """The integrand f(x) of a scalar call as the row-batched integrand of
    a one-row call: f still sees the nodes of one panel at a time."""
    def f_rows(i, x):
        y = [np.asarray(f(xr)) for xr in x]
        if any(yr.shape != xr.shape for yr, xr in zip(y, x)):
            raise DomainError("integrand must map an ndarray to an ndarray "
                              "of the same shape")
        return np.array(y)
    return f_rows


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
    return resk, _qk_errors(resk, resg, resabs, resasc)


def _widen(x, fill):
    """x with twice its slots, the new ones set to fill."""
    out = np.full((x.shape[0], 2 * x.shape[1]), fill, dtype=x.dtype)
    out[:, :x.shape[1]] = x
    return out


def _adaptive_rows(f, rows, a, b, abs_tol, rel_tol, max_subdivisions,
                   label=_row_label):
    """Worst-interval bisection of the row-batched f over [a[j], b[j]] for
    row rows[j].

    One round bisects the worst interval of every unfinished row,
    evaluating all new panels in one call. Returns (values, errors,
    evaluations), the last summed over rows. label(row) names a failing
    row in the error message.

    The intervals of the unfinished rows live in (row, slot) arrays, one
    slot per interval in the order it was made; a bisected interval's slot
    is dead (error -inf, value +0.0). Every unfinished row has made the
    same number of slots, and arrays grow by doubling. The first slot of
    largest error is bisected, and a row's totals are the running sum
    over its slots in order: its live intervals added one by one to +0.0,
    the dead root slot. So each row is bisected and summed exactly as a
    call for that row alone would be.
    """
    if len(a) == 0:
        return np.zeros(0), np.zeros(0), 0
    totals, total_errs = _gk15_rows(f, rows, a, b, label)
    neval = 15 * len(a)
    live = np.arange(len(a))
    err = np.full((len(a), 8), -np.inf)
    val = np.zeros((len(a), 8), dtype=totals.dtype)
    lo = np.zeros((len(a), 8))
    hi = np.zeros((len(a), 8))
    err[:, 0], val[:, 0], lo[:, 0], hi[:, 0] = total_errs, totals, a, b
    n = 1
    splits = 0
    while True:
        going = total_errs[live] > np.maximum(
            abs_tol, rel_tol * _abs(totals[live]))
        if not going.all():
            live = live[going]
            err, val, lo, hi = err[going], val[going], lo[going], hi[going]
        if not live.size:
            return totals, total_errs, neval
        if splits >= max_subdivisions:
            j = live[0]
            raise ConvergenceError(
                f"quadrature budget of {max_subdivisions} subdivisions "
                f"exhausted{label(rows[j])} (error estimate "
                f"{total_errs[j]:.3e})",
                estimate=totals[j], error_estimate=total_errs[j])
        if n + 2 > err.shape[1]:
            err = _widen(err, -np.inf)
            val, lo, hi = (_widen(x, 0.0) for x in (val, lo, hi))
        k = np.arange(live.size)
        worst = np.argmax(err[:, :n], axis=1)
        wa, wb = lo[k, worst], hi[k, worst]
        mid = 0.5 * (wa + wb)
        err[k, worst] = -np.inf
        val[k, worst] = 0.0
        lo[:, n], hi[:, n], lo[:, n + 1], hi[:, n + 1] = wa, mid, mid, wb
        v, e = _gk15_rows(f, rows[np.repeat(live, 2)],
                          lo[:, n:n + 2].ravel(), hi[:, n:n + 2].ravel(),
                          label)
        if v.dtype != val.dtype:
            val = val.astype(np.result_type(val, v))
            totals = totals.astype(val.dtype)
        val[:, n:n + 2] = v.reshape(-1, 2)
        err[:, n:n + 2] = e.reshape(-1, 2)
        n += 2
        totals[live] = np.cumsum(val[:, :n], axis=1)[:, -1]
        total_errs[live] = np.cumsum(np.maximum(err[:, :n], 0.0),
                                     axis=1)[:, -1]
        neval += 30 * live.size
        splits += 1


def integrate_adaptive(f, a, b, settings=DEFAULT_SETTINGS, *, rows=None,
                       label=_row_label):
    """Integrate f over the finite interval [a, b] (a <= b).

    rows=m integrates the row-batched f(i, x) over [a[i], b[i]] for each
    i < m, with a and b broadcast to shape (m,); see the module docstring.
    label(i) names row i in error messages.
    """
    if rows is None:
        res = integrate_adaptive(_one_row(f), a, b, settings, rows=1,
                                 label=_no_label)
        return QuadratureResult(res.value[0], res.error_estimate[0],
                                res.evaluations)
    a, b = (np.broadcast_to(np.asarray(e, dtype=float), (rows,))
            for e in (a, b))
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DomainError("integrate_adaptive requires finite endpoints")
    if np.any(a > b):
        j = np.argmax(a > b)
        raise DomainError(f"interval endpoints out of order: "
                          f"{float(a[j])!r} > {float(b[j])!r}{label(j)}")
    tols = (settings.abs_tol, settings.rel_tol, settings.max_subdivisions)
    # zero-width rows integrate to 0 without evaluations
    live = np.flatnonzero(a != b)
    val, err, neval = _adaptive_rows(f, live, a[live], b[live], *tols,
                                     label)
    value = np.zeros(rows, dtype=val.dtype)
    value[live] = val
    error = np.zeros(rows)
    error[live] = err
    return QuadratureResult(value, error, neval)


def _check_tail_decay(f, settings, rows, label):
    # |x f(x)| must shrink along tail_cut * (1, 2, 4); anything flatter makes
    # the improper integral look divergent (covers 1/x and slower decay).
    t = settings.tail_cut
    pts = np.array([t, 2.0 * t, 4.0 * t])
    y = np.asarray(f(np.arange(rows), np.tile(pts, (rows, 1))))
    s = np.abs(y) * pts
    flat = s[:, 2] > np.maximum(0.9 * s[:, 0], settings.abs_tol)
    if flat.any():
        j = np.argmax(flat)
        raise DivergenceError(
            f"integrand tail does not decay: |x f(x)| at x = "
            f"({t:g}, {2*t:g}, {4*t:g}) is ({s[j, 0]:.3e}, {s[j, 1]:.3e}, "
            f"{s[j, 2]:.3e}){label(j)}")
    return 3 * len(s)


def integrate_semi_infinite(f, settings=DEFAULT_SETTINGS, *, rows=None,
                            label=_row_label):
    """Integrate f over [0, inf) after mapping x = t/(1-t) onto [0, 1).

    rows=m integrates the row-batched f(i, x) for each i < m; see the
    module docstring. label(i) names row i in error messages.
    """
    if rows is None:
        res = integrate_semi_infinite(_one_row(f), settings, rows=1,
                                      label=_no_label)
        return QuadratureResult(res.value[0], res.error_estimate[0],
                                res.evaluations)
    neval = _check_tail_decay(f, settings, rows, label)

    def mapped(i, t):
        u = 1.0 - t
        return np.asarray(f(i, t / u)) / (u * u)

    tols = (settings.abs_tol, settings.rel_tol, settings.max_subdivisions)
    val, err, n = _adaptive_rows(mapped, np.arange(rows), np.zeros(rows),
                                 np.ones(rows), *tols, label)
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


class _BlockSeries:
    """hankel0's oscillatory route for one q, fed one block at a time.

    The axis is cut at the zeros of J0(q b). The head block [0, first zero]
    comes first; the next settings.oscillatory_blocks blocks are summed
    directly, after which the alternating block series is Euler-accelerated.
    next_block() names the block to integrate next, or returns None once
    the series has converged or reached settings.tail_cut.
    """

    def __init__(self, q, settings):
        self.q = q
        self.settings = settings
        self.zeros = j0_zeros(int(q * settings.tail_cut / 3.0) + 2) / q
        self.head = None
        self.blocks = []
        self.tail_terms = []
        self.value_direct = 0.0
        self.tail_value = 0.0
        self.quad_err = 0.0
        self.acc_err = 0.0
        self.trunc_err = 0.0
        self.small_streak = 0
        self.done = False

    def next_block(self):
        if self.head is None:
            return 0.0, self.zeros[0]
        s = self.settings
        i = len(self.blocks)
        if i + 1 >= len(self.zeros):
            self.zeros = j0_zeros(len(self.zeros) + 64) / self.q
        lo, hi = self.zeros[i], self.zeros[i + 1]
        if lo < s.tail_cut:
            return lo, hi
        # Decaying envelope: the untouched alternating tail is bounded by
        # the last block. If that bound (plus acceleration error) exceeds
        # the requested tolerance, the cut is refusing work the caller
        # asked for, so fail loudly instead of degrading. The blocks' own
        # quadrature error says nothing about the tail: it is reported,
        # not tested here.
        last = abs(self.blocks[-1]) if self.blocks else abs(self.head)
        best = self.value_direct + self.tail_value
        tol_eff = max(s.abs_tol, s.rel_tol * abs(best))
        if self.acc_err + last > tol_eff:
            raise ConvergenceError(
                f"hankel0 tail beyond b = {s.tail_cut:g} still contributes "
                f"~{last:.3e} at q = {float(self.q)!r}; raise tail_cut or "
                f"oscillatory_blocks",
                estimate=best,
                error_estimate=self.quad_err + self.acc_err + last,
                partial_sums=list(np.cumsum([self.head] + self.blocks)))
        self.trunc_err = last
        self.done = True
        return None

    def add(self, val, err):
        """Fold in the integral of the block next_block() named."""
        self.quad_err += err
        if self.head is None:
            self.head = self.value_direct = val
            return
        s = self.settings
        self.blocks.append(val)
        if len(self.blocks) <= s.oscillatory_blocks:
            self.value_direct += val
        else:
            self.tail_terms.append(val)
            diag = _euler_diagonal(self.tail_terms)
            self.tail_value = diag[-1]
            if len(diag) >= 2:
                self.acc_err = abs(diag[-1] - diag[-2])
        scale = abs(self.value_direct + self.tail_value)
        tol_eff = max(s.abs_tol, s.rel_tol * scale)
        if abs(val) <= 0.05 * tol_eff:
            self.small_streak += 1
            if self.small_streak >= 2:
                if self.tail_terms:
                    self.tail_value = sum(self.tail_terms)
                    self.acc_err = abs(val)
                self.done = True
                return
        else:
            self.small_streak = 0
        if len(self.tail_terms) >= 3 and self.acc_err <= 0.5 * tol_eff:
            self.done = True

    def result(self):
        return (self.value_direct + self.tail_value,
                self.quad_err + self.acc_err + self.trunc_err)


def hankel0(g, q, settings=DEFAULT_SETTINGS):
    """Evaluate int_0^inf g(b) J0(q b) b db for a scalar q, or for each q
    of a 1-d array in one pass.

    For each q the axis is cut at the zeros of J0(q b); blocks are
    integrated adaptively and summed directly for settings.oscillatory_blocks
    blocks, after which the alternating block series is Euler-accelerated.
    Truncation beyond settings.tail_cut assumes a decaying envelope and is
    folded into the reported error. q at or below 1e-12/tail_cut, and q
    whose first zero lies beyond tail_cut, are integrated as plain
    semi-infinite integrals instead.

    g must act elementwise on an ndarray of any shape: each round hands it
    the nodes of the current block of every q at once. Row j of an array
    call carries the bits of the scalar call at q[j]; value and
    error_estimate are then (n,) arrays and evaluations the sum over rows.
    The first failing q raises the scalar call's error, naming that q.
    """
    scalar = np.ndim(q) == 0
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    if qs.ndim != 1:
        raise DomainError("hankel0 takes a scalar q or a 1-d array of q")
    if not np.all(qs >= 0.0) or not np.all(np.isfinite(qs)):
        raise DomainError("hankel0 requires finite q >= 0")
    tiny = qs <= 1e-12 / settings.tail_cut

    def integrand(i, b):
        y = np.asarray(g(b))
        osc = ~tiny[i]
        if osc.all():
            return y * bessel_j0(qs[i, None] * b) * b
        # rows with q ~ 0 integrate g(b) b, without J0
        j0 = np.ones(b.shape)
        j0[osc] = bessel_j0(qs[i[osc], None] * b[osc])
        return np.where(osc[:, None], y * j0, y) * b

    def label(i):
        return f" at q = {float(qs[i])!r}"

    with np.errstate(divide="ignore"):
        semi = tiny | (j0_zeros(1)[0] / qs >= settings.tail_cut)
    value = [0.0] * qs.size
    error = [0.0] * qs.size
    neval = 0

    rows = np.flatnonzero(semi)
    if rows.size:
        res = integrate_semi_infinite(
            lambda i, b: integrand(rows[i], b), settings, rows=rows.size,
            label=lambda i: label(rows[i]))
        for n, j in enumerate(rows):
            value[j], error[j] = res.value[n], res.error_estimate[n]
        neval += res.evaluations

    series = {j: _BlockSeries(qs[j], settings) for j in np.flatnonzero(~semi)}
    block_abs = 0.25 * settings.abs_tol
    while series:
        todo = [(j, blk) for j, s in series.items()
                if (blk := s.next_block()) is not None]
        live = np.array([j for j, _ in todo], dtype=int)
        lo, hi = np.reshape([blk for _, blk in todo], (-1, 2)).T
        val, err, n = _adaptive_rows(integrand, live, lo, hi, block_abs,
                                     settings.rel_tol,
                                     settings.max_subdivisions, label)
        neval += n
        for m, j in enumerate(live):
            series[j].add(val[m], err[m])
        for j in list(series):
            if series[j].done:
                value[j], error[j] = series.pop(j).result()

    if scalar:
        return QuadratureResult(value[0], error[0], neval)
    return QuadratureResult(np.array(value), np.array(error, dtype=float),
                            neval)
