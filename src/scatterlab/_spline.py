"""Natural cubic splines as piecewise cubics on strictly increasing knots.

natural_cubic solves for a spline's coefficients; cubic_roots and
split_at_roots find where a piecewise cubic changes sign. Evaluating the
pieces, and what a caller does outside the knot range, is left to the
caller.
"""

import numpy as np

from .errors import DomainError, reals

__all__ = ["natural_cubic", "cubic_roots", "split_at_roots"]


def natural_cubic(x, y):
    """Coefficients (y0, b, c, d), shape (4, n - 1), of the interpolating
    cubic spline with natural (zero second derivative) ends through real
    (x, y): on [x[j], x[j+1]] it is y0[j] + s (b[j] + s (c[j] + s d[j])),
    s = t - x[j]."""
    x, y = reals(x, "x"), reals(y, "y")
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError("spline knots and values must be matching "
                          "1-d arrays", key="x" if x.ndim != 1 else "y")
    if x.size < 2:
        raise DomainError("spline needs at least two knots", key="x")
    h = np.diff(x)
    if not np.all(h > 0.0):
        raise DomainError("spline knots must be strictly increasing",
                          key="x")
    dy = np.diff(y) / h
    # second derivatives m, natural ends pinned at zero: a tridiagonal
    # system, solved by Thomas elimination on Python floats
    m = [0.0] * x.size
    if x.size > 2:
        lower, upper = h[:-1].tolist(), h[1:].tolist()
        diag = (2.0 * (h[:-1] + h[1:])).tolist()
        rhs = (6.0 * (dy[1:] - dy[:-1])).tolist()
        cp, dp = [upper[0] / diag[0]], [rhs[0] / diag[0]]
        for i in range(1, len(diag)):
            denom = diag[i] - lower[i] * cp[-1]
            cp.append(upper[i] / denom)
            dp.append((rhs[i] - lower[i] * dp[-1]) / denom)
        m[-2] = dp[-1]
        for i in range(len(diag) - 2, -1, -1):
            m[i + 1] = dp[i] - cp[i] * m[i + 2]
    m = np.array(m)
    m0, m1 = m[:-1], m[1:]
    return np.array([y[:-1], dy - h * (2.0 * m0 + m1) / 6.0, m0 / 2.0,
                     (m1 - m0) / (6.0 * h)])


def cubic_roots(y0, b, c, d, h):
    """Real roots strictly inside (0, h[j]) of the cubics y0 + s (b + s (c
    + s d)), one per interval j: arrays (j, s), s ascending within each j.

    Each interval is cut at its cubic's turning points into parts on which
    the cubic is monotone; a part whose ends have strictly opposite signs
    holds one root, bisected until its bracket is at most eps h wide. A
    root where the cubic touches 0 without changing sign is not one.
    """
    y0, b, c, d, h = np.broadcast_arrays(*(np.asarray(e, dtype=float)
                                           for e in (y0, b, c, d, h)))

    def cubic(j, s):
        return y0[j] + s * (b[j] + s * (c[j] + s * d[j]))

    # turning points, the roots of b + 2 c s + 3 d s^2, in the form that
    # does not cancel; nan where there are none
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = c * c - 3.0 * b * d
        e = -(c + np.copysign(np.sqrt(disc), c))
        turns = np.where(d != 0.0, np.stack([e / (3.0 * d), b / e]),
                         np.stack([-0.5 * b / c, np.full(h.shape, np.nan)]))
    turns = np.where((turns > 0.0) & (turns < h), turns, 0.0)
    ends = np.sort(np.vstack([np.zeros_like(h), turns, h]), axis=0)
    j = np.arange(h.size)
    sign = np.sign(cubic(j, ends))
    jj, k = np.nonzero((sign[:-1] * sign[1:] < 0.0).T)
    lo, hi = ends[k, jj], ends[k + 1, jj]
    up = sign[k, jj] < 0.0
    while np.any(hi - lo > np.finfo(float).eps * h[jj]):
        mid = 0.5 * (lo + hi)
        below = (cubic(jj, mid) < 0.0) == up
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return jj, 0.5 * (lo + hi)


def split_at_roots(x, coef):
    """The knots x of a piecewise cubic, coef[:, j] its cubic in s = t -
    x[j] on [x[j], x[j+1]], with each cubic's roots inside its interval
    added: (edges, part), part[i] the interval that holds [edges[i],
    edges[i+1]]."""
    j, s = cubic_roots(*coef, np.diff(x))
    zeros = x[j] + s
    zeros = zeros[(zeros > x[j]) & (zeros < x[j + 1])]
    edges = np.sort(np.concatenate((x, zeros)))
    return edges, np.searchsorted(x, edges[:-1], side="right") - 1
