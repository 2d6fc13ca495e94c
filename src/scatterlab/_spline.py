"""Natural cubic spline on strictly increasing knots.

Internal helper: evaluation outside the knot range extrapolates the end
cubics, so callers own whatever clamping policy they need.
"""

import numpy as np

from .errors import DomainError

__all__ = ["CubicSpline1D"]


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
        h = np.diff(x)
        if n > 2:
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
        # per-interval cubic y0 + s (b + s (c + s d)), s = x - x0
        m0, m1 = m[:-1], m[1:]
        self._b = (y[1:] - y[:-1]) / h - h * (2.0 * m0 + m1) / 6.0
        self._c = m0 / 2.0
        self._d = (m1 - m0) / (6.0 * h)

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        scalar = xq.ndim == 0
        xq = np.atleast_1d(xq)
        idx = np.clip(np.searchsorted(self.x, xq, side="right") - 1,
                      0, self.x.size - 2)
        s = xq - self.x[idx]
        out = self.y[idx] + s * (self._b[idx]
                                 + s * (self._c[idx] + s * self._d[idx]))
        return out[0] if scalar else out
