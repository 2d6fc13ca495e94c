"""Radial potential models, their range and momentum-space transforms.

Three models share one informal protocol: construct, then pass to the
module-level functions. Closed-form transforms exist for the analytic
models. A table holds its V as one piecewise cubic, built once from the
samples; evaluate reads the pieces by Horner's rule, and the transform
integrates them times the Fourier kernel on quadrature.integrate_cubic's
fixed Gauss rule, with an a-priori error bound.

The potential's range lives here too: reach(p), the radius R past which
the z-profile's tail is below rounding, with a bound on that tail, and
effective_radius(p), the radius holding 0.9999 of int_0^R |V| r^2 dr,
bisected on that weight in closed form, or exact on a table's pieces; and
a table's z-profile, abel_profile(p, b), the Abel transform of its pieces.

Conventions: V has energy units, r length units. fourier3d computes
Vtilde(q) = integral d^3r e^{-i q.r} V(r) = (4 pi / q) int_0^inf
sin(q r) V(r) r dr, real for radial V.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._spline import natural_cubic, split_at_roots
from .errors import (ConfigError, DomainError, RangeError,
                     SingularityError, UnsupportedModelError)
from .quadrature import (_G7_NODES, _KERNEL_BLOCK, _WG, DEFAULT_SETTINGS,
                         integrate_cubic)
from .special_functions import libm_exp, log
# bound here only because perfbench/tracer.py rebinds it in this namespace
from .quadrature import integrate_adaptive  # noqa: F401

__all__ = [
    "Yukawa",
    "Gauss",
    "TabulatedRadial",
    "evaluate",
    "fourier3d",
    "origin_expansion",
    "reach",
    "effective_radius",
    "load_radial_table",
]

_EPS = np.finfo(float).eps


def _require_finite(name, value):
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}", key=name)


@dataclass(frozen=True)
class Yukawa:
    """V(r) = g exp(-mu r) / r. Coupling g of either sign, range 1/mu."""

    g: float
    mu: float

    def __post_init__(self):
        _require_finite("g", self.g)
        _require_finite("mu", self.mu)
        if self.mu <= 0.0:
            raise DomainError("Yukawa screening mu must be positive",
                              key="mu")


@dataclass(frozen=True)
class Gauss:
    """V(r) = g exp(-alpha r^2). Finite at the origin, width 1/sqrt(alpha)."""

    g: float
    alpha: float

    def __post_init__(self):
        _require_finite("g", self.g)
        _require_finite("alpha", self.alpha)
        if self.alpha <= 0.0:
            raise DomainError("Gauss width alpha must be positive",
                              key="alpha")


@dataclass(frozen=True, eq=False)
class TabulatedRadial:
    """Sampled V on strictly increasing radii.

    interpolation is "cubic" (natural spline) or "linear". Below the first
    sample V is v[0]; beyond the last it is identically zero (the table is
    taken to cover the interaction region). file names the path or stream
    the table was read from, None for a table built in memory.

    _pieces holds V up to r[-1] as one piecewise cubic, built once: (edges,
    coefficients (y0, b, c, d) of shape (4, edges.size - 1)), V = y0 + s (b
    + s (c + s d)) on [edges[j], edges[j+1]], s = r - edges[j]. A linear
    table has c = d = 0, and a table starting at r[0] > 0 has the constant
    v[0] on [0, r[0]]. _abel holds what abel_profile reads of the pieces.
    """

    r: np.ndarray
    v: np.ndarray
    interpolation: str = "cubic"
    file: str | None = None
    _pieces: tuple = field(init=False, repr=False, compare=False)
    _abel: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise DomainError("table radii and values must be matching "
                              "1-d arrays")
        if r.size < 4:
            raise DomainError("table needs at least four samples")
        if r[0] < 0.0 or not np.all(np.diff(r) > 0.0):
            raise DomainError("table radii must be non-negative and "
                              "strictly increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise DomainError("table entries must be finite")
        if abs(v[-1]) > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
            raise DomainError("table must decay: the last sample must "
                              "vanish (V -> 0 beyond range)")
        if self.interpolation not in ("cubic", "linear"):
            raise DomainError("interpolation must be 'cubic' or 'linear', "
                              f"got {self.interpolation!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "v", v)
        if self.interpolation == "cubic":
            coef = natural_cubic(r, v)
        else:
            coef = np.zeros((4, r.size - 1))
            coef[0], coef[1] = v[:-1], np.diff(v) / np.diff(r)
        edges = r
        if r[0] > 0.0:
            edges = np.concatenate(([0.0], r))
            coef = np.concatenate((np.array([[v[0]], [0.0], [0.0], [0.0]]),
                                   coef), axis=1)
        object.__setattr__(self, "_pieces", (edges, coef))
        object.__setattr__(self, "_abel", _abel_knots(edges, coef))


def evaluate(potential, r):
    """V(r), vectorized over r. Negative r is rejected; r = 0 raises for
    models singular at the origin."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    if np.any(r < 0.0):
        raise DomainError("radius must be non-negative")
    if isinstance(potential, Yukawa):
        if np.any(r == 0.0):
            raise SingularityError("Yukawa potential is singular at r = 0")
        out = potential.g * np.exp(-potential.mu * r) / r
    elif isinstance(potential, Gauss):
        out = potential.g * np.exp(-potential.alpha * r * r)
    elif isinstance(potential, TabulatedRadial):
        edges, coef = potential._pieces
        # edges[0] = 0 <= r: the piece that holds r, the last beyond it
        j = np.searchsorted(edges[1:-1], r, side="right")
        s = r - edges[j]
        y0, b, c, d = coef.take(j, axis=1)
        out = np.where(r > edges[-1], 0.0, y0 + s * (b + s * (c + s * d)))
    else:
        raise UnsupportedModelError(
            f"unknown potential model {type(potential).__name__!r}")
    return float(out[0]) if scalar else out


# A table's z-profile w(b) = 2 int_b^R V r dr/sqrt(r^2 - b^2) in closed form:
# the pieces' antiderivatives telescope to A s + B acosh(e/b) per knot e > b,
# s = sqrt((e - b)(e + b)), d_n the jump at e of the coefficient of (r - e)^n
# (0 right of r[-1]), all in r/S, S the power of two with r[-1]/S in (1/2, 1]:
#   A = A0 + A2 b^2 = d0 - d1 e/2 + d2 (e^2 + 2b^2)/3 - d3 e (e^2/4 + 13b^2/8),
#   B = b^2 (B0 + B2 b^2) = b^2 (d1/2 - d2 e + d3 (3e^2/2 + 3b^2/8)).
# Knots below sqrt(2) b take this term, acosh = log((e + s)/b). Beyond, s/e
# and acosh = ln 2e - ln b - sum_j C(2j, j)/(2j 4^j) x^j are series in x =
# b^2/e^2 <= 1/2, summed over the knots once, in suffix sums over blocks.
_ABEL_TERMS, _ABEL_BLOCK = 50, 32
# the coefficients of x^n in A0 s/e, A2 b^2 s/e^3, B0 b^2 acosh/e^2, B2 b^4
# acosh/e^4 but ln 2e/b; past x^49 they leave a tail below eps/150 of G
_SQRT = [1.0] + [-math.comb(2 * j, j) / ((2 * j - 1) * 4**j) for j in
                 range(1, _ABEL_TERMS)]
_ACOSH = [0.0, 0.0] + [-math.comb(2 * j, j) / (2 * j * 4**j) for j in
                       range(1, _ABEL_TERMS)]
_FAR_SERIES = np.array([_SQRT, [0.0] + _SQRT[:-1], _ACOSH[:-1],
                        [0.0] + _ACOSH[:-2]])


@np.errstate(over="ignore", invalid="ignore")  # what overflows makes w inf
def _abel_knots(edges, coef):
    """(S, rows e, A0, A2, B0, B2 of the knots, first far block, far table:
    over the knots from block first + j on, column j sums the b^2n, -b^2 ln
    b and -b^4 ln b coefficients, and G, H with G + |ln b| b^2 H >= the
    terms' moduli)."""
    m, p = math.frexp(float(edges[-1]))
    scale = math.ldexp(1.0, p - (m == 0.5))
    e, h = edges[1:] / scale, np.diff(edges) / scale
    y0, c1, c2, c3 = coef[0], coef[1] * scale, coef[2] * scale * scale, \
        coef[3] * scale * scale * scale
    d = np.array([y0 + h * (c1 + h * (c2 + h * c3)),
                  c1 + h * (2.0 * c2 + 3.0 * h * c3), c2 + 3.0 * h * c3, c3])
    d[:, :-1] -= np.array([y0, c1, c2, c3])[:, 1:]
    d0, d1, d2, d3 = d
    knots = np.array([e, d0 - e * (0.5 * d1 - e * (d2 / 3.0 - 0.25 * e * d3)),
                      2.0 / 3.0 * d2 - 1.625 * e * d3,
                      0.5 * d1 - e * (d2 - 1.5 * e * d3), 0.375 * d3])
    # a knot whose coefficients over e^98 might overflow stays near
    room = 98 * (1 - np.frexp(e)[1])
    big = np.frexp(np.abs(knots[1:]).max(axis=0))[1] + room
    bad = np.flatnonzero((room > 1000) | (big > 1000))
    first = -(-(bad[-1] + 1 if bad.size else 0) // _ABEL_BLOCK)
    e, a0, a2, g0, g2 = knots[:, first * _ABEL_BLOCK:]
    ee, ln_2e = e * e, log(e + e)
    x = np.array([a0 * e, a2 * ee * e, g0 * ee, g2 * ee * ee])
    ax = np.abs(x)  # far terms' moduli below, as b^2 <= e^2/2
    starts = np.arange(0, e.size, _ABEL_BLOCK)
    sums = []
    for _ in range(_ABEL_TERMS):  # block sums of x e^-2n
        sums.append(np.add.reduceat(x, starts, axis=1))
        x /= ee
    extra = np.add.reduceat([g0 * ln_2e, g2 * ln_2e, g0, g2, ax[0] + ax[1] / 2
                             + (ax[2] / 2 + ax[3] / 4) * (1 + np.abs(ln_2e)),
                             (ax[2] + ax[3] / 2) / ee], starts, axis=1)
    series = (np.array(sums) * _FAR_SERIES.T[:, :, None]).sum(axis=1)
    series[1:3] += extra[:2]
    blocks = np.pad(np.concatenate([series, extra[2:]]), ((0, 0), (0, 1)))
    return scale, knots, first, np.cumsum(blocks[:, ::-1], axis=1)[:, ::-1]


@np.errstate(over="ignore", invalid="ignore")  # the caller names w = inf
def abel_profile(p, b):
    """(w(b), a bound on its error) of the table p at each b >= 0 of a 1-d
    array, a b with the bits of a call for it alone: (64 + far blocks) eps
    times a bound on the terms' moduli, plus the series' tail."""
    scale, knots, first, far = p._abel
    e, beta = knots[0], b / scale
    x = beta * beta
    blk = np.maximum(first, -(-np.searchsorted(e, math.sqrt(2.0) * beta)
                              // _ABEL_BLOCK))
    row = far[:, blk - first]
    value = row[_ABEL_TERMS - 1]
    for n in range(_ABEL_TERMS - 2, -1, -1):
        value = value * x + row[n]
    ln_b = log(np.maximum(beta, 1e-300))  # times b^2 = 0 below
    value = value - ln_b * x * (row[-4] + x * row[-3])
    mag = row[-2] + np.abs(ln_b) * x * row[-1]
    lo = np.searchsorted(e, beta, side="right")
    count = np.minimum(blk * _ABEL_BLOCK, e.size) - lo
    has = np.flatnonzero(count > 0)
    # near knots, about _KERNEL_BLOCK (b, knot) pairs a block, b by b
    for rows in np.array_split(has, max(1, -(-count[has].sum()
                                               // _KERNEL_BLOCK))):
        n = count[rows]
        at = np.cumsum(n) - n
        e, a0, a2, g0, g2 = knots.take(
            np.repeat(lo[rows] - at, n) + np.arange(n.sum()), axis=1)
        b = np.repeat(beta[rows], n)
        bb, s = b * b, np.sqrt((e - b) * (e + b))
        a_s, g = (a0 + bb * a2) * s, bb * (g0 + bb * g2)
        acosh = log((e + s) / np.maximum(b, 1e-300))
        value[rows] += np.add.reduceat(a_s + g * acosh, at)
        # the log's error is eps, not eps acosh, near e = b
        mag[rows] += np.add.reduceat(np.abs(a_s) + np.abs(g) * (acosh + 1.0),
                                     at)
    # 64 + far blocks eps for rounding, and one more for the series' tail
    return 2.0 * scale * value, 2.0 * scale * (64 + far.shape[1]) * _EPS * mag


def _radial_kernel(q, r):
    """4 pi r^2 sin(q r)/(q r): the 3-D Fourier kernel of a radial V."""
    return 4.0 * np.pi * r * r * np.sinc(q * r / np.pi)


def _radial_kernel_bound(t, h, r, j):
    """h^j |d^j/dr^j 4 pi r^2 sinc(q r)| for r <= R = r, t = q h, j >= 2:
    by Leibniz's rule with |sinc^(m)| <= 1/(m + 1), 4 pi (R^2 t^j/(j + 1)
    + 2 R h t^(j-1) + j h^2 t^(j-2))."""
    return 4.0 * np.pi * t ** (j - 2) * (r * r * t * t / (j + 1)
                                         + 2.0 * r * h * t + j * h * h)


def fourier3d(potential, q, settings=DEFAULT_SETTINGS, *, with_error=False):
    """Vtilde(q) = int d^3r e^{-i q.r} V(r), vectorized over q >= 0.

    A table integrates each of its pieces times 4 pi r^2 sinc(q r) on
    quadrature.integrate_cubic's fixed rule, q by q: an array call
    has the bits of calls at each q alone. Its error estimate is the
    rule's a-priori bound plus the rounding floor; settings give only
    max_subdivisions, the budget of pieces beyond two a knot interval.
    rel_tol and abs_tol set no target there: the runner still compares
    the estimate with them for its loose-error warning. with_error=True
    returns (Vtilde, error estimate), the estimate 0 for the closed forms.
    """
    q = np.asarray(q, dtype=float)
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    if np.any(q < 0.0):
        raise DomainError("momentum transfer q must be non-negative")
    err = np.zeros(q.shape)
    # q^2 past the float range is inf, and a closed form its limit 0
    if isinstance(potential, Yukawa):
        with np.errstate(over="ignore"):
            out = 4.0 * np.pi * potential.g / (q * q + _scale(potential))
    elif isinstance(potential, Gauss):
        a = potential.alpha
        with np.errstate(over="ignore"):
            out = potential.g * _scale(potential) * libm_exp(
                -q * q / (4.0 * a))
    elif isinstance(potential, TabulatedRadial):
        edges, coef = potential._pieces
        res = integrate_cubic(_radial_kernel, _radial_kernel_bound, q,
                              edges[:-1], edges[1:], coef,
                              max_subdivisions=settings.max_subdivisions)
        out, err = res.value, res.error_estimate
    else:
        raise UnsupportedModelError(
            f"unknown potential model {type(potential).__name__!r}")
    if scalar:
        out, err = float(out[0]), float(err[0])
    return (out, err) if with_error else out


def origin_expansion(potential):
    """Coefficients (c_m1, c_0, c_1, c_2) of V(r) ~ c_m1/r + c_0 + c_1 r +
    c_2 r^2 near r = 0, consistent with what evaluate() actually returns
    there: the Numerov start's series reads them up to r^4 in u."""
    if isinstance(potential, Yukawa):
        g, mu = potential.g, potential.mu
        return (g, -g * mu, 0.5 * g * mu * mu, -g * mu**3 / 6.0)
    if isinstance(potential, Gauss):
        return (0.0, potential.g, 0.0, -potential.g * potential.alpha)
    if isinstance(potential, TabulatedRadial):
        # evaluate() clamps to v[0] below the first sample
        return (0.0, float(potential.v[0]), 0.0, 0.0)
    raise UnsupportedModelError(
        f"unknown potential model {type(potential).__name__!r}")


def _tail_factor(x):
    """A bound on int_x^inf K0(t) t dt / e^{-x}, from K0(t) <=
    sqrt(pi/(2t)) e^{-t} and int_x^inf sqrt(t) e^{-t} dt <=
    (sqrt(x) + 1/(2 sqrt(x))) e^{-x}."""
    return math.sqrt(0.5 * math.pi) * (math.sqrt(x) + 0.5 / math.sqrt(x))


def _scale(p):
    """mu^2 of a Yukawa, (pi/alpha)^1.5 of a Gauss, in Python floats: the
    scale of fourier3d's closed forms and of the bound on the z-profile's
    tail in reach, which divides by mu^2. RangeError naming mu or alpha if
    it overflows, or if mu^2 underflows to 0."""
    yukawa = isinstance(p, Yukawa)
    try:
        value = p.mu**2 if yukawa else (math.pi / p.alpha) ** 1.5
        if value != 0.0 or not yukawa:
            return value
    except OverflowError:
        pass
    key, what = ("mu", "mu^2") if yukawa else ("alpha", "(pi/alpha)^1.5")
    raise RangeError(f"{key} = {getattr(p, key)!r} out of range: {what} "
                     f"leaves the float range", key=key)


def reach(p):
    """(R, T) of the z-profile w of p: the Hankel transforms of w stop at
    R, and T bounds int_R^inf |w(b)| b db. A table's w is exactly 0 from
    its last radius on. For Yukawa and Gauss, R is where the closed-form
    bound on that tail falls to eps int_0^inf |w| b db: about 38/mu and
    6/sqrt(alpha)."""
    if isinstance(p, TabulatedRadial):
        return float(p.r[-1]), 0.0
    if isinstance(p, Yukawa):
        # w = 2 g K0(mu b), and int_0^inf |w| b db = 2|g|/mu^2
        x = -math.log(_EPS)
        for _ in range(4):  # the fixed point of _tail_factor(x) e^{-x} = eps
            x = math.log(_tail_factor(x) / _EPS)
        return x / p.mu, 2.0 * abs(p.g) / _scale(p) * _tail_factor(x) \
            * math.exp(-x)
    if isinstance(p, Gauss):
        # w = g sqrt(pi/alpha) e^{-alpha b^2}: the tail beyond R is
        # e^{-alpha R^2} of int_0^inf |w| b db = |g| sqrt(pi/alpha)/(2 alpha)
        _scale(p)
        x = -math.log(_EPS)
        return math.sqrt(x / p.alpha), abs(p.g) * math.sqrt(
            math.pi / p.alpha) / (2.0 * p.alpha) * math.exp(-x)
    raise UnsupportedModelError(
        f"unknown potential model {type(p).__name__!r}")


def _weight(p):
    """W(r) = int_0^r |V| s^2 ds, exact but for rounding. Yukawa and Gauss
    take the closed forms in x = mu r and sqrt(alpha) r, less the factors
    |g| mu^-2 and |g| (4 alpha^(3/2))^-1, on which r_eff does not depend. A
    table's |V| r^2 is a quintic between the edges of split_at_roots, and
    W sums the edges below r and [edge, r] on 7-point Gauss, exact there."""
    if isinstance(p, Yukawa):
        return lambda r: -math.expm1(-p.mu * r) \
            - p.mu * r * math.exp(-p.mu * r)
    if isinstance(p, Gauss):
        a = math.sqrt(p.alpha)
        return lambda r: math.sqrt(math.pi) * math.erf(a * r) \
            - 2.0 * a * r * math.exp(-(a * r) * (a * r))
    edges = split_at_roots(*p._pieces)[0]

    def g7(lo, hi):
        hw = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[..., None] + hw[..., None] * _G7_NODES
        return hw * (_WG * np.abs(evaluate(p, x)) * x * x).sum(axis=-1)

    below = np.r_[0.0, np.cumsum(g7(edges[:-1], edges[1:]))]

    def weight(r):
        i = np.searchsorted(edges[1:-1], r, side="right")
        return below[i] + g7(edges[i], r)
    return weight


def effective_radius(p):
    """Radius holding 0.9999 of the weight int_0^R |V| r^2 dr, R = reach(p),
    or 0.0 at zero weight: the least float r at which _weight(p) reaches
    the target, found by bisecting [0, R] down to adjacent floats."""
    lo, hi = 0.0, reach(p)[0]
    weight = _weight(p)
    target = 0.9999 * weight(hi)
    if getattr(p, "g", 1.0) == 0.0 or not target > 0.0:
        return 0.0
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if weight(mid) >= target else (mid, hi)
    return hi


def load_radial_table(source, interpolation="cubic"):
    """Read a two-column (r, V) table from a path or file object.

    Columns are separated by commas or by whitespace; '#' starts a comment.
    """
    if isinstance(source, (str, bytes)):
        name = source
    elif hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
    else:
        raise ConfigError("radial table source must be a path or file "
                          "object", key="potential.file")
    try:
        if isinstance(source, (str, bytes)):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"radial table {name}: {exc}",
                          key="potential.file") from exc
    lines = text.splitlines()
    if not any(ln.split("#", 1)[0].strip() for ln in lines):
        raise ConfigError(f"radial table {name}: no data rows",
                          key="potential.file")
    try:
        try:
            data = np.loadtxt(lines, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            data = np.loadtxt(lines, comments="#", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"radial table {name}: {exc}",
                          key="potential.file") from exc
    if data.shape[1] != 2:
        raise ConfigError(f"radial table {name}: expected two columns r, V",
                          key="potential.file")
    return TabulatedRadial(r=data[:, 0], v=data[:, 1],
                           interpolation=interpolation, file=name)
