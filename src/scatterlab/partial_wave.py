"""Exact partial-wave oracle: radial Schrodinger phase shifts by Numerov.

Solves u_l'' = [l(l+1)/r^2 + 2 m V - k^2] u_l, in units with hbar = 1,
outward from the origin for every l at once (the per-l integrations are
independent; they are carried as one vectorized state with deterministic
assembly), then extracts tan(delta_l) by matching u_l/r against the free
combination cos(delta) j_l(kr) - sin(delta) n_l(kr) at two radii a quarter
local wavelength apart, with one row of spherical Bessel values per radius.

Numerov works only where V is strong. V = s V + (1 - s) V, s a smooth
switch from 1 at a split radius R0 to 0 at R0 + 2 (_switch): the sweep
takes s V and matches past R0 + 2, where s V = 0, and each wave then gains
the far potential's first-order term of the variable-phase equation
(Calogero, Variable Phase Approach to Potential Scattering, 1967),
-(1/k) int U (1 - s) (cos delta j^_l - sin delta n^_l)^2 dr with U = 2mV
and j^, n^ the Riccati-Bessel functions, by Gauss quadrature past R0
(_tail_terms). R0 is where T0 = (1/k) int_R0 |U| dr, on which the dropped
second order depends, meets an a-priori target (_split_radius); where no
R0 lets the sweep end short of r_max, and for a table, nothing is split.
The tail adds its own error bound to each wave, PhaseShiftSet.tail_error.

Each pass integrates its waves on three grids, of steps h, 2h and 4h,
between the same two matching radii, which lie on the 4h grid. For a
smooth potential Numerov's error in delta is a series in even powers from
h^4 on, which the six-term series start keeps. Richardson's R(h, 2h) =
delta(h) + (delta(h) - delta(2h))/15 removes the h^4 term, and R3 = R(h,
2h) + (R(h, 2h) - R(2h, 4h))/63, with R(2h, 4h) formed alike, the h^6
term, leaving h^8: the oracle's delta is R3, which costs no sweep beyond
the three grids. A cubic table from r = 0
is smooth but at its last knot, which its default h puts on the 4h grid.
The amplitude reports the gap between R3 and a second extrapolation as
its step error; see PhaseShiftSet. One loop over the fine grid carries all
three grids as one state: every step advances the fine waves, every
second step the mid ones as well and every fourth the coarse ones, so a
pass costs as many Python steps as a single sweep at h, and 1 + 1/2 + 1/4
of its arithmetic. V, the centrifugal term and the Bessel rows at the
matching radii are formed once, on the fine grid. Each pass of the
automatic l_max sweeps only the waves above the previous pass's top.

The sweep runs Numerov's scheme in summed form: it carries y_n and the
first difference y_n - y_{n-1} and adds g_n y_n to the difference at each
step, three in-place operations on a prefix of the state. Growth in the
classically forbidden region is held in range by scaling each wave's
state by exact powers of two, which cannot change a phase shift's bits,
so each grid's phase shifts keep the bits of a sweep of its own.

A wave whose forbidden region near the origin is wide starts inside it,
with u = 0 one step back (Blatt, J. Comput. Phys. 1, 382, 1967), where its
regular solution then outgrows the irregular one by 1/(eps e^8); see
_wave_starts. Its coefficients are formed only from there on, which also
skips the steps near the origin where 1 - h^2 f/12 < 0 and Numerov's step
is unstable for a high wave.

The reported delta_l live in (-pi/2, pi/2]; the amplitude only ever uses
e^{2 i delta}, for which the mod-pi reduction is exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from .eikonal import Kinematics, _amplitude, momentum_transfer
from .errors import (MAX_FLOAT, ConvergenceError, DomainError, RangeError,
                     integer, real, reals)
from .potentials import (Gauss, TabulatedRadial, Yukawa, _analytic,
                         effective_radius, evaluate, origin_expansion, reach)
# The effective radius needs no integrator; the two integrators and
# spherical_bessel are bound here only because perfbench/tracer.py rebinds
# them in partial_wave's namespace.
from .quadrature import (integrate_adaptive,  # noqa: F401
                         integrate_semi_infinite)
from .special_functions import (expm1i, legendre_p_row,
                                spherical_bessel_row)
from .special_functions import spherical_bessel  # noqa: F401

__all__ = [
    "PhaseShiftSet",
    "phase_shifts",
    "amplitude_partial_wave",
]

# decay criterion on the reduced potential: |V(r_max)| 2m <= DECAY k^2
_DECAY = 1e-12
_TAIL_TOL = 1e-8  # |delta_{l_max}| below this counts as converged
# the automatic r_max search spans this many reaches: over them a Yukawa
# falls by e^-2400 and a Gauss by more, beyond the ratio of any two floats,
# and a table's V is 0 beyond one reach
_RANGES = 64
# auto l_max: the widths top - l0 of the passes, tried in turn
_WIDTHS = (64, 128, 256, 416)
_CHUNK = 128  # Numerov steps whose coefficient rows are formed at once
# the most points a fine grid may hold: each of its r, V and 1/r^2 arrays
# then takes 32 MiB; the shipped configs and tests stay below 60,000
_GRID_POINTS = 1 << 22
# the most waves times fine-grid points a call may sweep; the tests sweep
# at most 4.9e7
_WAVE_POINTS = 1 << 30
_EPS = np.finfo(float).eps
# fine steps per block of the start rule, so that every start is a chunk
# edge; bound at import, so a patched _CHUNK moves no start
_BLOCK = _CHUNK
_EXPONENT = 0.5 * math.log(1.0 / _EPS) + 4.0  # growth e^22 past a start
# the split (_split_radius): T0 = (1/k) int |2mV| dr past R0 at most
# _SPLIT, above k = 6; the switch s falls from 1 at R0 to 0 at R0 +
# _SWITCH; and the first-order tail runs on to where |2mV| <= _FAR k^2
_SPLIT = 1e-5
_SWITCH = 2.0
_FAR = 1e-16
# the tail's panels take the 15-point Gauss-Legendre rule, nodes +-x and
# weights w below; C = (15!)^4/(31 (30!)^3), and _PANEL the width times
# the integrand's rate rho that makes C (w rho)^30, the bound on the rule's
# error over the panel's width times its largest |f|, _QUAD
_GL_X = (0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
         0.7244177313601701, 0.8482065834104272, 0.937273392400706,
         0.9879925180204854)
_GL_W = (0.2025782419255613, 0.19843148532711158, 0.1861610000155622,
         0.16626920581699392, 0.13957067792615432, 0.10715922046717194,
         0.07036604748810812, 0.03075324199611727)
_NODES = np.array([-x for x in _GL_X[:0:-1]] + list(_GL_X))
_WEIGHTS = np.array(_GL_W[:0:-1] + _GL_W)
_QUAD = 1e-6
_GAUSS_C = math.factorial(15) ** 4 / (31 * math.factorial(30) ** 3)
_PANEL = (_QUAD / _GAUSS_C) ** (1.0 / 30.0)
# the switch's own rate in that bound
_SWITCH_RATE = 4.0


@dataclass(frozen=True, eq=False)
class PhaseShiftSet:
    """Phase shifts delta_l for l = 0..l_max at one wavenumber.

    delta holds R3, the third Richardson level of the grids of step h, 2h
    and 4h, plus the first-order tail where the pass split V, in (-pi/2,
    pi/2]. delta_coarse holds, on the same branch, the extrapolation whose
    gap to delta amplitude_partial_wave reads as the wave's step error:
    R(h, 2h) where the wave's grids show the h^6 expansion, R(2h, 4h)
    elsewhere (see _extrapolated), plus its own tail. dr is the finest step
    h, and r_max, a point of the 4h grid, the radius past which a sweep
    drops V: the first matching radius where V was not split. tail_ratio,
    in [0, 1), bounds |delta_{l+1}/delta_l| for l >= l_max from the
    potential; amplitude_partial_wave bounds the dropped waves with it or
    with the decay of the last waves kept, whichever is slower. tail_error
    holds each wave's bound on the error of its tail, 0 where there is
    none: the Gronwall bound on the dropped second order plus the
    quadrature's (see _tail_terms); zeros if not given.
    """

    k: float
    l_max: int
    delta: np.ndarray
    delta_coarse: np.ndarray
    r_max: float
    dr: float
    tail_ratio: float = 0.0
    tail_error: np.ndarray = None

    def __post_init__(self):
        real(self.k, "k", positive=True)
        integer(self.l_max, "l_max")
        real(self.r_max, "r_max", positive=True)
        real(self.dr, "dr", positive=True)
        if not 0.0 <= real(self.tail_ratio, "tail_ratio") < 1.0:
            raise DomainError(f"tail_ratio must lie in [0, 1), got "
                              f"{self.tail_ratio!r}", key="tail_ratio")
        d = reals(self.delta, "delta", -MAX_FLOAT, MAX_FLOAT)
        if d.shape != (self.l_max + 1,):
            raise DomainError("delta must hold l_max + 1 entries", key="delta")
        c = reals(self.delta_coarse, "delta_coarse", -MAX_FLOAT, MAX_FLOAT)
        if c.shape != d.shape:
            raise DomainError("delta_coarse must hold l_max + 1 entries",
                              key="delta_coarse")
        t = np.zeros(d.shape) if self.tail_error is None else reals(
            self.tail_error, "tail_error", 0.0, math.inf)
        if t.shape != d.shape:
            raise DomainError("tail_error must hold l_max + 1 entries",
                              key="tail_error")
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "delta_coarse", c)
        object.__setattr__(self, "tail_error", t)
        if abs(d[-1]) >= _TAIL_TOL:
            raise DomainError(
                f"partial-wave tail not converged: |delta_l_max| = "
                f"{abs(d[-1]):.3e} >= {_TAIL_TOL:g}; increase l_max",
                key="l_max")


def _reduced_strength(p, kin, r):
    return np.abs(np.asarray(evaluate(p, r), dtype=float)) * 2.0 * kin.mass


def _auto_r_max(p, kin, r_eff, decay=_DECAY):
    """The first r = r0 + 0.25 j, r0 = max(r_eff, 2 pi/k, 1), where the
    reduced potential has fallen below decay k^2, searched up to _RANGES
    times the potential's reach past r0. The candidates are evaluated 64
    at a time, each the sum of its predecessor and 0.25."""
    bound = decay * kin.k**2
    r0 = max(r_eff, 2.0 * np.pi / kin.k, 1.0)
    limit = r0 + _RANGES * reach(p)[0]
    left = math.ceil((limit - r0) / 0.25) + 1
    first = r0
    while left > 0:
        r = np.full(min(64, left), 0.25)
        r[0] = first
        np.cumsum(r, out=r)
        hit = np.flatnonzero(_reduced_strength(p, kin, r) <= bound)
        if hit.size:
            return float(r[hit[0]])
        first, left = r[-1] + 0.25, left - r.size
    raise RangeError(f"potential does not decay below the matching "
                     f"threshold within r = {limit:g}, {_RANGES} times its "
                     f"reach past the start of the search", key="r_max")


def _split_radius(p, kin, r_max):
    """R0, where the sweep hands V over to the first-order tail: the first r
    = r0 + 0.25 j, r0 = max(2 pi/k, 1), whose T0 = (1/k) int_r^r_max |2mV|
    dr, by the trapezoid rule on those points, is at most _SPLIT min(1,
    k/6)^4, an a-priori target for the tail's dropped second order, about
    T0^2. None, for no tail, where R0 + 2 _SWITCH passes r_max, and for a
    table, whose knots would cut the tail's panels. The points do not
    depend on dr."""
    if isinstance(p, TabulatedRadial):
        return None
    k = kin.k
    r0 = max(2.0 * np.pi / k, 1.0)
    n = math.floor((r_max - r0) / 0.25)
    if n < 1:
        return None
    r = r0 + 0.25 * np.arange(n + 1)
    u = _reduced_strength(p, kin, r)
    beyond = np.cumsum((0.125 * (u[1:] + u[:-1]))[::-1])[::-1]
    # the default step's error falls as (k h)^8 below k = 0.06/0.01, and
    # the split's, about T0^2, falls with it
    target = _SPLIT * min(1.0, k * 0.01 / 0.06) ** 4
    hit = np.flatnonzero(beyond <= target * k)
    if not hit.size or r[hit[0]] + 2.0 * _SWITCH > r_max:
        return None
    return float(r[hit[0]])


def _tail_rule(p, kin, r0, r_end):
    """The nodes x = k r of the tail's 15-point Gauss panels over [r0, r_end]
    and two rows of weights: U (1 - s) at every node, U = 2mV and s =
    _switch(r, r0), and |U| s at the nodes of the switch's panels, which
    lead.

    The panels tile [r0, r0 + _SWITCH] in equal widths, and [r0 + _SWITCH,
    r_end] in widths w, w rho = _PANEL, but for the last: rho = 2k, the
    rate of the waves' squares, plus the potential's own rate (mu + 30/(e
    r0) for a Yukawa, whose 1/r adds m!/r^m to its m-th derivative; 2 alpha
    r_end + sqrt(60 alpha) for a Gauss), plus _SWITCH_RATE over the
    switch. With the integrand's 30th derivative at most rho^30 times its
    largest value, the rule's error on a panel is at most C (w rho)^30 w
    max|f| <= _QUAD w max|f|. A panel edge at r0 + _SWITCH keeps the
    switch's kink out of the panels."""
    k = kin.k
    if isinstance(p, Yukawa):
        rate = 2.0 * k + p.mu + 30.0 / (math.e * r0)
    else:
        rate = 2.0 * k + 2.0 * p.alpha * r_end + math.sqrt(60.0 * p.alpha)
    n = math.ceil(_SWITCH * (rate + _SWITCH_RATE) / _PANEL)
    lo = np.concatenate([r0 + (_SWITCH / n) * np.arange(n),
                         r0 + _SWITCH + (_PANEL / rate) * np.arange(
                             math.ceil((r_end - r0 - _SWITCH) * rate
                                       / _PANEL))])
    hi = np.append(lo[1:], r_end)
    hw = 0.5 * (hi - lo)
    r = (0.5 * (lo + hi)[:, None] + hw[:, None] * _NODES).ravel()
    weight = (hw[:, None] * _WEIGHTS).ravel()
    # libm's exp: the last bit of numpy's depends on the SIMD level, and
    # every bit of U reaches the tail of the high waves
    u = 2.0 * kin.mass * np.array([_analytic(p, v, math.exp)
                                   for v in r.tolist()]) * weight
    s = _switch(r[:n * _NODES.size], r0)
    return k * r, u * (1.0 - _switch(r, r0)), np.abs(u[:s.size]) * s


def _recur(rows, coef, start):
    """Fill rows[l + 1] = coef[l] rows[l] - rows[l - 1] from l = start on,
    in place; rows and coef are lists of row views, so a step costs two
    ufunc calls and no indexing."""
    multiply, subtract = np.multiply, np.subtract
    for l in range(start, len(rows) - 1):
        f = rows[l + 1]
        multiply(coef[l], rows[l], out=f)
        subtract(f, rows[l - 1], out=f)


def _riccati_rows(lo, top, x, n_top):
    """Riccati-Bessel rows j^_l(x) = x j_l(x), l = lo..top, and n^_l(x) = x
    n_l(x), l = lo..n_top, n_top <= top, as (l, node) arrays, at ascending
    nodes x >= 2.

    n^ comes from its upward recurrence, which is stable. So does j^ at
    each node up to m = floor(x) - 1, and the upward j^ past m, which may
    overflow, is set to 0. Past m, Miller's downward recurrence over the
    window [m, m + W], W = 8 x^(1/3) + 10 at the largest x, started from 1
    at its top and scaled to the upward j^_m, gives j^: beyond the window
    j^_l^2 is below eps (the Airy decay past the turning point), and the
    row is 0 there. The window's growth, at most about e^80, needs no
    rescaling."""
    inv = 1.0 / x
    sin_x, cos_x = np.sin(x), np.cos(x)
    m = np.minimum(np.floor(x).astype(int) - 1, top)
    up = max(int(m.max()), 1)
    coef = list((2.0 * np.arange(max(up, n_top, 1)) + 1.0)[:, None] * inv)
    j = np.zeros((top + 1, x.size))
    n = np.empty((max(n_top, 1) + 1, x.size))
    j[0], j[1] = sin_x, sin_x * inv - cos_x
    n[0], n[1] = -cos_x, -cos_x * inv - sin_x
    with np.errstate(over="ignore", invalid="ignore"):
        _recur(list(j[:up + 1]), coef, 1)
    _recur(list(n), coef, 1)
    # the upward j^ past m, on the nodes below the first whose m >= l
    for l, a in zip(range(2, up + 1),
                    np.searchsorted(m, np.arange(2, up + 1)).tolist()):
        j[l, :a] = 0.0
    width = math.ceil(8.0 * float(x[-1]) ** (1.0 / 3.0)) + 10
    live = np.flatnonzero(m < top)  # nodes whose window holds rows <= top
    ms = m[live]
    down = np.empty((width + 2, live.size))
    down[width + 1], down[width] = 0.0, 1.0
    # f_{m+i-1} = (2(m + i) + 1) f_{m+i}/x - f_{m+i+1}, down[i] = f_{m+i}
    _recur(list(down[::-1]), list((2.0 * (ms + np.arange(
        width + 1, -1, -1)[:, None]) + 1.0) * inv[live]), 1)
    down *= j[ms, live] / down[0]
    ll = ms + np.arange(1, width + 1)[:, None]
    keep = ll <= top
    j[ll[keep], np.broadcast_to(live, ll.shape)[keep]] = down[1:-1][keep]
    return j[lo:], n[lo:n_top + 1]


def _tail_terms(rule, k, kr0, l_arr, deltas):
    """Each wave's first-order tail -(1/k) int U (1 - s) (cos d j^_l - sin
    d n^_l)^2 dr at each d of deltas, on the rule of _tail_rule, and the
    bound on its error.

    The variable phase obeys delta' = -(1/k) U A(delta), A = (cos delta
    j^ - sin delta n^)^2, with |A| and |dA/d delta| at most M = j^^2 +
    n^^2. Past R0 the phase moves by at most T = (1/k) int_R0 |U| M dr, so
    taking A at the swept d, not along the way, moves the tail by at most
    about T^2 (Gronwall): the bound is 2 T^2, plus the quadrature's, 2
    _QUAD T. A wave classically forbidden at R0, l + 1/2 > k R0, takes
    j^_l alone: there the n^ terms would multiply the rounding of d by
    n^_l^2, which grows, while d n^_l stays of the order of T j^_l. Its
    bound is 2 T_j T0 (plus the quadrature's), T_j its own (1/k) int |U|
    j^_l^2 and T0 = (1/k) int |U| the bound on the relative change the
    potential makes to its wave past R0."""
    x, far, near = rule
    j, n = _riccati_rows(int(l_arr[0]), int(l_arr[-1]), x,
                         min(int(l_arr[-1]), math.floor(kr0 - 0.5)))
    na = n.shape[0]  # the waves allowed at R0 lead l_arr

    def moment(f, w):
        # a pairwise sum a row, so a wave's bits depend neither on the
        # other waves of its pass, as a BLAS product's would, nor on the
        # SIMD level, as einsum's would
        return (f[:, :w.size] * w).sum(axis=-1) / k

    jj, nn = j * j, n * n
    mj, mn, mx = moment(jj, far), moment(nn, far), moment(j[:na] * n, far)
    # U has one sign, so |far| integrates |U| (1 - s), and near adds |U| s
    size = np.abs(mj) + moment(jj, near)
    size[:na] += np.abs(mn) + moment(nn, near)
    gronwall = 2.0 * size * ((abs(far.sum()) + near.sum()) / k)
    gronwall[:na] = 2.0 * size[:na] ** 2
    out = []
    for d in deltas:
        c, s = np.cos(d), np.sin(d)
        t = -c * c * mj
        t[:na] += 2.0 * c[:na] * s[:na] * mx - s[:na] * s[:na] * mn
        out.append(d + t)
    # the rule's error on a panel is at most _QUAD w max|f|, which the
    # envelope j^^2 + n^^2 (j^^2 where forbidden) keeps within twice the
    # panel's share of size
    return out, gronwall + 2.0 * _QUAD * size


def _normalise(y, d):
    """Scale each wave's (y, d) in place by the power of two 2^-e that puts
    max(|y|, |d|) into [1/2, 1); exact, so every ratio keeps its bits."""
    e = np.frexp(np.maximum(np.abs(y), np.abs(d)))[1]
    np.ldexp(y, -e, out=y)
    np.ldexp(d, -e, out=d)


def _advance(steps, y, d, every_step=False):
    """Take the steps (g_n, y_n, d_n, t_n), each a row of g and views of a
    prefix of the state (y, d) and of a buffer: d_n += g_n y_n, y_n += d_n.
    every_step normalises the whole state before each step."""
    multiply, add = np.multiply, np.add
    for g_n, y_n, d_n, t_n in steps:
        if every_step:
            _normalise(y, d)
        multiply(g_n, y_n, t_n)
        add(d_n, t_n, d_n)
        add(y_n, d_n, y_n)


def _wave_starts(base, inv_r2, ll1, i_a, dr):
    """The fine index at which each wave of ll1 = l(l+1) starts: the last
    edge 128 b, b >= 1, of a block of 128 fine steps from which a lower
    bound on the WKB exponent int sqrt(f) dr to the wave's first turning
    point, or to i_a, reaches _EXPONENT = ln(1/eps)/2 + 4; 2, the series
    start, if there is none. The start depends on the wave, the grid and V
    alone.

    Block b, from fine index 128 b to 128 b + 128 <= i_a, adds sqrt(min f)
    128 dr, min f = min(base) over its points + l(l+1)/r^2 at its end;
    from the first block with min f <= 0 on, blocks add 0. The bound grows
    with l, so the starts do not fall as l rises.
    """
    starts = np.full(ll1.size, 2)
    nb = i_a // _BLOCK
    if nb < 2:
        return starts
    ends = _BLOCK * np.arange(1, nb + 1)
    low = base[1:ends[-1] + 1].reshape(nb, _BLOCK).min(axis=1)
    low[1:] = np.minimum(low[1:], base[ends[:-1]])
    f_min = low[:, None] + inv_r2[ends, None] * ll1  # (block, wave)
    alive = np.logical_and.accumulate(f_min > 0.0)
    growth = np.where(alive, np.sqrt(np.maximum(f_min, 0.0)), 0.0) \
        * (_BLOCK * dr)
    # the exponent from each edge is a sum over the blocks past it
    exponent = np.cumsum(growth[::-1], axis=0)[::-1]
    b = np.count_nonzero(exponent[1:] >= _EXPONENT, axis=0)
    starts[b > 0] = _BLOCK * b[b > 0]
    return starts


def _integrate(base, inv_r2, ll1, h2, y, d, i_a, i_b, starts):
    """Carry the state (y, d) of the three grids in place from fine index 2
    to i_b; return y at i_a.

    The state holds w waves per grid, [fine | mid | coarse], at steps h,
    2h and 4h. Step n of the loop takes the fine grid from r_n to r_{n+1};
    the mid grid steps with it at odd n from n = 5, and the coarse grid at
    n = 3 (mod 4) from n = 11, so every grid due at step n lands on
    r_{n+1}, all three together on each point of the coarse grid, and a
    step works on a prefix of the state. Wave i starts at fine index
    starts[i], 2 or a point of the coarse grid before i_a, and the starts
    do not fall as i rises. Chunks are cut at 2, at each multiple of
    _CHUNK, at each start, at i_a and at i_b. A wave starting at 2 starts
    from the series already in (y, d); any other starts, on a chunk's first
    step, from y = d = 1 on every grid, u one step back being 0, and until
    then its state and its g are 0. g = h_j^2 f / (1 - h_j^2 f/12) is
    formed a chunk at a time into buffers allocated once, step n in row
    n - 2 (mod 4), and only for the waves started by the chunk's first
    step; the mid and coarse grids step with the f of rows n - 1 and
    n - 3. h2 = h^2, and h_j^2 = 4^j h2 exactly, so g = h2 f / (4^-j -
    h2 f/12) with the same bits, from h2 f and h2 f/12 formed once per
    fine row.
    Before i_a each chunk starts from a normalised state; a chunk that still
    overflows (the steep growth of a high wave near the origin) is redone
    from its start, normalised at every step. From i_a on nothing is
    scaled, so y at i_a and at i_b carry one common factor per wave.
    """
    w = ll1.size
    t = np.empty_like(y)
    # the temporaries of g are contiguous (rows, waves started) blocks of
    # flat buffers; only g's rows interleave the three grids
    hf_buf, hf12_buf = (np.empty((_CHUNK + 3) * w) for _ in range(2))
    den_buf = np.empty(_CHUNK * w)
    g_buf = np.zeros((_CHUNK + 3, 3 * w))
    views = {m: (y[:m], d[:m], t[:m]) for m in (w, 2 * w, 3 * w)}
    y3, d3 = y.reshape(3, w), d.reshape(3, w)  # (grid, wave) views

    def width(n):
        return w * (1 + (n % 2 == 1 and n >= 5) + (n % 4 == 3 and n >= 11))

    # row i of g_buf holds a step n = i + 2 (mod 4); from n = 11 on, every
    # grid has started and a step's width depends on n mod 4 alone
    plan = [(g_buf[i, :width(i + 14)], *views[width(i + 14)])
            for i in range(min(_CHUNK + 3, i_b))]
    y_a = None
    # chunk [n0, n1) takes the state from r_{n0} to r_{n1}; i_a and every
    # start are cuts
    cuts = sorted({2, *range(_CHUNK, i_b, _CHUNK), *starts.tolist(), i_a,
                   i_b})
    # overflow is caught by the finiteness checks, not by numpy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n0, n1 in zip(cuts, cuts[1:]):
            if n0 == i_a:
                y_a = y.copy()
            # the waves [i0, m) start at n0, and [0, m) have started by it
            i0, m = np.searchsorted(starts, (n0, n0 + 1))
            off, lo = (n0 - 2) % 4, max(n0 - 3, 0)
            hf = hf_buf[:(n1 - lo) * m].reshape(n1 - lo, m)
            hf12 = hf12_buf[:hf.size].reshape(hf.shape)
            np.multiply(ll1[:m], inv_r2[lo:n1, None], out=hf)
            np.add(base[lo:n1, None], hf, out=hf)  # f
            np.multiply(h2 / 12.0, hf, out=hf12)
            np.multiply(h2, hf, out=hf)
            for j, (scale, lag, period) in enumerate(zip(
                    (1.0, 0.25, 0.0625), (0, 1, 3), (1, 2, 4))):
                a = off + (1 - off) % period  # rows = 1 (mod period)
                g = g_buf[a:off + n1 - n0:period, j * w:j * w + m]
                rows = slice(n0 + a - off - lag - lo, n1 - lag - lo, period)
                den = den_buf[:g.size].reshape(g.shape)
                np.subtract(scale, hf12[rows], out=den)
                np.divide(hf[rows], den, out=g)
            steps = plan[off:off + n1 - n0]
            if n0 < 11:
                steps[:11 - n0] = [(g_buf[off + i, :width(n)],
                                    *views[width(n)]) for i, n in
                                   enumerate(range(n0, min(n1, 11)))]
            if n0 >= i_a:
                _advance(steps, y, d)
                continue
            _normalise(y, d)
            if n0 > 2:
                y3[:, i0:m] = d3[:, i0:m] = 1.0
            start = y.copy(), d.copy()
            _advance(steps, y, d)
            if not np.isfinite(y).all():
                # a non-finite d reaches y in the same step and stays there
                y[:], d[:] = start
                _advance(steps, y, d, every_step=True)
    return y_a


def _row_top(x):
    """The top of the Bessel rows at the matching radii, x = k r_b at the
    second: j_l(y)^2 falls below eps of its peak past l = x + 8 x^(1/3) +
    10 at every y <= x (the Airy decay past the turning point), and
    _sweep_grids takes a wave's phase shift as 0 there without sweeping it.
    It depends on x alone, so a wave's bits do not depend on the other
    waves of its pass."""
    return int(x + 8.0 * x ** (1.0 / 3.0)) + 10


def _match(l_arr, rows, w_a, w_b):
    """The phase shifts of the waves l_arr from u/r at the two matching
    radii, given the rows (j_a, n_a, j_b, n_b) of spherical Bessel values
    there.

    Each wave's pair (w_a, w_b) is scaled by one power of two, which keeps
    the products with n_l finite and leaves the bits of atan2 as they are;
    up to the rows' top n_l(k r_b) stays below 1e22 for every k r_b, so den
    is never inf - inf.
    atan2 is libm's, one call per wave: numpy's vectorised arctan2 differs
    from it in the last bit for some arguments on AVX-512 hosts.
    """
    j_a, n_a, j_b, n_b = (row[l_arr] for row in rows)
    e = np.frexp(np.maximum(np.abs(w_a), np.abs(w_b)))[1]
    w_a, w_b = np.ldexp(w_a, -e), np.ldexp(w_b, -e)
    num = w_a * j_b - w_b * j_a
    den = w_a * n_b - w_b * n_a
    delta = np.array([math.atan2(y, x)
                      for y, x in zip(num.tolist(), den.tolist())])
    delta[delta > np.pi / 2] -= np.pi
    delta[delta <= -np.pi / 2] += np.pi
    return delta


def _switch(r, r0):
    """s(r): 1 up to r0, 0 from r0 + _SWITCH on, and between them 1 - t^4
    (35 - 84 t + 70 t^2 - 20 t^3), t = (r - r0)/_SWITCH, the C^3
    smoothstep; exactly 1 and 0 outside, so s V keeps V's bits below r0."""
    t = np.clip((r - r0) / _SWITCH, 0.0, 1.0)
    t2 = t * t  # not t**4: numpy's power takes the SIMD level's kernel
    return 1.0 - t2 * t2 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def _sweep_grids(p, kin, l_arr, r_a, r_b, dr, r0=math.inf):
    """Integrate every l of l_arr outward on the grids of step dr, 2 dr and
    4 dr in one loop and match at r_a and r_b, two points of the 4 dr grid;
    return the phase shifts on each grid, finest first. The potential swept
    is s V, s = _switch(r, r0): V itself for r0 = inf.

    Numerov in summed form: with y_n = (1 - h^2 f_n/12) u_n the scheme
    y_{n+1} - 2 y_n + y_{n-1} = h^2 f_n u_n reads d_{n+1} = d_n + g_n y_n,
    y_{n+1} = y_n + d_{n+1}, where d_n = y_n - y_{n-1} and
    g_n = h^2 f_n / (1 - h^2 f_n/12). Carrying the first difference
    instead of two levels costs three in-place operations a step and
    accumulates far less rounding error; u = y/(1 - h^2 f/12) is formed
    only at the two matching radii. Each wave's state is scaled by exact
    powers of two on the way out, never past the first matching radius;
    the match is homogeneous in (u_a, u_b), so the phase shifts do not
    depend on when or how often that happens, nor on which grids share
    the loop. V, the radii and the Bessel rows at the matching radii are
    those of the fine grid, which the coarser grids' points are bit for
    bit. A grid on which V vanishes scatters nothing.
    """
    k = kin.k
    two_m = 2.0 * kin.mass
    steps = (dr, 2.0 * dr, 4.0 * dr)
    h2s = [s * s for s in steps]

    i_a = 4 * int(round(r_a / steps[2]))  # at least 8: phase_shifts checks
    i_b = 4 * int(round(r_b / steps[2]))  # the last step lands on i_b dr
    # the waves past the Bessel rows' top scatter nothing: not swept
    live = np.asarray(l_arr) <= _row_top(k * (dr * i_b))
    l_arr = np.asarray(l_arr)[live]

    def spread(delta):
        out = np.zeros(live.size)
        out[live] = delta
        return out

    r = dr * np.arange(0, i_b + 1, dtype=float)  # r[0] = 0 never used
    base = np.empty(i_b + 1)
    base[0] = 0.0
    v = np.asarray(evaluate(p, r[1:]), dtype=float)
    if r0 < r[-1]:
        v *= _switch(r[1:], r0)
    base[1:] = two_m * v - k * k
    inv_r2 = np.zeros(i_b + 1)
    inv_r2[1:] = 1.0 / (r[1:] * r[1:])

    # the free equation on the grid of every s-th point
    free = [bool(np.all(base[s::s] == -k * k)) for s in (1, 2, 4)]
    if free[0] or not l_arr.size:
        return tuple(np.zeros(live.size) for _ in steps)

    la = np.asarray(l_arr, dtype=float)
    ll1 = la * (la + 1.0)

    def den_at(j, n):  # 1 - h^2 f/12 on grid j at fine index n
        return 1.0 - h2s[j] / 12.0 * (base[n] + ll1 * inv_r2[n])

    # series start u = (r/r_2)^{l+1} (1 + c_1 r + ... + c_6 r^6) from the
    # origin expansion 2mV - k^2 ~ u_m1/r + u_0 + u_1 r + ... + u_4 r^4,
    # c_n = (u_m1 c_{n-1} + u_0 c_{n-2} + ... + u_4 c_{n-6}) / (n (2l + n
    # + 1)), c_0 = 1; without c4 the start leaves an h^5 term in delta,
    # which R(h, 2h) does not remove, and without c5 and c6 an h^7 term in
    # the s wave. Its power is 1 at r_2 and 2^-(l+1) at r_1 = r_2/2, so the
    # start is finite at every l
    u = [two_m * v for v in origin_expansion(p)]
    u[1] -= k * k
    c = [np.ones_like(la)]
    for n in range(1, 7):
        c.append(sum(u[i] * c[n - 1 - i] for i in range(min(n, 6)))
                 / (n * (2.0 * la + n + 1.0)))

    def series(rv):
        out = c[6]
        for cn in c[5::-1]:
            out = cn + rv * out
        return out

    y = np.concatenate([den_at(j, 2 * s) * series(r[2 * s])
                        for j, s in enumerate((1, 2, 4))])
    d = y - np.concatenate([den_at(j, s) * np.ldexp(series(r[s]),
                                                     -1 - la.astype(int))
                            for j, s in enumerate((1, 2, 4))])
    starts = _wave_starts(base, inv_r2, ll1, i_a, dr)
    late = np.tile(starts > 2, 3)
    y[late] = d[late] = 0.0
    y_a = _integrate(base, inv_r2, ll1, h2s[0], y, d, i_a, i_b, starts)

    if not (np.all(np.isfinite(y_a)) and np.all(np.isfinite(y))):
        raise ConvergenceError(
            "radial integration overflowed despite rescaling",
            estimate=np.nan, error_estimate=np.inf)
    r_a, r_b = r[i_a], r[i_b]
    rows = (*spherical_bessel_row(_row_top(k * r_b), k * r_a),
            *spherical_bessel_row(_row_top(k * r_b), k * r_b))
    w = la.size
    return tuple(
        spread(0.0 if free[j] else _match(
            l_arr, rows, y_a[j * w:(j + 1) * w] / den_at(j, i_a) / r_a,
            y[j * w:(j + 1) * w] / den_at(j, i_b) / r_b))
        for j in range(3))


def _extrapolated(p, kin, l_arr, r_a, r_b, dr, r0=math.inf):
    """(R3, R(h, 2h) or R(2h, 4h)) of the waves l_arr, h = dr, from the
    phase shifts on the grids of step h, 2h and 4h between the same
    matching radii. Each coarser delta is first moved by a multiple of pi
    next to the fine one; the pair is returned in (-pi/2, pi/2], shifted
    together.

    The second entry is R(h, 2h), 1/63 of |R(h, 2h) - R(2h, 4h)| from R3,
    where the wave's grids show the h^6 expansion: V is not a table's
    spline, whose third derivative jumps at every knot, and |R(h, 2h) -
    R(2h, 4h)| <= |delta(h) - delta(2h)|/32, where delta(h) = delta + A
    h^4 + B h^6 makes the left side about 13 |B/A| h^2 of the right.
    Elsewhere it is R(2h, 4h), 64/63 of |R(h, 2h) - R(2h, 4h)| from R3.
    The sweep takes s V, s = _switch(r, r0)."""
    fine, mid, coarse = _sweep_grids(p, kin, l_arr, r_a, r_b, dr, r0)
    mid += np.pi * np.round((fine - mid) / np.pi)
    coarse += np.pi * np.round((fine - coarse) / np.pi)
    near = fine + (fine - mid) / 15.0
    far = mid + (mid - coarse) / 15.0
    best = near + (near - far) / 63.0
    shown = (np.abs(near - far) <= np.abs(fine - mid) / 32.0) \
        & (not isinstance(p, TabulatedRadial))
    worse = np.where(shown, near, far)
    _onto_branch(best, worse)
    return best, worse


def _onto_branch(best, worse):
    """Shift each pair (best, worse) in place by the multiple of pi that
    puts best in (-pi/2, pi/2]."""
    up, down = best <= -np.pi / 2, best > np.pi / 2
    for x in (best, worse):
        x[up] += np.pi
        x[down] -= np.pi


def _tail_ratio(p, k, l_max):
    """A bound on |delta_{l+1}/delta_l| for l >= l_max from first Born.
    For a Yukawa delta_l is proportional to the Legendre function Q_l(z),
    z = 1 + mu^2/(2 k^2), whose ratios rise towards 1/(z + sqrt(z^2 - 1)).
    For a Gauss it is proportional to I_{l+1/2}(x), x = k^2/(2 alpha),
    whose ratios fall as l rises: the bound is I_{L+3/2}(x)/I_{L+1/2}(x),
    L = l_max, by its continued fraction. A table's V is 0 past R = r[-1],
    and j_{l+1}(y)/j_l(y) = y/(2l + 3 - y j_{l+2}(y)/j_{l+1}(y)) <= y/(nu +
    sqrt(nu^2 - y^2)), nu = l + 3/2 > y, where the ratios fall as l rises;
    it rises with y, so the bound is its square at y = k R, (k R/(2L + 3))^2
    far past the turning point. Where L + 3/2 <= k R this is 0, and the
    decay of the last waves kept bounds the ratios to come."""
    if isinstance(p, Yukawa):
        s = 0.5 * (p.mu / k) ** 2  # z - 1
        return 1.0 / (1.0 + s + math.sqrt(s * (2.0 + s)))
    if isinstance(p, Gauss):
        return _bessel_i_ratio(l_max + 0.5, 0.5 * k * k / p.alpha)
    y, nu = k * float(p.r[-1]), l_max + 1.5
    return (y / (nu + math.sqrt(nu * nu - y * y))) ** 2 if nu > y else 0.0


def _bessel_i_ratio(nu, x):
    """I_{nu+1}(x)/I_nu(x) by the continued fraction 1/r_m = 2(nu + m)/x +
    r_{m+1}, r_m = I_{nu+m}/I_{nu+m-1}, summed from m = 64 down, with r_65
    started at x/(d + sqrt(d^2 + x^2)), d = nu + 64.5, its uniform
    asymptotic form; each step damps the start's error by r_m^2."""
    if x == 0.0:
        return 0.0
    d = nu + 64.5
    r = x / (d + math.sqrt(d * d + x * x))
    for m in range(64, 0, -1):
        r = x / (2.0 * (nu + m) + x * r)
    return r


def phase_shifts(p, kin, l_max=None, r_max=None, dr=None):
    """Solve for delta_l, l = 0..l_max, with auto defaults for all knobs.

    Every pass carries its waves on the grids of dr, 2 dr and 4 dr in one
    loop; delta is their third Richardson level R3, delta_coarse the
    extrapolation the step error is read from, and tail_ratio the
    potential's bound on the decay of the dropped waves; see PhaseShiftSet
    and _extrapolated.
    The pass splits V at R0 where it can (_split_radius): the grids then
    carry s V and match at the first points of the 4 dr grid past R0 + 2,
    and every wave adds the first-order tail of (1 - s) V from R0 to where
    |2mV| <= 1e-16 k^2, past r_max, and records its bound in tail_error.
    R0 is the first point r0 + 0.25 j, r0 = max(2 pi/k, 1), from which
    T0 = (1/k) int |2mV| dr to r_max is at most 1e-5 min(1, k/6)^4, the
    target falling with the default step's own error below k = 6: it
    depends on k and V, not on dr. Where R0 + 4 passes r_max, and for a
    table, the pass is not split.
    l_max=None cuts the waves at the first l0 + 16 j, l0 = ceil(k r_eff)
    + 10, whose extrapolated |delta| is below the tail threshold, r_eff =
    potentials.effective_radius(p), found on every call. It sweeps up to
    top = l0 + 64, l0 + 128, l0 + 256 and l0 + 416 in turn, each pass only
    the waves above the previous top, stopping at the first pass that holds
    a converged candidate; past l0 + 416 it raises ConvergenceError. An
    explicit l_max is one pass to l_max.
    r_max=None takes the first of max(r_eff, 2 pi/k, 1) + 0.25 j where the
    reduced potential has fallen below 1e-12 k^2, searched over 64 times
    the potential's reach (potentials.reach), and rounds it up onto the
    4 dr grid; an explicit r_max is rounded to the nearest point of that
    grid and must meet the same bound there. The second matching radius
    lies a quarter wavelength further out, rounded onto the same grid. An
    unsplit fine grid out to it of more than _GRID_POINTS points raises
    RangeError naming r_max before anything is swept; so do waves times
    points past _WAVE_POINTS, naming l_max if it was given.
    dr=None takes dr = min(0.06/k, 0.01), and for a cubic table from
    r[0] = 0 r[-1]/(4 n), n the least integer that keeps it no coarser, so
    that the table's last knot, its only kink of V, lies on the 4 dr grid
    (a linear table has a kink at every knot, one from r[0] > 0 one at
    r[0] as well); an explicit dr is the finest step, kept as given, and
    must keep k dr below 0.1.
    Each wave starts at the origin or at its own radius; see _wave_starts.
    """
    if not isinstance(kin, Kinematics):
        raise DomainError("kin must be a Kinematics instance", key="kin")
    k = kin.k
    r_eff = effective_radius(p)
    if dr is None:
        dr = min(0.06 / k, 0.01)
        if (isinstance(p, TabulatedRadial) and p.interpolation == "cubic"
                and p.r[0] == 0.0):
            # the last knot, this table's only kink of V, on the 4 dr grid
            end = float(p.r[-1])
            dr = end / (4.0 * math.ceil(end / (4.0 * dr)))
    else:
        dr = real(dr, "dr", positive=True)
        if k * dr >= 0.1:
            raise DomainError("k dr must stay below 0.1", key="dr")
    step = 4.0 * dr  # the coarsest grid's step: both radii lie on its grid

    if r_max is None:
        # up onto the grid, so that passing the result back is accepted
        r_max = math.ceil(_auto_r_max(p, kin, r_eff) / step) * step
    else:
        r_max = round(real(r_max, "r_max", positive=True) / step) * step
        if r_max < 2.0 * step:
            raise DomainError("r_max must lie at least 8 dr from the origin",
                              key="r_max")
        if _reduced_strength(p, kin, r_max) > _DECAY * k * k:
            raise RangeError(
                f"potential has not decayed at r_max = {r_max:g}, the "
                f"requested radius on the 4 dr grid: |V| 2m exceeds "
                f"1e-12 k^2 there", key="r_max")
    quarter = step * max(1, round((np.pi / (2.0 * k)) / step))
    r_b = r_max + quarter
    points = 4 * round(r_b / step) + 1  # the fine grid of an unsplit sweep
    if points > _GRID_POINTS:
        raise RangeError(
            f"the radial grid to r = {r_b:g} at dr = {dr:g} would hold "
            f"{points:,} points, more than the {_GRID_POINTS:,} allowed",
            key="r_max")

    if l_max is None:
        l0 = int(np.ceil(k * r_eff)) + 10
        tops = [l0 + w for w in _WIDTHS]
    else:
        l0 = integer(l_max, "l_max")
        tops = [l0]
    if (tops[-1] + 1) * points > _WAVE_POINTS:
        raise RangeError(
            f"up to {tops[-1] + 1:,} waves on {points:,} radial points, to r "
            f"= {r_b:g}, exceed the {_WAVE_POINTS:,} wave-points allowed",
            key="r_max" if l_max is None else "l_max")
    r0 = _split_radius(p, kin, r_max)
    if r0 is None:
        r_a, r0 = r_max, math.inf
    else:
        # the first point of the 4 dr grid where s V = 0
        r_a = math.ceil((r0 + _SWITCH) / step) * step
        r_b = r_a + quarter
        # the tail costs no sweep: it runs on past r_max, to where |2mV|
        # <= _FAR k^2, and so drops far less of V than a sweep to r_max
        rule = _tail_rule(p, kin, r0, _auto_r_max(p, kin, r_max, _FAR))
    # Each pass sweeps the waves above the previous pass's top and tests the
    # candidates l0 + 16 j up to its own top; each l is integrated on its
    # own, matched with Bessel rows whose top depends on k r_b alone, and
    # given its tail by sums of its own row, so a wave's bits do not depend
    # on which pass swept it. An explicit l_max is kept as given;
    # PhaseShiftSet checks its tail.
    delta = coarse = bound = np.empty(0)
    l_cut = l0
    for top in tops:
        l_arr = np.arange(delta.size, top + 1)
        best, worse = _extrapolated(p, kin, l_arr, r_a, r_b, dr, r0)
        err = np.zeros(l_arr.size)
        if r0 < r_a:
            (best, worse), err = _tail_terms(rule, k, k * r0, l_arr,
                                             (best, worse))
            _onto_branch(best, worse)
        delta = np.concatenate([delta, best])
        coarse = np.concatenate([coarse, worse])
        bound = np.concatenate([bound, err])
        while abs(delta[l_cut]) >= _TAIL_TOL and l_cut < top:
            l_cut += 16
        if abs(delta[l_cut]) < _TAIL_TOL or l_max is not None:
            return PhaseShiftSet(k=k, l_max=l_cut, delta=delta[:l_cut + 1],
                                 delta_coarse=coarse[:l_cut + 1],
                                 r_max=r_max, dr=dr,
                                 tail_ratio=_tail_ratio(p, k, l_cut),
                                 tail_error=bound[:l_cut + 1])
    raise ConvergenceError(
        "partial-wave tail refuses to converge; the potential may be too "
        "long-ranged for this oracle",
        estimate=float(delta[l_cut]), error_estimate=abs(delta[l_cut]))


def amplitude_partial_wave(ps, theta):
    """f(theta) = (1/2ik) sum (2l+1)(e^{2 i delta_l} - 1) P_l(cos theta).

    theta may be a scalar or a 1-d array in [0, pi]; array input yields an
    Amplitude whose fields are arrays over the same grid. S_l - 1 is
    special_functions.expm1i(2 delta_l). The error estimate at each angle
    is sum (2l+1) (2 |sin(delta_l - delta_coarse_l)| + 2 rho) |P_l| / 2k
    plus a bound on the dropped waves. The first term, |e^{2i delta_l} -
    e^{2i delta_coarse_l}| without cancellation, bounds |f(delta) -
    f(delta_coarse)|, the step error the extrapolation leaves, wave by
    wave, so it does not vanish where the waves' gaps cancel. rho = eps
    r_max/dr, one rounding per radial step, covers each delta's rounding
    (under 0.1 rho against long-double sweeps of seven cases), which sets
    the error once the step error falls below it. Where the pass split V,
    each wave adds 2 tail_error_l to the bracket: the Gronwall bound on
    the second order its first-order tail drops, and the tail's
    quadrature error.

    The dropped waves l = L + j, j >= 1, L = l_max, are taken to fall as
    |delta_L| r^j, r = max(tail_ratio, (|delta_L|/|delta_{L-m}|)^(1/m)),
    m = min(16, L): the potential's bound, or the mean decay of the last
    m waves, which bounds the ratios to come where they fall. Their sum
    of (2l + 1)|delta_l|/k, a bound on their |f| at every angle, is then
    ((2L + 1) r/(1 - r) + 2 r/(1 - r)^2) |delta_L|/k; inf where r >= 1.
    """
    q = momentum_transfer(ps.k, theta)  # checks that theta lies in [0, pi]
    th = np.asarray(theta, dtype=float)
    weight = 2.0 * np.arange(ps.l_max + 1) + 1.0
    s_mat = weight * expm1i(2.0 * ps.delta)
    p_rows = legendre_p_row(ps.l_max, np.cos(th))
    f = np.sum(s_mat[:, None] * p_rows, axis=0) / (2j * ps.k)
    rho = _EPS * ps.r_max / ps.dr
    gap = weight * (2.0 * np.abs(np.sin(ps.delta - ps.delta_coarse))
                    + 2.0 * rho + 2.0 * ps.tail_error)
    step = np.sum(gap[:, None] * np.abs(p_rows), axis=0) / (2.0 * ps.k)
    return _amplitude(theta, th, q, f.reshape(th.shape),
                      (step + _dropped_waves(ps)).reshape(th.shape))


def _dropped_waves(ps):
    """The bound on the waves past l_max of amplitude_partial_wave."""
    last = abs(float(ps.delta[-1]))
    if last == 0.0:
        return 0.0
    m = min(16, ps.l_max)
    before = abs(float(ps.delta[-1 - m]))
    if m and not before:
        return math.inf
    r = max(ps.tail_ratio, (last / before) ** (1.0 / m) if m else 0.0)
    if r >= 1.0:
        return math.inf
    w = r / (1.0 - r)
    return ((2.0 * ps.l_max + 1.0) * w + 2.0 * w / (1.0 - r)) * last / ps.k
