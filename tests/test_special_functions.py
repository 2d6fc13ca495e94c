"""Special-function kernels against mpmath/scipy oracles."""

import concurrent.futures

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from scatterlab.errors import DomainError
from scatterlab.special_functions import (bessel_j0, bessel_k0, j0_zeros,
                                          legendre_p_row, log,
                                          spherical_bessel,
                                          spherical_bessel_row)

import _oracles

mpmath.mp.dps = 40

# First zero of J0, frozen from mpmath.findroot(mpmath.j0, 2.4).
J0_ZERO_1 = 2.404825557695773


def test_j0_against_mpmath():
    # a dense [0, 12] grid with the x = 5 seam between the rational and the
    # asymptotic form, and the first three zeros, where hankel0 cuts blocks
    zeros = [float(mpmath.besseljzero(0, n)) for n in (1, 2, 3)]
    xs = np.concatenate([
        np.linspace(0.0, 12.0, 1201),
        np.array([5.0 - 1e-12, 5.0, 5.0 + 1e-12, *zeros]),
        np.array([7.999, 8.0, 8.001, 9.0, 12.5, 20.0, 50.0, 137.0,
                  1000.0, 12345.6]),
    ])
    ours = bessel_j0(xs)
    exact = np.array([float(mpmath.besselj(0, float(x))) for x in xs])
    assert np.max(np.abs(ours - exact)) < 1e-13


def test_log_within_4_ulp_of_mpmath():
    # the full float range, subnormals and the largest float included,
    # dense near 1 and on [1, 4], where a table's acosh takes it; a
    # scalar gives a float with the bits of the array element
    rng = np.random.default_rng(3)
    x = np.concatenate([
        np.exp(rng.uniform(-744.0, 709.7, 3000)), rng.uniform(1.0, 4.0, 3000),
        1.0 + rng.uniform(-1e-8, 1e-8, 500), np.sqrt(0.5) * (1.0 + np.array(
            [-2e-16, 0.0, 2e-16])),
        [5e-324, 2.2250738585072014e-308, 0.5, 1.0, 2.0,
         1.7976931348623157e308]])
    got = log(x)
    for xi, yi in zip(x.tolist(), got.tolist()):
        exact = mpmath.log(mpmath.mpf(xi))
        ulp = np.spacing(abs(float(exact))) if exact else 0.0
        assert abs(mpmath.mpf(yi) - exact) <= 4 * ulp, xi
    assert log(1.0) == 0.0
    assert isinstance(log(3.0), float)
    assert log(3.0) == log(np.array([3.0]))[0]


def test_j0_seam_and_symmetry():
    eps = 1e-13
    for seam in (5.0, 8.0):
        below = bessel_j0(seam - eps)
        above = bessel_j0(seam + eps)
        assert abs(below - above) < 1e-12
    xs = np.array([0.3, 2.7, 9.4])
    assert np.allclose(bessel_j0(-xs), bessel_j0(xs), rtol=0, atol=0)


def test_j0_scalar_and_array_agree():
    xs = np.array([0.0, 1.0, 4.999, 5.0, 5.001, 8.0, 30.0])
    arr = bessel_j0(xs)
    for x, v in zip(xs, arr):
        assert bessel_j0(float(x)) == v


def test_j0_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            bessel_j0(bad)
    with pytest.raises(DomainError):
        bessel_j0(np.array([1.0, np.nan]))


def test_j0_bessel_ode_residual():
    # |x J0'' + J0' + x J0| <= 1e-8 at 100 random points in (0, 50).
    # Derivatives from 5-point central stencils at h = 0.01: the 3-point
    # stencil bottoms out near 6e-8 in float64, measured during design, so
    # the higher-order stencil is what makes the 1e-8 budget reachable.
    rng = np.random.default_rng(7)
    x = rng.uniform(0.1, 50.0, size=100)
    h = 0.01
    fm2 = bessel_j0(x - 2 * h)
    fm1 = bessel_j0(x - h)
    f0 = bessel_j0(x)
    fp1 = bessel_j0(x + h)
    fp2 = bessel_j0(x + 2 * h)
    d1 = (-fp2 + 8.0 * fp1 - 8.0 * fm1 + fm2) / (12.0 * h)
    d2 = (-fp2 + 16.0 * fp1 - 30.0 * f0 + 16.0 * fm1 - fm2) / (12.0 * h * h)
    residual = x * d2 + d1 + x * f0
    assert np.max(np.abs(residual)) < 1e-8


def test_k0_against_mpmath():
    xs = np.concatenate([
        np.geomspace(1e-3, 2.0, 25),
        np.array([2.0 + 1e-12, 2.5, 4.0, 7.0, 12.0, 20.0, 50.0, 120.0]),
    ])
    ours = bessel_k0(xs)
    exact = np.array([float(mpmath.besselk(0, float(x))) for x in xs])
    rel = np.abs(ours - exact) / np.abs(exact)
    assert np.max(rel) < 1e-12


def test_k0_defining_integral_cross_check():
    # K0(x) = int_0^inf exp(-x cosh t) dt, evaluated with the package's own
    # semi-infinite quadrature: ties the two modules together.
    from scatterlab.quadrature import integrate_semi_infinite
    for x in (0.5, 1.0, 3.0):
        # capping t keeps cosh finite; the tail is exactly 0 in float64
        res = integrate_semi_infinite(
            lambda t: np.exp(-x * np.cosh(np.minimum(t, 30.0))))
        assert abs(res.value - bessel_k0(x)) < 1e-11


def test_k0_domain():
    with pytest.raises(DomainError):
        bessel_k0(0.0)
    with pytest.raises(DomainError):
        bessel_k0(-1.0)
    with pytest.raises(DomainError):
        bessel_k0(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        bessel_k0(np.nan)


def test_k0_shape_properties():
    # positive, strictly decreasing, convex on a sampled grid in (0, 50)
    x = np.linspace(0.01, 50.0, 5000)
    k = bessel_k0(x)
    assert np.all(k > 0.0)
    assert np.all(np.diff(k) < 0.0)
    assert np.all(np.diff(k, 2) > 0.0)


def test_k0_limiting_forms():
    # small-x logarithm and large-x asymptotic, loose tolerances by design
    x = 0.1
    approx = -np.log(x / 2.0) - 0.5772156649015329
    assert abs(bessel_k0(x) - approx) / approx < 0.02
    x = 50.0
    asym = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
    assert abs(bessel_k0(x) - asym) / asym < 0.01


def test_legendre_endpoints_exact():
    rows = legendre_p_row(50, [1.0, -1.0])
    for l in range(51):
        assert rows[l, 0] == 1.0 == _oracles.legendre_p(l, 1.0)
        assert rows[l, 1] == (-1.0) ** l == _oracles.legendre_p(l, -1.0)


def test_legendre_low_orders_explicit():
    assert legendre_p_row(1, 0.3).tolist() == [[1.0], [0.3]]
    x = 0.7
    p5 = (63.0 * x**5 - 70.0 * x**3 + 15.0 * x) / 8.0
    assert abs(legendre_p_row(5, x)[5, 0] - p5) < 1e-15


def test_legendre_against_scipy():
    rng = np.random.default_rng(42)
    xs = rng.uniform(-1.0, 1.0, size=40)
    rows = legendre_p_row(60, xs)
    for l in (0, 1, 2, 5, 17, 40, 60):
        ref = sp.eval_legendre(l, xs)
        assert np.max(np.abs(rows[l] - ref)) < 1e-12


def test_legendre_row_matches_single():
    # bit for bit against the recurrence run to each order on its own, on
    # arrays and at single points
    xs = np.linspace(-1.0, 1.0, 1001)
    rows = legendre_p_row(59, xs)
    assert rows.shape == (60, 1001)
    for l in range(60):
        ref = _oracles.legendre_p(l, xs)
        assert rows[l].tobytes() == ref.tobytes()
        assert legendre_p_row(l, float(xs[l]))[l, 0] == ref[l]
    assert legendre_p_row(3, 0.5).shape == (4, 1)


def test_spherical_bessel_against_scipy():
    for l in (0, 1, 2, 5, 12, 30, 60):
        for x in (0.3, 1.0, max(l / 2.0, 0.5), float(l + 1), float(l + 5),
                  200.0):
            jl, nl = spherical_bessel(l, x)
            jr = sp.spherical_jn(l, x)
            nr = sp.spherical_yn(l, x)
            assert abs(jl - jr) <= 1e-10 * max(abs(jr), 1e-280)
            assert abs(nl - nr) <= 1e-10 * abs(nr)


def test_spherical_bessel_wronskian():
    # j_l(x) n_{l-1}(x) - j_{l-1}(x) n_l(x) = 1/x^2, the cross-form identity
    # used to validate the recurrences.
    for l in range(1, 61):
        for x in (0.5, 2.0, float(l) + 0.5, 150.0):
            jl, nl = spherical_bessel(l, x)
            jm, nm = spherical_bessel(l - 1, x)
            w = jl * nm - jm * nl
            assert abs(w - 1.0 / x**2) < 1e-9 * max(1.0, 1.0 / x**2)


def test_spherical_bessel_derivative_wronskian():
    # j_l n_l' - j_l' n_l = 1/x^2 with f' = f_{l-1} - (l+1)/x f_l
    for l in range(1, 21):
        for x in (0.5, 3.0, 20.0, 100.0):
            jl, nl = spherical_bessel(l, x)
            jm, nm = spherical_bessel(l - 1, x)
            jp = jm - (l + 1) / x * jl
            np_ = nm - (l + 1) / x * nl
            w = jl * np_ - jp * nl
            assert abs(w * x * x - 1.0) < 1e-9


def test_spherical_bessel_domain():
    with pytest.raises(DomainError):
        spherical_bessel(2, 0.0)
    with pytest.raises(DomainError):
        spherical_bessel(-1, 1.0)
    with pytest.raises(DomainError):
        spherical_bessel_row(2, 0.0)
    with pytest.raises(DomainError):
        spherical_bessel_row(-1, 1.0)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 12.0, 37.3, 60.9, 202.57,
                               204.14])
@pytest.mark.parametrize("l_max", [0, 1, 60, 192])
def test_spherical_bessel_row_keeps_scalar_bits(x, l_max):
    # against recurrences run separately for each order: n_l for every l
    # and j_l as far as the upward recurrence serves it (l <= 1 or
    # x >= l + 1) keep their bits, on both sides of that edge; beyond it
    # the row's one Miller pass, seeded above l_max, agrees with a pass
    # seeded above each l at rounding level. The scalar function is the
    # row's last entry and keeps its bits for every l
    j, n = spherical_bessel_row(l_max, x)
    ref = [_oracles.spherical_bessel(l, x) for l in range(l_max + 1)]
    got = [spherical_bessel(l, x) for l in range(l_max + 1)]
    up = min(l_max + 1, max(2, int(x)))
    assert len(j) == len(n) == l_max + 1
    assert n.tobytes() == np.array([s[1] for s in ref]).tobytes()
    ref_j = np.array([s[0] for s in ref])
    assert j[:up].tobytes() == ref_j[:up].tobytes()
    assert np.all(np.abs(j[up:] - ref_j[up:]) <= 1e-14 * np.abs(ref_j[up:]))
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_j0_zeros_values():
    zs = j0_zeros(20)
    assert abs(zs[0] - J0_ZERO_1) < 1e-12
    ref = sp.jn_zeros(0, 20)
    assert np.max(np.abs(zs - ref)) < 1e-11
    assert np.max(np.abs(bessel_j0(zs))) < 1e-12
    gaps = np.diff(zs)
    assert np.all(gaps > 3.0) and np.all(gaps < 3.2)


def test_j0_zeros_are_prefixes_of_one_another():
    # each zero is bisected in its own bracket, whatever n is
    assert j0_zeros(0).shape == (0,)
    longest = j0_zeros(300)
    for m in (1, 7, 64, 299):
        assert j0_zeros(m).tobytes() == longest[:m].tobytes()


def test_j0_zeros_cache_threadsafe():
    def worker(n):
        return j0_zeros(n)[-1]

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as ex:
        out = list(ex.map(worker, [5, 50, 12, 50, 30, 50, 7, 50]))
    ref = sp.jn_zeros(0, 50)
    for n, v in zip([5, 50, 12, 50, 30, 50, 7, 50], out):
        assert abs(v - ref[n - 1]) < 1e-11
