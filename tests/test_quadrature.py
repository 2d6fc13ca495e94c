"""Quadrature routines against closed-form integrals."""

import dataclasses
import math

import numpy as np
import pytest

import _oracles
from _oracles import ESTIMATOR_CORPUS
from scatterlab import quadrature
from scatterlab.eikonal import Kinematics, chi, chi_closed
from scatterlab.errors import (ConvergenceError, DivergenceError, DomainError,
                               ScatterError)
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa, evaluate
from scatterlab.quadrature import (DEFAULT_SETTINGS, QuadratureSettings,
                                   hankel0, integrate_adaptive,
                                   integrate_semi_infinite)


def test_settings_validation():
    with pytest.raises(DomainError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSettings(max_subdivisions=7)
    with pytest.raises(DomainError):
        QuadratureSettings(tail_cut=-1.0)
    with pytest.raises(DomainError):
        QuadratureSettings(oscillatory_blocks=0)
    QuadratureSettings(max_subdivisions=8)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "tail_cut"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_settings_reject_non_finite(name, value):
    # a nan or inf tolerance once let integrate_adaptive stop after one
    # panel, and a nan tail_cut reached int() inside the Hankel transform
    with pytest.raises(DomainError) as err:
        QuadratureSettings(**{name: value})
    assert err.value.key == name
    assert str(err.value) == f"{name} must be finite, got {value!r}"


def test_single_panel_polynomial_exactness():
    # Kronrod 15 integrates degree <= 22 exactly; a degree-13 polynomial
    # must come back at roundoff from one panel.
    res = integrate_adaptive(lambda x: 7.0 * x**13 - 3.0 * x**6 + x, 0.0, 1.0)
    exact = 7.0 / 14.0 - 3.0 / 7.0 + 0.5
    assert res.evaluations == 15
    assert abs(res.value - exact) < 1e-14


def test_finite_closed_forms():
    cases = [
        (np.sin, 0.0, np.pi, 2.0),
        (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 10.0,
         (1.0 - np.exp(-10.0) * (np.cos(30.0) - 3.0 * np.sin(30.0))) / 10.0),
        (lambda x: 1.0 / (1.0 + x**2), -4.0, 4.0, 2.0 * np.arctan(4.0)),
    ]
    for f, a, b, exact in cases:
        res = integrate_adaptive(f, a, b)
        assert abs(res.value - exact) <= max(1e-12, 10.0 * res.error_estimate)


def test_zero_width_interval():
    res = integrate_adaptive(np.sin, 1.3, 1.3)
    assert res.value == 0.0 and res.evaluations == 0


def test_complex_integrand():
    res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, 2.0)
    exact = (np.exp(2j) - 1.0) / 1j
    assert abs(res.value - exact) < 1e-13
    assert isinstance(res.value, complex)


def test_endpoint_order_and_finiteness():
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 0.0, np.inf)
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: np.where(x < 0.5, np.nan, 1.0), 0.0, 1.0)


def test_budget_exhaustion_carries_estimate():
    settings = QuadratureSettings(max_subdivisions=8)
    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(lambda x: np.abs(x - 1.0 / 3.0) ** -0.4, 0.0, 1.0,
                           settings)
    err = exc.value
    assert err.estimate is not None
    assert err.error_estimate is not None and err.error_estimate > 0.0


def test_error_estimator_corpus():
    # The estimator must bound the true error on at least 19 of the 20
    # corpus integrals (QUADPACK-style estimators are heuristics, one miss
    # is tolerated).
    violations = []
    for name, f, a, b, exact in ESTIMATOR_CORPUS:
        if b is None:
            res = integrate_semi_infinite(f)
        else:
            res = integrate_adaptive(f, a, b)
        true_err = abs(res.value - exact)
        if true_err > max(res.error_estimate, 5e-15):
            violations.append((name, true_err, res.error_estimate))
    assert len(ESTIMATOR_CORPUS) == 20
    assert len(violations) <= 1, violations


def test_corpus_accuracy():
    for name, f, a, b, exact in ESTIMATOR_CORPUS:
        if b is None:
            res = integrate_semi_infinite(f)
        else:
            res = integrate_adaptive(f, a, b)
        scale = max(1.0, abs(exact))
        assert abs(res.value - exact) < 1e-9 * scale, name


def test_semi_infinite_closed_forms():
    res = integrate_semi_infinite(lambda x: np.exp(-x**2))
    assert abs(res.value - np.sqrt(np.pi) / 2.0) < 1e-12
    res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x**2))
    assert abs(res.value - np.pi / 2.0) < 1e-11


def test_full_line_k0_cross_check():
    # int_{-inf}^{inf} e^{-sqrt(1+z^2)}/sqrt(1+z^2) dz = 2 K0(1): the
    # integrand is even, so double the half-line result.
    from scatterlab.special_functions import bessel_k0

    def f(z):
        r = np.sqrt(1.0 + z * z)
        return np.exp(-r) / r

    res = integrate_semi_infinite(f)
    assert abs(2.0 * res.value - 2.0 * bessel_k0(1.0)) < 1e-11


def test_semi_infinite_divergence_flagged():
    for f in (lambda x: 1.0 / (1.0 + x),
              lambda x: np.ones_like(np.asarray(x, dtype=float)),
              lambda x: x / (1.0 + x**2)):
        with pytest.raises(DivergenceError):
            integrate_semi_infinite(f)


def test_hankel_exponential_envelope():
    # int_0^inf e^{-a b} J0(q b) b db = a / (a^2 + q^2)^{3/2}
    a = 1.3
    for q in (0.2, 1.0, 2.1, 6.0):
        res = hankel0(lambda b: np.exp(-a * b), q)
        exact = a / (a * a + q * q) ** 1.5
        assert abs(res.value - exact) <= max(5e-13, 5.0 * res.error_estimate)


def test_hankel_gaussian_envelope():
    # int_0^inf e^{-alpha b^2} J0(q b) b db = e^{-q^2/(4 alpha)}/(2 alpha)
    alpha = 0.7
    for q in (0.0, 1e-15, 0.3, 3.0, 12.0):
        res = hankel0(lambda b: np.exp(-alpha * b * b), q)
        exact = np.exp(-q * q / (4.0 * alpha)) / (2.0 * alpha)
        assert abs(res.value - exact) <= max(5e-13, 5.0 * res.error_estimate)


def test_hankel_tiny_q_matches_zero_q():
    f = lambda b: np.exp(-0.5 * b * b)
    r0 = hankel0(f, 0.0)
    r1 = hankel0(f, 1e-16)
    assert abs(r0.value - r1.value) < 1e-13


def test_hankel_block_count_independence():
    def g(b):
        return np.exp(-0.4 * b) * (1.0 + 0.2j)

    vals = []
    for m in (4, 6, 12):
        settings = QuadratureSettings(oscillatory_blocks=m)
        res = hankel0(g, 1.7, settings)
        vals.append(res.value)
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10 * abs(vals[0])


def test_hankel_negative_q():
    with pytest.raises(DomainError):
        hankel0(lambda b: np.exp(-b), -0.5)


def test_hankel_linearity():
    g1 = lambda b: np.exp(-0.9 * b)
    g2 = lambda b: np.exp(-0.5 * b * b)
    a, c = 2.5, -1.25
    q = 1.4
    lhs = hankel0(lambda b: a * g1(b) + c * g2(b), q)
    r1 = hankel0(g1, q)
    r2 = hankel0(g2, q)
    combined_err = (lhs.error_estimate + abs(a) * r1.error_estimate
                    + abs(c) * r2.error_estimate)
    assert abs(lhs.value - (a * r1.value + c * r2.value)) <= \
        max(combined_err, 1e-12)


def test_hankel_gaussian_against_trapezoid_oracle():
    # Brute-force fine-grid oracle for the Gaussian-Hankel pair at alpha=1,
    # q=2 (scipy j0 is the independent Bessel here).
    import scipy.special as sp
    q, alpha = 2.0, 1.0
    b = np.linspace(0.0, 12.0, 1_200_001)
    oracle = np.trapezoid(np.exp(-alpha * b * b) * sp.j0(q * b) * b, b)
    res = hankel0(lambda x: np.exp(-alpha * x * x), q)
    assert abs(res.value - oracle) < 1e-9
    assert abs(res.value - np.exp(-q * q / 4.0) / 2.0) < 1e-12


def test_hankel_phase_integrand_against_trapezoid_oracle():
    # Eikonal-style complex envelope exp(i chi)-1 with a K0 phase profile,
    # compared to a 10x-resolution trapezoid oracle.
    import scipy.special as sp

    def g(b):
        b = np.asarray(b, dtype=float)
        return np.exp(-0.8j * sp.k0(np.maximum(b, 1e-300))) - 1.0

    q = 1.0
    # the phase winds like log(b) near the origin, so the oracle grid is
    # geometric there and linear beyond
    b = np.concatenate([np.geomspace(1e-12, 0.1, 300_000, endpoint=False),
                        np.linspace(0.1, 50.0, 2_500_001)])
    oracle = np.trapezoid(g(b) * sp.j0(q * b) * b, b)
    res = hankel0(g, q)
    assert abs(res.value - oracle) < 1e-8


def test_hankel_nonconvergent_carries_partial_sums():
    with pytest.raises(ConvergenceError) as exc:
        hankel0(lambda b: np.ones_like(np.asarray(b, dtype=float)), 1.0)
    assert exc.value.partial_sums is not None
    assert len(exc.value.partial_sums) > 3


def test_hankel_slow_envelope_needs_longer_tail():
    # int_0^inf J0(q b) b / sqrt(1 + b^2) db = e^{-q}/q: the default tail
    # cut refuses (bound above tolerance); a longer tail converges.
    q = 0.8
    g = lambda b: 1.0 / np.sqrt(1.0 + b * b)
    with pytest.raises(ConvergenceError):
        hankel0(g, q)
    settings = QuadratureSettings(tail_cut=400.0)
    res = hankel0(g, q, settings)
    assert abs(res.value - np.exp(-q) / q) < 5e-11


def test_default_settings_frozen():
    assert DEFAULT_SETTINGS.rel_tol == 1e-10
    with pytest.raises(Exception):
        DEFAULT_SETTINGS.rel_tol = 1e-3


# The absolute floor pushed out of the way: each row holds its relative
# target however small its value.
Z_SETTINGS = dataclasses.replace(DEFAULT_SETTINGS, abs_tol=1e-300)


def _z_integrand(p, b):
    """V(sqrt(b^2 + z^2)) at one impact parameter b."""
    return lambda z: evaluate(p, np.sqrt(b * b + z * z))


def _z_integrand_rows(p, b):
    """The same integrand, row-batched over the array b."""
    bb = b * b
    return lambda i, z: evaluate(p, np.sqrt(bb[i, None] + z * z))


def _assert_rows_are_scalar_calls(rows, scalars):
    assert rows.value.tobytes() == \
        np.array([s.value for s in scalars]).tobytes()
    assert rows.error_estimate.tobytes() == \
        np.array([s.error_estimate for s in scalars], dtype=float).tobytes()
    assert rows.evaluations == sum(s.evaluations for s in scalars)


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Yukawa(-1.2, 0.4),
                               Gauss(0.8, 0.5), Gauss(-0.01, 2.0)])
def test_semi_infinite_rows_match_scalar_calls(p):
    b = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 0.3])
    scalars = [integrate_semi_infinite(_z_integrand(p, bi), Z_SETTINGS)
               for bi in b]
    rows = integrate_semi_infinite(_z_integrand_rows(p, b), Z_SETTINGS,
                                   rows=b.size)
    _assert_rows_are_scalar_calls(rows, scalars)


def test_finite_rows_match_scalar_calls():
    # per-row limits [0, sqrt(r_hi^2 - b^2)], zero width at and beyond the
    # end of the table, where the scalar call evaluates nothing
    r = np.linspace(0.0, 6.0, 400)
    v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
    v[-1] = 0.0
    p = TabulatedRadial(r, v)
    b = np.array([0.0, 0.7, 3.0, 5.99, 6.0, 8.0])
    z_hi = np.sqrt(np.maximum(36.0 - b * b, 0.0))
    scalars = [integrate_adaptive(_z_integrand(p, bi), 0.0, zi, Z_SETTINGS)
               for bi, zi in zip(b, z_hi)]
    rows = integrate_adaptive(_z_integrand_rows(p, b), 0.0, z_hi, Z_SETTINGS,
                              rows=b.size)
    _assert_rows_are_scalar_calls(rows, scalars)


def test_rows_beyond_the_table_evaluate_nothing():
    def never(i, x):
        raise AssertionError("zero-width rows must not be evaluated")

    res = integrate_adaptive(never, 0.0, np.zeros(3), rows=3)
    assert res.value.tolist() == [0.0, 0.0, 0.0]
    assert res.error_estimate.tolist() == [0.0, 0.0, 0.0]
    assert res.evaluations == 0


def test_rows_raise_the_scalar_error_types():
    def spiky(i, x):  # row 1 has an integrable spike the budget cannot fit
        return np.where(i[:, None] == 1, np.abs(x - 1.0 / 3.0) ** -0.4,
                        np.exp(-x))

    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(spiky, 0.0, 1.0,
                           QuadratureSettings(max_subdivisions=8), rows=3)
    assert type(exc.value) is ConvergenceError
    assert "row 1" in str(exc.value)
    assert exc.value.error_estimate > 0.0

    def flat(i, x):  # row 2 decays like 1/x
        return np.where(i[:, None] == 2, 1.0 / (1.0 + x), np.exp(-x))

    with pytest.raises(DivergenceError):
        integrate_semi_infinite(flat, rows=3)
    with pytest.raises(DomainError):
        integrate_adaptive(lambda i, x: x, 1.0, np.array([2.0, 0.5]), rows=2)


# hankel0 over an array of q: q = 0 and 1e-15 take the non-oscillatory
# route, 0.03 has its first J0 zero beyond tail_cut = 60, and at 5.9 the
# series runs well past oscillatory_blocks, so Euler acceleration engages.
HANKEL_Q = np.array([0.0, 1e-15, 0.03, 0.4, 2.0, 5.9])


def _eikonal_profile(p, kin, phase):
    phase_fn = chi_closed if phase == "closed" else chi
    return lambda b: np.exp(1j * phase_fn(p, kin, b)) - 1.0


def _table(r_hi=8.0, n=300):
    r = np.linspace(0.0, r_hi, n)
    v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
    v[-1] = 0.0
    return TabulatedRadial(r, v)


@pytest.mark.parametrize("p, k, phase, q", [
    (Yukawa(0.5, 1.0), 10.0, "closed", HANKEL_Q),
    (Gauss(0.5, 0.7), 4.0, "closed", HANKEL_Q),
    (_table(), 3.0, "quadrature", HANKEL_Q[[0, 2, 4, 5]]),
])
def test_hankel_rows_match_scalar_calls(p, k, phase, q):
    g = _eikonal_profile(p, Kinematics(1.0, k), phase)
    scalars = [hankel0(g, float(x)) for x in q]
    rows = hankel0(g, q)
    _assert_rows_are_scalar_calls(rows, scalars)


def test_hankel_euler_acceleration_engages_at_large_q():
    # with the Euler stage pushed out of reach the q = 5.9 bits change, so
    # that row of the test above does exercise it, and the q = 0.4 row not
    g = _eikonal_profile(Yukawa(0.5, 1.0), Kinematics(1.0, 10.0), "closed")
    direct = QuadratureSettings(oscillatory_blocks=10_000)
    assert hankel0(g, 5.9).value != hankel0(g, 5.9, direct).value
    assert hankel0(g, 0.4).value == hankel0(g, 0.4, direct).value


def test_hankel_rows_raise_the_scalar_error_naming_q():
    # non-finite beyond b = 40: q = 1 stops before it, while q = 0.1
    # (oscillatory, blocks ~31 wide) and q = 0 (semi-infinite) reach it
    def g(b):
        return np.where(b < 40.0, np.exp(-b), np.nan)

    hankel0(g, 1.0)
    for bad in (0.1, 0.0):
        with pytest.raises(DomainError):
            hankel0(g, bad)
        with pytest.raises(DomainError) as exc:
            hankel0(g, np.array([1.0, bad]))
        assert f"q = {bad!r}" in str(exc.value)

    # the tail check of one row: a slow envelope refuses at q = 0.8 first
    slow = lambda b: 1.0 / np.sqrt(1.0 + b * b)
    with pytest.raises(ConvergenceError) as exc:
        hankel0(slow, np.array([3.0, 0.8]))
    assert type(exc.value) is ConvergenceError
    assert "q = 0.8" in str(exc.value)
    assert exc.value.partial_sums is not None


def test_hankel_array_q_validation():
    g = lambda b: np.exp(-b)
    with pytest.raises(DomainError):
        hankel0(g, np.array([1.0, -0.5]))
    with pytest.raises(DomainError):
        hankel0(g, np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        hankel0(g, np.ones((2, 2)))
    res = hankel0(g, np.array([0.5]))
    assert res.value.shape == (1,) and res.error_estimate.shape == (1,)


# The (row, slot) array kernel against the list-based bisection it
# replaced (_oracles._adaptive_rows): same values, errors, evaluation
# counts and errors raised, bit for bit.

def _outcome(call):
    try:
        res = call()
    except ScatterError as exc:
        return (type(exc), str(exc), np.asarray(exc.estimate).tobytes(),
                np.asarray(exc.error_estimate).tobytes())
    value = np.asarray(res.value)
    return (value.dtype, value.tobytes(),
            np.asarray(res.error_estimate, dtype=float).tobytes(),
            res.evaluations)


def _assert_kernel_matches_oracle(monkeypatch, call):
    new = _outcome(call)
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_adaptive_rows", _oracles._adaptive_rows)
        old = _outcome(call)
    assert new == old
    return new


def _wavy(i, x):
    c = 1.0 + (i % 5)[:, None]
    return np.exp(-c * x) * np.sin(30.0 * x / c) + np.abs(x - 0.3 * c)


def _wavy_complex(i, x):
    c = 1.0 + (i % 5)[:, None]
    return np.exp(20j * c * x) / (0.01 + x) + 1j * np.sqrt(np.abs(x - 0.5))


def _real_then_complex():
    calls = []

    def f(i, x):
        calls.append(1)
        return _wavy(i, x) if len(calls) == 1 else _wavy_complex(i, x)
    return f


@pytest.mark.parametrize("make_f, dtype", [
    (lambda: _wavy, float),
    (lambda: _wavy_complex, complex),
    (_real_then_complex, complex),
])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_kernel_finite_rows_match_oracle(monkeypatch, make_f, dtype,
                                         rel_tol):
    # rows of different lengths finish in different rounds; rows 1 and 4
    # have zero width
    a = np.array([0.0, 0.3, 0.1, 1.0, 2.0, 2.0, 0.7])
    b = np.array([1.0, 0.3, 3.5, 1.7, 2.0, 2.25, 4.0])
    settings = QuadratureSettings(rel_tol=rel_tol, abs_tol=1e-300)
    out = _assert_kernel_matches_oracle(
        monkeypatch,
        lambda: integrate_adaptive(make_f(), a, b, settings, rows=7))
    assert out[0] == dtype


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(-0.01, 2.0)])
def test_kernel_semi_infinite_rows_match_oracle(monkeypatch, p):
    b = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 0.3])
    f = _z_integrand_rows(p, b)
    _assert_kernel_matches_oracle(
        monkeypatch, lambda: integrate_semi_infinite(f, Z_SETTINGS,
                                                     rows=b.size))


def test_kernel_hankel_rows_match_oracle(monkeypatch):
    g = _eikonal_profile(Yukawa(0.5, 1.0), Kinematics(1.0, 10.0), "closed")
    _assert_kernel_matches_oracle(monkeypatch, lambda: hankel0(g, HANKEL_Q))


_PATTERN = np.cos(3.0 * np.arange(15.0))


def _tied(scale, power, unit=1.0):
    """Row-batched integrand equal on every panel of [0, 1] to a fixed
    pattern over its 15 nodes times unit * scale[row] * hw^power[row].
    hw, the panel's half-width, is the lowest set bit of its (dyadic)
    centre node. Panels of equal width have exactly equal errors."""
    def f(i, x):
        n = (x[:, 7] * 2.0**52).astype(np.int64)
        hw = (n & -n) / 2.0**52
        return unit * _PATTERN * (scale[i] * hw ** power[i])[:, None]
    return f


@pytest.mark.parametrize("unit, rounds", [(1.0, 13 + 27 + 54 + 108),
                                          (1.0 - 2.0j, 281)])
def test_kernel_breaks_equal_error_ties_like_the_oracle(monkeypatch, unit,
                                                       rounds):
    # error ~ hw^3 per panel: every round faces a tie between all panels of
    # the coarsest level, and the four rows finish in different rounds (13,
    # 27, 54 and 108 for the real unit)
    scale = np.array([1.0, 4.0, 16.0, 64.0])
    settings = QuadratureSettings(rel_tol=1e-15, abs_tol=1e-3)
    f = _tied(scale, np.full(4, 2.0), unit)
    out = _assert_kernel_matches_oracle(
        monkeypatch, lambda: integrate_adaptive(f, 0.0, 1.0, settings,
                                                rows=4))
    assert out[3] == 15 * 4 + 30 * rounds


def test_kernel_splits_the_first_of_two_tied_intervals(monkeypatch):
    # [0, 1/2] and [1/2, 1] tie, and the row stops once one of them is
    # split; their children differ, so the choice shows in the value
    tied = _tied(np.ones(1), np.full(1, 2.0))

    def f(i, x):
        c = x[:, 7:8]
        return tied(i, x) * (1.0 + c * (c - 0.25) * (c - 0.75))

    one_panel = QuadratureSettings(abs_tol=1.0)
    halves = [integrate_adaptive(f, lo, lo + 0.5, one_panel, rows=1)
              for lo in (0.0, 0.5)]
    tied_err = halves[0].error_estimate[0]
    assert halves[1].error_estimate[0] == tied_err
    settings = QuadratureSettings(rel_tol=1e-15, abs_tol=1.6 * tied_err)
    out = _assert_kernel_matches_oracle(
        monkeypatch, lambda: integrate_adaptive(f, 0.0, 1.0, settings,
                                                rows=1))
    assert out[3] == 15 + 2 * 30


def test_kernel_budget_exhaustion_names_the_first_live_row(monkeypatch):
    # rows 1 and 3 have an error that no bisection reduces; row 0 finishes
    f = _tied(np.ones(4), np.array([2.0, 0.0, 2.0, 0.0]))
    settings = QuadratureSettings(rel_tol=1e-15, abs_tol=1e-3,
                                  max_subdivisions=40)
    out = _assert_kernel_matches_oracle(
        monkeypatch, lambda: integrate_adaptive(f, 0.0, 1.0, settings,
                                                rows=4))
    assert out[0] is ConvergenceError
    assert "exhausted in row 1 " in out[1]


def test_vectorised_error_rule_matches_the_scalar_one():
    rng = np.random.default_rng(7)
    n = 100_000
    resk = rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 6, n)
    resg = resk * (1.0 + rng.standard_normal(n)
                   * 10.0 ** rng.uniform(-17, 0.5, n))
    resasc = np.abs(resk) * 10.0 ** rng.uniform(-4, 1, n)
    resabs = np.abs(resk) * 10.0 ** rng.uniform(0, 2, n)
    resasc[::97] = 0.0
    resg[::89] = resk[::89]
    resabs[::83] = 0.0
    for unit in (1.0, np.exp(0.3j)):
        k, g = unit * resk, unit * resg
        old = np.array(list(map(_oracles._qk_error, k, g, resabs, resasc)))
        new = quadrature._qk_errors(k, g, resabs, resasc)
        assert new.tobytes() == old.tobytes()

