"""Quadrature routines against closed-form integrals."""

import dataclasses
import math

import numpy as np
import pytest

import _oracles
from _oracles import ESTIMATOR_CORPUS
from scatterlab import quadrature
from scatterlab.eikonal import Kinematics, _phase_integrand, amplitude_eikonal
from scatterlab.errors import ConvergenceError, DomainError, ScatterError
from scatterlab.potentials import (Gauss, TabulatedRadial, Yukawa, evaluate,
                                   reach)
from scatterlab.quadrature import (DEFAULT_SETTINGS, QuadratureSettings,
                                   hankel0, integrate_adaptive,
                                   integrate_semi_infinite)


def test_settings_validation():
    with pytest.raises(DomainError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSettings(max_subdivisions=7)
    QuadratureSettings(max_subdivisions=8)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_settings_reject_non_finite(name, value):
    # a nan or inf tolerance once let integrate_adaptive stop after one
    # panel
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


def test_hankel_exponential_envelope():
    # int_0^inf e^{-a b} J0(q b) b db = a / (a^2 + q^2)^{3/2}; e^{-a 40}
    # is below rounding
    a = 1.3
    for q in (0.2, 1.0, 2.1, 6.0):
        res = hankel0(lambda b: np.exp(-a * b), q, 40.0)
        exact = a / (a * a + q * q) ** 1.5
        assert abs(res.value - exact) <= max(5e-13, 5.0 * res.error_estimate)


def test_hankel_gaussian_envelope():
    # int_0^inf e^{-alpha b^2} J0(q b) b db = e^{-q^2/(4 alpha)}/(2 alpha)
    alpha = 0.7
    for q in (0.0, 1e-15, 0.3, 3.0, 12.0):
        res = hankel0(lambda b: np.exp(-alpha * b * b), q, 10.0)
        exact = np.exp(-q * q / (4.0 * alpha)) / (2.0 * alpha)
        assert abs(res.value - exact) <= max(5e-13, 5.0 * res.error_estimate)


def test_hankel_tiny_q_matches_zero_q():
    f = lambda b: np.exp(-0.5 * b * b)
    r0 = hankel0(f, 0.0, 10.0)
    r1 = hankel0(f, 1e-16, 10.0)
    assert abs(r0.value - r1.value) < 1e-13


def test_hankel_negative_q():
    with pytest.raises(DomainError):
        hankel0(lambda b: np.exp(-b), -0.5, 40.0)


@pytest.mark.parametrize("upper", [0.0, -1.0, math.inf, math.nan])
def test_hankel_upper_limit_must_be_positive_and_finite(upper):
    with pytest.raises(DomainError, match="upper limit"):
        hankel0(lambda b: np.exp(-b), 0.5, upper)


def test_hankel_linearity():
    g1 = lambda b: np.exp(-0.9 * b)
    g2 = lambda b: np.exp(-0.5 * b * b)
    a, c = 2.5, -1.25
    q = 1.4
    lhs = hankel0(lambda b: a * g1(b) + c * g2(b), q, 50.0)
    r1 = hankel0(g1, q, 50.0)
    r2 = hankel0(g2, q, 50.0)
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
    res = hankel0(lambda x: np.exp(-alpha * x * x), q, 12.0)
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
    res = hankel0(g, q, 50.0)
    assert abs(res.value - oracle) < 1e-8


def test_hankel_integrates_pointwise_bounds_against_the_j0_envelope():
    # g returning (values, bounds): the bounds, integrated against
    # min(1, sqrt(2/(pi q b))) b on the transform's own panels, join the
    # error; at q = 0 the envelope is b, and a constant bound e adds
    # e upper^2 / 2
    import scipy.special as sp
    upper, e = 20.0, 1e-9
    q = np.array([0.0, 0.3, 2.0])
    f = lambda b: np.exp(-0.5 * b * b)
    plain = hankel0(f, q, upper)
    bounded = hankel0(lambda b: (f(b), np.full(b.shape, e)), q, upper)
    assert bounded.value.tobytes() == plain.value.tobytes()
    added = bounded.error_estimate - plain.error_estimate
    assert added[0] == pytest.approx(0.5 * e * upper**2, rel=1e-12)
    b = np.linspace(0.0, upper, 400_001)
    for qi, got in zip(q, added):
        envelope = np.minimum(1.0, np.sqrt(2.0 / (np.pi * np.maximum(
            qi * b, 1e-300)))) * b
        assert got == pytest.approx(e * np.trapezoid(envelope, b), rel=1e-3)
        assert got >= e * np.trapezoid(np.abs(sp.j0(qi * b)) * b, b)


def test_hankel_evaluates_g_once_per_node_for_every_q():
    # one partition for all q: g sees each node once, and an array call
    # evaluates far fewer nodes than the per-angle calls together
    seen = []

    def g(b):
        seen.append(b.copy())
        return np.exp(-0.3 * b)

    q = np.linspace(0.0, 3.0, 16)
    res = hankel0(g, q, 60.0)
    nodes = np.concatenate([x.ravel() for x in seen])
    assert nodes.size == res.evaluations
    assert np.unique(nodes).size == nodes.size
    singles = sum(hankel0(lambda b: np.exp(-0.3 * b), float(x),
                          60.0).evaluations for x in q)
    assert res.evaluations < singles / 4


def test_hankel_bounds_its_first_partition_before_evaluating_g():
    # one panel per J0 period at the largest q: 2^15 panels are allowed,
    # and one more fails before g sees a node
    limit = quadrature._HANKEL_PANELS
    nodes = []

    def g(b):
        nodes.append(b.size)
        return np.zeros(b.shape)

    res = hankel0(g, np.array([0.0, limit - 0.5]), 2.0 * np.pi)
    assert res.evaluations == sum(nodes) == 15 * limit

    def refused(b):
        raise AssertionError("g evaluated")

    with pytest.raises(ConvergenceError, match=f"{limit + 1} panels"):
        hankel0(refused, float(limit), 2.0 * np.pi)
    # numpy could not build the first partition of the Gauss; the Yukawa
    # would start from 300,063 panels, a cost that grows as 1/mu
    for p, kin, theta in [
            (Gauss(0.5, 1e300), Kinematics(mass=1e-300, k=1e300), 0.1),
            (Yukawa(0.5, 1e-4), Kinematics(mass=1.0, k=10.0),
             np.linspace(0.0, 0.5, 9))]:
        with pytest.raises(ConvergenceError, match="panels") as err:
            amplitude_eikonal(p, kin, theta)
        assert "q = " in str(err.value)


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


@pytest.mark.parametrize("f", [
    lambda x: np.exp(-x**2),
    lambda x: 1.0 / (1.0 + x**2),
    lambda x: np.exp(-x) * np.sin(5.0 * x),
    _z_integrand(Yukawa(0.5, 1.0), 0.3),
    _z_integrand(Gauss(-0.01, 2.0), 7.0),
], ids=["gauss", "lorentz", "damped_sin", "yukawa_z", "gauss_z"])
def test_semi_infinite_is_adaptive_on_the_mapped_integrand(f):
    def mapped(t):
        u = 1.0 - t
        return f(t / u) / (u * u)

    got = integrate_semi_infinite(f, Z_SETTINGS)
    want = integrate_adaptive(mapped, 0.0, 1.0, Z_SETTINGS)
    assert np.float64(got.value).tobytes() == \
        np.float64(want.value).tobytes()
    assert np.float64(got.error_estimate).tobytes() == \
        np.float64(want.error_estimate).tobytes()
    assert got.evaluations == want.evaluations


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / (1.0 + x),
    lambda x: np.ones_like(np.asarray(x, dtype=float)),
    lambda x: x / (1.0 + x**2),
], ids=["inverse", "flat", "x_lorentz"])
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
def test_semi_infinite_slow_tail_raises_convergence_error(f, rel_tol):
    # a 1/x tail bisects the panel at t = 1 until a node rounds to 1, also
    # where a loose tolerance would accept the panels' error estimates
    with pytest.raises(ConvergenceError, match="tail does not decay"):
        integrate_semi_infinite(f, QuadratureSettings(rel_tol=rel_tol))
    with pytest.raises(ConvergenceError, match="budget of 8 "):
        integrate_semi_infinite(f, QuadratureSettings(max_subdivisions=8))


# hankel0 over an array of q, on one partition of [0, R] shared by all
# of them: from q = 0 (J0 = 1) to q = 5.9, whose J0 winds through some
# 70 periods on [0, R] for the Yukawa
HANKEL_Q = np.array([0.0, 1e-15, 0.03, 0.4, 2.0, 5.9])


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
    # the array call shares one partition among its q, so a row agrees
    # with the call at that q alone within their reported errors, not bit
    # for bit; it evaluates fewer nodes than the calls together. The
    # table's quadrature phase carries its z-integrals' error estimates.
    g = _phase_integrand(p, Kinematics(1.0, k), phase, DEFAULT_SETTINGS)
    upper = reach(p)[0]
    scalars = [hankel0(g, float(x), upper) for x in q]
    rows = hankel0(g, q, upper)
    for s, value, err in zip(scalars, rows.value, rows.error_estimate):
        assert abs(value - s.value) <= err + s.error_estimate
    assert rows.evaluations < sum(s.evaluations for s in scalars)


def test_hankel_rows_raise_the_scalar_error_naming_q():
    # non-finite on (43, 47): at largest q = 1 the partition of [0, 60]
    # starts from 10 panels of one J0 period or less, and a scalar and an
    # array call alike raise a typed error naming the one that holds them
    def g(b):
        return np.where((b > 43.0) & (b < 47.0), np.nan, np.exp(-b))

    hankel0(g, 1.0, 40.0)
    for q in (1.0, np.array([1.0, 0.1])):
        with pytest.raises(DomainError) as exc:
            hankel0(g, q, 60.0)
        assert type(exc.value) is DomainError
        assert "non-finite values on [42.0, 48.0]" in str(exc.value)

    # the budget counts bisections of the shared partition: 8 cannot
    # resolve q = 40 on [0, 60], and the error names the worst q, with
    # the estimate so far
    slow = lambda b: np.exp(-0.1 * b)
    with pytest.raises(ConvergenceError) as exc:
        hankel0(slow, np.array([0.5, 40.0]), 60.0,
                QuadratureSettings(max_subdivisions=8))
    assert type(exc.value) is ConvergenceError
    assert "8 subdivisions exhausted at q = 40.0" in str(exc.value)
    assert exc.value.error_estimate > 0.0


def test_hankel_array_q_validation():
    g = lambda b: np.exp(-b)
    with pytest.raises(DomainError):
        hankel0(g, np.array([1.0, -0.5]), 40.0)
    with pytest.raises(DomainError):
        hankel0(g, np.array([1.0, np.nan]), 40.0)
    with pytest.raises(DomainError):
        hankel0(g, np.ones((2, 2)), 40.0)
    res = hankel0(g, np.array([0.5]), 40.0)
    assert res.value.shape == (1,) and res.error_estimate.shape == (1,)
    # no q: empty rows and no evaluation, where the panel blocks divided
    # by the count of q
    res = hankel0(g, np.zeros(0), 40.0)
    assert res.value.shape == res.error_estimate.shape == (0,)
    assert res.evaluations == 0


# hankel0 against its round-by-round loop (_oracles.hankel_rounds). The
# loop bisects the panel at b = 0 once a round; hankel0 makes the halvings
# predicted there in one round. The partitions differ, and the values
# agree within the two error estimates. FLAGSHIP_Q is the flagship
# workload's grid, 49 angles on [0, 0.6] at k = 10.
FLAGSHIP_Q = 20.0 * np.sin(0.5 * np.linspace(0.0, 0.6, 49))
YUKAWA_PHASE = _phase_integrand(Yukawa(0.5, 1.0), Kinematics(1.0, 10.0),
                                "closed", DEFAULT_SETTINGS)


def _counted(g):
    seen = []

    def f(b):
        seen.append(b.copy())
        return f.g(b)
    f.g, f.seen = g, seen
    return f


@pytest.mark.parametrize("p, k, phase, q", [
    (Yukawa(0.5, 1.0), 10.0, "closed", HANKEL_Q),
    (Yukawa(0.5, 1.0), 10.0, "closed", FLAGSHIP_Q),
    (Gauss(0.5, 0.7), 4.0, "closed", HANKEL_Q),
    (_table(), 3.0, "quadrature", HANKEL_Q[[0, 2, 4, 5]]),
], ids=["yukawa", "yukawa-flagship", "gauss", "table"])
def test_hankel_agrees_with_the_round_by_round_loop(monkeypatch, p, k, phase,
                                                    q):
    g = _phase_integrand(p, Kinematics(1.0, k), phase, DEFAULT_SETTINGS)
    upper = reach(p)[0]
    value, error, _, _ = _oracles.hankel_rounds(g, q, upper,
                                                DEFAULT_SETTINGS)
    rounds = []
    panels = quadrature._hankel_panels
    monkeypatch.setattr(quadrature, "_hankel_panels",
                        lambda *a: rounds.append(1) or panels(*a))
    counted = _counted(g)
    res = hankel0(counted, q, upper)
    assert np.all(np.abs(res.value - value) <= res.error_estimate + error)
    nodes = np.concatenate([b.ravel() for b in counted.seen])
    assert res.evaluations == nodes.size
    assert np.unique(nodes).size == nodes.size
    if q is FLAGSHIP_Q:
        # the round-by-round loop takes 15 rounds, 13 of them bisecting
        # the panel at b = 0 alone
        assert len(rounds) <= 3


def test_hankel_makes_the_predicted_halvings_at_a_tight_tolerance():
    # a strong Yukawa's phase at k = 1 goes as log b at b = 0; at rel_tol
    # 1e-13 the round-by-round loop bisects the panel there thousands of
    # times (7,035 final panels), over a budget of 1000, while the
    # predicted halvings converge well inside it
    g = _phase_integrand(Yukawa(-2.0, 0.5), Kinematics(1.0, 1.0), "closed",
                         DEFAULT_SETTINGS)
    upper = reach(Yukawa(-2.0, 0.5))[0]
    tight = QuadratureSettings(rel_tol=1e-13, abs_tol=1e-16,
                               max_subdivisions=1000)
    res = hankel0(g, FLAGSHIP_Q, upper, tight)
    value, _, _, _ = _oracles.hankel_rounds(
        g, FLAGSHIP_Q, upper, dataclasses.replace(tight,
                                                  max_subdivisions=100000))
    assert np.all(np.abs(res.value - value) <= res.error_estimate)


@pytest.mark.parametrize("q", [FLAGSHIP_Q, np.linspace(0.0, 5.9, 10)],
                         ids=["flagship", "linspace"])
def test_hankel_converges_on_a_table_s_exact_profile(q):
    # the suite's 300-sample table at k = 3: on the noise of an adaptive
    # z-integral (rel_tol 1e-10) hankel0 exhausted its budget at q = 4.218
    # and q = 3.933; on the exact transform it converges, every value
    # within its error estimate of a run at 10x tighter tolerances (at
    # 100x, q near 3.7-3.9 stall at rounding level in any budget)
    p = _table()
    g = _phase_integrand(p, Kinematics(1.0, 3.0), "quadrature",
                         DEFAULT_SETTINGS)
    res = hankel0(g, q, p.r[-1])
    tight = hankel0(g, q, p.r[-1], QuadratureSettings(
        rel_tol=1e-11, abs_tol=1e-13, max_subdivisions=2000))
    assert np.all(np.abs(res.value - tight.value) <= res.error_estimate)


def test_hankel_measures_the_ratio_afresh_after_predicted_halvings(
        monkeypatch):
    # predictions cut to two halvings: after a round that makes predicted
    # halvings, the panel at b = 0 is bisected plainly before the next
    # prediction, and the value still agrees with the round-by-round loop
    upper = reach(Yukawa(0.5, 1.0))[0]
    value, error, _, _ = _oracles.hankel_rounds(YUKAWA_PHASE, FLAGSHIP_Q,
                                                upper, DEFAULT_SETTINGS)
    rounds, made = [], []
    panels, halvings = quadrature._hankel_panels, quadrature._halvings

    def two(*args):
        made.append((len(rounds), min(halvings(*args), 2)))
        return made[-1][1]
    monkeypatch.setattr(quadrature, "_hankel_panels",
                        lambda *a: rounds.append(1) or panels(*a))
    monkeypatch.setattr(quadrature, "_halvings", two)
    res = hankel0(YUKAWA_PHASE, FLAGSHIP_Q, upper)
    assert sum(m > 0 for _, m in made) >= 2
    assert all(b - a >= 2 for (a, m), (b, _) in zip(made, made[1:]) if m)
    assert np.all(np.abs(res.value - value) <= res.error_estimate + error)


def test_hankel_halvings_take_libm_logs_and_stop_at_the_least_normal():
    # the count of halvings is the ceil of a ratio of libm logs, less
    # one, the most over the q; a q whose error does not fall, or is met
    # already, predicts none
    err = np.array([0.5, 2.0, 1e-3, 0.3])
    err0 = np.array([1.0, 1.0, 1.0, 0.3])
    share = np.full(4, 1e-3)
    assert quadrature._halvings(err, err0, share) == math.ceil(
        math.log(1e-3 / 0.5) / math.log(0.5)) - 1 == 8
    assert quadrature._halvings(err[1:], err0[1:], share[1:]) == 0
    # a share that underflows against the error predicts none either
    assert quadrature._halvings(err[:1], err0[:1], np.array([5e-324])) > 0
    assert quadrature._halvings(np.array([1e300]), np.array([2e300]),
                                np.array([5e-324])) == 0
    # halvings stop where a panel would be narrower than the least normal
    ends = quadrature._ladder(1.0, 5000)
    assert ends.size == 1023 and ends[-1] == np.finfo(float).tiny
    assert list(quadrature._ladder(0.75, 2)) == [0.75, 0.375, 0.1875]


@pytest.mark.parametrize("p, k, phase, q", [
    (Yukawa(0.5, 1.0), 10.0, "closed", FLAGSHIP_Q),
    (_table(), 3.0, "quadrature", HANKEL_Q[[0, 2, 4, 5]]),
], ids=["yukawa", "table"])
def test_hankel_panel_sums_are_the_panel_s_own(monkeypatch, p, k, phase, q):
    # each panel's sums run over its own 15 values in a fixed order: 11
    # panels at flagship's 49 angles give the bits of each prefix of them
    # and of each panel alone, and hankel0's bytes at q do not depend on
    # the blocks its g calls and J0 products go in
    g = _phase_integrand(p, Kinematics(1.0, k), phase, DEFAULT_SETTINGS)
    upper = reach(p)[0]
    edges = np.linspace(0.0, upper, 12)
    lo, hi, q3 = edges[:-1], edges[1:], FLAGSHIP_Q[:, None, None]
    whole = quadrature._hankel_panels(g, q3, lo, hi)
    for j in range(1, 11):
        part = quadrature._hankel_panels(g, q3, lo[:j], hi[:j])
        assert [x[:, :j].tobytes() for x in whole] == [
            x.tobytes() for x in part]
    for j in range(11):
        alone = quadrature._hankel_panels(g, q3, lo[j:j + 1], hi[j:j + 1])
        assert [x[:, j].tobytes() for x in whole] == [
            x.tobytes() for x in alone]
    got = set()
    for block in (1 << 9, 1 << 13, 1 << 16):
        monkeypatch.setattr(quadrature, "_KERNEL_BLOCK", block)
        res = hankel0(g, q, upper)
        got.add((res.value.tobytes(), res.error_estimate.tobytes()))
    assert len(got) == 1


def test_hankel_raises_the_round_by_round_loop_s_errors():
    # a budget the partition exhausts: the same type, message and
    # estimates as the loop that bisects one round at a time; and an
    # error g raises reaches the caller as it was raised
    upper = reach(Yukawa(0.5, 1.0))[0]
    raised = []
    for run in (_oracles.hankel_rounds, hankel0):
        with pytest.raises(ConvergenceError) as exc:
            run(YUKAWA_PHASE, FLAGSHIP_Q, upper,
                QuadratureSettings(max_subdivisions=12))
        raised.append((type(exc.value), str(exc.value), exc.value.estimate,
                       exc.value.error_estimate))
    assert raised[0] == raised[1]
    assert "12 subdivisions exhausted" in raised[0][1]

    def fails_below(b):
        if np.any(b < 1e-5):
            raise DomainError("b below 1e-5", key="b")
        return YUKAWA_PHASE(b)

    with pytest.raises(DomainError, match="b below 1e-5") as exc:
        hankel0(fails_below, FLAGSHIP_Q, upper)
    assert exc.value.key == "b"


# The worst-interval loop against the list-based bisection of
# _oracles._adaptive_rows on one row: same values, errors, evaluation
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


def _assert_loop_matches_oracle(make_f, a, b, settings):
    """The outcome of integrate_adaptive(make_f(), a, b, settings), checked
    equal to the oracle's on a fresh make_f()."""
    def oracle():
        f = make_f()
        val, err, neval = _oracles._adaptive_rows(
            lambda i, x: f(x.ravel()).reshape(x.shape), np.zeros(1, int),
            np.array([a]), np.array([b]), settings.abs_tol,
            settings.rel_tol, settings.max_subdivisions, _oracles._no_label)
        return quadrature.QuadratureResult(val[0], err[0], neval)

    new = _outcome(lambda: integrate_adaptive(make_f(), a, b, settings))
    assert new == _outcome(oracle)
    return new


def _wavy(c):
    return lambda x: np.exp(-c * x) * np.sin(30.0 * x / c) + np.abs(
        x - 0.3 * c)


def _wavy_complex(c):
    return lambda x: np.exp(20j * c * x) / (0.01 + x) + 1j * np.sqrt(
        np.abs(x - 0.5))


def _real_then_complex(c):
    calls = []

    def f(x):
        calls.append(1)
        return (_wavy if len(calls) == 1 else _wavy_complex)(c)(x)
    return f


@pytest.mark.parametrize("make_f, dtype", [
    (_wavy, float),
    (_wavy_complex, complex),
    (_real_then_complex, complex),
])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
def test_loop_matches_oracle_on_finite_intervals(make_f, dtype, rel_tol):
    # intervals of different lengths take different counts of rounds; a
    # real first panel stays real where it is the only one
    settings = QuadratureSettings(rel_tol=rel_tol, abs_tol=1e-300)
    for i, (a, b) in enumerate([(0.0, 1.0), (0.1, 3.5), (1.0, 1.7),
                                (2.0, 2.25), (0.7, 4.0)]):
        out = _assert_loop_matches_oracle(lambda: make_f(1.0 + i), a, b,
                                          settings)
        one_real = make_f is _real_then_complex and out[3] == 15
        assert out[0] == (float if one_real else dtype)


_PATTERN = np.cos(3.0 * np.arange(15.0))


def _tied(scale, power, unit=1.0):
    """Integrand equal on every panel of [0, 1] to a fixed pattern over its
    15 nodes times unit * scale * hw^power. hw, the panel's half-width, is
    the lowest set bit of its (dyadic) centre node. Panels of equal width
    have exactly equal errors."""
    def f(x):
        x = x.reshape(-1, 15)
        n = (x[:, 7] * 2.0**52).astype(np.int64)
        hw = (n & -n) / 2.0**52
        return (unit * _PATTERN * (scale * hw ** power)[:, None]).ravel()
    return f


@pytest.mark.parametrize("unit, rounds", [(1.0, 13 + 27 + 54 + 108),
                                          (1.0 - 2.0j, 281)])
def test_loop_breaks_equal_error_ties_like_the_oracle(unit, rounds):
    # error ~ hw^3 per panel: every round faces a tie between all panels of
    # the coarsest level, and the four scales finish in different rounds
    # (13, 27, 54 and 108 for the real unit)
    settings = QuadratureSettings(rel_tol=1e-15, abs_tol=1e-3)
    outs = [_assert_loop_matches_oracle(lambda: _tied(scale, 2.0, unit),
                                        0.0, 1.0, settings)
            for scale in (1.0, 4.0, 16.0, 64.0)]
    assert sum(out[3] for out in outs) == 15 * 4 + 30 * rounds


def test_loop_splits_the_first_of_two_tied_intervals():
    # [0, 1/2] and [1/2, 1] tie, and the loop stops once one of them is
    # split; their children differ, so the choice shows in the value
    tied = _tied(1.0, 2.0)

    def f(x):
        c = x.reshape(-1, 15)[:, 7:8]
        return (tied(x).reshape(-1, 15)
                * (1.0 + c * (c - 0.25) * (c - 0.75))).ravel()

    one_panel = QuadratureSettings(abs_tol=1.0)
    halves = [integrate_adaptive(f, lo, lo + 0.5, one_panel)
              for lo in (0.0, 0.5)]
    tied_err = halves[0].error_estimate
    assert halves[1].error_estimate == tied_err
    settings = QuadratureSettings(rel_tol=1e-15, abs_tol=1.6 * tied_err)
    out = _assert_loop_matches_oracle(lambda: f, 0.0, 1.0, settings)
    assert out[3] == 15 + 2 * 30


def test_loop_budget_exhaustion_raises_like_the_oracle():
    # an error that no bisection reduces exhausts the budget, and the
    # loop raises the oracle's message and estimates
    settings = QuadratureSettings(rel_tol=1e-15, abs_tol=1e-3,
                                  max_subdivisions=40)
    out = _assert_loop_matches_oracle(lambda: _tied(1.0, 0.0), 0.0, 1.0,
                                      settings)
    assert out[0] is ConvergenceError
    assert "40 subdivisions exhausted (error estimate " in out[1]


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

