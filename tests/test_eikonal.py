"""Tests for the eikonal phase and amplitude pipeline."""

import math

import numpy as np
import pytest
import scipy.special as sps

import _oracles
from scatterlab import eikonal
from scatterlab.born import born1_amplitude, born_resummed_amplitude
from scatterlab.eikonal import (Amplitude, Kinematics, amplitude_eikonal,
                                amplitude_paper_closed, chi, chi_closed,
                                momentum_transfer)
from scatterlab.errors import (DomainError, PoleError, SingularityError,
                               UnsupportedModelError)
from scatterlab.partial_wave import amplitude_partial_wave, phase_shifts
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa
from scatterlab.quadrature import QuadratureSettings

KIN1 = Kinematics(mass=1.0, k=1.0)
KIN10 = Kinematics(mass=1.0, k=10.0)


class TestKinematics:
    def test_derived_quantities(self):
        kin = Kinematics(mass=2.0, k=3.0)
        assert kin.v == 3.0 / 2.0
        assert kin.born_scale == 2.0 / (2.0 * np.pi)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            Kinematics(mass=0.0, k=1.0)
        with pytest.raises(DomainError):
            Kinematics(mass=1.0, k=-2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            Kinematics(mass=np.inf, k=1.0)
        with pytest.raises(DomainError):
            Kinematics(mass=1.0, k=np.nan)


class TestMomentumTransfer:
    def test_exact_form(self):
        assert momentum_transfer(10.0, 0.3) == pytest.approx(
            2 * 10.0 * math.sin(0.15), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            momentum_transfer(10.0, -0.1)
        with pytest.raises(DomainError):
            momentum_transfer(10.0, np.pi + 0.1)
        # NaN fails both comparisons, so it must be refused, not passed on
        for k, theta in ((10.0, np.nan), (10.0, [0.1, np.nan]),
                         (np.nan, 0.1)):
            with pytest.raises(DomainError):
                momentum_transfer(k, theta)

    def test_refuses_a_bad_k(self):
        for k in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError) as exc:
                momentum_transfer(k, [0.1])
            assert exc.value.key == "k"

    def test_array(self):
        th = np.array([0.0, 0.1, np.pi])
        q = momentum_transfer(2.0, th)
        assert np.allclose(q, 4.0 * np.sin(th / 2), rtol=1e-15)


def _routes():
    """Each amplitude route of a Yukawa potential at k = 1, as theta -> f."""
    p = Yukawa(0.5, 1.0)
    ps = phase_shifts(p, KIN1)
    return {
        "eikonal": lambda t: amplitude_eikonal(p, KIN1, t),
        "born1": lambda t: born1_amplitude(p, KIN1, t),
        "born_resummed": lambda t: born_resummed_amplitude(p, KIN1, t),
        "paper_closed": lambda t: amplitude_paper_closed(p, KIN1, t),
        "partial_wave": lambda t: amplitude_partial_wave(ps, t),
    }


def test_every_route_keys_its_theta_errors_to_theta():
    # amplitude_eikonal at pi and born1 on a 2-d theta raised with no key;
    # each route keeps its domain: born1 and partial_wave take theta = pi
    for name, route in _routes().items():
        refused = [[[0.1]], np.zeros((2, 2)), math.nan, [0.1, math.nan],
                   -0.1, 4.0]
        if name in ("born1", "partial_wave"):
            assert np.all(np.isfinite(route([0.1, np.pi]).value))
        else:
            refused += [np.pi, [0.1, np.pi]]
        for theta in refused:
            with pytest.raises(DomainError) as exc:
                route(theta)
            assert exc.value.key == "theta", (name, theta)


def test_every_route_refuses_a_theta_numpy_cannot_convert():
    # momentum_transfer, which every route calls first, passed these to
    # numpy, whose ValueError or TypeError reached the caller
    for name, route in _routes().items():
        for theta in ("a", ["0.1", "x"], 1j, [0.1, 1j]):
            with pytest.raises(DomainError) as exc:
                route(theta)
            assert exc.value.key == "theta", (name, theta)


class TestChi:
    def test_yukawa_closed_form_value(self):
        # chi(b) = -(2 g / v) K0(mu b); at g=mu=b=1, v = 1
        got = chi_closed(Yukawa(1.0, 1.0), KIN1, 1.0)
        assert got == pytest.approx(-2.0 * sps.k0(1.0), rel=1e-14)

    def test_gauss_closed_form_value(self):
        # chi(0) = -(g / v) sqrt(pi / alpha)
        got = chi_closed(Gauss(1.0, 1.0), KIN1, 0.0)
        assert got == pytest.approx(-math.sqrt(math.pi), rel=1e-15)

    def test_quadrature_matches_closed(self):
        # the two routes must agree to 1e-8 relative; they do far better
        for p in (Yukawa(0.5, 1.0), Gauss(0.8, 0.5)):
            for b in (0.1, 0.5, 1.0, 2.0, 5.0):
                ref = chi_closed(p, KIN10, b)
                got = chi(p, KIN10, b)
                assert got == pytest.approx(ref, rel=1e-8)

    def test_yukawa_origin_diverges(self):
        with pytest.raises(SingularityError):
            chi(Yukawa(1.0, 1.0), KIN1, 0.0)
        with pytest.raises(SingularityError):
            chi(Yukawa(1.0, 1.0), KIN1, np.array([1.0, 0.0, 2.0]))
        with pytest.raises(SingularityError):
            chi_closed(Yukawa(1.0, 1.0), KIN1, 0.0)

    def test_negative_b_rejected(self):
        with pytest.raises(DomainError):
            chi(Gauss(1.0, 1.0), KIN1, -0.5)

    @pytest.mark.parametrize("b", [-0.5, math.nan, math.inf,
                                   [1.0, math.nan]])
    def test_both_routes_refuse_a_b_not_finite_and_non_negative(self, b):
        # the closed Gauss phase returned nan at b = nan, and the
        # quadrature Yukawa phase raised a raw ValueError
        for p in (Yukawa(1.0, 1.0), Gauss(1.0, 1.0)):
            for route in (chi, chi_closed):
                with pytest.raises(DomainError) as exc:
                    route(p, KIN1, b)
                assert exc.value.key == "b"

    def test_array_matches_scalars(self):
        p = Gauss(1.0, 1.0)
        b = np.array([0.0, 0.5, 1.5])
        arr = chi(p, KIN1, b)
        assert isinstance(arr, np.ndarray)
        for bi, ci in zip(b, arr):
            assert ci == chi(p, KIN1, float(bi))

    def test_an_unknown_model_is_refused_before_any_work(self, monkeypatch):
        # it fell through to the Gauss rule's raw AttributeError on alpha
        def refused(*args):
            raise AssertionError("z-profile integrated")

        for name in ("abel_profile", "_yukawa_rule", "_gauss_rule",
                     "_trapezoid_rows"):
            monkeypatch.setattr(eikonal, name, refused)
        for b in (1.0, np.array([0.5, 2.0]), np.array([])):
            with pytest.raises(UnsupportedModelError,
                               match="unknown potential model 'object'"):
                chi(object(), KIN1, b)

    def test_tabulated_has_no_closed_form(self):
        r = np.linspace(0.0, 10.0, 200)
        v = np.exp(-r * r)
        v[-1] = 0.0
        with pytest.raises(UnsupportedModelError):
            chi_closed(TabulatedRadial(r, v), KIN1, 1.0)

    def test_tabulated_phase_is_plus_zero_beyond_the_table(self):
        r = np.linspace(0.0, 4.0, 200)
        v = np.exp(-r * r)
        v[-1] = 0.0
        p = TabulatedRadial(r, v)
        out = chi(p, KIN1, np.array([1.0, 4.0, 6.0]))
        assert out[0] < 0.0
        assert out[1:].tolist() == [0.0, 0.0]
        assert not np.signbit(out[1:]).any()
        assert math.copysign(1.0, chi(p, KIN1, 6.0)) == 1.0

    def test_coupling_scales_linearly(self):
        c1 = chi_closed(Yukawa(0.25, 1.0), KIN1, 0.7)
        c2 = chi_closed(Yukawa(0.75, 1.0), KIN1, 0.7)
        assert c2 == pytest.approx(3.0 * c1, rel=1e-14)


class TestAmplitudeEikonal:
    def test_forward_amplitude_against_trapezoid(self):
        # independent oracle: f(0) = -i k int_0^inf (e^{i chi} - 1) b db
        # with chi from scipy's K0, on a dense composite trapezoid grid
        p = Yukawa(0.5, 1.0)
        kin = KIN10
        b = np.concatenate([np.geomspace(1e-12, 0.1, 40000),
                            np.linspace(0.1, 80.0, 400000)])
        chi_b = -(2 * p.g / kin.v) * sps.k0(p.mu * b)
        integrand = (np.exp(1j * chi_b) - 1.0) * b
        ref = -1j * kin.k * np.trapezoid(integrand, b)
        got = amplitude_eikonal(p, kin, 0.0)
        assert abs(got.value - ref) / abs(ref) < 1e-8

    def test_finite_angle_against_trapezoid(self):
        p = Gauss(1.0, 1.0)
        kin = KIN10
        theta = 0.1
        q = 2 * kin.k * math.sin(theta / 2)
        b = np.linspace(0.0, 30.0, 1200001)
        chi_b = -(p.g / kin.v) * math.sqrt(
            math.pi / p.alpha) * np.exp(-p.alpha * b * b)
        integrand = sps.j0(q * b) * (np.exp(1j * chi_b) - 1.0) * b
        ref = -1j * kin.k * np.trapezoid(integrand, b)
        got = amplitude_eikonal(p, kin, theta)
        assert abs(got.value - ref) / abs(ref) < 1e-8

    def test_closed_phase_agrees_with_born_resummed(self):
        # born_resummed transforms the z-profile's w Lambda(chi), which is
        # i v (e^{i chi} - 1) of the quadrature phase
        p = Gauss(0.8, 0.5)
        a1 = amplitude_eikonal(p, KIN10, 0.05)
        a2 = born_resummed_amplitude(p, KIN10, 0.05)
        assert abs(a1.value - a2.value) / abs(a1.value) < 1e-9

    def test_tabulated_matches_parent_model(self):
        g, alpha = 0.8, 0.5
        r = np.linspace(0.0, 14.0, 3000)
        v = g * np.exp(-alpha * r * r)
        v[-1] = 0.0
        p = TabulatedRadial(r, v)
        ref = amplitude_eikonal(Gauss(g, alpha), KIN10, 0.05)
        got = amplitude_eikonal(p, KIN10, 0.05)
        assert abs(got.value - ref.value) / abs(ref.value) < 1e-6

    def test_zero_potential_gives_zero(self):
        got = amplitude_eikonal(Gauss(0.0, 1.0), KIN10, 0.1)
        assert got.value == 0.0

    def test_forward_imaginary_part_nonnegative(self):
        # shadow scattering: Im f(0) >= 0 for any real phase
        for p in (Yukawa(0.5, 1.0), Gauss(1.0, 1.0), Yukawa(-0.5, 1.0)):
            got = amplitude_eikonal(p, KIN10, 0.0)
            assert got.value.imag >= 0.0

    def test_scaling_invariance(self):
        # chi depends on g m/k: (g, m) -> (g/c, c m) at fixed k
        # leaves the amplitude unchanged
        c = 3.0
        a1 = amplitude_eikonal(Yukawa(0.5, 1.0),
                               Kinematics(mass=1.0, k=10.0), 0.1)
        a2 = amplitude_eikonal(Yukawa(0.5 / c, 1.0),
                               Kinematics(mass=c, k=10.0), 0.1)
        assert abs(a1.value - a2.value) / abs(a1.value) < 1e-10

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            amplitude_eikonal(Gauss(1.0, 1.0), KIN1, np.pi)
        with pytest.raises(DomainError):
            amplitude_eikonal(Gauss(1.0, 1.0), KIN1, -0.01)

    def test_tail_cut_ignores_block_quadrature_error(self):
        # a case the former J0-zero block series refused (its tail check
        # read the blocks' summed quadrature error, 9.17e-12, not the
        # ~3.6e-22 tail beyond its cut): the error covers a tight run
        p = Yukawa(0.5, 1.040)
        got = amplitude_eikonal(p, KIN10, 0.0125)
        tight = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-14,
                                   max_subdivisions=2000)
        ref = amplitude_eikonal(p, KIN10, 0.0125, tight)
        assert abs(got.value - ref.value) <= got.error_estimate < 1e-9

    @pytest.mark.parametrize("k, theta", [
        (1.0, 0.05), (5.0, 0.01), (10.0, 0.01),
        # the default tolerance lies below the rounding level of
        # int |(e^{i chi} - 1) J0 b| here: the transform must stop at that
        # floor, not exhaust its budget
        (10.0, 0.05), (10.0, 0.1), (10.0, 0.2), (5.0, 0.3),
    ])
    def test_long_range_gauss_matches_the_exact_series(self, k, theta):
        # Gauss(0.5, 1e-3), range ~32: chi = chi0 e^{-alpha b^2}, so
        # e^{i chi} - 1 = sum_n (i chi0)^n/n! e^{-n alpha b^2} and
        # f = -i k sum_n (i chi0)^n/n! e^{-q^2/(4 n alpha)}/(2 n alpha),
        # summed in 60-digit arithmetic: in double precision it cancels
        # (|chi0| = 28 at k = 1)
        import mpmath as mp
        p, kin = Gauss(0.5, 1e-3), Kinematics(mass=1.0, k=k)
        with mp.workdps(60):
            alpha = mp.mpf(p.alpha)
            q = mp.mpf(float(momentum_transfer(k, theta)))
            chi0 = -(mp.mpf(p.g) / kin.v) * mp.sqrt(mp.pi
                                                                 / alpha)
            term, total = mp.mpc(1), mp.mpc(0)
            for n in range(1, 400):
                term *= 1j * chi0 / n
                total += term * mp.exp(-q * q / (4 * n * alpha)) \
                    / (2 * n * alpha)
            exact = complex(-1j * k * total)
        for route in (amplitude_eikonal, born_resummed_amplitude):
            got = route(p, kin, theta)
            assert abs(got.value - exact) <= got.error_estimate

    @pytest.mark.parametrize("g", [1e-2, 1e-4, 1e-6])
    def test_weak_gauss_forward_imaginary_part_keeps_its_digits(self, g):
        # Im f(0) = k int (1 - cos chi) b db = (k/(2 alpha)) Cin(c), c =
        # (g/v) sqrt(pi/alpha), Cin(c) = sum_n (-1)^(n+1) c^(2n) /
        # (2n (2n)!), is of order chi^2: cos chi - 1 cancels it away
        # unless e^{i chi} - 1 is formed as -2 sin^2(chi/2) + i sin chi
        import mpmath as mp
        p, kin = Gauss(g, 1.0), Kinematics(mass=1.0, k=2.0)
        with mp.workdps(30):
            c = mp.mpf(g) / kin.v * mp.sqrt(mp.pi / p.alpha)
            cin = mp.nsum(lambda n: (-1) ** (n + 1) * c ** (2 * n)
                          / (2 * n * mp.factorial(2 * n)), [1, mp.inf])
            exact = float(kin.k / (2 * p.alpha) * cin)
        for route in (amplitude_eikonal, born_resummed_amplitude):
            got = route(p, kin, 0.0)
            assert abs(got.value.imag - exact) <= 1e-14 * exact

    def test_large_momentum_transfer_fits_the_default_budget(self):
        # q up to 41 winds J0 through some 250 periods on [0, R]: the
        # shared partition starts from panels one period wide, so the 200
        # bisections of the budget go where g needs them
        kin = Kinematics(mass=1.0, k=30.0)
        theta = np.linspace(0.0, 1.5, 49)
        got = amplitude_eikonal(Yukawa(0.5, 1.0), kin, theta)
        tight = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-14,
                                   max_subdivisions=2000)
        rows = slice(None, None, 6)
        for t, value, err in zip(theta[rows], got.value[rows],
                                 got.error_estimate[rows]):
            ref = amplitude_eikonal(Yukawa(0.5, 1.0), kin, float(t), tight)
            assert abs(value - ref.value) <= err

    def test_error_estimate_reported(self):
        got = amplitude_eikonal(Yukawa(0.5, 1.0), KIN10, 0.1)
        assert got.error_estimate > 0.0
        assert got.error_estimate < 1e-8

    @pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.8, 0.5)])
    def test_theta_array_equals_per_angle_calls(self, p):
        # all angles share one Hankel partition, so a row agrees with the
        # call at that angle alone within their errors, not bit for bit
        theta = np.array([0.0, 0.01, 0.05, 0.2, 0.6])
        got = amplitude_eikonal(p, KIN10, theta)
        each = [amplitude_eikonal(p, KIN10, float(t)) for t in theta]
        assert got.theta.tolist() == theta.tolist()
        assert got.q.tolist() == [a.q for a in each]
        for value, err, a in zip(got.value, got.error_estimate, each):
            assert abs(value - a.value) <= err + a.error_estimate
        none = amplitude_eikonal(p, KIN10, np.zeros(0))
        assert none.value.shape == none.error_estimate.shape == (0,)
        assert none.q.shape == none.theta.shape == (0,)

    def test_theta_array_domain(self):
        with pytest.raises(DomainError):
            amplitude_eikonal(Gauss(1.0, 1.0), KIN1, np.array([0.1, np.pi]))
        with pytest.raises(DomainError):
            amplitude_eikonal(Gauss(1.0, 1.0), KIN1, np.zeros((2, 2)))


GRID = [(p, k) for p in (Yukawa(0.5, 1.0), Yukawa(-2.0, 0.5),
                         Gauss(0.5, 1.0), Gauss(-3.0, 2.0))
        for k in (1.0, 5.0, 10.0, 30.0)]
GRID_THETA = np.array([0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 1.0])
TIGHT = QuadratureSettings(rel_tol=1e-13, abs_tol=1e-16,
                           max_subdivisions=2000)
EPS = np.finfo(float).eps


def _gauss_series(p, kin, theta):
    """The closed-phase Gauss amplitude as the series of
    test_long_range_gauss_matches_the_exact_series, in 40-digit
    arithmetic, at each theta of a 1-d array."""
    import mpmath as mp
    out = []
    with mp.workdps(40):
        alpha = mp.mpf(p.alpha)
        chi0 = -(mp.mpf(p.g) / kin.v) * mp.sqrt(mp.pi / alpha)
        for q in momentum_transfer(kin.k, theta).tolist():
            q = mp.mpf(q)
            term, total = mp.mpc(1), mp.mpc(0)
            for n in range(1, 200):
                term *= 1j * chi0 / n
                total += term * mp.exp(-q * q / (4 * n * alpha)) \
                    / (2 * n * alpha)
            out.append(complex(-1j * kin.k * total))
    return np.array(out)


class TestBornSubtraction:
    # the closed route takes its first order in chi from fourier3d and
    # transforms only e^{i chi} - 1 - i chi; the full transform of the
    # whole e^{i chi} - 1 and born_resummed, which transforms the whole
    # z-profile integrand, are independent checks of the split

    @pytest.mark.parametrize("p, k", GRID)
    def test_split_matches_the_full_transform_and_born_resummed(self, p, k):
        kin = Kinematics(mass=1.0, k=k)
        got = amplitude_eikonal(p, kin, GRID_THETA)
        full, full_err = _oracles.eikonal_full_transform(p, kin, GRID_THETA,
                                                         TIGHT)
        quad = born_resummed_amplitude(p, kin, GRID_THETA, TIGHT)
        assert np.all(np.abs(got.value - full)
                      <= got.error_estimate + full_err)
        assert np.all(np.abs(got.value - quad.value)
                      <= got.error_estimate + quad.error_estimate)
        if isinstance(p, Gauss):
            exact = _gauss_series(p, kin, GRID_THETA)
            assert np.all(np.abs(got.value - exact) <= got.error_estimate)

    @pytest.mark.parametrize("p", [Gauss(-1e-5, 1.0), Yukawa(1e-4, 1.0)])
    def test_remainder_pass_stops_at_the_rounding_of_its_integrand(self, p):
        # the remainder's sin chi - chi keeps only eps |chi| of absolute
        # accuracy: at abs_tol 1e-300 the Gauss's pass exhausted its budget
        # at theta = 2.5 (q = 9.49) on that rounding noise
        kin = Kinematics(mass=1.0, k=5.0)
        theta = np.array([0.0, 0.3, 1.0, 2.5])
        settings = QuadratureSettings(abs_tol=1e-300)
        got = amplitude_eikonal(p, kin, theta, settings)
        ref = born_resummed_amplitude(p, kin, theta, settings)
        assert np.all(np.abs(got.value - ref.value)
                      <= got.error_estimate + ref.error_estimate)
        if isinstance(p, Gauss):
            # the error_estimate covers the rounding of the closed-form
            # Born term, a few ulps of f, far above the 1e-25 the pass
            # reaches at theta = 0
            exact = _gauss_series(p, kin, theta)
            assert np.all(np.abs(got.value - exact) <= got.error_estimate)

    @pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Yukawa(-2.0, 0.5),
                                   Yukawa(1e-3, 7.0), Gauss(0.5, 1.0),
                                   Gauss(-3.0, 2.0), Gauss(1e-3, 1e-3)])
    def test_remainder_tail_bound_covers_the_tail(self, p):
        # T2 against int_R2^inf chi^2/2 b db in 30-digit arithmetic: a
        # bound for Yukawa, within 2% of the tail, and Gauss's exact tail;
        # both are eps times int_0^inf chi^2/2 b db
        import mpmath as mp
        c = abs(eikonal._chi_factor(p, KIN1))
        upper, tail = eikonal._remainder_reach(p, c)
        with mp.workdps(30):
            if isinstance(p, Yukawa):
                mu = mp.mpf(p.mu)
                exact = mp.quad(lambda b: mp.besselk(0, mu * b) ** 2 * b,
                                [upper, upper + 5 / mu, mp.inf])
                whole = 1 / (2 * mu * mu)
            else:
                alpha = mp.mpf(p.alpha)
                exact = mp.quad(lambda b: mp.exp(-2 * alpha * b * b) * b,
                                [upper, mp.inf])
                whole = 1 / (4 * alpha)
            exact, whole = (float(c * c / 2 * x) for x in (exact, whole))
        eps = np.finfo(float).eps
        if isinstance(p, Yukawa):
            assert exact <= tail <= 1.02 * exact
            assert upper * p.mu == pytest.approx(18.25, abs=0.01)
        else:
            assert tail == pytest.approx(exact, rel=1e-13)
            assert upper * math.sqrt(p.alpha) == pytest.approx(4.245,
                                                               abs=1e-3)
        assert tail == pytest.approx(eps * whole, rel=1e-13)


class TestPaperClosedForms:
    def test_yukawa_magnitude_matches_weak_coupling(self):
        # verbatim reference form carries a sign defect; the magnitude
        # still matches the weak-coupling eikonal limit at small k theta
        p = Yukawa(1e-3, 1.0)
        kin = Kinematics(mass=1.0, k=2.0)
        ref = amplitude_eikonal(p, kin, 0.02)
        got = amplitude_paper_closed(p, kin, 0.02)
        assert abs(got.value) / abs(ref.value) == pytest.approx(1.0, abs=2e-2)

    def test_yukawa_pole_raises(self):
        p = Yukawa(0.5, 1.0)
        kin = Kinematics(mass=1.0, k=2.0)
        with pytest.raises(PoleError):
            amplitude_paper_closed(p, kin, 0.5)  # k theta = mu

    def test_gauss_value(self):
        p = Gauss(1.0, 1.0)
        kin = KIN10
        theta = 0.05
        kt2 = (kin.k * theta) ** 2
        want = (0.5 / p.alpha) * math.sqrt(math.pi / p.alpha) * (
            p.g * kin.k / kin.v) * math.exp(-kt2 / (8 * p.alpha))
        got = amplitude_paper_closed(p, kin, theta)
        assert got.value == pytest.approx(want, rel=1e-14)

    def test_tabulated_unsupported(self):
        r = np.linspace(0.0, 10.0, 50)
        v = np.exp(-r * r)
        v[-1] = 0.0
        with pytest.raises(UnsupportedModelError):
            amplitude_paper_closed(TabulatedRadial(r, v), KIN1, 0.1)


class TestAmplitudeRecord:
    def test_fields(self):
        a = Amplitude(theta=0.1, q=2.0, value=1 + 2j, error_estimate=1e-10)
        assert a.theta == 0.1 and a.q == 2.0 and a.value == 1 + 2j

    def test_negative_error_rejected(self):
        with pytest.raises(DomainError):
            Amplitude(theta=0.1, q=2.0, value=0j, error_estimate=-1.0)
