"""Tests for the first Born and resummed Born amplitudes."""

import math

import numpy as np
import pytest

from scatterlab.born import (_lambda_factor, born1_amplitude,
                             born_resummed_amplitude)
from scatterlab.eikonal import Kinematics, amplitude_eikonal
from scatterlab.errors import ConvergenceError, DomainError
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa, evaluate
from scatterlab.quadrature import DEFAULT_SETTINGS, QuadratureSettings

import _oracles

KIN1 = Kinematics(mass=1.0, k=1.0)
KIN10 = Kinematics(mass=1.0, k=10.0)


def _knotwise_transform(p, qs):
    """fourier3d of the table p at each q of qs as a 20-point
    Gauss-Legendre sum over each knot interval, where V is a cubic."""
    x, w = np.polynomial.legendre.leggauss(20)
    h = 0.5 * np.diff(p.r)[:, None]
    rr = 0.5 * (p.r[1:] + p.r[:-1])[:, None] + h * x
    vr = (h * w * 4.0 * np.pi * rr * rr * evaluate(p, rr)).ravel()
    return np.array([np.sum(vr * np.sinc(q * rr.ravel() / np.pi))
                     for q in qs])


class TestBorn1:
    def test_yukawa_forward_unit_values(self):
        # m = hbar = mu = g = 1 at q = 0: f = -(1/2pi) * 4pi = -2
        got = born1_amplitude(Yukawa(1.0, 1.0), KIN1, 0.0)
        assert got.value == pytest.approx(-2.0 + 0j, rel=1e-14)

    def test_zero_coupling(self):
        got = born1_amplitude(Yukawa(0.0, 1.0), KIN1, 0.4)
        assert got.value == 0.0

    def test_yukawa_angle_dependence(self):
        # f_B = -2 g m / (hbar^2 (q^2 + mu^2)) with q = 2k sin(theta/2)
        p = Yukawa(0.7, 1.3)
        kin = Kinematics(mass=2.0, k=3.0, hbar=0.8)
        theta = 1.1
        q = 2 * kin.k * math.sin(theta / 2)
        want = -2 * p.g * kin.mass / (kin.hbar**2 * (q * q + p.mu**2))
        got = born1_amplitude(p, kin, theta)
        assert got.value == pytest.approx(want, rel=1e-14)
        assert got.q == pytest.approx(q, rel=1e-15)

    def test_gauss_width(self):
        # ratio of two angles isolates the e^{-q^2/4 alpha} factor
        p = Gauss(1.0, 2.0)
        a1 = born1_amplitude(p, KIN10, 0.1)
        a2 = born1_amplitude(p, KIN10, 0.2)
        want = math.exp(-(a2.q**2 - a1.q**2) / (4 * p.alpha))
        assert (a2.value / a1.value).real == pytest.approx(want, rel=1e-12)

    def test_real_for_real_potential(self):
        for p in (Yukawa(0.5, 1.0), Gauss(-1.0, 0.5)):
            got = born1_amplitude(p, KIN10, 0.3)
            assert got.value.imag == 0.0

    def test_backward_angle_allowed(self):
        got = born1_amplitude(Yukawa(1.0, 1.0), KIN10, math.pi)
        assert got.q == pytest.approx(2 * KIN10.k, rel=1e-15)

    def test_tabulated_matches_parent(self):
        g, alpha = 0.6, 1.0
        r = np.linspace(0.0, 12.0, 2000)
        v = g * np.exp(-alpha * r * r)
        v[-1] = 0.0
        ref = born1_amplitude(Gauss(g, alpha), KIN10, 0.2)
        got = born1_amplitude(TabulatedRadial(r, v), KIN10, 0.2)
        assert abs(got.value - ref.value) / abs(ref.value) < 1e-6

    @pytest.mark.parametrize("samples", [600, 3000])
    def test_tabulated_error_covers_a_tight_reference(self, samples):
        # the benchmark's table shape on [0, 30]: born1 reports the error
        # of fourier3d's fixed rule, which covers its deviation from the
        # adaptive GK15 integrator run on each knot interval at rel_tol
        # 1e-13 (abs_tol 1e-15, the rounding level of an interval on which
        # sinc(q r) changes sign) and from a 20-point Gauss-Legendre sum
        # over each knot interval, where V is a cubic (a table's born1
        # once reported 0, 2.5e-11 off)
        r = np.linspace(0.0, 30.0, samples)
        v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
        v[-1] = 0.0
        p = TabulatedRadial(r, v)
        kin = Kinematics(mass=1.0, k=10.0)
        theta = np.linspace(0.0, 0.6, 64)
        got = born1_amplitude(p, kin, theta)
        scale = -kin.mass / (2.0 * np.pi * kin.hbar**2)
        adaptive = []
        for q in got.q:
            value, _, _ = _oracles._adaptive_rows(
                lambda i, x: 4.0 * np.pi * x * x * evaluate(p, x)
                * np.sinc(q * x / np.pi), np.arange(r.size - 1), r[:-1],
                r[1:], 1e-15, 1e-13, DEFAULT_SETTINGS.max_subdivisions)
            adaptive.append(scale * math.fsum(value))
        knotwise = scale * _knotwise_transform(p, got.q)
        for ref in (np.array(adaptive), knotwise):
            assert np.all(np.abs(got.value - ref) <= got.error_estimate)
        assert np.all(got.error_estimate < 1e-12 * np.abs(got.value))

    def test_tabulated_backward_angles_run_at_the_default_budget(self):
        # the 600-sample table at k = 10 out to theta = pi reaches q h = 1.0
        # on all 599 knot intervals, one piece each, within the default
        # budget (a rule cutting every interval there in two once spent
        # 599 pieces of a budget of 200 and raised ConvergenceError)
        r = np.linspace(0.0, 30.0, 600)
        v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
        v[-1] = 0.0
        p = TabulatedRadial(r, v)
        got = born1_amplitude(p, KIN10, np.linspace(0.0, math.pi, 181))
        ref = -KIN10.mass / (2.0 * np.pi * KIN10.hbar**2) \
            * _knotwise_transform(p, got.q)
        assert np.all(np.abs(got.value - ref) <= got.error_estimate)
        assert np.all(got.error_estimate < 1e-13)

    @pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.8, 0.5)])
    @pytest.mark.parametrize("k", [1.0, 2.0, 5.0, 10.0, 30.0])
    def test_theta_array_equals_per_angle_calls(self, p, k):
        # the reference-formula checks build their first-Born grids, up to
        # theta = pi, in one call; the report needs the per-angle bits
        kin = Kinematics(mass=1.0, k=k)
        theta = np.linspace(0.0, math.pi, 801)
        got = born1_amplitude(p, kin, theta)
        each = [born1_amplitude(p, kin, float(t)) for t in theta]
        assert got.q.tolist() == [a.q for a in each]
        assert got.value.tolist() == [a.value for a in each]
        assert not got.error_estimate.any()

    def test_tabulated_transform_takes_the_given_settings(self):
        r = np.linspace(0.0, 10.0, 6)
        v = np.exp(-0.3 * r)
        v[-1] = 0.0
        with pytest.raises(ConvergenceError, match="budget of 8 subdivisions "
                                                   r"exhausted at q = 4\.948"):
            born1_amplitude(TabulatedRadial(r, v), Kinematics(1.0, 10.0),
                            np.linspace(0.0, 0.5, 11),
                            QuadratureSettings(max_subdivisions=8))

    def test_theta_array_must_be_1d(self):
        with pytest.raises(DomainError):
            born1_amplitude(Yukawa(0.5, 1.0), KIN10, np.zeros((2, 2)))

    @pytest.mark.parametrize("theta", [math.nan, [0.1, math.nan], -0.1,
                                       math.pi + 0.1])
    def test_theta_domain(self, theta):
        # a NaN angle is refused, not turned into a NaN amplitude
        with pytest.raises(DomainError, match=r"\[0, pi\]"):
            born1_amplitude(Yukawa(0.5, 1.0), KIN10, theta)


class TestBornResummed:
    def test_matches_eikonal_at_small_angle(self):
        # the resummed series equals the eikonal amplitude identically in
        # the small-angle regime; both pipelines are fully independent
        p = Yukawa(0.5, 1.0)
        for theta in (0.0, 0.02, 0.05, 0.1):
            fe = amplitude_eikonal(p, KIN10, theta)
            fr = born_resummed_amplitude(p, KIN10, theta)
            assert abs(fr.value - fe.value) / abs(fe.value) < 1e-6

    def test_matches_eikonal_gauss(self):
        p = Gauss(0.8, 0.5)
        fe = amplitude_eikonal(p, KIN10, 0.05)
        fr = born_resummed_amplitude(p, KIN10, 0.05)
        assert abs(fr.value - fe.value) / abs(fe.value) < 1e-6

    @pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.8, 0.5)])
    def test_theta_array_equals_per_angle_calls(self, p):
        theta = np.array([0.0, 0.02, 0.1, 0.3])
        got = born_resummed_amplitude(p, KIN10, theta)
        each = [born_resummed_amplitude(p, KIN10, float(t)) for t in theta]
        assert got.q.tolist() == [a.q for a in each]
        # one Hankel partition for all angles: rows agree with the
        # per-angle calls within their errors, not bit for bit
        for value, err, a in zip(got.value, got.error_estimate, each):
            assert abs(value - a.value) <= err + a.error_estimate
        none = born_resummed_amplitude(p, KIN10, np.zeros(0))
        assert none.value.shape == none.error_estimate.shape == (0,)
        assert none.q.shape == none.theta.shape == (0,)

    def test_difference_from_born1_is_second_order(self):
        # |f_resummed - f_born1| must scale as g^2: halving g divides the
        # difference by 4, i.e. log2 ratio = 2 within 0.1
        theta = 0.05
        diffs = []
        for g in (0.04, 0.02, 0.01):
            p = Yukawa(g, 1.0)
            d = abs(born_resummed_amplitude(p, KIN10, theta).value
                    - born1_amplitude(p, KIN10, theta).value)
            diffs.append(d)
        for i in range(2):
            slope = math.log2(diffs[i] / diffs[i + 1])
            assert slope == pytest.approx(2.0, abs=0.1)

    def test_richardson_limit_is_born1(self):
        # f_eik(g)/g = f_B/g + O(g) + O(g^2); three couplings in ratio
        # 1 : 1/2 : 1/4 eliminate both correction orders
        theta = 0.1
        for p1 in (Yukawa(1.0, 1.0), Gauss(1.0, 1.0)):
            vals = []
            for g in (1e-2, 5e-3, 2.5e-3):
                if isinstance(p1, Yukawa):
                    pg = Yukawa(g, p1.mu)
                else:
                    pg = Gauss(g, p1.alpha)
                vals.append(amplitude_eikonal(pg, KIN10, theta).value / g)
            v0, v1, v2 = vals
            extrap = (8 * v2 - 6 * v1 + v0) / 3.0
            ref = born1_amplitude(p1, KIN10, theta).value / 1.0
            assert abs(extrap - ref) / abs(ref) < 1e-4

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            born_resummed_amplitude(Gauss(1.0, 1.0), KIN1, math.pi)

    def test_error_estimate_reported(self):
        got = born_resummed_amplitude(Yukawa(0.5, 1.0), KIN10, 0.05)
        assert 0.0 <= got.error_estimate < 1e-8


class TestLambdaFactor:
    def test_at_zero(self):
        assert complex(_lambda_factor(0.0)) == 1.0 + 0j

    def test_series_direct_seam(self):
        # near |x| = 1e-4 and far below it, where cos x - 1 would cancel,
        # against the Taylor series 1 + ix/2 - x^2/6 - ix^3/24
        for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4, 3e-9, -1e-300):
            ref = 1.0 + 1j * x / 2.0 - x * x / 6.0 - 1j * x**3 / 24.0
            assert abs(complex(_lambda_factor(x)) - ref) < 3e-16

    def test_moderate_argument(self):
        x = 2.3
        want = (np.exp(1j * x) - 1.0) / (1j * x)
        assert complex(_lambda_factor(x)) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("x", [30.0, -30.0])
    def test_strong_coupling_argument(self, x):
        # |chi| reaches about 30 at strong coupling
        want = (np.exp(1j * x) - 1.0) / (1j * x)
        assert complex(_lambda_factor(x)) == pytest.approx(want, rel=1e-15)
