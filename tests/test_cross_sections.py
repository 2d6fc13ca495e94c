"""Tests for cross-section assembly, totals, and the formula report."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

import _oracles
from scatterlab.born import born1_amplitude
from scatterlab.cross_sections import (CrossSectionTable, PaperComparison,
                                       VERDICT_CONSISTENT,
                                       VERDICT_SUSPECTED_TYPO, differential,
                                       paper_formula_checks, paper_totals,
                                       table_from_amplitudes,
                                       total_integrated, total_optical)
from scatterlab.eikonal import (Amplitude, Kinematics, amplitude_eikonal,
                                amplitude_paper_closed)
from scatterlab.errors import (ConvergenceError, DomainError, PoleError,
                               RangeError, UnsupportedModelError)
from scatterlab.partial_wave import amplitude_partial_wave, phase_shifts
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa

KIN2 = Kinematics(mass=1.0, k=2.0)


def _rows_from(theta, values):
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(values)
    re, im = v.real.astype(float), v.imag.astype(float)
    return np.column_stack([theta, theta, re, im, re * re + im * im])


class TestDifferential:
    def test_zero(self):
        assert differential(Amplitude(theta=0.1, q=0.2, value=0j)) == 0.0

    def test_pythagorean(self):
        assert differential(
            Amplitude(theta=0.1, q=0.2, value=3 + 4j)) == 25.0

    def test_gauss_reference_form_at_forward(self):
        # |f(0)|^2 = (pi / 4 alpha^3)(g k / v)^2 for the reference
        # closed form
        p = Gauss(1.0, 2.0)
        kin = Kinematics(mass=1.0, k=3.0)
        f0 = amplitude_paper_closed(p, kin, 0.0)
        want = (np.pi / (4 * p.alpha**3)) * (
            p.g * kin.k / kin.v) ** 2
        assert differential(f0) == pytest.approx(want, rel=1e-14)


class TestCrossSectionTable:
    def test_row_invariant_enforced(self):
        rows = _rows_from([0.0, 0.1, 0.2], [1 + 1j, 2j, 0.5])
        rows[1, 4] *= 1.0 + 1e-9  # break dsigma = re^2 + im^2
        with pytest.raises(DomainError):
            CrossSectionTable(rows=rows, total_integrated=1.0,
                              total_optical=1.0)

    def test_theta_must_increase(self):
        rows = _rows_from([0.0, 0.2, 0.1], [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            CrossSectionTable(rows=rows, total_integrated=1.0,
                              total_optical=1.0)

    def test_nan_rows_tolerated(self):
        # a pole row is stored as nan, not dropped
        rows = _rows_from([0.0, 0.1, 0.2], [1.0, 1.0, 1.0])
        rows[1, 2:] = np.nan
        t = CrossSectionTable(rows=rows, total_integrated=float("nan"),
                              total_optical=1.0)
        assert np.isnan(t.rows[1, 4])


class TestTotalIntegrated:
    def test_constant_amplitude(self):
        theta = np.linspace(0.0, np.pi, 201)
        rows = _rows_from(theta, np.full(theta.shape, 2.0))
        got = total_integrated(rows)
        assert got == pytest.approx(16.0 * np.pi, rel=1e-9)

    @pytest.mark.parametrize("a, b", [(2.0, 0.5), (1.0, -0.3), (3.0, -0.9)])
    def test_a_linear_dsigma_integrates_exactly(self, a, b):
        # the natural spline reproduces a line, and each interval's cubic
        # times sin(theta) is integrated exactly: 2 pi int (a + b theta)
        # sin(theta) over [0, pi] is 2 pi (2 a + b pi)
        theta = np.linspace(0.0, np.pi, 181)
        rows = np.zeros((theta.size, 5))
        rows[:, 0], rows[:, 4] = theta, a + b * theta
        assert total_integrated(rows) == pytest.approx(
            2.0 * np.pi * (2.0 * a + b * np.pi), rel=1e-14, abs=0.0)

    def test_born_gauss_against_simpson(self):
        p = Gauss(0.01, 1.0)
        kin = Kinematics(mass=1.0, k=5.0)
        theta = np.linspace(0.0, np.pi, 501)
        vals = np.array([born1_amplitude(p, kin, t).value for t in theta])
        rows = _rows_from(theta, vals)
        got = total_integrated(rows)

        fine = np.linspace(0.0, np.pi, 40001)
        dsig = np.array([differential(born1_amplitude(p, kin, t))
                         for t in fine])
        want = 2 * np.pi * simpson(dsig * np.sin(fine), x=fine)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("k", [1.0, 5.0, 10.0])
    def test_energy_scan_totals_equal_the_exact_spline_integral(self, k):
        # the shipped energy scan's rows: each interval's cubic times
        # sin(theta) has a closed form, which the exact series meets to
        # rounding (the adaptive rule it replaced was up to 1.2e-9 off)
        theta = np.linspace(0.0, 3.1415926, 481)
        amp = amplitude_partial_wave(
            phase_shifts(Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=k)), theta)
        rows = _rows_from(theta, amp.value)
        assert total_integrated(rows) == pytest.approx(
            _oracles.spline_total(theta, rows[:, 4]), rel=1e-14, abs=0.0)

    def test_a_dipping_spline_is_clipped_at_its_roots(self):
        # dsigma is 0 on a third of the rows, and the spline swings below
        # 0 beside each such stretch: the total integrates max(spline, 0),
        # cut at the cubic's roots, to rounding of the exact value
        theta = np.linspace(0.0, 3.1415926, 481)
        f = np.maximum(np.cos(3.0 * theta), 0.0) * np.exp(-theta)
        rows = _rows_from(theta, f)
        spline = _oracles.CubicSpline1D(theta, rows[:, 4])
        assert spline(np.linspace(0.0, theta[-1], 100_001)).min() < -1e-6
        exact = _oracles.spline_total(theta, rows[:, 4])
        unclipped = _oracles.spline_total(theta, rows[:, 4], clip=False)
        assert abs(unclipped - exact) > 1e-7 * exact
        assert total_integrated(rows) == pytest.approx(exact, rel=1e-14,
                                                       abs=0.0)

    def test_rows_scaled_by_a_power_of_two_scale_the_total_bit_for_bit(
            self):
        # dsigma near 1e280 made the spline's products overflow (c * c in
        # cubic_roots); the total of rows scaled by 2^930 is the total of
        # the rows times 2^930, bit for bit and without a warning
        theta = np.linspace(0.0, 3.1415926, 481)
        rows = _rows_from(theta, np.exp(-theta) * (1.5 + np.cos(5 * theta)))
        big = rows.copy()
        big[:, 4] *= 2.0 ** 930
        assert total_integrated(big) == total_integrated(rows) * 2.0 ** 930

    def test_coverage_required(self):
        theta = np.linspace(0.0, 0.5, 64)
        rows = _rows_from(theta, np.ones_like(theta))
        with pytest.raises(RangeError):
            total_integrated(rows)

    def test_sparse_grid_rejected(self):
        # a forward peak sampled by 15 points cannot be integrated honestly
        p = Gauss(0.01, 1.0)
        kin = Kinematics(mass=1.0, k=10.0)
        theta = np.linspace(0.0, np.pi, 15)
        vals = np.array([born1_amplitude(p, kin, t).value for t in theta])
        rows = _rows_from(theta, vals)
        with pytest.raises(ConvergenceError):
            total_integrated(rows)

    def test_nonfinite_rows_rejected(self):
        theta = np.linspace(0.0, np.pi, 64)
        rows = _rows_from(theta, np.ones_like(theta))
        rows[3, 4] = np.nan
        with pytest.raises(DomainError):
            total_integrated(rows)


class TestTotalOptical:
    def test_real_forward_amplitude(self):
        assert total_optical(
            Amplitude(theta=0.0, q=0.0, value=2.5 + 0j), 3.0) == 0.0

    def test_unitarity_limit(self):
        k = 2.0
        got = total_optical(Amplitude(theta=0.0, q=0.0, value=1j / k), k)
        assert got == pytest.approx(4 * np.pi / k**2, rel=1e-14)

    def test_needs_forward_angle(self):
        with pytest.raises(DomainError):
            total_optical(Amplitude(theta=0.1, q=0.2, value=1j), 1.0)
        # an empty theta, as amplitude_eikonal returns for one, raised a
        # raw IndexError from theta[0]
        empty = amplitude_eikonal(Gauss(0.1, 1.0), Kinematics(1.0, 2.0),
                                  np.array([]))
        assert empty.theta.size == 0
        with pytest.raises(DomainError):
            total_optical(empty, 2.0)
        with pytest.raises(DomainError) as exc:
            table_from_amplitudes(empty, 2.0)
        assert exc.value.key == "theta"

    @pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan])
    def test_k_must_be_positive_and_finite(self, k):
        # k = 0 divided by zero; the table raises before it assembles
        f0 = Amplitude(theta=np.array([0.0, 0.1]), q=np.array([0.0, 0.2]),
                       value=np.array([1j, 0.5j]))
        for call in (lambda: total_optical(f0, k),
                     lambda: table_from_amplitudes(f0, k)):
            with pytest.raises(DomainError) as exc:
                call()
            assert exc.value.key == "k"


class TestPaperTotals:
    def test_yukawa_substitution(self):
        # g=1, mu=1, k=0.1 with v = 1 (mass = k)
        got = paper_totals(Yukawa(1.0, 1.0), Kinematics(mass=0.1, k=0.1))
        want = 16 * np.pi * 0.01 / (1.0 * (1.0 - 0.04))
        assert got == pytest.approx(want, rel=1e-14)

    def test_yukawa_pole(self):
        with pytest.raises(PoleError):
            paper_totals(Yukawa(1.0, 2.0), Kinematics(mass=1.0, k=1.0))

    def test_gauss_low_k_saturates(self):
        # (g/v)^2 ~ 1/k^2 cancels the bracket's k^2: finite limit
        got = paper_totals(Gauss(1.0, 1.0), Kinematics(mass=1.0, k=1e-8))
        want = (np.pi**2 / 2.0) * 1.0**2  # (pi^2/2 alpha^3)(g m)^2
        assert got == pytest.approx(want, rel=1e-12)

    def test_gauss_high_k_saturates(self):
        p = Gauss(1.0, 1.0)
        kin = Kinematics(mass=1.0, k=100.0)
        want = (np.pi**2 / (2 * p.alpha**2)) * (
            p.g / kin.v) ** 2
        assert paper_totals(p, kin) == pytest.approx(want, rel=1e-14)

    def test_tabulated_unsupported(self):
        r = np.linspace(0.0, 5.0, 50)
        v = np.exp(-r * r)
        v[-1] = 0.0
        with pytest.raises(UnsupportedModelError):
            paper_totals(TabulatedRadial(r, v), KIN2)


class TestPaperFormulaChecks:
    def test_yukawa_amplitude_flagged(self):
        checks = paper_formula_checks(Yukawa(0.01, 1.0), KIN2)
        amp = next(c for c in checks
                   if c.name == "closed_form_amplitude_yukawa")
        assert amp.verdict == VERDICT_SUSPECTED_TYPO
        assert amp.corrected_deviation <= 1e-2
        assert "sign" in amp.mutation

    def test_yukawa_total_flagged(self):
        checks = paper_formula_checks(Yukawa(0.01, 1.0), KIN2)
        tot = next(c for c in checks
                   if c.name == "closed_form_total_yukawa")
        assert tot.verdict == VERDICT_SUSPECTED_TYPO
        assert tot.corrected_deviation <= 1e-2

    @pytest.mark.parametrize("p, k", [
        (Yukawa(0.01, 1.0), 1.0), (Yukawa(0.01, 1.0), 5.0),
        (Yukawa(0.01, 1.0), 10.0), (Yukawa(0.05, 0.3), 5.0),
    ])
    def test_yukawa_total_oracle_is_the_exact_born_total(self, p, k):
        # the oracle integrates born1 over the sphere; the corrected form
        # is the exact Born total 16 pi (g k)^2/(v^2 mu^2 (mu^2 + 4 k^2))
        checks = paper_formula_checks(p, Kinematics(mass=1.0, k=k))
        tot = next(c for c in checks
                   if c.name == "closed_form_total_yukawa")
        assert tot.corrected_deviation <= 1e-12

    def test_gauss_amplitude_flagged(self):
        checks = paper_formula_checks(Gauss(0.01, 1.0), KIN2)
        amp = next(c for c in checks
                   if c.name == "closed_form_amplitude_gauss")
        assert amp.verdict == VERDICT_SUSPECTED_TYPO
        assert amp.corrected_deviation <= 1e-2

    def test_gauss_total_ratio_is_two(self):
        checks = paper_formula_checks(Gauss(0.01, 1.0), KIN2)
        tot = next(c for c in checks
                   if c.name == "closed_form_total_gauss")
        assert tot.verdict == VERDICT_SUSPECTED_TYPO
        assert tot.ratio == pytest.approx(2.0, abs=1e-6)

    def test_consistent_when_reference_matches(self):
        # grading machinery sanity: feed a comparison that must pass
        c = PaperComparison(name="x", verdict=VERDICT_CONSISTENT,
                            verbatim_deviation=1e-3,
                            corrected_deviation=1e-3, mutation="")
        assert c.verdict == VERDICT_CONSISTENT


class TestTableAssembly:
    def test_partial_wave_unitarity(self):
        kin = Kinematics(mass=1.0, k=5.0)
        ps = phase_shifts(Yukawa(0.5, 1.0), kin)
        theta = np.linspace(0.0, np.pi, 601)
        amp = amplitude_partial_wave(ps, theta)
        tab = table_from_amplitudes(amp, kin.k)
        assert tab.total_integrated == pytest.approx(
            tab.total_optical, rel=1e-3)

    def test_missing_coverage_yields_nan_total(self):
        kin = Kinematics(mass=1.0, k=5.0)
        ps = phase_shifts(Yukawa(0.5, 1.0), kin)
        theta = np.linspace(0.0, 0.5, 64)
        amp = amplitude_partial_wave(ps, theta)
        tab = table_from_amplitudes(amp, kin.k)
        assert math.isnan(tab.total_integrated)
        assert not math.isnan(tab.total_optical)

    def test_eikonal_total_tracks_partial_wave(self):
        # weak coupling, strongly forward-peaked: the small-angle source
        # still integrates to the oracle total within 5%
        p = Gauss(0.3, 1.0)
        kin = Kinematics(mass=1.0, k=10.0)
        theta = np.linspace(0.0, np.pi - 1e-7, 301)
        vals = np.array([amplitude_eikonal(p, kin, t).value
                         for t in theta])
        rows = _rows_from(theta, vals)
        rows[:, 1] = 2 * kin.k * np.sin(theta / 2)
        sigma_eik = total_integrated(rows)
        ps = phase_shifts(p, kin)
        amp = amplitude_partial_wave(ps, np.linspace(0.0, np.pi, 601))
        tab = table_from_amplitudes(amp, kin.k)
        assert sigma_eik == pytest.approx(tab.total_integrated, rel=5e-2)
