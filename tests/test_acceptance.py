"""Acceptance gate: every advertised guarantee at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Each test is self-contained and finishes well inside the
single-core minute budget.
"""

import filecmp
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from scatterlab.born import born1_amplitude, born_resummed_amplitude
from scatterlab.config import parse_config
from scatterlab.cross_sections import (paper_formula_checks,
                                       table_from_amplitudes)
from scatterlab.eikonal import (Kinematics, amplitude_eikonal, chi,
                                chi_closed)
from scatterlab.partial_wave import amplitude_partial_wave, phase_shifts
from scatterlab.potentials import Gauss, Yukawa
from scatterlab.runner import run_scan


@contextmanager
def _criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc}")


def _dsigma_dev(f_a, f_b):
    da, db = abs(f_a) ** 2, abs(f_b) ** 2
    return abs(da - db) / max(da, db)


def test_criterion_1_eikonal_tracks_oracle_forward():
    with _criterion(1, "eikonal vs partial wave: <= 2% in the forward "
                       "cone, monotone breakdown past theta = 0.5"):
        p = Yukawa(0.5, 1.0)
        kin = Kinematics(mass=1.0, k=10.0)
        ps = phase_shifts(p, kin)

        forward = np.linspace(0.0, 0.2, 9)
        f_pw = amplitude_partial_wave(ps, forward).value
        for t, fb in zip(forward, f_pw):
            fa = amplitude_eikonal(p, kin, float(t)).value
            assert _dsigma_dev(fa, fb) <= 0.02

        past = np.array([0.5, 0.55, 0.6, 0.65, 0.7])
        f_pw = amplitude_partial_wave(ps, past).value
        devs = [
            _dsigma_dev(amplitude_eikonal(p, kin, float(t)).value, fb)
            for t, fb in zip(past, f_pw)
        ]
        assert np.all(np.diff(devs) > 0.0), devs


def test_criterion_2_weak_coupling_limit_is_first_born():
    with _criterion(2, "lim_{g->0} f_eikonal/g = f_born1/g to 1e-4 "
                       "(Richardson over g, g/2, g/4; both potentials, "
                       "closed-phase eikonal and born_resummed)"):
        # the closed route's first order in chi is born1 by construction;
        # born_resummed transforms the whole e^{i chi} - 1 through w Lambda
        kin = Kinematics(mass=1.0, k=10.0)
        angles = (0.0, 0.05, 0.1, 0.15, 0.2)
        couplings = (1e-2, 5e-3, 2.5e-3)
        for family in (lambda g: Yukawa(g, 1.0), lambda g: Gauss(g, 1.0)):
            for route in (amplitude_eikonal, born_resummed_amplitude):
                for t in angles:
                    v = [route(family(g), kin, t).value / g
                         for g in couplings]
                    extrapolated = (8.0 * v[2] - 6.0 * v[1] + v[0]) / 3.0
                    ref = born1_amplitude(family(1e-2), kin, t).value / 1e-2
                    assert abs(extrapolated - ref) <= 1e-4 * abs(ref)


def test_criterion_3_resummed_series_reduces_to_eikonal():
    with _criterion(3, "born_resummed matches amplitude_eikonal to 1e-6 "
                       "relative at theta in {0, 0.02, 0.05, 0.1}"):
        p = Yukawa(0.5, 1.0)
        kin = Kinematics(mass=1.0, k=10.0)
        for t in (0.0, 0.02, 0.05, 0.1):
            fa = amplitude_eikonal(p, kin, t).value
            fb = born_resummed_amplitude(p, kin, t).value
            assert abs(fa - fb) <= 1e-6 * abs(fa)


def test_criterion_4_closed_phases_match_quadrature():
    with _criterion(4, "chi agrees with chi_closed to 1e-8 relative on 5 "
                       "impact parameters for each model"):
        kin = Kinematics(mass=1.0, k=10.0)
        bs = (0.1, 0.5, 1.0, 2.0, 5.0)
        for p in (Yukawa(0.5, 1.0), Gauss(0.8, 0.5)):
            for b in bs:
                numeric = chi(p, kin, b)
                closed = chi_closed(p, kin, b)
                assert abs(numeric - closed) <= 1e-8 * abs(closed)


def test_criterion_5_optical_theorem_on_oracle():
    with _criterion(5, "partial-wave total_integrated = total_optical to "
                       "0.1% at k in {1, 5, 10}, both potentials"):
        theta = np.linspace(0.0, np.pi, 801)
        for p in (Yukawa(0.5, 1.0), Gauss(0.5, 1.0)):
            for k in (1.0, 5.0, 10.0):
                kin = Kinematics(mass=1.0, k=k)
                ps = phase_shifts(p, kin)
                amp = amplitude_partial_wave(ps, theta)
                tab = table_from_amplitudes(amp, k)
                assert np.isfinite(tab.total_integrated)
                dev = abs(tab.total_integrated - tab.total_optical) \
                    / tab.total_optical
                assert dev <= 1e-3, (p, k, dev)


def test_criterion_6_formula_report_verdicts():
    with _criterion(6, "report: corrected closed form CONSISTENT with "
                       "born1; sign and factor-2 flags SUSPECTED_TYPO "
                       "with gauss total ratio 2.0 +- 1e-6"):
        kin = Kinematics(mass=1.0, k=2.0)
        yukawa = {c.name: c for c in
                  paper_formula_checks(Yukawa(0.01, 1.0), kin)}
        gauss = {c.name: c for c in
                 paper_formula_checks(Gauss(0.01, 1.0), kin)}

        amp_y = yukawa["closed_form_amplitude_yukawa"]
        assert amp_y.corrected_deviation <= 1e-2  # standard sign: consistent
        assert amp_y.verdict == "SUSPECTED_TYPO"  # printed sign: flagged

        assert gauss["closed_form_amplitude_gauss"].verdict \
            == "SUSPECTED_TYPO"
        assert yukawa["closed_form_total_yukawa"].verdict \
            == "SUSPECTED_TYPO"

        tot_g = gauss["closed_form_total_gauss"]
        assert tot_g.verdict == "SUSPECTED_TYPO"
        assert abs(tot_g.ratio - 2.0) <= 1e-6


def test_criterion_7_numerics_suites_green():
    with _criterion(7, "special-function, quadrature, and radial-solver "
                       "suites: zero failures"):
        here = Path(__file__).parent
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(here / "test_special_functions.py"),
             str(here / "test_quadrature.py"),
             str(here / "test_partial_wave.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout[-2000:]


def test_criterion_8_byte_identical_reruns(tmp_path):
    with _criterion(8, "identical config: byte-identical CSVs across two "
                       "runs and across thread counts {1, 4}"):
        base = """
[potential]
model = yukawa
g = 0.5
mu = 1.0

[kinematics]
mass = 1.0
k = 2, 10

[theta_grid]
min = 0.0
max = 0.3
count = 10

[run]
sources = eikonal, born1, born_resummed, partial_wave, paper_closed
threads = {threads}
"""
        for tag, threads in (("a1", 1), ("b1", 1), ("c4", 4)):
            cfg = parse_config(base.format(threads=threads))
            manifest = run_scan(cfg, str(tmp_path / tag))
            assert not manifest.failed
        names = [p.name for p in (tmp_path / "a1").iterdir()
                 if p.suffix == ".csv"]
        assert len(names) == 11  # 5 sources x 2 k + summary
        for other in ("b1", "c4"):
            for name in names:
                assert filecmp.cmp(tmp_path / "a1" / name,
                                   tmp_path / other / name,
                                   shallow=False), (other, name)
