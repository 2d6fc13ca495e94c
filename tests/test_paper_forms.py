"""Tests for paper_forms, the one home of the reference closed forms, and
for the amplitude, totals and checks that call it."""

import numpy as np
import pytest

import _oracles
from scatterlab import paper_forms
from scatterlab.cross_sections import (VERDICT_SUSPECTED_TYPO,
                                       paper_formula_checks, paper_totals)
from scatterlab.eikonal import (Kinematics, amplitude_paper_closed,
                                momentum_transfer)
from scatterlab.errors import PoleError, RangeError
from scatterlab.potentials import Gauss, Yukawa

KIN2 = Kinematics(mass=1.0, k=2.0)


def _bits(x):
    return float(x).hex()


@pytest.mark.parametrize("k", [1.0, 2.0, 5.0, 10.0, 30.0])
@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.5, 1.0)],
                         ids=["yukawa", "gauss"])
def test_array_amplitude_matches_scalar_oracle_bits(p, k):
    kin = Kinematics(mass=1.0, k=k)
    # 48 angles to 3.1 plus theta = 1/k, where k theta = mu for the Yukawa
    theta = np.sort(np.append(np.linspace(0.0, 3.1, 48), 1.0 / k))
    amp = amplitude_paper_closed(p, kin, theta)
    poles = 0
    for i, t in enumerate(theta.tolist()):
        try:
            want = _oracles.amplitude_paper_closed(p, kin, t)
        except PoleError:
            poles += 1
            assert np.isnan(amp.value[i].real)
            assert np.isnan(amp.value[i].imag)
            with pytest.raises(PoleError):
                amplitude_paper_closed(p, kin, t)
            continue
        assert _bits(amp.q[i]) == _bits(want.q)
        assert _bits(amp.value[i].real) == _bits(want.value.real)
        assert _bits(amp.value[i].imag) == _bits(want.value.imag)
        assert amp.error_estimate[i] == 0.0
    assert poles == (1 if isinstance(p, Yukawa) else 0)


def test_totals_keep_their_bits():
    # hex values printed by the inline formulas the module replaced
    y, g = Yukawa(0.01, 1.0), Gauss(0.01, 1.0)
    assert paper_forms.total(y, KIN2).hex() == "-0x1.5f6195aeb0bbep-12"
    assert paper_forms.total_corrected(y, KIN2).hex() == \
        "0x1.360acf5de73c6p-12"
    assert paper_forms.total(g, KIN2).hex() == "0x1.fbf95c012c86fp-14"
    assert paper_forms.total_corrected(g, KIN2) == \
        2.0 * paper_forms.total(g, KIN2)
    for p in (y, g):
        assert paper_totals(p, KIN2) == paper_forms.total(p, KIN2)
    ratio = paper_formula_checks(y, KIN2)[1].ratio
    assert ratio == paper_forms.total(y, KIN2) / \
        paper_forms.total_corrected(y, KIN2)


def test_formula_checks_keep_verdicts_and_gauss_ratio():
    checks = (paper_formula_checks(Yukawa(0.01, 1.0), KIN2)
              + paper_formula_checks(Gauss(0.01, 1.0), KIN2))
    assert [c.name for c in checks] == [
        "closed_form_amplitude_yukawa", "closed_form_total_yukawa",
        "closed_form_amplitude_gauss", "closed_form_total_gauss"]
    assert all(c.verdict == VERDICT_SUSPECTED_TYPO for c in checks)
    assert checks[3].ratio.hex() == "0x1.fffffffffffffp+0"


def test_yukawa_dsigma_nan_at_exact_zero_without_warning():
    # the pytest config turns RuntimeWarning into an error
    p, kin = Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=1.0)
    q = np.array([0.5, 1.0])
    got = paper_forms.dsigma(p, kin, np.zeros(2), q)
    assert np.isfinite(got[0]) and np.isnan(got[1])


@pytest.mark.parametrize("p, kin, key", [
    (Gauss(0.5, 1e300), Kinematics(mass=1e-300, k=1e300), "alpha"),
    (Gauss(0.5, 1e-120), KIN2, "alpha"),
    (Yukawa(1e200, 1.0), Kinematics(mass=1.0, k=1e200), "g"),
    (Yukawa(0.5, 1e200), KIN2, "mu"),
    (Yukawa(0.5, 1.0), Kinematics(mass=1e-300, k=1e300), "k"),
])
def test_out_of_range_prefactors_raise_a_keyed_range_error(p, kin, key):
    # a float power that overflows or a factor that leaves the float range
    # is a RangeError naming its parameter, not a raw OverflowError
    theta = np.linspace(0.0, 0.2, 5)
    q = momentum_transfer(kin.k, theta)
    for form in (lambda: paper_forms.dsigma(p, kin, theta, q),
                 lambda: paper_forms.dsigma_corrected(p, kin, q),
                 lambda: paper_formula_checks(p, kin)):
        with pytest.raises(RangeError) as err:
            form()
        assert err.value.key == key
        assert str(err.value).startswith(f"{key} out of range")


def test_an_overflowing_k_theta_is_not_a_yukawa_pole():
    # (k theta)^2 overflows to inf at theta = 0.1: the verbatim denominator
    # is -inf and the amplitude 0 there, not a pole row of nan
    kin = Kinematics(mass=1e200, k=1e200)
    value = paper_forms.amplitude(Yukawa(0.5, 1.0), kin, np.array([0.0, 0.1]))
    assert value[0] == 1e200
    assert value[1] == 0.0
