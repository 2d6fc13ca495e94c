"""Property sweeps over model, sign and size of the coupling, and range:
the reported error of resummed Born, which reads the z-profile and
includes the bounds of the profile's values, covers its deviation from
the tight closed-phase eikonal; the
partial-wave oracle keeps its phase shifts in (-pi/2, pi/2], obeys the
optical theorem, keeps |S_l| = 1 to rounding at every wave and reports
an error that covers its move at half the radial step and the 300 waves
past its l_max; the effective
radius, on random tables too, holds its fraction of the weight within the
potential's reach; a table's Fourier
transform, on its fixed rule, reports an error that covers scipy's quad
and has the bits of a call at each q alone, a subnormal q included; the
reference closed forms and
their checks, from 1e-300 to 1e300 in every parameter, return or raise a
ScatterError; and only a ScatterError escapes the public amplitude and
cross-section functions, the angle grid and run_scan, whatever the model,
coupling, range, k (0, inf and nan included where it is a float
argument), theta (a list or an array) and angle count (2.5 and nan
included); and in a weak field the eikonal and resummed Born reduce to
first Born, their Im f(0) to the closed form of order chi^2; and a table's
z-profile, on random tables and the kink table, lies within its bound of
a 30-digit Abel transform of its pieces."""

import dataclasses
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import _oracles
from scatterlab import eikonal, paper_forms
from scatterlab.born import born1_amplitude, born_resummed_amplitude
from scatterlab.config import ThetaGrid, parse_config
from scatterlab.cross_sections import (paper_formula_checks,
                                       table_from_amplitudes, total_optical)
from scatterlab.eikonal import (Kinematics, amplitude_eikonal,
                                amplitude_paper_closed, chi, chi_closed,
                                momentum_transfer)
from scatterlab.errors import ScatterError
from scatterlab.partial_wave import amplitude_partial_wave, phase_shifts
from scatterlab.potentials import (Gauss, TabulatedRadial, Yukawa,
                                   effective_radius, evaluate, fourier3d,
                                   reach)
from scatterlab.quadrature import DEFAULT_SETTINGS
from scatterlab.runner import run_scan
from scatterlab.special_functions import expm1i

THETA = np.array([0.0, 0.03, 0.1, 0.25])
THETA_ALL = np.linspace(0.0, np.pi, 181)
# the benchmark's reference: tolerances 100x tighter, 10x the budget
TIGHT = dataclasses.replace(
    DEFAULT_SETTINGS, rel_tol=DEFAULT_SETTINGS.rel_tol / 100.0,
    abs_tol=DEFAULT_SETTINGS.abs_tol / 100.0,
    max_subdivisions=10 * DEFAULT_SETTINGS.max_subdivisions)


@st.composite
def potentials(draw):
    sign = draw(st.sampled_from([-1.0, 1.0]))
    g = sign * 10.0 ** draw(st.floats(-2.5, 0.0))
    if draw(st.booleans()):
        return Yukawa(g, 10.0 ** draw(st.floats(-0.5, 0.5)))
    return Gauss(g, 10.0 ** draw(st.floats(-1.0, 0.7)))


@st.composite
def tables(draw, interpolations=("cubic", "linear"), first=(0.0, 1.0)):
    """A table of 4-20 knots from r[0] in [first[0], first[1]], gaps in
    [0.05, 2] and values in [-2, 2], the last 0."""
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=4, max_size=20))
    r = draw(st.floats(*first)) + np.cumsum(gaps) - gaps[0]
    v = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(gaps),
                      max_size=len(gaps)))
    v[-1] = 0.0
    return TabulatedRadial(r, v, draw(st.sampled_from(interpolations)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=potentials(), k=st.sampled_from([1.0, 2.0, 5.0]))
def test_born_resummed_errors_cover_the_tight_closed_phase_eikonal(p, k):
    kin = Kinematics(mass=1.0, k=k)
    tight = amplitude_eikonal(p, kin, THETA, TIGHT)
    got = born_resummed_amplitude(p, kin, THETA)
    assert np.all(np.abs(got.value - tight.value) <= got.error_estimate)


@st.composite
def weak_potentials(draw):
    sign = draw(st.sampled_from([-1.0, 1.0]))
    g = sign * 10.0 ** draw(st.floats(-8.0, -2.0))
    size = 10.0 ** draw(st.floats(-0.5, 0.5))
    return Yukawa(g, size) if draw(st.booleans()) else Gauss(g, size)


THETA_WEAK = np.array([0.0, 0.03, 0.3, 1.0, 2.5])
# the tight eikonal's Im f(0) stays within 1.3e-12 of the chi^2 form
# beyond its chi^4 term; this bound leaves a hundredfold margin
WEAK_ROUNDING = 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=weak_potentials(), k=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
       route=st.sampled_from([amplitude_eikonal, born_resummed_amplitude]))
@example(p=Gauss(1e-8, 1.0), k=2.0, route=amplitude_eikonal)
def test_weak_eikonal_reduces_to_first_born(p, k, route):
    # chi = -(g/v) sqrt(pi/alpha) e^{-alpha b^2} for Gauss and
    # -(2g/v) K0(mu b) for Yukawa, c the size of its prefactor.
    # Re f - f_B = k int J0 (sin chi - chi) b db, which is c^2/18 of
    # |f_B(0)| for Gauss and under c^2/10 for Yukawa; Im f(0) = k int
    # (1 - cos chi) b db is k int chi^2/2 b db, k pi g^2/(8 alpha^2 v^2)
    # for Gauss and k g^2/(v^2 mu^2) for Yukawa, to a relative
    # c^2/24 and 7 zeta(3) c^2/48. abs_tol is tiny so that the transform
    # resolves Im f, of order c^2 |f|, and not only |f|. born_resummed,
    # the same integral through the z-profile, obeys the same bounds.
    kin = Kinematics(mass=1.0, k=k)
    v = kin.v
    if isinstance(p, Gauss):
        c = abs(p.g) / v * math.sqrt(math.pi / p.alpha)
        im0 = k * math.pi * p.g**2 / (8.0 * p.alpha**2 * v**2)
    else:
        c = 2.0 * abs(p.g) / v
        im0 = k * p.g**2 / (v**2 * p.mu**2)
    tight = dataclasses.replace(DEFAULT_SETTINGS, abs_tol=1e-300)
    got = route(p, kin, THETA_WEAK, tight)
    born = born1_amplitude(p, kin, THETA_WEAK)
    scale = abs(born.value[0])
    assert np.all(np.abs(got.value.real - born.value.real)
                  <= c * c * scale + got.error_estimate + born.error_estimate)
    assert abs(got.value[0].imag - im0) <= (c * c + WEAK_ROUNDING) * im0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=potentials(), k=st.sampled_from([1.0, 2.0, 5.0]))
def test_partial_wave_oracle_obeys_the_optical_theorem(p, k):
    # criterion 5's tolerance: total_integrated = total_optical to 0.1%
    kin = Kinematics(mass=1.0, k=k)
    ps = phase_shifts(p, kin)
    assert np.all(np.isfinite(ps.delta))
    assert np.all((ps.delta > -np.pi / 2) & (ps.delta <= np.pi / 2))
    amp = amplitude_partial_wave(ps, np.linspace(0.0, np.pi, 801))
    tab = table_from_amplitudes(amp, k)
    assert abs(tab.total_integrated - tab.total_optical) \
        <= 1e-3 * tab.total_optical


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=st.one_of(potentials(), tables(("cubic",), first=(0.0, 0.0))),
       k=st.sampled_from([1.0, 3.0, 7.0, 12.0]))
def test_partial_wave_error_covers_the_half_step_oracle(p, k):
    # the same waves and matching radius at dr/2: the reported step and
    # truncation error must cover the move at every angle. A cubic table's
    # last knot, a kink of V, lies on the grid; linear tables, every knot of
    # which is a kink, and tables from r[0] > 0, whose V has a kink at r[0]
    # as well, are left out: the grid misses those kinks
    kin = Kinematics(mass=1.0, k=k)
    ps = phase_shifts(p, kin)
    fine = phase_shifts(p, kin, l_max=ps.l_max, r_max=ps.r_max,
                        dr=ps.dr / 2)
    got = amplitude_partial_wave(ps, THETA_ALL)
    ref = amplitude_partial_wave(fine, THETA_ALL)
    assert np.all(np.abs(got.value - ref.value) <= got.error_estimate)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=potentials(), k=st.sampled_from([0.5, 1.0, 2.0, 5.0]))
@example(p=Yukawa(0.5, 0.3), k=1.0)
def test_partial_wave_error_covers_the_waves_past_l_max(p, k):
    # the same grid with 300 more waves: the reported error must cover the
    # waves the automatic l_max drops, at the small angles where they add
    # up. Yukawa(0.5, 0.3) at k = 1 was covered 2.3x short when the bound
    # was the last wave's, (2 l_max + 1)|delta_l_max|/k
    kin = Kinematics(mass=1.0, k=k)
    ps = phase_shifts(p, kin)
    more = phase_shifts(p, kin, l_max=ps.l_max + 300, r_max=ps.r_max,
                        dr=ps.dr)
    theta = np.linspace(0.0, 0.6, 49)
    got = amplitude_partial_wave(ps, theta)
    ref = amplitude_partial_wave(more, theta)
    assert np.all(np.abs(got.value - ref.value) <= got.error_estimate)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.one_of(potentials(), tables(("cubic",), first=(0.0, 0.0))),
       k=st.sampled_from([0.5, 2.0, 7.0, 20.0]))
def test_every_wave_s_s_matrix_element_is_unimodular(p, k):
    # a real potential conserves flux wave by wave: S_l = 1 + (e^{2 i
    # delta_l} - 1), formed as amplitude_partial_wave forms it, has modulus
    # 1 to within a few roundings at every wave the oracle keeps
    ps = phase_shifts(p, Kinematics(mass=1.0, k=k))
    assert np.all(np.isfinite(ps.delta))
    s_l = 1.0 + expm1i(2.0 * ps.delta)
    assert np.all(np.abs(np.abs(s_l) - 1.0) <= 4.0 * np.finfo(float).eps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.one_of(potentials(), tables()))
def test_effective_radius_holds_its_fraction_of_the_weight(p):
    upper = reach(p)[0]
    r_eff = effective_radius(p)
    assert r_eff <= upper
    whole = _oracles.weight(p, 0.0, upper)
    assert abs(_oracles.weight(p, 0.0, r_eff) - 0.9999 * whole) \
        <= 1e-9 * whole


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=tables(), qh=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=2))
# a subnormal q, at which q x0 keeps a few bits of x0: the value is the
# 107.2 of q = 0, not 96.4
@example(p=TabulatedRadial([0.0, 1.0, 2.5, 3.5], [0.0, 0.0, 1.0, 0.0]),
         qh=[5e-324])
def test_table_transform_covers_quad_and_keeps_the_bits_of_each_q(p, qh):
    # q h from 0 up to 24 and more on the widest knot interval, so up to
    # 13 pieces an interval, under the default budget: the reported error
    # covers scipy's quad split at the knots, and an array call equals the
    # calls at each q alone
    edges = np.r_[0.0, p.r] if p.r[0] > 0.0 else p.r
    q = np.r_[0.0, qh, 24.0] / np.max(np.diff(edges))
    value, err = fourier3d(p, q, with_error=True)
    for x, v, e in zip(q, value, err):
        assert fourier3d(p, float(x), with_error=True) == (v, e)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            ref = math.fsum(quad(
                lambda r: 4.0 * np.pi * r * r * evaluate(p, r)
                * np.sinc(x * r / np.pi), a, b, epsabs=0.0, epsrel=1e-13,
                limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))
        assert abs(v - ref) <= e


# the kink table of the partial-wave oracle's known miss
KINK = TabulatedRadial([0.0, 1.0, 2.0, 3.875], [0.0, 0.0, 1.0, 0.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=tables(), at=st.lists(st.floats(0.0, 1.05), min_size=1,
                               max_size=4))
@example(p=KINK, at=[0.1, 0.5, 0.9])
@example(p=TabulatedRadial(KINK.r, KINK.v, "linear"), at=[0.26, 0.52])
def test_table_z_profile_is_within_its_bound_of_the_exact_transform(p, at):
    # b = 0, random b up to past r[-1], and b at, just below and just
    # above the first knots: every w within its bound of a 30-digit
    # transform of the pieces
    knots = p._pieces[0][1:4]
    b = np.concatenate([[0.0], np.array(at) * p.r[-1], knots,
                        np.nextafter(knots, 0.0), np.nextafter(knots, 9.0)])
    got, bound = eikonal._z_profile(p, b)
    exact = _oracles.abel_transform(*p._pieces, b)
    assert np.all(np.abs(got - exact) <= bound)


@st.composite
def extreme_inputs(draw):
    """(Yukawa or Gauss, mass, k) with g of either sign (or 0), and g, the
    range, the mass and k each anywhere from 1e-300 to 1e300."""
    def size():
        return 10.0 ** draw(st.floats(-300.0, 300.0))

    g = draw(st.sampled_from([-1.0, 0.0, 1.0])) * size()
    model = draw(st.sampled_from([Yukawa, Gauss]))
    return model(g, size()), size(), size()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=extreme_inputs())
def test_paper_forms_and_checks_return_or_raise_a_scatter_error(case):
    # under the suite's error::RuntimeWarning filter, so a numpy overflow
    # warning fails here as a raw OverflowError would; theta runs through
    # the Yukawa pole k theta = mu when mu < 0.2 k
    p, mass, k = case
    try:
        kin = Kinematics(mass=mass, k=k)
    except ScatterError as exc:  # v = k/mass underflows to 0
        assert exc.key == "k"
        return
    theta = np.linspace(0.0, 0.2, 9)
    q = momentum_transfer(kin.k, theta)
    for form in (lambda: paper_forms.amplitude(p, kin, theta),
                 lambda: paper_forms.dsigma(p, kin, theta, q),
                 lambda: paper_forms.dsigma_corrected(p, kin, q),
                 lambda: paper_forms.total(p, kin),
                 lambda: paper_forms.total_corrected(p, kin),
                 lambda: paper_formula_checks(p, kin)):
        try:
            form()
        except ScatterError:
            pass


@st.composite
def models(draw):
    """(model, g, size): a Yukawa, a Gauss or a table of the Yukawa's
    shape, g of either sign from 1e-3 to 3, the range from 0.3 to 3."""
    g = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0,
                                                                     0.5))
    size = 10.0 ** draw(st.floats(-0.5, 0.5))
    return draw(st.sampled_from(["yukawa", "gauss", "tabulated"])), g, size


def _table_samples(g, size):
    r = np.linspace(0.0, 8.0 * size, 40)
    v = g * np.exp(-r / size) / np.sqrt(r * r + 0.25 * size * size)
    v[-1] = 0.0
    return r, v


def _potential(model, g, size):
    if model == "yukawa":
        return Yukawa(g, 1.0 / size)
    if model == "gauss":
        return Gauss(g, 1.0 / (size * size))
    return TabulatedRadial(*_table_samples(g, size))


# a float argument: the values to refuse, or one in range
def _floats(lo, hi):
    return st.one_of(st.sampled_from([0.0, -1.0, math.inf, math.nan]),
                     st.floats(lo, hi))


@st.composite
def thetas(draw):
    """1-5 increasing angles in [0, 3], at times from 0 and at times with
    one out of the domain appended, as a list or an array."""
    th = sorted(set(draw(st.lists(st.floats(0.0, 3.0), min_size=1,
                                  max_size=5))))
    if draw(st.booleans()):
        th = [0.0] + [x for x in th if x > 0.0]
    if draw(st.integers(0, 4)) == 0:
        th.append(draw(st.sampled_from([math.nan, -0.1, math.pi, 4.0])))
    return th if draw(st.booleans()) else np.array(th)


def _value_or_scatter_error(call):
    """call()'s value, or None where it raises a ScatterError; any other
    exception, a numpy warning included, fails the test."""
    try:
        return call()
    except ScatterError:
        return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=models(), k=st.floats(0.5, 3.0), k_arg=_floats(0.5, 3.0),
       b=_floats(0.01, 20.0), theta=thetas(),
       count=st.one_of(st.integers(2, 9), st.sampled_from([2.5, math.nan])))
def test_only_scatter_errors_escape_the_amplitude_and_cross_section_api(
        model, k, k_arg, b, theta, count):
    # a returned q or phase is finite: an inf k or a nan b is refused; a
    # fractional or nan angle count passed ThetaGrid and reached numpy
    p, kin = _potential(*model), Kinematics(mass=1.0, k=k)
    q = _value_or_scatter_error(lambda: momentum_transfer(k_arg, theta))
    assert q is None or np.all(np.isfinite(q))
    _value_or_scatter_error(lambda: ThetaGrid(count=count).points())
    for route in (chi, chi_closed):
        x = _value_or_scatter_error(lambda: route(p, kin, b))
        assert x is None or np.all(np.isfinite(x))
    _value_or_scatter_error(lambda: Kinematics(mass=1.0, k=k_arg))
    routes = {
        "eikonal": lambda: amplitude_eikonal(p, kin, theta),
        "born1": lambda: born1_amplitude(p, kin, theta),
        "born_resummed": lambda: born_resummed_amplitude(p, kin, theta),
        "paper_closed": lambda: amplitude_paper_closed(p, kin, theta),
        "partial_wave": lambda: amplitude_partial_wave(phase_shifts(p, kin),
                                                       theta),
    }
    for route in routes.values():
        amp = _value_or_scatter_error(route)
        if amp is not None:
            _value_or_scatter_error(lambda: total_optical(amp, k_arg))
            _value_or_scatter_error(lambda: table_from_amplitudes(amp, k_arg))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(model=models(), k=_floats(0.5, 3.0), theta_max=st.floats(0.1, 3.0),
       count=st.integers(2, 9))
def test_only_scatter_errors_escape_run_scan(model, k, theta_max, count):
    name, g, size = model
    with tempfile.TemporaryDirectory() as tmp:
        if name == "tabulated":
            r, v = _table_samples(g, size)
            np.savetxt(os.path.join(tmp, "table.csv"), np.column_stack(
                [r, v]), delimiter=",")
            potential = "file = table.csv"
        else:
            key, value = ("mu", 1.0 / size) if name == "yukawa" else (
                "alpha", 1.0 / (size * size))
            potential = f"g = {g!r}\n{key} = {value!r}"
        text = (f"[potential]\nmodel = {name}\n{potential}\n"
                f"[kinematics]\nmass = 1.0\nk = {k!r}\n"
                f"[theta_grid]\nmin = 0.0\nmax = {theta_max!r}\n"
                f"count = {count}\n[run]\nsources = eikonal, born1, "
                f"born_resummed, partial_wave, paper_closed\n")
        cfg = _value_or_scatter_error(lambda: parse_config(text, tmp))
        if cfg is not None:
            _value_or_scatter_error(
                lambda: run_scan(cfg, os.path.join(tmp, "out")))
