"""Every scalar parameter of the physics (g, mu, alpha, mass, k) and
of the numerics (tolerances, budgets, angle grid, l_max, r_max, dr, a
Hankel transform's upper limit, a Bessel or Legendre row's order) refuses
a str, None (where None does not mean auto), a complex, a bool, nan, +-inf,
an int past the float range and a value out of its range with a
ScatterError whose key names that parameter; through parse_config the key
is section.name. An array argument (an angle, an impact parameter, a
radius, a momentum transfer, a Bessel argument, a table's samples, a
spline's pieces, a cross-section table's rows, an amplitude's angle and
error estimate) refuses in the same way what numpy cannot read as floats,
and any element outside the bounds it passes to errors.reals, nan
included. A refusal of an array's structure (its shape, its sample count,
the order of its elements) names it too. A function of one array argument
gives a float for a 0-d array, as for a float."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab._spline import natural_cubic
from scatterlab.config import PartialWaveOptions, ThetaGrid, parse_config
from scatterlab.cross_sections import (CrossSectionTable, total_integrated,
                                       total_optical)
from scatterlab.eikonal import (Amplitude, Kinematics, chi, chi_closed,
                                momentum_transfer)
from scatterlab.errors import ConfigError, ScatterError
from scatterlab.partial_wave import PhaseShiftSet, phase_shifts
from scatterlab.potentials import (Gauss, TabulatedRadial, Yukawa, evaluate,
                                   fourier3d)
from scatterlab.quadrature import (QuadratureSettings, hankel0,
                                   integrate_adaptive, integrate_sin)
from scatterlab.runner import RunManifest
from scatterlab.special_functions import (bessel_j0, bessel_k0, j0_zeros,
                                          legendre_p_row, log,
                                          spherical_bessel_row)

_P, _KIN = Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=1.0)
_F0 = Amplitude(theta=0.0, q=0.0, value=1j)

# one value of each kind that is not a finite real number
_WRONG_KINDS = ["1.0", None, 1 + 0j, True, False, math.nan, math.inf,
                -math.inf, 10**400]
_NOT_NUMBERS = st.one_of(st.text(max_size=4), st.complex_numbers(),
                         st.booleans(),
                         st.sampled_from([math.nan, math.inf, -math.inf]))
_ANY = st.nothing()  # every finite real number is in range
_NOT_POSITIVE = st.floats(max_value=0.0)
_NEGATIVE = st.floats(max_value=-1e-300)


def _not_integer(minimum, maximum=None):
    """Integers below minimum or above maximum, and floats of any value."""
    above = st.nothing() if maximum is None \
        else st.integers(min_value=maximum + 1)
    return st.one_of(st.integers(max_value=minimum - 1), above, st.floats())


def _shifts(**kw):
    fields = dict(k=1.0, l_max=0, delta=[0.0], delta_coarse=[0.0],
                  r_max=20.0, dr=0.01)
    return PhaseShiftSet(**{**fields, **kw})


# name -> (call with the value, key, values out of range, None means auto)
CASES = {
    "Kinematics.mass": (lambda x: Kinematics(mass=x, k=1.0), "mass",
                        _NOT_POSITIVE, False),
    "Kinematics.k": (lambda x: Kinematics(mass=1.0, k=x), "k",
                     _NOT_POSITIVE, False),
    "momentum_transfer.k": (lambda x: momentum_transfer(x, 0.1), "k",
                            _NOT_POSITIVE, False),
    "total_optical.k": (lambda x: total_optical(_F0, x), "k", _NOT_POSITIVE,
                        False),
    "Yukawa.g": (lambda x: Yukawa(x, 1.0), "g", _ANY, False),
    "Yukawa.mu": (lambda x: Yukawa(0.5, x), "mu", _NOT_POSITIVE, False),
    "Gauss.g": (lambda x: Gauss(x, 1.0), "g", _ANY, False),
    "Gauss.alpha": (lambda x: Gauss(0.5, x), "alpha", _NOT_POSITIVE, False),
    "QuadratureSettings.rel_tol": (lambda x: QuadratureSettings(rel_tol=x),
                                   "rel_tol", _NOT_POSITIVE, False),
    "QuadratureSettings.abs_tol": (lambda x: QuadratureSettings(abs_tol=x),
                                   "abs_tol", _NOT_POSITIVE, False),
    "QuadratureSettings.max_subdivisions": (
        lambda x: QuadratureSettings(max_subdivisions=x), "max_subdivisions",
        _not_integer(8), False),
    "hankel0.upper": (lambda x: hankel0(np.exp, 0.5, x), "upper",
                      _NOT_POSITIVE, False),
    "integrate_adaptive.a": (lambda x: integrate_adaptive(np.exp, x, 1.0),
                             "a", _ANY, False),
    "integrate_adaptive.b": (lambda x: integrate_adaptive(np.exp, 0.0, x),
                             "b", _ANY, False),
    "ThetaGrid.min": (lambda x: ThetaGrid(min=x), "min", _NEGATIVE, False),
    "ThetaGrid.max": (lambda x: ThetaGrid(max=x), "max",
                      st.one_of(st.floats(min_value=math.pi),
                                st.floats(max_value=0.0)), False),
    "ThetaGrid.count": (lambda x: ThetaGrid(count=x), "count",
                        _not_integer(2, 1 << 16), False),
    "PartialWaveOptions.l_max": (lambda x: PartialWaveOptions(l_max=x),
                                 "l_max", _not_integer(0), True),
    "PartialWaveOptions.r_max": (lambda x: PartialWaveOptions(r_max=x),
                                 "r_max", _NOT_POSITIVE, True),
    "PartialWaveOptions.dr": (lambda x: PartialWaveOptions(dr=x), "dr",
                              _NOT_POSITIVE, True),
    "phase_shifts.l_max": (lambda x: phase_shifts(_P, _KIN, l_max=x),
                           "l_max", _not_integer(0), True),
    "phase_shifts.r_max": (lambda x: phase_shifts(_P, _KIN, r_max=x),
                           "r_max", _NOT_POSITIVE, True),
    # k dr must stay below 0.1
    "phase_shifts.dr": (lambda x: phase_shifts(_P, _KIN, dr=x), "dr",
                        st.one_of(_NOT_POSITIVE, st.floats(min_value=0.1)),
                        True),
    "PhaseShiftSet.k": (lambda x: _shifts(k=x), "k", _NOT_POSITIVE, False),
    "PhaseShiftSet.l_max": (lambda x: _shifts(l_max=x), "l_max",
                            _not_integer(0), False),
    "PhaseShiftSet.r_max": (lambda x: _shifts(r_max=x), "r_max",
                            _NOT_POSITIVE, False),
    "PhaseShiftSet.dr": (lambda x: _shifts(dr=x), "dr", _NOT_POSITIVE,
                         False),
    "PhaseShiftSet.tail_ratio": (lambda x: _shifts(tail_ratio=x),
                                 "tail_ratio",
                                 st.one_of(_NEGATIVE,
                                           st.floats(min_value=1.0)), False),
    "legendre_p_row.l_max": (lambda x: legendre_p_row(x, 0.5), "l_max",
                             _not_integer(0), False),
    "spherical_bessel_row.l_max": (lambda x: spherical_bessel_row(x, 1.0),
                                   "l_max", _not_integer(0), False),
    "spherical_bessel_row.x": (lambda x: spherical_bessel_row(3, x), "x",
                               _NOT_POSITIVE, False),
}


def _assert_refused(call, value, key):
    with pytest.raises(ScatterError) as err:
        call(value)
    assert err.value.key == key, (value, err.value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_value_of_each_wrong_kind_is_refused_by_its_key(name):
    call, key, _, auto = CASES[name]
    for value in _WRONG_KINDS:
        if not (value is None and auto):
            _assert_refused(call, value, key)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_drawn_bad_value_is_refused_by_its_key(name, data):
    call, key, out_of_range, _ = CASES[name]
    _assert_refused(call, data.draw(st.one_of(_NOT_NUMBERS, out_of_range)),
                    key)


# section.key -> values out of range, written into a valid config by repr
CONFIG_CASES = {
    "potential.g": _ANY,
    "potential.mu": _NOT_POSITIVE,
    "potential.alpha": _NOT_POSITIVE,
    "kinematics.mass": _NOT_POSITIVE,
    "kinematics.k": _NOT_POSITIVE,
    "theta_grid.min": _NEGATIVE,
    "theta_grid.max": CASES["ThetaGrid.max"][2],
    "theta_grid.count": CASES["ThetaGrid.count"][2],
    "quadrature.rel_tol": _NOT_POSITIVE,
    "quadrature.abs_tol": _NOT_POSITIVE,
    "quadrature.max_subdivisions": _not_integer(8),
    "partial_wave.l_max": _not_integer(0),
    "partial_wave.r_max": _NOT_POSITIVE,
    "partial_wave.dr": _NOT_POSITIVE,
}


def _config(where, raw):
    """A valid config with the key at where (section.key) set to raw."""
    section, key = where.split(".")
    potential = {"model": "yukawa", "g": "0.5", "mu": "1.0"}
    if key == "alpha":
        potential = {"model": "gauss", "g": "0.5", "alpha": "1.0"}
    sections = {"potential": potential,
                "kinematics": {"mass": "1.0", "k": "1.0"}}
    sections.setdefault(section, {})[key] = raw
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.mark.parametrize("where", sorted(CONFIG_CASES))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_bad_config_value_is_refused_by_section_and_key(where, data):
    non_finite = ("nan", "inf", "-inf")
    drawn = data.draw(st.one_of(st.sampled_from(non_finite),
                                CONFIG_CASES[where].map(repr)))
    for raw in (*non_finite, drawn):
        with pytest.raises(ConfigError) as err:
            parse_config(_config(where, raw))
        assert err.value.key == where, (raw, err.value)


# values out of an array argument's bounds
_FINITE = [math.nan, math.inf, -math.inf]  # the bounds +-MAX_FLOAT
_FROM_0 = [math.nan, -1.0, -math.inf]  # the bounds [0, inf]
_FROM_0_FINITE = _FROM_0 + [math.inf]  # the bounds [0, MAX_FLOAT]


def _rows(x):
    """Rows covering [0, pi] whose row 4 has x for its dsigma."""
    theta = np.linspace(0.0, math.pi, 9)
    rows = [[t, 2.0 * math.sin(0.5 * t), 1.0, 0.0, 1.0] for t in theta]
    rows[4][4] = x
    return rows


_TABLE_R, _TABLE_V = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.0]

# name -> (call with the value, key, values out of range) for an array
# argument: anything numpy reads as floats inside its bounds is its value,
# and the rest is refused by key
ARRAY_CASES = {
    "momentum_transfer.theta": (lambda x: momentum_transfer(1.0, x),
                                "theta",
                                _FROM_0 + [math.inf, 3.2,
                                           math.nextafter(math.pi, 4.0)]),
    "chi.b": (lambda x: chi(_P, _KIN, x), "b", _FROM_0_FINITE),
    "chi_closed.b": (lambda x: chi_closed(_P, _KIN, x), "b",
                     _FROM_0_FINITE),
    "evaluate.r": (lambda x: evaluate(_P, x), "r", _FROM_0),
    "fourier3d.q": (lambda x: fourier3d(_P, x), "q", _FROM_0),
    "hankel0.q": (lambda x: hankel0(np.exp, x, 1.0), "q", _FROM_0_FINITE),
    "bessel_j0.x": (bessel_j0, "x", _FINITE),
    "bessel_k0.x": (bessel_k0, "x", _FINITE + [-1.0, 0.0, -0.0]),
    "TabulatedRadial.r": (lambda x: TabulatedRadial(r=[x, *_TABLE_R[1:]],
                                                    v=_TABLE_V),
                          "r", _FROM_0_FINITE),
    "TabulatedRadial.v": (lambda x: TabulatedRadial(
        r=_TABLE_R, v=[1.0, x, *_TABLE_V[2:]]), "v", _FINITE),
    "integrate_sin.q": (lambda x: integrate_sin(x, [0.0], [1.0], [[1.0]]),
                        "q", _FROM_0_FINITE),
    "integrate_sin.lo": (lambda x: integrate_sin(1.0, x, [1.0], [[1.0]]),
                         "lo", _FINITE),
    # hi refuses a value below lo too
    "integrate_sin.hi": (lambda x: integrate_sin(1.0, [0.0], x, [[1.0]]),
                         "hi", _FINITE + [-1.0]),
    "integrate_sin.coef": (lambda x: integrate_sin(1.0, [0.0], [1.0], x),
                           "coef", _FINITE),
    "integrate_sin.origin": (
        lambda x: integrate_sin(1.0, [0.0], [1.0], [[1.0]], origin=x),
        "origin", _FINITE),
    "total_integrated.rows": (lambda x: total_integrated(_rows(x)), "rows",
                              _FINITE),
    "PhaseShiftSet.delta": (lambda x: _shifts(delta=[x]), "delta", _FINITE),
    "PhaseShiftSet.delta_coarse": (lambda x: _shifts(delta_coarse=[x]),
                                   "delta_coarse", _FINITE),
    # a table's other cells may be nan, on a pole row
    "CrossSectionTable.rows": (lambda x: _table([[x, 0.0, 0.0, 0.0, 0.0]]),
                               "rows", _FINITE),
    "Amplitude.theta": (lambda x: Amplitude(theta=x, q=0.0, value=1j),
                        "theta", _FROM_0 + [math.inf, 3.2]),
    "Amplitude.error_estimate": (lambda x: Amplitude(
        theta=0.0, q=0.0, value=1j, error_estimate=x), "error_estimate",
        _FROM_0),
}

# the cases whose value may itself be a 1-d array
_ELEMENTWISE = {"momentum_transfer.theta", "chi.b", "chi_closed.b",
                "evaluate.r", "fourier3d.q", "hankel0.q", "bessel_j0.x",
                "bessel_k0.x", "integrate_sin.q", "Amplitude.theta",
                "Amplitude.error_estimate"}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
@pytest.mark.parametrize("value", ["one", ["0.5", "x"], 1 + 1j, object(),
                                   10**400],
                         ids=["str", "str-list", "complex", "object",
                              "huge-int"])
def test_an_array_argument_numpy_cannot_read_is_refused_by_its_key(name,
                                                                   value):
    call, key, _ = ARRAY_CASES[name]
    _assert_refused(call, value, key)


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_an_array_argument_out_of_its_bounds_is_refused_by_its_key(name):
    call, key, out_of_range = ARRAY_CASES[name]
    for value in out_of_range:
        _assert_refused(call, value, key)
        if name in _ELEMENTWISE:
            _assert_refused(call, [0.5, value], key)


# name -> (call, key) of a refusal of an argument's structure
STRUCTURE_CASES = {
    "natural_cubic.x.ndim": (lambda: natural_cubic([[0.0, 1.0]],
                                                   [[0.0, 1.0]]), "x"),
    "natural_cubic.y.shape": (lambda: natural_cubic([0.0, 1.0, 2.0],
                                                    [0.0, 1.0]), "y"),
    "natural_cubic.x.size": (lambda: natural_cubic([0.0], [1.0]), "x"),
    "natural_cubic.x.order": (lambda: natural_cubic([0.0, 2.0, 1.0],
                                                    [0.0, 1.0, 2.0]), "x"),
    "TabulatedRadial.r.ndim": (lambda: TabulatedRadial(r=[_TABLE_R],
                                                       v=[_TABLE_V]), "r"),
    "TabulatedRadial.v.shape": (lambda: TabulatedRadial(r=_TABLE_R,
                                                        v=_TABLE_V[:3]),
                                "v"),
    "TabulatedRadial.r.size": (lambda: TabulatedRadial(r=_TABLE_R[:3],
                                                       v=_TABLE_V[:3]), "r"),
    "TabulatedRadial.r.order": (lambda: TabulatedRadial(
        r=[0.0, 2.0, 1.0, 3.0], v=_TABLE_V), "r"),
    "TabulatedRadial.v.decay": (lambda: TabulatedRadial(
        r=_TABLE_R, v=[1.0, 0.5, 0.2, 0.1]), "v"),
    "CrossSectionTable.rows.shape": (lambda: _table(np.zeros((3, 4))),
                                     "rows"),
    "CrossSectionTable.rows.empty": (lambda: _table(np.zeros((0, 5))),
                                     "rows"),
    "CrossSectionTable.rows.ragged": (lambda: _table(
        [[0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]), "rows"),
    "CrossSectionTable.rows.order": (lambda: _table(np.array(_rows(1.0))
                                                    [::-1]), "rows"),
    "CrossSectionTable.rows.dsigma": (lambda: _table(
        [[0.0, 0.0, 0.0, 0.0, -1.0]]), "rows"),
    "CrossSectionTable.rows.invariant": (lambda: _table(
        [[0.0, 0.0, 1.0, 0.0, 2.0]]), "rows"),
    "total_integrated.rows.shape": (lambda: total_integrated(
        np.zeros((9, 4))), "rows"),
    "total_integrated.rows.empty": (lambda: total_integrated(
        np.zeros((0, 5))), "rows"),
    "total_integrated.rows.cover": (lambda: total_integrated(
        _rows(1.0)[:8]), "rows"),
    "total_optical.f0": (lambda: total_optical(
        Amplitude(theta=0.1, q=0.1, value=1j), 1.0), "f0"),
    "PhaseShiftSet.delta.shape": (lambda: _shifts(delta=[0.0, 0.0]),
                                  "delta"),
    "PhaseShiftSet.delta_coarse.shape": (lambda: _shifts(
        delta_coarse=[0.0, 0.0]), "delta_coarse"),
    "phase_shifts.kin": (lambda: phase_shifts(_P, 1.0), "kin"),
    "integrate_adaptive.b.order": (lambda: integrate_adaptive(np.exp, 1.0,
                                                              0.0), "b"),
    "j0_zeros.n": (lambda: j0_zeros(-1), "n"),
    "RunManifest.csv_files": (lambda: RunManifest(
        version="0", config_lines=(), outcomes=(), verdicts=(), warnings=(),
        csv_files=("a.csv", "a.csv"), aux_files=(), output_dir="."),
        "csv_files"),
}


def _table(rows):
    return CrossSectionTable(rows=rows, total_integrated=1.0,
                             total_optical=1.0)


@pytest.mark.parametrize("name", sorted(STRUCTURE_CASES))
def test_a_refusal_of_an_argument_s_structure_names_it(name):
    call, key = STRUCTURE_CASES[name]
    with pytest.raises(ScatterError) as err:
        call()
    assert err.value.key == key, err.value


@pytest.mark.parametrize("call", [
    bessel_j0, bessel_k0, log, lambda x: evaluate(_P, x),
    lambda x: fourier3d(_P, x), lambda x: chi(_P, _KIN, x),
    lambda x: chi_closed(_P, _KIN, x)],
    ids=["bessel_j0", "bessel_k0", "log", "evaluate", "fourier3d", "chi",
         "chi_closed"])
def test_a_0d_array_gives_a_float(call):
    assert type(call(np.array(0.5))) is float
    assert call(np.array(0.5)) == call(0.5)
