"""Every scalar parameter of the physics (g, mu, alpha, mass, k) and
of the numerics (tolerances, budgets, angle grid, l_max, r_max, dr, a
Hankel transform's upper limit, a Bessel or Legendre row's order) refuses
a str, None (where None does not mean auto), a complex, a bool, nan, +-inf
and a value out of its range with a ScatterError whose key names that
parameter; through parse_config the key is section.name. An array argument
(a radius, a momentum transfer, a Bessel argument, a spline's pieces, a
cross-section table's rows) refuses what numpy cannot read as floats in
the same way."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatterlab.config import PartialWaveOptions, ThetaGrid, parse_config
from scatterlab.cross_sections import total_integrated, total_optical
from scatterlab.eikonal import Amplitude, Kinematics, momentum_transfer
from scatterlab.errors import ConfigError, ScatterError
from scatterlab.partial_wave import PhaseShiftSet, phase_shifts
from scatterlab.potentials import Gauss, Yukawa, evaluate, fourier3d
from scatterlab.quadrature import (QuadratureSettings, hankel0,
                                   integrate_adaptive, integrate_sin)
from scatterlab.special_functions import (bessel_j0, bessel_k0,
                                          legendre_p_row,
                                          spherical_bessel_row)

_P, _KIN = Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=1.0)
_F0 = Amplitude(theta=0.0, q=0.0, value=1j)

# one value of each kind that is not a finite real number
_WRONG_KINDS = ["1.0", None, 1 + 0j, True, False, math.nan, math.inf,
                -math.inf]
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


# name -> (call with the value, key) for an array argument: anything numpy
# reads as floats is its value, and what it cannot read is refused by key
ARRAY_CASES = {
    "evaluate.r": (lambda x: evaluate(_P, x), "r"),
    "fourier3d.q": (lambda x: fourier3d(_P, x), "q"),
    "bessel_j0.x": (bessel_j0, "x"),
    "bessel_k0.x": (bessel_k0, "x"),
    "integrate_sin.lo": (lambda x: integrate_sin(1.0, x, [1.0], [[1.0]]),
                         "lo"),
    "integrate_sin.hi": (lambda x: integrate_sin(1.0, [0.0], x, [[1.0]]),
                         "hi"),
    "integrate_sin.coef": (lambda x: integrate_sin(1.0, [0.0], [1.0], x),
                           "coef"),
    "integrate_sin.origin": (
        lambda x: integrate_sin(1.0, [0.0], [1.0], [[1.0]], origin=x),
        "origin"),
    "total_integrated.rows": (total_integrated, "rows"),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
@pytest.mark.parametrize("value", ["one", ["0.5", "x"], 1 + 1j, object()],
                         ids=["str", "str-list", "complex", "object"])
def test_an_array_argument_numpy_cannot_read_is_refused_by_its_key(name,
                                                                   value):
    call, key = ARRAY_CASES[name]
    _assert_refused(call, value, key)
