"""Tests for the partial-wave phase-shift oracle."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from scatterlab import partial_wave, potentials
from scatterlab.config import parse_config
from scatterlab.eikonal import Kinematics, amplitude_eikonal
from scatterlab.errors import ConvergenceError, DomainError, RangeError
from scatterlab.partial_wave import (PhaseShiftSet, amplitude_partial_wave,
                                     phase_shifts)
from scatterlab.potentials import (Gauss, TabulatedRadial, Yukawa,
                                   effective_radius)

import _oracles
import _pw_reference
from _oracles import square_well_delta0

KIN2 = Kinematics(mass=1.0, k=2.0)
_R13 = np.linspace(0.0, 6.0, 13)
# the effective radius's cases: a table whose spline crosses zero inside
# four knot intervals, one starting at r[0] > 0, a linear one, and one whose
# samples change sign
_R_EFF_CASES = [
    Yukawa(0.5, 1.0), Gauss(1.0, 1.0),
    TabulatedRadial(_R13, np.r_[np.exp(-np.linspace(0.0, 5.5, 12) ** 2),
                                0.0]),
    TabulatedRadial(_R13[1:] + 0.25, np.r_[np.exp(-0.5 * _R13[1:-1]), 0.0]),
    TabulatedRadial(_R13, np.r_[np.exp(-0.4 * _R13[:-1] ** 2), 0.0],
                    interpolation="linear"),
    TabulatedRadial(_R13, np.r_[np.cos(1.5 * _R13[:-1])
                                * np.exp(-0.5 * _R13[:-1]), 0.0]),
]
# a narrow well on [2.9, 3.1] deep enough to turn l = 400 back at k = 10:
# the start rule stops its exponent there, so the wave starts near 2.6, and
# from the well on it grows by more than e^709 before a matching radius 34
_WELL_TABLE = TabulatedRadial(np.array([0.0, 2.8, 2.9, 3.1, 3.2, 3.5]),
                              np.array([0.0, 0.0, -9e3, -9e3, 0.0, 0.0]),
                              interpolation="linear")
_RIPPLED_R = np.linspace(0.0, 8.0, 200)
_RIPPLED_TABLE = TabulatedRadial(
    _RIPPLED_R, np.r_[-1.5 * np.exp(-0.5 * _RIPPLED_R[:-1] ** 2)
                      * (1.0 + 0.1 * np.sin(7.0 * _RIPPLED_R[:-1])), 0.0])


def _count_sweeps(monkeypatch):
    """The wave count of every _sweep_grids call from here on: one per
    pass, which steps its waves on all three grids."""
    calls = []
    sweep = partial_wave._sweep_grids

    def counted(*args):
        calls.append(args[2].size)
        return sweep(*args)

    monkeypatch.setattr(partial_wave, "_sweep_grids", counted)
    return calls


def _spy_starts(monkeypatch):
    """The (arguments, starts) of every _wave_starts call from here on."""
    calls = []
    rule = partial_wave._wave_starts

    def spied(*args):
        calls.append((args, rule(*args)))
        return calls[-1][1]

    monkeypatch.setattr(partial_wave, "_wave_starts", spied)
    return calls


def _shifts(delta, **kw):
    """A PhaseShiftSet whose coarse extrapolation equals delta."""
    delta = np.asarray(delta, dtype=float)
    fields = dict(k=1.0, l_max=delta.size - 1, delta=delta,
                  delta_coarse=delta, r_max=20.0, dr=0.01)
    return PhaseShiftSet(**{**fields, **kw})


class TestPhaseShiftSet:
    def test_valid_construction(self):
        ps = _shifts([0.1, 0.01, 1e-9])
        assert ps.delta.shape == ps.delta_coarse.shape == (3,)

    def test_tail_must_be_converged(self):
        with pytest.raises(DomainError):
            _shifts([0.1, 0.01, 1e-3])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            _shifts([0.1, 0.01, 0.0], l_max=3)

    def test_coarse_shifts_match_delta(self):
        with pytest.raises(DomainError, match="delta_coarse"):
            _shifts([0.1, 0.0], delta_coarse=np.array([0.1]))
        with pytest.raises(DomainError, match="delta_coarse"):
            _shifts([0.1, 0.0], delta_coarse=np.array([0.1, np.nan]))

    def test_tail_error_is_one_bound_a_wave(self):
        # zeros by default; one non-negative finite bound a wave otherwise
        assert _shifts([0.1, 0.0]).tail_error.tolist() == [0.0, 0.0]
        ps = _shifts([0.1, 0.0], tail_error=[1e-12, 0.0])
        assert ps.tail_error.tolist() == [1e-12, 0.0]
        for bad in ([1e-12], [-1e-12, 0.0], [np.nan, 0.0], "a"):
            with pytest.raises(DomainError) as err:
                _shifts([0.1, 0.0], tail_error=bad)
            assert err.value.key == "tail_error"

    def test_bad_scalars(self):
        with pytest.raises(DomainError):
            _shifts([0.1, 0.0], k=-1.0)
        with pytest.raises(DomainError):
            _shifts([0.1, 0.0], r_max=0.0)


class TestEffectiveRadius:
    def test_yukawa_value(self):
        # int_0^R r e^{-r} dr reaches 99.99% when e^{-R}(1+R) = 1e-4,
        # whose root is R = 11.756...
        got = effective_radius(Yukawa(0.5, 1.0))
        want = 11.7564
        # locate the root accurately for the comparison
        from scipy.optimize import brentq
        want = brentq(lambda R: math.exp(-R) * (1 + R) - 1e-4, 5.0, 20.0)
        assert got == pytest.approx(want, abs=1e-3)

    def test_gauss_bracket(self):
        got = effective_radius(Gauss(1.0, 1.0))
        assert 2.0 < got < 5.0

    def test_tabulated_within_support(self):
        r = np.linspace(0.0, 6.0, 500)
        v = np.exp(-r * r)
        v[-1] = 0.0
        got = effective_radius(TabulatedRadial(r, v))
        assert 0.0 < got <= 6.0

    @pytest.mark.parametrize("p", _R_EFF_CASES)
    def test_matches_the_80_step_search_and_a_tight_reference(self, p):
        got = effective_radius(p)
        tight = _oracles.effective_radius_tight(p)
        # the 13-knot table's spline crosses zero four times inside its
        # knot intervals (r = 4.0125, 4.4993, 5.00002, 5.49999996), kinks
        # of |V| at which its weight's pieces end: 4e-14 off, where GK15
        # across the kink at 4.4993 was 4.5e-8 off. The 80-step search
        # still integrates across them and is 8e-8 off
        assert got == pytest.approx(tight, rel=1e-11, abs=0.0)
        if not isinstance(p, TabulatedRadial):
            assert got == pytest.approx(_oracles.effective_radius(p),
                                        rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("p", _R_EFF_CASES)
    def test_is_the_least_float_whose_weight_reaches_the_target(self, p):
        # bisection down to adjacent floats on the exact weight W: W(r)
        # reaches 0.9999 W(R), R = reach(p), and the float below r does not
        weight = potentials._weight(p)
        upper = potentials.reach(p)[0]
        target = 0.9999 * weight(upper)
        r = effective_radius(p)
        assert weight(r) >= target > weight(math.nextafter(r, 0.0))
        # W is exact: up to a constant factor it is scipy's quad between
        # the kinks of |V|, at any radius
        whole = _oracles.weight(p, 0.0, upper)
        for x in (0.3 * r, r, 0.5 * (r + upper)):
            assert weight(x) / weight(upper) == pytest.approx(
                _oracles.weight(p, 0.0, x) / whole, rel=0.0, abs=1e-13)


class TestPhaseShifts:
    def test_zero_potential_gives_zero_shifts(self):
        ps = phase_shifts(Yukawa(0.0, 1.0), KIN2)
        assert np.all(ps.delta == 0.0)

    def test_square_well_matches_analytic(self):
        # attractive well V = -1 for r < 1 at k = 1; the table ramps the
        # edge over one 2e-4 sample gap, worth ~1e-4 in tan(delta)
        r = np.arange(1e-4, 1.3, 2e-4)
        v = np.where(r <= 1.0, -1.0, 0.0)
        v[-1] = 0.0
        p = TabulatedRadial(r, v, interpolation="linear")
        ps = phase_shifts(p, Kinematics(mass=1.0, k=1.0))
        exact = square_well_delta0(1.0, 1.0, 1.0)
        # the solver reports delta mod pi in (-pi/2, pi/2]
        exact -= math.pi * round(exact / math.pi)
        assert ps.delta[0] == pytest.approx(exact, abs=1e-4)

    @pytest.mark.parametrize("k", [0.3, 1.0, 7.0, 30.0])
    def test_a_table_s_automatic_step_puts_its_last_knot_on_the_grid(self,
                                                                      k):
        # for a cubic table from r = 0, dr = r[-1]/(4 n), the least n with
        # dr <= min(0.06/k, 0.01); an explicit dr is kept, and so is
        # min(0.06/k, 0.01) for a linear table or one from r[0] > 0, which
        # have kinks besides the last knot
        r, v = np.array([0.0, 1.0, 2.0, 3.875]), np.array([0.0, 0.0, 1.0, 0.0])
        p = TabulatedRadial(r, v)
        kin = Kinematics(mass=1.0, k=k)
        dr0 = min(0.06 / k, 0.01)
        ps = phase_shifts(p, kin)
        n = 3.875 / (4.0 * ps.dr)
        assert ps.dr <= dr0 < 3.875 / (4.0 * (round(n) - 1))
        assert n == pytest.approx(round(n), abs=1e-9)
        assert phase_shifts(p, kin, dr=dr0 / 3).dr == dr0 / 3
        for other in (TabulatedRadial(r, v, interpolation="linear"),
                      TabulatedRadial(r + 0.5, v)):
            assert phase_shifts(other, kin).dr == dr0

    def test_the_kink_table_s_error_covers_finer_steps(self):
        # the cubic table's last knot is a kink of V; on a grid through it
        # the reported error covers the move at dr/2 and dr/8 (0.20 and
        # 0.26 of it); with dr = 0.01 the knot fell between grid points and
        # the move at dr/2 was 1.64 times the error
        p = TabulatedRadial(np.array([0.0, 1.0, 2.0, 3.875]),
                            np.array([0.0, 0.0, 1.0, 0.0]))
        kin = Kinematics(mass=1.0, k=1.0)
        theta = np.linspace(0.0, np.pi, 241)
        ps = phase_shifts(p, kin)
        got = amplitude_partial_wave(ps, theta)
        for div in (2.0, 8.0):
            fine = phase_shifts(p, kin, l_max=ps.l_max, r_max=ps.r_max,
                                dr=ps.dr / div)
            ref = amplitude_partial_wave(fine, theta)
            assert np.all(np.abs(got.value - ref.value)
                          <= got.error_estimate)

    def test_weak_coupling_matches_born_integral(self):
        # delta_l ~ -2mk int V j_l^2 r^2 dr at weak coupling
        g, mu, k = 0.01, 1.0, 2.0
        ps = phase_shifts(Yukawa(g, mu), KIN2)
        for l in range(9):
            born = -2.0 * k * quad(
                lambda r: g * np.exp(-mu * r) / r
                * spherical_jn(l, k * r) ** 2 * r * r,
                0.0, 60.0, limit=300)[0]
            assert ps.delta[l] == pytest.approx(born, rel=1e-2)

    def test_unitarity_identity(self):
        # 4pi/k^2 sum (2l+1) sin^2 delta = (4pi/k) Im f(0), exactly
        for p, k in ((Yukawa(0.5, 1.0), 5.0), (Gauss(1.0, 1.0), 10.0)):
            kin = Kinematics(mass=1.0, k=k)
            ps = phase_shifts(p, kin)
            l = np.arange(ps.l_max + 1)
            sigma_sum = 4 * np.pi / k**2 * np.sum(
                (2 * l + 1) * np.sin(ps.delta) ** 2)
            sigma_opt = 4 * np.pi / k * amplitude_partial_wave(
                ps, 0.0).value.imag
            assert sigma_sum == pytest.approx(sigma_opt, rel=1e-10)

    def test_discretization_convergence(self):
        p = Yukawa(0.5, 1.0)
        ps1 = phase_shifts(p, KIN2)
        ps2 = phase_shifts(p, KIN2, dr=ps1.dr / 2)
        ps3 = phase_shifts(p, KIN2, r_max=ps1.r_max * 1.5)
        n = min(ps1.l_max, ps2.l_max, ps3.l_max) + 1
        assert np.max(np.abs(ps1.delta[:n] - ps2.delta[:n])) < 1e-8
        assert np.max(np.abs(ps1.delta[:n] - ps3.delta[:n])) < 1e-8

    def test_sign_sanity_at_low_k(self):
        kin = Kinematics(mass=1.0, k=0.3)
        assert phase_shifts(Yukawa(-0.3, 1.0), kin).delta[0] > 0.0
        assert phase_shifts(Yukawa(0.3, 1.0), kin).delta[0] < 0.0

    def test_undecayed_r_max_rejected(self):
        with pytest.raises(RangeError):
            phase_shifts(Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=1.0),
                         r_max=5.0)

    def test_grid_beyond_the_limit_fails_before_any_sweep(self,
                                                          monkeypatch):
        # Yukawa(0.5, 1e-6) at k = 1 decays only at r_max = 1.18e7: its fine
        # grid would hold 1.2e9 points, 9.4 GB an array
        def refused(*args):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(partial_wave, "_sweep_grids", refused)
        with pytest.raises(RangeError, match=r"1,175,\d{3},\d{3} points") \
                as err:
            phase_shifts(Yukawa(0.5, 1e-6), Kinematics(mass=1.0, k=1.0))
        assert err.value.key == "r_max"
        with pytest.raises(RangeError, match="points") as err:
            phase_shifts(Yukawa(0.5, 1.0), KIN2, r_max=1e5)
        assert err.value.key == "r_max"

    def test_sweep_work_beyond_the_limit_fails_before_any_sweep(
            self, monkeypatch):
        # Yukawa(0.5, 1e-3) at k = 1: 1.8e6 points, within the grid's
        # limit, but up to 12,184 waves on them, 2.2e10 wave-points
        def refused(*args):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(partial_wave, "_sweep_grids", refused)
        p, kin = Yukawa(0.5, 1e-3), Kinematics(mass=1.0, k=1.0)
        with pytest.raises(RangeError, match="12,184 waves") as err:
            phase_shifts(p, kin)
        assert err.value.key == "r_max"
        with pytest.raises(RangeError, match="20,001 waves") as err:
            phase_shifts(p, kin, l_max=20000)
        assert err.value.key == "l_max"
        # the heaviest inputs below the limit, 3.2e8 and 4.7e8 wave-points,
        # still sweep
        for p, k in ((Yukawa(0.5, 0.01), 1.0), (Yukawa(0.5, 0.1), 30.0)):
            with pytest.raises(AssertionError, match="a sweep started"):
                phase_shifts(p, Kinematics(mass=1.0, k=k))

    def test_r_max_needs_two_coarse_steps(self):
        # r_max rounds onto the 4 dr grid, whose sweep needs two steps
        with pytest.raises(DomainError, match="8 dr"):
            phase_shifts(Yukawa(0.5, 1.0), KIN2, r_max=0.05, dr=0.01)

    def test_step_size_guards(self):
        with pytest.raises(DomainError):
            phase_shifts(Yukawa(0.5, 1.0), KIN2, dr=0.06)  # k dr = 0.12
        with pytest.raises(DomainError):
            phase_shifts(Yukawa(0.5, 1.0), KIN2, dr=-0.001)

    @pytest.mark.parametrize("key", ["dr", "r_max", "l_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_knobs_are_named(self, key, value):
        with pytest.raises(DomainError) as err:
            phase_shifts(Yukawa(0.5, 1.0), KIN2, **{key: value})
        assert err.value.key == key

    def test_explicit_l_max_too_small(self):
        # the tail invariant rejects a truncation that cuts live waves, and
        # blames l_max by key, not only in its text
        for l_max in (5, 20):
            with pytest.raises(DomainError, match="increase l_max") as err:
                phase_shifts(Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=10.0),
                             l_max=l_max)
            assert err.value.key == "l_max"

    def test_auto_r_max_round_trips(self):
        # the automatic r_max lands on the dr grid at or beyond the decay
        # point, so passing it back is accepted and changes nothing
        p, kin = Yukawa(0.48829, 1.0), Kinematics(mass=1.0, k=10.0)
        ps = phase_shifts(p, kin)
        again = phase_shifts(p, kin, r_max=ps.r_max, dr=ps.dr)
        assert again.r_max == ps.r_max
        assert again.l_max == ps.l_max
        assert again.delta.tobytes() == ps.delta.tobytes()

    @pytest.mark.parametrize("k, l_max, r_max", [
        (1.0, 22, 24.52), (5.0, 85, 21.52), (10.0, 144, 20.28),
        (20.0, 278, 18.768), (30.0, 411, 18.008),
    ])
    def test_auto_l_max_and_r_max_stay_pinned(self, k, l_max, r_max):
        # they set the oracle's cost and the CSV bits of the flagship and
        # energy-scan runs: a change to r_eff or to the r_max search that
        # moves them must show here
        ps = phase_shifts(Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=k))
        assert (ps.l_max, ps.r_max) == (l_max, r_max)

    def test_auto_l_max_and_r_max_of_the_shipped_flagship_stay_pinned(self):
        path = Path(__file__).resolve().parents[1] / "configs" \
            / "yukawa_flagship.ini"
        cfg = parse_config(path.read_text(encoding="utf-8"))
        kin = Kinematics(mass=cfg.mass, k=cfg.k_values[0], )
        opts = cfg.partial_wave
        ps = phase_shifts(cfg.potential, kin, l_max=opts.l_max,
                          r_max=opts.r_max, dr=opts.dr)
        assert (ps.l_max, ps.r_max) == (144, 20.28)

    def test_auto_r_max_search_spans_the_potential_s_range(self,
                                                           monkeypatch):
        # the search stopped at r = 500 and refused Yukawa(0.5, 0.04), whose
        # reach is 952; the radius it found below 500 stays
        kin = Kinematics(mass=1.0, k=1.0)
        near = Yukawa(0.5, 0.045)
        assert partial_wave._auto_r_max(near, kin, effective_radius(near)) \
            == 477.00269383296074
        p = Yukawa(0.5, 0.04)
        ps = phase_shifts(p, kin)
        assert 500.0 < ps.r_max < potentials.reach(p)[0]
        assert abs(ps.delta[-1]) < partial_wave._TAIL_TOL
        # a search cut short names the knob
        monkeypatch.setattr(partial_wave, "_RANGES", 0.1)
        with pytest.raises(RangeError) as err:
            phase_shifts(p, kin)
        assert err.value.key == "r_max"

    @pytest.mark.parametrize("p, k", [
        (p, k) for p in (Yukawa(0.5, 1.0), Yukawa(-2.0, 0.5),
                         Gauss(0.5, 1.0), Gauss(-3.0, 2.0))
        for k in (1.0, 5.0, 10.0, 30.0)] + [
        (Yukawa(0.5, 0.045), 1.0), (_RIPPLED_TABLE, 5.0),
        (Gauss(0.5, 1e-3), 1.0), (Yukawa(0.5, 1.0), 0.3)])
    def test_auto_r_max_is_the_scalar_search(self, p, k):
        # 64 candidates at a time, with the bits of the one-at-a-time loop
        kin = Kinematics(mass=1.0, k=k)
        r_eff = effective_radius(p)
        assert partial_wave._auto_r_max(p, kin, r_eff) \
            == _oracles.auto_r_max(p, kin, r_eff)

    def test_auto_r_max_of_the_shipped_configs_is_the_scalar_search(self):
        for path in sorted((Path(__file__).resolve().parents[1]
                            / "configs").glob("*.ini")):
            cfg = parse_config(path.read_text(encoding="utf-8"))
            r_eff = effective_radius(cfg.potential)
            for k in cfg.k_values:
                kin = Kinematics(mass=cfg.mass, k=k, )
                assert partial_wave._auto_r_max(cfg.potential, kin, r_eff) \
                    == _oracles.auto_r_max(cfg.potential, kin, r_eff)

    def test_explicit_r_max_is_checked_where_it_is_used(self):
        # r_max is rounded onto the 4 dr grid, here 0.004 wide, and the
        # decay bound is checked at the rounded radius: 1e-9 beyond the
        # decay point rounds up and is accepted, and passing the radius
        # back changes nothing; a radius that rounds below it is refused
        from scipy.optimize import brentq
        p, kin, dr = Yukawa(0.52, 1.0), Kinematics(mass=1.0, k=10.0), 1e-3
        decay = brentq(lambda r: 2.0 * p.g * math.exp(-r) / r - 1e-10,
                       10.0, 30.0, xtol=1e-14)
        # the nearest point of the dr grid, 20.066, lies below it
        assert 20.066 < decay < 20.0661
        for offset in (-1e-9, 1e-9, 2e-3):
            ps = phase_shifts(p, kin, r_max=decay + offset, dr=dr)
            assert ps.r_max == pytest.approx(20.068, abs=1e-12)
            again = phase_shifts(p, kin, r_max=ps.r_max, dr=ps.dr)
            assert again.r_max == ps.r_max
            assert again.delta.tobytes() == ps.delta.tobytes()
        with pytest.raises(RangeError, match="r_max = 20.064"):
            phase_shifts(p, kin, r_max=decay - 2e-3, dr=dr)

    @pytest.mark.parametrize("p, k, passes", [
        (Yukawa(0.5, 1.0), 10.0, 1),
        (Yukawa(5.0, 0.5), 10.0, 2),  # tail beyond l0 + 64
    ])
    def test_auto_l_max_sweeps_once_and_trims(self, monkeypatch, p, k,
                                              passes):
        # l_max is the first l0 + 16 j with a converged |delta|, found in
        # one pass to l0 + 64; only a longer tail passes again, wider, and
        # only over the waves above the previous top; a pass is one sweep
        calls = _count_sweeps(monkeypatch)
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        assert len(calls) == passes
        l0 = math.ceil(k * effective_radius(p)) + 10
        tops = [l0 + w for w in partial_wave._WIDTHS[:passes]]
        assert calls == np.diff([-1] + tops).tolist()
        assert sum(calls) == tops[-1] + 1
        assert (ps.l_max - l0) % 16 == 0
        assert all(abs(ps.delta[l]) >= partial_wave._TAIL_TOL
                   for l in range(l0, ps.l_max, 16))
        # each l is integrated on its own: trimming keeps its bits
        same = phase_shifts(p, kin, l_max=ps.l_max, r_max=ps.r_max,
                            dr=ps.dr)
        assert same.delta.tobytes() == ps.delta.tobytes()
        assert same.delta_coarse.tobytes() == ps.delta_coarse.tobytes()

    @pytest.mark.parametrize("p, k, l_max, passes_then, passes_now", [
        (Yukawa(5.0, 0.5), 10.0, 342, 3, 2),
        (Yukawa(5.0, 0.5), 30.0, 940, 11, 3),
        (Yukawa(5.0, 0.3), 5.0, 302, 3, None),
        (Yukawa(50.0, 0.5), 5.0, 208, 2, None),
        (Yukawa(0.5, 1.0), 1.0, None, None, None),
        (Yukawa(0.5, 1.0), 5.0, None, None, None),
        (Yukawa(0.5, 1.0), 10.0, None, None, None),
        (Yukawa(0.5, 1.0), 30.0, None, None, None),
    ])
    def test_width_schedule_keeps_the_bits_of_16_wave_extensions(
            self, monkeypatch, p, k, l_max, passes_then, passes_now):
        # a pass is one sweep, on the grids of dr, 2 dr and 4 dr at once
        calls = _count_sweeps(monkeypatch)
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        now = len(calls)
        ref_l_max, ref_delta, then = _oracles.phase_shifts_by_extension(
            p, kin, ps.r_max, ps.dr)
        assert ps.l_max == ref_l_max
        assert ps.delta.tobytes() == ref_delta.tobytes()
        assert now <= 4
        for want, got in ((l_max, ps.l_max), (passes_then, then),
                          (passes_now, now)):
            assert want is None or got == want

    def test_unconverged_tail_raises_the_estimate_at_the_cap(self,
                                                             monkeypatch):
        # a threshold no |delta| meets: every width is swept, and the error
        # carries delta at l0 + 416, as the extension plan's did; r_max is
        # wide enough that n_l(k r_max) stays finite up to there
        p, kin = Gauss(1.0, 1.0), Kinematics(mass=1.0, k=5.0)
        ps = phase_shifts(p, kin, r_max=20.0)
        monkeypatch.setattr(partial_wave, "_TAIL_TOL", 0.0)
        calls = _count_sweeps(monkeypatch)
        with pytest.raises(ConvergenceError) as new:
            phase_shifts(p, kin, r_max=ps.r_max, dr=ps.dr)
        l0 = math.ceil(kin.k * effective_radius(p)) + 10
        assert len(calls) == 4 and calls[-1] == 416 - 256
        assert sum(calls) == l0 + 416 + 1
        with pytest.raises(ConvergenceError) as ref:
            _oracles.phase_shifts_by_extension(p, kin, ps.r_max, ps.dr)
        assert str(new.value) == str(ref.value)
        # signed zeros: the bits tell which wave was reported
        assert repr(new.value.estimate) == repr(ref.value.estimate)
        assert new.value.error_estimate == ref.value.error_estimate

    def test_high_waves_start_finite(self):
        # the start 2^(l+1) at r_2 overflowed for l >~ 1008; l_max is
        # above 1100 here at dr and at dr/2, so the waves past 1008 are
        # live ones, not the step error's (at k = 80 l_max was 999)
        for dr in (1e-3, 5e-4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ps = phase_shifts(Yukawa(0.5, 1.0),
                                  Kinematics(mass=1.0, k=95.0), dr=dr)
            assert ps.l_max > 1100
            assert np.all(np.isfinite(ps.delta))

    @pytest.mark.parametrize("k", [10.0, 30.0])
    def test_sweep_keeps_the_bits_of_the_per_step_summed_form(
            self, monkeypatch, k):
        # against the summed form that forms each step's coefficients in
        # the step loop and normalises at every step before the matching
        # radius, one grid at a time: power-of-two scaling is exact, so the
        # schedule of the scaling cannot show in the bits
        p, kin = Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        monkeypatch.setattr(partial_wave, "_sweep_grids",
                            _oracles.on_three_grids(_oracles._numerov_sweep))
        ref = phase_shifts(p, kin)
        assert ref.l_max == ps.l_max
        assert ref.delta.tobytes() == ps.delta.tobytes()
        assert ref.delta_coarse.tobytes() == ps.delta_coarse.tobytes()

    @pytest.mark.parametrize("p, k, knobs, chunk, redone", [
        (Yukawa(0.5, 1.0), 1.0, {}, 128, False),
        (Yukawa(0.5, 1.0), 5.0, {}, 128, False),
        (Yukawa(0.5, 1.0), 10.0, {}, 128, False),
        (Yukawa(0.5, 1.0), 30.0, {}, 128, False),
        (Yukawa(5.0, 0.5), 10.0, {}, 128, False),  # 342 waves, two passes
        (Yukawa(-2.0, 0.5), 5.0, {}, 128, False),
        (Gauss(-3.0, 2.0), 1.0, {}, 128, False),
        (Gauss(-3.0, 2.0), 10.0, {}, 128, False),
        (Gauss(0.5, 1e-3), 1.0, {}, 128, False),
        (_RIPPLED_TABLE, 5.0, {}, 128, False),
        # V is 0 from r = 2 dr on, so only the fine grid scatters
        (TabulatedRadial(np.array([0.0, 0.002, 0.004, 0.006]),
                         np.array([-1.0, -1.0, -1.0, 0.0]),
                         interpolation="linear"), 10.0, {}, 128, False),
        # l = 400 overflows the last chunk before r_max, which starts at
        # the last wave's start; r_max is wide enough that the sweep takes
        # l = 400, which lies below the Bessel rows' top there
        (_WELL_TABLE, 10.0, dict(l_max=400, r_max=34.0), 1 << 15, True),
    ])
    def test_one_loop_keeps_the_bits_of_three_sweeps(self, monkeypatch, p, k,
                                                     knobs, chunk, redone):
        # against one chunked sweep per grid, extrapolated wave by wave
        kin = Kinematics(mass=1.0, k=k)
        redos = []
        advance = partial_wave._advance

        def counted(steps, y, d, every_step=False):
            redos.append(every_step)
            advance(steps, y, d, every_step)

        monkeypatch.setattr(partial_wave, "_CHUNK", chunk)
        monkeypatch.setattr(partial_wave, "_advance", counted)
        ps = phase_shifts(p, kin, **knobs)
        assert any(redos) == redone
        monkeypatch.setattr(
            partial_wave, "_extrapolated",
            lambda p, kin, l_arr, r_a, r_b, dr, r0:
            _oracles.extrapolated(p, kin, l_arr, r_a, dr, r0=r0))
        ref = phase_shifts(p, kin, **knobs)
        assert (ps.l_max, ps.r_max) == (ref.l_max, ref.r_max)
        assert ps.delta.tobytes() == ref.delta.tobytes()
        assert ps.delta_coarse.tobytes() == ref.delta_coarse.tobytes()

    @pytest.mark.parametrize("g", [-2.614682499802042, -2.6146824998020426])
    def test_extrapolation_aligns_branches_at_a_resonance(self, g):
        # delta_0 sits at pi/2 to rounding: the sweep at h lands on either
        # side of the branch cut, and the one at 2h at -pi/2 + 2.1e-8; both
        # extrapolations must come out on one branch in (-pi/2, pi/2], as
        # the per-wave loop of the oracle computes them
        kin, l_arr = Kinematics(mass=1.0, k=1.0), np.arange(3)
        p, r_a, dr = Gauss(g, 1.0), 6.32, 0.01
        r_b = _oracles.second_radius(kin, r_a, dr)
        best, worse = partial_wave._extrapolated(p, kin, l_arr, r_a, r_b, dr)
        ref_best, ref_worse = _oracles.extrapolated(p, kin, l_arr, r_a, dr)
        assert best.tobytes() == ref_best.tobytes()
        assert worse.tobytes() == ref_worse.tobytes()
        assert np.all((best > -np.pi / 2) & (best <= np.pi / 2))
        assert best[0] == pytest.approx(np.pi / 2, abs=1e-7)
        assert np.max(np.abs(best - worse)) < 1e-7

    @pytest.mark.parametrize("p, chunk, i_a, l_top, redone", [
        # matching radius inside the first chunk
        (Yukawa(0.5, 1.0), 128, 100, 120, False),
        # 2 + 128 + 1 rounds up to 132 on the 4 dr grid: four fine steps,
        # two mid steps and one coarse step past a chunk boundary
        (Yukawa(0.5, 1.0), 128, 2 + 128 + 1, 120, False),
        # two fine steps, one mid and one coarse step past a chunk boundary
        (Yukawa(0.5, 1.0), 126, 2 + 126, 120, False),
        # chunks of odd length start on every residue mod 4
        (Yukawa(0.5, 1.0), 129, 2 + 129 + 1, 120, False),
        # l = 40 and 120 start at 512 and 768, past the origin: on a
        # multiple of the chunk, or a cut between two
        (Yukawa(0.5, 1.0), 128, 1024, 120, False),
        (Yukawa(0.5, 1.0), 126, 1024, 120, False),
        (Yukawa(0.5, 1.0), 129, 1024, 120, False),
        (Yukawa(0.5, 1.0), 102, 1024, 120, False),
        (Yukawa(0.5, 1.0), 83, 1024, 120, False),
        # l = 400 overflows the chunk from the last start, l = 400's, to
        # r_max, which is redone from its start; at i_a = 20000 the sweep
        # would not take l = 400, past the Bessel rows' top
        (_WELL_TABLE, 1 << 15, 34000, 400, True),
    ])
    def test_sweep_bits_at_chunk_edges(self, monkeypatch, p, chunk, i_a,
                                       l_top, redone):
        # i_a, rounded up onto the 4 dr grid, is the fine index of the first
        # matching radius; each grid against the per-step summed form, each
        # wave started where the scalar start rule puts it
        kin, dr = Kinematics(mass=1.0, k=10.0), 1e-3
        l_arr = np.array([0, 1, 7, 40, l_top])
        redos = []
        advance = partial_wave._advance

        def counted(steps, y, d, every_step=False):
            redos.append(every_step)
            advance(steps, y, d, every_step)

        monkeypatch.setattr(partial_wave, "_CHUNK", chunk)
        monkeypatch.setattr(partial_wave, "_advance", counted)
        r_a = -(-i_a // 4) * 4 * dr
        radii = (r_a, _oracles.second_radius(kin, r_a, dr))
        new = partial_wave._sweep_grids(p, kin, l_arr, *radii, dr)
        assert any(redos) == redone
        starts = _oracles.wave_starts(p, kin, l_arr, *radii, dr)
        for s, got in zip((1.0, 2.0, 4.0), new):
            old = _oracles._numerov_sweep(p, kin, l_arr, *radii, s * dr,
                                          starts=starts)
            assert np.all(np.isfinite(got))
            assert got.tobytes() == old.tobytes()

    @pytest.mark.parametrize("p, k", [
        (Yukawa(0.5, 1.0), 1.0), (Yukawa(0.5, 1.0), 30.0),
        (Yukawa(5.0, 0.5), 10.0),  # two passes
        (Yukawa(-20.0, 2.0), 5.0), (Gauss(-50.0, 1.0), 5.0),
        (Gauss(5.0, 1.0), 10.0), (_RIPPLED_TABLE, 5.0), (_WELL_TABLE, 10.0),
    ])
    def test_each_wave_starts_where_the_scalar_rule_puts_it(self, monkeypatch,
                                                            p, k):
        # the start of a wave depends on the wave, the grid and V alone: not
        # on the other waves of its pass, nor on the chunk; the starts are
        # edges of 128-step blocks before r_max, or the origin series, and
        # they do not fall as l rises
        kin = Kinematics(mass=1.0, k=k)
        rule = partial_wave._wave_starts
        calls = _spy_starts(monkeypatch)
        ps = phase_shifts(p, kin)
        monkeypatch.setattr(partial_wave, "_CHUNK", 97)
        again = phase_shifts(p, kin)
        assert again.delta.tobytes() == ps.delta.tobytes()
        r0, r_a = _oracles.split(p, kin, ps.r_max, ps.dr)
        r_b = _oracles.second_radius(kin, r_a, ps.dr)
        l_lo = 0
        for (base, inv_r2, ll1, i_a, dr), starts in calls[:len(calls) // 2]:
            l_arr = np.arange(l_lo, l_lo + ll1.size)
            l_lo += ll1.size
            assert ll1.tolist() == (l_arr * (l_arr + 1.0)).tolist()
            want = _oracles.wave_starts(p, kin, l_arr, r_a, r_b, dr, r0)
            assert (np.where(starts > 2, starts * dr, 0.0)).tolist() \
                == want.tolist()
            assert np.all(np.diff(starts) >= 0) and starts[-1] < i_a
            assert np.all((starts == 2) | (starts % 64 == 0))
            for part in (slice(None, None, 3), slice(ll1.size // 2, None)):
                assert rule(base, inv_r2, ll1[part], i_a, dr).tolist() \
                    == starts[part].tolist()

    def test_high_waves_start_past_the_unstable_steps(self, monkeypatch):
        # near the origin 1 - h^2 f/12 < 0 for a high wave, where Numerov's
        # step is unstable: for l = 400 at k = 30 the first 114 fine steps.
        # Every wave from l = 40 on starts past the origin, and each started
        # wave has 1 - h^2 f/12 > 0 on all three grids from its start on
        calls = _spy_starts(monkeypatch)
        phase_shifts(Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=30.0))
        (base, inv_r2, ll1, i_a, dr), starts = calls[0]
        assert np.all(starts[40:] > 2)
        late = np.flatnonzero(starts > 2)
        for i in late:
            f = base[starts[i]:i_a] + ll1[i] * inv_r2[starts[i]:i_a]
            assert np.all(1.0 - (4.0 * dr) ** 2 * f / 12.0 > 0.0)

    @pytest.mark.parametrize("p, k", [
        (p, k) for p in (Yukawa(0.5, 1.0), Yukawa(-2.0, 0.5),
                         Gauss(0.5, 1.0), Gauss(-3.0, 2.0))
        for k in (1.0, 5.0, 10.0, 30.0)] + [
        (p, k) for p in (Yukawa(-20.0, 2.0), Gauss(-50.0, 1.0),
                         Gauss(5.0, 1.0))
        for k in (1.0, 5.0, 10.0)])
    def test_starts_past_the_origin_move_shifts_at_rounding_level(
            self, monkeypatch, p, k):
        # against every wave swept from the origin series, one chunked
        # sweep per grid
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        monkeypatch.setattr(
            partial_wave, "_sweep_grids",
            _oracles.on_three_grids(_oracles.chunked_sweep, origin=True))
        ref = phase_shifts(p, kin)
        assert (ref.l_max, ref.r_max) == (ps.l_max, ps.r_max)
        assert np.max(np.abs(ps.delta - ref.delta)) <= 1e-12
        assert np.max(np.abs(ps.delta_coarse - ref.delta_coarse)) <= 1e-12

    @pytest.mark.parametrize("p, k", [
        (Yukawa(0.5, 1.0), 1.0), (Yukawa(0.5, 1.0), 10.0),
        (Yukawa(0.5, 1.0), 30.0), (Gauss(1.0, 1.0), 2.0),
        (Gauss(1.0, 1.0), 5.0), (Yukawa(100.0, 1.0), 10.0),
        (Yukawa(-20.0, 1.0), 10.0),
    ])
    def test_summed_form_moves_shifts_at_rounding_level(self, monkeypatch,
                                                        p, k):
        # against the two-level form it replaced
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        monkeypatch.setattr(
            partial_wave, "_sweep_grids",
            _oracles.on_three_grids(_oracles._numerov_sweep_classic))
        ref = phase_shifts(p, kin)
        assert ref.l_max == ps.l_max
        assert np.max(np.abs(ps.delta - ref.delta)) <= 1e-10

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="np.longdouble is no wider than double here")
    @pytest.mark.parametrize("p, k", [(Yukawa(0.5, 1.0), 10.0),
                                      (Gauss(1.0, 1.0), 5.0)])
    def test_summed_form_rounds_no_worse_than_classic(self, p, k):
        # rounding error of both forms against the same sweep in extended
        # precision, at the same dr
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        l_arr = np.arange(ps.l_max + 1)
        args = (p, kin, l_arr, ps.r_max,
                _oracles.second_radius(kin, ps.r_max, ps.dr), ps.dr)
        starts = _oracles.wave_starts(*args)
        exact = _oracles._numerov_sweep(*args, dtype=np.longdouble,
                                        starts=starts)
        new = partial_wave._sweep_grids(*args)[0]
        old = _oracles._numerov_sweep_classic(*args, starts=starts)
        assert np.max(np.abs(new - exact)) <= np.max(np.abs(old - exact))

    @pytest.mark.parametrize("l_max", [81, 200])
    def test_matching_does_not_overflow(self, l_max):
        # n_l(k r) of the high waves is huge at these radii; the parent
        # overflowed in w_a n_b, which the suite turns into an error
        ps = phase_shifts(Gauss(0.01, 1.0), KIN2, l_max=l_max, dr=0.00125)
        assert ps.l_max == l_max
        assert np.all(np.isfinite(ps.delta))

    @pytest.mark.parametrize("k, l_max", [(2.0, 300), (5.0, 360)])
    def test_waves_past_the_rows_top_are_zero(self, monkeypatch, k, l_max):
        # the Bessel rows end at _row_top(k r_b), 40 and 62 here: the waves
        # past it are 0 and not swept, and the waves below keep the bits of
        # a pass that ends at the top. At the top n_l(k r_b) is finite; up
        # to l = 300 and 360 it overflowed at both matching radii, where
        # the matching's denominator was inf - inf = nan
        p, kin = Gauss(1.0, 1.0), Kinematics(mass=1.0, k=k)
        calls = _spy_starts(monkeypatch)
        ps = phase_shifts(p, kin, l_max=l_max)
        r_b = _oracles.second_radius(kin, ps.r_max, ps.dr)
        top = partial_wave._row_top(k * r_b)
        (args, _), = calls  # args[2] holds l(l + 1) of the waves swept
        assert top < l_max and args[2].size == top + 1
        assert ps.delta[top] != 0.0 and not np.any(ps.delta[top + 1:])
        below = phase_shifts(p, kin, l_max=top)
        assert ps.delta[:top + 1].tobytes() == below.delta.tobytes()

    def test_explicit_l_max_accepted_when_converged(self):
        ps_auto = phase_shifts(Yukawa(0.5, 1.0), KIN2)
        ps = phase_shifts(Yukawa(0.5, 1.0), KIN2, l_max=ps_auto.l_max + 5)
        assert ps.l_max == ps_auto.l_max + 5
        n = ps_auto.l_max + 1
        assert np.allclose(ps.delta[:n], ps_auto.delta, atol=1e-12)


class TestAmplitudePartialWave:
    def test_zero_shifts_give_zero(self):
        # the error is the rounding floor alone: rho = eps r_max/dr per wave
        f = amplitude_partial_wave(_shifts(np.zeros(4), k=2.0), 0.3)
        assert f.value == 0.0
        rho = np.finfo(float).eps * 20.0 / 0.01
        x = math.cos(0.3)
        p_l = [1.0, x, 1.5 * x * x - 0.5, 2.5 * x**3 - 1.5 * x]
        want = rho * sum((2 * l + 1) * abs(v) for l, v in enumerate(p_l))
        assert f.error_estimate == pytest.approx(want / 2.0, rel=1e-12)

    def test_unitarity_limit_s_wave(self):
        # delta_0 = pi/2 alone: f = (1/2ik)(-2) = i/k
        ps = _shifts([np.pi / 2, 0.0, 0.0, 0.0], k=2.0)
        f = amplitude_partial_wave(ps, 0.7)
        assert f.value == pytest.approx(1j / 2.0, rel=1e-14)
        assert abs(f.value) == pytest.approx(0.5, rel=1e-14)

    def test_error_is_the_extrapolations_gap_plus_the_tail(self):
        # two waves whose extrapolations disagree, and a live last wave:
        # sum (2l + 1)|e^{2i delta} - e^{2i delta_coarse}| |P_l| / 2k, plus
        # ((2L + 1) r/(1 - r) + 2 r/(1 - r)^2)|delta_L|/k for the waves past
        # L = 3, r the tail ratio or the mean decay of the last three waves,
        # whichever is larger; at theta = pi/2, where P_1 = 0 and P_2 =
        # -1/2, the two gaps add instead of cancelling
        delta = np.array([0.3, 0.2, 0.0, 5e-9])
        moved = np.array([0.0, 1e-6, -2e-6, 0.0])
        th = np.array([0.0, 0.7, np.pi / 2])
        x = np.cos(th)
        gap = (3.0 * 2e-6 * np.abs(x) + 5.0 * 4e-6 * np.abs(1.5 * x * x - 0.5)
               ) / 4.0
        decay = (5e-9 / 0.3) ** (1.0 / 3.0)
        for tail_ratio, r in ((0.0, decay), (1e-3, decay), (0.5, 0.5)):
            ps = _shifts(delta, k=2.0, delta_coarse=delta + moved,
                         tail_ratio=tail_ratio)
            f = amplitude_partial_wave(ps, th)
            dropped = (7.0 * r / (1.0 - r) + 2.0 * r / (1.0 - r) ** 2) \
                * 5e-9 / 2.0
            assert f.error_estimate == pytest.approx(gap + dropped, rel=1e-6)
            assert amplitude_partial_wave(ps, 0.7).error_estimate \
                == pytest.approx(f.error_estimate[1], rel=1e-14)

    def test_error_adds_each_wave_s_tail_bound(self):
        # |e^{2i delta} - e^{2i delta'}| <= 2 |delta - delta'|: a wave's tail
        # bound adds (2l + 1) 2 tail_error |P_l|/2k at every angle
        delta = np.array([0.3, 0.2, 0.0, 0.0])
        bound = np.array([1e-9, 0.0, 2e-9, 0.0])
        th = np.array([0.0, 0.7])
        x = np.cos(th)
        plain = amplitude_partial_wave(_shifts(delta, k=2.0), th)
        tail = amplitude_partial_wave(_shifts(delta, k=2.0,
                                              tail_error=bound), th)
        want = (1.0 * 2e-9 + 5.0 * 4e-9 * np.abs(1.5 * x * x - 0.5)) / 4.0
        assert tail.value.tolist() == plain.value.tolist()
        assert tail.error_estimate - plain.error_estimate \
            == pytest.approx(want, rel=1e-9)

    def test_dropped_waves_without_a_decay_are_unbounded(self):
        # a last wave of 0 drops nothing; a live last wave over a 0
        # min(16, l_max) waves before it, or above that wave, gives no ratio
        # below 1 to bound the rest
        assert amplitude_partial_wave(
            _shifts([0.3, 0.0, 0.0]), 0.2).error_estimate < 1e-9
        for delta in ([0.0, 0.3, 5e-9], [1e-9] * 17 + [2e-9]):
            f = amplitude_partial_wave(_shifts(delta), np.array([0.0, 0.2]))
            assert np.all(f.error_estimate == np.inf)

    @pytest.mark.parametrize("p, k, bound", [
        (Yukawa(0.5, 1.0), 1.0, 4e-13), (Yukawa(0.5, 1.0), 5.0, 1e-9),
        (Yukawa(0.5, 1.0), 10.0, 1e-8), (Gauss(-3.0, 2.0), 1.0, 4e-11),
        (Gauss(-3.0, 2.0), 5.0, 1.2e-10), (Gauss(-3.0, 2.0), 10.0, 2e-10),
    ])
    def test_default_step_keeps_its_digits(self, p, k, bound):
        # max |f - f_ref| / max |f_ref| over 241 angles up to pi, f_ref at
        # dr/16 with the same waves and matching radius. With R3 at
        # min(0.06/k, 0.01) the figures are 2.1e-13, 5.1e-10, 7.5e-9,
        # 3.2e-11, 1.1e-10 and 8.9e-11; R(h, 2h) at min(0.04/k, 0.01) gave
        # 4.4e-13, 2.1e-8, 6.7e-8, 3.2e-11, 1.2e-10 and 4.1e-10. At k = 1
        # the s wave's h^7 term sets Gauss(-3, 2)'s error under both
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        ref = phase_shifts(p, kin, l_max=ps.l_max, r_max=ps.r_max,
                           dr=ps.dr / 16)
        theta = np.linspace(0.0, np.pi, 241)
        got = amplitude_partial_wave(ps, theta).value
        want = amplitude_partial_wave(ref, theta).value
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_agrees_with_eikonal_at_small_angle(self):
        p = Yukawa(0.5, 1.0)
        kin = Kinematics(mass=1.0, k=10.0)
        ps = phase_shifts(p, kin)
        fe = amplitude_eikonal(p, kin, 0.05)
        fp = amplitude_partial_wave(ps, 0.05)
        assert abs(fe.value) == pytest.approx(abs(fp.value), rel=2e-2)

    def test_array_theta(self):
        ps = phase_shifts(Yukawa(0.5, 1.0), KIN2)
        th = np.array([0.0, 0.3, 1.0, np.pi])
        f = amplitude_partial_wave(ps, th)
        assert f.value.shape == (4,)
        for i, t in enumerate(th):
            ref = amplitude_partial_wave(ps, float(t)).value
            assert f.value[i] == pytest.approx(ref, rel=1e-13)

    def test_theta_domain(self):
        ps = phase_shifts(Yukawa(0.5, 1.0), KIN2)
        with pytest.raises(DomainError):
            amplitude_partial_wave(ps, -0.1)
        with pytest.raises(DomainError):
            amplitude_partial_wave(ps, np.pi + 0.2)
        for theta in (np.nan, [0.1, np.nan]):
            with pytest.raises(DomainError):
                amplitude_partial_wave(ps, theta)

    def test_theta_is_a_scalar_or_a_1d_array(self):
        # a 2-d theta is refused, not broadcast against the rows of P_l; a
        # 0-d array gives the scalar fields of a float
        ps = phase_shifts(Yukawa(0.5, 1.0), KIN2)
        with pytest.raises(DomainError, match="scalar or a 1-d array"):
            amplitude_partial_wave(ps, [[0.1]])
        f = amplitude_partial_wave(ps, np.array(0.3))
        assert f == amplitude_partial_wave(ps, 0.3)
        assert type(f.value) is complex and type(f.q) is float

    def test_backward_angle_allowed(self):
        # unlike the small-angle sources, the exact sum covers theta = pi
        ps = phase_shifts(Yukawa(0.5, 1.0), KIN2)
        f = amplitude_partial_wave(ps, np.pi)
        assert np.isfinite(f.value.real) and np.isfinite(f.value.imag)


def _split_rule(p, kin, ps):
    """(R0, r_a, the tail's rule) of phase_shifts' pass for ps."""
    r0, r_a = _oracles.split(p, kin, ps.r_max, ps.dr)
    end = partial_wave._auto_r_max(p, kin, ps.r_max, partial_wave._FAR)
    return r0, r_a, partial_wave._tail_rule(p, kin, r0, end)


class TestSplit:
    def test_split_sweeps_under_half_the_grid(self, monkeypatch):
        # counted, not timed: the fine-grid points the sweep evaluates V
        # on. The unsplit sweep to r_max = 20.28 and its second matching
        # radius took 3,409 of them for Yukawa(0.5, 1) at k = 10
        points = []
        evaluate = partial_wave.evaluate

        def counted(p, r):
            r = np.asarray(r)
            if r.size > 1 and r[0] == 0.006 and r[1] == 0.012:
                points.append(r.size + 1)  # with r = 0
            return evaluate(p, r)

        monkeypatch.setattr(partial_wave, "evaluate", counted)
        ps = phase_shifts(Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=10.0))
        assert ps.r_max == pytest.approx(20.28) and ps.dr == 0.006
        assert len(points) == 1 and points[0] < 3409 / 2

    @pytest.mark.parametrize("p, k, r0", [
        (Yukawa(0.5, 1.0), 10.0, 7.25), (Yukawa(0.5, 1.0), 30.0, 6.25),
        (Yukawa(-2.0, 0.5), 10.0, 16.75),
        (Yukawa(0.5, 1.0), 1.0, 2.0 * np.pi + 9.75),
        (Gauss(0.5, 1.0), 10.0, None), (Gauss(-3.0, 2.0), 30.0, None),
        (Gauss(0.5, 0.05), 10.0, 13.5), (Gauss(0.5, 0.05), 30.0, 12.75),
        (_RIPPLED_TABLE, 5.0, None),
    ])
    def test_split_radius_does_not_depend_on_dr(self, p, k, r0):
        # R0 is a point of the 0.25 search from max(2 pi/k, 1); the tail is
        # empty where the sweep could not end a switch width short of r_max,
        # and for a table
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        for dr in (ps.dr, ps.dr / 2, ps.dr / 3):
            r_max = phase_shifts(p, kin, dr=dr).r_max
            got = partial_wave._split_radius(p, kin, r_max)
            assert got == (None if r0 is None else pytest.approx(r0))

    def test_switch_is_exactly_one_and_zero_outside(self):
        r = np.array([0.0, 6.9, 7.0, 7.5, 8.0, 8.9999, 9.0, 9.5, 1e3])
        s = partial_wave._switch(r, 7.0)
        assert s[:3].tolist() == [1.0, 1.0, 1.0]
        assert s[-3:].tolist() == [0.0, 0.0, 0.0]
        assert np.all(np.diff(s) <= 0.0)
        # the C^3 smoothstep: 1 - s = 35 t^4 - 84 t^5 + 70 t^6 - 20 t^7
        t = (r[3:6] - 7.0) / 2.0
        assert s[3:6] == pytest.approx(
            1.0 - (35 * t**4 - 84 * t**5 + 70 * t**6 - 20 * t**7), abs=1e-14)

    @pytest.mark.parametrize("lo, top, k, r0, r_end", [
        (0, 192, 10.0, 7.25, 29.03), (17, 192, 10.0, 7.25, 29.03),
        (0, 40, 1.0, 6.5, 24.5), (300, 876, 30.0, 15.0, 37.3),
    ])
    def test_riccati_rows_match_scipy(self, lo, top, k, r0, r_end):
        from scipy.special import spherical_yn
        x = partial_wave._tail_rule(Yukawa(0.5, 1.0),
                                    Kinematics(mass=1.0, k=k), r0, r_end)[0]
        n_top = min(top, math.floor(k * r0 - 0.5))
        j, n = partial_wave._riccati_rows(lo, top, x, n_top)
        l = np.arange(lo, top + 1)[:, None]
        assert j.shape == (top + 1 - lo, x.size)
        assert np.max(np.abs(j - x * spherical_jn(l, x))) < 1e-12
        assert n.shape == (max(n_top + 1 - lo, 0), x.size)
        if n.size:
            want = x * spherical_yn(l[:n.shape[0]], x)
            assert np.max(np.abs(n - want) / np.maximum(1.0, np.abs(want))) \
                < 1e-12

    @pytest.mark.parametrize("p, k", [
        (Yukawa(0.5, 1.0), 10.0), (Yukawa(-2.0, 0.5), 1.0),
        (Yukawa(-2.0, 0.5), 30.0), (Gauss(0.5, 0.05), 10.0),
        (Gauss(0.5, 0.05), 30.0),
    ])
    def test_tail_quadrature_error_is_within_its_bound(self, p, k):
        # against the same tail on panels a third as wide
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        r0, _, rule = _split_rule(p, kin, ps)
        l_arr = np.arange(ps.l_max + 1)
        (tail,), bound = partial_wave._tail_terms(rule, k, k * r0, l_arr,
                                                  (ps.delta,))
        end = partial_wave._auto_r_max(p, kin, ps.r_max, partial_wave._FAR)
        fine = partial_wave._PANEL / 3.0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partial_wave, "_PANEL", fine)
            (finer,), _ = partial_wave._tail_terms(
                partial_wave._tail_rule(p, kin, r0, end), k, k * r0, l_arr,
                (ps.delta,))
        assert np.all(np.abs(tail - finer) <= bound)

    @pytest.mark.parametrize("p, k", [
        (Gauss(-50.0, 1.0), 5.0), (Gauss(-3.0, 2.0), 10.0),
        (Gauss(-3.0, 2.0), 30.0),
        (TabulatedRadial(np.linspace(0.0, 3.0, 61),
                         np.r_[-2.0 * np.exp(-np.linspace(0.0, 3.0, 61)[:-1]),
                               0.0]), 10.0),
        (TabulatedRadial(np.linspace(0.0, 2.0, 41),
                         np.r_[np.exp(-np.linspace(0.0, 2.0, 41)[:-1] ** 2),
                               0.0]), 20.0),
    ])
    def test_tail_ratio_bounds_every_later_ratio(self, p, k):
        # the first-Born ratio of a Gauss, I_{L+3/2}(x)/I_{L+1/2}(x) with x =
        # k^2/(2 alpha), and a table's bound from R = r[-1] hold every
        # |delta_{l+1}/delta_l|, l >= l_max, of the waves above 1e-13 to
        # l_max + 200; tail_ratio was 0 for both models
        kin = Kinematics(mass=1.0, k=k)
        ps = phase_shifts(p, kin)
        wide = phase_shifts(p, kin, l_max=ps.l_max + 200, r_max=ps.r_max,
                            dr=ps.dr)
        d = np.abs(wide.delta[ps.l_max:])
        live = (d[1:] > 1e-13) & (d[:-1] > 1e-13)
        assert live.sum() >= 3
        assert 0.0 < ps.tail_ratio < 1.0
        assert np.all(d[1:][live] <= ps.tail_ratio * d[:-1][live])

    @pytest.mark.parametrize("p, k, then", [(Gauss(0.5, 1.0), 10.0, 5.8e-10),
                                            (Gauss(-3.0, 2.0), 1.0, 3.5e-11)])
    def test_s_wave_error_falls_as_the_other_waves_do(self, p, k, then):
        # with the six-term origin series delta_0's R3 error at the default
        # step h, against the same sweep at h/32, is a fifth of what the
        # four-term series' h^7 term left (then), and falls by over 100x a
        # halving down to rounding; at k = 10 it is within 4x of the p
        # wave's, not 23x
        kin = Kinematics(mass=1.0, k=k)
        h, r_max = min(0.06 / k, 0.01), phase_shifts(p, kin).r_max
        ref = phase_shifts(p, kin, l_max=40, r_max=r_max, dr=h / 32).delta
        err = [np.abs(phase_shifts(p, kin, l_max=40, r_max=r_max,
                                   dr=h / f).delta[:2] - ref[:2])
               for f in (1, 2, 4)]
        assert err[0][0] < then / 5.0
        assert err[0][0] > 100.0 * err[1][0]
        assert err[1][0] > 100.0 * err[2][0] or err[2][0] < 1e-14
        assert k < 10.0 or err[0][0] < 4.0 * err[0][1]


@pytest.fixture(scope="module")
def reference_shifts():
    with open(_pw_reference.PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _accuracy(delta, ref, k, scale):
    """sum over the reference's waves of (2l + 1) |sin(delta_l - ref_l)|/k,
    delta 0 past its l_max, over scale: the bound on |f - f_ref| at every
    angle that the waves' errors give, in units of max |f_ref|."""
    d = np.zeros(ref.size)
    d[:delta.size] = delta
    weight = 2.0 * np.arange(ref.size) + 1.0
    return float(np.sum(weight * np.abs(np.sin(d - ref)))) / k / scale


# the accuracy of the oracle before the split (one pass of Numerov to
# r_max, the four-term origin series), with the same l_max as now
@pytest.mark.parametrize("name, k, parent", [
    ("Yukawa(0.5, 1)", 1.0, 1.74e-09), ("Yukawa(0.5, 1)", 5.0, 1.897e-07),
    ("Yukawa(0.5, 1)", 10.0, 2.502e-06), ("Yukawa(0.5, 1)", 30.0, 5.315e-06),
    ("Yukawa(-2, 0.5)", 1.0, 3.466e-10), ("Yukawa(-2, 0.5)", 5.0, 1.166e-07),
    ("Yukawa(-2, 0.5)", 10.0, 4.215e-07),
    ("Yukawa(-2, 0.5)", 30.0, 2.238e-06),
    ("Gauss(0.5, 1)", 1.0, 4.141e-13), ("Gauss(0.5, 1)", 5.0, 1.185e-10),
    ("Gauss(0.5, 1)", 10.0, 1.068e-08), ("Gauss(0.5, 1)", 30.0, 3.426e-08),
    ("Gauss(-3, 2)", 1.0, 3.248e-11), ("Gauss(-3, 2)", 5.0, 1.146e-10),
    ("Gauss(-3, 2)", 10.0, 1.057e-09), ("Gauss(-3, 2)", 30.0, 2.094e-09),
    # a Gauss that splits at every k: R0 = 19.0, 14.5, 13.5 and 12.75
    ("Gauss(0.5, 0.05)", 1.0, 9.675e-12),
    ("Gauss(0.5, 0.05)", 5.0, 2.712e-09),
    ("Gauss(0.5, 0.05)", 10.0, 1.888e-08),
    ("Gauss(0.5, 0.05)", 30.0, 8.08e-08),
])
def test_oracle_is_graded_against_an_unsplit_reference(reference_shifts,
                                                       name, k, parent):
    # the reference shares neither the split, the first-order tail nor the
    # cut of the waves (tests/_pw_reference.py). The reported error covers
    # |f - f_ref| at all 181 angles; the accuracy, with the reference's own
    # error against its sweep at twice its step added, is no worse than
    # before the split. The largest |f - f_ref| over the angles would let
    # the waves' errors cancel, and the dropped waves, the same for both,
    # would set it
    kin = Kinematics(mass=1.0, k=k)
    ps = phase_shifts(_pw_reference.MODELS[name], kin)
    ref = np.array(reference_shifts[f"{name} k={k:g}"]["delta"])
    coarse = np.array(reference_shifts[f"{name} k={k:g}"]["delta_8"])
    want = _pw_reference.amplitude(ref, k)
    got = amplitude_partial_wave(ps, _pw_reference.THETA)
    assert np.all(np.abs(got.value - want) <= got.error_estimate)
    scale = np.max(np.abs(want))
    assert _accuracy(ps.delta, ref, k, scale) \
        + _accuracy(coarse, ref, k, scale) <= parent
