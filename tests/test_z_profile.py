"""The z-profile store: eikonal's quadrature phase and born_resummed read
one w(b) per potential, with the bits of an uncached integration."""

import dataclasses
import filecmp

import numpy as np
import pytest

from scatterlab import born, eikonal, partial_wave
from scatterlab.born import born_resummed_amplitude
from scatterlab.config import parse_config
from scatterlab.eikonal import Kinematics, amplitude_eikonal
from scatterlab.errors import ConvergenceError
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa
from scatterlab.quadrature import QuadratureSettings
from scatterlab.runner import run_scan

SETTINGS = QuadratureSettings()
# _z_profile integrates with the absolute floor pushed out of the way
Z_SETTINGS = dataclasses.replace(SETTINGS, abs_tol=1e-300)
# repeated b, and (for the table) b at and beyond its last radius 4
B = np.array([0.3, 1.2, 0.3, 4.0, 5.5, 1.2, 2.7, 4.0])


def _table():
    r = np.linspace(0.0, 4.0, 300)
    v = -0.8 * np.exp(-r * r)
    v[-1] = 0.0
    return TabulatedRadial(r, v)


def _uncached(p, b, settings=Z_SETTINGS):
    return eikonal._integrate_z_profile(p, np.asarray(b, dtype=float),
                                        settings, lambda j: f" in row {j}")


def _same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("make_p", [lambda: Yukawa(0.5, 1.0),
                                    lambda: Gauss(0.3, 0.7), _table],
                         ids=["yukawa", "gauss", "table"])
def test_memoised_profile_has_the_bits_of_an_uncached_integration(make_p):
    p = make_p()
    cold = eikonal._z_profile(p, B[:3], SETTINGS)
    warm = eikonal._z_profile(p, B, SETTINGS)  # hits, misses and repeats
    again = eikonal._z_profile(p, B[::-1], SETTINGS)  # hits only
    _same_bits(cold, _uncached(p, B[:3]))
    _same_bits(warm, _uncached(p, B))
    _same_bits(again, _uncached(p, B[::-1]))
    for b, w in zip(B, warm):
        _same_bits(w, _uncached(p, [b])[0])
    if isinstance(p, TabulatedRadial):
        beyond = warm[B >= 4.0]
        assert beyond.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(beyond).any()


def test_tabulated_run_is_byte_identical_at_one_and_four_threads(tmp_path):
    p = _table()
    lines = ["# r, V"] + [f"{a!r}, {b!r}"
                          for a, b in zip(p.r.tolist(), p.v.tolist())]
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n")
    text = """
[potential]
model = tabulated
file = table.csv

[kinematics]
mass = 1.0
k = 2, 3

[theta_grid]
min = 0.0
max = 0.2
count = 3

[run]
sources = eikonal, born_resummed
threads = {threads}

[output]
directory = {out}
"""
    names = ["eikonal_k2.csv", "eikonal_k3.csv", "born_resummed_k2.csv",
             "born_resummed_k3.csv", "summary.csv", "report.txt"]
    for tag, threads in (("t1", 1), ("t4", 4)):
        # each parse loads a fresh potential object, so a fresh store
        cfg = parse_config(text.format(threads=threads, out=tmp_path / tag),
                           base_dir=str(tmp_path))
        assert not run_scan(cfg).failed
    for name in names:
        assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t4" / name,
                           shallow=False), name


def test_eikonal_and_born_resummed_integrate_each_b_once(monkeypatch):
    p = _table()
    kin = Kinematics(mass=1.0, k=3.0)
    theta = np.array([0.0, 0.1, 0.2])
    requested, integrated = [], []

    def asked(route, z_profile):
        def wrapped(p, b, settings):
            requested.append((route, b.tolist()))
            return z_profile(p, b, settings)
        return wrapped

    def counted(*args, rows, **kwargs):
        integrated.append(rows)
        return integrate(*args, rows=rows, **kwargs)

    integrate = eikonal.integrate_adaptive
    monkeypatch.setattr(eikonal, "_z_profile",
                        asked("eikonal", eikonal._z_profile))
    monkeypatch.setattr(born, "_z_profile", asked("born", born._z_profile))
    monkeypatch.setattr(eikonal, "integrate_adaptive", counted)
    amplitude_eikonal(p, kin, theta, SETTINGS, phase="quadrature")
    born_resummed_amplitude(p, kin, theta, SETTINGS)

    def distinct(route):
        return {x for r, b in requested if r == route for x in b}

    eik, res = distinct("eikonal"), distinct("born")
    assert eik and res and eik & res  # the routes share impact parameters
    assert sum(integrated) == len(eik | res)


def test_failing_miss_row_names_the_callers_row():
    p = Yukawa(0.5, 1.0)
    settings = QuadratureSettings(max_subdivisions=8)
    b = np.array([0.5, 1.0, 1e-3])
    eikonal._z_profile(p, b[:2], settings)
    with pytest.raises(ConvergenceError) as cached:
        eikonal._z_profile(p, b, settings)
    with pytest.raises(ConvergenceError) as uncached:
        _uncached(p, b, dataclasses.replace(settings, abs_tol=1e-300))
    assert "in row 2 " in str(cached.value)
    assert str(cached.value) == str(uncached.value)
    # nothing of the failed row was stored: it fails again
    with pytest.raises(ConvergenceError, match="in row 1 "):
        eikonal._z_profile(p, b[1:], settings)


def test_store_holds_one_potential_and_a_bounded_count(monkeypatch):
    p1, p2 = Gauss(0.3, 0.7), Gauss(0.3, 0.7)  # equal, not the same
    eikonal._z_profile(p1, B, SETTINGS)
    w2 = eikonal._z_profile(p2, B[:2], SETTINGS)
    held, _, store = eikonal._profile
    assert held is p2
    assert set(store) == set(B[:2].tolist())
    _same_bits(w2, _uncached(p2, B[:2]))

    monkeypatch.setattr(eikonal, "_PROFILE_ENTRIES", 4)
    for start in range(0, 8, 3):
        b = np.linspace(1.0, 4.5, 8)[start:start + 3]
        _same_bits(eikonal._z_profile(p2, b, SETTINGS), _uncached(p2, b))
        assert len(eikonal._profile[2]) <= 4


def test_effective_radius_is_computed_once_per_potential(monkeypatch):
    calls = []
    radius = partial_wave.effective_radius

    def counted(p):
        calls.append(p)
        return radius(p)

    monkeypatch.setattr(partial_wave, "effective_radius", counted)
    p = Gauss(0.4, 1.0)
    first = [partial_wave.phase_shifts(p, Kinematics(mass=1.0, k=k))
             for k in (1.0, 2.0)]
    assert calls == [p]
    # an equal but distinct potential pays its own, to the same bits
    fresh = partial_wave.phase_shifts(Gauss(0.4, 1.0),
                                      Kinematics(mass=1.0, k=1.0))
    assert len(calls) == 2
    _same_bits(fresh.delta, first[0].delta)
    # only the last potential is held
    assert partial_wave._r_eff[0] is not p
