"""The z-profile: eikonal's quadrature phase and born_resummed read one w(b)
per potential and setting, each value with a bound on its error. Every b,
of Yukawa, Gauss or a table, comes from a store of per-b integrals with
the bits of an uncached integration; Yukawa's and Gauss's lie within
their bounds of the closed forms."""

import filecmp
import importlib.util
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sps

import scatterlab
from scatterlab import born, eikonal, partial_wave, potentials, quadrature
from scatterlab.born import born_resummed_amplitude
from scatterlab.config import parse_config
from scatterlab.eikonal import Kinematics, amplitude_eikonal, chi, chi_closed
from scatterlab.errors import DomainError
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa
from scatterlab.quadrature import QuadratureSettings, hankel0
from scatterlab.runner import _quadrature_warning, run_scan

import _oracles

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = QuadratureSettings()
# settings no analytic z-profile reads: its trapezoid rule's bound is a-priori
LOOSE = QuadratureSettings(rel_tol=1e-2, abs_tol=1.0, max_subdivisions=8)
# repeated b, and (for the table) b at and beyond its last radius 4
B = np.array([0.3, 1.2, 0.3, 4.0, 5.5, 1.2, 2.7, 4.0])
EPS = np.finfo(float).eps
ANALYTIC = [Yukawa(0.5, 1.0), Yukawa(-1.2, 0.4), Gauss(0.3, 0.7),
            Gauss(0.01, 1.0)]


def _table():
    r = np.linspace(0.0, 4.0, 300)
    v = -0.8 * np.exp(-r * r)
    v[-1] = 0.0
    return TabulatedRadial(r, v)


def _soft_core_table(r_hi):
    # the benchmark's table shape: g exp(-mu r)/sqrt(r^2 + a^2), cut to 0
    r = np.linspace(0.0, r_hi, 3000)
    v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
    v[-1] = 0.0
    return TabulatedRadial(r, v)


def _uncached(p, b, settings):
    """(w, error estimate) at each b, integrated afresh."""
    return eikonal._integrate_z_profile(p, np.asarray(b, dtype=float),
                                        settings, lambda j: f" in row {j}")


def _same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("make_p", [lambda: Yukawa(0.5, 1.0),
                                    lambda: Gauss(0.3, 0.7), _table],
                         ids=["yukawa", "gauss", "table"])
def test_memoised_profile_has_the_bits_of_an_uncached_integration(make_p):
    p = make_p()
    profile = eikonal._z_profile(p, SETTINGS)
    cold = profile(B[:3])
    warm = profile(B)  # hits, misses and repeats
    again = profile(B[::-1])  # hits only
    # every value, and its error estimate, has the bits of asking for that
    # b alone, and of integrating it afresh
    for b, w, e in zip(B, *warm):
        _same_bits((w, e), [x[0] for x in profile(np.array([b]))])
    _same_bits(cold, [x[:3] for x in warm])
    _same_bits(again, [x[::-1] for x in warm])
    _same_bits(warm, _uncached(p, B, SETTINGS))
    assert set(profile._store) == set(B.tolist())
    if isinstance(p, TabulatedRadial):
        beyond = warm[0][B >= 4.0]
        assert beyond.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(beyond).any()
        assert warm[1][B >= 4.0].tolist() == [0.0, 0.0, 0.0]
        assert np.all(warm[1][B < 4.0] > 0.0)
    else:
        # the trapezoid rule reads no setting: loose ones give the same bits
        _same_bits(warm, _uncached(p, B, LOOSE))
        _same_bits(warm, eikonal._z_profile(p, LOOSE)(B))


@pytest.mark.parametrize("make_p", [lambda: Yukawa(0.5, 1.0),
                                    lambda: Gauss(0.3, 0.7), _table],
                         ids=["yukawa", "gauss", "table"])
def test_store_returns_the_shape_of_b_with_the_bits_of_a_flat_call(make_p):
    p = make_p()
    grid = B.reshape(2, 4)
    w, err = eikonal._z_profile(p, SETTINGS)(grid)
    assert w.shape == err.shape == grid.shape
    # a fresh store, so the flat call integrates every b again
    flat = eikonal._ZProfile(p, SETTINGS)(B)
    _same_bits((w.ravel(), err.ravel()), flat)
    w0, err0 = eikonal._z_profile(p, SETTINGS)(np.array(B[1]))
    assert w0.shape == err0.shape == ()
    _same_bits((w0, err0), [x[1] for x in flat])


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
    kin = Kinematics(mass=1.0, k=3.0)
    theta = np.array([0.0, 0.1, 0.2])
    requested, integrated = [], []

    class Asked:
        """A profile that records the b each route asks it for."""

        def __init__(self, route, profile):
            self.route, self.profile = route, profile

        def __call__(self, b):
            requested.append((self.route, b.ravel().tolist()))
            return self.profile(b)

    def asked(route, z_profile):
        return lambda p, settings: Asked(route, z_profile(p, settings))

    integrate = eikonal._integrate_z_profile

    def counted(p, b, settings, label):
        integrated.append(b.size)
        return integrate(p, b, settings, label)

    monkeypatch.setattr(eikonal, "_z_profile",
                        asked("eikonal", eikonal._z_profile))
    monkeypatch.setattr(born, "_z_profile", asked("born", born._z_profile))
    monkeypatch.setattr(eikonal, "_integrate_z_profile", counted)

    def distinct(route):
        return {x for r, b in requested if r == route for x in b}

    for p in (_table(), Yukawa(0.5, 1.0), Gauss(0.01, 1.0)):
        requested.clear()
        integrated.clear()
        amplitude_eikonal(p, kin, theta, SETTINGS, phase="quadrature")
        born_resummed_amplitude(p, kin, theta, SETTINGS)
        eik, res = distinct("eikonal"), distinct("born")
        # the routes share impact parameters
        assert eik and res and eik & res, p
        assert sum(integrated) == len(eik | res), p


def _overflowing_table():
    # 4e307 out to r = 3, then linear to 0 at 4: w(b) = 2 int V dz passes
    # the largest float below b ~ 3, and is finite at 3.5 and 3.9
    return TabulatedRadial(np.arange(5.0), np.r_[np.full(4, 4e307), 0.0],
                           interpolation="linear")


def test_failing_miss_row_names_the_callers_row():
    p = _overflowing_table()
    b = np.array([3.9, 3.5, 0.05])
    profile = eikonal._z_profile(p, SETTINGS)
    profile(b[:2])
    with pytest.raises(DomainError) as cached:
        profile(b)
    with pytest.raises(DomainError) as uncached:
        _uncached(p, b, SETTINGS)
    assert "b = 0.05 in row 2" in str(cached.value)
    assert str(cached.value) == str(uncached.value)
    # nothing of the failed row was stored: it fails again
    assert set(profile._store) == set(b[:2].tolist())
    with pytest.raises(DomainError, match="in row 1"):
        profile(b[1:])


def test_failing_node_integral_names_its_b_and_stores_nothing():
    # the table's w overflows at b = 0.05; the error names the row that
    # holds that b, and chi stores nothing
    p = _overflowing_table()
    kin = Kinematics(mass=1.0, k=1.0)
    b = np.array([3.5, 0.05])
    with pytest.raises(DomainError, match="b = 0.05 in row 1"):
        chi(p, kin, b, SETTINGS)
    profile = eikonal._z_profile(p, SETTINGS)
    assert profile._store == {}
    with pytest.raises(DomainError, match="in row 0"):
        chi(p, kin, b[1:], SETTINGS)
    assert profile._store == {}
    assert eikonal._z_profile(p, SETTINGS) is profile


def test_overflowing_profile_names_its_row_and_stores_nothing():
    # w = 2 g K0(mu b) passes the largest float at b = 1e-10 for g = 1e308
    p = Yukawa(1e308, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match="b = 1e-10 in row 1"):
            chi(p, Kinematics(mass=1.0, k=1.0), np.array([1.0, 1e-10]))
    assert eikonal._z_profile(p, SETTINGS)._store == {}


def test_interpolant_is_built_once_from_a_few_hundred_integrals(monkeypatch):
    counts = []
    integrate = eikonal._integrate_z_profile

    def counted(p, b, settings, label):
        counts.append(b.size)
        return integrate(p, b, settings, label)

    monkeypatch.setattr(eikonal, "_integrate_z_profile", counted)
    p = Gauss(0.01, 1.0)
    kin = Kinematics(mass=1.0, k=2.0)
    theta = np.linspace(0.0, 0.2, 33)
    born_resummed_amplitude(p, kin, theta, SETTINGS)
    profile = eikonal._z_profile(p, SETTINGS)
    amplitude_eikonal(p, kin, theta, SETTINGS, phase="quadrature")
    born_resummed_amplitude(p, Kinematics(mass=1.0, k=5.0), theta, SETTINGS)
    # one store for every angle, route and k, holding each b integrated
    # once: the transforms never ask beyond the profile's reach
    assert eikonal._z_profile(p, SETTINGS) is profile
    assert sum(counts) == len(profile._store)
    assert sum(counts) <= 700


def test_store_holds_one_potential_and_a_bounded_count(monkeypatch):
    p1, p2 = _table(), _table()  # equal, not the same
    eikonal._z_profile(p1, SETTINGS)(B)
    w2 = eikonal._z_profile(p2, SETTINGS)(B[:2])
    held = eikonal._profile
    assert held.p is p2
    assert set(held._store) == set(B[:2].tolist())
    _same_bits(w2, _uncached(p2, B[:2], SETTINGS))
    assert held._store[B[0]] == (w2[0][0], w2[1][0])

    monkeypatch.setattr(eikonal, "_PROFILE_ENTRIES", 4)
    for start in range(0, 8, 3):
        b = np.linspace(1.0, 3.5, 8)[start:start + 3]
        _same_bits(held(b), _uncached(p2, b, SETTINGS))
        assert len(held._store) <= 4
    assert eikonal._z_profile(p2, SETTINGS) is held


def test_effective_radius_calls_no_quadrature_routine(monkeypatch):
    # the weight is exact: closed forms, or a table's quintics on 7-point
    # Gauss, so no integrator runs, in any namespace that binds one
    def refuse(*args, **kwargs):
        raise AssertionError("effective_radius called a quadrature routine")

    for mod in (quadrature, potentials, partial_wave):
        for name in ("integrate_adaptive", "integrate_semi_infinite",
                     "integrate_cubic", "hankel0"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    for p in (Yukawa(0.5, 1.0), Gauss(0.4, 1.0), _table()):
        assert scatterlab.effective_radius(p) > 0.0


def _off_grid(p, rng):
    """Random b on [0, R], b near R, and for Yukawa b -> 0."""
    cut = potentials.reach(p)[0]
    b = [rng.uniform(0.0, cut, 40), cut - np.logspace(-12, 0, 7), [cut]]
    if isinstance(p, Yukawa):
        b.append(np.logspace(-10, -1, 10))
    return np.concatenate(b)


def _closed(p, b):
    """w(b) in closed form, from scipy's K0 or numpy's exp."""
    if isinstance(p, Yukawa):
        return 2.0 * p.g * sps.k0(p.mu * b)
    return p.g * np.sqrt(np.pi / p.alpha) * np.exp(-p.alpha * b * b)


@pytest.mark.parametrize("p", ANALYTIC, ids=str)
def test_stored_profile_is_within_its_bound_of_direct_integrals(p):
    profile = eikonal._z_profile(p, SETTINGS)
    b = _off_grid(p, np.random.default_rng(7))
    closed = _closed(p, b)
    got, bound = profile(b)
    # the stored bound, plus the rounding of the closed form itself, whose
    # exponent x = mu b or alpha b^2 carries a relative error of about x eps
    x = p.mu * b if isinstance(p, Yukawa) else p.alpha * b * b
    slack = bound + (8.0 + x) * EPS * np.abs(closed)
    assert np.all(np.abs(got - closed) <= slack)


def _mp_closed(p, b):
    """w(b) in closed form at the float b, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        if isinstance(p, Yukawa):
            return float(2 * mpmath.mpf(p.g)
                         * mpmath.besselk(0, mpmath.mpf(p.mu) * b))
        return float(mpmath.mpf(p.g) * mpmath.sqrt(mpmath.pi / p.alpha)
                     * mpmath.exp(-mpmath.mpf(p.alpha) * mpmath.mpf(b)**2))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("p", ANALYTIC, ids=str)
def test_every_stored_bound_covers_the_closed_form(p, seed):
    # the trapezoid rule's a-priori bound: b uniform on [0, reach], at the
    # reach, down to 1e-10, and b = 0 for Gauss, with no RuntimeWarning
    rng = np.random.default_rng(seed)
    cut = potentials.reach(p)[0]
    b = np.concatenate([rng.uniform(0.0, cut, 60), [cut],
                        np.logspace(-10, -1, 10),
                        [0.0] if isinstance(p, Gauss) else []])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, bound = eikonal._z_profile(p, SETTINGS)(b)
    exact = np.array([_mp_closed(p, x) for x in b.tolist()])
    assert np.all(np.abs(got - exact) <= bound)
    # at rounding level: the floor 50 eps h sum |f| and the a-priori
    # terms, each at most eps |w|
    assert np.all(bound <= 60.0 * EPS * np.abs(exact))


def test_born_resummed_runs_no_adaptive_quadrature(monkeypatch):
    # the z-profiles are a fixed rule (Yukawa, Gauss) and a closed form
    # (tables): no adaptive integrator runs, in any namespace binding one
    def refused(*args, **kwargs):
        raise AssertionError("adaptive quadrature reached")

    for mod in (eikonal, born, potentials, quadrature):
        for name in ("integrate_semi_infinite", "integrate_adaptive"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refused)
    kin = Kinematics(mass=1.0, k=2.0)
    theta = np.linspace(0.0, 0.2, 5)
    for p in (Gauss(0.01, 1.0), Yukawa(0.5, 1.0), _table()):
        amp = born_resummed_amplitude(p, kin, theta, SETTINGS)
        assert np.all(np.isfinite(amp.value))
        amp = amplitude_eikonal(p, kin, theta, SETTINGS, phase="quadrature")
        assert np.all(np.isfinite(amp.value))


def test_j0_envelope():
    x = np.linspace(0.0, 400.0, 400_001)
    assert np.all(np.abs(sps.j0(x)) * np.sqrt(np.pi * x / 2.0) <= 1.0)


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.3, 0.7)], ids=str)
def test_hankel_error_bounds_the_j0_weighted_piece_bounds(p):
    # the quadrature phase hands hankel0 each w's bound; the error the
    # transform adds for them (their integral against J0's envelope, see
    # test_quadrature) is positive, falls as q grows, and moves no value
    kin = Kinematics(mass=1.0, k=2.0)
    upper = potentials.reach(p)[0]
    g = eikonal._phase_integrand(p, kin, "quadrature", SETTINGS)
    q = np.array([0.0, 0.01, 0.3, 2.0, 10.0])
    bounded = hankel0(g, q, upper)
    plain = hankel0(lambda b: g(b)[0], q, upper)
    _same_bits(bounded.value, plain.value)
    added = bounded.error_estimate - plain.error_estimate
    assert np.all(added > 0.0)
    assert np.all(np.diff(added[1:]) < 0.0)


@pytest.mark.parametrize("p", ANALYTIC, ids=str)
def test_quadrature_chi_matches_chi_closed(p):
    kin = Kinematics(mass=1.0, k=2.0)
    b = _off_grid(p, np.random.default_rng(11))
    profile = eikonal._z_profile(p, SETTINGS)
    closed = chi_closed(p, kin, b)
    hv = kin.hbar * kin.v
    slack = (profile(b)[1] + 16.0 * EPS * np.abs(closed * hv)) / hv
    dev = np.abs(chi(p, kin, b, SETTINGS) - closed)
    assert np.all(dev <= slack)
    assert np.max(dev) <= 1e-13 * np.max(np.abs(closed))  # rounding level


@pytest.mark.parametrize("r_hi", [12.0, 30.0])
def test_tabulated_chi_near_the_last_radius_reads_no_setting(r_hi):
    # w ~ 1e-20 there: the closed form takes no tolerance, so the profile
    # has the same bits whatever abs_tol or budget the run asks for, and
    # it is within its bound of the 30-digit transform
    p = _soft_core_table(r_hi)
    b = r_hi - np.logspace(-12, -3, 400)
    kin = Kinematics(mass=1.0, k=5.0)
    w = -chi(p, kin, b, SETTINGS) * kin.hbar * kin.v
    big = float(np.max(np.abs(p.v)))
    assert np.all(np.abs(w) <= 2.0 * big * np.sqrt(r_hi**2 - b * b))
    for asked in (QuadratureSettings(abs_tol=1.0),
                  QuadratureSettings(abs_tol=1e-300, max_subdivisions=8)):
        _same_bits(-chi(p, kin, b, asked) * kin.hbar * kin.v, w)
    got, bound = eikonal._z_profile(p, SETTINGS)(b[::40])
    exact = _oracles.abel_transform(*p._pieces, b[::40])
    assert np.all(np.abs(got - exact) <= bound)


def test_seed_11_table_profile_is_within_its_bound_of_the_exact_transform(
        tmp_path):
    # the benchmark's seed-11 table at its k: 30 of the b its eikonal
    # stores, each within its bound of a 30-digit transform of the pieces
    # and within 1e-15 of it (an adaptive z-integral was 2.9e-10 off)
    spec = importlib.util.spec_from_file_location(
        "_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = Path(workloads.generate("tabulated", 11, str(tmp_path)))
    cfg = parse_config(path.read_text(), base_dir=str(tmp_path))
    p = cfg.potential
    amplitude_eikonal(p, cfg.kinematics(5.0), cfg.theta.points(),
                      cfg.quadrature)
    store = eikonal._z_profile(p, cfg.quadrature)._store
    b = np.array(sorted(store))[np.linspace(0, len(store) - 1, 30,
                                            dtype=int)]
    got, bound = np.array([store[x] for x in b.tolist()]).T
    exact = _oracles.abel_transform(*p._pieces, b)
    assert np.all(np.abs(got - exact) <= bound)
    assert np.max(np.abs(got - exact)) <= 1e-15


def test_repeated_runs_give_byte_identical_csvs(tmp_path):
    text = """
[potential]
model = {model}

[kinematics]
mass = 1.0
k = 2, 5

[theta_grid]
min = 0.0
max = 0.2
count = 9

[run]
sources = born_resummed

[output]
directory = {out}
"""
    models = {"gauss": "gauss\ng = 0.01\nalpha = 1.0",
              "yukawa": "yukawa\ng = -0.5\nmu = 1.0"}
    for name, model in models.items():
        runs = []
        for tag in ("a", "b"):
            # a fresh parse is a fresh potential object, so a fresh store
            cfg = parse_config(text.format(model=model,
                                           out=tmp_path / name / tag))
            assert not run_scan(cfg).failed
            runs.append(tmp_path / name / tag)
        # the same potential again reads the profile already stored
        assert not run_scan(cfg, out_dir=str(tmp_path / name / "c")).failed
        runs.append(tmp_path / name / "c")
        for csv in ("born_resummed_k2.csv", "born_resummed_k5.csv",
                    "summary.csv"):
            for other in runs[1:]:
                assert filecmp.cmp(runs[0] / csv, other / csv,
                                   shallow=False), (name, csv)


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.3, 0.7)], ids=str)
def test_amplitude_error_includes_the_interpolation_bound(p, monkeypatch):
    # each amplitude's error exceeds its estimate with w's bounds
    # dropped, which move no value
    kin = Kinematics(mass=1.0, k=2.0)
    theta = np.array([0.0, 0.1])

    def amplitudes():
        return (born_resummed_amplitude(p, kin, theta, SETTINGS),
                amplitude_eikonal(p, kin, theta, SETTINGS, phase="quadrature"))

    bounded = amplitudes()
    call = eikonal._ZProfile.__call__
    monkeypatch.setattr(eikonal._ZProfile, "__call__",
                        lambda self, b: (call(self, b)[0], np.zeros(b.shape)))
    for amp, plain in zip(bounded, amplitudes()):
        _same_bits(amp.value, plain.value)
        assert np.all(amp.error_estimate > plain.error_estimate)


def test_interpolation_bound_keeps_errors_within_the_warning_target():
    # Yukawa at k = 10 out to theta = 0.6, where |f| is 30x below its
    # forward value: the runner warns when an error exceeds 10x its target
    p, kin = Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=10.0)
    theta = np.linspace(0.0, 0.6, 13)
    for amp in (born_resummed_amplitude(p, kin, theta, SETTINGS),
                amplitude_eikonal(p, kin, theta, SETTINGS,
                                  phase="quadrature")):
        assert _quadrature_warning("source", kin.k, amp.error_estimate,
                                   amp.value, SETTINGS) is None


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Yukawa(-2.0, 0.05),
                               Gauss(0.3, 0.7), Gauss(0.5, 1e-3)], ids=str)
def test_reach_bounds_the_tail_of_the_profile(p):
    # R is where the closed-form tail bound falls to eps of the whole
    # int_0^inf |w| b db; the bound it reports covers the exact tail
    reach, tail = potentials.reach(p)
    if isinstance(p, Yukawa):
        # w = 2 g K0(mu b): int_R^inf |w| b db = 2|g| R K1(mu R)/mu
        whole = 2.0 * abs(p.g) / p.mu**2
        exact = 2.0 * abs(p.g) * reach * sps.k1(p.mu * reach) / p.mu
        assert reach * p.mu == pytest.approx(38.1, abs=0.1)
    else:
        # w = g sqrt(pi/alpha) e^{-alpha b^2}
        whole = abs(p.g) * np.sqrt(np.pi / p.alpha) / (2.0 * p.alpha)
        exact = whole * np.exp(-p.alpha * reach * reach)
        assert reach * np.sqrt(p.alpha) == pytest.approx(6.0, abs=0.01)
    assert exact <= tail * (1.0 + 1e-12) and tail <= 1.2 * exact
    assert tail == pytest.approx(EPS * whole, rel=1e-6)
    assert potentials.reach(_table()) == (4.0, 0.0)


@pytest.mark.parametrize("k, theta", [
    (5.0, np.linspace(0.0, 0.2, 6)),
    (10.0, np.linspace(0.0, 0.6, 64)),
])
def test_tabulated_errors_cover_a_tight_reference(monkeypatch, k, theta):
    # the benchmark's table: both routes' errors, w's bounds among them,
    # cover the deviation from per-angle runs at 100x tighter tolerances,
    # and stay within 10x their target, so the runner does not warn (an
    # adaptive z-integral at rel_tol 1e-10 once took them past it beyond
    # theta ~ 0.3 at k = 10)
    p = _soft_core_table(30.0)
    kin = Kinematics(mass=1.0, k=k)
    tight = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-14,
                               max_subdivisions=2000)
    ref = np.array([amplitude_eikonal(p, kin, float(t), tight).value
                    for t in theta])
    stored = []
    integrate = eikonal._integrate_z_profile

    def counted(p, b, settings, label):
        stored.append(b.size)
        return integrate(p, b, settings, label)

    monkeypatch.setattr(eikonal, "_integrate_z_profile", counted)
    for amp in (amplitude_eikonal(p, kin, theta, SETTINGS),
                born_resummed_amplitude(p, kin, theta, SETTINGS)):
        assert np.all(np.abs(amp.value - ref) <= amp.error_estimate)
        assert _quadrature_warning("source", k, amp.error_estimate,
                                   amp.value, SETTINGS) is None
    # the angles share their impact parameters: 24,498 distinct b for the
    # 64 angles at k = 10 when each angle had its own
    assert sum(stored) <= 1500
