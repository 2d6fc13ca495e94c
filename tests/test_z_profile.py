"""The z-profile: chi, a table's eikonal and born_resummed read w(b), each
value with a bound on its error, and with the bits of a call at that b
alone. The profile keeps nothing: a table's w is its exact Abel
transform, and Yukawa's and Gauss's w lie within their bounds of the
closed forms."""

import filecmp
import importlib.util
import sys
import threading
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sps

import scatterlab
from scatterlab import (born, eikonal, partial_wave, potentials,
                        quadrature, runner)
from scatterlab.born import born_resummed_amplitude
from scatterlab.config import parse_config
from scatterlab.cross_sections import table_from_amplitudes
from scatterlab.eikonal import Kinematics, amplitude_eikonal, chi, chi_closed
from scatterlab.errors import DomainError
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa
from scatterlab.quadrature import QuadratureSettings, hankel0
from scatterlab.runner import _quadrature_warning, run_scan

import _oracles

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = QuadratureSettings()
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


def _same_bits(got, want):
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("make_p", [lambda: Yukawa(0.5, 1.0),
                                    lambda: Gauss(0.3, 0.7), _table],
                         ids=["yukawa", "gauss", "table"])
def test_profile_has_the_bits_of_a_call_for_each_b_alone(make_p):
    p = make_p()

    def profile(b):
        return eikonal._z_profile(p, b)

    part = profile(B[:3])
    whole = profile(B)  # with repeats
    reverse = profile(B[::-1])
    # every value, and its error estimate, has the bits of asking for that
    # b alone, whatever else the call asks for
    for b, w, e in zip(B, *whole):
        _same_bits((w, e), [x[0] for x in profile(np.array([b]))])
    _same_bits(part, [x[:3] for x in whole])
    _same_bits(reverse, [x[::-1] for x in whole])
    if isinstance(p, TabulatedRadial):
        beyond = whole[0][B >= 4.0]
        assert beyond.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(beyond).any()
        assert whole[1][B >= 4.0].tolist() == [0.0, 0.0, 0.0]
        assert np.all(whole[1][B < 4.0] > 0.0)


@pytest.mark.parametrize("make_p", [lambda: Yukawa(0.5, 1.0),
                                    lambda: Gauss(0.3, 0.7), _table],
                         ids=["yukawa", "gauss", "table"])
def test_profile_returns_the_shape_of_b_with_the_bits_of_a_flat_call(make_p):
    p = make_p()
    grid = B.reshape(2, 4)
    w, err = eikonal._z_profile(p, grid)
    assert w.shape == err.shape == grid.shape
    flat = eikonal._z_profile(p, B)
    _same_bits((w.ravel(), err.ravel()), flat)
    w0, err0 = eikonal._z_profile(p, np.array(B[1]))
    assert w0.shape == err0.shape == ()
    _same_bits((w0, err0), [x[1] for x in flat])
    # a grid of repeats: each has the bits of a call for its b alone
    repeats = np.repeat(B[:2], 3).reshape(2, 3)
    w, err = eikonal._z_profile(p, repeats)
    for b, wb, eb in zip(repeats.ravel(), w.ravel(), err.ravel()):
        _same_bits((wb, eb), eikonal._z_profile(p, np.array(b)))


@pytest.mark.parametrize("make_p", [lambda: Yukawa(0.5, 1.0),
                                    lambda: Gauss(0.3, 0.7), _table],
                         ids=["yukawa", "gauss", "table"])
@pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["empty", "2x0"])
def test_an_empty_b_gives_empty_arrays(make_p, shape):
    p, kin = make_p(), Kinematics(mass=1.0, k=2.0)
    b = np.zeros(shape)
    w, err = eikonal._z_profile(p, b)
    assert w.shape == err.shape == shape
    assert chi(p, kin, b).shape == shape


def _table_config(tmp_path, p, sources, k="2, 3", count=3, threads=1,
                  quadrature=""):
    """A tabulated run's config: p's samples written to table.csv."""
    lines = ["# r, V"] + [f"{a!r}, {b!r}"
                          for a, b in zip(p.r.tolist(), p.v.tolist())]
    (tmp_path / "table.csv").write_text("\n".join(lines) + "\n")
    text = f"""
[potential]
model = tabulated
file = table.csv

[kinematics]
mass = 1.0
k = {k}

[theta_grid]
min = 0.0
max = 0.2
count = {count}

[quadrature]
{quadrature}

[run]
sources = {sources}
threads = {threads}
"""
    # each parse loads a fresh potential object
    return parse_config(text, base_dir=str(tmp_path))


def test_tabulated_run_is_byte_identical_at_one_and_four_threads(tmp_path):
    names = ["eikonal_k2.csv", "eikonal_k3.csv", "born_resummed_k2.csv",
             "born_resummed_k3.csv", "summary.csv", "report.txt"]
    for tag, threads in (("t1", 1), ("t4", 4)):
        cfg = _table_config(tmp_path, _table(), "eikonal, born_resummed",
                            threads=threads)
        assert not run_scan(cfg, str(tmp_path / tag)).failed
    for name in names:
        assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t4" / name,
                           shallow=False), name


def _counted_passes(monkeypatch):
    """The q of each hankel0 call the z-profile routes make from now on."""
    passes = []
    transform = eikonal.hankel0

    def counted(g, q, upper, settings):
        passes.append(np.copy(q))
        return transform(g, q, upper, settings)

    monkeypatch.setattr(eikonal, "hankel0", counted)
    return passes


def test_the_profile_s_readers_integrate_each_b_once(monkeypatch):
    # a table's eikonal and born_resummed are one integral: each call's
    # pass asks for the same b, integrates each of them once, and the two
    # amplitudes have the same bits
    p = _table()
    kin = Kinematics(mass=1.0, k=3.0)
    theta = np.array([0.0, 0.1, 0.2])
    requested = {"born": set(), "eikonal": set()}
    route, integrated = [], []
    z_profile, integrate = eikonal._z_profile, eikonal.abel_profile

    def asked(p, b):
        requested[route[-1]].update(b.ravel().tolist())
        return z_profile(p, b)

    def counted(p, b):
        integrated.append(b.size)
        return integrate(p, b)

    monkeypatch.setattr(eikonal, "_z_profile", asked)
    monkeypatch.setattr(eikonal, "abel_profile", counted)
    route.append("born")
    res_amp = born_resummed_amplitude(p, kin, theta, SETTINGS)
    route.append("eikonal")
    eik_amp = amplitude_eikonal(p, kin, theta, SETTINGS)
    res, eik = requested["born"], requested["eikonal"]
    assert res and res == eik
    assert sum(integrated) == len(res) + len(eik)
    _same_bits(eik_amp.value, res_amp.value)
    _same_bits(eik_amp.error_estimate, res_amp.error_estimate)


@pytest.mark.parametrize("first", [amplitude_eikonal,
                                   born_resummed_amplitude],
                         ids=["eikonal-first", "born-first"])
@pytest.mark.parametrize("theta", [0.1, np.array([0.0, 0.05, 0.1, 0.2])],
                         ids=["scalar", "array"])
def test_a_table_s_eikonal_and_born_resummed_have_the_same_bits(theta, first):
    # w Lambda(-w/v) = i v (e^{i chi} - 1): on a table the two routes are
    # one z-profile pass, value and error_estimate alike, in either order,
    # with the bits and types of that route on a fresh table
    p, kin = _table(), Kinematics(mass=1.0, k=3.0)
    second = born_resummed_amplitude if first is amplitude_eikonal \
        else amplitude_eikonal
    one = first(p, kin, theta, SETTINGS)
    other = second(p, kin, theta, SETTINGS)
    fresh = second(_table(), kin, theta, SETTINGS)
    for amp in (other, fresh):
        _same_bits(amp.value, one.value)
        _same_bits(amp.error_estimate, one.error_estimate)
        assert type(amp.value) is type(one.value)
        assert type(amp.error_estimate) is type(one.error_estimate)


@pytest.mark.parametrize("base, change", [
    ({}, {"kin": Kinematics(mass=1.0, k=4.0)}),
    ({}, {"kin": Kinematics(mass=2.0, k=3.0)}),
    ({}, {"theta": np.array([0.0, 0.1, 0.25])}),
    ({}, {"theta": np.array([0.0, 0.1])}),
    ({"theta": 0.1}, {"theta": np.array([0.1])}),
    ({"theta": np.array([0.1])}, {"theta": 0.1}),
    ({}, {"settings": QuadratureSettings(rel_tol=1e-8)}),
    ({}, {"settings": QuadratureSettings(abs_tol=1e-10)}),
    ({}, {"settings": QuadratureSettings(max_subdivisions=400)}),
], ids=["k", "mass", "grid", "fewer-angles", "scalar-then-array",
        "array-then-scalar", "rel_tol", "abs_tol", "budget"])
def test_a_call_that_differs_in_anything_runs_its_own_pass(base, change,
                                                           monkeypatch):
    # the library keeps no memo: a call after another on the same table
    # that differs in anything the pass reads, q's shape among it, runs a
    # pass of its own, with the bits and shapes of a fresh table's
    p = _table()
    first = {"kin": Kinematics(mass=1.0, k=3.0),
             "theta": np.array([0.0, 0.1, 0.2]), "settings": SETTINGS,
             **base}
    amplitude_eikonal(p, **first)
    passes = _counted_passes(monkeypatch)
    call = {**first, **change}
    got = born_resummed_amplitude(p, **call)
    assert len(passes) == 1
    want = born_resummed_amplitude(_table(), **call)
    for field in ("value", "error_estimate"):
        a, b = getattr(got, field), getattr(want, field)
        _same_bits(a, b)
        assert type(a) is type(b) and np.shape(a) == np.shape(b)


def test_equal_tables_keep_their_own_passes(monkeypatch):
    # direct library calls each run their own pass, on equal tables as on
    # one: four calls, four passes, and the routes agree bit for bit
    p1, p2 = _table(), _table()  # equal, not the same
    kin, theta = Kinematics(mass=1.0, k=3.0), np.array([0.0, 0.1])
    passes = _counted_passes(monkeypatch)
    eik1 = amplitude_eikonal(p1, kin, theta, SETTINGS)
    res2 = born_resummed_amplitude(p2, kin, theta, SETTINGS)
    assert len(passes) == 2
    res1 = born_resummed_amplitude(p1, kin, theta, SETTINGS)
    eik2 = amplitude_eikonal(p2, kin, theta, SETTINGS)
    assert len(passes) == 4
    for amp in (res2, res1, eik2):
        _same_bits(amp.value, eik1.value)
        _same_bits(amp.error_estimate, eik1.error_estimate)


@pytest.mark.parametrize("sources", ["eikonal, born_resummed",
                                     "born_resummed, eikonal"],
                         ids=["eikonal-first", "born-first"])
def test_a_pass_that_raises_fails_both_routes_alike(tmp_path, sources,
                                                     monkeypatch):
    # a table run whose pass exceeds its budget: the second route runs the
    # pass again, and both tasks fail with one message
    cfg = _table_config(tmp_path, _table(), sources, k="3",
                        quadrature="rel_tol = 1e-14\nabs_tol = 1e-16\n"
                                   "max_subdivisions = 8")
    passes = _counted_passes(monkeypatch)
    failed = run_scan(cfg, str(tmp_path / "out")).failed
    assert [o.source for o in failed] == sources.split(", ")
    assert failed[0].error == failed[1].error
    assert failed[0].error.startswith("ConvergenceError: ")
    assert len(passes) == 2
    assert not (tmp_path / "out" / "eikonal_k3.csv").exists()


def test_changing_a_returned_amplitude_changes_no_later_result():
    p, kin = _table(), Kinematics(mass=1.0, k=3.0)
    theta = np.array([0.0, 0.1, 0.2])
    want = amplitude_eikonal(_table(), kin, theta, SETTINGS)
    for route in (amplitude_eikonal, born_resummed_amplitude,
                  amplitude_eikonal):
        amp = route(p, kin, theta, SETTINGS)
        _same_bits(amp.value, want.value)
        _same_bits(amp.error_estimate, want.error_estimate)
        amp.value[:] = 0.0
        amp.error_estimate[:] = 0.0


def test_threads_sharing_a_table_get_the_bits_of_a_fresh_one():
    # more threads than cores, switching often, each asking both routes
    # for the same passes: every result has the bits of a fresh table's
    p, kin = _table(), Kinematics(mass=1.0, k=3.0)
    grids = [np.linspace(0.0, 0.2, n) for n in (3, 4, 5)]
    want = [amplitude_eikonal(_table(), kin, theta, SETTINGS)
            for theta in grids]
    bad, done = [], []

    def work(seed):
        order = np.random.default_rng(seed).permutation(2 * len(grids))
        for j in order.tolist():
            route = (amplitude_eikonal, born_resummed_amplitude)[j % 2]
            amp = route(p, kin, grids[j // 2], SETTINGS)
            ref = want[j // 2]
            if amp.value.tobytes() != ref.value.tobytes() \
                    or amp.error_estimate.tobytes() \
                    != ref.error_estimate.tobytes():
                bad.append((seed, j))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(seed,))
                   for seed in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert sorted(done) == list(range(6)) and bad == []


def test_a_table_run_takes_one_pass_a_k(tmp_path, monkeypatch):
    # the runner calls both routes; the second takes the first's pass, and
    # the two CSVs of each k are byte-identical
    cfg = _table_config(tmp_path, _table(), "eikonal, born_resummed",
                        count=5)
    passes = _counted_passes(monkeypatch)
    assert not run_scan(cfg, str(tmp_path / "out")).failed
    assert len(passes) == 2
    for k in ("2", "3"):
        assert filecmp.cmp(tmp_path / "out" / f"eikonal_k{k}.csv",
                           tmp_path / "out" / f"born_resummed_k{k}.csv",
                           shallow=False), k


@pytest.mark.parametrize("sources", ["eikonal, born_resummed",
                                     "born_resummed, eikonal",
                                     "born_resummed"])
def test_a_table_run_takes_one_pass_a_k_in_any_source_order(tmp_path,
                                                            sources,
                                                            monkeypatch):
    # the runner hands the first route's pass at a k to the second: one
    # hankel0 a k in any source order, and each CSV has the bytes of its
    # route called directly
    cfg = _table_config(tmp_path, _table(), sources, count=5)
    passes = _counted_passes(monkeypatch)
    assert not run_scan(cfg, str(tmp_path / "out")).failed
    assert len(passes) == 2
    routes = {"eikonal": amplitude_eikonal,
              "born_resummed": born_resummed_amplitude}
    for source in sources.split(", "):
        for k in (2.0, 3.0):
            amp = routes[source](_table(), cfg.kinematics(k),
                                 cfg.theta.points(), cfg.quadrature)
            want = runner._csv_text(table_from_amplitudes(amp, k))
            got = (tmp_path / "out" / runner._csv_name(source, k)).read_text()
            assert got == want, (source, k)


@pytest.mark.parametrize("model", ["yukawa\ng = 0.5\nmu = 1.0",
                                   "gauss\ng = 0.3\nalpha = 0.7"],
                         ids=["yukawa", "gauss"])
def test_an_analytic_run_takes_both_routes_passes(tmp_path, model,
                                                  monkeypatch):
    # Yukawa's and Gauss's eikonal takes the closed phase and
    # born_resummed the z-profile: a pass each a k, so a run keeps the
    # cross-check between them
    cfg = parse_config(f"""
[potential]
model = {model}

[kinematics]
mass = 1.0
k = 2, 3

[theta_grid]
min = 0.0
max = 0.2
count = 3

[run]
sources = eikonal, born_resummed
""")
    passes = _counted_passes(monkeypatch)
    assert not run_scan(cfg, str(tmp_path / "out")).failed
    assert len(passes) == 4


@pytest.mark.parametrize("p, theta", [
    (Yukawa(0.5, 1.0), np.linspace(0.0, 0.3, 7)),
    (Gauss(0.5, 1.0), np.linspace(0.0, 0.3, 7)),
    (Gauss(-1e-5, 1.0), 0.0),
    (_table(), np.linspace(0.0, 0.3, 7)),
], ids=["yukawa", "gauss", "weak-gauss", "table"])
def test_born_resummed_matches_a_pass_over_the_lambda_form(p, theta):
    # the paper's resummed integrand w Lambda(-w/v) in a hankel0
    # pass of its own, -m int_0^R J0(q b) w Lambda b db: w's
    # bounds carry over as they are, d(w Lambda)/dw = e^{i chi} being of
    # modulus 1, and |w Lambda| <= |w| bounds the tail by reach's T
    kin = Kinematics(mass=1.0, k=2.0)
    v = kin.v
    upper, tail = potentials.reach(p)

    def g(b):
        w, err = eikonal._z_profile(p, b)
        return w * _oracles.lambda_factor(-w / v), err

    amp = born_resummed_amplitude(p, kin, theta, SETTINGS)
    ref = hankel0(g, amp.q, upper, SETTINGS)
    scale = kin.mass
    gap = np.abs(amp.value + scale * np.asarray(ref.value))
    assert np.all(gap <= amp.error_estimate
                  + scale * (ref.error_estimate + tail))


def _overflowing_table():
    # 4e307 out to r = 3, then linear to 0 at 4: w(b) = 2 int V dz passes
    # the largest float below b ~ 3, and is finite at 3.5 and 3.9
    return TabulatedRadial(np.arange(5.0), np.r_[np.full(4, 4e307), 0.0],
                           interpolation="linear")


def test_failing_row_names_the_callers_row():
    p = _overflowing_table()
    b = np.array([3.9, 3.5, 0.05])
    eikonal._z_profile(p, b[:2])
    # the row whose w is not finite is named by its row in b
    with pytest.raises(DomainError, match="b = 0.05 in row 2"):
        eikonal._z_profile(p, b)
    assert np.isinf(potentials.abel_profile(p, b)[0][2])
    with pytest.raises(DomainError, match="in row 1"):
        eikonal._z_profile(p, b[1:])


def test_failing_node_integral_names_its_b():
    # the table's w overflows at b = 0.05; the error names the row that
    # holds that b
    p = _overflowing_table()
    kin = Kinematics(mass=1.0, k=1.0)
    b = np.array([3.5, 0.05])
    with pytest.raises(DomainError, match="b = 0.05 in row 1"):
        chi(p, kin, b)
    with pytest.raises(DomainError, match="in row 0"):
        chi(p, kin, b[1:])


def test_overflowing_profile_names_its_row():
    # w = 2 g K0(mu b) passes the largest float at b = 1e-10 for g = 1e308
    p = Yukawa(1e308, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError, match="b = 1e-10 in row 1"):
            chi(p, Kinematics(mass=1.0, k=1.0), np.array([1.0, 1e-10]))


def test_a_table_s_profile_is_integrated_once_at_a_few_hundred_b(
        monkeypatch):
    integrated = []
    integrate = eikonal.abel_profile

    def counted(p, b):
        integrated.extend(b.tolist())
        return integrate(p, b)

    monkeypatch.setattr(eikonal, "abel_profile", counted)
    p = _table()
    theta = np.linspace(0.0, 0.2, 33)
    for k in (2.0, 5.0):
        start = len(integrated)
        born_resummed_amplitude(p, Kinematics(mass=1.0, k=k), theta,
                                SETTINGS)
        # one pass for every angle, asking for each b once: the transforms
        # never ask beyond the profile's reach
        assert len(set(integrated[start:])) == len(integrated) - start
    assert len(integrated) <= 700


def test_effective_radius_calls_no_quadrature_routine(monkeypatch):
    # the weight is exact: closed forms, or a table's quintics on 7-point
    # Gauss, so no integrator runs, in any namespace that binds one
    def refuse(*args, **kwargs):
        raise AssertionError("effective_radius called a quadrature routine")

    for mod in (quadrature, potentials, partial_wave):
        for name in ("integrate_adaptive", "integrate_semi_infinite",
                     "integrate_sin", "hankel0"):
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
def test_analytic_profile_is_within_its_bound_of_direct_integrals(p):
    b = _off_grid(p, np.random.default_rng(7))
    closed = _closed(p, b)
    got, bound = eikonal._z_profile(p, b)
    # the bound, plus the rounding of the closed form itself, whose
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
def test_every_analytic_profile_bound_covers_the_closed_form(p, seed):
    # the trapezoid rule's a-priori bound: b uniform on [0, reach], at the
    # reach, down to 1e-10, and b = 0 for Gauss, with no RuntimeWarning
    rng = np.random.default_rng(seed)
    cut = potentials.reach(p)[0]
    b = np.concatenate([rng.uniform(0.0, cut, 60), [cut],
                        np.logspace(-10, -1, 10),
                        [0.0] if isinstance(p, Gauss) else []])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, bound = eikonal._z_profile(p, b)
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
        amp = amplitude_eikonal(p, kin, theta, SETTINGS)
        assert np.all(np.isfinite(amp.value))


def test_j0_envelope():
    x = np.linspace(0.0, 400.0, 400_001)
    assert np.all(np.abs(sps.j0(x)) * np.sqrt(np.pi * x / 2.0) <= 1.0)


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.3, 0.7)], ids=str)
def test_hankel_error_bounds_the_j0_weighted_piece_bounds(p):
    # the z-profile's phase hands hankel0 each w's bound; the error the
    # transform adds for them (their integral against J0's envelope, see
    # test_quadrature) is positive, falls as q grows, and moves no value
    kin = Kinematics(mass=1.0, k=2.0)
    upper = potentials.reach(p)[0]
    g = eikonal._phase_integrand(p, kin)
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
    closed = chi_closed(p, kin, b)
    v = kin.v
    bound = eikonal._z_profile(p, b)[1]
    slack = (bound + 16.0 * EPS * np.abs(closed * v)) / v
    dev = np.abs(chi(p, kin, b) - closed)
    assert np.all(dev <= slack)
    assert np.max(dev) <= 1e-13 * np.max(np.abs(closed))  # rounding level


@pytest.mark.parametrize("r_hi", [12.0, 30.0])
def test_tabulated_chi_near_the_last_radius_is_within_its_bound(r_hi):
    # w ~ 1e-20 there: the closed form takes no tolerance, and it is
    # within its bound of the 30-digit transform
    p = _soft_core_table(r_hi)
    b = r_hi - np.logspace(-12, -3, 400)
    kin = Kinematics(mass=1.0, k=5.0)
    w = -chi(p, kin, b) * kin.v
    big = float(np.max(np.abs(p.v)))
    assert np.all(np.abs(w) <= 2.0 * big * np.sqrt(r_hi**2 - b * b))
    got, bound = eikonal._z_profile(p, b[::40])
    exact = _oracles.abel_transform(*p._pieces, b[::40])
    assert np.all(np.abs(got - exact) <= bound)


def test_seed_11_table_profile_is_within_its_bound_of_the_exact_transform(
        tmp_path, monkeypatch):
    # the benchmark's seed-11 table at its k: 30 of the b its eikonal
    # asks for, each within its bound of a 30-digit transform of the pieces
    # and within 1e-15 of it (an adaptive z-integral was 2.9e-10 off)
    spec = importlib.util.spec_from_file_location(
        "_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = Path(workloads.generate("tabulated", 11, str(tmp_path)))
    cfg = parse_config(path.read_text(), base_dir=str(tmp_path))
    p = cfg.potential
    asked = {}
    z_profile = eikonal._z_profile

    def kept(p, b):
        w, err = z_profile(p, b)
        asked.update(zip(b.ravel().tolist(), zip(w.ravel().tolist(),
                                                 err.ravel().tolist())))
        return w, err

    monkeypatch.setattr(eikonal, "_z_profile", kept)
    amplitude_eikonal(p, cfg.kinematics(5.0), cfg.theta.points(),
                      cfg.quadrature)
    b = np.array(sorted(asked))[np.linspace(0, len(asked) - 1, 30,
                                            dtype=int)]
    got, bound = np.array([asked[x] for x in b.tolist()]).T
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
"""
    models = {"gauss": "gauss\ng = 0.01\nalpha = 1.0",
              "yukawa": "yukawa\ng = -0.5\nmu = 1.0"}
    for name, model in models.items():
        runs = []
        for tag in ("a", "b"):
            cfg = parse_config(text.format(model=model))
            assert not run_scan(cfg, str(tmp_path / name / tag)).failed
            runs.append(tmp_path / name / tag)
        # the same potential object again
        assert not run_scan(cfg, out_dir=str(tmp_path / name / "c")).failed
        runs.append(tmp_path / name / "c")
        for csv in ("born_resummed_k2.csv", "born_resummed_k5.csv",
                    "summary.csv"):
            for other in runs[1:]:
                assert filecmp.cmp(runs[0] / csv, other / csv,
                                   shallow=False), (name, csv)


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.3, 0.7), _table()],
                         ids=["yukawa", "gauss", "table"])
def test_amplitude_error_includes_the_profile_bound(p, monkeypatch):
    # each amplitude that reads the profile, born_resummed and a table's
    # eikonal, has an error above its estimate with w's bounds dropped,
    # which move no value
    kin = Kinematics(mass=1.0, k=2.0)
    theta = np.array([0.0, 0.1])
    routes = [born_resummed_amplitude]
    if isinstance(p, TabulatedRadial):
        routes.append(amplitude_eikonal)

    def amplitudes(p):
        return [route(p, kin, theta, SETTINGS) for route in routes]

    bounded = amplitudes(p)
    z_profile = eikonal._z_profile
    monkeypatch.setattr(eikonal, "_z_profile", lambda p, b: (
        z_profile(p, b)[0], np.zeros(b.shape)))
    for amp, plain in zip(bounded, amplitudes(p)):
        _same_bits(amp.value, plain.value)
        assert np.all(amp.error_estimate > plain.error_estimate)


def test_profile_bound_keeps_errors_within_the_warning_target():
    # Yukawa at k = 10 out to theta = 0.6, where |f| is 30x below its
    # forward value: the runner warns when an error exceeds 10x its target
    p, kin = Yukawa(0.5, 1.0), Kinematics(mass=1.0, k=10.0)
    theta = np.linspace(0.0, 0.6, 13)
    amp = born_resummed_amplitude(p, kin, theta, SETTINGS)
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
    # an equal table, not the same object, so that p's passes start empty
    ref = np.array([amplitude_eikonal(_soft_core_table(30.0), kin, float(t),
                                      tight).value for t in theta])
    integrated = []
    integrate = eikonal.abel_profile

    def counted(p, b):
        integrated.append(b.size)
        return integrate(p, b)

    monkeypatch.setattr(eikonal, "abel_profile", counted)
    for amp in (amplitude_eikonal(p, kin, theta, SETTINGS),
                born_resummed_amplitude(p, kin, theta, SETTINGS)):
        assert np.all(np.abs(amp.value - ref) <= amp.error_estimate)
        assert _quadrature_warning("source", k, amp.error_estimate,
                                   amp.value, SETTINGS) is None
    # the angles share their impact parameters: 24,498 distinct b for the
    # 64 angles at k = 10 when each angle had its own
    assert sum(integrated) <= 1500
