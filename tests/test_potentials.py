"""Potential models, transforms, and table ingestion."""

import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
from hypothesis import example, given, settings

import _oracles
import scatterlab
from scatterlab._spline import cubic_roots, natural_cubic
from scatterlab.born import born1_amplitude
from scatterlab.eikonal import Kinematics
from scatterlab.errors import (ConfigError, ConvergenceError, DomainError,
                               RangeError, SingularityError,
                               UnsupportedModelError)
from scatterlab.potentials import (Gauss, TabulatedRadial, Yukawa, evaluate,
                                   fourier3d, load_radial_table,
                                   origin_expansion, reach)
from test_properties import KINK, tables


def _dense_gauss_table(g=1.0, alpha=1.0, r_hi=9.0, n=3000):
    r = np.linspace(1e-6, r_hi, n)
    return TabulatedRadial(r=r, v=g * np.exp(-alpha * r * r))


def test_model_validation():
    with pytest.raises(DomainError):
        Yukawa(g=1.0, mu=0.0)
    with pytest.raises(DomainError):
        Yukawa(g=np.inf, mu=1.0)
    with pytest.raises(DomainError):
        Gauss(g=1.0, alpha=-2.0)
    with pytest.raises(DomainError):
        TabulatedRadial(r=[1.0, 2.0, 3.0], v=[1.0, 0.5, 0.0])  # too few
    with pytest.raises(DomainError):
        TabulatedRadial(r=[1.0, 2.0, 2.0, 3.0], v=[1.0, 0.5, 0.2, 0.0])
    with pytest.raises(DomainError):
        TabulatedRadial(r=[-0.5, 1.0, 2.0, 3.0], v=[1.0, 0.5, 0.2, 0.0])
    with pytest.raises(DomainError):
        # last sample must vanish
        TabulatedRadial(r=[1.0, 2.0, 3.0, 4.0], v=[1.0, 0.8, 0.5, 0.1])
    with pytest.raises(DomainError):
        TabulatedRadial(r=[1.0, 2.0, 3.0, 4.0], v=[1.0, 0.8, 0.5, 0.0],
                        interpolation="spline9000")
    TabulatedRadial(r=[0.0, 1.0, 2.0, 3.0], v=[1.0, 0.5, 0.2, 0.0])


def test_a_table_refuses_samples_numpy_cannot_convert():
    # these raised numpy's ValueError or TypeError
    for key, r, v in (("r", ["a", "b", "c", "d"], [1, 2, 3, 0]),
                      ("r", [0, 1j, 2, 3], [1, 2, 3, 0]),
                      ("v", [0, 1, 2, 3], [1, None, "x", 0]),
                      ("v", [0, 1, 2, 3], [1, 2, 3, 1j])):
        with pytest.raises(DomainError) as err:
            TabulatedRadial(r=r, v=v)
        assert err.value.key == key


def test_evaluate_closed_forms():
    assert abs(evaluate(Yukawa(g=1.0, mu=1.0), 1.0) - np.exp(-1.0)) < 1e-16
    assert evaluate(Gauss(g=2.0, alpha=1.0), 0.0) == 2.0
    assert abs(evaluate(Gauss(g=1.0, alpha=0.5), 2.0) - np.exp(-2.0)) < 1e-16
    r = np.array([0.3, 1.7, 4.0])
    got = evaluate(Yukawa(g=-0.5, mu=2.0), r)
    assert np.allclose(got, -0.5 * np.exp(-2.0 * r) / r, rtol=1e-15)


def test_evaluate_errors():
    with pytest.raises(SingularityError):
        evaluate(Yukawa(g=1.0, mu=1.0), 0.0)
    with pytest.raises(DomainError):
        evaluate(Gauss(g=1.0, alpha=1.0), -0.1)
    with pytest.raises(UnsupportedModelError):
        evaluate(object(), 1.0)


def test_evaluate_monotone_decreasing_for_positive_g():
    r = np.linspace(0.05, 12.0, 400)
    for p in (Yukawa(g=1.0, mu=0.7), Gauss(g=2.0, alpha=0.3)):
        v = evaluate(p, r)
        assert np.all(np.diff(v) < 0.0)


def test_tabulated_clamp_and_cutoff():
    tab = TabulatedRadial(r=[0.5, 1.0, 1.5, 2.0], v=[1.0, 0.8, 0.3, 0.0])
    assert evaluate(tab, 0.1) == 1.0  # clamps below first sample
    assert evaluate(tab, 1.0) == 0.8
    assert evaluate(tab, 5.0) == 0.0  # zero beyond the last sample
    lin = TabulatedRadial(r=[0.5, 1.0, 1.5, 2.0], v=[1.0, 0.8, 0.3, 0.0],
                          interpolation="linear")
    assert abs(evaluate(lin, 1.25) - 0.55) < 1e-15


def test_tabulated_matches_sampled_function():
    # natural-end spline curvature mismatch dominates near the first knot,
    # so the bound is looser there than in the interior
    tab = _dense_gauss_table(g=0.7, alpha=0.9)
    r = np.linspace(0.01, 8.5, 57)
    exact = 0.7 * np.exp(-0.9 * r * r)
    assert np.max(np.abs(evaluate(tab, r) - exact)) < 1e-7
    interior = r[r > 0.1]
    got = evaluate(tab, interior)
    assert np.max(np.abs(got - 0.7 * np.exp(-0.9 * interior**2))) < 1e-11


def test_fourier3d_closed_forms():
    assert abs(fourier3d(Yukawa(g=1.0, mu=1.0), 0.0) - 4.0 * np.pi) < 1e-13
    assert abs(fourier3d(Gauss(g=1.0, alpha=1.0), 0.0) - np.pi**1.5) < 1e-14
    assert abs(fourier3d(Yukawa(g=1.0, mu=2.0), 2.0) - np.pi / 2.0) < 1e-14
    with pytest.raises(DomainError):
        fourier3d(Yukawa(g=1.0, mu=1.0), -0.3)


@pytest.mark.parametrize("p, key", [(Yukawa(0.5, 1e200), "mu"),
                                    (Yukawa(0.5, 1e-170), "mu"),
                                    (Gauss(0.5, 1e-250), "alpha")])
def test_scales_past_the_float_range_raise_a_keyed_range_error(p, key):
    # mu^2 overflows, or underflows to 0 where reach divides by it, and
    # (pi/alpha)^1.5 overflows: the transform and the reach raise before
    # any work, naming the parameter (they raised OverflowError and
    # ZeroDivisionError)
    for call in (lambda: fourier3d(p, np.array([0.0, 1.0])),
                 lambda: reach(p)):
        with pytest.raises(RangeError) as err:
            call()
        assert err.value.key == key
        assert str(err.value).startswith(f"{key} = {getattr(p, key)!r} ")


def test_closed_transforms_take_their_limit_past_the_float_range():
    # q^2 overflows at q = 1e200 and the transforms are 0 there, with no
    # overflow warning (the suite turns one into an error); a Gauss so
    # narrow that (pi/alpha)^1.5 underflows has the transform 0 in floats
    q = np.array([0.0, 1e200])
    for p in (Yukawa(1e200, 1.0), Gauss(0.5, 1.0)):
        out = fourier3d(p, q)
        assert out[0] != 0.0 and out[1] == 0.0
    assert fourier3d(Gauss(0.5, 1e300), 0.0) == 0.0


_TABLE = TabulatedRadial(r=[0.5, 1.0, 1.5, 2.0], v=[1.0, 0.8, 0.3, 0.0])


@pytest.mark.parametrize("p", [Yukawa(0.5, 1.0), Gauss(0.5, 1.0), _TABLE],
                         ids=["yukawa", "gauss", "table"])
def test_a_nan_radius_or_momentum_transfer_is_refused(p):
    # NaN passed the old r < 0 and q < 0 checks, and V and Vtilde came
    # out nan; q = inf keeps the closed forms' limit 0
    for bad in (np.nan, np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            evaluate(p, bad)
        with pytest.raises(DomainError):
            fourier3d(p, bad)
    assert evaluate(p, np.inf) == 0.0
    if not isinstance(p, TabulatedRadial):
        assert fourier3d(p, np.inf) == 0.0


def test_fourier3d_against_radial_quadrature_oracle():
    # scipy.integrate.quad of 4 pi int r^2 V(r) sinc(q r) dr, all models
    yuk = Yukawa(g=0.8, mu=1.3)
    gau = Gauss(g=-0.4, alpha=0.6)
    tab = _dense_gauss_table(g=0.5, alpha=1.1, r_hi=10.0, n=4000)

    def oracle(p, q, r_hi):
        def f(r):
            kern = np.sinc(q * r / np.pi)  # sin(qr)/(qr)
            return 4.0 * np.pi * r * r * evaluate(p, r) * kern

        val, _ = scipy.integrate.quad(f, 1e-12, r_hi, limit=300)
        return val

    for p, r_hi in ((yuk, 60.0), (gau, 12.0), (tab, 10.0)):
        for q in (0.0, 0.5, 1.0, 5.0):
            got = fourier3d(p, q)
            want = oracle(p, q, r_hi)
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=tables())
@example(p=KINK)
def test_table_transform_is_within_its_error_of_the_exact_transform(p):
    # q h from 0 to 24 on the widest knot interval, up to 13 pieces an
    # interval: every value within its reported error of a 30-digit
    # transform of the pieces
    edges, coef = p._pieces
    q = np.array([0.0, 0.5, 2.0, 10.0, 24.0]) / np.max(np.diff(edges))
    value, err = fourier3d(p, q, with_error=True)
    assert np.all(np.abs(value - _oracles.fourier_transform(edges, coef, q))
                  <= err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=tables())
def test_table_transform_at_q_0_is_the_volume_integral(p):
    # at q = 0 the series is int V r^2 dr itself: on a table of one sign,
    # where nothing cancels, to 1e-15 relative
    p = TabulatedRadial(p.r, np.abs(p.v), "linear")
    exact = _oracles.fourier_transform(*p._pieces, [0.0])[0]
    assert abs(fourier3d(p, 0.0) - exact) <= 1e-15 * exact


def test_a_refused_transform_names_the_piece_count_in_six_digits():
    # the count of pieces beyond two an interval was printed as an integer
    # of up to 301 digits
    cases = [(lambda: fourier3d(KINK, 1e17), "1e+17", "1.9375e+17"),
             (lambda: fourier3d(KINK, 1e300), "1e+300", "1.9375e+300"),
             (lambda: born1_amplitude(KINK, Kinematics(mass=1.0, k=1e300),
                                      [0.0, 0.5]),
              "4.948079185090459e+299", "9.5869e+299")]
    for call, q, count in cases:
        with pytest.raises(ConvergenceError) as err:
            call()
        assert str(err.value) == (
            f"integrate_sin at q = {q} would cut {count} pieces beyond two "
            f"an interval, over 32,768")
        assert err.value.key is None


def test_table_transform_does_not_import_numpy_ma():
    # importing numpy.ma costs a fresh interpreter about a fifth of a
    # tabulated run (np.unique and np.union1d import it), and
    # numpy.polynomial a tenth: a total integrated over a spline that dips
    # below 0, cut at its roots, imports neither. A whole run's imports are
    # test_runner.py::test_a_run_imports_no_module's
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from scatterlab.cross_sections import total_integrated\n"
        "theta = np.linspace(0.0, np.pi, 241)\n"
        "f = np.maximum(np.cos(3.0 * theta), 0.0)\n"
        "rows = np.column_stack([theta, theta, f, 0.0 * f, f * f])\n"
        "assert total_integrated(rows) > 0.0\n"
        "print('numpy.ma' in sys.modules, "
        "'numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_origin_expansion():
    g, mu = 0.5, 1.2
    assert origin_expansion(Yukawa(g=g, mu=mu)) == (
        g, -g * mu, 0.5 * g * mu * mu, -g * mu**3 / 6.0, g * mu**4 / 24.0,
        -g * mu**5 / 120.0)
    assert origin_expansion(Gauss(g=2.0, alpha=3.0)) == (0.0, 2.0, 0.0,
                                                         -6.0, 0.0, 9.0)
    tab = TabulatedRadial(r=[0.5, 1.0, 1.5, 2.0], v=[0.9, 0.8, 0.3, 0.0])
    assert origin_expansion(tab) == (0.0, 0.9, 0.0, 0.0, 0.0, 0.0)
    # a table from r = 0 starts with its first spline piece, slope and
    # all: here 1 - 1.073 r - 0.309 r^3, not the constant v[0]
    r = np.linspace(0.0, 6.0, 25)
    v = (1.0 - r) * np.exp(-0.5 * r * r)
    v[-1] = 0.0
    for interpolation in ("cubic", "linear"):
        tab = TabulatedRadial(r=r, v=v, interpolation=interpolation)
        cm1, c0, c1, c2, c3, c4 = origin_expansion(tab)
        assert (cm1, c0, c4) == (0.0, 1.0, 0.0)
        x = np.array([0.03, 0.1, 0.2])
        assert evaluate(tab, x) == pytest.approx(
            c0 + x * (c1 + x * (c2 + x * c3)), rel=1e-14, abs=0.0)
    assert (c1, c2, c3) == (float(v[1] - v[0]) / 0.25, 0.0, 0.0)
    cubic = origin_expansion(TabulatedRadial(r=r, v=v))
    assert cubic[2] == pytest.approx(-1.073, abs=1e-3)
    assert cubic[4] == pytest.approx(-0.309, abs=1e-3)
    # what evaluate() returns leaves an r^5 remainder (r^6 for the even
    # Gauss): halving r takes 1/32 (1/64) of it
    for p, ratio in ((Yukawa(g=g, mu=mu), 1 / 32), (Gauss(2.0, 3.0), 1 / 64)):
        cm1, c0, c1, c2, c3, c4 = origin_expansion(p)
        r = np.array([0.04, 0.02])
        rest = evaluate(p, r) - (cm1 / r + c0 + r * (c1 + r * (c2 + r * (
            c3 + r * c4))))
        assert rest[1] / rest[0] == pytest.approx(ratio, rel=0.05)
    with pytest.raises(UnsupportedModelError):
        origin_expansion("what")


def test_load_radial_table():
    text = "# r V\n0.1 1.0\n0.2 0.8\n0.4 0.5\n0.9 0.0\n"
    tab = load_radial_table(io.StringIO(text))
    assert tab.r.shape == (4,)
    assert evaluate(tab, 0.2) == 0.8
    # from a path
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        tab2 = load_radial_table(path, interpolation="linear")
        assert np.array_equal(tab2.r, tab.r)
    finally:
        os.unlink(path)
    with pytest.raises(ConfigError):
        load_radial_table(io.StringIO("0.1 1.0 9.9\n0.2 0.8 9.9\n"
                                      "0.4 0.5 9.9\n0.9 0.0 9.9\n"))
    with pytest.raises(ConfigError):
        load_radial_table(12345)


def test_load_radial_table_separators_and_garbage(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# r, V\n0.1, 1.0\n0.2,0.8\n0.4, 0.5\n0.9, 0.0\n")
    tab = load_radial_table(str(path))
    assert tab.r.tolist() == [0.1, 0.2, 0.4, 0.9]
    assert tab.v.tolist() == [1.0, 0.8, 0.5, 0.0]
    for text in ("r V\n0.1 one\n", "0.1, 1.0\n0.2; 0.8\n"):
        with pytest.raises(ConfigError) as err:
            load_radial_table(io.StringIO(text))
        assert err.value.key == "potential.file"
    with pytest.raises(ConfigError) as err:
        load_radial_table(str(tmp_path / "missing.txt"))
    assert err.value.key == "potential.file"


def test_scalar_array_round_trip():
    p = Gauss(g=1.0, alpha=1.0)
    assert isinstance(evaluate(p, 1.0), float)
    assert evaluate(p, np.array([1.0])).shape == (1,)
    assert isinstance(fourier3d(p, 1.0), float)
    assert fourier3d(p, np.array([0.5, 1.0])).shape == (2,)
    table = _dense_gauss_table(n=40)
    assert isinstance(fourier3d(table, 1.0), float)
    assert fourier3d(table, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("text", ["", "\n  \n", "# r V\n# nothing yet\n"])
def test_load_radial_table_without_data_rows(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="no data rows") as err:
            load_radial_table(io.StringIO(text))
    assert err.value.key == "potential.file"


def _horner(x, coef, xq):
    """The piecewise cubic (x, coef) at xq in [x[0], x[-1]], the last
    interval closed at x[-1]."""
    j = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    s = xq - x[j]
    y0, b, c, d = coef[:, j]
    return y0 + s * (b + s * (c + s * d))


@pytest.mark.parametrize("n", [2, 3, 40])
@pytest.mark.parametrize("dtype", [float])
def test_spline_coefficients_at_construction_keep_the_bits(n, dtype):
    # against the spline that forms each interval's coefficients per call:
    # knots, midpoints, both ends and random points between them
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = (np.sin(x) + 0.1 * rng.standard_normal(n)).astype(dtype)
    coef, old = natural_cubic(x, y), _oracles.CubicSpline1D(x, y)
    assert coef.shape == (4, n - 1) and coef.dtype == float
    xq = np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                         rng.uniform(x[0], x[-1], 500)])
    assert _horner(x, coef, xq).tobytes() == old(xq).tobytes()
    assert coef[0].tobytes() == y[:-1].tobytes()
    with pytest.raises(DomainError):
        natural_cubic(x[::-1], y)
    with pytest.raises(DomainError):
        natural_cubic(x[:1], y[:1])


@pytest.mark.parametrize("interpolation", ["cubic", "linear"])
@pytest.mark.parametrize("r0", [0.0, 0.35])
def test_table_evaluate_keeps_the_bits_of_clamp_and_spline(interpolation,
                                                           r0):
    # a table's pieces, built once, against the clamp to r[0], the spline
    # (or np.interp) and the zero beyond r[-1] that evaluate ran per call:
    # knots, midpoints, points below r[0], r[-1] and beyond r[-1]
    rng = np.random.default_rng(7)
    r = r0 + np.cumsum(np.r_[0.0, rng.uniform(0.05, 0.5, 59)])
    v = np.exp(-r) * np.cos(3.0 * r)
    v[-1] = 0.0
    p = TabulatedRadial(r=r, v=v, interpolation=interpolation)
    below = np.linspace(0.0, r0, 9)[:-1] if r0 > 0.0 else np.zeros(1)
    beyond = np.r_[np.nextafter(r[-1], np.inf), r[-1] + 1e-9,
                   r[-1] + rng.uniform(0.0, 5.0, 50)]
    xq = np.concatenate([r, 0.5 * (r[1:] + r[:-1]), below, beyond,
                         rng.uniform(0.0, r[-1], 2000)])
    got = evaluate(p, xq)
    want = _oracles.table_evaluate(r, v, interpolation, xq)
    last = xq == r[-1]
    if interpolation == "linear":
        # np.interp returns v[-1] at r[-1]; the last line returns v[-2] +
        # h (v[-1] - v[-2]) / h, a rounding residue of it
        assert np.all(np.abs(got[last] - want[last])
                      <= 4.0 * np.finfo(float).eps * np.abs(v).max())
        got, want = got[~last], want[~last]
    assert got.tobytes() == want.tobytes()
    assert evaluate(p, beyond).tobytes() == np.zeros(beyond.size).tobytes()
    points = (r[0], float(r[5]), 0.5 * (r[0] + r[1]), r0 / 2.0, r[-1] + 1.0)
    for x in points + ((r[-1],) if interpolation == "cubic" else ()):
        want = _oracles.table_evaluate(r, v, interpolation, np.array([x]))
        assert evaluate(p, x) == want[0]


@pytest.mark.parametrize("seed", range(4))
def test_cubic_roots_match_scipy_on_random_splines(seed):
    # the zeros strictly inside each knot interval, against scipy's roots
    # of the same natural spline; a linear table is the case c = d = 0
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.05, 1.0, 40))
    y = rng.standard_normal(40)
    for coef, pp in (
            (natural_cubic(x, y),
             scipy.interpolate.CubicSpline(x, y, bc_type="natural")),
            ((y[:-1], np.diff(y) / np.diff(x), 0.0, 0.0),
             scipy.interpolate.PPoly.from_spline(
                 scipy.interpolate.make_interp_spline(x, y, k=1)))):
        j, s = cubic_roots(*coef, np.diff(x))
        want = pp.roots(extrapolate=False)
        want = np.sort(want[np.isfinite(want)])
        assert want.size > 10 and np.all(np.diff(j) >= 0)
        np.testing.assert_allclose(x[j] + s, want, rtol=0.0, atol=1e-13)
