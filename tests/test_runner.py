"""Tests for scan orchestration, file emission, and determinism."""

import filecmp
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import _oracles
import scatterlab
from scatterlab.config import echo_lines, parse_config
from scatterlab.eikonal import amplitude_eikonal
from scatterlab import partial_wave
from scatterlab.partial_wave import phase_shifts
from scatterlab.errors import ConfigError, DomainError, ScatterError
from scatterlab.quadrature import QuadratureSettings
from scatterlab.runner import (RunManifest, _csv_text, _fmt,
                               _quadrature_warning, _report_text, run_scan)

FAST = """
[potential]
model = yukawa
g = 0.5
mu = 1.0

[kinematics]
mass = 1.0
k = 2

[theta_grid]
min = 0.0
max = 0.2
count = 9

[run]
sources = born1, paper_closed
"""


def _run(text, out):
    return run_scan(parse_config(text), str(out))


def _read_rows(path):
    return np.genfromtxt(path, delimiter=",", skip_header=1)


class TestFileEmission:
    def test_csv_schema(self, tmp_path):
        m = _run(FAST, tmp_path / "out")
        csv = tmp_path / "out" / "born1_k2.csv"
        header = csv.read_text().splitlines()[0]
        assert header == "theta_rad,q,re_f,im_f,dsigma_domega"
        rows = _read_rows(csv)
        assert rows.shape == (9, 5)
        assert rows[:, 4] == pytest.approx(rows[:, 2] ** 2 + rows[:, 3] ** 2)
        assert m.output_dir == str(tmp_path / "out")

    def test_all_files_present(self, tmp_path):
        m = _run(FAST, tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["born1_k2.csv", "manifest.txt",
                         "paper_closed_k2.csv", "plot.gp", "report.txt",
                         "summary.csv"]
        listed = set(m.csv_files) | set(m.aux_files)
        assert listed == set(names) - {"manifest.txt"}

    def test_plot_references_each_csv_once(self, tmp_path):
        _run(FAST, tmp_path / "out")
        script = (tmp_path / "out" / "plot.gp").read_text()
        assert script.count("born1_k2.csv") == 1
        assert script.count("paper_closed_k2.csv") == 1

    def test_per_k_files(self, tmp_path):
        m = _run(FAST.replace("k = 2", "k = 2, 4"), tmp_path / "out")
        assert (tmp_path / "out" / "born1_k4.csv").exists()
        assert len(m.csv_files) == 4

    def test_seventeen_digit_format(self, tmp_path):
        _run(FAST, tmp_path / "out")
        line = (tmp_path / "out" / "born1_k2.csv").read_text().splitlines()[2]
        cell = line.split(",")[2]
        mantissa = cell.split("e")[0].replace("-", "")
        assert len(mantissa.replace(".", "")) == 17

    def test_csv_rows_keep_the_bytes_of_cell_by_cell_formatting(self):
        # one % per table against _fmt on each cell: several rows each of
        # signed zeros, non-finite values, subnormals and the ends of the
        # float range, among ordinary ones
        rows = np.concatenate([
            [[0.0, -0.0, 1.5, -2.25e-300, np.nan],
             [np.pi, 1e300, -0.0, np.inf, 5e-324],
             [-np.inf, -1.0 / 3.0, 1e-310, -0.0, 2.0]],
            np.full((3, 5), np.nan),
            np.full((2, 5), -0.0),
            [[np.inf, -np.inf, np.inf, -np.inf, np.nan],
             [-np.inf, np.inf, np.nan, np.inf, -np.inf]],
            [[5e-324, -5e-324, 1e-310, -2.2e-308, 4.9e-320],
             [1e-320, 2.2250738585072009e-308, -1e-315, 5e-324, -0.0]],
            [[1e300, -1e300, 1.7976931348623157e308, -1e300, 1e-300],
             [-1.7976931348623157e308, 1e300, 9.999999999999999e299,
              1e300, 1e300]],
            np.random.default_rng(5).standard_normal((4, 5))
            * 10.0 ** np.arange(-9, 11, 1).reshape(4, 5)])
        want = ["theta_rad,q,re_f,im_f,dsigma_domega"]
        want += [",".join(_fmt(x) for x in row) for row in rows]
        assert _csv_text(SimpleNamespace(rows=rows)) == "\n".join(want) + "\n"

    def test_no_negative_zero(self, tmp_path):
        _run(FAST, tmp_path / "out")
        for name in ("born1_k2.csv", "summary.csv"):
            assert "-0.0000000000000000e+00" not in \
                (tmp_path / "out" / name).read_text()


class TestManifest:
    def test_csv_referenced_exactly_once(self, tmp_path):
        m = _run(FAST, tmp_path / "out")
        text = (tmp_path / "out" / "manifest.txt").read_text()
        for name in m.csv_files:
            assert text.count(name) == 1
        assert "version: " in text
        assert "[config]" in text

    def test_config_echo_is_the_config_as_parsed(self, tmp_path):
        # the manifest's [config] block is echo_lines of the config given,
        # which names no directory; output_dir is the one written
        cfg = parse_config(FAST)
        m = run_scan(cfg, out_dir=str(tmp_path / "written"))
        text = (tmp_path / "written" / "manifest.txt").read_text()
        block = text.split("[config]\n")[1].split("\n\n[wall clock")[0]
        assert block.splitlines() == ["  " + ln if ln else ""
                                      for ln in echo_lines(cfg)]
        assert m.config_lines == tuple(echo_lines(cfg))
        assert "written" not in text
        assert m.output_dir == str(tmp_path / "written")

    def test_out_dir_has_no_default(self):
        with pytest.raises(TypeError):
            run_scan(parse_config(FAST))

    def test_duplicate_csv_rejected(self):
        with pytest.raises(DomainError):
            RunManifest(version="0", config_lines=(), outcomes=(),
                        verdicts=(), warnings=(),
                        csv_files=("a.csv", "a.csv"), aux_files=(),
                        output_dir=".")

    def test_resolved_section_names_each_partial_wave_choice(self, tmp_path):
        # the values phase_shifts chose for l_max, r_max and dr, per k, with
        # the split radius R0 and the tail's end where the pass split V, and
        # none for a run without partial_wave; the other files stay as a
        # run's
        text = FAST.replace("k = 2", "k = 2, 10").replace(
            "sources = born1, paper_closed", "sources = born1, partial_wave")
        cfg = parse_config(text)
        m = run_scan(cfg, str(tmp_path / "out"))
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        block = manifest.split("[resolved]\n")[1].split("\n\n")[0]
        lines = []
        for k in (2.0, 10.0):
            kin = cfg.kinematics(k)
            ps = phase_shifts(cfg.potential, kin)
            r0 = partial_wave._split_radius(cfg.potential, kin, ps.r_max)
            end = partial_wave._auto_r_max(cfg.potential, kin, ps.r_max,
                                           partial_wave._FAR)
            assert ps.split == (r0, end)
            lines.append(f"  partial_wave k={k:g}: l_max = {ps.l_max}, "
                         f"r_max = {ps.r_max!r}, dr = {ps.dr!r}, "
                         f"R0 = {r0!r}, tail end = {end!r}")
        assert block.splitlines() == lines
        assert lines[1].endswith("R0 = 7.25, tail end = 29.03")
        assert [o.resolved is None for o in m.outcomes] \
            == [True, True, False, False]
        # a Gauss(0.5, 1) at k = 10 is not split
        gauss = text.replace("model = yukawa", "model = gauss").replace(
            "mu = 1.0", "alpha = 1.0").replace("k = 2, 10", "k = 10")
        run_scan(parse_config(gauss), str(tmp_path / "gauss"))
        manifest = (tmp_path / "gauss" / "manifest.txt").read_text()
        assert manifest.split("[resolved]\n")[1].split("\n")[0].endswith(
            "dr = 0.006, R0 = none")
        _run(FAST, tmp_path / "plain")
        plain = (tmp_path / "plain" / "manifest.txt").read_text()
        assert "[resolved]\n  none\n\n[verdicts]" in plain

    def test_wall_clock_recorded(self, tmp_path):
        m = _run(FAST, tmp_path / "out")
        assert all(o.wall_clock >= 0.0 for o in m.outcomes)
        assert "[wall clock per source]" in \
            (tmp_path / "out" / "manifest.txt").read_text()


class TestErrorsAndWarnings:
    def test_partial_failure_recorded(self, tmp_path):
        # l_max far too small for k=10: the tail invariant rejects it
        text = FAST.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed",
            "sources = born1, partial_wave")
        m = _run(text + "\n[partial_wave]\nl_max = 3\n", tmp_path / "out")
        by_source = {o.source: o for o in m.outcomes}
        assert by_source["partial_wave"].error is not None
        assert by_source["born1"].error is None
        assert not m.all_failed and len(m.failed) == 1
        # the healthy source still landed on disk
        assert (tmp_path / "out" / "born1_k10.csv").exists()
        assert not (tmp_path / "out" / "partial_wave_k10.csv").exists()
        assert "FAILED" in (tmp_path / "out" / "manifest.txt").read_text()

    def test_pole_row_nan_with_warning(self, tmp_path):
        # yukawa mu/k = 0.5 sits on this grid
        text = FAST.replace("max = 0.2", "max = 0.6").replace(
            "sources = born1, paper_closed", "sources = paper_closed")
        m = _run(text.replace("count = 9", "count = 7"), tmp_path / "out")
        rows = _read_rows(tmp_path / "out" / "paper_closed_k2.csv")
        assert np.isnan(rows[5, 2])  # theta = 0.5
        assert np.count_nonzero(np.isnan(rows[:, 2])) == 1
        poles = [w for w in m.warnings if "pole at theta=" in w]
        assert poles == ["paper_closed k=2: pole at theta=0.5, row "
                         "recorded as nan"]

    def test_totals_nan_warning_without_coverage(self, tmp_path):
        m = _run(FAST, tmp_path / "out")
        assert any("total_integrated unavailable" in w for w in m.warnings)
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "nan" in summary

    def test_optical_nan_warning_without_theta_zero(self, tmp_path):
        m = _run(FAST.replace("min = 0.0", "min = 0.01"), tmp_path / "out")
        assert "born1 k=2: total_optical unavailable (needs theta = 0 on " \
               "the grid)" in m.warnings
        assert all(np.isnan(o.total_optical) for o in m.outcomes)

    def test_loose_quadrature_flagged(self):
        settings = QuadratureSettings(rel_tol=1e-10, abs_tol=1e-12)
        value = np.array([1.0 + 0j, 0.5 + 0j, 1e-4 + 0j])
        tight = np.array([5e-11, 2e-11, 9e-13])
        assert _quadrature_warning("eikonal", 2.0, tight, value,
                                   settings) is None
        loose = tight.copy()
        loose[2] = 5e-10  # > 10 * max(1e-12, 1e-10 * 1e-4)
        msg = _quadrature_warning("eikonal", 2.0, loose, value, settings)
        assert msg is not None and "above 10x" in msg and "1 angle" in msg

    def test_born1_on_a_table_takes_no_budget_and_warns_on_tolerances(
            self, tmp_path):
        # a table's fourier3d reads no setting: a budget of 8, which once
        # failed born1 at q = 4.948, writes the default run's bits; an
        # estimate looser than the tolerances ask still warns
        r = np.linspace(0.0, 10.0, 6)
        v = np.exp(-0.3 * r)
        v[-1] = 0.0
        table = tmp_path / "table.csv"
        table.write_text("".join(f"{float(a)!r}, {float(b)!r}\n"
                                 for a, b in zip(r, v)))
        text = FAST.replace("model = yukawa\ng = 0.5\nmu = 1.0",
                            f"model = tabulated\nfile = {table}").replace(
            "k = 2", "k = 10").replace("max = 0.2", "max = 0.5").replace(
            "sources = born1, paper_closed", "sources = born1")
        small = _run(text + "\n[quadrature]\nmax_subdivisions = 8",
                     tmp_path / "small")
        default = _run(text, tmp_path / "default")
        assert small.outcomes[0].error is None
        assert filecmp.cmp(tmp_path / "small" / "born1_k10.csv",
                           tmp_path / "default" / "born1_k10.csv",
                           shallow=False)
        tight = _run(text + "\n[quadrature]\nrel_tol = 1e-15\n"
                     "abs_tol = 1e-300", tmp_path / "tight")
        assert tight.outcomes[0].error is None
        assert any(w.startswith("born1 k=10: ") and "above 10x the "
                   "tolerance target" in w for w in tight.warnings)

    def test_unreachable_tolerance_stops_at_the_rounding_floor(self,
                                                              tmp_path):
        # a tolerance below the transform's rounding level does not spin:
        # the transform stops at that floor, and the run completes and
        # warns that its errors exceed the request
        text = FAST.replace("sources = born1, paper_closed",
                            "sources = eikonal, born1")
        cfg = parse_config(
            text + "\n[quadrature]\nrel_tol = 1e-16\nabs_tol = 1e-300\n")
        m = run_scan(cfg, str(tmp_path / "out"))
        by_source = {o.source: o for o in m.outcomes}
        assert by_source["eikonal"].error is None
        assert by_source["born1"].error is None
        assert by_source["eikonal"].wall_clock < 1.0
        assert "eikonal k=2: 9 angle(s) with quadrature error estimate " \
               "above 10x the tolerance target" in m.warnings
        amp = amplitude_eikonal(cfg.potential, cfg.kinematics(2.0),
                                cfg.theta.points(), settings=cfg.quadrature)
        request = np.maximum(cfg.quadrature.abs_tol,
                             cfg.quadrature.rel_tol * np.abs(amp.value))
        assert np.all(amp.error_estimate > request)

    @pytest.mark.parametrize("setting", ["rel_tol = nan", "rel_tol = inf",
                                         "abs_tol = inf", "tail_cut = nan",
                                         "tail_cut = inf"])
    def test_non_finite_quadrature_raises_only_scatter_errors(self, tmp_path,
                                                              setting):
        text = FAST.replace("sources = born1, paper_closed",
                            "sources = eikonal, born_resummed")
        with pytest.raises(ScatterError) as err:
            _run(text + f"\n[quadrature]\n{setting}\n", tmp_path / "out")
        assert type(err.value) is ConfigError
        assert err.value.key == "quadrature." + setting.split()[0]

    def test_formula_checks_in_manifest(self, tmp_path):
        m = _run(FAST, tmp_path / "out")
        names = [c.name for _, c in m.verdicts]
        assert "closed_form_amplitude_yukawa" in names
        assert "closed_form_total_yukawa" in names
        text = (tmp_path / "out" / "manifest.txt").read_text()
        assert "SUSPECTED_TYPO" in text


class TestReport:
    def test_pairwise_and_reference_column(self, tmp_path):
        _run(FAST, tmp_path / "out")
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "pair: born1 vs paper_closed" in report
        assert "reference_form" in report
        assert "reference formula checks" in report

    @pytest.mark.parametrize("count, closed",
                             [(n, False) for n in range(1, 5)]
                             + [(n, True) for n in range(1, 6)])
    def test_report_keeps_the_text_of_pair_by_pair_rendering(self, count,
                                                             closed):
        # the report against a frozen renderer that formats every pair on
        # its own: 1 to 5 sources, with paper_closed (and so reference_form)
        # or without, at two k, on rows holding nan, +-inf, -0.0,
        # subnormals and 1e300; the second k lacks the first source
        others = ("eikonal", "born1", "born_resummed", "partial_wave")
        sources = (others[:count - 1] + ("paper_closed",) if closed
                   else others[:count])
        cfg = parse_config(FAST.replace("k = 2", "k = 2, 4").replace(
            "sources = born1, paper_closed",
            f"sources = {', '.join(sources)}"))
        rng = np.random.default_rng(count + 10 * closed)
        theta = np.array([-0.0, 5e-324, 0.05, 0.1, 0.2, np.nan, 0.25, 0.3,
                          np.inf, 1e300, 0.35, 0.4])
        odd = [-0.0, np.inf, -np.inf, 5e-324, 1e-310, 1e300, np.nan,
               1.7976931348623157e308, 0.0]
        tables = {}
        for k in cfg.k_values:
            base = 10.0 ** rng.uniform(-6.0, 2.0, theta.size)
            for s, source in enumerate(cfg.sources):
                rows = np.empty((theta.size, 5))
                rows[:, 0], rows[:, 1] = theta, k * theta
                rows[:, 2:4] = rng.standard_normal((theta.size, 2))
                rows[:, 4] = base * (1.0 + 1e-4 * s * rng.standard_normal(
                    theta.size))
                if s % 2:  # every other source carries the odd values
                    rows[(np.arange(len(odd)) + s) % theta.size, 4] = odd
                rows[0, 4] = 5e-324 * (s + 1)  # below rel_dev's 1e-300 floor
                if (k, s) == (4.0, 1):  # no finite rel_dev at theta <= 0.2
                    rows[:5, 4] = np.nan
                rows[5] = np.nan
                if (k, s) != (4.0, 0):
                    tables[(source, k)] = SimpleNamespace(rows=rows)
        verdicts = [(k, SimpleNamespace(
            name="closed_form_amplitude_yukawa", verdict="SUSPECTED_TYPO",
            verbatim_deviation=0.5, corrected_deviation=2e-9,
            ratio=ratio, mutation="sign of k^2 theta^2"))
            for k, ratio in zip(cfg.k_values, (float("nan"), 0.5 + 1e-10))
        ] if closed else []

        def render(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                text = fn(cfg, tables, verdicts)
            return text, {str(w.message) for w in caught}

        text, warned = render(_report_text)
        assert (text, warned) == render(_oracles.report_text)
        if count + closed >= 4:
            assert "-> CONSISTENT" in text and "-> DEVIATES" in text

    def test_weak_coupling_pair_consistent(self, tmp_path):
        text = FAST.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed",
            "sources = eikonal, partial_wave")
        m = _run(text, tmp_path / "out")
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "pair: eikonal vs partial_wave" in report
        block = report.split("pair: eikonal vs partial_wave")[1]
        assert "-> CONSISTENT" in block.split("pair:")[0]


class TestZeroPotential:
    def test_all_rows_zero_totals_zero(self, tmp_path):
        text = """
[potential]
model = yukawa
g = 0.0
mu = 1.0

[kinematics]
mass = 1.0
k = 5

[theta_grid]
min = 0.0
max = 3.1415926
count = 24

[run]
sources = eikonal, born1, partial_wave, paper_closed
"""
        m = _run(text, tmp_path / "out")
        assert not m.failed
        for o in m.outcomes:
            assert o.total_integrated == 0.0
            assert o.total_optical == 0.0
            rows = _read_rows(tmp_path / "out" / o.csv_file)
            assert np.all(rows[:, 2:] == 0.0)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        _run(FAST, tmp_path / "a")
        _run(FAST, tmp_path / "b")
        for name in ("born1_k2.csv", "paper_closed_k2.csv", "summary.csv",
                     "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_thread_count_invisible(self, tmp_path):
        text = FAST.replace("k = 2", "k = 2, 4")
        _run(text, tmp_path / "t1")
        m4 = _run(text + "\nthreads = 4\n", tmp_path / "t4")
        assert m4.version
        for name in ("born1_k2.csv", "born1_k4.csv", "paper_closed_k2.csv",
                     "paper_closed_k4.csv", "summary.csv", "report.txt"):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t4" / name).read_bytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["yukawa_flagship.ini", "gauss_weak.ini",
                                  "energy_scan.ini"])
def test_shipped_configs_raise_no_runtime_warning(tmp_path, name):
    # dead bisection slots hold -inf and Numerov coefficients are formed a
    # chunk at a time: neither may leak a numpy warning into a run
    cfg = parse_config((CONFIGS / name).read_text(), base_dir=str(CONFIGS))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        manifest = run_scan(cfg, out_dir=str(tmp_path / "out"))
    assert not manifest.failed


def test_a_run_imports_no_module(tmp_path):
    # every module a run needs comes in with the package: one imported
    # during run_scan costs every fresh `scatter run` process its load, as
    # numpy.ma, which a first np.unique or np.union1d imports, would cost
    # more than a whole weak-Gauss run. Each config is the first run_scan
    # of an isolated interpreter: the shipped flagship and weak-Gauss runs,
    # and every route of a cubic table
    r = np.linspace(0.0, 30.0, 300)
    v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
    v[-1] = 0.0
    table = tmp_path / "table.csv"
    table.write_text("".join(f"{float(a)!r}, {float(b)!r}\n"
                             for a, b in zip(r, v)))
    texts = [(CONFIGS / name).read_text()
             for name in ("yukawa_flagship.ini", "gauss_weak.ini")]
    texts.append(f"[potential]\nmodel = tabulated\nfile = {table}\n"
                 "[kinematics]\nmass = 1.0\nk = 5.0\n"
                 "[theta_grid]\nmin = 0.0\nmax = 0.2\ncount = 6\n"
                 "[run]\nsources = eikonal, born_resummed, born1, "
                 "partial_wave\n")
    src = str(Path(scatterlab.__file__).parents[1])
    for i, text in enumerate(texts):
        script = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "from scatterlab.config import parse_config",
            "from scatterlab.runner import run_scan",
            f"cfg = parse_config({text!r}, base_dir={str(CONFIGS)!r})",
            "before = set(sys.modules)",
            f"assert not run_scan(cfg, out_dir={str(tmp_path / str(i))!r})"
            ".failed",
            "print(sorted(set(sys.modules) - before))"])
        proc = subprocess.run([sys.executable, "-I", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
