"""Tests for scan orchestration, file emission, and determinism."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from scatterlab.config import parse_config
from scatterlab.errors import DomainError
from scatterlab.quadrature import QuadratureSettings
from scatterlab.runner import RunManifest, _quadrature_warning, run_scan

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


def _cfg(text, out):
    return parse_config(text + f"\n[output]\ndirectory = {out}\n")


def _read_rows(path):
    return np.genfromtxt(path, delimiter=",", skip_header=1)


class TestFileEmission:
    def test_csv_schema(self, tmp_path):
        m = run_scan(_cfg(FAST, tmp_path / "out"))
        csv = tmp_path / "out" / "born1_k2.csv"
        header = csv.read_text().splitlines()[0]
        assert header == "theta_rad,q,re_f,im_f,dsigma_domega"
        rows = _read_rows(csv)
        assert rows.shape == (9, 5)
        assert rows[:, 4] == pytest.approx(rows[:, 2] ** 2 + rows[:, 3] ** 2)
        assert m.output_dir == str(tmp_path / "out")

    def test_all_files_present(self, tmp_path):
        m = run_scan(_cfg(FAST, tmp_path / "out"))
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["born1_k2.csv", "manifest.txt",
                         "paper_closed_k2.csv", "plot.gp", "report.txt",
                         "summary.csv"]
        listed = set(m.csv_files) | set(m.aux_files)
        assert listed == set(names) - {"manifest.txt"}

    def test_plot_script_optional(self, tmp_path):
        cfg = parse_config(
            FAST + f"\n[output]\ndirectory = {tmp_path / 'out'}\n"
                   "emit_plot_script = false\n")
        run_scan(cfg)
        assert not (tmp_path / "out" / "plot.gp").exists()

    def test_plot_references_each_csv_once(self, tmp_path):
        run_scan(_cfg(FAST, tmp_path / "out"))
        script = (tmp_path / "out" / "plot.gp").read_text()
        assert script.count("born1_k2.csv") == 1
        assert script.count("paper_closed_k2.csv") == 1

    def test_per_k_files(self, tmp_path):
        m = run_scan(_cfg(FAST.replace("k = 2", "k = 2, 4"),
                          tmp_path / "out"))
        assert (tmp_path / "out" / "born1_k4.csv").exists()
        assert len(m.csv_files) == 4

    def test_seventeen_digit_format(self, tmp_path):
        run_scan(_cfg(FAST, tmp_path / "out"))
        line = (tmp_path / "out" / "born1_k2.csv").read_text().splitlines()[2]
        cell = line.split(",")[2]
        mantissa = cell.split("e")[0].replace("-", "")
        assert len(mantissa.replace(".", "")) == 17

    def test_no_negative_zero(self, tmp_path):
        run_scan(_cfg(FAST, tmp_path / "out"))
        for name in ("born1_k2.csv", "summary.csv"):
            assert "-0.0000000000000000e+00" not in \
                (tmp_path / "out" / name).read_text()


class TestManifest:
    def test_csv_referenced_exactly_once(self, tmp_path):
        m = run_scan(_cfg(FAST, tmp_path / "out"))
        text = (tmp_path / "out" / "manifest.txt").read_text()
        for name in m.csv_files:
            assert text.count(name) == 1
        assert "version: " in text
        assert "[config]" in text

    def test_config_echoes_directory_written(self, tmp_path):
        cfg = _cfg(FAST, tmp_path / "configured")
        m = run_scan(cfg, out_dir=str(tmp_path / "written"))
        text = (tmp_path / "written" / "manifest.txt").read_text()
        assert f"directory = {tmp_path / 'written'}" in text
        assert "configured" not in text
        assert m.output_dir == str(tmp_path / "written")

    def test_duplicate_csv_rejected(self):
        with pytest.raises(DomainError):
            RunManifest(version="0", config_lines=(), outcomes=(),
                        verdicts=(), warnings=(),
                        csv_files=("a.csv", "a.csv"), aux_files=(),
                        output_dir=".")

    def test_wall_clock_recorded(self, tmp_path):
        m = run_scan(_cfg(FAST, tmp_path / "out"))
        assert all(o.wall_clock >= 0.0 for o in m.outcomes)
        assert "[wall clock per source]" in \
            (tmp_path / "out" / "manifest.txt").read_text()


class TestErrorsAndWarnings:
    def test_partial_failure_recorded(self, tmp_path):
        # l_max far too small for k=10: the tail invariant rejects it
        text = FAST.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed",
            "sources = born1, partial_wave")
        cfg = parse_config(
            text + "\n[partial_wave]\nl_max = 3\n"
                   f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
        m = run_scan(cfg)
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
        m = run_scan(_cfg(text.replace("count = 9", "count = 7"),
                          tmp_path / "out"))
        rows = _read_rows(tmp_path / "out" / "paper_closed_k2.csv")
        assert np.isnan(rows[5, 2])  # theta = 0.5
        assert np.count_nonzero(np.isnan(rows[:, 2])) == 1
        poles = [w for w in m.warnings if "pole at theta=" in w]
        assert poles == ["paper_closed k=2: pole at theta=0.5, row "
                         "recorded as nan"]

    def test_totals_nan_warning_without_coverage(self, tmp_path):
        m = run_scan(_cfg(FAST, tmp_path / "out"))
        assert any("total_integrated unavailable" in w for w in m.warnings)
        summary = (tmp_path / "out" / "summary.csv").read_text()
        assert "nan" in summary

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

    def test_unreachable_tolerance_fails_source(self, tmp_path):
        # an impossible tolerance does not spin: the budget trips and the
        # failure is recorded per source
        text = FAST.replace("sources = born1, paper_closed",
                            "sources = eikonal, born1")
        cfg = parse_config(
            text + "\n[quadrature]\nrel_tol = 1e-15\nabs_tol = 1e-300\n"
                   f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
        m = run_scan(cfg)
        by_source = {o.source: o for o in m.outcomes}
        assert by_source["eikonal"].error is not None
        assert "ConvergenceError" in by_source["eikonal"].error
        assert by_source["born1"].error is None

    def test_formula_checks_in_manifest(self, tmp_path):
        m = run_scan(_cfg(FAST, tmp_path / "out"))
        names = [c.name for _, c in m.verdicts]
        assert "closed_form_amplitude_yukawa" in names
        assert "closed_form_total_yukawa" in names
        text = (tmp_path / "out" / "manifest.txt").read_text()
        assert "SUSPECTED_TYPO" in text


class TestReport:
    def test_pairwise_and_reference_column(self, tmp_path):
        run_scan(_cfg(FAST, tmp_path / "out"))
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "pair: born1 vs paper_closed" in report
        assert "reference_form" in report
        assert "reference formula checks" in report

    def test_weak_coupling_pair_consistent(self, tmp_path):
        text = FAST.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed",
            "sources = eikonal, partial_wave")
        m = run_scan(_cfg(text, tmp_path / "out"))
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
        m = run_scan(_cfg(text, tmp_path / "out"))
        assert not m.failed
        for o in m.outcomes:
            assert o.total_integrated == 0.0
            assert o.total_optical == 0.0
            rows = _read_rows(tmp_path / "out" / o.csv_file)
            assert np.all(rows[:, 2:] == 0.0)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        run_scan(_cfg(FAST, tmp_path / "a"))
        run_scan(_cfg(FAST, tmp_path / "b"))
        for name in ("born1_k2.csv", "paper_closed_k2.csv", "summary.csv",
                     "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_thread_count_invisible(self, tmp_path):
        text = FAST.replace("k = 2", "k = 2, 4")
        run_scan(_cfg(text, tmp_path / "t1"))
        cfg4 = parse_config(
            text + "\nthreads = 4\n"
                   f"\n[output]\ndirectory = {tmp_path / 't4'}\n")
        m4 = run_scan(cfg4)
        assert m4.version
        for name in ("born1_k2.csv", "born1_k4.csv", "paper_closed_k2.csv",
                     "paper_closed_k4.csv", "summary.csv", "report.txt"):
            assert (tmp_path / "t1" / name).read_bytes() == \
                (tmp_path / "t4" / name).read_bytes()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["yukawa_flagship.ini", "gauss_weak.ini"])
def test_shipped_configs_raise_no_runtime_warning(tmp_path, name):
    # dead bisection slots hold -inf and Numerov coefficients are formed a
    # chunk at a time: neither may leak a numpy warning into a run
    cfg = parse_config((CONFIGS / name).read_text(), base_dir=str(CONFIGS))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        manifest = run_scan(cfg, out_dir=str(tmp_path / "out"))
    assert not manifest.failed

