"""Tests for the scatter command-line interface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import scatterlab
from scatterlab import __version__
from scatterlab.cli import _build_parser, main
from scatterlab.config import parse_config
from scatterlab.eikonal import Kinematics
from scatterlab.errors import ConfigError, DomainError

GOOD = """
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


@pytest.fixture
def config_file(tmp_path):
    f = tmp_path / "scan.ini"
    f.write_text(GOOD)
    return f


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__


class TestValidate:
    def test_good_config(self, config_file, capsys):
        assert main(["validate", str(config_file)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_bad_config(self, tmp_path, capsys):
        f = tmp_path / "bad.ini"
        f.write_text(GOOD + "\n[partial_wave]\nl_mx = 2\n")
        assert main(["validate", str(f)]) == 1
        err = capsys.readouterr().err
        assert "invalid" in err and "l_mx" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.ini")]) == 1
        assert "absent.ini" in capsys.readouterr().err


class TestRun:
    def test_run_beside_the_config(self, config_file, tmp_path, capsys):
        # no --out: the run goes to out_<config stem> beside the config,
        # wherever the command runs from
        assert main(["run", str(config_file)]) == 0
        assert (tmp_path / "out_scan" / "born1_k2.csv").exists()
        out = capsys.readouterr().out
        assert "born1 k=2: ok" in out
        assert f"to {tmp_path / 'out_scan'}" in out

    def test_out_flag_names_the_directory(self, config_file, tmp_path):
        assert main(["run", str(config_file), "--out",
                     str(tmp_path / "flagged"), "--quiet"]) == 0
        assert (tmp_path / "flagged" / "summary.csv").exists()
        assert not (tmp_path / "out_scan").exists()
        # the manifest echoes the config as parsed, which names no
        # directory
        manifest = (tmp_path / "flagged" / "manifest.txt").read_text()
        assert "directory" not in manifest and "[output]" not in manifest

    def test_a_config_output_section_is_refused(self, tmp_path, capsys):
        f = tmp_path / "scan.ini"
        f.write_text(GOOD + "\n[output]\ndirectory = elsewhere\n")
        assert main(["run", str(f), "--quiet"]) == 1
        assert "unknown section [output]" in capsys.readouterr().err
        assert not (tmp_path / "elsewhere").exists()
        assert not (tmp_path / "out_scan").exists()

    def test_environment_names_no_directory(self, config_file, tmp_path,
                                            monkeypatch):
        # the output directory is --out, else beside the config: a
        # variable that once named it is not read
        monkeypatch.setenv("SCATTER_OUT", str(tmp_path / "env_out"))
        assert main(["run", str(config_file), "--quiet"]) == 0
        assert (tmp_path / "out_scan" / "summary.csv").exists()
        assert not (tmp_path / "env_out").exists()

    def test_quiet_silences_stdout(self, config_file, tmp_path, capsys):
        assert main(["run", str(config_file), "--out",
                     str(tmp_path / "q"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.ini")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestExitCodes:
    def _write(self, tmp_path, text):
        f = tmp_path / "scan.ini"
        f.write_text(text)
        return f

    def test_partial_failure_exit_2(self, tmp_path, capsys):
        text = GOOD.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed",
            "sources = born1, partial_wave")
        text += "\n[partial_wave]\nl_max = 3\n"
        f = self._write(tmp_path, text)
        assert main(["run", str(f), "--quiet"]) == 2
        assert (tmp_path / "out_scan" / "born1_k10.csv").exists()

    def test_total_failure_exit_1(self, tmp_path):
        text = GOOD.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed", "sources = partial_wave")
        text += "\n[partial_wave]\nl_max = 3\n"
        f = self._write(tmp_path, text)
        assert main(["run", str(f), "--quiet"]) == 1


# inputs whose reference closed forms leave the float range: alpha^3
# overflows, and g k/v does; each with the parameter the skipped
# checks must name
OUT_OF_RANGE = {
    "gauss": ("model = gauss\ng = 0.5\nalpha = 1e300", "1e-300", "1e300",
              "eikonal", "alpha"),
    "yukawa": ("model = yukawa\ng = 1e200\nmu = 1.0", "1.0", "1e200",
               "born1", "g"),
}


@pytest.mark.parametrize("paper_closed", [False, True])
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_closed_forms_skip_their_checks(tmp_path, case,
                                                      paper_closed):
    # `scatter run` in a fresh interpreter: no traceback, every file the
    # manifest lists is written, and the manifest's warning names the
    # parameter; with paper_closed the report's reference_form column,
    # which reads the same forms, must not stop report.txt either
    potential, mass, k, source, key = OUT_OF_RANGE[case]
    sources = f"{source}, paper_closed" if paper_closed else source
    config = tmp_path / "scan.ini"
    config.write_text(f"[potential]\n{potential}\n[kinematics]\n"
                      f"mass = {mass}\nk = {k}\n[theta_grid]\nmin = 0.0\n"
                      f"max = 0.2\ncount = 5\n[run]\nsources = {sources}\n")
    out = tmp_path / "out"
    env = dict(os.environ,
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "scatterlab", "run",
                           str(config), "--out", str(out), "--quiet"],
                          env=env, capture_output=True, text=True)
    assert "Traceback" not in proc.stdout + proc.stderr
    manifest = (out / "manifest.txt").read_text()
    files = manifest.split("[files]")[1].split()
    assert {"summary.csv", "report.txt"} <= set(files)
    assert all((out / name).is_file() for name in files)
    skipped = [line for line in manifest.splitlines()
               if "formula checks skipped" in line]
    assert len(skipped) == 1
    assert f"{key} out of range" in skipped[0]
    assert "(skipped: see the manifest's warnings)" in \
        (out / "report.txt").read_text()


# FOUND-line inputs, run through `scatter run` with numpy's warnings made
# errors: ranges whose closed-form scale leaves the float range (mu^2
# overflows, mu^2 underflows to 0, (pi/alpha)^1.5 overflows) fail their
# sources with a RangeError naming the parameter; at k = 1e200 q^2
# overflows, and |f|^2 does at theta = 0 for g = 1e200 (dsigma inf there)
# or the total's spline products would for g = 1e140, all without a warning
FLOAT_RANGE = {
    "mu-large": ("model = yukawa\ng = 0.5\nmu = 1e200", "1.0", "mu"),
    "mu-small": ("model = yukawa\ng = 0.5\nmu = 1e-170", "1.0", "mu"),
    "alpha-small": ("model = gauss\ng = 0.5\nalpha = 1e-250", "1.0",
                    "alpha"),
    "k-huge": ("model = yukawa\ng = 1e200\nmu = 1.0", "1e200", None),
    "k-huge-total": ("model = yukawa\ng = 1e140\nmu = 1.0", "1e200", None),
}


@pytest.mark.parametrize("case", sorted(FLOAT_RANGE))
def test_float_range_inputs_end_without_a_traceback_or_warning(tmp_path,
                                                                case):
    potential, k, key = FLOAT_RANGE[case]
    sources = "born1" if key is None else "born1, eikonal"
    config = tmp_path / "scan.ini"
    config.write_text(f"[potential]\n{potential}\n[kinematics]\n"
                      f"mass = 1.0\nk = {k}\n[theta_grid]\nmin = 0.0\n"
                      f"max = 3.1415925\ncount = 181\n[run]\n"
                      f"sources = {sources}\n")
    out = tmp_path / "out"
    env = dict(os.environ,
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "scatterlab", "run", str(config), "--out",
                           str(out), "--quiet"],
                          env=env, capture_output=True, text=True)
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "Warning" not in proc.stderr
    manifest = (out / "manifest.txt").read_text()
    outcomes = manifest.split("[outcomes]")[1].split("[resolved]")[0]
    outcomes = outcomes.strip().splitlines()
    assert len(outcomes) == len(sources.split(","))
    if key is None:
        assert proc.returncode == 0
        assert all(line.endswith(": ok") for line in outcomes)
    else:
        assert proc.returncode == 1
        assert all(f"FAILED (RangeError: {key} = " in line
                   for line in outcomes)


def test_an_angle_count_past_the_limit_fails_at_parse_time(tmp_path):
    # a trillion angles: `validate` and `run` in a fresh interpreter both
    # refuse the config, naming the key, before any array is built
    config = tmp_path / "scan.ini"
    config.write_text(GOOD.replace("count = 9", "count = 1000000000000"))
    env = dict(os.environ,
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    for command in (["validate", str(config)],
                    ["run", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]):
        proc = subprocess.run([sys.executable, "-m", "scatterlab", *command],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "[theta_grid] count must be <= 65536" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_a_non_ascii_path_runs_to_the_end(tmp_path):
    # `scatter run` on a table in a directory named with a non-ASCII
    # letter: the manifest echoes the table's resolved path, so it is
    # written as UTF-8, into out_workload beside the config
    here = tmp_path / "rés"
    here.mkdir()
    (here / "table.csv").write_text("0.0, 1.0\n1.0, 0.5\n2.0, 0.1\n"
                                    "3.0, 0.0\n", encoding="utf-8")
    (here / "workload.ini").write_text(GOOD.replace(
        "model = yukawa\ng = 0.5\nmu = 1.0",
        "model = tabulated\nfile = table.csv").replace(
        "sources = born1, paper_closed", "sources = born1"),
        encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "scatterlab", "run",
                           "workload.ini", "--quiet"], cwd=here, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stdout + proc.stderr
    manifest = (here / "out_workload" / "manifest.txt").read_text(
        encoding="utf-8")
    assert f"file = {here / 'table.csv'}" in manifest


def test_k_values_sharing_a_file_name_fail_before_any_work(tmp_path,
                                                           capsys):
    # 1.0 and 1.0000000000001 are distinct floats but both name their
    # CSVs _k1: `validate` and `run` refuse the config, and nothing is
    # written
    config = tmp_path / "scan.ini"
    config.write_text(GOOD.replace("k = 2", "k = 1.0, 1.0000000000001"))
    assert main(["validate", str(config)]) == 1
    assert main(["run", str(config), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count("share the file name tag k1") == 2
    assert not (tmp_path / "out_scan").exists()


# kinematics whose v = k/mass underflows to 0: the routes' division by v
# raised a raw exception mid-run; now Kinematics, and so the config,
# refuses them
EXTREME_KINEMATICS = {
    "v-zero": ("1e300", "1e-150", "k"),
}


@pytest.mark.parametrize("case", sorted(EXTREME_KINEMATICS))
def test_kinematics_out_of_float_range_fail_at_parse_time(tmp_path, case):
    mass, k, key = EXTREME_KINEMATICS[case]
    with pytest.raises(DomainError) as exc:
        Kinematics(mass=float(mass), k=float(k))
    assert exc.value.key == key
    text = (f"[potential]\nmodel = yukawa\ng = 0.5\nmu = 1.0\n"
            f"[kinematics]\nmass = {mass}\nk = {k}\n"
            f"[theta_grid]\nmin = 0.0\nmax = 0.2\ncount = 5\n[run]\n"
            f"sources = eikonal, born1, born_resummed\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.key == f"kinematics.{key}"
    config = tmp_path / "scan.ini"
    config.write_text(text)
    env = dict(os.environ,
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    for command in (["validate", str(config)],
                    ["run", str(config), "--out", str(tmp_path / "out"),
                     "--quiet"]):
        proc = subprocess.run([sys.executable, "-m", "scatterlab", *command],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert f"at {key} = " in proc.stderr
    assert not (tmp_path / "out").exists()


def test_readme_run_usage_lists_exactly_the_accepted_options():
    # the README's `scatter run` line names each option the parser takes,
    # so neither can gain or lose one alone
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = re.search(r"`scatter run <config>((?: \[[^]]+\])*)`", readme)
    listed = set(re.findall(r"\[(--[\w-]+)", usage.group(1)))
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for action in sub.choices["run"]._actions
                for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"}
    assert listed == accepted
