"""Tests for the scatter command-line interface."""

import pytest

from scatterlab import __version__
from scatterlab.cli import main

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
    f.write_text(GOOD + f"\n[output]\ndirectory = {tmp_path / 'cfgout'}\n")
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
    def test_run_to_config_directory(self, config_file, tmp_path, capsys):
        assert main(["run", str(config_file)]) == 0
        assert (tmp_path / "cfgout" / "born1_k2.csv").exists()
        out = capsys.readouterr().out
        assert "born1 k=2: ok" in out

    def test_out_flag_beats_config(self, config_file, tmp_path):
        assert main(["run", str(config_file), "--out",
                     str(tmp_path / "flagged"), "--quiet"]) == 0
        assert (tmp_path / "flagged" / "summary.csv").exists()
        assert not (tmp_path / "cfgout").exists()
        manifest = (tmp_path / "flagged" / "manifest.txt").read_text()
        assert f"directory = {tmp_path / 'flagged'}" in manifest
        assert "cfgout" not in manifest

    def test_env_var_honored(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SCATTER_OUT", str(tmp_path / "env_out"))
        assert main(["run", str(config_file), "--quiet"]) == 0
        assert (tmp_path / "env_out" / "summary.csv").exists()

    def test_out_flag_beats_env(self, config_file, tmp_path, monkeypatch):
        monkeypatch.setenv("SCATTER_OUT", str(tmp_path / "env_out"))
        assert main(["run", str(config_file), "--out",
                     str(tmp_path / "flag_out"), "--quiet"]) == 0
        assert (tmp_path / "flag_out" / "summary.csv").exists()
        assert not (tmp_path / "env_out").exists()

    def test_sources_override(self, config_file, tmp_path):
        out = tmp_path / "sub"
        assert main(["run", str(config_file), "--out", str(out),
                     "--sources", "born1", "--quiet"]) == 0
        assert (out / "born1_k2.csv").exists()
        assert not (out / "paper_closed_k2.csv").exists()

    def test_bad_sources_override(self, config_file, capsys):
        assert main(["run", str(config_file), "--sources", "psychic"]) == 1
        assert "psychic" in capsys.readouterr().err

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
        f.write_text(text + f"\n[output]\ndirectory = {tmp_path / 'o'}\n")
        return f

    def test_partial_failure_exit_2(self, tmp_path, capsys):
        text = GOOD.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed",
            "sources = born1, partial_wave")
        text += "\n[partial_wave]\nl_max = 3\n"
        f = self._write(tmp_path, text)
        assert main(["run", str(f), "--quiet"]) == 2
        assert (tmp_path / "o" / "born1_k10.csv").exists()

    def test_total_failure_exit_1(self, tmp_path):
        text = GOOD.replace("k = 2", "k = 10").replace(
            "sources = born1, paper_closed", "sources = partial_wave")
        text += "\n[partial_wave]\nl_max = 3\n"
        f = self._write(tmp_path, text)
        assert main(["run", str(f), "--quiet"]) == 1
