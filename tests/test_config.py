"""Tests for INI parsing, defaults, and validation messages."""

import math
import os

import numpy as np
import pytest

from scatterlab.config import (OutputOptions, PartialWaveOptions, RunConfig,
                               ThetaGrid, echo_lines, parse_config)
from scatterlab.errors import ConfigError
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa

MINIMAL = """
[potential]
model = yukawa
g = 1.0
mu = 1.0

[kinematics]
mass = 1.0
k = 5
"""


class TestDefaults:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert isinstance(cfg.potential, Yukawa)
        assert cfg.partial_wave.l_max is None  # auto
        assert cfg.theta.count == 64
        assert cfg.theta.spacing == "linear"
        assert cfg.sources == ("eikonal", "born1")
        assert cfg.k_values == (5.0,)
        assert cfg.threads == 1
        assert cfg.output.emit_plot_script is True
        pts = cfg.theta.points()
        assert pts.size == 64 and pts[0] == 0.0
        assert np.allclose(np.diff(pts), pts[1] - pts[0])

    def test_defaults_echoed(self):
        # parsing the echo of a config reproduces the config exactly
        cfg = parse_config(MINIMAL)
        again = parse_config("\n".join(echo_lines(cfg)))
        assert again == cfg


class TestValidation:
    def test_theta_max_at_least_pi(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[theta_grid]\nmax = 3.2\n")
        assert "theta_grid.max" in str(err.value.key)

    def test_empty_sources(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[run]\nsources =\n")

    def test_unknown_source(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[run]\nsources = telepathy\n")

    def test_duplicate_source(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[run]\nsources = born1, born1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[run]\nthreds = 2\n")
        assert "threds" in str(err.value)

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "\n[plotting]\nx = 1\n")
        assert "plotting" in str(err.value)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError):
            parse_config("stray = 1\n" + MINIMAL)

    def test_wrong_model_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("mu = 1.0", "mu = 1.0\nalpha = 2"))
        assert "alpha" in str(err.value)

    def test_missing_model_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("mu = 1.0\n", ""))
        assert "mu" in str(err.value)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("yukawa", "woodsaxon"))

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("k = 5", "k = five"))
        assert "five" in str(err.value)

    def test_duplicate_k(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("k = 5", "k = 5, 5"))

    def test_nonpositive_mass(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("mass = 1.0", "mass = -1.0"))

    def test_count_floor(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[theta_grid]\ncount = 1\n")

    def test_log_grid_needs_positive_min(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[theta_grid]\nspacing = log\n")

    def test_threads_floor(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[run]\nthreads = 0\n")

    def test_bad_quadrature_wrapped(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[quadrature]\nrel_tol = -1\n")

    def test_negative_dr(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[partial_wave]\ndr = -0.01\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[output]\nemit_plot_script = maybe\n")


class TestParsing:
    def test_k_list(self):
        cfg = parse_config(MINIMAL.replace("k = 5", "k = 1, 5 , 10"))
        assert cfg.k_values == (1.0, 5.0, 10.0)

    def test_log_spacing_points(self):
        cfg = parse_config(
            MINIMAL + "\n[theta_grid]\nmin = 0.01\nmax = 1.0\ncount = 5\n"
            "spacing = log\n")
        assert cfg.theta.points() == pytest.approx(
            np.geomspace(0.01, 1.0, 5))

    def test_partial_wave_explicit(self):
        cfg = parse_config(
            MINIMAL + "\n[partial_wave]\nl_max = 30\nr_max = 25.0\n"
            "dr = auto\n")
        assert cfg.partial_wave == PartialWaveOptions(l_max=30, r_max=25.0,
                                                      dr=None)

    def test_inline_comments(self):
        cfg = parse_config(MINIMAL.replace("k = 5", "k = 5  # lab frame"))
        assert cfg.k_values == (5.0,)

    def test_gauss_model(self):
        text = MINIMAL.replace("model = yukawa", "model = gauss")
        text = text.replace("mu = 1.0", "alpha = 2.0")
        cfg = parse_config(text)
        assert cfg.potential == Gauss(g=1.0, alpha=2.0)

    def test_quadrature_passthrough(self):
        cfg = parse_config(
            MINIMAL + "\n[quadrature]\nrel_tol = 1e-8\ntail_cut = 40\n")
        assert cfg.quadrature.rel_tol == 1e-8
        assert cfg.quadrature.tail_cut == 40.0
        assert cfg.quadrature.max_subdivisions == 200

    def test_theta_grid_just_below_pi_ok(self):
        cfg = parse_config(MINIMAL + "\n[theta_grid]\nmax = 3.1415926\n")
        assert cfg.theta.max < math.pi


class TestTabulated:
    def _table_config(self, path, extra=""):
        return (f"[potential]\nmodel = tabulated\nfile = {path}\n{extra}"
                f"\n[kinematics]\nmass = 1.0\nk = 2\n")

    def test_comma_table(self, tmp_path):
        r = np.linspace(0.0, 5.0, 40)
        v = np.exp(-r)
        v[-1] = 0.0
        f = tmp_path / "table.csv"
        f.write_text("# r, V\n" + "\n".join(
            f"{ri},{vi}" for ri, vi in zip(r, v)) + "\n")
        cfg = parse_config(self._table_config(f.name),
                           base_dir=str(tmp_path))
        assert isinstance(cfg.potential, TabulatedRadial)
        assert cfg.potential.r.size == 40
        assert cfg.potential.interpolation == "cubic"

    def test_whitespace_table_and_linear(self, tmp_path):
        f = tmp_path / "table.dat"
        f.write_text("0.0 1.0\n1.0 0.5\n2.0 0.1\n3.0 0.0\n")
        cfg = parse_config(
            self._table_config(str(f), extra="interpolation = linear"))
        assert cfg.potential.interpolation == "linear"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(self._table_config("nope.csv"),
                         base_dir=str(tmp_path))
        assert "nope.csv" in str(err.value)

    def test_wrong_columns(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2,3\n4,5,6\n7,8,9\n1,2,3\n")
        with pytest.raises(ConfigError):
            parse_config(self._table_config(str(f)))

    def test_unparsable_table(self, tmp_path):
        f = tmp_path / "garbage.dat"
        f.write_text("0.0 1.0\n1.0 half\n2.0 0.1\n3.0 0.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(self._table_config(str(f)))
        assert err.value.key == "potential.file"


class TestRunConfigDirect:
    def test_output_dir_joined(self, tmp_path):
        cfg = parse_config(MINIMAL + "\n[output]\ndirectory = results\n",
                           base_dir=str(tmp_path))
        assert cfg.output.directory == os.path.join(str(tmp_path),
                                                    "results")

    def test_grid_type_invariants(self):
        with pytest.raises(ConfigError):
            ThetaGrid(min=0.2, max=0.1)
        with pytest.raises(ConfigError):
            ThetaGrid(min=-0.1, max=0.5)

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError):
            RunConfig(potential=Yukawa(1.0, 1.0), mass=1.0, k_values=(),
                      output=OutputOptions())
