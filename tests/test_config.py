"""Tests for INI parsing, defaults, and validation messages."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from scatterlab import config
from scatterlab.config import (PartialWaveOptions, RunConfig, ThetaGrid,
                               echo_lines, parse_config)
from scatterlab.errors import ConfigError, DomainError
from scatterlab.potentials import Gauss, TabulatedRadial, Yukawa
from scatterlab.quadrature import QuadratureSettings

MINIMAL = """
[potential]
model = yukawa
g = 1.0
mu = 1.0

[kinematics]
mass = 1.0
k = 5
"""

# Every key set away from its default, in the spellings the grammar allows
# besides the canonical one: upper-case words, a space-separated k list.
ALL_KEYS = """
[potential]
model = gauss
g = 0.25
alpha = 2.0

[kinematics]
mass = 2.0
k = 1 2.5  3

[theta_grid]
min = 0.01
max = 1.5
count = 17
spacing = LOG

[run]
sources = born1 partial_wave, eikonal
threads = 3

[quadrature]
rel_tol = 1e-9
abs_tol = 1e-11
max_subdivisions = 100

[partial_wave]
l_max = 30
r_max = 25
dr = AUTO
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
        pts = cfg.theta.points()
        assert pts.size == 64 and pts[0] == 0.0
        assert np.allclose(np.diff(pts), pts[1] - pts[0])

    def test_defaults_echoed(self):
        # parsing the echo of a config reproduces the config exactly
        cfg = parse_config(MINIMAL)
        again = parse_config("\n".join(echo_lines(cfg)))
        assert again == cfg


class TestEchoGolden:
    """The manifest's [config] block, frozen line for line."""

    def test_minimal(self):
        assert echo_lines(parse_config(MINIMAL)) == [
            "[potential]", "model = yukawa", "g = 1.0", "mu = 1.0", "",
            "[kinematics]", "mass = 1.0", "k = 5.0", "",
            "[theta_grid]", "min = 0.0", "max = 0.5", "count = 64",
            "spacing = linear", "",
            "[run]", "sources = eikonal, born1", "threads = 1", "",
            "[quadrature]", "rel_tol = 1e-10", "abs_tol = 1e-12",
            "max_subdivisions = 200", "",
            "[partial_wave]", "l_max = auto", "r_max = auto", "dr = auto",
        ]

    def test_all_keys(self):
        assert echo_lines(parse_config(ALL_KEYS)) == [
            "[potential]", "model = gauss", "g = 0.25", "alpha = 2.0", "",
            "[kinematics]", "mass = 2.0", "k = 1.0, 2.5, 3.0", "",
            "[theta_grid]", "min = 0.01", "max = 1.5", "count = 17",
            "spacing = log", "",
            "[run]", "sources = born1, partial_wave, eikonal", "threads = 3",
            "",
            "[quadrature]", "rel_tol = 1e-09", "abs_tol = 1e-11",
            "max_subdivisions = 100", "",
            "[partial_wave]", "l_max = 30", "r_max = 25.0", "dr = auto",
        ]

    def test_all_keys_round_trip(self):
        cfg = parse_config(ALL_KEYS)
        assert parse_config("\n".join(echo_lines(cfg))) == cfg

    def test_defaults_are_the_dataclasses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.theta == ThetaGrid()
        assert cfg.quadrature == QuadratureSettings()
        assert cfg.partial_wave == PartialWaveOptions()


def _with(old, new):
    return MINIMAL.replace(old, new)


def _plus(section):
    return MINIMAL + "\n" + section + "\n"


_TABLE = "[potential]\nmodel = tabulated\nfile = {table}\n%s\n" \
         "[kinematics]\nmass = 1.0\nk = 2\n"
_GAUSS = _with("model = yukawa", "model = gauss")

# (input, ConfigError key, message) for one fault each; {table} stands for
# a valid four-row radial table.
FAULTS = {
    "default_section": ("[DEFAULT]\nstray = 1\n" + MINIMAL, "stray",
                        "key 'stray' appears outside any section"),
    "unknown_section": (_plus("[plotting]\nx = 1"), "plotting",
                        "unknown section [plotting]"),
    "unknown_key": (_plus("[run]\nthreds = 2"), "run.threds",
                    "[run] unknown key 'threds'"),
    "unknown_potential_key": (_with("mu = 1.0", "mu = 1.0\nbeta = 2"),
                              "potential.beta",
                              "[potential] unknown key 'beta'"),
    "missing_potential": ("[kinematics]\nmass = 1.0\nk = 5\n", "potential",
                          "section [potential] is required"),
    "missing_kinematics": ("[potential]\nmodel = yukawa\ng = 1.0\n"
                           "mu = 1.0\n", "kinematics",
                           "section [kinematics] is required"),
    "missing_model": (_with("model = yukawa\n", ""), "potential.model",
                      "[potential] model is required"),
    "unknown_model": (_with("yukawa", "woodsaxon"), "potential.model",
                      "[potential] model: unknown model 'woodsaxon'; "
                      "choose from gauss, tabulated, yukawa"),
    "wrong_model_key": (_with("mu = 1.0", "mu = 1.0\nalpha = 2"),
                        "potential.alpha",
                        "[potential] alpha: not valid for model 'yukawa'"),
    "wrong_model_file": (_with("mu = 1.0", "mu = 1.0\nfile = t.csv"),
                         "potential.file",
                         "[potential] file: not valid for model 'yukawa'"),
    "missing_mu": (_with("mu = 1.0\n", ""), "potential.mu",
                   "[potential] mu: required for model 'yukawa'"),
    "gauss_missing_alpha": (_GAUSS.replace("mu = 1.0\n", ""),
                            "potential.alpha",
                            "[potential] alpha: required for model 'gauss'"),
    "tabulated_missing_file": ("[potential]\nmodel = tabulated\n"
                               "[kinematics]\nmass = 1.0\nk = 2\n",
                               "potential.file", "[potential] file: "
                               "required for model 'tabulated'"),
    "bad_g": (_with("g = 1.0", "g = abc"), "potential.g",
              "[potential] g: expected a number, got 'abc'"),
    "nan_g": (_with("g = 1.0", "g = nan"), "potential.g",
              "[potential] g must be finite, got nan"),
    "zero_mu": (_with("mu = 1.0", "mu = 0"), "potential.mu",
                "[potential] mu must be positive, got 0.0"),
    "gauss_zero_alpha": (_GAUSS.replace("mu = 1.0", "alpha = -1"),
                         "potential.alpha",
                         "[potential] alpha must be positive, got -1.0"),
    "no_such_table": (_TABLE.replace("{table}", "nope.csv") % "",
                      "potential.file",
                      "radial table nope.csv: [Errno 2] No such file or "
                      "directory: 'nope.csv'"),
    "bad_interpolation": (_TABLE % "interpolation = quadratic",
                          "potential.interpolation",
                          "[potential] interpolation must be 'cubic' or "
                          "'linear', got 'quadratic'"),
    "missing_mass": (_with("mass = 1.0\n", ""), "kinematics.mass",
                     "[kinematics] mass is required"),
    "missing_k": (_with("k = 5\n", ""), "kinematics.k",
                  "[kinematics] k is required"),
    "bad_mass": (_with("mass = 1.0", "mass = heavy"), "kinematics.mass",
                 "[kinematics] mass: expected a number, got 'heavy'"),
    "bad_k": (_with("k = 5", "k = five"), "kinematics.k",
              "[kinematics] k: expected a number, got 'five'"),
    "bad_k_item": (_with("k = 5", "k = 1, 2x, 3"), "kinematics.k",
                   "[kinematics] k: expected a number, got '2x'"),
    "empty_k": (_with("k = 5", "k = , "), "kinematics.k",
                "[kinematics] k: no values given"),
    # units with hbar = 1: there is no hbar key
    "removed_hbar": (_with("mass = 1.0", "mass = 1.0\nhbar = 1.0"),
                     "kinematics.hbar", "[kinematics] unknown key 'hbar'"),
    "negative_mass": (_with("mass = 1.0", "mass = -1.0"), "kinematics.mass",
                      "kinematics: mass must be positive, got -1.0"),
    "inf_mass": (_with("mass = 1.0", "mass = inf"), "kinematics.mass",
                 "kinematics: mass must be finite, got inf"),
    "negative_k": (_with("k = 5", "k = -5"), "kinematics.k",
                   "kinematics: k must be positive, got -5.0"),
    "duplicate_k": (_with("k = 5", "k = 5, 5"), "kinematics.k",
                    "k values must not repeat"),
    "k_tag_collision": (_with("k = 5", "k = 1.0, 1.0000000000001"),
                        "kinematics.k",
                        "k values 1.0 and 1.0000000000001 share the file "
                        "name tag k1: k values must differ when rounded to "
                        "12 significant digits"),
    "bad_theta_min": (_plus("[theta_grid]\nmin = zero"), "theta_grid.min",
                      "[theta_grid] min: expected a number, got 'zero'"),
    "bad_count": (_plus("[theta_grid]\ncount = 2.5"), "theta_grid.count",
                  "[theta_grid] count: expected an integer, got '2.5'"),
    "theta_max_pi": (_plus("[theta_grid]\nmax = 3.2"), "theta_grid.max",
                     "[theta_grid] max must be strictly below pi"),
    "theta_min_negative": (_plus("[theta_grid]\nmin = -0.1"),
                           "theta_grid.min", "[theta_grid] min must be >= 0"),
    "theta_min_inf": (_plus("[theta_grid]\nmin = inf"), "theta_grid.min",
                      "[theta_grid] min must be finite, got inf"),
    "theta_max_inf": (_plus("[theta_grid]\nmax = inf"), "theta_grid.max",
                      "[theta_grid] max must be finite, got inf"),
    "theta_max_nan": (_plus("[theta_grid]\nmax = nan"), "theta_grid.max",
                      "[theta_grid] max must be finite, got nan"),
    "theta_max_below_min": (_plus("[theta_grid]\nmin = 0.4\nmax = 0.3"),
                            "theta_grid.max",
                            "[theta_grid] max must exceed min"),
    "count_floor": (_plus("[theta_grid]\ncount = 1"), "theta_grid.count",
                    "[theta_grid] count must be >= 2, got 1"),
    "count_ceiling": (_plus("[theta_grid]\ncount = 65537"),
                      "theta_grid.count",
                      "[theta_grid] count must be <= 65536"),
    "bad_spacing": (_plus("[theta_grid]\nspacing = cubic"),
                    "theta_grid.spacing",
                    "[theta_grid] spacing must be linear or log"),
    "log_needs_min": (_plus("[theta_grid]\nspacing = log"),
                      "theta_grid.spacing",
                      "[theta_grid] log spacing needs min > 0"),
    "empty_sources": (_plus("[run]\nsources ="), "run.sources",
                      "at least one source is required"),
    "unknown_source": (_plus("[run]\nsources = telepathy"), "run.sources",
                       "unknown source 'telepathy'; choose from eikonal, "
                       "born1, born_resummed, partial_wave, paper_closed"),
    "duplicate_source": (_plus("[run]\nsources = born1, born1"),
                         "run.sources", "sources must not repeat"),
    "bad_threads": (_plus("[run]\nthreads = two"), "run.threads",
                    "[run] threads: expected an integer, got 'two'"),
    "threads_floor": (_plus("[run]\nthreads = 0"), "run.threads",
                      "run: threads must be >= 1, got 0"),
    "bad_rel_tol": (_plus("[quadrature]\nrel_tol = tight"),
                    "quadrature.rel_tol",
                    "[quadrature] rel_tol: expected a number, got 'tight'"),
    "bad_max_subdivisions": (_plus("[quadrature]\nmax_subdivisions = 1e3"),
                             "quadrature.max_subdivisions",
                             "[quadrature] max_subdivisions: expected an "
                             "integer, got '1e3'"),
    "negative_rel_tol": (_plus("[quadrature]\nrel_tol = -1"),
                         "quadrature.rel_tol",
                         "[quadrature] rel_tol must be positive, got -1.0"),
    "zero_abs_tol": (_plus("[quadrature]\nabs_tol = 0"), "quadrature.abs_tol",
                     "[quadrature] abs_tol must be positive, got 0.0"),
    "max_subdivisions_floor": (_plus("[quadrature]\nmax_subdivisions = 4"),
                               "quadrature.max_subdivisions",
                               "[quadrature] max_subdivisions must be >= 8, "
                               "got 4"),
    # the Hankel transform's range is the potential's own: the keys that
    # set a cut and a block count are gone, and rejected by name
    "zero_tail_cut": (_plus("[quadrature]\ntail_cut = 0"),
                      "quadrature.tail_cut",
                      "[quadrature] unknown key 'tail_cut'"),
    "oscillatory_blocks_floor": (_plus("[quadrature]\noscillatory_blocks = 0"),
                                 "quadrature.oscillatory_blocks",
                                 "[quadrature] unknown key "
                                 "'oscillatory_blocks'"),
    "nan_rel_tol": (_plus("[quadrature]\nrel_tol = nan"),
                    "quadrature.rel_tol",
                    "[quadrature] rel_tol must be finite, got nan"),
    "inf_rel_tol": (_plus("[quadrature]\nrel_tol = inf"),
                    "quadrature.rel_tol",
                    "[quadrature] rel_tol must be finite, got inf"),
    "inf_abs_tol": (_plus("[quadrature]\nabs_tol = inf"),
                    "quadrature.abs_tol",
                    "[quadrature] abs_tol must be finite, got inf"),
    "nan_tail_cut": (_plus("[quadrature]\ntail_cut = nan"),
                     "quadrature.tail_cut",
                     "[quadrature] unknown key 'tail_cut'"),
    "inf_tail_cut": (_plus("[quadrature]\ntail_cut = inf"),
                     "quadrature.tail_cut",
                     "[quadrature] unknown key 'tail_cut'"),
    "bad_l_max": (_plus("[partial_wave]\nl_max = many"),
                  "partial_wave.l_max",
                  "[partial_wave] l_max: expected an integer, got 'many'"),
    "negative_l_max": (_plus("[partial_wave]\nl_max = -1"),
                       "partial_wave.l_max",
                       "[partial_wave] l_max must be >= 0, got -1"),
    "negative_r_max": (_plus("[partial_wave]\nr_max = -5"),
                       "partial_wave.r_max",
                       "[partial_wave] r_max must be positive, got -5.0"),
    "nan_r_max": (_plus("[partial_wave]\nr_max = nan"), "partial_wave.r_max",
                  "[partial_wave] r_max must be finite, got nan"),
    "negative_dr": (_plus("[partial_wave]\ndr = -0.01"), "partial_wave.dr",
                    "[partial_wave] dr must be positive, got -0.01"),
    # plot.gp is written whenever a CSV is, and the caller names the
    # output directory: the config has no [output] section
    "removed_plot_switch": (_plus("[output]\nemit_plot_script = true"),
                            "output", "unknown section [output]"),
    "removed_output_section": (_plus("[output]\ndirectory = results"),
                               "output", "unknown section [output]"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_single_fault_golden(name, tmp_path):
    text, key, message = FAULTS[name]
    table = tmp_path / "table.csv"
    table.write_text("0.0 1.0\n1.0 0.5\n2.0 0.1\n3.0 0.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("{table}", str(table)))
    assert type(err.value) is ConfigError
    assert (err.value.key, str(err.value)) == (key, message)


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
            MINIMAL + "\n[quadrature]\nrel_tol = 1e-8\nabs_tol = 1e-13\n")
        assert cfg.quadrature.rel_tol == 1e-8
        assert cfg.quadrature.abs_tol == 1e-13
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

    def test_echo_names_the_table_and_round_trips(self, tmp_path):
        f = tmp_path / "table.dat"
        f.write_text("0.0 1.0\n1.0 0.5\n2.0 0.1\n3.0 0.0\n")
        cfg = parse_config(self._table_config("table.dat",
                                              "interpolation = linear"),
                           base_dir=str(tmp_path))
        lines = echo_lines(cfg)
        assert lines[:4] == ["[potential]", "model = tabulated",
                             f"file = {f}", "interpolation = linear"]
        again = parse_config("\n".join(lines))
        assert echo_lines(again) == lines
        assert again.potential.r.tobytes() == cfg.potential.r.tobytes()
        assert again.potential.v.tobytes() == cfg.potential.v.tobytes()

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
    def test_grid_type_invariants(self):
        with pytest.raises(DomainError):
            ThetaGrid(min=0.2, max=0.1)
        with pytest.raises(DomainError):
            ThetaGrid(min=-0.1, max=0.5)
        # a fractional or nan count passed, and points() raised numpy's
        # TypeError
        for count in (2.5, math.nan):
            with pytest.raises(DomainError) as err:
                ThetaGrid(count=count)
            assert err.value.key == "count"
        assert ThetaGrid(count=np.int64(3)).points().size == 3

    @pytest.mark.parametrize("name, value", [
        ("l_max", 2.5),  # was accepted, and the task failed in phase_shifts
        ("l_max", "2"),  # were raw TypeErrors
        ("r_max", "25"),
        ("dr", "0.1"),
    ])
    def test_partial_wave_options_check_their_types(self, name, value):
        with pytest.raises(DomainError) as err:
            PartialWaveOptions(**{name: value})
        assert err.value.key == name
        assert PartialWaveOptions(l_max=np.int64(3), r_max=25,
                                  dr=np.float64(0.01)).l_max == 3

    @pytest.mark.parametrize("threads", ["2", True, 1.0])
    def test_threads_must_be_an_integer(self, threads):
        # a str was a raw TypeError, and True passed as one thread
        with pytest.raises(ConfigError) as err:
            RunConfig(potential=Yukawa(1.0, 1.0), mass=1.0, k_values=(1.0,),
                      threads=threads)
        assert err.value.key == "run.threads"
        assert RunConfig(potential=Yukawa(1.0, 1.0), mass=1.0,
                         k_values=(1.0,), threads=np.int64(2)).threads == 2

    def test_direct_construction_validates(self):
        with pytest.raises(ConfigError):
            RunConfig(potential=Yukawa(1.0, 1.0), mass=1.0, k_values=())


def _grammar_keys(text):
    """The (section, key) pairs of the 'key = value' lines under each
    '[section]' line of text; a line's comment is not read."""
    keys, section = set(), None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        head = re.fullmatch(r"\[(\w+)\]", line)
        if head:
            section = head.group(1)
        elif section and re.match(r"\w+ = ", line):
            keys.add((section, line.split(" = ", 1)[0]))
    return keys


_ACCEPTED = {("potential", key) for key in config._POTENTIAL_KEYS} | {
    (section, key) for section, (_, _, keys) in config._SECTIONS.items()
    for key in keys}


def test_readme_config_block_lists_exactly_the_accepted_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert _grammar_keys(block) == _ACCEPTED


def test_grammar_docstring_lists_exactly_the_accepted_keys():
    assert _grammar_keys(config.__doc__) == _ACCEPTED
