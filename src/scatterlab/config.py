"""Run configuration: sectioned INI text parsed into a validated RunConfig.

Grammar (all sections optional except [potential] and [kinematics]):

    [potential]
    model = yukawa | gauss | tabulated
    g = 0.5            # yukawa, gauss
    mu = 1.0           # yukawa
    alpha = 1.0        # gauss
    file = table.csv   # tabulated: two columns r, V (comma or whitespace)
    interpolation = cubic | linear   # tabulated only

    [kinematics]
    mass = 1.0
    k = 10.0           # or a comma-separated list for an energy scan
    hbar = 1.0

    [theta_grid]
    min = 0.0
    max = 0.5          # must stay strictly below pi
    count = 64
    spacing = linear | log

    [run]
    sources = eikonal, born1
    threads = 1

    [quadrature]
    rel_tol = 1e-10
    abs_tol = 1e-12
    max_subdivisions = 200
    tail_cut = 60.0
    oscillatory_blocks = 6

    [partial_wave]
    l_max = auto       # or a non-negative integer
    r_max = auto       # or a positive radius
    dr = auto          # or a positive step

    [output]
    directory = scatter_out
    emit_plot_script = true

Unknown sections or keys are rejected by name rather than ignored, so a
typo cannot silently fall back to a default.
"""

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .cross_sections import SOURCES
from .eikonal import Kinematics
from .errors import ConfigError, DomainError
from .potentials import Gauss, Yukawa, load_radial_table
from .quadrature import QuadratureSettings

_SECTION_KEYS = {
    "potential": ("model", "g", "mu", "alpha", "file", "interpolation"),
    "kinematics": ("mass", "k", "hbar"),
    "theta_grid": ("min", "max", "count", "spacing"),
    "run": ("sources", "threads"),
    "quadrature": ("rel_tol", "abs_tol", "max_subdivisions", "tail_cut",
                   "oscillatory_blocks"),
    "partial_wave": ("l_max", "r_max", "dr"),
    "output": ("directory", "emit_plot_script"),
}

_MODEL_KEYS = {
    "yukawa": {"required": ("g", "mu"), "optional": ()},
    "gauss": {"required": ("g", "alpha"), "optional": ()},
    "tabulated": {"required": ("file",), "optional": ("interpolation",)},
}

_BOOL_STATES = configparser.ConfigParser.BOOLEAN_STATES


@dataclass(frozen=True)
class ThetaGrid:
    """Scattering-angle sampling; the grid stays inside [0, pi)."""

    min: float = 0.0
    max: float = 0.5
    count: int = 64
    spacing: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ConfigError("theta_grid bounds must be finite",
                              key="theta_grid.min")
        if self.min < 0.0:
            raise ConfigError("theta_grid.min must be >= 0",
                              key="theta_grid.min")
        if self.max >= math.pi:
            raise ConfigError("theta_grid.max must be strictly below pi",
                              key="theta_grid.max")
        if self.max <= self.min:
            raise ConfigError("theta_grid.max must exceed theta_grid.min",
                              key="theta_grid.max")
        if self.count < 2:
            raise ConfigError("theta_grid.count must be >= 2",
                              key="theta_grid.count")
        if self.spacing not in ("linear", "log"):
            raise ConfigError("theta_grid.spacing must be linear or log",
                              key="theta_grid.spacing")
        if self.spacing == "log" and self.min <= 0.0:
            raise ConfigError("log spacing needs theta_grid.min > 0",
                              key="theta_grid.spacing")

    def points(self):
        if self.spacing == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class PartialWaveOptions:
    """Solver knobs; None means the solver picks the value itself."""

    l_max: int | None = None
    r_max: float | None = None
    dr: float | None = None

    def __post_init__(self):
        if self.l_max is not None and self.l_max < 0:
            raise ConfigError("partial_wave.l_max must be >= 0 or auto",
                              key="partial_wave.l_max")
        for name in ("r_max", "dr"):
            val = getattr(self, name)
            if val is not None and not (math.isfinite(val) and val > 0.0):
                raise ConfigError(f"partial_wave.{name} must be positive",
                                  key=f"partial_wave.{name}")


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "scatter_out"
    emit_plot_script: bool = True


@dataclass(frozen=True)
class RunConfig:
    """Everything run_scan needs, defaults filled, invariants checked."""

    potential: object
    mass: float
    k_values: tuple
    hbar: float = 1.0
    theta: ThetaGrid = field(default_factory=ThetaGrid)
    sources: tuple = ("eikonal", "born1")
    quadrature: QuadratureSettings = field(
        default_factory=QuadratureSettings)
    partial_wave: PartialWaveOptions = field(
        default_factory=PartialWaveOptions)
    output: OutputOptions = field(default_factory=OutputOptions)
    threads: int = 1

    def __post_init__(self):
        if len(self.sources) == 0:
            raise ConfigError("at least one source is required",
                              key="run.sources")
        for s in self.sources:
            if s not in SOURCES:
                raise ConfigError(
                    f"unknown source {s!r}; choose from "
                    f"{', '.join(SOURCES)}", key="run.sources")
        if len(set(self.sources)) != len(self.sources):
            raise ConfigError("sources must not repeat", key="run.sources")
        if len(self.k_values) == 0:
            raise ConfigError("at least one k value is required",
                              key="kinematics.k")
        if len(set(self.k_values)) != len(self.k_values):
            raise ConfigError("k values must not repeat",
                              key="kinematics.k")
        if self.threads < 1:
            raise ConfigError("run.threads must be >= 1", key="run.threads")
        for kk in self.k_values:
            try:
                Kinematics(mass=self.mass, k=kk, hbar=self.hbar)
            except DomainError as exc:
                raise ConfigError(f"kinematics: {exc}",
                                  key="kinematics.k") from exc

    def kinematics(self, k):
        return Kinematics(mass=self.mass, k=k, hbar=self.hbar)


def _fail(section, key, what, raw):
    raise ConfigError(f"[{section}] {key}: expected {what}, got {raw!r}",
                      key=f"{section}.{key}")


def _as_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        _fail(section, key, "a number", raw)


def _as_int(section, key, raw):
    try:
        return int(raw, 10)
    except ValueError:
        _fail(section, key, "an integer", raw)


def _as_bool(section, key, raw):
    state = _BOOL_STATES.get(raw.strip().lower())
    if state is None:
        _fail(section, key, "a boolean", raw)
    return state


def _build_potential(sec, base_dir):
    model = sec.get("model")
    if model is None:
        raise ConfigError("[potential] model is required",
                          key="potential.model")
    model = model.strip().lower()
    spec = _MODEL_KEYS.get(model)
    if spec is None:
        raise ConfigError(
            f"[potential] model: unknown model {model!r}; choose from "
            f"{', '.join(sorted(_MODEL_KEYS))}", key="potential.model")
    allowed = set(spec["required"]) | set(spec["optional"]) | {"model"}
    for key in sec:
        if key not in allowed:
            raise ConfigError(
                f"[potential] {key}: not valid for model {model!r}",
                key=f"potential.{key}")
    for key in spec["required"]:
        if key not in sec:
            raise ConfigError(
                f"[potential] {key}: required for model {model!r}",
                key=f"potential.{key}")
    try:
        if model == "yukawa":
            return Yukawa(g=_as_float("potential", "g", sec["g"]),
                          mu=_as_float("potential", "mu", sec["mu"]))
        if model == "gauss":
            return Gauss(g=_as_float("potential", "g", sec["g"]),
                         alpha=_as_float("potential", "alpha",
                                         sec["alpha"]))
        path = sec["file"].strip()
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"[potential] file: {path} does not exist",
                              key="potential.file")
        interp = sec.get("interpolation", "cubic").strip().lower()
        if interp not in ("cubic", "linear"):
            _fail("potential", "interpolation", "cubic or linear", interp)
        return load_radial_table(path, interpolation=interp)
    except DomainError as exc:
        raise ConfigError(f"[potential] {exc}", key="potential") from exc


def _parse_k_list(raw):
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError("[kinematics] k: no values given",
                          key="kinematics.k")
    return tuple(_as_float("kinematics", "k", p) for p in parts)


def parse_config(text, base_dir=None):
    """Parse INI text into a RunConfig; every problem raises ConfigError."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                   inline_comment_prefixes=("#", ";"),
                                   strict=True)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if cp.defaults():
        key = next(iter(cp.defaults()))
        raise ConfigError(f"key {key!r} appears outside any section",
                          key=key)

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]", key=section)
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}",
                                  key=f"{section}.{key}")

    for required in ("potential", "kinematics"):
        if required not in cp:
            raise ConfigError(f"section [{required}] is required",
                              key=required)

    potential = _build_potential(cp["potential"], base_dir)

    kin = cp["kinematics"]
    if "mass" not in kin:
        raise ConfigError("[kinematics] mass is required",
                          key="kinematics.mass")
    if "k" not in kin:
        raise ConfigError("[kinematics] k is required", key="kinematics.k")
    mass = _as_float("kinematics", "mass", kin["mass"])
    k_values = _parse_k_list(kin["k"])
    hbar = _as_float("kinematics", "hbar", kin.get("hbar", "1.0"))

    grid_sec = cp["theta_grid"] if "theta_grid" in cp else {}
    theta = ThetaGrid(
        min=_as_float("theta_grid", "min", grid_sec.get("min", "0.0")),
        max=_as_float("theta_grid", "max", grid_sec.get("max", "0.5")),
        count=_as_int("theta_grid", "count", grid_sec.get("count", "64")),
        spacing=grid_sec.get("spacing", "linear").strip().lower())

    run_sec = cp["run"] if "run" in cp else {}
    raw_sources = run_sec.get("sources", "eikonal, born1")
    sources = tuple(p for chunk in raw_sources.split(",")
                    for p in chunk.split())
    threads = _as_int("run", "threads", run_sec.get("threads", "1"))

    quad_sec = cp["quadrature"] if "quadrature" in cp else {}
    try:
        quadrature = QuadratureSettings(
            rel_tol=_as_float("quadrature", "rel_tol",
                              quad_sec.get("rel_tol", "1e-10")),
            abs_tol=_as_float("quadrature", "abs_tol",
                              quad_sec.get("abs_tol", "1e-12")),
            max_subdivisions=_as_int("quadrature", "max_subdivisions",
                                     quad_sec.get("max_subdivisions",
                                                  "200")),
            tail_cut=_as_float("quadrature", "tail_cut",
                               quad_sec.get("tail_cut", "60.0")),
            oscillatory_blocks=_as_int("quadrature", "oscillatory_blocks",
                                       quad_sec.get("oscillatory_blocks",
                                                    "6")))
    except DomainError as exc:
        raise ConfigError(f"[quadrature] {exc}", key="quadrature") from exc

    pw_sec = cp["partial_wave"] if "partial_wave" in cp else {}

    def _auto_or(section, key, raw, conv):
        if raw is None or raw.strip().lower() == "auto":
            return None
        return conv(section, key, raw)

    pw = PartialWaveOptions(
        l_max=_auto_or("partial_wave", "l_max", pw_sec.get("l_max"),
                       _as_int),
        r_max=_auto_or("partial_wave", "r_max", pw_sec.get("r_max"),
                       _as_float),
        dr=_auto_or("partial_wave", "dr", pw_sec.get("dr"), _as_float))

    out_sec = cp["output"] if "output" in cp else {}
    directory = out_sec.get("directory", "scatter_out").strip()
    if not directory:
        raise ConfigError("[output] directory must not be empty",
                          key="output.directory")
    if base_dir is not None and not os.path.isabs(directory):
        directory = os.path.join(base_dir, directory)
    output = OutputOptions(
        directory=directory,
        emit_plot_script=_as_bool(
            "output", "emit_plot_script",
            out_sec.get("emit_plot_script", "true")))

    return RunConfig(potential=potential, mass=mass, k_values=k_values,
                     hbar=hbar, theta=theta, sources=sources,
                     quadrature=quadrature, partial_wave=pw, output=output,
                     threads=threads)


def echo_lines(cfg):
    """Effective config as INI lines, defaults filled, for the manifest."""
    p = cfg.potential
    if isinstance(p, Yukawa):
        pot = [f"model = yukawa", f"g = {p.g!r}", f"mu = {p.mu!r}"]
    elif isinstance(p, Gauss):
        pot = [f"model = gauss", f"g = {p.g!r}", f"alpha = {p.alpha!r}"]
    else:
        pot = [f"model = tabulated", f"samples = {p.r.size}",
               f"interpolation = {p.interpolation}"]
    q = cfg.quadrature
    pw = cfg.partial_wave

    def opt(v):
        return "auto" if v is None else repr(v)

    lines = ["[potential]"] + pot + [
        "",
        "[kinematics]",
        f"mass = {cfg.mass!r}",
        "k = " + ", ".join(repr(k) for k in cfg.k_values),
        f"hbar = {cfg.hbar!r}",
        "",
        "[theta_grid]",
        f"min = {cfg.theta.min!r}",
        f"max = {cfg.theta.max!r}",
        f"count = {cfg.theta.count}",
        f"spacing = {cfg.theta.spacing}",
        "",
        "[run]",
        "sources = " + ", ".join(cfg.sources),
        f"threads = {cfg.threads}",
        "",
        "[quadrature]",
        f"rel_tol = {q.rel_tol!r}",
        f"abs_tol = {q.abs_tol!r}",
        f"max_subdivisions = {q.max_subdivisions}",
        f"tail_cut = {q.tail_cut!r}",
        f"oscillatory_blocks = {q.oscillatory_blocks}",
        "",
        "[partial_wave]",
        f"l_max = {opt(pw.l_max)}",
        f"r_max = {opt(pw.r_max)}",
        f"dr = {opt(pw.dr)}",
        "",
        "[output]",
        f"directory = {cfg.output.directory}",
        f"emit_plot_script = {str(cfg.output.emit_plot_script).lower()}",
    ]
    return lines
