"""Run configuration: sectioned INI text parsed into a validated RunConfig.

Grammar. [potential] and [kinematics] are required, and so are the keys
marked so; every other key may be left out and then takes the value shown,
which is the default of the dataclass field it sets:

    [potential]
    model = yukawa | gauss | tabulated   # required
    g = 0.5            # yukawa, gauss: required
    mu = 1.0           # yukawa: required
    alpha = 1.0        # gauss: required
    file = table.csv   # tabulated: required; two columns r, V (comma or
                       # whitespace)
    interpolation = cubic              # tabulated only; or linear

    [kinematics]
    mass = 1.0         # required
    k = 10.0           # required; or a comma- or space-separated list for
                       # an energy scan, distinct at the 12 significant
                       # digits that name its CSVs

    [theta_grid]
    min = 0.0
    max = 0.5          # must stay strictly below pi
    count = 64         # 2 to 65536
    spacing = linear   # or log

    [run]
    sources = eikonal, born1
    threads = 1

    [quadrature]
    rel_tol = 1e-10
    abs_tol = 1e-12
    max_subdivisions = 200

    [partial_wave]
    l_max = auto       # or a non-negative integer
    r_max = auto       # or a positive radius
    dr = auto          # or a positive step

No key names the output directory: the caller passes it to run_scan.
Unknown sections or keys are rejected by name rather than ignored, so a
typo cannot silently fall back to a default. _SECTIONS below is the one
table of keys: parse_config, the unknown-key check and echo_lines all read
it. A settings type raises DomainError keyed by its own field (count, dr),
and parse_config names the section: ConfigError keyed theta_grid.count.
"""

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .eikonal import Kinematics
from .errors import ConfigError, DomainError, integer, real
from .potentials import Gauss, TabulatedRadial, Yukawa, load_radial_table
from .quadrature import QuadratureSettings

# the most angles a grid may hold, checked before any work starts; the
# shipped configs and the benchmark's inputs hold at most 961
_MAX_ANGLES = 1 << 16

# the routes a run may name in [run] sources
SOURCES = ("eikonal", "born1", "born_resummed", "partial_wave",
           "paper_closed")


def k_tag(k):
    """k as it appears in file names and messages: 12 significant digits."""
    return f"{k:.12g}"


@dataclass(frozen=True)
class ThetaGrid:
    """Scattering-angle sampling; the grid stays inside [0, pi)."""

    min: float = 0.0
    max: float = 0.5
    count: int = 64
    spacing: str = "linear"

    def __post_init__(self):
        real(self.min, "min")
        real(self.max, "max")
        if self.min < 0.0:
            raise DomainError("min must be >= 0", key="min")
        if self.max >= math.pi:
            raise DomainError("max must be strictly below pi", key="max")
        if self.max <= self.min:
            raise DomainError("max must exceed min", key="max")
        integer(self.count, "count", minimum=2)
        if self.count > _MAX_ANGLES:
            raise DomainError(f"count must be <= {_MAX_ANGLES}", key="count")
        if self.spacing not in ("linear", "log"):
            raise DomainError("spacing must be linear or log", key="spacing")
        if self.spacing == "log" and self.min <= 0.0:
            raise DomainError("log spacing needs min > 0", key="spacing")

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
        if self.l_max is not None:
            integer(self.l_max, "l_max")
        for name in ("r_max", "dr"):
            if getattr(self, name) is not None:
                real(getattr(self, name), name, positive=True)


@dataclass(frozen=True)
class RunConfig:
    """Everything run_scan needs, defaults filled, invariants checked."""

    potential: object
    mass: float
    k_values: tuple
    theta: ThetaGrid = field(default_factory=ThetaGrid)
    sources: tuple = ("eikonal", "born1")
    quadrature: QuadratureSettings = field(
        default_factory=QuadratureSettings)
    partial_wave: PartialWaveOptions = field(
        default_factory=PartialWaveOptions)
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
        try:
            integer(self.threads, "threads", minimum=1)
        except DomainError as exc:
            raise ConfigError(f"run: {exc}", key="run.threads") from exc
        for kk in self.k_values:
            try:
                Kinematics(mass=self.mass, k=kk)
            except DomainError as exc:
                raise ConfigError(f"kinematics: {exc}",
                                  key=f"kinematics.{exc.key}") from exc
        tagged = {}
        for kk in self.k_values:
            other = tagged.setdefault(k_tag(kk), kk)
            if other != kk:
                raise ConfigError(
                    f"k values {other!r} and {kk!r} share the file name tag "
                    f"k{k_tag(kk)}: k values must differ when rounded to 12 "
                    f"significant digits", key="kinematics.k")

    def kinematics(self, k):
        return Kinematics(mass=self.mass, k=k)


def split_list(raw):
    """The items of a comma- and/or whitespace-separated list."""
    return tuple(p for chunk in raw.split(",") for p in chunk.split())


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


def _as_word(section, key, raw):
    return raw.lower()


def _as_words(section, key, raw):
    return split_list(raw)


def _as_floats(section, key, raw):
    parts = split_list(raw)
    if not parts:
        raise ConfigError(f"[{section}] {key}: no values given",
                          key=f"{section}.{key}")
    return tuple(_as_float(section, key, p) for p in parts)


def _auto_or(conv):
    def parse(section, key, raw):
        if raw.lower() == "auto":
            return None
        return conv(section, key, raw)
    return parse


def _auto_text(val):
    return "auto" if val is None else repr(val)


# section -> (RunConfig field holding the section's dataclass, or None when
# the keys set RunConfig's own fields; that dataclass; key -> (field, parse,
# echo)). The dataclasses alone hold the defaults.
_SECTIONS = {
    "kinematics": (None, RunConfig, {
        "mass": ("mass", _as_float, repr),
        "k": ("k_values", _as_floats, lambda ks: ", ".join(map(repr, ks)))}),
    "theta_grid": ("theta", ThetaGrid, {
        "min": ("min", _as_float, repr),
        "max": ("max", _as_float, repr),
        "count": ("count", _as_int, repr),
        "spacing": ("spacing", _as_word, str)}),
    "run": (None, RunConfig, {
        "sources": ("sources", _as_words, ", ".join),
        "threads": ("threads", _as_int, repr)}),
    "quadrature": ("quadrature", QuadratureSettings, {
        "rel_tol": ("rel_tol", _as_float, repr),
        "abs_tol": ("abs_tol", _as_float, repr),
        "max_subdivisions": ("max_subdivisions", _as_int, repr)}),
    "partial_wave": ("partial_wave", PartialWaveOptions, {
        "l_max": ("l_max", _auto_or(_as_int), _auto_text),
        "r_max": ("r_max", _auto_or(_as_float), _auto_text),
        "dr": ("dr", _auto_or(_as_float), _auto_text)}),
}

# RunConfig fields without a default; their keys must be given
_REQUIRED = {f.name for f in dataclasses.fields(RunConfig)
             if f.default is f.default_factory is dataclasses.MISSING}

# model -> (potential class, required keys, optional keys); the analytic
# models take their keys as numbers, a table reads its file
_MODELS = {
    "yukawa": (Yukawa, ("g", "mu"), ()),
    "gauss": (Gauss, ("g", "alpha"), ()),
    "tabulated": (TabulatedRadial, ("file",), ("interpolation",)),
}
_POTENTIAL_KEYS = {"model"}.union(*(req + opt
                                    for _, req, opt in _MODELS.values()))


def _build_potential(sec, base_dir):
    if "model" not in sec:
        raise ConfigError("[potential] model is required",
                          key="potential.model")
    model = sec["model"].lower()
    if model not in _MODELS:
        raise ConfigError(
            f"[potential] model: unknown model {model!r}; choose from "
            f"{', '.join(sorted(_MODELS))}", key="potential.model")
    cls, required, optional = _MODELS[model]
    for key in sec:
        if key not in ("model", *required, *optional):
            raise ConfigError(
                f"[potential] {key}: not valid for model {model!r}",
                key=f"potential.{key}")
    for key in required:
        if key not in sec:
            raise ConfigError(
                f"[potential] {key}: required for model {model!r}",
                key=f"potential.{key}")
    try:
        if cls is not TabulatedRadial:
            return cls(**{key: _as_float("potential", key, sec[key])
                          for key in required})
        path = sec["file"]
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        options = {}
        if "interpolation" in sec:
            options["interpolation"] = sec["interpolation"].lower()
        return load_radial_table(path, **options)
    except DomainError as exc:
        key = "potential" if exc.key is None else f"potential.{exc.key}"
        raise ConfigError(f"[potential] {exc}", key=key) from exc


def parse_config(text, base_dir=None):
    """Parse INI text into a RunConfig; every problem raises ConfigError.

    Only the keys present are parsed: every other value is the default of
    the dataclass field it would set.
    """
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
        if section == "potential":
            known = _POTENTIAL_KEYS
        elif section in _SECTIONS:
            known = _SECTIONS[section][2]
        else:
            raise ConfigError(f"unknown section [{section}]", key=section)
        for key in cp[section]:
            if key not in known:
                raise ConfigError(f"[{section}] unknown key {key!r}",
                                  key=f"{section}.{key}")

    for required in ("potential", "kinematics"):
        if required not in cp:
            raise ConfigError(f"section [{required}] is required",
                              key=required)

    values = {"potential": _build_potential(cp["potential"], base_dir)}
    for section, (owner, cls, keys) in _SECTIONS.items():
        sec = cp[section] if section in cp else {}
        given = {}
        for key, (name, parse, _) in keys.items():
            if key in sec:
                given[name] = parse(section, key, sec[key])
            elif owner is None and name in _REQUIRED:
                raise ConfigError(f"[{section}] {key} is required",
                                  key=f"{section}.{key}")
        if owner is None:
            values.update(given)
            continue
        try:
            values[owner] = cls(**given)
        except DomainError as exc:
            raise ConfigError(f"[{section}] {exc}",
                              key=f"{section}.{exc.key}") from exc
    return RunConfig(**values)


def echo_lines(cfg):
    """Effective config as INI lines, defaults filled, for the manifest."""
    p = cfg.potential
    model = next(m for m, (cls, _, _) in _MODELS.items() if isinstance(p, cls))
    if model == "tabulated":
        pot = [f"file = {p.file}", f"interpolation = {p.interpolation}"]
    else:
        pot = [f"{key} = {getattr(p, key)!r}" for key in _MODELS[model][1]]
    lines = ["[potential]", f"model = {model}", *pot]
    for section, (owner, _, keys) in _SECTIONS.items():
        obj = cfg if owner is None else getattr(cfg, owner)
        lines += ["", f"[{section}]"] + [
            f"{key} = {echo(getattr(obj, name))}"
            for key, (name, _, echo) in keys.items()]
    return lines
