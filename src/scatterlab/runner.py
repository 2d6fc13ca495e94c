"""Scan orchestration: one config in, CSV/report/manifest files out.

Work is split into independent (source, k) tasks, run one after another
in a fixed canonical order. run.threads is parsed, checked and echoed but
changes neither speed nor output: the tasks hold the interpreter lock, so
a thread pool never ran them faster.
"""

import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, paper_forms
from .born import BornSettings, born1_amplitude, born_resummed_amplitude
from .config import echo_lines
from .cross_sections import paper_formula_checks, table_from_amplitudes
from .eikonal import amplitude_eikonal, amplitude_paper_closed
from .errors import DomainError, ScatterError
from .partial_wave import amplitude_partial_wave, phase_shifts
from .potentials import Gauss, Yukawa

_QUADRATURE_SOURCES = ("eikonal", "born_resummed")


@dataclass(frozen=True)
class SourceOutcome:
    """What one (source, k) task produced, or the error that stopped it."""

    source: str
    k: float
    csv_file: str | None
    total_integrated: float
    total_optical: float
    wall_clock: float
    error: str | None


@dataclass(frozen=True)
class RunManifest:
    version: str
    config_lines: tuple
    outcomes: tuple
    verdicts: tuple  # (k, PaperComparison) pairs
    warnings: tuple
    csv_files: tuple
    aux_files: tuple
    output_dir: str

    def __post_init__(self):
        if len(set(self.csv_files)) != len(self.csv_files):
            raise DomainError("each CSV must be referenced exactly once")

    @property
    def failed(self):
        return tuple(o for o in self.outcomes if o.error is not None)

    @property
    def all_failed(self):
        return len(self.failed) == len(self.outcomes)


def _fmt(x):
    # +0.0 folds -0.0 into +0.0 so equal values serialize identically
    return "%.16e" % (float(x) + 0.0)


def _k_tag(k):
    return f"{k:.12g}"


def _csv_name(source, k):
    return f"{source}_k{_k_tag(k)}.csv"


def _amplitude_rows(cfg, source, kin, theta):
    """The source's Amplitude over the theta grid, plus row warnings."""
    p = cfg.potential
    if source == "partial_wave":
        ps = phase_shifts(p, kin, l_max=cfg.partial_wave.l_max,
                          r_max=cfg.partial_wave.r_max,
                          dr=cfg.partial_wave.dr)
        return amplitude_partial_wave(ps, theta), []
    if source == "eikonal":
        return amplitude_eikonal(p, kin, theta, settings=cfg.quadrature), []
    if source == "born_resummed":
        return born_resummed_amplitude(p, kin, theta, settings=BornSettings(
            spatial=cfg.quadrature)), []
    if source == "born1":
        return born1_amplitude(p, kin, theta), []
    amp = amplitude_paper_closed(p, kin, theta)
    return amp, [f"{source} k={_k_tag(kin.k)}: pole at theta={t:.6g}, row "
                 f"recorded as nan" for t in theta[np.isnan(amp.value)]]


def _quadrature_warning(source, k, err, value, settings):
    """Warning line when any row's error estimate is 10x looser than the
    tolerance the settings asked for, None when all rows are within it."""
    target = np.maximum(settings.abs_tol,
                        settings.rel_tol * np.abs(value))
    loose = np.isfinite(err) & (err > 10.0 * target)
    if not np.any(loose):
        return None
    return (f"{source} k={_k_tag(k)}: {int(np.count_nonzero(loose))} "
            f"angle(s) with quadrature error estimate above 10x the "
            f"tolerance target")


def _run_task(cfg, source, k):
    """Compute one (source, k) table; never raises, reports via outcome."""
    start = time.perf_counter()
    kin = cfg.kinematics(k)
    theta = cfg.theta.points()
    try:
        amp, warnings = _amplitude_rows(cfg, source, kin, theta)
    except ScatterError as exc:
        wall = time.perf_counter() - start
        outcome = SourceOutcome(source=source, k=k, csv_file=None,
                                total_integrated=float("nan"),
                                total_optical=float("nan"),
                                wall_clock=wall,
                                error=f"{type(exc).__name__}: {exc}")
        return outcome, None, []

    if source in _QUADRATURE_SOURCES:
        loose = _quadrature_warning(source, k, amp.error_estimate,
                                    amp.value, cfg.quadrature)
        if loose is not None:
            warnings.append(loose)

    table = table_from_amplitudes(source, amp, kin.k)
    if math.isnan(table.total_integrated):
        warnings.append(
            f"{source} k={_k_tag(k)}: total_integrated unavailable "
            f"(needs a finite grid spanning [0, pi] densely enough)")
    if math.isnan(table.total_optical):
        warnings.append(
            f"{source} k={_k_tag(k)}: total_optical unavailable "
            f"(needs theta = 0 on the grid)")
    wall = time.perf_counter() - start
    outcome = SourceOutcome(source=source, k=k,
                            csv_file=_csv_name(source, k),
                            total_integrated=table.total_integrated,
                            total_optical=table.total_optical,
                            wall_clock=wall, error=None)
    return outcome, table, warnings


def _csv_text(table):
    lines = ["theta_rad,q,re_f,im_f,dsigma_domega"]
    for row in table.rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _summary_text(outcomes):
    lines = ["source,k,total_integrated,total_optical"]
    for o in outcomes:
        if o.error is not None:
            continue
        lines.append(f"{o.source},{_fmt(o.k)},{_fmt(o.total_integrated)},"
                     f"{_fmt(o.total_optical)}")
    return "\n".join(lines) + "\n"


def _report_text(cfg, tables, verdicts):
    lines = ["pairwise comparison of dsigma/dOmega", ""]
    for k in cfg.k_values:
        present = [s for s in cfg.sources if (s, k) in tables]
        lines.append(f"[k = {_k_tag(k)}]")
        if not present:
            lines.append("  no sources completed")
            lines.append("")
            continue
        theta = tables[(present[0], k)].rows[:, 0]
        q = tables[(present[0], k)].rows[:, 1]

        columns = {s: tables[(s, k)].rows[:, 4] for s in present}
        if "paper_closed" in present:  # so the model has closed forms
            lines.append(
                "  reference_form: closed |f|^2 with q = "
                "2 k sin(theta/2) substituted (exact-q variant of the "
                "paper_closed column)")
            columns["reference_form"] = paper_forms.dsigma(
                cfg.potential, cfg.kinematics(k), theta, q)

        names = list(columns)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = names[i], names[j]
                da, db = columns[a], columns[b]
                scale = np.maximum(np.maximum(np.abs(da), np.abs(db)),
                                   1e-300)
                dev = np.abs(da - db) / scale
                lines.append(f"  pair: {a} vs {b}")
                lines.append("    theta_rad      q              "
                             f"{a[:14]:<14} {b[:14]:<14} rel_dev")
                for n in range(theta.size):
                    lines.append(
                        f"    {theta[n]:<14.6e} {q[n]:<14.6e} "
                        f"{da[n]:<14.6e} {db[n]:<14.6e} {dev[n]:.3e}")
                fwd = (theta <= 0.2) & np.isfinite(dev)
                if np.any(fwd):
                    worst = float(np.max(dev[fwd]))
                    tag = "CONSISTENT" if worst < 2e-2 else "DEVIATES"
                    lines.append(f"    max rel_dev over theta <= 0.2: "
                                 f"{worst:.3e} -> {tag}")
                finite = np.isfinite(dev)
                if np.any(finite):
                    lines.append(f"    max rel_dev overall: "
                                 f"{float(np.max(dev[finite])):.3e}")
                lines.append("")
        lines.append("")

    lines.append("reference formula checks")
    if not verdicts:
        lines.append("  (not available for this potential model)")
    for k, comp in verdicts:
        ratio = "" if math.isnan(comp.ratio) else f" ratio={comp.ratio:.9g}"
        lines.append(
            f"  k={_k_tag(k)} {comp.name}: {comp.verdict} "
            f"verbatim_dev={comp.verbatim_deviation:.3e} "
            f"corrected_dev={comp.corrected_deviation:.3e}"
            f"{ratio} [{comp.mutation}]")
    lines.append("")
    return "\n".join(lines)


def _plot_text(cfg, csv_files):
    lines = [
        "# gnuplot script; run from inside this directory",
        "set datafile separator ','",
        "set terminal pngcairo size 960,640",
        "set output 'dsigma.png'",
        "set logscale y",
        "set xlabel 'theta (rad)'",
        "set ylabel 'dsigma/dOmega'",
        "set key top right",
    ]
    plots = [f"'{name}' skip 1 using 1:5 with lines "
             f"title '{name[:-4]}'" for name in csv_files]
    lines.append("plot \\")
    lines.append(", \\\n".join("  " + p for p in plots))
    lines.append("set output")
    return "\n".join(lines) + "\n"


def _manifest_text(manifest):
    per_source = {}
    for o in manifest.outcomes:
        per_source[o.source] = per_source.get(o.source, 0.0) + o.wall_clock
    lines = ["scatterlab run manifest",
             f"version: {manifest.version}",
             "",
             "[config]"]
    lines += ["  " + ln if ln else "" for ln in manifest.config_lines]
    lines.append("")
    lines.append("[wall clock per source]")
    for source, secs in per_source.items():
        lines.append(f"  {source}: {secs:.3f} s")
    lines.append("")
    lines.append("[outcomes]")
    for o in manifest.outcomes:
        status = "ok" if o.error is None else f"FAILED ({o.error})"
        lines.append(f"  {o.source} k={_k_tag(o.k)}: {status}")
    lines.append("")
    lines.append("[verdicts]")
    if not manifest.verdicts:
        lines.append("  none")
    for k, comp in manifest.verdicts:
        lines.append(f"  k={_k_tag(k)} {comp.name}: {comp.verdict}")
    lines.append("")
    lines.append("[warnings]")
    if not manifest.warnings:
        lines.append("  none")
    for w in manifest.warnings:
        lines.append(f"  {w}")
    lines.append("")
    lines.append("[files]")
    for name in manifest.csv_files + manifest.aux_files:
        lines.append(f"  {name}")
    lines.append("")
    return "\n".join(lines)


def run_scan(cfg, out_dir=None):
    """Execute every (source, k) task, one after another, and write the
    artifact files.

    out_dir overrides cfg.output.directory when given; the manifest
    echoes the directory actually written. Returns the RunManifest;
    per-source failures are recorded there rather than raised, so partial
    results still land on disk.
    """
    out_dir = cfg.output.directory if out_dir is None else out_dir
    cfg = dataclasses.replace(cfg, output=dataclasses.replace(
        cfg.output, directory=out_dir))
    tasks = [(source, k) for source in cfg.sources for k in cfg.k_values]

    outcomes, tables, warnings = [], {}, []
    for key in tasks:
        outcome, table, task_warnings = _run_task(cfg, *key)
        outcomes.append(outcome)
        warnings.extend(task_warnings)
        if table is not None:
            tables[key] = table

    verdicts = []
    if isinstance(cfg.potential, (Yukawa, Gauss)):
        for k in cfg.k_values:
            try:
                for comp in paper_formula_checks(cfg.potential,
                                                 cfg.kinematics(k)):
                    verdicts.append((k, comp))
            except ScatterError as exc:
                warnings.append(f"formula checks skipped at "
                                f"k={_k_tag(k)}: {exc}")

    csv_files = tuple(o.csv_file for o in outcomes if o.csv_file)
    aux_files = ["summary.csv", "report.txt"]
    if cfg.output.emit_plot_script and csv_files:
        aux_files.append("plot.gp")
    manifest = RunManifest(version=__version__,
                           config_lines=tuple(echo_lines(cfg)),
                           outcomes=tuple(outcomes),
                           verdicts=tuple(verdicts),
                           warnings=tuple(warnings),
                           csv_files=csv_files,
                           aux_files=tuple(aux_files),
                           output_dir=out_dir)

    os.makedirs(out_dir, exist_ok=True)

    def _write(name, text):
        with open(os.path.join(out_dir, name), "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write(text)

    for key in tasks:
        if key in tables:
            _write(_csv_name(*key), _csv_text(tables[key]))
    _write("summary.csv", _summary_text(outcomes))
    _write("report.txt", _report_text(cfg, tables, verdicts))
    if cfg.output.emit_plot_script and csv_files:
        _write("plot.gp", _plot_text(cfg, csv_files))
    _write("manifest.txt", _manifest_text(manifest))
    return manifest
