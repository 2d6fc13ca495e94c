"""Span tracer that times calls into scatterlab's modules from outside.

install() rebinds public functions in the namespace of each module that
imports them (``quadrature.bessel_j0``, ``born.integrate_adaptive``, ...),
so every call the program makes through that name opens a span. Spans are
not kept one by one: each thread aggregates calls, total and self time and
counts per (metric prefix, importing module) in memory, and summary()
merges the threads once the run is over.

Self time is a span's duration minus the time its child spans cover. Each
thread keeps its own span stack. A span opened on a worker thread with an
empty stack is a child of the outermost span open on the main thread
(run_scan, which submitted the work); that outermost span subtracts the
union of its children's intervals, because children on two threads overlap.
"""

import functools
import threading
import time
from collections import defaultdict

import numpy as np

# Arrays longer than one 15-node Gauss-Kronrod batch that partial_wave hands
# to evaluate() are radial grids: exactly one per Numerov sweep.
_PANEL = 15


def _elements(n):
    def hook(rec, args, result):
        rec["elements"] += int(np.size(args[n]))
    return hook


def _evals(rec, args, result):
    rec["evals"] += int(result.evaluations)


def _sweeps(rec, args, result):
    n = int(np.size(args[1]))
    rec["elements"] += n
    if n > _PANEL:
        rec["sweeps"] += 1
        rec["radial_steps"] += n


def _l_max(rec, args, result):
    rec["l_max"] = max(rec["l_max"], int(result.l_max))


# (modules that import the name, attribute, metric prefix, count hook)
SPEC = (
    (("quadrature",), "bessel_j0", "special_functions.bessel_j0",
     _elements(0)),
    (("eikonal",), "bessel_k0", "special_functions.bessel_k0", _elements(0)),
    (("partial_wave",), "spherical_bessel",
     "special_functions.spherical_bessel", None),
    (("partial_wave",), "legendre_p_row", "special_functions.legendre_p_row",
     None),
    (("quadrature",), "j0_zeros", "special_functions.j0_zeros", None),
    (("eikonal", "born"), "hankel0", "quadrature.hankel0", _evals),
    (("eikonal", "born", "partial_wave"), "integrate_semi_infinite",
     "quadrature.integrate_semi_infinite", _evals),
    (("potentials", "eikonal", "born", "partial_wave", "cross_sections"),
     "integrate_adaptive", "quadrature.integrate_adaptive", _evals),
    (("potentials", "eikonal", "born"), "evaluate", "potentials.evaluate",
     _elements(1)),
    (("partial_wave",), "evaluate", "potentials.evaluate", _sweeps),
    (("born",), "fourier3d", "potentials.fourier3d", None),
    (("eikonal",), "chi", "eikonal.chi", None),
    (("eikonal",), "chi_closed", "eikonal.chi_closed", None),
    (("runner",), "amplitude_eikonal", "eikonal.amplitude_eikonal", None),
    (("runner",), "born_resummed_amplitude", "born.born_resummed_amplitude",
     None),
    (("runner",), "phase_shifts", "partial_wave.phase_shifts", _l_max),
    (("partial_wave",), "effective_radius", "partial_wave.effective_radius",
     None),
    (("runner",), "amplitude_partial_wave",
     "partial_wave.amplitude_partial_wave", None),
    (("runner",), "table_from_amplitudes",
     "cross_sections.table_from_amplitudes", None),
    (("runner",), "paper_formula_checks",
     "cross_sections.paper_formula_checks", None),
    (("config",), "parse_config", "config.parse_config", None),
    (("runner",), "run_scan", "runner.run_scan", None),
)


class _Frame:
    __slots__ = ("covered", "intervals")

    def __init__(self, root):
        self.covered = 0.0
        self.intervals = [] if root else None


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


class Tracer:
    """Aggregating span recorder; one instance per traced process."""

    def __init__(self, error_type=Exception):
        self._error_type = error_type
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._main = threading.main_thread()
        self._main_root = None

    def _thread(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = ([], defaultdict(lambda: defaultdict(int)))
            with self._lock:
                self._tables.append(st[1])
            self._local.st = st
        return st

    def wrap(self, fn, key, hook=None):
        """fn wrapped so each call opens a span aggregated under key, a
        (metric prefix, importing module) pair; hook adds counts."""
        tracer = self
        count_errors = key[0].startswith("quadrature.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._thread()
            on_main = threading.current_thread() is tracer._main
            root = on_main and not stack
            frame = _Frame(root)
            stack.append(frame)
            if root:
                tracer._main_root = frame
            rec = table[key]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._error_type as exc:
                # counted once, at the innermost quadrature span it crossed
                if count_errors and not getattr(exc, "_traced", False):
                    exc._traced = True
                    rec["errors"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    parent = stack[-1]
                    if parent.intervals is None:
                        parent.covered += dur
                    else:
                        parent.intervals.append((t0, t1))
                elif not on_main and tracer._main_root is not None:
                    with tracer._lock:
                        tracer._main_root.intervals.append((t0, t1))
                if root:
                    tracer._main_root = None
                    covered = _union_length(frame.intervals)
                else:
                    covered = frame.covered
                rec["calls"] += 1
                rec["total_s"] += dur
                rec["self_s"] += dur - covered
            if hook is not None:
                hook(rec, args, result)
            return result

        return traced

    def install(self, modules):
        """Rebind every SPEC name; modules maps short names to modules."""
        for importers, attr, prefix, hook in SPEC:
            for mod_name in importers:
                mod = modules[mod_name]
                fn = getattr(mod, attr)  # AttributeError: SPEC is stale
                setattr(mod, attr, self.wrap(fn, (prefix, mod_name), hook))

    def summary(self):
        """Stats per "prefix@module", merged over threads, JSON-ready."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for (prefix, mod), rec in table.items():
                out = merged.setdefault(f"{prefix}@{mod}", {})
                for stat, val in rec.items():
                    if stat == "l_max":
                        out[stat] = max(out.get(stat, 0), val)
                    else:
                        out[stat] = out.get(stat, 0) + val
        return merged


MODULES = ("special_functions", "quadrature", "potentials", "eikonal", "born",
           "partial_wave", "cross_sections", "runner")

# Per-layer metrics: prefix -> stats summed over every importing module.
FIELDS = {
    "special_functions.bessel_j0": ("calls", "elements", "self_s"),
    "special_functions.bessel_k0": ("elements", "self_s"),
    "special_functions.spherical_bessel": ("calls", "self_s"),
    "special_functions.legendre_p_row": ("self_s",),
    "special_functions.j0_zeros": ("self_s",),
    "quadrature.hankel0": ("calls", "evals", "self_s"),
    "quadrature.integrate_semi_infinite": ("calls", "evals", "self_s"),
    "quadrature.integrate_adaptive": ("calls", "evals", "self_s"),
    "potentials.evaluate": ("calls", "elements", "self_s"),
    "potentials.fourier3d": ("self_s",),
    "eikonal.chi": ("calls", "total_s"),
    "eikonal.chi_closed": ("calls", "self_s"),
    "eikonal.amplitude_eikonal": ("total_s",),
    "born.born_resummed_amplitude": ("total_s",),
    "partial_wave.phase_shifts": ("total_s",),
    "partial_wave.effective_radius": ("calls", "total_s"),
    "partial_wave.amplitude_partial_wave": ("total_s",),
    "cross_sections.table_from_amplitudes": ("total_s",),
    "cross_sections.paper_formula_checks": ("total_s",),
    "config.parse_config": ("total_s",),
    "runner.run_scan": ("self_s",),
}


def layer_metrics(summary):
    """Per-layer metric values from summary(), except the two that need the
    untraced repetitions (runner.task_s.*, trace.overhead_s)."""

    def stat(prefix, name, module=None):
        return sum(rec.get(name, 0) for key, rec in summary.items()
                   if key.split("@")[0] == prefix
                   and module in (None, key.split("@")[1]))

    out = {f"{prefix}.{name}": stat(prefix, name)
           for prefix, names in FIELDS.items() for name in names}
    out["quadrature.errors"] = sum(
        stat(p, "errors") for p in FIELDS if p.startswith("quadrature."))
    out["born.profile_integrals"] = (
        stat("quadrature.integrate_semi_infinite", "calls", "born")
        + stat("quadrature.integrate_adaptive", "calls", "born"))
    out["partial_wave.sweeps"] = stat("potentials.evaluate", "sweeps")
    out["partial_wave.radial_steps"] = stat("potentials.evaluate",
                                            "radial_steps")
    out["partial_wave.l_max"] = stat("partial_wave.phase_shifts", "l_max")
    return out
