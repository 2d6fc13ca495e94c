"""One repetition in a fresh interpreter: import, parse, run_scan, report.

Usage: python3 -I rep.py ROOT CONFIG OUT_DIR RESULT_JSON MODE

ROOT is the repository checkout whose src/ is imported. MODE is "plain",
"tap" (also record what the runner's amplitude calls return, for grading)
or "trace" (time every layer, see tracer.py). The result file records the
monotonic clock at the end of set-up (the parent started its clock just
before spawning this process), run_scan's wall time, the calibration
kernel's time just before and just after run_scan, what the manifest says
about each task, and the tap or the tracer's summary.
"""

import json
import math
import os
import sys
import time

import numpy as np

# Median seconds of calibrate() over 100 back-to-back calls on the machine
# the baseline was recorded on (2-core Xeon VM, Python 3.11, numpy 2.4).
CAL_NOMINAL_S = 0.24


def calibrate():
    """Wall seconds for a fixed kernel shaped like scatterlab's hot loops:
    15-node numpy batches and short Python float recurrences.

    The host this benchmark was built on runs a process at speeds that
    differ by up to 2x from one second to the next, so run times are scaled
    by CAL_NOMINAL_S / calibrate() measured in the same process.
    """
    x = np.linspace(0.1, 7.9, 15)
    w = np.linspace(0.01, 0.2, 15)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(10000):
        y = np.exp(-0.25 * x * x) * x
        acc += float(np.sum(w * y)) + float(np.sum(w * np.abs(y - 0.1)))
        term, terms = 1.0, [1.0]
        for n in range(1, 25):
            term *= -1.3 / (n * n)
            terms.append(term)
        acc += math.fsum(terms)
    return time.perf_counter() - t0


def _tap(runner):
    """Rebind the runner's amplitude entry points to pass-throughs that keep
    each returned Amplitude and PhaseShiftSet. No clock is read and nothing
    is converted during the run: one list append per call."""
    kept, grids = [], []

    def keep(fn, source, k_of):
        def tapped(*args, **kwargs):
            a = fn(*args, **kwargs)
            kept.append((source, k_of(args), a))
            return a
        return tapped

    def phase_shifts(*args, **kwargs):
        ps = fn_phase_shifts(*args, **kwargs)
        grids.append(ps)
        return ps

    fn_phase_shifts = runner.phase_shifts
    runner.phase_shifts = phase_shifts
    runner.amplitude_eikonal = keep(runner.amplitude_eikonal, "eikonal",
                                    lambda args: args[1].k)
    runner.born_resummed_amplitude = keep(runner.born_resummed_amplitude,
                                          "born_resummed",
                                          lambda args: args[1].k)
    runner.amplitude_partial_wave = keep(runner.amplitude_partial_wave,
                                         "partial_wave",
                                         lambda args: args[0].k)
    return kept, grids


def _tap_json(kept, grids):
    """What _tap kept, as JSON-ready values, bounds and grids."""
    amplitudes = []
    for source, k, a in kept:
        theta = np.atleast_1d(a.theta)
        value = np.atleast_1d(a.value)
        amplitudes.append({
            "source": source, "k": k, "theta": theta.tolist(),
            "re": value.real.tolist(), "im": value.imag.tolist(),
            "err": np.broadcast_to(a.error_estimate, theta.shape).tolist()})
    return {"amplitudes": amplitudes,
            "grids": [{"k": ps.k, "dr": ps.dr} for ps in grids]}


def main(root, config, out_dir, result_path, mode):
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = tap = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        from scatterlab import (born, config as config_mod, cross_sections,
                                eikonal, errors, partial_wave, potentials,
                                quadrature, runner)
        tracer = tracing.Tracer(errors.ScatterError)
        tracer.install({m.__name__.rsplit(".", 1)[1]: m for m in (
            born, config_mod, cross_sections, eikonal, partial_wave,
            potentials, quadrature, runner)})
    from scatterlab import config as config_mod, runner
    if mode == "tap":
        tap = _tap(runner)

    with open(config, encoding="utf-8") as fh:
        text = fh.read()
    cfg = config_mod.parse_config(text, base_dir=os.path.dirname(config))
    setup_end = time.monotonic()
    cal_before = calibrate()
    start = time.monotonic()
    manifest = runner.run_scan(cfg, out_dir=out_dir)
    run_s = time.monotonic() - start
    cal_after = calibrate()

    def num(x):
        return x if x == x else None  # nan is not JSON

    result = {
        "setup_end": setup_end,
        "run_s": run_s,
        "cal": [cal_before, cal_after],
        "outcomes": [{"source": o.source, "k": o.k, "csv_file": o.csv_file,
                      "error": o.error, "wall_clock": o.wall_clock,
                      "total_integrated": num(o.total_integrated),
                      "total_optical": num(o.total_optical)}
                     for o in manifest.outcomes],
        "verdicts": [{"k": k, "name": c.name, "verdict": c.verdict,
                      "ratio": num(c.ratio)} for k, c in manifest.verdicts],
        "warnings": list(manifest.warnings),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    if tap is not None:
        result["tap"] = _tap_json(*tap)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:6])
