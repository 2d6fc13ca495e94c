"""Untimed accuracy grading against a tight-tolerance reference.

The CSVs carry amplitudes but not the error bound each source reports, so
the first repetition of a run taps the runner's amplitude calls (rep.py)
and hands over, per graded (source, k) task, the values, the bounds and the
partial-wave radial step. The reference is the same input at quadrature
tolerances 100x tighter with a 10x subdivision budget, and for
partial_wave half the radial step. Its matching radius is chosen afresh on
the finer grid: phase_shifts rounds its automatic r_max down onto the grid,
and rejects that radius when it is passed back explicitly.

eikonal and born_resummed are the same integral (w Lambda(chi) equals
i hbar v (e^{i chi} - 1)), so both are graded against one tight eikonal
amplitude; with an analytic potential that reference uses the closed-form
phase, which does not share born_resummed's z-profile quadrature.
"""

import dataclasses
import json

import numpy as np

# Relative deviations are measured against max(|f_ref|, _FLOOR * max|f_ref|)
# so rows near a diffraction zero do not dominate; a deviation below one
# unit in the last place counts as one.
_FLOOR = 1e-3
_EPS = np.finfo(float).eps


def _tight(settings):
    return dataclasses.replace(settings, rel_tol=settings.rel_tol / 100.0,
                               abs_tol=settings.abs_tol / 100.0,
                               max_subdivisions=10 * settings.max_subdivisions)


def tapped(tap):
    """{(source, k): (theta, value, error bound)} from rep.py's tap, rows
    sorted by theta."""
    rows = {}
    for call in tap["amplitudes"]:
        rows.setdefault((call["source"], call["k"]), []).extend(
            zip(call["theta"], call["re"], call["im"], call["err"]))
    out = {}
    for key, r in rows.items():
        theta, re, im, err = (np.array(c) for c in zip(*sorted(r)))
        value = re.astype(complex)
        value.imag = im
        out[key] = (theta, value, err)
    return out


def references(sl, cfg, tap):
    """{(source, k): tight reference amplitude over the tapped angles}."""
    steps = {g["k"]: g["dr"] for g in tap["grids"]}
    tight = _tight(cfg.quadrature)
    pw = cfg.partial_wave
    eikonal = {}
    out = {}
    for (source, k), (theta, _, _) in tapped(tap).items():
        kin = cfg.kinematics(k)
        if source == "partial_wave":
            fine = sl.phase_shifts(cfg.potential, kin, l_max=pw.l_max,
                                   r_max=pw.r_max, dr=0.5 * steps[k])
            out[(source, k)] = np.asarray(
                sl.amplitude_partial_wave(fine, theta).value)
            continue
        if k not in eikonal:
            eikonal[k] = np.array([
                sl.amplitude_eikonal(cfg.potential, kin, float(t),
                                     settings=tight).value for t in theta])
        out[(source, k)] = eikonal[k]
    return out


def grade(tap, refs, tables):
    """Per graded source: worst relative deviation from the reference, rows
    whose reported bound covers their deviation, rows graded, and whether
    the tapped values equal the CSV's. tables maps (source, k) to the CSV
    rows."""
    out = {}
    for key, (theta, value, err) in tapped(tap).items():
        ref = refs[key]
        g = out.setdefault(key[0], {"max_rel_dev": _EPS, "covered": 0,
                                    "rows": 0, "matches_csv": True})
        csv = tables[key]
        g["matches_csv"] &= bool(np.array_equal(csv[:, 0], theta)
                                 and np.array_equal(csv[:, 2], value.real)
                                 and np.array_equal(csv[:, 3], value.imag))
        dev = np.abs(value - ref)
        scale = np.maximum(np.abs(ref), _FLOOR * np.max(np.abs(ref)))
        g["max_rel_dev"] = max(g["max_rel_dev"], float(np.max(dev / scale)))
        g["covered"] += int(np.count_nonzero(err >= dev))
        g["rows"] += value.size
    return out


def dump(refs, path):
    """Write references() output as JSON; floats round-trip exactly."""
    rows = [[source, k, [float(x) for x in r.real],
             [float(x) for x in r.imag]] for (source, k), r in refs.items()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def load(path):
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    out = {}
    for source, k, re, im in rows:
        ref = np.array(re, dtype=complex)
        ref.imag = im
        out[(source, k)] = ref
    return out
