"""Seeded workload generator and the correctness gates of each workload.

Every workload is one INI config (plus, for ``tabulated``, one radial table)
written into a directory the caller names. The seed scales the coupling by
up to +-5%; everything else is fixed, so the seed moves the inputs without
moving the shape of the work. The program under test only ever sees the
generated files.

The range stays at the shipped configs' values. Jittering it as well hits
a hankel0 defect: with Yukawa mu near 1.040 at k = 10, the eikonal amplitude
at theta = 0.0125 raises ConvergenceError ("tail beyond b = 60 still
contributes ~3.6e-22"), because the tail check compares the summed block
quadrature error, not the tail, against the tolerance.
"""

import math
import os
import random

import numpy as np

# energy_scan is not in BENCHMARK.json: on the host this was tuned on its
# run_scan time spread 27% between runs even after calibration (its Legendre
# sums and Numerov sweeps on mid-size arrays react to host load unlike the
# kernel), so it is kept for `run.py --workload energy_scan --trace 1` by
# hand. Its layers are timed on flagship, which also runs 2 sweeps.
WHY = {
    "flagship": "the paper's headline cross-check: J0/K0 series inside "
                "hankel0 plus 2 Numerov sweeps, no nested quadrature",
    "energy_scan": "k up to 30: Numerov sweeps, repeated l_max extensions "
                   "and Legendre sums dominate; hankel0 and J0 stay idle",
    "gauss_weak": "born_resummed recomputes the z-profile by semi-infinite "
                  "quadrature at every Hankel node; no Numerov",
    "tabulated": "the only finite-interval z-profile path and the only "
                 "spline evaluation in potentials.evaluate",
}


def _jitter(rng):
    return rng.uniform(0.95, 1.05)


def _config(potential, k, theta_max, count, sources):
    return "\n".join([
        "[potential]", *potential, "",
        "[kinematics]", "mass = 1.0", f"k = {k}", "",
        "[theta_grid]", "min = 0.0", f"max = {theta_max}",
        f"count = {count}", "",
        "[run]", f"sources = {', '.join(sources)}", "threads = 1",
        "",
    ])


def _table(rng, path, samples):
    # soft-core Yukawa shape g exp(-mu r)/sqrt(r^2 + a^2), cut to zero at
    # the last sample as TabulatedRadial requires
    g, mu, a = 0.5 * _jitter(rng), 1.0, 0.5
    r = np.linspace(0.0, 30.0, samples)
    v = g * np.exp(-mu * r) / np.sqrt(r * r + a * a)
    v[-1] = 0.0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("# r, V\n")
        for ri, vi in zip(r, v):
            fh.write(f"{float(ri)!r}, {float(vi)!r}\n")


def generate(name, seed, directory, reduced=False):
    """Write the workload's inputs into directory; return the config path.

    reduced shrinks the angle grids and the k list (not the table) so the
    self-test runs every workload in seconds.
    """
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WHY)}")
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(directory, exist_ok=True)
    if name == "flagship":
        text = _config(["model = yukawa", f"g = {0.5 * _jitter(rng)!r}",
                        "mu = 1.0"],
                       "10.0", 0.6, 9 if reduced else 49,
                       ("eikonal", "born1", "partial_wave", "paper_closed"))
    elif name == "energy_scan":
        # One thread: with two, the GIL hand-offs between cores made run_scan
        # 1.4x slower and noisier still on the same host.
        text = _config(["model = yukawa", f"g = {0.5 * _jitter(rng)!r}",
                        "mu = 1.0"],
                       "1.0, 3.0" if reduced else "1.0, 5.0, 10.0, 20.0, 30.0",
                       3.1415926, 241 if reduced else 961,
                       ("partial_wave",))
    elif name == "gauss_weak":
        text = _config(["model = gauss", f"g = {0.01 * _jitter(rng)!r}",
                        "alpha = 1.0"],
                       "2.0", 0.2, 5 if reduced else 33,
                       ("eikonal", "born1", "born_resummed", "paper_closed"))
    else:
        # the sample count sets the cost: a 600-sample table runs 5-10x
        # slower, its spline knots forcing extra quadrature refinement
        _table(rng, os.path.join(directory, "table.csv"), 3000)
        text = _config(["model = tabulated", "file = table.csv",
                        "interpolation = cubic"],
                       "5.0", 0.2, 2 if reduced else 6,
                       ("eikonal", "born_resummed", "born1"))
    path = os.path.join(directory, "workload.ini")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# Gates. Each takes the parsed outputs of one repetition and returns a list of
# (gate name, passed, detail); every entry is one operation in failed_frac.
# ---------------------------------------------------------------------------


def read_csv(path):
    """(n, 5) array of theta, q, re_f, im_f, dsigma from a source CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _eikonal_tracks_oracle(tables):
    eik, pw = tables[("eikonal", 10.0)], tables[("partial_wave", 10.0)]
    fwd = eik[:, 0] <= 0.2
    dev = np.abs(eik[fwd, 4] - pw[fwd, 4]) / np.abs(pw[fwd, 4])
    worst = float(np.max(dev))
    return ("eikonal_within_2pct_of_partial_wave", worst <= 2e-2,
            f"max rel dev {worst:.3e} for theta <= 0.2")


def _verdict(result, name, expected):
    got = [v["verdict"] for v in result["verdicts"] if v["name"] == name]
    ok = bool(got) and all(v == expected for v in got)
    return (f"{name}_is_{expected}", ok, f"verdicts {got}")


def _optical_theorem(result):
    worst, ok = 0.0, bool(result["outcomes"])
    for o in result["outcomes"]:
        ti, to = o["total_integrated"], o["total_optical"]
        if ti is None or to is None or not (math.isfinite(ti)
                                            and math.isfinite(to)):
            ok = False
            continue
        worst = max(worst, abs(ti - to) / abs(to))
    return ("total_integrated_within_1e-3_of_total_optical",
            ok and worst <= 1e-3, f"max rel dev {worst:.3e}")


def _resummed_matches_eikonal(tables, k):
    eik, res = tables[("eikonal", k)], tables[("born_resummed", k)]
    fwd = eik[:, 0] <= 0.1
    f_e = eik[fwd, 2] + 1j * eik[fwd, 3]
    f_r = res[fwd, 2] + 1j * res[fwd, 3]
    worst = float(np.max(np.abs(f_r - f_e) / np.abs(f_e)))
    return ("born_resummed_within_1e-6_of_eikonal", worst <= 1e-6,
            f"max rel dev {worst:.3e} for theta <= 0.1")


def _gauss_factor_two(result):
    ratios = [v["ratio"] for v in result["verdicts"]
              if v["name"] == "closed_form_total_gauss"]
    ok = bool(ratios) and all(abs(r - 2.0) <= 1e-6 for r in ratios)
    return ("gauss_total_ratio_is_2", ok, f"ratios {ratios}")


def gates(name, result, tables):
    """Workload-specific gates on one repetition's manifest and CSV tables."""
    if name == "flagship":
        return [_eikonal_tracks_oracle(tables),
                _verdict(result, "closed_form_amplitude_yukawa",
                         "SUSPECTED_TYPO")]
    if name == "energy_scan":
        return [_optical_theorem(result)]
    if name == "gauss_weak":
        return [_resummed_matches_eikonal(tables, 2.0),
                _gauss_factor_two(result)]
    return [_resummed_matches_eikonal(tables, 5.0)]
