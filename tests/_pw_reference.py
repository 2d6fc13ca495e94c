"""Reference amplitudes for tests/test_partial_wave.py's independent grading
of the partial-wave oracle, and the script that writes them.

Each case is graded against _oracles.extrapolated, the unsplit sweep kept
in the tests: R3 at a sixteenth of phase_shifts' default step, with the
wave counts of WAVES and an explicit r_max where |2mV| <= 1e-16 k^2, so
it shares neither the split, the first-order tail nor the cut of the
waves. That costs minutes a case, so its phase shifts are stored in
data/partial_wave_reference.json; amplitude sums them on 181 angles,
Born-subtracted, so that the waves past the stored ones add their Born
terms (closed forms, graded in the tests against mpmath and quadrature).

    PYTHONPATH=src python tests/_pw_reference.py

rewrites the file.
"""

import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import _oracles  # noqa: E402
from scatterlab.eikonal import Kinematics  # noqa: E402
from scatterlab.partial_wave import (PhaseShiftSet,  # noqa: E402
                                     _born_phases, amplitude_partial_wave,
                                     phase_shifts)
from scatterlab.potentials import Gauss, Yukawa, effective_radius  # noqa: E402

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "partial_wave_reference.json")
MODELS = {"Yukawa(0.5, 1)": Yukawa(0.5, 1.0),
          "Yukawa(-2, 0.5)": Yukawa(-2.0, 0.5),
          "Gauss(0.5, 1)": Gauss(0.5, 1.0),
          "Gauss(-3, 2)": Gauss(-3.0, 2.0),
          "Gauss(0.5, 0.05)": Gauss(0.5, 0.05)}
KS = (1.0, 5.0, 10.0, 30.0)
THETA = np.linspace(0.0, math.pi, 181)
# the waves of each case's reference, l_max + 301 for the l_max of the plain
# cut at |delta| < 1e-8, as the stored arrays hold them; pinned, so that
# regenerating after a change to the cut keeps them
WAVES = {
    "Gauss(-3, 2) k=1": 314,
    "Gauss(-3, 2) k=10": 334,
    "Gauss(-3, 2) k=30": 396,
    "Gauss(-3, 2) k=5": 323,
    "Gauss(0.5, 0.05) k=1": 326,
    "Gauss(0.5, 0.05) k=10": 489,
    "Gauss(0.5, 0.05) k=30": 843,
    "Gauss(0.5, 0.05) k=5": 400,
    "Gauss(0.5, 1) k=1": 315,
    "Gauss(0.5, 1) k=10": 344,
    "Gauss(0.5, 1) k=30": 425,
    "Gauss(0.5, 1) k=5": 328,
    "Yukawa(-2, 0.5) k=1": 351,
    "Yukawa(-2, 0.5) k=10": 627,
    "Yukawa(-2, 0.5) k=30": 1177,
    "Yukawa(-2, 0.5) k=5": 477,
    "Yukawa(0.5, 1) k=1": 323,
    "Yukawa(0.5, 1) k=10": 445,
    "Yukawa(0.5, 1) k=30": 712,
    "Yukawa(0.5, 1) k=5": 386}


def reference(p, k, fraction, waves):
    """The reference phase shifts of the first waves waves: extrapolated at
    dr fraction, dr phase_shifts' default step, matched at the first point
    of the 4 dr fraction grid past the decay radius."""
    kin = Kinematics(mass=1.0, k=k)
    dr = phase_shifts(p, kin).dr * fraction
    step = 4.0 * dr
    r_max = math.ceil(_oracles.auto_r_max(p, kin, effective_radius(p),
                                          1e-16) / step) * step
    return _oracles.extrapolated(p, kin, np.arange(waves), r_max, dr)[0]


def amplitude(delta, k, p):
    """The amplitude of p's phase shifts delta at wavenumber k over THETA,
    Born-subtracted as phase_shifts' sets are: the waves past delta's add
    their Born terms, not 0."""
    born = _born_phases(p, Kinematics(mass=1.0, k=k), delta.size - 1)
    ps = PhaseShiftSet(k=k, l_max=delta.size - 1, delta=delta,
                       error=np.zeros(delta.size), r_max=1.0, dr=1.0,
                       potential=p, born=born)
    return amplitude_partial_wave(ps, THETA).value


def main(names=None):
    data = {}
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    for name, p in MODELS.items():
        for k in KS:
            key = f"{name} k={k:g}"
            if names and key not in names:
                continue
            data[key] = {
                "delta": reference(p, k, 1.0 / 16.0, WAVES[key]).tolist(),
                "delta_8": reference(p, k, 1.0 / 8.0, WAVES[key]).tolist()}
            print(key, flush=True)
            with open(PATH, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=0, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
