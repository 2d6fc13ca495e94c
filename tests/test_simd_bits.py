"""A run's artifacts do not depend on the SIMD level numpy runs at.

numpy picks its exp, expm1, log, log1p and arccosh kernels by the CPU's
SIMD level, and the kernels differ in the last bit. On an AVX-512 host,
NPY_DISABLE_CPU_FEATURES below makes numpy run its AVX2 kernels: each
shipped config, the benchmark's seed-11 table, the suite's 300-sample
table and a linear table starting at r > 0 are run with and without it,
in fresh interpreters, and every artifact but manifest.txt must have the
same bytes; so must the reference Gauss cross section of paper_forms. The
variable's names follow numpy's feature groups and may change with its
version, so the test first checks that the variable moves the bits of
np.exp on a fixed vector; where it does not (a host without AVX-512, or
another numpy), there is nothing to compare and the test is skipped.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatterlab

ROOT = Path(__file__).resolve().parents[1]
AVX2_ONLY = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
PROBE = ("import numpy as np; print(np.exp(np.linspace(-700.0, 700.0, "
         "100003)).tobytes().hex())")


def _python(args, extra_env=None):
    env = dict(os.environ, **(extra_env or {}),
               PYTHONPATH=str(Path(scatterlab.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def avx2_differs():
    plain, avx2 = _python(["-c", PROBE]), _python(["-c", PROBE], AVX2_ONLY)
    if avx2.returncode != 0 or plain.stdout == avx2.stdout:
        pytest.skip("NPY_DISABLE_CPU_FEATURES leaves numpy's exp bits as "
                    "they are on this host")


def _tabulated(directory):
    spec = importlib.util.spec_from_file_location(
        "_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("tabulated", 11, str(directory))


def _artifacts(config, out, extra_env=None):
    proc = _python(["-m", "scatterlab", "run", str(config), "--out",
                    str(out), "--quiet"], extra_env)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.txt"}


def _table_config(directory, r, v, interpolation):
    """A config running the table (r, v) through every route that reads
    its z-profile or its transform."""
    directory.mkdir()
    (directory / "table.csv").write_text("".join(
        f"{a!r}, {b!r}\n" for a, b in zip(r.tolist(), v.tolist())))
    path = directory / "table.ini"
    path.write_text("\n".join([
        "[potential]", "model = tabulated", "file = table.csv",
        f"interpolation = {interpolation}", "", "[kinematics]",
        "mass = 1.0", "k = 3.0", "", "[theta_grid]", "min = 0.0",
        "max = 0.6", "count = 13", "", "[run]",
        "sources = eikonal, born_resummed, born1", ""]))
    return path


def _config(name, directory):
    if name == "tabulated":
        return _tabulated(directory)
    if name == "table_300":
        # tests/test_quadrature.py's _table()
        r = np.linspace(0.0, 8.0, 300)
        v = 0.5 * np.exp(-r) / np.sqrt(r * r + 0.25)
        v[-1] = 0.0
        return _table_config(directory, r, v, "cubic")
    if name == "linear_from_r0":
        # few knots: hankel0 bisects around each kink of a linear table's w
        r = np.linspace(0.5, 6.0, 16)
        v = (1.0 - r) * np.exp(-0.5 * r * r)
        v[-1] = 0.0
        return _table_config(directory, r, v, "linear")
    return ROOT / "configs" / f"{name}.ini"


@pytest.mark.parametrize("name", [
    "yukawa_flagship", "energy_scan", "tabulated", "gauss_weak",
    "table_300", "linear_from_r0",
])
def test_artifacts_keep_their_bytes_under_avx2_kernels(avx2_differs,
                                                       tmp_path, name):
    config = _config(name, tmp_path / "in")
    plain = _artifacts(config, tmp_path / "plain")
    avx2 = _artifacts(config, tmp_path / "avx2", AVX2_ONLY)
    assert plain.keys() == avx2.keys()
    assert [n for n in plain if plain[n] != avx2[n]] == []


GAUSS_DSIGMA = (
    "import hashlib, numpy as np; "
    "from scatterlab import paper_forms; "
    "from scatterlab.eikonal import Kinematics, momentum_transfer; "
    "from scatterlab.potentials import Gauss; "
    "kin = Kinematics(mass=1.0, k=2.0); "
    "theta = np.linspace(0.0, 3.14, 200001); "
    "d = paper_forms.dsigma(Gauss(0.01, 1.0), kin, theta, "
    "momentum_transfer(2.0, theta)); "
    "print(hashlib.sha256(d.tobytes()).hexdigest())")


def test_paper_gauss_dsigma_keeps_its_bits_under_avx2_kernels(avx2_differs):
    # the reference_form column of report.txt and the Gauss verdict's
    # oracle; the form once took numpy's exp
    plain = _python(["-c", GAUSS_DSIGMA])
    avx2 = _python(["-c", GAUSS_DSIGMA], AVX2_ONLY)
    assert plain.returncode == avx2.returncode == 0, plain.stderr
    assert plain.stdout == avx2.stdout
