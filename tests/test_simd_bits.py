"""A run's artifacts do not depend on the SIMD level numpy runs at.

numpy picks its exp, expm1, log, log1p and arccosh kernels by the CPU's
SIMD level, and the kernels differ in the last bit. On an AVX-512 host,
NPY_DISABLE_CPU_FEATURES below makes numpy run its AVX2 kernels: each
shipped config and the benchmark's seed-11 table are run with and without
it, in fresh interpreters, and every artifact but manifest.txt must have
the same bytes. The variable's names follow numpy's feature groups and may
change with its version, so the test first checks that the variable moves
the bits of np.exp on a fixed vector; where it does not (a host without
AVX-512, or another numpy), there is nothing to compare and the test is
skipped.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("name", [
    "yukawa_flagship", "energy_scan", "tabulated", "gauss_weak",
])
def test_artifacts_keep_their_bytes_under_avx2_kernels(avx2_differs,
                                                       tmp_path, name):
    config = (_tabulated(tmp_path / "in") if name == "tabulated"
              else ROOT / "configs" / f"{name}.ini")
    plain = _artifacts(config, tmp_path / "plain")
    avx2 = _artifacts(config, tmp_path / "avx2", AVX2_ONLY)
    assert plain.keys() == avx2.keys()
    assert [n for n in plain if plain[n] != avx2[n]] == []
