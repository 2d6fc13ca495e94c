"""Self-test of the benchmark: generator, gates, tracer and metric output.

    python3 perfbench/selftest.py

Runs every workload on reduced grids in both modes and checks that each
metric BENCHMARK.json names is printed, finite and in its declared unit;
checks the tracer's self-time and error accounting on synthetic functions;
and checks that the benchmark refuses to run without the package. Exits 1
on the first failed check. Takes a few minutes on 2 cores.
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(HERE, "work", "selftest")


def check(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Oops(Exception):
    pass


def test_tracer():
    # leaves sleep, so the two worker-thread leaves overlap in time
    ns = types.SimpleNamespace()
    ns.leaf = lambda: time.sleep(0.05)

    def inner():
        ns.leaf()
        _busy(0.01)

    def failing():
        raise _Oops("boom")

    def outer():
        _busy(0.01)
        ns.inner()
        with contextlib.suppress(_Oops):
            ns.failing()
        with contextlib.suppress(_Oops):
            ns.failing()
        workers = [threading.Thread(target=ns.leaf) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        check(not any(w.is_alive() for w in workers), "worker threads end")

    tr = tracer.Tracer(_Oops)
    ns.inner = tr.wrap(inner, ("t.inner", "ns"))
    ns.leaf = tr.wrap(ns.leaf, ("t.leaf", "ns"))
    ns.failing = tr.wrap(failing, ("quadrature.failing", "ns"))
    ns.outer = tr.wrap(outer, ("t.outer", "ns"))
    ns.outer()
    s = tr.summary()
    leaf, inner_s, outer_s = (s["t.leaf@ns"], s["t.inner@ns"],
                              s["t.outer@ns"])
    check(leaf["calls"] == 3, "leaf called on main and two worker threads")
    check(abs(inner_s["self_s"] - (inner_s["total_s"] - 0.05)) < 0.015,
          "self time excludes a same-thread child")
    # summed, the worker leaves would cover 0.1 s; their union is 0.05 s
    expect = outer_s["total_s"] - inner_s["total_s"] - 0.05
    check(abs(outer_s["self_s"] - expect) < 0.02,
          "root self time subtracts the union of cross-thread children")
    check(s["quadrature.failing@ns"]["errors"] == 2,
          "each ScatterError is counted once")


def test_generator():
    a = os.path.join(SCRATCH, "gen-a")
    b = os.path.join(SCRATCH, "gen-b")
    c = os.path.join(SCRATCH, "gen-c")
    for name in workloads.WHY:
        texts = []
        for d, seed in ((a, 7), (b, 7), (c, 8)):
            path = workloads.generate(name, seed, os.path.join(d, name))
            with open(path, encoding="ascii") as fh:
                texts.append(fh.read())
        check(texts[0] == texts[1], f"{name}: same seed, same config")
        check(texts[0] != texts[2] or name == "tabulated",
              f"{name}: another seed moves the config")
    tables = [os.path.join(d, "tabulated", "table.csv") for d in (a, b, c)]
    blobs = []
    for path in tables:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    check(blobs[0] == blobs[1] != blobs[2],
          "tabulated: the seed sets the table")


def test_gates_fail():
    rows = [[t, 0.0, 1.0, 0.0, 1.0] for t in (0.0, 0.1, 0.2)]
    eik = [[t, q, re, im, 1.03 * ds] for t, q, re, im, ds in rows]
    tables = {("eikonal", 10.0): np.array(eik),
              ("partial_wave", 10.0): np.array(rows)}
    result = {"verdicts": [{"name": "closed_form_amplitude_yukawa",
                            "verdict": "CONSISTENT", "ratio": None}]}
    got = workloads.gates("flagship", result, tables)
    check(not any(ok for _, ok, _ in got),
          "flagship gates reject a 3% gap and a wrong verdict")
    result = {"outcomes": [{"total_integrated": 1.002,
                            "total_optical": 1.0}]}
    check(not workloads.gates("energy_scan", result, {})[0][1],
          "energy_scan gate rejects a 2e-3 optical-theorem gap")


def _metrics_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_counts_repeat(spec):
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    seen = []
    for _ in range(2):
        _, result, _ = _metrics_of(["--workload", "flagship", "--seed", "5",
                                    "--seconds", "0", "--trace", "1",
                                    "--reduced"])
        seen.append({k: result["metrics"][k]["value"] for k in counts})
    check(seen[0] == seen[1], "per-layer counts repeat across runs of a seed")


def test_workloads(spec):
    for name in workloads.WHY:
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            code, result, lines = _metrics_of(
                ["--workload", name, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--reduced"])
            check(code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} trace {trace}: gates pass "
                  f"({result['attempted']} operations)")
            got = result["metrics"]
            check(set(got) == {m["name"] for m in listed},
                  f"{name} trace {trace}: exactly the listed metrics")
            for m in listed:
                v = got[m["name"]]
                ok = (isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      and v["unit"] == m["unit"]
                      and any(line.startswith(f"{m['name']} ")
                              and line.endswith(f" {m['unit']}")
                              for line in lines))
                if not ok:
                    check(False, f"{name} trace {trace}: {m['name']} = {v}")
            if trace == 0:
                check(all(got[k]["value"] > 0 for k in got),
                      f"{name}: end-to-end metrics are nonzero")
            print(f"     {name} trace {trace}: {len(got)} metrics emitted")


def test_bare_checkout():
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagship",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "without src/ the benchmark fails and prints no result")


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check(all(workloads.WHY.get(w["name"]) == w["why"]
              for w in spec["workloads"]),
          "BENCHMARK.json gives each workload's reason")
    test_tracer()
    test_generator()
    test_gates_fail()
    test_bare_checkout()
    test_workloads(spec)
    test_counts_repeat(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
