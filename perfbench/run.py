"""scatterlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the src/ of the checkout this file sits in.
The load is a closed loop with one client: repetitions run one at a time,
each a fresh interpreter doing one run_scan of the generated config, until
S seconds have passed and at least MIN_REPS are done. A fresh process per
repetition is what a `scatter run` user pays, cold j0_zeros cache included.

--trace 0 reports the end-to-end metrics: median set-up time, median
run_scan time, median peak RSS, and the accuracy of the graded sources
against an untimed tight-tolerance reference. Both times are scaled to a
nominal machine speed by a calibration kernel timed in the same process
(rep.calibrate); the unscaled medians are printed as well. --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of tracer.py. Gates are checked in both modes. The last line of
stdout is one JSON object; the exit code is 1 if a gate or task failed.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import rep  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 4
UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
         "accuracy_digits": "digits", "error_cover": "ratio"}


def _rep(config, out_dir, result_path, mode):
    """Run one repetition; return its result dict plus setup_s and RSS."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(HERE, "rep.py"), ROOT, config,
         out_dir, result_path, mode])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_end"] - start
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux: KiB
    return result


def _csv_bytes(out_dir):
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def _tables(result, out_dir):
    return {(o["source"], o["k"]): workloads.read_csv(
                os.path.join(out_dir, o["csv_file"]))
            for o in result["outcomes"] if o["csv_file"]}


class Ledger:
    """Attempted and failed operations, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def tasks(self, result):
        for o in result["outcomes"]:
            self.check(f"task {o['source']} k={o['k']:g}", o["error"] is None,
                       o["error"] or "")


def _repeat(work, config, seconds, modes, min_rounds):
    """Rounds of repetitions, one per entry of modes, until seconds have
    passed and at least min_rounds rounds are done. The first repetition
    taps the amplitudes unless it is traced."""
    reps, t0, i = [], time.monotonic(), 0
    while (i < min_rounds * len(modes)
           or time.monotonic() - t0 < seconds
           or i % len(modes)):
        mode = modes[i % len(modes)]
        if i == 0 and mode == "plain":
            mode = "tap"
        out_dir = os.path.join(work, f"out{i}")
        result = _rep(config, out_dir, os.path.join(work, f"rep{i}.json"),
                      mode)
        result["out_dir"] = out_dir
        result["csv"] = _csv_bytes(out_dir)
        result["traced"] = mode == "trace"
        reps.append(result)
        i += 1
    return reps


def _common_checks(ledger, name, reps):
    for r in reps:
        ledger.tasks(r)
    first = reps[0]
    if all(o["error"] is None for o in first["outcomes"]):
        for gate, ok, detail in workloads.gates(
                name, first, _tables(first, first["out_dir"])):
            ledger.check(gate, ok, detail)
    ledger.check("csv_bytes_identical_across_repetitions",
                 bool(first["csv"])
                 and all(r["csv"] == first["csv"] for r in reps),
                 f"{len(reps)} repetitions")


def _digest(input_dir):
    """sha256 over the workload's input files, the package and the
    reference code."""
    paths = sorted(glob.glob(os.path.join(input_dir, "*")))
    paths += sorted(glob.glob(os.path.join(ROOT, "src", "scatterlab",
                                           "*.py")))
    paths.append(os.path.join(HERE, "reference.py"))
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _end_to_end(config, reps, ledger):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import scatterlab as sl
    from scatterlab import config as config_mod

    with open(config, encoding="utf-8") as fh:
        cfg = config_mod.parse_config(fh.read(),
                                      base_dir=os.path.dirname(config))
    # Times are scaled to the calibration kernel's nominal speed, measured
    # in the same process: set-up by the kernel run right after it, run_scan
    # by the mean of the kernel runs around it.
    setups = [r["setup_s"] * rep.CAL_NOMINAL_S / r["cal"][0] for r in reps]
    speeds = [rep.CAL_NOMINAL_S / c for r in reps for c in r["cal"]]
    runs = sorted(r["run_s"] * 2.0 * rep.CAL_NOMINAL_S / sum(r["cal"])
                  for r in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    lines = [
        f"run_s.max {runs[-1]:.6f} s  (highest percentile "
        f"{len(runs)} samples support)",
        f"repetitions {len(runs)} count",
        f"run_s.wall {statistics.median(r['run_s'] for r in reps):.6f} s  "
        f"(unscaled median)",
        f"setup_s.wall {statistics.median(r['setup_s'] for r in reps):.6f} s"
        f"  (unscaled median)",
        f"machine_speed {statistics.median(speeds):.4f} ratio  "
        f"(nominal calibration time / measured)",
    ]
    # The reference depends only on the inputs and the program, so it is
    # cached under their digest: a seed run again in the same checkout
    # skips the untimed recomputation.
    tap = reps[0]["tap"]
    cache = os.path.join(HERE, "work", "reference-cache",
                         _digest(os.path.dirname(config)) + ".json")
    try:
        refs = reference.load(cache)
    except FileNotFoundError:
        try:
            refs = reference.references(sl, cfg, tap)
        except sl.ScatterError as exc:
            ledger.check("tight_reference", False,
                         f"{type(exc).__name__}: {exc}")
            return metrics, lines
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        reference.dump(refs, cache)
    ledger.check("tight_reference", True)
    graded = reference.grade(tap, refs, _tables(reps[0], reps[0]["out_dir"]))
    ledger.check("tapped_amplitudes_match_csv",
                 all(g["matches_csv"] for g in graded.values()),
                 ", ".join(s for s, g in graded.items()
                           if not g["matches_csv"]))
    for source, g in graded.items():
        lines.append(f"accuracy_digits.{source} "
                     f"{-math.log10(g['max_rel_dev']):.4f} digits")
        lines.append(f"error_cover.{source} {g['covered']}/{g['rows']} rows")
    metrics["accuracy_digits"] = min(-math.log10(g["max_rel_dev"])
                                     for g in graded.values())
    metrics["error_cover"] = (sum(g["covered"] for g in graded.values())
                              / sum(g["rows"] for g in graded.values()))
    return metrics, lines


def _per_layer(reps):
    import tracer

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    per_rep = [tracer.layer_metrics(r["trace"]) for r in traced]
    metrics = {}
    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        metrics[key] = (values[0] if isinstance(values[0], int)
                        else statistics.median(values))
    counts_repeat = all(
        m[k] == per_rep[0][k] for m in per_rep for k in m
        if isinstance(per_rep[0][k], int))
    walls = [[o["wall_clock"] for o in r["outcomes"]] for r in plain]
    metrics["runner.task_s.max"] = statistics.median(max(w) for w in walls)
    metrics["runner.task_s.sum"] = statistics.median(sum(w) for w in walls)
    metrics["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in plain))
    # where the traced run_scan time went, module by module (with threads > 1
    # the shares may sum past 1)
    first = traced[0]
    lines = []
    for module in tracer.MODULES:
        self_s = sum(rec.get("self_s", 0.0) for key, rec in
                     first["trace"].items() if key.startswith(module + "."))
        lines.append(f"self_share.{module} {self_s / first['run_s']:.4f} "
                     f"ratio")
    return metrics, counts_repeat, lines


def _unit(key):
    if key in UNITS:
        return UNITS[key]
    return "s" if key.endswith(("_s", ".max", ".sum")) else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small grids, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "scatterlab",
                                       "__init__.py")):
        print(f"error: no scatterlab package under {ROOT}/src",
              file=sys.stderr)
        return 2

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}"
                        f"{'-reduced' if args.reduced else ''}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    config = workloads.generate(args.workload, args.seed,
                                os.path.join(work, "input"), args.reduced)
    ledger = Ledger()
    if args.trace:
        reps = _repeat(work, config, args.seconds, ("plain", "trace"), 1)
        _common_checks(ledger, args.workload, reps)
        metrics, counts_repeat, lines = _per_layer(reps)
        ledger.check("trace_counts_repeat", counts_repeat)
    else:
        reps = _repeat(work, config, args.seconds, ("plain",), MIN_REPS)
        _common_checks(ledger, args.workload, reps)
        metrics, lines = _end_to_end(config, reps, ledger)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {_unit(key)}")
    for line in lines:
        print(line)
    failed = len(ledger.failures)
    print(f"failed_frac {failed / ledger.attempted:.6g} ratio "
          f"({failed}/{ledger.attempted} operations)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }))
    if not failed:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
