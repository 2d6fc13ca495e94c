"""Run every workload over several seeds and summarize, or record a baseline.

    python3 perfbench/suite.py [--seeds 1,2,3] [--seconds 15] [--out FILE]

For each workload, runs run.py once per seed with --trace 0 and once with
--trace 1 (first seed), echoes every metric line, then prints each
end-to-end metric's median over the seeds and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. --out writes the summary, the per-layer metrics and the
machine's description as JSON. Exits 1 if any run failed a gate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, timeout=900)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def _machine():
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, seed, args.seconds, 0) for seed in seeds]
        traced = _run(name, seeds[0], args.seconds, 1)
        ok &= all(r is not None and r["correct"] for r in runs + [traced])
        if not all(runs) or traced is None:
            continue
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            e2e[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                              "q3": q3, "spread": (q3 - q1) / med,
                              "values": values}
        summary[name] = {
            "why": w["why"], "seeds": seeds, "end_to_end": e2e,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
        }

    print()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, s in summary.items():
        print(f"{name}: {s['failed']}/{s['attempted']} operations failed "
              f"over {len(seeds)} seeds")
        for metric, e in s["end_to_end"].items():
            print(f"  {metric} median {e['median']:.6g} {e['unit']}  "
                  f"spread {e['spread']:.4f} (bound {bounds[metric]})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"machine": _machine(), "run_seconds": args.seconds,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
