"""Steadiness check: run workloads on several seeds, report spreads.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload sat-heavy --seeds 1-10
    python3 perfbench/steady.py --workload suite-cli sat-heavy service-mix

Runs go seed by seed through the named workloads, so slow drift of the
host is shared out between them. For every end-to-end metric of every
workload it prints the median of the runs and the distance between the
first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json`` and a third of it, plus the spread of the host
calibration loop each run recorded. Raw results are appended as JSON
lines to ``--out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _spread(samples):
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seeds", default="1-5", help="range, e.g. 1-10")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".perfbench_out", "steady.jsonl"))
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    bounds = {metric["name"]: metric["bound"]
              for metric in bench["end_to_end"]}
    values = {workload: {name: [] for name in list(bounds) + ["calib_ms"]}
              for workload in args.workload}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in args.workload:
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            calib = float(lines[0].rpartition("calib_ms=")[2])
            with open(args.out, "a") as handle:
                handle.write(json.dumps({
                    "workload": workload, "seed": seed, "calib_ms": calib,
                    "result": result}) + "\n")
            samples = values[workload]
            samples["calib_ms"].append(calib)
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            print("%s seed %d: correct=%s failed=%d calib_ms=%.1f %s" % (
                workload, seed, result["correct"], result["failed"], calib,
                " ".join("%s=%.4g" % (name, result["metrics"][name]["value"])
                         for name in bounds)), flush=True)
    for workload, samples in values.items():
        worst = 0.0
        print("== %s" % workload)
        for name, bound in bounds.items():
            median, spread = _spread(samples[name])
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print("%-16s median %12.4f  spread %.4f  bound %.2f  (1/3: %.4f)%s"
                  % (name, median, spread, bound, bound / 3,
                     "" if spread < bound / 3 else "  <-- wide"))
        median, spread = _spread(samples["calib_ms"])
        print("%-16s median %12.4f  spread %.4f  (host, for reference)"
              % ("calib_ms", median, spread))
        print("worst spread/bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
