"""How service-mix's end-to-end metrics move with its cache-hit share.

Usage (from the root of a checkout)::

    python3 perfbench/mix_sensitivity.py --shares 0.5 0.667 0.8 --seeds 1-3

Each run is an ordinary timed service-mix run (``run.py --trace 0``) with
``service_mix.HIT_SHARE`` set to one of ``--shares``; the fresh misses
and mutants per round stay as they are, so only the number of hits
changes. For every share it prints the median of each end-to-end metric
over the seeds, so a claim measured on service-mix can say which regime
it holds in.
"""

import argparse
import json
import statistics
import subprocess
import sys

from steady import ROOT, parse_seeds

RUN = """import sys
sys.path.insert(0, "perfbench")
import run, service_mix
service_mix.HIT_SHARE = {share!r}
sys.exit(run.main({argv!r}))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--shares", type=float, nargs="+",
                        default=[0.5, 2 / 3, 0.8])
    parser.add_argument("--seeds", default="1-3", help="range, e.g. 1-3")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    rows = []
    for share in args.shares:
        samples = {}
        for seed in parse_seeds(args.seeds):
            code = RUN.format(share=share, argv=[
                "--workload", "service-mix", "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"])
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("share %.3f seed %d: failed=%d %s" % (
                share, seed, result["failed"], " ".join(
                    "%s=%.4g" % (name, metric["value"])
                    for name, metric in result["metrics"].items())),
                flush=True)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        rows.append((share, {name: statistics.median(values)
                             for name, values in samples.items()}))
    names = list(rows[0][1])
    print("| hit share | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for share, medians in rows:
        print("| %.3f | " % share + " | ".join(
            "%.4g" % medians[name] for name in names) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
