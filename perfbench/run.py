"""Outside-in benchmark of the repro combinational-equivalence checker.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-cli --seed 1 --seconds 20 \\
        --trace 0

Workloads: ``suite-cli`` (one ``repro-cec`` process per op),
``sat-heavy`` (in-process check/trim/certify of SAT-bound miters) and
``service-mix`` (submit→verdict through ``repro-router`` and two
``repro-serve`` shards). The seed only shapes the generated inputs; it
is never passed to the program.

A run sets up three times (``setup_s`` is the median), then runs a fixed
op list in a closed loop: ``--seconds`` divided by the workload's
nominal round time, rounded, gives the number of whole rounds of ops
generated, so one seed always does the same work. Outputs are checked
by an independent oracle after the timed pass. With ``--trace 1`` the
run instead reports per-layer metrics from spans recorded around the
program's public entry points (see ``perfbench/METRICS.md``).

Every metric is printed by name with its unit; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 once a result is printed, even when ops failed (they are
counted), and non-zero when no result can be produced.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import layers  # noqa: E402

WORKLOADS = {
    "suite-cli": "suite_cli",
    "sat-heavy": "sat_heavy",
    "service-mix": "service_mix",
}

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("fail_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("proof_clauses", "count"),
]

#: No op is started once the process is this old, so a run on a badly
#: slowed host still ends well inside three minutes.
RUN_GUARD_S = 140.0


class Outcome:
    __slots__ = ("op", "slot", "seconds", "value", "error")

    def __init__(self, op, slot, seconds, value, error):
        self.op = op
        self.slot = slot
        self.seconds = seconds
        self.value = value
        self.error = error


def _set_up(module, seed, rounds, workdir_root):
    """Set up SETUP_REPEATS times; returns (last state, median seconds).

    Each set-up is a fresh interpreter importing the workload's modules
    plus this process generating inputs, reference verdicts and servers.
    """
    seconds = []
    state = None
    code = "import " + ", ".join(module.SETUP_IMPORTS)
    for repeat in range(harness.SETUP_REPEATS):
        if state is not None:
            state.close()
            state = None
        workdir = os.path.join(workdir_root, "s%d" % repeat)
        os.makedirs(workdir)
        start = time.perf_counter()
        harness.python_probe(code, 1)
        state = module.prepare(seed, workdir, rounds)
        seconds.append(time.perf_counter() - start)
    return state, statistics.median(seconds)


def timed_run(module, seed, run_seconds, workdir_root):
    rounds = max(1, round(run_seconds / module.NOMINAL_ROUND_S))
    state, setup_s = _set_up(module, seed, rounds, workdir_root)
    print("# first timed op %.3f s after start; %d round(s)" %
          (time.perf_counter() - PROCESS_START, rounds))
    metrics, attempted, failed = timed_pass(module, state)
    metrics = dict(setup_s=setup_s, **metrics)
    return metrics, dict(END_TO_END), attempted, failed


def timed_pass(module, state, guard_s=RUN_GUARD_S):
    """Run ``state.ops`` once in a closed loop, close *state*, then check
    every answer. Returns (metrics other than ``setup_s``, attempted,
    failed).

    Ops not started because the process reached *guard_s* count as
    attempted and failed.
    """
    outcomes = []
    collecting = 0.0
    try:
        pass_start = time.perf_counter()
        for slot, op in enumerate(state.ops):
            # Free the previous op's cyclic garbage first, untimed, so a
            # process's peak RSS is that of one op rather than an accident
            # of when the cyclic collector last ran.
            start = time.perf_counter()
            gc.collect()
            collecting += time.perf_counter() - start
            start = time.perf_counter()
            if start - PROCESS_START > guard_s:
                outcomes.append(Outcome(op, slot, harness.OP_TIMEOUT_S, None,
                                        "not started: run guard reached"))
                continue
            value, error = None, None
            try:
                with harness.deadline():
                    value = module.run_op(state, op, slot)
            except Exception as exc:  # counted, reported, never raised
                error = repr(exc)
            outcomes.append(
                Outcome(op, slot, time.perf_counter() - start, value, error))
        elapsed = time.perf_counter() - pass_start - collecting
        peak_rss = module.peak_rss_mb(state)
    finally:
        state.close()

    proof_clauses = 0
    for outcome in outcomes:
        if outcome.error is None:
            try:
                proof_clauses += module.verify(
                    state, outcome.op, outcome.slot, outcome.value)
            except Exception as exc:  # counted, reported, never raised
                outcome.error = repr(exc)
        if outcome.error is not None:
            print("# op %s failed: %s" % (outcome.op.name, outcome.error),
                  file=sys.stderr)
    attempted = len(outcomes)
    failed = sum(1 for outcome in outcomes if outcome.error is not None)
    # A failed op counts as missing every latency limit.
    latencies = [
        outcome.seconds if outcome.error is None else harness.OP_TIMEOUT_S
        for outcome in outcomes
    ]
    tail_s, tail_pct, beyond = harness.tail(latencies)
    print("# %d ops, %.3f s timed; tail = p%.1f of %d ops (%d beyond); "
          "exact failure rate %d/%d" % (attempted, elapsed, tail_pct,
                                        attempted, beyond, failed, attempted))
    metrics = {
        "ops_per_s": (attempted - failed) / elapsed,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_s,
        "fail_frac": failed / attempted + harness.FAIL_FLOOR,
        "peak_rss_mb": peak_rss,
        "proof_clauses": proof_clauses,
    }
    return metrics, attempted, failed


def traced_run(module, seed, workdir_root, info):
    workdir = os.path.join(workdir_root, "t")
    os.makedirs(workdir)
    state = module.prepare(seed, workdir, 1)
    try:
        metrics, attempted, failed, tracer = module.traced(state)
    finally:
        state.close()
    metrics["host.calib_ms"] = info["calib_ms"]
    path = os.path.join(harness.OUT_DIR, "trace-%s-seed%d.jsonl"
                        % (module.NAME, seed))
    tracer.dump(path)
    print("# %d spans written to %s" % (len(tracer.spans),
                                         os.path.relpath(path)))
    return layers.complete(metrics), dict(layers.METRICS), attempted, failed


def _report(metrics, units, attempted, failed):
    for name, value in metrics.items():
        print("%-26s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "__init__.py")):
        print("perfbench: no program sources at %s" % harness.SRC,
              file=sys.stderr)
        return 2
    os.chdir(harness.ROOT)
    sys.path.insert(0, harness.SRC)
    module = importlib.import_module(WORKLOADS[args.workload])
    info = harness.host_info(args.seed)
    print("# workload=%s seed=%d seconds=%d trace=%d nproc=%d python=%s "
          "calib_ms=%.3f" % (args.workload, args.seed, args.seconds,
                             args.trace, info["nproc"], info["python"],
                             info["calib_ms"]))
    os.makedirs(harness.WORK_DIR, exist_ok=True)
    workdir_root = tempfile.mkdtemp(dir=harness.WORK_DIR)
    try:
        if args.trace:
            result = traced_run(module, args.seed, workdir_root, info)
        else:
            result = timed_run(module, args.seed, args.seconds, workdir_root)
    finally:
        shutil.rmtree(workdir_root, ignore_errors=True)
        try:
            os.rmdir(harness.WORK_DIR)
        except OSError:
            pass
    _report(*result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
