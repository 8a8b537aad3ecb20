"""suite-cli: one ``repro-cec --certify --proof`` process per op.

Inputs are the 20 Table 4 pairs (``repro.circuits.SUITE``) written as
``.aag`` files, plus one seeded fault-injected mutant of each pair that
``bdd_check`` refutes. An op is one CLI process on one pair, run in
a closed loop; interpreter and import start-up is part of every op.

The traced run repeats the ops in-process through the same public calls
the CLI makes (``read_auto``, ``check_equivalence``, ``certify``,
``trim``, ``write_drup``) and measures start-up in fresh interpreters.
"""

import os
import random
import subprocess
import sys

import inputs
import layers
import oracle
from harness import (
    OP_TIMEOUT_S,
    OpFailure,
    child_env,
    children_peak_rss_mb,
    geomean,
    paired_passes,
    startup_metrics,
)

NAME = "suite-cli"
#: Wall time of one round on the reference host (2 CPUs); ``--seconds``
#: is turned into a whole number of rounds with it. Rounds repeat the
#: same ops.
NOMINAL_ROUND_S = 15.0
#: Modules a fresh interpreter imports in the set-up probe.
SETUP_IMPORTS = ("repro.circuits", "repro.circuits.faults",
                 "repro.baselines.bdd_cec", "repro.aig.aiger")


class Op(inputs.Pair):
    """A pair plus the ``.aag`` files the CLI reads."""

    def __init__(self, workdir, name, kind, aig_a, aig_b):
        super().__init__(name, kind, aig_a, aig_b)
        self.path_a = os.path.join(workdir, name + "_a.aag")
        self.path_b = os.path.join(workdir, name + "_b.aag")
        for path, text in ((self.path_a, self.text_a),
                           (self.path_b, self.text_b)):
            with open(path, "w") as handle:
                handle.write(text)


class State:
    def __init__(self, workdir, ops):
        self.workdir = workdir
        self.ops = ops
        self.env = child_env()

    def proof_path(self, slot):
        return os.path.join(self.workdir, "proof%d.drup" % slot)

    def close(self):
        pass


def prepare(seed, workdir, rounds):
    from repro.circuits import SUITE

    rng = random.Random(seed)
    ops = []
    built = {}
    for pair in SUITE:
        built[pair.name] = pair.build()
        ops.append(Op(workdir, pair.name, "eq", *built[pair.name]))
    # One mutant per pair: the seed picks the faults, not which circuits
    # get them, so the cost mix of a round does not swing with the seed.
    for pair in SUITE:
        golden, victim = built[pair.name]
        ops.append(Op(workdir, pair.name + "-m", "neq", golden,
                      inputs.mutant(rng, golden, victim)))
    rng.shuffle(ops)
    return State(workdir, ops * rounds)


def run_op(state, op, slot):
    proof = state.proof_path(slot)
    if os.path.exists(proof):
        os.unlink(proof)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", op.path_a, op.path_b,
         "--certify", "--proof", proof, "--quiet"],
        env=state.env, capture_output=True, text=True,
        timeout=OP_TIMEOUT_S,
    )


def verify(state, op, slot, proc):
    """Check one CLI answer; returns the DRUP lines it delivered."""
    words = proc.stdout.split()
    if op.kind == "neq":
        if proc.returncode != 1 or words[:2] != ["NOT", "EQUIVALENT"]:
            raise OpFailure("expected NOT EQUIVALENT/exit 1, got exit %d: %r"
                            % (proc.returncode, proc.stdout[:200]))
        if "counterexample:" not in words:
            raise OpFailure("no counterexample printed")
        bits = words[words.index("counterexample:") + 1]
        oracle.check_counterexample(op.aig_a, op.aig_b,
                                    [int(bit) for bit in bits])
        return 0
    if proc.returncode != 0 or words[:1] != ["EQUIVALENT"]:
        raise OpFailure("expected EQUIVALENT/exit 0, got exit %d: %r"
                        % (proc.returncode, (proc.stdout + proc.stderr)[:200]))
    try:
        with open(state.proof_path(slot)) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise OpFailure("no proof file: %s" % exc)
    oracle.check_drup(lines, op.axioms())
    return len(lines)


def peak_rss_mb(state):
    return children_peak_rss_mb()


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def _in_process(state):
    """One op through the CLI's public calls, for :func:`paired_passes`."""
    from repro.aig.aiger import read_auto
    from repro.core.cec import check_equivalence
    from repro.core.certify import certify
    from repro.core.fraig import SweepOptions
    from repro.proof.drup import write_drup
    from repro.proof.trim import trim

    def one(slot, op, tracer, counts):
        span = tracer.span
        with span("aig.parse"):
            aig_a = read_auto(op.path_a)
            aig_b = read_auto(op.path_b)
        result = check_equivalence(aig_a, aig_b, SweepOptions())
        if result.equivalent:
            with span("core.certify"):
                check = certify(result)
            with span("proof.trim"):
                trimmed, _ = trim(result.proof)
            with span("proof.write"):
                write_drup(trimmed, state.proof_path(slot))
        if counts is not None:
            counts.add_check(result)
            counts.values["and_nodes"] += aig_a.num_ands + aig_b.num_ands
            if result.equivalent:
                counts.add_trim(len(result.proof), len(trimmed))
                counts.values["resolutions_checked"] += check.num_resolutions
        resolutions = (result.proof.num_resolutions if result.equivalent
                       else None)
        return (result.equivalent, result.counterexample, aig_a, aig_b,
                resolutions)

    return one


def _check_traced(state, slot, op, output):
    equivalent, counterexample = output[:2]
    if op.kind == "eq" and equivalent is True:
        with open(state.proof_path(slot)) as handle:
            oracle.check_drup(handle.read().splitlines(), op.axioms())
    elif op.kind == "neq" and equivalent is False:
        oracle.check_counterexample(op.aig_a, op.aig_b, counterexample)
    else:
        raise OpFailure("wrong verdict %r" % equivalent)


def _resolution_ratio(outputs):
    """Geo-mean of monolithic / engine resolutions over the suite pairs."""
    from repro.baselines.monolithic import monolithic_check

    ratios = {}
    for _, op, (_, _, aig_a, aig_b, resolutions) in outputs:
        if op.kind == "eq":
            mono = monolithic_check(aig_a, aig_b)
            ratios[op.name] = mono.proof.num_resolutions / max(resolutions, 1)
    # Summed in name order, so the float does not depend on the op order.
    return geomean([ratios[name] for name in sorted(ratios)])


def traced(state):
    """Per-layer metrics; returns (metrics, attempted, failed, tracer)."""
    tracer = layers.make_tracer()
    counts = layers.EngineCounts()
    untraced_s, traced_s, outputs, failed = paired_passes(
        state.ops, _in_process(state), tracer, counts)
    for slot, op, output in outputs:
        try:
            _check_traced(state, slot, op, output)
        except OpFailure as exc:
            print("# traced op %s failed: %s" % (op.name, exc),
                  file=sys.stderr)
            failed += 1
    metrics = layers.engine_metrics(tracer, counts)
    metrics.update(startup_metrics())
    metrics.update({
        "aig.parse_ms": tracer.total_ms("aig.parse"),
        "aig.and_nodes": counts.values["and_nodes"],
        "core.res_ratio_geomean": _resolution_ratio(outputs),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return metrics, 2 * len(state.ops), failed, tracer
