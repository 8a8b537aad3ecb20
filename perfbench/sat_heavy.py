"""sat-heavy: in-process ``check_equivalence`` → ``trim`` → ``certify``.

Inputs are large propagation-bound miters from the in-repo generators
(5x5 array-vs-Wallace and Wallace-vs-Dadda multipliers, ripple-vs-
carry-lookahead adders at widths 24 and 28) plus two seeded
``restructure`` variants of each of the three lighter pairs. An op is
one check of one pair with default options, then trimming of its proof
and certification of the trimmed proof, in a closed loop inside this
process: no start-up, no I/O.
"""

import random
import sys

import inputs
import layers
import oracle
from harness import NULL_TRACER, OpFailure, paired_passes, self_peak_rss_mb

NAME = "sat-heavy"
#: Wall time of one round on the reference host (2 CPUs). Rounds repeat
#: the same ops.
NOMINAL_ROUND_S = 26.0
SETUP_IMPORTS = ("repro.circuits", "repro.transforms.restructure")
VARIANTS = 2


class State:
    def __init__(self, ops):
        self.ops = ops

    def close(self):
        pass


def prepare(seed, workdir, rounds):
    from repro.circuits import generators as gen

    rng = random.Random(seed)
    base = [
        ("mul05", gen.array_multiplier(5), gen.wallace_multiplier(5)),
        ("mul05wd", gen.wallace_multiplier(5), gen.dadda_multiplier(5)),
        ("add24c", gen.ripple_carry_adder(24), gen.carry_lookahead_adder(24)),
        ("add28c", gen.ripple_carry_adder(28), gen.carry_lookahead_adder(28)),
    ]
    ops = [inputs.Pair(name, "eq", a, b) for name, a, b in base]
    # Seeded variants of the three lighter pairs (add28c restructured
    # would double the round); the second circuit is restructured.
    # Variants cost more than their base pairs and by how much depends on
    # the seed, so there are VARIANTS of each: the median op then depends
    # less on which variants one seed happens to draw.
    for name, aig_a, aig_b in base[:3]:
        for _ in range(VARIANTS):
            variant_seed = rng.randrange(1 << 30)
            variant = inputs.restructured(aig_b, variant_seed)
            ops.append(inputs.Pair("%s~r%d" % (name, variant_seed), "eq",
                                   aig_a, variant))
    rng.shuffle(ops)
    return State(ops * rounds)


def _check(op, tracer):
    """One op: check, trim, certify the trimmed proof."""
    from repro.core.cec import check_equivalence
    from repro.core.certify import certify
    from repro.proof.trim import trim

    result = check_equivalence(op.aig_a, op.aig_b)
    if result.equivalent is not True:
        raise OpFailure("verdict %r on an equivalent pair" % result.equivalent)
    logged = len(result.proof)
    with tracer.span("proof.trim"):
        result.proof, _ = trim(result.proof)
    result.empty_clause_id = result.proof.find_empty_clause()
    with tracer.span("core.certify"):
        check = certify(result)
    return result, logged, check


def run_op(state, op, slot):
    return _check(op, NULL_TRACER)[0].proof


def verify(state, op, slot, proof):
    """Replay the trimmed proof against the benchmark's own miter CNF."""
    oracle.replay(proof, op.axioms())
    return len(proof)


def peak_rss_mb(state):
    return self_peak_rss_mb()


def _traced_op(slot, op, tracer, counts):
    result, logged, check = _check(op, tracer)
    if counts is not None:
        counts.add_check(result)
        counts.add_trim(logged, len(result.proof))
        counts.values["resolutions_checked"] += check.num_resolutions
    return result.proof


def traced(state):
    """Per-layer metrics; returns (metrics, attempted, failed, tracer)."""
    tracer = layers.make_tracer()
    counts = layers.EngineCounts()
    untraced_s, traced_s, outputs, failed = paired_passes(
        state.ops, _traced_op, tracer, counts)
    for slot, op, proof in outputs:
        try:
            verify(state, op, slot, proof)
        except OpFailure as exc:
            print("# traced op %s failed: %s" % (op.name, exc),
                  file=sys.stderr)
            failed += 1
    metrics = layers.engine_metrics(tracer, counts)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, 2 * len(state.ops), failed, tracer
