"""Seeded input generation shared by the workloads."""

import io

import oracle

#: Attempts allowed per requested mutant before set-up gives up.
MUTANT_ATTEMPTS = 20


def aag_text(aig):
    from repro.aig.aiger import write_aag

    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


def parse_aag(text):
    from repro.aig.aiger import read_aag

    return read_aag(io.StringIO(text))


class Pair:
    """One input pair as the program receives it.

    Holds the AIGER texts, the circuits parsed back from those texts
    (the oracle works on the circuits as submitted, not as generated)
    and their miter CNF, built on first use.
    """

    def __init__(self, name, kind, aig_a, aig_b):
        self.name = name
        self.kind = kind  # "eq" or "neq"
        self.text_a = aag_text(aig_a)
        self.text_b = aag_text(aig_b)
        self.aig_a = parse_aag(self.text_a)
        self.aig_b = parse_aag(self.text_b)
        self._axioms = None

    def axioms(self):
        if self._axioms is None:
            self._axioms = oracle.miter_cnf(self.aig_a, self.aig_b)
        return self._axioms


def mutant(rng, golden, victim):
    """A seeded fault-injected copy of *victim* that differs from *golden*.

    The fault kind and target are drawn from *rng*; a fault is kept only
    when ``bdd_check`` proves the mutant non-equivalent to *golden*.
    """
    from repro.baselines.bdd_cec import bdd_check
    from repro.circuits.faults import FAULT_KINDS, Fault, inject

    and_vars = list(victim.and_vars())
    for _ in range(MUTANT_ATTEMPTS):
        kind = rng.choice(FAULT_KINDS)
        if kind == "output_flip":
            target = rng.randrange(victim.num_outputs)
        else:
            target = rng.choice(and_vars)
        candidate = inject(victim, Fault(kind, target))
        if bdd_check(golden, candidate).equivalent is False:
            return candidate
    raise RuntimeError("no detectable fault found in %d attempts"
                       % MUTANT_ATTEMPTS)


def restructured(aig, seed):
    """A seeded function-preserving restructuring of *aig*."""
    from repro.transforms.restructure import restructure

    return restructure(aig, seed=seed, intensity=0.4, redundancy=0.15)
