"""Independent correctness checks, run outside every timed interval.

* Equivalent pairs are equivalent by construction (two architectures of
  one function, or a function-preserving restructuring). Their proofs
  are checked against the miter CNF that the benchmark builds itself
  from the circuits it submitted, never against a CNF the program hands
  back: resolution proofs are replayed with ``check_proof`` and DRUP
  files are checked clause by clause with the reverse-unit-propagation
  checker below.
* Non-equivalent pairs are mutants that ``bdd_check`` refuted at
  set-up; a counterexample counts only if the two circuits really
  disagree on it.
"""

from harness import OpFailure


def miter_cnf(aig_a, aig_b):
    """Clauses of miter(A, B) plus the miter-output unit clause."""
    from repro.aig.miter import build_miter
    from repro.cnf.tseitin import tseitin_encode

    miter = build_miter(aig_a, aig_b)
    encoding = tseitin_encode(miter.aig)
    clauses = [list(clause) for clause in encoding.cnf.clauses]
    clauses.append([encoding.lit_to_cnf(miter.output)])
    return clauses


def check_counterexample(aig_a, aig_b, cex):
    if cex is None or len(cex) != aig_a.num_inputs:
        raise OpFailure("missing or malformed counterexample")
    if aig_a.evaluate(cex) == aig_b.evaluate(cex):
        raise OpFailure("counterexample does not distinguish the circuits")


def replay(store, axioms):
    """Replay a resolution proof against *axioms*; returns resolutions."""
    from repro.proof.checker import check_proof
    from repro.proof.store import ProofError

    try:
        return check_proof(store, axioms=axioms, require_empty=True) \
            .num_resolutions
    except ProofError as exc:
        raise OpFailure("proof does not replay: %s" % exc)


def check_drup(lines, axioms):
    """Check DRUP text lines by reverse unit propagation over *axioms*.

    Every line must be RUP with respect to the axioms and the lines
    before it, and the last line must be the empty clause.
    """
    checker = _Rup()
    for clause in axioms:
        checker.add(clause)
    derived = []
    for number, line in enumerate(lines, 1):
        fields = line.split()
        if not fields or fields[-1] != "0" or fields[0] == "d":
            raise OpFailure("DRUP line %d is malformed" % number)
        derived.append([int(field) for field in fields[:-1]])
    if not derived or derived[-1]:
        raise OpFailure("DRUP proof does not end with the empty clause")
    for number, clause in enumerate(derived, 1):
        if not checker.implied(clause):
            raise OpFailure("DRUP line %d is not RUP" % number)
        if clause:
            checker.add(clause)


class _Rup:
    """Unit propagation over a growing clause set (two watched literals).

    Written here rather than reusing ``repro.proof.drup`` so that a
    defect in the program's own RUP checker cannot pass a bad proof.
    """

    def __init__(self):
        self.clauses = []
        self.units = []
        self.watch = {}

    def add(self, clause):
        clause = list(dict.fromkeys(clause))
        if len(clause) == 1:
            self.units.append(clause[0])
            return
        index = len(self.clauses)
        self.clauses.append(clause)
        self.watch.setdefault(clause[0], []).append(index)
        self.watch.setdefault(clause[1], []).append(index)

    def implied(self, clause):
        """True when asserting the negation of *clause* yields a conflict."""
        value = {}
        trail = []

        def assign(lit):
            current = value.get(abs(lit))
            if current is None:
                value[abs(lit)] = lit > 0
                trail.append(lit)
                return True
            return current == (lit > 0)

        for lit in self.units:
            if not assign(lit):
                return True
        for lit in clause:
            if not assign(-lit):
                return True
        head = 0
        clauses = self.clauses
        watch = self.watch
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watchers = watch.get(false_lit)
            if not watchers:
                continue
            kept = []
            for position, index in enumerate(watchers):
                lits = clauses[index]
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                other_value = value.get(abs(other))
                if other_value is not None and other_value == (other > 0):
                    kept.append(index)
                    continue
                for slot in range(2, len(lits)):
                    lit = lits[slot]
                    lit_value = value.get(abs(lit))
                    if lit_value is None or lit_value == (lit > 0):
                        lits[1], lits[slot] = lit, false_lit
                        watch.setdefault(lit, []).append(index)
                        break
                else:
                    kept.append(index)
                    if not assign(other):
                        kept.extend(watchers[position + 1:])
                        watch[false_lit] = kept
                        return True
            watch[false_lit] = kept
        return False
