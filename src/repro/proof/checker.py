"""Independent resolution-proof checker.

The checker trusts nothing from the engines: it replays every derivation
chain with explicit literal-level resolution, optionally verifies the
axioms against a reference CNF, and confirms the proof culminates in the
empty clause. It shares only the tiny :func:`repro.proof.store.resolve`
primitive with the producer side (and that primitive is itself exercised
against a second, set-based implementation in the test suite).

Replay is sequential, in clause-id order, so the first invalid clause
is always the one reported.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Optional, Set

from .store import AXIOM, DERIVED, Chain, Clause, ProofError, ProofStore, \
    resolve


class CheckResult:
    """Outcome of a successful proof check.

    Attributes:
        num_axioms: axiom clauses seen.
        num_derived: derived clauses replayed.
        num_resolutions: total resolution steps replayed.
        empty_clause_id: id of the verified empty clause (``None`` when the
            check was run without requiring refutation).
    """

    def __init__(
        self,
        num_axioms: int,
        num_derived: int,
        num_resolutions: int,
        empty_clause_id: Optional[int],
    ) -> None:
        self.num_axioms = num_axioms
        self.num_derived = num_derived
        self.num_resolutions = num_resolutions
        self.empty_clause_id = empty_clause_id

    def __repr__(self) -> str:
        return (
            "CheckResult(axioms=%d, derived=%d, resolutions=%d, empty=%r)"
            % (
                self.num_axioms,
                self.num_derived,
                self.num_resolutions,
                self.empty_clause_id,
            )
        )


def check_proof(
    store: ProofStore,
    axioms: Optional[Iterable[Iterable[int]]] = None,
    require_empty: bool = True,
    recorder: Optional[Any] = None,
    budget: Optional[Any] = None,
) -> CheckResult:
    """Verify every derivation in *store*.

    Args:
        store: the :class:`~repro.proof.store.ProofStore` to verify.
        axioms: optional iterable of clauses (any literal order); when
            given, every axiom in the proof must belong to this set. Pass
            the original CNF's clauses to certify the refutation is *of
            that formula*.
        require_empty: when true, fail unless some clause is empty.
        recorder: optional
            :class:`~repro.instrument.recorder.Recorder`; records the
            replay timing (``check/replay``) plus clause/resolution
            counters.
        budget: optional :class:`~repro.instrument.budget.Budget`,
            consulted every 256 clauses. A checker cannot degrade to a
            partial verdict, so exhaustion raises
            :class:`~repro.instrument.budget.BudgetExhausted` instead of
            returning.

    Returns:
        A :class:`CheckResult`.

    Raises:
        ProofError: on the first invalid derivation, foreign axiom, or
            (when *require_empty*) missing empty clause.
        BudgetExhausted: when *budget* runs out mid-replay.
    """
    instrumented = recorder is not None and recorder.enabled
    start = time.perf_counter() if instrumented else 0.0
    allowed = prepare_axioms(axioms)
    num_axioms = 0
    num_derived = 0
    num_resolutions = 0
    empty_id: Optional[int] = None
    get_clause = store.clause
    for clause_id in store.ids():
        if budget is not None and clause_id % 256 == 0:
            budget.check()
        clause = get_clause(clause_id)
        kind = store.kind(clause_id)
        if kind == AXIOM:
            num_axioms += 1
            if allowed is not None and clause not in allowed:
                raise ProofError(
                    "axiom %d = %r is not a clause of the reference CNF"
                    % (clause_id, clause),
                    clause_id=clause_id,
                    rule_id="proof.axiom-foreign",
                )
        elif kind == DERIVED:
            num_derived += 1
            chain = store.chain(clause_id)
            if chain is None:
                raise ProofError(
                    "derived clause %d has no chain" % clause_id,
                    clause_id=clause_id,
                    rule_id="proof.chain-arity",
                )
            _require_prior(chain[0], clause_id, chain)
            current = get_clause(chain[0])
            for pivot, antecedent_id in chain[1:]:
                _require_prior(antecedent_id, clause_id, chain)
                current = resolve(current, get_clause(antecedent_id), pivot)
            num_resolutions += len(chain) - 1
            if current != clause:
                raise ProofError(
                    "clause %d claims %r but chain yields %r"
                    % (clause_id, clause, current),
                    clause_id=clause_id,
                    rule_id="proof.chain-mismatch",
                    chain=chain,
                )
        else:
            raise ProofError(
                "clause %d has unknown kind %r" % (clause_id, kind),
                clause_id=clause_id,
                rule_id="proof.unknown-kind",
            )
        if not clause and empty_id is None:
            empty_id = clause_id
    if require_empty and empty_id is None:
        raise ProofError(
            "proof does not derive the empty clause",
            rule_id="proof.no-refutation",
        )
    if instrumented:
        recorder.add_time("check/replay", time.perf_counter() - start)
        recorder.count("check/clauses", len(store))
        recorder.count("check/resolutions", num_resolutions)
    return CheckResult(num_axioms, num_derived, num_resolutions, empty_id)


def prepare_axioms(
    axioms: Optional[Iterable[Iterable[int]]],
) -> Optional[Set[Clause]]:
    """Normalize an axiom iterable into the membership set, or ``None``."""
    if axioms is None:
        return None
    return {tuple(sorted(set(clause))) for clause in axioms}


def _require_prior(
    antecedent_id: int, clause_id: int, chain: Optional[Chain] = None
) -> None:
    if not 0 <= antecedent_id < clause_id:
        raise ProofError(
            "clause %d references antecedent %d that is not prior"
            % (clause_id, antecedent_id),
            clause_id=clause_id,
            rule_id="proof.forward-ref",
            chain=chain,
        )


def check_refutation_of(store: ProofStore, cnf: Any) -> CheckResult:
    """Certify that *store* refutes exactly the formula *cnf*.

    Convenience wrapper over :func:`check_proof` taking a
    :class:`~repro.cnf.clause.CNF`.
    """
    return check_proof(store, axioms=cnf.clauses, require_empty=True)
