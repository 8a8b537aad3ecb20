"""Tests for the independent resolution checker (and its mutation-hardness)."""

import pytest

from proof_corpus import CORRUPTIONS, corrupted
from repro.instrument import Budget, BudgetExhausted
from repro.proof import (
    ProofError,
    ProofStore,
    check_proof,
    check_refutation_of,
    proof_stats,
)
from repro.cnf import CNF


def refutation_store():
    """A small complete refutation of {(1 2), (1 -2), (-1 2), (-1 -2)}."""
    store = ProofStore()
    c1 = store.add_axiom([1, 2])
    c2 = store.add_axiom([1, -2])
    c3 = store.add_axiom([-1, 2])
    c4 = store.add_axiom([-1, -2])
    u1 = store.add_derived([1], [c1, (2, c2)])
    u2 = store.add_derived([-1], [c3, (2, c4)])
    store.add_derived([], [u1, (1, u2)])
    return store


AXIOMS = [[1, 2], [1, -2], [-1, 2], [-1, -2]]


def unit_chain_refutation(steps):
    """Refute {1, -1 v 2, ..., -steps v steps+1, -(steps+1)} by deriving
    each unit from the previous one: ``2 * steps + 3`` clauses."""
    store = ProofStore()
    unit = store.add_axiom([1])
    for var in range(1, steps + 1):
        implication = store.add_axiom([-var, var + 1])
        unit = store.add_derived([var + 1], [unit, (var, implication)])
    last = store.add_axiom([-(steps + 1)])
    store.add_derived([], [unit, (steps + 1, last)])
    return store


class BudgetAfter:
    """Budget stand-in that runs out on its *n*-th check."""

    def __init__(self, n):
        self.n = n
        self.checks = 0

    def check(self):
        self.checks += 1
        if self.checks >= self.n:
            raise BudgetExhausted("time")


#: How the checker rejects each ``proof_corpus`` corruption:
#: ``(clause_id, message, rule_id)``, pinned exactly.
CORPUS_ERRORS = {
    "chain-arity": (
        4, "clause 4 claims (-2,) but chain yields (-2, 1)",
        "proof.chain-mismatch",
    ),
    "dangling-chain": (
        4, "derived clause 4 has no chain", "proof.chain-arity",
    ),
    "duplicated-literal": (
        4, "clause 4 claims (-2, -2) but chain yields (-2,)",
        "proof.chain-mismatch",
    ),
    "foreign-axiom": (
        0, "axiom 0 = (1,) is not a clause of the reference CNF",
        "proof.axiom-foreign",
    ),
    "forward-ref": (
        4, "clause 4 references antecedent 5 that is not prior",
        "proof.forward-ref",
    ),
    "no-refutation": (
        5, "clause 5 claims (1, 2) but chain yields ()",
        "proof.chain-mismatch",
    ),
    "out-of-range-var": (
        4, "clause 4 claims (-2, 99) but chain yields (-2,)",
        "proof.chain-mismatch",
    ),
    "pivot-missing": (
        None, "pivot 1 does not occur with opposite phases in (2,) and "
        "(-2,)", "proof.pivot-phase",
    ),
    "retained-pivot": (
        5, "clause 5 claims (2,) but chain yields ()",
        "proof.chain-mismatch",
    ),
    "shuffled-chain": (
        None, "pivot 1 does not occur with opposite phases in (-2,) and "
        "(-1, 2)", "proof.pivot-phase",
    ),
    "tautology": (
        4, "clause 4 claims (-2, 2) but chain yields (-2,)",
        "proof.chain-mismatch",
    ),
}


class TestAccepts:
    def test_valid_refutation(self):
        result = check_proof(refutation_store(), axioms=AXIOMS)
        assert result.num_axioms == 4
        assert result.num_derived == 3
        assert result.num_resolutions == 3
        assert result.empty_clause_id is not None

    def test_without_axiom_set(self):
        check_proof(refutation_store())

    def test_non_refutation_allowed_when_not_required(self):
        store = ProofStore()
        a = store.add_axiom([1, 2])
        b = store.add_axiom([-1, 2])
        store.add_derived([2], [a, (1, b)])
        result = check_proof(store, require_empty=False)
        assert result.empty_clause_id is None

    def test_check_refutation_of_cnf(self):
        cnf = CNF(clauses=AXIOMS)
        check_refutation_of(refutation_store(), cnf)


class TestRejects:
    def test_foreign_axiom(self):
        with pytest.raises(ProofError, match="not a clause"):
            check_proof(refutation_store(), axioms=AXIOMS[:3])

    def test_missing_empty_clause(self):
        store = ProofStore()
        a = store.add_axiom([1, 2])
        b = store.add_axiom([-1, 2])
        store.add_derived([2], [a, (1, b)])
        with pytest.raises(ProofError, match="empty clause"):
            check_proof(store)

    def test_mutated_clause_detected(self):
        store = refutation_store()
        # Corrupt a derived clause behind the store's back.
        store._clauses[4] = (1, 2)
        with pytest.raises(ProofError, match="chain yields"):
            check_proof(store, axioms=AXIOMS)

    def test_mutated_pivot_detected(self):
        store = refutation_store()
        chain = store._chains[4]
        store._chains[4] = [chain[0], (1, chain[1][1])]
        with pytest.raises(ProofError):
            check_proof(store, axioms=AXIOMS)

    def test_mutated_antecedent_detected(self):
        store = refutation_store()
        chain = store._chains[6]
        store._chains[6] = [chain[0], (chain[1][0], 0)]
        with pytest.raises(ProofError):
            check_proof(store, axioms=AXIOMS)

    def test_unknown_kind(self):
        store = refutation_store()
        store._kinds[2] = "mystery"
        with pytest.raises(ProofError, match="unknown kind"):
            check_proof(store)


class TestCorpusErrors:
    def test_table_covers_the_corpus(self):
        assert set(CORPUS_ERRORS) == set(CORRUPTIONS)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_exact_error(self, name):
        store, cnf, _ = corrupted(name)
        with pytest.raises(ProofError) as excinfo:
            check_proof(store, axioms=cnf.clauses)
        error = excinfo.value
        assert (error.clause_id, str(error), error.rule_id) \
            == CORPUS_ERRORS[name]

    def test_first_failing_clause_is_reported(self):
        store = unit_chain_refutation(300)
        store._clauses[100] = (999,)
        store._clauses[500] = (999,)
        with pytest.raises(ProofError) as excinfo:
            check_proof(store)
        assert excinfo.value.clause_id == 100


class TestBudget:
    def test_exhaustion_mid_replay_raises(self):
        store = unit_chain_refutation(400)
        budget = BudgetAfter(3)
        with pytest.raises(BudgetExhausted):
            check_proof(store, budget=budget)
        # Checked at clauses 0, 256 and 512 of 803: stopped midway.
        assert budget.checks == 3

    def test_spent_budget_raises_before_replay(self):
        with pytest.raises(BudgetExhausted) as excinfo:
            check_proof(refutation_store(), budget=Budget(time_limit=0.0))
        assert excinfo.value.reason == "time"

    def test_ample_budget_does_not_change_the_result(self):
        store = unit_chain_refutation(400)
        budgeted = check_proof(store, budget=Budget(time_limit=3600.0))
        plain = check_proof(store)
        assert budgeted.num_resolutions == plain.num_resolutions == 401
        assert budgeted.empty_clause_id == plain.empty_clause_id


class TestStats:
    def test_counts(self):
        stats = proof_stats(refutation_store())
        assert stats.num_clauses == 7
        assert stats.num_axioms == 4
        assert stats.num_derived == 3
        assert stats.num_resolutions == 3
        assert stats.max_width == 2
        assert stats.depth == 2

    def test_avg_width(self):
        stats = proof_stats(refutation_store())
        # Derived clauses: (1), (-1), () -> mean 2/3.
        assert stats.avg_derived_width == pytest.approx(2.0 / 3.0)

    def test_empty_store(self):
        stats = proof_stats(ProofStore())
        assert stats.num_clauses == 0
        assert stats.avg_derived_width == 0.0
