"""repro — resolution proofs for combinational equivalence checking.

A reproduction of "On Resolution Proofs for Combinational Equivalence"
(DAC 2007): a SAT-sweeping combinational equivalence checker whose entire
run — simulation, structural hashing, local SAT calls — is emitted as a
single, independently checkable resolution proof of the miter's
unsatisfiability.

Quickstart::

    from repro import check_equivalence, certify
    from repro.circuits import ripple_carry_adder, carry_lookahead_adder

    a = ripple_carry_adder(8)
    b = carry_lookahead_adder(8)
    result = check_equivalence(a, b)
    assert result.equivalent
    certify(result)          # replays the resolution proof end to end
"""

from ._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__ = lazy_exports(__name__, {
    "repro.core.cec": ("CecResult", "check_equivalence"),
    "repro.core.certify": ("certify",),
})

__all__ = ["CecResult", "__version__", "certify", "check_equivalence"]
