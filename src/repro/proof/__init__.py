"""Resolution proofs: store, checkers, trimming, statistics, DRUP."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Eager: ``trim`` names both a submodule and the function it exports
# (see repro._lazy).
from .trim import needed_ids, trim, trim_ratio

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .checker import CheckResult, check_proof, check_refutation_of
    from .compress import lower_units
    from .drup import check_rup_proof, write_drup
    from .interpolant import (
        Interpolant,
        InterpolationError,
        interpolate,
        partition_vars,
    )
    from .stats import ProofStats, proof_stats
    from .store import AXIOM, DERIVED, ProofError, ProofStore, resolve
    from .tracecheck import (
        dumps_tracecheck,
        parse_tracecheck,
        read_tracecheck,
        write_tracecheck,
    )

__getattr__ = lazy_exports(__name__, {
    ".checker": ("CheckResult", "check_proof", "check_refutation_of"),
    ".compress": ("lower_units",),
    ".drup": ("check_rup_proof", "write_drup"),
    ".interpolant": ("Interpolant", "InterpolationError", "interpolate",
                     "partition_vars"),
    ".stats": ("ProofStats", "proof_stats"),
    ".store": ("AXIOM", "DERIVED", "ProofError", "ProofStore", "resolve"),
    ".tracecheck": ("dumps_tracecheck", "parse_tracecheck",
                    "read_tracecheck", "write_tracecheck"),
})

__all__ = [
    "AXIOM",
    "CheckResult",
    "DERIVED",
    "Interpolant",
    "InterpolationError",
    "ProofError",
    "ProofStats",
    "ProofStore",
    "check_proof",
    "check_refutation_of",
    "check_rup_proof",
    "dumps_tracecheck",
    "lower_units",
    "interpolate",
    "needed_ids",
    "parse_tracecheck",
    "partition_vars",
    "proof_stats",
    "read_tracecheck",
    "resolve",
    "trim",
    "trim_ratio",
    "write_drup",
    "write_tracecheck",
]
