"""CDCL SAT solving with resolution-proof logging."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .reference import ReferenceSolver
    from .solver import (
        SAT,
        UNKNOWN,
        UNSAT,
        SolveResult,
        Solver,
        SolverStats,
        luby,
    )

__getattr__ = lazy_exports(__name__, {
    ".reference": ("ReferenceSolver",),
    ".solver": ("SAT", "UNKNOWN", "UNSAT", "SolveResult", "Solver",
                "SolverStats", "luby"),
})

__all__ = [
    "SAT",
    "UNKNOWN",
    "UNSAT",
    "ReferenceSolver",
    "SolveResult",
    "Solver",
    "SolverStats",
    "luby",
]
