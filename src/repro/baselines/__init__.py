"""Baseline equivalence-checking engines: monolithic SAT, BDDs, BDD sweeping."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .bdd_cec import BddCecResult, bdd_check
    from .bdd_sweep import BddSweepResult, bdd_sweep_check
    from .monolithic import MonolithicResult, monolithic_check

__getattr__ = lazy_exports(__name__, {
    ".bdd_cec": ("BddCecResult", "bdd_check"),
    ".bdd_sweep": ("BddSweepResult", "bdd_sweep_check"),
    ".monolithic": ("MonolithicResult", "monolithic_check"),
})

__all__ = [
    "BddCecResult",
    "BddSweepResult",
    "MonolithicResult",
    "bdd_check",
    "bdd_sweep_check",
    "monolithic_check",
]
