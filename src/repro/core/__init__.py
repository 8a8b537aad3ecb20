"""Core: the proof-producing combinational equivalence checking engine."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

# Eager: ``certify`` names both a submodule and the function it exports
# (see repro._lazy).
from .certify import CertificationError, certify

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .cec import CecResult, check_equivalence
    from .fraig import SweepEngine, SweepOptions, SweepStats
    from .outputs import OutputVerdict, OutputsReport, check_outputs
    from .reduce import ReduceResult, certified_reduce, fraig_reduce
    from .serialize import (
        RESULT_SCHEMA,
        ResultFormatError,
        result_from_dict,
        result_to_dict,
        verdict_name,
    )
    from .stitch import (
        EquivLemma,
        StitchError,
        StructuralStitcher,
        derive_subset,
    )
    from .witness import MinimizedWitness, minimize_counterexample

__getattr__ = lazy_exports(__name__, {
    ".cec": ("CecResult", "check_equivalence"),
    ".fraig": ("SweepEngine", "SweepOptions", "SweepStats"),
    ".outputs": ("OutputVerdict", "OutputsReport", "check_outputs"),
    ".reduce": ("ReduceResult", "certified_reduce", "fraig_reduce"),
    ".serialize": ("RESULT_SCHEMA", "ResultFormatError", "result_from_dict",
                   "result_to_dict", "verdict_name"),
    ".stitch": ("EquivLemma", "StitchError", "StructuralStitcher",
                "derive_subset"),
    ".witness": ("MinimizedWitness", "minimize_counterexample"),
})

__all__ = [
    "CecResult",
    "CertificationError",
    "EquivLemma",
    "StitchError",
    "StructuralStitcher",
    "SweepEngine",
    "SweepOptions",
    "SweepStats",
    "OutputVerdict",
    "OutputsReport",
    "RESULT_SCHEMA",
    "ReduceResult",
    "ResultFormatError",
    "check_outputs",
    "MinimizedWitness",
    "minimize_counterexample",
    "certified_reduce",
    "fraig_reduce",
    "certify",
    "check_equivalence",
    "derive_subset",
    "result_from_dict",
    "result_to_dict",
    "verdict_name",
]
