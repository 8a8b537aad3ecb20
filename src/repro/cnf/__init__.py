"""CNF layer: clause containers, Tseitin encoding, DIMACS I/O."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .clause import CNF, is_tautology, normalize_clause
    from .dimacs import DimacsError, parse_dimacs, read_dimacs, write_dimacs
    from .tseitin import TseitinResult, tseitin_encode

__getattr__ = lazy_exports(__name__, {
    ".clause": ("CNF", "is_tautology", "normalize_clause"),
    ".dimacs": ("DimacsError", "parse_dimacs", "read_dimacs",
                "write_dimacs"),
    ".tseitin": ("TseitinResult", "tseitin_encode"),
})

__all__ = [
    "CNF",
    "DimacsError",
    "TseitinResult",
    "is_tautology",
    "normalize_clause",
    "parse_dimacs",
    "read_dimacs",
    "tseitin_encode",
    "write_dimacs",
]
