"""And-Inverter Graph package: data structure, I/O, miters, simulation."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from .aig import AIG
    from .aiger import (
        AigerError,
        read_aag,
        read_aig,
        read_auto,
        write_aag,
        write_aig,
    )
    from .cuts import Cut, cut_function, enumerate_cuts
    from .dot import write_dot
    from .literal import (
        FALSE,
        TRUE,
        is_const,
        lit_not,
        lit_not_cond,
        lit_regular,
        lit_sign,
        lit_to_str,
        lit_var,
        make_lit,
    )
    from .miter import Miter, build_miter, match_interfaces_by_name
    from .npn import cut_class_histogram, npn_canon, npn_classes
    from .simulate import Simulator, random_equivalence_test, simulate_once
    from .structhash import node_digests, pair_key, structural_hash

__getattr__ = lazy_exports(__name__, {
    ".aig": ("AIG",),
    ".aiger": ("AigerError", "read_aag", "read_aig", "read_auto",
               "write_aag", "write_aig"),
    ".cuts": ("Cut", "cut_function", "enumerate_cuts"),
    ".dot": ("write_dot",),
    ".literal": ("FALSE", "TRUE", "is_const", "lit_not", "lit_not_cond",
                 "lit_regular", "lit_sign", "lit_to_str", "lit_var",
                 "make_lit"),
    ".miter": ("Miter", "build_miter", "match_interfaces_by_name"),
    ".npn": ("cut_class_histogram", "npn_canon", "npn_classes"),
    ".simulate": ("Simulator", "random_equivalence_test", "simulate_once"),
    ".structhash": ("node_digests", "pair_key", "structural_hash"),
})

__all__ = [
    "AIG",
    "AigerError",
    "Cut",
    "cut_function",
    "cut_class_histogram",
    "enumerate_cuts",
    "npn_canon",
    "npn_classes",
    "write_dot",
    "FALSE",
    "TRUE",
    "Miter",
    "Simulator",
    "build_miter",
    "match_interfaces_by_name",
    "is_const",
    "lit_not",
    "lit_not_cond",
    "lit_regular",
    "lit_sign",
    "lit_to_str",
    "lit_var",
    "make_lit",
    "node_digests",
    "pair_key",
    "random_equivalence_test",
    "read_aag",
    "read_aig",
    "read_auto",
    "simulate_once",
    "structural_hash",
    "write_aag",
    "write_aig",
]
