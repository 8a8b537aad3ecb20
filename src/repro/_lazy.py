"""Lazy package exports (PEP 562), shared by the ``repro`` packages.

A package ``__init__`` names its public API once, grouped by the
submodule that defines it, and imports nothing until a name is first
read::

    __getattr__ = lazy_exports(__name__, {
        ".aig": ("AIG",),
        ".aiger": ("read_aag", "write_aag"),
    })

A name re-exported under another name is given as a ``(name,
attribute)`` pair. So ``import repro.cli`` loads only the submodules
a run executes, not every sibling of each package it touches. Each
resolved name is cached on the package, so later reads skip the hook.
Type checkers do not run the hook: a package keeps its names
importable for them under ``if TYPE_CHECKING:``.

A name that is also a submodule of its package (``repro.core.certify``,
``repro.proof.trim``) must stay an eager import: importing the
submodule binds the module object to that package attribute, and the
hook would never be consulted again.
"""

import importlib
import sys
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple, Union

#: One export: a name, or a ``(name, attribute)`` pair for an alias.
Export = Union[str, Tuple[str, str]]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[Export]]
) -> Callable[[str], Any]:
    """Return a module ``__getattr__`` for *package*.

    Args:
        package: the package's ``__name__``.
        exports: submodule (relative, such as ``".aig"``, or absolute)
            -> the names it defines that the package re-exports.
    """
    table: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        for export in names:
            name, attr = (export, export) if isinstance(export, str) \
                else export
            table[name] = (module, attr)

    def __getattr__(name: str) -> Any:
        try:
            module_name, attr = table[name]
        except KeyError:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            ) from None
        value = getattr(importlib.import_module(module_name, package), attr)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
