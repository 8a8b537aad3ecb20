"""Static analysis: proof/netlist linting and codebase rules.

Five replay-free analysis passes plus one CLI (``repro-lint``):

* :mod:`repro.analyze.proof_lint` — structural invariants of
  resolution proofs (stores, TraceCheck traces, DRUP files) checked
  without replaying a single resolution.
* :mod:`repro.analyze.aig_lint` — AIG/miter well-formedness and
  Tseitin-encoding schema validation.
* :mod:`repro.analyze.ast_rules` — project-specific Python AST rules
  over the ``repro`` sources themselves.
* :mod:`repro.analyze.concurrency` — concurrency-hazard rules for the
  threads / process pools / shared-memory stack.
* :mod:`repro.analyze.schema_drift` — drift between producers,
  consumers, and the declarative schema registry
  (:mod:`repro.analyze.schemas`).

All passes emit :class:`~repro.analyze.findings.Finding` objects and
aggregate into the ``repro-lint/1`` JSON schema
(:class:`~repro.analyze.findings.LintReport`). Error-severity proof
findings are sound rejections — :func:`repro.core.certify.certify` uses
them as a fast pre-replay gate via ``lint=True`` — while a clean lint
never substitutes for the full checker. Rule ids and the severity
policy are catalogued in ``docs/static-analysis.md``.

This package is also the home of the document-schema validators CI and
tests reach for: ``repro-lint/1`` (here), plus re-exports of the
``repro-stats/1``, ``repro-trace/1``, and ``repro-metrics/1``
validators from :mod:`repro.instrument` so one import site covers
every versioned JSON artifact the tools emit.

Only :mod:`~repro.analyze.schemas` loads eagerly; everything else
resolves lazily (PEP 562, :mod:`repro._lazy`). That keeps this package
a safe leaf dependency: low layers like
:mod:`repro.instrument.recorder` import their schema tags from
``repro.analyze.schemas`` without dragging in — or cycling through —
the analysis passes themselves.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from . import schemas  # noqa: F401  (the eager leaf: schema registry)

if TYPE_CHECKING:  # resolved lazily at runtime via __getattr__
    from ..instrument.metrics import validate_metrics_report
    from ..instrument.recorder import validate_report as validate_stats_report
    from ..instrument.tracing import validate_trace_report
    from .aig_lint import lint_aig, lint_encoding, lint_miter
    from .ast_rules import lint_file, lint_package, lint_source
    from .findings import (
        ERROR,
        INFO,
        LINT_SCHEMA,
        WARNING,
        Finding,
        LintReport,
        validate_lint_report,
    )
    from .proof_lint import lint_drup_file, lint_proof, lint_tracecheck_file

__getattr__ = lazy_exports(__name__, {
    ".aig_lint": ("lint_aig", "lint_encoding", "lint_miter"),
    ".ast_rules": ("lint_file", "lint_package", "lint_source"),
    ".findings": ("ERROR", "INFO", "LINT_SCHEMA", "WARNING", "Finding",
                  "LintReport", "validate_lint_report"),
    ".proof_lint": ("lint_drup_file", "lint_proof", "lint_tracecheck_file"),
    "..instrument.metrics": ("validate_metrics_report",),
    "..instrument.recorder": (("validate_stats_report", "validate_report"),),
    "..instrument.tracing": ("validate_trace_report",),
})

__all__ = [
    "ERROR",
    "Finding",
    "INFO",
    "LINT_SCHEMA",
    "LintReport",
    "WARNING",
    "lint_aig",
    "lint_drup_file",
    "lint_encoding",
    "lint_file",
    "lint_miter",
    "lint_package",
    "lint_proof",
    "lint_source",
    "lint_tracecheck_file",
    "schemas",
    "validate_lint_report",
    "validate_metrics_report",
    "validate_stats_report",
    "validate_trace_report",
]

