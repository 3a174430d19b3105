"""simlint: simulation-safety static analysis for this repository.

The repo's headline guarantees — byte-identical traces, golden metrics
CSVs, seeded fault streams — rest on invariants that code review keeps
missing (``id()``-keyed dicts, stray wall-clock reads, uncataloged
metric names).  This package turns each invariant into an AST-level
rule and a CI gate::

    python -m repro.lint                  # src tests benchmarks examples
    python -m repro.lint --list-rules

Three rule families: **DET** (determinism), **SIM** (event-loop
scheduling), **PLANE** (metrics/trace/fault catalog contracts).  The
full catalog, with rationale and examples per rule, is documented in
``docs/lint.md`` and kept in lock-step by ``tests/test_docs_contract.py``
— the one docs contract the metrics and tracing planes share.

The one way to silence a finding is an inline
``# simlint: disable=RULE`` comment on its line.
"""

from repro.lint.engine import (DEFAULT_PATHS, EXCLUDED_DIRS, Finding,
                               ModuleContext, Rule, iter_python_files,
                               lint_file, lint_paths, lint_source,
                               module_name, register, rule_classes,
                               rule_ids)
from repro.lint.report import render_text

__all__ = [
    "DEFAULT_PATHS", "EXCLUDED_DIRS", "Finding", "ModuleContext", "Rule",
    "iter_python_files", "lint_file", "lint_paths", "lint_source",
    "module_name", "register", "rule_classes", "rule_ids", "render_text",
]
