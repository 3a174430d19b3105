"""The simlint CLI: ``python -m repro.lint [paths ...]``.

With no paths it lints :data:`repro.lint.DEFAULT_PATHS`.

Exit codes:

* ``0`` — no findings;
* ``1`` — at least one finding (each is printed with its rule id and
  location);
* ``2`` — usage error (unknown path, unknown rule id or option).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.lint.engine import (DEFAULT_PATHS, Finding, iter_python_files,
                               lint_file, rule_classes)
from repro.lint.report import render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: simulation-safety static analysis "
                    "(determinism, scheduling and plane-contract "
                    "invariants; see docs/lint.md)")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _select_rules(spec: str) -> list:
    classes = {cls.id: cls for cls in rule_classes()}
    selected = []
    for token in spec.split(","):
        rule_id = token.strip().upper()
        if not rule_id:
            continue
        if rule_id not in classes:
            raise SystemExit(
                f"simlint: unknown rule id {rule_id!r} "
                f"(known: {', '.join(sorted(classes))})")
        selected.append(classes[rule_id])
    if not selected:
        raise SystemExit("simlint: --rules selected nothing")
    return selected


def main(argv: List[str] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for cls in rule_classes():
            print(f"{cls.id}  {cls.name}: {cls.rationale}")
        return 0

    try:
        selected = _select_rules(args.rules) if args.rules else None
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    findings: List[Finding] = []
    files_scanned = 0
    for raw in args.paths:
        root = Path(raw)
        if not root.exists():
            print(f"simlint: no such path: {raw}", file=sys.stderr)
            return 2
        for file_path in iter_python_files(root):
            files_scanned += 1
            findings.extend(lint_file(file_path, selected))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    print(render_text(findings, files_scanned))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
