"""The text report of a lint run."""

from __future__ import annotations

from typing import List, Sequence

from repro.lint.engine import Finding


def render_text(findings: Sequence[Finding], files_scanned: int) -> str:
    """One ``path:line:col: RULE message`` per finding, then a one-line
    summary."""
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.location()}: {finding.rule}"
                     f"[{finding.name}] {finding.message}")
    plural = "s" if len(findings) != 1 else ""
    lines.append(f"simlint: {len(findings)} finding{plural}, "
                 f"{files_scanned} files scanned")
    return "\n".join(lines)
