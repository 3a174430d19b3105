"""The simlint core: rule registry, per-file AST dispatch, suppressions.

A *rule* is a class with a unique ``id`` (``DET001``), a short ``name``
slug, a one-line ``rationale``, and any number of ``check_<NodeType>``
methods.  The engine parses each file once, builds a parent map, and
walks the tree a single time, dispatching every node to the rules that
declared a checker for its type.  Rules are instantiated fresh per file
(they may keep per-module state collected in :meth:`Rule.begin_module`).

A finding is silenced only inline: a ``# simlint: disable=DET003``
comment on the finding's line (comma-separate several ids;
``disable=all`` silences every rule on that line).

The walk is deliberately deterministic: files are scanned in sorted
order and findings are sorted by ``(path, line, col, rule)``, so the
linter's own output is as reproducible as the simulator it guards.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

_SUPPRESS = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: What ``python -m repro.lint`` (and so ``make lint``) lints when given
#: no paths, and what ``tests/test_lint.py`` holds to zero findings.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: Directory names the recursive walker never descends into.  The
#: deliberate-violation fixture tree lives in ``tests/lint_fixtures``
#: and is only ever linted explicitly by the lint test suite.
EXCLUDED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis",
                           ".pytest_cache", "lint_fixtures"})


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    name: str
    path: str            # posix-style path as scanned
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class Rule:
    """Base class for lint rules; subclasses self-register via
    :func:`register`.

    ``scope`` documents *where the rule applies* (see
    :meth:`applies_to`); ``example`` is the canonical violating snippet
    shown in ``docs/lint.md``.
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    example: str = ""

    def applies_to(self, ctx: "ModuleContext") -> bool:
        """False exempts the whole module (e.g. the RNG hub itself)."""
        return True

    def begin_module(self, ctx: "ModuleContext") -> None:
        """Optional pre-pass over ``ctx.tree`` before node dispatch."""


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id or not cls.name or not cls.rationale:
        raise ValueError(f"rule {cls.__name__} needs id, name, rationale")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def rule_classes() -> List[Type[Rule]]:
    """Every registered rule class, sorted by id (imports the catalog)."""
    from repro.lint import rules as _rules  # noqa: F401  (self-registers)
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    return [cls.id for cls in rule_classes()]


class ModuleContext:
    """Everything a rule may ask about the file being linted."""

    def __init__(self, path: str, tree: ast.AST):
        self.path = path
        self.module = module_name(path)
        self.tree = tree
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)


def module_name(path: str) -> str:
    """Dotted module name for scoping decisions.

    Anchored at the last ``repro`` path component when present
    (``src/repro/sim/rng.py`` → ``repro.sim.rng``); otherwise the
    path's parts (``tests/test_lint.py`` → ``tests.test_lint``).
    """
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    return ".".join(part for part in parts if part not in (".", ".."))


def _suppressions(lines: Sequence[str]) -> Dict[int, set]:
    table: Dict[int, set] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS.search(text)
        if match:
            ids = {token.strip().upper()
                   for token in match.group(1).split(",") if token.strip()}
            table[lineno] = ids
    return table


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Iterable[Type[Rule]]] = None
                ) -> List[Finding]:
    """Lint one source text; returns its findings, sorted."""
    classes = list(rules) if rules is not None else rule_classes()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule="E001", name="syntax-error", path=path,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"file does not parse: {exc.msg}")]
    ctx = ModuleContext(path, tree)
    suppressed = _suppressions(source.splitlines())
    dispatch: Dict[str, List] = {}
    for cls in classes:
        rule = cls()
        if not rule.applies_to(ctx):
            continue
        rule.begin_module(ctx)
        for attr in dir(rule):
            if attr.startswith("check_"):
                dispatch.setdefault(attr[len("check_"):], []).append(
                    (rule, getattr(rule, attr)))
    findings: List[Finding] = []
    for node in ast.walk(tree):
        for rule, checker in dispatch.get(type(node).__name__, ()):
            for where, message in checker(node, ctx):
                lineno = getattr(where, "lineno", 1)
                ids = suppressed.get(lineno)
                if ids and (rule.id in ids or "ALL" in ids):
                    continue
                findings.append(Finding(
                    rule=rule.id, name=rule.name, path=path,
                    line=lineno, col=getattr(where, "col_offset", 0),
                    message=message))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: Path,
              rules: Optional[Iterable[Type[Rule]]] = None,
              display_path: Optional[str] = None) -> List[Finding]:
    shown = display_path if display_path is not None else path.as_posix()
    return lint_source(path.read_text(encoding="utf-8"), shown, rules)


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``*.py`` under ``root``, skipping :data:`EXCLUDED_DIRS`,
    in sorted order."""
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        if EXCLUDED_DIRS.isdisjoint(path.parts):
            yield path


def lint_paths(paths: Sequence[Path],
               rules: Optional[Iterable[Type[Rule]]] = None,
               relative_to: Optional[Path] = None) -> List[Finding]:
    """Lint files and directory trees; paths in findings are shown
    relative to ``relative_to`` (when given and possible)."""
    findings: List[Finding] = []
    for root in paths:
        for file_path in iter_python_files(root):
            shown = file_path
            if relative_to is not None:
                try:
                    shown = file_path.resolve().relative_to(
                        relative_to.resolve())
                except ValueError:
                    pass
            findings.extend(lint_file(file_path, rules,
                                      display_path=shown.as_posix()))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
