"""docs-check: every documented catalog and its doc page stay in lock-step.

One contract shape for three catalogs — trace event types and
``docs/tracing.md``, metric names and ``docs/metrics.md``, simlint rule
ids and ``docs/lint.md``: every cataloged entry has exactly one
``### `entry``` section, every such section names a cataloged entry, and
catalog fields are one-liners.  The trace and metrics planes are also
checked against a live end-to-end run.

Run via ``make docs-check`` (or as part of the normal suite).
"""

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Tuple

import pytest

from repro.experiments.common import measure_send
from repro.lint import rule_classes
from repro.metrics import KINDS, METRICS, MetricsSession
from repro.schemes import DcsCtrlScheme
from repro.trace import EVENT_TYPES, TraceSession

DOCS = Path(__file__).resolve().parent.parent / "docs"


def _traced_types() -> Set[str]:
    with TraceSession(label="docscheck") as session:
        measure_send(DcsCtrlScheme, "md5")
    return {event.type for event in session.all_events()}


def _metered_names() -> Set[str]:
    with MetricsSession(label="docscheck") as session:
        measure_send(DcsCtrlScheme, "md5")
    return {metric.name for metric_set in session.sets
            for metric in metric_set.series()}


@dataclass(frozen=True)
class Contract:
    doc: str
    # group 1: the entry a section documents; group 2: rest of the line.
    heading: str
    # entry -> its one-line catalog fields.
    catalog: Callable[[], Dict[str, Tuple[str, ...]]]
    # entry -> the text its heading must carry after the entry.
    heading_text: Optional[Callable[[], Dict[str, str]]] = None
    # the entries a real end-to-end run emits.
    live: Optional[Callable[[], Set[str]]] = None

    def documented(self) -> list:
        text = (DOCS / self.doc).read_text(encoding="utf-8")
        return [(entry, rest.strip()) for entry, rest
                in re.findall(self.heading, text, re.MULTILINE)]


CONTRACTS = {
    "trace": Contract(
        doc="tracing.md", heading=r"^###\s+`([a-z0-9_.-]+)`(.*)$",
        catalog=lambda: {t: (d,) for t, d in EVENT_TYPES.items()},
        live=_traced_types),
    "metrics": Contract(
        doc="metrics.md", heading=r"^###\s+`([a-z0-9_.-]+)`(.*)$",
        catalog=lambda: {name: (unit, description) for name, (_, unit,
                         description) in METRICS.items()},
        live=_metered_names),
    "lint": Contract(
        doc="lint.md", heading=r"^###\s+`([A-Z]+[0-9]+)`(.*)$",
        catalog=lambda: {cls.id: (cls.name,) for cls in rule_classes()},
        heading_text=lambda: {cls.id: cls.name for cls in rule_classes()}),
}


def _each(*, having: str = "doc"):
    return pytest.mark.parametrize(
        "contract", [pytest.param(contract, id=name) for name, contract
                     in CONTRACTS.items()
                     if getattr(contract, having) is not None])


class TestContract:
    @_each()
    def test_every_cataloged_entry_is_documented(self, contract):
        documented = {entry for entry, _ in contract.documented()}
        missing = sorted(set(contract.catalog()) - documented)
        assert not missing, (
            f"cataloged but missing a '### `entry`' section in "
            f"docs/{contract.doc}: {missing}")

    @_each()
    def test_every_documented_entry_is_cataloged(self, contract):
        catalog = contract.catalog()
        unknown = sorted(entry for entry, _ in contract.documented()
                         if entry not in catalog)
        assert not unknown, (
            f"docs/{contract.doc} documents entries the catalog does not "
            f"register: {unknown}")

    @_each()
    def test_no_duplicate_doc_sections(self, contract):
        entries = [entry for entry, _ in contract.documented()]
        assert entries
        assert len(entries) == len(set(entries))

    @_each()
    def test_catalog_fields_are_one_liners(self, contract):
        for entry, fields in contract.catalog().items():
            for field in fields:
                assert field and "\n" not in field, entry

    @_each(having="heading_text")
    def test_headings_carry_the_catalog_text(self, contract):
        expected = contract.heading_text()
        for entry, rest in contract.documented():
            assert rest == expected[entry], (
                f"docs/{contract.doc} heading for {entry} says {rest!r}; "
                f"the catalog says {expected[entry]!r}")

    @_each(having="live")
    def test_live_run_emits_only_documented_entries(self, contract):
        # Belt and braces on top of the planes' runtime checks: a real
        # end-to-end run emits nothing outside the documented catalog.
        emitted = contract.live()
        assert emitted  # the run actually observed something
        assert emitted <= {entry for entry, _ in contract.documented()}

    def test_every_metric_has_a_valid_kind(self):
        for name, (kind, _, _) in METRICS.items():
            assert kind in KINDS, name
