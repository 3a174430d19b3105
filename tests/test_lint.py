"""The simlint engine: rules, inline suppressions, CLI, self-check.

The deliberate-violation fixtures live in ``tests/lint_fixtures`` (one
file per rule, excluded from the default walk); violating snippets used
inline here are kept in string literals so that the meta-test — this
repo lints clean — keeps passing over this very file.
"""

from __future__ import annotations

import os
import subprocess  # simlint: disable=SIM003
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (DEFAULT_PATHS, lint_paths, lint_source, module_name,
                        rule_classes, rule_ids)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def _lint(snippet: str, path: str = "src/repro/somewhere.py"):
    return lint_source(textwrap.dedent(snippet), path)


def _rules_of(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# one fixture per rule
# ---------------------------------------------------------------------------

class TestFixtures:
    @pytest.mark.parametrize("rule_id", rule_ids())
    def test_each_rule_has_a_fixture_that_fires_exactly_it(self, rule_id):
        matches = list(FIXTURES.glob(f"{rule_id.lower()}_*.py"))
        assert len(matches) == 1, \
            f"expected exactly one fixture named {rule_id.lower()}_*.py"
        findings = lint_source(matches[0].read_text(encoding="utf-8"),
                               matches[0].as_posix())
        assert _rules_of(findings) == [rule_id], (
            f"fixture {matches[0].name} should trip {rule_id} exactly "
            f"once, got {[(f.rule, f.line, f.message) for f in findings]}")

    def test_no_stray_fixture_files(self):
        known = {rule_id.lower() for rule_id in rule_ids()}
        for path in FIXTURES.glob("*.py"):
            prefix = path.name.split("_")[0]
            assert prefix in known, f"fixture {path.name} matches no rule"


# ---------------------------------------------------------------------------
# rule behavior details
# ---------------------------------------------------------------------------

class TestRuleScoping:
    def test_rng_hub_module_is_exempt_from_det001(self):
        findings = _lint("import random\nx = random.random()\n",
                         "src/repro/sim/rng.py")
        assert "DET001" not in _rules_of(findings)

    def test_experiments_may_read_wall_clock_and_spawn(self):
        snippet = ("import time\nimport subprocess\n"
                   "t = time.perf_counter()\n"
                   "subprocess.run(['true'])\n")
        assert _lint(snippet, "src/repro/experiments/host.py") == []
        findings = _lint(snippet, "src/repro/devices/nvme.py")
        assert set(_rules_of(findings)) == {"DET002", "SIM003"}

    def test_discarded_process_is_flagged_only_on_a_simulator(self):
        snippet = ("def start(self, sim, tb, bank, work):\n"
                   "    sim.process(work())\n"
                   "    self._sim.process(work())\n"
                   "    tb.sim.process(work())\n"
                   "    bank.process(work())\n"
                   "    proc = sim.process(work())\n"
                   "    sim.spawn(work())\n"
                   "    return proc\n")
        findings = _lint(snippet, "src/repro/devices/nvme.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("SIM004", 2), ("SIM004", 3), ("SIM004", 4)]
        # A test may start an unwatched process on purpose.
        assert _lint(snippet, "tests/test_devices.py") == []

    def test_sim_package_owns_heapq(self):
        assert _lint("import heapq\n", "src/repro/sim/kernel.py") == []
        assert _rules_of(_lint("import heapq\n",
                               "src/repro/devices/nvme.py")) == ["SIM001"]

    def test_module_name_anchors_at_repro(self):
        assert module_name("src/repro/sim/rng.py") == "repro.sim.rng"
        assert module_name("tests/test_lint.py") == "tests.test_lint"


class TestCleanConstructs:
    """Idioms the rules must NOT flag (false-positive guards)."""

    CLEAN = [
        "x = rng.stream('nic').randint(1, 10)",           # hub stream
        "r = random.Random(42)",                          # seeded
        "streams[flow.uid] = stream",                     # uid key
        "order = sorted(links, key=lambda l: l.name)",    # stable sort
        "for name in sorted(self._names): use(name)",     # sorted set
        "s = set(xs)\nn = len(s)",                        # set, no loop
        "if now == deadline: fire()",                     # int eq
        "ratio = now / 1.5",                              # float arithmetic
        "tracer.begin('request', track='t')",             # cataloged type
        "trace.span('read')",                             # LatencyTrace API
        "irq.register(port, handler)",                    # not a metric call
        "engine.register('md5', fn)",                     # NDP fn, not metric
    ]

    @pytest.mark.parametrize("snippet", CLEAN)
    def test_not_flagged(self, snippet):
        assert _lint(snippet + "\n") == []

    def test_known_metric_trace_fault_names_pass(self):
        snippet = ("ms.counter('faults.injected', node='n')\n"
                   "plan.fires('nic.wire_drop')\n")
        assert _lint(snippet) == []


class TestSuppressions:
    def test_inline_disable_silences_that_rule(self):
        src = "streams[id(flow)] = s  # simlint: disable=DET003\n"
        assert lint_source(src, "x.py") == []

    def test_inline_disable_wrong_rule_does_not_silence(self):
        src = "streams[id(flow)] = s  # simlint: disable=DET004\n"
        assert _rules_of(lint_source(src, "x.py")) == ["DET003"]

    def test_disable_all_silences_everything_on_the_line(self):
        src = ("import time\n"
               "t = time.time() or time.sleep(1)  # simlint: disable=all\n")
        assert lint_source(src, "x.py") == []

    def test_disable_is_per_line(self):
        src = ("a[id(x)] = 1  # simlint: disable=DET003\n"
               "b[id(y)] = 2\n")
        findings = lint_source(src, "x.py")
        assert [(f.rule, f.line) for f in findings] == [("DET003", 2)]

    def test_no_file_level_opt_out(self):
        src = "# simlint: skip-file\nimport heapq\n"
        assert _rules_of(lint_source(src, "x.py")) == ["SIM001"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run_cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(  # simlint: disable=SIM003
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        proc = _run_cli("clean.py", cwd=tmp_path)
        assert proc.returncode == 0
        assert "0 findings" in proc.stdout

    def test_violation_exits_one_naming_rule_and_line(self, tmp_path):
        (tmp_path / "bad.py").write_text("\nstreams[id(f)] = s\n",
                                         encoding="utf-8")
        proc = _run_cli("bad.py", cwd=tmp_path)
        assert proc.returncode == 1
        assert "bad.py:2" in proc.stdout
        assert "DET003" in proc.stdout

    def test_a_lint_baseline_file_silences_nothing(self, tmp_path):
        (tmp_path / "bad.py").write_text("streams[id(f)] = s\n",
                                         encoding="utf-8")
        # The entry the old grandfathering file held for this finding.
        (tmp_path / "lint-baseline.txt").write_text(
            "DET003 871f9c86c999 bad.py:1:0  # grandfathered\n",
            encoding="utf-8")
        proc = _run_cli("bad.py", cwd=tmp_path)
        assert proc.returncode == 1
        assert "bad.py:1" in proc.stdout

    @pytest.mark.parametrize("option", [
        "--update-baseline", "--json", "--no-baseline",
        "--baseline=lint-baseline.txt"])
    def test_removed_options_are_usage_errors(self, tmp_path, option):
        (tmp_path / "x.py").write_text("x = 1\n", encoding="utf-8")
        proc = _run_cli("x.py", option, cwd=tmp_path)
        assert proc.returncode == 2

    def test_unknown_path_exits_two(self, tmp_path):
        proc = _run_cli("no/such/dir", cwd=tmp_path)
        assert proc.returncode == 2

    def test_unknown_rule_exits_two(self, tmp_path):
        (tmp_path / "x.py").write_text("x = 1\n", encoding="utf-8")
        proc = _run_cli("x.py", "--rules", "NOPE999", cwd=tmp_path)
        assert proc.returncode == 2

    def test_rules_filter_limits_findings(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "import heapq\nstreams[id(f)] = s\n", encoding="utf-8")
        proc = _run_cli("bad.py", "--rules", "sim001", cwd=tmp_path)
        assert proc.returncode == 1
        assert "SIM001" in proc.stdout
        assert "DET003" not in proc.stdout

    def test_list_rules_names_every_rule(self, tmp_path):
        proc = _run_cli("--list-rules", cwd=tmp_path)
        assert proc.returncode == 0
        for rule_id in rule_ids():
            assert rule_id in proc.stdout


# ---------------------------------------------------------------------------
# registry + self-check
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_metadata_complete_and_unique(self):
        classes = rule_classes()
        ids = [cls.id for cls in classes]
        names = [cls.name for cls in classes]
        assert len(set(ids)) == len(ids)
        assert len(set(names)) == len(names)
        for cls in classes:
            assert cls.rationale, f"{cls.id} has no rationale"
            assert cls.example, f"{cls.id} has no example"

    def test_families(self):
        for rule_id in rule_ids():
            assert rule_id[:-3] in ("E", "DET", "SIM", "PLANE")


class TestRepositoryIsClean:
    def test_default_paths_lint_clean(self):
        findings = lint_paths([REPO_ROOT / path for path in DEFAULT_PATHS],
                              relative_to=REPO_ROOT)
        assert not findings, "simlint findings:\n" + "\n".join(
            f"  {f.location()}: {f.rule} {f.message}" for f in findings)
