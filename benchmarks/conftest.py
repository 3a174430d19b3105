"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures and
prints the reproduced rows (run with ``-s`` to see them inline; they
are also validated by assertions).  The simulations are deterministic,
so one round per benchmark is meaningful — pytest-benchmark's role here
is to time the reproduction itself and keep a uniform harness.

Each :class:`ExperimentResult` a benchmark regenerates is also pinned in
``golden.json``, keyed by the runner's name: its metrics as exact
``repr`` strings and its table rows.  A missing entry is written; a
present one must match.  To accept an intended change, delete the entry,
rerun, and review the diff.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.result import ExperimentResult

GOLDEN = Path(__file__).with_name("golden.json")


def _pinned(result: ExperimentResult) -> dict:
    return {"metrics": {key: repr(value)
                        for key, value in result.metrics.items()},
            "rows": json.loads(json.dumps(result.rows))}


def _check_golden(name: str, result: ExperimentResult) -> None:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pinned = _pinned(result)
    if name not in golden:
        golden[name] = pinned
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
        return
    assert pinned == golden[name], (
        f"{name} differs from {GOLDEN.name}; to accept the change, "
        "delete its entry, rerun and review the diff")


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark clock."""

    def _run(fn, *args, **kwargs):
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                    rounds=1, iterations=1, warmup_rounds=0)
        if isinstance(result, ExperimentResult):
            _check_golden(fn.__name__, result)
        return result

    return _run
