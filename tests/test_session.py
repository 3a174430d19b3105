"""The shared observation-session mechanism (repro.sim.session)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.common import measure_send
from repro.metrics import MetricsSession, csv_lines
from repro.schemes import DcsCtrlScheme
from repro.sim import Simulator
from repro.sim.session import installed, section
from repro.trace import TraceSession, jsonl_lines

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSection:
    def test_labels_both_planes_in_one_call(self):
        with TraceSession(label="outer") as trace, \
                MetricsSession(label="outer") as metrics:
            with section("inner"):
                sim = Simulator()
            after = Simulator()
        assert sim.tracer.label == "inner/sim0"
        assert sim.metrics.label == "inner/sim0"
        assert after.tracer.label == "outer/sim1"
        assert after.metrics.label == "outer/sim1"
        assert trace.tracers == [sim.tracer, after.tracer]
        assert metrics.sets == [sim.metrics, after.metrics]

    def test_restores_both_labels_when_the_block_raises(self):
        with TraceSession(label="outer"), MetricsSession(label="outer"):
            with pytest.raises(RuntimeError):
                with section("inner"):
                    raise RuntimeError("experiment failed")
            sim = Simulator()
        assert sim.tracer.label == "outer/sim0"
        assert sim.metrics.label == "outer/sim0"

    def test_only_installed_planes_are_equipped(self):
        with MetricsSession():
            sim = Simulator()
            assert installed("tracer") is None
        assert sim.tracer is None
        assert sim.metrics is not None
        assert installed("metrics") is None


def _observed_run(trace_first: bool):
    trace, metrics = TraceSession(label="run"), MetricsSession(label="run")
    first, second = (trace, metrics) if trace_first else (metrics, trace)
    with first, second:
        measure_send(DcsCtrlScheme, "md5")
    return "\n".join(jsonl_lines(trace)), "\n".join(csv_lines(metrics))


def test_install_order_does_not_change_either_output():
    trace_a, csv_a = _observed_run(trace_first=True)
    trace_b, csv_b = _observed_run(trace_first=False)
    assert trace_a and csv_a
    assert trace_a == trace_b
    assert csv_a == csv_b


def test_kernel_imports_no_observation_plane():
    # A fresh interpreter: this process has long since loaded both planes.
    loaded = subprocess.run(  # simlint: disable=SIM003
        [sys.executable, "-c",
         "import sys, repro.sim.kernel; print(*sorted(sys.modules))"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        check=True).stdout.split()
    assert "repro.sim.session" in loaded
    planes = [name for name in loaded
              if name.startswith(("repro.trace", "repro.metrics"))]
    assert planes == []
