"""Tests for traces, projections and table rendering."""

import inspect

import pytest

from repro.analysis import (LatencyTrace, NULL_TRACE, ScalabilityProjection,
                            format_table, project_cores)
from repro.core.driver import HdcDriver
from repro.core.library import HdcLibrary
from repro.host.drivers.gpu_driver import HostGpuDriver
from repro.host.drivers.nic_driver import HostNicDriver
from repro.host.drivers.nvme_driver import HostNvmeDriver
from repro.host.kernel.kernel import HostKernel
from repro.schemes import ALL_SCHEMES
from repro.schemes.base import Scheme
from repro.sim import Simulator
from repro.units import usec


@pytest.fixture
def sim():
    return Simulator()


class TestLatencyTrace:
    def test_span_attributes_wall_time(self, sim):
        trace = LatencyTrace(sim)

        def body(sim):
            with trace.span("read"):
                yield sim.timeout(usec(5))
            with trace.span("send"):
                yield sim.timeout(usec(3))

        sim.run(until=sim.process(body(sim)))
        trace.finish()
        assert trace.segments["read"] == usec(5)
        assert trace.segments["send"] == usec(3)
        assert trace.total == usec(8)
        assert trace.total_us == pytest.approx(8.0)

    def test_nested_spans_both_count(self, sim):
        trace = LatencyTrace(sim)

        def body(sim):
            with trace.span("outer"):
                with trace.span("inner"):
                    yield sim.timeout(100)

        sim.run(until=sim.process(body(sim)))
        assert trace.segments["outer"] == 100
        assert trace.segments["inner"] == 100

    def test_span_survives_exceptions(self, sim):
        trace = LatencyTrace(sim)

        def body(sim):
            try:
                with trace.span("work"):
                    yield sim.timeout(50)
                    raise ValueError("boom")
            except ValueError:
                pass

        sim.run(until=sim.process(body(sim)))
        assert trace.segments["work"] == 50

    def test_breakdown_sorted_by_share(self, sim):
        trace = LatencyTrace(sim)
        trace.add("small", 10)
        trace.add("big", 1000)
        keys = list(trace.breakdown_us())
        assert keys == ["big", "small"]

    def test_unattributed(self, sim):
        trace = LatencyTrace(sim)

        def body(sim):
            with trace.span("covered"):
                yield sim.timeout(30)
            yield sim.timeout(70)  # not covered by any span

        sim.run(until=sim.process(body(sim)))
        trace.finish()
        assert trace.unattributed() == 70

    def test_null_trace_is_inert(self, sim):
        with NULL_TRACE.span("anything"):
            pass
        NULL_TRACE.add("x", 5)
        NULL_TRACE.finish()  # no state, no errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestOneAttributionPath:
    """The request trace rides on the process: no layer below a scheme
    op, and no scheme op, takes it as an argument."""

    CLASSES = [HostKernel, HostNvmeDriver, HostNicDriver, HostGpuDriver,
               HdcDriver, HdcLibrary, Scheme, *_subclasses(Scheme)]

    def test_every_scheme_is_scanned(self):
        assert set(ALL_SCHEMES.values()) <= set(self.CLASSES)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_no_method_takes_a_trace_parameter(self, cls):
        offenders = [
            name for name, method in inspect.getmembers(
                cls, inspect.isfunction)
            if "trace" in inspect.signature(method).parameters]
        assert offenders == [], f"{cls.__name__}: {offenders}"


class TestProjection:
    def test_linear_scaling(self):
        p = ScalabilityProjection(scheme="x", measured_gbps=10.0,
                                  measured_core_equivalents=1.0,
                                  target_gbps=40.0, cpu_core_budget=6)
        assert p.cores_per_gbps == pytest.approx(0.1)
        assert p.cores_needed_at_target == pytest.approx(4.0)
        assert p.achievable_gbps == pytest.approx(40.0)  # under budget
        assert p.cores_at(20.0) == pytest.approx(2.0)

    def test_core_budget_caps_throughput(self):
        p = ScalabilityProjection(scheme="x", measured_gbps=10.0,
                                  measured_core_equivalents=3.0,
                                  target_gbps=40.0, cpu_core_budget=6)
        assert p.cores_needed_at_target == pytest.approx(12.0)
        assert p.achievable_gbps == pytest.approx(20.0)

    def test_project_cores_builds_all(self):
        projections = project_cores({"a": (10.0, 1.0), "b": (10.0, 3.0)})
        assert {p.scheme for p in projections} == {"a", "b"}

    def test_zero_throughput_rejected(self):
        p = ScalabilityProjection(scheme="x", measured_gbps=0.0,
                                  measured_core_equivalents=1.0,
                                  target_gbps=40.0, cpu_core_budget=6)
        with pytest.raises(ValueError):
            _ = p.cores_per_gbps


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["name", "value"],
                            [["short", 1], ["a-longer-name", 22.5]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a-longer-name" in text
        assert "22.50" in text  # floats get two decimals
        # All rows align to the same width.
        assert len(set(len(line) for line in lines[1:])) <= 2

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
