"""Golden-metrics determinism: same seed => byte-identical CSV, and
sampling never perturbs the event order of the run it observes."""

from repro.core.command import D2DKind
from repro.experiments.common import measure_send
from repro.faults import FaultPlan, FaultRule
from repro.metrics import MetricsSession, csv_lines
from repro.metrics import jsonl_lines as metrics_jsonl_lines
from repro.schemes import DcsCtrlScheme, SwOptScheme, Testbed
from repro.trace import TraceSession, jsonl_lines
from repro.units import KIB


def _metered_run(scheme_cls, processing):
    with MetricsSession(label="golden") as session:
        measure_send(scheme_cls, processing, seed=7)
    return session


def _faulty_run():
    """A D2D transfer that injects a flash error and recovers."""
    with MetricsSession(label="faulty") as session:
        tb = Testbed(seed=21, faults=FaultPlan(
            (FaultRule("flash.read", occurrences={1}),)))
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        driver = tb.node0.driver

        def body(sim):
            yield from driver.submit(D2DKind.SSD_TO_HOST, src=0, dst=buf,
                                     length=4 * KIB)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert proc.ok
        assert tb.node0.engine.nvme_ctrl.client.retries == 1
    return session


class TestDeterminism:
    def test_csv_byte_identical_across_runs(self):
        first = "\n".join(csv_lines(_metered_run(DcsCtrlScheme, "md5")))
        second = "\n".join(csv_lines(_metered_run(DcsCtrlScheme, "md5")))
        assert first == second

    def test_csv_byte_identical_for_host_path_too(self):
        first = "\n".join(csv_lines(_metered_run(SwOptScheme, None)))
        second = "\n".join(csv_lines(_metered_run(SwOptScheme, None)))
        assert first == second

    def test_csv_byte_identical_with_faults_injected(self):
        # Recovery machinery (watchdogs, retries, backoff) runs under
        # sampling; the fault counters themselves are series.  The whole
        # thing must still replay byte-for-byte.
        first = "\n".join(csv_lines(_faulty_run()))
        second = "\n".join(csv_lines(_faulty_run()))
        assert first == second
        assert "faults.injected" in first
        assert "faults.retries" in first

    def test_jsonl_byte_identical_across_runs(self):
        first = "\n".join(
            metrics_jsonl_lines(_metered_run(DcsCtrlScheme, None)))
        second = "\n".join(
            metrics_jsonl_lines(_metered_run(DcsCtrlScheme, None)))
        assert first == second


class TestSamplingDoesNotPerturb:
    def test_trace_identical_with_and_without_metrics(self):
        # The strongest no-observer-effect statement available: the full
        # event trace of a sampled run is byte-identical to an unsampled
        # one, so sampling cannot have reordered or added any event.
        with TraceSession(label="plain") as plain:
            measure_send(DcsCtrlScheme, "md5", seed=7)
        with TraceSession(label="plain") as sampled:
            with MetricsSession(label="metered"):
                measure_send(DcsCtrlScheme, "md5", seed=7)
        assert ("\n".join(jsonl_lines(plain))
                == "\n".join(jsonl_lines(sampled)))

    def test_result_identical_with_and_without_metrics(self):
        bare = measure_send(DcsCtrlScheme, None, seed=7)
        with MetricsSession(label="metered"):
            metered = measure_send(DcsCtrlScheme, None, seed=7)
        assert bare.latency_us == metered.latency_us
        assert bare.trace.breakdown_us() == metered.trace.breakdown_us()

    def test_csv_identical_with_and_without_trace(self):
        # The reverse direction: tracing cannot perturb what the metrics
        # plane samples, so both planes can share one run.
        bare = "\n".join(csv_lines(_metered_run(DcsCtrlScheme, "md5")))
        with TraceSession(label="traced"):
            traced = "\n".join(csv_lines(_metered_run(DcsCtrlScheme, "md5")))
        assert bare == traced
