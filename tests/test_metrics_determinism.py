"""Golden-metrics determinism: same seed => byte-identical CSV, and
sampling never perturbs the event order of the run it observes."""

import hashlib

from repro.core.command import D2DKind
from repro.experiments.common import measure_send
from repro.faults import FaultPlan, FaultRule
from repro.metrics import MetricsSession, csv_lines
from repro.metrics import jsonl_lines as metrics_jsonl_lines
from repro.schemes import DcsCtrlScheme, SwOptScheme, Testbed
from repro.trace import TraceSession, jsonl_lines
from repro.units import KIB

# sha256 of the "\n"-joined CSV and JSONL export of each pinned run.
# Values are ints or floats (CSV ``%.9g``, JSONL ``repr``), so the
# digests are stable across Python versions; a change that moves any
# sample, value or series fails here.
GOLDEN_METRICS_SHA256 = {
    "dcs-ctrl-md5": (
        "a17bff3c54f8ca405e498be43dec460d41ddc10db80ca16522af3942b172c5b9",
        "93e40016f77a1dde4b41c4d036818611b67619e4e5b57630c9ef05a4efe83e2e"),
    "dcs-ctrl": (
        "05df593559ab2d6e5bd4b5eb94644af5d94393aa638128d3e931cb9a6259cd6a",
        "f86dc3de47c25d2377109011b3bffd48e02f49a8d116b52bf2e792c4fc6e4a7c"),
    "sw-opt": (
        "5dda27c32542fdfeed8b2b0cfb250343e6c1abce2d969ee4f1ff1693d57e36d8",
        "11a0252324e008beb673a9de55295c1ada3bdc8ff1534d22c51633a19412547c"),
    "faulty": (
        "1c69c33f6b58bbadf7c2d2701c9e16ac98f3a97436b7bceaf2bef9adae00cf29",
        "95622304b3914e2f7aa39ee9389b5b90ae2de5acd0c4b50021ab632c54412f80"),
}


def _digests(session):
    """(CSV sha256, JSONL sha256) of one metered run."""
    return tuple(hashlib.sha256("\n".join(lines).encode()).hexdigest()
                 for lines in (csv_lines(session),
                               metrics_jsonl_lines(session)))


def _metered_run(scheme_cls, processing):
    with MetricsSession(label="golden") as session:
        measure_send(scheme_cls, processing)
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


class TestGoldenDigests:
    def test_dcs_ctrl_md5_pinned(self):
        assert (_digests(_metered_run(DcsCtrlScheme, "md5"))
                == GOLDEN_METRICS_SHA256["dcs-ctrl-md5"])

    def test_dcs_ctrl_pinned(self):
        assert (_digests(_metered_run(DcsCtrlScheme, None))
                == GOLDEN_METRICS_SHA256["dcs-ctrl"])

    def test_sw_opt_pinned(self):
        assert (_digests(_metered_run(SwOptScheme, None))
                == GOLDEN_METRICS_SHA256["sw-opt"])

    def test_faulty_run_pinned(self):
        assert _digests(_faulty_run()) == GOLDEN_METRICS_SHA256["faulty"]


class TestSamplingDoesNotPerturb:
    def test_trace_identical_with_and_without_metrics(self):
        # The strongest no-observer-effect statement available: the full
        # event trace of a sampled run is byte-identical to an unsampled
        # one, so sampling cannot have reordered or added any event.
        with TraceSession(label="plain") as plain:
            measure_send(DcsCtrlScheme, "md5")
        with TraceSession(label="plain") as sampled:
            with MetricsSession(label="metered"):
                measure_send(DcsCtrlScheme, "md5")
        assert ("\n".join(jsonl_lines(plain))
                == "\n".join(jsonl_lines(sampled)))

    def test_result_identical_with_and_without_metrics(self):
        bare, bare_cpu = measure_send(DcsCtrlScheme, None)
        with MetricsSession(label="metered"):
            metered, metered_cpu = measure_send(DcsCtrlScheme, None)
        assert bare.latency_us == metered.latency_us
        assert bare.trace.breakdown_us() == metered.trace.breakdown_us()
        assert bare_cpu == metered_cpu

    def test_csv_identical_with_and_without_trace(self):
        # The reverse direction: tracing cannot perturb what the metrics
        # plane samples, so both planes can share one run.
        bare = "\n".join(csv_lines(_metered_run(DcsCtrlScheme, "md5")))
        with TraceSession(label="traced"):
            traced = "\n".join(csv_lines(_metered_run(DcsCtrlScheme, "md5")))
        assert bare == traced
