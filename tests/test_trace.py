"""Tests for the structured tracing subsystem (repro.trace)."""

import json

import pytest

from repro.errors import TraceError
from repro.experiments.common import measure_send
from repro.schemes import DcsCtrlScheme, SwOptScheme
from repro.sim import Simulator
from repro.sim.session import installed, section
from repro.trace import (EVENT_TYPES, TraceSession, Tracer, jsonl_lines,
                         to_chrome)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def tracer(sim):
    return Tracer(sim, label="test")


class TestTracer:
    def test_span_records_interval(self, sim, tracer):
        def body(s):
            span = tracer.begin("proc.run", track="t", name="work", n=1)
            yield s.timeout(100)
            span.end(done=True)

        sim.process(body(sim))
        sim.run()
        (event,) = tracer.events
        assert event.type == "proc.run"
        assert event.start == 0
        assert event.duration == 100
        assert event.args == {"n": 1, "done": True}

    def test_instant_has_no_duration(self, sim, tracer):
        event = tracer.instant("mark", track="t", name="here", k="v")
        assert event.duration is None
        assert event.args == {"k": "v"}

    def test_complete_backdates(self, sim, tracer):
        def body(s):
            yield s.timeout(50)
            tracer.complete("phase", track="t", start=10, duration=30,
                            name="seg")

        sim.process(body(sim))
        sim.run()
        (event,) = tracer.events
        assert (event.start, event.duration) == (10, 30)

    def test_complete_rejects_negative_duration(self, tracer):
        with pytest.raises(TraceError):
            tracer.complete("phase", track="t", start=0, duration=-1)

    def test_unregistered_type_rejected(self, tracer):
        with pytest.raises(TraceError):
            tracer.begin("not.a.type", track="t")  # simlint: disable=PLANE002
        with pytest.raises(TraceError):
            tracer.instant("bogus", track="t")  # simlint: disable=PLANE002

    def test_parent_links(self, sim, tracer):
        root = tracer.begin("request", track="t")
        child = tracer.instant("mark", track="t", parent=root)
        assert child.parent_id == root.id
        root.end()

    def test_double_end_is_idempotent(self, sim, tracer):
        span = tracer.begin("proc.run", track="t")
        assert span.end() is not None
        assert span.end() is None
        assert len(tracer.events) == 1

    def test_finalize_marks_unterminated(self, sim, tracer):
        tracer.begin("proc.run", track="t", name="loop")
        tracer.finalize()
        (event,) = tracer.events
        assert event.args["unterminated"] is True


class TestSession:
    def test_simulators_get_tracers_only_while_installed(self):
        assert Simulator().tracer is None
        with TraceSession(label="s") as session:
            sim = Simulator()
            assert sim.tracer is not None
            assert sim.tracer in session.tracers
        assert Simulator().tracer is None
        assert installed("tracer") is None

    def test_nested_install_rejected(self):
        with TraceSession():
            with pytest.raises(TraceError):
                TraceSession().install()

    def test_section_labels(self):
        with TraceSession(label="outer") as session:
            with section("inner"):
                sim = Simulator()
            sim2 = Simulator()
        assert sim.tracer.label.startswith("inner/")
        assert sim2.tracer.label.startswith("outer/")
        assert session is not installed("tracer")

    def test_section_noop_when_off(self):
        with section("ignored"):
            assert Simulator().tracer is None
        assert installed("tracer") is None


class TestExport:
    @pytest.fixture
    def session(self):
        with TraceSession(label="exp") as session:
            measure_send(DcsCtrlScheme, "md5")
        return session

    def test_chrome_document_shape(self, session):
        doc = to_chrome(session)
        events = doc["traceEvents"]
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert e["cat"] in EVENT_TYPES
            elif e["ph"] == "i":
                assert "dur" not in e
                assert e["cat"] in EVENT_TYPES
        # pid/tid resolve through metadata to stable names
        names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"}
        assert "requests" in set(names.values())

    def test_jsonl_records(self, session):
        lines = list(jsonl_lines(session))
        assert lines
        for line in lines[:50]:
            rec = json.loads(line)
            assert set(rec) == {"id", "parent_id", "type", "name", "pid",
                                "sim", "track", "ts_ns", "dur_ns", "args"}
            assert rec["type"] in EVENT_TYPES

    def test_every_emitted_type_is_registered(self, session):
        for tracer in session.tracers:
            for event in tracer.events:
                assert event.type in EVENT_TYPES


def _phase_sums(tracer):
    """Reference: ``{request root: {category: summed phase ns}}``, built
    from the event stream alone by following each phase's parent id."""
    roots = {e.id: e for e in tracer.sorted_events() if e.type == "request"}
    sums = {root: {} for root in roots.values()}
    for event in tracer.sorted_events():
        if event.type == "phase" and event.parent_id in roots:
            by_cat = sums[roots[event.parent_id]]
            by_cat[event.name] = by_cat.get(event.name, 0) + event.duration
    return sums


class TestBreakdown:
    def _traced_measure(self, scheme_cls, processing):
        with TraceSession(label="bd") as session:
            result, _ = measure_send(scheme_cls, processing)
        tracer = next(t for t in session.tracers
                      if any(e.type == "request" for e in t.events))
        return result, tracer

    @pytest.mark.parametrize("scheme_cls,processing", [
        (DcsCtrlScheme, None),
        (DcsCtrlScheme, "md5"),
        (SwOptScheme, "md5"),
    ])
    def test_span_breakdown_matches_latency_trace(self, scheme_cls,
                                                  processing):
        # The span-derived decomposition must agree with
        # LatencyTrace.segments within 1 ns per category.
        result, tracer = self._traced_measure(scheme_cls, processing)
        root, by_cat = list(_phase_sums(tracer).items())[-1]
        assert set(by_cat) == set(result.trace.segments)
        for category, expected in result.trace.segments.items():
            assert abs(by_cat[category] - expected) <= 1
        assert root.duration == result.trace.total

    def test_one_breakdown_per_request(self):
        _, tracer = self._traced_measure(DcsCtrlScheme, None)
        sums = _phase_sums(tracer)
        roots = [e for e in tracer.events if e.type == "request"]
        assert len(sums) == len(roots) == 2  # warmup + measurement
        assert all(sum(by_cat.values()) > 0 for by_cat in sums.values())


class TestBusyTrackerCrossCheck:
    def test_phase_events_cover_cpu_categories(self):
        # Span-derived totals and BusyTracker agree on what the host
        # CPU did: every software category the tracker bills during the
        # measured request also appears as a phase event, with at least
        # the tracker's busy time attributed to it (phases also cover
        # waiting, so >=).  The engine-offloaded path ends the run with
        # the request itself, so no CPU is billed outside the trace.
        from repro.schemes import Testbed

        with TraceSession(label="xc"):
            from repro.experiments.common import _run_one
            tb = Testbed(seed=5)
            scheme = DcsCtrlScheme(tb)
            data = bytes(range(256)) * 16
            tb.node0.host.cpu.tracker.reset_window()
            result = _run_one(tb, scheme, data, "m.dat", None)
        busy = {k: v for k, v in
                tb.node0.host.cpu.tracker.by_category().items() if v > 0}
        assert busy, "measurement billed no CPU at all"
        segments = result.trace.segments
        for category, busy_ns in busy.items():
            assert segments.get(category, 0) >= busy_ns, category
