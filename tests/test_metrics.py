"""The metrics plane: instruments, the registry contract, sampling."""

import random

import pytest

from repro.errors import MetricsError
from repro.apps.workload import pattern_bytes
from repro.experiments.common import measure_send
from repro.metrics import (DEFAULT_INTERVAL_NS, MetricsSession, csv_lines,
                           format_labels)
from repro.schemes import (DcsCtrlScheme, IntegratedScheme, SwOptScheme,
                           SwP2pScheme, Testbed)
from repro.sim.kernel import Simulator
from repro.sim.session import installed
from repro.units import KIB, usec


def _fresh(interval_ns: int = usec(1)):
    """An installed session plus one simulator registered with it."""
    session = MetricsSession(label="t", interval_ns=interval_ns).install()
    sim = Simulator()
    return session, sim, sim.metrics


class TestInstruments:
    def teardown_method(self):
        session = installed("metrics")
        if session is not None:
            session.uninstall()

    def test_counter_accumulates_and_rejects_decrease(self):
        _, _, ms = _fresh()
        c = ms.counter("nvme.commands", node="n", dev="ssd")
        c.inc()
        c.inc(41)
        assert c.value == 42
        with pytest.raises(MetricsError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_tracks_peak(self):
        _, _, ms = _fresh()
        g = ms.gauge("engine.ddr3_bytes_in_use", engine="e")
        g.set(10)
        g.inc(5)
        g.dec(12)
        assert g.value == 3
        assert g.peak == 15

    def test_timegauge_mean_is_time_weighted(self):
        _, sim, ms = _fresh()
        tg = ms.timegauge("nvme.sq_depth", node="n", dev="ssd", qid=1)

        def body(s):
            tg.set(4)              # 4 for the first 100 ns
            yield s.timeout(100)
            tg.set(0)              # 0 for the next 300 ns
            yield s.timeout(300)

        sim.process(body(sim))
        sim.run()
        assert tg.mean() == pytest.approx(4 * 100 / 400)
        assert tg.peak == 4

    def test_histogram_log2_buckets_and_quantile(self):
        _, _, ms = _fresh()
        h = ms.histogram("engine.d2d_latency_ns", engine="e")
        for value in (0, 1, 5, 5, 1000):
            h.observe(value)
        assert h.count == 5
        assert h.buckets[0] == 1     # exactly zero
        assert h.buckets[1] == 1     # 1
        assert h.buckets[3] == 2     # 4..7
        assert h.buckets[10] == 1    # 512..1023
        assert h.quantile(0.5) == 7          # upper edge of bucket 3
        assert h.quantile(1.0) == 1023
        with pytest.raises(MetricsError, match="negative"):
            h.observe(-1)

    def test_same_name_and_labels_dedups_to_one_series(self):
        _, _, ms = _fresh()
        a = ms.counter("nvme.commands", node="n", dev="ssd")
        b = ms.counter("nvme.commands", dev="ssd", node="n")
        assert a is b
        assert len(ms.series()) == 1

    def test_label_rendering_is_sorted(self):
        _, _, ms = _fresh()
        c = ms.counter("nvme.commands", node="n0", dev="ssd")
        assert format_labels(c.labels) == "dev=ssd;node=n0"


class TestCatalogContract:
    def teardown_method(self):
        session = installed("metrics")
        if session is not None:
            session.uninstall()

    def test_unknown_name_rejected(self):
        _, _, ms = _fresh()
        with pytest.raises(MetricsError, match="not in the documented"):
            ms.counter("nvme.bogus")  # simlint: disable=PLANE001

    def test_wrong_kind_rejected(self):
        _, _, ms = _fresh()
        with pytest.raises(MetricsError, match="cataloged as"):
            ms.counter("nvme.sq_depth", node="n", dev="ssd", qid=1)

    def test_polled_must_be_counter_or_gauge(self):
        _, _, ms = _fresh()
        with pytest.raises(MetricsError, match="polled"):
            ms.polled("engine.d2d_latency_ns", lambda: 1, engine="e")
        with pytest.raises(MetricsError, match="polled"):
            ms.polled_map("nvme.sq_depth", "qid", lambda: {},
                          node="n", dev="ssd")

    def test_polled_map_unknown_name_rejected(self):
        _, _, ms = _fresh()
        with pytest.raises(MetricsError, match="not in the documented"):
            ms.polled_map("cpu.bogus", "category", lambda: {})  # simlint: disable=PLANE001

    def test_second_session_install_rejected(self):
        first = MetricsSession().install()
        try:
            with pytest.raises(MetricsError, match="already installed"):
                MetricsSession().install()
        finally:
            first.uninstall()


class TestSampling:
    def teardown_method(self):
        session = installed("metrics")
        if session is not None:
            session.uninstall()

    def test_samples_land_on_interval_boundaries(self):
        session, sim, ms = _fresh(interval_ns=100)
        c = ms.counter("nvme.commands", node="n", dev="ssd")

        def body(s):
            for _ in range(5):
                c.inc()
                yield s.timeout(130)

        sim.process(body(sim))
        sim.run()
        session.uninstall()
        session.finalize()
        ticks = sorted({t for t, _, _ in ms.rows})
        # All but the forced finalize tick are multiples of the interval.
        assert all(t % 100 == 0 for t in ticks[:-1])
        assert ticks[-1] == sim.now == ms.finalized_at

    def test_change_compression_drops_idle_rows(self):
        session, sim, ms = _fresh(interval_ns=100)
        g = ms.gauge("engine.ddr3_bytes_in_use", engine="e")
        g.set(7)

        def body(s):
            yield s.timeout(1000)  # ten idle sampling intervals

        sim.process(body(sim))
        sim.run()
        session.uninstall()
        session.finalize()
        # First sample + forced final sample only: the value never moved.
        assert [(t, v) for t, _, v in ms.rows] == [(100, 7), (1000, 7)]

    def test_sampling_schedules_no_events(self):
        session, sim, ms = _fresh(interval_ns=10)
        ms.counter("nvme.commands", node="n", dev="ssd")

        def body(s):
            yield s.timeout(1000)

        sim.process(body(sim))
        sim.run()  # drain mode: would hang/terminate-late if samplers
        assert sim.now == 1000  # scheduled anything beyond the process
        session.uninstall()

    def test_finalize_is_idempotent(self):
        session, sim, ms = _fresh()
        ms.counter("nvme.commands", node="n", dev="ssd")
        session.uninstall()
        session.finalize()
        rows = list(ms.rows)
        session.finalize()
        assert ms.rows == rows

    def test_sub_interval_run_still_exports_one_row_per_series(self):
        # A microbenchmark shorter than one sampling interval must not
        # export an empty series: finalize forces the last sample.
        session = MetricsSession(label="t",
                                 interval_ns=DEFAULT_INTERVAL_NS).install()
        sim = Simulator()
        c = sim.metrics.counter("nvme.commands", node="n", dev="ssd")

        def body(s):
            c.inc(3)
            yield s.timeout(10)  # far below 100 us

        sim.process(body(sim))
        sim.run()
        session.uninstall()
        session.finalize()
        assert [(t, v) for t, _, v in sim.metrics.rows] == [(10, 3)]


def _sampled_scenario(seed: int, per_boundary: bool):
    """A seeded run over every series style (updated, time-weighted,
    histogram, polled, polled_map) with idle gaps of 0-50 sampling
    intervals, ending exactly on a boundary.

    ``per_boundary`` swaps in a reference ``advance`` that records at
    every crossed boundary.  Returns the rendered rows, the
    ``_record`` ticks and the steps that crossed a boundary.
    """
    interval = 100
    session, sim, ms = _fresh(interval_ns=interval)
    record, advance = ms._record, ms.advance
    recorded, crossing_steps = [], []

    def counted_record(tick, force):
        recorded.append((tick, force))
        record(tick, force)

    def reference_advance(now):
        while ms._next_sample <= now:
            tick = ms._next_sample
            ms._next_sample += interval
            ms._record(tick, force=False)

    def counted_advance(now):
        if ms._next_sample <= now:
            crossing_steps.append(now)
        (reference_advance if per_boundary else advance)(now)

    ms._record, ms.advance = counted_record, counted_advance
    rng = random.Random(seed)
    state = {"busy": 0, "keys": {}}
    counter = ms.counter("nvme.commands", node="n", dev="ssd")
    gauge = ms.gauge("engine.ddr3_bytes_in_use", engine="e")
    timed = ms.timegauge("nvme.inflight", node="n", dev="ssd")
    hist = ms.histogram("engine.d2d_latency_ns", engine="e")
    ms.polled("host.cpu.busy_ns", lambda: state["busy"], node="n")
    # Reads sim.now, the crossing step's time: both samplers read it in
    # the same step, so the differential holds even for this series.
    ms.polled("host.cpu.busy_cores",
              lambda: state["busy"] / max(sim.now, 1), node="n")
    ms.polled_map("host.cpu.busy_ns", "category",
                  lambda: dict(state["keys"]), node="m")

    def body():
        for step in range(300):
            action = rng.randrange(5)
            if action == 0:
                counter.inc(rng.randrange(1, 4))
            elif action == 1:
                gauge.set(rng.randrange(0, 8) * 512)
            elif action == 2:
                timed.set(rng.randrange(0, 4))
            elif action == 3:
                hist.observe(rng.randrange(1, 10_000))
            else:
                state["busy"] += rng.randrange(0, 300)
                key = rng.choice("abcd")
                state["keys"][key] = state["keys"].get(key, 0) + 1
            gap = rng.randrange(0, 51) * interval
            yield sim.timeout(gap + rng.choice((0, 0, 1, 37, 99)))
        yield sim.timeout(interval - sim.now % interval)

    sim.process(body())
    sim.run()
    assert sim.now % interval == 0
    session.uninstall()
    session.finalize()
    rows = [(tick, metric.name, metric.labels, value)
            for tick, metric, value in ms.rows]
    return rows, recorded, crossing_steps


class TestSamplerDifferential:
    """One ``_record`` per crossing step exports exactly the rows of
    recording at every crossed boundary."""

    def teardown_method(self):
        session = installed("metrics")
        if session is not None:
            session.uninstall()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_record_per_crossing_matches_per_boundary_reference(
            self, seed):
        rows, recorded, crossings = _sampled_scenario(seed, False)
        ref_rows, ref_recorded, ref_crossings = _sampled_scenario(
            seed, True)
        assert rows == ref_rows
        assert crossings == ref_crossings
        sampled = [tick for tick, force in recorded if not force]
        assert len(sampled) == len(crossings)
        # Multi-boundary crossings happened, so the reference did more.
        assert len(ref_recorded) > len(recorded)
        # finalize() landed on a boundary: one sample there, then the
        # forced one at the same tick.
        assert recorded[-2:] == [(crossings[-1], False),
                                 (crossings[-1], True)]


class TestZeroOverheadOff:
    def test_no_session_means_no_metrics_object(self):
        assert installed("metrics") is None
        assert Simulator().metrics is None

    def test_uninstall_restores_off_state(self):
        with MetricsSession():
            assert Simulator().metrics is not None
        assert Simulator().metrics is None


# The acceptance list: one series of each of these must exist for every
# scheme's simulator (the testbed models the full machine, so even the
# host-centric schemes expose the engine's resources).
REQUIRED = ("pcie.link.inflight_bytes", "nvme.sq_depth",
            "nic.tx_ring_occupancy", "engine.scoreboard_entries",
            "engine.ddr3_bytes_in_use", "host.cpu.busy_cores")


class TestLiveRuns:
    @pytest.mark.parametrize("scheme_cls,processing", [
        (SwOptScheme, None), (SwP2pScheme, None),
        (IntegratedScheme, None), (DcsCtrlScheme, "md5")])
    def test_every_scheme_emits_the_required_series(self, scheme_cls,
                                                    processing):
        with MetricsSession(label="live") as session:
            measure_send(scheme_cls, processing)
        assert session.sets
        for metric_set in session.sets:
            names = {metric.name for metric in metric_set.series()}
            missing = set(REQUIRED) - names
            assert not missing, (scheme_cls.name, sorted(missing))

    def test_csv_rows_emitted_for_a_live_run(self):
        with MetricsSession(label="live") as session:
            measure_send(DcsCtrlScheme, None)
        lines = list(csv_lines(session))
        assert lines[0] == "sim,time_ns,metric,labels,value"
        assert len(lines) > 50
        assert all(line.count(",") == 4 for line in lines)


def _metered_send_csv(scheme_cls, noise_seed=None):
    """CSV of a metered 64 KiB send; ``noise_seed`` first schedules
    seeded timeouts that nothing waits on."""
    size = 64 * KIB
    with MetricsSession(label="noop", interval_ns=usec(1)) as session:
        tb = Testbed(seed=5)
        scheme = scheme_cls(tb)
        tb.node0.host.install_file("f.dat", pattern_bytes(size, 7))
        conn = scheme.connect()
        if noise_seed is not None:
            rng = random.Random(noise_seed)
            for _ in range(300):
                tb.sim.timeout(rng.randrange(usec(100)))
        send = tb.sim.process(scheme.send_file(tb.node0, conn, "f.dat", 0,
                                               size))
        recv = tb.sim.process(scheme.client_recv(tb.node1, conn, size))
        tb.sim.run(until=send)
        tb.sim.run(until=recv)
    return list(csv_lines(session))


class TestNoOpEventsLeaveRowsAlone:
    """A sampled row depends only on simulated state changes: events
    that change nothing may move which step crosses a boundary, never
    what is recorded there."""

    @pytest.mark.parametrize("scheme_cls", [SwOptScheme, DcsCtrlScheme],
                             ids=lambda cls: cls.name)
    @pytest.mark.parametrize("noise_seed", [1, 2])
    def test_csv_identical_with_noop_timeouts(self, scheme_cls, noise_seed):
        plain = _metered_send_csv(scheme_cls)
        noisy = _metered_send_csv(scheme_cls, noise_seed)
        assert len(plain) > 100
        assert noisy == plain
