"""Edge cases of the measurement helpers in ``repro.sim.stats``."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.stats import BusyTracker, Histogram, Meter


def _advance(sim: Simulator, ns: int) -> None:
    def body(s):
        yield s.timeout(ns)

    sim.process(body(sim))
    sim.run()


class TestBusyTrackerEdges:
    def test_reset_window_at_time_zero_is_safe(self):
        sim = Simulator()
        tracker = BusyTracker(sim)
        tracker.reset_window()  # now == window start == 0
        assert tracker.window() == 0
        assert tracker.utilization() == 0.0
        assert tracker.utilization_by_category() == {}

    def test_reset_window_keeps_categories_at_zero(self):
        sim = Simulator()
        tracker = BusyTracker(sim)
        tracker.add("filesystem", 100)
        _advance(sim, 1000)
        tracker.reset_window()
        assert tracker.total("filesystem") == 0
        assert "filesystem" in tracker.by_category()
        # A zero-width window reports 0.0 for the stable category set.
        assert tracker.utilization_by_category() == {"filesystem": 0.0}

    def test_utilization_with_parallelism(self):
        sim = Simulator()
        tracker = BusyTracker(sim)
        tracker.add("network", 400)
        _advance(sim, 1000)
        assert tracker.utilization("network") == pytest.approx(0.4)
        # Four cores: the same busy time is a quarter of the pool.
        assert tracker.utilization("network",
                                   parallelism=4) == pytest.approx(0.1)
        by_cat = tracker.utilization_by_category(parallelism=4)
        assert by_cat == {"network": pytest.approx(0.1)}

    def test_negative_duration_rejected(self):
        tracker = BusyTracker(Simulator())
        with pytest.raises(SimulationError, match="negative"):
            tracker.add("network", -1)


class TestHistogramEdges:
    def test_empty_histogram_rank_queries_raise(self):
        hist = Histogram()
        with pytest.raises(SimulationError, match="empty"):
            hist.percentile(50)
        with pytest.raises(SimulationError, match="empty"):
            hist.min()
        with pytest.raises(SimulationError, match="empty"):
            hist.max()
        # ...but the moment aggregates degrade gracefully.
        assert hist.mean() == 0.0
        assert hist.count == 0

    def test_percentile_bounds_checked(self):
        hist = Histogram()
        hist.add(1.0)
        with pytest.raises(ValueError, match="percentile"):
            hist.percentile(101)
        with pytest.raises(ValueError, match="percentile"):
            hist.percentile(-1)

    def test_sorted_cache_invalidated_by_add(self):
        hist = Histogram()
        for sample in (5.0, 1.0, 3.0):
            hist.add(sample)
        assert hist.percentile(50) == 3.0  # populates the cache
        assert hist.min() == 1.0
        hist.add(0.5)                      # must invalidate it
        assert hist.min() == 0.5
        assert hist.percentile(100) == 5.0

    def test_percentile_nearest_rank_endpoints(self):
        hist = Histogram()
        for v in range(1, 11):
            hist.add(float(v))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 5.0
        assert hist.percentile(100) == 10.0


class TestMeterEdges:
    def test_negative_amount_rejected(self):
        meter = Meter(Simulator())
        with pytest.raises(SimulationError, match="negative"):
            meter.add(-5)
