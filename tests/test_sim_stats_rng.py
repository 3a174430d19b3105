"""Tests for stats trackers, histograms, meters and RNG streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import BusyTracker, Histogram, Meter, RngHub, Simulator
from repro.sim.rng import (DROPBOX_SIZE_BUCKETS, dropbox_file_sizes, empirical,
                           exponential_interarrivals)
from repro.units import usec


@pytest.fixture
def sim():
    return Simulator()


class TestBusyTracker:
    def test_accumulates_per_category(self, sim):
        tracker = BusyTracker(sim)
        tracker.add("filesystem", 100)
        tracker.add("filesystem", 50)
        tracker.add("network", 30)
        assert tracker.total("filesystem") == 150
        assert tracker.total("network") == 30
        assert tracker.total() == 180

    def test_utilization_over_window(self, sim):
        tracker = BusyTracker(sim)

        def body(sim):
            yield sim.timeout(usec(10))

        tracker.add("work", usec(5))
        sim.process(body(sim))
        sim.run()
        assert tracker.utilization() == pytest.approx(0.5)
        assert tracker.utilization("work") == pytest.approx(0.5)

    def test_parallelism_divides_utilization(self, sim):
        tracker = BusyTracker(sim)

        def body(sim):
            yield sim.timeout(usec(10))

        tracker.add("work", usec(10))
        sim.process(body(sim))
        sim.run()
        assert tracker.utilization(parallelism=4) == pytest.approx(0.25)

    def test_reset_window(self, sim):
        tracker = BusyTracker(sim)
        tracker.add("work", 500)

        def body(sim):
            yield sim.timeout(1000)

        sim.process(body(sim))
        sim.run()
        tracker.reset_window()
        assert tracker.total() == 0
        assert tracker.window() == 0

    def test_reset_window_keeps_categories_at_zero(self, sim):
        # Regression: categories touched before the reset must read as
        # zero afterwards (present in by_category, not stale, no
        # KeyError) so window-differencing readers see stable keys.
        tracker = BusyTracker(sim)
        tracker.add("filesystem", 500)
        tracker.add("network", 300)
        tracker.reset_window()
        assert tracker.by_category() == {"filesystem": 0, "network": 0}
        assert tracker.total("filesystem") == 0
        assert tracker.utilization_by_category() == {"filesystem": 0.0,
                                                     "network": 0.0}
        tracker.add("filesystem", 100)
        assert tracker.by_category() == {"filesystem": 100, "network": 0}

    def test_negative_duration_rejected(self, sim):
        tracker = BusyTracker(sim)
        with pytest.raises(SimulationError):
            tracker.add("x", -1)

    def test_zero_window_utilization_is_zero(self, sim):
        tracker = BusyTracker(sim)
        tracker.add("x", 10)
        assert tracker.utilization() == 0.0


class TestHistogram:
    def test_mean_and_count(self):
        hist = Histogram()
        for sample in (1.0, 2.0, 3.0):
            hist.add(sample)
        assert hist.count == 3
        assert hist.mean() == pytest.approx(2.0)

    def test_percentiles(self):
        hist = Histogram()
        for i in range(1, 101):
            hist.add(float(i))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0
        assert hist.min() == 1.0
        assert hist.max() == 100.0

    def test_empty_histogram_guards(self):
        hist = Histogram()
        assert hist.mean() == 0.0
        with pytest.raises(SimulationError):
            hist.percentile(50)

    def test_bad_percentile_rejected(self):
        hist = Histogram()
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                      allow_nan=False), min_size=1, max_size=100))
    def test_percentile_bounds(self, samples):
        hist = Histogram()
        for sample in samples:
            hist.add(sample)
        assert hist.min() <= hist.percentile(50) <= hist.max()
        assert hist.percentile(0) == hist.min()
        assert hist.percentile(100) == hist.max()


class TestMeter:
    def test_negative_amount_rejected(self, sim):
        meter = Meter(sim)
        with pytest.raises(SimulationError):
            meter.add(-5)


class TestRng:
    def test_streams_are_reproducible(self):
        a = RngHub(seed=7).stream("arrivals")
        b = RngHub(seed=7).stream("arrivals")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        hub = RngHub(seed=7)
        a = hub.stream("arrivals")
        b = hub.stream("sizes")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngHub(seed=1).stream("x")
        b = RngHub(seed=2).stream("x")
        assert a.random() != b.random()

    def test_exponential_interarrivals_mean(self):
        rng = RngHub(seed=3).stream("arrivals")
        gaps = exponential_interarrivals(rng, rate_per_sec=1000.0)
        n = 5000
        mean_gap = sum(next(gaps) for _ in range(n)) / n
        # Expected gap = 1 ms = 1e6 ns; allow 10 % sampling noise.
        assert mean_gap == pytest.approx(1e6, rel=0.1)

    def test_exponential_requires_positive_rate(self):
        rng = RngHub(seed=3).stream("arrivals")
        with pytest.raises(ValueError):
            next(exponential_interarrivals(rng, 0.0))

    def test_empirical_respects_support(self):
        rng = RngHub(seed=4).stream("sizes")
        sizes = empirical(rng, [(1.0, 10), (1.0, 20)])
        drawn = {next(sizes) for _ in range(200)}
        assert drawn == {10, 20}

    def test_empirical_rejects_empty(self):
        rng = RngHub(seed=4).stream("sizes")
        with pytest.raises(ValueError):
            next(empirical(rng, []))

    def test_empirical_rejects_bad_weights(self):
        rng = RngHub(seed=4).stream("sizes")
        with pytest.raises(ValueError):
            next(empirical(rng, [(-1.0, 10)]))

    def test_dropbox_sizes_come_from_buckets(self):
        rng = RngHub(seed=5).stream("sizes")
        sizes = dropbox_file_sizes(rng)
        support = {size for _, size in DROPBOX_SIZE_BUCKETS}
        assert all(next(sizes) in support for _ in range(500))

    def test_dropbox_sizes_mostly_small(self):
        rng = RngHub(seed=6).stream("sizes")
        sizes = dropbox_file_sizes(rng)
        n = 2000
        small = sum(1 for _ in range(n) if next(sizes) <= 256 * 1024)
        assert small / n > 0.7  # the paper's workload skews small
