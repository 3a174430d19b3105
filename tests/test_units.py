"""Tests for the unit helpers (time, size, rates)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import (GIB, KIB, MIB, SEC, Rate, gbps, gibps, msec, nsec,
                         to_usec, usec)


class TestTime:
    def test_conversions(self):
        assert usec(1) == 1000
        assert msec(1) == 1_000_000
        assert nsec(2.6) == 3  # rounds

    def test_render_roundtrip(self):
        assert to_usec(usec(12.5)) == pytest.approx(12.5)


class TestSizes:
    def test_powers_of_two(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB


class TestRate:
    def test_gbps_duration(self):
        rate = gbps(8)  # 1 GB/s
        assert rate.duration(1_000_000_000) == SEC
        assert rate.duration(0) == 0

    def test_gbps_render(self):
        assert gbps(10).gbps() == pytest.approx(10.0)

    def test_gibps(self):
        rate = gibps(1)
        assert rate.duration(GIB) == SEC

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            gbps(1).duration(-1)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Rate(0)
        with pytest.raises(ValueError):
            Rate(-5)

    def test_equality_and_hash(self):
        assert gbps(10) == gbps(10)
        assert gbps(10) != gbps(11)
        assert hash(gbps(10)) == hash(gbps(10))

    @settings(max_examples=50, deadline=None)
    @given(size=st.integers(min_value=0, max_value=10 ** 12),
           g=st.floats(min_value=0.1, max_value=100, allow_nan=False))
    def test_duration_monotone_in_size(self, size, g):
        rate = gbps(g)
        assert rate.duration(size) <= rate.duration(size + 1024)
