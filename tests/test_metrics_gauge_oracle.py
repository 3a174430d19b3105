"""Differential test: ``Gauge`` and ``TimeWeightedGauge`` against a
reference copy of the straightforward implementation.

The reference below routes every update through ``set`` (``inc`` and
``dec`` call ``set``, the time-weighted ``set`` calls the plain one).
The real instruments may be written for fewer calls, but ``value``,
``peak``, ``integral`` and ``mean()`` must come out bit-identical for
any update sequence at non-decreasing simulated times.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.registry import Gauge, TimeWeightedGauge


class _Clock:
    """The one thing an instrument reads of its simulator."""

    def __init__(self):
        self.now = 0


class _RefGauge:
    def __init__(self, sim):
        self._sim = sim
        self.value = 0
        self.peak = 0

    def set(self, value):
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount=1):
        self.set(self.value + amount)

    def dec(self, amount=1):
        self.set(self.value - amount)


class _RefTimeWeightedGauge(_RefGauge):
    def __init__(self, sim):
        super().__init__(sim)
        self.integral = 0
        self._since = sim.now
        self._born = sim.now

    def set(self, value):
        now = self._sim.now
        self.integral += self.value * (now - self._since)
        self._since = now
        super().set(value)

    def mean(self, end: Optional[int] = None):
        end = self._sim.now if end is None else end
        elapsed = end - self._born
        if elapsed <= 0:
            return 0.0
        tail = self.value * (end - self._since)
        return (self.integral + tail) / elapsed


def _bits(number):
    """Type and exact bits: 1 == 1.0 and 0.0 == -0.0 must not pass."""
    if isinstance(number, float):
        return ("float", number.hex())
    return (type(number).__name__, number)


_AMOUNT = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
              allow_infinity=False))
# One update: how far the clock moves first, the operation, its operand
# (None: ``inc()``/``dec()`` with the default amount).
_STEP = st.tuples(st.integers(min_value=0, max_value=1_000),
                  st.sampled_from(("set", "inc", "dec")), _AMOUNT)


def _apply(gauge, op, amount):
    if op == "set":
        gauge.set(0 if amount is None else amount)
    elif amount is None:
        getattr(gauge, op)()
    else:
        getattr(gauge, op)(amount)


class TestGaugesMatchTheReference:
    @settings(max_examples=300, deadline=None)
    @given(start=st.integers(min_value=0, max_value=100),
           steps=st.lists(_STEP, max_size=40),
           tail=st.integers(min_value=0, max_value=1_000))
    def test_time_weighted_gauge_is_bit_identical(self, start, steps, tail):
        clock = _Clock()
        clock.now = start
        real = TimeWeightedGauge("nvme.sq_depth", (), clock)
        ref = _RefTimeWeightedGauge(clock)
        for advance, op, amount in steps:
            clock.now += advance
            _apply(real, op, amount)
            _apply(ref, op, amount)
            for field in ("value", "peak", "integral"):
                assert (_bits(getattr(real, field))
                        == _bits(getattr(ref, field))), field
            assert _bits(real.mean()) == _bits(ref.mean())
        assert _bits(real.mean(clock.now + tail)) == _bits(
            ref.mean(clock.now + tail))

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_STEP, max_size=40))
    def test_gauge_is_bit_identical(self, steps):
        clock = _Clock()
        real = Gauge("engine.ddr3_bytes_in_use", (), clock)
        ref = _RefGauge(clock)
        for advance, op, amount in steps:
            clock.now += advance
            _apply(real, op, amount)
            _apply(ref, op, amount)
            assert _bits(real.value) == _bits(ref.value)
            assert _bits(real.peak) == _bits(ref.peak)
