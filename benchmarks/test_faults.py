"""Bench: fault-rate sweep (robustness extension beyond the paper)."""

from repro.experiments.faults import FAULT_RATES, run_faults
from repro.schemes import ALL_SCHEMES


def test_fault_sweep(once):
    result = once(run_faults)
    print("\n" + result.render())
    for row in result.rows:
        _, rate, _, _, _, errors, injected = row
        if rate == "0%":
            # The fault-free row injects nothing and loses nothing.
            assert (errors, injected) == (0, 0), row
    for scheme in ALL_SCHEMES:
        p99 = [result.metrics[f"{scheme}_r{int(rate * 100)}_p99_us"]
               for rate in FAULT_RATES]
        # Retries cost time: the tail never shrinks as errors get likelier.
        assert p99 == sorted(p99), (scheme, p99)
        # Every transient error is recovered within the retry budgets.
        assert all(result.metrics[f"{scheme}_r{int(rate * 100)}_errors"] == 0
                   for rate in FAULT_RATES), scheme
