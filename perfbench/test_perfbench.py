"""Tests of the benchmark's own aggregation.

Run from the root of a checkout::

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import cProfile
import os
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from attribution import LAYERS, OTHER, attribute, layer_of  # noqa: E402
from summary import MIN_BEYOND, percentile  # noqa: E402

REPRO = os.path.join(os.sep, "co", "src", "repro")


def _func(rel: str, line: int, name: str):
    return (os.path.join(REPRO, *rel.split("/")), line, name)


HARNESS = (os.path.join(os.sep, "co", "perfbench", "run.py"), 1, "execute")
DIGEST = _func("algos/md5.py", 10, "digest")
CHECKSUM = _func("net/headers.py", 31, "checksum16")
USEC = _func("units.py", 3, "usec")
BUILTIN = ("~", 0, "<built-in method _hashlib.openssl_md5>")
STDLIB = ("/usr/lib/python3.11/struct.py", 1, "helper")


def _stats():
    """A hand-made profile:

    harness -> md5.digest -> builtin          (2.0 s in the builtin)
    harness -> checksum16 -> builtin          (1.0 s in the builtin)
               checksum16 -> units.usec -> stdlib helper
               md5.digest -> md5.digest       (recursion inside algos)
    """
    return {
        HARNESS: (1, 1, 0.5, 10.0, {}),
        DIGEST: (1, 3, 1.5, 4.0, {HARNESS: (1, 1, 1.0, 4.0),
                                  DIGEST: (2, 0, 0.5, 1.0)}),
        CHECKSUM: (4, 4, 0.75, 2.5, {HARNESS: (4, 4, 0.75, 2.5)}),
        USEC: (2, 2, 0.25, 0.5, {CHECKSUM: (2, 2, 0.25, 0.5)}),
        STDLIB: (2, 2, 0.125, 0.125, {USEC: (2, 2, 0.125, 0.125)}),
        BUILTIN: (5, 5, 3.0, 3.0, {DIGEST: (2, 2, 2.0, 2.0),
                                   CHECKSUM: (3, 3, 1.0, 1.0)}),
    }


class LayerOfTest(unittest.TestCase):
    def test_packages_modules_and_transparent_code(self):
        self.assertEqual(layer_of(DIGEST, REPRO), "algos")
        self.assertEqual(layer_of(_func("faults.py", 1, "fires"), REPRO),
                         "faults")
        self.assertEqual(layer_of(_func("lint/rules.py", 1, "f"), REPRO),
                         OTHER)
        self.assertIsNone(layer_of(USEC, REPRO))
        self.assertIsNone(layer_of(_func("errors.py", 1, "f"), REPRO))
        self.assertIsNone(layer_of(BUILTIN, REPRO))
        self.assertIsNone(layer_of(HARNESS, REPRO))


class AttributeTest(unittest.TestCase):
    def setUp(self):
        self.result = attribute(_stats(), REPRO)

    def test_self_times_sum_to_total(self):
        self.assertAlmostEqual(self.result.total_s, 6.125)
        self.assertAlmostEqual(sum(self.result.self_s.values()),
                               self.result.total_s, places=9)
        self.assertAlmostEqual(sum(self.result.share(layer)
                                   for layer in LAYERS + (OTHER,)), 1.0)

    def test_builtin_time_goes_to_the_calling_package(self):
        # digest: 1.5 own + 2.0 of the builtin; checksum16: 0.75 own +
        # 1.0 of the builtin + units.usec 0.25 + its stdlib helper 0.125.
        self.assertAlmostEqual(self.result.self_s["algos"], 3.5)
        self.assertAlmostEqual(self.result.self_s["net"], 2.125)
        self.assertAlmostEqual(self.result.self_s[OTHER], 0.5)

    def test_calls_in_count_only_calls_across_layers(self):
        # One call from the harness; the two recursive calls stay inside.
        self.assertEqual(self.result.calls_in["algos"], 1)
        self.assertEqual(self.result.calls_in["net"], 4)
        self.assertEqual(self.result.calls_in["sim"], 0)

    def test_calls_from_before_profiling_count_as_entering(self):
        stats = {DIGEST: (1, 1, 1.0, 1.0, {})}
        self.assertEqual(attribute(stats, REPRO).calls_in["algos"], 1)

    def test_real_profile_charges_struct_time_to_net(self):
        import repro
        from repro.net.headers import checksum16

        profiler = cProfile.Profile()
        profiler.enable()
        checksum16(bytes(range(256)) * 64)
        profiler.disable()
        profiler.create_stats()
        result = attribute(profiler.stats, os.path.dirname(repro.__file__))
        self.assertAlmostEqual(sum(result.self_s.values()), result.total_s,
                               places=9)
        self.assertGreater(result.share("net"), 0.9)


class PercentileTest(unittest.TestCase):
    def test_reports_value_and_sample_count(self):
        pct = percentile(list(range(1, 21)), 0.5)
        self.assertEqual((pct.value, pct.count, pct.beyond), (10, 20, 10))
        pct = percentile(list(range(1000, 0, -1)), 0.99)
        self.assertEqual((pct.value, pct.count, pct.beyond), (990, 1000, 10))

    def test_refuses_with_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            percentile(list(range(19)), 0.5)
        with self.assertRaises(ValueError):
            percentile(list(range(999)), 0.99)
        self.assertEqual(MIN_BEYOND, 10)


if __name__ == "__main__":
    unittest.main()
