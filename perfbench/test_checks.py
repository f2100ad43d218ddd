"""Tests for the benchmark's output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import unittest

import checks


def report(n=3):
    return [
        {"name": f"s{i}", "jobs": 10 + i, "completed": 8 + i, "unfinished": 2,
         "emissions_g": 1000.0 + i}
        for i in range(n)
    ]


class SweepChecks(unittest.TestCase):
    def test_reference_report_passes(self):
        good = report()
        reference = checks.emissions_by_name(json.dumps(good))
        self.assertEqual(checks.check_sweep(json.dumps(good), 3, reference), [])

    def test_one_altered_emissions_value_is_a_failure(self):
        good = report()
        reference = checks.emissions_by_name(json.dumps(good))
        bad = copy.deepcopy(good)
        bad[1]["emissions_g"] *= 1.002  # 0.2% drift, over the 0.1% tolerance
        problems = checks.check_sweep(json.dumps(bad), 3, reference)
        self.assertEqual(len(problems), 1)
        self.assertIn("s1", problems[0])
        # Within tolerance still passes.
        bad[1]["emissions_g"] = good[1]["emissions_g"] * 1.0005
        self.assertEqual(checks.check_sweep(json.dumps(bad), 3, reference), [])

    def test_invariants_hold_on_any_seed(self):
        bad = report()
        bad[0]["completed"] += 1
        self.assertTrue(checks.check_sweep(json.dumps(bad), 3))
        for value in (0.0, -1.0, None, "nan"):
            bad = report()
            bad[2]["emissions_g"] = value
            self.assertTrue(checks.check_sweep(json.dumps(bad), 3), value)
        self.assertTrue(checks.check_sweep(json.dumps(report(2)), 3))
        self.assertTrue(checks.check_sweep("[{", 3))

    def test_missing_and_duplicate_scenarios_fail(self):
        reference = checks.emissions_by_name(json.dumps(report()))
        dup = report()
        dup[2]["name"] = "s1"
        self.assertTrue(checks.check_sweep(json.dumps(dup), 3, reference))


class ByteChecks(unittest.TestCase):
    def test_single_changed_byte_is_a_failure(self):
        reference = b"Fig 7\n| 1 | 23.4 |\n"
        self.assertEqual(checks.check_bytes(reference, reference, "run all"), [])
        problems = checks.check_bytes(b"Fig 7\n| 1 | 23.5 |\n", reference, "run all")
        self.assertEqual(problems, ["run all: differs from the reference at byte 15"])
        self.assertTrue(checks.check_bytes(reference[:-1], reference, "run all"))


if __name__ == "__main__":
    unittest.main()
