#!/usr/bin/env python3
"""Tests of the benchmark's correctness checks.

    python3 wscbench/tests/test_checks.py

Run from the repository root; builds the package first (as run.py does).
Each deliberate fault must surface as failed_ops > 0, and a clean run must
report none.
"""

import json
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

BINS = None


def setUpModule():
    global BINS
    BINS = run.build()


class LoadgenChecks(unittest.TestCase):

    def churn(self, preload, *extra):
        return run.loadgen_round(BINS, "local_churn", 7, preload, extra)

    def test_clean_run_has_no_failures(self):
        for preload in (True, False):
            r = self.churn(preload)
            self.assertEqual(r["failed"], 0, r)
            self.assertGreater(r["attempted"], 0)
            self.assertEqual(run.failed_ops(r["failed"], r["attempted"]), 0)

    def test_shim_balance_is_checked(self):
        r = self.churn(True)
        self.assertEqual(r["allocator"], "wscmalloc")
        self.assertEqual(r["balance"]["allocations"], r["balance"]["frees"])

    def test_corrupted_object_fails(self):
        for preload in (True, False):
            r = self.churn(preload, "--inject=corrupt")
            self.assertGreater(run.failed_ops(r["failed"], r["attempted"]), 0)

    def test_overlapping_pair_fails(self):
        for preload in (True, False):
            r = self.churn(preload, "--inject=overlap")
            self.assertGreater(run.failed_ops(r["failed"], r["attempted"]), 0)


class SimChecks(unittest.TestCase):

    def test_reference_digest_matches(self):
        r = run.sim_round(BINS, 5)
        self.assertEqual(r["failed"], 0, r)
        self.assertEqual(r["digest"], r["reference"])

    def test_wrong_digest_fails(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        ref["digests"] = {k: "0" * 16 for k in ref["digests"]}
        os.makedirs(run.OUT, exist_ok=True)
        bad = os.path.join(run.OUT, "wrong_digests.json")
        with open(bad, "w") as f:
            json.dump(ref, f)
        r = run.sim_round(BINS, 5, reference=bad)
        self.assertGreater(run.failed_ops(r["failed"], r["attempted"]), 0)


class Runner(unittest.TestCase):

    def test_failed_check_exits_non_zero(self):
        with mock.patch.object(run, "build", return_value=BINS), \
             mock.patch.object(run, "end_to_end",
                               return_value=({n: 1.0 for n, _ in
                                              run.END_TO_END}, 10, 1)), \
             mock.patch("builtins.print"):
            self.assertEqual(run.main(["--workload", "local_churn", "--seed",
                                       "1", "--seconds", "1"]), 1)

    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
