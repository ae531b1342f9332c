#!/usr/bin/env python3
"""The benchmark's own test: a short run of every workload.

    python3 perfbench/test_perfbench.py      (from the repository root)

For each workload it runs the untraced and then the traced command and
checks that the last line of stdout is the result object, that every
metric BENCHMARK.json names for that mode is printed with its unit and
nothing else is, and that the run's checks held: correct, zero failed
operations, exit status 0. The traced run compares its deterministic
counts with the ones the untraced run stored, so the pair also checks
that those counts repeat. For the serve workloads the traced run must
also report the reply bytes and frames the clients received equal to
what the replay encodes, which shows that the wire tap sees the daemon's
replies. A last case runs the command in a directory
holding only BENCHMARK.json and the benchmark, where it must fail without
printing a result.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEED = 3
SECONDS = 1


def run(workload, trace, cwd=ROOT, timeout=900):
    return subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                           "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


class PerfbenchTest(unittest.TestCase):
    def check(self, workload, trace, metrics):
        proc = run(workload, trace)
        lines = proc.stdout.strip().splitlines()
        self.assertTrue(lines, proc.stderr[-2000:])
        result = json.loads(lines[-1])
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        printed = result["metrics"]
        self.assertEqual(set(printed), {m["name"] for m in metrics})
        for metric in metrics:
            self.assertEqual(printed[metric["name"]]["unit"], metric["unit"],
                             metric["name"])
            self.assertIsInstance(printed[metric["name"]]["value"],
                                  (int, float))
        return printed, proc.stdout

    def check_workload(self, workload):
        e2e, _ = self.check(workload, 0, SPEC["end_to_end"])
        for metric in SPEC["end_to_end"]:
            self.assertGreater(e2e[metric["name"]]["value"], 0, metric["name"])
        _, text = self.check(workload, 1, SPEC["per_layer"])
        if workload.startswith("serve_"):
            wire = re.search(r"reply bytes / frames per pass: (\d+) / (\d+) "
                             r"received by the clients, (\d+) / (\d+) "
                             r"encoded by the replay", text)
            self.assertIsNotNone(wire, text[-3000:])
            received, encoded = wire.group(1, 2), wire.group(3, 4)
            self.assertEqual(received, encoded)

    def test_serve_hot(self):
        self.check_workload("serve_hot")

    def test_serve_cold(self):
        self.check_workload("serve_cold")

    def test_sweep_heavy(self):
        self.check_workload("sweep_heavy")

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("serve_hot", 0, cwd=bare, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], "-v"] + sys.argv[1:])
