#!/usr/bin/env python3
"""Tests of the repository benchmark (perfbench/run.py).

    python3 perfbench/test_perfbench.py

Runs from the repository root and builds perfbench like run.py does. The
runs are short (--seconds 1), so the values are not meaningful; the tests
check the contract: outputs are checked, failures fail the command, and
every printed name is declared in BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
# The workloads of BENCHMARK.json; serve and mixed-run run but are not
# listed (see README.md).
WORKLOADS = ["par-kernels", "entangled", "pml"]


def run(args, cwd=ROOT):
    proc = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=600)
    lines = proc.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr.decode()


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_spec_matches_program(self):
        # BENCHMARK.json is generated from the program's own metric list.
        run(["--workload", "pml", "--seconds", "0.1", "--trace", "0"])
        exe = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                           or ".bench_build", "perfbench", "perfbench")
        out = subprocess.run([exe, "--spec"], stdout=subprocess.PIPE,
                             check=True).stdout
        self.assertEqual(json.loads(out), spec())

    def test_injected_mismatch_fails(self):
        for w in ("par-kernels", "pml"):
            code, result, err = run(["--workload", w, "--seed", "5",
                                     "--seconds", "1", "--trace", "0",
                                     "--inject-mismatch"])
            self.assertNotEqual(code, 0, w)
            self.assertFalse(result["correct"], w)
            self.assertGreaterEqual(result["failed"], 1, w)
            self.assertIn("CHECK FAILED", err, w)

    def test_every_printed_name_is_declared(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in s[key]}
            for w in WORKLOADS:
                code, result, err = run(["--workload", w, "--seed", "2",
                                         "--seconds", "1",
                                         "--trace", str(trace)])
                self.assertEqual(code, 0, "%s trace %d: %s" % (w, trace, err))
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared, "%s trace %d" % (w, trace))
                if trace == 0:
                    for k, v in result["metrics"].items():
                        self.assertGreater(v["value"], 0, "%s %s" % (w, k))

    def test_listed_workloads(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]], WORKLOADS)

    def test_serve_prints_served_latency(self):
        code, result, err = run(["--workload", "serve", "--seed", "2",
                                 "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])
        for k in ("setup_s", "latency_p50_ms", "latency_p99_ms"):
            self.assertGreater(result["metrics"][k]["value"], 0, k)
        self.assertIn("max_rate_rps", result["metrics"])

    # Known runtime defect (README.md, "Known defects"): the par-kernels
    # operations of seeds 1-8, each seed's list inside one Runtime::run,
    # crash the collector. This test starts to pass once the runtime is
    # fixed; mixed-run can then join BENCHMARK.json.
    @unittest.expectedFailure
    def test_mixed_run(self):
        code, result, err = run(["--workload", "mixed-run", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"])

    def test_fails_without_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot
        # build the runtime: the command fails without printing a result.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pml",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), b"")


if __name__ == "__main__":
    unittest.main()
