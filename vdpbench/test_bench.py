#!/usr/bin/env python3
"""The benchmark's own tests: negative controls and a smoke run.

  python3 vdpbench/test_bench.py [-v]

Builds the benchmark through run.py, then runs it at tiny sizes (--tiny):

- an oracle with one expected verdict flipped gives failed > 0 and
  correct = false, on every workload;
- a hostile-fleet run whose server 0 is started with --fault close:0 is
  flagged by the fleet.retries check;
- a smoke run of every workload prints every metric name of BENCHMARK.json
  with its unit (untraced: end_to_end, traced: per_layer), the human-readable
  names (release_ms.*, batch_ms.*, failed_ratio, ...), and failed = 0;
- with fewer CPUs than its thread budget the benchmark refuses to run;
- in a directory holding only BENCHMARK.json and vdpbench/, run.py exits
  non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["release", "ingest", "hostile-fleet"]


def bench(workload, trace=0, seconds=1, extra=(), cwd=ROOT, preexec_fn=None):
    """Runs run.py; returns (exit code, stdout lines, parsed result or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "vdpbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
        preexec_fn=preexec_fn)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, lines, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_flipped_oracle_fails_operations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = bench(workload, extra=["--tiny", "--flip-oracle"])
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])

    def test_fleet_retries_flag_a_faulty_server(self):
        code, lines, result = bench("hostile-fleet", trace=1, seconds=2,
                                    extra=["--tiny", "--server-fault", "close:0"])
        self.assertEqual(code, 0, "\n".join(lines))
        self.assertGreater(result["metrics"]["fleet.retries"]["value"], 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any(line.startswith("FLAG: fleet.retries=") for line in lines))
        # The verdicts themselves still match the oracle: only the fleet
        # check flags the run.
        self.assertEqual(result["failed"], 0)

    def test_smoke_prints_every_metric(self):
        for workload in WORKLOADS:
            op = "release_ms" if workload == "release" else "batch_ms"
            human = [op + ".p50", op + ".p90", "uploads_per_s", "setup_s", "peak_rss_mib",
                     "failed_ratio"]
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = bench(workload, trace=trace, extra=["--tiny"])
                    self.assertEqual(code, 0, "\n".join(lines))
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)
                    text = "\n".join(lines)
                    for name in human:
                        self.assertIn(name + " = ", text)
                    self.assertIn("host: nproc=", text)
                    if trace:
                        self.assertIn("unattributed", text)

    def test_refuses_more_threads_than_cpus(self):
        if len(os.sched_getaffinity(0)) < 2:
            self.skipTest("needs two CPUs")
        one_cpu = {min(os.sched_getaffinity(0))}
        code, lines, result = bench("ingest", extra=["--tiny"],
                                    preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "vdpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, lines, result = bench("ingest", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
