"""Self-tests of the benchmark itself.

Run from the root of a source checkout (takes about three minutes)::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the package's own test
suite does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
sys.path[:0] = [HERE, SRC]

from run import DEFAULT_SEED, Run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(*args):
    rc, lines = bench(*args)
    assert rc == 0, lines[-5:]
    return json.loads(lines[-1])


class WorkDir(tempfile.TemporaryDirectory):
    def __init__(self):
        os.makedirs(BUILD, exist_ok=True)
        super().__init__(dir=BUILD)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, cls in WORKLOADS.items():
            digests = []
            for seed in (DEFAULT_SEED, DEFAULT_SEED, DEFAULT_SEED + 1):
                with WorkDir() as d:
                    wl = cls(SRC, d)
                    wl.bind()
                    digests.append(hashlib.sha256(wl.setup(seed)).hexdigest())
            self.assertEqual(digests[0], digests[1], name)
            self.assertNotEqual(digests[0], digests[2], name)


class TracingTest(unittest.TestCase):
    def test_outputs_identical_with_tracing_on_and_off(self):
        for name, cls in WORKLOADS.items():
            with WorkDir() as d:
                wl = cls(SRC, d)
                wl.bind()
                wl.setup(DEFAULT_SEED)
                wl.in_process = True
                tracer = Tracer()
                items = range(min(wl.trace_items, 8))
                plain = [Run(wl, None).item(k)[1] for k in items]
                tracer.install()
                try:
                    traced = [Run(wl, None).item(k, tracer)[1] for k in items]
                finally:
                    tracer.uninstall()
                self.assertEqual(plain, traced, name)
                self.assertTrue(tracer.paths, name)

    def test_traced_counts_repeat_exactly(self):
        exact = {"count", "B", "ratio"}
        for name in WORKLOADS:
            runs = [result("--workload", name, "--seconds", "0", "--trace", "1") for _ in range(2)]
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in exact and k != "trace.overhead_ratio"}
                for r in runs
            ]
            self.assertTrue(all(r["correct"] for r in runs), name)
            self.assertEqual(counts[0], counts[1], name)


class ContractTest(unittest.TestCase):
    def test_every_metric_and_workload_is_reported(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                r = result("--workload", name, "--seconds", "0", "--trace", str(trace))
                self.assertTrue(r["correct"], (name, trace))
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want, (name, trace))

    def test_fails_without_the_package(self):
        with WorkDir() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = bench("--workload", "oracle-g234", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=d)
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(verbosity=2)
