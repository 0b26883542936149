"""Smoke tests of the benchmark: every workload, untraced and traced, at a
tiny scale. They exercise every output check and every metric name without
a full run.

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the engine (several minutes).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = [sys.executable, os.path.join(BENCH, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    CONTRACT = json.load(handle)

OPERATORS = ["TableScan", "JoinHash", "JoinSortMerge", "JoinNestedLoop", "IndexScan", "Aggregate", "Projection",
             "Sort", "Validate", "Product", "Limit", "UnionAll"]

# Metrics each run must print by name in its report, beyond the contract's.
REPORTED = {
    ("tpch-sf0.05", 0): ["completed_per_s", "read_p50_ms", "txn_p50_ms", "txn_p99_ms"]
                        + [f"tpch.q{query:02d}.median_ms" for query in range(1, 23)],
    ("tpch-sf0.05", 1): ["storage.encode_s", "statistics.build_s", "storage.compression_ratio", "sql.parse_ms",
                         "sql.translate_ms", "optimizer.optimize_ms", "lqp.translate_ms", "operators.execute_ms",
                         "operators.other.self_ms"]
                        + [f"operators.{op}.self_ms" for op in OPERATORS]
                        + [f"operators.{op}.rows_out" for op in OPERATORS]
                        + [f"tpch.q{query:02d}.execute_ms" for query in range(1, 23)],
    ("wire-read", 0): ["completed_per_s", "read_p50_ms", "txn_p50_ms", "txn_p99_ms", "server.read_p99_ms",
                       "wire.completed_overall_per_s", "wire.rounds", "wire.read_distinct_rows"],
    ("wire-read", 1): ["server.read_roundtrip_ms", "sql.read_inprocess_ms", "server.read_overhead_ms",
                       "server.read_p99_ms", "server.bytes_per_statement", "server.statements_rejected"],
    ("wire-htap", 0): ["completed_per_s", "read_p50_ms", "txn_p50_ms", "txn_p99_ms", "analytic_p50_ms",
                       "concurrency.rollback_share", "wire.rounds"],
    ("wire-htap", 1): ["server.stmt_overhead_ms", "operators.analytic_execute_ms", "concurrency.commit_us",
                       "concurrency.conflict_retries_per_txn", "concurrency.rollback_share",
                       "server.bytes_per_statement", "server.statements_rejected"],
}


def run(workload, trace, seed=7):
    command = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                     "--smoke"]
    return subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=1800)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        process = run(workload, trace)
        self.assertEqual(process.returncode, 0, process.stderr[-2000:])
        lines = process.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], process.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        contract = CONTRACT["per_layer" if trace else "end_to_end"]
        self.assertEqual({name: metric["unit"] for name, metric in result["metrics"].items()},
                         {metric["name"]: metric["unit"] for metric in contract})
        reported = {line.split()[1] for line in lines if line.startswith("metric ")}
        missing = [name for name in REPORTED[(workload, trace)] if name not in reported]
        self.assertEqual(missing, [])
        self.assertTrue(any(line.startswith("metadata {") for line in lines))
        self.assertTrue(any(line.startswith("failures_by_sqlstate {") for line in lines))
        # No operation fails on this engine; wire-htap retries its conflicts.
        self.assertEqual(result["failed"], 0, process.stdout[-2000:])
        if workload == "wire-read":
            # Every customer holds values of its own, so a read answered with
            # another key's row fails the check.
            values = {line.split()[1]: float(line.split()[2]) for line in lines if line.startswith("metric ")}
            self.assertEqual(values["wire.read_distinct_rows"], 1200)
        return result

    def test_tpch(self):
        self.check("tpch-sf0.05", 0)

    def test_tpch_traced(self):
        result = self.check("tpch-sf0.05", 1)
        # Planning stages plus operator self times cover the traced queries.
        self.assertGreaterEqual(result["metrics"]["operators.attributed_share"]["value"], 0.95)

    def test_wire_read(self):
        self.check("wire-read", 0)

    def test_wire_read_traced(self):
        self.check("wire-read", 1)

    def test_wire_htap(self):
        self.check("wire-htap", 0)

    def test_wire_htap_traced(self):
        self.check("wire-htap", 1)

    def test_fails_without_the_engine(self):
        """With only BENCHMARK.json and the benchmark's files, there is nothing
        to build: the run must fail without printing a result."""
        base = os.path.join(ROOT, ".bench_build", "isolated")
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base)
        shutil.copytree(BENCH, os.path.join(base, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        environment = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        process = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wire-read", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=base,
                                 env=environment, timeout=180)
        shutil.rmtree(base, ignore_errors=True)
        self.assertNotEqual(process.returncode, 0)
        self.assertFalse(process.stdout.strip().endswith("}"))


if __name__ == "__main__":
    unittest.main()
