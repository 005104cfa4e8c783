#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that every workload emits
exactly the metrics BENCHMARK.json names, with their units, in both modes;
that malformed arguments exit nonzero before any work; that a deliberately
wrong reference observation makes the behaviour check fail; that the trace
file is Chrome trace-event JSON; that plopti_cold's traced run measures the
build cache; and that the cross-run digest record catches a changed image
but does not compare the images of a different benchmark binary.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--scale-factor", "0.05", "--seconds", "0.2"]


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_driver():
    run = load_run_module()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return run.build(ROOT, target / "perfbench")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = str(build_driver())
        cls.tmp = tempfile.TemporaryDirectory()
        cls.state = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def drive(self, *args, state=None, binary=None):
        cmd = [binary or self.binary, *args, "--state-dir",
               str(state or self.state)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        return done.returncode, result, done.stderr

    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCH[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = self.drive(
                        "--workload", workload, "--seed", "3", "--trace",
                        trace, *TINY)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == "0":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    if trace == "1" and workload == "plopti_cold":
                        for name in ("cache.load_s", "cache.store_s",
                                     "cache.method_hit_rate",
                                     "cache.group_reuse_rate",
                                     "cache.files_written",
                                     "cache.bytes_written"):
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)
                        self.assertLess(
                            result["metrics"]["cache.method_hit_rate"]
                            ["value"], 1)

    def test_bad_arguments_exit_nonzero(self):
        good = {"--workload": "plopti_cold", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        bad = [("--seed", "x"), ("--seed", "-1"), ("--seed", "1x"),
               ("--seed", ""), ("--seconds", "0"), ("--seconds", "-2"),
               ("--seconds", "10s"), ("--seconds", "nan"), ("--trace", "2"),
               ("--workload", "plopti"), ("--workload", "PLOPTI_COLD")]
        run_py = [sys.executable, str(ROOT / "perfbench" / "run.py")]
        for flag, value in bad:
            args = dict(good, **{flag: value})
            argv = [x for kv in args.items() for x in kv]
            for cmd in ([self.binary, *argv], [*run_py, *argv]):
                with self.subTest(cmd=cmd[0], flag=flag, value=value):
                    done = subprocess.run(cmd, capture_output=True, text=True,
                                          timeout=60)
                    self.assertNotEqual(done.returncode, 0)
                    self.assertEqual(done.stdout.strip(), "")
        for argv in (["--workload", "plopti_cold", "--seed", "1", "--trace",
                      "0"],
                     [*[x for kv in good.items() for x in kv], "--bogus", "1"],
                     [*[x for kv in good.items() for x in kv], "--seed", "2"]):
            with self.subTest(argv=argv):
                done = subprocess.run([self.binary, *argv],
                                      capture_output=True, text=True,
                                      timeout=60)
                self.assertNotEqual(done.returncode, 0)
                self.assertEqual(done.stdout.strip(), "")

    def test_wrong_reference_observation_fails_the_check(self):
        for workload in ("plopti_cold", "daemon_service"):
            with self.subTest(workload=workload):
                code, result, err = self.drive(
                    "--workload", workload, "--seed", "4", "--trace", "0",
                    "--wrong-observation", *TINY)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("behaviour differs", err)

    def test_trace_file_is_chrome_trace_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.json"
            code, result, err = self.drive(
                "--workload", "closed_profiled", "--seed", "5", "--trace",
                "1", "--trace-out", str(path), *TINY)
            self.assertEqual(code, 0, err[-2000:])
            events = json.loads(path.read_text())["traceEvents"]
            names = {e["name"] for e in events}
            for name in ("build", "core.compile", "core.ltbo", "oat.link",
                         "profile.prebuild", "sim.profile_run",
                         "layout.solve"):
                self.assertIn(name, names)
            ids = {e["args"]["id"] for e in events}
            for e in events:
                self.assertEqual(e["ph"], "X")
                self.assertGreaterEqual(e["dur"], 0)
                self.assertGreaterEqual(e["args"]["build"], 1)
                parent = e["args"]["parent"]
                self.assertTrue(parent == 0 or parent in ids)
            self.assertIn("per-layer self time", err)
            self.assertGreaterEqual(
                result["metrics"]["trace.span_coverage"]["value"], 0.95)

    def test_digest_record_catches_a_changed_image(self):
        with tempfile.TemporaryDirectory() as tmp:
            state = Path(tmp)
            args = ["--workload", "plopti_cold", "--seed", "6", "--trace",
                    "0", *TINY]
            code, _, err = self.drive(*args, state=state)
            self.assertEqual(code, 0, err[-2000:])
            code, _, err = self.drive(*args, state=state)
            self.assertEqual(code, 0, err[-2000:])
            (record,) = state.glob("digests-plopti_cold-6-*.txt")
            lines = record.read_text().splitlines()
            lines[0] = format(int(lines[0], 16) ^ 1, "x")
            record.write_text("\n".join(lines) + "\n")
            code, result, err = self.drive(*args, state=state)
            self.assertNotEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertIn("differ from an earlier run", err)

    def test_digest_record_of_another_binary_is_not_compared(self):
        with tempfile.TemporaryDirectory() as tmp:
            state = Path(tmp) / "state"
            other = Path(tmp) / "calibro_perfbench_other"
            shutil.copy2(self.binary, other)
            with open(other, "ab") as f:  # Same code, different bytes.
                f.write(b"\0")
            args = ["--workload", "plopti_cold", "--seed", "8", "--trace",
                    "0", *TINY]
            code, _, err = self.drive(*args, state=state)
            self.assertEqual(code, 0, err[-2000:])
            (record,) = state.glob("digests-plopti_cold-8-*.txt")
            lines = record.read_text().splitlines()
            lines[0] = format(int(lines[0], 16) ^ 1, "x")
            record.write_text("\n".join(lines) + "\n")
            code, _, err = self.drive(*args, state=state, binary=str(other))
            self.assertEqual(code, 0, err[-2000:])
            self.assertEqual(
                len(list(state.glob("digests-plopti_cold-8-*.txt"))), 2)
            code, _, err = self.drive(*args, state=state)
            self.assertNotEqual(code, 0)
            self.assertIn("differ from an earlier run", err)


if __name__ == "__main__":
    unittest.main()
