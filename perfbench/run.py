#!/usr/bin/env python3
"""Build and run the Calibro benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) with CMake into $CARGO_TARGET_DIR (default .bench_build), then
runs one workload. The last line of stdout is the result JSON; build output
and progress go to stderr. Arguments are checked before anything is built:
a malformed one exits 2.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("plopti_cold", "closed_profiled", "daemon_service")
# A run must end within 180 s; leave room for start-up.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    """Strictly parses the four required flags; returns them as strings."""
    rules = {
        "--workload": lambda v: v in WORKLOADS,
        "--seed": lambda v: re.fullmatch(r"[0-9]+", v) is not None,
        "--seconds": lambda v: re.fullmatch(r"[0-9]*\.?[0-9]+", v) is not None
        and float(v) > 0,
        "--trace": lambda v: v in ("0", "1"),
    }
    seen = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in rules:
            fail(f"unknown argument '{flag}'")
        if i + 1 >= len(argv):
            fail(f"{flag} needs a value")
        if flag in seen:
            fail(f"{flag} given twice")
        value = argv[i + 1]
        if not rules[flag](value):
            fail(f"bad value for {flag}: '{value}'")
        seen[flag] = value
        i += 2
    for flag in rules:
        if flag not in seen:
            fail(f"missing {flag}")
    return seen


def build(root, build_dir):
    """Configures and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "calibro_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=root)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", code=3)
    return build_dir / "calibro_perfbench"


def main():
    args = parse_args(sys.argv[1:])
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    binary = build(root, target / "perfbench")
    state = target / "perfbench-state"
    state.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary)]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, args[flag]]
    cmd += ["--state-dir", str(state)]
    if args["--trace"] == "1":
        cmd += ["--trace-out",
                str(target / f"perfbench-trace-{args['--workload']}-"
                              f"{args['--seed']}.json")]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=4)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
