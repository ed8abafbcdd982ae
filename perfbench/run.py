#!/usr/bin/env python3
"""Builds the ftdb end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library in src/ and the benchmark
program in perfbench/src/ are compiled with CMake into .bench_build/perfbench
(the first run builds; later runs only check that the build is current). The last line
of standard output is the JSON result; the lines before it are notes and one
provenance line. Exit status: 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not be built or run.

--selftest plants a wrong hop and a wrong mutation status in two short runs
and exits 0 only if both runs fail their checks and an unplanted run passes.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = ROOT / ".bench_build" / "run"
WORKLOADS = ("serve_read", "serve_churn", "campaign_cell", "campaign_survival")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "ftbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))
    return BUILD / "ftbench"


def source_rev():
    """The git commit when run in a git checkout, else a digest of the sources."""
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        if git.returncode == 0:
            return "git:" + git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, plant=None):
    """Runs one workload; returns (exit status, stdout lines, parsed result or None)."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(SCRATCH), "--source-rev", source_rev()]
    if plant:
        cmd += ["--plant", plant]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode in (0, 1) and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                           "metrics"}:
            result = None
    return proc.returncode, lines, result


def selftest(binary):
    cases = [("serve_read", "hop", False), ("serve_churn", "status", False),
             ("serve_read", None, True)]
    ok = True
    for workload, plant, want_correct in cases:
        status, lines, result = run(binary, workload, 1, 2, 0, plant)
        got = result is not None and result["correct"] is True and status == 0
        passed = result is not None and got == want_correct
        failures = [line for line in lines if line.startswith("FAIL:")]
        print(f"selftest {workload} plant={plant or 'none'}: exit {status}, "
              f"correct={None if result is None else result['correct']}, "
              f"{len(failures)} FAIL lines -> {'as expected' if passed else 'UNEXPECTED'}")
        for line in failures[:3]:
            print("    " + line)
        ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.selftest:
        sys.exit(selftest(binary))
    status, lines, result = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        die(f"{args.workload} exited {status} without a result")
    print("\n".join(lines))
    sys.exit(status)


if __name__ == "__main__":
    main()
