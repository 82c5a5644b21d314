#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the MITHRA service.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ together with the library sources under src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness once and passes its standard output through: the last line is
the harness's JSON result. Build output goes to standard error. Exits
non-zero without a result when the sources are missing, the build
fails, or the harness fails or overruns.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("compile", "serve_bulk", "serve_small", "serve_during_compile")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(command, timeout, **kwargs):
    """Run `command` in its own process group and wait for it; on a
    timeout, kill the whole group, reap it and re-raise."""
    process = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        output, _ = process.communicate(timeout=timeout)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, output


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "service" / "server.hh").is_file():
        print("perfbench: no library sources under src/", file=sys.stderr)
        return 2
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"

    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs]]
    if not (build / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(root / "perfbench"), "-B", str(build),
                         "-DCMAKE_BUILD_TYPE=Release"])
    try:
        for step in steps:
            code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
            if code != 0:
                print(f"perfbench: build step failed: {' '.join(step)}",
                      file=sys.stderr)
                return 1
        command = [str(build / "perfbench"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--trace-file", str(build / f"trace-{args.workload}.json")]
        code, output = run(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as expired:
        print(f"perfbench: timed out: {expired.cmd[0]}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: harness exited with {code}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
