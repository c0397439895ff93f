#!/usr/bin/env python3
"""scibench's end-to-end benchmark: build from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a scibench checkout. The first run configures and
builds the tools and the benchmark driver under .bench_build/ (Release);
later runs only bring that build up to date. Every input is generated from
--seed. The last line of standard output is the JSON result; RATIONALE.md
describes the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BUILD = Path(".bench_build")
WORKLOADS = ("daemon_light", "inproc_reduce", "analyze_gate")
TARGETS = ("perfbench_driver", "scibenchd", "scibench_worker", "scibench_report", "scibench_ci")
DRIVER_TIMEOUT_S = 170


def build() -> None:
    """Configures once, then builds the targets the benchmark needs."""
    if not Path("CMakeLists.txt").is_file() or not Path("src").is_dir():
        raise RuntimeError("run from the root of a scibench checkout")
    # Compiler and tool temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp.resolve())
    attach = Path(__file__).resolve().parent / "attach.cmake"
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", ".", "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
                        f"-DCMAKE_PROJECT_INCLUDE={attach}"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                    "--target", *TARGETS],
                   check=True, stdout=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    command = [str(BUILD / "perfbench" / "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", str(BUILD / "tools"),
               "--work-dir", str(BUILD / "work" / args.workload)]
    try:
        return subprocess.run(command, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
