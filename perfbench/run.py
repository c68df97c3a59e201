#!/usr/bin/env python3
"""Builds and runs the end-to-end archive benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ingest|serve|node_loss \
        --seed N --seconds S --trace 0|1

It configures and builds `aec_perfbench` (this directory's CMake package,
on top of the repository's `aec` library) into $CARGO_TARGET_DIR or
`.bench_build`, runs it with its archives under `.bench_work`, and passes
its standard output through: the last line is the result object. Build
output goes to standard error. Exits non-zero, without a result line,
when the repository sources are missing, the build fails, or the run
fails or overruns.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "aec_perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "aec_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "node_loss"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail(f"no repository sources beside {HERE.name}/ "
                    "(CMakeLists.txt, src/); run from a full checkout")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        return fail(f"build failed: {e}")

    workdir = ROOT / ".bench_work" / str(os.getpid())
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return fail(f"aec_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout)
        return fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
