#!/usr/bin/env python3
"""Builds perfbench from this repository and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload batch_mas --seed 1 --seconds 30 --trace 0

perfbench and the library are compiled (Release) into the build
directory named by $CARGO_TARGET_DIR, or .bench_build, relative to the
repository root. Generated inputs and the store live in a working
directory under it and are removed when the run ends. Build output goes
to stderr; the last line of stdout is perfbench's JSON result. Exits
non-zero without a result when the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--work-dir", work_dir]
    # glibc puts the heap on transparent huge pages. On the 4-vCPU VM the
    # bounds were set on, page walks were the part of memory-bound time
    # that moved most from run to run.
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), "glibc.malloc.hugetlb=1") if t)
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env)
    lines = run.stdout.decode().strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {run.returncode}",
              file=sys.stderr)
        return run.returncode or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
