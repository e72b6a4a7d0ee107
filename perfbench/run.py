#!/usr/bin/env python3
"""End-to-end benchmark of the CryoWire stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload anchors|dse-grid|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (a CMake project that
links the repository's libraries) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. The program's notes go to standard
output as '#' lines; the last line is the result object. Traces of
--trace 1 runs land in traces/ beside the build directory.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("anchors", "dse-grid", "serve-mixed")
# CRYOWIRE_JOBS is pinned to the workers each workload asks for, so the
# shared pool never grows past it.
JOBS = {"anchors": 3, "dse-grid": 2, "serve-mixed": 2}
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Run a build step with its output on stderr; fail on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed ({proc.returncode})")


def build(root):
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out_root, "perfbench")
    binary = os.path.join(build_dir, "cryowire_perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no CryoWire sources (src/CMakeLists.txt) in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"),
                   "-B", build_dir], "configure")
    run_quiet(["cmake", "--build", build_dir, "-j3"], "build")
    if not os.path.isfile(binary):
        fail("build produced no benchmark binary")
    return binary, os.path.join(root, out_root)


def source_revision(root):
    """The git commit when there is one, else a digest of src/."""
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seed < 0 or args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary, out_root = build(root)
    work = os.path.join(out_root, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ)
    if args.selftest:
        env["CRYOWIRE_JOBS"] = "3"
        cmd = [binary, "--selftest", os.path.join(root, "BENCHMARK.json"),
               "--work-dir", work]
    else:
        env["CRYOWIRE_JOBS"] = str(JOBS[args.workload])
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work,
               "--trace-dir", os.path.join(out_root, "traces"),
               "--commit", source_revision(root)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"cryowire_perfbench exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"cryowire_perfbench exited with {code}")


if __name__ == "__main__":
    main()
