#!/usr/bin/env python3
"""Builds and runs the trico cluster benchmark (see README.md).

    python3 clusterbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The first run configures and
builds clusterbench/ (the trico library, trico_cli, cb_host and cb_loadgen)
into .bench_build/clusterbench; later runs rebuild only what changed. The
last line of standard output is the JSON result of cb_loadgen.
"""

import argparse
import ctypes
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "clusterbench")
WORKLOADS = ("affinity-small", "scatter-large", "cold-distinct")
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def fail(message, code):
    print("clusterbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for command in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4", "--target", "cb_loadgen"],
    ):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(command), 4)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "examples", "clusterbench"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_loadgen(args):
    """Runs cb_loadgen in its own process group and returns its exit code.
    This process is made a child subreaper, so every process the run starts
    (cb_host, its workers) is killed and reaped here, even if orphaned."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    command = [os.path.join(BUILD, "cb_loadgen"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_id(), "--out", out]
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("clusterbench: run timed out", file=sys.stderr)
        code = 5
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        fail("the trico sources (CMakeLists.txt, src/) are missing from "
             + REPO, 2)
    build()
    sys.stdout.flush()
    sys.exit(run_loadgen(args))


if __name__ == "__main__":
    main()
