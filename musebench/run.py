#!/usr/bin/env python3
"""Build and run the Muse benchmark.

Usage, from the root of a checkout:

    python3 musebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the shipped `muse` binary (package muse-cli of the repository's
workspace) and the `musebench` package in release mode, offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark. Its
standard output is passed through; the last line is the JSON result.
Exits non-zero, printing no result, when the repository's sources are not
there to build.
"""

import os
import signal
import subprocess
import sys

WORKLOADS = ("serve-designers", "design-mondial", "exchange-tpch")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"musebench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    argv = sys.argv[1:]
    if "--workload" not in argv or argv[argv.index("--workload") + 1 :][:1] == []:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    workload = argv[argv.index("--workload") + 1]
    if workload not in WORKLOADS:
        fail(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates", "cli"))):
        fail("run from the root of a checkout: the repository's crates are missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "muse-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "musebench/Cargo.toml"],
    ):
        if subprocess.run(build, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(build))

    release = os.path.join(target, "release")
    workdir = os.path.join(target, "musebench-run", str(os.getpid()))
    cmd = [os.path.join(release, "musebench"), *argv, "--muse", os.path.join(release, "muse"), "--workdir", workdir]
    # A process group of its own, so a timeout also stops the servers and
    # set-up samples the benchmark started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S}s")


if __name__ == "__main__":
    main()
