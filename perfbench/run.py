#!/usr/bin/env python3
"""Builds and runs the kgfd pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <discover-sweep|train-epochs|serve-mixed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark builds the `kgfd` binary and this package from source in
release mode (into $CARGO_TARGET_DIR, default `.bench_build` at the root),
then runs the workload. The last line of standard output is the result
object. Exits non-zero without a result when the repository sources are
missing or the build fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Kill the workload if it overruns; a run measures at most 60 s of work.
RUN_TIMEOUT_S = 175


def cargo(args, env):
    return subprocess.run(["cargo", *args, "--offline"], cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode


def main(argv):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: no kgfd sources at {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    manifest = str(HERE / "Cargo.toml")

    if argv == ["--self-test"]:
        return cargo(["test", "--release", "--manifest-path", manifest], env)

    if cargo(["build", "--release", "-p", "kgfd-cli", "--bin", "kgfd"], env) != 0:
        print("perfbench: building kgfd failed", file=sys.stderr)
        return 2
    if cargo(["build", "--release", "--manifest-path", manifest], env) != 0:
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    work = target / "perfbench"
    cmd = [str(target / "release" / "kgfd-perfbench"), *argv,
           "--kgfd", str(target / "release" / "kgfd"), "--work-dir", str(work)]
    # A session of its own, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
