#!/usr/bin/env python3
"""Build the release binaries and the perfbench harness, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build); the harness keeps its scratch files and trace
output under .bench_out. The last line of standard output is the result
object; build output goes to standard error.
"""

import os
import subprocess
import sys

# Children must run with their defaults: no pinned thread count, no
# fault-injection schedule.
SCRUBBED = ("UNITY_BUILD_THREADS", "UNITY_FAILPOINTS")


def main() -> int:
    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: no Cargo.toml and crates/ here; run from the repository root",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline",
         "-p", "unity-composition", "--bin", "unity-check",
         "-p", "unity-serve", "--bin", "unity-serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "perfbench"), "--root", root, "--bin-dir", release]
    return subprocess.run(harness + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
