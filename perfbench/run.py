#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4_point --seed 1 --seconds 30 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the crates under crates/. It is built in release
mode, offline, into $CARGO_TARGET_DIR (default: .bench_build at the
checkout root), then run with the given arguments from the checkout
root. Scratch files go to .bench_work/. The last line of standard
output is the result JSON. Without the repository's crates the build
fails and this script exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run(
            [str(binary), *sys.argv[1:], "--work-dir", str(ROOT / ".bench_work")],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
