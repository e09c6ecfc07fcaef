#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload resnet50-step --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into
.bench_build/ (or $CARGO_TARGET_DIR) with the Go build cache kept there
too, so the run writes nothing outside the checkout. Every
argument is passed to the program; its standard output, whose last line
is the JSON result, is passed through unchanged.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for at most 60 s plus set-up and the replay harness.
RUN_TIMEOUT_S = 170


def main():
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    home, tmp = os.path.join(out, "home"), os.path.join(out, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    # Every path the Go toolchain writes to points into the build
    # directory, and no setting of the caller's changes the build.
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=home,
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:] + ["--spans", os.path.join(out, "spans")]
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
