#!/usr/bin/env python3
"""Build the benchmark binary from the checkout's sources and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 40 --trace 0

Every build product, the Go build cache and the span dumps of traced runs
go under $CARGO_TARGET_DIR (default .bench_build) in the checkout. The
last line of standard output is the benchmark's JSON result; a failed
build exits non-zero without printing one.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
    })
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + ["--trace-dir", os.path.join(out, "trace"),
                           "--scratch-dir", os.path.join(out, "scratch")]
    run = subprocess.run([binary] + args, cwd=ROOT, env=env, timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
