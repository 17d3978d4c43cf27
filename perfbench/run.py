#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 35 --trace 0

The script builds the Go benchmark in perfbench/ against the module at the
checkout root, keeping every Go cache inside the checkout's build
directory ($CARGO_TARGET_DIR if set, else .bench_build), then runs it with
the given arguments. The last line of standard output is the JSON result.
It exits non-zero without a result when the module it measures is absent.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal", "kernel")
    ):
        print("perfbench: no ufork module at the checkout root; nothing to measure",
              file=sys.stderr)
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    os.makedirs(build, exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary, "--out", os.path.join(build, "spans")] + sys.argv[1:],
                         cwd=ROOT, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
