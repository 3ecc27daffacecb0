#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload fig8-gcc --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go build cache, the binary and every
scratch file live under .bench_build/ in that root. The benchmark's last
line of standard output is its JSON report; build output goes to
standard error.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, ".bench_build")
binary = os.path.join(build, "perfbench")

env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    GOTMPDIR=os.path.join(build, "tmp"),
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOWORK="off",
    GOFLAGS="",
)
os.makedirs(env["GOTMPDIR"], exist_ok=True)
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
if built.returncode != 0:
    sys.exit(built.returncode or 1)
os.chdir(root)
os.execv(binary, [binary] + sys.argv[1:])
