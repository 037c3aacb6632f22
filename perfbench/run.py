#!/usr/bin/env python3
"""Build and run LogStore's benchmark on the checkout it is run from.

Run from the root of the checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports
the checkout's logstore module through a replace directive. This script
builds it into the build directory ($CARGO_TARGET_DIR when set, else
.bench_build), keeping the Go build cache, module cache, temporary files
and tool configuration there too, then runs it with the given arguments.
The benchmark's working files (durable WALs, span files) also go under
the build directory. The exit status is the benchmark's; a failed build
exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    for d in ("tmp", "work"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: the last line of stdout is the result.
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode or 1
    args = [binary] + sys.argv[1:] + ["--workdir", os.path.join(build, "work")]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
