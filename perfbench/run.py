#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload paper|world|serve --seed N \
        --seconds S --trace 0|1

The benchmark is the Go program in this directory (its own module, which
builds the repository's packages from source). Everything the build and the
run write stays under .bench_build/ in the repository root: the Go build
cache, the binary, and a traced run's span file and CPU profiles. The last
line of standard output is the run's JSON result; the exit code is the
program's, or the build's when the build fails.
"""
import os
import shutil
import subprocess
import sys


def find_go():
    """The go command on PATH, else under GOROOT or the official installer's
    default location."""
    candidates = [shutil.which("go")]
    if os.environ.get("GOROOT"):
        candidates.append(os.path.join(os.environ["GOROOT"], "bin", "go"))
    candidates.append("/usr/local/go/bin/go")
    for c in candidates:
        if c and os.access(c, os.X_OK):
            return c
    return None


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    go = find_go()
    if go is None:
        print("perfbench: no go command found", file=sys.stderr)
        return 1
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    out = os.path.join(build, "perfbench-out")
    ran = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
