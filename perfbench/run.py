#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload gups --seed 1 --seconds 20 --trace 0

The script builds perfbench/ (a Go module of its own that imports the
runtime's packages from the repository) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, then runs the binary with the given
arguments. Everything it writes — the Go build cache, the binary, shm
segment files, traces and hang dumps — stays under that directory. The
last line of standard output is the benchmark's JSON result.
"""

import hashlib
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175  # one run must end within 180 s
BUILD_TIMEOUT_S = 850  # the first build in a fresh checkout compiles the standard library


def tree_id(root):
    """A content hash of the Go sources, standing in for a commit id when
    the checkout is not a git repository."""
    h = hashlib.sha1()
    paths = []
    for d, dirs, files in os.walk(root):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in files:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.join(d, f))
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit_id(root):
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip() + " tree-" + tree_id(root)
        except (OSError, subprocess.SubprocessError):
            pass
    return "tree-" + tree_id(root)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(root, build))
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    binary = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_COMMIT"] = commit_id(root)
    args = [binary, "-workdir", os.path.join(build, "work")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s, killed", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 4


if __name__ == "__main__":
    sys.exit(main())
