#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <ingest|discover|serve|restart> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary (its own cargo
workspace under perfbench/, depending on the crates under crates/) in
release mode, into $CARGO_TARGET_DIR or .bench_build, then runs it with the
given arguments plus the environment it cannot see itself: the rustc
version, the git commit when there is one, and a digest of the sources it
measures. The binary's standard output is passed through; its last line is
the result object.
"""

import hashlib
import os
import subprocess
import sys

TIMEOUT_S = 170
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for root in SOURCES:
        paths = []
        if os.path.isdir(root):
            for d, dirs, files in os.walk(root):
                dirs[:] = [x for x in dirs if x != "target"]
                paths += [os.path.join(d, f) for f in files]
        elif os.path.isfile(root):
            paths.append(root)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    for path in ["Cargo.toml", "crates/core", "crates/serve", "perfbench/Cargo.toml"]:
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    commit = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown"
    extra = ["--commit", commit, "--rustc", command_output(["rustc", "--version"]),
             "--source", source_digest()]
    proc = subprocess.Popen([binary] + sys.argv[1:] + extra, env=env)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
