#!/usr/bin/env python3
"""Build the engine and the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `engine` binary of the repository's workspace and the
`perfbench` package (its own workspace) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs `perfbench`, whose last stdout line
is the result object.  Inputs, results and span files go under
`.perfbench/`.  Exits non-zero without a result when the checkout holds
no sources to build.
"""

import hashlib
import os
import subprocess
import sys

USAGE = "usage: run.py --workload NAME --seed N --seconds S --trace 0|1"


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even in a checkout without git metadata."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "crates", "perfbench"]
    for top in tops:
        for folder, dirs, files in os.walk(os.path.join(root, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                if name == "Cargo.lock" or "__pycache__" in path:
                    continue
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def main(argv):
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in argv:
            fail(f"missing {flag}\n{USAGE}")
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "engine", "Cargo.toml"),
                   os.path.join("perfbench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a source checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "rapid-engine", "--bin", "engine"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(command)}")
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *argv,
               "--engine", os.path.join(release, "engine"),
               "--source", source_digest(root)]
    sys.exit(subprocess.run(command, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
