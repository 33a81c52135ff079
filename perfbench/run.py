#!/usr/bin/env python3
"""Build the precipice benchmark from source and run one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload <cliff_edge|explore|serve> \
        --seed <n> --seconds <n> --trace <0|1> [--quick]

The package builds into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). `--trace 0` runs the `perfbench` binary, `--trace 1`
the `perfbench-traced` binary with its counting allocator. The last line
of standard output is the JSON result; see perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]


def source_rev():
    """The git commit when there is one, else a hash of the sources."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = os.path.join(ROOT, ".git", name)
            if os.path.exists(loose):
                with open(loose) as f:
                    return "git:" + f.read().strip()
            with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + name):
                        return "git:" + line.split()[0]
        else:
            return "git:" + ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            for f in fs
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
        )
        for file in files:
            digest.update(os.path.relpath(file, ROOT).encode())
            with open(file, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own cache files go under the build directory as well, so a
    # run writes nothing outside the checkout.
    env.setdefault("CARGO_HOME", os.path.join(target, "cargo-home"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins"],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = any(a == "--trace" and b == "1" for a, b in zip(argv, argv[1:]))
    binary = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    run = subprocess.run([binary, *argv, "--rev", source_rev()], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
