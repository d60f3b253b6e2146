#!/usr/bin/env python3
"""Build the lwsnap benchmark from source and run it.

Usage, from the root of a checkout:

    python3 lwbench/run.py --workload queens|compute|service \
        --seed N --seconds S --trace 0|1

Builds lwbench/lwbench.exe with dune (build output goes to stderr), then
replaces itself with the benchmark, so the benchmark's stdout is this
command's stdout and no child process outlives it.  Exits 2 without
building when the directory is not an lwsnap checkout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "lwbench", "lwbench.exe")


def main():
    for need in ("dune-project", os.path.join("lib", "core", "dune")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"lwbench: {need} not found under {ROOT}: not an lwsnap "
                  "checkout", file=sys.stderr)
            return 2
    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./lwbench/lwbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("lwbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
