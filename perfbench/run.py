#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is waters-lp, small-bb, service-replay, fig2-eval or all. The last
line of standard output is the run's JSON result. Build output goes to
standard error; a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

# Runtime parameters are pinned here, not taken from the environment:
# s sizes every domain's minor heap (in words), o is the major GC's
# space overhead. perfbench.exe sets the same values through Gc.set.
OCAMLRUNPARAM = "s=8M,o=120"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env["OCAMLRUNPARAM"] = OCAMLRUNPARAM
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
