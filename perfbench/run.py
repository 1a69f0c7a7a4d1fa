#!/usr/bin/env python3
"""E20: the end-to-end benchmark of the shipped `rexdex serve` and
`rexdex batch` binaries.

Usage, from the root of a rexdex checkout:

    python3 perfbench/run.py --workload serve-pages|serve-tokens|batch-pages \\
        --seed N --seconds S --trace 0|1

Builds `rexdex` and the benchmark from source with dune, then runs the
benchmark program (perfbench/e20.ml).  With --trace 0 it times the real
binary end to end; with --trace 1 it runs the per-layer traced run.  The
last line of standard output is the JSON result; scratch files go to
.perfbench_out/ in the checkout.

    python3 perfbench/run.py --workload all --seed N --seconds S

prints the full report instead: every workload, end to end and traced,
and exits 1 if any answer was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["serve-pages", "serve-tokens", "batch-pages"]

BIN = os.path.join("_build", "default", "bin", "rexdex_cli.exe")
EXE = os.path.join("_build", "default", "perfbench", "e20.exe")


def run(workload, args):
    """One benchmark run; answers (exit code, stdout lines)."""
    out = subprocess.run(
        [EXE, "--bin", BIN, "--workload", workload, "--seed", args.seed,
         "--seconds", args.seconds, "--trace", args.trace],
        stdout=subprocess.PIPE,
        text=True,
    )
    return out.returncode, out.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description="E20 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        print("e20: run this from the root of a rexdex checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + BIN, "./" + EXE],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e20: build failed", file=sys.stderr)
        return build.returncode
    if args.workload != "all":
        code, lines = run(args.workload, args)
        print("\n".join(lines))
        return code
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args.trace = trace
            code, lines = run(workload, args)
            print("\n".join(lines[:-1]))
            ok = ok and code == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
