"""Entry point of the lpl benchmark; see README.md and bench.py.

    python3 perfbench/run.py --workload classify-sampled --seed 1 --seconds 26 --trace 0

It puts the checkout's ``src/`` on the import path and times the import of
lpl, which is part of the reported set-up time.  ``--workload all`` runs the
three workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-sampled", "extend-pair", "orbits-casimir")


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the lpl operations")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        ]
        return max(codes)

    if not (ROOT / "src" / "lpl" / "__init__.py").is_file():
        print(f"error: no lpl sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.dont_write_bytecode = True  # the benchmark writes only its own output files
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = perf_counter()
    import bench  # imports lpl

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), perf_counter() - start)


if __name__ == "__main__":
    sys.exit(main())
