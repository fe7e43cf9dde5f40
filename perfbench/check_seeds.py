"""Run workloads once on every config seed the benchmark uses; exit 1 if any operation fails.

    python3 perfbench/check_seeds.py default staged-wide
    python3 perfbench/check_seeds.py order --seeds 0-3

`order` takes about 30 s per seed, `staged-wide` about 9 s and `default` 1 s.
BLAS should be pinned as in a benchmark run: OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1. Working directories go under `.perfbench/` and are removed.
"""
from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import CONFIG_SEEDS, WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default=f"0-{CONFIG_SEEDS - 1}",
                        help="inclusive range FIRST-LAST (default: every config seed)")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    failures = 0
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in range(first, last + 1):
            workdir = ROOT / ".perfbench" / f"check-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                rep = workload.run(workload.prepare({"seed": str(seed)}), workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            last_line = rep.errors[0].strip().splitlines()[-1] if rep.errors else ""
            print(f"{name} seed {seed}: {rep.failed} of {rep.attempted} failed {last_line}",
                  flush=True)
            failures += rep.failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
