"""Check that two or more source trees write the same artifact bytes.

    python tools/compare_artifacts.py --src parent=/path/to/parent/src --src change=src

Each side runs in a fresh worker process that imports calmkit from its tree,
with one BLAS/OpenMP thread set before numpy loads. The worker runs
`run_experiment` on the default config at config seeds 0-31 and
`ablation_suite(config, "order")` at config seeds 0-9, each in its own
directory under the side's output directory. The default runs also report the objective and density traces:
masks.calmckpt holds only the rounded masks, while a trace shows a change in
the last bit of any iteration. The sides run at the same time; their times do
not matter here.

Then every file that any side wrote is compared with the first side's file of
the same relative path: masks, checkpoints, credible sets and reports alike.
The script lists each file whose bytes differ or that one side lacks, and
exits 1 if there is any such file and 0 if there is none. The outputs are kept
under `--workdir` when it is given, and deleted otherwise.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEEDS = 32
ORDER_SEEDS = 10
# report.csv and report.txt as on the default config, plus one CSV per trace
TRACED_REPORT = "accuracy, density_trace, objective_trace"


def worker(out: str):
    """Write every artifact of the side's runs under `out`."""
    from calmkit.bench.config import build_config
    from calmkit.bench.runner import ablation_suite, run_experiment

    for seed in range(DEFAULT_SEEDS):
        config = build_config({"seed": str(seed), "report": TRACED_REPORT})
        run_experiment(config, Path(out, "default", f"seed{seed:02d}"))
    for seed in range(ORDER_SEEDS):
        ablation_suite(build_config({"seed": str(seed)}), "order",
                       Path(out, "order", f"seed{seed:02d}"))


def _files(root: Path) -> dict[str, Path]:
    return {path.relative_to(root).as_posix(): path
            for path in sorted(root.rglob("*")) if path.is_file()}


def compare(roots: dict[str, Path]) -> list[str]:
    """One line per file that differs from the first side's, or that a side lacks."""
    names = list(roots)
    first = _files(roots[names[0]])
    lines = []
    for name in names[1:]:
        other = _files(roots[name])
        for rel in sorted(first.keys() | other.keys()):
            if rel not in other:
                lines.append(f"{rel}: missing on {name}")
            elif rel not in first:
                lines.append(f"{rel}: missing on {names[0]}")
            elif first[rel].read_bytes() != other[rel].read_bytes():
                lines.append(f"{rel}: {name} differs from {names[0]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=DIR",
                        help="a source tree holding calmkit; give it once per side")
    parser.add_argument("--workdir", type=Path, help="keep every side's outputs here")
    args = parser.parse_args(argv)
    sides = dict(item.split("=", 1) for item in args.src)
    if len(sides) < 2:
        parser.error("give --src at least twice, with distinct names")
    with tempfile.TemporaryDirectory() as tmp:
        base = args.workdir or Path(tmp)
        roots = {name: base / name for name in sides}
        if any(root.exists() for root in roots.values()):
            parser.error(f"{base} already holds a side's outputs; give an empty --workdir")
        procs = {}
        for name, src in sides.items():
            env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve())}
            procs[name] = subprocess.Popen(
                [sys.executable, __file__, "--worker", str(roots[name])],
                env=env, stdout=subprocess.DEVNULL)
        failed = [name for name, proc in procs.items() if proc.wait() != 0]
        if failed:
            print(f"worker failed on {', '.join(failed)}", file=sys.stderr)
            return 2
        lines = compare(roots)
        count = len(_files(roots[next(iter(roots))]))
    for line in lines:
        print(line)
    print(f"{len(lines)} differing files of {count} ({DEFAULT_SEEDS} default and "
          f"{ORDER_SEEDS} order config seeds)")
    return 1 if lines else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
