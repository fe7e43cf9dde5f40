"""Check that two or more source trees write the same artifact bytes.

    python tools/compare_artifacts.py --src parent=/path/to/parent/src --src change=src

Each side runs in a fresh worker process that imports calmkit from its tree,
with one BLAS/OpenMP thread set before numpy loads. The worker runs
`run_experiment` on the default config at config seeds 0-31 and
`ablation_suite(config, "order")` at config seeds 0-9, and then, under
`branches/`, `run_experiment` at config seeds 0-3 for each of `BRANCHES`, the
configs that reach the kernels' other branches (tanh, the entropy and
supervised mask objectives, the other merge strategies, per-task heads, EMS
sampling, a linear model and a (32, 32, 32) one), plus one `WIDE` (256, 256)
run at seed 0, and under `suites/` every other ablation suite (`SUITES`) at
config seed 0; each run in its own directory under the side's output
directory. The `run_experiment` and `suites/` runs also report the objective
and density traces, which show a change in the last bit of any iteration where
the rounded masks do not, and the masks' layer densities and magnitude overlaps.
The sides run at the same time; their times do not matter here.

After its runs, each worker loads every container it wrote with its own tree's
`load_tasks`, `load_checkpoint` and `load_credible_sets`, flattens what each
returns (dataclass fields, mapping keys and sequence indices; the parts of a
returned tuple side by side, so a header part holds no array) and digests every
array by its path, such as `0.indices` or `step00_task06`.

Then every file that any side wrote is compared with the first side's file of
the same relative path: masks, checkpoints, credible sets and reports alike.
The script lists each file whose bytes differ or that one side lacks, then
tallies them per file name (`credible.calmcred: 602 of 602 differ`), so a
stated change reads as one line per kind of artifact, and per workload group
(`branches/: 0 of 319 differ`). A differing container whose arrays all match
the first side's differs in its header only, and is tallied so as well
(`merged.calmckpt: 629 of 629 differ (629 header only)`). A file in
`STATED_MISSING` that a later side lacks, or in `STATED_ADDED` that only a later
side has, is tallied as stated, not as differing. The payload tally compares the
arrays of every container both sides wrote (`payload: 0 of 7685 arrays differ`)
and names each array that only one side has, without counting it as differing.
The script exits 1 if any file or array differs and 0 if none does. When an
average accuracy differs, it also prints, per workload and side, each seed's
paired change from the first side (report.csv's average for `default`,
summary.csv's mean for `order`), and the mean paired difference with its
standard error: the check for a change that alters the batch stream on purpose.
The outputs are kept under `--workdir` when it is given, and deleted otherwise.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path, PurePosixPath
from typing import Mapping

import numpy as np

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEFAULT_SEEDS = 32
ORDER_SEEDS = 10
# report.csv and report.txt as on the default config, plus one CSV per trace and the
# two mask diagnostics that read the rounded masks
TRACED_REPORT = "accuracy, density_trace, objective_trace, layer_density, magnitude_overlap"
BRANCH_SEEDS = 4
# the default config's other kernel branches, each run at config seeds 0 to BRANCH_SEEDS - 1
BRANCHES = {
    "tanh": {"train.activation": "tanh"},
    "entropy": {"sampling.objective": "entropy"},
    "supervised": {"sampling.objective": "supervised"},
    "only_mask": {"plan.strategy": "only_mask"},
    "only_complement": {"plan.strategy": "only_complement"},
    "per_task": {"train.head_mode": "per_task"},
    "ems": {"sampling.mode": "ems"},
    # no hidden layer writes no dz over an activation; three write each dz over the
    # activation it consumed. At lr 0.05 the deep model misses the accuracy floor on
    # some tasks
    "linear": {"train.hidden_dims": ""},
    "deep": {"train.hidden_dims": "32,32,32", "train.pretrain_lr": "0.02",
             "train.finetune_lr": "0.02"},
}
# one BLAS-bound run at seed 0; the default lr 0.05 misses the accuracy floor at (256, 256)
WIDE = {"train.hidden_dims": "256,256", "train.pretrain_lr": "0.02", "train.finetune_lr": "0.02"}
# the ablation suites besides `order`, each run once at config seed 0
SUITES = ("sampling_rate", "strategy", "reg_coef", "lr", "components")
# files a later side may lack on purpose: the order points read the suite's shared
# credible sets, which format version 2 no longer copies into each point
STATED_MISSING = ("order/*/order_*/credible.calmcred",)
# files a later side may add on purpose: the reports of the components point, which
# trees whose components point ran no stage_evaluate do not write
STATED_ADDED = tuple(f"suites/components/components/{name}" for name in (
    "report.csv", "report.txt", "layer_density.csv", "density_trace.csv",
    "objective_trace.csv", "magnitude_overlap.csv"))
STATED = ("missing as stated", "added as stated")
HEADER_ONLY = "in its header only"
# the loader of each container, by suffix
LOADERS = {".calmdata": "load_tasks", ".calmckpt": "load_checkpoint",
           ".calmcred": "load_credible_sets"}


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
    runs = [(name, seed, overrides) for name, overrides in BRANCHES.items()
            for seed in range(BRANCH_SEEDS)] + [("wide", 0, WIDE)]
    for name, seed, overrides in runs:
        config = build_config({"seed": str(seed), "report": TRACED_REPORT, **overrides})
        run_experiment(config, Path(out, "branches", name, f"seed{seed:02d}"))
    for suite in SUITES:
        ablation_suite(build_config({"report": TRACED_REPORT}), suite, Path(out, "suites", suite))
    _payload_file(out).write_text(json.dumps(payload_digests(Path(out))))


def _payload_file(root) -> Path:
    return Path(f"{root}.payloads.json")


def leaves(value, path: tuple = ()):
    """Every array in a loaded value with its path of dataclass fields, mapping keys and
    sequence indices, joined by dots."""
    if isinstance(value, np.ndarray):
        yield ".".join(path), value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from leaves(getattr(value, field.name), (*path, field.name))
    elif isinstance(value, Mapping):
        for key, item in value.items():
            yield from leaves(item, (*path, str(key)))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from leaves(item, (*path, str(index)))


def payload_digests(root: Path) -> dict[str, dict[str, str]]:
    """Per container under root, a digest of each array that the tree's loader returns;
    the parts of a returned tuple, such as (header, payload), are flattened side by side."""
    from calmkit.bench import formats

    out = {}
    for rel, path in _files(root).items():
        if path.suffix in LOADERS:
            loaded = getattr(formats, LOADERS[path.suffix])(path)
            parts = loaded if isinstance(loaded, tuple) else (loaded,)
            out[rel] = {name: hashlib.sha256(f"{values.dtype.str}{values.shape}".encode()
                                             + values.tobytes()).hexdigest()[:16]
                        for part in parts for name, values in leaves(part)}
    return out


def _files(root: Path) -> dict[str, Path]:
    return {path.relative_to(root).as_posix(): path
            for path in sorted(root.rglob("*")) if path.is_file()}


def _statuses(roots: dict[str, Path], payloads: Mapping | None = None
              ) -> dict[str, dict[str, str | None]]:
    """Per side after the first: every file that it or the first side wrote, and how it
    differs from the first side's file (None when the bytes are the same); with the
    sides' `payload_digests`, a container whose arrays all match differs in its header
    only."""
    names = list(roots)
    first = _files(roots[names[0]])
    payloads = payloads or {name: {} for name in names}
    out = {}
    for name in names[1:]:
        other = _files(roots[name])
        status: dict[str, str | None] = {}
        for rel in sorted(first.keys() | other.keys()):
            if rel not in other and any(PurePosixPath(rel).match(p) for p in STATED_MISSING):
                status[rel] = STATED[0]
            elif rel not in first and any(PurePosixPath(rel).match(p) for p in STATED_ADDED):
                status[rel] = STATED[1]
            elif rel not in other:
                status[rel] = f"missing on {name}"
            elif rel not in first:
                status[rel] = f"missing on {names[0]}"
            elif first[rel].read_bytes() != other[rel].read_bytes():
                arrays = payloads[names[0]].get(rel)
                header_only = arrays is not None and arrays == payloads[name].get(rel)
                status[rel] = f"{name} differs from {names[0]}" + (
                    f" {HEADER_ONLY}" if header_only else "")
            else:
                status[rel] = None
        out[name] = status
    return out


def compare(roots: dict[str, Path], payloads: Mapping | None = None) -> list[str]:
    """One line per file that differs from the first side's, or that a side lacks."""
    return [f"{rel}: {why}" for status in _statuses(roots, payloads).values()
            for rel, why in status.items() if why not in (None, *STATED)]


def workload(rel: str) -> str:
    """The workload group of a relative path: its first directory, as `branches/`."""
    return rel.split("/")[0] + "/"


def tally(roots: dict[str, Path], key=lambda rel: PurePosixPath(rel).name,
          payloads: Mapping | None = None) -> list[str]:
    """Per file name, or per other `key` of the relative path, such as `workload`, how
    many of the files of that kind differ or are missing, and of those how many differ
    in their header only: one line per kind, with the side named when there are more
    than two."""
    statuses = _statuses(roots, payloads)
    lines = []
    for name, status in statuses.items():
        total, differ, header = Counter(), Counter(), Counter()
        stated = {why: Counter() for why in STATED}
        for rel, why in status.items():
            kind = key(rel)
            total[kind] += 1
            differ[kind] += why not in (None, *STATED)
            if why in stated:
                stated[why][kind] += 1
            header[kind] += bool(why and why.endswith(HEADER_ONLY))
        side = f" on {name}" if len(statuses) > 1 else ""
        lines += [f"{kind}: {differ[kind]} of {total[kind]} differ{side}"
                  + (f" ({header[kind]} header only)" if header[kind] else "")
                  + "".join(f" ({count[kind]} {why})" for why, count in stated.items()
                            if count[kind])
                  for kind in sorted(total)]
    return lines


def compare_payloads(payloads: dict[str, dict[str, dict[str, str]]]) -> tuple[list, list]:
    """Per side after the first, against the first side's containers of the same path:
    one line per array that differs, and the tally: how many arrays the containers that
    both sides wrote share and how many of those differ, then, by the last part of its
    path, each array only one side has (`inputs`), which does not count as differing."""
    names = list(payloads)
    first = payloads[names[0]]
    differing, tally = [], []
    for name in names[1:]:
        shared, differ, only = 0, 0, Counter()
        for rel in sorted(first.keys() & payloads[name].keys()):
            a, b = first[rel], payloads[name][rel]
            for leaf in sorted(a.keys() | b.keys()):
                if leaf in a and leaf in b:
                    shared += 1
                    if a[leaf] != b[leaf]:
                        differ += 1
                        differing.append(f"{rel} {leaf}: {name} differs from {names[0]}")
                else:
                    only[(leaf.rsplit(".", 1)[-1], names[0] if leaf in a else name)] += 1
        side = f" on {name}" if len(names) > 2 else ""
        tally.append(f"payload: {differ} of {shared} arrays differ{side}")
        tally += [f"payload: {leaf} only on {owner} ({n} arrays)"
                  for (leaf, owner), n in sorted(only.items())]
    return differing, tally


# the average accuracy of each run: its file and the first field of its row
ACCURACY_ROWS = {"default": ("report.csv", "average"), "order": ("summary.csv", "mean")}


def _accuracy(path: Path, row: str) -> float:
    for line in path.read_text().splitlines():
        name, _, value = line.partition(",")
        if name == row:
            return float(value)
    raise ValueError(f"{path} has no {row!r} row")


def paired_accuracy(roots: dict[str, Path]) -> list[str]:
    """Per workload and side, each seed's average accuracy change from the first side,
    then the mean paired difference and its standard error; none if nothing changed."""
    names = list(roots)
    lines = []
    for workload, (filename, row) in ACCURACY_ROWS.items():
        for name in names[1:]:
            pairs = {}
            for path in sorted(roots[names[0]].glob(f"{workload}/*/{filename}")):
                other = roots[name] / path.relative_to(roots[names[0]])
                if other.is_file():
                    pairs[path.parent.name] = (_accuracy(path, row), _accuracy(other, row))
            # an equal mean of other per-task accuracies can differ in its last bit
            diffs = [round(b - a, 12) + 0.0 for a, b in pairs.values()]  # no -0.0
            if not any(diffs):
                continue
            lines += [f"{workload} {run}, {name}: {a:.6f} -> {b:.6f} ({d:+.6f})"
                      for (run, (a, b)), d in zip(pairs.items(), diffs)]
            error = statistics.stdev(diffs) / len(diffs) ** 0.5 if len(diffs) > 1 else 0.0
            before, after = (statistics.mean(side) for side in zip(*pairs.values()))
            lines.append(f"{workload}, {name} against {names[0]}: mean {before:.6f} -> "
                         f"{after:.6f}, paired difference {statistics.mean(diffs):+.6f} "
                         f"(standard error {error:.6f}; {sum(d > 0 for d in diffs)} rose, "
                         f"{sum(d < 0 for d in diffs)} fell, {diffs.count(0.0)} same)")
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
        payloads = {name: json.loads(_payload_file(root).read_text())
                    for name, root in roots.items()}
        lines = compare(roots, payloads)
        kinds = tally(roots, payloads=payloads) + tally(roots, workload, payloads)
        arrays, payload = compare_payloads(payloads)
        accuracy = paired_accuracy(roots)
        count = len(_files(roots[next(iter(roots))]))
    for line in lines + arrays + kinds + payload + accuracy:
        print(line)
    print(f"{len(lines)} differing files of {count} and {len(arrays)} differing arrays "
          f"({DEFAULT_SEEDS} default and {ORDER_SEEDS} order config seeds, {len(BRANCHES)} "
          f"branches at {BRANCH_SEEDS}, one wide run and {len(SUITES)} suites/ at seed 0)")
    return 1 if lines or arrays else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
