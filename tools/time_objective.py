"""Time training and the CALM sequential merge at several model sizes, for one or more
source trees.

    python tools/time_objective.py --src parent=/path/to/parent/src --src change=src \
        --repeats 5 --out BENCH_3.json

`--sizes` takes any hidden_dims, such as `96,96`; it defaults to `SIZES`.

For each model size, one worker process per source tree imports calmkit from
that tree and generates the same tasks in a temporary directory, and then
waits. The main process asks the workers, in an order that alternates between
repeats, first for one timed training sample (the mean of `TRAININGS` trainings
at (32,) and of one elsewhere, each a pretrain and then a finetune) each,
`--repeats` times, and then, after each worker has sampled its credible sets,
for one timed `sequential_merge` each, `--repeats` times, so that slow and
fast phases of the host fall on every side alike. Every worker runs with one
BLAS/OpenMP thread, set before numpy loads, and reports numpy's version, its
BLAS and `nproc`, the CPUs its affinity allows, as `nn.helper_slots` counts them.
Each timed region runs under perfbench's `HostSpeed` probe, imported from
`perfbench/worker.py`, which corrects its wall time for the host's speed. The raw
time stays the primary one: the probe runs in the timed process, so work that a
change moves onto calmkit's helper thread can slow the probe and be read as host
slowness, which the correction then credits to the change.

Per size and side the output holds the median and interquartile range of the
pretrain, finetune and merge wall times, raw and corrected, and of the worker's
minor page faults and system CPU seconds over each of them, each beside its first
repeat, which pays for what the repeats after it find warm; the worker's peak RSS
once it has trained and sampled, and again after its merges; the peak of what one more,
untimed merge allocates, by tracemalloc, which the process-wide RSS peak hides
when training set it; and sha256 prefixes of the pretrained and fine-tuned
checkpoints, of every step's binary mask (as float64 0/1 bytes, whether the tree
returns a bool mask or a float one) and of the merged parameters, so sides can be
compared bit for bit; and the worker's thread count after its first training and after
its merges, 2 once a fine-tune ran half of its stack or a merge ran blocks of its mask
objective on calmkit's helper thread, else 1. Each side after
the first is also compared with the first: the largest relative difference of any
`objective_trace` value, and, per step, the coordinates where the binary masks
differ. The main process imports neither numpy nor calmkit.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter

PERFBENCH_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
# the default sizes, as hidden_dims
SIZES = ("32", "256,256", "1024,1024")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Trainings per timed sample at (32,), whose mean the sample reports; every other size
# trains once per sample. One 709-parameter training takes 0.3 s, within the host's
# noise. Two sides on one tree, --repeats 5, two runs each, 2-vCPU Xeon: at 1 training
# the pretrain/finetune IQRs were 0.015-0.068/0.008-0.031 s on medians of 0.19/0.12 s;
# at 10, 0.004-0.035/0.003-0.019 s, with the sides' medians within 0.009/0.002 s of each
# other.
TRAININGS = 10
# What each timed region records, as the suffix of its key: wall seconds, raw and
# corrected for the host's speed, minor page faults (ru_minflt) and system CPU seconds
# (ru_stime); faults and system time show the kernel's share, as when the heap is
# trimmed and then faulted in again.
USAGE = ("s", "corrected_s", "minflt", "sys_s")
REGIONS = ("pretrain", "finetune", "merge")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _mask01(mask):
    """A step's mask as float64 0/1, from a bool array or from a holder of that float64
    array in `.m` (the mask type of older trees), so every tree's masks digest alike."""
    import numpy as np

    return np.asarray(getattr(mask, "m", mask), dtype=np.float64)


def _model_bytes(model) -> bytes:
    """A model's float64 bytes, from a (P,) array or from a holder of that array in
    `.values` (the model type of older trees), so every tree's models digest alike."""
    return getattr(model, "values", model).tobytes()


def masks_sha(masks) -> str:
    """The sha256 prefix of the masks' float64 0/1 bytes, in order."""
    return _sha(b"".join(_mask01(mask).tobytes() for mask in masks))


def hidden_size(text: str) -> str:
    """`text`, comma-separated positive hidden widths, in the form SIZES writes them."""
    try:
        widths = [int(width) for width in text.split(",")]
    except ValueError:
        widths = [0]
    if min(widths) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not comma-separated positive widths")
    return ",".join(map(str, widths))


def size_entries(hidden: str) -> dict[str, str]:
    """The config entries of a size: every size but (32,) trains at lr 0.02, as the
    default lr 0.05 misses the fine-tune accuracy floor at (256, 256)."""
    lrs = {} if hidden == "32" else {"train.pretrain_lr": "0.02", "train.finetune_lr": "0.02"}
    return {"train.hidden_dims": hidden, **lrs}


def _blas() -> str:
    import numpy as np

    try:
        libs = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{libs.get('name')} {libs.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _host_speed():
    """A `HostSpeed` probe, from perfbench's worker as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH_WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HostSpeed()


def _timed(speed, fn, *args):
    """fn(*args) under the `HostSpeed` probe `speed`, and its wall seconds, those times
    the probe's factor over the call, the worker's minor page faults and its system CPU
    seconds over the call, under the keys of USAGE."""
    with speed:
        since = len(speed.samples)
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        result = fn(*args)
        seconds = perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    return result, {"s": seconds, "corrected_s": seconds * speed.factor(since),
                    "minflt": after.ru_minflt - before.ru_minflt,
                    "sys_s": after.ru_stime - before.ru_stime}


def _peak_rss_mb() -> float:
    """The worker's peak RSS so far; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _traced(fn, *args):
    """fn(*args), and the peak MB that tracemalloc traced over the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def worker(hidden: str):
    """Generate the tasks, then answer one command per stdin line: 'train' trains the
    pipeline once, 'sample' samples from the last training, 'run' merges once, 'trace'
    merges once under tracemalloc."""
    import numpy as np

    from calmkit.bench.config import build_config
    from calmkit.bench.runner import stage_finetune, stage_generate, stage_pretrain, stage_sample
    from calmkit.calm import sequential_merge

    config = build_config(size_entries(hidden))
    trainings = TRAININGS if hidden == "32" else 1
    speed = _host_speed()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        tasks = stage_generate(config, workdir)
        print(json.dumps({
            "numpy": np.__version__, "blas": _blas(), "nproc": len(os.sched_getaffinity(0)),
            "threads": {key: os.environ.get(key) for key in PINNED},
        }), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "train":
                totals = {f"{stage}_{key}": 0.0 for stage in ("pretrain", "finetune")
                          for key in USAGE}
                for _ in range(trainings):
                    theta_pre, pretrain_usage = _timed(speed, stage_pretrain, config, workdir,
                                                       tasks)
                    ckpt, finetune_usage = _timed(speed, stage_finetune, config, workdir, tasks,
                                                  theta_pre)
                    for stage, usage in (("pretrain", pretrain_usage),
                                         ("finetune", finetune_usage)):
                        for key, value in usage.items():
                            totals[f"{stage}_{key}"] += value
                print(json.dumps({
                    **{key: total / trainings for key, total in totals.items()},
                    "parameters": ckpt.spec.parameter_count,
                    "pretrained_sha": _sha(_model_bytes(theta_pre)),
                    "checkpoints_sha": _sha(b"".join(map(_model_bytes, ckpt.finetuned))),
                    "threads": threading.active_count(),
                }), flush=True)
            elif command == "sample":
                # (inputs, pseudo-labels) pairs: sequential_merge takes them in every tree
                examples = {t: (tasks[t].unlabeled_inputs[cs.indices], cs.pseudo_labels)
                            for t, cs in stage_sample(config, workdir, tasks, ckpt).items()}
                # the peak of generate, the trainings and sample
                print(json.dumps({"setup_peak_rss_mb": _peak_rss_mb()}), flush=True)
            elif command in ("run", "trace"):
                measure = partial(_timed, speed) if command == "run" else _traced
                result, usage = measure(sequential_merge, ckpt, config.plan, examples)
                print(json.dumps({
                    **({f"merge_{key}": value for key, value in usage.items()}
                       if command == "run" else {"merge_traced_peak_mb": usage}),
                    "merge_peak_rss_mb": _peak_rss_mb(),
                    "threads": threading.active_count(),
                    "masks_sha": masks_sha(step.mask for step in result.steps),
                    "merged_sha": _sha(_model_bytes(result.merged)),
                    # floats print with repr, so the traces round-trip exactly
                    "objective_traces": [step.objective_trace.tolist() for step in result.steps],
                    "masks_hex": [np.packbits(_mask01(step.mask) == 1.0).tobytes().hex()
                                  for step in result.steps],
                }), flush=True)
            else:
                break


def _start(src: str, hidden: str) -> subprocess.Popen:
    env = {**os.environ, **PINNED, "PYTHONPATH": str(Path(src).resolve())}
    return subprocess.Popen([sys.executable, __file__, "--worker", hidden], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def _read(proc: subprocess.Popen) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"worker {proc.args} exited with {proc.wait()}")
    return json.loads(line)


def _ask(proc: subprocess.Popen, command: str) -> dict:
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    return _read(proc)


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "first": values[0],
            "runs": values}


def _compare(first: dict, other: dict) -> dict:
    """How one side's merge outputs differ from the first side's."""
    rel = max((abs(b - a) / abs(a) if a else abs(b)
               for trace_a, trace_b in zip(first["objective_traces"], other["objective_traces"])
               for a, b in zip(trace_a, trace_b)), default=0.0)
    coordinates = {}
    for step, (hex_a, hex_b) in enumerate(zip(first["masks_hex"], other["masks_hex"])):
        bytes_a, bytes_b = bytes.fromhex(hex_a), bytes.fromhex(hex_b)
        # packbits is big-endian within a byte: bit 7 holds the byte's first coordinate
        flipped = [8 * i + bit for i, (x, y) in enumerate(zip(bytes_a, bytes_b)) if x != y
                   for bit in range(8) if (x ^ y) >> (7 - bit) & 1]
        if flipped:
            coordinates[f"step{step:02d}"] = flipped
    return {"objective_trace_max_rel_diff": rel, "mask_diff_coordinates": coordinates}


def _alternate(procs: dict[str, subprocess.Popen], command: str, repeats: int
               ) -> dict[str, list[dict]]:
    """`repeats` answers per side to `command`, the sides' order reversed every repeat."""
    replies = {name: [] for name in procs}
    names = list(procs)
    for rep in range(repeats):
        for name in names if rep % 2 == 0 else names[::-1]:
            replies[name].append(_ask(procs[name], command))
    return replies


def _one(replies: list[dict], keys: tuple[str, ...], what: str) -> dict:
    """The values of `keys`, which every reply must repeat exactly."""
    values = {tuple(reply[key] for key in keys) for reply in replies}
    if len(values) != 1:
        raise RuntimeError(f"{what} differ between repeats")
    return dict(zip(keys, values.pop()))


def measure(sides: dict[str, str], hidden: str, repeats: int) -> dict:
    procs, envs = {}, {}
    try:
        for name, src in sides.items():
            procs[name] = _start(src, hidden)
            envs[name] = _read(procs[name])
        trains = _alternate(procs, "train", repeats)
        peaks = {name: _ask(proc, "sample") for name, proc in procs.items()}
        runs = _alternate(procs, "run", repeats)
        traces = {name: _ask(proc, "trace") for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    out = {}
    names = list(sides)
    first = runs[names[0]][0]
    for name in names:
        checkpoints = _one(trains[name], ("parameters", "pretrained_sha", "checkpoints_sha"),
                           f"{name} at {hidden}: checkpoints")
        outputs = _one(runs[name] + [traces[name]], ("masks_sha", "merged_sha"),
                       f"{name} at {hidden}: merges")
        out[name] = {**envs[name], **peaks[name], **checkpoints, **outputs,
                     "merge_peak_rss_mb": runs[name][-1]["merge_peak_rss_mb"],
                     "merge_traced_peak_mb": traces[name]["merge_traced_peak_mb"],
                     "threads_after_finetune": trains[name][0]["threads"],
                     "threads_after_merge": traces[name]["threads"],
                     **{f"{region}_{key}": _quartiles([r[f"{region}_{key}"] for r in replies])
                        for region, replies in (("pretrain", trains[name]),
                                                ("finetune", trains[name]),
                                                ("merge", runs[name]))
                        for key in USAGE}}
        if name != names[0]:
            out[name][f"vs_{names[0]}"] = _compare(first, runs[name][0])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", required=True, metavar="NAME=DIR",
                        help="a source tree holding calmkit; give it once per side")
    parser.add_argument("--sizes", nargs="+", default=list(SIZES), type=hidden_size,
                        metavar="HIDDEN", help="hidden_dims, such as 96,96")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5")
    sides = dict(item.split("=", 1) for item in args.src)
    results = {}
    for hidden in args.sizes:
        results[hidden] = measure(sides, hidden, args.repeats)
        for name, side in results[hidden].items():
            times = "  ".join(f"{region} {side[f'{region}_s']['median']:.3f} s (IQR "
                              f"{side[f'{region}_s']['iqr']:.3f}, first "
                              f"{side[f'{region}_s']['first']:.3f} s; corrected "
                              f"{side[f'{region}_corrected_s']['median']:.3f} s, IQR "
                              f"{side[f'{region}_corrected_s']['iqr']:.3f}; "
                              f"{side[f'{region}_minflt']['median']:,.0f} faults, first "
                              f"{side[f'{region}_minflt']['first']:,.0f}; "
                              f"sys {side[f'{region}_sys_s']['median']:.3f} s, first "
                              f"{side[f'{region}_sys_s']['first']:.3f} s)"
                              for region in REGIONS)
            print(f"({hidden}) {side['parameters']:>9,} params  {name:>8} on {side['nproc']} "
                  f"CPUs: {times}  peak RSS "
                  f"{side['setup_peak_rss_mb']:.1f} MB, {side['merge_peak_rss_mb']:.1f} MB after "
                  f"the merges  merge traced peak {side['merge_traced_peak_mb']:.1f} MB  "
                  f"threads {side['threads_after_finetune']}/{side['threads_after_merge']} "
                  f"after the first training/the merges  "
                  f"pretrained {side['pretrained_sha']}  "
                  f"checkpoints {side['checkpoints_sha']}  masks {side['masks_sha']}  "
                  f"merged {side['merged_sha']}", file=sys.stderr, flush=True)
            for other, diff in ((k[3:], v) for k, v in side.items() if k.startswith("vs_")):
                print(f"    vs {other}: objective_trace max rel diff "
                      f"{diff['objective_trace_max_rel_diff']:.3g}, differing mask coordinates "
                      f"{diff['mask_diff_coordinates'] or 'none'}", file=sys.stderr, flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        main()
